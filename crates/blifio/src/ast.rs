//! Parsed BLIF representation: models and their command streams.
//!
//! Commands keep their source order and enough verbatim detail (cube
//! characters, latch init digits, attribute tokens) for the writer to
//! round-trip everything the reader accepted. Names are interned
//! [`Symbol`]s — the raw text is never held whole.

use crate::{Interner, Symbol};
use netlist::Bit;

/// A latch initial value as written (`0`, `1`, `2` = don't care,
/// `3` = unknown). Absence is represented by `Option<InitVal>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitVal {
    /// `0`
    Zero,
    /// `1`
    One,
    /// `2` — don't care.
    DontCare,
    /// `3` — unknown.
    Unknown,
}

impl InitVal {
    /// Parses one init digit.
    pub fn from_token(tok: &str) -> Option<InitVal> {
        match tok {
            "0" => Some(InitVal::Zero),
            "1" => Some(InitVal::One),
            "2" => Some(InitVal::DontCare),
            "3" => Some(InitVal::Unknown),
            _ => None,
        }
    }

    /// The digit as written.
    pub fn as_char(self) -> char {
        match self {
            InitVal::Zero => '0',
            InitVal::One => '1',
            InitVal::DontCare => '2',
            InitVal::Unknown => '3',
        }
    }

    /// Three-valued initial state (`2`/`3` both map to X, as in the old
    /// reader).
    pub fn to_bit(self) -> Bit {
        match self {
            InitVal::Zero => Bit::Zero,
            InitVal::One => Bit::One,
            InitVal::DontCare | InitVal::Unknown => Bit::X,
        }
    }
}

/// Latch trigger type (1992 spec §latch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatchType {
    /// Falling edge.
    Fe,
    /// Rising edge.
    Re,
    /// Active high.
    Ah,
    /// Active low.
    Al,
    /// Asynchronous.
    As,
}

impl LatchType {
    /// Parses a latch-type token.
    pub fn from_token(tok: &str) -> Option<LatchType> {
        match tok {
            "fe" => Some(LatchType::Fe),
            "re" => Some(LatchType::Re),
            "ah" => Some(LatchType::Ah),
            "al" => Some(LatchType::Al),
            "as" => Some(LatchType::As),
            _ => None,
        }
    }

    /// The keyword as written.
    pub fn as_str(self) -> &'static str {
        match self {
            LatchType::Fe => "fe",
            LatchType::Re => "re",
            LatchType::Ah => "ah",
            LatchType::Al => "al",
            LatchType::As => "as",
        }
    }
}

/// A `.names` logic block with verbatim cubes.
///
/// Its inputs and cubes live in its model's pools: the inputs are
/// [`Model::pins`]`[pins_at..pins_at + num_inputs]`, and each cube is
/// `num_inputs` pattern bytes (`0`/`1`/`-`) then one value byte
/// (`0`/`1`) in [`Model::cubes`], from `cubes_at` on.
#[derive(Debug, Clone)]
pub struct Names {
    /// Output signal.
    pub output: Symbol,
    /// Offset of the first input in [`Model::pins`].
    pub pins_at: usize,
    /// Number of inputs (zero for a constant).
    pub num_inputs: u32,
    /// Offset of the first cube in [`Model::cubes`].
    pub cubes_at: usize,
    /// Number of cubes.
    pub num_cubes: usize,
    /// Source line of the `.names` keyword.
    pub line: u32,
}

impl Names {
    /// Input signals, from `model`'s pin pool.
    pub fn inputs<'m>(&self, model: &'m Model) -> &'m [Symbol] {
        &model.pins[self.pins_at..self.pins_at + self.num_inputs as usize]
    }

    /// Number of cubes.
    pub fn num_cubes(&self) -> usize {
        self.num_cubes
    }

    /// Cube `i` as (pattern bytes, value byte), from `model`'s cube pool.
    pub fn cube<'m>(&self, model: &'m Model, i: usize) -> (&'m [u8], u8) {
        let w = self.num_inputs as usize;
        let at = self.cubes_at + i * (w + 1);
        (&model.cubes[at..at + w], model.cubes[at + w])
    }
}

/// A `.latch` declaration.
#[derive(Debug, Clone)]
pub struct Latch {
    /// Data input signal.
    pub input: Symbol,
    /// Latch output signal.
    pub output: Symbol,
    /// Optional trigger type.
    pub ty: Option<LatchType>,
    /// Optional clock/control signal (`NIL` parses as `None`).
    pub control: Option<Symbol>,
    /// Optional initial value.
    pub init: Option<InitVal>,
    /// Source line.
    pub line: u32,
}

/// A `.subckt` instantiation: formal=actual bindings in source order.
#[derive(Debug, Clone)]
pub struct Subckt {
    /// The instantiated model's name.
    pub model: Symbol,
    /// `(formal, actual)` pairs.
    pub conns: Vec<(Symbol, Symbol)>,
    /// Source line.
    pub line: u32,
}

/// A `.gate` library-cell instantiation.
#[derive(Debug, Clone)]
pub struct LibGate {
    /// Cell name (looked up in the built-in library at link time).
    pub cell: Symbol,
    /// `(pin, actual)` pairs.
    pub conns: Vec<(Symbol, Symbol)>,
    /// Source line.
    pub line: u32,
}

/// A `.mlatch` library-latch instantiation.
#[derive(Debug, Clone)]
pub struct Mlatch {
    /// Cell name.
    pub cell: Symbol,
    /// `(pin, actual)` pairs.
    pub conns: Vec<(Symbol, Symbol)>,
    /// Optional control signal (`NIL` parses as `None`).
    pub control: Option<Symbol>,
    /// Optional initial value.
    pub init: Option<InitVal>,
    /// Source line.
    pub line: u32,
}

/// An embedded KISS FSM block (`.start_kiss` .. `.end_kiss`), kept as
/// verbatim text and synthesised through `workloads::kiss` at link time.
#[derive(Debug, Clone)]
pub struct KissBlock {
    /// The lines between the markers (one per source line).
    pub text: String,
    /// Source line of `.start_kiss`.
    pub line: u32,
}

/// Which yosys annotation directive a [`Command::Attr`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrKind {
    /// `.attr key value`
    Attr,
    /// `.param key value`
    Param,
    /// `.cname name`
    Cname,
}

impl AttrKind {
    /// The directive keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            AttrKind::Attr => ".attr",
            AttrKind::Param => ".param",
            AttrKind::Cname => ".cname",
        }
    }
}

/// One command of a model body, in source order.
#[derive(Debug, Clone)]
pub enum Command {
    /// A `.names` logic block.
    Names(Names),
    /// A `.latch`.
    Latch(Latch),
    /// A `.subckt`.
    Subckt(Subckt),
    /// A `.gate`.
    Gate(LibGate),
    /// A `.mlatch`.
    Mlatch(Mlatch),
    /// An embedded KISS FSM.
    Kiss(KissBlock),
    /// A yosys annotation (`.attr` / `.param` / `.cname`), verbatim.
    Attr {
        /// Which directive.
        kind: AttrKind,
        /// Its tokens, verbatim.
        args: Vec<String>,
        /// Source line.
        line: u32,
    },
    /// A yosys `.conn from to` alias (linked as a buffer).
    Conn {
        /// Driving signal.
        from: Symbol,
        /// Driven signal.
        to: Symbol,
        /// Source line.
        line: u32,
    },
    /// Any other dot-directive (delay constraints, `.latch_order`,
    /// `.code`, …) carried verbatim as metadata for round-tripping.
    Directive {
        /// Keyword without the leading dot.
        name: String,
        /// Its tokens, verbatim.
        args: Vec<String>,
        /// Source line.
        line: u32,
    },
}

/// One `.model`.
#[derive(Debug, Clone)]
pub struct Model {
    /// Model name.
    pub name: String,
    /// `.inputs`, in order (possibly from several directives).
    pub inputs: Vec<Symbol>,
    /// `.outputs`, in order.
    pub outputs: Vec<Symbol>,
    /// Source line of each `.outputs` entry (parallel to `outputs`; used
    /// when an output has no driver).
    pub output_lines: Vec<u32>,
    /// `.clock` signals (metadata; not data wires).
    pub clocks: Vec<Symbol>,
    /// Declared `.blackbox` (yosys): interface only, no body expected.
    pub blackbox: bool,
    /// Body commands in source order.
    pub commands: Vec<Command>,
    /// Input signals of every `.names` block, back to back.
    pub pins: Vec<Symbol>,
    /// Cubes of every `.names` block, back to back.
    pub cubes: Vec<u8>,
    /// Source line of the `.model` keyword.
    pub line: u32,
}

impl Model {
    /// An empty model.
    pub fn new(name: impl Into<String>, line: u32) -> Model {
        Model {
            name: name.into(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            output_lines: Vec::new(),
            clocks: Vec::new(),
            blackbox: false,
            commands: Vec::new(),
            pins: Vec::new(),
            cubes: Vec::new(),
            line,
        }
    }
}

/// A parsed BLIF file: models plus the name interner.
#[derive(Debug, Clone)]
pub struct BlifFile {
    /// Models in source order (first is the default link root unless it
    /// is a blackbox).
    pub models: Vec<Model>,
    /// The shared name interner.
    pub interner: Interner,
}

impl BlifFile {
    /// Per-model pre-flatten counts, in source order.
    pub fn model_counts(&self) -> Vec<netlist::stats::ModelCounts> {
        self.models
            .iter()
            .map(|m| {
                let mut counts = netlist::stats::ModelCounts {
                    name: m.name.clone(),
                    inputs: m.inputs.len(),
                    outputs: m.outputs.len(),
                    gates: 0,
                    latches: 0,
                    subckts: 0,
                    kiss_blocks: 0,
                    blackbox: m.blackbox,
                };
                for cmd in &m.commands {
                    match cmd {
                        Command::Names(_) | Command::Gate(_) | Command::Conn { .. } => {
                            counts.gates += 1
                        }
                        Command::Latch(_) | Command::Mlatch(_) => counts.latches += 1,
                        Command::Subckt(_) => counts.subckts += 1,
                        Command::Kiss(_) => counts.kiss_blocks += 1,
                        Command::Attr { .. } | Command::Directive { .. } => {}
                    }
                }
                counts
            })
            .collect()
    }
}
