//! Hierarchy linking: `.subckt` elaboration, library-cell resolution,
//! KISS lowering, and flattening into a retiming-graph [`Circuit`].
//!
//! Flattening has two stages. *Elaboration* walks the model hierarchy
//! from the link root, binding `.subckt` formals to parent actuals and
//! prefixing instance-local names with `{model}${ordinal}.` paths; it
//! produces flat gate/latch lists over a flat-name interner that starts
//! as a copy of the file's, so the root model's names keep their
//! symbols and only prefixed names are interned. No hash map is on the
//! path: each instance depth has a table indexed by local symbol whose
//! entries count only when stamped with the current instance, and gate
//! inputs share one pool. *Construction* then builds the circuit:
//! latches fold onto consumer edges as FF chains, and gate nodes whose
//! signal collides with a primary-output name get a `$g` suffix.
//!
//! Embedded KISS FSM blocks are lowered first: each block is parsed
//! with `workloads::kiss`, synthesised to gates, written with
//! [`write_circuit`] and read back as an auxiliary model, and the block
//! replaced by a `.subckt` of it.

use crate::ast::{BlifFile, Command, Model, Names, Subckt};
use crate::diag::{BlifError, Diag};
use crate::intern::{Interner, Symbol};
use crate::lib_cells::{is_output_pin, lookup_cell, lookup_latch_cell};
use crate::parse::parse_str;
use crate::write::{sanitize, write_circuit};
use netlist::{Bit, Circuit, NetlistError, NodeId, TruthTable};
use workloads::kiss::{parse_kiss2, synthesize_stg};
use workloads::Encoding;

/// Options controlling hierarchy flattening.
#[derive(Debug, Clone)]
pub struct LinkOptions {
    /// Link root model name; defaults to the first non-blackbox model.
    pub root: Option<String>,
    /// State encoding for embedded KISS FSMs.
    pub encoding: Encoding,
}

impl Default for LinkOptions {
    fn default() -> LinkOptions {
        LinkOptions {
            root: None,
            encoding: Encoding::Binary,
        }
    }
}

/// Flattens a parsed (possibly hierarchical) BLIF file into a circuit.
///
/// # Errors
///
/// Positioned [`Diag`]s for link problems (unknown models, bad port
/// bindings, recursion, blackbox instantiation), and
/// [`NetlistError`]s for driver conflicts and undefined signals.
pub fn flatten(file: &BlifFile, opts: &LinkOptions) -> Result<Circuit, BlifError> {
    match kiss_lower(file, opts.encoding)? {
        Some(lowered) => flatten_nokiss(&lowered, opts),
        None => flatten_nokiss(file, opts),
    }
}

/// Replaces every embedded KISS block with a `.subckt` of an auxiliary
/// model synthesised through `workloads::kiss`. Returns `None` when the
/// file has no KISS blocks (nothing to clone).
fn kiss_lower(file: &BlifFile, encoding: Encoding) -> Result<Option<BlifFile>, BlifError> {
    let any = file
        .models
        .iter()
        .any(|m| m.commands.iter().any(|c| matches!(c, Command::Kiss(_))));
    if !any {
        return Ok(None);
    }
    let mut out = file.clone();
    let mut aux: Vec<Model> = Vec::new();
    for mi in 0..out.models.len() {
        for ci in 0..out.models[mi].commands.len() {
            let Command::Kiss(block) = &out.models[mi].commands[ci] else {
                continue;
            };
            let base = block.line as usize;
            let stg = parse_kiss2(&block.text)
                .map_err(|e| Diag::new(base + e.line, 1, format!("KISS: {}", e.message)))?;
            let (nin, nout) = (out.models[mi].inputs.len(), out.models[mi].outputs.len());
            if stg.inputs == 0 {
                return Err(
                    Diag::new(base, 1, "KISS block with zero inputs is not supported").into(),
                );
            }
            if stg.inputs != nin || stg.outputs != nout {
                return Err(Diag::new(
                    base,
                    1,
                    format!(
                        "KISS block is {}-in/{}-out but model `{}` declares {nin}/{nout}",
                        stg.inputs, stg.outputs, out.models[mi].name
                    ),
                )
                .into());
            }
            let line = block.line;
            let aux_name = format!("{}$kiss{}", out.models[mi].name, ci);
            let circ = synthesize_stg(&stg, encoding, &aux_name)?;
            let aux_model = graft(parse_str(&write_circuit(&circ))?, &mut out.interner, line);
            let model_sym = out.interner.intern(&aux_name);
            let mut conns = Vec::with_capacity(nin + nout);
            for (i, &actual) in file.models[mi].inputs.iter().enumerate() {
                conns.push((out.interner.intern(&format!("in{i}")), actual));
            }
            for (j, &actual) in file.models[mi].outputs.iter().enumerate() {
                conns.push((out.interner.intern(&format!("out{j}")), actual));
            }
            out.models[mi].commands[ci] = Command::Subckt(Subckt {
                model: model_sym,
                conns,
                line,
            });
            aux.push(aux_model);
        }
    }
    out.models.extend(aux);
    Ok(Some(out))
}

/// The one model of a file [`write_circuit`] wrote, moved to `into`'s
/// symbols, with every source line set to `line` (the KISS block's).
fn graft(synth: BlifFile, into: &mut Interner, line: u32) -> Model {
    let BlifFile { models, interner } = synth;
    let mut m = models
        .into_iter()
        .next()
        .expect("write_circuit writes one model");
    let mut map = |s: &mut Symbol| *s = into.intern(interner.resolve(*s));
    m.inputs.iter_mut().for_each(&mut map);
    m.outputs.iter_mut().for_each(&mut map);
    m.pins.iter_mut().for_each(&mut map);
    m.output_lines.fill(line);
    m.line = line;
    for cmd in &mut m.commands {
        match cmd {
            Command::Names(n) => {
                map(&mut n.output);
                n.line = line;
            }
            Command::Latch(l) => {
                map(&mut l.input);
                map(&mut l.output);
                l.line = line;
            }
            other => unreachable!("write_circuit writes no {other:?}"),
        }
    }
    m
}

/// A flattened gate: resolved truth table over flat signal symbols.
struct FlatGate {
    /// Offset of the first input in [`Flat::pins`].
    pins_at: usize,
    num_pins: usize,
    output: Symbol,
    tt: TruthTable,
    line: u32,
}

/// A flattened latch (FF with a three-valued initial state).
struct FlatLatch {
    input: Symbol,
    output: Symbol,
    init: Bit,
    line: u32,
}

#[derive(Default)]
struct Flat {
    names: Interner,
    gates: Vec<FlatGate>,
    /// Inputs of every flat gate, back to back.
    pins: Vec<Symbol>,
    latches: Vec<FlatLatch>,
}

impl Flat {
    fn gate_inputs(&self, g: &FlatGate) -> &[Symbol] {
        &self.pins[g.pins_at..g.pins_at + g.num_pins]
    }

    fn push_gate(&mut self, pins_at: usize, output: Symbol, tt: TruthTable, line: u32) {
        self.gates.push(FlatGate {
            pins_at,
            num_pins: self.pins.len() - pins_at,
            output,
            tt,
            line,
        });
    }
}

/// A local symbol's flat symbol, which counts only while `stamp` is the
/// current instance's.
#[derive(Clone, Copy)]
struct Slot {
    stamp: u32,
    flat: Symbol,
}

/// One model instance being expanded.
#[derive(Clone, Copy)]
struct Inst<'p> {
    /// Depth below the root (the root is 0).
    depth: usize,
    stamp: u32,
    /// `{model}${ordinal}.` path of the instance (empty at the root).
    prefix: &'p str,
}

struct Linker<'a> {
    file: &'a BlifFile,
    /// Model index of each symbol that names a model.
    model_of: Vec<Option<u32>>,
    /// Per model: truth tables of its `.names` blocks, computed once.
    tts: Vec<Option<Vec<TruthTable>>>,
    flat: Flat,
    /// Per depth below the root: the flat symbol of each local symbol
    /// of the file (empty at the root, whose symbols are flat symbols).
    frames: Vec<Vec<Slot>>,
    /// The last stamp handed out.
    stamp: u32,
    /// Scratch for prefixed instance-local names.
    buf: String,
}

fn diag(line: u32, msg: impl Into<String>) -> BlifError {
    Diag::new(line as usize, 1, msg).into()
}

impl<'a> Linker<'a> {
    fn new(file: &'a BlifFile) -> Linker<'a> {
        let mut model_of = vec![None; file.interner.len()];
        for (i, m) in file.models.iter().enumerate() {
            if let Some(s) = file.interner.get(&m.name) {
                model_of[s.index()] = Some(i as u32);
            }
        }
        Linker {
            file,
            model_of,
            tts: vec![None; file.models.len()],
            flat: Flat {
                names: file.interner.clone(),
                ..Flat::default()
            },
            frames: Vec::new(),
            stamp: 0,
            buf: String::new(),
        }
    }

    fn ensure_tts(&mut self, mi: usize) -> Result<(), BlifError> {
        if self.tts[mi].is_some() {
            return Ok(());
        }
        let model = &self.file.models[mi];
        let mut tts = Vec::new();
        for cmd in &model.commands {
            if let Command::Names(n) = cmd {
                tts.push(names_tt(model, n)?);
            }
        }
        self.tts[mi] = Some(tts);
        Ok(())
    }

    /// A fresh instance at `depth`, declared on `line`.
    fn instance<'p>(
        &mut self,
        depth: usize,
        prefix: &'p str,
        line: u32,
    ) -> Result<Inst<'p>, BlifError> {
        while self.frames.len() <= depth {
            let syms = if self.frames.is_empty() {
                0
            } else {
                self.file.interner.len()
            };
            // Stamps start at 1, so stamp 0 marks an empty slot.
            let empty = Slot {
                stamp: 0,
                flat: Symbol(0),
            };
            self.frames.push(vec![empty; syms]);
        }
        self.stamp = self
            .stamp
            .checked_add(1)
            .ok_or_else(|| diag(line, "more than 2^32 model instances"))?;
        Ok(Inst {
            depth,
            stamp: self.stamp,
            prefix,
        })
    }

    /// The flat symbol for a model-local signal inside one instance. The
    /// root's names are the file's own symbols.
    fn flat_sym(&mut self, inst: Inst<'_>, local: Symbol) -> Symbol {
        if inst.depth == 0 {
            return local;
        }
        let slot = &mut self.frames[inst.depth][local.index()];
        if slot.stamp == inst.stamp {
            return slot.flat;
        }
        self.buf.clear();
        self.buf.push_str(inst.prefix);
        self.buf.push_str(self.file.interner.resolve(local));
        let s = self.flat.names.intern(&self.buf);
        self.frames[inst.depth][local.index()] = Slot {
            stamp: inst.stamp,
            flat: s,
        };
        s
    }

    /// Expands model `mi` as instance `inst`, whose port bindings are
    /// already in its table.
    fn expand(
        &mut self,
        mi: usize,
        inst: Inst<'_>,
        stack: &mut Vec<usize>,
    ) -> Result<(), BlifError> {
        if stack.contains(&mi) {
            return Err(diag(
                self.file.models[mi].line,
                format!(
                    "recursive instantiation of model `{}`",
                    self.file.models[mi].name
                ),
            ));
        }
        stack.push(mi);
        self.ensure_tts(mi)?;
        let file = self.file;
        let model = &file.models[mi];
        let mut names_seen = 0usize;
        let mut ords = vec![0; file.models.len()];
        for cmd in &model.commands {
            match cmd {
                Command::Names(n) => {
                    let tt = self.tts[mi].as_ref().expect("ensured")[names_seen].clone();
                    names_seen += 1;
                    let at = self.flat.pins.len();
                    for &s in n.inputs(model) {
                        let f = self.flat_sym(inst, s);
                        self.flat.pins.push(f);
                    }
                    let output = self.flat_sym(inst, n.output);
                    self.flat.push_gate(at, output, tt, n.line);
                }
                Command::Conn { from, to, line } => {
                    let at = self.flat.pins.len();
                    let from = self.flat_sym(inst, *from);
                    self.flat.pins.push(from);
                    let to = self.flat_sym(inst, *to);
                    self.flat.push_gate(at, to, TruthTable::buf(), *line);
                }
                Command::Latch(l) => {
                    let input = self.flat_sym(inst, l.input);
                    let output = self.flat_sym(inst, l.output);
                    self.flat.latches.push(FlatLatch {
                        input,
                        output,
                        init: l.init.map_or(Bit::X, |v| v.to_bit()),
                        line: l.line,
                    });
                }
                Command::Gate(g) => {
                    let cell_name = file.interner.resolve(g.cell);
                    let Some(cell) = lookup_cell(cell_name) else {
                        return Err(diag(g.line, format!("unknown library cell `{cell_name}`")));
                    };
                    let mut output = None;
                    let mut input_actual: Vec<Option<Symbol>> = vec![None; cell.inputs.len()];
                    for &(formal, actual) in &g.conns {
                        let pin = file.interner.resolve(formal);
                        if let Some(k) =
                            cell.inputs.iter().position(|p| p.eq_ignore_ascii_case(pin))
                        {
                            input_actual[k] = Some(actual);
                        } else if pin.eq_ignore_ascii_case(cell.output) || is_output_pin(pin) {
                            if output.is_some() {
                                return Err(diag(g.line, "multiple output pins on .gate"));
                            }
                            output = Some(actual);
                        } else {
                            return Err(diag(
                                g.line,
                                format!("cell `{}` has no pin `{pin}`", cell.name),
                            ));
                        }
                    }
                    let Some(output) = output else {
                        return Err(diag(g.line, "missing output pin on .gate"));
                    };
                    let at = self.flat.pins.len();
                    for (k, a) in input_actual.into_iter().enumerate() {
                        let Some(a) = a else {
                            return Err(diag(
                                g.line,
                                format!(
                                    "unconnected input pin `{}` on `{}`",
                                    cell.inputs[k], cell.name
                                ),
                            ));
                        };
                        let f = self.flat_sym(inst, a);
                        self.flat.pins.push(f);
                    }
                    let output = self.flat_sym(inst, output);
                    self.flat.push_gate(at, output, cell.tt.clone(), g.line);
                }
                Command::Mlatch(ml) => {
                    let cell_name = file.interner.resolve(ml.cell);
                    let Some(cell) = lookup_latch_cell(cell_name) else {
                        return Err(diag(ml.line, format!("unknown latch cell `{cell_name}`")));
                    };
                    let (mut d, mut q) = (None, None);
                    for &(formal, actual) in &ml.conns {
                        let pin = file.interner.resolve(formal);
                        if pin.eq_ignore_ascii_case(cell.d) {
                            d = Some(actual);
                        } else if pin.eq_ignore_ascii_case(cell.q) {
                            q = Some(actual);
                        } else {
                            return Err(diag(
                                ml.line,
                                format!("latch cell `{cell_name}` has no pin `{pin}`"),
                            ));
                        }
                    }
                    let (Some(d), Some(q)) = (d, q) else {
                        return Err(diag(ml.line, ".mlatch needs both d= and q= pins"));
                    };
                    let input = self.flat_sym(inst, d);
                    let output = self.flat_sym(inst, q);
                    self.flat.latches.push(FlatLatch {
                        input,
                        output,
                        init: ml.init.map_or(Bit::X, |v| v.to_bit()),
                        line: ml.line,
                    });
                }
                Command::Subckt(s) => self.subckt(s, inst, &mut ords, stack)?,
                Command::Kiss(k) => {
                    // `flatten` lowers KISS blocks before expansion; one
                    // surviving here means the caller skipped lowering.
                    return Err(diag(k.line, "unlowered KISS block at link time"));
                }
                Command::Attr { .. } | Command::Directive { .. } => {}
            }
        }
        stack.pop();
        Ok(())
    }

    /// Binds the ports of `.subckt` `s` inside instance `inst` and
    /// expands the child model. `ords` counts `inst`'s instances of
    /// each model so far.
    fn subckt(
        &mut self,
        s: &Subckt,
        inst: Inst<'_>,
        ords: &mut [u32],
        stack: &mut Vec<usize>,
    ) -> Result<(), BlifError> {
        let file = self.file;
        let child_name = file.interner.resolve(s.model);
        let Some(ci) = self.model_of[s.model.index()].map(|i| i as usize) else {
            return Err(diag(s.line, format!("unknown model `{child_name}`")));
        };
        let child = &file.models[ci];
        if child.blackbox {
            return Err(diag(
                s.line,
                format!("cannot flatten instantiation of blackbox `{child_name}`"),
            ));
        }
        let child_prefix = format!("{}{child_name}${}.", inst.prefix, ords[ci]);
        ords[ci] += 1;
        let sub = self.instance(inst.depth + 1, &child_prefix, s.line)?;
        for &(formal, actual) in &s.conns {
            if !child.inputs.contains(&formal) && !child.outputs.contains(&formal) {
                return Err(diag(
                    s.line,
                    format!(
                        "`{}` is not a port of model `{child_name}`",
                        file.interner.resolve(formal)
                    ),
                ));
            }
            let flat = self.flat_sym(inst, actual);
            let slot = &mut self.frames[sub.depth][formal.index()];
            if slot.stamp == sub.stamp {
                return Err(diag(
                    s.line,
                    format!("port `{}` bound twice", file.interner.resolve(formal)),
                ));
            }
            *slot = Slot {
                stamp: sub.stamp,
                flat,
            };
        }
        for &pin in &child.inputs {
            if self.frames[sub.depth][pin.index()].stamp != sub.stamp {
                return Err(diag(
                    s.line,
                    format!(
                        "unconnected input `{}` of model `{child_name}`",
                        file.interner.resolve(pin)
                    ),
                ));
            }
        }
        self.expand(ci, sub, stack)
    }
}

/// Rows, 64 to a word, where input `i < 6` is 1.
const VAR_WORDS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Truth table of a `.names` block of `model` (on-set or off-set cubes),
/// 64 rows at a time: each cube covers the rows its literals allow.
fn names_tt(model: &Model, block: &Names) -> Result<TruthTable, BlifError> {
    let n = block.num_inputs as usize;
    if block.num_cubes() == 0 {
        return Ok(TruthTable::const_zero(n));
    }
    let value = block.cube(model, 0).1;
    if (1..block.num_cubes()).any(|ci| block.cube(model, ci).1 != value) {
        return Err(diag(block.line, "mixed on-set/off-set cubes"));
    }
    // Inputs from the seventh on pick whole words.
    let cube_word = |pattern: &[u8], w: usize| {
        let mut rows = !0u64;
        for (i, &ch) in pattern.iter().enumerate() {
            let ones = match VAR_WORDS.get(i) {
                Some(&var) => var,
                None if w >> (i - VAR_WORDS.len()) & 1 == 1 => !0,
                None => 0,
            };
            match ch {
                b'0' => rows &= !ones,
                b'1' => rows &= ones,
                _ => {}
            }
        }
        rows
    };
    Ok(TruthTable::from_word_fn(n, |w| {
        let covered =
            (0..block.num_cubes()).fold(0, |acc, ci| acc | cube_word(block.cube(model, ci).0, w));
        if value == b'1' {
            covered
        } else {
            !covered
        }
    }))
}

fn flatten_nokiss(file: &BlifFile, opts: &LinkOptions) -> Result<Circuit, BlifError> {
    let root_idx = match &opts.root {
        Some(name) => match file.models.iter().position(|m| &m.name == name) {
            Some(i) => i,
            None => {
                return Err(Diag::new(0, 0, format!("link root model `{name}` not found")).into())
            }
        },
        None => match file.models.iter().position(|m| !m.blackbox) {
            Some(i) => i,
            None => return Err(Diag::new(0, 0, "no non-blackbox model to link").into()),
        },
    };
    let mut linker = Linker::new(file);
    let mut stack = Vec::new();
    let root = linker.instance(0, "", file.models[root_idx].line)?;
    linker.expand(root_idx, root, &mut stack)?;
    build(file, root_idx, linker.flat)
}

/// What drives a flat signal.
#[derive(Clone, Copy)]
enum Drv {
    Pi(NodeId),
    Gate(NodeId),
    Latch(u32),
}

/// Builds the retiming-graph circuit from flat gate/latch lists (latch
/// folding, `$g` suffixes for PO-name collisions). The root model's
/// port symbols are flat symbols.
fn build(file: &BlifFile, root_idx: usize, flat: Flat) -> Result<Circuit, BlifError> {
    let root = &file.models[root_idx];
    let mut c = Circuit::new(root.name.clone());
    let mut is_po = vec![false; flat.names.len()];
    for &s in &root.outputs {
        is_po[s.index()] = true;
    }

    let mut drivers: Vec<Option<Drv>> = vec![None; flat.names.len()];
    c.reserve(
        root.inputs.len() + flat.gates.len() + root.outputs.len(),
        flat.pins.len() + root.outputs.len(),
    );

    // Scratch for node names, which may take `$g` suffixes.
    let mut node_name = String::new();
    for &sym in &root.inputs {
        let name = flat.names.resolve(sym);
        if drivers[sym.index()].is_some() {
            return Err(diag(root.line, format!("duplicate input `{name}`")));
        }
        node_name.clear();
        node_name.push_str(&sanitize(name));
        if is_po[sym.index()] {
            node_name.push_str("$g");
        }
        drivers[sym.index()] = Some(Drv::Pi(c.add_input(&node_name)?));
    }

    for g in &flat.gates {
        let sig = flat.names.resolve(g.output);
        match drivers[g.output.index()] {
            Some(Drv::Pi(_)) => {
                return Err(BlifError::Build(NetlistError::Parse {
                    line: g.line as usize,
                    message: format!("signal `{sig}` driven by both .inputs and .names"),
                }));
            }
            Some(_) => {
                return Err(BlifError::Build(NetlistError::Parse {
                    line: g.line as usize,
                    message: format!("signal `{sig}` has multiple drivers"),
                }));
            }
            None => {}
        }
        node_name.clear();
        node_name.push_str(&sanitize(sig));
        if is_po[g.output.index()] {
            node_name.push_str("$g");
        }
        // A taken name gets more `$g`s; the circuit's own name lookup
        // says so.
        let id = loop {
            match c.add_gate(&node_name, g.tt.clone()) {
                Ok(id) => break id,
                Err(NetlistError::DuplicateName(_)) => node_name.push_str("$g"),
                Err(e) => return Err(e.into()),
            }
        };
        drivers[g.output.index()] = Some(Drv::Gate(id));
    }

    for (li, l) in flat.latches.iter().enumerate() {
        let sig = flat.names.resolve(l.output);
        match drivers[l.output.index()] {
            Some(Drv::Pi(_) | Drv::Gate(_)) => {
                return Err(BlifError::Build(NetlistError::Parse {
                    line: l.line as usize,
                    message: format!("latch output `{sig}` shadows an existing driver"),
                }));
            }
            Some(Drv::Latch(_)) => {
                return Err(BlifError::Build(NetlistError::Parse {
                    line: l.line as usize,
                    message: format!("latch output `{sig}` has multiple drivers"),
                }));
            }
            None => {}
        }
        drivers[l.output.index()] = Some(Drv::Latch(li as u32));
    }

    // Resolves a signal to its driving node plus the FF chain
    // (source→sink order) accumulated through latches. Iterative — the
    // step guard bounds latch-only cycles.
    let resolve = |sym: Symbol, use_line: u32| -> Result<(NodeId, Vec<Bit>), BlifError> {
        let mut chain: Vec<Bit> = Vec::new();
        let mut cur = sym;
        let mut line = use_line;
        let mut steps = 0usize;
        loop {
            match drivers.get(cur.index()).copied().flatten() {
                Some(Drv::Pi(n) | Drv::Gate(n)) => {
                    chain.reverse();
                    return Ok((n, chain));
                }
                Some(Drv::Latch(li)) => {
                    let l = &flat.latches[li as usize];
                    chain.push(l.init);
                    line = l.line;
                    cur = l.input;
                    steps += 1;
                    if steps > flat.latches.len() {
                        return Err(BlifError::Build(NetlistError::Parse {
                            line: line as usize,
                            message: format!(
                                "latch cycle through `{}` with no logic",
                                flat.names.resolve(sym)
                            ),
                        }));
                    }
                }
                None => {
                    return Err(BlifError::Build(NetlistError::UndefinedSignal {
                        signal: flat.names.resolve(cur).to_string(),
                        line: line as usize,
                    }))
                }
            }
        }
    };

    for g in &flat.gates {
        let Some(Drv::Gate(node)) = drivers[g.output.index()] else {
            unreachable!("every flat gate drives its output");
        };
        for &sig in flat.gate_inputs(g) {
            let (src, chain) = resolve(sig, g.line)?;
            c.connect(src, node, chain)?;
        }
    }
    for (k, &sym) in root.outputs.iter().enumerate() {
        let name = flat.names.resolve(sym);
        let line = root.output_lines.get(k).copied().unwrap_or(root.line);
        let po = c.add_output(sanitize(name))?;
        let (src, chain) = resolve(sym, line)?;
        c.connect(src, po, chain)?;
    }
    c.shrink_to_fit();
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_str;

    fn read(text: &str) -> Circuit {
        flatten(&parse_str(text).unwrap(), &LinkOptions::default()).unwrap()
    }

    #[test]
    fn subckt_flattens_with_prefixes() {
        let src = "\
.model top
.inputs a b
.outputs z
.subckt and x=a y=b o=t
.subckt and x=t y=a o=z
.end
.model and
.inputs x y
.outputs o
.names x y o
11 1
.end
";
        let c = read(src);
        assert_eq!(c.num_gates(), 2);
        assert!(
            c.find("t").is_some(),
            "bound child output keeps parent name"
        );
        netlist::validate(&c).unwrap();
    }

    #[test]
    fn nested_hierarchy_and_latch_across_boundary() {
        let src = "\
.model top
.inputs d
.outputs q
.subckt reg din=d dout=q
.end
.model reg
.inputs din
.outputs dout
.latch t dout 1
.names din t
1 1
.end
";
        let c = read(src);
        assert_eq!(c.ff_count_shared(), 1);
        let po = c.outputs()[0];
        let e = c.node(po).fanin()[0];
        assert_eq!(c.edge(e).ffs(), &[Bit::One]);
    }

    #[test]
    fn gate_and_mlatch_and_conn() {
        let src = "\
.model g
.inputs a b
.outputs z
.gate nand2 a=a b=b o=t
.mlatch dff d=t q=r NIL 0
.conn r w
.names w z
0 1
.end
";
        let c = read(src);
        assert_eq!(c.ff_count_shared(), 1);
        netlist::validate(&c).unwrap();
        // nand(a,b) registered (init 0), buffered, inverted: z = NOT w.
        let mut sim = netlist::Simulator::new(&c).unwrap();
        // Cycle 1: register holds 0 → w=0 → z=1.
        assert_eq!(sim.step(&[Bit::One, Bit::One]).unwrap(), vec![Bit::One]);
        // Cycle 2: register latched nand(1,1)=0 → z=1.
        assert_eq!(sim.step(&[Bit::Zero, Bit::One]).unwrap(), vec![Bit::One]);
        // Cycle 3: register latched nand(0,1)=1 → z=0.
        assert_eq!(sim.step(&[Bit::Zero, Bit::Zero]).unwrap(), vec![Bit::Zero]);
    }

    #[test]
    fn kiss_block_lowers_to_logic() {
        let src = "\
.model toggle
.inputs t
.outputs q
.start_kiss
.i 1
.o 1
.s 2
.r OFF
1 OFF ON  1
0 OFF OFF 0
- ON  OFF 0
.end_kiss
.end
";
        let c = read(src);
        assert!(c.num_gates() > 0);
        assert!(c.ff_count_shared() >= 1);
        let mut sim = netlist::Simulator::new(&c).unwrap();
        assert_eq!(sim.step(&[Bit::One]).unwrap(), vec![Bit::One]); // OFF --1/1--> ON
        assert_eq!(sim.step(&[Bit::One]).unwrap(), vec![Bit::Zero]); // ON --- /0--> OFF
        assert_eq!(sim.step(&[Bit::Zero]).unwrap(), vec![Bit::Zero]); // OFF --0/0--> OFF
    }

    #[test]
    fn unknown_model_and_unbound_pin_diagnosed() {
        let e = flatten(
            &parse_str(".model t\n.inputs a\n.outputs z\n.subckt ghost x=a o=z\n.end\n").unwrap(),
            &LinkOptions::default(),
        )
        .unwrap_err();
        assert!(e.to_string().contains("unknown model"), "{e}");

        let e = flatten(
            &parse_str(
                ".model t\n.inputs a\n.outputs z\n.subckt and x=a o=z\n.end\n\
                 .model and\n.inputs x y\n.outputs o\n.names x y o\n11 1\n.end\n",
            )
            .unwrap(),
            &LinkOptions::default(),
        )
        .unwrap_err();
        assert!(e.to_string().contains("unconnected input `y`"), "{e}");
    }

    #[test]
    fn recursion_rejected() {
        let src = "\
.model a
.inputs x
.outputs y
.subckt a x=x y=y
.end
";
        let e = flatten(&parse_str(src).unwrap(), &LinkOptions::default()).unwrap_err();
        assert!(e.to_string().contains("recursive"), "{e}");
    }

    #[test]
    fn blackbox_instantiation_rejected() {
        let src = "\
.model t
.inputs a
.outputs z
.subckt bb p=a q=z
.end
.model bb
.inputs p
.outputs q
.blackbox
.end
";
        let e = flatten(&parse_str(src).unwrap(), &LinkOptions::default()).unwrap_err();
        assert!(e.to_string().contains("blackbox"), "{e}");
    }

    #[test]
    fn root_selection() {
        let src = "\
.model bb
.inputs p
.outputs q
.blackbox
.end
.model real
.inputs a
.outputs z
.names a z
1 1
.end
";
        let f = parse_str(src).unwrap();
        let c = flatten(&f, &LinkOptions::default()).unwrap();
        assert_eq!(c.name(), "real");
        let c2 = flatten(
            &f,
            &LinkOptions {
                root: Some("real".into()),
                ..LinkOptions::default()
            },
        )
        .unwrap();
        assert_eq!(c2.name(), "real");
        assert!(flatten(
            &f,
            &LinkOptions {
                root: Some("nope".into()),
                ..LinkOptions::default()
            }
        )
        .is_err());
    }

    #[test]
    fn undefined_signal_errors_stay_stable() {
        let src = ".model u\n.inputs a\n.outputs z\n.names ghost z\n1 1\n.end\n";
        match flatten(&parse_str(src).unwrap(), &LinkOptions::default()) {
            Err(BlifError::Build(NetlistError::UndefinedSignal { signal, line })) => {
                assert_eq!(signal, "ghost");
                assert_eq!(line, 4);
            }
            other => panic!("expected UndefinedSignal, got {other:?}"),
        }
        let src = ".model u\n.inputs a\n.outputs z\n.names q z\n1 1\n.latch ghost q 0\n.end\n";
        match flatten(&parse_str(src).unwrap(), &LinkOptions::default()) {
            Err(BlifError::Build(NetlistError::UndefinedSignal { signal, line })) => {
                assert_eq!(signal, "ghost");
                assert_eq!(line, 6);
            }
            other => panic!("expected UndefinedSignal, got {other:?}"),
        }
    }

    #[test]
    fn names_tables_match_row_by_row_cover() {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut rnd = move |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        for n in [1usize, 3, 6, 7, 9] {
            for value in [b'0', b'1'] {
                let cubes: Vec<Vec<u8>> = (0..1 + rnd(5))
                    .map(|_| (0..n).map(|_| b"01-"[rnd(3) as usize]).collect())
                    .collect();
                let mut src = String::from(".model t\n.names");
                for i in 0..n {
                    src.push_str(&format!(" i{i}"));
                }
                src.push_str(" z\n");
                for cube in &cubes {
                    src.push_str(std::str::from_utf8(cube).unwrap());
                    src.push(' ');
                    src.push(value as char);
                    src.push('\n');
                }
                let f = parse_str(&src).unwrap();
                let m = &f.models[0];
                let Command::Names(block) = &m.commands[0] else {
                    panic!("one .names block");
                };
                let tt = names_tt(m, block).unwrap();
                for r in 0..1usize << n {
                    let covered = cubes.iter().any(|cube| {
                        cube.iter().enumerate().all(|(i, &ch)| match ch {
                            b'0' => r & (1 << i) == 0,
                            b'1' => r & (1 << i) != 0,
                            _ => true,
                        })
                    });
                    assert_eq!(tt.eval_row(r), covered == (value == b'1'), "{src}row {r}");
                }
            }
        }
    }

    #[test]
    fn latch_only_cycle_diagnosed() {
        let src = ".model c\n.inputs a\n.outputs z\n.latch z z 0\n.end\n";
        let e = flatten(&parse_str(src).unwrap(), &LinkOptions::default()).unwrap_err();
        assert!(e.to_string().contains("latch cycle"), "{e}");
    }
}
