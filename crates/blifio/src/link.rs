//! Hierarchy linking: `.subckt` elaboration, library-cell resolution,
//! KISS lowering, and flattening into a retiming-graph [`Circuit`].
//!
//! The linker writes straight into the circuit. It first checks each
//! model the link root reaches, once and in the order elaboration meets
//! them, so every link error is found before any memory is set aside;
//! this *plan* also counts each model's gates, pins, latches and
//! instance-local signals and resolves its library cells and child
//! models. It then reserves the node, edge, FF chain and signal tables
//! exactly, failing with a diagnostic when the allocator refuses, and
//! adds the link root's primary inputs. *Elaboration* then walks the
//! model hierarchy from the root, binding `.subckt` formals to parent
//! actuals. Each `.names`, `.gate` and `.conn` becomes a gate node as
//! soon as it is expanded; its name, the instance's `{model}${ordinal}.`
//! path plus the local name, is formatted once and interned only into
//! the circuit, with a `$g` suffix when it collides with a primary
//! output or a taken name. Signals are dense `u32` ids: the root's
//! names keep the file's own symbols, and each instance-local signal
//! gets the next id, recorded with its instance's path (kept in one
//! string arena) and local symbol for diagnostics. No hash map is on
//! the path: each instance depth has a table indexed by local symbol
//! whose entries count only when stamped with the current instance.
//! Because BLIF has no hierarchical references, a root name that spells
//! an instance path is a signal of its own. After elaboration, latches
//! fold onto consumer edges as FF chains, gate pins are connected in
//! node order, and the primary outputs are added last.
//!
//! Embedded KISS FSM blocks are lowered first: each block is parsed
//! with `workloads::kiss`, synthesised to gates, written with
//! [`write_circuit`] and read back as an auxiliary model, and the block
//! replaced by a `.subckt` of it.

use crate::ast::{BlifFile, Command, InitVal, LibGate, Mlatch, Model, Names, Subckt};
use crate::diag::{BlifError, Diag};
use crate::lib_cells::{is_output_pin, lookup_cell, lookup_latch_cell};
use crate::parse::parse_str;
use crate::write::{sanitize, write_circuit};
use crate::{Interner, Symbol};
use netlist::{Bit, Circuit, NetlistError, NodeId, TruthTable};
use std::borrow::Cow;
use workloads::kiss::{parse_kiss2, synthesize_stg};
use workloads::Encoding;

/// Options controlling hierarchy flattening. The link root is always
/// the file's first non-blackbox model.
#[derive(Debug, Clone)]
pub struct LinkOptions {
    /// State encoding for embedded KISS FSMs.
    pub encoding: Encoding,
}

impl Default for LinkOptions {
    fn default() -> LinkOptions {
        LinkOptions {
            encoding: Encoding::Binary,
        }
    }
}

/// Flattens a parsed (possibly hierarchical) BLIF file into a circuit.
///
/// # Errors
///
/// Positioned [`Diag`]s for link problems (unknown models, bad port
/// bindings, recursion, blackbox instantiation, a design too large to
/// reserve room for), and
/// [`NetlistError`]s for driver conflicts and undefined signals.
pub fn flatten(file: &BlifFile, opts: &LinkOptions) -> Result<Circuit, BlifError> {
    match kiss_lower(file, opts.encoding)? {
        Some(lowered) => flatten_nokiss(&lowered),
        None => flatten_nokiss(file),
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

/// A latch (FF with a three-valued initial state) between two flat
/// signals.
struct FlatLatch {
    input: u32,
    output: u32,
    init: Bit,
    line: u32,
}

/// What drives a flat signal.
#[derive(Clone, Copy)]
enum Drv {
    Pi(NodeId),
    Gate(NodeId),
    Latch(u32),
}

/// The names of flat signals. Ids below `symbols.len()` are the root's
/// own symbols; id `symbols.len() + k` is local symbol `origins[k].1`
/// of the instance whose path is number `origins[k].0`.
struct FlatNames<'a> {
    symbols: &'a Interner,
    origins: Vec<(u32, Symbol)>,
    /// The paths of instances that own a signal, back to back.
    prefixes: String,
    /// Path `p` is `prefixes[bounds[p]..bounds[p + 1]]`.
    bounds: Vec<u32>,
}

impl FlatNames<'_> {
    /// Appends the name of flat signal `id` to `out`.
    fn push(&self, id: u32, out: &mut String) {
        match (id as usize).checked_sub(self.symbols.len()) {
            None => out.push_str(self.symbols.resolve(Symbol(id))),
            Some(k) => {
                let (p, local) = self.origins[k];
                let (start, end) = (self.bounds[p as usize], self.bounds[p as usize + 1]);
                out.push_str(&self.prefixes[start as usize..end as usize]);
                out.push_str(self.symbols.resolve(local));
            }
        }
    }

    fn name(&self, id: u32) -> String {
        let mut s = String::new();
        self.push(id, &mut s);
        s
    }
}

/// A local symbol's flat signal, which counts only while `stamp` is the
/// current instance's.
#[derive(Clone, Copy)]
struct Slot {
    stamp: u32,
    flat: u32,
}

/// The current instance at one depth below the root.
struct Frame {
    /// The flat signal of each local symbol of the file (none at the
    /// root, whose symbols are flat signals).
    slots: Vec<Slot>,
    /// The instance's path number in [`FlatNames`], once a signal of
    /// its own needs it.
    prefix: Option<u32>,
}

/// One step of expanding a model, checked once.
enum Step<'a> {
    /// A gate node with table `tt` that drives `out` from the next
    /// `tt.num_inputs()` signals of `Plan::actuals`.
    Gate {
        tt: TruthTable,
        out: Symbol,
        line: u32,
    },
    Latch {
        d: Symbol,
        q: Symbol,
        init: Bit,
        line: u32,
    },
    /// A `.subckt` of the model with this index.
    Subckt(&'a Subckt, u32),
}

/// A model's expansion steps, and what one instance flattens to.
struct Plan<'a> {
    steps: Vec<Step<'a>>,
    /// The input signals of every gate step, back to back.
    actuals: Vec<Symbol>,
    gates: u64,
    pins: u64,
    latches: u64,
    /// The bytes of its gate nodes' names, instance paths below the
    /// model included, if each took its own instance's path. A gate
    /// that drives a bound output port takes its parent's name instead,
    /// so this is an estimate.
    name_bytes: u64,
    /// The names the model's own steps use that are not its ports: one
    /// flat signal each in every instance.
    locals: u64,
    /// The flat signals of its sub-instances, their own sub-instances'
    /// included.
    inner: u64,
    /// The ports the model's own steps use, sorted. Those that a
    /// `.subckt` leaves unbound are flat signals of that instance.
    ports_used: Vec<Symbol>,
}

/// Checks and plans every model the link root reaches, once each, in
/// the order elaboration meets them, so that every link error is found
/// before any room is reserved for the design.
struct Planner<'a> {
    file: &'a BlifFile,
    /// Model index of each symbol that names a model.
    model_of: Vec<Option<u32>>,
    plans: Vec<Option<Plan<'a>>>,
    /// The models being planned, outermost first.
    stack: Vec<usize>,
    /// Per symbol, the number of the last `.subckt` that bound it.
    bound: Vec<u32>,
    /// `.subckt`s checked so far.
    subckts: u32,
    /// Per symbol, the stamp of the last count that met it.
    seen: Vec<u32>,
    /// The last stamp handed out for `seen`.
    stamp: u32,
}

impl<'a> Planner<'a> {
    /// The plan of every model that model `root` reaches (`None` for
    /// the others).
    fn run(file: &'a BlifFile, root: usize) -> Result<Vec<Option<Plan<'a>>>, BlifError> {
        let syms = file.interner.len();
        let mut planner = Planner {
            file,
            model_of: vec![None; syms],
            plans: (0..file.models.len()).map(|_| None).collect(),
            stack: Vec::new(),
            bound: vec![0; syms],
            subckts: 0,
            seen: vec![0; syms],
            stamp: 0,
        };
        for (i, m) in file.models.iter().enumerate() {
            if let Some(s) = file.interner.get(&m.name) {
                planner.model_of[s.index()] = Some(i as u32);
            }
        }
        planner.plan(root)?;
        Ok(planner.plans)
    }

    /// Plans model `mi` unless it has been.
    fn plan(&mut self, mi: usize) -> Result<&Plan<'a>, BlifError> {
        if self.plans[mi].is_none() {
            let p = self.plan_model(mi)?;
            self.plans[mi] = Some(p);
        }
        Ok(self.plans[mi].as_ref().expect("planned"))
    }

    fn plan_model(&mut self, mi: usize) -> Result<Plan<'a>, BlifError> {
        let file = self.file;
        let model = &file.models[mi];
        if self.stack.contains(&mi) {
            let msg = format!("recursive instantiation of model `{}`", model.name);
            return Err(diag(model.line, msg));
        }
        self.stack.push(mi);
        // Every `.names` table is checked before the model's commands.
        let tts: Vec<TruthTable> = (model.commands.iter())
            .filter_map(|cmd| match cmd {
                Command::Names(n) => Some(names_tt(model, n)),
                _ => None,
            })
            .collect::<Result<_, _>>()?;
        let mut tts = tts.into_iter();
        // Instances of each model so far, which number their paths.
        let mut ords = vec![0u32; file.models.len()];
        let mut p = Plan {
            steps: Vec::with_capacity(model.commands.len()),
            actuals: Vec::new(),
            gates: 0,
            pins: 0,
            latches: 0,
            name_bytes: 0,
            locals: 0,
            inner: 0,
            ports_used: Vec::new(),
        };
        for cmd in &model.commands {
            let (tt, out, line) = match cmd {
                Command::Names(n) => {
                    p.actuals.extend_from_slice(n.inputs(model));
                    (tts.next().expect("one table a block"), n.output, n.line)
                }
                Command::Conn { from, to, line } => {
                    p.actuals.push(*from);
                    (TruthTable::buf(), *to, *line)
                }
                Command::Gate(g) => {
                    let (tt, out) = plan_gate(file, g, &mut p.actuals)?;
                    (tt, out, g.line)
                }
                Command::Latch(l) => {
                    p.latches = p.latches.saturating_add(1);
                    p.steps.push(latch_step(l.input, l.output, l.init, l.line));
                    continue;
                }
                Command::Mlatch(ml) => {
                    let (d, q) = plan_mlatch(file, ml)?;
                    p.latches = p.latches.saturating_add(1);
                    p.steps.push(latch_step(d, q, ml.init, ml.line));
                    continue;
                }
                Command::Subckt(s) => {
                    let ci = self.child(s)?;
                    let child = self.plan(ci)?;
                    let bound = (s.conns.iter())
                        .filter(|(formal, _)| child.ports_used.binary_search(formal).is_ok())
                        .count();
                    let unbound = (child.ports_used.len() - bound) as u64;
                    // Every gate node below gets the `{model}${ordinal}.` path.
                    let path =
                        file.interner.resolve(s.model).len() + ords[ci].to_string().len() + 2;
                    ords[ci] += 1;
                    p.name_bytes = (p.name_bytes)
                        .saturating_add(child.name_bytes)
                        .saturating_add(child.gates.saturating_mul(path as u64));
                    p.gates = p.gates.saturating_add(child.gates);
                    p.pins = p.pins.saturating_add(child.pins);
                    p.latches = p.latches.saturating_add(child.latches);
                    p.inner = (p.inner)
                        .saturating_add(child.locals)
                        .saturating_add(child.inner)
                        .saturating_add(unbound);
                    p.steps.push(Step::Subckt(s, ci as u32));
                    continue;
                }
                Command::Kiss(k) => {
                    // `flatten` lowers KISS blocks before linking; one
                    // surviving here means the caller skipped lowering.
                    return Err(diag(k.line, "unlowered KISS block at link time"));
                }
                Command::Attr { .. } | Command::Directive { .. } => continue,
            };
            p.gates = p.gates.saturating_add(1);
            p.pins = p.pins.saturating_add(tt.num_inputs() as u64);
            p.name_bytes = (p.name_bytes).saturating_add(file.interner.resolve(out).len() as u64);
            p.steps.push(Step::Gate { tt, out, line });
        }
        self.stack.pop();
        self.count_names(model, &mut p);
        Ok(p)
    }

    /// Counts the distinct names plan `p` of `model` uses, as
    /// elaboration meets them: its locals, and its ports apart.
    fn count_names(&mut self, model: &Model, p: &mut Plan<'a>) {
        self.stamp += 2;
        let (port, met) = (self.stamp - 1, self.stamp);
        for &s in model.inputs.iter().chain(&model.outputs) {
            self.seen[s.index()] = port;
        }
        let (mut locals, mut ports) = (0, Vec::new());
        let seen = &mut self.seen;
        let mut meet = |s: Symbol| match std::mem::replace(&mut seen[s.index()], met) {
            stamp if stamp == port => ports.push(s),
            stamp if stamp != met => locals += 1,
            _ => {}
        };
        p.actuals.iter().for_each(|&s| meet(s));
        for step in &p.steps {
            match *step {
                Step::Gate { out, .. } => meet(out),
                Step::Latch { d, q, .. } => {
                    meet(d);
                    meet(q);
                }
                Step::Subckt(s, _) => s.conns.iter().for_each(|&(_, actual)| meet(actual)),
            }
        }
        ports.sort_unstable();
        p.locals = locals;
        p.ports_used = ports;
    }

    /// The model `.subckt` `s` instantiates, once its port bindings
    /// check out.
    fn child(&mut self, s: &Subckt) -> Result<usize, BlifError> {
        let file = self.file;
        let child_name = file.interner.resolve(s.model);
        let err = |msg: String| Err(diag(s.line, msg));
        let Some(ci) = self.model_of[s.model.index()].map(|i| i as usize) else {
            return err(format!("unknown model `{child_name}`"));
        };
        let child = &file.models[ci];
        if child.blackbox {
            return err(format!(
                "cannot flatten instantiation of blackbox `{child_name}`"
            ));
        }
        self.subckts += 1;
        for &(formal, _) in &s.conns {
            let name = file.interner.resolve(formal);
            if !child.inputs.contains(&formal) && !child.outputs.contains(&formal) {
                return err(format!("`{name}` is not a port of model `{child_name}`"));
            }
            if std::mem::replace(&mut self.bound[formal.index()], self.subckts) == self.subckts {
                return err(format!("port `{name}` bound twice"));
            }
        }
        for &pin in &child.inputs {
            if self.bound[pin.index()] != self.subckts {
                let name = file.interner.resolve(pin);
                return err(format!(
                    "unconnected input `{name}` of model `{child_name}`"
                ));
            }
        }
        Ok(ci)
    }
}

/// Pushes the input signals of `.gate` `g` onto `actuals` in its cell's
/// order, and returns the cell's table and the output signal.
fn plan_gate(
    file: &BlifFile,
    g: &LibGate,
    actuals: &mut Vec<Symbol>,
) -> Result<(TruthTable, Symbol), BlifError> {
    let cell_name = file.interner.resolve(g.cell);
    let err = |msg: String| Err(diag(g.line, msg));
    let Some(cell) = lookup_cell(cell_name) else {
        return err(format!("unknown library cell `{cell_name}`"));
    };
    let mut output = None;
    let mut input_actual: Vec<Option<Symbol>> = vec![None; cell.inputs.len()];
    for &(formal, actual) in &g.conns {
        let pin = file.interner.resolve(formal);
        if let Some(k) = cell.inputs.iter().position(|p| p.eq_ignore_ascii_case(pin)) {
            input_actual[k] = Some(actual);
        } else if pin.eq_ignore_ascii_case(cell.output) || is_output_pin(pin) {
            if output.is_some() {
                return err("multiple output pins on .gate".into());
            }
            output = Some(actual);
        } else {
            return err(format!("cell `{}` has no pin `{pin}`", cell.name));
        }
    }
    let Some(output) = output else {
        return err("missing output pin on .gate".into());
    };
    for (a, pin) in input_actual.into_iter().zip(cell.inputs) {
        let Some(a) = a else {
            return err(format!("unconnected input pin `{pin}` on `{}`", cell.name));
        };
        actuals.push(a);
    }
    Ok((cell.tt, output))
}

fn latch_step<'a>(d: Symbol, q: Symbol, init: Option<InitVal>, line: u32) -> Step<'a> {
    let init = init.map_or(Bit::X, |v| v.to_bit());
    Step::Latch { d, q, init, line }
}

/// The d and q signals of `.mlatch` `ml`.
fn plan_mlatch(file: &BlifFile, ml: &Mlatch) -> Result<(Symbol, Symbol), BlifError> {
    let cell_name = file.interner.resolve(ml.cell);
    let err = |msg: String| Err(diag(ml.line, msg));
    let Some(cell) = lookup_latch_cell(cell_name) else {
        return err(format!("unknown latch cell `{cell_name}`"));
    };
    let (mut d, mut q) = (None, None);
    for &(formal, actual) in &ml.conns {
        let pin = file.interner.resolve(formal);
        if pin.eq_ignore_ascii_case(cell.d) {
            d = Some(actual);
        } else if pin.eq_ignore_ascii_case(cell.q) {
            q = Some(actual);
        } else {
            return err(format!("latch cell `{cell_name}` has no pin `{pin}`"));
        }
    }
    match (d, q) {
        (Some(d), Some(q)) => Ok((d, q)),
        _ => err(".mlatch needs both d= and q= pins".into()),
    }
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
    /// Per model, its plan if the root reaches it.
    plans: &'a [Option<Plan<'a>>],
    c: Circuit,
    /// The driver of each flat signal.
    drivers: Vec<Option<Drv>>,
    names: FlatNames<'a>,
    /// Whether each root symbol names a primary output.
    is_po: Vec<bool>,
    /// Inputs of every gate node, back to back, as flat signals.
    pins: Vec<u32>,
    /// Per gate node: the end of its inputs in `pins`, and its line.
    gates: Vec<(u32, u32)>,
    latches: Vec<FlatLatch>,
    /// The first driver conflict, reported once elaboration has ended
    /// so that any link error takes precedence.
    conflict: Option<BlifError>,
    /// Per depth below the root (the root's is empty), its current
    /// instance.
    frames: Vec<Frame>,
    /// The last stamp handed out.
    stamp: u32,
    /// Scratch for node names.
    node_name: String,
}

fn diag(line: u32, msg: impl Into<String>) -> BlifError {
    Diag::new(line as usize, 1, msg).into()
}

fn build_error(line: u32, message: String) -> BlifError {
    BlifError::Build(NetlistError::Parse {
        line: line as usize,
        message,
    })
}

impl<'a> Linker<'a> {
    /// A linker for root model `root_idx` whose circuit has room for
    /// every node and edge and holds the primary inputs.
    fn new(
        file: &'a BlifFile,
        plans: &'a [Option<Plan<'a>>],
        root_idx: usize,
    ) -> Result<Linker<'a>, BlifError> {
        let root = &file.models[root_idx];
        let syms = file.interner.len();
        let mut linker = Linker {
            file,
            plans,
            c: Circuit::new(root.name.clone()),
            drivers: vec![None; syms],
            names: FlatNames {
                symbols: &file.interner,
                origins: Vec::new(),
                prefixes: String::new(),
                bounds: vec![0],
            },
            is_po: vec![false; syms],
            pins: Vec::new(),
            gates: Vec::new(),
            latches: Vec::new(),
            conflict: None,
            frames: vec![Frame {
                slots: Vec::new(),
                prefix: None,
            }],
            stamp: 0,
            node_name: String::new(),
        };
        for &s in &root.outputs {
            linker.is_po[s.index()] = true;
        }
        let plan = plans[root_idx].as_ref().expect("the root is planned");
        let (gates, pins, latches) = (plan.gates, plan.pins, plan.latches);
        let (ins, outs) = (root.inputs.len() as u64, root.outputs.len() as u64);
        let (nodes, edges) = (gates.saturating_add(ins + outs), pins.saturating_add(outs));
        if nodes.max(edges) > u64::from(u32::MAX) {
            return Err(diag(root.line, "design flattens to 2^32 nodes or more"));
        }
        // The circuit's name index is filled as it is made, so the
        // tables that only take address space go first. The root's
        // signals are the file's symbols; every other is an instance's.
        let signals = plan.inner as usize;
        // Port names, and a `$g` for each gate that a primary output's
        // name would otherwise take.
        let ports = root.inputs.iter().chain(&root.outputs);
        let port_bytes: usize = ports.map(|&s| file.interner.resolve(s).len()).sum();
        let name_bytes = plan.name_bytes as usize + port_bytes + 2 * root.outputs.len();
        let reserved = (linker.pins.try_reserve_exact(pins as usize))
            .and_then(|()| linker.gates.try_reserve_exact(gates as usize))
            .and_then(|()| linker.drivers.try_reserve_exact(signals))
            .and_then(|()| linker.names.origins.try_reserve_exact(signals))
            .and_then(|()| linker.latches.try_reserve_exact(latches as usize))
            .and_then(|()| {
                let (nodes, edges) = (nodes as usize, edges as usize);
                linker.c.reserve(nodes, name_bytes, edges, latches as usize)
            });
        if reserved.is_err() {
            return Err(diag(
                root.line,
                format!("no memory for a design of {nodes} nodes and {edges} edges"),
            ));
        }
        linker.conflict = linker.add_inputs(root).err();
        Ok(linker)
    }

    fn add_inputs(&mut self, root: &Model) -> Result<(), BlifError> {
        for &sym in &root.inputs {
            if self.drivers[sym.index()].is_some() {
                let name = self.file.interner.resolve(sym);
                return Err(diag(root.line, format!("duplicate input `{name}`")));
            }
            self.name_node(sym.0);
            self.drivers[sym.index()] = Some(Drv::Pi(self.c.add_input(&self.node_name)?));
        }
        Ok(())
    }

    /// Sets `node_name` to the sanitised name of flat signal `id`, with
    /// a `$g` suffix when a primary output has that name: the signal's
    /// own, or one that an instance's signal spells.
    fn name_node(&mut self, id: u32) {
        self.node_name.clear();
        self.names.push(id, &mut self.node_name);
        let root_sym = match (id as usize) < self.is_po.len() {
            true => Some(Symbol(id)),
            false => self.file.interner.get(&self.node_name),
        };
        let po = root_sym.is_some_and(|s| self.is_po[s.index()]);
        if let Cow::Owned(name) = sanitize(&self.node_name) {
            self.node_name = name;
        }
        if po {
            self.node_name.push_str("$g");
        }
    }

    /// The flat signal of a model-local symbol inside one instance. The
    /// root's signals are the file's own symbols; any other gets the
    /// next id.
    fn flat_id(&mut self, inst: Inst<'_>, local: Symbol) -> u32 {
        if inst.depth == 0 {
            return local.0;
        }
        let frame = &mut self.frames[inst.depth];
        let slot = frame.slots[local.index()];
        if slot.stamp == inst.stamp {
            return slot.flat;
        }
        let names = &mut self.names;
        let prefix = *frame.prefix.get_or_insert_with(|| {
            names.prefixes.push_str(inst.prefix);
            let end = u32::try_from(names.prefixes.len()).expect("instance paths < 4 GiB");
            names.bounds.push(end);
            (names.bounds.len() - 2) as u32
        });
        let id = u32::try_from(self.drivers.len()).expect("< 2^32 flat signals");
        self.drivers.push(None);
        names.origins.push((prefix, local));
        frame.slots[local.index()] = Slot {
            stamp: inst.stamp,
            flat: id,
        };
        id
    }

    /// Adds the gate node that drives flat signal `out` from the inputs
    /// pushed onto `pins` since the last gate.
    fn add_gate(&mut self, out: u32, tt: &TruthTable, line: u32) {
        self.gates.push((self.pins.len() as u32, line));
        if self.conflict.is_none() {
            self.conflict = self.try_add_gate(out, tt, line).err();
        }
    }

    fn try_add_gate(&mut self, out: u32, tt: &TruthTable, line: u32) -> Result<(), BlifError> {
        if let Some(d) = self.drivers[out as usize] {
            let sig = self.names.name(out);
            return Err(build_error(
                line,
                match d {
                    Drv::Pi(_) => format!("signal `{sig}` driven by both .inputs and .names"),
                    _ => format!("signal `{sig}` has multiple drivers"),
                },
            ));
        }
        self.name_node(out);
        // A taken name gets more `$g`s; the circuit's own name lookup
        // says so.
        let id = loop {
            match self.c.add_gate(&self.node_name, tt.clone()) {
                Ok(id) => break id,
                Err(NetlistError::DuplicateName(_)) => self.node_name.push_str("$g"),
                Err(e) => return Err(e.into()),
            }
        };
        self.drivers[out as usize] = Some(Drv::Gate(id));
        Ok(())
    }

    /// Expands model `mi` as instance `inst`, whose port bindings are
    /// already in its table.
    fn expand(&mut self, mi: usize, inst: Inst<'_>) -> Result<(), BlifError> {
        let plans = self.plans;
        let plan = plans[mi].as_ref().expect("the planner reached the model");
        let mut ords = vec![0; self.file.models.len()];
        let mut actuals = plan.actuals.iter();
        for step in &plan.steps {
            match *step {
                Step::Gate { ref tt, out, line } => {
                    for &s in actuals.by_ref().take(tt.num_inputs()) {
                        let f = self.flat_id(inst, s);
                        self.pins.push(f);
                    }
                    let out = self.flat_id(inst, out);
                    self.add_gate(out, tt, line);
                }
                Step::Latch { d, q, init, line } => {
                    let (input, output) = (self.flat_id(inst, d), self.flat_id(inst, q));
                    let latch = FlatLatch {
                        input,
                        output,
                        init,
                        line,
                    };
                    self.latches.push(latch);
                }
                Step::Subckt(s, ci) => self.subckt(s, ci as usize, inst, &mut ords)?,
            }
        }
        Ok(())
    }

    /// Binds the ports of `.subckt` `s`, an instance of model `ci`
    /// inside instance `inst`, and expands it. `ords` counts `inst`'s
    /// instances of each model so far.
    fn subckt(
        &mut self,
        s: &Subckt,
        ci: usize,
        inst: Inst<'_>,
        ords: &mut [u32],
    ) -> Result<(), BlifError> {
        let file = self.file;
        let child_name = file.interner.resolve(s.model);
        let prefix = format!("{}{child_name}${}.", inst.prefix, ords[ci]);
        ords[ci] += 1;
        let depth = inst.depth + 1;
        if self.frames.len() == depth {
            // Stamps start at 1, so stamp 0 marks an empty slot.
            let slots = vec![Slot { stamp: 0, flat: 0 }; file.interner.len()];
            self.frames.push(Frame {
                slots,
                prefix: None,
            });
        }
        self.frames[depth].prefix = None;
        self.stamp = (self.stamp.checked_add(1))
            .ok_or_else(|| diag(s.line, "more than 2^32 model instances"))?;
        let sub = Inst {
            depth,
            stamp: self.stamp,
            prefix: &prefix,
        };
        for &(formal, actual) in &s.conns {
            let flat = self.flat_id(inst, actual);
            self.frames[depth].slots[formal.index()] = Slot {
                stamp: sub.stamp,
                flat,
            };
        }
        self.expand(ci, sub)
    }

    /// Folds the latches onto FF chains, connects every gate's pins in
    /// node order and adds the primary outputs of `root`.
    fn finish(mut self, root: &Model) -> Result<Circuit, BlifError> {
        if let Some(e) = self.conflict.take() {
            return Err(e);
        }
        for (li, l) in self.latches.iter().enumerate() {
            let what = match self.drivers[l.output as usize] {
                Some(Drv::Pi(_) | Drv::Gate(_)) => "shadows an existing driver",
                Some(Drv::Latch(_)) => "has multiple drivers",
                None => {
                    self.drivers[l.output as usize] = Some(Drv::Latch(li as u32));
                    continue;
                }
            };
            let sig = self.names.name(l.output);
            return Err(build_error(l.line, format!("latch output `{sig}` {what}")));
        }

        // Resolves a signal to its driving node plus the FF chain
        // (source→sink order) accumulated through latches. Iterative —
        // the step guard bounds latch-only cycles.
        let resolve = |id: u32, use_line: u32| -> Result<(NodeId, Vec<Bit>), BlifError> {
            let mut chain: Vec<Bit> = Vec::new();
            let mut cur = id;
            let mut line = use_line;
            loop {
                match self.drivers[cur as usize] {
                    Some(Drv::Pi(n) | Drv::Gate(n)) => {
                        chain.reverse();
                        return Ok((n, chain));
                    }
                    Some(Drv::Latch(li)) => {
                        let l = &self.latches[li as usize];
                        chain.push(l.init);
                        line = l.line;
                        cur = l.input;
                        if chain.len() > self.latches.len() {
                            let sig = self.names.name(id);
                            return Err(build_error(
                                line,
                                format!("latch cycle through `{sig}` with no logic"),
                            ));
                        }
                    }
                    None => {
                        return Err(BlifError::Build(NetlistError::UndefinedSignal {
                            signal: self.names.name(cur),
                            line: line as usize,
                        }))
                    }
                }
            }
        };

        let mut at = 0;
        for (g, &(end, line)) in self.gates.iter().enumerate() {
            let node = NodeId((root.inputs.len() + g) as u32);
            for &sig in &self.pins[at..end as usize] {
                let (src, chain) = resolve(sig, line)?;
                self.c.connect(src, node, chain)?;
            }
            at = end as usize;
        }
        for (k, &sym) in root.outputs.iter().enumerate() {
            let line = root.output_lines.get(k).copied().unwrap_or(root.line);
            let po = self
                .c
                .add_output(sanitize(self.names.symbols.resolve(sym)))?;
            let (src, chain) = resolve(sym.0, line)?;
            self.c.connect(src, po, chain)?;
        }
        Ok(self.c)
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

fn flatten_nokiss(file: &BlifFile) -> Result<Circuit, BlifError> {
    let Some(root_idx) = file.models.iter().position(|m| !m.blackbox) else {
        return Err(Diag::new(0, 0, "no non-blackbox model to link").into());
    };
    let root = &file.models[root_idx];
    let plans = Planner::run(file, root_idx)?;
    let mut linker = Linker::new(file, &plans, root_idx)?;
    let inst = Inst {
        depth: 0,
        stamp: 0,
        prefix: "",
    };
    linker.expand(root_idx, inst)?;
    // Trimmed after the linker's tables are freed, so the copies that
    // shrinking makes never add to their peak.
    let mut c = linker.finish(root)?;
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

    /// The plan's counts are what elaboration makes: every instance
    /// signal, latch and node name, with an output port left unbound,
    /// a port the child never names and models nested two deep.
    #[test]
    fn plan_counts_match_elaboration() {
        let nested = "\
.model top
.inputs a b
.outputs z
.subckt mid p=a q=b r=z
.subckt mid p=b q=a
.end
.model mid
.inputs p q
.outputs r s
.subckt leaf x=p y=q o=t
.latch t r 0
.names t q s
11 1
.end
.model leaf
.inputs x y
.outputs o unused
.names x y w
10 1
.names w y o
01 1
.end
";
        let spec = workloads::LargeSpec {
            name: "plan4".into(),
            width: 8,
            kinds: 2,
            tiles: 4,
            tile_gates: 24,
            seed: 7,
        };
        for text in [nested.to_string(), workloads::hier_to_string(&spec)] {
            let file = parse_str(&text).unwrap();
            let root_idx = file.models.iter().position(|m| !m.blackbox).unwrap();
            let plans = Planner::run(&file, root_idx).unwrap();
            let plan = plans[root_idx].as_ref().unwrap();
            let mut linker = Linker::new(&file, &plans, root_idx).unwrap();
            let inst = Inst {
                depth: 0,
                stamp: 0,
                prefix: "",
            };
            linker.expand(root_idx, inst).unwrap();
            let syms = file.interner.len();
            assert_eq!(linker.drivers.len() as u64, syms as u64 + plan.inner);
            assert_eq!(linker.names.origins.len() as u64, plan.inner);
            assert_eq!(linker.latches.len() as u64, plan.latches);
            let root = &file.models[root_idx];
            let c = linker.finish(root).unwrap();
            let names: usize = c.node_ids().map(|v| c.node(v).name().len()).sum();
            let ports = root.inputs.iter().chain(&root.outputs);
            let port_bytes: usize = ports.map(|&s| file.interner.resolve(s).len()).sum();
            // A gate that drives a bound output port takes its parent's
            // name, so the plan's count is an upper bound here.
            let estimate = plan.name_bytes as usize + port_bytes;
            assert!(names <= estimate + 2 * root.outputs.len());
        }
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

    /// A root over a chain of `levels` models, each instantiating the
    /// next twice, down to one gate: 2^`levels` gates.
    fn doubling(levels: usize) -> String {
        let mut src = String::from(".model top\n.inputs a\n.outputs z\n.subckt m0 x=a y=z\n.end\n");
        for l in 0..levels {
            let next = l + 1;
            src.push_str(&format!(
                ".model m{l}\n.inputs x\n.outputs y\n\
                 .subckt m{next} x=x y=t\n.subckt m{next} x=t y=y\n.end\n"
            ));
        }
        src.push_str(&format!(
            ".model m{levels}\n.inputs x\n.outputs y\n.names x y\n0 1\n.end\n"
        ));
        src
    }

    #[test]
    fn huge_designs_fail_before_reserving() {
        // 2^31 gates would take some 128 GiB of nodes: the link error
        // must come first, wherever elaboration would meet it.
        let bomb = doubling(31);
        let leaf = bomb.replace(".names x y\n0 1\n", ".subckt missing\n");
        let root = bomb.replace("y=z\n", "y=z\n.subckt missing\n");
        for src in [leaf, root] {
            let e = flatten(&parse_str(&src).unwrap(), &LinkOptions::default()).unwrap_err();
            assert!(e.to_string().contains("unknown model `missing`"), "{e}");
        }
        let e = flatten(&parse_str(&doubling(32)).unwrap(), &LinkOptions::default()).unwrap_err();
        assert!(e.to_string().contains("2^32 nodes or more"), "{e}");
        assert_eq!(read(&doubling(3)).num_gates(), 8);
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
        let c = read(src);
        assert_eq!(c.name(), "real");
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
    fn root_names_never_alias_instance_wires() {
        // BLIF has no hierarchical references: the root's `and$0.t` is
        // not the wire `t` of instance `and$0`.
        let top = ".model top\n.inputs a b\n.outputs z\n.subckt and x=a y=b o=u\n";
        let and =
            ".model and\n.inputs x y\n.outputs o\n.names x y t\n11 1\n.names t o\n1 1\n.end\n";
        let src = format!("{top}.names and$0.t u z\n11 1\n.end\n{and}");
        match flatten(&parse_str(&src).unwrap(), &LinkOptions::default()) {
            Err(BlifError::Build(NetlistError::UndefinedSignal { signal, line })) => {
                assert_eq!((signal.as_str(), line), ("and$0.t", 5));
            }
            other => panic!("expected UndefinedSignal, got {other:?}"),
        }
        // Driven in the root, it is a gate of its own, not a second driver.
        let c = read(&format!(
            "{top}.names a and$0.t\n0 1\n.names and$0.t u z\n11 1\n.end\n{and}"
        ));
        assert_eq!(c.num_gates(), 4);
        assert_eq!(c.node(c.find("and$0.t").unwrap()).fanin().len(), 2);
        let outer = c.node(c.find("and$0.t$g").unwrap());
        assert_eq!(c.edge(outer.fanin()[0]).from(), c.find("a").unwrap());
        // As a primary output's name, it stays the output's.
        let top = top.replace(".outputs z", ".outputs and$0.t u");
        let c = read(&format!("{top}.names a and$0.t\n0 1\n.end\n{and}"));
        assert_eq!(c.num_gates(), 3);
        let po = c.node(c.find("and$0.t").unwrap());
        let driver = c.node(c.edge(po.fanin()[0]).from());
        assert!(po.is_output() && driver.fanin().len() == 1);
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
