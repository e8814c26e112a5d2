//! Hierarchy linking: `.subckt` elaboration, library-cell resolution,
//! KISS lowering, and flattening into a retiming-graph [`Circuit`].
//!
//! Flattening has two stages. *Elaboration* walks the model hierarchy
//! from the link root, binding `.subckt` formals to parent actuals and
//! prefixing instance-local names with `{model}${ordinal}.` paths; it
//! produces flat gate/latch lists over a second, flat-name interner (no
//! string maps on the hot path — drivers are indexed by symbol).
//! *Construction* then ports the proven semantics of the old
//! single-model reader: latches fold onto consumer edges as FF chains,
//! and gate nodes whose signal collides with a primary-output name get
//! a `$g` suffix.
//!
//! Embedded KISS FSM blocks are lowered first: each block is parsed
//! with `workloads::kiss`, synthesised to gates, converted back to an
//! auxiliary model, and the block replaced by a `.subckt` of it.

use crate::ast::{BlifFile, Command, Model, Names, Subckt};
use crate::diag::{BlifError, Diag};
use crate::intern::{Interner, Symbol};
use crate::lib_cells::{is_output_pin, lookup_cell, lookup_latch_cell};
use crate::write::{model_from_circuit, sanitize};
use netlist::{Bit, Circuit, NetlistError, NodeId, TruthTable};
use std::collections::HashMap;
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
            let aux_name = format!("{}$kiss{}", out.models[mi].name, ci);
            let circ = synthesize_stg(&stg, encoding, &aux_name)?;
            let aux_model = model_from_circuit(&circ, &mut out.interner, block.line);
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
                line: block.line,
            });
            aux.push(aux_model);
        }
    }
    out.models.extend(aux);
    Ok(Some(out))
}

/// A flattened gate: resolved truth table over flat signal symbols.
struct FlatGate {
    inputs: Vec<Symbol>,
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
    latches: Vec<FlatLatch>,
}

struct Linker<'a> {
    file: &'a BlifFile,
    model_idx: HashMap<&'a str, usize>,
    /// Per model: truth tables of its `.names` blocks, computed once.
    tts: Vec<Option<Vec<TruthTable>>>,
    flat: Flat,
    /// Scratch for prefixed instance-local names.
    buf: String,
}

fn diag(line: u32, msg: impl Into<String>) -> BlifError {
    Diag::new(line as usize, 1, msg).into()
}

impl<'a> Linker<'a> {
    fn new(file: &'a BlifFile) -> Linker<'a> {
        let model_idx = file
            .models
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.as_str(), i))
            .collect();
        Linker {
            file,
            model_idx,
            tts: vec![None; file.models.len()],
            flat: Flat::default(),
            buf: String::new(),
        }
    }

    fn ensure_tts(&mut self, mi: usize) -> Result<(), BlifError> {
        if self.tts[mi].is_some() {
            return Ok(());
        }
        let mut tts = Vec::new();
        for cmd in &self.file.models[mi].commands {
            if let Command::Names(n) = cmd {
                tts.push(names_tt(n)?);
            }
        }
        self.tts[mi] = Some(tts);
        Ok(())
    }

    /// The flat symbol for a model-local signal inside one instance.
    fn flat_sym(
        &mut self,
        map: &mut HashMap<Symbol, Symbol>,
        prefix: &str,
        local: Symbol,
    ) -> Symbol {
        if let Some(&s) = map.get(&local) {
            return s;
        }
        self.buf.clear();
        self.buf.push_str(prefix);
        self.buf.push_str(self.file.interner.resolve(local));
        let s = self.flat.names.intern(&self.buf);
        map.insert(local, s);
        s
    }

    /// Expands model `mi` under `prefix` with the given port bindings.
    fn expand(
        &mut self,
        mi: usize,
        prefix: &str,
        bind: HashMap<Symbol, Symbol>,
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
        let mut map = bind;
        let mut names_seen = 0usize;
        let mut inst_counts: HashMap<Symbol, usize> = HashMap::new();
        for cmd in &model.commands {
            match cmd {
                Command::Names(n) => {
                    let tt = self.tts[mi].as_ref().expect("ensured")[names_seen].clone();
                    names_seen += 1;
                    let inputs = n
                        .inputs
                        .iter()
                        .map(|&s| self.flat_sym(&mut map, prefix, s))
                        .collect();
                    let output = self.flat_sym(&mut map, prefix, n.output);
                    self.flat.gates.push(FlatGate {
                        inputs,
                        output,
                        tt,
                        line: n.line,
                    });
                }
                Command::Conn { from, to, line } => {
                    let from = self.flat_sym(&mut map, prefix, *from);
                    let to = self.flat_sym(&mut map, prefix, *to);
                    self.flat.gates.push(FlatGate {
                        inputs: vec![from],
                        output: to,
                        tt: TruthTable::buf(),
                        line: *line,
                    });
                }
                Command::Latch(l) => {
                    let input = self.flat_sym(&mut map, prefix, l.input);
                    let output = self.flat_sym(&mut map, prefix, l.output);
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
                    let mut inputs = Vec::with_capacity(cell.inputs.len());
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
                        inputs.push(self.flat_sym(&mut map, prefix, a));
                    }
                    let output = self.flat_sym(&mut map, prefix, output);
                    self.flat.gates.push(FlatGate {
                        inputs,
                        output,
                        tt: cell.tt.clone(),
                        line: g.line,
                    });
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
                    let input = self.flat_sym(&mut map, prefix, d);
                    let output = self.flat_sym(&mut map, prefix, q);
                    self.flat.latches.push(FlatLatch {
                        input,
                        output,
                        init: ml.init.map_or(Bit::X, |v| v.to_bit()),
                        line: ml.line,
                    });
                }
                Command::Subckt(s) => {
                    let child_name = file.interner.resolve(s.model);
                    let Some(&ci) = self.model_idx.get(child_name) else {
                        return Err(diag(s.line, format!("unknown model `{child_name}`")));
                    };
                    let child = &file.models[ci];
                    if child.blackbox {
                        return Err(diag(
                            s.line,
                            format!("cannot flatten instantiation of blackbox `{child_name}`"),
                        ));
                    }
                    let mut child_bind: HashMap<Symbol, Symbol> = HashMap::new();
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
                        let flat = self.flat_sym(&mut map, prefix, actual);
                        if child_bind.insert(formal, flat).is_some() {
                            return Err(diag(
                                s.line,
                                format!("port `{}` bound twice", file.interner.resolve(formal)),
                            ));
                        }
                    }
                    for &pin in &child.inputs {
                        if !child_bind.contains_key(&pin) {
                            return Err(diag(
                                s.line,
                                format!(
                                    "unconnected input `{}` of model `{child_name}`",
                                    file.interner.resolve(pin)
                                ),
                            ));
                        }
                    }
                    let ord = inst_counts.entry(s.model).or_insert(0);
                    let child_prefix = format!("{prefix}{child_name}${ord}.");
                    *ord += 1;
                    self.expand(ci, &child_prefix, child_bind, stack)?;
                }
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
}

/// Truth table of a `.names` block (on-set or off-set cubes).
fn names_tt(block: &Names) -> Result<TruthTable, BlifError> {
    let n = block.inputs.len();
    if block.num_cubes() == 0 {
        return Ok(TruthTable::const_zero(n));
    }
    let value = block.values[0];
    if block.values.iter().any(|&v| v != value) {
        return Err(diag(block.line, "mixed on-set/off-set cubes"));
    }
    let covered = |r: usize| {
        (0..block.num_cubes()).any(|ci| {
            let (pattern, _) = block.cube(ci);
            pattern.iter().enumerate().all(|(i, &ch)| match ch {
                b'0' => r & (1 << i) == 0,
                b'1' => r & (1 << i) != 0,
                _ => true,
            })
        })
    };
    Ok(TruthTable::from_fn(n, |r| {
        if value == b'1' {
            covered(r)
        } else {
            !covered(r)
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
    linker.expand(root_idx, "", HashMap::new(), &mut stack)?;
    build(file, root_idx, linker.flat)
}

enum Drv {
    Pi(NodeId),
    Gate(usize),
    Latch(usize),
}

/// Builds the retiming-graph circuit from flat gate/latch lists —
/// semantics ported from the old single-model reader (latch folding,
/// `$g` suffixes for PO-name collisions).
fn build(file: &BlifFile, root_idx: usize, mut flat: Flat) -> Result<Circuit, BlifError> {
    let root = &file.models[root_idx];
    let mut c = Circuit::new(root.name.clone());

    let pi_syms: Vec<Symbol> = root
        .inputs
        .iter()
        .map(|&s| flat.names.intern(file.interner.resolve(s)))
        .collect();
    let po_syms: Vec<Symbol> = root
        .outputs
        .iter()
        .map(|&s| flat.names.intern(file.interner.resolve(s)))
        .collect();
    let po_set: std::collections::HashSet<Symbol> = po_syms.iter().copied().collect();

    let mut drivers: Vec<Option<Drv>> = Vec::new();
    drivers.resize_with(flat.names.len(), || None);
    let pins: usize = flat.gates.iter().map(|g| g.inputs.len()).sum();
    c.reserve(
        pi_syms.len() + flat.gates.len() + po_syms.len(),
        pins + po_syms.len(),
    );

    // Scratch for node names, which may take `$g` suffixes.
    let mut node_name = String::new();
    for (&sym, &local) in pi_syms.iter().zip(root.inputs.iter()) {
        let name = file.interner.resolve(local);
        if drivers[sym.index()].is_some() {
            return Err(diag(root.line, format!("duplicate input `{name}`")));
        }
        node_name.clear();
        node_name.push_str(&sanitize(name));
        if po_set.contains(&sym) {
            node_name.push_str("$g");
        }
        drivers[sym.index()] = Some(Drv::Pi(c.add_input(&node_name)?));
    }

    let mut gate_nodes: Vec<NodeId> = Vec::with_capacity(flat.gates.len());
    for (gi, g) in flat.gates.iter().enumerate() {
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
        if po_set.contains(&g.output) {
            node_name.push_str("$g");
        }
        while c.find(&node_name).is_some() {
            node_name.push_str("$g");
        }
        let id = c.add_gate(&node_name, g.tt.clone())?;
        gate_nodes.push(id);
        drivers[g.output.index()] = Some(Drv::Gate(gi));
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
        drivers[l.output.index()] = Some(Drv::Latch(li));
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
            match drivers.get(cur.index()).and_then(|d| d.as_ref()) {
                Some(Drv::Pi(n)) => {
                    chain.reverse();
                    return Ok((*n, chain));
                }
                Some(Drv::Gate(gi)) => {
                    chain.reverse();
                    return Ok((gate_nodes[*gi], chain));
                }
                Some(Drv::Latch(li)) => {
                    let l = &flat.latches[*li];
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

    for (gi, g) in flat.gates.iter().enumerate() {
        for &sig in &g.inputs {
            let (src, chain) = resolve(sig, g.line)?;
            c.connect(src, gate_nodes[gi], chain)?;
        }
    }
    for (k, &sym) in po_syms.iter().enumerate() {
        let name = file.interner.resolve(root.outputs[k]);
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
    fn latch_only_cycle_diagnosed() {
        let src = ".model c\n.inputs a\n.outputs z\n.latch z z 0\n.end\n";
        let e = flatten(&parse_str(src).unwrap(), &LinkOptions::default()).unwrap_err();
        assert!(e.to_string().contains("latch cycle"), "{e}");
    }
}
