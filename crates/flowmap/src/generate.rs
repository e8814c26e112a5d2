//! LUT network generation (§3.3), for every mapper.
//!
//! Given the LUT roots, one cut per root and a lag `Ɍ(v)` per root, the
//! network has one K-LUT per root: the collapse of the root's cone over
//! its cut, with the register chains re-attached. Each instance `u^w` of
//! a cone is retimed by `Ɍ(v) + w` (Theorem 6), so every intra-cone edge
//! ends up with no register. FlowMap-frt ([`crate::flowmap`]) gives every
//! root lag 0; TurboMap-frt gives root `v` the lag `⌈L^s(v)/Φ⌉ − 1`.
//! [`generate_luts`] builds the network in three steps, each its own
//! trace span:
//!
//! 1. **`cone_walk`** — each root's cone is walked once over its
//!    `(node, register count)` instances. The cut names the LUT inputs
//!    and their order ([`LutCut`]); the LUT's function is the cone
//!    function over them.
//! 2. **`initial_states`** — every LUT input's register chain after the
//!    retiming. When no instance has a positive lag, as always for
//!    FlowMap-frt and TurboMap-frt, the chains come from one forward
//!    simulation pass over the original circuit ([`ForwardValues`]): the
//!    `k`-th forward move at a node emits its value at cycle `k`. A
//!    positive lag (the general TurboMap baseline) needs backward
//!    justification, which can fail; then the cones are instantiated as
//!    real gates in a node-duplicated network H (`expand_network`), and
//!    the retiming engine's unit moves over H supply the chains. Failed
//!    justification is reported to the caller (the paper's `⋆` rows).
//! 3. **`emit_luts`** — one K-LUT per root. Reads of one input merge
//!    their chains bit by bit, starting from the input's chain in the cut
//!    when the cut fixes one.

use crate::cut::{LutCut, Read};
use crate::cutenum::{ConeWalk, ExpNode};
use netlist::{Bit, Circuit, EdgeId, NodeId, TruthTable};
use retiming::{apply_retiming, ForwardValues, MoveStats, Retiming, RetimingError};
use std::collections::HashMap;
use std::ops::Range;

/// Errors from mapping generation.
#[derive(Debug)]
pub enum GenerateError {
    /// A cut referenced a gate with no cut of its own (internal error).
    MissingCut {
        /// The gate without a cut.
        node: String,
    },
    /// A cone reached a boundary its cut does not list, or a cut signal
    /// is driven by a gate that is no LUT root (internal error).
    InconsistentCut {
        /// The LUT root.
        root: String,
        /// The offending signal's driver.
        signal: String,
    },
    /// Too many inputs for a truth table.
    ConeTooWide {
        /// The LUT root.
        root: String,
        /// Its input count.
        inputs: usize,
    },
    /// Initial state computation failed (only possible for general
    /// retiming with backward moves — the paper's `⋆` case).
    InitialState(RetimingError),
    /// Other retiming error (illegal retiming — internal error).
    Retiming(RetimingError),
    /// Netlist construction error.
    Netlist(netlist::NetlistError),
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenerateError::MissingCut { node } => write!(f, "no cut stored for `{node}`"),
            GenerateError::InconsistentCut { root, signal } => {
                write!(f, "cone of `{root}` does not match its cut at `{signal}`")
            }
            GenerateError::ConeTooWide { root, inputs } => {
                write!(f, "cone of `{root}` has {inputs} inputs")
            }
            GenerateError::InitialState(e) => write!(f, "initial state: {e}"),
            GenerateError::Retiming(e) => write!(f, "retiming: {e}"),
            GenerateError::Netlist(e) => write!(f, "netlist: {e}"),
        }
    }
}

impl std::error::Error for GenerateError {}

impl From<netlist::NetlistError> for GenerateError {
    fn from(e: netlist::NetlistError) -> Self {
        GenerateError::Netlist(e)
    }
}

/// The generated mapping.
#[derive(Debug, Clone)]
pub struct GeneratedMapping {
    /// The final LUT network with registers and initial states.
    pub circuit: Circuit,
    /// Unit-move statistics of the retiming step.
    pub moves: MoveStats,
    /// True when the initial state had to be abandoned (values replaced by
    /// `X`) because backward justification failed — the `⋆` outcome.
    pub initial_state_lost: bool,
}

/// Generates the LUT network from roots, their cuts and their lags
/// `lag(v) = Ɍ(v)` (Leiserson–Saxe sign: ≤ 0 pulls registers forward).
/// `roots` must be closed: every gate a cut names, and every gate driving
/// a PO, is a root itself.
///
/// When `allow_state_loss` is set and backward justification fails, the
/// generation retries with all initial values erased to `X` and flags the
/// result (`initial_state_lost`) instead of failing — this reproduces the
/// paper's `⋆` outcomes while still reporting structure and timing.
///
/// # Errors
///
/// See [`GenerateError`].
pub fn generate_luts<C: LutCut>(
    c: &Circuit,
    roots: &HashMap<NodeId, C>,
    lag: impl Fn(NodeId) -> i64,
    name: &str,
    allow_state_loss: bool,
) -> Result<GeneratedMapping, GenerateError> {
    let cones = Cones::walk(c, roots, lag)?;
    let states = {
        let _s = engine::trace::span("initial_states");
        if cones.forward_only {
            forward_states(c, &cones)?
        } else {
            expanded_states(c, &cones, name, allow_state_loss)?
        }
    };
    emit_luts(c, &cones, states, name)
}

/// [`generate_luts`] with the chains always from unit moves over the
/// node-duplicated network H, even when no lag is positive: the reference
/// that the one-pass path is tested against.
///
/// # Errors
///
/// See [`GenerateError`].
pub fn generate_luts_by_unit_moves<C: LutCut>(
    c: &Circuit,
    roots: &HashMap<NodeId, C>,
    lag: impl Fn(NodeId) -> i64,
    name: &str,
    allow_state_loss: bool,
) -> Result<GeneratedMapping, GenerateError> {
    let cones = Cones::walk(c, roots, lag)?;
    let states = expanded_states(c, &cones, name, allow_state_loss)?;
    emit_luts(c, &cones, states, name)
}

/// Where a cone gate reads one fanin from while its cone is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// LUT input `i`: bit `i` of the row.
    Input(usize),
    /// The cone gate in this slot of the cone (the root is slot 0).
    Gate(usize),
}

/// The truth table over `inputs` LUT inputs of a cone given as its gates,
/// slot 0 the root: each gate's function and the operands it reads, in
/// fanin order. The gates are put in evaluation order (post-order from the
/// root), then the `2^inputs` rows run over one reused value buffer.
fn cone_table(inputs: usize, gates: &[(&TruthTable, &[Operand])]) -> TruthTable {
    let mut order: Vec<usize> = Vec::with_capacity(gates.len());
    let mut visited = vec![false; gates.len()];
    visited[0] = true;
    let mut walk = vec![(0usize, 0usize)];
    while let Some(top) = walk.last_mut() {
        let (s, next) = *top;
        let (f, ops) = gates[s];
        if let Some(&op) = ops.get(next) {
            top.1 += 1;
            if let Operand::Gate(t) = op {
                if !visited[t] {
                    visited[t] = true;
                    walk.push((t, 0));
                }
            }
        } else {
            assert_eq!(ops.len(), f.num_inputs(), "arity mismatch");
            order.push(s);
            walk.pop();
        }
    }
    let mut values = vec![false; gates.len()];
    TruthTable::from_fn(inputs, |row| {
        for &s in &order {
            let (f, ops) = gates[s];
            let mut r = 0usize;
            for (b, &op) in ops.iter().enumerate() {
                let bit = match op {
                    Operand::Input(i) => (row >> i) & 1,
                    Operand::Gate(t) => values[t] as usize,
                };
                r |= bit << b;
            }
            values[s] = f.eval_row(r);
        }
        values[0]
    })
}

/// One LUT: its root, the root's lag `Ɍ(v)`, its function, and its parts
/// of [`Cones`]' flat lists.
struct Lut {
    root: NodeId,
    lag: i64,
    function: TruthTable,
    /// Its cone instances, the root's own instance first.
    inst: Range<usize>,
    /// Its instances' operands.
    ops: Range<usize>,
    /// Its inputs.
    inputs: Range<usize>,
}

/// A LUT input: the signal `u^w`, and its register chain when the cut
/// fixes one.
struct Input<'a> {
    leaf: ExpNode,
    chain: Option<&'a [Bit]>,
}

/// Every root's cone, walked once: what both initial-state paths and the
/// emission read.
struct Cones<'a> {
    /// The roots in ascending order.
    luts: Vec<Lut>,
    /// Cone instances `u^w`, root by root, in walk order (each root's
    /// slots).
    inst: Vec<ExpNode>,
    /// Per instance fanin, instance by instance in fanin order: the cone
    /// instance (by slot) or the LUT input that it reads.
    ops: Vec<Operand>,
    /// LUT inputs, root by root, in input order.
    inputs: Vec<Input<'a>>,
    /// Per node: its lag when it is a root.
    lag: Vec<Option<i64>>,
    /// True when no instance has a positive lag.
    forward_only: bool,
}

impl<'a> Cones<'a> {
    fn walk<C: LutCut>(
        c: &Circuit,
        roots: &'a HashMap<NodeId, C>,
        lag: impl Fn(NodeId) -> i64,
    ) -> Result<Cones<'a>, GenerateError> {
        let _span = engine::trace::span("cone_walk");
        let mut root_ids: Vec<NodeId> = roots.keys().copied().collect();
        root_ids.sort_unstable();
        let mut lags = vec![None; c.num_nodes()];
        for &v in &root_ids {
            lags[v.index()] = Some(lag(v));
        }
        let mut cones = Cones {
            luts: Vec::with_capacity(root_ids.len()),
            inst: Vec::new(),
            ops: Vec::new(),
            inputs: Vec::new(),
            lag: lags,
            forward_only: true,
        };
        let mut walk = ConeWalk::default();
        // Per slot of the current cone: its instance and where its fanin
        // reads start in `reads`: an operand, or the leaf read.
        let mut slots: Vec<(ExpNode, usize)> = Vec::new();
        let mut reads: Vec<Result<Operand, ExpNode>> = Vec::new();
        for &v in &root_ids {
            let (cut, root) = (&roots[&v], || c.node(v).name().to_string());
            let too_wide = |inputs| GenerateError::ConeTooWide {
                root: root(),
                inputs,
            };
            let seeds = cut.seeds();
            if seeds.len() > netlist::MAX_INPUTS {
                return Err(too_wide(seeds.len()));
            }
            slots.clear();
            reads.clear();
            walk.start(c, v);
            while let Some((x, node, weight)) = walk.pop() {
                slots.resize(slots.len().max(x + 1), (ExpNode { node, weight }, 0));
                slots[x] = (ExpNode { node, weight }, reads.len());
                for &e in c.node(node).fanin() {
                    let (u, w) = (c.edge(e).from(), weight + c.edge(e).weight() as u64);
                    reads.push(match cut.read(c, e, weight) {
                        Read::Seed(i) => Ok(Operand::Input(i)),
                        Read::Leaf(t) => Err(t),
                        Read::Cone if c.node(u).is_gate() => Ok(Operand::Gate(walk.visit(u, w))),
                        Read::Cone | Read::Uncut => {
                            return Err(GenerateError::InconsistentCut {
                                root: root(),
                                signal: c.node(u).name().to_string(),
                            })
                        }
                    });
                }
            }
            // The seeds first, then the leaves in slot order, as the cone
            // reads them.
            let lag = cones.lag[v.index()].expect("a root");
            let (inst0, ops0, in0) = (cones.inst.len(), cones.ops.len(), cones.inputs.len());
            cones.inputs.extend(seeds.iter().map(|s| Input {
                leaf: ExpNode {
                    node: s.node,
                    weight: s.weight() as u64,
                },
                chain: Some(&s.chain),
            }));
            for &(x, start) in &slots {
                cones.forward_only &= lag + x.weight as i64 <= 0;
                cones.inst.push(x);
                for &read in &reads[start..start + c.node(x.node).fanin().len()] {
                    cones.ops.push(match read {
                        Ok(op) => op,
                        Err(t) => match cones.inputs[in0..].iter().position(|i| i.leaf == t) {
                            Some(i) => Operand::Input(i),
                            None => {
                                cones.inputs.push(Input {
                                    leaf: t,
                                    chain: None,
                                });
                                Operand::Input(cones.inputs.len() - in0 - 1)
                            }
                        },
                    });
                }
            }
            let inputs = cones.inputs.len() - in0;
            if inputs > netlist::MAX_INPUTS {
                return Err(too_wide(inputs));
            }
            // Every input is a PI or a root's output.
            for input in &cones.inputs[in0..] {
                let u = input.leaf.node;
                if c.node(u).is_gate() && cones.lag[u.index()].is_none() {
                    return Err(GenerateError::InconsistentCut {
                        root: root(),
                        signal: c.node(u).name().to_string(),
                    });
                }
            }
            let mut gates = Vec::with_capacity(slots.len());
            let mut at = ops0;
            for x in &cones.inst[inst0..] {
                let f = c.node(x.node).function().expect("cone gates");
                gates.push((f, &cones.ops[at..at + f.num_inputs()]));
                at += f.num_inputs();
            }
            cones.luts.push(Lut {
                root: v,
                lag,
                function: cone_table(inputs, &gates),
                inst: inst0..cones.inst.len(),
                ops: ops0..cones.ops.len(),
                inputs: in0..cones.inputs.len(),
            });
        }
        for &po in c.outputs() {
            let d = c.edge(c.node(po).fanin()[0]).from();
            if c.node(d).is_gate() && cones.lag[d.index()].is_none() {
                return Err(GenerateError::MissingCut {
                    node: c.node(d).name().to_string(),
                });
            }
        }
        Ok(cones)
    }

    /// Every edge whose chain the network reads, in emission order: each
    /// LUT's reads of its inputs, instance by instance in fanin order,
    /// with the lag of the instance that reads it; then each PO's edge,
    /// with lag 0.
    fn taps(&self, c: &Circuit) -> Vec<(EdgeId, i64)> {
        let mut taps = Vec::new();
        for lut in &self.luts {
            let mut ops = self.ops[lut.ops.clone()].iter();
            for x in &self.inst[lut.inst.clone()] {
                let lag = lut.lag + x.weight as i64;
                for (&e, op) in c.node(x.node).fanin().iter().zip(ops.by_ref()) {
                    if let Operand::Input(_) = op {
                        taps.push((e, lag));
                    }
                }
            }
        }
        taps.extend(c.outputs().iter().map(|&po| (c.node(po).fanin()[0], 0)));
        taps
    }
}

/// The register chains after the retiming, source end first, of every
/// edge in [`Cones::taps`] order.
struct InitialStates {
    chains: Vec<Vec<Bit>>,
    moves: MoveStats,
    /// Justification failed and the values were erased to `X`.
    lost: bool,
}

/// The chains of a forward-only retiming, from one [`ForwardValues`] pass
/// over `c`: each node simulated for as many cycles as the most moves
/// any of its instances makes. When nothing moves (always so for
/// FlowMap-frt, every root at lag 0), each chain is its edge's own and
/// the pass is skipped.
fn forward_states(c: &Circuit, cones: &Cones) -> Result<InitialStates, GenerateError> {
    let mut depth = vec![0u64; c.num_nodes()];
    let mut moves = 0u64;
    for lut in &cones.luts {
        for x in &cones.inst[lut.inst.clone()] {
            let m = (lut.lag + x.weight as i64).unsigned_abs();
            depth[x.node.index()] = depth[x.node.index()].max(m);
            moves += m;
        }
    }
    let taps = cones.taps(c);
    let chains = if moves == 0 {
        taps.iter()
            .map(|&(e, _)| c.edge(e).ffs().to_vec())
            .collect()
    } else {
        // (edge, moves at its source, moves at its sink); a PI never moves.
        let taps: Vec<(EdgeId, u64, u64)> = (taps.into_iter())
            .map(|(e, lag)| {
                let from = cones.lag[c.edge(e).from().index()].unwrap_or(0);
                (e, from.unsigned_abs(), lag.unsigned_abs())
            })
            .collect();
        for &(e, m_from, m_to) in &taps {
            let edge = c.edge(e);
            if edge.weight() as u64 + m_from < m_to {
                return Err(GenerateError::Retiming(RetimingError::NegativeEdgeWeight {
                    from: c.node(edge.from()).name().to_string(),
                    to: c.node(edge.to()).name().to_string(),
                    weight: edge.weight() as i64 + m_from as i64 - m_to as i64,
                }));
            }
        }
        let values = ForwardValues::simulate(c, &depth).map_err(GenerateError::Retiming)?;
        taps.iter()
            .map(|&(e, m_from, m_to)| values.chain(c, e, m_from, m_to).expect("checked above"))
            .collect()
    };
    engine::telemetry::count(engine::telemetry::Counter::ForwardMoves, moves);
    Ok(InitialStates {
        chains,
        moves: MoveStats {
            forward_moves: moves as usize,
            backward_moves: 0,
        },
        lost: false,
    })
}

/// The chains from unit moves over the node-duplicated network H: every
/// cone instance a real gate retimed by its lag, every read edge copied
/// with its chain. With `allow_state_loss`, failed justification retries
/// with every initial value erased to `X`.
fn expanded_states(
    c: &Circuit,
    cones: &Cones,
    name: &str,
    allow_state_loss: bool,
) -> Result<InitialStates, GenerateError> {
    let _span = engine::trace::span("expand_network");
    let mut h = Circuit::new(format!("{name}_expanded"));
    // Per node of `c`: its H node when it is a PI or a root.
    let mut driver: Vec<Option<NodeId>> = vec![None; c.num_nodes()];
    for &pi in c.inputs() {
        driver[pi.index()] = Some(h.add_input(c.node(pi).name())?);
    }
    // H's node ids run PIs, cone instances, POs: so do the lags.
    let mut lags = vec![0; c.inputs().len()];
    for lut in &cones.luts {
        let root = c.node(lut.root).name();
        driver[lut.root.index()] = Some(NodeId(h.num_nodes() as u32));
        for (slot, x) in cones.inst[lut.inst.clone()].iter().enumerate() {
            let node_name = match slot {
                0 => root.to_string(),
                _ => format!("{root}~x{}w{}", c.node(x.node).name(), x.weight),
            };
            h.add_gate(node_name, c.node(x.node).function().expect("gate").clone())?;
            lags.push(lut.lag + x.weight as i64);
        }
    }
    let mut taps = Vec::new();
    for lut in &cones.luts {
        let mut ops = cones.ops[lut.ops.clone()].iter();
        let first = driver[lut.root.index()].expect("emitted above").index();
        for (slot, x) in cones.inst[lut.inst.clone()].iter().enumerate() {
            let consumer = NodeId((first + slot) as u32);
            for (&e, op) in c.node(x.node).fanin().iter().zip(ops.by_ref()) {
                let chain = c.edge(e).ffs().to_vec();
                if let Operand::Gate(t) = *op {
                    h.connect(NodeId((first + t) as u32), consumer, chain)?;
                } else {
                    let src = driver[c.edge(e).from().index()].expect("checked by the walk");
                    taps.push(h.connect(src, consumer, chain)?);
                }
            }
        }
    }
    for &po in c.outputs() {
        let new_po = h.add_output(c.node(po).name())?;
        let edge = c.edge(c.node(po).fanin()[0]);
        let src = driver[edge.from().index()].expect("checked by the walk");
        taps.push(h.connect(src, new_po, edge.ffs())?);
    }
    lags.resize(h.num_nodes(), 0);
    let retiming = Retiming::from_values(lags);
    let (h, moves, lost) = match apply_retiming(&h, &retiming) {
        Ok((hr, mv)) => (hr, mv, false),
        Err(
            e @ (RetimingError::ConflictingFanoutValues { .. }
            | RetimingError::NotJustifiable { .. }),
        ) => {
            if !allow_state_loss {
                return Err(GenerateError::InitialState(e));
            }
            // Erase initial values and retime structurally.
            let mut hx = h.clone();
            for eid in hx.edge_ids().collect::<Vec<_>>() {
                hx.ffs_mut(eid).fill(Bit::X);
            }
            let (hr, mv) = apply_retiming(&hx, &retiming).map_err(GenerateError::Retiming)?;
            (hr, mv, true)
        }
        Err(e) => return Err(GenerateError::Retiming(e)),
    };
    Ok(InitialStates {
        chains: taps.iter().map(|&e| h.edge(e).ffs().to_vec()).collect(),
        moves,
        lost,
    })
}

/// Builds the LUT network: PIs, one LUT per root in ascending order, each
/// LUT's inputs, then the POs. Reads of one input carry the same logical
/// signal, so their chains must agree; justified backward values can
/// diverge, and those positions are erased to `X` with the initial state
/// flagged lost (a `⋆` ingredient).
fn emit_luts(
    c: &Circuit,
    cones: &Cones,
    states: InitialStates,
    name: &str,
) -> Result<GeneratedMapping, GenerateError> {
    let _span = engine::trace::span("emit_luts");
    let mut lost = states.lost;
    let mut out = Circuit::new(name.to_string());
    let mut id: Vec<Option<NodeId>> = vec![None; c.num_nodes()];
    for &pi in c.inputs() {
        id[pi.index()] = Some(out.add_input(c.node(pi).name())?);
    }
    for lut in &cones.luts {
        let f = lut.function.clone();
        id[lut.root.index()] = Some(out.add_gate(c.node(lut.root).name(), f)?);
    }
    let mut chains = states.chains.into_iter();
    for lut in &cones.luts {
        let inputs = &cones.inputs[lut.inputs.clone()];
        let mut merged: Vec<Option<Vec<Bit>>> = inputs
            .iter()
            .map(|i| i.chain.map(<[Bit]>::to_vec))
            .collect();
        for op in &cones.ops[lut.ops.clone()] {
            let Operand::Input(i) = *op else { continue };
            let chain = chains.next().expect("one chain per read");
            match &mut merged[i] {
                None => merged[i] = Some(chain),
                Some(existing) => {
                    for (slot, b) in existing.iter_mut().zip(chain) {
                        *slot = slot.merge(b).unwrap_or_else(|| {
                            lost = true;
                            Bit::X
                        });
                    }
                }
            }
        }
        let lut_id = id[lut.root.index()].expect("emitted above");
        for (input, chain) in inputs.iter().zip(merged) {
            let src = id[input.leaf.node.index()].expect("checked by the walk");
            out.connect(src, lut_id, chain.expect("every leaf input is read"))?;
        }
    }
    for (&po, chain) in c.outputs().iter().zip(chains) {
        let new_po = out.add_output(c.node(po).name())?;
        let src = id[c.edge(c.node(po).fanin()[0]).from().index()].expect("checked by the walk");
        out.connect(src, new_po, chain)?;
    }
    Ok(GeneratedMapping {
        circuit: out,
        moves: states.moves,
        initial_state_lost: lost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{Cut, CutSignal};
    use engine::Rng64;

    /// The generator's LUT for `root` over a FlowMap `cut`: its function
    /// and inputs. Every other gate is a root over its fanins, so the cut
    /// may name any gate.
    fn flowmap_lut(
        c: &Circuit,
        root: NodeId,
        cut: &Cut,
    ) -> Result<(TruthTable, Vec<ExpNode>), GenerateError> {
        let fanins = |g: NodeId| Cut {
            signals: (c.node(g).fanin().iter())
                .map(|&e| CutSignal::tap(c.edge(e).from(), c.edge(e).ffs().to_vec()))
                .collect(),
        };
        let mut roots: HashMap<NodeId, Cut> = c.gate_ids().map(|g| (g, fanins(g))).collect();
        roots.insert(root, cut.clone());
        let cones = Cones::walk(c, &roots, |_| 0)?;
        let lut = cones
            .luts
            .iter()
            .find(|lut| lut.root == root)
            .expect("a root");
        let inputs = cones.inputs[lut.inputs.clone()].iter().map(|i| i.leaf);
        Ok((lut.function.clone(), inputs.collect()))
    }

    /// A FlowMap cut's signals as the LUT inputs they name, in cut order.
    fn leaves(cut: &Cut) -> Vec<ExpNode> {
        (cut.signals.iter())
            .map(|s| ExpNode {
                node: s.node,
                weight: s.weight() as u64,
            })
            .collect()
    }

    /// Row-by-row reference for a FlowMap LUT's function: every row
    /// rebuilds each gate's inputs and looks each fanin signal up by
    /// hash. The cone is walked depth first, each gate marked when first
    /// reached, so the first uncut boundary it meets is the generator's.
    fn cone_function_reference(
        c: &Circuit,
        root: NodeId,
        cut: &Cut,
    ) -> Result<TruthTable, GenerateError> {
        if cut.signals.len() > netlist::MAX_INPUTS {
            return Err(GenerateError::ConeTooWide {
                root: c.node(root).name().to_string(),
                inputs: cut.signals.len(),
            });
        }
        let index: HashMap<&CutSignal, usize> = cut
            .signals
            .iter()
            .enumerate()
            .map(|(i, s)| (s, i))
            .collect();
        let signal_of = |e: EdgeId| CutSignal::tap(c.edge(e).from(), c.edge(e).ffs().to_vec());
        let mut cone: Vec<NodeId> = vec![root];
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            for &e in c.node(v).fanin() {
                if index.contains_key(&signal_of(e)) {
                    continue;
                }
                let edge = c.edge(e);
                if edge.weight() > 0 || !c.node(edge.from()).is_gate() {
                    return Err(GenerateError::InconsistentCut {
                        root: c.node(root).name().to_string(),
                        signal: c.node(edge.from()).name().to_string(),
                    });
                }
                if !cone.contains(&edge.from()) {
                    cone.push(edge.from());
                    stack.push(edge.from());
                }
            }
        }
        let cone_set: HashMap<NodeId, usize> =
            cone.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut fwd: Vec<(usize, usize)> = Vec::new();
        for (vi, &v) in cone.iter().enumerate() {
            for &e in c.node(v).fanin() {
                if !index.contains_key(&signal_of(e)) {
                    fwd.push((cone_set[&c.edge(e).from()], vi));
                }
            }
        }
        let fwd = graphalgo::Csr::from_edges(cone.len(), &fwd);
        let order = graphalgo::topo_order_csr(&fwd).expect("cones are acyclic");
        Ok(TruthTable::from_fn(cut.signals.len(), |assignment| {
            let mut values: Vec<bool> = vec![false; cone.len()];
            for &vi in &order {
                let node = c.node(cone[vi]);
                let ins: Vec<bool> = node
                    .fanin()
                    .iter()
                    .map(|&e| match index.get(&signal_of(e)) {
                        Some(&i) => assignment & (1 << i) != 0,
                        None => values[cone_set[&c.edge(e).from()]],
                    })
                    .collect();
                values[vi] = node.function().expect("cone nodes are gates").eval(&ins);
            }
            values[cone_set[&root]]
        }))
    }

    fn random_bit(rng: &mut Rng64) -> Bit {
        [Bit::Zero, Bit::One, Bit::X][rng.below(3)]
    }

    /// A random acyclic circuit: PIs, then gates of arity 1–3 reading
    /// earlier nodes, some through register chains with random initial
    /// values, and fanins that may repeat.
    fn random_circuit(rng: &mut Rng64) -> Circuit {
        let mut c = Circuit::new("r");
        let mut nodes: Vec<NodeId> = (0..rng.range_usize(2, 5))
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        for g in 0..rng.range_usize(3, 24) {
            let arity = rng.range_usize(1, 4);
            let f = TruthTable::from_fn(arity, |_| rng.chance(0.5));
            let id = c.add_gate(format!("g{g}"), f).unwrap();
            for _ in 0..arity {
                let src = nodes[rng.below(nodes.len())];
                let chain = if rng.chance(0.25) {
                    (0..rng.range_usize(1, 3))
                        .map(|_| random_bit(rng))
                        .collect()
                } else {
                    Vec::new()
                };
                c.connect(src, id, chain).unwrap();
            }
            nodes.push(id);
        }
        c
    }

    /// A random cut of `root`'s cone: registered and PI fanins are always
    /// cut; a gate fanin is cut with probability 1/3, or when `sloppy`
    /// decides to drop it from the cut anyway (making the cut
    /// inconsistent when the dropped signal is a boundary).
    fn random_cut(rng: &mut Rng64, c: &Circuit, root: NodeId, sloppy: bool) -> Cut {
        let mut signals: Vec<CutSignal> = Vec::new();
        let mut seen = vec![root];
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            for &e in c.node(v).fanin() {
                let edge = c.edge(e);
                let boundary = edge.weight() > 0 || !c.node(edge.from()).is_gate();
                if boundary || rng.chance(1.0 / 3.0) {
                    let sig = CutSignal::tap(edge.from(), edge.ffs().to_vec());
                    let dropped = sloppy && rng.chance(0.2);
                    if !dropped && !signals.contains(&sig) {
                        signals.push(sig);
                    }
                } else if !seen.contains(&edge.from()) {
                    seen.push(edge.from());
                    stack.push(edge.from());
                }
            }
        }
        rng.shuffle(&mut signals);
        Cut { signals }
    }

    /// The same truth table over the cut's signals in cut order, or the
    /// same error.
    fn same_outcome(
        lut: &Result<(TruthTable, Vec<ExpNode>), GenerateError>,
        reference: &Result<TruthTable, GenerateError>,
        cut: &Cut,
    ) -> bool {
        match (lut, reference) {
            (Ok((x, inputs)), Ok(y)) => x == y && *inputs == leaves(cut),
            (Err(x), Err(y)) => x.to_string() == y.to_string(),
            _ => false,
        }
    }

    #[test]
    fn flowmap_luts_match_row_by_row_reference() {
        let mut rng = Rng64::new(0xC0DE);
        let (mut tables, mut inconsistent) = (0, 0);
        for case in 0..400 {
            let c = random_circuit(&mut rng);
            let gates: Vec<NodeId> = c.node_ids().filter(|&v| c.node(v).is_gate()).collect();
            let root = gates[rng.below(gates.len())];
            let cut = random_cut(&mut rng, &c, root, case % 4 == 3);
            let lut = flowmap_lut(&c, root, &cut);
            let slow = cone_function_reference(&c, root, &cut);
            assert!(
                same_outcome(&lut, &slow, &cut),
                "case {case}: {lut:?} vs {slow:?} for cut {cut:?}"
            );
            match lut {
                Ok(_) => tables += 1,
                Err(GenerateError::InconsistentCut { .. }) => inconsistent += 1,
                Err(e) => panic!("case {case}: unexpected {e}"),
            }
        }
        assert!(
            tables > 100 && inconsistent > 10,
            "{tables} / {inconsistent}"
        );
    }

    #[test]
    fn flowmap_lut_taps_and_repeated_reads_match_reference() {
        // g feeds the cone directly and through chains [0] and [1, X];
        // `a` is read twice by the same gate and once more by another.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g = c.add_gate("g", TruthTable::xor(2)).unwrap();
        let h = c.add_gate("h", TruthTable::mux()).unwrap();
        let n = c.add_gate("n", TruthTable::and(2)).unwrap();
        let root = c
            .add_gate("root", TruthTable::from_fn(3, |r| r % 3 == 1))
            .unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(b, g, vec![]).unwrap();
        c.connect(g, h, vec![Bit::Zero]).unwrap();
        c.connect(g, h, vec![Bit::One, Bit::X]).unwrap();
        c.connect(a, h, vec![]).unwrap();
        c.connect(a, n, vec![]).unwrap();
        c.connect(a, n, vec![]).unwrap();
        c.connect(h, root, vec![]).unwrap();
        c.connect(n, root, vec![]).unwrap();
        c.connect(g, root, vec![]).unwrap();
        let cut = Cut {
            signals: vec![
                CutSignal::tap(g, vec![Bit::One, Bit::X]),
                CutSignal::direct(a),
                CutSignal::tap(g, vec![Bit::Zero]),
                CutSignal::direct(g),
            ],
        };
        let (tt, inputs) = flowmap_lut(&c, root, &cut).unwrap();
        assert_eq!(tt.num_inputs(), 4);
        assert_eq!(inputs, leaves(&cut));
        assert_eq!(tt, cone_function_reference(&c, root, &cut).unwrap());
        // Dropping one tap chain leaves its register edge uncut.
        let partial = Cut {
            signals: vec![
                cut.signals[0].clone(),
                cut.signals[1].clone(),
                cut.signals[3].clone(),
            ],
        };
        let err = flowmap_lut(&c, root, &partial).unwrap_err();
        assert!(
            matches!(err, GenerateError::InconsistentCut { ref signal, .. } if signal == "g"),
            "{err}"
        );
        let reference = cone_function_reference(&c, root, &partial).unwrap_err();
        assert_eq!(err.to_string(), reference.to_string());
    }

    #[test]
    fn cone_too_wide_reported() {
        let c = two_block_circuit();
        let a = c.find("a").unwrap();
        let cut = Cut {
            signals: (0..=netlist::MAX_INPUTS)
                .map(|i| CutSignal::tap(a, vec![Bit::Zero; i]))
                .collect(),
        };
        assert!(matches!(
            flowmap_lut(&c, c.find("g1").unwrap(), &cut),
            Err(GenerateError::ConeTooWide { inputs, .. }) if inputs == netlist::MAX_INPUTS + 1
        ));
    }

    /// a, b -> g1 (AND) -> g2 (NOT) -> o  with a FF between g1 and g2.
    fn two_block_circuit() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(b, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![Bit::One]).unwrap();
        c.connect(g2, o, vec![]).unwrap();
        c
    }

    #[test]
    fn flowmap_lut_of_single_gate() {
        let c = two_block_circuit();
        let g1 = c.find("g1").unwrap();
        let cut = Cut {
            signals: vec![
                CutSignal::direct(c.find("a").unwrap()),
                CutSignal::direct(c.find("b").unwrap()),
            ],
        };
        assert_eq!(flowmap_lut(&c, g1, &cut).unwrap().0, TruthTable::and(2));
    }

    #[test]
    fn flowmap_lut_through_tap() {
        let c = two_block_circuit();
        let g2 = c.find("g2").unwrap();
        let cut = Cut {
            signals: vec![CutSignal::tap(c.find("g1").unwrap(), vec![Bit::One])],
        };
        assert_eq!(flowmap_lut(&c, g2, &cut).unwrap().0, TruthTable::not());
    }

    #[test]
    fn inconsistent_cut_reported() {
        let c = two_block_circuit();
        let g2 = c.find("g2").unwrap();
        // Wrong weight: claims a direct signal where a register sits.
        let cut = Cut {
            signals: vec![CutSignal::direct(c.find("g1").unwrap())],
        };
        assert!(matches!(
            flowmap_lut(&c, g2, &cut),
            Err(GenerateError::InconsistentCut { .. })
        ));
    }

    #[test]
    fn build_identity_mapping() {
        let c = two_block_circuit();
        let g1 = c.find("g1").unwrap();
        let g2 = c.find("g2").unwrap();
        let mut roots = HashMap::new();
        roots.insert(
            g1,
            Cut {
                signals: vec![
                    CutSignal::direct(c.find("a").unwrap()),
                    CutSignal::direct(c.find("b").unwrap()),
                ],
            },
        );
        roots.insert(
            g2,
            Cut {
                signals: vec![CutSignal::tap(g1, vec![Bit::One])],
            },
        );
        let mapped = generate_luts(&c, &roots, |_| 0, "mapped", false)
            .unwrap()
            .circuit;
        assert_eq!(mapped.num_gates(), 2);
        assert_eq!(mapped.ff_count_shared(), 1);
        assert!(netlist::exhaustive_equiv(&c, &mapped, 5)
            .unwrap()
            .is_equivalent());
        // A cut signal whose driver is no root is an inconsistent cut.
        roots.remove(&g1);
        assert!(matches!(
            generate_luts(&c, &roots, |_| 0, "mapped", false),
            Err(GenerateError::InconsistentCut { ref signal, .. }) if signal == "g1"
        ));
    }

    #[test]
    fn cone_collapse_two_gates() {
        // Merge a 2-gate comb cone into one LUT: NOT(AND(a, b)) = NAND.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(b, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g2, o, vec![]).unwrap();
        let cut = Cut {
            signals: vec![CutSignal::direct(a), CutSignal::direct(b)],
        };
        assert_eq!(flowmap_lut(&c, g2, &cut).unwrap().0, TruthTable::nand(2));
        let mut roots = HashMap::new();
        roots.insert(g2, cut);
        let mapped = generate_luts(&c, &roots, |_| 0, "m", false)
            .unwrap()
            .circuit;
        assert_eq!(mapped.num_gates(), 1);
        assert!(netlist::exhaustive_equiv(&c, &mapped, 3)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn reconvergent_cone_shared_input() {
        // g = XOR(a, NOT(a)) constant 1; cut = {a} used twice in the cone.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let n = c.add_gate("n", TruthTable::not()).unwrap();
        let g = c.add_gate("g", TruthTable::xor(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, n, vec![]).unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(n, g, vec![]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        let cut = Cut {
            signals: vec![CutSignal::direct(a)],
        };
        let (tt, _) = flowmap_lut(&c, g, &cut).unwrap();
        assert_eq!(tt.is_constant(), Some(true));
    }
}
