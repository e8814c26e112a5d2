//! Mapping generation (Section 3.3).
//!
//! Given the final labels and one K-cut per gate, [`collect_roots`]
//! selects the LUT roots: a FIFO seeded with the PO drivers, in which
//! every gate named by a chosen cut becomes a root itself. Root `v` is
//! retimed by `Ɍ(v) = ⌈L^s(v)/Φ⌉ − 1` and each instance `u^w` of its cone
//! by `Ɍ(v) + w` (Theorem 6), so every intra-cone edge ends up with no
//! register. [`generate_mapping`] then builds the LUT network in three
//! steps, each its own trace span:
//!
//! 1. **`cone_walk`** — each root's expanded cone is walked once over its
//!    `(node, register count)` instances. The LUT's function is the cone
//!    function over the expanded cut; its inputs are the cut signals the
//!    cone reads, in first-read order.
//! 2. **`initial_states`** — every LUT input's register chain after the
//!    retiming. When no instance has a positive lag, as always for
//!    TurboMap-frt, the chains come from one forward simulation pass over
//!    the original circuit ([`ForwardValues`]): the `k`-th forward move at
//!    a node emits its value at cycle `k`. A positive lag (the general
//!    TurboMap baseline) needs backward justification, which can fail;
//!    then the cones are instantiated as real gates in a node-duplicated
//!    network H (`expand_network`), and the retiming engine's unit moves
//!    over H supply the chains. Failed justification is reported to the
//!    caller (the paper's `⋆` rows).
//! 3. **`emit_luts`** — one K-LUT per root. Reads of the same signal merge
//!    into one LUT input, their chains merged bit by bit.

use crate::cutsearch::ExpCut;
use crate::expand::ExpNode;
use flowmap::cutenum::ConeWalk;
use flowmap::{cone_table, MapError, Operand};
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
    /// A cone reached a boundary not listed in its cut (internal error).
    InconsistentCone {
        /// The root whose cone broke.
        root: String,
    },
    /// Initial state computation failed (only possible for general
    /// retiming with backward moves — the paper's `⋆` case).
    InitialState(RetimingError),
    /// Other retiming error (illegal retiming — internal error).
    Retiming(RetimingError),
    /// Netlist construction error.
    Netlist(netlist::NetlistError),
    /// LUT collapse error.
    Collapse(MapError),
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenerateError::MissingCut { node } => write!(f, "no cut stored for `{node}`"),
            GenerateError::InconsistentCone { root } => {
                write!(f, "cone of `{root}` crossed an uncut boundary")
            }
            GenerateError::InitialState(e) => write!(f, "initial state: {e}"),
            GenerateError::Retiming(e) => write!(f, "retiming: {e}"),
            GenerateError::Netlist(e) => write!(f, "netlist: {e}"),
            GenerateError::Collapse(e) => write!(f, "collapse: {e}"),
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

/// Selects the LUT roots: FIFO from the PO drivers, pulling in every gate
/// named by a root's cut (§3.3 step 1).
///
/// # Errors
///
/// [`GenerateError::MissingCut`] when a selected gate has no cut.
pub fn collect_roots(
    c: &Circuit,
    cuts: &[Option<ExpCut>],
) -> Result<HashMap<NodeId, ExpCut>, GenerateError> {
    let po_drivers = c
        .outputs()
        .iter()
        .map(|&po| c.edge(c.node(po).fanin()[0]).from());
    flowmap::select_roots(c, po_drivers, |v, read| {
        let cut = cuts[v.index()]
            .clone()
            .ok_or_else(|| GenerateError::MissingCut {
                node: c.node(v).name().to_string(),
            })?;
        cut.signals.iter().for_each(|s| read(s.node));
        Ok(cut)
    })
}

/// Generates the final LUT network from roots, cuts and per-root retiming
/// values `rr(v) = Ɍ(v)` (Leiserson–Saxe sign: ≤ 0 pulls registers
/// forward).
///
/// When `allow_state_loss` is set and backward justification fails, the
/// generation retries with all initial values erased to `X` and flags the
/// result (`initial_state_lost`) instead of failing — this reproduces the
/// paper's `⋆` outcomes while still reporting structure and timing.
///
/// # Errors
///
/// See [`GenerateError`].
pub fn generate_mapping(
    c: &Circuit,
    roots: &HashMap<NodeId, ExpCut>,
    rr: &HashMap<NodeId, i64>,
    name: &str,
    allow_state_loss: bool,
) -> Result<GeneratedMapping, GenerateError> {
    let _span = engine::trace::span1("generate_mapping", "roots", roots.len() as u64);
    let cones = Cones::walk(c, roots, rr)?;
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

/// Every root's expanded cone, walked once: what both initial-state paths
/// and the emission read.
struct Cones {
    /// The roots in ascending order.
    luts: Vec<Lut>,
    /// Cone instances `u^w`, root by root, in walk order (each root's
    /// slots).
    inst: Vec<ExpNode>,
    /// Per instance fanin, instance by instance in fanin order: the cone
    /// instance (by slot) or the LUT input that it reads.
    ops: Vec<Operand>,
    /// LUT inputs `u^w`, root by root, in first-read order.
    inputs: Vec<ExpNode>,
    /// Per node: its lag when it is a root.
    lag: Vec<Option<i64>>,
    /// True when no instance has a positive lag.
    forward_only: bool,
}

impl Cones {
    fn walk(
        c: &Circuit,
        roots: &HashMap<NodeId, ExpCut>,
        rr: &HashMap<NodeId, i64>,
    ) -> Result<Cones, GenerateError> {
        let _span = engine::trace::span("cone_walk");
        let mut root_ids: Vec<NodeId> = roots.keys().copied().collect();
        root_ids.sort_unstable();
        let mut lag = vec![None; c.num_nodes()];
        for &v in &root_ids {
            lag[v.index()] = Some(*rr.get(&v).expect("retiming value for every root"));
        }
        let mut cones = Cones {
            luts: Vec::with_capacity(root_ids.len()),
            inst: Vec::new(),
            ops: Vec::new(),
            inputs: Vec::new(),
            forward_only: true,
            lag,
        };
        let mut walk = ConeWalk::default();
        // Per slot of the current cone: its instance and where its fanin
        // targets start in `reads`: a slot, or the cut signal read.
        let mut slots: Vec<(ExpNode, usize)> = Vec::new();
        let mut reads: Vec<Result<usize, ExpNode>> = Vec::new();
        for &v in &root_ids {
            let cut = &roots[&v];
            slots.clear();
            reads.clear();
            walk.start(c, v);
            while let Some((x, node, weight)) = walk.pop() {
                slots.resize(slots.len().max(x + 1), (ExpNode { node, weight }, 0));
                slots[x] = (ExpNode { node, weight }, reads.len());
                for &e in c.node(node).fanin() {
                    let (u, w) = (c.edge(e).from(), weight + c.edge(e).weight() as u64);
                    let t = ExpNode { node: u, weight: w };
                    let gate = c.node(u).is_gate();
                    reads.push(match cut.signals.contains(&t) {
                        true if !gate || cones.lag[u.index()].is_some() => Err(t),
                        false if gate => Ok(walk.visit(u, w)),
                        _ => {
                            return Err(GenerateError::InconsistentCone {
                                root: c.node(v).name().to_string(),
                            })
                        }
                    });
                }
            }
            // Number the inputs in slot order, as the cone reads them.
            let lag = cones.lag[v.index()].expect("a root");
            let (inst0, ops0, in0) = (cones.inst.len(), cones.ops.len(), cones.inputs.len());
            for &(x, start) in &slots {
                cones.forward_only &= lag + x.weight as i64 <= 0;
                cones.inst.push(x);
                for &read in &reads[start..start + c.node(x.node).fanin().len()] {
                    cones.ops.push(match read {
                        Ok(slot) => Operand::Gate(slot),
                        Err(t) => match cones.inputs[in0..].iter().position(|&i| i == t) {
                            Some(i) => Operand::Input(i),
                            None => {
                                cones.inputs.push(t);
                                Operand::Input(cones.inputs.len() - in0 - 1)
                            }
                        },
                    });
                }
            }
            let inputs = cones.inputs.len() - in0;
            if inputs > netlist::MAX_INPUTS {
                return Err(GenerateError::Collapse(MapError::ConeTooWide {
                    root: c.node(v).name().to_string(),
                    inputs,
                }));
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
/// any of its instances makes.
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
    // (edge, moves at its source, moves at its sink); a PI never moves.
    let taps: Vec<(EdgeId, u64, u64)> = (cones.taps(c).into_iter())
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
    let chains = taps
        .iter()
        .map(|&(e, m_from, m_to)| values.chain(c, e, m_from, m_to));
    engine::telemetry::count(engine::telemetry::Counter::ForwardMoves, moves);
    Ok(InitialStates {
        chains: chains.map(|chain| chain.expect("checked above")).collect(),
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
        driver[pi.index()] = Some(h.add_input(c.node(pi).name().to_string())?);
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
        let new_po = h.add_output(c.node(po).name().to_string())?;
        let edge = c.edge(c.node(po).fanin()[0]);
        let src = driver[edge.from().index()].expect("checked by the walk");
        taps.push(h.connect(src, new_po, edge.ffs().to_vec())?);
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
        id[pi.index()] = Some(out.add_input(c.node(pi).name().to_string())?);
    }
    for lut in &cones.luts {
        let f = lut.function.clone();
        id[lut.root.index()] = Some(out.add_gate(c.node(lut.root).name().to_string(), f)?);
    }
    let mut chains = states.chains.into_iter();
    for lut in &cones.luts {
        let mut merged: Vec<Option<Vec<Bit>>> = vec![None; lut.inputs.len()];
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
        for (input, chain) in cones.inputs[lut.inputs.clone()].iter().zip(merged) {
            let src = id[input.node.index()].expect("checked by the walk");
            out.connect(src, lut_id, chain.expect("every input is read"))?;
        }
    }
    for (&po, chain) in c.outputs().iter().zip(chains) {
        let new_po = out.add_output(c.node(po).name().to_string())?;
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
    use netlist::{exhaustive_equiv, Bit, TruthTable};

    /// [`generate_mapping`] with the chains always from unit moves over the
    /// node-duplicated network H, even when no lag is positive: the
    /// reference for the one-pass path.
    fn generate_expanded(
        c: &Circuit,
        roots: &HashMap<NodeId, ExpCut>,
        rr: &HashMap<NodeId, i64>,
        name: &str,
        allow_state_loss: bool,
    ) -> Result<GeneratedMapping, GenerateError> {
        let cones = Cones::walk(c, roots, rr)?;
        let states = expanded_states(c, &cones, name, allow_state_loss)?;
        emit_luts(c, &cones, states, name)
    }

    /// Generates by both initial-state paths, which must give the same
    /// network, moves and flag, or the same kind of error; returns the
    /// one-pass path's result.
    fn generate_both(
        c: &Circuit,
        roots: &HashMap<NodeId, ExpCut>,
        rr: &HashMap<NodeId, i64>,
        name: &str,
        allow_state_loss: bool,
    ) -> Result<GeneratedMapping, GenerateError> {
        let direct = generate_mapping(c, roots, rr, name, allow_state_loss);
        let reference = generate_expanded(c, roots, rr, name, allow_state_loss);
        match (&direct, &reference) {
            (Ok(d), Ok(r)) => {
                assert_eq!(d.circuit, r.circuit);
                assert_eq!(d.moves, r.moves);
                assert_eq!(d.initial_state_lost, r.initial_state_lost);
            }
            (Err(d), Err(r)) => {
                assert_eq!(std::mem::discriminant(d), std::mem::discriminant(r));
            }
            _ => panic!("paths disagree: {direct:?} against {reference:?}"),
        }
        direct
    }

    /// i1 -FF-> g1 -> g2 -> o with a side PI into g2.
    fn sample() -> Circuit {
        let mut c = Circuit::new("s");
        let i1 = c.add_input("i1").unwrap();
        let i2 = c.add_input("i2").unwrap();
        let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i1, g1, vec![Bit::One]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(i2, g2, vec![]).unwrap();
        c.connect(g2, o, vec![]).unwrap();
        c
    }

    #[test]
    fn identity_cuts_reproduce_circuit() {
        let c = sample();
        let g1 = c.find("g1").unwrap();
        let g2 = c.find("g2").unwrap();
        let i1 = c.find("i1").unwrap();
        let i2 = c.find("i2").unwrap();
        let mut roots = HashMap::new();
        roots.insert(
            g1,
            ExpCut {
                signals: vec![ExpNode {
                    node: i1,
                    weight: 1,
                }],
            },
        );
        roots.insert(
            g2,
            ExpCut {
                signals: vec![
                    ExpNode {
                        node: g1,
                        weight: 0,
                    },
                    ExpNode {
                        node: i2,
                        weight: 0,
                    },
                ],
            },
        );
        let rr: HashMap<NodeId, i64> = [(g1, 0), (g2, 0)].into_iter().collect();
        let gen = generate_both(&c, &roots, &rr, "ident", false).unwrap();
        assert!(!gen.initial_state_lost);
        assert_eq!(gen.circuit.num_gates(), 2);
        assert!(exhaustive_equiv(&c, &gen.circuit, 5)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn outputs_driven_by_inputs_need_no_root() {
        let mut c = sample();
        let i2 = c.find("i2").unwrap();
        let o2 = c.add_output("o2").unwrap();
        c.connect(i2, o2, vec![Bit::One]).unwrap();
        let (g2, i1) = (c.find("g2").unwrap(), c.find("i1").unwrap());
        let mut cuts = vec![None; c.num_nodes()];
        cuts[g2.index()] = Some(ExpCut {
            signals: vec![
                ExpNode {
                    node: i1,
                    weight: 1,
                },
                ExpNode {
                    node: i2,
                    weight: 0,
                },
            ],
        });
        let roots = collect_roots(&c, &cuts).unwrap();
        assert_eq!(roots.keys().collect::<Vec<_>>(), [&g2]);
        let rr: HashMap<NodeId, i64> = [(g2, 0)].into_iter().collect();
        let gen = generate_both(&c, &roots, &rr, "pi_po", false).unwrap();
        assert!(gen.circuit.find("g1").is_none());
        assert!(exhaustive_equiv(&c, &gen.circuit, 5)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn forward_retiming_with_cone_absorb() {
        // One LUT absorbing the register: cut {i1^1, i2^0}, Ɍ(g2) = -1
        // would be illegal (i2 has no register)... instead absorb g1 into
        // g2's LUT with the register staying on the cut signal i1^1:
        // Ɍ(g2) = 0.
        let c = sample();
        let g2 = c.find("g2").unwrap();
        let i1 = c.find("i1").unwrap();
        let i2 = c.find("i2").unwrap();
        let mut roots = HashMap::new();
        roots.insert(
            g2,
            ExpCut {
                signals: vec![
                    ExpNode {
                        node: i1,
                        weight: 1,
                    },
                    ExpNode {
                        node: i2,
                        weight: 0,
                    },
                ],
            },
        );
        let rr: HashMap<NodeId, i64> = [(g2, 0)].into_iter().collect();
        let gen = generate_both(&c, &roots, &rr, "absorb", false).unwrap();
        assert_eq!(gen.circuit.num_gates(), 1);
        assert_eq!(gen.circuit.ff_count_shared(), 1);
        assert!(exhaustive_equiv(&c, &gen.circuit, 5)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn forward_retiming_pulls_register_through_lut() {
        // Root g1 with cut {i1^1} and Ɍ(g1) = -1: the register moves to
        // g1's output, initial value = NOT(1) = 0.
        let c = sample();
        let g1 = c.find("g1").unwrap();
        let g2 = c.find("g2").unwrap();
        let i1 = c.find("i1").unwrap();
        let i2 = c.find("i2").unwrap();
        let mut roots = HashMap::new();
        roots.insert(
            g1,
            ExpCut {
                signals: vec![ExpNode {
                    node: i1,
                    weight: 1,
                }],
            },
        );
        roots.insert(
            g2,
            ExpCut {
                signals: vec![
                    ExpNode {
                        node: g1,
                        weight: 0,
                    },
                    ExpNode {
                        node: i2,
                        weight: 0,
                    },
                ],
            },
        );
        // Ɍ(g1) = -1: register through g1; g2's cut signal (g1, 0)
        // becomes weight 0 + 0 - (-1) = 1 in the final network.
        let rr: HashMap<NodeId, i64> = [(g1, -1), (g2, 0)].into_iter().collect();
        let gen = generate_both(&c, &roots, &rr, "pull", false).unwrap();
        assert!(gen.moves.forward_moves > 0);
        let g1_new = gen.circuit.find("g1").unwrap();
        let out_edge = gen.circuit.node(g1_new).fanout()[0];
        assert_eq!(gen.circuit.edge(out_edge).ffs(), &[Bit::Zero]);
        assert!(exhaustive_equiv(&c, &gen.circuit, 5)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn duplicated_cone_instances() {
        // g1 feeds two roots; both absorb g1 → node duplication. The
        // mapping has 2 LUTs and remains equivalent.
        let mut c = Circuit::new("dup");
        let i1 = c.add_input("i1").unwrap();
        let i2 = c.add_input("i2").unwrap();
        let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
        let p = c.add_gate("p", TruthTable::and(2)).unwrap();
        let q = c.add_gate("q", TruthTable::or(2)).unwrap();
        let o1 = c.add_output("o1").unwrap();
        let o2 = c.add_output("o2").unwrap();
        c.connect(i1, g1, vec![]).unwrap();
        c.connect(g1, p, vec![]).unwrap();
        c.connect(i2, p, vec![]).unwrap();
        c.connect(g1, q, vec![]).unwrap();
        c.connect(i2, q, vec![]).unwrap();
        c.connect(p, o1, vec![]).unwrap();
        c.connect(q, o2, vec![]).unwrap();
        let cut_for = |_root: NodeId| ExpCut {
            signals: vec![
                ExpNode {
                    node: i1,
                    weight: 0,
                },
                ExpNode {
                    node: i2,
                    weight: 0,
                },
            ],
        };
        let mut roots = HashMap::new();
        roots.insert(p, cut_for(p));
        roots.insert(q, cut_for(q));
        let rr: HashMap<NodeId, i64> = [(p, 0), (q, 0)].into_iter().collect();
        let gen = generate_both(&c, &roots, &rr, "dup", false).unwrap();
        assert_eq!(gen.circuit.num_gates(), 2);
        assert!(exhaustive_equiv(&c, &gen.circuit, 3)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn state_loss_flagged_for_general_retiming() {
        // Backward retiming over a constant-0 gate with a 1-valued
        // register is unjustifiable: with allow_state_loss the structure
        // is still produced, flagged.
        let mut c = Circuit::new("bk");
        let i1 = c.add_input("i1").unwrap();
        let g = c.add_gate("g", TruthTable::const_zero(1)).unwrap();
        let t = c.add_gate("t", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i1, g, vec![]).unwrap();
        c.connect(g, t, vec![Bit::One]).unwrap();
        c.connect(t, o, vec![]).unwrap();
        let mut roots = HashMap::new();
        roots.insert(
            g,
            ExpCut {
                signals: vec![ExpNode {
                    node: i1,
                    weight: 0,
                }],
            },
        );
        roots.insert(
            t,
            ExpCut {
                signals: vec![ExpNode { node: g, weight: 1 }],
            },
        );
        // Ɍ(g) = +1: backward move, must justify 1 through const-0 → ⋆.
        let rr: HashMap<NodeId, i64> = [(g, 1), (t, 0)].into_iter().collect();
        assert!(matches!(
            generate_both(&c, &roots, &rr, "bk", false),
            Err(GenerateError::InitialState(_))
        ));
        let gen = generate_both(&c, &roots, &rr, "bk2", true).unwrap();
        assert!(gen.initial_state_lost);
        assert_eq!(gen.circuit.num_gates(), 2);
    }

    /// The least Φ in `[1, upper]` that `feasible` accepts; `upper` must be
    /// accepted.
    fn least_feasible(upper: u64, feasible: impl Fn(u64) -> bool) -> u64 {
        let (mut lo, mut hi) = (1, upper);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if feasible(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Both paths on the roots of `cuts` at Φ, retimed by
    /// `Ɍ(v) = ⌈l(v)/Φ⌉ − 1` as the driver does: byte-identical BLIF, the
    /// same moves and `⋆` flag. Returns the one-pass result.
    fn table1_paths(
        c: &Circuit,
        cuts: &[Option<ExpCut>],
        ls: &[i64],
        phi: u64,
        general: bool,
    ) -> GeneratedMapping {
        let roots = collect_roots(c, cuts).unwrap();
        let phi = phi as i64;
        let rr: HashMap<_, _> = roots
            .keys()
            .map(|&v| (v, (ls[v.index()] + phi - 1).div_euclid(phi) - 1))
            .collect();
        let direct = generate_mapping(c, &roots, &rr, c.name(), general).unwrap();
        let reference = generate_expanded(c, &roots, &rr, c.name(), general).unwrap();
        let what = format!("{} Φ={phi} general={general}", c.name());
        assert_eq!(
            blifio::write_circuit(&direct.circuit),
            blifio::write_circuit(&reference.circuit),
            "{what}"
        );
        assert_eq!(direct.moves, reference.moves, "{what}");
        assert_eq!(
            direct.initial_state_lost, reference.initial_state_lost,
            "{what}"
        );
        direct
    }

    /// The one-pass path against the node-duplicated network on all 18
    /// Table-1 circuits, at each algorithm's least feasible Φ: TurboMap-frt
    /// and every forward-only TurboMap row match the reference; scf's
    /// TurboMap row is the one that moves registers backward, so the
    /// reference is its only path, with its 13 justified moves and no `⋆`.
    #[test]
    fn one_pass_generation_matches_expanded_network_on_table1() {
        let opts = crate::Options::default();
        let presets = workloads::presets();
        assert_eq!(presets.len(), 18);
        let mut backward_rows = Vec::new();
        for p in &presets {
            let c = crate::prepare(&workloads::build_preset(p), opts.k).unwrap();
            let frt = crate::FrtContext::new(&c, opts.k, opts.weight_horizon);
            let upper = flowmap::flowmap_frt_with(&c, frt.cut_arena())
                .unwrap()
                .period;
            let phi = least_feasible(upper.max(1), |phi| frt.check(phi).feasible);
            let labels = frt.check(phi).labels;
            let cuts = frt.final_cuts(&labels, phi);
            let mapped = table1_paths(&c, &cuts, &labels.ls, phi, false);
            assert_eq!(mapped.moves.backward_moves, 0, "{}", p.name);
            drop(frt);

            let general = crate::GeneralContext::new(&c, opts.k, opts.general_horizon);
            let phi = least_feasible(upper.max(1), |phi| general.check(phi).feasible);
            let labels = general.check(phi).labels;
            let cuts = general.final_cuts(&labels, phi);
            let mapped = table1_paths(&c, &cuts, &labels, phi, true);
            if mapped.moves.backward_moves > 0 {
                let row = (
                    p.name,
                    mapped.moves.backward_moves,
                    mapped.initial_state_lost,
                );
                backward_rows.push(row);
            }
        }
        assert_eq!(backward_rows, [("scf", 13, false)]);
    }
}
