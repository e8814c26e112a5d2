//! Mapping generation and the FlowMap / FlowMap-frt flows.
//!
//! After labelling, the LUT network is generated FlowMap-style: a FIFO
//! seeded with all *visible* gates (gates driving POs or registers) pulls
//! in the gates named by each root's best cut, and [`generate_luts`]
//! collapses each root's cone with every root at lag 0, registers kept in
//! place — the generator TurboMap-frt uses too. `FlowMap-frt` then runs the
//! optimal forward-retiming post-pass of the paper's Section 4 baseline:
//! map each combinational block, re-stitch the registers, forward-retime
//! for minimum clock period, and compute the initial state by simulation.

use crate::cutenum::CutArena;
use crate::generate::{generate_luts, GenerateError};
use crate::label::{flowmap_labels_with, Labeling};
use netlist::{Circuit, NodeId};
use retiming::{retime_min_period_forward, MoveStats, RetimingError};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Result of combinational FlowMap mapping on a (possibly sequential)
/// circuit: every FF-bounded block mapped depth-optimally, registers kept
/// in place.
#[derive(Debug, Clone)]
pub struct FlowMapResult {
    /// The LUT network.
    pub circuit: Circuit,
    /// Number of K-LUTs.
    pub luts: usize,
    /// Mapping depth (max block depth = clock period before retiming).
    pub depth: u64,
    /// The labelling that produced the mapping.
    pub labeling: Labeling,
}

/// Errors from the FlowMap flows.
#[derive(Debug)]
pub enum FlowMapError {
    /// LUT network generation failed.
    Generate(GenerateError),
    /// Retiming post-pass failed.
    Retiming(RetimingError),
    /// Input circuit invalid.
    Netlist(netlist::NetlistError),
}

impl std::fmt::Display for FlowMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowMapError::Generate(e) => write!(f, "mapping: {e}"),
            FlowMapError::Retiming(e) => write!(f, "retiming: {e}"),
            FlowMapError::Netlist(e) => write!(f, "netlist: {e}"),
        }
    }
}

impl std::error::Error for FlowMapError {}

impl From<GenerateError> for FlowMapError {
    fn from(e: GenerateError) -> Self {
        FlowMapError::Generate(e)
    }
}

impl From<RetimingError> for FlowMapError {
    fn from(e: RetimingError) -> Self {
        FlowMapError::Retiming(e)
    }
}

impl From<netlist::NetlistError> for FlowMapError {
    fn from(e: netlist::NetlistError) -> Self {
        FlowMapError::Netlist(e)
    }
}

/// Gates that must be LUT roots regardless of cuts: drivers of POs and of
/// register chains (their signals are externally visible).
fn seed_roots(c: &Circuit) -> Vec<NodeId> {
    let mut seeds = Vec::new();
    for v in c.gate_ids() {
        let drives_visible = c.node(v).fanout().iter().any(|&e| {
            let edge = c.edge(e);
            edge.weight() > 0 || c.node(edge.to()).is_output()
        });
        if drives_visible {
            seeds.push(v);
        }
    }
    seeds
}

/// Selects the LUT roots: a FIFO from the gates among `seeds` in which
/// every gate that a chosen cut reads becomes a root itself.
/// `cut_of(v, read)` returns `v`'s cut after calling `read` on the driver
/// of each of its leaves.
///
/// # Errors
///
/// The first error `cut_of` returns.
pub fn select_roots<C, E>(
    c: &Circuit,
    seeds: impl IntoIterator<Item = NodeId>,
    mut cut_of: impl FnMut(NodeId, &mut dyn FnMut(NodeId)) -> Result<C, E>,
) -> Result<HashMap<NodeId, C>, E> {
    let mut roots = HashMap::new();
    let gate = |u: &NodeId| c.node(*u).is_gate();
    let mut queue: VecDeque<NodeId> = seeds.into_iter().filter(gate).collect();
    while let Some(v) = queue.pop_front() {
        if let Entry::Vacant(slot) = roots.entry(v) {
            slot.insert(cut_of(v, &mut |u| {
                if gate(&u) {
                    queue.push_back(u);
                }
            })?);
        }
    }
    Ok(roots)
}

/// Depth-optimal K-LUT mapping of every combinational block (registers
/// stay in place). The input must be K-bounded and validated.
///
/// # Errors
///
/// Propagates construction errors.
///
/// # Panics
///
/// Panics if the circuit is not K-bounded (decompose first).
pub fn flowmap(c: &Circuit, k: usize) -> Result<FlowMapResult, FlowMapError> {
    flowmap_with(c, &CutArena::combinational(c, k))
}

/// [`flowmap`] labelling from the cone-weight-0 cuts of an arena already
/// enumerated on `c`, at the arena's `K` — a TurboMap context's, whose
/// round 0 is exactly what [`flowmap`] enumerates.
fn flowmap_with(c: &Circuit, arena: &CutArena) -> Result<FlowMapResult, FlowMapError> {
    let labeling = {
        let _s = engine::trace::span1("flowmap_label", "k", arena.k() as u64);
        flowmap_labels_with(c, arena)
    };
    let _s = engine::trace::span("flowmap_generate");
    let roots = select_roots(c, seed_roots(c), |v, read| {
        let cut = &labeling.cuts[&v];
        cut.signals.iter().for_each(|s| read(s.node));
        Ok::<_, GenerateError>(cut)
    })?;
    let name = format!("{}_flowmap", c.name());
    let mapped = generate_luts(c, &roots, |_| 0, &name, false)?.circuit;
    let depth = mapped.clock_period()?;
    Ok(FlowMapResult {
        luts: mapped.num_gates(),
        depth,
        circuit: mapped,
        labeling,
    })
}

/// Result of the full FlowMap-frt baseline.
#[derive(Debug, Clone)]
pub struct FlowMapFrtResult {
    /// Final LUT network after forward retiming, with initial state.
    pub circuit: Circuit,
    /// Achieved clock period.
    pub period: u64,
    /// Number of K-LUTs.
    pub luts: usize,
    /// FF count (register sharing).
    pub ffs: usize,
    /// Unit-move statistics of the retiming step.
    pub moves: MoveStats,
}

/// The FlowMap-frt baseline of the paper's Section 4: FlowMap each
/// combinational block, merge with the original FFs, then forward-retime
/// to minimise the clock period (initial state by simulation).
///
/// # Errors
///
/// Propagates mapping/retiming errors (forward retiming itself cannot fail
/// on a valid mapping).
///
/// # Panics
///
/// Panics if the circuit is not K-bounded (decompose first).
pub fn flowmap_frt(c: &Circuit, k: usize) -> Result<FlowMapFrtResult, FlowMapError> {
    flowmap_frt_with(c, &CutArena::combinational(c, k))
}

/// [`flowmap_frt`] on the cone-weight-0 cuts of an arena already
/// enumerated on `c` — a TurboMap context's, whose round 0 is exactly
/// what [`flowmap_frt`] enumerates.
///
/// # Errors
///
/// Propagates mapping/retiming errors.
///
/// # Panics
///
/// Panics if the circuit is not K-bounded (decompose first).
pub fn flowmap_frt_with(c: &Circuit, arena: &CutArena) -> Result<FlowMapFrtResult, FlowMapError> {
    let mapped = flowmap_with(c, arena)?;
    let res = retime_min_period_forward(&mapped.circuit)?;
    Ok(FlowMapFrtResult {
        period: res.period,
        luts: res.circuit.num_gates(),
        ffs: res.circuit.ff_count_shared(),
        circuit: res.circuit,
        moves: res.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{exhaustive_equiv, Bit, TruthTable};

    fn sequential_sample() -> Circuit {
        // Two comb blocks around one FF, plus feedback.
        let mut c = Circuit::new("seq");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::xor(2)).unwrap();
        let g3 = c.add_gate("g3", TruthTable::or(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(b, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g3, g2, vec![Bit::Zero]).unwrap(); // feedback through FF
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(b, g3, vec![]).unwrap();
        c.connect(g3, o, vec![]).unwrap();
        c
    }

    #[test]
    fn flowmap_preserves_behaviour() {
        let c = sequential_sample();
        let res = flowmap(&c, 5).unwrap();
        assert!(exhaustive_equiv(&c, &res.circuit, 4)
            .unwrap()
            .is_equivalent());
        // K=5 fits each block in one LUT per visible gate.
        assert!(res.luts <= c.num_gates());
        assert!(res.depth <= c.clock_period().unwrap());
    }

    #[test]
    fn flowmap_frt_equivalent_and_no_slower() {
        let c = sequential_sample();
        let res = flowmap_frt(&c, 5).unwrap();
        assert!(exhaustive_equiv(&c, &res.circuit, 5)
            .unwrap()
            .is_equivalent());
        assert!(res.period <= c.clock_period().unwrap());
        assert_eq!(res.circuit.clock_period().unwrap(), res.period);
    }

    #[test]
    fn frt_moves_register_forward() {
        // FF ahead of a deep comb chain: FlowMap alone leaves period 2
        // (with K=2), forward retiming balances it to 1... construct:
        // a -FF-> g1 -> g2 (2 LUTs at K=2 over distinct inputs).
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let d = c.add_input("d").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::or(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![Bit::One]).unwrap();
        c.connect(b, g1, vec![Bit::One]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(d, g2, vec![]).unwrap();
        c.connect(g2, o, vec![]).unwrap();
        let res = flowmap_frt(&c, 2).unwrap();
        assert_eq!(res.period, 1);
        assert!(res.moves.forward_moves > 0);
        assert!(exhaustive_equiv(&c, &res.circuit, 4)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn seed_roots_cover_visible_gates() {
        let c = sequential_sample();
        let seeds = seed_roots(&c);
        // g3 drives the PO and the FF; g2 drives only g3 combinationally...
        // g2 drives g3 with weight 0, so only g3 is a seed... g3 drives
        // both the FF edge (to g2) and the PO.
        assert!(seeds.contains(&c.find("g3").unwrap()));
        assert!(!seeds.contains(&c.find("g1").unwrap()));
    }

    #[test]
    fn pure_combinational_mapping() {
        let mut c = Circuit::new("comb");
        let ins: Vec<NodeId> = (0..6)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        // Three 2-input ANDs into an OR3-ish structure of 2-input gates.
        let a1 = c.add_gate("a1", TruthTable::and(2)).unwrap();
        let a2 = c.add_gate("a2", TruthTable::and(2)).unwrap();
        let a3 = c.add_gate("a3", TruthTable::and(2)).unwrap();
        let o1 = c.add_gate("or1", TruthTable::or(2)).unwrap();
        let o2 = c.add_gate("or2", TruthTable::or(2)).unwrap();
        let po = c.add_output("po").unwrap();
        c.connect(ins[0], a1, vec![]).unwrap();
        c.connect(ins[1], a1, vec![]).unwrap();
        c.connect(ins[2], a2, vec![]).unwrap();
        c.connect(ins[3], a2, vec![]).unwrap();
        c.connect(ins[4], a3, vec![]).unwrap();
        c.connect(ins[5], a3, vec![]).unwrap();
        c.connect(a1, o1, vec![]).unwrap();
        c.connect(a2, o1, vec![]).unwrap();
        c.connect(o1, o2, vec![]).unwrap();
        c.connect(a3, o2, vec![]).unwrap();
        c.connect(o2, po, vec![]).unwrap();
        let res = flowmap(&c, 6).unwrap();
        // 6 inputs fit one 6-LUT.
        assert_eq!(res.luts, 1);
        assert_eq!(res.depth, 1);
        assert!(exhaustive_equiv(&c, &res.circuit, 1)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn lut_count_at_most_gate_count() {
        let c = sequential_sample();
        for k in 2..=6 {
            let res = flowmap(&c, k).unwrap();
            assert!(res.luts <= c.num_gates(), "k={k}");
            assert!(
                exhaustive_equiv(&c, &res.circuit, 4)
                    .unwrap()
                    .is_equivalent(),
                "k={k}"
            );
        }
    }
}
