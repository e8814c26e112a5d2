//! Backward-retiming preprocessing: push registers toward the primary
//! inputs as far as initial states can be justified.
//!
//! Section 5 of the paper proposes a methodology enabled by TurboMap-frt:
//! since mapping with *forward* retiming is solved optimally afterwards, a
//! separate preprocessing step may move registers **backward** (toward the
//! PIs) as aggressively as it likes — enlarging the forward solution space —
//! "as long as the equivalent initial states can be computed, without taking
//! into consideration the impact on the clock period".
//!
//! [`push_registers_backward`] implements that preprocessing greedily: in
//! reverse topological order it performs backward unit moves wherever every
//! fanout edge carries a register, the register values agree, and the gate
//! function can justify them; per-node movement is capped by the maximum
//! backward retiming value (min path weight to any PO) so the loop
//! terminates even on register-heavy cycles.

use crate::moves::try_move_backward;
use crate::spec::Retiming;
use crate::RetimingError;
use netlist::{Circuit, NodeId};

/// Outcome statistics of a backward push.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PushBackStats {
    /// Backward unit moves performed.
    pub moves: usize,
    /// Moves skipped because fanout register values conflicted.
    pub conflicts: usize,
    /// Moves skipped because the gate could not justify the value.
    pub unjustifiable: usize,
    /// Rounds executed.
    pub rounds: usize,
}

/// Maximum backward retiming value per node: the minimum path weight from
/// the node to any PO (the dual of `frt(v)`).
pub fn max_backward_retiming_values(c: &Circuit) -> Vec<u64> {
    // Dijkstra on the reversed graph from the POs.
    let n = c.num_nodes();
    let redges: Vec<(usize, usize, u64)> = c
        .edge_ids()
        .map(|e| {
            let edge = c.edge(e);
            (edge.to().index(), edge.from().index(), edge.weight() as u64)
        })
        .collect();
    let radj = graphalgo::WeightedCsr::from_edges(n, &redges);
    let sources: Vec<usize> = c.outputs().iter().map(|v| v.index()).collect();
    graphalgo::dijkstra_csr(&radj, &sources)
        .into_iter()
        .map(|d| d.unwrap_or(0)) // nodes feeding no PO cannot move backward
        .collect()
}

/// Pushes registers backward (toward the PIs) wherever their initial
/// values can be justified. Returns the rewritten circuit, the implied
/// retiming (positive values) and statistics.
///
/// `max_rounds` bounds the number of reverse-topological sweeps; each round
/// performs at least one move or the loop stops, so the preprocessing
/// always terminates.
pub fn push_registers_backward(
    c: &Circuit,
    max_rounds: usize,
) -> (Circuit, Retiming, PushBackStats) {
    let mut out = c.clone();
    let mut stats = PushBackStats::default();
    let mut retiming = Retiming::zero(c);
    let brt = max_backward_retiming_values(c);
    // Reverse topological order of the combinational subgraph: consumers
    // first, so a register freed by a move can cascade within one round.
    let order: Vec<NodeId> = match c.comb_topo_order() {
        Ok(mut o) => {
            o.reverse();
            o
        }
        Err(_) => return (out, retiming, stats),
    };
    for _ in 0..max_rounds {
        stats.rounds += 1;
        let mut moved_this_round = false;
        for &v in &order {
            if !out.node(v).is_gate() {
                continue;
            }
            loop {
                if retiming.get(v) as u64 >= brt[v.index()] {
                    break;
                }
                // A gate without fanout never gets here: it reaches no
                // PO, so its `brt` cap is 0.
                match try_move_backward(&mut out, v) {
                    Ok(true) => {
                        retiming.set(v, retiming.get(v) + 1);
                        stats.moves += 1;
                        moved_this_round = true;
                    }
                    Ok(false) => break,
                    Err(RetimingError::ConflictingFanoutValues { .. }) => {
                        stats.conflicts += 1;
                        break;
                    }
                    Err(_) => {
                        stats.unjustifiable += 1;
                        break;
                    }
                }
            }
        }
        if !moved_this_round {
            break;
        }
    }
    (out, retiming, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{exhaustive_equiv, Bit, TruthTable};

    #[test]
    fn pushes_chain_to_inputs() {
        // a -> g1 -> g2 -FF-> o : both gates can justify buffers, FF lands
        // on a -> g1.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g2, o, vec![Bit::One]).unwrap();
        let (pushed, r, stats) = push_registers_backward(&c, 8);
        assert_eq!(stats.moves, 2);
        assert_eq!(r.get(g1), 1);
        assert_eq!(r.get(g2), 1);
        let e = pushed.node(g1).fanin()[0];
        assert_eq!(pushed.edge(e).weight(), 1);
        // not(not(x)) = x, so the justified value is 1 at a -> g1.
        assert_eq!(pushed.edge(e).ffs(), &[Bit::One]);
        assert!(exhaustive_equiv(&c, &pushed, 5).unwrap().is_equivalent());
    }

    #[test]
    fn conflict_blocks_push() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::buf()).unwrap();
        let h1 = c.add_gate("h1", TruthTable::buf()).unwrap();
        let h2 = c.add_gate("h2", TruthTable::buf()).unwrap();
        let o1 = c.add_output("o1").unwrap();
        let o2 = c.add_output("o2").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(g, h1, vec![Bit::Zero]).unwrap();
        c.connect(g, h2, vec![Bit::One]).unwrap();
        c.connect(h1, o1, vec![]).unwrap();
        c.connect(h2, o2, vec![]).unwrap();
        let (pushed, _, stats) = push_registers_backward(&c, 4);
        assert!(stats.conflicts > 0);
        // Registers stay where they were.
        assert_eq!(pushed.ff_count_total(), c.ff_count_total());
        assert!(exhaustive_equiv(&c, &pushed, 4).unwrap().is_equivalent());
    }

    #[test]
    fn brt_caps_cycle_movement() {
        // A 2-gate register loop with a tap to the PO: brt bounds moves so
        // the loop terminates.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g1 = c.add_gate("g1", TruthTable::xor(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![Bit::Zero]).unwrap();
        c.connect(g2, g1, vec![Bit::One]).unwrap();
        c.connect(g2, o, vec![]).unwrap();
        let (pushed, _, _) = push_registers_backward(&c, 16);
        assert!(exhaustive_equiv(&c, &pushed, 6).unwrap().is_equivalent());
    }

    #[test]
    fn x_registers_always_push() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::xor(2)).unwrap();
        let h = c.add_gate("h", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(h, g, vec![]).unwrap();
        c.connect(a, h, vec![]).unwrap();
        c.connect(g, o, vec![Bit::X]).unwrap();
        let (pushed, r, stats) = push_registers_backward(&c, 8);
        assert!(stats.moves >= 1);
        assert!(r.get(g) >= 1);
        assert!(exhaustive_equiv(&c, &pushed, 4).unwrap().is_equivalent());
    }

    #[test]
    fn brt_values() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![Bit::Zero]).unwrap();
        c.connect(g2, o, vec![Bit::One]).unwrap();
        let brt = max_backward_retiming_values(&c);
        assert_eq!(brt[g1.index()], 2);
        assert_eq!(brt[g2.index()], 1);
        assert_eq!(brt[a.index()], 2);
    }
}
