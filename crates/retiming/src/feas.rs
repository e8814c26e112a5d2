//! General (bidirectional) minimum-period retiming — Leiserson & Saxe's
//! FEAS algorithm.
//!
//! FEAS decides whether a clock period `Φ` is achievable by *any* legal
//! retiming: starting from `r = 0`, repeatedly compute the combinational
//! arrival times `Δ(v)` of the retimed graph and increment `r(v)` for every
//! gate with `Δ(v) > Φ`. After `|V| − 1` rounds the retimed graph meets `Φ`
//! iff `Φ` is feasible. It serves `tmfrt map -a retime-general`, the
//! classic "map then retime" flow; the TurboMap baseline does not use it,
//! because its final retiming `Ɍ(v) = ⌈l(v)/Φ⌉ − 1` comes straight from
//! the labels (`turbomap::driver::generate_at`).
//!
//! The resulting retiming generally moves registers **backward** (positive
//! `r`), so applying it needs justification-based initial state computation
//! and can fail — exactly the failure mode the paper's TurboMap-frt is
//! designed to avoid.

use crate::error::RetimingError;
use crate::moves::{apply_retiming, MoveStats};
use crate::spec::Retiming;
use netlist::{Circuit, NodeId};

/// Arrival times `Δ(v)` of the graph retimed by `r`: longest gate-delay
/// path over edges with `w_r = 0` ending at `v`.
fn arrival_times(c: &Circuit, r: &Retiming) -> Result<Vec<u64>, RetimingError> {
    let n = c.num_nodes();
    let edges: Vec<(usize, usize)> = c
        .edge_ids()
        .filter(|&e| r.retimed_weight(c, e) == 0)
        .map(|e| {
            let edge = c.edge(e);
            (edge.from().index(), edge.to().index())
        })
        .collect();
    let adj = graphalgo::Csr::from_edges(n, &edges);
    let order = graphalgo::topo_order_csr(&adj).map_err(|_| {
        RetimingError::Netlist(netlist::NetlistError::CombinationalCycle { nodes: vec![] })
    })?;
    let mut delta = vec![0u64; n];
    for &vi in &order {
        let v = NodeId(vi as u32);
        let mut best = 0u64;
        for &e in c.node(v).fanin() {
            if r.retimed_weight(c, e) == 0 {
                best = best.max(delta[c.edge(e).from().index()]);
            }
        }
        delta[vi] = best + c.node(v).delay();
    }
    Ok(delta)
}

/// Clock period of the graph retimed by `r`.
fn retimed_period(c: &Circuit, r: &Retiming) -> Result<u64, RetimingError> {
    Ok(arrival_times(c, r)?.into_iter().max().unwrap_or(0))
}

/// FEAS: returns a legal retiming achieving period ≤ `phi`, or `None` when
/// `phi` is infeasible for any retiming.
///
/// # Errors
///
/// Propagates combinational-cycle errors from the input circuit.
pub fn feasible_general(c: &Circuit, phi: u64) -> Result<Option<Retiming>, RetimingError> {
    let mut r = Retiming::zero(c);
    let n = c.num_nodes();
    for _ in 0..n.saturating_sub(1) {
        let delta = arrival_times(c, &r)?;
        let mut changed = false;
        for v in c.node_ids() {
            if c.node(v).is_gate() && delta[v.index()] > phi {
                r.set(v, r.get(v) + 1);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // When `phi` is infeasible the iteration may push registers past the
    // PO boundary (negative edge weights); that is a definitive "no".
    // When `phi` is feasible, FEAS computes the minimal retiming, which is
    // bounded above by any legal one and therefore legal itself.
    if r.validate(c).is_err() {
        return Ok(None);
    }
    if retimed_period(c, &r)? <= phi {
        Ok(Some(r))
    } else {
        Ok(None)
    }
}

/// Minimum clock period achievable by **general** retiming (binary search
/// with FEAS as the feasibility oracle).
///
/// # Errors
///
/// Propagates netlist errors.
pub fn min_period_general(c: &Circuit) -> Result<u64, RetimingError> {
    let upper = c.clock_period()?;
    if upper <= 1 {
        return Ok(upper);
    }
    let mut lo = 1u64;
    let mut hi = upper;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if feasible_general(c, mid)?.is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(lo)
}

/// Result of a general minimum-period retiming run.
#[derive(Debug, Clone)]
pub struct GeneralRetimingResult {
    /// The retimed circuit with computed initial state.
    pub circuit: Circuit,
    /// The achieved clock period.
    pub period: u64,
    /// The applied retiming.
    pub retiming: Retiming,
    /// Unit-move statistics.
    pub stats: MoveStats,
}

/// Full flow: minimum general-retiming period, then application with
/// initial state computation.
///
/// # Errors
///
/// [`RetimingError::ConflictingFanoutValues`] or
/// [`RetimingError::NotJustifiable`] when no equivalent initial state could
/// be computed for the backward moves — the NP-hard case; callers (and the
/// Table-1 harness) treat this as the paper's `⋆` outcome.
pub fn retime_min_period_general(c: &Circuit) -> Result<GeneralRetimingResult, RetimingError> {
    let period = min_period_general(c)?;
    let retiming = feasible_general(c, period)?.ok_or(RetimingError::Infeasible { period })?;
    let (circuit, stats) = apply_retiming(c, &retiming)?;
    debug_assert!(circuit.clock_period()? <= period);
    Ok(GeneralRetimingResult {
        circuit,
        period,
        retiming,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lvalues::min_period_forward;
    use netlist::{exhaustive_equiv, Bit, TruthTable};

    /// FF at the *end* of a 3-gate chain: forward retiming is stuck at 3,
    /// general retiming moves the FF backward to reach 2.
    fn chain3_ff_behind() -> Circuit {
        let mut c = Circuit::new("chain3");
        let a = c.add_input("a").unwrap();
        let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let g3 = c.add_gate("g3", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(g3, o, vec![Bit::One]).unwrap();
        c
    }

    #[test]
    fn general_beats_forward_here() {
        let c = chain3_ff_behind();
        assert_eq!(min_period_forward(&c).unwrap(), 3);
        assert_eq!(min_period_general(&c).unwrap(), 2);
    }

    #[test]
    fn general_retiming_applies_with_justified_state() {
        let c = chain3_ff_behind();
        let res = retime_min_period_general(&c).unwrap();
        assert_eq!(res.period, 2);
        assert!(res.stats.backward_moves > 0);
        assert!(exhaustive_equiv(&c, &res.circuit, 6)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn cycle_ratio_bound_respected() {
        // 4 gates on a loop with 2 FFs: ratio 2, so period 2 is optimal.
        let mut c = Circuit::new("loop");
        let a = c.add_input("a").unwrap();
        let g1 = c.add_gate("g1", TruthTable::xor(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let g3 = c.add_gate("g3", TruthTable::not()).unwrap();
        let g4 = c.add_gate("g4", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g2, g3, vec![Bit::Zero]).unwrap();
        c.connect(g3, g4, vec![]).unwrap();
        c.connect(g4, g1, vec![Bit::Zero]).unwrap();
        c.connect(g4, o, vec![]).unwrap();
        assert_eq!(min_period_general(&c).unwrap(), 2);
    }

    #[test]
    fn feas_identity_for_already_fast() {
        let mut c = Circuit::new("fast");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        let r = feasible_general(&c, 1).unwrap().unwrap();
        assert_eq!(r.values().iter().filter(|&&x| x != 0).count(), 0);
    }

    #[test]
    fn infeasible_below_cycle_ratio() {
        let c = chain3_ff_behind();
        assert!(feasible_general(&c, 1).unwrap().is_none());
    }

    #[test]
    fn general_result_equivalent_on_reconvergent_circuit() {
        // Reconvergent circuit with FFs behind the merge gate.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let p = c.add_gate("p", TruthTable::not()).unwrap();
        let q = c.add_gate("q", TruthTable::buf()).unwrap();
        let m = c.add_gate("m", TruthTable::or(2)).unwrap();
        let t = c.add_gate("t", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, p, vec![]).unwrap();
        c.connect(b, q, vec![]).unwrap();
        c.connect(p, m, vec![]).unwrap();
        c.connect(q, m, vec![]).unwrap();
        c.connect(m, t, vec![]).unwrap();
        c.connect(t, o, vec![Bit::Zero]).unwrap();
        let res = retime_min_period_general(&c).unwrap();
        assert!(res.period <= 2);
        assert!(exhaustive_equiv(&c, &res.circuit, 5)
            .unwrap()
            .is_equivalent());
    }
}
