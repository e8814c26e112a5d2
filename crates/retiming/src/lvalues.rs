//! l-values and optimal **forward** retiming (Theorem 1 of the paper).
//!
//! For a target clock period `Φ`, give each edge `e(u, v)` the length
//! `d(v) − Φ·w(e)` and let `l(v)` be the maximum path length from any PI to
//! `v`. Theorem 1: a network can be forward-retimed to period ≤ `Φ` iff
//! `l(v) ≤ Φ` for every node. The witnessing retiming is
//! `r(v) = ⌈l(v)/Φ⌉ − 1 ≤ 0` on gates (footnote 3 of the paper: forward
//! retiming is ordinary Leiserson–Saxe retiming with the extra constraints
//! `r(v) ≤ 0`).
//!
//! Positive-length cycles make `l` diverge, which the longest-path engine
//! reports as infeasibility — this covers the cycle-ratio bound
//! `Φ ≥ ⌈d(c)/w(c)⌉` automatically.
//!
//! A feasibility probe runs the longest-path kernel with upper bound `Φ`:
//! Theorem 1 only asks whether every `l(v) ≤ Φ`, and relaxation only
//! raises lengths, so the first length above `Φ` ends the probe as
//! infeasible. A positive cycle passes the bound within a few laps, so an
//! infeasible probe costs a few rounds rather than the `n + 1` of plain
//! cycle detection. `LValueGraph` builds the edge list once per circuit,
//! sorted by tail in combinational topological order so one round settles
//! every register-free stretch, and re-weights it in place for each probe
//! into one reused scratch.

use crate::error::RetimingError;
use crate::moves::{apply_forward_retiming, MoveStats};
use crate::spec::Retiming;
use graphalgo::{LongestPathError, LongestPathScratch};
use netlist::Circuit;

/// The l-value problem of one circuit, reusable across Φ probes.
///
/// Holds each edge `e(u, v)` as `(u, v, d(v), w(e))` in the order of `u`
/// in [`Circuit::comb_topo_order`], plus the per-probe length list and the
/// longest-path scratch, so repeated probes do not touch the allocator.
#[derive(Debug)]
struct LValueGraph {
    n: usize,
    /// `(tail, head, d(head), w(e))` per edge, tails in topological order.
    base: Vec<(usize, usize, i64, i64)>,
    /// `(tail, head, d(head) − Φ·w(e))` for the current probe.
    edges: Vec<(usize, usize, i64)>,
    sources: Vec<usize>,
    scratch: LongestPathScratch,
}

impl LValueGraph {
    /// The l-value graph of `c`.
    ///
    /// # Errors
    ///
    /// [`RetimingError::Netlist`] when `c` has a combinational cycle.
    fn new(c: &Circuit) -> Result<LValueGraph, RetimingError> {
        let mut base = Vec::with_capacity(c.num_edges());
        for u in c.comb_topo_order()? {
            for &e in c.node(u).fanout() {
                let edge = c.edge(e);
                base.push((
                    u.index(),
                    edge.to().index(),
                    c.node(edge.to()).delay() as i64,
                    edge.weight() as i64,
                ));
            }
        }
        Ok(LValueGraph {
            n: c.num_nodes(),
            edges: Vec::with_capacity(base.len()),
            base,
            sources: c.inputs().iter().map(|v| v.index()).collect(),
            scratch: LongestPathScratch::new(),
        })
    }

    /// l-values at period `phi`, stopping with
    /// [`LongestPathError::ExceedsBound`] as soon as one passes `bound`.
    fn run(&mut self, phi: u64, bound: Option<i64>) -> Result<&[i64], LongestPathError> {
        let phi = phi as i64;
        self.edges.clear();
        self.edges
            .extend(self.base.iter().map(|&(u, v, d, w)| (u, v, d - phi * w)));
        self.scratch.run(self.n, &self.edges, &self.sources, bound)
    }

    /// True when the circuit can reach period ≤ `phi` by forward
    /// retiming: every l-value at `phi` is at most `phi`.
    fn feasible(&mut self, phi: u64) -> bool {
        self.run(phi, Some(phi as i64)).is_ok()
    }

    /// The forward retiming derived from l-values: `r(v) = ⌈l(v)/Φ⌉ − 1`
    /// on gates, 0 on PIs/POs and on unreachable nodes.
    ///
    /// # Errors
    ///
    /// [`RetimingError::Infeasible`] when `phi` is infeasible under
    /// forward retiming.
    fn retiming(&mut self, c: &Circuit, phi: u64) -> Result<Retiming, RetimingError> {
        let phi_i = phi as i64;
        let l = self
            .run(phi, Some(phi_i))
            .map_err(|_| RetimingError::Infeasible { period: phi })?;
        let mut r = Retiming::zero(c);
        for v in c.node_ids() {
            let lv = l[v.index()];
            if c.node(v).is_gate() && lv > graphalgo::NEG_INF {
                r.set(v, div_ceil_i64(lv, phi_i) - 1);
            }
        }
        r.validate(c)?;
        Ok(r)
    }

    /// Minimum clock period achievable by forward retiming alone: a
    /// binary search over `[1, upper]`, where `upper` is the circuit's
    /// current period (feasible by the identity retiming).
    fn min_period(&mut self, upper: u64) -> u64 {
        if upper <= 1 {
            return upper;
        }
        let mut lo = 1u64;
        let mut hi = upper;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.feasible(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

/// l-values of every node for a target period, or `Err` when a positive
/// cycle makes the period infeasible. Unlike a probe, this runs without a
/// bound, so lengths above `phi` are returned as they are.
///
/// Unreachable nodes keep [`graphalgo::NEG_INF`]; validated circuits have
/// none (see `netlist::validate`).
///
/// # Errors
///
/// [`RetimingError::Infeasible`] when a positive-length cycle exists;
/// [`RetimingError::Netlist`] on a combinational cycle.
pub fn l_values(c: &Circuit, phi: u64) -> Result<Vec<i64>, RetimingError> {
    LValueGraph::new(c)?
        .run(phi, None)
        .map(<[i64]>::to_vec)
        .map_err(|_| RetimingError::Infeasible { period: phi })
}

/// True when the circuit can reach period ≤ `phi` using forward retiming
/// only.
pub fn forward_feasible(c: &Circuit, phi: u64) -> bool {
    LValueGraph::new(c).is_ok_and(|mut g| g.feasible(phi))
}

/// The forward retiming derived from l-values: `r(v) = ⌈l(v)/Φ⌉ − 1` on
/// gates, 0 on PIs/POs and on unreachable nodes.
///
/// # Errors
///
/// [`RetimingError::Infeasible`] when `phi` is infeasible under forward
/// retiming.
pub fn forward_retiming_for(c: &Circuit, phi: u64) -> Result<Retiming, RetimingError> {
    LValueGraph::new(c)?.retiming(c, phi)
}

pub(crate) fn div_ceil_i64(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    a.div_euclid(b) + if a.rem_euclid(b) != 0 { 1 } else { 0 }
}

/// Result of a minimum-period forward retiming run.
#[derive(Debug, Clone)]
pub struct ForwardRetimingResult {
    /// The retimed circuit with computed initial state.
    pub circuit: Circuit,
    /// The achieved (minimum) clock period.
    pub period: u64,
    /// The applied retiming.
    pub retiming: Retiming,
    /// Unit-move statistics.
    pub stats: MoveStats,
}

/// Minimum clock period achievable by forward retiming alone (binary
/// search over `[1, current period]`).
///
/// # Errors
///
/// Propagates netlist errors (combinational cycles).
pub fn min_period_forward(c: &Circuit) -> Result<u64, RetimingError> {
    let upper = c.clock_period()?;
    Ok(LValueGraph::new(c)?.min_period(upper))
}

/// Full flow: find the minimum forward-retimable period, apply the
/// retiming, compute the initial state by simulation.
///
/// # Errors
///
/// Propagates netlist errors; the application itself cannot fail for
/// forward retimings.
pub fn retime_min_period_forward(c: &Circuit) -> Result<ForwardRetimingResult, RetimingError> {
    let _span = engine::trace::span("retime_forward");
    let upper = c.clock_period()?;
    let mut graph = LValueGraph::new(c)?;
    let period = graph.min_period(upper);
    let retiming = graph.retiming(c, period)?;
    let (circuit, stats) = apply_forward_retiming(c, &retiming)?;
    debug_assert!(circuit.clock_period()? <= period);
    Ok(ForwardRetimingResult {
        circuit,
        period,
        retiming,
        stats,
    })
}

/// The maximum forward retiming value `frt(v)` of every node — the minimum
/// path weight from any PI (Lemma 1 of the paper), computed by Dijkstra.
///
/// Unreachable nodes get `u64::MAX` (validated circuits have none).
pub fn max_forward_retiming_values(c: &Circuit) -> Vec<u64> {
    let adj = c.weighted_csr();
    let sources: Vec<usize> = c.inputs().iter().map(|v| v.index()).collect();
    graphalgo::dijkstra_csr(&adj, &sources)
        .into_iter()
        .map(|d| d.unwrap_or(u64::MAX))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{exhaustive_equiv, Bit, TruthTable};

    /// a -> g1 -> g2 -> g3 -FF-> o : period 3, forward-retimable to 2 but
    /// not 1 (only one FF).
    fn chain3() -> Circuit {
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
    fn l_values_chain() {
        let c = chain3();
        let l = l_values(&c, 2).unwrap();
        assert_eq!(l[c.find("g1").unwrap().index()], 1);
        assert_eq!(l[c.find("g2").unwrap().index()], 2);
        assert_eq!(l[c.find("g3").unwrap().index()], 3);
        assert_eq!(l[c.find("o").unwrap().index()], 1); // 3 - 2*1
    }

    #[test]
    fn forward_feasibility_boundaries() {
        let c = chain3();
        assert!(forward_feasible(&c, 3));
        // Φ=2: l(g3)=3 > 2 → infeasible? The FF is *behind* g3 so it cannot
        // help paths ending at g3. Forward retiming cannot beat 3 here.
        assert!(!forward_feasible(&c, 2));
    }

    #[test]
    fn ff_in_front_enables_forward_speedup() {
        // a -FF-> g1 -> g2 -> g3 -> o : FF ahead, forward retiming can
        // push it to the middle: period 3 → 2.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let g3 = c.add_gate("g3", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![Bit::Zero]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(g3, o, vec![]).unwrap();
        assert_eq!(c.clock_period().unwrap(), 3);
        assert!(forward_feasible(&c, 2));
        assert!(!forward_feasible(&c, 1));
        let res = retime_min_period_forward(&c).unwrap();
        assert_eq!(res.period, 2);
        assert_eq!(res.circuit.clock_period().unwrap(), 2);
        assert!(exhaustive_equiv(&c, &res.circuit, 6)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn min_period_identity_when_no_ffs() {
        let mut c = Circuit::new("comb");
        let a = c.add_input("a").unwrap();
        let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g2, o, vec![]).unwrap();
        assert_eq!(min_period_forward(&c).unwrap(), 2);
    }

    #[test]
    fn cycle_ratio_limits_period() {
        // 3-gate loop with 1 FF: best possible period is 3 for any
        // retiming (cycle ratio d/w = 3).
        let mut c = Circuit::new("loop");
        let a = c.add_input("a").unwrap();
        let g1 = c.add_gate("g1", TruthTable::xor(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let g3 = c.add_gate("g3", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(g3, g1, vec![Bit::Zero]).unwrap();
        c.connect(g3, o, vec![]).unwrap();
        assert_eq!(min_period_forward(&c).unwrap(), 3);
        assert!(!forward_feasible(&c, 2));
    }

    #[test]
    fn retiming_values_match_formula() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![Bit::Zero]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g2, o, vec![]).unwrap();
        let r = forward_retiming_for(&c, 1).unwrap();
        // l(g1) = 1 - 1 = 0 → r = -1; l(g2) = 1 → r = 0.
        assert_eq!(r.get(g1), -1);
        assert_eq!(r.get(g2), 0);
    }

    #[test]
    fn frt_values_are_min_path_weights() {
        let c = chain3();
        let frt = max_forward_retiming_values(&c);
        assert_eq!(frt[c.find("g1").unwrap().index()], 0);
        assert_eq!(frt[c.find("g3").unwrap().index()], 0);
        assert_eq!(frt[c.find("o").unwrap().index()], 1);
    }

    #[test]
    fn div_ceil_signs() {
        assert_eq!(div_ceil_i64(3, 2), 2);
        assert_eq!(div_ceil_i64(4, 2), 2);
        assert_eq!(div_ceil_i64(0, 2), 0);
        assert_eq!(div_ceil_i64(-1, 2), 0);
        assert_eq!(div_ceil_i64(-2, 2), -1);
        assert_eq!(div_ceil_i64(-3, 2), -1);
    }
}
