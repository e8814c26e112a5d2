//! Label computation for TurboMap with **general** retiming (the ICCD'96
//! baseline the paper compares against).
//!
//! With unrestricted retiming the l-values are single labels: Pan & Liu's
//! condition says a mapping solution can be retimed to period ≤ `Φ` iff
//! `l(po) ≤ Φ` at every primary output. Internal labels may exceed `Φ`
//! (registers can be borrowed backward from downstream). The update rule
//! matches FRTcheck's but without the `(L^s, R)` pair logic, and LUT
//! cones may absorb registers up to the configured weight horizon instead
//! of `frt(v)` — nothing guarantees forward-only register motion, which is
//! exactly why this baseline's initial states need NP-hard justification.
//!
//! The cut question is FRTcheck's, asked of `F_v^h` for one horizon `h`
//! instead of `F_v^{frt(v)}`, so both share one cut oracle: every gate's
//! cuts of `F_v^h` are listed once per run and a label update scans them
//! (flow fallback for gates with too many cuts — see `crate::cutoracle`).

use crate::cutenum::{CutArena, CutFault, CUT_CAP};
use crate::cutoracle::{CutAnswer, CutOracle};
use crate::cutsearch::{CutScratch, ExpCut};
use crate::frtcheck::LS_NEG_INF;
use netlist::{Circuit, NodeId};

/// Outcome of one general-label check.
#[derive(Debug, Clone)]
pub struct GeneralCheck {
    /// True when some mapping + general retiming meets the period.
    pub feasible: bool,
    /// Final labels (indexed by node id).
    pub labels: Vec<i64>,
    /// Sweeps executed.
    pub iterations: usize,
}

/// Precomputed state for general-retiming label runs.
pub struct GeneralContext<'a> {
    circuit: &'a Circuit,
    /// Every gate's cuts of `F_v^h`, the flow-fallback expansions and the
    /// requeue index — the oracle FRTcheck uses, built with the uniform
    /// bound `h` instead of `frt(v)`.
    oracle: CutOracle<'a>,
    order: Vec<NodeId>,
    /// Gates that reach a PO (dead logic is skipped; see DESIGN.md).
    live: Vec<bool>,
    horizon: u64,
}

impl<'a> GeneralContext<'a> {
    /// Lists every gate's cuts of `F_v^{horizon}` once; the label runs of
    /// every Φ probe scan them.
    ///
    /// # Panics
    ///
    /// Panics on combinational cycles.
    pub fn new(circuit: &'a Circuit, k: usize, horizon: u64) -> GeneralContext<'a> {
        GeneralContext::with_cut_cap(circuit, k, horizon, CUT_CAP)
    }

    /// [`GeneralContext::new`] with the cut-list length above which a gate
    /// falls back to max-flow.
    pub(crate) fn with_cut_cap(
        circuit: &'a Circuit,
        k: usize,
        horizon: u64,
        cut_cap: usize,
    ) -> GeneralContext<'a> {
        let _span = engine::trace::span1("general_context", "gates", circuit.num_gates() as u64);
        let order = circuit
            .comb_topo_order()
            .expect("combinational cycles must be rejected before mapping");
        let live = po_reachable(circuit);
        let bound = vec![horizon; circuit.num_nodes()];
        let oracle = CutOracle::new(circuit, &order, bound, k, cut_cap);
        GeneralContext {
            circuit,
            oracle,
            order,
            live,
            horizon,
        }
    }

    /// The cut lists the label updates scan.
    pub fn cut_arena(&self) -> &CutArena {
        self.oracle.arena()
    }

    /// The LUT input bound `K` the context was built for.
    pub fn k(&self) -> usize {
        self.oracle.k()
    }

    /// The register horizon `h` of every gate's expansion.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Whether `F_v^h` has a K-cut whose height under `labels` is at most
    /// `height` — the question every label update asks, answered as the
    /// sweeps answer it (false for a flow-fallback gate whose expansion hit
    /// [`crate::frtcheck::MAX_EXPANDED_NODES`]).
    pub fn has_cut(&self, labels: &[i64], v: NodeId, phi: u64, height: i64) -> bool {
        let answer = self
            .oracle
            .answer(labels, v, phi as i64, height, &mut CutScratch::new());
        matches!(answer, CutAnswer::Weight(_))
    }

    /// Plants `fault` in gate `v`'s cut list; false when the list has no
    /// such cut. A fault-injection hook for oracle tests: the context then
    /// answers label updates wrongly.
    #[doc(hidden)]
    pub fn inject_cut_fault(&mut self, v: NodeId, fault: CutFault) -> bool {
        self.oracle.inject(v, fault)
    }

    fn script_l(&self, ls: &[i64], v: NodeId, phi: i64) -> i64 {
        let mut best = LS_NEG_INF;
        for &e in self.circuit.node(v).fanin() {
            let edge = self.circuit.edge(e);
            let lu = ls[edge.from().index()];
            if lu > LS_NEG_INF {
                best = best.max(lu - phi * edge.weight() as i64);
            }
        }
        best
    }

    /// Runs the label iteration for one target period.
    pub fn check(&self, phi: u64) -> GeneralCheck {
        let c = self.circuit;
        let n = c.num_nodes();
        let phi_i = phi as i64;
        let mut labels = vec![LS_NEG_INF; n];
        for &pi in c.inputs() {
            labels[pi.index()] = 0;
        }
        let cap = n.saturating_mul(n).max(4);
        let mut iterations = 0usize;
        let mut dirty = vec![true; n];
        // One flow-network arena for every fallback query of this run.
        let mut scratch = CutScratch::new();
        loop {
            // Same cancellation contract as `FrtContext::check`: bail out
            // as "infeasible"; the driver re-checks the token.
            if engine::cancel::cancelled() {
                return GeneralCheck {
                    feasible: false,
                    labels,
                    iterations,
                };
            }
            iterations += 1;
            engine::telemetry::count(engine::telemetry::Counter::FrtSweeps, 1);
            let _sweep = engine::trace::span1("frtcheck_sweep", "n", iterations as u64);
            let mut changed = false;
            for &v in &self.order {
                let node = c.node(v);
                if node.is_input() || !self.live[v.index()] || !dirty[v.index()] {
                    continue;
                }
                dirty[v.index()] = false;
                let script = self.script_l(&labels, v, phi_i);
                if script <= LS_NEG_INF {
                    continue;
                }
                let new_l = if node.is_output() {
                    script
                } else {
                    match self.oracle.answer(&labels, v, phi_i, script, &mut scratch) {
                        CutAnswer::Weight(_) => script,
                        // No cut, or a capped fallback expansion
                        // (conservative).
                        CutAnswer::NoCut | CutAnswer::Capped => script + 1,
                    }
                };
                if new_l > labels[v.index()] {
                    labels[v.index()] = new_l;
                    changed = true;
                    for &e in node.fanout() {
                        dirty[c.edge(e).to().index()] = true;
                    }
                    for &g in self.oracle.requeue(v.index()) {
                        dirty[g as usize] = true;
                    }
                    if node.is_output() && new_l > phi_i {
                        // PO lower bound already exceeds Φ: infeasible.
                        engine::telemetry::record(
                            engine::hist::Metric::SweepsPerPhi,
                            iterations as u64,
                        );
                        return GeneralCheck {
                            feasible: false,
                            labels,
                            iterations,
                        };
                    }
                }
            }
            if !changed {
                break;
            }
            if iterations >= cap {
                engine::telemetry::record(engine::hist::Metric::SweepsPerPhi, iterations as u64);
                return GeneralCheck {
                    feasible: false,
                    labels,
                    iterations,
                };
            }
        }
        engine::telemetry::record(engine::hist::Metric::SweepsPerPhi, iterations as u64);
        let feasible = c.outputs().iter().all(|&po| labels[po.index()] <= phi_i);
        GeneralCheck {
            feasible,
            labels,
            iterations,
        }
    }

    /// Extracts a cut consistent with the final labels for every live
    /// gate: the near-sink max-flow cut of `F_v^h`, picked from the gate's
    /// cut list (see `crate::cutenum`).
    ///
    /// # Panics
    ///
    /// Panics if a converged label admits no cut (contradiction).
    pub fn final_cuts(&self, labels: &[i64], phi: u64) -> Vec<Option<ExpCut>> {
        self.oracle.final_cuts(labels, phi as i64, |v| {
            let i = v.index();
            (self.live[i] && labels[i] > LS_NEG_INF).then_some((labels[i], self.horizon))
        })
    }
}

/// True per node when it reaches some primary output.
pub fn po_reachable(c: &Circuit) -> Vec<bool> {
    let n = c.num_nodes();
    let mut live = vec![false; n];
    let mut stack: Vec<usize> = c.outputs().iter().map(|v| v.index()).collect();
    for &s in &stack {
        live[s] = true;
    }
    while let Some(u) = stack.pop() {
        for &e in c.node(NodeId(u as u32)).fanin() {
            let f = c.edge(e).from().index();
            if !live[f] {
                live[f] = true;
                stack.push(f);
            }
        }
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cutoracle::tests::{leaf_set, random_fsm};
    use crate::cutsearch::find_cut;
    use crate::expand::ExpandedCircuit;
    use engine::Rng64;
    use netlist::{Bit, TruthTable};

    /// FF *behind* a 3-gate chain: forward retiming can't improve the
    /// period, general retiming can.
    fn back_ff_chain() -> Circuit {
        let mut c = Circuit::new("t");
        let i1 = c.add_input("i1").unwrap();
        let i2 = c.add_input("i2").unwrap();
        let i3 = c.add_input("i3").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::or(2)).unwrap();
        let g3 = c.add_gate("g3", TruthTable::xor(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i1, g1, vec![]).unwrap();
        c.connect(i2, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(i3, g2, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(i1, g3, vec![]).unwrap();
        c.connect(g3, o, vec![Bit::One]).unwrap();
        c
    }

    #[test]
    fn general_beats_forward_with_back_register() {
        let c = back_ff_chain();
        let gctx = GeneralContext::new(&c, 2, 16);
        let fctx = crate::frtcheck::FrtContext::new(&c, 2, 16);
        // K=2: three LUT levels; the register behind g3 can move backward
        // only under general retiming: Φ=2 feasible generally, not
        // forward-only.
        assert!(gctx.check(2).feasible);
        assert!(!fctx.check(2).feasible);
        assert!(fctx.check(3).feasible);
    }

    #[test]
    fn po_labels_bound_feasibility() {
        let c = back_ff_chain();
        let ctx = GeneralContext::new(&c, 2, 16);
        let res = ctx.check(3);
        assert!(res.feasible);
        for &po in c.outputs() {
            assert!(res.labels[po.index()] <= 3);
        }
    }

    #[test]
    fn infeasible_when_no_registers() {
        // Pure combinational 3-level K=2 structure: Φ < 3 impossible.
        let mut c = back_ff_chain();
        // Remove the register by rebuilding: easier to zero the chain.
        let o = c.find("o").unwrap();
        let e = c.node(o).fanin()[0];
        c.ffs_mut(e).clear();
        let ctx = GeneralContext::new(&c, 2, 16);
        assert!(!ctx.check(2).feasible);
        assert!(ctx.check(3).feasible);
    }

    #[test]
    fn dead_logic_is_ignored() {
        let mut c = back_ff_chain();
        // Dead register cycle with ratio 5 (five gates, one register):
        // would force Φ ≥ 5 if counted, but it feeds no PO.
        let i1 = c.find("i1").unwrap();
        let dmix = c.add_gate("dmix", TruthTable::and(2)).unwrap();
        let mut prev = dmix;
        for i in 0..4 {
            let d = c.add_gate(format!("d{i}"), TruthTable::not()).unwrap();
            c.connect(prev, d, vec![]).unwrap();
            prev = d;
        }
        c.connect(i1, dmix, vec![]).unwrap();
        c.connect(prev, dmix, vec![Bit::Zero]).unwrap();
        let ctx = GeneralContext::new(&c, 2, 16);
        assert!(ctx.check(3).feasible);
        assert!(!po_reachable(&c)[dmix.index()]);
    }

    #[test]
    fn iterations_stay_small() {
        let c = back_ff_chain();
        let ctx = GeneralContext::new(&c, 2, 16);
        let res = ctx.check(3);
        assert!(res.iterations <= 10);
    }

    /// The property the shared oracle stands on for the general labels:
    /// for random labels, Φ and heights, the scan of `F_v^h`'s cut list
    /// answers exactly what one bounded max-flow answers on a freshly
    /// built `F_v^h`.
    #[test]
    fn scan_equals_flow_on_random_fsms() {
        let mut rng = Rng64::new(0x6E4E4A1);
        for trial in 0..16 {
            let k = rng.range_usize(2, 7);
            let c = random_fsm(&mut rng, trial, k);
            for h in [0, 1, 2, 16] {
                let ctx = GeneralContext::new(&c, k, h);
                for _ in 0..2 {
                    let ls: Vec<i64> = (0..c.num_nodes()).map(|_| rng.range_i64(-4, 6)).collect();
                    let phi = rng.range_i64(1, 5);
                    for v in c.gate_ids() {
                        let exp = ExpandedCircuit::build(&c, v, h, usize::MAX).unwrap();
                        let height = rng.range_i64(-3, 7);
                        let flow = find_cut(&exp, &ls, phi, height, h, k).is_some();
                        let scan = ctx.has_cut(&ls, v, phi as u64, height);
                        assert_eq!(scan, flow, "trial {trial} k={k} h={h} {v:?} phi={phi}");
                    }
                }
            }
        }
    }

    /// A cut cap of 1 sends most gates to the max-flow fallback; the
    /// probes and the final cuts must not notice.
    #[test]
    fn tiny_cut_cap_falls_back_to_flow_with_identical_results() {
        let mut rng = Rng64::new(0xCA9);
        for trial in 0..4 {
            let k = rng.range_usize(3, 6);
            let c = random_fsm(&mut rng, trial, k);
            for h in [1, 2, 16] {
                let exact = GeneralContext::new(&c, k, h);
                let capped = GeneralContext::with_cut_cap(&c, k, h, 1);
                assert!(c.gate_ids().any(|v| capped.cut_arena().is_fallback(v)));
                for phi in 1..=6 {
                    let (a, b) = (exact.check(phi), capped.check(phi));
                    let tag = format!("trial {trial} k={k} h={h} phi={phi}");
                    assert_eq!(a.feasible, b.feasible, "{tag}");
                    assert_eq!(a.iterations, b.iterations, "{tag}");
                    assert_eq!(a.labels, b.labels, "{tag}");
                    if a.feasible {
                        let (x, y) = (
                            exact.final_cuts(&a.labels, phi),
                            capped.final_cuts(&b.labels, phi),
                        );
                        for v in c.gate_ids() {
                            assert_eq!(
                                leaf_set(x[v.index()].as_ref()),
                                leaf_set(y[v.index()].as_ref()),
                                "{tag} {v:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}
