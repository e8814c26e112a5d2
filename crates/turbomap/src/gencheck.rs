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
//! instead of `F_v^{frt(v)}`, and so is the label loop: a check is
//! FRTcheck's dirty-driven sweep loop under the general `LabelRule`
//! (see [`crate::frtcheck`]). Every gate's cuts of `F_v^h` are listed once
//! per run and a label update scans them (flow fallback for gates with
//! too many cuts — see `crate::cutoracle`).
//!
//! Like FRTcheck, a context needs a [`crate::prepare`]d network: the loop
//! skips no dead logic, and a register loop that reaches no PO would
//! otherwise raise its labels to the `|V|²` sweep cap.

use crate::cutenum::{CutArena, CutFault, CUT_CAP};
use crate::cutsearch::ExpCut;
use crate::frtcheck::{LabelRule, LabelSweeps, SweepEnd, LS_NEG_INF};
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
    /// Every gate's cuts of `F_v^h` — the oracle FRTcheck uses, built
    /// with the uniform bound `h` instead of `frt(v)` — and the walk.
    sweeps: LabelSweeps<'a>,
    horizon: u64,
}

impl<'a> GeneralContext<'a> {
    /// Lists every gate's cuts of `F_v^{horizon}` once; the label runs of
    /// every Φ probe scan them. `circuit` must be [`crate::prepare`]d.
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
        let bound = vec![horizon; circuit.num_nodes()];
        GeneralContext {
            sweeps: LabelSweeps::new(circuit, bound, k, cut_cap),
            horizon,
        }
    }

    /// The prepared network the context was built on.
    pub fn circuit(&self) -> &'a Circuit {
        self.sweeps.circuit
    }

    /// The cut lists the label updates scan.
    pub fn cut_arena(&self) -> &CutArena {
        self.sweeps.oracle.arena()
    }

    /// The LUT input bound `K` the context was built for.
    pub fn k(&self) -> usize {
        self.sweeps.oracle.k()
    }

    /// The register horizon `h` of every gate's expansion.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The minimum cone weight of a K-cut of `F_v^h` whose height under
    /// `labels` is at most `height` — the question every label update
    /// asks; the general rule accepts the label when the answer is
    /// `Some`. `None` also for a flow-fallback gate whose expansion hit
    /// [`crate::frtcheck::MAX_EXPANDED_NODES`].
    pub fn min_cut_weight(&self, labels: &[i64], v: NodeId, phi: u64, height: i64) -> Option<u64> {
        self.sweeps.min_cut_weight(labels, v, phi, height)
    }

    /// Plants `fault` in gate `v`'s cut list; false when the list has no
    /// such cut. A fault-injection hook for oracle tests: the context then
    /// answers label updates wrongly.
    #[doc(hidden)]
    pub fn inject_cut_fault(&mut self, v: NodeId, fault: CutFault) -> bool {
        self.sweeps.oracle.inject(v, fault)
    }

    /// Runs the label iteration for one target period, cold-started.
    pub fn check(&self, phi: u64) -> GeneralCheck {
        let mut labels = self.sweeps.cold_labels();
        let rule = LabelRule::General;
        let (end, iterations) = self.sweeps.sweep_loop(rule, phi as i64, &mut labels, None);
        GeneralCheck {
            // A PO label above Φ ends the loop, so converged labels meet
            // Pan & Liu's condition at every PO.
            feasible: matches!(end, SweepEnd::Converged),
            labels: labels.ls,
            iterations,
        }
    }

    /// Extracts a cut consistent with the final labels for every gate:
    /// the near-sink max-flow cut of `F_v^h`, picked from the gate's cut
    /// list (see `crate::cutenum`).
    ///
    /// # Panics
    ///
    /// Panics if a converged label admits no cut (contradiction).
    pub fn final_cuts(&self, labels: &[i64], phi: u64) -> Vec<Option<ExpCut>> {
        self.sweeps.oracle.final_cuts(labels, phi as i64, |v| {
            let l = labels[v.index()];
            (l > LS_NEG_INF).then_some((l, self.horizon))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cutoracle::tests::{leaf_set, random_fsm};
    use crate::frtcheck::tests::{fsm, reference_fixpoint};
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
        c.set_ffs(e, []);
        let ctx = GeneralContext::new(&c, 2, 16);
        assert!(!ctx.check(2).feasible);
        assert!(ctx.check(3).feasible);
    }

    /// `prepare` prunes dead logic before the labels run, so logic that
    /// feeds no PO cannot raise Φ.
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
        let opts = crate::Options::with_k(2);
        let res = crate::turbomap_general(&c, opts).unwrap();
        assert!(res.period <= 3, "period {}", res.period);
        let live = crate::turbomap_general(&back_ff_chain(), opts).unwrap();
        assert_eq!(res.period, live.period);
    }

    #[test]
    fn iterations_stay_small() {
        let c = back_ff_chain();
        let ctx = GeneralContext::new(&c, 2, 16);
        let res = ctx.check(3);
        assert!(res.iterations <= 10);
    }

    /// The shared dirty-driven sweeps under the general rule reach the
    /// reference fixpoint, and refute exactly the periods it refutes.
    #[test]
    fn check_matches_the_reference_fixpoint() {
        // Unregistered inputs leave gates whose only cut at their height
        // absorbs a register: the rule must accept any cone weight.
        let fsms = [(11, 4, true), (12, 4, false), (13, 5, true), (22, 5, false)];
        let fsms = fsms.map(|(seed, k, registered)| (fsm(seed, k, registered), k));
        let cases = std::iter::once((back_ff_chain(), 2)).chain(fsms);
        let mut verdicts = [0; 2];
        for (c, k) in cases {
            let ctx = GeneralContext::new(&c, k, 16);
            for phi in 1..=6 {
                let tag = format!("{} k {k} phi {phi}", c.name());
                let check = ctx.check(phi);
                verdicts[check.feasible as usize] += 1;
                let min_cut = |ls: &[i64], v, h| ctx.min_cut_weight(ls, v, phi, h);
                let reference = reference_fixpoint(&c, LabelRule::General, phi, min_cut);
                assert_eq!(check.feasible, reference.is_some(), "{tag}");
                if let Some(reference) = reference {
                    assert_eq!(check.labels, reference.ls, "{tag}");
                }
            }
        }
        assert!(verdicts.iter().all(|&n| n > 0), "verdicts {verdicts:?}");
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
