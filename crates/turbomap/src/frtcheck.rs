//! FRTcheck: iterative label-pair computation (Figure 5 / Section 3.2).
//!
//! For a target clock period `Φ`, every node carries a lower-bound pair
//! `(l^s(v), r(v))` on its node label pair `(L^s(v), R(v))` (Definitions
//! 1–2): `l^s` is the l-value of the corresponding *simple* mapping
//! solution and `r` the number of registers pulled forward across the LUT.
//! Starting from `(0, 0)` at PIs and `(−∞, 0)` elsewhere, `LabelUpdate`
//! tightens the bounds monotonically via min-height-min-weight K-cuts on
//! the expanded circuits `F_v^{frt(v)}` until they converge to the label
//! pairs — or provably exceed the feasibility condition
//! `l^s(v) + Φ·r(v) ≤ Φ` (Corollary 1), in which case `Φ` is infeasible.
//!
//! Since lower bounds only grow and any node with `l^s(v) > Φ` already
//! violates Corollary 1 for every `r ≥ 0`, divergence is detected long
//! before the theoretical `|V|²` iteration cap.
//!
//! # Cut queries
//!
//! Every `LabelUpdate` asks `F_v^{frt(v)}` one question: the minimum cone
//! weight of a K-cut whose height is at most `ℒ^s(v)`. The context answers
//! it through the cut oracle it shares with the general-retiming baseline
//! (`crate::cutoracle`): a scan of the gate's cut list, enumerated once
//! per run ([`crate::cutenum`]), or for a gate whose list would exceed
//! [`CUT_CAP`] the bounded max-flow of [`crate::cutsearch`] on its own
//! expanded circuit. A label change re-queues the gates that list the
//! node as a cut leaf (for a fallback gate: whose expansion contains it)
//! — exactly the gates whose answers read it.
//!
//! # Sweep structure
//!
//! Each sweep walks the non-PI nodes in combinational topological order
//! on the calling thread and applies every update as soon as it is
//! computed, so later nodes of the same sweep already read it. A node is
//! recomputed only while dirty: some label its update reads changed since
//! its last update. Register edges may point either way in that order; a
//! node fed through one may compute against a stale fanin bound, and the
//! re-marking schedules it again. Chaotic iteration of a monotone system
//! converges to the same least fixpoint under any fair order.
//!
//! The same loop, cold-started and logging each `l^s` improvement as a
//! [`WitnessStep`], is the infeasibility witness of [`crate::witness`];
//! under the general-retiming `LabelRule` it is the label run of the
//! TurboMap baseline ([`crate::gencheck`]). Both need a
//! [`crate::prepare`]d network: the loop has no dead-logic filter, and a
//! gate that reaches no PO could otherwise climb to the `|V|²` cap.
//!
//! # Warm starts
//!
//! [`FrtContext::check_opts`] seeds `l^s` from the labels of a
//! previously *feasible* check at a strictly larger Φ′. Since the final
//! `l^s` values are pointwise non-decreasing as Φ shrinks, that seed is
//! still below this probe's least fixpoint, and monotone ascent from any
//! point below the least fixpoint converges exactly to it (`r` restarts
//! at 0 and reconverges the same way) — so a warm probe returns the same
//! answer as a cold one, minus the sweeps spent re-deriving what the
//! previous probe already proved.

use crate::cutenum::{CutArena, CutFault, CUT_CAP};
use crate::cutoracle::{CutAnswer, CutOracle};
use crate::cutsearch::{CutScratch, ExpCut};
use crate::expand::ExpandedCircuit;
use crate::witness::{WitnessOutcome, WitnessStep};
use netlist::{Circuit, NodeId};

/// Practical ceiling on the expanded circuits kept for flow-fallback
/// gates (those whose cut lists exceed [`CUT_CAP`]): such a gate's
/// `F_v^{frt(v)}` beyond this is treated as cut-less (conservative; never
/// triggered by the benchmark suite — see DESIGN.md). No other expansion
/// is capped.
pub const MAX_EXPANDED_NODES: usize = 500_000;

/// Sentinel for `−∞` labels.
pub const LS_NEG_INF: i64 = i64::MIN / 4;

/// Per-node label pairs.
#[derive(Debug, Clone)]
pub struct LabelPairs {
    /// `l^s` lower bounds, per node id.
    pub ls: Vec<i64>,
    /// `r` lower bounds, per node id.
    pub r: Vec<u64>,
}

/// Outcome of one FRTcheck run.
#[derive(Debug, Clone)]
pub struct FrtCheck {
    /// True when a feasible FRT mapping solution exists for the period.
    pub feasible: bool,
    /// Final label pairs (meaningful when feasible).
    pub labels: LabelPairs,
    /// Sweeps executed (the paper reports 5–15 in practice).
    pub iterations: usize,
}

/// What a label update accepts and what refutes Φ: the only differences
/// between FRTcheck and the general-retiming baseline (internal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LabelRule {
    /// FRTcheck (§3.2): `ℒ^s` stands when `ℒ^s + Φ·w_min ≤ Φ`, recording
    /// `r = w_min`; any `l^s > Φ` violates Corollary 1 for every `r ≥ 0`.
    Frt,
    /// General retiming (ICCD'96): `ℒ` stands when any cut exists and `r`
    /// stays 0; internal labels may exceed Φ (registers can be borrowed
    /// backward), so only a PO label above Φ refutes it.
    General,
}

/// How the sweep loop ended (internal).
pub(crate) enum SweepEnd {
    /// The installed cancel token tripped; partial labels, no records.
    Cancelled,
    /// The rule refutes Φ: an `l^s` (general rule: a PO label) exceeds it.
    Infeasible,
    /// The `|V|²` iteration cap was hit.
    IterationCap,
    /// A logging run met a capped fallback expansion, which no witness
    /// rule covers.
    Capped,
    /// Labels converged: Corollary 1 decides feasibility (under the
    /// general rule, every PO label is within Φ).
    Converged,
}

/// One node's tightened label pair, with the witness step that derives
/// its `l^s` (`None` for a capped fallback expansion: the update is
/// conservative, but no witness rule justifies it).
struct Update {
    ls: i64,
    r: u64,
    step: Option<WitnessStep>,
}

/// What both label computations sweep: a prepared network, its cut
/// oracle and the walk order. [`FrtContext`] and
/// [`crate::gencheck::GeneralContext`] differ only in the oracle's bounds
/// and the [`LabelRule`] (internal).
pub(crate) struct LabelSweeps<'a> {
    pub(crate) circuit: &'a Circuit,
    /// Every gate's cuts of `F_v^{b(v)}`, the flow-fallback expansions
    /// and the requeue index.
    pub(crate) oracle: CutOracle<'a>,
    /// The non-PI nodes in combinational topological order: the order
    /// every sweep walks.
    order: Vec<NodeId>,
}

/// Precomputed per-circuit state shared across FRTcheck runs (binary
/// search on `Φ` re-uses it).
pub struct FrtContext<'a> {
    /// Capped `frt(v)` per node.
    pub frt: Vec<u64>,
    /// Gates whose true `frt(v)` exceeded the cap, so their expanded
    /// circuits are truncated and the mapping may be pessimal for them.
    pub frt_capped_gates: u64,
    /// The oracle of every gate's cuts of `F_v^{frt(v)}`, and the walk.
    sweeps: LabelSweeps<'a>,
}

impl<'a> FrtContext<'a> {
    /// Builds the context: `frt` values (Lemma 1, Dijkstra) and every
    /// gate's cuts of `F_v^{frt(v)}` — enumerated **once** per run and
    /// scanned read-only by every Φ probe of the binary search.
    ///
    /// `frt_cap` bounds the forward-retiming horizon (Definition 3 allows
    /// arbitrarily large values on register-heavy inputs; the cap trades
    /// optimality for memory and is far beyond anything the benchmarks
    /// need). Gates actually truncated by the cap are counted in
    /// [`FrtContext::frt_capped_gates`], the `frt_capped` telemetry
    /// counter, and a structured warning — truncation is no longer
    /// silent.
    ///
    /// # Panics
    ///
    /// Panics on combinational cycles (validate first).
    pub fn new(circuit: &'a Circuit, k: usize, frt_cap: u64) -> FrtContext<'a> {
        FrtContext::with_cut_cap(circuit, k, frt_cap, CUT_CAP)
    }

    /// [`FrtContext::new`] with the cut-list length above which a gate
    /// falls back to max-flow.
    pub(crate) fn with_cut_cap(
        circuit: &'a Circuit,
        k: usize,
        frt_cap: u64,
        cut_cap: usize,
    ) -> FrtContext<'a> {
        let _span = engine::trace::span1("frt_context", "gates", circuit.num_gates() as u64);
        let raw_frt = retiming::max_forward_retiming_values(circuit);
        let mut frt_capped_gates = 0u64;
        for v in circuit.gate_ids() {
            if raw_frt[v.index()] > frt_cap {
                frt_capped_gates += 1;
            }
        }
        if frt_capped_gates > 0 {
            engine::telemetry::count(engine::telemetry::Counter::FrtCapped, frt_capped_gates);
            engine::log::warn(
                "turbomap::frtcheck",
                "weight horizon capped frt(v); mapping may be suboptimal for these gates",
                &[
                    ("gates", engine::JsonValue::UInt(frt_capped_gates)),
                    ("cap", engine::JsonValue::UInt(frt_cap)),
                ],
            );
        }
        let frt: Vec<u64> = raw_frt.into_iter().map(|f| f.min(frt_cap)).collect();
        let sweeps = LabelSweeps::new(circuit, frt.clone(), k, cut_cap);
        FrtContext {
            frt,
            frt_capped_gates,
            sweeps,
        }
    }

    /// The expanded circuit `F_v^{frt(v)}` of a gate, built on first use
    /// and kept; `None` for a non-gate, and for a flow-fallback gate whose
    /// expansion hit [`MAX_EXPANDED_NODES`]. Label updates read it only
    /// for fallback gates; `tmbench`'s per-layer cut-query measurement
    /// reads it for any.
    pub fn expanded(&self, v: NodeId) -> Option<&ExpandedCircuit> {
        self.sweeps.oracle.expanded(v)
    }

    /// The prepared network the context was built on.
    pub fn circuit(&self) -> &'a Circuit {
        self.sweeps.circuit
    }

    /// The cut lists the label updates scan.
    pub fn cut_arena(&self) -> &CutArena {
        self.sweeps.oracle.arena()
    }

    /// Plants `fault` in gate `v`'s cut list; false when the list has no
    /// such cut. A fault-injection hook for oracle tests: the context then
    /// answers label updates wrongly.
    #[doc(hidden)]
    pub fn inject_cut_fault(&mut self, v: NodeId, fault: CutFault) -> bool {
        self.sweeps.oracle.inject(v, fault)
    }

    /// The LUT input bound `K` the context was built for.
    pub fn k(&self) -> usize {
        self.sweeps.oracle.k()
    }

    /// The minimum cone weight of a K-cut of `F_v^{frt(v)}` whose height
    /// under labels `ls` is at most `height` — the question every
    /// `LabelUpdate` asks, answered as the sweeps answer it. `None` when
    /// no such cut exists, or when a fallback gate's expansion hit
    /// [`MAX_EXPANDED_NODES`].
    pub fn min_cut_weight(&self, ls: &[i64], v: NodeId, phi: u64, height: i64) -> Option<u64> {
        self.sweeps.min_cut_weight(ls, v, phi, height)
    }

    /// Runs FRTcheck for one target period, cold-started.
    pub fn check(&self, phi: u64) -> FrtCheck {
        self.check_opts(phi, None, 1)
    }

    /// Runs FRTcheck, optionally warm-started.
    ///
    /// * `warm` — label pairs of a previously **feasible** check of this
    ///   same context at a strictly larger Φ; their `l^s` seeds this run
    ///   (see the module docs for why that is sound). Pass `None` for a
    ///   cold start.
    /// * `_workers` — ignored; every sweep runs on the calling thread.
    pub fn check_opts(&self, phi: u64, warm: Option<&LabelPairs>, _workers: usize) -> FrtCheck {
        let phi_i = phi as i64;
        let mut labels = self.sweeps.cold_labels();
        if let Some(seed) = warm {
            debug_assert_eq!(seed.ls.len(), labels.ls.len());
            for &v in &self.sweeps.order {
                labels.ls[v.index()] = seed.ls[v.index()];
            }
        }
        let (end, iterations) = self
            .sweeps
            .sweep_loop(LabelRule::Frt, phi_i, &mut labels, None);
        let feasible = match end {
            // Converged: Corollary 1 must hold at every node.
            SweepEnd::Converged => (0..labels.ls.len()).all(|i| {
                labels.ls[i] <= LS_NEG_INF || labels.ls[i] + phi_i * labels.r[i] as i64 <= phi_i
            }),
            // `Capped` only ends a logging run.
            SweepEnd::Cancelled
            | SweepEnd::Infeasible
            | SweepEnd::IterationCap
            | SweepEnd::Capped => false,
        };
        FrtCheck {
            feasible,
            labels,
            iterations,
        }
    }

    /// Extracts, for every gate, the K-cut consistent with the final
    /// labels: height ≤ `l^s(v)`, cone weight ≤ `r(v)` — the near-sink
    /// max-flow cut of `F_v^{frt(v)}`, picked from the gate's cut list
    /// (see `crate::cutenum`).
    ///
    /// # Panics
    ///
    /// Panics if a cut cannot be re-derived (would contradict
    /// convergence).
    pub fn final_cuts(&self, labels: &LabelPairs, phi: u64) -> Vec<Option<ExpCut>> {
        self.sweeps.oracle.final_cuts(&labels.ls, phi as i64, |v| {
            let i = v.index();
            (labels.ls[i] > LS_NEG_INF).then_some((labels.ls[i], labels.r[i]))
        })
    }

    /// Re-runs the probe at `phi` cold, logging every `l^s` improvement as
    /// a replayable [`WitnessStep`] (see [`crate::witness`] for the
    /// certificate semantics). Intended for the `Φ_min − 1` probe: on a
    /// truly infeasible period the log ends with a step whose `value`
    /// exceeds `phi`, and an independent checker can replay the arithmetic
    /// without trusting the mapper.
    ///
    /// It is [`FrtContext::check`]'s own sweep loop, so it reaches the same
    /// verdict, and since each update is applied at once, a checker
    /// replaying the log in order sees exactly the labels each cut query
    /// ran against.
    pub fn infeasibility_witness(&self, phi: u64) -> WitnessOutcome {
        if self.frt_capped_gates > 0 {
            // R2/R3 justifications quantify over cuts of the *true*
            // F_v^{frt(v)}; a capped horizon hides cuts, so the log could
            // assert "no cut" where one exists and would not verify.
            return WitnessOutcome::Capped;
        }
        let mut labels = self.sweeps.cold_labels();
        let mut steps = Vec::new();
        let log = Some(&mut steps);
        let (end, _) = self
            .sweeps
            .sweep_loop(LabelRule::Frt, phi as i64, &mut labels, log);
        match end {
            SweepEnd::Cancelled => WitnessOutcome::Cancelled,
            SweepEnd::Infeasible => WitnessOutcome::Infeasible(steps),
            SweepEnd::IterationCap => WitnessOutcome::IterationCap,
            SweepEnd::Capped => WitnessOutcome::Capped,
            SweepEnd::Converged => WitnessOutcome::Feasible,
        }
    }
}

impl<'a> LabelSweeps<'a> {
    /// Lists every gate's cuts of `F_v^{bound[v]}` once, for every probe
    /// to scan. Panics on combinational cycles (validate first).
    pub(crate) fn new(
        circuit: &'a Circuit,
        bound: Vec<u64>,
        k: usize,
        cut_cap: usize,
    ) -> LabelSweeps<'a> {
        let order = circuit
            .comb_topo_order()
            .expect("combinational cycles must be rejected before mapping");
        let oracle = CutOracle::new(circuit, &order, bound, k, cut_cap);
        let order = order
            .into_iter()
            .filter(|&v| !circuit.node(v).is_input())
            .collect();
        LabelSweeps {
            circuit,
            oracle,
            order,
        }
    }

    /// The question every label update asks of `F_v^{b(v)}` (see
    /// [`FrtContext::min_cut_weight`]).
    pub(crate) fn min_cut_weight(&self, ls: &[i64], v: NodeId, phi: u64, h: i64) -> Option<u64> {
        let scratch = &mut CutScratch::new();
        match self.oracle.answer(ls, v, phi as i64, h, scratch) {
            CutAnswer::Weight(w) => Some(w),
            CutAnswer::NoCut | CutAnswer::Capped => None,
        }
    }

    /// The cold start of Figure 5: `(0, 0)` at PIs, `(−∞, 0)` elsewhere.
    pub(crate) fn cold_labels(&self) -> LabelPairs {
        let n = self.circuit.num_nodes();
        let mut labels = LabelPairs {
            ls: vec![LS_NEG_INF; n],
            r: vec![0; n],
        };
        for &pi in self.circuit.inputs() {
            labels.ls[pi.index()] = 0;
        }
        labels
    }

    /// The dirty-driven sweep loop under `rule`: walks `order`, applying
    /// each update at once. With `log`, every `l^s` improvement is
    /// appended as the witness step that justifies it, and a capped
    /// expansion ends the run; without, a probe that is not cancelled
    /// records its sweep count and cut queries. Returns the end state and
    /// the sweep count.
    pub(crate) fn sweep_loop(
        &self,
        rule: LabelRule,
        phi_i: i64,
        labels: &mut LabelPairs,
        mut log: Option<&mut Vec<WitnessStep>>,
    ) -> (SweepEnd, usize) {
        let c = self.circuit;
        let n = c.num_nodes();
        let cap = n.saturating_mul(n).max(4);
        let mut iterations = 0usize;
        let mut cut_queries = 0u64;
        // Dirty-driven sweeps: a node needs re-evaluation only when some
        // label its update reads changed since its last update (the
        // practical speed-up behind the paper's "5–15 iterations per Φ").
        // PIs are never dirty: nothing re-marks a node without fanins.
        let mut dirty: Vec<bool> = c.node_ids().map(|v| !c.node(v).is_input()).collect();
        let mut scratch = CutScratch::new();
        let end = 'sweeps: loop {
            // Cancellation: when the batch runner's deadline (or an
            // external cancel) trips the installed token, bail out; the
            // driver re-checks the token and maps the early exit to
            // `TurboMapError::Cancelled`, never using the partial labels.
            if engine::cancel::cancelled() {
                break SweepEnd::Cancelled;
            }
            iterations += 1;
            engine::telemetry::count(engine::telemetry::Counter::FrtSweeps, 1);
            let _sweep = engine::trace::span1("frtcheck_sweep", "n", iterations as u64);
            let mut changed = false;
            for &v in &self.order {
                let i = v.index();
                if !dirty[i] {
                    continue;
                }
                dirty[i] = false;
                if engine::cancel::cancelled() {
                    break 'sweeps SweepEnd::Cancelled;
                }
                if c.node(v).is_gate() {
                    cut_queries += 1;
                }
                let Some(up) = self.label_update(rule, &labels.ls, v, phi_i, &mut scratch) else {
                    continue; // no information yet
                };
                if up.step.is_none() && log.is_some() {
                    break 'sweeps SweepEnd::Capped;
                }
                if (up.ls, up.r) <= (labels.ls[i], labels.r[i]) {
                    continue;
                }
                if let (true, Some(log), Some(step)) =
                    (up.ls > labels.ls[i], log.as_deref_mut(), up.step)
                {
                    log.push(step);
                }
                labels.ls[i] = up.ls;
                labels.r[i] = up.r;
                changed = true;
                // Direct fanouts see the change through ℒ^s; gates reading
                // the node through their cut answers see it through the
                // cut heights.
                let fanouts = c.node(v).fanout().iter().map(|&e| c.edge(e).to().0);
                for t in fanouts.chain(self.oracle.requeue(i).iter().copied()) {
                    if !dirty[t as usize] {
                        dirty[t as usize] = true;
                        engine::telemetry::count(engine::telemetry::Counter::FrtRequeuedGates, 1);
                    }
                }
                if up.ls > phi_i && (rule == LabelRule::Frt || c.node(v).is_output()) {
                    break 'sweeps SweepEnd::Infeasible;
                }
            }
            if !changed {
                break SweepEnd::Converged;
            }
            if iterations >= cap {
                break SweepEnd::IterationCap;
            }
        };
        if log.is_none() && !matches!(end, SweepEnd::Cancelled) {
            engine::telemetry::record(engine::hist::Metric::SweepsPerPhi, iterations as u64);
            engine::telemetry::record(engine::hist::Metric::CacheHitsPerProbe, cut_queries);
        }
        (end, iterations)
    }

    /// `LabelUpdate` (§3.2) under `rule` for a gate, `ℒ^s` itself for a
    /// PO, against the current labels; `None` when the fanins carry no
    /// information yet. `ℒ^s(v) = max { l^s(u) − Φ·w(e) }` over fanin
    /// edges, and its argmax edge is the R1 justification.
    fn label_update(
        &self,
        rule: LabelRule,
        ls: &[i64],
        v: NodeId,
        phi: i64,
        scratch: &mut CutScratch,
    ) -> Option<Update> {
        let mut script = LS_NEG_INF;
        let mut arg = None;
        for &e in self.circuit.node(v).fanin() {
            let edge = self.circuit.edge(e);
            let lu = ls[edge.from().index()];
            if lu > LS_NEG_INF {
                let cand = lu - phi * edge.weight() as i64;
                if cand > script {
                    script = cand;
                    arg = Some((edge.from(), edge.weight() as u64));
                }
            }
        }
        let (from, weight) = arg?;
        let fanin = |r| Update {
            ls: script,
            r,
            step: Some(WitnessStep::Fanin {
                node: v,
                from,
                weight,
                value: script,
            }),
        };
        if self.circuit.node(v).is_output() {
            return Some(fanin(0));
        }
        let step = match self.oracle.answer(ls, v, phi, script, scratch) {
            CutAnswer::Weight(_) if rule == LabelRule::General => return Some(fanin(0)),
            CutAnswer::Weight(w_min) if script + phi * w_min as i64 <= phi => {
                return Some(fanin(w_min))
            }
            CutAnswer::Weight(w_min) => Some(WitnessStep::WeightBump {
                node: v,
                height: script,
                w_min,
                value: script + 1,
            }),
            CutAnswer::NoCut => Some(WitnessStep::NoCut {
                node: v,
                height: script,
                value: script + 1,
            }),
            // A capped expansion: conservative, but no rule justifies it.
            CutAnswer::Capped => None,
        };
        Some(Update {
            ls: script + 1,
            r: 0,
            step,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cutoracle::tests::leaf_set;
    use netlist::{Bit, TruthTable};

    /// Figure 2(a) of the paper (our reconstruction): a 2-gate chain from
    /// i1 plus a register-carrying side path, K = 3. The paper's point:
    /// Φ = 2 has no *simple* FRT solution but does have a non-simple one.
    fn chainy() -> Circuit {
        let mut c = Circuit::new("t");
        let i1 = c.add_input("i1").unwrap();
        let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let g3 = c.add_gate("g3", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i1, g1, vec![Bit::Zero]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(g3, o, vec![]).unwrap();
        c
    }

    #[test]
    fn pis_stay_zero() {
        let c = chainy();
        let ctx = FrtContext::new(&c, 2, 32);
        let res = ctx.check(3);
        assert!(res.feasible);
        for &pi in c.inputs() {
            assert_eq!(res.labels.ls[pi.index()], 0);
            assert_eq!(res.labels.r[pi.index()], 0);
        }
    }

    #[test]
    fn single_lut_when_k_large() {
        // Whole chain fits one LUT; with the register pulled forward
        // (r = 1), Φ = 1 becomes feasible... the cut {i1^1} has weight 1:
        // l^s = 0 - Φ·1 + ... cut height = l(i1) - Φ·1 + 1 = -Φ + 1 ≤ 0.
        let c = chainy();
        let ctx = FrtContext::new(&c, 3, 32);
        let res = ctx.check(1);
        assert!(res.feasible, "labels: {:?}", res.labels);
        let g3 = c.find("g3").unwrap();
        assert!(res.labels.ls[g3.index()] + res.labels.r[g3.index()] as i64 <= 1);
    }

    #[test]
    fn k1_collapses_inverter_chain() {
        // With K=1 the whole inverter chain is a single 1-input LUT, so
        // pulling the register forward gives Φ = 1.
        let c = chainy();
        let ctx = FrtContext::new(&c, 1, 32);
        assert!(ctx.check(1).feasible);
    }

    #[test]
    fn wide_chain_needs_period_two() {
        // Each gate mixes the chain with a fresh PI: at K=2 every gate is
        // its own LUT, and the single register can only split the 3-LUT
        // path as 1+2 → Φ=2 optimal, Φ=1 infeasible.
        let mut c = Circuit::new("w");
        let i1 = c.add_input("i1").unwrap();
        let i2 = c.add_input("i2").unwrap();
        let i3 = c.add_input("i3").unwrap();
        let i4 = c.add_input("i4").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::or(2)).unwrap();
        let g3 = c.add_gate("g3", TruthTable::xor(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i1, g1, vec![Bit::Zero]).unwrap();
        c.connect(i2, g1, vec![Bit::Zero]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(i3, g2, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(i4, g3, vec![]).unwrap();
        c.connect(g3, o, vec![]).unwrap();
        let ctx = FrtContext::new(&c, 2, 32);
        assert!(!ctx.check(1).feasible);
        assert!(ctx.check(2).feasible);
    }

    #[test]
    fn iterations_reported_small() {
        let c = chainy();
        let ctx = FrtContext::new(&c, 2, 32);
        let res = ctx.check(2);
        assert!(res.feasible);
        assert!(res.iterations <= 10, "iterations = {}", res.iterations);
    }

    #[test]
    fn labels_monotone_under_phi() {
        // Feasibility is monotone in Φ.
        let c = chainy();
        for k in 1..=3 {
            let ctx = FrtContext::new(&c, k, 32);
            let mut prev = false;
            for phi in 1..=4 {
                let f = ctx.check(phi).feasible;
                assert!(!prev || f, "k={k} phi={phi}");
                prev = f;
            }
        }
    }

    #[test]
    fn final_cuts_respect_labels() {
        let c = chainy();
        let ctx = FrtContext::new(&c, 2, 32);
        let res = ctx.check(2);
        assert!(res.feasible);
        let cuts = ctx.final_cuts(&res.labels, 2);
        for v in c.gate_ids() {
            let cut = cuts[v.index()].as_ref().expect("gate cut");
            assert!(cut.signals.len() <= 2);
            for s in &cut.signals {
                let h = res.labels.ls[s.node.index()] - 2 * s.weight as i64 + 1;
                assert!(h <= res.labels.ls[v.index()]);
            }
        }
    }

    #[test]
    fn cycle_ratio_infeasibility_detected() {
        // 3-gate register loop, one register, and a fresh PI into every
        // loop gate: at K=2 no LUT can absorb two loop gates (3 distinct
        // inputs), so the loop stays 3 LUTs with 1 register → Φ ≥ 3.
        let mut c = Circuit::new("loop");
        let a1 = c.add_input("a1").unwrap();
        let a2 = c.add_input("a2").unwrap();
        let a3 = c.add_input("a3").unwrap();
        let g1 = c.add_gate("g1", TruthTable::xor(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::and(2)).unwrap();
        let g3 = c.add_gate("g3", TruthTable::or(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a1, g1, vec![]).unwrap();
        c.connect(g3, g1, vec![Bit::Zero]).unwrap();
        c.connect(a2, g2, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(a3, g3, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(g3, o, vec![]).unwrap();
        let ctx = FrtContext::new(&c, 2, 32);
        assert!(!ctx.check(2).feasible);
        assert!(ctx.check(3).feasible);
    }

    #[test]
    fn warm_start_reaches_the_same_fixpoint() {
        let c = chainy();
        for k in 1..=3 {
            let ctx = FrtContext::new(&c, k, 32);
            for upper in 2..=4u64 {
                let seed = ctx.check(upper);
                if !seed.feasible {
                    continue;
                }
                for phi in 1..upper {
                    let cold = ctx.check(phi);
                    let warm = ctx.check_opts(phi, Some(&seed.labels), 1);
                    assert_eq!(cold.feasible, warm.feasible, "k={k} phi={phi}");
                    if cold.feasible {
                        assert_eq!(cold.labels.ls, warm.labels.ls, "k={k} phi={phi}");
                        assert_eq!(cold.labels.r, warm.labels.r, "k={k} phi={phi}");
                    }
                    assert!(
                        warm.iterations <= cold.iterations,
                        "warm start must not add sweeps (k={k} phi={phi})"
                    );
                }
            }
        }
    }

    /// A context keeps no state between probes: the Φ search may ask it
    /// the same question twice and must get the same answer.
    #[test]
    fn repeated_checks_are_identical() {
        let c = chainy();
        for k in 1..=3 {
            let ctx = FrtContext::new(&c, k, 32);
            for phi in 1..=4u64 {
                let first = ctx.check(phi);
                let again = ctx.check(phi);
                assert_eq!(first.feasible, again.feasible, "k={k} phi={phi}");
                assert_eq!(first.iterations, again.iterations, "k={k} phi={phi}");
                assert_eq!(first.labels.ls, again.labels.ls, "k={k} phi={phi}");
                assert_eq!(first.labels.r, again.labels.r, "k={k} phi={phi}");
            }
        }
    }

    /// An FSM prepared for K, the shape of the Table-1 circuits.
    pub(crate) fn fsm(seed: u64, k: usize, registered_inputs: bool) -> Circuit {
        let c = workloads::generate_fsm(&workloads::FsmSpec {
            name: format!("f{seed}"),
            states: 9,
            inputs: 4,
            decoded: 2,
            outputs: 2,
            encoding: workloads::Encoding::Binary,
            registered_inputs,
            seed,
        });
        crate::prepare(&c, k).unwrap()
    }

    /// The label pairs the sweeps must converge to under `rule`, by plain
    /// round-robin iteration: every non-PI node recomputed every round
    /// through `min_cut` (a context's `min_cut_weight` at Φ), with no
    /// dirty flags and no requeue index. `None` once the rule refutes Φ.
    pub(crate) fn reference_fixpoint(
        c: &Circuit,
        rule: LabelRule,
        phi: u64,
        min_cut: impl Fn(&[i64], NodeId, i64) -> Option<u64>,
    ) -> Option<LabelPairs> {
        let p = phi as i64;
        let n = c.num_nodes();
        let (mut ls, mut r) = (vec![LS_NEG_INF; n], vec![0u64; n]);
        for &pi in c.inputs() {
            ls[pi.index()] = 0;
        }
        loop {
            let mut changed = false;
            for v in c.node_ids().filter(|&v| !c.node(v).is_input()) {
                let script = c
                    .node(v)
                    .fanin()
                    .iter()
                    .map(|&e| c.edge(e))
                    .filter(|edge| ls[edge.from().index()] > LS_NEG_INF)
                    .map(|edge| ls[edge.from().index()] - p * edge.weight() as i64)
                    .max();
                let Some(script) = script else { continue };
                let pair = match min_cut(&ls, v, script) {
                    _ if c.node(v).is_output() => (script, 0),
                    Some(_) if rule == LabelRule::General => (script, 0),
                    Some(w) if script + p * w as i64 <= p => (script, w),
                    _ => (script + 1, 0),
                };
                if pair > (ls[v.index()], r[v.index()]) {
                    (ls[v.index()], r[v.index()]) = pair;
                    changed = true;
                    if pair.0 > p && (rule == LabelRule::Frt || c.node(v).is_output()) {
                        return None;
                    }
                }
            }
            if !changed {
                return Some(LabelPairs { ls, r });
            }
        }
    }

    /// The dirty-driven sweeps reach the reference fixpoint, and the
    /// witness run of the same loop refutes exactly the infeasible periods.
    #[test]
    fn check_matches_the_reference_fixpoint() {
        let fsms = [(11, 4), (12, 4), (13, 5), (14, 5)].map(|(seed, k)| (fsm(seed, k, true), k));
        let cases = (1..=3).map(|k| (chainy(), k)).chain(fsms);
        let mut verdicts = [0; 2];
        for (c, k) in cases {
            let ctx = FrtContext::new(&c, k, 32);
            for phi in 1..=6 {
                let tag = format!("{} k {k} phi {phi}", c.name());
                let check = ctx.check(phi);
                verdicts[check.feasible as usize] += 1;
                let min_cut = |ls: &[i64], v, h| ctx.min_cut_weight(ls, v, phi, h);
                let reference = reference_fixpoint(&c, LabelRule::Frt, phi, min_cut);
                assert_eq!(check.feasible, reference.is_some(), "{tag}");
                if let Some(reference) = reference {
                    assert_eq!(check.labels.ls, reference.ls, "{tag}");
                    assert_eq!(check.labels.r, reference.r, "{tag}");
                }
                match ctx.infeasibility_witness(phi) {
                    WitnessOutcome::Infeasible(steps) => {
                        assert!(!check.feasible, "{tag}");
                        assert_witness_shape(&c, phi, &steps);
                    }
                    WitnessOutcome::Feasible => assert!(check.feasible, "{tag}"),
                    other => panic!("unexpected outcome {other:?} ({tag})"),
                }
            }
        }
        assert!(verdicts.iter().all(|&n| n > 0), "verdicts {verdicts:?}");
    }

    /// A cut cap of 1 sends most gates — and every gate whose cone may
    /// absorb one of them — to the max-flow fallback; the probes and the
    /// final cuts must not notice.
    #[test]
    fn tiny_cut_cap_falls_back_to_flow_with_identical_results() {
        for (seed, k) in [(11, 4), (12, 3), (13, 5)] {
            let c = fsm(seed, k, true);
            let exact = FrtContext::new(&c, k, 32);
            let capped = FrtContext::with_cut_cap(&c, k, 32, 1);
            assert!(c.gate_ids().any(|v| capped.cut_arena().is_fallback(v)));
            for phi in 1..=6 {
                let (a, b) = (exact.check(phi), capped.check(phi));
                assert_eq!(a.feasible, b.feasible, "seed {seed} phi {phi}");
                assert_eq!(a.iterations, b.iterations, "seed {seed} phi {phi}");
                assert_eq!(a.labels.ls, b.labels.ls, "seed {seed} phi {phi}");
                assert_eq!(a.labels.r, b.labels.r, "seed {seed} phi {phi}");
                if a.feasible {
                    let (x, y) = (
                        exact.final_cuts(&a.labels, phi),
                        capped.final_cuts(&b.labels, phi),
                    );
                    for v in c.gate_ids() {
                        assert_eq!(
                            leaf_set(x[v.index()].as_ref()),
                            leaf_set(y[v.index()].as_ref()),
                            "seed {seed} phi {phi} {v:?}"
                        );
                    }
                }
            }
        }
    }

    /// The inverted cone-membership index the cut-leaf index replaced:
    /// node → gates whose expanded circuits contain it.
    fn cone_index(c: &Circuit, frt: &[u64]) -> graphalgo::Csr {
        let mut pairs = Vec::new();
        for v in c.gate_ids() {
            let exp = ExpandedCircuit::build(c, v, frt[v.index()], usize::MAX).unwrap();
            let mut nodes: Vec<usize> = exp.nodes.iter().map(|en| en.node.index()).collect();
            nodes.sort_unstable();
            nodes.dedup();
            pairs.extend(nodes.into_iter().map(|x| (x, v.index())));
        }
        graphalgo::Csr::from_edges(c.num_nodes(), &pairs)
    }

    /// Re-queueing only the gates that list a node as a cut leaf skips
    /// exactly the recomputations that could not change anything.
    #[test]
    fn cut_leaf_requeue_matches_the_cone_index() {
        for (seed, k) in [(11, 4), (14, 5)] {
            let c = fsm(seed, k, true);
            let leaf = FrtContext::new(&c, k, 32);
            let mut cone = FrtContext::new(&c, k, 32);
            cone.sweeps.oracle.set_requeue(cone_index(&c, &cone.frt));
            for phi in 1..=6 {
                let (a, b) = (leaf.check(phi), cone.check(phi));
                let tag = format!("seed {seed} phi {phi}");
                assert_eq!(a.feasible, b.feasible, "{tag}");
                assert_eq!(a.iterations, b.iterations, "{tag}");
                assert_eq!(a.labels.ls, b.labels.ls, "{tag}");
                assert_eq!(a.labels.r, b.labels.r, "{tag}");
                assert_eq!(
                    leaf.infeasibility_witness(phi),
                    cone.infeasibility_witness(phi),
                    "seed {seed} phi {phi}"
                );
            }
        }
    }

    /// Replays a witness log the way the independent checker does (same
    /// label array, rules accepted at face value) — here we only assert
    /// the structural invariants the checker relies on: steps in replay
    /// order never cite labels that have not been derived yet, and the
    /// terminal value exceeds the probed period.
    fn assert_witness_shape(c: &Circuit, phi: u64, steps: &[WitnessStep]) {
        let phi_i = phi as i64;
        let mut cur = vec![LS_NEG_INF; c.num_nodes()];
        for &pi in c.inputs() {
            cur[pi.index()] = 0;
        }
        for step in steps {
            if let WitnessStep::Fanin {
                node,
                from,
                weight,
                value,
            } = step
            {
                assert!(cur[from.index()] > LS_NEG_INF, "R1 cites underived label");
                assert_eq!(*value, cur[from.index()] - phi_i * *weight as i64);
                assert!(c.node(*node).fanin().iter().any(|&e| {
                    let edge = c.edge(e);
                    edge.from() == *from && edge.weight() as u64 == *weight
                }));
            }
            let v = step.node().index();
            assert!(step.value() > cur[v], "step does not improve its node");
            cur[v] = step.value();
        }
        let last = steps.last().expect("non-empty witness");
        assert!(last.value() > phi_i, "terminal value must exceed Φ");
    }

    #[test]
    fn witness_for_cycle_ratio_infeasibility() {
        // Same register-loop circuit as `cycle_ratio_infeasibility_detected`:
        // Φ = 2 infeasible at K = 2.
        let mut c = Circuit::new("loop");
        let a1 = c.add_input("a1").unwrap();
        let a2 = c.add_input("a2").unwrap();
        let a3 = c.add_input("a3").unwrap();
        let g1 = c.add_gate("g1", TruthTable::xor(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::and(2)).unwrap();
        let g3 = c.add_gate("g3", TruthTable::or(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a1, g1, vec![]).unwrap();
        c.connect(g3, g1, vec![Bit::Zero]).unwrap();
        c.connect(a2, g2, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(a3, g3, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(g3, o, vec![]).unwrap();
        let ctx = FrtContext::new(&c, 2, 32);
        match ctx.infeasibility_witness(2) {
            WitnessOutcome::Infeasible(steps) => assert_witness_shape(&c, 2, &steps),
            other => panic!("expected a witness, got {other:?}"),
        }
        assert_eq!(ctx.infeasibility_witness(3), WitnessOutcome::Feasible);
    }

    #[test]
    fn witness_probe_handles_phi_zero() {
        // Φ = 0 (the probe below Φ_min = 1): any gate fed by a PI refutes
        // it, giving the shortest possible derivation.
        let c = chainy();
        let ctx = FrtContext::new(&c, 3, 32);
        match ctx.infeasibility_witness(0) {
            WitnessOutcome::Infeasible(steps) => assert_witness_shape(&c, 0, &steps),
            other => panic!("expected a witness, got {other:?}"),
        }
    }

    #[test]
    fn witness_unavailable_when_frt_capped() {
        let mut c = Circuit::new("deep");
        let i = c.add_input("i").unwrap();
        let mut prev = i;
        for d in 0..6u64 {
            let g = c.add_gate(format!("g{d}"), TruthTable::not()).unwrap();
            c.connect(prev, g, vec![Bit::Zero]).unwrap();
            prev = g;
        }
        let o = c.add_output("o").unwrap();
        c.connect(prev, o, vec![]).unwrap();
        let ctx = FrtContext::new(&c, 2, 3);
        assert!(ctx.frt_capped_gates > 0);
        assert_eq!(ctx.infeasibility_witness(1), WitnessOutcome::Capped);
    }

    #[test]
    fn frt_cap_truncation_is_counted() {
        // A register chain deeper than the cap: every gate past the cap
        // has frt(v) above it.
        let mut c = Circuit::new("deep");
        let i = c.add_input("i").unwrap();
        let mut prev = i;
        let depth = 6u64;
        for d in 0..depth {
            let g = c.add_gate(format!("g{d}"), TruthTable::not()).unwrap();
            c.connect(prev, g, vec![Bit::Zero]).unwrap();
            prev = g;
        }
        let o = c.add_output("o").unwrap();
        c.connect(prev, o, vec![]).unwrap();
        // Cap below the chain depth: gates at register depth cap+1.. are
        // truncated. frt(g_d) = d+1 registers from the PI.
        let cap = 3u64;
        let ctx = FrtContext::new(&c, 2, cap);
        assert_eq!(ctx.frt_capped_gates, depth - cap);
        for d in 0..depth {
            let g = c.find(&format!("g{d}")).unwrap();
            assert!(ctx.frt[g.index()] <= cap);
        }
        // An ample cap reports nothing.
        let ctx2 = FrtContext::new(&c, 2, 64);
        assert_eq!(ctx2.frt_capped_gates, 0);
    }
}
