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
//! # Sweep structure: level-synchronized, two-phase
//!
//! Each sweep walks the topological levels of the combinational graph on
//! the calling thread. Per level, the dirty nodes' updates are
//! **computed** against the labels as they stood at the start of the
//! level, then **applied** in node order. The per-level snapshot fixes
//! how many sweeps a probe takes (applying each update at once would let
//! later nodes of the level see it, and change the `frt_sweeps` and
//! `sweeps_per_phi` figures the canonical artifacts record). Register
//! edges may point within or across levels in either direction; that only
//! means an update can be computed against a slightly stale fanin bound,
//! and the dirty re-marking in the apply phase schedules the node again —
//! chaotic iteration of a monotone system converges to the same least
//! fixpoint under any fair order.
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

/// Smallest dirty-task count of a level the `parallel_batch_size`
/// histogram records.
const PAR_THRESHOLD: usize = 4;

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

/// How a sweep loop ended (internal).
enum SweepEnd {
    /// The installed cancel token tripped; partial labels, no records.
    Cancelled,
    /// Corollary 1 provably violated (or the iteration cap was hit).
    Infeasible,
    /// Labels converged; Corollary 1 decides feasibility.
    Converged,
}

/// Precomputed per-circuit state shared across FRTcheck runs (binary
/// search on `Φ` re-uses it).
pub struct FrtContext<'a> {
    circuit: &'a Circuit,
    /// Capped `frt(v)` per node.
    pub frt: Vec<u64>,
    /// Gates whose true `frt(v)` exceeded the cap, so their expanded
    /// circuits are truncated and the mapping may be pessimal for them.
    pub frt_capped_gates: u64,
    /// Every gate's cuts of `F_v^{frt(v)}`, the flow-fallback expansions
    /// and the requeue index.
    oracle: CutOracle<'a>,
    /// Topological levels over zero-weight edges: level `d` lists the
    /// non-PI nodes at combinational depth `d`, in topological order.
    /// Within a level no zero-weight edge connects two members, so the
    /// level's updates read no label the same level writes through one.
    levels: Levels,
}

/// Topological levels in flat form: the nodes of level `d` are
/// `nodes[off[d]..off[d + 1]]` — one arena for the whole partition
/// instead of a `Vec` per depth.
#[derive(Debug, Clone, Default)]
pub(crate) struct Levels {
    off: Vec<u32>,
    nodes: Vec<u32>,
}

impl Levels {
    /// Number of levels.
    pub(crate) fn len(&self) -> usize {
        self.off.len().saturating_sub(1)
    }

    /// The nodes of level `d`, in topological order.
    pub(crate) fn level(&self, d: usize) -> &[u32] {
        &self.nodes[self.off[d] as usize..self.off[d + 1] as usize]
    }

    /// Iterates the levels shallow-to-deep.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).map(move |d| self.level(d))
    }

    /// Total node count across all levels.
    #[cfg(test)]
    pub(crate) fn total(&self) -> usize {
        self.nodes.len()
    }
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
        let order = circuit
            .comb_topo_order()
            .expect("combinational cycles must be rejected before mapping");
        let levels = comb_levels(circuit, &order);
        let oracle = CutOracle::new(circuit, &order, frt.clone(), k, cut_cap);
        FrtContext {
            circuit,
            frt,
            frt_capped_gates,
            oracle,
            levels,
        }
    }

    /// The expanded circuit `F_v^{frt(v)}` of a gate, built on first use
    /// and kept; `None` for a non-gate, and for a flow-fallback gate whose
    /// expansion hit [`MAX_EXPANDED_NODES`]. Label updates read it only
    /// for fallback gates; reports and measurements read it for any.
    pub fn expanded(&self, v: NodeId) -> Option<&ExpandedCircuit> {
        self.oracle.expanded(v)
    }

    /// The cut lists the label updates scan.
    pub fn cut_arena(&self) -> &CutArena {
        self.oracle.arena()
    }

    /// Plants `fault` in gate `v`'s cut list; false when the list has no
    /// such cut. A fault-injection hook for oracle tests: the context then
    /// answers label updates wrongly.
    #[doc(hidden)]
    pub fn inject_cut_fault(&mut self, v: NodeId, fault: CutFault) -> bool {
        self.oracle.inject(v, fault)
    }

    /// The LUT input bound `K` the context was built for.
    pub fn k(&self) -> usize {
        self.oracle.k()
    }

    /// The minimum cone weight of a K-cut of `F_v^{frt(v)}` whose height
    /// under labels `ls` is at most `height` — the question every
    /// `LabelUpdate` asks, answered as the sweeps answer it. `None` when
    /// no such cut exists, or when a fallback gate's expansion hit
    /// [`MAX_EXPANDED_NODES`].
    pub fn min_cut_weight(&self, ls: &[i64], v: NodeId, phi: u64, height: i64) -> Option<u64> {
        match self
            .oracle
            .answer(ls, v, phi as i64, height, &mut CutScratch::new())
        {
            CutAnswer::Weight(w) => Some(w),
            CutAnswer::NoCut | CutAnswer::Capped => None,
        }
    }

    /// `ℒ^s(v) = max { l^s(u) − Φ·w(e) }` over fanin edges (§3.2).
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
        let c = self.circuit;
        let n = c.num_nodes();
        let phi_i = phi as i64;
        let mut labels = LabelPairs {
            ls: vec![LS_NEG_INF; n],
            r: vec![0; n],
        };
        for &pi in c.inputs() {
            labels.ls[pi.index()] = 0;
        }
        if let Some(seed) = warm {
            debug_assert_eq!(seed.ls.len(), n);
            for v in c.node_ids() {
                if !c.node(v).is_input() {
                    labels.ls[v.index()] = seed.ls[v.index()];
                }
            }
        }
        let (end, iterations, cut_queries) = self.sweep_loop(phi_i, &mut labels);
        match end {
            SweepEnd::Cancelled => FrtCheck {
                feasible: false,
                labels,
                iterations,
            },
            SweepEnd::Infeasible => {
                record_probe_metrics(iterations, cut_queries);
                FrtCheck {
                    feasible: false,
                    labels,
                    iterations,
                }
            }
            SweepEnd::Converged => {
                record_probe_metrics(iterations, cut_queries);
                // Converged: Corollary 1 must hold at every node.
                let feasible = c.node_ids().all(|v| {
                    let i = v.index();
                    labels.ls[i] <= LS_NEG_INF || labels.ls[i] + phi_i * labels.r[i] as i64 <= phi_i
                });
                FrtCheck {
                    feasible,
                    labels,
                    iterations,
                }
            }
        }
    }

    /// The dirty-driven sweep loop of the compute-then-apply scheme.
    /// Returns the end state, the sweep count, and the number of gate
    /// label updates (cut queries) it scheduled.
    fn sweep_loop(&self, phi_i: i64, labels: &mut LabelPairs) -> (SweepEnd, usize, u64) {
        let c = self.circuit;
        let n = c.num_nodes();
        let cap = n.saturating_mul(n).max(4);
        let mut iterations = 0usize;
        let mut cut_queries = 0u64;
        // Dirty-driven sweeps: a node needs re-evaluation only when some
        // label its update reads changed since its last update (the
        // practical speed-up behind the paper's "5–15 iterations per Φ").
        let mut dirty = vec![true; n];
        let mut tasks: Vec<u32> = Vec::new();
        let mut results: Vec<Option<(i64, u64)>> = Vec::new();
        let mut scratch = CutScratch::new();
        loop {
            // Sweep-granular cancellation: when the batch runner's deadline
            // (or an external cancel) trips the installed token, bail out
            // as "infeasible" — the driver re-checks the token and maps
            // the early exit to `TurboMapError::Cancelled`, never using
            // the partial labels. (`compute_node` additionally
            // short-circuits per task, so a tripped token also drains the
            // level in flight at full speed.)
            if engine::cancel::cancelled() {
                return (SweepEnd::Cancelled, iterations, cut_queries);
            }
            iterations += 1;
            engine::telemetry::count(engine::telemetry::Counter::FrtSweeps, 1);
            let _sweep = engine::trace::span1("frtcheck_sweep", "n", iterations as u64);
            let mut changed = false;
            for level in self.levels.iter() {
                // Phase 1: collect this level's dirty nodes. The flags
                // clear now; the apply phase below may re-mark them.
                tasks.clear();
                for &vi in level {
                    if dirty[vi as usize] {
                        dirty[vi as usize] = false;
                        tasks.push(vi);
                    }
                }
                if tasks.is_empty() {
                    continue;
                }
                cut_queries += tasks
                    .iter()
                    .filter(|&&vi| c.node(NodeId(vi)).is_gate())
                    .count() as u64;
                if tasks.len() >= PAR_THRESHOLD {
                    engine::telemetry::record(
                        engine::hist::Metric::ParallelBatchSize,
                        tasks.len() as u64,
                    );
                }
                // Phase 2: compute every update against the labels as they
                // stood at the start of the level.
                results.clear();
                results.extend(
                    tasks
                        .iter()
                        .map(|&t| self.compute_node(&labels.ls, NodeId(t), phi_i, &mut scratch)),
                );
                // Phase 3: apply in task order, re-marking dependents.
                for (&t, &res) in tasks.iter().zip(&results) {
                    let (new_ls, new_r) = match res {
                        Some(pair) => pair,
                        None => continue, // no information yet
                    };
                    let i = t as usize;
                    if new_ls > labels.ls[i] || (new_ls == labels.ls[i] && new_r > labels.r[i]) {
                        labels.ls[i] = new_ls;
                        labels.r[i] = new_r;
                        changed = true;
                        // Direct fanouts see the change through ℒ^s; gates
                        // reading the node through their cut answers see
                        // it through the cut heights.
                        for &e in c.node(NodeId(t)).fanout() {
                            let t = c.edge(e).to().index();
                            if !dirty[t] {
                                dirty[t] = true;
                                engine::telemetry::count(
                                    engine::telemetry::Counter::FrtRequeuedGates,
                                    1,
                                );
                            }
                        }
                        for &g in self.oracle.requeue(i) {
                            if !dirty[g as usize] {
                                dirty[g as usize] = true;
                                engine::telemetry::count(
                                    engine::telemetry::Counter::FrtRequeuedGates,
                                    1,
                                );
                            }
                        }
                        if new_ls > phi_i {
                            // Lower bound already violates Corollary 1 for
                            // every r ≥ 0: infeasible.
                            return (SweepEnd::Infeasible, iterations, cut_queries);
                        }
                    }
                }
            }
            if !changed {
                return (SweepEnd::Converged, iterations, cut_queries);
            }
            if iterations >= cap {
                return (SweepEnd::Infeasible, iterations, cut_queries);
            }
        }
    }

    /// One node's tightened pair against the level's labels: `ℒ^s` plus
    /// `LabelUpdate` for gates, `ℒ^s` itself for POs, `None` when the
    /// fanins carry no information yet (or cancellation tripped — the
    /// sweep is about to be discarded, so stop answering cut queries).
    fn compute_node(
        &self,
        ls: &[i64],
        v: NodeId,
        phi: i64,
        scratch: &mut CutScratch,
    ) -> Option<(i64, u64)> {
        if engine::cancel::cancelled() {
            return None;
        }
        if self.circuit.node(v).is_output() {
            let script = self.script_l(ls, v, phi);
            if script <= LS_NEG_INF {
                return None;
            }
            return Some((script, 0));
        }
        self.label_update(ls, v, phi, scratch)
    }

    /// `LabelUpdate` (§3.2): the tightened pair for a gate, or `None` when
    /// the fanins carry no information yet.
    fn label_update(
        &self,
        ls: &[i64],
        v: NodeId,
        phi: i64,
        scratch: &mut CutScratch,
    ) -> Option<(i64, u64)> {
        let script = self.script_l(ls, v, phi);
        if script <= LS_NEG_INF {
            return None;
        }
        match self.oracle.answer(ls, v, phi, script, scratch) {
            CutAnswer::Weight(w_min) if script + phi * w_min as i64 <= phi => Some((script, w_min)),
            // No cut, a cut too heavy for Corollary 1, or a capped
            // expansion (conservative).
            _ => Some((script + 1, 0)),
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
        self.oracle.final_cuts(&labels.ls, phi as i64, |v| {
            let i = v.index();
            (labels.ls[i] > LS_NEG_INF).then_some((labels.ls[i], labels.r[i]))
        })
    }

    /// Re-runs the probe at `phi` serially, recording every label
    /// improvement as a replayable [`WitnessStep`] (see [`crate::witness`]
    /// for the certificate semantics). Intended for the `Φ_min − 1` probe:
    /// on a truly infeasible period the recorded log ends with a step whose
    /// `value` exceeds `phi`, and an independent checker can replay the
    /// arithmetic without trusting the mapper.
    ///
    /// The probe is always serial and cold-started, and applies each
    /// improvement immediately (no per-level snapshot), so a checker
    /// replaying the log in order sees exactly the labels each cut query
    /// ran against. The `l^s` recurrence is self-contained (the `r`
    /// components never feed back into it), so the probe iterates `l^s`
    /// alone; it reaches the same least fixpoint as [`FrtContext::check`]
    /// and therefore the same feasibility verdict.
    pub fn infeasibility_witness(&self, phi: u64) -> WitnessOutcome {
        if self.frt_capped_gates > 0 {
            // R2/R3 justifications quantify over cuts of the *true*
            // F_v^{frt(v)}; a capped horizon hides cuts, so the log could
            // assert "no cut" where one exists and would not verify.
            return WitnessOutcome::Capped;
        }
        let c = self.circuit;
        let n = c.num_nodes();
        let phi_i = phi as i64;
        let cap = n.saturating_mul(n).max(4);
        let mut ls = vec![LS_NEG_INF; n];
        for &pi in c.inputs() {
            ls[pi.index()] = 0;
        }
        let mut dirty = vec![true; n];
        let mut scratch = CutScratch::new();
        let mut steps: Vec<WitnessStep> = Vec::new();
        let mut sweeps = 0usize;
        loop {
            if engine::cancel::cancelled() {
                return WitnessOutcome::Cancelled;
            }
            sweeps += 1;
            let mut changed = false;
            for level in self.levels.iter() {
                for &vi in level {
                    let i = vi as usize;
                    if !dirty[i] {
                        continue;
                    }
                    dirty[i] = false;
                    let v = NodeId(vi);
                    // ℒ^s with its argmax edge (the R1 justification).
                    let mut script = LS_NEG_INF;
                    let mut arg: Option<(NodeId, u64)> = None;
                    for &e in c.node(v).fanin() {
                        let edge = c.edge(e);
                        let lu = ls[edge.from().index()];
                        if lu > LS_NEG_INF {
                            let cand = lu - phi_i * edge.weight() as i64;
                            if cand > script {
                                script = cand;
                                arg = Some((edge.from(), edge.weight() as u64));
                            }
                        }
                    }
                    if script <= LS_NEG_INF {
                        continue;
                    }
                    let (from, weight) = arg.expect("finite ℒ^s has an argmax edge");
                    let fanin_step = WitnessStep::Fanin {
                        node: v,
                        from,
                        weight,
                        value: script,
                    };
                    let (new_ls, step) = if c.node(v).is_output() {
                        (script, fanin_step)
                    } else {
                        match self.oracle.answer(&ls, v, phi_i, script, &mut scratch) {
                            CutAnswer::Capped => return WitnessOutcome::Capped,
                            CutAnswer::NoCut => (
                                script + 1,
                                WitnessStep::NoCut {
                                    node: v,
                                    height: script,
                                    value: script + 1,
                                },
                            ),
                            CutAnswer::Weight(w_min) if script + phi_i * w_min as i64 <= phi_i => {
                                (script, fanin_step)
                            }
                            CutAnswer::Weight(w_min) => (
                                script + 1,
                                WitnessStep::WeightBump {
                                    node: v,
                                    height: script,
                                    w_min,
                                    value: script + 1,
                                },
                            ),
                        }
                    };
                    if new_ls > ls[i] {
                        ls[i] = new_ls;
                        steps.push(step);
                        changed = true;
                        if new_ls > phi_i {
                            return WitnessOutcome::Infeasible(steps);
                        }
                        for &e in c.node(v).fanout() {
                            dirty[c.edge(e).to().index()] = true;
                        }
                        for &g in self.oracle.requeue(i) {
                            dirty[g as usize] = true;
                        }
                    }
                }
            }
            if !changed {
                return WitnessOutcome::Feasible;
            }
            if sweeps >= cap {
                return WitnessOutcome::IterationCap;
            }
        }
    }
}

/// Records the per-probe metrics (shared by the converged and infeasible
/// exits; cancelled runs record nothing).
fn record_probe_metrics(iterations: usize, cut_queries: u64) {
    engine::telemetry::record(engine::hist::Metric::SweepsPerPhi, iterations as u64);
    engine::telemetry::record(engine::hist::Metric::CacheHitsPerProbe, cut_queries);
}

/// Groups the non-PI nodes by combinational depth (longest zero-weight
/// path from any source), preserving topological order within each level.
pub(crate) fn comb_levels(c: &Circuit, order: &[NodeId]) -> Levels {
    let n = c.num_nodes();
    let mut depth = vec![0u32; n];
    let mut max_depth = 0u32;
    for &v in order {
        let mut d = 0u32;
        for &e in c.node(v).fanin() {
            let edge = c.edge(e);
            if edge.weight() == 0 {
                d = d.max(depth[edge.from().index()] + 1);
            }
        }
        depth[v.index()] = d;
        max_depth = max_depth.max(d);
    }
    // Stable counting sort by depth over the topological scan: each
    // level's slice keeps topological order, packed into one flat arena.
    let num_levels = max_depth as usize + 1;
    let mut off = vec![0u32; num_levels + 1];
    for &v in order {
        if !c.node(v).is_input() {
            off[depth[v.index()] as usize + 1] += 1;
        }
    }
    for d in 0..num_levels {
        off[d + 1] += off[d];
    }
    let mut nodes = vec![0u32; off[num_levels] as usize];
    let mut cursor = off[..num_levels].to_vec();
    for &v in order {
        if !c.node(v).is_input() {
            let d = depth[v.index()] as usize;
            nodes[cursor[d] as usize] = v.0;
            cursor[d] += 1;
        }
    }
    Levels { off, nodes }
}

#[cfg(test)]
mod tests {
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
    fn levels_partition_non_inputs_topologically() {
        let c = chainy();
        let order = c.comb_topo_order().unwrap();
        let levels = comb_levels(&c, &order);
        let total = levels.total();
        let non_inputs = c.node_ids().filter(|&v| !c.node(v).is_input()).count();
        assert_eq!(total, non_inputs);
        // Zero-weight edges must never connect two nodes of one level.
        let mut level_of = vec![usize::MAX; c.num_nodes()];
        for (d, lvl) in levels.iter().enumerate() {
            for &vi in lvl {
                level_of[vi as usize] = d;
            }
        }
        for v in c.node_ids() {
            for &e in c.node(v).fanin() {
                let edge = c.edge(e);
                if edge.weight() == 0 && !c.node(edge.from()).is_input() {
                    assert!(level_of[edge.from().index()] < level_of[v.index()]);
                }
            }
        }
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

    /// A registered-input FSM prepared for K, the shape of the Table-1
    /// circuits.
    fn fsm(seed: u64, k: usize) -> Circuit {
        let c = workloads::generate_fsm(&workloads::FsmSpec {
            name: format!("f{seed}"),
            states: 9,
            inputs: 4,
            decoded: 2,
            outputs: 2,
            encoding: workloads::Encoding::Binary,
            registered_inputs: true,
            seed,
        });
        crate::prepare(&c, k).unwrap()
    }

    /// A cut cap of 1 sends most gates — and every gate whose cone may
    /// absorb one of them — to the max-flow fallback; the probes and the
    /// final cuts must not notice.
    #[test]
    fn tiny_cut_cap_falls_back_to_flow_with_identical_results() {
        for (seed, k) in [(11, 4), (12, 3), (13, 5)] {
            let c = fsm(seed, k);
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
            let c = fsm(seed, k);
            let leaf = FrtContext::new(&c, k, 32);
            let mut cone = FrtContext::new(&c, k, 32);
            cone.oracle.set_requeue(cone_index(&c, &cone.frt));
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
    fn witness_probe_matches_check_verdicts() {
        let c = chainy();
        for k in 1..=3 {
            let ctx = FrtContext::new(&c, k, 32);
            for phi in 1..=4u64 {
                let check = ctx.check(phi);
                match ctx.infeasibility_witness(phi) {
                    WitnessOutcome::Infeasible(steps) => {
                        assert!(!check.feasible, "k={k} phi={phi}");
                        assert_witness_shape(&c, phi, &steps);
                    }
                    WitnessOutcome::Feasible => assert!(check.feasible, "k={k} phi={phi}"),
                    other => panic!("unexpected outcome {other:?} (k={k} phi={phi})"),
                }
            }
        }
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
