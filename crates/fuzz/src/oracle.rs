//! The differential oracle: three mappers judging each other.
//!
//! For one case the oracle runs FlowMap-frt, TurboMap-frt and TurboMap
//! (general retiming) and checks the paper's relational claims:
//!
//! 1. **Φ ordering** (Theorem 3 and footnote 4) —
//!    `Φ(TurboMap) ≤ Φ(TurboMap-frt) ≤ Φ(FlowMap-frt)`: forward retiming
//!    restricts general retiming, and TurboMap-frt is optimal among
//!    forward-retimed mappings while FlowMap-frt is merely one of them.
//! 2. **Sequential equivalence** — every mapped result must match the
//!    source under three-valued simulation with
//!    [`EquivMode::Compatibility`]: `X` against a defined bit passes
//!    (pessimistic initial-state derivation may lose definedness, never
//!    invert it), conflicting defined bits fail. The general flow is
//!    exempt when it reports `⋆` (initial state lost) — there is nothing
//!    to compare against.
//! 3. **Initial-state computability** (Section 3.3) — the forward-retimed
//!    flows must never report `⋆`: no lost initial values, no register-
//!    sharing conflicts.
//! 4. **Certificates** (opt-in, `certificates`) — the TurboMap-frt
//!    Φ-optimality report (`report::explain`) must agree with the
//!    oracle's own run and replay through the independent checker.
//! 5. **Partition cross-check** (opt-in, `partitions ≥ 2`) — the case is
//!    also mapped partition-and-conquer (`partition::partition_map`):
//!    the stitched result must be valid, K-bounded, sequentially
//!    equivalent to the source, and obey the Φ-gap bound — it can never
//!    beat the monolithic TurboMap-frt optimum.
//! 6. **Cut check** (always on) — all three label computations answer
//!    every label update from a once-per-run cut arena
//!    (`flowmap::cutenum`). FlowMap-frt's labels come from the arena's
//!    cone-weight-0 cuts: every gate's label and cut must be what one
//!    max-flow on its combinational cone gives at the same fanin labels
//!    (`flowmap::flow_label`). At the labels of each period the
//!    TurboMap-frt search probed, for
//!    every gate and for heights `ℒ^s(v)` and `ℒ^s(v) − 1`, the arena's
//!    minimum cut weight in `F_v^{frt(v)}` must equal the bounded
//!    max-flow search on the gate's own expanded circuit; likewise, at
//!    each period the TurboMap search probed, whether `F_v^h` has a cut
//!    within the height must agree with one max-flow on `F_v^h`. At each
//!    feasible probed period, every gate's final cut (picked from the
//!    arena for mapping generation) must have the leaves of the
//!    near-sink max-flow cut on a freshly built expansion, for both
//!    flows.
//!
//! Before the mappers run, a **front-end round-trip** check
//! ([`CheckKind::RoundTrip`]) writes the case with
//! `blifio::write_circuit` and re-reads it with `blifio`: the re-read
//! circuit must be sequentially equivalent to the source with its
//! interface and register totals intact — making every fuzz case a
//! test of the BLIF writer and reader too.
//!
//! Mapper panics are caught ([`std::panic::catch_unwind`]) and reported
//! as [`CheckKind::MapperPanic`] verdicts so a panicking case can still
//! be shrunk and archived. Cancellation (batch deadline) is recognized
//! and reported as [`OracleOutcome::Cancelled`], never as a failure.

use netlist::{random_equiv_mode, Circuit, EquivMode, EquivResult, NodeId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use turbomap::frtcheck::{LS_NEG_INF, MAX_EXPANDED_NODES};
use turbomap::{
    CutArena, ExpCut, ExpandedCircuit, FrtContext, GeneralContext, Options, TurboMapError,
    TurboMapResult,
};

/// Oracle knobs; a repro manifest's `config` object records every one.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// LUT input bound K.
    pub k: usize,
    /// Random vectors per equivalence check.
    pub equiv_vectors: usize,
    /// Seed of the equivalence-check input sequence.
    pub equiv_seed: u64,
    /// Run the Φ-optimality certificate check: extract a
    /// `turbomap-report/v2` document via `report::explain` and replay
    /// it through the independent checker.
    pub certificates: bool,
    /// Block count for the partition-and-conquer cross-check
    /// ([`CheckKind::PartitionCheck`]): the case is also mapped through
    /// `partition::partition_map` with this many blocks and judged for
    /// sequential equivalence and the Φ-gap bound (the partitioned Φ
    /// can never beat the monolithic TurboMap-frt optimum). Values
    /// below 2 disable the check.
    pub partitions: usize,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            k: 4,
            equiv_vectors: 64,
            equiv_seed: 0xEC41_55EE,
            certificates: false,
            partitions: 0,
        }
    }
}

/// Which oracle check fired. Doubles as the shrinker's verdict key: a
/// shrink step is only accepted when the minimized case still violates
/// the same kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// `Φ(TurboMap) ≤ Φ(TurboMap-frt) ≤ Φ(FlowMap-frt)` broken.
    PhiOrdering,
    /// A mapped result diverged from the source under three-valued
    /// simulation (Compatibility mode).
    Equivalence,
    /// A forward-retimed flow reported `⋆` (lost initial state or
    /// register-sharing conflict).
    InitialState,
    /// A mapper returned an error on a valid input.
    MapperError,
    /// A mapper panicked.
    MapperPanic,
    /// A mapped result failed structural validation or the K bound.
    StructuralInvalid,
    /// The BLIF front-end failed to round-trip the case: writing it
    /// with `blifio::write_circuit` and re-reading it with `blifio`
    /// failed, changed the interface or register total, or changed the
    /// circuit's sequential behaviour.
    RoundTrip,
    /// The Φ-optimality certificate failed: `report::explain` errored,
    /// its Φ disagreed with the oracle's own TurboMap-frt run, or the
    /// rendered report did not replay through the independent checker.
    CertificateCheck,
    /// The scalar and vector simulation engines disagreed: either a
    /// same-stimulus bit-for-bit sweep diverged, or a vectorized
    /// equivalence counterexample did not reproduce on the scalar
    /// simulator.
    SimDivergence,
    /// The partition-and-conquer mapping broke an invariant: the
    /// stitched circuit was invalid, inequivalent to the source, its
    /// measured period disagreed with its report, or its Φ beat the
    /// monolithic optimum (impossible — frozen seams only *lose*
    /// retiming freedom).
    PartitionCheck,
    /// The cut arena disagreed with max-flow: a gate's FlowMap label or
    /// cut differed from max-flow on its combinational cone; or at some
    /// probed period's labels, a gate's cut answer from the arena
    /// (TurboMap-frt: the minimum K-cut weight; TurboMap: whether a K-cut
    /// exists), or at a feasible period its final cut, differed from
    /// max-flow on its expanded circuit.
    CutCheck,
}

impl CheckKind {
    /// Stable snake_case name (manifest key, log field).
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::PhiOrdering => "phi_ordering",
            CheckKind::Equivalence => "equivalence",
            CheckKind::InitialState => "initial_state",
            CheckKind::MapperError => "mapper_error",
            CheckKind::MapperPanic => "mapper_panic",
            CheckKind::StructuralInvalid => "structural_invalid",
            CheckKind::RoundTrip => "round_trip",
            CheckKind::CertificateCheck => "certificate_check",
            CheckKind::SimDivergence => "sim_divergence",
            CheckKind::PartitionCheck => "partition_check",
            CheckKind::CutCheck => "cut_check",
        }
    }
}

/// One violated invariant.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which check fired.
    pub kind: CheckKind,
    /// Which flow it implicates (`flowmap-frt`, `turbomap-frt`,
    /// `turbomap`, or `oracle` for cross-flow checks).
    pub flow: &'static str,
    /// Human-readable detail (periods, counterexample cycle, …).
    pub detail: String,
}

/// Periods and sizes of the successfully mapped flows (diagnostics).
#[derive(Debug, Clone, Default)]
pub struct CaseStats {
    /// `(period, luts)` of FlowMap-frt when it completed.
    pub flowmap_frt: Option<(u64, usize)>,
    /// `(period, luts)` of TurboMap-frt when it completed.
    pub turbomap_frt: Option<(u64, usize)>,
    /// `(period, luts)` of TurboMap (general) when it completed.
    pub turbomap_general: Option<(u64, usize)>,
    /// True when the general flow reported `⋆`.
    pub general_star: bool,
}

/// The oracle's judgement of one case.
#[derive(Debug, Clone)]
pub enum OracleOutcome {
    /// Every check passed.
    Pass(CaseStats),
    /// At least one invariant was violated.
    Fail {
        /// The violations, in check order.
        violations: Vec<Violation>,
        /// Whatever stats were collected before/despite the failure.
        stats: CaseStats,
    },
    /// The run was cancelled (deadline); the case was *not* judged.
    Cancelled,
}

impl OracleOutcome {
    /// True when failing with at least one violation of `kind`.
    pub fn has_kind(&self, kind: CheckKind) -> bool {
        match self {
            OracleOutcome::Fail { violations, .. } => violations.iter().any(|v| v.kind == kind),
            _ => false,
        }
    }
}

/// How one mapper invocation ended.
enum MapperRun<T> {
    Ok(T),
    Error(String),
    Panic(String),
    Cancelled,
}

/// Runs `f` under `catch_unwind`, classifying panics and cancellation.
fn guarded<T>(f: impl FnOnce() -> Result<T, TurboMapError>) -> MapperRun<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => MapperRun::Ok(v),
        Ok(Err(TurboMapError::Cancelled)) => MapperRun::Cancelled,
        Ok(Err(e)) => MapperRun::Error(e.to_string()),
        Err(payload) => {
            // A deadline can surface as a panic deep in a sweep; treat a
            // tripped token as cancellation, not as a mapper bug.
            if engine::cancel::cancelled() {
                return MapperRun::Cancelled;
            }
            MapperRun::Panic(engine::batch::panic_message(payload))
        }
    }
}

/// Checks one mapped circuit against the source: structure, K bound,
/// sequential equivalence.
fn check_mapped(
    source: &Circuit,
    mapped: &Circuit,
    flow: &'static str,
    cfg: &OracleConfig,
    violations: &mut Vec<Violation>,
) {
    if let Err(e) = netlist::validate(mapped) {
        violations.push(Violation {
            kind: CheckKind::StructuralInvalid,
            flow,
            detail: format!("mapped circuit invalid: {e}"),
        });
        return;
    }
    if let Err(e) = netlist::check_k_bounded(mapped, cfg.k) {
        violations.push(Violation {
            kind: CheckKind::StructuralInvalid,
            flow,
            detail: format!("mapped circuit breaks K={}: {e}", cfg.k),
        });
    }
    match random_equiv_mode(
        source,
        mapped,
        cfg.equiv_vectors,
        cfg.equiv_seed,
        EquivMode::Compatibility,
    ) {
        Ok(EquivResult::Equivalent) => {}
        Ok(EquivResult::Different(ce)) => {
            // Counterexamples are rare, so replaying the witness lane on
            // the scalar simulator is free in aggregate — and it pins the
            // vector engine: a witness the scalar engine accepts means
            // the two simulators disagree, which is a bug in the engines,
            // not the mappers.
            match netlist::sequence_equiv_mode(source, mapped, &ce.inputs, EquivMode::Compatibility)
            {
                Ok(EquivResult::Equivalent) => violations.push(Violation {
                    kind: CheckKind::SimDivergence,
                    flow,
                    detail: format!(
                        "vector counterexample (output `{}`, cycle {}) \
                         does not reproduce on the scalar simulator",
                        ce.output, ce.cycle
                    ),
                }),
                Ok(EquivResult::Different(_)) => {}
                Err(e) => violations.push(Violation {
                    kind: CheckKind::SimDivergence,
                    flow,
                    detail: format!("scalar replay of the counterexample failed to run: {e}"),
                }),
            }
            violations.push(Violation {
                kind: CheckKind::Equivalence,
                flow,
                detail: format!(
                    "output `{}` diverged at cycle {}: expected {:?}, got {:?}",
                    ce.output, ce.cycle, ce.expected, ce.actual
                ),
            });
        }
        Err(e) => violations.push(Violation {
            kind: CheckKind::Equivalence,
            flow,
            detail: format!("equivalence check failed to run: {e}"),
        }),
    }
}

/// The same-stimulus scalar/vector differential behind
/// [`CheckKind::SimDivergence`], exposed for focused tests: drives one
/// reproducible three-valued input sequence (defined bits with a sprinkle
/// of `X`) through the scalar [`netlist::Simulator`] and, splatted across
/// all lanes, through the [`netlist::VecSimulator`], comparing every PO
/// word bit-for-bit each cycle. Costs one short scalar run per case —
/// cheap against the mapper work — and keeps the fuzz campaign a standing
/// differential test of the vector engine. Returns the first mismatch's
/// description, `None` when the engines agree.
pub fn sim_cross_check_violation(source: &Circuit, cfg: &OracleConfig) -> Option<String> {
    use netlist::{Bit, Planes, Simulator, VecSimulator};
    let m = source.inputs().len();
    let cycles = cfg.equiv_vectors.clamp(1, 32);
    let mut rng = engine::Rng64::new(cfg.equiv_seed ^ 0x51AC_C05C);
    let mut scalar = match Simulator::new(source) {
        Ok(s) => s,
        Err(e) => return Some(format!("scalar simulator rejected the case: {e}")),
    };
    let mut vector = match VecSimulator::new(source) {
        Ok(s) => s,
        Err(e) => return Some(format!("vector simulator rejected the case: {e}")),
    };
    for cycle in 0..cycles {
        let inputs: Vec<Bit> = (0..m)
            .map(|_| {
                let r = rng.next_u64();
                // 1-in-8 X so the third value exercises the bitplanes.
                if r & 7 == 7 {
                    Bit::X
                } else {
                    Bit::from_bool(r & 1 == 1)
                }
            })
            .collect();
        let planes: Vec<Planes> = inputs.iter().map(|&b| Planes::splat(b)).collect();
        let scalar_out = match scalar.step(&inputs) {
            Ok(o) => o,
            Err(e) => return Some(format!("scalar step failed at cycle {cycle}: {e}")),
        };
        let vector_out = match vector.step(&planes) {
            Ok(o) => o,
            Err(e) => return Some(format!("vector step failed at cycle {cycle}: {e}")),
        };
        for (po, (&s, &v)) in scalar_out.iter().zip(vector_out.iter()).enumerate() {
            // Splatted inputs must yield a splatted output: all 64 lanes
            // carry the scalar verdict.
            if v != Planes::splat(s) {
                return Some(format!(
                    "output `{}` cycle {cycle}: scalar {:?} but vector planes \
                     p0={:#018x} p1={:#018x}",
                    source.node(source.outputs()[po]).name(),
                    s,
                    v.p0,
                    v.p1
                ));
            }
        }
    }
    None
}

/// Judges one *mapped result* against its source, exactly as the full
/// oracle does per flow: structural validity, the K bound, sequential
/// equivalence under Compatibility. Public so fault-injection tests (and
/// external harnesses) can audit a single circuit pair without rerunning
/// the mappers.
pub fn judge_mapped(
    source: &Circuit,
    mapped: &Circuit,
    flow: &'static str,
    cfg: &OracleConfig,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    check_mapped(source, mapped, flow, cfg, &mut violations);
    violations
}

/// The round-trip judgement behind [`CheckKind::RoundTrip`], exposed
/// for focused tests: writes `source` with `blifio::write_circuit`,
/// re-reads it with `blifio`, and checks that (a) the interface and
/// register totals survive and (b) the re-read circuit is sequentially
/// equivalent to the source. Returns the first failure's description,
/// `None` when the case round-trips.
pub fn round_trip_violation(source: &Circuit, cfg: &OracleConfig) -> Option<String> {
    let text = blifio::write_circuit(source);
    let reread = match blifio::read_circuit_str(&text) {
        Ok(c) => c,
        Err(e) => return Some(format!("re-parse of written BLIF failed: {e}")),
    };
    if source.inputs().len() != reread.inputs().len()
        || source.outputs().len() != reread.outputs().len()
        || source.ff_count_total() != reread.ff_count_total()
    {
        return Some(format!(
            "interface drifted: PI {}->{}, PO {}->{}, FF {}->{}",
            source.inputs().len(),
            reread.inputs().len(),
            source.outputs().len(),
            reread.outputs().len(),
            source.ff_count_total(),
            reread.ff_count_total()
        ));
    }
    match random_equiv_mode(
        source,
        &reread,
        cfg.equiv_vectors,
        cfg.equiv_seed,
        EquivMode::Conformance,
    ) {
        Ok(EquivResult::Equivalent) => None,
        Ok(EquivResult::Different(ce)) => Some(format!(
            "re-read circuit diverged at output `{}`, cycle {}",
            ce.output, ce.cycle
        )),
        Err(e) => Some(format!("round-trip equivalence check failed to run: {e}")),
    }
}

/// The certificate judgement behind [`CheckKind::CertificateCheck`],
/// exposed for focused tests: re-maps `source` with `report::explain`,
/// checks the resulting Φ against `expected_phi` (the oracle's own
/// TurboMap-frt run), renders the `turbomap-report/v2` document and
/// replays it through the independent checker. Timing attribution must
/// always verify; the Φ−1 witness may be legitimately unavailable (a
/// non-simple solution beat the probe, or a horizon cap fired), which
/// the checker reports as a verdict rather than an error. Returns the
/// first failure's description, `None` when the certificate holds or
/// the run was cancelled (the caller re-checks the token).
pub fn certificate_violation(
    source: &Circuit,
    expected_phi: u64,
    cfg: &OracleConfig,
) -> Option<String> {
    let explained = match report::explain(source, Options::with_k(cfg.k)) {
        Ok(e) => e,
        Err(report::ReportError::Cancelled) => return None,
        Err(e) => return Some(format!("explain failed: {e}")),
    };
    if explained.result.period != expected_phi {
        return Some(format!(
            "explain mapped Φ = {} but the oracle's run mapped Φ = {expected_phi}",
            explained.result.period
        ));
    }
    let doc = explained.to_json().render_pretty();
    let parsed = match engine::JsonValue::parse(&doc) {
        Ok(p) => p,
        Err(e) => return Some(format!("rendered report does not re-parse: {e}")),
    };
    match report::verify(&parsed, source, &explained.result.circuit) {
        Ok(_) => None,
        Err(e) => Some(format!("independent checker rejected the report: {e}")),
    }
}

/// The partition judgement behind [`CheckKind::PartitionCheck`],
/// exposed for focused tests: maps `source` through
/// `partition::partition_map` with `cfg.partitions` blocks and checks
/// (a) the stitched circuit is structurally valid and K-bounded,
/// (b) its measured clock period agrees with the report, (c) its Φ
/// does not beat `expected_phi` (the oracle's own monolithic
/// TurboMap-frt run — optimal over forward retimings, so a "better"
/// partitioned Φ means a broken period measurement or an illegal
/// stitch), and (d) it is sequentially equivalent to the source under
/// Compatibility. Returns the first failure's description, `None` when
/// the check holds or the run was cancelled (the caller re-checks the
/// token).
pub fn partition_violation(
    source: &Circuit,
    expected_phi: u64,
    cfg: &OracleConfig,
) -> Option<String> {
    let popts = partition::PartitionOptions::new(cfg.k, cfg.partitions);
    let mapped = match partition::partition_map(source, &popts) {
        Ok(m) => m,
        Err(e) => {
            if engine::cancel::cancelled() {
                return None;
            }
            return Some(format!("partition_map failed: {e}"));
        }
    };
    if let Err(e) = netlist::validate(&mapped.circuit) {
        return Some(format!("stitched circuit invalid: {e}"));
    }
    if let Err(e) = netlist::check_k_bounded(&mapped.circuit, cfg.k) {
        return Some(format!("stitched circuit breaks K={}: {e}", cfg.k));
    }
    match mapped.circuit.clock_period() {
        Ok(p) if p == mapped.report.phi => {}
        Ok(p) => {
            return Some(format!(
                "report says Φ = {} but the stitched circuit measures Φ = {p}",
                mapped.report.phi
            ))
        }
        Err(e) => return Some(format!("stitched circuit has no clock period: {e}")),
    }
    if mapped.report.phi < expected_phi {
        return Some(format!(
            "partitioned Φ = {} beats the monolithic optimum Φ = {expected_phi} \
             (frozen seams cannot gain retiming freedom)",
            mapped.report.phi
        ));
    }
    match random_equiv_mode(
        source,
        &mapped.circuit,
        cfg.equiv_vectors,
        cfg.equiv_seed,
        EquivMode::Compatibility,
    ) {
        Ok(EquivResult::Equivalent) => None,
        Ok(EquivResult::Different(ce)) => Some(format!(
            "stitched circuit diverged at output `{}`, cycle {}: expected {:?}, got {:?}",
            ce.output, ce.cycle, ce.expected, ce.actual
        )),
        Err(e) => Some(format!("partition equivalence check failed to run: {e}")),
    }
}

/// The cut judgement behind [`CheckKind::CutCheck`] for FlowMap-frt,
/// exposed for focused tests: labels `bounded` (the prepared circuit)
/// from the cone-weight-0 cuts of `arena`, enumerated on it, then asks
/// [`flowmap::flow_label`] for every gate's label and cut by max-flow at
/// the same fanin labels. Returns the first gate whose label, or whose
/// cut's signals, differ; `None` when all agree or the run was cancelled
/// (the caller re-checks the token).
pub fn flowmap_cut_check_violation(bounded: &Circuit, arena: &CutArena) -> Option<String> {
    let lab = flowmap::flowmap_labels_with(bounded, arena);
    for v in bounded.gate_ids() {
        if engine::cancel::cancelled() {
            return None;
        }
        let (label, cut) = flowmap::flow_label(bounded, v, &lab.labels, arena.k());
        let arena_cut = &lab.cuts[&v];
        if lab.labels[v.index()] != label || *arena_cut != cut {
            let names = |cut: &flowmap::Cut| -> Vec<String> {
                cut.signals
                    .iter()
                    .map(|s| format!("{}^{}", bounded.node(s.node).name(), s.weight()))
                    .collect()
            };
            return Some(format!(
                "gate `{}`: the cut arena labels it {} with cut {:?}, max-flow labels it \
                 {label} with cut {:?}",
                bounded.node(v).name(),
                lab.labels[v.index()],
                names(arena_cut),
                names(&cut)
            ));
        }
    }
    None
}

/// The cut judgement behind [`CheckKind::CutCheck`] for TurboMap-frt,
/// exposed for focused tests: for each period in `phis`, runs a cold
/// FRTcheck probe of `ctx` (built on `bounded`, the prepared circuit)
/// and, at its labels, compares for every gate with a finite `ℒ^s(v)` and
/// for heights `ℒ^s(v)` and `ℒ^s(v) − 1` the context's answer
/// ([`FrtContext::min_cut_weight`]) with [`turbomap::min_weight_cut`] on
/// a freshly built `F_v^{frt(v)}`. At a feasible period it also compares
/// every gate's [`FrtContext::final_cuts`] cut, as a leaf set, with
/// [`turbomap::find_cut`] at height `l^s(v)` and weight `r(v)`. Returns
/// the first disagreement, `None` when all agree or the run was cancelled
/// (the caller re-checks the token).
pub fn cut_check_violation(bounded: &Circuit, ctx: &FrtContext, phis: &[u64]) -> Option<String> {
    first_cut_disagreement(
        bounded,
        phis,
        ctx.k(),
        |phi| {
            let res = ctx.check(phi);
            let finals = try_final_cuts(res.feasible, || {
                let cuts = ctx.final_cuts(&res.labels, phi);
                let r = &res.labels.r;
                cuts.into_iter()
                    .zip(r)
                    .map(|(cut, &w)| cut.map(|cut| (w, cut)))
                    .collect()
            });
            (res.labels.ls, finals)
        },
        |v| ctx.frt[v.index()],
        |exp, ls, v, phi, height| {
            let arena = ctx.min_cut_weight(ls, v, phi, height);
            let flow = turbomap::min_weight_cut(exp, ls, phi as i64, height, exp.bound, ctx.k())
                .map(|(w, _)| w);
            (arena, flow)
        },
    )
}

/// The cut judgement behind [`CheckKind::CutCheck`] for TurboMap, the
/// general-retiming baseline: as [`cut_check_violation`], but at the
/// labels of the general label runs of `ctx`, comparing whether `F_v^h`
/// has a K-cut within the height ([`GeneralContext::min_cut_weight`]) with
/// [`turbomap::find_cut`] on a freshly built `F_v^h`, and at a feasible
/// period the [`GeneralContext::final_cuts`] cuts with
/// [`turbomap::find_cut`] at height `l(v)` and weight `h`.
pub fn general_cut_check_violation(
    bounded: &Circuit,
    ctx: &GeneralContext,
    phis: &[u64],
) -> Option<String> {
    first_cut_disagreement(
        bounded,
        phis,
        ctx.k(),
        |phi| {
            let res = ctx.check(phi);
            let finals = try_final_cuts(res.feasible, || {
                let cuts = ctx.final_cuts(&res.labels, phi);
                let h = ctx.horizon();
                cuts.into_iter()
                    .map(|cut| cut.map(|cut| (h, cut)))
                    .collect()
            });
            (res.labels, finals)
        },
        |_| ctx.horizon(),
        |exp, ls, v, phi, height| {
            let arena = ctx.min_cut_weight(ls, v, phi, height).is_some();
            let flow =
                turbomap::find_cut(exp, ls, phi as i64, height, exp.bound, ctx.k()).is_some();
            (arena, flow)
        },
    )
}

/// Per node, a final cut with the cone-weight bound it was picked under
/// (empty at an infeasible period, which has no final cuts).
type FinalCuts = Vec<Option<(u64, ExpCut)>>;

/// `final_cuts()` at a feasible period, no cuts at an infeasible one, and
/// `None` when it panics — a gate left without a cut at converged labels,
/// which only a corrupted arena causes.
fn try_final_cuts(feasible: bool, final_cuts: impl FnOnce() -> FinalCuts) -> Option<FinalCuts> {
    if !feasible {
        return Some(Vec::new());
    }
    catch_unwind(AssertUnwindSafe(final_cuts)).ok()
}

/// Shared loop of the cut checks: at the labels `probe(phi)` gives for
/// each probed period, asks `answers` for the (arena, max-flow) pair of
/// every gate with a finite `ℒ(v)` at heights `ℒ(v)` and `ℒ(v) − 1`, on
/// a freshly built `F_v^{bound(v)}`; then compares each final cut `probe`
/// gives with the near-sink max-flow cut at height `l(v)` under its
/// weight bound. Reports the first difference.
fn first_cut_disagreement<A: PartialEq + std::fmt::Debug>(
    bounded: &Circuit,
    phis: &[u64],
    k: usize,
    probe: impl Fn(u64) -> (Vec<i64>, Option<FinalCuts>),
    bound: impl Fn(NodeId) -> u64,
    answers: impl Fn(&ExpandedCircuit, &[i64], NodeId, u64, i64) -> (A, A),
) -> Option<String> {
    let expand = |v: NodeId| ExpandedCircuit::build(bounded, v, bound(v), MAX_EXPANDED_NODES);
    for &phi in phis {
        let (ls, finals) = probe(phi);
        for v in bounded.gate_ids() {
            if engine::cancel::cancelled() {
                return None;
            }
            let script = bounded
                .node(v)
                .fanin()
                .iter()
                .map(|&e| bounded.edge(e))
                .filter(|edge| ls[edge.from().index()] > LS_NEG_INF)
                .map(|edge| ls[edge.from().index()] - phi as i64 * edge.weight() as i64)
                .max();
            let Some(script) = script else { continue };
            let Some(exp) = expand(v) else {
                continue;
            };
            for height in [script, script - 1] {
                let (arena, flow) = answers(&exp, &ls, v, phi, height);
                if arena != flow {
                    return Some(format!(
                        "gate `{}` at Φ = {phi}, height {height}: the cut arena answers \
                         {arena:?}, max-flow answers {flow:?}",
                        bounded.node(v).name()
                    ));
                }
            }
        }
        let Some(finals) = finals else {
            return Some(format!(
                "at Φ = {phi} some gate has no final cut within its converged labels"
            ));
        };
        for v in bounded.gate_ids() {
            if engine::cancel::cancelled() {
                return None;
            }
            let Some(Some((weight, cut))) = finals.get(v.index()) else {
                continue;
            };
            let Some(exp) = expand(v) else {
                continue;
            };
            let height = ls[v.index()];
            let flow = turbomap::find_cut(&exp, &ls, phi as i64, height, *weight, k);
            let (arena, flow) = (leaves(bounded, Some(cut)), leaves(bounded, flow.as_ref()));
            if arena != flow {
                return Some(format!(
                    "gate `{}` at Φ = {phi}: the final cut picked from the cut arena \
                     (height {height}, weight {weight}) is {arena:?}, max-flow's is {flow:?}",
                    bounded.node(v).name()
                ));
            }
        }
    }
    None
}

/// A cut's leaves `u^w` as sorted `u^w` names (the two cut searches list
/// them in different orders).
fn leaves(c: &Circuit, cut: Option<&ExpCut>) -> Option<Vec<String>> {
    cut.map(|cut| {
        let mut set: Vec<(NodeId, u64)> = cut.signals.iter().map(|s| (s.node, s.weight)).collect();
        set.sort_unstable();
        set.into_iter()
            .map(|(u, w)| format!("{}^{w}", c.node(u).name()))
            .collect()
    })
}

/// Judges one case. `source` must pass [`netlist::validate`](fn@netlist::validate) and be
/// sharing-consistent (the generator guarantees both; the shrinker
/// re-checks both on every candidate) — a source that already carries a
/// register-sharing conflict would trip the initial-state check through
/// no fault of the mappers.
pub fn run_oracle(source: &Circuit, cfg: &OracleConfig) -> OracleOutcome {
    if engine::cancel::cancelled() {
        return OracleOutcome::Cancelled;
    }
    let mut violations = Vec::new();
    let mut stats = CaseStats::default();

    // Check 0: BLIF round-trip. Write the case with `blifio` and re-read
    // it. The writer materialises PO buffers, so the re-read circuit is
    // *behaviourally* — not node-for-node — identical to the source.
    // Cheap, so it runs first.
    match catch_unwind(AssertUnwindSafe(|| round_trip_violation(source, cfg))) {
        Ok(Some(detail)) => violations.push(Violation {
            kind: CheckKind::RoundTrip,
            flow: "blifio",
            detail,
        }),
        Ok(None) => {}
        Err(_) => {
            if engine::cancel::cancelled() {
                return OracleOutcome::Cancelled;
            }
            violations.push(Violation {
                kind: CheckKind::RoundTrip,
                flow: "blifio",
                detail: "panic while round-tripping the case".to_string(),
            });
        }
    }

    // Check 0.5: scalar/vector engine agreement on the source. Every
    // later equivalence verdict rides on the vector engine, so pin it
    // against the scalar oracle before trusting anything downstream.
    match catch_unwind(AssertUnwindSafe(|| sim_cross_check_violation(source, cfg))) {
        Ok(Some(detail)) => violations.push(Violation {
            kind: CheckKind::SimDivergence,
            flow: "oracle",
            detail,
        }),
        Ok(None) => {}
        Err(_) => {
            if engine::cancel::cancelled() {
                return OracleOutcome::Cancelled;
            }
            violations.push(Violation {
                kind: CheckKind::SimDivergence,
                flow: "oracle",
                detail: "panic while cross-checking the simulators".to_string(),
            });
        }
    }

    // FlowMap-frt needs a K-bounded input; `prepare` is the shared
    // validate + prune + decompose pipeline the TurboMap drivers use.
    let bounded = match catch_unwind(AssertUnwindSafe(|| turbomap::prepare(source, cfg.k))) {
        Ok(Ok(b)) => Some(b),
        Ok(Err(e)) => {
            violations.push(Violation {
                kind: CheckKind::MapperError,
                flow: "prepare",
                detail: e.to_string(),
            });
            None
        }
        Err(_) => {
            if engine::cancel::cancelled() {
                return OracleOutcome::Cancelled;
            }
            violations.push(Violation {
                kind: CheckKind::MapperPanic,
                flow: "prepare",
                detail: "panic while preparing the case".to_string(),
            });
            None
        }
    };

    let fm = bounded
        .as_ref()
        .map(|b| guarded(|| flowmap::flowmap_frt(b, cfg.k).map_err(TurboMapError::Baseline)));
    let opts = Options::with_k(cfg.k);
    let frt = guarded(|| turbomap::turbomap_frt(source, opts));
    let general = guarded(|| turbomap::turbomap_general(source, opts));

    // Cancellation anywhere voids the whole judgement.
    for run in [&frt, &general] {
        if matches!(run, MapperRun::Cancelled) {
            return OracleOutcome::Cancelled;
        }
    }
    if matches!(fm, Some(MapperRun::Cancelled)) {
        return OracleOutcome::Cancelled;
    }

    let mut note = |kind: CheckKind, flow: &'static str, detail: String| {
        violations.push(Violation { kind, flow, detail });
    };

    let fm_res = match fm {
        Some(MapperRun::Ok(r)) => {
            stats.flowmap_frt = Some((r.period, r.luts));
            Some(r)
        }
        Some(MapperRun::Error(e)) => {
            note(CheckKind::MapperError, "flowmap-frt", e);
            None
        }
        Some(MapperRun::Panic(e)) => {
            note(CheckKind::MapperPanic, "flowmap-frt", e);
            None
        }
        _ => None,
    };
    let frt_res = match frt {
        MapperRun::Ok(r) => {
            stats.turbomap_frt = Some((r.period, r.luts));
            Some(r)
        }
        MapperRun::Error(e) => {
            note(CheckKind::MapperError, "turbomap-frt", e);
            None
        }
        MapperRun::Panic(e) => {
            note(CheckKind::MapperPanic, "turbomap-frt", e);
            None
        }
        MapperRun::Cancelled => unreachable!("handled above"),
    };
    let gen_res: Option<TurboMapResult> = match general {
        MapperRun::Ok(r) => {
            stats.turbomap_general = Some((r.period, r.luts));
            stats.general_star = r.star();
            Some(r)
        }
        MapperRun::Error(e) => {
            note(CheckKind::MapperError, "turbomap", e);
            None
        }
        MapperRun::Panic(e) => {
            note(CheckKind::MapperPanic, "turbomap", e);
            None
        }
        MapperRun::Cancelled => unreachable!("handled above"),
    };

    // Check 1: Φ ordering.
    if let (Some(frt), Some(fm)) = (&frt_res, &fm_res) {
        if frt.period > fm.period {
            note(
                CheckKind::PhiOrdering,
                "oracle",
                format!(
                    "Φ(TurboMap-frt) = {} > Φ(FlowMap-frt) = {}",
                    frt.period, fm.period
                ),
            );
        }
    }
    if let (Some(gen), Some(frt)) = (&gen_res, &frt_res) {
        if gen.period > frt.period {
            note(
                CheckKind::PhiOrdering,
                "oracle",
                format!(
                    "Φ(TurboMap) = {} > Φ(TurboMap-frt) = {}",
                    gen.period, frt.period
                ),
            );
        }
    }

    // Check 3: initial-state computability of the forward-retimed flows.
    if let Some(frt) = &frt_res {
        if frt.initial_state_lost {
            note(
                CheckKind::InitialState,
                "turbomap-frt",
                "forward-retimed flow lost its initial state".to_string(),
            );
        }
        if frt.sharing_conflict {
            note(
                CheckKind::InitialState,
                "turbomap-frt",
                "register-sharing conflict in a forward-retimed flow".to_string(),
            );
        }
    }
    if let Some(fm) = &fm_res {
        if !fm.circuit.sharing_consistent() {
            note(
                CheckKind::InitialState,
                "flowmap-frt",
                "register-sharing conflict in a forward-retimed flow".to_string(),
            );
        }
    }

    // Check 2: sequential equivalence of every usable mapped result.
    if let Some(fm) = &fm_res {
        check_mapped(source, &fm.circuit, "flowmap-frt", cfg, &mut violations);
    }
    if let Some(frt) = &frt_res {
        check_mapped(source, &frt.circuit, "turbomap-frt", cfg, &mut violations);
    }
    if let Some(gen) = &gen_res {
        if !gen.star() {
            check_mapped(source, &gen.circuit, "turbomap", cfg, &mut violations);
        }
    }

    // Check 4: Φ-optimality certificates. The explain pipeline re-maps
    // the case; its report must replay through the independent checker
    // and agree with the oracle's own TurboMap-frt period.
    if cfg.certificates {
        if let Some(frt) = &frt_res {
            match catch_unwind(AssertUnwindSafe(|| {
                certificate_violation(source, frt.period, cfg)
            })) {
                Ok(Some(detail)) => violations.push(Violation {
                    kind: CheckKind::CertificateCheck,
                    flow: "turbomap-frt",
                    detail,
                }),
                Ok(None) => {}
                Err(_) => {
                    if engine::cancel::cancelled() {
                        return OracleOutcome::Cancelled;
                    }
                    violations.push(Violation {
                        kind: CheckKind::CertificateCheck,
                        flow: "turbomap-frt",
                        detail: "panic while extracting or checking the certificate".to_string(),
                    });
                }
            }
        }
    }

    // Check 5: partition-and-conquer cross-check. The case is mapped a
    // second way — split at FF boundaries, per-block TurboMap-frt,
    // stitched — and the two mappings judge each other: sequential
    // equivalence plus the Φ-gap bound (partitioned ≥ monolithic).
    if cfg.partitions >= 2 {
        if let Some(frt) = &frt_res {
            match catch_unwind(AssertUnwindSafe(|| {
                partition_violation(source, frt.period, cfg)
            })) {
                Ok(Some(detail)) => violations.push(Violation {
                    kind: CheckKind::PartitionCheck,
                    flow: "partition",
                    detail,
                }),
                Ok(None) => {}
                Err(_) => {
                    if engine::cancel::cancelled() {
                        return OracleOutcome::Cancelled;
                    }
                    violations.push(Violation {
                        kind: CheckKind::PartitionCheck,
                        flow: "partition",
                        detail: "panic while partition-mapping the case".to_string(),
                    });
                }
            }
        }
    }

    // Check 6: the cut arena against max-flow: FlowMap's labels, and the
    // labels of every period each TurboMap search probed.
    if let Some(b) = &bounded {
        type CutJudge = fn(&Circuit, usize, Options, &[u64]) -> Option<String>;
        let probed = |res: &Option<TurboMapResult>| {
            res.as_ref().map(|r| {
                r.iterations
                    .iter()
                    .map(|&(phi, _)| phi)
                    .collect::<Vec<u64>>()
            })
        };
        let judges: [(&str, Option<Vec<u64>>, CutJudge); 3] = [
            (
                "flowmap-frt",
                fm_res.as_ref().map(|_| Vec::new()),
                |b, k, _, _| flowmap_cut_check_violation(b, &CutArena::combinational(b, k)),
            ),
            ("turbomap-frt", probed(&frt_res), |b, k, opts, phis| {
                cut_check_violation(b, &FrtContext::new(b, k, opts.weight_horizon), phis)
            }),
            ("turbomap", probed(&gen_res), |b, k, opts, phis| {
                let ctx = GeneralContext::new(b, k, opts.general_horizon);
                general_cut_check_violation(b, &ctx, phis)
            }),
        ];
        for (flow, phis, judge) in judges {
            let Some(phis) = phis else { continue };
            match catch_unwind(AssertUnwindSafe(|| judge(b, cfg.k, opts, &phis))) {
                Ok(Some(detail)) => violations.push(Violation {
                    kind: CheckKind::CutCheck,
                    flow,
                    detail,
                }),
                Ok(None) => {}
                Err(_) => {
                    if engine::cancel::cancelled() {
                        return OracleOutcome::Cancelled;
                    }
                    violations.push(Violation {
                        kind: CheckKind::CutCheck,
                        flow,
                        detail: "panic while checking the cut arena".to_string(),
                    });
                }
            }
        }
    }

    if engine::cancel::cancelled() {
        return OracleOutcome::Cancelled;
    }
    if violations.is_empty() {
        OracleOutcome::Pass(stats)
    } else {
        OracleOutcome::Fail { violations, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_case, GenConfig};

    #[test]
    fn clean_cases_pass() {
        let gen_cfg = GenConfig {
            k: 4,
            max_gates: 40,
            max_mutations: 6,
        };
        let cfg = OracleConfig {
            equiv_vectors: 32,
            ..OracleConfig::default()
        };
        for seed in 0..6 {
            let c = generate_case(seed, &gen_cfg);
            let out = run_oracle(&c, &cfg);
            match &out {
                OracleOutcome::Pass(stats) => {
                    assert!(stats.turbomap_frt.is_some());
                    assert!(stats.flowmap_frt.is_some());
                }
                OracleOutcome::Fail { violations, .. } => {
                    panic!("seed {seed} failed: {violations:?}")
                }
                OracleOutcome::Cancelled => panic!("not cancelled"),
            }
        }
    }

    #[test]
    fn cancelled_token_yields_cancelled_not_failure() {
        let token = engine::CancelToken::new();
        token.cancel();
        let _guard = engine::cancel::install(token);
        let c = generate_case(1, &GenConfig::default());
        assert!(matches!(
            run_oracle(&c, &OracleConfig::default()),
            OracleOutcome::Cancelled
        ));
    }

    #[test]
    fn kind_names_are_stable() {
        for (kind, name) in [
            (CheckKind::PhiOrdering, "phi_ordering"),
            (CheckKind::Equivalence, "equivalence"),
            (CheckKind::InitialState, "initial_state"),
            (CheckKind::MapperError, "mapper_error"),
            (CheckKind::MapperPanic, "mapper_panic"),
            (CheckKind::StructuralInvalid, "structural_invalid"),
            (CheckKind::RoundTrip, "round_trip"),
            (CheckKind::CertificateCheck, "certificate_check"),
            (CheckKind::SimDivergence, "sim_divergence"),
            (CheckKind::PartitionCheck, "partition_check"),
            (CheckKind::CutCheck, "cut_check"),
        ] {
            assert_eq!(kind.name(), name);
        }
    }

    /// With the partition cross-check enabled, clean generated cases
    /// still pass: every case maps both monolithically and with two
    /// blocks, and the stitched result holds the oracle's invariants.
    #[test]
    fn partition_check_passes_on_clean_cases() {
        let gen_cfg = GenConfig {
            k: 4,
            max_gates: 40,
            max_mutations: 6,
        };
        let cfg = OracleConfig {
            equiv_vectors: 16,
            partitions: 2,
            ..OracleConfig::default()
        };
        for seed in 0..4 {
            let c = generate_case(seed, &gen_cfg);
            let out = run_oracle(&c, &cfg);
            if let OracleOutcome::Fail { violations, .. } = &out {
                panic!("seed {seed} failed: {violations:?}");
            }
        }
    }

    #[test]
    fn engines_agree_on_generated_cases() {
        // The same judgement as the oracle's check 0.5, over a wider
        // seed range than the full-oracle test can afford.
        let gen_cfg = GenConfig {
            k: 4,
            max_gates: 60,
            max_mutations: 8,
        };
        let cfg = OracleConfig::default();
        for seed in 0..32 {
            let c = generate_case(seed, &gen_cfg);
            if let Some(detail) = sim_cross_check_violation(&c, &cfg) {
                panic!("seed {seed}: {detail}");
            }
        }
    }

    /// With certificates enabled, clean generated cases still pass: the
    /// explain pipeline agrees with the oracle's own run and every
    /// rendered report replays through the independent checker.
    #[test]
    fn certificate_check_passes_on_clean_cases() {
        let gen_cfg = GenConfig {
            k: 4,
            max_gates: 40,
            max_mutations: 6,
        };
        let cfg = OracleConfig {
            equiv_vectors: 16,
            certificates: true,
            ..OracleConfig::default()
        };
        for seed in 0..4 {
            let c = generate_case(seed, &gen_cfg);
            let out = run_oracle(&c, &cfg);
            if let OracleOutcome::Fail { violations, .. } = &out {
                panic!("seed {seed} failed: {violations:?}");
            }
        }
    }

    #[test]
    fn generated_cases_round_trip_through_the_front_end() {
        // The same judgement as the oracle's check 0, over a wider seed
        // range than the full-oracle test can afford.
        let gen_cfg = GenConfig {
            k: 4,
            max_gates: 60,
            max_mutations: 8,
        };
        let cfg = OracleConfig {
            equiv_vectors: 32,
            ..OracleConfig::default()
        };
        for seed in 0..32 {
            let c = generate_case(seed, &gen_cfg);
            if let Some(detail) = round_trip_violation(&c, &cfg) {
                panic!("seed {seed}: {detail}");
            }
        }
    }
}
