//! The TurboMap-frt algorithm (Section 3) and the TurboMap general-
//! retiming baseline (Cong & Wu, ICCD'96), end to end.
//!
//! Both drivers binary-search the clock period `Φ ∈ [1, Φ_upper]` — the
//! upper bound coming from a quick FlowMap-frt run (footnote 4 of the
//! paper) — with their respective label computations as the feasibility
//! oracle, then generate the mapping at `Φ_min`.

use crate::frtcheck::FrtContext;
use crate::gencheck::GeneralContext;
use crate::generate::{generate_mapping, GenerateError};
use netlist::Circuit;
use retiming::MoveStats;

/// Configuration shared by the TurboMap drivers.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// LUT input bound K.
    pub k: usize,
    /// Cap on `frt(v)` — the expansion bound of TurboMap-frt (Theorem 2
    /// needs `F_v^{frt(v)}`; the cap only matters on register-heavy
    /// inputs; see DESIGN.md).
    pub weight_horizon: u64,
    /// Per-LUT register-crossing horizon for the **general** TurboMap
    /// baseline. Theory allows `K·n` (which admits loop-unrolled LUTs),
    /// but the ICCD'96 implementation's partial flow networks explore
    /// small windows in practice; 1 reproduces its reported behaviour
    /// (see DESIGN.md).
    pub general_horizon: u64,
}

impl Options {
    /// Default options for a given K.
    pub fn with_k(k: usize) -> Options {
        Options {
            k,
            weight_horizon: 32,
            general_horizon: 1,
        }
    }
}

impl Default for Options {
    fn default() -> Options {
        Options::with_k(5)
    }
}

/// Result of a TurboMap-frt or TurboMap run.
#[derive(Debug, Clone)]
pub struct TurboMapResult {
    /// The mapped, retimed LUT network with initial state.
    pub circuit: Circuit,
    /// The minimum clock period found.
    pub period: u64,
    /// Number of K-LUTs.
    pub luts: usize,
    /// FF count (register sharing).
    pub ffs: usize,
    /// Label-computation sweeps per probed period (Φ, sweeps).
    pub iterations: Vec<(u64, usize)>,
    /// Unit-move statistics of the final retiming.
    pub moves: MoveStats,
    /// True when initial state computation failed and values were erased
    /// to `X` (never set by TurboMap-frt; the paper's `⋆` for TurboMap).
    pub initial_state_lost: bool,
    /// True when the computed initial values are *not* consistent under
    /// register sharing: the FF count assumes shared chains, but the
    /// justified values of duplicated registers disagree, so the shared
    /// implementation has no equivalent initial state. Together with
    /// `initial_state_lost` this is the reproduction's analogue of the
    /// paper's `⋆` outcomes.
    pub sharing_conflict: bool,
}

impl TurboMapResult {
    /// The paper's `⋆`: no usable equivalent initial state was computed
    /// for the (register-shared) mapping.
    pub fn star(&self) -> bool {
        self.initial_state_lost || self.sharing_conflict
    }
}

/// Errors from the TurboMap drivers.
#[derive(Debug)]
pub enum TurboMapError {
    /// The input circuit failed validation.
    Invalid(netlist::NetlistError),
    /// Even the upper-bound period was infeasible (internal error).
    NoFeasiblePeriod,
    /// Mapping generation failed.
    Generate(GenerateError),
    /// Baseline FlowMap-frt run failed.
    Baseline(flowmap::FlowMapError),
    /// The run was cancelled through the thread's installed
    /// [`engine::cancel`] token (batch deadline or external cancel).
    Cancelled,
}

impl std::fmt::Display for TurboMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TurboMapError::Invalid(e) => write!(f, "invalid circuit: {e}"),
            TurboMapError::NoFeasiblePeriod => write!(f, "no feasible clock period found"),
            TurboMapError::Generate(e) => write!(f, "generation: {e}"),
            TurboMapError::Baseline(e) => write!(f, "baseline: {e}"),
            TurboMapError::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for TurboMapError {}

impl From<GenerateError> for TurboMapError {
    fn from(e: GenerateError) -> Self {
        TurboMapError::Generate(e)
    }
}

fn ceil_div(a: i64, b: i64) -> i64 {
    a.div_euclid(b) + if a.rem_euclid(b) != 0 { 1 } else { 0 }
}

/// TurboMap-frt's core guarantee is that it only ever moves registers
/// **forward** (that is what makes initial states computable in linear
/// time); pin that invariant on both the move stats and the thread's
/// telemetry counter in debug builds.
#[cfg(debug_assertions)]
fn debug_assert_no_backward_moves(counter_before: u64, moves: &MoveStats) {
    assert_eq!(
        moves.backward_moves, 0,
        "turbomap_frt applied backward register moves"
    );
    let now = engine::telemetry::snapshot().counter(engine::telemetry::Counter::BackwardMoves);
    assert_eq!(
        now, counter_before,
        "turbomap_frt incremented the backward_moves counter"
    );
}

/// Errors out when the thread's installed cancellation token tripped
/// (the oracles bail out early in that state, so their answers must be
/// discarded rather than interpreted as infeasibility).
fn check_cancelled() -> Result<(), TurboMapError> {
    if engine::cancel::cancelled() {
        Err(TurboMapError::Cancelled)
    } else {
        Ok(())
    }
}

/// One debug log line per Φ probe of the binary search; a disabled
/// filter costs one atomic load.
fn log_probe(target: &str, phi: u64, feasible: bool, sweeps: usize) {
    engine::log::debug(
        target,
        "phi probe",
        &[
            ("phi", engine::JsonValue::UInt(phi)),
            ("feasible", engine::JsonValue::Bool(feasible)),
            ("sweeps", engine::JsonValue::UInt(sweeps as u64)),
        ],
    );
}

/// Prepares a circuit for mapping: validate and K-bound it.
///
/// # Errors
///
/// Returns the validation error if the circuit is malformed.
pub fn prepare(c: &Circuit, k: usize) -> Result<Circuit, TurboMapError> {
    let _span = engine::trace::span1("prepare", "gates", c.num_gates() as u64);
    netlist::validate(c).map_err(TurboMapError::Invalid)?;
    let live = netlist::prune_dead(c).map_err(TurboMapError::Invalid)?;
    let bounded = if live.max_fanin() > k {
        netlist::decompose_to_k(&live, 2).map_err(TurboMapError::Invalid)?
    } else {
        live
    };
    Ok(bounded)
}

/// TurboMap-frt (the paper's algorithm): optimal K-LUT mapping with
/// forward retiming, minimum clock period, guaranteed initial state.
///
/// # Errors
///
/// See [`TurboMapError`]; initial state computation cannot fail here.
pub fn turbomap_frt(c: &Circuit, opts: Options) -> Result<TurboMapResult, TurboMapError> {
    #[cfg(debug_assertions)]
    let backward_before =
        engine::telemetry::snapshot().counter(engine::telemetry::Counter::BackwardMoves);
    let bounded = prepare(c, opts.k)?;
    // Upper bound: FlowMap-frt (cheap, feasible by construction).
    let baseline = flowmap::flowmap_frt(&bounded, opts.k).map_err(TurboMapError::Baseline)?;
    let upper = baseline.period.max(1);
    let ctx = FrtContext::new(&bounded, opts.k, opts.weight_horizon);
    let mut iterations = Vec::new();
    let mut lo = 1u64;
    let mut hi = upper;
    let phi_span = engine::trace::span1("phi_search", "upper", upper);
    // Confirm the upper bound under FRTcheck itself (it must be feasible;
    // keep its labels as fallback).
    let top = {
        let _p = engine::trace::span1("phi_probe", "phi", upper);
        ctx.check(upper)
    };
    check_cancelled()?;
    log_probe("turbomap::frt", upper, top.feasible, top.iterations);
    iterations.push((upper, top.iterations));
    if !top.feasible {
        return Err(TurboMapError::NoFeasiblePeriod);
    }
    // Best feasible probe so far: its period and labels (the mapping
    // seed and the warm-start donor).
    let mut best = (upper, top.labels);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let res = {
            let _p = engine::trace::span1("phi_probe", "phi", mid);
            // Every remaining probe sits strictly below the best feasible
            // Φ (the search keeps `hi` at it), so its labels are a sound
            // warm seed for `mid`.
            ctx.check_opts(mid, Some(&best.1), 1)
        };
        check_cancelled()?;
        log_probe("turbomap::frt", mid, res.feasible, res.iterations);
        iterations.push((mid, res.iterations));
        if res.feasible {
            best = (mid, res.labels);
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    drop(phi_span);
    let (phi, labels) = best;
    debug_assert_eq!(phi, lo.min(upper));

    // At equal Φ the FlowMap-frt network is itself an optimal FRT mapping
    // solution and block-wise generation wastes no area on duplication —
    // take it (the paper's near-identical LUT counts at equal Φ suggest
    // the authors' generation behaves the same way).
    if phi == baseline.period {
        let mut circuit = baseline.circuit;
        circuit.set_name(format!("{}_tmfrt", c.name()));
        #[cfg(debug_assertions)]
        debug_assert_no_backward_moves(backward_before, &baseline.moves);
        return Ok(TurboMapResult {
            period: phi,
            luts: circuit.num_gates(),
            ffs: circuit.ff_count_shared(),
            iterations,
            moves: baseline.moves,
            initial_state_lost: false,
            sharing_conflict: !circuit.sharing_consistent(),
            circuit,
        });
    }
    let cuts = ctx.final_cuts(&labels, phi);
    let roots = crate::generate::collect_roots(&bounded, &cuts)?;
    let rr: std::collections::HashMap<netlist::NodeId, i64> = roots
        .keys()
        .map(|&v| (v, ceil_div(labels.ls[v.index()], phi as i64) - 1))
        .collect();
    let gen = generate_mapping(&bounded, &roots, &rr, &format!("{}_tmfrt", c.name()), false)?;
    debug_assert!(!gen.initial_state_lost);
    #[cfg(debug_assertions)]
    debug_assert_no_backward_moves(backward_before, &gen.moves);
    let achieved = gen.circuit.clock_period().map_err(TurboMapError::Invalid)?;
    debug_assert!(achieved <= phi, "generated period {achieved} > Φ {phi}");
    let sharing_conflict = !gen.circuit.sharing_consistent();
    Ok(TurboMapResult {
        period: achieved.min(phi),
        luts: gen.circuit.num_gates(),
        ffs: gen.circuit.ff_count_shared(),
        iterations,
        moves: gen.moves,
        initial_state_lost: gen.initial_state_lost,
        sharing_conflict,
        circuit: gen.circuit,
    })
}

/// TurboMap (general retiming baseline): optimal mapping with
/// unrestricted retiming; initial states need backward justification and
/// may be lost (`initial_state_lost` — the paper's `⋆`).
///
/// # Errors
///
/// See [`TurboMapError`].
pub fn turbomap_general(c: &Circuit, opts: Options) -> Result<TurboMapResult, TurboMapError> {
    let bounded = prepare(c, opts.k)?;
    let baseline = flowmap::flowmap_frt(&bounded, opts.k).map_err(TurboMapError::Baseline)?;
    let upper = baseline.period.max(1);
    let ctx = GeneralContext::new(&bounded, opts.k, opts.general_horizon);
    let mut iterations = Vec::new();
    let mut lo = 1u64;
    let mut hi = upper;
    let phi_span = engine::trace::span1("phi_search", "upper", upper);
    let top = {
        let _p = engine::trace::span1("phi_probe", "phi", upper);
        ctx.check(upper)
    };
    check_cancelled()?;
    log_probe("turbomap::general", upper, top.feasible, top.iterations);
    iterations.push((upper, top.iterations));
    if !top.feasible {
        return Err(TurboMapError::NoFeasiblePeriod);
    }
    let mut best = Some((upper, top.labels));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let res = {
            let _p = engine::trace::span1("phi_probe", "phi", mid);
            ctx.check(mid)
        };
        check_cancelled()?;
        log_probe("turbomap::general", mid, res.feasible, res.iterations);
        iterations.push((mid, res.iterations));
        if res.feasible {
            best = Some((mid, res.labels));
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    drop(phi_span);
    let (phi, labels) = best.ok_or(TurboMapError::NoFeasiblePeriod)?;
    if phi == baseline.period {
        // The baseline network achieves the same period with guaranteed
        // initial state — a general-retiming run cannot improve on it.
        let mut circuit = baseline.circuit;
        circuit.set_name(format!("{}_tm", c.name()));
        return Ok(TurboMapResult {
            period: phi,
            luts: circuit.num_gates(),
            ffs: circuit.ff_count_shared(),
            iterations,
            moves: baseline.moves,
            initial_state_lost: false,
            sharing_conflict: !circuit.sharing_consistent(),
            circuit,
        });
    }
    let cuts = ctx.final_cuts(&labels, phi);
    let roots = crate::generate::collect_roots(&bounded, &cuts)?;
    let rr: std::collections::HashMap<netlist::NodeId, i64> = roots
        .keys()
        .map(|&v| (v, ceil_div(labels[v.index()], phi as i64) - 1))
        .collect();
    let gen = generate_mapping(&bounded, &roots, &rr, &format!("{}_tm", c.name()), true)?;
    let achieved = gen.circuit.clock_period().map_err(TurboMapError::Invalid)?;
    debug_assert!(achieved <= phi, "generated period {achieved} > Φ {phi}");
    let sharing_conflict = !gen.circuit.sharing_consistent();
    Ok(TurboMapResult {
        period: achieved.min(phi),
        luts: gen.circuit.num_gates(),
        ffs: gen.circuit.ff_count_shared(),
        iterations,
        moves: gen.moves,
        initial_state_lost: gen.initial_state_lost,
        sharing_conflict,
        circuit: gen.circuit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{exhaustive_equiv, Bit, TruthTable};

    fn pipeline_with_front_ff() -> Circuit {
        let mut c = Circuit::new("p");
        let i1 = c.add_input("i1").unwrap();
        let i2 = c.add_input("i2").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::xor(2)).unwrap();
        let g3 = c.add_gate("g3", TruthTable::or(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i1, g1, vec![Bit::One]).unwrap();
        c.connect(i2, g1, vec![Bit::Zero]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(i2, g2, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(i1, g3, vec![]).unwrap();
        c.connect(g3, o, vec![]).unwrap();
        c
    }

    #[test]
    fn frt_result_is_equivalent_and_fast() {
        let c = pipeline_with_front_ff();
        let res = turbomap_frt(&c, Options::with_k(2)).unwrap();
        assert!(!res.initial_state_lost);
        assert!(res.period <= c.clock_period().unwrap());
        assert!(exhaustive_equiv(&c, &res.circuit, 6)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn frt_single_lut_at_k5() {
        let c = pipeline_with_front_ff();
        let res = turbomap_frt(&c, Options::with_k(5)).unwrap();
        // Only 2 PIs: with K=5 and registers pullable, one LUT + retiming
        // reaches Φ = 1.
        assert_eq!(res.period, 1);
        assert!(exhaustive_equiv(&c, &res.circuit, 6)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn general_no_worse_than_frt() {
        let c = pipeline_with_front_ff();
        for k in 2..=5 {
            let frt = turbomap_frt(&c, Options::with_k(k)).unwrap();
            let gen = turbomap_general(&c, Options::with_k(k)).unwrap();
            assert!(gen.period <= frt.period, "k={k}");
        }
    }

    #[test]
    fn frt_no_worse_than_flowmap_frt() {
        let c = pipeline_with_front_ff();
        for k in 2..=5 {
            let base = flowmap::flowmap_frt(&c, k).unwrap();
            let frt = turbomap_frt(&c, Options::with_k(k)).unwrap();
            assert!(frt.period <= base.period, "k={k}");
        }
    }

    #[test]
    fn general_equivalent_when_state_kept() {
        let c = pipeline_with_front_ff();
        let res = turbomap_general(&c, Options::with_k(3)).unwrap();
        if !res.initial_state_lost {
            assert!(exhaustive_equiv(&c, &res.circuit, 6)
                .unwrap()
                .is_equivalent());
        }
    }

    #[test]
    fn wide_gates_are_decomposed() {
        let mut c = Circuit::new("wide");
        let ins: Vec<_> = (0..7)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        let g = c.add_gate("g", TruthTable::and(7)).unwrap();
        let o = c.add_output("o").unwrap();
        for &i in &ins {
            c.connect(i, g, vec![Bit::One]).unwrap();
        }
        c.connect(g, o, vec![]).unwrap();
        let res = turbomap_frt(&c, Options::with_k(4)).unwrap();
        assert!(res.circuit.max_fanin() <= 4);
        assert!(exhaustive_equiv(&c, &res.circuit, 2)
            .unwrap()
            .is_equivalent());
    }

    fn medium_fsm() -> Circuit {
        workloads::generate_fsm(&workloads::FsmSpec {
            name: "det".into(),
            states: 9,
            inputs: 4,
            decoded: 2,
            outputs: 2,
            encoding: workloads::Encoding::Binary,
            registered_inputs: true,
            seed: 11,
        })
    }

    /// Warm-started probes (every probe after the first) reach the verdict
    /// a cold probe reaches at the same Φ, and never take more sweeps in
    /// total than cold probes would. planet1 is the Table-1 preset on
    /// which a warm probe takes fewer sweeps than a cold one (150 against
    /// 151 sweeps over the whole suite), so there the saving must show.
    #[test]
    fn warm_probes_match_cold_checks() {
        let planet1 = workloads::presets()
            .into_iter()
            .find(|p| p.name == "planet1")
            .expect("planet1 preset");
        let cases = [
            (medium_fsm(), 4, false),
            (workloads::build_preset(&planet1), 5, true),
        ];
        for (c, k, saves) in cases {
            let res = turbomap_frt(&c, Options::with_k(k)).unwrap();
            let probes = &res.iterations;
            assert!(probes.len() > 1, "{}: no warm probe", c.name());
            let prepared = prepare(&c, k).unwrap();
            let ctx = FrtContext::new(&prepared, k, Options::with_k(k).weight_horizon);
            let mut cold_sweeps = 0;
            for (i, &(phi, _)) in probes.iter().enumerate() {
                // The binary search moves below a feasible probe and above
                // an infeasible one, and settles on the last feasible Φ.
                let warm_feasible = match probes.get(i + 1) {
                    Some(&(next, _)) => next < phi,
                    None => phi == res.period,
                };
                let cold = ctx.check(phi);
                assert_eq!(cold.feasible, warm_feasible, "{} phi={phi}", c.name());
                cold_sweeps += cold.iterations;
            }
            let warm_sweeps: usize = probes.iter().map(|&(_, s)| s).sum();
            assert!(
                warm_sweeps <= cold_sweeps,
                "{}: warm {warm_sweeps} > cold {cold_sweeps} sweeps",
                c.name()
            );
            if saves {
                assert!(
                    warm_sweeps < cold_sweeps,
                    "{}: warm starts saved no sweep",
                    c.name()
                );
            }
        }
    }

    #[test]
    fn invalid_circuit_rejected() {
        let mut c = Circuit::new("bad");
        c.add_input("a").unwrap();
        c.add_output("o").unwrap(); // unconnected PO
        assert!(matches!(
            turbomap_frt(&c, Options::default()),
            Err(TurboMapError::Invalid(_))
        ));
    }
}
