//! The TurboMap-frt algorithm (Section 3) and the TurboMap general-
//! retiming baseline (Cong & Wu, ICCD'96), end to end.
//!
//! Both drivers binary-search the clock period `Φ ∈ [1, Φ_upper]` — the
//! upper bound coming from a quick FlowMap-frt run (footnote 4 of the
//! paper) — with their respective label computations as the feasibility
//! oracle, then generate the mapping at `Φ_min`. Each builds its label
//! context first; FlowMap-frt then labels from the cone-weight-0 cuts of
//! the context's cut arena, so the cuts are enumerated once per run.

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

/// The least feasible Φ the search found, with its labels.
struct Searched<L> {
    phi: u64,
    labels: L,
    /// Label-computation sweeps per probed period (Φ, sweeps).
    iterations: Vec<(u64, usize)>,
}

/// Binary-searches the least feasible Φ in `[1, upper]`, probing `upper`
/// first: it must be feasible. `probe(Φ, seed)` answers one period as
/// `(feasible, labels, sweeps)`; `seed` holds the labels of the best
/// feasible probe so far, a sound warm start because every later probe
/// sits strictly below it (the search keeps `hi` at it).
fn phi_search<L>(
    target: &str,
    upper: u64,
    mut probe: impl FnMut(u64, Option<&L>) -> (bool, L, usize),
) -> Result<Searched<L>, TurboMapError> {
    let _span = engine::trace::span1("phi_search", "upper", upper);
    let mut iterations = Vec::new();
    let mut best: Option<(u64, L)> = None;
    let (mut lo, mut hi) = (1u64, upper);
    let mut phi = upper;
    loop {
        let (feasible, labels, sweeps) = {
            let _p = engine::trace::span1("phi_probe", "phi", phi);
            probe(phi, best.as_ref().map(|(_, labels)| labels))
        };
        check_cancelled()?;
        log_probe(target, phi, feasible, sweeps);
        iterations.push((phi, sweeps));
        if feasible {
            best = Some((phi, labels));
            hi = phi;
        } else if best.is_none() {
            return Err(TurboMapError::NoFeasiblePeriod);
        } else {
            lo = phi + 1;
        }
        if lo >= hi {
            break;
        }
        phi = lo + (hi - lo) / 2;
    }
    let (phi, labels) = best.ok_or(TurboMapError::NoFeasiblePeriod)?;
    debug_assert_eq!(phi, lo);
    Ok(Searched {
        phi,
        labels,
        iterations,
    })
}

/// The mapping at the searched Φ, named `name`; the caller fills in the
/// search's `iterations`. At equal Φ the FlowMap-frt baseline is itself
/// an optimal solution with a guaranteed initial state, and block-wise
/// generation wastes no area on duplication — take it (the paper's
/// near-identical LUT counts at equal Φ suggest the authors' generation
/// behaves the same way). Otherwise the roots come from `final_cuts`,
/// their retiming `Ɍ(v) = ⌈l(v)/Φ⌉ − 1` from the labels `ls`, and
/// [`generate_mapping`] builds the network (`general` lets it lose the
/// initial state).
fn generate_at(
    bounded: &Circuit,
    baseline: flowmap::FlowMapFrtResult,
    name: &str,
    phi: u64,
    ls: &[i64],
    final_cuts: impl FnOnce() -> Vec<Option<crate::ExpCut>>,
    general: bool,
) -> Result<TurboMapResult, TurboMapError> {
    if phi == baseline.period {
        let mut circuit = baseline.circuit;
        circuit.set_name(name);
        return Ok(TurboMapResult {
            period: phi,
            luts: circuit.num_gates(),
            ffs: circuit.ff_count_shared(),
            iterations: Vec::new(),
            moves: baseline.moves,
            initial_state_lost: false,
            sharing_conflict: !circuit.sharing_consistent(),
            circuit,
        });
    }
    let cuts = final_cuts();
    let roots = crate::generate::collect_roots(bounded, &cuts)?;
    let rr: std::collections::HashMap<netlist::NodeId, i64> = roots
        .keys()
        .map(|&v| (v, ceil_div(ls[v.index()], phi as i64) - 1))
        .collect();
    let gen = generate_mapping(bounded, &roots, &rr, name, general)?;
    let achieved = gen.circuit.clock_period().map_err(TurboMapError::Invalid)?;
    debug_assert!(achieved <= phi, "generated period {achieved} > Φ {phi}");
    let sharing_conflict = !gen.circuit.sharing_consistent();
    Ok(TurboMapResult {
        period: achieved.min(phi),
        luts: gen.circuit.num_gates(),
        ffs: gen.circuit.ff_count_shared(),
        iterations: Vec::new(),
        moves: gen.moves,
        initial_state_lost: gen.initial_state_lost,
        sharing_conflict,
        circuit: gen.circuit,
    })
}

/// TurboMap-frt (the paper's algorithm): optimal K-LUT mapping with
/// forward retiming, minimum clock period, guaranteed initial state.
///
/// # Errors
///
/// See [`TurboMapError`]; initial state computation cannot fail here.
pub fn turbomap_frt(c: &Circuit, opts: Options) -> Result<TurboMapResult, TurboMapError> {
    let bounded = prepare(c, opts.k)?;
    check_cancelled()?;
    let ctx = FrtContext::new(&bounded, opts.k, opts.weight_horizon);
    turbomap_frt_with(c.name(), &ctx)
}

/// [`turbomap_frt`] of the circuit named `name` from its label context:
/// `ctx` built on the [`prepare`]d network. A caller that reads the
/// context after the run (the certificate report) builds it once and so
/// enumerates the cuts once.
///
/// # Errors
///
/// See [`TurboMapError`]; initial state computation cannot fail here.
pub fn turbomap_frt_with(name: &str, ctx: &FrtContext) -> Result<TurboMapResult, TurboMapError> {
    check_cancelled()?;
    let bounded = ctx.circuit();
    // Upper bound: FlowMap-frt (cheap, feasible by construction).
    let baseline =
        flowmap::flowmap_frt_with(bounded, ctx.cut_arena()).map_err(TurboMapError::Baseline)?;
    check_cancelled()?;
    let s = phi_search("turbomap::frt", baseline.period.max(1), |phi, seed| {
        let res = ctx.check_opts(phi, seed, 1);
        (res.feasible, res.labels, res.iterations)
    })?;
    let name = format!("{name}_tmfrt");
    let cuts = || ctx.final_cuts(&s.labels, s.phi);
    let res = generate_at(bounded, baseline, &name, s.phi, &s.labels.ls, cuts, false)?;
    debug_assert!(!res.initial_state_lost);
    Ok(TurboMapResult {
        iterations: s.iterations,
        ..res
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
    check_cancelled()?;
    let ctx = GeneralContext::new(&bounded, opts.k, opts.general_horizon);
    turbomap_general_with(c.name(), &ctx)
}

/// [`turbomap_general`] of the circuit named `name` from its label
/// context: `ctx` built on the [`prepare`]d network.
///
/// # Errors
///
/// See [`TurboMapError`].
pub fn turbomap_general_with(
    name: &str,
    ctx: &GeneralContext,
) -> Result<TurboMapResult, TurboMapError> {
    check_cancelled()?;
    let bounded = ctx.circuit();
    let baseline =
        flowmap::flowmap_frt_with(bounded, ctx.cut_arena()).map_err(TurboMapError::Baseline)?;
    check_cancelled()?;
    // Every probe starts cold: the general labels take no warm seed.
    let s = phi_search("turbomap::general", baseline.period.max(1), |phi, _| {
        let res = ctx.check(phi);
        (res.feasible, res.labels, res.iterations)
    })?;
    let name = format!("{name}_tm");
    let cuts = || ctx.final_cuts(&s.labels, s.phi);
    let res = generate_at(bounded, baseline, &name, s.phi, &s.labels, cuts, true)?;
    Ok(TurboMapResult {
        iterations: s.iterations,
        ..res
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

    /// A run whose token tripped before it started stops after
    /// `prepare`: it never enumerates a cut.
    #[test]
    fn pre_cancelled_runs_enumerate_no_cuts() {
        use engine::telemetry::{self, Counter};
        let s5378 = workloads::presets()
            .into_iter()
            .find(|p| p.name == "s5378")
            .expect("s5378 preset");
        let c = workloads::build_preset(&s5378);
        let token = engine::cancel::CancelToken::new();
        token.cancel();
        let _installed = engine::cancel::install(token);
        let kept = || telemetry::snapshot().counter(Counter::CutsKept);
        let before = kept();
        let frt = turbomap_frt(&c, Options::with_k(5));
        assert!(matches!(frt, Err(TurboMapError::Cancelled)), "{frt:?}");
        let general = turbomap_general(&c, Options::with_k(5));
        assert!(
            matches!(general, Err(TurboMapError::Cancelled)),
            "{general:?}"
        );
        assert_eq!(kept() - before, 0);
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
    /// which a warm probe takes fewer sweeps than a cold one (148 against
    /// 149 sweeps over the whole suite), so there the saving must show.
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
