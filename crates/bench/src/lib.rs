//! Benchmark harness support: runs the paper's three algorithms on a
//! circuit and formats Table-1-style reports.
//!
//! Timing comes from one source: the `engine::trace` spans that the
//! mapping crates open, accumulated into the span table of each
//! [`engine::Telemetry`] snapshot. Each algorithm runs under one
//! top-level span named after it ([`ALGORITHM_SPANS`]); its `CPU`
//! column is that span's wall time. The text report and the JSON
//! artifact read the same snapshots, so they can never disagree.

pub mod artifact;
pub mod batch;
pub mod diff;
pub mod large;

use engine::telemetry::{self, Telemetry};
use netlist::Circuit;

/// One algorithm's measured row fragment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Clock period Φ.
    pub phi: u64,
    /// LUT count.
    pub luts: usize,
    /// FF count (register sharing).
    pub ffs: usize,
    /// Mapping seconds: the wall time of the algorithm's top-level span
    /// (verification runs after it, under its own `verify` span).
    pub cpu: f64,
    /// `⋆`: no usable equivalent initial state.
    pub star: bool,
    /// Sequential equivalence verified (random vectors).
    pub verified: bool,
    /// Full telemetry delta attributed to this algorithm (spans,
    /// counters and histograms, verification included).
    pub telemetry: Telemetry,
}

/// All three algorithms on one circuit.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Gates of the original circuit.
    pub n: usize,
    /// Registers of the original circuit.
    pub f: usize,
    /// FlowMap-frt result.
    pub flowmap_frt: Measured,
    /// TurboMap (general retiming) result.
    pub turbomap: Measured,
    /// TurboMap-frt result.
    pub turbomap_frt: Measured,
    /// Label iterations per probed Φ for TurboMap-frt (the §3.2 claim).
    pub frt_iterations: Vec<(u64, usize)>,
}

impl Row {
    /// The best Φ among baselines whose initial state was usable
    /// (the paper's `Best` column).
    pub fn best_valid_phi(&self) -> u64 {
        let mut best = self.flowmap_frt.phi;
        if !self.turbomap.star {
            best = best.min(self.turbomap.phi);
        }
        best
    }
}

/// Number of random vectors used for verification (the paper used 3008
/// for its largest circuits).
pub const VERIFY_VECTORS: usize = 3008;

/// The top-level span of each algorithm, in [`Row`] order: FlowMap-frt,
/// TurboMap, TurboMap-frt.
pub const ALGORITHM_SPANS: [&str; 3] = ["flowmap_frt", "turbomap", "turbomap_frt"];

/// Runs the three algorithms on one circuit, returning an error string
/// instead of panicking (the batch runner's preferred shape: a cancelled
/// or failed algorithm becomes a reportable job outcome).
///
/// `verify` enables the random-vector equivalence check (skippable for
/// timing-only runs).
///
/// # Errors
///
/// Returns a message naming the failing algorithm; cancellation
/// (`TurboMapError::Cancelled`) propagates as an error mentioning it.
pub fn try_run_row(name: &str, c: &Circuit, k: usize, verify: bool) -> Result<Row, String> {
    try_run_row_opts(name, c, verify, turbomap::Options::with_k(k))
}

/// [`try_run_row`] with full control over the TurboMap options.
/// `opts.k` applies to all three algorithms.
///
/// # Errors
///
/// Same contract as [`try_run_row`].
pub fn try_run_row_opts(
    name: &str,
    c: &Circuit,
    verify: bool,
    opts: turbomap::Options,
) -> Result<Row, String> {
    let k = opts.k;
    let check = |mapped: &Circuit, seed: u64| -> bool {
        let _s = engine::trace::span1("verify", "vectors", VERIFY_VECTORS as u64);
        verify
            && netlist::random_equiv(c, mapped, VERIFY_VECTORS, seed)
                .map(|r| r.is_equivalent())
                .unwrap_or(false)
    };

    let [fm_span, tm_span, tf_span] = ALGORITHM_SPANS;
    let t0 = telemetry::snapshot();
    let fm = {
        let _s = engine::trace::span(fm_span);
        let prep = turbomap::prepare(c, k).map_err(|e| format!("prepare: {e}"))?;
        flowmap::flowmap_frt(&prep, k).map_err(|e| format!("flowmap-frt: {e}"))?
    };
    let fm_verified = check(&fm.circuit, 1);
    let t1 = telemetry::snapshot();

    let tf = {
        let _s = engine::trace::span(tf_span);
        turbomap::turbomap_frt(c, opts).map_err(|e| format!("turbomap-frt: {e}"))?
    };
    let tf_verified = check(&tf.circuit, 3);
    let t2 = telemetry::snapshot();

    let tm = {
        let _s = engine::trace::span(tm_span);
        turbomap::turbomap_general(c, opts).map_err(|e| format!("turbomap: {e}"))?
    };
    let tm_verified = check(&tm.circuit, 2);
    let t3 = telemetry::snapshot();

    let fm_t = t1.since(&t0);
    let tf_t = t2.since(&t1);
    let tm_t = t3.since(&t2);
    Ok(Row {
        name: name.to_string(),
        n: c.num_gates(),
        f: c.ff_count_shared(),
        flowmap_frt: Measured {
            phi: fm.period,
            luts: fm.luts,
            ffs: fm.ffs,
            cpu: fm_t.spans.wall_secs(fm_span),
            star: false,
            verified: fm_verified,
            telemetry: fm_t,
        },
        turbomap: Measured {
            phi: tm.period,
            luts: tm.luts,
            ffs: tm.ffs,
            cpu: tm_t.spans.wall_secs(tm_span),
            star: tm.star(),
            verified: tm_verified,
            telemetry: tm_t,
        },
        turbomap_frt: Measured {
            phi: tf.period,
            luts: tf.luts,
            ffs: tf.ffs,
            cpu: tf_t.spans.wall_secs(tf_span),
            star: tf.star(),
            verified: tf_verified,
            telemetry: tf_t,
        },
        frt_iterations: tf.iterations,
    })
}

/// Runs the three algorithms on one circuit.
///
/// # Panics
///
/// Panics when an algorithm fails on a valid benchmark (a bug, not a
/// measurement). Use [`try_run_row`] for the non-panicking form.
pub fn run_row(name: &str, c: &Circuit, k: usize, verify: bool) -> Row {
    try_run_row(name, c, k, verify).expect("benchmarks are valid")
}

/// Geometric mean helper.
pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v.max(1e-9).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::telemetry::Counter;

    #[test]
    fn run_row_on_tiny_preset() {
        let presets = workloads::presets();
        let p = &presets[1]; // bbtas
        let c = workloads::build_preset(p);
        let row = run_row(p.name, &c, 5, true);
        assert!(row.turbomap_frt.phi <= row.flowmap_frt.phi);
        assert!(row.turbomap.phi <= row.turbomap_frt.phi);
        assert!(row.flowmap_frt.verified);
        assert!(row.turbomap_frt.verified);
        assert!(!row.turbomap_frt.star);
        assert!(row.best_valid_phi() >= row.turbomap.phi || row.turbomap.star);
    }

    #[test]
    fn telemetry_attributed_per_algorithm() {
        let presets = workloads::presets();
        let p = &presets[1]; // bbtas
        let c = workloads::build_preset(p);
        let row = run_row(p.name, &c, 5, true);
        // TurboMap-frt runs FRTcheck sweeps; every cut, FlowMap-frt's
        // included, comes from the cut arena, so no max-flow runs.
        assert!(row.turbomap_frt.telemetry.counter(Counter::FrtSweeps) > 0);
        assert_eq!(
            row.turbomap_frt
                .telemetry
                .counter(Counter::FlowAugmentations),
            0
        );
        // The mapping cpu is the algorithm span's wall; verification
        // ran after it, under its own span.
        let spans = &row.turbomap_frt.telemetry.spans;
        assert_eq!(spans.get("turbomap_frt").unwrap().count, 1);
        assert_eq!(row.turbomap_frt.cpu, spans.wall_secs("turbomap_frt"));
        assert_eq!(spans.get("verify").unwrap().count, 1);
        assert!(spans.get("flowmap_frt").is_none());
        // Every mapping phase is a named child span of the algorithm's.
        for child in ["prepare", "flowmap_label", "frt_context", "phi_search"] {
            assert!(spans.get(child).is_some(), "no {child} span: {spans:?}");
        }
        // FlowMap-frt does no FRTcheck sweeps.
        assert_eq!(row.flowmap_frt.telemetry.counter(Counter::FrtSweeps), 0);
    }

    #[test]
    fn cancelled_row_is_an_error_not_a_panic() {
        let token = engine::CancelToken::new();
        token.cancel();
        let _g = engine::cancel::install(token);
        let presets = workloads::presets();
        let c = workloads::build_preset(&presets[1]);
        let err = try_run_row("bbtas", &c, 5, false).unwrap_err();
        assert!(err.contains("cancelled"), "err = {err}");
    }

    #[test]
    fn geomean_matches_hand_value() {
        let g = geomean([2.0f64, 8.0].into_iter());
        assert!((g - 4.0).abs() < 1e-9);
    }
}
