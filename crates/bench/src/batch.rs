//! Parallel Table-1 suite execution on the engine batch runner.
//!
//! Each circuit becomes one [`JobSpec`]: the job runs all three
//! algorithms via [`crate::try_run_row`] under the engine's panic
//! isolation and (optional) soft deadline. Reports come back in suite
//! order regardless of worker count, so the text table, the JSON
//! artifact and the `--jobs 1` baseline all agree on ordering.

use crate::Row;
use engine::{run_batch, BatchOptions, JobReport, JobSpec};
use std::time::Duration;

/// Configuration of one suite run.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// LUT input bound.
    pub k: usize,
    /// Run the random-vector equivalence check per mapping.
    pub verify: bool,
    /// Worker threads (0 → one worker).
    pub jobs: usize,
    /// Per-job soft deadline (`None` → no deadline).
    pub timeout: Option<Duration>,
    /// Keep only circuits with at most this many gates (`None` → all 18).
    pub max_gates: Option<usize>,
}

impl Default for SuiteConfig {
    fn default() -> SuiteConfig {
        SuiteConfig {
            k: 5,
            verify: true,
            jobs: 1,
            timeout: None,
            max_gates: None,
        }
    }
}

/// Runs the Table-1 suite under `cfg`, one engine job per circuit.
/// Reports are in suite (submission) order.
pub fn run_table1_suite(cfg: &SuiteConfig) -> Vec<JobReport<Row>> {
    let suite = match cfg.max_gates {
        Some(m) => workloads::table1_suite_small(m),
        None => workloads::table1_suite(),
    };
    let specs: Vec<JobSpec<Row>> = suite
        .into_iter()
        .map(|(p, c)| {
            let (k, verify) = (cfg.k, cfg.verify);
            JobSpec::new(p.name, move || crate::try_run_row(p.name, &c, k, verify))
        })
        .collect();
    let mut opts = BatchOptions::with_jobs(cfg.jobs);
    if let Some(t) = cfg.timeout {
        opts = opts.with_timeout(t);
    }
    run_batch(specs, &opts)
}

/// Runs the `--report-dir` pass: re-maps every suite circuit (within
/// `cfg.max_gates`) through [`report::explain`] and replays the
/// rendered `turbomap-report/v2` document through the independent
/// checker. Returns `(name, Ok(json))` per circuit, or `Err` naming
/// what failed — an unverifiable witness, a negative slack, or a
/// missing critical node all count as failures, so a clean pass is the
/// paper's Φ-optimality claim checked end to end.
///
/// The pass runs *after* the measured suite on fresh mappings: report
/// extraction never touches the telemetry captured in the rows, which
/// keeps the canonical artifact byte-identical with reporting on or
/// off.
pub fn explain_suite(cfg: &SuiteConfig) -> Vec<(String, Result<String, String>)> {
    let suite = match cfg.max_gates {
        Some(m) => workloads::table1_suite_small(m),
        None => workloads::table1_suite(),
    };
    suite
        .into_iter()
        .map(|(p, c)| {
            let opts = turbomap::Options::with_k(cfg.k);
            (p.name.to_string(), explain_one(&c, opts))
        })
        .collect()
}

/// One circuit of the report pass: explain, render, parse back, verify.
fn explain_one(c: &netlist::Circuit, opts: turbomap::Options) -> Result<String, String> {
    let explained = report::explain(c, opts).map_err(|e| format!("explain: {e}"))?;
    // Slacks are unsigned by construction; the checker re-derives them and
    // rejects any arrival past Φ, so "all slacks ≥ 0" holds by type.
    if explained.report.nodes.iter().map(|n| n.slack).min() != Some(0) {
        return Err("no critical node (minimum slack is not 0)".into());
    }
    let doc = explained.to_json().render_pretty();
    let parsed = engine::JsonValue::parse(&doc).map_err(|e| format!("re-parse: {e}"))?;
    let summary = report::verify(&parsed, c, &explained.result.circuit)
        .map_err(|e| format!("checker: {e}"))?;
    match summary.witness {
        report::WitnessVerdict::Verified { .. } => Ok(doc),
        report::WitnessVerdict::Unavailable { reason } => {
            Err(format!("witness unavailable: {reason}"))
        }
    }
}

/// Names of jobs that did not complete, with their status keyword
/// (`failed` / `panicked` / `deadline`).
pub fn failures(reports: &[JobReport<Row>]) -> Vec<(String, &'static str)> {
    reports
        .iter()
        .filter(|r| !r.outcome.is_completed())
        .map(|r| (r.name.clone(), r.outcome.status()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Running the `--report-dir` certificate pass between two suite
    /// runs leaves the canonical artifact byte-identical: report
    /// extraction shares no telemetry with the measured rows.
    #[test]
    fn canonical_artifact_unchanged_by_report_pass() {
        let cfg = SuiteConfig {
            verify: false,
            max_gates: Some(40),
            ..SuiteConfig::default()
        };
        let before =
            crate::artifact::table1_json(&run_table1_suite(&cfg), cfg.k, 0, true).render_pretty();
        for (name, outcome) in explain_suite(&cfg) {
            outcome.unwrap_or_else(|e| panic!("{name}: certificate pass failed: {e}"));
        }
        let after =
            crate::artifact::table1_json(&run_table1_suite(&cfg), cfg.k, 0, true).render_pretty();
        assert_eq!(before, after);
    }

    #[test]
    fn small_suite_runs_in_order() {
        let cfg = SuiteConfig {
            verify: false,
            jobs: 4,
            max_gates: Some(40),
            ..SuiteConfig::default()
        };
        let reports = run_table1_suite(&cfg);
        assert!(!reports.is_empty());
        let expected: Vec<&str> = workloads::table1_suite_small(40)
            .iter()
            .map(|(p, _)| p.name)
            .collect();
        let got: Vec<&str> = reports.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(got, expected);
        assert!(failures(&reports).is_empty());
        for r in &reports {
            let row = r.outcome.completed().expect("job completed");
            assert!(row.turbomap_frt.phi >= row.turbomap.phi);
        }
    }
}
