//! Campaign driver: seeded case streams on the engine batch pool.
//!
//! A campaign is a set of `(campaign seed × case index)` jobs, each of
//! which generates a case, judges it with the [`crate::oracle`], and —
//! on failure — shrinks it and archives a repro in the corpus. Jobs run
//! under [`engine::run_batch`]: per-case soft deadlines (the watchdog
//! trips the job's cancel token; the mappers bail out cooperatively),
//! panic isolation, and per-job telemetry (histograms `fuzz_case_gates`
//! and `fuzz_case_nanos`). The report counts judged cases, oracle
//! failures and accepted shrink steps itself.
//!
//! Everything is a pure function of the config: the per-case generator
//! seed is derived from `(campaign_seed, case_index)` by splitmix, so a
//! repro manifest pins the exact case regardless of job count or
//! completion order.

use crate::corpus::{write_repro, ReproMeta};
use crate::gen::{generate_case, GenConfig};
use crate::oracle::{run_oracle, OracleConfig, OracleOutcome, Violation};
use crate::shrink::{shrink, ShrinkConfig};
use engine::telemetry;
use engine::{hist, BatchOptions, JobOutcome, JobSpec, JsonValue, Rng64};
use std::path::PathBuf;
use std::time::Duration;

/// Full campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign seeds; each contributes `cases_per_seed` cases.
    pub seeds: Vec<u64>,
    /// Cases per campaign seed.
    pub cases_per_seed: usize,
    /// LUT input bound K.
    pub k: usize,
    /// Generator gate bound.
    pub max_gates: usize,
    /// Generator mutation bound.
    pub max_mutations: usize,
    /// Random vectors per equivalence check.
    pub equiv_vectors: usize,
    /// Seed of the equivalence-check sequences.
    pub equiv_seed: u64,
    /// Enable the Φ-optimality certificate check per case.
    pub certificates: bool,
    /// Block count for the partition-and-conquer cross-check per case
    /// (values below 2 disable it).
    pub partitions: usize,
    /// Batch worker threads (0 → one).
    pub jobs: usize,
    /// Per-case soft deadline.
    pub timeout: Option<Duration>,
    /// Corpus directory for failing cases; `None` disables archiving.
    pub corpus_dir: Option<PathBuf>,
    /// Shrink failing cases before archiving.
    pub shrink: bool,
    /// Shrinker oracle-evaluation budget.
    pub shrink_budget: usize,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seeds: vec![1],
            cases_per_seed: 32,
            k: 4,
            max_gates: 120,
            max_mutations: 12,
            equiv_vectors: 64,
            equiv_seed: 0xEC41_55EE,
            certificates: false,
            partitions: 0,
            jobs: 0,
            timeout: Some(Duration::from_secs(60)),
            corpus_dir: Some(PathBuf::from("fuzz/corpus")),
            shrink: true,
            shrink_budget: 160,
        }
    }
}

impl CampaignConfig {
    /// The generator config slice of this campaign.
    pub fn gen_config(&self) -> GenConfig {
        GenConfig {
            k: self.k,
            max_gates: self.max_gates,
            max_mutations: self.max_mutations,
        }
    }

    /// The oracle config slice of this campaign.
    pub fn oracle_config(&self) -> OracleConfig {
        OracleConfig {
            k: self.k,
            equiv_vectors: self.equiv_vectors,
            equiv_seed: self.equiv_seed,
            certificates: self.certificates,
            partitions: self.partitions,
        }
    }
}

/// Derives the per-case generator seed (stable across job counts).
pub fn case_seed(campaign_seed: u64, index: usize) -> u64 {
    Rng64::new(campaign_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (index as u64)).next_u64()
}

/// One judged case, as reported by its job.
#[derive(Debug, Clone)]
pub struct CaseStatus {
    /// Job name (`fuzz-<seed>-<index>`).
    pub name: String,
    /// Campaign seed.
    pub seed: u64,
    /// Case index within the seed.
    pub index: usize,
    /// Gate count of the generated case.
    pub gates: usize,
    /// Register count of the generated case.
    pub ffs: usize,
    /// Violations (empty = pass).
    pub violations: Vec<Violation>,
    /// Corpus directory of the archived repro, when one was written.
    pub corpus_path: Option<PathBuf>,
    /// Accepted shrink steps.
    pub shrink_steps: usize,
}

/// Aggregated campaign result.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Total jobs submitted.
    pub total: usize,
    /// Cases that passed every check.
    pub passed: usize,
    /// Failing cases, in submission order.
    pub failures: Vec<CaseStatus>,
    /// Cases that hit their deadline (not judged).
    pub deadline: usize,
    /// Jobs that died outside the oracle's panic guards.
    pub panicked: usize,
    /// Jobs that failed for infrastructure reasons (corpus I/O, …).
    pub failed_jobs: Vec<(String, String)>,
    /// Cases judged by the oracle (passed or failed).
    pub cases_run: usize,
    /// Oracle-check failures: one per violated invariant, so a single
    /// case can contribute several.
    pub oracle_failures: usize,
    /// Accepted shrinker reductions across all failing cases.
    pub shrink_steps: usize,
    /// Merged telemetry across all jobs.
    pub telemetry: engine::Telemetry,
}

impl CampaignReport {
    /// True when no oracle violation (and no stray panic) was seen.
    pub fn clean(&self) -> bool {
        self.failures.is_empty() && self.panicked == 0 && self.failed_jobs.is_empty()
    }
}

fn log_case_failure(name: &str, violations: &[Violation]) {
    let kinds: Vec<JsonValue> = violations
        .iter()
        .map(|v| JsonValue::str(v.kind.name()))
        .collect();
    engine::log::warn(
        "fuzz::campaign",
        "oracle violation",
        &[
            ("case", JsonValue::str(name)),
            ("kinds", JsonValue::Array(kinds)),
            (
                "first_detail",
                JsonValue::str(
                    violations
                        .first()
                        .map(|v| v.detail.clone())
                        .unwrap_or_default(),
                ),
            ),
        ],
    );
}

/// Runs the campaign; blocks until every case is judged.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let gen_cfg = cfg.gen_config();
    let oracle_cfg = cfg.oracle_config();
    let total = cfg.seeds.len() * cfg.cases_per_seed;
    engine::log::info(
        "fuzz::campaign",
        "campaign start",
        &[
            ("cases", JsonValue::UInt(total as u64)),
            ("seeds", JsonValue::UInt(cfg.seeds.len() as u64)),
            ("k", JsonValue::UInt(cfg.k as u64)),
            ("jobs", JsonValue::UInt(cfg.jobs as u64)),
        ],
    );
    let mut specs: Vec<JobSpec<CaseStatus>> = Vec::with_capacity(total);
    for &seed in &cfg.seeds {
        for index in 0..cfg.cases_per_seed {
            let name = format!("fuzz-{seed}-{index}");
            let job_name = name.clone();
            let corpus_dir = cfg.corpus_dir.clone();
            let do_shrink = cfg.shrink;
            let shrink_budget = cfg.shrink_budget;
            specs.push(JobSpec::new(name.clone(), move || {
                let t0 = std::time::Instant::now();
                let cs = case_seed(seed, index);
                let circuit = generate_case(cs, &gen_cfg);
                telemetry::record(hist::Metric::FuzzCaseGates, circuit.num_gates() as u64);
                let outcome = run_oracle(&circuit, &oracle_cfg);
                let status = match outcome {
                    OracleOutcome::Cancelled => {
                        return Err("cancelled before judgement".to_string())
                    }
                    OracleOutcome::Pass(_) => CaseStatus {
                        name: job_name,
                        seed,
                        index,
                        gates: circuit.num_gates(),
                        ffs: circuit.ff_count_total(),
                        violations: Vec::new(),
                        corpus_path: None,
                        shrink_steps: 0,
                    },
                    OracleOutcome::Fail { violations, .. } => {
                        log_case_failure(&job_name, &violations);
                        let kind = violations[0].kind;
                        let repro = if do_shrink {
                            shrink(
                                &circuit,
                                &oracle_cfg,
                                kind,
                                &ShrinkConfig {
                                    budget: shrink_budget,
                                },
                            )
                        } else {
                            crate::shrink::ShrinkOutcome {
                                circuit: circuit.clone(),
                                steps: 0,
                                evals: 0,
                            }
                        };
                        let mut corpus_path = None;
                        if let Some(dir) = &corpus_dir {
                            let meta = ReproMeta {
                                campaign_seed: seed,
                                case_index: index,
                                case_seed: cs,
                                k: gen_cfg.k,
                                max_gates: gen_cfg.max_gates,
                                max_mutations: gen_cfg.max_mutations,
                                equiv_vectors: oracle_cfg.equiv_vectors,
                                equiv_seed: oracle_cfg.equiv_seed,
                                certificates: oracle_cfg.certificates,
                                partitions: oracle_cfg.partitions,
                                shrink_steps: repro.steps,
                            };
                            match write_repro(
                                dir,
                                &job_name,
                                &meta,
                                &violations,
                                &circuit,
                                &repro.circuit,
                            ) {
                                Ok(p) => corpus_path = Some(p),
                                Err(e) => engine::log::error(
                                    "fuzz::corpus",
                                    "failed to write repro",
                                    &[
                                        ("case", JsonValue::str(job_name.clone())),
                                        ("error", JsonValue::str(e.to_string())),
                                    ],
                                ),
                            }
                        }
                        CaseStatus {
                            name: job_name,
                            seed,
                            index,
                            gates: circuit.num_gates(),
                            ffs: circuit.ff_count_total(),
                            violations,
                            corpus_path,
                            shrink_steps: repro.steps,
                        }
                    }
                };
                telemetry::record(hist::Metric::FuzzCaseNanos, t0.elapsed().as_nanos() as u64);
                Ok(status)
            }));
        }
    }
    let opts = BatchOptions {
        jobs: cfg.jobs,
        timeout: cfg.timeout,
    };
    let reports = engine::run_batch(specs, &opts);
    let mut out = CampaignReport {
        total,
        ..CampaignReport::default()
    };
    for r in reports {
        out.telemetry.merge(&r.telemetry);
        match r.outcome {
            JobOutcome::Completed(status) => {
                out.cases_run += 1;
                out.oracle_failures += status.violations.len();
                out.shrink_steps += status.shrink_steps;
                if status.violations.is_empty() {
                    out.passed += 1;
                } else {
                    out.failures.push(status);
                }
            }
            JobOutcome::DeadlineExceeded { .. } => out.deadline += 1,
            JobOutcome::Panicked(msg) => {
                out.panicked += 1;
                out.failed_jobs.push((r.name, format!("panic: {msg}")));
            }
            JobOutcome::Failed(e) => {
                // "cancelled before judgement" without a tripped token
                // would land here; so do corpus I/O failures.
                out.failed_jobs.push((r.name, e));
            }
        }
    }
    engine::log::info(
        "fuzz::campaign",
        "campaign done",
        &[
            ("cases", JsonValue::UInt(out.total as u64)),
            ("passed", JsonValue::UInt(out.passed as u64)),
            ("violations", JsonValue::UInt(out.failures.len() as u64)),
            ("deadline", JsonValue::UInt(out.deadline as u64)),
            ("panicked", JsonValue::UInt(out.panicked as u64)),
        ],
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> CampaignConfig {
        CampaignConfig {
            seeds: vec![1, 2],
            cases_per_seed: 3,
            max_gates: 40,
            max_mutations: 4,
            equiv_vectors: 24,
            jobs: 2,
            timeout: Some(Duration::from_secs(120)),
            corpus_dir: None,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn small_campaign_is_clean_and_counts_cases() {
        let report = run_campaign(&quick_cfg());
        assert_eq!(report.total, 6);
        assert!(report.clean(), "failures: {:?}", report.failures);
        assert_eq!(report.passed + report.deadline, 6);
        // Every judged case counted; a clean campaign has no failures
        // to count or shrink.
        assert_eq!(report.cases_run, report.passed);
        assert_eq!((report.oracle_failures, report.shrink_steps), (0, 0));
        let gates = report.telemetry.hist(hist::Metric::FuzzCaseGates);
        assert!(gates.count >= report.passed as u64);
    }

    #[test]
    fn case_seed_is_stable_and_spread() {
        assert_eq!(case_seed(5, 0), case_seed(5, 0));
        let mut seen = std::collections::HashSet::new();
        for s in 1..=5u64 {
            for i in 0..20usize {
                seen.insert(case_seed(s, i));
            }
        }
        assert_eq!(seen.len(), 100, "per-case seeds must not collide");
    }
}
