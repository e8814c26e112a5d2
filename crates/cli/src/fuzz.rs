//! `tmfrt fuzz` — differential fuzzing of the mapper/retimer pipeline.
//!
//! Thin argument layer over [`fuzz::run_campaign`]: generates seeded
//! cases, judges each with the differential oracle (Φ ordering across
//! the three flows, sequential equivalence, initial-state guarantees,
//! byte-determinism), shrinks failures and archives repros under the
//! corpus directory. Progress and the summary go to stderr; stdout
//! stays empty.

use fuzz::{run_campaign, CampaignConfig, CampaignReport};
use std::path::PathBuf;
use std::time::Duration;

/// Usage text for the `fuzz` subcommand.
pub const FUZZ_USAGE: &str = "\
tmfrt fuzz — differential fuzzing of the mapping/retiming flows

USAGE: tmfrt fuzz [--seed N | --seed A..=B] [--cases N] [--jobs N]
                  [--timeout-secs S] [-k K] [--max-gates N]
                  [--max-mutations N] [--equiv-vectors N] [--equiv-seed N]
                  [--corpus DIR] [--no-shrink] [--shrink-budget N]
                  [--certificates] [--partitions N] [-q]

  --seed N | A..=B  campaign seed, or an inclusive seed range; each seed
                    contributes --cases cases (default 1)
  --cases N         cases per seed (default 100)
  --jobs N          worker threads (default 1, 0 = all cores)
  --timeout-secs S  per-case soft deadline (default 60)
  -k K              LUT input bound the oracle maps with (default 4)
  --max-gates N     generator gate bound (default 120)
  --max-mutations N generator mutation bound per case (default 12)
  --equiv-vectors N random vectors per equivalence check (default 64)
  --equiv-seed N    seed of the equivalence-check input sequences
  --corpus DIR      repro directory for failing cases (default fuzz/corpus)
  --no-shrink       archive failing cases unminimized
  --shrink-budget N oracle evaluations the shrinker may spend (default 160)
  --certificates    per case, extract a turbomap-report/v2 Φ-optimality
                    certificate and replay it through the independent
                    checker (CheckKind certificate_check)
  --partitions N    per case, also map partition-and-conquer with N ≥ 2
                    blocks and judge the stitched result: equivalence to
                    the source and the Φ-gap bound — it can never beat
                    the monolithic optimum (CheckKind partition_check)
  -q, --quiet       suppress progress logs (the summary still prints)

Every case is a pure function of (seed, config): a repro manifest's
`case_seed` regenerates the exact circuit. Exit status: 0 clean, 1 when
any oracle violation (or stray panic) was found, 2 on usage errors.";

/// Parsed `fuzz` subcommand arguments.
#[derive(Debug, Clone)]
pub struct FuzzArgs {
    /// The campaign configuration to run.
    pub campaign: CampaignConfig,
    /// Suppress progress logs on stderr.
    pub quiet: bool,
}

/// Parses `--seed` values: a single integer or an inclusive `A..=B` range.
fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    if let Some((a, b)) = spec.split_once("..=") {
        let lo: u64 = a
            .trim()
            .parse()
            .map_err(|_| format!("bad seed range start `{a}`"))?;
        let hi: u64 = b
            .trim()
            .parse()
            .map_err(|_| format!("bad seed range end `{b}`"))?;
        if hi < lo {
            return Err(format!("empty seed range `{spec}`"));
        }
        if hi - lo >= 10_000 {
            return Err(format!("seed range `{spec}` is unreasonably large"));
        }
        Ok((lo..=hi).collect())
    } else {
        spec.trim()
            .parse()
            .map(|s| vec![s])
            .map_err(|_| format!("bad seed `{spec}` (expected N or A..=B)"))
    }
}

impl FuzzArgs {
    /// Parses `fuzz` arguments (everything after the subcommand word).
    ///
    /// # Errors
    ///
    /// Returns a usage message on malformed input.
    pub fn parse(raw: &[String]) -> Result<FuzzArgs, String> {
        let mut out = FuzzArgs {
            campaign: CampaignConfig {
                cases_per_seed: 100,
                ..CampaignConfig::default()
            },
            quiet: false,
        };
        let mut it = raw.iter();
        let num = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<usize, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{flag} needs a number"))
        };
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seed" => {
                    let spec = it
                        .next()
                        .ok_or_else(|| "--seed needs a value".to_string())?;
                    out.campaign.seeds = parse_seeds(spec)?;
                }
                "--cases" => out.campaign.cases_per_seed = num(&mut it, "--cases")?,
                "--jobs" => out.campaign.jobs = num(&mut it, "--jobs")?,
                "--timeout-secs" => {
                    let s = num(&mut it, "--timeout-secs")?;
                    out.campaign.timeout = if s == 0 {
                        None
                    } else {
                        Some(Duration::from_secs(s as u64))
                    };
                }
                "-k" => {
                    out.campaign.k = num(&mut it, "-k")?;
                    if out.campaign.k < 2 {
                        return Err("-k must be at least 2".into());
                    }
                }
                "--max-gates" => out.campaign.max_gates = num(&mut it, "--max-gates")?,
                "--max-mutations" => out.campaign.max_mutations = num(&mut it, "--max-mutations")?,
                "--equiv-vectors" => out.campaign.equiv_vectors = num(&mut it, "--equiv-vectors")?,
                "--equiv-seed" => {
                    out.campaign.equiv_seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "--equiv-seed needs a number".to_string())?;
                }
                "--corpus" => {
                    out.campaign.corpus_dir = Some(PathBuf::from(
                        it.next()
                            .ok_or_else(|| "--corpus needs a path".to_string())?,
                    ));
                }
                "--no-shrink" => out.campaign.shrink = false,
                "--certificates" => out.campaign.certificates = true,
                "--partitions" => {
                    out.campaign.partitions = num(&mut it, "--partitions")?;
                    if out.campaign.partitions < 2 {
                        return Err("--partitions needs a block count of at least 2".into());
                    }
                }
                "--shrink-budget" => out.campaign.shrink_budget = num(&mut it, "--shrink-budget")?,
                "-q" | "--quiet" => out.quiet = true,
                "-h" | "--help" => return Err(FUZZ_USAGE.to_string()),
                other => return Err(format!("unexpected argument `{other}`\n{FUZZ_USAGE}")),
            }
        }
        Ok(out)
    }
}

/// Runs the campaign and prints the human summary to stderr.
pub fn run_fuzz(args: &FuzzArgs) -> CampaignReport {
    let report = run_campaign(&args.campaign);
    for f in &report.failures {
        let kinds: Vec<&str> = f.violations.iter().map(|v| v.kind.name()).collect();
        eprintln!(
            "FAIL {}: {} ({} gates, {} FFs){}",
            f.name,
            kinds.join(", "),
            f.gates,
            f.ffs,
            match &f.corpus_path {
                Some(p) => format!(" → {}", p.display()),
                None => String::new(),
            }
        );
    }
    for (name, err) in &report.failed_jobs {
        eprintln!("ERROR {name}: {err}");
    }
    eprintln!(
        "fuzz: {}/{} cases passed, {} violation(s), {} over deadline, {} panicked",
        report.passed,
        report.total,
        report.failures.len(),
        report.deadline,
        report.panicked
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_defaults() {
        let a = FuzzArgs::parse(&argv("")).unwrap();
        assert_eq!(a.campaign.seeds, vec![1]);
        assert_eq!(a.campaign.cases_per_seed, 100);
        assert_eq!(a.campaign.k, 4);
        assert!(a.campaign.shrink);
        assert!(!a.campaign.certificates);
        assert_eq!(
            a.campaign.corpus_dir.as_deref(),
            Some(std::path::Path::new("fuzz/corpus"))
        );
    }

    #[test]
    fn parses_seed_forms() {
        assert_eq!(
            FuzzArgs::parse(&argv("--seed 7")).unwrap().campaign.seeds,
            vec![7]
        );
        assert_eq!(
            FuzzArgs::parse(&argv("--seed 1..=5"))
                .unwrap()
                .campaign
                .seeds,
            vec![1, 2, 3, 4, 5]
        );
        assert!(FuzzArgs::parse(&argv("--seed 5..=1")).is_err());
        assert!(FuzzArgs::parse(&argv("--seed x")).is_err());
    }

    #[test]
    fn parses_all_knobs() {
        let a = FuzzArgs::parse(&argv(
            "--seed 2..=3 --cases 10 --jobs 4 --timeout-secs 30 -k 5 \
             --max-gates 80 --max-mutations 6 --equiv-vectors 32 \
             --equiv-seed 99 --corpus /tmp/c --no-shrink --shrink-budget 40 \
             --certificates --partitions 2 -q",
        ))
        .unwrap();
        assert_eq!(a.campaign.seeds, vec![2, 3]);
        assert_eq!(a.campaign.cases_per_seed, 10);
        assert_eq!(a.campaign.jobs, 4);
        assert_eq!(a.campaign.timeout, Some(Duration::from_secs(30)));
        assert_eq!(a.campaign.k, 5);
        assert_eq!(a.campaign.max_gates, 80);
        assert_eq!(a.campaign.max_mutations, 6);
        assert_eq!(a.campaign.equiv_vectors, 32);
        assert_eq!(a.campaign.equiv_seed, 99);
        assert_eq!(
            a.campaign.corpus_dir.as_deref(),
            Some(std::path::Path::new("/tmp/c"))
        );
        assert!(!a.campaign.shrink);
        assert_eq!(a.campaign.shrink_budget, 40);
        assert!(a.campaign.certificates);
        assert_eq!(a.campaign.partitions, 2);
        assert!(a.quiet);
    }

    #[test]
    fn timeout_zero_disables_deadline() {
        let a = FuzzArgs::parse(&argv("--timeout-secs 0")).unwrap();
        assert_eq!(a.campaign.timeout, None);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(FuzzArgs::parse(&argv("--bogus")).is_err());
        assert!(FuzzArgs::parse(&argv("-k 1")).is_err());
        assert!(FuzzArgs::parse(&argv("--partitions 1")).is_err());
        assert!(FuzzArgs::parse(&argv("--cases")).is_err());
        let help = FuzzArgs::parse(&argv("--help")).unwrap_err();
        assert!(help.contains("tmfrt fuzz"));
    }
}
