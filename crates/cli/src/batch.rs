//! `tmfrt batch` — map every circuit in a directory in parallel.
//!
//! Each `.blif` / `.kiss` / `.kiss2` file becomes one job on the
//! `engine` batch runner: panic-isolated, optionally deadline-bounded,
//! with per-job telemetry. Files are processed in sorted name order and
//! reported in that order regardless of `--jobs`, so output is
//! deterministic. Mapped circuits can be written to an output directory
//! as `<stem>.blif`.

use crate::{load_circuit, run, Args};
use engine::{run_batch, BatchOptions, JobOutcome, JobReport, JobSpec};
use std::path::PathBuf;
use std::time::Duration;

/// Usage text for the `batch` subcommand.
pub const BATCH_USAGE: &str = "\
tmfrt batch — map every .blif/.kiss2 circuit in a directory in parallel

USAGE: tmfrt batch <dir> [--jobs N] [--timeout-secs S] [-o OUTDIR]
                   [-a ALGO] [-k K] [--pushback] [--verify N] [--onehot]
                   [--pack] [--strash] [--metrics-out FILE] [-q]

  <dir>             directory scanned (non-recursively) for .blif, .kiss
                    and .kiss2 files, processed in sorted name order
  --jobs N          worker threads (default 1); results and ordering are
                    identical for any value
  --timeout-secs S  per-circuit soft deadline; an over-deadline circuit
                    is reported and skipped, the rest still complete
  -o OUTDIR         write each mapped circuit to OUTDIR/<stem>.blif
  --metrics-out F   write Prometheus text exposition (job outcomes,
                    counters, span times, histogram quantiles) to F
  -q, --quiet       suppress per-circuit reports on stderr (failures and
                    errors still print)
  remaining flags   as in single-circuit mode (see `tmfrt --help`)

Per-circuit reports and progress go to stderr; stdout stays empty.";

/// Parsed `batch` subcommand arguments.
#[derive(Debug, Clone)]
pub struct BatchArgs {
    /// Directory to scan.
    pub dir: String,
    /// Worker threads (0 → one worker).
    pub jobs: usize,
    /// Per-circuit soft deadline.
    pub timeout: Option<Duration>,
    /// Directory for mapped BLIF outputs.
    pub out_dir: Option<String>,
    /// Path for the Prometheus text-exposition metrics file.
    pub metrics_out: Option<String>,
    /// Suppress per-circuit reports on stderr.
    pub quiet: bool,
    /// Template for per-file runs (`input` filled in per job).
    pub run: Args,
}

impl BatchArgs {
    /// Parses `batch` arguments (everything after the subcommand word).
    ///
    /// # Errors
    ///
    /// Returns a usage message on malformed input.
    pub fn parse(raw: &[String]) -> Result<BatchArgs, String> {
        let mut out = BatchArgs {
            dir: String::new(),
            jobs: 1,
            timeout: None,
            out_dir: None,
            metrics_out: None,
            quiet: false,
            run: Args::default(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if out.run.parse_run_flag(a, &mut it)? {
                continue;
            }
            match a.as_str() {
                "--jobs" => {
                    out.jobs = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "--jobs needs a number".to_string())?;
                }
                "--timeout-secs" => {
                    let s: u64 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "--timeout-secs needs a number".to_string())?;
                    out.timeout = Some(Duration::from_secs(s));
                }
                "-o" | "--out-dir" => {
                    out.out_dir = Some(
                        it.next()
                            .ok_or_else(|| "--out-dir needs a path".to_string())?
                            .clone(),
                    );
                }
                "--onehot" => out.run.onehot = true,
                "--metrics-out" => {
                    out.metrics_out = Some(
                        it.next()
                            .ok_or_else(|| "--metrics-out needs a path".to_string())?
                            .clone(),
                    );
                }
                "-q" | "--quiet" => out.quiet = true,
                "-h" | "--help" => return Err(BATCH_USAGE.to_string()),
                other if out.dir.is_empty() && !other.starts_with('-') => {
                    out.dir = other.to_string();
                }
                other => return Err(format!("unexpected argument `{other}`\n{BATCH_USAGE}")),
            }
        }
        if out.dir.is_empty() {
            return Err(BATCH_USAGE.to_string());
        }
        Ok(out)
    }
}

/// Circuit files in `dir`, sorted by file name (the batch submission
/// order — and therefore the report order).
///
/// # Errors
///
/// Returns a message when the directory cannot be read.
pub fn batch_files(dir: &str) -> Result<Vec<PathBuf>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading `{dir}`: {e}"))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension()
                .and_then(|x| x.to_str())
                .is_some_and(|x| matches!(x, "blif" | "kiss" | "kiss2"))
        })
        .collect();
    files.sort();
    Ok(files)
}

/// One file's result carried out of the worker.
#[derive(Debug)]
pub struct FileResult {
    /// The per-run report text of [`run`].
    pub report: String,
    /// `⋆`: initial state lost (general retiming only).
    pub star: bool,
    /// Rendered BLIF of the mapped circuit (when an output dir is set).
    pub blif: Option<String>,
}

/// Outcome of a whole batch run.
#[derive(Debug)]
pub struct BatchSummary {
    /// One report per file, in sorted-file order.
    pub reports: Vec<JobReport<FileResult>>,
    /// Names and status keywords of jobs that did not complete.
    pub failures: Vec<(String, &'static str)>,
}

/// Runs the batch: one engine job per circuit file.
///
/// # Errors
///
/// Returns a message when the directory is unreadable, empty of circuit
/// files, or the output directory cannot be created.
pub fn run_batch_dir(args: &BatchArgs) -> Result<BatchSummary, String> {
    let files = batch_files(&args.dir)?;
    if files.is_empty() {
        return Err(format!("no .blif/.kiss/.kiss2 files in `{}`", args.dir));
    }
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating `{dir}`: {e}"))?;
    }
    let want_blif = args.out_dir.is_some();
    let specs: Vec<JobSpec<FileResult>> = files
        .iter()
        .map(|path| {
            let mut run_args = args.run.clone();
            run_args.input = path.display().to_string();
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| run_args.input.clone());
            JobSpec::new(name, move || {
                let circuit = load_circuit(&run_args)?;
                let outcome = run(&run_args, circuit)?;
                Ok(FileResult {
                    report: outcome.report,
                    star: outcome.star,
                    blif: want_blif.then(|| blifio::write_circuit(&outcome.circuit)),
                })
            })
        })
        .collect();
    let mut opts = BatchOptions::with_jobs(args.jobs);
    if let Some(t) = args.timeout {
        opts = opts.with_timeout(t);
    }
    let reports = run_batch(specs, &opts);

    // Write outputs on this thread, in report order (deterministic).
    if let Some(dir) = &args.out_dir {
        for (path, report) in files.iter().zip(&reports) {
            if let JobOutcome::Completed(res) = &report.outcome {
                if let Some(blif) = &res.blif {
                    let stem = path
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                        .unwrap_or_else(|| report.name.clone());
                    let out = PathBuf::from(dir).join(format!("{stem}.blif"));
                    std::fs::write(&out, blif)
                        .map_err(|e| format!("writing `{}`: {e}", out.display()))?;
                }
            }
        }
    }

    if let Some(path) = &args.metrics_out {
        let text = engine::prom::render_job_metrics(&reports);
        std::fs::write(path, text).map_err(|e| format!("writing `{path}`: {e}"))?;
    }

    let failures = reports
        .iter()
        .filter(|r| !r.outcome.is_completed())
        .map(|r| (r.name.clone(), r.outcome.status()))
        .collect();
    Ok(BatchSummary { reports, failures })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn fixture_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tmfrt_batch_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let blif = "\
.model t
.inputs a
.outputs z
.names a s z
10 1
01 1
.latch z s 0
.end
";
        let kiss = ".i 1\n.o 1\n.s 2\n.r A\n1 A B 1\n- B A 0\n.e\n";
        std::fs::write(dir.join("b_second.blif"), blif).unwrap();
        std::fs::write(dir.join("a_first.kiss2"), kiss).unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a circuit").unwrap();
        dir
    }

    #[test]
    fn parses_batch_flags() {
        let a = BatchArgs::parse(&argv(
            "circuits --jobs 4 --timeout-secs 30 -o out -a turbomap -k 4 --verify 64 \
             --metrics-out m.prom -q",
        ))
        .unwrap();
        assert_eq!(a.dir, "circuits");
        assert_eq!(a.jobs, 4);
        assert_eq!(a.timeout, Some(Duration::from_secs(30)));
        assert_eq!(a.out_dir.as_deref(), Some("out"));
        assert_eq!(a.run.algorithm, crate::Algorithm::TurboMap);
        assert_eq!(a.run.k, 4);
        assert_eq!(a.run.verify, Some(64));
        assert_eq!(a.metrics_out.as_deref(), Some("m.prom"));
        assert!(a.quiet);
    }

    #[test]
    fn rejects_missing_dir() {
        assert!(BatchArgs::parse(&argv("")).is_err());
        assert!(BatchArgs::parse(&argv("--jobs 2")).is_err());
    }

    #[test]
    fn files_are_sorted_and_filtered() {
        let dir = fixture_dir("sort");
        let files = batch_files(&dir.display().to_string()).unwrap();
        let names: Vec<String> = files
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["a_first.kiss2", "b_second.blif"]);
    }

    #[test]
    fn batch_maps_directory_and_writes_outputs() {
        let dir = fixture_dir("run");
        let out = dir.join("mapped");
        let args = BatchArgs::parse(&argv(&format!(
            "{} --jobs 2 -o {} --verify 64",
            dir.display(),
            out.display()
        )))
        .unwrap();
        let summary = run_batch_dir(&args).unwrap();
        assert_eq!(summary.reports.len(), 2);
        assert!(summary.failures.is_empty());
        assert_eq!(summary.reports[0].name, "a_first.kiss2");
        assert_eq!(summary.reports[1].name, "b_second.blif");
        for r in &summary.reports {
            let res = r.outcome.completed().unwrap();
            assert!(res.report.contains("turbomap-frt"));
            assert!(res.report.contains("verify: equivalent"));
        }
        assert!(out.join("a_first.blif").exists());
        assert!(out.join("b_second.blif").exists());
        // The written outputs parse back as valid circuits.
        let text = std::fs::read_to_string(out.join("b_second.blif")).unwrap();
        blifio::read_circuit_str(&text).unwrap();
    }

    #[test]
    fn unparseable_file_fails_without_sinking_batch() {
        let dir = fixture_dir("bad");
        std::fs::write(dir.join("c_broken.blif"), ".model x\n.names undefined z\n").unwrap();
        let args = BatchArgs::parse(&argv(&format!("{} --jobs 2", dir.display()))).unwrap();
        let summary = run_batch_dir(&args).unwrap();
        assert_eq!(summary.reports.len(), 3);
        assert_eq!(summary.failures.len(), 1);
        assert_eq!(summary.failures[0].0, "c_broken.blif");
        assert!(summary.reports[0].outcome.is_completed());
        assert!(summary.reports[1].outcome.is_completed());
    }
}
