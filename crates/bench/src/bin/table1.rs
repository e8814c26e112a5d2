//! Regenerates Table 1 of the paper: FlowMap-frt vs TurboMap vs
//! TurboMap-frt on the 18-circuit suite, K = 5.
//!
//! Usage:
//!   table1 [--max-gates N] [--k K] [--no-verify] [--stats]
//!          [--jobs N] [--timeout-secs S] [--json PATH] [--canonical]
//!          [--trace-dir DIR] [--report-dir DIR] [--suite table1|large]
//!
//! `--suite large` runs the large-workload suite instead: each
//! `workloads::large` preset is generated to a temp dir, ingested
//! through the streaming BLIF front-end, mapped monolithically with
//! TurboMap-frt at `--k` and checked against its source with
//! `bench::VERIFY_VECTORS` random vectors (always: `--no-verify` does
//! not apply); `--json` then writes the `turbomap-bench/large/v7`
//! artifact (also honouring `--canonical` and `--max-gates`, which caps
//! the preset's flattened gate count). A mapping that differs from its
//! source fails the suite, and the process exits 1 naming the preset,
//! the output and the cycle.
//!
//! Circuits run as isolated jobs on the `engine` batch runner: `--jobs`
//! picks the worker count (results are identical and identically ordered
//! for any value), `--timeout-secs` arms a per-circuit soft deadline, and
//! `--json` writes the versioned `turbomap-bench/table1/v4` artifact
//! (`--canonical` zeroes its timing fields and omits its `spans` and
//! heap-accounting fields so reruns are byte-identical, even with
//! tracing or memory accounting toggled). `--trace-dir` enables span
//! tracing and
//! writes one Chrome-trace JSON per circuit (`DIR/<name>.trace.json`,
//! loadable in Perfetto / `chrome://tracing`). `--report-dir` runs a
//! post-suite certificate pass: every circuit is re-mapped through
//! `report::explain`, the `turbomap-report/v2` document is replayed
//! through the independent checker, and `DIR/<name>.report.json` is
//! written — the process exits nonzero if any witness fails to verify.
//! The pass runs after the measured rows, so the canonical artifact is
//! byte-identical with or without it.
//! A panicking or deadline-exceeded circuit is reported and skipped; the
//! remaining rows still print and the process exits nonzero naming it.
//! So does a circuit with a mapping that failed verification without a
//! `⋆` to excuse it (`[VERIFY FAILED]`, see `Row::verify_failures`).
//! Under `--no-verify` the artifact's `verify_vectors` is 0.
//!
//! `--stats` additionally prints the FRTcheck iteration counts per probed
//! clock period (the paper's §3.2 claim of 5–15 iterations).

use bench::batch::{failures, run_table1_suite, SuiteConfig};
use bench::{artifact, geomean, Row};
use engine::{log, JsonValue};
use std::time::Duration;

/// Heap accounting for the artifacts' per-span heap numbers and
/// `job_mem` ledger: the counting wrapper always delegates to the system
/// allocator, and counting itself is off until `mem::set_enabled`.
#[global_allocator]
static ALLOC: engine::mem::CountingAlloc = engine::mem::CountingAlloc::new();

/// The `--suite large` path: ingest, map and verify every large preset
/// (within the gate cap) and optionally write the
/// `turbomap-bench/large/v7` artifact.
fn run_large_suite_main(cfg: &SuiteConfig, json_path: Option<&str>, canonical: bool) {
    let dir = std::env::temp_dir().join("tmfrt_large_suite");
    println!(
        "Large-workload suite (streaming BLIF front-end, TurboMap-frt at K = {})",
        cfg.k
    );
    println!(
        "{:<10} {:>12} {:>7} {:>9} {:>7} {:>5} {:>5} {:>9} {:>9} {:>3} {:>7} {:>7} {:>8} {:>9}",
        "preset",
        "file_bytes",
        "models",
        "gates",
        "FFs",
        "PIs",
        "POs",
        "parse_s",
        "total_s",
        "Φ",
        "LUTs",
        "map_FFs",
        "map_s",
        "verify_s"
    );
    let rows = match bench::large::run_large_suite(cfg.max_gates, &dir, cfg.k) {
        Ok(rows) => rows,
        Err(e) => {
            log::error(
                "table1",
                "large suite failed",
                &[("error", JsonValue::str(e))],
            );
            std::process::exit(1);
        }
    };
    for r in &rows {
        println!(
            "{:<10} {:>12} {:>7} {:>9} {:>7} {:>5} {:>5} {:>9.3} {:>9.3} {:>3} {:>7} {:>7} {:>8.3} {:>9.3}",
            r.name,
            r.file_bytes,
            r.models,
            r.gates,
            r.ffs,
            r.pis,
            r.pos,
            r.parse_secs,
            r.total_secs,
            r.mapped.phi,
            r.mapped.luts,
            r.mapped.ffs,
            r.mapped.map_secs,
            r.verify_secs
        );
    }
    if let Some(path) = json_path {
        let doc = artifact::large_json(&rows, canonical);
        if let Err(e) = std::fs::write(path, doc.render_pretty()) {
            log::error(
                "table1",
                "cannot write artifact",
                &[
                    ("path", JsonValue::str(path.to_string())),
                    ("error", JsonValue::str(e.to_string())),
                ],
            );
            std::process::exit(1);
        }
        println!("wrote {path} ({})", artifact::LARGE_SCHEMA);
    }
    if rows.is_empty() {
        println!("no presets within the gate cap");
        std::process::exit(1);
    }
}

fn main() {
    log::init(false);
    engine::mem::set_enabled(true);
    let mut cfg = SuiteConfig::default();
    let mut stats = false;
    let mut json_path: Option<String> = None;
    let mut canonical = false;
    let mut trace_dir: Option<String> = None;
    let mut report_dir: Option<String> = None;
    let mut suite = String::from("table1");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--suite" => {
                suite = args.next().expect("--suite table1|large");
            }
            "--max-gates" => {
                cfg.max_gates = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--max-gates N"),
                );
            }
            "--k" => {
                cfg.k = args.next().and_then(|v| v.parse().ok()).expect("--k K");
            }
            "--no-verify" => cfg.verify = false,
            "--stats" => stats = true,
            "--jobs" => {
                cfg.jobs = args.next().and_then(|v| v.parse().ok()).expect("--jobs N");
            }
            "--timeout-secs" => {
                let s: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--timeout-secs S");
                cfg.timeout = Some(Duration::from_secs(s));
            }
            "--json" => {
                json_path = Some(args.next().expect("--json PATH"));
            }
            "--canonical" => canonical = true,
            "--trace-dir" => {
                trace_dir = Some(args.next().expect("--trace-dir DIR"));
            }
            "--report-dir" => {
                report_dir = Some(args.next().expect("--report-dir DIR"));
            }
            other => {
                log::error(
                    "table1",
                    "unknown flag",
                    &[("flag", JsonValue::str(other.to_string()))],
                );
                std::process::exit(2);
            }
        }
    }

    match suite.as_str() {
        "table1" => {}
        "large" => {
            run_large_suite_main(&cfg, json_path.as_deref(), canonical);
            return;
        }
        other => {
            log::error(
                "table1",
                "unknown suite",
                &[("suite", JsonValue::str(other.to_string()))],
            );
            std::process::exit(2);
        }
    }

    println!(
        "TurboMap-frt reproduction — Table 1 (K = {}, {} random verification vectors, {} worker{})",
        cfg.k,
        if cfg.verify { bench::VERIFY_VECTORS } else { 0 },
        cfg.jobs.max(1),
        if cfg.jobs.max(1) == 1 { "" } else { "s" },
    );
    println!(
        "{:<10} {:>6}{:>6} | {:^25} | {:^27} | {:>5} | {:^25}",
        "", "", "", "FlowMap-frt", "TurboMap", "Best", "TurboMap-frt"
    );
    println!(
        "{:<10} {:>6}{:>6} | {:>4}{:>6}{:>6}{:>9} | {:>6}{:>6}{:>6}{:>9} | {:>5} | {:>4}{:>6}{:>6}{:>9}",
        "circuit", "N", "F", "Φ", "LUT", "FF", "CPU", "Φ", "LUT", "FF", "CPU", "", "Φ", "LUT", "FF", "CPU"
    );

    if let Some(dir) = &trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            log::error(
                "table1",
                "cannot create trace dir",
                &[
                    ("path", JsonValue::str(dir.clone())),
                    ("error", JsonValue::str(e.to_string())),
                ],
            );
            std::process::exit(1);
        }
        engine::trace::set_enabled(true);
    }

    let reports = run_table1_suite(&cfg);

    if let Some(dir) = &trace_dir {
        for report in &reports {
            let Some(buffer) = &report.trace else {
                continue;
            };
            let path = format!("{dir}/{}.trace.json", report.name);
            let doc = engine::trace::chrome_trace(buffer, &report.name);
            if let Err(e) = std::fs::write(&path, doc.render_pretty()) {
                log::error(
                    "table1",
                    "cannot write trace",
                    &[
                        ("path", JsonValue::str(path.clone())),
                        ("error", JsonValue::str(e.to_string())),
                    ],
                );
                std::process::exit(1);
            }
        }
        log::info(
            "table1",
            "wrote traces",
            &[
                ("dir", JsonValue::str(dir.clone())),
                ("count", JsonValue::UInt(reports.len() as u64)),
            ],
        );
    }

    let mut rows: Vec<&Row> = Vec::new();
    let mut verify_failed: Vec<String> = Vec::new();
    for report in &reports {
        let Some(row) = report.outcome.completed() else {
            let detail = match &report.outcome {
                engine::JobOutcome::Failed(e) => format!("error: {e}"),
                engine::JobOutcome::Panicked(msg) => format!("panic: {msg}"),
                engine::JobOutcome::DeadlineExceeded { limit } => {
                    format!("deadline exceeded ({}s)", limit.as_secs_f64())
                }
                engine::JobOutcome::Completed(_) => unreachable!(),
            };
            println!(
                "{:<10} {:>12} | [{}] {detail}",
                report.name,
                "",
                report.outcome.status()
            );
            continue;
        };
        let tm_star = if row.turbomap.star { "*" } else { " " };
        let bad = row.verify_failures();
        let verdict = if !cfg.verify {
            ""
        } else if bad.is_empty() {
            "  [verified]"
        } else {
            verify_failed.push(format!("{} ({})", row.name, bad.join(", ")));
            "  [VERIFY FAILED]"
        };
        println!(
            "{:<10} {:>6}{:>6} | {:>4}{:>6}{:>6}{:>9.2} | {}{:>5}{:>6}{:>6}{:>9.2} | {:>5} | {:>4}{:>6}{:>6}{:>9.2}{}",
            row.name,
            row.n,
            row.f,
            row.flowmap_frt.phi,
            row.flowmap_frt.luts,
            row.flowmap_frt.ffs,
            row.flowmap_frt.cpu,
            tm_star,
            row.turbomap.phi,
            row.turbomap.luts,
            row.turbomap.ffs,
            row.turbomap.cpu,
            row.best_valid_phi(),
            row.turbomap_frt.phi,
            row.turbomap_frt.luts,
            row.turbomap_frt.ffs,
            row.turbomap_frt.cpu,
            verdict,
        );
        if stats {
            let iters: Vec<String> = row
                .frt_iterations
                .iter()
                .map(|(phi, it)| format!("Φ={phi}:{it}"))
                .collect();
            println!("           FRTcheck sweeps: {}", iters.join(" "));
        }
        let capped = row
            .turbomap_frt
            .telemetry
            .counter(engine::telemetry::Counter::FrtCapped);
        if capped > 0 {
            println!(
                "           WARNING: weight horizon capped frt(v) on {capped} gate{} — \
                 TurboMap-frt may be suboptimal here",
                if capped == 1 { "" } else { "s" }
            );
        }
        rows.push(row);
    }

    if let Some(path) = &json_path {
        let vectors = if cfg.verify { bench::VERIFY_VECTORS } else { 0 };
        let doc = artifact::table1_json(&reports, cfg.k, vectors, canonical);
        if let Err(e) = std::fs::write(path, doc.render_pretty()) {
            log::error(
                "table1",
                "cannot write artifact",
                &[
                    ("path", JsonValue::str(path.clone())),
                    ("error", JsonValue::str(e.to_string())),
                ],
            );
            std::process::exit(1);
        }
        println!("wrote {path} ({})", artifact::SCHEMA);
    }

    if rows.is_empty() {
        println!("no circuits completed");
        std::process::exit(1);
    }

    // The certificate pass runs on fresh mappings *after* the measured
    // rows and the artifact, so it cannot perturb either.
    if let Some(dir) = &report_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            log::error(
                "table1",
                "cannot create report dir",
                &[
                    ("path", JsonValue::str(dir.clone())),
                    ("error", JsonValue::str(e.to_string())),
                ],
            );
            std::process::exit(1);
        }
        let mut unverified = Vec::new();
        for (name, outcome) in bench::batch::explain_suite(&cfg) {
            match outcome {
                Ok(doc) => {
                    let path = format!("{dir}/{name}.report.json");
                    if let Err(e) = std::fs::write(&path, doc) {
                        log::error(
                            "table1",
                            "cannot write report",
                            &[
                                ("path", JsonValue::str(path.clone())),
                                ("error", JsonValue::str(e.to_string())),
                            ],
                        );
                        std::process::exit(1);
                    }
                }
                Err(e) => {
                    println!("report: {name}: CERTIFICATE FAILED — {e}");
                    unverified.push(name);
                }
            }
        }
        if unverified.is_empty() {
            println!("report: all certificates verified ({dir}/<name>.report.json)");
        } else {
            log::error(
                "table1",
                "certificates failed to verify",
                &[("names", JsonValue::str(unverified.join(", ")))],
            );
            std::process::exit(1);
        }
    }

    // Geometric means (over completed rows) and the paper's % comparison.
    let gm = |f: &dyn Fn(&Row) -> f64| geomean(rows.iter().map(|r| f(r)));
    let fm_phi = gm(&|r| r.flowmap_frt.phi as f64);
    let tm_phi = gm(&|r| r.turbomap.phi as f64);
    let tf_phi = gm(&|r| r.turbomap_frt.phi as f64);
    let best_phi = gm(&|r| r.best_valid_phi() as f64);
    let fm_lut = gm(&|r| r.flowmap_frt.luts as f64);
    let tm_lut = gm(&|r| r.turbomap.luts as f64);
    let tf_lut = gm(&|r| r.turbomap_frt.luts as f64);
    let fm_ff = gm(&|r| r.flowmap_frt.ffs as f64);
    let tm_ff = gm(&|r| r.turbomap.ffs as f64);
    let tf_ff = gm(&|r| r.turbomap_frt.ffs as f64);
    let fm_cpu = gm(&|r| r.flowmap_frt.cpu.max(1e-4));
    let tm_cpu = gm(&|r| r.turbomap.cpu.max(1e-4));
    let tf_cpu = gm(&|r| r.turbomap_frt.cpu.max(1e-4));
    let stars = rows.iter().filter(|r| r.turbomap.star).count();

    println!();
    println!(
        "geomean    {:>12} | {:>4.1}{:>6.0}{:>6.1}{:>9.4} | {:>6.1}{:>6.0}{:>6.1}{:>9.4} | {:>5.1} | {:>4.1}{:>6.0}{:>6.1}{:>9.4}",
        "", fm_phi, fm_lut, fm_ff, fm_cpu, tm_phi, tm_lut, tm_ff, tm_cpu, best_phi, tf_phi, tf_lut, tf_ff, tf_cpu
    );
    let pct = |x: f64, base: f64| 100.0 * (x - base) / base;
    println!(
        "vs TurboMap-frt: FlowMap-frt Φ {:+.1}%  LUT {:+.1}%  FF {:+.1}%   |   TurboMap Φ {:+.1}%  LUT {:+.1}%  FF {:+.1}%   |   Best-valid Φ {:+.1}%",
        pct(fm_phi, tf_phi),
        pct(fm_lut, tf_lut),
        pct(fm_ff, tf_ff),
        pct(tm_phi, tf_phi),
        pct(tm_lut, tf_lut),
        pct(tm_ff, tf_ff),
        pct(best_phi, tf_phi),
    );
    println!(
        "TurboMap initial-state failures (*): {stars}/{} circuits   (paper: 10/18)",
        rows.len()
    );
    println!("paper geomeans for reference: Φ 7.0 / 5.6 / 5.8, %Φ +20.2 / -2.8 / +8.6 (best)");

    let failed = failures(&reports);
    if !failed.is_empty() {
        let names: Vec<String> = failed
            .iter()
            .map(|(name, status)| format!("{name} ({status})"))
            .collect();
        log::error(
            "table1",
            "circuits did not complete",
            &[
                ("failed", JsonValue::UInt(failed.len() as u64)),
                ("total", JsonValue::UInt(reports.len() as u64)),
                ("names", JsonValue::str(names.join(", "))),
            ],
        );
    }
    if !verify_failed.is_empty() {
        log::error(
            "table1",
            "mappings differ from their sources",
            &[
                ("failed", JsonValue::UInt(verify_failed.len() as u64)),
                ("names", JsonValue::str(verify_failed.join(", "))),
            ],
        );
    }
    if !failed.is_empty() || !verify_failed.is_empty() {
        std::process::exit(1);
    }
}
