//! `benchdiff` — compare two `BENCH_table1.json` artifacts and gate on
//! regressions.
//!
//! Usage:
//!   benchdiff <baseline.json> <candidate.json>
//!             [--wall-threshold-pct P] [--mem-threshold-pct M]
//!
//! Prints a byte-deterministic per-circuit delta report (Φ, LUTs, FFs,
//! `⋆` and `verified` flags, wall time, peak memory, histogram
//! p50/p90/p99) to stdout. Exit status: 0 when the candidate passes, 1 on
//! regressions (quality changes, a mapping that no longer verifies, wall
//! time more than P percent over baseline — default 25 — or, with
//! `--mem-threshold-pct`, per-job peak memory more than M percent over
//! baseline), 2 on usage or parse errors. When a wall or memory gate
//! trips, the report names the span whose self time/heap peak grew the
//! most (from the row's `spans` object). Wall and memory
//! gating are skipped automatically when either artifact is canonical
//! (timing zeroed, memory omitted by design).
//!
//! The `verified` gate needs both artifacts to have run the equivalence
//! check (`verify_vectors > 0`); against a `--no-verify` artifact it is
//! skipped, and the report says so.

use bench::diff::{diff_artifacts, render_report, DiffOptions};
use engine::log;
use engine::JsonValue;

fn usage() -> ! {
    eprintln!(
        "usage: benchdiff <baseline.json> <candidate.json> \
         [--wall-threshold-pct P] [--mem-threshold-pct M]"
    );
    std::process::exit(2);
}

fn load(path: &str) -> JsonValue {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            log::error(
                "benchdiff",
                "cannot read artifact",
                &[
                    ("path", JsonValue::str(path)),
                    ("error", JsonValue::str(e.to_string())),
                ],
            );
            std::process::exit(2);
        }
    };
    match JsonValue::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            log::error(
                "benchdiff",
                "artifact is not valid JSON",
                &[("path", JsonValue::str(path)), ("error", JsonValue::str(e))],
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    log::init(false);
    let mut opts = DiffOptions::default();
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--wall-threshold-pct" => {
                let pct: f64 = match args.next().and_then(|v| v.parse().ok()) {
                    Some(p) => p,
                    None => usage(),
                };
                opts.wall_threshold = pct / 100.0;
            }
            "--mem-threshold-pct" => {
                let pct: f64 = match args.next().and_then(|v| v.parse().ok()) {
                    Some(p) => p,
                    None => usage(),
                };
                opts.mem_threshold = Some(pct / 100.0);
            }
            "-h" | "--help" => usage(),
            other if !other.starts_with('-') => paths.push(other.to_string()),
            _ => usage(),
        }
    }
    if paths.len() != 2 {
        usage();
    }
    let base = load(&paths[0]);
    let cand = load(&paths[1]);
    let report = match diff_artifacts(&base, &cand, &opts) {
        Ok(r) => r,
        Err(e) => {
            log::error("benchdiff", "diff failed", &[("error", JsonValue::str(e))]);
            std::process::exit(2);
        }
    };
    print!("{}", render_report(&report));
    if !report.is_clean() {
        std::process::exit(1);
    }
}
