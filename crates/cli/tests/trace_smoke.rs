//! End-to-end observability smoke tests driving the real binaries (the
//! same flow as the CI `trace-smoke` job): `tmfrt map --trace-out` must
//! emit a Chrome trace that `tmfrt profile` accepts, and
//! `tmfrt batch --metrics-out` must emit valid Prometheus exposition.

use std::path::PathBuf;
use std::process::Command;

fn data_blif() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join("small.blif")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tmfrt_smoke_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn map_trace_out_passes_profile() {
    let dir = scratch("trace");
    let trace = dir.join("t.trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_tmfrt"))
        .arg("map")
        .arg(data_blif())
        .arg("--trace-out")
        .arg(&trace)
        .arg("-q")
        .output()
        .expect("tmfrt runs");
    assert!(
        out.status.success(),
        "tmfrt failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // --quiet: nothing on stderr, the mapped BLIF on stdout.
    assert!(
        out.stderr.is_empty(),
        "quiet run wrote to stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains(".model"));

    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.contains("\"traceEvents\""));
    assert!(text.contains("\"phi_search\""), "no phi_search span");

    let check = Command::new(env!("CARGO_BIN_EXE_tmfrt"))
        .arg("profile")
        .arg(&trace)
        .output()
        .expect("tmfrt profile runs");
    assert!(
        check.status.success(),
        "tmfrt profile rejected the trace: {}",
        String::from_utf8_lossy(&check.stderr)
    );
}

#[test]
fn profile_report_is_stdout_only() {
    let dir = scratch("profile");
    let trace = dir.join("p.trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_tmfrt"))
        .arg("map")
        .arg(data_blif())
        .arg("--trace-out")
        .arg(&trace)
        .arg("-q")
        .output()
        .expect("tmfrt runs");
    assert!(
        out.status.success(),
        "tmfrt failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // `tmfrt profile` keeps the stream discipline: the report is stdout,
    // -q silences every diagnostic.
    let prof = Command::new(env!("CARGO_BIN_EXE_tmfrt"))
        .arg("profile")
        .arg(&trace)
        .arg("-q")
        .output()
        .expect("tmfrt profile runs");
    assert!(
        prof.status.success(),
        "profile failed: {}",
        String::from_utf8_lossy(&prof.stderr)
    );
    assert!(
        prof.stderr.is_empty(),
        "quiet profile wrote to stderr: {}",
        String::from_utf8_lossy(&prof.stderr)
    );
    let report = String::from_utf8_lossy(&prof.stdout);
    assert!(report.contains("phi_search"), "{report}");
    assert!(report.contains("self"), "{report}");

    // Self-diff is a clean baseline: no net regression to report.
    let diff = Command::new(env!("CARGO_BIN_EXE_tmfrt"))
        .args(["profile", "--diff"])
        .arg(&trace)
        .arg(&trace)
        .arg("-q")
        .output()
        .expect("tmfrt profile --diff runs");
    assert!(
        diff.status.success(),
        "diff failed: {}",
        String::from_utf8_lossy(&diff.stderr)
    );
    assert!(diff.stderr.is_empty(), "quiet diff wrote to stderr");
    assert!(String::from_utf8_lossy(&diff.stdout).contains("phi_search"));
}

#[test]
fn profile_rejects_malformed_traces() {
    let dir = scratch("profile_bad");
    let bad = dir.join("bad.trace.json");
    for (what, text) in [
        // An orphan E event: structurally JSON, semantically not a trace.
        (
            "orphan exit",
            "{\"traceEvents\": [{\"ph\": \"E\", \"ts\": 5}]}",
        ),
        ("unnamed enter", "{\"traceEvents\": [{\"ph\": \"B\"}]}"),
        (
            "backwards clock",
            r#"{"traceEvents":[{"name":"a","ph":"i","ts":5,"pid":1,"tid":1},
                {"name":"b","ph":"i","ts":4,"pid":1,"tid":1}]}"#,
        ),
    ] {
        std::fs::write(&bad, text).unwrap();
        let prof = Command::new(env!("CARGO_BIN_EXE_tmfrt"))
            .arg("profile")
            .arg(&bad)
            .output()
            .expect("tmfrt profile runs");
        assert!(!prof.status.success(), "{what}: malformed trace must fail");
        assert!(prof.stdout.is_empty(), "{what}: no report on failure");
    }
}

#[test]
fn batch_metrics_out_is_valid_exposition() {
    let dir = scratch("metrics");
    std::fs::copy(data_blif(), dir.join("small.blif")).unwrap();
    let metrics = dir.join("metrics.prom");
    let out = Command::new(env!("CARGO_BIN_EXE_tmfrt"))
        .arg("batch")
        .arg(&dir)
        .arg("--metrics-out")
        .arg(&metrics)
        .arg("--verify")
        .arg("64")
        .arg("-q")
        .output()
        .expect("tmfrt batch runs");
    assert!(
        out.status.success(),
        "batch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stderr.is_empty(), "quiet batch wrote to stderr");

    let text = std::fs::read_to_string(&metrics).unwrap();
    engine::prom::validate_exposition(&text).expect("metrics must validate");
    assert!(text.contains("tmfrt_jobs{status=\"ok\"} 1\n"), "{text}");
    assert!(text.contains("tmfrt_events{counter=\"flow_augmentations\"}"));
    // Value histograms flow through the job telemetry into the metrics.
    assert!(text.contains("tmfrt_cut_size{quantile=\"0.5\"}"), "{text}");
}
