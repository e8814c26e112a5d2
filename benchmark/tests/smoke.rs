//! Smoke scale (bbtas + dk17, a 4-tile design): every workload runs,
//! checks out, and emits exactly the metrics `BENCHMARK.json` declares,
//! with their units; traces parse; `compare` reads the results.

use engine::JsonValue;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["iscas_frt", "fsm_table1", "hier_part", "ingest_100k"];

fn bench_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// `name -> unit` of one of `BENCHMARK.json`'s metric lists.
fn declared(list: &str) -> BTreeMap<String, String> {
    let doc = bench_json();
    let items = doc.get(list).and_then(JsonValue::as_array).unwrap();
    items
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Exit code and stdout; a failed run's stderr goes to the test log.
fn tmbench(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tmbench"))
        .args(args)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.code().unwrap(), stdout)
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_workload_emits_the_declared_metrics() {
    let doc = bench_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
    let traces = scratch("traces");
    for w in WORKLOADS {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let dir = traces.to_str().unwrap();
            let args = [
                "run",
                "--workload",
                w,
                "--smoke",
                "--seconds",
                "0",
                "--seed",
                "3",
            ];
            let (code, stdout) =
                tmbench(&[&args[..], &["--trace", trace, "--trace-dir", dir]].concat());
            assert_eq!(code, 0, "{w} trace {trace}:\n{stdout}");
            let line = JsonValue::parse(stdout.lines().last().unwrap()).unwrap();
            assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
            assert_eq!(line.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(line.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
            let JsonValue::Object(metrics) = line.get("metrics").unwrap() else {
                panic!("metrics is not an object")
            };
            let emitted: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| {
                    (
                        name.clone(),
                        m.get("unit").and_then(JsonValue::as_str).unwrap().into(),
                    )
                })
                .collect();
            assert_eq!(emitted, declared(list), "{w} trace {trace}");
            for name in emitted.keys() {
                assert!(
                    stdout.contains(&format!(" {name} ")),
                    "{name} not printed by name"
                );
            }
        }
        let trace = std::fs::read_to_string(traces.join(format!("{w}.trace.json"))).unwrap();
        let mut profile = engine::profile::Profile::new();
        profile
            .add_trace(&JsonValue::parse(&trace).unwrap())
            .unwrap();
        assert!(profile.spans["op"].count >= 1 && profile.spans.contains_key("netlist.verify"));
        let layers = std::fs::read_to_string(traces.join(format!("{w}.layers.json"))).unwrap();
        let layers = JsonValue::parse(&layers).unwrap();
        assert!(layers.get("spans").and_then(|s| s.get("op")).is_some());
    }
}

#[test]
fn run_all_writes_results_that_compare_reads() {
    let dir = scratch("compare");
    let mut files = Vec::new();
    for side in ["parent", "change"] {
        let path = dir.join(format!("{side}.json"));
        let (code, stdout) = tmbench(&[
            "run",
            "--smoke",
            "--seconds",
            "0",
            "--json",
            path.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{stdout}");
        for w in WORKLOADS {
            assert!(stdout.contains(&format!("{w}: seed 0")), "{stdout}");
        }
        files.push(path.to_str().unwrap().to_string());
    }
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    // Five pairs, each side of a pair the same file: nothing can improve
    // or regress.
    let mut args = vec![
        "compare".to_string(),
        "--bench".into(),
        bench.to_str().unwrap().into(),
    ];
    for i in 0..5 {
        args.extend([files[i % 2].clone(), files[i % 2].clone()]);
    }
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (code, stdout) = tmbench(&args);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        !stdout.contains("improved") && !stdout.contains("regressed"),
        "{stdout}"
    );
    for w in WORKLOADS {
        let row = stdout
            .lines()
            .find(|l| l.starts_with(w) && l.contains("cells_sum"))
            .unwrap();
        assert!(row.contains("unchanged"), "{row}");
    }
    let (code, _) = tmbench(&["compare", &files[0], &files[1]]);
    assert_eq!(code, 2, "too few files is a usage error");
}
