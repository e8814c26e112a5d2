//! `tmbench`: the end-to-end and per-layer benchmark of the TurboMap-frt
//! reproduction.
//!
//! ```text
//! tmbench run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//!             [--trace-dir DIR] [--json OUT] [--smoke]
//! tmbench compare [--bench BENCHMARK.json] PARENT CHANGE PARENT CHANGE ...
//! ```
//!
//! `run --workload W` measures one workload in this process and prints
//! every metric by name and unit, then one JSON line: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or the
//! per-layer ones with `--trace 1`). Without `--workload` it runs every
//! workload, one after another, each in a child process of its own, so
//! peak RSS and heap belong to one workload. It exits 1 when an op
//! failed (the JSON is written either way) and 2 on a usage or set-up
//! error. See `README.md` for the workloads and metrics.

mod compare;
mod inputs;
mod layers;
mod measure;
mod ops;
mod run;

use engine::JsonValue;
use inputs::Workload;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// The allocator `tmfrt` and `table1` install; counting stays off
/// outside traced passes.
#[global_allocator]
static ALLOC: engine::mem::CountingAlloc = engine::mem::CountingAlloc::new();

const USAGE: &str = "usage: tmbench run [--workload W] [--seed S] [--seconds N] [--trace 0|1] \
[--trace-dir DIR] [--json OUT] [--smoke]\n       tmbench compare [--bench BENCHMARK.json] \
PARENT CHANGE PARENT CHANGE ...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let res = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|cli| match cli.workload {
            Some(w) => run_one(&cli, w),
            None => run_all(&cli, &args[1..]),
        }),
        Some("compare") => compare::main(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match res {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tmbench: {e}");
            ExitCode::from(2)
        }
    }
}

struct Cli {
    /// `None` runs every workload.
    workload: Option<Workload>,
    opts: run::RunOpts,
    trace_dir: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        opts: run::RunOpts {
            seed: 0,
            seconds: 20.0,
            trace: false,
            smoke: false,
        },
        trace_dir: None,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.opts.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => cli.workload = None,
            "--workload" => {
                let w = Workload::from_name(value)
                    .ok_or_else(|| format!("unknown workload {value}"))?;
                cli.workload = Some(w);
            }
            "--seed" => cli.opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.opts.seconds = value.parse().map_err(|_| bad())?;
                if !(cli.opts.seconds >= 0.0 && cli.opts.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-dir" => cli.trace_dir = Some(PathBuf::from(value)),
            "--json" => cli.json = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> JsonValue {
    JsonValue::Object(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                let v = JsonValue::object(vec![
                    ("value", JsonValue::Float(value)),
                    ("unit", JsonValue::str(unit)),
                ]);
                (name.to_string(), v)
            })
            .collect(),
    )
}

/// Measures one workload in this process.
fn run_one(cli: &Cli, w: Workload) -> Result<ExitCode, String> {
    let o = &cli.opts;
    let out = run::run(w, o)?;
    println!(
        "{}: seed {}, {} timed passes, {} ops, {} failed, nproc {}, {} block workers",
        w.name(),
        o.seed,
        out.passes,
        out.attempted,
        out.failed,
        nproc(),
        out.workers
    );
    let [wall, cpu, kernel] = out.raw;
    println!(
        "{}: unscaled pass median {wall:.6} s wall, {cpu:.6} s CPU; calibration kernel {kernel:.6} s (reference {} s)",
        w.name(),
        measure::Calibration::REFERENCE_S
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "{}: pass walls (scaled) {}",
        w.name(),
        list(&out.pass_walls)
    );
    println!("{}: calibration kernels {}", w.name(), list(&out.kernels));
    for &(name, value, unit) in &out.metrics {
        println!("{:<8} {name:<34} {value:>14.6} {unit}", w.name());
    }
    let correct = out.failed == 0;
    let line = JsonValue::object(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::UInt(out.attempted)),
        ("failed", JsonValue::UInt(out.failed)),
        ("metrics", metrics_json(&out.metrics)),
    ]);
    if let Some(path) = &cli.json {
        write(path, &record(w, o, &line).render_pretty())?;
    }
    if let (true, Some(dir)) = (o.trace, &cli.trace_dir) {
        write_trace(dir, w, &out)?;
    }
    println!("{}", line.render());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// A result file: the run's settings, `available_parallelism`, and the
/// printed result line's fields.
fn record(w: Workload, o: &run::RunOpts, line: &JsonValue) -> JsonValue {
    let mut pairs = vec![
        ("schema".to_string(), JsonValue::str("tmbench/result/v1")),
        ("workload".to_string(), JsonValue::str(w.name())),
        ("seed".to_string(), JsonValue::UInt(o.seed)),
        ("seconds".to_string(), JsonValue::Float(o.seconds)),
        ("trace".to_string(), JsonValue::Bool(o.trace)),
        ("smoke".to_string(), JsonValue::Bool(o.smoke)),
        ("nproc".to_string(), JsonValue::UInt(nproc() as u64)),
    ];
    if let JsonValue::Object(fields) = line {
        pairs.extend(fields.iter().cloned());
    }
    JsonValue::Object(pairs)
}

fn write(path: &std::path::Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// `DIR/<workload>.trace.json` (Chrome trace) and
/// `DIR/<workload>.layers.json` (per-layer metrics plus self time per
/// span name).
fn write_trace(dir: &std::path::Path, w: Workload, out: &run::Outcome) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let trace = out.tracer.chrome_trace();
    let mut profile = engine::profile::Profile::new();
    profile.add_trace(&trace)?;
    let spans = profile
        .spans
        .iter()
        .map(|(name, agg)| {
            let v = JsonValue::object(vec![
                ("count", JsonValue::UInt(agg.count)),
                ("total_us", JsonValue::UInt(agg.total_us)),
                ("self_us", JsonValue::UInt(agg.self_us)),
            ]);
            (name.clone(), v)
        })
        .collect();
    let layers = JsonValue::object(vec![
        ("schema", JsonValue::str("tmbench/layers/v1")),
        ("workload", JsonValue::str(w.name())),
        ("metrics", metrics_json(&out.metrics)),
        ("spans", JsonValue::Object(spans)),
    ]);
    write(
        &dir.join(format!("{}.trace.json", w.name())),
        &trace.render(),
    )?;
    write(
        &dir.join(format!("{}.layers.json", w.name())),
        &layers.render_pretty(),
    )
}

/// Runs every workload, one at a time, each in a child process.
fn run_all(cli: &Cli, args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating tmbench: {e}"))?;
    // The children get every flag but `--json`, which this process
    // writes from their result lines.
    let mut forwarded = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" | "--workload" => {
                it.next();
            }
            _ => forwarded.push(a.clone()),
        }
    }
    let mut records = Vec::new();
    let mut code = ExitCode::SUCCESS;
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .arg("run")
            .args(&forwarded)
            .args(["--workload", w.name()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        match out.status.code() {
            Some(0) => {}
            Some(1) => code = ExitCode::from(1),
            _ => return Err(format!("{} exited with {}", w.name(), out.status)),
        }
        let line = stdout.lines().last().unwrap_or_default();
        records.push(record(w, &cli.opts, &JsonValue::parse(line)?));
    }
    if let Some(path) = &cli.json {
        let all = JsonValue::object(vec![
            ("schema", JsonValue::str("tmbench/results/v1")),
            ("runs", JsonValue::Array(records)),
        ]);
        write(path, &all.render_pretty())?;
    }
    Ok(code)
}
