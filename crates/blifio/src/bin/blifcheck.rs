//! `blifcheck` — ingest smoke-checker for the streaming BLIF front-end.
//!
//! Two subcommands:
//!
//! * `gen <preset> -o FILE [--flat] [--pad-mb N]` — stream a
//!   `workloads::large` preset to disk. `--flat` writes the flattened
//!   design instead, `write_circuit(build_flat(spec))`: one model, the
//!   shape of a mapper's output. `--pad-mb` appends comment padding so
//!   the file grows without the netlist growing: an ingest whose peak
//!   RSS tracks the netlist (not the file) is unaffected by the padding.
//! * `ingest FILE [--max-secs S] [--max-rss-mb M]` — parse + flatten the
//!   file, then report wall time, circuit totals, the process's peak
//!   RSS (`VmHWM` via [`engine::mem::peak_rss_kib`]) and the heap
//!   ledger from the counting allocator. Exceeding either budget exits
//!   1, so CI can gate on it directly.
//!
//! Output is `key=value` lines on stdout, one per metric.

use engine::mem::peak_rss_kib;
use std::io::Write as _;
use std::time::Instant;

/// Heap accounting for the `heap_*` ingest metrics; counting starts in
/// `main` and the wrapper always delegates to the system allocator.
#[global_allocator]
static ALLOC: engine::mem::CountingAlloc = engine::mem::CountingAlloc::new();

fn usage() -> ! {
    eprintln!(
        "\
blifcheck — ingest smoke-checker for the streaming BLIF front-end

USAGE: blifcheck gen <preset> -o FILE [--flat] [--pad-mb N]
       blifcheck ingest FILE [--max-secs S] [--max-rss-mb M]

  gen      stream a large-workload preset ({}) to FILE;
           --flat writes the flattened design as one model;
           --pad-mb appends N MiB of comment lines (file grows, netlist
           does not — RSS must not follow)
  ingest   parse + flatten FILE, print key=value metrics (wall seconds,
           gates/FFs/PIs/POs, peak RSS); budgets make breaches exit 1",
        workloads::large_presets()
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("blifcheck: {msg}");
    std::process::exit(1);
}

fn take_flag(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        fail(&format!("{name} needs a value"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn run_gen(mut args: Vec<String>) {
    let out = take_flag(&mut args, "-o").unwrap_or_else(|| fail("gen needs -o FILE"));
    let flat = match args.iter().position(|a| a == "--flat") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    let pad_mb: u64 = take_flag(&mut args, "--pad-mb")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail("--pad-mb needs a number"))
        })
        .unwrap_or(0);
    let [name] = args.as_slice() else { usage() };
    let spec =
        workloads::large_preset(name).unwrap_or_else(|| fail(&format!("unknown preset `{name}`")));
    let f = std::fs::File::create(&out).unwrap_or_else(|e| fail(&format!("creating `{out}`: {e}")));
    let mut w = std::io::BufWriter::new(f);
    let written = if flat {
        let c = workloads::build_flat(&spec)
            .unwrap_or_else(|e| fail(&format!("building `{name}`: {e}")));
        w.write_all(blifio::write_circuit(&c).as_bytes())
    } else {
        workloads::write_hier(&spec, &mut w)
    };
    written.unwrap_or_else(|e| fail(&format!("writing `{out}`: {e}")));
    // Comment padding: 64 KiB lines the scanner must stream through and
    // discard. The netlist is unchanged, so a streaming reader's peak
    // RSS must not scale with this.
    if pad_mb > 0 {
        let line = format!("# {}\n", "p".repeat(64 * 1024 - 3));
        for _ in 0..(pad_mb * 1024 * 1024).div_ceil(line.len() as u64) {
            w.write_all(line.as_bytes())
                .unwrap_or_else(|e| fail(&format!("padding `{out}`: {e}")));
        }
    }
    w.flush()
        .unwrap_or_else(|e| fail(&format!("flushing `{out}`: {e}")));
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!("preset={name}");
    println!("file_bytes={bytes}");
    println!("expected_gates={}", spec.flat_gates());
    println!("expected_ffs={}", spec.flat_ffs());
}

fn run_ingest(mut args: Vec<String>) {
    let max_secs: Option<f64> = take_flag(&mut args, "--max-secs").map(|v| {
        v.parse()
            .unwrap_or_else(|_| fail("--max-secs needs a number"))
    });
    let max_rss_mb: Option<u64> = take_flag(&mut args, "--max-rss-mb").map(|v| {
        v.parse()
            .unwrap_or_else(|_| fail("--max-rss-mb needs a number"))
    });
    let [path] = args.as_slice() else { usage() };
    let bytes = std::fs::metadata(path)
        .map(|m| m.len())
        .unwrap_or_else(|e| fail(&format!("stat `{path}`: {e}")));
    let rss_before = peak_rss_kib().unwrap_or(0);
    let start = Instant::now();
    let file = match blifio::parse_path(path) {
        Ok(f) => f,
        Err(e) => fail(&format!("parsing `{path}`: {e}")),
    };
    let parse_secs = start.elapsed().as_secs_f64();
    let circuit = match blifio::flatten(&file, &blifio::LinkOptions::default()) {
        Ok(c) => c,
        Err(e) => fail(&format!("flattening `{path}`: {e}")),
    };
    let total_secs = start.elapsed().as_secs_f64();
    let peak_kib = peak_rss_kib().unwrap_or(0);

    println!("file_bytes={bytes}");
    println!("models={}", file.models.len());
    println!("gates={}", circuit.num_gates());
    println!("ffs={}", circuit.ff_count_total());
    println!("pis={}", circuit.inputs().len());
    println!("pos={}", circuit.outputs().len());
    println!("parse_secs={parse_secs:.3}");
    println!("total_secs={total_secs:.3}");
    println!("rss_before_kib={rss_before}");
    println!("peak_rss_kib={peak_kib}");
    let heap = engine::mem::global_stats();
    println!("heap_peak_bytes={}", heap.peak_bytes);
    println!("heap_allocs={}", heap.allocs);
    println!("heap_alloc_bytes={}", heap.alloc_bytes);

    if let Some(budget) = max_secs {
        if total_secs > budget {
            fail(&format!(
                "wall-time budget exceeded: {total_secs:.3}s > {budget}s"
            ));
        }
    }
    if let Some(budget) = max_rss_mb {
        if peak_kib > budget * 1024 {
            fail(&format!(
                "RSS budget exceeded: {} MiB > {budget} MiB",
                peak_kib / 1024
            ));
        }
    }
}

fn main() {
    engine::mem::set_enabled(true);
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        usage();
    }
    let cmd = raw.remove(0);
    match cmd.as_str() {
        "gen" => run_gen(raw),
        "ingest" => run_ingest(raw),
        _ => usage(),
    }
}
