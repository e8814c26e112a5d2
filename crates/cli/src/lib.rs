//! Library backing the `tmfrt` command-line tool: argument parsing and
//! the driver logic, separated from `main` so they can be unit-tested.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod fuzz;
pub mod profile;
pub mod serve;

use netlist::Circuit;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Which mapping flow to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Conventional: FlowMap per block + forward retiming.
    FlowMapFrt,
    /// The paper's algorithm: optimal mapping with forward retiming.
    TurboMapFrt,
    /// Optimal mapping with general retiming (initial state may be lost).
    TurboMap,
    /// No mapping: forward retiming only.
    RetimeForward,
    /// No mapping: general (Leiserson–Saxe) retiming only.
    RetimeGeneral,
}

impl std::str::FromStr for Algorithm {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "flowmap-frt" => Ok(Algorithm::FlowMapFrt),
            "turbomap-frt" => Ok(Algorithm::TurboMapFrt),
            "turbomap" => Ok(Algorithm::TurboMap),
            "retime-forward" => Ok(Algorithm::RetimeForward),
            "retime-general" => Ok(Algorithm::RetimeGeneral),
            other => Err(format!(
                "unknown algorithm `{other}` (expected flowmap-frt, turbomap-frt, \
                 turbomap, retime-forward or retime-general)"
            )),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Input path (`.blif` or `.kiss2`), or `-` for stdin, or
    /// `gen:<preset>` for a generated Table-1 circuit.
    pub input: String,
    /// Output BLIF path (stdout when absent).
    pub output: Option<String>,
    /// Flow to run.
    pub algorithm: Algorithm,
    /// LUT input bound.
    pub k: usize,
    /// Run the Section-5 backward push preprocessing first.
    pub pushback: bool,
    /// Verify the result by random simulation (vector count).
    pub verify: Option<usize>,
    /// One-hot instead of binary encoding for KISS2 synthesis.
    pub onehot: bool,
    /// Run the LUT packing area post-pass on the mapped result.
    pub pack: bool,
    /// Run structural hashing on the mapped result.
    pub strash: bool,
    /// Write a Chrome-trace JSON of the run's spans to this path.
    pub trace_out: Option<String>,
    /// Write a `turbomap-report/v2` JSON (Φ-optimality certificate +
    /// timing attribution) to this path. Only for `turbomap-frt`.
    pub report: Option<String>,
    /// Generate the report without writing a file and hand the JSON
    /// back in [`RunOutcome::report_json`]. Not a CLI flag — set
    /// programmatically (`tmfrt serve` uses it for `report=1` jobs).
    pub report_inline: bool,
    /// Suppress the progress report on stderr (results and errors still
    /// print: circuit on stdout, errors on stderr).
    pub quiet: bool,
}

impl Default for Args {
    /// The single-circuit defaults: `turbomap-frt` at K = 5, no input.
    fn default() -> Args {
        Args {
            input: String::new(),
            output: None,
            algorithm: Algorithm::TurboMapFrt,
            k: 5,
            pushback: false,
            verify: None,
            onehot: false,
            pack: false,
            strash: false,
            trace_out: None,
            report: None,
            report_inline: false,
            quiet: false,
        }
    }
}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a usage message on malformed input.
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        // `tmfrt map <input> …` is an explicit alias for the default
        // single-circuit mode (symmetric with `tmfrt batch …`).
        let raw = match raw.first().map(String::as_str) {
            Some("map") => &raw[1..],
            _ => raw,
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if args.parse_run_flag(a, &mut it)? {
                continue;
            }
            match a.as_str() {
                "-o" | "--output" => {
                    args.output = Some(
                        it.next()
                            .ok_or_else(|| "--output needs a path".to_string())?
                            .clone(),
                    );
                }
                "--onehot" => args.onehot = true,
                "--trace-out" => {
                    args.trace_out = Some(
                        it.next()
                            .ok_or_else(|| "--trace-out needs a path".to_string())?
                            .clone(),
                    );
                }
                "--report" => {
                    args.report = Some(
                        it.next()
                            .ok_or_else(|| "--report needs a path".to_string())?
                            .clone(),
                    );
                }
                "-q" | "--quiet" => args.quiet = true,
                "-h" | "--help" => return Err(USAGE.to_string()),
                other if args.input.is_empty() && is_input(other) => {
                    args.input = other.to_string();
                }
                other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
            }
        }
        if args.input.is_empty() {
            return Err(USAGE.to_string());
        }
        Ok(args)
    }

    /// Parses `flag` if it is one of the run flags that `map`, `batch`
    /// and `serve` share (`-a`, `-k`, `--verify`, `--pack`, `--strash`,
    /// `--pushback`), taking its value from `rest`. Returns `false` for
    /// any other flag, which the caller then handles itself.
    ///
    /// # Errors
    ///
    /// Returns a message when the flag's value is missing or malformed.
    pub fn parse_run_flag(
        &mut self,
        flag: &str,
        rest: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        match flag {
            "-a" | "--algorithm" => {
                self.algorithm = rest
                    .next()
                    .ok_or_else(|| "--algorithm needs a name".to_string())?
                    .parse()?;
            }
            "-k" => {
                self.k = rest
                    .next()
                    .and_then(|v| parse_k(v).ok())
                    .ok_or_else(|| "-k needs a number ≥ 2".to_string())?;
            }
            "--verify" => {
                self.verify = Some(
                    rest.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "--verify needs a vector count".to_string())?,
                );
            }
            "--pack" => self.pack = true,
            "--strash" => self.strash = true,
            "--pushback" => self.pushback = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Whether `arg` can name the input: anything but a flag, and `-` for
/// stdin.
fn is_input(arg: &str) -> bool {
    arg == "-" || !arg.starts_with('-')
}

/// Parses a LUT input bound `K`: a number, at least 2.
///
/// # Errors
///
/// Returns a message for anything else.
pub fn parse_k(value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(k) if k >= 2 => Ok(k),
        _ => Err("k must be a number ≥ 2".to_string()),
    }
}

/// Usage text.
pub const USAGE: &str = "\
tmfrt — FPGA mapping with forward retiming (Cong & Wu, DAC'98 reproduction)

USAGE: tmfrt [map] <input> [-o out.blif] [-a ALGO] [-k K] [--pushback] [--verify N]
             [--onehot] [--pack] [--strash] [--trace-out t.json] [--report r.json] [-q]
       tmfrt explain <input> [-k K] [--json] [--check] …  (see `tmfrt explain --help`)
       tmfrt batch <dir> [--jobs N] [--timeout-secs S] [-o OUTDIR] …  (see `tmfrt batch --help`)
       tmfrt fuzz [--seed A..=B] [--cases N] [--jobs N] …  (see `tmfrt fuzz --help`)
       tmfrt stats <input> [--onehot]  (see `tmfrt stats --help`)

  <input>      circuit: a .blif file (flat or hierarchical — multi-model
               files are flattened), a .kiss2 file, `-` (BLIF on stdin),
               or gen:<name> for a generated benchmark (a Table-1 preset
               like gen:sand, or a large ingest preset like gen:hier100k)
  -a ALGO      flowmap-frt | turbomap-frt (default) | turbomap |
               retime-forward | retime-general
  -k K         LUT input bound (default 5; ignored by retime-*)
  --pushback   push registers toward the PIs first (Section-5 methodology)
  --verify N   check sequential equivalence with N random vectors
               against the circuit as read, which then stays in memory
               through mapping (without it, the mapping algorithms drop
               it once they have their prepared copy)
  --onehot     one-hot state encoding for KISS2 inputs (default binary)
  --pack       LUT packing area post-pass on the result
  --strash     structural hashing (duplicate-logic sweep) on the result
  --trace-out  write a Chrome-trace JSON of the run's spans (open in
               Perfetto or chrome://tracing)
  --report     write a turbomap-report/v2 JSON (Φ-optimality certificate
               plus timing attribution; turbomap-frt only)
  -q, --quiet  suppress the progress report on stderr

Results go to stdout (or -o); progress and errors go to stderr.";

/// Loads a circuit from the CLI input specification.
///
/// # Errors
///
/// Returns a human-readable message on I/O, parse or synthesis errors.
pub fn load_circuit(args: &Args) -> Result<Circuit, String> {
    load_input(&args.input, args.onehot)
}

/// Loads a circuit from an input specification (path, `-`, or
/// `gen:<preset>`) — the shared front door of `map`, `explain`, `batch`
/// and `serve`; `stats` reads its input the same way.
///
/// # Errors
///
/// Returns a human-readable message on I/O, parse or synthesis errors.
pub fn load_input(input: &str, onehot: bool) -> Result<Circuit, String> {
    let link = link_options(onehot);
    match read_input(input, link.encoding)? {
        Input::Circuit(c) => Ok(c),
        Input::Blif(file) => flatten_blif(file, &link),
    }
}

fn link_options(onehot: bool) -> blifio::LinkOptions {
    let encoding = if onehot {
        workloads::Encoding::OneHot
    } else {
        workloads::Encoding::Binary
    };
    blifio::LinkOptions { encoding }
}

/// An input read as far as BLIF goes: a parsed file still to flatten,
/// or a circuit that never was BLIF (a built-in preset or KISS2).
enum Input {
    Blif(blifio::BlifFile),
    Circuit(Circuit),
}

/// Reads an input specification, parsing BLIF in a `parse` span.
fn read_input(input: &str, enc: workloads::Encoding) -> Result<Input, String> {
    if let Some(name) = input.strip_prefix("gen:") {
        if let Some(preset) = workloads::presets().into_iter().find(|p| p.name == name) {
            return Ok(Input::Circuit(workloads::build_preset(&preset)));
        }
        if let Some(spec) = workloads::large_preset(name) {
            // Route the generated hierarchy through the streaming
            // front-end, so `gen:hier*` exercises the same ingest path
            // as a file on disk.
            let text = {
                let _s = engine::trace::span("hier_text");
                workloads::hier_to_string(&spec)
            };
            return parse_blif(|| blifio::parse_str(&text)).map(Input::Blif);
        }
        return Err(format!(
            "unknown preset `{name}`; available: {}",
            workloads::presets()
                .iter()
                .map(|p| p.name)
                .map(String::from)
                .chain(workloads::large_presets().iter().map(|s| s.name.clone()))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    // Stream straight from the file unless the extension or a 4 KiB
    // header probe says KISS2; hierarchical, multi-model and
    // yosys-extended BLIF all parse here without the text ever being
    // held whole.
    if input != "-" && !looks_like_kiss(input, "") && !probe_kiss(input)? {
        return parse_blif(|| blifio::parse_path(input)).map(Input::Blif);
    }
    let text = if input == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(input).map_err(|e| format!("reading `{}`: {e}", input))?
    };
    if looks_like_kiss(input, &text) {
        let stg = workloads::parse_kiss2(&text).map_err(|e| e.to_string())?;
        let c = workloads::synthesize_stg(&stg, enc, "kiss2").map_err(|e| e.to_string())?;
        Ok(Input::Circuit(c))
    } else {
        parse_blif(|| blifio::parse_str(&text)).map(Input::Blif)
    }
}

/// Parses BLIF with `parse` in a `parse` trace span.
pub(crate) fn parse_blif(
    parse: impl FnOnce() -> Result<blifio::BlifFile, blifio::BlifError>,
) -> Result<blifio::BlifFile, String> {
    let _s = engine::trace::span("parse");
    parse().map_err(|e| e.to_string())
}

/// Flattens a parsed file, and frees it, in a `flatten` trace span.
pub(crate) fn flatten_blif(
    file: blifio::BlifFile,
    link: &blifio::LinkOptions,
) -> Result<Circuit, String> {
    let _s = engine::trace::span("flatten");
    blifio::flatten(&file, link).map_err(|e| e.to_string())
}

/// KISS2 detection: by extension, or by the `.i`/`.s`/`.r` header shape
/// when the content is available.
fn looks_like_kiss(path: &str, text: &str) -> bool {
    path.ends_with(".kiss2")
        || path.ends_with(".kiss")
        || text.contains("\n.s ")
        || text.starts_with(".i ") && text.contains(".r ")
}

/// Checks the first 4 KiB of a file for the KISS2 header shape without
/// reading the whole file (large BLIF inputs stay streamed).
fn probe_kiss(path: &str) -> Result<bool, String> {
    use std::io::Read;
    let mut f = std::fs::File::open(path).map_err(|e| format!("reading `{path}`: {e}"))?;
    let mut head = [0u8; 4096];
    let n = f
        .read(&mut head)
        .map_err(|e| format!("reading `{path}`: {e}"))?;
    let text = String::from_utf8_lossy(&head[..n]);
    Ok(looks_like_kiss("", &text))
}

/// Parsed `tmfrt stats` command line.
#[derive(Debug, Clone)]
pub struct StatsArgs {
    /// Input path, `-` for stdin, or `gen:<preset>`.
    pub input: String,
    /// One-hot encoding for embedded KISS FSMs.
    pub onehot: bool,
}

impl StatsArgs {
    /// Parses raw arguments (after the `stats` word).
    ///
    /// # Errors
    ///
    /// Returns a usage message on malformed input.
    pub fn parse(raw: &[String]) -> Result<StatsArgs, String> {
        let mut args = StatsArgs {
            input: String::new(),
            onehot: false,
        };
        for a in raw {
            match a.as_str() {
                "--onehot" => args.onehot = true,
                "-h" | "--help" => return Err(STATS_USAGE.to_string()),
                other if args.input.is_empty() && is_input(other) => {
                    args.input = other.to_string();
                }
                other => return Err(format!("unexpected argument `{other}`\n{STATS_USAGE}")),
            }
        }
        if args.input.is_empty() {
            return Err(STATS_USAGE.to_string());
        }
        Ok(args)
    }
}

/// Usage text for `tmfrt stats`.
pub const STATS_USAGE: &str = "\
tmfrt stats — ingestion report: per-model counts and post-flatten totals

USAGE: tmfrt stats <input> [--onehot]

  <input>    a .blif file (flat or hierarchical), a .kiss2 file, `-`
             (BLIF on stdin), or gen:<preset>
  --onehot   one-hot state encoding for embedded KISS FSMs";

/// Runs `tmfrt stats`: for BLIF inputs, a per-model table (PI/PO, gates,
/// latches, subckts, KISS blocks) followed by the flattened circuit's
/// totals; for KISS2 and generated inputs, just the circuit totals.
///
/// # Errors
///
/// Returns a human-readable message on I/O or parse errors.
pub fn run_stats(args: &StatsArgs) -> Result<String, String> {
    let link = link_options(args.onehot);
    let (mut out, flat) = match read_input(&args.input, link.encoding)? {
        Input::Circuit(c) => (String::new(), c),
        Input::Blif(file) => {
            let table = netlist::stats::render_model_table(&file.model_counts());
            (table + "\n", flatten_blif(file, &link)?)
        }
    };
    let stats = netlist::CircuitStats::of(&flat).map_err(|e| e.to_string())?;
    writeln!(out, "flat:   {stats}").ok();
    Ok(out)
}

/// Parsed `tmfrt explain` command line.
#[derive(Debug, Clone)]
pub struct ExplainArgs {
    /// Input path, `-` for stdin, or `gen:<preset>`.
    pub input: String,
    /// LUT input bound.
    pub k: usize,
    /// One-hot encoding for KISS2 inputs.
    pub onehot: bool,
    /// Print the `turbomap-report/v2` JSON instead of the table.
    pub json: bool,
    /// Run the independent certificate checker on the rendered report
    /// and fail unless the Φ−1 witness verifies.
    pub check: bool,
    /// Also write the report JSON to this path.
    pub out: Option<String>,
}

impl ExplainArgs {
    /// Parses raw arguments (after the `explain` word).
    ///
    /// # Errors
    ///
    /// Returns a usage message on malformed input.
    pub fn parse(raw: &[String]) -> Result<ExplainArgs, String> {
        let mut args = ExplainArgs {
            input: String::new(),
            k: 5,
            onehot: false,
            json: false,
            check: false,
            out: None,
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "-k" => {
                    args.k = it
                        .next()
                        .and_then(|v| parse_k(v).ok())
                        .ok_or_else(|| "-k needs a number ≥ 2".to_string())?;
                }
                "--onehot" => args.onehot = true,
                "--json" => args.json = true,
                "--check" => args.check = true,
                "-o" | "--output" => {
                    args.out = Some(
                        it.next()
                            .ok_or_else(|| "--output needs a path".to_string())?
                            .clone(),
                    );
                }
                "-h" | "--help" => return Err(EXPLAIN_USAGE.to_string()),
                other if args.input.is_empty() && is_input(other) => {
                    args.input = other.to_string();
                }
                other => return Err(format!("unexpected argument `{other}`\n{EXPLAIN_USAGE}")),
            }
        }
        if args.input.is_empty() {
            return Err(EXPLAIN_USAGE.to_string());
        }
        Ok(args)
    }
}

/// Usage text for `tmfrt explain`.
pub const EXPLAIN_USAGE: &str = "\
tmfrt explain — why is Φ optimal? certificate + timing attribution

Maps the circuit with turbomap-frt, then reports (a) a replayable
derivation witness that period Φ−1 has no simple FRT mapping solution
and (b) per-LUT depth/slack, the critical path, label pairs and the
retiming summary.

USAGE: tmfrt explain <input> [-k K] [--json] [--check] [-o r.json]
                     [--onehot]

  <input>    a .blif file, a .kiss2 file, `-` (BLIF on stdin), or
             gen:<preset>
  -k K       LUT input bound (default 5)
  --json     print the turbomap-report/v2 JSON instead of the table
  --check    replay the rendered report through the independent checker
             (own frt/cone/max-flow arithmetic); exit non-zero unless
             the Φ−1 witness verifies
  -o PATH    also write the report JSON to PATH
  --onehot   one-hot state encoding for KISS2 inputs";

/// Runs `tmfrt explain`: maps, assembles the report, optionally verifies
/// it with the independent checker, and renders table or JSON.
///
/// # Errors
///
/// Returns a human-readable message on load/mapping errors, and a
/// `certificate check FAILED: …` message when `--check` does not verify.
pub fn run_explain(args: &ExplainArgs) -> Result<String, String> {
    let circuit = load_input(&args.input, args.onehot)?;
    let opts = turbomap::Options::with_k(args.k);
    let explained = report::explain(&circuit, opts).map_err(|e| e.to_string())?;
    let json = explained.to_json().render_pretty();
    let mut check_line = None;
    if args.check {
        // Verify the *rendered* bytes: parse back, then replay with the
        // checker's own arithmetic, so the round trip is covered too.
        let parsed = engine::JsonValue::parse(&json)
            .map_err(|e| format!("certificate check FAILED: report does not re-parse: {e}"))?;
        let summary = report::verify(&parsed, &circuit, &explained.result.circuit)
            .map_err(|e| format!("certificate check FAILED: {e}"))?;
        match summary.witness {
            report::WitnessVerdict::Verified {
                steps,
                ref terminal_node,
                terminal_value,
            } => {
                check_line = Some(format!(
                    "checker: witness VERIFIED — {steps} steps replay; {terminal_node} \
                     reaches l^s = {terminal_value} > {}; {} node timings re-derived{}",
                    explained.report.witness.phi_tested,
                    summary.nodes_checked,
                    if summary.cycle_checked {
                        "; critical cycle re-verified"
                    } else {
                        ""
                    }
                ));
            }
            report::WitnessVerdict::Unavailable { reason } => {
                return Err(format!(
                    "certificate check FAILED: no verifiable witness ({reason})"
                ));
            }
        }
    }
    if let Some(path) = &args.out {
        std::fs::write(path, &json).map_err(|e| format!("writing `{path}`: {e}"))?;
    }
    if args.json {
        Ok(json)
    } else {
        let mut out = explained.report.render_table();
        if let Some(line) = check_line {
            out.push_str(&line);
            out.push('\n');
        }
        Ok(out)
    }
}

/// The result of one CLI run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The produced circuit.
    pub circuit: Circuit,
    /// Human-readable summary lines.
    pub report: String,
    /// The rendered `turbomap-report/v2` document, when requested via
    /// [`Args::report`] or [`Args::report_inline`].
    pub report_json: Option<String>,
    /// True when the initial state was lost (general retiming only).
    pub star: bool,
}

/// Runs the selected flow on `input`. The unprepared source is dropped
/// once the algorithm no longer reads it, unless `--verify` checks the
/// result against it.
///
/// # Errors
///
/// Returns a human-readable message on algorithm failures.
pub fn run(args: &Args, input: Circuit) -> Result<RunOutcome, String> {
    if (args.report.is_some() || args.report_inline) && args.algorithm != Algorithm::TurboMapFrt {
        return Err("--report is only available with -a turbomap-frt".into());
    }
    let mut report = String::new();
    let mut report_json: Option<String> = None;
    let stats = netlist::CircuitStats::of(&input).map_err(|e| e.to_string())?;
    writeln!(report, "input:  {stats}").ok();

    let pushed = args.pushback.then(|| {
        let (circuit, _, pstats) = retiming::push_registers_backward(&input, 32);
        writeln!(
            report,
            "pushback: {} backward moves ({} conflicts, {} unjustifiable)",
            pstats.moves, pstats.conflicts, pstats.unjustifiable
        )
        .ok();
        circuit
    });
    // `--verify` checks the result against the circuit as read, not
    // against what `prepare` made of it, so only it keeps `input`.
    let (original, owned) = match args.verify {
        Some(_) => (Some(input), pushed),
        None => (None, Some(pushed.unwrap_or(input))),
    };
    let source = match owned {
        Some(c) => Cow::Owned(c),
        None => Cow::Borrowed(original.as_ref().expect("kept for --verify")),
    };
    let (circuit, star) = map_source(args, source, &mut report, &mut report_json)?;

    let circuit = if args.strash {
        let r = netlist::strash(&circuit).map_err(|e| e.to_string())?;
        writeln!(report, "strash: merged {} duplicate gates", r.merged).ok();
        r.circuit
    } else {
        circuit
    };
    let circuit = if args.pack {
        let r = flowmap::pack_luts(&circuit, args.k).map_err(|e| e.to_string())?;
        writeln!(report, "pack: removed {} LUTs", r.packed).ok();
        r.circuit
    } else {
        circuit
    };
    if let (Some(n), Some(original)) = (args.verify, &original) {
        let eq = {
            let _s = engine::trace::span1("verify", "vectors", n as u64);
            netlist::random_equiv(original, &circuit, n, 0x7E57)
        }
        .map_err(|e| e.to_string())?
        .is_equivalent();
        writeln!(
            report,
            "verify: {}",
            if eq {
                "equivalent".to_string()
            } else if star {
                "NOT equivalent (expected: the initial state was lost)".to_string()
            } else {
                return Err("verification FAILED on a non-starred result".into());
            }
        )
        .ok();
    }
    let out_stats = netlist::CircuitStats::of(&circuit).map_err(|e| e.to_string())?;
    writeln!(report, "output: {out_stats}").ok();
    Ok(RunOutcome {
        circuit,
        report,
        report_json,
        star,
    })
}

/// Runs the selected algorithm on `source` and returns its circuit and
/// whether the initial state was lost.
fn map_source(
    args: &Args,
    source: Cow<'_, Circuit>,
    report: &mut String,
    report_json: &mut Option<String>,
) -> Result<(Circuit, bool), String> {
    let k = args.k;
    let opts = turbomap::Options::with_k(k);
    match args.algorithm {
        Algorithm::FlowMapFrt => {
            let prep = prepare(source, k)?;
            let r = flowmap::flowmap_frt(&prep, k).map_err(|e| e.to_string())?;
            writeln!(
                report,
                "flowmap-frt: Φ = {}, {} LUTs, {} FFs",
                r.period, r.luts, r.ffs
            )
            .ok();
            Ok((r.circuit, false))
        }
        Algorithm::TurboMapFrt => {
            let r = if args.report.is_some() || args.report_inline {
                // The report pipeline wraps the same mapping run, so the
                // circuit comes out of `explain` rather than mapping twice.
                let explained = report::explain(&source, opts).map_err(|e| e.to_string())?;
                let doc = explained.to_json().render_pretty();
                if let Some(path) = &args.report {
                    std::fs::write(path, &doc).map_err(|e| format!("writing `{path}`: {e}"))?;
                    writeln!(report, "report: wrote {path}").ok();
                }
                *report_json = Some(doc);
                explained.result
            } else {
                let prep = prepare(source, k)?;
                let ctx = turbomap::FrtContext::new(&prep, k, opts.weight_horizon);
                turbomap::turbomap_frt_with(prep.name(), &ctx).map_err(|e| e.to_string())?
            };
            writeln!(
                report,
                "turbomap-frt: Φ = {}, {} LUTs, {} FFs (initial state guaranteed)",
                r.period, r.luts, r.ffs
            )
            .ok();
            Ok((r.circuit, false))
        }
        Algorithm::TurboMap => {
            let prep = prepare(source, k)?;
            let ctx = turbomap::GeneralContext::new(&prep, k, opts.general_horizon);
            let r =
                turbomap::turbomap_general_with(prep.name(), &ctx).map_err(|e| e.to_string())?;
            writeln!(
                report,
                "turbomap: Φ = {}, {} LUTs, {} FFs{}",
                r.period,
                r.luts,
                r.ffs,
                if r.star() {
                    " — ⋆ NO usable equivalent initial state"
                } else {
                    ""
                }
            )
            .ok();
            let star = r.star();
            Ok((r.circuit, star))
        }
        Algorithm::RetimeForward => {
            let r = retiming::retime_min_period_forward(&source).map_err(|e| e.to_string())?;
            writeln!(report, "retime-forward: Φ = {}", r.period).ok();
            Ok((r.circuit, false))
        }
        Algorithm::RetimeGeneral => match retiming::retime_min_period_general(&source) {
            Ok(r) => {
                writeln!(report, "retime-general: Φ = {}", r.period).ok();
                Ok((r.circuit, false))
            }
            Err(e) => Err(format!(
                "retime-general failed to compute an initial state: {e} \
                 (this is the NP-hard case the paper avoids)"
            )),
        },
    }
}

/// The [`turbomap::prepare`]d network of `source`, which is dropped
/// here: the mapping algorithms read only the prepared copy.
fn prepare(source: Cow<'_, Circuit>, k: usize) -> Result<Circuit, String> {
    turbomap::prepare(&source, k).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_defaults() {
        let a = Args::parse(&argv("gen:sand")).unwrap();
        assert_eq!(a.algorithm, Algorithm::TurboMapFrt);
        assert_eq!(a.k, 5);
        assert!(!a.pushback);
    }

    /// Every flag the flag list describes is also in the `map` synopsis
    /// (under one of its spellings, e.g. `-q` for `-q, --quiet`).
    #[test]
    fn synopsis_names_every_listed_flag() {
        let synopsis: String = USAGE
            .lines()
            .skip_while(|l| !l.starts_with("USAGE:"))
            .take_while(|l| !l.trim_start().starts_with("tmfrt explain"))
            .collect();
        let entries = USAGE
            .lines()
            .filter_map(|l| l.strip_prefix("  "))
            .filter(|l| l.starts_with('-'))
            .map(|l| l.split("  ").next().unwrap_or(l));
        for entry in entries {
            let spellings: Vec<&str> = entry.split(", ").collect();
            assert!(
                spellings
                    .iter()
                    .any(|flag| synopsis.contains(&format!("[{flag}"))),
                "{entry} missing from the synopsis"
            );
        }
    }

    #[test]
    fn parses_all_flags() {
        let a = Args::parse(&argv(
            "in.blif -o out.blif -a turbomap -k 4 --pushback --verify 100 --onehot",
        ))
        .unwrap();
        assert_eq!(a.algorithm, Algorithm::TurboMap);
        assert_eq!(a.k, 4);
        assert!(a.pushback);
        assert_eq!(a.verify, Some(100));
        assert!(a.onehot);
        assert_eq!(a.output.as_deref(), Some("out.blif"));
    }

    #[test]
    fn map_alias_and_observability_flags() {
        let a = Args::parse(&argv("map in.blif --trace-out t.json -q")).unwrap();
        assert_eq!(a.input, "in.blif");
        assert_eq!(a.trace_out.as_deref(), Some("t.json"));
        assert!(a.quiet);
        // `map` is only consumed in the leading position.
        let b = Args::parse(&argv("map --quiet")).unwrap_err();
        assert!(b.contains("USAGE"));
    }

    #[test]
    fn run_flags_parse_alike_in_map_batch_and_serve() {
        let flags = "-a turbomap -k 3 --verify 8 --pack --strash --pushback";
        let map = Args::parse(&argv(&format!("x.blif {flags}"))).unwrap();
        let batch = batch::BatchArgs::parse(&argv(&format!("dir {flags}")))
            .unwrap()
            .run;
        let serve = serve::ServeArgs::parse(&argv(flags)).unwrap().run;
        for a in [&map, &batch, &serve] {
            assert_eq!(a.algorithm, Algorithm::TurboMap);
            assert_eq!(a.k, 3);
            assert_eq!(a.verify, Some(8));
            assert!(a.pack && a.strash && a.pushback);
        }
        assert!(Args::parse(&argv("x.blif -k 1")).is_err());
        assert!(batch::BatchArgs::parse(&argv("dir -k 1")).is_err());
        assert!(serve::ServeArgs::parse(&argv("-k 1")).is_err());
        // `--onehot` is a map and batch flag, not a serve one.
        assert!(Args::parse(&argv("x.blif --onehot")).unwrap().onehot);
        assert!(
            batch::BatchArgs::parse(&argv("dir --onehot"))
                .unwrap()
                .run
                .onehot
        );
        assert!(serve::ServeArgs::parse(&argv("--onehot")).is_err());
        assert_eq!(parse_k("4"), Ok(4));
        assert!(parse_k("1").is_err() && parse_k("four").is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Args::parse(&argv("")).is_err());
        assert!(Args::parse(&argv("x.blif -k 1")).is_err());
        assert!(Args::parse(&argv("x.blif -a nosuch")).is_err());
        assert!(Args::parse(&argv("x.blif --bogus")).is_err());
    }

    #[test]
    fn end_to_end_on_preset() {
        let args = Args::parse(&argv("gen:dk17 --verify 256")).unwrap();
        let c = load_circuit(&args).unwrap();
        let out = run(&args, c).unwrap();
        assert!(out.report.contains("turbomap-frt"));
        assert!(out.report.contains("verify: equivalent"));
        assert!(!out.star);
    }

    #[test]
    fn end_to_end_blif_text() {
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
        let dir = std::env::temp_dir().join("tmfrt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.blif");
        std::fs::write(&path, blif).unwrap();
        let args = Args::parse(&argv(&format!(
            "{} -a flowmap-frt --verify 64",
            path.display()
        )))
        .unwrap();
        let c = load_circuit(&args).unwrap();
        let out = run(&args, c).unwrap();
        assert!(out.report.contains("flowmap-frt"));
    }

    #[test]
    fn kiss2_input_detected() {
        let kiss = ".i 1\n.o 1\n.s 2\n.r A\n1 A B 1\n- B A 0\n.e\n";
        let dir = std::env::temp_dir().join("tmfrt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.kiss2");
        std::fs::write(&path, kiss).unwrap();
        let args = Args::parse(&argv(&format!("{} --verify 64", path.display()))).unwrap();
        let c = load_circuit(&args).unwrap();
        assert!(c.ff_count_shared() >= 1);
        let out = run(&args, c).unwrap();
        assert!(out.report.contains("equivalent"));
    }

    #[test]
    fn pack_and_strash_flags() {
        let args = Args::parse(&argv("gen:dk17 --pack --strash --verify 128")).unwrap();
        assert!(args.pack && args.strash);
        let c = load_circuit(&args).unwrap();
        let out = run(&args, c).unwrap();
        assert!(out.report.contains("pack: removed"));
        assert!(out.report.contains("strash: merged"));
        assert!(out.report.contains("verify: equivalent"));
    }

    const HIER: &str = "\
.model top
.inputs a b
.outputs z
.subckt and2m x=a y=b o=z
.end
.model and2m
.inputs x y
.outputs o
.names x y o
11 1
.end
";

    #[test]
    fn loads_hierarchical_blif() {
        let dir = std::env::temp_dir().join("tmfrt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hier.blif");
        std::fs::write(&path, HIER).unwrap();
        let args = Args::parse(&argv(&format!("{} --verify 32", path.display()))).unwrap();
        let c = load_circuit(&args).unwrap();
        assert_eq!(c.name(), "top");
        assert_eq!(c.num_gates(), 1);
        let out = run(&args, c).unwrap();
        assert!(out.report.contains("verify: equivalent"));
    }

    #[test]
    fn stats_reports_models_and_flat_totals() {
        let dir = std::env::temp_dir().join("tmfrt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hier_stats.blif");
        std::fs::write(&path, HIER).unwrap();
        let args = StatsArgs::parse(&argv(&path.display().to_string())).unwrap();
        let report = run_stats(&args).unwrap();
        assert!(report.contains("top"), "{report}");
        assert!(report.contains("and2m"), "{report}");
        assert!(report.contains("flat:"), "{report}");
    }

    #[test]
    fn stats_parses_flags() {
        let a = StatsArgs::parse(&argv("x.blif --onehot")).unwrap();
        assert!(a.onehot);
        assert!(StatsArgs::parse(&argv("")).is_err());
        assert!(StatsArgs::parse(&argv("x.blif --bogus")).is_err());
    }

    /// A lone `-` names stdin in all three input-taking parsers; any
    /// other dash word is still a flag.
    #[test]
    fn dash_names_stdin() {
        assert_eq!(Args::parse(&argv("- -q")).unwrap().input, "-");
        assert_eq!(Args::parse(&argv("map -")).unwrap().input, "-");
        assert_eq!(StatsArgs::parse(&argv("- --onehot")).unwrap().input, "-");
        assert_eq!(ExplainArgs::parse(&argv("- --check")).unwrap().input, "-");
        assert!(Args::parse(&argv("- -")).is_err());
        assert!(StatsArgs::parse(&argv("--x")).is_err());
        assert!(ExplainArgs::parse(&argv("-x")).is_err());
    }

    #[test]
    fn unknown_preset_lists_large_suite() {
        let args = Args::parse(&argv("gen:nosuch")).unwrap();
        let err = load_circuit(&args).unwrap_err();
        assert!(err.contains("hier100k"), "{err}");
        assert!(err.contains("sand"), "{err}");
    }

    /// Keeping the source for `--verify` or dropping it after `prepare`
    /// maps to the same circuit, for every algorithm.
    #[test]
    fn verify_keeps_the_mapping_unchanged() {
        for algo in [
            "flowmap-frt",
            "turbomap-frt",
            "turbomap",
            "retime-forward",
            "retime-general",
        ] {
            for pushback in ["", "--pushback"] {
                let plain = Args::parse(&argv(&format!("gen:dk17 -a {algo} {pushback}"))).unwrap();
                let verified =
                    Args::parse(&argv(&format!("gen:dk17 -a {algo} {pushback} --verify 64")))
                        .unwrap();
                let c = load_circuit(&plain).unwrap();
                let (a, b) = match (run(&plain, c.clone()), run(&verified, c)) {
                    (Ok(a), Ok(b)) => (a, b),
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "{algo} {pushback}");
                        continue;
                    }
                    (a, b) => panic!("{algo} {pushback}: {:?} vs {:?}", a.err(), b.err()),
                };
                assert_eq!(a.circuit, b.circuit, "{algo} {pushback}");
                assert!(b.report.contains("verify: "), "{algo} {pushback}");
            }
        }
    }

    #[test]
    fn pushback_flow_runs() {
        let args = Args::parse(&argv("gen:ex2 --pushback --verify 128")).unwrap();
        let c = load_circuit(&args).unwrap();
        let out = run(&args, c).unwrap();
        assert!(out.report.contains("pushback"));
        assert!(out.report.contains("verify: equivalent"));
    }
}
