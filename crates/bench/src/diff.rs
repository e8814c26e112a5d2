//! Bench-regression analysis: compare two `turbomap-bench/*` artifacts
//! of the same family (`table1/v*` mapping runs, or `large/v*`
//! ingest-and-map runs).
//!
//! The `benchdiff` binary reads a **baseline** artifact (typically the
//! committed `BENCH_table1.json` or `BENCH_large.json`) and a
//! **candidate** artifact (a fresh run) and reports per-circuit deltas
//! on the quality metrics (Φ, LUT and FF counts and `⋆` for table1;
//! file/model/gate/FF totals and the mapped Φ, LUTs and FFs for
//! large — deterministic, so any change is signal), wall time, and histogram quantiles (p50/p90/p99 of each
//! recorded distribution).
//!
//! Regression policy:
//!
//! * any **quality** change (Φ, LUTs or FFs up or a `⋆` appearing for
//!   any algorithm, a circuit disappearing, a status downgrade) is a
//!   regression — these are deterministic and must be byte-stable
//!   run-to-run;
//! * a **wall-time** increase beyond the configurable fractional
//!   threshold is a regression, *unless* either artifact is canonical
//!   (canonical artifacts zero all timing, so wall deltas are
//!   meaningless there);
//! * with [`DiffOptions::mem_threshold`] set, a **peak-memory** increase
//!   beyond that fraction gates too — per-job peak heap for table1 rows
//!   (`job_mem.peak_heap_bytes`), peak RSS for large rows —
//!   again skipped when either artifact is canonical (canonical
//!   artifacts omit memory, which is allocator-dependent);
//! * histogram quantile shifts are reported but never gate — they are
//!   scheduling-sensitive distributions, not acceptance criteria.
//!
//! When a wall or memory gate trips, the offending **span** is named:
//! the diff scans the row's job-level `spans` object and appends
//! `attributed to span \`<name>\`` with the span's own before/after self
//! time (or heap peak) to the regression line, so CI logs point at the
//! subsystem, not just the circuit.
//!
//! The rendered report is byte-deterministic for a given pair of
//! artifacts: circuits sort by name, floats render through the same
//! fixed-precision formatter everywhere.

use engine::JsonValue;

/// Diff tuning.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Allowed fractional wall-time increase per circuit before the
    /// diff counts a regression (0.25 = +25%).
    pub wall_threshold: f64,
    /// Gate on quality (Φ/LUTs/status) changes. On by default; turning
    /// it off limits gating to wall time.
    pub quality_gate: bool,
    /// Allowed fractional peak-memory increase per circuit before the
    /// diff counts a regression (`Some(0.25)` = +25%). `None` (the
    /// default) disables the memory gate entirely.
    pub mem_threshold: Option<f64>,
    /// Minimum vectorization speedup (`verify_scalar_secs /
    /// verify_secs`) required of every large-suite row, e.g.
    /// `Some(2.0)` = the vector engine must beat the scalar engine 2×
    /// on the verify phase. Unlike the wall gate this only needs the
    /// *candidate* to carry real timings — the ratio is
    /// machine-relative, so a canonical baseline is fine. `None` (the
    /// default) disables the gate.
    pub verify_speedup: Option<f64>,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            wall_threshold: 0.25,
            quality_gate: true,
            mem_threshold: None,
            verify_speedup: None,
        }
    }
}

/// One circuit's comparison.
#[derive(Debug)]
pub struct CircuitDiff {
    /// Circuit name.
    pub name: String,
    /// Informational delta lines (empty when nothing changed).
    pub notes: Vec<String>,
    /// Regression lines (a subset of the signal in `notes`).
    pub regressions: Vec<String>,
}

/// The full diff.
#[derive(Debug)]
pub struct DiffReport {
    /// Per-circuit comparisons, sorted by name.
    pub circuits: Vec<CircuitDiff>,
    /// All regression lines, prefixed with their circuit name.
    pub regressions: Vec<String>,
    /// True when wall-time gating was skipped (canonical artifact).
    pub wall_skipped: bool,
    /// True when the memory gate was requested but skipped (canonical
    /// artifact: memory breakdowns omitted).
    pub mem_skipped: bool,
    /// True when the verify-speedup gate was requested but skipped
    /// (canonical candidate: verify timings zeroed).
    pub verify_skipped: bool,
}

impl DiffReport {
    /// True when the candidate passes the gate.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn as_f64(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Float(f) => Some(*f),
        JsonValue::UInt(u) => Some(*u as f64),
        JsonValue::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn fmt_secs(s: f64) -> String {
    format!("{s:.4}s")
}

/// The three per-algorithm result objects of a circuit row.
const ALGORITHMS: [&str; 3] = ["flowmap_frt", "turbomap", "turbomap_frt"];

/// Quality fields compared per algorithm (deterministic; up = worse).
/// A `star` (initial state lost) turning true gates too.
const QUALITY_FIELDS: [&str; 3] = ["phi", "luts", "ffs"];

/// Structural fields of a `turbomap-bench/large/*` row. Deterministic
/// per preset, so *any* change — either direction — is a generator,
/// front-end or mapper regression.
const STRUCT_FIELDS: [&str; 11] = [
    "file_bytes",
    "models",
    "gates",
    "ffs",
    "pis",
    "pos",
    "verify_lanes",
    "verify_cycles",
    // The monolithic TurboMap-frt mapping (large/v6).
    "mapped_phi",
    "mapped_luts",
    "mapped_ffs",
];

fn circuit_map(doc: &JsonValue) -> Result<Vec<(String, &JsonValue)>, String> {
    let arr = doc
        .get("circuits")
        .and_then(|c| c.as_array())
        .ok_or("artifact has no `circuits` array")?;
    let mut out = Vec::with_capacity(arr.len());
    for c in arr {
        let name = c
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or("circuit entry without `name`")?;
        out.push((name.to_string(), c));
    }
    Ok(out)
}

/// Known artifact families (the path segment between `turbomap-bench/`
/// and the version).
const FAMILIES: [&str; 2] = ["table1", "large"];

/// Validates the schema and returns the artifact family.
fn check_schema<'a>(doc: &'a JsonValue, which: &str) -> Result<&'a str, String> {
    let schema = doc
        .get("schema")
        .and_then(|s| s.as_str())
        .ok_or_else(|| format!("{which}: missing `schema` field"))?;
    for family in FAMILIES {
        if schema.starts_with(&format!("turbomap-bench/{family}/")) {
            return Ok(family);
        }
    }
    Err(format!("{which}: unsupported schema `{schema}`"))
}

fn is_canonical(doc: &JsonValue) -> bool {
    matches!(doc.get("canonical"), Some(JsonValue::Bool(true)))
}

/// Compares every histogram under `key` (e.g. `histograms`) of two
/// algorithm or circuit objects; emits note lines for quantile shifts.
fn diff_hists(base: &JsonValue, cand: &JsonValue, key: &str, scope: &str, notes: &mut Vec<String>) {
    let (Some(JsonValue::Object(b)), Some(JsonValue::Object(c))) = (base.get(key), cand.get(key))
    else {
        return;
    };
    for (hist_name, bh) in b {
        let Some(ch) = c.iter().find(|(k, _)| k == hist_name).map(|(_, v)| v) else {
            continue;
        };
        for q in ["p50", "p90", "p99"] {
            let bv = bh.get(q).and_then(|v| v.as_u64());
            let cv = ch.get(q).and_then(|v| v.as_u64());
            if let (Some(bv), Some(cv)) = (bv, cv) {
                if bv != cv {
                    notes.push(format!("{scope}.{hist_name}.{q}: {bv} -> {cv}"));
                }
            }
        }
    }
}

/// Per-span `(name, self_secs, peak_heap_bytes)` profile of a circuit
/// row, from its job-level `spans` object (in the artifact's name order,
/// so attribution is deterministic).
fn span_profile(row: &JsonValue) -> Vec<(&str, f64, u64)> {
    let Some(JsonValue::Object(pairs)) = row.get("spans") else {
        return Vec::new();
    };
    pairs
        .iter()
        .map(|(name, s)| {
            let self_secs = s.get("self_secs").and_then(as_f64).unwrap_or(0.0);
            let peak = s
                .get("peak_heap_bytes")
                .and_then(|v| v.as_u64())
                .unwrap_or(0);
            (name.as_str(), self_secs, peak)
        })
        .collect()
}

/// Names the span whose self time (or, with `by_peak`, heap peak) grew
/// the most between the two rows, with its own before/after numbers.
/// `None` when no span grew or the candidate carries no spans.
fn attribute(base: &JsonValue, cand: &JsonValue, by_peak: bool) -> Option<String> {
    let bp = span_profile(base);
    let cp = span_profile(cand);
    let mut best: Option<(f64, String)> = None;
    for (name, cw, cpk) in &cp {
        let (bw, bpk) = bp
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, w, p)| (*w, *p))
            .unwrap_or((0.0, 0));
        let delta = if by_peak {
            *cpk as f64 - bpk as f64
        } else {
            cw - bw
        };
        if delta <= 0.0 {
            continue;
        }
        if best.as_ref().is_none_or(|(d, _)| delta > *d) {
            let line = if by_peak {
                format!("`{name}` (peak heap {bpk} -> {cpk} bytes)")
            } else {
                format!("`{name}` (self {} -> {})", fmt_secs(bw), fmt_secs(*cw))
            };
            best = Some((delta, line));
        }
    }
    best.map(|(_, l)| l)
}

/// Per-job peak memory of a circuit row in bytes: the v3 heap ledger
/// for table1 rows, peak RSS for large ingestion rows.
fn row_peak_bytes(row: &JsonValue) -> Option<u64> {
    row.get("job_mem")
        .and_then(|m| m.get("peak_heap_bytes"))
        .and_then(|v| v.as_u64())
        .or_else(|| {
            row.get("peak_rss_kib")
                .and_then(|v| v.as_u64())
                .filter(|&k| k > 0)
                .map(|k| k * 1024)
        })
}

fn diff_circuit(
    name: &str,
    base: &JsonValue,
    cand: &JsonValue,
    opts: &DiffOptions,
    wall_comparable: bool,
    cand_timed: bool,
) -> CircuitDiff {
    let mut notes = Vec::new();
    let mut regressions = Vec::new();

    let bstatus = base.get("status").and_then(|s| s.as_str()).unwrap_or("?");
    let cstatus = cand.get("status").and_then(|s| s.as_str()).unwrap_or("?");
    if bstatus != cstatus {
        let line = format!("status: {bstatus} -> {cstatus}");
        if cstatus != "ok" && opts.quality_gate {
            regressions.push(line.clone());
        }
        notes.push(line);
        // Different status shapes carry different fields; stop here.
        return CircuitDiff {
            name: name.to_string(),
            notes,
            regressions,
        };
    }

    for alg in ALGORITHMS {
        let (Some(b), Some(c)) = (base.get(alg), cand.get(alg)) else {
            continue;
        };
        for field in QUALITY_FIELDS {
            let bv = b.get(field).and_then(|v| v.as_u64());
            let cv = c.get(field).and_then(|v| v.as_u64());
            if let (Some(bv), Some(cv)) = (bv, cv) {
                if bv != cv {
                    let line = format!("{alg}.{field}: {bv} -> {cv}");
                    if cv > bv && opts.quality_gate {
                        regressions.push(line.clone());
                    }
                    notes.push(line);
                }
            }
        }
        let star = |row: &JsonValue| match row.get("star") {
            Some(JsonValue::Bool(star)) => Some(*star),
            _ => None,
        };
        if let (Some(bs), Some(cs)) = (star(b), star(c)) {
            if bs != cs {
                let line = format!("{alg}.star: {bs} -> {cs}");
                if cs && opts.quality_gate {
                    regressions.push(line.clone());
                }
                notes.push(line);
            }
        }
        diff_hists(b, c, "histograms", alg, &mut notes);
    }
    // Ingestion-row structural fields (large family; absent on table1
    // rows). Exact match required in both directions.
    for field in STRUCT_FIELDS {
        let bv = base.get(field).and_then(|v| v.as_u64());
        let cv = cand.get(field).and_then(|v| v.as_u64());
        if let (Some(bv), Some(cv)) = (bv, cv) {
            if bv != cv {
                let line = format!("{field}: {bv} -> {cv}");
                if opts.quality_gate {
                    regressions.push(line.clone());
                }
                notes.push(line);
            }
        }
    }
    diff_hists(base, cand, "job_histograms", "job", &mut notes);

    let bwall = base.get("wall_secs").and_then(as_f64);
    let cwall = cand.get("wall_secs").and_then(as_f64);
    if let (Some(bw), Some(cw)) = (bwall, cwall) {
        if wall_comparable && bw > 0.0 {
            let ratio = cw / bw;
            if (ratio - 1.0).abs() > 1e-9 {
                let mut line = format!(
                    "wall: {} -> {} ({:+.1}%)",
                    fmt_secs(bw),
                    fmt_secs(cw),
                    (ratio - 1.0) * 100.0
                );
                if ratio > 1.0 + opts.wall_threshold {
                    if let Some(attr) = attribute(base, cand, false) {
                        line = format!("{line}; attributed to span {attr}");
                    }
                    regressions.push(line.clone());
                }
                notes.push(line);
            }
        }
    }

    if let Some(mem_threshold) = opts.mem_threshold {
        // wall_comparable doubles as the memory-comparability condition:
        // both gates need two non-canonical artifacts.
        if let (true, Some(bp), Some(cp)) =
            (wall_comparable, row_peak_bytes(base), row_peak_bytes(cand))
        {
            if bp > 0 {
                let ratio = cp as f64 / bp as f64;
                if (ratio - 1.0).abs() > 1e-9 {
                    let mut line = format!(
                        "mem: peak {bp} -> {cp} bytes ({:+.1}%)",
                        (ratio - 1.0) * 100.0
                    );
                    if ratio > 1.0 + mem_threshold {
                        if let Some(attr) = attribute(base, cand, true) {
                            line = format!("{line}; attributed to span {attr}");
                        }
                        regressions.push(line.clone());
                    }
                    notes.push(line);
                }
            }
        }
    }

    if let Some(min) = opts.verify_speedup {
        // Candidate-only gate: the speedup ratio compares the two
        // engines on the same machine and run, so a canonical baseline
        // doesn't block it — only a canonical (zero-timing) candidate.
        let cv = cand.get("verify_secs").and_then(as_f64);
        let cs = cand.get("verify_scalar_secs").and_then(as_f64);
        if let (true, Some(cv), Some(cs)) = (cand_timed, cv, cs) {
            if cv > 0.0 && cs > 0.0 {
                let ratio = cs / cv;
                let line = format!(
                    "verify speedup: {:.1}x (scalar {} / vector {}; floor {min:.1}x)",
                    ratio,
                    fmt_secs(cs),
                    fmt_secs(cv)
                );
                if ratio < min {
                    regressions.push(line.clone());
                }
                notes.push(line);
            }
        }
    }

    CircuitDiff {
        name: name.to_string(),
        notes,
        regressions,
    }
}

/// Diffs two parsed artifacts.
///
/// # Errors
///
/// Returns a message when either document is not a table1 artifact.
pub fn diff_artifacts(
    base: &JsonValue,
    cand: &JsonValue,
    opts: &DiffOptions,
) -> Result<DiffReport, String> {
    let base_family = check_schema(base, "baseline")?;
    let cand_family = check_schema(cand, "candidate")?;
    if base_family != cand_family {
        return Err(format!(
            "artifact families differ: baseline is `{base_family}`, candidate is `{cand_family}`"
        ));
    }
    let cand_timed = !is_canonical(cand);
    let wall_comparable = !is_canonical(base) && cand_timed;
    let base_map = circuit_map(base)?;
    let cand_map = circuit_map(cand)?;

    let mut names: Vec<String> = base_map.iter().map(|(n, _)| n.clone()).collect();
    for (n, _) in &cand_map {
        if !names.contains(n) {
            names.push(n.clone());
        }
    }
    names.sort();

    let mut circuits = Vec::new();
    let mut regressions = Vec::new();
    for name in &names {
        let b = base_map.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        let c = cand_map.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        let diff = match (b, c) {
            (Some(b), Some(c)) => diff_circuit(name, b, c, opts, wall_comparable, cand_timed),
            (Some(_), None) => CircuitDiff {
                name: name.clone(),
                notes: vec!["missing from candidate".into()],
                regressions: if opts.quality_gate {
                    vec!["missing from candidate".into()]
                } else {
                    Vec::new()
                },
            },
            (None, Some(_)) => CircuitDiff {
                name: name.clone(),
                notes: vec!["new in candidate".into()],
                regressions: Vec::new(),
            },
            (None, None) => unreachable!("name came from one of the maps"),
        };
        for r in &diff.regressions {
            regressions.push(format!("{name}: {r}"));
        }
        circuits.push(diff);
    }
    Ok(DiffReport {
        circuits,
        regressions,
        wall_skipped: !wall_comparable,
        mem_skipped: opts.mem_threshold.is_some() && !wall_comparable,
        verify_skipped: opts.verify_speedup.is_some() && !cand_timed,
    })
}

/// Renders the report (byte-deterministic for a given artifact pair).
pub fn render_report(report: &DiffReport) -> String {
    let mut out = String::new();
    let changed: Vec<&CircuitDiff> = report
        .circuits
        .iter()
        .filter(|c| !c.notes.is_empty())
        .collect();
    out.push_str(&format!(
        "benchdiff: {} circuits compared, {} changed, {} regression(s)\n",
        report.circuits.len(),
        changed.len(),
        report.regressions.len()
    ));
    if report.wall_skipped {
        out.push_str("wall-time gate skipped: canonical artifact (timing zeroed)\n");
    }
    if report.mem_skipped {
        out.push_str("memory gate skipped: canonical artifact (memory omitted)\n");
    }
    if report.verify_skipped {
        out.push_str("verify-speedup gate skipped: canonical candidate (timing zeroed)\n");
    }
    for c in &changed {
        out.push_str(&format!("--- {}\n", c.name));
        for note in &c.notes {
            let marker = if c.regressions.contains(note) {
                "!"
            } else {
                " "
            };
            out.push_str(&format!("  {marker} {note}\n"));
        }
    }
    if report.regressions.is_empty() {
        out.push_str("PASS\n");
    } else {
        out.push_str("FAIL\n");
        for r in &report.regressions {
            out.push_str(&format!("  regression: {r}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(phi: u64, luts: u64, wall: f64, canonical: bool) -> JsonValue {
        let alg = |phi: u64, luts: u64| {
            JsonValue::object(vec![
                ("phi", JsonValue::UInt(phi)),
                ("luts", JsonValue::UInt(luts)),
                (
                    "histograms",
                    JsonValue::object(vec![(
                        "cut_size",
                        JsonValue::object(vec![
                            ("p50", JsonValue::UInt(3)),
                            ("p90", JsonValue::UInt(phi.max(3))),
                            ("p99", JsonValue::UInt(7)),
                        ]),
                    )]),
                ),
            ])
        };
        JsonValue::object(vec![
            ("schema", JsonValue::str("turbomap-bench/table1/v2")),
            ("canonical", JsonValue::Bool(canonical)),
            (
                "circuits",
                JsonValue::Array(vec![JsonValue::object(vec![
                    ("name", JsonValue::str("s27")),
                    ("status", JsonValue::str("ok")),
                    ("flowmap_frt", alg(phi + 1, luts + 2)),
                    ("turbomap", alg(phi, luts)),
                    ("turbomap_frt", alg(phi, luts)),
                    ("wall_secs", JsonValue::Float(wall)),
                ])]),
            ),
        ])
    }

    #[test]
    fn identical_artifacts_pass() {
        let a = artifact(3, 10, 1.0, false);
        let report = diff_artifacts(&a, &a, &DiffOptions::default()).unwrap();
        assert!(report.is_clean());
        let text = render_report(&report);
        assert!(text.contains("0 regression(s)"));
        assert!(text.ends_with("PASS\n"));
        // Byte-deterministic.
        assert_eq!(text, render_report(&report));
    }

    #[test]
    fn quality_regression_gates() {
        let base = artifact(3, 10, 1.0, false);
        let cand = artifact(4, 10, 1.0, false); // Φ worse everywhere
        let report = diff_artifacts(&base, &cand, &DiffOptions::default()).unwrap();
        assert!(!report.is_clean());
        let text = render_report(&report);
        assert!(text.contains("turbomap_frt.phi: 3 -> 4"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
        // Quality improvements do not gate.
        let report = diff_artifacts(&cand, &base, &DiffOptions::default()).unwrap();
        assert!(report.is_clean());
        // Quality gate can be disabled.
        let opts = DiffOptions {
            quality_gate: false,
            ..DiffOptions::default()
        };
        let report = diff_artifacts(&base, &cand, &opts).unwrap();
        assert!(report.is_clean());
    }

    /// A canonical one-row artifact whose TurboMap row has `ffs` FFs and
    /// the given `star`.
    fn ff_artifact(ffs: u64, star: bool) -> JsonValue {
        let alg = format!(r#"{{"phi": 3, "luts": 10, "ffs": {ffs}, "star": {star}}}"#);
        let row = format!(r#"{{"name": "s27", "status": "ok", "turbomap": {alg}}}"#);
        let doc = r#"{"schema": "turbomap-bench/table1/v4", "canonical": true, "circuits": [ROW]}"#;
        JsonValue::parse(&doc.replace("ROW", &row)).unwrap()
    }

    #[test]
    fn ff_regression_gates() {
        let (base, cand) = (ff_artifact(5, false), ff_artifact(7, false));
        let report = diff_artifacts(&base, &cand, &DiffOptions::default()).unwrap();
        assert_eq!(report.regressions, ["s27: turbomap.ffs: 5 -> 7"]);
        // An FF decrease is reported, not gated.
        let report = diff_artifacts(&cand, &base, &DiffOptions::default()).unwrap();
        assert!(report.is_clean(), "{:?}", report.regressions);
        assert!(render_report(&report).contains("turbomap.ffs: 7 -> 5"));
    }

    #[test]
    fn star_turning_true_gates() {
        let (base, cand) = (ff_artifact(5, false), ff_artifact(5, true));
        let report = diff_artifacts(&base, &cand, &DiffOptions::default()).unwrap();
        assert_eq!(report.regressions, ["s27: turbomap.star: false -> true"]);
        // A star that goes away is reported, not gated.
        let report = diff_artifacts(&cand, &base, &DiffOptions::default()).unwrap();
        assert!(report.is_clean(), "{:?}", report.regressions);
        assert!(render_report(&report).contains("turbomap.star: true -> false"));
    }

    #[test]
    fn wall_regression_gates_past_threshold() {
        let base = artifact(3, 10, 1.0, false);
        let slow = artifact(3, 10, 1.5, false); // +50% > default 25%
        let report = diff_artifacts(&base, &slow, &DiffOptions::default()).unwrap();
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].contains("wall"), "{report:?}");
        // A row without spans has nothing to attribute the regression to.
        assert!(!report.regressions[0].contains("attributed"), "{report:?}");
        // Within threshold: reported but not gated.
        let ok = artifact(3, 10, 1.1, false);
        let report = diff_artifacts(&base, &ok, &DiffOptions::default()).unwrap();
        assert!(report.is_clean());
        assert!(!report.circuits[0].notes.is_empty());
        // Custom threshold.
        let opts = DiffOptions {
            wall_threshold: 0.05,
            ..DiffOptions::default()
        };
        let report = diff_artifacts(&base, &ok, &opts).unwrap();
        assert!(!report.is_clean());
    }

    #[test]
    fn canonical_artifacts_skip_wall_gate() {
        let base = artifact(3, 10, 0.0, true);
        let cand = artifact(3, 10, 0.0, true);
        let report = diff_artifacts(&base, &cand, &DiffOptions::default()).unwrap();
        assert!(report.is_clean());
        assert!(report.wall_skipped);
        assert!(render_report(&report).contains("wall-time gate skipped"));
    }

    #[test]
    fn missing_circuit_is_a_regression_and_schema_checked() {
        let base = artifact(3, 10, 1.0, false);
        let mut cand = artifact(3, 10, 1.0, false);
        if let JsonValue::Object(pairs) = &mut cand {
            for (k, v) in pairs.iter_mut() {
                if k == "circuits" {
                    *v = JsonValue::Array(Vec::new());
                }
            }
        }
        let report = diff_artifacts(&base, &cand, &DiffOptions::default()).unwrap();
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].contains("missing from candidate"));

        let bogus = JsonValue::object(vec![("schema", JsonValue::str("other/v9"))]);
        assert!(diff_artifacts(&bogus, &base, &DiffOptions::default()).is_err());
    }

    fn large_artifact(gates: u64, bytes: u64, wall: f64) -> JsonValue {
        JsonValue::object(vec![
            ("schema", JsonValue::str("turbomap-bench/large/v1")),
            ("canonical", JsonValue::Bool(false)),
            (
                "circuits",
                JsonValue::Array(vec![JsonValue::object(vec![
                    ("name", JsonValue::str("hier100k")),
                    ("status", JsonValue::str("ok")),
                    ("file_bytes", JsonValue::UInt(bytes)),
                    ("models", JsonValue::UInt(6)),
                    ("gates", JsonValue::UInt(gates)),
                    ("ffs", JsonValue::UInt(768)),
                    ("pis", JsonValue::UInt(32)),
                    ("pos", JsonValue::UInt(32)),
                    ("wall_secs", JsonValue::Float(wall)),
                ])]),
            ),
        ])
    }

    /// A `large/v3` row with the verify-phase fields.
    fn large_v3_artifact(canonical: bool, verify: f64, scalar: f64) -> JsonValue {
        let z = |v: f64| JsonValue::Float(if canonical { 0.0 } else { v });
        JsonValue::object(vec![
            ("schema", JsonValue::str("turbomap-bench/large/v3")),
            ("canonical", JsonValue::Bool(canonical)),
            (
                "circuits",
                JsonValue::Array(vec![JsonValue::object(vec![
                    ("name", JsonValue::str("hier100k")),
                    ("status", JsonValue::str("ok")),
                    ("file_bytes", JsonValue::UInt(509325)),
                    ("models", JsonValue::UInt(6)),
                    ("gates", JsonValue::UInt(99136)),
                    ("ffs", JsonValue::UInt(768)),
                    ("pis", JsonValue::UInt(32)),
                    ("pos", JsonValue::UInt(32)),
                    ("verify_lanes", JsonValue::UInt(64)),
                    ("verify_cycles", JsonValue::UInt(16)),
                    ("parse_secs", z(0.3)),
                    ("verify_secs", z(verify)),
                    ("verify_scalar_secs", z(scalar)),
                    ("wall_secs", z(1.0 + verify)),
                ])]),
            ),
        ])
    }

    #[test]
    fn verify_speedup_gate_needs_only_a_timed_candidate() {
        let opts = DiffOptions {
            verify_speedup: Some(2.0),
            ..DiffOptions::default()
        };
        // Canonical baseline (the checked-in artifact) + timed
        // candidate: the gate still runs — the ratio is machine-local.
        let base = large_v3_artifact(true, 0.0, 0.0);
        let fast = large_v3_artifact(false, 0.01, 0.6); // 60x
        let report = diff_artifacts(&base, &fast, &opts).unwrap();
        assert!(report.is_clean(), "{:?}", report.regressions);
        assert!(!report.verify_skipped);
        assert!(report.circuits[0]
            .notes
            .iter()
            .any(|n| n.contains("verify speedup: 60.0x")));

        // A candidate whose vector engine lost its edge gates.
        let slow = large_v3_artifact(false, 0.5, 0.6); // 1.2x < 2.0 floor
        let report = diff_artifacts(&base, &slow, &opts).unwrap();
        assert_eq!(report.regressions.len(), 1);
        assert!(
            report.regressions[0].contains("verify speedup: 1.2x"),
            "{:?}",
            report.regressions
        );

        // Canonical candidate: gate skipped, and says so.
        let report = diff_artifacts(&base, &base, &opts).unwrap();
        assert!(report.is_clean());
        assert!(report.verify_skipped);
        assert!(render_report(&report).contains("verify-speedup gate skipped"));

        // Gate off by default even with timed rows.
        let report = diff_artifacts(&base, &slow, &DiffOptions::default()).unwrap();
        assert!(report.is_clean());
    }

    #[test]
    fn verify_shape_drift_is_structural() {
        let base = large_v3_artifact(true, 0.0, 0.0);
        let mut cand = large_v3_artifact(true, 0.0, 0.0);
        // Mutate verify_cycles: deterministic per preset, so any drift
        // (here 16 -> 8) must gate even between canonical artifacts.
        if let JsonValue::Object(pairs) = &mut cand {
            for (k, v) in pairs.iter_mut() {
                if k != "circuits" {
                    continue;
                }
                if let JsonValue::Array(rows) = v {
                    if let JsonValue::Object(row) = &mut rows[0] {
                        for (rk, rv) in row.iter_mut() {
                            if rk == "verify_cycles" {
                                *rv = JsonValue::UInt(8);
                            }
                        }
                    }
                }
            }
        }
        let report = diff_artifacts(&base, &cand, &DiffOptions::default()).unwrap();
        assert_eq!(report.regressions.len(), 1);
        assert!(
            report.regressions[0].contains("verify_cycles: 16 -> 8"),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn large_structural_drift_gates_both_directions() {
        let base = large_artifact(99136, 509325, 1.0);
        let report = diff_artifacts(&base, &base, &DiffOptions::default()).unwrap();
        assert!(report.is_clean());
        // Gate count *down* still gates: structural fields are exact.
        let cand = large_artifact(99000, 509325, 1.0);
        let report = diff_artifacts(&base, &cand, &DiffOptions::default()).unwrap();
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].contains("gates: 99136 -> 99000"));
        // File size drift gates too.
        let cand = large_artifact(99136, 509326, 1.0);
        let report = diff_artifacts(&base, &cand, &DiffOptions::default()).unwrap();
        assert!(!report.is_clean());
        // Wall-time still uses the threshold, not exact match.
        let cand = large_artifact(99136, 509325, 1.1);
        let report = diff_artifacts(&base, &cand, &DiffOptions::default()).unwrap();
        assert!(report.is_clean());
        assert!(!report.circuits[0].notes.is_empty());
        // The v6 mapping results are exact too: fewer LUTs still gates.
        let mapped = |luts: u64| {
            let text = base.render().replace(
                "\"pos\":32",
                &format!("\"pos\":32,\"mapped_phi\":6,\"mapped_luts\":{luts}"),
            );
            JsonValue::parse(&text).unwrap()
        };
        let report = diff_artifacts(&mapped(8123), &mapped(8000), &DiffOptions::default()).unwrap();
        assert_eq!(report.regressions, ["hier100k: mapped_luts: 8123 -> 8000"]);
    }

    /// A v4-shaped artifact: one circuit with a job-level memory ledger
    /// and a three-span breakdown (`turbomap_frt` enclosing
    /// `frtcheck_sweep` — the LabelUpdate sweeps — and `min_cut`).
    fn mem_artifact(wall: f64, sweep_self: f64, peak: u64, sweep_peak: u64) -> JsonValue {
        let span = |wall: f64, self_secs: f64, peak: u64| {
            JsonValue::object(vec![
                ("count", JsonValue::UInt(3)),
                ("wall_secs", JsonValue::Float(wall)),
                ("self_secs", JsonValue::Float(self_secs)),
                ("peak_heap_bytes", JsonValue::UInt(peak)),
                ("allocs", JsonValue::UInt(50)),
                ("alloc_bytes", JsonValue::UInt(peak * 2)),
            ])
        };
        JsonValue::object(vec![
            ("schema", JsonValue::str("turbomap-bench/table1/v4")),
            ("canonical", JsonValue::Bool(false)),
            (
                "circuits",
                JsonValue::Array(vec![JsonValue::object(vec![
                    ("name", JsonValue::str("s27")),
                    ("status", JsonValue::str("ok")),
                    ("wall_secs", JsonValue::Float(wall)),
                    (
                        "spans",
                        JsonValue::object(vec![
                            ("frtcheck_sweep", span(sweep_self, sweep_self, sweep_peak)),
                            ("min_cut", span(0.2, 0.2, 4_000)),
                            ("turbomap_frt", span(wall - 0.1, 0.1, peak)),
                        ]),
                    ),
                    (
                        "job_mem",
                        JsonValue::object(vec![
                            ("peak_heap_bytes", JsonValue::UInt(peak)),
                            ("allocs", JsonValue::UInt(60)),
                            ("frees", JsonValue::UInt(60)),
                            ("alloc_bytes", JsonValue::UInt(peak * 3)),
                            ("free_bytes", JsonValue::UInt(peak * 3)),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn wall_regression_names_the_inflated_span() {
        // The acceptance scenario: the LabelUpdate sweep's self time
        // doubles (0.7s -> 1.4s), dragging the job from 1.0s to 1.7s. The
        // gate must not just flag the circuit — it must name
        // `frtcheck_sweep`, not `turbomap_frt`, whose wall grew as much
        // but whose self time did not move.
        let base = mem_artifact(1.0, 0.7, 10_000, 8_000);
        let cand = mem_artifact(1.7, 1.4, 10_000, 8_000);
        let report = diff_artifacts(&base, &cand, &DiffOptions::default()).unwrap();
        assert_eq!(report.regressions.len(), 1);
        let r = &report.regressions[0];
        assert!(
            r.contains("attributed to span `frtcheck_sweep` (self 0.7000s -> 1.4000s)"),
            "{r}"
        );
        assert!(render_report(&report).contains("frtcheck_sweep"));
    }

    #[test]
    fn mem_gate_fires_past_threshold_and_names_the_span() {
        let base = mem_artifact(1.0, 0.7, 10_000, 8_000);
        let bloated = mem_artifact(1.0, 0.7, 20_000, 18_000);
        // Off by default: peak doubling is note-worthy only when asked.
        let report = diff_artifacts(&base, &bloated, &DiffOptions::default()).unwrap();
        assert!(report.is_clean());
        // With the gate on, +100% > 25% fails and names the span whose
        // peak grew the most.
        let opts = DiffOptions {
            mem_threshold: Some(0.25),
            ..DiffOptions::default()
        };
        let report = diff_artifacts(&base, &bloated, &opts).unwrap();
        assert_eq!(report.regressions.len(), 1);
        let r = &report.regressions[0];
        assert!(
            r.contains("mem: peak 10000 -> 20000 bytes (+100.0%)"),
            "{r}"
        );
        assert!(
            r.contains("attributed to span `frtcheck_sweep` (peak heap 8000 -> 18000 bytes)"),
            "{r}"
        );
        // Within threshold: reported but not gated.
        let ok = mem_artifact(1.0, 0.7, 11_000, 8_800);
        let report = diff_artifacts(&base, &ok, &opts).unwrap();
        assert!(report.is_clean());
        assert!(report.circuits[0]
            .notes
            .iter()
            .any(|n| n.starts_with("mem: peak")));
    }

    #[test]
    fn mem_gate_skipped_on_canonical_artifacts() {
        let base = artifact(3, 10, 0.0, true);
        let opts = DiffOptions {
            mem_threshold: Some(0.25),
            ..DiffOptions::default()
        };
        let report = diff_artifacts(&base, &base, &opts).unwrap();
        assert!(report.is_clean());
        assert!(report.mem_skipped);
        assert!(render_report(&report).contains("memory gate skipped"));
        // Not flagged as skipped when the gate was never requested.
        let report = diff_artifacts(&base, &base, &DiffOptions::default()).unwrap();
        assert!(!report.mem_skipped);
    }

    #[test]
    fn mem_gate_uses_peak_rss_on_large_rows() {
        let with_rss = |kib: u64| {
            let mut a = large_artifact(99136, 509325, 1.0);
            if let JsonValue::Object(pairs) = &mut a {
                for (k, v) in pairs.iter_mut() {
                    if k == "circuits" {
                        if let JsonValue::Array(rows) = v {
                            if let JsonValue::Object(row) = &mut rows[0] {
                                row.push(("peak_rss_kib".into(), JsonValue::UInt(kib)));
                            }
                        }
                    }
                }
            }
            a
        };
        let opts = DiffOptions {
            mem_threshold: Some(0.25),
            ..DiffOptions::default()
        };
        let report = diff_artifacts(&with_rss(1000), &with_rss(2000), &opts).unwrap();
        assert_eq!(report.regressions.len(), 1);
        assert!(
            report.regressions[0].contains("mem: peak 1024000 -> 2048000 bytes"),
            "{:?}",
            report.regressions
        );
        // A zero probe (unavailable) never gates.
        let report = diff_artifacts(&with_rss(0), &with_rss(2000), &opts).unwrap();
        assert!(report.is_clean());
    }

    #[test]
    fn family_mismatch_is_an_error() {
        let t1 = artifact(3, 10, 1.0, false);
        let lg = large_artifact(99136, 509325, 1.0);
        let err = diff_artifacts(&t1, &lg, &DiffOptions::default()).unwrap_err();
        assert!(err.contains("families differ"), "{err}");
    }
}
