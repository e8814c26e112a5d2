//! The versioned `BENCH_table1.json` artifact.
//!
//! Schema `turbomap-bench/table1/v4` — see DESIGN.md for the
//! field-by-field description. Objects render with insertion-ordered
//! keys via [`engine::JsonValue`], so the artifact is byte-deterministic
//! for a given suite result. The `canonical` flag zeroes every timing
//! field (wall seconds, cpu seconds) and
//! **omits** the `spans` and memory objects (timing and heap behaviour
//! are scheduling- and allocator-dependent) while keeping the
//! deterministic algorithmic counters and value histograms; two runs
//! that differ only in scheduling (`--jobs 1` vs `--jobs 8`) — or in
//! whether tracing or memory accounting was enabled — produce
//! **byte-identical** canonical artifacts.
//!
//! `v4` replaced `v3`'s four per-phase objects (phase timers and memory
//! breakdowns, per algorithm and per job) with one `spans` object per
//! algorithm and per job, read from the span table: for each span name, its count,
//! wall and self seconds, and — with memory accounting on — its
//! allocations and within-span heap peak. Consumers check the schema
//! prefix `turbomap-bench/table1/`.

use crate::{geomean, Measured, Row};
use engine::hist::{Histogram, HIST_NAMES, NUM_HISTS};
use engine::mem::MemStats;
use engine::telemetry::{SpanTable, Telemetry, COUNTER_NAMES, NUM_COUNTERS};
use engine::{JobOutcome, JobReport, JsonValue};

/// Artifact schema identifier (bump on breaking changes).
pub const SCHEMA: &str = "turbomap-bench/table1/v4";

/// Schema of the large-workload artifact (`v2` added the optional
/// `peak_rss_kib` field; `v3` added the vectorized verify phase —
/// `verify_lanes`/`verify_cycles` structural fields, the
/// `verify_secs`/`verify_scalar_secs` timings, and a per-phase wall
/// breakdown; `v4` added optional partitioned-mapping fields; `v5`
/// replaced the per-phase breakdown with the row's `spans` object,
/// read from the span table like the Table-1 artifact's; `v6` maps
/// every row monolithically with TurboMap-frt — structural
/// `mapped_phi`/`mapped_luts`/`mapped_ffs`, exact-gated by benchdiff,
/// and the `map_secs` timing replace the partition fields).
pub const LARGE_SCHEMA: &str = "turbomap-bench/large/v6";

fn secs(value: f64, canonical: bool) -> JsonValue {
    JsonValue::Float(if canonical { 0.0 } else { value })
}

fn counters_json(t: &Telemetry) -> JsonValue {
    JsonValue::Object(
        (0..NUM_COUNTERS)
            .map(|i| (COUNTER_NAMES[i].to_string(), JsonValue::UInt(t.counters[i])))
            .collect(),
    )
}

fn hist_json(h: &Histogram) -> JsonValue {
    JsonValue::object(vec![
        ("count", JsonValue::UInt(h.count)),
        ("sum", JsonValue::UInt(h.sum)),
        ("p50", JsonValue::UInt(h.quantile(0.5).unwrap_or(0))),
        ("p90", JsonValue::UInt(h.quantile(0.9).unwrap_or(0))),
        ("p99", JsonValue::UInt(h.quantile(0.99).unwrap_or(0))),
        (
            "buckets",
            JsonValue::Array(
                h.nonzero_buckets()
                    .into_iter()
                    .map(|(i, c)| {
                        JsonValue::Array(vec![JsonValue::UInt(i as u64), JsonValue::UInt(c)])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The telemetry's non-empty histograms, or `None` when all are empty
/// (the `histograms` field is optional in the `v2` schema). Every
/// histogram holds values, not timings, so canonical artifacts keep
/// them all.
fn hists_json(t: &Telemetry) -> Option<JsonValue> {
    let pairs: Vec<(String, JsonValue)> = (0..NUM_HISTS)
        .filter(|&i| !t.hists[i].is_empty())
        .map(|i| (HIST_NAMES[i].to_string(), hist_json(&t.hists[i])))
        .collect();
    if pairs.is_empty() {
        None
    } else {
        Some(JsonValue::Object(pairs))
    }
}

/// The `spans` object: for each span name (sorted), its count, wall and
/// self seconds, plus its heap numbers when accounting recorded any.
/// `None` when canonical (timings are not scheduling-deterministic) or
/// when no span closed.
fn spans_json(spans: &SpanTable, canonical: bool) -> Option<JsonValue> {
    if canonical || spans.is_empty() {
        return None;
    }
    let pairs = spans
        .sorted()
        .into_iter()
        .map(|(name, s)| {
            let mut fields = vec![
                ("count", JsonValue::UInt(s.count)),
                ("wall_secs", JsonValue::Float(s.wall_secs())),
                ("self_secs", JsonValue::Float(s.self_secs())),
            ];
            if s.allocs > 0 || s.peak_bytes > 0 {
                fields.extend([
                    ("peak_heap_bytes", JsonValue::UInt(s.peak_bytes)),
                    ("allocs", JsonValue::UInt(s.allocs)),
                    ("alloc_bytes", JsonValue::UInt(s.alloc_bytes)),
                ]);
            }
            (name.to_string(), JsonValue::object(fields))
        })
        .collect();
    Some(JsonValue::Object(pairs))
}

/// The job-level allocation ledger; `None` when canonical or when
/// accounting never recorded.
fn job_mem_json(mem: &MemStats, canonical: bool) -> Option<JsonValue> {
    if canonical || mem.is_empty() {
        return None;
    }
    Some(JsonValue::object(vec![
        ("peak_heap_bytes", JsonValue::UInt(mem.peak_bytes)),
        ("allocs", JsonValue::UInt(mem.allocs)),
        ("frees", JsonValue::UInt(mem.frees)),
        ("alloc_bytes", JsonValue::UInt(mem.alloc_bytes)),
        ("free_bytes", JsonValue::UInt(mem.free_bytes)),
    ]))
}

fn measured_json(m: &Measured, canonical: bool) -> JsonValue {
    let mut pairs = vec![
        ("phi", JsonValue::UInt(m.phi)),
        ("luts", JsonValue::UInt(m.luts as u64)),
        ("ffs", JsonValue::UInt(m.ffs as u64)),
        ("star", JsonValue::Bool(m.star)),
        ("verified", JsonValue::Bool(m.verified)),
        ("cpu_secs", secs(m.cpu, canonical)),
        ("counters", counters_json(&m.telemetry)),
    ];
    if let Some(h) = hists_json(&m.telemetry) {
        pairs.push(("histograms", h));
    }
    if let Some(sp) = spans_json(&m.telemetry.spans, canonical) {
        pairs.push(("spans", sp));
    }
    JsonValue::object(pairs)
}

fn row_json(row: &Row, canonical: bool) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("n", JsonValue::UInt(row.n as u64)),
        ("f", JsonValue::UInt(row.f as u64)),
        ("best_valid_phi", JsonValue::UInt(row.best_valid_phi())),
        ("flowmap_frt", measured_json(&row.flowmap_frt, canonical)),
        ("turbomap", measured_json(&row.turbomap, canonical)),
        ("turbomap_frt", measured_json(&row.turbomap_frt, canonical)),
        (
            "frt_iterations",
            JsonValue::Array(
                row.frt_iterations
                    .iter()
                    .map(|&(phi, sweeps)| {
                        JsonValue::object(vec![
                            ("phi", JsonValue::UInt(phi)),
                            ("sweeps", JsonValue::UInt(sweeps as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]
}

fn circuit_json(report: &JobReport<Row>, canonical: bool) -> JsonValue {
    let mut pairs = vec![
        ("name", JsonValue::str(report.name.clone())),
        ("status", JsonValue::str(report.outcome.status())),
    ];
    match &report.outcome {
        JobOutcome::Completed(row) => pairs.extend(row_json(row, canonical)),
        JobOutcome::Failed(e) => pairs.push(("error", JsonValue::str(e.clone()))),
        JobOutcome::Panicked(msg) => pairs.push(("error", JsonValue::str(msg.clone()))),
        JobOutcome::DeadlineExceeded { limit } => {
            pairs.push(("timeout_secs", JsonValue::Float(limit.as_secs_f64())))
        }
    }
    pairs.push(("wall_secs", secs(report.wall.as_secs_f64(), canonical)));
    pairs.push(("job_counters", counters_json(&report.telemetry)));
    if let Some(h) = hists_json(&report.telemetry) {
        pairs.push(("job_histograms", h));
    }
    if let Some(sp) = spans_json(&report.telemetry.spans, canonical) {
        pairs.push(("spans", sp));
    }
    if let Some(jm) = job_mem_json(&report.telemetry.mem, canonical) {
        pairs.push(("job_mem", jm));
    }
    JsonValue::object(pairs)
}

fn geomean_json(rows: &[&Row], canonical: bool) -> JsonValue {
    let gm = |f: &dyn Fn(&Row) -> f64| geomean(rows.iter().map(|r| f(r)));
    let alg = |m: &dyn Fn(&Row) -> Measured| {
        let phi = gm(&|r| m(r).phi as f64);
        let luts = gm(&|r| m(r).luts as f64);
        let ffs = gm(&|r| m(r).ffs as f64);
        let cpu = if canonical { 0.0 } else { gm(&|r| m(r).cpu) };
        JsonValue::object(vec![
            ("phi", JsonValue::Float(phi)),
            ("luts", JsonValue::Float(luts)),
            ("ffs", JsonValue::Float(ffs)),
            ("cpu_secs", JsonValue::Float(cpu)),
        ])
    };
    JsonValue::object(vec![
        ("flowmap_frt", alg(&|r| r.flowmap_frt)),
        ("turbomap", alg(&|r| r.turbomap)),
        ("turbomap_frt", alg(&|r| r.turbomap_frt)),
        (
            "best_valid_phi",
            JsonValue::Float(gm(&|r| r.best_valid_phi() as f64)),
        ),
    ])
}

/// Builds the full artifact for one suite run.
///
/// `canonical` zeroes every timing field so the rendering depends only
/// on the algorithmic results (the `--jobs`-independence guarantee).
pub fn table1_json(
    reports: &[JobReport<Row>],
    k: usize,
    verify_vectors: usize,
    canonical: bool,
) -> JsonValue {
    let completed: Vec<&Row> = reports
        .iter()
        .filter_map(|r| r.outcome.completed())
        .collect();
    let stars = completed.iter().filter(|r| r.turbomap.star).count();
    let failures: Vec<JsonValue> = reports
        .iter()
        .filter(|r| !r.outcome.is_completed())
        .map(|r| {
            JsonValue::object(vec![
                ("name", JsonValue::str(r.name.clone())),
                ("status", JsonValue::str(r.outcome.status())),
            ])
        })
        .collect();
    JsonValue::object(vec![
        ("schema", JsonValue::str(SCHEMA)),
        ("k", JsonValue::UInt(k as u64)),
        ("verify_vectors", JsonValue::UInt(verify_vectors as u64)),
        ("canonical", JsonValue::Bool(canonical)),
        (
            "circuits",
            JsonValue::Array(reports.iter().map(|r| circuit_json(r, canonical)).collect()),
        ),
        (
            "summary",
            JsonValue::object(vec![
                ("total", JsonValue::UInt(reports.len() as u64)),
                ("completed", JsonValue::UInt(completed.len() as u64)),
                ("turbomap_stars", JsonValue::UInt(stars as u64)),
                ("failures", JsonValue::Array(failures)),
                ("geomean", geomean_json(&completed, canonical)),
            ]),
        ),
    ])
}

/// Builds the [`LARGE_SCHEMA`] artifact.
///
/// The structural fields (`file_bytes`, `models`, `gates`, `ffs`,
/// `pis`, `pos`, the verify shape and the `mapped_*` results) are
/// deterministic per preset; `benchdiff` compares them exactly, so
/// *any* drift gates. `canonical` zeroes the timing fields
/// (`*_secs`, `peak_rss_kib`) like the Table-1 artifact.
pub fn large_json(rows: &[crate::large::IngestRow], canonical: bool) -> JsonValue {
    JsonValue::object(vec![
        ("schema", JsonValue::str(LARGE_SCHEMA)),
        ("canonical", JsonValue::Bool(canonical)),
        (
            "circuits",
            JsonValue::Array(
                rows.iter()
                    .map(|r| {
                        let m = &r.mapped;
                        let mut pairs = vec![
                            ("name", JsonValue::str(r.name.clone())),
                            ("status", JsonValue::str("ok")),
                            ("file_bytes", JsonValue::UInt(r.file_bytes)),
                            ("models", JsonValue::UInt(r.models as u64)),
                            ("gates", JsonValue::UInt(r.gates as u64)),
                            ("ffs", JsonValue::UInt(r.ffs as u64)),
                            ("pis", JsonValue::UInt(r.pis as u64)),
                            ("pos", JsonValue::UInt(r.pos as u64)),
                            ("verify_lanes", JsonValue::UInt(r.verify_lanes as u64)),
                            ("verify_cycles", JsonValue::UInt(r.verify_cycles as u64)),
                            ("parse_secs", secs(r.parse_secs, canonical)),
                            ("verify_secs", secs(r.verify_secs, canonical)),
                            ("verify_scalar_secs", secs(r.verify_scalar_secs, canonical)),
                            (
                                "wall_secs",
                                secs(r.total_secs + r.verify_secs + m.map_secs, canonical),
                            ),
                            (
                                "peak_rss_kib",
                                JsonValue::UInt(if canonical { 0 } else { r.peak_rss_kib }),
                            ),
                            ("mapped_phi", JsonValue::UInt(m.phi)),
                            ("mapped_luts", JsonValue::UInt(m.luts as u64)),
                            ("mapped_ffs", JsonValue::UInt(m.ffs as u64)),
                            ("map_secs", secs(m.map_secs, canonical)),
                        ];
                        if let Some(sp) = spans_json(&r.spans, canonical) {
                            pairs.push(("spans", sp));
                        }
                        JsonValue::object(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "summary",
            JsonValue::object(vec![
                ("total", JsonValue::UInt(rows.len() as u64)),
                (
                    "gates",
                    JsonValue::UInt(rows.iter().map(|r| r.gates as u64).sum()),
                ),
                (
                    "ffs",
                    JsonValue::UInt(rows.iter().map(|r| r.ffs as u64).sum()),
                ),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::hist::Metric;
    use engine::telemetry::Telemetry;
    use std::time::Duration;

    fn fake_measured(phi: u64) -> Measured {
        let mut t = Telemetry::default();
        t.counters[0] = 42;
        for v in [2u64, 3, 3, 5] {
            t.hists[Metric::CutSize as usize].record(v);
        }
        // Memory accounting that canonical artifacts must omit.
        t.mem.allocs = 11;
        t.mem.alloc_bytes = 2_222;
        t.mem.peak_bytes = 1_111;
        // Spans (with heap numbers) that canonical artifacts must omit.
        t.spans.add(
            "turbomap_frt",
            &engine::SpanStats {
                count: 1,
                wall_nanos: 1_500_000_000,
                self_nanos: 800_000_000,
                ..engine::SpanStats::ZERO
            },
        );
        t.spans.add(
            "frtcheck_sweep",
            &engine::SpanStats {
                count: 3,
                wall_nanos: 700_000_000,
                self_nanos: 700_000_000,
                allocs: 9,
                alloc_bytes: 2_000,
                peak_bytes: 999,
            },
        );
        Measured {
            phi,
            luts: 10,
            ffs: 4,
            cpu: 1.5,
            star: false,
            verified: true,
            telemetry: t,
        }
    }

    fn fake_report(name: &str) -> JobReport<Row> {
        let row = Row {
            name: name.into(),
            n: 20,
            f: 5,
            flowmap_frt: fake_measured(7),
            turbomap: fake_measured(5),
            turbomap_frt: fake_measured(6),
            frt_iterations: vec![(6, 3)],
        };
        JobReport {
            name: name.into(),
            outcome: JobOutcome::Completed(row),
            wall: Duration::from_millis(1234),
            telemetry: Telemetry::default(),
            trace: None,
        }
    }

    #[test]
    fn canonical_artifact_has_no_timing() {
        let reports = vec![fake_report("a")];
        let text = table1_json(&reports, 5, 3008, true).render_pretty();
        assert!(text.contains("\"schema\": \"turbomap-bench/table1/v4\""));
        assert!(text.contains("\"cpu_secs\": 0.0"));
        assert!(!text.contains("1.5"), "timing leaked: {text}");
        // Counters survive canonicalisation.
        assert!(text.contains("\"flow_augmentations\": 42"));
        // Value histograms survive.
        assert!(text.contains("\"cut_size\""));
        // Spans and memory are omitted wholesale in canonical mode, so
        // tracing- and accounting-on and -off runs stay byte-identical.
        assert!(!text.contains("spans"), "spans leaked: {text}");
        assert!(!text.contains("job_mem"), "mem leaked: {text}");
    }

    #[test]
    fn non_canonical_artifact_carries_spans_and_mem() {
        let mut reports = vec![fake_report("a")];
        reports[0].telemetry = fake_measured(5).telemetry;
        let text = table1_json(&reports, 5, 3008, false).render();
        // Per-algorithm spans sorted by name; heap numbers only on the
        // span that recorded some.
        assert!(text.contains(
            "\"spans\":{\"frtcheck_sweep\":{\"count\":3,\"wall_secs\":0.7,\
             \"self_secs\":0.7,\"peak_heap_bytes\":999,\"allocs\":9,\"alloc_bytes\":2000},\
             \"turbomap_frt\":{\"count\":1,\"wall_secs\":1.5,\"self_secs\":0.8}}"
        ));
        // The job-level spans object plus the allocation ledger.
        assert_eq!(text.matches("\"spans\"").count(), 4, "3 algorithms + 1 job");
        assert!(text.contains(
            "\"job_mem\":{\"peak_heap_bytes\":1111,\"allocs\":11,\"frees\":0,\
             \"alloc_bytes\":2222,\"free_bytes\":0}"
        ));
    }

    #[test]
    fn histograms_render_quantiles_and_buckets() {
        let reports = vec![fake_report("a")];
        let text = table1_json(&reports, 5, 3008, false).render();
        // Samples 2,3,3,5 → count 4, sum 13; p50 in bucket [2,3], p99 in
        // bucket [4,7]; buckets: index 2 ×3, index 3 ×1.
        assert!(text.contains(
            "\"cut_size\":{\"count\":4,\"sum\":13,\"p50\":3,\"p90\":7,\"p99\":7,\
             \"buckets\":[[2,3],[3,1]]}"
        ));
        // Job-level telemetry is all-empty → optional field omitted.
        assert!(!text.contains("job_histograms"));
    }

    #[test]
    fn failures_are_listed_and_rows_kept() {
        let mut reports = vec![fake_report("a"), fake_report("b")];
        reports[1].outcome = JobOutcome::Panicked("boom".into());
        let text = table1_json(&reports, 5, 3008, true).render();
        assert!(text.contains("\"status\":\"panicked\""));
        assert!(text.contains("\"error\":\"boom\""));
        assert!(text.contains("\"completed\":1"));
        assert!(text.contains("\"total\":2"));
    }

    #[test]
    fn large_artifact_carries_mapped_fields() {
        let row = crate::large::IngestRow {
            name: "hier".into(),
            file_bytes: 10,
            models: 3,
            gates: 100,
            ffs: 20,
            pis: 4,
            pos: 4,
            parse_secs: 0.1,
            total_secs: 0.2,
            verify_lanes: 64,
            verify_cycles: 16,
            verify_secs: 0.05,
            verify_scalar_secs: 0.5,
            peak_rss_kib: 1000,
            mapped: crate::large::MapMeasurement {
                phi: 9,
                luts: 50,
                ffs: 12,
                map_secs: 2.0,
            },
            spans: {
                let mut spans = SpanTable::new();
                spans.add(
                    "turbomap_frt",
                    &engine::SpanStats {
                        count: 1,
                        wall_nanos: 2_000_000_000,
                        self_nanos: 1_000_000_000,
                        ..engine::SpanStats::ZERO
                    },
                );
                spans
            },
        };
        let text = large_json(std::slice::from_ref(&row), false).render();
        assert!(text.contains("\"schema\":\"turbomap-bench/large/v6\""));
        assert!(text.contains("\"mapped_phi\":9,\"mapped_luts\":50,\"mapped_ffs\":12"));
        assert!(text.contains("\"map_secs\":2.0"));
        assert!(text.contains("\"wall_secs\":2.25"), "{text}");
        assert!(
            text.contains("\"spans\":{\"turbomap_frt\":{\"count\":1,\"wall_secs\":2.0"),
            "{text}"
        );
        assert!(!text.contains("partition"), "{text}");
        // Canonical zeroes the map timing, keeps the mapped structure,
        // and omits the spans.
        let text = large_json(std::slice::from_ref(&row), true).render();
        assert!(text.contains("\"mapped_phi\":9,\"mapped_luts\":50,\"mapped_ffs\":12"));
        assert!(text.contains("\"map_secs\":0.0"));
        assert!(!text.contains("spans"), "{text}");
    }

    #[test]
    fn artifact_is_deterministic() {
        let reports = vec![fake_report("a"), fake_report("b")];
        let one = table1_json(&reports, 5, 3008, false).render_pretty();
        let two = table1_json(&reports, 5, 3008, false).render_pretty();
        assert_eq!(one, two);
    }
}
