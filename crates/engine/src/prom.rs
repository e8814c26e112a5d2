//! Prometheus text-exposition writer and line-format validator
//! (std-only).
//!
//! `tmfrt batch --metrics-out metrics.prom` summarises a whole batch —
//! job outcomes, counters, span timings and histogram quantiles — in the
//! Prometheus text exposition format (version 0.0.4): `# HELP` / `# TYPE`
//! comment lines followed by `name{label="value"} number` samples. The
//! writer keeps families in emission order (deterministic output, same
//! discipline as [`crate::json`]); [`validate_exposition`] is a strict
//! character-level line check used by the tests and the CI smoke job.

use crate::batch::JobReport;
use crate::hist::HIST_NAMES;
use crate::telemetry::{SpanStats, Telemetry, COUNTER_NAMES};
use std::fmt::Write as _;

/// Metric family kinds the writer supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Point-in-time value.
    Gauge,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// An in-order Prometheus text-exposition builder.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty exposition.
    pub fn new() -> PromWriter {
        PromWriter::default()
    }

    /// Starts a metric family: emits the `# HELP` and `# TYPE` lines.
    /// `name` must be a valid metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub fn family(&mut self, name: &str, kind: MetricKind, help: &str) {
        debug_assert!(is_metric_name(name), "bad metric name: {name}");
        let help = help.replace('\\', "\\\\").replace('\n', "\\n");
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {}", kind.as_str());
    }

    /// Emits one sample line. `labels` are `(key, value)` pairs; values
    /// are escaped per the exposition format.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        debug_assert!(is_metric_name(name), "bad metric name: {name}");
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                debug_assert!(is_label_name(k), "bad label name: {k}");
                if i > 0 {
                    self.out.push(',');
                }
                let v = v
                    .replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n");
                let _ = write!(self.out, "{k}=\"{v}\"");
            }
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {}", render_value(value));
    }

    /// Emits an integer sample (rendered without a decimal point).
    pub fn sample_u64(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.sample(name, labels, value as f64);
    }

    /// The finished exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

fn render_value(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value.is_infinite() {
        if value > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Job status keywords in the order the `tmfrt_jobs` family reports
/// them (the [`crate::batch::JobOutcome::status`] vocabulary).
pub const JOB_STATUSES: [&str; 4] = ["ok", "failed", "panicked", "deadline"];

/// Writes the telemetry-derived families — `tmfrt_events`, the memory
/// ledger, the `tmfrt_span_*` families (one sample per span name, sorted
/// by name) and one quantile family per non-empty histogram — into `w`.
/// Shared by `tmfrt batch --metrics-out`, `tmfrt serve /metrics` and the
/// tests; output order is fixed, so a given snapshot always renders to
/// the same bytes.
pub fn write_telemetry_families(w: &mut PromWriter, agg: &Telemetry) {
    w.family(
        "tmfrt_events",
        MetricKind::Counter,
        "Algorithmic counters summed over all jobs.",
    );
    for (i, counter) in COUNTER_NAMES.iter().enumerate() {
        w.sample_u64("tmfrt_events", &[("counter", counter)], agg.counters[i]);
    }

    // Memory accounting (engine::mem). The aggregate families are
    // always present — zeros when the gate is off — so dashboards can
    // rely on them.
    w.family(
        "tmfrt_mem_allocs_total",
        MetricKind::Counter,
        "Heap allocation events recorded by the counting allocator.",
    );
    w.sample_u64("tmfrt_mem_allocs_total", &[], agg.mem.allocs);
    w.family(
        "tmfrt_mem_frees_total",
        MetricKind::Counter,
        "Heap free events recorded by the counting allocator.",
    );
    w.sample_u64("tmfrt_mem_frees_total", &[], agg.mem.frees);
    w.family(
        "tmfrt_mem_alloc_bytes_total",
        MetricKind::Counter,
        "Heap bytes allocated, summed over all jobs.",
    );
    w.sample_u64("tmfrt_mem_alloc_bytes_total", &[], agg.mem.alloc_bytes);
    w.family(
        "tmfrt_mem_peak_heap_bytes",
        MetricKind::Gauge,
        "Largest per-thread heap high-water mark across jobs.",
    );
    w.sample_u64("tmfrt_mem_peak_heap_bytes", &[], agg.mem.peak_bytes);

    // The span table; the heap families appear once a span recorded
    // heap activity (accounting on).
    let spans = agg.spans.sorted();
    type SpanFamily = (
        &'static str,
        MetricKind,
        &'static str,
        fn(&SpanStats) -> f64,
    );
    let families: [SpanFamily; 5] = [
        (
            "tmfrt_span_count_total",
            MetricKind::Counter,
            "Closed spans per span name, summed over all jobs.",
            |s| s.count as f64,
        ),
        (
            "tmfrt_span_wall_seconds_total",
            MetricKind::Counter,
            "Wall-clock seconds inside spans, children included, per span name.",
            SpanStats::wall_secs,
        ),
        (
            "tmfrt_span_self_seconds_total",
            MetricKind::Counter,
            "Wall-clock seconds inside spans minus their child spans, per span name.",
            SpanStats::self_secs,
        ),
        (
            "tmfrt_span_allocs_total",
            MetricKind::Counter,
            "Heap allocation events inside spans, per span name.",
            |s| s.allocs as f64,
        ),
        (
            "tmfrt_span_peak_heap_bytes",
            MetricKind::Gauge,
            "Largest heap growth within one span, per span name.",
            |s| s.peak_bytes as f64,
        ),
    ];
    let heap = spans.iter().any(|(_, s)| s.allocs > 0 || s.peak_bytes > 0);
    let shown = if spans.is_empty() {
        0
    } else if heap {
        5
    } else {
        3
    };
    for (name, kind, help, value) in &families[..shown] {
        w.family(name, *kind, help);
        for (span, s) in &spans {
            w.sample(name, &[("span", span)], value(s));
        }
    }

    // One gauge family per non-empty histogram: quantile samples plus
    // explicit _count/_sum counters (summary-style naming without
    // claiming the summary type, which the writer does not model).
    for (i, hist_name) in HIST_NAMES.iter().enumerate() {
        let h = &agg.hists[i];
        if h.is_empty() {
            continue;
        }
        let name = format!("tmfrt_{hist_name}");
        w.family(
            &name,
            MetricKind::Gauge,
            "Upper bound of the log2 bucket holding the quantile.",
        );
        for q in ["0.5", "0.9", "0.99"] {
            let v = h.quantile(q.parse().unwrap()).unwrap_or(0);
            w.sample_u64(&name, &[("quantile", q)], v);
        }
        let count = format!("{name}_count");
        w.family(&count, MetricKind::Counter, "Samples recorded.");
        w.sample_u64(&count, &[], h.count);
        let sum = format!("{name}_sum");
        w.family(&sum, MetricKind::Counter, "Sum of recorded values.");
        w.sample_u64(&sum, &[], h.sum);
    }
}

/// Writes the finished-job families: `tmfrt_jobs` (one sample per
/// [`JOB_STATUSES`] keyword) and `tmfrt_job_wall_seconds`. Shared by
/// [`render_job_metrics`] and `tmfrt serve`'s `/metrics`.
pub fn write_job_families<'a, T: 'a>(
    w: &mut PromWriter,
    reports: impl IntoIterator<Item = &'a JobReport<T>>,
) {
    let mut counts = [0u64; JOB_STATUSES.len()];
    let mut wall = 0.0f64;
    for r in reports {
        let status = r.outcome.status();
        let i = JOB_STATUSES.iter().position(|s| *s == status);
        counts[i.expect("a JobOutcome::status keyword")] += 1;
        wall += r.wall.as_secs_f64();
    }
    w.family(
        "tmfrt_jobs",
        MetricKind::Counter,
        "Finished jobs by final status.",
    );
    for (status, n) in JOB_STATUSES.iter().zip(counts) {
        w.sample_u64("tmfrt_jobs", &[("status", status)], n);
    }
    w.family(
        "tmfrt_job_wall_seconds",
        MetricKind::Counter,
        "Wall-clock seconds summed over finished jobs.",
    );
    w.sample("tmfrt_job_wall_seconds", &[], wall);
}

/// Renders a finished batch's reports as one scrape-ready Prometheus
/// exposition: [`write_job_families`], then the telemetry families of
/// [`write_telemetry_families`]. Deterministic for a given report set and
/// always passes [`validate_exposition`].
pub fn render_job_metrics<T>(reports: &[JobReport<T>]) -> String {
    let mut agg = Telemetry::default();
    for r in reports {
        agg.merge(&r.telemetry);
    }
    let mut w = PromWriter::new();
    write_job_families(&mut w, reports);
    write_telemetry_families(&mut w, &agg);
    w.finish()
}

/// Validates Prometheus text-exposition content line by line: every line
/// must be empty, a well-formed `# HELP`/`# TYPE` comment, or a sample
/// matching `name[{k="v",...}] value`. Returns the first offending line
/// (1-based) with a reason.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    if !is_metric_name(name) {
                        return Err(format!("line {lineno}: HELP names bad metric '{name}'"));
                    }
                }
                "TYPE" => {
                    let kind = parts.next().unwrap_or("");
                    if !is_metric_name(name) {
                        return Err(format!("line {lineno}: TYPE names bad metric '{name}'"));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {lineno}: unknown TYPE '{kind}'"));
                    }
                }
                _ => return Err(format!("line {lineno}: unknown comment '{keyword}'")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {lineno}: comment must start with '# '"));
        }
        validate_sample(line).map_err(|e| format!("line {lineno}: {e}"))?;
    }
    Ok(())
}

fn validate_sample(line: &str) -> Result<(), String> {
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    while pos < bytes.len()
        && (bytes[pos].is_ascii_alphanumeric() || matches!(bytes[pos], b'_' | b':'))
    {
        pos += 1;
    }
    let name = &line[..pos];
    if !is_metric_name(name) {
        return Err(format!("bad metric name '{name}'"));
    }
    if bytes.get(pos) == Some(&b'{') {
        pos += 1;
        loop {
            let label_start = pos;
            while pos < bytes.len() && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_') {
                pos += 1;
            }
            if !is_label_name(&line[label_start..pos]) {
                return Err("bad label name".to_string());
            }
            if bytes.get(pos) != Some(&b'=') || bytes.get(pos + 1) != Some(&b'"') {
                return Err("label missing ='\"'".to_string());
            }
            pos += 2;
            while pos < bytes.len() && bytes[pos] != b'"' {
                if bytes[pos] == b'\\' {
                    pos += 1;
                }
                pos += 1;
            }
            if bytes.get(pos) != Some(&b'"') {
                return Err("unterminated label value".to_string());
            }
            pos += 1;
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {
                    pos += 1;
                    break;
                }
                _ => return Err("expected ',' or '}' after label".to_string()),
            }
        }
    }
    if bytes.get(pos) != Some(&b' ') {
        return Err("expected space before value".to_string());
    }
    let value = &line[pos + 1..];
    if value.is_empty() {
        return Err("missing value".to_string());
    }
    if matches!(value, "NaN" | "+Inf" | "-Inf") {
        return Ok(());
    }
    value
        .parse::<f64>()
        .map(|_| ())
        .map_err(|_| format!("bad value '{value}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_valid_exposition() {
        let mut w = PromWriter::new();
        w.family("tmfrt_jobs_total", MetricKind::Counter, "Jobs by outcome.");
        w.sample_u64("tmfrt_jobs_total", &[("status", "completed")], 17);
        w.sample_u64("tmfrt_jobs_total", &[("status", "failed")], 0);
        w.family(
            "tmfrt_span_wall_seconds_total",
            MetricKind::Counter,
            "Span wall time.",
        );
        w.sample(
            "tmfrt_span_wall_seconds_total",
            &[("span", "phi_search")],
            1.25,
        );
        w.family(
            "tmfrt_cut_size",
            MetricKind::Gauge,
            "Cut-size distribution.",
        );
        w.sample_u64("tmfrt_cut_size", &[("quantile", "0.5")], 4);
        let text = w.finish();
        validate_exposition(&text).expect("writer output must validate");
        assert!(text.contains("# TYPE tmfrt_jobs_total counter\n"));
        assert!(text.contains("tmfrt_jobs_total{status=\"completed\"} 17\n"));
        assert!(text.contains("tmfrt_span_wall_seconds_total{span=\"phi_search\"} 1.25\n"));
        assert!(text.contains("tmfrt_cut_size{quantile=\"0.5\"} 4\n"));
    }

    #[test]
    fn label_values_escape() {
        let mut w = PromWriter::new();
        w.family("x_total", MetricKind::Counter, "multi\nline \\help");
        w.sample_u64("x_total", &[("file", "a\"b\\c\nd")], 1);
        let text = w.finish();
        validate_exposition(&text).expect("escaped output must validate");
        assert!(text.contains(r#"file="a\"b\\c\nd""#));
        assert!(text.contains("# HELP x_total multi\\nline \\\\help\n"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_exposition("1bad_name 3").is_err());
        assert!(validate_exposition("ok{unclosed=\"x\" 3").is_err());
        assert!(validate_exposition("ok 3 extra").is_err());
        assert!(validate_exposition("ok not_a_number").is_err());
        assert!(validate_exposition("# BOGUS x y").is_err());
        assert!(validate_exposition("# TYPE x widget").is_err());
        assert!(validate_exposition("#bad comment").is_err());
        assert!(validate_exposition("ok 3\nok{a=\"b\"} +Inf\n").is_ok());
    }

    #[test]
    fn job_metrics_validate_and_aggregate() {
        use crate::batch::JobOutcome;
        use crate::hist::Metric;
        use std::time::Duration;

        let report = |name: &str, outcome: JobOutcome<()>| {
            let mut t = Telemetry::default();
            t.counters[0] = 10;
            t.spans.add(
                "phi_search",
                &SpanStats {
                    count: 1,
                    wall_nanos: 250_000_000,
                    self_nanos: 50_000_000,
                    ..SpanStats::ZERO
                },
            );
            for v in [2u64, 3, 5, 9] {
                t.hists[Metric::CutSize as usize].record(v);
            }
            JobReport {
                name: name.into(),
                outcome,
                wall: Duration::from_millis(500),
                telemetry: t,
                trace: None,
            }
        };
        let reports = vec![
            report("a", JobOutcome::Completed(())),
            report("b", JobOutcome::Completed(())),
            report("c", JobOutcome::Panicked("boom".into())),
        ];
        let text = render_job_metrics(&reports);
        validate_exposition(&text).expect("metrics must be valid exposition");
        assert!(text.contains("tmfrt_jobs{status=\"ok\"} 2\n"));
        assert!(text.contains("tmfrt_jobs{status=\"panicked\"} 1\n"));
        assert!(text.contains("tmfrt_jobs{status=\"deadline\"} 0\n"));
        assert!(text.contains("tmfrt_job_wall_seconds 1.5\n"));
        assert!(text.contains("tmfrt_events{counter=\"flow_augmentations\"} 30\n"));
        assert!(text.contains("tmfrt_span_count_total{span=\"phi_search\"} 3\n"));
        assert!(text.contains("tmfrt_span_wall_seconds_total{span=\"phi_search\"} 0.75\n"));
        assert!(text.contains("tmfrt_span_self_seconds_total{span=\"phi_search\"} 0.15\n"));
        // No heap activity recorded: the heap span families stay out.
        assert!(!text.contains("tmfrt_span_allocs_total"));
        // 12 merged samples of 2,3,5,9: p50 lands in bucket [2,3].
        assert!(text.contains("tmfrt_cut_size{quantile=\"0.5\"} 3\n"));
        assert!(text.contains("tmfrt_cut_size_count 12\n"));
        assert!(text.contains("tmfrt_cut_size_sum 57\n"));
        // Histograms never recorded stay out of the exposition.
        assert!(!text.contains("tmfrt_sweeps_per_phi"));

        // An empty batch still renders a valid, all-zero exposition.
        let empty = render_job_metrics::<()>(&[]);
        validate_exposition(&empty).expect("empty exposition must validate");
        assert!(empty.contains("tmfrt_jobs{status=\"ok\"} 0\n"));
    }

    #[test]
    fn mem_families_expose_and_validate() {
        let mut agg = Telemetry::default();
        agg.mem.allocs = 42;
        agg.mem.frees = 40;
        agg.mem.alloc_bytes = 4096;
        agg.mem.peak_bytes = 2048;
        agg.spans.add(
            "frtcheck_sweep",
            &SpanStats {
                count: 4,
                wall_nanos: 1_500_000_000,
                self_nanos: 1_000_000_000,
                allocs: 30,
                alloc_bytes: 3000,
                peak_bytes: 1024,
            },
        );
        let mut w = PromWriter::new();
        write_telemetry_families(&mut w, &agg);
        let text = w.finish();
        validate_exposition(&text).expect("mem families must validate");
        assert!(text.contains("tmfrt_mem_allocs_total 42\n"));
        assert!(text.contains("tmfrt_mem_peak_heap_bytes 2048\n"));
        assert!(text.contains("tmfrt_span_wall_seconds_total{span=\"frtcheck_sweep\"} 1.5\n"));
        assert!(text.contains("tmfrt_span_allocs_total{span=\"frtcheck_sweep\"} 30\n"));
        assert!(text.contains("tmfrt_span_peak_heap_bytes{span=\"frtcheck_sweep\"} 1024\n"));

        // With no span closed the span families stay out, but the
        // aggregate memory families are always present (zeros included).
        let mut w = PromWriter::new();
        write_telemetry_families(&mut w, &Telemetry::default());
        let text = w.finish();
        validate_exposition(&text).expect("zeroed exposition must validate");
        assert!(text.contains("tmfrt_mem_allocs_total 0\n"));
        assert!(!text.contains("tmfrt_span_"));
    }

    #[test]
    fn value_rendering() {
        assert_eq!(render_value(17.0), "17");
        assert_eq!(render_value(1.25), "1.25");
        assert_eq!(render_value(f64::INFINITY), "+Inf");
        assert_eq!(render_value(f64::NAN), "NaN");
    }
}
