//! Offline Chrome-trace analysis for `tmfrt profile`.
//!
//! Consumes the trace-event JSON documents [`crate::trace::chrome_trace`]
//! emits (`tmfrt map --trace-out`, `table1 --trace-dir`, the serve
//! `/jobs/<id>/trace` endpoint) and turns them into:
//!
//! * a **self/total per-span report** ([`Profile::render_report`]) —
//!   for every span name, how often it ran, the inclusive wall time and
//!   the self time (inclusive minus direct children), sorted by self;
//! * **folded stacks** ([`Profile::render_folded`]) — one
//!   `root;child;leaf <self_µs>` line per observed stack, the input
//!   format of `flamegraph.pl` and speedscope;
//! * a **differential** ([`diff`] / [`render_diff`]) — phase-attributed
//!   comparison of two runs naming the spans whose self time moved most.
//!
//! Parsing is strict: unbalanced enters/exits, timestamps running
//! backwards inside a stack, or malformed events are hard errors, so CI
//! can gate on `tmfrt profile` exiting zero.

use crate::json::JsonValue;
use std::collections::BTreeMap;

/// Aggregated timings for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Completed instances of the span.
    pub count: u64,
    /// Inclusive wall time (µs) summed over instances. Recursive
    /// re-entries of the same name each contribute their full duration.
    pub total_us: u64,
    /// Self time (µs): inclusive time minus direct children.
    pub self_us: u64,
}

/// An accumulating profile over one or more trace documents.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Per-span aggregates, keyed by span name (sorted: `BTreeMap` keeps
    /// every rendering deterministic).
    pub spans: BTreeMap<String, SpanAgg>,
    /// Folded stacks: `a;b;c` → accumulated self µs of `c` under that
    /// stack.
    pub folded: BTreeMap<String, u64>,
    /// Trace documents folded in.
    pub traces: u64,
    /// Duration events consumed (`B` + `E`).
    pub events: u64,
    /// Instant events seen (counted, not timed).
    pub instants: u64,
    /// Ring-buffer drops reported by the producing runs.
    pub dropped: u64,
}

/// One frame on the reconstruction stack.
struct Frame {
    name: String,
    start_us: u64,
    child_us: u64,
    /// `a;b;c` path including this frame.
    path: String,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Total self time across all spans (µs) — the instrumented wall
    /// time of the profile.
    pub fn total_self_us(&self) -> u64 {
        self.spans.values().map(|s| s.self_us).sum()
    }

    /// Folds one parsed Chrome-trace document into the profile.
    ///
    /// Accepts the `{"traceEvents": [...]}` object form the repo's
    /// tools emit, or a bare event array. Errors on malformed or
    /// unbalanced event streams.
    pub fn add_trace(&mut self, doc: &JsonValue) -> Result<(), String> {
        let events = match doc.get("traceEvents") {
            Some(v) => v
                .as_array()
                .ok_or_else(|| "traceEvents is not an array".to_string())?,
            None => doc
                .as_array()
                .ok_or_else(|| "expected a traceEvents object or event array".to_string())?,
        };
        if let Some(d) = doc.get("dropped_events").and_then(JsonValue::as_u64) {
            self.dropped += d;
        }
        // Events carry (pid, tid); reconstruct one stack per pair.
        let mut stacks: BTreeMap<(u64, u64), Vec<Frame>> = BTreeMap::new();
        for (i, ev) in events.iter().enumerate() {
            let ph = ev
                .get("ph")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
            match ph {
                "M" => continue, // metadata
                "i" | "I" => {
                    self.instants += 1;
                    continue;
                }
                "B" | "E" => {}
                other => return Err(format!("event {i}: unsupported phase {other:?}")),
            }
            let name = ev
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("event {i}: missing \"name\""))?;
            let ts = ev
                .get("ts")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("event {i}: missing or negative \"ts\""))?;
            let pid = ev.get("pid").and_then(JsonValue::as_u64).unwrap_or(0);
            let tid = ev.get("tid").and_then(JsonValue::as_u64).unwrap_or(0);
            let stack = stacks.entry((pid, tid)).or_default();
            self.events += 1;
            if ph == "B" {
                let path = match stack.last() {
                    Some(top) => format!("{};{name}", top.path),
                    None => name.to_string(),
                };
                stack.push(Frame {
                    name: name.to_string(),
                    start_us: ts,
                    child_us: 0,
                    path,
                });
            } else {
                let frame = stack
                    .pop()
                    .ok_or_else(|| format!("event {i}: exit {name:?} with empty stack"))?;
                if frame.name != name {
                    return Err(format!(
                        "event {i}: exit {name:?} does not match open span {:?}",
                        frame.name
                    ));
                }
                let total = ts
                    .checked_sub(frame.start_us)
                    .ok_or_else(|| format!("event {i}: span {name:?} ends before it starts"))?;
                let self_us = total.saturating_sub(frame.child_us);
                let agg = self.spans.entry(frame.name).or_default();
                agg.count += 1;
                agg.total_us += total;
                agg.self_us += self_us;
                *self.folded.entry(frame.path).or_insert(0) += self_us;
                if let Some(parent) = stack.last_mut() {
                    parent.child_us += total;
                }
            }
        }
        for (key, stack) in &stacks {
            if !stack.is_empty() {
                return Err(format!(
                    "unbalanced trace: span {:?} still open on pid/tid {key:?}",
                    stack.last().expect("non-empty").name
                ));
            }
        }
        self.traces += 1;
        Ok(())
    }

    /// Renders the self/total table: spans sorted by self time
    /// (descending, then by name), with a share-of-instrumented-time
    /// column and a trailer of totals.
    pub fn render_report(&self) -> String {
        let mut rows: Vec<(&String, &SpanAgg)> = self.spans.iter().collect();
        rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then_with(|| a.0.cmp(b.0)));
        let total_self = self.total_self_us().max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<20} {:>10} {:>14} {:>14} {:>7}\n",
            "span", "count", "total_ms", "self_ms", "self%"
        ));
        for (name, agg) in rows {
            out.push_str(&format!(
                "{:<20} {:>10} {:>14.3} {:>14.3} {:>6.1}%\n",
                name,
                agg.count,
                agg.total_us as f64 / 1e3,
                agg.self_us as f64 / 1e3,
                agg.self_us as f64 * 100.0 / total_self as f64,
            ));
        }
        out.push_str(&format!(
            "traces={} events={} instants={} dropped={} instrumented_ms={:.3}\n",
            self.traces,
            self.events,
            self.instants,
            self.dropped,
            self.total_self_us() as f64 / 1e3,
        ));
        out
    }

    /// Renders folded stacks (`stack;path self_µs` per line), the input
    /// format of `flamegraph.pl` / speedscope. Lines are
    /// lexicographically sorted, so output is deterministic.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for (path, us) in &self.folded {
            out.push_str(&format!("{path} {us}\n"));
        }
        out
    }
}

/// One span's movement between two profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Span name.
    pub name: String,
    /// Self µs in the baseline / candidate.
    pub base_self_us: u64,
    /// Self µs in the candidate.
    pub cand_self_us: u64,
    /// Inclusive µs in the baseline.
    pub base_total_us: u64,
    /// Inclusive µs in the candidate.
    pub cand_total_us: u64,
    /// Candidate minus baseline self time (µs, signed).
    pub delta_self_us: i64,
}

/// Compares two profiles span-by-span. Rows cover the union of span
/// names, sorted by descending self-time regression (then name), so the
/// first row *is* the attribution.
pub fn diff(base: &Profile, cand: &Profile) -> Vec<DiffRow> {
    let mut names: Vec<&String> = base.spans.keys().chain(cand.spans.keys()).collect();
    names.sort();
    names.dedup();
    let mut rows: Vec<DiffRow> = names
        .into_iter()
        .map(|name| {
            let b = base.spans.get(name).copied().unwrap_or_default();
            let c = cand.spans.get(name).copied().unwrap_or_default();
            DiffRow {
                name: name.clone(),
                base_self_us: b.self_us,
                cand_self_us: c.self_us,
                base_total_us: b.total_us,
                cand_total_us: c.total_us,
                delta_self_us: c.self_us as i64 - b.self_us as i64,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.delta_self_us
            .cmp(&a.delta_self_us)
            .then_with(|| a.name.cmp(&b.name))
    });
    rows
}

/// Renders a phase-attributed differential: per-span self/total deltas
/// plus a `top regression:` trailer naming the worst offender (or
/// `no self-time regression` when nothing got slower).
pub fn render_diff(rows: &[DiffRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>12} {:>12} {:>12} {:>8}\n",
        "span", "base_self_ms", "cand_self_ms", "delta_ms", "delta%"
    ));
    for r in rows {
        let pct = if r.base_self_us > 0 {
            r.delta_self_us as f64 * 100.0 / r.base_self_us as f64
        } else if r.delta_self_us != 0 {
            f64::INFINITY
        } else {
            0.0
        };
        let pct_str = if pct.is_infinite() {
            "new".to_string()
        } else {
            format!("{pct:+.1}%")
        };
        out.push_str(&format!(
            "{:<20} {:>12.3} {:>12.3} {:>+12.3} {:>8}\n",
            r.name,
            r.base_self_us as f64 / 1e3,
            r.cand_self_us as f64 / 1e3,
            r.delta_self_us as f64 / 1e3,
            pct_str,
        ));
    }
    match rows.first() {
        Some(top) if top.delta_self_us > 0 => {
            let pct = if top.base_self_us > 0 {
                format!(
                    " ({:+.1}%)",
                    top.delta_self_us as f64 * 100.0 / top.base_self_us as f64
                )
            } else {
                String::new()
            };
            out.push_str(&format!(
                "top regression: {} self {:.3}ms -> {:.3}ms{}\n",
                top.name,
                top.base_self_us as f64 / 1e3,
                top.cand_self_us as f64 / 1e3,
                pct,
            ));
        }
        _ => out.push_str("no self-time regression\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ph: &str, name: &str, ts: u64) -> JsonValue {
        JsonValue::object(vec![
            ("name", JsonValue::str(name)),
            ("cat", JsonValue::str("tmfrt")),
            ("ph", JsonValue::str(ph)),
            ("ts", JsonValue::UInt(ts)),
            ("pid", JsonValue::UInt(1)),
            ("tid", JsonValue::UInt(1)),
        ])
    }

    fn doc(events: Vec<JsonValue>) -> JsonValue {
        JsonValue::object(vec![
            ("traceEvents", JsonValue::Array(events)),
            ("displayTimeUnit", JsonValue::str("ms")),
            ("dropped_events", JsonValue::UInt(0)),
        ])
    }

    /// phi_search[0..100] wrapping frtcheck_sweep[10..10+sweep] wrapping
    /// min_cut[20..20+cut].
    fn nested(sweep_end: u64, cut_end: u64) -> JsonValue {
        doc(vec![
            ev("B", "phi_search", 0),
            ev("B", "frtcheck_sweep", 10),
            ev("B", "min_cut", 20),
            ev("E", "min_cut", cut_end),
            ev("E", "frtcheck_sweep", sweep_end),
            ev("E", "phi_search", sweep_end + 40),
        ])
    }

    #[test]
    fn self_total_aggregation() {
        let mut p = Profile::new();
        p.add_trace(&nested(60, 40)).expect("valid trace");
        let sweep = p.spans.get("frtcheck_sweep").expect("sweep present");
        assert_eq!(sweep.total_us, 50);
        assert_eq!(sweep.self_us, 30); // 50 minus min_cut's 20
        let cut = p.spans.get("min_cut").expect("cut present");
        assert_eq!(cut.total_us, 20);
        assert_eq!(cut.self_us, 20);
        let phi = p.spans.get("phi_search").expect("phi present");
        assert_eq!(phi.total_us, 100);
        assert_eq!(phi.self_us, 50);
        assert_eq!(p.total_self_us(), 100);
        let report = p.render_report();
        assert!(report.contains("frtcheck_sweep"));
        assert!(report.starts_with("span"));
    }

    #[test]
    fn folded_stacks_accumulate_self_time() {
        let mut p = Profile::new();
        p.add_trace(&nested(60, 40)).expect("valid trace");
        p.add_trace(&nested(60, 40)).expect("valid trace");
        let folded = p.render_folded();
        assert!(folded.contains("phi_search;frtcheck_sweep;min_cut 40"));
        assert!(folded.contains("phi_search;frtcheck_sweep 60"));
        assert!(folded.contains("phi_search 100"));
        assert_eq!(p.traces, 2);
    }

    #[test]
    fn unbalanced_and_malformed_are_errors() {
        let mut p = Profile::new();
        let open = doc(vec![ev("B", "phi_search", 0)]);
        assert!(p.add_trace(&open).unwrap_err().contains("still open"));
        let orphan = doc(vec![ev("E", "min_cut", 5)]);
        assert!(p.add_trace(&orphan).unwrap_err().contains("empty stack"));
        let crossed = doc(vec![
            ev("B", "a", 0),
            ev("B", "b", 1),
            ev("E", "a", 2),
            ev("E", "b", 3),
        ]);
        assert!(p
            .add_trace(&crossed)
            .unwrap_err()
            .contains("does not match"));
        let backwards = doc(vec![ev("B", "a", 10), ev("E", "a", 5)]);
        assert!(p
            .add_trace(&backwards)
            .unwrap_err()
            .contains("ends before it starts"));
        assert!(p
            .add_trace(&JsonValue::str("nope"))
            .unwrap_err()
            .contains("expected"));
    }

    #[test]
    fn instants_and_metadata_are_tolerated() {
        let mut p = Profile::new();
        let mut events = vec![JsonValue::object(vec![
            ("name", JsonValue::str("process_name")),
            ("ph", JsonValue::str("M")),
            ("pid", JsonValue::UInt(1)),
            ("tid", JsonValue::UInt(1)),
        ])];
        events.push(ev("B", "expand", 0));
        events.push(ev("i", "partition_block_done", 3));
        events.push(ev("E", "expand", 7));
        p.add_trace(&doc(events)).expect("valid trace");
        assert_eq!(p.instants, 1);
        assert_eq!(p.spans.get("expand").expect("expand").total_us, 7);
    }

    #[test]
    fn diff_attributes_inflated_sweep() {
        // Baseline vs candidate with the LabelUpdate sweep self time
        // inflated 2× — attribution must name frtcheck_sweep.
        let mut base = Profile::new();
        base.add_trace(&nested(60, 40)).expect("valid");
        let mut cand = Profile::new();
        cand.add_trace(&nested(90, 40)).expect("valid"); // sweep self 30 → 60
        let rows = diff(&base, &cand);
        assert_eq!(rows[0].name, "frtcheck_sweep");
        assert_eq!(rows[0].delta_self_us, 30);
        let rendered = render_diff(&rows);
        assert!(rendered.contains("top regression: frtcheck_sweep"));
        // The other direction reports no regression on top.
        let rows = diff(&cand, &base);
        assert!(render_diff(&rows).contains("no self-time regression"));
    }

    #[test]
    fn dropped_events_counted() {
        let mut p = Profile::new();
        let d = JsonValue::object(vec![
            ("traceEvents", JsonValue::Array(vec![])),
            ("dropped_events", JsonValue::UInt(7)),
        ]);
        p.add_trace(&d).expect("valid");
        assert_eq!(p.dropped, 7);
    }
}
