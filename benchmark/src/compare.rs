//! `tmbench compare`: parent-vs-change verdicts per workload and
//! end-to-end metric, by the rules a gain or a regression must meet:
//!
//! * **improved** — over at least 10 pairs, the change won at least 90%
//!   of them (ties count for neither side) and the medians differ by
//!   more than the parent's interquartile range;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the metric's `BENCHMARK.json` bound and by more than its
//!   absolute floor;
//! * **unresolved** — neither, but the parent's interquartile range is
//!   wider than the bound, and not every change run beat every parent
//!   run;
//! * **unchanged** — otherwise.

use crate::measure::{median, quartiles};
use engine::JsonValue;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Absolute floors below which a worse median is not a regression.
const FLOORS: [(&str, f64); 2] = [("peak_rss_mib", 8.0), ("setup_s", 0.05)];

/// Pairs `compare` accepts at the least, and pairs a gain needs.
const MIN_PAIRS: usize = 5;
const GAIN_PAIRS: usize = 10;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` list of a `BENCHMARK.json` document.
///
/// # Errors
///
/// A message naming the malformed entry.
pub fn end_to_end_specs(doc: &JsonValue) -> Result<Vec<MetricSpec>, String> {
    let list = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(JsonValue::as_str).map(str::to_string);
            let name = s("name").ok_or("metric without a name")?;
            let better = s("better").ok_or_else(|| format!("{name}: no better"))?;
            Ok(MetricSpec {
                unit: s("unit").ok_or_else(|| format!("{name}: no unit"))?,
                lower_is_better: better == "lower",
                bound: m
                    .get("bound")
                    .and_then(number)
                    .ok_or_else(|| format!("{name}: no bound"))?,
                name,
            })
        })
        .collect()
}

/// A JSON number as `f64`.
pub fn number(v: &JsonValue) -> Option<f64> {
    match *v {
        JsonValue::Float(f) => Some(f),
        JsonValue::UInt(u) => Some(u as f64),
        JsonValue::Int(i) => Some(i as f64),
        _ => None,
    }
}

/// One metric's verdict over paired runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub parent_q: [f64; 3],
    pub change_q: [f64; 3],
    /// Share of pairs the change won.
    pub wins: f64,
    pub verdict: &'static str,
}

/// Judges paired values (`parent[i]` ran next to `change[i]`).
pub fn judge(spec: &MetricSpec, floor: f64, parent: &[f64], change: &[f64]) -> Verdict {
    // Orient so that larger is worse.
    let worse = |x: f64| if spec.lower_is_better { x } else { -x };
    let pairs = parent.len().min(change.len()).max(1) as f64;
    let won = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| worse(**c) < worse(**p))
        .count();
    let (pm, cm) = (median(parent), median(change));
    let parent_q = quartiles(parent);
    let spread = parent_q[2] - parent_q[0];
    let delta = worse(cm) - worse(pm);
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| worse(c) < worse(p)));
    let wins = won as f64 / pairs;
    let verdict = if parent.len() >= GAIN_PAIRS && wins >= 0.9 && -delta > spread {
        "improved"
    } else if delta > spec.bound * pm.abs() && delta > floor {
        "regressed"
    } else if spread > spec.bound * pm.abs() && !all_better {
        "unresolved"
    } else {
        "unchanged"
    };
    Verdict {
        parent_q,
        change_q: quartiles(change),
        wins,
        verdict,
    }
}

/// Result records of one file: a single run or a `runs` list.
fn records(doc: &JsonValue) -> Vec<&JsonValue> {
    match doc.get("runs").and_then(JsonValue::as_array) {
        Some(runs) => runs.iter().collect(),
        None => vec![doc],
    }
}

/// `compare [--bench BENCHMARK.json] PARENT CHANGE PARENT CHANGE ...`
///
/// # Errors
///
/// A message on unreadable files or too few pairs.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut bench = String::from("BENCHMARK.json");
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = it.next().ok_or("--bench needs a path")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    if files.len() < 2 * MIN_PAIRS || files.len() % 2 != 0 {
        return Err(format!(
            "compare needs an even number of at least {} result files, parent and change alternating",
            2 * MIN_PAIRS
        ));
    }
    let read = |path: &str| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let specs = end_to_end_specs(&read(&bench)?)?;
    // values[(workload, metric)] = (parent values, change values)
    let mut values: BTreeMap<(String, String), (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (i, path) in files.iter().enumerate() {
        let doc = read(path)?;
        for rec in records(&doc) {
            let w = rec
                .get("workload")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{path}: no workload"))?;
            for spec in &specs {
                let v = rec
                    .get("metrics")
                    .and_then(|m| m.get(&spec.name))
                    .and_then(|m| m.get("value"))
                    .and_then(number);
                if let Some(v) = v {
                    let slot = values
                        .entry((w.to_string(), spec.name.clone()))
                        .or_default();
                    if i % 2 == 0 { &mut slot.0 } else { &mut slot.1 }.push(v);
                }
            }
        }
    }
    println!(
        "{} parent/change file pairs; a gain needs {GAIN_PAIRS} pairs of a workload, 90% of them won, and a median shift beyond the parent's IQR",
        files.len() / 2
    );
    println!(
        "{:<12} {:<13} {:>12} {:>25} {:>12} {:>25} {:>5} {:>6}  verdict",
        "workload",
        "metric",
        "parent p50",
        "parent q1..q3",
        "change p50",
        "change q1..q3",
        "won",
        "bound"
    );
    let mut regressed = false;
    for ((w, name), (p, c)) in &values {
        let spec = specs
            .iter()
            .find(|s| &s.name == name)
            .expect("collected from specs");
        let floor = FLOORS
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, f)| f);
        let v = judge(spec, floor, p, c);
        regressed |= v.verdict == "regressed";
        println!(
            "{w:<12} {name:<13} {:>12.4} {:>12.4}..{:<12.4} {:>12.4} {:>12.4}..{:<12.4} {:>4.0}% {:>5.1}%  {} {}",
            v.parent_q[1],
            v.parent_q[0],
            v.parent_q[2],
            v.change_q[1],
            v.change_q[0],
            v.change_q[2],
            v.wins * 100.0,
            spec.bound * 100.0,
            v.verdict,
            spec.unit,
        );
    }
    Ok(if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "wall_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.1 * f64::from(i % 3)).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(judge(&spec(0.1), 0.0, &parent, &faster).verdict, "improved");
        assert_eq!(
            judge(&spec(0.1), 0.0, &parent, &slower).verdict,
            "regressed"
        );
        assert_eq!(judge(&spec(0.1), 0.0, &parent, &same).verdict, "unchanged");
        // Worse beyond the bound but within the absolute floor.
        assert_eq!(
            judge(&spec(0.1), 5.0, &parent, &slower).verdict,
            "unchanged"
        );
        // A bound tighter than the parent's own spread cannot be resolved.
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0];
        let v = judge(&spec(0.01), 0.0, &noisy, &noisy);
        assert_eq!(v.verdict, "unresolved");
        assert_eq!(v.wins, 0.0);
    }
}
