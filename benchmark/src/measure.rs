//! Measurement primitives: `/proc` probes, order statistics, and the
//! benchmark's own spans around calls into the program's layers.
//!
//! Every number the benchmark reports comes from here or from a count
//! the program itself keeps; the program's own trace spans and phase
//! timers are never read.

use engine::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// `/proc` tick rate of `utime`/`stime` (`USER_HZ`, 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of the whole process, all threads
/// included (also threads that have exited), from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_SEC
}

/// CPU nanoseconds of the calling thread, from
/// `/proc/thread-self/schedstat` (time on CPU is its first field). The
/// kernel brings it up to date at scheduler ticks and context switches,
/// so a span shorter than a tick may read 0.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    engine::mem::peak_rss_kib().unwrap_or(0) as f64 / 1024.0
}

/// A fixed, program-independent kernel timed next to every measured
/// pass: dependent loads chasing a random walk through a 16 KiB table,
/// which stays in the L1 cache.
///
/// The benchmark runs on shared hosts whose speed drifts, at times by
/// 30–60% for tens of seconds, as neighbours come and go; CPU time
/// drifts with wall time, so the slowdown is in execution, not in
/// scheduling. Scaling a pass by `REFERENCE_S / kernel seconds` cancels
/// part of that drift. Over 5 seeds per workload on a 2-vCPU VM, the
/// run-to-run interquartile range of `wall_s` was 8–12% of the median
/// unscaled, 4–12% scaled by this kernel, and 6–13% and 4–13% scaled by
/// the same walk through 4 MiB and 32 MiB tables. The kernel shares no
/// code with the program, so a change to the program moves the scaled
/// times as much as the raw ones.
#[derive(Debug)]
pub struct Calibration {
    table: Vec<u32>,
}

impl Calibration {
    /// The kernel's nominal time; scaled times read as seconds on a
    /// machine where the kernel takes this long.
    pub const REFERENCE_S: f64 = 0.015;
    const STEPS: u64 = 6_000_000;

    /// Builds the table.
    pub fn new() -> Calibration {
        let n = 1usize << 12;
        let mut rng = engine::Rng64::new(0x7A3B);
        let table = (0..n).map(|_| rng.below(n) as u32).collect();
        Calibration { table }
    }

    /// Seconds the kernel takes now.
    pub fn seconds(&self) -> f64 {
        let t = Instant::now();
        let (mut x, mut acc) = (0usize, 0u64);
        for i in 0..Self::STEPS {
            x = (self.table[x] as usize ^ (i as usize & 7)) & (self.table.len() - 1);
            acc = acc
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(x as u64);
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }

    /// The factor turning seconds measured between two kernel runs into
    /// reference seconds.
    pub fn scale(before: f64, after: f64) -> f64 {
        2.0 * Self::REFERENCE_S / (before + after)
    }
}

/// The median of `values` (mean of the middle pair for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three cut points of `values` into quarters, by the method of
/// Python's `statistics.quantiles(values, n=4)` (exclusive: linear
/// interpolation, extrapolating past the ends of short samples). A
/// single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// One closed span: a call into a layer, timed from benchmark code.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start and end, µs since the tracer was created.
    pub start_us: u64,
    pub end_us: u64,
    /// CPU time of the calling thread inside the span.
    pub cpu_ns: u64,
    /// Process-wide allocations and bytes inside the span (zero unless
    /// `engine::mem` accounting is on).
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    /// Wall seconds.
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1e6
    }
}

/// Benchmark-side spans and counts, kept in memory. A disabled tracer
/// only runs the closure and drops counts.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    open: Vec<usize>,
    /// Spans, in start order.
    pub spans: Vec<Span>,
    /// Sums recorded by [`Tracer::add`], by metric key.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer; `enabled` decides whether spans are recorded.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Adds `v` to the sum `key` while recording.
    pub fn add(&mut self, key: &'static str, v: f64) {
        if self.enabled {
            *self.counts.entry(key).or_insert(0.0) += v;
        }
    }

    /// The sum `key` (0 when never added).
    pub fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for later spans.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let (cpu0, mem0) = (thread_cpu_ns(), engine::mem::global_stats());
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_us: self.origin.elapsed().as_micros() as u64,
            end_us: 0,
            cpu_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        let mem1 = engine::mem::global_stats();
        let s = &mut self.spans[idx];
        s.end_us = self.origin.elapsed().as_micros() as u64;
        s.cpu_ns = thread_cpu_ns().saturating_sub(cpu0);
        s.allocs = mem1.allocs.saturating_sub(mem0.allocs);
        s.alloc_bytes = mem1.alloc_bytes.saturating_sub(mem0.alloc_bytes);
        r
    }

    /// Total wall seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let spans = self.spans.iter().filter(|s| s.name == name);
        spans.map(Span::secs).fold(0.0, |a, b| a + b)
    }

    /// The spans as a Chrome trace (`B`/`E` pairs on one thread), the
    /// format `tmfrt profile` reads.
    pub fn chrome_trace(&self) -> JsonValue {
        // Spans are stored in start order with parent links: before a
        // span begins, every open span that is not its ancestor ends.
        let mut order: Vec<(bool, usize)> = Vec::with_capacity(2 * self.spans.len());
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            while open.last().is_some_and(|&top| Some(top) != s.parent) {
                order.push((false, open.pop().expect("checked non-empty")));
            }
            order.push((true, i));
            open.push(i);
        }
        order.extend(open.into_iter().rev().map(|i| (false, i)));
        let events = order
            .into_iter()
            .map(|(begin, i)| {
                let s = &self.spans[i];
                let ts = if begin { s.start_us } else { s.end_us };
                let mut pairs = vec![
                    ("name", JsonValue::str(s.name)),
                    ("ph", JsonValue::str(if begin { "B" } else { "E" })),
                    ("ts", JsonValue::UInt(ts)),
                    ("pid", JsonValue::UInt(1)),
                    ("tid", JsonValue::UInt(1)),
                ];
                if !begin {
                    pairs.push((
                        "args",
                        JsonValue::object(vec![
                            ("cpu_ns", JsonValue::UInt(s.cpu_ns)),
                            ("allocs", JsonValue::UInt(s.allocs)),
                            ("alloc_bytes", JsonValue::UInt(s.alloc_bytes)),
                        ]),
                    ));
                }
                JsonValue::object(pairs)
            })
            .collect();
        JsonValue::object(vec![("traceEvents", JsonValue::Array(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_hand_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), [4.5, 6.0, 7.5]);
        // statistics.quantiles([3, 1, 4], n=4) == [1.0, 3.0, 4.0]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0]), [1.0, 3.0, 4.0]);
    }

    #[test]
    fn spans_nest_and_render_balanced() {
        let mut t = Tracer::new(true);
        t.span("op", |t| {
            t.span("blifio.parse", |_| ());
            t.span("netlist.verify", |_| ());
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        let mut profile = engine::profile::Profile::new();
        profile.add_trace(&t.chrome_trace()).unwrap();
        assert_eq!(profile.spans["op"].count, 1);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("op", |_| 7), 7);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn proc_probes_read_this_process() {
        // The kernel updates a running thread's time at scheduler ticks,
        // so spin across several of them.
        let t0 = thread_cpu_ns();
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        assert!(thread_cpu_ns() > t0);
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
