//! Structured per-job telemetry: counters, histograms and the span table.
//!
//! Hot paths increment plain thread-local [`Cell`]s — no locks, no
//! atomics — and the batch runner snapshots and resets them around each
//! job ([`take`]), merging the result into the job's report. A job runs
//! entirely on one worker thread, so thread-local accumulation is exact.
//!
//! Counters cover the algorithmic work the paper reports on: max-flow
//! augmentations (`graphalgo::flow`), FRTcheck sweeps and re-queued
//! gates (`turbomap::frtcheck`), expanded-circuit node-cache hits and
//! misses (`turbomap::expand`), and unit register moves
//! (`retiming::moves`).
//!
//! Timing has one source: every [`crate::trace`] span, traced or not,
//! adds its count, wall time, self time (wall minus the wall of its
//! child spans on the same thread) and — with [`crate::mem`] accounting
//! on — its heap activity to this thread's [`SpanTable`], keyed by span
//! name. The table is a fixed array, so recording never allocates.

use crate::hist::{Histogram, Metric, NUM_HISTS};
use crate::mem::{self, MemStats};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Algorithmic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Augmenting paths found by `graphalgo::flow::NodeCutNetwork`.
    FlowAugmentations = 0,
    /// FRTcheck label sweeps executed (the paper's 5–15 per Φ).
    FrtSweeps = 1,
    /// Gates re-queued (marked dirty) during FRTcheck sweeps.
    FrtRequeuedGates = 2,
    /// Expanded-circuit node-cache hits (`(node, weight)` already built).
    ExpandCacheHits = 3,
    /// Expanded-circuit node-cache misses (fresh expanded node).
    ExpandCacheMisses = 4,
    /// Forward unit register moves applied by `retiming::moves`.
    ForwardMoves = 5,
    /// Backward unit register moves (each required justification).
    BackwardMoves = 6,
    /// Gates whose expansion window `F_v^{frt(v)}` was truncated by the
    /// `weight_horizon` cap — the mapped result may be suboptimal.
    FrtCapped = 7,
    /// Mapping reports generated (`crates/report`): witness extraction
    /// plus timing attribution for one run.
    ReportsGenerated = 8,
}

/// Number of [`Counter`] variants.
pub const NUM_COUNTERS: usize = 9;

/// Stable snake_case names, indexed by `Counter as usize` (used as JSON
/// keys — part of the `BENCH_table1.json` schema).
pub const COUNTER_NAMES: [&str; NUM_COUNTERS] = [
    "flow_augmentations",
    "frt_sweeps",
    "frt_requeued_gates",
    "expand_cache_hits",
    "expand_cache_misses",
    "forward_moves",
    "backward_moves",
    "frt_capped",
    "reports_generated",
];

/// What the closed spans of one name accumulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Closed spans.
    pub count: u64,
    /// Wall nanoseconds inside the spans, children included.
    pub wall_nanos: u64,
    /// Wall nanoseconds inside the spans minus the wall of their direct
    /// child spans on the same thread.
    pub self_nanos: u64,
    /// Allocation events inside the spans (zero unless [`mem`]
    /// accounting was on).
    pub allocs: u64,
    /// Bytes allocated inside the spans.
    pub alloc_bytes: u64,
    /// Largest heap growth within any single span (its high-water mark
    /// minus the bytes live when it opened).
    pub peak_bytes: u64,
}

impl SpanStats {
    /// Nothing recorded (`const` form of `Default`).
    pub const ZERO: SpanStats = SpanStats {
        count: 0,
        wall_nanos: 0,
        self_nanos: 0,
        allocs: 0,
        alloc_bytes: 0,
        peak_bytes: 0,
    };

    /// Adds another accumulation into this one (peaks take the max).
    pub fn merge(&mut self, other: &SpanStats) {
        self.count = self.count.wrapping_add(other.count);
        self.wall_nanos = self.wall_nanos.wrapping_add(other.wall_nanos);
        self.self_nanos = self.self_nanos.wrapping_add(other.self_nanos);
        self.allocs = self.allocs.wrapping_add(other.allocs);
        self.alloc_bytes = self.alloc_bytes.wrapping_add(other.alloc_bytes);
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
    }

    /// This accumulation minus an earlier one (saturating). The peak is
    /// a running max, so the delta is the current peak when it grew
    /// during the interval and zero otherwise.
    pub fn since(&self, earlier: &SpanStats) -> SpanStats {
        SpanStats {
            count: self.count.saturating_sub(earlier.count),
            wall_nanos: self.wall_nanos.saturating_sub(earlier.wall_nanos),
            self_nanos: self.self_nanos.saturating_sub(earlier.self_nanos),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            alloc_bytes: self.alloc_bytes.saturating_sub(earlier.alloc_bytes),
            peak_bytes: if self.peak_bytes > earlier.peak_bytes {
                self.peak_bytes
            } else {
                0
            },
        }
    }

    /// Wall seconds inside the spans.
    pub fn wall_secs(&self) -> f64 {
        self.wall_nanos as f64 / 1e9
    }

    /// Self seconds of the spans.
    pub fn self_secs(&self) -> f64 {
        self.self_nanos as f64 / 1e9
    }
}

/// Distinct span names one [`SpanTable`] holds. The last slot is
/// reserved for [`OVERFLOW_SPAN`].
pub const MAX_SPAN_NAMES: usize = 48;

/// The entry that pools spans whose names arrive after the table filled.
pub const OVERFLOW_SPAN: &str = "other";

/// Per-name span accumulations in a fixed array: adding never allocates,
/// and the table is `Copy` like the rest of a [`Telemetry`] snapshot.
/// Entries keep first-seen order; readers that render them sort by name
/// ([`SpanTable::sorted`]); equality compares that order too.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SpanTable {
    len: usize,
    entries: [(&'static str, SpanStats); MAX_SPAN_NAMES],
}

impl std::fmt::Debug for SpanTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Default for SpanTable {
    fn default() -> SpanTable {
        SpanTable::new()
    }
}

impl SpanTable {
    /// An empty table (`const` form of `Default`).
    pub const fn new() -> SpanTable {
        SpanTable {
            len: 0,
            entries: [("", SpanStats::ZERO); MAX_SPAN_NAMES],
        }
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.entries[..self.len]
            .iter()
            .position(|(n, _)| *n == name)
    }

    /// Adds `stats` to the entry for `name`, creating it if needed.
    pub fn add(&mut self, name: &'static str, stats: &SpanStats) {
        let i = match self.position(name) {
            Some(i) => i,
            None if self.len == MAX_SPAN_NAMES => MAX_SPAN_NAMES - 1,
            None => {
                let name = if self.len == MAX_SPAN_NAMES - 1 {
                    OVERFLOW_SPAN
                } else {
                    name
                };
                self.entries[self.len] = (name, SpanStats::ZERO);
                self.len += 1;
                self.len - 1
            }
        };
        self.entries[i].1.merge(stats);
    }

    /// The accumulation for `name`, if any span of that name closed.
    pub fn get(&self, name: &str) -> Option<&SpanStats> {
        self.position(name).map(|i| &self.entries[i].1)
    }

    /// Wall seconds of the spans named `name` (zero when none closed).
    pub fn wall_secs(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, SpanStats::wall_secs)
    }

    /// Entries in first-seen order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &SpanStats)> {
        self.entries[..self.len].iter().map(|(n, s)| (*n, s))
    }

    /// Entries sorted by name — the order every rendering uses.
    pub fn sorted(&self) -> Vec<(&'static str, SpanStats)> {
        let mut out: Vec<(&'static str, SpanStats)> = self.iter().map(|(n, s)| (n, *s)).collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// True when no span closed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds every entry of `other` into this table.
    pub fn merge(&mut self, other: &SpanTable) {
        for (name, s) in other.iter() {
            self.add(name, s);
        }
    }

    /// This table minus an earlier one; names with no span closed in
    /// between are left out.
    pub fn since(&self, earlier: &SpanTable) -> SpanTable {
        let mut out = SpanTable::new();
        for (name, s) in self.iter() {
            let d = match earlier.get(name) {
                Some(e) => s.since(e),
                None => *s,
            };
            if d.count > 0 {
                out.add(name, &d);
            }
        }
        out
    }
}

/// A merged telemetry snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Counter values, indexed by `Counter as usize`.
    pub counters: [u64; NUM_COUNTERS],
    /// Closed spans per name: count, wall, self time and heap.
    pub spans: SpanTable,
    /// Streaming distribution histograms, indexed by
    /// `hist::Metric as usize`.
    pub hists: [Histogram; NUM_HISTS],
    /// The job's allocation ledger. All zeros unless
    /// [`mem::set_enabled`] turned accounting on.
    pub mem: MemStats,
}

impl Telemetry {
    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// One distribution histogram.
    pub fn hist(&self, m: Metric) -> &Histogram {
        &self.hists[m as usize]
    }

    /// Adds another snapshot into this one.
    pub fn merge(&mut self, other: &Telemetry) {
        for i in 0..NUM_COUNTERS {
            self.counters[i] += other.counters[i];
        }
        self.spans.merge(&other.spans);
        for i in 0..NUM_HISTS {
            self.hists[i].merge(&other.hists[i]);
        }
        self.mem.merge(&other.mem);
    }

    /// This snapshot minus an earlier one (saturating).
    pub fn since(&self, earlier: &Telemetry) -> Telemetry {
        let mut out = Telemetry::default();
        for i in 0..NUM_COUNTERS {
            out.counters[i] = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        out.spans = self.spans.since(&earlier.spans);
        for i in 0..NUM_HISTS {
            out.hists[i] = self.hists[i].since(&earlier.hists[i]);
        }
        out.mem = self.mem.since(&earlier.mem);
        out
    }
}

/// A cross-thread live view of one running job's telemetry.
///
/// The worker thread installs an `Arc<LiveTelemetry>` as a *mirror*
/// ([`install_mirror`]): every [`count`] and every closing span then
/// also lands here, so another thread — the `tmfrt serve` `/jobs/<id>`
/// handler — can read a running job's counters and spans so far without
/// touching the worker's thread-locals. Histograms are **not** mirrored
/// (64 atomic buckets per sample would tax the hot paths); they arrive
/// with the final [`Telemetry`] at job end. The mirror also tracks the
/// innermost open span, which the serve monitor publishes as events.
#[derive(Debug, Default)]
pub struct LiveTelemetry {
    counters: [AtomicU64; NUM_COUNTERS],
    spans: Mutex<LiveSpans>,
    /// Heap high-water so far (bytes), max-merged from closing spans on
    /// the mirrored threads.
    mem_peak_bytes: AtomicU64,
    /// Allocation events so far inside spans on the mirrored threads.
    mem_allocs: AtomicU64,
}

#[derive(Debug, Default)]
struct LiveSpans {
    table: SpanTable,
    open: Option<&'static str>,
}

impl LiveTelemetry {
    /// A zeroed live view with no open span.
    pub fn new() -> LiveTelemetry {
        LiveTelemetry::default()
    }

    fn live_spans(&self) -> std::sync::MutexGuard<'_, LiveSpans> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A point-in-time copy of the mirrored counters and spans
    /// (histogram slots stay empty — see the type docs).
    pub fn snapshot(&self) -> Telemetry {
        let mut t = Telemetry::default();
        for i in 0..NUM_COUNTERS {
            t.counters[i] = self.counters[i].load(Ordering::Relaxed);
        }
        t.spans = self.live_spans().table;
        t.mem.peak_bytes = self.mem_peak_bytes.load(Ordering::Relaxed);
        t.mem.allocs = self.mem_allocs.load(Ordering::Relaxed);
        t
    }

    /// The innermost span open on the mirrored job, if any.
    pub fn current_span(&self) -> Option<&'static str> {
        self.live_spans().open
    }
}

thread_local! {
    static COUNTERS: [Cell<u64>; NUM_COUNTERS] = const {
        [const { Cell::new(0) }; NUM_COUNTERS]
    };
    static SPANS: RefCell<SpanTable> = const { RefCell::new(SpanTable::new()) };
    static HISTS: RefCell<[Histogram; NUM_HISTS]> =
        const { RefCell::new([Histogram::zeroed(); NUM_HISTS]) };
    static MIRROR: RefCell<Option<Arc<LiveTelemetry>>> = const { RefCell::new(None) };
    /// Memory ledgers of worker snapshots folded in by [`merge_local`].
    /// This thread's own allocator ledger ([`mem::job_delta`]) is added
    /// at [`snapshot`] time, not here.
    static MEM_ACC: Cell<MemStats> = const { Cell::new(MemStats::new()) };
}

/// Merges a snapshot taken on another thread (for example a batch job's
/// report) into the current thread's **local** accumulators only — the
/// installed mirror (if any) is not updated.
pub fn merge_local(t: &Telemetry) {
    COUNTERS.with(|cs| {
        for (i, cell) in cs.iter().enumerate() {
            cell.set(cell.get().wrapping_add(t.counters[i]));
        }
    });
    SPANS.with(|s| s.borrow_mut().merge(&t.spans));
    HISTS.with(|hs| {
        let mut hists = hs.borrow_mut();
        for i in 0..NUM_HISTS {
            hists[i].merge(&t.hists[i]);
        }
    });
    MEM_ACC.with(|m| {
        let mut acc = m.get();
        acc.merge(&t.mem);
        m.set(acc);
    });
}

/// Marks `name` as the innermost open span of the installed mirror.
/// Returns the marker it replaced (`None` when no mirror is installed),
/// for [`span_closed`] to restore. Called by `trace`, not user code.
pub(crate) fn mirror_enter(name: &'static str) -> Option<Option<&'static str>> {
    let mut prev = None;
    with_mirror(|live| prev = Some(live.live_spans().open.replace(name)));
    prev
}

/// Accumulates one closing span into the current thread's table and,
/// when a mirror is installed, into its live view (`thread_peak` is the
/// thread heap high-water for the mirror's max-merge; `mirror_prev` is
/// what [`mirror_enter`] returned). Called by `trace`, not user code.
pub(crate) fn span_closed(
    name: &'static str,
    stats: &SpanStats,
    thread_peak: u64,
    mirror_prev: Option<Option<&'static str>>,
) {
    SPANS.with(|s| s.borrow_mut().add(name, stats));
    with_mirror(|live| {
        {
            let mut spans = live.live_spans();
            spans.table.add(name, stats);
            if let Some(prev) = mirror_prev {
                spans.open = prev;
            }
        }
        live.mem_allocs.fetch_add(stats.allocs, Ordering::Relaxed);
        live.mem_peak_bytes
            .fetch_max(thread_peak, Ordering::Relaxed);
    });
}

/// Installs `live` as the current thread's telemetry mirror for the
/// lifetime of the returned guard (the previous mirror is restored on
/// drop). Counters and closing spans recorded on this thread are
/// duplicated into the mirror.
pub fn install_mirror(live: Arc<LiveTelemetry>) -> MirrorGuard {
    let prev = MIRROR.with(|m| m.replace(Some(live)));
    MirrorGuard { prev }
}

/// RAII guard returned by [`install_mirror`].
#[derive(Debug)]
pub struct MirrorGuard {
    prev: Option<Arc<LiveTelemetry>>,
}

impl Drop for MirrorGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        MIRROR.with(|m| *m.borrow_mut() = prev);
    }
}

#[inline]
fn with_mirror(f: impl FnOnce(&LiveTelemetry)) {
    MIRROR.with(|m| {
        if let Some(live) = m.borrow().as_ref() {
            f(live);
        }
    });
}

/// Adds `n` to a counter on the current thread. Lock-free: one
/// thread-local access and a `Cell` read-modify-write (plus one relaxed
/// atomic add when a [`LiveTelemetry`] mirror is installed).
#[inline]
pub fn count(c: Counter, n: u64) {
    COUNTERS.with(|cs| {
        let cell = &cs[c as usize];
        cell.set(cell.get().wrapping_add(n));
    });
    with_mirror(|live| {
        live.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    });
}

/// Records one sample into a distribution histogram on the current
/// thread. Lock-free: one thread-local access, no allocation.
#[inline]
pub fn record(m: Metric, value: u64) {
    HISTS.with(|hs| hs.borrow_mut()[m as usize].record(value));
}

/// Snapshots the current thread's telemetry without resetting it.
pub fn snapshot() -> Telemetry {
    let mut t = Telemetry::default();
    COUNTERS.with(|cs| {
        for (i, cell) in cs.iter().enumerate() {
            t.counters[i] = cell.get();
        }
    });
    t.spans = SPANS.with(|s| *s.borrow());
    HISTS.with(|hs| t.hists = *hs.borrow());
    t.mem = MEM_ACC.with(|m| m.get());
    // Fold in this thread's allocator ledger since the last job mark —
    // other threads contribute theirs through merge_local instead.
    let (delta, peak) = mem::job_delta();
    t.mem.allocs = t.mem.allocs.wrapping_add(delta.allocs);
    t.mem.frees = t.mem.frees.wrapping_add(delta.frees);
    t.mem.alloc_bytes = t.mem.alloc_bytes.wrapping_add(delta.alloc_bytes);
    t.mem.free_bytes = t.mem.free_bytes.wrapping_add(delta.free_bytes);
    t.mem.peak_bytes = t.mem.peak_bytes.max(peak);
    t
}

/// Snapshots **and resets** the current thread's telemetry (job boundary).
pub fn take() -> Telemetry {
    let t = snapshot();
    COUNTERS.with(|cs| cs.iter().for_each(|c| c.set(0)));
    SPANS.with(|s| *s.borrow_mut() = SpanTable::new());
    HISTS.with(|hs| *hs.borrow_mut() = [Histogram::zeroed(); NUM_HISTS]);
    MEM_ACC.with(|m| m.set(MemStats::new()));
    mem::job_mark();
    t
}

/// Resets the current thread's telemetry to zero.
pub fn reset() {
    let _ = take();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::span;

    fn stats(count: u64, wall: u64) -> SpanStats {
        SpanStats {
            count,
            wall_nanos: wall,
            self_nanos: wall,
            ..SpanStats::ZERO
        }
    }

    #[test]
    fn count_take_roundtrip() {
        reset();
        count(Counter::FlowAugmentations, 3);
        count(Counter::FlowAugmentations, 2);
        count(Counter::FrtSweeps, 1);
        let t = take();
        assert_eq!(t.counter(Counter::FlowAugmentations), 5);
        assert_eq!(t.counter(Counter::FrtSweeps), 1);
        // take() reset everything.
        assert_eq!(take(), Telemetry::default());
    }

    #[test]
    fn spans_accumulate_wall_and_self_time_per_name() {
        reset();
        for _ in 0..2 {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            let _inner = span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let t = take();
        let (outer, inner) = (t.spans.get("outer").unwrap(), t.spans.get("inner").unwrap());
        assert_eq!((outer.count, inner.count), (2, 2));
        assert_eq!(inner.self_nanos, inner.wall_nanos, "no children");
        // The parent's self time is its wall minus its children's, to
        // the nanosecond.
        assert_eq!(outer.self_nanos, outer.wall_nanos - inner.wall_nanos);
        assert!(outer.self_nanos >= 2_000_000 && inner.wall_nanos >= 4_000_000);
        assert!(t.spans.get("verify").is_none());
        assert!(take().spans.is_empty(), "take() reset the table");
    }

    #[test]
    fn merge_and_since() {
        let peaked = |count, wall, peak_bytes| SpanStats {
            peak_bytes,
            ..stats(count, wall)
        };
        let mut a = Telemetry::default();
        a.counters[0] = 2;
        a.spans.add("label", &peaked(1, 10, 80));
        let mut b = Telemetry::default();
        b.counters[0] = 3;
        b.spans.add("search", &stats(1, 7));
        b.spans.add("label", &peaked(2, 5, 120));
        a.merge(&b);
        assert_eq!(a.counters[0], 5);
        // Peaks merge as a max.
        assert_eq!(a.spans.get("label"), Some(&peaked(3, 15, 120)));
        assert_eq!(a.spans.get("search"), Some(&stats(1, 7)));
        assert_eq!(a.spans.sorted()[0].0, "label");
        let d = a.since(&b);
        assert_eq!(d.counters[0], 2);
        // The peak did not grow past `b`'s, so the interval reports zero.
        assert_eq!(d.spans.get("label"), Some(&stats(1, 10)));
        // A name with no span closed in the interval drops out.
        assert!(d.spans.get("search").is_none());
    }

    #[test]
    fn table_pools_overflow() {
        // Names beyond capacity land in the overflow entry, never lost.
        let names: Vec<&'static str> = (0..MAX_SPAN_NAMES + 5)
            .map(|i| &*Box::leak(format!("s{i}").into_boxed_str()))
            .collect();
        let mut full = SpanTable::new();
        for n in &names {
            full.add(n, &stats(1, 1));
        }
        assert_eq!(full.iter().count(), MAX_SPAN_NAMES);
        assert_eq!(full.get(OVERFLOW_SPAN).unwrap().count, 6);
        let total: u64 = full.iter().map(|(_, s)| s.count).sum();
        assert_eq!(total, names.len() as u64);
    }

    #[test]
    fn names_cover_variants() {
        assert_eq!(COUNTER_NAMES.len(), NUM_COUNTERS);
        assert_eq!(
            COUNTER_NAMES[Counter::BackwardMoves as usize],
            "backward_moves"
        );
        // Every counter has a distinct JSON key — a duplicate would
        // silently shadow a column in the artifact.
        let unique: std::collections::HashSet<&str> = COUNTER_NAMES.iter().copied().collect();
        assert_eq!(unique.len(), NUM_COUNTERS);
        assert_eq!(Counter::FlowAugmentations as usize, 0);
        assert_eq!(COUNTER_NAMES[Counter::FrtCapped as usize], "frt_capped");
        assert_eq!(
            COUNTER_NAMES[Counter::ReportsGenerated as usize],
            "reports_generated"
        );
        assert_eq!(Counter::ReportsGenerated as usize, NUM_COUNTERS - 1);
    }

    #[test]
    fn merge_local_accumulates_without_mirror() {
        reset();
        count(Counter::FrtSweeps, 2);
        record(Metric::CutSize, 4);
        let live = Arc::new(LiveTelemetry::new());
        let _g = install_mirror(Arc::clone(&live));
        let mut worker = Telemetry::default();
        worker.counters[Counter::FrtSweeps as usize] = 5;
        worker.hists[Metric::CutSize as usize].record(9);
        worker.spans.add("label", &stats(1, 9));
        merge_local(&worker);
        // Thread-local view has both; the mirror saw nothing from the merge.
        assert_eq!(snapshot().counter(Counter::FrtSweeps), 7);
        assert_eq!(snapshot().hist(Metric::CutSize).count, 2);
        assert_eq!(snapshot().spans.get("label"), Some(&stats(1, 9)));
        assert_eq!(live.snapshot().counter(Counter::FrtSweeps), 0);
        assert!(live.snapshot().spans.is_empty());
        reset();
    }

    #[test]
    fn histograms_ride_the_job_boundary() {
        reset();
        record(Metric::CutSize, 3);
        record(Metric::CutSize, 9);
        record(Metric::SweepsPerPhi, 7);
        let t = take();
        assert_eq!(t.hist(Metric::CutSize).count, 2);
        assert_eq!(t.hist(Metric::CutSize).sum, 12);
        assert_eq!(t.hist(Metric::SweepsPerPhi).count, 1);
        // take() reset the histograms too.
        assert!(take().hist(Metric::CutSize).is_empty());
    }

    #[test]
    fn mirror_sees_live_counts_and_spans() {
        reset();
        let live = Arc::new(LiveTelemetry::new());
        assert_eq!(live.current_span(), None);
        {
            let _g = install_mirror(Arc::clone(&live));
            count(Counter::FlowAugmentations, 4);
            {
                let _t = span("search");
                assert_eq!(live.current_span(), Some("search"));
                {
                    let _inner = span("label");
                    assert_eq!(live.current_span(), Some("label"));
                }
                // The closed inner span restored the outer marker.
                assert_eq!(live.current_span(), Some("search"));
                assert_eq!(live.snapshot().spans.get("label").unwrap().count, 1);
            }
            assert_eq!(live.current_span(), None);
        }
        // Mirror uninstalled: further counts stay local.
        count(Counter::FlowAugmentations, 10);
        let snap = live.snapshot();
        assert_eq!(snap.counter(Counter::FlowAugmentations), 4);
        assert_eq!(snap.spans.get("search").unwrap().count, 1);
        // The thread-local view kept everything.
        let local = take();
        assert_eq!(local.counter(Counter::FlowAugmentations), 14);
        assert_eq!(local.spans, snap.spans);
    }

    #[test]
    fn telemetry_is_thread_local() {
        reset();
        count(Counter::FrtSweeps, 7);
        let handle = std::thread::spawn(take);
        let other = handle.join().unwrap();
        assert_eq!(other, Telemetry::default());
        assert_eq!(take().counter(Counter::FrtSweeps), 7);
    }
}
