//! Heap and RSS accounting: a counting allocator, per-span heap
//! attribution, and the process peak-RSS probe.
//!
//! Three layers:
//!
//! * [`CountingAlloc`] — a `GlobalAlloc` wrapper over [`System`] that the
//!   binaries install with `#[global_allocator]`. When the accounting
//!   gate is **off** (the default) every allocation pays exactly one
//!   relaxed atomic load; when on, global and per-thread live/peak bytes
//!   and alloc/free events are counted.
//! * Span attribution — with the gate on, every [`crate::trace`] span
//!   records the allocations made inside it and its within-span heap
//!   high-water mark into the span table of the job's
//!   [`Telemetry`](crate::telemetry::Telemetry), which worker threads
//!   merge back into the job exactly like counters. Spans nest, so the
//!   heap numbers are *inclusive*: a `frtcheck_sweep` span's allocations
//!   include those of the `expand` spans it encloses. Peaks use a
//!   save/restore watermark so nested spans each observe their own
//!   high-water without corrupting the enclosing span's.
//! * [`peak_rss_kib`] — the `VmHWM` probe from `/proc/self/status`,
//!   plus [`current_rss_kib`].
//!
//! Per-thread live bytes saturate at zero: a thread that frees memory
//! allocated elsewhere (a hand-off from another thread) cannot
//! underflow its own ledger.

#![allow(unsafe_code)] // the GlobalAlloc impl is the crate's only unsafe.

use crate::telemetry::SpanStats;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Per-job memory telemetry: the job threads' allocation ledger,
/// carried inside [`Telemetry`](crate::telemetry::Telemetry) through
/// snapshot/merge/since like counters and spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Allocation events on the job's threads since the job started.
    pub allocs: u64,
    /// Free events on the job's threads since the job started.
    pub frees: u64,
    /// Bytes allocated on the job's threads since the job started.
    pub alloc_bytes: u64,
    /// Bytes freed on the job's threads since the job started.
    pub free_bytes: u64,
    /// Heap high-water mark (bytes live on a single thread) observed
    /// since the job started; merged across threads as a max.
    pub peak_bytes: u64,
}

impl MemStats {
    /// A zeroed snapshot (`const` form of `Default`).
    pub const fn new() -> MemStats {
        MemStats {
            allocs: 0,
            frees: 0,
            alloc_bytes: 0,
            free_bytes: 0,
            peak_bytes: 0,
        }
    }

    /// Adds another snapshot into this one (peaks take the max).
    pub fn merge(&mut self, other: &MemStats) {
        self.allocs = self.allocs.wrapping_add(other.allocs);
        self.frees = self.frees.wrapping_add(other.frees);
        self.alloc_bytes = self.alloc_bytes.wrapping_add(other.alloc_bytes);
        self.free_bytes = self.free_bytes.wrapping_add(other.free_bytes);
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
    }

    /// This snapshot minus an earlier one (saturating). The peak is a
    /// running max, so the delta is the current peak when it grew during
    /// the interval and zero otherwise.
    pub fn since(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            frees: self.frees.saturating_sub(earlier.frees),
            alloc_bytes: self.alloc_bytes.saturating_sub(earlier.alloc_bytes),
            free_bytes: self.free_bytes.saturating_sub(earlier.free_bytes),
            peak_bytes: if self.peak_bytes > earlier.peak_bytes {
                self.peak_bytes
            } else {
                0
            },
        }
    }

    /// True when nothing was recorded (accounting off, or no activity).
    pub fn is_empty(&self) -> bool {
        *self == MemStats::default()
    }
}

// ---------------------------------------------------------------------------
// Accounting gate + global ledger.

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Serializes every test that toggles the process-wide gate — `ENABLED`
/// is a global, so such tests cannot overlap.
#[cfg(test)]
pub(crate) static TEST_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Process-wide monotone ledgers; live = alloc − free (saturating),
/// computed on read so the hot path never needs a CAS loop.
static G_ALLOCS: AtomicU64 = AtomicU64::new(0);
static G_FREES: AtomicU64 = AtomicU64::new(0);
static G_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static G_FREE_BYTES: AtomicU64 = AtomicU64::new(0);
static G_PEAK: AtomicU64 = AtomicU64::new(0);

/// Turns memory accounting on or off process-wide. Off (the default),
/// the installed [`CountingAlloc`] adds exactly one relaxed atomic load
/// per allocator call and spans record no heap activity.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// True when memory accounting is enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A point-in-time view of the process-wide allocation ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalStats {
    /// Allocation events since accounting was enabled.
    pub allocs: u64,
    /// Free events since accounting was enabled.
    pub frees: u64,
    /// Bytes allocated since accounting was enabled.
    pub alloc_bytes: u64,
    /// Bytes freed since accounting was enabled.
    pub free_bytes: u64,
    /// Bytes currently live (allocated − freed, saturating).
    pub live_bytes: u64,
    /// Highest live-bytes value observed (approximate under heavy
    /// cross-thread contention; never resets).
    pub peak_bytes: u64,
}

/// The process-wide ledger right now. All zeros until accounting is
/// enabled *and* a [`CountingAlloc`] is installed.
pub fn global_stats() -> GlobalStats {
    let alloc_bytes = G_ALLOC_BYTES.load(Ordering::Relaxed);
    let free_bytes = G_FREE_BYTES.load(Ordering::Relaxed);
    GlobalStats {
        allocs: G_ALLOCS.load(Ordering::Relaxed),
        frees: G_FREES.load(Ordering::Relaxed),
        alloc_bytes,
        free_bytes,
        live_bytes: alloc_bytes.saturating_sub(free_bytes),
        peak_bytes: G_PEAK.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Per-thread ledger.

/// Monotone per-thread totals (events and bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadTotals {
    /// Allocation events on this thread.
    pub allocs: u64,
    /// Free events on this thread.
    pub frees: u64,
    /// Bytes allocated on this thread.
    pub alloc_bytes: u64,
    /// Bytes freed on this thread.
    pub free_bytes: u64,
}

impl ThreadTotals {
    fn since(&self, earlier: &ThreadTotals) -> ThreadTotals {
        ThreadTotals {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            frees: self.frees.saturating_sub(earlier.frees),
            alloc_bytes: self.alloc_bytes.saturating_sub(earlier.alloc_bytes),
            free_bytes: self.free_bytes.saturating_sub(earlier.free_bytes),
        }
    }
}

struct ThreadCells {
    allocs: Cell<u64>,
    frees: Cell<u64>,
    alloc_bytes: Cell<u64>,
    free_bytes: Cell<u64>,
    live: Cell<u64>,
    peak: Cell<u64>,
    /// Baseline for the current job ([`job_mark`]).
    base: Cell<ThreadTotals>,
}

thread_local! {
    static LOCAL: ThreadCells = const {
        ThreadCells {
            allocs: Cell::new(0),
            frees: Cell::new(0),
            alloc_bytes: Cell::new(0),
            free_bytes: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
            base: Cell::new(ThreadTotals {
                allocs: 0,
                frees: 0,
                alloc_bytes: 0,
                free_bytes: 0,
            }),
        }
    };
}

/// Records one allocation of `bytes` into the ledgers. Called by the
/// installed [`CountingAlloc`] when accounting is enabled; public so
/// tests (whose harness does not install the allocator) can drive the
/// counting machinery directly. Never allocates.
#[inline]
pub fn on_alloc(bytes: u64) {
    let a = G_ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    let f = G_FREE_BYTES.load(Ordering::Relaxed);
    G_PEAK.fetch_max(a.saturating_sub(f), Ordering::Relaxed);
    G_ALLOCS.fetch_add(1, Ordering::Relaxed);
    // try_with: the allocator may run during TLS teardown, where the
    // per-thread ledger is gone — drop the sample rather than abort.
    let _ = LOCAL.try_with(|t| {
        t.allocs.set(t.allocs.get().wrapping_add(1));
        t.alloc_bytes.set(t.alloc_bytes.get().wrapping_add(bytes));
        let live = t.live.get().wrapping_add(bytes);
        t.live.set(live);
        if live > t.peak.get() {
            t.peak.set(live);
        }
    });
}

/// Records one free of `bytes` into the ledgers (see [`on_alloc`]).
/// Per-thread live bytes saturate at zero, so freeing memory another
/// thread allocated cannot underflow.
#[inline]
pub fn on_dealloc(bytes: u64) {
    G_FREE_BYTES.fetch_add(bytes, Ordering::Relaxed);
    G_FREES.fetch_add(1, Ordering::Relaxed);
    let _ = LOCAL.try_with(|t| {
        t.frees.set(t.frees.get().wrapping_add(1));
        t.free_bytes.set(t.free_bytes.get().wrapping_add(bytes));
        t.live.set(t.live.get().saturating_sub(bytes));
    });
}

/// Monotone totals for the current thread.
pub fn thread_totals() -> ThreadTotals {
    LOCAL.with(|t| ThreadTotals {
        allocs: t.allocs.get(),
        frees: t.frees.get(),
        alloc_bytes: t.alloc_bytes.get(),
        free_bytes: t.free_bytes.get(),
    })
}

/// Bytes currently live on this thread's ledger.
pub fn thread_live() -> u64 {
    LOCAL.with(|t| t.live.get())
}

/// This thread's heap high-water mark since the last [`job_mark`] (or
/// thread start).
pub fn thread_peak() -> u64 {
    LOCAL.with(|t| t.peak.get())
}

/// Job-level deltas for this thread since the last [`job_mark`]: the
/// monotone totals minus their baseline, plus the current peak.
pub fn job_delta() -> (ThreadTotals, u64) {
    LOCAL.with(|t| {
        let now = ThreadTotals {
            allocs: t.allocs.get(),
            frees: t.frees.get(),
            alloc_bytes: t.alloc_bytes.get(),
            free_bytes: t.free_bytes.get(),
        };
        (now.since(&t.base.get()), t.peak.get())
    })
}

/// Marks a job boundary on this thread: future [`job_delta`]s count from
/// here, and the thread peak restarts from the bytes currently live.
pub fn job_mark() {
    LOCAL.with(|t| {
        t.base.set(ThreadTotals {
            allocs: t.allocs.get(),
            frees: t.frees.get(),
            alloc_bytes: t.alloc_bytes.get(),
            free_bytes: t.free_bytes.get(),
        });
        t.peak.set(t.live.get());
    });
}

// ---------------------------------------------------------------------------
// Span attribution.

/// What an open [`crate::trace`] span remembers of this thread's ledger
/// to attribute heap activity when it closes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanMark {
    entry: ThreadTotals,
    entry_live: u64,
    /// The thread peak at entry; the span lowers the watermark to its
    /// entry live bytes to observe its own high-water, and restores
    /// `max(saved, observed)` on close so enclosing spans stay correct.
    saved_peak: u64,
}

/// Marks a span opening; `None` (one relaxed atomic load) when
/// accounting is disabled.
#[inline]
pub(crate) fn span_enter() -> Option<SpanMark> {
    if !enabled() {
        return None;
    }
    Some(LOCAL.with(|t| {
        let entry = ThreadTotals {
            allocs: t.allocs.get(),
            frees: t.frees.get(),
            alloc_bytes: t.alloc_bytes.get(),
            free_bytes: t.free_bytes.get(),
        };
        let live = t.live.get();
        let saved_peak = t.peak.get();
        t.peak.set(live);
        SpanMark {
            entry,
            entry_live: live,
            saved_peak,
        }
    }))
}

/// Closes the span opened at `mark`: writes its allocation deltas and
/// its own heap growth (high-water minus bytes live at entry) into
/// `stats`, restores the enclosing watermark, and returns this thread's
/// heap high-water.
pub(crate) fn span_exit(mark: SpanMark, stats: &mut SpanStats) -> u64 {
    LOCAL.with(|t| {
        let observed = t.peak.get();
        let thread_peak = observed.max(mark.saved_peak);
        t.peak.set(thread_peak);
        stats.allocs = t.allocs.get().saturating_sub(mark.entry.allocs);
        stats.alloc_bytes = t.alloc_bytes.get().saturating_sub(mark.entry.alloc_bytes);
        stats.peak_bytes = observed.saturating_sub(mark.entry_live);
        thread_peak
    })
}

// ---------------------------------------------------------------------------
// The allocator.

/// A `GlobalAlloc` wrapper over [`System`] feeding [`on_alloc`] /
/// [`on_dealloc`] when accounting is enabled. Install in a binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: engine::mem::CountingAlloc = engine::mem::CountingAlloc::new();
/// ```
#[derive(Debug, Default)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// The wrapper (stateless; all ledgers are module statics).
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }
}

// SAFETY: every method delegates to `System`, which upholds the
// GlobalAlloc contract; the accounting hooks never allocate, never
// unwind across the allocator boundary (they are panic-free arithmetic
// on atomics and Cells), and do not touch the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && enabled() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && enabled() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if enabled() {
            on_dealloc(layout.size() as u64);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && enabled() {
            // One alloc event for the new block, one free for the old:
            // a grow-in-place still retires the old extent logically.
            on_alloc(new_size as u64);
            on_dealloc(layout.size() as u64);
        }
        p
    }
}

// ---------------------------------------------------------------------------
// RSS probes.

fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb = rest.trim().trim_end_matches("kB").trim();
            return kb.parse().ok();
        }
    }
    None
}

/// Peak resident set size in KiB (`VmHWM` from `/proc/self/status`);
/// `None` off Linux or when the field is absent.
pub fn peak_rss_kib() -> Option<u64> {
    proc_status_kib("VmHWM:")
}

/// Current resident set size in KiB (`VmRSS` from `/proc/self/status`);
/// `None` off Linux or when the field is absent.
pub fn current_rss_kib() -> Option<u64> {
    proc_status_kib("VmRSS:")
}

/// Peak resident set size in bytes (see [`peak_rss_kib`]).
pub fn peak_rss() -> Option<u64> {
    peak_rss_kib().map(|k| k * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry;
    use crate::trace::span;

    use super::TEST_GATE as GATE;

    /// Serializes tests that toggle the process-wide gate.
    fn with_gate<R>(f: impl FnOnce() -> R) -> R {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        telemetry::reset();
        job_mark();
        let r = f();
        set_enabled(false);
        r
    }

    /// Worker threads attribute allocations to spans on their own
    /// ledgers; taking each worker's telemetry and merging it into the
    /// caller (what `partition_map` does with its block jobs) gives the
    /// exact sums, and the max of the per-thread peaks.
    #[test]
    fn worker_memory_merges_into_the_caller() {
        with_gate(|| {
            let workers: Vec<telemetry::Telemetry> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|i| {
                        s.spawn(move || {
                            {
                                let _s = span("frtcheck_sweep");
                                // Worker 0 books 1000 bytes in 1 event,
                                // worker 1 books 2000 in 2: distinct
                                // shapes so the merge is checkable.
                                for _ in 0..=i {
                                    on_alloc(1000);
                                }
                                for _ in 0..=i {
                                    on_dealloc(1000);
                                }
                            }
                            telemetry::take()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for w in &workers {
                telemetry::merge_local(w);
            }
            let t = telemetry::take();
            let sweep = t.spans.get("frtcheck_sweep").expect("sweeps closed");
            assert_eq!(sweep.count, 2);
            assert_eq!(sweep.allocs, 3, "1 + 2 events from the two workers");
            assert_eq!(sweep.alloc_bytes, 3000);
            // Peak merges as a max across threads: worker 1 held 2000 live.
            assert_eq!(sweep.peak_bytes, 2000);
            assert_eq!(t.mem.allocs, 3, "job ledger covers worker threads");
            assert_eq!(t.mem.peak_bytes, 2000);
        });
    }

    #[test]
    fn gate_off_spans_record_no_heap_and_hooks_unused() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        telemetry::reset();
        job_mark();
        let before = thread_totals();
        {
            let _s = span("expand");
            // The allocator hooks are behind `enabled()`; with the gate
            // off nothing in this block records anything.
            let v: Vec<u64> = (0..64).collect();
            assert_eq!(v.len(), 64);
        }
        assert_eq!(thread_totals(), before);
        let t = telemetry::snapshot();
        assert!(t.mem.is_empty(), "gate off must leave MemStats zeroed");
        let expand = t.spans.get("expand").expect("the span itself still closed");
        assert_eq!(
            (expand.allocs, expand.alloc_bytes, expand.peak_bytes),
            (0, 0, 0)
        );
    }

    #[test]
    fn counting_tracks_live_and_peak() {
        with_gate(|| {
            let t0 = thread_totals();
            on_alloc(1000);
            on_alloc(500);
            on_dealloc(300);
            let t1 = thread_totals();
            assert_eq!(t1.allocs - t0.allocs, 2);
            assert_eq!(t1.frees - t0.frees, 1);
            assert_eq!(t1.alloc_bytes - t0.alloc_bytes, 1500);
            assert_eq!(t1.free_bytes - t0.free_bytes, 300);
            let g = global_stats();
            assert!(g.peak_bytes >= 1500);
            assert!(g.alloc_bytes >= 1500);
        });
    }

    #[test]
    fn dealloc_without_alloc_saturates() {
        with_gate(|| {
            // Freeing bytes this thread never allocated (cross-thread
            // hand-off) must clamp live at zero, not wrap to u64::MAX.
            let live0 = thread_live();
            on_dealloc(u64::MAX / 2);
            assert!(thread_live() <= live0);
            on_alloc(64);
            assert!(thread_peak() >= thread_live());
        });
    }

    #[test]
    fn span_attributes_heap_delta_and_peak() {
        with_gate(|| {
            {
                let _s = span("min_cut");
                on_alloc(4096);
                on_alloc(4096);
                on_dealloc(4096);
            }
            let t = telemetry::snapshot();
            let p = t.spans.get("min_cut").expect("span closed");
            assert_eq!(p.allocs, 2);
            assert_eq!(p.alloc_bytes, 8192);
            assert_eq!(p.peak_bytes, 8192);
            assert!(p.wall_nanos > 0);
            assert!(t.spans.get("expand").is_none());
        });
    }

    #[test]
    fn nested_spans_restore_enclosing_watermark() {
        with_gate(|| {
            {
                let _outer = span("frtcheck_sweep");
                on_alloc(10_000);
                {
                    let _inner = span("min_cut");
                    on_alloc(100);
                    on_dealloc(100);
                }
                on_dealloc(10_000);
            }
            let t = telemetry::snapshot();
            // Inner observed only its own 100-byte bump…
            assert_eq!(t.spans.get("min_cut").unwrap().peak_bytes, 100);
            // …while the outer (inclusive) saw the 10k base plus the
            // inner's 100 on top: the restore must not lose either.
            let outer = t.spans.get("frtcheck_sweep").unwrap();
            assert_eq!(outer.peak_bytes, 10_100);
            assert_eq!(outer.allocs, 2);
        });
    }

    #[test]
    fn job_mark_restarts_deltas_and_peak() {
        with_gate(|| {
            on_alloc(2048);
            job_mark();
            let (d, _) = job_delta();
            assert_eq!(d.allocs, 0);
            assert_eq!(d.alloc_bytes, 0);
            on_alloc(1);
            let (d, peak) = job_delta();
            assert_eq!(d.allocs, 1);
            assert_eq!(d.alloc_bytes, 1);
            assert!(peak >= thread_live());
            on_dealloc(2049);
        });
    }

    #[test]
    fn merge_and_since_roundtrip() {
        let a = MemStats {
            allocs: 2,
            peak_bytes: 80,
            ..MemStats::default()
        };
        let b = MemStats {
            allocs: 1,
            peak_bytes: 120,
            ..MemStats::default()
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.allocs, 3);
        assert_eq!(m.peak_bytes, 120);
        let d = m.since(&b);
        assert_eq!(d.allocs, 2);
        // Peak did not grow past `b`'s, so the interval reports zero…
        assert_eq!(d.peak_bytes, 0);
        // …and a grown peak reports its absolute value.
        assert_eq!(m.since(&a).peak_bytes, 120);
    }

    #[test]
    fn rss_probe_reports_on_linux() {
        if cfg!(target_os = "linux") {
            let peak = peak_rss_kib().expect("VmHWM present on Linux");
            assert!(peak > 0);
            assert_eq!(peak_rss(), Some(peak * 1024));
            assert!(current_rss_kib().expect("VmRSS present") > 0);
        }
    }

    #[test]
    fn counting_allocator_delegates() {
        // Not installed as the global allocator here; exercise the
        // wrapper directly to prove delegation + accounting wiring.
        with_gate(|| {
            let a = CountingAlloc::new();
            let layout = Layout::from_size_align(256, 8).expect("layout");
            let t0 = thread_totals();
            unsafe {
                let p = a.alloc(layout);
                assert!(!p.is_null());
                let p2 = a.realloc(p, layout, 512);
                assert!(!p2.is_null());
                let grown = Layout::from_size_align(512, 8).expect("layout");
                a.dealloc(p2, grown);
                let z = a.alloc_zeroed(layout);
                assert!(!z.is_null());
                assert_eq!(std::slice::from_raw_parts(z, 256).iter().sum::<u8>(), 0);
                a.dealloc(z, layout);
            }
            let t1 = thread_totals().since(&t0);
            assert_eq!(t1.allocs, 3); // alloc + realloc + alloc_zeroed
            assert_eq!(t1.frees, 3); // realloc retire + two deallocs
            assert_eq!(t1.alloc_bytes, 256 + 512 + 256);
            assert_eq!(t1.free_bytes, 256 + 512 + 256);
        });
    }
}
