//! Structured per-job telemetry: counters and phase timers.
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
//! (`retiming::moves`). Phase timers split wall time into the pipeline's
//! four stages: label / search / generate / verify.

use crate::hist::{Histogram, Metric, NUM_HISTS};
use crate::mem::{self, MemPhase, MemPhaseStats, MemStats};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
    /// Label sweeps skipped thanks to warm-started Φ probes (estimated as
    /// the previous feasible probe's sweep count minus this probe's).
    SweepsSaved = 8,
    /// Fuzz cases executed to completion by the differential oracle
    /// (`crates/fuzz`): generated, mapped by all three flows, and judged.
    CasesRun = 9,
    /// Individual oracle-check failures recorded by the fuzzer (one per
    /// violated invariant, so a single case can contribute several).
    OracleFailures = 10,
    /// Accepted shrinker reductions while minimizing failing fuzz cases.
    ShrinkSteps = 11,
    /// Mapping reports generated (`crates/report`): witness extraction
    /// plus timing attribution for one run.
    ReportsGenerated = 12,
}

/// Number of [`Counter`] variants.
pub const NUM_COUNTERS: usize = 13;

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
    "sweeps_saved",
    "cases_run",
    "oracle_failures",
    "shrink_steps",
    "reports_generated",
];

/// Pipeline phases timed per job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Label computation (FRTcheck / general check / FlowMap labels).
    Label = 0,
    /// Structure search: expanded-circuit construction and final cuts.
    Search = 1,
    /// Mapping generation, retiming and initial-state computation.
    Generate = 2,
    /// Equivalence verification of the result.
    Verify = 3,
}

/// Number of [`Phase`] variants.
pub const NUM_PHASES: usize = 4;

/// Stable phase names, indexed by `Phase as usize` (JSON keys).
pub const PHASE_NAMES: [&str; NUM_PHASES] = ["label", "search", "generate", "verify"];

impl Phase {
    /// The phase with index `i` (`Phase as usize`), if in range.
    pub fn from_index(i: usize) -> Option<Phase> {
        match i {
            0 => Some(Phase::Label),
            1 => Some(Phase::Search),
            2 => Some(Phase::Generate),
            3 => Some(Phase::Verify),
            _ => None,
        }
    }
}

/// A merged telemetry snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Counter values, indexed by `Counter as usize`.
    pub counters: [u64; NUM_COUNTERS],
    /// Accumulated phase durations in nanoseconds, indexed by
    /// `Phase as usize`.
    pub phase_nanos: [u64; NUM_PHASES],
    /// Streaming distribution histograms, indexed by
    /// `hist::Metric as usize`.
    pub hists: [Histogram; NUM_HISTS],
    /// Memory accounting: per-phase attributions from
    /// [`mem::MemScope`]s plus the job's allocation ledger. All zeros
    /// unless [`mem::set_enabled`] turned accounting on.
    pub mem: MemStats,
}

impl Telemetry {
    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Accumulated seconds spent in one phase.
    pub fn phase_secs(&self, p: Phase) -> f64 {
        self.phase_nanos[p as usize] as f64 / 1e9
    }

    /// Total seconds across all phases.
    pub fn total_phase_secs(&self) -> f64 {
        self.phase_nanos.iter().sum::<u64>() as f64 / 1e9
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
        for i in 0..NUM_PHASES {
            self.phase_nanos[i] += other.phase_nanos[i];
        }
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
        for i in 0..NUM_PHASES {
            out.phase_nanos[i] = self.phase_nanos[i].saturating_sub(earlier.phase_nanos[i]);
        }
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
/// ([`install_mirror`]): every [`count`] and every finished
/// [`PhaseTimer`] segment then also lands in these atomics, so another
/// thread — the `tmfrt serve` `/jobs/<id>` handler — can read a running
/// job's counters-so-far without touching the worker's thread-locals.
/// Histograms are **not** mirrored (64 atomic buckets per sample would
/// tax the hot paths); they arrive with the final [`Telemetry`] at job
/// end. `current_phase` tracks the innermost open phase timer, feeding
/// the serve monitor's phase-transition events.
#[derive(Debug, Default)]
pub struct LiveTelemetry {
    counters: [AtomicU64; NUM_COUNTERS],
    phase_nanos: [AtomicU64; NUM_PHASES],
    /// `Phase as usize`, or `NUM_PHASES` when no phase timer is open.
    current_phase: AtomicUsize,
    /// Heap high-water so far (bytes), max-merged from closing
    /// [`mem::MemScope`]s on the mirrored threads.
    mem_peak_bytes: AtomicU64,
    /// Allocation events so far inside memory scopes on the mirrored
    /// threads.
    mem_allocs: AtomicU64,
}

impl LiveTelemetry {
    /// A zeroed live view with no open phase.
    pub fn new() -> LiveTelemetry {
        let live = LiveTelemetry::default();
        live.current_phase.store(NUM_PHASES, Ordering::Relaxed);
        live
    }

    /// A point-in-time copy of the mirrored counters and phase timers
    /// (histogram slots stay empty — see the type docs).
    pub fn snapshot(&self) -> Telemetry {
        let mut t = Telemetry::default();
        for i in 0..NUM_COUNTERS {
            t.counters[i] = self.counters[i].load(Ordering::Relaxed);
        }
        for i in 0..NUM_PHASES {
            t.phase_nanos[i] = self.phase_nanos[i].load(Ordering::Relaxed);
        }
        t.mem.peak_bytes = self.mem_peak_bytes.load(Ordering::Relaxed);
        t.mem.allocs = self.mem_allocs.load(Ordering::Relaxed);
        t
    }

    /// Heap high-water mark mirrored so far, in bytes (zero when memory
    /// accounting is off).
    pub fn mem_peak_bytes(&self) -> u64 {
        self.mem_peak_bytes.load(Ordering::Relaxed)
    }

    /// The phase whose timer is currently open on the mirrored job, if
    /// any.
    pub fn current_phase(&self) -> Option<Phase> {
        Phase::from_index(self.current_phase.load(Ordering::Relaxed))
    }

    fn add_count(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn add_phase(&self, p: Phase, nanos: u64) {
        self.phase_nanos[p as usize].fetch_add(nanos, Ordering::Relaxed);
    }

    fn note_mem(&self, allocs: u64, thread_peak: u64) {
        self.mem_allocs.fetch_add(allocs, Ordering::Relaxed);
        self.mem_peak_bytes
            .fetch_max(thread_peak, Ordering::Relaxed);
    }

    /// Marks `p` open, returning the previous marker for restoration.
    fn enter_phase(&self, p: Phase) -> usize {
        self.current_phase.swap(p as usize, Ordering::Relaxed)
    }

    fn restore_phase(&self, prev: usize) {
        self.current_phase.store(prev, Ordering::Relaxed);
    }
}

thread_local! {
    static COUNTERS: [Cell<u64>; NUM_COUNTERS] = const {
        [const { Cell::new(0) }; NUM_COUNTERS]
    };
    static PHASES: [Cell<u64>; NUM_PHASES] = const {
        [const { Cell::new(0) }; NUM_PHASES]
    };
    static HISTS: RefCell<[Histogram; NUM_HISTS]> =
        const { RefCell::new([Histogram::zeroed(); NUM_HISTS]) };
    static MIRROR: RefCell<Option<Arc<LiveTelemetry>>> = const { RefCell::new(None) };
    /// Memory telemetry accumulated on this thread: phase attributions
    /// from closing [`mem::MemScope`]s plus worker snapshots folded in
    /// by [`merge_local`]. The job-thread allocator ledger
    /// ([`mem::job_delta`]) is added at [`snapshot`] time, not here.
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
    PHASES.with(|ps| {
        for (i, cell) in ps.iter().enumerate() {
            cell.set(cell.get().wrapping_add(t.phase_nanos[i]));
        }
    });
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

/// Accumulates one closing [`mem::MemScope`]'s attribution into the
/// current thread's telemetry and, when a mirror is installed, its
/// live aggregates (`thread_peak` is the thread heap high-water for the
/// mirror's max-merge). Called by `mem`, not user code.
pub(crate) fn mem_phase_add(phase: MemPhase, stats: &MemPhaseStats, thread_peak: u64) {
    MEM_ACC.with(|m| {
        let mut acc = m.get();
        acc.phases[phase as usize].merge(stats);
        m.set(acc);
    });
    with_mirror(|live| live.note_mem(stats.allocs, thread_peak));
}

/// Installs `live` as the current thread's telemetry mirror for the
/// lifetime of the returned guard (the previous mirror is restored on
/// drop). Counters and phase-timer segments recorded on this thread are
/// duplicated into the mirror's atomics.
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
    with_mirror(|live| live.add_count(c, n));
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
    PHASES.with(|ps| {
        for (i, cell) in ps.iter().enumerate() {
            t.phase_nanos[i] = cell.get();
        }
    });
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
    PHASES.with(|ps| ps.iter().for_each(|p| p.set(0)));
    HISTS.with(|hs| *hs.borrow_mut() = [Histogram::zeroed(); NUM_HISTS]);
    MEM_ACC.with(|m| m.set(MemStats::new()));
    mem::job_mark();
    t
}

/// Resets the current thread's telemetry to zero.
pub fn reset() {
    let _ = take();
}

/// RAII timer: created by [`time_phase`], adds the elapsed monotonic time
/// to the phase's thread-local accumulator (and the installed mirror, if
/// any) on drop.
#[derive(Debug)]
pub struct PhaseTimer {
    phase: Phase,
    start: Instant,
    /// The mirror's previous `current_phase` marker, restored on drop
    /// (`None` when no mirror was installed at creation).
    mirror_prev: Option<usize>,
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        PHASES.with(|ps| {
            let cell = &ps[self.phase as usize];
            cell.set(cell.get().wrapping_add(nanos));
        });
        if let Some(prev) = self.mirror_prev {
            with_mirror(|live| {
                live.add_phase(self.phase, nanos);
                live.restore_phase(prev);
            });
        }
    }
}

/// Starts timing `phase` until the returned guard drops.
#[inline]
pub fn time_phase(phase: Phase) -> PhaseTimer {
    let mut mirror_prev = None;
    with_mirror(|live| mirror_prev = Some(live.enter_phase(phase)));
    PhaseTimer {
        phase,
        start: Instant::now(),
        mirror_prev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn phase_timer_accumulates() {
        reset();
        {
            let _t = time_phase(Phase::Label);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let t = take();
        assert!(t.phase_nanos[Phase::Label as usize] > 0);
        assert_eq!(t.phase_nanos[Phase::Verify as usize], 0);
        assert!(t.phase_secs(Phase::Label) > 0.0);
    }

    #[test]
    fn merge_and_since() {
        let mut a = Telemetry::default();
        a.counters[0] = 2;
        a.phase_nanos[1] = 10;
        let mut b = Telemetry::default();
        b.counters[0] = 3;
        b.phase_nanos[1] = 5;
        a.merge(&b);
        assert_eq!(a.counters[0], 5);
        assert_eq!(a.phase_nanos[1], 15);
        let d = a.since(&b);
        assert_eq!(d.counters[0], 2);
        assert_eq!(d.phase_nanos[1], 10);
    }

    #[test]
    fn names_cover_variants() {
        assert_eq!(COUNTER_NAMES.len(), NUM_COUNTERS);
        assert_eq!(PHASE_NAMES.len(), NUM_PHASES);
        assert_eq!(
            COUNTER_NAMES[Counter::BackwardMoves as usize],
            "backward_moves"
        );
        assert_eq!(PHASE_NAMES[Phase::Verify as usize], "verify");
        // Every counter (0..=12 = FlowAugmentations..ReportsGenerated) has
        // a distinct JSON key — a duplicate would silently shadow a column
        // in the artifact.
        let unique: std::collections::HashSet<&str> = COUNTER_NAMES.iter().copied().collect();
        assert_eq!(unique.len(), NUM_COUNTERS);
        assert_eq!(Counter::FlowAugmentations as usize, 0);
        assert_eq!(COUNTER_NAMES[Counter::FrtCapped as usize], "frt_capped");
        assert_eq!(COUNTER_NAMES[Counter::SweepsSaved as usize], "sweeps_saved");
        assert_eq!(COUNTER_NAMES[Counter::CasesRun as usize], "cases_run");
        assert_eq!(
            COUNTER_NAMES[Counter::OracleFailures as usize],
            "oracle_failures"
        );
        assert_eq!(COUNTER_NAMES[Counter::ShrinkSteps as usize], "shrink_steps");
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
        merge_local(&worker);
        // Thread-local view has both; the mirror saw nothing from the merge.
        assert_eq!(snapshot().counter(Counter::FrtSweeps), 7);
        assert_eq!(snapshot().hist(Metric::CutSize).count, 2);
        assert_eq!(live.snapshot().counter(Counter::FrtSweeps), 0);
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
    fn mirror_sees_live_counts_and_phases() {
        reset();
        let live = Arc::new(LiveTelemetry::new());
        assert_eq!(live.current_phase(), None);
        {
            let _g = install_mirror(Arc::clone(&live));
            count(Counter::FlowAugmentations, 4);
            {
                let _t = time_phase(Phase::Search);
                assert_eq!(live.current_phase(), Some(Phase::Search));
                {
                    let _inner = time_phase(Phase::Label);
                    assert_eq!(live.current_phase(), Some(Phase::Label));
                }
                // Nested timer restored the outer phase marker.
                assert_eq!(live.current_phase(), Some(Phase::Search));
            }
            assert_eq!(live.current_phase(), None);
        }
        // Mirror uninstalled: further counts stay local.
        count(Counter::FlowAugmentations, 10);
        let snap = live.snapshot();
        assert_eq!(snap.counter(Counter::FlowAugmentations), 4);
        assert!(snap.phase_nanos[Phase::Search as usize] > 0);
        assert!(snap.phase_nanos[Phase::Label as usize] > 0);
        // The thread-local view kept everything.
        assert_eq!(take().counter(Counter::FlowAugmentations), 14);
    }

    #[test]
    fn phase_from_index_roundtrips() {
        for i in 0..NUM_PHASES {
            assert_eq!(Phase::from_index(i).map(|p| p as usize), Some(i));
        }
        assert_eq!(Phase::from_index(NUM_PHASES), None);
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
