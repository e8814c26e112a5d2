//! Streaming log-bucketed histograms (HDR-style, std-only).
//!
//! A [`Histogram`] sorts `u64` samples into power-of-2 buckets: bucket 0
//! holds the value 0 and bucket `i ≥ 1` holds values in
//! `[2^(i-1), 2^i)` (the value's bit length). Recording is one branch,
//! one `leading_zeros` and three integer adds — cheap enough for the
//! mapping hot paths — and every field is a monotone counter, so
//! histograms merge by addition and diff by subtraction exactly like the
//! scalar telemetry counters they ride along with.
//!
//! Quantiles are estimated from the bucket boundaries: `quantile(q)`
//! returns the upper bound of the bucket containing the `⌈q·count⌉`-th
//! smallest sample (so the estimate errs high by at most 2×, the bucket
//! width). This is the classic HDR trade: bounded relative error, fixed
//! memory, O(1) recording, mergeable across jobs and threads.

/// Number of buckets: bucket 0 plus one per possible bit length.
pub const NUM_BUCKETS: usize = 64;

/// Process-wide count of out-of-order [`Histogram::since`] calls.
///
/// Deliberately *not* a telemetry [`crate::Counter`] variant: the counter
/// names are JSON keys of the benchmark artifact schema, and a
/// diagnostics-only counter must not perturb byte-identical canonical
/// artifacts. Read it with [`snapshot_inversions`].
static SNAPSHOT_INVERSIONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Number of [`Histogram::since`] calls (since process start) that observed
/// an inverted snapshot pair — `earlier` taken *after* `self`. Any nonzero
/// value means some phase report silently truncated a window to zero.
pub fn snapshot_inversions() -> u64 {
    SNAPSHOT_INVERSIONS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Histogram metrics recorded by the mapping pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// Signals per K-cut a cut query found: the qualifying cut of a
    /// `flowmap::cutenum` scan, or the cut `turbomap::cutsearch::find_cut`
    /// extracted.
    CutSize = 0,
    /// Augmenting paths per completed max-flow run (one per min-cut).
    AugmentationsPerCut = 1,
    /// FRTcheck / general-check label sweeps per probed Φ.
    SweepsPerPhi = 2,
    /// Gate label updates (cut queries) per Φ probe, each answered from the
    /// probe-invariant cut arena or a fallback gate's kept expansion (one
    /// sample per label-check call).
    CacheHitsPerProbe = 3,
    /// Gate count of each generated fuzz case (`crates/fuzz`), recorded
    /// after generation so the campaign's size distribution is visible.
    FuzzCaseGates = 4,
}

/// Number of [`Metric`] variants.
pub const NUM_HISTS: usize = 5;

/// Stable snake_case metric names, indexed by `Metric as usize` (JSON
/// keys in the `turbomap-bench/table1/v2` artifact).
pub const HIST_NAMES: [&str; NUM_HISTS] = [
    "cut_size",
    "augmentations_per_cut",
    "sweeps_per_phi",
    "cache_hits_per_probe",
    "fuzz_case_gates",
];

/// A streaming log-bucketed histogram. All fields are monotone counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow, like the counters).
    pub sum: u64,
    /// Per-bucket sample counts; see the module docs for the layout.
    pub buckets: [u64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }
}

/// Bucket index of a value: 0 for 0, otherwise its bit length (capped at
/// the last bucket).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket (the quantile estimate it yields).
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= NUM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// An empty histogram (`const`, so it can seed thread-local state).
    pub const fn zeroed() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }

    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count = self.count.wrapping_add(1);
        self.sum = self.sum.wrapping_add(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        for i in 0..NUM_BUCKETS {
            self.buckets[i] += other.buckets[i];
        }
    }

    /// This histogram minus an earlier snapshot: valid because every
    /// field is monotone *when the snapshots are taken in order*.
    ///
    /// Passing snapshots out of order (`earlier` newer than `self`) used
    /// to zero the affected fields silently via saturating subtraction,
    /// which reads as "no samples in this window" — a lie. The inversion
    /// is now detected: debug builds panic at the call site, release
    /// builds still saturate (a phase report is better truncated than
    /// lost mid-run) but bump the process-wide
    /// [`snapshot_inversions`] counter so the corruption is visible.
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        let inverted = self.count < earlier.count
            || self.sum < earlier.sum
            || (0..NUM_BUCKETS).any(|i| self.buckets[i] < earlier.buckets[i]);
        if inverted {
            SNAPSHOT_INVERSIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            debug_assert!(
                false,
                "Histogram::since called with an out-of-order snapshot \
                 (earlier count={}/sum={} vs self count={}/sum={})",
                earlier.count, earlier.sum, self.count, self.sum
            );
        }
        let mut out = Histogram {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            ..Histogram::default()
        };
        for i in 0..NUM_BUCKETS {
            out.buckets[i] = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        out
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ≤ q ≤ 1.0`), or
    /// `None` when empty. `quantile(1.0)` is the max's bucket bound.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Some(bucket_upper_bound(i));
            }
        }
        // Unreachable when count equals the bucket total, but stay safe.
        Some(bucket_upper_bound(NUM_BUCKETS - 1))
    }

    /// Non-empty buckets as `(index, count)` pairs, ascending — the
    /// compact form the JSON artifact stores.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn record_and_quantiles() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        for v in [1u64, 1, 2, 3, 5, 8, 13, 100] {
            h.record(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 133);
        // Median lands in the bucket of 2..=3.
        assert_eq!(h.quantile(0.5), Some(3));
        // The top sample (100) is in bucket [64, 127].
        assert_eq!(h.quantile(1.0), Some(127));
    }

    #[test]
    fn merge_and_since_are_inverse() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..10 {
            a.record(v);
        }
        for v in 100..105 {
            b.record(v);
        }
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count, 15);
        assert_eq!(merged.since(&a), b);
        assert_eq!(merged.since(&b), a);
    }

    #[test]
    fn since_in_order_does_not_bump_inversion_counter() {
        let before = snapshot_inversions();
        let mut early = Histogram::new();
        early.record(3);
        let mut late = early;
        late.record(9);
        let diff = late.since(&early);
        assert_eq!(diff.count, 1);
        assert_eq!(diff.sum, 9);
        assert_eq!(snapshot_inversions(), before);
    }

    #[test]
    fn since_out_of_order_is_detected() {
        let mut early = Histogram::new();
        early.record(3);
        let mut late = early;
        late.record(9);
        let before = snapshot_inversions();
        // Arguments swapped: `earlier` is the newer snapshot.
        let result = std::panic::catch_unwind(|| early.since(&late));
        assert_eq!(snapshot_inversions(), before + 1);
        if cfg!(debug_assertions) {
            // Debug builds fail fast at the call site.
            assert!(result.is_err());
        } else {
            // Release builds keep the (truncated) saturating behaviour.
            let diff = result.unwrap();
            assert_eq!(diff.count, 0);
            assert_eq!(diff.sum, 0);
        }
    }

    #[test]
    fn nonzero_buckets_compact() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        h.record(5);
        assert_eq!(h.nonzero_buckets(), vec![(0, 2), (3, 1)]);
    }

    #[test]
    fn names_cover_metrics() {
        assert_eq!(HIST_NAMES.len(), NUM_HISTS);
        assert_eq!(HIST_NAMES[Metric::CutSize as usize], "cut_size");
        assert_eq!(
            HIST_NAMES[Metric::FuzzCaseGates as usize],
            "fuzz_case_gates"
        );
        assert_eq!(Metric::FuzzCaseGates as usize, NUM_HISTS - 1);
        let unique: std::collections::HashSet<&str> = HIST_NAMES.iter().copied().collect();
        assert_eq!(unique.len(), NUM_HISTS);
    }
}
