//! Shortest and longest path computations.
//!
//! Two path problems underpin the paper's label machinery:
//!
//! * **Maximum forward retiming values** (Lemma 1): `frt(v)` is the minimum
//!   path *weight* (flip-flop count) over all paths from any PI to `v` — a
//!   multi-source shortest path problem with non-negative weights, solved by
//!   [`dijkstra_csr`].
//! * **l-values** (Theorem 1): `l(v)` is the maximum path *length* from any
//!   PI to `v` where each edge `e(u,v)` has length `d(v) − Φ·w(e)`. The
//!   retiming graph is cyclic, so this is a Bellman–Ford-style longest path
//!   with positive cycles signalling infeasibility, solved by
//!   [`longest_paths`].
//!
//! Dijkstra runs once per circuit; the longest-path solver runs once per
//! probe of a binary search over Φ. Each has a scratch-reusing form
//! ([`DijkstraScratch`], [`LongestPathScratch`]) that keeps its distance
//! arrays and heap across calls; the free functions are one-shot
//! conveniences over a fresh scratch.
//!
//! A feasibility probe only needs to know whether every l-value stays at
//! or below Φ, so [`LongestPathScratch::run`] takes an optional upper
//! bound and stops with [`LongestPathError::ExceedsBound`] as soon as any
//! length passes it. The exit is exact: relaxation only ever raises a
//! length, and every length it holds is that of a real walk from a
//! source, so a length above the bound means the final answer (if one
//! exists) is above it too. A reachable positive cycle drives its lengths
//! past any finite bound, one gain per lap; with a small bound such as Φ
//! an infeasible probe ends after a handful of rounds instead of the
//! `n + 1` that cycle detection alone needs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "unreachable" in longest-path results (acts as `−∞`).
pub const NEG_INF: i64 = i64::MIN / 4;

/// Reusable state for [`dijkstra_csr`]: the distance array and the binary
/// heap survive across calls, so repeated queries (one per Φ probe) do
/// not touch the allocator once warm.
#[derive(Debug, Default, Clone)]
pub struct DijkstraScratch {
    dist: Vec<Option<u64>>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl DijkstraScratch {
    /// An empty scratch.
    pub fn new() -> DijkstraScratch {
        DijkstraScratch::default()
    }

    /// Multi-source Dijkstra; see [`dijkstra_csr`] for the semantics. The
    /// returned slice borrows this scratch and is valid until the next
    /// call, so the per-Φ probe loops keep one CSR per circuit and one
    /// scratch per search.
    ///
    /// # Panics
    ///
    /// Panics if a source is out of range.
    pub fn run_csr(&mut self, g: &crate::WeightedCsr, sources: &[usize]) -> &[Option<u64>] {
        let n = g.len();
        self.dist.clear();
        self.dist.resize(n, None);
        self.heap.clear();
        for &s in sources {
            assert!(s < n, "source out of range");
            if self.dist[s] != Some(0) {
                self.dist[s] = Some(0);
                self.heap.push(Reverse((0, s)));
            }
        }
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if self.dist[u] != Some(d) {
                continue;
            }
            for (&v, &w) in g.out(u).iter().zip(g.out_weights(u)) {
                let v = v as usize;
                let nd = d + w;
                if self.dist[v].is_none_or(|cur| nd < cur) {
                    self.dist[v] = Some(nd);
                    self.heap.push(Reverse((nd, v)));
                }
            }
        }
        &self.dist
    }
}

/// Multi-source Dijkstra over a weighted CSR graph with non-negative
/// `u64` weights.
///
/// Returns `dist[v] = None` for nodes unreachable from every source.
/// One-shot form of [`DijkstraScratch::run_csr`].
///
/// # Examples
///
/// ```
/// use graphalgo::WeightedCsr;
///
/// let g = WeightedCsr::from_edges(3, &[(0, 1, 0), (0, 2, 2), (1, 2, 1)]);
/// let dist = graphalgo::paths::dijkstra_csr(&g, &[0]);
/// assert_eq!(dist, vec![Some(0), Some(0), Some(1)]);
/// ```
///
/// # Panics
///
/// Panics if a source is out of range.
pub fn dijkstra_csr(g: &crate::WeightedCsr, sources: &[usize]) -> Vec<Option<u64>> {
    let mut scratch = DijkstraScratch::new();
    scratch.run_csr(g, sources);
    scratch.dist
}

/// Error from [`longest_paths`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LongestPathError {
    /// Relaxation failed to converge within `n` rounds, implying a
    /// positive-length cycle reachable from a source. Carries the witness:
    /// the cycle's node sequence in forward edge order (each consecutive
    /// pair `(a, b)` — and the wrap-around pair — is an edge of the input),
    /// rotated so the smallest node id leads. A self-loop yields a
    /// single-node sequence.
    PositiveCycle(Vec<usize>),
    /// A relaxation overflowed `i64` towards `+∞` — path lengths grew past
    /// what the machine can represent, so no finite answer exists.
    Overflow,
    /// A length passed the caller's upper bound (see
    /// [`LongestPathScratch::run`]): the first node seen above it and that
    /// length. The longest path to `node`, if finite, is at least `length`.
    ExceedsBound {
        /// The node whose length passed the bound.
        node: usize,
        /// Its length when the run stopped.
        length: i64,
    },
}

impl std::fmt::Display for LongestPathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LongestPathError::PositiveCycle(cycle) => {
                write!(
                    f,
                    "positive cycle of {} node(s) reachable from a source",
                    cycle.len()
                )
            }
            LongestPathError::Overflow => {
                write!(f, "path length overflowed i64 during relaxation")
            }
            LongestPathError::ExceedsBound { node, length } => {
                write!(f, "length {length} of node {node} exceeds the bound")
            }
        }
    }
}

impl std::error::Error for LongestPathError {}

/// "No predecessor recorded" sentinel in [`LongestPathScratch::pred`].
const NO_PRED: usize = usize::MAX;

/// Reusable state for [`longest_paths`]: the length and predecessor
/// arrays survive across calls (one per Φ probe of a retiming
/// feasibility search).
#[derive(Debug, Default, Clone)]
pub struct LongestPathScratch {
    len: Vec<i64>,
    /// `pred[v]` is the tail of the edge whose relaxation last improved
    /// `len[v]` ([`NO_PRED`] when never improved) — the witness trail for
    /// positive-cycle extraction.
    pred: Vec<usize>,
}

impl LongestPathScratch {
    /// An empty scratch.
    pub fn new() -> LongestPathScratch {
        LongestPathScratch::default()
    }

    /// Longest paths by Bellman–Ford relaxation; see [`longest_paths`] for
    /// the semantics. With `bound = Some(b)` the run stops as soon as any
    /// length exceeds `b` (lengths exactly at `b` are fine). Each round
    /// relaxes `edges` in slice order, so an order that lists each edge
    /// after the edges into its tail settles acyclic stretches in one
    /// round. The returned slice borrows this scratch and is valid until
    /// the next call.
    ///
    /// # Errors
    ///
    /// [`LongestPathError::ExceedsBound`] when a length passes `bound`
    /// (checked before cycle detection, so a positive cycle reachable
    /// from a source usually reports this instead);
    /// [`LongestPathError::PositiveCycle`] — carrying the cycle's node
    /// sequence — when a positive-length cycle is reachable from a
    /// source; [`LongestPathError::Overflow`] when a relaxation overflows
    /// `i64` towards `+∞` (a candidate that underflows towards `−∞` can
    /// never improve a length and is simply skipped — saturation, not an
    /// error).
    ///
    /// # Panics
    ///
    /// Panics if a source is out of range.
    pub fn run(
        &mut self,
        n: usize,
        edges: &[(usize, usize, i64)],
        sources: &[usize],
        bound: Option<i64>,
    ) -> Result<&[i64], LongestPathError> {
        let bound = bound.unwrap_or(i64::MAX);
        self.len.clear();
        self.len.resize(n, NEG_INF);
        self.pred.clear();
        self.pred.resize(n, NO_PRED);
        for &s in sources {
            assert!(s < n, "source out of range");
            if bound < 0 {
                return Err(LongestPathError::ExceedsBound { node: s, length: 0 });
            }
            self.len[s] = 0;
        }
        for round in 0..=n {
            let mut changed = false;
            let mut last_improved = NO_PRED;
            for &(u, v, l) in edges {
                if self.len[u] <= NEG_INF {
                    continue;
                }
                let cand = match self.len[u].checked_add(l) {
                    Some(c) => c,
                    // Underflow: the candidate is far below NEG_INF and can
                    // never improve len[v]; skip it (saturating behaviour).
                    None if l < 0 => continue,
                    None => return Err(LongestPathError::Overflow),
                };
                if cand > self.len[v] {
                    if cand > bound {
                        return Err(LongestPathError::ExceedsBound {
                            node: v,
                            length: cand,
                        });
                    }
                    self.len[v] = cand;
                    self.pred[v] = u;
                    last_improved = v;
                    changed = true;
                }
            }
            if !changed {
                return Ok(&self.len);
            }
            if round == n {
                return Err(LongestPathError::PositiveCycle(
                    self.extract_cycle(last_improved),
                ));
            }
        }
        Ok(&self.len)
    }

    /// Extracts the positive cycle witnessed by a node improved in the
    /// final relaxation round.
    ///
    /// Soundness: a node improved in round `n` used a predecessor value
    /// that itself appeared no earlier than round `n − 1` (an older value
    /// would have propagated across the edge a round sooner), so the
    /// predecessor chain's improvement rounds drop by at most one per
    /// step. A chain ending at a never-improved source would therefore
    /// need more than `n` distinct nodes — impossible — so walking `pred`
    /// from `start` must revisit a node within `n` steps, and that node
    /// lies on a cycle of the predecessor graph. Every predecessor edge
    /// satisfies `len[x] ≤ len[pred[x]] + l` with strict inequality at the
    /// successor of the cycle's most recently improved node, so the
    /// cycle's total length is strictly positive.
    fn extract_cycle(&self, start: usize) -> Vec<usize> {
        let n = self.pred.len();
        let mut seen = vec![false; n];
        let mut v = start;
        while !seen[v] {
            seen[v] = true;
            v = self.pred[v];
        }
        // `v` repeats, so it lies on the cycle: collect the cycle by one
        // more predecessor lap.
        let mut cycle = vec![v];
        let mut u = self.pred[v];
        while u != v {
            cycle.push(u);
            u = self.pred[u];
        }
        // The predecessor walk visits nodes against edge direction;
        // reverse for forward order, then rotate the smallest id to the
        // front so equal cycles render identically regardless of where
        // the walk entered them.
        cycle.reverse();
        let lead = cycle
            .iter()
            .enumerate()
            .min_by_key(|&(_, &x)| x)
            .map(|(i, _)| i)
            .unwrap_or(0);
        cycle.rotate_left(lead);
        cycle
    }
}

/// Longest paths from `sources` over possibly-cyclic graphs with `i64` edge
/// lengths (Bellman–Ford relaxation).
///
/// Source nodes start at length 0; all other nodes at [`NEG_INF`]. A node
/// that remains at `NEG_INF` is unreachable. Relaxation runs at most `n`
/// rounds; if the lengths still change afterwards there is a positive cycle
/// and `Err(LongestPathError::PositiveCycle)` is returned — for l-values
/// this means the target clock period `Φ` is infeasible. Arithmetic is
/// checked: a relaxation overflowing `i64` towards `+∞` reports
/// [`LongestPathError::Overflow`] instead of wrapping. One-shot form of
/// [`LongestPathScratch::run`].
///
/// # Errors
///
/// Returns [`LongestPathError::PositiveCycle`] when a positive-length cycle
/// is reachable from a source, [`LongestPathError::Overflow`] when path
/// lengths exceed `i64`.
///
/// # Examples
///
/// ```
/// // 0 -> 1 (len 1), 1 -> 2 (len -3), 0 -> 2 (len 0)
/// let edges = [(0usize, 1usize, 1i64), (1, 2, -3), (0, 2, 0)];
/// let l = graphalgo::paths::longest_paths(3, &edges, &[0]).unwrap();
/// assert_eq!(l, vec![0, 1, 0]);
/// ```
pub fn longest_paths(
    n: usize,
    edges: &[(usize, usize, i64)],
    sources: &[usize],
) -> Result<Vec<i64>, LongestPathError> {
    let mut scratch = LongestPathScratch::new();
    scratch.run(n, edges, sources, None)?;
    Ok(scratch.len)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::WeightedCsr;

    #[test]
    fn dijkstra_multi_source_takes_min() {
        let g = WeightedCsr::from_edges(4, &[(0, 2, 5), (1, 2, 1), (2, 3, 0)]);
        let dist = dijkstra_csr(&g, &[0, 1]);
        assert_eq!(dist, vec![Some(0), Some(0), Some(1), Some(1)]);
    }

    #[test]
    fn dijkstra_unreachable_is_none() {
        let g = WeightedCsr::from_edges(2, &[(1, 0, 1)]);
        let dist = dijkstra_csr(&g, &[0]);
        assert_eq!(dist, vec![Some(0), None]);
    }

    #[test]
    fn dijkstra_zero_weight_cycle_ok() {
        // 0 -> 1 -> 2 -> 1 with zero weights must terminate.
        let g = WeightedCsr::from_edges(3, &[(0, 1, 0), (1, 2, 0), (2, 1, 0)]);
        let dist = dijkstra_csr(&g, &[0]);
        assert_eq!(dist, vec![Some(0), Some(0), Some(0)]);
    }

    #[test]
    fn dijkstra_scratch_reuse_matches_fresh() {
        let mut scratch = DijkstraScratch::new();
        let a = WeightedCsr::from_edges(2, &[(0, 1, 2)]);
        assert_eq!(scratch.run_csr(&a, &[0]), &[Some(0), Some(2)]);
        // Second, smaller query on the same scratch: no stale state.
        let b = WeightedCsr::from_edges(1, &[]);
        assert_eq!(scratch.run_csr(&b, &[0]), &[Some(0)]);
        // Third, bigger again.
        let c = WeightedCsr::from_edges(3, &[(0, 2, 1), (2, 1, 1)]);
        assert_eq!(scratch.run_csr(&c, &[0]), dijkstra_csr(&c, &[0]).as_slice());
    }

    #[test]
    fn longest_path_on_dag() {
        // Classic: two paths to node 3, lengths 3 and 1.
        let edges = [(0, 1, 1), (1, 3, 2), (0, 2, 1), (2, 3, 0)];
        let l = longest_paths(4, &edges, &[0]).unwrap();
        assert_eq!(l[3], 3);
    }

    #[test]
    fn longest_path_negative_cycle_converges() {
        // Cycle 1 -> 2 -> 1 of total length -1: fine.
        let edges = [(0, 1, 1), (1, 2, 1), (2, 1, -2)];
        let l = longest_paths(3, &edges, &[0]).unwrap();
        assert_eq!(l, vec![0, 1, 2]);
    }

    #[test]
    fn longest_path_zero_cycle_converges() {
        let edges = [(0, 1, 1), (1, 2, 1), (2, 1, -1)];
        let l = longest_paths(3, &edges, &[0]).unwrap();
        assert_eq!(l[1], 1);
        assert_eq!(l[2], 2);
    }

    #[test]
    fn longest_path_positive_cycle_errors_with_witness() {
        // 1 -> 2 (len 1) and 2 -> 1 (len 0): total +1 per lap.
        let edges = [(0, 1, 1), (1, 2, 1), (2, 1, 0)];
        assert_eq!(
            longest_paths(3, &edges, &[0]),
            Err(LongestPathError::PositiveCycle(vec![1, 2]))
        );
    }

    #[test]
    fn positive_cycle_witness_self_loop() {
        let edges = [(0, 1, 0), (1, 1, 2)];
        assert_eq!(
            longest_paths(2, &edges, &[0]),
            Err(LongestPathError::PositiveCycle(vec![1]))
        );
        // Self-loop directly on a source.
        let edges = [(0, 0, 1)];
        assert_eq!(
            longest_paths(1, &edges, &[0]),
            Err(LongestPathError::PositiveCycle(vec![0]))
        );
    }

    #[test]
    fn positive_cycle_witness_two_cycle() {
        // Mixed-sign 2-cycle with positive total (3 - 1 = +2).
        let edges = [(0, 1, 3), (1, 0, -1)];
        match longest_paths(2, &edges, &[0]) {
            Err(LongestPathError::PositiveCycle(cycle)) => {
                assert_eq!(cycle, vec![0, 1]);
            }
            other => panic!("expected a positive-cycle witness, got {other:?}"),
        }
    }

    #[test]
    fn positive_cycle_witness_disconnected_components() {
        // Component A (0, 1) holds the positive cycle; component B
        // (3 -> 4) is acyclic. Both have sources; the witness names only
        // component A's cycle, and B's lengths are still computed before
        // the error fires.
        let edges = [(0, 1, 1), (1, 0, 1), (3, 4, 7)];
        match longest_paths(5, &edges, &[0, 3]) {
            Err(LongestPathError::PositiveCycle(cycle)) => {
                assert_eq!(cycle, vec![0, 1]);
            }
            other => panic!("expected a positive-cycle witness, got {other:?}"),
        }
    }

    /// Every consecutive pair (and the wrap-around pair) of a witness
    /// must be an actual input edge, and the total length must be
    /// strictly positive — the properties an independent checker relies
    /// on.
    #[test]
    fn positive_cycle_witness_is_a_real_positive_cycle() {
        let edges = [
            (0, 1, 2),
            (1, 2, -1),
            (2, 3, 1),
            (3, 1, 1),
            (2, 4, 5),
            (4, 4, -3),
        ];
        let cycle = match longest_paths(5, &edges, &[0]) {
            Err(LongestPathError::PositiveCycle(c)) => c,
            other => panic!("expected a positive-cycle witness, got {other:?}"),
        };
        assert!(!cycle.is_empty());
        let mut total = 0i64;
        for i in 0..cycle.len() {
            let (u, v) = (cycle[i], cycle[(i + 1) % cycle.len()]);
            let l = edges
                .iter()
                .find(|&&(a, b, _)| a == u && b == v)
                .map(|&(_, _, l)| l)
                .unwrap_or_else(|| panic!("witness pair {u} -> {v} is not an edge"));
            total += l;
        }
        assert!(total > 0, "witness cycle has non-positive length {total}");
    }

    #[test]
    fn positive_cycle_unreachable_is_ignored() {
        // Cycle 1 <-> 2 positive but not reachable from source 0.
        let edges = [(1, 2, 1), (2, 1, 1)];
        let l = longest_paths(3, &edges, &[0]).unwrap();
        assert_eq!(l, vec![0, NEG_INF, NEG_INF]);
    }

    #[test]
    fn longest_path_positive_overflow_is_an_error() {
        // Two huge edges in sequence: 0 + MAX/2 is fine, adding another
        // MAX/2 + MAX/2 wraps — must be reported, not wrapped into a
        // negative "length".
        let big = i64::MAX / 2;
        let edges = [(0, 1, big), (1, 2, big), (2, 3, big)];
        assert_eq!(
            longest_paths(4, &edges, &[0]),
            Err(LongestPathError::Overflow)
        );
    }

    #[test]
    fn longest_path_adversarial_cycle_reports_not_wraps() {
        // A positive cycle with weights large enough that unchecked
        // arithmetic would wrap to negative (masking the cycle) before the
        // n-round detector fires.
        let big = i64::MAX / 2;
        let edges = [(0, 1, big), (1, 2, big), (2, 1, big)];
        let err = longest_paths(3, &edges, &[0]).unwrap_err();
        assert!(
            matches!(
                err,
                LongestPathError::Overflow | LongestPathError::PositiveCycle(_)
            ),
            "wrapped arithmetic must not produce an Ok result: {err:?}"
        );
    }

    #[test]
    fn longest_path_negative_underflow_saturates() {
        // len[1] stays above NEG_INF, then a hugely negative edge would
        // underflow i64: the candidate can never win, so it is skipped and
        // node 2 stays unreachable-equivalent instead of wrapping positive.
        let edges = [(0, 1, NEG_INF + 1), (1, 2, i64::MIN / 2)];
        let l = longest_paths(3, &edges, &[0]).unwrap();
        assert_eq!(l[1], NEG_INF + 1);
        assert_eq!(l[2], NEG_INF);
    }

    #[test]
    fn bound_stops_a_reachable_positive_cycle_early() {
        // 1 <-> 2 gains +1 per lap; with bound 3 the run stops in round 2,
        // when a length reaches 4, before the n-round cycle detector.
        let edges = [(0, 1, 1), (1, 2, 1), (2, 1, 0)];
        let mut scratch = LongestPathScratch::new();
        match scratch.run(3, &edges, &[0], Some(3)) {
            Err(LongestPathError::ExceedsBound { node, length }) => {
                assert!(node == 1 || node == 2);
                assert_eq!(length, 4);
            }
            other => panic!("expected a bound exit, got {other:?}"),
        }
        // Unbounded, the same graph still yields the cycle witness.
        assert_eq!(
            scratch.run(3, &edges, &[0], None),
            Err(LongestPathError::PositiveCycle(vec![1, 2]))
        );
    }

    #[test]
    fn bound_ignores_an_unreachable_positive_cycle() {
        // The cycle 1 <-> 2 never gets a finite length, so it can neither
        // pass the bound nor be reported.
        let edges = [(1, 2, 5), (2, 1, 5), (0, 3, 2)];
        let mut scratch = LongestPathScratch::new();
        assert_eq!(
            scratch.run(4, &edges, &[0], Some(2)).unwrap(),
            &[0, NEG_INF, NEG_INF, 2]
        );
    }

    #[test]
    fn lengths_exactly_at_the_bound_pass() {
        // Longest length 3 at node 3 (via 0 -> 1 -> 3): bound 3 passes
        // and returns the unbounded answer; bound 2 stops at that node.
        let edges = [(0, 1, 1), (1, 3, 2), (0, 2, 1), (2, 3, 0)];
        let mut scratch = LongestPathScratch::new();
        assert_eq!(
            scratch.run(4, &edges, &[0], Some(3)).unwrap(),
            longest_paths(4, &edges, &[0]).unwrap().as_slice()
        );
        assert_eq!(
            scratch.run(4, &edges, &[0], Some(2)),
            Err(LongestPathError::ExceedsBound { node: 3, length: 3 })
        );
        // A negative bound is passed by the sources themselves.
        assert_eq!(
            scratch.run(4, &edges, &[0], Some(-1)),
            Err(LongestPathError::ExceedsBound { node: 0, length: 0 })
        );
    }

    #[test]
    fn longest_path_scratch_reuse_matches_fresh() {
        let mut scratch = LongestPathScratch::new();
        let e1 = [(0, 1, 1), (1, 3, 2), (0, 2, 1), (2, 3, 0)];
        assert_eq!(scratch.run(4, &e1, &[0], None).unwrap()[3], 3);
        // Smaller follow-up query: stale lengths must not leak.
        let e2 = [(0, 1, -5)];
        assert_eq!(scratch.run(2, &e2, &[0], None).unwrap(), &[0, -5]);
        // Error path leaves the scratch reusable.
        let cyc = [(0, 1, 1), (1, 0, 1)];
        assert_eq!(
            scratch.run(2, &cyc, &[0], None),
            Err(LongestPathError::PositiveCycle(vec![0, 1]))
        );
        assert_eq!(scratch.run(2, &e2, &[0], None).unwrap(), &[0, -5]);
    }
}
