//! Height- and weight-bounded K-cut search on expanded circuits.
//!
//! The `LabelUpdate` step of FRTcheck asks: *does `F_v^w` contain a
//! K-feasible cut whose cut-height is at most `ℒ`?* where the height of a
//! cut is `max { l^s(u) − Φ·w + 1 }` over its cut-set nodes `u^w`
//! (Definition 5). This module answers that with one bounded max-flow per
//! query:
//!
//! * expanded nodes heavier than the weight bound are **leaves** (they may
//!   be cut — tapped as registered LUT inputs — but not absorbed into the
//!   LUT, since the cut-weight of Definition 4 ranges over the cone `X̄`);
//! * nodes whose value `l^s(u) − Φ·w + 1` exceeds the height bound are
//!   **uncuttable** (uncapacitated): they may sit strictly inside `X` or
//!   inside the cone, but never on the boundary;
//! * everything else has unit capacity; flow ≤ K ⟺ a K-cut exists, and the
//!   residual min-cut is returned.

use crate::expand::{ExpNode, ExpandedCircuit};
use flowmap::cutenum::ConeWalk;
pub use flowmap::cutenum::ExpCut;
use graphalgo::NodeCutNetwork;

/// Reusable buffers for cut queries: the flow network of the max-flow
/// queries, and the cone walks of the final cuts picked from a cut arena.
///
/// A flow query's inner [`NodeCutNetwork`] is the only allocation it
/// needs. A scratch amortises it: every query calls
/// [`NodeCutNetwork::reset`] instead of reallocating, so the adjacency
/// rows, arc pool and BFS buffers grow to the largest expanded circuit
/// seen and stay there. One scratch per thread (they are not shared).
#[derive(Debug, Clone, Default)]
pub struct CutScratch {
    net: NodeCutNetwork,
    pub(crate) cones: ConeWalk,
}

impl CutScratch {
    /// An empty scratch; the first query sizes it.
    pub fn new() -> CutScratch {
        CutScratch::default()
    }
}

/// Searches `F_v^{weight_bound}` (restricted from `exp`) for a K-feasible
/// cut with height ≤ `height_bound`.
///
/// `ls` holds the current `l^s` lower bound per **original** node id
/// (PIs 0). Returns the min-cut found, or `None` when no such cut exists.
///
/// # Panics
///
/// Panics if `exp` is rooted at a leaf (never constructed that way).
pub fn find_cut(
    exp: &ExpandedCircuit,
    ls: &[i64],
    phi: i64,
    height_bound: i64,
    weight_bound: u64,
    k: usize,
) -> Option<ExpCut> {
    find_cut_with(
        &mut CutScratch::new(),
        exp,
        ls,
        phi,
        height_bound,
        weight_bound,
        k,
    )
}

/// [`find_cut`] with a caller-provided arena — the hot-path form used by
/// the label sweeps, which reuse one [`CutScratch`] per thread across all
/// queries of a run.
pub fn find_cut_with(
    scratch: &mut CutScratch,
    exp: &ExpandedCircuit,
    ls: &[i64],
    phi: i64,
    height_bound: i64,
    weight_bound: u64,
    k: usize,
) -> Option<ExpCut> {
    let n = exp.len();
    debug_assert!(!exp.is_leaf[exp.root()]);
    let _span = engine::trace::span_with(
        "min_cut",
        [
            Some(("node", exp.nodes[exp.root()].node.index() as u64)),
            Some(("weight_bound", weight_bound)),
        ],
    );
    // Effective leaf: a declared leaf, or weight above the current bound.
    let effective_leaf = |i: usize| exp.is_leaf[i] || exp.nodes[i].weight > weight_bound;
    let value = |i: usize| {
        let en = exp.nodes[i];
        ls[en.node.index()] - phi * en.weight as i64 + 1
    };
    let net = &mut scratch.net;
    net.reset(n + 1);
    let source = n;
    let root = exp.root();
    for i in 0..n {
        if effective_leaf(i) {
            net.add_edge(source, i);
        } else {
            for &f in exp.fanins(i) {
                net.add_edge(f as usize, i);
            }
        }
        if i != root && value(i) > height_bound {
            // May not appear on the cut boundary.
            net.set_uncapacitated(i);
        }
    }
    let result = net.max_flow(source, root, k as u32);
    if result.exceeded_limit {
        return None;
    }
    let cut = net.min_cut_near_sink(source);
    let signals: Vec<ExpNode> = cut.cut_nodes.iter().map(|&i| exp.nodes[i]).collect();
    debug_assert!(signals.len() <= k);
    debug_assert!(signals
        .iter()
        .all(|s| { ls[s.node.index()] - phi * (s.weight as i64) < height_bound }));
    // A cut of zero signals means the root was unreachable from every
    // leaf, which cannot happen for PI-reachable circuits.
    if signals.is_empty() {
        return None;
    }
    engine::telemetry::record(engine::hist::Metric::CutSize, signals.len() as u64);
    Some(ExpCut { signals })
}

/// Finds the minimum cut-weight `w ∈ [0, weight_cap]` for which a
/// K-feasible cut of height ≤ `height_bound` exists, together with such a
/// cut (binary search on the weight, §3.2).
pub fn min_weight_cut(
    exp: &ExpandedCircuit,
    ls: &[i64],
    phi: i64,
    height_bound: i64,
    weight_cap: u64,
    k: usize,
) -> Option<(u64, ExpCut)> {
    min_weight_cut_with(
        &mut CutScratch::new(),
        exp,
        ls,
        phi,
        height_bound,
        weight_cap,
        k,
    )
}

/// [`min_weight_cut`] with a caller-provided arena (see [`find_cut_with`]).
pub fn min_weight_cut_with(
    scratch: &mut CutScratch,
    exp: &ExpandedCircuit,
    ls: &[i64],
    phi: i64,
    height_bound: i64,
    weight_cap: u64,
    k: usize,
) -> Option<(u64, ExpCut)> {
    // Existence at the full bound first.
    find_cut_with(scratch, exp, ls, phi, height_bound, weight_cap, k)?;
    let mut lo = 0u64;
    let mut hi = weight_cap;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if find_cut_with(scratch, exp, ls, phi, height_bound, mid, k).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    // `lo` is the minimal feasible weight bound; a cut found under a
    // larger probe bound may have heavier cone nodes, so re-extract at
    // exactly `lo`.
    let cut = find_cut_with(scratch, exp, ls, phi, height_bound, lo, k).expect("lo is feasible");
    Some((lo, cut))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{Bit, Circuit, NodeId, TruthTable};

    /// i1 -> a -> b -FF-> c <- a (Figure 3-style).
    fn fig_circuit(extra_ff_on_i1: bool) -> (Circuit, NodeId) {
        let mut c = Circuit::new("fig");
        let i1 = c.add_input("i1").unwrap();
        let a = c.add_gate("a", TruthTable::not()).unwrap();
        let b = c.add_gate("b", TruthTable::not()).unwrap();
        let cc = c.add_gate("c", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        let i1_ffs = if extra_ff_on_i1 {
            vec![Bit::Zero]
        } else {
            vec![]
        };
        c.connect(i1, a, i1_ffs).unwrap();
        c.connect(a, b, vec![]).unwrap();
        c.connect(b, cc, vec![Bit::Zero]).unwrap();
        c.connect(a, cc, vec![]).unwrap();
        c.connect(cc, o, vec![]).unwrap();
        (c, cc)
    }

    fn zero_labels(c: &Circuit) -> Vec<i64> {
        vec![0; c.num_nodes()]
    }

    #[test]
    fn weight_zero_bound_blocks_lut_past_register() {
        // Figure 3: frt(c) = 0, so b^1 cannot be inside the LUT. With K=2
        // a cut {a^0, b^1} exists (both cuttable as signals).
        let (c, cc) = fig_circuit(false);
        let exp = ExpandedCircuit::build(&c, cc, 0, 1000).unwrap();
        let ls = zero_labels(&c);
        let cut = find_cut(&exp, &ls, 10, 100, 0, 2).unwrap();
        assert_eq!(cut.signals.len(), 2);
        // With K=1 no cut exists at weight bound 0 (need both a and b).
        assert!(find_cut(&exp, &ls, 10, 100, 0, 1).is_none());
    }

    #[test]
    fn weight_one_bound_absorbs_register() {
        // Figure 4: with a FF on (i1, a), frt(c) = 1 and F_c^1 allows the
        // whole cone as one LUT with inputs {i1^1, i1^2}. Force the deep
        // cut by making a and b uncuttable (high labels).
        let (c, cc) = fig_circuit(true);
        let exp = ExpandedCircuit::build(&c, cc, 1, 1000).unwrap();
        let mut ls = zero_labels(&c);
        ls[c.find("a").unwrap().index()] = 1_000;
        ls[c.find("b").unwrap().index()] = 1_000;
        let cut = find_cut(&exp, &ls, 10, 5, 1, 2).unwrap();
        let i1 = c.find("i1").unwrap();
        let mut weights: Vec<u64> = cut
            .signals
            .iter()
            .filter(|s| s.node == i1)
            .map(|s| s.weight)
            .collect();
        weights.sort_unstable();
        assert_eq!(weights, vec![1, 2]);
    }

    #[test]
    fn height_bound_excludes_high_labels() {
        // Give `a` a huge label: it cannot be a cut signal, so the cut
        // must go past it to i1 (possible only if K allows).
        let (c, cc) = fig_circuit(true);
        let exp = ExpandedCircuit::build(&c, cc, 1, 1000).unwrap();
        let mut ls = zero_labels(&c);
        ls[c.find("a").unwrap().index()] = 1_000;
        let phi = 10;
        // Cut must avoid a^0/a^1 (uncuttable); {b^1, i1^1} or the deeper
        // {i1^1, i1^2} both qualify.
        let cut = find_cut(&exp, &ls, phi, 5, 1, 2).unwrap();
        assert!(cut.signals.iter().all(|s| s.node != c.find("a").unwrap()));
        assert!(cut.signals.iter().any(|s| s.node == c.find("i1").unwrap()));
    }

    #[test]
    fn impossible_height_returns_none() {
        let (c, cc) = fig_circuit(false);
        let exp = ExpandedCircuit::build(&c, cc, 0, 1000).unwrap();
        let mut ls = zero_labels(&c);
        // Every potential cut signal too high.
        for v in c.node_ids() {
            ls[v.index()] = 100;
        }
        assert!(find_cut(&exp, &ls, 1, 0, 0, 3).is_none());
    }

    #[test]
    fn min_weight_prefers_small() {
        // Figure 4 circuit: at K=3 a weight-0 cut {a^0, b^1} exists, so
        // min_weight_cut must return weight 0 even though weight 1 also
        // works.
        let (c, cc) = fig_circuit(true);
        let exp = ExpandedCircuit::build(&c, cc, 1, 1000).unwrap();
        let ls = zero_labels(&c);
        let (w, cut) = min_weight_cut(&exp, &ls, 10, 100, 1, 3).unwrap();
        assert_eq!(w, 0);
        assert!(cut.signals.len() <= 3);
    }

    #[test]
    fn min_weight_needs_one_when_k_too_small() {
        // Height bound excluding both `a` and `b` everywhere: the only
        // cut left is {i1^1, i1^2}, which must absorb b^1 → weight 1.
        let (c, cc) = fig_circuit(true);
        let exp = ExpandedCircuit::build(&c, cc, 1, 1000).unwrap();
        let mut ls = zero_labels(&c);
        ls[c.find("a").unwrap().index()] = 1_000;
        ls[c.find("b").unwrap().index()] = 1_000;
        let (w, cut) = min_weight_cut(&exp, &ls, 10, 5, 1, 2).unwrap();
        assert_eq!(w, 1);
        assert_eq!(cut.signals.len(), 2);
        let i1 = c.find("i1").unwrap();
        assert!(cut.signals.iter().all(|s| s.node == i1));
    }

    #[test]
    fn scratch_reuse_matches_fresh_queries() {
        // The arena must be invisible: mixed-size queries through one
        // reused scratch agree exactly with fresh-network queries.
        let (c1, cc1) = fig_circuit(false);
        let exp1 = ExpandedCircuit::build(&c1, cc1, 0, 1000).unwrap();
        let (c2, cc2) = fig_circuit(true);
        let exp2 = ExpandedCircuit::build(&c2, cc2, 1, 1000).unwrap();
        let ls1 = zero_labels(&c1);
        let mut ls2 = zero_labels(&c2);
        ls2[c2.find("a").unwrap().index()] = 1_000;
        ls2[c2.find("b").unwrap().index()] = 1_000;
        let mut scratch = CutScratch::new();
        for _ in 0..2 {
            // Bigger then smaller network through the same arena.
            assert_eq!(
                find_cut_with(&mut scratch, &exp2, &ls2, 10, 5, 1, 2),
                find_cut(&exp2, &ls2, 10, 5, 1, 2)
            );
            assert_eq!(
                find_cut_with(&mut scratch, &exp1, &ls1, 10, 100, 0, 2),
                find_cut(&exp1, &ls1, 10, 100, 0, 2)
            );
            assert_eq!(
                min_weight_cut_with(&mut scratch, &exp2, &ls2, 10, 5, 1, 3),
                min_weight_cut(&exp2, &ls2, 10, 5, 1, 3)
            );
        }
    }

    #[test]
    fn trivial_fanin_cut_found() {
        let (c, cc) = fig_circuit(false);
        let exp = ExpandedCircuit::build(&c, cc, 0, 1000).unwrap();
        let ls = zero_labels(&c);
        // Bound that admits only the fanin cut works at K=2.
        let cut = find_cut(&exp, &ls, 1, 1, 0, 2).unwrap();
        assert!(cut.signals.len() <= 2);
    }
}

#[cfg(test)]
mod validity_tests {
    use super::*;
    use crate::expand::ExpandedCircuit;
    use engine::Rng64;

    /// Checks that `cut` is a valid cut of `exp` under `weight_bound`:
    /// every path from an effective leaf to the root crosses a cut node,
    /// every cut node satisfies the height bound, and every cone-internal
    /// node respects the weight bound.
    fn assert_valid_cut(
        exp: &ExpandedCircuit,
        cut: &ExpCut,
        ls: &[i64],
        phi: i64,
        height_bound: i64,
        weight_bound: u64,
    ) {
        let cut_set: std::collections::HashSet<ExpNode> = cut.signals.iter().copied().collect();
        for s in &cut.signals {
            let h = ls[s.node.index()] - phi * s.weight as i64 + 1;
            assert!(h <= height_bound, "cut node violates height");
        }
        // Walk the cone from the root; it must terminate at cut nodes
        // without touching an effective leaf.
        let mut stack = vec![exp.root()];
        let mut seen = vec![false; exp.len()];
        seen[exp.root()] = true;
        while let Some(i) = stack.pop() {
            let en = exp.nodes[i];
            assert!(
                en.weight <= weight_bound || i == exp.root(),
                "cone node heavier than the bound"
            );
            assert!(
                !(exp.is_leaf[i] && i != exp.root()),
                "cone contains a leaf: the cut failed to separate"
            );
            for &f in exp.fanins(i) {
                let fi = f as usize;
                if cut_set.contains(&exp.nodes[fi]) || seen[fi] {
                    continue;
                }
                assert!(
                    !(exp.is_leaf[fi] || exp.nodes[fi].weight > weight_bound),
                    "uncut boundary reached at {:?}",
                    exp.nodes[fi]
                );
                seen[fi] = true;
                stack.push(fi);
            }
        }
    }

    #[test]
    fn random_circuits_random_labels_cuts_valid() {
        let mut rng = Rng64::new(0xC07);
        for trial in 0..40 {
            let c = workloads::generate_fsm(&workloads::FsmSpec {
                name: format!("cv{trial}"),
                states: rng.range_usize(2, 7),
                inputs: rng.range_usize(1, 4),
                decoded: 2,
                outputs: 1,
                encoding: if rng.chance(0.5) {
                    workloads::Encoding::OneHot
                } else {
                    workloads::Encoding::Binary
                },
                registered_inputs: rng.chance(0.5),
                seed: trial,
            });
            let ls: Vec<i64> = (0..c.num_nodes()).map(|_| rng.range_i64(-4, 4)).collect();
            let phi = rng.range_i64(1, 4);
            let k = rng.range_usize(2, 6);
            let hb = rng.range_i64(-2, 6);
            let wb = rng.range_i64(0, 3) as u64;
            for v in c.gate_ids().take(8) {
                let exp = match ExpandedCircuit::build(&c, v, wb, 50_000) {
                    Some(e) => e,
                    None => continue,
                };
                if let Some(cut) = find_cut(&exp, &ls, phi, hb, wb, k) {
                    assert!(cut.signals.len() <= k);
                    assert_valid_cut(&exp, &cut, &ls, phi, hb, wb);
                }
            }
        }
    }
}
