//! Exact K-feasible cut enumeration: every gate's cuts of its expanded
//! circuit, listed once per run in one flat arena.
//!
//! The expanded circuit `F_v^b` of a gate `v` is the DAG of instances
//! `u^w` (node `u` seen through `w` registers) that `v` reads, with the
//! instances heavier than `b` as leaves. A cut's *cone weight* is the
//! largest register count inside its cone. The cut set of `F_v^b`
//! depends only on the circuit and the bound — never on labels or `Φ` —
//! so [`CutArena::enumerate`] lists every gate's cuts once, each with its
//! cone weight, sorted by cone weight. Three label computations scan it:
//!
//! * FlowMap (Cong & Ding) reads the cone-weight-0 cuts: the cuts of the
//!   gate's combinational cone, with register taps `u^w` (`w ≥ 1`) as
//!   depth-0 leaves. [`CutArena::combinational`] lists only those.
//! * TurboMap-frt's `LabelUpdate` (§3.2) asks for the minimum cone weight
//!   of a K-cut of `F_v^{frt(v)}` whose height is at most `ℒ`: the first
//!   cut whose leaves `u^w` all satisfy `l^s(u) − Φ·w + 1 ≤ ℒ` gives
//!   `w_min`, and no such cut means "no cut".
//! * The TurboMap general-retiming baseline asks the same of `F_v^h` for
//!   one horizon `h`, passed as every gate's bound (the containment
//!   argument below then holds trivially).
//!
//! # Final cuts
//!
//! Mapping generation takes one cut per gate at the converged labels: the
//! near-sink cut the bounded max-flow returns on `F_v` under a height
//! bound and a cone-weight bound. `CutArena::final_cut` picks it from the
//! list. Max-flow returns a cut of minimum size, so the pick takes the
//! qualifying cuts with the fewest leaves. Among minimum cuts, the
//! near-sink one has a cone contained in every other one's cone, so of
//! those the pick takes the one with the smallest cone, counted in
//! `(node, register count)` instances ([`ConeWalk`]). Pruning never drops
//! it: a dominator has a subset of its leaves at no larger weight, so it
//! qualifies too and, being no larger, has the same leaves.
//!
//! # Enumeration
//!
//! Bottom-up with dominance pruning, after "Efficient Enumeration of
//! Unidirectional Cuts" (Kulkarni & Vrudhula). A cut of `v` picks, for
//! each fanin edge `e(u, v)` of weight `w`, either the leaf `u^w` or a cut
//! of `u^w`'s sub-cone inside `F_v`. Those sub-cone cuts are the cuts of
//! `F_u` with cone weight ≤ `b(v) − w`, shifted by `w` registers. With
//! `b = frt`, a shortest register distance from the PIs,
//! `frt(v) ≤ frt(u) + w`, so `F_u^{frt(u)}` contains them all. The cone
//! weight of the result is `max(0, w + W_u)` over the absorbed fanins.
//!
//! Register cycles make `F_u` and `F_v` depend on each other, but only
//! across edges that carry registers. So the lists grow in rounds of cone
//! weight `b = 0..=max bound`, each round in combinational topological
//! order: zero-weight fanins are read from the current round, registered
//! fanins from earlier rounds. Round `b` adds only the cuts of weight
//! exactly `b`, and skips a gate outright when no fanin offers a choice of
//! that weight. Round 0 alone lists FlowMap's cuts.
//!
//! Pruning drops a cut when another cut's leaves are a subset of its
//! leaves at no larger cone weight. That is exact for a max-leaf height:
//! whenever the dropped cut qualifies, its dominator qualifies too, with
//! a weight no larger.
//!
//! # Fallback
//!
//! A gate whose list exceeds the cut cap, whose leaves would carry more
//! than 255 registers, or whose cone may absorb another fallback gate has
//! no list, whatever round it fell back in. Its label updates run a
//! bounded max-flow instead: `crate::label` for FlowMap, the `turbomap`
//! crate's cut oracle on the gate's own expanded circuit for the others.

use netlist::{Circuit, EdgeId, NodeId};
use std::cmp::Ordering;

/// An expanded node `u^w`: node `u` seen through `w` registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExpNode {
    /// The original node.
    pub node: NodeId,
    /// Registers between `node` and the root.
    pub weight: u64,
}

/// A cut on an expanded circuit: the future LUT inputs, as expanded nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpCut {
    /// Cut-set nodes `u^w`, each a signal `u` delayed by `w` registers.
    pub signals: Vec<ExpNode>,
}

/// Cut-list length above which a gate falls back to the flow query.
/// No gate of the Table-1 circuits or the large presets (hier100k to
/// hier1m) falls back; sand's longest list, at K = 5, holds 1,645 cuts.
pub const CUT_CAP: usize = 2048;

/// A leaf `u^w` packed as `u << 8 | w`: sorted keys sort by node, then
/// register count.
type Key = u64;

fn key(node: u32, w: u8) -> Key {
    (u64::from(node) << 8) | u64::from(w)
}

/// One bit of a leaf-set signature: a subset's signature is covered by
/// its superset's, which rejects most subset tests in one AND.
fn sig_bit(k: Key) -> u64 {
    1 << (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

/// A fault planted in an arena, for oracle fault-injection tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutFault {
    /// Remove the gate's `i`-th cut (in ascending cone weight).
    DropCut(usize),
    /// Raise the cone weight of the gate's `i`-th cut by one.
    BumpWeight(usize),
}

/// Every gate's K-feasible cuts of `F_v^{b(v)}`, dominance-pruned and
/// sorted by cone weight, in one flat arena.
#[derive(Debug, Clone)]
pub struct CutArena {
    /// The LUT input bound `K` every listed cut meets.
    k: usize,
    /// Per node: `gate_off[v]..gate_off[v + 1]` index the node's cuts.
    gate_off: Vec<u32>,
    /// Per node: true for gates answered by the flow fallback.
    fallback: Vec<bool>,
    /// Per cut: `leaf_off[c]..leaf_off[c + 1]` index the cut's leaves.
    leaf_off: Vec<u32>,
    /// Per cut: cone weight (ascending within each gate).
    weight: Vec<u8>,
    /// Per leaf: the driver node `u` of `u^w`.
    leaf_node: Vec<u32>,
    /// Per leaf: the register count `w` of `u^w`.
    leaf_weight: Vec<u8>,
}

impl CutArena {
    /// Enumerates the cuts of every gate `v` of `c` in `F_v^{frt[v]}`.
    /// `order` is a combinational topological order of `c`; a gate whose
    /// list would exceed `cut_cap` falls back (see the module docs).
    pub fn enumerate(
        c: &Circuit,
        order: &[NodeId],
        frt: &[u64],
        k: usize,
        cut_cap: usize,
    ) -> CutArena {
        let n = c.num_nodes();
        let gates: Vec<NodeId> = order
            .iter()
            .copied()
            .filter(|&v| c.node(v).is_gate())
            .collect();
        let _span = engine::trace::span1("cut_enum", "gates", gates.len() as u64);
        let mut st = Lists {
            c,
            frt,
            lists: (0..n).map(|_| WorkList::default()).collect(),
            fallback: vec![false; n],
        };
        for &v in &gates {
            // Cone weights are stored in a byte.
            st.fallback[v.index()] = frt[v.index()] > u64::from(u8::MAX);
        }
        let max_b = gates.iter().map(|v| frt[v.index()]).max().unwrap_or(0);
        let mut merge = Merge {
            k,
            cut_cap,
            ..Merge::default()
        };
        for b in 0..=max_b.min(u64::from(u8::MAX)) {
            for &v in &gates {
                let i = v.index();
                if st.fallback[i] || frt[i] < b || (b > 0 && !st.may_grow(v, b)) {
                    continue;
                }
                match merge.run(&st, v, b) {
                    Some(list) => st.lists[i] = list,
                    None => {
                        st.fallback[i] = true;
                        st.lists[i] = WorkList::default();
                    }
                }
            }
        }
        CutArena::compact(k, st.lists, st.fallback)
    }

    /// Enumerates round 0 only: every gate's cuts of cone weight 0, the
    /// cuts FlowMap labels with.
    ///
    /// # Panics
    ///
    /// Panics on combinational cycles (validate first).
    pub fn combinational(c: &Circuit, k: usize) -> CutArena {
        let order = c
            .comb_topo_order()
            .expect("combinational cycles must be rejected before mapping");
        CutArena::enumerate(c, &order, &vec![0; c.num_nodes()], k, CUT_CAP)
    }

    /// Packs the per-gate working lists into the flat arena, in node order.
    fn compact(k: usize, lists: Vec<WorkList>, fallback: Vec<bool>) -> CutArena {
        let cuts: usize = lists.iter().map(|l| l.weight.len()).sum();
        let leaves: usize = lists.iter().map(|l| l.node.len()).sum();
        let mut a = CutArena {
            k,
            gate_off: Vec::with_capacity(lists.len() + 1),
            fallback,
            leaf_off: Vec::with_capacity(cuts + 1),
            weight: Vec::with_capacity(cuts),
            leaf_node: Vec::with_capacity(leaves),
            leaf_weight: Vec::with_capacity(leaves),
        };
        a.gate_off.push(0);
        a.leaf_off.push(0);
        for list in lists {
            let base = a.leaf_node.len() as u32;
            a.leaf_off.extend(list.end.iter().map(|&e| base + e));
            a.weight.extend_from_slice(&list.weight);
            a.leaf_node.extend_from_slice(&list.node);
            a.leaf_weight.extend_from_slice(&list.w);
            a.gate_off.push(a.weight.len() as u32);
        }
        a
    }

    /// The LUT input bound `K` the cuts were enumerated for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// True when gate `v` lists no cuts and is answered by max-flow.
    pub fn is_fallback(&self, v: NodeId) -> bool {
        self.fallback[v.index()]
    }

    /// Number of cuts listed for `v` (0 for fallback gates and non-gates).
    pub fn num_cuts(&self, v: NodeId) -> usize {
        (self.gate_off[v.index() + 1] - self.gate_off[v.index()]) as usize
    }

    /// The position in `v`'s list of the cut with exactly `cut`'s leaves,
    /// if listed — where a [`CutFault`] aimed at that cut goes.
    pub fn position(&self, v: NodeId, cut: &ExpCut) -> Option<usize> {
        let mut want: Vec<(u32, u64)> = cut.signals.iter().map(|s| (s.node.0, s.weight)).collect();
        want.sort_unstable();
        self.cuts(v).position(|c| {
            self.leaves(c)
                .map(|l| (self.leaf_node[l], u64::from(self.leaf_weight[l])))
                .eq(want.iter().copied())
        })
    }

    /// The driver node of every leaf of every cut of `v` (with repeats).
    pub fn leaf_nodes(&self, v: NodeId) -> &[u32] {
        let lo = self.leaf_off[self.gate_off[v.index()] as usize] as usize;
        let hi = self.leaf_off[self.gate_off[v.index() + 1] as usize] as usize;
        &self.leaf_node[lo..hi]
    }

    /// The scan behind `LabelUpdate`: the smallest cone weight of a listed
    /// cut of `v` whose leaves `u^w` all satisfy
    /// `l^s(u) − Φ·w + 1 ≤ height`, or `None` when no cut qualifies.
    /// Meaningless for fallback gates, which list no cuts.
    pub fn min_weight(&self, v: NodeId, ls: &[i64], phi: i64, height: i64) -> Option<u64> {
        let cut = self
            .cuts(v)
            .find(|&cut| self.within_height(cut, ls, phi, height))?;
        engine::telemetry::record(engine::hist::Metric::CutSize, self.num_leaves(cut) as u64);
        Some(u64::from(self.weight[cut]))
    }

    /// The cut mapping generation takes (see the module docs): of `v`'s
    /// listed cuts with cone weight ≤ `weight` whose leaves all satisfy
    /// `l^s(u) − Φ·w + 1 ≤ height`, one with the fewest leaves, and of
    /// those the one to which `cone_size` (given the cut's leaf nodes and
    /// register counts) assigns the smallest cone. `None` when no cut
    /// qualifies. Meaningless for fallback gates, which list no cuts.
    pub fn final_cut(
        &self,
        v: NodeId,
        ls: &[i64],
        phi: i64,
        height: i64,
        weight: u64,
        mut cone_size: impl FnMut(&[u32], &[u8]) -> usize,
    ) -> Option<ExpCut> {
        // Sorted by cone weight: the first cut too heavy ends the list.
        let qualifying = || {
            self.cuts(v)
                .take_while(|&cut| u64::from(self.weight[cut]) <= weight)
                .filter(|&cut| self.within_height(cut, ls, phi, height))
        };
        let fewest = qualifying().map(|cut| self.num_leaves(cut)).min()?;
        let mut tied = qualifying().filter(|&cut| self.num_leaves(cut) == fewest);
        let first = tied.next()?;
        // Cone walks only break ties; `min_by_key` keeps the first minimum.
        let cut = match tied.next() {
            None => first,
            Some(second) => [first, second].into_iter().chain(tied).min_by_key(|&cut| {
                let leaves = self.leaves(cut);
                cone_size(&self.leaf_node[leaves.clone()], &self.leaf_weight[leaves])
            })?,
        };
        engine::telemetry::record(engine::hist::Metric::CutSize, fewest as u64);
        let signals = self
            .leaves(cut)
            .map(|l| ExpNode {
                node: NodeId(self.leaf_node[l]),
                weight: u64::from(self.leaf_weight[l]),
            })
            .collect();
        Some(ExpCut { signals })
    }

    /// The arena indices of `v`'s cuts, in ascending cone weight.
    fn cuts(&self, v: NodeId) -> std::ops::Range<usize> {
        self.gate_off[v.index()] as usize..self.gate_off[v.index() + 1] as usize
    }

    /// The arena indices of `cut`'s leaves.
    fn leaves(&self, cut: usize) -> std::ops::Range<usize> {
        self.leaf_off[cut] as usize..self.leaf_off[cut + 1] as usize
    }

    fn num_leaves(&self, cut: usize) -> usize {
        (self.leaf_off[cut + 1] - self.leaf_off[cut]) as usize
    }

    /// Whether every leaf `u^w` of `cut` has `l^s(u) − Φ·w + 1 ≤ height`.
    fn within_height(&self, cut: usize, ls: &[i64], phi: i64, height: i64) -> bool {
        self.leaves(cut)
            .all(|l| ls[self.leaf_node[l] as usize] - phi * i64::from(self.leaf_weight[l]) < height)
    }

    /// Plants `fault` in gate `v`'s list; false when the list has no such
    /// cut. A fault-injection hook for oracle tests.
    #[doc(hidden)]
    pub fn inject(&mut self, v: NodeId, fault: CutFault) -> bool {
        let (CutFault::DropCut(i) | CutFault::BumpWeight(i)) = fault;
        let cut = self.gate_off[v.index()] as usize + i;
        if cut >= self.gate_off[v.index() + 1] as usize {
            return false;
        }
        match fault {
            CutFault::BumpWeight(_) => self.weight[cut] = self.weight[cut].saturating_add(1),
            CutFault::DropCut(_) => {
                let (start, end) = (self.leaf_off[cut], self.leaf_off[cut + 1]);
                self.leaf_node.drain(start as usize..end as usize);
                self.leaf_weight.drain(start as usize..end as usize);
                self.leaf_off.remove(cut + 1);
                for off in &mut self.leaf_off[cut + 1..] {
                    *off -= end - start;
                }
                self.weight.remove(cut);
                for off in &mut self.gate_off[v.index() + 1..] {
                    *off -= 1;
                }
            }
        }
        true
    }
}

/// Reusable buffers of the cone walks that break final-cut ties.
#[derive(Debug, Clone, Default)]
pub struct ConeWalk {
    /// Per node: the walk that last reached it; `head` is valid only
    /// under the current walk's stamp.
    stamp: Vec<u32>,
    /// Per node: its latest instance in `inst` this walk.
    head: Vec<u32>,
    /// The instances reached: (register count, the node's previous
    /// instance or [`ConeWalk::NONE`]).
    inst: Vec<(u64, u32)>,
    /// Instances `(node, register count)` still to expand.
    stack: Vec<(u32, u64)>,
    walk: u32,
}

impl ConeWalk {
    const NONE: u32 = u32::MAX;

    /// The number of `(node, register count)` instances in the cone of
    /// gate `v` bounded by the leaves `node[i]^{w[i]}`, walking fanins from
    /// the root as mapping generation derives the cone.
    pub fn size(&mut self, c: &Circuit, v: NodeId, node: &[u32], w: &[u8]) -> usize {
        let n = c.num_nodes();
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.head.resize(n, Self::NONE);
        }
        self.walk = self.walk.wrapping_add(1);
        if self.walk == 0 {
            self.stamp.fill(0);
            self.walk = 1;
        }
        self.inst.clear();
        self.stack.clear();
        self.visit(v.0, 0);
        while let Some((x, xw)) = self.stack.pop() {
            for &e in c.node(NodeId(x)).fanin() {
                let edge = c.edge(e);
                let (u, uw) = (edge.from().0, xw + edge.weight() as u64);
                let leaf = node
                    .iter()
                    .zip(w)
                    .any(|(&ln, &lw)| ln == u && u64::from(lw) == uw);
                if !leaf {
                    self.visit(u, uw);
                }
            }
        }
        self.inst.len()
    }

    /// Records instance `u^w` and queues it, unless this walk has it.
    fn visit(&mut self, u: u32, w: u64) {
        let i = u as usize;
        if self.stamp[i] == self.walk {
            let mut j = self.head[i];
            while j != Self::NONE {
                let (jw, prev) = self.inst[j as usize];
                if jw == w {
                    return;
                }
                j = prev;
            }
        } else {
            self.stamp[i] = self.walk;
            self.head[i] = Self::NONE;
        }
        self.inst.push((w, self.head[i]));
        self.head[i] = (self.inst.len() - 1) as u32;
        self.stack.push((u, w));
    }
}

/// The enumeration's state: the lists so far and the gates that fell
/// back.
struct Lists<'a> {
    c: &'a Circuit,
    frt: &'a [u64],
    lists: Vec<WorkList>,
    fallback: Vec<bool>,
}

impl Lists<'_> {
    /// Whether round `b` can give `v` a cut of weight `b`: some fanin
    /// `u^w` the cone may absorb lists a cut of weight exactly `b − w`
    /// (or has fallen back, which `v` must then inherit).
    fn may_grow(&self, v: NodeId, b: u64) -> bool {
        self.c.node(v).fanin().iter().any(|&e| {
            let edge = self.c.edge(e);
            let (u, w) = (edge.from().index(), edge.weight() as u64);
            self.c.node(edge.from()).is_gate()
                && w <= b
                && (self.fallback[u] || self.lists[u].weight.contains(&((b - w) as u8)))
        })
    }
}

/// One gate's cuts while the enumeration runs, in ascending cone weight.
#[derive(Debug, Clone, Default)]
struct WorkList {
    /// Leaf driver nodes of all cuts, concatenated; sorted by
    /// `(node, w)` within each cut.
    node: Vec<u32>,
    /// Leaf register counts, aligned with `node`.
    w: Vec<u8>,
    /// Per cut: end offset of its leaves in `node`/`w`.
    end: Vec<u32>,
    /// Per cut: cone weight.
    weight: Vec<u8>,
}

impl WorkList {
    /// Leaf range of cut `i`.
    fn leaves(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.end[i - 1] as usize };
        start..self.end[i] as usize
    }

    /// Appends a cut with sorted leaves `keys`.
    fn push(&mut self, keys: &[Key], weight: u8) {
        for &k in keys {
            self.node.push((k >> 8) as u32);
            self.w.push(k as u8);
        }
        self.end.push(self.node.len() as u32);
        self.weight.push(weight);
    }
}

/// A candidate cut in a [`CandSet`].
#[derive(Debug, Clone, Copy)]
struct Cand {
    start: u32,
    len: u32,
    weight: u8,
    sig: u64,
}

/// Candidate cuts with their packed leaves in one pool.
#[derive(Debug, Clone, Default)]
struct CandSet {
    keys: Vec<Key>,
    cands: Vec<Cand>,
}

impl CandSet {
    fn clear(&mut self) {
        self.keys.clear();
        self.cands.clear();
    }

    fn leaves(&self, c: &Cand) -> &[Key] {
        &self.keys[c.start as usize..(c.start + c.len) as usize]
    }

    /// Closes the cut whose sorted leaves were pushed to `keys` from
    /// `start` on.
    fn seal(&mut self, start: usize, weight: u8) {
        let sig = self.keys[start..].iter().fold(0, |s, &k| s | sig_bit(k));
        self.cands.push(Cand {
            start: start as u32,
            len: (self.keys.len() - start) as u32,
            weight,
            sig,
        });
    }

    /// Whether a cut here has a subset of `c`'s leaves at no larger
    /// weight.
    fn dominates(&self, c: &Cand, leaves: &[Key]) -> bool {
        self.cands.iter().any(|d| {
            d.weight <= c.weight && d.sig & !c.sig == 0 && is_subset(self.leaves(d), leaves)
        })
    }
}

/// Reusable buffers of the per-gate merge.
#[derive(Debug, Default)]
struct Merge {
    k: usize,
    cut_cap: usize,
    /// Cuts of the fanins merged so far with cone weight below `b`.
    lighter: CandSet,
    /// Cuts of the fanins merged so far with cone weight exactly `b`.
    exact: CandSet,
    /// The current fanin's choices below `b`: its leaf, or a cut.
    opt_lighter: CandSet,
    /// The current fanin's choices of weight exactly `b`.
    opt_exact: CandSet,
    /// Unpruned unions.
    product: CandSet,
    /// The gate's cuts from earlier rounds.
    old: CandSet,
    /// Counting-sort buffers of [`prune`].
    order: Vec<u32>,
    counts: Vec<u32>,
}

impl Merge {
    /// `v`'s list from earlier rounds plus its non-dominated cuts of cone
    /// weight exactly `b`, or `None` when `v` must fall back.
    ///
    /// A union weighs as much as its heavier part, so the partial cuts
    /// split into `exact` (weight `b`) and `lighter` ones: each fanin
    /// turns `exact` into `exact × choices ∪ lighter × exact choices` and
    /// `lighter` into `lighter × lighter choices`. A round thus pays only
    /// for unions that reach its weight.
    fn run(&mut self, st: &Lists, v: NodeId, b: u64) -> Option<WorkList> {
        let fanins = st.c.node(v).fanin();
        self.lighter.clear();
        self.exact.clear();
        // The root alone, of cone weight 0.
        if b == 0 {
            self.exact.seal(0, 0);
        } else {
            self.lighter.seal(0, 0);
        }
        for (j, &e) in fanins.iter().enumerate() {
            self.options(st, v, e, b)?;
            let k = self.k;
            self.product.clear();
            product_into(&self.exact, &self.opt_lighter, k, &mut self.product);
            product_into(&self.exact, &self.opt_exact, k, &mut self.product);
            product_into(&self.lighter, &self.opt_exact, k, &mut self.product);
            prune(
                &self.product,
                &mut self.order,
                &mut self.counts,
                &mut self.exact,
            );
            if j + 1 < fanins.len() {
                self.product.clear();
                product_into(&self.lighter, &self.opt_lighter, k, &mut self.product);
                prune(
                    &self.product,
                    &mut self.order,
                    &mut self.counts,
                    &mut self.lighter,
                );
            }
            if self.exact.cands.len() + self.lighter.cands.len() > 4 * self.cut_cap {
                return None;
            }
        }
        // Keep the new cuts that no lighter cut of an earlier round
        // dominates.
        let old = &st.lists[v.index()];
        self.old.clear();
        for (i, &weight) in old.weight.iter().enumerate() {
            let start = self.old.keys.len();
            let leaves = old.leaves(i).map(|l| key(old.node[l], old.w[l]));
            self.old.keys.extend(leaves);
            self.old.seal(start, weight);
        }
        let mut list = old.clone();
        for cand in &self.exact.cands {
            let leaves = self.exact.leaves(cand);
            if !self.old.dominates(cand, leaves) {
                list.push(leaves, cand.weight);
            }
        }
        (list.weight.len() <= self.cut_cap).then_some(list)
    }

    /// Loads fanin edge `e`'s choices: the leaf `u^w`, and, when the cone
    /// may absorb `u^w`, each cut of `u` shifted by `w` registers. `None`
    /// when `v` must fall back.
    fn options(&mut self, st: &Lists, v: NodeId, e: EdgeId, b: u64) -> Option<()> {
        let edge = st.c.edge(e);
        let u = edge.from();
        let w = u8::try_from(edge.weight()).ok()?;
        self.opt_lighter.clear();
        self.opt_exact.clear();
        let leaf = if b == 0 {
            &mut self.opt_exact
        } else {
            &mut self.opt_lighter
        };
        leaf.keys.push(key(u.0, w));
        leaf.seal(0, 0);
        if !st.c.node(u).is_gate() || u64::from(w) > b {
            return Some(());
        }
        // `u`'s list must cover every sub-cone weight `F_v` allows.
        if st.fallback[u.index()] || st.frt[u.index()] + u64::from(w) < st.frt[v.index()] {
            return None;
        }
        let list = &st.lists[u.index()];
        for (i, &cw) in list.weight.iter().enumerate() {
            let weight = u64::from(cw) + u64::from(w);
            let opts = match weight.cmp(&b) {
                Ordering::Less => &mut self.opt_lighter,
                Ordering::Equal => &mut self.opt_exact,
                Ordering::Greater => break,
            };
            let start = opts.keys.len();
            for l in list.leaves(i) {
                opts.keys.push(key(list.node[l], list.w[l].checked_add(w)?));
            }
            opts.seal(start, weight as u8);
        }
        Some(())
    }
}

/// Appends to `out` every union of a cut of `a` and a cut of `b` with at
/// most `k` leaves.
fn product_into(a: &CandSet, b: &CandSet, k: usize, out: &mut CandSet) {
    for p in &a.cands {
        for o in &b.cands {
            let sig = p.sig | o.sig;
            if (sig.count_ones() as usize) > k {
                continue;
            }
            let start = out.keys.len();
            if union_into(a.leaves(p), b.leaves(o), k, &mut out.keys) {
                out.cands.push(Cand {
                    start: start as u32,
                    len: (out.keys.len() - start) as u32,
                    weight: p.weight.max(o.weight),
                    sig,
                });
            } else {
                out.keys.truncate(start);
            }
        }
    }
}

/// `out` ← the non-dominated cuts of `set`. Visited in (leaf count,
/// weight) order — a counting sort, both being small — a cut can only be
/// dominated by one kept before it.
fn prune(set: &CandSet, order: &mut Vec<u32>, counts: &mut Vec<u32>, out: &mut CandSet) {
    let slot = |c: &Cand| c.len as usize * 256 + c.weight as usize;
    let slots = set.cands.iter().map(slot).max().map_or(0, |m| m + 1);
    counts.clear();
    counts.resize(slots + 1, 0);
    for c in &set.cands {
        counts[slot(c) + 1] += 1;
    }
    for s in 0..slots {
        counts[s + 1] += counts[s];
    }
    order.clear();
    order.resize(set.cands.len(), 0);
    for (i, c) in set.cands.iter().enumerate() {
        let s = slot(c);
        order[counts[s] as usize] = i as u32;
        counts[s] += 1;
    }
    out.clear();
    for &i in order.iter() {
        let c = set.cands[i as usize];
        let leaves = set.leaves(&c);
        if !out.dominates(&c, leaves) {
            let start = out.keys.len();
            out.keys.extend_from_slice(leaves);
            out.cands.push(Cand {
                start: start as u32,
                ..c
            });
        }
    }
}

/// Appends the sorted union of `a` and `b` to `out`; false when it would
/// exceed `k` keys.
fn union_into(a: &[Key], b: &[Key], k: usize, out: &mut Vec<Key>) -> bool {
    let (mut i, mut j, mut len) = (0, 0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (_, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!("loop condition"),
        };
        len += 1;
        if len > k {
            return false;
        }
        out.push(next);
    }
    true
}

/// True when sorted `a` is a subset of sorted `b`.
fn is_subset(a: &[Key], b: &[Key]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_subset_on_sorted_keys() {
        let mut out = Vec::new();
        assert!(union_into(&[1, 4, 9], &[2, 4], 4, &mut out));
        assert_eq!(out, vec![1, 2, 4, 9]);
        out.clear();
        assert!(!union_into(&[1, 4, 9], &[2, 5], 4, &mut out));
        assert!(is_subset(&[2, 9], &[1, 2, 4, 9]));
        assert!(!is_subset(&[2, 3], &[1, 2, 4, 9]));
        assert!(is_subset(&[], &[1]));
    }
}
