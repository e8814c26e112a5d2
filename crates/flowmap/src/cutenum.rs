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
//! The work is in the unions and the pruning, so both stay cheap:
//!
//! * Each round appends a gate's new cuts in place, as one segment in
//!   chunks all gates share, with each cut's leaf count and a 64-bit
//!   leaf-set signature, one hashed bit per leaf. A fanin's choices are
//!   its segments, shifted in one pass. No earlier, lighter round can
//!   dominate a new cut (see `Merge::append`), so none is checked. The
//!   arena packs the segments in node order and drops the signatures.
//! * A union is formed only when it may fit in `K` leaves: a cut short
//!   enough beside the partial cut always does, a longer one only when
//!   the two signatures share a bit and their union has at most `K`. At
//!   a gate's first fanin the partial cuts are the choices themselves,
//!   already pruned, and are taken as they are when in pruning's order.
//! * Pruning visits the unions in (leaf count, weight) order, a counting
//!   sort sized by the leaf counts and weights present. A dominator has
//!   fewer leaves than the candidate, or else is an exact duplicate, so
//!   the kept cuts are grouped by leaf count: a check tests signatures
//!   in the shorter groups for a subset, and the equal group only for
//!   equality.
//!
//! Rounds are `cut_round{round, gates}` spans under `cut_enum`, the
//! arena's size a `cut_arena{cuts, fallback_gates}` event, and the work
//! the `cut_product_pairs`, `cut_candidates`, `cuts_kept` and
//! `cut_dominance_scans` counters. Measured at K = 5 on a 2-vCPU VM,
//! s38417's 244,106 cuts of 6,013 gates take 70–102 ms and s5378's
//! 37,425 cuts 8–10 ms.
//!
//! # Fallback
//!
//! A gate whose list exceeds the cut cap, whose leaves would carry more
//! than 255 registers, which has a cut of more than 255 leaves, or whose
//! cone may absorb another fallback gate has no list, whatever round it
//! fell back in. Its label updates run a bounded max-flow instead:
//! `crate::label` for FlowMap, the `turbomap` crate's cut oracle on the
//! gate's own expanded circuit for the others.

use netlist::{Circuit, EdgeId, NodeId};
use std::cmp::Ordering;
use std::ops::Range;

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
        let mut active: Vec<NodeId> = order
            .iter()
            .copied()
            .filter(|&v| c.node(v).is_gate())
            .collect();
        let _span = engine::trace::span1("cut_enum", "gates", active.len() as u64);
        let mut st = Lists::new(c, frt);
        for &v in &active {
            // Cone weights are stored in a byte.
            st.fallback[v.index()] = frt[v.index()] > u64::from(u8::MAX);
        }
        let max_b = active.iter().map(|v| frt[v.index()]).max().unwrap_or(0);
        let mut merge = Merge {
            k,
            cut_cap,
            ..Merge::default()
        };
        for b in 0..=max_b.min(u64::from(u8::MAX)) {
            active.retain(|v| !st.fallback[v.index()] && frt[v.index()] >= b);
            let _round = engine::trace::span_with(
                "cut_round",
                [Some(("round", b)), Some(("gates", active.len() as u64))],
            );
            for &v in &active {
                if b > 0 && !st.may_grow(v, b) {
                    continue;
                }
                if merge.run(&st, v, b).is_none() || !merge.append(&mut st, v, b as u8) {
                    st.drop_list(v);
                }
            }
            merge.stats.flush();
        }
        let arena = st.compact(k);
        let fallback = arena.fallback.iter().filter(|&&f| f).count();
        engine::trace::event_with(
            "cut_arena",
            [
                Some(("cuts", arena.weight.len() as u64)),
                Some(("fallback_gates", fallback as u64)),
            ],
        );
        arena
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

    /// `v`'s cuts in list order, each as its cone weight, leaf driver
    /// nodes and leaf register counts. For arena identity tests.
    #[doc(hidden)]
    pub fn cut_list(&self, v: NodeId) -> impl Iterator<Item = (u8, &[u32], &[u8])> + '_ {
        self.cuts(v).map(move |cut| {
            let leaves = self.leaves(cut);
            (
                self.weight[cut],
                &self.leaf_node[leaves.clone()],
                &self.leaf_weight[leaves],
            )
        })
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

/// The enumeration's state: every gate's cuts so far, and the gates
/// that fell back. A round appends each gate's new cuts — all of the
/// round's cone weight — as one segment at the end of the last chunk, so
/// lists grow in place and a gate's list is its segments in round order.
struct Lists<'a> {
    c: &'a Circuit,
    frt: &'a [u64],
    fallback: Vec<bool>,
    /// Per node: its first and last segment, or [`Lists::NONE`].
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Per node: cuts listed.
    count: Vec<u32>,
    segs: Vec<Seg>,
    chunks: Vec<Chunk>,
}

/// One round's cuts of one gate: `cuts` index the per-cut arrays of its
/// chunk, `leaves` the per-leaf ones.
#[derive(Debug, Clone)]
struct Seg {
    chunk: u32,
    cuts: Range<u32>,
    leaves: Range<u32>,
    weight: u8,
    /// The gate's next segment, or [`Lists::NONE`].
    next: u32,
}

/// Whole segments of up to [`Chunk::LEAVES`] leaves (more only for a
/// lone segment that needs it). Chunks this small come from, and go back
/// to, the allocator's heap, which the rest of a mapping run reuses.
#[derive(Debug, Default)]
struct Chunk {
    /// Per cut: its number of leaves; a cut's leaves follow the previous
    /// cut's in `node`/`w`.
    size: Vec<u8>,
    /// Per cut: leaf-set signature ([`sig_bit`]); not kept in the arena.
    sig: Vec<u64>,
    /// Per leaf: the driver node `u` of `u^w`; sorted by `(node, w)`
    /// within each cut.
    node: Vec<u32>,
    /// Per leaf: the register count `w` of `u^w`.
    w: Vec<u8>,
}

impl Chunk {
    const LEAVES: usize = 1 << 14;
}

impl<'a> Lists<'a> {
    const NONE: u32 = u32::MAX;

    fn new(c: &'a Circuit, frt: &'a [u64]) -> Lists<'a> {
        let n = c.num_nodes();
        Lists {
            c,
            frt,
            fallback: vec![false; n],
            head: vec![Lists::NONE; n],
            tail: vec![Lists::NONE; n],
            count: vec![0; n],
            segs: Vec::new(),
            chunks: Vec::new(),
        }
    }

    /// `v`'s segments, in ascending cone weight.
    fn segs(&self, v: NodeId) -> impl Iterator<Item = &Seg> {
        let mut s = self.head[v.index()];
        std::iter::from_fn(move || {
            let seg = self.segs.get(s as usize)?;
            s = seg.next;
            Some(seg)
        })
    }

    /// A segment's chunk and its cuts there, each with its leaf range.
    fn cuts<'s>(
        &'s self,
        seg: &Seg,
    ) -> (&'s Chunk, impl Iterator<Item = (usize, Range<usize>)> + 's) {
        let chunk = &self.chunks[seg.chunk as usize];
        let mut start = seg.leaves.start as usize;
        let cuts = (seg.cuts.start as usize..seg.cuts.end as usize).map(move |i| {
            let end = start + usize::from(chunk.size[i]);
            let leaves = start..end;
            start = end;
            (i, leaves)
        });
        (chunk, cuts)
    }

    /// Whether round `b` can give `v` a cut of weight `b`: some fanin
    /// `u^w` the cone may absorb lists a cut of weight exactly `b − w`
    /// (or has fallen back, which `v` must then inherit).
    fn may_grow(&self, v: NodeId, b: u64) -> bool {
        self.c.node(v).fanin().iter().any(|&e| {
            let edge = self.c.edge(e);
            let (u, w) = (edge.from(), edge.weight() as u64);
            self.c.node(u).is_gate()
                && w <= b
                && (self.fallback[u.index()] || self.segs(u).any(|s| u64::from(s.weight) == b - w))
        })
    }

    /// Appends the cuts of `set`, all of weight `b` and with at most 255
    /// leaves, to `v`'s list.
    fn push(&mut self, v: NodeId, b: u8, set: &CandSet) {
        let leaves: usize = set.cands.iter().map(|c| c.len as usize).sum();
        let full = |ch: &Chunk| ch.node.len() + leaves > ch.node.capacity();
        if self.chunks.last().is_none_or(full) {
            let leaves = leaves.max(Chunk::LEAVES);
            self.chunks.push(Chunk {
                node: Vec::with_capacity(leaves),
                w: Vec::with_capacity(leaves),
                ..Chunk::default()
            });
        }
        let chunk_id = self.chunks.len() - 1;
        let chunk = &mut self.chunks[chunk_id];
        let (first, first_leaf) = (chunk.size.len() as u32, chunk.node.len() as u32);
        for c in &set.cands {
            let keys = set.leaves(c);
            chunk.node.extend(keys.iter().map(|&k| (k >> 8) as u32));
            chunk.w.extend(keys.iter().map(|&k| k as u8));
            chunk.size.push(c.len as u8);
            chunk.sig.push(c.sig);
        }
        let s = self.segs.len() as u32;
        self.segs.push(Seg {
            chunk: chunk_id as u32,
            cuts: first..chunk.size.len() as u32,
            leaves: first_leaf..chunk.node.len() as u32,
            weight: b,
            next: Lists::NONE,
        });
        let i = v.index();
        match self.tail[i] {
            Lists::NONE => self.head[i] = s,
            t => self.segs[t as usize].next = s,
        }
        self.tail[i] = s;
        self.count[i] += set.cands.len() as u32;
    }

    /// Sends `v` to the flow fallback: it lists no cuts.
    fn drop_list(&mut self, v: NodeId) {
        let i = v.index();
        self.fallback[i] = true;
        self.head[i] = Lists::NONE;
        self.tail[i] = Lists::NONE;
        self.count[i] = 0;
    }

    /// Packs the lists into the flat arena, in node order.
    fn compact(mut self, k: usize) -> CutArena {
        // The signatures go first: the arena may reuse their memory.
        for chunk in &mut self.chunks {
            chunk.sig = Vec::new();
        }
        let cuts: usize = self.count.iter().map(|&l| l as usize).sum();
        let leaves: usize = (self.c.node_ids().flat_map(|v| self.segs(v)))
            .map(|seg| seg.leaves.len())
            .sum();
        let mut a = CutArena {
            k,
            gate_off: Vec::with_capacity(self.c.num_nodes() + 1),
            fallback: Vec::new(),
            leaf_off: Vec::with_capacity(cuts + 1),
            weight: Vec::with_capacity(cuts),
            leaf_node: Vec::with_capacity(leaves),
            leaf_weight: Vec::with_capacity(leaves),
        };
        a.gate_off.push(0);
        a.leaf_off.push(0);
        for v in self.c.node_ids() {
            for seg in self.segs(v) {
                let leaves = seg.leaves.start as usize..seg.leaves.end as usize;
                let (from, to) = (leaves.start, a.leaf_node.len());
                let (chunk, cuts) = self.cuts(seg);
                a.leaf_node.extend_from_slice(&chunk.node[leaves.clone()]);
                a.leaf_weight.extend_from_slice(&chunk.w[leaves]);
                a.leaf_off
                    .extend(cuts.map(|(_, cut)| (cut.end - from + to) as u32));
                a.weight.extend(seg.cuts.clone().map(|_| seg.weight));
            }
            a.gate_off.push(a.weight.len() as u32);
        }
        a.fallback = self.fallback;
        a
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
    /// `start` on, with signature `sig`.
    fn seal(&mut self, start: usize, weight: u8, sig: u64) {
        self.cands.push(Cand {
            start: start as u32,
            len: (self.keys.len() - start) as u32,
            weight,
            sig,
        });
    }
}

/// The signature of a leaf set.
fn signature(keys: &[Key]) -> u64 {
    keys.iter().fold(0, |s, &k| s | sig_bit(k))
}

/// The kept cuts of a [`Pruner::prune`], their signatures grouped by
/// leaf count. A dominator has fewer leaves than the candidate, or else
/// is a duplicate, with its leaf count and signature: a check scans only
/// those groups, one signature test per kept cut.
#[derive(Debug, Default)]
struct SigIndex {
    /// Per leaf count: the kept cuts' signatures.
    sigs: Vec<Vec<u64>>,
    /// Per leaf count: the kept cuts, aligned with `sigs`.
    cuts: Vec<Vec<u32>>,
}

impl SigIndex {
    fn clear(&mut self) {
        self.sigs.iter_mut().for_each(Vec::clear);
        self.cuts.iter_mut().for_each(Vec::clear);
    }

    fn insert(&mut self, c: &Cand, cut: usize) {
        let len = c.len as usize;
        if self.sigs.len() <= len {
            self.sigs.resize_with(len + 1, Vec::new);
            self.cuts.resize_with(len + 1, Vec::new);
        }
        self.sigs[len].push(c.sig);
        self.cuts[len].push(cut as u32);
    }

    /// Whether a cut of `kept` (leaves in `keys`) indexed here has a
    /// subset of `c`'s leaves at no larger weight; `scans` counts the
    /// cuts examined.
    fn dominates(&self, keys: &[Key], kept: &[Cand], c: &Cand, scans: &mut u64) -> bool {
        let leaves = |d: &Cand| &keys[d.start as usize..(d.start + d.len) as usize];
        let len = (c.len as usize).min(self.sigs.len());
        let mut subset = |sigs: &[u64], cuts: &[u32]| {
            *scans += sigs.len() as u64;
            sigs.iter().zip(cuts).any(|(&sig, &cut)| {
                sig & !c.sig == 0 && {
                    let d = &kept[cut as usize];
                    d.weight <= c.weight && is_subset(leaves(d).iter().copied(), leaves(c))
                }
            })
        };
        if (0..len).any(|l| subset(&self.sigs[l], &self.cuts[l])) {
            return true;
        }
        let (Some(sigs), Some(cuts)) = (self.sigs.get(len), self.cuts.get(len)) else {
            return false;
        };
        *scans += sigs.len() as u64;
        sigs.iter().zip(cuts).any(|(&sig, &cut)| {
            sig == c.sig && {
                let d = &kept[cut as usize];
                d.weight <= c.weight && leaves(d) == leaves(c)
            }
        })
    }
}

/// Work counters of one enumeration round, flushed to telemetry once.
#[derive(Debug, Default)]
struct Stats {
    pairs: u64,
    candidates: u64,
    kept: u64,
    scans: u64,
}

impl Stats {
    fn flush(&mut self) {
        use engine::telemetry::{count, Counter};
        count(Counter::CutProductPairs, self.pairs);
        count(Counter::CutCandidates, self.candidates);
        count(Counter::CutsKept, self.kept);
        count(Counter::CutDominanceScans, self.scans);
        *self = Stats::default();
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
    pruner: Pruner,
    stats: Stats,
}

impl Merge {
    /// Leaves in `exact` `v`'s non-dominated cuts of cone weight exactly
    /// `b` that the fanins' lists offer; `None` when `v` must fall back.
    ///
    /// A union weighs as much as its heavier part, so the partial cuts
    /// split into `exact` (weight `b`) and `lighter` ones: each fanin
    /// turns `exact` into `exact × choices ∪ lighter × exact choices` and
    /// `lighter` into `lighter × lighter choices`. A round thus pays only
    /// for unions that reach its weight.
    fn run(&mut self, st: &Lists, v: NodeId, b: u64) -> Option<()> {
        let fanins = st.c.node(v).fanin();
        self.lighter.clear();
        self.exact.clear();
        // The root alone, of cone weight 0.
        if b == 0 {
            self.exact.seal(0, 0, 0);
        } else {
            self.lighter.seal(0, 0, 0);
        }
        for (j, &e) in fanins.iter().enumerate() {
            self.options(st, v, e, b)?;
            let k = self.k;
            // At the first fanin the root alone is the only partial cut,
            // so the unions are the choices themselves: `u^w` and
            // segments of `u`'s list, which pruning left in leaf-count
            // order with no cut dominating another, within a segment or
            // (see `append`) across segments. Once they are in (leaf
            // count, weight) order, pruning keeps them all, as they are.
            let first = j == 0 && k >= 1;
            let pruned = |set: &CandSet| set.cands.is_sorted_by_key(|c| (c.len, c.weight));
            if first && pruned(&self.opt_exact) {
                std::mem::swap(&mut self.exact, &mut self.opt_exact);
            } else {
                let stats = &mut self.stats;
                self.product.clear();
                product_into(&self.exact, &self.opt_lighter, k, &mut self.product, stats);
                product_into(&self.exact, &self.opt_exact, k, &mut self.product, stats);
                product_into(&self.lighter, &self.opt_exact, k, &mut self.product, stats);
                let scans = &mut self.stats.scans;
                self.pruner.prune(&mut self.product, &mut self.exact, scans);
            }
            if j + 1 == fanins.len() {
                // The last fanin's lighter unions would feed nothing.
            } else if first && pruned(&self.opt_lighter) {
                std::mem::swap(&mut self.lighter, &mut self.opt_lighter);
            } else {
                self.product.clear();
                let stats = &mut self.stats;
                product_into(
                    &self.lighter,
                    &self.opt_lighter,
                    k,
                    &mut self.product,
                    stats,
                );
                let scans = &mut self.stats.scans;
                self.pruner
                    .prune(&mut self.product, &mut self.lighter, scans);
            }
            if self.exact.cands.len() + self.lighter.cands.len() > 4 * self.cut_cap {
                return None;
            }
        }
        Some(())
    }

    /// Appends to `v`'s list every cut [`Merge::run`] left in `exact`.
    /// False when the list would then exceed the cut cap, or a cut has
    /// more than 255 leaves (leaf counts are stored in a byte).
    ///
    /// No lighter cut `D` of an earlier round can dominate a new cut `C`
    /// of weight `b`, so none is checked. Let `T(L)` be the true cone
    /// weight of leaf set `L`: the most registers on an instance with a
    /// path to `v` that avoids `L`. A path that avoids `C` avoids any
    /// `D ⊆ C`, so `T(D) ≥ T(C)`. Listed weights are true weights
    /// (induction over the rounds): the constructed weight is the largest
    /// in the union of the fanins' cones, so `W(C) ≥ T(C)`; if `W(C) >
    /// T(C)`, a weight-`b` instance in fanin `i`'s cone reaches `v` only
    /// through a leaf `ℓ` of another fanin's cut `c_j` that lies inside
    /// `c_i`'s cone (reconvergence). Swap `ℓ`, in every fanin cut that
    /// holds it, for `c_i`'s leaves behind it: each swapped cone lies
    /// within its own cut's cone and `c_i`'s, both of weight at most `b`
    /// in `C`, so each swapped cut is covered by its fanin's complete
    /// list. This round therefore also forms a union of weight exactly `b`
    /// (from `c_i`) on `C`'s leaves without `ℓ`, and pruning drops `C`.
    /// Hence `T(D) ≥ T(C) = b > W(D) = T(D)`, absurd.
    fn append(&mut self, st: &mut Lists, v: NodeId, b: u8) -> bool {
        let cands = &self.exact.cands;
        if cands.iter().any(|c| c.len > u32::from(u8::MAX))
            || st.count[v.index()] as usize + cands.len() > self.cut_cap
        {
            return false;
        }
        if !cands.is_empty() {
            st.push(v, b, &self.exact);
            self.stats.kept += cands.len() as u64;
        }
        true
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
        let k = key(u.0, w);
        leaf.keys.push(k);
        leaf.seal(0, 0, sig_bit(k));
        if !st.c.node(u).is_gate() || u64::from(w) > b {
            return Some(());
        }
        // `u`'s list must cover every sub-cone weight `F_v` allows.
        if st.fallback[u.index()] || st.frt[u.index()] + u64::from(w) < st.frt[v.index()] {
            return None;
        }
        for seg in st.segs(u) {
            let weight = u64::from(seg.weight) + u64::from(w);
            let opts = match weight.cmp(&b) {
                Ordering::Less => &mut self.opt_lighter,
                Ordering::Equal => &mut self.opt_exact,
                Ordering::Greater => break,
            };
            // The segment's leaves are contiguous: shift them in one go.
            let leaves = seg.leaves.start as usize..seg.leaves.end as usize;
            let (chunk, cuts) = st.cuts(seg);
            let (nodes, ws) = (&chunk.node[leaves.clone()], &chunk.w[leaves.clone()]);
            if ws.iter().any(|&lw| lw.checked_add(w).is_none()) {
                return None;
            }
            let base = opts.keys.len();
            let shifted = nodes.iter().zip(ws).map(|(&n, &lw)| key(n, lw + w));
            opts.keys.extend(shifted);
            for (i, cut) in cuts {
                let start = base + (cut.start - leaves.start);
                let end = start + cut.len();
                let sig = if w == 0 {
                    chunk.sig[i]
                } else {
                    signature(&opts.keys[start..end])
                };
                opts.cands.push(Cand {
                    start: start as u32,
                    len: (end - start) as u32,
                    weight: weight as u8,
                    sig,
                });
            }
        }
        Some(())
    }
}

/// Appends to `out` every union of a cut of `a` and a cut of `b` with at
/// most `k` leaves.
fn product_into(a: &CandSet, b: &CandSet, k: usize, out: &mut CandSet, stats: &mut Stats) {
    stats.pairs += (a.cands.len() * b.cands.len()) as u64;
    for p in &a.cands {
        // A cut this short always fits beside `p`; a longer one only
        // when it shares leaves with `p`, which disjoint signatures rule
        // out at once.
        let room = k.saturating_sub(p.len as usize);
        for o in &b.cands {
            let sig = p.sig | o.sig;
            if o.len as usize > room && (p.sig & o.sig == 0 || sig.count_ones() as usize > k) {
                continue;
            }
            let start = out.keys.len();
            if union_into(a.leaves(p), b.leaves(o), k, &mut out.keys) {
                out.seal(start, p.weight.max(o.weight), sig);
                stats.candidates += 1;
            }
        }
    }
}

/// Reusable buffers of the dominance pruning.
#[derive(Debug, Default)]
struct Pruner {
    /// Counting-sort buffers.
    order: Vec<u32>,
    counts: Vec<u32>,
    /// The cuts kept so far.
    index: SigIndex,
}

impl Pruner {
    /// `out` ← the non-dominated cuts of `set`, which keeps `out`'s old
    /// key pool. Visited in (leaf count, weight) order — a counting sort,
    /// both being small — a cut can only be dominated by one kept before
    /// it.
    fn prune(&mut self, set: &mut CandSet, out: &mut CandSet, scans: &mut u64) {
        let (lo, hi, longest) = set.cands.iter().fold((u8::MAX, 0, 0), |(lo, hi, len), c| {
            (lo.min(c.weight), hi.max(c.weight), len.max(c.len as usize))
        });
        let span = usize::from(hi.saturating_sub(lo)) + 1;
        let slot = |c: &Cand| c.len as usize * span + usize::from(c.weight - lo);
        let slots = (longest + 1) * span;
        let counts = &mut self.counts;
        counts.clear();
        counts.resize(slots + 1, 0);
        for c in &set.cands {
            counts[slot(c) + 1] += 1;
        }
        for s in 0..slots {
            counts[s + 1] += counts[s];
        }
        self.order.clear();
        self.order.resize(set.cands.len(), 0);
        for (i, c) in set.cands.iter().enumerate() {
            let s = slot(c);
            self.order[counts[s] as usize] = i as u32;
            counts[s] += 1;
        }
        out.cands.clear();
        self.index.clear();
        for &i in &self.order {
            let c = set.cands[i as usize];
            if !self.index.dominates(&set.keys, &out.cands, &c, scans) {
                out.cands.push(c);
                self.index.insert(&c, out.cands.len() - 1);
            }
        }
        // The kept cuts' leaves stay where `set` put them.
        std::mem::swap(&mut out.keys, &mut set.keys);
    }
}

/// Appends the sorted union of `a` and `b` to `out`; false, appending
/// nothing, when it would exceed `k` keys.
fn union_into(a: &[Key], b: &[Key], k: usize, out: &mut Vec<Key>) -> bool {
    let start = out.len();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    if out.len() - start > k {
        out.truncate(start);
        return false;
    }
    true
}

/// True when sorted `a` is a subset of sorted `b`.
fn is_subset(a: impl ExactSizeIterator<Item = Key>, b: &[Key]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut j = 0;
    for x in a {
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
        assert!(is_subset([2, 9].into_iter(), &[1, 2, 4, 9]));
        assert!(!is_subset([2, 3].into_iter(), &[1, 2, 4, 9]));
        assert!(is_subset([].into_iter(), &[1]));
    }
}
