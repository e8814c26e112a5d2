//! Exact K-feasible cut enumeration: every gate's cuts of its expanded
//! circuit, listed once per run in one arena.
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
//!   segments are the arena: a gate's list is its segments in round
//!   order, which is ascending cone weight, and the label scans walk
//!   them in place. Only the signatures are freed after the last round.
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
//! fell back in; the segments it had listed stay in their chunks, unread.
//! Its label updates run a bounded max-flow instead:
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
/// sorted by cone weight, in the layout the enumeration builds them in.
/// A round appends each gate's new cuts — all of the round's cone weight
/// — as one segment at the end of the last chunk, so lists grow in place
/// and a gate's list is its segments in round order.
#[derive(Debug, Clone)]
pub struct CutArena {
    /// The LUT input bound `K` every listed cut meets.
    k: usize,
    /// Per node: true for gates answered by the flow fallback.
    fallback: Vec<bool>,
    /// Per node: its first and last segment, or [`CutArena::NONE`].
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Per node: cuts listed.
    count: Vec<u32>,
    segs: Vec<Seg>,
    chunks: Vec<Chunk>,
}

/// One round's cuts of one gate, all of cone weight `weight`: `cuts`
/// index the per-cut arrays of its chunk, `leaves` the per-leaf ones.
#[derive(Debug, Clone)]
struct Seg {
    chunk: u32,
    cuts: Range<u32>,
    leaves: Range<u32>,
    weight: u8,
    /// The gate's next segment, or [`CutArena::NONE`].
    next: u32,
}

/// Whole segments of up to [`Chunk::LEAVES`] leaves (more only for a
/// lone segment that needs it). A chunk reserves its leaves when it
/// opens and a segment that does not fit opens the next, so leaves are
/// never copied and the slack is the unfilled tail of each chunk.
#[derive(Debug, Clone, Default)]
struct Chunk {
    /// Per cut: its number of leaves; a cut's leaves follow the previous
    /// cut's in `node`/`w`.
    size: Vec<u8>,
    /// Per cut: leaf-set signature ([`sig_bit`]), freed after the last
    /// round.
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

impl CutArena {
    const NONE: u32 = u32::MAX;

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
        let n = c.num_nodes();
        let mut arena = CutArena {
            k,
            fallback: vec![false; n],
            head: vec![CutArena::NONE; n],
            tail: vec![CutArena::NONE; n],
            count: vec![0; n],
            segs: Vec::new(),
            chunks: Vec::new(),
        };
        for &v in &active {
            // Cone weights are stored in a byte.
            arena.fallback[v.index()] = frt[v.index()] > u64::from(u8::MAX);
        }
        let max_b = active.iter().map(|v| frt[v.index()]).max().unwrap_or(0);
        let mut merge = Merge {
            k,
            cut_cap,
            ..Merge::default()
        };
        for b in 0..=max_b.min(u64::from(u8::MAX)) {
            active.retain(|v| !arena.fallback[v.index()] && frt[v.index()] >= b);
            let _round = engine::trace::span_with(
                "cut_round",
                [Some(("round", b)), Some(("gates", active.len() as u64))],
            );
            for &v in &active {
                if b > 0 && !arena.may_grow(c, v, b) {
                    continue;
                }
                if merge.run(&arena, c, frt, v, b).is_none()
                    || !merge.append(&mut arena, v, b as u8)
                {
                    arena.drop_list(v);
                }
            }
            merge.stats.flush();
        }
        // Only the enumeration reads the signatures.
        for chunk in &mut arena.chunks {
            chunk.sig = Vec::new();
        }
        let cuts: u64 = arena.count.iter().map(|&n| u64::from(n)).sum();
        let fallback = arena.fallback.iter().filter(|&&f| f).count();
        engine::trace::event_with(
            "cut_arena",
            [
                Some(("cuts", cuts)),
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
        self.count[v.index()] as usize
    }

    /// The position in `v`'s list of the cut with exactly `cut`'s leaves,
    /// if listed — where a [`CutFault`] aimed at that cut goes.
    pub fn position(&self, v: NodeId, cut: &ExpCut) -> Option<usize> {
        let mut want: Vec<(u32, u64)> = cut.signals.iter().map(|s| (s.node.0, s.weight)).collect();
        want.sort_unstable();
        self.cut_list(v).position(|(_, node, w)| {
            let leaves = node.iter().zip(w).map(|(&n, &w)| (n, u64::from(w)));
            leaves.eq(want.iter().copied())
        })
    }

    /// The driver node of every leaf of every cut of `v` (with repeats).
    pub fn leaf_nodes(&self, v: NodeId) -> impl Iterator<Item = u32> + '_ {
        self.segs(v).flat_map(move |seg| {
            let leaves = seg.leaves.start as usize..seg.leaves.end as usize;
            self.chunks[seg.chunk as usize].node[leaves].iter().copied()
        })
    }

    /// The scan behind `LabelUpdate`: the smallest cone weight of a listed
    /// cut of `v` whose leaves `u^w` all satisfy
    /// `l^s(u) − Φ·w + 1 ≤ height`, or `None` when no cut qualifies.
    /// Meaningless for fallback gates, which list no cuts.
    pub fn min_weight(&self, v: NodeId, ls: &[i64], phi: i64, height: i64) -> Option<u64> {
        let (weight, node, _) = self
            .cut_list(v)
            .find(|&(_, node, w)| within_height(node, w, ls, phi, height))?;
        engine::telemetry::record(engine::hist::Metric::CutSize, node.len() as u64);
        Some(u64::from(weight))
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
            self.cut_list(v)
                .take_while(|&(cw, ..)| u64::from(cw) <= weight)
                .filter(|&(_, node, w)| within_height(node, w, ls, phi, height))
        };
        let fewest = qualifying().map(|(_, node, _)| node.len()).min()?;
        let mut tied = qualifying().filter(|(_, node, _)| node.len() == fewest);
        let first = tied.next()?;
        // Cone walks only break ties; `min_by_key` keeps the first minimum.
        let (_, node, w) = match tied.next() {
            None => first,
            Some(second) => [first, second]
                .into_iter()
                .chain(tied)
                .min_by_key(|&(_, node, w)| cone_size(node, w))?,
        };
        engine::telemetry::record(engine::hist::Metric::CutSize, fewest as u64);
        let signals = node
            .iter()
            .zip(w)
            .map(|(&n, &w)| ExpNode {
                node: NodeId(n),
                weight: u64::from(w),
            })
            .collect();
        Some(ExpCut { signals })
    }

    /// `v`'s cuts in list order (ascending cone weight), each as its cone
    /// weight, leaf driver nodes and leaf register counts.
    #[doc(hidden)]
    pub fn cut_list(&self, v: NodeId) -> impl Iterator<Item = (u8, &[u32], &[u8])> + '_ {
        self.segs(v).flat_map(move |seg| {
            let (chunk, cuts) = self.seg_cuts(seg);
            cuts.map(move |(_, l)| (seg.weight, &chunk.node[l.clone()], &chunk.w[l]))
        })
    }

    /// Plants `fault` in gate `v`'s list; false when the list has no such
    /// cut. A fault-injection hook for oracle tests: it relists `v` in a
    /// chunk of its own, one segment per cut, so a bumped cut keeps its
    /// place in the list.
    #[doc(hidden)]
    pub fn inject(&mut self, v: NodeId, fault: CutFault) -> bool {
        let (CutFault::DropCut(i) | CutFault::BumpWeight(i)) = fault;
        if i >= self.num_cuts(v) {
            return false;
        }
        let chunk_id = self.chunks.len() as u32;
        let mut chunk = Chunk::default();
        let mut segs = Vec::new();
        for (j, (weight, node, w)) in self.cut_list(v).enumerate() {
            let weight = match fault {
                CutFault::DropCut(_) if j == i => continue,
                CutFault::BumpWeight(_) if j == i => weight.saturating_add(1),
                _ => weight,
            };
            let (cut, leaf) = (chunk.size.len() as u32, chunk.node.len() as u32);
            chunk.size.push(node.len() as u8);
            chunk.node.extend_from_slice(node);
            chunk.w.extend_from_slice(w);
            segs.push(Seg {
                chunk: chunk_id,
                cuts: cut..cut + 1,
                leaves: leaf..chunk.node.len() as u32,
                weight,
                next: CutArena::NONE,
            });
        }
        self.chunks.push(chunk);
        let i = v.index();
        (self.head[i], self.tail[i], self.count[i]) = (CutArena::NONE, CutArena::NONE, 0);
        for seg in segs {
            self.link(v, seg);
        }
        true
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
    fn seg_cuts<'s>(
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
    fn may_grow(&self, c: &Circuit, v: NodeId, b: u64) -> bool {
        c.node(v).fanin().iter().any(|&e| {
            let edge = c.edge(e);
            let (u, w) = (edge.from(), edge.weight() as u64);
            c.node(u).is_gate()
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
        let seg = Seg {
            chunk: chunk_id as u32,
            cuts: first..chunk.size.len() as u32,
            leaves: first_leaf..chunk.node.len() as u32,
            weight: b,
            next: CutArena::NONE,
        };
        self.link(v, seg);
    }

    /// Appends `seg` to `v`'s list.
    fn link(&mut self, v: NodeId, seg: Seg) {
        let (i, s) = (v.index(), self.segs.len() as u32);
        self.count[i] += seg.cuts.len() as u32;
        self.segs.push(seg);
        match self.tail[i] {
            CutArena::NONE => self.head[i] = s,
            t => self.segs[t as usize].next = s,
        }
        self.tail[i] = s;
    }

    /// Sends `v` to the flow fallback: it lists no cuts. Its segments stay
    /// in their chunks, unread.
    fn drop_list(&mut self, v: NodeId) {
        let i = v.index();
        self.fallback[i] = true;
        self.head[i] = CutArena::NONE;
        self.tail[i] = CutArena::NONE;
        self.count[i] = 0;
    }
}

/// Whether every leaf `node[i]^{w[i]}` has `l^s(u) − Φ·w + 1 ≤ height`.
fn within_height(node: &[u32], w: &[u8], ls: &[i64], phi: i64, height: i64) -> bool {
    node.iter()
        .zip(w)
        .all(|(&u, &w)| ls[u as usize] - phi * i64::from(w) < height)
}

/// Reusable buffers of the cone walks that break final-cut ties and that
/// mapping generation derives its cones with.
#[derive(Debug, Clone, Default)]
pub struct ConeWalk {
    /// Per node: the walk that last reached it; `head` is valid only
    /// under the current walk's stamp.
    stamp: Vec<u32>,
    /// Per node: its latest instance in `inst` this walk.
    head: Vec<u32>,
    /// The instances reached, in slot order: (node, register count, the
    /// node's previous instance or [`ConeWalk::NONE`]).
    inst: Vec<(NodeId, u64, u32)>,
    /// Slots of the instances still to expand.
    stack: Vec<u32>,
    walk: u32,
}

impl ConeWalk {
    const NONE: u32 = u32::MAX;

    /// The number of `(node, register count)` instances in the cone of
    /// gate `v` bounded by the leaves `node[i]^{w[i]}`, walking fanins from
    /// the root as mapping generation derives the cone.
    pub fn size(&mut self, c: &Circuit, v: NodeId, node: &[u32], w: &[u8]) -> usize {
        self.start(c, v);
        while let Some((_, x, xw)) = self.pop() {
            for &e in c.node(x).fanin() {
                let edge = c.edge(e);
                let (u, uw) = (edge.from(), xw + edge.weight() as u64);
                let leaf = node
                    .iter()
                    .zip(w)
                    .any(|(&ln, &lw)| ln == u.0 && u64::from(lw) == uw);
                if !leaf {
                    self.visit(u, uw);
                }
            }
        }
        self.inst.len()
    }

    /// Starts a new walk at gate `v`, instance `v^0` in slot 0.
    pub fn start(&mut self, c: &Circuit, v: NodeId) {
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
        self.visit(v, 0);
    }

    /// The next instance to expand, depth first: its slot, node and
    /// register count.
    pub fn pop(&mut self) -> Option<(usize, NodeId, u64)> {
        let slot = self.stack.pop()? as usize;
        let (u, w, _) = self.inst[slot];
        Some((slot, u, w))
    }

    /// The slot of instance `u^w`: the next free one, and `u^w` queued,
    /// the first time this walk reaches it.
    pub fn visit(&mut self, u: NodeId, w: u64) -> usize {
        let i = u.index();
        if self.stamp[i] == self.walk {
            let mut j = self.head[i];
            while j != Self::NONE {
                let (_, jw, prev) = self.inst[j as usize];
                if jw == w {
                    return j as usize;
                }
                j = prev;
            }
        } else {
            self.stamp[i] = self.walk;
            self.head[i] = Self::NONE;
        }
        let slot = self.inst.len() as u32;
        self.inst.push((u, w, self.head[i]));
        self.head[i] = slot;
        self.stack.push(slot);
        slot as usize
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
    fn run(&mut self, st: &CutArena, c: &Circuit, frt: &[u64], v: NodeId, b: u64) -> Option<()> {
        let fanins = c.node(v).fanin();
        self.lighter.clear();
        self.exact.clear();
        // The root alone, of cone weight 0.
        if b == 0 {
            self.exact.seal(0, 0, 0);
        } else {
            self.lighter.seal(0, 0, 0);
        }
        for (j, &e) in fanins.iter().enumerate() {
            self.options(st, c, frt, v, e, b)?;
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
    fn append(&mut self, st: &mut CutArena, v: NodeId, b: u8) -> bool {
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
    fn options(
        &mut self,
        st: &CutArena,
        c: &Circuit,
        frt: &[u64],
        v: NodeId,
        e: EdgeId,
        b: u64,
    ) -> Option<()> {
        let edge = c.edge(e);
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
        if !c.node(u).is_gate() || u64::from(w) > b {
            return Some(());
        }
        // `u`'s list must cover every sub-cone weight `F_v` allows.
        if st.fallback[u.index()] || frt[u.index()] + u64::from(w) < frt[v.index()] {
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
            let (chunk, cuts) = st.seg_cuts(seg);
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
