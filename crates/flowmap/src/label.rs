//! FlowMap label computation (Cong & Ding, 1994), by cut enumeration.
//!
//! FlowMap gives every gate of a K-bounded combinational network its
//! *label*: the minimum depth of any K-LUT mapping rooted at the gate. A
//! gate's label is one more than the smallest, over its K-feasible cuts,
//! of the largest label among the cut's leaves — the cut-enumeration
//! labelling of Kulkarni & Vrudhula ("Efficient Enumeration of
//! Unidirectional Cuts"), which the cut-based mappers of Mapping Fusion
//! use too. FlowMap's theorem bounds it: `l(v) ∈ {p, p+1}` for `p` the
//! largest fanin label, and `l(v) = p` iff some K-cut has every leaf
//! labelled below `p`.
//!
//! We run FlowMap directly on a *sequential* circuit: a register crossing
//! is a depth-0 leaf (a [`CutSignal`] tap), so each combinational block
//! bounded by FFs is labelled independently — the "map each combinational
//! subcircuit with FlowMap" baseline of the paper. Those cuts are the
//! cone-weight-0 cuts of a [`CutArena`]: its round 0, which
//! [`flowmap_labels`] enumerates alone and which every TurboMap context's
//! arena already holds ([`flowmap_labels_with`]).
//!
//! # The cut
//!
//! When `l(v) = p` the gate's cut is the one FlowMap's max-flow returns,
//! the near-sink minimum cut among those with every leaf below `p`. The
//! arena's final-cut pick (fewest leaves, then smallest cone) is exactly
//! that cut. Otherwise the cut is the fanin cut. Cut signals are listed
//! in the order max-flow's network numbers them, so LUT inputs come out
//! in the same order whichever path found the cut.
//!
//! # Max-flow fallback
//!
//! Two kinds of gates are labelled by one bounded max-flow on the gate's
//! cone instead, unit node capacities and every node labelled `p` or more
//! collapsed into the sink:
//!
//! * arena-fallback gates, which list no cuts;
//! * gates whose cone reads two taps of one driver with equal register
//!   counts but different initial values. The arena keys a leaf `u^w`
//!   and so merges them; FlowMap keeps them apart, as two LUT inputs.
//!
//! [`flow_label`] runs that max-flow for one gate; the fuzz `cut_check`
//! judges every arena-labelled gate against it.

use crate::cut::{Cut, CutSignal};
use crate::cutenum::{ConeWalk, CutArena, ExpNode};
use graphalgo::NodeCutNetwork;
use netlist::{Circuit, NodeId};
use std::collections::HashMap;

/// Result of FlowMap labelling.
#[derive(Debug, Clone)]
pub struct Labeling {
    /// Depth label per node (PIs 0; POs carry their driver's label).
    pub labels: Vec<u64>,
    /// Best K-feasible cut per gate.
    pub cuts: HashMap<NodeId, Cut>,
    /// The LUT input bound used.
    pub k: usize,
}

impl Labeling {
    /// The mapping depth of the whole network (max PO label).
    pub fn depth(&self, c: &Circuit) -> u64 {
        c.outputs()
            .iter()
            .map(|&po| self.labels[po.index()])
            .max()
            .unwrap_or(0)
    }
}

/// One boundary object of a cone: either a gate/PI inside the block or a
/// register tap.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ConeObj {
    /// Direct node output.
    Node(NodeId),
    /// Register tap `(driver, chain)`.
    Tap(NodeId, Vec<netlist::Bit>),
}

/// Computes FlowMap labels and best cuts for every gate, enumerating the
/// cone-weight-0 cuts first ([`CutArena::combinational`]).
///
/// # Panics
///
/// Panics if the circuit is not K-bounded or has combinational cycles —
/// callers are expected to validate and decompose first.
pub fn flowmap_labels(c: &Circuit, k: usize) -> Labeling {
    flowmap_labels_with(c, &CutArena::combinational(c, k))
}

/// [`flowmap_labels`] from the cone-weight-0 cuts of an arena enumerated
/// on `c` (any bounds: round 0 is the same for all), at the arena's `K`.
///
/// # Panics
///
/// Panics if the circuit is not K-bounded or has combinational cycles.
pub fn flowmap_labels_with(c: &Circuit, arena: &CutArena) -> Labeling {
    let k = arena.k();
    assert!(c.max_fanin() <= k, "network must be {k}-bounded");
    let order = c
        .comb_topo_order()
        .expect("combinational cycles must be rejected before labelling");
    let merged = merged_taps(c, &order);
    let mut labels = vec![0u64; c.num_nodes()];
    // The arena's heights `l(u) − Φ·w` at a Φ above every label: a tap
    // (w ≥ 1) then sits below every height, as its depth 0 does.
    let mut heights = vec![0i64; c.num_nodes()];
    let phi = c.num_nodes() as i64 + 1;
    let mut cones = ConeWalk::default();
    let mut order_walk = FlowOrder::default();
    let mut cuts: HashMap<NodeId, Cut> = HashMap::new();
    for &v in &order {
        let node = c.node(v);
        if node.is_input() {
            continue;
        }
        if node.is_output() {
            labels[v.index()] = driver_label(c, v, &labels);
            continue;
        }
        let (label, cut) = if arena.is_fallback(v) || merged[v.index()] {
            flow_label(c, v, &labels, k)
        } else {
            let p = fanin_label(c, v, &labels);
            let cut = if p == 0 {
                None
            } else {
                arena
                    .final_cut(v, &heights, phi, p as i64, 0, |node, w| {
                        cones.size(c, v, node, w)
                    })
                    .map(|cut| Cut {
                        signals: order_walk.signals(c, v, &cut.signals),
                    })
            };
            settle(c, v, p, cut)
        };
        labels[v.index()] = label;
        heights[v.index()] = label as i64;
        cuts.insert(v, cut);
    }
    Labeling { labels, cuts, k }
}

/// Gate `v`'s label and cut by max-flow, from the labels of the nodes
/// before it in topological order — the fallback path of
/// [`flowmap_labels_with`], and the oracle its other gates are judged
/// against.
pub fn flow_label(c: &Circuit, v: NodeId, labels: &[u64], k: usize) -> (u64, Cut) {
    let p = fanin_label(c, v, labels);
    let cut = if p == 0 {
        None
    } else {
        min_height_cut(c, v, labels, p, k)
    };
    settle(c, v, p, cut)
}

/// `(p, cut)` when a cut with every leaf below `p ≥ 1` was found, else
/// `(p + 1, the fanin cut)`.
fn settle(c: &Circuit, v: NodeId, p: u64, cut: Option<Cut>) -> (u64, Cut) {
    match cut {
        Some(cut) => (p, cut),
        None => (p + 1, fanin_cut(c, v)),
    }
}

/// A PO's label: its driver's, or 0 behind a register.
fn driver_label(c: &Circuit, po: NodeId, labels: &[u64]) -> u64 {
    let edge = c.edge(c.node(po).fanin()[0]);
    if edge.weight() > 0 {
        0
    } else {
        labels[edge.from().index()]
    }
}

/// `p`: the largest label over a gate's fanin signals (taps are depth 0).
fn fanin_label(c: &Circuit, v: NodeId, labels: &[u64]) -> u64 {
    c.node(v)
        .fanin()
        .iter()
        .map(|&e| c.edge(e))
        .filter(|edge| edge.weight() == 0)
        .map(|edge| labels[edge.from().index()])
        .max()
        .unwrap_or(0)
}

/// The gate's fanin signals as a cut, deduplicated.
fn fanin_cut(c: &Circuit, v: NodeId) -> Cut {
    let mut signals: Vec<CutSignal> = Vec::new();
    for &e in c.node(v).fanin() {
        let edge = c.edge(e);
        let s = CutSignal::tap(edge.from(), edge.ffs().to_vec());
        if !signals.contains(&s) {
            signals.push(s);
        }
    }
    Cut { signals }
}

/// Per node: true for a gate whose combinational cone reads two register
/// taps of one driver with equal register counts but different initial
/// values (any such driver counts, conservatively).
fn merged_taps(c: &Circuit, order: &[NodeId]) -> Vec<bool> {
    // Drivers with two equal-length taps into gates that differ.
    let mut clashing = vec![false; c.num_nodes()];
    for u in c.node_ids() {
        let mut seen: Vec<&[netlist::Bit]> = Vec::new();
        for &e in c.node(u).fanout() {
            let edge = c.edge(e);
            if edge.weight() == 0 || !c.node(edge.to()).is_gate() {
                continue;
            }
            match seen.iter().find(|chain| chain.len() == edge.weight()) {
                Some(&chain) if chain != edge.ffs() => clashing[u.index()] = true,
                Some(_) => {}
                None => seen.push(edge.ffs()),
            }
        }
    }
    let mut merged = vec![false; c.num_nodes()];
    if !clashing.contains(&true) {
        return merged;
    }
    for &v in order {
        merged[v.index()] = c.node(v).is_gate()
            && c.node(v).fanin().iter().any(|&e| {
                let edge = c.edge(e);
                let u = edge.from().index();
                if edge.weight() == 0 {
                    merged[u]
                } else {
                    clashing[u]
                }
            });
    }
    merged
}

/// Reusable buffers of [`FlowOrder::signals`].
#[derive(Debug, Default)]
struct FlowOrder {
    /// Per node: the walk that last pushed it.
    stamp: Vec<u32>,
    walk: u32,
    stack: Vec<NodeId>,
}

impl FlowOrder {
    /// The leaves `u^w` of a cut of gate `v` as cut signals, each tap with
    /// its initial values, in the order [`min_height_cut`] numbers its
    /// flow network: first sight in a walk of `v`'s whole combinational
    /// cone that pops gates last-in first-out and scans each one's
    /// fanins in order. Stops once every leaf is seen.
    fn signals(&mut self, c: &Circuit, v: NodeId, leaves: &[ExpNode]) -> Vec<CutSignal> {
        if self.stamp.len() < c.num_nodes() {
            self.stamp.resize(c.num_nodes(), 0);
        }
        self.walk = self.walk.wrapping_add(1);
        if self.walk == 0 {
            self.stamp.fill(0);
            self.walk = 1;
        }
        let mut signals: Vec<CutSignal> = Vec::with_capacity(leaves.len());
        self.stack.clear();
        self.stack.push(v);
        self.stamp[v.index()] = self.walk;
        'walk: while let Some(g) = self.stack.pop() {
            for &e in c.node(g).fanin() {
                let edge = c.edge(e);
                let u = edge.from();
                let leaf = ExpNode {
                    node: u,
                    weight: edge.weight() as u64,
                };
                if leaves.contains(&leaf)
                    && !signals
                        .iter()
                        .any(|s| s.node == u && s.weight() == edge.weight())
                {
                    signals.push(CutSignal::tap(u, edge.ffs().to_vec()));
                    if signals.len() == leaves.len() {
                        break 'walk;
                    }
                }
                if edge.weight() == 0 && c.node(u).is_gate() && self.stamp[u.index()] != self.walk {
                    self.stamp[u.index()] = self.walk;
                    self.stack.push(u);
                }
            }
        }
        debug_assert_eq!(signals.len(), leaves.len(), "every leaf lies in the cone");
        signals
    }
}

/// Searches a K-feasible cut of `v`'s combinational cone whose cut objects
/// all have labels `< p` (taps and PIs have label 0 `< p`).
fn min_height_cut(c: &Circuit, v: NodeId, labels: &[u64], p: u64, k: usize) -> Option<Cut> {
    let _span = engine::trace::span1("min_cut", "node", v.index() as u64);
    // Enumerate the cone objects: gates reachable backward through
    // weight-0 edges, plus boundary PIs and taps.
    let mut obj_index: HashMap<ConeObj, usize> = HashMap::new();
    let mut objs: Vec<ConeObj> = Vec::new();
    let intern = |objs: &mut Vec<ConeObj>, obj_index: &mut HashMap<ConeObj, usize>, o: ConeObj| {
        if let Some(&i) = obj_index.get(&o) {
            return i;
        }
        let i = objs.len();
        obj_index.insert(o.clone(), i);
        objs.push(o);
        i
    };
    let root = intern(&mut objs, &mut obj_index, ConeObj::Node(v));
    // Edges between object indices (from, to).
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut stack = vec![v];
    let mut visited: HashMap<NodeId, bool> = HashMap::new();
    visited.insert(v, true);
    while let Some(g) = stack.pop() {
        let gi = obj_index[&ConeObj::Node(g)];
        for &e in c.node(g).fanin() {
            let edge = c.edge(e);
            let u = edge.from();
            let fo = if edge.weight() > 0 {
                ConeObj::Tap(u, edge.ffs().to_vec())
            } else {
                ConeObj::Node(u)
            };
            let is_gate_inside = matches!(fo, ConeObj::Node(n) if c.node(n).is_gate());
            let fi = intern(&mut objs, &mut obj_index, fo);
            edges.push((fi, gi));
            if is_gate_inside && !visited.contains_key(&u) {
                visited.insert(u, true);
                stack.push(u);
            }
        }
    }
    // Flow network: node 0 = supersource, 1.. = objects (root = sink).
    let n = objs.len();
    let mut net = NodeCutNetwork::new(n + 1);
    let source = n;
    let obj_label = |o: &ConeObj| match o {
        ConeObj::Node(u) => labels[u.index()],
        ConeObj::Tap(_, _) => 0,
    };
    for (i, o) in objs.iter().enumerate() {
        let is_source_obj = match o {
            ConeObj::Node(u) => !c.node(*u).is_gate(),
            ConeObj::Tap(_, _) => true,
        };
        if is_source_obj {
            net.add_edge(source, i);
        }
        if i != root && obj_label(o) >= p {
            // Forced inside the LUT: collapse into the sink.
            net.set_uncapacitated(i);
            net.add_edge(i, root);
        }
    }
    for &(a, b) in &edges {
        net.add_edge(a, b);
    }
    let result = net.max_flow(source, root, k as u32);
    if result.exceeded_limit {
        return None;
    }
    let mincut = net.min_cut_near_sink(source);
    let signals: Vec<CutSignal> = mincut
        .cut_nodes
        .iter()
        .map(|&i| match &objs[i] {
            ConeObj::Node(u) => CutSignal::direct(*u),
            ConeObj::Tap(u, chain) => CutSignal::tap(*u, chain.clone()),
        })
        .collect();
    debug_assert!(signals.len() <= k);
    Some(Cut { signals })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{Bit, TruthTable};

    /// Balanced AND tree of depth `d` over 2^d inputs.
    fn and_tree(d: u32) -> Circuit {
        let mut c = Circuit::new(format!("tree{d}"));
        let leaves: Vec<NodeId> = (0..1u32 << d)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        let mut level = leaves;
        let mut counter = 0;
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                let g = c
                    .add_gate(format!("g{counter}"), TruthTable::and(2))
                    .unwrap();
                counter += 1;
                c.connect(pair[0], g, vec![]).unwrap();
                c.connect(pair[1], g, vec![]).unwrap();
                next.push(g);
            }
            level = next;
        }
        let o = c.add_output("o").unwrap();
        c.connect(level[0], o, vec![]).unwrap();
        c
    }

    #[test]
    fn tree_depth_with_k4() {
        // 8-input AND tree of 2-input gates: depth 3 in gates; with K=4
        // LUTs the optimal depth is 2 (4+4 then combine... actually an
        // 8-input AND needs ceil(log4(8)) = 2 levels).
        let c = and_tree(3);
        let lab = flowmap_labels(&c, 4);
        assert_eq!(lab.depth(&c), 2);
    }

    #[test]
    fn tree_fits_single_lut() {
        let c = and_tree(2); // 4 inputs
        let lab = flowmap_labels(&c, 4);
        assert_eq!(lab.depth(&c), 1);
        // The root cut covers all four PIs.
        let root = c.find("g2").unwrap();
        assert_eq!(lab.cuts[&root].signals.len(), 4);
    }

    #[test]
    fn labels_monotone_along_paths() {
        let c = and_tree(4);
        let lab = flowmap_labels(&c, 5);
        for e in c.edge_ids() {
            let edge = c.edge(e);
            if edge.weight() == 0 && c.node(edge.to()).is_gate() {
                assert!(lab.labels[edge.from().index()] <= lab.labels[edge.to().index()]);
            }
        }
    }

    #[test]
    fn register_resets_depth() {
        // Chain of 6 NOT gates with a FF in the middle: each block has
        // depth 3, which fits one 5-LUT... (a 3-gate chain is a 1-input
        // function): depth 1 per block.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let mut prev = a;
        for i in 0..6 {
            let g = c.add_gate(format!("g{i}"), TruthTable::not()).unwrap();
            let ffs = if i == 3 { vec![Bit::Zero] } else { vec![] };
            c.connect(prev, g, ffs).unwrap();
            prev = g;
        }
        let o = c.add_output("o").unwrap();
        c.connect(prev, o, vec![]).unwrap();
        let lab = flowmap_labels(&c, 5);
        assert_eq!(lab.depth(&c), 1);
        // The tap into g3 is depth 0.
        assert_eq!(lab.labels[c.find("g3").unwrap().index()], 1);
    }

    #[test]
    fn reconvergence_prefers_smaller_cut() {
        // Two parallel 2-gate branches from one PI reconverging: the whole
        // cone is {5 gates} over a single PI → one LUT, depth 1 for K≥1...
        // K=2 suffices because the cut is just {a}.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let p1 = c.add_gate("p1", TruthTable::not()).unwrap();
        let p2 = c.add_gate("p2", TruthTable::buf()).unwrap();
        let q1 = c.add_gate("q1", TruthTable::buf()).unwrap();
        let q2 = c.add_gate("q2", TruthTable::not()).unwrap();
        let m = c.add_gate("m", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, p1, vec![]).unwrap();
        c.connect(p1, p2, vec![]).unwrap();
        c.connect(a, q1, vec![]).unwrap();
        c.connect(q1, q2, vec![]).unwrap();
        c.connect(p2, m, vec![]).unwrap();
        c.connect(q2, m, vec![]).unwrap();
        c.connect(m, o, vec![]).unwrap();
        let lab = flowmap_labels(&c, 2);
        assert_eq!(lab.depth(&c), 1);
        let cut = &lab.cuts[&m];
        assert_eq!(cut.signals, vec![CutSignal::direct(a)]);
    }

    #[test]
    fn deep_chain_of_wide_gates() {
        // 3 levels of 2-input gates in a chain of width 2 -> depth grows
        // when K=2 and structure is a chain of distinct-input gates.
        let mut c = Circuit::new("t");
        let mut ins = Vec::new();
        for i in 0..4 {
            ins.push(c.add_input(format!("i{i}")).unwrap());
        }
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::or(2)).unwrap();
        let g3 = c.add_gate("g3", TruthTable::xor(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(ins[0], g1, vec![]).unwrap();
        c.connect(ins[1], g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(ins[2], g2, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(ins[3], g3, vec![]).unwrap();
        c.connect(g3, o, vec![]).unwrap();
        // K=4: whole thing is a 4-input function → depth 1.
        assert_eq!(flowmap_labels(&c, 4).depth(&c), 1);
        // K=2: every gate needs its own LUT (each has 3 distinct inputs in
        // its cone) → optimal depth 3.
        assert_eq!(flowmap_labels(&c, 2).depth(&c), 3);
    }

    /// `v = x ∧ y` with `x = a^{[i]} ∧ b` and `y = ¬a^{[j]}`: two taps of
    /// `a` through one register each, feeding one cone.
    fn two_taps(i: Bit, j: Bit) -> (Circuit, NodeId) {
        let mut c = Circuit::new("taps");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let x = c.add_gate("x", TruthTable::and(2)).unwrap();
        let y = c.add_gate("y", TruthTable::not()).unwrap();
        let v = c.add_gate("v", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, x, vec![i]).unwrap();
        c.connect(b, x, vec![]).unwrap();
        c.connect(a, y, vec![j]).unwrap();
        c.connect(x, v, vec![]).unwrap();
        c.connect(y, v, vec![]).unwrap();
        c.connect(v, o, vec![]).unwrap();
        (c, v)
    }

    /// Taps of one driver with equal register counts but different
    /// initial values are two LUT inputs to FlowMap, while the arena keys
    /// both `a^1`. At K = 2 the merged key would admit the cut
    /// `{a^1, b}` and label `v` 1; max-flow sees three signals and labels
    /// it 2, and so must the arena path.
    #[test]
    fn taps_with_different_initial_values_stay_apart() {
        let (c, v) = two_taps(Bit::Zero, Bit::One);
        let lab = flowmap_labels(&c, 2);
        assert_eq!(lab.labels[v.index()], 2);
        let flow = flow_label(&c, v, &lab.labels, 2);
        assert_eq!((lab.labels[v.index()], &lab.cuts[&v]), (flow.0, &flow.1));
        let mapped = crate::flowmap(&c, 2).unwrap();
        assert!(netlist::exhaustive_equiv(&c, &mapped.circuit, 3)
            .unwrap()
            .is_equivalent());
        // At K = 3 the three signals fit one LUT `v`, whose inputs keep
        // the two taps of `a` apart, in max-flow order.
        let mapped = crate::flowmap(&c, 3).unwrap().circuit;
        assert_eq!(mapped.num_gates(), 1);
        let lut = mapped.find("v").unwrap();
        let inputs: Vec<(&str, &[Bit])> = (mapped.node(lut).fanin().iter())
            .map(|&e| {
                (
                    mapped.node(mapped.edge(e).from()).name(),
                    mapped.edge(e).ffs(),
                )
            })
            .collect();
        assert_eq!(
            inputs,
            [
                ("a", &[Bit::One][..]),
                ("a", &[Bit::Zero][..]),
                ("b", &[][..])
            ]
        );
        assert!(netlist::exhaustive_equiv(&c, &mapped, 3)
            .unwrap()
            .is_equivalent());
        // Equal initial values make one signal: one 2-input LUT.
        let (c, v) = two_taps(Bit::Zero, Bit::Zero);
        let lab = flowmap_labels(&c, 2);
        assert_eq!(lab.labels[v.index()], 1);
        assert_eq!(lab.cuts[&v].signals.len(), 2);
    }
}
