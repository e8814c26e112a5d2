//! The cut oracle both label computations share.
//!
//! Every label update — FRTcheck's `LabelUpdate` (§3.2) and the general-
//! retiming baseline's — asks one question of the expanded circuit
//! `F_v^{b(v)}`: the minimum cone weight of a K-cut whose height is at
//! most `ℒ`. FRTcheck bounds the expansion per gate with `b(v) = frt(v)`;
//! the baseline with one horizon `b(v) = h` for every gate. The cut set
//! depends only on the circuit and those bounds — never on the labels or
//! `Φ` — so [`CutOracle::new`] lists every gate's cuts once per run
//! ([`crate::cutenum`]) and an answer is a scan of the gate's list.
//!
//! A gate whose list would exceed the cut cap falls back to the bounded
//! max-flow of [`crate::cutsearch`] on its own expanded circuit, built
//! once with the oracle (and treated as cut-less past
//! [`MAX_EXPANDED_NODES`]). A label change re-queues the gates that list
//! the node as a cut leaf (for a fallback gate: whose expansion contains
//! it) — exactly the gates whose answers read it.

use crate::cutenum::{CutArena, CutFault};
use crate::cutsearch::{find_cut_with, min_weight_cut_with, CutScratch, ExpCut};
use crate::expand::ExpandedCircuit;
use crate::frtcheck::MAX_EXPANDED_NODES;
use netlist::{Circuit, NodeId};
use std::sync::OnceLock;

/// What `F_v^{b(v)}` answers one label update.
pub(crate) enum CutAnswer {
    /// The minimum cone weight of a K-cut within the height bound.
    Weight(u64),
    /// No K-cut lies within the height bound.
    NoCut,
    /// A fallback gate whose expansion hit [`MAX_EXPANDED_NODES`].
    Capped,
}

/// Every gate's cuts of `F_v^{b(v)}`, the flow-fallback expansions, and
/// the requeue index of the label sweeps.
pub(crate) struct CutOracle<'a> {
    circuit: &'a Circuit,
    /// The expansion bound `b(v)` per node.
    bound: Vec<u64>,
    /// Every gate's K-feasible cuts of `F_v^{b(v)}`.
    cuts: CutArena,
    /// Expanded circuits `F_v^{b(v)}` per node: built with the oracle for
    /// flow-fallback gates (`None` past [`MAX_EXPANDED_NODES`]), on first
    /// use by [`CutOracle::expanded`] for the others.
    expanded: Vec<OnceLock<Option<Box<ExpandedCircuit>>>>,
    /// Requeue index as a CSR graph: the out-row of node `x` lists the
    /// gates whose cut answers read `x`'s label.
    requeue: graphalgo::Csr,
    k: usize,
}

impl<'a> CutOracle<'a> {
    /// Enumerates every gate's cuts of `F_v^{bound[v]}` (`order` is a
    /// combinational topological order of `circuit`), builds the
    /// expansions of the gates whose lists exceed `cut_cap`, and indexes
    /// which gates read which labels.
    pub(crate) fn new(
        circuit: &'a Circuit,
        order: &[NodeId],
        bound: Vec<u64>,
        k: usize,
        cut_cap: usize,
    ) -> CutOracle<'a> {
        let cuts = CutArena::enumerate(circuit, order, &bound, k, cut_cap);
        let n = circuit.num_nodes();
        let mut expanded: Vec<OnceLock<Option<Box<ExpandedCircuit>>>> =
            (0..n).map(|_| OnceLock::new()).collect();
        // Collect (node, dependent gate) pairs flat, then counting-sort
        // into a CSR row per node. The stamp array replaces a fresh
        // `seen` bitmap per gate (gate ids are dense, so `v.0 + 1` is a
        // unique generation tag).
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut stamp: Vec<u32> = vec![0; n];
        for v in circuit.gate_ids() {
            let mut reads = |x: usize| {
                if stamp[x] != v.0 + 1 {
                    stamp[x] = v.0 + 1;
                    pairs.push((x, v.index()));
                }
            };
            if cuts.is_fallback(v) {
                let exp = ExpandedCircuit::build(circuit, v, bound[v.index()], MAX_EXPANDED_NODES);
                for en in exp.iter().flat_map(|exp| &exp.nodes) {
                    reads(en.node.index());
                }
                expanded[v.index()] = OnceLock::from(exp.map(Box::new));
            } else {
                for &u in cuts.leaf_nodes(v) {
                    reads(u as usize);
                }
            }
        }
        let requeue = graphalgo::Csr::from_edges(n, &pairs);
        CutOracle {
            circuit,
            bound,
            cuts,
            expanded,
            requeue,
            k,
        }
    }

    /// The LUT input bound `K`.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// The cut lists the answers scan.
    pub(crate) fn arena(&self) -> &CutArena {
        &self.cuts
    }

    /// Plants `fault` in gate `v`'s cut list; false when the list has no
    /// such cut.
    pub(crate) fn inject(&mut self, v: NodeId, fault: CutFault) -> bool {
        self.cuts.inject(v, fault)
    }

    /// The gates whose answers read node `x`'s label.
    pub(crate) fn requeue(&self, x: usize) -> &[u32] {
        self.requeue.out(x)
    }

    /// The expanded circuit `F_v^{b(v)}` of a gate, built on first use and
    /// kept; `None` for a non-gate, and for a flow-fallback gate whose
    /// expansion hit [`MAX_EXPANDED_NODES`].
    pub(crate) fn expanded(&self, v: NodeId) -> Option<&ExpandedCircuit> {
        if !self.circuit.node(v).is_gate() {
            return None;
        }
        self.expanded[v.index()]
            .get_or_init(|| {
                ExpandedCircuit::build(self.circuit, v, self.bound[v.index()], usize::MAX)
                    .map(Box::new)
            })
            .as_deref()
    }

    /// The minimum cone weight of a K-cut of `F_v^{b(v)}` whose height
    /// under labels `ls` is at most `height`: a scan of `v`'s cut list,
    /// or for a fallback gate the min-weight max-flow search on its kept
    /// expansion.
    pub(crate) fn answer(
        &self,
        ls: &[i64],
        v: NodeId,
        phi: i64,
        height: i64,
        scratch: &mut CutScratch,
    ) -> CutAnswer {
        let w_min = if self.cuts.is_fallback(v) {
            let Some(Some(exp)) = self.expanded[v.index()].get() else {
                return CutAnswer::Capped;
            };
            let bound = self.bound[v.index()];
            min_weight_cut_with(scratch, exp, ls, phi, height, bound, self.k).map(|(w, _)| w)
        } else {
            self.cuts.min_weight(v, ls, phi, height)
        };
        w_min.map_or(CutAnswer::NoCut, CutAnswer::Weight)
    }

    /// The near-sink max-flow cut of `F_v^{b(v)}` with height ≤ `height`
    /// and cone weight ≤ `weight` — the cut mapping generation uses. The
    /// gate's expansion is read when kept, and otherwise built, used and
    /// dropped.
    pub(crate) fn final_cut(
        &self,
        scratch: &mut CutScratch,
        ls: &[i64],
        v: NodeId,
        phi: i64,
        height: i64,
        weight: u64,
    ) -> Option<ExpCut> {
        let built;
        let exp: &ExpandedCircuit = match self.expanded[v.index()].get() {
            Some(Some(exp)) => exp,
            _ => {
                built = ExpandedCircuit::build(self.circuit, v, self.bound[v.index()], usize::MAX)
                    .expect("uncapped expansions always build");
                &built
            }
        };
        find_cut_with(scratch, exp, ls, phi, height, weight, self.k)
    }

    /// Replaces the requeue index (tests compare alternatives).
    #[cfg(test)]
    pub(crate) fn set_requeue(&mut self, requeue: graphalgo::Csr) {
        self.requeue = requeue;
    }
}
