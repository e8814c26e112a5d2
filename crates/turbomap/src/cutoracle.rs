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
//! Mapping generation's final cut per gate — the near-sink max-flow cut
//! under the converged labels — is picked from the same list
//! ([`CutArena::final_cut`]).
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
        let mut fallback_gates = 0u64;
        for v in circuit.gate_ids() {
            let mut reads = |x: usize| {
                if stamp[x] != v.0 + 1 {
                    stamp[x] = v.0 + 1;
                    pairs.push((x, v.index()));
                }
            };
            if cuts.is_fallback(v) {
                fallback_gates += 1;
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
        engine::log::debug(
            "turbomap::cutoracle",
            "cut arena",
            &[
                ("gates", engine::JsonValue::UInt(circuit.num_gates() as u64)),
                ("fallback_gates", engine::JsonValue::UInt(fallback_gates)),
            ],
        );
        CutOracle {
            circuit,
            bound,
            cuts,
            expanded,
            requeue,
        }
    }

    /// The LUT input bound `K`.
    pub(crate) fn k(&self) -> usize {
        self.cuts.k()
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
            min_weight_cut_with(scratch, exp, ls, phi, height, bound, self.k()).map(|(w, _)| w)
        } else {
            self.cuts.min_weight(v, ls, phi, height)
        };
        w_min.map_or(CutAnswer::NoCut, CutAnswer::Weight)
    }

    /// The cut of `F_v^{b(v)}` mapping generation uses: the near-sink
    /// max-flow cut with height ≤ `height` and cone weight ≤ `weight`.
    /// Picked from the gate's cut list; a fallback gate runs the max-flow
    /// on its kept expansion, or on one built, used and dropped when the
    /// kept one hit [`MAX_EXPANDED_NODES`].
    pub(crate) fn final_cut(
        &self,
        scratch: &mut CutScratch,
        ls: &[i64],
        v: NodeId,
        phi: i64,
        height: i64,
        weight: u64,
    ) -> Option<ExpCut> {
        if !self.cuts.is_fallback(v) {
            let cones = &mut scratch.cones;
            return self.cuts.final_cut(v, ls, phi, height, weight, |node, w| {
                cones.size(self.circuit, v, node, w)
            });
        }
        let built;
        let exp: &ExpandedCircuit = match self.expanded[v.index()].get() {
            Some(Some(exp)) => exp,
            _ => {
                built = ExpandedCircuit::build(self.circuit, v, self.bound[v.index()], usize::MAX)
                    .expect("uncapped expansions always build");
                &built
            }
        };
        find_cut_with(scratch, exp, ls, phi, height, weight, self.k())
    }

    /// [`CutOracle::final_cut`] for every gate `v` for which `goal(v)`
    /// gives the `(height, weight)` bounds; `None` for the other nodes.
    ///
    /// # Panics
    ///
    /// Panics if a gate has no cut within its bounds (converged labels
    /// always admit one).
    pub(crate) fn final_cuts(
        &self,
        ls: &[i64],
        phi: i64,
        goal: impl Fn(NodeId) -> Option<(i64, u64)>,
    ) -> Vec<Option<ExpCut>> {
        let _span = engine::trace::span1("final_cuts", "gates", self.circuit.num_gates() as u64);
        let mut cuts: Vec<Option<ExpCut>> = vec![None; self.circuit.num_nodes()];
        let mut scratch = CutScratch::new();
        for v in self.circuit.gate_ids() {
            let Some((height, weight)) = goal(v) else {
                continue;
            };
            let cut = self
                .final_cut(&mut scratch, ls, v, phi, height, weight)
                .expect("converged labels admit a cut");
            cuts[v.index()] = Some(cut);
        }
        cuts
    }

    /// Replaces the requeue index (tests compare alternatives).
    #[cfg(test)]
    pub(crate) fn set_requeue(&mut self, requeue: graphalgo::Csr) {
        self.requeue = requeue;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cutenum::{ConeWalk, CUT_CAP};
    use crate::cutsearch::{find_cut, min_weight_cut};
    use crate::frtcheck::FrtContext;
    use crate::gencheck::GeneralContext;
    use engine::Rng64;
    use netlist::{Bit, TruthTable};

    /// A random FSM, K-bounded for `k`.
    pub(crate) fn random_fsm(rng: &mut Rng64, trial: u64, k: usize) -> Circuit {
        let c = workloads::generate_fsm(&workloads::FsmSpec {
            name: format!("ce{trial}"),
            states: rng.range_usize(2, 9),
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
        crate::prepare(&c, k).expect("generated FSMs are valid")
    }

    /// The property the arena stands on: for random labels, Φ and
    /// heights, the scan answers exactly what the bounded max-flow binary
    /// search answers on the gate's own expanded circuit, under
    /// FRTcheck's bounds `frt(v)` and the general baseline's horizons `h`.
    #[test]
    fn scan_equals_flow_on_random_fsms() {
        let mut rng = Rng64::new(0xA7E7A);
        for trial in 0..24 {
            let k = rng.range_usize(2, 7);
            let c = random_fsm(&mut rng, trial, k);
            let ctx = FrtContext::new(&c, k, 32);
            let general = [0, 1, 2, 16].map(|h| GeneralContext::new(&c, k, h));
            for _ in 0..3 {
                let ls: Vec<i64> = (0..c.num_nodes()).map(|_| rng.range_i64(-4, 6)).collect();
                let phi = rng.range_i64(1, 5);
                for v in c.gate_ids() {
                    let h = rng.range_i64(-3, 7);
                    let flow = |b| {
                        let exp = ExpandedCircuit::build(&c, v, b, usize::MAX).unwrap();
                        min_weight_cut(&exp, &ls, phi, h, b, k).map(|(w, _)| w)
                    };
                    let tag = format!("trial {trial} k={k} {v:?} h={h} phi={phi}");
                    let scan = ctx.min_cut_weight(&ls, v, phi as u64, h);
                    assert_eq!(scan, flow(ctx.frt[v.index()]), "{tag}");
                    for g in &general {
                        let scan = g.min_cut_weight(&ls, v, phi as u64, h);
                        assert_eq!(scan, flow(g.horizon()), "{tag} horizon {}", g.horizon());
                    }
                }
            }
        }
    }

    /// A cut's leaves `u^w` as a sorted set: flow and arena list the
    /// same cut in different orders.
    pub(crate) fn leaf_set(cut: Option<&ExpCut>) -> Option<Vec<(u32, u64)>> {
        cut.map(|cut| {
            let mut set: Vec<(u32, u64)> =
                cut.signals.iter().map(|s| (s.node.0, s.weight)).collect();
            set.sort_unstable();
            set
        })
    }

    /// The final-cut pick: for random labels, Φ, heights and cone-weight
    /// bounds, the listed cut [`CutArena::final_cut`] picks has exactly
    /// the leaves of the near-sink max-flow cut on the gate's expansion —
    /// for per-gate `frt(v)` bounds and for one horizon `h`.
    #[test]
    fn final_cut_equals_the_flow_cut_on_random_fsms() {
        let mut rng = Rng64::new(0xF1C07);
        let mut walk = ConeWalk::default();
        for trial in 0..24 {
            let k = rng.range_usize(2, 7);
            let c = random_fsm(&mut rng, trial, k);
            let order = c.comb_topo_order().unwrap();
            let h = rng.range_usize(0, 4) as u64;
            let bounds = [
                retiming::max_forward_retiming_values(&c),
                vec![h; c.num_nodes()],
            ];
            for bound in &bounds {
                let arena = CutArena::enumerate(&c, &order, bound, k, CUT_CAP);
                for _ in 0..3 {
                    let ls: Vec<i64> = (0..c.num_nodes()).map(|_| rng.range_i64(-4, 6)).collect();
                    let phi = rng.range_i64(1, 5);
                    for v in c.gate_ids().filter(|&v| !arena.is_fallback(v)) {
                        let b = bound[v.index()];
                        let exp = ExpandedCircuit::build(&c, v, b, usize::MAX).unwrap();
                        let height = rng.range_i64(-3, 7);
                        let weight = rng.range_usize(0, b as usize + 1) as u64;
                        let flow = find_cut(&exp, &ls, phi, height, weight, k);
                        let pick = arena.final_cut(v, &ls, phi, height, weight, |node, w| {
                            walk.size(&c, v, node, w)
                        });
                        assert_eq!(
                            leaf_set(pick.as_ref()),
                            leaf_set(flow.as_ref()),
                            "trial {trial} k={k} {v:?} bound {b} height {height} weight {weight}"
                        );
                    }
                }
            }
        }
    }

    /// Two minimum cuts qualify and the heavier cone is listed first: only
    /// the cone-size tie-break picks the near-sink cut max-flow returns.
    ///
    /// `r = a ∧ b^1` with `a = c^1` (through a buffer edge), `c = ¬x` and
    /// `b = ¬y`. At height 0 the labels rule out `a` and `b^1` as leaves,
    /// leaving `{x^1, y^1}` (cone `r, a, c^1, b^1`) and `{c^1, y^1}` (cone
    /// `r, a, b^1`).
    #[test]
    fn cone_size_breaks_ties_between_minimum_cuts() {
        let mut c = Circuit::new("tie");
        let x = c.add_input("x").unwrap();
        let y = c.add_input("y").unwrap();
        let cg = c.add_gate("c", TruthTable::not()).unwrap();
        let a = c.add_gate("a", TruthTable::not()).unwrap();
        let b = c.add_gate("b", TruthTable::not()).unwrap();
        let r = c.add_gate("r", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(x, cg, vec![]).unwrap();
        c.connect(cg, a, vec![Bit::Zero]).unwrap();
        c.connect(y, b, vec![]).unwrap();
        c.connect(a, r, vec![]).unwrap();
        c.connect(b, r, vec![Bit::Zero]).unwrap();
        c.connect(r, o, vec![]).unwrap();
        let order = c.comb_topo_order().unwrap();
        let arena = CutArena::enumerate(&c, &order, &vec![1; c.num_nodes()], 2, CUT_CAP);
        let mut ls = vec![0; c.num_nodes()];
        ls[a.index()] = 100;
        ls[b.index()] = 100;
        let (phi, height, weight) = (1, 0, 1);

        let exp = ExpandedCircuit::build(&c, r, 1, usize::MAX).unwrap();
        let flow = find_cut(&exp, &ls, phi, height, weight, 2);
        let near_sink = vec![(y.0, 1), (cg.0, 1)];
        assert_eq!(leaf_set(flow.as_ref()), Some(near_sink.clone()));
        // Without the cone-size tie-break the pick is the first qualifying
        // two-leaf cut in list order: the other one.
        let first = arena.final_cut(r, &ls, phi, height, weight, |_, _| 0);
        assert_eq!(leaf_set(first.as_ref()), Some(vec![(x.0, 1), (y.0, 1)]));
        let mut walk = ConeWalk::default();
        let pick = arena.final_cut(r, &ls, phi, height, weight, |node, w| {
            walk.size(&c, r, node, w)
        });
        assert_eq!(leaf_set(pick.as_ref()), Some(near_sink));
    }

    /// FlowMap labels from a TurboMap context's arena — its round 0 —
    /// equal those from enumerating round 0 alone, also when a small cut
    /// cap sends gates to the flow fallback in some round.
    #[test]
    fn flowmap_labels_from_context_arenas_equal_standalone() {
        let mut rng = Rng64::new(0xF10A);
        for trial in 0..16 {
            let k = rng.range_usize(2, 7);
            let c = random_fsm(&mut rng, trial, k);
            let alone = flowmap::flowmap_labels(&c, k);
            for cap in [CUT_CAP, 4] {
                let frt = FrtContext::with_cut_cap(&c, k, 32, cap);
                let general = GeneralContext::with_cut_cap(&c, k, 1, cap);
                for arena in [frt.cut_arena(), general.cut_arena()] {
                    let shared = flowmap::flowmap_labels_with(&c, arena);
                    assert_eq!(shared.labels, alone.labels, "trial {trial} k={k} cap {cap}");
                    assert_eq!(shared.cuts, alone.cuts, "trial {trial} k={k} cap {cap}");
                }
            }
        }
    }

    #[test]
    fn injected_faults_change_the_list() {
        let mut rng = Rng64::new(7);
        let c = random_fsm(&mut rng, 3, 4);
        let order = c.comb_topo_order().unwrap();
        let frt = retiming::max_forward_retiming_values(&c);
        let arena = CutArena::enumerate(&c, &order, &frt, 4, CUT_CAP);
        let v = c
            .gate_ids()
            .find(|&v| arena.num_cuts(v) >= 2)
            .expect("some gate lists two cuts");
        let mut dropped = arena.clone();
        assert!(dropped.inject(v, CutFault::DropCut(0)));
        assert_eq!(dropped.num_cuts(v), arena.num_cuts(v) - 1);
        assert!(!dropped.inject(v, CutFault::DropCut(arena.num_cuts(v))));
        for g in c.gate_ids().filter(|&g| g != v) {
            assert_eq!(dropped.leaf_nodes(g), arena.leaf_nodes(g));
        }
        let mut bumped = arena.clone();
        assert!(bumped.inject(v, CutFault::BumpWeight(0)));
        let ls = vec![0; c.num_nodes()];
        assert_eq!(
            bumped.min_weight(v, &ls, 1, i64::MAX),
            arena.min_weight(v, &ls, 1, i64::MAX).map(|w| w + 1)
        );
    }
}
