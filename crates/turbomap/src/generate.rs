//! Mapping generation (Section 3.3).
//!
//! Given the final labels and one K-cut per gate, [`collect_roots`]
//! selects the LUT roots: a FIFO seeded with the PO drivers, in which
//! every gate named by a chosen cut becomes a root itself. Root `v` is
//! retimed by `Ɍ(v) = ⌈L^s(v)/Φ⌉ − 1` and each instance `u^w` of its cone
//! by `Ɍ(v) + w` (Theorem 6). [`generate_mapping`] builds the LUT network
//! through FlowMap-frt's generator, [`flowmap::generate`]; an input is a
//! leaf `u^w` of the cut ([`ExpCut`]), numbered at its first read.

use crate::cutsearch::ExpCut;
pub use flowmap::generate::{GenerateError, GeneratedMapping};
use netlist::{Circuit, NodeId};
use std::collections::HashMap;

/// Selects the LUT roots: FIFO from the PO drivers, pulling in every gate
/// named by a root's cut (§3.3 step 1).
///
/// # Errors
///
/// [`GenerateError::MissingCut`] when a selected gate has no cut.
pub fn collect_roots(
    c: &Circuit,
    cuts: &[Option<ExpCut>],
) -> Result<HashMap<NodeId, ExpCut>, GenerateError> {
    let po_drivers = c
        .outputs()
        .iter()
        .map(|&po| c.edge(c.node(po).fanin()[0]).from());
    flowmap::select_roots(c, po_drivers, |v, read| {
        let cut = cuts[v.index()]
            .clone()
            .ok_or_else(|| GenerateError::MissingCut {
                node: c.node(v).name().to_string(),
            })?;
        cut.signals.iter().for_each(|s| read(s.node));
        Ok(cut)
    })
}

/// [`flowmap::generate_luts`] with the per-root retiming values
/// `rr(v) = Ɍ(v)` as the lags, in a `generate_mapping` span.
///
/// # Errors
///
/// See [`GenerateError`].
///
/// # Panics
///
/// Panics when a root has no retiming value.
pub fn generate_mapping(
    c: &Circuit,
    roots: &HashMap<NodeId, ExpCut>,
    rr: &HashMap<NodeId, i64>,
    name: &str,
    allow_state_loss: bool,
) -> Result<GeneratedMapping, GenerateError> {
    let _span = engine::trace::span1("generate_mapping", "roots", roots.len() as u64);
    let lag = |v| *rr.get(&v).expect("retiming value for every root");
    flowmap::generate_luts(c, roots, lag, name, allow_state_loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::ExpNode;
    use netlist::{exhaustive_equiv, Bit, TruthTable};

    /// [`generate_mapping`] with the chains always from unit moves over the
    /// node-duplicated network H, even when no lag is positive: the
    /// reference for the one-pass path.
    fn generate_expanded(
        c: &Circuit,
        roots: &HashMap<NodeId, ExpCut>,
        rr: &HashMap<NodeId, i64>,
        name: &str,
        allow_state_loss: bool,
    ) -> Result<GeneratedMapping, GenerateError> {
        let lag = |v| rr[&v];
        flowmap::generate::generate_luts_by_unit_moves(c, roots, lag, name, allow_state_loss)
    }

    /// Generates by both initial-state paths, which must give the same
    /// network, moves and flag, or the same kind of error; returns the
    /// one-pass path's result.
    fn generate_both(
        c: &Circuit,
        roots: &HashMap<NodeId, ExpCut>,
        rr: &HashMap<NodeId, i64>,
        name: &str,
        allow_state_loss: bool,
    ) -> Result<GeneratedMapping, GenerateError> {
        let direct = generate_mapping(c, roots, rr, name, allow_state_loss);
        let reference = generate_expanded(c, roots, rr, name, allow_state_loss);
        match (&direct, &reference) {
            (Ok(d), Ok(r)) => {
                assert_eq!(d.circuit, r.circuit);
                assert_eq!(d.moves, r.moves);
                assert_eq!(d.initial_state_lost, r.initial_state_lost);
            }
            (Err(d), Err(r)) => {
                assert_eq!(std::mem::discriminant(d), std::mem::discriminant(r));
            }
            _ => panic!("paths disagree: {direct:?} against {reference:?}"),
        }
        direct
    }

    /// i1 -FF-> g1 -> g2 -> o with a side PI into g2.
    fn sample() -> Circuit {
        let mut c = Circuit::new("s");
        let i1 = c.add_input("i1").unwrap();
        let i2 = c.add_input("i2").unwrap();
        let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i1, g1, vec![Bit::One]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(i2, g2, vec![]).unwrap();
        c.connect(g2, o, vec![]).unwrap();
        c
    }

    #[test]
    fn identity_cuts_reproduce_circuit() {
        let c = sample();
        let g1 = c.find("g1").unwrap();
        let g2 = c.find("g2").unwrap();
        let i1 = c.find("i1").unwrap();
        let i2 = c.find("i2").unwrap();
        let mut roots = HashMap::new();
        roots.insert(
            g1,
            ExpCut {
                signals: vec![ExpNode {
                    node: i1,
                    weight: 1,
                }],
            },
        );
        roots.insert(
            g2,
            ExpCut {
                signals: vec![
                    ExpNode {
                        node: g1,
                        weight: 0,
                    },
                    ExpNode {
                        node: i2,
                        weight: 0,
                    },
                ],
            },
        );
        let rr: HashMap<NodeId, i64> = [(g1, 0), (g2, 0)].into_iter().collect();
        let gen = generate_both(&c, &roots, &rr, "ident", false).unwrap();
        assert!(!gen.initial_state_lost);
        assert_eq!(gen.circuit.num_gates(), 2);
        assert!(exhaustive_equiv(&c, &gen.circuit, 5)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn outputs_driven_by_inputs_need_no_root() {
        let mut c = sample();
        let i2 = c.find("i2").unwrap();
        let o2 = c.add_output("o2").unwrap();
        c.connect(i2, o2, vec![Bit::One]).unwrap();
        let (g2, i1) = (c.find("g2").unwrap(), c.find("i1").unwrap());
        let mut cuts = vec![None; c.num_nodes()];
        cuts[g2.index()] = Some(ExpCut {
            signals: vec![
                ExpNode {
                    node: i1,
                    weight: 1,
                },
                ExpNode {
                    node: i2,
                    weight: 0,
                },
            ],
        });
        let roots = collect_roots(&c, &cuts).unwrap();
        assert_eq!(roots.keys().collect::<Vec<_>>(), [&g2]);
        let rr: HashMap<NodeId, i64> = [(g2, 0)].into_iter().collect();
        let gen = generate_both(&c, &roots, &rr, "pi_po", false).unwrap();
        assert!(gen.circuit.find("g1").is_none());
        assert!(exhaustive_equiv(&c, &gen.circuit, 5)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn forward_retiming_with_cone_absorb() {
        // One LUT absorbing the register: cut {i1^1, i2^0}, Ɍ(g2) = -1
        // would be illegal (i2 has no register)... instead absorb g1 into
        // g2's LUT with the register staying on the cut signal i1^1:
        // Ɍ(g2) = 0.
        let c = sample();
        let g2 = c.find("g2").unwrap();
        let i1 = c.find("i1").unwrap();
        let i2 = c.find("i2").unwrap();
        let mut roots = HashMap::new();
        roots.insert(
            g2,
            ExpCut {
                signals: vec![
                    ExpNode {
                        node: i1,
                        weight: 1,
                    },
                    ExpNode {
                        node: i2,
                        weight: 0,
                    },
                ],
            },
        );
        let rr: HashMap<NodeId, i64> = [(g2, 0)].into_iter().collect();
        let gen = generate_both(&c, &roots, &rr, "absorb", false).unwrap();
        assert_eq!(gen.circuit.num_gates(), 1);
        assert_eq!(gen.circuit.ff_count_shared(), 1);
        assert!(exhaustive_equiv(&c, &gen.circuit, 5)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn forward_retiming_pulls_register_through_lut() {
        // Root g1 with cut {i1^1} and Ɍ(g1) = -1: the register moves to
        // g1's output, initial value = NOT(1) = 0.
        let c = sample();
        let g1 = c.find("g1").unwrap();
        let g2 = c.find("g2").unwrap();
        let i1 = c.find("i1").unwrap();
        let i2 = c.find("i2").unwrap();
        let mut roots = HashMap::new();
        roots.insert(
            g1,
            ExpCut {
                signals: vec![ExpNode {
                    node: i1,
                    weight: 1,
                }],
            },
        );
        roots.insert(
            g2,
            ExpCut {
                signals: vec![
                    ExpNode {
                        node: g1,
                        weight: 0,
                    },
                    ExpNode {
                        node: i2,
                        weight: 0,
                    },
                ],
            },
        );
        // Ɍ(g1) = -1: register through g1; g2's cut signal (g1, 0)
        // becomes weight 0 + 0 - (-1) = 1 in the final network.
        let rr: HashMap<NodeId, i64> = [(g1, -1), (g2, 0)].into_iter().collect();
        let gen = generate_both(&c, &roots, &rr, "pull", false).unwrap();
        assert!(gen.moves.forward_moves > 0);
        let g1_new = gen.circuit.find("g1").unwrap();
        let out_edge = gen.circuit.node(g1_new).fanout()[0];
        assert_eq!(gen.circuit.edge(out_edge).ffs(), &[Bit::Zero]);
        assert!(exhaustive_equiv(&c, &gen.circuit, 5)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn duplicated_cone_instances() {
        // g1 feeds two roots; both absorb g1 → node duplication. The
        // mapping has 2 LUTs and remains equivalent.
        let mut c = Circuit::new("dup");
        let i1 = c.add_input("i1").unwrap();
        let i2 = c.add_input("i2").unwrap();
        let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
        let p = c.add_gate("p", TruthTable::and(2)).unwrap();
        let q = c.add_gate("q", TruthTable::or(2)).unwrap();
        let o1 = c.add_output("o1").unwrap();
        let o2 = c.add_output("o2").unwrap();
        c.connect(i1, g1, vec![]).unwrap();
        c.connect(g1, p, vec![]).unwrap();
        c.connect(i2, p, vec![]).unwrap();
        c.connect(g1, q, vec![]).unwrap();
        c.connect(i2, q, vec![]).unwrap();
        c.connect(p, o1, vec![]).unwrap();
        c.connect(q, o2, vec![]).unwrap();
        let cut_for = |_root: NodeId| ExpCut {
            signals: vec![
                ExpNode {
                    node: i1,
                    weight: 0,
                },
                ExpNode {
                    node: i2,
                    weight: 0,
                },
            ],
        };
        let mut roots = HashMap::new();
        roots.insert(p, cut_for(p));
        roots.insert(q, cut_for(q));
        let rr: HashMap<NodeId, i64> = [(p, 0), (q, 0)].into_iter().collect();
        let gen = generate_both(&c, &roots, &rr, "dup", false).unwrap();
        assert_eq!(gen.circuit.num_gates(), 2);
        assert!(exhaustive_equiv(&c, &gen.circuit, 3)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn state_loss_flagged_for_general_retiming() {
        // Backward retiming over a constant-0 gate with a 1-valued
        // register is unjustifiable: with allow_state_loss the structure
        // is still produced, flagged.
        let mut c = Circuit::new("bk");
        let i1 = c.add_input("i1").unwrap();
        let g = c.add_gate("g", TruthTable::const_zero(1)).unwrap();
        let t = c.add_gate("t", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i1, g, vec![]).unwrap();
        c.connect(g, t, vec![Bit::One]).unwrap();
        c.connect(t, o, vec![]).unwrap();
        let mut roots = HashMap::new();
        roots.insert(
            g,
            ExpCut {
                signals: vec![ExpNode {
                    node: i1,
                    weight: 0,
                }],
            },
        );
        roots.insert(
            t,
            ExpCut {
                signals: vec![ExpNode { node: g, weight: 1 }],
            },
        );
        // Ɍ(g) = +1: backward move, must justify 1 through const-0 → ⋆.
        let rr: HashMap<NodeId, i64> = [(g, 1), (t, 0)].into_iter().collect();
        assert!(matches!(
            generate_both(&c, &roots, &rr, "bk", false),
            Err(GenerateError::InitialState(_))
        ));
        let gen = generate_both(&c, &roots, &rr, "bk2", true).unwrap();
        assert!(gen.initial_state_lost);
        assert_eq!(gen.circuit.num_gates(), 2);
    }

    /// The least Φ in `[1, upper]` that `feasible` accepts; `upper` must be
    /// accepted.
    fn least_feasible(upper: u64, feasible: impl Fn(u64) -> bool) -> u64 {
        let (mut lo, mut hi) = (1, upper);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if feasible(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Both paths on the roots of `cuts` at Φ, retimed by
    /// `Ɍ(v) = ⌈l(v)/Φ⌉ − 1` as the driver does: byte-identical BLIF, the
    /// same moves and `⋆` flag. Returns the one-pass result.
    fn table1_paths(
        c: &Circuit,
        cuts: &[Option<ExpCut>],
        ls: &[i64],
        phi: u64,
        general: bool,
    ) -> GeneratedMapping {
        let roots = collect_roots(c, cuts).unwrap();
        let phi = phi as i64;
        let rr: HashMap<_, _> = roots
            .keys()
            .map(|&v| (v, (ls[v.index()] + phi - 1).div_euclid(phi) - 1))
            .collect();
        let direct = generate_mapping(c, &roots, &rr, c.name(), general).unwrap();
        let reference = generate_expanded(c, &roots, &rr, c.name(), general).unwrap();
        let what = format!("{} Φ={phi} general={general}", c.name());
        assert_eq!(
            blifio::write_circuit(&direct.circuit),
            blifio::write_circuit(&reference.circuit),
            "{what}"
        );
        assert_eq!(direct.moves, reference.moves, "{what}");
        assert_eq!(
            direct.initial_state_lost, reference.initial_state_lost,
            "{what}"
        );
        direct
    }

    /// The one-pass path against the node-duplicated network on all 18
    /// Table-1 circuits, at each algorithm's least feasible Φ: TurboMap-frt
    /// and every forward-only TurboMap row match the reference; scf's
    /// TurboMap row is the one that moves registers backward, so the
    /// reference is its only path, with its 13 justified moves and no `⋆`.
    #[test]
    fn one_pass_generation_matches_expanded_network_on_table1() {
        let opts = crate::Options::default();
        let presets = workloads::presets();
        assert_eq!(presets.len(), 18);
        let mut backward_rows = Vec::new();
        for p in &presets {
            let c = crate::prepare(&workloads::build_preset(p), opts.k).unwrap();
            let frt = crate::FrtContext::new(&c, opts.k, opts.weight_horizon);
            let upper = flowmap::flowmap_frt_with(&c, frt.cut_arena())
                .unwrap()
                .period;
            let phi = least_feasible(upper.max(1), |phi| frt.check(phi).feasible);
            let labels = frt.check(phi).labels;
            let cuts = frt.final_cuts(&labels, phi);
            let mapped = table1_paths(&c, &cuts, &labels.ls, phi, false);
            assert_eq!(mapped.moves.backward_moves, 0, "{}", p.name);
            drop(frt);

            let general = crate::GeneralContext::new(&c, opts.k, opts.general_horizon);
            let phi = least_feasible(upper.max(1), |phi| general.check(phi).feasible);
            let labels = general.check(phi).labels;
            let cuts = general.final_cuts(&labels, phi);
            let mapped = table1_paths(&c, &cuts, &labels, phi, true);
            if mapped.moves.backward_moves > 0 {
                let row = (
                    p.name,
                    mapped.moves.backward_moves,
                    mapped.initial_state_lost,
                );
                backward_rows.push(row);
            }
        }
        assert_eq!(backward_rows, [("scf", 13, false)]);
    }
}
