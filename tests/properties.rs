//! Randomized integration tests: seeded random circuits through the whole
//! stack, with sequential equivalence and the paper's invariants as the
//! properties. Deterministic (fixed seeds via `engine::Rng64`) so failures
//! reproduce exactly.

use engine::Rng64;
use workloads::{generate_fsm, generate_layered, Encoding, FsmSpec, LayeredSpec};

const CASES: u64 = 24;

fn random_fsm(rng: &mut Rng64, tag: &str, case: u64) -> netlist::Circuit {
    generate_fsm(&FsmSpec {
        name: format!("p{tag}{case}"),
        states: rng.range_usize(2, 8),
        inputs: rng.range_usize(1, 4),
        decoded: 2,
        outputs: rng.range_usize(1, 3),
        encoding: if rng.chance(0.5) {
            Encoding::OneHot
        } else {
            Encoding::Binary
        },
        registered_inputs: rng.chance(0.5),
        seed: rng.next_u64() % 1000,
    })
}

fn random_layered(rng: &mut Rng64, tag: &str, case: u64) -> netlist::Circuit {
    let depth = rng.range_usize(2, 6);
    generate_layered(&LayeredSpec {
        name: format!("p{tag}{case}"),
        gates: rng.range_usize(10, 60).max(depth),
        ffs: rng.below(8),
        inputs: 4,
        outputs: 3,
        depth,
        registered_inputs: rng.chance(0.5),
        seed: rng.next_u64() % 1000,
    })
}

#[test]
fn turbomap_frt_equivalent_on_random_fsms() {
    let mut rng = Rng64::new(0x7A11);
    for case in 0..CASES {
        let c = random_fsm(&mut rng, "fsm", case);
        let res = turbomap::turbomap_frt(&c, turbomap::Options::with_k(4)).unwrap();
        assert!(!res.star(), "case {case}");
        assert!(res.circuit.max_fanin() <= 4, "case {case}");
        assert!(
            netlist::random_equiv(&c, &res.circuit, 256, 17)
                .unwrap()
                .is_equivalent(),
            "case {case}: not equivalent"
        );
        // Optimality vs the baseline.
        let prep = turbomap::prepare(&c, 4).unwrap();
        let fm = flowmap::flowmap_frt(&prep, 4).unwrap();
        assert!(
            res.period <= fm.period,
            "case {case}: worse than FlowMap-frt"
        );
    }
}

#[test]
fn turbomap_frt_equivalent_on_random_layered() {
    let mut rng = Rng64::new(0x7A12);
    for case in 0..CASES {
        let c = random_layered(&mut rng, "lay", case);
        let res = turbomap::turbomap_frt(&c, turbomap::Options::with_k(5)).unwrap();
        assert!(!res.star(), "case {case}");
        assert!(
            netlist::random_equiv(&c, &res.circuit, 256, 23)
                .unwrap()
                .is_equivalent(),
            "case {case}: not equivalent"
        );
    }
}

#[test]
fn general_retiming_starred_or_equivalent() {
    let mut rng = Rng64::new(0x7A13);
    for case in 0..CASES {
        let c = random_fsm(&mut rng, "gen", case);
        let res = turbomap::turbomap_general(&c, turbomap::Options::with_k(4)).unwrap();
        let eq = netlist::random_equiv(&c, &res.circuit, 256, 29)
            .unwrap()
            .is_equivalent();
        assert!(eq || res.star(), "case {case}: inequivalent without a star");
    }
}

#[test]
fn blif_round_trip_random() {
    let mut rng = Rng64::new(0x7A14);
    for case in 0..CASES {
        let c = random_fsm(&mut rng, "blif", case);
        let text = blifio::write_circuit(&c);
        let back = blifio::read_circuit_str(&text).unwrap();
        assert!(
            netlist::random_equiv(&c, &back, 256, 31)
                .unwrap()
                .is_equivalent(),
            "case {case}"
        );
        assert!(
            netlist::random_equiv(&back, &c, 256, 37)
                .unwrap()
                .is_equivalent(),
            "case {case}"
        );
    }
}

#[test]
fn forward_retiming_preserves_behaviour() {
    let mut rng = Rng64::new(0x7A15);
    for case in 0..CASES {
        let c = random_layered(&mut rng, "fwd", case);
        let res = retiming::retime_min_period_forward(&c).unwrap();
        assert!(res.period <= c.clock_period().unwrap(), "case {case}");
        assert!(
            netlist::random_equiv(&c, &res.circuit, 256, 41)
                .unwrap()
                .is_equivalent(),
            "case {case}"
        );
    }
}

#[test]
fn pushback_preserves_behaviour() {
    let mut rng = Rng64::new(0x7A16);
    for case in 0..CASES {
        let c = random_fsm(&mut rng, "push", case);
        let (pushed, r, _) = retiming::push_registers_backward(&c, 8);
        assert!(r.values().iter().all(|&x| x >= 0), "case {case}");
        assert!(
            netlist::random_equiv(&c, &pushed, 256, 43)
                .unwrap()
                .is_equivalent(),
            "case {case}"
        );
    }
}

#[test]
fn decompose_preserves_behaviour() {
    let mut rng = Rng64::new(0x7A17);
    for case in 0..CASES {
        let c = random_fsm(&mut rng, "dec", case);
        // Re-bound to 2 (generators already emit ≤2, so splice in a wide
        // gate first to exercise decomposition).
        let mut wide = c.clone();
        let pis: Vec<_> = wide.inputs().to_vec();
        if pis.len() >= 2 {
            let g = wide
                .add_gate("wide_g", netlist::TruthTable::xor(pis.len().min(6)))
                .unwrap();
            for &p in pis.iter().take(6) {
                wide.connect(p, g, vec![]).unwrap();
            }
            let o = wide.add_output("wide_o").unwrap();
            wide.connect(g, o, vec![]).unwrap();
        }
        let d = netlist::decompose_to_k(&wide, 2).unwrap();
        assert!(d.max_fanin() <= 2, "case {case}");
        assert!(
            netlist::random_equiv(&wide, &d, 256, 47)
                .unwrap()
                .is_equivalent(),
            "case {case}"
        );
    }
}

#[test]
fn feasibility_monotone_in_phi() {
    let mut rng = Rng64::new(0x7A18);
    for case in 0..CASES {
        let c = random_fsm(&mut rng, "mono", case);
        let prep = turbomap::prepare(&c, 3).unwrap();
        let ctx = turbomap::FrtContext::new(&prep, 3, 16);
        let mut prev = false;
        for phi in 1..=10u64 {
            let f = ctx.check(phi).feasible;
            assert!(!prev || f, "case {case}: feasibility must be monotone in Φ");
            prev = prev || f;
        }
    }
}

/// `min_period_forward`'s bounded, topologically ordered binary search
/// against the plain definition: the least Φ in `1..=clock_period` whose
/// unbounded l-values, relaxed in edge-id order, are all at most Φ.
/// `forward_retiming_for` must derive its retiming from those l-values.
#[test]
fn min_period_forward_matches_linear_scan() {
    let mut rng = Rng64::new(0x7A19);
    let mut improved = 0;
    for case in 0..CASES {
        for c in [
            random_layered(&mut rng, "scan", case),
            random_fsm(&mut rng, "scan", case),
        ] {
            let upper = c.clock_period().unwrap();
            let edges: Vec<(usize, usize, i64, i64)> = c
                .edge_ids()
                .map(|e| {
                    let edge = c.edge(e);
                    let d = c.node(edge.to()).delay() as i64;
                    (
                        edge.from().index(),
                        edge.to().index(),
                        d,
                        edge.weight() as i64,
                    )
                })
                .collect();
            let sources: Vec<usize> = c.inputs().iter().map(|v| v.index()).collect();
            let l_at = |phi: u64| {
                let lengths: Vec<(usize, usize, i64)> = edges
                    .iter()
                    .map(|&(u, v, d, w)| (u, v, d - phi as i64 * w))
                    .collect();
                graphalgo::longest_paths(c.num_nodes(), &lengths, &sources)
                    .ok()
                    .filter(|l| l.iter().all(|&x| x <= phi as i64))
            };
            let (phi, l) = (1..=upper)
                .find_map(|phi| l_at(phi).map(|l| (phi, l)))
                .expect("the current period is forward-feasible");
            let name = c.name().to_string();
            assert_eq!(
                retiming::min_period_forward(&c).unwrap(),
                phi,
                "case {case} ({name})"
            );
            improved += usize::from(phi < upper);
            let r = retiming::forward_retiming_for(&c, phi).unwrap();
            for v in c.node_ids() {
                let lv = l[v.index()];
                let want = if c.node(v).is_gate() && lv > graphalgo::NEG_INF {
                    lv.div_euclid(phi as i64) + i64::from(lv.rem_euclid(phi as i64) != 0) - 1
                } else {
                    0
                };
                assert_eq!(r.get(v), want, "case {case} ({name}): r({v:?})");
            }
        }
    }
    assert!(improved > 0, "no case retimes below its current period");
}
