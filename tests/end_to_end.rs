//! Cross-crate integration tests: the full mapping flows on generated
//! benchmarks, with sequential equivalence as the ground truth.

use netlist::{random_equiv, Circuit};
use turbomap::{turbomap_frt, turbomap_general, Options};

fn suite_under(max_gates: usize) -> Vec<(String, Circuit)> {
    workloads::table1_suite()
        .into_iter()
        .filter(|(_, c)| c.num_gates() <= max_gates)
        .map(|(p, c)| (p.name.to_string(), c))
        .collect()
}

#[test]
fn flows_are_equivalent_and_ordered() {
    for (name, c) in suite_under(150) {
        let k = 5;
        let prep = turbomap::prepare(&c, k).expect("valid");
        let fm = flowmap::flowmap_frt(&prep, k).expect("flowmap-frt");
        let tf = turbomap_frt(&c, Options::with_k(k)).expect("turbomap-frt");
        let tm = turbomap_general(&c, Options::with_k(k)).expect("turbomap");

        // Optimality ordering: more freedom never hurts.
        assert!(tf.period <= fm.period, "{name}: TMF > FM");
        assert!(tm.period <= tf.period, "{name}: TM > TMF");

        // Equivalence: FM and TMF always; TM unless starred.
        assert!(
            random_equiv(&c, &fm.circuit, 512, 1)
                .unwrap()
                .is_equivalent(),
            "{name}: FlowMap-frt not equivalent"
        );
        assert!(!tf.star(), "{name}: TurboMap-frt must never lose state");
        assert!(
            random_equiv(&c, &tf.circuit, 512, 2)
                .unwrap()
                .is_equivalent(),
            "{name}: TurboMap-frt not equivalent"
        );
        let tm_eq = random_equiv(&c, &tm.circuit, 512, 3)
            .unwrap()
            .is_equivalent();
        assert!(
            tm_eq || tm.star(),
            "{name}: TurboMap neither equivalent nor starred"
        );
    }
}

#[test]
fn k_sweep_monotone() {
    let preset = workloads::presets()
        .into_iter()
        .find(|p| p.name == "dk17")
        .unwrap();
    let c = workloads::build_preset(&preset);
    let mut prev = u64::MAX;
    for k in 2..=6 {
        let tf = turbomap_frt(&c, Options::with_k(k)).expect("maps");
        assert!(
            tf.period <= prev,
            "period must not increase with K: k={k} gave {} after {prev}",
            tf.period
        );
        assert!(tf.circuit.max_fanin() <= k, "k={k}: LUT arity violated");
        assert!(
            random_equiv(&c, &tf.circuit, 256, k as u64)
                .unwrap()
                .is_equivalent(),
            "k={k}: not equivalent"
        );
        prev = tf.period;
    }
}

#[test]
fn fig2_requires_nonsimple() {
    // The Figure-2 property: simple FRT solutions (weight horizon 0)
    // cannot reach the optimal period.
    let c = workloads::fig2_circuit();
    let full = turbomap_frt(&c, Options::with_k(3)).expect("maps");
    let simple = turbomap_frt(
        &c,
        Options {
            weight_horizon: 0,
            ..Options::with_k(3)
        },
    )
    .expect("maps");
    assert!(
        full.period < simple.period,
        "non-simple Φ={} must beat simple-only Φ={}",
        full.period,
        simple.period
    );
    assert!(random_equiv(&c, &full.circuit, 512, 4)
        .unwrap()
        .is_equivalent());
}

#[test]
fn fig3_fig4_absorption() {
    use turbomap::{find_cut, ExpandedCircuit};
    // Figure 3: frt(c) = 0 forbids absorbing b's register.
    let f3 = workloads::fig3_circuit();
    let frt3 = retiming::max_forward_retiming_values(&f3);
    let c3 = f3.find("c").unwrap();
    assert_eq!(frt3[c3.index()], 0);
    let exp3 = ExpandedCircuit::build(&f3, c3, frt3[c3.index()], 10_000).unwrap();
    let ls3 = vec![0i64; f3.num_nodes()];
    let cut3 = find_cut(&exp3, &ls3, 10, 100, 0, 3).unwrap();
    let b3 = f3.find("b").unwrap();
    assert!(cut3.signals.iter().any(|s| s.node == b3 && s.weight == 1));

    // Figure 4: frt(c) = 1 allows it.
    let f4 = workloads::fig4_circuit();
    let frt4 = retiming::max_forward_retiming_values(&f4);
    let c4 = f4.find("c").unwrap();
    assert_eq!(frt4[c4.index()], 1);
    let exp4 = ExpandedCircuit::build(&f4, c4, frt4[c4.index()], 10_000).unwrap();
    // Force absorption: make a and b uncuttable via high labels.
    let mut ls4 = vec![0i64; f4.num_nodes()];
    ls4[f4.find("a").unwrap().index()] = 1000;
    ls4[f4.find("b").unwrap().index()] = 1000;
    let cut4 = find_cut(&exp4, &ls4, 10, 5, 1, 3).unwrap();
    let i1 = f4.find("i1").unwrap();
    assert!(cut4.signals.iter().all(|s| s.node == i1));
}

#[test]
fn pushback_then_map_methodology() {
    let preset = workloads::presets()
        .into_iter()
        .find(|p| p.name == "ex2")
        .unwrap();
    let c = workloads::build_preset(&preset);
    let (pushed, _, _) = retiming::push_registers_backward(&c, 16);
    assert!(random_equiv(&c, &pushed, 512, 5).unwrap().is_equivalent());
    let direct = turbomap_frt(&c, Options::with_k(5)).expect("maps");
    let staged = turbomap_frt(&pushed, Options::with_k(5)).expect("maps");
    assert!(staged.period <= direct.period);
    assert!(random_equiv(&c, &staged.circuit, 512, 6)
        .unwrap()
        .is_equivalent());
}

#[test]
fn blif_round_trip_of_mapped_result() {
    let preset = workloads::presets()
        .into_iter()
        .find(|p| p.name == "bbara")
        .unwrap();
    let c = workloads::build_preset(&preset);
    let tf = turbomap_frt(&c, Options::with_k(5)).expect("maps");
    let blif = blifio::write_circuit(&tf.circuit);
    let reparsed = blifio::read_circuit_str(&blif).expect("parses");
    assert!(random_equiv(&c, &reparsed, 512, 7).unwrap().is_equivalent());
}

#[test]
fn partial_initial_states_supported() {
    // The paper: circuits with partial initial state assignment (X
    // registers) are handled; the mapped circuit conforms wherever the
    // original is defined.
    let mut c = Circuit::new("partial");
    let a = c.add_input("a").unwrap();
    let g1 = c.add_gate("g1", netlist::TruthTable::xor(2)).unwrap();
    let g2 = c.add_gate("g2", netlist::TruthTable::not()).unwrap();
    let o = c.add_output("o").unwrap();
    c.connect(a, g1, vec![netlist::Bit::X]).unwrap(); // unknown register
    c.connect(g2, g1, vec![netlist::Bit::One]).unwrap();
    c.connect(g1, g2, vec![]).unwrap();
    c.connect(g1, o, vec![]).unwrap();
    let tf = turbomap_frt(&c, Options::with_k(4)).expect("maps");
    assert!(random_equiv(&c, &tf.circuit, 512, 8)
        .unwrap()
        .is_equivalent());
}

#[test]
fn frtcheck_iterations_practical() {
    // §3.2: "the number of iterations for each Φ is around 5 ~ 15".
    for name in ["kirkman", "s1", "sand"] {
        let preset = workloads::presets()
            .into_iter()
            .find(|p| p.name == name)
            .unwrap();
        let c = workloads::build_preset(&preset);
        let tf = turbomap_frt(&c, Options::with_k(5)).expect("maps");
        for (phi, iters) in &tf.iterations {
            assert!(
                *iters <= 40,
                "{name}: Φ={phi} needed {iters} sweeps (expected ≲ 15)"
            );
        }
    }
}

#[test]
fn post_passes_compose_and_preserve_equivalence() {
    // mapping → strash → pack keeps equivalence and never grows.
    let preset = workloads::presets()
        .into_iter()
        .find(|p| p.name == "kirkman")
        .unwrap();
    let c = workloads::build_preset(&preset);
    let tf = turbomap_frt(&c, Options::with_k(5)).expect("maps");
    let swept = netlist::strash(&tf.circuit).expect("sweeps");
    assert!(swept.circuit.num_gates() <= tf.circuit.num_gates());
    let packed = flowmap::pack_luts(&swept.circuit, 5).expect("packs");
    assert!(packed.circuit.num_gates() <= swept.circuit.num_gates());
    assert!(packed.circuit.max_fanin() <= 5);
    assert!(
        random_equiv(&c, &packed.circuit, 512, 11)
            .unwrap()
            .is_equivalent(),
        "post-passes broke equivalence"
    );
    // The clock period is not harmed by either pass.
    assert!(packed.circuit.clock_period().unwrap() <= tf.period);
}

#[test]
fn kiss2_through_full_flow() {
    // A KISS2 STG synthesised with both encodings maps equivalently.
    let src = "\
.i 2
.o 1
.s 5
.r idle
0- idle idle 0
1- idle run  1
-0 run  run  1
-1 run  cool 0
-- cool wait 0
1- wait idle 0
0- wait wait 0
.e
";
    let stg = workloads::parse_kiss2(src).expect("parses");
    for enc in [workloads::Encoding::OneHot, workloads::Encoding::Binary] {
        let c = workloads::synthesize_stg(&stg, enc, "ctrl").expect("synthesises");
        netlist::validate(&c).expect("valid");
        let tf = turbomap_frt(&c, Options::with_k(4)).expect("maps");
        assert!(
            random_equiv(&c, &tf.circuit, 512, 17)
                .unwrap()
                .is_equivalent(),
            "{enc:?}"
        );
    }
}
