//! Fault injection: prove the oracle's checks actually fire.
//!
//! The campaign only demonstrates the *absence* of violations on correct
//! mappers; these tests corrupt a genuinely mapped result the way a
//! mapper bug would — wrong LUT logic, wrong register initial state,
//! broken K bound — and assert the corresponding oracle check reports
//! it. The last test drives the full failing-case path end to end:
//! a deliberately buggy "mapper", the delta-debugging shrinker, and the
//! corpus writer.

use fuzz::{
    cut_check_violation, general_cut_check_violation, generate_case, judge_mapped, shrink_with,
    CheckKind, GenConfig, OracleConfig, ShrinkConfig,
};
use netlist::Circuit;
use turbomap::{CutFault, FrtContext, GeneralContext, Options};

fn gen_cfg() -> GenConfig {
    GenConfig {
        k: 4,
        max_gates: 40,
        max_mutations: 4,
    }
}

fn oracle_cfg() -> OracleConfig {
    OracleConfig {
        k: 4,
        equiv_vectors: 48,
        alt_sweep_workers: 0,
        ..OracleConfig::default()
    }
}

/// A case together with its honest TurboMap-frt result.
fn mapped_pair(seed: u64) -> (Circuit, Circuit) {
    let source = generate_case(seed, &gen_cfg());
    let r = turbomap::turbomap_frt(&source, Options::with_k(4)).expect("clean case must map");
    (source, r.circuit)
}

#[test]
fn honest_mapping_passes_the_judge() {
    for seed in 0..3 {
        let (source, mapped) = mapped_pair(seed);
        let v = judge_mapped(&source, &mapped, "turbomap-frt", &oracle_cfg());
        assert!(v.is_empty(), "seed {seed}: {v:?}");
    }
}

#[test]
fn flipped_truth_table_bit_fires_the_equivalence_check() {
    // A single wrong LUT bit is the smallest possible logic bug. Not
    // every bit is observable (don't-care rows exist), so scan until one
    // fires — but at least one must, or the oracle is blind to bad logic.
    let (source, mapped) = mapped_pair(1);
    let cfg = oracle_cfg();
    let mut fired = false;
    'outer: for g in mapped.gate_ids() {
        let tt = mapped.node(g).function().unwrap().clone();
        for r in 0..tt.num_rows() {
            let mut bad_tt = tt.clone();
            bad_tt.set(r, !bad_tt.eval_row(r));
            let mut bad = mapped.clone();
            bad.set_function(g, bad_tt);
            let v = judge_mapped(&source, &bad, "turbomap-frt", &cfg);
            if v.iter().any(|v| v.kind == CheckKind::Equivalence) {
                fired = true;
                break 'outer;
            }
        }
    }
    assert!(
        fired,
        "no flipped bit was caught — oracle blind to bad logic"
    );
}

#[test]
fn corrupted_initial_value_fires_the_equivalence_check() {
    // Inverting a register's initial value models the initial-state
    // computation going wrong (the paper's Section 3.3 machinery). The
    // oracle's Compatibility mode forgives X-vs-defined but must reject
    // a *conflicting* defined value on some observable register. A given
    // case may have few observable defined bits (the generator also
    // produces X-heavy initial states), so scan seeds until one fires.
    let cfg = oracle_cfg();
    let mut fired = false;
    'seeds: for seed in 0..8 {
        let (source, mapped) = mapped_pair(seed);
        for e in mapped.edge_ids().collect::<Vec<_>>() {
            for i in 0..mapped.edge(e).weight() {
                let flipped = match mapped.edge(e).ffs()[i] {
                    netlist::Bit::Zero => netlist::Bit::One,
                    netlist::Bit::One => netlist::Bit::Zero,
                    netlist::Bit::X => continue,
                };
                let mut bad = mapped.clone();
                bad.ffs_mut(e)[i] = flipped;
                let v = judge_mapped(&source, &bad, "turbomap-frt", &cfg);
                if v.iter().any(|v| v.kind == CheckKind::Equivalence) {
                    fired = true;
                    break 'seeds;
                }
            }
        }
    }
    assert!(fired, "no initial-value flip was caught");
}

#[test]
fn dropped_register_fires_the_equivalence_check() {
    // Losing a register entirely shifts the timing of its path — the
    // mapped result now answers one cycle early. Skip drops that break
    // validation (closing a combinational cycle): the structural check
    // owns those.
    let (source, mapped) = mapped_pair(3);
    let cfg = oracle_cfg();
    let mut fired = false;
    for e in mapped.edge_ids().collect::<Vec<_>>() {
        if mapped.edge(e).weight() == 0 {
            continue;
        }
        let mut bad = mapped.clone();
        bad.ffs_mut(e).pop();
        if netlist::validate(&bad).is_err() {
            continue;
        }
        let v = judge_mapped(&source, &bad, "turbomap-frt", &cfg);
        if v.iter().any(|v| v.kind == CheckKind::Equivalence) {
            fired = true;
            break;
        }
    }
    assert!(fired, "no dropped register was caught");
}

#[test]
fn oversized_lut_fires_the_structural_check() {
    // A mapper emitting a K+1-input LUT violates the whole premise of
    // the mapping; the K-bound check must flag it even though the logic
    // is equivalent.
    let mut c = Circuit::new("wide");
    let ins: Vec<_> = (0..5)
        .map(|i| c.add_input(format!("i{i}")).unwrap())
        .collect();
    let g = c.add_gate("wide5", netlist::TruthTable::and(5)).unwrap();
    let o = c.add_output("o").unwrap();
    for i in ins {
        c.connect(i, g, vec![]).unwrap();
    }
    c.connect(g, o, vec![]).unwrap();
    let v = judge_mapped(&c, &c, "turbomap-frt", &oracle_cfg());
    assert!(
        v.iter().any(|v| v.kind == CheckKind::StructuralInvalid),
        "K=4 bound not enforced on a 5-input LUT: {v:?}"
    );
}

#[test]
fn corrupted_cut_arena_fires_the_cut_check() {
    // A dropped cut or a raised cone weight is what a cut-enumeration bug
    // looks like. Not every cut decides an answer at the probed labels, so
    // plant the fault in cut after cut until the check fires — but one
    // must, and the clean arena must pass.
    let faults: [fn(usize) -> CutFault; 2] = [CutFault::DropCut, CutFault::BumpWeight];
    for fault in faults {
        let mut fired = false;
        'seeds: for seed in 0..4 {
            let source = generate_case(seed, &gen_cfg());
            let bounded = turbomap::prepare(&source, 4).unwrap();
            let mapped = turbomap::turbomap_frt(&source, Options::with_k(4)).unwrap();
            let phis: Vec<u64> = mapped.iterations.iter().map(|&(phi, _)| phi).collect();
            let clean = FrtContext::new(&bounded, 4, 32);
            assert_eq!(
                cut_check_violation(&bounded, &clean, &phis),
                None,
                "seed {seed}"
            );
            for v in bounded.gate_ids() {
                for i in 0..clean.cut_arena().num_cuts(v) {
                    let mut ctx = FrtContext::new(&bounded, 4, 32);
                    assert!(ctx.inject_cut_fault(v, fault(i)));
                    if cut_check_violation(&bounded, &ctx, &phis).is_some() {
                        fired = true;
                        break 'seeds;
                    }
                }
            }
        }
        assert!(fired, "no planted {:?} was caught", fault(0));
    }
}

#[test]
fn corrupted_general_cut_arena_fires_the_cut_check() {
    // The general labels only ask whether a cut exists, so a raised cone
    // weight cannot change an answer; a dropped cut can. Plant it in cut
    // after cut until the check fires — one must, and the clean arena
    // must pass.
    let horizon = Options::with_k(4).general_horizon;
    let mut fired = false;
    'seeds: for seed in 0..4 {
        let source = generate_case(seed, &gen_cfg());
        let bounded = turbomap::prepare(&source, 4).unwrap();
        let mapped = turbomap::turbomap_general(&source, Options::with_k(4)).unwrap();
        let phis: Vec<u64> = mapped.iterations.iter().map(|&(phi, _)| phi).collect();
        let clean = GeneralContext::new(&bounded, 4, horizon);
        assert_eq!(
            general_cut_check_violation(&bounded, &clean, &phis),
            None,
            "seed {seed}"
        );
        for v in bounded.gate_ids() {
            for i in 0.. {
                let mut ctx = GeneralContext::new(&bounded, 4, horizon);
                if !ctx.inject_cut_fault(v, CutFault::DropCut(i)) {
                    break;
                }
                if general_cut_check_violation(&bounded, &ctx, &phis).is_some() {
                    fired = true;
                    break 'seeds;
                }
            }
        }
    }
    assert!(fired, "no planted DropCut was caught");
}

#[test]
fn shrinker_converges_and_repro_lands_in_the_corpus() {
    // End-to-end failing-case path with a deliberately buggy mapper:
    // TurboMap-frt followed by one flipped LUT bit. The predicate is the
    // real differential check (source vs buggy mapping), so shrinking
    // exercises oracle-style evaluation on every candidate.
    let source = generate_case(4, &gen_cfg());
    let cfg = oracle_cfg();
    let buggy_fails = |c: &Circuit| -> bool {
        let Ok(r) = turbomap::turbomap_frt(c, Options::with_k(4)) else {
            return false;
        };
        let mut mapped = r.circuit;
        let Some(g) = mapped.gate_ids().next() else {
            return false;
        };
        let mut tt = mapped.node(g).function().unwrap().clone();
        for row in 0..tt.num_rows() {
            tt.set(row, !tt.eval_row(row)); // invert the whole LUT
        }
        mapped.set_function(g, tt);
        judge_mapped(c, &mapped, "turbomap-frt", &cfg)
            .iter()
            .any(|v| v.kind == CheckKind::Equivalence)
    };
    assert!(buggy_fails(&source), "the injected bug must be observable");

    let out = shrink_with(&source, buggy_fails, &ShrinkConfig { budget: 80 });
    // Convergence: the minimized repro still fails the same way and is
    // no larger than the original in gates + registers.
    assert!(buggy_fails(&out.circuit), "shrinking lost the failure");
    let size = |c: &Circuit| c.num_gates() + c.ff_count_total();
    assert!(size(&out.circuit) <= size(&source));
    assert!(out.evals <= 80);

    // The repro (original + minimized + manifest) lands in the corpus.
    let meta = fuzz::corpus::ReproMeta {
        campaign_seed: 0,
        case_index: 0,
        case_seed: 4,
        k: 4,
        max_gates: 40,
        max_mutations: 4,
        equiv_vectors: cfg.equiv_vectors,
        equiv_seed: cfg.equiv_seed,
        shrink_steps: out.steps,
    };
    let violations = vec![fuzz::Violation {
        kind: CheckKind::Equivalence,
        flow: "turbomap-frt",
        detail: "injected LUT inversion".into(),
    }];
    let dir = std::env::temp_dir().join(format!("tmfrt-fault-injection-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let case_dir = fuzz::corpus::write_repro(
        &dir,
        "injected-0-0",
        &meta,
        &violations,
        &source,
        &out.circuit,
    )
    .unwrap();
    for f in ["manifest.json", "original.blif", "repro.blif"] {
        assert!(case_dir.join(f).is_file(), "{f} missing from corpus");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
