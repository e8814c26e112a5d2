//! End-to-end `partition_map` checks: sequential equivalence against the
//! monolithic TurboMap-frt result and worker-count determinism.
//!
//! The in-profile tests follow the repo's debug-build convention and run
//! on a gate-capped subset of the table1 suite; the full 18-circuit
//! equivalence sweep is `#[ignore]`d here and executed in release mode
//! by the CI partition-smoke job (`cargo test -p partition --release --
//! --ignored`).

use netlist::{random_equiv_mode, Circuit, EquivMode};
use partition::{partition_map, preview, PartitionOptions};
use workloads::{table1_suite, table1_suite_small};

const K: usize = 5;
/// Vectors for the equivalence protocol (the paper uses 3008; the
/// debug-profile subset uses fewer to keep `cargo test -q` fast).
const SMALL_VECTORS: usize = 512;
const FULL_VECTORS: usize = 3008;

/// Maps `c` both ways and asserts the stitched result is sequentially
/// equivalent to the monolithic one, with the expected Φ relation.
fn check_one(name: &str, c: &Circuit, partitions: usize, jobs: usize, vectors: usize) {
    let mono = turbomap::turbomap_frt(c, turbomap::Options::with_k(K))
        .unwrap_or_else(|e| panic!("{name}: monolithic map failed: {e}"));
    let mut opts = PartitionOptions::new(K, partitions);
    opts.jobs = jobs;
    let part =
        partition_map(c, &opts).unwrap_or_else(|e| panic!("{name}: partition_map failed: {e}"));

    // Both results are forward-retimed mappings of `c`, each possibly
    // pessimistic (`X`) in different registers — Compatibility is the
    // right relation between them.
    let r = random_equiv_mode(
        &mono.circuit,
        &part.circuit,
        vectors,
        0xC0FFEE ^ name.len() as u64,
        EquivMode::Compatibility,
    )
    .unwrap_or_else(|e| panic!("{name}: equivalence check failed to run: {e}"));
    assert!(
        r.is_equivalent(),
        "{name}: stitched circuit differs from monolithic mapping: {r:?}"
    );
    // Both must also conform to the source (stronger than pairwise
    // compatibility: defined source bits may not be contradicted).
    let rs = random_equiv_mode(
        c,
        &part.circuit,
        vectors,
        0xBEEF ^ name.len() as u64,
        EquivMode::Compatibility,
    )
    .unwrap();
    assert!(
        rs.is_equivalent(),
        "{name}: stitched circuit differs from the source"
    );

    // Frozen seams can only lose retiming freedom: the monolithic Φ is
    // optimal, so the stitched Φ may never beat it.
    assert!(
        part.report.phi >= mono.period,
        "{name}: partitioned Φ {} < monolithic Φ {}",
        part.report.phi,
        mono.period
    );
    assert_eq!(
        part.report.phi,
        part.circuit.clock_period().unwrap(),
        "{name}: report Φ disagrees with the stitched circuit"
    );
}

#[test]
fn stitched_equivalent_on_debug_subset() {
    // Debug-build-sized subset (same convention as bench's determinism
    // tests); the release-mode `--ignored` run covers all 18.
    let suite = table1_suite_small(60);
    assert!(!suite.is_empty());
    for (p, c) in &suite {
        check_one(p.name, c, 2, 2, SMALL_VECTORS);
    }
}

#[test]
#[ignore = "release-profile sweep over all 18 table1 circuits (CI partition-smoke)"]
fn stitched_equivalent_on_all_table1() {
    let suite = table1_suite();
    assert_eq!(suite.len(), 18);
    for (p, c) in &suite {
        check_one(p.name, c, 4, 4, FULL_VECTORS);
    }
}

#[test]
fn output_is_identical_across_worker_counts() {
    for (p, c) in &table1_suite_small(60) {
        let mut serial = PartitionOptions::new(K, 4);
        serial.jobs = 1;
        let mut wide = PartitionOptions::new(K, 4);
        wide.jobs = 4;
        let a = partition_map(c, &serial).unwrap();
        let b = partition_map(c, &wide).unwrap();
        assert!(
            a.circuit == b.circuit,
            "{}: --jobs 1 vs --jobs 4 circuit mismatch",
            p.name
        );
        assert_eq!(a.report.phi, b.report.phi);
        assert_eq!(a.report.luts, b.report.luts);
        assert_eq!(a.report.cut_ffs, b.report.cut_ffs);
    }
}

#[test]
fn preview_is_consistent_with_mapping() {
    let (p, c) = &table1_suite_small(60)[0];
    let pv = preview(c, 2, K);
    assert!(pv.blocks >= 1 && pv.blocks <= pv.requested_blocks);
    assert_eq!(pv.block_gates.iter().sum::<u64>(), c.num_gates() as u64);
    let part = partition_map(c, &PartitionOptions::new(K, 2)).unwrap();
    assert_eq!(part.report.blocks, pv.blocks, "{}", p.name);
    assert_eq!(part.report.cut_edges, pv.cut_edges);
    assert_eq!(part.report.cut_ffs, pv.cut_ffs);
    assert_eq!(part.report.clusters, pv.clusters);
}

#[test]
fn single_block_matches_monolithic_mapper() {
    let (p, c) = &table1_suite_small(60)[0];
    let mono = turbomap::turbomap_frt(c, turbomap::Options::with_k(K)).unwrap();
    let part = partition_map(c, &PartitionOptions::new(K, 1)).unwrap();
    assert_eq!(part.report.blocks, 1, "{}", p.name);
    assert_eq!(part.report.cut_edges, 0);
    assert_eq!(part.report.phi, mono.period);
    assert_eq!(part.report.luts, mono.luts);
    let r = random_equiv_mode(
        &mono.circuit,
        &part.circuit,
        SMALL_VECTORS,
        7,
        EquivMode::Conformance,
    )
    .unwrap();
    assert!(r.is_equivalent());
}
