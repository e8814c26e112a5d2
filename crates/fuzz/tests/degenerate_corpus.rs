//! Regression corpus of degenerate models the library must not panic on.
//!
//! Each `corpus/*.blif` file reproduces a shape that once tripped (or
//! plausibly trips) an `unwrap`/`assert` on a library path: zero-PI
//! models, zero-PO models, self-loop latches, empty-cover `.names`
//! (constant gates), and combinations. The test drives every case
//! through the whole stack — parse, validate, simulate, map, full
//! differential oracle — under `catch_unwind`, requiring typed errors
//! (or clean results) everywhere: a panic anywhere is a regression.

use fuzz::oracle::{run_oracle, OracleConfig, OracleOutcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn corpus_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("corpus directory exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "blif"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "corpus must not be empty");
    files
}

/// Every corpus case must go through parse → validate → simulate →
/// oracle without panicking. Invalid cases must be *rejected with typed
/// errors*; valid ones must be judged (pass or fail, but never panic —
/// the oracle itself converts mapper panics into verdicts, so we also
/// require no `MapperPanic`/`SimDivergence` verdict).
#[test]
fn degenerate_corpus_never_panics() {
    let cfg = OracleConfig {
        equiv_vectors: 16,
        ..OracleConfig::default()
    };
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        eprintln!("corpus case: {name}");
        let text = std::fs::read_to_string(&path).expect("corpus file readable");

        // Stage 1: the front-end. A typed error is fine, a panic is not.
        let parsed = catch_unwind(AssertUnwindSafe(|| blifio::read_circuit_str(&text)))
            .unwrap_or_else(|_| panic!("{name}: blifio reader panicked"));
        let Ok(c) = parsed else { continue };

        // Stage 2: validation and basic analyses must not panic.
        let valid = catch_unwind(AssertUnwindSafe(|| netlist::validate(&c)))
            .unwrap_or_else(|_| panic!("{name}: validate panicked"));
        for (what, r) in [
            (
                "clock_period",
                catch_unwind(AssertUnwindSafe(|| c.clock_period().map(|_| ()))),
            ),
            (
                "comb_topo_order",
                catch_unwind(AssertUnwindSafe(|| c.comb_topo_order().map(|_| ()))),
            ),
            (
                "simulate",
                catch_unwind(AssertUnwindSafe(|| {
                    let m = c.inputs().len();
                    let mut sim = netlist::Simulator::new(&c)?;
                    sim.run(&[vec![netlist::Bit::Zero; m], vec![netlist::Bit::One; m]])
                        .map(|_| ())
                })),
            ),
            (
                "vec_simulate",
                catch_unwind(AssertUnwindSafe(|| {
                    let m = c.inputs().len();
                    let mut sim = netlist::VecSimulator::new(&c)?;
                    sim.step(&vec![netlist::Planes::splat(netlist::Bit::X); m])
                        .map(|_| ())
                })),
            ),
            (
                "strash",
                catch_unwind(AssertUnwindSafe(|| netlist::strash(&c).map(|_| ()))),
            ),
            (
                "prune",
                catch_unwind(AssertUnwindSafe(|| {
                    let _ = netlist::prune_dead(&c);
                    Ok(())
                })),
            ),
            (
                "decompose",
                catch_unwind(AssertUnwindSafe(|| {
                    netlist::decompose_to_k(&c, 4).map(|_| ())
                })),
            ),
        ] {
            match r {
                Ok(_) => {} // typed error or success — both acceptable
                Err(_) => panic!("{name}: {what} panicked"),
            }
        }

        // Stage 3: only structurally valid circuits go to the mappers;
        // the oracle catches mapper panics and reports them as verdicts.
        if valid.is_err() {
            continue;
        }
        let out = catch_unwind(AssertUnwindSafe(|| run_oracle(&c, &cfg)))
            .unwrap_or_else(|_| panic!("{name}: run_oracle panicked outside its guards"));
        if let OracleOutcome::Fail { violations, .. } = &out {
            for v in violations {
                assert!(
                    !matches!(
                        v.kind,
                        fuzz::oracle::CheckKind::MapperPanic
                            | fuzz::oracle::CheckKind::SimDivergence
                    ),
                    "{name}: {} on flow {}: {}",
                    v.kind.name(),
                    v.flow,
                    v.detail
                );
            }
        }
    }
}
