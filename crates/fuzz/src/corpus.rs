//! Repro persistence: failing cases as BLIF + JSON manifest.
//!
//! Every oracle failure is archived under the corpus directory as
//!
//! ```text
//! <corpus>/<case-name>/
//!   manifest.json   — schema `turbomap-fuzz/repro/v1`
//!   original.blif   — the generated case as judged
//!   repro.blif      — the shrinker's minimized version (== original when
//!                     shrinking was disabled or made no progress)
//! ```
//!
//! The manifest records the generator seed and config, the oracle config
//! and the verdict, so `generate_case(seed, config)` regenerates the
//! exact original and the oracle re-judges it identically. CI uploads the
//! whole directory as an artifact when the fuzz-smoke job fails.

use crate::oracle::Violation;
use engine::JsonValue;
use netlist::Circuit;
use std::io;
use std::path::{Path, PathBuf};

/// Schema tag of the repro manifest.
pub const MANIFEST_SCHEMA: &str = "turbomap-fuzz/repro/v1";

/// Everything a manifest records about one failing case.
#[derive(Debug, Clone)]
pub struct ReproMeta {
    /// Campaign seed the case came from.
    pub campaign_seed: u64,
    /// Case index within the campaign seed.
    pub case_index: usize,
    /// The derived per-case generator seed.
    pub case_seed: u64,
    /// LUT bound K.
    pub k: usize,
    /// Generator gate bound.
    pub max_gates: usize,
    /// Generator mutation bound.
    pub max_mutations: usize,
    /// Equivalence-check vector count.
    pub equiv_vectors: usize,
    /// Equivalence-check seed.
    pub equiv_seed: u64,
    /// Whether the Φ-optimality certificate check ran.
    pub certificates: bool,
    /// Block count of the partition cross-check (below 2: off).
    pub partitions: usize,
    /// Accepted shrink steps (0 when shrinking was off or stuck).
    pub shrink_steps: usize,
}

fn circuit_stats(c: &Circuit) -> JsonValue {
    JsonValue::object(vec![
        ("gates", JsonValue::UInt(c.num_gates() as u64)),
        ("ffs", JsonValue::UInt(c.ff_count_total() as u64)),
        ("inputs", JsonValue::UInt(c.inputs().len() as u64)),
        ("outputs", JsonValue::UInt(c.outputs().len() as u64)),
    ])
}

/// Renders the manifest JSON for a failing case.
pub fn manifest(
    meta: &ReproMeta,
    violations: &[Violation],
    original: &Circuit,
    repro: &Circuit,
) -> JsonValue {
    JsonValue::object(vec![
        ("schema", JsonValue::str(MANIFEST_SCHEMA)),
        ("campaign_seed", JsonValue::UInt(meta.campaign_seed)),
        ("case_index", JsonValue::UInt(meta.case_index as u64)),
        ("case_seed", JsonValue::UInt(meta.case_seed)),
        (
            "config",
            JsonValue::object(vec![
                ("k", JsonValue::UInt(meta.k as u64)),
                ("max_gates", JsonValue::UInt(meta.max_gates as u64)),
                ("max_mutations", JsonValue::UInt(meta.max_mutations as u64)),
                ("equiv_vectors", JsonValue::UInt(meta.equiv_vectors as u64)),
                ("equiv_seed", JsonValue::UInt(meta.equiv_seed)),
                ("certificates", JsonValue::Bool(meta.certificates)),
                ("partitions", JsonValue::UInt(meta.partitions as u64)),
            ]),
        ),
        (
            "verdict",
            JsonValue::Array(
                violations
                    .iter()
                    .map(|v| {
                        JsonValue::object(vec![
                            ("kind", JsonValue::str(v.kind.name())),
                            ("flow", JsonValue::str(v.flow)),
                            ("detail", JsonValue::str(v.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("shrink_steps", JsonValue::UInt(meta.shrink_steps as u64)),
        ("original", circuit_stats(original)),
        ("repro", circuit_stats(repro)),
    ])
}

/// Writes one failing case into `corpus_dir/<case_name>/`; returns the
/// case directory.
pub fn write_repro(
    corpus_dir: &Path,
    case_name: &str,
    meta: &ReproMeta,
    violations: &[Violation],
    original: &Circuit,
    repro: &Circuit,
) -> io::Result<PathBuf> {
    let dir = corpus_dir.join(case_name);
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join("original.blif"), blifio::write_circuit(original))?;
    std::fs::write(dir.join("repro.blif"), blifio::write_circuit(repro))?;
    std::fs::write(
        dir.join("manifest.json"),
        manifest(meta, violations, original, repro).render_pretty(),
    )?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CheckKind;
    use netlist::TruthTable;

    fn tiny() -> Circuit {
        let mut c = Circuit::new("tiny");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(g, o, vec![netlist::Bit::Zero]).unwrap();
        c
    }

    fn meta() -> ReproMeta {
        ReproMeta {
            campaign_seed: 5,
            case_index: 3,
            case_seed: 0xDEAD,
            k: 4,
            max_gates: 120,
            max_mutations: 12,
            equiv_vectors: 64,
            equiv_seed: 7,
            certificates: true,
            partitions: 2,
            shrink_steps: 2,
        }
    }

    #[test]
    fn manifest_roundtrips_and_carries_verdict() {
        let c = tiny();
        let v = vec![Violation {
            kind: CheckKind::Equivalence,
            flow: "turbomap-frt",
            detail: "output `o` diverged at cycle 0".into(),
        }];
        let m = manifest(&meta(), &v, &c, &c);
        let parsed = JsonValue::parse(&m.render()).unwrap();
        assert_eq!(
            parsed.get("schema").unwrap().as_str(),
            Some(MANIFEST_SCHEMA)
        );
        assert_eq!(parsed.get("campaign_seed").unwrap().as_u64(), Some(5));
        let config = parsed.get("config").unwrap();
        assert_eq!(config.get("certificates"), Some(&JsonValue::Bool(true)));
        assert_eq!(config.get("partitions").unwrap().as_u64(), Some(2));
        let verdict = parsed.get("verdict").unwrap().as_array().unwrap();
        assert_eq!(
            verdict[0].get("kind").unwrap().as_str(),
            Some("equivalence")
        );
        assert_eq!(
            parsed
                .get("original")
                .unwrap()
                .get("gates")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn write_repro_creates_all_three_files() {
        let c = tiny();
        let dir =
            std::env::temp_dir().join(format!("tmfrt-fuzz-corpus-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let case_dir = write_repro(&dir, "case-5-3", &meta(), &[], &c, &c).unwrap();
        for f in ["manifest.json", "original.blif", "repro.blif"] {
            assert!(case_dir.join(f).is_file(), "{f} missing");
        }
        let blif = std::fs::read_to_string(case_dir.join("repro.blif")).unwrap();
        // The BLIF round-trip may insert latch buffers; only require that
        // the archived repro parses back into a valid circuit.
        let parsed = blifio::read_circuit_str(&blif).unwrap();
        netlist::validate(&parsed).unwrap();
        assert!(parsed.num_gates() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
