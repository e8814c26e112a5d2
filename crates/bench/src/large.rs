//! The large-workload suite: generate each `workloads::large` preset to
//! disk, time the streaming front-end parsing and flattening it, map it
//! monolithically with TurboMap-frt, and check the mapping against its
//! source.
//!
//! The interesting numbers are file size, model/gate/FF totals and the
//! mapping's Φ, LUTs and FFs (all deterministic for a preset — any
//! drift is a generator, linker or mapper regression) and the
//! parse/flatten/map/verify wall times (reported, and zeroed in
//! canonical artifacts like every other timing field). Every wall time
//! is read from the row's span table: the `parse`, `flatten`,
//! `turbomap_frt` and `verify` spans opened here.
//!
//! The check is the one every published mapping gets,
//! [`crate::verify_mapping`]: [`crate::VERIFY_VECTORS`] random vectors
//! through the source and the mapped circuit on the vector simulator. A
//! mapping that differs from its source fails its row, and with it the
//! suite, naming the preset, the output and the cycle.

use engine::telemetry::{self, SpanTable};
use engine::trace::span;

/// One preset's ingestion measurement.
#[derive(Debug, Clone)]
pub struct IngestRow {
    /// Preset name (`hier100k`, …).
    pub name: String,
    /// Size of the generated BLIF file in bytes.
    pub file_bytes: u64,
    /// Models in the parsed file (top + tile kinds + blackbox).
    pub models: usize,
    /// Flattened gate count.
    pub gates: usize,
    /// Flattened FF count (total, per-edge).
    pub ffs: usize,
    /// Primary inputs of the flattened circuit.
    pub pis: usize,
    /// Primary outputs of the flattened circuit.
    pub pos: usize,
    /// Seconds to stream-parse the file into the AST.
    pub parse_secs: f64,
    /// Seconds for parse + hierarchy flattening.
    pub total_secs: f64,
    /// Seconds of the row's `verify` span: the mapping checked against
    /// the flattened source with [`crate::VERIFY_VECTORS`] random vectors.
    pub verify_secs: f64,
    /// Process peak RSS (`VmHWM`) in KiB after the row (ingest, verify
    /// and map), 0 when the probe is unavailable. Zeroed in canonical
    /// artifacts like every other environment-dependent measurement.
    pub peak_rss_kib: u64,
    /// The monolithic TurboMap-frt mapping of the flattened circuit.
    pub mapped: MapMeasurement,
    /// Every span closed while the row ran (the mapper's own spans
    /// included); the timing fields above are read from it.
    pub spans: SpanTable,
}

/// The mapping leg of a large row: Φ, LUTs and FFs are deterministic
/// per preset and `k`, and exact-gated by `benchdiff`; the wall time is
/// an environment measurement, zeroed in canonical artifacts.
#[derive(Debug, Clone)]
pub struct MapMeasurement {
    /// Φ of the mapped circuit.
    pub phi: u64,
    /// LUTs in the mapped circuit.
    pub luts: usize,
    /// FFs in the mapped circuit (register sharing).
    pub ffs: usize,
    /// Wall seconds of the mapping: its `turbomap_frt` span.
    pub map_secs: f64,
}

/// Generates `spec` into `dir`, ingests it through the streaming
/// front-end, maps the flattened circuit with TurboMap-frt at LUT input
/// bound `k` and checks the mapping against it. The generated file is
/// left in place (callers pass a temp dir; CI reuses the file for
/// `blifcheck`).
///
/// # Errors
///
/// Returns a message on I/O, parse, link or mapping failures, when the
/// flattened totals disagree with the generator's closed-form counts
/// (which would mean the generator and linker drifted apart), and when
/// the mapping differs from its source (naming the output and cycle).
pub fn run_ingest_row(
    spec: &workloads::LargeSpec,
    dir: &std::path::Path,
    k: usize,
) -> Result<IngestRow, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating `{}`: {e}", dir.display()))?;
    let path = dir.join(format!("{}.blif", spec.name));
    let f =
        std::fs::File::create(&path).map_err(|e| format!("creating `{}`: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(f);
    workloads::write_hier(spec, &mut w)
        .map_err(|e| format!("writing `{}`: {e}", path.display()))?;
    std::io::Write::flush(&mut w).map_err(|e| format!("flushing `{}`: {e}", path.display()))?;
    drop(w);
    let file_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("stat `{}`: {e}", path.display()))?
        .len();

    let before = telemetry::snapshot();
    let file = {
        let _s = span("parse");
        blifio::parse_path(&path).map_err(|e| format!("parsing {}: {e}", spec.name))?
    };
    let circuit = {
        let _s = span("flatten");
        blifio::flatten(&file, &blifio::LinkOptions::default())
            .map_err(|e| format!("flattening {}: {e}", spec.name))?
    };

    if circuit.num_gates() != spec.flat_gates() || circuit.ff_count_total() != spec.flat_ffs() {
        return Err(format!(
            "{}: flattened totals drifted from the generator: \
             {} gates / {} FFs, expected {} / {}",
            spec.name,
            circuit.num_gates(),
            circuit.ff_count_total(),
            spec.flat_gates(),
            spec.flat_ffs()
        ));
    }

    let map_span = crate::ALGORITHM_SPANS[2];
    let mapped = {
        let _s = span(map_span);
        turbomap::turbomap_frt(&circuit, turbomap::Options::with_k(k))
            .map_err(|e| format!("{}: turbomap-frt: {e}", spec.name))?
    };
    crate::verify_mapping(&circuit, &mapped.circuit, spec.seed)
        .map_err(|e| format!("{}: turbomap-frt mapping: {e}", spec.name))?;

    let spans = telemetry::snapshot().since(&before).spans;
    let mapped = MapMeasurement {
        phi: mapped.period,
        luts: mapped.luts,
        ffs: mapped.ffs,
        map_secs: spans.wall_secs(map_span),
    };
    let parse_secs = spans.wall_secs("parse");
    Ok(IngestRow {
        name: spec.name.clone(),
        file_bytes,
        models: file.models.len(),
        gates: circuit.num_gates(),
        ffs: circuit.ff_count_total(),
        pis: circuit.inputs().len(),
        pos: circuit.outputs().len(),
        parse_secs,
        total_secs: parse_secs + spans.wall_secs("flatten"),
        verify_secs: spans.wall_secs("verify"),
        peak_rss_kib: engine::mem::peak_rss_kib().unwrap_or(0),
        mapped,
        spans,
    })
}

/// Runs the whole large suite (presets with at most `max_gates` flat
/// gates when given), in preset order, mapping at LUT input bound `k`.
///
/// # Errors
///
/// Returns the first failing preset's message.
pub fn run_large_suite(
    max_gates: Option<usize>,
    dir: &std::path::Path,
    k: usize,
) -> Result<Vec<IngestRow>, String> {
    workloads::large_presets()
        .iter()
        .filter(|s| max_gates.is_none_or(|cap| s.flat_gates() <= cap))
        .map(|s| run_ingest_row(s, dir, k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> workloads::LargeSpec {
        workloads::LargeSpec {
            name: "bench_small".into(),
            width: 4,
            kinds: 2,
            tiles: 3,
            tile_gates: 16,
            seed: 7,
        }
    }

    fn small_flat() -> netlist::Circuit {
        let file = blifio::parse_str(&workloads::hier_to_string(&small_spec())).unwrap();
        blifio::flatten(&file, &blifio::LinkOptions::default()).unwrap()
    }

    #[test]
    fn ingest_row_on_small_spec() {
        let spec = small_spec();
        let dir = std::env::temp_dir().join("tmfrt_bench_large");
        let row = run_ingest_row(&spec, &dir, 5).unwrap();
        assert_eq!(row.gates, spec.flat_gates());
        assert_eq!(row.ffs, spec.flat_ffs());
        assert_eq!(row.models, 1 + spec.kinds + 1);
        assert_eq!(row.pis, spec.width);
        assert_eq!(row.pos, spec.width);
        assert!(row.file_bytes > 0);
        assert!(row.total_secs >= row.parse_secs);
        // The map leg is TurboMap-frt on the flattened circuit.
        let want = turbomap::turbomap_frt(&small_flat(), turbomap::Options::with_k(5)).unwrap();
        assert_eq!(row.mapped.phi, want.period);
        assert_eq!(row.mapped.luts, want.luts);
        assert_eq!(row.mapped.ffs, want.ffs);
        assert!(row.mapped.map_secs > 0.0);
        assert_eq!(row.spans.get("turbomap_frt").unwrap().count, 1);
        // The mapping was checked against its source, once.
        assert_eq!(row.spans.get("verify").unwrap().count, 1);
        assert_eq!(row.verify_secs, row.spans.wall_secs("verify"));
    }

    /// The vector and scalar simulators agree bit for bit on a flattened
    /// hierarchical design: 64 lanes × 16 cycles of random inputs with a
    /// 1-in-8 sprinkle of X, so the third value reaches both engines.
    #[test]
    fn vector_matches_scalar_on_flattened_design() {
        use netlist::{Bit, Planes, Simulator, VecSimulator, LANES};
        let c = small_flat();
        let m = c.inputs().len();
        let mut rng = engine::Rng64::new(0x5EC5_1A7E);
        let stimulus: Vec<Vec<Bit>> = (0..16)
            .map(|_| {
                (0..LANES * m)
                    .map(|_| match rng.next_u64() {
                        r if r & 7 == 7 => Bit::X,
                        r => Bit::from_bool(r & 1 == 1),
                    })
                    .collect()
            })
            .collect();
        let mut vsim = VecSimulator::new(&c).unwrap();
        let vector_out: Vec<Vec<Planes>> = stimulus
            .iter()
            .map(|bits| {
                let planes: Vec<Planes> = (0..m)
                    .map(|i| Planes::pack(&(0..LANES).map(|l| bits[l * m + i]).collect::<Vec<_>>()))
                    .collect();
                vsim.step(&planes).unwrap()
            })
            .collect();
        let mut xs = 0;
        for l in 0..LANES {
            let mut sim = Simulator::new(&c).unwrap();
            for (cycle, bits) in stimulus.iter().enumerate() {
                let out = sim.step(&bits[l * m..(l + 1) * m]).unwrap();
                for (po, &s) in out.iter().enumerate() {
                    assert_eq!(
                        vector_out[cycle][po].get(l),
                        s,
                        "PO {po}, lane {l}, cycle {cycle}"
                    );
                    xs += usize::from(s == Bit::X);
                }
            }
        }
        assert!(xs > 0, "no X reached an output");
    }

    #[test]
    fn suite_respects_gate_cap() {
        let dir = std::env::temp_dir().join("tmfrt_bench_large");
        let rows = run_large_suite(Some(0), &dir, 5).unwrap();
        assert!(rows.is_empty());
    }
}
