//! The large-workload suite: generate each `workloads::large` preset to
//! disk, time the streaming front-end parsing and flattening it, time a
//! vectorized **verify phase** over the flattened circuit, then map it
//! monolithically with TurboMap-frt.
//!
//! The interesting numbers are file size, model/gate/FF totals and the
//! mapping's Φ, LUTs and FFs (all deterministic for a preset — any
//! drift is a generator, linker or mapper regression) and the
//! parse/flatten/verify/map wall times (reported, and zeroed in
//! canonical artifacts like every other timing field). Every wall time
//! is read from the row's span table: the `parse`, `flatten`,
//! `verify_vector`, `verify_scalar` and `turbomap_frt` spans opened
//! here.
//!
//! The verify phase drives [`VERIFY_LANES`] independent random input
//! sequences through the circuit on **both** simulation engines — the
//! 64-wide two-bitplane [`netlist::VecSimulator`] in one pass, and the
//! scalar [`netlist::Simulator`] one sequence at a time — and requires
//! their outputs to agree bit-for-bit. That makes every suite run a
//! full-scale differential test of the vector engine, and the two wall
//! times quantify the vectorization speedup on exactly the workload
//! the equivalence checkers see (`verify_scalar_secs / verify_secs`,
//! gated by `benchdiff --verify-speedup`).

use engine::telemetry::{self, SpanTable};
use engine::trace::span;
use netlist::{Bit, Planes, Simulator, VecSimulator, LANES};

/// Independent sequences in the verify phase: one full `Planes` word.
pub const VERIFY_LANES: usize = LANES;

/// Scalar-engine work budget (gate evaluations) that picks the verify
/// sequence depth per preset, so the phase stays a few seconds even on
/// million-gate circuits.
const VERIFY_EVAL_BUDGET: usize = 150_000_000;

/// Sequence depth of the verify phase: budget-bounded, clamped to
/// `[2, 16]` cycles. Deterministic per gate count.
pub fn verify_cycles_for(gates: usize) -> usize {
    (VERIFY_EVAL_BUDGET / VERIFY_LANES.saturating_mul(gates.max(1))).clamp(2, 16)
}

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
    /// Independent input sequences in the verify phase ([`VERIFY_LANES`]).
    pub verify_lanes: usize,
    /// Cycles per verify sequence (budget-bounded, see [`verify_cycles_for`]).
    pub verify_cycles: usize,
    /// Seconds the vectorized engine took to simulate all verify
    /// sequences (one 64-lane pass).
    pub verify_secs: f64,
    /// Seconds the scalar engine took on the same sequences, one at a
    /// time — the pre-vectorization baseline; `verify_scalar_secs /
    /// verify_secs` is the measured vectorization speedup.
    pub verify_scalar_secs: f64,
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
/// front-end, runs the verify phase and maps the flattened circuit with
/// TurboMap-frt at LUT input bound `k`. The generated file is left in
/// place (callers pass a temp dir; CI reuses the file for `blifcheck`).
///
/// # Errors
///
/// Returns a message on I/O, parse, link or mapping failures, and when
/// the flattened totals disagree with the generator's closed-form
/// counts (which would mean the generator and linker drifted apart).
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

    let verify_cycles = run_verify_phase(&circuit, spec.seed)
        .map_err(|e| format!("{}: verify phase: {e}", spec.name))?;

    let map_span = crate::ALGORITHM_SPANS[2];
    let mapped = {
        let _s = span(map_span);
        turbomap::turbomap_frt(&circuit, turbomap::Options::with_k(k))
            .map_err(|e| format!("{}: turbomap-frt: {e}", spec.name))?
    };

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
        verify_lanes: VERIFY_LANES,
        verify_cycles,
        verify_secs: spans.wall_secs("verify_vector"),
        verify_scalar_secs: spans.wall_secs("verify_scalar"),
        peak_rss_kib: engine::mem::peak_rss_kib().unwrap_or(0),
        mapped,
        spans,
    })
}

/// Simulates [`VERIFY_LANES`] independent random sequences on both
/// engines — the vector pass under a `verify_vector` span, the scalar
/// pass under `verify_scalar` — and requires bit-for-bit agreement on
/// every PO, lane and cycle. Returns the sequence depth in cycles.
fn run_verify_phase(circuit: &netlist::Circuit, seed: u64) -> Result<usize, String> {
    let m = circuit.inputs().len();
    let cycles = verify_cycles_for(circuit.num_gates());
    // Stimulus: [cycle][lane * m + pi], defined bits with a 1-in-8
    // sprinkle of X so the third value exercises both engines.
    let mut rng = engine::Rng64::new(seed ^ 0x5EC5_1A7E);
    let stimulus: Vec<Vec<Bit>> = (0..cycles)
        .map(|_| {
            (0..VERIFY_LANES * m)
                .map(|_| {
                    let r = rng.next_u64();
                    if r & 7 == 7 {
                        Bit::X
                    } else {
                        Bit::from_bool(r & 1 == 1)
                    }
                })
                .collect()
        })
        .collect();

    // Vector pass: all lanes at once.
    let vector_span = span("verify_vector");
    let mut vsim = VecSimulator::new(circuit).map_err(|e| e.to_string())?;
    let mut vector_out: Vec<Vec<Planes>> = Vec::with_capacity(cycles);
    let mut inputs = vec![Planes::splat(Bit::X); m];
    for bits in &stimulus {
        for (i, planes) in inputs.iter_mut().enumerate() {
            let (mut p0, mut p1) = (0u64, 0u64);
            for l in 0..VERIFY_LANES {
                match bits[l * m + i] {
                    Bit::Zero => p0 |= 1 << l,
                    Bit::One => p1 |= 1 << l,
                    Bit::X => {
                        p0 |= 1 << l;
                        p1 |= 1 << l;
                    }
                }
            }
            *planes = Planes { p0, p1 };
        }
        vector_out.push(vsim.step(&inputs).map_err(|e| e.to_string())?);
    }
    drop(vector_span);

    // Scalar pass: the same sequences one lane at a time — the
    // pre-vectorization equivalence-check protocol.
    let _scalar_span = span("verify_scalar");
    for l in 0..VERIFY_LANES {
        let mut sim = Simulator::new(circuit).map_err(|e| e.to_string())?;
        for (cycle, bits) in stimulus.iter().enumerate() {
            let lane_in = &bits[l * m..(l + 1) * m];
            let out = sim.step(lane_in).map_err(|e| e.to_string())?;
            for (po, &s) in out.iter().enumerate() {
                let v = vector_out[cycle][po].get(l);
                if v != s {
                    return Err(format!(
                        "engines disagree: PO {po}, lane {l}, cycle {cycle}: \
                         scalar {s:?}, vector {v:?}"
                    ));
                }
            }
        }
    }
    Ok(cycles)
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

    #[test]
    fn ingest_row_on_small_spec() {
        let spec = workloads::LargeSpec {
            name: "bench_small".into(),
            width: 4,
            kinds: 2,
            tiles: 3,
            tile_gates: 16,
            seed: 7,
        };
        let dir = std::env::temp_dir().join("tmfrt_bench_large");
        let row = run_ingest_row(&spec, &dir, 5).unwrap();
        assert_eq!(row.gates, spec.flat_gates());
        assert_eq!(row.ffs, spec.flat_ffs());
        assert_eq!(row.models, 1 + spec.kinds + 1);
        assert_eq!(row.pis, spec.width);
        assert_eq!(row.pos, spec.width);
        assert!(row.file_bytes > 0);
        assert!(row.total_secs >= row.parse_secs);
        // The verify phase ran on both engines and agreed.
        assert_eq!(row.verify_lanes, VERIFY_LANES);
        assert_eq!(row.verify_cycles, verify_cycles_for(row.gates));
        assert!(row.verify_secs > 0.0);
        assert!(row.verify_scalar_secs > 0.0);
        // The map leg is TurboMap-frt on the flattened circuit.
        let file = blifio::parse_str(&workloads::hier_to_string(&spec)).unwrap();
        let flat = blifio::flatten(&file, &blifio::LinkOptions::default()).unwrap();
        let want = turbomap::turbomap_frt(&flat, turbomap::Options::with_k(5)).unwrap();
        assert_eq!(row.mapped.phi, want.period);
        assert_eq!(row.mapped.luts, want.luts);
        assert_eq!(row.mapped.ffs, want.ffs);
        assert!(row.mapped.map_secs > 0.0);
        assert_eq!(row.spans.get("turbomap_frt").unwrap().count, 1);
    }

    #[test]
    fn verify_cycles_budget() {
        assert_eq!(verify_cycles_for(100), 16); // tiny: clamped up
        assert_eq!(verify_cycles_for(100_000), 16);
        assert_eq!(verify_cycles_for(300_000), 7);
        assert_eq!(verify_cycles_for(1_000_000), 2);
        assert_eq!(verify_cycles_for(usize::MAX / 2), 2); // clamped down
    }

    #[test]
    fn suite_respects_gate_cap() {
        let dir = std::env::temp_dir().join("tmfrt_bench_large");
        let rows = run_large_suite(Some(0), &dir, 5).unwrap();
        assert!(rows.is_empty());
    }
}
