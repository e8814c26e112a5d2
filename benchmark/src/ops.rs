//! One operation ("op") per input: read the BLIF text, map it (or round
//! trip it), and check the result without trusting the mapper.

use crate::inputs::{Expect, Source, Workload, HIER_BLOCKS, K};
use crate::measure::Tracer;
use engine::hist::Metric;
use engine::telemetry::{self, Counter};
use netlist::{Circuit, EquivMode};

/// Random vectors per mapping check (the paper's count for its largest
/// circuits); partitioned results use fewer, as `table1` does.
const VERIFY_VECTORS: usize = 3008;
const PARTITION_VECTORS: usize = 1024;
/// 16 cycles × 64 lanes for the 100k-gate round trip.
const ROUND_TRIP_VECTORS: usize = 16;

/// One mapped (or round-tripped) netlist's quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapped {
    /// `flowmap_frt`, `turbomap`, `turbomap_frt`, `partition` or
    /// `round_trip`.
    pub algo: &'static str,
    /// Clock period.
    pub phi: u64,
    /// LUTs (gates, for a round trip).
    pub cells: usize,
    /// Flip-flops.
    pub ffs: usize,
}

/// A finished op: its results plus what the traced decomposition needs.
#[derive(Debug)]
pub struct Done {
    /// Every netlist the op produced, in a fixed order.
    pub mapped: Vec<Mapped>,
    /// The circuit read from the op's text.
    pub source: Circuit,
    /// The K-bounded source, when the op prepared it (`fsm_table1`).
    pub prepared: Option<Circuit>,
    /// The partitioned mapping's report (`hier_part`).
    pub partition: Option<partition::PartitionReport>,
}

/// Runs one op on `src` inside an `op` span.
///
/// # Errors
///
/// A message naming the failed call or check.
pub fn run_op(
    w: Workload,
    src: &Source,
    seed: u64,
    workers: usize,
    tr: &mut Tracer,
) -> Result<Done, String> {
    tr.span("op", |tr| {
        let c = read(&src.text, tr, "blifio.parse", "blifio.flatten")?;
        tr.add("parse_bytes", src.text.len() as f64);
        let done = match w {
            Workload::IscasFrt => Done {
                mapped: vec![map_frt(&c, seed, tr)?],
                source: c,
                prepared: None,
                partition: None,
            },
            Workload::FsmTable1 => {
                let prep = tr
                    .span("turbomap.prepare", |_| turbomap::prepare(&c, K))
                    .map_err(|e| format!("prepare: {e}"))?;
                Done {
                    mapped: map_three(&c, &prep, seed, tr)?,
                    source: c,
                    prepared: Some(prep),
                    partition: None,
                }
            }
            Workload::HierPart => {
                let (m, report) = map_partitioned(&c, seed, workers, tr)?;
                Done {
                    mapped: vec![m],
                    source: c,
                    prepared: None,
                    partition: Some(report),
                }
            }
            Workload::Ingest => Done {
                mapped: vec![round_trip(&c, seed, tr)?],
                source: c,
                prepared: None,
                partition: None,
            },
        };
        check_reference(&src.expect, &done.mapped, seed)?;
        Ok(done)
    })
}

/// Parses and flattens BLIF text, one span per call.
fn read(
    text: &str,
    tr: &mut Tracer,
    parse: &'static str,
    flatten: &'static str,
) -> Result<Circuit, String> {
    let file = tr
        .span(parse, |_| blifio::parse_str(text))
        .map_err(|e| format!("parse: {e}"))?;
    tr.span(flatten, |_| {
        blifio::flatten(&file, &blifio::LinkOptions::default())
    })
    .map_err(|e| format!("flatten: {e}"))
}

/// The program's own counters across `f`, added to the traced sums.
pub fn with_counters<R>(tr: &mut Tracer, f: impl FnOnce(&mut Tracer) -> R) -> R {
    let before = telemetry::snapshot();
    let r = f(tr);
    let d = telemetry::snapshot().since(&before);
    let count = |c: Counter| d.counter(c) as f64;
    tr.add("flow_augmentations", count(Counter::FlowAugmentations));
    tr.add("frt_sweeps", count(Counter::FrtSweeps));
    tr.add("requeued_gates", count(Counter::FrtRequeuedGates));
    tr.add("expand_hits", count(Counter::ExpandCacheHits));
    tr.add("expand_misses", count(Counter::ExpandCacheMisses));
    tr.add("forward_moves", count(Counter::ForwardMoves));
    tr.add("probes", d.hist(Metric::SweepsPerPhi).count as f64);
    // One sample per probe: the label updates it answered with a cut
    // query on a cached expansion.
    tr.add("cut_queries", d.hist(Metric::CacheHitsPerProbe).sum as f64);
    r
}

pub fn options() -> turbomap::Options {
    turbomap::Options::with_k(K)
}

fn map_frt(c: &Circuit, seed: u64, tr: &mut Tracer) -> Result<Mapped, String> {
    let r = tr
        .span("turbomap.frt", |tr| {
            with_counters(tr, |_| turbomap::turbomap_frt(c, options()))
        })
        .map_err(|e| format!("turbomap-frt: {e}"))?;
    if r.star() {
        return Err("turbomap-frt lost the initial state".into());
    }
    let mode = EquivMode::Conformance;
    check_mapping(c, &r.circuit, r.period, mode, VERIFY_VECTORS, seed ^ 3, tr)
        .map_err(|e| format!("turbomap-frt: {e}"))?;
    Ok(Mapped {
        algo: "turbomap_frt",
        phi: r.period,
        cells: r.luts,
        ffs: r.ffs,
    })
}

/// FlowMap-frt, TurboMap and TurboMap-frt, as `table1` runs them, with
/// the paper's ordering Φ_TurboMap ≤ Φ_TurboMap-frt ≤ Φ_FlowMap-frt.
fn map_three(
    c: &Circuit,
    prep: &Circuit,
    seed: u64,
    tr: &mut Tracer,
) -> Result<Vec<Mapped>, String> {
    let conformance = EquivMode::Conformance;
    let fm = tr
        .span("flowmap.frt", |_| flowmap::flowmap_frt(prep, K))
        .map_err(|e| format!("flowmap-frt: {e}"))?;
    check_mapping(
        c,
        &fm.circuit,
        fm.period,
        conformance,
        VERIFY_VECTORS,
        seed ^ 1,
        tr,
    )
    .map_err(|e| format!("flowmap-frt: {e}"))?;
    let tm = tr
        .span("turbomap.general", |_| {
            turbomap::turbomap_general(c, options())
        })
        .map_err(|e| format!("turbomap: {e}"))?;
    // A lost initial state (the paper's ⋆) is a legal TurboMap outcome;
    // its `X` values can then only be checked for compatibility.
    let tm_mode = if tm.star() {
        EquivMode::Compatibility
    } else {
        conformance
    };
    check_mapping(
        c,
        &tm.circuit,
        tm.period,
        tm_mode,
        VERIFY_VECTORS,
        seed ^ 2,
        tr,
    )
    .map_err(|e| format!("turbomap: {e}"))?;
    let tf = map_frt(c, seed, tr)?;
    if !(tm.period <= tf.phi && tf.phi <= fm.period) {
        return Err(format!(
            "Φ order broken: turbomap {} / turbomap-frt {} / flowmap-frt {}",
            tm.period, tf.phi, fm.period
        ));
    }
    Ok(vec![
        Mapped {
            algo: "flowmap_frt",
            phi: fm.period,
            cells: fm.luts,
            ffs: fm.ffs,
        },
        Mapped {
            algo: "turbomap",
            phi: tm.period,
            cells: tm.luts,
            ffs: tm.ffs,
        },
        tf,
    ])
}

fn map_partitioned(
    c: &Circuit,
    seed: u64,
    workers: usize,
    tr: &mut Tracer,
) -> Result<(Mapped, partition::PartitionReport), String> {
    let mut opts = partition::PartitionOptions::new(K, HIER_BLOCKS);
    opts.jobs = workers;
    let part = tr
        .span("partition.map", |tr| {
            with_counters(tr, |_| partition::partition_map(c, &opts))
        })
        .map_err(|e| format!("partition: {e}"))?;
    let r = &part.report;
    // Both sides may carry pessimistic `X` bits in different registers.
    let mode = EquivMode::Compatibility;
    check_mapping(
        c,
        &part.circuit,
        r.phi,
        mode,
        PARTITION_VECTORS,
        seed ^ 3,
        tr,
    )
    .map_err(|e| format!("partition: {e}"))?;
    let m = Mapped {
        algo: "partition",
        phi: r.phi,
        cells: r.luts,
        ffs: r.ffs,
    };
    Ok((m, part.report))
}

/// Write → re-read → equivalence: the front end's round trip. The
/// writer buffers each output whose driver has another name, so the
/// re-read netlist may gain one gate per output and nothing else.
fn round_trip(c: &Circuit, seed: u64, tr: &mut Tracer) -> Result<Mapped, String> {
    let text = tr.span("blifio.write", |_| blifio::write_circuit(c));
    let back = read(&text, tr, "blifio.reparse", "blifio.reflatten")?;
    let phi = back.clock_period().map_err(|e| e.to_string())?;
    let source_phi = c.clock_period().map_err(|e| e.to_string())?;
    let added = back.num_gates().checked_sub(c.num_gates());
    if phi != source_phi
        || back.ff_count_total() != c.ff_count_total()
        || added.is_none_or(|g| g > c.outputs().len())
    {
        return Err(format!(
            "round trip changed the netlist: Φ {source_phi} -> {phi}, gates {} -> {}, FFs {} -> {}",
            c.num_gates(),
            back.num_gates(),
            c.ff_count_total(),
            back.ff_count_total()
        ));
    }
    verify(
        c,
        &back,
        EquivMode::Conformance,
        ROUND_TRIP_VECTORS,
        seed,
        tr,
    )?;
    // The source, not the buffered copy, is what the design fixes.
    Ok(Mapped {
        algo: "round_trip",
        phi,
        cells: c.num_gates(),
        ffs: c.ff_count_total(),
    })
}

/// The checks every mapped netlist must pass: K-bounded, clock period
/// within the reported Φ, and random-vector equivalent to `source`.
///
/// # Errors
///
/// A message naming the failed check.
pub fn check_mapping(
    source: &Circuit,
    mapped: &Circuit,
    phi: u64,
    mode: EquivMode,
    vectors: usize,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(), String> {
    netlist::check_k_bounded(mapped, K).map_err(|e| format!("not {K}-bounded: {e}"))?;
    let period = mapped.clock_period().map_err(|e| e.to_string())?;
    if period > phi {
        return Err(format!(
            "clock period {period} exceeds the reported Φ {phi}"
        ));
    }
    verify(source, mapped, mode, vectors, seed, tr)
}

fn verify(
    a: &Circuit,
    b: &Circuit,
    mode: EquivMode,
    vectors: usize,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(), String> {
    let res = tr
        .span("netlist.verify", |_| {
            netlist::random_equiv_mode(a, b, vectors, seed, mode)
        })
        .map_err(|e| format!("verify: {e}"))?;
    // `random_equiv_mode` simulates 64 lanes for this many cycles.
    let cycles = vectors
        .div_ceil(netlist::LANES)
        .max(vectors.min(netlist::LANES));
    let evals = (a.num_gates() + b.num_gates()) * cycles * netlist::LANES;
    tr.add("vsim_evals", evals as f64);
    match res {
        netlist::EquivResult::Equivalent => Ok(()),
        netlist::EquivResult::Different(cex) => Err(format!(
            "not equivalent: output {} differs at cycle {} ({:?} vs {:?})",
            cex.output, cex.cycle, cex.expected, cex.actual
        )),
    }
}

/// Φ, LUTs and FFs of one mapping.
type Quality = (u64, usize, usize);

/// Φ, LUTs and FFs of `BENCH_table1.json` for the circuits the
/// benchmark maps: (name, [FlowMap-frt, TurboMap, TurboMap-frt]).
#[rustfmt::skip]
const TABLE1: [(&str, [Quality; 3]); 16] = [
    ("bbara", [(1, 7, 7), (1, 7, 7), (1, 7, 7)]),
    ("bbtas", [(1, 5, 5), (1, 5, 5), (1, 5, 5)]),
    ("dk16", [(9, 60, 9), (9, 60, 9), (9, 60, 9)]),
    ("dk17", [(1, 5, 5), (1, 5, 5), (1, 5, 5)]),
    ("ex1", [(8, 58, 9), (8, 58, 9), (8, 58, 9)]),
    ("ex2", [(2, 9, 8), (1, 10, 10), (1, 11, 11)]),
    ("keyb", [(7, 45, 6), (7, 45, 6), (7, 45, 6)]),
    ("kirkman", [(6, 40, 8), (6, 40, 8), (6, 40, 8)]),
    ("planet1", [(21, 161, 10), (20, 163, 13), (20, 163, 13)]),
    ("s1", [(1, 6, 7), (1, 6, 7), (1, 6, 7)]),
    ("sand", [(16, 132, 36), (15, 132, 30), (15, 130, 30)]),
    ("scf", [(16, 159, 8), (15, 164, 16), (16, 159, 8)]),
    ("sse", [(1, 4, 4), (1, 4, 4), (1, 4, 4)]),
    ("styr", [(17, 120, 7), (17, 120, 7), (17, 120, 7)]),
    ("s5378", [(4, 505, 140), (3, 476, 159), (3, 476, 159)]),
    ("s9234.1", [(5, 546, 110), (4, 518, 155), (4, 518, 155)]),
];

/// Checks results against the mapper-independent reference. Relabelling
/// cannot change an optimal Φ, so every seed must reproduce the
/// committed Φ; seed 0 must reproduce the committed LUTs and FFs too.
fn check_reference(expect: &Expect, mapped: &[Mapped], seed: u64) -> Result<(), String> {
    match *expect {
        Expect::Preset(name) => {
            let (_, rows) = TABLE1
                .iter()
                .find(|(n, _)| *n == name)
                .ok_or_else(|| format!("{name}: no committed row"))?;
            for m in mapped {
                let slot = ["flowmap_frt", "turbomap", "turbomap_frt"]
                    .iter()
                    .position(|a| *a == m.algo)
                    .ok_or_else(|| format!("{name}: unexpected algorithm {}", m.algo))?;
                let (phi, luts, ffs) = rows[slot];
                let want = if seed == 0 {
                    (phi, luts, ffs)
                } else {
                    (phi, m.cells, m.ffs)
                };
                if (m.phi, m.cells, m.ffs) != want {
                    return Err(format!(
                        "{name} {}: Φ/LUTs/FFs {}/{}/{} differ from the committed {phi}/{luts}/{ffs}",
                        m.algo, m.phi, m.cells, m.ffs
                    ));
                }
            }
            Ok(())
        }
        Expect::Flat { gates, ffs } => {
            let m = mapped[0];
            if (m.cells, m.ffs) == (gates, ffs) {
                Ok(())
            } else {
                Err(format!(
                    "round trip has {} gates / {} FFs, the design {gates} / {ffs}",
                    m.cells, m.ffs
                ))
            }
        }
        Expect::None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate does not trust the mapper: a mapped bbtas with one LUT's
    /// function complemented must fail its op.
    #[test]
    fn a_complemented_lut_fails_the_check() {
        let src = &crate::inputs::render(Workload::FsmTable1, 0, true).unwrap()[0];
        assert_eq!(src.name, "bbtas");
        let mut tr = Tracer::new(false);
        let done = run_op(Workload::IscasFrt, src, 0, 1, &mut tr).unwrap();
        let c = &done.source;
        let mut mapped = turbomap::turbomap_frt(c, options()).unwrap();
        check_mapping(
            c,
            &mapped.circuit,
            mapped.period,
            EquivMode::Conformance,
            3008,
            3,
            &mut tr,
        )
        .unwrap();
        let lut = mapped.circuit.gate_ids().next().unwrap();
        let tt = mapped.circuit.node(lut).function().unwrap().clone();
        let flipped = netlist::TruthTable::from_fn(tt.num_inputs(), |r| !tt.eval_row(r));
        mapped.circuit.set_function(lut, flipped);
        let err = check_mapping(
            c,
            &mapped.circuit,
            mapped.period,
            EquivMode::Conformance,
            3008,
            3,
            &mut tr,
        )
        .unwrap_err();
        assert!(err.contains("not equivalent"), "{err}");
    }

    #[test]
    fn seed_zero_must_match_the_committed_rows() {
        let ok = Mapped {
            algo: "turbomap_frt",
            phi: 1,
            cells: 5,
            ffs: 5,
        };
        assert!(check_reference(&Expect::Preset("bbtas"), &[ok], 0).is_ok());
        let more_luts = Mapped { cells: 6, ..ok };
        assert!(check_reference(&Expect::Preset("bbtas"), &[more_luts], 0).is_err());
        assert!(check_reference(&Expect::Preset("bbtas"), &[more_luts], 9).is_ok());
        let worse_phi = Mapped { phi: 2, ..ok };
        assert!(check_reference(&Expect::Preset("bbtas"), &[worse_phi], 9).is_err());
    }
}
