//! The traced run's per-layer numbers: after each op, the layers the op
//! went through are called again one public function at a time, and a
//! fixed-input cut-query microbenchmark runs on the op's own circuit.

use crate::inputs::{Workload, HIER_BLOCKS, K};
use crate::measure::Tracer;
use crate::ops::{options, Done};
use engine::telemetry::{self, Counter};
use netlist::Circuit;
use turbomap::frtcheck::LS_NEG_INF;
use turbomap::{CutScratch, FrtContext, GeneralContext};

const MIB: f64 = 1024.0 * 1024.0;

/// Decomposes one finished op into its layer calls.
///
/// # Errors
///
/// A message when a layer call disagrees with the op's result (a cold
/// probe contradicting the reported Φ) or fails.
pub fn decompose(w: Workload, done: &Done, tr: &mut Tracer) -> Result<(), String> {
    tr.span("decompose", |tr| match w {
        Workload::IscasFrt => {
            let prep = prepare(&done.source, tr)?;
            frt_layers(&prep, done.mapped[0].phi, tr)
        }
        Workload::FsmTable1 => {
            let prep = done
                .prepared
                .as_ref()
                .expect("fsm ops keep the prepared source");
            frt_layers(prep, done.mapped[2].phi, tr)?;
            let phi = done.mapped[1].phi;
            let check = tr.span("turbomap.general_probe", |_| {
                GeneralContext::new(prep, K, options().general_horizon).check(phi)
            });
            if check.feasible {
                Ok(())
            } else {
                Err(format!("general check rejects TurboMap's Φ {phi}"))
            }
        }
        Workload::HierPart => partition_layers(done, tr),
        Workload::Ingest => Ok(()),
    })
}

fn prepare(c: &Circuit, tr: &mut Tracer) -> Result<Circuit, String> {
    tr.span("turbomap.prepare", |_| turbomap::prepare(c, K))
        .map_err(|e| format!("prepare: {e}"))
}

/// The planning calls `partition_map` makes, standalone, then each
/// mapped block through [`frt_layers`] at the block's Φ.
fn partition_layers(done: &Done, tr: &mut Tracer) -> Result<(), String> {
    let report = done.partition.as_ref().expect("hier ops keep the report");
    let c = &done.source;
    let balance = partition::PartitionOptions::new(K, HIER_BLOCKS).balance;
    let blocks = tr
        .span("partition.plan", |tr| {
            let cl = tr.span("partition.cluster", |_| partition::cluster_circuit(c));
            let asg = tr.span("partition.assign", |_| {
                partition::assign_blocks(c, &cl, HIER_BLOCKS, balance)
            });
            tr.span("partition.extract", |_| partition::extract_blocks(c, &asg))
        })
        .map_err(|e| format!("extract: {e}"))?;
    let walls: Vec<f64> = report
        .block_outcomes
        .iter()
        .map(|b| b.wall.as_secs_f64())
        .collect();
    tr.add("block_max_s", walls.iter().copied().fold(0.0, f64::max));
    tr.add("block_sum_s", walls.iter().sum());
    tr.add("cut_ffs", report.cut_ffs as f64);
    for (block, outcome) in blocks.blocks.iter().zip(&report.block_outcomes) {
        if !outcome.passthrough {
            let prep = prepare(block, tr)?;
            frt_layers(&prep, outcome.phi, tr)?;
        }
    }
    Ok(())
}

/// TurboMap-frt one layer at a time at the op's Φ: context, cold probes
/// at Φ and Φ−1, final cuts, generation, and the cut-query
/// microbenchmark: two `find_cut_with` per gate at the feasible labels,
/// the final cut's query (height `l^s(v)`, weight `r(v)`), which finds a
/// cut, and one level lower over the gate's whole window (weight
/// `frt(v)`), which at converged labels does not.
fn frt_layers(prep: &Circuit, phi: u64, tr: &mut Tracer) -> Result<(), String> {
    let ctx = tr.span("turbomap.context", |_| {
        FrtContext::new(prep, K, options().weight_horizon)
    });
    for v in prep.gate_ids() {
        if let Some(exp) = ctx.expanded(v) {
            tr.add("expanded_nodes", exp.len() as f64);
            tr.add("expanded_gates", 1.0);
        }
    }
    let feasible = tr.span("turbomap.probe_feasible", |_| ctx.check_opts(phi, None, 1));
    tr.add("probe_sweeps", feasible.iterations as f64);
    if !feasible.feasible {
        return Err(format!("cold FRTcheck rejects the reported Φ {phi}"));
    }
    if phi > 1 {
        let below = tr.span("turbomap.probe_infeasible", |_| {
            ctx.check_opts(phi - 1, None, 1)
        });
        tr.add("probe_sweeps", below.iterations as f64);
        if below.feasible {
            return Err(format!("cold FRTcheck accepts Φ−1 = {}", phi - 1));
        }
    }
    let labels = &feasible.labels;
    let cuts = tr.span("turbomap.final_cuts", |_| ctx.final_cuts(labels, phi));
    tr.span("turbomap.generate", |_| {
        let roots = turbomap::collect_roots(prep, &cuts)?;
        // Ɍ(v) = ⌈l^s(v) / Φ⌉ − 1, as the driver derives it.
        let rr = roots
            .keys()
            .map(|&v| (v, ceil_div(labels.ls[v.index()], phi as i64) - 1))
            .collect();
        turbomap::generate_mapping(prep, &roots, &rr, "decomposed", false)
    })
    .map_err(|e| format!("generate: {e}"))?;

    let augmentations = telemetry::snapshot().counter(Counter::FlowAugmentations);
    let queries = tr.span("turbomap.cut_query", |_| {
        let mut scratch = CutScratch::new();
        let mut queries = 0u64;
        for v in prep.gate_ids() {
            let i = v.index();
            let Some(exp) = ctx.expanded(v) else { continue };
            if labels.ls[i] <= LS_NEG_INF {
                continue;
            }
            let (ls, r, frt) = (labels.ls[i], labels.r[i], ctx.frt[i]);
            for (height, weight) in [(ls, r), (ls - 1, frt)] {
                queries += 1;
                let cut = turbomap::find_cut_with(
                    &mut scratch,
                    exp,
                    &labels.ls,
                    phi as i64,
                    height,
                    weight,
                    K,
                );
                std::hint::black_box(cut);
            }
        }
        queries
    });
    let augmentations = telemetry::snapshot().counter(Counter::FlowAugmentations) - augmentations;
    tr.add("micro_queries", queries as f64);
    tr.add("micro_augmentations", augmentations as f64);
    Ok(())
}

/// `⌈a / b⌉` for a positive `b`.
fn ceil_div(a: i64, b: i64) -> i64 {
    a.div_euclid(b) + i64::from(a.rem_euclid(b) != 0)
}

/// The per-layer metrics, in `BENCHMARK.json` order: (name, unit).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("workloads.gen_s", "s"),
    ("blifio.parse_s", "s"),
    ("blifio.flatten_s", "s"),
    ("blifio.parse_mb_per_s", "MB/s"),
    ("blifio.write_s", "s"),
    ("blifio.reread_s", "s"),
    ("netlist.verify_s", "s"),
    ("netlist.vsim_mevals_per_s", "M/s"),
    ("turbomap.prepare_s", "s"),
    ("flowmap.frt_s", "s"),
    ("turbomap.frt_s", "s"),
    ("turbomap.general_s", "s"),
    ("turbomap.general_probe_s", "s"),
    ("turbomap.context_s", "s"),
    ("turbomap.context_alloc_mib", "MiB"),
    ("turbomap.expanded_nodes_mean", "count"),
    ("turbomap.probe_feasible_s", "s"),
    ("turbomap.probe_infeasible_s", "s"),
    ("turbomap.probe_sweeps", "count"),
    ("turbomap.final_cuts_s", "s"),
    ("turbomap.generate_s", "s"),
    ("turbomap.cut_query_us", "us"),
    ("graphalgo.augment_ns", "ns"),
    ("turbomap.flow_augmentations", "count"),
    ("turbomap.cut_queries", "count"),
    ("turbomap.frt_sweeps", "count"),
    ("turbomap.requeued_gates", "count"),
    ("turbomap.expand_cache_hit_ratio", "ratio"),
    ("turbomap.probes", "count"),
    ("retiming.forward_moves", "count"),
    ("partition.map_s", "s"),
    ("partition.plan_s", "s"),
    ("partition.block_max_s", "s"),
    ("partition.block_sum_s", "s"),
    ("partition.parallel_eff", "ratio"),
    ("partition.cut_ffs", "count"),
    ("engine.allocs", "count"),
    ("engine.alloc_mib", "MiB"),
    ("engine.heap_peak_mib", "MiB"),
    ("engine.trace_overhead_frac", "ratio"),
];

/// What the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// Spans and sums of the traced passes.
    pub tracer: &'a Tracer,
    /// Traced passes.
    pub passes: usize,
    /// Median set-up seconds of the run.
    pub gen_s: f64,
    /// Median traced op wall over median untraced op wall, minus one.
    pub overhead: f64,
    /// Block workers of `hier_part`.
    pub workers: usize,
}

/// Computes every metric of [`PER_LAYER`]: times, counts and bytes are
/// per traced pass, rates and ratios over all traced passes. A layer
/// the workload does not call reads 0.
pub fn layer_metrics(li: &LayerInputs) -> Vec<(&'static str, f64)> {
    let tr = li.tracer;
    let passes = li.passes.max(1) as f64;
    let per_pass = |x: f64| x / passes;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let total = |name: &str| tr.total_s(name);
    let count = |key: &str| tr.count(key);
    let bytes = |name: &str| -> f64 {
        let spans = tr.spans.iter().filter(|s| s.name == name);
        spans.map(|s| s.alloc_bytes as f64).fold(0.0, |a, b| a + b)
    };
    let op_allocs = tr
        .spans
        .iter()
        .filter(|s| s.name == "op")
        .map(|s| s.allocs as f64)
        .fold(0.0, |a, b| a + b);
    let hits = count("expand_hits");
    let values = [
        li.gen_s,
        per_pass(total("blifio.parse")),
        per_pass(total("blifio.flatten")),
        ratio(count("parse_bytes") / 1e6, total("blifio.parse")),
        per_pass(total("blifio.write")),
        per_pass(total("blifio.reparse") + total("blifio.reflatten")),
        per_pass(total("netlist.verify")),
        ratio(count("vsim_evals") / 1e6, total("netlist.verify")),
        per_pass(total("turbomap.prepare")),
        per_pass(total("flowmap.frt")),
        per_pass(total("turbomap.frt")),
        per_pass(total("turbomap.general")),
        per_pass(total("turbomap.general_probe")),
        per_pass(total("turbomap.context")),
        per_pass(bytes("turbomap.context")) / MIB,
        ratio(count("expanded_nodes"), count("expanded_gates")),
        per_pass(total("turbomap.probe_feasible")),
        per_pass(total("turbomap.probe_infeasible")),
        per_pass(count("probe_sweeps")),
        per_pass(total("turbomap.final_cuts")),
        per_pass(total("turbomap.generate")),
        ratio(total("turbomap.cut_query") * 1e6, count("micro_queries")),
        ratio(
            total("turbomap.cut_query") * 1e9,
            count("micro_augmentations"),
        ),
        per_pass(count("flow_augmentations")),
        per_pass(count("cut_queries")),
        per_pass(count("frt_sweeps")),
        per_pass(count("requeued_gates")),
        ratio(hits, hits + count("expand_misses")),
        per_pass(count("probes")),
        per_pass(count("forward_moves")),
        per_pass(total("partition.map")),
        per_pass(total("partition.plan")),
        per_pass(count("block_max_s")),
        per_pass(count("block_sum_s")),
        ratio(
            count("block_sum_s"),
            li.workers as f64 * total("partition.map"),
        ),
        per_pass(count("cut_ffs")),
        per_pass(op_allocs),
        per_pass(bytes("op")) / MIB,
        engine::mem::global_stats().peak_bytes as f64 / MIB,
        li.overhead,
    ];
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .zip(values)
        .collect()
}
