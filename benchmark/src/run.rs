//! One workload run: set up, warm up, then timed passes over the
//! workload's ops for the requested number of seconds.
//!
//! A run is a closed loop on one thread: each op starts when the
//! previous one has finished and been checked. Only `hier_part`'s
//! `partition_map` fans out, to at most two block workers.

use crate::inputs::{render, Source, Workload};
use crate::layers::{decompose, layer_metrics, LayerInputs, PER_LAYER};
use crate::measure::{median, peak_rss_mib, process_cpu_s, quartiles, Calibration, Tracer};
use crate::ops::{run_op, Mapped};
use std::time::Instant;

/// Timed passes an untraced run makes at the least, however short.
const MIN_PASSES: usize = 3;
/// Share of a traced run's seconds spent on untraced passes, the
/// baseline of the tracing overhead.
const UNTRACED_SHARE: f64 = 0.4;

/// The end-to-end metrics, in `BENCHMARK.json` order: (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
    ("phi_sum", "count"),
    ("cells_sum", "count"),
    ("ffs_sum", "count"),
];

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Seconds of timed passes (after set-up and the warm-up pass).
    pub seconds: f64,
    /// Per-layer run: traced passes plus layer decomposition.
    pub trace: bool,
    /// Tiny inputs (bbtas + dk17, a 4-tile design) for tests.
    pub smoke: bool,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Timed passes (untraced + traced).
    pub passes: usize,
    /// Block workers `hier_part` used.
    pub workers: usize,
    /// Unscaled medians: pass wall and CPU seconds, and the calibration
    /// kernel's seconds.
    pub raw: [f64; 3],
    /// Every untraced timed pass's wall seconds, scaled, and every
    /// calibration kernel time, in run order: the samples behind the
    /// reported times.
    pub pass_walls: Vec<f64>,
    pub kernels: Vec<f64>,
    /// The end-to-end metrics, or the per-layer ones for a traced run.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The traced passes' spans (empty when untraced).
    pub tracer: Tracer,
}

/// Ops attempted and failed, and the first pass's results per op: later
/// passes must reproduce them exactly.
struct Tally {
    attempted: u64,
    failed: u64,
    reference: Vec<Option<Vec<Mapped>>>,
}

struct PassTimes {
    wall: f64,
    cpu: f64,
    op_wall: f64,
}

/// Runs workload `w` with `o`.
///
/// # Errors
///
/// A message when set-up fails; failed ops are counted, not errors.
pub fn run(w: Workload, o: &RunOpts) -> Result<Outcome, String> {
    let cal = Calibration::new();
    let mut kernel = vec![cal.seconds()];
    let (inputs, first_setup) = timed_render(w, o)?;
    kernel.push(cal.seconds());
    // Set-up repetitions and timed passes each sit between two kernel
    // runs; consecutive ones share one.
    let mut setup = vec![first_setup];
    let mut scales = vec![Calibration::scale(kernel[0], kernel[1])];
    let workers = crate::inputs::HIER_WORKERS.min(crate::nproc());
    let mut tr = Tracer::new(false);
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        reference: vec![None; inputs.len()],
    };

    // Warm-up: caches fill, lazy set-up finishes, results are recorded.
    pass(w, o, &inputs, workers, &mut tr, &mut tally);
    let start = Instant::now();
    let untraced = if o.trace {
        o.seconds * UNTRACED_SHARE
    } else {
        o.seconds
    };
    let min_passes = if o.trace { 1 } else { MIN_PASSES };
    let mut timed = Vec::new();
    // The set-up is repeated before every timed pass, so its samples
    // span the run as the passes do.
    kernel.push(cal.seconds());
    while timed.len() < min_passes || start.elapsed().as_secs_f64() < untraced {
        let (again, secs) = timed_render(w, o)?;
        if again != inputs {
            return Err("the same seed rendered different inputs".into());
        }
        setup.push(secs);
        timed.push(pass(w, o, &inputs, workers, &mut tr, &mut tally));
        kernel.push(cal.seconds());
        let n = kernel.len();
        scales.push(Calibration::scale(kernel[n - 2], kernel[n - 1]));
    }
    let mut traced = Vec::new();
    if o.trace {
        engine::mem::set_enabled(true);
        tr.set_enabled(true);
        while traced.is_empty() || start.elapsed().as_secs_f64() < o.seconds {
            traced.push(pass(w, o, &inputs, workers, &mut tr, &mut tally));
        }
        tr.set_enabled(false);
    }

    let passes = timed.len() + traced.len();
    let walls: Vec<f64> = timed.iter().map(|t| t.wall).collect();
    let cpus: Vec<f64> = timed.iter().map(|t| t.cpu).collect();
    // `scales[0]` belongs to the first set-up alone.
    let scaled =
        |v: &[f64], k: &[f64]| -> Vec<f64> { v.iter().zip(k).map(|(x, k)| x * k).collect() };
    let pass_walls = scaled(&walls, &scales[1..]);
    // Every pass does the same, checked work, and a busy host only ever
    // adds time: a run reports the lower quartile of its scaled samples,
    // which leaves out the passes a neighbour slowed. Over the same 10
    // seeds per workload on a 2-vCPU VM, the run-to-run interquartile
    // range was 7–17% of the median with the pass median and 6–8% with
    // the lower quartile.
    let typical = |v: &[f64]| quartiles(v)[0];
    let gen_s = median(&setup);
    let raw = [median(&walls), median(&cpus), median(&kernel)];
    let metrics = if o.trace {
        let op_wall = |p: &[PassTimes]| median(&p.iter().map(|t| t.op_wall).collect::<Vec<_>>());
        let li = LayerInputs {
            tracer: &tr,
            passes: traced.len(),
            gen_s,
            overhead: op_wall(&traced) / op_wall(&timed) - 1.0,
            workers,
        };
        let units = PER_LAYER.iter().map(|&(_, unit)| unit);
        layer_metrics(&li)
            .into_iter()
            .zip(units)
            .map(|((name, v), unit)| (name, v, unit))
            .collect()
    } else {
        let results = tally.reference.iter().flatten().flatten();
        let sum = |f: fn(&Mapped) -> usize| results.clone().map(f).sum::<usize>() as f64;
        let values = [
            typical(&pass_walls),
            typical(&scaled(&cpus, &scales[1..])),
            peak_rss_mib(),
            typical(&scaled(&setup, &scales)),
            sum(|m| m.phi as usize),
            sum(|m| m.cells),
            sum(|m| m.ffs),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        passes,
        workers,
        raw,
        pass_walls,
        kernels: kernel,
        metrics,
        tracer: tr,
    })
}

/// Renders the inputs, timed.
fn timed_render(w: Workload, o: &RunOpts) -> Result<(Vec<Source>, f64), String> {
    let t = Instant::now();
    let inputs = render(w, o.seed, o.smoke)?;
    Ok((inputs, t.elapsed().as_secs_f64()))
}

/// One pass over every input; in a traced pass each op is followed by
/// its layer decomposition, outside the op's own wall time.
fn pass(
    w: Workload,
    o: &RunOpts,
    inputs: &[Source],
    workers: usize,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> PassTimes {
    let (t0, cpu0) = (Instant::now(), process_cpu_s());
    let mut op_wall = 0.0;
    tr.span("pass", |tr| {
        for (i, src) in inputs.iter().enumerate() {
            tally.attempted += 1;
            let t = Instant::now();
            let res = run_op(w, src, o.seed, workers, tr);
            op_wall += t.elapsed().as_secs_f64();
            let res = res.and_then(|done| {
                let reference = tally.reference[i].get_or_insert_with(|| done.mapped.clone());
                if *reference != done.mapped {
                    return Err(format!(
                        "results differ from the first pass: {:?} vs {reference:?}",
                        done.mapped
                    ));
                }
                if tr.enabled() {
                    decompose(w, &done, tr)?;
                }
                Ok(())
            });
            if let Err(e) = res {
                tally.failed += 1;
                eprintln!("tmbench: {} {}: {e}", w.name(), src.name);
            }
        }
    });
    PassTimes {
        wall: t0.elapsed().as_secs_f64(),
        cpu: process_cpu_s() - cpu0,
        op_wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_op_is_counted_and_the_run_goes_on() {
        let w = Workload::FsmTable1;
        let o = RunOpts {
            seed: 0,
            seconds: 0.0,
            trace: false,
            smoke: true,
        };
        let mut inputs = render(w, 0, true).unwrap();
        // A reference the mapper cannot meet: dk17 checked against ex2's
        // committed row.
        inputs[1].expect = crate::inputs::Expect::Preset("ex2");
        let mut tr = Tracer::new(false);
        let mut tally = Tally {
            attempted: 0,
            failed: 0,
            reference: vec![None; 2],
        };
        pass(w, &o, &inputs, 1, &mut tr, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.reference[0].is_some() && tally.reference[1].is_none());
    }
}
