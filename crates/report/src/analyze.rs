//! Report assembly: run the mapper, re-probe the label system, extract
//! the Φ−1 infeasibility witness, and attribute timing on the mapped
//! network.

use std::collections::{BTreeMap, BTreeSet};

use engine::telemetry::{self, Counter};
use engine::JsonValue;
use graphalgo::paths::LongestPathError;
use netlist::{Circuit, NodeId};
use turbomap::{FrtContext, Options, TurboMapError, TurboMapResult, WitnessOutcome};

use crate::model::{LabelRow, NodeTiming, Report, RetimingSummary, WitnessKind, WitnessReport};

/// Errors from [`explain`].
#[derive(Debug)]
pub enum ReportError {
    /// The underlying mapping run failed.
    Map(TurboMapError),
    /// The run was cancelled through the thread's cancel token.
    Cancelled,
    /// An internal invariant of the report pipeline failed.
    Internal(String),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Map(e) => write!(f, "mapping: {e}"),
            ReportError::Cancelled => write!(f, "cancelled"),
            ReportError::Internal(msg) => write!(f, "internal: {msg}"),
        }
    }
}

impl std::error::Error for ReportError {}

/// A mapping run together with its report and the bounded network the
/// certificate is defined on.
#[derive(Debug)]
pub struct Explained {
    /// The assembled report.
    pub report: Report,
    /// The underlying mapping result (mapped circuit, period, counters).
    pub result: TurboMapResult,
    /// The prepared (fanin-bounded) source network — the graph a
    /// checker must replay the witness against.
    pub bounded: Circuit,
}

impl Explained {
    /// The rendered `turbomap-report/v2` document.
    pub fn to_json(&self) -> JsonValue {
        self.report.to_json()
    }
}

/// Maps a circuit with TurboMap-frt and assembles the full report:
/// Φ-optimality witness, timing attribution, label attribution, and the
/// retiming summary.
///
/// # Errors
///
/// [`ReportError::Map`] when the underlying mapping fails,
/// [`ReportError::Cancelled`] on external cancellation, and
/// [`ReportError::Internal`] when a pipeline invariant breaks (e.g. the
/// label system refuses the achieved period).
pub fn explain(source: &Circuit, opts: Options) -> Result<Explained, ReportError> {
    let bounded = turbomap::prepare(source, opts.k).map_err(ReportError::Map)?;
    // The mapping run's context, reused below: one cut enumeration.
    let ctx = FrtContext::new(&bounded, opts.k, opts.weight_horizon);
    let result = turbomap::turbomap_frt_with(source.name(), &ctx).map_err(|e| match e {
        TurboMapError::Cancelled => ReportError::Cancelled,
        other => ReportError::Map(other),
    })?;

    let (nodes, critical_path, period, slack_hist) = timing(&result.circuit)?;

    // The label system at the smallest feasible Φ at or above the
    // achieved period. They coincide in practice; the generated network
    // can in principle beat the simple-solution bound (the paper's
    // Fig. 2 effect), in which case the labels live at the search Φ.
    let mut phi_labels = period;
    let mut probe = ctx.check(phi_labels);
    while !probe.feasible {
        if engine::cancel::cancelled() {
            return Err(ReportError::Cancelled);
        }
        phi_labels += 1;
        if phi_labels > period + 64 {
            return Err(ReportError::Internal(format!(
                "label system infeasible for every Φ in {period}..={phi_labels}"
            )));
        }
        probe = ctx.check(phi_labels);
    }

    // Witness for the refuted period (achieved period − 1). Any period
    // below the label system's Φ is infeasible by monotonicity, so the
    // probe must land on a derivation unless a horizon capped the run.
    let (kind, steps) = if period == 0 {
        (
            WitnessKind::Unavailable(
                "the mapped network has no combinational depth (period 0)".to_string(),
            ),
            Vec::new(),
        )
    } else {
        match ctx.infeasibility_witness(period - 1) {
            WitnessOutcome::Infeasible(steps) => (WitnessKind::Derivation, steps),
            WitnessOutcome::Feasible => (
                WitnessKind::Unavailable(
                    "probe at period − 1 converged feasibly (achieved period beats the \
                     simple-solution bound)"
                        .to_string(),
                ),
                Vec::new(),
            ),
            WitnessOutcome::Capped => (
                WitnessKind::Unavailable(
                    "frt/expansion horizon capped; cone arithmetic would not replay".to_string(),
                ),
                Vec::new(),
            ),
            WitnessOutcome::IterationCap => (
                WitnessKind::Unavailable("label iteration cap reached".to_string()),
                Vec::new(),
            ),
            WitnessOutcome::Cancelled => return Err(ReportError::Cancelled),
        }
    };
    let mut referenced: BTreeSet<u32> = BTreeSet::new();
    for step in &steps {
        referenced.insert(step.node().0);
        if let turbomap::WitnessStep::Fanin { from, .. } = step {
            referenced.insert(from.0);
        }
    }
    let node_names: Vec<(u32, String)> = referenced
        .into_iter()
        .map(|id| (id, bounded.node(NodeId(id)).name().to_string()))
        .collect();

    let (critical_cycle, cycle_delay, cycle_weight) = critical_cycle(&result.circuit, period);

    // Per-gate label attribution at the label system's Φ.
    let phi_i = phi_labels as i64;
    let labels: Vec<LabelRow> = bounded
        .gate_ids()
        .map(|v| {
            let ls = probe.labels.ls[v.index()];
            let r = probe.labels.r[v.index()];
            LabelRow {
                id: v.0,
                name: bounded.node(v).name().to_string(),
                ls,
                r,
                label_slack: phi_i - (ls + phi_i * r as i64),
            }
        })
        .collect();

    let retiming = RetimingSummary {
        forward_moves: result.moves.forward_moves as u64,
        backward_moves: result.moves.backward_moves as u64,
        initial_state_lost: result.initial_state_lost,
        sharing_conflict: result.sharing_conflict,
    };

    telemetry::count(Counter::ReportsGenerated, 1);

    let report = Report {
        name: source.name().to_string(),
        k: opts.k,
        phi: result.period,
        phi_labels,
        luts: result.luts,
        ffs: result.ffs,
        star: result.star(),
        probes: result.iterations.clone(),
        witness: WitnessReport {
            phi_tested: period.saturating_sub(1),
            kind,
            steps,
            node_names,
            critical_cycle,
            cycle_delay,
            cycle_weight,
        },
        period,
        nodes,
        critical_path,
        slack_hist,
        labels,
        retiming,
    };
    Ok(Explained {
        report,
        result,
        bounded,
    })
}

/// Arrival-time attribution on the mapped network, mirroring the
/// unit-delay clock-period recurrence: per-gate depth and slack, one
/// deterministic critical path, and the slack histogram.
#[allow(clippy::type_complexity)]
fn timing(
    mapped: &Circuit,
) -> Result<(Vec<NodeTiming>, Vec<String>, u64, Vec<(u64, u64)>), ReportError> {
    let arrival = mapped
        .arrival_times()
        .map_err(|e| ReportError::Internal(format!("mapped network: {e}")))?;
    let period = arrival.iter().copied().max().unwrap_or(0);
    let nodes: Vec<NodeTiming> = mapped
        .gate_ids()
        .map(|v| NodeTiming {
            id: v.0,
            name: mapped.node(v).name().to_string(),
            depth: arrival[v.index()],
            slack: period - arrival[v.index()],
        })
        .collect();
    let mut slack_counts: BTreeMap<u64, u64> = BTreeMap::new();
    for n in &nodes {
        *slack_counts.entry(n.slack).or_insert(0) += 1;
    }
    // One critical path: start at the smallest-id node of maximal depth,
    // walk zero-weight fanins picking the deepest (smallest id on ties).
    let mut path = Vec::new();
    if period > 0 {
        let mut v = mapped
            .node_ids()
            .find(|&v| arrival[v.index()] == period)
            .expect("some node achieves the period");
        path.push(v);
        loop {
            let mut best: Option<NodeId> = None;
            for &e in mapped.node(v).fanin() {
                let edge = mapped.edge(e);
                if edge.weight() != 0 {
                    continue;
                }
                let u = edge.from();
                let better = match best {
                    None => true,
                    Some(b) => {
                        arrival[u.index()] > arrival[b.index()]
                            || (arrival[u.index()] == arrival[b.index()] && u.0 < b.0)
                    }
                };
                if better {
                    best = Some(u);
                }
            }
            match best {
                Some(u) => {
                    path.push(u);
                    v = u;
                }
                None => break,
            }
        }
        path.reverse();
    }
    let path_names = path
        .into_iter()
        .map(|v| mapped.node(v).name().to_string())
        .collect();
    Ok((
        nodes,
        path_names,
        period,
        slack_counts.into_iter().collect(),
    ))
}

/// Critical cycle of the mapped network at `period − 1`, when one is
/// reachable from the PIs: the cycle that certifies the period cannot
/// be lowered by retiming alone (`d(C) > (period−1)·w(C)`).
fn critical_cycle(mapped: &Circuit, period: u64) -> (Vec<String>, u64, u64) {
    if period == 0 {
        return (Vec::new(), 0, 0);
    }
    let p = (period - 1) as i64;
    let edges: Vec<(usize, usize, i64)> = mapped
        .edge_ids()
        .map(|e| {
            let edge = mapped.edge(e);
            (
                edge.from().index(),
                edge.to().index(),
                mapped.node(edge.to()).delay() as i64 - p * edge.weight() as i64,
            )
        })
        .collect();
    let sources: Vec<usize> = mapped.inputs().iter().map(|n| n.index()).collect();
    match graphalgo::paths::longest_paths(mapped.num_nodes(), &edges, &sources) {
        Err(LongestPathError::PositiveCycle(cycle)) => {
            let mut delay = 0u64;
            let mut weight = 0u64;
            for (i, &a) in cycle.iter().enumerate() {
                let b = cycle[(i + 1) % cycle.len()];
                let hop = mapped
                    .node(NodeId(a as u32))
                    .fanout()
                    .iter()
                    .filter(|&&e| mapped.edge(e).to().index() == b)
                    .map(|&e| mapped.edge(e).weight() as u64)
                    .min()
                    .unwrap_or(0);
                weight += hop;
                delay += mapped.node(NodeId(b as u32)).delay();
            }
            let names = cycle
                .iter()
                .map(|&i| mapped.node(NodeId(i as u32)).name().to_string())
                .collect();
            (names, delay, weight)
        }
        _ => (Vec::new(), 0, 0),
    }
}
