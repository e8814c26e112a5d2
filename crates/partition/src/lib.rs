//! Partition-and-conquer mapping for million-gate designs.
//!
//! The paper's Φ binary search is monolithic — one design, one search —
//! so its ceiling is one machine's memory and the algorithm's
//! superlinear terms. This crate decomposes a retiming graph at
//! flip-flop boundaries, maps each block independently with
//! TurboMap-frt, and stitches the mapped blocks back together:
//!
//! 1. [`cluster`] — SCC condensation (reusing `graphalgo::scc`) plus a
//!    comb-merge pass, so every cross-cluster edge carries ≥ 1 FF.
//! 2. [`assign`] — greedy/FM-style min-cut assignment of clusters to K
//!    blocks under a balance constraint.
//! 3. [`contract`] — boundary-register timing contracts: each cut
//!    register gets an arrival/required budget derived from a
//!    whole-design Φ estimate, allocated by a slack-budgeting pass over
//!    the condensation DAG.
//! 4. [`extract`] — per-block circuits with frozen seam pseudo-PIs/POs.
//! 5. Per-block TurboMap-frt runs fanned out on the `engine` batch pool
//!    — deterministic block ordering, byte-identical at any worker
//!    count.
//! 6. [`stitch`] — merge mapped blocks, re-attach seam register chains
//!    (initial states preserved verbatim — seams are never retimed, and
//!    in-block states come from the forward-retiming computation), and
//!    legalize the result.
//!
//! Because every seam is frozen, the stitched circuit is sequentially
//! equivalent to the monolithic mapping of the same source; the price is
//! lost retiming freedom at the boundary, surfaced as the **Φ gap**
//! (`partitioned Φ ≥ monolithic Φ`) that `benchdiff --phi-gap` bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod cluster;
pub mod contract;
pub mod extract;
pub mod stitch;

pub use assign::{assign as assign_blocks, Assignment};
pub use cluster::{cluster as cluster_circuit, Clusters, Condensation};
pub use contract::{Contract, ContractSet};
pub use extract::{extract as extract_blocks, ExtractedBlocks, Seam};
pub use stitch::{stitch as stitch_blocks, StitchStats};

use engine::batch::{run_batch, BatchOptions, JobSpec};
use engine::{telemetry, trace};
use netlist::{Circuit, NetlistError};
use std::time::Duration;

/// Errors from the partition pipeline.
#[derive(Debug)]
pub enum PartitionError {
    /// Netlist reconstruction failed (internal invariant break).
    Netlist(NetlistError),
    /// A seam pseudo-node name is already taken in the source circuit.
    NameClash(String),
    /// A block's mapper run failed.
    Block {
        /// Block circuit name.
        block: String,
        /// The mapper's error (or panic message / deadline report).
        error: String,
    },
    /// Seam drivers form a wire-only cycle (no node to host the loop).
    SeamCycle,
    /// The merged circuit's FF fanout sharing is inconsistent.
    SharingConflict,
    /// Invariant violation inside stitch-and-legalize.
    Internal(String),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::Netlist(e) => write!(f, "partition netlist error: {e}"),
            PartitionError::NameClash(n) => {
                write!(f, "seam name `{n}` already exists in the source circuit")
            }
            PartitionError::Block { block, error } => {
                write!(f, "block `{block}` failed to map: {error}")
            }
            PartitionError::SeamCycle => write!(f, "seam drivers form a wire-only cycle"),
            PartitionError::SharingConflict => {
                write!(f, "stitched circuit has inconsistent FF fanout sharing")
            }
            PartitionError::Internal(m) => write!(f, "partition internal error: {m}"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl From<NetlistError> for PartitionError {
    fn from(e: NetlistError) -> PartitionError {
        PartitionError::Netlist(e)
    }
}

/// Options for [`partition_map`].
#[derive(Debug, Clone, Copy)]
pub struct PartitionOptions {
    /// LUT input bound K (as in `turbomap::Options`).
    pub k: usize,
    /// Requested number of blocks (≥ 1; clamped to the cluster count).
    pub partitions: usize,
    /// Block-level worker threads (0 → one worker). Any value yields
    /// byte-identical results.
    pub jobs: usize,
    /// Balance cap multiplier over the ideal `gates / partitions` share.
    pub balance: f64,
    /// Soft per-block mapping deadline.
    pub timeout: Option<Duration>,
}

impl PartitionOptions {
    /// Options mapping into `partitions` blocks with LUT bound `k` and
    /// the default balance cap (1.1) and serial fan-out.
    pub fn new(k: usize, partitions: usize) -> PartitionOptions {
        PartitionOptions {
            k,
            partitions,
            jobs: 0,
            balance: 1.1,
            timeout: None,
        }
    }
}

/// What happened to one block.
#[derive(Debug, Clone)]
pub struct BlockOutcome {
    /// Block circuit name (`<design>__block<i>`).
    pub name: String,
    /// Gates handed to the block mapper.
    pub gates: u64,
    /// Seam FFs consumed by the block's pseudo-PIs.
    pub cut_ffs: u64,
    /// The block's mapped Φ (0 for gate-less passthrough blocks).
    pub phi: u64,
    /// LUTs in the mapped block.
    pub luts: usize,
    /// Wall-clock the block spent on its worker.
    pub wall: Duration,
    /// True when the block had no gates and skipped the mapper.
    pub passthrough: bool,
}

/// Statistics of one partitioned mapping run.
#[derive(Debug, Clone)]
pub struct PartitionReport {
    /// Blocks requested (after `auto` resolution).
    pub requested_blocks: usize,
    /// Non-empty blocks actually mapped.
    pub blocks: usize,
    /// SCC components of the retiming graph.
    pub components: usize,
    /// FF-boundary clusters (atomic assignment units).
    pub clusters: usize,
    /// Cut edges between blocks.
    pub cut_edges: usize,
    /// Registers frozen on seams.
    pub cut_ffs: u64,
    /// Whole-design Φ estimate behind the boundary contracts.
    pub phi_estimate: u64,
    /// Minimum contract slack over all seams.
    pub min_slack: u64,
    /// Boundary contracts issued.
    pub contracts: usize,
    /// Contracts whose adjacent blocks mapped above the required budget.
    pub contract_violations: usize,
    /// Block imbalance (heaviest / ideal share).
    pub imbalance: f64,
    /// Per-block outcomes, block order.
    pub block_outcomes: Vec<BlockOutcome>,
    /// Φ of the stitched circuit.
    pub phi: u64,
    /// LUTs in the stitched circuit.
    pub luts: usize,
    /// Registers in the stitched circuit (shared-chain count).
    pub ffs: usize,
    /// Seam registers restored by stitching.
    pub stitch: StitchStats,
}

/// A partitioned mapping: the stitched circuit plus its report.
#[derive(Debug)]
pub struct PartitionedMapping {
    /// The stitched, legalized LUT network.
    pub circuit: Circuit,
    /// Per-block and whole-run statistics.
    pub report: PartitionReport,
}

/// A mapping-free partition preview (`tmfrt stats --partition-preview`).
#[derive(Debug, Clone)]
pub struct PartitionPreview {
    /// Blocks requested.
    pub requested_blocks: usize,
    /// Non-empty blocks.
    pub blocks: usize,
    /// SCC components.
    pub components: usize,
    /// FF-boundary clusters.
    pub clusters: usize,
    /// Gate count per block.
    pub block_gates: Vec<u64>,
    /// Cut edges between blocks.
    pub cut_edges: usize,
    /// Registers on cut edges.
    pub cut_ffs: u64,
    /// Block imbalance (heaviest / ideal share).
    pub imbalance: f64,
    /// Whole-design Φ estimate.
    pub phi_estimate: u64,
    /// Minimum contract slack.
    pub min_slack: u64,
    /// Contracts that would be issued.
    pub contracts: usize,
}

/// Plans a partition without mapping it.
pub fn preview(source: &Circuit, partitions: usize, k: usize) -> PartitionPreview {
    let cl = cluster::cluster(source);
    let asg = assign::assign(source, &cl, partitions.max(1), 1.1);
    let con = contract::budget(source, &cl, &asg, k);
    PartitionPreview {
        requested_blocks: partitions.max(1),
        blocks: asg.num_blocks,
        components: cl.condensation.len(),
        clusters: cl.num_clusters,
        imbalance: asg.imbalance(),
        block_gates: asg.block_gates.clone(),
        cut_edges: asg.cut_edges.len(),
        cut_ffs: asg.cut_ffs,
        phi_estimate: con.phi_estimate,
        min_slack: con.min_slack,
        contracts: con.contracts.len(),
    }
}

/// One block's mapper result, as returned by the fan-out jobs.
struct BlockMapped {
    circuit: Circuit,
    phi: u64,
    luts: usize,
    passthrough: bool,
}

/// Maps `source` by partitioning into `opts.partitions` blocks, mapping
/// each with TurboMap-frt on the engine pool, and stitching the results.
///
/// Deterministic for a fixed `(source, opts.k, opts.partitions)`
/// regardless of `opts.jobs`.
///
/// # Errors
///
/// [`PartitionError`] on any planning, mapping, or stitching failure —
/// including a block exceeding `opts.timeout`.
pub fn partition_map(
    source: &Circuit,
    opts: &PartitionOptions,
) -> Result<PartitionedMapping, PartitionError> {
    let _span = trace::span1("partition_map", "blocks", opts.partitions as u64);
    let (cl_stats, asg_meta, con, mut ex) = {
        let _plan = trace::span("partition_plan");
        let cl = cluster::cluster(source);
        let asg = assign::assign(source, &cl, opts.partitions.max(1), opts.balance);
        let con = contract::budget(source, &cl, &asg, opts.k);
        let ex = extract::extract(source, &asg)?;
        (
            (cl.condensation.len(), cl.num_clusters),
            (
                asg.num_blocks,
                asg.cut_edges.len(),
                asg.cut_ffs,
                asg.imbalance(),
            ),
            con,
            ex,
        )
    };
    let (components, clusters) = cl_stats;
    let (num_blocks, cut_edges, cut_ffs, imbalance) = asg_meta;

    let block_circuits = std::mem::take(&mut ex.blocks);
    let mut specs: Vec<JobSpec<BlockMapped>> = Vec::with_capacity(block_circuits.len());
    for (b, circuit) in block_circuits.into_iter().enumerate() {
        let gates = ex.block_gates[b];
        let name = circuit.name().to_string();
        let mopts = turbomap::Options::with_k(opts.k);
        specs.push(JobSpec::new(name, move || {
            let _s = trace::span1("partition_block", "block", b as u64);
            if gates == 0 {
                return Ok(BlockMapped {
                    circuit,
                    phi: 0,
                    luts: 0,
                    passthrough: true,
                });
            }
            let r = turbomap::turbomap_frt(&circuit, mopts).map_err(|e| e.to_string())?;
            Ok(BlockMapped {
                circuit: r.circuit,
                phi: r.period,
                luts: r.luts,
                passthrough: false,
            })
        }));
    }
    let batch = BatchOptions {
        jobs: opts.jobs,
        timeout: opts.timeout,
    };
    let reports = run_batch(specs, &batch);

    let mut mapped: Vec<Circuit> = Vec::with_capacity(reports.len());
    let mut block_outcomes: Vec<BlockOutcome> = Vec::with_capacity(reports.len());
    for (b, r) in reports.into_iter().enumerate() {
        // Fold each block's counters, spans, and histograms into
        // the calling thread so job-level telemetry sees the whole run.
        telemetry::merge_local(&r.telemetry);
        trace::event_with(
            "partition_block_done",
            [
                Some(("block", b as u64)),
                Some(("wall_nanos", r.wall.as_nanos() as u64)),
            ],
        );
        let outcome = match r.outcome {
            engine::batch::JobOutcome::Completed(m) => m,
            engine::batch::JobOutcome::Failed(e) => {
                return Err(PartitionError::Block {
                    block: r.name,
                    error: e,
                })
            }
            engine::batch::JobOutcome::Panicked(e) => {
                return Err(PartitionError::Block {
                    block: r.name,
                    error: format!("panicked: {e}"),
                })
            }
            engine::batch::JobOutcome::DeadlineExceeded { limit } => {
                return Err(PartitionError::Block {
                    block: r.name,
                    error: format!("deadline exceeded ({limit:?})"),
                })
            }
        };
        block_outcomes.push(BlockOutcome {
            name: r.name,
            gates: ex.block_gates[b],
            cut_ffs: ex.block_cut_ffs[b],
            phi: outcome.phi,
            luts: outcome.luts,
            wall: r.wall,
            passthrough: outcome.passthrough,
        });
        mapped.push(outcome.circuit);
    }

    let (stitched, stitch_stats) = {
        let _s = trace::span("partition_stitch");
        stitch::stitch(source, &ex, &mapped)?
    };

    // A contract is violated when either adjacent block mapped above the
    // required budget — the estimate was too optimistic for that seam.
    let mut contract_violations = 0usize;
    for ct in &con.contracts {
        let s = ex
            .seams
            .iter()
            .find(|s| s.edge == ct.edge)
            .expect("contract matches a seam");
        let pb = &block_outcomes[s.producer_block as usize];
        let cb = &block_outcomes[s.consumer_block as usize];
        if pb.phi > ct.required || cb.phi > ct.required {
            contract_violations += 1;
        }
    }

    let phi = stitched
        .clock_period()
        .map_err(|e| PartitionError::Internal(format!("stitched period: {e}")))?;
    let luts = stitched.num_gates();
    let ffs = stitched.ff_count_shared();
    let report = PartitionReport {
        requested_blocks: opts.partitions.max(1),
        blocks: num_blocks,
        components,
        clusters,
        cut_edges,
        cut_ffs,
        phi_estimate: con.phi_estimate,
        min_slack: con.min_slack,
        contracts: con.contracts.len(),
        contract_violations,
        imbalance,
        block_outcomes,
        phi,
        luts,
        ffs,
        stitch: stitch_stats,
    };
    Ok(PartitionedMapping {
        circuit: stitched,
        report,
    })
}
