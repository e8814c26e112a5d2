//! Infeasibility witnesses: replayable derivation logs for `Φ` probes.
//!
//! When the binary search settles on `Φ_min`, the probe at `Φ_min − 1`
//! proved infeasibility — and then threw the proof away. This module
//! keeps it: [`FrtContext::infeasibility_witness`](crate::FrtContext::infeasibility_witness) re-runs the probe cold
//! through FRTcheck's own sweep loop, logging every `l^s` improvement as a
//! [`WitnessStep`] whose arithmetic an independent checker can replay
//! without trusting the mapper (see `crates/report`).
//!
//! # Certificate semantics
//!
//! The log is a proof by contradiction. Assume a feasible FRT mapping
//! solution at period `P` exists; by Corollary 1 every node of it
//! satisfies `l^s(v) + P·r(v) ≤ P`, hence `l^s(v) ≤ P`. Each step derives
//! a valid lower bound on the solution's `l^s` labels:
//!
//! * **Fanin** (R1): the l-value edge inequality — across any edge
//!   `e(u, v)`, `l^s(v) ≥ l^s(u) − P·w(e)`.
//! * **NoCut** (R2): a simple mapping solution gives `v` a LUT that is a
//!   K-cut of `F_v^{frt(v)}` with cut-height ≤ `l^s(v)`; if no K-cut of
//!   height ≤ `h` exists (heights from already-derived lower bounds),
//!   then `l^s(v) ≥ h + 1`.
//! * **WeightBump** (R3): if the minimum cone weight admitting a K-cut of
//!   height ≤ `h` is `w_min`, any solution with `l^s(v) ≤ h` pulls
//!   `r(v) ≥ w_min` registers forward; `h + P·w_min > P` then contradicts
//!   Corollary 1 at `v`, so `l^s(v) ≥ h + 1`.
//!
//! The terminal step pushes some `l^s(v)` past `P`, contradicting the
//! assumption — so no feasible solution at `P` exists and `Φ_min ≥ P + 1`.
//!
//! Lower bounds derived against *smaller* current labels stay sound
//! (cut-heights only grow with the labels), so a checker replaying the
//! log in order with its own label array verifies every step exactly.

use netlist::NodeId;

/// One derivation step of an infeasibility witness, in replay order.
///
/// `value` is the new lower bound on `l^s(node)` the step establishes;
/// a checker accepts the step only if its own replayed state justifies
/// at least `value`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessStep {
    /// R1: `l^s(node) ≥ l^s(from) − P·weight` via a fanin edge of weight
    /// `weight` (`value` equals that right-hand side at recording time).
    Fanin {
        /// The improved node.
        node: NodeId,
        /// The fanin edge's driver.
        from: NodeId,
        /// The fanin edge's register count.
        weight: u64,
        /// The derived lower bound on `l^s(node)`.
        value: i64,
    },
    /// R2: no K-cut of height ≤ `height` exists in `F_node^{frt(node)}`,
    /// so `l^s(node) ≥ height + 1 = value`.
    NoCut {
        /// The improved node (a gate).
        node: NodeId,
        /// The refuted cut-height bound.
        height: i64,
        /// The derived lower bound (`height + 1`).
        value: i64,
    },
    /// R3: the minimum cone weight admitting a K-cut of height ≤ `height`
    /// is `w_min`, and `height + P·w_min > P`, so
    /// `l^s(node) ≥ height + 1 = value`.
    WeightBump {
        /// The improved node (a gate).
        node: NodeId,
        /// The height bound the minimal weight was computed for.
        height: i64,
        /// The minimal cone weight admitting such a cut.
        w_min: u64,
        /// The derived lower bound (`height + 1`).
        value: i64,
    },
}

impl WitnessStep {
    /// The node whose label the step improves.
    pub fn node(&self) -> NodeId {
        match *self {
            WitnessStep::Fanin { node, .. }
            | WitnessStep::NoCut { node, .. }
            | WitnessStep::WeightBump { node, .. } => node,
        }
    }

    /// The lower bound on `l^s(node)` the step establishes.
    pub fn value(&self) -> i64 {
        match *self {
            WitnessStep::Fanin { value, .. }
            | WitnessStep::NoCut { value, .. }
            | WitnessStep::WeightBump { value, .. } => value,
        }
    }

    /// Stable rule name (JSON schema field).
    pub fn rule(&self) -> &'static str {
        match self {
            WitnessStep::Fanin { .. } => "fanin",
            WitnessStep::NoCut { .. } => "no_cut",
            WitnessStep::WeightBump { .. } => "weight_bump",
        }
    }
}

/// Outcome of a witness probe at one period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessOutcome {
    /// The period is infeasible; the ordered derivation log ends with a
    /// step whose `value` exceeds the probed period.
    Infeasible(Vec<WitnessStep>),
    /// The probe converged with every label within the period — the
    /// period is feasible, so there is no infeasibility to witness.
    Feasible,
    /// A derivation would have leaned on a truncated expansion (the
    /// `frt` weight horizon or the expanded-node cap), so the log would
    /// not replay against true cone arithmetic; no witness is produced.
    Capped,
    /// The theoretical sweep cap was hit before convergence (never seen
    /// in practice); no witness is produced.
    IterationCap,
    /// The installed cancel token tripped mid-probe; no witness.
    Cancelled,
}
