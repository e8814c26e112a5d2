//! Differential fuzzing for the mapper/retimer pipeline.
//!
//! The paper's headline claims are *relational*: TurboMap-frt's Φ is
//! optimal among forward-retimed mappings (Theorem 3 — so
//! Φ(TurboMap) ≤ Φ(TurboMap-frt) ≤ Φ(FlowMap-frt)), every mapped result
//! is sequentially equivalent to its source, and the forward-retimed
//! flows always have a computable initial state (Section 3.3 — the
//! property the `⋆` rows of Table 1 show general retiming lacks). This
//! crate turns our three from-scratch implementations into each other's
//! oracles:
//!
//! * [`gen`] — a seeded, std-only generator of structurally valid
//!   sequential netlists: cyclic FSM cores ([`workloads::generate_fsm`])
//!   grown with live gates ([`workloads::grow`](fn@workloads::grow)), diversified with
//!   partial/`X` initial states and the [`mutate`] operators.
//! * [`mutate`] — apply–validate–revert mutation operators: gate
//!   insertion, fanin rewiring ("merge"), forward retiming by hand (with
//!   the Touati–Brayton initial-state update) and initial-value flips.
//! * [`oracle`] — runs TurboMap-frt, FlowMap-frt and TurboMap on a case
//!   and checks the Φ-ordering invariant, sequential equivalence
//!   (three-valued simulation, [`netlist::EquivMode::Compatibility`]),
//!   initial-state computability of the forward-retimed flows, and the
//!   cut arena against max-flow (opt-in: Φ-optimality certificates and
//!   the partition cross-check). Mapper panics are caught and reported
//!   as verdicts, so a panicking case can still be shrunk.
//! * [`shrink`](mod@shrink) — a delta-debugging minimizer: drops primary outputs,
//!   bypasses gates (concatenating register chains so no combinational
//!   cycle can appear), trims registers and X-ifies initial values,
//!   keeping any candidate that still fails with the same verdict kind
//!   and is strictly smaller.
//! * [`corpus`] — persists failing cases as BLIF plus a JSON manifest
//!   (`turbomap-fuzz/repro/v1`: seed, config, verdict) under
//!   `fuzz/corpus/`.
//! * [`campaign`] — drives the whole thing on the [`engine`] batch pool
//!   with per-case deadlines, cancellation, a report counting judged
//!   cases, oracle failures and shrink steps, the `fuzz_case_gates`
//!   telemetry histogram and structured-log progress.

pub mod campaign;
pub mod corpus;
pub mod gen;
pub mod mutate;
pub mod oracle;
pub mod shrink;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport, CaseStatus};
pub use gen::{generate_case, GenConfig};
pub use oracle::{
    cut_check_violation, flowmap_cut_check_violation, general_cut_check_violation, judge_mapped,
    run_oracle, CheckKind, OracleConfig, OracleOutcome, Violation,
};
pub use shrink::{shrink, shrink_with, ShrinkConfig, ShrinkOutcome};
