//! Mapping reports: Φ-optimality certificates and timing attribution.
//!
//! TurboMap-frt answers "the minimum clock period is Φ" — this crate
//! makes the answer *inspectable*. [`explain`] runs the mapper and
//! assembles a [`Report`] with two halves:
//!
//! * **Certificate** — a replayable derivation log proving that Φ−1 is
//!   infeasible (no simple FRT mapping solution exists at that period),
//!   extracted from a serial re-run of the label fixpoint, plus the
//!   critical cycle of the mapped network when the refutation is
//!   cycle-shaped.
//! * **Attribution** — per-LUT depth and slack (`period − arrival`) of
//!   the emitted mapping, one critical path, per-gate label pairs
//!   `(l^s, r)` with their label slack, and the forward / backward moves
//!   and initial-state outcome of the retiming that was applied.
//!
//! [`checker::verify`] replays a rendered report **independently** — its
//! own Dijkstra for `frt`, its own cone expansion, its own max-flow —
//! so the Φ lower bound is established without trusting the mapper's
//! arithmetic. The document schema is `turbomap-report/v2`
//! ([`model::SCHEMA`]); rendering is deterministic (no timestamps, no
//! worker-dependent data), so report bytes are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod checker;
pub mod model;

pub use analyze::{explain, Explained, ReportError};
pub use checker::{verify, CheckSummary, WitnessVerdict};
pub use model::{parse_witness, Report, WitnessKind, SCHEMA};

#[cfg(test)]
mod tests {
    use super::*;
    use engine::JsonValue;
    use netlist::Circuit;
    use turbomap::Options;

    fn explain_and_verify(c: &Circuit, k: usize) -> (Explained, CheckSummary) {
        let explained = explain(c, Options::with_k(k)).expect("explain");
        let doc = explained.to_json().render_pretty();
        let parsed = JsonValue::parse(&doc).expect("rendered report parses back");
        let summary = verify(&parsed, c, &explained.result.circuit).expect("verification");
        (explained, summary)
    }

    /// The paper's Fig. 1 circuit: the witness must replay through the
    /// independent checker after a JSON round trip.
    #[test]
    fn fig1_report_verifies_end_to_end() {
        let c = workloads::figures::fig1_circuit(true);
        let (explained, summary) = explain_and_verify(&c, 3);
        assert!(explained.result.period > 0);
        match summary.witness {
            WitnessVerdict::Verified {
                steps,
                terminal_value,
                ..
            } => {
                assert!(steps > 0);
                assert!(terminal_value > explained.report.witness.phi_tested as i64);
            }
            WitnessVerdict::Unavailable { ref reason } => {
                panic!("expected a verified witness, got unavailable: {reason}")
            }
        }
        assert_eq!(summary.nodes_checked, explained.result.luts);
    }

    /// The report reads the mapping run's own label context, so a report
    /// costs one cut enumeration, not two, and builds no expanded circuit
    /// and runs no max-flow beyond what the mapping itself does (none on
    /// Fig. 1, whose cuts all come from the arena).
    #[test]
    fn explain_enumerates_cuts_once() {
        use engine::telemetry::Counter;
        let c = workloads::figures::fig1_circuit(true);
        let before = engine::telemetry::snapshot();
        explain(&c, Options::with_k(3)).expect("explain");
        let delta = engine::telemetry::snapshot().since(&before);
        assert_eq!(delta.spans.get("cut_enum").map(|s| s.count), Some(1));
        assert_eq!(delta.counter(Counter::FlowAugmentations), 0);
        assert_eq!(delta.counter(Counter::ExpandCacheMisses), 0);
    }

    /// Slack invariants hold on a batch of table-1 circuits: the minimum
    /// slack is exactly 0 (a critical node exists) and every slack is
    /// non-negative by construction — re-derived by the checker.
    #[test]
    fn small_suite_reports_verify() {
        for (preset, c) in workloads::table1_suite_small(120) {
            let (explained, summary) = explain_and_verify(&c, 5);
            assert!(
                matches!(summary.witness, WitnessVerdict::Verified { .. }),
                "{}: witness did not verify",
                preset.name
            );
            let min_slack = explained.report.nodes.iter().map(|n| n.slack).min();
            assert_eq!(min_slack, Some(0), "{}: no critical node", preset.name);
        }
    }

    /// A tampered derivation step must be rejected — the checker may not
    /// accept a witness whose arithmetic does not hold.
    #[test]
    fn tampered_witness_is_rejected() {
        let c = workloads::figures::fig1_circuit(true);
        let explained = explain(&c, Options::with_k(3)).expect("explain");
        let mut doc = explained.to_json();
        // Inflate the last step's claimed value beyond what its rule
        // supports.
        if let JsonValue::Object(pairs) = &mut doc {
            let witness = &mut pairs
                .iter_mut()
                .find(|(k, _)| k == "witness")
                .expect("witness")
                .1;
            if let JsonValue::Object(wpairs) = witness {
                let steps = &mut wpairs
                    .iter_mut()
                    .find(|(k, _)| k == "steps")
                    .expect("steps")
                    .1;
                if let JsonValue::Array(items) = steps {
                    let last = items.last_mut().expect("non-empty");
                    if let JsonValue::Object(spairs) = last {
                        for (k, v) in spairs.iter_mut() {
                            if k == "value" {
                                *v = JsonValue::Int(1_000);
                            }
                        }
                    }
                }
            }
        }
        let err = verify(&doc, &c, &explained.result.circuit)
            .expect_err("tampered step must be rejected");
        assert!(err.contains("step"), "unhelpful error: {err}");
    }

    /// Tampered timing (a wrong slack entry) must be rejected.
    #[test]
    fn tampered_slack_is_rejected() {
        let c = workloads::figures::fig1_circuit(true);
        let explained = explain(&c, Options::with_k(3)).expect("explain");
        let mut doc = explained.to_json();
        if let JsonValue::Object(pairs) = &mut doc {
            let timing = &mut pairs
                .iter_mut()
                .find(|(k, _)| k == "timing")
                .expect("timing")
                .1;
            if let JsonValue::Object(tpairs) = timing {
                let nodes = &mut tpairs
                    .iter_mut()
                    .find(|(k, _)| k == "nodes")
                    .expect("nodes")
                    .1;
                if let JsonValue::Array(items) = nodes {
                    if let Some(JsonValue::Object(spairs)) = items.first_mut() {
                        for (k, v) in spairs.iter_mut() {
                            if k == "slack" {
                                *v = JsonValue::UInt(999);
                            }
                        }
                    }
                }
            }
        }
        verify(&doc, &c, &explained.result.circuit).expect_err("tampered slack must be rejected");
    }

    /// The human rendering mentions the headline quantities.
    #[test]
    fn human_table_mentions_headlines() {
        let c = workloads::figures::fig1_circuit(true);
        let explained = explain(&c, Options::with_k(3)).expect("explain");
        let table = explained.report.render_table();
        assert!(table.contains("Φ-optimality"));
        assert!(table.contains("timing attribution"));
        assert!(table.contains("retiming & initial state"));
    }

    /// A register-bound circuit (critical cycle) yields a cycle witness
    /// the checker re-verifies arithmetically.
    #[test]
    fn cycle_bound_circuit_reports_cycle() {
        // Three 2-input gates in a register loop, each mixing in a fresh
        // PI: at K=2 no LUT absorbs two loop gates, so the loop stays
        // 3 LUTs over 1 register and the cycle forces Φ ≥ ⌈d(C)/w(C)⌉ = 3.
        use netlist::{Bit, TruthTable};
        let mut c = Circuit::new("loop3");
        let a1 = c.add_input("a1").unwrap();
        let a2 = c.add_input("a2").unwrap();
        let a3 = c.add_input("a3").unwrap();
        let g1 = c.add_gate("g1", TruthTable::xor(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::and(2)).unwrap();
        let g3 = c.add_gate("g3", TruthTable::or(2)).unwrap();
        let po = c.add_output("po").unwrap();
        c.connect(a1, g1, vec![]).unwrap();
        c.connect(g3, g1, vec![Bit::Zero]).unwrap();
        c.connect(a2, g2, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(a3, g3, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(g3, po, vec![]).unwrap();
        let (explained, summary) = explain_and_verify(&c, 2);
        assert!(explained.result.period >= 3);
        assert!(
            summary.cycle_checked,
            "expected a critical-cycle witness on a register-bound loop"
        );
    }
}
