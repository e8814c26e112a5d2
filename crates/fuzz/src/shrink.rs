//! Delta-debugging minimization of failing cases.
//!
//! Given a circuit the oracle rejects, [`shrink`] greedily applies
//! reduction operators and keeps any candidate that (a) is still valid,
//! (b) still fails with the **same verdict kind**, and (c) is strictly
//! smaller under the `(gates + registers, nodes + edges)` measure. The
//! operators, tried in deterministic order each pass:
//!
//! * **drop a primary output** — rebuild without one PO, then prune the
//!   dead cone;
//! * **bypass a gate** — replace `u →[c₁] g →[c₂] v` by `u →[c₁‖c₂] v`
//!   for one chosen fanin pin. Concatenating the register chains keeps
//!   every cycle's weight intact, so a combinational cycle can never
//!   appear (a zero-weight cycle through the new edge would have been a
//!   zero-weight cycle through `g`);
//! * **trim a register** — drop the sink-end FF of a registered edge;
//! * **X-ify an initial value** — replace one defined FF bit with `X`.
//!
//! The loop stops at a fixpoint or when the oracle-evaluation budget is
//! exhausted; the outcome counts the accepted steps. Shrinking re-runs the full oracle per candidate, so it is the
//! expensive half of a failing case — budget accordingly.

use crate::oracle::{run_oracle, CheckKind, OracleConfig};
use netlist::{Bit, Circuit, NodeId};
use std::collections::HashMap;

/// Shrinker limits.
#[derive(Debug, Clone, Copy)]
pub struct ShrinkConfig {
    /// Maximum number of oracle evaluations (candidate judgements).
    pub budget: usize,
}

impl Default for ShrinkConfig {
    fn default() -> ShrinkConfig {
        ShrinkConfig { budget: 160 }
    }
}

/// What the shrinker produced.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized circuit (still failing with the original kind).
    pub circuit: Circuit,
    /// Accepted reduction steps.
    pub steps: usize,
    /// Oracle evaluations spent.
    pub evals: usize,
}

/// The minimization measure, lexicographic: registers count like gates;
/// total size tie-breaks so pure rewires cannot loop; the count of
/// *defined* initial bits comes last so X-ifying initial values is
/// progress once nothing structural shrinks.
fn measure(c: &Circuit) -> (usize, usize, usize) {
    let defined = c
        .edge_ids()
        .flat_map(|e| c.edge(e).ffs().iter())
        .filter(|&&b| b != Bit::X)
        .count();
    (
        c.num_gates() + c.ff_count_total(),
        c.num_nodes() + c.num_edges(),
        defined,
    )
}

/// Minimizes `failing` while preserving a violation of `kind`.
///
/// `failing` must currently fail the oracle with `kind` among its
/// violations; if it does not, it is returned unchanged.
pub fn shrink(
    failing: &Circuit,
    oracle_cfg: &OracleConfig,
    kind: CheckKind,
    cfg: &ShrinkConfig,
) -> ShrinkOutcome {
    shrink_with(failing, |c| run_oracle(c, oracle_cfg).has_kind(kind), cfg)
}

/// Minimizes `failing` while `still_fails` holds: the generic engine
/// behind [`shrink`], with the oracle abstracted into a predicate so
/// tests (and future harnesses) can minimize against any property.
pub fn shrink_with(
    failing: &Circuit,
    still_fails: impl Fn(&Circuit) -> bool,
    cfg: &ShrinkConfig,
) -> ShrinkOutcome {
    let mut current = failing.clone();
    let mut steps = 0usize;
    let mut evals = 0usize;
    'passes: loop {
        let cur_measure = measure(&current);
        for cand in candidates(&current) {
            if evals >= cfg.budget {
                break 'passes;
            }
            if engine::cancel::cancelled() {
                break 'passes;
            }
            if measure(&cand) >= cur_measure {
                continue;
            }
            // A repro must satisfy the generator's invariants: valid and
            // sharing-consistent (a conflict the *shrinker* introduced
            // would fire the initial-state check for the wrong reason).
            if netlist::validate(&cand).is_err() || !cand.sharing_consistent() {
                continue;
            }
            evals += 1;
            if still_fails(&cand) {
                current = cand;
                steps += 1;
                continue 'passes; // restart with the smaller circuit
            }
        }
        break; // full pass without progress: fixpoint
    }
    ShrinkOutcome {
        circuit: current,
        steps,
        evals,
    }
}

/// All single-step reduction candidates, in deterministic order.
fn candidates(c: &Circuit) -> Vec<Circuit> {
    let mut out = Vec::new();
    // 1. Drop each PO (keep at least one).
    if c.outputs().len() > 1 {
        for drop in 0..c.outputs().len() {
            if let Some(cand) = rebuild(c, Some(drop), None) {
                out.push(cand);
            }
        }
    }
    // 2. Bypass each gate through each fanin pin.
    for g in c.gate_ids() {
        for pin in 0..c.node(g).fanin().len() {
            // A self-loop pin cannot serve as the bypass path.
            if c.edge(c.node(g).fanin()[pin]).from() == g {
                continue;
            }
            if let Some(cand) = rebuild(c, None, Some((g, pin))) {
                out.push(cand);
            }
        }
    }
    // 3. Trim the sink-end register of each registered edge.
    for e in c.edge_ids() {
        if c.edge(e).weight() >= 1 {
            let mut cand = c.clone();
            let w = c.edge(e).weight();
            cand.set_ffs(e, &c.edge(e).ffs()[..w - 1]);
            out.push(cand);
        }
    }
    // 4. X-ify each defined initial value (reduces the third measure
    //    component once nothing structural shrinks).
    for e in c.edge_ids() {
        for (i, &b) in c.edge(e).ffs().iter().enumerate() {
            if b != Bit::X {
                let mut cand = c.clone();
                cand.ffs_mut(e)[i] = Bit::X;
                out.push(cand);
            }
        }
    }
    out
}

/// Rebuilds `c` without PO index `drop_po` and/or with gate `bypass.0`
/// removed, its consumers rewired to the driver of fanin pin `bypass.1`
/// (register chains concatenated). Dead logic is pruned. Returns `None`
/// when the rebuild cannot produce a structurally sound circuit.
fn rebuild(
    c: &Circuit,
    drop_po: Option<usize>,
    bypass: Option<(NodeId, usize)>,
) -> Option<Circuit> {
    let bypassed_gate = bypass.map(|(g, _)| g);
    // Resolve a driver through the bypassed gate: returns the effective
    // driver and the register chain standing between it and the gate's
    // former output.
    let resolve = |from: NodeId| -> (NodeId, Vec<Bit>) {
        if Some(from) == bypassed_gate {
            let (g, pin) = bypass.expect("bypassed_gate implies bypass");
            let e = c.node(g).fanin()[pin];
            (c.edge(e).from(), c.edge(e).ffs().to_vec())
        } else {
            (from, Vec::new())
        }
    };

    let mut nc = Circuit::new(c.name());
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    for &pi in c.inputs() {
        map.insert(pi, nc.add_input(c.node(pi).name()).ok()?);
    }
    for g in c.gate_ids() {
        if Some(g) == bypassed_gate {
            continue;
        }
        map.insert(
            g,
            nc.add_gate(c.node(g).name(), c.node(g).function()?.clone())
                .ok()?,
        );
    }
    for (i, &po) in c.outputs().iter().enumerate() {
        if Some(i) == drop_po {
            continue;
        }
        map.insert(po, nc.add_output(c.node(po).name()).ok()?);
    }
    // Reconnect fanins per node, in pin order (pin order is semantic).
    let reconnect = |old: NodeId, nc: &mut Circuit, map: &HashMap<NodeId, NodeId>| -> Option<()> {
        let new = *map.get(&old)?;
        for &e in c.node(old).fanin() {
            let edge = c.edge(e);
            let (drv, prefix) = resolve(edge.from());
            let mut chain = prefix;
            chain.extend_from_slice(edge.ffs());
            nc.connect(*map.get(&drv)?, new, chain).ok()?;
        }
        Some(())
    };
    for g in c.gate_ids() {
        if Some(g) == bypassed_gate {
            continue;
        }
        reconnect(g, &mut nc, &map)?;
    }
    for (i, &po) in c.outputs().iter().enumerate() {
        if Some(i) == drop_po {
            continue;
        }
        reconnect(po, &mut nc, &map)?;
    }
    // Drop the cones that lost their last path to a PO.
    netlist::prune_dead(&nc).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{EquivMode, TruthTable};
    use workloads::{generate_fsm, Encoding, FsmSpec};

    fn base(seed: u64) -> Circuit {
        generate_fsm(&FsmSpec {
            name: format!("s{seed}"),
            states: 5,
            inputs: 2,
            decoded: 1,
            outputs: 2,
            encoding: Encoding::Binary,
            registered_inputs: false,
            seed,
        })
    }

    #[test]
    fn rebuild_identity_is_behaviour_preserving() {
        // No drop, no bypass: the rebuilt circuit (modulo dead-cone
        // pruning) must behave exactly like the original.
        let c = base(3);
        let r = rebuild(&c, None, None).unwrap();
        netlist::validate(&r).unwrap();
        let seq = netlist::random_sequence(c.inputs().len(), 32, 9);
        assert!(
            netlist::sequence_equiv_mode(&c, &r, &seq, EquivMode::Conformance)
                .unwrap()
                .is_equivalent()
        );
    }

    #[test]
    fn bypass_preserves_cycle_weights() {
        // Bypassing any gate must never create a combinational cycle —
        // validate() (which checks that) must pass for every candidate.
        let c = base(4);
        for g in c.gate_ids() {
            for pin in 0..c.node(g).fanin().len() {
                if c.edge(c.node(g).fanin()[pin]).from() == g {
                    continue;
                }
                if let Some(r) = rebuild(&c, None, Some((g, pin))) {
                    netlist::validate(&r).unwrap();
                }
            }
        }
    }

    #[test]
    fn drop_po_reduces_and_stays_valid() {
        let c = base(5);
        assert!(c.outputs().len() > 1);
        let r = rebuild(&c, Some(0), None).unwrap();
        netlist::validate(&r).unwrap();
        assert_eq!(r.outputs().len(), c.outputs().len() - 1);
        assert!(measure(&r) <= measure(&c));
    }

    #[test]
    fn candidates_are_all_structurally_usable() {
        let c = base(6);
        for cand in candidates(&c) {
            // Candidates may fail validation (e.g. a trimmed register
            // closing a combinational cycle); the shrinker filters those.
            // But they must at least be well-formed enough to validate
            // without panicking.
            let _ = netlist::validate(&cand);
        }
    }

    #[test]
    fn shrink_is_a_fixpoint_on_passing_circuits() {
        // A circuit that does not fail with the requested kind comes back
        // unchanged (no candidate can "still fail the same way").
        let mut c = Circuit::new("tiny");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(g, o, vec![Bit::Zero]).unwrap();
        let out = shrink(
            &c,
            &OracleConfig {
                equiv_vectors: 8,
                ..OracleConfig::default()
            },
            CheckKind::Equivalence,
            &ShrinkConfig { budget: 20 },
        );
        assert_eq!(out.steps, 0);
        assert_eq!(out.circuit, c);
    }
}
