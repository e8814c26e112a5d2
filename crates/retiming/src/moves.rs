//! Applying a retiming as a sequence of atomic register moves, computing
//! the equivalent initial state as it goes.
//!
//! Figure 1 of the paper: moving a register **forward** across a gate gives
//! the new register the gate's output under the old registers' values — one
//! three-valued evaluation (always possible, linear time, Touati & Brayton
//! style). Moving a register **backward** requires *justifying* an input
//! vector that produces the old register's value — a satisfiability query
//! that may fail.
//!
//! [`apply_retiming`] decomposes any legal retiming into such unit moves.
//! A greedy maximal schedule cannot deadlock on a legal retiming: if every
//! pending node were blocked, following blocked fanins (or fanouts) would
//! exhibit a zero-weight cycle, which cannot exist because cycle weights
//! are retiming-invariant and combinational cycles are excluded.

use crate::error::RetimingError;
use crate::spec::Retiming;
use netlist::{Bit, Circuit, NodeId};

/// Statistics of one retiming application.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoveStats {
    /// Number of forward unit moves performed.
    pub forward_moves: usize,
    /// Number of backward unit moves performed (each needed justification).
    pub backward_moves: usize,
}

/// Applies a legal retiming to `c`, producing the retimed circuit with its
/// equivalent initial state.
///
/// Forward moves (`r(v) < 0`) are resolved by simulation and always
/// succeed. Backward moves (`r(v) > 0`) are resolved by truth-table
/// justification and can fail — the NP-hard part of the problem the paper
/// avoids by mapping with *forward* retiming only.
///
/// # Errors
///
/// * Propagates [`Retiming::validate`] errors.
/// * [`RetimingError::ConflictingFanoutValues`] /
///   [`RetimingError::NotJustifiable`] when a backward move cannot compute
///   an initial state.
pub fn apply_retiming(c: &Circuit, r: &Retiming) -> Result<(Circuit, MoveStats), RetimingError> {
    r.validate(c)?;
    let _span = engine::trace::span("apply_retiming");
    let mut out = c.clone();
    let mut remaining: Vec<i64> = r.values().to_vec();
    let mut stats = MoveStats::default();
    let total_pending = |rem: &[i64]| rem.iter().map(|v| v.unsigned_abs()).sum::<u64>();

    loop {
        let mut progressed = false;
        for v in c.node_ids() {
            if !c.node(v).is_gate() {
                continue;
            }
            while remaining[v.index()] < 0 && can_move_forward(&out, v) {
                move_forward(&mut out, v);
                remaining[v.index()] += 1;
                stats.forward_moves += 1;
                engine::telemetry::count(engine::telemetry::Counter::ForwardMoves, 1);
                progressed = true;
            }
            while remaining[v.index()] > 0 {
                match try_move_backward(&mut out, v)? {
                    true => {
                        remaining[v.index()] -= 1;
                        stats.backward_moves += 1;
                        engine::telemetry::count(engine::telemetry::Counter::BackwardMoves, 1);
                        progressed = true;
                    }
                    false => break,
                }
            }
        }
        if total_pending(&remaining) == 0 {
            return Ok((out, stats));
        }
        if !progressed {
            return Err(RetimingError::Stuck {
                pending: remaining.iter().filter(|&&x| x != 0).count(),
            });
        }
    }
}

/// Applies a **forward-only** retiming (`r(v) ≤ 0` everywhere), which is
/// guaranteed to succeed on any legal retiming.
///
/// # Errors
///
/// Propagates validation errors; also rejects retimings with positive
/// values.
pub fn apply_forward_retiming(
    c: &Circuit,
    r: &Retiming,
) -> Result<(Circuit, MoveStats), RetimingError> {
    if !r.is_forward() {
        let bad = c
            .node_ids()
            .find(|&v| r.get(v) > 0)
            .expect("some positive value");
        return Err(RetimingError::NonZeroBoundary {
            node: c.node(bad).name().to_string(),
            r: r.get(bad),
        });
    }
    apply_retiming(c, r)
}

fn can_move_forward(c: &Circuit, v: NodeId) -> bool {
    c.node(v).fanin().iter().all(|&e| c.edge(e).weight() >= 1)
}

/// One forward unit move: consume the sink-end register of every fanin
/// edge, evaluate the gate on their values, emit that value as a new
/// source-end register on every fanout edge.
fn move_forward(c: &mut Circuit, v: NodeId) {
    let fanin: Vec<netlist::EdgeId> = c.node(v).fanin().to_vec();
    let fanout: Vec<netlist::EdgeId> = c.node(v).fanout().to_vec();
    let mut vals = Vec::with_capacity(fanin.len());
    for &e in &fanin {
        let chain = c.ffs_mut(e);
        vals.push(chain.pop().expect("can_move_forward checked weights"));
    }
    let tt = c.node(v).function().expect("gate").clone();
    let o = tt.eval3(&vals);
    for &e in &fanout {
        // Self-loops: the fanin pop above may alias this edge; inserting at
        // the front is still correct (the popped FF was the sink-end one).
        c.ffs_mut(e).insert(0, o);
    }
}

/// One backward unit move: consume the source-end register of every fanout
/// edge (their values must agree), justify an input vector through the
/// gate, and emit those values as sink-end registers on the fanin edges.
///
/// Returns `Ok(false)` when the node currently has a zero-weight fanout
/// edge (move not possible *yet*).
fn try_move_backward(c: &mut Circuit, v: NodeId) -> Result<bool, RetimingError> {
    let fanout: Vec<netlist::EdgeId> = c.node(v).fanout().to_vec();
    if fanout.iter().any(|&e| c.edge(e).weight() == 0) {
        return Ok(false);
    }
    // Merge the source-end values of all fanout chains.
    let mut target = Bit::X;
    for &e in &fanout {
        let front = c.edge(e).ffs()[0];
        target = target
            .merge(front)
            .ok_or_else(|| RetimingError::ConflictingFanoutValues {
                node: c.node(v).name().to_string(),
            })?;
    }
    let tt = c.node(v).function().expect("gate").clone();
    let justified: Vec<Bit> = if target == Bit::X {
        vec![Bit::X; tt.num_inputs()]
    } else {
        tt.justify(target)
            .ok_or_else(|| RetimingError::NotJustifiable {
                node: c.node(v).name().to_string(),
                target,
            })?
    };
    for &e in &fanout {
        c.ffs_mut(e).remove(0);
    }
    let fanin: Vec<netlist::EdgeId> = c.node(v).fanin().to_vec();
    for (&e, &j) in fanin.iter().zip(&justified) {
        c.ffs_mut(e).push(j);
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{exhaustive_equiv, TruthTable};

    /// a,b -> AND (FFs on both inputs, init 1/0) -> o
    fn and_with_input_ffs() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g = c.add_gate("g", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![Bit::One]).unwrap();
        c.connect(b, g, vec![Bit::Zero]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        c
    }

    #[test]
    fn forward_move_simulates_gate() {
        let c = and_with_input_ffs();
        let mut r = Retiming::zero(&c);
        r.set(c.find("g").unwrap(), -1);
        let (rc, stats) = apply_forward_retiming(&c, &r).unwrap();
        assert_eq!(stats.forward_moves, 1);
        assert_eq!(stats.backward_moves, 0);
        // The FF moved to the output with value AND(1, 0) = 0.
        let o_edge = rc.node(rc.find("o").unwrap()).fanin()[0];
        assert_eq!(rc.edge(o_edge).ffs(), &[Bit::Zero]);
        assert!(exhaustive_equiv(&c, &rc, 4).unwrap().is_equivalent());
    }

    #[test]
    fn backward_move_justifies() {
        // Dual: AND with FF on output (init 1) moved back to the inputs.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g = c.add_gate("g", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(b, g, vec![]).unwrap();
        c.connect(g, o, vec![Bit::One]).unwrap();
        let mut r = Retiming::zero(&c);
        r.set(g, 1);
        let (rc, stats) = apply_retiming(&c, &r).unwrap();
        assert_eq!(stats.backward_moves, 1);
        // AND output 1 forces both inputs to 1.
        for &e in rc.node(rc.find("g").unwrap()).fanin() {
            assert_eq!(rc.edge(e).ffs(), &[Bit::One]);
        }
        assert!(exhaustive_equiv(&c, &rc, 4).unwrap().is_equivalent());
    }

    #[test]
    fn backward_zero_through_and_uses_x() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g = c.add_gate("g", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(b, g, vec![]).unwrap();
        c.connect(g, o, vec![Bit::Zero]).unwrap();
        let mut r = Retiming::zero(&c);
        r.set(g, 1);
        let (rc, _) = apply_retiming(&c, &r).unwrap();
        // One input 0, the other X — and the circuits still conform.
        let vals: Vec<Bit> = rc
            .node(rc.find("g").unwrap())
            .fanin()
            .iter()
            .map(|&e| rc.edge(e).ffs()[0])
            .collect();
        assert!(vals.contains(&Bit::Zero));
        assert!(exhaustive_equiv(&c, &rc, 4).unwrap().is_equivalent());
    }

    #[test]
    fn backward_through_xor_infeasible_target_never_happens_but_constant_does() {
        // Justifying 1 through a constant-0 gate must fail.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::const_zero(1)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(g, o, vec![Bit::One]).unwrap();
        let mut r = Retiming::zero(&c);
        r.set(g, 1);
        assert!(matches!(
            apply_retiming(&c, &r),
            Err(RetimingError::NotJustifiable { .. })
        ));
    }

    #[test]
    fn conflicting_fanout_values_fail_backward() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::buf()).unwrap();
        let h1 = c.add_gate("h1", TruthTable::buf()).unwrap();
        let h2 = c.add_gate("h2", TruthTable::buf()).unwrap();
        let o1 = c.add_output("o1").unwrap();
        let o2 = c.add_output("o2").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(g, h1, vec![Bit::Zero]).unwrap();
        c.connect(g, h2, vec![Bit::One]).unwrap();
        c.connect(h1, o1, vec![]).unwrap();
        c.connect(h2, o2, vec![]).unwrap();
        let mut r = Retiming::zero(&c);
        r.set(g, 1);
        assert!(matches!(
            apply_retiming(&c, &r),
            Err(RetimingError::ConflictingFanoutValues { .. })
        ));
    }

    #[test]
    fn multi_step_forward_through_chain() {
        // Two FFs pulled through two gates; requires ordered unit moves.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![Bit::Zero, Bit::One]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g2, o, vec![]).unwrap();
        let mut r = Retiming::zero(&c);
        r.set(g1, -2);
        r.set(g2, -2);
        let (rc, stats) = apply_forward_retiming(&c, &r).unwrap();
        assert_eq!(stats.forward_moves, 4);
        let o_edge = rc.node(rc.find("o").unwrap()).fanin()[0];
        // not(not(x)) = x: values arrive in order [0, 1] at the output.
        assert_eq!(rc.edge(o_edge).ffs(), &[Bit::Zero, Bit::One]);
        assert!(exhaustive_equiv(&c, &rc, 5).unwrap().is_equivalent());
    }

    #[test]
    fn forward_through_reconvergence() {
        // Diamond with FFs on both branches; g merges with XOR.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let u = c.add_gate("u", TruthTable::buf()).unwrap();
        let p = c.add_gate("p", TruthTable::not()).unwrap();
        let q = c.add_gate("q", TruthTable::buf()).unwrap();
        let g = c.add_gate("g", TruthTable::xor(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, u, vec![]).unwrap();
        c.connect(u, p, vec![Bit::One]).unwrap();
        c.connect(u, q, vec![Bit::One]).unwrap();
        c.connect(p, g, vec![]).unwrap();
        c.connect(q, g, vec![]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        let mut r = Retiming::zero(&c);
        r.set(p, -1);
        r.set(q, -1);
        r.set(g, -1);
        let (rc, _) = apply_forward_retiming(&c, &r).unwrap();
        let o_edge = rc.node(rc.find("o").unwrap()).fanin()[0];
        // xor(not(1), buf(1)) = xor(0, 1) = 1.
        assert_eq!(rc.edge(o_edge).ffs(), &[Bit::One]);
        assert!(exhaustive_equiv(&c, &rc, 5).unwrap().is_equivalent());
    }

    #[test]
    fn forward_around_self_loop() {
        // Gate with a self-loop FF: moving forward re-inserts on the loop.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::xor(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![Bit::One]).unwrap();
        c.connect(g, g, vec![Bit::Zero]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        let mut r = Retiming::zero(&c);
        r.set(g, -1);
        let (rc, _) = apply_forward_retiming(&c, &r).unwrap();
        // Self-loop keeps weight 1; output edge gains one FF.
        assert!(exhaustive_equiv(&c, &rc, 6).unwrap().is_equivalent());
        assert_eq!(rc.clock_period().unwrap(), 1);
    }

    #[test]
    fn x_target_backward_needs_no_justification() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::const_zero(1)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(g, o, vec![Bit::X]).unwrap();
        let mut r = Retiming::zero(&c);
        r.set(g, 1);
        let (rc, stats) = apply_retiming(&c, &r).unwrap();
        assert_eq!(stats.backward_moves, 1);
        assert!(exhaustive_equiv(&c, &rc, 4).unwrap().is_equivalent());
    }

    #[test]
    fn identity_retiming_is_noop() {
        let c = and_with_input_ffs();
        let (rc, stats) = apply_retiming(&c, &Retiming::zero(&c)).unwrap();
        assert_eq!(stats, MoveStats::default());
        assert_eq!(rc.ff_count_total(), c.ff_count_total());
    }
}
