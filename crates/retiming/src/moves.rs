//! Applying a retiming while computing the equivalent initial state.
//!
//! Figure 1 of the paper: moving a register **forward** across a gate gives
//! the new register the gate's output under the old registers' values — one
//! three-valued evaluation (always possible, linear time, Touati & Brayton
//! style). Moving a register **backward** requires *justifying* an input
//! vector that produces the old register's value — a satisfiability query
//! that may fail.
//!
//! A forward retiming needs no move order: [`ForwardValues`] computes every
//! value the forward moves would emit in one simulation pass, and
//! [`apply_forward_retiming`] reads the retimed chains off it.
//!
//! [`apply_retiming`] decomposes any legal retiming, backward moves
//! included, into unit moves. A greedy maximal schedule cannot deadlock on
//! a legal retiming: if every pending node were blocked, following blocked
//! fanins (or fanouts) would exhibit a zero-weight cycle, which cannot
//! exist because cycle weights are retiming-invariant and combinational
//! cycles are excluded.

use crate::error::RetimingError;
use crate::spec::Retiming;
use netlist::{Bit, Circuit, EdgeId, NodeId};

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
/// guaranteed to succeed on any legal retiming: node `v` makes `−r(v)`
/// forward moves, and [`ForwardValues`] supplies the values they emit.
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
    r.validate(c)?;
    let _span = engine::trace::span("apply_retiming");
    let moves: Vec<u64> = r.values().iter().map(|&x| x.unsigned_abs()).collect();
    let values = ForwardValues::simulate(c, &moves)?;
    let mut out = c.clone();
    for e in c.edge_ids() {
        let (from, to) = (
            moves[c.edge(e).from().index()],
            moves[c.edge(e).to().index()],
        );
        if from + to > 0 {
            *out.ffs_mut(e) = values.chain(c, e, from, to).expect("validated retiming");
        }
    }
    let forward_moves = moves.iter().sum::<u64>();
    engine::telemetry::count(engine::telemetry::Counter::ForwardMoves, forward_moves);
    let stats = MoveStats {
        forward_moves: forward_moves as usize,
        backward_moves: 0,
    };
    Ok((out, stats))
}

/// Every value that forward register moves emit, found by one evaluation
/// pass instead of move by move.
///
/// A forward move does not depend on move order. The `k`-th move at node
/// `u` emits `V(u, k)`: `u`'s value at cycle `k` of a three-valued
/// simulation from the initial state. At cycle `k`, a fanin edge `p → u`
/// of `w` registers with initial chain `B` (source end first) reads
/// `B[w − 1 − k]` while `k < w`, and `V(p, k − w)` after. So after `m_u`
/// moves at every node, edge `u → x` carries `[V(u, m_u − 1), …, V(u, 0)]
/// ++ B`, cut to its first `w + m_u − m_x` registers ([`Self::chain`]).
#[derive(Debug, Clone)]
pub struct ForwardValues {
    /// Per node and one past the last: where its values start in `vals`;
    /// `V(u, k)` sits at `off[u] + k`.
    off: Vec<usize>,
    vals: Vec<Bit>,
}

impl ForwardValues {
    /// `V(u, k)` for every node `u` and every `k < depth[u]`, one cycle at
    /// a time in combinational topological order over the nodes with
    /// `depth[u] > k`. Only gates may have a nonzero depth.
    ///
    /// With `depth[u]` the number of moves at `u` of a legal forward
    /// retiming, every value read exists: a fanin edge `p → u` of `w`
    /// registers keeps `w + depth[p] − depth[u] ≥ 0` registers. A depth
    /// that breaks this makes the pass panic on the value it lacks.
    ///
    /// # Errors
    ///
    /// [`RetimingError::Netlist`] when `c` has a combinational cycle.
    pub fn simulate(c: &Circuit, depth: &[u64]) -> Result<ForwardValues, RetimingError> {
        let mut off = Vec::with_capacity(depth.len() + 1);
        off.push(0);
        for &d in depth {
            off.push(off[off.len() - 1] + d as usize);
        }
        let mut order = c.comb_topo_order()?;
        order.retain(|v| depth[v.index()] > 0);
        let mut vals = vec![Bit::X; off[depth.len()]];
        let mut inputs = Vec::new();
        let mut k = 0usize;
        while !order.is_empty() {
            for &u in &order {
                inputs.clear();
                for &e in c.node(u).fanin() {
                    let edge = c.edge(e);
                    let w = edge.weight();
                    inputs.push(if k < w {
                        edge.ffs()[w - 1 - k]
                    } else {
                        let p = edge.from().index();
                        vals[off[p]..off[p + 1]][k - w]
                    });
                }
                let f = c.node(u).function().expect("only gates move");
                vals[off[u.index()] + k] = f.eval3(&inputs);
            }
            k += 1;
            order.retain(|&u| depth[u.index()] > k as u64);
        }
        Ok(ForwardValues { off, vals })
    }

    /// The register chain of edge `e` after `m_from` forward moves at its
    /// source and `m_to` at its sink, source end first; `None` when that
    /// leaves fewer than zero registers. `m_from` is at most the source's
    /// depth.
    pub fn chain(&self, c: &Circuit, e: EdgeId, m_from: u64, m_to: u64) -> Option<Vec<Bit>> {
        let edge = c.edge(e);
        let len = (edge.weight() as u64 + m_from).checked_sub(m_to)? as usize;
        let u = edge.from().index();
        let emitted = self.vals[self.off[u]..self.off[u + 1]][..m_from as usize].iter();
        Some(emitted.rev().chain(edge.ffs()).copied().take(len).collect())
    }
}

fn can_move_forward(c: &Circuit, v: NodeId) -> bool {
    c.node(v).fanin().iter().all(|&e| c.edge(e).weight() >= 1)
}

/// One forward unit move: consume the sink-end register of every fanin
/// edge, evaluate the gate on their values, emit that value as a new
/// source-end register on every fanout edge.
fn move_forward(c: &mut Circuit, v: NodeId) {
    let fanin: Vec<EdgeId> = c.node(v).fanin().to_vec();
    let fanout: Vec<EdgeId> = c.node(v).fanout().to_vec();
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
    let fanout: Vec<EdgeId> = c.node(v).fanout().to_vec();
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
    let fanin: Vec<EdgeId> = c.node(v).fanin().to_vec();
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

    /// Three PIs and `gates` gates of one to three fanins. A fanin is a
    /// zero-weight edge from a PI or an earlier gate, or, half the time, a
    /// chain of one to three random 0/1/X registers from any node, the
    /// gate itself included. The last two gates drive POs.
    fn random_circuit(rng: &mut engine::Rng64, gates: usize) -> Circuit {
        let mut c = Circuit::new("rand");
        let mut nodes: Vec<NodeId> = (0..3)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        let first_gate = nodes.len();
        for i in 0..gates {
            let arity = rng.range_usize(1, 4);
            let tt = TruthTable::from_fn(arity, |_| rng.chance(0.5));
            nodes.push(c.add_gate(format!("g{i}"), tt).unwrap());
        }
        for g in first_gate..nodes.len() {
            for _ in 0..c.node(nodes[g]).function().unwrap().num_inputs() {
                let (src, w) = if rng.chance(0.5) {
                    (nodes[rng.below(nodes.len())], rng.range_usize(1, 4))
                } else {
                    (nodes[rng.below(g)], 0)
                };
                let chain = (0..w)
                    .map(|_| [Bit::Zero, Bit::One, Bit::X][rng.below(3)])
                    .collect();
                c.connect(src, nodes[g], chain).unwrap();
            }
        }
        for (i, &g) in nodes[nodes.len() - 2..].iter().enumerate() {
            let o = c.add_output(format!("o{i}")).unwrap();
            c.connect(g, o, vec![Bit::Zero; i]).unwrap();
        }
        c
    }

    /// A legal forward retiming: random unit moves at gates whose fanin
    /// edges all still carry a register.
    fn random_forward_retiming(c: &Circuit, rng: &mut engine::Rng64) -> Retiming {
        let gates: Vec<NodeId> = c.gate_ids().collect();
        let mut r = Retiming::zero(c);
        for _ in 0..4 * gates.len() {
            let v = gates[rng.below(gates.len())];
            if c.node(v)
                .fanin()
                .iter()
                .all(|&e| r.retimed_weight(c, e) >= 1)
            {
                r.set(v, r.get(v) - 1);
            }
        }
        r
    }

    /// The one-pass kernel against the unit-move oracle: identical chains
    /// on every edge and identical move counts on legal forward
    /// retimings, the oracle's errors on illegal ones, and the positive-
    /// value rejection on retimings that move a register backward.
    #[test]
    fn one_pass_kernel_matches_unit_moves() {
        let mut rng = engine::Rng64::new(26);
        let (mut self_loops, mut x_bits, mut pi_fed, mut long_lags) = (0, 0, 0, 0);
        for case in 0..300 {
            let gates = rng.range_usize(2, 9);
            let c = random_circuit(&mut rng, gates);
            let r = random_forward_retiming(&c, &mut rng);
            for e in c.edge_ids() {
                let edge = c.edge(e);
                self_loops += usize::from(edge.from() == edge.to());
                x_bits += edge.ffs().iter().filter(|&&b| b == Bit::X).count();
                let moved = r.get(edge.to()) < 0;
                pi_fed += usize::from(moved && c.node(edge.from()).is_input());
                long_lags += usize::from(r.get(edge.to()).unsigned_abs() > edge.weight() as u64);
            }
            let (want, want_stats) = apply_retiming(&c, &r).unwrap();
            let (got, got_stats) = apply_forward_retiming(&c, &r).unwrap();
            assert_eq!(got_stats, want_stats, "case {case}");
            for e in c.edge_ids() {
                assert_eq!(got.edge(e).ffs(), want.edge(e).ffs(), "case {case}");
            }

            // Illegal: random lags that ignore the edge weights.
            let mut bad = Retiming::zero(&c);
            for v in c.gate_ids() {
                bad.set(v, -rng.range_i64(0, 4));
            }
            match (apply_retiming(&c, &bad), apply_forward_retiming(&c, &bad)) {
                (Ok((want, want_stats)), Ok((got, got_stats))) => {
                    assert_eq!(got_stats, want_stats, "case {case}");
                    for e in c.edge_ids() {
                        assert_eq!(got.edge(e).ffs(), want.edge(e).ffs(), "case {case}");
                    }
                }
                (want, got) => assert_eq!(got.err(), want.err(), "case {case}"),
            }

            // Positive: rejected before validation, naming the first such node.
            let v = c.gate_ids().nth(rng.below(c.num_gates())).unwrap();
            let mut up = r.clone();
            up.set(v, 1);
            let first = c.node_ids().find(|&u| up.get(u) > 0).unwrap();
            assert_eq!(
                apply_forward_retiming(&c, &up).err(),
                Some(RetimingError::NonZeroBoundary {
                    node: c.node(first).name().to_string(),
                    r: 1,
                }),
                "case {case}"
            );
        }
        assert!(self_loops > 0 && x_bits > 0 && pi_fed > 0 && long_lags > 0);
    }

    #[test]
    fn identity_retiming_is_noop() {
        let c = and_with_input_ffs();
        let (rc, stats) = apply_retiming(&c, &Retiming::zero(&c)).unwrap();
        assert_eq!(stats, MoveStats::default());
        assert_eq!(rc.ff_count_total(), c.ff_count_total());
    }
}
