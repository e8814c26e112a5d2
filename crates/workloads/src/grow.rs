//! Growing a circuit to a target size and depth.
//!
//! The Table-1 presets must hit the paper's per-circuit gate counts (`N`)
//! and register counts (`F`), and approximate its logic depth. The FSM
//! generator controls `F` exactly but lands below most `N` targets, so
//! [`grow`] inserts additional *live* 2-input gates:
//!
//! * **depth growth** — repeatedly splice a gate into a primary output's
//!   fanin edge (building a chain) until the combinational depth target is
//!   met;
//! * **bulk growth** — splice gates into uniformly random edges, pairing
//!   the split signal with a random PI (always acyclic and PI-reachable).
//!
//! Splicing rewires `u → v` into `u → g(u, pi) → v`, keeping the original
//! register chain on the `g → v` segment; behaviour changes, which is fine
//! for synthetic benchmarks — equivalence is only ever checked between a
//! circuit and its own mapping.

use engine::Rng64;
use netlist::{Circuit, EdgeId, NetlistError, TruthTable};

/// Why [`grow`] rejected its input or output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrowError {
    /// The base circuit has no edges to splice into.
    NoEdges,
    /// The base circuit has no primary inputs to pair spliced gates with.
    NoInputs,
    /// The base circuit — or, defensively, the grown result — failed
    /// [`netlist::validate`](fn@netlist::validate). Growth only ever splices live 2-input gates
    /// into existing edges, so a failure here means the *input* was
    /// already structurally broken.
    Invalid(NetlistError),
}

impl std::fmt::Display for GrowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrowError::NoEdges => write!(f, "grow: base circuit has no edges"),
            GrowError::NoInputs => write!(f, "grow: base circuit has no primary inputs"),
            GrowError::Invalid(e) => write!(f, "grow: circuit invalid: {e}"),
        }
    }
}

impl std::error::Error for GrowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GrowError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for GrowError {
    fn from(e: NetlistError) -> GrowError {
        GrowError::Invalid(e)
    }
}

/// Grows `c` to exactly `target_gates` gates (if it is not already
/// larger), first deepening it to `target_depth`.
///
/// Returns the grown circuit; when `c` already has at least
/// `target_gates` gates it is returned unchanged (no trimming).
///
/// # Errors
///
/// Returns [`GrowError::NoEdges`] / [`GrowError::NoInputs`] for bases
/// that cannot be spliced into, and [`GrowError::Invalid`] when the base
/// (checked up front) or the grown result (checked defensively before
/// returning) fails [`netlist::validate`](fn@netlist::validate) — callers never receive a
/// circuit that would panic downstream.
pub fn grow(
    c: &Circuit,
    target_gates: usize,
    target_depth: u64,
    seed: u64,
) -> Result<Circuit, GrowError> {
    if c.num_edges() == 0 {
        return Err(GrowError::NoEdges);
    }
    if c.inputs().is_empty() {
        return Err(GrowError::NoInputs);
    }
    netlist::validate(c)?;
    let mut rng = Rng64::new(seed ^ 0x6407_17A6_0000_0003);
    let mut out = c.clone();
    let ops: [fn(usize) -> TruthTable; 3] = [TruthTable::and, TruthTable::or, TruthTable::xor];
    let mut counter = 0usize;
    // Phase 1: depth, built as a *braid* in front of a register (the
    // PI→FF next-state path — where forward retiming cannot create
    // registers and general retiming must justify backward moves). A
    // braid keeps ≥ K+1 live strands at every level so K-LUT covering
    // cannot flatten the depth through reconvergence, unlike a plain
    // chain over few PIs.
    let mut depth = out.clock_period()?;
    if depth < target_depth && out.num_gates() < target_gates {
        if let Some(e) = deepest_register_edge(&out) {
            let budget = target_gates - out.num_gates();
            let levels = (target_depth - depth) as usize;
            braid(&mut out, e, levels, budget, &mut counter, &mut rng);
            depth = out.clock_period()?;
        }
        // Chains into PO tails for any remaining depth (rare).
        while out.num_gates() < target_gates && depth < target_depth && !out.outputs().is_empty() {
            let po = out.outputs()[rng.below(out.outputs().len())];
            let e = out.node(po).fanin()[0];
            splice(&mut out, e, ops[rng.below(3)](2), &mut counter, &mut rng);
            depth = out.clock_period()?;
        }
    }
    // Phase 2: bulk. Avoid splicing near the critical path so the depth
    // stays close to the target (arrival times refreshed periodically).
    let mut arrivals = out.arrival_times()?;
    let mut required = required_times(&out);
    let mut since_refresh = 0usize;
    let depth_cap = depth.max(target_depth).saturating_add(1);
    while out.num_gates() < target_gates {
        if since_refresh >= 16 {
            arrivals = out.arrival_times()?;
            required = required_times(&out);
            since_refresh = 0;
        }
        // Estimated period through a splice at e(u, v): the path
        // ..u, g, v.. = arrival(u) + 1 + d(v) + required(v). Choose the
        // cheapest of a small random sample (unknown — freshly spliced —
        // nodes count as deep) to keep the period near the target.
        let cost = |out: &Circuit, arr: &[u64], req: &[u64], e: EdgeId| -> u64 {
            let edge = out.edge(e);
            let a = arr
                .get(edge.from().index())
                .copied()
                .unwrap_or(u64::MAX / 4);
            let (dv, r) = if edge.weight() == 0 {
                (
                    out.node(edge.to()).delay(),
                    req.get(edge.to().index()).copied().unwrap_or(u64::MAX / 4),
                )
            } else {
                (0, 0) // registers terminate the combinational path
            };
            a.saturating_add(1).saturating_add(dv).saturating_add(r)
        };
        let mut best_e = EdgeId(rng.below(out.num_edges()) as u32);
        let mut best_c = cost(&out, &arrivals, &required, best_e);
        for _ in 0..8 {
            if best_c <= depth_cap {
                break;
            }
            let e = EdgeId(rng.below(out.num_edges()) as u32);
            let c2 = cost(&out, &arrivals, &required, e);
            if c2 < best_c {
                best_e = e;
                best_c = c2;
            }
        }
        let src_arrival = arrivals
            .get(out.edge(best_e).from().index())
            .copied()
            .unwrap_or(u64::MAX / 4);
        let g = splice(
            &mut out,
            best_e,
            ops[rng.below(3)](2),
            &mut counter,
            &mut rng,
        );
        // Track the new gate's approximate timing so chains do not build
        // on "unknown" nodes between refreshes.
        while arrivals.len() < g.index() {
            arrivals.push(u64::MAX / 4);
            required.push(u64::MAX / 4);
        }
        arrivals.push(src_arrival.saturating_add(1));
        required.push(u64::MAX / 4);
        since_refresh += 1;
    }
    netlist::validate(&out)?;
    Ok(out)
}

/// Weaves a braid of `levels` levels of 2-input gates in front of edge
/// `e`, using at most `budget` gates. Strand sources are the edge's
/// driver plus nodes safe from combinational cycles (no weight-0 path
/// from `e`'s sink back to them). Width ≥ 6 resists K=5 LUT flattening.
fn braid(
    c: &mut Circuit,
    e: EdgeId,
    levels: usize,
    budget: usize,
    counter: &mut usize,
    rng: &mut Rng64,
) {
    // Width before length: ≥ K+2 strands over distinct signal origins
    // resist K=5 covering (and its time-unrolled variants); a narrower
    // deep braid would collapse into single LUTs.
    let width = 7usize.min(budget / 2).max(3);
    let levels = levels.min(budget.saturating_sub(width) / width).max(1);
    if budget < width * 2 {
        return;
    }
    let u = c.edge(e).from();
    let v = c.edge(e).to();
    // Safe sources: no combinational path from v.
    let mut comb_desc = vec![false; c.num_nodes()];
    comb_desc[v.index()] = true;
    let mut stack = vec![v];
    while let Some(x) = stack.pop() {
        for &fe in c.node(x).fanout() {
            let edge = c.edge(fe);
            if edge.weight() == 0 && !comb_desc[edge.to().index()] {
                comb_desc[edge.to().index()] = true;
                stack.push(edge.to());
            }
        }
    }
    // Strand sources must be *distinct signal origins* — PIs or
    // register-output gates — or K-LUT cones can slice the braid with a
    // handful of register taps despite its width. Other safe gates are a
    // fallback only.
    let is_origin = |x: netlist::NodeId| {
        c.node(x).is_input()
            || (c.node(x).is_gate()
                && !c.node(x).fanin().is_empty()
                && c.node(x).fanin().iter().all(|&fe| c.edge(fe).weight() >= 1))
    };
    let safe = |x: netlist::NodeId| !comb_desc[x.index()] && !c.node(x).is_output() && x != u;
    // PIs go in first: a braid whose support is register-dominated can be
    // time-unrolled by general-retiming mappers (each extra loop traversal
    // reuses the same taps); PI signals at distinct time steps count as
    // distinct LUT inputs and block that.
    let mut pi_pool: Vec<netlist::NodeId> = c
        .node_ids()
        .filter(|&x| safe(x) && c.node(x).is_input())
        .collect();
    let mut origin_pool: Vec<netlist::NodeId> = c
        .node_ids()
        .filter(|&x| safe(x) && !c.node(x).is_input() && is_origin(x))
        .collect();
    let mut other_pool: Vec<netlist::NodeId> =
        c.node_ids().filter(|&x| safe(x) && !is_origin(x)).collect();
    let mut strands: Vec<netlist::NodeId> = vec![u];
    while strands.len() < width {
        let pool = if !pi_pool.is_empty() {
            &mut pi_pool
        } else if !origin_pool.is_empty() {
            &mut origin_pool
        } else if !other_pool.is_empty() {
            &mut other_pool
        } else {
            strands.push(u);
            continue;
        };
        let i = rng.below(pool.len());
        strands.push(pool.swap_remove(i));
    }
    let ops: [fn(usize) -> TruthTable; 3] = [TruthTable::and, TruthTable::or, TruthTable::xor];
    for level in 0..levels {
        let mut next = Vec::with_capacity(width);
        for i in 0..width {
            *counter += 1;
            let mut name = format!("braid{counter}");
            while c.find(&name).is_some() {
                *counter += 1;
                name = format!("braid{counter}");
            }
            let g = c.add_gate(name, ops[rng.below(3)](2)).expect("unique");
            let a = strands[i];
            let b = strands[(i + 1 + level % (width - 1)) % width];
            c.connect(a, g, vec![]).expect("arity");
            c.connect(b, g, vec![]).expect("arity");
            next.push(g);
        }
        strands = next;
    }
    // Collapse the strands into the register edge.
    let mut acc = strands;
    while acc.len() > 1 {
        let mut next = Vec::with_capacity(acc.len().div_ceil(2));
        let mut it = acc.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => {
                    *counter += 1;
                    let mut name = format!("braid{counter}");
                    while c.find(&name).is_some() {
                        *counter += 1;
                        name = format!("braid{counter}");
                    }
                    let g = c.add_gate(name, TruthTable::xor(2)).expect("unique");
                    c.connect(a, g, vec![]).expect("arity");
                    c.connect(b, g, vec![]).expect("arity");
                    next.push(g);
                }
                None => next.push(a),
            }
        }
        acc = next;
    }
    c.rewire_from(e, acc[0]).expect("gate may drive");
}

/// Longest combinational delay strictly downstream of each node.
fn required_times(c: &Circuit) -> Vec<u64> {
    let order = match c.comb_topo_order() {
        Ok(o) => o,
        Err(_) => return vec![0; c.num_nodes()],
    };
    let mut req = vec![0u64; c.num_nodes()];
    for v in order.into_iter().rev() {
        let mut best = 0u64;
        for &e in c.node(v).fanout() {
            let edge = c.edge(e);
            if edge.weight() == 0 {
                let t = edge.to();
                best = best.max(c.node(t).delay() + req[t.index()]);
            }
        }
        req[v.index()] = best;
    }
    req
}

/// The register-carrying edge whose source has the largest combinational
/// arrival time (the deepest pre-register path).
fn deepest_register_edge(c: &Circuit) -> Option<EdgeId> {
    let arrival = c.arrival_times().ok()?;
    c.edge_ids()
        .filter(|&e| c.edge(e).weight() >= 1)
        .max_by_key(|&e| arrival[c.edge(e).from().index()])
}

/// Splices a new gate into edge `e`: `u → g(u, random PI) → v`, with the
/// original register chain staying on the `g → v` segment. Returns the
/// new gate.
fn splice(
    c: &mut Circuit,
    e: EdgeId,
    tt: TruthTable,
    counter: &mut usize,
    rng: &mut Rng64,
) -> netlist::NodeId {
    let u = c.edge(e).from();
    let pi = c.inputs()[rng.below(c.inputs().len())];
    *counter += 1;
    let mut name = format!("grown{counter}");
    while c.find(&name).is_some() {
        *counter += 1;
        name = format!("grown{counter}");
    }
    let g = c.add_gate(name, tt).expect("unique name");
    c.connect(u, g, vec![]).expect("arity 2");
    c.connect(pi, g, vec![]).expect("arity 2");
    c.rewire_from(e, g).expect("gate may drive");
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::{generate_fsm, Encoding, FsmSpec};

    fn base() -> Circuit {
        generate_fsm(&FsmSpec {
            name: "base".into(),
            states: 5,
            inputs: 3,
            decoded: 2,
            outputs: 2,
            encoding: Encoding::OneHot,
            registered_inputs: false,
            seed: 9,
        })
    }

    #[test]
    fn hits_exact_gate_target() {
        let c = base();
        let start = c.num_gates();
        let grown = grow(&c, start + 40, 4, 1).unwrap();
        assert_eq!(grown.num_gates(), start + 40);
        netlist::validate(&grown).unwrap();
        assert_eq!(grown.ff_count_shared(), c.ff_count_shared());
    }

    #[test]
    fn reaches_depth_target() {
        // Braided depth costs ~6 gates per level; give it enough budget.
        let c = base();
        let grown = grow(&c, c.num_gates() + 160, 20, 2).unwrap();
        assert!(grown.clock_period().unwrap() >= 20);
        netlist::validate(&grown).unwrap();
    }

    #[test]
    fn no_shrink_when_already_big() {
        let c = base();
        let same = grow(&c, 1, 1, 3).unwrap();
        assert_eq!(same.num_gates(), c.num_gates());
    }

    #[test]
    fn deterministic() {
        let c = base();
        let a = grow(&c, c.num_gates() + 25, 8, 4).unwrap();
        let b = grow(&c, c.num_gates() + 25, 8, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stays_two_bounded() {
        let c = base();
        let grown = grow(&c, c.num_gates() + 30, 6, 5).unwrap();
        assert!(grown.max_fanin() <= 2);
    }

    #[test]
    fn register_chains_preserved() {
        let c = base();
        let grown = grow(&c, c.num_gates() + 50, 10, 6).unwrap();
        assert_eq!(grown.ff_count_total(), c.ff_count_total());
    }

    #[test]
    fn rejects_edgeless_base() {
        let mut c = Circuit::new("empty");
        c.add_input("a").unwrap();
        assert!(matches!(grow(&c, 10, 2, 1), Err(GrowError::NoEdges)));
    }

    #[test]
    fn rejects_inputless_base() {
        // A self-looping registered gate: edges exist but no PI to pair
        // spliced gates with.
        let mut c = Circuit::new("loop");
        let g = c.add_gate("g", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(g, g, vec![netlist::Bit::Zero]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        assert!(matches!(grow(&c, 10, 2, 1), Err(GrowError::NoInputs)));
    }

    #[test]
    fn rejects_invalid_base() {
        // An unconnected gate fails `netlist::validate`; grow must surface
        // that as a typed error instead of panicking mid-splice.
        let mut c = Circuit::new("broken");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap(); // missing second fanin
        c.connect(g, o, vec![]).unwrap();
        match grow(&c, 10, 2, 1) {
            Err(GrowError::Invalid(_)) => {}
            other => panic!("expected GrowError::Invalid, got {other:?}"),
        }
    }

    #[test]
    fn grow_error_displays() {
        assert!(GrowError::NoEdges.to_string().contains("no edges"));
        assert!(GrowError::NoInputs
            .to_string()
            .contains("no primary inputs"));
        let e = GrowError::from(netlist::NetlistError::UnconnectedGate("g".into()));
        assert!(e.to_string().contains("unconnected"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
