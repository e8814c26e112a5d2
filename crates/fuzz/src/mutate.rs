//! Structural mutation operators (apply–validate–revert).
//!
//! Each operator builds its candidate on a clone and commits only when
//! [`netlist::validate`](fn@netlist::validate) accepts the result, so a mutated case is always
//! mappable. Operators never need to *preserve behaviour* — the oracle
//! compares each mapped result against the mutated source itself — but
//! [`retime_forward`] does preserve it exactly (it is the paper's forward
//! register move with the Touati–Brayton initial-state update), which
//! makes it a strong structural diversifier: it shifts where registers
//! sit relative to the logic the mappers must cut through.

use engine::Rng64;
use netlist::{Bit, Circuit, EdgeId, NodeId, TruthTable};

/// Applies one randomly chosen operator; returns `true` when a mutation
/// was committed. Operators that find no applicable site are no-ops.
pub fn mutate_random(c: &mut Circuit, rng: &mut Rng64) -> bool {
    match rng.below(5) {
        0 => insert_gate(c, rng),
        1 => rewire_fanin(c, rng),
        2 => retime_forward(c, rng),
        3 => flip_init(c, rng),
        _ => blur_init(c, rng),
    }
}

/// Unique gate name with the given prefix.
fn fresh_name(c: &Circuit, prefix: &str, counter: &mut usize) -> String {
    loop {
        *counter += 1;
        let name = format!("{prefix}{counter}");
        if c.find(&name).is_none() {
            return name;
        }
    }
}

/// Splices a new 2-input gate into a random edge: `u → g(u, pi) → v`,
/// register chain staying on the `g → v` segment (the same always-acyclic
/// construction as `workloads::grow`).
pub fn insert_gate(c: &mut Circuit, rng: &mut Rng64) -> bool {
    if c.num_edges() == 0 || c.inputs().is_empty() {
        return false;
    }
    let mut cand = c.clone();
    let e = EdgeId(rng.below(cand.num_edges()) as u32);
    let u = cand.edge(e).from();
    let pi = cand.inputs()[rng.below(cand.inputs().len())];
    let ops: [fn(usize) -> TruthTable; 3] = [TruthTable::and, TruthTable::or, TruthTable::xor];
    let mut counter = rng.below(1 << 20);
    let name = fresh_name(&cand, "fz", &mut counter);
    let g = match cand.add_gate(name, ops[rng.below(3)](2)) {
        Ok(g) => g,
        Err(_) => return false,
    };
    if cand.connect(u, g, vec![]).is_err() || cand.connect(pi, g, vec![]).is_err() {
        return false;
    }
    if cand.rewire_from(e, g).is_err() {
        return false;
    }
    if netlist::validate(&cand).is_err() || !cand.sharing_consistent() {
        return false;
    }
    *c = cand;
    true
}

/// Rewires one fanin edge to a different driver ("merge": the sink now
/// shares a driver with some other part of the circuit; the old driver's
/// cone may go dead). Combinational-cycle safety: a weight-0 edge may
/// only be rewired to a node with no combinational path from the sink.
pub fn rewire_fanin(c: &mut Circuit, rng: &mut Rng64) -> bool {
    if c.num_edges() == 0 {
        return false;
    }
    let e = EdgeId(rng.below(c.num_edges()) as u32);
    let v = c.edge(e).to();
    let old_from = c.edge(e).from();
    // Candidate drivers: any PI or gate that is not the current driver.
    let safe_from_cycle: Vec<NodeId> = {
        let blocked = if c.edge(e).weight() == 0 {
            comb_descendants(c, v)
        } else {
            // A registered edge cannot close a combinational cycle.
            vec![false; c.num_nodes()]
        };
        c.node_ids()
            .filter(|&x| {
                !c.node(x).is_output() && x != old_from && !blocked[x.index()] && {
                    let n = c.node(x);
                    n.is_input() || n.is_gate()
                }
            })
            .collect()
    };
    if safe_from_cycle.is_empty() {
        return false;
    }
    let new_from = safe_from_cycle[rng.below(safe_from_cycle.len())];
    let mut cand = c.clone();
    if cand.rewire_from(e, new_from).is_err() {
        return false;
    }
    // The moved chain now shares registers with `new_from`'s other
    // fanouts; drop the mutation if their initial values conflict.
    if netlist::validate(&cand).is_err() || !cand.sharing_consistent() {
        return false;
    }
    *c = cand;
    true
}

/// Nodes reachable from `v` through weight-0 edges (including `v`).
fn comb_descendants(c: &Circuit, v: NodeId) -> Vec<bool> {
    let mut seen = vec![false; c.num_nodes()];
    seen[v.index()] = true;
    let mut stack = vec![v];
    while let Some(x) = stack.pop() {
        for &fe in c.node(x).fanout() {
            let edge = c.edge(fe);
            if edge.weight() == 0 && !seen[edge.to().index()] {
                seen[edge.to().index()] = true;
                stack.push(edge.to());
            }
        }
    }
    seen
}

/// Forward-retimes one register across a random eligible gate **by
/// hand**: every fanin edge gives up its sink-end register, every fanout
/// edge gains one at its source end, and the new registers' initial value
/// is the gate's function evaluated on the removed values (three-valued —
/// exactly the paper's linear-time initial-state computation for forward
/// moves). Behaviour-preserving by the classical retiming argument.
pub fn retime_forward(c: &mut Circuit, rng: &mut Rng64) -> bool {
    let eligible: Vec<NodeId> = c
        .gate_ids()
        .filter(|&g| {
            let n = c.node(g);
            !n.fanin().is_empty()
                && !n.fanout().is_empty()
                && n.fanin().iter().all(|&e| c.edge(e).weight() >= 1)
        })
        .collect();
    if eligible.is_empty() {
        return false;
    }
    let g = eligible[rng.below(eligible.len())];
    let mut cand = c.clone();
    let fanin: Vec<EdgeId> = cand.node(g).fanin().to_vec();
    let fanout: Vec<EdgeId> = cand.node(g).fanout().to_vec();
    // Take the register adjacent to g from each fanin (sink end = last;
    // `ffs[0]` is nearest the source).
    let mut taken = Vec::with_capacity(fanin.len());
    for &e in &fanin {
        match cand.ffs_mut(e).pop() {
            Some(b) => taken.push(b),
            None => return false,
        }
    }
    let value = match cand.node(g).function() {
        Some(tt) => tt.eval3(&taken),
        None => return false,
    };
    // Give each fanout a register adjacent to g (source end = front).
    for &e in &fanout {
        cand.ffs_mut(e).insert(0, value);
    }
    if netlist::validate(&cand).is_err() || !cand.sharing_consistent() {
        return false;
    }
    *c = cand;
    true
}

/// Rewrites one register's initial value to a random bit (including `X`).
/// The register at a given position is shared across the driver's fanout
/// edges, so the new value is written into every chain defining that
/// position — flipping a single edge would create a sharing conflict.
pub fn flip_init(c: &mut Circuit, rng: &mut Rng64) -> bool {
    let registered: Vec<EdgeId> = c.edge_ids().filter(|&e| c.edge(e).weight() >= 1).collect();
    if registered.is_empty() {
        return false;
    }
    let e = registered[rng.below(registered.len())];
    let i = rng.below(c.edge(e).weight());
    let new = match rng.below(3) {
        0 => Bit::Zero,
        1 => Bit::One,
        _ => Bit::X,
    };
    let from = c.edge(e).from();
    let fanout: Vec<EdgeId> = c.node(from).fanout().to_vec();
    for &fe in &fanout {
        if let Some(b) = c.ffs_mut(fe).get_mut(i) {
            *b = new;
        }
    }
    true
}

/// Erases one defined initial value to `X` in a single fanout chain,
/// leaving the driver's other chains as they are (still sharing-
/// consistent: `X` merges with any bit). A driver with another chain of
/// the same length then feeds two taps that differ only in initial
/// values: two LUT inputs to FlowMap, one leaf `u^w` to the cut arena.
pub fn blur_init(c: &mut Circuit, rng: &mut Rng64) -> bool {
    let defined: Vec<(EdgeId, usize)> = c
        .edge_ids()
        .flat_map(|e| {
            let ffs = c.edge(e).ffs();
            (0..ffs.len())
                .filter(move |&i| ffs[i] != Bit::X)
                .map(move |i| (e, i))
        })
        .collect();
    if defined.is_empty() {
        return false;
    }
    let (e, i) = defined[rng.below(defined.len())];
    c.ffs_mut(e)[i] = Bit::X;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{generate_fsm, Encoding, FsmSpec};

    fn base(seed: u64) -> Circuit {
        generate_fsm(&FsmSpec {
            name: format!("m{seed}"),
            states: 6,
            inputs: 3,
            decoded: 2,
            outputs: 2,
            encoding: Encoding::Binary,
            registered_inputs: true,
            seed,
        })
    }

    #[test]
    fn mutations_keep_circuits_valid() {
        let mut rng = Rng64::new(3);
        for seed in 0..8 {
            let mut c = base(seed);
            for _ in 0..40 {
                mutate_random(&mut c, &mut rng);
                netlist::validate(&c).unwrap();
                assert!(c.sharing_consistent(), "seed {seed}: sharing conflict");
            }
        }
    }

    #[test]
    fn insert_gate_adds_exactly_one() {
        let mut rng = Rng64::new(5);
        let mut c = base(1);
        let before = c.num_gates();
        assert!(insert_gate(&mut c, &mut rng));
        assert_eq!(c.num_gates(), before + 1);
        netlist::validate(&c).unwrap();
    }

    #[test]
    fn retime_forward_preserves_behaviour() {
        // Hand forward retiming must be sequentially invisible: the
        // retimed circuit conforms to the original on random sequences.
        let mut rng = Rng64::new(7);
        for seed in 0..6 {
            let original = base(seed);
            let mut retimed = original.clone();
            let mut moved = 0;
            for _ in 0..20 {
                if retime_forward(&mut retimed, &mut rng) {
                    moved += 1;
                }
            }
            if moved == 0 {
                continue;
            }
            let seq = netlist::random_sequence(original.inputs().len(), 48, seed ^ 0xABCD);
            let r = netlist::sequence_equiv_mode(
                &original,
                &retimed,
                &seq,
                netlist::EquivMode::Compatibility,
            )
            .unwrap();
            assert!(
                r.is_equivalent(),
                "seed {seed}: hand retime changed behaviour"
            );
        }
    }

    #[test]
    fn retime_forward_keeps_total_registers_bounded() {
        // Each move removes |fanin| registers and adds |fanout|; with
        // 2-input gates the count can drift, but validity must hold and
        // every fanin of a moved gate must have had weight ≥ 1.
        let mut rng = Rng64::new(11);
        let mut c = base(2);
        for _ in 0..10 {
            retime_forward(&mut c, &mut rng);
        }
        netlist::validate(&c).unwrap();
    }

    #[test]
    fn rewire_never_creates_comb_cycle() {
        let mut rng = Rng64::new(13);
        let mut c = base(3);
        for _ in 0..60 {
            rewire_fanin(&mut c, &mut rng);
            // validate() includes the combinational-cycle check.
            netlist::validate(&c).unwrap();
        }
    }

    #[test]
    fn flip_init_touches_only_registers() {
        let mut rng = Rng64::new(17);
        let mut c = base(4);
        let weights: Vec<usize> = c.edge_ids().map(|e| c.edge(e).weight()).collect();
        for _ in 0..20 {
            flip_init(&mut c, &mut rng);
        }
        let after: Vec<usize> = c.edge_ids().map(|e| c.edge(e).weight()).collect();
        assert_eq!(weights, after, "flip_init must not change weights");
        netlist::validate(&c).unwrap();
    }

    #[test]
    fn blur_init_splits_one_chain() {
        let mut rng = Rng64::new(23);
        let mut c = base(2);
        let before: Vec<Vec<Bit>> = c.edge_ids().map(|e| c.edge(e).ffs().to_vec()).collect();
        assert!(blur_init(&mut c, &mut rng));
        let changed: Vec<usize> = c
            .edge_ids()
            .filter(|&e| c.edge(e).ffs() != before[e.index()].as_slice())
            .map(|e| e.index())
            .collect();
        assert_eq!(changed.len(), 1, "exactly one chain changes");
        let after = c.edge(EdgeId(changed[0] as u32)).ffs();
        assert_eq!(after.len(), before[changed[0]].len());
        assert!(after.contains(&Bit::X));
        netlist::validate(&c).unwrap();
        assert!(c.sharing_consistent());
    }
}
