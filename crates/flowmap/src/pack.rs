//! LUT packing: an area post-pass for mapped networks.
//!
//! A LUT with a single, register-free fanout can be collapsed into its
//! consumer whenever the union of their input signals still fits in K —
//! removing one LUT without touching depth (the consumer's level already
//! dominated). Mapping generation under node duplication leaves many such
//! opportunities; every practical mapper runs a pass like this.

use netlist::{Bit, Circuit, NetlistError, NodeId, TruthTable};

/// Result of a packing pass.
#[derive(Debug, Clone)]
pub struct PackReport {
    /// The packed network.
    pub circuit: Circuit,
    /// Number of LUTs removed.
    pub packed: usize,
}

/// One input signal of a (possibly merged) LUT.
#[derive(Debug, Clone, PartialEq)]
struct PinSig {
    from: NodeId,
    chain: Vec<Bit>,
}

/// Collapses single-fanout LUTs into their consumers while the merged
/// support stays within `k` inputs. Runs to a fixpoint.
///
/// # Errors
///
/// Propagates construction errors ([`NetlistError`]); inputs must be
/// valid mapped networks (every gate fully connected).
pub fn pack_luts(c: &Circuit, k: usize) -> Result<PackReport, NetlistError> {
    let mut current = c.clone();
    let mut packed_total = 0usize;
    loop {
        let (next, packed) = pack_once(&current, k)?;
        packed_total += packed;
        current = next;
        if packed == 0 {
            break;
        }
    }
    Ok(PackReport {
        circuit: current,
        packed: packed_total,
    })
}

fn pin_signals(c: &Circuit, v: NodeId) -> Vec<PinSig> {
    c.node(v)
        .fanin()
        .iter()
        .map(|&e| {
            let edge = c.edge(e);
            PinSig {
                from: edge.from(),
                chain: edge.ffs().to_vec(),
            }
        })
        .collect()
}

fn pack_once(c: &Circuit, k: usize) -> Result<(Circuit, usize), NetlistError> {
    // Candidates: gate g with exactly one fanout edge, weight 0, into a
    // gate consumer. Process greedily in topological order; a consumer
    // absorbs at most one producer per round (keeps bookkeeping simple).
    let order = c.comb_topo_order()?;
    let mut absorbed_into: Vec<Option<NodeId>> = vec![None; c.num_nodes()]; // producer -> consumer
    let mut consumer_busy = vec![false; c.num_nodes()];
    let mut merged_pins: Vec<Option<Vec<PinSig>>> = vec![None; c.num_nodes()];
    let mut merged_tt: Vec<Option<TruthTable>> = vec![None; c.num_nodes()];
    let mut packed = 0usize;
    for &g in &order {
        let node = c.node(g);
        if !node.is_gate() || node.fanout().len() != 1 {
            continue;
        }
        if absorbed_into[g.index()].is_some() || consumer_busy[g.index()] {
            continue; // already merged this round (either direction)
        }
        let out_edge = c.edge(node.fanout()[0]);
        if out_edge.weight() != 0 {
            continue;
        }
        let x = out_edge.to();
        let xn = c.node(x);
        if !xn.is_gate() || consumer_busy[x.index()] || absorbed_into[x.index()].is_some() {
            continue;
        }
        // Only single-use within the consumer (a gate may feed two pins).
        let uses: Vec<usize> = xn
            .fanin()
            .iter()
            .enumerate()
            .filter(|(_, &e)| c.edge(e).from() == g && c.edge(e).weight() == 0)
            .map(|(i, _)| i)
            .collect();
        if uses.len() != 1 {
            continue;
        }
        let pin = uses[0];
        // Merged support.
        let g_pins = pin_signals(c, g);
        let x_pins = pin_signals(c, x);
        let mut merged: Vec<PinSig> = Vec::new();
        for (i, p) in x_pins.iter().enumerate() {
            if i == pin {
                continue;
            }
            if !merged.contains(p) {
                merged.push(p.clone());
            }
        }
        for p in &g_pins {
            if !merged.contains(p) {
                merged.push(p.clone());
            }
        }
        if merged.len() > k || merged.len() > netlist::MAX_INPUTS {
            continue;
        }
        // Every merged pin driver must survive this round.
        if merged
            .iter()
            .any(|p| absorbed_into[p.from.index()].is_some())
        {
            continue;
        }
        // Merged truth table: x's function with `pin` replaced by g's.
        let g_tt = node.function().expect("gate").clone();
        let x_tt = xn.function().expect("gate").clone();
        let idx_of = |p: &PinSig| merged.iter().position(|q| q == p).expect("inserted");
        let g_map: Vec<usize> = g_pins.iter().map(idx_of).collect();
        let x_map: Vec<Option<usize>> = x_pins
            .iter()
            .enumerate()
            .map(|(i, p)| if i == pin { None } else { Some(idx_of(p)) })
            .collect();
        let tt = TruthTable::from_fn(merged.len(), |r| {
            let g_in: Vec<bool> = g_map.iter().map(|&m| (r >> m) & 1 == 1).collect();
            let g_val = g_tt.eval(&g_in);
            let x_in: Vec<bool> = x_map
                .iter()
                .map(|m| match m {
                    Some(m) => (r >> m) & 1 == 1,
                    None => g_val,
                })
                .collect();
            x_tt.eval(&x_in)
        });
        absorbed_into[g.index()] = Some(x);
        consumer_busy[x.index()] = true;
        merged_pins[x.index()] = Some(merged);
        merged_tt[x.index()] = Some(tt);
        packed += 1;
    }
    if packed == 0 {
        return Ok((c.clone(), 0));
    }
    // Rebuild.
    let mut out = Circuit::new(c.name().to_string());
    let mut map: Vec<Option<NodeId>> = vec![None; c.num_nodes()];
    for v in c.node_ids() {
        if absorbed_into[v.index()].is_some() {
            continue;
        }
        let node = c.node(v);
        map[v.index()] = Some(match node.kind() {
            netlist::NodeKind::Input => out.add_input(node.name())?,
            netlist::NodeKind::Output => out.add_output(node.name())?,
            netlist::NodeKind::Gate(tt) => {
                let tt = merged_tt[v.index()].clone().unwrap_or_else(|| tt.clone());
                out.add_gate(node.name(), tt)?
            }
        });
    }
    for v in c.node_ids() {
        if absorbed_into[v.index()].is_some() {
            continue;
        }
        let new_v = map[v.index()].expect("survives");
        match &merged_pins[v.index()] {
            Some(pins) => {
                for p in pins {
                    let src = map[p.from.index()].expect("pin drivers survive");
                    out.connect(src, new_v, p.chain.clone())?;
                }
            }
            None => {
                for &e in c.node(v).fanin() {
                    let edge = c.edge(e);
                    let src = map[edge.from().index()].expect("drivers survive");
                    out.connect(src, new_v, edge.ffs())?;
                }
            }
        }
    }
    Ok((out, packed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::exhaustive_equiv;

    #[test]
    fn packs_single_fanout_chain() {
        // a,b -> g1(AND) -> g2(XOR with c) -> o : packs into one 3-LUT.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let d = c.add_input("d").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::xor(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(b, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(d, g2, vec![]).unwrap();
        c.connect(g2, o, vec![]).unwrap();
        let r = pack_luts(&c, 4).unwrap();
        assert_eq!(r.packed, 1);
        assert_eq!(r.circuit.num_gates(), 1);
        assert!(exhaustive_equiv(&c, &r.circuit, 2).unwrap().is_equivalent());
    }

    #[test]
    fn k_limit_blocks_packing() {
        let mut c = Circuit::new("t");
        let ins: Vec<NodeId> = (0..4)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::or(3)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(ins[0], g1, vec![]).unwrap();
        c.connect(ins[1], g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(ins[2], g2, vec![]).unwrap();
        c.connect(ins[3], g2, vec![]).unwrap();
        c.connect(g2, o, vec![]).unwrap();
        // Merged support = 4 > K=3: no pack; = 4 ≤ K=4: packs.
        assert_eq!(pack_luts(&c, 3).unwrap().packed, 0);
        let r = pack_luts(&c, 4).unwrap();
        assert_eq!(r.packed, 1);
        assert!(exhaustive_equiv(&c, &r.circuit, 2).unwrap().is_equivalent());
    }

    #[test]
    fn registers_block_packing() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![Bit::Zero]).unwrap();
        c.connect(g2, o, vec![]).unwrap();
        assert_eq!(pack_luts(&c, 4).unwrap().packed, 0);
    }

    #[test]
    fn multi_fanout_blocks_packing() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let o1 = c.add_output("o1").unwrap();
        let o2 = c.add_output("o2").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g2, o1, vec![]).unwrap();
        c.connect(g1, o2, vec![]).unwrap();
        assert_eq!(pack_luts(&c, 4).unwrap().packed, 0);
    }

    #[test]
    fn shared_inputs_dedup() {
        // g1(a,b) -> g2(g1, a): merged support {a, b} = 2 ≤ 2.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::xor(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(b, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(a, g2, vec![]).unwrap();
        c.connect(g2, o, vec![]).unwrap();
        let r = pack_luts(&c, 2).unwrap();
        assert_eq!(r.packed, 1);
        assert!(exhaustive_equiv(&c, &r.circuit, 2).unwrap().is_equivalent());
    }

    #[test]
    fn fixpoint_packs_deep_chain() {
        // A 4-deep single-fanout chain of 1-input gates: all pack into
        // one.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let mut prev = a;
        for i in 0..4 {
            let g = c.add_gate(format!("g{i}"), TruthTable::not()).unwrap();
            c.connect(prev, g, vec![]).unwrap();
            prev = g;
        }
        let o = c.add_output("o").unwrap();
        c.connect(prev, o, vec![]).unwrap();
        let r = pack_luts(&c, 4).unwrap();
        assert_eq!(r.circuit.num_gates(), 1);
        assert!(exhaustive_equiv(&c, &r.circuit, 2).unwrap().is_equivalent());
    }

    #[test]
    fn packs_real_mapping_and_stays_equivalent() {
        let preset = workloads::presets()
            .into_iter()
            .find(|p| p.name == "dk17")
            .unwrap();
        let c = workloads::build_preset(&preset);
        let prep = turbomap_prepare_like(&c);
        let mapped = crate::flowmap(&prep, 5).unwrap();
        let r = pack_luts(&mapped.circuit, 5).unwrap();
        assert!(r.circuit.num_gates() <= mapped.circuit.num_gates());
        assert!(netlist::random_equiv(&c, &r.circuit, 512, 3)
            .unwrap()
            .is_equivalent());
    }

    fn turbomap_prepare_like(c: &Circuit) -> Circuit {
        // validate + prune + decompose, without depending on turbomap.
        netlist::validate(c).unwrap();
        let live = netlist::prune_dead(c).unwrap();
        if live.max_fanin() > 5 {
            netlist::decompose_to_k(&live, 2).unwrap()
        } else {
            live
        }
    }
}
