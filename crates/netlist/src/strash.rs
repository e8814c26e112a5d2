//! Structural hashing (logic sweep).
//!
//! Two gates computing the same function of the same fanin signals (node,
//! register count, register values) are behaviourally identical and can be
//! merged. Mapping-generated networks and synthetic benchmarks both
//! contain such duplicates; [`strash`] removes them in topological order
//! so that merges cascade (merging fanins exposes identical fanouts).
//! Primary outputs and names of surviving nodes are preserved.

use crate::bit::Bit;
use crate::circuit::{Circuit, NodeId, NodeKind};
use crate::error::NetlistError;
use std::collections::HashMap;

/// Result of a structural-hashing pass.
#[derive(Debug, Clone)]
pub struct StrashReport {
    /// The swept circuit.
    pub circuit: Circuit,
    /// Number of gates removed by merging.
    pub merged: usize,
}

/// One gate's structural signature: its function plus, per pin, the
/// (canonical driver, register chain) pair.
type Signature = (String, Vec<(u32, Vec<Bit>)>);

/// Merges structurally identical gates.
///
/// Gates whose function and fanin signals (driver after canonicalisation,
/// register count *and* initial values) coincide are collapsed onto one
/// representative; consumers are rewired. The result is sequentially
/// equivalent to the input.
///
/// # Errors
///
/// Propagates construction errors (none expected for valid inputs) and
/// [`NetlistError::CombinationalCycle`] for unevaluable circuits.
pub fn strash(c: &Circuit) -> Result<StrashReport, NetlistError> {
    let order = c.comb_topo_order()?;
    // canonical[v] = the representative that v merges into (or v itself).
    let mut canonical: Vec<u32> = (0..c.num_nodes() as u32).collect();
    let mut seen: HashMap<Signature, u32> = HashMap::new();
    let mut merged = 0usize;
    for &v in &order {
        let node = c.node(v);
        let tt = match node.function() {
            Some(tt) => tt,
            None => continue,
        };
        let sig: Signature = (
            tt.to_string(),
            node.fanin()
                .iter()
                .map(|&e| {
                    let edge = c.edge(e);
                    (canonical[edge.from().index()], edge.ffs().to_vec())
                })
                .collect(),
        );
        match seen.get(&sig) {
            Some(&rep) => {
                canonical[v.index()] = rep;
                merged += 1;
            }
            None => {
                seen.insert(sig, v.0);
            }
        }
    }
    // Rebuild with only canonical nodes.
    let mut out = Circuit::new(c.name().to_string());
    let mut map: Vec<Option<NodeId>> = vec![None; c.num_nodes()];
    for v in c.node_ids() {
        if canonical[v.index()] != v.0 {
            continue; // merged away
        }
        let node = c.node(v);
        map[v.index()] = Some(match node.kind() {
            NodeKind::Input => out.add_input(node.name())?,
            NodeKind::Output => out.add_output(node.name())?,
            NodeKind::Gate(tt) => out.add_gate(node.name(), tt.clone())?,
        });
    }
    for v in c.node_ids() {
        if canonical[v.index()] != v.0 {
            continue;
        }
        for &e in c.node(v).fanin() {
            let edge = c.edge(e);
            let src_canon = canonical[edge.from().index()] as usize;
            let src = map[src_canon].expect("canonical nodes survive");
            out.connect(src, map[v.index()].expect("survives"), edge.ffs())?;
        }
    }
    Ok(StrashReport {
        circuit: out,
        merged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::exhaustive_equiv;
    use crate::truth::TruthTable;

    #[test]
    fn merges_identical_gates() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::and(2)).unwrap();
        let x = c.add_gate("x", TruthTable::xor(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(b, g1, vec![]).unwrap();
        c.connect(a, g2, vec![]).unwrap();
        c.connect(b, g2, vec![]).unwrap();
        c.connect(g1, x, vec![]).unwrap();
        c.connect(g2, x, vec![]).unwrap();
        c.connect(x, o, vec![]).unwrap();
        let r = strash(&c).unwrap();
        assert_eq!(r.merged, 1);
        assert_eq!(r.circuit.num_gates(), 2);
        assert!(exhaustive_equiv(&c, &r.circuit, 2).unwrap().is_equivalent());
    }

    #[test]
    fn merges_cascade() {
        // Two identical 2-gate chains: both levels merge.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let o1 = c.add_output("o1").unwrap();
        let o2 = c.add_output("o2").unwrap();
        let n1 = c.add_gate("n1", TruthTable::not()).unwrap();
        let n2 = c.add_gate("n2", TruthTable::not()).unwrap();
        let m1 = c.add_gate("m1", TruthTable::not()).unwrap();
        let m2 = c.add_gate("m2", TruthTable::not()).unwrap();
        c.connect(a, n1, vec![]).unwrap();
        c.connect(n1, m1, vec![]).unwrap();
        c.connect(a, n2, vec![]).unwrap();
        c.connect(n2, m2, vec![]).unwrap();
        c.connect(m1, o1, vec![]).unwrap();
        c.connect(m2, o2, vec![]).unwrap();
        let r = strash(&c).unwrap();
        assert_eq!(r.merged, 2);
        assert_eq!(r.circuit.num_gates(), 2);
        assert!(exhaustive_equiv(&c, &r.circuit, 2).unwrap().is_equivalent());
    }

    #[test]
    fn register_values_block_merging() {
        // Same structure but different initial values: NOT mergeable.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g1 = c.add_gate("g1", TruthTable::buf()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::buf()).unwrap();
        let o1 = c.add_output("o1").unwrap();
        let o2 = c.add_output("o2").unwrap();
        c.connect(a, g1, vec![Bit::Zero]).unwrap();
        c.connect(a, g2, vec![Bit::One]).unwrap();
        c.connect(g1, o1, vec![]).unwrap();
        c.connect(g2, o2, vec![]).unwrap();
        let r = strash(&c).unwrap();
        assert_eq!(r.merged, 0);
        // Matching values DO merge.
        let mut c2 = Circuit::new("t2");
        let a = c2.add_input("a").unwrap();
        let g1 = c2.add_gate("g1", TruthTable::buf()).unwrap();
        let g2 = c2.add_gate("g2", TruthTable::buf()).unwrap();
        let o1 = c2.add_output("o1").unwrap();
        let o2 = c2.add_output("o2").unwrap();
        c2.connect(a, g1, vec![Bit::Zero]).unwrap();
        c2.connect(a, g2, vec![Bit::Zero]).unwrap();
        c2.connect(g1, o1, vec![]).unwrap();
        c2.connect(g2, o2, vec![]).unwrap();
        let r2 = strash(&c2).unwrap();
        assert_eq!(r2.merged, 1);
        assert!(exhaustive_equiv(&c2, &r2.circuit, 3)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn pin_order_matters_for_asymmetric_functions() {
        // f(a, b) vs f(b, a) with an asymmetric function must not merge.
        let implies = TruthTable::from_fn(2, |r| (r & 1 == 0) || (r & 2 == 2));
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g1 = c.add_gate("g1", implies.clone()).unwrap();
        let g2 = c.add_gate("g2", implies).unwrap();
        let o1 = c.add_output("o1").unwrap();
        let o2 = c.add_output("o2").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(b, g1, vec![]).unwrap();
        c.connect(b, g2, vec![]).unwrap();
        c.connect(a, g2, vec![]).unwrap();
        c.connect(g1, o1, vec![]).unwrap();
        c.connect(g2, o2, vec![]).unwrap();
        let r = strash(&c).unwrap();
        assert_eq!(r.merged, 0);
    }

    #[test]
    fn sweep_on_generated_mapping() {
        // Mapping generation duplicates logic; strash must keep the
        // result equivalent (and may shrink it).
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::or(2)).unwrap();
        let g3 = c.add_gate("g3", TruthTable::xor(2)).unwrap();
        let o1 = c.add_output("o1").unwrap();
        let o2 = c.add_output("o2").unwrap();
        c.connect(a, g1, vec![Bit::One]).unwrap();
        c.connect(b, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(b, g2, vec![]).unwrap();
        c.connect(g1, g3, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(g3, o1, vec![]).unwrap();
        c.connect(g2, o2, vec![]).unwrap();
        let mapped = turbomap_like(&c);
        let r = strash(&mapped).unwrap();
        assert!(crate::equiv::random_equiv(&c, &r.circuit, 256, 1)
            .unwrap()
            .is_equivalent());
    }

    /// Stand-in for a mapper inside netlist's tests: duplicate g1.
    fn turbomap_like(c: &Circuit) -> Circuit {
        let mut out = c.clone();
        let a = out.find("a").unwrap();
        let b = out.find("b").unwrap();
        let dup = out.add_gate("g1_dup", TruthTable::and(2)).unwrap();
        out.connect(a, dup, vec![Bit::One]).unwrap();
        out.connect(b, dup, vec![]).unwrap();
        // Rewire g3's first pin to the duplicate.
        let g3 = out.find("g3").unwrap();
        let e = out.node(g3).fanin()[0];
        out.rewire_from(e, dup).unwrap();
        out
    }
}
