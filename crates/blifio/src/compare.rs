//! Name-insensitive structural equality between circuits.
//!
//! Flattening gives hierarchical instances path-prefixed names, so
//! comparing a linked circuit against a hand-flattened equivalent must
//! ignore node names. The check pairs the circuits' PIs and POs by
//! position and walks fanin cones in lockstep, requiring matching node
//! kinds, truth tables, fanin arity/order, and per-edge FF chains, with
//! a consistent (bijective) node correspondence throughout.

use netlist::{Circuit, NodeId};
use std::collections::HashMap;

/// Returns `None` when the circuits are structurally identical, or a
/// human-readable description of the first mismatch found.
pub fn structural_diff(a: &Circuit, b: &Circuit) -> Option<String> {
    if a.inputs().len() != b.inputs().len() {
        return Some(format!(
            "PI count {} vs {}",
            a.inputs().len(),
            b.inputs().len()
        ));
    }
    if a.outputs().len() != b.outputs().len() {
        return Some(format!(
            "PO count {} vs {}",
            a.outputs().len(),
            b.outputs().len()
        ));
    }
    if a.num_gates() != b.num_gates() {
        return Some(format!("gate count {} vs {}", a.num_gates(), b.num_gates()));
    }
    if a.num_edges() != b.num_edges() {
        return Some(format!("edge count {} vs {}", a.num_edges(), b.num_edges()));
    }

    let mut ab: HashMap<NodeId, NodeId> = HashMap::new();
    let mut ba: HashMap<NodeId, NodeId> = HashMap::new();
    let mut stack: Vec<(NodeId, NodeId)> = Vec::new();
    let mut pair = |x: NodeId, y: NodeId, stack: &mut Vec<(NodeId, NodeId)>| -> Option<String> {
        match (ab.get(&x), ba.get(&y)) {
            (Some(&py), _) if py != y => Some(format!(
                "node `{}` maps to both `{}` and `{}`",
                a.node(x).name(),
                b.node(py).name(),
                b.node(y).name()
            )),
            (_, Some(&px)) if px != x => Some(format!(
                "node `{}` matched by both `{}` and `{}`",
                b.node(y).name(),
                a.node(px).name(),
                a.node(x).name()
            )),
            (Some(_), _) => None, // already paired consistently
            _ => {
                ab.insert(x, y);
                ba.insert(y, x);
                stack.push((x, y));
                None
            }
        }
    };

    for (&x, &y) in a.inputs().iter().zip(b.inputs().iter()) {
        if let Some(d) = pair(x, y, &mut stack) {
            return Some(d);
        }
    }
    for (&x, &y) in a.outputs().iter().zip(b.outputs().iter()) {
        if let Some(d) = pair(x, y, &mut stack) {
            return Some(d);
        }
    }

    while let Some((x, y)) = stack.pop() {
        let (nx, ny) = (a.node(x), b.node(y));
        // Kind compares the discriminant only; gate functions (which
        // `NodeKind::Gate` embeds) get their own message below.
        if std::mem::discriminant(nx.kind()) != std::mem::discriminant(ny.kind()) {
            return Some(format!(
                "kind mismatch at `{}` vs `{}`",
                nx.name(),
                ny.name()
            ));
        }
        if nx.function() != ny.function() {
            return Some(format!(
                "function mismatch at `{}` vs `{}`",
                nx.name(),
                ny.name()
            ));
        }
        if nx.fanin().len() != ny.fanin().len() {
            return Some(format!(
                "fanin arity mismatch at `{}` ({}) vs `{}` ({})",
                nx.name(),
                nx.fanin().len(),
                ny.name(),
                ny.fanin().len()
            ));
        }
        if nx.fanout().len() != ny.fanout().len() {
            return Some(format!(
                "fanout arity mismatch at `{}` vs `{}`",
                nx.name(),
                ny.name()
            ));
        }
        for (&ea, &eb) in nx.fanin().iter().zip(ny.fanin().iter()) {
            if a.edge(ea).ffs() != b.edge(eb).ffs() {
                return Some(format!(
                    "FF chain mismatch on fanin of `{}` vs `{}`",
                    nx.name(),
                    ny.name()
                ));
            }
            if let Some(d) = pair(a.edge(ea).from(), b.edge(eb).from(), &mut stack) {
                return Some(d);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{Bit, TruthTable};

    fn counter(name: &str, gate: &str) -> Circuit {
        let mut c = Circuit::new(name);
        let en = c.add_input("en").unwrap();
        let x = c.add_gate(gate, TruthTable::xor(2)).unwrap();
        let q = c.add_output("q").unwrap();
        c.connect(en, x, vec![]).unwrap();
        c.connect(x, x, vec![Bit::Zero]).unwrap();
        c.connect(x, q, vec![]).unwrap();
        c
    }

    #[test]
    fn equal_up_to_names() {
        let a = counter("a", "x");
        let b = counter("b", "completely.different$name");
        assert_eq!(structural_diff(&a, &b), None);
    }

    #[test]
    fn detects_init_difference() {
        let a = counter("a", "x");
        let mut b = Circuit::new("b");
        let en = b.add_input("en").unwrap();
        let x = b.add_gate("x", TruthTable::xor(2)).unwrap();
        let q = b.add_output("q").unwrap();
        b.connect(en, x, vec![]).unwrap();
        b.connect(x, x, vec![Bit::One]).unwrap();
        b.connect(x, q, vec![]).unwrap();
        let d = structural_diff(&a, &b).unwrap();
        assert!(d.contains("FF chain"), "{d}");
    }

    #[test]
    fn detects_function_difference() {
        let a = counter("a", "x");
        let mut b = Circuit::new("b");
        let en = b.add_input("en").unwrap();
        let x = b.add_gate("x", TruthTable::or(2)).unwrap();
        let q = b.add_output("q").unwrap();
        b.connect(en, x, vec![]).unwrap();
        b.connect(x, x, vec![Bit::Zero]).unwrap();
        b.connect(x, q, vec![]).unwrap();
        let d = structural_diff(&a, &b).unwrap();
        assert!(d.contains("function"), "{d}");
    }
}
