//! Dead logic removal.
//!
//! Gates with no path to any primary output cannot influence observable
//! behaviour; mapping algorithms skip them and the final LUT networks drop
//! them, so [`prune_dead`] removes them up front to keep "input gates" and
//! "output LUTs" comparable and to spare the label computations from
//! autonomous register loops in dead regions.

use crate::circuit::{Circuit, NodeId, NodeKind};
use crate::error::NetlistError;

/// Rebuilds `c` without gates that reach no primary output. PIs are always
/// kept (they are the interface).
///
/// # Errors
///
/// Propagates construction errors (none expected for valid inputs).
pub fn prune_dead(c: &Circuit) -> Result<Circuit, NetlistError> {
    let n = c.num_nodes();
    let mut live = vec![false; n];
    let mut stack: Vec<usize> = c.outputs().iter().map(|v| v.index()).collect();
    for &s in &stack {
        live[s] = true;
    }
    while let Some(u) = stack.pop() {
        for &e in c.node(NodeId(u as u32)).fanin() {
            let f = c.edge(e).from().index();
            if !live[f] {
                live[f] = true;
                stack.push(f);
            }
        }
    }
    let mut out = Circuit::new(c.name().to_string());
    let mut map: Vec<Option<NodeId>> = vec![None; n];
    for v in c.node_ids() {
        let node = c.node(v);
        match node.kind() {
            NodeKind::Input => {
                map[v.index()] = Some(out.add_input(node.name())?);
            }
            NodeKind::Output => {
                map[v.index()] = Some(out.add_output(node.name())?);
            }
            NodeKind::Gate(tt) => {
                if live[v.index()] {
                    map[v.index()] = Some(out.add_gate(node.name(), tt.clone())?);
                }
            }
        }
    }
    for e in c.edge_ids() {
        let edge = c.edge(e);
        if let (Some(src), Some(dst)) = (map[edge.from().index()], map[edge.to().index()]) {
            out.connect(src, dst, edge.ffs())?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit::Bit;
    use crate::truth::TruthTable;

    #[test]
    fn removes_dead_cycle_keeps_live() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        // Dead: a 2-gate register loop hanging off `a`.
        let d1 = c.add_gate("d1", TruthTable::and(2)).unwrap();
        let d2 = c.add_gate("d2", TruthTable::not()).unwrap();
        c.connect(a, d1, vec![]).unwrap();
        c.connect(d2, d1, vec![]).unwrap();
        c.connect(d1, d2, vec![Bit::Zero]).unwrap();
        let pruned = prune_dead(&c).unwrap();
        assert_eq!(pruned.num_gates(), 1);
        assert!(pruned.find("g").is_some());
        assert!(pruned.find("d1").is_none());
        assert!(crate::equiv::exhaustive_equiv(&c, &pruned, 4)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn noop_on_fully_live_circuit() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::buf()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![Bit::One]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        let pruned = prune_dead(&c).unwrap();
        assert_eq!(pruned.num_gates(), c.num_gates());
        assert_eq!(pruned.ff_count_total(), c.ff_count_total());
    }

    #[test]
    fn keeps_unused_inputs() {
        let mut c = Circuit::new("t");
        c.add_input("unused").unwrap();
        let b = c.add_input("b").unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(b, o, vec![]).unwrap();
        let pruned = prune_dead(&c).unwrap();
        assert_eq!(pruned.inputs().len(), 2);
    }
}
