//! Topological ordering with cycle reporting.
//!
//! Retiming graphs are cyclic, but their *zero-weight* subgraphs (the purely
//! combinational paths) must be acyclic for a circuit to be well-formed, and
//! every per-Φ computation walks that subgraph in topological order.

/// Error returned by [`topo_order_csr`] when the graph contains a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoError {
    /// Nodes that could not be ordered (each lies on or downstream of a
    /// cycle restricted to the unordered region).
    pub cyclic_nodes: Vec<usize>,
}

impl std::fmt::Display for TopoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "graph contains a cycle involving {} node(s)",
            self.cyclic_nodes.len()
        )
    }
}

impl std::error::Error for TopoError {}

/// Kahn's algorithm over a CSR graph.
///
/// Returns a topological order of all `g.len()` nodes, or a [`TopoError`]
/// listing the nodes left unordered when a cycle exists. The traversal
/// pops a stack and scans each node's contiguous target slice.
///
/// # Errors
///
/// Returns [`TopoError`] if the graph has a directed cycle.
///
/// # Examples
///
/// ```
/// let g = graphalgo::Csr::from_edges(3, &[(0, 1), (1, 2)]);
/// assert_eq!(graphalgo::topo::topo_order_csr(&g).unwrap(), vec![0, 1, 2]);
/// ```
pub fn topo_order_csr(g: &crate::Csr) -> Result<Vec<usize>, TopoError> {
    let n = g.len();
    let mut indeg = vec![0usize; n];
    for u in 0..n {
        for &v in g.out(u) {
            indeg[v as usize] += 1;
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut stack: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    while let Some(u) = stack.pop() {
        order.push(u);
        for &v in g.out(u) {
            let v = v as usize;
            indeg[v] -= 1;
            if indeg[v] == 0 {
                stack.push(v);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        let mut in_order = vec![false; n];
        for &v in &order {
            in_order[v] = true;
        }
        Err(TopoError {
            cyclic_nodes: (0..n).filter(|&v| !in_order[v]).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csr;

    #[test]
    fn orders_dag() {
        let g = Csr::from_edges(4, &[(0, 2), (1, 2), (2, 3)]);
        let order = topo_order_csr(&g).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        assert!(pos[0] < pos[2] && pos[1] < pos[2] && pos[2] < pos[3]);
    }

    #[test]
    fn detects_cycle() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 0)]);
        let err = topo_order_csr(&g).unwrap_err();
        assert_eq!(err.cyclic_nodes, vec![0, 1, 2]);
    }

    #[test]
    fn self_loop_is_cycle() {
        assert!(topo_order_csr(&Csr::from_edges(1, &[(0, 0)])).is_err());
    }

    #[test]
    fn empty_graph() {
        assert_eq!(
            topo_order_csr(&Csr::from_edges(0, &[])).unwrap(),
            Vec::<usize>::new()
        );
    }
}
