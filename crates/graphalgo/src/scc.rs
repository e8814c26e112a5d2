//! Strongly connected components (iterative Tarjan).
//!
//! Used by `partition`'s clustering: the SCC condensation of a circuit's
//! retiming graph.

/// Computes the strongly connected components of a CSR graph.
///
/// Returns the components in **reverse topological order** of the condensed
/// graph (a component appears before the components it can reach... Tarjan
/// emits each SCC when its root pops, so components are ordered such that
/// every edge of the condensation goes from a later component to an earlier
/// one). Each component lists its member nodes; children are visited in
/// target-slice order.
///
/// # Examples
///
/// ```
/// use graphalgo::Csr;
///
/// // 0 <-> 1 form one SCC; 2 alone.
/// let g = Csr::from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
/// let sccs = graphalgo::scc::strongly_connected_components_csr(&g);
/// assert_eq!(sccs.len(), 2);
/// assert_eq!(sccs[0], vec![2]);
/// let mut big = sccs[1].clone();
/// big.sort_unstable();
/// assert_eq!(big, vec![0, 1]);
/// ```
pub fn strongly_connected_components_csr(g: &crate::Csr) -> Vec<Vec<usize>> {
    let n = g.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components = Vec::new();

    // Iterative DFS: frames of (node, next child position).
    let mut call: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        call.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            let row = g.out(v);
            if *ci < row.len() {
                let w = row[*ci] as usize;
                *ci += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    components.push(comp);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csr;

    fn sorted(mut v: Vec<usize>) -> Vec<usize> {
        v.sort_unstable();
        v
    }

    #[test]
    fn dag_gives_singletons() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let sccs = strongly_connected_components_csr(&g);
        assert_eq!(sccs.len(), 3);
    }

    #[test]
    fn cycle_is_one_component() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let sccs = strongly_connected_components_csr(&g);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sorted(sccs[0].clone()), vec![0, 1, 2]);
    }

    #[test]
    fn two_cycles_bridge() {
        // (0,1) cycle -> (2,3) cycle
        let g = Csr::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
        let sccs = strongly_connected_components_csr(&g);
        assert_eq!(sccs.len(), 2);
        assert_eq!(sorted(sccs[0].clone()), vec![2, 3]);
        assert_eq!(sorted(sccs[1].clone()), vec![0, 1]);
    }

    #[test]
    fn deep_chain_no_stack_overflow() {
        // 100k-node chain exercises the iterative implementation.
        let n = 100_000;
        let edges: Vec<(usize, usize)> = (1..n).map(|v| (v - 1, v)).collect();
        let sccs = strongly_connected_components_csr(&Csr::from_edges(n, &edges));
        assert_eq!(sccs.len(), n);
    }
}
