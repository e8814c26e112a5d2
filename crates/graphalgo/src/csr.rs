//! Compressed sparse row (CSR) graph storage.
//!
//! The label sweeps walk the same graphs thousands of times per Φ probe,
//! and `Vec<Vec<_>>` adjacency pays one heap box per node plus a pointer
//! chase per row. [`Csr`] and [`WeightedCsr`] pack the same adjacency into
//! two (three) flat arrays — `offsets` and `targets` (and `weights`) — so
//! a node's out-neighbours are one contiguous slice and a whole-graph walk
//! is a linear scan.
//!
//! Construction is a stable two-pass counting sort: rows are filled in
//! ascending edge-id order, so each row lists targets in exactly the order
//! incremental `Vec::push` would have produced. Algorithms that tie-break
//! on adjacency order (Kahn's stack, Tarjan's child order, BFS) therefore
//! return bit-identical results on either representation.

/// Unweighted directed graph in compressed sparse row form.
///
/// # Examples
///
/// ```
/// use graphalgo::Csr;
///
/// let g = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.out(0), &[1, 2]);
/// assert_eq!(g.out(2), &[] as &[u32]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[u]..offsets[u + 1]` indexes `targets` for node `u`;
    /// length `n + 1`.
    offsets: Vec<u32>,
    /// Concatenated out-neighbour lists.
    targets: Vec<u32>,
}

impl Csr {
    /// Builds a CSR graph from `n` nodes and a directed edge list, keeping
    /// each node's targets in edge-list order.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Csr {
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            offsets[u + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut targets = vec![0u32; edges.len()];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for &(u, v) in edges {
            targets[cursor[u] as usize] = v as u32;
            cursor[u] += 1;
        }
        Csr { offsets, targets }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbours of `u`, in insertion order.
    #[inline]
    pub fn out(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }
}

/// Directed graph with `u64` edge weights in compressed sparse row form.
///
/// # Examples
///
/// ```
/// use graphalgo::WeightedCsr;
///
/// let g = WeightedCsr::from_edges(3, &[(0, 1, 5), (0, 2, 0), (1, 2, 1)]);
/// assert_eq!(g.out(0), &[1, 2]);
/// assert_eq!(g.out_weights(0), &[5, 0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WeightedCsr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<u64>,
}

impl WeightedCsr {
    /// Builds a weighted CSR graph from `n` nodes and `(from, to, weight)`
    /// edges, keeping each node's targets in edge-list order.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(usize, usize, u64)]) -> WeightedCsr {
        let mut offsets = vec![0u32; n + 1];
        for &(u, v, _) in edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            offsets[u + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut targets = vec![0u32; edges.len()];
        let mut weights = vec![0u64; edges.len()];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for &(u, v, w) in edges {
            let slot = cursor[u] as usize;
            targets[slot] = v as u32;
            weights[slot] = w;
            cursor[u] += 1;
        }
        WeightedCsr {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbours of `u`, in insertion order.
    #[inline]
    pub fn out(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Weights aligned with [`WeightedCsr::out`]`(u)`.
    #[inline]
    pub fn out_weights(&self, u: usize) -> &[u64] {
        &self.weights[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_preserves_insertion_order() {
        // Node 1's edges arrive interleaved with node 0's; each row must
        // still list targets in edge-list order.
        let g = Csr::from_edges(4, &[(1, 3), (0, 2), (1, 0), (0, 1), (1, 1)]);
        assert_eq!(g.out(0), &[2, 1]);
        assert_eq!(g.out(1), &[3, 0, 1]);
        assert_eq!(g.out(2), &[] as &[u32]);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn weighted_rows_stay_aligned() {
        let g = WeightedCsr::from_edges(3, &[(2, 0, 7), (0, 1, 1), (2, 1, 9)]);
        assert_eq!(g.out(2), &[0, 1]);
        assert_eq!(g.out_weights(2), &[7, 9]);
        assert_eq!(g.out(0), &[1]);
        assert_eq!(g.out_weights(0), &[1]);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert!(g.is_empty());
        assert_eq!(g.num_edges(), 0);
        let w = WeightedCsr::from_edges(0, &[]);
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn out_of_range_edge_panics() {
        Csr::from_edges(2, &[(0, 2)]);
    }
}
