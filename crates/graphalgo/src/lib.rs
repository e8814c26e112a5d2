//! Graph algorithm kernel for the TurboMap-frt reproduction.
//!
//! This crate provides the handful of classical graph algorithms that the
//! mapping and retiming stack is built on:
//!
//! * [`flow`] — maximum flow / minimum cut with **unit node capacities**
//!   (via node splitting), the engine behind FlowMap-style K-feasible cut
//!   computation ([Cong & Ding 1994], [Cong & Wu 1996]).
//! * [`paths`] — Dijkstra shortest paths with non-negative weights (used for
//!   the maximum forward-retiming values `frt(v)`, Lemma 1 of the paper) and
//!   Bellman–Ford-style longest paths with positive-cycle detection (used for
//!   the l-values of Theorem 1).
//! * [`topo`] — topological ordering with cycle reporting.
//! * [`scc`] — Tarjan strongly connected components.
//! * [`csr`] — flat compressed-sparse-row graph storage shared by the
//!   algorithm cores.
//!
//! All algorithms operate on plain index-based graphs so they stay
//! decoupled from the netlist representation: the traversals run on
//! [`Csr`] / [`WeightedCsr`], the longest-path solver on an edge list.
//!
//! # Examples
//!
//! Finding a minimum node cut between a source and a sink:
//!
//! ```
//! use graphalgo::flow::NodeCutNetwork;
//!
//! // Diamond: 0 -> {1, 2} -> 3. The min node cut separating 0 from 3
//! // (with 0 and 3 uncuttable) is {1, 2}.
//! let mut net = NodeCutNetwork::new(4);
//! net.add_edge(0, 1);
//! net.add_edge(0, 2);
//! net.add_edge(1, 3);
//! net.add_edge(2, 3);
//! let result = net.max_flow(0, 3, 10);
//! assert_eq!(result.flow, 2);
//! let cut = net.min_cut(0);
//! assert_eq!(cut.cut_nodes, vec![1, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod flow;
pub mod paths;
pub mod scc;
pub mod topo;

pub use csr::{Csr, WeightedCsr};
pub use flow::{MaxFlowResult, MinCutResult, NodeCutNetwork};
pub use paths::{
    dijkstra_csr, longest_paths, DijkstraScratch, LongestPathError, LongestPathScratch, NEG_INF,
};
pub use scc::strongly_connected_components_csr;
pub use topo::{topo_order_csr, TopoError};
