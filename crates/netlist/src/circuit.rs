//! The sequential circuit / retiming graph representation.
//!
//! A [`Circuit`] is the retiming graph `G(V, E, W)` of the paper: nodes are
//! primary inputs, primary outputs and gates (each gate carrying a
//! [`TruthTable`]); each directed edge carries an ordered chain of flip-flops
//! with three-valued initial values (`w(e)` = chain length). Under the unit
//! delay model every gate has delay 1 and PIs/POs delay 0.
//!
//! The FF chain on an edge is ordered **from source to sink**: `ffs[0]` is
//! the register closest to the driving node, `ffs[w-1]` feeds the consumer.

use crate::bit::Bit;
use crate::error::NetlistError;
use crate::intern::{Interner, Symbol};
use crate::truth::TruthTable;
use std::collections::TryReserveError;

/// Identifier of a node within one [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of an edge within one [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The id as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl std::fmt::Display for EdgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// What a node is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// Primary input (no fanin, delay 0).
    Input,
    /// Primary output (exactly one fanin, identity function, delay 0).
    Output,
    /// Logic gate or LUT computing the given function of its ordered fanins.
    Gate(TruthTable),
}

/// Edge ids a node keeps inline per list; longer lists spill to the heap.
const INLINE_EDGES: usize = 5;

/// A node's ordered fanin or fanout edge ids: up to [`INLINE_EDGES`]
/// inline, beyond that in a boxed buffer that doubles as it fills. A
/// list that shrinks back to the inline capacity moves back inline.
/// Either way it occupies 24 bytes in its node.
#[derive(Clone)]
enum EdgeList {
    Inline {
        len: u8,
        ids: [EdgeId; INLINE_EDGES],
    },
    Heap {
        len: u32,
        /// `ids[..len]` are the list; the rest is spare capacity.
        ids: Box<[EdgeId]>,
    },
}

impl EdgeList {
    const EMPTY: EdgeList = EdgeList::Inline {
        len: 0,
        ids: [EdgeId(0); INLINE_EDGES],
    };

    fn as_slice(&self) -> &[EdgeId] {
        match self {
            EdgeList::Inline { len, ids } => &ids[..*len as usize],
            EdgeList::Heap { len, ids } => &ids[..*len as usize],
        }
    }

    fn push(&mut self, e: EdgeId) {
        match self {
            EdgeList::Inline { len, ids } if (*len as usize) < INLINE_EDGES => {
                ids[*len as usize] = e;
                *len += 1;
            }
            EdgeList::Heap { len, ids } if (*len as usize) < ids.len() => {
                ids[*len as usize] = e;
                *len += 1;
            }
            full => {
                let old = full.as_slice();
                let mut grown = Vec::with_capacity(2 * old.len());
                grown.extend_from_slice(old);
                grown.push(e);
                let len = grown.len() as u32;
                grown.resize(2 * old.len(), EdgeId(0));
                *full = EdgeList::Heap {
                    len,
                    ids: grown.into_boxed_slice(),
                };
            }
        }
    }

    /// Removes the entry at `pos`, keeping the order of the rest.
    fn remove(&mut self, pos: usize) {
        match self {
            EdgeList::Inline { len, ids } => {
                ids.copy_within(pos + 1..*len as usize, pos);
                *len -= 1;
            }
            EdgeList::Heap { len, ids } => {
                ids.copy_within(pos + 1..*len as usize, pos);
                *len -= 1;
                if *len as usize <= INLINE_EDGES {
                    let mut inline = EdgeList::EMPTY;
                    for &e in &ids[..*len as usize] {
                        inline.push(e);
                    }
                    *self = inline;
                }
            }
        }
    }
}

impl PartialEq for EdgeList {
    fn eq(&self, other: &EdgeList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for EdgeList {}

impl std::fmt::Debug for EdgeList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// What the circuit stores per node; its name is the node's symbol in
/// the circuit's name table.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NodeRec {
    kind: NodeKind,
    fanin: EdgeList,
    fanout: EdgeList,
}

/// A node of the retiming graph: a `Copy` view into its [`Circuit`],
/// from [`Circuit::node`].
#[derive(Clone, Copy)]
pub struct Node<'a> {
    rec: &'a NodeRec,
    names: &'a Interner,
    id: NodeId,
}

impl<'a> Node<'a> {
    /// The node's unique name.
    pub fn name(&self) -> &'a str {
        self.names.resolve(Symbol(self.id.0))
    }

    /// The node's kind.
    pub fn kind(&self) -> &'a NodeKind {
        &self.rec.kind
    }

    /// Ordered fanin edges (gate pin `i` = `fanin()[i]`).
    pub fn fanin(&self) -> &'a [EdgeId] {
        self.rec.fanin.as_slice()
    }

    /// Fanout edges, in the order they were attached.
    pub fn fanout(&self) -> &'a [EdgeId] {
        self.rec.fanout.as_slice()
    }

    /// The gate function, if this node is a gate.
    pub fn function(&self) -> Option<&'a TruthTable> {
        match &self.rec.kind {
            NodeKind::Gate(tt) => Some(tt),
            _ => None,
        }
    }

    /// True for primary inputs.
    pub fn is_input(&self) -> bool {
        matches!(self.rec.kind, NodeKind::Input)
    }

    /// True for primary outputs.
    pub fn is_output(&self) -> bool {
        matches!(self.rec.kind, NodeKind::Output)
    }

    /// True for gates.
    pub fn is_gate(&self) -> bool {
        matches!(self.rec.kind, NodeKind::Gate(_))
    }

    /// Unit-model delay: 1 for gates, 0 for PIs/POs.
    pub fn delay(&self) -> u64 {
        if self.is_gate() {
            1
        } else {
            0
        }
    }
}

impl std::fmt::Debug for Node<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.name())
            .field("kind", self.kind())
            .field("fanin", &self.fanin())
            .field("fanout", &self.fanout())
            .finish()
    }
}

/// What the circuit stores per edge: its ends and where its FF chain
/// lies in the circuit's chain pool. An empty chain sits at offset 0.
#[derive(Debug, Clone, Copy)]
struct EdgeRec {
    from: NodeId,
    to: NodeId,
    start: u32,
    len: u32,
}

impl EdgeRec {
    /// The chain's place in the pool.
    fn chain(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// An edge of the retiming graph with its flip-flop chain: a `Copy` view
/// into its [`Circuit`], from [`Circuit::edge`].
#[derive(Clone, Copy)]
pub struct Edge<'a> {
    rec: EdgeRec,
    pool: &'a [Bit],
}

impl<'a> Edge<'a> {
    /// Driving node.
    pub fn from(&self) -> NodeId {
        self.rec.from
    }

    /// Consuming node.
    pub fn to(&self) -> NodeId {
        self.rec.to
    }

    /// Edge weight `w(e)` — the number of flip-flops on the connection.
    pub fn weight(&self) -> usize {
        self.rec.len as usize
    }

    /// Initial values of the FF chain, ordered from source to sink.
    pub fn ffs(&self) -> &'a [Bit] {
        &self.pool[self.rec.chain()]
    }
}

/// Edges are equal when their ends and chain contents are.
impl PartialEq for Edge<'_> {
    fn eq(&self, other: &Edge<'_>) -> bool {
        (self.from(), self.to(), self.ffs()) == (other.from(), other.to(), other.ffs())
    }
}

impl Eq for Edge<'_> {}

impl std::fmt::Debug for Edge<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Edge")
            .field("from", &self.from())
            .field("to", &self.to())
            .field("ffs", &self.ffs())
            .finish()
    }
}

/// The chains of `edges`, back to back in edge order, read from `pool`;
/// each record's offset moves to its new place. `live` is their total
/// length.
fn pack(edges: &mut [EdgeRec], pool: &[Bit], live: usize) -> Vec<Bit> {
    let mut packed = Vec::with_capacity(live);
    for e in edges.iter_mut().filter(|e| e.len > 0) {
        let at = packed.len() as u32;
        packed.extend_from_slice(&pool[e.chain()]);
        e.start = at;
    }
    packed
}

/// A sequential circuit represented as a retiming graph.
///
/// Each field is one allocation, whatever the size: node records (kind,
/// inline truth table, inline fanin and fanout lists), 16-byte edge
/// records, one pool that holds every edge's FF chain, the PI and PO
/// lists, and a name table whose symbol `i` is node `i`'s name.
///
/// A chain that [`Circuit::set_ffs`] grows moves to the end of the pool
/// and leaves its old bits behind. Cloning and
/// [`Circuit::shrink_to_fit`] pack the pool, and so does a growth that
/// finds more bits left behind than live bits and edges together.
/// Equality compares chain contents, never where they lie.
///
/// # Examples
///
/// ```
/// use netlist::{Bit, Circuit, TruthTable};
///
/// // A 1-bit toggle: ff_out = NOT(ff_out), one FF initialised to 0.
/// let mut c = Circuit::new("toggle");
/// let inv = c.add_gate("inv", TruthTable::not()).unwrap();
/// let po = c.add_output("out").unwrap();
/// c.connect(inv, inv, vec![Bit::Zero]).unwrap();
/// c.connect(inv, po, vec![]).unwrap();
/// assert_eq!(c.num_gates(), 1);
/// assert_eq!(c.ff_count_shared(), 1);
/// ```
pub struct Circuit {
    name: String,
    nodes: Vec<NodeRec>,
    edges: Vec<EdgeRec>,
    /// Every edge's FF chain, at the offset its record names.
    ffs: Vec<Bit>,
    /// Pool bits no chain uses any more.
    dead: usize,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    /// Node names: symbol `i` names node `i`.
    names: Interner,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new(name: impl Into<String>) -> Circuit {
        Circuit {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            ffs: Vec::new(),
            dead: 0,
            inputs: Vec::new(),
            outputs: Vec::new(),
            names: Interner::new(),
        }
    }

    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    fn add_node(&mut self, name: &str, kind: NodeKind) -> Result<NodeId, NetlistError> {
        let id = NodeId(self.nodes.len() as u32);
        // A new name gets the next symbol; a taken one returns its own.
        if self.names.intern(name) != Symbol(id.0) {
            return Err(NetlistError::DuplicateName(name.to_string()));
        }
        self.nodes.push(NodeRec {
            kind,
            fanin: EdgeList::EMPTY,
            fanout: EdgeList::EMPTY,
        });
        Ok(id)
    }

    /// Reserves room for `nodes` more nodes with `name_bytes` bytes of
    /// names in all, `edges` more edges and `ffs` more chain bits.
    ///
    /// # Errors
    ///
    /// Returns the allocator's refusal of any table.
    pub fn reserve(
        &mut self,
        nodes: usize,
        name_bytes: usize,
        edges: usize,
        ffs: usize,
    ) -> Result<(), TryReserveError> {
        // The name index is filled as it is made, so it comes last.
        self.nodes.try_reserve(nodes)?;
        self.edges.try_reserve(edges)?;
        self.ffs.try_reserve(ffs)?;
        self.names.reserve(nodes, name_bytes)
    }

    /// Packs the chain pool and releases the spare capacity of every
    /// table.
    pub fn shrink_to_fit(&mut self) {
        self.pack_pool();
        self.nodes.shrink_to_fit();
        self.edges.shrink_to_fit();
        self.ffs.shrink_to_fit();
        self.inputs.shrink_to_fit();
        self.outputs.shrink_to_fit();
        self.names.shrink_to_fit();
    }

    /// Adds a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_input(&mut self, name: impl AsRef<str>) -> Result<NodeId, NetlistError> {
        let id = self.add_node(name.as_ref(), NodeKind::Input)?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Adds a primary output (connect its single fanin with [`Circuit::connect`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_output(&mut self, name: impl AsRef<str>) -> Result<NodeId, NetlistError> {
        let id = self.add_node(name.as_ref(), NodeKind::Output)?;
        self.outputs.push(id);
        Ok(id)
    }

    /// Adds a gate computing `function` of its future fanins (in connect
    /// order).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_gate(
        &mut self,
        name: impl AsRef<str>,
        function: TruthTable,
    ) -> Result<NodeId, NetlistError> {
        self.add_node(name.as_ref(), NodeKind::Gate(function))
    }

    /// Connects `from -> to` with the given FF chain (`ffs[0]` nearest
    /// `from`). The new edge becomes the next fanin pin of `to`.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::InputHasFanin`] when `to` is a primary input.
    /// * [`NetlistError::OutputHasFanout`] when `from` is a primary output.
    /// * [`NetlistError::ArityMismatch`] when `to` already has as many
    ///   fanins as its function allows (or an output already has one).
    pub fn connect(
        &mut self,
        from: NodeId,
        to: NodeId,
        ffs: impl AsRef<[Bit]>,
    ) -> Result<EdgeId, NetlistError> {
        let sink = self.node(to);
        if sink.is_input() {
            return Err(NetlistError::InputHasFanin(sink.name().to_string()));
        }
        if self.node(from).is_output() {
            return Err(NetlistError::OutputHasFanout(
                self.node(from).name().to_string(),
            ));
        }
        let max_pins = match sink.kind() {
            NodeKind::Output => 1,
            NodeKind::Gate(tt) => tt.num_inputs(),
            NodeKind::Input => unreachable!(),
        };
        if sink.fanin().len() >= max_pins {
            return Err(NetlistError::ArityMismatch {
                node: sink.name().to_string(),
                expected: max_pins,
                actual: sink.fanin().len() + 1,
            });
        }
        let id = EdgeId(u32::try_from(self.edges.len()).expect("fewer than 2^32 edges"));
        self.edges.push(EdgeRec {
            from,
            to,
            start: 0,
            len: 0,
        });
        self.set_ffs(id, ffs);
        self.nodes[to.index()].fanin.push(id);
        self.nodes[from.index()].fanout.push(id);
        Ok(id)
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> Node<'_> {
        Node {
            rec: &self.nodes[id.index()],
            names: &self.names,
            id,
        }
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edge(&self, id: EdgeId) -> Edge<'_> {
        Edge {
            rec: self.edges[id.index()],
            pool: &self.ffs,
        }
    }

    /// The FF chain of an edge, for changing its values in place; change
    /// its length with [`Circuit::set_ffs`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn ffs_mut(&mut self, id: EdgeId) -> &mut [Bit] {
        let chain = self.edges[id.index()].chain();
        &mut self.ffs[chain]
    }

    /// Replaces the FF chain of an edge (`ffs[0]` nearest its source). A
    /// chain no longer than the old one takes its place; a longer one
    /// moves to the end of the pool, unless it is there already.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, or if the pool would hold
    /// `2^32` bits or more.
    pub fn set_ffs(&mut self, id: EdgeId, ffs: impl AsRef<[Bit]>) {
        let ffs = ffs.as_ref();
        let rec = self.edges[id.index()];
        let (start, old, new) = (rec.start as usize, rec.len as usize, ffs.len());
        let start = if old > 0 && start + old == self.ffs.len() {
            // The last chain of the pool grows or shrinks where it is.
            self.ffs.truncate(start);
            self.ffs.extend_from_slice(ffs);
            start
        } else if new <= old {
            self.ffs[start..start + new].copy_from_slice(ffs);
            self.dead += old - new;
            start
        } else {
            self.edges[id.index()].len = 0;
            self.dead += old;
            if self.dead > self.ffs.len() - self.dead + self.edges.len() {
                self.pack_pool();
            }
            let end = self.ffs.len();
            self.ffs.extend_from_slice(ffs);
            end
        };
        assert!(
            u32::try_from(self.ffs.len()).is_ok(),
            "the FF chain pool holds 2^32 bits or more"
        );
        let rec = &mut self.edges[id.index()];
        rec.start = if new == 0 { 0 } else { start as u32 };
        rec.len = new as u32;
    }

    /// Lays the chains out back to back in edge order, dropping the bits
    /// that no chain uses.
    fn pack_pool(&mut self) {
        if self.dead > 0 {
            let live = self.ffs.len() - self.dead;
            self.ffs = pack(&mut self.edges, &self.ffs, live);
            self.dead = 0;
        }
    }

    /// Redirects the *source* of an existing edge to `new_from`, keeping
    /// its sink, pin position and FF chain (used by netlist growth and
    /// rewiring passes).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::OutputHasFanout`] when `new_from` is a
    /// primary output.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `new_from` is out of range.
    pub fn rewire_from(&mut self, id: EdgeId, new_from: NodeId) -> Result<(), NetlistError> {
        if self.node(new_from).is_output() {
            return Err(NetlistError::OutputHasFanout(
                self.node(new_from).name().to_string(),
            ));
        }
        let old_from = self.edges[id.index()].from;
        if old_from == new_from {
            return Ok(());
        }
        let fanout = &mut self.nodes[old_from.index()].fanout;
        let pos = fanout
            .as_slice()
            .iter()
            .position(|&e| e == id)
            .expect("edge listed in its source's fanout");
        fanout.remove(pos);
        self.edges[id.index()].from = new_from;
        self.nodes[new_from.index()].fanout.push(id);
        Ok(())
    }

    /// Replaces a gate's function (used by logic restructuring passes).
    ///
    /// # Panics
    ///
    /// Panics if the node is not a gate or the arity changes.
    pub fn set_function(&mut self, id: NodeId, function: TruthTable) {
        let node = &mut self.nodes[id.index()];
        match &node.kind {
            NodeKind::Gate(old) => {
                assert_eq!(
                    old.num_inputs(),
                    function.num_inputs(),
                    "set_function must preserve arity"
                );
                node.kind = NodeKind::Gate(function);
            }
            _ => panic!("set_function on a non-gate node"),
        }
    }

    /// Looks a node up by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).map(|s| NodeId(s.0))
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Ids of gate nodes.
    pub fn gate_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&v| self.node(v).is_gate())
    }

    /// Number of nodes (PIs + POs + gates).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Gate(_)))
            .count()
    }

    /// Total FF count without register sharing (sum of edge weights).
    pub fn ff_count_total(&self) -> usize {
        self.ffs.len() - self.dead
    }

    /// FF count **with register sharing**: each node contributes the maximum
    /// weight over its fanout edges (a shared shift register that consumers
    /// tap at their own depth). This is the FF metric reported by the
    /// retiming literature and by Table 1 of the paper.
    pub fn ff_count_shared(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                n.fanout
                    .as_slice()
                    .iter()
                    .map(|&e| self.edge(e).weight())
                    .max()
                    .unwrap_or(0)
            })
            .sum()
    }

    /// True when, for every node, the FF chains of its fanout edges agree on
    /// their shared prefix (so the sharing count of
    /// [`Circuit::ff_count_shared`] is physically realisable with these
    /// initial values).
    pub fn sharing_consistent(&self) -> bool {
        self.nodes.iter().all(|n| {
            let chains: Vec<&[Bit]> = n
                .fanout
                .as_slice()
                .iter()
                .map(|&e| self.edge(e).ffs())
                .collect();
            let maxw = chains.iter().map(|c| c.len()).max().unwrap_or(0);
            (0..maxw).all(|i| {
                let mut merged = Bit::X;
                for c in &chains {
                    if let Some(&b) = c.get(i) {
                        match merged.merge(b) {
                            Some(m) => merged = m,
                            None => return false,
                        }
                    }
                }
                true
            })
        })
    }

    /// Adjacency over all edges with FF counts as weights.
    pub fn weighted_adjacency(&self) -> Vec<Vec<(usize, u64)>> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            adj[e.from.index()].push((e.to.index(), u64::from(e.len)));
        }
        adj
    }

    /// Adjacency over **combinational** (zero-weight) edges in flat CSR
    /// form: one stable counting pass over the edge list, no per-node heap
    /// rows. Rows list targets in edge-id order.
    pub fn comb_csr(&self) -> graphalgo::Csr {
        let n = self.nodes.len();
        let edges: Vec<(usize, usize)> = self
            .edges
            .iter()
            .filter(|e| e.len == 0)
            .map(|e| (e.from.index(), e.to.index()))
            .collect();
        graphalgo::Csr::from_edges(n, &edges)
    }

    /// [`Circuit::weighted_adjacency`] in flat CSR form (all edges, FF
    /// counts as weights).
    pub fn weighted_csr(&self) -> graphalgo::WeightedCsr {
        let n = self.nodes.len();
        let edges: Vec<(usize, usize, u64)> = self
            .edges
            .iter()
            .map(|e| (e.from.index(), e.to.index(), u64::from(e.len)))
            .collect();
        graphalgo::WeightedCsr::from_edges(n, &edges)
    }

    /// A topological order of the zero-weight subgraph (evaluation order for
    /// one clock cycle).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] when the circuit has a
    /// zero-weight cycle.
    pub fn comb_topo_order(&self) -> Result<Vec<NodeId>, NetlistError> {
        graphalgo::topo_order_csr(&self.comb_csr())
            .map(|o| o.into_iter().map(|i| NodeId(i as u32)).collect())
            .map_err(|e| NetlistError::CombinationalCycle {
                nodes: e
                    .cyclic_nodes
                    .iter()
                    .map(|&i| self.names.resolve(Symbol(i as u32)).to_string())
                    .collect(),
            })
    }

    /// Arrival time of every node under the unit delay model, indexed by
    /// node: the node's delay plus the latest arrival over its
    /// register-free fanins.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] on zero-weight cycles.
    pub fn arrival_times(&self) -> Result<Vec<u64>, NetlistError> {
        let order = self.comb_topo_order()?;
        let mut arrival = vec![0u64; self.nodes.len()];
        for v in order {
            let node = self.node(v);
            let mut best = 0u64;
            for &e in node.fanin() {
                let edge = self.edge(e);
                if edge.weight() == 0 {
                    best = best.max(arrival[edge.from().index()]);
                }
            }
            arrival[v.index()] = best + node.delay();
        }
        Ok(arrival)
    }

    /// The clock period under the unit delay model: the maximum number of
    /// gates on any register-free path (between PIs, POs and FFs), the
    /// largest of [`Circuit::arrival_times`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] on zero-weight cycles.
    pub fn clock_period(&self) -> Result<u64, NetlistError> {
        Ok(self.arrival_times()?.into_iter().max().unwrap_or(0))
    }

    /// Maximum gate fanin.
    pub fn max_fanin(&self) -> usize {
        self.gate_ids()
            .map(|v| self.node(v).fanin().len())
            .max()
            .unwrap_or(0)
    }
}

/// A clone packs the chain pool.
impl Clone for Circuit {
    fn clone(&self) -> Circuit {
        let mut edges = self.edges.clone();
        let ffs = pack(&mut edges, &self.ffs, self.ff_count_total());
        Circuit {
            name: self.name.clone(),
            nodes: self.nodes.clone(),
            edges,
            ffs,
            dead: 0,
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
            names: self.names.clone(),
        }
    }
}

/// Circuits are equal when their names, nodes, edges (ends and chain
/// contents) and ports are; where the chains lie in the pool does not
/// count.
impl PartialEq for Circuit {
    fn eq(&self, other: &Circuit) -> bool {
        self.name == other.name
            && self.nodes == other.nodes
            && self.inputs == other.inputs
            && self.outputs == other.outputs
            && self.names == other.names
            && self.num_edges() == other.num_edges()
            && self.edge_ids().all(|e| self.edge(e) == other.edge(e))
    }
}

impl Eq for Circuit {}

impl std::fmt::Debug for Circuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let edges: Vec<Edge<'_>> = self.edge_ids().map(|e| self.edge(e)).collect();
        f.debug_struct("Circuit")
            .field("name", &self.name)
            .field("nodes", &self.nodes)
            .field("edges", &edges)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .field("names", &self.names)
            .finish()
    }
}

impl std::fmt::Display for Circuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} PIs, {} POs, {} gates, {} FFs (shared)",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.num_gates(),
            self.ff_count_shared()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Circuit, NodeId, NodeId, NodeId, NodeId) {
        let mut c = Circuit::new("tiny");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g = c.add_gate("g", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(b, g, vec![Bit::One]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        (c, a, b, g, o)
    }

    #[test]
    fn build_and_query() {
        let (c, a, _b, g, o) = tiny();
        assert_eq!(c.num_nodes(), 4);
        assert_eq!(c.num_gates(), 1);
        assert_eq!(c.ff_count_total(), 1);
        assert_eq!(c.ff_count_shared(), 1);
        assert_eq!(c.find("g"), Some(g));
        assert_eq!(c.node(a).fanout().len(), 1);
        assert_eq!(c.node(o).fanin().len(), 1);
        assert_eq!(c.node(g).delay(), 1);
        assert_eq!(c.node(a).delay(), 0);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut c = Circuit::new("t");
        c.add_input("a").unwrap();
        assert!(matches!(
            c.add_gate("a", TruthTable::not()),
            Err(NetlistError::DuplicateName(_))
        ));
    }

    #[test]
    fn arity_enforced() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::not()).unwrap();
        c.connect(a, g, vec![]).unwrap();
        assert!(matches!(
            c.connect(a, g, vec![]),
            Err(NetlistError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn input_cannot_have_fanin() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        assert!(matches!(
            c.connect(a, b, vec![]),
            Err(NetlistError::InputHasFanin(_))
        ));
    }

    #[test]
    fn output_cannot_drive() {
        let mut c = Circuit::new("t");
        let o = c.add_output("o").unwrap();
        let g = c.add_gate("g", TruthTable::not()).unwrap();
        assert!(matches!(
            c.connect(o, g, vec![]),
            Err(NetlistError::OutputHasFanout(_))
        ));
    }

    #[test]
    fn clock_period_counts_gates_between_ffs() {
        // a -> g1 -> g2 -FF-> g3 -> o : longest comb path has 2 gates.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g1 = c.add_gate("g1", TruthTable::buf()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::buf()).unwrap();
        let g3 = c.add_gate("g3", TruthTable::buf()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g2, g3, vec![Bit::Zero]).unwrap();
        c.connect(g3, o, vec![]).unwrap();
        assert_eq!(c.clock_period().unwrap(), 2);
    }

    #[test]
    fn comb_cycle_detected() {
        let mut c = Circuit::new("t");
        let g1 = c.add_gate("g1", TruthTable::buf()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::buf()).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g2, g1, vec![]).unwrap();
        assert!(matches!(
            c.clock_period(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn ff_cycle_is_fine() {
        let mut c = Circuit::new("t");
        let g1 = c.add_gate("g1", TruthTable::buf()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::buf()).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g2, g1, vec![Bit::Zero]).unwrap();
        assert_eq!(c.clock_period().unwrap(), 2);
    }

    #[test]
    fn shared_ff_count_uses_max_fanout_weight() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g1 = c.add_gate("g1", TruthTable::buf()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::buf()).unwrap();
        let o1 = c.add_output("o1").unwrap();
        let o2 = c.add_output("o2").unwrap();
        c.connect(a, g1, vec![Bit::Zero, Bit::One]).unwrap();
        c.connect(a, g2, vec![Bit::Zero]).unwrap();
        c.connect(g1, o1, vec![]).unwrap();
        c.connect(g2, o2, vec![]).unwrap();
        assert_eq!(c.ff_count_total(), 3);
        assert_eq!(c.ff_count_shared(), 2);
        assert!(c.sharing_consistent());
    }

    #[test]
    fn sharing_conflict_detected() {
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
        assert!(!c.sharing_consistent());
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn node_record_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<EdgeList>(), 24);
        assert_eq!(std::mem::size_of::<NodeKind>(), 16);
        assert_eq!(std::mem::size_of::<NodeRec>(), 64);
    }

    /// `n` buffers named `g0..`, each fed by `src`.
    fn fan_out(c: &mut Circuit, src: NodeId, n: usize) -> Vec<EdgeId> {
        (0..n)
            .map(|i| {
                let g = c.add_gate(format!("g{i}"), TruthTable::buf()).unwrap();
                c.connect(src, g, vec![]).unwrap()
            })
            .collect()
    }

    #[test]
    fn fanout_order_survives_spill_and_rewire() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let mut on_a = fan_out(&mut c, a, 3 * INLINE_EDGES);
        assert_eq!(c.node(a).fanout(), &on_a[..]);
        // Rewire from the middle, the front and the back until `a` fits
        // inline again; both lists keep their order.
        let mut on_b = Vec::new();
        for pos in [7, 0, 11, 3, 3, 0, 8, 2, 5, 1] {
            let e = on_a.remove(pos % on_a.len());
            c.rewire_from(e, b).unwrap();
            on_b.push(e);
            assert_eq!(c.node(a).fanout(), &on_a[..]);
            assert_eq!(c.node(b).fanout(), &on_b[..]);
            assert_eq!(c.edge(e).from(), b);
        }
        assert!(on_a.len() <= INLINE_EDGES);
        // And back: `a` spills a second time, appending in rewire order.
        for e in on_b.drain(..).rev() {
            c.rewire_from(e, a).unwrap();
            on_a.push(e);
        }
        assert_eq!(c.node(a).fanout(), &on_a[..]);
        assert!(c.node(b).fanout().is_empty());
        // Rewiring to the current source is a no-op.
        c.rewire_from(on_a[0], a).unwrap();
        assert_eq!(c.node(a).fanout(), &on_a[..]);
    }

    #[test]
    fn find_and_duplicates_over_many_names() {
        let mut c = Circuit::new("t");
        let ids: Vec<NodeId> = (0..10_000)
            .map(|i| match i % 3 {
                0 => c.add_input(format!("n{i}")),
                1 => c.add_gate(format!("n{i}"), TruthTable::and(2)),
                _ => c.add_output(format!("n{i}")),
            })
            .collect::<Result<_, _>>()
            .unwrap();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(c.find(&format!("n{i}")), Some(id));
            assert_eq!(c.node(id).name(), format!("n{i}"));
        }
        assert_eq!(c.find("n10000"), None);
        assert_eq!(c.find(""), None);
        for i in (0..10_000).step_by(997) {
            match c.add_gate(format!("n{i}"), TruthTable::not()) {
                Err(NetlistError::DuplicateName(name)) => assert_eq!(name, format!("n{i}")),
                other => panic!("expected DuplicateName, got {other:?}"),
            }
        }
        assert_eq!(c.num_nodes(), 10_000);
        // A rejected name leaves no trace: the next node still gets it.
        let fresh = c.add_gate("fresh", TruthTable::not()).unwrap();
        assert_eq!(fresh, NodeId(10_000));
        assert_eq!(c.find("fresh"), Some(fresh));
    }

    #[test]
    fn clone_and_equality_compare_contents() {
        let (c, ..) = tiny();
        let mut d = c.clone();
        assert_eq!(c, d);
        d.shrink_to_fit();
        assert_eq!(c, d);
        d.set_function(c.find("g").unwrap(), TruthTable::or(2));
        assert_ne!(c, d);

        // A fanout list that spilled and came back equals one that never
        // spilled.
        let mut spilled = Circuit::new("t");
        let a = spilled.add_input("a").unwrap();
        let b = spilled.add_input("b").unwrap();
        let edges = fan_out(&mut spilled, a, INLINE_EDGES + 2);
        for &e in &edges[INLINE_EDGES..] {
            spilled.rewire_from(e, b).unwrap();
        }
        let mut direct = Circuit::new("t");
        let a = direct.add_input("a").unwrap();
        let b = direct.add_input("b").unwrap();
        for i in 0..INLINE_EDGES + 2 {
            let g = direct.add_gate(format!("g{i}"), TruthTable::buf()).unwrap();
            let src = if i < INLINE_EDGES { a } else { b };
            direct.connect(src, g, vec![]).unwrap();
        }
        assert_eq!(spilled, direct);
        assert_eq!(spilled.clone(), direct);
        direct.set_name("u");
        assert_ne!(spilled, direct);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn edge_record_is_16_bytes() {
        assert_eq!(std::mem::size_of::<EdgeRec>(), 16);
    }

    fn random_chain(rng: &mut engine::rng::Rng64, max: usize) -> Vec<Bit> {
        let len = rng.below(max + 1);
        (0..len)
            .map(|_| [Bit::Zero, Bit::One, Bit::X][rng.below(3)])
            .collect()
    }

    /// `c`'s edges against the model: ends and chains, the FF count, and
    /// the pool's live bits.
    fn check_model(c: &Circuit, ends: &[(NodeId, NodeId)], chains: &[Vec<Bit>], step: usize) {
        assert_eq!(c.num_edges(), chains.len());
        for (i, chain) in chains.iter().enumerate() {
            let e = c.edge(EdgeId(i as u32));
            assert_eq!((e.from(), e.to()), ends[i], "step {step}, edge {i}");
            assert_eq!(e.ffs(), &chain[..], "step {step}, edge {i}");
            assert_eq!(e.weight(), chain.len());
        }
        let live: usize = chains.iter().map(Vec::len).sum();
        assert_eq!(c.ff_count_total(), live, "step {step}");
        assert_eq!(c.ffs.len() - c.dead, live, "step {step}");
        assert!(
            c.ffs.len() <= 2 * live + c.num_edges() + 8,
            "step {step}: pool {} for {live}",
            c.ffs.len()
        );
    }

    /// Random chain edits against a `Vec<Vec<Bit>>` model: whole-chain
    /// sets, pushes at the front, pops at the back, in-place bit flips,
    /// rewiring, clones and shrinking. A circuit whose pool holds
    /// garbage equals one rebuilt from the model.
    #[test]
    fn chain_edits_match_a_vec_model() {
        let mut rng = engine::rng::Rng64::new(0xC4A1);
        for round in 0..8 {
            let mut c = Circuit::new("pool");
            let srcs: Vec<NodeId> = (0..4)
                .map(|i| c.add_input(format!("i{i}")).unwrap())
                .collect();
            let n = 12 + rng.below(24);
            let mut ends = Vec::new();
            let mut chains = Vec::new();
            for g in 0..n {
                let v = c.add_gate(format!("g{g}"), TruthTable::buf()).unwrap();
                let chain = random_chain(&mut rng, 3);
                let u = srcs[rng.below(srcs.len())];
                c.connect(u, v, &chain).unwrap();
                ends.push((u, v));
                chains.push(chain);
            }
            let mut twin = c.clone();
            for step in 0..400 {
                let i = rng.below(n);
                let e = EdgeId(i as u32);
                match rng.below(8) {
                    0 => {
                        chains[i] = random_chain(&mut rng, 6);
                        c.set_ffs(e, &chains[i]);
                    }
                    1 => {
                        let b = [Bit::Zero, Bit::One, Bit::X][rng.below(3)];
                        chains[i].insert(0, b);
                        let grown: Vec<Bit> = std::iter::once(b)
                            .chain(c.edge(e).ffs().iter().copied())
                            .collect();
                        c.set_ffs(e, grown);
                    }
                    2 => {
                        chains[i].pop();
                        let w = c.edge(e).weight().saturating_sub(1);
                        let kept = c.edge(e).ffs()[..w].to_vec();
                        c.set_ffs(e, kept);
                    }
                    3 => {
                        if let Some(j) = (!chains[i].is_empty()).then(|| rng.below(chains[i].len()))
                        {
                            let flipped = match chains[i][j] {
                                Bit::Zero => Bit::One,
                                Bit::One => Bit::X,
                                Bit::X => Bit::Zero,
                            };
                            chains[i][j] = flipped;
                            c.ffs_mut(e)[j] = flipped;
                        }
                    }
                    4 => {
                        let u = srcs[rng.below(srcs.len())];
                        c.rewire_from(e, u).unwrap();
                        ends[i].0 = u;
                    }
                    5 => {
                        let d = c.clone();
                        assert_eq!(d.dead, 0);
                        assert_eq!(d, c, "round {round}, step {step}");
                        c = d;
                    }
                    6 => {
                        c.shrink_to_fit();
                        assert_eq!(c.dead, 0);
                    }
                    _ => {
                        chains[i].clear();
                        c.set_ffs(e, []);
                    }
                }
                if twin.edge(e).from() != ends[i].0 {
                    twin.rewire_from(e, ends[i].0).unwrap();
                }
                twin.set_ffs(e, &chains[i]);
                check_model(&c, &ends, &chains, step);
            }
            // The twin took every edit as a whole chain: its pool lies
            // differently, its circuit is the same.
            assert_eq!(c, twin, "round {round}");
            assert_eq!(c.clone(), twin.clone(), "round {round}");
            if let Some(i) = chains.iter().position(|ch| !ch.is_empty()) {
                let e = EdgeId(i as u32);
                let b = c.edge(e).ffs()[0];
                twin.ffs_mut(e)[0] = if b == Bit::One { Bit::Zero } else { Bit::One };
                assert_ne!(c, twin, "round {round}");
            }
        }
    }
}
