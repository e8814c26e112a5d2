//! Cut signals, and what names a LUT input.
//!
//! A K-LUT in a sequential mapping consumes *signals*: either a node's
//! direct output or the output of a register chain fed by a node, with
//! that chain's initial values. [`CutSignal`] names such a signal; a
//! FlowMap solution assigns every LUT root a [`Cut`] (a set of cut
//! signals) whose cone computes the root's function. TurboMap's cuts are
//! [`ExpCut`]s of leaves `u^w`.
//!
//! Both mappers build their LUT networks through one generator
//! ([`crate::generate`]). The cuts differ in one decision, which
//! [`LutCut`] keeps with them: what names a LUT input, and in what order.

use crate::cutenum::{ExpCut, ExpNode};
use netlist::{Bit, Circuit, EdgeId, NodeId};

/// A signal usable as an LUT input.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CutSignal {
    /// The driving node (PI or gate).
    pub node: NodeId,
    /// Initial values of the registers between the driver and the LUT
    /// input, source → sink order.
    pub chain: Vec<Bit>,
}

impl CutSignal {
    /// A direct (unregistered) signal.
    pub fn direct(node: NodeId) -> CutSignal {
        CutSignal {
            node,
            chain: Vec::new(),
        }
    }

    /// A registered tap with the given initial chain.
    pub fn tap(node: NodeId, chain: Vec<Bit>) -> CutSignal {
        CutSignal { node, chain }
    }

    /// Number of registers between the driver and the LUT input.
    pub fn weight(&self) -> usize {
        self.chain.len()
    }
}

/// A K-feasible cut for one LUT root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    /// The signals crossing the cut (the future LUT inputs), deduplicated.
    pub signals: Vec<CutSignal>,
}

/// What a cone instance reads through one fanin edge, as its root's cut
/// decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Read {
    /// Input `i` of [`LutCut::seeds`].
    Seed(usize),
    /// Leaf `u^w`: a LUT input, numbered at its first read.
    Leaf(ExpNode),
    /// Not a cut signal: a gate driver joins the cone.
    Cone,
    /// Not a cut signal, and the cone may not go through it.
    Uncut,
}

/// What names a LUT input, and in what order: the one decision in which
/// the mappers' cuts differ.
pub trait LutCut {
    /// The LUT's inputs before its cone is read, in input order, each
    /// with its register chain.
    fn seeds(&self) -> &[CutSignal];

    /// What a cone instance `weight` registers below the root reads
    /// through its fanin edge `e`.
    fn read(&self, c: &Circuit, e: EdgeId, weight: u64) -> Read;
}

/// A borrowed cut names its LUT's inputs as the cut itself does.
impl<C: LutCut> LutCut for &C {
    fn seeds(&self) -> &[CutSignal] {
        (**self).seeds()
    }

    fn read(&self, c: &Circuit, e: EdgeId, weight: u64) -> Read {
        (**self).read(c, e, weight)
    }
}

/// FlowMap: every cut signal is an input, in cut order (max-flow's), and
/// a read matches one on `(node, chain)`, so two taps of one driver with
/// equal register counts but different initial values stay two inputs.
/// The cone is combinational, so a register it reaches must be cut.
impl LutCut for Cut {
    fn seeds(&self) -> &[CutSignal] {
        &self.signals
    }

    fn read(&self, c: &Circuit, e: EdgeId, _weight: u64) -> Read {
        let edge = c.edge(e);
        // A signal listed twice reads as its last copy.
        let signal = |s: &CutSignal| s.node == edge.from() && s.chain == edge.ffs();
        match self.signals.iter().rposition(signal) {
            Some(i) => Read::Seed(i),
            None if edge.weight() == 0 => Read::Cone,
            None => Read::Uncut,
        }
    }
}

/// TurboMap: a leaf `u^w` is an input once read, and the cone goes on
/// through registers.
impl LutCut for ExpCut {
    fn seeds(&self) -> &[CutSignal] {
        &[]
    }

    fn read(&self, c: &Circuit, e: EdgeId, weight: u64) -> Read {
        let edge = c.edge(e);
        let t = ExpNode {
            node: edge.from(),
            weight: weight + edge.weight() as u64,
        };
        match self.signals.contains(&t) {
            true => Read::Leaf(t),
            false => Read::Cone,
        }
    }
}
