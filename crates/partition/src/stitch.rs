//! Stitch-and-legalize: merge mapped blocks back into one circuit.
//!
//! Stitching re-attaches every seam's register chain between the
//! producer block's mapped driver and the consumer block's pins, with
//! the original initial states. The invariants that make this sound:
//!
//! * **Seams are frozen** ([`crate::extract`]): no block retiming moved
//!   a register across a seam, so the cut chains — bits included — carry
//!   over verbatim, and every block-internal initial state was already
//!   computed by the per-block forward-retiming mapper.
//! * **Pin order** is preserved: each mapped sink's fanins are replayed
//!   in pin order, substituting the stitched driver wherever a block pin
//!   was a seam pseudo-PI.
//! * **Chain concatenation** is source→sink: producer-side residue (the
//!   mapped `u → __seam` edge, empty unless the mapper legally parked
//!   registers there), then the cut chain, then consumer-side residue.
//!
//! Legalization then re-validates the merged netlist: FF fanout sharing
//! must be consistent and the merged graph must have a well-defined
//! clock period (no zero-weight cycle across blocks).
//!
//! Gate names colliding across blocks (mapping can mint helper names
//! independently per block) are deterministically renamed with a
//! `__b<block>` suffix; PI/PO names are global and never renamed.

use crate::extract::{seam_name, ExtractedBlocks};
use crate::PartitionError;
use netlist::{Bit, Circuit, NodeId};

/// Summary of one stitch pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StitchStats {
    /// Seams re-attached.
    pub seams: usize,
    /// Registers restored on seam chains.
    pub seam_ffs: usize,
    /// Gates renamed to resolve cross-block name collisions.
    pub renamed: usize,
}

/// Resolved driver of a seam: the merged node plus any producer-side
/// residue chain that must precede the cut chain.
#[derive(Debug, Clone)]
struct SeamDriver {
    node: NodeId,
    residue: Vec<Bit>,
}

/// Merges `mapped` (one mapped circuit per block of `ex`, block order)
/// into a single circuit over `source`'s interface.
///
/// # Errors
///
/// [`PartitionError::SeamCycle`] when seam drivers form a wire-only
/// cycle (impossible for mapper output, guarded anyway);
/// [`PartitionError::SharingConflict`] when the merged FF fanout sharing
/// is inconsistent; [`PartitionError::Netlist`] on reconstruction
/// failures.
pub fn stitch(
    source: &Circuit,
    ex: &ExtractedBlocks,
    mapped: &[Circuit],
) -> Result<(Circuit, StitchStats), PartitionError> {
    let mut out = Circuit::new(source.name().to_string());
    let mut stats = StitchStats::default();

    // Interface first: every source PI, in source order.
    for &pi in source.inputs() {
        out.add_input(source.node(pi).name())?;
    }

    // Copy every block's gates (block order, node order), renaming on
    // collision.
    let mut local: Vec<Vec<Option<NodeId>>> =
        mapped.iter().map(|m| vec![None; m.num_nodes()]).collect();
    for (b, m) in mapped.iter().enumerate() {
        for g in m.gate_ids() {
            let f = m
                .node(g)
                .function()
                .expect("gate nodes carry a function")
                .clone();
            let base = m.node(g).name();
            let id = if out.find(base).is_none() {
                out.add_gate(base, f)?
            } else {
                stats.renamed += 1;
                let mut name = format!("{base}__b{b}");
                let mut salt = 0usize;
                while out.find(&name).is_some() {
                    salt += 1;
                    name = format!("{base}__b{b}_{salt}");
                }
                out.add_gate(name, f)?
            };
            local[b][g.index()] = Some(id);
        }
    }
    // Then every source PO, in source order.
    for &po in source.outputs() {
        out.add_output(source.node(po).name())?;
    }

    // Which block-local PIs/POs are seam pseudo-nodes, per block.
    let mut seam_of_pi: Vec<Vec<Option<u32>>> =
        mapped.iter().map(|m| vec![None; m.num_nodes()]).collect();
    let mut seam_po_node: Vec<Option<(usize, NodeId)>> = vec![None; ex.seams.len()];
    for s in &ex.seams {
        let cons = &mapped[s.consumer_block as usize];
        let pi = cons
            .find(&seam_name(s.index))
            .ok_or_else(|| PartitionError::Internal("mapped block lost a seam PI".into()))?;
        seam_of_pi[s.consumer_block as usize][pi.index()] = Some(s.index as u32);
        if s.producer_is_gate {
            let prod = &mapped[s.producer_block as usize];
            let po = prod
                .find(&seam_name(s.index))
                .ok_or_else(|| PartitionError::Internal("mapped block lost a seam PO".into()))?;
            seam_po_node[s.index] = Some((s.producer_block as usize, po));
        }
    }

    // Resolve each seam's merged driver: the node feeding the seam plus
    // the FF residue that must precede the consumer pin — producer-side
    // residue, then the cut chain. A mapped seam PO is normally fed by a
    // LUT; if a block degenerated it to a wire from one of its own
    // inputs the resolution recurses through that input (a wire-only
    // seam cycle is rejected — it would have no node to host the loop).
    struct Resolver<'a> {
        source: &'a Circuit,
        mapped: &'a [Circuit],
        ex: &'a ExtractedBlocks,
        out_names: &'a Circuit,
        local: &'a [Vec<Option<NodeId>>],
        seam_of_pi: &'a [Vec<Option<u32>>],
        seam_po_node: &'a [Option<(usize, NodeId)>],
        memo: Vec<Option<SeamDriver>>,
        visiting: Vec<bool>,
    }
    impl Resolver<'_> {
        fn resolve(&mut self, s: usize) -> Result<SeamDriver, PartitionError> {
            if let Some(d) = &self.memo[s] {
                return Ok(d.clone());
            }
            if self.visiting[s] {
                return Err(PartitionError::SeamCycle);
            }
            self.visiting[s] = true;
            let seam = &self.ex.seams[s];
            let cut_chain = self.source.edge(seam.edge).ffs();
            let d = match self.seam_po_node[s] {
                None => {
                    // Producer is a source PI: its name is global.
                    let u = self.source.edge(seam.edge).from();
                    let node =
                        self.out_names
                            .find(self.source.node(u).name())
                            .ok_or_else(|| {
                                PartitionError::Internal("seam producer PI missing".into())
                            })?;
                    SeamDriver {
                        node,
                        residue: cut_chain.to_vec(),
                    }
                }
                Some((b, po)) => {
                    let m = &self.mapped[b];
                    let fan = m.node(po).fanin();
                    if fan.len() != 1 {
                        return Err(PartitionError::Internal("seam PO fanin arity".into()));
                    }
                    let e = m.edge(fan[0]);
                    let f = e.from();
                    let (node, mut residue) = if m.node(f).is_gate() {
                        (self.local[b][f.index()].expect("gate copied"), Vec::new())
                    } else {
                        match self.seam_of_pi[b][f.index()] {
                            Some(t) => {
                                let inner = self.resolve(t as usize)?;
                                (inner.node, inner.residue)
                            }
                            None => {
                                let pi =
                                    self.out_names.find(m.node(f).name()).ok_or_else(|| {
                                        PartitionError::Internal("seam wire PI missing".into())
                                    })?;
                                (pi, Vec::new())
                            }
                        }
                    };
                    residue.extend(e.ffs().iter().copied());
                    residue.extend(cut_chain.iter().copied());
                    SeamDriver { node, residue }
                }
            };
            self.visiting[s] = false;
            self.memo[s] = Some(d.clone());
            Ok(d)
        }
    }
    let mut resolver = Resolver {
        source,
        mapped,
        ex,
        out_names: &out,
        local: &local,
        seam_of_pi: &seam_of_pi,
        seam_po_node: &seam_po_node,
        memo: vec![None; ex.seams.len()],
        visiting: vec![false; ex.seams.len()],
    };
    for s in 0..ex.seams.len() {
        resolver.resolve(s)?;
    }
    let drivers: Vec<Option<SeamDriver>> = resolver.memo;

    // Replay every sink's pins in order, substituting seam drivers.
    for (b, m) in mapped.iter().enumerate() {
        for v in m.node_ids() {
            let node = m.node(v);
            if node.is_input() {
                continue;
            }
            // Seam POs were consumed by driver resolution.
            if node.is_output() && source.find(node.name()).is_none() {
                continue;
            }
            let to = if node.is_output() {
                out.find(node.name())
                    .ok_or_else(|| PartitionError::Internal("merged PO missing".into()))?
            } else {
                local[b][v.index()].expect("gate copied")
            };
            for &eid in node.fanin() {
                let e = m.edge(eid);
                let f = e.from();
                let (from, chain) = if m.node(f).is_gate() {
                    (local[b][f.index()].expect("gate copied"), e.ffs().to_vec())
                } else {
                    match seam_of_pi[b][f.index()] {
                        Some(s) => {
                            let d = drivers[s as usize].as_ref().expect("all seams resolved");
                            let mut chain = d.residue.clone();
                            chain.extend(e.ffs().iter().copied());
                            (d.node, chain)
                        }
                        None => {
                            let pi = out.find(m.node(f).name()).ok_or_else(|| {
                                PartitionError::Internal("merged PI missing".into())
                            })?;
                            (pi, e.ffs().to_vec())
                        }
                    }
                };
                out.connect(from, to, chain)?;
            }
        }
    }

    stats.seams = ex.seams.len();
    stats.seam_ffs = ex.seams.iter().map(|s| source.edge(s.edge).weight()).sum();

    // Legalize: sharing must be consistent and the merged graph must
    // have a well-defined period (no comb cycle across seams).
    if !out.sharing_consistent() {
        return Err(PartitionError::SharingConflict);
    }
    out.clock_period()
        .map_err(|e| PartitionError::Internal(format!("stitched circuit has no period: {e}")))?;
    Ok((out, stats))
}
