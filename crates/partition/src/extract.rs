//! Per-block circuit extraction with seam pseudo-PIs/POs.
//!
//! Each block becomes a standalone [`Circuit`] the mapper can run on:
//!
//! * member PIs/gates/POs are copied verbatim (pin order preserved);
//! * every cut edge `u → v` becomes a **seam**: the consumer block gains
//!   a pseudo-PI `__seam<i>` wired to `v`'s pin with a zero-FF edge, and
//!   (when `u` is a gate) the producer block gains a pseudo-PO
//!   `__seam<i>` fed by `u` with a zero-FF edge. The cut register chain
//!   itself stays *outside* both blocks — it is re-attached by
//!   [`crate::stitch`].
//!
//! The zero-FF seam edges are what freezes the boundary: a pseudo-PI/PO
//! has lag 0 under forward retiming, and a zero-weight edge to a lag-0
//! endpoint pins the adjacent node's lag to 0 too. No register can cross
//! a seam, so each block's retiming and initial-state computation is
//! locally complete.
//!
//! Node addition and edge creation follow fixed source-index order, so
//! extraction is deterministic.

use crate::assign::Assignment;
use crate::PartitionError;
use netlist::{Circuit, EdgeId, NodeId};

/// One cut edge turned into a pseudo-PI/PO pair.
#[derive(Debug, Clone, Copy)]
pub struct Seam {
    /// The cut edge in the source circuit.
    pub edge: EdgeId,
    /// Seam number (ascending cut-edge order); names the pseudo nodes.
    pub index: usize,
    /// Block of the producer node.
    pub producer_block: u32,
    /// Block of the consumer node.
    pub consumer_block: u32,
    /// True when the producer is a gate (and so owns a pseudo-PO); a
    /// primary-input producer is re-wired directly at stitch time.
    pub producer_is_gate: bool,
}

/// The extracted block circuits plus seam bookkeeping.
#[derive(Debug)]
pub struct ExtractedBlocks {
    /// One circuit per block, in block order.
    pub blocks: Vec<Circuit>,
    /// One seam per cut edge, ascending cut-edge order.
    pub seams: Vec<Seam>,
    /// Gate count per block.
    pub block_gates: Vec<u64>,
    /// Seam FFs charged to each block (the registers its pseudo-PIs
    /// consume).
    pub block_cut_ffs: Vec<u64>,
}

/// The pseudo-PI/PO name of seam `index`.
pub fn seam_name(index: usize) -> String {
    format!("__seam{index}")
}

/// Extracts one circuit per block of `asg` from `c`.
///
/// # Errors
///
/// [`PartitionError::NameClash`] when the source circuit already uses a
/// `__seam<i>` name this partition needs; [`PartitionError::Netlist`]
/// when reconstruction fails (indicates an internal invariant break).
pub fn extract(c: &Circuit, asg: &Assignment) -> Result<ExtractedBlocks, PartitionError> {
    let nb = asg.num_blocks;
    let mut blocks: Vec<Circuit> = (0..nb)
        .map(|b| Circuit::new(format!("{}__block{b}", c.name())))
        .collect();

    let mut seams: Vec<Seam> = Vec::with_capacity(asg.cut_edges.len());
    // Source edge id -> seam index, for consumer-side pin substitution.
    let mut seam_of_edge: Vec<Option<u32>> = vec![None; c.num_edges()];
    let mut block_cut_ffs = vec![0u64; nb];
    for (index, &id) in asg.cut_edges.iter().enumerate() {
        let e = c.edge(id);
        let name = seam_name(index);
        if c.find(&name).is_some() {
            return Err(PartitionError::NameClash(name));
        }
        let seam = Seam {
            edge: id,
            index,
            producer_block: asg.block_of[e.from().index()],
            consumer_block: asg.block_of[e.to().index()],
            producer_is_gate: c.node(e.from()).is_gate(),
        };
        block_cut_ffs[seam.consumer_block as usize] += e.weight() as u64;
        seam_of_edge[id.index()] = Some(index as u32);
        seams.push(seam);
    }

    // Pass 1: add nodes. Per block: member PIs (source input order), seam
    // PIs (seam order), gates (node order), member POs (source output
    // order), seam POs (seam order).
    let n = c.num_nodes();
    let mut local: Vec<Option<NodeId>> = vec![None; n];
    let mut seam_pi: Vec<Option<NodeId>> = vec![None; seams.len()];
    let mut seam_po: Vec<Option<NodeId>> = vec![None; seams.len()];
    for &pi in c.inputs() {
        let b = asg.block_of[pi.index()] as usize;
        local[pi.index()] = Some(blocks[b].add_input(c.node(pi).name())?);
    }
    for s in &seams {
        let b = s.consumer_block as usize;
        seam_pi[s.index] = Some(blocks[b].add_input(seam_name(s.index))?);
    }
    for g in c.gate_ids() {
        let b = asg.block_of[g.index()] as usize;
        let f = c
            .node(g)
            .function()
            .expect("gate nodes carry a function")
            .clone();
        local[g.index()] = Some(blocks[b].add_gate(c.node(g).name(), f)?);
    }
    for &po in c.outputs() {
        let b = asg.block_of[po.index()] as usize;
        local[po.index()] = Some(blocks[b].add_output(c.node(po).name())?);
    }
    for s in &seams {
        if s.producer_is_gate {
            let b = s.producer_block as usize;
            seam_po[s.index] = Some(blocks[b].add_output(seam_name(s.index))?);
        }
    }

    // Pass 2: connect every member sink's fanin pins in source pin order,
    // substituting seam PIs on cut edges; then feed the seam POs.
    for v in c.node_ids() {
        if c.node(v).is_input() {
            continue;
        }
        let b = asg.block_of[v.index()] as usize;
        let v_local = local[v.index()].expect("sink copied");
        for &eid in c.node(v).fanin() {
            let e = c.edge(eid);
            match seam_of_edge[eid.index()] {
                Some(s) => {
                    let pi = seam_pi[s as usize].expect("seam PI created");
                    blocks[b].connect(pi, v_local, Vec::new())?;
                }
                None => {
                    let u_local = local[e.from().index()].expect("source copied");
                    blocks[b].connect(u_local, v_local, e.ffs())?;
                }
            }
        }
    }
    for s in &seams {
        if let Some(po) = seam_po[s.index] {
            let b = s.producer_block as usize;
            let u = c.edge(s.edge).from();
            let u_local = local[u.index()].expect("producer copied");
            blocks[b].connect(u_local, po, Vec::new())?;
        }
    }

    Ok(ExtractedBlocks {
        blocks,
        seams,
        block_gates: asg.block_gates.clone(),
        block_cut_ffs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::assign;
    use crate::cluster::cluster;
    use netlist::{Bit, TruthTable};

    fn pipeline() -> Circuit {
        // Two register-separated stages of two gates each; the balance
        // cap (ceil(4/2)·1.1 = 3) forces a two-block split.
        let mut c = Circuit::new("pipe");
        let i = c.add_input("in").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(1)).unwrap();
        let g1b = c.add_gate("g1b", TruthTable::and(1)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::and(1)).unwrap();
        let g2b = c.add_gate("g2b", TruthTable::and(1)).unwrap();
        let o = c.add_output("out").unwrap();
        c.connect(i, g1, vec![]).unwrap();
        c.connect(g1, g1b, vec![]).unwrap();
        c.connect(g1b, g2, vec![Bit::Zero, Bit::One]).unwrap();
        c.connect(g2, g2b, vec![]).unwrap();
        c.connect(g2b, o, vec![]).unwrap();
        c
    }

    #[test]
    fn seams_replace_cut_registers() {
        let c = pipeline();
        let cl = cluster(&c);
        let asg = assign(&c, &cl, 2, 1.1);
        assert_eq!(asg.num_blocks, 2);
        let ex = extract(&c, &asg).unwrap();
        assert_eq!(ex.blocks.len(), 2);
        assert_eq!(ex.seams.len(), 1);
        let s = ex.seams[0];
        assert!(s.producer_is_gate);
        // The cut chain stays outside both blocks.
        for b in &ex.blocks {
            assert_eq!(b.ff_count_total(), 0);
        }
        // Producer block exposes the seam PO; consumer block the seam PI.
        let prod = &ex.blocks[s.producer_block as usize];
        let cons = &ex.blocks[s.consumer_block as usize];
        assert!(prod.find("__seam0").is_some());
        assert!(cons.find("__seam0").is_some());
        assert_eq!(ex.block_cut_ffs[s.consumer_block as usize], 2);
        // Both blocks are well-formed two-gate circuits.
        assert_eq!(prod.num_gates() + cons.num_gates(), 4);
    }

    #[test]
    fn pin_order_is_preserved() {
        // g takes (x, y) in that order; the seam replaces pin 0 only.
        let mut c = Circuit::new("pins");
        let x = c.add_input("x").unwrap();
        let y = c.add_input("y").unwrap();
        let a = c.add_gate("a", TruthTable::and(1)).unwrap();
        let g = c.add_gate("g", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(x, a, vec![]).unwrap();
        c.connect(a, g, vec![Bit::Zero]).unwrap();
        c.connect(y, g, vec![]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        let cl = cluster(&c);
        let asg = assign(&c, &cl, 2, 1.5);
        if asg.num_blocks < 2 {
            return;
        }
        let ex = extract(&c, &asg).unwrap();
        let cons = &ex.blocks[ex.seams[0].consumer_block as usize];
        let gl = cons.find("g").unwrap();
        let pins = cons.node(gl).fanin();
        assert_eq!(pins.len(), 2);
        // Pin 0 must now come from the seam PI, pin 1 from y.
        assert_eq!(cons.node(cons.edge(pins[0]).from()).name(), "__seam0");
        assert_eq!(cons.node(cons.edge(pins[1]).from()).name(), "y");
    }
}
