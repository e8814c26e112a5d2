//! Technology decomposition: bounding gate fanin before LUT mapping.
//!
//! FlowMap and TurboMap both require a K-bounded input network (every gate
//! fanin ≤ K), like SIS's `xl_split`/tech-decomposition step before mapping.
//! [`decompose_to_k`] rebuilds a circuit so that every gate has fanin at
//! most `k`:
//!
//! * associative gates (AND/OR/XOR and their complements) become balanced
//!   k-ary trees;
//! * arbitrary functions are split by Shannon expansion into multiplexers
//!   of recursively decomposed cofactors (with redundant inputs pruned
//!   first).
//!
//! FF chains on the original fanin edges ride along to the tree leaves, so
//! the decomposed circuit is sequentially equivalent to the original.

use crate::circuit::{Circuit, NodeId};
use crate::error::NetlistError;
use crate::truth::TruthTable;

/// How a decomposed gate's fanin tree references its operands.
#[derive(Debug, Clone)]
enum Expr {
    /// Original fanin pin of the gate being decomposed.
    Pin(usize),
    /// An internal gate over sub-expressions.
    Op(TruthTable, Vec<Expr>),
}

/// Builds a balanced k-ary tree of `ctor`-gates over `operands`.
fn assoc_tree(ctor: fn(usize) -> TruthTable, operands: Vec<Expr>, k: usize) -> Expr {
    if operands.len() == 1 {
        return operands.into_iter().next().expect("non-empty");
    }
    if operands.len() <= k {
        let n = operands.len();
        return Expr::Op(ctor(n), operands);
    }
    // Chunk into groups of at most k, recurse on the group results.
    let group_count = operands.len().div_ceil(k);
    let per = operands.len().div_ceil(group_count);
    let mut groups = Vec::new();
    let mut it = operands.into_iter().peekable();
    while it.peek().is_some() {
        let chunk: Vec<Expr> = it.by_ref().take(per).collect();
        groups.push(assoc_tree(ctor, chunk, k));
    }
    assoc_tree(ctor, groups, k)
}

/// Decomposes `tt` over the given operand expressions into gates of fanin
/// ≤ `k`.
fn build_expr(tt: &TruthTable, operands: Vec<Expr>, k: usize) -> Expr {
    let n = tt.num_inputs();
    debug_assert_eq!(n, operands.len());
    if n <= k {
        return Expr::Op(tt.clone(), operands);
    }
    // Prune redundant inputs first: Shannon splits can create them and they
    // inflate the recursion exponentially if kept.
    for i in (0..n).rev() {
        if tt.input_is_redundant(i) {
            let reduced = tt.cofactor(i, false);
            let mut ops = operands;
            ops.remove(i);
            return build_expr(&reduced, ops, k);
        }
    }
    // Recognise associative patterns (optionally complemented at the root).
    type Pattern = (fn(usize) -> TruthTable, fn(usize) -> TruthTable, bool);
    let patterns: [Pattern; 6] = [
        (TruthTable::and, TruthTable::and, false),
        (TruthTable::or, TruthTable::or, false),
        (TruthTable::xor, TruthTable::xor, false),
        (TruthTable::nand, TruthTable::and, true),
        (TruthTable::nor, TruthTable::or, true),
        (xnor, TruthTable::xor, true),
    ];
    for (pattern, base, invert) in patterns {
        if *tt == pattern(n) {
            let tree = assoc_tree(base, operands, k);
            return if invert {
                Expr::Op(TruthTable::not(), vec![tree])
            } else {
                tree
            };
        }
    }
    // Shannon expansion on the last input.
    let i = n - 1;
    let f0 = tt.cofactor(i, false);
    let f1 = tt.cofactor(i, true);
    let sel = operands[i].clone();
    let mut rest = operands;
    rest.pop();
    let a = build_expr(&f0, rest.clone(), k);
    let b = build_expr(&f1, rest, k);
    if k >= 3 {
        Expr::Op(TruthTable::mux(), vec![sel, a, b])
    } else {
        // mux = (¬sel ∧ a) ∨ (sel ∧ b) out of 2-input gates.
        let nsel = Expr::Op(TruthTable::not(), vec![sel.clone()]);
        let t0 = Expr::Op(TruthTable::and(2), vec![nsel, a]);
        let t1 = Expr::Op(TruthTable::and(2), vec![sel, b]);
        Expr::Op(TruthTable::or(2), vec![t0, t1])
    }
}

fn xnor(k: usize) -> TruthTable {
    TruthTable::from_fn(k, |r| r.count_ones() % 2 == 0)
}

/// Operand reference used while wiring the rebuilt circuit.
#[derive(Debug, Clone, Copy)]
enum ChildRef {
    /// Freshly created internal gate.
    New(NodeId),
    /// Fanin pin `pin` of original gate `gate` (carries that edge's FFs).
    OrigPin(NodeId, usize),
}

/// Rebuilds `c` with every gate fanin bounded by `k`.
///
/// Node names are preserved; internal tree gates are named
/// `<gate>~d<counter>`. The result is sequentially equivalent to the input.
///
/// # Errors
///
/// Propagates construction errors (none are expected for valid inputs).
///
/// # Panics
///
/// Panics if `k < 2`.
///
/// # Examples
///
/// ```
/// use netlist::{decompose_to_k, Circuit, TruthTable};
/// let mut c = Circuit::new("wide");
/// let pins: Vec<_> = (0..6)
///     .map(|i| c.add_input(format!("i{i}")).unwrap())
///     .collect();
/// let g = c.add_gate("g", TruthTable::and(6)).unwrap();
/// let o = c.add_output("o").unwrap();
/// for &p in &pins {
///     c.connect(p, g, vec![]).unwrap();
/// }
/// c.connect(g, o, vec![]).unwrap();
/// let d = decompose_to_k(&c, 2).unwrap();
/// assert!(d.max_fanin() <= 2);
/// ```
pub fn decompose_to_k(c: &Circuit, k: usize) -> Result<Circuit, NetlistError> {
    assert!(k >= 2, "decomposition requires k >= 2");
    let mut out = Circuit::new(c.name().to_string());
    let mut map: Vec<Option<NodeId>> = vec![None; c.num_nodes()];
    let mut pending: Vec<(NodeId, Vec<ChildRef>)> = Vec::new();
    let mut counter = 0usize;

    // Pass 1: create nodes.
    for v in c.node_ids() {
        let node = c.node(v);
        match node.kind() {
            crate::circuit::NodeKind::Input => {
                map[v.index()] = Some(out.add_input(node.name())?);
            }
            crate::circuit::NodeKind::Output => {
                map[v.index()] = Some(out.add_output(node.name())?);
            }
            crate::circuit::NodeKind::Gate(tt) => {
                if tt.num_inputs() <= k {
                    let id = out.add_gate(node.name(), tt.clone())?;
                    map[v.index()] = Some(id);
                    pending.push((
                        id,
                        (0..node.fanin().len())
                            .map(|p| ChildRef::OrigPin(v, p))
                            .collect(),
                    ));
                } else {
                    let operands: Vec<Expr> = (0..tt.num_inputs()).map(Expr::Pin).collect();
                    let expr = build_expr(tt, operands, k);
                    let root = instantiate(
                        &mut out,
                        &mut pending,
                        &mut counter,
                        node.name(),
                        &expr,
                        v,
                        true,
                    )?;
                    map[v.index()] = Some(root);
                }
            }
        }
    }
    // Pass 2: wire pins.
    for (gate, children) in pending {
        for child in children {
            match child {
                ChildRef::New(src) => {
                    out.connect(src, gate, vec![])?;
                }
                ChildRef::OrigPin(orig_gate, pin) => {
                    let e = c.node(orig_gate).fanin()[pin];
                    let edge = c.edge(e);
                    let src = map[edge.from().index()].expect("driver created in pass 1");
                    out.connect(src, gate, edge.ffs())?;
                }
            }
        }
    }
    // Primary outputs.
    for &po in c.outputs() {
        let e = c.node(po).fanin()[0];
        let edge = c.edge(e);
        let src = map[edge.from().index()].expect("driver created");
        let new_po = map[po.index()].expect("PO created");
        out.connect(src, new_po, edge.ffs())?;
    }
    Ok(out)
}

/// Creates the gate nodes of `expr`, returning the root. The root (and only
/// the root) keeps the original gate's name when `is_root`.
fn instantiate(
    out: &mut Circuit,
    pending: &mut Vec<(NodeId, Vec<ChildRef>)>,
    counter: &mut usize,
    base_name: &str,
    expr: &Expr,
    orig_gate: NodeId,
    is_root: bool,
) -> Result<NodeId, NetlistError> {
    match expr {
        Expr::Pin(_) => unreachable!("a bare pin cannot be a gate root; wrapped by build_expr"),
        Expr::Op(tt, children) => {
            let name = if is_root {
                base_name.to_string()
            } else {
                *counter += 1;
                format!("{base_name}~d{counter}")
            };
            let id = out.add_gate(name, tt.clone())?;
            let mut refs = Vec::with_capacity(children.len());
            for ch in children {
                match ch {
                    Expr::Pin(p) => refs.push(ChildRef::OrigPin(orig_gate, *p)),
                    op => {
                        let sub =
                            instantiate(out, pending, counter, base_name, op, orig_gate, false)?;
                        refs.push(ChildRef::New(sub));
                    }
                }
            }
            pending.push((id, refs));
            Ok(id)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit::Bit;
    use crate::equiv::{exhaustive_equiv, random_equiv};

    fn wide_gate_circuit(tt: TruthTable, with_ffs: bool) -> Circuit {
        let n = tt.num_inputs();
        let mut c = Circuit::new("wide");
        let pins: Vec<NodeId> = (0..n)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        let g = c.add_gate("g", tt).unwrap();
        let o = c.add_output("o").unwrap();
        for (i, &p) in pins.iter().enumerate() {
            let ffs = if with_ffs && i % 2 == 0 {
                vec![Bit::from_bool(i % 4 == 0)]
            } else {
                vec![]
            };
            c.connect(p, g, ffs).unwrap();
        }
        c.connect(g, o, vec![]).unwrap();
        c
    }

    #[test]
    fn and_tree_equivalent() {
        let c = wide_gate_circuit(TruthTable::and(5), false);
        let d = decompose_to_k(&c, 2).unwrap();
        assert!(d.max_fanin() <= 2);
        assert!(exhaustive_equiv(&c, &d, 2).unwrap().is_equivalent());
    }

    #[test]
    fn or_nand_nor_xor_trees() {
        for tt in [
            TruthTable::or(6),
            TruthTable::nand(5),
            TruthTable::nor(4),
            TruthTable::xor(5),
        ] {
            let c = wide_gate_circuit(tt.clone(), false);
            let d = decompose_to_k(&c, 2).unwrap();
            assert!(d.max_fanin() <= 2, "{tt}");
            assert!(
                random_equiv(&c, &d, 64, 11).unwrap().is_equivalent(),
                "{tt}"
            );
        }
    }

    #[test]
    fn xnor_detected() {
        let xn = TruthTable::from_fn(4, |r| r.count_ones() % 2 == 0);
        let c = wide_gate_circuit(xn, false);
        let d = decompose_to_k(&c, 2).unwrap();
        assert!(d.max_fanin() <= 2);
        assert!(random_equiv(&c, &d, 64, 3).unwrap().is_equivalent());
    }

    #[test]
    fn random_function_shannon() {
        let tt = TruthTable::from_fn(5, |r| (r * 2654435761usize) & 8 != 0);
        let c = wide_gate_circuit(tt, false);
        let d = decompose_to_k(&c, 2).unwrap();
        assert!(d.max_fanin() <= 2);
        assert!(random_equiv(&c, &d, 128, 9).unwrap().is_equivalent());
    }

    #[test]
    fn k3_uses_mux_directly() {
        let tt = TruthTable::from_fn(5, |r| (r * 0x9E3779B9usize) & 16 != 0);
        let c = wide_gate_circuit(tt, false);
        let d = decompose_to_k(&c, 3).unwrap();
        assert!(d.max_fanin() <= 3);
        assert!(random_equiv(&c, &d, 128, 13).unwrap().is_equivalent());
    }

    #[test]
    fn ffs_preserved_on_leaves() {
        let c = wide_gate_circuit(TruthTable::and(5), true);
        let d = decompose_to_k(&c, 2).unwrap();
        assert_eq!(c.ff_count_total(), d.ff_count_total());
        assert!(random_equiv(&c, &d, 64, 21).unwrap().is_equivalent());
    }

    #[test]
    fn small_gates_untouched() {
        let c = wide_gate_circuit(TruthTable::and(2), false);
        let d = decompose_to_k(&c, 2).unwrap();
        assert_eq!(d.num_gates(), c.num_gates());
        assert!(d.find("g").is_some());
    }

    #[test]
    fn names_preserved_for_roots() {
        let c = wide_gate_circuit(TruthTable::and(7), false);
        let d = decompose_to_k(&c, 2).unwrap();
        assert!(d.find("g").is_some());
        assert!(d.find("i3").is_some());
        assert!(d.find("o").is_some());
    }

    #[test]
    fn redundant_input_pruned() {
        // 5-input function ignoring inputs 3 and 4.
        let tt = TruthTable::from_fn(5, |r| (r & 0b111) == 0b101);
        let c = wide_gate_circuit(tt, false);
        let d = decompose_to_k(&c, 2).unwrap();
        assert!(d.max_fanin() <= 2);
        assert!(random_equiv(&c, &d, 64, 2).unwrap().is_equivalent());
    }
}
