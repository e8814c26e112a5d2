//! Cut signals, combinational cones and LUT network construction.
//!
//! A K-LUT in a sequential mapping consumes *signals*: either a node's
//! direct output (weight 0) or the output of a register chain fed by a node
//! (weight ≥ 1, with that chain's initial values). [`CutSignal`] names such
//! a signal; a mapping solution assigns every LUT root a cut (a set of cut
//! signals) whose cone computes the root's function.
//!
//! [`build_lut_network`] turns a `root → cut` assignment into an actual LUT
//! circuit: each cone is collapsed into one truth table by exhaustive
//! simulation and the register chains are re-attached to the LUT fanins,
//! preserving sequential behaviour.

use netlist::{Bit, Circuit, EdgeId, NetlistError, NodeId, TruthTable};
use std::collections::HashMap;

/// A signal usable as an LUT input.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CutSignal {
    /// The driving node (PI or gate).
    pub node: NodeId,
    /// Number of registers between the driver and the LUT input.
    pub weight: usize,
    /// Initial values of those registers (source → sink order; length =
    /// `weight`).
    pub chain: Vec<Bit>,
}

impl CutSignal {
    /// A direct (unregistered) signal.
    pub fn direct(node: NodeId) -> CutSignal {
        CutSignal {
            node,
            weight: 0,
            chain: Vec::new(),
        }
    }

    /// A registered tap with the given initial chain.
    pub fn tap(node: NodeId, chain: Vec<Bit>) -> CutSignal {
        CutSignal {
            weight: chain.len(),
            node,
            chain,
        }
    }
}

/// A K-feasible cut for one LUT root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    /// The signals crossing the cut (the future LUT inputs), deduplicated.
    pub signals: Vec<CutSignal>,
}

/// Errors from mapping-network construction.
#[derive(Debug)]
pub enum MapError {
    /// A cone reached a boundary not listed in the root's cut.
    InconsistentCut {
        /// The LUT root.
        root: String,
        /// The offending boundary signal driver.
        signal: String,
    },
    /// Too many inputs for a truth table.
    ConeTooWide {
        /// The LUT root.
        root: String,
        /// Its cut size.
        inputs: usize,
    },
    /// Underlying netlist error.
    Netlist(NetlistError),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::InconsistentCut { root, signal } => {
                write!(f, "cone of `{root}` crossed uncut boundary at `{signal}`")
            }
            MapError::ConeTooWide { root, inputs } => {
                write!(f, "cone of `{root}` has {inputs} inputs")
            }
            MapError::Netlist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<NetlistError> for MapError {
    fn from(e: NetlistError) -> Self {
        MapError::Netlist(e)
    }
}

/// Where a cone gate reads one fanin from while its cone is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Cut input `i`: bit `i` of the row.
    Input(usize),
    /// The cone gate in this slot of the cone (the root is slot 0).
    Gate(usize),
}

/// Computes the truth table of the cone of `root` over the given cut
/// signals by exhaustive simulation.
///
/// The cone is the set of gates reachable backward from `root` through
/// weight-0 edges without crossing a cut signal. Boundary crossings that do
/// not match a cut signal are reported as errors.
///
/// Each cone gate's fanins are resolved once, to a cut input or another
/// cone gate, and [`cone_table`] simulates the result.
///
/// # Errors
///
/// [`MapError::InconsistentCut`] / [`MapError::ConeTooWide`].
pub fn cone_function(c: &Circuit, root: NodeId, cut: &Cut) -> Result<TruthTable, MapError> {
    if cut.signals.len() > netlist::MAX_INPUTS {
        return Err(MapError::ConeTooWide {
            root: c.node(root).name().to_string(),
            inputs: cut.signals.len(),
        });
    }
    // The cut input an edge reads, if any. A signal listed twice reads as
    // its last copy.
    let input_of = |e: EdgeId| {
        let edge = c.edge(e);
        cut.signals.iter().rposition(|s| {
            s.node == edge.from() && s.weight == edge.weight() && s.chain == edge.ffs()
        })
    };
    // Collect cone gates by DFS (root included unless it is itself cut —
    // the root is never a cut signal of its own cut), numbered in
    // discovery order.
    let mut cone: Vec<NodeId> = Vec::new();
    let mut slot: HashMap<NodeId, usize> = HashMap::new();
    let mut stack = vec![root];
    while let Some(v) = stack.pop() {
        if slot.contains_key(&v) {
            continue;
        }
        slot.insert(v, cone.len());
        cone.push(v);
        for &e in c.node(v).fanin() {
            if input_of(e).is_some() {
                continue; // boundary
            }
            let edge = c.edge(e);
            if edge.weight() > 0 || !c.node(edge.from()).is_gate() {
                return Err(MapError::InconsistentCut {
                    root: c.node(root).name().to_string(),
                    signal: c.node(edge.from()).name().to_string(),
                });
            }
            stack.push(edge.from());
        }
    }
    // Resolve every fanin once.
    let mut fanins: Vec<Operand> = Vec::new();
    let mut spans: Vec<std::ops::Range<usize>> = Vec::with_capacity(cone.len());
    for &v in &cone {
        let start = fanins.len();
        fanins.extend(c.node(v).fanin().iter().map(|&e| match input_of(e) {
            Some(i) => Operand::Input(i),
            None => Operand::Gate(slot[&c.edge(e).from()]),
        }));
        spans.push(start..fanins.len());
    }
    let gates: Vec<(&TruthTable, &[Operand])> = cone
        .iter()
        .zip(spans)
        .map(|(&v, span)| {
            let f = c.node(v).function().expect("cone nodes are gates");
            (f, &fanins[span])
        })
        .collect();
    Ok(cone_table(cut.signals.len(), &gates))
}

/// The truth table over `inputs` cut inputs of a cone given as its gates,
/// slot 0 the root: each gate's function and the operands it reads, in
/// fanin order. The gates are put in evaluation order (post-order from the
/// root), then the `2^inputs` rows run over one reused value buffer.
///
/// # Panics
///
/// Panics when a gate's operand count differs from its arity.
pub fn cone_table(inputs: usize, gates: &[(&TruthTable, &[Operand])]) -> TruthTable {
    let mut order: Vec<usize> = Vec::with_capacity(gates.len());
    let mut visited = vec![false; gates.len()];
    visited[0] = true;
    let mut walk = vec![(0usize, 0usize)];
    while let Some(top) = walk.last_mut() {
        let (s, next) = *top;
        let (f, ops) = gates[s];
        if let Some(&op) = ops.get(next) {
            top.1 += 1;
            if let Operand::Gate(t) = op {
                if !visited[t] {
                    visited[t] = true;
                    walk.push((t, 0));
                }
            }
        } else {
            assert_eq!(ops.len(), f.num_inputs(), "arity mismatch");
            order.push(s);
            walk.pop();
        }
    }
    let mut values = vec![false; gates.len()];
    TruthTable::from_fn(inputs, |row| {
        for &s in &order {
            let (f, ops) = gates[s];
            let mut r = 0usize;
            for (b, &op) in ops.iter().enumerate() {
                let bit = match op {
                    Operand::Input(i) => (row >> i) & 1,
                    Operand::Gate(t) => values[t] as usize,
                };
                r |= bit << b;
            }
            values[s] = f.eval_row(r);
        }
        values[0]
    })
}

/// Builds the LUT network for a `root → cut` assignment.
///
/// `roots` must be closed: every gate appearing as a cut signal of some
/// root (or driving a PO) must itself be a root. PIs are copied; LUT gates
/// keep their root's name; register chains keep their initial values.
///
/// # Errors
///
/// Propagates cone/construction errors.
pub fn build_lut_network(
    c: &Circuit,
    roots: &HashMap<NodeId, Cut>,
    name: &str,
) -> Result<Circuit, MapError> {
    let mut out = Circuit::new(name.to_string());
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    for &pi in c.inputs() {
        map.insert(pi, out.add_input(c.node(pi).name().to_string())?);
    }
    // Create LUT nodes first (functions need only the original circuit).
    let mut functions: HashMap<NodeId, TruthTable> = HashMap::new();
    for (&root, cut) in roots {
        functions.insert(root, cone_function(c, root, cut)?);
    }
    let mut root_ids: Vec<NodeId> = roots.keys().copied().collect();
    root_ids.sort_unstable(); // deterministic construction order
    for &root in &root_ids {
        let id = out.add_gate(
            c.node(root).name().to_string(),
            functions.remove(&root).expect("computed above"),
        )?;
        map.insert(root, id);
    }
    // Wire LUT fanins.
    for &root in &root_ids {
        let cut = &roots[&root];
        let lut = map[&root];
        for sig in &cut.signals {
            let src = *map
                .get(&sig.node)
                .ok_or_else(|| MapError::InconsistentCut {
                    root: c.node(root).name().to_string(),
                    signal: c.node(sig.node).name().to_string(),
                })?;
            out.connect(src, lut, sig.chain.clone())?;
        }
    }
    // Primary outputs.
    for &po in c.outputs() {
        let new_po = out.add_output(c.node(po).name().to_string())?;
        let e = c.node(po).fanin()[0];
        let edge = c.edge(e);
        let src = *map
            .get(&edge.from())
            .ok_or_else(|| MapError::InconsistentCut {
                root: c.node(po).name().to_string(),
                signal: c.node(edge.from()).name().to_string(),
            })?;
        out.connect(src, new_po, edge.ffs().to_vec())?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::Rng64;

    /// Row-by-row reference for [`cone_function`]: every row rebuilds
    /// each gate's inputs and looks each fanin signal up by hash.
    fn cone_function_reference(
        c: &Circuit,
        root: NodeId,
        cut: &Cut,
    ) -> Result<TruthTable, MapError> {
        if cut.signals.len() > netlist::MAX_INPUTS {
            return Err(MapError::ConeTooWide {
                root: c.node(root).name().to_string(),
                inputs: cut.signals.len(),
            });
        }
        let index: HashMap<&CutSignal, usize> = cut
            .signals
            .iter()
            .enumerate()
            .map(|(i, s)| (s, i))
            .collect();
        let signal_of = |e: EdgeId| {
            let edge = c.edge(e);
            CutSignal {
                node: edge.from(),
                weight: edge.weight(),
                chain: edge.ffs().to_vec(),
            }
        };
        let mut cone: Vec<NodeId> = Vec::new();
        let mut seen: HashMap<NodeId, bool> = HashMap::new();
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            if seen.contains_key(&v) {
                continue;
            }
            seen.insert(v, true);
            cone.push(v);
            for &e in c.node(v).fanin() {
                if index.contains_key(&signal_of(e)) {
                    continue;
                }
                let edge = c.edge(e);
                if edge.weight() > 0 || !c.node(edge.from()).is_gate() {
                    return Err(MapError::InconsistentCut {
                        root: c.node(root).name().to_string(),
                        signal: c.node(edge.from()).name().to_string(),
                    });
                }
                stack.push(edge.from());
            }
        }
        let cone_set: HashMap<NodeId, usize> =
            cone.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); cone.len()];
        for (vi, &v) in cone.iter().enumerate() {
            for &e in c.node(v).fanin() {
                if !index.contains_key(&signal_of(e)) {
                    fwd[cone_set[&c.edge(e).from()]].push(vi);
                }
            }
        }
        let order = graphalgo::topo_order(&fwd).expect("cones are acyclic");
        Ok(TruthTable::from_fn(cut.signals.len(), |assignment| {
            let mut values: Vec<bool> = vec![false; cone.len()];
            for &vi in &order {
                let node = c.node(cone[vi]);
                let ins: Vec<bool> = node
                    .fanin()
                    .iter()
                    .map(|&e| match index.get(&signal_of(e)) {
                        Some(&i) => assignment & (1 << i) != 0,
                        None => values[cone_set[&c.edge(e).from()]],
                    })
                    .collect();
                values[vi] = node.function().expect("cone nodes are gates").eval(&ins);
            }
            values[cone_set[&root]]
        }))
    }

    fn random_bit(rng: &mut Rng64) -> Bit {
        [Bit::Zero, Bit::One, Bit::X][rng.below(3)]
    }

    /// A random acyclic circuit: PIs, then gates of arity 1–3 reading
    /// earlier nodes, some through register chains with random initial
    /// values, and fanins that may repeat.
    fn random_circuit(rng: &mut Rng64) -> Circuit {
        let mut c = Circuit::new("r");
        let mut nodes: Vec<NodeId> = (0..rng.range_usize(2, 5))
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        for g in 0..rng.range_usize(3, 24) {
            let arity = rng.range_usize(1, 4);
            let f = TruthTable::from_fn(arity, |_| rng.chance(0.5));
            let id = c.add_gate(format!("g{g}"), f).unwrap();
            for _ in 0..arity {
                let src = nodes[rng.below(nodes.len())];
                let chain = if rng.chance(0.25) {
                    (0..rng.range_usize(1, 3))
                        .map(|_| random_bit(rng))
                        .collect()
                } else {
                    Vec::new()
                };
                c.connect(src, id, chain).unwrap();
            }
            nodes.push(id);
        }
        c
    }

    /// A random cut of `root`'s cone: registered and PI fanins are always
    /// cut; a gate fanin is cut with probability 1/3, or when `sloppy`
    /// decides to drop it from the cut anyway (making the cut
    /// inconsistent when the dropped signal is a boundary).
    fn random_cut(rng: &mut Rng64, c: &Circuit, root: NodeId, sloppy: bool) -> Cut {
        let mut signals: Vec<CutSignal> = Vec::new();
        let mut seen = vec![root];
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            for &e in c.node(v).fanin() {
                let edge = c.edge(e);
                let boundary = edge.weight() > 0 || !c.node(edge.from()).is_gate();
                if boundary || rng.chance(1.0 / 3.0) {
                    let sig = CutSignal::tap(edge.from(), edge.ffs().to_vec());
                    let dropped = sloppy && rng.chance(0.2);
                    if !dropped && !signals.contains(&sig) {
                        signals.push(sig);
                    }
                } else if !seen.contains(&edge.from()) {
                    seen.push(edge.from());
                    stack.push(edge.from());
                }
            }
        }
        rng.shuffle(&mut signals);
        Cut { signals }
    }

    fn same_outcome(a: &Result<TruthTable, MapError>, b: &Result<TruthTable, MapError>) -> bool {
        match (a, b) {
            (Ok(x), Ok(y)) => x == y,
            (Err(x), Err(y)) => x.to_string() == y.to_string(),
            _ => false,
        }
    }

    #[test]
    fn cone_function_matches_row_by_row_reference() {
        let mut rng = Rng64::new(0xC0DE);
        let (mut tables, mut inconsistent) = (0, 0);
        for case in 0..400 {
            let c = random_circuit(&mut rng);
            let gates: Vec<NodeId> = c.node_ids().filter(|&v| c.node(v).is_gate()).collect();
            let root = gates[rng.below(gates.len())];
            let cut = random_cut(&mut rng, &c, root, case % 4 == 3);
            let fast = cone_function(&c, root, &cut);
            let slow = cone_function_reference(&c, root, &cut);
            assert!(
                same_outcome(&fast, &slow),
                "case {case}: {fast:?} vs {slow:?} for cut {cut:?}"
            );
            match fast {
                Ok(_) => tables += 1,
                Err(MapError::InconsistentCut { .. }) => inconsistent += 1,
                Err(e) => panic!("case {case}: unexpected {e}"),
            }
        }
        assert!(
            tables > 100 && inconsistent > 10,
            "{tables} / {inconsistent}"
        );
    }

    #[test]
    fn cone_function_taps_and_repeated_reads_match_reference() {
        // g feeds the cone directly and through chains [0] and [1, X];
        // `a` is read twice by the same gate and once more by another.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g = c.add_gate("g", TruthTable::xor(2)).unwrap();
        let h = c.add_gate("h", TruthTable::mux()).unwrap();
        let n = c.add_gate("n", TruthTable::and(2)).unwrap();
        let root = c
            .add_gate("root", TruthTable::from_fn(3, |r| r % 3 == 1))
            .unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(b, g, vec![]).unwrap();
        c.connect(g, h, vec![Bit::Zero]).unwrap();
        c.connect(g, h, vec![Bit::One, Bit::X]).unwrap();
        c.connect(a, h, vec![]).unwrap();
        c.connect(a, n, vec![]).unwrap();
        c.connect(a, n, vec![]).unwrap();
        c.connect(h, root, vec![]).unwrap();
        c.connect(n, root, vec![]).unwrap();
        c.connect(g, root, vec![]).unwrap();
        let cut = Cut {
            signals: vec![
                CutSignal::tap(g, vec![Bit::One, Bit::X]),
                CutSignal::direct(a),
                CutSignal::tap(g, vec![Bit::Zero]),
                CutSignal::direct(g),
            ],
        };
        let tt = cone_function(&c, root, &cut).unwrap();
        assert_eq!(tt.num_inputs(), 4);
        assert_eq!(tt, cone_function_reference(&c, root, &cut).unwrap());
        // Dropping one tap chain leaves its register edge uncut.
        let partial = Cut {
            signals: vec![
                cut.signals[0].clone(),
                cut.signals[1].clone(),
                cut.signals[3].clone(),
            ],
        };
        assert!(matches!(
            cone_function(&c, root, &partial),
            Err(MapError::InconsistentCut { ref signal, .. }) if signal == "g"
        ));
    }

    #[test]
    fn cone_too_wide_reported() {
        let c = two_block_circuit();
        let a = c.find("a").unwrap();
        let cut = Cut {
            signals: (0..=netlist::MAX_INPUTS)
                .map(|i| CutSignal::tap(a, vec![Bit::Zero; i]))
                .collect(),
        };
        assert!(matches!(
            cone_function(&c, c.find("g1").unwrap(), &cut),
            Err(MapError::ConeTooWide { inputs, .. }) if inputs == netlist::MAX_INPUTS + 1
        ));
    }

    /// a, b -> g1 (AND) -> g2 (NOT) -> o  with a FF between g1 and g2.
    fn two_block_circuit() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(b, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![Bit::One]).unwrap();
        c.connect(g2, o, vec![]).unwrap();
        c
    }

    #[test]
    fn cone_function_of_single_gate() {
        let c = two_block_circuit();
        let g1 = c.find("g1").unwrap();
        let cut = Cut {
            signals: vec![
                CutSignal::direct(c.find("a").unwrap()),
                CutSignal::direct(c.find("b").unwrap()),
            ],
        };
        let tt = cone_function(&c, g1, &cut).unwrap();
        assert_eq!(tt, TruthTable::and(2));
    }

    #[test]
    fn cone_function_through_tap() {
        let c = two_block_circuit();
        let g2 = c.find("g2").unwrap();
        let cut = Cut {
            signals: vec![CutSignal::tap(c.find("g1").unwrap(), vec![Bit::One])],
        };
        let tt = cone_function(&c, g2, &cut).unwrap();
        assert_eq!(tt, TruthTable::not());
    }

    #[test]
    fn inconsistent_cut_reported() {
        let c = two_block_circuit();
        let g2 = c.find("g2").unwrap();
        // Wrong weight: claims a direct signal where a register sits.
        let cut = Cut {
            signals: vec![CutSignal::direct(c.find("g1").unwrap())],
        };
        assert!(matches!(
            cone_function(&c, g2, &cut),
            Err(MapError::InconsistentCut { .. })
        ));
    }

    #[test]
    fn build_identity_mapping() {
        let c = two_block_circuit();
        let g1 = c.find("g1").unwrap();
        let g2 = c.find("g2").unwrap();
        let mut roots = HashMap::new();
        roots.insert(
            g1,
            Cut {
                signals: vec![
                    CutSignal::direct(c.find("a").unwrap()),
                    CutSignal::direct(c.find("b").unwrap()),
                ],
            },
        );
        roots.insert(
            g2,
            Cut {
                signals: vec![CutSignal::tap(g1, vec![Bit::One])],
            },
        );
        let mapped = build_lut_network(&c, &roots, "mapped").unwrap();
        assert_eq!(mapped.num_gates(), 2);
        assert_eq!(mapped.ff_count_shared(), 1);
        assert!(netlist::exhaustive_equiv(&c, &mapped, 5)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn cone_collapse_two_gates() {
        // Merge a 2-gate comb cone into one LUT: NOT(AND(a, b)) = NAND.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![]).unwrap();
        c.connect(b, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g2, o, vec![]).unwrap();
        let cut = Cut {
            signals: vec![CutSignal::direct(a), CutSignal::direct(b)],
        };
        let tt = cone_function(&c, g2, &cut).unwrap();
        assert_eq!(tt, TruthTable::nand(2));
        let mut roots = HashMap::new();
        roots.insert(g2, cut);
        let mapped = build_lut_network(&c, &roots, "m").unwrap();
        assert_eq!(mapped.num_gates(), 1);
        assert!(netlist::exhaustive_equiv(&c, &mapped, 3)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn reconvergent_cone_shared_input() {
        // g = XOR(a, NOT(a)) constant 1; cut = {a} used twice in the cone.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let n = c.add_gate("n", TruthTable::not()).unwrap();
        let g = c.add_gate("g", TruthTable::xor(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, n, vec![]).unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(n, g, vec![]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        let cut = Cut {
            signals: vec![CutSignal::direct(a)],
        };
        let tt = cone_function(&c, g, &cut).unwrap();
        assert_eq!(tt.is_constant(), Some(true));
    }
}
