//! Three-valued cycle-accurate simulation.
//!
//! [`Simulator`] steps a circuit one clock at a time: combinational
//! evaluation in topological order, then a synchronous shift of every FF
//! chain. Initial FF values come from the circuit itself; `X` values
//! propagate pessimistically through gate functions (a gate output is
//! defined only when every completion of its `X` inputs agrees).
//!
//! Simulation is also the engine of forward-retiming initial state
//! computation: moving a register forward across a gate assigns it the
//! gate's output under the old registers' initial values — exactly one
//! simulation step of that gate (Touati & Brayton 1993). So the `k`-th
//! forward move at a gate emits the gate's value at cycle `k` of a
//! simulation from the initial state, and `retiming::ForwardValues`
//! computes every forward-retimed chain in one such pass.

use crate::bit::Bit;
use crate::circuit::{Circuit, NodeId};
use crate::error::NetlistError;

/// A cycle-accurate three-valued simulator borrowing a circuit.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    circuit: &'a Circuit,
    /// Current FF chain contents, per edge (source-to-sink order).
    state: Vec<Vec<Bit>>,
    order: Vec<NodeId>,
    values: Vec<Bit>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator starting from the circuit's initial state.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] when the circuit cannot
    /// be evaluated.
    pub fn new(circuit: &'a Circuit) -> Result<Simulator<'a>, NetlistError> {
        let order = circuit.comb_topo_order()?;
        let state = circuit
            .edge_ids()
            .map(|e| circuit.edge(e).ffs().to_vec())
            .collect();
        Ok(Simulator {
            circuit,
            state,
            order,
            values: vec![Bit::X; circuit.num_nodes()],
        })
    }

    /// Current FF chain contents (indexed by edge id).
    pub fn state(&self) -> &[Vec<Bit>] {
        &self.state
    }

    /// Advances one clock cycle with the given PI values (in
    /// [`Circuit::inputs`] order) and returns the PO values (in
    /// [`Circuit::outputs`] order).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PiVectorLength`] if `inputs.len()` differs
    /// from the number of PIs — reachable from library callers and `serve`
    /// job payloads, so it must not panic.
    pub fn step(&mut self, inputs: &[Bit]) -> Result<Vec<Bit>, NetlistError> {
        let c = self.circuit;
        if inputs.len() != c.inputs().len() {
            return Err(NetlistError::PiVectorLength {
                expected: c.inputs().len(),
                actual: inputs.len(),
            });
        }
        let _span = engine::trace::span1("sim_step", "nodes", self.order.len() as u64);
        for (&pi, &v) in c.inputs().iter().zip(inputs) {
            self.values[pi.index()] = v;
        }
        let mut pin_values: Vec<Bit> = Vec::new();
        for &v in &self.order {
            let node = c.node(v);
            if node.is_input() {
                continue;
            }
            pin_values.clear();
            for &e in node.fanin() {
                let edge = c.edge(e);
                let w = edge.weight();
                let val = if w == 0 {
                    self.values[edge.from().index()]
                } else {
                    self.state[e.index()][w - 1]
                };
                pin_values.push(val);
            }
            self.values[v.index()] = match node.function() {
                Some(tt) => tt.eval3(&pin_values),
                None => pin_values.first().copied().unwrap_or(Bit::X), // PO
            };
        }
        // Synchronous FF shift: each chain takes the driver's new value at
        // the source end and delivers its sink-end value next cycle.
        for e in c.edge_ids() {
            let w = c.edge(e).weight();
            if w > 0 {
                let from_val = self.values[c.edge(e).from().index()];
                let chain = &mut self.state[e.index()];
                chain.pop();
                chain.insert(0, from_val);
            }
        }
        Ok(c.outputs()
            .iter()
            .map(|&po| self.values[po.index()])
            .collect())
    }

    /// Runs a whole input sequence, returning one PO vector per cycle.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PiVectorLength`] if any input vector has the
    /// wrong length.
    pub fn run(&mut self, sequence: &[Vec<Bit>]) -> Result<Vec<Vec<Bit>>, NetlistError> {
        sequence.iter().map(|inp| self.step(inp)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::TruthTable;

    fn bits(s: &str) -> Vec<Bit> {
        s.chars()
            .map(|ch| match ch {
                '0' => Bit::Zero,
                '1' => Bit::One,
                _ => Bit::X,
            })
            .collect()
    }

    #[test]
    fn combinational_and() {
        let mut c = Circuit::new("and");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g = c.add_gate("g", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(b, g, vec![]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        let mut sim = Simulator::new(&c).unwrap();
        assert_eq!(sim.step(&bits("11")).unwrap(), bits("1"));
        assert_eq!(sim.step(&bits("10")).unwrap(), bits("0"));
        assert_eq!(sim.step(&bits("1x")).unwrap(), bits("x"));
        assert_eq!(sim.step(&bits("0x")).unwrap(), bits("0"));
    }

    #[test]
    fn ff_delays_by_one() {
        let mut c = Circuit::new("dff");
        let a = c.add_input("a").unwrap();
        let o = c.add_output("o").unwrap();
        let g = c.add_gate("g", TruthTable::buf()).unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(g, o, vec![Bit::Zero]).unwrap();
        let mut sim = Simulator::new(&c).unwrap();
        assert_eq!(sim.step(&bits("1")).unwrap(), bits("0")); // initial value
        assert_eq!(sim.step(&bits("0")).unwrap(), bits("1")); // previous input
        assert_eq!(sim.step(&bits("1")).unwrap(), bits("0"));
    }

    #[test]
    fn chain_of_two_ffs() {
        let mut c = Circuit::new("sr2");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::buf()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(g, o, vec![Bit::One, Bit::Zero]).unwrap();
        let mut sim = Simulator::new(&c).unwrap();
        // Cycle 1 delivers ffs[1] (nearest sink) = 0, cycle 2 delivers 1.
        assert_eq!(sim.step(&bits("1")).unwrap(), bits("0"));
        assert_eq!(sim.step(&bits("0")).unwrap(), bits("1"));
        assert_eq!(sim.step(&bits("0")).unwrap(), bits("1")); // then the cycle-1 input
        assert_eq!(sim.step(&bits("0")).unwrap(), bits("0"));
    }

    #[test]
    fn toggle_flip_flop() {
        // inv feeds itself through a FF initialised to 0: output alternates.
        let mut c = Circuit::new("toggle");
        c.add_input("unused").unwrap();
        let inv = c.add_gate("inv", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(inv, inv, vec![Bit::Zero]).unwrap();
        c.connect(inv, o, vec![]).unwrap();
        let mut sim = Simulator::new(&c).unwrap();
        let outs: Vec<Bit> = (0..4).map(|_| sim.step(&bits("0")).unwrap()[0]).collect();
        assert_eq!(outs, bits("1010"));
    }

    #[test]
    fn x_initial_state_washes_out() {
        // XOR(a, ff) with ff initial X: first output X, then defined.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::xor(2)).unwrap();
        let d = c.add_gate("d", TruthTable::buf()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(d, g, vec![Bit::X]).unwrap();
        c.connect(a, d, vec![]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        let mut sim = Simulator::new(&c).unwrap();
        assert_eq!(sim.step(&bits("1")).unwrap(), bits("x"));
        assert_eq!(sim.step(&bits("1")).unwrap(), bits("0")); // 1 xor prev(1)
        assert_eq!(sim.step(&bits("0")).unwrap(), bits("1")); // 0 xor prev(1)
    }

    #[test]
    fn partial_initial_state_x_masked_by_controlling_value() {
        // AND(a, ff) with ff initial X: the X is *masked* whenever a=0 (a
        // controlling input), visible only when a=1. Pessimistic 3-valued
        // eval must distinguish the two — this is the boundary the fuzz
        // oracle's Compatibility mode leans on.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::and(2)).unwrap();
        let d = c.add_gate("d", TruthTable::buf()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(d, g, vec![Bit::X]).unwrap();
        c.connect(a, d, vec![]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        let mut sim = Simulator::new(&c).unwrap();
        assert_eq!(sim.step(&bits("0")).unwrap(), bits("0")); // X masked
        let mut sim2 = Simulator::new(&c).unwrap();
        assert_eq!(sim2.step(&bits("1")).unwrap(), bits("x")); // X exposed
    }

    #[test]
    fn x_in_mid_chain_flushes_in_order() {
        // Chain [1, X, 0] (source→sink): delivers 0, then X, then 1 —
        // a partially defined chain releases its X exactly once, at the
        // cycle matching its position.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::buf()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(g, o, vec![Bit::One, Bit::X, Bit::Zero]).unwrap();
        let mut sim = Simulator::new(&c).unwrap();
        assert_eq!(sim.step(&bits("1")).unwrap(), bits("0"));
        assert_eq!(sim.step(&bits("1")).unwrap(), bits("x"));
        assert_eq!(sim.step(&bits("1")).unwrap(), bits("1"));
        assert_eq!(sim.step(&bits("1")).unwrap(), bits("1")); // cycle-1 input arrives
    }

    #[test]
    fn x_input_to_xor_never_defined() {
        // XOR has no controlling value: an X PI forces X out every cycle,
        // while the FF path below keeps shifting defined values intact.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::xor(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(a, g, vec![Bit::One]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        let mut sim = Simulator::new(&c).unwrap();
        assert_eq!(sim.step(&bits("x")).unwrap(), bits("x"));
        // After an X has been clocked into the FF, even a defined input
        // cannot recover a defined output.
        assert_eq!(sim.step(&bits("1")).unwrap(), bits("x"));
    }

    #[test]
    fn wrong_pi_vector_length_is_a_typed_error() {
        let mut c = Circuit::new("and");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g = c.add_gate("g", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(b, g, vec![]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        let mut sim = Simulator::new(&c).unwrap();
        assert_eq!(
            sim.step(&bits("1")),
            Err(NetlistError::PiVectorLength {
                expected: 2,
                actual: 1
            })
        );
        assert!(sim.run(&[bits("11"), bits("111")]).is_err());
        // A failed step must not corrupt the simulator: it is usable after.
        assert_eq!(sim.step(&bits("11")).unwrap(), bits("1"));
    }

    #[test]
    fn run_matches_steps() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let o = c.add_output("o").unwrap();
        let g = c.add_gate("g", TruthTable::not()).unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        let seq = vec![bits("1"), bits("0"), bits("x")];
        let mut s1 = Simulator::new(&c).unwrap();
        let outs = s1.run(&seq).unwrap();
        assert_eq!(outs, vec![bits("0"), bits("1"), bits("x")]);
    }
}
