//! Random layered sequential circuits — the ISCAS'89 benchmark
//! substitute.
//!
//! The four large Table-1 circuits (s5378, s9234.1, s15850.1, s38417) are
//! ISCAS'89 scan designs: wide datapath-ish logic with thousands of gates
//! and hundreds of registers, moderate combinational depth, and feedback
//! through the register file. [`generate_layered`] reproduces that shape:
//! gates are laid out in combinational layers; a register file of `ffs`
//! bits samples randomly chosen gate outputs and feeds the early layers
//! back (always through registers, so no combinational cycles); every
//! gate's inputs trace back to PIs.

use engine::Rng64;
use netlist::{Bit, Circuit, NodeId, TruthTable};

/// Parameters of a layered sequential circuit.
#[derive(Debug, Clone)]
pub struct LayeredSpec {
    /// Circuit name.
    pub name: String,
    /// Target gate count (hit exactly).
    pub gates: usize,
    /// Register count (hit exactly).
    pub ffs: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Combinational depth per register stage (roughly the pre-mapping
    /// clock period).
    pub depth: usize,
    /// Register every primary input (scan-design style). Adds one shared
    /// register per PI to the total count and makes every node's
    /// `frt ≥ 1`, enabling cross-register LUT formation.
    pub registered_inputs: bool,
    /// RNG seed.
    pub seed: u64,
}

/// Generates the circuit. Deterministic per spec.
///
/// # Panics
///
/// Panics when `gates < depth`, or `inputs`/`outputs` is zero.
pub fn generate_layered(spec: &LayeredSpec) -> Circuit {
    assert!(spec.inputs > 0 && spec.outputs > 0);
    let depth = spec.depth.max(1);
    assert!(spec.gates >= depth, "need at least one gate per layer");
    let mut rng = Rng64::new(spec.seed ^ 0x15CA_5890_0000_0001);
    let mut c = Circuit::new(spec.name.clone());
    let raw_pis: Vec<NodeId> = (0..spec.inputs)
        .map(|i| c.add_input(format!("in{i}")).expect("unique"))
        .collect();
    // With registered inputs, gates read a buffered copy of each PI whose
    // fanin edge carries one register.
    let pis: Vec<NodeId> = if spec.registered_inputs {
        raw_pis
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let b = c
                    .add_gate(format!("inreg{i}"), TruthTable::buf())
                    .expect("unique");
                let init = Bit::from_bool(i % 2 == 0);
                c.connect(p, b, vec![init]).expect("arity");
                b
            })
            .collect()
    } else {
        raw_pis.clone()
    };

    // Register file bits are buffer gates fed later through one FF each.
    let regs: Vec<NodeId> = (0..spec.ffs)
        .map(|i| {
            c.add_gate(format!("r{i}"), TruthTable::buf())
                .expect("unique")
        })
        .collect();

    let ops: [fn(usize) -> TruthTable; 4] = [
        TruthTable::and,
        TruthTable::or,
        TruthTable::nand,
        TruthTable::xor,
    ];
    // Layer 0 candidates: PIs and register outputs.
    let mut prev_layers: Vec<Vec<NodeId>> = vec![pis.clone()];
    if !regs.is_empty() {
        prev_layers.push(regs.clone());
    }
    let mut gates: Vec<NodeId> = Vec::with_capacity(spec.gates);
    let remaining_gates = spec.gates;
    let per_layer = remaining_gates / depth;
    let mut made = 0usize;
    for layer in 0..depth {
        let count = if layer + 1 == depth {
            remaining_gates - made
        } else {
            per_layer.max(1)
        };
        let mut this_layer = Vec::with_capacity(count);
        for i in 0..count {
            let tt = ops[rng.below(ops.len())](2);
            let g = c.add_gate(format!("g{layer}_{i}"), tt).expect("unique");
            // Input 0: biased toward the immediately previous layer to
            // build depth (layer 0 reads PIs so every node stays
            // PI-reachable — register bits alone would form autonomous
            // loops); input 1: anywhere earlier for reconvergence.
            let a = if layer == 0 {
                pis[rng.below(pis.len())]
            } else {
                pick(&mut rng, &prev_layers, true)
            };
            let b = pick(&mut rng, &prev_layers, false);
            c.connect(a, g, vec![]).expect("arity");
            c.connect(b, g, vec![]).expect("arity");
            this_layer.push(g);
            gates.push(g);
        }
        made += count;
        prev_layers.push(this_layer);
    }

    // Close the register file: each register samples a *distinct* gate
    // (distinct drivers keep the shared-register count equal to `ffs`),
    // biased toward the deepest gates for realistic reg-to-reg paths.
    // When there are more registers than gates, the remainder chain off
    // other register buffers (still distinct drivers).
    let mut pool: Vec<NodeId> = gates.iter().rev().copied().collect();
    // Shuffle the deep half to decorrelate consecutive registers.
    let window = (pool.len() / 2).max(1).min(pool.len());
    for i in 0..window.saturating_sub(1) {
        let j = rng.range_usize(i, window);
        pool.swap(i, j);
    }
    if gates.is_empty() {
        pool = pis.clone();
    }
    for (i, &r) in regs.iter().enumerate() {
        let src = if i < pool.len() {
            pool[i]
        } else {
            regs[i - pool.len()]
        };
        let init = Bit::from_bool(rng.chance(0.5));
        c.connect(src, r, vec![init]).expect("register loop");
    }

    // Primary outputs from the deepest layer (falling back to earlier
    // gates when the last layer is small).
    for o in 0..spec.outputs {
        let po = c.add_output(format!("out{o}")).expect("unique");
        let src = gates[gates.len() - 1 - (o % gates.len().min(64))];
        c.connect(src, po, vec![]).expect("PO fanin");
    }
    c
}

fn pick(rng: &mut Rng64, layers: &[Vec<NodeId>], prefer_last: bool) -> NodeId {
    let li = if prefer_last || layers.len() == 1 {
        layers.len() - 1
    } else {
        rng.below(layers.len())
    };
    let layer = &layers[li];
    layer[rng.below(layer.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(gates: usize, ffs: usize, depth: usize) -> LayeredSpec {
        LayeredSpec {
            name: "lay".into(),
            gates,
            ffs,
            inputs: 8,
            outputs: 6,
            depth,
            registered_inputs: false,
            seed: 7,
        }
    }

    #[test]
    fn exact_counts() {
        let c = generate_layered(&spec(200, 30, 6));
        netlist::validate(&c).unwrap();
        // Register-file buffers are gates too.
        assert_eq!(c.num_gates(), 200 + 30);
        assert_eq!(c.ff_count_shared(), 30);
        assert!(c.max_fanin() <= 2);
    }

    #[test]
    fn depth_close_to_request() {
        let c = generate_layered(&spec(300, 20, 8));
        let period = c.clock_period().unwrap();
        assert!(period >= 8, "period {period} < requested depth");
        assert!(period <= 2 * 8 + 2, "period {period} too deep");
    }

    #[test]
    fn deterministic() {
        let a = generate_layered(&spec(100, 10, 4));
        let b = generate_layered(&spec(100, 10, 4));
        assert_eq!(a, b);
    }

    #[test]
    fn no_registers_works() {
        let c = generate_layered(&spec(50, 0, 5));
        netlist::validate(&c).unwrap();
        assert_eq!(c.ff_count_shared(), 0);
    }

    #[test]
    fn simulates_defined() {
        let c = generate_layered(&spec(80, 12, 4));
        let mut sim = netlist::Simulator::new(&c).unwrap();
        let inp: Vec<Bit> = (0..c.inputs().len()).map(|_| Bit::One).collect();
        for _ in 0..8 {
            let out = sim.step(&inp).unwrap();
            assert!(out.iter().all(|b| b.is_defined()));
        }
    }
}
