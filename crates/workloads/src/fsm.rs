//! Seeded random FSM synthesis — the MCNC-FSM benchmark substitute.
//!
//! The paper's Table 1 uses 14 MCNC finite state machines synthesised with
//! SIS. Those netlist files are not available offline, so this module
//! generates *structurally comparable* circuits: a random state transition
//! graph (STG) over a given number of states and input bits, encoded into
//! state registers (binary or one-hot) with two-level next-state/output
//! logic built from 2-input gate trees — the same shape SIS produces from
//! a KISS2 description after tech decomposition. The reset state is state
//! 0, giving every register a defined initial value (the paper's setting:
//! "sequential circuits with given initial states").

use engine::Rng64;
use netlist::{Bit, Circuit, NodeId, TruthTable};

/// State register encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// `⌈log2(states)⌉` registers.
    Binary,
    /// One register per state.
    OneHot,
}

/// Parameters of a generated FSM.
#[derive(Debug, Clone)]
pub struct FsmSpec {
    /// Circuit name.
    pub name: String,
    /// Number of STG states (≥ 1).
    pub states: usize,
    /// Number of primary input bits the transitions depend on (decoded
    /// inputs are exhausted; the rest join the output logic only).
    pub inputs: usize,
    /// How many inputs the transition table decodes (clamped to 1..=3;
    /// the decoder grows as `2^decoded`).
    pub decoded: usize,
    /// Number of primary outputs (Moore-style, from the state bits).
    pub outputs: usize,
    /// Register encoding.
    pub encoding: Encoding,
    /// Register every primary input (one shared register per PI, counted
    /// by [`FsmSpec::register_count`]); makes `frt ≥ 1` throughout the
    /// input logic, enabling cross-register LUT formation.
    pub registered_inputs: bool,
    /// RNG seed (generation is fully deterministic).
    pub seed: u64,
}

impl FsmSpec {
    /// Number of registers this spec produces (state registers plus one
    /// per PI when `registered_inputs` is set).
    pub fn register_count(&self) -> usize {
        let state_regs = match self.encoding {
            Encoding::Binary => bits_for(self.states),
            Encoding::OneHot => self.states,
        };
        state_regs
            + if self.registered_inputs {
                self.inputs.max(1)
            } else {
                0
            }
    }
}

fn bits_for(states: usize) -> usize {
    (usize::BITS - (states.max(2) - 1).leading_zeros()) as usize
}

/// Builder state while synthesising gate trees.
struct Synth {
    c: Circuit,
    counter: usize,
}

impl Synth {
    fn fresh_gate(&mut self, tt: TruthTable, prefix: &str) -> NodeId {
        self.counter += 1;
        self.c
            .add_gate(format!("{prefix}_{}", self.counter), tt)
            .expect("fresh names are unique")
    }

    /// Balanced tree of 2-input `tt`-gates over the operand nodes.
    /// Single operands pass through unchanged.
    fn tree(
        &mut self,
        op: fn(usize) -> TruthTable,
        mut operands: Vec<NodeId>,
        prefix: &str,
    ) -> NodeId {
        assert!(!operands.is_empty());
        while operands.len() > 1 {
            let mut next = Vec::with_capacity(operands.len().div_ceil(2));
            let mut it = operands.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => {
                        let g = self.fresh_gate(op(2), prefix);
                        self.c.connect(a, g, vec![]).expect("arity 2");
                        self.c.connect(b, g, vec![]).expect("arity 2");
                        next.push(g);
                    }
                    None => next.push(a),
                }
            }
            operands = next;
        }
        operands.pop().expect("non-empty")
    }

    fn invert(&mut self, a: NodeId, prefix: &str) -> NodeId {
        let g = self.fresh_gate(TruthTable::not(), prefix);
        self.c.connect(a, g, vec![]).expect("arity 1");
        g
    }
}

/// Synthesises the FSM into a gate-level sequential circuit.
///
/// The result is validated, 2-bounded, PI-reachable, and carries a fully
/// defined initial state (the encoding of state 0).
///
/// # Panics
///
/// Panics if `states == 0` or `outputs == 0`.
pub fn generate_fsm(spec: &FsmSpec) -> Circuit {
    assert!(spec.states >= 1, "FSM needs at least one state");
    assert!(spec.outputs >= 1, "FSM needs at least one output");
    let mut rng = Rng64::new(spec.seed ^ 0xF5A5_1234_ABCD_0001);
    // At least one decoded input keeps the state loop PI-reachable (the
    // papers' model requires it); at most 3 keeps the decoder tractable.
    let decoded_inputs = spec.decoded.clamp(1, 3).min(spec.inputs.max(1));
    let combos = 1usize << decoded_inputs;

    // Random STG: next[s][x] and a random Moore output set per output
    // bit. Transitions are biased toward the reset state (sparse on-sets,
    // like real controller FSMs).
    let next: Vec<Vec<usize>> = (0..spec.states)
        .map(|_| {
            (0..combos)
                .map(|_| {
                    if rng.chance(0.4) {
                        0
                    } else {
                        rng.below(spec.states)
                    }
                })
                .collect()
        })
        .collect();
    let out_on: Vec<Vec<bool>> = (0..spec.outputs)
        .map(|_| (0..spec.states).map(|_| rng.chance(0.4)).collect())
        .collect();

    let mut s = Synth {
        c: Circuit::new(spec.name.clone()),
        counter: 0,
    };
    let raw_pis: Vec<NodeId> = (0..spec.inputs.max(1))
        .map(|i| s.c.add_input(format!("in{i}")).expect("unique"))
        .collect();
    let pis: Vec<NodeId> = if spec.registered_inputs {
        raw_pis
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let b =
                    s.c.add_gate(format!("inreg{i}"), TruthTable::buf())
                        .expect("unique");
                s.c.connect(p, b, vec![Bit::from_bool(i % 2 == 1)])
                    .expect("arity");
                b
            })
            .collect()
    } else {
        raw_pis
    };
    let pi_inv: Vec<NodeId> = pis
        .iter()
        .take(decoded_inputs)
        .map(|&p| s.invert(p, "ninp"))
        .collect();

    // State registers are modelled as self-referential signals: we create
    // one "state bit source" gate per register, whose fanin is wired at
    // the end (the next-state function through one FF).
    let regs = match spec.encoding {
        Encoding::Binary => bits_for(spec.states),
        Encoding::OneHot => spec.states,
    };
    let state_src: Vec<NodeId> = (0..regs)
        .map(|b| s.fresh_gate(TruthTable::buf(), &format!("st{b}")))
        .collect();
    let state_inv: Vec<NodeId> = state_src.iter().map(|&b| s.invert(b, "nst")).collect();

    // Decoder terms: state == k (AND over encoded bits or the one-hot bit).
    let state_term = |s: &mut Synth, k: usize| -> NodeId {
        match spec.encoding {
            Encoding::OneHot => state_src[k],
            Encoding::Binary => {
                let lits: Vec<NodeId> = (0..regs)
                    .map(|b| {
                        if (k >> b) & 1 == 1 {
                            state_src[b]
                        } else {
                            state_inv[b]
                        }
                    })
                    .collect();
                s.tree(TruthTable::and, lits, "dec")
            }
        }
    };
    // Input combo terms.
    let combo_term = |s: &mut Synth, x: usize| -> Option<NodeId> {
        if decoded_inputs == 0 {
            return None;
        }
        let lits: Vec<NodeId> = (0..decoded_inputs)
            .map(|i| if (x >> i) & 1 == 1 { pis[i] } else { pi_inv[i] })
            .collect();
        Some(s.tree(TruthTable::and, lits, "cmb"))
    };
    let mut state_terms = Vec::with_capacity(spec.states);
    for k in 0..spec.states {
        state_terms.push(state_term(&mut s, k));
    }
    let mut combo_terms = Vec::with_capacity(combos);
    for x in 0..combos {
        combo_terms.push(combo_term(&mut s, x));
    }

    // Next-state bit functions: OR over minterms (state, combo) whose
    // successor sets the bit. Minterm gates are shared across bits, as a
    // logic-sharing synthesiser would.
    let bit_set = |state: usize, bit: usize| -> bool {
        match spec.encoding {
            Encoding::Binary => (state >> bit) & 1 == 1,
            Encoding::OneHot => state == bit,
        }
    };
    let mut minterm_cache: Vec<Vec<Option<NodeId>>> = vec![vec![None; combos]; spec.states];
    let mut next_bits: Vec<Option<NodeId>> = Vec::with_capacity(regs);
    for b in 0..regs {
        let mut minterms = Vec::new();
        for k in 0..spec.states {
            for x in 0..combos {
                if bit_set(next[k][x], b) {
                    let mt = match minterm_cache[k][x] {
                        Some(mt) => mt,
                        None => {
                            let mut ops = vec![state_terms[k]];
                            if let Some(ct) = combo_terms[x] {
                                ops.push(ct);
                            }
                            let mt = s.tree(TruthTable::and, ops, "nm");
                            minterm_cache[k][x] = Some(mt);
                            mt
                        }
                    };
                    minterms.push(mt);
                }
            }
        }
        next_bits.push(if minterms.is_empty() {
            None // the bit is constantly 0: feed it a grounded AND below
        } else {
            Some(s.tree(TruthTable::or, minterms, &format!("nx{b}")))
        });
    }

    // Close the state loops: state_src[b] = FF(next_bits[b]) with the
    // reset encoding of state 0.
    for b in 0..regs {
        let init = Bit::from_bool(bit_set(0, b));
        let driver = match next_bits[b] {
            Some(d) => d,
            None => {
                // Constant-0 next bit: AND(in0, NOT in0) keeps PI
                // reachability without a constant generator.
                let z = s.fresh_gate(TruthTable::and(2), "zero");
                let inv = s.invert(pis[0], "zero");
                s.c.connect(pis[0], z, vec![]).expect("arity");
                s.c.connect(inv, z, vec![]).expect("arity");
                z
            }
        };
        s.c.connect(driver, state_src[b], vec![init])
            .expect("state loop");
    }

    // Moore outputs: OR over on-set state terms (mixed with an undecoded
    // input when available, for Mealy flavour).
    for o in 0..spec.outputs {
        let po = s.c.add_output(format!("out{o}")).expect("unique");
        let mut terms: Vec<NodeId> = (0..spec.states)
            .filter(|&k| out_on[o][k])
            .map(|k| state_terms[k])
            .collect();
        if terms.is_empty() {
            terms.push(state_terms[o % spec.states]);
        }
        let mut sig = s.tree(TruthTable::or, terms, &format!("out{o}"));
        if spec.inputs > decoded_inputs {
            let extra = pis[decoded_inputs + o % (spec.inputs - decoded_inputs)];
            let g = s.fresh_gate(TruthTable::and(2), &format!("mel{o}"));
            s.c.connect(sig, g, vec![]).expect("arity");
            s.c.connect(extra, g, vec![]).expect("arity");
            sig = g;
        }
        s.c.connect(sig, po, vec![]).expect("PO fanin");
    }
    s.c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(states: usize, inputs: usize, outputs: usize, enc: Encoding) -> FsmSpec {
        FsmSpec {
            name: "fsm".into(),
            states,
            inputs,
            decoded: 2,
            outputs,
            encoding: enc,
            registered_inputs: false,
            seed: 42,
        }
    }

    #[test]
    fn generates_valid_circuit() {
        for enc in [Encoding::Binary, Encoding::OneHot] {
            let c = generate_fsm(&spec(6, 2, 2, enc));
            netlist::validate(&c).unwrap();
            assert!(c.max_fanin() <= 2);
            assert_eq!(
                c.ff_count_shared(),
                spec(6, 2, 2, enc).register_count(),
                "{enc:?}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_fsm(&spec(5, 2, 1, Encoding::Binary));
        let b = generate_fsm(&spec(5, 2, 1, Encoding::Binary));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut sp = spec(5, 2, 1, Encoding::Binary);
        let a = generate_fsm(&sp);
        sp.seed = 43;
        let b = generate_fsm(&sp);
        assert_ne!(a, b);
    }

    #[test]
    fn initial_state_defined() {
        let c = generate_fsm(&spec(7, 3, 2, Encoding::Binary));
        for e in c.edge_ids() {
            for &b in c.edge(e).ffs() {
                assert!(b.is_defined());
            }
        }
    }

    #[test]
    fn simulates_from_reset() {
        let c = generate_fsm(&spec(4, 2, 2, Encoding::OneHot));
        let mut sim = netlist::Simulator::new(&c).unwrap();
        for cycle in 0..16 {
            let inp: Vec<Bit> = (0..c.inputs().len())
                .map(|i| Bit::from_bool((cycle + i) % 3 == 0))
                .collect();
            let out = sim.step(&inp).unwrap();
            assert!(
                out.iter().all(|b| b.is_defined()),
                "outputs defined at cycle {cycle}"
            );
        }
    }

    #[test]
    fn zero_decoded_inputs_still_valid() {
        let mut sp = spec(3, 0, 1, Encoding::Binary);
        sp.inputs = 0;
        let c = generate_fsm(&sp);
        netlist::validate(&c).unwrap();
        assert_eq!(c.inputs().len(), 1); // a clock-enable-like dummy PI
    }

    #[test]
    fn single_state_fsm() {
        let c = generate_fsm(&spec(1, 1, 1, Encoding::Binary));
        netlist::validate(&c).unwrap();
    }
}
