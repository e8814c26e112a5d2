//! Batched three-valued simulation: 64 vectors per machine word.
//!
//! [`VecSimulator`] is the vectorized counterpart of the scalar
//! [`Simulator`](crate::sim::Simulator). Every signal carries a
//! [`Planes`] word — two 64-bit bitplanes encoding 64 independent
//! three-valued lanes:
//!
//! | lane value | `p0` bit | `p1` bit |
//! |-----------:|:--------:|:--------:|
//! | `0`        | 1        | 0        |
//! | `1`        | 0        | 1        |
//! | `X`        | 1        | 1        |
//!
//! (`p0` = "could be 0", `p1` = "could be 1"; both clear never occurs.)
//! Gates evaluate all 64 lanes with [`TruthTable::eval3_planes`] —
//! bitwise minterm masks over the truth-table rows — which reproduces
//! the pessimistic [`eval3`](TruthTable::eval3) semantics exactly,
//! including controlling-value `X` masking. The equivalence checkers in
//! [`crate::equiv`] run on this engine; the scalar simulator is retained
//! as the differential oracle (see the `scalar_agreement` tests below).
//!
//! Internally the simulator is flat struct-of-arrays: one pin CSR
//! (offsets into a flat pool of pin sources), one flat FF-chain arena,
//! and a dense per-node value array — no per-node `Vec` or map on the
//! step path, so a step is a single linear walk.

use crate::bit::Bit;
use crate::circuit::Circuit;
use crate::error::NetlistError;
use crate::truth::TruthTable;

/// Number of simulation lanes packed into one [`Planes`] word.
pub const LANES: usize = 64;

/// A 64-lane three-valued signal value: two bitplanes, bit `l` of `p0`
/// set when lane `l` could be `0`, bit `l` of `p1` set when it could be
/// `1` (both = `X`, never neither).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planes {
    /// "Could be 0" plane.
    pub p0: u64,
    /// "Could be 1" plane.
    pub p1: u64,
}

impl Planes {
    /// All 64 lanes set to `bit`.
    pub fn splat(bit: Bit) -> Planes {
        match bit {
            Bit::Zero => Planes { p0: !0, p1: 0 },
            Bit::One => Planes { p0: 0, p1: !0 },
            Bit::X => Planes { p0: !0, p1: !0 },
        }
    }

    /// The value of lane `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= LANES`.
    pub fn get(self, l: usize) -> Bit {
        assert!(l < LANES, "lane out of range");
        match ((self.p0 >> l) & 1, (self.p1 >> l) & 1) {
            (1, 0) => Bit::Zero,
            (0, 1) => Bit::One,
            _ => Bit::X,
        }
    }

    /// Sets lane `l` to `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= LANES`.
    pub fn set(&mut self, l: usize, bit: Bit) {
        assert!(l < LANES, "lane out of range");
        let mask = 1u64 << l;
        let (z, o) = match bit {
            Bit::Zero => (mask, 0),
            Bit::One => (0, mask),
            Bit::X => (mask, mask),
        };
        self.p0 = (self.p0 & !mask) | z;
        self.p1 = (self.p1 & !mask) | o;
    }

    /// Packs up to [`LANES`] scalar bits, one per lane (missing lanes
    /// default to `X`).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() > LANES`.
    pub fn pack(bits: &[Bit]) -> Planes {
        assert!(bits.len() <= LANES, "too many lanes");
        let mut planes = Planes::splat(Bit::X);
        for (l, &b) in bits.iter().enumerate() {
            planes.set(l, b);
        }
        planes
    }

    /// Unpacks the first `n` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `n > LANES`.
    pub fn unpack(self, n: usize) -> Vec<Bit> {
        (0..n).map(|l| self.get(l)).collect()
    }
}

/// Sentinel in the pin-slot pool: read the driver's current value
/// (weight-0 edge) instead of an FF chain slot.
const DIRECT: u32 = u32::MAX;

/// A cycle-accurate three-valued simulator evaluating 64 vectors per
/// step. Lanes are fully independent: each starts from the circuit's
/// initial state and sees its own input sequence.
#[derive(Debug, Clone)]
pub struct VecSimulator<'a> {
    /// Non-PI nodes in combinational topological order.
    eval_nodes: Vec<u32>,
    /// Gate function per scheduled node (`None` = primary output).
    funcs: Vec<Option<&'a TruthTable>>,
    /// Pin CSR: pins of `eval_nodes[j]` are `pin_off[j]..pin_off[j+1]`.
    pin_off: Vec<u32>,
    /// Driver node index per pin (used when `pin_slot` is `DIRECT`).
    pin_src: Vec<u32>,
    /// FF-chain arena slot per pin, or `DIRECT` for weight-0 pins.
    pin_slot: Vec<u32>,
    /// Flat FF-chain arena, edge-major, source→sink within a chain.
    chain: Vec<Planes>,
    /// Chain extents per registered edge, paired with the source node:
    /// `(source node index, start, end)` into `chain`.
    shifts: Vec<(u32, u32, u32)>,
    /// Current node values (dense, indexed by node id).
    values: Vec<Planes>,
    /// Primary input node indices, PI order.
    inputs: Vec<u32>,
    /// Primary output node indices, PO order.
    outputs: Vec<u32>,
    /// Scratch pin-plane buffer reused across gates.
    pins: Vec<(u64, u64)>,
}

impl<'a> VecSimulator<'a> {
    /// Creates a simulator starting every lane from the circuit's
    /// initial state.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] when the circuit
    /// cannot be evaluated.
    pub fn new(circuit: &'a Circuit) -> Result<VecSimulator<'a>, NetlistError> {
        let order = circuit.comb_topo_order()?;
        let mut eval_nodes = Vec::with_capacity(order.len());
        let mut funcs = Vec::with_capacity(order.len());
        let mut pin_off = vec![0u32];
        let mut pin_src = Vec::new();
        let mut pin_slot = Vec::new();
        let mut chain = Vec::new();
        let mut shifts = Vec::new();

        // Flatten every FF chain into one arena first, so pins can point
        // straight at their chain slot.
        let mut chain_start = vec![0u32; circuit.num_edges()];
        for e in circuit.edge_ids() {
            let edge = circuit.edge(e);
            chain_start[e.index()] = chain.len() as u32;
            if edge.weight() > 0 {
                let start = chain.len() as u32;
                chain.extend(edge.ffs().iter().map(|&b| Planes::splat(b)));
                shifts.push((edge.from().index() as u32, start, chain.len() as u32));
            }
        }
        for &v in &order {
            let node = circuit.node(v);
            if node.is_input() {
                continue;
            }
            eval_nodes.push(v.index() as u32);
            funcs.push(node.function());
            for &e in node.fanin() {
                let edge = circuit.edge(e);
                let w = edge.weight();
                pin_src.push(edge.from().index() as u32);
                pin_slot.push(if w == 0 {
                    DIRECT
                } else {
                    chain_start[e.index()] + (w - 1) as u32
                });
            }
            pin_off.push(pin_src.len() as u32);
        }
        Ok(VecSimulator {
            eval_nodes,
            funcs,
            pin_off,
            pin_src,
            pin_slot,
            chain,
            shifts,
            values: vec![Planes::splat(Bit::X); circuit.num_nodes()],
            inputs: circuit.inputs().iter().map(|v| v.index() as u32).collect(),
            outputs: circuit.outputs().iter().map(|v| v.index() as u32).collect(),
            pins: Vec::new(),
        })
    }

    /// Advances one clock cycle on all 64 lanes and returns the PO
    /// values (PO order, one [`Planes`] word per output).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PiVectorLength`] if `inputs.len()` differs
    /// from the number of PIs.
    pub fn step(&mut self, inputs: &[Planes]) -> Result<Vec<Planes>, NetlistError> {
        if inputs.len() != self.inputs.len() {
            return Err(NetlistError::PiVectorLength {
                expected: self.inputs.len(),
                actual: inputs.len(),
            });
        }
        let _span = engine::trace::span1("sim_step", "nodes", self.eval_nodes.len() as u64);
        for (&pi, &v) in self.inputs.iter().zip(inputs) {
            self.values[pi as usize] = v;
        }
        for (j, &v) in self.eval_nodes.iter().enumerate() {
            let (lo, hi) = (self.pin_off[j] as usize, self.pin_off[j + 1] as usize);
            self.pins.clear();
            for p in lo..hi {
                let slot = self.pin_slot[p];
                let planes = if slot == DIRECT {
                    self.values[self.pin_src[p] as usize]
                } else {
                    self.chain[slot as usize]
                };
                self.pins.push((planes.p0, planes.p1));
            }
            self.values[v as usize] = match self.funcs[j] {
                Some(tt) => {
                    let (p0, p1) = tt.eval3_planes(&self.pins);
                    Planes { p0, p1 }
                }
                // PO: pass the single fanin through (X when unconnected).
                None => match self.pins.first() {
                    Some(&(p0, p1)) => Planes { p0, p1 },
                    None => Planes::splat(Bit::X),
                },
            };
        }
        // Synchronous FF shift, one rotation per registered edge: the
        // sink-end slot falls off, the driver's new value enters at the
        // source end.
        for &(src, start, end) in &self.shifts {
            let chain = &mut self.chain[start as usize..end as usize];
            for i in (1..chain.len()).rev() {
                chain[i] = chain[i - 1];
            }
            chain[0] = self.values[src as usize];
        }
        Ok(self
            .outputs
            .iter()
            .map(|&po| self.values[po as usize])
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::random_sequence;
    use crate::sim::Simulator;
    use engine::rng::Rng64;

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
    fn planes_roundtrip_and_splat() {
        let mut p = Planes::splat(Bit::X);
        assert_eq!(p.get(0), Bit::X);
        assert_eq!(p.get(63), Bit::X);
        p.set(3, Bit::One);
        p.set(4, Bit::Zero);
        assert_eq!(p.get(3), Bit::One);
        assert_eq!(p.get(4), Bit::Zero);
        assert_eq!(p.get(5), Bit::X);
        let v = bits("01x10");
        assert_eq!(Planes::pack(&v).unpack(5), v);
        assert_eq!(Planes::splat(Bit::One).get(17), Bit::One);
        assert_eq!(Planes::splat(Bit::Zero).get(62), Bit::Zero);
    }

    #[test]
    fn eval3_planes_matches_eval3_exhaustively() {
        // Every truth table of arity ≤ 2, every 3-valued input combo,
        // packed into lanes — the bitplane path must agree with eval3.
        let all = [Bit::Zero, Bit::One, Bit::X];
        for k in 0..=2usize {
            for code in 0..(1u32 << (1 << k)) {
                let tt = TruthTable::from_fn(k, |r| (code >> r) & 1 == 1);
                let combos: Vec<Vec<Bit>> = (0..3usize.pow(k as u32))
                    .map(|mut c| {
                        (0..k)
                            .map(|_| {
                                let b = all[c % 3];
                                c /= 3;
                                b
                            })
                            .collect()
                    })
                    .collect();
                // Pack one combo per lane.
                let inputs: Vec<(u64, u64)> = (0..k)
                    .map(|i| {
                        let p = Planes::pack(&combos.iter().map(|c| c[i]).collect::<Vec<_>>());
                        (p.p0, p.p1)
                    })
                    .collect();
                let (p0, p1) = tt.eval3_planes(&inputs);
                let out = Planes { p0, p1 };
                for (l, combo) in combos.iter().enumerate() {
                    assert_eq!(out.get(l), tt.eval3(combo), "tt {tt} combo {combo:?}");
                }
            }
        }
    }

    /// A random sequential circuit: `pis` inputs, `gates` gates of
    /// arity 1–3 with random functions, random FF weights 0–2 with
    /// random (possibly `X`) initial values, and `pos` outputs.
    fn random_circuit(seed: u64, pis: usize, gates: usize, pos: usize) -> Circuit {
        let mut rng = Rng64::new(seed);
        let mut c = Circuit::new(format!("rand{seed}"));
        let mut drivers = Vec::new();
        for i in 0..pis {
            drivers.push(c.add_input(format!("i{i}")).unwrap());
        }
        for g in 0..gates {
            let k = 1 + (rng.next_u64() % 3) as usize;
            let code = rng.next_u64();
            let tt = TruthTable::from_fn(k, |r| (code >> r) & 1 == 1);
            let v = c.add_gate(format!("g{g}"), tt).unwrap();
            for _ in 0..k {
                let from = drivers[(rng.next_u64() as usize) % drivers.len()];
                let w = (rng.next_u64() % 3) as usize;
                let ffs: Vec<Bit> = (0..w)
                    .map(|_| match rng.next_u64() % 3 {
                        0 => Bit::Zero,
                        1 => Bit::One,
                        _ => Bit::X,
                    })
                    .collect();
                c.connect(from, v, ffs).unwrap();
            }
            drivers.push(v);
        }
        for p in 0..pos {
            let o = c.add_output(format!("o{p}")).unwrap();
            let from = drivers[(rng.next_u64() as usize) % drivers.len()];
            c.connect(from, o, vec![]).unwrap();
        }
        c
    }

    /// The satellite differential property: for random circuits with
    /// partial-`X` initial states driven by random (occasionally `X`)
    /// inputs, all 64 vector lanes must match 64 scalar simulations
    /// bit-for-bit, cycle by cycle.
    #[test]
    fn vector_matches_scalar_bit_for_bit() {
        for seed in 0..6u64 {
            let c = random_circuit(1000 + seed, 3, 12, 3);
            let cycles = 8;
            let mut rng = Rng64::new(77 ^ seed);
            // Lane-major input sequences, with a 1-in-8 chance of X to
            // exercise X-propagation from the PIs too.
            let seqs: Vec<Vec<Vec<Bit>>> = (0..LANES)
                .map(|_| {
                    (0..cycles)
                        .map(|_| {
                            (0..3)
                                .map(|_| {
                                    if rng.next_u64().is_multiple_of(8) {
                                        Bit::X
                                    } else {
                                        Bit::from_bool(rng.next_u64() & 1 == 1)
                                    }
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let mut vsim = VecSimulator::new(&c).unwrap();
            let mut scalars: Vec<Simulator> =
                (0..LANES).map(|_| Simulator::new(&c).unwrap()).collect();
            for t in 0..cycles {
                let inputs: Vec<Planes> = (0..3)
                    .map(|i| Planes::pack(&seqs.iter().map(|s| s[t][i]).collect::<Vec<_>>()))
                    .collect();
                let vec_out = vsim.step(&inputs).unwrap();
                for (l, scalar) in scalars.iter_mut().enumerate() {
                    let scalar_out = scalar.step(&seqs[l][t]).unwrap();
                    for (po, &word) in vec_out.iter().enumerate() {
                        assert_eq!(
                            word.get(l),
                            scalar_out[po],
                            "seed {seed} cycle {t} lane {l} po {po}"
                        );
                    }
                }
            }
        }
    }

    /// X-propagation boundary from the scalar suite, replayed on one
    /// lane while the other lanes carry different vectors: AND(a, ff=X)
    /// masks the X exactly when a=0.
    #[test]
    fn partial_x_initial_state_masked_per_lane() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::and(2)).unwrap();
        let d = c.add_gate("d", TruthTable::buf()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(d, g, vec![Bit::X]).unwrap();
        c.connect(a, d, vec![]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        let mut sim = VecSimulator::new(&c).unwrap();
        // Lane 0 drives a=0 (X masked), lane 1 drives a=1 (X exposed).
        let out = sim.step(&[Planes::pack(&bits("01"))]).unwrap();
        assert_eq!(out[0].get(0), Bit::Zero);
        assert_eq!(out[0].get(1), Bit::X);
    }

    #[test]
    fn ff_chains_shift_independently_per_lane() {
        // Chain [1, X, 0] source→sink delivers 0, X, 1, then inputs.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::buf()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(g, o, vec![Bit::One, Bit::X, Bit::Zero]).unwrap();
        let mut sim = VecSimulator::new(&c).unwrap();
        let drive = [Planes::pack(&bits("10"))];
        let expect = [bits("00"), bits("xx"), bits("11"), bits("10")];
        for want in expect {
            let out = sim.step(&drive).unwrap();
            assert_eq!(out[0].unpack(2), want);
        }
    }

    #[test]
    fn wrong_pi_count_is_a_typed_error() {
        let c = random_circuit(5, 2, 4, 1);
        let mut sim = VecSimulator::new(&c).unwrap();
        assert_eq!(
            sim.step(&[Planes::splat(Bit::Zero)]),
            Err(NetlistError::PiVectorLength {
                expected: 2,
                actual: 1
            })
        );
    }

    /// Driving all lanes with the same `random_sequence` must reproduce
    /// the scalar simulator's trajectory on every lane.
    #[test]
    fn splat_sequence_matches_scalar_run() {
        let c = random_circuit(9, 4, 20, 4);
        let seq = random_sequence(4, 12, 3);
        let mut scalar = Simulator::new(&c).unwrap();
        let scalar_out = scalar.run(&seq).unwrap();
        let mut vsim = VecSimulator::new(&c).unwrap();
        for (t, inp) in seq.iter().enumerate() {
            let planes: Vec<Planes> = inp.iter().map(|&b| Planes::splat(b)).collect();
            let out = vsim.step(&planes).unwrap();
            for (po, &word) in out.iter().enumerate() {
                assert_eq!(word.get(0), scalar_out[t][po]);
                assert_eq!(word.get(63), scalar_out[t][po]);
            }
        }
    }
}
