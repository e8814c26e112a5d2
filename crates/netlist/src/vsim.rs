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
//! Gates evaluate all 64 lanes with the branch-free Shannon mux tree
//! `truth::eval3_planes_word` — each table row becomes an all-zero or
//! all-one mask and each input halves the rows with
//! `(p0 & lo) | (p1 & hi)` — which reproduces the pessimistic [`eval3`](TruthTable::eval3)
//! semantics exactly, including controlling-value `X` masking. The
//! equivalence checkers in [`crate::equiv`] run on this engine; the
//! scalar simulator is retained as the differential oracle (see the
//! `vector_matches_scalar_bit_for_bit` test below).
//!
//! [`VecSimulator::new`] compiles the circuit once into a flat program:
//! one op per scheduled node (its table as a `u64` word, its arity and
//! its destination slot), a pin pool of slot indices, and one slot array
//! holding node values, then the FF-chain arena, then a constant `X`.
//! POs compile to one-input buffers (an unconnected PO reads the `X`
//! slot). A step gathers each op's pins into a stack array and runs the
//! word kernel; no `TruthTable` is touched, except by the rare gate wider
//! than 6 inputs, which keeps the row walk of
//! [`TruthTable::eval3_planes`].

use crate::bit::Bit;
use crate::circuit::Circuit;
use crate::error::NetlistError;
use crate::truth::{eval3_planes_word, TruthTable, WORD_INPUTS};

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

/// On-set word of the one-input buffer every PO compiles to.
const BUF_WORD: u64 = 0b10;

/// One scheduled node of the compiled step program.
#[derive(Debug, Clone, Copy)]
struct Op {
    /// On-set word for arity ≤ [`WORD_INPUTS`]; otherwise the index of
    /// the table in [`VecSimulator::wide`].
    table: u64,
    /// Slot the result is written to (the node's value slot).
    dst: u32,
    /// First of this op's `arity` entries in [`VecSimulator::pins`].
    pin_start: u32,
    /// Number of pins.
    arity: u8,
}

/// A cycle-accurate three-valued simulator evaluating 64 vectors per
/// step. Lanes are fully independent: each starts from the circuit's
/// initial state and sees its own input sequence.
#[derive(Debug, Clone)]
pub struct VecSimulator<'a> {
    /// Non-PI nodes in combinational topological order, compiled to ops.
    ops: Vec<Op>,
    /// Slot read by each pin, op-major.
    pins: Vec<u32>,
    /// Tables wider than [`WORD_INPUTS`] inputs, evaluated by row walk.
    wide: Vec<&'a TruthTable>,
    /// Every value the step reads: node values (indexed by node id),
    /// then the FF-chain arena from [`Self::chain_base`] (edge-major,
    /// source→sink within a chain), then one constant `X` slot that
    /// unconnected outputs read.
    slots: Vec<Planes>,
    /// Index of the first FF-chain slot in `slots`.
    chain_base: usize,
    /// The FF-chain slots' initial planes, restored by [`Self::reset`].
    chain_init: Vec<Planes>,
    /// Chain extents per registered edge, paired with the source node:
    /// `(source node slot, start, end)` into `slots`.
    shifts: Vec<(u32, u32, u32)>,
    /// Primary input node indices, PI order.
    inputs: Vec<u32>,
    /// Primary output node indices, PO order.
    outputs: Vec<u32>,
    /// Pin planes of the wide gate being evaluated.
    scratch: Vec<(u64, u64)>,
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
        let chain_base = circuit.num_nodes();
        let mut chain_init = Vec::new();
        let mut shifts = Vec::new();

        // Flatten every FF chain into one arena first, so pins can point
        // straight at their chain slot.
        let mut chain_start = vec![0u32; circuit.num_edges()];
        for e in circuit.edge_ids() {
            let edge = circuit.edge(e);
            let start = (chain_base + chain_init.len()) as u32;
            chain_start[e.index()] = start;
            if edge.weight() > 0 {
                chain_init.extend(edge.ffs().iter().map(|&b| Planes::splat(b)));
                let end = (chain_base + chain_init.len()) as u32;
                shifts.push((edge.from().index() as u32, start, end));
            }
        }
        let const_x = (chain_base + chain_init.len()) as u32;
        let mut ops = Vec::with_capacity(order.len());
        let mut pins = Vec::new();
        let mut wide = Vec::new();
        for &v in &order {
            let node = circuit.node(v);
            if node.is_input() {
                continue;
            }
            let pin_start = pins.len() as u32;
            for &e in node.fanin() {
                let edge = circuit.edge(e);
                pins.push(match edge.weight() {
                    0 => edge.from().index() as u32,
                    w => chain_start[e.index()] + (w - 1) as u32,
                });
            }
            let (table, arity) = match node.function() {
                Some(tt) => match tt.word() {
                    Some(word) => (word, tt.num_inputs()),
                    None => {
                        wide.push(tt);
                        ((wide.len() - 1) as u64, tt.num_inputs())
                    }
                },
                // A PO is a buffer of its single fanin (X when unconnected).
                None => {
                    if node.fanin().is_empty() {
                        pins.push(const_x);
                    }
                    (BUF_WORD, 1)
                }
            };
            ops.push(Op {
                table,
                dst: v.index() as u32,
                pin_start,
                arity: arity as u8,
            });
        }
        let mut slots = vec![Planes::splat(Bit::X); chain_base];
        slots.extend_from_slice(&chain_init);
        slots.push(Planes::splat(Bit::X));
        Ok(VecSimulator {
            ops,
            pins,
            wide,
            slots,
            chain_base,
            chain_init,
            shifts,
            inputs: circuit.inputs().iter().map(|v| v.index() as u32).collect(),
            outputs: circuit.outputs().iter().map(|v| v.index() as u32).collect(),
            scratch: Vec::new(),
        })
    }

    /// Returns every lane to the circuit's initial state, as if the
    /// simulator had just been created. Only the FF chains carry state
    /// across steps: every node value is rewritten before it is read.
    pub fn reset(&mut self) {
        let base = self.chain_base;
        self.slots[base..base + self.chain_init.len()].copy_from_slice(&self.chain_init);
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
        let _span = engine::trace::span1("sim_step", "nodes", self.ops.len() as u64);
        let slots = &mut self.slots;
        for (&pi, &v) in self.inputs.iter().zip(inputs) {
            slots[pi as usize] = v;
        }
        for op in &self.ops {
            let arity = op.arity as usize;
            let pins = &self.pins[op.pin_start as usize..][..arity];
            let (p0, p1) = if arity <= WORD_INPUTS {
                let mut planes = [(0u64, 0u64); WORD_INPUTS];
                for (p, &s) in planes.iter_mut().zip(pins) {
                    let v = slots[s as usize];
                    *p = (v.p0, v.p1);
                }
                eval3_planes_word(op.table, &planes[..arity])
            } else {
                self.scratch.clear();
                self.scratch.extend(pins.iter().map(|&s| {
                    let v = slots[s as usize];
                    (v.p0, v.p1)
                }));
                self.wide[op.table as usize].eval3_planes(&self.scratch)
            };
            slots[op.dst as usize] = Planes { p0, p1 };
        }
        // Synchronous FF shift, one rotation per registered edge: the
        // sink-end slot falls off, the driver's new value enters at the
        // source end.
        for &(src, start, end) in &self.shifts {
            let (src, start, end) = (src as usize, start as usize, end as usize);
            slots.copy_within(start..end - 1, start + 1);
            slots[start] = slots[src];
        }
        Ok(self.outputs.iter().map(|&po| slots[po as usize]).collect())
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
        for k in 0..=2usize {
            let combos = all_combos(k);
            for code in 0..(1u32 << (1 << k)) {
                let tt = TruthTable::from_fn(k, |r| (code >> r) & 1 == 1);
                assert_kernel_matches_eval3(&tt, &combos);
            }
        }
    }

    fn random_bit(rng: &mut Rng64) -> Bit {
        match rng.next_u64() % 3 {
            0 => Bit::Zero,
            1 => Bit::One,
            _ => Bit::X,
        }
    }

    /// A table of `k` inputs with uniformly random rows.
    fn random_table(rng: &mut Rng64, k: usize) -> TruthTable {
        let mut tt = TruthTable::const_zero(k);
        for r in 0..tt.num_rows() {
            tt.set(r, rng.next_u64() & 1 == 1);
        }
        tt
    }

    /// Every three-valued combination of `k` inputs, as lane vectors.
    fn all_combos(k: usize) -> Vec<Vec<Bit>> {
        let all = [Bit::Zero, Bit::One, Bit::X];
        (0..3usize.pow(k as u32))
            .map(|mut c| {
                (0..k)
                    .map(|_| {
                        let b = all[c % 3];
                        c /= 3;
                        b
                    })
                    .collect()
            })
            .collect()
    }

    /// Evaluates `combos` 64 lanes at a time through the word kernel
    /// (when the table fits a word) and through `eval3_planes`, and
    /// checks every lane of both against scalar `eval3`.
    fn assert_kernel_matches_eval3(tt: &TruthTable, combos: &[Vec<Bit>]) {
        let k = tt.num_inputs();
        for chunk in combos.chunks(LANES) {
            let inputs: Vec<(u64, u64)> = (0..k)
                .map(|i| {
                    let p = Planes::pack(&chunk.iter().map(|c| c[i]).collect::<Vec<_>>());
                    (p.p0, p.p1)
                })
                .collect();
            let (p0, p1) = tt.eval3_planes(&inputs);
            let rows = Planes { p0, p1 };
            let word = tt.word().map(|w| {
                let (p0, p1) = eval3_planes_word(w, &inputs);
                Planes { p0, p1 }
            });
            assert_eq!(word.is_some(), k <= WORD_INPUTS, "tt {tt}");
            for (l, combo) in chunk.iter().enumerate() {
                let want = tt.eval3(combo);
                assert_eq!(rows.get(l), want, "tt {tt} combo {combo:?}");
                if let Some(word) = word {
                    assert_eq!(word.get(l), want, "word kernel, tt {tt} combo {combo:?}");
                }
            }
        }
    }

    /// The mux-tree kernel at every arity it serves (0–6) and the row
    /// walk that serves 7 and 8 inputs: every 3-valued combination up
    /// to 4 inputs, 512 random ones above, on random tables and on
    /// constants, AND, XOR and MUX.
    #[test]
    fn word_kernel_matches_eval3_at_every_arity() {
        let mut rng = Rng64::new(25);
        for k in 0..=8usize {
            let combos = if k <= 4 {
                all_combos(k)
            } else {
                (0..512)
                    .map(|_| (0..k).map(|_| random_bit(&mut rng)).collect())
                    .collect()
            };
            let mut tables = vec![
                TruthTable::const_zero(k),
                TruthTable::const_one(k),
                TruthTable::and(k),
                TruthTable::xor(k),
            ];
            if k == 3 {
                tables.push(TruthTable::mux());
            }
            tables.extend((0..8).map(|_| random_table(&mut rng, k)));
            for tt in &tables {
                assert_kernel_matches_eval3(tt, &combos);
            }
        }
    }

    /// Release sweep of the word kernel: every 3-input table against all
    /// 27 three-valued combinations, then random 4–6-input tables over
    /// 100k random lanes each. Run with
    /// `cargo test -p netlist --release -- --ignored`.
    #[test]
    #[ignore = "release sweep, well under a second in release"]
    fn word_kernel_sweep() {
        let combos = all_combos(3);
        for code in 0..256u32 {
            let tt = TruthTable::from_fn(3, |r| (code >> r) & 1 == 1);
            assert_kernel_matches_eval3(&tt, &combos);
        }
        let mut rng = Rng64::new(0x5eed);
        for k in 4..=WORD_INPUTS {
            for _ in 0..4 {
                let tt = random_table(&mut rng, k);
                let combos: Vec<Vec<Bit>> = (0..100_000)
                    .map(|_| (0..k).map(|_| random_bit(&mut rng)).collect())
                    .collect();
                assert_kernel_matches_eval3(&tt, &combos);
            }
        }
    }

    /// A random sequential circuit: `pis` inputs, `gates` gates of
    /// arity 1–3 with random functions, random FF weights 0–2 with
    /// random (possibly `X`) initial values, and `pos` outputs.
    fn random_circuit(seed: u64, pis: usize, gates: usize, pos: usize) -> Circuit {
        random_circuit_with_arities(seed, pis, gates, pos, 1, 3)
    }

    /// [`random_circuit`] with gate arities drawn from `min_k..=max_k`.
    fn random_circuit_with_arities(
        seed: u64,
        pis: usize,
        gates: usize,
        pos: usize,
        min_k: usize,
        max_k: usize,
    ) -> Circuit {
        let mut rng = Rng64::new(seed);
        let mut c = Circuit::new(format!("rand{seed}"));
        let mut drivers = Vec::new();
        for i in 0..pis {
            drivers.push(c.add_input(format!("i{i}")).unwrap());
        }
        for g in 0..gates {
            let k = min_k + (rng.next_u64() % (max_k - min_k + 1) as u64) as usize;
            let code = rng.next_u64();
            let tt = if k <= WORD_INPUTS {
                TruthTable::from_fn(k, |r| (code >> r) & 1 == 1)
            } else {
                random_table(&mut rng, k)
            };
            let v = c.add_gate(format!("g{g}"), tt).unwrap();
            for _ in 0..k {
                let from = drivers[(rng.next_u64() as usize) % drivers.len()];
                let w = (rng.next_u64() % 3) as usize;
                let ffs: Vec<Bit> = (0..w).map(|_| random_bit(&mut rng)).collect();
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
        let mut cases: Vec<(u64, Circuit)> = (0..6u64)
            .map(|seed| (seed, random_circuit(1000 + seed, 3, 12, 3)))
            .collect();
        // 5- and 6-input gates on the word kernel, 7-input gates on the
        // row-walk fallback, and an output nothing drives.
        let mut wide_arities = std::collections::BTreeSet::new();
        for seed in 6..9u64 {
            let mut c = random_circuit_with_arities(1000 + seed, 3, 10, 3, 5, 7);
            c.add_output("dangling").unwrap();
            wide_arities.extend(
                c.node_ids()
                    .filter_map(|v| c.node(v).function().map(|tt| tt.num_inputs())),
            );
            cases.push((seed, c));
        }
        assert_eq!(wide_arities.into_iter().collect::<Vec<_>>(), [5, 6, 7]);
        for (seed, c) in cases {
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

    /// After `reset`, a used simulator replays a fresh one's trajectory.
    #[test]
    fn reset_restores_the_initial_state() {
        let c = random_circuit(11, 3, 16, 3);
        let mut rng = Rng64::new(3);
        let seq: Vec<Vec<Planes>> = (0..6)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        let p1 = rng.next_u64();
                        Planes { p0: !p1, p1 }
                    })
                    .collect()
            })
            .collect();
        let mut fresh = VecSimulator::new(&c).unwrap();
        let want: Vec<Vec<Planes>> = seq.iter().map(|inp| fresh.step(inp).unwrap()).collect();
        let mut used = VecSimulator::new(&c).unwrap();
        for inp in seq.iter().rev() {
            used.step(inp).unwrap();
        }
        used.reset();
        let got: Vec<Vec<Planes>> = seq.iter().map(|inp| used.step(inp).unwrap()).collect();
        assert_eq!(got, want);
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
