//! Sequential equivalence checking by simulation.
//!
//! The paper verifies mapped circuits with SIS `verify_fsm`, falling back to
//! "simulations with input sequences of 3008 random vectors" for the largest
//! designs. We provide both flavours as our own substrate:
//!
//! * [`random_equiv`] — drive both circuits with the same random input
//!   sequence and compare output sequences (the 3008-vector protocol).
//! * [`exhaustive_equiv`] — enumerate *all* input sequences up to a given
//!   depth (product-machine unrolling by brute force); exact for small
//!   circuits and used heavily in the test suite.
//!
//! Comparison defaults to **conformance**: wherever the reference output is
//! defined (`0`/`1`), the candidate must match; where the reference is `X`
//! the candidate may output anything. A retimed/mapped circuit with a
//! correctly computed initial state conforms to its original. The weaker
//! [`EquivMode::Compatibility`] additionally forgives a candidate `X`
//! against a defined reference — the right relation when the candidate's
//! initial state was *derived* by pessimistic 3-valued forward simulation
//! and may legitimately be less defined than the source.

use crate::bit::Bit;
use crate::circuit::Circuit;
use crate::error::NetlistError;
use crate::sim::Simulator;
use crate::vsim::{Planes, VecSimulator, LANES};
use engine::rng::Rng64;

/// How two output bits are compared by the equivalence checkers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EquivMode {
    /// Candidate must refine the reference: defined reference bits must
    /// match exactly; a reference `X` permits anything. This is the check
    /// for a mapper that claims to preserve the exact initial behaviour.
    #[default]
    Conformance,
    /// Bits must be [`Bit::compatible`]: `X` on **either** side permits the
    /// other, only conflicting defined bits miscompare. This is the check
    /// for forward-retimed results whose computed initial state may be
    /// pessimistically `X` where the source was defined (Touati–Brayton
    /// forward simulation loses information, never inverts it).
    Compatibility,
}

impl EquivMode {
    /// True when `actual` is acceptable against `expected` under this mode.
    #[inline]
    pub fn accepts(self, expected: Bit, actual: Bit) -> bool {
        match self {
            EquivMode::Conformance => actual.refines(expected),
            EquivMode::Compatibility => actual.compatible(expected),
        }
    }

    /// Lane mask of comparison violations between two 64-wide output
    /// words: bit `l` is set iff `!self.accepts(expected[l], actual[l])`.
    ///
    /// Conformance rejects a lane where the expected value is defined and
    /// the actual value is not that exact defined value; compatibility
    /// rejects only conflicting defined values.
    #[inline]
    pub fn violations(self, expected: Planes, actual: Planes) -> u64 {
        let e1 = expected.p1 & !expected.p0; // expected definitely 1
        let e0 = expected.p0 & !expected.p1; // expected definitely 0
        let a1 = actual.p1 & !actual.p0;
        let a0 = actual.p0 & !actual.p1;
        match self {
            EquivMode::Conformance => (e1 & !a1) | (e0 & !a0),
            EquivMode::Compatibility => (e1 & a0) | (e0 & a1),
        }
    }
}

/// A concrete distinguishing input sequence found by an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterExample {
    /// The driving input sequence (one vector per cycle, PI order of the
    /// reference circuit).
    pub inputs: Vec<Vec<Bit>>,
    /// Zero-based cycle at which the outputs diverged.
    pub cycle: usize,
    /// Name of the diverging output.
    pub output: String,
    /// Reference circuit's value.
    pub expected: Bit,
    /// Candidate circuit's value.
    pub actual: Bit,
}

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// No difference found (up to the search bound).
    Equivalent,
    /// The circuits differ; here is a witness.
    Different(Box<CounterExample>),
}

impl EquivResult {
    /// True for [`EquivResult::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivResult::Equivalent)
    }
}

fn check_interfaces(reference: &Circuit, candidate: &Circuit) -> Result<(), NetlistError> {
    let ref_pis: Vec<&str> = reference
        .inputs()
        .iter()
        .map(|&v| reference.node(v).name())
        .collect();
    let cand_pis: Vec<&str> = candidate
        .inputs()
        .iter()
        .map(|&v| candidate.node(v).name())
        .collect();
    if ref_pis != cand_pis {
        return Err(NetlistError::InterfaceMismatch(format!(
            "PI lists differ: {ref_pis:?} vs {cand_pis:?}"
        )));
    }
    let ref_pos: Vec<&str> = reference
        .outputs()
        .iter()
        .map(|&v| reference.node(v).name())
        .collect();
    let cand_pos: Vec<&str> = candidate
        .outputs()
        .iter()
        .map(|&v| candidate.node(v).name())
        .collect();
    if ref_pos != cand_pos {
        return Err(NetlistError::InterfaceMismatch(format!(
            "PO lists differ: {ref_pos:?} vs {cand_pos:?}"
        )));
    }
    Ok(())
}

/// Drives both circuits with `sequence` and reports the first conformance
/// violation.
///
/// # Errors
///
/// Returns [`NetlistError::InterfaceMismatch`] when PI/PO names differ and
/// [`NetlistError::CombinationalCycle`] when either circuit cannot be
/// simulated.
pub fn sequence_equiv(
    reference: &Circuit,
    candidate: &Circuit,
    sequence: &[Vec<Bit>],
) -> Result<EquivResult, NetlistError> {
    sequence_equiv_mode(reference, candidate, sequence, EquivMode::Conformance)
}

/// [`sequence_equiv`] with an explicit comparison [`EquivMode`].
///
/// # Errors
///
/// Same as [`sequence_equiv`].
pub fn sequence_equiv_mode(
    reference: &Circuit,
    candidate: &Circuit,
    sequence: &[Vec<Bit>],
    mode: EquivMode,
) -> Result<EquivResult, NetlistError> {
    check_interfaces(reference, candidate)?;
    let mut ref_sim = Simulator::new(reference)?;
    let mut cand_sim = Simulator::new(candidate)?;
    for (cycle, inputs) in sequence.iter().enumerate() {
        let ref_out = ref_sim.step(inputs)?;
        let cand_out = cand_sim.step(inputs)?;
        for (po_idx, (&e, &a)) in ref_out.iter().zip(cand_out.iter()).enumerate() {
            if !mode.accepts(e, a) {
                return Ok(EquivResult::Different(Box::new(CounterExample {
                    inputs: sequence[..=cycle].to_vec(),
                    cycle,
                    output: reference
                        .node(reference.outputs()[po_idx])
                        .name()
                        .to_string(),
                    expected: e,
                    actual: a,
                })));
            }
        }
    }
    Ok(EquivResult::Equivalent)
}

/// A reproducible sequence of `num_vectors` uniformly random *defined*
/// input vectors of width `num_inputs`, generated from `seed` on the
/// workspace-wide [`engine::rng::Rng64`] (splitmix64) — the same generator
/// the workloads and fuzzing subsystems use, so one seed reproduces an
/// entire run.
pub fn random_sequence(num_inputs: usize, num_vectors: usize, seed: u64) -> Vec<Vec<Bit>> {
    let mut rng = Rng64::new(seed);
    (0..num_vectors)
        .map(|_| {
            (0..num_inputs)
                .map(|_| Bit::from_bool(rng.next_u64() & 1 == 1))
                .collect()
        })
        .collect()
}

/// Random-simulation equivalence: `num_vectors` cycles of uniformly random
/// defined inputs generated from `seed` via [`random_sequence`]
/// (splitmix64; self-contained so results are reproducible across
/// platforms).
///
/// # Errors
///
/// Same as [`sequence_equiv`].
pub fn random_equiv(
    reference: &Circuit,
    candidate: &Circuit,
    num_vectors: usize,
    seed: u64,
) -> Result<EquivResult, NetlistError> {
    random_equiv_mode(
        reference,
        candidate,
        num_vectors,
        seed,
        EquivMode::Conformance,
    )
}

/// [`random_equiv`] with an explicit comparison [`EquivMode`], running on
/// the [two-bitplane vector simulator](crate::vsim).
///
/// The `num_vectors` budget is spread over [`LANES`] **independent**
/// random sequences simulated simultaneously (64 vectors per word-op).
/// Each lane restarts from the initial state, so initial-state behaviour
/// is probed 64 times instead of once; sequence depth is kept at
/// `max(⌈num_vectors / 64⌉, min(num_vectors, 64))` cycles so deep FF
/// chains still flush. The reported counterexample is a single lane's
/// input prefix — replayable with [`sequence_equiv_mode`] on the scalar
/// simulator.
///
/// # Errors
///
/// Same as [`sequence_equiv`].
pub fn random_equiv_mode(
    reference: &Circuit,
    candidate: &Circuit,
    num_vectors: usize,
    seed: u64,
    mode: EquivMode,
) -> Result<EquivResult, NetlistError> {
    check_interfaces(reference, candidate)?;
    let m = reference.inputs().len();
    let cycles = num_vectors.div_ceil(LANES).max(num_vectors.min(LANES));
    // Per-lane seeds from one splitmix stream: lane l's sequence is
    // `random_sequence(m, cycles, lane_seeds[l])`, so a witness lane can
    // be regenerated and replayed scalar from `(seed, lane)` alone.
    let mut seeder = Rng64::new(seed);
    let lane_seeds: Vec<u64> = (0..LANES).map(|_| seeder.next_u64()).collect();
    let mut lane_rngs: Vec<Rng64> = lane_seeds.iter().map(|&s| Rng64::new(s)).collect();
    let mut ref_sim = VecSimulator::new(reference)?;
    let mut cand_sim = VecSimulator::new(candidate)?;
    let mut inputs = vec![Planes::splat(Bit::Zero); m];
    for cycle in 0..cycles {
        // Lane by lane, input by input: each lane draws its vector in
        // `random_sequence` order.
        inputs.fill(Planes::splat(Bit::Zero));
        for (l, rng) in lane_rngs.iter_mut().enumerate() {
            for planes in &mut inputs {
                let bit = (rng.next_u64() & 1) << l;
                planes.p0 ^= bit;
                planes.p1 |= bit;
            }
        }
        let ref_out = ref_sim.step(&inputs)?;
        let cand_out = cand_sim.step(&inputs)?;
        for (po, (&e, &a)) in ref_out.iter().zip(cand_out.iter()).enumerate() {
            let viol = mode.violations(e, a);
            if viol != 0 {
                let l = viol.trailing_zeros() as usize;
                let inputs = random_sequence(m, cycle + 1, lane_seeds[l]);
                return Ok(EquivResult::Different(Box::new(CounterExample {
                    inputs,
                    cycle,
                    output: reference.node(reference.outputs()[po]).name().to_string(),
                    expected: e.get(l),
                    actual: a.get(l),
                })));
            }
        }
    }
    Ok(EquivResult::Equivalent)
}

/// Maximum `log2` sequence count [`exhaustive_equiv`] will enumerate.
pub const EXHAUSTIVE_BITS_BOUND: usize = 22;

/// Exhaustive bounded equivalence: checks **every** defined input sequence
/// of length `depth`, batched 64 sequences at a time through the
/// [two-bitplane vector simulator](crate::vsim).
///
/// The search space is `2^(pis · depth)` sequences; the function refuses
/// when that exceeds `2^22` ([`EXHAUSTIVE_BITS_BOUND`]) to protect callers
/// from accidental blow-up. The counterexample is the numerically smallest
/// differing sequence at its earliest diverging cycle — identical to what
/// a sequence-by-sequence scalar scan would report.
///
/// # Errors
///
/// Same as [`sequence_equiv`], plus [`NetlistError::SearchSpaceTooLarge`]
/// when `pis · depth > 22`.
pub fn exhaustive_equiv(
    reference: &Circuit,
    candidate: &Circuit,
    depth: usize,
) -> Result<EquivResult, NetlistError> {
    check_interfaces(reference, candidate)?;
    let m = reference.inputs().len();
    let total_bits = m * depth;
    if total_bits > EXHAUSTIVE_BITS_BOUND {
        return Err(NetlistError::SearchSpaceTooLarge {
            bits: total_bits,
            bound: EXHAUSTIVE_BITS_BOUND,
        });
    }
    let combo_bit = |combo: u64, cyc: usize, i: usize| (combo >> (cyc * m + i)) & 1 == 1;
    let total = 1u64 << total_bits;
    let mut base = 0u64;
    let mut inputs = vec![Planes::splat(Bit::X); m];
    let mut ref_sim = VecSimulator::new(reference)?;
    let mut cand_sim = VecSimulator::new(candidate)?;
    while base < total {
        let lanes = LANES.min((total - base) as usize);
        ref_sim.reset();
        cand_sim.reset();
        // Per-lane first violation, encoded (cycle, po) — lanes are combo
        // order, so the lowest violating lane is the scalar-scan witness.
        let mut first: Vec<Option<(usize, usize)>> = vec![None; lanes];
        let mut pending = lanes;
        'batch: for cyc in 0..depth {
            for (i, planes) in inputs.iter_mut().enumerate() {
                let mut p1 = 0u64;
                for l in 0..lanes {
                    if combo_bit(base + l as u64, cyc, i) {
                        p1 |= 1u64 << l;
                    }
                }
                *planes = Planes { p0: !p1, p1 };
            }
            let ref_out = ref_sim.step(&inputs)?;
            let cand_out = cand_sim.step(&inputs)?;
            for (po, (&e, &a)) in ref_out.iter().zip(cand_out.iter()).enumerate() {
                let mut viol = EquivMode::Conformance.violations(e, a);
                while viol != 0 {
                    let l = viol.trailing_zeros() as usize;
                    viol &= viol - 1;
                    if l < lanes && first[l].is_none() {
                        first[l] = Some((cyc, po));
                        pending -= 1;
                    }
                }
            }
            if pending == 0 {
                break 'batch;
            }
        }
        if let Some((l, &Some((cycle, po)))) = first.iter().enumerate().find(|(_, f)| f.is_some()) {
            let combo = base + l as u64;
            let sequence: Vec<Vec<Bit>> = (0..=cycle)
                .map(|cyc| {
                    (0..m)
                        .map(|i| Bit::from_bool(combo_bit(combo, cyc, i)))
                        .collect()
                })
                .collect();
            // Replay the witness on the scalar simulator to report exact
            // expected/actual bits (and cross-check the vector engine).
            return match sequence_equiv(reference, candidate, &sequence)? {
                EquivResult::Different(ce) => Ok(EquivResult::Different(ce)),
                EquivResult::Equivalent => {
                    debug_assert!(false, "vector/scalar verdict disagreement");
                    Ok(EquivResult::Different(Box::new(CounterExample {
                        inputs: sequence,
                        cycle,
                        output: reference.node(reference.outputs()[po]).name().to_string(),
                        expected: Bit::X,
                        actual: Bit::X,
                    })))
                }
            };
        }
        base += lanes as u64;
    }
    Ok(EquivResult::Equivalent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::TruthTable;

    fn inverter_circuit(name: &str, init: Bit) -> Circuit {
        let mut c = Circuit::new(name);
        let a = c.add_input("a").unwrap();
        let g = c.add_gate(format!("{name}_g"), TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(g, o, vec![init]).unwrap();
        c
    }

    #[test]
    fn identical_circuits_equivalent() {
        let c1 = inverter_circuit("c1", Bit::Zero);
        let c2 = inverter_circuit("c2", Bit::Zero);
        assert!(random_equiv(&c1, &c2, 64, 7).unwrap().is_equivalent());
        assert!(exhaustive_equiv(&c1, &c2, 4).unwrap().is_equivalent());
    }

    #[test]
    fn different_initial_state_detected() {
        let c1 = inverter_circuit("c1", Bit::Zero);
        let c2 = inverter_circuit("c2", Bit::One);
        match exhaustive_equiv(&c1, &c2, 2).unwrap() {
            EquivResult::Different(ce) => {
                assert_eq!(ce.cycle, 0);
                assert_eq!(ce.output, "o");
            }
            EquivResult::Equivalent => panic!("should differ"),
        }
    }

    #[test]
    fn x_reference_allows_anything() {
        let c1 = inverter_circuit("c1", Bit::X);
        let c2 = inverter_circuit("c2", Bit::One);
        // Reference has X initial output; candidate's 1 conforms.
        assert!(exhaustive_equiv(&c1, &c2, 3).unwrap().is_equivalent());
        // The other direction does not conform at cycle 0.
        assert!(!exhaustive_equiv(&c2, &c1, 3).unwrap().is_equivalent());
    }

    #[test]
    fn interface_mismatch_reported() {
        let c1 = inverter_circuit("c1", Bit::Zero);
        let mut c2 = Circuit::new("c2");
        c2.add_input("b").unwrap();
        let g = c2.add_gate("g", TruthTable::not()).unwrap();
        let o = c2.add_output("o").unwrap();
        c2.connect(c2.find("b").unwrap(), g, vec![]).unwrap();
        c2.connect(g, o, vec![]).unwrap();
        assert!(matches!(
            random_equiv(&c1, &c2, 8, 1),
            Err(NetlistError::InterfaceMismatch(_))
        ));
    }

    #[test]
    fn functional_difference_found_by_random() {
        let mut c1 = Circuit::new("and");
        let a = c1.add_input("a").unwrap();
        let b = c1.add_input("b").unwrap();
        let g = c1.add_gate("g", TruthTable::and(2)).unwrap();
        let o = c1.add_output("o").unwrap();
        c1.connect(a, g, vec![]).unwrap();
        c1.connect(b, g, vec![]).unwrap();
        c1.connect(g, o, vec![]).unwrap();

        let mut c2 = Circuit::new("or");
        let a = c2.add_input("a").unwrap();
        let b = c2.add_input("b").unwrap();
        let g = c2.add_gate("g", TruthTable::or(2)).unwrap();
        let o = c2.add_output("o").unwrap();
        c2.connect(a, g, vec![]).unwrap();
        c2.connect(b, g, vec![]).unwrap();
        c2.connect(g, o, vec![]).unwrap();

        assert!(!random_equiv(&c1, &c2, 64, 3).unwrap().is_equivalent());
    }

    #[test]
    fn random_sequence_is_reproducible_and_defined() {
        let a = random_sequence(3, 16, 42);
        let b = random_sequence(3, 16, 42);
        assert_eq!(a, b);
        assert_ne!(a, random_sequence(3, 16, 43));
        assert!(a.iter().flatten().all(|&bit| bit != Bit::X));
        assert_eq!(a.len(), 16);
        assert!(a.iter().all(|v| v.len() == 3));
    }

    #[test]
    fn compatibility_forgives_candidate_x() {
        // Candidate has an X initial FF where the reference is defined:
        // conformance rejects it, compatibility accepts it. This is the
        // exact situation after forward-retiming computes a pessimistic
        // initial state by 3-valued simulation.
        let reference = inverter_circuit("c1", Bit::Zero);
        let candidate = inverter_circuit("c2", Bit::X);
        assert!(!sequence_equiv_mode(
            &reference,
            &candidate,
            &random_sequence(1, 8, 1),
            EquivMode::Conformance,
        )
        .unwrap()
        .is_equivalent());
        assert!(
            random_equiv_mode(&reference, &candidate, 8, 1, EquivMode::Compatibility)
                .unwrap()
                .is_equivalent()
        );
    }

    #[test]
    fn compatibility_still_rejects_conflicting_concretes() {
        // X-vs-concrete is compatible in both directions, but two
        // *conflicting* defined initial values must still miscompare.
        let reference = inverter_circuit("c1", Bit::Zero);
        let candidate = inverter_circuit("c2", Bit::One);
        match random_equiv_mode(&reference, &candidate, 8, 1, EquivMode::Compatibility).unwrap() {
            EquivResult::Different(ce) => {
                assert_eq!(ce.cycle, 0);
                assert_eq!(ce.expected, Bit::Zero);
                assert_eq!(ce.actual, Bit::One);
            }
            EquivResult::Equivalent => panic!("conflicting concretes must miscompare"),
        }
    }

    #[test]
    fn equiv_mode_accepts_table() {
        use Bit::*;
        // Conformance: actual refines expected.
        for (e, a, ok) in [
            (Zero, Zero, true),
            (One, One, true),
            (X, Zero, true),
            (X, One, true),
            (X, X, true),
            (Zero, X, false),
            (One, X, false),
            (Zero, One, false),
        ] {
            assert_eq!(EquivMode::Conformance.accepts(e, a), ok, "conf {e:?} {a:?}");
        }
        // Compatibility: X on either side is fine, conflicts are not.
        for (e, a, ok) in [
            (Zero, X, true),
            (One, X, true),
            (X, One, true),
            (Zero, Zero, true),
            (Zero, One, false),
            (One, Zero, false),
        ] {
            assert_eq!(
                EquivMode::Compatibility.accepts(e, a),
                ok,
                "compat {e:?} {a:?}"
            );
        }
    }

    /// `z = a(t-2) ∧ b(t-1) ∧ c(t)`, registers at 0, `tt` for the AND.
    fn delayed_and(name: &str, tt: TruthTable) -> Circuit {
        let mut c = Circuit::new(name);
        let pis = ["a", "b", "c"].map(|n| c.add_input(n).unwrap());
        let g = c.add_gate("g", tt).unwrap();
        for (k, pi) in pis.into_iter().enumerate() {
            c.connect(pi, g, vec![Bit::Zero; 2 - k]).unwrap();
        }
        let z = c.add_output("z").unwrap();
        c.connect(g, z, vec![]).unwrap();
        c
    }

    #[test]
    fn counterexample_replays() {
        let c1 = inverter_circuit("c1", Bit::Zero);
        let c2 = inverter_circuit("c2", Bit::One);
        if let EquivResult::Different(ce) = random_equiv(&c1, &c2, 16, 5).unwrap() {
            // Replaying the witness sequence must reproduce the divergence.
            let r = sequence_equiv(&c1, &c2, &ce.inputs).unwrap();
            assert!(!r.is_equivalent());
        } else {
            panic!("should differ");
        }

        // Seed 14's witness is lane 24's, diverging at cycle 2.
        let r = delayed_and("r", TruthTable::and(3));
        let k = delayed_and("k", TruthTable::const_zero(3));
        let EquivResult::Different(ce) = random_equiv(&r, &k, 256, 14).unwrap() else {
            panic!("should differ");
        };
        use Bit::{One as I, Zero as O};
        let pinned = CounterExample {
            inputs: vec![vec![I, O, I], vec![O, I, I], vec![O, I, I]],
            cycle: 2,
            output: "z".into(),
            expected: I,
            actual: O,
        };
        assert_eq!(*ce, pinned);
        let mut seeder = Rng64::new(14);
        let lane_seed = (0..25).map(|_| seeder.next_u64()).last().unwrap();
        assert_eq!(ce.inputs, random_sequence(3, 3, lane_seed));
        assert!(!sequence_equiv(&r, &k, &ce.inputs).unwrap().is_equivalent());
    }
}
