//! Seeded generation of structurally valid sequential netlists.
//!
//! Every case starts from a cyclic FSM core ([`workloads::generate_fsm`]
//! — guaranteed valid, fully defined initial state, feedback through the
//! state registers), is optionally grown toward a gate/depth target with
//! live 2-input gates ([`workloads::grow`](fn@workloads::grow)), then diversified:
//!
//! 1. **initial-state shaping** — register initial values are flipped or
//!    erased to `X` with seeded probabilities, producing the full/partial/
//!    unknown initial-state spectrum of the paper's Section 3.3;
//! 2. **structural mutations** — a seeded number of [`crate::mutate`]
//!    operators (insert / rewire / hand-retime / init-flip / init-blur),
//!    each applied under apply–validate–revert so the case stays valid.
//!
//! Generation is a pure function of `(seed, config)`: a repro manifest
//! holding those two values regenerates the exact case.

use engine::Rng64;
use netlist::{Bit, Circuit};
use workloads::{generate_fsm, grow, Encoding, FsmSpec};

/// Knobs bounding the generated cases.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// LUT input bound the case will be mapped with (gates stay 2-input;
    /// kept here so a manifest captures the whole mapping config).
    pub k: usize,
    /// Upper bound on the gate count after growth.
    pub max_gates: usize,
    /// Upper bound on the number of structural mutations.
    pub max_mutations: usize,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            k: 4,
            max_gates: 120,
            max_mutations: 12,
        }
    }
}

/// Generates one structurally valid case from a seed.
///
/// The result always passes [`netlist::validate`](fn@netlist::validate); gate fanin is ≤ 2 by
/// construction (the mappers decompose anyway, but small fanin keeps the
/// mapping interesting at K = 3..5).
pub fn generate_case(seed: u64, cfg: &GenConfig) -> Circuit {
    let mut rng = Rng64::new(seed ^ 0xF022_CA5E_0000_0001);
    let mut spec = FsmSpec {
        name: format!("fuzz{seed:016x}"),
        states: rng.range_usize(2, 12),
        inputs: rng.range_usize(1, 4),
        decoded: rng.range_usize(1, 2),
        outputs: rng.range_usize(1, 3),
        encoding: if rng.chance(0.5) {
            Encoding::OneHot
        } else {
            Encoding::Binary
        },
        registered_inputs: rng.chance(0.5),
        seed: rng.next_u64(),
    };
    let mut base = generate_fsm(&spec);
    // A wide one-hot FSM can overshoot the gate bound on its own; shrink
    // the state count (deterministically) until the core fits.
    while base.num_gates() > cfg.max_gates && spec.states > 2 {
        spec.states -= 1;
        base = generate_fsm(&spec);
    }
    // Growth: sometimes map the bare FSM, usually a grown one.
    let mut c = if rng.chance(0.8) && base.num_gates() < cfg.max_gates {
        let target = rng.range_usize(base.num_gates(), cfg.max_gates.max(base.num_gates() + 1));
        let depth = rng.range_usize(2, 10) as u64;
        // The FSM base is valid by construction, so growth cannot fail;
        // fall back to the base defensively rather than panicking inside
        // a fuzz job.
        grow(&base, target, depth, rng.next_u64()).unwrap_or(base)
    } else {
        base
    };
    shape_initial_state(&mut c, &mut rng);
    let n_mut = rng.below(cfg.max_mutations + 1);
    for _ in 0..n_mut {
        crate::mutate::mutate_random(&mut c, &mut rng);
    }
    debug_assert!(netlist::validate(&c).is_ok());
    debug_assert!(c.sharing_consistent());
    c
}

/// Flips / erases register initial values with seeded probabilities,
/// covering fully defined, partially defined and all-`X` initial states.
///
/// Registers are shared across a driver's fanout edges (BLIF latch
/// semantics — `Circuit::sharing_consistent`), so each decision is made
/// per *(driver, position)* and written into every fanout chain that
/// defines that position; deciding per edge would manufacture sharing
/// conflicts the mapped results then faithfully inherit.
fn shape_initial_state(c: &mut Circuit, rng: &mut Rng64) {
    // Three regimes: keep the FSM's defined state (reset-style), sprinkle
    // X into it (partial), or erase almost everything (power-up unknown).
    let x_prob = match rng.below(3) {
        0 => 0.0,
        1 => 0.25,
        _ => 0.9,
    };
    let flip_prob = 0.2;
    let nodes: Vec<_> = c.node_ids().collect();
    for n in nodes {
        let fanout: Vec<_> = c.node(n).fanout().to_vec();
        let maxw = fanout
            .iter()
            .map(|&e| c.edge(e).weight())
            .max()
            .unwrap_or(0);
        for i in 0..maxw {
            let new = if rng.chance(x_prob) {
                Bit::X
            } else if rng.chance(flip_prob) {
                // Flip the position's merged value (the base circuit is
                // consistent, so the fold cannot hit a conflict).
                let merged = fanout
                    .iter()
                    .filter_map(|&e| c.edge(e).ffs().get(i).copied())
                    .try_fold(Bit::X, Bit::merge)
                    .unwrap_or(Bit::X);
                match merged {
                    Bit::Zero => Bit::One,
                    Bit::One => Bit::Zero,
                    Bit::X => Bit::from_bool(rng.chance(0.5)),
                }
            } else {
                continue;
            };
            for &e in &fanout {
                if let Some(b) = c.ffs_mut(e).get_mut(i) {
                    *b = new;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_valid_and_deterministic() {
        let cfg = GenConfig::default();
        for seed in 0..24 {
            let a = generate_case(seed, &cfg);
            netlist::validate(&a).unwrap();
            assert!(a.max_fanin() <= 2, "seed {seed}");
            assert!(!a.inputs().is_empty() && !a.outputs().is_empty());
            let b = generate_case(seed, &cfg);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn seeds_diversify_structure() {
        let cfg = GenConfig::default();
        let blifs: std::collections::HashSet<String> = (0..12)
            .map(|s| blifio::write_circuit(&generate_case(s, &cfg)))
            .collect();
        assert!(blifs.len() >= 11, "seeds should produce distinct circuits");
    }

    #[test]
    fn initial_state_spectrum_is_covered() {
        // Across a seed range we must see defined, partial and X-heavy
        // initial states — the oracle's Compatibility mode exists for the
        // latter two.
        let cfg = GenConfig::default();
        let (mut any_defined, mut any_x) = (false, false);
        for seed in 0..24 {
            let c = generate_case(seed, &cfg);
            for e in c.edge_ids() {
                for &b in c.edge(e).ffs() {
                    match b {
                        Bit::X => any_x = true,
                        _ => any_defined = true,
                    }
                }
            }
        }
        assert!(any_defined && any_x);
    }

    #[test]
    fn respects_gate_bound() {
        let cfg = GenConfig {
            k: 4,
            max_gates: 60,
            max_mutations: 4,
        };
        for seed in 0..12 {
            let c = generate_case(seed, &cfg);
            // Mutations may add a handful of gates past the growth bound.
            assert!(
                c.num_gates() <= cfg.max_gates + cfg.max_mutations,
                "seed {seed}: {} gates",
                c.num_gates()
            );
        }
    }
}
