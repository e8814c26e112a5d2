//! # turbomap-repro
//!
//! A reproduction of **Cong & Wu, "Optimal FPGA Mapping and Retiming with
//! Efficient Initial State Computation" (DAC 1998)** as a Rust workspace.
//!
//! This umbrella crate re-exports the workspace's crates under one roof
//! for the integration tests:
//!
//! * [`netlist`] — sequential circuits as retiming graphs with
//!   three-valued FF initial states, BLIF I/O, simulation, equivalence
//!   checking.
//! * [`graphalgo`] — max-flow/min-cut with unit node capacities and the
//!   path algorithms behind labels and `frt` values.
//! * [`retiming`] — Leiserson–Saxe retiming, forward-only retiming and
//!   simulation/justification-based initial state computation.
//! * [`flowmap`] — the FlowMap depth-optimal mapper and the FlowMap-frt
//!   baseline flow.
//! * [`turbomap`] — the paper's TurboMap-frt algorithm and the TurboMap
//!   general-retiming baseline.
//! * [`workloads`] — seeded benchmark generators calibrated to the
//!   paper's Table 1.
//!
//! # Quickstart
//!
//! ```
//! use netlist::{Bit, Circuit, TruthTable};
//! use turbomap::{turbomap_frt, Options};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut c = Circuit::new("demo");
//! let a = c.add_input("a")?;
//! let b = c.add_input("b")?;
//! let g1 = c.add_gate("g1", TruthTable::and(2))?;
//! let g2 = c.add_gate("g2", TruthTable::xor(2))?;
//! let o = c.add_output("o")?;
//! c.connect(a, g1, vec![Bit::One])?;
//! c.connect(b, g1, vec![Bit::Zero])?;
//! c.connect(g1, g2, vec![])?;
//! c.connect(b, g2, vec![])?;
//! c.connect(g2, o, vec![])?;
//!
//! let mapped = turbomap_frt(&c, Options::with_k(5))?;
//! assert_eq!(mapped.period, 1);
//! assert!(!mapped.initial_state_lost); // guaranteed by forward retiming
//! assert!(netlist::random_equiv(&c, &mapped.circuit, 256, 0)?.is_equivalent());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use flowmap;
pub use graphalgo;
pub use netlist;
pub use retiming;
pub use turbomap;
pub use workloads;
