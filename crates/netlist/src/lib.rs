//! Sequential netlist substrate for the TurboMap-frt reproduction.
//!
//! This crate implements the circuit model of Cong & Wu (DAC'98): sequential
//! circuits as **retiming graphs** `G(V, E, W)` where nodes are PIs, POs and
//! gates, and each edge carries a chain of flip-flops with three-valued
//! initial values. On top of the representation it provides the services
//! the mapping/retiming stack and the evaluation need:
//!
//! * [`Circuit`] — the retiming graph with FF initial states ([`circuit`]),
//! * [`TruthTable`] / [`Bit`] — gate functions and 3-valued logic,
//! * [`sim`] — cycle-accurate 3-valued simulation,
//! * [`vsim`] — batched two-bitplane simulation, 64 vectors per word,
//! * [`equiv`] — sequential equivalence checking (random-vector and
//!   bounded-exhaustive; our stand-in for SIS `verify_fsm`), running on
//!   the vector engine with the scalar simulator as differential oracle,
//! * [`decompose`] — fanin-bounding tech decomposition before mapping,
//! * [`strash`](mod@strash) — structural hashing (duplicate-logic sweep),
//! * [`dot`] — Graphviz export for the paper's figure-style diagrams,
//! * [`verilog`] — structural Verilog export of mapped networks,
//! * [`validate`](mod@validate) — structural validation of the papers' preconditions,
//! * [`stats`] — size/timing summaries.
//!
//! # Examples
//!
//! ```
//! use netlist::{Bit, Circuit, Simulator, TruthTable};
//!
//! # fn main() -> Result<(), netlist::NetlistError> {
//! // q' = en XOR q : a toggle register.
//! let mut c = Circuit::new("toggle");
//! let en = c.add_input("en")?;
//! let x = c.add_gate("x", TruthTable::xor(2))?;
//! let q = c.add_output("q")?;
//! c.connect(en, x, vec![])?;
//! c.connect(x, x, vec![Bit::Zero])?; // feedback through one FF, init 0
//! c.connect(x, q, vec![])?;
//!
//! let mut sim = Simulator::new(&c)?;
//! assert_eq!(sim.step(&[Bit::One])?, vec![Bit::One]);
//! assert_eq!(sim.step(&[Bit::One])?, vec![Bit::Zero]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bit;
pub mod circuit;
pub mod decompose;
pub mod dot;
pub mod equiv;
pub mod error;
pub mod prune;
pub mod sim;
pub mod stats;
pub mod strash;
pub mod truth;
pub mod validate;
pub mod verilog;
pub mod vsim;

pub use bit::Bit;
pub use circuit::{Circuit, Edge, EdgeId, Node, NodeId, NodeKind};
pub use decompose::decompose_to_k;
pub use dot::to_dot;
pub use equiv::{
    exhaustive_equiv, random_equiv, random_equiv_mode, random_sequence, sequence_equiv,
    sequence_equiv_mode, CounterExample, EquivMode, EquivResult, EXHAUSTIVE_BITS_BOUND,
};
pub use error::NetlistError;
pub use prune::prune_dead;
pub use sim::Simulator;
pub use stats::{CircuitStats, ModelCounts};
pub use strash::{strash, StrashReport};
pub use truth::{TruthTable, MAX_INPUTS};
pub use validate::{check_k_bounded, validate};
pub use verilog::to_verilog;
pub use vsim::{Planes, VecSimulator, LANES};
