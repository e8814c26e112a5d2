//! Retiming engine for the TurboMap-frt reproduction.
//!
//! Implements the register-movement substrate the paper builds on:
//!
//! * [`spec`] — retiming assignments (Leiserson–Saxe sign convention) and
//!   legality checking.
//! * [`moves`] — realising a retiming while computing the **equivalent
//!   initial state**: forward moves by three-valued simulation (always
//!   succeed — Fig. 1 of the paper; a forward-only retiming takes one
//!   simulation pass, [`ForwardValues`]), backward moves by truth-table
//!   justification (may fail — the NP-hard case).
//! * [`lvalues`] — Theorem 1: l-values, forward feasibility and optimal
//!   forward-only retiming.
//! * [`feas`] — Leiserson–Saxe FEAS for *general* minimum-period retiming
//!   (used by the TurboMap and FlowMap-frt baselines).
//! * [`pushback`] — the Section-5 methodology: a preprocessing pass that
//!   pushes registers backward toward the PIs wherever initial states can
//!   be justified, enlarging the forward-retiming solution space.
//!
//! # Examples
//!
//! ```
//! use netlist::{Bit, Circuit, TruthTable};
//! use retiming::{min_period_forward, retime_min_period_forward};
//!
//! # fn main() -> Result<(), retiming::RetimingError> {
//! // FF ahead of a 2-gate chain: forward retiming halves the period.
//! let mut c = Circuit::new("t");
//! let a = c.add_input("a").unwrap();
//! let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
//! let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
//! let o = c.add_output("o").unwrap();
//! c.connect(a, g1, vec![Bit::Zero]).unwrap();
//! c.connect(g1, g2, vec![]).unwrap();
//! c.connect(g2, o, vec![]).unwrap();
//!
//! assert_eq!(min_period_forward(&c)?, 1);
//! let res = retime_min_period_forward(&c)?;
//! assert_eq!(res.circuit.clock_period().unwrap(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod feas;
pub mod lvalues;
pub mod moves;
pub mod pushback;
pub mod spec;

pub use error::RetimingError;
pub use feas::{
    feasible_general, min_period_general, retime_min_period_general, GeneralRetimingResult,
};
pub use lvalues::{
    forward_feasible, forward_retiming_for, l_values, max_forward_retiming_values,
    min_period_forward, retime_min_period_forward, ForwardRetimingResult,
};
pub use moves::{apply_forward_retiming, apply_retiming, ForwardValues, MoveStats};
pub use pushback::{max_backward_retiming_values, push_registers_backward, PushBackStats};
pub use spec::Retiming;
