//! **TurboMap-frt** — optimal FPGA mapping with forward retiming and
//! efficient initial state computation (Cong & Wu, DAC 1998).
//!
//! This crate is the reproduction's core: a polynomial-time algorithm that
//! simultaneously computes a K-LUT technology mapping and a *forward-only*
//! retiming minimising the clock period, such that the equivalent initial
//! state of the result is computable in linear time by simulation — no
//! NP-hard backward justification, no state-transition-graph traversal.
//!
//! The pieces, mirroring the paper's Section 3:
//!
//! * [`expand`] — expanded circuits `F_v^i` (§3.1, Theorem 2),
//! * [`cutenum`] — every gate's K-feasible cuts of `F_v^{frt(v)}`,
//!   enumerated once per run; `LabelUpdate` scans them (§3.2), and the
//!   FlowMap-frt upper bound reads their cone-weight-0 part (re-exported
//!   from `flowmap`, which owns the enumerator),
//! * [`cutsearch`] — min-height / min-weight K-feasible cuts by bounded
//!   max-flow (§3.2, Definitions 4–5), for mapping and flow fallback,
//! * `cutoracle` — the cut-list scans plus flow fallback that answer the
//!   label updates of both label computations below,
//! * [`frtcheck`] — the FRTcheck label-pair iteration (Figure 5) deciding
//!   one target period,
//! * [`generate`] — mapping generation with forward retiming and initial
//!   state computation (§3.3, Theorem 6): root selection here, the LUT
//!   network from `flowmap::generate`, the generator FlowMap-frt uses,
//! * [`gencheck`] — the label computation for the **TurboMap** general-
//!   retiming baseline (ICCD'96) used in the paper's comparison,
//! * [`driver`] — binary search over Φ and the two end-to-end entry
//!   points [`turbomap_frt`] and [`turbomap_general`].
//!
//! # Examples
//!
//! ```
//! use netlist::{Bit, Circuit, TruthTable};
//! use turbomap::{turbomap_frt, Options};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A register in front of a 2-level AND/XOR pipeline.
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
//! let result = turbomap_frt(&c, Options::with_k(5))?;
//! assert_eq!(result.period, 1);          // one 5-LUT after retiming
//! assert!(!result.initial_state_lost);   // guaranteed by construction
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use flowmap::cutenum;
mod cutoracle;
pub mod cutsearch;
pub mod driver;
pub mod expand;
pub mod frtcheck;
pub mod gencheck;
pub mod generate;
pub mod witness;

pub use cutenum::{CutArena, CutFault, CUT_CAP};
pub use cutsearch::{
    find_cut, find_cut_with, min_weight_cut, min_weight_cut_with, CutScratch, ExpCut,
};
pub use driver::{
    prepare, turbomap_frt, turbomap_frt_with, turbomap_general, turbomap_general_with, Options,
    TurboMapError, TurboMapResult,
};
pub use expand::{ExpNode, ExpandedCircuit};
pub use frtcheck::{FrtCheck, FrtContext, LabelPairs};
pub use gencheck::{GeneralCheck, GeneralContext};
pub use generate::{collect_roots, generate_mapping, GenerateError, GeneratedMapping};
pub use witness::{WitnessOutcome, WitnessStep};
