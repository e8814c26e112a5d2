//! FlowMap and FlowMap-frt: the conventional-flow baselines of the paper.
//!
//! FlowMap (Cong & Ding 1994) computes **depth-optimal** K-LUT mappings
//! of combinational networks in polynomial time via max-flow min-cut. The
//! paper's Section-4 baseline, *FlowMap-frt*, applies it to sequential
//! circuits the conventional way: map each register-bounded combinational
//! block independently, keep the registers where they are, then run a
//! forward-retiming post-pass for clock period minimisation (with
//! simulation-computed initial states).
//!
//! * [`cutenum`] — every gate's K-feasible cuts, enumerated once per run
//!   into one arena; FlowMap reads its cone-weight-0 cuts, the TurboMap
//!   label computations all of them.
//! * [`flowmap_labels`] — label computation (minimum LUT depth per gate)
//!   by scanning those cuts, with max-flow for the gates the arena cannot
//!   answer.
//! * [`flowmap`] — mapping generation (registers untouched).
//! * [`flowmap_frt`] — the full baseline including forward retiming.
//! * [`generate`] — the LUT network generator of every mapper: one walk
//!   of each root's cone over its cut, each input's register chain after
//!   the roots' lags, then the LUTs. FlowMap gives every root lag 0;
//!   TurboMap-frt's `generate_mapping` passes its computed lags.
//! * [`cut`] — FlowMap's cut signals, and [`LutCut`]: what names a LUT
//!   input, and in what order, for FlowMap's and TurboMap's cuts.
//! * [`pack_luts`] — single-fanout LUT packing (area post-pass).
//!
//! # Examples
//!
//! ```
//! use netlist::{Circuit, TruthTable};
//! use flowmap::flowmap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut c = Circuit::new("maj");
//! let a = c.add_input("a")?;
//! let b = c.add_input("b")?;
//! let d = c.add_input("d")?;
//! let g1 = c.add_gate("g1", TruthTable::and(2))?;
//! let g2 = c.add_gate("g2", TruthTable::or(2))?;
//! let o = c.add_output("o")?;
//! c.connect(a, g1, vec![])?;
//! c.connect(b, g1, vec![])?;
//! c.connect(g1, g2, vec![])?;
//! c.connect(d, g2, vec![])?;
//! c.connect(g2, o, vec![])?;
//!
//! let mapped = flowmap(&c, 4)?;
//! assert_eq!(mapped.luts, 1); // 3-input function fits one 4-LUT
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cut;
pub mod cutenum;
pub mod generate;
pub mod label;
pub mod map;
pub mod pack;

pub use cut::{Cut, CutSignal, LutCut};
pub use cutenum::{ConeWalk, CutArena, CutFault, ExpCut, ExpNode, CUT_CAP};
pub use generate::{generate_luts, GenerateError, GeneratedMapping};
pub use label::{flow_label, flowmap_labels, flowmap_labels_with, Labeling};
pub use map::{
    flowmap, flowmap_frt, flowmap_frt_with, select_roots, FlowMapError, FlowMapFrtResult,
    FlowMapResult,
};
pub use pack::{pack_luts, PackReport};
