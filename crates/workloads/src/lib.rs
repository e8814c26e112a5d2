//! Benchmark circuit generators for the TurboMap-frt reproduction.
//!
//! The paper evaluates on 14 MCNC FSMs and 4 ISCAS'89 circuits; those
//! files are unavailable offline, so this crate generates *seeded
//! synthetic equivalents* calibrated to the paper's per-circuit gate and
//! register counts (see DESIGN.md for the substitution argument):
//!
//! * [`fsm`] — random state machines synthesised to 2-input gate
//!   networks with encoded, reset-initialised state registers,
//! * [`layered`] — layered datapath-style sequential circuits with exact
//!   gate/register counts,
//! * [`grow`](mod@grow) — size/depth calibration by live gate insertion,
//! * [`kiss`] — KISS2 parsing/synthesis for genuine MCNC FSM files,
//! * [`figures`] — the paper's Figure 1–4 example circuits,
//! * [`table1`] — the 18 Table-1 presets with the paper's reported
//!   numbers embedded for paper-vs-measured reports.
//!
//! # Examples
//!
//! ```
//! use workloads::fsm::{generate_fsm, Encoding, FsmSpec};
//!
//! let c = generate_fsm(&FsmSpec {
//!     name: "demo".into(),
//!     states: 4,
//!     inputs: 2,
//!     decoded: 2,
//!     outputs: 1,
//!     encoding: Encoding::OneHot,
//!     registered_inputs: false,
//!     seed: 1,
//! });
//! netlist::validate(&c).unwrap();
//! assert_eq!(c.ff_count_shared(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod fsm;
pub mod grow;
pub mod kiss;
pub mod large;
pub mod layered;
pub mod table1;

pub use figures::{fig1_circuit, fig2_circuit, fig3_circuit, fig4_circuit};
pub use fsm::{generate_fsm, Encoding, FsmSpec};
pub use grow::{grow, GrowError};
pub use kiss::{parse_kiss2, synthesize_stg, KissError, Stg};
pub use large::{
    build_flat, hier_to_string, large_preset, large_presets, tile_plan, write_hier, LargeSpec,
    TilePlan,
};
pub use layered::{generate_layered, LayeredSpec};
pub use table1::{
    build_preset, presets, table1_suite, table1_suite_small, PaperResult, PaperRow, Preset,
};
