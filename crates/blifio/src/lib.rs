//! Industrial BLIF front-end: a streaming, full-spec reader with yosys
//! extensions, hierarchy flattening, and a round-tripping writer.
//!
//! Every netlist the workspace reads or writes as BLIF goes through
//! this crate:
//!
//! * **Streaming** — input is scanned through a fixed 64 KiB chunk
//!   buffer ([`scan`]); names are interned into a single arena
//!   ([`intern`]); the raw text is never held whole, so peak memory is
//!   proportional to the netlist, not the file.
//! * **Full 1992 spec** — multi-model files, `.subckt` hierarchy,
//!   `.latch` trigger types (`fe/re/ah/al/as`) and clock signals,
//!   `.gate`/`.mlatch` library cells ([`lib_cells`]), embedded KISS FSMs
//!   (`.start_kiss`..`.end_kiss`, synthesised via `workloads::kiss`),
//!   `.clock` and delay directives (carried as metadata).
//! * **yosys extensions** — `.attr`, `.param`, `.cname`, `.blackbox`,
//!   `.conn`.
//! * **Precise diagnostics** — every error carries line + column and,
//!   when available, the offending source line with a caret ([`diag`]).
//! * **Flattening** — [`link`] elaborates the hierarchy into the
//!   retiming-graph [`Circuit`] used by the
//!   mapping/retiming stack, folding each latch into one FF on every
//!   consumer edge of its output.
//! * **Round-tripping writer** — [`write`](mod@write) serialises everything the
//!   reader accepts, and converts circuits back to BLIF
//!   ([`write_circuit`]). The committed `tests/golden/` corpus pins the
//!   reader's verdict and the writer's bytes for the flat subset.
//!
//! # Examples
//!
//! ```
//! let src = "\
//! .model top
//! .inputs a b
//! .outputs z
//! .subckt and2m x=a y=b o=z
//! .end
//! .model and2m
//! .inputs x y
//! .outputs o
//! .names x y o
//! 11 1
//! .end
//! ";
//! let c = blifio::read_circuit_str(src).unwrap();
//! assert_eq!(c.name(), "top");
//! assert_eq!(c.num_gates(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod compare;
pub mod diag;
pub mod intern;
pub mod lib_cells;
pub mod link;
pub mod parse;
pub mod scan;
pub mod write;

pub use ast::{BlifFile, Command, InitVal, LatchType, Model};
pub use compare::{structural_diff, structurally_equal};
pub use diag::{BlifError, Diag};
pub use intern::{Interner, Symbol};
pub use link::{flatten, LinkOptions};
pub use parse::{parse_path, parse_reader, parse_str, ParseOptions};
pub use scan::{LineBuf, Scanner, DEFAULT_CHUNK};
pub use write::{from_circuit, model_from_circuit, write_circuit, write_file};

use netlist::Circuit;
use std::path::Path;

/// Parses and flattens BLIF text with default link options.
///
/// # Errors
///
/// See [`parse_str`] and [`flatten`].
pub fn read_circuit_str(text: &str) -> Result<Circuit, BlifError> {
    read_circuit_str_opts(text, &LinkOptions::default())
}

/// Parses and flattens BLIF text with explicit link options.
///
/// # Errors
///
/// See [`parse_str`] and [`flatten`].
pub fn read_circuit_str_opts(text: &str, opts: &LinkOptions) -> Result<Circuit, BlifError> {
    flatten(&parse_str(text)?, opts)
}

/// Streams, parses and flattens a BLIF file with default link options.
///
/// # Errors
///
/// See [`parse_path`] and [`flatten`].
pub fn read_circuit_path(path: impl AsRef<Path>) -> Result<Circuit, BlifError> {
    read_circuit_path_opts(path, &LinkOptions::default())
}

/// Streams, parses and flattens a BLIF file with explicit link options.
///
/// # Errors
///
/// See [`parse_path`] and [`flatten`].
pub fn read_circuit_path_opts(
    path: impl AsRef<Path>,
    opts: &LinkOptions,
) -> Result<Circuit, BlifError> {
    flatten(&parse_path(path)?, opts)
}
