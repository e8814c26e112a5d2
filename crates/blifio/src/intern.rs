//! The name interner: every signal/model/cell name in a parsed BLIF
//! file is stored exactly once in a single append-only byte arena, and
//! the rest of the front-end passes 4-byte [`Symbol`]s around. This is
//! what keeps memory proportional to the *netlist*, not the file: raw
//! text is scanned in fixed-size chunks and only distinct names survive.
//!
//! The interner lives in `netlist`, where it also holds each
//! [`Circuit`](netlist::Circuit)'s node names; this module re-exports it.

pub use netlist::intern::{Interner, Symbol};
