//! Built-in cell library for `.gate` / `.mlatch`.
//!
//! BLIF's library-gate commands reference cells from a technology
//! library the file does not carry. We resolve them against a small
//! built-in library of the generic cells yosys/SIS emit (inverters,
//! buffers, constants, and 2–4 input and/or/nand/nor plus xor/xnor and
//! a mux), which is enough to ingest the gate-level BLIF those tools write.
//! Cell and pin names match case-insensitively.

use netlist::TruthTable;

/// A resolved combinational library cell.
#[derive(Debug, Clone)]
pub struct CellDef {
    /// Canonical cell name.
    pub name: &'static str,
    /// Input pin names, in truth-table input order.
    pub inputs: &'static [&'static str],
    /// Output pin name.
    pub output: &'static str,
    /// The cell's function.
    pub tt: TruthTable,
}

const AB: &[&str] = &["a", "b"];
const ABC: &[&str] = &["a", "b", "c"];
const ABCD: &[&str] = &["a", "b", "c", "d"];

/// Looks up a combinational cell by (case-insensitive) name.
pub fn lookup_cell(name: &str) -> Option<CellDef> {
    let lower = name.to_ascii_lowercase();
    let (canon, inputs, tt): (&'static str, &'static [&'static str], TruthTable) =
        match lower.as_str() {
            "inv" | "not" | "inv1" => ("inv", &["a"], TruthTable::not()),
            "buf" | "buffer" | "buf1" => ("buf", &["a"], TruthTable::buf()),
            "zero" | "const0" | "gnd" => ("zero", &[], TruthTable::const_zero(0)),
            "one" | "const1" | "vcc" | "vdd" => ("one", &[], TruthTable::const_one(0)),
            "and2" => ("and2", AB, TruthTable::and(2)),
            "and3" => ("and3", ABC, TruthTable::and(3)),
            "and4" => ("and4", ABCD, TruthTable::and(4)),
            "or2" => ("or2", AB, TruthTable::or(2)),
            "or3" => ("or3", ABC, TruthTable::or(3)),
            "or4" => ("or4", ABCD, TruthTable::or(4)),
            "nand2" => ("nand2", AB, TruthTable::nand(2)),
            "nand3" => ("nand3", ABC, TruthTable::nand(3)),
            "nand4" => ("nand4", ABCD, TruthTable::nand(4)),
            "nor2" => ("nor2", AB, TruthTable::nor(2)),
            "nor3" => ("nor3", ABC, TruthTable::nor(3)),
            "nor4" => ("nor4", ABCD, TruthTable::nor(4)),
            "xor2" => ("xor2", AB, TruthTable::xor(2)),
            "xnor2" => (
                "xnor2",
                AB,
                TruthTable::from_fn(2, |r| r.count_ones() % 2 == 0),
            ),
            "mux" | "mux2" => ("mux", &["s", "a", "b"], TruthTable::mux()),
            _ => return None,
        };
    Some(CellDef {
        name: canon,
        inputs,
        output: "o",
        tt,
    })
}

/// True when `pin` names the cell's output (accepts the common aliases
/// `o`, `y`, `z`, `out`).
pub fn is_output_pin(pin: &str) -> bool {
    matches!(
        pin.to_ascii_lowercase().as_str(),
        "o" | "y" | "z" | "out" | "q"
    )
}

/// A resolved sequential cell for `.mlatch`: just the D and Q pin names.
#[derive(Debug, Clone, Copy)]
pub struct LatchCellDef {
    /// Data-input pin.
    pub d: &'static str,
    /// Output pin.
    pub q: &'static str,
}

/// Looks up a latch cell by (case-insensitive) name.
pub fn lookup_latch_cell(name: &str) -> Option<LatchCellDef> {
    match name.to_ascii_lowercase().as_str() {
        "dff" | "dff1" | "ff" | "dlatch" | "latch" => Some(LatchCellDef { d: "d", q: "q" }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_case_insensitive() {
        let c = lookup_cell("NAND2").unwrap();
        assert_eq!(c.name, "nand2");
        assert_eq!(c.inputs, ["a", "b"]);
        assert!(lookup_cell("nand9").is_none());
    }

    #[test]
    fn xnor_truth() {
        let c = lookup_cell("xnor2").unwrap();
        assert!(c.tt.eval_row(0));
        assert!(!c.tt.eval_row(1));
        assert!(!c.tt.eval_row(2));
        assert!(c.tt.eval_row(3));
    }

    #[test]
    fn latch_cells() {
        assert!(lookup_latch_cell("DFF").is_some());
        assert!(lookup_latch_cell("sr_latch").is_none());
    }
}
