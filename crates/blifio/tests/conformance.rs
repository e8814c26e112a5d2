//! Conformance and acceptance tests for the streaming front-end.
//!
//! * The golden corpus (`tests/golden/`) freezes the verdicts of the
//!   flat-subset reader and writer this crate replaced: every
//!   `<case>.blif` must be read and written to exactly `<case>.out`, or
//!   be rejected with the error in `<case>.err`.
//! * The hierarchical acceptance test checks that a multi-model file
//!   with `.subckt`s, yosys annotations, `.conn` and an embedded KISS
//!   FSM flattens into the same circuit as a flattened-by-hand
//!   equivalent built directly against the `netlist` API.
//! * The large-workload test checks `flatten ∘ parse ∘ write_hier`
//!   against `workloads::large::build_flat`.

use blifio::{flatten, parse_reader, parse_str, structural_diff, LinkOptions, ParseOptions};
use netlist::{Circuit, NetlistError, NodeId, TruthTable};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use workloads::Encoding;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Reads every golden input with `blifio` alone. An accepted input must
/// write to the frozen bytes and re-read to an equivalent circuit; a
/// rejected one must fail at the frozen line with the frozen message,
/// which `blifio` may extend with detail (a bad latch init adds
/// ` (expected 0-3)`).
#[test]
fn golden_corpus() {
    let mut inputs: Vec<PathBuf> = std::fs::read_dir(golden_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "blif"))
        .collect();
    inputs.sort();
    assert!(inputs.len() >= 38, "golden corpus shrank");
    for path in inputs {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).unwrap();
        let out = std::fs::read_to_string(path.with_extension("out")).ok();
        let err = std::fs::read_to_string(path.with_extension("err")).ok();
        match (blifio::read_circuit_str(&src), out, err) {
            (Ok(c), Some(want), None) => {
                let text = blifio::write_circuit(&c);
                assert_eq!(text, want, "{name}: written bytes");
                let back = blifio::read_circuit_str(&text).unwrap();
                assert!(
                    netlist::random_equiv(&c, &back, 64, 11)
                        .unwrap()
                        .is_equivalent(),
                    "{name}: re-read circuit diverged"
                );
            }
            (Err(e), None, Some(want)) => {
                let got = NetlistError::from(e).to_string();
                assert!(
                    got.starts_with(want.trim_end()),
                    "{name}: got `{got}`, want `{want}`"
                );
            }
            (got, out, err) => panic!(
                "{name}: read as {:?}, but has .out: {}, .err: {}",
                got.map(|_| ()),
                out.is_some(),
                err.is_some()
            ),
        }
    }
}

#[test]
fn tiny_chunks_change_nothing() {
    let src: String = [
        "counter",
        "flat_mix",
        "flat_po_collision",
        "flat_continuation_comments",
    ]
    .iter()
    .map(|n| std::fs::read_to_string(golden_dir().join(format!("{n}.blif"))).unwrap())
    .collect();
    let whole = blifio::write_file(&parse_str(&src).unwrap());
    for chunk in [1usize, 2, 3, 7, 64] {
        let f = parse_reader(src.as_bytes(), &ParseOptions { chunk }).unwrap();
        assert_eq!(blifio::write_file(&f), whole, "chunk={chunk}");
    }
}

/// Copies every gate of `f` into `dst`, mapping `f`'s PIs through
/// `input_map`; returns the node map (two passes, so feedback cycles
/// copy correctly).
fn inline(
    dst: &mut Circuit,
    f: &Circuit,
    input_map: &HashMap<NodeId, NodeId>,
) -> HashMap<NodeId, NodeId> {
    let mut map = input_map.clone();
    for (k, v) in f.gate_ids().enumerate() {
        let g = dst
            .add_gate(format!("inl{k}"), f.node(v).function().unwrap().clone())
            .unwrap();
        map.insert(v, g);
    }
    for v in f.gate_ids() {
        for &e in f.node(v).fanin() {
            let src = map[&f.edge(e).from()];
            dst.connect(src, map[&v], f.edge(e).ffs().to_vec()).unwrap();
        }
    }
    map
}

const KISS_TOGGLE: &str = "\
.i 1
.o 1
.s 2
.r OFF
1 OFF ON  1
0 OFF OFF 0
- ON  OFF 0
";

#[test]
fn hierarchical_yosys_kiss_acceptance() {
    let src = format!(
        "\
.model acc_top
.inputs a b
.outputs z q
.attr top 1
.param WIDTH 2
.subckt leafand p=a q=b o=t
.conn t tc
.subckt fsm i0=tc o0=fq
.names fq z
1 1
.names t q
1 1
.end
.model leafand
.inputs p q
.outputs o
.cname u_and
.names p q o
11 1
.end
.model fsm
.inputs i0
.outputs o0
.start_kiss
{KISS_TOGGLE}.end_kiss
.end
"
    );
    let flattened = blifio::read_circuit_str(&src).unwrap();

    // Flattened-by-hand equivalent, built directly on the netlist API.
    let stg = workloads::parse_kiss2(KISS_TOGGLE).unwrap();
    let f = workloads::synthesize_stg(&stg, Encoding::Binary, "f").unwrap();
    let mut exp = Circuit::new("acc_top");
    let a = exp.add_input("a").unwrap();
    let b = exp.add_input("b").unwrap();
    let t = exp.add_gate("t", TruthTable::and(2)).unwrap();
    exp.connect(a, t, vec![]).unwrap();
    exp.connect(b, t, vec![]).unwrap();
    let tc = exp.add_gate("tc", TruthTable::buf()).unwrap();
    exp.connect(t, tc, vec![]).unwrap();
    let mut input_map = HashMap::new();
    input_map.insert(f.inputs()[0], tc);
    let map = inline(&mut exp, &f, &input_map);
    // The lowered aux model buffers each FSM output (`.names … out0`),
    // so the hand-flattened form has that buffer too.
    let fsm_po = f.outputs()[0];
    let fe = f.node(fsm_po).fanin()[0];
    let fq = exp.add_gate("fq", TruthTable::buf()).unwrap();
    exp.connect(map[&f.edge(fe).from()], fq, f.edge(fe).ffs().to_vec())
        .unwrap();
    let zg = exp.add_gate("z$g", TruthTable::buf()).unwrap();
    exp.connect(fq, zg, vec![]).unwrap();
    let qg = exp.add_gate("q$g", TruthTable::buf()).unwrap();
    exp.connect(t, qg, vec![]).unwrap();
    let z = exp.add_output("z").unwrap();
    exp.connect(zg, z, vec![]).unwrap();
    let q = exp.add_output("q").unwrap();
    exp.connect(qg, q, vec![]).unwrap();

    if let Some(d) = structural_diff(&exp, &flattened) {
        panic!("hand-flattened vs linked: {d}");
    }
    assert!(netlist::random_equiv(&exp, &flattened, 128, 23)
        .unwrap()
        .is_equivalent());
}

#[test]
fn onehot_encoding_changes_register_count() {
    let src =
        format!(".model m\n.inputs i\n.outputs o\n.start_kiss\n{KISS_TOGGLE}.end_kiss\n.end\n");
    let f = parse_str(&src).unwrap();
    let bin = flatten(&f, &LinkOptions::default()).unwrap();
    let oh = flatten(
        &f,
        &LinkOptions {
            encoding: Encoding::OneHot,
            ..LinkOptions::default()
        },
    )
    .unwrap();
    assert_eq!(bin.ff_count_total(), 1);
    assert_eq!(oh.ff_count_total(), 2);
}

#[test]
fn large_workload_flattens_to_reference() {
    let spec = workloads::LargeSpec {
        name: "conf".into(),
        width: 6,
        kinds: 3,
        tiles: 5,
        tile_gates: 40,
        seed: 99,
    };
    let text = workloads::hier_to_string(&spec);
    let linked = blifio::read_circuit_str(&text).unwrap();
    let reference = workloads::build_flat(&spec).unwrap();
    assert_eq!(linked.num_gates(), spec.flat_gates());
    assert_eq!(linked.ff_count_total(), spec.flat_ffs());
    if let Some(d) = structural_diff(&reference, &linked) {
        panic!("large reference vs linked: {d}");
    }
    assert!(netlist::random_equiv(&reference, &linked, 32, 7)
        .unwrap()
        .is_equivalent());
    // Streaming with a small chunk is identical.
    let f = parse_reader(text.as_bytes(), &ParseOptions { chunk: 13 }).unwrap();
    let linked2 = flatten(&f, &LinkOptions::default()).unwrap();
    assert!(structural_diff(&linked, &linked2).is_none());
}

#[test]
fn model_counts_report_hierarchy() {
    let spec = workloads::LargeSpec {
        name: "cnt".into(),
        width: 3,
        kinds: 2,
        tiles: 4,
        tile_gates: 8,
        seed: 5,
    };
    let f = parse_str(&workloads::hier_to_string(&spec)).unwrap();
    let counts = f.model_counts();
    assert_eq!(counts.len(), 1 + spec.kinds + 1); // top + tiles + blackbox
    assert_eq!(counts[0].name, "cnt");
    assert_eq!(counts[0].subckts, spec.tiles);
    // Top gates: width `.conn` buffers + width PO buffers.
    assert_eq!(counts[0].gates, 2 * spec.width);
    assert_eq!(counts[1].gates, spec.tile_gates + spec.width);
    assert_eq!(counts[1].latches, spec.width);
    assert!(counts.last().unwrap().blackbox);
}
