//! Conformance and acceptance tests for the streaming front-end.
//!
//! * The golden corpus (`tests/golden/`) freezes the verdicts of the
//!   flat-subset reader and writer this crate replaced: every
//!   `<case>.blif` must be read and written to exactly `<case>.out`, or
//!   be rejected with the error in `<case>.err`. Whatever the chunk
//!   size, the scanner must see the same tokens at the same positions.
//! * The hierarchical acceptance test checks that a multi-model file
//!   with `.subckt`s, yosys annotations, `.conn` and an embedded KISS
//!   FSM flattens into the same circuit as a flattened-by-hand
//!   equivalent built directly against the `netlist` API.
//! * The large-workload test checks `flatten ∘ parse ∘ write_hier`
//!   against `workloads::large::build_flat`.

use blifio::{
    flatten, parse_reader, parse_str, structural_diff, BlifError, LineBuf, LinkOptions,
    ParseOptions, Scanner, DEFAULT_CHUNK,
};
use netlist::{Circuit, NetlistError, NodeId, TruthTable};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use workloads::Encoding;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Reads and flattens BLIF bytes (which need not be UTF-8).
fn read_bytes(src: &[u8], chunk: usize) -> Result<Circuit, BlifError> {
    flatten(
        &parse_reader(src, &ParseOptions { chunk })?,
        &LinkOptions::default(),
    )
}

/// Names of a circuit's inputs, then of its outputs.
fn port_names(c: &Circuit) -> Vec<String> {
    c.inputs()
        .iter()
        .chain(c.outputs())
        .map(|&v| c.node(v).name().to_string())
        .collect()
}

/// The golden inputs, sorted by name.
fn golden_inputs() -> Vec<PathBuf> {
    let mut inputs: Vec<PathBuf> = std::fs::read_dir(golden_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "blif"))
        .collect();
    inputs.sort();
    inputs
}

/// Reads every golden input with `blifio` alone. An accepted input must
/// write to the frozen bytes and re-read to an equivalent circuit with
/// the same port names; a rejected one must fail with the error in its
/// `.err`. An `.err` that starts with `BLIF` holds the line and message
/// of the reader this crate replaced, which `blifio` may extend with
/// detail (a bad latch init adds ` (expected 0-3)`); any other holds
/// the positioned diagnostic, column included.
#[test]
fn golden_corpus() {
    let inputs = golden_inputs();
    assert!(inputs.len() >= 41, "golden corpus shrank");
    for path in inputs {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read(&path).unwrap();
        let out = std::fs::read_to_string(path.with_extension("out")).ok();
        let err = std::fs::read_to_string(path.with_extension("err")).ok();
        match (read_bytes(&src, DEFAULT_CHUNK), out, err) {
            (Ok(c), Some(want), None) => {
                let text = blifio::write_circuit(&c);
                assert_eq!(text, want, "{name}: written bytes");
                let back = blifio::read_circuit_str(&text).unwrap();
                assert_eq!(port_names(&back), port_names(&c), "{name}: port names");
                assert!(
                    netlist::random_equiv(&c, &back, 64, 11)
                        .unwrap()
                        .is_equivalent(),
                    "{name}: re-read circuit diverged"
                );
            }
            (Err(e), None, Some(want)) => {
                let got = if want.starts_with("BLIF") {
                    NetlistError::from(e).to_string()
                } else {
                    e.to_string()
                };
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

/// Every logical line's tokens with their (line, col), then the
/// parser's verdict: the re-written file, or the rendered diagnostic.
type Scanned = (Vec<(String, usize, usize)>, Result<String, String>);

fn scan_and_parse(src: &[u8], chunk: usize) -> Scanned {
    let mut sc = Scanner::with_chunk(src, chunk);
    let mut lb = LineBuf::default();
    let mut toks = Vec::new();
    loop {
        match sc.next_line(&mut lb) {
            Ok(true) => toks.extend((0..lb.len()).map(|i| {
                let (line, col) = lb.pos(i);
                (lb.tok(i).to_string(), line, col)
            })),
            Ok(false) => break,
            Err(e) => {
                toks.push((e.render(), 0, 0));
                break;
            }
        }
    }
    let verdict = parse_reader(src, &ParseOptions { chunk })
        .map(|f| blifio::write_file(&f))
        .map_err(|e| e.render());
    (toks, verdict)
}

/// `src` with CRLF line ends, and with each directive's first token
/// continued onto a line of its own by `\` + CRLF.
fn crlf_continued(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for line in src.split_inclusive(|&b| b == b'\n') {
        let body = line.strip_suffix(b"\n").unwrap_or(line);
        match body.iter().position(|&b| b == b' ') {
            Some(sp) if body.starts_with(b".") => {
                out.extend_from_slice(&body[..sp]);
                out.extend_from_slice(b" \\\r\n");
                out.extend_from_slice(&body[sp..]);
            }
            _ => out.extend_from_slice(body),
        }
        if line.ends_with(b"\n") {
            out.extend_from_slice(b"\r\n");
        }
    }
    out
}

/// Chunk size is invisible: over the golden corpus, its `\` + CRLF
/// variant, a token longer than the chunk and a 1 MiB comment line, every
/// chunk size gives the same tokens, positions and diagnostics as the
/// default one.
#[test]
fn tiny_chunks_change_nothing() {
    let long = "n".repeat(300);
    let mut cases: Vec<Vec<u8>> = Vec::new();
    for path in golden_inputs() {
        let src = std::fs::read(&path).unwrap();
        let continued = crlf_continued(&src);
        // The variant keeps every logical line, so an accepted file
        // parses to the same models.
        let plain = scan_and_parse(&src, DEFAULT_CHUNK).1;
        if plain.is_ok() {
            let crlf = scan_and_parse(&continued, DEFAULT_CHUNK).1;
            assert_eq!(crlf, plain, "{}: \\ + CRLF variant", path.display());
        }
        cases.push(src);
        cases.push(continued);
    }
    cases.push(
        format!(".model m\n.inputs {long} b\n.outputs z\n.names {long} b z\n11 1\n.end\n")
            .into_bytes(),
    );
    for src in &cases {
        let want = scan_and_parse(src, DEFAULT_CHUNK);
        for chunk in 1..=64 {
            assert_eq!(
                scan_and_parse(src, chunk),
                want,
                "chunk={chunk}: {}",
                String::from_utf8_lossy(src)
            );
        }
    }
    let long_case = scan_and_parse(cases.last().unwrap(), 1).0;
    assert_eq!(long_case[3], (long, 2, 9));

    let mut commented = b".model m\n# ".to_vec();
    commented.resize(commented.len() + (1 << 20), b'c');
    commented.extend_from_slice(b"\n.inputs a\n.outputs a\n.end\n");
    let want = scan_and_parse(&commented, DEFAULT_CHUNK);
    assert_eq!(want.0[2], (".inputs".to_string(), 3, 1));
    for chunk in [1, 7, 64, 4096] {
        assert_eq!(scan_and_parse(&commented, chunk), want, "chunk={chunk}");
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
            dst.connect(src, map[&v], f.edge(e).ffs()).unwrap();
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
    exp.connect(map[&f.edge(fe).from()], fq, f.edge(fe).ffs())
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
