//! FlowMap labelled from the cut arena: the same labels and cuts as
//! labelling by max-flow, and the same mapped bytes as the committed
//! golden files for all three algorithms.

use flowmap::{flow_label, flowmap_labels, CutArena};
use std::path::Path;
use turbomap::{turbomap_frt, turbomap_general, Options};

const K: usize = 5;

fn preset(name: &str) -> netlist::Circuit {
    let p = workloads::presets()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no preset `{name}`"));
    workloads::build_preset(&p)
}

/// Every gate of the 14 FSMs and s5378: the arena lists its cuts, and its
/// label and cut (signals, initial values and order) are what max-flow
/// derives from the same fanin labels — so, gate by gate in topological
/// order, the two labellings agree.
#[test]
fn arena_labels_and_cuts_equal_max_flow_on_table1() {
    let names = workloads::presets()
        .into_iter()
        .filter(|p| !p.iscas || p.name == "s5378")
        .map(|p| p.name);
    for name in names {
        let c = turbomap::prepare(&preset(name), K).expect("presets are valid");
        let arena = CutArena::combinational(&c, K);
        let lab = flowmap_labels(&c, K);
        for v in c.gate_ids() {
            let gate = c.node(v).name();
            assert!(!arena.is_fallback(v), "{name}: `{gate}` fell back");
            let (label, cut) = flow_label(&c, v, &lab.labels, K);
            assert_eq!(lab.labels[v.index()], label, "{name}: label of `{gate}`");
            assert_eq!(lab.cuts[&v], cut, "{name}: cut of `{gate}`");
        }
    }
}

/// The committed bytes of `tmfrt map gen:<name> -a <algo>` for one FSM and
/// one ISCAS circuit: how FlowMap finds its cuts must not move a LUT pin.
#[test]
fn mapped_blif_matches_golden_files() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    for name in ["ex2", "s5378"] {
        let c = preset(name);
        let prep = turbomap::prepare(&c, K).expect("presets are valid");
        let opts = Options::with_k(K);
        let mapped = [
            (
                "flowmap-frt",
                flowmap::flowmap_frt(&prep, K).unwrap().circuit,
            ),
            ("turbomap", turbomap_general(&c, opts).unwrap().circuit),
            ("turbomap-frt", turbomap_frt(&c, opts).unwrap().circuit),
        ];
        for (algo, circuit) in mapped {
            let file = format!("{name}.{algo}.blif");
            let want = std::fs::read_to_string(data.join(&file)).unwrap();
            assert!(
                blifio::write_circuit(&circuit) == want,
                "{name} -a {algo}: mapped BLIF differs from tests/data/{file}"
            );
        }
    }
}
