//! The cut arena, pinned: every gate's list — cut order, `(node, w)`
//! leaves, cone weight and fallback flag — for all 18 Table-1 circuits, in
//! both the TurboMap-frt context's arena and the combinational (FlowMap)
//! arena, hashes to the committed digests. Label scans take the first cut
//! that qualifies, so a faster enumeration must list exactly these cuts in
//! exactly this order.

mod common;

use common::sha256_hex;
use flowmap::{CutArena, CUT_CAP};
use netlist::Circuit;
use std::path::Path;
use turbomap::{FrtContext, Options};

fn preset(name: &str) -> Circuit {
    let p = workloads::presets()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no preset `{name}`"));
    workloads::build_preset(&p)
}

/// Every node's list in node order: fallback flag, cut count, then per
/// cut its cone weight, leaf count and `(node, w)` leaves.
fn arena_bytes(c: &Circuit, arena: &CutArena) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(c.num_nodes() as u32).to_le_bytes());
    for v in c.node_ids() {
        out.push(u8::from(arena.is_fallback(v)));
        out.extend_from_slice(&(arena.num_cuts(v) as u32).to_le_bytes());
        for (weight, nodes, ws) in arena.cut_list(v) {
            out.push(weight);
            out.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
            for (&node, &w) in nodes.iter().zip(ws) {
                out.extend_from_slice(&node.to_le_bytes());
                out.push(w);
            }
        }
    }
    out
}

/// `<sha256>  <circuit>.<frt|comb>` for every Table-1 circuit at K = 5,
/// the digest file's lines.
#[test]
fn arena_digests_match_pinned() {
    let opts = Options::default();
    let mut lines = Vec::new();
    for p in workloads::presets() {
        let c = turbomap::prepare(&preset(p.name), opts.k).expect("presets are valid");
        let ctx = FrtContext::new(&c, opts.k, opts.weight_horizon);
        let frt = sha256_hex(&arena_bytes(&c, ctx.cut_arena()));
        let comb = sha256_hex(&arena_bytes(&c, &CutArena::combinational(&c, opts.k)));
        lines.push(format!("{frt}  {}.frt", p.name));
        lines.push(format!("{comb}  {}.comb", p.name));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/cut_arena.sha256");
    let pinned = std::fs::read_to_string(&path).expect("digest file is committed");
    let pinned: Vec<&str> = pinned.lines().collect();
    let differ: Vec<&String> = lines
        .iter()
        .filter(|l| !pinned.contains(&l.as_str()))
        .collect();
    assert!(
        differ.is_empty() && pinned.len() == lines.len(),
        "arena digests differ from {}: {differ:?}\nall computed lines:\n{}",
        path.display(),
        lines.join("\n")
    );
}

/// A list of exactly `cut_cap` cuts is kept as is; one cut more and the
/// gate falls back.
#[test]
fn cut_cap_boundary_keeps_a_full_list() {
    for name in ["dk16", "s1"] {
        let c = turbomap::prepare(&preset(name), 5).expect("presets are valid");
        let order = c.comb_topo_order().expect("acyclic");
        let frt: Vec<u64> = retiming::max_forward_retiming_values(&c)
            .into_iter()
            .map(|f| f.min(32))
            .collect();
        let full = CutArena::enumerate(&c, &order, &frt, 5, CUT_CAP);
        let v = c
            .gate_ids()
            .max_by_key(|&v| full.num_cuts(v))
            .expect("the circuit has gates");
        let longest = full.num_cuts(v);
        assert!(longest > 1, "{name}: longest list has {longest} cuts");
        let at_cap = CutArena::enumerate(&c, &order, &frt, 5, longest);
        assert!(!at_cap.is_fallback(v), "{name}: a full list fell back");
        for g in c.node_ids() {
            assert_eq!(at_cap.is_fallback(g), full.is_fallback(g), "{name}");
            assert!(at_cap.cut_list(g).eq(full.cut_list(g)), "{name}");
        }
        let below = CutArena::enumerate(&c, &order, &frt, 5, longest - 1);
        assert!(below.is_fallback(v), "{name}: an over-long list was kept");
        assert_eq!(below.num_cuts(v), 0);
    }
}

#[test]
fn sha256_known_answers() {
    assert_eq!(
        sha256_hex(b""),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
    assert_eq!(
        sha256_hex(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    assert_eq!(
        sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}
