//! Heap footprint of a flattened circuit, measured by the counting
//! allocator. A binary of its own: it installs
//! `engine::mem::CountingAlloc` as the global allocator and reads the
//! test thread's ledger.

use engine::mem;
use workloads::LargeSpec;

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc::new();

/// Live heap the circuit may hold per node: node records, edges, name
/// text and the name index (about 165 B on a generated hierarchy).
const MAX_BYTES_PER_NODE: f64 = 180.0;

#[test]
fn flattened_circuit_heap_per_node_is_bounded() {
    let spec = LargeSpec {
        name: "foot12".into(),
        width: 32,
        kinds: 4,
        tiles: 12,
        tile_gates: 1024,
        seed: 0xF007_0012,
    };
    let text = workloads::hier_to_string(&spec);
    mem::set_enabled(true);
    let before = mem::thread_live();
    let file = blifio::parse_str(&text).expect("generated BLIF parses");
    let c = blifio::flatten(&file, &blifio::LinkOptions::default()).expect("flattens");
    drop(file);
    let bytes = mem::thread_live().saturating_sub(before);
    mem::set_enabled(false);

    assert_eq!(c.num_gates(), spec.flat_gates());
    let per_node = bytes as f64 / c.num_nodes() as f64;
    println!(
        "{} nodes, {} edges: {bytes} B live, {per_node:.1} B per node",
        c.num_nodes(),
        c.num_edges()
    );
    assert!(
        per_node <= MAX_BYTES_PER_NODE,
        "circuit holds {per_node:.1} B per node (bound {MAX_BYTES_PER_NODE})"
    );
}
