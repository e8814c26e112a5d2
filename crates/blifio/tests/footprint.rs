//! Heap footprint of a flattened circuit, measured by the counting
//! allocator. A binary of its own: it installs
//! `engine::mem::CountingAlloc` as the global allocator and reads the
//! test thread's ledger.

use engine::mem;
use workloads::LargeSpec;

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc::new();

/// Live heap the circuit may hold per node: node records, 16-byte edge
/// records, the FF chain pool, name text and the name index (124.8 B on
/// this hierarchy; the bound leaves about 12% for allocator rounding
/// and generator changes).
const MAX_BYTES_PER_NODE: f64 = 140.0;

/// Heap `flatten` may hold above the parsed file and the circuit it
/// returns, relative to the circuit (0.39 on this hierarchy).
const MAX_TRANSIENT_RATIO: f64 = 0.5;

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
    let file = blifio::parse_str(&text).expect("generated BLIF parses");
    let before = mem::thread_live();
    mem::job_mark();
    let c = blifio::flatten(&file, &blifio::LinkOptions::default()).expect("flattens");
    let bytes = mem::thread_live().saturating_sub(before);
    let transient = mem::thread_peak().saturating_sub(before + bytes);
    mem::set_enabled(false);
    drop(file);

    assert_eq!(c.num_gates(), spec.flat_gates());
    let per_node = bytes as f64 / c.num_nodes() as f64;
    let ratio = transient as f64 / bytes as f64;
    println!(
        "{} nodes, {} edges: {bytes} B live, {per_node:.1} B per node, \
         {transient} B transient ({ratio:.2} of the circuit)",
        c.num_nodes(),
        c.num_edges()
    );
    assert!(
        per_node <= MAX_BYTES_PER_NODE,
        "circuit holds {per_node:.1} B per node (bound {MAX_BYTES_PER_NODE})"
    );
    assert!(
        ratio <= MAX_TRANSIENT_RATIO,
        "flatten peaks {ratio:.2} of the circuit above it (bound {MAX_TRANSIENT_RATIO})"
    );
}
