//! Heap the cut enumeration holds above the arena it returns, measured
//! by the counting allocator. A binary of its own: it installs
//! `engine::mem::CountingAlloc` as the global allocator and reads the
//! test thread's ledger.

use engine::mem;
use flowmap::{CutArena, CUT_CAP};

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc::new();

/// Heap `CutArena::enumerate` may hold above the arena it returns,
/// relative to the arena (about 0.35 on s38417 at K = 5: the last
/// round's signatures and merge buffers).
const MAX_TRANSIENT_RATIO: f64 = 0.6;

#[test]
fn enumeration_transient_heap_is_bounded() {
    let preset = workloads::presets()
        .into_iter()
        .find(|p| p.name == "s38417")
        .expect("s38417 is a Table-1 preset");
    let opts = turbomap::Options::default();
    let c = turbomap::prepare(&workloads::build_preset(&preset), opts.k).expect("valid preset");
    let order = c.comb_topo_order().expect("acyclic");
    let frt: Vec<u64> = retiming::max_forward_retiming_values(&c)
        .into_iter()
        .map(|f| f.min(opts.weight_horizon))
        .collect();
    mem::set_enabled(true);
    let before = mem::thread_live();
    mem::job_mark();
    let arena = CutArena::enumerate(&c, &order, &frt, opts.k, CUT_CAP);
    let bytes = mem::thread_live().saturating_sub(before);
    let transient = mem::thread_peak().saturating_sub(before + bytes);
    mem::set_enabled(false);

    let cuts: usize = c.gate_ids().map(|v| arena.num_cuts(v)).sum();
    assert_eq!(cuts, 244_106, "s38417's arena at K = 5");
    let ratio = transient as f64 / bytes as f64;
    println!(
        "{cuts} cuts: {bytes} B live ({:.1} B per cut), {transient} B transient \
         ({ratio:.2} of the arena)",
        bytes as f64 / cuts as f64
    );
    assert!(
        ratio <= MAX_TRANSIENT_RATIO,
        "enumeration peaks {ratio:.2} of the arena above it (bound {MAX_TRANSIENT_RATIO})"
    );
}
