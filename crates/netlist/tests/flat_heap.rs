//! Heap of the largest generated design, built straight into a
//! [`netlist::Circuit`], measured by the counting allocator. A binary of
//! its own: it installs `engine::mem::CountingAlloc` as the global
//! allocator and reads the test thread's ledger.

use engine::mem;

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc::new();

/// Heap `build_flat(hier1m)` may hold at its peak.
const MAX_MIB: f64 = 120.0;

#[test]
#[ignore = "builds the 1M-gate preset; run in release"]
fn hier1m_builds_within_its_heap_budget() {
    let spec = workloads::large_preset("hier1m").expect("hier1m preset");
    mem::set_enabled(true);
    let before = mem::thread_live();
    mem::job_mark();
    let c = workloads::build_flat(&spec).expect("hier1m builds");
    let live = mem::thread_live().saturating_sub(before) as f64 / (1024.0 * 1024.0);
    let peak = mem::thread_peak().saturating_sub(before) as f64 / (1024.0 * 1024.0);
    mem::set_enabled(false);
    println!(
        "{} nodes, {} edges, {} FFs: {live:.1} MiB live, {peak:.1} MiB peak",
        c.num_nodes(),
        c.num_edges(),
        c.ff_count_total()
    );
    assert!(
        peak <= MAX_MIB,
        "build_flat(hier1m) peaks at {peak:.1} MiB of heap (bound {MAX_MIB} MiB)"
    );
}
