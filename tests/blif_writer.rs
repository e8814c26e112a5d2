//! The BLIF writer at scale, pinned: the flattened hier100k design
//! writes to exactly the bytes it has always written. Mapped outputs
//! are pinned by their own digests; this one covers the writer alone,
//! on a 99k-gate netlist with shared latch chains and output buffers.

mod common;

use common::sha256_hex;

#[test]
fn hier100k_flat_text_digest_is_pinned() {
    let spec = workloads::large_preset("hier100k").unwrap();
    let c = blifio::read_circuit_str(&workloads::hier_to_string(&spec)).unwrap();
    assert_eq!(c.num_gates(), spec.flat_gates());
    let text = blifio::write_circuit(&c);
    assert_eq!(text.len(), 5_767_092);
    assert_eq!(
        sha256_hex(text.as_bytes()),
        "b956167a7b4007f55dd1be2d7fdd9db823f640ac67f675413f477d2dbbdf5fce"
    );
}
