//! `tmfrt map` output bytes: mapping the bundled `small.blif` must write
//! exactly the committed `small.mapped.blif`.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn map_writes_golden_blif() {
    let data = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let dir = std::env::temp_dir().join(format!("tmfrt_map_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("small.mapped.blif");
    let out = Command::new(env!("CARGO_BIN_EXE_tmfrt"))
        .arg("map")
        .arg(data.join("small.blif"))
        .arg("-o")
        .arg(&out_path)
        .arg("-q")
        .output()
        .expect("tmfrt runs");
    assert!(
        out.status.success(),
        "tmfrt failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = std::fs::read_to_string(&out_path).unwrap();
    let want = std::fs::read_to_string(data.join("small.mapped.blif")).unwrap();
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(&dir);
}
