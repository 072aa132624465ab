//! `mapwave-sweep` rejects flags it does not know instead of accepting and
//! ignoring them: a removed knob must fail loudly, before any store is
//! created.

use std::process::Command;

#[test]
fn removed_window_lane_flag_is_an_unknown_argument() {
    let root = std::env::temp_dir().join(format!("mapwave-sweep-cli-args-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let out = Command::new(env!("CARGO_BIN_EXE_mapwave-sweep"))
        .arg("run")
        .arg("--store")
        .arg(&root)
        .args(["--sim-threads", "2"])
        .output()
        .expect("spawn mapwave-sweep");

    assert!(!out.status.success(), "the removed flag was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument '--sim-threads'"),
        "unexpected stderr: {stderr}"
    );
    assert!(!root.exists(), "a rejected command line created a store");
}
