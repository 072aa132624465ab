//! `mapwave-sweep` rejects flags it does not know, and values its model
//! cannot take, instead of accepting them: a removed knob or an
//! out-of-range value must fail loudly as a usage error (exit 2), before any
//! store is created.

use std::process::{Command, Output};

/// Runs `mapwave-sweep run` into a store path of its own, named by `tag`,
/// and returns the output and whether the store was created.
fn sweep_run(tag: &str, flags: &[&str]) -> (Output, bool) {
    let root = std::env::temp_dir().join(format!(
        "mapwave-sweep-cli-args-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let out = Command::new(env!("CARGO_BIN_EXE_mapwave-sweep"))
        .arg("run")
        .arg("--store")
        .arg(&root)
        .args(flags)
        .output()
        .expect("spawn mapwave-sweep");
    let created = root.exists();
    let _ = std::fs::remove_dir_all(&root);
    (out, created)
}

#[test]
fn removed_window_lane_flag_is_an_unknown_argument() {
    let (out, created) = sweep_run("sim-threads", &["--sim-threads", "2"]);
    assert_eq!(out.status.code(), Some(2), "the removed flag was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument '--sim-threads'"),
        "unexpected stderr: {stderr}"
    );
    assert!(!created, "a rejected command line created a store");
}

#[test]
fn out_of_range_values_are_usage_errors() {
    for (i, (flag, value, message)) in [
        ("--scales", "0", "--scales wants finite scales > 0"),
        ("--scales", "0.002,nan", "--scales wants finite scales > 0"),
        ("--scales", "inf", "--scales wants finite scales > 0"),
        ("--scales", "-0.1", "--scales wants finite scales > 0"),
        ("--rates", "2", "--rates wants fault rates in [0, 1]"),
        ("--rates", "0,-0.5", "--rates wants fault rates in [0, 1]"),
        ("--fail-rate", "2", "--fail-rate wants a rate in [0, 1]"),
        ("--fail-rate", "nan", "--fail-rate wants a rate in [0, 1]"),
    ]
    .into_iter()
    .enumerate()
    {
        let (out, created) = sweep_run(&i.to_string(), &[flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {value} was not a usage error: {stderr}"
        );
        assert!(
            stderr.contains(message),
            "{flag} {value}: unexpected stderr: {stderr}"
        );
        assert!(!created, "{flag} {value} created a store");
    }
}
