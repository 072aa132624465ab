//! `mapwave-sweep` rejects flags it does not know, flags its command does
//! not take, and values its model cannot take, instead of accepting them:
//! each must fail loudly as a usage error (exit 2), before any store is
//! created or opened.

use std::process::{Command, Output};

/// Runs `mapwave-sweep <command>` on a store path of its own, named by
/// `tag`, and returns the output and whether the store was created.
fn sweep(command: &str, tag: &str, flags: &[&str]) -> (Output, bool) {
    let root = std::env::temp_dir().join(format!(
        "mapwave-sweep-cli-args-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let out = Command::new(env!("CARGO_BIN_EXE_mapwave-sweep"))
        .arg(command)
        .arg("--store")
        .arg(&root)
        .args(flags)
        .output()
        .expect("spawn mapwave-sweep");
    let created = root.exists();
    let _ = std::fs::remove_dir_all(&root);
    (out, created)
}

/// Asserts that `mapwave-sweep <command> --store S <flags>` is a usage
/// error whose message contains `message`, and that it left no store.
fn assert_usage_error(command: &str, tag: &str, flags: &[&str], message: &str) {
    let (out, created) = sweep(command, tag, flags);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{command} {flags:?} was not a usage error: {stderr}"
    );
    assert!(
        stderr.contains(message),
        "{command} {flags:?}: unexpected stderr: {stderr}"
    );
    assert!(!created, "{command} {flags:?} created a store");
}

#[test]
fn removed_flags_are_unknown_arguments() {
    for (i, flag) in [
        "--sim-threads",
        "--max-attempts",
        "--backoff-ms",
        "--fail-rate",
        "--fail-seed",
    ]
    .into_iter()
    .enumerate()
    {
        let message = format!("unknown argument '{flag}'");
        assert_usage_error("run", &format!("removed-{i}"), &[flag, "2"], &message);
    }
}

#[test]
fn flags_of_another_command_are_usage_errors() {
    for (i, (command, flag, value)) in [
        // `resume` reads the sweep's spec from the store.
        ("resume", "--caps", "6"),
        ("resume", "--epoch-cycles", "20000"),
        ("resume", "--scales", "0.002"),
        ("resume", "--dram", "banked"),
        ("status", "--jobs", "2"),
        ("status", "--limit", "1"),
        ("status", "--preset", "paper"),
        ("query", "--caps", "6"),
        ("query", "--jobs", "2"),
        ("query", "--limit", "1"),
        ("run", "--metric", "edp"),
        ("resume", "--app", "WC"),
        ("status", "--variant", "nvfi"),
    ]
    .into_iter()
    .enumerate()
    {
        let message = format!("{flag} does not apply to '{command}'");
        assert_usage_error(command, &format!("scope-{i}"), &[flag, value], &message);
    }
    assert_usage_error(
        "help",
        "scope-help",
        &[],
        "--store does not apply to 'help'",
    );
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
    ]
    .into_iter()
    .enumerate()
    {
        assert_usage_error("run", &format!("range-{i}"), &[flag, value], message);
    }
}
