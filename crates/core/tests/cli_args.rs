//! `mapwave` honours or rejects every option it is given: `--trace` writes
//! a trace on every command, `--jobs` is a usage error on the commands
//! that build no job graph, instead of being accepted and ignored, and a
//! zero `--jobs` or `--seeds` is a usage error, not a panic.

use std::process::{Command, Output};

fn mapwave(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mapwave"))
        .args(args)
        .output()
        .expect("spawn mapwave")
}

#[test]
fn jobs_is_a_usage_error_without_a_job_graph() {
    for command in ["design", "ablations", "timeline", "topology"] {
        let out = mapwave(&[command, "WC", "--scale", "0.002", "--jobs", "2"]);
        assert!(!out.status.success(), "{command} accepted --jobs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "{command} builds no job graph and takes no --jobs"
            )),
            "{command}: unexpected stderr: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{command} ran before rejecting --jobs"
        );
    }
    let out = mapwave(&["help", "--jobs", "2"]);
    assert!(!out.status.success(), "help accepted --jobs");
}

#[test]
fn zero_counts_are_usage_errors() {
    for (flag, message) in [
        ("--jobs", "--jobs needs at least one worker"),
        ("--seeds", "--seeds needs at least one seed"),
    ] {
        let out = mapwave(&["seeds", "--scale", "0.002", flag, "0"]);
        assert_eq!(out.status.code(), Some(1), "{flag} 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(message),
            "{flag} 0: unexpected stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag} 0 panicked: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} 0 ran before failing");
    }
}

#[test]
fn trace_is_written_by_a_command_without_a_job_graph() {
    let path = std::env::temp_dir().join(format!("mapwave-cli-args-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let out = mapwave(&[
        "design",
        "WC",
        "--scale",
        "0.002",
        "--trace",
        path.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("design-flow products for WC"));
    let trace = std::fs::read_to_string(&path).expect("design wrote its trace");
    let _ = std::fs::remove_file(&path);
    assert!(
        trace.contains("\"traceEvents\""),
        "not a Chrome trace: {trace}"
    );
    assert!(
        trace.contains("core.design [WC]"),
        "no design span: {trace}"
    );
}
