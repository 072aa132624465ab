//! `mapwave` honours or rejects every option it is given: `--trace` writes
//! a trace on every command, and `--jobs` is a usage error on the commands
//! that build no job graph, instead of being accepted and ignored.

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
