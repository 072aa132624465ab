//! `mapwave-perfbench` — one repetition of one benchmark workload.
//!
//! ```text
//! mapwave-perfbench <WORKLOAD> [--tiny] [--trace] [--setup-only] [--seed N] [--tmp DIR]
//! ```
//!
//! Runs the workload's set-up, then its timed region, then checks and
//! prints one JSON object on stdout. `perfbench/run.py` spawns a fresh
//! process per repetition, so no stage cache or telemetry store survives
//! from one repetition into the next; see README.md for the workloads and
//! the metrics.

mod ledger;
mod workloads;

use mapwave_harness::telemetry;
use std::collections::BTreeMap;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use workloads::{Outcome, Workload};

struct Args {
    workload: Workload,
    tiny: bool,
    trace: bool,
    setup_only: bool,
    seed: u64,
    tmp: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let name = it
        .next()
        .ok_or("usage: mapwave-perfbench <WORKLOAD> [flags]")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?;
    let mut args = Args {
        workload,
        tiny: false,
        trace: false,
        setup_only: false,
        seed: 1,
        tmp: std::path::PathBuf::from(".perfbench_tmp"),
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tiny" => args.tiny = true,
            "--trace" => args.trace = true,
            "--setup-only" => args.setup_only = true,
            "--seed" => {
                let raw = it.next().ok_or("--seed needs a value")?;
                args.seed = raw.parse().map_err(|e| format!("bad seed '{raw}': {e}"))?;
            }
            "--tmp" => args.tmp = it.next().ok_or("--tmp needs a directory")?.into(),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// The process's resident-memory high-water mark in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest text that parses back to the same bits.
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn json_map<V>(map: &BTreeMap<String, V>, value: impl Fn(&V) -> String) -> String {
    let body: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mapwave-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let process_start = Instant::now();
    let mut prepared = match args.workload.prepare(args.tiny, args.seed, &args.tmp) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mapwave-perfbench: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    let setup_in_process_s = process_start.elapsed().as_secs_f64();
    let timed_start_unix = unix_now();
    if args.setup_only {
        prepared.discard();
        println!(
            "{{\"timed_start_unix\":{},\"setup_in_process_s\":{}}}",
            json_num(timed_start_unix),
            json_num(setup_in_process_s)
        );
        return;
    }

    if args.trace {
        telemetry::reset();
        telemetry::enable();
    }
    let t0 = Instant::now();
    {
        let _root = telemetry::span(ledger::ROOT);
        prepared.run();
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let summary = args.trace.then(|| {
        let s = telemetry::snapshot();
        telemetry::disable();
        s
    });

    let mut outcome: Outcome = prepared.check();
    if let Some(summary) = &summary {
        if let Err(e) = workloads::attribute(&mut outcome, summary, &prepared) {
            outcome.failures.push(format!("trace: {e}"));
        }
    }
    prepared.discard();

    let failures: Vec<String> = outcome.failures.iter().map(|f| json_str(f)).collect();
    println!(
        "{{\"workload\":{},\"tiny\":{},\"seed\":{},\"timed_start_unix\":{},\
         \"setup_in_process_s\":{},\"wall_s\":{},\"peak_rss_mb\":{},\"attempted\":{},\
         \"failures\":[{}],\"digests\":{},\"fidelity\":{},\"layers\":{}}}",
        json_str(args.workload.name()),
        args.tiny,
        args.seed,
        json_num(timed_start_unix),
        json_num(setup_in_process_s),
        json_num(wall_s),
        json_num(peak_rss_mb()),
        outcome.attempted,
        failures.join(","),
        json_map(&outcome.digests, |v| json_str(v)),
        json_map(&outcome.fidelity, |v| json_num(*v)),
        json_map(&outcome.layers, |v| json_num(*v)),
    );
}
