//! Executions/sec micro-bench of the Phoenix runtime model itself.
//!
//! Times full [`Executor::run`] replays of each of the six applications at
//! input scale 0.1 on a 64-core platform with heterogeneous speeds and
//! VFI-capped stealing (the cap bookkeeping is on the measured path, as in
//! a full design-flow run), and reports the median wall-clock time per
//! execution. Workload generation happens once, outside the timed region.
//!
//! Prints one line per app; set `MAPWAVE_BENCH_JSON=<path>` to also write
//! the results as JSON (used to record `BENCH_phoenix_run.json`).

use mapwave_phoenix::apps::App;
use mapwave_phoenix::runtime::{Executor, RuntimeConfig};
use mapwave_phoenix::stealing::StealPolicy;
use std::time::Instant;

const CORES: usize = 64;
const SCALE: f64 = 0.1;

fn speeds() -> Vec<f64> {
    (0..CORES).map(|c| [1.0, 0.8, 0.6, 0.9][c % 4]).collect()
}

/// Median seconds per call of `f`. One untimed call warms caches and sizes
/// the sample count so each app spends about a second.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let timed = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    let first = timed(&mut f).max(1e-9);
    let samples = ((1.0 / first).ceil() as usize).clamp(5, 4_000);
    let mut times: Vec<f64> = (0..samples).map(|_| timed(&mut f)).collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[samples / 2]
}

fn main() {
    let exec = Executor::new(
        RuntimeConfig::nvfi(CORES)
            .with_speeds(speeds())
            .with_steal_policy(StealPolicy::VfiCapped),
    );
    let mut results: Vec<(String, f64)> = Vec::new();
    for app in App::ALL {
        let w = app.workload(SCALE, 42, CORES);
        let secs = median_secs(|| {
            std::hint::black_box(exec.run(std::hint::black_box(&w)));
        });
        let name = format!("phoenix_run_{}/scale_{SCALE}", app.name()).to_lowercase();
        println!("{name:<30} {:>9.1} µs", secs * 1e6);
        results.push((name, secs));
    }
    let total: f64 = results.iter().map(|(_, s)| s).sum();
    println!("{:<30} {:>9.1} µs", "all six apps", total * 1e6);

    if let Ok(path) = std::env::var("MAPWAVE_BENCH_JSON") {
        let entries: Vec<String> = results
            .iter()
            .map(|(k, s)| format!("    \"{k}\": {{ \"us\": {:.2} }}", s * 1e6))
            .collect();
        let json = format!(
            concat!(
                "{{\n",
                "  \"benchmark\": \"phoenix_run (crates/bench/benches/phoenix_run.rs)\",\n",
                "  \"unit\": \"median wall-clock microseconds per Executor::run\",\n",
                "  \"scenarios\": {{\n{}\n  }},\n",
                "  \"all_six_us\": {:.2}\n",
                "}}\n"
            ),
            entries.join(",\n"),
            total * 1e6
        );
        std::fs::write(&path, json).expect("write bench json");
        println!("wrote {path}");
    }
}
