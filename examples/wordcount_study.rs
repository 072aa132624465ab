//! The paper's Section 4.3 case study: Word Count task stealing on a VFI
//! platform.
//!
//! ```sh
//! cargo run --release --example wordcount_study
//! ```
//!
//! Reproduces the case study's observations:
//! 1. the 100 map tasks have overlapping duration ranges between the fast
//!    (f1) and slow (f2) frequency classes, so slow cores sometimes finish
//!    before fast ones and steal work they shouldn't;
//! 2. the Eq. (3) cap `N_f = ⌊N/C · f/f_max⌋` bounds the tasks a slow core
//!    may take;
//! 3. the modified policy shifts work to the fast cores.

use mapwave_phoenix::apps::{word_count, App};
use mapwave_phoenix::runtime::{Executor, RuntimeConfig};
use mapwave_phoenix::stealing::{task_cap, StealPolicy};

const USAGE: &str = "cargo run --release --example wordcount_study [scale]";

fn main() -> Result<(), String> {
    let scale: f64 = mapwave_repro::cli::parsed_arg_or(1, 0.05, "scale", USAGE)?;
    mapwave_repro::cli::forbid_governor_flags(USAGE)?;
    mapwave_repro::cli::expect_no_args_past(1, USAGE)?;
    let cores = 64;

    println!(
        "== Word Count at scale {scale}: {} map tasks ==\n",
        word_count::MAP_TASKS
    );
    let run = word_count::run(scale, 0xDAC_2015, cores);
    println!(
        "corpus: {} words, {} distinct; top word #{} x{}",
        run.total_words, run.distinct_words, run.top_word.0, run.top_word.1
    );

    // --- Observation 1: task-duration ranges per frequency class ---
    // Half the cores at f1 = 2.5 GHz, half at f2 = 2.0 GHz (the paper's WC
    // configuration: two clusters per V/F value).
    let speeds: Vec<f64> = (0..cores).map(|c| if c < 32 { 1.0 } else { 0.8 }).collect();
    let durations = |speed: f64| -> (f64, f64, f64) {
        let tasks = &run.workload.iterations[0].map_tasks;
        let ref_ghz = 2.5e9;
        let times: Vec<f64> = tasks.iter().map(|t| (t.cycles / speed) / ref_ghz).collect();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        let avg = times.iter().sum::<f64>() / times.len() as f64;
        (min, max, avg)
    };
    let (min1, max1, avg1) = durations(1.0);
    let (min2, max2, avg2) = durations(0.8);
    println!("\ninitial map-task durations (compute only):");
    println!(
        "  cores at f1=2.5GHz: {:.3}ms to {:.3}ms (average {:.3}ms)",
        min1 * 1e3,
        max1 * 1e3,
        avg1 * 1e3
    );
    println!(
        "  cores at f2=2.0GHz: {:.3}ms to {:.3}ms (average {:.3}ms)",
        min2 * 1e3,
        max2 * 1e3,
        avg2 * 1e3
    );
    println!(
        "  ranges overlap: {}",
        if max1 > min2 {
            "yes — slow cores can finish before fast ones"
        } else {
            "no"
        }
    );

    // --- Observation 2: the Eq. (3) caps ---
    println!(
        "\nEq. (3) caps for N={} tasks, C={cores} cores:",
        word_count::MAP_TASKS
    );
    for (f, ratio) in [(2.5f64, 1.0f64), (2.25, 0.9), (2.0, 0.8), (1.5, 0.6)] {
        let cap = task_cap(word_count::MAP_TASKS, cores, ratio);
        let cap_str = if cap == usize::MAX {
            "unbounded".into()
        } else {
            cap.to_string()
        };
        println!("  f = {f:.2} GHz  ->  N_f = {cap_str}");
    }

    // --- Observation 3: default vs capped stealing ---
    println!("\nexecuting with both policies (32 cores at 0.8x speed):");
    for policy in [StealPolicy::Default, StealPolicy::VfiCapped] {
        let report = Executor::new(
            RuntimeConfig::nvfi(cores)
                .with_speeds(speeds.clone())
                .with_steal_policy(policy),
        )
        .run(&run.workload);
        let slow_tasks: u32 = report.tasks_per_core[32..].iter().sum();
        let fast_tasks: u32 = report.tasks_per_core[..32].iter().sum();
        println!(
            "  {policy:?}: total {:.3e} ref-cycles, map {:.3e}, steals {}, \
             tasks fast/slow = {fast_tasks}/{slow_tasks}",
            report.total_cycles(),
            report.phases.map,
            report.steals,
        );
    }

    // Cross-check against the full design flow's choice.
    let _ = App::WordCount;
    println!("\n(The design flow picks whichever policy executes faster; see `diagnose`.)");
    Ok(())
}
