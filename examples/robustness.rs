//! Seed-robustness sweep: do the paper's shapes survive different inputs?
//!
//! ```sh
//! cargo run --release --example robustness [scale] [seeds]
//! ```
//!
//! Re-runs the whole evaluation with several workload-generation seeds via
//! [`mapwave::experiments::headline_across_seeds`] and reports the mean and
//! spread of the headline metrics — reproduction claims should not hinge
//! on one lucky corpus.

use mapwave::experiments::headline_across_seeds;
use mapwave::prelude::*;
use mapwave_repro::cli;

const USAGE: &str = "cargo run --release --example robustness [scale] [seeds]";

fn main() -> Result<(), String> {
    let scale: f64 = cli::parsed_arg_or(1, 0.02, "scale", USAGE)?;
    let seeds: usize = cli::parsed_arg_or(2, 3, "seed count", USAGE)?;
    cli::forbid_governor_flags(USAGE)?;
    cli::expect_no_args_past(2, USAGE)?;

    eprintln!("running {seeds} seeds at scale {scale}...");
    let cfg = PlatformConfig::paper().with_scale(scale);
    let stats = headline_across_seeds(&cfg, seeds)?;

    for (i, h) in stats.samples.iter().enumerate() {
        println!(
            "seed {i}: avg saving {:>5.1}%  max saving {:>5.1}% ({})  worst penalty {:>+6.2}%",
            h.avg_edp_saving * 100.0,
            h.max_edp_saving * 100.0,
            h.best_app.name(),
            h.max_time_penalty * 100.0
        );
    }
    println!("\nacross {seeds} seeds at scale {scale}:");
    println!(
        "  average EDP saving : {:.1}% ± {:.1}",
        stats.avg_saving_mean * 100.0,
        stats.avg_saving_std * 100.0
    );
    println!(
        "  worst time penalty : {:+.2}% ± {:.2}",
        stats.penalty_mean * 100.0,
        stats.penalty_std * 100.0
    );
    println!("  (paper: 33.7% avg saving, +3.22% worst penalty)");
    Ok(())
}
