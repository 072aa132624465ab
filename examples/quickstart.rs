//! Quickstart: reproduce the paper's whole evaluation in one command.
//!
//! ```sh
//! cargo run --release --example quickstart            # 2% input scale
//! cargo run --release --example quickstart -- 0.25    # custom scale
//! ```
//!
//! Runs the Fig. 3 design flow for all six Phoenix++ applications on the
//! 64-core platform, simulates the NVFI mesh / VFI mesh / VFI WiNoC
//! configurations, and prints every table and figure of the paper.

use mapwave::prelude::*;
use mapwave::report;
use mapwave_repro::cli;

const USAGE: &str = "cargo run --release --example quickstart [scale]";

fn main() -> Result<(), String> {
    let scale: f64 = cli::parsed_arg_or(1, 0.02, "scale", USAGE)?;
    cli::forbid_governor_flags(USAGE)?;
    cli::expect_no_args_past(1, USAGE)?;

    eprintln!("designing all six applications at scale {scale} (64 cores)...");
    let cfg = PlatformConfig::paper().with_scale(scale);
    let ctx = ExperimentContext::new(cfg)?;
    println!("{}", report::full_report(&ctx));
    Ok(())
}
