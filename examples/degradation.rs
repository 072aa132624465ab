//! Graceful-degradation study: survivability curves under injected faults.
//!
//! ```sh
//! cargo run --release --example degradation [scale] [fault_seed]
//! cargo run --release --example degradation -- --smoke
//! ```
//!
//! Replays Word Count and Kmeans under a rising deterministic fault rate —
//! wireless-link bit errors, core slow-downs and failures, task aborts —
//! on the NVFI mesh baseline and on the VFI WiNoC design (whose VFI layer
//! re-runs bottleneck reassignment against the degraded utilization
//! profile before the measured run). Prints the EDP saving that survives
//! each rate, the time penalty paid, and the observed fault activity.
//!
//! `--smoke` runs a seconds-scale single-app sweep on the small platform —
//! the configuration CI exercises.

use mapwave::prelude::*;
use mapwave::survivability::{fault_sweep, FaultSweepConfig};
use mapwave_repro::cli;

const USAGE: &str = "cargo run --release --example degradation [scale] [fault_seed] | -- --smoke";

fn main() -> Result<(), String> {
    let smoke = cli::positional(1).as_deref() == Some("--smoke");
    cli::forbid_governor_flags(USAGE)?;

    let (cfg, sweep) = if smoke {
        cli::expect_no_args_past(1, USAGE)?;
        (
            PlatformConfig::small().with_scale(0.002),
            FaultSweepConfig::smoke(),
        )
    } else {
        let scale: f64 = cli::parsed_arg_or(1, 0.02, "scale", USAGE)?;
        let mut sweep = FaultSweepConfig::paper_defaults();
        sweep.fault_seed = cli::parsed_arg_or(2, sweep.fault_seed, "fault seed", USAGE)?;
        cli::expect_no_args_past(2, USAGE)?;
        (PlatformConfig::paper().with_scale(scale), sweep)
    };

    eprintln!(
        "sweeping {} app(s) x {} fault rates (seed {:#x})...",
        sweep.apps.len(),
        sweep.rates.len(),
        sweep.fault_seed
    );
    let flow = DesignFlow::new(cfg)?;
    let report = fault_sweep(&flow, &sweep);
    print!("{}", report.render());

    if let Some(worst) = report
        .points
        .iter()
        .filter(|p| p.rate > 0.0)
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
    {
        println!(
            "\nat the highest rate ({}), the VFI design still saves {:.1}% EDP \
             over the equally-faulted baseline.",
            worst.rate,
            worst.edp_saving * 100.0
        );
    }
    Ok(())
}
