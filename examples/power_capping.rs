//! Power-capping study: the online DVFS governor enforcing a chip budget.
//!
//! ```sh
//! cargo run --release --example power_capping [scale] [app] \
//!     [--power-cap W] [--epoch-cycles N] [--dram ideal|banked]
//! cargo run --release --example power_capping -- --smoke
//! ```
//!
//! Runs the VFI WiNoC design for one application, then replays the
//! measured execution under the epoch-sampling power governor. Without
//! `--power-cap` the cap defaults to 80% of the static design's peak
//! chip power — the acceptance configuration — so the governor must
//! throttle. Prints the epoch trace (levels, projected and measured
//! power), then the time/energy price of honouring the cap. With
//! `--dram banked` the underlying simulation routes L2 misses through
//! the banked memory-controller model instead of the fixed-latency
//! ideal.
//!
//! `--smoke` runs a seconds-scale capped *and faulted* WordCount on the
//! small platform and fails loudly if any epoch exceeds the cap — the
//! configuration CI exercises (twice, diffing the bytes for
//! determinism).

use mapwave::governed::{run_system_governed, run_system_governed_with_faults};
use mapwave::prelude::*;
use mapwave_faults::{FaultConfig, FaultPlan};
use mapwave_governor::GovernorConfig;
use mapwave_manycore::dram::DramConfig;
use mapwave_phoenix::apps::App;
use mapwave_repro::cli;

const USAGE: &str = "cargo run --release --example power_capping [scale] [app] \
     [--power-cap W] [--epoch-cycles N] [--dram ideal|banked] [--cores N] \
     | -- --smoke";

fn parse_app(name: &str) -> Option<App> {
    App::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
}

fn main() -> Result<(), String> {
    let smoke = cli::positional(1).as_deref() == Some("--smoke");
    let cap_flag = cli::power_cap(USAGE)?;
    let epoch = cli::epoch_cycles(GovernorConfig::DEFAULT_EPOCH_CYCLES, USAGE)?;
    let banked = cli::dram_banked(USAGE)?;

    let (mut cfg, app, faults) = if smoke {
        cli::expect_no_args_past(1, USAGE)?;
        let plan = FaultPlan::build(&FaultConfig::at_rate(0.05, 0xCA9));
        (
            PlatformConfig::small().with_scale(0.002),
            App::WordCount,
            Some(plan),
        )
    } else {
        let scale: f64 = cli::parsed_arg_or(1, 0.02, "scale", USAGE)?;
        let app = cli::arg_or(2, App::WordCount, "app name", USAGE, parse_app)?;
        let cores = cli::cores(64, USAGE)?;
        cli::expect_no_args_past(2, USAGE)?;
        let side = cli::die_side(cores);
        (
            PlatformConfig::paper()
                .with_dims(side, side)
                .with_scale(scale),
            app,
            None,
        )
    };
    if banked {
        cfg = cfg.with_dram(DramConfig::banked());
    }

    let flow = DesignFlow::new(cfg.clone())?;
    let design = flow.design(app);
    let spec = flow.vfi_mesh_spec(&design, VfStage::Vfi2);

    // An effectively uncapped probe measures the static peak the default
    // relative cap is set against.
    let probe_cfg = GovernorConfig::new(1e9).with_epoch_cycles(epoch);
    let probe = run_system_governed(&spec, &design.workload, &cfg, flow.power(), &probe_cfg);
    let cap_w = cap_flag.unwrap_or(0.8 * probe.static_peak_power_w);
    let gov = GovernorConfig::new(cap_w).with_epoch_cycles(epoch);

    println!(
        "== power capping: {} on {} cores, dram={}, cap {:.3} W (static peak {:.3} W) ==",
        app,
        cfg.cores(),
        if banked { "banked" } else { "ideal" },
        cap_w,
        probe.static_peak_power_w
    );

    let run = match &faults {
        None => run_system_governed(&spec, &design.workload, &cfg, flow.power(), &gov),
        Some(plan) => {
            run_system_governed_with_faults(&spec, &design.workload, &cfg, flow.power(), &gov, plan)
        }
    };

    println!("\nepoch  levels           projected W  measured W  actuation");
    for (k, e) in run.epochs.iter().enumerate() {
        let act = match (e.throttled, e.boosted) {
            (0, 0) => String::from("-"),
            (t, 0) => format!("throttle x{t}"),
            (0, b) => format!("boost x{b}"),
            (t, b) => format!("throttle x{t}, boost x{b}"),
        };
        println!(
            "{k:>5}  {:<15}  {:>11.3}  {:>10.3}  {act}{}",
            format!("{:?}", e.levels),
            e.projected_power_w,
            e.measured_power_w,
            if e.violated { "  [CAP INFEASIBLE]" } else { "" },
        );
    }

    println!(
        "\ncap respected: {}   peak measured: {:.3} W   epochs: {}   throttles: {}   boosts: {}",
        run.cap_respected(),
        run.peak_measured_power_w(),
        run.stats.epochs,
        run.stats.throttles,
        run.stats.boosts
    );
    if run.reassigned {
        println!("fault reaction: bottleneck reassignment changed the desired levels");
    }
    println!(
        "time: {:.6e} s -> {:.6e} s (x{:.4})   core energy: {:.6e} J -> {:.6e} J   EDP ratio: {:.4}",
        run.base.report.exec_seconds,
        run.governed_exec_seconds,
        run.slowdown(),
        run.base.report.core_energy_j,
        run.governed_core_energy_j,
        run.edp_ratio()
    );
    if faults.is_some() {
        println!("faults: injected events {}", run.base.faults.injected());
    }

    if smoke {
        if !run.cap_respected() || run.stats.cap_violations > 0 {
            return Err(format!(
                "smoke FAILED: measured peak {:.3} W exceeded cap {:.3} W",
                run.peak_measured_power_w(),
                cap_w
            ));
        }
        println!("smoke OK: every epoch honoured the cap under faults");
    }
    Ok(())
}
