//! Design-space exploration beyond the paper's chosen point.
//!
//! ```sh
//! cargo run --release --example design_space [scale] [app]
//! ```
//!
//! Sweeps the WiNoC's architectural knobs for one application and prints
//! the full-system consequences:
//! * the (⟨k_intra⟩, ⟨k_inter⟩) degree split (the paper fixes (3,1));
//! * the wireless placement methodology (min-hop vs max-wireless);
//! * the V/F-selection headroom (how aggressively islands are slowed).

use mapwave::prelude::*;
use mapwave_phoenix::apps::App;
use mapwave_repro::cli;

const USAGE: &str = "cargo run --release --example design_space [scale] [app] [--cores N]";

fn parse_app(name: &str) -> Option<App> {
    App::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
}

fn main() -> Result<(), String> {
    let scale: f64 = cli::parsed_arg_or(1, 0.02, "scale", USAGE)?;
    let app = cli::arg_or(2, App::WordCount, "app name", USAGE, parse_app)?;
    let cores = cli::cores(64, USAGE)?;
    cli::forbid_governor_flags(USAGE)?;
    cli::expect_no_args_past(2, USAGE)?;

    println!("== design space for {app} at scale {scale} on {cores} cores ==\n");

    // Baselines shared by every variant.
    let side = cli::die_side(cores);
    let base_cfg = PlatformConfig::paper()
        .with_dims(side, side)
        .with_scale(scale);
    base_cfg
        .validate()
        .map_err(|e| format!("--cores {cores}: {e}"))?;
    let flow = DesignFlow::new(base_cfg.clone())?;
    let design = flow.design(app);
    let nvfi = run_system(&flow.nvfi_spec(), &design.workload, &base_cfg, flow.power());
    println!(
        "NVFI mesh baseline: T = {:.3e} s, EDP = {:.3e} J*s\n",
        nvfi.exec_seconds, nvfi.edp
    );

    // --- Degree split x placement strategy ---
    println!(
        "{:<10} {:<18} {:>10} {:>10} {:>10} {:>10}",
        "(ki,ke)", "placement", "T/T0", "EDP/EDP0", "net lat", "WL share"
    );
    println!("{}", "-".repeat(74));
    for (ki, ke) in [(3.0, 1.0), (2.0, 2.0)] {
        for strategy in [
            PlacementStrategy::MinHopCount,
            PlacementStrategy::MaxWirelessUtilization,
        ] {
            let cfg = base_cfg.clone().with_degrees(ki, ke);
            let flow = DesignFlow::new(cfg.clone())?;
            let spec = flow.winoc_spec(&design, strategy);
            let r = run_system(&spec, &design.workload, &cfg, flow.power());
            println!(
                "({ki:.0},{ke:.0})      {:<18} {:>10.3} {:>10.3} {:>10.1} {:>10.3}",
                strategy.to_string(),
                r.exec_seconds / nvfi.exec_seconds,
                r.edp / nvfi.edp,
                r.net.avg_latency(),
                r.net.wireless_utilization()
            );
        }
    }

    // --- Headroom sweep: how hard to push the islands down ---
    println!(
        "\n{:<10} {:>24} {:>10} {:>10}",
        "headroom", "V/F per cluster", "T/T0", "EDP/EDP0"
    );
    println!("{}", "-".repeat(58));
    for headroom in [0.95, 0.80, 0.65, 0.50] {
        let mut cfg = base_cfg.clone();
        cfg.headroom = headroom;
        let flow = DesignFlow::new(cfg.clone())?;
        let d = flow.design(app);
        let spec = flow.vfi_mesh_spec(&d, VfStage::Vfi2);
        let r = run_system(&spec, &d.workload, &cfg, flow.power());
        let levels: Vec<String> = (0..4)
            .map(|j| format!("{:.2}", d.vfi2.vf_of(j).freq_ghz))
            .collect();
        println!(
            "{headroom:<10.2} {:>24} {:>10.3} {:>10.3}",
            levels.join("/"),
            r.exec_seconds / nvfi.exec_seconds,
            r.edp / nvfi.edp
        );
    }

    Ok(())
}
