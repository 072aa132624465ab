//! Diagnostic dump: per-application, per-configuration phase times, network
//! statistics and energy — the raw numbers behind every figure. Useful when
//! calibrating the models.
//!
//! ```sh
//! cargo run --release --example diagnose -- 0.02
//! ```

use mapwave::prelude::*;
use mapwave_phoenix::apps::App;
use mapwave_repro::cli;

const USAGE: &str = "cargo run --release --example diagnose -- [scale]";

fn main() -> Result<(), String> {
    let scale: f64 = cli::parsed_arg_or(1, 0.02, "scale", USAGE)?;
    cli::forbid_governor_flags(USAGE)?;
    cli::expect_no_args_past(1, USAGE)?;
    let cfg = PlatformConfig::paper().with_scale(scale);
    let flow = DesignFlow::new(cfg.clone())?;

    for app in App::ALL {
        let design = flow.design(app);
        println!("=== {app} ===");
        let p = &design.profile;
        println!(
            "  profile: total={:.3e} cyc  li={:.3e} map={:.3e} red={:.3e} mrg={:.3e}",
            p.phases.total(),
            p.phases.lib_init,
            p.phases.map,
            p.phases.reduce,
            p.phases.merge
        );
        println!(
            "  profile: avg_u={:.3} traffic={:.4} pkt/cyc steals={}",
            p.avg_utilization(),
            p.traffic.total_rate(),
            p.steals
        );
        println!(
            "  clusters: vfi1={} vfi2={} bottlenecks={:?} homog={} cv={:.2} ratio={:.2}",
            design.vfi1,
            design.vfi2,
            design.analysis.bottleneck_cores,
            design.analysis.homogeneous,
            design.analysis.rest_cv,
            design.analysis.peak_ratio
        );
        for (name, spec) in [
            ("NVFI-mesh", flow.nvfi_spec()),
            ("VFI2-mesh", flow.vfi_mesh_spec(&design, VfStage::Vfi2)),
            ("VFI2-WiNoC", flow.winoc_spec(&design, cfg.placement)),
        ] {
            let r = run_system(&spec, &design.workload, &cfg, flow.power());
            println!(
                "  {name:>10}: T={:.3e}s lat={:.1} inflight={} wl={:.3} Ecore={:.3e} Enet={:.3e} EDP={:.3e}",
                r.exec_seconds,
                r.net.avg_latency(),
                r.net.in_flight_at_end,
                r.net.wireless_utilization(),
                r.core_energy_j,
                r.net_energy_j,
                r.edp
            );
        }
    }
    Ok(())
}
