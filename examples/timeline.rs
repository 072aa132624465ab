//! ASCII Gantt view of a MapReduce execution — watch the Fig. 1 stages and
//! the VFI effects directly.
//!
//! ```sh
//! cargo run --release --example timeline [APP] [scale]
//! ```
//!
//! Prints the per-core schedule of one application on the NVFI platform and
//! on the designed VFI platform: the serial library-init stripe on core 0
//! (`L`), stealing filling the Map tail (lower-case letters), the halving
//! Merge tree (`G`), and — on the VFI run — slow-island cores holding their
//! spans longer.

use mapwave::prelude::*;
use mapwave_phoenix::apps::App;
use mapwave_phoenix::runtime::{Executor, RuntimeConfig};
use mapwave_repro::cli;

const USAGE: &str = "cargo run --release --example timeline [APP] [scale]";

fn main() -> Result<(), String> {
    let app = cli::arg_or(1, App::WordCount, "app name", USAGE, |name| {
        App::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
    })?;
    let scale: f64 = cli::parsed_arg_or(2, 0.01, "scale", USAGE)?;
    cli::forbid_governor_flags(USAGE)?;
    cli::expect_no_args_past(2, USAGE)?;
    let width = 100;

    let cfg = PlatformConfig::paper().with_scale(scale);
    let flow = DesignFlow::new(cfg.clone())?;
    let design = flow.design(app);
    let table = &cfg.vf_table;

    println!(
        "== {app} at scale {scale}: NVFI (all cores {}): ==",
        table.max()
    );
    println!("legend: L lib-init | M map | R reduce | G merge | lower-case = stolen task\n");
    let nvfi = Executor::new(RuntimeConfig::nvfi(cfg.cores()));
    let (report, timeline) = nvfi.run_traced(&design.workload);
    println!("{}", timeline.render(width));
    println!(
        "makespan {:.3e} ref-cycles, {} steals\n",
        report.total_cycles(),
        report.steals
    );

    println!("== {app}: VFI 2 islands ({}) ==\n", design.vfi2);
    let speeds = design.vfi2.core_speeds(&design.clustering, table);
    let vfi = Executor::new(
        RuntimeConfig::nvfi(cfg.cores())
            .with_speeds(speeds)
            .with_steal_policy(design.steal(VfStage::Vfi2)),
    );
    let (report, timeline) = vfi.run_traced(&design.workload);
    println!("{}", timeline.render(width));
    println!(
        "makespan {:.3e} ref-cycles, {} steals (policy {:?})",
        report.total_cycles(),
        report.steals,
        design.steal(VfStage::Vfi2)
    );
    Ok(())
}
