//! `mapwave` — command-line front end for the DAC'15 reproduction.
//!
//! ```text
//! mapwave report   [--scale S] [--seed N] [--jobs J] [--trace F]
//!                                               full evaluation (all tables/figures)
//! mapwave table1 | table2 | fig2 | fig4 | fig5 | fig6 | fig7 | fig8 | headline
//!                  [--scale S] [--seed N] [--jobs J] [--trace F]
//!                                               one artefact
//! mapwave seeds    [--scale S] [--seed N] [--seeds K] [--jobs J] [--trace F]
//!                                               headline statistics across K workload seeds
//! mapwave design   <APP> [--scale S] [--seed N] [--trace F]
//!                                               design-flow detail for one application
//! mapwave ablations [--scale S] [--seed N] [--trace F]
//!                                               one-knob ablations, headroom, degree split
//! mapwave timeline <APP> [--scale S] [--seed N] [--trace F]
//!                                               ASCII Gantt on the NVFI and VFI platforms
//! mapwave topology <APP> [--scale S] [--seed N] [--trace F]
//!                                               graph metrics of the mesh and the WiNoC
//! mapwave help                                  this text
//! ```
//!
//! `S` is the input scale relative to the paper's Table-1 dataset sizes
//! (default 0.02); `K` defaults to 3; `APP` is one of HIST, KMEANS, LR, MM,
//! PCA, WC. `--jobs` parallelises the evaluation over a worker pool with
//! byte-identical output; commands that build no job graph (`design`,
//! `ablations`, `timeline`, `topology`) reject it. `--trace` writes a
//! Chrome-trace JSON of every recorded stage to the given path, on every
//! command.

use mapwave::experiments::headline_across_seeds_with_jobs;
use mapwave::prelude::*;
use mapwave::report;
use mapwave_harness::telemetry;
use mapwave_noc::topology::metrics::summarize;
use mapwave_phoenix::apps::App;
use mapwave_phoenix::runtime::{Executor, RuntimeConfig};

struct Args {
    command: String,
    app: Option<App>,
    scale: f64,
    seed: u64,
    seeds: usize,
    /// `--jobs`, when given: commands without a job graph reject it.
    jobs: Option<usize>,
    trace: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut command = String::from("help");
    let mut app = None;
    let mut scale = 0.02;
    let mut seed = 0xDAC_2015u64;
    let mut seeds = 3usize;
    let mut jobs = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    if let Some(c) = it.next() {
        command = c;
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad scale: {e}"))?;
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--seeds" => {
                seeds = it
                    .next()
                    .ok_or("--seeds needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed count: {e}"))?;
                if seeds == 0 {
                    return Err("--seeds needs at least one seed".into());
                }
            }
            "--jobs" => {
                let j: usize = it
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("bad job count: {e}"))?;
                if j == 0 {
                    return Err("--jobs needs at least one worker".into());
                }
                jobs = Some(j);
            }
            "--trace" => {
                trace = Some(it.next().ok_or("--trace needs a file path")?);
            }
            other => {
                let found = App::ALL
                    .into_iter()
                    .find(|a| a.name().eq_ignore_ascii_case(other));
                match found {
                    Some(a) => app = Some(a),
                    None => return Err(format!("unknown argument '{other}'")),
                }
            }
        }
    }
    Ok(Args {
        command,
        app,
        scale,
        seed,
        seeds,
        jobs,
        trace,
    })
}

/// Prints the per-stage timing table to stderr (so stdout stays
/// byte-identical across `--jobs` values), then writes the Chrome trace if
/// requested.
fn finish_telemetry(trace: Option<&str>) -> Result<(), String> {
    let summary = telemetry::snapshot();
    eprintln!("{}", summary.text_summary());
    if let Some(path) = trace {
        std::fs::write(path, summary.chrome_trace_json())
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        eprintln!("trace written to {path} (load in chrome://tracing or Perfetto)");
    }
    Ok(())
}

const HELP: &str = "\
mapwave — energy-efficient MapReduce on a VFI + wireless-NoC multicore
(reproduction of Duraisamy et al., DAC 2015)

USAGE:
    mapwave <COMMAND> [APP] [--scale S] [--seed N]

COMMANDS:
    report      run the whole evaluation and print every table and figure
    design      print the design-flow products for one APP
    table1      applications and datasets
    table2      per-cluster V/F assignments (VFI 1 / VFI 2)
    fig2        sorted per-core utilization (NVFI platform)
    fig4        VFI 1 vs VFI 2 execution time and EDP
    fig5        average vs bottleneck-core utilization
    fig6        wireless placement methodology comparison
    fig7        normalized execution time per stage
    fig8        full-system EDP vs the NVFI mesh
    headline    the aggregate EDP-saving / time-penalty summary
    ablations   one-knob ablations (WC, KMEANS, HIST), HIST headroom frontier
                and WC/HIST degree split
    seeds       headline statistics across several workload seeds (--seeds N)
    timeline    ASCII Gantt of one APP on the NVFI and VFI platforms
    topology    graph metrics of the mesh and the designed WiNoC for APP
    help        this text

OPTIONS:
    --scale S   input scale vs the paper's Table-1 sizes (default 0.02)
    --seed  N   workload generation seed (default 0xDAC2015)
    --jobs  J   worker threads for the evaluation job graph (default 1;
                output is byte-identical for any J); report, the single
                artefacts and seeds only
    --trace F   write a Chrome-trace JSON of all recorded stages to F

APP is one of: HIST, KMEANS, LR, MM, PCA, WC.";

fn main() -> Result<(), String> {
    let args = parse_args()?;
    if matches!(args.command.as_str(), "help" | "--help" | "-h") {
        if args.jobs.is_some() || args.trace.is_some() {
            return Err("help takes no --jobs or --trace".into());
        }
        println!("{HELP}");
        return Ok(());
    }
    telemetry::enable();
    run(&args)?;
    finish_telemetry(args.trace.as_deref())
}

/// Runs one command, printing its artefact to stdout.
fn run(args: &Args) -> Result<(), String> {
    let jobs = args.jobs.unwrap_or(1);
    let cfg = PlatformConfig::paper()
        .with_scale(args.scale)
        .with_seed(args.seed);

    let command = args.command.as_str();
    let artefact = report::ARTEFACTS.iter().find(|(name, _)| *name == command);
    if command == "report" || artefact.is_some() {
        eprintln!(
            "designing & simulating all six applications at scale {} ({} worker{}) ...",
            args.scale,
            jobs,
            if jobs == 1 { "" } else { "s" }
        );
        let ctx = ExperimentContext::new_parallel(cfg, jobs)?;
        let out = match artefact {
            Some((_, render)) => render(&ctx),
            None => report::full_report(&ctx),
        };
        println!("{out}");
        return Ok(());
    }

    match command {
        "design" | "ablations" | "timeline" | "topology" if args.jobs.is_some() => Err(format!(
            "{} builds no job graph and takes no --jobs",
            args.command
        )),
        "design" => {
            let app = args
                .app
                .ok_or("design needs an APP (e.g. `mapwave design WC`)")?;
            let flow = DesignFlow::new(cfg)?;
            let d = flow.design(app);
            println!("== design-flow products for {app} ==");
            println!(
                "profile:   avg utilization {:.3}",
                d.profile.avg_utilization()
            );
            println!(
                "           phases (ref cycles): lib-init {:.3e}, map {:.3e}, reduce {:.3e}, merge {:.3e}",
                d.profile.phases.lib_init,
                d.profile.phases.map,
                d.profile.phases.reduce,
                d.profile.phases.merge
            );
            println!("clusters:  {:?}", d.clustering.as_slice());
            println!("VFI 1:     {}", d.vfi1);
            println!("VFI 2:     {}", d.vfi2);
            println!(
                "bottlenecks: {:?} (homogeneous rest: {}, cv {:.2})",
                d.analysis.bottleneck_cores, d.analysis.homogeneous, d.analysis.rest_cv
            );
            println!(
                "stealing:  VFI1 {:?}, VFI2 {:?}",
                d.steal(VfStage::Vfi1),
                d.steal(VfStage::Vfi2)
            );
            Ok(())
        }
        "seeds" => {
            let stats = headline_across_seeds_with_jobs(&cfg, args.seeds, jobs)?;
            print!("{}", report::seeds(&stats));
            Ok(())
        }
        "ablations" => {
            println!("{}", report::ablations(&DesignFlow::new(cfg)?));
            Ok(())
        }
        "timeline" => {
            let app = args.app.ok_or("timeline needs an APP")?;
            let flow = DesignFlow::new(cfg.clone())?;
            let d = flow.design(app);
            let speeds = d.vfi2.core_speeds(&d.clustering, &cfg.vf_table);
            let runs = [
                (
                    "NVFI platform".to_string(),
                    RuntimeConfig::nvfi(cfg.cores()),
                ),
                (
                    format!("VFI 2 islands ({})", d.vfi2),
                    RuntimeConfig::nvfi(cfg.cores())
                        .with_speeds(speeds)
                        .with_steal_policy(d.steal(VfStage::Vfi2)),
                ),
            ];
            println!("L lib-init | M map | R reduce | G merge | lower-case = stolen");
            for (label, runtime) in runs {
                let (run, timeline) = Executor::new(runtime).run_traced(&d.workload);
                println!("\n== {app} on the {label} ==\n");
                println!("{}", timeline.render(96));
                println!(
                    "makespan {:.3e} ref-cycles, {} steals",
                    run.total_cycles(),
                    run.steals
                );
            }
            Ok(())
        }
        "topology" => {
            let app = args.app.ok_or("topology needs an APP")?;
            let flow = DesignFlow::new(cfg.clone())?;
            let d = flow.design(app);
            let mesh_spec = flow.nvfi_spec();
            println!("mesh       : {}", summarize(&mesh_spec.topology));
            for strategy in [
                PlacementStrategy::MinHopCount,
                PlacementStrategy::MaxWirelessUtilization,
            ] {
                let spec = flow.winoc_spec(&d, strategy);
                println!(
                    "winoc {:<22}: {} ({} WIs)",
                    strategy.to_string(),
                    summarize(&spec.topology),
                    spec.overlay.len()
                );
            }
            Ok(())
        }
        other => Err(format!("unknown command '{other}'; try `mapwave help`")),
    }
}
