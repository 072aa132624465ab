//! `mapwave-sweep` — persistent design-space sweeps over the mapwave
//! evaluation.
//!
//! ```text
//! mapwave-sweep run    --store DIR [--preset small|paper] [--scales S,..]
//!                      [--apps A,..] [--variants V,..] [--rates R,..]
//!                      [--workload-seeds N,..] [--fault-seed N]
//!                      [--caps W,..] [--epoch-cycles N] [--dram ideal|banked]
//!                      [--jobs J] [--limit N]
//! mapwave-sweep resume --store DIR [--jobs J] [--limit N]
//! mapwave-sweep status --store DIR
//! mapwave-sweep query  --store DIR [--metric M] [--app A] [--variant V]
//! mapwave-sweep help
//! ```
//!
//! `run` starts (or continues) the sweep described by the flags; every
//! completed cell is checkpointed before the next commits, so a killed run
//! loses at most the in-flight cells. `resume` re-reads the spec the store
//! was created with — no sweep flags needed, or allowed. `query` answers
//! purely from stored artifacts (`--metric` is one of `edp`, `energy`,
//! `time`, `latency`, `edp-saving`, `governed-edp`). `--caps` adds a
//! power-governed cell per listed chip cap (W) next to every ungoverned
//! anchor, `--epoch-cycles` sets the governor's sampling epoch, and
//! `--dram banked` routes L2 misses through the banked memory-controller
//! model. A flag the command does not take is a usage error (exit 2),
//! raised before any store is opened.

use mapwave_sweep::prelude::*;
use mapwave_sweep::spec::{parse_app, parse_variant};

struct Args {
    command: String,
    store: Option<String>,
    preset: Preset,
    scales: Vec<f64>,
    workload_seeds: Vec<u64>,
    apps: Vec<mapwave_phoenix::apps::App>,
    variants: Vec<mapwave::orchestrator::RunVariant>,
    rates: Vec<f64>,
    fault_seed: u64,
    power_caps: Vec<f64>,
    epoch_cycles: u64,
    dram_banked: bool,
    jobs: usize,
    limit: Option<usize>,
    metric: String,
    filter_app: Option<String>,
    filter_variant: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let smoke = SweepSpec::smoke();
    let mut args = Args {
        command: String::from("help"),
        store: None,
        preset: smoke.preset,
        scales: smoke.scales,
        workload_seeds: smoke.workload_seeds,
        apps: smoke.apps,
        variants: smoke.variants,
        rates: smoke.fault_rates,
        fault_seed: smoke.fault_seed,
        power_caps: smoke.power_caps,
        epoch_cycles: smoke.epoch_cycles,
        dram_banked: smoke.dram_banked,
        jobs: mapwave_harness::jobs::available_parallelism(),
        limit: None,
        metric: String::from("edp"),
        filter_app: None,
        filter_variant: None,
    };
    let mut it = std::env::args().skip(1);
    if let Some(c) = it.next() {
        args.command = c;
    }
    if !COMMANDS.contains(&args.command.as_str()) {
        return Err(format!("unknown command '{}' (try 'help')", args.command));
    }
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => args.store = Some(value("--store", &mut it)?),
            "--preset" => {
                let raw = value("--preset", &mut it)?;
                args.preset = Preset::parse(&raw).ok_or(format!("unknown preset '{raw}'"))?;
            }
            "--scales" => {
                args.scales = parse_f64_list(&value("--scales", &mut it)?, "scale")?;
                if args.scales.iter().any(|&s| !(s.is_finite() && s > 0.0)) {
                    return Err("--scales wants finite scales > 0".into());
                }
            }
            "--rates" => {
                args.rates = parse_f64_list(&value("--rates", &mut it)?, "rate")?;
                if !args.rates.iter().all(|r| (0.0..=1.0).contains(r)) {
                    return Err("--rates wants fault rates in [0, 1]".into());
                }
            }
            "--workload-seeds" => {
                args.workload_seeds =
                    parse_u64_list(&value("--workload-seeds", &mut it)?, "workload seed")?
            }
            "--apps" => {
                args.apps = value("--apps", &mut it)?
                    .split(',')
                    .map(|t| parse_app(t).ok_or(format!("unknown app '{t}'")))
                    .collect::<Result<_, _>>()?
            }
            "--variants" => {
                args.variants = value("--variants", &mut it)?
                    .split(',')
                    .map(|t| parse_variant(t).ok_or(format!("unknown variant '{t}'")))
                    .collect::<Result<_, _>>()?
            }
            "--fault-seed" => args.fault_seed = parse_num(&value("--fault-seed", &mut it)?)?,
            "--caps" => {
                args.power_caps = parse_f64_list(&value("--caps", &mut it)?, "power cap")?;
                if args.power_caps.iter().any(|&c| !(c.is_finite() && c > 0.0)) {
                    return Err("--caps wants watts > 0".into());
                }
            }
            "--epoch-cycles" => {
                args.epoch_cycles = parse_num(&value("--epoch-cycles", &mut it)?)?;
                if args.epoch_cycles < 1000 {
                    return Err("--epoch-cycles needs at least 1000 cycles".into());
                }
            }
            "--dram" => {
                args.dram_banked = match value("--dram", &mut it)?.as_str() {
                    "ideal" => false,
                    "banked" => true,
                    other => {
                        return Err(format!("--dram wants 'ideal' or 'banked', got '{other}'"))
                    }
                }
            }
            "--jobs" => {
                args.jobs = parse_num(&value("--jobs", &mut it)?)?;
                if args.jobs == 0 {
                    return Err("--jobs needs at least one worker".into());
                }
            }
            "--limit" => args.limit = Some(parse_num(&value("--limit", &mut it)?)?),
            "--metric" => args.metric = value("--metric", &mut it)?,
            "--app" => args.filter_app = Some(value("--app", &mut it)?),
            "--variant" => args.filter_variant = Some(value("--variant", &mut it)?),
            other => return Err(format!("unknown argument '{other}'")),
        }
        if !takes(&args.command, &arg) {
            return Err(format!("{arg} does not apply to '{}'", args.command));
        }
    }
    Ok(args)
}

const COMMANDS: [&str; 7] = ["run", "resume", "status", "query", "help", "--help", "-h"];

/// Whether `command` takes the known flag `flag`. The sweep-defining
/// flags belong to `run` alone: `resume` reads the spec from the store.
fn takes(command: &str, flag: &str) -> bool {
    match flag {
        "--store" => matches!(command, "run" | "resume" | "status" | "query"),
        "--jobs" | "--limit" => matches!(command, "run" | "resume"),
        "--metric" | "--app" | "--variant" => command == "query",
        _ => command == "run",
    }
}

fn parse_num<T: std::str::FromStr>(raw: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse().map_err(|e| format!("bad value '{raw}': {e}"))
}

fn parse_f64_list(raw: &str, what: &str) -> Result<Vec<f64>, String> {
    raw.split(',')
        .map(|t| t.parse().map_err(|e| format!("bad {what} '{t}': {e}")))
        .collect()
}

fn parse_u64_list(raw: &str, what: &str) -> Result<Vec<u64>, String> {
    raw.split(',')
        .map(|t| t.parse().map_err(|e| format!("bad {what} '{t}': {e}")))
        .collect()
}

fn engine_options(args: &Args) -> EngineOptions {
    EngineOptions {
        jobs: args.jobs,
        commit_limit: args.limit,
    }
}

fn store_dir(args: &Args) -> Result<&str, String> {
    args.store
        .as_deref()
        .ok_or_else(|| "--store DIR is required".into())
}

fn print_summary(summary: &RunSummary) {
    println!(
        "sweep: {} completed, {} dead-lettered, {} pending",
        summary.completed, summary.dead_lettered, summary.pending
    );
}

fn run(args: &Args) -> Result<(), String> {
    match args.command.as_str() {
        "run" => {
            let spec = SweepSpec {
                preset: args.preset,
                scales: args.scales.clone(),
                workload_seeds: args.workload_seeds.clone(),
                apps: args.apps.clone(),
                variants: args.variants.clone(),
                fault_rates: args.rates.clone(),
                fault_seed: args.fault_seed,
                power_caps: args.power_caps.clone(),
                epoch_cycles: args.epoch_cycles,
                dram_banked: args.dram_banked,
            };
            let engine = SweepEngine::create(store_dir(args)?, spec, engine_options(args))
                .map_err(|e| e.to_string())?;
            print_summary(&engine.run().map_err(|e| e.to_string())?);
            Ok(())
        }
        "resume" => {
            let engine = SweepEngine::resume(store_dir(args)?, engine_options(args))
                .map_err(|e| e.to_string())?;
            print_summary(&engine.run().map_err(|e| e.to_string())?);
            Ok(())
        }
        "status" => {
            let store = ArtifactStore::open(store_dir(args)?).map_err(|e| e.to_string())?;
            print!("{}", render_status(&store).map_err(|e| e.to_string())?);
            Ok(())
        }
        "query" => {
            let store = ArtifactStore::open(store_dir(args)?).map_err(|e| e.to_string())?;
            let filter = QueryFilter {
                app: args.filter_app.clone(),
                variant: args.filter_variant.clone(),
            };
            print!(
                "{}",
                run_query(&store, &filter, &args.metric).map_err(|e| e.to_string())?
            );
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print!("{}", HELP);
            Ok(())
        }
        other => unreachable!("parse_args rejects command '{other}'"),
    }
}

const HELP: &str = "\
mapwave-sweep — persistent design-space sweeps over the mapwave evaluation

  mapwave-sweep run    --store DIR [--preset small|paper] [--scales S,..]
                       [--apps A,..] [--variants V,..] [--rates R,..]
                       [--workload-seeds N,..] [--fault-seed N]
                       [--caps W,..] [--epoch-cycles N] [--dram ideal|banked]
                       [--jobs J] [--limit N]
  mapwave-sweep resume --store DIR [--jobs J] [--limit N]
  mapwave-sweep status --store DIR
  mapwave-sweep query  --store DIR [--metric M] [--app A] [--variant V]

metrics: edp, energy, time, latency, edp-saving, governed-edp
apps:    MM, KMEANS, PCA, HIST, WC, LR
variants: nvfi, vfi1-mesh, vfi-mesh, winoc-min-hop, winoc-max-wireless
";

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mapwave-sweep: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("mapwave-sweep: {e}");
        std::process::exit(1);
    }
}
