//! The four benchmark workloads: set-up, timed region, output checks, and
//! the traced run's layer rows. README.md records why each exists.

use crate::ledger::Ledger;
use mapwave::config::PlatformConfig;
use mapwave::design_flow::{Design, DesignFlow};
use mapwave::experiments::ExperimentContext;
use mapwave::orchestrator::{self, RunVariant};
use mapwave::placement::{
    anneal_wi_placement, center_wis, initial_mapping, refine_mapping_max_wireless,
    refine_mapping_min_hop, WINOC_HUB_EDGE_WEIGHT,
};
use mapwave::SystemSpec;
use mapwave_harness::hash::StableHasher;
use mapwave_harness::telemetry::{self, TelemetrySummary};
use mapwave_noc::node::grid_positions;
use mapwave_noc::topology::small_world::SmallWorldBuilder;
use mapwave_noc::{NodeId, RoutingTable};
use mapwave_phoenix::apps::App;
use mapwave_sweep::prelude::*;
use mapwave_vfi::clustering::{Clustering, ClusteringProblem};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Chip power cap of the sweep's governed cells, W. On the paper platform
/// at scale 0.02 it throttles most cells and leaves every cell feasible;
/// 40 W throttled 6 of 24 cells, 10 W made half of them infeasible.
const SWEEP_CAP_W: f64 = 20.0;

/// Worker threads of the sweep engine; the benchmark is sized for a
/// 2-core host.
const SWEEP_JOBS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The reference evaluation at scale 0.1.
    ReportPaper,
    /// The same evaluation at the paper's Table-1 input sizes.
    ReportFullscale,
    /// The design flow and every spec on the 256-core die.
    DesignLarge,
    /// A faulted, power-capped sweep through the persistent engine.
    SweepFaulted,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ReportPaper,
        Workload::ReportFullscale,
        Workload::DesignLarge,
        Workload::SweepFaulted,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReportPaper => "report_paper",
            Workload::ReportFullscale => "report_fullscale",
            Workload::DesignLarge => "design_large",
            Workload::SweepFaulted => "sweep_faulted",
        }
    }

    /// Parses [`Workload::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Everything before the timed region: configuration, validation,
    /// `DesignFlow::new` and the sweep's fresh store.
    pub fn prepare(self, tiny: bool, seed: u64, tmp: &Path) -> Result<Prepared, String> {
        let state = match self {
            Workload::ReportPaper | Workload::ReportFullscale => {
                let cfg = match (self, tiny) {
                    (Workload::ReportPaper, false) => PlatformConfig::paper().with_scale(0.1),
                    (_, false) => PlatformConfig::paper().with_scale(1.0),
                    (_, true) => PlatformConfig::small().with_scale(0.002),
                };
                DesignFlow::new(cfg.clone())?;
                State::Report { cfg, ctx: None }
            }
            Workload::DesignLarge => {
                let cfg = if tiny {
                    PlatformConfig::small().with_scale(0.002)
                } else {
                    PlatformConfig::large().with_scale(0.02)
                };
                // The seed only rotates the order the six independent
                // designs are issued in; results are collected by app.
                let mut apps = App::ALL.to_vec();
                let turn = (seed % apps.len() as u64) as usize;
                apps.rotate_left(turn);
                State::Design {
                    flow: DesignFlow::new(cfg)?,
                    apps,
                    designs: Vec::new(),
                }
            }
            Workload::SweepFaulted => {
                let spec = sweep_spec(tiny);
                if let Some(cell) = spec.cells().first() {
                    DesignFlow::new(cell.config())?;
                }
                let root = tmp.join(format!("sweep-{seed}-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&root);
                let opts = EngineOptions {
                    jobs: SWEEP_JOBS,
                    ..EngineOptions::default()
                };
                let engine = SweepEngine::create(&root, spec, opts).map_err(|e| e.to_string())?;
                let mut metrics: Vec<Metric> = Metric::ALL.to_vec();
                let turn = (seed % metrics.len() as u64) as usize;
                metrics.rotate_left(turn);
                State::Sweep {
                    engine,
                    root,
                    metrics,
                    summary: None,
                    tables: Vec::new(),
                }
            }
        };
        let stale: u64 = orchestrator::cache_stats()
            .iter()
            .map(|(_, s)| s.hits + s.misses)
            .sum();
        if stale != 0 {
            return Err("stage caches are not empty at the start of the repetition".into());
        }
        Ok(Prepared {
            tiny,
            state,
            designs: Vec::new(),
        })
    }
}

/// The sweep grid: six apps × {nvfi, winoc-max-wireless} × fault rates
/// {0, 0.1} × {uncapped, capped}, banked DRAM (48 cells).
fn sweep_spec(tiny: bool) -> SweepSpec {
    let (preset, scale, apps) = if tiny {
        (Preset::Small, 0.002, vec![App::WordCount])
    } else {
        (Preset::Paper, 0.02, App::ALL.to_vec())
    };
    SweepSpec {
        preset,
        scales: vec![scale],
        apps,
        variants: vec![RunVariant::Nvfi, RunVariant::WinocMaxWireless],
        fault_rates: vec![0.0, 0.1],
        power_caps: vec![SWEEP_CAP_W],
        dram_banked: true,
        ..SweepSpec::smoke()
    }
}

enum State {
    Report {
        cfg: PlatformConfig,
        ctx: Option<Box<(ExperimentContext, String)>>,
    },
    Design {
        flow: DesignFlow,
        apps: Vec<App>,
        designs: Vec<(Design, Vec<SystemSpec>)>,
    },
    Sweep {
        engine: SweepEngine,
        root: PathBuf,
        metrics: Vec<Metric>,
        summary: Option<Result<RunSummary, String>>,
        tables: Vec<(Metric, Result<String, String>)>,
    },
}

/// A workload ready to run, and afterwards its product.
pub struct Prepared {
    tiny: bool,
    state: State,
    /// The configuration and six designs behind the model metrics and the
    /// isolated rows, filled in by [`Prepared::check`].
    designs: Vec<(PlatformConfig, Design)>,
}

/// What one repetition measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (reports, app designs, sweep cells and queries).
    pub attempted: u64,
    /// One line per failed operation or failed check.
    pub failures: Vec<String>,
    /// Output digests, compared by `run.py` against the committed ones.
    pub digests: BTreeMap<String, String>,
    /// Deterministic model observables.
    pub fidelity: BTreeMap<String, f64>,
    /// Per-layer rows of a traced repetition.
    pub layers: BTreeMap<String, f64>,
}

fn digest(h: &StableHasher) -> String {
    h.finish().to_hex()
}

impl Prepared {
    /// The timed region.
    pub fn run(&mut self) {
        match &mut self.state {
            State::Report { cfg, ctx } => {
                let context = {
                    let _s = telemetry::span("bench.context");
                    ExperimentContext::new(cfg.clone()).expect("configuration validated in set-up")
                };
                let text = {
                    let _s = telemetry::span("bench.full_report");
                    mapwave::report::full_report(&context)
                };
                *ctx = Some(Box::new((context, text)));
            }
            State::Design {
                flow,
                apps,
                designs,
            } => {
                for &app in apps.iter() {
                    let design = flow.design(app);
                    let specs = RunVariant::ALL
                        .iter()
                        .map(|v| {
                            let _s = telemetry::span("bench.spec");
                            v.spec(flow, &design)
                        })
                        .collect();
                    designs.push((design, specs));
                }
            }
            State::Sweep {
                engine,
                metrics,
                summary,
                tables,
                ..
            } => {
                *summary = Some(engine.run().map_err(|e| e.to_string()));
                for &metric in metrics.iter() {
                    let _s = telemetry::span("bench.query");
                    let table = run_query(engine.store(), &QueryFilter::default(), metric.name())
                        .map_err(|e| e.to_string());
                    tables.push((metric, table));
                }
            }
        }
    }

    /// Checks the product and derives the model metrics (untimed).
    pub fn check(&mut self) -> Outcome {
        let mut out = Outcome::default();
        match &self.state {
            State::Report { ctx, .. } => {
                let (ctx, text) = &**ctx.as_ref().expect("timed region ran");
                out.attempted = 1;
                let mut h = StableHasher::new();
                h.write(text.as_bytes());
                out.digests.insert("full_report".into(), digest(&h));
                let headline = ctx.headline();
                out.fidelity
                    .insert("edp_saving_avg_pct".into(), headline.avg_edp_saving * 100.0);
                out.fidelity
                    .insert("edp_saving_max_pct".into(), headline.max_edp_saving * 100.0);
                out.fidelity.insert(
                    "time_penalty_max_pct".into(),
                    headline.max_time_penalty * 100.0,
                );
                let mut savings = Vec::new();
                for app in App::ALL {
                    let r = ctx.runs(app);
                    for v in [
                        &r.vfi1_mesh,
                        &r.vfi_mesh,
                        &r.winoc_min_hop,
                        &r.winoc_max_wireless,
                    ] {
                        savings.push((1.0 - v.edp / r.nvfi.edp) * 100.0);
                    }
                }
                out.fidelity
                    .insert("sweep_edp_saving_mean_pct".into(), mean(&savings));
                let cfg = ctx.flow().config().clone();
                self.designs = App::ALL
                    .iter()
                    .map(|&app| (cfg.clone(), ctx.design(app).clone()))
                    .collect();
                let specs: Vec<Vec<SystemSpec>> = App::ALL
                    .iter()
                    .map(|&app| winoc_specs(ctx.flow(), ctx.design(app)))
                    .collect();
                self.design_metrics(&mut out, &specs);
            }
            State::Design { flow, designs, .. } => {
                let mut by_app: Vec<&(Design, Vec<SystemSpec>)> = designs.iter().collect();
                by_app.sort_by_key(|(d, _)| App::ALL.iter().position(|&a| a == d.app));
                out.attempted = by_app.len() as u64;
                for (design, specs) in &by_app {
                    out.digests.insert(
                        format!("design/{}", design.app.name()),
                        design_digest(design, specs),
                    );
                }
                let cfg = flow.config().clone();
                self.designs = by_app
                    .iter()
                    .map(|(d, _)| (cfg.clone(), d.clone()))
                    .collect();
                let specs: Vec<Vec<SystemSpec>> = by_app
                    .iter()
                    .map(|(_, specs)| specs[3..].to_vec())
                    .collect();
                self.design_metrics(&mut out, &specs);
            }
            State::Sweep {
                engine,
                summary,
                tables,
                ..
            } => {
                let cells = engine.spec().cell_count() as u64;
                out.attempted = cells + tables.len() as u64;
                match summary.as_ref().expect("timed region ran") {
                    Ok(s) => {
                        for _ in 0..s.dead_lettered + s.pending {
                            out.failures
                                .push("sweep cell dead-lettered or not run".into());
                        }
                    }
                    Err(e) => out.failures.push(format!("sweep run failed: {e}")),
                }
                for (metric, table) in tables {
                    match table {
                        Ok(text) => {
                            let mut h = StableHasher::new();
                            h.write(text.as_bytes());
                            out.digests
                                .insert(format!("query/{}", metric.name()), digest(&h));
                        }
                        Err(e) => out.failures.push(format!("query {}: {e}", metric.name())),
                    }
                }
                match load_records(engine.store()) {
                    Ok(records) => {
                        for r in &records {
                            if r.governed.as_ref().is_some_and(|g| !g.cap_respected) {
                                out.failures
                                    .push(format!("{}: power cap violated", r.label));
                            }
                        }
                        out.fidelity.insert(
                            "sweep_edp_saving_mean_pct".into(),
                            sweep_saving_mean(&records),
                        );
                    }
                    Err(e) => out.failures.push(format!("reading records: {e}")),
                }
                // The same six designs the engine produced (stage-cache
                // hits, after the timed region).
                let mut specs = Vec::new();
                for app in engine.spec().apps.clone() {
                    let cell = engine
                        .spec()
                        .cells()
                        .into_iter()
                        .find(|c| c.app == app)
                        .expect("every app has cells");
                    let flow = DesignFlow::new(cell.config()).expect("validated in set-up");
                    let design = orchestrator::design_cached(&flow, app);
                    specs.push(winoc_specs(&flow, &design));
                    self.designs.push((flow.config().clone(), design));
                }
                self.design_metrics(&mut out, &specs);
            }
        }
        out
    }

    /// `cluster_objective` and `winoc_weighted_hops` over the six designs
    /// and their WiNoC specs.
    fn design_metrics(&self, out: &mut Outcome, winoc: &[Vec<SystemSpec>]) {
        let mut objective = 0.0;
        let mut hops = 0.0;
        for ((cfg, design), specs) in self.designs.iter().zip(winoc) {
            objective += clustering_problem(cfg, design).evaluate(design.clustering.as_slice());
            for spec in specs {
                let physical = spec.mapping.traffic_to_tiles(&design.profile.traffic);
                let n = cfg.cores();
                for a in 0..n {
                    for b in 0..n {
                        let rate = physical.rate(NodeId(a), NodeId(b));
                        if rate > 0.0 {
                            hops += rate * f64::from(spec.routing.distance(NodeId(a), NodeId(b)));
                        }
                    }
                }
            }
        }
        out.fidelity.insert("cluster_objective".into(), objective);
        out.fidelity.insert("winoc_weighted_hops".into(), hops);
    }

    /// Removes the sweep's temporary store.
    pub fn discard(&mut self) {
        if let State::Sweep { root, .. } = &self.state {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Mean EDP saving (%) of every non-baseline cell over the `nvfi` cell at
/// the same coordinates, as `query --metric edp-saving` computes it.
fn sweep_saving_mean(records: &[CellRecord]) -> f64 {
    let savings: Vec<f64> = records
        .iter()
        .filter(|r| r.variant != "nvfi")
        .filter_map(|r| {
            let base = records.iter().find(|b| {
                b.variant == "nvfi"
                    && b.app == r.app
                    && b.fault_rate.to_bits() == r.fault_rate.to_bits()
            })?;
            Some((1.0 - r.edp / base.edp) * 100.0)
        })
        .collect();
    mean(&savings)
}

/// The Eq. (1) instance the design flow clusters.
fn clustering_problem(cfg: &PlatformConfig, design: &Design) -> ClusteringProblem {
    let n = cfg.cores();
    let traffic: Vec<Vec<f64>> = (0..n)
        .map(|s| {
            (0..n)
                .map(|d| design.profile.traffic.rate(NodeId(s), NodeId(d)))
                .collect()
        })
        .collect();
    ClusteringProblem::new(design.profile.utilization.clone(), traffic, cfg.clusters)
        .expect("a profile gives a well-formed instance")
}

fn winoc_specs(flow: &DesignFlow, design: &Design) -> Vec<SystemSpec> {
    [RunVariant::WinocMinHop, RunVariant::WinocMaxWireless]
        .iter()
        .map(|v| v.spec(flow, design))
        .collect()
}

/// The spec digest: clustering, V/F of both stages, and every spec's
/// mapping, overlay and V/F.
fn design_digest(design: &Design, specs: &[SystemSpec]) -> String {
    let mut h = StableHasher::new();
    let write_vf = |h: &mut StableHasher, vf: &[mapwave_vfi::vf::VfPair]| {
        for p in vf {
            h.write_u64(p.voltage_v.to_bits());
            h.write_u64(p.freq_ghz.to_bits());
        }
    };
    for &c in design.clustering.as_slice() {
        h.write_u64(c as u64);
    }
    write_vf(&mut h, design.vfi1.as_slice());
    write_vf(&mut h, design.vfi2.as_slice());
    for spec in specs {
        h.write(spec.label.as_bytes());
        for t in 0..spec.mapping.len() {
            h.write_u64(spec.mapping.tile_of(t).index() as u64);
        }
        for wi in spec.overlay.interfaces() {
            h.write_u64(wi.node.index() as u64);
            h.write_u64(wi.channel.index() as u64);
        }
        for &c in spec.clustering.as_slice() {
            h.write_u64(c as u64);
        }
        write_vf(&mut h, spec.vf.as_slice());
    }
    digest(&h)
}

fn secs<T>(row: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *row += t.elapsed().as_secs_f64();
    out
}

/// Fills the per-layer rows of a traced repetition from the telemetry
/// snapshot, then times the steps that have no span of their own.
pub fn attribute(
    out: &mut Outcome,
    summary: &TelemetrySummary,
    prepared: &Prepared,
) -> Result<(), String> {
    let ledger = Ledger::build(&summary.spans)?;
    let c = |name: &str| summary.counter(name) as f64;
    let calls = |name: &str| ledger.calls.get(name).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let jobs = if matches!(prepared.state, State::Sweep { .. }) {
        SWEEP_JOBS
    } else {
        1
    };
    // Two ledger rows count toward `trace.accounted_frac` but are not
    // reported: `trace.other_s` (spans the ledger does not know, 0 until
    // the program gains new ones) and `sweep.engine.self_s` (the
    // committer's wait, equal to `sweep.engine.run_s`).
    let mut l = BTreeMap::new();
    for (row, v) in &ledger.rows {
        if !matches!(*row, "trace.other_s" | "sweep.engine.self_s") {
            l.insert(row.to_string(), *v);
        }
    }
    let noc_s = ledger.rows["noc.sim.self_s"];
    let windows = calls("noc.sim.run");
    let memoized = c("core.windows_memoized");
    let rows: [(&str, f64); 34] = [
        ("noc.sim.windows", windows),
        ("noc.sim.cycles_simulated", c("noc.cycles_simulated")),
        (
            "noc.sim.cycles_fast_forwarded",
            c("noc.cycles_fast_forwarded"),
        ),
        (
            "noc.sim.cycles_steady_replayed",
            c("noc.cycles_steady_replayed"),
        ),
        ("noc.sim.flits_delivered", c("noc.flits_delivered")),
        (
            "noc.sim.cycles_per_s",
            ratio(c("noc.cycles_simulated"), noc_s),
        ),
        (
            "noc.sim.flits_per_s",
            ratio(c("noc.flits_delivered"), noc_s),
        ),
        ("core.system.calls", calls("core.run_system")),
        (
            "core.system.relaxation_rounds_saved",
            c("core.relaxation_rounds_saved"),
        ),
        ("core.system.windows_memoized", memoized),
        (
            "core.system.memo_hit_ratio",
            ratio(memoized, memoized + windows),
        ),
        ("phoenix.runtime.calls", calls("phoenix.exec")),
        (
            "phoenix.runtime.tasks_executed",
            c("phoenix.tasks_executed"),
        ),
        ("phoenix.runtime.tasks_stolen", c("phoenix.tasks_stolen")),
        (
            "vfi.clustering.swap_moves_evaluated",
            c("vfi.swap_moves_evaluated"),
        ),
        (
            "vfi.clustering.accept_ratio",
            ratio(c("vfi.swap_moves_accepted"), c("vfi.swap_moves_evaluated")),
        ),
        (
            "core.placement.sa_moves_evaluated",
            c("placement.sa_moves_evaluated"),
        ),
        ("manycore.dram.requests", c("dram.requests")),
        (
            "manycore.dram.row_hit_ratio",
            ratio(
                c("dram.row_hits"),
                c("dram.row_hits") + c("dram.row_misses"),
            ),
        ),
        ("manycore.dram.stall_cycles", c("dram.stall_cycles")),
        ("governor.epochs", c("governor.epochs")),
        ("governor.throttles", c("governor.throttles")),
        ("governor.cap_violations", c("governor.cap_violations")),
        ("faults.injected", c("fault.injected")),
        ("faults.task_retries", c("fault.task_retries")),
        ("faults.flit_corruptions", c("fault.flit_corruptions")),
        ("sweep.engine.run_s", ledger.pool_s),
        ("sweep.engine.cells_completed", c("sweep.cells_completed")),
        ("sweep.engine.cells_retried", c("sweep.cells_retried")),
        ("sweep.store.artifact_hits", c("sweep.artifact_hits")),
        (
            "harness.jobs.idle_frac",
            ratio(ledger.pool_idle_s(jobs), jobs as f64 * ledger.pool_s),
        ),
        (
            "harness.cache.hit_ratio",
            ratio(c("cache.hit"), c("cache.hit") + c("cache.miss")),
        ),
        ("trace.wall_s", ledger.wall_s),
        ("trace.accounted_frac", ledger.accounted_frac(jobs)),
    ];
    for (name, v) in rows {
        l.insert(name.to_string(), v);
    }

    let accounted = ledger.accounted_frac(jobs);
    if (accounted - 1.0).abs() > 0.05 {
        out.failures.push(format!(
            "layer rows account for {:.1}% of the traced wall clock",
            accounted * 100.0
        ));
    }
    // Each process starts with empty stage caches (checked in set-up).
    // Only the sweep reuses a stage inside one repetition: its cells share
    // their app's design.
    let is_sweep = jobs > 1;
    if !is_sweep && c("cache.hit") > 0.0 {
        out.failures
            .push("stage-cache hit in a timed region".into());
    }
    if is_sweep && !prepared.tiny {
        if c("governor.throttles") == 0.0 {
            out.failures.push("the power cap never throttled".into());
        }
        if c("governor.cap_violations") > 0.0 {
            out.failures.push("the power cap was infeasible".into());
        }
    }

    isolated_rows(prepared, &mut l, &mut out.failures);
    out.layers = l;
    Ok(())
}

/// Steps inside `DesignFlow::design` and `winoc_spec` that have no span:
/// each is re-run here on the repetition's own designs and timed alone.
/// These rows are kept out of the ledger sum (they are part of
/// `core.design_flow.self_s`), and each re-run is checked against the
/// product it re-derives.
fn isolated_rows(prepared: &Prepared, l: &mut BTreeMap<String, f64>, failures: &mut Vec<String>) {
    let (mut apps_s, mut cluster_s, mut anneal_s, mut refine_s, mut topo_s, mut route_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let spec_of = |app: App| match &prepared.state {
        State::Design { designs, .. } => designs
            .iter()
            .find(|(d, _)| d.app == app)
            .map(|(_, specs)| specs.clone()),
        _ => None,
    };
    for (cfg, design) in &prepared.designs {
        let workload = secs(&mut apps_s, || {
            design.app.workload(cfg.scale, cfg.seed, cfg.cores())
        });
        if workload != design.workload {
            failures.push(format!("{}: regenerated workload differs", design.app));
        }
        let problem = clustering_problem(cfg, design);
        let clustering = secs(&mut cluster_s, || problem.solve_multilevel());
        if clustering != design.clustering {
            failures.push(format!("{}: re-solved clustering differs", design.app));
        }

        // `DesignFlow::winoc_spec`, step by step.
        let quadrants = Clustering::grid_quadrants(cfg.cols, cfg.rows)
            .as_slice()
            .to_vec();
        let inter = design
            .profile
            .traffic
            .cluster_rates(design.clustering.as_slice(), cfg.clusters);
        let topology = secs(&mut topo_s, || {
            SmallWorldBuilder::new(grid_positions(cfg.cols, cfg.rows, cfg.tile_mm), quadrants)
                .k_intra(cfg.k_intra)
                .k_inter(cfg.k_inter)
                .alpha(cfg.alpha)
                .inter_traffic(inter)
                .seed(cfg.seed)
                .build()
                .expect("the design flow built this topology")
        });
        let traffic = &design.profile.traffic;
        let base = initial_mapping(&design.clustering, cfg.cols, cfg.rows);
        let channels = cfg.wi_channels();

        let hops = secs(&mut refine_s, || topology.hop_counts());
        let min_hop_mapping = secs(&mut refine_s, || {
            refine_mapping_min_hop(base.clone(), &design.clustering, traffic, |a, b| {
                hops[a.index()][b.index()] as f64
            })
        });
        let physical = min_hop_mapping.traffic_to_tiles(traffic);
        let min_hop_overlay = secs(&mut anneal_s, || {
            anneal_wi_placement(
                &topology,
                &physical,
                cfg.cols,
                cfg.rows,
                cfg.wis_per_cluster,
                channels,
                cfg.seed,
            )
        });

        let max_wl_overlay = center_wis(
            cfg.cols,
            cfg.rows,
            cfg.tile_mm,
            cfg.wis_per_cluster,
            channels,
        );
        let seeded = secs(&mut refine_s, || {
            refine_mapping_max_wireless(
                &base,
                &design.clustering,
                traffic,
                &max_wl_overlay,
                cfg.cols,
                cfg.rows,
            )
        });
        let mut route = |overlay| {
            secs(&mut route_s, || {
                RoutingTable::up_down_weighted(&topology, overlay, WINOC_HUB_EDGE_WEIGHT)
                    .expect("the design flow routed this WiNoC")
            })
        };
        let table = route(&max_wl_overlay);
        let max_wl_mapping = secs(&mut refine_s, || {
            refine_mapping_min_hop(seeded, &design.clustering, traffic, |a, b| {
                table.distance(a, b) as f64
            })
        });
        route(&min_hop_overlay);
        route(&max_wl_overlay);

        if let Some(specs) = spec_of(design.app) {
            let (min_hop, max_wl) = (&specs[3], &specs[4]);
            if min_hop.overlay != min_hop_overlay
                || min_hop.mapping != min_hop_mapping
                || max_wl.overlay != max_wl_overlay
                || max_wl.mapping != max_wl_mapping
                || (min_hop.topology != topology)
            {
                failures.push(format!("{}: step-by-step WiNoC spec differs", design.app));
            }
        }
    }
    for (name, v) in [
        ("phoenix.apps.self_s", apps_s),
        ("vfi.clustering.self_s", cluster_s),
        ("core.placement.anneal_s", anneal_s),
        ("core.placement.refine_s", refine_s),
        ("noc.topology.build_s", topo_s),
        ("noc.routing.build_s", route_s),
    ] {
        l.insert(name.to_string(), v);
    }
}
