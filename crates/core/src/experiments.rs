//! Reproductions of every table and figure of the paper's evaluation.
//!
//! [`ExperimentContext::new`] runs the design flow and the four standard
//! platform configurations (NVFI mesh, VFI 1 mesh, VFI mesh, VFI WiNoC) for
//! all six applications once; each `figN`/`tableN` method then derives its
//! rows from those runs (Fig. 6 builds its extra placement/degree variants
//! on demand). Use [`crate::report`] to render the results as text tables.
//!
//! Evaluation work is dispatched as a [`mapwave_harness::jobs::JobGraph`]
//! of five jobs per application, and each distinct system is simulated
//! once:
//!
//! * the design job runs the Fig. 3 flow, whose NVFI-mesh profiling run
//!   *is* the `nvfi` baseline ([`AppRuns::nvfi`]), handed on as data;
//! * the `vfi1-mesh` and both WiNoC run jobs depend on the design job;
//! * the `vfi-mesh` job runs after the `vfi1-mesh` job: when the
//!   bottleneck reassignment changed nothing (equal VFI 1 and VFI 2
//!   assignments and steal policies) the two systems differ only in their
//!   label, so it relabels the VFI 1 report instead of simulating it again.
//!
//! [`ExperimentContext::new_parallel`] executes that graph on a worker
//! pool; because every job is deterministic and results are collected by
//! job id, the outputs are byte-identical to the single-threaded run (and
//! to the pre-harness serial loops).

use crate::ablations::{degree_split, DegreeComparison};
use crate::config::{PlacementStrategy, PlatformConfig};
use crate::design_flow::{Design, DesignFlow};
use crate::orchestrator::{vfi_mesh_run, RunVariant};
use crate::system::RunReport;
use mapwave_harness::jobs::JobGraph;
use mapwave_phoenix::apps::App;
use mapwave_phoenix::workload::PhaseBreakdown;
use mapwave_vfi::vf::VfPair;
use std::sync::Arc;

/// A job output: a design with its NVFI-mesh baseline run, or one system
/// run (see the module docs).
enum Artifact {
    Design(Box<(Design, RunReport)>),
    Run(Box<RunReport>),
}

impl Artifact {
    fn as_design(&self) -> &Design {
        match self {
            Artifact::Design(d) => &d.0,
            Artifact::Run(_) => unreachable!("job graph wiring returns a design here"),
        }
    }

    fn as_run(&self) -> &RunReport {
        match self {
            Artifact::Run(r) => r,
            Artifact::Design(_) => unreachable!("job graph wiring returns a run here"),
        }
    }

    fn into_run(self) -> RunReport {
        match self {
            Artifact::Run(r) => *r,
            Artifact::Design(_) => unreachable!("job graph wiring returns a run here"),
        }
    }

    fn into_design(self) -> (Design, RunReport) {
        match self {
            Artifact::Design(d) => *d,
            Artifact::Run(_) => unreachable!("job graph wiring returns a design here"),
        }
    }
}

/// Adds one application's jobs to `graph`: the design job (which also
/// yields the `nvfi` run), then the `vfi1-mesh`, `vfi-mesh` and two WiNoC
/// run jobs. The `vfi-mesh` job also depends on the `vfi1-mesh` job,
/// whose report it reuses when the two systems coincide.
fn add_app_jobs(graph: &mut JobGraph<Artifact>, flow: &Arc<DesignFlow>, app: App) {
    let design_flow = Arc::clone(flow);
    let design_id = graph.add(format!("design/{}", app.name()), vec![], move |_| {
        Artifact::Design(Box::new(design_flow.design_with_baseline(app)))
    });
    let label = |variant: RunVariant| format!("run/{}/{}", app.name(), variant.name());
    let add_run = |graph: &mut JobGraph<Artifact>, variant: RunVariant| {
        let run_flow = Arc::clone(flow);
        graph.add(label(variant), vec![design_id], move |deps| {
            let design = deps[0].as_design();
            Artifact::Run(Box::new(variant.run(&run_flow, design)))
        })
    };
    let vfi1_id = add_run(graph, RunVariant::Vfi1Mesh);
    let vfi_flow = Arc::clone(flow);
    graph.add(
        label(RunVariant::VfiMesh),
        vec![design_id, vfi1_id],
        move |deps| {
            let (design, vfi1_mesh) = (deps[0].as_design(), deps[1].as_run());
            Artifact::Run(Box::new(vfi_mesh_run(&vfi_flow, design, vfi1_mesh)))
        },
    );
    add_run(graph, RunVariant::WinocMinHop);
    add_run(graph, RunVariant::WinocMaxWireless);
}

/// Collects one application's artifacts from a finished graph.
///
/// The drain consumes results in ascending id order, so callers must
/// process apps in the order their jobs were added.
fn collect_app(results: &mut std::vec::IntoIter<Artifact>) -> (Design, AppRuns) {
    let (design, nvfi) = results.next().expect("design job ran").into_design();
    let app = design.app;
    let mut next_run = || results.next().expect("run job ran").into_run();
    let app_runs = AppRuns {
        app,
        nvfi,
        vfi1_mesh: next_run(),
        vfi_mesh: next_run(),
        winoc_min_hop: next_run(),
        winoc_max_wireless: next_run(),
    };
    (design, app_runs)
}

/// The standard runs of one application.
#[derive(Debug, Clone)]
pub struct AppRuns {
    /// The application.
    pub app: App,
    /// Non-VFI mesh baseline.
    pub nvfi: RunReport,
    /// Initial-assignment VFI mesh (VFI 1).
    pub vfi1_mesh: RunReport,
    /// Final VFI mesh (VFI 2 + steal modification).
    pub vfi_mesh: RunReport,
    /// VFI WiNoC with the minimised-hop-count methodology.
    pub winoc_min_hop: RunReport,
    /// VFI WiNoC with the maximised-wireless-utilisation methodology.
    pub winoc_max_wireless: RunReport,
}

impl AppRuns {
    /// The VFI WiNoC run with the chosen placement methodology — the paper
    /// "choose\[s\] between the minimized hop-count and maximized wireless
    /// utilization ... depending on their achievable performances"
    /// (Section 6), so the flow keeps whichever achieves the lower
    /// full-system EDP.
    pub fn vfi_winoc(&self) -> &RunReport {
        if self.winoc_max_wireless.edp <= self.winoc_min_hop.edp {
            &self.winoc_max_wireless
        } else {
            &self.winoc_min_hop
        }
    }

    /// The placement methodology the flow chose for this application.
    pub fn chosen_strategy(&self) -> PlacementStrategy {
        if self.winoc_max_wireless.edp <= self.winoc_min_hop.edp {
            PlacementStrategy::MaxWirelessUtilization
        } else {
            PlacementStrategy::MinHopCount
        }
    }
}

/// Precomputed designs and runs backing all experiments.
#[derive(Debug)]
pub struct ExperimentContext {
    flow: DesignFlow,
    entries: Vec<(Design, AppRuns)>,
}

impl ExperimentContext {
    /// Designs and runs all six applications under `cfg`, single-threaded.
    ///
    /// Equivalent to [`ExperimentContext::new_parallel`] with one job —
    /// the job graph executes in insertion order, exactly like the
    /// original serial loops.
    ///
    /// # Errors
    ///
    /// Returns the validation message if `cfg` is inconsistent.
    pub fn new(cfg: PlatformConfig) -> Result<Self, String> {
        Self::new_parallel(cfg, 1)
    }

    /// Designs and runs all six applications under `cfg` on a pool of
    /// `jobs` worker threads.
    ///
    /// The result is byte-identical to [`ExperimentContext::new`] for any
    /// `jobs`: every job is deterministic and outputs are merged in a
    /// fixed order, independent of completion order.
    ///
    /// # Errors
    ///
    /// Returns the validation message if `cfg` is inconsistent.
    pub fn new_parallel(cfg: PlatformConfig, jobs: usize) -> Result<Self, String> {
        let flow = Arc::new(DesignFlow::new(cfg)?);
        let mut graph: JobGraph<Artifact> = JobGraph::new();
        for app in App::ALL {
            add_app_jobs(&mut graph, &flow, app);
        }
        let mut results = graph.run(jobs).into_iter();
        let entries = App::ALL.iter().map(|_| collect_app(&mut results)).collect();
        let flow = Arc::try_unwrap(flow).unwrap_or_else(|arc| (*arc).clone());
        Ok(ExperimentContext { flow, entries })
    }

    /// The design-flow driver in use.
    pub fn flow(&self) -> &DesignFlow {
        &self.flow
    }

    /// The design for `app`.
    ///
    /// # Panics
    ///
    /// Panics if `app` is unknown (never happens for [`App::ALL`]).
    pub fn design(&self, app: App) -> &Design {
        &self
            .entries
            .iter()
            .find(|(d, _)| d.app == app)
            .expect("all apps designed")
            .0
    }

    /// The standard runs for `app`.
    ///
    /// # Panics
    ///
    /// Panics if `app` is unknown.
    pub fn runs(&self, app: App) -> &AppRuns {
        &self
            .entries
            .iter()
            .find(|(d, _)| d.app == app)
            .expect("all apps run")
            .1
    }
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// A row of Table 1: application and dataset.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// The application.
    pub app: App,
    /// The paper's dataset description.
    pub input: &'static str,
    /// Map tasks generated for this input.
    pub map_tasks: usize,
    /// Total modelled compute in giga-cycles at the configured scale.
    pub compute_gcycles: f64,
}

impl ExperimentContext {
    /// Table 1: applications analysed and datasets used, with the measured
    /// task counts and compute volume of the generated inputs.
    pub fn table1(&self) -> Vec<Table1Row> {
        App::ALL
            .iter()
            .map(|&app| {
                let d = self.design(app);
                Table1Row {
                    app,
                    input: app.input_description(),
                    map_tasks: d.workload.total_map_tasks(),
                    compute_gcycles: d.workload.total_compute_cycles() / 1e9,
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Fig. 2
// ---------------------------------------------------------------------------

/// One application's Fig. 2 bar series.
#[derive(Debug, Clone)]
pub struct Fig2Series {
    /// The application.
    pub app: App,
    /// Per-core utilization, sorted highest to lowest (the bar layout).
    pub sorted_utilization: Vec<f64>,
    /// The dotted-arrow average of the figure.
    pub average: f64,
}

impl ExperimentContext {
    /// Fig. 2: sorted per-core utilization on the NVFI platform for Kmeans,
    /// PCA, MM and HIST.
    pub fn fig2(&self) -> Vec<Fig2Series> {
        [App::Kmeans, App::Pca, App::MatrixMult, App::Histogram]
            .iter()
            .map(|&app| {
                let profile = &self.design(app).profile;
                Fig2Series {
                    app,
                    sorted_utilization: profile.sorted_utilization(),
                    average: profile.avg_utilization(),
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

/// A row of Table 2: per-cluster V/F for both VFI stages.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The application.
    pub app: App,
    /// VFI 1 operating points, cluster order.
    pub vfi1: Vec<VfPair>,
    /// VFI 2 operating points, cluster order.
    pub vfi2: Vec<VfPair>,
    /// Whether the bottleneck reassignment changed anything.
    pub reassigned: bool,
}

impl ExperimentContext {
    /// Table 2: V/F assignments for all applications in both VFI
    /// configurations.
    pub fn table2(&self) -> Vec<Table2Row> {
        App::ALL
            .iter()
            .map(|&app| {
                let d = self.design(app);
                let vfi1: Vec<VfPair> = d.vfi1.as_slice().to_vec();
                let vfi2: Vec<VfPair> = d.vfi2.as_slice().to_vec();
                let reassigned = vfi1
                    .iter()
                    .zip(&vfi2)
                    .any(|(a, b)| (a.freq_ghz - b.freq_ghz).abs() > 1e-9);
                Table2Row {
                    app,
                    vfi1,
                    vfi2,
                    reassigned,
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Fig. 4 / Fig. 5
// ---------------------------------------------------------------------------

/// A row of Fig. 4: VFI 1 vs VFI 2, normalised to the NVFI mesh.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// The application.
    pub app: App,
    /// VFI 1 execution time / NVFI mesh execution time.
    pub vfi1_time: f64,
    /// VFI 2 execution time / NVFI mesh execution time.
    pub vfi2_time: f64,
    /// VFI 1 EDP / NVFI mesh EDP.
    pub vfi1_edp: f64,
    /// VFI 2 EDP / NVFI mesh EDP.
    pub vfi2_edp: f64,
}

/// A row of Fig. 5: average vs bottleneck-core utilization.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// The application.
    pub app: App,
    /// Mean utilization over all cores.
    pub average_utilization: f64,
    /// Mean utilization of the bottleneck cores.
    pub bottleneck_utilization: f64,
}

impl ExperimentContext {
    /// Fig. 4: execution time and EDP of the VFI 1 and VFI 2 mesh systems
    /// for PCA, HIST and MM, normalised to the NVFI mesh.
    pub fn fig4(&self) -> Vec<Fig4Row> {
        [App::Pca, App::Histogram, App::MatrixMult]
            .iter()
            .map(|&app| {
                let r = self.runs(app);
                Fig4Row {
                    app,
                    vfi1_time: r.vfi1_mesh.exec_seconds / r.nvfi.exec_seconds,
                    vfi2_time: r.vfi_mesh.exec_seconds / r.nvfi.exec_seconds,
                    vfi1_edp: r.vfi1_mesh.edp / r.nvfi.edp,
                    vfi2_edp: r.vfi_mesh.edp / r.nvfi.edp,
                }
            })
            .collect()
    }

    /// Fig. 5: average vs bottleneck core utilization for PCA, HIST, MM.
    pub fn fig5(&self) -> Vec<Fig5Row> {
        [App::Pca, App::Histogram, App::MatrixMult]
            .iter()
            .map(|&app| {
                let a = &self.design(app).analysis;
                Fig5Row {
                    app,
                    average_utilization: a.mean_utilization,
                    bottleneck_utilization: a.bottleneck_utilization,
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Fig. 6
// ---------------------------------------------------------------------------

/// A row of Fig. 6: the network-EDP ratio of the two WI placement
/// methodologies.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// The application.
    pub app: App,
    /// Network EDP of max-wireless-utilisation placement relative to
    /// min-hop-count placement (< 1 means max-wireless wins).
    pub relative_network_edp: f64,
    /// Wireless flit share under the max-wireless strategy.
    pub wireless_share_max: f64,
    /// Wireless flit share under the min-hop strategy.
    pub wireless_share_min: f64,
}

impl ExperimentContext {
    /// Fig. 6: EDP of the maximised-wireless-utilisation placement relative
    /// to the minimised-hop-count placement, per application.
    pub fn fig6(&self) -> Vec<Fig6Row> {
        App::ALL
            .iter()
            .map(|&app| {
                let r = self.runs(app);
                let (min_hop, max_wl) = (&r.winoc_min_hop, &r.winoc_max_wireless);
                Fig6Row {
                    app,
                    relative_network_edp: max_wl.network_edp() / min_hop.network_edp(),
                    wireless_share_max: max_wl.net.wireless_utilization(),
                    wireless_share_min: min_hop.net.wireless_utilization(),
                }
            })
            .collect()
    }

    /// Section 7.2's degree sweep: (⟨k_intra⟩, ⟨k_inter⟩) = (3,1) vs (2,2)
    /// network EDP for one application.
    pub fn fig6_degrees(&self, app: App) -> DegreeComparison {
        degree_split(&self.flow, self.design(app))
    }
}

// ---------------------------------------------------------------------------
// Fig. 7 / Fig. 8 / headline
// ---------------------------------------------------------------------------

/// A row of Fig. 7: phase-wise execution time normalised to the NVFI mesh.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// The application.
    pub app: App,
    /// VFI mesh phase times / NVFI mesh total time.
    pub vfi_mesh: PhaseBreakdown,
    /// VFI WiNoC phase times / NVFI mesh total time.
    pub vfi_winoc: PhaseBreakdown,
}

impl Fig7Row {
    /// Total normalised execution time of the VFI mesh.
    pub fn mesh_total(&self) -> f64 {
        self.vfi_mesh.total()
    }

    /// Total normalised execution time of the VFI WiNoC.
    pub fn winoc_total(&self) -> f64 {
        self.vfi_winoc.total()
    }
}

/// A row of Fig. 8: full-system EDP normalised to the NVFI mesh.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// The application.
    pub app: App,
    /// VFI mesh EDP / NVFI mesh EDP.
    pub vfi_mesh_edp: f64,
    /// VFI WiNoC EDP / NVFI mesh EDP.
    pub vfi_winoc_edp: f64,
}

/// The paper's headline numbers (Section 7.3 summary).
#[derive(Debug, Clone)]
pub struct Headline {
    /// Mean EDP saving of VFI WiNoC over NVFI mesh (paper: 33.7%).
    pub avg_edp_saving: f64,
    /// Maximum EDP saving (paper: 66.2%, Kmeans).
    pub max_edp_saving: f64,
    /// The application achieving the maximum saving.
    pub best_app: App,
    /// Maximum execution-time penalty of VFI WiNoC (paper: 3.22%).
    pub max_time_penalty: f64,
}

impl ExperimentContext {
    /// Fig. 7: normalised execution time of each execution stage for the
    /// VFI mesh and the VFI WiNoC, relative to the NVFI mesh.
    pub fn fig7(&self) -> Vec<Fig7Row> {
        [
            App::Histogram,
            App::LinearRegression,
            App::WordCount,
            App::Pca,
            App::Kmeans,
            App::MatrixMult,
        ]
        .iter()
        .map(|&app| {
            let r = self.runs(app);
            let base = r.nvfi.exec.phases.total();
            Fig7Row {
                app,
                vfi_mesh: r.vfi_mesh.exec.phases.scaled(1.0 / base),
                vfi_winoc: r.vfi_winoc().exec.phases.scaled(1.0 / base),
            }
        })
        .collect()
    }

    /// Fig. 8: full-system EDP of the VFI mesh and VFI WiNoC, relative to
    /// the NVFI mesh.
    pub fn fig8(&self) -> Vec<Fig8Row> {
        [
            App::MatrixMult,
            App::WordCount,
            App::Pca,
            App::LinearRegression,
            App::Histogram,
            App::Kmeans,
        ]
        .iter()
        .map(|&app| {
            let r = self.runs(app);
            Fig8Row {
                app,
                vfi_mesh_edp: r.vfi_mesh.edp / r.nvfi.edp,
                vfi_winoc_edp: r.vfi_winoc().edp / r.nvfi.edp,
            }
        })
        .collect()
    }

    /// The headline aggregate of Fig. 7/8: average and maximum EDP saving
    /// of the VFI WiNoC over the NVFI mesh, and its worst execution-time
    /// penalty.
    pub fn headline(&self) -> Headline {
        let fig8 = self.fig8();
        let savings: Vec<(App, f64)> = fig8
            .iter()
            .map(|r| (r.app, 1.0 - r.vfi_winoc_edp))
            .collect();
        let avg = savings.iter().map(|&(_, s)| s).sum::<f64>() / savings.len() as f64;
        let &(best_app, max) = savings
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("savings are finite"))
            .expect("six applications");
        let max_penalty = App::ALL
            .iter()
            .map(|&app| {
                let r = self.runs(app);
                r.vfi_winoc().exec_seconds / r.nvfi.exec_seconds - 1.0
            })
            .fold(f64::NEG_INFINITY, f64::max);
        Headline {
            avg_edp_saving: avg,
            max_edp_saving: max,
            best_app,
            max_time_penalty: max_penalty,
        }
    }
}

/// Headline statistics across several workload seeds.
#[derive(Debug, Clone)]
pub struct HeadlineStats {
    /// The per-seed headlines.
    pub samples: Vec<Headline>,
    /// Mean average-EDP-saving.
    pub avg_saving_mean: f64,
    /// Standard deviation of the average saving.
    pub avg_saving_std: f64,
    /// Mean worst time penalty.
    pub penalty_mean: f64,
    /// Standard deviation of the worst time penalty.
    pub penalty_std: f64,
}

/// Runs the whole evaluation for `seeds` different workload seeds derived
/// from `cfg.seed` and aggregates the headline metrics — reproduction
/// claims should not hinge on one lucky corpus. The whole sweep — every
/// seed's designs and runs — is flattened into one job graph executed on
/// `jobs` workers; output is byte-identical for any worker count.
///
/// # Errors
///
/// Returns the validation message if `cfg` is inconsistent.
///
/// # Panics
///
/// Panics if `seeds == 0`.
pub fn headline_across_seeds_with_jobs(
    cfg: &PlatformConfig,
    seeds: usize,
    jobs: usize,
) -> Result<HeadlineStats, String> {
    assert!(seeds > 0, "need at least one seed");
    // Validate every per-seed configuration up front so errors surface
    // before any work is scheduled.
    let flows: Vec<Arc<DesignFlow>> = (0..seeds)
        .map(|i| {
            let seed = cfg.seed.wrapping_add(i as u64 * 7919);
            DesignFlow::new(cfg.clone().with_seed(seed)).map(Arc::new)
        })
        .collect::<Result<_, String>>()?;

    let mut graph: JobGraph<Artifact> = JobGraph::new();
    for flow in &flows {
        for app in App::ALL {
            add_app_jobs(&mut graph, flow, app);
        }
    }
    let mut results = graph.run(jobs).into_iter();
    let mut samples = Vec::with_capacity(seeds);
    for flow in flows {
        let entries: Vec<(Design, AppRuns)> =
            App::ALL.iter().map(|_| collect_app(&mut results)).collect();
        let ctx = ExperimentContext {
            flow: Arc::try_unwrap(flow).unwrap_or_else(|arc| (*arc).clone()),
            entries,
        };
        samples.push(ctx.headline());
    }
    let stats = |values: Vec<f64>| -> (f64, f64) {
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
        (mean, var.sqrt())
    };
    let (avg_saving_mean, avg_saving_std) =
        stats(samples.iter().map(|h| h.avg_edp_saving).collect());
    let (penalty_mean, penalty_std) = stats(samples.iter().map(|h| h.max_time_penalty).collect());
    Ok(HeadlineStats {
        samples,
        avg_saving_mean,
        avg_saving_std,
        penalty_mean,
        penalty_std,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// A 16-core context shared by the unit tests (built once).
    fn ctx() -> &'static ExperimentContext {
        static CTX: OnceLock<ExperimentContext> = OnceLock::new();
        CTX.get_or_init(|| {
            ExperimentContext::new(PlatformConfig::small().with_scale(0.002))
                .expect("small config is valid")
        })
    }

    #[test]
    fn rejects_invalid_config() {
        let mut cfg = PlatformConfig::small();
        cfg.clusters = 3;
        assert!(ExperimentContext::new(cfg).is_err());
    }

    #[test]
    fn table1_covers_all_apps() {
        let rows = ctx().table1();
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.map_tasks > 0, "{}", row.app);
            assert!(row.compute_gcycles > 0.0, "{}", row.app);
        }
    }

    #[test]
    fn fig2_has_four_series_of_core_count() {
        let series = ctx().fig2();
        assert_eq!(series.len(), 4);
        for s in &series {
            assert_eq!(s.sorted_utilization.len(), 16);
        }
    }

    #[test]
    fn table2_uses_table_levels_only() {
        let table = &ctx().flow().config().vf_table;
        for row in ctx().table2() {
            for p in row.vfi1.iter().chain(&row.vfi2) {
                assert!(table.index_of(*p).is_some(), "{}: {p}", row.app);
            }
        }
    }

    #[test]
    fn fig4_and_fig5_cover_the_bottleneck_apps() {
        let fig4 = ctx().fig4();
        let fig5 = ctx().fig5();
        let apps4: Vec<App> = fig4.iter().map(|r| r.app).collect();
        let apps5: Vec<App> = fig5.iter().map(|r| r.app).collect();
        assert_eq!(apps4, vec![App::Pca, App::Histogram, App::MatrixMult]);
        assert_eq!(apps4, apps5);
        for r in &fig4 {
            assert!(r.vfi1_time > 0.0 && r.vfi2_time > 0.0);
            assert!(r.vfi1_edp > 0.0 && r.vfi2_edp > 0.0);
        }
    }

    #[test]
    fn fig7_fig8_cover_all_apps_positively() {
        assert_eq!(ctx().fig7().len(), 6);
        assert_eq!(ctx().fig8().len(), 6);
        for r in ctx().fig8() {
            assert!(r.vfi_mesh_edp > 0.0 && r.vfi_winoc_edp > 0.0, "{}", r.app);
        }
    }

    #[test]
    fn chosen_winoc_is_the_better_one() {
        for app in App::ALL {
            let runs = ctx().runs(app);
            let chosen = runs.vfi_winoc().edp;
            assert!(chosen <= runs.winoc_min_hop.edp + 1e-15);
            assert!(chosen <= runs.winoc_max_wireless.edp + 1e-15);
            let _ = runs.chosen_strategy();
        }
    }

    #[test]
    fn seed_sweep_aggregates() -> Result<(), String> {
        let stats =
            headline_across_seeds_with_jobs(&PlatformConfig::small().with_scale(0.002), 2, 1)?;
        assert_eq!(stats.samples.len(), 2);
        assert!(stats.avg_saving_std >= 0.0);
        assert!(stats.penalty_std >= 0.0);
        assert!(stats.avg_saving_mean.is_finite());
        Ok(())
    }

    #[test]
    fn parallel_dispatch_matches_serial() -> Result<(), String> {
        let cfg = PlatformConfig::small().with_scale(0.002).with_seed(77);
        let serial = ExperimentContext::new_parallel(cfg.clone(), 1)?;
        let parallel = ExperimentContext::new_parallel(cfg, 4)?;
        for app in App::ALL {
            assert_eq!(
                format!("{:?}", serial.runs(app)),
                format!("{:?}", parallel.runs(app)),
                "{app}: worker count must not change results"
            );
        }
        assert_eq!(
            format!("{:?}", serial.headline()),
            format!("{:?}", parallel.headline())
        );
        Ok(())
    }

    #[test]
    fn headline_is_internally_consistent() {
        let h = ctx().headline();
        assert!(h.max_edp_saving >= h.avg_edp_saving - 1e-12);
        let fig8 = ctx().fig8();
        let best = fig8
            .iter()
            .map(|r| 1.0 - r.vfi_winoc_edp)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((h.max_edp_saving - best).abs() < 1e-12);
    }
}
