//! Full-system simulation: runtime model × NoC simulation × power models.
//!
//! [`run_system`] couples the three substrates the way the paper couples
//! GEM5, the RTL-calibrated NoC simulator and McPAT:
//!
//! 1. the MapReduce runtime model executes the workload at the platform's
//!    per-cluster frequencies, producing phase times, per-core utilization
//!    and the inter-core traffic matrix;
//! 2. the traffic (transported to physical tile space by the thread
//!    mapping) drives the cycle-accurate NoC simulation, yielding the
//!    average network latency and per-flit energy;
//! 3. the measured latency feeds back into the runtime model's cache-stall
//!    term (remote L2 round trips), and the final execution is costed with
//!    the core power model and the network energy accounting.

use crate::config::PlatformConfig;
use crate::placement::quadrant_of;
use mapwave_faults::{FaultPlan, FaultStats};
use mapwave_manycore::dram::DramModel;
use mapwave_manycore::mapping::ThreadMapping;
use mapwave_manycore::memory::{ControllerLayout, MemorySystem};
use mapwave_manycore::platform::Platform;
use mapwave_noc::routing::RoutingTable;
use mapwave_noc::sim::{NetworkSim, SimConfig};
use mapwave_noc::topology::wireless::WirelessOverlay;
use mapwave_noc::{EnergyModel, NetworkStats, NocFaultCounts, NodeId, Topology, TrafficMatrix};
use mapwave_phoenix::runtime::{ExecScratch, Executor, PhoenixFaults, RuntimeConfig};
use mapwave_phoenix::stealing::StealPolicy;
use mapwave_phoenix::task::PhaseKind;
use mapwave_phoenix::workload::{AppWorkload, ExecutionReport, PhaseLatencies};
use mapwave_vfi::assignment::VfAssignment;
use mapwave_vfi::clustering::Clustering;
use mapwave_vfi::power::CorePowerModel;

/// A fully assembled platform configuration ready to run workloads.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// Human-readable configuration name ("NVFI Mesh", "VFI WiNoC", …).
    pub label: String,
    /// The wireline interconnect.
    pub topology: Topology,
    /// The wireless overlay (empty for wired-only systems).
    pub overlay: WirelessOverlay,
    /// The routing function.
    pub routing: RoutingTable,
    /// Thread → tile placement.
    pub mapping: ThreadMapping,
    /// The logical VFI partition.
    pub clustering: Clustering,
    /// Per-cluster operating points.
    pub vf: VfAssignment,
    /// Steal policy of the runtime.
    pub steal: StealPolicy,
}

/// Everything measured from one workload execution on one [`SystemSpec`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The configuration name.
    pub label: String,
    /// Runtime-model observables (phase times, utilization, traffic).
    pub exec: ExecutionReport,
    /// Aggregate NoC-simulation statistics over all simulated stages.
    pub net: NetworkStats,
    /// Per-stage NoC statistics (stages with zero traffic are omitted).
    pub net_by_phase: Vec<(PhaseKind, NetworkStats)>,
    /// Wall-clock execution time in seconds.
    pub exec_seconds: f64,
    /// Total core energy in joules.
    pub core_energy_j: f64,
    /// Total network energy in joules.
    pub net_energy_j: f64,
    /// Full-system energy–delay product (J·s).
    pub edp: f64,
}

impl RunReport {
    /// Total (core + network) energy in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.core_energy_j + self.net_energy_j
    }

    /// Network energy–delay product: network energy × average packet
    /// latency (the Fig. 6 metric).
    pub fn network_edp(&self) -> f64 {
        self.net_energy_j * self.net.avg_latency()
    }
}

/// A [`RunReport`] together with the fault activity observed while
/// producing it.
#[derive(Debug, Clone)]
pub struct FaultRunReport {
    /// The system observables (same shape as a fault-free run).
    pub report: RunReport,
    /// Injected-fault counters: runtime retries/re-steals/core events from
    /// the final relaxed execution plus NoC corruption/fallback counts
    /// accumulated over every simulated stage window.
    pub faults: FaultStats,
}

/// A simulated window's statistics and the wireless faults it observed.
type WindowRun = (NetworkStats, NocFaultCounts);

/// Runs one stage window on `sim` (which `NetworkSim::run` fully resets, so
/// the result depends only on the window's own traffic).
fn simulate_window(
    sim: &mut NetworkSim<'_>,
    traffic: &TrafficMatrix,
    cfg: &PlatformConfig,
) -> WindowRun {
    let stats = sim
        .run(
            traffic,
            cfg.noc_warmup,
            cfg.noc_measure,
            cfg.noc_measure * 10,
        )
        .clone();
    (stats, sim.fault_counts())
}

/// Overwrites a stage's statistics slot in place (`clone_from` reuses the
/// slot's histogram and link-load allocations).
fn store_stats(slot: &mut Option<NetworkStats>, stats: &NetworkStats) {
    match slot {
        Some(s) => s.clone_from(stats),
        None => *slot = Some(stats.clone()),
    }
}

/// Runs `workload` on `spec` and reports times, energies and EDP.
///
/// # Panics
///
/// Panics if the spec's components disagree on the platform size or the
/// NoC simulator rejects the configuration (all specs built by
/// [`crate::design_flow::DesignFlow`] are consistent by construction).
pub fn run_system(
    spec: &SystemSpec,
    workload: &AppWorkload,
    cfg: &PlatformConfig,
    power: &CorePowerModel,
) -> RunReport {
    run_system_inner(spec, workload, cfg, power, None).report
}

/// Like [`run_system`], with the deterministic fault model live in both
/// substrates: the runtime retries failed tasks and reschedules around
/// degraded/dead cores, and the NoC retransmits corrupted wireless flits
/// (diverting persistent offenders onto the wireline fallback tree).
///
/// With [`FaultPlan::none`] the report is bit-identical to
/// [`run_system`]'s — the fault-free path never even consults the plan.
pub fn run_system_with_faults(
    spec: &SystemSpec,
    workload: &AppWorkload,
    cfg: &PlatformConfig,
    power: &CorePowerModel,
    plan: &FaultPlan,
) -> FaultRunReport {
    run_system_inner(spec, workload, cfg, power, Some(plan))
}

/// The shared engine behind [`run_system`] (no plan — every fault hook in
/// the runtime and the NoC stays on its zero-cost disabled path) and
/// [`run_system_with_faults`]; [`crate::governed`] reuses it for the
/// static half of a governed run.
pub(crate) fn run_system_inner(
    spec: &SystemSpec,
    workload: &AppWorkload,
    cfg: &PlatformConfig,
    power: &CorePowerModel,
    faults: Option<&FaultPlan>,
) -> FaultRunReport {
    let _span = mapwave_harness::telemetry::span_labeled("core.run_system", spec.label.clone());
    let n = cfg.cores();
    assert_eq!(spec.topology.len(), n, "topology size mismatch");
    assert_eq!(spec.mapping.len(), n, "mapping size mismatch");
    assert_eq!(spec.clustering.len(), n, "clustering size mismatch");

    let table = &cfg.vf_table;
    let speeds = spec.vf.core_speeds(&spec.clustering, table);

    // Pass 1: execute with a nominal network latency to obtain traffic.
    // One executor and one scheduler scratch serve every relaxation round —
    // latencies are swapped in place instead of recloning the configuration
    // per round, and the scratch keeps queue/heap/flit allocations warm
    // across reruns.
    let base_cfg = RuntimeConfig::nvfi(n)
        .with_speeds(speeds)
        .with_steal_policy(spec.steal);
    let default_rt = base_cfg.remote_l2_latency.map;
    let mut executor = Executor::new(base_cfg);
    let mut scratch = ExecScratch::new();
    // Each executor invocation replays the fault schedule from scratch
    // (fresh health/retry state), so relaxation rounds see the *same*
    // deterministic fault history rather than compounding degradation
    // across what are re-simulations of one and the same execution. The
    // state of the last (final relaxed) run is kept for the report.
    let runtime_faulted = faults.is_some_and(FaultPlan::affects_runtime);
    let mut last_phx: Option<PhoenixFaults> = None;
    let run_exec =
        |executor: &Executor, scratch: &mut ExecScratch, last_phx: &mut Option<PhoenixFaults>| {
            if runtime_faulted {
                let plan = faults.expect("runtime_faulted implies a plan");
                let master = executor.config().master_core;
                let mut phx = PhoenixFaults::new(plan, n, master);
                let report = executor.run_with_faults(workload, scratch, &mut phx);
                *last_phx = Some(phx);
                report
            } else {
                executor.run_with_scratch(workload, scratch)
            }
        };
    let mut exec = run_exec(&executor, &mut scratch, &mut last_phx);

    // The NoC is VFI-partitioned too: each quadrant's switches run at the
    // quadrant cluster's frequency.
    let tile_speed: Vec<f64> = (0..n)
        .map(|t| {
            spec.vf
                .speed_of(quadrant_of(NodeId(t), cfg.cols, cfg.rows), table)
        })
        .collect();
    let tile_domain: Vec<usize> = (0..n)
        .map(|t| quadrant_of(NodeId(t), cfg.cols, cfg.rows))
        .collect();

    // Banked DRAM: per-controller command queues behind the corner memory
    // controllers. Each relaxation round aggregates the execution's miss
    // stream per controller, measures a queueing window, and feeds the
    // measured latency (plus the geometric hop round trip) back into the
    // cache model's off-chip term — exactly the loop the NoC latencies
    // already run. Ideal DRAM (the default) never enters this block, so
    // the executor keeps the calibrated fixed constant bit-for-bit.
    let dram_enabled = !cfg.dram.is_ideal();
    let mut dram_state = dram_enabled.then(|| {
        let platform = Platform::new(cfg.cols, cfg.rows, cfg.tile_mm);
        let memory = MemorySystem::new(&platform, ControllerLayout::Corners);
        let model = DramModel::new(cfg.dram.clone(), memory.controllers().len())
            .expect("validated banked config");
        // Die-wide miss intensity (off-chip requests per instruction),
        // phase-weighted over the workload's memory profiles.
        let profile_mean = |f: &dyn Fn(&mapwave_phoenix::workload::IterationWorkload) -> f64| {
            workload.iterations.iter().map(f).sum::<f64>() / workload.iterations.len().max(1) as f64
        };
        let map_mpi =
            profile_mean(&|it| it.map_memory.l1_mpki / 1000.0 * it.map_memory.l2_miss_rate);
        let reduce_mpi =
            profile_mean(&|it| it.reduce_memory.l1_mpki / 1000.0 * it.reduce_memory.l2_miss_rate);
        let hop_rt = memory.avg_hop_round_trip_cycles(&platform);
        let rates = vec![0.0f64; memory.controllers().len()];
        (platform, memory, model, map_mpi, reduce_mpi, hop_rt, rates)
    });
    let default_mem = executor.config().cache.mem_latency_cycles;
    // Measures one DRAM window for the current execution and returns the
    // effective off-chip latency, or None when the workload misses nothing
    // (zero-miss streams bypass the controller model entirely).
    let mut dram_latency = |exec: &ExecutionReport, speeds: &[f64]| -> Option<f64> {
        let (platform, memory, model, map_mpi, reduce_mpi, hop_rt, rates) = dram_state.as_mut()?;
        let phases = &exec.phases;
        let map_w = phases.lib_init + phases.map;
        let reduce_w = phases.reduce + phases.merge;
        let total_w = map_w + reduce_w;
        if total_w <= 0.0 {
            return None;
        }
        let miss_per_inst = (*map_mpi * map_w + *reduce_mpi * reduce_w) / total_w;
        rates.iter_mut().for_each(|r| *r = 0.0);
        let mut offered = 0.0;
        for (core, &speed) in speeds.iter().enumerate().take(n) {
            // A busy core at clock ratio `s` issues ~`s` instructions per
            // reference cycle; its misses drain to the nearest controller.
            let r = exec.utilization[core] * speed * miss_per_inst;
            if r > 0.0 {
                let tile = spec.mapping.tile_of(core);
                rates[memory.nearest_controller_index(platform, tile)] += r;
                offered += r;
            }
        }
        if offered <= 0.0 {
            return None;
        }
        let stats = model.measure(rates);
        mapwave_harness::telemetry::count("dram.requests", stats.serviced);
        mapwave_harness::telemetry::count("dram.row_hits", stats.row_hits);
        mapwave_harness::telemetry::count("dram.row_misses", stats.row_misses);
        mapwave_harness::telemetry::count("dram.stall_cycles", stats.backpressure_cycles);
        Some(*hop_rt + stats.avg_latency_cycles(&model.config().timing))
    };

    let sim_cfg = SimConfig {
        vcs: cfg.noc_vcs,
        adaptive: cfg.noc_adaptive,
        ..SimConfig::default()
    };
    // One simulator serves all 9 stage windows, borrowing the spec's
    // topology/overlay/table instead of cloning them. With `sim_threads >
    // 1` the three stage windows of a round run concurrently on one
    // simulator per stage instead: every `NetworkSim::run` fully resets
    // its simulator, so a window's statistics depend only on its own
    // traffic and per-stage simulators are observably identical to the
    // shared one.
    let window_lanes = if cfg.sim_threads > 1 { 3 } else { 1 };
    let mut lane_sims: Vec<NetworkSim> = (0..window_lanes)
        .map(|_| {
            let mut sim = NetworkSim::with_clocks_borrowed(
                &spec.topology,
                &spec.overlay,
                &spec.routing,
                EnergyModel::default_65nm(),
                sim_cfg.clone(),
                tile_speed.clone(),
                tile_domain.clone(),
            )
            .expect("spec-consistent network");
            if let Some(plan) = faults {
                sim.set_faults(plan);
            }
            sim
        })
        .collect();
    let mut noc_fault_counts = NocFaultCounts::default();

    // Phase-resolved NoC simulation: each stage's traffic pattern loads the
    // network differently (Map's memory streaming vs Reduce's key shuffle
    // vs Merge's partition movement), so each gets its own window. The
    // executor and the network are relaxed jointly: measured latencies
    // stretch congested stages, which lowers their offered rates — two
    // rounds settle all the operating points used in the evaluation.
    let mut map_net: Option<NetworkStats> = None;
    let mut reduce_net: Option<NetworkStats> = None;
    let mut merge_net: Option<NetworkStats> = None;
    let mut prev = PhaseLatencies::uniform(default_rt);
    for round in 0..3 {
        // Each window's statistics overwrite a persistent slot in place
        // (`clone_from` reuses the histogram/link-load allocations) rather
        // than cloning a fresh copy per round.
        let stage_traffic = [
            &exec.phase_traffic.map,
            &exec.phase_traffic.reduce,
            &exec.phase_traffic.merge,
        ];
        // Probe: the physical traffic of each stage that carries any.
        let windows: Vec<Option<TrafficMatrix>> = stage_traffic
            .iter()
            .map(|traffic| {
                (traffic.total_rate() > 1e-9).then(|| spec.mapping.traffic_to_tiles(traffic))
            })
            .collect();
        // Run the live windows: one after another on the shared simulator,
        // or concurrently with one lane per stage.
        let runs: Vec<Option<WindowRun>> = if window_lanes == 1 {
            let sim = &mut lane_sims[0];
            windows
                .iter()
                .map(|w| w.as_ref().map(|t| simulate_window(sim, t, cfg)))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = lane_sims
                    .iter_mut()
                    .zip(&windows)
                    .map(|(sim, w)| {
                        w.as_ref().map(|t| {
                            scope.spawn(move || {
                                let run = simulate_window(sim, t, cfg);
                                // Hand the lane's spans and counters to the
                                // store before the thread ends. The join
                                // below also waits for the thread-local
                                // destructor; this keeps the hand-off
                                // independent of how the lane is joined.
                                mapwave_harness::telemetry::flush();
                                run
                            })
                        })
                    })
                    .collect();
                mapwave_harness::telemetry::count(
                    "core.windows_parallel",
                    handles.iter().flatten().count() as u64,
                );
                handles
                    .into_iter()
                    .map(|h| h.map(|h| h.join().expect("window simulation panicked")))
                    .collect()
            })
        };
        // Commit in stage order, so statistics and fault accounting are the
        // same for every lane count.
        let slots = [&mut map_net, &mut reduce_net, &mut merge_net];
        for (slot, run) in slots.into_iter().zip(runs) {
            match run {
                None => *slot = None,
                Some((stats, counts)) => {
                    store_stats(slot, &stats);
                    noc_fault_counts.flit_corruptions += counts.flit_corruptions;
                    noc_fault_counts.wi_fallbacks += counts.wi_fallbacks;
                }
            }
        }

        let rt = |stats: &Option<NetworkStats>, fallback: f64| -> f64 {
            stats
                .as_ref()
                .filter(|s| s.packets_delivered > 0)
                .map(|s| (2.0 * s.avg_latency()).max(6.0))
                .unwrap_or(fallback)
        };
        // Damped update: an over-estimated rate from a previous round would
        // otherwise alternate between congested and idle fixpoints.
        let blend = |prev: f64, measured: f64| -> f64 {
            if round == 0 {
                measured
            } else {
                0.5 * prev + 0.5 * measured
            }
        };
        let map_rt = blend(prev.map, rt(&map_net, default_rt));
        let latencies = PhaseLatencies {
            lib_init: map_rt,
            map: map_rt,
            reduce: blend(prev.reduce, rt(&reduce_net, map_rt)),
            merge: blend(prev.merge, rt(&merge_net, map_rt)),
        };
        executor.set_phase_latencies(latencies);
        // Banked DRAM joins the relaxation: the effective off-chip latency
        // is re-measured from this round's execution (None = the workload
        // misses nothing and keeps the calibrated default).
        if dram_enabled {
            let mem = dram_latency(&exec, &executor.config().core_speeds).unwrap_or(default_mem);
            executor.set_mem_latency_cycles(mem);
        }
        exec = run_exec(&executor, &mut scratch, &mut last_phx);
        prev = latencies;
    }

    let ref_ghz = table.max().freq_ghz;
    let exec_seconds = exec.exec_seconds(ref_ghz);

    // Core energy: every core integrates its utilization at its island's
    // operating point over the whole execution.
    let core_energy_j: f64 = (0..n)
        .map(|i| {
            let vf = spec.vf.vf_of(spec.clustering.cluster_of(i));
            power.energy_j(exec.utilization[i], vf, exec_seconds)
        })
        .sum();

    // Network energy: each stage's flits at that stage's measured energy
    // per flit (falling back to the Map window's figure).
    let packet_flits = 4.0;
    let fallback_pj = map_net
        .as_ref()
        .map(NetworkStats::energy_per_flit_pj)
        .unwrap_or(0.0);
    let pj = |stats: &Option<NetworkStats>| -> f64 {
        stats
            .as_ref()
            .filter(|s| s.flits_delivered > 0)
            .map(NetworkStats::energy_per_flit_pj)
            .unwrap_or(fallback_pj)
    };
    let stage_energy =
        |traffic: &mapwave_noc::TrafficMatrix,
         stage_cycles: f64,
         stats: &Option<NetworkStats>|
         -> f64 { traffic.total_rate() * packet_flits * stage_cycles * pj(stats) * 1e-12 };
    let net_energy_j = stage_energy(&exec.phase_traffic.map, exec.phases.map, &map_net)
        + stage_energy(&exec.phase_traffic.reduce, exec.phases.reduce, &reduce_net)
        + stage_energy(&exec.phase_traffic.merge, exec.phases.merge, &merge_net);

    let edp = (core_energy_j + net_energy_j) * exec_seconds;

    // Aggregate network statistics for reporting.
    let net = NetworkStats::merged([&map_net, &reduce_net, &merge_net].into_iter().flatten());
    let net_by_phase: Vec<(PhaseKind, NetworkStats)> = [
        (PhaseKind::Map, map_net),
        (PhaseKind::Reduce, reduce_net),
        (PhaseKind::Merge, merge_net),
    ]
    .into_iter()
    .filter_map(|(k, s)| s.map(|s| (k, s)))
    .collect();

    let mut fault_stats = last_phx.map(|p| *p.stats()).unwrap_or_default();
    fault_stats.flit_corruptions += noc_fault_counts.flit_corruptions;
    fault_stats.wi_fallbacks += noc_fault_counts.wi_fallbacks;
    if faults.is_some() {
        fault_stats.emit_telemetry();
    }

    FaultRunReport {
        report: RunReport {
            label: spec.label.clone(),
            exec,
            net,
            net_by_phase,
            exec_seconds,
            core_energy_j,
            net_energy_j,
            edp,
        },
        faults: fault_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapwave_noc::topology::mesh::mesh;
    use mapwave_phoenix::apps::App;
    use mapwave_vfi::vf::VfTable;

    fn small_cfg() -> PlatformConfig {
        PlatformConfig::small().with_scale(0.002)
    }

    fn mesh_spec(label: &str, cfg: &PlatformConfig, vf: VfAssignment) -> SystemSpec {
        SystemSpec {
            label: label.into(),
            topology: mesh(cfg.cols, cfg.rows, cfg.tile_mm),
            overlay: WirelessOverlay::none(),
            routing: RoutingTable::xy(cfg.cols, cfg.rows),
            mapping: ThreadMapping::identity(cfg.cores()),
            clustering: Clustering::grid_quadrants(cfg.cols, cfg.rows),
            vf: VfAssignment::uniform(4, vf.vf_of(0)),
            steal: StealPolicy::Default,
        }
        .with_vf(vf)
    }

    impl SystemSpec {
        fn with_vf(mut self, vf: VfAssignment) -> Self {
            self.vf = vf;
            self
        }
    }

    #[test]
    fn nvfi_mesh_runs_end_to_end() {
        let cfg = small_cfg();
        let table = VfTable::paper_levels();
        let spec = mesh_spec("NVFI Mesh", &cfg, VfAssignment::uniform(4, table.max()));
        let workload = App::WordCount.workload(cfg.scale, cfg.seed, cfg.cores());
        let report = run_system(&spec, &workload, &cfg, &CorePowerModel::default_x86());
        assert!(report.exec_seconds > 0.0);
        assert!(report.core_energy_j > 0.0);
        assert!(report.net_energy_j > 0.0);
        assert!(report.edp > 0.0);
        assert!(report.net.packets_delivered > 0);
    }

    #[test]
    fn vfi_trades_time_for_energy() {
        let cfg = small_cfg();
        let table = VfTable::paper_levels();
        // Compute-bound MM: the clock stretch dominates any congestion relief.
        let workload = App::MatrixMult.workload(cfg.scale, cfg.seed, cfg.cores());
        let power = CorePowerModel::default_x86();

        let nvfi = run_system(
            &mesh_spec("NVFI Mesh", &cfg, VfAssignment::uniform(4, table.max())),
            &workload,
            &cfg,
            &power,
        );
        // All clusters at the slowest level: decisive compute stretch.
        let slow = run_system(
            &mesh_spec(
                "VFI Mesh",
                &cfg,
                VfAssignment::uniform(4, table.levels()[0]),
            ),
            &workload,
            &cfg,
            &power,
        );
        assert!(slow.exec_seconds > nvfi.exec_seconds, "lower f is slower");
        assert!(
            slow.core_energy_j < nvfi.core_energy_j,
            "lower V/f saves core energy: {} vs {}",
            slow.core_energy_j,
            nvfi.core_energy_j
        );
    }

    #[test]
    fn deterministic_runs() {
        let cfg = small_cfg();
        let table = VfTable::paper_levels();
        let spec = mesh_spec("NVFI Mesh", &cfg, VfAssignment::uniform(4, table.max()));
        let workload = App::LinearRegression.workload(cfg.scale, cfg.seed, cfg.cores());
        let power = CorePowerModel::default_x86();
        let a = run_system(&spec, &workload, &cfg, &power);
        let b = run_system(&spec, &workload, &cfg, &power);
        assert_eq!(a.exec, b.exec);
        assert_eq!(a.edp, b.edp);
    }
}
