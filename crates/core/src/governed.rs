//! Power-capped system runs: the online DVFS governor driving an
//! epoch-level replay of a measured execution.
//!
//! A governed run has two parts, and [`run_system_governed`] is simply the
//! first followed by the second:
//!
//! 1. **The static run.** The full coupled simulation ([`run_system`], or
//!    [`run_system_with_faults`] under a plan) measures the workload on the
//!    spec exactly as today — per-core utilization, busy cycles, phase
//!    times, network energy; every existing golden pins this run.
//! 2. **The replay** ([`replay_governed`]). The measured execution is
//!    replayed in fixed-length epochs. Each core's outstanding work is its
//!    measured busy time; while work remains the core keeps its measured
//!    duty cycle, retiring work at the speed ratio of its island's
//!    *governed* level versus its static one, so throttled islands finish
//!    later. At every epoch boundary the governor samples the previous
//!    epoch's per-island utilization, projects chip power, and
//!    throttles/boosts island levels to honour the cap (see the
//!    `mapwave-governor` crate docs for the control law).
//!
//! The replay reads nothing but the spec, the platform and the static
//! run's report, so a caller that already holds the static run — the
//! sweep engine's clean cells, which share one run between the uncapped
//! cell and every cap — replays it directly instead of simulating again.
//! The result is bit-identical to [`run_system_governed`] on the same
//! inputs.
//!
//! Measured utilization in the replay never rises epoch-over-epoch (a
//! core's duty cycle is constant until its work drains, then zero), and
//! core power is monotone in utilization, so a plan whose projection
//! respects the cap is guaranteed to respect it when measured — the
//! cap-respect trace in the report is a theorem of the model, checked
//! anyway per epoch.
//!
//! Under injected faults the governor composes with
//! [`reassign_for_degradation`]: the faulted execution's utilization
//! profile first drives the paper's bottleneck reaction, and the reacted
//! assignment becomes the governor's desired (boost-ceiling) levels.
//!
//! [`run_system`]: crate::system::run_system
//! [`run_system_with_faults`]: crate::system::run_system_with_faults

use crate::config::PlatformConfig;
use crate::system::{run_system_inner, FaultRunReport, SystemSpec};
use mapwave_faults::FaultPlan;
use mapwave_governor::{GovernorConfig, GovernorStats, PowerGovernor};
use mapwave_phoenix::workload::AppWorkload;
use mapwave_vfi::assignment::{reassign_for_degradation, VfAssignment};
use mapwave_vfi::power::CorePowerModel;

/// One epoch of a governed run.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Level index per island in force during this epoch.
    pub levels: Vec<usize>,
    /// Chip power the governor projected when planning the epoch, W.
    pub projected_power_w: f64,
    /// Chip power measured from the epoch's actual utilization, W.
    pub measured_power_w: f64,
    /// One-level throttle steps taken at this boundary.
    pub throttled: u32,
    /// One-level boost steps taken at this boundary.
    pub boosted: u32,
    /// Whether the projection exceeded the cap with all islands already
    /// at the bottom level (infeasible cap).
    pub violated: bool,
}

/// Everything measured from one power-capped execution.
#[derive(Debug, Clone)]
pub struct GovernedRunReport {
    /// The underlying static run (bit-identical to [`run_system`] /
    /// [`crate::system::run_system_with_faults`] on the same inputs).
    pub base: FaultRunReport,
    /// The enforced chip power cap, W.
    pub cap_w: f64,
    /// Per-epoch trace: levels, projected and measured power, actuation.
    pub epochs: Vec<EpochRecord>,
    /// Wall-clock time of the governed execution, seconds.
    pub governed_exec_seconds: f64,
    /// Core energy of the governed execution, joules.
    pub governed_core_energy_j: f64,
    /// Full-system EDP of the governed execution (network energy is taken
    /// from the static run: the shuffle moves the same bytes), J·s.
    pub governed_edp: f64,
    /// Chip core power of the ungoverned static assignment at the measured
    /// utilization — the reference a relative cap ("80% of peak") is set
    /// against, W.
    pub static_peak_power_w: f64,
    /// Governor lifetime counters.
    pub stats: GovernorStats,
    /// Whether the fault-degradation reaction changed the desired levels
    /// (always `false` on clean runs).
    pub reassigned: bool,
}

impl GovernedRunReport {
    /// Whether every epoch's measured power stayed at or under the cap.
    pub fn cap_respected(&self) -> bool {
        self.epochs.iter().all(|e| e.measured_power_w <= self.cap_w)
    }

    /// Highest measured epoch power, W (0 for an empty trace).
    pub fn peak_measured_power_w(&self) -> f64 {
        self.epochs
            .iter()
            .map(|e| e.measured_power_w)
            .fold(0.0, f64::max)
    }

    /// Execution-time stretch of the governed run versus the static one
    /// (`1.0` when the cap never bound).
    pub fn slowdown(&self) -> f64 {
        self.governed_exec_seconds / self.base.report.exec_seconds
    }

    /// EDP delta of the governed run versus the static one
    /// (`governed_edp / static_edp`).
    pub fn edp_ratio(&self) -> f64 {
        self.governed_edp / self.base.report.edp
    }
}

/// Runs `workload` on `spec` under a chip-level power cap: the static
/// simulation, exactly [`run_system`]'s (its report is the `base` field),
/// then [`replay_governed`] over it as described in the
/// [module docs](self). With a cap the static assignment never reaches,
/// the governed time/energy equal the static ones and the trace records
/// zero throttles.
///
/// # Panics
///
/// Panics if the governor configuration is invalid or the spec's V/F
/// assignment uses levels outside the platform's table.
///
/// [`run_system`]: crate::system::run_system
pub fn run_system_governed(
    spec: &SystemSpec,
    workload: &AppWorkload,
    cfg: &PlatformConfig,
    power: &CorePowerModel,
    governor: &GovernorConfig,
) -> GovernedRunReport {
    let base = run_system_inner(spec, workload, cfg, power, None);
    replay_governed(spec, cfg, power, governor, base, None)
}

/// [`run_system_governed`] with the deterministic fault model live. The
/// faulted execution's degraded utilization first drives
/// [`reassign_for_degradation`]; the reacted assignment becomes the
/// governor's desired levels, so capping and the paper's bottleneck
/// reaction compose instead of fighting.
pub fn run_system_governed_with_faults(
    spec: &SystemSpec,
    workload: &AppWorkload,
    cfg: &PlatformConfig,
    power: &CorePowerModel,
    governor: &GovernorConfig,
    plan: &FaultPlan,
) -> GovernedRunReport {
    let base = run_system_inner(spec, workload, cfg, power, Some(plan));
    replay_governed(spec, cfg, power, governor, base, Some(plan))
}

/// Replays `base`, a static run of `spec` on `cfg`, under the cap in
/// `governor` (part 2 of the [module docs](self)). `plan` is the fault
/// plan `base` ran under (`None` for a clean run); a plan that injects
/// faults makes the degradation reaction set the desired levels.
///
/// Given the run [`run_system_governed`] (or
/// [`run_system_governed_with_faults`]) would simulate, the report is
/// bit-identical to theirs.
///
/// # Panics
///
/// Panics if the governor configuration is invalid or the spec's V/F
/// assignment uses levels outside the platform's table.
pub fn replay_governed(
    spec: &SystemSpec,
    cfg: &PlatformConfig,
    power: &CorePowerModel,
    governor: &GovernorConfig,
    base: FaultRunReport,
    plan: Option<&FaultPlan>,
) -> GovernedRunReport {
    let _span = mapwave_harness::telemetry::span_labeled("core.run_governed", spec.label.clone());
    governor.validate().expect("valid governor config");
    let exec = &base.report.exec;
    let table = &cfg.vf_table;
    let n = cfg.cores();

    // Desired levels: the static assignment, or its fault-degradation
    // reaction when a plan injected faults.
    let mut reassigned = false;
    let desired_vf: VfAssignment = match plan {
        Some(plan) if !plan.is_none() => {
            let (reacted, analysis) = reassign_for_degradation(
                &spec.vf,
                &spec.clustering,
                &exec.utilization,
                table,
                &cfg.bottleneck,
            );
            reassigned = analysis.needs_reassignment();
            reacted
        }
        _ => spec.vf.clone(),
    };
    let clusters = spec.clustering.cluster_count();
    let desired_levels: Vec<usize> = (0..clusters)
        .map(|c| {
            table
                .index_of(desired_vf.vf_of(c))
                .expect("assignment uses table levels")
        })
        .collect();

    // Per-island core membership, in core order (deterministic).
    let island_cores: Vec<Vec<usize>> = (0..clusters)
        .map(|c| {
            (0..n)
                .filter(|&i| spec.clustering.cluster_of(i) == c)
                .collect()
        })
        .collect();

    let mut gov = PowerGovernor::new(
        governor.clone(),
        table.clone(),
        power.clone(),
        desired_levels.clone(),
    )
    .expect("validated governor inputs");

    // Static reference power: the ungoverned assignment at the measured
    // utilization (the highest power any epoch of an uncapped replay can
    // draw — utilization only decays from here).
    let static_utils: Vec<Vec<f64>> = island_cores
        .iter()
        .map(|cores| cores.iter().map(|&i| exec.utilization[i]).collect())
        .collect();
    let static_peak_power_w = gov.chip_power_w(&desired_levels, &static_utils);

    // Replay state. Work is measured in "busy reference cycles at the
    // static speed": a core's duty cycle (utilization) is a property of
    // the schedule, so at a different island speed the same work occupies
    // the same fraction of each cycle but drains `f_gov / f_static` times
    // as fast.
    let ref_ghz = table.max().freq_ghz;
    let total_cycles = exec.phases.total();
    let static_speed: Vec<f64> = (0..n)
        .map(|i| spec.vf.speed_of(spec.clustering.cluster_of(i), table))
        .collect();
    let mut remaining: Vec<f64> = (0..n).map(|i| exec.utilization[i] * total_cycles).collect();
    let epoch_cycles = governor.epoch_cycles as f64;
    let epoch_seconds = epoch_cycles / (ref_ghz * 1e9);

    let mut epochs: Vec<EpochRecord> = Vec::new();
    let mut measured_utils = static_utils.clone();
    let mut governed_cycles = 0.0f64;
    let mut governed_core_energy_j = 0.0f64;
    // Generous backstop: even an all-minimum-level replay of the slowest
    // core finishes within `total / min_speed` cycles of work at a >0 duty
    // cycle; a run exceeding this bound indicates a modelling bug.
    let max_epochs = ((total_cycles / epoch_cycles) as u64)
        .saturating_mul(4)
        .saturating_add(16);

    while remaining.iter().any(|&r| r > 1e-9) && (epochs.len() as u64) < max_epochs {
        // Plan from the previous epoch's measured utilization (epoch 0:
        // the static profile, which equals epoch 0's measurement).
        let plan = gov.plan_epoch(&measured_utils);
        let ratio: Vec<f64> = (0..n)
            .map(|i| {
                let c = spec.clustering.cluster_of(i);
                table.levels()[plan.levels[c]].freq_ghz / (static_speed[i] * ref_ghz)
            })
            .collect();
        // Advance one epoch: each core works at its duty cycle, retiring
        // `ratio` work per busy cycle. The final epoch is cut short at the
        // last core's finish so the uncapped replay reproduces the static
        // wall clock exactly.
        let active: Vec<f64> = (0..n)
            .map(|i| {
                let duty = exec.utilization[i];
                if remaining[i] <= 1e-9 || duty <= 0.0 {
                    0.0
                } else {
                    (remaining[i] / (duty * ratio[i])).min(epoch_cycles)
                }
            })
            .collect();
        let span = active.iter().copied().fold(0.0f64, f64::max);
        if span <= 0.0 {
            break;
        }
        for (c, cores) in island_cores.iter().enumerate() {
            for (pos, &i) in cores.iter().enumerate() {
                let busy = active[i];
                let done = busy * exec.utilization[i] * ratio[i];
                remaining[i] = (remaining[i] - done).max(0.0);
                measured_utils[c][pos] = busy * exec.utilization[i] / span;
            }
        }
        let measured_power_w = gov.chip_power_w(&plan.levels, &measured_utils);
        governed_core_energy_j += measured_power_w * span * epoch_seconds / epoch_cycles;
        governed_cycles += span;
        epochs.push(EpochRecord {
            levels: plan.levels,
            projected_power_w: plan.projected_power_w,
            measured_power_w,
            throttled: plan.throttled,
            boosted: plan.boosted,
            violated: plan.violated,
        });
    }

    let governed_exec_seconds = governed_cycles / (ref_ghz * 1e9);
    let governed_edp = (governed_core_energy_j + base.report.net_energy_j) * governed_exec_seconds;
    let stats = gov.stats();
    mapwave_harness::telemetry::count("governor.epochs", stats.epochs);
    mapwave_harness::telemetry::count("governor.throttles", stats.throttles);
    mapwave_harness::telemetry::count("governor.boosts", stats.boosts);
    mapwave_harness::telemetry::count("governor.cap_violations", stats.cap_violations);

    GovernedRunReport {
        base,
        cap_w: governor.power_cap_w,
        epochs,
        governed_exec_seconds,
        governed_core_energy_j,
        governed_edp,
        static_peak_power_w,
        stats,
        reassigned,
    }
}
