//! Survivability sweep: how much of the VFI WiNoC design's energy
//! advantage survives as the platform degrades.
//!
//! [`fault_sweep`] replays each application under a rising deterministic
//! fault rate on two systems:
//!
//! * the **NVFI mesh baseline** — uniform max-V/F, wireline mesh, default
//!   stealing — absorbs faults with the runtime's retry/re-steal machinery
//!   alone;
//! * the **VFI WiNoC design** — after probing the degraded utilization
//!   profile, the VFI layer re-runs its bottleneck reassignment
//!   ([`reassign_for_degradation`]) so overloaded islands step their V/F
//!   level back up before the measured run.
//!
//! Each sweep point reports the EDP saving the VFI design retains over the
//! baseline and the time penalty it pays, plus the observed fault
//! activity ([`FaultStats`]). Everything is keyed off a single fault seed:
//! the same [`FaultSweepConfig`] renders a byte-identical report.

use mapwave_faults::{FaultConfig, FaultPlan, FaultStats};
use mapwave_phoenix::runtime::{Executor, PhoenixFaults, RuntimeConfig};
use mapwave_phoenix::App;
use mapwave_vfi::assignment::reassign_for_degradation;

use crate::design_flow::{DesignFlow, VfStage};
use crate::system::{run_system_with_faults, FaultRunReport};

/// Parameters of a survivability sweep.
#[derive(Debug, Clone)]
pub struct FaultSweepConfig {
    /// Applications to sweep (designed once each, fault-free).
    pub apps: Vec<App>,
    /// Fault rates to inject, in ascending order (`0.0` is the clean
    /// anchor point).
    pub rates: Vec<f64>,
    /// Root seed of the deterministic fault model; every rate derives its
    /// plan from this seed, so the whole report is a pure function of the
    /// config.
    pub fault_seed: u64,
}

impl FaultSweepConfig {
    /// The default sweep: Word Count and Kmeans (the paper's two headline
    /// workloads) across a clean anchor and four escalating fault rates.
    pub fn paper_defaults() -> Self {
        Self {
            apps: vec![App::WordCount, App::Kmeans],
            rates: vec![0.0, 0.02, 0.05, 0.1, 0.2],
            fault_seed: 0xFA17,
        }
    }

    /// A minimal sweep for smoke tests: one app, a clean point and one
    /// faulted point.
    pub fn smoke() -> Self {
        Self {
            apps: vec![App::WordCount],
            rates: vec![0.0, 0.1],
            fault_seed: 0xFA17,
        }
    }
}

/// One (application, fault-rate) measurement of the sweep.
#[derive(Debug, Clone)]
pub struct FaultSweepPoint {
    /// The application.
    pub app: App,
    /// The injected fault rate.
    pub rate: f64,
    /// The NVFI mesh baseline under this fault rate.
    pub baseline: FaultRunReport,
    /// The VFI WiNoC design under the same faults, after the VFI layer's
    /// degradation reaction.
    pub vfi: FaultRunReport,
    /// Whether the degradation probe made the VFI layer step any island
    /// back up.
    pub reassigned: bool,
    /// EDP saving of the VFI design over the baseline at this rate
    /// (`1 - vfi.edp / baseline.edp`).
    pub edp_saving: f64,
    /// Relative execution-time penalty of the VFI design
    /// (`vfi.exec_seconds / baseline.exec_seconds - 1`).
    pub time_penalty: f64,
}

impl FaultSweepPoint {
    /// Combined fault activity of both runs at this point.
    pub fn fault_stats(&self) -> FaultStats {
        let mut s = self.baseline.faults;
        s.merge(&self.vfi.faults);
        s
    }
}

/// The full survivability report.
#[derive(Debug, Clone)]
pub struct FaultSweepReport {
    /// All sweep points, ordered by (app, rate) as configured.
    pub points: Vec<FaultSweepPoint>,
}

impl FaultSweepReport {
    /// Renders the survivability curves as a fixed-width text table.
    ///
    /// The output is a pure function of the sweep config: same seed, same
    /// bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Survivability sweep (VFI WiNoC vs NVFI mesh baseline)\n");
        out.push_str(
            "app          rate    EDP-saving  time-pen  reassign  \
             retries  re-steals  corrupt  fallbacks  degraded  failed\n",
        );
        for p in &self.points {
            let s = p.fault_stats();
            out.push_str(&format!(
                "{:<12} {:>5.3}  {:>+9.2}%  {:>+7.2}%  {:>8}  {:>7}  {:>9}  {:>7}  {:>9}  {:>8}  {:>6}\n",
                p.app.name(),
                p.rate,
                p.edp_saving * 100.0,
                p.time_penalty * 100.0,
                if p.reassigned { "yes" } else { "no" },
                s.task_retries,
                s.re_steals,
                s.flit_corruptions,
                s.wi_fallbacks,
                s.cores_degraded,
                s.cores_failed,
            ));
        }
        out
    }
}

/// Builds the fault plan for one sweep point.
fn plan_for(rate: f64, seed: u64) -> FaultPlan {
    if rate == 0.0 {
        FaultPlan::none()
    } else {
        FaultPlan::build(&FaultConfig::at_rate(rate, seed))
    }
}

/// Runs the survivability sweep.
///
/// Per application the clean design is produced once by `flow`; per rate
/// both systems then run under the same derived [`FaultPlan`]. Before the
/// VFI run, a fault-injected probe of the runtime (at the design's VFI-2
/// operating point) yields the degraded utilization profile that drives
/// [`reassign_for_degradation`].
pub fn fault_sweep(flow: &DesignFlow, sweep: &FaultSweepConfig) -> FaultSweepReport {
    let _span = mapwave_harness::telemetry::span("core.fault_sweep");
    let cfg = flow.config();
    let n = cfg.cores();
    let mut points = Vec::with_capacity(sweep.apps.len() * sweep.rates.len());

    for &app in &sweep.apps {
        let design = flow.design(app);
        let nvfi = flow.nvfi_spec();
        let winoc = flow.winoc_spec(&design, cfg.placement);

        // The probe executor mirrors the designed runtime: VFI-2 speeds
        // and the chosen steal policy.
        let probe_speeds = design.vfi2.core_speeds(&design.clustering, &cfg.vf_table);
        let probe_exec = Executor::new(
            RuntimeConfig::nvfi(n)
                .with_speeds(probe_speeds)
                .with_steal_policy(design.steal(VfStage::Vfi2)),
        );

        for &rate in &sweep.rates {
            let plan = plan_for(rate, sweep.fault_seed);

            let baseline =
                run_system_with_faults(&nvfi, &design.workload, cfg, flow.power(), &plan);

            // VFI degradation reaction: probe the degraded utilization,
            // then let the bottleneck pass step overloaded islands up. A
            // clean plan skips the probe — the designed operating point
            // already accounts for the fault-free profile.
            let mut spec = winoc.clone();
            let mut reassigned = false;
            if !plan.is_none() {
                let mut phx = PhoenixFaults::new(&plan, n, probe_exec.config().master_core);
                let probe = probe_exec.run_with_faults(&design.workload, &mut phx);
                let (reacted_vf, analysis) = reassign_for_degradation(
                    &design.vfi2,
                    &design.clustering,
                    &probe.utilization,
                    &cfg.vf_table,
                    &cfg.bottleneck,
                );
                reassigned = analysis.needs_reassignment();
                spec.vf = reacted_vf;
            }

            let vfi = run_system_with_faults(&spec, &design.workload, cfg, flow.power(), &plan);

            let edp_saving = 1.0 - vfi.report.edp / baseline.report.edp;
            let time_penalty = vfi.report.exec_seconds / baseline.report.exec_seconds - 1.0;
            points.push(FaultSweepPoint {
                app,
                rate,
                baseline,
                vfi,
                reassigned,
                edp_saving,
                time_penalty,
            });
        }
    }

    FaultSweepReport { points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;

    fn tiny_sweep() -> FaultSweepReport {
        let flow = DesignFlow::new(PlatformConfig::small().with_scale(0.002)).unwrap();
        fault_sweep(&flow, &FaultSweepConfig::smoke())
    }

    #[test]
    fn clean_anchor_reports_no_fault_activity() {
        let report = tiny_sweep();
        let clean = &report.points[0];
        assert_eq!(clean.rate, 0.0);
        assert_eq!(clean.fault_stats().injected(), 0, "clean point saw faults");
    }

    #[test]
    fn faulted_point_observes_injected_faults() {
        let report = tiny_sweep();
        let faulted = report
            .points
            .iter()
            .find(|p| p.rate > 0.0)
            .expect("smoke sweep has a faulted point");
        assert!(
            faulted.fault_stats().injected() > 0,
            "no fault activity at rate {}: {:?}",
            faulted.rate,
            faulted.fault_stats()
        );
    }

    #[test]
    fn render_is_deterministic_across_runs() {
        let a = tiny_sweep().render();
        let b = tiny_sweep().render();
        assert_eq!(a, b, "same seed must render byte-identical reports");
        assert!(a.contains("WC"), "report names the swept app:\n{a}");
    }
}
