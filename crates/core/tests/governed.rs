//! Power-capping governor and banked-DRAM integration tests.
//!
//! The acceptance bar for the governed path: a cap at 80% of the static
//! design's peak power is never exceeded in any epoch — on WordCount and
//! PCA, clean and faulted — two back-to-back governed runs give
//! byte-identical reports, and replaying a static run the caller already
//! holds gives exactly the governed run's report. The DRAM side pins the
//! boundary behaviour:
//! `DramConfig::ideal()` is bit-identical to the pre-DRAM platform, and
//! zero-miss workloads bypass the banked controller model entirely.

use mapwave::config::PlatformConfig;
use mapwave::design_flow::{DesignFlow, VfStage};
use mapwave::governed::{
    replay_governed, run_system_governed, run_system_governed_with_faults, GovernedRunReport,
};
use mapwave::system::{run_system, run_system_with_faults, FaultRunReport};
use mapwave_faults::{FaultConfig, FaultPlan};
use mapwave_governor::GovernorConfig;
use mapwave_manycore::dram::DramConfig;
use mapwave_phoenix::apps::App;

fn test_cfg() -> PlatformConfig {
    PlatformConfig::small().with_scale(0.002)
}

fn governed(
    cfg: &PlatformConfig,
    app: App,
    cap_w: f64,
    plan: Option<&FaultPlan>,
) -> GovernedRunReport {
    let flow = DesignFlow::new(cfg.clone()).unwrap();
    let design = flow.design(app);
    let spec = flow.vfi_mesh_spec(&design, VfStage::Vfi2);
    let gov = GovernorConfig::new(cap_w).with_epoch_cycles(20_000);
    match plan {
        None => run_system_governed(&spec, &design.workload, cfg, flow.power(), &gov),
        Some(plan) => {
            run_system_governed_with_faults(&spec, &design.workload, cfg, flow.power(), &gov, plan)
        }
    }
}

fn fault_plan() -> FaultPlan {
    FaultPlan::build(&FaultConfig::at_rate(0.05, 0xCA9))
}

#[test]
fn cap_at_80_percent_of_peak_is_respected_every_epoch() {
    let cfg = test_cfg();
    for app in [App::WordCount, App::Pca] {
        // An effectively uncapped run measures the static peak.
        let probe = governed(&cfg, app, 1e6, None);
        let peak = probe.static_peak_power_w;
        assert!(peak > 0.0);
        let cap = 0.8 * peak;

        for plan in [None, Some(fault_plan())] {
            let faulted = plan.is_some();
            let run = governed(&cfg, app, cap, plan.as_ref());
            assert!(!run.epochs.is_empty(), "{app:?}: empty epoch trace");
            assert!(
                run.cap_respected(),
                "{app:?} faulted={faulted}: peak measured {} over cap {cap}",
                run.peak_measured_power_w()
            );
            assert_eq!(
                run.stats.cap_violations, 0,
                "{app:?} faulted={faulted}: 80% of peak must be feasible"
            );
            assert!(
                run.stats.throttles > 0,
                "{app:?} faulted={faulted}: a sub-peak cap must throttle"
            );
            // Every epoch's measured power is also bounded by its own
            // projection (the hard-guarantee invariant).
            for (k, e) in run.epochs.iter().enumerate() {
                assert!(
                    e.measured_power_w <= e.projected_power_w + 1e-9,
                    "{app:?} epoch {k}: measured {} above projection {}",
                    e.measured_power_w,
                    e.projected_power_w
                );
            }
        }
    }
}

#[test]
fn uncapped_governed_run_matches_the_static_run() {
    let cfg = test_cfg();
    let run = governed(&cfg, App::WordCount, 1e6, None);
    assert_eq!(run.stats.throttles, 0);
    assert_eq!(run.stats.cap_violations, 0);
    assert!(
        (run.slowdown() - 1.0).abs() < 1e-9,
        "uncapped slowdown {}",
        run.slowdown()
    );
    let energy_ratio = run.governed_core_energy_j / run.base.report.core_energy_j;
    assert!(
        (energy_ratio - 1.0).abs() < 1e-9,
        "uncapped energy ratio {energy_ratio}"
    );
}

#[test]
fn capped_run_trades_time_for_power() {
    let cfg = test_cfg();
    let probe = governed(&cfg, App::Pca, 1e6, None);
    let run = governed(&cfg, App::Pca, 0.8 * probe.static_peak_power_w, None);
    assert!(
        run.slowdown() >= 1.0,
        "throttling cannot speed the run up: {}",
        run.slowdown()
    );
    assert!(
        run.peak_measured_power_w() < probe.peak_measured_power_w(),
        "capped peak must sit below the uncapped peak"
    );
}

#[test]
fn governed_report_is_byte_deterministic_across_runs() {
    let cfg = test_cfg();
    let cap = 0.8 * governed(&cfg, App::WordCount, 1e6, None).static_peak_power_w;
    for plan in [None, Some(fault_plan())] {
        let a = governed(&cfg, App::WordCount, cap, plan.as_ref());
        let b = governed(&cfg, App::WordCount, cap, plan.as_ref());
        assert_eq!(a.epochs, b.epochs, "epoch traces diverge across runs");
        for (x, y, what) in [
            (a.governed_exec_seconds, b.governed_exec_seconds, "time"),
            (a.governed_core_energy_j, b.governed_core_energy_j, "energy"),
            (a.governed_edp, b.governed_edp, "edp"),
            (a.base.report.edp, b.base.report.edp, "base edp"),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} not byte-identical");
        }
    }
}

#[test]
fn faulted_governed_run_composes_with_reassignment() {
    let cfg = test_cfg();
    let run = governed(&cfg, App::WordCount, 1e6, Some(&fault_plan()));
    // The faulted path must at least have consulted the degradation
    // reaction and carried fault activity through the base report.
    assert!(run.base.faults.injected() > 0, "plan injected nothing");
    assert!(run.cap_respected(), "generous cap trivially respected");
}

/// Every field of a governed report as `(name, bits)` pairs, `f64`s by
/// `to_bits`, so a mismatch names the field that differs.
fn governed_fields(r: &GovernedRunReport) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut f = |name: String, x: f64| out.push((name, x.to_bits()));
    let base = &r.base.report;
    f(format!("base.label {}", base.label), 0.0);
    f("base.exec_seconds".into(), base.exec_seconds);
    f("base.core_energy_j".into(), base.core_energy_j);
    f("base.net_energy_j".into(), base.net_energy_j);
    f("base.edp".into(), base.edp);
    f("base.exec.phases.total".into(), base.exec.phases.total());
    for (c, (&b, &u)) in base
        .exec
        .busy_cycles
        .iter()
        .zip(&base.exec.utilization)
        .enumerate()
    {
        f(format!("base.exec.busy_cycles[{c}]"), b);
        f(format!("base.exec.utilization[{c}]"), u);
    }
    f("cap_w".into(), r.cap_w);
    f("governed_exec_seconds".into(), r.governed_exec_seconds);
    f("governed_core_energy_j".into(), r.governed_core_energy_j);
    f("governed_edp".into(), r.governed_edp);
    f("static_peak_power_w".into(), r.static_peak_power_w);
    for (k, e) in r.epochs.iter().enumerate() {
        f(format!("epochs[{k}].levels {:?}", e.levels), 0.0);
        f(
            format!("epochs[{k}].projected_power_w"),
            e.projected_power_w,
        );
        f(format!("epochs[{k}].measured_power_w"), e.measured_power_w);
        f(
            format!(
                "epochs[{k}] throttled {} boosted {} violated {}",
                e.throttled, e.boosted, e.violated
            ),
            0.0,
        );
    }
    out.push((format!("base.faults {:?}", r.base.faults), 0));
    out.push((format!("stats {:?}", r.stats), 0));
    out.push((format!("reassigned {}", r.reassigned), 0));
    out
}

#[test]
fn replaying_a_supplied_static_run_equals_the_governed_run() {
    let cfg = test_cfg();
    let flow = DesignFlow::new(cfg.clone()).unwrap();
    let design = flow.design(App::WordCount);
    let spec = flow.vfi_mesh_spec(&design, VfStage::Vfi2);
    let (workload, power) = (&design.workload, flow.power());
    let plan = fault_plan();
    let peak = governed(&cfg, App::WordCount, 1e6, None).static_peak_power_w;
    let mut binding = 0;
    for cap_w in [1e6, 0.8 * peak] {
        let gov = GovernorConfig::new(cap_w).with_epoch_cycles(20_000);

        let clean = FaultRunReport {
            report: run_system(&spec, workload, &cfg, power),
            faults: Default::default(),
        };
        let replayed = replay_governed(&spec, &cfg, power, &gov, clean, None);
        let governed = run_system_governed(&spec, workload, &cfg, power, &gov);
        assert!(!governed.epochs.is_empty());
        assert_eq!(
            governed_fields(&replayed),
            governed_fields(&governed),
            "clean, cap {cap_w} W"
        );

        let faulted = run_system_with_faults(&spec, workload, &cfg, power, &plan);
        let replayed = replay_governed(&spec, &cfg, power, &gov, faulted, Some(&plan));
        let governed = run_system_governed_with_faults(&spec, workload, &cfg, power, &gov, &plan);
        assert!(governed.base.faults.injected() > 0, "plan injected nothing");
        assert_eq!(
            governed_fields(&replayed),
            governed_fields(&governed),
            "faulted, cap {cap_w} W"
        );
        if governed.stats.throttles > 0 {
            binding += 1;
        }
    }
    assert_eq!(binding, 1, "exactly the 80%-of-peak cap binds");
}

#[test]
fn explicit_ideal_dram_is_bit_identical_to_the_default() {
    let cfg = test_cfg();
    let flow = DesignFlow::new(cfg.clone()).unwrap();
    let design = flow.design(App::WordCount);
    let spec = flow.vfi_mesh_spec(&design, VfStage::Vfi2);
    let base = run_system(&spec, &design.workload, &cfg, flow.power());

    let cfg_ideal = cfg.clone().with_dram(DramConfig::ideal());
    let ideal = run_system(&spec, &design.workload, &cfg_ideal, flow.power());
    assert_eq!(base.exec, ideal.exec);
    assert_eq!(base.edp.to_bits(), ideal.edp.to_bits());
    assert_eq!(
        base.exec_seconds.to_bits(),
        ideal.exec_seconds.to_bits(),
        "ideal DRAM must never perturb the golden path"
    );
}

#[test]
fn zero_miss_workloads_bypass_the_banked_controller() {
    let cfg = test_cfg();
    let flow = DesignFlow::new(cfg.clone()).unwrap();
    let design = flow.design(App::WordCount);
    let spec = flow.vfi_mesh_spec(&design, VfStage::Vfi2);
    // Strip all off-chip misses: every L2 access hits on-chip.
    let mut workload = design.workload.clone();
    for it in &mut workload.iterations {
        it.map_memory.l2_miss_rate = 0.0;
        it.reduce_memory.l2_miss_rate = 0.0;
    }
    let ideal = run_system(&spec, &workload, &cfg, flow.power());
    let banked_cfg = cfg.clone().with_dram(DramConfig::banked());
    let banked = run_system(&spec, &workload, &banked_cfg, flow.power());
    assert_eq!(
        ideal.exec, banked.exec,
        "zero-miss run must never consult DRAM"
    );
    assert_eq!(ideal.edp.to_bits(), banked.edp.to_bits());
}

#[test]
fn banked_dram_engages_on_missing_workloads() {
    let cfg = test_cfg();
    let flow = DesignFlow::new(cfg.clone()).unwrap();
    let design = flow.design(App::WordCount);
    let spec = flow.vfi_mesh_spec(&design, VfStage::Vfi2);
    let ideal = run_system(&spec, &design.workload, &cfg, flow.power());
    let banked_cfg = cfg.clone().with_dram(DramConfig::banked());
    let banked = run_system(&spec, &design.workload, &banked_cfg, flow.power());
    assert_ne!(
        ideal.exec_seconds.to_bits(),
        banked.exec_seconds.to_bits(),
        "a missing workload must observe controller queueing"
    );
}
