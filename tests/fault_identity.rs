//! Cross-layer invariants of the deterministic fault model.
//!
//! Three guarantees hold together:
//!
//! 1. **Zero-cost when disabled** — `FaultPlan::none()` leaves the full
//!    coupled simulation (runtime schedule, NoC transport, energies, EDP)
//!    bit-identical to the fault-free entry points;
//! 2. **Deterministic when enabled** — the same fault seed reproduces the
//!    survivability report byte for byte, and a different seed diverges;
//! 3. **Isolated streams** — fault decisions never consume workload
//!    randomness, so generated inputs are unperturbed by any plan.
//!
//! One more test drives the survivability sweep's degradation reaction
//! (`reassign_for_degradation`) end to end.

use mapwave::prelude::*;
use mapwave::survivability::{fault_sweep, FaultSweepConfig};
use mapwave_faults::{FaultConfig, FaultPlan};
use mapwave_harness::telemetry;
use mapwave_phoenix::apps::App;
use mapwave_phoenix::workload::AppWorkload;

fn small_flow() -> DesignFlow {
    DesignFlow::new(PlatformConfig::small().with_scale(0.002)).unwrap()
}

fn workload_bits(w: &AppWorkload) -> Vec<u64> {
    w.iterations
        .iter()
        .flat_map(|it| it.map_tasks.iter().chain(&it.reduce_tasks))
        .flat_map(|t| [t.cycles.to_bits(), t.instructions.to_bits()])
        .collect()
}

#[test]
fn disabled_plan_is_bit_identical_across_the_full_system() {
    let flow = small_flow();
    let cfg = flow.config();
    let design = flow.design(App::Kmeans);
    let spec = flow.winoc_spec(&design, cfg.placement);

    let clean = run_system(&spec, &design.workload, cfg, flow.power());
    let faulted = run_system_with_faults(
        &spec,
        &design.workload,
        cfg,
        flow.power(),
        &FaultPlan::none(),
    );
    let r = &faulted.report;

    assert_eq!(r.edp.to_bits(), clean.edp.to_bits(), "EDP drift");
    assert_eq!(
        r.exec_seconds.to_bits(),
        clean.exec_seconds.to_bits(),
        "time drift"
    );
    assert_eq!(
        r.core_energy_j.to_bits(),
        clean.core_energy_j.to_bits(),
        "core-energy drift"
    );
    assert_eq!(
        r.net_energy_j.to_bits(),
        clean.net_energy_j.to_bits(),
        "net-energy drift"
    );
    assert_eq!(r.net.flits_delivered, clean.net.flits_delivered);
    assert_eq!(r.net.packets_delivered, clean.net.packets_delivered);
    let util_bits = |rep: &RunReport| -> Vec<u64> {
        rep.exec.utilization.iter().map(|u| u.to_bits()).collect()
    };
    assert_eq!(util_bits(r), util_bits(&clean), "utilization drift");
    assert_eq!(r.exec.tasks_per_core, clean.exec.tasks_per_core);
    assert_eq!(faulted.faults.injected(), 0, "phantom fault activity");
}

#[test]
fn fault_sweep_is_seed_deterministic_and_seed_sensitive() {
    let flow = small_flow();
    let sweep = FaultSweepConfig::smoke();
    let a = fault_sweep(&flow, &sweep).render();
    let b = fault_sweep(&flow, &sweep).render();
    assert_eq!(a, b, "same fault seed must render byte-identically");

    let mut reseeded = sweep.clone();
    reseeded.fault_seed ^= 0xDEAD_BEEF;
    let c = fault_sweep(&flow, &reseeded).render();
    assert_ne!(
        a, c,
        "different fault seeds should realize different faults"
    );
}

/// The degradation reaction fires end to end: on the paper platform at
/// scale 0.02, WC's fault-injected probe flags overloaded islands and
/// steps them up, and the clean anchor never probes.
#[test]
fn fault_sweep_reassigns_wc_under_faults() {
    let flow = DesignFlow::new(PlatformConfig::paper().with_scale(0.02)).unwrap();
    let sweep = FaultSweepConfig {
        apps: vec![App::WordCount],
        rates: vec![0.0, 0.05],
        ..FaultSweepConfig::smoke()
    };
    let report = fault_sweep(&flow, &sweep);
    let reassigned: Vec<(f64, bool)> = report
        .points
        .iter()
        .map(|p| (p.rate, p.reassigned))
        .collect();
    assert_eq!(reassigned, [(0.0, false), (0.05, true)]);
}

#[test]
fn workload_generation_is_unperturbed_by_fault_streams() {
    let before = workload_bits(&App::WordCount.workload(0.002, 42, 16));

    // Exercise every fault-decision path between the two generations.
    let plan = FaultPlan::build(&FaultConfig::at_rate(0.3, 42));
    for ch in 0..8usize {
        let _ = plan.link_corrupts(ch, 0);
    }
    for core in 0..16usize {
        let _ = plan.core_event(core, 0);
    }
    for task in 0..32u64 {
        let _ = plan.task_fails(task, 0);
    }

    let after = workload_bits(&App::WordCount.workload(0.002, 42, 16));
    assert_eq!(before, after, "fault plan perturbed workload generation");
}

#[test]
fn faulted_run_emits_fault_telemetry() {
    let flow = small_flow();
    let cfg = flow.config();
    let design = flow.design(App::WordCount);
    let plan = FaultPlan::build(&FaultConfig::at_rate(0.2, 7));

    telemetry::enable();
    let report = run_system_with_faults(
        &flow.nvfi_spec(),
        &design.workload,
        cfg,
        flow.power(),
        &plan,
    );
    telemetry::flush();
    let snap = telemetry::snapshot();
    telemetry::disable();

    assert!(report.faults.injected() > 0, "rate 0.2 injected nothing");
    // Other tests may run concurrently under the same global telemetry,
    // so assert lower bounds only.
    assert!(
        snap.counter("fault.injected") >= report.faults.injected(),
        "fault.injected counter missing"
    );
    assert!(
        snap.counter("fault.task_retries") >= report.faults.task_retries,
        "fault.task_retries counter missing"
    );
}
