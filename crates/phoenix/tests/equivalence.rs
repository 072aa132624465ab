//! Determinism, victim-order and fault-path checks of the Phoenix
//! scheduler, by direct assertion.
//!
//! The bit-level pin of every observable across apps and platforms lives
//! in `tests/golden.rs`; the exhaustive small-state fault check in
//! `tests/exhaustive.rs`.

use mapwave_faults::{FaultConfig, FaultPlan};
use mapwave_manycore::cache::MemoryProfile;
use mapwave_phoenix::apps::App;
use mapwave_phoenix::runtime::{Executor, PhoenixFaults, RuntimeConfig};
use mapwave_phoenix::stealing::StealPolicy;
use mapwave_phoenix::task::TaskWork;
use mapwave_phoenix::workload::{AppWorkload, IterationWorkload};

/// Heterogeneous speed vector of `n` cores cycling through the paper's
/// relative operating points.
fn hetero_speeds(n: usize) -> Vec<f64> {
    (0..n).map(|c| [1.0, 0.8, 0.6, 0.9][c % 4]).collect()
}

#[test]
fn determinism_across_policies_and_speeds() {
    // `run()`, `run_traced().0` and a run under an inert fault plan must
    // agree for both steal policies across heterogeneous speed vectors,
    // and so must the per-stage traffic that `run_staged` hands back with
    // and without the inert plan.
    let w = App::Kmeans.workload(0.002, 11, 16);
    for policy in [StealPolicy::Default, StealPolicy::VfiCapped] {
        for speeds in [
            vec![1.0; 16],
            hetero_speeds(16),
            (0..16).map(|c| 0.5 + 0.5 * (c as f64 / 15.0)).collect(),
        ] {
            let exec = Executor::new(
                RuntimeConfig::nvfi(16)
                    .with_speeds(speeds.clone())
                    .with_steal_policy(policy),
            );
            let plain = exec.run(&w);
            let (traced, _) = exec.run_traced(&w);
            assert_eq!(
                plain, traced,
                "run/run_traced diverged at policy={policy:?} speeds={speeds:?}"
            );
            let mut faults = PhoenixFaults::new(&FaultPlan::none(), 16, 0);
            assert_eq!(
                plain,
                exec.run_with_faults(&w, &mut faults),
                "inert fault plan changed the run at policy={policy:?} speeds={speeds:?}"
            );
            assert_eq!(*faults.stats(), Default::default(), "inert plan fired");
            let (staged, stages) = exec.run_staged(&w, None);
            assert_eq!(
                plain, staged,
                "run/run_staged diverged at policy={policy:?} speeds={speeds:?}"
            );
            let mut faults = PhoenixFaults::new(&FaultPlan::none(), 16, 0);
            assert_eq!(
                (staged, stages),
                exec.run_staged(&w, Some(&mut faults)),
                "inert fault plan changed the staged run at policy={policy:?} speeds={speeds:?}"
            );
        }
    }
}

#[test]
fn steal_order_pins_lowest_index_victim_on_ties() {
    // Satellite regression: 8 tasks round-robin over 4 equal-speed cores
    // (two per queue). Cores 2 and 3 get tiny tasks and go hunting while
    // cores 0 and 1 still run their first task with exactly one task left
    // in each queue — a tie on queue length. The victim order (longest
    // queue, lowest index on ties) resolves ties to the *lowest*
    // core index, so core 2's steal must take core 0's task (cycles A),
    // not core 1's (cycles B). The stolen span durations expose which.
    let a_cycles = 2_000_000.0;
    let b_cycles = 1_000_000.0;
    let long = 8_000_000.0;
    let tiny = 10.0;
    let mk = |cycles: f64| TaskWork::new(cycles, 0.0, 0);
    let w = AppWorkload {
        name: "steal-order",
        lib_init_cycles: 0.0,
        lib_init_instructions: 0.0,
        iterations: vec![IterationWorkload {
            map_tasks: vec![
                mk(long),     // t0 → core 0 (runs long)
                mk(long),     // t1 → core 1 (runs long)
                mk(tiny),     // t2 → core 2
                mk(tiny),     // t3 → core 3
                mk(a_cycles), // t4 → core 0's queue, stolen by core 2
                mk(b_cycles), // t5 → core 1's queue, stolen by core 3
                mk(tiny),     // t6 → core 2's queue
                mk(tiny),     // t7 → core 3's queue
            ],
            reduce_tasks: vec![],
            merge: None,
            map_memory: MemoryProfile::new(0.0, 0.0, 0.0),
            reduce_memory: MemoryProfile::new(0.0, 0.0, 0.0),
            kv_flits_per_key: 0.0,
            neighbor_bias: 0.0,
        }],
        digest: 0,
    };
    let exec = Executor::new(RuntimeConfig::nvfi(4));
    let (report, timeline) = exec.run_traced(&w);
    assert_eq!(report.steals, 2);
    assert_eq!(report.tasks_per_core, vec![1, 1, 3, 3]);
    let steal_overhead = exec.config().steal_overhead_cycles;
    let stolen_dur = |core: usize| -> f64 {
        timeline
            .spans()
            .iter()
            .find(|s| s.core == core && s.stolen)
            .unwrap_or_else(|| panic!("core {core} must have a stolen span"))
            .duration()
    };
    // Core 2 stole first and took the tied-length victim with the lowest
    // index (core 0), whose queued task was the A-cycle one.
    assert_eq!(
        stolen_dur(2).to_bits(),
        (a_cycles + steal_overhead).to_bits()
    );
    assert_eq!(
        stolen_dur(3).to_bits(),
        (b_cycles + steal_overhead).to_bits()
    );
}

#[test]
fn task_faults_retry_deterministically_and_still_complete() {
    // A live plan with only task failures enabled: every task still
    // executes (forced success at the retry budget), retries are billed,
    // execution stretches, and the same seed replays bit-identically.
    let w = App::WordCount.workload(0.002, 42, 16);
    let exec = Executor::new(RuntimeConfig::nvfi(16));
    let mut cfg = FaultConfig::disabled();
    cfg.task_fail_rate = 0.2;
    cfg.seed = 9;
    let plan = FaultPlan::build(&cfg);

    let run = || {
        let mut faults = PhoenixFaults::new(&plan, 16, 0);
        let report = exec.run_with_faults(&w, &mut faults);
        (report, *faults.stats())
    };
    let (report_a, stats_a) = run();
    let (report_b, stats_b) = run();
    assert_eq!(report_a, report_b, "same fault seed must replay exactly");
    assert_eq!(stats_a, stats_b);
    assert!(
        stats_a.task_retries > 0,
        "20% failure rate must bill retries"
    );
    assert_eq!(stats_a.cores_failed, 0);
    assert_eq!(stats_a.cores_degraded, 0);

    let clean = exec.run(&w);
    assert_eq!(
        clean
            .tasks_per_core
            .iter()
            .map(|&t| u64::from(t))
            .sum::<u64>(),
        report_a
            .tasks_per_core
            .iter()
            .map(|&t| u64::from(t))
            .sum::<u64>(),
        "every task still executes exactly once (successfully)"
    );
    assert!(
        report_a.total_cycles() > clean.total_cycles(),
        "retries and backoff must stretch execution"
    );
}

#[test]
fn dead_cores_are_drained_by_survivors() {
    // Aggressive core failures: dead cores' queued tasks must be re-stolen
    // by survivors, all work completes, and dead cores stop accumulating
    // tasks once killed.
    let w = App::Kmeans.workload(0.002, 11, 16);
    let exec = Executor::new(RuntimeConfig::nvfi(16));
    let mut cfg = FaultConfig::disabled();
    cfg.core_fail_rate = 0.35;
    cfg.core_degrade_rate = 0.3;
    cfg.seed = 4;
    let plan = FaultPlan::build(&cfg);
    let mut faults = PhoenixFaults::new(&plan, 16, 0);
    let report = exec.run_with_faults(&w, &mut faults);
    let stats = *faults.stats();
    assert!(
        stats.cores_failed > 0,
        "35%/slot must kill cores: {stats:?}"
    );
    assert!(stats.re_steals > 0, "survivors must drain dead queues");
    assert!(faults.health().is_alive(0), "master is protected");
    assert!(faults.health().alive_count() < 16);
    let clean = exec.run(&w);
    assert_eq!(
        clean
            .tasks_per_core
            .iter()
            .map(|&t| u64::from(t))
            .sum::<u64>(),
        report
            .tasks_per_core
            .iter()
            .map(|&t| u64::from(t))
            .sum::<u64>(),
        "all tasks complete despite dead cores"
    );
    assert!(
        report.total_cycles() > clean.total_cycles(),
        "losing cores must stretch execution"
    );
}

#[test]
fn different_fault_seeds_diverge() {
    let w = App::WordCount.workload(0.002, 42, 16);
    let exec = Executor::new(RuntimeConfig::nvfi(16));
    let run = |seed: u64| {
        let plan = FaultPlan::build(&FaultConfig::at_rate(0.15, seed));
        let mut faults = PhoenixFaults::new(&plan, 16, 0);
        exec.run_with_faults(&w, &mut faults)
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(
        a.total_cycles().to_bits(),
        b.total_cycles().to_bits(),
        "independent fault seeds should produce different schedules"
    );
}
