//! Exhaustive small-state check of the Phoenix scheduler under faults.
//!
//! Sampling-based property tests can miss a corner of the steal and fault
//! interleavings; this enumerator walks every one on a small grid instead:
//!
//! * 1–3 cores, every per-core speed vector over {1.0, 0.6};
//! * 0–5 map tasks, every cycle vector over {1, 2, 3}·10³ (plus a fixed
//!   two-task Reduce and a Merge tree, so every fault slot is reached);
//! * both steal policies;
//! * no faults, task failures only (0.5), core failures only (0.5), and
//!   `FaultConfig::at_rate(0.9)`, each under four seeds.
//!
//! Every run must terminate with every task executed exactly once, bill
//! at most `max_task_retries` retries per task, and keep the master alive.

use mapwave_faults::{FaultConfig, FaultPlan};
use mapwave_manycore::cache::MemoryProfile;
use mapwave_phoenix::runtime::{Executor, PhoenixFaults, RuntimeConfig};
use mapwave_phoenix::stealing::StealPolicy;
use mapwave_phoenix::task::TaskWork;
use mapwave_phoenix::workload::{AppWorkload, IterationWorkload, MergeSpec};

const REDUCE_TASKS: usize = 2;

fn workload(map_cycles: &[f64]) -> AppWorkload {
    AppWorkload {
        name: "exhaustive",
        lib_init_cycles: 500.0,
        lib_init_instructions: 100.0,
        iterations: vec![IterationWorkload {
            map_tasks: map_cycles
                .iter()
                .map(|&c| TaskWork::new(c, c / 2.0, 1))
                .collect(),
            reduce_tasks: vec![TaskWork::new(1_500.0, 700.0, 0); REDUCE_TASKS],
            merge: Some(MergeSpec {
                total_items: 40.0,
                cycles_per_item: 5.0,
                instructions_per_item: 2.0,
                flits_per_item: 1.0,
            }),
            map_memory: MemoryProfile::new(10.0, 0.05, 0.9),
            reduce_memory: MemoryProfile::new(5.0, 0.05, 0.9),
            kv_flits_per_key: 2.0,
            neighbor_bias: 0.2,
        }],
        digest: 0,
    }
}

/// Every vector of length `len` over `values`, in lexicographic order.
fn vectors(values: &[f64], len: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new()];
    for _ in 0..len {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                values.iter().map(move |&v| {
                    let mut next = prefix.clone();
                    next.push(v);
                    next
                })
            })
            .collect();
    }
    out
}

/// The fault configurations of the grid, each under four seeds.
fn fault_plans() -> Vec<(String, FaultPlan)> {
    let mut plans = Vec::new();
    for seed in 0..4u64 {
        let mut task = FaultConfig::disabled();
        task.task_fail_rate = 0.5;
        let mut core = FaultConfig::disabled();
        core.core_fail_rate = 0.5;
        for (label, mut cfg) in [
            ("none", FaultConfig::disabled()),
            ("task-0.5", task),
            ("core-fail-0.5", core),
            ("at-rate-0.9", FaultConfig::at_rate(0.9, seed)),
        ] {
            cfg.seed = seed;
            plans.push((format!("{label}/seed-{seed}"), FaultPlan::build(&cfg)));
        }
    }
    plans
}

#[test]
fn every_small_schedule_completes_under_faults() {
    let plans = fault_plans();
    let mut runs = 0usize;
    let mut retries = 0u64;
    let mut cores_failed = 0u64;
    for cores in 1..=3usize {
        for speeds in vectors(&[1.0, 0.6], cores) {
            for policy in [StealPolicy::Default, StealPolicy::VfiCapped] {
                let exec = Executor::new(
                    RuntimeConfig::nvfi(cores)
                        .with_speeds(speeds.clone())
                        .with_steal_policy(policy),
                );
                for map_len in 0..=5usize {
                    for cycles in vectors(&[1_000.0, 2_000.0, 3_000.0], map_len) {
                        let w = workload(&cycles);
                        let tasks = map_len + REDUCE_TASKS;
                        for (label, plan) in &plans {
                            let what = || {
                                format!("{cores} cores {speeds:?} {policy:?} {cycles:?} {label}")
                            };
                            let mut faults = PhoenixFaults::new(plan, cores, 0);
                            let report = exec.run_with_faults(&w, &mut faults);
                            let executed: u64 =
                                report.tasks_per_core.iter().map(|&t| u64::from(t)).sum();
                            assert_eq!(
                                executed,
                                tasks as u64,
                                "{}: tasks lost or repeated",
                                what()
                            );
                            let stats = faults.stats();
                            let budget = u64::from(plan.config().max_task_retries);
                            assert!(
                                stats.task_retries <= tasks as u64 * budget,
                                "{}: {} retries exceed the budget",
                                what(),
                                stats.task_retries
                            );
                            assert!(faults.health().is_alive(0), "{}: master died", what());
                            assert!(
                                report.total_cycles().is_finite() && report.total_cycles() > 0.0,
                                "{}: run did not terminate cleanly",
                                what()
                            );
                            if plan.is_none() {
                                assert_eq!(
                                    *stats,
                                    Default::default(),
                                    "{}: inert plan fired",
                                    what()
                                );
                            }
                            retries += stats.task_retries;
                            cores_failed += stats.cores_failed;
                            runs += 1;
                        }
                    }
                }
            }
        }
    }
    // 14 speed vectors × 2 policies × 364 cycle vectors × 16 plans.
    assert_eq!(runs, 14 * 2 * 364 * 16);
    assert!(retries > 0 && cores_failed > 0, "the fault plans must fire");
}
