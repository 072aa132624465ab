//! Property tests of the MapReduce runtime model, driven by deterministic
//! seeded sweeps (in-tree PRNG; no external dependencies).

use mapwave_harness::rng::{RngExt, SeedableRng, StdRng};
use mapwave_manycore::cache::MemoryProfile;
use mapwave_phoenix::prelude::*;
use mapwave_phoenix::stealing::{caps_for_phase, task_cap};
use mapwave_phoenix::workload::IterationWorkload;

fn workload_from(cycles: &[f64], cores: usize) -> AppWorkload {
    AppWorkload {
        name: "prop",
        lib_init_cycles: 500.0,
        lib_init_instructions: 250.0,
        iterations: vec![IterationWorkload {
            map_tasks: cycles
                .iter()
                .map(|&c| TaskWork::new(c, c * 0.7, 3))
                .collect(),
            reduce_tasks: vec![TaskWork::new(100.0, 70.0, 1); cores.min(8)],
            merge: None,
            map_memory: MemoryProfile::new(10.0, 0.05, 0.9),
            reduce_memory: MemoryProfile::new(5.0, 0.05, 0.9),
            kv_flits_per_key: 4.0,
            neighbor_bias: 0.2,
        }],
        digest: 0,
    }
}

fn cycles_vec(rng: &mut StdRng, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let len = rng.random_range(min_len..max_len);
    (0..len)
        .map(|_| lo + (hi - lo) * rng.random::<f64>())
        .collect()
}

/// Every task runs exactly once regardless of speeds and policies, and
/// the observables stay within their definitions.
#[test]
fn executor_conserves_tasks() {
    let mut rng = StdRng::seed_from_u64(0xC001);
    for case in 0..48 {
        let cycles = cycles_vec(&mut rng, 100.0, 100_000.0, 1, 40);
        let cores = rng.random_range(2..12usize);
        let slow = 0.5 + 0.5 * rng.random::<f64>();
        let capped: bool = rng.random();
        let w = workload_from(&cycles, cores);
        let mut speeds = vec![1.0; cores];
        for s in speeds.iter_mut().take(cores / 2) {
            *s = slow;
        }
        let policy = if capped {
            StealPolicy::VfiCapped
        } else {
            StealPolicy::Default
        };
        let report = Executor::new(
            RuntimeConfig::nvfi(cores)
                .with_speeds(speeds)
                .with_steal_policy(policy),
        )
        .run(&w);
        let executed: usize = report.tasks_per_core.iter().map(|&t| t as usize).sum();
        assert_eq!(executed, cycles.len() + cores.min(8), "case {case}");
        assert!(
            report.utilization.iter().all(|&u| (0.0..=1.0).contains(&u)),
            "case {case}"
        );
        assert!(report.total_cycles() > 0.0, "case {case}");
        // Busy time never exceeds cores × wall time.
        let busy: f64 = report.busy_cycles.iter().sum();
        assert!(
            busy <= report.total_cycles() * cores as f64 * (1.0 + 1e-9),
            "case {case}"
        );
    }
}

/// Slowing every core never speeds execution up.
#[test]
fn slowdown_monotonicity() {
    let mut rng = StdRng::seed_from_u64(0xC002);
    for case in 0..32 {
        let cycles = cycles_vec(&mut rng, 1_000.0, 50_000.0, 4, 32);
        let speed = 0.4 + 0.6 * rng.random::<f64>();
        let w = workload_from(&cycles, 8);
        let fast = Executor::new(RuntimeConfig::nvfi(8)).run(&w);
        let slow = Executor::new(RuntimeConfig::nvfi(8).with_speeds(vec![speed; 8])).run(&w);
        assert!(
            slow.total_cycles() >= fast.total_cycles() - 1e-6,
            "case {case}"
        );
    }
}

/// Eq. (3): the cap is monotone in tasks and speed, zero-safe, and
/// uncapped exactly at the system maximum.
#[test]
fn task_cap_properties() {
    let mut rng = StdRng::seed_from_u64(0xC003);
    for case in 0..64 {
        let tasks = rng.random_range(0..10_000usize);
        let cores = rng.random_range(1..256usize);
        let s1 = 0.01 + 0.99 * rng.random::<f64>();
        let s2 = 0.01 + 0.99 * rng.random::<f64>();
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        assert!(
            task_cap(tasks, cores, lo) <= task_cap(tasks, cores, hi),
            "case {case}"
        );
        assert_eq!(task_cap(tasks, cores, 1.0), usize::MAX, "case {case}");
        // Normalised caps leave the fastest core unbounded.
        let speeds = vec![lo, hi, hi];
        let caps = caps_for_phase(StealPolicy::VfiCapped, tasks, &speeds);
        assert_eq!(caps[1], usize::MAX, "case {case}");
        assert_eq!(caps[2], usize::MAX, "case {case}");
    }
}

/// The executor is a pure function of its inputs.
#[test]
fn executor_determinism() {
    let mut rng = StdRng::seed_from_u64(0xC006);
    for case in 0..16 {
        let cycles = cycles_vec(&mut rng, 100.0, 10_000.0, 1, 24);
        let cores = rng.random_range(2..8usize);
        let w = workload_from(&cycles, cores);
        let a = Executor::new(RuntimeConfig::nvfi(cores)).run(&w);
        let b = Executor::new(RuntimeConfig::nvfi(cores)).run(&w);
        assert_eq!(a, b, "case {case}");
    }
}

/// Traffic matrices from executions have an empty diagonal and finite
/// nonnegative rates.
#[test]
fn execution_traffic_is_well_formed() {
    let mut rng = StdRng::seed_from_u64(0xC007);
    for case in 0..24 {
        let cycles = cycles_vec(&mut rng, 1_000.0, 20_000.0, 4, 24);
        let w = workload_from(&cycles, 6);
        let report = Executor::new(RuntimeConfig::nvfi(6)).run(&w);
        for s in 0..6 {
            for d in 0..6 {
                let r = report
                    .traffic
                    .rate(mapwave_noc::NodeId(s), mapwave_noc::NodeId(d));
                assert!(r.is_finite() && r >= 0.0, "case {case}");
                if s == d {
                    assert_eq!(r, 0.0, "case {case}");
                }
            }
        }
    }
}
