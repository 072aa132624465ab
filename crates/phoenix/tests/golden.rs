//! Golden digests of the Phoenix executor.
//!
//! Each row pins one 128-bit digest per (application, core count) pair.
//! The digest covers every observable the executor produces, on the
//! `to_bits()` of every `f64`:
//!
//! * every `ExecutionReport` field (phase durations, per-core busy cycles
//!   and utilization, steals, per-core task counts) and every rate of the
//!   aggregate traffic matrix, then every rate of the per-stage matrices
//!   that `Executor::run_staged` hands back beside the report;
//! * every `Timeline` span of the traced run;
//! * for live fault plans at rates 0.1, 0.35 and 0.6, the faulted report,
//!   its `FaultStats` and the final `CoreHealth` of every core.
//!
//! Each pair runs both steal policies, once with uniform full-speed cores
//! and once with heterogeneous speeds and per-stage latencies. Any change
//! that perturbs a schedule, a traffic rate or a fault verdict fails here.
//!
//! Run with `MAPWAVE_GOLDEN_PRINT=1` to print the current digests (used
//! once to capture the table below; afterwards the table is frozen).

use mapwave_faults::{FaultConfig, FaultPlan};
use mapwave_harness::hash::StableHasher;
use mapwave_noc::{NodeId, TrafficMatrix};
use mapwave_phoenix::apps::App;
use mapwave_phoenix::runtime::{Executor, PhoenixFaults, RuntimeConfig};
use mapwave_phoenix::stealing::StealPolicy;
use mapwave_phoenix::workload::{ExecutionReport, PhaseLatencies, PhaseTraffic};
use mapwave_phoenix::Timeline;

const CORES: [usize; 7] = [1, 2, 3, 5, 16, 64, 256];
const FAULT_RATES: [f64; 3] = [0.1, 0.35, 0.6];

/// (app, cores, digest) captured from the executor before it was
/// rewritten as one plain scheduler.
const GOLDEN: &[(&str, usize, &str)] = &[
    ("MM", 1, "0908617b4a1de69d2536288119380efa"),
    ("MM", 2, "756bc2d74f4140a5c31aa8b2a48987d2"),
    ("MM", 3, "36052980faa0a2935d6ed04ec76f857c"),
    ("MM", 5, "9ef6d2d5690ab4260f1120a33526575d"),
    ("MM", 16, "947c7e4486b5b1e3ef1dfa4429a94768"),
    ("MM", 64, "b242a5ce3c3593047cea1a9db0442e93"),
    ("MM", 256, "d41d850a4ed0ca18dabe7b3f44bd137b"),
    ("KMEANS", 1, "893b627d44d669a9045c0f119983a39e"),
    ("KMEANS", 2, "bb38f4932a09f645ea15adddd316490a"),
    ("KMEANS", 3, "1638418daf0a0102ce2445bb9f38d971"),
    ("KMEANS", 5, "6efa7a8902565d3ee860b872185cc369"),
    ("KMEANS", 16, "726e091f57ee2f1e7c2c2b1ea3c1ad61"),
    ("KMEANS", 64, "36a62e8ca220bb06bb0ea6ee34418a85"),
    ("KMEANS", 256, "99817abbb18dbc3ea2cf6df24edc91f5"),
    ("PCA", 1, "45b099d6a700c8e5156489eb03013ba2"),
    ("PCA", 2, "2fc0691934e9486f1b1c597a41f7d838"),
    ("PCA", 3, "f03b09e120006d8de52b56d7899a90fa"),
    ("PCA", 5, "2fa2b7ffc7795cec9b32eae196e9a0e3"),
    ("PCA", 16, "7bfae8e3adb66cd4095081c636be2113"),
    ("PCA", 64, "3b83c39a0fd5733b2ace412d52804bb4"),
    ("PCA", 256, "8967cc733a5e24e43d86f64b7220034f"),
    ("HIST", 1, "29bf88ac51d17ca1d85bd5dc8c9f3026"),
    ("HIST", 2, "e91148fe5de6830e011fc00bba1b1d09"),
    ("HIST", 3, "4aa0e7f28fd13112e92f224ad7ee290d"),
    ("HIST", 5, "b350ac19faf245d045633dc81784358b"),
    ("HIST", 16, "66bd39fa73665597b2cc4094d3e7bea4"),
    ("HIST", 64, "c4eb5e70dd6f1183304054eafe19df88"),
    ("HIST", 256, "20170ec83aa7919711773bc0ab514a38"),
    ("WC", 1, "d831eca213cde09500ca9192c50569c2"),
    ("WC", 2, "3229c1bd183951b27257101811185ec5"),
    ("WC", 3, "800a413628bf97d641490720de0d6ee5"),
    ("WC", 5, "b92e54d205a4f6825462358c4c52da1d"),
    ("WC", 16, "845ef2ce6ef70bab48656246172f9d28"),
    ("WC", 64, "f247cb10d7eaaaca76c01a0ac671e04d"),
    ("WC", 256, "23067775f7393d669ad9a02549adf895"),
    ("LR", 1, "4482bcaa75ba3471de00190145f54716"),
    ("LR", 2, "da8e95af9e1c724ecbe7909a86a4939d"),
    ("LR", 3, "6ed2b6902d9e2ddb03e10f00a37c1be8"),
    ("LR", 5, "71ffdc0b024716d7c1865af38ee51178"),
    ("LR", 16, "c6e2940302a6e0da6ddf2b6de10eaf51"),
    ("LR", 64, "b90046bdf1b45cdbd6872ecb2198d9d8"),
    ("LR", 256, "8bb1416075bf022262ad04b791c03771"),
];

fn hash_f64(h: &mut StableHasher, x: f64) {
    h.write_u64(x.to_bits());
}

fn hash_matrix(h: &mut StableHasher, m: &TrafficMatrix) {
    let n = m.len();
    h.write_len(n);
    for s in 0..n {
        for d in 0..n {
            hash_f64(h, m.rate(NodeId(s), NodeId(d)));
        }
    }
}

fn hash_report(h: &mut StableHasher, r: &ExecutionReport, stages: &PhaseTraffic) {
    h.write(r.name.as_bytes());
    for x in [
        r.phases.lib_init,
        r.phases.map,
        r.phases.reduce,
        r.phases.merge,
    ] {
        hash_f64(h, x);
    }
    h.write_len(r.busy_cycles.len());
    for (&b, &u) in r.busy_cycles.iter().zip(&r.utilization) {
        hash_f64(h, b);
        hash_f64(h, u);
    }
    h.write_u64(r.steals);
    for &t in &r.tasks_per_core {
        h.write_u64(u64::from(t));
    }
    hash_matrix(h, &r.traffic);
    hash_matrix(h, &stages.map);
    hash_matrix(h, &stages.reduce);
    hash_matrix(h, &stages.merge);
}

fn hash_timeline(h: &mut StableHasher, t: &Timeline) {
    h.write_len(t.cores());
    h.write_len(t.spans().len());
    for s in t.spans() {
        h.write_len(s.core);
        h.write(format!("{:?}", s.phase).as_bytes());
        hash_f64(h, s.start);
        hash_f64(h, s.end);
        h.write(&[u8::from(s.stolen)]);
    }
}

fn hash_faults(h: &mut StableHasher, f: &PhoenixFaults) {
    let s = f.stats();
    for v in [
        s.flit_corruptions,
        s.wi_fallbacks,
        s.task_retries,
        s.re_steals,
        s.cores_degraded,
        s.cores_failed,
    ] {
        h.write_u64(v);
    }
    let health = f.health();
    for core in 0..health.len() {
        h.write(&[u8::from(health.is_alive(core))]);
        hash_f64(h, health.factor(core));
    }
}

fn hetero_speeds(n: usize) -> Vec<f64> {
    (0..n).map(|c| [1.0, 0.8, 0.6, 0.9][c % 4]).collect()
}

/// The digest of every run of one (app, cores) pair.
fn digest(app: App, cores: usize) -> String {
    let w = app.workload(0.002, 42, cores);
    let mut h = StableHasher::new();
    let mut injected = 0;
    for policy in [StealPolicy::Default, StealPolicy::VfiCapped] {
        for hetero in [false, true] {
            let mut cfg = RuntimeConfig::nvfi(cores).with_steal_policy(policy);
            if hetero {
                cfg = cfg
                    .with_speeds(hetero_speeds(cores))
                    .with_phase_latencies(PhaseLatencies {
                        lib_init: 25.0,
                        map: 90.0,
                        reduce: 55.0,
                        merge: 140.0,
                    });
            }
            let exec = Executor::new(cfg);
            let (report, timeline) = exec.run_traced(&w);
            assert_eq!(
                exec.run(&w),
                report,
                "{app:?}/{cores}: run and run_traced disagree"
            );
            let (staged, stages) = exec.run_staged(&w, None);
            assert_eq!(staged, report, "{app:?}/{cores}: run_staged disagrees");
            hash_report(&mut h, &report, &stages);
            hash_timeline(&mut h, &timeline);
            for rate in FAULT_RATES {
                let plan = FaultPlan::build(&FaultConfig::at_rate(rate, 7));
                let mut faults = PhoenixFaults::new(&plan, cores, 0);
                let (faulted, stages) = exec.run_staged(&w, Some(&mut faults));
                hash_report(&mut h, &faulted, &stages);
                hash_faults(&mut h, &faults);
                injected += faults.stats().injected();
            }
        }
    }
    assert!(injected > 0, "{app:?}/{cores}: the fault plans never fired");
    h.finish().to_hex()
}

#[test]
fn executor_matches_pinned_goldens() {
    let print = std::env::var_os("MAPWAVE_GOLDEN_PRINT").is_some();
    let mut mismatches = Vec::new();
    let mut checked = 0;
    for app in App::ALL {
        for cores in CORES {
            let got = digest(app, cores);
            if print {
                println!("    (\"{}\", {cores}, \"{got}\"),", app.name());
                continue;
            }
            let expected = GOLDEN
                .iter()
                .find(|&&(a, c, _)| a == app.name() && c == cores)
                .unwrap_or_else(|| panic!("no golden for {} at {cores} cores", app.name()))
                .2;
            if got != expected {
                mismatches.push(format!(
                    "{} at {cores} cores: got {got}, expected {expected}",
                    app.name()
                ));
            }
            checked += 1;
        }
    }
    if !print {
        assert_eq!(checked, GOLDEN.len(), "every golden row must be checked");
        assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    }
}
