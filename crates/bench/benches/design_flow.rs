//! Wall-clock micro-benches of the design-flow optimizer kernels and the
//! full-system report path.
//!
//! Three stages are timed:
//!
//! * `cluster_refine` — multi-start Eq.(1) clustering at n=64, reference
//!   (full swap-cost re-evaluation) vs incremental (aggregated W table +
//!   improving-move cache), plus n=256 and n=1024 rows comparing the flat
//!   incremental path against the multilevel coarsen/solve/refine hierarchy;
//! * `wi_anneal` — WI placement annealing on an 8×8 small-world fabric,
//!   reference (routing table per candidate overlay) vs incremental
//!   (distance-only up*/down* evaluation), plus a 16×16 row timing the
//!   coarse-then-fine large-die schedule against the flat reference;
//! * `run_system` — one WordCount WiNoC report on the 64-core paper
//!   platform with the reused-simulator relaxation loop (current
//!   implementation only; the pre-optimization median is recorded in
//!   `BENCH_design_flow.json`), plus the full 256-core report
//!   (budgeted at ≤10× the 64-core row) and a power-governed row
//!   (same static run + the capped epoch replay) that isolates the
//!   governor's overhead over the plain report.
//!
//! Both sides of each reference/incremental pair at the 64-core operating
//! points are required to produce bit-identical results (see
//! `crates/core/tests/equivalence.rs` and the unit tests in
//! `clustering.rs` / `placement.rs`), so those timings compare like for
//! like. The multilevel rows at n=256/1024 and the 16×16 anneal row time
//! deliberately different (hierarchical) algorithms against the flat path
//! they replace at scale.
//!
//! Prints one line per scenario; set `MAPWAVE_BENCH_JSON=<path>` to also
//! write the medians as JSON (used to record before/after numbers in
//! `BENCH_design_flow.json`).

use mapwave::config::{PlacementStrategy, PlatformConfig};
use mapwave::design_flow::DesignFlow;
use mapwave::placement::{anneal_wi_placement, anneal_wi_placement_reference};
use mapwave::system::run_system;
use mapwave_noc::node::grid_positions;
use mapwave_noc::prelude::*;
use mapwave_phoenix::apps::App;
use mapwave_vfi::clustering::ClusteringProblem;
use std::time::Instant;

/// Seeded clustering instance matching the equivalence tests.
fn lcg_instance(n: usize, seed: u64) -> (Vec<f64>, Vec<Vec<f64>>) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) as f64) / (u32::MAX as f64 / 2.0)
    };
    let u: Vec<f64> = (0..n).map(|_| next().min(1.0)).collect();
    let f: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|p| if i == p { 0.0 } else { next() * 0.1 })
                .collect()
        })
        .collect();
    (u, f)
}

/// Seeded dense traffic matching the placement equivalence tests.
fn lcg_traffic(n: usize, seed: u64) -> TrafficMatrix {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) as f64) / (u32::MAX as f64 / 2.0)
    };
    let mut traffic = TrafficMatrix::zeros(n);
    for s in 0..n {
        for d in 0..n {
            if s != d {
                let r = next();
                if r > 0.7 {
                    traffic.set(NodeId(s), NodeId(d), r * 0.1);
                }
            }
        }
    }
    traffic
}

/// Median wall-clock seconds per call over enough samples to spend a
/// bounded ~second per scenario.
fn median_secs<F: FnMut()>(mut f: F) -> f64 {
    let start = Instant::now();
    f();
    let once = start.elapsed().as_secs_f64().max(1e-6);
    let samples = ((1.0 / once).ceil() as usize).clamp(3, 30);
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

fn main() {
    let mut results: Vec<(&str, f64)> = Vec::new();

    // Clustering refinement, n=64 m=4, 4 starts (the design-flow default
    // operating point for a 64-process workload).
    let (u, f) = lcg_instance(64, 7);
    let prob = ClusteringProblem::new(u, f, 4).expect("valid instance");
    results.push((
        "cluster_refine_n64/reference",
        median_secs(|| {
            std::hint::black_box(prob.solve_with_starts_reference(4, 7));
        }),
    ));
    results.push((
        "cluster_refine_n64/incremental",
        median_secs(|| {
            std::hint::black_box(prob.solve_with_starts(4, 7));
        }),
    ));

    // Beyond the paper's 64 cores the flat refinement loop is the
    // bottleneck; the multilevel path coarsens heavy talkers pairwise,
    // solves the 64-supernode problem exactly, and polishes each level
    // with the same incremental refine.
    for n in [256usize, 1024] {
        let (u, f) = lcg_instance(n, 11);
        let prob = ClusteringProblem::new(u, f, 4).expect("valid instance");
        let flat = median_secs(|| {
            std::hint::black_box(prob.solve_with_starts(4, 7));
        });
        let multilevel = median_secs(|| {
            std::hint::black_box(prob.solve_multilevel_with_starts(4, 7));
        });
        results.push((
            match n {
                256 => "cluster_refine_n256/flat",
                _ => "cluster_refine_n1024/flat",
            },
            flat,
        ));
        results.push((
            match n {
                256 => "cluster_refine_n256/multilevel",
                _ => "cluster_refine_n1024/multilevel",
            },
            multilevel,
        ));
    }

    // WI annealing on an 8×8 small-world fabric, 3 WIs per quadrant over
    // 3 channels — the paper's WiNoC configuration at 64 cores.
    let clusters: Vec<usize> = (0..64).map(|i| (i % 8) / 4 + 2 * ((i / 8) / 4)).collect();
    let topo = SmallWorldBuilder::new(grid_positions(8, 8, 2.5), clusters)
        .alpha(1.5)
        .seed(5)
        .build()
        .expect("builds");
    let traffic = lcg_traffic(64, 11);
    results.push((
        "wi_anneal_64/reference",
        median_secs(|| {
            std::hint::black_box(anneal_wi_placement_reference(
                &topo, &traffic, 8, 8, 3, 3, 7,
            ));
        }),
    ));
    results.push((
        "wi_anneal_64/incremental",
        median_secs(|| {
            std::hint::black_box(anneal_wi_placement(&topo, &traffic, 8, 8, 3, 3, 7));
        }),
    ));

    // The same anneal on the 16×16 fabric with the scaled wireless budget
    // (6 WIs per quadrant over 6 channels): flat reference vs the
    // coarse-then-fine schedule with in-place relocate/undo moves.
    let clusters256: Vec<usize> = (0..256)
        .map(|i| (i % 16) / 8 + 2 * ((i / 16) / 8))
        .collect();
    let topo256 = SmallWorldBuilder::new(grid_positions(16, 16, 2.5), clusters256)
        .alpha(1.5)
        .seed(5)
        .build()
        .expect("builds");
    let traffic256 = lcg_traffic(256, 11);
    results.push((
        "wi_anneal_256/reference",
        median_secs(|| {
            std::hint::black_box(anneal_wi_placement_reference(
                &topo256,
                &traffic256,
                16,
                16,
                6,
                6,
                7,
            ));
        }),
    ));
    results.push((
        "wi_anneal_256/hierarchical",
        median_secs(|| {
            std::hint::black_box(anneal_wi_placement(&topo256, &traffic256, 16, 16, 6, 6, 7));
        }),
    ));

    // One full-system report: WordCount on the min-hop WiNoC spec of the
    // 64-core paper platform, the heaviest single call of the
    // figure-regeneration benches.
    let cfg = PlatformConfig::paper().with_scale(0.002);
    let flow = DesignFlow::new(cfg.clone()).expect("valid platform");
    let d = flow.design(App::WordCount);
    let spec = flow.winoc_spec(&d, PlacementStrategy::MinHopCount);
    results.push((
        "run_system_paper/report",
        median_secs(|| {
            std::hint::black_box(run_system(&spec, &d.workload, &cfg, flow.power()));
        }),
    ));

    // The same report with the relaxation windows fanned out over 4 NoC
    // worker threads — bit-identical results (see
    // crates/core/tests/thread_invariance.rs), wall-clock scaling only on
    // multi-core hosts.
    let cfg4 = cfg.clone().with_sim_threads(4);
    results.push((
        "run_system_paper/threads4",
        median_secs(|| {
            std::hint::black_box(run_system(&spec, &d.workload, &cfg4, flow.power()));
        }),
    ));

    // The governed variant of the paper row: the same static run plus the
    // epoch-replay pass under a cap at 80% of the measured static peak.
    // The delta over `run_system_paper/report` is the governor's overhead
    // (utilization sampling + capped level search + replay), which should
    // stay a small fraction of the report itself.
    let probe = mapwave::governed::run_system_governed(
        &spec,
        &d.workload,
        &cfg,
        flow.power(),
        &mapwave_governor::GovernorConfig::new(1e9),
    );
    let gov = mapwave_governor::GovernorConfig::new(0.8 * probe.static_peak_power_w);
    results.push((
        "run_system_governed/report",
        median_secs(|| {
            std::hint::black_box(mapwave::governed::run_system_governed(
                &spec,
                &d.workload,
                &cfg,
                flow.power(),
                &gov,
            ));
        }),
    ));

    // The full 256-core report on the generated 16×16 fabric — budgeted at
    // ≤10× the 64-core `run_system_paper/report` row.
    let cfg_l = PlatformConfig::large().with_scale(0.002);
    let flow_l = DesignFlow::new(cfg_l.clone()).expect("valid platform");
    let d_l = flow_l.design(App::WordCount);
    let spec_l = flow_l.winoc_spec(&d_l, PlacementStrategy::MinHopCount);
    results.push((
        "run_system_large/report",
        median_secs(|| {
            std::hint::black_box(run_system(&spec_l, &d_l.workload, &cfg_l, flow_l.power()));
        }),
    ));

    for (name, secs) in &results {
        println!("{name:<34} median {:>9.3} ms/call", secs * 1e3);
    }

    if let Ok(path) = std::env::var("MAPWAVE_BENCH_JSON") {
        let entries: Vec<String> = results
            .iter()
            .map(|(k, v)| format!("    \"{k}\": {:.1}", v * 1e6))
            .collect();
        let json = format!(
            "{{\n  \"unit\": \"microseconds/call (median)\",\n  \"results\": {{\n{}\n  }}\n}}\n",
            entries.join(",\n")
        );
        std::fs::write(&path, json).expect("write bench json");
        println!("wrote {path}");
    }
}
