//! Simulated-cycles/sec micro-benches of the NoC cycle loop itself.
//!
//! Three 64-core fabrics (mesh, small world, WiNoC) × two operating points
//! (low injection, saturation) time full `NetworkSim::run` windows and
//! report throughput in simulated cycles per wall-clock second — the figure
//! of merit for the active-set scheduler, which aims to make cycle cost
//! proportional to in-flight flits rather than topology size. Parametric
//! 256-core (16×16) and 1024-core (32×32) rows cover the generated large
//! fabrics; their saturation rates drop with the mesh bisection bandwidth
//! per node.
//!
//! Prints one line per scenario; set `MAPWAVE_BENCH_JSON=<path>` to also
//! write the results as JSON (used to record before/after numbers in
//! `BENCH_noc_step.json`).

use mapwave_noc::node::grid_positions;
use mapwave_noc::prelude::*;
use mapwave_noc::routing::RoutingTable;
use mapwave_noc::sim::SimConfig;
use mapwave_noc::topology::mesh::mesh;
use std::time::Instant;

const WARMUP: u64 = 500;
const MEASURE: u64 = 5_000;
const DRAIN: u64 = 20_000;

/// Quadrant labels for an even `cols`×`rows` die (the VFI cluster shape the
/// design flow feeds the small-world builder).
fn quadrant_clusters(cols: usize, rows: usize) -> Vec<usize> {
    (0..cols * rows)
        .map(|i| (i % cols) / (cols / 2) + 2 * ((i / cols) / (rows / 2)))
        .collect()
}

/// A generated WiNoC at an arbitrary even die size: small-world wireline,
/// `wis_per_cluster` WIs spaced on a stride-2 grid inside each quadrant,
/// channels assigned round-robin so every channel spans all four quadrants.
fn winoc_parametric(
    cols: usize,
    rows: usize,
    wis_per_cluster: usize,
    channels: usize,
) -> (mapwave_noc::Topology, WirelessOverlay, RoutingTable) {
    let topo = SmallWorldBuilder::new(
        grid_positions(cols, rows, 2.5),
        quadrant_clusters(cols, rows),
    )
    .alpha(1.5)
    .seed(0xDAC_2015)
    .build()
    .expect("builds");
    let mut wis = Vec::with_capacity(4 * wis_per_cluster);
    for q in 0..4 {
        for k in 0..wis_per_cluster {
            let col = cols / 2 * (q % 2) + 2 + 2 * (k % 3);
            let row = rows / 2 * (q / 2) + 2 + 2 * (k / 3);
            wis.push(WirelessInterface {
                node: NodeId(row * cols + col),
                channel: ChannelId(k % channels),
            });
        }
    }
    let overlay = WirelessOverlay::new(wis, channels).expect("valid overlay");
    let table = RoutingTable::up_down_weighted(&topo, &overlay, 1).expect("routable");
    (topo, overlay, table)
}

fn winoc() -> (mapwave_noc::Topology, WirelessOverlay, RoutingTable) {
    let clusters: Vec<usize> = (0..64).map(|i| (i % 8) / 4 + 2 * ((i / 8) / 4)).collect();
    let topo = SmallWorldBuilder::new(grid_positions(8, 8, 2.5), clusters)
        .alpha(1.5)
        .seed(0xDAC_2015)
        .build()
        .expect("builds");
    let wis: Vec<WirelessInterface> = [
        (9usize, 0usize),
        (18, 1),
        (27, 2),
        (13, 0),
        (22, 1),
        (30, 2),
        (41, 0),
        (50, 1),
        (33, 2),
        (45, 0),
        (54, 1),
        (37, 2),
    ]
    .iter()
    .map(|&(n, c)| WirelessInterface {
        node: NodeId(n),
        channel: ChannelId(c),
    })
    .collect();
    let overlay = WirelessOverlay::new(wis, 3).expect("valid overlay");
    let table = RoutingTable::up_down_weighted(&topo, &overlay, 1).expect("routable");
    (topo, overlay, table)
}

fn small_world() -> (mapwave_noc::Topology, WirelessOverlay, RoutingTable) {
    let clusters: Vec<usize> = (0..64).map(|i| (i % 8) / 4 + 2 * ((i / 8) / 4)).collect();
    let topo = SmallWorldBuilder::new(grid_positions(8, 8, 2.5), clusters)
        .alpha(1.5)
        .seed(0xDAC_2015)
        .build()
        .expect("builds");
    let table = RoutingTable::up_down(&topo, &WirelessOverlay::none()).expect("routable");
    (topo, WirelessOverlay::none(), table)
}

/// Times repeated `run` windows of one prepared simulator and returns the
/// median throughput in simulated cycles per second.
fn cycles_per_sec(sim: &mut NetworkSim, traffic: &TrafficMatrix) -> f64 {
    // One untimed window warms caches and sizes the sample count so each
    // scenario spends a bounded ~second total.
    let start = Instant::now();
    sim.run(traffic, WARMUP, MEASURE, DRAIN);
    let once = start.elapsed().as_secs_f64().max(1e-6);
    let samples = ((0.8 / once).ceil() as usize).clamp(3, 40);

    let mut rates: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            sim.run(traffic, WARMUP, MEASURE, DRAIN);
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            sim.now() as f64 / secs
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}

fn main() {
    let scenarios: Vec<(&str, NetworkSim, f64)> = {
        let (sw_topo, sw_overlay, sw_table) = small_world();
        let (wi_topo, wi_overlay, wi_table) = winoc();
        let (wi256_topo, wi256_overlay, wi256_table) = winoc_parametric(16, 16, 6, 6);
        vec![
            (
                "noc_step_mesh",
                NetworkSim::new(
                    mesh(8, 8, 2.5),
                    WirelessOverlay::none(),
                    RoutingTable::xy(8, 8),
                    EnergyModel::default_65nm(),
                    SimConfig::default(),
                )
                .expect("valid"),
                0.30,
            ),
            (
                "noc_step_small_world",
                NetworkSim::new(
                    sw_topo,
                    sw_overlay,
                    sw_table,
                    EnergyModel::default_65nm(),
                    SimConfig::default(),
                )
                .expect("valid"),
                0.06,
            ),
            (
                "noc_step_wireless",
                NetworkSim::new(
                    wi_topo,
                    wi_overlay,
                    wi_table,
                    EnergyModel::default_65nm(),
                    SimConfig::default(),
                )
                .expect("valid"),
                0.06,
            ),
            (
                "noc_step_mesh_256",
                NetworkSim::new(
                    mesh(16, 16, 2.5),
                    WirelessOverlay::none(),
                    RoutingTable::xy(16, 16),
                    EnergyModel::default_65nm(),
                    SimConfig::default(),
                )
                .expect("valid"),
                0.15,
            ),
            (
                "noc_step_mesh_1024",
                NetworkSim::new(
                    mesh(32, 32, 2.5),
                    WirelessOverlay::none(),
                    RoutingTable::xy(32, 32),
                    EnergyModel::default_65nm(),
                    SimConfig::default(),
                )
                .expect("valid"),
                0.06,
            ),
            (
                "noc_step_wireless_256",
                NetworkSim::new(
                    wi256_topo,
                    wi256_overlay,
                    wi256_table,
                    EnergyModel::default_65nm(),
                    SimConfig::default(),
                )
                .expect("valid"),
                0.03,
            ),
        ]
    };

    let mut results: Vec<(String, f64)> = Vec::new();
    for (name, mut sim, saturation_rate) in scenarios {
        let n = sim.topology().len();
        for (point, rate) in [("low", 0.005), ("saturation", saturation_rate)] {
            let tm = TrafficMatrix::uniform(n, rate);
            let cps = cycles_per_sec(&mut sim, &tm);
            println!("{name}/{point:<12} {:>9.2} simulated Mcycles/s", cps / 1e6);
            results.push((format!("{name}/{point}"), cps));
        }
    }

    if let Ok(path) = std::env::var("MAPWAVE_BENCH_JSON") {
        let entries: Vec<String> = results
            .iter()
            .map(|(k, v)| format!("    \"{k}\": {v:.0}"))
            .collect();
        let json = format!(
            "{{\n  \"unit\": \"simulated cycles/sec\",\n  \"results\": {{\n{}\n  }}\n}}\n",
            entries.join(",\n")
        );
        std::fs::write(&path, json).expect("write bench json");
        println!("wrote {path}");
    }
}
