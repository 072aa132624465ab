//! Simulated-cycles/sec micro-benches of the NoC cycle loop itself.
//!
//! Three 64-core fabrics (mesh, small world, WiNoC) × two operating points
//! (low injection, saturation) time full `NetworkSim::run` windows and
//! report throughput in simulated cycles per wall-clock second — the figure
//! of merit for the wake-calendar scheduler, which aims to make cycle cost
//! proportional to the switches with work rather than topology size. Parametric
//! 256-core (16×16) and 1024-core (32×32) rows cover the generated large
//! fabrics; their saturation rates drop with the mesh bisection bandwidth
//! per node.
//!
//! Prints one median line per scenario; set `MAPWAVE_BENCH_JSON=<path>` to
//! also write every sample as JSON (the schema of `BENCH_noc_step.json`,
//! see `mapwave_bench`).

use mapwave_bench::{time, Bench};
use mapwave_noc::node::grid_positions;
use mapwave_noc::prelude::*;
use mapwave_noc::routing::RoutingTable;
use mapwave_noc::sim::SimConfig;
use mapwave_noc::topology::mesh::mesh;
use mapwave_noc::Topology;

const WARMUP: u64 = 500;
const MEASURE: u64 = 5_000;
const DRAIN: u64 = 20_000;

/// A simulator with the default 65-nm energy model and configuration.
fn sim(topo: Topology, overlay: WirelessOverlay, table: RoutingTable) -> NetworkSim<'static> {
    NetworkSim::new(
        topo,
        overlay,
        table,
        EnergyModel::default_65nm(),
        SimConfig::default(),
    )
    .expect("valid")
}

/// An XY-routed `cols`×`rows` mesh.
fn mesh_sim(cols: usize, rows: usize) -> NetworkSim<'static> {
    sim(
        mesh(cols, rows, 2.5),
        WirelessOverlay::none(),
        RoutingTable::xy(cols, rows),
    )
}

/// The small-world wireline of an even `cols`×`rows` die, clustered in
/// quadrants (the VFI cluster shape the design flow feeds the builder).
fn small_world(cols: usize, rows: usize) -> Topology {
    let quadrants = (0..cols * rows)
        .map(|i| (i % cols) / (cols / 2) + 2 * ((i / cols) / (rows / 2)))
        .collect();
    SmallWorldBuilder::new(grid_positions(cols, rows, 2.5), quadrants)
        .alpha(1.5)
        .seed(0xDAC_2015)
        .build()
        .expect("builds")
}

/// A WiNoC on [`small_world`] with hub-weight-1 up*/down* routing.
fn winoc(
    cols: usize,
    rows: usize,
    wis: Vec<WirelessInterface>,
    channels: usize,
) -> NetworkSim<'static> {
    let topo = small_world(cols, rows);
    let overlay = WirelessOverlay::new(wis, channels).expect("valid overlay");
    let table = RoutingTable::up_down_weighted(&topo, &overlay, 1).expect("routable");
    sim(topo, overlay, table)
}

/// `wis_per_cluster` WIs spaced on a stride-2 grid inside each quadrant,
/// channels assigned round-robin so every channel spans all four quadrants.
fn parametric_wis(
    cols: usize,
    rows: usize,
    wis_per_cluster: usize,
    channels: usize,
) -> Vec<WirelessInterface> {
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
    wis
}

/// The paper's 64-core WiNoC overlay: 12 WIs, 3 per quadrant, 3 channels.
fn paper_wis() -> Vec<WirelessInterface> {
    [
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
    .collect()
}

fn main() {
    let wireline_up_down = {
        let topo = small_world(8, 8);
        let table = RoutingTable::up_down(&topo, &WirelessOverlay::none()).expect("routable");
        sim(topo, WirelessOverlay::none(), table)
    };
    let scenarios = [
        ("noc_step_mesh", mesh_sim(8, 8), 0.30),
        ("noc_step_small_world", wireline_up_down, 0.06),
        ("noc_step_wireless", winoc(8, 8, paper_wis(), 3), 0.06),
        ("noc_step_mesh_256", mesh_sim(16, 16), 0.15),
        ("noc_step_mesh_1024", mesh_sim(32, 32), 0.06),
        (
            "noc_step_wireless_256",
            winoc(16, 16, parametric_wis(16, 16, 6, 6), 6),
            0.03,
        ),
    ];

    let mut bench = Bench::new("noc_step", "simulated cycles/s");
    for (name, mut sim, saturation_rate) in scenarios {
        let n = sim.topology().len();
        for (point, rate) in [("low", 0.005), ("saturation", saturation_rate)] {
            let tm = TrafficMatrix::uniform(n, rate);
            let secs = time(|| {
                sim.run(&tm, WARMUP, MEASURE, DRAIN);
            });
            // `run` resets the simulator and reseeds its injection stream,
            // so every window simulates the same number of cycles.
            let cycles = sim.now() as f64;
            bench.row(
                format!("{name}/{point}"),
                secs.iter().map(|s| cycles / s).collect(),
            );
        }
    }
    bench.finish();
}
