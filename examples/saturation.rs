//! Saturation sweep: mesh vs WiNoC latency under rising uniform load.
//!
//! ```sh
//! cargo run --release --example saturation
//! ```
//!
//! Prints the average packet latency of the 8×8 mesh, the WiNoC, and the
//! WiNoC with the 2-VC Duato-adaptive extension at increasing injection
//! rates — the classic load–latency curves showing where each fabric
//! saturates (and how adaptive routing moves the up*/down* knee).

use mapwave_noc::node::grid_positions;
use mapwave_noc::prelude::*;
use mapwave_noc::routing::RoutingTable;
use mapwave_noc::sim::SimConfig;
use mapwave_noc::topology::mesh::mesh;
use mapwave_repro::cli;

const USAGE: &str = "cargo run --release --example saturation";

fn main() -> Result<(), String> {
    cli::forbid_governor_flags(USAGE)?;
    cli::expect_no_args_past(0, USAGE)?;
    let clusters: Vec<usize> = (0..64).map(|i| (i % 8) / 4 + 2 * ((i / 8) / 4)).collect();
    let topo = SmallWorldBuilder::new(grid_positions(8, 8, 2.5), clusters)
        .alpha(1.5)
        .seed(0xDAC_2015)
        .build()
        .unwrap();
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
    let overlay = WirelessOverlay::new(wis, 3).unwrap();
    let wtable = RoutingTable::up_down_weighted(&topo, &overlay, 1).unwrap();

    let base_cfg = SimConfig::default();
    let adaptive_cfg = SimConfig {
        vcs: 2,
        adaptive: true,
        ..base_cfg.clone()
    };

    println!(
        "{:>8} {:>12} {:>12} {:>14}",
        "rate", "mesh lat", "winoc lat", "winoc+2vc lat"
    );
    for &rate in &[0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12] {
        let tm = TrafficMatrix::uniform(64, rate);
        let mut msim = NetworkSim::new(
            mesh(8, 8, 2.5),
            WirelessOverlay::none(),
            RoutingTable::xy(8, 8),
            EnergyModel::default_65nm(),
            base_cfg.clone(),
        )
        .unwrap();
        let ms = msim.run(&tm, 1000, 5000, 50_000);
        let mut wsim = NetworkSim::new(
            topo.clone(),
            overlay.clone(),
            wtable.clone(),
            EnergyModel::default_65nm(),
            base_cfg.clone(),
        )
        .unwrap();
        let ws = wsim.run(&tm, 1000, 5000, 50_000);
        let mut asim = NetworkSim::new(
            topo.clone(),
            overlay.clone(),
            wtable.clone(),
            EnergyModel::default_65nm(),
            adaptive_cfg.clone(),
        )
        .unwrap();
        let ads = asim.run(&tm, 1000, 5000, 50_000);
        println!(
            "{:>8.3} {:>12.1} {:>12.1} {:>14.1}",
            rate,
            ms.avg_latency(),
            ws.avg_latency(),
            ads.avg_latency()
        );
    }
    Ok(())
}
