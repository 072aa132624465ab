//! Golden tests for up\*/down\* routing-table construction.
//!
//! Each scenario pins a 128-bit stable hash of one table: every
//! `(switch, phase, destination)` [`RouteEntry`] (hop kind, next switch or
//! channel and receiving interface, next phase; `None` for unreachable
//! states) and every phase-Up distance. The hashes were captured from the
//! per-destination Dijkstra builder, so any change to how distances are
//! computed must reproduce every table bit for bit.
//!
//! Run with `MAPWAVE_GOLDEN_PRINT=1` to print the current hashes (used
//! once to capture the table below; afterwards the table is frozen).

use mapwave_harness::hash::StableHasher;
use mapwave_noc::node::grid_positions;
use mapwave_noc::routing::{Hop, Phase, RouteEntry, RoutingTable};
use mapwave_noc::topology::mesh::mesh;
use mapwave_noc::topology::small_world::SmallWorldBuilder;
use mapwave_noc::topology::wireless::{ChannelId, WirelessInterface, WirelessOverlay};
use mapwave_noc::topology::Topology;
use mapwave_noc::NodeId;

fn quadrant_of(t: usize, cols: usize, rows: usize) -> usize {
    let (c, r) = (t % cols, t / cols);
    usize::from(c >= cols / 2) + 2 * usize::from(r >= rows / 2)
}

/// The paper's small-world wireline fabric on a `side × side` die.
fn small_world(side: usize) -> Topology {
    let clusters: Vec<usize> = (0..side * side)
        .map(|t| quadrant_of(t, side, side))
        .collect();
    SmallWorldBuilder::new(grid_positions(side, side, 2.5), clusters)
        .alpha(1.5)
        .seed(0xDAC_2015)
        .build()
        .expect("builds")
}

/// The max-wireless-utilization overlay: in each quadrant, the
/// `wis_per_cluster` tiles nearest the quadrant's centroid (ties by id),
/// channels assigned round-robin — the same placement as the design
/// flow's `center_wis`.
fn center_wis(side: usize, wis_per_cluster: usize, channels: usize) -> WirelessOverlay {
    let mut wis = Vec::new();
    for q in 0..4 {
        let tiles: Vec<usize> = (0..side * side)
            .filter(|&t| quadrant_of(t, side, side) == q)
            .collect();
        let cx = tiles.iter().map(|&t| (t % side) as f64).sum::<f64>() / tiles.len() as f64;
        let cy = tiles.iter().map(|&t| (t / side) as f64).sum::<f64>() / tiles.len() as f64;
        let d2 = |t: usize| ((t % side) as f64 - cx).powi(2) + ((t / side) as f64 - cy).powi(2);
        let mut by_center = tiles.clone();
        by_center.sort_by(|&a, &b| d2(a).partial_cmp(&d2(b)).unwrap().then(a.cmp(&b)));
        for (i, &tile) in by_center.iter().take(wis_per_cluster).enumerate() {
            wis.push(WirelessInterface {
                node: NodeId(tile),
                channel: ChannelId(i % channels),
            });
        }
    }
    WirelessOverlay::new(wis, channels).expect("valid overlay")
}

fn hash_entry(h: &mut StableHasher, entry: Option<RouteEntry>) {
    let Some(e) = entry else {
        h.write_u64(0);
        return;
    };
    match e.hop {
        Hop::Local => h.write_u64(1),
        Hop::Wire(w) => {
            h.write_u64(2);
            h.write_u64(w.index() as u64);
        }
        Hop::Wireless { channel, to } => {
            h.write_u64(3);
            h.write_u64(channel.index() as u64);
            h.write_u64(to.index() as u64);
        }
    }
    h.write_u64(u64::from(e.next_phase == Phase::Down));
}

/// Stable hash of every entry (both phases) and every phase-Up distance.
fn table_hash(table: &RoutingTable) -> String {
    let n = table.len();
    let mut h = StableHasher::new();
    h.write_len(n);
    for v in 0..n {
        for phase in [Phase::Up, Phase::Down] {
            for d in 0..n {
                hash_entry(&mut h, table.try_entry(NodeId(v), phase, NodeId(d)));
            }
        }
        for d in 0..n {
            h.write_u64(u64::from(table.distance(NodeId(v), NodeId(d))));
        }
    }
    h.finish().to_hex()
}

#[test]
fn golden_routing_table_hashes() {
    let sw64 = small_world(8);
    let sw256 = small_world(16);
    let paper_wis = center_wis(8, 3, 3);
    let large_wis = center_wis(16, 6, 6);
    let built = |topo: &Topology, overlay: &WirelessOverlay, weight: u32| {
        RoutingTable::up_down_weighted(topo, overlay, weight).expect("routable")
    };
    let scenarios: [(&str, RoutingTable, &str); 5] = [
        (
            "mesh_8x8_up_down",
            RoutingTable::up_down(&mesh(8, 8, 2.5), &WirelessOverlay::none()).unwrap(),
            "fb6205b01d303265f58060beab8fcde2",
        ),
        (
            "winoc_8x8_center_w1",
            built(&sw64, &paper_wis, 1),
            "7b7d3bc0bed405fd7c77b866c1eaaf9a",
        ),
        (
            "winoc_8x8_center_w2",
            built(&sw64, &paper_wis, 2),
            "b603f20073a5dfe2305d6ea7931d2ba5",
        ),
        (
            "winoc_16x16_center_w1",
            built(&sw256, &large_wis, 1),
            "6359db88b408e325d71727baf73a1712",
        ),
        // The wireline-only escape table `NetworkSim::set_faults` builds
        // for diverted packets on the paper WiNoC.
        (
            "winoc_8x8_wireline_fallback",
            RoutingTable::up_down(&sw64, &WirelessOverlay::none()).unwrap(),
            "ddf95ac55448b2d51cac59f3edea5612",
        ),
    ];
    let print = std::env::var("MAPWAVE_GOLDEN_PRINT").is_ok();
    let mut failures = Vec::new();
    for (name, table, expected) in &scenarios {
        let got = table_hash(table);
        if print {
            println!("{name:<28} {got}");
        }
        if got != *expected {
            failures.push(format!("{name}: hash {got} != golden {expected}"));
        }
    }
    assert!(
        !print,
        "MAPWAVE_GOLDEN_PRINT set; hashes printed above, unset to assert"
    );
    assert!(
        failures.is_empty(),
        "golden mismatches:\n{}",
        failures.join("\n")
    );
}
