//! The idle jump: idle token-MAC cycles are consumed in closed form,
//! deterministically across reruns. Its exactness against a stepped
//! reference is checked in `sim_oracle.rs`.

use mapwave_noc::node::Position;
use mapwave_noc::routing::RoutingTable;
use mapwave_noc::sim::{NetworkSim, SimConfig};
use mapwave_noc::topology::wireless::{ChannelId, WirelessInterface, WirelessOverlay};
use mapwave_noc::topology::{Topology, TopologyKind};
use mapwave_noc::{EnergyModel, NodeId, TrafficMatrix};

/// A 20-node wireline chain bridged by one wireless channel at its ends, so
/// wireless transfers and token-MAC idling both matter.
fn line_sim() -> NetworkSim<'static> {
    let len = 20;
    let mut topo = Topology::new(
        (0..len)
            .map(|i| Position::new(i as f64 * 2.5, 0.0))
            .collect(),
        TopologyKind::Custom,
    );
    for i in 0..len - 1 {
        topo.add_link(NodeId(i), NodeId(i + 1)).unwrap();
    }
    let overlay = WirelessOverlay::new(
        vec![
            WirelessInterface {
                node: NodeId(0),
                channel: ChannelId(0),
            },
            WirelessInterface {
                node: NodeId(len - 1),
                channel: ChannelId(0),
            },
        ],
        1,
    )
    .unwrap();
    let table = RoutingTable::up_down(&topo, &overlay).unwrap();
    NetworkSim::new(
        topo,
        overlay,
        table,
        EnergyModel::default_65nm(),
        SimConfig::default(),
    )
    .unwrap()
}

fn end_to_end_traffic(rate: f64) -> TrafficMatrix {
    let mut tm = TrafficMatrix::zeros(20);
    tm.set(NodeId(0), NodeId(19), rate);
    tm.set(NodeId(19), NodeId(0), rate);
    tm
}

#[test]
fn idle_cycles_replay_in_closed_form() {
    // At a near-zero rate almost every cycle is idle token-MAC bookkeeping —
    // a period-1 fixpoint of the compact state. The fast path must consume
    // those cycles in closed form, deterministically across reruns, without
    // perturbing any observable.
    let mut sim = line_sim();
    let tm = end_to_end_traffic(0.002);
    let (digest, delivered) = {
        let stats = sim.run(&tm, 200, 3000, 30_000);
        (stats.digest(), stats.packets_delivered)
    };
    let steady = sim.steady_replayed_cycles();
    assert!(delivered > 0, "traffic must flow");
    assert!(
        steady > 1000,
        "a mostly-idle window must be replayed in closed form (got {steady})"
    );
    let rerun = sim.run(&tm, 200, 3000, 30_000).digest();
    assert_eq!(digest, rerun, "closed-form replay must be deterministic");
    assert_eq!(
        steady,
        sim.steady_replayed_cycles(),
        "replayed-cycle count must be deterministic"
    );
}
