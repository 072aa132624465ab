//! Liveness made visible: `NetworkSim::run` counts every window that ends
//! with measured packets still buffered as the telemetry counter
//! `noc.windows_undrained`. The evaluation at a quick scale drains every
//! window; the WiNoC at 95% wireless loss wedges (the window of the NoC
//! golden `heavy_link_faults_trigger_wireline_fallback_on_winoc`), so its
//! window must register. A fix of that wedge turns the second assertion
//! into `== 0`.
//!
//! Single-test binary on purpose: it asserts on the process-global
//! telemetry counters, which other tests in the same binary could reset
//! concurrently.

use mapwave::{ExperimentContext, PlatformConfig};
use mapwave_faults::{FaultConfig, FaultPlan};
use mapwave_harness::telemetry;
use mapwave_noc::node::grid_positions;
use mapwave_noc::routing::RoutingTable;
use mapwave_noc::sim::{NetworkSim, SimConfig};
use mapwave_noc::topology::small_world::SmallWorldBuilder;
use mapwave_noc::topology::wireless::{ChannelId, WirelessInterface, WirelessOverlay};
use mapwave_noc::{EnergyModel, NodeId, TrafficMatrix};

/// The 64-switch WiNoC of the NoC goldens: a small-world wireline over
/// four quadrant clusters and 12 WIs on 3 channels.
fn winoc_64() -> NetworkSim<'static> {
    let clusters = (0..64).map(|i| (i % 8) / 4 + 2 * ((i / 8) / 4)).collect();
    let topo = SmallWorldBuilder::new(grid_positions(8, 8, 2.5), clusters)
        .alpha(1.5)
        .seed(0xDAC_2015)
        .build()
        .expect("builds");
    let wis = [
        (9, 0),
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
    .map(|(n, c)| WirelessInterface {
        node: NodeId(n),
        channel: ChannelId(c),
    });
    let overlay = WirelessOverlay::new(wis.to_vec(), 3).expect("valid overlay");
    let table = RoutingTable::up_down_weighted(&topo, &overlay, 1).expect("routable");
    NetworkSim::new(
        topo,
        overlay,
        table,
        EnergyModel::default_65nm(),
        SimConfig::default(),
    )
    .expect("valid simulator")
}

#[test]
fn undrained_windows_are_counted() {
    telemetry::enable();
    telemetry::reset();
    ExperimentContext::new(PlatformConfig::paper().with_scale(0.02)).expect("valid config");
    let evaluation = telemetry::snapshot();
    assert!(
        evaluation.counter("noc.packets_injected") > 0,
        "windows ran"
    );
    assert_eq!(
        evaluation.counter("noc.windows_undrained"),
        0,
        "every window of the scale-0.02 evaluation drains"
    );

    telemetry::reset();
    let mut sim = winoc_64();
    sim.set_faults(&FaultPlan::build(&FaultConfig::at_rate(0.95, 3)));
    let in_flight = sim
        .run(&TrafficMatrix::uniform(64, 0.02), 300, 2000, 60_000)
        .in_flight_at_end;
    assert!(in_flight > 0, "95% wireless loss wedges the WiNoC");
    assert!(telemetry::snapshot().counter("noc.windows_undrained") >= 1);
    telemetry::disable();
}
