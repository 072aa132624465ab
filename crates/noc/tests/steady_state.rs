//! Boundary tests for the steady-state machinery: the idle-cycle closed-form
//! replay inside the measurement window, and the drain-phase periodic-fixpoint
//! detector's interaction with an attached fault plan.
//!
//! The invariants under test:
//! * idle token-MAC cycles are consumed in closed form (a period-1 fixpoint of
//!   the compact state), deterministically across reruns;
//! * an *active* fault stream keeps the compact state advancing — hazard
//!   counters burn on every corrupted attempt — so detection is implicitly
//!   disabled while corruptions fire;
//! * once the stream is cycle-stable (every WI pushed past its fallback
//!   threshold and disabled), the state freezes again and closed-form replay
//!   resumes.
//! * on a deadlock-free fabric the drain never reports a livelock: however
//!   congested the network, every measured packet is delivered given a
//!   large enough drain budget.

use mapwave_faults::{FaultConfig, FaultPlan};
use mapwave_noc::node::Position;
use mapwave_noc::routing::RoutingTable;
use mapwave_noc::sim::{NetworkSim, SimConfig};
use mapwave_noc::topology::mesh::mesh;
use mapwave_noc::topology::wireless::{ChannelId, WirelessInterface, WirelessOverlay};
use mapwave_noc::topology::{Topology, TopologyKind};
use mapwave_noc::{EnergyModel, NodeId, TrafficMatrix};

/// A 20-node wireline chain bridged by one wireless channel at its ends —
/// the smallest fabric where wireless transfers, token MAC idling, and the
/// wireline fallback all matter.
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

#[test]
fn active_fault_stream_suppresses_closed_form_replay() {
    // A corrupting fault stream burns hazard counters on every wireless
    // attempt, so the compact state keeps advancing exactly where the clean
    // run would freeze: the faulted run can never replay *more* cycles in
    // closed form, and its outcome stays fully deterministic.
    let tm = end_to_end_traffic(0.002);

    let mut clean = line_sim();
    clean.run(&tm, 200, 3000, 30_000);
    let clean_steady = clean.steady_replayed_cycles();

    let plan = FaultPlan::build(&FaultConfig::at_rate(0.3, 7));
    let mut faulted = line_sim();
    faulted.set_faults(&plan);
    let digest = faulted.run(&tm, 200, 3000, 30_000).digest();
    let faulted_steady = faulted.steady_replayed_cycles();
    assert!(
        faulted.fault_counts().flit_corruptions > 0,
        "the plan must actually corrupt transfers"
    );
    assert!(
        faulted_steady <= clean_steady,
        "an advancing fault stream must not widen the closed-form window \
         (faulted {faulted_steady} > clean {clean_steady})"
    );
    let rerun = faulted.run(&tm, 200, 3000, 30_000).digest();
    assert_eq!(digest, rerun, "faulted replay must be deterministic");
}

#[test]
fn replay_resumes_once_fault_stream_is_cycle_stable() {
    // At a near-certain corruption rate every WI crosses its consecutive
    // threshold and is disabled early; from then on no attempt burns hazard
    // state, the stream is cycle-stable, and closed-form replay must resume
    // even with the plan still attached.
    let mut sim = line_sim();
    sim.set_faults(&FaultPlan::build(&FaultConfig::at_rate(0.95, 3)));
    let tm = end_to_end_traffic(0.002);
    let delivered = sim.run(&tm, 200, 3000, 30_000).packets_delivered;
    let counts = sim.fault_counts();
    assert!(counts.wi_fallbacks > 0, "WIs must fall back at 95% loss");
    assert!(
        delivered > 0,
        "the wireline escape tree must keep delivering"
    );
    assert!(
        sim.steady_replayed_cycles() > 0,
        "a cycle-stable fault stream must not disable replay forever"
    );
}

#[test]
fn congested_xy_mesh_drain_never_reports_a_livelock() {
    // XY routing on a mesh is deadlock-free, so any measured packet still in
    // flight after a huge drain budget was cut off by a false livelock
    // verdict. These saturated cases stall in the drain with FIFO fronts
    // still inside a router pipeline that a switch's wake offset alone does
    // not reveal (behind a clock that sat out, or behind an earlier front).
    struct Case {
        cols: usize,
        rows: usize,
        rate: f64,
        buffer_depth: usize,
        packet_len: usize,
        sync_penalty: u64,
        router_delay: u64,
        seed: u64,
        speeds: Vec<f64>,
    }
    let cases = [
        Case {
            cols: 2,
            rows: 2,
            rate: 0.4968404731215155,
            buffer_depth: 2,
            packet_len: 7,
            sync_penalty: 2,
            router_delay: 4,
            seed: 217,
            speeds: vec![1.0; 4],
        },
        Case {
            cols: 2,
            rows: 2,
            rate: 0.2840932020153178,
            buffer_depth: 1,
            packet_len: 2,
            sync_penalty: 2,
            router_delay: 3,
            seed: 118,
            speeds: vec![1.0; 4],
        },
        Case {
            cols: 2,
            rows: 2,
            rate: 0.45868755193064126,
            buffer_depth: 1,
            packet_len: 5,
            sync_penalty: 0,
            router_delay: 3,
            seed: 431,
            speeds: vec![0.5, 0.3, 0.75, 0.5],
        },
    ];
    for (i, c) in cases.into_iter().enumerate() {
        let n = c.cols * c.rows;
        let cfg = SimConfig {
            buffer_depth: c.buffer_depth,
            packet_len: c.packet_len,
            sync_penalty: c.sync_penalty,
            router_delay: c.router_delay,
            seed: c.seed,
            ..SimConfig::default()
        };
        let mut sim = NetworkSim::with_clocks(
            mesh(c.cols, c.rows, 1.0),
            WirelessOverlay::none(),
            RoutingTable::xy(c.cols, c.rows),
            EnergyModel::default_65nm(),
            cfg,
            c.speeds,
            (0..n).map(|v| v % 3).collect(),
        )
        .unwrap();
        let stats = sim.run(&TrafficMatrix::uniform(n, c.rate), 50, 400, 5_000_000);
        assert!(stats.packets_injected > 0, "case {i}");
        assert_eq!(stats.in_flight_at_end, 0, "case {i}");
        assert_eq!(stats.packets_delivered, stats.packets_injected, "case {i}");
    }
}
