//! Golden determinism tests for the cycle-accurate simulator.
//!
//! Each scenario pins the 128-bit [`NetworkStats::digest`] of one
//! (topology, traffic, seed) combination, captured from the reference
//! walk-every-switch implementation. The wake-calendar simulator must
//! reproduce every digest bit for bit — latency histograms, per-link
//! loads, energy breakdowns and wireless shares included — so any
//! scheduling or storage optimisation that perturbs observable behaviour
//! fails here immediately.
//!
//! Run with `MAPWAVE_GOLDEN_PRINT=1` to print the current digests (used
//! once to capture the table below; afterwards the table is frozen).

use mapwave_noc::node::{grid_positions, Position};
use mapwave_noc::routing::RoutingTable;
use mapwave_noc::sim::{NetworkSim, SimConfig};
use mapwave_noc::topology::mesh::mesh;
use mapwave_noc::topology::small_world::SmallWorldBuilder;
use mapwave_noc::topology::wireless::{ChannelId, WirelessInterface, WirelessOverlay};
use mapwave_noc::topology::{Topology, TopologyKind};
use mapwave_noc::{EnergyModel, NodeId, TrafficMatrix};

/// One pinned scenario: a simulator, a traffic pattern, a window, and the
/// digest the reference implementation produced.
struct Scenario {
    name: &'static str,
    sim: NetworkSim<'static>,
    traffic: TrafficMatrix,
    warmup: u64,
    measure: u64,
    drain: u64,
    expected: &'static str,
}

fn quadrant_clusters() -> Vec<usize> {
    (0..64).map(|i| (i % 8) / 4 + 2 * ((i / 8) / 4)).collect()
}

fn small_world_64() -> Topology {
    SmallWorldBuilder::new(grid_positions(8, 8, 2.5), quadrant_clusters())
        .alpha(1.5)
        .seed(0xDAC_2015)
        .build()
        .expect("builds")
}

fn winoc_overlay() -> WirelessOverlay {
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
    WirelessOverlay::new(wis, 3).expect("valid overlay")
}

fn wireless_line(len: usize) -> (Topology, WirelessOverlay) {
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
    (topo, overlay)
}

/// A 256-switch WiNoC on a 16×16 die: small-world wireline, six WIs
/// spaced on a stride-2 grid inside each quadrant, six channels assigned
/// round-robin so every channel spans all four quadrants.
fn winoc_256() -> (Topology, WirelessOverlay, RoutingTable) {
    let (cols, rows) = (16usize, 16usize);
    let clusters: Vec<usize> = (0..cols * rows)
        .map(|i| (i % cols) / (cols / 2) + 2 * ((i / cols) / (rows / 2)))
        .collect();
    let topo = SmallWorldBuilder::new(grid_positions(cols, rows, 2.5), clusters)
        .alpha(1.5)
        .seed(0xDAC_2015)
        .build()
        .expect("builds");
    let channels = 6;
    let mut wis = Vec::new();
    for q in 0..4 {
        for k in 0..6 {
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

fn mesh_sim(side: usize, cfg: SimConfig) -> NetworkSim<'static> {
    NetworkSim::new(
        mesh(side, side, 2.5),
        WirelessOverlay::none(),
        RoutingTable::xy(side, side),
        EnergyModel::default_65nm(),
        cfg,
    )
    .unwrap()
}

fn scenarios() -> Vec<Scenario> {
    let mut v = Vec::new();

    // 8x8 mesh, XY routing, low uniform load — the Fig. 6 regime.
    v.push(Scenario {
        name: "mesh8_uniform_low",
        sim: mesh_sim(8, SimConfig::default()),
        traffic: TrafficMatrix::uniform(64, 0.01),
        warmup: 300,
        measure: 2000,
        drain: 20_000,
        expected: "d023a5e087cdcbcbe18110fde8170680",
    });

    // 8x8 mesh driven past saturation.
    v.push(Scenario {
        name: "mesh8_uniform_saturation",
        sim: mesh_sim(8, SimConfig::default()),
        traffic: TrafficMatrix::uniform(64, 0.30),
        warmup: 300,
        measure: 1500,
        drain: 8_000,
        expected: "aedb43ac7fe30ab5748c492a83da6aee",
    });

    // Transpose on a mesh with a different seed: adversarial for XY.
    v.push(Scenario {
        name: "mesh8_transpose_seed7",
        sim: mesh_sim(
            8,
            SimConfig {
                seed: 7,
                ..SimConfig::default()
            },
        ),
        traffic: TrafficMatrix::transpose(8, 0.05),
        warmup: 400,
        measure: 2000,
        drain: 30_000,
        expected: "d7be7898537a30b38c834743b0c64d40",
    });

    // VFI-clocked mesh: half-speed quadrant, domain crossings paying a
    // 2-cycle sync penalty — exercises the fractional clock accumulators.
    let speeds: Vec<f64> = (0..16)
        .map(|i| if i % 4 >= 2 { 0.5 } else { 1.0 })
        .collect();
    let domains: Vec<usize> = (0..16).map(|i| usize::from(i % 4 >= 2)).collect();
    v.push(Scenario {
        name: "mesh4_vfi_clocks",
        sim: NetworkSim::with_clocks(
            mesh(4, 4, 2.5),
            WirelessOverlay::none(),
            RoutingTable::xy(4, 4),
            EnergyModel::default_65nm(),
            SimConfig {
                sync_penalty: 2,
                seed: 3,
                ..SimConfig::default()
            },
            speeds,
            domains,
        )
        .unwrap(),
        traffic: TrafficMatrix::uniform(16, 0.05),
        warmup: 200,
        measure: 2000,
        drain: 20_000,
        expected: "01632ba1e4da6fc52ffccfe6738d88da",
    });

    // Irregular small world under up*/down* (wired only).
    let sw = small_world_64();
    let sw_table = RoutingTable::up_down(&sw, &WirelessOverlay::none()).unwrap();
    v.push(Scenario {
        name: "small_world_up_down",
        sim: NetworkSim::new(
            sw.clone(),
            WirelessOverlay::none(),
            sw_table.clone(),
            EnergyModel::default_65nm(),
            SimConfig::default(),
        )
        .unwrap(),
        traffic: TrafficMatrix::uniform(64, 0.02),
        warmup: 300,
        measure: 2000,
        drain: 30_000,
        expected: "c86adceba047ebd8a68cbd6419f533d3",
    });

    // The paper's WiNoC: small world + 3-channel mm-wave overlay.
    let overlay = winoc_overlay();
    let wi_table = RoutingTable::up_down_weighted(&sw, &overlay, 1).unwrap();
    v.push(Scenario {
        name: "winoc_uniform",
        sim: NetworkSim::new(
            sw.clone(),
            overlay.clone(),
            wi_table.clone(),
            EnergyModel::default_65nm(),
            SimConfig::default(),
        )
        .unwrap(),
        traffic: TrafficMatrix::uniform(64, 0.02),
        warmup: 300,
        measure: 2000,
        drain: 30_000,
        expected: "137e9a907b68b820d87824a666b3fe47",
    });

    // WiNoC under hotspot traffic with a different seed.
    v.push(Scenario {
        name: "winoc_hotspot_seed11",
        sim: NetworkSim::new(
            sw.clone(),
            overlay,
            wi_table,
            EnergyModel::default_65nm(),
            SimConfig {
                seed: 11,
                ..SimConfig::default()
            },
        )
        .unwrap(),
        traffic: TrafficMatrix::hotspot(64, 0.01, NodeId(27), 0.05),
        warmup: 300,
        measure: 2000,
        drain: 30_000,
        expected: "53038e0b18758450f07abe1c8f3f3eaf",
    });

    // Two WIs bridging a long line: token MAC + wormholes over wireless.
    let (line, line_overlay) = wireless_line(20);
    let line_table = RoutingTable::up_down(&line, &line_overlay).unwrap();
    let mut line_tm = TrafficMatrix::zeros(20);
    line_tm.set(NodeId(0), NodeId(19), 0.03);
    line_tm.set(NodeId(19), NodeId(0), 0.03);
    v.push(Scenario {
        name: "wireless_line_bidir",
        sim: NetworkSim::new(
            line,
            line_overlay,
            line_table,
            EnergyModel::default_65nm(),
            SimConfig::default(),
        )
        .unwrap(),
        traffic: line_tm,
        warmup: 200,
        measure: 3000,
        drain: 30_000,
        expected: "1254397c902dc57e0dd3df2503a47a01",
    });

    // Adaptive two-VC mesh on transpose — the Duato escape/adaptive split.
    v.push(Scenario {
        name: "mesh8_adaptive_transpose",
        sim: mesh_sim(
            8,
            SimConfig {
                vcs: 2,
                adaptive: true,
                ..SimConfig::default()
            },
        ),
        traffic: TrafficMatrix::transpose(8, 0.05),
        warmup: 400,
        measure: 2000,
        drain: 30_000,
        expected: "f4fab0bfb1f839ab99a918b68690326c",
    });

    // Adaptive small world near its escape-only saturation point.
    v.push(Scenario {
        name: "small_world_adaptive",
        sim: NetworkSim::new(
            sw,
            WirelessOverlay::none(),
            sw_table,
            EnergyModel::default_65nm(),
            SimConfig {
                vcs: 2,
                adaptive: true,
                seed: 5,
                ..SimConfig::default()
            },
        )
        .unwrap(),
        traffic: TrafficMatrix::uniform(64, 0.03),
        warmup: 300,
        measure: 2000,
        drain: 30_000,
        expected: "6047f7abcfdb71acb57dc2f4f8f5221f",
    });

    // 16x16 mesh: 256 switches, so a calendar bucket spans four 64-bit words
    // and flits cross word boundaries.
    v.push(Scenario {
        name: "mesh16_uniform",
        sim: mesh_sim(16, SimConfig::default()),
        traffic: TrafficMatrix::uniform(256, 0.08),
        warmup: 300,
        measure: 1500,
        drain: 20_000,
        expected: "2051c987fe6bf7e340cdf2d56228527c",
    });

    // A 256-switch WiNoC: token MACs over six channels on a 16x16 die.
    let (wi256, wi256_overlay, wi256_table) = winoc_256();
    v.push(Scenario {
        name: "winoc256_uniform",
        sim: NetworkSim::new(
            wi256,
            wi256_overlay,
            wi256_table,
            EnergyModel::default_65nm(),
            SimConfig::default(),
        )
        .unwrap(),
        traffic: TrafficMatrix::uniform(256, 0.02),
        warmup: 300,
        measure: 1500,
        drain: 20_000,
        expected: "971810fcdf751d6e9698805e4dbea229",
    });

    // A drain-limited run: the window ends with packets still in flight,
    // pinning the clamped-drain bookkeeping exactly.
    v.push(Scenario {
        name: "mesh8_drain_limited",
        sim: mesh_sim(8, SimConfig::default()),
        traffic: TrafficMatrix::uniform(64, 0.40),
        warmup: 100,
        measure: 1000,
        drain: 50,
        expected: "061ca1d7ceb350f0df46599a70b221ff",
    });

    v
}

#[test]
fn golden_network_stats_digests() {
    let print = std::env::var("MAPWAVE_GOLDEN_PRINT").is_ok();
    let mut failures = Vec::new();
    for mut s in scenarios() {
        let stats = s.sim.run(&s.traffic, s.warmup, s.measure, s.drain);
        let got = stats.digest().to_hex();
        if print {
            println!("{:<28} {}", s.name, got);
        }
        if got != s.expected {
            failures.push(format!(
                "{}: digest {} != golden {}",
                s.name, got, s.expected
            ));
        }
    }
    assert!(
        !print,
        "MAPWAVE_GOLDEN_PRINT set; digests printed above, unset to assert"
    );
    assert!(
        failures.is_empty(),
        "golden mismatches:\n{}",
        failures.join("\n")
    );
}

#[test]
fn golden_digests_are_rerun_stable() {
    // The digest itself must be a pure function of the run: re-running the
    // same scenario on the same simulator instance reproduces it.
    let mut sim = mesh_sim(8, SimConfig::default());
    let tm = TrafficMatrix::uniform(64, 0.05);
    let a = sim.run(&tm, 200, 1000, 20_000).digest();
    let b = sim.run(&tm, 200, 1000, 20_000).digest();
    assert_eq!(a, b);
}

#[test]
fn none_fault_plan_preserves_every_golden_digest() {
    // The tentpole's zero-cost guarantee at the NoC layer: attaching the
    // disabled fault plan must leave every pinned digest bit-identical —
    // the hooks are provably inert when no fault can fire.
    let plan = mapwave_faults::FaultPlan::none();
    for mut s in scenarios() {
        s.sim.set_faults(&plan);
        let stats = s.sim.run(&s.traffic, s.warmup, s.measure, s.drain);
        let got = stats.digest().to_hex();
        assert_eq!(
            got, s.expected,
            "{}: digest drifted under FaultPlan::none()",
            s.name
        );
        assert_eq!(s.sim.fault_counts(), mapwave_noc::NocFaultCounts::default());
    }
}

#[test]
fn link_faults_fire_deterministically_and_deliver() {
    // A lossy wireless line: corruptions fire, the schedule is identical
    // across runs of the same plan, and traffic still drains (retransmission
    // and the wireline fallback keep the network functional).
    let plan = mapwave_faults::FaultPlan::build(&mapwave_faults::FaultConfig::at_rate(0.3, 7));
    let (line, line_overlay) = wireless_line(20);
    let line_table = RoutingTable::up_down(&line, &line_overlay).unwrap();
    let mut tm = TrafficMatrix::zeros(20);
    tm.set(NodeId(0), NodeId(19), 0.03);
    tm.set(NodeId(19), NodeId(0), 0.03);
    let mut sim = NetworkSim::new(
        line,
        line_overlay,
        line_table,
        EnergyModel::default_65nm(),
        SimConfig::default(),
    )
    .unwrap();
    sim.set_faults(&plan);
    let (digest_a, delivered) = {
        let stats = sim.run(&tm, 200, 3000, 60_000);
        (stats.digest(), stats.packets_delivered)
    };
    let counts_a = sim.fault_counts();
    assert!(counts_a.flit_corruptions > 0, "30% link errors must fire");
    assert!(delivered > 0, "faulty network must still deliver");
    let stats_b = sim.run(&tm, 200, 3000, 60_000);
    assert_eq!(digest_a, stats_b.digest(), "fault schedule must replay");
    assert_eq!(counts_a, sim.fault_counts());

    // A fault-free run of the same instance differs: faults are observable.
    sim.set_faults(&mapwave_faults::FaultPlan::none());
    let clean = sim.run(&tm, 200, 3000, 60_000).digest();
    assert_ne!(digest_a, clean, "30% corruption must perturb the digest");
}

#[test]
fn heavy_link_faults_trigger_wireline_fallback_on_winoc() {
    // At a near-certain corruption rate the WIs cross the consecutive
    // threshold quickly (8 of 12 fall back after 92 corrupted attempts) and
    // their packets divert to the wireline escape tree. This checks only
    // that the fallback fires and that something is delivered: the network
    // wedges. 49 of 2,605 measured packets arrive, and 10,308 flits are
    // still buffered when the 60,000-cycle drain budget runs out.
    let plan = mapwave_faults::FaultPlan::build(&mapwave_faults::FaultConfig::at_rate(0.95, 3));
    let sw = small_world_64();
    let overlay = winoc_overlay();
    let table = RoutingTable::up_down_weighted(&sw, &overlay, 1).unwrap();
    let mut sim = NetworkSim::new(
        sw,
        overlay,
        table,
        EnergyModel::default_65nm(),
        SimConfig::default(),
    )
    .unwrap();
    sim.set_faults(&plan);
    let stats = sim.run(&TrafficMatrix::uniform(64, 0.02), 300, 2000, 60_000);
    let delivered = stats.packets_delivered;
    let counts = sim.fault_counts();
    assert!(counts.wi_fallbacks > 0, "WIs must fall back at 95% loss");
    assert!(
        delivered > 0,
        "WiNoC must survive on the wireline escape tree"
    );
}
