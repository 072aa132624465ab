//! Property tests of the NoC simulator's invariants, driven by
//! deterministic seeded sweeps (in-tree PRNG; no external dependencies).

use mapwave_harness::rng::{RngExt, SeedableRng, StdRng};
use mapwave_noc::node::grid_positions;
use mapwave_noc::prelude::*;
use mapwave_noc::routing::{Hop, RoutingTable};
use mapwave_noc::sim::SimConfig;
use mapwave_noc::topology::mesh::mesh;

/// Every injected packet is delivered once the network drains:
/// wormhole switching conserves flits under arbitrary admissible loads.
#[test]
fn mesh_conserves_packets() {
    let mut rng = StdRng::seed_from_u64(0xA001);
    for case in 0..24 {
        let cols = rng.random_range(2..5usize);
        let rows = rng.random_range(2..5usize);
        let rate = 0.001 + 0.049 * rng.random::<f64>();
        let seed = rng.random_range(0..1000u64);
        let n = cols * rows;
        let cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        let mut sim = NetworkSim::new(
            mesh(cols, rows, 1.0),
            WirelessOverlay::none(),
            RoutingTable::xy(cols, rows),
            EnergyModel::default_65nm(),
            cfg,
        )
        .unwrap();
        let stats = sim.run(&TrafficMatrix::uniform(n, rate), 100, 1500, 50_000);
        assert_eq!(stats.in_flight_at_end, 0, "case {case}");
        assert_eq!(
            stats.packets_delivered, stats.packets_injected,
            "case {case}"
        );
        assert_eq!(
            stats.flits_delivered,
            4 * stats.packets_delivered,
            "case {case}"
        );
    }
}

/// Energy accounting never goes negative and grows with delivery.
#[test]
fn energy_is_nonnegative_and_monotone() {
    let mut rng = StdRng::seed_from_u64(0xA002);
    for case in 0..16 {
        let rate = 0.005 + 0.035 * rng.random::<f64>();
        let seed = rng.random_range(0..100u64);
        let cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        let mut sim = NetworkSim::new(
            mesh(4, 4, 2.5),
            WirelessOverlay::none(),
            RoutingTable::xy(4, 4),
            EnergyModel::default_65nm(),
            cfg,
        )
        .unwrap();
        let stats = sim.run(&TrafficMatrix::uniform(16, rate), 100, 1000, 20_000);
        assert!(stats.energy.switch_pj >= 0.0, "case {case}");
        assert!(stats.energy.wire_pj >= 0.0, "case {case}");
        assert_eq!(
            stats.energy.wireless_pj, 0.0,
            "wired-only network, case {case}"
        );
        if stats.packets_delivered > 0 {
            assert!(stats.energy.total_pj() > 0.0, "case {case}");
            assert!(stats.avg_latency() >= 1.0, "case {case}");
        }
    }
}

/// Random small-world topologies are connected and routable for every
/// ordered pair, and routed paths only use existing links.
#[test]
fn random_small_worlds_route_everywhere() {
    let mut rng = StdRng::seed_from_u64(0xA003);
    for case in 0..12 {
        let seed = rng.random_range(0..500u64);
        let k_intra = 2.0 + 2.0 * rng.random::<f64>();
        let alpha = 1.0 + 2.0 * rng.random::<f64>();
        let clusters: Vec<usize> = (0..16).map(|i| (i % 4) / 2 + 2 * ((i / 4) / 2)).collect();
        let topo = SmallWorldBuilder::new(grid_positions(4, 4, 1.0), clusters)
            .k_intra(k_intra)
            .k_inter(4.0 - k_intra)
            .alpha(alpha)
            .seed(seed)
            .build()
            .unwrap();
        assert!(topo.is_connected(), "case {case}");
        let table = RoutingTable::up_down(&topo, &WirelessOverlay::none()).unwrap();
        for s in 0..16 {
            for d in 0..16 {
                let path = table.path(NodeId(s), NodeId(d));
                let mut at = NodeId(s);
                for hop in &path {
                    match hop {
                        Hop::Wire(w) => {
                            assert!(topo.has_link(at, *w), "case {case}");
                            at = *w;
                        }
                        _ => panic!("wired-only network, case {case}"),
                    }
                }
                assert_eq!(at, NodeId(d), "case {case}");
                assert!(path.len() <= 2 * 16, "path blow-up {s}->{d}, case {case}");
            }
        }
    }
}

/// Raising the wireless hub weight never increases the number of pairs
/// using wireless.
#[test]
fn hub_weight_monotonicity() {
    let mut rng = StdRng::seed_from_u64(0xA004);
    for case in 0..12 {
        let seed = rng.random_range(0..200u64);
        let clusters: Vec<usize> = (0..16).map(|i| (i % 4) / 2 + 2 * ((i / 4) / 2)).collect();
        let topo = SmallWorldBuilder::new(grid_positions(4, 4, 1.0), clusters)
            .seed(seed)
            .build()
            .unwrap();
        let overlay = WirelessOverlay::new(
            vec![
                WirelessInterface {
                    node: NodeId(0),
                    channel: ChannelId(0),
                },
                WirelessInterface {
                    node: NodeId(15),
                    channel: ChannelId(0),
                },
            ],
            1,
        )
        .unwrap();
        let t1 = RoutingTable::up_down_weighted(&topo, &overlay, 1).unwrap();
        let t3 = RoutingTable::up_down_weighted(&topo, &overlay, 3).unwrap();
        let wl_pairs = |t: &RoutingTable| -> usize {
            let mut c = 0;
            for s in 0..16 {
                for d in 0..16 {
                    if s != d && t.wireless_hops(NodeId(s), NodeId(d)) > 0 {
                        c += 1;
                    }
                }
            }
            c
        };
        assert!(wl_pairs(&t3) <= wl_pairs(&t1), "case {case}");
    }
}

/// The traffic matrix's derived quantities respect their definitions.
#[test]
fn traffic_matrix_identities() {
    let mut rng = StdRng::seed_from_u64(0xA005);
    for _case in 0..24 {
        let rates: Vec<f64> = (0..36).map(|_| 0.2 * rng.random::<f64>()).collect();
        let mut m = TrafficMatrix::zeros(6);
        for (idx, &r) in rates.iter().enumerate() {
            m.set(NodeId(idx / 6), NodeId(idx % 6), r);
        }
        // Diagonal writes are ignored.
        for i in 0..6 {
            assert_eq!(m.rate(NodeId(i), NodeId(i)), 0.0);
        }
        // Row rates sum to the total.
        let total: f64 = (0..6).map(|s| m.row_rate(NodeId(s))).sum();
        assert!((total - m.total_rate()).abs() < 1e-9);
        // Normalisation caps the maximum at 1.
        let norm = m.normalized();
        let max = (0..6)
            .flat_map(|s| (0..6).map(move |d| (s, d)))
            .map(|(s, d)| norm.rate(NodeId(s), NodeId(d)))
            .fold(0.0, f64::max);
        assert!(max <= 1.0 + 1e-12);
    }
}

/// With virtual channels and adaptive routing, flit conservation and
/// drain still hold on random small-world graphs under load.
#[test]
fn adaptive_small_worlds_conserve_packets() {
    let mut rng = StdRng::seed_from_u64(0xA006);
    for case in 0..10 {
        let seed = rng.random_range(0..200u64);
        let rate = 0.005 + 0.045 * rng.random::<f64>();
        let clusters: Vec<usize> = (0..16).map(|i| (i % 4) / 2 + 2 * ((i / 4) / 2)).collect();
        let topo = SmallWorldBuilder::new(grid_positions(4, 4, 1.0), clusters)
            .seed(seed)
            .build()
            .unwrap();
        let table = RoutingTable::up_down(&topo, &WirelessOverlay::none()).unwrap();
        let cfg = SimConfig {
            vcs: 2,
            adaptive: true,
            seed,
            ..SimConfig::default()
        };
        let mut sim = NetworkSim::new(
            topo,
            WirelessOverlay::none(),
            table,
            EnergyModel::default_65nm(),
            cfg,
        )
        .unwrap();
        let stats = sim.run(&TrafficMatrix::uniform(16, rate), 100, 1500, 60_000);
        assert_eq!(
            stats.in_flight_at_end, 0,
            "adaptive network wedged, case {case}"
        );
        assert_eq!(
            stats.packets_delivered, stats.packets_injected,
            "case {case}"
        );
    }
}

/// Simulation is a pure function of its inputs.
#[test]
fn simulation_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(0xA007);
    for _case in 0..8 {
        let seed = rng.random_range(0..50u64);
        let rate = 0.005 + 0.045 * rng.random::<f64>();
        let run = || {
            let cfg = SimConfig {
                seed,
                ..SimConfig::default()
            };
            let mut sim = NetworkSim::new(
                mesh(3, 3, 1.0),
                WirelessOverlay::none(),
                RoutingTable::xy(3, 3),
                EnergyModel::default_65nm(),
                cfg,
            )
            .unwrap();
            sim.run(&TrafficMatrix::uniform(9, rate), 50, 500, 10_000)
                .clone()
        };
        assert_eq!(run(), run());
    }
}

/// A switch with more than 64 input slots has no occupancy mask, so the
/// simulator falls back to the positional slot scan. A 40-leaf star at two
/// VCs gives the hub 82 slots; every measured packet must still drain, and
/// the fallback must be as deterministic as the masked path.
#[test]
fn wide_hub_takes_the_positional_scan_and_drains() {
    let leaves = 40;
    let mut positions = vec![Position::new(0.0, 0.0)];
    positions.extend((0..leaves).map(|i| {
        let a = std::f64::consts::TAU * i as f64 / leaves as f64;
        Position::new(2.5 * a.cos(), 2.5 * a.sin())
    }));
    let mut topo = Topology::new(positions, mapwave_noc::TopologyKind::Custom);
    for leaf in 1..=leaves {
        topo.add_link(NodeId(0), NodeId(leaf)).unwrap();
    }
    let table = RoutingTable::up_down(&topo, &WirelessOverlay::none()).unwrap();
    let cfg = SimConfig {
        vcs: 2,
        ..SimConfig::default()
    };
    let mut sim = NetworkSim::new(
        topo,
        WirelessOverlay::none(),
        table,
        EnergyModel::default_65nm(),
        cfg,
    )
    .unwrap();
    let tm = TrafficMatrix::uniform(leaves + 1, 0.01);
    let first = sim.run(&tm, 100, 2000, 50_000).clone();
    assert!(first.packets_delivered > 0);
    assert_eq!(first.in_flight_at_end, 0);
    assert_eq!(first.packets_delivered, first.packets_injected);
    assert_eq!(&first, sim.run(&tm, 100, 2000, 50_000));
}
