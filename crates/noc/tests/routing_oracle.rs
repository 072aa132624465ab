//! The bit-parallel up\*/down\* distance kernel against an independent
//! oracle.
//!
//! [`UpDownDistances`] and every table [`RoutingTable::up_down_weighted`]
//! builds read their distances from one kernel, so comparing those two
//! users proves nothing about the distances themselves. This file keeps
//! the per-destination reverse Dijkstra the kernel replaced — with its own
//! adjacency, root and BFS levels — and checks every `(state,
//! destination)` distance, both phases and the channel hubs included, on
//! meshes and small worlds with 0, 12 and 24 wireless interfaces at hub
//! weights 1, 2 and 3.

use mapwave_harness::rng::{RngExt, SeedableRng, StdRng};
use mapwave_noc::node::{grid_positions, Position};
use mapwave_noc::routing::{RoutingError, RoutingTable, UpDownDistances};
use mapwave_noc::topology::mesh::mesh;
use mapwave_noc::topology::small_world::SmallWorldBuilder;
use mapwave_noc::topology::wireless::{ChannelId, WirelessInterface, WirelessOverlay};
use mapwave_noc::topology::{Topology, TopologyKind};
use mapwave_noc::NodeId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Per-destination reverse Dijkstra over the phase-expanded graph. Returns
/// `dist[(v * 2 + p) * n + d]` over switches then hubs (phase 0 = Up), or
/// `None` when the extended graph is disconnected.
fn oracle_distances(
    topo: &Topology,
    overlay: &WirelessOverlay,
    hub_edge_weight: u32,
) -> Option<Vec<u32>> {
    let n = topo.len();
    let total = n + overlay.channel_count();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); total];
    for v in topo.nodes() {
        adj[v.index()] = topo.neighbors(v).iter().map(|w| w.index()).collect();
    }
    for wi in overlay.interfaces() {
        let hub = n + wi.channel.index();
        adj[wi.node.index()].push(hub);
        adj[hub].push(wi.node.index());
    }
    // Spanning-tree root: highest degree, ties toward the lowest id.
    let root = (0..n).max_by_key(|&v| (adj[v].len(), usize::MAX - v))?;
    let mut level = vec![usize::MAX; total];
    level[root] = 0;
    let mut queue = VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        for &w in &adj[v] {
            if level[w] == usize::MAX {
                level[w] = level[v] + 1;
                queue.push_back(w);
            }
        }
    }
    if level.contains(&usize::MAX) {
        return None;
    }
    // Going v -> w is "up" iff (level[w], w) < (level[v], v).
    let is_up = |v: usize, w: usize| (level[w], w) < (level[v], v);
    let mut out = vec![u32::MAX; 2 * total * n];
    for d in 0..n {
        let mut dist = vec![u32::MAX; 2 * total];
        let mut heap = BinaryHeap::new();
        for s in [d * 2, d * 2 + 1] {
            dist[s] = 0;
            heap.push(Reverse((0u32, s)));
        }
        while let Some(Reverse((c, s))) = heap.pop() {
            if c > dist[s] {
                continue;
            }
            let (w, q) = (s / 2, s % 2);
            for &v in &adj[w] {
                // Predecessor phases that may step v -> w into phase q: an
                // up link keeps phase Up, a down link enters phase Down.
                let preds: &[usize] = match (is_up(v, w), q) {
                    (true, 0) => &[0],
                    (false, 1) => &[0, 1],
                    _ => &[],
                };
                let nc = c + if v >= n || w >= n { hub_edge_weight } else { 1 };
                for &pp in preds {
                    if nc < dist[v * 2 + pp] {
                        dist[v * 2 + pp] = nc;
                        heap.push(Reverse((nc, v * 2 + pp)));
                    }
                }
            }
        }
        for (s, &c) in dist.iter().enumerate() {
            out[s * n + d] = c;
        }
    }
    Some(out)
}

/// Checks every `(state, destination)` distance of the kernel against the
/// oracle, and the table's phase-Up distances against both.
fn assert_matches_oracle(topo: &Topology, overlay: &WirelessOverlay, weight: u32) {
    let n = topo.len();
    let want = oracle_distances(topo, overlay, weight).expect("connected");
    let mut eval = UpDownDistances::new(topo, weight);
    assert!(eval.prepare(overlay), "oracle connected, so must prepare");
    assert_eq!(eval.state_count() * n, want.len());
    let mut got = vec![0u32; want.len()];
    eval.all_pairs_into(&mut got);
    for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
        let (s, d) = (i / n, i % n);
        assert_eq!(
            g,
            w,
            "n={n} weight {weight}: state {s} (vertex {}, phase {}) -> {d}",
            s / 2,
            s % 2
        );
    }
    let table = RoutingTable::up_down_weighted(topo, overlay, weight).unwrap();
    for s in 0..n {
        for d in 0..n {
            assert_eq!(table.distance(NodeId(s), NodeId(d)), want[s * 2 * n + d]);
        }
    }
}

/// `wis` distinct WIs at seeded random switches. The last channel gets
/// exactly one member (a dead-end hub); the others share the rest
/// round-robin.
fn random_overlay(n: usize, wis: usize, channels: usize, seed: u64) -> WirelessOverlay {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes: Vec<usize> = (0..n).collect();
    for i in 0..wis {
        let j = rng.random_range(i..n);
        nodes.swap(i, j);
    }
    let channel = |i: usize| {
        if i + 1 == wis {
            channels - 1
        } else {
            i % (channels - 1)
        }
    };
    WirelessOverlay::new(
        (0..wis)
            .map(|i| WirelessInterface {
                node: NodeId(nodes[i]),
                channel: ChannelId(channel(i)),
            })
            .collect(),
        channels,
    )
    .unwrap()
}

fn small_world(side: usize, seed: u64) -> Topology {
    let clusters = (0..side * side)
        .map(|i| usize::from(i % side >= side / 2) + 2 * usize::from(i / side >= side / 2))
        .collect();
    SmallWorldBuilder::new(grid_positions(side, side, 2.5), clusters)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn kernel_matches_per_destination_oracle() {
    let fabrics = [
        mesh(4, 4, 1.0),
        mesh(8, 8, 1.0),
        mesh(10, 10, 1.0), // a partial last bitset word
        small_world(8, 3),
        small_world(16, 5),
    ];
    for topo in &fabrics {
        let n = topo.len();
        for wis in [0usize, 12, 24].into_iter().filter(|&w| w < n) {
            let overlay = if wis == 0 {
                WirelessOverlay::none()
            } else {
                random_overlay(n, wis, wis / 4 + 1, n as u64 * 31 + wis as u64)
            };
            for weight in [1u32, 2, 3] {
                assert_matches_oracle(topo, &overlay, weight);
            }
        }
    }
}

#[test]
fn disconnected_overlay_is_rejected_by_kernel_and_builder() {
    // Two wired lines of four switches with no link between them.
    let mut topo = Topology::new(
        (0..8).map(|i| Position::new(i as f64, 0.0)).collect(),
        TopologyKind::Custom,
    );
    for i in [0, 1, 2, 4, 5, 6] {
        topo.add_link(NodeId(i), NodeId(i + 1)).unwrap();
    }
    let wi = |node: usize, channel: usize| WirelessInterface {
        node: NodeId(node),
        channel: ChannelId(channel),
    };
    let mut eval = UpDownDistances::new(&topo, 1);
    let none = WirelessOverlay::none();
    assert!(oracle_distances(&topo, &none, 1).is_none());
    assert!(!eval.prepare(&none));
    assert_eq!(
        RoutingTable::up_down(&topo, &none).unwrap_err(),
        RoutingError::Disconnected
    );
    // One channel bridges the halves: every route between them crosses
    // the hub.
    let bridged = WirelessOverlay::new(vec![wi(1, 0), wi(6, 0)], 1).unwrap();
    for weight in [1u32, 2, 3] {
        assert_matches_oracle(&topo, &bridged, weight);
    }
    // A second, unused channel is an isolated hub vertex.
    let isolated_hub = WirelessOverlay::new(vec![wi(1, 0), wi(6, 0)], 2).unwrap();
    assert!(oracle_distances(&topo, &isolated_hub, 1).is_none());
    assert!(!eval.prepare(&isolated_hub));
    assert_eq!(
        RoutingTable::up_down(&topo, &isolated_hub).unwrap_err(),
        RoutingError::Disconnected
    );
}
