//! Wireless interface placement and thread mapping (paper Section 6).
//!
//! Two methodologies are implemented:
//!
//! 1. **Minimised hop count** — threads are first mapped so that highly
//!    communicating cores sit physically close (greedy swap refinement of
//!    the traffic-weighted distance), then simulated annealing searches the
//!    WI positions that minimise the average traffic-weighted hop count of
//!    the routed network.
//! 2. **Maximised wireless utilisation** — WIs are pinned near each VFI
//!    cluster's centre, and threads are mapped *logically near, physically
//!    far*: the heaviest external communicators of each cluster are placed
//!    closest to its WIs, funnelling inter-cluster flits through the
//!    energy-efficient wireless channels.
//!
//! Thread mapping always respects the VFI partition: cluster `j`'s threads
//! live in die quadrant `j`, so swaps only occur within quadrants and the
//! V/F islands stay spatially contiguous.

use mapwave_harness::rng::StdRng;
use mapwave_harness::rng::{RngExt, SeedableRng};
use mapwave_harness::telemetry;
use mapwave_manycore::mapping::ThreadMapping;
use mapwave_noc::routing::{RoutingTable, UpDownDistances};
use mapwave_noc::topology::wireless::{ChannelId, WirelessInterface, WirelessOverlay};
use mapwave_noc::{NodeId, Topology, TrafficMatrix};
use mapwave_vfi::clustering::Clustering;

/// Hub-edge weight used when routing the WiNoC: a wireless traversal costs
/// `2 ×` this in the hop metric (see [`RoutingTable::up_down_weighted`]),
/// so wireless is taken whenever it saves at least two wired hops.
pub const WINOC_HUB_EDGE_WEIGHT: u32 = 1;

/// Physical quadrant of a tile on a `cols × rows` die.
pub fn quadrant_of(tile: NodeId, cols: usize, rows: usize) -> usize {
    let (c, r) = (tile.index() % cols, tile.index() / cols);
    usize::from(c >= cols / 2) + 2 * usize::from(r >= rows / 2)
}

/// Tiles of quadrant `q`, in id order.
pub fn quadrant_tiles(q: usize, cols: usize, rows: usize) -> Vec<NodeId> {
    (0..cols * rows)
        .map(NodeId)
        .filter(|&t| quadrant_of(t, cols, rows) == q)
        .collect()
}

/// The baseline mapping: cluster `j`'s threads, in id order, onto quadrant
/// `j`'s tiles, in id order.
///
/// # Panics
///
/// Panics if the clustering size differs from `cols * rows` or has more
/// clusters than quadrants.
pub fn initial_mapping(clustering: &Clustering, cols: usize, rows: usize) -> ThreadMapping {
    assert_eq!(clustering.len(), cols * rows, "clustering size mismatch");
    assert!(
        clustering.cluster_count() <= 4,
        "quadrant layout supports at most 4 clusters"
    );
    let mut to_tile = vec![0usize; clustering.len()];
    for j in 0..clustering.cluster_count() {
        let threads = clustering.members(j);
        let tiles = quadrant_tiles(j, cols, rows);
        assert_eq!(
            threads.len(),
            tiles.len(),
            "cluster {j} does not fill quadrant {j}"
        );
        for (&thread, &tile) in threads.iter().zip(tiles.iter()) {
            to_tile[thread] = tile.index();
        }
    }
    ThreadMapping::from_permutation(to_tile).expect("constructed a bijection")
}

/// Traffic-weighted distance of a mapping under a pairwise tile distance.
pub fn mapping_cost<F: Fn(NodeId, NodeId) -> f64>(
    mapping: &ThreadMapping,
    traffic: &TrafficMatrix,
    dist: F,
) -> f64 {
    let n = mapping.len();
    let mut cost = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let r = traffic.rate(NodeId(i), NodeId(j));
                if r > 0.0 {
                    cost += r * dist(mapping.tile_of(i), mapping.tile_of(j));
                }
            }
        }
    }
    cost
}

/// Size threshold past which [`refine_mapping_min_hop`] (and the
/// max-wireless seeding) switch to their hierarchical paths. At or below
/// the paper's 64 cores the flat implementations run unchanged, keeping
/// every existing golden bit-identical.
const HIER_LEAF: usize = 64;

/// Methodology 1, step 1: greedy within-quadrant swaps minimising the
/// traffic-weighted tile distance.
///
/// Up to [`HIER_LEAF`] cores this is the flat best-improvement loop: the
/// tile-distance grid and traffic rates are flattened once, and each
/// candidate swap is scored by an O(n) directed delta over the two threads'
/// traffic rows/columns instead of an O(n²) full-cost recomputation — same
/// scan order and acceptance rule as [`refine_mapping_min_hop_reference`],
/// so the refined mapping is identical (pinned by the equivalence tests).
///
/// Beyond [`HIER_LEAF`] cores the flat loop's move count makes it
/// quadratic-ish in practice, so the refinement goes hierarchical:
/// cluster-level moves first (threads are coarsened into the 4-tile
/// proximity blocks they currently occupy and whole blocks are swapped
/// under aggregated traffic / mean block distance), then a bounded number
/// of first-improvement core-level polish sweeps with the same O(n)
/// directed delta. Both stages reuse the flattened scratch tables; no
/// per-move allocation.
pub fn refine_mapping_min_hop<F: Fn(NodeId, NodeId) -> f64>(
    mapping: ThreadMapping,
    clustering: &Clustering,
    traffic: &TrafficMatrix,
    dist: F,
) -> ThreadMapping {
    if mapping.len() <= HIER_LEAF {
        refine_mapping_min_hop_flat(mapping, clustering, traffic, dist)
    } else {
        refine_mapping_min_hop_hier(mapping, clustering, traffic, dist)
    }
}

/// The flattened `n × n` distance (`d[u * n + w]`) and rate
/// (`r[i * n + j]`) tables a swap delta reads, with their transposes, so
/// that every read of [`SwapTables::delta`] walks a row rather than a
/// column.
struct SwapTables {
    n: usize,
    d: Vec<f64>,
    dt: Vec<f64>,
    r: Vec<f64>,
    rt: Vec<f64>,
}

impl SwapTables {
    fn new(n: usize, d: Vec<f64>, r: Vec<f64>) -> Self {
        let transpose =
            |m: &[f64]| -> Vec<f64> { (0..n * n).map(|k| m[(k % n) * n + k / n]).collect() };
        SwapTables {
            n,
            dt: transpose(&d),
            rt: transpose(&r),
            d,
            r,
        }
    }

    /// The directed O(n) swap delta shared by the flat and hierarchical
    /// paths: the cost change from swapping the tiles of threads `a` and
    /// `b`. It reads eight rows — `a`'s and `b`'s outgoing and incoming
    /// rates, and the distances from and to tiles `ta` and `tb` — in the
    /// same terms and summation order as a column-walking loop over `d`
    /// and `r` alone.
    #[inline]
    fn delta<'a>(&'a self, tile_of: impl Fn(usize) -> usize, a: usize, b: usize) -> f64 {
        let n = self.n;
        let row = |m: &'a [f64], i: usize| &m[i * n..(i + 1) * n];
        let (ta, tb) = (tile_of(a), tile_of(b));
        let (r_a, r_b, rt_a, rt_b) = (
            row(&self.r, a),
            row(&self.r, b),
            row(&self.rt, a),
            row(&self.rt, b),
        );
        let (d_ta, d_tb) = (row(&self.d, ta), row(&self.d, tb));
        let (dt_ta, dt_tb) = (row(&self.dt, ta), row(&self.dt, tb));
        // Swapping threads a <-> b only changes terms involving a or b:
        // a's traffic is re-routed from tile ta to tb and vice versa.
        let mut delta = 0.0;
        for t in 0..n {
            if t == a || t == b {
                continue;
            }
            let tt = tile_of(t);
            let (rat, rta) = (r_a[t], rt_a[t]);
            if rat != 0.0 {
                delta += rat * (d_tb[tt] - d_ta[tt]);
            }
            if rta != 0.0 {
                delta += rta * (dt_tb[tt] - dt_ta[tt]);
            }
            let (rbt, rtb) = (r_b[t], rt_b[t]);
            if rbt != 0.0 {
                delta += rbt * (d_ta[tt] - d_tb[tt]);
            }
            if rtb != 0.0 {
                delta += rtb * (dt_ta[tt] - dt_tb[tt]);
            }
        }
        delta += r_a[b] * (d_tb[ta] - d_ta[tb]);
        delta += r_b[a] * (d_ta[tb] - d_tb[ta]);
        delta
    }
}

/// The swap tables of an `n`-thread refinement: `dist` between every tile
/// pair and the traffic rate between every thread pair.
fn flat_tables<F: Fn(NodeId, NodeId) -> f64>(
    n: usize,
    traffic: &TrafficMatrix,
    dist: F,
) -> SwapTables {
    let d = (0..n * n)
        .map(|k| dist(NodeId(k / n), NodeId(k % n)))
        .collect();
    let r = (0..n * n)
        .map(|k| traffic.rate(NodeId(k / n), NodeId(k % n)))
        .collect();
    SwapTables::new(n, d, r)
}

/// The flat (≤ [`HIER_LEAF`]) best-improvement refinement.
fn refine_mapping_min_hop_flat<F: Fn(NodeId, NodeId) -> f64>(
    mut mapping: ThreadMapping,
    clustering: &Clustering,
    traffic: &TrafficMatrix,
    dist: F,
) -> ThreadMapping {
    let n = mapping.len();
    // Flat lookups (tile distances, traffic rates) and the within-quadrant
    // candidate pairs (a < b) in scan order.
    let tables = flat_tables(n, traffic, dist);
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .filter(|&(a, b)| clustering.cluster_of(a) == clustering.cluster_of(b))
        .collect();
    let max_passes = 2 * n;
    for _ in 0..max_passes {
        let mut best: Option<(usize, usize, f64)> = None;
        for &(a, b) in &pairs {
            let delta = tables.delta(|t| mapping.tile_of(t).index(), a, b);
            if delta < -1e-12 && best.is_none_or(|(_, _, dd)| delta < dd) {
                best = Some((a, b, delta));
            }
        }
        match best {
            Some((a, b, _)) => mapping.swap_threads(a, b),
            None => break,
        }
    }
    mapping
}

/// The hierarchical (> [`HIER_LEAF`]) refinement: cluster-level block
/// swaps, then bounded core-level polish.
fn refine_mapping_min_hop_hier<F: Fn(NodeId, NodeId) -> f64>(
    mut mapping: ThreadMapping,
    clustering: &Clustering,
    traffic: &TrafficMatrix,
    dist: F,
) -> ThreadMapping {
    let n = mapping.len();
    let tables = flat_tables(n, traffic, dist);
    let (d, r) = (&tables.d, &tables.r);

    const BLOCK: usize = 4;
    let m = clustering.cluster_count();
    if (0..m).all(|j| clustering.members(j).len().is_multiple_of(BLOCK)) {
        // --- Stage 1: cluster-level moves. ---
        //
        // Coarsen the incoming mapping: each quadrant's tiles are grouped
        // into proximity blocks of 4 (smallest unplaced tile anchors a
        // block, its 3 nearest unplaced tiles join it), and the threads
        // currently on a block form its thread group — so whatever
        // structure the seeding put into the mapping (e.g. heavy external
        // talkers near the WIs) survives coarsening. Best-improvement
        // swaps then move whole groups between same-cluster blocks under
        // the aggregated group traffic and mean inter-block distance.
        let mut blocks: Vec<[usize; BLOCK]> = Vec::with_capacity(n / BLOCK);
        let mut block_cluster: Vec<usize> = Vec::with_capacity(n / BLOCK);
        for j in 0..m {
            let mut tiles: Vec<usize> = clustering
                .members(j)
                .iter()
                .map(|&t| mapping.tile_of(t).index())
                .collect();
            tiles.sort_unstable();
            while !tiles.is_empty() {
                let anchor = tiles.remove(0);
                tiles.sort_by(|&a, &b| {
                    d[anchor * n + a]
                        .partial_cmp(&d[anchor * n + b])
                        .expect("finite distance")
                        .then(a.cmp(&b))
                });
                let mut block = [anchor, tiles[0], tiles[1], tiles[2]];
                tiles.drain(0..BLOCK - 1);
                tiles.sort_unstable();
                block.sort_unstable();
                blocks.push(block);
                block_cluster.push(j);
            }
        }
        let nb = blocks.len();

        // Thread group of each block, aligned with the block's sorted
        // tiles, plus aggregated group traffic and mean block distance.
        let mut tile_to_thread = vec![0usize; n];
        for t in 0..n {
            tile_to_thread[mapping.tile_of(t).index()] = t;
        }
        let groups: Vec<[usize; BLOCK]> = blocks
            .iter()
            .map(|b| b.map(|tile| tile_to_thread[tile]))
            .collect();
        let mut group_of_thread = vec![0usize; n];
        for (g, members) in groups.iter().enumerate() {
            for &t in members {
                group_of_thread[t] = g;
            }
        }
        let mut gr = vec![0.0f64; nb * nb]; // directed group traffic
        for i in 0..n {
            let gi = group_of_thread[i];
            for p in 0..n {
                if i != p {
                    gr[gi * nb + group_of_thread[p]] += r[i * n + p];
                }
            }
        }
        let mut gd = vec![0.0f64; nb * nb]; // mean inter-block distance
        for a in 0..nb {
            for b in 0..nb {
                let mut sum = 0.0;
                for &ta in &blocks[a] {
                    for &tb in &blocks[b] {
                        sum += d[ta * n + tb];
                    }
                }
                gd[a * nb + b] = sum / (BLOCK * BLOCK) as f64;
            }
        }

        let block_tables = SwapTables::new(nb, gd, gr);
        let gpairs: Vec<(usize, usize)> = (0..nb)
            .flat_map(|a| (a + 1..nb).map(move |b| (a, b)))
            .filter(|&(a, b)| block_cluster[a] == block_cluster[b])
            .collect();
        let mut assign: Vec<usize> = (0..nb).collect(); // group -> block
        let mut accepted = 0u64;
        for _ in 0..2 * nb {
            let mut best: Option<(usize, usize, f64)> = None;
            for &(a, b) in &gpairs {
                let delta = block_tables.delta(|g| assign[g], a, b);
                if delta < -1e-12 && best.is_none_or(|(_, _, dd)| delta < dd) {
                    best = Some((a, b, delta));
                }
            }
            match best {
                Some((a, b, _)) => {
                    assign.swap(a, b);
                    accepted += 1;
                }
                None => break,
            }
        }
        telemetry::count("placement.block_swaps_accepted", accepted);

        // Uncoarsen: group g's threads land on its assigned block's tiles,
        // preserving the within-block tile order.
        for (g, members) in groups.iter().enumerate() {
            for (k, &thread) in members.iter().enumerate() {
                let target_tile = blocks[assign[g]][k];
                let occupant = tile_to_thread[target_tile];
                if occupant != thread {
                    let freed = mapping.tile_of(thread).index();
                    mapping.swap_threads(thread, occupant);
                    tile_to_thread[target_tile] = thread;
                    tile_to_thread[freed] = occupant;
                }
            }
        }
    }

    // --- Stage 2: core-level polish. ---
    //
    // Bounded first-improvement sweeps (the flat path's one-move-per-pass
    // best-improvement schedule would rescan all pairs once per accepted
    // move, which is exactly what does not scale).
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .filter(|&(a, b)| clustering.cluster_of(a) == clustering.cluster_of(b))
        .collect();
    let polish_sweeps = 2;
    for _ in 0..polish_sweeps {
        let mut improved = false;
        for &(a, b) in &pairs {
            let delta = tables.delta(|t| mapping.tile_of(t).index(), a, b);
            if delta < -1e-12 {
                mapping.swap_threads(a, b);
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    mapping
}

/// Pre-optimization [`refine_mapping_min_hop`]: full traffic-weighted cost
/// recomputed for every candidate swap. Kept as the equivalence baseline
/// for tests and the `design_flow` bench.
pub fn refine_mapping_min_hop_reference<F: Fn(NodeId, NodeId) -> f64>(
    mut mapping: ThreadMapping,
    clustering: &Clustering,
    traffic: &TrafficMatrix,
    dist: F,
) -> ThreadMapping {
    let n = mapping.len();
    let max_passes = 2 * n;
    for _ in 0..max_passes {
        let mut best: Option<(usize, usize, f64)> = None;
        let current = mapping_cost(&mapping, traffic, &dist);
        for a in 0..n {
            for b in a + 1..n {
                if clustering.cluster_of(a) != clustering.cluster_of(b) {
                    continue; // stay inside the VFI quadrant
                }
                mapping.swap_threads(a, b);
                let cost = mapping_cost(&mapping, traffic, &dist);
                mapping.swap_threads(a, b);
                let delta = cost - current;
                if delta < -1e-12 && best.is_none_or(|(_, _, d)| delta < d) {
                    best = Some((a, b, delta));
                }
            }
        }
        match best {
            Some((a, b, _)) => mapping.swap_threads(a, b),
            None => break,
        }
    }
    mapping
}

/// Methodology 2, step 1: WIs at the tiles nearest each quadrant's centre,
/// one per channel.
pub fn center_wis(
    cols: usize,
    rows: usize,
    tile_mm: f64,
    wis_per_cluster: usize,
    channels: usize,
) -> WirelessOverlay {
    let mut wis = Vec::new();
    for q in 0..4 {
        let tiles = quadrant_tiles(q, cols, rows);
        let cx = tiles.iter().map(|t| (t.index() % cols) as f64).sum::<f64>() / tiles.len() as f64;
        let cy = tiles.iter().map(|t| (t.index() / cols) as f64).sum::<f64>() / tiles.len() as f64;
        let mut by_center: Vec<NodeId> = tiles.clone();
        by_center.sort_by(|a, b| {
            let da =
                ((a.index() % cols) as f64 - cx).powi(2) + ((a.index() / cols) as f64 - cy).powi(2);
            let db =
                ((b.index() % cols) as f64 - cx).powi(2) + ((b.index() / cols) as f64 - cy).powi(2);
            da.partial_cmp(&db)
                .expect("distances are finite")
                .then(a.cmp(b))
        });
        for (i, &tile) in by_center.iter().take(wis_per_cluster).enumerate() {
            wis.push(WirelessInterface {
                node: tile,
                channel: ChannelId(i % channels),
            });
        }
    }
    let _ = tile_mm;
    WirelessOverlay::new(wis, channels).expect("centre WIs are distinct per quadrant")
}

/// Methodology 2, step 2: within each quadrant, place the threads with the
/// heaviest *external* (inter-cluster) traffic on the tiles closest to the
/// quadrant's WIs.
pub fn refine_mapping_max_wireless(
    mapping: &ThreadMapping,
    clustering: &Clustering,
    traffic: &TrafficMatrix,
    overlay: &WirelessOverlay,
    cols: usize,
    rows: usize,
) -> ThreadMapping {
    let n = mapping.len();
    // Hierarchical treatment for dies past the paper size: the external
    // volume of every thread is aggregated per *cluster* in one pass over
    // the traffic matrix (`cluster_rates`-style), then summed over foreign
    // clusters — instead of re-filtering the full row against the cluster
    // labels once per thread. Dies ≤ HIER_LEAF keep the elementwise
    // accumulation order of the original loop so existing goldens stay
    // bit-identical.
    let m = clustering.cluster_count();
    let cluster_sums: Option<Vec<f64>> = (n > HIER_LEAF).then(|| {
        let mut sums = vec![0.0f64; n * m]; // sums[i*m + c]
        for i in 0..n {
            for p in 0..n {
                if p != i {
                    sums[i * m + clustering.cluster_of(p)] +=
                        traffic.rate(NodeId(i), NodeId(p)) + traffic.rate(NodeId(p), NodeId(i));
                }
            }
        }
        sums
    });
    let mut to_tile = vec![0usize; n];
    for j in 0..clustering.cluster_count() {
        let threads = clustering.members(j);
        let tiles = quadrant_tiles(j, cols, rows);
        let wi_tiles: Vec<NodeId> = tiles
            .iter()
            .copied()
            .filter(|&t| overlay.is_wi(t))
            .collect();
        // Tiles ranked by distance to the nearest WI of the quadrant.
        let mut ranked_tiles = tiles.clone();
        let tile_key = |t: NodeId| {
            wi_tiles
                .iter()
                .map(|&w| {
                    let (tc, tr) = (t.index() % cols, t.index() / cols);
                    let (wc, wr) = (w.index() % cols, w.index() / cols);
                    tc.abs_diff(wc) + tr.abs_diff(wr)
                })
                .min()
                .unwrap_or(0)
        };
        ranked_tiles.sort_by_cached_key(|&t| (tile_key(t), t));
        // Threads ranked by external traffic volume, heaviest first. The
        // aggregate ext(i) is computed once per thread (same accumulation
        // order as summing inside the comparator, so identical values)
        // rather than on every comparison.
        let mut ranked_threads = threads.clone();
        let mut ext = vec![0.0f64; n];
        for &i in &ranked_threads {
            ext[i] = match &cluster_sums {
                Some(sums) => (0..m).filter(|&c| c != j).map(|c| sums[i * m + c]).sum(),
                None => (0..n)
                    .filter(|&p| clustering.cluster_of(p) != j)
                    .map(|p| {
                        traffic.rate(NodeId(i), NodeId(p)) + traffic.rate(NodeId(p), NodeId(i))
                    })
                    .sum(),
            };
        }
        ranked_threads.sort_by(|&a, &b| {
            ext[b]
                .partial_cmp(&ext[a])
                .expect("traffic is finite")
                .then(a.cmp(&b))
        });
        for (&thread, &tile) in ranked_threads.iter().zip(ranked_tiles.iter()) {
            to_tile[thread] = tile.index();
        }
    }
    ThreadMapping::from_permutation(to_tile).expect("constructed a bijection")
}

/// Methodology 1, step 2: simulated annealing over WI positions minimising
/// the average traffic-weighted hop count of the routed network.
///
/// Moves relocate one WI to a free tile of the same quadrant; the objective
/// is the routed up\*/down\* hop metric, so wireless shortcuts are
/// evaluated exactly as the router will use them. Per move, one
/// bit-parallel [`UpDownDistances`] pass computes every distance (no
/// port-table materialisation), and the traffic-weighted mean is
/// re-accumulated in [`TrafficMatrix::weighted_mean`]'s pair order — so
/// every cost value, and therefore the whole annealing trajectory, is
/// bit-identical to [`anneal_wi_placement_reference`].
///
/// # Panics
///
/// Panics if a quadrant has fewer tiles than `wis_per_cluster`.
pub fn anneal_wi_placement(
    topo: &Topology,
    traffic: &TrafficMatrix,
    cols: usize,
    rows: usize,
    wis_per_cluster: usize,
    channels: usize,
    seed: u64,
) -> WirelessOverlay {
    let n = topo.len();
    // Nonzero traffic pairs in weighted_mean's (s-major) order and the
    // fixed denominator.
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
    let mut den = 0.0;
    for s in 0..n {
        for d in 0..n {
            let r = traffic.rate(NodeId(s), NodeId(d));
            if s != d && r > 0.0 {
                pairs.push((s, d, r));
                den += r;
            }
        }
    }

    let mut eval = UpDownDistances::new(topo, WINOC_HUB_EDGE_WEIGHT);
    let mut dist: Vec<u32> = Vec::new(); // dist[(v * 2 + phase) * n + d]
    let cost = move |overlay: &WirelessOverlay| -> f64 {
        telemetry::count("placement.routing_rebuilds_avoided", 1);
        if !eval.prepare(overlay) {
            return f64::INFINITY; // the reference's RoutingError arm
        }
        if den <= 0.0 {
            return 0.0;
        }
        dist.resize(eval.state_count() * n, 0);
        eval.all_pairs_into(&mut dist);
        let mut num = 0.0;
        for &(s, d, r) in &pairs {
            // Fresh packets start in phase Up: state `s * 2`.
            num += r * f64::from(dist[s * 2 * n + d]);
        }
        num / den
    };
    anneal_overlay(cols, rows, wis_per_cluster, channels, seed, cost)
}

/// Pre-optimization [`anneal_wi_placement`]: rebuilds the full
/// [`RoutingTable`] for every candidate overlay. Kept as the equivalence
/// baseline for tests and the `design_flow` bench.
pub fn anneal_wi_placement_reference(
    topo: &Topology,
    traffic: &TrafficMatrix,
    cols: usize,
    rows: usize,
    wis_per_cluster: usize,
    channels: usize,
    seed: u64,
) -> WirelessOverlay {
    let cost = |overlay: &WirelessOverlay| -> f64 {
        match RoutingTable::up_down_weighted(topo, overlay, WINOC_HUB_EDGE_WEIGHT) {
            Ok(table) => traffic.weighted_mean(|s, d| table.distance(s, d) as f64),
            Err(_) => f64::INFINITY,
        }
    };
    anneal_overlay(cols, rows, wis_per_cluster, channels, seed, cost)
}

/// The shared annealing schedule: both the optimized and reference entry
/// points drive this exact loop (same RNG stream, same move proposals,
/// same acceptance rule), differing only in how `cost` is evaluated.
///
/// The move loop works in place: the per-quadrant tile lists are built
/// once, the candidate buffer is reused across steps, and each proposal is
/// a [`WirelessOverlay::relocate`]/undo pair instead of cloning the
/// interface list into a freshly sorted overlay — no per-move buffer
/// allocation. On dies larger than the paper's 8×8 the schedule is
/// hierarchical: the first half of the iteration budget proposes
/// cluster-level moves on the even-parity tile sublattice (a 2× coarser
/// placement grid that covers the quadrant quickly), the second half
/// polishes at full tile resolution. Dies ≤ 8×8 keep the original
/// single-phase schedule, bit for bit.
fn anneal_overlay(
    cols: usize,
    rows: usize,
    wis_per_cluster: usize,
    channels: usize,
    seed: u64,
    mut cost: impl FnMut(&WirelessOverlay) -> f64,
) -> WirelessOverlay {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut overlay = center_wis(cols, rows, 1.0, wis_per_cluster, channels);

    let mut current_cost = cost(&overlay);
    let mut best = overlay.clone();
    let mut best_cost = current_cost;

    let quad_tiles: [Vec<NodeId>; 4] = std::array::from_fn(|q| quadrant_tiles(q, cols, rows));
    let mut candidates: Vec<NodeId> = Vec::with_capacity(quad_tiles[0].len());

    let hierarchical = cols.max(rows) > 8;
    let iterations = 120;
    let mut evaluated = 0u64;
    for step in 0..iterations {
        let temp = 0.3 * (1.0 - step as f64 / iterations as f64) + 1e-3;
        // Move: relocate one WI within its quadrant.
        let pick = rng.random_range(0..overlay.len());
        let victim = overlay.interfaces()[pick];
        let q = quadrant_of(victim.node, cols, rows);
        let coarse = hierarchical && step < iterations / 2;
        candidates.clear();
        candidates.extend(quad_tiles[q].iter().copied().filter(|&t| {
            !overlay.is_wi(t)
                && (!coarse
                    || (t.index() % cols).is_multiple_of(2) && (t.index() / cols).is_multiple_of(2))
        }));
        if candidates.is_empty() {
            continue;
        }
        let target = candidates[rng.random_range(0..candidates.len())];
        let moved = overlay.relocate(pick, target);
        let c = cost(&overlay);
        evaluated += 1;
        let accept =
            c < current_cost || rng.random::<f64>() < (-(c - current_cost) / temp.max(1e-9)).exp();
        if accept {
            current_cost = c;
            if c < best_cost {
                best_cost = c;
                best.clone_from(&overlay);
            }
        } else {
            overlay.relocate(moved, victim.node);
        }
    }
    telemetry::count("placement.sa_moves_evaluated", evaluated);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapwave_noc::node::grid_positions;
    use mapwave_noc::topology::small_world::SmallWorldBuilder;

    fn quad_clustering(cols: usize, rows: usize) -> Clustering {
        Clustering::grid_quadrants(cols, rows)
    }

    #[test]
    fn quadrants_partition_the_die() {
        let mut counts = [0usize; 4];
        for t in 0..64 {
            counts[quadrant_of(NodeId(t), 8, 8)] += 1;
        }
        assert_eq!(counts, [16, 16, 16, 16]);
        assert_eq!(quadrant_tiles(0, 8, 8).len(), 16);
        assert_eq!(quadrant_of(NodeId(0), 8, 8), 0);
        assert_eq!(quadrant_of(NodeId(7), 8, 8), 1);
        assert_eq!(quadrant_of(NodeId(63), 8, 8), 3);
    }

    #[test]
    fn initial_mapping_respects_quadrants() {
        let clustering = quad_clustering(4, 4);
        let mapping = initial_mapping(&clustering, 4, 4);
        for thread in 0..16 {
            let tile = mapping.tile_of(thread);
            assert_eq!(
                clustering.cluster_of(thread),
                quadrant_of(tile, 4, 4),
                "thread {thread} must live in its cluster's quadrant"
            );
        }
    }

    #[test]
    fn min_hop_refinement_reduces_cost() {
        // Threads 0 and 15 talk heavily but 0 is in quadrant 0, 15 in
        // quadrant 3 — refinement can only move them to facing corners.
        let clustering = quad_clustering(4, 4);
        let mut traffic = TrafficMatrix::zeros(16);
        traffic.set(NodeId(0), NodeId(15), 1.0);
        traffic.set(NodeId(15), NodeId(0), 1.0);
        let dist = |a: NodeId, b: NodeId| {
            let (ac, ar) = (a.index() % 4, a.index() / 4);
            let (bc, br) = (b.index() % 4, b.index() / 4);
            (ac.abs_diff(bc) + ar.abs_diff(br)) as f64
        };
        let initial = initial_mapping(&clustering, 4, 4);
        let before = mapping_cost(&initial, &traffic, dist);
        let refined = refine_mapping_min_hop(initial, &clustering, &traffic, dist);
        let after = mapping_cost(&refined, &traffic, dist);
        assert!(after <= before);
        // Quadrant constraint still holds.
        for thread in 0..16 {
            assert_eq!(
                clustering.cluster_of(thread),
                quadrant_of(refined.tile_of(thread), 4, 4)
            );
        }
        // The facing corners of quadrants 0 and 3 are tiles 5 and 10
        // (distance 2); the refinement must reach that optimum.
        assert!((after - 2.0 * 2.0).abs() < 1e-9, "cost {after}");
    }

    #[test]
    fn center_wis_land_in_quadrant_centres() {
        let overlay = center_wis(8, 8, 2.5, 3, 3);
        assert_eq!(overlay.len(), 12);
        for wi in overlay.interfaces() {
            let q = quadrant_of(wi.node, 8, 8);
            let (c, r) = (wi.node.index() % 8, wi.node.index() / 8);
            // Quadrant-0 centre tiles are around (1..=2, 1..=2), etc.
            let (qc, qr) = (q % 2, q / 2);
            assert!(
                (c as i64 - (qc * 4 + 1) as i64).abs() <= 2,
                "WI col {c} off-centre for quadrant {q}"
            );
            assert!((r as i64 - (qr * 4 + 1) as i64).abs() <= 2);
        }
        // One WI per channel per quadrant.
        for q in 0..4 {
            let mut chans: Vec<usize> = overlay
                .interfaces()
                .iter()
                .filter(|w| quadrant_of(w.node, 8, 8) == q)
                .map(|w| w.channel.index())
                .collect();
            chans.sort_unstable();
            assert_eq!(chans, vec![0, 1, 2]);
        }
    }

    #[test]
    fn max_wireless_mapping_puts_talkers_near_wis() {
        let clustering = quad_clustering(4, 4);
        let overlay = center_wis(4, 4, 1.0, 1, 1);
        let mut traffic = TrafficMatrix::zeros(16);
        // Thread 1 (cluster 0) talks across clusters heavily.
        traffic.set(NodeId(1), NodeId(15), 5.0);
        let base = initial_mapping(&clustering, 4, 4);
        let mapped = refine_mapping_max_wireless(&base, &clustering, &traffic, &overlay, 4, 4);
        // Thread 1 must land on the quadrant-0 WI tile itself (distance 0).
        let wi0 = overlay
            .interfaces()
            .iter()
            .find(|w| quadrant_of(w.node, 4, 4) == 0)
            .expect("quadrant 0 has a WI")
            .node;
        assert_eq!(mapped.tile_of(1), wi0);
    }

    #[test]
    fn annealed_placement_beats_or_matches_random_start() {
        let clusters: Vec<usize> = (0..64).map(|i| quadrant_of(NodeId(i), 8, 8)).collect();
        let topo = SmallWorldBuilder::new(grid_positions(8, 8, 2.5), clusters)
            .seed(5)
            .build()
            .unwrap();
        // Cross-die traffic that wireless should shortcut.
        let mut traffic = TrafficMatrix::zeros(64);
        traffic.set(NodeId(0), NodeId(63), 1.0);
        traffic.set(NodeId(7), NodeId(56), 1.0);
        let annealed = anneal_wi_placement(&topo, &traffic, 8, 8, 3, 3, 11);
        let centre = center_wis(8, 8, 2.5, 3, 3);
        let cost = |o: &WirelessOverlay| {
            let t = RoutingTable::up_down(&topo, o).unwrap();
            traffic.weighted_mean(|s, d| t.distance(s, d) as f64)
        };
        assert!(
            cost(&annealed) <= cost(&centre) + 1e-9,
            "annealing must not be worse than its start"
        );
        assert_eq!(annealed.len(), 12);
    }

    /// Seeded dense traffic with an LCG (no external dependency) so the
    /// equivalence tests exercise realistic non-uniform rates.
    fn lcg_traffic(n: usize, seed: u64) -> TrafficMatrix {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0)
        };
        let mut traffic = TrafficMatrix::zeros(n);
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    let r = next();
                    if r > 0.7 {
                        traffic.set(NodeId(s), NodeId(d), r * 0.1);
                    }
                }
            }
        }
        traffic
    }

    #[test]
    fn anneal_matches_reference_implementation() {
        // The distance-only cost path must reproduce the table-building
        // reference bit for bit: same RNG stream, same accept decisions,
        // same final overlay. Both sides read one distance kernel; the
        // routing oracle test in mapwave-noc pins the distances themselves.
        let clusters: Vec<usize> = (0..64).map(|i| quadrant_of(NodeId(i), 8, 8)).collect();
        for (topo_seed, traffic_seed, sa_seed) in [(5u64, 11u64, 7u64), (3, 42, 99)] {
            let topo = SmallWorldBuilder::new(grid_positions(8, 8, 2.5), clusters.clone())
                .seed(topo_seed)
                .build()
                .unwrap();
            let traffic = lcg_traffic(64, traffic_seed);
            let fast = anneal_wi_placement(&topo, &traffic, 8, 8, 3, 3, sa_seed);
            let slow = anneal_wi_placement_reference(&topo, &traffic, 8, 8, 3, 3, sa_seed);
            assert_eq!(fast, slow, "seeds ({topo_seed},{traffic_seed},{sa_seed})");
        }
    }

    /// Grid distance on a `side × side` die where each hop toward row 0
    /// costs `uphill` (1.0: Manhattan). Any other `uphill` makes
    /// `dist(a, b) != dist(b, a)` whenever the rows differ, so a kernel
    /// that reads a distance column where it means a row gets caught.
    fn grid_dist(side: usize, uphill: f64) -> impl Fn(NodeId, NodeId) -> f64 + Copy {
        move |a: NodeId, b: NodeId| {
            let (ac, ar) = (a.index() % side, a.index() / side);
            let (bc, br) = (b.index() % side, b.index() / side);
            let climb = if br < ar { uphill } else { 1.0 };
            ac.abs_diff(bc) as f64 + climb * ar.abs_diff(br) as f64
        }
    }

    #[test]
    fn min_hop_refinement_matches_reference_implementation() {
        for (n_side, seed) in [(4usize, 13u64), (8, 29)] {
            for uphill in [1.0, 1.5] {
                let n = n_side * n_side;
                let clustering = quad_clustering(n_side, n_side);
                let traffic = lcg_traffic(n, seed);
                let dist = grid_dist(n_side, uphill);
                let initial = initial_mapping(&clustering, n_side, n_side);
                let fast = refine_mapping_min_hop(initial.clone(), &clustering, &traffic, dist);
                let slow = refine_mapping_min_hop_reference(initial, &clustering, &traffic, dist);
                let fast_tiles: Vec<usize> = (0..n).map(|t| fast.tile_of(t).index()).collect();
                let slow_tiles: Vec<usize> = (0..n).map(|t| slow.tile_of(t).index()).collect();
                assert_eq!(fast_tiles, slow_tiles, "n={n} seed={seed} uphill={uphill}");
            }
        }
    }

    /// Thread → tile of [`hierarchical_min_hop_matches_pinned_tiles`].
    const PINNED_HIER_TILES: [usize; 256] = [
        17, 18, 21, 112, 36, 55, 83, 114, 28, 12, 125, 61, 111, 95, 109, 79, 81, 65, 71, 87, 99,
        103, 113, 34, 90, 41, 72, 26, 120, 11, 105, 107, 2, 22, 116, 38, 37, 96, 84, 85, 93, 42,
        106, 74, 40, 8, 108, 27, 118, 3, 64, 51, 70, 48, 50, 119, 59, 13, 14, 43, 91, 62, 25, 29,
        52, 66, 4, 49, 35, 102, 67, 101, 94, 15, 9, 92, 122, 77, 58, 121, 0, 32, 16, 80, 39, 19,
        100, 54, 126, 31, 88, 76, 24, 63, 60, 30, 117, 1, 82, 7, 98, 69, 53, 68, 75, 47, 104, 123,
        127, 89, 124, 73, 20, 5, 86, 33, 97, 115, 6, 23, 56, 44, 57, 46, 110, 45, 10, 78, 199, 161,
        131, 230, 167, 163, 193, 244, 248, 217, 237, 155, 185, 201, 220, 169, 229, 176, 147, 182,
        151, 247, 208, 133, 168, 187, 136, 222, 223, 189, 158, 204, 145, 181, 178, 150, 164, 166,
        134, 162, 142, 188, 254, 218, 170, 239, 207, 156, 128, 195, 130, 243, 129, 149, 179, 148,
        255, 141, 203, 219, 140, 171, 205, 157, 160, 180, 194, 227, 192, 225, 231, 144, 251, 138,
        233, 249, 153, 173, 234, 236, 224, 197, 196, 135, 242, 228, 241, 183, 184, 172, 152, 159,
        200, 174, 154, 186, 132, 146, 198, 213, 209, 246, 212, 214, 143, 191, 238, 206, 139, 252,
        235, 190, 177, 226, 245, 240, 210, 165, 215, 211, 202, 250, 253, 216, 137, 221, 175, 232,
    ];

    #[test]
    fn hierarchical_min_hop_matches_pinned_tiles() {
        // 256 cores take the block-swap + polish path, which has no
        // reference implementation. Under the uphill distance the block
        // tables and the core tables are both asymmetric; the tile vector
        // was recorded from a kernel that read `d` and `r` by column.
        let side = 16;
        let clustering = quad_clustering(side, side);
        let traffic = lcg_traffic(side * side, 21);
        let initial = initial_mapping(&clustering, side, side);
        let refined = refine_mapping_min_hop(initial, &clustering, &traffic, grid_dist(side, 1.5));
        let tiles: Vec<usize> = (0..side * side)
            .map(|t| refined.tile_of(t).index())
            .collect();
        assert_eq!(tiles, PINNED_HIER_TILES);
    }

    #[test]
    fn hierarchical_min_hop_reduces_cost_on_large_die() {
        // 16×16 = 256 cores exercises the block-swap + polish path.
        let side = 16;
        let n = side * side;
        let clustering = quad_clustering(side, side);
        let traffic = lcg_traffic(n, 21);
        let dist = |a: NodeId, b: NodeId| {
            let (ac, ar) = (a.index() % side, a.index() / side);
            let (bc, br) = (b.index() % side, b.index() / side);
            (ac.abs_diff(bc) + ar.abs_diff(br)) as f64
        };
        let initial = initial_mapping(&clustering, side, side);
        let before = mapping_cost(&initial, &traffic, dist);
        let refined = refine_mapping_min_hop(initial, &clustering, &traffic, dist);
        let after = mapping_cost(&refined, &traffic, dist);
        assert!(
            after < before,
            "hier refinement must improve: {after} >= {before}"
        );
        for thread in 0..n {
            assert_eq!(
                clustering.cluster_of(thread),
                quadrant_of(refined.tile_of(thread), side, side),
                "thread {thread} escaped its quadrant"
            );
        }
    }

    #[test]
    fn hierarchical_min_hop_is_deterministic() {
        let side = 16;
        let n = side * side;
        let clustering = quad_clustering(side, side);
        let traffic = lcg_traffic(n, 33);
        let dist = |a: NodeId, b: NodeId| {
            let (ac, ar) = (a.index() % side, a.index() / side);
            let (bc, br) = (b.index() % side, b.index() / side);
            (ac.abs_diff(bc) + ar.abs_diff(br)) as f64
        };
        let initial = initial_mapping(&clustering, side, side);
        let a = refine_mapping_min_hop(initial.clone(), &clustering, &traffic, dist);
        let b = refine_mapping_min_hop(initial, &clustering, &traffic, dist);
        let ta: Vec<usize> = (0..n).map(|t| a.tile_of(t).index()).collect();
        let tb: Vec<usize> = (0..n).map(|t| b.tile_of(t).index()).collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn large_die_anneal_places_scaled_overlay() {
        // 16×16 die, 6 WIs per cluster on 6 channels: the hierarchical
        // (coarse-then-fine) schedule must produce a valid 24-WI overlay
        // no worse than its centre-seeded start.
        let side = 16;
        let clusters: Vec<usize> = (0..side * side)
            .map(|i| quadrant_of(NodeId(i), side, side))
            .collect();
        let topo = SmallWorldBuilder::new(grid_positions(side, side, 2.5), clusters)
            .seed(9)
            .build()
            .unwrap();
        let mut traffic = TrafficMatrix::zeros(side * side);
        traffic.set(NodeId(0), NodeId(255), 1.0);
        traffic.set(NodeId(15), NodeId(240), 1.0);
        let annealed = anneal_wi_placement(&topo, &traffic, side, side, 6, 6, 13);
        assert_eq!(annealed.len(), 24);
        assert_eq!(annealed.channel_count(), 6);
        let centre = center_wis(side, side, 2.5, 6, 6);
        let cost = |o: &WirelessOverlay| {
            let t = RoutingTable::up_down(&topo, o).unwrap();
            traffic.weighted_mean(|s, d| t.distance(s, d) as f64)
        };
        assert!(cost(&annealed) <= cost(&centre) + 1e-9);
    }

    #[test]
    fn anneal_is_deterministic() {
        let clusters: Vec<usize> = (0..16).map(|i| quadrant_of(NodeId(i), 4, 4)).collect();
        let topo = SmallWorldBuilder::new(grid_positions(4, 4, 2.5), clusters)
            .k_intra(2.0)
            .k_inter(2.0)
            .seed(3)
            .build()
            .unwrap();
        let traffic = TrafficMatrix::uniform(16, 0.05);
        let a = anneal_wi_placement(&topo, &traffic, 4, 4, 1, 1, 7);
        let b = anneal_wi_placement(&topo, &traffic, 4, 4, 1, 1, 7);
        assert_eq!(a, b);
    }
}
