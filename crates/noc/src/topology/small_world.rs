//! Power-law small-world wireline network, built cluster-aware.
//!
//! The WiNoC's wireline substrate follows the spatial small-world wiring
//! model of Petermann & De Los Rios: the probability of a link between two
//! switches decays with their physical separation, `P(i,j) ∝ l_ij^(-alpha)`.
//! The paper constructs it in two stages around the VFI partition:
//!
//! 1. **Intra-cluster**: each VFI cluster gets its own connected power-law
//!    network with average degree ⟨k_intra⟩;
//! 2. **Inter-cluster**: links with average degree ⟨k_inter⟩ are apportioned
//!    between cluster pairs proportionally to their share of inter-cluster
//!    traffic, again sampled by the power-law wiring model.
//!
//! The total ⟨k⟩ = ⟨k_intra⟩ + ⟨k_inter⟩ is kept at 4 so the WiNoC's switches
//! are no larger than the mesh's, and a hard per-switch port cap `k_max`
//! bounds the degree skew.

use super::{Topology, TopologyKind};
use crate::node::{NodeId, Position};
use mapwave_harness::rng::StdRng;
use mapwave_harness::rng::{RngExt, SeedableRng};

/// Errors from [`SmallWorldBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum SmallWorldError {
    /// A cluster assignment vector didn't match the position vector length.
    ClusterLenMismatch {
        /// Number of positions supplied.
        positions: usize,
        /// Number of cluster assignments supplied.
        clusters: usize,
    },
    /// `k_intra` is too small for a cluster to be connected:
    /// a cluster of `size` nodes needs at least `2 (size-1) / size` average
    /// intra-cluster degree (e.g. 1.875 for the paper's 16-core clusters).
    KIntraTooSmall {
        /// The offending cluster id.
        cluster: usize,
        /// Nodes in that cluster.
        size: usize,
        /// Requested average intra-cluster degree.
        k_intra: f64,
    },
    /// The inter-cluster traffic weight matrix has the wrong shape.
    TrafficShapeMismatch {
        /// Number of clusters inferred from assignments.
        clusters: usize,
        /// Dimension of the supplied matrix.
        matrix: usize,
    },
    /// The port cap is too small to build a connected network.
    KMaxTooSmall {
        /// The requested cap.
        k_max: usize,
    },
}

impl std::fmt::Display for SmallWorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmallWorldError::ClusterLenMismatch {
                positions,
                clusters,
            } => write!(
                f,
                "cluster assignment length {clusters} does not match {positions} positions"
            ),
            SmallWorldError::KIntraTooSmall {
                cluster,
                size,
                k_intra,
            } => write!(
                f,
                "k_intra {k_intra} cannot connect cluster {cluster} of {size} nodes \
                 (needs at least {})",
                2.0 * (*size as f64 - 1.0) / *size as f64
            ),
            SmallWorldError::TrafficShapeMismatch { clusters, matrix } => write!(
                f,
                "inter-cluster traffic matrix is {matrix}x{matrix} but there are {clusters} clusters"
            ),
            SmallWorldError::KMaxTooSmall { k_max } => {
                write!(f, "per-switch port cap k_max={k_max} is too small")
            }
        }
    }
}

impl std::error::Error for SmallWorldError {}

/// Default per-switch cap on wired ports of [`SmallWorldBuilder`].
pub const DEFAULT_K_MAX: usize = 7;

/// Builder for the cluster-aware power-law small-world wireline network.
///
/// # Examples
///
/// ```
/// use mapwave_noc::node::grid_positions;
/// use mapwave_noc::topology::small_world::SmallWorldBuilder;
///
/// // 64 tiles in four 4x4 quadrant clusters, (k_intra, k_inter) = (3, 1).
/// let positions = grid_positions(8, 8, 2.5);
/// let clusters: Vec<usize> = (0..64)
///     .map(|i| (i % 8) / 4 + 2 * ((i / 8) / 4))
///     .collect();
/// let topo = SmallWorldBuilder::new(positions, clusters)
///     .k_intra(3.0)
///     .k_inter(1.0)
///     .seed(7)
///     .build()
///     .unwrap();
/// assert!(topo.is_connected());
/// assert!(topo.max_degree() <= 7);
/// ```
#[derive(Debug, Clone)]
pub struct SmallWorldBuilder {
    positions: Vec<Position>,
    clusters: Vec<usize>,
    k_intra: f64,
    k_inter: f64,
    k_max: usize,
    alpha: f64,
    inter_traffic: Option<Vec<Vec<f64>>>,
    seed: u64,
}

impl SmallWorldBuilder {
    /// Starts a builder over tiles at `positions`, partitioned into VFI
    /// clusters by `clusters[i]` (cluster ids must be `0..m` for some `m`).
    pub fn new(positions: Vec<Position>, clusters: Vec<usize>) -> Self {
        SmallWorldBuilder {
            positions,
            clusters,
            k_intra: 3.0,
            k_inter: 1.0,
            k_max: DEFAULT_K_MAX,
            alpha: 2.0,
            inter_traffic: None,
            seed: 0,
        }
    }

    /// Sets the average intra-cluster degree ⟨k_intra⟩ (default 3).
    pub fn k_intra(mut self, k: f64) -> Self {
        self.k_intra = k;
        self
    }

    /// Sets the average inter-cluster degree ⟨k_inter⟩ (default 1).
    pub fn k_inter(mut self, k: f64) -> Self {
        self.k_inter = k;
        self
    }

    /// Sets the per-switch port cap `k_max` (default [`DEFAULT_K_MAX`]). The
    /// local core port and the wireless port are not counted. The final
    /// connectivity repair ignores the cap; it adds at most one link per
    /// cluster beyond the first.
    pub fn k_max(mut self, k: usize) -> Self {
        self.k_max = k;
        self
    }

    /// Sets the power-law wiring-cost exponent `alpha` (default 2.0).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Supplies the cluster-level inter-VFI traffic weights used to apportion
    /// inter-cluster links. `w[a][b]` is the (symmetrised) traffic between
    /// clusters `a` and `b`; the diagonal is ignored. Defaults to uniform.
    pub fn inter_traffic(mut self, w: Vec<Vec<f64>>) -> Self {
        self.inter_traffic = Some(w);
        self
    }

    /// Sets the RNG seed; identical builders with identical seeds produce
    /// identical topologies.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn cluster_count(&self) -> usize {
        self.clusters.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// Builds the topology.
    ///
    /// # Errors
    ///
    /// See [`SmallWorldError`] for each failure mode; the builder never
    /// returns a disconnected graph.
    pub fn build(&self) -> Result<Topology, SmallWorldError> {
        let n = self.positions.len();
        if self.clusters.len() != n {
            return Err(SmallWorldError::ClusterLenMismatch {
                positions: n,
                clusters: self.clusters.len(),
            });
        }
        let m = self.cluster_count();
        if self.k_max < 2 {
            return Err(SmallWorldError::KMaxTooSmall { k_max: self.k_max });
        }
        if let Some(w) = &self.inter_traffic {
            if w.len() != m || w.iter().any(|row| row.len() != m) {
                return Err(SmallWorldError::TrafficShapeMismatch {
                    clusters: m,
                    matrix: w.len(),
                });
            }
        }

        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); m];
        for (i, &c) in self.clusters.iter().enumerate() {
            members[c].push(NodeId(i));
        }
        for (c, mem) in members.iter().enumerate() {
            let size = mem.len();
            if size > 1 && self.k_intra * size as f64 / 2.0 < (size as f64 - 1.0) {
                return Err(SmallWorldError::KIntraTooSmall {
                    cluster: c,
                    size,
                    k_intra: self.k_intra,
                });
            }
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut topo = Topology::new(self.positions.clone(), TopologyKind::SmallWorld);

        // Stage 1: connected power-law network inside each cluster.
        for mem in &members {
            self.build_intra(&mut topo, mem, &mut rng);
        }

        // Stage 2: inter-cluster links apportioned to traffic.
        self.build_inter(&mut topo, &members, &mut rng);

        // Repair: guarantee global connectivity (possible when a traffic
        // matrix starves some cluster pair and the rest don't bridge it).
        self.connect_components(&mut topo);

        Ok(topo)
    }

    /// Weight of a candidate link under the spatial power-law model.
    fn wire_weight(&self, a: NodeId, b: NodeId) -> f64 {
        let d = self.positions[a.index()].manhattan(self.positions[b.index()]);
        // Tiles at identical positions (degenerate inputs) get weight 1.
        if d <= f64::EPSILON {
            1.0
        } else {
            d.powf(-self.alpha)
        }
    }

    /// [`Self::wire_weight`] of every `(from[i], to[j])` pair, row-major,
    /// so each pair's `powf` runs once per build.
    fn wire_weights(&self, from: &[NodeId], to: &[NodeId]) -> Vec<f64> {
        from.iter()
            .flat_map(|&a| to.iter().map(move |&b| self.wire_weight(a, b)))
            .collect()
    }

    /// Randomised-Prim spanning tree plus weighted extra links inside one
    /// cluster.
    fn build_intra(&self, topo: &mut Topology, mem: &[NodeId], rng: &mut StdRng) {
        let size = mem.len();
        if size <= 1 {
            return;
        }
        let weight = self.wire_weights(mem, mem);
        let weight = |i: usize, j: usize| weight[i * size + j];
        // Spanning tree: grow from mem[0], attaching each outside node via a
        // power-law-weighted choice of (in-tree, out-of-tree) pair, skipping
        // saturated in-tree nodes where possible. Both lists hold indices
        // into `mem`.
        let mut in_tree = vec![0];
        let mut out: Vec<usize> = (1..size).collect();
        while !out.is_empty() {
            let mut cands: Vec<(NodeId, NodeId, f64)> = Vec::new();
            for &a in &in_tree {
                if topo.degree(mem[a]) >= self.k_max {
                    continue;
                }
                for &b in &out {
                    cands.push((mem[a], mem[b], weight(a, b)));
                }
            }
            if cands.is_empty() {
                // Every in-tree node saturated: spill over the cap rather
                // than return a disconnected cluster (degree cap is a soft
                // constraint in pathological configurations).
                for &a in &in_tree {
                    for &b in &out {
                        cands.push((mem[a], mem[b], weight(a, b)));
                    }
                }
            }
            let (a, b) = weighted_pick(&cands, rng);
            topo.add_link(a, b).expect("tree link must be fresh");
            let pos = out.iter().position(|&x| mem[x] == b).expect("b is in out");
            in_tree.push(out.swap_remove(pos));
        }

        // Extra links up to the intra-degree budget.
        let target_links =
            ((self.k_intra * size as f64 / 2.0).round() as usize).min(size * (size - 1) / 2);
        while topo_links_within(topo, mem) < target_links {
            let mut cands: Vec<(NodeId, NodeId, f64)> = Vec::new();
            for (i, &a) in mem.iter().enumerate() {
                if topo.degree(a) >= self.k_max {
                    continue;
                }
                for (j, &b) in mem.iter().enumerate().skip(i + 1) {
                    if topo.degree(b) >= self.k_max || topo.has_link(a, b) {
                        continue;
                    }
                    cands.push((a, b, weight(i, j)));
                }
            }
            if cands.is_empty() {
                break; // degree cap exhausted the candidate space
            }
            let (a, b) = weighted_pick(&cands, rng);
            topo.add_link(a, b).expect("candidate link must be fresh");
        }
    }

    fn build_inter(&self, topo: &mut Topology, members: &[Vec<NodeId>], rng: &mut StdRng) {
        let m = members.len();
        if m <= 1 {
            return;
        }
        let n: usize = members.iter().map(Vec::len).sum();
        let total_links = (self.k_inter * n as f64 / 2.0).round() as usize;

        // Per-cluster-pair quota proportional to inter-cluster traffic.
        let mut weights: Vec<(usize, usize, f64)> = Vec::new();
        let mut total_w = 0.0;
        for a in 0..m {
            for b in a + 1..m {
                let w = match &self.inter_traffic {
                    Some(t) => (t[a][b] + t[b][a]).max(0.0),
                    None => 1.0,
                };
                total_w += w;
                weights.push((a, b, w));
            }
        }
        if total_w <= 0.0 {
            // Degenerate traffic matrix: fall back to uniform.
            total_w = weights.len() as f64;
            for w in &mut weights {
                w.2 = 1.0;
            }
        }

        // Largest-remainder apportionment of the link budget.
        let mut quota: Vec<usize> = Vec::with_capacity(weights.len());
        let mut rema: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
        let mut assigned = 0usize;
        for (idx, &(_, _, w)) in weights.iter().enumerate() {
            let exact = total_links as f64 * w / total_w;
            let base = exact.floor() as usize;
            quota.push(base);
            rema.push((idx, exact - base as f64));
            assigned += base;
        }
        rema.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap_or(std::cmp::Ordering::Equal));
        for &(idx, _) in rema.iter().take(total_links.saturating_sub(assigned)) {
            quota[idx] += 1;
        }

        for (&q, &(a, b, _)) in quota.iter().zip(weights.iter()) {
            let (from, to) = (&members[a], &members[b]);
            if q == 0 || to.is_empty() {
                continue;
            }
            let weight = self.wire_weights(from, to);
            for _ in 0..q {
                let mut cands: Vec<(NodeId, NodeId, f64)> = Vec::new();
                for (&u, row) in from.iter().zip(weight.chunks_exact(to.len())) {
                    if topo.degree(u) >= self.k_max {
                        continue;
                    }
                    for (&v, &w) in to.iter().zip(row) {
                        if topo.degree(v) >= self.k_max || topo.has_link(u, v) {
                            continue;
                        }
                        cands.push((u, v, w));
                    }
                }
                if cands.is_empty() {
                    break;
                }
                let (u, v) = weighted_pick(&cands, rng);
                topo.add_link(u, v).expect("candidate link must be fresh");
            }
        }
    }

    /// Joins remaining connected components with the shortest available
    /// cross-component wire.
    fn connect_components(&self, topo: &mut Topology) {
        loop {
            let comp = components(topo);
            let max_comp = comp.iter().copied().max().map_or(0, |c| c + 1);
            if max_comp <= 1 {
                return;
            }
            // Link component 0 to the nearest node of any other component.
            let mut best: Option<(NodeId, NodeId, f64)> = None;
            for a in topo.nodes() {
                if comp[a.index()] != 0 {
                    continue;
                }
                for b in topo.nodes() {
                    if comp[b.index()] == 0 {
                        continue;
                    }
                    let d = self.positions[a.index()].manhattan(self.positions[b.index()]);
                    if best.is_none_or(|(_, _, bd)| d < bd) {
                        best = Some((a, b, d));
                    }
                }
            }
            let (a, b, _) = best.expect("disconnected graph has a cross pair");
            topo.add_link(a, b).expect("repair link must be fresh");
        }
    }
}

/// Number of links with both endpoints in `mem`.
fn topo_links_within(topo: &Topology, mem: &[NodeId]) -> usize {
    let set: std::collections::HashSet<NodeId> = mem.iter().copied().collect();
    mem.iter()
        .map(|&a| {
            topo.neighbors(a)
                .iter()
                .filter(|&&b| a < b && set.contains(&b))
                .count()
        })
        .sum()
}

/// Weighted random pick over `(a, b, weight)` candidates.
///
/// # Panics
///
/// Panics if `cands` is empty.
fn weighted_pick(cands: &[(NodeId, NodeId, f64)], rng: &mut StdRng) -> (NodeId, NodeId) {
    let total: f64 = cands.iter().map(|c| c.2).sum();
    if total <= 0.0 {
        let i = rng.random_range(0..cands.len());
        return (cands[i].0, cands[i].1);
    }
    let mut x = rng.random::<f64>() * total;
    for &(a, b, w) in cands {
        x -= w;
        if x <= 0.0 {
            return (a, b);
        }
    }
    let last = cands.last().expect("cands is nonempty");
    (last.0, last.1)
}

/// Connected-component label per node.
fn components(topo: &Topology) -> Vec<usize> {
    let n = topo.len();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    for s in topo.nodes() {
        if comp[s.index()] != usize::MAX {
            continue;
        }
        let mut stack = vec![s];
        comp[s.index()] = next;
        while let Some(v) = stack.pop() {
            for &w in topo.neighbors(v) {
                if comp[w.index()] == usize::MAX {
                    comp[w.index()] = next;
                    stack.push(w);
                }
            }
        }
        next += 1;
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::grid_positions;

    fn quadrant_clusters() -> Vec<usize> {
        (0..64).map(|i| (i % 8) / 4 + 2 * ((i / 8) / 4)).collect()
    }

    fn build(seed: u64) -> Topology {
        SmallWorldBuilder::new(grid_positions(8, 8, 2.5), quadrant_clusters())
            .k_intra(3.0)
            .k_inter(1.0)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn builds_connected_64_node_network() {
        let t = build(42);
        assert_eq!(t.len(), 64);
        assert!(t.is_connected());
    }

    #[test]
    fn respects_port_cap() {
        for seed in 0..5 {
            let t = build(seed);
            assert!(
                t.max_degree() <= 7,
                "seed {seed}: degree {}",
                t.max_degree()
            );
        }
    }

    #[test]
    fn average_degree_close_to_k() {
        let t = build(1);
        let k = t.avg_degree();
        assert!(
            (3.4..=4.4).contains(&k),
            "avg degree {k} not near requested 4.0"
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        assert_eq!(build(9), build(9));
    }

    #[test]
    fn different_seed_differs() {
        assert_ne!(build(1), build(2));
    }

    #[test]
    fn each_cluster_internally_connected() {
        let t = build(3);
        let clusters = quadrant_clusters();
        for c in 0..4 {
            let mem: Vec<NodeId> = (0..64).filter(|&i| clusters[i] == c).map(NodeId).collect();
            // BFS restricted to the cluster.
            let set: std::collections::HashSet<_> = mem.iter().copied().collect();
            let mut seen = std::collections::HashSet::new();
            let mut stack = vec![mem[0]];
            seen.insert(mem[0]);
            while let Some(v) = stack.pop() {
                for &w in t.neighbors(v) {
                    if set.contains(&w) && seen.insert(w) {
                        stack.push(w);
                    }
                }
            }
            assert_eq!(
                seen.len(),
                mem.len(),
                "cluster {c} not internally connected"
            );
        }
    }

    #[test]
    fn traffic_biases_inter_links() {
        // Heavy traffic between clusters 0 and 3 should attract more links
        // than a starved pair.
        let mut w = vec![vec![0.01; 4]; 4];
        w[0][3] = 10.0;
        w[3][0] = 10.0;
        let t = SmallWorldBuilder::new(grid_positions(8, 8, 2.5), quadrant_clusters())
            .k_intra(3.0)
            .k_inter(1.0)
            .inter_traffic(w)
            .seed(5)
            .build()
            .unwrap();
        let clusters = quadrant_clusters();
        let count_pair = |a: usize, b: usize| {
            t.links()
                .filter(|&(u, v)| {
                    let (cu, cv) = (clusters[u.index()], clusters[v.index()]);
                    (cu == a && cv == b) || (cu == b && cv == a)
                })
                .count()
        };
        assert!(count_pair(0, 3) > count_pair(1, 2));
        assert!(t.is_connected());
    }

    #[test]
    fn rejects_too_small_k_intra() {
        let err = SmallWorldBuilder::new(grid_positions(4, 4, 1.0), vec![0; 16])
            .k_intra(1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, SmallWorldError::KIntraTooSmall { .. }));
    }

    #[test]
    fn rejects_mismatched_clusters() {
        let err = SmallWorldBuilder::new(grid_positions(4, 4, 1.0), vec![0; 7])
            .build()
            .unwrap_err();
        assert!(matches!(err, SmallWorldError::ClusterLenMismatch { .. }));
    }

    #[test]
    fn rejects_bad_traffic_shape() {
        let err = SmallWorldBuilder::new(grid_positions(8, 8, 1.0), quadrant_clusters())
            .inter_traffic(vec![vec![1.0; 3]; 3])
            .build()
            .unwrap_err();
        assert!(matches!(err, SmallWorldError::TrafficShapeMismatch { .. }));
    }

    #[test]
    fn power_law_prefers_short_links() {
        // With a strong distance penalty the mean link length should be well
        // below the mean pairwise distance.
        let t = SmallWorldBuilder::new(grid_positions(8, 8, 1.0), quadrant_clusters())
            .alpha(2.5)
            .seed(11)
            .build()
            .unwrap();
        let mean_link: f64 =
            t.links().map(|(a, b)| t.link_length_mm(a, b)).sum::<f64>() / t.link_count() as f64;
        assert!(mean_link < 3.0, "mean link length {mean_link}");
    }

    #[test]
    fn single_cluster_small_world() {
        let t = SmallWorldBuilder::new(grid_positions(4, 4, 1.0), vec![0; 16])
            .k_intra(4.0)
            .k_inter(0.0)
            .seed(2)
            .build()
            .unwrap();
        assert!(t.is_connected());
    }

    #[test]
    fn two_two_configuration_builds() {
        let t = SmallWorldBuilder::new(grid_positions(8, 8, 2.5), quadrant_clusters())
            .k_intra(2.0)
            .k_inter(2.0)
            .seed(4)
            .build()
            .unwrap();
        assert!(t.is_connected());
        assert!((3.4..=4.6).contains(&t.avg_degree()));
    }
}
