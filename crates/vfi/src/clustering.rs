//! VFI clustering: the paper's 0-1 quadratic program (Section 4.1).
//!
//! Cores are partitioned into `m` equal-size clusters minimising
//!
//! ```text
//! ω_c · Σ_{i,p} f_ip · φ_comm(cluster(i), cluster(p))
//!   + ω_u · Σ_i (u_i − ū_{cluster(i)})²
//! ```
//!
//! where `φ_comm(j, q) = 1` for inter-cluster pairs and `1/√m` for
//! intra-cluster pairs (the average inter- vs intra-cluster hop ratio of an
//! `m`-partition grid), and `ū_j` is the mean of the `j`-th `m`-quantile of
//! the utilization values. Both `f` and `u` are normalised to their maxima
//! and `ω_c = ω_u = 1`, exactly as in the paper.
//!
//! The paper solves the program with Gurobi. Here the same objective is
//! solved by an exact branch-and-bound ([`ClusteringProblem::solve_exact`],
//! practical to ~14 cores) and by a deterministic refinement heuristic
//! ([`ClusteringProblem::solve`]) that matches the exact optimum on small
//! instances (asserted in tests) and scales to the paper's 64 cores. Past
//! the paper size, [`ClusteringProblem::solve_multilevel`] wraps the same
//! refinement in a heavy-edge coarsen/uncoarsen hierarchy that stays
//! bit-identical to the flat path for n ≤ 64 and scales to 1024 cores.

use std::fmt;

/// A partition of `n` cores into `m` labelled clusters.
///
/// # Examples
///
/// ```
/// use mapwave_vfi::clustering::Clustering;
///
/// let c = Clustering::new(vec![0, 0, 1, 1], 2)?;
/// assert_eq!(c.members(1), vec![2, 3]);
/// assert_eq!(c.cluster_of(0), 0);
/// # Ok::<(), mapwave_vfi::clustering::ClusteringError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    assignment: Vec<usize>,
    m: usize,
}

/// Errors from clustering construction and solving.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusteringError {
    /// Cluster count does not divide core count.
    NotDivisible {
        /// Number of cores.
        n: usize,
        /// Number of clusters.
        m: usize,
    },
    /// A cluster label was out of range.
    LabelOutOfRange {
        /// Core index with the bad label.
        core: usize,
        /// The offending label.
        label: usize,
        /// Number of clusters.
        m: usize,
    },
    /// The assignment is not balanced (some cluster ≠ n/m cores).
    Unbalanced {
        /// The offending cluster.
        cluster: usize,
        /// Cores assigned to it.
        size: usize,
        /// Expected size.
        expected: usize,
    },
    /// Input vectors have inconsistent lengths.
    ShapeMismatch {
        /// Length of the utilization vector.
        utilization: usize,
        /// Dimension of the traffic matrix.
        traffic: usize,
    },
    /// A utilization or traffic value was negative or non-finite.
    InvalidValue,
    /// Zero clusters requested.
    ZeroClusters,
}

impl fmt::Display for ClusteringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusteringError::NotDivisible { n, m } => {
                write!(f, "{m} clusters do not evenly divide {n} cores")
            }
            ClusteringError::LabelOutOfRange { core, label, m } => {
                write!(f, "core {core} has label {label} >= {m}")
            }
            ClusteringError::Unbalanced {
                cluster,
                size,
                expected,
            } => write!(f, "cluster {cluster} has {size} cores, expected {expected}"),
            ClusteringError::ShapeMismatch {
                utilization,
                traffic,
            } => write!(
                f,
                "utilization has {utilization} cores but traffic is {traffic}x{traffic}"
            ),
            ClusteringError::InvalidValue => {
                write!(f, "utilization and traffic must be finite and nonnegative")
            }
            ClusteringError::ZeroClusters => write!(f, "need at least one cluster"),
        }
    }
}

impl std::error::Error for ClusteringError {}

impl Clustering {
    /// Wraps an assignment, validating balance and label range.
    ///
    /// # Errors
    ///
    /// See [`ClusteringError`].
    pub fn new(assignment: Vec<usize>, m: usize) -> Result<Self, ClusteringError> {
        if m == 0 {
            return Err(ClusteringError::ZeroClusters);
        }
        let n = assignment.len();
        if !n.is_multiple_of(m) {
            return Err(ClusteringError::NotDivisible { n, m });
        }
        let expected = n / m;
        let mut sizes = vec![0usize; m];
        for (core, &label) in assignment.iter().enumerate() {
            if label >= m {
                return Err(ClusteringError::LabelOutOfRange { core, label, m });
            }
            sizes[label] += 1;
        }
        for (cluster, &size) in sizes.iter().enumerate() {
            if size != expected {
                return Err(ClusteringError::Unbalanced {
                    cluster,
                    size,
                    expected,
                });
            }
        }
        Ok(Clustering { assignment, m })
    }

    /// The 2×2 quadrant partition of a `cols x rows` grid — the paper's
    /// physical layout of four 4×4 VFIs on the 8×8 die.
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `rows` is odd or zero.
    pub fn grid_quadrants(cols: usize, rows: usize) -> Self {
        assert!(
            cols > 0 && rows > 0 && cols.is_multiple_of(2) && rows.is_multiple_of(2),
            "quadrants need even nonzero grid dimensions"
        );
        let assignment = (0..cols * rows)
            .map(|i| {
                let (c, r) = (i % cols, i / cols);
                usize::from(c >= cols / 2) + 2 * usize::from(r >= rows / 2)
            })
            .collect();
        Clustering { assignment, m: 4 }
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the clustering covers no cores.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.m
    }

    /// Cores per cluster.
    pub fn cluster_size(&self) -> usize {
        self.assignment.len() / self.m
    }

    /// Cluster of core `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn cluster_of(&self, i: usize) -> usize {
        self.assignment[i]
    }

    /// The label vector.
    pub fn as_slice(&self) -> &[usize] {
        &self.assignment
    }

    /// Sorted member cores of cluster `j`.
    pub fn members(&self, j: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == j)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The clustering optimisation instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringProblem {
    utilization: Vec<f64>,
    traffic: Vec<Vec<f64>>,
    m: usize,
    omega_c: f64,
    omega_u: f64,
    targets: Vec<f64>,
}

impl ClusteringProblem {
    /// Builds a problem over per-core `utilization` and the pairwise
    /// `traffic` matrix, for `m` equal clusters.
    ///
    /// Inputs are normalised to their maxima internally (the paper's setup);
    /// weights default to `ω_c = ω_u = 1`.
    ///
    /// # Errors
    ///
    /// See [`ClusteringError`].
    pub fn new(
        utilization: Vec<f64>,
        traffic: Vec<Vec<f64>>,
        m: usize,
    ) -> Result<Self, ClusteringError> {
        if m == 0 {
            return Err(ClusteringError::ZeroClusters);
        }
        let n = utilization.len();
        if !n.is_multiple_of(m) {
            return Err(ClusteringError::NotDivisible { n, m });
        }
        if traffic.len() != n || traffic.iter().any(|r| r.len() != n) {
            return Err(ClusteringError::ShapeMismatch {
                utilization: n,
                traffic: traffic.len(),
            });
        }
        if utilization.iter().any(|&u| !u.is_finite() || u < 0.0)
            || traffic
                .iter()
                .any(|r| r.iter().any(|&t| !t.is_finite() || t < 0.0))
        {
            return Err(ClusteringError::InvalidValue);
        }

        // Normalise to maxima.
        let u_max = utilization.iter().cloned().fold(0.0, f64::max);
        let utilization: Vec<f64> = if u_max > 0.0 {
            utilization.iter().map(|&u| u / u_max).collect()
        } else {
            utilization
        };
        let f_max = traffic
            .iter()
            .flat_map(|r| r.iter().cloned())
            .fold(0.0, f64::max);
        let traffic: Vec<Vec<f64>> = if f_max > 0.0 {
            traffic
                .iter()
                .map(|r| r.iter().map(|&t| t / f_max).collect())
                .collect()
        } else {
            traffic
        };

        // ū_j: mean of each m-quantile of the utilization values (ascending).
        let mut sorted = utilization.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let q = n / m;
        let targets = (0..m)
            .map(|j| {
                if q == 0 {
                    0.0
                } else {
                    sorted[j * q..(j + 1) * q].iter().sum::<f64>() / q as f64
                }
            })
            .collect();

        Ok(ClusteringProblem {
            utilization,
            traffic,
            m,
            omega_c: 1.0,
            omega_u: 1.0,
            targets,
        })
    }

    /// Overrides the communication weight ω_c.
    pub fn omega_c(mut self, w: f64) -> Self {
        self.omega_c = w;
        self
    }

    /// Overrides the utilization weight ω_u.
    pub fn omega_u(mut self, w: f64) -> Self {
        self.omega_u = w;
        self
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.utilization.len()
    }

    /// Whether the instance has no cores.
    pub fn is_empty(&self) -> bool {
        self.utilization.is_empty()
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.m
    }

    /// The per-cluster utilization targets ū_j (ascending m-quantile means).
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// φ_comm of the paper's Eq. (2).
    fn phi(&self, j: usize, q: usize) -> f64 {
        if j == q {
            1.0 / (self.m as f64).sqrt()
        } else {
            1.0
        }
    }

    /// Communication half of the objective for `assignment`.
    pub fn comm_cost(&self, assignment: &[usize]) -> f64 {
        let n = self.len();
        let mut cost = 0.0;
        for i in 0..n {
            for p in 0..n {
                if i != p {
                    cost += self.traffic[i][p] * self.phi(assignment[i], assignment[p]);
                }
            }
        }
        self.omega_c * cost
    }

    /// Utilization-variation half of the objective for `assignment`.
    pub fn util_cost(&self, assignment: &[usize]) -> f64 {
        self.omega_u
            * assignment
                .iter()
                .enumerate()
                .map(|(i, &j)| (self.utilization[i] - self.targets[j]).powi(2))
                .sum::<f64>()
    }

    /// The full Eq. (1) objective for `assignment`.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` differs from the core count.
    pub fn evaluate(&self, assignment: &[usize]) -> f64 {
        assert_eq!(assignment.len(), self.len(), "assignment length mismatch");
        self.comm_cost(assignment) + self.util_cost(assignment)
    }

    /// Symmetric pair weight used internally: `f_ip + f_pi`.
    fn pair_weight(&self, i: usize, p: usize) -> f64 {
        self.traffic[i][p] + self.traffic[p][i]
    }

    /// Exact branch-and-bound solution of the 0-1 QP.
    ///
    /// Complete up to ~14 cores; beyond that it still terminates but the
    /// search may be slow — use [`ClusteringProblem::solve`] instead.
    pub fn solve_exact(&self) -> Clustering {
        let n = self.len();
        let cap = n / self.m;
        let phi_min = 1.0 / (self.m as f64).sqrt();

        // Admissible suffix bounds (assignment proceeds in core order).
        // suffix_w[i] = Σ_{k>=i} Σ_{p<k} pair_weight(k, p)
        let mut suffix_w = vec![0.0; n + 1];
        for i in (0..n).rev() {
            let mut row = 0.0;
            for p in 0..i {
                row += self.pair_weight(i, p);
            }
            suffix_w[i] = suffix_w[i + 1] + row;
        }
        // suffix_u[i] = Σ_{k>=i} min_j ω_u (u_k - t_j)²
        let mut suffix_u = vec![0.0; n + 1];
        for i in (0..n).rev() {
            let best = self
                .targets
                .iter()
                .map(|&t| (self.utilization[i] - t).powi(2))
                .fold(f64::INFINITY, f64::min);
            suffix_u[i] = suffix_u[i + 1] + self.omega_u * best;
        }

        // Seed the incumbent with the heuristic so pruning bites early.
        let heur = self.solve();
        let mut best_cost = self.evaluate(heur.as_slice());
        let mut best_assignment = heur.as_slice().to_vec();
        let mut current = vec![usize::MAX; n];
        let mut counts = vec![0usize; self.m];

        self.branch(
            0,
            0.0,
            &mut current,
            &mut counts,
            cap,
            phi_min,
            &suffix_w,
            &suffix_u,
            &mut best_cost,
            &mut best_assignment,
        );

        Clustering {
            assignment: best_assignment,
            m: self.m,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn branch(
        &self,
        i: usize,
        acc: f64,
        current: &mut Vec<usize>,
        counts: &mut Vec<usize>,
        cap: usize,
        phi_min: f64,
        suffix_w: &[f64],
        suffix_u: &[f64],
        best_cost: &mut f64,
        best_assignment: &mut [usize],
    ) {
        let n = self.len();
        if i == n {
            if acc < *best_cost {
                *best_cost = acc;
                best_assignment.copy_from_slice(current);
            }
            return;
        }
        let bound = acc + self.omega_c * phi_min * suffix_w[i] + suffix_u[i];
        if bound >= *best_cost {
            return;
        }
        for j in 0..self.m {
            if counts[j] == cap {
                continue;
            }
            // Symmetry breaking: cluster labels matter only through targets,
            // but identical targets make labels interchangeable; restrict the
            // first core entering an empty cluster to the lowest empty label.
            if counts[j] == 0
                && (0..j).any(|q| counts[q] == 0 && self.targets[q] == self.targets[j])
            {
                continue;
            }
            let mut delta = self.omega_u * (self.utilization[i] - self.targets[j]).powi(2);
            #[allow(clippy::needless_range_loop)] // lockstep over two arrays
            for p in 0..i {
                delta += self.omega_c * self.pair_weight(i, p) * self.phi(j, current[p]);
            }
            current[i] = j;
            counts[j] += 1;
            self.branch(
                i + 1,
                acc + delta,
                current,
                counts,
                cap,
                phi_min,
                suffix_w,
                suffix_u,
                best_cost,
                best_assignment,
            );
            counts[j] -= 1;
            current[i] = usize::MAX;
        }
    }

    /// Deterministic heuristic: best-improvement pairwise-swap refinement
    /// from the utilization-sorted slicing plus a handful of seeded random
    /// restarts, keeping the best local optimum.
    ///
    /// Near-optimal on small instances (within ~1% of
    /// [`ClusteringProblem::solve_exact`]; asserted in tests) and runs in
    /// well under a second for the paper's 64 cores.
    pub fn solve(&self) -> Clustering {
        self.solve_with_starts(8, 0xC0FF_EE00)
    }

    /// Multi-start variant of [`ClusteringProblem::solve`]: `starts - 1`
    /// seeded random balanced starts in addition to the utilization-sorted
    /// one. Deterministic for a given `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `starts == 0`.
    pub fn solve_with_starts(&self, starts: usize, seed: u64) -> Clustering {
        self.solve_multi(starts, seed, Self::refine)
    }

    /// The pre-incremental refinement path: identical multi-start schedule,
    /// but every swap delta is recomputed with the O(n) neighbour scan.
    ///
    /// Kept as the equivalence baseline: tests assert it returns the same
    /// assignments as [`ClusteringProblem::solve_with_starts`], and the
    /// `design_flow` micro-bench measures the two side by side.
    pub fn solve_with_starts_reference(&self, starts: usize, seed: u64) -> Clustering {
        self.solve_multi(starts, seed, Self::refine_reference)
    }

    /// Size threshold below which [`ClusteringProblem::solve_multilevel`]
    /// produces no coarsening levels and degenerates to the flat
    /// multi-start path, keeping every n≤64 golden bit-identical.
    pub const MULTILEVEL_LEAF: usize = 64;

    /// Multilevel coarsen/refine solve: greedy heavy-edge coarsening of the
    /// core traffic graph down to [`ClusteringProblem::MULTILEVEL_LEAF`]
    /// supernodes, the flat multi-start KL solve at the coarsest level, then
    /// uncoarsening with one run of the O(1)-delta incremental
    /// [`refine`](ClusteringProblem::solve) pass chain at every level.
    ///
    /// For `n ≤ MULTILEVEL_LEAF` (or when the per-cluster quota is odd, so
    /// pairwise merging cannot preserve the balance constraint) this is
    /// **bit-identical** to [`ClusteringProblem::solve`]: no coarsening
    /// level is built and the call forwards to the flat path unchanged.
    /// Beyond the leaf size, the multi-start search runs only on the
    /// coarsest instance; fine levels start from the projected coarse
    /// optimum, which converges in a handful of passes instead of the flat
    /// path's full random-restart refinement.
    pub fn solve_multilevel(&self) -> Clustering {
        let _span = mapwave_harness::telemetry::span("vfi.cluster");
        self.solve_multilevel_with_starts(8, 0xC0FF_EE00)
    }

    /// Multi-start variant of [`ClusteringProblem::solve_multilevel`] with
    /// the same `(starts, seed)` contract as
    /// [`ClusteringProblem::solve_with_starts`].
    ///
    /// # Panics
    ///
    /// Panics if `starts == 0`.
    pub fn solve_multilevel_with_starts(&self, starts: usize, seed: u64) -> Clustering {
        let n = self.len();
        let cap = n.checked_div(self.m).unwrap_or(0);
        // Pairwise merging halves the per-cluster quota, so coarsening is
        // only admissible while the quota is even; odd quotas (and leaf
        // sizes) take the flat path, bit-for-bit.
        if n <= Self::MULTILEVEL_LEAF || !cap.is_multiple_of(2) {
            return self.solve_with_starts(starts, seed);
        }

        let (coarse, fine_to_coarse) = self.coarsen();
        let coarse_solution = coarse.solve_multilevel_with_starts(starts, seed);

        // Uncoarsen: project the coarse labels onto the fine cores. Every
        // supernode carries exactly two fine cores, so a balanced coarse
        // assignment projects to a balanced fine one.
        let projected: Vec<usize> = fine_to_coarse
            .iter()
            .map(|&s| coarse_solution.cluster_of(s))
            .collect();
        debug_assert!(
            Self::is_balanced(&projected, self.m),
            "uncoarsening broke the balance constraint"
        );
        let refined = self.refine(projected);
        debug_assert!(
            Self::is_balanced(&refined, self.m),
            "refinement broke the balance constraint"
        );
        Clustering {
            assignment: refined,
            m: self.m,
        }
    }

    /// One greedy heavy-edge coarsening level: a maximum greedy matching of
    /// the symmetric pair-weight graph (heaviest edges first, ties broken by
    /// ascending endpoint indices) merges cores two at a time into `n/2`
    /// supernodes.
    ///
    /// The coarse instance represents the fine objective exactly, up to an
    /// assignment-independent constant:
    ///
    /// * traffic aggregates additively (`cluster_rates`-style row/column
    ///   sums over the merged pair; intra-supernode traffic drops out — the
    ///   pair always shares a cluster, so its φ is constant);
    /// * `Σ_{i∈s} (u_i − t_j)² = w·(ū_s − t_j)² + Σ_{i∈s} (u_i − ū_s)²`
    ///   with `w = 2` members per supernode, so the coarse problem carries
    ///   the supernode *mean* utilization, doubles `ω_u`, and inherits the
    ///   fine targets — the second term is constant per supernode.
    ///
    /// Returns the coarse problem and the fine→supernode index map.
    fn coarsen(&self) -> (ClusteringProblem, Vec<usize>) {
        let n = self.len();
        debug_assert!(n.is_multiple_of(2), "coarsening needs an even core count");

        // All unordered pairs, heaviest symmetric weight first; index order
        // breaks ties so the matching is deterministic.
        let mut edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |p| (i, p)))
            .collect();
        edges.sort_by(|&(a, b), &(c, d)| {
            self.pair_weight(c, d)
                .partial_cmp(&self.pair_weight(a, b))
                .expect("finite traffic")
                .then(a.cmp(&c))
                .then(b.cmp(&d))
        });
        let mut fine_to_coarse = vec![usize::MAX; n];
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(n / 2);
        for (i, p) in edges {
            if fine_to_coarse[i] == usize::MAX && fine_to_coarse[p] == usize::MAX {
                fine_to_coarse[i] = merged.len();
                fine_to_coarse[p] = merged.len();
                merged.push((i, p));
                if merged.len() == n / 2 {
                    break;
                }
            }
        }
        debug_assert!(
            fine_to_coarse.iter().all(|&s| s != usize::MAX),
            "greedy matching over the complete pair list must be perfect"
        );

        let nc = merged.len();
        let utilization: Vec<f64> = merged
            .iter()
            .map(|&(a, b)| (self.utilization[a] + self.utilization[b]) / 2.0)
            .collect();
        let mut traffic = vec![vec![0.0f64; nc]; nc];
        for i in 0..n {
            let si = fine_to_coarse[i];
            for (p, &sp) in fine_to_coarse.iter().enumerate() {
                if si != sp {
                    traffic[si][sp] += self.traffic[i][p];
                }
            }
        }
        let coarse = ClusteringProblem {
            utilization,
            traffic,
            m: self.m,
            omega_c: self.omega_c,
            omega_u: self.omega_u * 2.0,
            targets: self.targets.clone(),
        };
        (coarse, fine_to_coarse)
    }

    /// Whether `assignment` puts exactly `len/m` cores in every cluster.
    fn is_balanced(assignment: &[usize], m: usize) -> bool {
        let mut sizes = vec![0usize; m];
        for &j in assignment {
            if j >= m {
                return false;
            }
            sizes[j] += 1;
        }
        sizes.iter().all(|&s| s == assignment.len() / m)
    }

    fn solve_multi(
        &self,
        starts: usize,
        seed: u64,
        refine: impl Fn(&Self, Vec<usize>) -> Vec<usize>,
    ) -> Clustering {
        assert!(starts > 0, "need at least one start");
        let n = self.len();
        let cap = n.checked_div(self.m).unwrap_or(0);
        if n == 0 {
            return Clustering {
                assignment: Vec::new(),
                m: self.m,
            };
        }

        // Start 0: ascending-utilization slices (minimises the util term by
        // construction of the quantile targets).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            self.utilization[a]
                .partial_cmp(&self.utilization[b])
                .expect("finite")
                .then(a.cmp(&b))
        });
        let mut sorted_start = vec![0usize; n];
        for (rank, &core) in order.iter().enumerate() {
            sorted_start[core] = rank / cap;
        }

        let mut best = refine(self, sorted_start);
        let mut best_cost = self.evaluate(&best);

        // Remaining starts: seeded Fisher–Yates shuffles of the balanced
        // label vector.
        let mut state = seed | 1;
        let mut next_u64 = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for _ in 1..starts {
            let mut labels: Vec<usize> = (0..n).map(|i| i / cap).collect();
            for i in (1..n).rev() {
                let j = (next_u64() % (i as u64 + 1)) as usize;
                labels.swap(i, j);
            }
            let candidate = refine(self, labels);
            let cost = self.evaluate(&candidate);
            if cost < best_cost - 1e-12 {
                best_cost = cost;
                best = candidate;
            }
        }

        Clustering {
            assignment: best,
            m: self.m,
        }
    }

    /// The greedy baseline: ascending-utilization slicing with **no** swap
    /// refinement — what a traffic-oblivious flow would produce. Useful as
    /// the ablation baseline for solver quality.
    pub fn solve_greedy(&self) -> Clustering {
        let n = self.len();
        let cap = n / self.m;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            self.utilization[a]
                .partial_cmp(&self.utilization[b])
                .expect("finite")
                .then(a.cmp(&b))
        });
        let mut assignment = vec![0usize; n];
        for (rank, &core) in order.iter().enumerate() {
            assignment[core] = rank / cap;
        }
        Clustering {
            assignment,
            m: self.m,
        }
    }

    /// Best-improvement swap refinement to a local optimum, evaluated
    /// incrementally.
    ///
    /// Two flat auxiliary structures replace the O(n) neighbour scan of
    /// [`ClusteringProblem::swap_delta`]:
    ///
    /// * the aggregated weight table `W[i][j] = Σ_{p∈cluster j, p≠i}
    ///   pair_weight(i, p)` (an `n×m` array, updated in O(n) per accepted
    ///   swap), which collapses the communication half of a swap delta to
    ///   O(1) — `φ_comm` takes only two values, so only the aggregate
    ///   weight into the two affected clusters matters;
    /// * an improving-move cache of per-pair deltas, invalidated only for
    ///   pairs with an endpoint in one of the two clusters the accepted
    ///   swap touched (`W[·][j]` is unchanged for every other cluster `j`,
    ///   so the cached values still equal a fresh recomputation).
    ///
    /// The best-improvement scan visits pairs in the same order and applies
    /// the same strict-improvement comparisons as the reference path, so
    /// the move sequence — and therefore the refined assignment — is
    /// identical to [`ClusteringProblem::solve_with_starts_reference`]
    /// (asserted by the equivalence tests).
    fn refine(&self, mut assignment: Vec<usize>) -> Vec<usize> {
        let n = assignment.len();
        let m = self.m;
        if n == 0 {
            return assignment;
        }

        let mut w = vec![0.0f64; n * m];
        for i in 0..n {
            for (p, &jp) in assignment.iter().enumerate() {
                if p != i {
                    w[i * m + jp] += self.pair_weight(i, p);
                }
            }
        }

        let mut cache = vec![0.0f64; n * n];
        let mut dirty = vec![true; n * n];
        let mut touched = vec![false; n];
        let mut evaluated = 0u64;
        let mut accepted = 0u64;

        let max_passes = 4 * n;
        for _ in 0..max_passes {
            let mut best_delta = -1e-12;
            let mut best_pair = None;
            for i in 0..n {
                let ji = assignment[i];
                for (k, &jk) in assignment.iter().enumerate().skip(i + 1) {
                    if ji == jk {
                        continue;
                    }
                    let idx = i * n + k;
                    if dirty[idx] {
                        cache[idx] = self.swap_delta_incremental(&w, ji, jk, i, k);
                        dirty[idx] = false;
                        evaluated += 1;
                    }
                    let delta = cache[idx];
                    if delta < best_delta {
                        best_delta = delta;
                        best_pair = Some((i, k));
                    }
                }
            }
            match best_pair {
                Some((i, k)) => {
                    let (ji, jk) = (assignment[i], assignment[k]);
                    accepted += 1;
                    // Core i leaves ji for jk and core k leaves jk for ji:
                    // shift their pair weights between the two columns.
                    for r in 0..n {
                        if r != i {
                            let pw = self.pair_weight(r, i);
                            w[r * m + ji] -= pw;
                            w[r * m + jk] += pw;
                        }
                        if r != k {
                            let pw = self.pair_weight(r, k);
                            w[r * m + jk] -= pw;
                            w[r * m + ji] += pw;
                        }
                    }
                    assignment.swap(i, k);
                    // Only the ji/jk columns of W changed, so a cached
                    // delta is stale exactly when one of its endpoints
                    // lives in those clusters (which covers i and k: they
                    // now occupy each other's clusters).
                    for (c, t) in touched.iter_mut().enumerate() {
                        *t = assignment[c] == ji || assignment[c] == jk;
                    }
                    for a in 0..n {
                        let row = a * n;
                        if touched[a] {
                            dirty[row + a + 1..row + n].fill(true);
                        } else {
                            for b in a + 1..n {
                                if touched[b] {
                                    dirty[row + b] = true;
                                }
                            }
                        }
                    }
                }
                None => break,
            }
        }
        mapwave_harness::telemetry::count("vfi.swap_moves_evaluated", evaluated);
        mapwave_harness::telemetry::count("vfi.swap_moves_accepted", accepted);
        assignment
    }

    /// The W-table swap delta: objective change from swapping cores `i`
    /// (in cluster `ji`) and `k` (in cluster `jk`), in O(1).
    ///
    /// Derivation: `φ(jk, jp) − φ(ji, jp)` is `φ_min − 1` for `jp == jk`,
    /// `1 − φ_min` for `jp == ji` and zero otherwise, so the neighbour scan
    /// of [`ClusteringProblem::swap_delta`] collapses to the aggregated
    /// weights of `i` and `k` into the two affected clusters (with the
    /// direct `i↔k` weight, counted inside `W[i][jk]` and `W[k][ji]`,
    /// added back since the pair swaps together and keeps its φ).
    fn swap_delta_incremental(&self, w: &[f64], ji: usize, jk: usize, i: usize, k: usize) -> f64 {
        let m = self.m;
        let phi_gap = 1.0 - 1.0 / (m as f64).sqrt();
        let du = self.omega_u
            * ((self.utilization[i] - self.targets[jk]).powi(2)
                + (self.utilization[k] - self.targets[ji]).powi(2)
                - (self.utilization[i] - self.targets[ji]).powi(2)
                - (self.utilization[k] - self.targets[jk]).powi(2));
        let dc = self.omega_c
            * phi_gap
            * (w[i * m + ji] - w[i * m + jk] + w[k * m + jk] - w[k * m + ji]
                + 2.0 * self.pair_weight(i, k));
        du + dc
    }

    /// The reference refinement: best-improvement swaps with the O(n)
    /// neighbour-scan [`ClusteringProblem::swap_delta`] per candidate pair.
    fn refine_reference(&self, mut assignment: Vec<usize>) -> Vec<usize> {
        let n = assignment.len();
        let max_passes = 4 * n;
        for _ in 0..max_passes {
            let mut best_delta = -1e-12;
            let mut best_pair = None;
            for i in 0..n {
                for k in i + 1..n {
                    if assignment[i] == assignment[k] {
                        continue;
                    }
                    let delta = self.swap_delta(&assignment, i, k);
                    if delta < best_delta {
                        best_delta = delta;
                        best_pair = Some((i, k));
                    }
                }
            }
            match best_pair {
                Some((i, k)) => assignment.swap(i, k),
                None => break,
            }
        }
        assignment
    }

    /// Objective change from swapping the clusters of cores `i` and `k`.
    fn swap_delta(&self, assignment: &[usize], i: usize, k: usize) -> f64 {
        let (ji, jk) = (assignment[i], assignment[k]);
        let mut delta = self.omega_u
            * ((self.utilization[i] - self.targets[jk]).powi(2)
                + (self.utilization[k] - self.targets[ji]).powi(2)
                - (self.utilization[i] - self.targets[ji]).powi(2)
                - (self.utilization[k] - self.targets[jk]).powi(2));
        #[allow(clippy::needless_range_loop)] // lockstep over two arrays
        for p in 0..self.len() {
            if p == i || p == k {
                continue;
            }
            let jp = assignment[p];
            delta += self.omega_c
                * (self.pair_weight(i, p) * (self.phi(jk, jp) - self.phi(ji, jp))
                    + self.pair_weight(k, p) * (self.phi(ji, jp) - self.phi(jk, jp)));
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_traffic(n: usize, v: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..n).map(|p| if i == p { 0.0 } else { v }).collect())
            .collect()
    }

    #[test]
    fn clustering_validates_balance() {
        assert!(Clustering::new(vec![0, 0, 0, 1], 2).is_err());
        assert!(Clustering::new(vec![0, 1, 0, 1], 2).is_ok());
        assert!(matches!(
            Clustering::new(vec![0, 2, 0, 1], 2),
            Err(ClusteringError::LabelOutOfRange { .. })
        ));
        assert!(matches!(
            Clustering::new(vec![0, 1, 0], 2),
            Err(ClusteringError::NotDivisible { .. })
        ));
    }

    #[test]
    fn grid_quadrants_8x8() {
        let c = Clustering::grid_quadrants(8, 8);
        assert_eq!(c.cluster_count(), 4);
        assert_eq!(c.cluster_size(), 16);
        assert_eq!(c.cluster_of(0), 0); // top-left
        assert_eq!(c.cluster_of(7), 1); // top-right
        assert_eq!(c.cluster_of(56), 2); // bottom-left
        assert_eq!(c.cluster_of(63), 3); // bottom-right
    }

    #[test]
    fn problem_rejects_bad_shapes() {
        assert!(matches!(
            ClusteringProblem::new(vec![0.5; 4], uniform_traffic(3, 1.0), 2),
            Err(ClusteringError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            ClusteringProblem::new(vec![0.5; 4], uniform_traffic(4, -1.0), 2),
            Err(ClusteringError::InvalidValue)
        ));
        assert!(matches!(
            ClusteringProblem::new(vec![0.5; 5], uniform_traffic(5, 0.1), 2),
            Err(ClusteringError::NotDivisible { .. })
        ));
    }

    #[test]
    fn targets_are_quantile_means() {
        let u = vec![0.1, 0.9, 0.2, 0.8];
        let p = ClusteringProblem::new(u, uniform_traffic(4, 0.0), 2).unwrap();
        // Normalised by max (0.9): sorted = [1/9, 2/9, 8/9, 1].
        let t = p.targets();
        assert!((t[0] - (0.1 / 0.9 + 0.2 / 0.9) / 2.0).abs() < 1e-12);
        assert!((t[1] - (0.8 / 0.9 + 1.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn phi_matches_paper() {
        let p = ClusteringProblem::new(vec![0.5; 4], uniform_traffic(4, 1.0), 4).unwrap();
        assert!((p.phi(1, 1) - 0.5).abs() < 1e-12); // 1/sqrt(4)
        assert!((p.phi(1, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn comm_cost_prefers_cohabiting_talkers() {
        // Cores 0,1 exchange heavy traffic; 2,3 exchange heavy traffic.
        let mut f = uniform_traffic(4, 0.0);
        f[0][1] = 1.0;
        f[1][0] = 1.0;
        f[2][3] = 1.0;
        f[3][2] = 1.0;
        let p = ClusteringProblem::new(vec![0.5; 4], f, 2).unwrap();
        let good = p.comm_cost(&[0, 0, 1, 1]);
        let bad = p.comm_cost(&[0, 1, 0, 1]);
        assert!(good < bad);
    }

    #[test]
    fn util_cost_prefers_similar_utilization_grouping() {
        let u = vec![0.1, 0.15, 0.9, 0.95];
        let p = ClusteringProblem::new(u, uniform_traffic(4, 0.0), 2).unwrap();
        let good = p.util_cost(&[0, 0, 1, 1]);
        let bad = p.util_cost(&[0, 1, 0, 1]);
        assert!(good < bad);
    }

    #[test]
    fn exact_finds_obvious_optimum() {
        let mut f = uniform_traffic(4, 0.01);
        f[0][1] = 1.0;
        f[2][3] = 1.0;
        let u = vec![0.2, 0.25, 0.8, 0.85];
        let p = ClusteringProblem::new(u, f, 2).unwrap();
        let c = p.solve_exact();
        assert_eq!(c.cluster_of(0), c.cluster_of(1));
        assert_eq!(c.cluster_of(2), c.cluster_of(3));
        assert_ne!(c.cluster_of(0), c.cluster_of(2));
    }

    #[test]
    fn heuristic_matches_exact_on_small_instances() {
        // Deterministic pseudo-random instances via a simple LCG.
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0)
        };
        for trial in 0..8 {
            let n = 8;
            let m = if trial % 2 == 0 { 2 } else { 4 };
            let u: Vec<f64> = (0..n).map(|_| next().min(1.0)).collect();
            let f: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..n).map(|p| if i == p { 0.0 } else { next() }).collect())
                .collect();
            let prob = ClusteringProblem::new(u, f, m).unwrap();
            let exact = prob.solve_exact();
            let heur = prob.solve();
            let ce = prob.evaluate(exact.as_slice());
            let ch = prob.evaluate(heur.as_slice());
            assert!(
                ch <= ce * 1.01 + 1e-9,
                "trial {trial}: heuristic {ch} more than 1% above exact {ce}"
            );
            // And exact is never beaten (it is optimal).
            assert!(ce <= ch + 1e-9, "exact must be optimal");
        }
    }

    #[test]
    fn heuristic_scales_to_paper_size() {
        let n = 64;
        let mut state = 99u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0)
        };
        let u: Vec<f64> = (0..n).map(|_| next().min(1.0)).collect();
        let f: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|p| if i == p { 0.0 } else { next() * 0.1 })
                    .collect()
            })
            .collect();
        let prob = ClusteringProblem::new(u.clone(), f, 4).unwrap();
        let c = prob.solve();
        assert_eq!(c.cluster_count(), 4);
        assert_eq!(c.cluster_size(), 16);
        // Refinement must not be worse than the naive initial slicing.
        let naive: Vec<usize> = {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| u[a].partial_cmp(&u[b]).unwrap().then(a.cmp(&b)));
            let mut a = vec![0usize; n];
            for (rank, &core) in order.iter().enumerate() {
                a[core] = rank / 16;
            }
            a
        };
        assert!(prob.evaluate(c.as_slice()) <= prob.evaluate(&naive) + 1e-9);
    }

    #[test]
    fn refined_solution_beats_greedy() {
        let mut f = uniform_traffic(8, 0.05);
        f[0][7] = 1.0;
        f[7][0] = 1.0;
        let u = vec![0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9];
        let p = ClusteringProblem::new(u, f, 2).unwrap();
        let greedy = p.solve_greedy();
        let refined = p.solve();
        assert!(p.evaluate(refined.as_slice()) <= p.evaluate(greedy.as_slice()) + 1e-12);
        assert_eq!(greedy.cluster_size(), 4);
    }

    /// Deterministic pseudo-random instance shared with the golden pins
    /// below and the `design_flow` micro-bench.
    fn lcg_instance(n: usize, seed: u64) -> (Vec<f64>, Vec<Vec<f64>>) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0)
        };
        let u: Vec<f64> = (0..n).map(|_| next().min(1.0)).collect();
        let f: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|p| if i == p { 0.0 } else { next() * 0.1 })
                    .collect()
            })
            .collect();
        (u, f)
    }

    #[test]
    fn incremental_delta_matches_objective_difference() {
        // Property: for random instances and random improving/worsening
        // swaps alike, the W-table delta equals evaluate(after) −
        // evaluate(before) within 1e-9.
        for seed in [3u64, 17, 99, 1234] {
            let n = 16;
            let m = 4;
            let (u, f) = lcg_instance(n, seed);
            let prob = ClusteringProblem::new(u, f, m).unwrap();
            let assignment: Vec<usize> = (0..n).map(|i| (i * 7 + seed as usize) % m).collect();
            // Rebalance: sort by label rank to get a balanced vector.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| (assignment[i], i));
            let mut balanced = vec![0usize; n];
            for (rank, &core) in order.iter().enumerate() {
                balanced[core] = rank / (n / m);
            }

            let mut w = vec![0.0f64; n * m];
            for i in 0..n {
                for p in 0..n {
                    if p != i {
                        w[i * m + balanced[p]] += prob.pair_weight(i, p);
                    }
                }
            }
            let before = prob.evaluate(&balanced);
            for i in 0..n {
                for k in i + 1..n {
                    let (ji, jk) = (balanced[i], balanced[k]);
                    if ji == jk {
                        continue;
                    }
                    let fast = prob.swap_delta_incremental(&w, ji, jk, i, k);
                    let slow = prob.swap_delta(&balanced, i, k);
                    let mut after = balanced.clone();
                    after.swap(i, k);
                    let exact = prob.evaluate(&after) - before;
                    assert!(
                        (fast - exact).abs() < 1e-9,
                        "seed {seed} swap ({i},{k}): incremental {fast} vs exact {exact}"
                    );
                    assert!(
                        (fast - slow).abs() < 1e-9,
                        "seed {seed} swap ({i},{k}): incremental {fast} vs scan {slow}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_refine_matches_reference_assignments() {
        // The incremental path must reproduce the reference move sequence
        // byte for byte, across sizes and cluster counts.
        for (n, m, seed) in [
            (16usize, 4usize, 3u64),
            (32, 2, 41),
            (24, 4, 77),
            (64, 4, 7),
        ] {
            let (u, f) = lcg_instance(n, seed);
            let prob = ClusteringProblem::new(u, f, m).unwrap();
            let fast = prob.solve_with_starts(4, 0xC0FF_EE00);
            let slow = prob.solve_with_starts_reference(4, 0xC0FF_EE00);
            assert_eq!(
                fast.as_slice(),
                slow.as_slice(),
                "n={n} m={m} seed={seed}: incremental refinement diverged"
            );
        }
    }

    #[test]
    fn solve_assignments_pinned_to_pre_optimization_goldens() {
        // Golden pins captured from the pre-incremental implementation
        // (commit before the W-table refinement): solve() must keep
        // returning byte-identical assignments for the same instances.
        let cases: [(usize, usize, u64, &[usize], u64); 2] = [
            (
                16,
                4,
                3,
                &[0, 1, 3, 3, 0, 0, 1, 2, 1, 3, 2, 1, 2, 0, 2, 3],
                4636947327634976266,
            ),
            (
                32,
                2,
                41,
                &[
                    1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 1, 0, 1, 1, 0, 0, 1,
                    1, 0, 0, 0, 1, 0,
                ],
                4646258336752911209,
            ),
        ];
        for (n, m, seed, expected, cost_bits) in cases {
            let (u, f) = lcg_instance(n, seed);
            let prob = ClusteringProblem::new(u, f, m).unwrap();
            let c = prob.solve();
            assert_eq!(c.as_slice(), expected, "n={n} seed={seed}");
            assert_eq!(
                prob.evaluate(c.as_slice()).to_bits(),
                cost_bits,
                "n={n} seed={seed}: objective drifted"
            );
        }
    }

    #[test]
    fn paper_size_solve_pinned_to_golden() {
        let (u, f) = lcg_instance(64, 99);
        let prob = ClusteringProblem::new(u, f, 4).unwrap();
        let c = prob.solve();
        let expected: [usize; 64] = [
            0, 2, 2, 3, 0, 1, 3, 1, 2, 3, 3, 1, 3, 1, 1, 2, 1, 2, 0, 2, 3, 0, 2, 2, 0, 1, 3, 3, 2,
            1, 0, 2, 1, 1, 1, 0, 2, 2, 3, 0, 3, 0, 3, 0, 1, 2, 3, 3, 1, 2, 0, 3, 1, 0, 2, 0, 3, 0,
            0, 3, 1, 2, 0, 1,
        ];
        assert_eq!(c.as_slice(), expected);
        assert_eq!(
            prob.evaluate(c.as_slice()).to_bits(),
            4655379387557553268,
            "objective drifted from the pre-optimization golden"
        );
    }

    #[test]
    fn multilevel_matches_flat_solver_on_small_instances() {
        // For n ≤ MULTILEVEL_LEAF no coarsening level exists, so the
        // multilevel entry point must be bit-identical to the flat path —
        // this is what keeps every existing golden green.
        for n in [8usize, 16, 32, 64] {
            for seed in [3u64, 7, 41, 99, 1234] {
                let m = if n == 8 { 2 } else { 4 };
                let (u, f) = lcg_instance(n, seed);
                let prob = ClusteringProblem::new(u, f, m).unwrap();
                let flat = prob.solve();
                let multi = prob.solve_multilevel();
                assert_eq!(
                    flat.as_slice(),
                    multi.as_slice(),
                    "n={n} seed={seed}: multilevel diverged from flat solver"
                );
            }
        }
    }

    #[test]
    fn multilevel_handles_odd_quota_without_coarsening() {
        // n=72, m=4 → quota 18 is even once, then 9 is odd: one coarsening
        // level only, and the recursion must still return a valid balanced
        // clustering.
        let (u, f) = lcg_instance(72, 5);
        let prob = ClusteringProblem::new(u, f, 4).unwrap();
        let c = prob.solve_multilevel();
        assert_eq!(c.cluster_size(), 18);
        assert!(ClusteringProblem::is_balanced(c.as_slice(), 4));
    }

    #[test]
    fn multilevel_scales_to_256_and_beats_greedy() {
        let (u, f) = lcg_instance(256, 11);
        let prob = ClusteringProblem::new(u, f, 4).unwrap();
        let c = prob.solve_multilevel();
        assert_eq!(c.cluster_count(), 4);
        assert_eq!(c.cluster_size(), 64);
        assert!(ClusteringProblem::is_balanced(c.as_slice(), 4));
        let greedy = prob.solve_greedy();
        assert!(
            prob.evaluate(c.as_slice()) <= prob.evaluate(greedy.as_slice()) + 1e-9,
            "multilevel must not lose to the traffic-oblivious slicing"
        );
    }

    #[test]
    fn coarse_objective_tracks_fine_objective() {
        // The coarse instance must preserve objective *differences* between
        // projected assignments (the absolute values differ by a constant:
        // intra-supernode traffic and within-supernode utilization
        // variance drop out).
        let (u, f) = lcg_instance(32, 13);
        let prob = ClusteringProblem::new(u, f, 4).unwrap();
        let (coarse, map) = prob.coarsen();
        assert_eq!(coarse.len(), 16);

        let project = |coarse_assignment: &[usize]| -> Vec<usize> {
            map.iter().map(|&s| coarse_assignment[s]).collect()
        };
        let a: Vec<usize> = (0..16).map(|s| s / 4).collect();
        let mut b = a.clone();
        b.swap(0, 7);
        b.swap(3, 12);
        let coarse_delta = coarse.evaluate(&b) - coarse.evaluate(&a);
        let fine_delta = prob.evaluate(&project(&b)) - prob.evaluate(&project(&a));
        assert!(
            (coarse_delta - fine_delta).abs() < 1e-9,
            "coarse delta {coarse_delta} vs fine delta {fine_delta}"
        );
    }

    #[test]
    fn heavy_edge_matching_pairs_heaviest_talkers() {
        // Cores (0,5) and (2,7) exchange dominant traffic: the greedy
        // matching must merge exactly those pairs first.
        let n = 8;
        let mut f = uniform_traffic(n, 0.01);
        f[0][5] = 1.0;
        f[5][0] = 1.0;
        f[2][7] = 0.9;
        f[7][2] = 0.9;
        let prob = ClusteringProblem::new(vec![0.5; n], f, 2).unwrap();
        let (_, map) = prob.coarsen();
        assert_eq!(map[0], map[5], "heaviest pair must merge");
        assert_eq!(map[2], map[7], "second-heaviest pair must merge");
        assert_ne!(map[0], map[2]);
    }

    #[test]
    fn refinement_telemetry_counts_moves() {
        use mapwave_harness::telemetry;
        let (u, f) = lcg_instance(16, 3);
        let prob = ClusteringProblem::new(u, f, 4).unwrap();
        telemetry::reset();
        telemetry::enable();
        let _ = prob.solve();
        telemetry::flush();
        let summary = telemetry::snapshot();
        telemetry::disable();
        assert!(summary.counter("vfi.swap_moves_evaluated") > 0);
        assert!(summary.counter("vfi.swap_moves_accepted") > 0);
        assert!(
            summary.counter("vfi.swap_moves_accepted")
                <= summary.counter("vfi.swap_moves_evaluated")
        );
    }

    #[test]
    fn solve_is_deterministic() {
        let u = vec![0.3, 0.7, 0.2, 0.9, 0.5, 0.6, 0.1, 0.8];
        let f = uniform_traffic(8, 0.2);
        let p = ClusteringProblem::new(u, f, 2).unwrap();
        assert_eq!(p.solve(), p.solve());
    }

    #[test]
    fn zero_traffic_groups_by_utilization() {
        let u = vec![0.9, 0.1, 0.85, 0.15];
        let p = ClusteringProblem::new(u, uniform_traffic(4, 0.0), 2).unwrap();
        let c = p.solve();
        assert_eq!(c.cluster_of(1), c.cluster_of(3)); // low-u cores together
        assert_eq!(c.cluster_of(0), c.cluster_of(2)); // high-u cores together
    }

    #[test]
    fn omega_c_dominant_ignores_utilization() {
        // With ω_u = 0, only traffic matters: pairs (0,3) and (1,2) talk.
        let mut f = uniform_traffic(4, 0.0);
        f[0][3] = 1.0;
        f[1][2] = 1.0;
        let u = vec![0.1, 0.1, 0.9, 0.9];
        let p = ClusteringProblem::new(u, f, 2).unwrap().omega_u(0.0);
        let c = p.solve_exact();
        assert_eq!(c.cluster_of(0), c.cluster_of(3));
        assert_eq!(c.cluster_of(1), c.cluster_of(2));
    }
}
