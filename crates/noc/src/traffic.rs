//! Traffic descriptions and injection processes.
//!
//! A [`TrafficMatrix`] gives the packet injection rate for every
//! source→destination pair (packets per cycle). The cycle-level simulator
//! samples a Bernoulli process per source and picks destinations by the
//! normalised row weights, which reproduces the pairwise rates in
//! expectation while keeping per-cycle work `O(n)`.

use crate::node::NodeId;
use mapwave_harness::rng::StdRng;
use mapwave_harness::rng::{RngCore, RngExt};

/// Errors from traffic-matrix construction.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// A rate was negative or non-finite.
    InvalidRate {
        /// Source of the offending entry.
        src: NodeId,
        /// Destination of the offending entry.
        dst: NodeId,
        /// The offending value.
        rate: f64,
    },
    /// The matrix was not square.
    NotSquare {
        /// Number of rows supplied.
        rows: usize,
        /// Length of the offending row.
        row_len: usize,
    },
}

impl std::fmt::Display for TrafficError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficError::InvalidRate { src, dst, rate } => {
                write!(f, "invalid rate {rate} for pair {src}->{dst}")
            }
            TrafficError::NotSquare { rows, row_len } => {
                write!(f, "matrix with {rows} rows has a row of length {row_len}")
            }
        }
    }
}

impl std::error::Error for TrafficError {}

/// Pairwise packet injection rates (packets/cycle), diagonal ignored.
///
/// # Examples
///
/// ```
/// use mapwave_noc::traffic::TrafficMatrix;
/// use mapwave_noc::NodeId;
///
/// let mut m = TrafficMatrix::zeros(4);
/// m.set(NodeId(0), NodeId(3), 0.02);
/// m.add(NodeId(0), NodeId(3), 0.01);
/// assert!((m.rate(NodeId(0), NodeId(3)) - 0.03).abs() < 1e-12);
/// assert!((m.total_rate() - 0.03).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficMatrix {
    n: usize,
    rates: Vec<f64>,
}

impl TrafficMatrix {
    /// An all-zero matrix over `n` nodes.
    pub fn zeros(n: usize) -> Self {
        TrafficMatrix {
            n,
            rates: vec![0.0; n * n],
        }
    }

    /// Builds a matrix from rows.
    ///
    /// # Errors
    ///
    /// Rejects non-square inputs and negative or non-finite rates.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, TrafficError> {
        let n = rows.len();
        let mut m = TrafficMatrix::zeros(n);
        for (s, row) in rows.iter().enumerate() {
            if row.len() != n {
                return Err(TrafficError::NotSquare {
                    rows: n,
                    row_len: row.len(),
                });
            }
            for (d, &r) in row.iter().enumerate() {
                if !r.is_finite() || r < 0.0 {
                    return Err(TrafficError::InvalidRate {
                        src: NodeId(s),
                        dst: NodeId(d),
                        rate: r,
                    });
                }
                m.rates[s * n + d] = r;
            }
        }
        Ok(m)
    }

    /// Builds a matrix directly from a dense row-major rate buffer of
    /// length `n * n`, forcing the (ignored) diagonal to zero. This is the
    /// bulk-construction fast path: callers can produce the whole buffer
    /// branch-free (e.g. scaling a flit-count accumulator) and this
    /// constructor restores the diagonal invariant in one pass.
    ///
    /// # Panics
    ///
    /// Panics if `rates.len() != n * n`. Debug builds additionally reject
    /// negative or non-finite off-diagonal rates, mirroring
    /// [`TrafficMatrix::from_rows`].
    pub fn from_dense(n: usize, mut rates: Vec<f64>) -> Self {
        assert_eq!(rates.len(), n * n, "dense rate buffer must be n*n");
        for s in 0..n {
            rates[s * n + s] = 0.0;
        }
        debug_assert!(
            rates.iter().all(|r| r.is_finite() && *r >= 0.0),
            "rates must be finite and non-negative"
        );
        TrafficMatrix { n, rates }
    }

    /// Uniform random traffic: every node sends to every other node at a
    /// rate such that each source injects `injection_rate` packets/cycle.
    pub fn uniform(n: usize, injection_rate: f64) -> Self {
        let mut m = TrafficMatrix::zeros(n);
        if n > 1 {
            let per_pair = injection_rate / (n - 1) as f64;
            for s in 0..n {
                for d in 0..n {
                    if s != d {
                        m.rates[s * n + d] = per_pair;
                    }
                }
            }
        }
        m
    }

    /// Hotspot traffic: uniform background plus `extra` packets/cycle from
    /// every node toward `hotspot`.
    pub fn hotspot(n: usize, background: f64, hotspot: NodeId, extra: f64) -> Self {
        let mut m = TrafficMatrix::uniform(n, background);
        for s in 0..n {
            if s != hotspot.index() {
                m.rates[s * n + hotspot.index()] += extra / (n - 1) as f64;
            }
        }
        m
    }

    /// Matrix-transpose traffic on a `side × side` grid: node `(r, c)` sends
    /// to node `(c, r)` at `injection_rate` packets/cycle — a classic
    /// adversarial pattern for dimension-order routing.
    pub fn transpose(side: usize, injection_rate: f64) -> Self {
        let n = side * side;
        let mut m = TrafficMatrix::zeros(n);
        for s in 0..n {
            let (r, c) = (s / side, s % side);
            let d = c * side + r;
            if d != s {
                m.rates[s * n + d] = injection_rate;
            }
        }
        m
    }

    /// Bit-complement traffic: node `i` sends to node `(n-1) - i` at
    /// `injection_rate` packets/cycle — maximally long paths on meshes.
    pub fn bit_complement(n: usize, injection_rate: f64) -> Self {
        let mut m = TrafficMatrix::zeros(n);
        for s in 0..n {
            let d = n - 1 - s;
            if d != s {
                m.rates[s * n + d] = injection_rate;
            }
        }
        m
    }

    /// Nearest-neighbour traffic on a `cols × rows` grid: each node sends
    /// equally to its 4-neighbourhood at `injection_rate` total — the
    /// best case for a mesh, a locality probe for irregular fabrics.
    pub fn neighbor(cols: usize, rows: usize, injection_rate: f64) -> Self {
        let n = cols * rows;
        let mut m = TrafficMatrix::zeros(n);
        for s in 0..n {
            let (r, c) = (s / cols, s % cols);
            let mut neighbors = Vec::new();
            if c > 0 {
                neighbors.push(s - 1);
            }
            if c + 1 < cols {
                neighbors.push(s + 1);
            }
            if r > 0 {
                neighbors.push(s - cols);
            }
            if r + 1 < rows {
                neighbors.push(s + cols);
            }
            let per = injection_rate / neighbors.len().max(1) as f64;
            for d in neighbors {
                m.rates[s * n + d] = per;
            }
        }
        m
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Rate for one pair.
    pub fn rate(&self, src: NodeId, dst: NodeId) -> f64 {
        self.rates[src.index() * self.n + dst.index()]
    }

    /// Sets the rate for one pair (diagonal entries are forced to zero).
    pub fn set(&mut self, src: NodeId, dst: NodeId, rate: f64) {
        if src != dst {
            self.rates[src.index() * self.n + dst.index()] = rate;
        }
    }

    /// Adds to the rate for one pair (diagonal ignored).
    pub fn add(&mut self, src: NodeId, dst: NodeId, delta: f64) {
        if src != dst {
            self.rates[src.index() * self.n + dst.index()] += delta;
        }
    }

    /// Total injection rate of one source (packets/cycle).
    pub fn row_rate(&self, src: NodeId) -> f64 {
        self.rates[src.index() * self.n..(src.index() + 1) * self.n]
            .iter()
            .sum()
    }

    /// Total injection rate over all sources.
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// Scales every rate by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for r in &mut self.rates {
            *r *= factor;
        }
    }

    /// Returns a copy normalised so the *maximum entry* is 1 (used by the
    /// VFI clustering objective, which normalises `f` to its maximum).
    /// A zero matrix is returned unchanged.
    pub fn normalized(&self) -> TrafficMatrix {
        let max = self.rates.iter().cloned().fold(0.0, f64::max);
        let mut out = self.clone();
        if max > 0.0 {
            out.scale(1.0 / max);
        }
        out
    }

    /// Aggregates pair rates to cluster-level rates given a node→cluster
    /// assignment with `m` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != self.len()` or a cluster id is ≥ `m`.
    pub fn cluster_rates(&self, assignment: &[usize], m: usize) -> Vec<Vec<f64>> {
        assert_eq!(assignment.len(), self.n, "assignment length mismatch");
        let mut out = vec![vec![0.0; m]; m];
        for s in 0..self.n {
            for d in 0..self.n {
                if s != d {
                    out[assignment[s]][assignment[d]] += self.rates[s * self.n + d];
                }
            }
        }
        out
    }

    /// Traffic-weighted mean of `per_pair[s][d]` values (e.g. hop counts),
    /// ignoring zero-rate pairs. Returns 0 for all-zero traffic.
    pub fn weighted_mean<F: Fn(NodeId, NodeId) -> f64>(&self, per_pair: F) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for s in 0..self.n {
            for d in 0..self.n {
                let r = self.rates[s * self.n + d];
                if s != d && r > 0.0 {
                    num += r * per_pair(NodeId(s), NodeId(d));
                    den += r;
                }
            }
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }
}

/// One precomputed packet injection: at `cycle`, `src` generates a packet
/// addressed to `dest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectEvent {
    /// Cycle the packet is generated, counted from the start of the run.
    pub cycle: u64,
    /// Generating source node.
    pub src: u32,
    /// Drawn destination node.
    pub dest: u32,
}

/// Bernoulli packet injector driven by a [`TrafficMatrix`].
///
/// Per cycle and per source, a packet is generated with probability equal to
/// the source's total rate (clamped to 1), with the destination drawn from
/// the row's normalised weights.
#[derive(Debug, Clone)]
pub struct Injector {
    n: usize,
    /// Per-source total rate, clamped to [0, 1].
    row_rate: Vec<f64>,
    /// Cumulative destination weights, one stride of `n` per source
    /// (`cumulative[s * n..(s + 1) * n]`).
    cumulative: Vec<f64>,
    /// Sources with a positive rate, ascending. A zero-rate source never
    /// consumes an RNG draw (see [`Injector::sample`]), so a per-cycle scan
    /// over this list produces the identical draw stream as scanning all
    /// `n` sources — sparse matrices skip the dead rows entirely.
    nonzero: Vec<u32>,
    /// Integer gate per entry of `nonzero`: `ceil(rate · 2^53)`. A draw
    /// `u = k · 2^-53` (`k = next_u64() >> 11`) passes `u < rate` exactly
    /// when `k < ceil(rate · 2^53)`, since scaling by a power of two is
    /// exact and `k` is an integer.
    gate: Vec<u64>,
}

impl Injector {
    /// Prepares an injector for `matrix`.
    pub fn new(matrix: &TrafficMatrix) -> Self {
        let n = matrix.len();
        let mut row_rate = Vec::with_capacity(n);
        let mut cumulative = Vec::with_capacity(n * n);
        let mut nonzero = Vec::new();
        for s in 0..n {
            let total = matrix.row_rate(NodeId(s));
            row_rate.push(total.min(1.0));
            if total > 0.0 {
                nonzero.push(s as u32);
            }
            let mut acc = 0.0;
            for d in 0..n {
                acc += matrix.rate(NodeId(s), NodeId(d));
                cumulative.push(acc);
            }
        }
        let gate = nonzero
            .iter()
            .map(|&s| (row_rate[s as usize] * (1u64 << 53) as f64).ceil() as u64)
            .collect();
        Injector {
            n,
            row_rate,
            cumulative,
            nonzero,
            gate,
        }
    }

    /// The sources with a positive injection rate, in ascending order.
    pub fn nonzero_sources(&self) -> &[u32] {
        &self.nonzero
    }

    /// Samples this cycle's destination for `src`, or `None` when the source
    /// stays idle.
    pub fn sample(&self, src: NodeId, rng: &mut StdRng) -> Option<NodeId> {
        let rate = self.row_rate[src.index()];
        if rate <= 0.0 || rng.random::<f64>() >= rate {
            return None;
        }
        let cum = &self.cumulative[src.index() * self.n..(src.index() + 1) * self.n];
        let total = *cum.last()?;
        if total <= 0.0 {
            return None;
        }
        let x = rng.random::<f64>() * total;
        let idx = cum.partition_point(|&c| c <= x);
        Some(NodeId(idx.min(cum.len() - 1)))
    }

    /// Precomputes the full injection schedule for `cycles` cycles into
    /// `out` (cleared first), returning events sorted by cycle and, within
    /// a cycle, by ascending source.
    ///
    /// The injection process is independent of network state by design
    /// (see [`Injector::nonzero_sources`]), so the schedule can be drawn
    /// up front in one tight pass: per cycle and nonzero source, one gate
    /// draw, then one destination draw for each generated packet — the
    /// exact draw stream a per-cycle [`Injector::sample`] scan consumes,
    /// making event consumption bit-identical to in-loop sampling. The
    /// gate draw is compared as an integer (see `Injector::gate`).
    /// Self-addressed draws are dropped (as the simulator drops them) but
    /// still burn their draws.
    pub fn schedule_into(&self, rng: &mut StdRng, cycles: u64, out: &mut Vec<InjectEvent>) {
        out.clear();
        for cycle in 0..cycles {
            for (&s, &gate) in self.nonzero.iter().zip(&self.gate) {
                if rng.next_u64() >> 11 >= gate {
                    continue;
                }
                let su = s as usize;
                let cum = &self.cumulative[su * self.n..(su + 1) * self.n];
                let total = match cum.last() {
                    Some(&t) if t > 0.0 => t,
                    _ => continue,
                };
                let x = rng.random::<f64>() * total;
                let idx = cum.partition_point(|&c| c <= x).min(self.n - 1);
                if idx != su {
                    out.push(InjectEvent {
                        cycle,
                        src: s,
                        dest: idx as u32,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapwave_harness::rng::SeedableRng;

    #[test]
    fn uniform_row_rate() {
        let m = TrafficMatrix::uniform(8, 0.1);
        for s in 0..8 {
            assert!((m.row_rate(NodeId(s)) - 0.1).abs() < 1e-12);
        }
        assert_eq!(m.rate(NodeId(3), NodeId(3)), 0.0);
    }

    #[test]
    fn schedule_matches_per_cycle_sampling() {
        // The precomputed schedule must consume the identical draw stream
        // as an in-loop sample() scan and emit the identical events. Edge
        // rows: a total above 1 (clamped), exactly 0.5, a vanishing 1e-12,
        // and one ulp either side of the multiple 3·2^-3 of 2^-53.
        let boundary = 0.375f64;
        let mut m = TrafficMatrix::zeros(10);
        m.set(NodeId(0), NodeId(5), 0.4);
        m.set(NodeId(0), NodeId(2), 0.3);
        m.set(NodeId(3), NodeId(1), 0.9);
        m.set(NodeId(5), NodeId(0), 0.05);
        m.set(NodeId(1), NodeId(4), 0.9);
        m.set(NodeId(1), NodeId(6), 0.6);
        m.set(NodeId(2), NodeId(7), 0.5);
        m.set(NodeId(4), NodeId(8), 1e-12);
        m.set(NodeId(6), NodeId(9), boundary.next_up());
        m.set(NodeId(7), NodeId(9), boundary.next_down());
        let inj = Injector::new(&m);
        // The integer gate agrees with the f64 test `k·2^-53 < rate` at
        // every draw next to each row's threshold.
        for (&s, &gate) in inj.nonzero_sources().iter().zip(&inj.gate) {
            let rate = inj.row_rate[s as usize];
            for k in gate.saturating_sub(2)..(gate + 2).min(1 << 53) {
                let u = k as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(k < gate, u < rate, "source {s}, draw {k}");
            }
        }
        let cycles = 500u64;

        let mut reference = Vec::new();
        let mut rng = StdRng::seed_from_u64(0xfeed);
        for cycle in 0..cycles {
            for &s in inj.nonzero_sources() {
                if let Some(d) = inj.sample(NodeId(s as usize), &mut rng) {
                    if d.index() != s as usize {
                        reference.push(InjectEvent {
                            cycle,
                            src: s,
                            dest: d.index() as u32,
                        });
                    }
                }
            }
        }

        let mut scheduled = Vec::new();
        let mut rng2 = StdRng::seed_from_u64(0xfeed);
        inj.schedule_into(&mut rng2, cycles, &mut scheduled);
        assert!(!scheduled.is_empty(), "traffic must generate packets");
        assert_eq!(scheduled, reference);
        // Both paths must leave the RNG in the same state.
        use mapwave_harness::rng::RngExt;
        assert_eq!(
            rng.random::<f64>().to_bits(),
            rng2.random::<f64>().to_bits()
        );
    }

    #[test]
    fn from_rows_rejects_negative() {
        let err = TrafficMatrix::from_rows(vec![vec![0.0, -1.0], vec![0.0, 0.0]]).unwrap_err();
        assert!(matches!(err, TrafficError::InvalidRate { .. }));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = TrafficMatrix::from_rows(vec![vec![0.0, 0.0], vec![0.0]]).unwrap_err();
        assert!(matches!(err, TrafficError::NotSquare { .. }));
    }

    #[test]
    fn from_dense_zeroes_diagonal() {
        let m = TrafficMatrix::from_dense(2, vec![7.0, 0.25, 0.5, 9.0]);
        assert_eq!(m.rate(NodeId(0), NodeId(0)), 0.0);
        assert_eq!(m.rate(NodeId(1), NodeId(1)), 0.0);
        assert_eq!(m.rate(NodeId(0), NodeId(1)), 0.25);
        assert_eq!(m.rate(NodeId(1), NodeId(0)), 0.5);
        assert_eq!(m.total_rate(), 0.75);
    }

    #[test]
    #[should_panic(expected = "dense rate buffer")]
    fn from_dense_rejects_wrong_length() {
        let _ = TrafficMatrix::from_dense(2, vec![0.0; 3]);
    }

    #[test]
    fn diagonal_writes_ignored() {
        let mut m = TrafficMatrix::zeros(3);
        m.set(NodeId(1), NodeId(1), 5.0);
        m.add(NodeId(2), NodeId(2), 5.0);
        assert_eq!(m.total_rate(), 0.0);
    }

    #[test]
    fn normalized_max_is_one() {
        let mut m = TrafficMatrix::zeros(3);
        m.set(NodeId(0), NodeId(1), 4.0);
        m.set(NodeId(1), NodeId(2), 2.0);
        let n = m.normalized();
        assert!((n.rate(NodeId(0), NodeId(1)) - 1.0).abs() < 1e-12);
        assert!((n.rate(NodeId(1), NodeId(2)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hotspot_adds_traffic() {
        let m = TrafficMatrix::hotspot(4, 0.1, NodeId(0), 0.3);
        assert!(m.rate(NodeId(1), NodeId(0)) > m.rate(NodeId(1), NodeId(2)));
    }

    #[test]
    fn transpose_pattern() {
        let m = TrafficMatrix::transpose(3, 0.1);
        // (0,1) = node 1 sends to (1,0) = node 3.
        assert!((m.rate(NodeId(1), NodeId(3)) - 0.1).abs() < 1e-12);
        // Diagonal nodes ((r,r)) send nothing.
        assert_eq!(m.row_rate(NodeId(0)), 0.0);
        assert_eq!(m.row_rate(NodeId(4)), 0.0);
    }

    #[test]
    fn bit_complement_pattern() {
        let m = TrafficMatrix::bit_complement(8, 0.2);
        assert!((m.rate(NodeId(0), NodeId(7)) - 0.2).abs() < 1e-12);
        assert!((m.rate(NodeId(3), NodeId(4)) - 0.2).abs() < 1e-12);
        assert_eq!(m.rate(NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn neighbor_pattern_conserves_rate() {
        let m = TrafficMatrix::neighbor(4, 4, 0.1);
        for s in 0..16 {
            assert!((m.row_rate(NodeId(s)) - 0.1).abs() < 1e-12, "node {s}");
        }
        // Corner node 0 splits its rate between nodes 1 and 4.
        assert!((m.rate(NodeId(0), NodeId(1)) - 0.05).abs() < 1e-12);
        assert!((m.rate(NodeId(0), NodeId(4)) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn cluster_rates_aggregate() {
        let mut m = TrafficMatrix::zeros(4);
        m.set(NodeId(0), NodeId(2), 1.0);
        m.set(NodeId(1), NodeId(3), 2.0);
        m.set(NodeId(0), NodeId(1), 4.0);
        let cr = m.cluster_rates(&[0, 0, 1, 1], 2);
        assert_eq!(cr[0][1], 3.0);
        assert_eq!(cr[0][0], 4.0);
        assert_eq!(cr[1][0], 0.0);
    }

    #[test]
    fn weighted_mean_weights_by_rate() {
        let mut m = TrafficMatrix::zeros(3);
        m.set(NodeId(0), NodeId(1), 3.0);
        m.set(NodeId(0), NodeId(2), 1.0);
        // hop(0->1)=1, hop(0->2)=5: mean = (3*1 + 1*5)/4 = 2
        let mean = m.weighted_mean(|_, d| if d == NodeId(1) { 1.0 } else { 5.0 });
        assert!((mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn injector_rate_statistics() {
        let m = TrafficMatrix::uniform(4, 0.5);
        let inj = Injector::new(&m);
        let mut rng = StdRng::seed_from_u64(1);
        let mut count = 0;
        let trials = 20_000;
        for _ in 0..trials {
            if inj.sample(NodeId(0), &mut rng).is_some() {
                count += 1;
            }
        }
        let p = count as f64 / trials as f64;
        assert!((p - 0.5).abs() < 0.02, "observed rate {p}");
    }

    #[test]
    fn injector_never_picks_self_when_rate_zero() {
        let mut m = TrafficMatrix::zeros(3);
        m.set(NodeId(0), NodeId(2), 0.9);
        let inj = Injector::new(&m);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            if let Some(d) = inj.sample(NodeId(0), &mut rng) {
                assert_eq!(d, NodeId(2));
            }
        }
    }

    #[test]
    fn injector_idle_source() {
        let m = TrafficMatrix::zeros(3);
        let inj = Injector::new(&m);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(inj.sample(NodeId(1), &mut rng).is_none());
    }
}
