//! Principal Component Analysis (PCA): mean and covariance of a matrix.
//!
//! Input at scale 1 is the paper's 960×960 matrix. Phoenix++ PCA runs **two
//! MapReduce iterations**: the first computes per-row means, the second the
//! covariance matrix. The covariance iteration emits a large key space
//! (matrix coordinates), which makes PCA's **Merge phase the longest of the
//! six applications**; combined with a heavy library initialisation this
//! produces the strongest bottleneck-core effect (Fig. 5: the highest
//! bottleneck-to-average utilization ratio), and therefore the biggest
//! benefit from the VFI 2 reassignment (Fig. 4).
//!
//! The kernel computes what its witness reads: each row's mean and
//! variance (the covariance diagonal, whose sum is the trace). It draws the
//! matrix one row at a time and never holds it. The covariance iteration's
//! task work (n MACs per upper-triangle entry) comes from counts, not from
//! computing the off-diagonal entries.

use crate::apps::digest_f64s;
use crate::task::TaskWork;
use crate::workload::{AppWorkload, IterationWorkload, MergeSpec};
use mapwave_harness::rng::StdRng;
use mapwave_harness::rng::{RngExt, SeedableRng};
use mapwave_manycore::cache::MemoryProfile;

/// Matrix dimension at scale 1 (Table 1).
pub const DIM: usize = 960;
/// Map tasks of the mean iteration.
pub const MEAN_TASKS: usize = 128;
/// Map tasks of the covariance iteration.
pub const COV_TASKS: usize = 192;

/// Cycles per multiply-accumulate.
const CYCLES_PER_MAC: f64 = 1.1;
/// Instructions per MAC.
const INSTR_PER_MAC: f64 = 1.7;

/// Outcome of a real PCA run.
#[derive(Debug, Clone, PartialEq)]
pub struct PcaRun {
    /// The recorded workload.
    pub workload: AppWorkload,
    /// Dimension actually used (scaled).
    pub dim: usize,
    /// Per-row means.
    pub means: Vec<f64>,
    /// Trace of the covariance matrix (correctness witness).
    pub covariance_trace: f64,
}

/// Dimension used at a given scale.
pub fn scaled_dim(scale: f64) -> usize {
    ((DIM as f64) * scale.cbrt()).round().max(48.0) as usize
}

/// Runs PCA at `scale` of the Table-1 input.
///
/// # Panics
///
/// Panics if `scale` is not positive or `cores == 0`.
pub fn run(scale: f64, seed: u64, cores: usize) -> PcaRun {
    assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
    assert!(cores > 0, "need at least one core");

    let n = scaled_dim(scale);
    let mut rng = StdRng::seed_from_u64(seed);
    // Rows are observations, columns variables; inject correlation so the
    // covariance has structure. Each row is drawn, reduced to its mean and
    // variance, and dropped: the kernel never holds the n×n matrix.
    let base: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
    let mut row = vec![0.0f64; n];
    let mut means = Vec::with_capacity(n);
    let mut trace = 0.0f64;
    let mut diag_digest = Vec::with_capacity(n);
    for i in 0..n {
        let weight = (i % 7) as f64 + 1.0;
        for (x, &b) in row.iter_mut().zip(&base) {
            *x = b * weight * 0.1 + rng.random::<f64>();
        }
        let mean = row.iter().sum::<f64>() / n as f64;
        // The diagonal covariance entry: centred squares summed from 0.0
        // in ascending column order.
        let mut acc = 0.0f64;
        for &x in &row {
            let centred = x - mean;
            acc += centred * centred;
        }
        let variance = acc / (n as f64 - 1.0);
        trace += variance;
        diag_digest.push(variance);
        means.push(mean);
    }

    // --- Iteration 1: per-row means ---
    let mean_tasks_n = MEAN_TASKS.min(n);
    let iter1_tasks: Vec<TaskWork> = (0..mean_tasks_n)
        .map(|t| {
            let rows = (t + 1) * n / mean_tasks_n - t * n / mean_tasks_n;
            let ops = (rows * n) as f64;
            TaskWork::new(ops * CYCLES_PER_MAC, ops * INSTR_PER_MAC, rows)
        })
        .collect();

    // --- Iteration 2: covariance (upper triangle) ---
    // Row i's task work covers entries (i, i..n), n MACs each; the counts
    // are exact integers, so they need no kernel behind them.
    let cov_tasks_n = COV_TASKS.min(n);
    let iter2_tasks: Vec<TaskWork> = (0..cov_tasks_n)
        .map(|t| {
            let entries: usize = (t * n / cov_tasks_n..(t + 1) * n / cov_tasks_n)
                .map(|i| n - i)
                .sum();
            let macs = (entries * n) as f64;
            TaskWork::new(macs * CYCLES_PER_MAC, macs * INSTR_PER_MAC, entries)
        })
        .collect();

    let digest = digest_f64s(means.iter().copied().chain(diag_digest).chain([trace]));

    let cov_total: f64 = iter2_tasks.iter().map(|t| t.cycles).sum();
    let cov_entries = (n * (n + 1) / 2) as f64;
    let memory = MemoryProfile::new(12.0, 0.08, 0.9);
    let reduce_memory = MemoryProfile::new(7.0, 0.05, 0.9);

    let workload = AppWorkload {
        name: "PCA",
        // PCA's library initialisation is the heaviest of the set: matrix
        // staging plus key-storage allocation for the covariance key space.
        lib_init_cycles: cov_total / cores as f64 * 0.35,
        lib_init_instructions: cov_total / cores as f64 * 0.22,
        iterations: vec![
            IterationWorkload {
                map_tasks: iter1_tasks,
                reduce_tasks: vec![TaskWork::new(n as f64 * 3.0, n as f64 * 2.0, 1); 32.min(n)],
                merge: Some(MergeSpec {
                    total_items: n as f64,
                    cycles_per_item: 3.0,
                    instructions_per_item: 2.0,
                    flits_per_item: 2.0,
                }),
                map_memory: memory,
                reduce_memory,
                kv_flits_per_key: 2.0,
                neighbor_bias: 0.15,
            },
            IterationWorkload {
                map_tasks: iter2_tasks,
                reduce_tasks: vec![
                    TaskWork::new(
                        cov_entries / 64.0 * 4.0,
                        cov_entries / 64.0 * 3.0,
                        (cov_entries / 64.0) as usize,
                    );
                    64
                ],
                // The long merge: the covariance key space is the largest
                // intermediate state of the six applications.
                merge: Some(MergeSpec {
                    total_items: cov_entries,
                    cycles_per_item: 1.2,
                    instructions_per_item: 0.8,
                    flits_per_item: 2.0,
                }),
                map_memory: memory,
                reduce_memory,
                kv_flits_per_key: 2.0,
                neighbor_bias: 0.15,
            },
        ],
        digest,
    };

    PcaRun {
        workload,
        dim: n,
        means,
        covariance_trace: trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_are_correct() {
        let r = run(1e-6, 1, 64); // dim clamps to 48
        assert_eq!(r.dim, 48);
        // Spot-check one mean against a direct recomputation.
        let mut rng = StdRng::seed_from_u64(1);
        let base: Vec<f64> = (0..48).map(|_| rng.random::<f64>()).collect();
        let matrix: Vec<f64> = (0..48 * 48)
            .map(|idx| {
                let (i, j) = (idx / 48, idx % 48);
                base[j] * ((i % 7) as f64 + 1.0) * 0.1 + rng.random::<f64>()
            })
            .collect();
        let m0: f64 = matrix[..48].iter().sum::<f64>() / 48.0;
        assert!((r.means[0] - m0).abs() < 1e-12);
    }

    #[test]
    fn trace_matches_the_full_covariance() {
        // The kernel keeps only the diagonal; its sum must match the trace
        // of the covariance matrix computed in full from the stored matrix.
        let r = run(1e-6, 7, 64);
        let n = r.dim;
        let mut rng = StdRng::seed_from_u64(7);
        let base: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
        let matrix: Vec<f64> = (0..n * n)
            .map(|idx| base[idx % n] * ((idx / n % 7) as f64 + 1.0) * 0.1 + rng.random::<f64>())
            .collect();
        let row = |i: usize| &matrix[i * n..(i + 1) * n];
        let mean = |i: usize| row(i).iter().sum::<f64>() / n as f64;
        let cov = |i: usize, j: usize| {
            let (mi, mj) = (mean(i), mean(j));
            row(i)
                .iter()
                .zip(row(j))
                .map(|(x, y)| (x - mi) * (y - mj))
                .sum::<f64>()
                / (n as f64 - 1.0)
        };
        let trace: f64 = (0..n).map(|i| cov(i, i)).sum();
        assert!((r.covariance_trace - trace).abs() < 1e-9 * trace);
    }

    #[test]
    fn covariance_trace_is_positive() {
        // Variances are nonnegative, so the trace must be positive.
        let r = run(1e-6, 2, 64);
        assert!(r.covariance_trace > 0.0);
    }

    #[test]
    fn two_iterations_cov_dominates() {
        let r = run(1e-6, 3, 64);
        let c1: f64 = r.workload.iterations[0]
            .map_tasks
            .iter()
            .map(|t| t.cycles)
            .sum();
        let c2: f64 = r.workload.iterations[1]
            .map_tasks
            .iter()
            .map(|t| t.cycles)
            .sum();
        assert!(c2 > 5.0 * c1, "covariance must dominate: {c2} vs {c1}");
    }

    #[test]
    fn merge_is_the_longest_of_the_set() {
        let r = run(1e-6, 4, 64);
        let m = r.workload.iterations[1].merge.expect("cov merge exists");
        assert!(m.total_items as usize == r.dim * (r.dim + 1) / 2);
    }

    #[test]
    fn heavy_lib_init() {
        let r = run(1e-6, 5, 64);
        assert!(r.workload.lib_init_cycles > 0.0);
        let c2: f64 = r.workload.iterations[1]
            .map_tasks
            .iter()
            .map(|t| t.cycles)
            .sum();
        let frac = r.workload.lib_init_cycles / (c2 / 64.0);
        assert!((0.3..0.7).contains(&frac), "lib-init fraction {frac}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(1e-6, 6, 64), run(1e-6, 6, 64));
    }
}
