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
    // covariance has structure.
    let base: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
    let matrix: Vec<f64> = (0..n * n)
        .map(|idx| {
            let (i, j) = (idx / n, idx % n);
            base[j] * ((i % 7) as f64 + 1.0) * 0.1 + rng.random::<f64>()
        })
        .collect();

    // --- Iteration 1: per-row means ---
    let mean_tasks_n = MEAN_TASKS.min(n);
    let mut means = vec![0.0f64; n];
    let mut iter1_tasks = Vec::with_capacity(mean_tasks_n);
    for t in 0..mean_tasks_n {
        let start = t * n / mean_tasks_n;
        let end = (t + 1) * n / mean_tasks_n;
        for i in start..end {
            means[i] = matrix[i * n..(i + 1) * n].iter().sum::<f64>() / n as f64;
        }
        let ops = ((end - start) * n) as f64;
        iter1_tasks.push(TaskWork::new(
            ops * CYCLES_PER_MAC,
            ops * INSTR_PER_MAC,
            end - start,
        ));
    }

    // --- Iteration 2: covariance (upper triangle) ---
    // Centre every row, then transpose in place (no second n×n buffer):
    // afterwards `centred[k * n + j]` is row j's centred value at k.
    let mut centred = matrix;
    for (row, &mean) in centred.chunks_exact_mut(n).zip(&means) {
        row.iter_mut().for_each(|x| *x -= mean);
    }
    for r in 0..n {
        for c in r + 1..n {
            centred.swap(r * n + c, c * n + r);
        }
    }
    let cov_tasks_n = COV_TASKS.min(n);
    let mut iter2_tasks = Vec::with_capacity(cov_tasks_n);
    let mut trace = 0.0f64;
    let mut diag_digest = Vec::with_capacity(n);
    let mut acc_row = vec![0.0f64; n];
    for t in 0..cov_tasks_n {
        let start = t * n / cov_tasks_n;
        let end = (t + 1) * n / cov_tasks_n;
        let mut macs = 0.0f64;
        let mut entries = 0usize;
        for i in start..end {
            // Row i of the upper triangle in i-k-j order: entries (i, i..n)
            // accumulate together while rows of the transposed matrix
            // stream past, instead of one latency-bound dot product per
            // entry. Each entry still sums the same k products
            // (x_ik · x_jk, centred exactly as before) from 0.0 in
            // ascending k, so every covariance is bit-identical.
            let acc = &mut acc_row[i..];
            acc.fill(0.0);
            for xt_row in centred.chunks_exact(n) {
                let x_ik = xt_row[i];
                for (a, &x_jk) in acc.iter_mut().zip(&xt_row[i..]) {
                    *a += x_ik * x_jk;
                }
            }
            let variance = acc[0] / (n as f64 - 1.0);
            trace += variance;
            diag_digest.push(variance);
            for _ in i..n {
                entries += 1;
                macs += n as f64;
            }
        }
        iter2_tasks.push(TaskWork::new(
            macs * CYCLES_PER_MAC,
            macs * INSTR_PER_MAC,
            entries,
        ));
    }

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
