//! Matrix Multiplication (MM): `C = A × B` over row-block Map tasks.
//!
//! Input at scale 1 is the paper's 999×999 matrix pair (the dimension
//! scales as the cube root of `scale` so total work stays proportional).
//! Each Map task computes a block of output rows — a real floating-point
//! multiply over synthetic matrices. The compute-bound Map over identical
//! blocks gives MM its homogeneous utilization; the matrix set-up in
//! library initialisation plus a Merge phase (assembling the output tiles)
//! create the master-core bottleneck of Fig. 2c.

use crate::apps::digest_f64s;
use crate::task::TaskWork;
use crate::workload::{AppWorkload, IterationWorkload, MergeSpec};
use mapwave_harness::rng::StdRng;
use mapwave_harness::rng::{RngExt, SeedableRng};
use mapwave_manycore::cache::MemoryProfile;

/// Matrix dimension at scale 1 (Table 1).
pub const DIM: usize = 999;
/// Map tasks (row blocks).
pub const MAP_TASKS: usize = 192;
/// Reduce tasks (output tile bookkeeping).
pub const REDUCE_TASKS: usize = 64;

/// Cycles per multiply-accumulate.
const CYCLES_PER_MAC: f64 = 1.0;
/// Instructions per multiply-accumulate (load/load/fma/loop).
const INSTR_PER_MAC: f64 = 1.6;

/// Outcome of a real Matrix Multiplication run.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixMultRun {
    /// The recorded workload.
    pub workload: AppWorkload,
    /// Dimension actually used (scaled).
    pub dim: usize,
    /// Frobenius norm of the product (correctness witness).
    pub frobenius: f64,
}

/// Dimension used at a given scale (cube-root scaling keeps work linear).
pub fn scaled_dim(scale: f64) -> usize {
    ((DIM as f64) * scale.cbrt()).round().max(24.0) as usize
}

/// Runs Matrix Multiplication at `scale` of the Table-1 input.
///
/// # Panics
///
/// Panics if `scale` is not positive or `cores == 0`.
pub fn run(scale: f64, seed: u64, cores: usize) -> MatrixMultRun {
    assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
    assert!(cores > 0, "need at least one core");

    let dim = scaled_dim(scale);
    let mut rng = StdRng::seed_from_u64(seed);

    // A is read once, row by row, in draw order, so it is not stored: keep
    // the generator as it stands before A, skip past A to draw B (which the
    // multiply reads in full for every row of A), and re-draw each row of A
    // where the multiply reads it.
    let mut a_rng = rng.clone();
    for _ in 0..dim * dim {
        rng.random::<f64>();
    }
    let b: Vec<f64> = (0..dim * dim).map(|_| rng.random::<f64>() - 0.5).collect();

    let tasks = MAP_TASKS.min(dim);
    let mut map_tasks = Vec::with_capacity(tasks);
    let mut frob = 0.0f64;
    let mut row_digests = Vec::with_capacity(dim);
    let mut a_row = vec![0.0f64; dim];
    let mut c_row = vec![0.0f64; dim];

    for t in 0..tasks {
        // Balanced row ranges: every block gets ⌊dim/tasks⌋ or ⌈dim/tasks⌉.
        let row_start = t * dim / tasks;
        let row_end = (t + 1) * dim / tasks;
        let rows = row_end - row_start;
        // The real multiply for this block, in i-k-j order: the whole
        // output row accumulates while rows of B stream past, instead of
        // one dot product walking a column of B per element. Every
        // element still sums the same k products from 0.0 in ascending k
        // (mul then add, never fused), so C is bit-identical to the
        // i-j-k dot-product loop, and so are the witnesses folded in j
        // order below.
        for _ in row_start..row_end {
            a_row.fill_with(|| a_rng.random::<f64>() - 0.5);
            c_row.fill(0.0);
            for (&aik, b_row) in a_row.iter().zip(b.chunks_exact(dim)) {
                for (c, &bkj) in c_row.iter_mut().zip(b_row) {
                    *c += aik * bkj;
                }
            }
            let mut row_sum = 0.0;
            for &acc in &c_row {
                frob += acc * acc;
                row_sum += acc;
            }
            row_digests.push(row_sum);
        }
        let macs = (rows * dim * dim) as f64;
        map_tasks.push(TaskWork::new(
            macs * CYCLES_PER_MAC,
            macs * INSTR_PER_MAC,
            rows,
        ));
    }

    let frobenius = frob.sqrt();
    let digest = digest_f64s(row_digests.into_iter().chain([frobenius]));

    let map_total: f64 = map_tasks.iter().map(|t| t.cycles).sum();
    // Output-assembly reduce: touch each C tile once.
    let tile_items = (dim * dim) as f64 / REDUCE_TASKS as f64;
    let reduce_tasks =
        vec![
            TaskWork::new(tile_items * 1.5, tile_items * 1.2, dim / REDUCE_TASKS + 1);
            REDUCE_TASKS
        ];

    let workload = AppWorkload {
        name: "MM",
        // Matrix allocation, transposition of B for locality, task layout:
        // proportional to one core's share of the multiply.
        lib_init_cycles: map_total / cores as f64 * 0.45,
        lib_init_instructions: map_total / cores as f64 * 0.30,
        iterations: vec![IterationWorkload {
            map_tasks,
            reduce_tasks,
            merge: Some(MergeSpec {
                total_items: dim as f64,
                cycles_per_item: 60.0,
                instructions_per_item: 42.0,
                flits_per_item: 8.0,
            }),
            map_memory: MemoryProfile::new(7.0, 0.10, 0.9),
            reduce_memory: MemoryProfile::new(8.0, 0.08, 0.9),
            kv_flits_per_key: 16.0,
            neighbor_bias: 0.2,
        }],
        digest,
    };

    MatrixMultRun {
        workload,
        dim,
        frobenius,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: naive multiply of tiny matrices must match the digest
    /// path's Frobenius norm.
    #[test]
    fn matches_naive_reference() {
        let r = run(1e-6, 42, 4); // dim clamps to 24
        assert_eq!(r.dim, 24);
        let mut rng = StdRng::seed_from_u64(42);
        let a: Vec<f64> = (0..24 * 24).map(|_| rng.random::<f64>() - 0.5).collect();
        let b: Vec<f64> = (0..24 * 24).map(|_| rng.random::<f64>() - 0.5).collect();
        let mut frob = 0.0;
        for i in 0..24 {
            for j in 0..24 {
                let mut acc = 0.0;
                for k in 0..24 {
                    acc += a[i * 24 + k] * b[k * 24 + j];
                }
                frob += acc * acc;
            }
        }
        assert!((r.frobenius - frob.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn dim_scaling_is_cubic_root() {
        assert_eq!(scaled_dim(1.0), DIM);
        let half_work = scaled_dim(0.5);
        assert!((half_work as f64 - 999.0 * 0.5f64.cbrt()).abs() < 1.0);
    }

    #[test]
    fn blocks_are_homogeneous() {
        let r = run(0.0002, 1, 64);
        let costs: Vec<f64> = r.workload.iterations[0]
            .map_tasks
            .iter()
            .map(|t| t.cycles)
            .collect();
        let max = costs.iter().cloned().fold(0.0, f64::max);
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min < 2.01, "row blocks nearly even: {min}..{max}");
    }

    #[test]
    fn has_merge_and_notable_lib_init() {
        let r = run(0.0002, 2, 64);
        assert!(r.workload.iterations[0].merge.is_some());
        assert!(r.workload.lib_init_cycles > 0.0);
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(0.0002, 3, 64), run(0.0002, 3, 64));
    }
}
