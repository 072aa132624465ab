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

/// Rows of A (and C) multiplied per pass over B.
pub const ROW_BLOCK: usize = 32;
/// Rows of B added into an output row per step of the multiply.
pub const K_UNROLL: usize = 4;

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

/// Adds `a[r] · b_rows[r]` into `c` for each r in ascending order, one
/// mul-then-add per product. Given a full step of [`K_UNROLL`] = 4 rows,
/// each element of `c` stays in a register across all four; the sum is
/// the same either way.
fn add_rows(c: &mut [f64], a: &[f64], b_rows: &[f64]) {
    let dim = c.len();
    if let &[a0, a1, a2, a3] = a {
        let (b0, rest) = b_rows.split_at(dim);
        let (b1, rest) = rest.split_at(dim);
        let (b2, b3) = rest.split_at(dim);
        for ((((c, &x0), &x1), &x2), &x3) in c.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            *c = *c + a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3;
        }
    } else {
        for (&a, b_row) in a.iter().zip(b_rows.chunks_exact(dim)) {
            for (c, &x) in c.iter_mut().zip(b_row) {
                *c += a * x;
            }
        }
    }
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

    // A then B are drawn row by row, and neither is stored. A is read once,
    // in draw order, so each block of its rows is drawn where the multiply
    // reads it. B is read in full for every block, so it is re-drawn, row
    // by row, from a clone of the generator taken at its start.
    let mut a_rng = rng.clone();
    rng.advance((dim * dim) as u64);
    let b_rng = rng;

    // One block's scratch: its rows of A and C, and the rows of B one
    // unrolled step adds in.
    let block = ROW_BLOCK.min(dim);
    let mut scratch = vec![0.0f64; (2 * block + K_UNROLL) * dim];
    let (a_block, rest) = scratch.split_at_mut(block * dim);
    let (c_block, b_rows) = rest.split_at_mut(block * dim);
    let mut frob = 0.0f64;
    let mut row_digests = Vec::with_capacity(dim);

    for row_start in (0..dim).step_by(block) {
        let rows = block.min(dim - row_start);
        let a_block = &mut a_block[..rows * dim];
        let c_block = &mut c_block[..rows * dim];
        a_block.fill_with(|| a_rng.random::<f64>() - 0.5);
        c_block.fill(0.0);
        // The real multiply for this block, in i-k-j order: each output row
        // accumulates while rows of B stream past. Every element still sums
        // the same k products from 0.0 in ascending k (mul then add, never
        // fused), so C is bit-identical to the i-j-k dot-product loop, and
        // so are the witnesses folded in j order below.
        let mut b_rng = b_rng.clone();
        for k in (0..dim).step_by(K_UNROLL) {
            let depth = K_UNROLL.min(dim - k);
            let b_rows = &mut b_rows[..depth * dim];
            b_rows.fill_with(|| b_rng.random::<f64>() - 0.5);
            for (a_row, c_row) in a_block.chunks_exact(dim).zip(c_block.chunks_exact_mut(dim)) {
                add_rows(c_row, &a_row[k..k + depth], b_rows);
            }
        }
        for c_row in c_block.chunks_exact(dim) {
            let mut row_sum = 0.0;
            for &acc in c_row {
                frob += acc * acc;
                row_sum += acc;
            }
            row_digests.push(row_sum);
        }
    }

    // Balanced row ranges: every Map task gets ⌊dim/tasks⌋ or ⌈dim/tasks⌉
    // rows, dim MACs per element.
    let tasks = MAP_TASKS.min(dim);
    let map_tasks: Vec<TaskWork> = (0..tasks)
        .map(|t| {
            let rows = (t + 1) * dim / tasks - t * dim / tasks;
            let macs = (rows * dim * dim) as f64;
            TaskWork::new(macs * CYCLES_PER_MAC, macs * INSTR_PER_MAC, rows)
        })
        .collect();

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
