//! Kmeans: iterative clustering of high-dimensional vectors.
//!
//! Input at scale 1 is the paper's Table-1 dataset: 512-dimensional vectors
//! (16 384 of them at full scale), drawn from 16 well-separated synthetic
//! blobs. The paper's dataset converges in **two MapReduce iterations**;
//! each iteration runs the full Fig. 1 stage list.
//!
//! Kmeans is the set's heterogeneity extreme (Fig. 2a): in the second
//! iteration the partitioning has mostly converged, so the scheduler
//! creates fewer, cheaper, unevenly-sized tasks (converged points pass a
//! cached-bound early-exit test instead of the full K×D distance scan) and
//! the Reduce phase occupies only K cores. About half the cores therefore
//! sit well below the average utilization, which is what lets VFI clock
//! half the chip at 1.5 GHz (Table 2) for big EDP wins.

use crate::apps::digest_f64s;
use crate::task::TaskWork;
use crate::workload::{AppWorkload, IterationWorkload, MergeSpec};
use mapwave_harness::rng::StdRng;
use mapwave_harness::rng::{RngExt, SeedableRng};
use mapwave_manycore::cache::MemoryProfile;

/// Vector dimensionality (Table 1).
pub const DIM: usize = 512;
/// Cluster count.
pub const K: usize = 16;
/// Points at scale 1.
pub const POINTS: usize = 16_384;
/// Map tasks in the first iteration.
pub const MAP_TASKS_ITER1: usize = 100;
/// Map tasks in the second iteration (converged partitions fuse chunks).
pub const MAP_TASKS_ITER2: usize = 40;

/// Cycles per multiply-accumulate in a distance computation.
const CYCLES_PER_MAC: f64 = 0.6;
/// Instructions per MAC.
const INSTR_PER_MAC: f64 = 2.2;
/// Early-exit check cost for a converged point, in MAC-equivalents
/// (one distance to the cached centroid instead of K).
const CONVERGED_FACTOR: f64 = 1.0 / K as f64;

/// Outcome of a real Kmeans run.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansRun {
    /// The recorded workload.
    pub workload: AppWorkload,
    /// Final centroids (flattened K × DIM).
    pub centroids: Vec<f64>,
    /// Points whose assignment changed in iteration 2.
    pub changed_in_iter2: usize,
    /// Points processed.
    pub points: usize,
}

/// The index of the centroid nearest to `point` (the first one on a tie).
///
/// Four centroids' squared distances accumulate side by side, which hides the
/// add latency of one long sum; each distance still sums in ascending
/// dimension order and the distances are compared in centroid order, so the
/// result is the one a centroid-by-centroid scan gives.
fn nearest(point: &[f64], centroids: &[Vec<f64>]) -> usize {
    const LANES: usize = 4;
    const _: () = assert!(K.is_multiple_of(LANES), "centroids come in groups of four");
    let n = point.len();
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (g, group) in centroids.chunks_exact(LANES).enumerate() {
        // Cut every centroid to the point's length so the indexing below
        // needs no bounds checks.
        let [c0, c1, c2, c3] = group else {
            unreachable!("chunks_exact yields groups of four")
        };
        let (c0, c1, c2, c3) = (&c0[..n], &c1[..n], &c2[..n], &c3[..n]);
        let mut d = [0.0f64; LANES];
        for (i, &p) in point.iter().enumerate() {
            d[0] += (p - c0[i]) * (p - c0[i]);
            d[1] += (p - c1[i]) * (p - c1[i]);
            d[2] += (p - c2[i]) * (p - c2[i]);
            d[3] += (p - c3[i]) * (p - c3[i]);
        }
        for (lane, &dist) in d.iter().enumerate() {
            if dist < best_d {
                best_d = dist;
                best = g * LANES + lane;
            }
        }
    }
    best
}

/// Draws the next point from `rng` into `point`: a blob picked uniformly,
/// then one uniform offset per dimension around that blob's centre.
fn draw_point(rng: &mut StdRng, truth: &[Vec<f64>], point: &mut [f64]) {
    let c = rng.random_range(0..K);
    for (p, &t) in point.iter_mut().zip(&truth[c]) {
        *p = t + (rng.random::<f64>() - 0.5) * 4.0;
    }
}

/// Runs Kmeans at `scale` of the Table-1 input.
///
/// # Panics
///
/// Panics if `scale` is not positive or `cores == 0`.
pub fn run(scale: f64, seed: u64, cores: usize) -> KmeansRun {
    assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
    assert!(cores > 0, "need at least one core");

    let n = ((POINTS as f64 * scale) as usize).max(MAP_TASKS_ITER1 * 4);
    let mut rng = StdRng::seed_from_u64(seed);

    // Ground-truth blob centres, spread apart; initial centroids perturbed.
    let truth: Vec<Vec<f64>> = (0..K)
        .map(|c| {
            (0..DIM)
                .map(|d| ((c * 37 + d * 13) % 100) as f64 + rng.random::<f64>())
                .collect()
        })
        .collect();
    // Both iterations read the points once, front to back, in draw order,
    // so none is stored: keep the generator as it stands before the points,
    // jump past them, and re-draw each point where an iteration reads it.
    // A point takes `DIM + 1` draws: `K` is a power of two, so its blob
    // pick never rejects a draw.
    const _: () = assert!(K.is_power_of_two(), "a blob pick takes one draw");
    let points_rng = rng.clone();
    rng.advance((n * (DIM + 1)) as u64);
    let mut point = vec![0.0f64; DIM];
    let mut centroids: Vec<Vec<f64>> = truth
        .iter()
        .map(|t| {
            t.iter()
                .map(|&v| v + (rng.random::<f64>() - 0.5) * 6.0)
                .collect()
        })
        .collect();

    // --- Iteration 1: full assignment ---
    let mut assignment = vec![0usize; n];
    let mut iter1_tasks = Vec::with_capacity(MAP_TASKS_ITER1);
    let mut sums = vec![vec![0.0f64; DIM]; K];
    let mut counts = [0usize; K];
    let mut points = points_rng.clone();
    for t in 0..MAP_TASKS_ITER1 {
        let start = t * n / MAP_TASKS_ITER1;
        let end = (t + 1) * n / MAP_TASKS_ITER1;
        for slot in &mut assignment[start..end] {
            draw_point(&mut points, &truth, &mut point);
            let c = nearest(&point, &centroids);
            *slot = c;
            counts[c] += 1;
            for (s, v) in sums[c].iter_mut().zip(&point) {
                *s += v;
            }
        }
        let macs = ((end - start) * K * DIM) as f64;
        iter1_tasks.push(TaskWork::new(
            macs * CYCLES_PER_MAC,
            macs * INSTR_PER_MAC,
            K,
        ));
    }
    for c in 0..K {
        if counts[c] > 0 {
            for s in &mut sums[c] {
                *s /= counts[c] as f64;
            }
            centroids[c] = sums[c].clone();
        }
    }

    // --- Iteration 2: converged points take the early exit ---
    let mut iter2_tasks = Vec::with_capacity(MAP_TASKS_ITER2);
    let mut changed_total = 0usize;
    let mut points = points_rng;
    for t in 0..MAP_TASKS_ITER2 {
        let start = t * n / MAP_TASKS_ITER2;
        let end = (t + 1) * n / MAP_TASKS_ITER2;
        let mut changed = 0usize;
        for slot in &mut assignment[start..end] {
            draw_point(&mut points, &truth, &mut point);
            let c = nearest(&point, &centroids);
            if c != *slot {
                changed += 1;
                *slot = c;
            }
        }
        changed_total += changed;
        let full = changed as f64 * (K * DIM) as f64;
        let cheap = (end - start - changed) as f64 * (K * DIM) as f64 * CONVERGED_FACTOR;
        let macs = full + cheap;
        iter2_tasks.push(TaskWork::new(
            macs * CYCLES_PER_MAC,
            macs * INSTR_PER_MAC,
            K,
        ));
    }

    let digest = digest_f64s(centroids.iter().flatten().copied());

    let reduce = |tasks: usize| {
        vec![
            TaskWork::new(
                (n / K) as f64 * DIM as f64 * 0.3,
                (n / K) as f64 * DIM as f64 * 0.2,
                1,
            );
            tasks
        ]
    };
    let memory = MemoryProfile::new(16.0, 0.35, 0.9);
    let reduce_memory = MemoryProfile::new(8.0, 0.05, 0.9);
    let merge = Some(MergeSpec {
        total_items: (K * DIM) as f64,
        cycles_per_item: 2.0,
        instructions_per_item: 1.5,
        flits_per_item: 2.0,
    });
    let map1_total: f64 = iter1_tasks.iter().map(|t| t.cycles).sum();

    let workload = AppWorkload {
        name: "KMEANS",
        lib_init_cycles: map1_total / cores as f64 * 0.08,
        lib_init_instructions: map1_total / cores as f64 * 0.05,
        iterations: vec![
            IterationWorkload {
                map_tasks: iter1_tasks,
                reduce_tasks: reduce(K),
                merge,
                map_memory: memory,
                reduce_memory,
                kv_flits_per_key: 24.0, // a K-partial is a combined DIM-vector fragment
                neighbor_bias: 0.1,
            },
            IterationWorkload {
                map_tasks: iter2_tasks,
                reduce_tasks: reduce(K),
                merge,
                map_memory: memory,
                reduce_memory,
                kv_flits_per_key: 24.0,
                neighbor_bias: 0.1,
            },
        ],
        digest,
    };

    KmeansRun {
        workload,
        centroids: centroids.into_iter().flatten().collect(),
        changed_in_iter2: changed_total,
        points: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_blob_centres() {
        let r = run(0.05, 1, 64);
        // Few points change assignment in iteration 2: blobs are separated.
        assert!(
            (r.changed_in_iter2 as f64) < 0.05 * r.points as f64,
            "too many changes: {}/{}",
            r.changed_in_iter2,
            r.points
        );
        assert_eq!(r.centroids.len(), K * DIM);
    }

    #[test]
    fn two_iterations_with_fewer_second_stage_tasks() {
        let r = run(0.02, 2, 64);
        assert_eq!(r.workload.iterations.len(), 2);
        assert_eq!(r.workload.iterations[0].map_tasks.len(), MAP_TASKS_ITER1);
        assert_eq!(r.workload.iterations[1].map_tasks.len(), MAP_TASKS_ITER2);
    }

    #[test]
    fn second_iteration_is_much_cheaper() {
        let r = run(0.02, 3, 64);
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
        assert!(
            c2 < 0.4 * c1,
            "converged iteration should be cheap: {c2} vs {c1}"
        );
    }

    #[test]
    fn reduce_uses_only_k_tasks() {
        let r = run(0.02, 4, 64);
        assert_eq!(r.workload.iterations[0].reduce_tasks.len(), K);
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(0.02, 5, 64), run(0.02, 5, 64));
    }
}
