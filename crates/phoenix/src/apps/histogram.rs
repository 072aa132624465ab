//! Histogram (HIST): per-channel colour frequency of a bitmap image.
//!
//! Input at scale 1 is the paper's "Medium (399 MB)" bitmap — ~133 M pixels
//! of 3 bytes. Each Map task scans a horizontal stripe and counts every
//! R/G/B byte into its channel's 256 bins; the key space is tiny (768 bins),
//! so Reduce and Merge are short, while the long streaming Map and the
//! input-proportional library initialisation give Histogram its
//! homogeneous-with-master-bottleneck utilization profile (Fig. 2d).
//!
//! The stripes count straight into the final bins: integer addition is
//! associative, so summing per-stripe histograms would give the same counts.
//! The `u64` counters cannot overflow: no bin counts more than `pixels`.

use crate::apps::digest_u64s;
use crate::task::TaskWork;
use crate::workload::{AppWorkload, IterationWorkload, MergeSpec};
use mapwave_harness::rng::StdRng;
use mapwave_harness::rng::{RngExt, SeedableRng};
use mapwave_manycore::cache::MemoryProfile;

/// Histogram bins: 256 per colour channel.
pub const BINS: usize = 768;
/// Input bytes at scale 1 (Table 1: Medium, 399 MB).
pub const INPUT_BYTES: f64 = 399e6;
/// Map tasks (image stripes).
pub const MAP_TASKS: usize = 384;
/// Reduce tasks.
pub const REDUCE_TASKS: usize = 64;

/// Cycles per pixel (3 byte loads + 3 increments).
const CYCLES_PER_PIXEL: f64 = 6.0;
/// Instructions per pixel.
const INSTR_PER_PIXEL: f64 = 9.0;
/// Library-init cycles per input byte (buffer allocation + mmap walk).
const LIB_INIT_CYCLES_PER_BYTE: f64 = 0.026;

/// Outcome of a real Histogram run.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramRun {
    /// The recorded workload.
    pub workload: AppWorkload,
    /// The 768 final bin counts.
    pub bins: Vec<u64>,
    /// Pixels processed.
    pub pixels: u64,
}

/// Runs Histogram at `scale` of the Table-1 input.
///
/// # Panics
///
/// Panics if `scale` is not positive or `cores == 0`.
pub fn run(scale: f64, seed: u64, cores: usize) -> HistogramRun {
    assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
    assert!(cores > 0, "need at least one core");

    let pixels = ((INPUT_BYTES * scale / 3.0) as usize).max(MAP_TASKS * 16);
    let mut rng = StdRng::seed_from_u64(seed);

    // One 256-bin array per channel: a `u8` bin index needs no bounds check.
    let mut counts = [[0u64; 256]; 3];
    let mut map_tasks = Vec::with_capacity(MAP_TASKS);
    let per_task = pixels / MAP_TASKS;

    let remainder = pixels - per_task * MAP_TASKS;
    for stripe in 0..MAP_TASKS {
        // Spread the division remainder one pixel per leading stripe.
        let stripe_pixels = per_task + usize::from(stripe < remainder);
        let [red, green, blue] = &mut counts;
        for _ in 0..stripe_pixels {
            // A synthetic pixel: channel bytes with different distributions
            // so the histogram has structure. Every draw lies in [0, 1), so
            // each scaled value lies in [0, 255) and fits a `u8`.
            let r = rng.random::<f64>();
            let g = rng.random::<f64>();
            let b = rng.random::<f64>();
            red[(r * r * 255.0) as u8 as usize] += 1;
            green[(g * 255.0) as u8 as usize] += 1;
            blue[255 - (b * b * 255.0) as u8 as usize] += 1;
        }
        map_tasks.push(TaskWork::new(
            stripe_pixels as f64 * CYCLES_PER_PIXEL,
            stripe_pixels as f64 * INSTR_PER_PIXEL,
            BINS,
        ));
    }
    let bins: Vec<u64> = counts.into_iter().flatten().collect();

    // Reduce: combining `MAP_TASKS` sub-histograms of 768 bins, bucketised.
    let items = (BINS * MAP_TASKS) as f64 / REDUCE_TASKS as f64;
    let reduce_tasks =
        vec![TaskWork::new(items * 6.0, items * 4.0, BINS / REDUCE_TASKS); REDUCE_TASKS];

    let digest = digest_u64s(bins.iter().copied());

    let workload = AppWorkload {
        name: "HIST",
        lib_init_cycles: INPUT_BYTES * scale * LIB_INIT_CYCLES_PER_BYTE,
        lib_init_instructions: INPUT_BYTES * scale * LIB_INIT_CYCLES_PER_BYTE * 0.6,
        iterations: vec![IterationWorkload {
            map_tasks,
            reduce_tasks,
            merge: Some(MergeSpec {
                total_items: BINS as f64,
                cycles_per_item: 6.0,
                instructions_per_item: 4.0,
                flits_per_item: 2.0,
            }),
            map_memory: MemoryProfile::new(20.0, 0.15, 0.9),
            reduce_memory: MemoryProfile::new(6.0, 0.05, 0.9),
            kv_flits_per_key: 1.0,
            neighbor_bias: 0.15,
        }],
        digest,
    };

    HistogramRun {
        workload,
        bins,
        pixels: pixels as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_conserve_pixels() {
        let r = run(0.0005, 1, 64);
        let total: u64 = r.bins.iter().sum();
        assert_eq!(total, r.pixels * 3, "every channel byte lands in a bin");
        assert_eq!(r.bins.len(), BINS);
    }

    #[test]
    fn channel_distributions_differ() {
        let r = run(0.001, 2, 64);
        // Red is skewed low, blue skewed high by construction.
        let red_low: u64 = r.bins[..64].iter().sum();
        let red_high: u64 = r.bins[192..256].iter().sum();
        assert!(red_low > red_high);
        let blue_low: u64 = r.bins[512..576].iter().sum();
        let blue_high: u64 = r.bins[704..768].iter().sum();
        assert!(blue_high > blue_low);
    }

    #[test]
    fn map_tasks_are_nearly_uniform() {
        let r = run(0.0005, 3, 64);
        let costs: Vec<f64> = r.workload.iterations[0]
            .map_tasks
            .iter()
            .map(|t| t.cycles)
            .collect();
        let max = costs.iter().cloned().fold(0.0, f64::max);
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min < 1.05, "stripes should be even: {min}..{max}");
    }

    #[test]
    fn lib_init_is_notable() {
        let r = run(0.001, 4, 64);
        let map_total: f64 = r.workload.iterations[0]
            .map_tasks
            .iter()
            .map(|t| t.cycles)
            .sum();
        let frac = r.workload.lib_init_cycles / (map_total / 64.0);
        assert!(
            frac > 0.5 && frac < 2.0,
            "lib init should rival one core's map share, got {frac}"
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(0.0005, 7, 64), run(0.0005, 7, 64));
    }
}
