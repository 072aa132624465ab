//! Histogram (HIST): per-channel colour frequency of a bitmap image.
//!
//! Input at scale 1 is the paper's "Medium (399 MB)" bitmap — ~133 M pixels
//! of 3 bytes. Each Map task scans a horizontal stripe and counts every
//! R/G/B byte into its channel's 256 bins; the key space is tiny (768 bins),
//! so Reduce and Merge are short, while the long streaming Map and the
//! input-proportional library initialisation give Histogram its
//! homogeneous-with-master-bottleneck utilization profile (Fig. 2d).
//!
//! Every pixel is counted in one call before the stripes are cut: the
//! stripes only size the Map tasks, and the bins are sums, so summing
//! per-stripe histograms would give the same counts. On a CPU with
//! AVX-512F/DQ eight generator lanes, each jumped to its own segment of the
//! one draw stream, count side by side and land every pixel in the bins the
//! sequential loop would (`count_pixels`). The `u64` counters cannot
//! overflow: no bin counts more than `pixels`.

use crate::apps::digest_u64s;
use crate::task::TaskWork;
use crate::workload::{AppWorkload, IterationWorkload, MergeSpec};
use mapwave_harness::rng::{Jump, RngExt, SeedableRng, StdRng};
use mapwave_harness::telemetry;
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
    let mut counts = [[0u64; 256]; 3];
    let wide = count_pixels(&mut rng, pixels, &mut counts);
    telemetry::count("phoenix.hist.wide_pixels", wide as u64);

    // The stripes only size the Map tasks: the bins are sums, so how the
    // pixels split into stripes cannot change them.
    let per_task = pixels / MAP_TASKS;
    let remainder = pixels - per_task * MAP_TASKS;
    let map_tasks: Vec<TaskWork> = (0..MAP_TASKS)
        .map(|stripe| {
            // Spread the division remainder one pixel per leading stripe.
            let stripe_pixels = (per_task + usize::from(stripe < remainder)) as f64;
            TaskWork::new(
                stripe_pixels * CYCLES_PER_PIXEL,
                stripe_pixels * INSTR_PER_PIXEL,
                BINS,
            )
        })
        .collect();
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

/// Per-channel bins. One 256-bin array per channel: a `u8` bin index
/// needs no bounds check.
type Counts = [[u64; 256]; 3];

/// Generator lanes of the wide kernel: one 512-bit vector of `u64` words.
const LANES: usize = 8;

/// Counts `pixels` pixels drawn from `rng` into `counts` and leaves `rng`
/// after the last draw, exactly as [`count_scalar`] does. Returns how many
/// pixels the wide kernel counted.
///
/// On a CPU with AVX-512F and AVX-512DQ the pixels split into `LANES`
/// contiguous segments of `⌊pixels / LANES⌋`. Lane `k` starts `3·k` segments
/// of draws in, reached by applying one precomputed [`Jump`] lane after
/// lane, and all lanes draw side by side in [`count_wide`]. The scalar loop
/// then counts the `pixels mod LANES` tail from the last lane's end state,
/// which is where the sequential stream stands after the segments.
fn count_pixels(rng: &mut StdRng, pixels: usize, counts: &mut Counts) -> usize {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
        let per_lane = pixels / LANES;
        let jump = Jump::new(3 * per_lane as u64);
        let mut states = [rng.state(); LANES];
        for k in 1..LANES {
            let mut lane = StdRng::from_state(states[k - 1]);
            lane.jump(&jump);
            states[k] = lane.state();
        }
        // On the heap: 48 KiB of stack would stay resident after the call.
        let mut lane_counts = vec![[[0; 256]; 3]; LANES];
        // SAFETY: the CPU has both features `count_wide` enables.
        unsafe { count_wide(&mut states, per_lane, &mut lane_counts) };
        for lane in &lane_counts {
            for (total, channel) in counts.iter_mut().zip(lane) {
                for (t, c) in total.iter_mut().zip(channel) {
                    *t += c;
                }
            }
        }
        *rng = StdRng::from_state(states[LANES - 1]);
        count_scalar(rng, pixels % LANES, counts);
        return per_lane * LANES;
    }
    count_scalar(rng, pixels, counts);
    0
}

/// Counts `pixels` pixels drawn one after another from `rng`.
fn count_scalar(rng: &mut StdRng, pixels: usize, counts: &mut Counts) {
    let [red, green, blue] = counts;
    for _ in 0..pixels {
        // A synthetic pixel: channel bytes with different distributions so
        // the histogram has structure. Every draw lies in [0, 1), so each
        // scaled value lies in [0, 255) and fits a `u8`.
        let r = rng.random::<f64>();
        let g = rng.random::<f64>();
        let b = rng.random::<f64>();
        red[(r * r * 255.0) as u8 as usize] += 1;
        green[(g * 255.0) as u8 as usize] += 1;
        blue[255 - (b * b * 255.0) as u8 as usize] += 1;
    }
}

/// Counts `per_lane` pixels in each of the `LANES` generators whose states
/// are `states`, lane `k` into `lane_counts[k]`, and leaves each state
/// after its lane's last draw.
///
/// Each lane steps xoshiro256++ exactly as [`StdRng`] does (`vprolq` for
/// the rotates) and turns a draw into the same `f64`: `x >> 11` converts
/// exactly (`vcvtuqq2pd`, every value is below 2^53), and the multiplies
/// and the truncation toward zero are the IEEE operations of
/// [`count_scalar`], so every pixel lands in the same bins. A gather, an
/// add and a scatter count one channel of eight pixels; the lanes' bins
/// are disjoint, so no two lanes of one scatter write the same counter.
/// Each counter is a `u64`, which no pixel count can overflow.
///
/// # Safety
///
/// Call it only on a CPU with AVX-512F and AVX-512DQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn count_wide(states: &mut [[u64; 4]; LANES], per_lane: usize, lane_counts: &mut [Counts]) {
    use std::arch::x86_64::*;

    assert_eq!(lane_counts.len(), LANES, "one set of bins per lane");

    let mut words = [[0u64; LANES]; 4];
    for (k, state) in states.iter().enumerate() {
        for (w, &s) in state.iter().enumerate() {
            words[w][k] = s;
        }
    }
    // SAFETY: each `[u64; LANES]` is 64 readable bytes.
    let [mut s0, mut s1, mut s2, mut s3] =
        words.map(|w| unsafe { _mm512_loadu_epi64(w.as_ptr().cast()) });
    let mut draw = || {
        let result = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(s0, s3)), s0);
        let t = _mm512_slli_epi64::<17>(s1);
        s2 = _mm512_xor_si512(s2, s0);
        s3 = _mm512_xor_si512(s3, s1);
        s1 = _mm512_xor_si512(s1, s2);
        s0 = _mm512_xor_si512(s0, s3);
        s2 = _mm512_xor_si512(s2, t);
        s3 = _mm512_rol_epi64::<45>(s3);
        let unit = _mm512_set1_pd(1.0 / (1u64 << 53) as f64);
        _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(result)), unit)
    };
    // `as u8` truncates toward zero and saturates at 255; every draw lies
    // in [0, 1), so the clamp never fires, but it bounds every index.
    let bin = |x: __m512d| {
        let truncated = _mm512_cvttpd_epi64(_mm512_mul_pd(x, _mm512_set1_pd(255.0)));
        _mm512_min_epi64(truncated, _mm512_set1_epi64(255))
    };
    // Counter `lane·768 + channel·256 + bin` of the flattened `lane_counts`.
    let lane_base = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    let red_base = _mm512_mullo_epi64(lane_base, _mm512_set1_epi64(BINS as i64));
    let green_base = _mm512_add_epi64(red_base, _mm512_set1_epi64(256));
    let blue_top = _mm512_add_epi64(red_base, _mm512_set1_epi64(512 + 255));
    let one = _mm512_set1_epi64(1);
    let flat: *mut u64 = lane_counts.as_mut_ptr().cast();
    for _ in 0..per_lane {
        let (r, g, b) = (draw(), draw(), draw());
        let red = _mm512_add_epi64(red_base, bin(_mm512_mul_pd(r, r)));
        let green = _mm512_add_epi64(green_base, bin(g));
        let blue = _mm512_sub_epi64(blue_top, bin(_mm512_mul_pd(b, b)));
        for idx in [red, green, blue] {
            // SAFETY: every bin lies in 0..=255 (clamped above), so every
            // index is below `LANES · BINS`, the length of `flat`; the
            // eight indices of one vector are distinct.
            unsafe {
                let v = _mm512_i64gather_epi64::<8>(idx, flat.cast_const().cast());
                _mm512_i64scatter_epi64::<8>(flat.cast(), idx, _mm512_add_epi64(v, one));
            }
        }
    }
    for (w, v) in words.iter_mut().zip([s0, s1, s2, s3]) {
        // SAFETY: each `[u64; LANES]` is 64 writable bytes.
        unsafe { _mm512_storeu_epi64(w.as_mut_ptr().cast(), v) };
    }
    for (k, state) in states.iter_mut().enumerate() {
        for (w, s) in state.iter_mut().enumerate() {
            *s = words[w][k];
        }
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
    fn wide_and_scalar_paths_agree() {
        // The floor, a tail of 7, and the pixel counts of scales 0.01, 0.1.
        let at = |scale: f64| (INPUT_BYTES * scale / 3.0) as usize;
        let mut wide_total = 0;
        for pixels in [MAP_TASKS * 16, MAP_TASKS * 16 + 7, at(0.01), at(0.1)] {
            for seed in [1, 0xDAC_2015] {
                let (mut scalar_rng, mut scalar) = (StdRng::seed_from_u64(seed), [[0; 256]; 3]);
                count_scalar(&mut scalar_rng, pixels, &mut scalar);
                let (mut rng, mut counts) = (StdRng::seed_from_u64(seed), [[0; 256]; 3]);
                wide_total += count_pixels(&mut rng, pixels, &mut counts);
                assert_eq!(counts, scalar, "bins of {pixels} pixels, seed {seed}");
                assert_eq!(rng, scalar_rng, "end state after {pixels} pixels");
            }
        }
        if wide_total == 0 {
            eprintln!("no AVX-512F/DQ on this CPU: checked the scalar path only");
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(0.0005, 7, 64), run(0.0005, 7, 64));
    }
}
