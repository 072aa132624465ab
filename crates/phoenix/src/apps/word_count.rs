//! Word Count (WC): count the occurrences of every unique word in a text.
//!
//! Input at scale 1 is the paper's "Large (100 MB)" corpus, generated as a
//! Zipf-distributed stream over a 20 000-word vocabulary — the natural-text
//! statistics that make Word Count's key space large and its chunk costs
//! uneven. Following the paper's Section 4.3 case study, the Map phase is
//! split into exactly 100 tasks whose sizes vary around the mean, which is
//! what produces the overlapping per-core task-duration ranges (and the
//! motivation for the VFI-aware steal cap).

use crate::apps::digest_u64s;
use crate::task::TaskWork;
use crate::workload::{AppWorkload, IterationWorkload, MergeSpec};
use mapwave_harness::rng::StdRng;
use mapwave_harness::rng::{RngExt, SeedableRng};
use mapwave_manycore::cache::MemoryProfile;

/// Vocabulary size of the generated corpus.
pub const VOCABULARY: usize = 12_000;
/// Zipf exponent of word frequencies.
pub const ZIPF_S: f64 = 1.05;
/// Mean bytes per word (word + separator).
pub const BYTES_PER_WORD: f64 = 7.0;
/// Corpus bytes at scale 1 (Table 1: Large, 100 MB).
pub const INPUT_BYTES: f64 = 100e6;
/// Map tasks created by the Phoenix scheduler for this input (Section 4.3).
pub const MAP_TASKS: usize = 100;
/// Reduce tasks (hash buckets).
pub const REDUCE_TASKS: usize = 256;

/// Modelled compute cycles per processed word (tokenise + hash + combine).
const CYCLES_PER_WORD: f64 = 26.0;
/// Committed instructions per processed word.
const INSTR_PER_WORD: f64 = 20.0;
/// Cycles per key in the Reduce combine step.
const REDUCE_CYCLES_PER_KEY: f64 = 20.0;
/// Cycles per key in each Merge level.
const MERGE_CYCLES_PER_KEY: f64 = 12.0;

/// Outcome of a real Word Count run.
#[derive(Debug, Clone, PartialEq)]
pub struct WordCountRun {
    /// The recorded workload.
    pub workload: AppWorkload,
    /// Total words processed.
    pub total_words: u64,
    /// Distinct words observed.
    pub distinct_words: usize,
    /// The most frequent word id and its count.
    pub top_word: (u32, u64),
}

/// The unnormalised Zipf CDF over the vocabulary.
fn zipf_cdf() -> Vec<f64> {
    let mut acc = 0.0;
    (1..=VOCABULARY)
        .map(|k| {
            acc += 1.0 / (k as f64).powf(ZIPF_S);
            acc
        })
        .collect()
}

/// Buckets of the [`ZipfGuide`] table. 2^16 buckets leave a few CDF entries
/// per bucket in the Zipf tail; of 2^12, 2^14 and 2^16 buckets, 2^16
/// generated the full-size corpus fastest.
const GUIDE_BUCKETS: usize = 1 << 16;

/// A guide table over a Zipf CDF: [`ZipfGuide::lookup`] finds a draw's word
/// by searching only the few CDF entries that share its bucket instead of
/// binary-searching the whole CDF.
#[derive(Debug)]
struct ZipfGuide<'a> {
    cdf: &'a [f64],
    /// Multiplier mapping a draw in `[0, cdf.last()]` to its bucket.
    inv_width: f64,
    /// `starts[b]` is the number of CDF entries whose bucket is below `b`;
    /// `starts[GUIDE_BUCKETS] == cdf.len()`.
    starts: Vec<u32>,
}

impl<'a> ZipfGuide<'a> {
    /// Builds the guide over a nonempty, ascending, positive CDF.
    fn new(cdf: &'a [f64]) -> Self {
        let total = *cdf.last().expect("CDF is nonempty");
        let mut guide = ZipfGuide {
            cdf,
            inv_width: GUIDE_BUCKETS as f64 / total,
            starts: Vec::with_capacity(GUIDE_BUCKETS + 1),
        };
        let mut below = 0;
        for b in 0..=GUIDE_BUCKETS {
            while below < cdf.len() && guide.bucket(cdf[below]) < b {
                below += 1;
            }
            guide.starts.push(below as u32);
        }
        guide
    }

    /// The bucket of `x`. It is monotone in `x`, so every CDF entry in a
    /// lower bucket than `x`'s is `< x`, and every entry in a higher bucket
    /// is `> x`.
    fn bucket(&self, x: f64) -> usize {
        ((x * self.inv_width) as usize).min(GUIDE_BUCKETS - 1)
    }

    /// `cdf.partition_point(|&c| c <= x)`, searching only `x`'s bucket.
    fn lookup(&self, x: f64) -> usize {
        let b = self.bucket(x);
        let (lo, hi) = (self.starts[b] as usize, self.starts[b + 1] as usize);
        lo + self.cdf[lo..hi].partition_point(|&c| c <= x)
    }
}

/// Runs Word Count at `scale` of the Table-1 input.
///
/// # Panics
///
/// Panics if `scale` is not positive or `cores == 0`.
pub fn run(scale: f64, seed: u64, cores: usize) -> WordCountRun {
    assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
    assert!(cores > 0, "need at least one core");

    let total_words = ((INPUT_BYTES * scale / BYTES_PER_WORD) as usize).max(MAP_TASKS * 20);

    let cdf = zipf_cdf();
    let mut rng = StdRng::seed_from_u64(seed);

    // Uneven chunking: each of the 100 tasks covers a slice whose size
    // varies ±40% (file splits land on document boundaries, not bytes, and
    // documents differ wildly) — the source of Word Count's heterogeneous
    // utilization profile.
    let weights: Vec<f64> = (0..MAP_TASKS)
        .map(|_| 0.6 + 0.8 * rng.random::<f64>())
        .collect();
    let weight_sum: f64 = weights.iter().sum();

    // Dense per-word counters: one for the chunk being mapped, one for the
    // whole corpus. A word's first count in a chunk is one more key that
    // chunk's combiner emits.
    let guide = ZipfGuide::new(&cdf);
    let total = cdf[VOCABULARY - 1];
    let mut local = vec![0u64; VOCABULARY];
    let mut global = vec![0u64; VOCABULARY];
    let mut map_tasks = Vec::with_capacity(MAP_TASKS);
    let mut partial_keys_total = 0usize;
    let mut counted_words = 0u64;

    for w in &weights {
        let chunk_words = ((total_words as f64) * w / weight_sum).round() as usize;
        let mut keys = 0usize;
        for _ in 0..chunk_words {
            let x = rng.random::<f64>() * total;
            let slot = &mut local[guide.lookup(x).min(VOCABULARY - 1)];
            keys += usize::from(*slot == 0);
            *slot += 1;
        }
        counted_words += chunk_words as u64;
        partial_keys_total += keys;
        map_tasks.push(TaskWork::new(
            chunk_words as f64 * CYCLES_PER_WORD,
            chunk_words as f64 * INSTR_PER_WORD,
            keys,
        ));
        for (g, l) in global.iter_mut().zip(&mut local) {
            *g += std::mem::take(l);
        }
    }

    let distinct = global.iter().filter(|&&c| c > 0).count();
    // The most frequent word; ties go to the lowest id.
    let (mut top_id, mut top_count) = (0u32, 0u64);
    for (id, &c) in global.iter().enumerate() {
        if c > top_count {
            (top_id, top_count) = (id as u32, c);
        }
    }

    // Reduce: every bucket combines the per-mapper partial containers.
    let items_per_bucket = partial_keys_total as f64 / REDUCE_TASKS as f64;
    let reduce_tasks = vec![
        TaskWork::new(
            items_per_bucket * REDUCE_CYCLES_PER_KEY,
            items_per_bucket * REDUCE_CYCLES_PER_KEY * 0.7,
            distinct / REDUCE_TASKS,
        );
        REDUCE_TASKS
    ];

    let digest = digest_u64s([counted_words, distinct as u64, top_id as u64, top_count]);

    let map_total: f64 = map_tasks.iter().map(|t| t.cycles).sum();
    let workload = AppWorkload {
        name: "WC",
        // A modest master-core share: WC's utilization heterogeneity comes
        // from its chunk variance, not from library initialisation
        // (Section 4.2 groups WC with Kmeans, not with PCA/HIST/MM).
        lib_init_cycles: map_total / 64.0 * 0.15,
        lib_init_instructions: map_total / 64.0 * 0.10,
        iterations: vec![IterationWorkload {
            map_tasks,
            reduce_tasks,
            merge: Some(MergeSpec {
                total_items: distinct as f64,
                cycles_per_item: MERGE_CYCLES_PER_KEY,
                instructions_per_item: MERGE_CYCLES_PER_KEY * 0.7,
                flits_per_item: 4.0,
            }),
            map_memory: MemoryProfile::new(16.0, 0.08, 0.9),
            reduce_memory: MemoryProfile::new(10.0, 0.05, 0.9),
            kv_flits_per_key: 2.0,
            neighbor_bias: 0.10,
        }],
        digest,
    };

    WordCountRun {
        workload,
        total_words: counted_words,
        distinct_words: distinct,
        top_word: (top_id, top_count),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_every_word() {
        let r = run(0.001, 1, 64);
        // Totals are conserved: the global counters sum to the word count.
        assert!(r.total_words >= 2000);
        assert!(r.distinct_words > 100);
        assert!(r.top_word.1 > 0);
    }

    #[test]
    fn zipf_head_dominates() {
        let r = run(0.002, 2, 64);
        // Word 0 is the Zipf head and must be (one of) the most frequent.
        assert_eq!(r.top_word.0, 0, "Zipf head should win at this size");
        // The head word is far above the mean frequency.
        let mean = r.total_words as f64 / r.distinct_words as f64;
        assert!(r.top_word.1 as f64 > 5.0 * mean);
    }

    #[test]
    fn hundred_map_tasks() {
        let r = run(0.001, 3, 64);
        assert_eq!(r.workload.iterations[0].map_tasks.len(), MAP_TASKS);
        assert_eq!(r.workload.iterations[0].reduce_tasks.len(), REDUCE_TASKS);
    }

    #[test]
    fn chunk_costs_vary() {
        let r = run(0.001, 4, 64);
        let costs: Vec<f64> = r.workload.iterations[0]
            .map_tasks
            .iter()
            .map(|t| t.cycles)
            .collect();
        let max = costs.iter().cloned().fold(0.0, f64::max);
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 1.4, "chunk variance too small: {min}..{max}");
        assert!(max / min < 3.0, "chunk variance too large: {min}..{max}");
    }

    #[test]
    fn scale_grows_work_linearly() {
        let small = run(0.001, 5, 64);
        let large = run(0.002, 5, 64);
        let ratio = large.total_words as f64 / small.total_words as f64;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(0.001, 9, 64), run(0.001, 9, 64));
        assert_ne!(
            run(0.001, 9, 64).digest_of(),
            run(0.001, 10, 64).digest_of()
        );
    }

    impl WordCountRun {
        fn digest_of(&self) -> u64 {
            self.workload.digest
        }
    }

    /// The guide finds exactly the word a full binary search finds: on both
    /// sides of every CDF entry and every bucket edge, and for a million
    /// seeded draws.
    #[test]
    fn guide_lookup_matches_partition_point() {
        let cdf = zipf_cdf();
        let guide = ZipfGuide::new(&cdf);
        let check = |x: f64| {
            let exact = cdf.partition_point(|&c| c <= x);
            assert_eq!(guide.lookup(x), exact, "x = {x:e}");
        };
        let edges = (0..GUIDE_BUCKETS).map(|b| b as f64 / guide.inv_width);
        for x in cdf.iter().copied().chain(edges) {
            check(x.next_down());
            check(x);
            check(x.next_up());
        }
        let total = cdf[VOCABULARY - 1];
        let mut rng = StdRng::seed_from_u64(0x21F);
        for _ in 0..1_000_000 {
            check(rng.random::<f64>() * total);
        }
    }

    #[test]
    fn keys_emitted_are_real_container_sizes() {
        let r = run(0.001, 6, 64);
        for t in &r.workload.iterations[0].map_tasks {
            assert!(t.keys_emitted > 0);
            assert!(t.keys_emitted <= VOCABULARY);
        }
    }
}
