//! The six Phoenix++ applications of the paper's Table 1.
//!
//! Every application **really computes its result** over synthetically
//! generated input of the Table-1 size (scaled by a `scale` factor so tests
//! run in milliseconds and benchmarks at full size), while recording the
//! per-task work that the [`crate::runtime::Executor`] replays:
//!
//! | App | Input (scale = 1) | Iterations | Merge | Profile character | Held in memory |
//! |---|---|---|---|---|---|
//! | Histogram | 399 MB bitmap | 1 | yes | homogeneous + bottleneck | O(bins) |
//! | Kmeans | 512-dim vectors | 2 | small | strongly heterogeneous | O(K·DIM + points) |
//! | Linear Regression | 100 MB points | 1 | no | flat, tiny lib-init | O(1) |
//! | Matrix Multiplication | 999×999 | 1 | yes | homogeneous + bottleneck | one block: 32 rows of A and C, 4 of B |
//! | PCA | 960×960 | 2 | long | homogeneous + strong bottleneck | one row |
//! | Word Count | 100 MB text | 1 | yes | heterogeneous | O(vocabulary) |
//!
//! No generator holds an n×n input. Inputs are used where they are drawn
//! (HIST, LR, WC, SM, and PCA row by row) or re-drawn from a clone of the
//! generator where the kernel reads them: KMEANS's points, once per
//! iteration, keeping only each point's assignment, and MM's A once and B
//! once per block of rows of A. At scale 1.0 the peak live heap of
//! [`App::workload`] is 0.35 MiB for KMEANS, 0.53 MiB for MM and 0.04 MiB
//! for PCA (`tests/input_memory.rs` bounds it).

pub mod histogram;
pub mod kmeans;
pub mod linear_regression;
pub mod matrix_mult;
pub mod pca;
pub mod string_match;
pub mod word_count;

use crate::workload::AppWorkload;

/// The application set of the paper (alphabetical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Histogram (HIST).
    Histogram,
    /// Kmeans.
    Kmeans,
    /// Linear Regression (LR).
    LinearRegression,
    /// Matrix Multiplication (MM).
    MatrixMult,
    /// Principal Component Analysis (PCA).
    Pca,
    /// Word Count (WC).
    WordCount,
    /// String Match (SM) — an extension beyond the paper's evaluated set.
    StringMatch,
}

impl App {
    /// All six applications, in the paper's Table 1 order.
    pub const ALL: [App; 6] = [
        App::MatrixMult,
        App::Kmeans,
        App::Pca,
        App::Histogram,
        App::WordCount,
        App::LinearRegression,
    ];

    /// The paper's six plus the suite extensions supported by this model.
    pub const EXTENDED: [App; 7] = [
        App::MatrixMult,
        App::Kmeans,
        App::Pca,
        App::Histogram,
        App::WordCount,
        App::LinearRegression,
        App::StringMatch,
    ];

    /// Short name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            App::Histogram => "HIST",
            App::Kmeans => "KMEANS",
            App::LinearRegression => "LR",
            App::MatrixMult => "MM",
            App::Pca => "PCA",
            App::WordCount => "WC",
            App::StringMatch => "SM",
        }
    }

    /// The Table-1 input description.
    pub fn input_description(self) -> &'static str {
        match self {
            App::Histogram => "Medium (399 MB)",
            App::Kmeans => "Vectors with dimension of 512",
            App::LinearRegression => "Medium (100 MB)",
            App::MatrixMult => "Matrix with dimension 999 x 999",
            App::Pca => "Matrix with dimension 960 x 960",
            App::WordCount => "Large (100 MB)",
            App::StringMatch => "Large (100 MB) [extension]",
        }
    }

    /// Number of MapReduce iterations (Kmeans and PCA run two).
    pub fn iterations(self) -> usize {
        match self {
            App::Kmeans | App::Pca => 2,
            _ => 1,
        }
    }

    /// Generates the input at `scale` (1.0 = Table-1 size), executes the
    /// real computation, and returns the recorded workload.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite or `cores == 0`.
    pub fn workload(self, scale: f64, seed: u64, cores: usize) -> AppWorkload {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be positive and finite"
        );
        assert!(cores > 0, "need at least one core");
        let _span = mapwave_harness::telemetry::span_labeled("phoenix.workload", self.name());
        match self {
            App::Histogram => histogram::run(scale, seed, cores).workload,
            App::Kmeans => kmeans::run(scale, seed, cores).workload,
            App::LinearRegression => linear_regression::run(scale, seed, cores).workload,
            App::MatrixMult => matrix_mult::run(scale, seed, cores).workload,
            App::Pca => pca::run(scale, seed, cores).workload,
            App::WordCount => word_count::run(scale, seed, cores).workload,
            App::StringMatch => string_match::run(scale, seed, cores).workload,
        }
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// FNV-1a digest of a byte stream — the correctness witness carried in every
/// [`AppWorkload`].
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Digest helper for sequences of `u64` values.
pub fn digest_u64s(values: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a(values.into_iter().flat_map(u64::to_le_bytes))
}

/// Digest helper for sequences of `f64` values (bit-exact).
pub fn digest_f64s(values: impl IntoIterator<Item = f64>) -> u64 {
    digest_u64s(values.into_iter().map(f64::to_bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_listed_once() {
        assert_eq!(App::ALL.len(), 6);
        let names: std::collections::HashSet<_> = App::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn iteration_counts_match_paper() {
        assert_eq!(App::Kmeans.iterations(), 2);
        assert_eq!(App::Pca.iterations(), 2);
        assert_eq!(App::WordCount.iterations(), 1);
        assert_eq!(App::Histogram.iterations(), 1);
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        let a = fnv1a([1, 2, 3]);
        let b = fnv1a([1, 2, 3]);
        let c = fnv1a([3, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn digest_f64_bit_exact() {
        assert_eq!(digest_f64s([1.5, 2.5]), digest_f64s([1.5, 2.5]));
        assert_ne!(digest_f64s([1.5]), digest_f64s([1.5000001]));
    }

    #[test]
    fn every_app_builds_a_workload() {
        for app in App::EXTENDED {
            let w = app.workload(0.002, 7, 16);
            assert_eq!(w.iterations.len(), app.iterations(), "{app}");
            assert!(w.total_map_tasks() > 0, "{app}");
            assert!(w.total_compute_cycles() > 0.0, "{app}");
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        for app in App::ALL {
            let a = app.workload(0.002, 11, 16);
            let b = app.workload(0.002, 11, 16);
            assert_eq!(a, b, "{app} must be deterministic");
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(App::WordCount.to_string(), "WC");
    }
}
