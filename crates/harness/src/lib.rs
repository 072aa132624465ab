//! # mapwave-harness
//!
//! Experiment orchestration for the mapwave workspace. Every paper artifact
//! is a grid of independent deterministic simulations (app × system × seed);
//! this crate supplies the machinery to run that grid fast without changing
//! a single output bit:
//!
//! * [`jobs`] — a dependency-graph job runner executing ready jobs on a
//!   scoped `std::thread` worker pool. Each job stays single-threaded and
//!   deterministic; results are collected in job-insertion order, so a run
//!   with N workers is byte-identical to a serial run.
//! * [`cache`] — a content-addressed in-memory stage cache keyed by
//!   [`hash::StableHash`] of the stage inputs that computes each key once
//!   per process (the sweep engine's designs).
//! * [`telemetry`] — structured spans and monotonic counters with hook
//!   points in the simulators, exported as Chrome-trace JSON or a plain-text
//!   summary. A disabled sink costs one relaxed atomic load per hook.
//! * [`rng`] — the workspace's seeded PRNG (xoshiro256++ seeded via
//!   SplitMix64). In-tree so the whole workspace builds with zero external
//!   dependencies (and therefore fully offline).
//!
//! The crate deliberately depends on nothing — every other workspace member
//! can (and does) depend on it.

pub mod cache;
pub mod hash;
pub mod jobs;
pub mod rng;
pub mod telemetry;

pub use cache::{CacheStats, StageCache};
pub use hash::{stable_hash_of, CacheKey, StableHash, StableHasher};
pub use jobs::{available_parallelism, JobGraph, JobId};
