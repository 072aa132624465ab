//! # mapwave-faults
//!
//! A deterministic, seeded fault model for the mapwave stack.
//!
//! The crate provides a [`FaultPlan`]: a pure, immutable oracle that every
//! simulation layer queries to decide whether a fault fires at a given
//! point. Three event families are modelled:
//!
//! * **wireless-link bit errors** — a token-MAC transfer attempt on a
//!   wireless channel is corrupted; the flit stays put and retransmits on a
//!   later token slot, and past a threshold of consecutive corruptions the
//!   affected wireless interface falls back to the wireline escape route
//!   (handled in `mapwave-noc`);
//! * **core degradation / failure** — at a phase boundary a core's
//!   effective frequency drops by a configured factor, or the core goes
//!   offline entirely (handled in `mapwave-phoenix` /
//!   `mapwave-manycore`);
//! * **task failures** — a task attempt fails and is retried with
//!   exponential backoff, re-entering the steal queues (handled in
//!   `mapwave-phoenix`).
//!
//! Every event is a simulated hardware fault inside a run. A design-space
//! sweep gives each cell its own plan through [`FaultConfig::for_cell`]
//! (seeded by [`cell_seed`]), so the cells degrade independently yet
//! reproducibly; the crate models no failure of the sweep's own work.
//!
//! ## Determinism
//!
//! Decisions are *counter-hash based*: each query mixes the plan's key with
//! the caller-supplied indices (channel, attempt, core, slot, …) through
//! SplitMix64 and compares against a precomputed 64-bit threshold. No
//! shared RNG stream is consumed at query time, so the verdict for a given
//! event is independent of the order in which other layers ask their
//! questions — a property the relaxation loop in `mapwave-core` relies on
//! (the same plan is replayed identically in every round).
//!
//! The plan's key derives from a **named harness RNG stream**
//! ([`mapwave_harness::rng::stream_seed`] with the `"faults"` name), so
//! fault schedules can never perturb workload generation: workload bytes
//! are identical whether or not a fault stream was drawn.
//!
//! ## Zero cost when disabled
//!
//! [`FaultPlan::none()`] has every rate at exactly `0.0`, which maps to a
//! decision threshold of `0` — and thresholds are compared strictly
//! (`hash < threshold`), so no event ever fires and no floating-point state
//! is touched. The consuming crates additionally gate their hooks so the
//! disabled path compiles to the pre-fault code, keeping every golden
//! digest bit-identical.

#![warn(missing_debug_implementations)]
#![deny(missing_docs)]

use mapwave_harness::rng::{splitmix64, stream_seed, RngCore, SeedableRng, StdRng};

/// Tuning knobs of the fault model. All rates are probabilities in
/// `[0, 1]` per *event opportunity* (a wireless transfer attempt, a
/// core-slot boundary, a task attempt).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability a wireless transfer attempt is corrupted by a bit error
    /// (the flit retransmits on a later token slot).
    pub link_error_rate: f64,
    /// Consecutive corrupted attempts at one wireless interface after which
    /// the WI is disabled and its traffic falls back to the wireline escape
    /// route.
    pub wi_fallback_threshold: u32,
    /// Per-core probability, at each phase boundary, that the core's
    /// effective frequency degrades by [`FaultConfig::degrade_factor`].
    pub core_degrade_rate: f64,
    /// Multiplier applied to a degraded core's speed (in `(0, 1]`).
    pub degrade_factor: f64,
    /// Per-core probability, at each phase boundary, that the core goes
    /// offline for the rest of the run.
    pub core_fail_rate: f64,
    /// Probability a task attempt fails and must be retried.
    pub task_fail_rate: f64,
    /// Retry budget per task; after this many failed attempts the next
    /// attempt is forced to succeed (the model's stand-in for
    /// checkpoint-restore escalation).
    pub max_task_retries: u32,
    /// Backoff before retry attempt `k` is `base · 2^(k−1)` cycles.
    pub backoff_base_cycles: f64,
    /// Root seed of the fault schedule. The plan key is derived through the
    /// harness's named `"faults"` stream, decoupled from workload seeds.
    pub seed: u64,
}

impl FaultConfig {
    /// A configuration with every rate at exactly zero — the disabled
    /// model.
    pub fn disabled() -> Self {
        FaultConfig {
            link_error_rate: 0.0,
            wi_fallback_threshold: 4,
            core_degrade_rate: 0.0,
            degrade_factor: 0.6,
            core_fail_rate: 0.0,
            task_fail_rate: 0.0,
            max_task_retries: 3,
            backoff_base_cycles: 5_000.0,
            seed: 0,
        }
    }

    /// The same configuration re-seeded for one sweep cell: the seed is
    /// replaced by the cell-scoped child stream [`cell_seed`] of the
    /// current seed.
    ///
    /// Sweep engines use this so every cell of a design-space sweep draws
    /// an *independent, reproducible* fault schedule from one root seed —
    /// cell 17 sees the same faults whether the sweep ran uninterrupted,
    /// was resumed after a kill, or ran cell 17 alone.
    pub fn for_cell(&self, cell: u64) -> Self {
        FaultConfig {
            seed: cell_seed(self.seed, cell),
            ..self.clone()
        }
    }

    /// Scales the whole model from one scalar fault rate — the knob the
    /// `fault_sweep` experiment turns. Link and task attempts fail at
    /// `rate`; cores degrade at `rate/2` and die at `rate/10` per phase
    /// boundary.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    pub fn at_rate(rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0, 1]");
        FaultConfig {
            link_error_rate: rate,
            core_degrade_rate: rate * 0.5,
            core_fail_rate: rate * 0.1,
            task_fail_rate: rate,
            seed,
            ..FaultConfig::disabled()
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

/// Derives the fault seed of one sweep cell from a root fault seed.
///
/// Each cell index names its own harness child stream (`"cell/<index>"`
/// under the root), so:
///
/// * the same `(root, cell)` pair always yields the same seed — a resumed
///   sweep replays exactly the faults an uninterrupted sweep would have;
/// * different cells draw statistically independent schedules;
/// * no cell seed collides with the root's own `"faults"` stream, so a
///   sweep can never perturb a non-sweep run sharing the root seed.
///
/// # Examples
///
/// ```
/// use mapwave_faults::cell_seed;
///
/// assert_eq!(cell_seed(7, 0), cell_seed(7, 0));
/// assert_ne!(cell_seed(7, 0), cell_seed(7, 1));
/// assert_ne!(cell_seed(7, 0), cell_seed(8, 0));
/// ```
pub fn cell_seed(root: u64, cell: u64) -> u64 {
    stream_seed(root, &format!("cell/{cell}"))
}

/// Converts a probability to a strict 64-bit comparison threshold.
///
/// `p <= 0` maps to `0`, which can never satisfy `hash < 0` — a zero rate
/// is *provably* inert, with no float comparison on the query path.
fn rate_to_threshold(p: f64) -> u64 {
    if p <= 0.0 {
        0
    } else if p >= 1.0 {
        u64::MAX
    } else {
        // 2^64 · p, computed in f64 then truncated; exact enough for a
        // simulation hazard and, crucially, deterministic.
        (p * 18_446_744_073_709_551_616.0) as u64
    }
}

/// What happens to a core at a phase boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreEvent {
    /// Nothing — the core keeps its current health.
    None,
    /// The core's effective speed is multiplied by
    /// [`FaultConfig::degrade_factor`].
    Degrade,
    /// The core goes offline for the rest of the run.
    Fail,
}

/// A deterministic, immutable fault schedule.
///
/// Build one with [`FaultPlan::build`] (or [`FaultPlan::none`] for the
/// disabled model) and hand shared references to every layer. Queries are
/// pure: the same arguments always return the same verdict, regardless of
/// call order or interleaving.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    cfg: FaultConfig,
    /// Sub-keys per event family, drawn from the named `"faults"` stream.
    link_key: u64,
    core_key: u64,
    task_key: u64,
    /// Precomputed strict thresholds (zero rate ⇒ zero threshold ⇒ inert).
    link_threshold: u64,
    degrade_threshold: u64,
    fail_threshold: u64,
    task_threshold: u64,
}

impl FaultPlan {
    /// The disabled plan: no event ever fires.
    pub fn none() -> Self {
        FaultPlan::build(&FaultConfig::disabled())
    }

    /// Builds a plan from `cfg`. The plan key is drawn from the harness's
    /// named `"faults"` child stream of `cfg.seed`, so building (or not
    /// building) a plan never perturbs any workload generator seeded from
    /// the same root.
    pub fn build(cfg: &FaultConfig) -> Self {
        assert!(
            cfg.degrade_factor > 0.0 && cfg.degrade_factor <= 1.0,
            "degrade_factor must be in (0, 1]"
        );
        let mut stream = StdRng::seed_from_u64(stream_seed(cfg.seed, "faults"));
        FaultPlan {
            link_key: stream.next_u64(),
            core_key: stream.next_u64(),
            task_key: stream.next_u64(),
            link_threshold: rate_to_threshold(cfg.link_error_rate),
            degrade_threshold: rate_to_threshold(cfg.core_degrade_rate),
            fail_threshold: rate_to_threshold(cfg.core_fail_rate),
            task_threshold: rate_to_threshold(cfg.task_fail_rate),
            cfg: cfg.clone(),
        }
    }

    /// Whether the plan can ever fire an event. `false` means every hook
    /// may skip its fault path entirely.
    pub fn is_none(&self) -> bool {
        self.link_threshold == 0
            && self.degrade_threshold == 0
            && self.fail_threshold == 0
            && self.task_threshold == 0
    }

    /// Whether any NoC-level (wireless link) event can fire.
    pub fn affects_noc(&self) -> bool {
        self.link_threshold != 0
    }

    /// Whether any runtime-level (core or task) event can fire.
    pub fn affects_runtime(&self) -> bool {
        self.degrade_threshold != 0 || self.fail_threshold != 0 || self.task_threshold != 0
    }

    /// The configuration the plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Counter-hash decision kernel: mixes a family key with two event
    /// indices and compares strictly against the family threshold.
    #[inline]
    fn fires(key: u64, a: u64, b: u64, threshold: u64) -> bool {
        if threshold == 0 {
            return false;
        }
        let mut state = key ^ a.rotate_left(32);
        let h1 = splitmix64(&mut state);
        state ^= b ^ h1;
        splitmix64(&mut state) < threshold
    }

    /// Whether transfer `attempt` on wireless `channel` is corrupted.
    #[inline]
    pub fn link_corrupts(&self, channel: usize, attempt: u64) -> bool {
        Self::fires(self.link_key, channel as u64, attempt, self.link_threshold)
    }

    /// Consecutive corruptions after which a WI falls back to wireline.
    #[inline]
    pub fn wi_fallback_threshold(&self) -> u32 {
        self.cfg.wi_fallback_threshold.max(1)
    }

    /// The core event scheduled for `core` at phase-boundary `slot`.
    ///
    /// Failure is checked before degradation so a single hazard draw per
    /// family keeps the two families independent; a dead core stays dead
    /// regardless of later slots (enforced by the caller's health state).
    #[inline]
    pub fn core_event(&self, core: usize, slot: u64) -> CoreEvent {
        if Self::fires(
            self.core_key ^ 0xF417,
            core as u64,
            slot,
            self.fail_threshold,
        ) {
            CoreEvent::Fail
        } else if Self::fires(self.core_key, core as u64, slot, self.degrade_threshold) {
            CoreEvent::Degrade
        } else {
            CoreEvent::None
        }
    }

    /// Multiplier applied to a degraded core's speed.
    #[inline]
    pub fn degrade_factor(&self) -> f64 {
        self.cfg.degrade_factor
    }

    /// Whether attempt `attempt` (0-based) of global task `task` fails.
    /// Attempts beyond the retry budget are forced to succeed.
    #[inline]
    pub fn task_fails(&self, task: u64, attempt: u32) -> bool {
        if attempt >= self.cfg.max_task_retries {
            return false;
        }
        Self::fires(self.task_key, task, u64::from(attempt), self.task_threshold)
    }

    /// Backoff in cycles before retry `attempt` (1-based): exponential
    /// `base · 2^(attempt−1)`.
    #[inline]
    pub fn backoff_cycles(&self, attempt: u32) -> f64 {
        let shift = attempt.saturating_sub(1).min(20);
        self.cfg.backoff_base_cycles * f64::from(1u32 << shift)
    }
}

/// Counters of the faults that actually fired during a run, aggregated
/// across layers. Surfaced through the harness telemetry as the `fault.*`
/// family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Corrupted wireless transfer attempts (each retransmits).
    pub flit_corruptions: u64,
    /// Wireless interfaces that fell back to the wireline escape route.
    pub wi_fallbacks: u64,
    /// Task attempts that failed and were retried with backoff.
    pub task_retries: u64,
    /// Tasks re-stolen from a dead core's queue by survivors.
    pub re_steals: u64,
    /// Cores whose frequency degraded.
    pub cores_degraded: u64,
    /// Cores that went offline.
    pub cores_failed: u64,
}

impl FaultStats {
    /// Total injected events across all families.
    pub fn injected(&self) -> u64 {
        self.flit_corruptions + self.task_retries + self.cores_degraded + self.cores_failed
    }

    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &FaultStats) {
        self.flit_corruptions += other.flit_corruptions;
        self.wi_fallbacks += other.wi_fallbacks;
        self.task_retries += other.task_retries;
        self.re_steals += other.re_steals;
        self.cores_degraded += other.cores_degraded;
        self.cores_failed += other.cores_failed;
    }

    /// Emits the counters through the harness telemetry (`fault.*`).
    pub fn emit_telemetry(&self) {
        use mapwave_harness::telemetry;
        telemetry::count("fault.injected", self.injected());
        telemetry::count("fault.flit_corruptions", self.flit_corruptions);
        telemetry::count("fault.reroutes", self.wi_fallbacks);
        telemetry::count("fault.task_retries", self.task_retries);
        telemetry::count("fault.re_steals", self.re_steals);
        telemetry::count("fault.cores_degraded", self.cores_degraded);
        telemetry::count("fault.cores_failed", self.cores_failed);
    }
}

/// Convenient glob import.
pub mod prelude {
    pub use crate::{cell_seed, CoreEvent, FaultConfig, FaultPlan, FaultStats};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_never_fires() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert!(!p.affects_noc());
        assert!(!p.affects_runtime());
        for i in 0..1_000u64 {
            assert!(!p.link_corrupts((i % 3) as usize, i));
            assert_eq!(p.core_event((i % 64) as usize, i / 64), CoreEvent::None);
            assert!(!p.task_fails(i, 0));
        }
    }

    #[test]
    fn queries_are_pure_and_order_independent() {
        let p = FaultPlan::build(&FaultConfig::at_rate(0.2, 9));
        let forward: Vec<bool> = (0..256).map(|i| p.link_corrupts(1, i)).collect();
        let backward: Vec<bool> = (0..256).rev().map(|i| p.link_corrupts(1, i)).collect();
        let backward_fwd: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward_fwd);
        assert!(forward.iter().any(|&b| b), "rate 0.2 must fire sometimes");
        assert!(forward.iter().any(|&b| !b), "rate 0.2 must also pass");
    }

    #[test]
    fn same_seed_same_plan_different_seed_differs() {
        let a = FaultPlan::build(&FaultConfig::at_rate(0.1, 42));
        let b = FaultPlan::build(&FaultConfig::at_rate(0.1, 42));
        assert_eq!(a, b);
        let c = FaultPlan::build(&FaultConfig::at_rate(0.1, 43));
        let va: Vec<bool> = (0..512).map(|i| a.task_fails(i, 0)).collect();
        let vc: Vec<bool> = (0..512).map(|i| c.task_fails(i, 0)).collect();
        assert_ne!(va, vc, "different fault seeds must differ somewhere");
    }

    #[test]
    fn empirical_rate_tracks_configured_rate() {
        let p = FaultPlan::build(&FaultConfig::at_rate(0.25, 7));
        let n = 40_000u64;
        let hits = (0..n).filter(|&i| p.link_corrupts(0, i)).count() as f64;
        let observed = hits / n as f64;
        assert!(
            (observed - 0.25).abs() < 0.02,
            "observed corruption rate {observed} too far from 0.25"
        );
    }

    #[test]
    fn retry_budget_forces_success() {
        let cfg = FaultConfig {
            task_fail_rate: 1.0,
            max_task_retries: 3,
            ..FaultConfig::at_rate(1.0, 5)
        };
        let p = FaultPlan::build(&cfg);
        assert!(p.task_fails(17, 0));
        assert!(p.task_fails(17, 2));
        assert!(!p.task_fails(17, 3), "attempt past the budget must succeed");
    }

    #[test]
    fn backoff_is_exponential() {
        let p = FaultPlan::build(&FaultConfig::at_rate(0.1, 1));
        let base = p.config().backoff_base_cycles;
        assert_eq!(p.backoff_cycles(1).to_bits(), base.to_bits());
        assert_eq!(p.backoff_cycles(2).to_bits(), (base * 2.0).to_bits());
        assert_eq!(p.backoff_cycles(4).to_bits(), (base * 8.0).to_bits());
    }

    #[test]
    fn core_events_fire_both_kinds_at_high_rates() {
        let p = FaultPlan::build(&FaultConfig::at_rate(0.9, 3));
        let mut degraded = 0;
        let mut failed = 0;
        for core in 0..64 {
            for slot in 0..16 {
                match p.core_event(core, slot) {
                    CoreEvent::Degrade => degraded += 1,
                    CoreEvent::Fail => failed += 1,
                    CoreEvent::None => {}
                }
            }
        }
        assert!(degraded > 0, "degradations must fire at rate 0.45");
        assert!(failed > 0, "failures must fire at rate 0.09");
    }

    #[test]
    #[should_panic]
    fn at_rate_rejects_out_of_range() {
        let _ = FaultConfig::at_rate(1.5, 0);
    }

    #[test]
    fn cell_seeds_are_stable_and_distinct() {
        let root = 0xFA17u64;
        let seeds: Vec<u64> = (0..64).map(|c| cell_seed(root, c)).collect();
        let again: Vec<u64> = (0..64).map(|c| cell_seed(root, c)).collect();
        assert_eq!(seeds, again, "cell seeds must be a pure function");
        let distinct: std::collections::BTreeSet<u64> = seeds.iter().copied().collect();
        assert_eq!(distinct.len(), 64, "cells must not share fault schedules");
        assert!(
            !seeds.contains(&stream_seed(root, "faults")),
            "cell streams must not collide with the root faults stream"
        );
    }

    #[test]
    fn for_cell_rebuilds_identical_plans() {
        let base = FaultConfig::at_rate(0.1, 99);
        let a = FaultPlan::build(&base.for_cell(5));
        let b = FaultPlan::build(&base.for_cell(5));
        assert_eq!(a, b, "same cell must replay the same schedule");
        let c = FaultPlan::build(&base.for_cell(6));
        let va: Vec<bool> = (0..512).map(|i| a.task_fails(i, 0)).collect();
        let vc: Vec<bool> = (0..512).map(|i| c.task_fails(i, 0)).collect();
        assert_ne!(va, vc, "neighbouring cells must differ somewhere");
    }

    #[test]
    fn stats_merge_and_injected() {
        let mut a = FaultStats {
            flit_corruptions: 3,
            wi_fallbacks: 1,
            task_retries: 2,
            re_steals: 4,
            cores_degraded: 1,
            cores_failed: 1,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.flit_corruptions, 6);
        assert_eq!(a.re_steals, 8);
        assert_eq!(a.injected(), 2 * (3 + 2 + 1 + 1));
    }
}
