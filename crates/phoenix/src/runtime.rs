//! The Phoenix++ execution model: event-driven task scheduling with
//! stealing over a frequency-heterogeneous platform.
//!
//! [`Executor::run`] replays an [`AppWorkload`] on a modelled platform and
//! returns the [`ExecutionReport`] the rest of the study consumes;
//! [`Executor::run_staged`] also returns the per-stage traffic matrices,
//! which only the NoC coupling reads. The
//! model follows the paper's Fig. 1 flow per iteration:
//!
//! 1. **Library init** (+ Split): serial work on the master core;
//! 2. **Map**: tasks round-robin assigned, executed at each core's
//!    frequency, idle cores steal from the most-loaded victim (subject to
//!    the [`StealPolicy`]);
//! 3. **Reduce**: bucket tasks, same scheduling;
//! 4. **Merge**: a binary tree with thread count halving per level.
//!
//! Task durations combine modelled compute cycles with cache-miss stalls
//! that depend on the NoC round-trip latency — the coupling through which a
//! better interconnect (the WiNoC) shortens execution.
//!
//! Every entry point runs the same plain scheduler: an O(cores) victim
//! scan per steal, per-phase vectors, and per-task traffic loops. The
//! executor takes a percent or two of an end-to-end run at most, so
//! nothing here is tuned; `crates/phoenix/tests/golden.rs` pins every
//! observable.

use crate::stealing::{caps_for_phase, StealPolicy};
use crate::task::{PhaseKind, TaskWork};
use crate::timeline::{Span, Timeline};
use crate::workload::{AppWorkload, ExecutionReport, PhaseBreakdown, PhaseLatencies, PhaseTraffic};
use mapwave_faults::{CoreEvent, FaultPlan, FaultStats};
use mapwave_harness::telemetry;
use mapwave_manycore::cache::{CacheModel, MemoryProfile};
use mapwave_manycore::event::EventQueue;
use mapwave_manycore::health::CoreHealth;
use mapwave_noc::TrafficMatrix;
use std::cmp::Reverse;
use std::collections::VecDeque;

/// Platform/runtime parameters of one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Number of cores (logical threads, one per core).
    pub cores: usize,
    /// The master core running library initialisation (Phoenix: thread 0).
    pub master_core: usize,
    /// Steal policy in force.
    pub steal_policy: StealPolicy,
    /// Per-core speed relative to the fastest clock, in `(0, 1]`.
    pub core_speeds: Vec<f64>,
    /// Cycles of overhead added to a stolen task (queue locking + data
    /// re-fetch).
    pub steal_overhead_cycles: f64,
    /// Per-stage network round trips to a remote L2 slice, in reference
    /// cycles (measured by phase-resolved NoC simulation).
    pub remote_l2_latency: PhaseLatencies,
    /// The cache hierarchy model.
    pub cache: CacheModel,
}

impl RuntimeConfig {
    /// The non-VFI baseline: every core at full speed, default stealing.
    pub fn nvfi(cores: usize) -> Self {
        RuntimeConfig {
            cores,
            master_core: 0,
            steal_policy: StealPolicy::Default,
            core_speeds: vec![1.0; cores],
            steal_overhead_cycles: 1_500.0,
            remote_l2_latency: PhaseLatencies::default(),
            cache: CacheModel::default_64core(),
        }
    }

    /// Replaces the per-core speeds.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from `cores` or any speed is outside
    /// `(0, 1]`.
    pub fn with_speeds(mut self, speeds: Vec<f64>) -> Self {
        assert_eq!(speeds.len(), self.cores, "speed vector length mismatch");
        assert!(
            speeds.iter().all(|&s| s > 0.0 && s <= 1.0 + 1e-12),
            "speeds must be in (0,1]"
        );
        self.core_speeds = speeds;
        self
    }

    /// Sets the steal policy.
    pub fn with_steal_policy(mut self, policy: StealPolicy) -> Self {
        self.steal_policy = policy;
        self
    }

    /// Sets one measured remote-L2 round-trip latency for every stage.
    ///
    /// # Panics
    ///
    /// Panics if negative or non-finite.
    pub fn with_remote_latency(mut self, cycles: f64) -> Self {
        assert!(
            cycles >= 0.0 && cycles.is_finite(),
            "latency must be nonnegative"
        );
        self.remote_l2_latency = PhaseLatencies::uniform(cycles);
        self
    }

    /// Sets per-stage remote-L2 round-trip latencies.
    pub fn with_phase_latencies(mut self, latencies: PhaseLatencies) -> Self {
        self.remote_l2_latency = latencies;
        self
    }
}

/// A task-completion event.
#[derive(Debug, Clone, Copy)]
struct Completion {
    core: usize,
    /// The phase-local task index that just finished — the fault layer
    /// needs it to decide (and bill) a retry of exactly this task.
    task: usize,
}

/// Live fault state of one execution: the deterministic plan plus the
/// core-health, retry, and counter state it drives.
///
/// Create one per [`Executor::run_with_faults`] call (health and counters
/// accumulate monotonically — reusing an instance carries degradation over,
/// which models long-running deployments but is usually not what a sweep
/// wants). The master core is exempt from core events entirely: exempt from
/// failure so forward progress is guaranteed (some core always drains the
/// queues), and exempt from degradation because library init is serial on
/// the master and a degraded master would conflate serial-fraction stretch
/// with the parallel-phase fault response the sweep isolates.
///
/// The fault-free entry points run with a state built from
/// [`FaultPlan::none`]: no hook ever fires, and health factor 1.0 leaves
/// every core speed exact.
#[derive(Debug, Clone)]
pub struct PhoenixFaults {
    plan: FaultPlan,
    master: usize,
    health: CoreHealth,
    /// Next fault-slot index (advanced once per scheduling window).
    slot: u64,
    /// Global task serial at the start of the current phase.
    task_base: u64,
    /// Running task serial across phases.
    task_serial: u64,
    /// Failed-attempt count per phase-local task.
    attempts: Vec<u32>,
    /// Pending backoff delay per phase-local task, in reference cycles.
    backoff: Vec<f64>,
    stats: FaultStats,
}

impl PhoenixFaults {
    /// Fault state for a platform of `cores` cores whose master is
    /// `master`.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `master >= cores`.
    pub fn new(plan: &FaultPlan, cores: usize, master: usize) -> Self {
        assert!(master < cores, "master core out of range");
        PhoenixFaults {
            plan: plan.clone(),
            master,
            health: CoreHealth::new(cores),
            slot: 0,
            task_base: 0,
            task_serial: 0,
            attempts: Vec::new(),
            backoff: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Fault counters accumulated so far (retries, re-steals, core events).
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Current per-core health (liveness and degradation factors).
    pub fn health(&self) -> &CoreHealth {
        &self.health
    }

    /// Opens a fault slot (a scheduling window between global barriers):
    /// applies this slot's core degrade/fail events and fills `speeds`
    /// with the effective per-core speeds derived from `base`.
    fn begin_slot(&mut self, base: &[f64], speeds: &mut Vec<f64>) {
        let slot = self.slot;
        self.slot += 1;
        for core in 0..self.health.len() {
            if core == self.master || !self.health.is_alive(core) {
                continue;
            }
            match self.plan.core_event(core, slot) {
                CoreEvent::Fail => {
                    self.health.kill(core);
                    self.stats.cores_failed += 1;
                }
                CoreEvent::Degrade => {
                    self.health.degrade(core, self.plan.degrade_factor());
                    self.stats.cores_degraded += 1;
                }
                CoreEvent::None => {}
            }
        }
        self.health.effective_speeds(base, speeds);
    }

    /// Resets per-task retry state for a phase of `len` tasks and advances
    /// the global task serial (task identities must differ across phases).
    fn begin_phase(&mut self, len: usize) {
        self.task_base = self.task_serial;
        self.task_serial += len as u64;
        self.attempts = vec![0; len];
        self.backoff = vec![0.0; len];
    }

    /// Zeroes the task caps of offline cores so they never start work.
    fn mask_caps(&self, caps: &mut [usize]) {
        for (core, cap) in caps.iter_mut().enumerate() {
            if !self.health.is_alive(core) {
                *cap = 0;
            }
        }
    }

    /// Whether the just-finished attempt of phase-local task `t` failed
    /// (and must be requeued). Charges the retry and arms its backoff.
    fn task_failed(&mut self, t: usize) -> bool {
        let attempt = self.attempts[t];
        if self.plan.task_fails(self.task_base + t as u64, attempt) {
            self.attempts[t] += 1;
            self.stats.task_retries += 1;
            self.backoff[t] = self.plan.backoff_cycles(self.attempts[t]);
            true
        } else {
            false
        }
    }

    /// Consumes the pending backoff delay of task `t`, in reference cycles.
    fn take_backoff(&mut self, t: usize) -> f64 {
        std::mem::take(&mut self.backoff[t])
    }

    /// The core that actually performs serial work assigned to `core` —
    /// `core` itself when alive, else the nearest surviving substitute.
    fn live_core(&self, core: usize) -> usize {
        self.health.live_substitute(core)
    }

    /// Observes a steal from `victim` (bills a re-steal when the victim is
    /// an offline core whose queue survivors are draining).
    fn note_steal(&mut self, victim: usize) {
        if !self.health.is_alive(victim) {
            self.stats.re_steals += 1;
        }
    }
}

/// Effective duration of `task` on a core at relative `speed`, in
/// reference cycles.
///
/// Compute cycles stretch with the core's clock divider, but cache-miss
/// stalls do not: an L2/network/DRAM access takes fixed wall-clock time
/// regardless of the requesting core's frequency. This memory-bound
/// slack is exactly the lever VFI pulls — slowing a stall-heavy core
/// barely stretches it while cutting its V²f energy.
fn task_duration(task: &TaskWork, speed: f64, stall: f64) -> f64 {
    task.cycles / speed + task.instructions * stall
}

/// Outcome of scheduling one task-parallel phase.
#[derive(Debug, Clone)]
struct PhaseOutcome {
    duration: f64,
    executed_by: Vec<usize>,
    steals: u64,
}

/// In-flight state of one phase's event loop, so the start/steal logic
/// reads as methods instead of a closure with a dozen parameters.
struct PhaseCtx<'a> {
    tasks: &'a [TaskWork],
    speeds: &'a [f64],
    stall: f64,
    steal_overhead: f64,
    phase: PhaseKind,
    /// Run-clock time at which the phase starts (span offset).
    base: f64,
    queues: Vec<VecDeque<usize>>,
    caps: Vec<usize>,
    done: Vec<usize>,
    events: EventQueue<Completion>,
    executed_by: Vec<usize>,
    queued: usize,
    steals: u64,
    timeline: Option<&'a mut Timeline>,
    faults: &'a mut PhoenixFaults,
}

impl PhaseCtx<'_> {
    /// Picks the next task for `core`: own queue first, else steal from the
    /// core with the longest queue, lowest index on ties. Returns
    /// `(task, stolen)`.
    fn next_task(&mut self, core: usize) -> Option<(usize, bool)> {
        if let Some(t) = self.queues[core].pop_front() {
            return Some((t, false));
        }
        let victim = (0..self.queues.len())
            .filter(|&v| !self.queues[v].is_empty())
            .max_by_key(|&v| (self.queues[v].len(), Reverse(v)))?;
        let t = self.queues[victim]
            .pop_back()
            .expect("victim queue nonempty");
        self.faults.note_steal(victim);
        Some((t, true))
    }

    /// Starts the next task on `core` at time `now`, if the cap allows and
    /// work exists.
    fn start_core(&mut self, core: usize, now: f64) {
        if self.done[core] >= self.caps[core] {
            return;
        }
        let Some((t, stolen)) = self.next_task(core) else {
            return;
        };
        let mut dur = task_duration(&self.tasks[t], self.speeds[core], self.stall);
        if stolen {
            dur += self.steal_overhead / self.speeds[core];
            self.steals += 1;
        }
        // Retry backoff is wall-clock (a timer, not compute): it does not
        // stretch with the core's clock divider.
        dur += self.faults.take_backoff(t);
        self.executed_by[t] = core;
        self.done[core] += 1;
        self.queued -= 1;
        self.events.push(now + dur, Completion { core, task: t });
        if let Some(timeline) = self.timeline.as_deref_mut() {
            timeline.push(Span {
                core,
                phase: self.phase,
                start: self.base + now,
                end: self.base + (now + dur),
                stolen,
            });
        }
    }
}

/// Radius of the neighbour-locality bias: memory traffic is shared with
/// cores within this index distance.
const NEIGHBORHOOD: usize = 4;

/// Flits per packet, matching the NoC simulator's default packet length.
const PACKET_FLITS: f64 = 4.0;

/// The execution engine.
#[derive(Debug, Clone)]
pub struct Executor {
    cfg: RuntimeConfig,
}

impl Executor {
    /// Creates an executor for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the config is internally inconsistent (zero cores, speed
    /// vector length mismatch, master out of range).
    pub fn new(cfg: RuntimeConfig) -> Self {
        assert!(cfg.cores > 0, "need at least one core");
        assert_eq!(
            cfg.core_speeds.len(),
            cfg.cores,
            "speed vector length mismatch"
        );
        assert!(cfg.master_core < cfg.cores, "master core out of range");
        Executor { cfg }
    }

    /// The configuration in force.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Replaces the per-stage remote-L2 latencies in place, so a relaxation
    /// loop can re-run the executor with updated network feedback without
    /// rebuilding (and recloning) the whole configuration each round.
    pub fn set_phase_latencies(&mut self, latencies: PhaseLatencies) {
        self.cfg.remote_l2_latency = latencies;
    }

    /// Replaces the off-chip memory latency in place — the banked
    /// DRAM-model counterpart of [`Executor::set_phase_latencies`], letting
    /// the relaxation loop feed measured controller queueing back into the
    /// cache model between rounds.
    pub fn set_mem_latency_cycles(&mut self, cycles: f64) {
        self.cfg.cache.mem_latency_cycles = cycles;
    }

    /// Fault state that never fires, for the fault-free entry points.
    fn no_faults(&self) -> PhoenixFaults {
        PhoenixFaults::new(&FaultPlan::none(), self.cfg.cores, self.cfg.master_core)
    }

    /// Replays `workload` and reports the observables. The per-stage
    /// traffic is built and dropped here; [`Executor::run_staged`] is the
    /// entry point that returns it.
    pub fn run(&self, workload: &AppWorkload) -> ExecutionReport {
        self.run_staged(workload, None).0
    }

    /// Like [`Executor::run`], but also records the full schedule as a
    /// [`Timeline`] (per-core busy spans for Gantt-style inspection). The
    /// per-stage traffic is dropped here too.
    pub fn run_traced(&self, workload: &AppWorkload) -> (ExecutionReport, Timeline) {
        let mut timeline = Timeline::new(self.cfg.cores);
        let (report, _) = self.run_impl(workload, Some(&mut timeline), &mut self.no_faults());
        (report, timeline)
    }

    /// Like [`Executor::run`], with the fault model live: cores may degrade
    /// or fail at scheduling-window boundaries (survivors re-steal a dead
    /// core's queue), map/reduce task attempts may fail and retry with
    /// exponential backoff, and the merge tree routes around offline
    /// mergers. With a plan built from an all-zero
    /// [`FaultConfig`](mapwave_faults::FaultConfig) no hook ever fires and
    /// the report is bit-identical to [`Executor::run`]'s.
    ///
    /// `faults` accumulates health and counters across calls; pass a fresh
    /// [`PhoenixFaults`] per execution unless degradation should carry
    /// over. The per-stage traffic is dropped here; the faulted
    /// full-system run reads it through [`Executor::run_staged`].
    ///
    /// # Panics
    ///
    /// Panics if `faults` was built for a different core count.
    pub fn run_with_faults(
        &self,
        workload: &AppWorkload,
        faults: &mut PhoenixFaults,
    ) -> ExecutionReport {
        self.run_staged(workload, Some(faults)).0
    }

    /// Like [`Executor::run`] (no `faults`) or [`Executor::run_with_faults`]
    /// (with them), and also hands back the per-stage traffic matrices
    /// that the phase-resolved NoC windows need. The caller owns them: the
    /// full-system run keeps them for one relaxation round and drops them
    /// when it returns, and every other entry point drops them at once.
    ///
    /// # Panics
    ///
    /// Panics if `faults` was built for a different core count.
    pub fn run_staged(
        &self,
        workload: &AppWorkload,
        faults: Option<&mut PhoenixFaults>,
    ) -> (ExecutionReport, PhaseTraffic) {
        match faults {
            Some(faults) => {
                assert_eq!(
                    faults.health.len(),
                    self.cfg.cores,
                    "fault state platform size mismatch"
                );
                self.run_impl(workload, None, faults)
            }
            None => self.run_impl(workload, None, &mut self.no_faults()),
        }
    }

    /// The one engine behind every entry point.
    fn run_impl(
        &self,
        workload: &AppWorkload,
        mut timeline: Option<&mut Timeline>,
        faults: &mut PhoenixFaults,
    ) -> (ExecutionReport, PhaseTraffic) {
        let _span = telemetry::span_labeled("phoenix.exec", workload.name);
        let n = self.cfg.cores;
        let lat = self.cfg.remote_l2_latency;
        let cache = &self.cfg.cache;
        let master = self.cfg.master_core;
        let mut phases = PhaseBreakdown::default();
        let mut busy = vec![0.0f64; n];
        let mut map_flits = vec![0.0f64; n * n];
        let mut reduce_flits = vec![0.0f64; n * n];
        let mut merge_flits = vec![0.0f64; n * n];
        let mut steals = 0u64;
        let mut tasks_per_core = vec![0u32; n];
        let mut clock = 0.0f64;
        // Effective per-core speeds of the current fault slot.
        let mut speeds = Vec::with_capacity(n);

        for it in &workload.iterations {
            // --- Fault slot A: library init + Map ---
            faults.begin_slot(&self.cfg.core_speeds, &mut speeds);

            // --- Library init (serial, on the master core) ---
            let li_task =
                TaskWork::new(workload.lib_init_cycles, workload.lib_init_instructions, 0);
            let li_stall = cache.stall_cycles_per_inst(&it.map_memory, lat.lib_init);
            let li = task_duration(&li_task, speeds[master], li_stall);
            busy[master] += li;
            phases.lib_init += li;
            if let Some(t) = timeline.as_deref_mut() {
                t.push(Span {
                    core: master,
                    phase: PhaseKind::LibraryInit,
                    start: clock,
                    end: clock + li,
                    stolen: false,
                });
            }
            clock += li;

            // --- Map ---
            let map_stall = cache.stall_cycles_per_inst(&it.map_memory, lat.map);
            let map = self.run_phase(
                &it.map_tasks,
                map_stall,
                PhaseKind::Map,
                clock,
                &speeds,
                timeline.as_deref_mut(),
                faults,
            );
            phases.map += map.duration;
            clock += map.duration;
            for (t, &c) in map.executed_by.iter().enumerate() {
                busy[c] += task_duration(&it.map_tasks[t], speeds[c], map_stall);
                tasks_per_core[c] += 1;
            }
            steals += map.steals;
            self.account_memory_flits(
                &mut map_flits,
                &it.map_tasks,
                &map.executed_by,
                &it.map_memory,
                it.neighbor_bias,
            );

            // --- Fault slot B: Reduce ---
            faults.begin_slot(&self.cfg.core_speeds, &mut speeds);

            // --- Reduce ---
            let red_stall = cache.stall_cycles_per_inst(&it.reduce_memory, lat.reduce);
            let red = self.run_phase(
                &it.reduce_tasks,
                red_stall,
                PhaseKind::Reduce,
                clock,
                &speeds,
                timeline.as_deref_mut(),
                faults,
            );
            phases.reduce += red.duration;
            clock += red.duration;
            for (t, &c) in red.executed_by.iter().enumerate() {
                busy[c] += task_duration(&it.reduce_tasks[t], speeds[c], red_stall);
                tasks_per_core[c] += 1;
            }
            steals += red.steals;
            self.account_memory_flits(
                &mut reduce_flits,
                &it.reduce_tasks,
                &red.executed_by,
                &it.reduce_memory,
                it.neighbor_bias,
            );

            // --- Shuffle traffic: map cores → reduce cores, keys spread
            //     uniformly over buckets by hashing. In shared-memory
            //     Phoenix++ the transfer is cache-mediated: producers write
            //     container buckets back during Map and consumers fetch
            //     them during Reduce, so the flits split between the two
            //     windows instead of bursting into the (short) Reduce. ---
            if !it.reduce_tasks.is_empty() {
                let r = it.reduce_tasks.len() as f64;
                for (t, &c_m) in map.executed_by.iter().enumerate() {
                    let keys = it.map_tasks[t].keys_emitted as f64;
                    if keys == 0.0 {
                        continue;
                    }
                    let per_bucket = keys * it.kv_flits_per_key / r / 2.0;
                    for &c_r in &red.executed_by {
                        if c_m != c_r {
                            map_flits[c_m * n + c_r] += per_bucket;
                            reduce_flits[c_m * n + c_r] += per_bucket;
                        }
                    }
                }
            }

            // --- Fault slot C: Merge ---
            faults.begin_slot(&self.cfg.core_speeds, &mut speeds);

            // --- Merge: binary tree, active threads halve per level. After
            //     the hash-partitioned Reduce, each of the n partitions
            //     holds ~total_items/n keys; a merger at level l therefore
            //     combines two partitions of total_items·2^l/n keys each,
            //     so the critical path is ~2·total_items·cycles_per_item
            //     while early levels stay cheap and wide. ---
            if let Some(merge) = it.merge {
                let merge_stall = cache.stall_cycles_per_inst(&it.reduce_memory, lat.merge);
                let levels = (n as f64).log2().ceil() as u32;
                for l in 0..levels {
                    let stride = 1usize << (l + 1);
                    let half = 1usize << l;
                    let partition_items = merge.total_items * (1usize << l) as f64 / n as f64;
                    let merged_items = 2.0 * partition_items;
                    let mtask = TaskWork::new(
                        merged_items * merge.cycles_per_item,
                        merged_items * merge.instructions_per_item,
                        0,
                    );
                    let mut level_time = 0.0f64;
                    for merger in (0..n).step_by(stride) {
                        let partner = merger + half;
                        if partner >= n {
                            continue;
                        }
                        // The merge tree is positional; a dead merger's
                        // slot is serviced by the nearest survivor.
                        let m = faults.live_core(merger);
                        let dur = task_duration(&mtask, speeds[m], merge_stall);
                        busy[m] += dur;
                        if let Some(t) = timeline.as_deref_mut() {
                            t.push(Span {
                                core: m,
                                phase: PhaseKind::Merge,
                                start: clock,
                                end: clock + dur,
                                stolen: false,
                            });
                        }
                        level_time = level_time.max(dur);
                        // Partner ships its partition to the merger (its L2
                        // slice still holds the data even if the partner
                        // core itself is offline; self-traffic from a
                        // substitution lands on the ignored diagonal).
                        merge_flits[partner * n + m] += partition_items * merge.flits_per_item;
                    }
                    phases.merge += level_time;
                    clock += level_time;
                }
            }
        }

        let total = phases.total().max(1e-9);
        let utilization: Vec<f64> = busy.iter().map(|&b| (b / total).min(1.0)).collect();

        // Convert flit counts to packets per reference cycle: stage rates
        // are relative to each stage's own duration, the aggregate to the
        // whole execution.
        let to_matrix = |flits: &[f64], cycles: f64| -> TrafficMatrix {
            if cycles <= 0.0 {
                return TrafficMatrix::zeros(n);
            }
            TrafficMatrix::from_dense(
                n,
                flits.iter().map(|&f| f / PACKET_FLITS / cycles).collect(),
            )
        };
        let total_flits: Vec<f64> = (0..n * n)
            .map(|i| map_flits[i] + reduce_flits[i] + merge_flits[i])
            .collect();
        let traffic = to_matrix(&total_flits, total);
        let phase_traffic = PhaseTraffic {
            map: to_matrix(&map_flits, phases.map),
            reduce: to_matrix(&reduce_flits, phases.reduce),
            merge: to_matrix(&merge_flits, phases.merge),
        };

        telemetry::count(
            "phoenix.tasks_executed",
            tasks_per_core.iter().map(|&t| u64::from(t)).sum(),
        );
        telemetry::count("phoenix.tasks_stolen", steals);
        let report = ExecutionReport {
            name: workload.name,
            phases,
            busy_cycles: busy,
            utilization,
            traffic,
            steals,
            tasks_per_core,
        };
        (report, phase_traffic)
    }

    /// Event-driven scheduling of one task-parallel phase whose tasks stall
    /// `stall` cycles per instruction.
    ///
    /// A finishing core picks up more work itself; no idle-core rescan
    /// follows a completion. While tasks remain queued, a core only goes
    /// idle with capacity left when every queue is empty, so the only point
    /// that can restart an idle core is the cap lift below, which restarts
    /// all cores at once. A failed task does refill a queue, which can
    /// strand it with every other core idle until that lift; the retry
    /// backoff models that pickup delay.
    #[allow(clippy::too_many_arguments)]
    fn run_phase(
        &self,
        tasks: &[TaskWork],
        stall: f64,
        phase: PhaseKind,
        base: f64,
        speeds: &[f64],
        timeline: Option<&mut Timeline>,
        faults: &mut PhoenixFaults,
    ) -> PhaseOutcome {
        let n = self.cfg.cores;
        faults.begin_phase(tasks.len());
        if tasks.is_empty() {
            return PhaseOutcome {
                duration: 0.0,
                executed_by: Vec::new(),
                steals: 0,
            };
        }

        // Round-robin initial assignment (Phoenix chunk distribution).
        let mut queues = vec![VecDeque::new(); n];
        for t in 0..tasks.len() {
            queues[t % n].push_back(t);
        }
        let mut caps = caps_for_phase(self.cfg.steal_policy, tasks.len(), speeds);
        faults.mask_caps(&mut caps);
        let mut ctx = PhaseCtx {
            tasks,
            speeds,
            stall,
            steal_overhead: self.cfg.steal_overhead_cycles,
            phase,
            base,
            queues,
            caps,
            done: vec![0; n],
            events: EventQueue::new(),
            executed_by: vec![usize::MAX; tasks.len()],
            queued: tasks.len(),
            steals: 0,
            timeline,
            faults,
        };

        // Start as many cores as possible at t = 0.
        for core in 0..n {
            ctx.start_core(core, 0.0);
        }

        let mut phase_end = 0.0f64;
        loop {
            while let Some((now, ev)) = ctx.events.pop() {
                phase_end = phase_end.max(now);
                // A failed attempt re-enters the queues before the
                // finishing core looks for more work, so the retry is
                // immediately stealable (possibly by the same core).
                if ctx.faults.task_failed(ev.task) {
                    ctx.queues[ev.core].push_back(ev.task);
                    ctx.queued += 1;
                }
                ctx.start_core(ev.core, now);
            }
            if ctx.queued == 0 {
                break;
            }
            // Every core hit its cap while tasks remain (possible only when
            // no core runs at f_max): lift the caps and resume the whole
            // platform at the current phase end. Offline cores stay masked
            // at zero — survivors drain the leftovers.
            ctx.caps.fill(usize::MAX);
            ctx.faults.mask_caps(&mut ctx.caps);
            for core in 0..n {
                ctx.start_core(core, phase_end);
            }
        }

        debug_assert!(ctx.executed_by.iter().all(|&c| c != usize::MAX));
        PhaseOutcome {
            duration: phase_end,
            executed_by: ctx.executed_by,
            steals: ctx.steals,
        }
    }

    /// Distributes the memory traffic of executed tasks: requests to home L2
    /// slices and line-sized replies back, with a neighbour-locality bias.
    fn account_memory_flits(
        &self,
        flits: &mut [f64],
        tasks: &[TaskWork],
        executed_by: &[usize],
        memory: &MemoryProfile,
        neighbor_bias: f64,
    ) {
        let n = self.cfg.cores;
        if n < 2 {
            return;
        }
        let cache = &self.cfg.cache;
        let line_flits = cache.line_flits() as f64;
        let uniform = (1.0 - neighbor_bias) / (n - 1) as f64;
        for (t, &c) in executed_by.iter().enumerate() {
            let accesses = tasks[t].instructions
                * (memory.l1_mpki / 1000.0)
                * memory.remote_fraction
                * cache.network_fraction;
            if accesses <= 0.0 {
                continue;
            }
            let req = accesses; // 1 flit per request
            let rep = accesses * line_flits;
            // Neighbour share: split over up to 2·NEIGHBORHOOD nearby cores.
            let neighbors: Vec<usize> = (1..=NEIGHBORHOOD)
                .flat_map(|off| [c.checked_sub(off), Some(c + off).filter(|&d| d < n)])
                .flatten()
                .collect();
            let share = neighbor_bias / neighbors.len() as f64;
            for &d in &neighbors {
                flits[c * n + d] += req * share;
                flits[d * n + c] += rep * share;
            }
            for d in 0..n {
                if d != c {
                    flits[c * n + d] += req * uniform;
                    flits[d * n + c] += rep * uniform;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{IterationWorkload, MergeSpec};
    use mapwave_noc::NodeId;

    fn simple_workload(tasks: usize, cycles: f64) -> AppWorkload {
        AppWorkload {
            name: "test",
            lib_init_cycles: 1_000.0,
            lib_init_instructions: 500.0,
            iterations: vec![IterationWorkload {
                map_tasks: vec![TaskWork::new(cycles, cycles / 2.0, 10); tasks],
                reduce_tasks: vec![TaskWork::new(cycles / 10.0, cycles / 20.0, 0); 8],
                merge: Some(MergeSpec {
                    total_items: 100.0,
                    cycles_per_item: 5.0,
                    instructions_per_item: 2.0,
                    flits_per_item: 4.0,
                }),
                map_memory: MemoryProfile::new(10.0, 0.05, 0.9),
                reduce_memory: MemoryProfile::new(5.0, 0.05, 0.9),
                kv_flits_per_key: 4.0,
                neighbor_bias: 0.1,
            }],
            digest: 42,
        }
    }

    #[test]
    fn all_tasks_execute_exactly_once() {
        let exec = Executor::new(RuntimeConfig::nvfi(8));
        let report = exec.run(&simple_workload(37, 10_000.0));
        assert_eq!(
            report
                .tasks_per_core
                .iter()
                .map(|&t| t as usize)
                .sum::<usize>(),
            37 + 8
        );
    }

    #[test]
    fn balanced_tasks_give_homogeneous_utilization() {
        let exec = Executor::new(RuntimeConfig::nvfi(8));
        let report = exec.run(&simple_workload(64, 50_000.0));
        let u = &report.utilization;
        let max = u.iter().cloned().fold(0.0, f64::max);
        let min = u.iter().cloned().fold(1.0, f64::min);
        assert!(max - min < 0.3, "utilization spread too wide: {u:?}");
        assert!(report.avg_utilization() > 0.5);
    }

    #[test]
    fn master_core_is_busiest_with_long_lib_init() {
        let mut w = simple_workload(64, 10_000.0);
        w.lib_init_cycles = 200_000.0;
        let exec = Executor::new(RuntimeConfig::nvfi(8));
        let report = exec.run(&w);
        let master_u = report.utilization[0];
        assert!(
            report.utilization.iter().skip(1).all(|&u| u < master_u),
            "master must be the bottleneck: {:?}",
            report.utilization
        );
    }

    #[test]
    fn slower_cores_stretch_execution() {
        let w = simple_workload(64, 50_000.0);
        let fast = Executor::new(RuntimeConfig::nvfi(8)).run(&w);
        let slow = Executor::new(RuntimeConfig::nvfi(8).with_speeds(vec![0.6; 8])).run(&w);
        let ratio = slow.total_cycles() / fast.total_cycles();
        assert!(
            ratio > 1.3 && ratio < 1.8,
            "expected ~1/0.6 stretch, got {ratio}"
        );
    }

    #[test]
    fn stealing_happens_with_imbalanced_work() {
        // One heavy task among light ones forces idle cores to steal.
        let mut w = simple_workload(16, 1_000.0);
        w.iterations[0].map_tasks[0] = TaskWork::new(500_000.0, 1_000.0, 10);
        let exec = Executor::new(RuntimeConfig::nvfi(8));
        let report = exec.run(&w);
        assert!(report.steals > 0);
    }

    #[test]
    fn vfi_capped_reduces_slow_core_tasks() {
        // The paper's Section 4.3 pathology in miniature: a slow core that
        // finishes its short initial task early would, under default
        // stealing, pick up the long tail task and stretch the phase; the
        // Eq. (3) cap leaves that task for the fast core.
        let speeds = vec![0.8, 1.0];
        let mut w = simple_workload(3, 0.0);
        w.iterations[0].map_tasks = vec![
            TaskWork::new(100_000.0, 0.0, 10), // short, on the slow core
            TaskWork::new(200_000.0, 0.0, 10), // on the fast core
            TaskWork::new(400_000.0, 0.0, 10), // tail task, queued at core 0
        ];
        w.iterations[0].reduce_tasks.clear();
        w.iterations[0].merge = None;
        let default_run = Executor::new(
            RuntimeConfig::nvfi(2)
                .with_speeds(speeds.clone())
                .with_steal_policy(StealPolicy::Default),
        )
        .run(&w);
        let capped_run = Executor::new(
            RuntimeConfig::nvfi(2)
                .with_speeds(speeds)
                .with_steal_policy(StealPolicy::VfiCapped),
        )
        .run(&w);
        let slow_default: u32 = default_run.tasks_per_core[..1].iter().sum();
        let slow_capped: u32 = capped_run.tasks_per_core[..1].iter().sum();
        assert!(
            slow_capped < slow_default,
            "cap must shift work to fast cores ({slow_capped} vs {slow_default})"
        );
        // In this regime the modified policy must be strictly faster.
        assert!(
            capped_run.phases.map < default_run.phases.map,
            "capped {} vs default {}",
            capped_run.phases.map,
            default_run.phases.map
        );
    }

    #[test]
    fn all_slow_cores_still_complete() {
        // No core at f_max: caps must be lifted rather than deadlock.
        let w = simple_workload(32, 10_000.0);
        let exec = Executor::new(
            RuntimeConfig::nvfi(4)
                .with_speeds(vec![0.8, 0.8, 0.6, 0.6])
                .with_steal_policy(StealPolicy::VfiCapped),
        );
        let report = exec.run(&w);
        assert_eq!(
            report
                .tasks_per_core
                .iter()
                .map(|&t| t as usize)
                .sum::<usize>(),
            32 + 8
        );
    }

    #[test]
    fn higher_network_latency_stretches_execution() {
        let w = simple_workload(64, 20_000.0);
        let near = Executor::new(RuntimeConfig::nvfi(8).with_remote_latency(20.0)).run(&w);
        let far = Executor::new(RuntimeConfig::nvfi(8).with_remote_latency(200.0)).run(&w);
        assert!(far.total_cycles() > near.total_cycles());
    }

    #[test]
    fn traffic_matrix_is_populated() {
        let exec = Executor::new(RuntimeConfig::nvfi(8));
        let report = exec.run(&simple_workload(64, 20_000.0));
        assert!(report.traffic.total_rate() > 0.0);
        // Diagonal stays empty.
        for i in 0..8 {
            assert_eq!(report.traffic.rate(NodeId(i), NodeId(i)), 0.0);
        }
    }

    #[test]
    fn neighbor_bias_concentrates_traffic() {
        let mut w = simple_workload(64, 20_000.0);
        w.iterations[0].neighbor_bias = 0.0;
        let uniform = Executor::new(RuntimeConfig::nvfi(8)).run(&w);
        w.iterations[0].neighbor_bias = 0.9;
        let local = Executor::new(RuntimeConfig::nvfi(8)).run(&w);
        // Traffic between cores 0 and 1 (adjacent) grows with bias.
        assert!(
            local.traffic.rate(NodeId(0), NodeId(1)) > uniform.traffic.rate(NodeId(0), NodeId(1))
        );
    }

    #[test]
    fn deterministic_execution() {
        let w = simple_workload(50, 30_000.0);
        let a = Executor::new(RuntimeConfig::nvfi(8)).run(&w);
        let b = Executor::new(RuntimeConfig::nvfi(8)).run(&w);
        assert_eq!(a, b);
    }

    #[test]
    fn merge_busy_lands_on_tree_mergers() {
        let exec = Executor::new(RuntimeConfig::nvfi(8));
        let report = exec.run(&simple_workload(8, 1_000.0));
        // Core 0 merges at every level; core 1 never merges.
        assert!(report.busy_cycles[0] > report.busy_cycles[1]);
        assert!(report.phases.merge > 0.0);
    }

    #[test]
    fn timeline_is_consistent_with_report() {
        let w = simple_workload(40, 20_000.0);
        let exec = Executor::new(RuntimeConfig::nvfi(8));
        let (report, timeline) = exec.run_traced(&w);
        // The schedule's makespan is the reported execution time.
        assert!(
            (timeline.makespan() - report.total_cycles()).abs() < 1e-6 * report.total_cycles(),
            "makespan {} vs total {}",
            timeline.makespan(),
            report.total_cycles()
        );
        // Per-core busy agrees with the report.
        for core in 0..8 {
            assert!(
                (timeline.busy(core) - report.busy_cycles[core]).abs()
                    < 1e-6 * report.busy_cycles[core].max(1.0),
                "core {core}"
            );
        }
        // Steal spans match the steal counter.
        assert_eq!(timeline.steals() as u64, report.steals);
        // Stage totals are all represented.
        use crate::task::PhaseKind;
        assert!(timeline.stage_busy(PhaseKind::Map) > 0.0);
        assert!(timeline.stage_busy(PhaseKind::LibraryInit) > 0.0);
    }

    #[test]
    fn empty_iteration_zero_cost_phases() {
        let w = AppWorkload {
            name: "empty",
            lib_init_cycles: 100.0,
            lib_init_instructions: 0.0,
            iterations: vec![IterationWorkload {
                map_tasks: vec![],
                reduce_tasks: vec![],
                merge: None,
                map_memory: MemoryProfile::new(0.0, 0.0, 0.0),
                reduce_memory: MemoryProfile::new(0.0, 0.0, 0.0),
                kv_flits_per_key: 0.0,
                neighbor_bias: 0.0,
            }],
            digest: 0,
        };
        let report = Executor::new(RuntimeConfig::nvfi(4)).run(&w);
        assert_eq!(report.phases.map, 0.0);
        assert_eq!(report.phases.reduce, 0.0);
        assert_eq!(report.phases.merge, 0.0);
        assert!(report.phases.lib_init > 0.0);
    }
}
