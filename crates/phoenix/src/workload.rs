//! Workload descriptions and execution reports.
//!
//! Running an application produces an [`AppWorkload`]: the measured cost of
//! every task of every MapReduce iteration, plus the memory behaviour of
//! each phase. The [`crate::runtime::Executor`] replays a workload on a
//! modelled platform (frequencies, steal policy, network latency) and
//! produces an [`ExecutionReport`] — per-phase times, per-core utilization
//! and the inter-core traffic matrix, i.e. exactly the observables the paper
//! extracts from GEM5.

use crate::task::TaskWork;
use mapwave_manycore::cache::MemoryProfile;
use mapwave_noc::TrafficMatrix;

/// The merge tree of one iteration (paper Fig. 1: log-depth sub-stages with
/// halving thread counts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeSpec {
    /// Items (typically unique keys) each merge step processes.
    pub total_items: f64,
    /// Compute cycles per merged item.
    pub cycles_per_item: f64,
    /// Instructions per merged item.
    pub instructions_per_item: f64,
    /// Flits transferred per item when a partner partition moves.
    pub flits_per_item: f64,
}

/// One MapReduce iteration of an application.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationWorkload {
    /// Map tasks in creation order (round-robin assigned to cores).
    pub map_tasks: Vec<TaskWork>,
    /// Reduce tasks in bucket order.
    pub reduce_tasks: Vec<TaskWork>,
    /// Merge tree, if the application has a Merge phase.
    pub merge: Option<MergeSpec>,
    /// Memory behaviour during Map.
    pub map_memory: MemoryProfile,
    /// Memory behaviour during Reduce.
    pub reduce_memory: MemoryProfile,
    /// Flits moved per emitted key during the Map→Reduce shuffle.
    pub kv_flits_per_key: f64,
    /// Fraction of memory traffic biased to nearby cores (0 = uniform across
    /// all L2 slices, 1 = fully neighbour-local). Linear Regression's
    /// streaming pattern is strongly local; hash-spread workloads are not.
    pub neighbor_bias: f64,
}

/// A complete application workload (possibly multiple iterations).
#[derive(Debug, Clone, PartialEq)]
pub struct AppWorkload {
    /// Application name (for reports).
    pub name: &'static str,
    /// Serial library-initialisation + split cycles on the master core, per
    /// iteration.
    pub lib_init_cycles: f64,
    /// Instructions attributed to library initialisation.
    pub lib_init_instructions: f64,
    /// The MapReduce iterations (Kmeans and PCA have two).
    pub iterations: Vec<IterationWorkload>,
    /// Hash of the real computed output (correctness witness: the synthetic
    /// inputs are actually processed, not just costed).
    pub digest: u64,
}

impl AppWorkload {
    /// Total map tasks across iterations.
    pub fn total_map_tasks(&self) -> usize {
        self.iterations.iter().map(|i| i.map_tasks.len()).sum()
    }

    /// Total modelled compute cycles across all tasks and phases (excluding
    /// stalls, which depend on the platform).
    pub fn total_compute_cycles(&self) -> f64 {
        let mut total = self.lib_init_cycles * self.iterations.len() as f64;
        for it in &self.iterations {
            total += it.map_tasks.iter().map(|t| t.cycles).sum::<f64>();
            total += it.reduce_tasks.iter().map(|t| t.cycles).sum::<f64>();
            if let Some(m) = it.merge {
                // One tree of log2(C) levels; cost accounted per level at
                // execution time — here a nominal single pass.
                total += m.total_items * m.cycles_per_item;
            }
        }
        total
    }
}

/// Per-stage remote-L2 round-trip latencies (reference cycles), as
/// measured by phase-resolved NoC simulation. Each stage's traffic pattern
/// loads the network differently, so each sees its own latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseLatencies {
    /// Latency during library initialisation.
    pub lib_init: f64,
    /// Latency during Map.
    pub map: f64,
    /// Latency during Reduce.
    pub reduce: f64,
    /// Latency during Merge.
    pub merge: f64,
}

impl PhaseLatencies {
    /// The same latency for every stage (the single-pass approximation).
    pub fn uniform(latency: f64) -> Self {
        PhaseLatencies {
            lib_init: latency,
            map: latency,
            reduce: latency,
            merge: latency,
        }
    }
}

impl Default for PhaseLatencies {
    fn default() -> Self {
        PhaseLatencies::uniform(40.0)
    }
}

/// Per-stage traffic matrices of one execution (packets per reference
/// cycle *of that stage's duration*): the input to phase-resolved NoC
/// simulation.
///
/// Only [`Executor::run_staged`](crate::runtime::Executor::run_staged)
/// returns them, beside the [`ExecutionReport`]. The full-system run keeps
/// them for one relaxation round's stage windows (the last round's also
/// for the stage energy) and drops them when it returns, so no report
/// that outlives its run holds three more dense `n × n` matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTraffic {
    /// Map-stage traffic (memory/coherence).
    pub map: TrafficMatrix,
    /// Reduce-stage traffic (memory + key shuffle).
    pub reduce: TrafficMatrix,
    /// Merge-stage traffic (partition movement).
    pub merge: TrafficMatrix,
}

/// Time spent in each execution stage, in reference-clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// Library initialisation (incl. Split).
    pub lib_init: f64,
    /// Map.
    pub map: f64,
    /// Reduce.
    pub reduce: f64,
    /// Merge.
    pub merge: f64,
}

impl PhaseBreakdown {
    /// Total execution time in reference cycles.
    pub fn total(&self) -> f64 {
        self.lib_init + self.map + self.reduce + self.merge
    }

    /// Adds another breakdown (accumulating iterations).
    pub fn accumulate(&mut self, other: PhaseBreakdown) {
        self.lib_init += other.lib_init;
        self.map += other.map;
        self.reduce += other.reduce;
        self.merge += other.merge;
    }

    /// Scales every phase (e.g. normalising to a baseline).
    pub fn scaled(&self, factor: f64) -> PhaseBreakdown {
        PhaseBreakdown {
            lib_init: self.lib_init * factor,
            map: self.map * factor,
            reduce: self.reduce * factor,
            merge: self.merge * factor,
        }
    }
}

/// The observables of one execution on one platform configuration.
///
/// It holds one dense `n × n` matrix, the whole-run [`Self::traffic`]. The
/// per-stage matrices are not part of it: they go only to callers of
/// [`Executor::run_staged`](crate::runtime::Executor::run_staged), as a
/// [`PhaseTraffic`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Application name.
    pub name: &'static str,
    /// Per-phase times (reference cycles), summed over iterations.
    pub phases: PhaseBreakdown,
    /// Busy reference-cycles per logical core.
    pub busy_cycles: Vec<f64>,
    /// Busy fraction per logical core over the whole run — the paper's
    /// committed-IPC utilization proxy (Fig. 2 input).
    pub utilization: Vec<f64>,
    /// Inter-core traffic in packets per reference cycle (logical space),
    /// aggregated over the whole execution.
    pub traffic: TrafficMatrix,
    /// Number of successful steals.
    pub steals: u64,
    /// Tasks executed per core (map + reduce).
    pub tasks_per_core: Vec<u32>,
}

impl ExecutionReport {
    /// Total execution time in reference cycles.
    pub fn total_cycles(&self) -> f64 {
        self.phases.total()
    }

    /// Wall-clock seconds at the given reference clock.
    pub fn exec_seconds(&self, ref_ghz: f64) -> f64 {
        self.total_cycles() / (ref_ghz * 1e9)
    }

    /// Mean utilization over all cores.
    pub fn avg_utilization(&self) -> f64 {
        if self.utilization.is_empty() {
            0.0
        } else {
            self.utilization.iter().sum::<f64>() / self.utilization.len() as f64
        }
    }

    /// Utilization values sorted descending — the layout of the paper's
    /// Fig. 2 bars.
    pub fn sorted_utilization(&self) -> Vec<f64> {
        let mut u = self.utilization.clone();
        u.sort_by(|a, b| b.partial_cmp(a).expect("utilizations are finite"));
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_breakdown_total() {
        let p = PhaseBreakdown {
            lib_init: 1.0,
            map: 10.0,
            reduce: 3.0,
            merge: 2.0,
        };
        assert_eq!(p.total(), 16.0);
        assert_eq!(p.scaled(0.5).total(), 8.0);
    }

    #[test]
    fn phase_breakdown_accumulate() {
        let mut a = PhaseBreakdown::default();
        a.accumulate(PhaseBreakdown {
            lib_init: 1.0,
            map: 2.0,
            reduce: 3.0,
            merge: 4.0,
        });
        a.accumulate(PhaseBreakdown {
            lib_init: 1.0,
            map: 2.0,
            reduce: 3.0,
            merge: 4.0,
        });
        assert_eq!(a.total(), 20.0);
        assert_eq!(a.map, 4.0);
    }

    #[test]
    fn report_exec_seconds() {
        let r = ExecutionReport {
            name: "t",
            phases: PhaseBreakdown {
                lib_init: 0.0,
                map: 2.5e9,
                reduce: 0.0,
                merge: 0.0,
            },
            busy_cycles: vec![],
            utilization: vec![0.2, 0.8],
            traffic: TrafficMatrix::zeros(2),
            steals: 0,
            tasks_per_core: vec![],
        };
        assert!((r.exec_seconds(2.5) - 1.0).abs() < 1e-9);
        assert!((r.avg_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(r.sorted_utilization(), vec![0.8, 0.2]);
    }

    #[test]
    fn workload_totals() {
        let w = AppWorkload {
            name: "t",
            lib_init_cycles: 100.0,
            lib_init_instructions: 50.0,
            iterations: vec![IterationWorkload {
                map_tasks: vec![TaskWork::new(10.0, 5.0, 1); 4],
                reduce_tasks: vec![TaskWork::new(2.0, 1.0, 0); 2],
                merge: None,
                map_memory: MemoryProfile::new(10.0, 0.1, 0.9),
                reduce_memory: MemoryProfile::new(5.0, 0.1, 0.9),
                kv_flits_per_key: 4.0,
                neighbor_bias: 0.1,
            }],
            digest: 0,
        };
        assert_eq!(w.total_map_tasks(), 4);
        assert!((w.total_compute_cycles() - (100.0 + 40.0 + 4.0)).abs() < 1e-9);
    }
}
