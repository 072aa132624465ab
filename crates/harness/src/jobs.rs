//! The job-graph orchestrator.
//!
//! An evaluation decomposes into typed jobs — profile an app, design its
//! VFIs, run one system at one seed, aggregate a figure — each a pure
//! function of its dependencies' outputs. [`JobGraph`] tracks those
//! dependencies and executes ready jobs on a scoped `std::thread` worker
//! pool sized by the caller (usually [`available_parallelism`]).
//!
//! **Serial equivalence.** Every job is single-threaded and deterministic,
//! and [`JobGraph::run`] returns outputs indexed by [`JobId`] in insertion
//! order regardless of completion order. A run with N workers therefore
//! produces byte-identical results to `run(1)`, which executes jobs in
//! insertion order exactly like the pre-harness serial loops.
//!
//! # Examples
//!
//! ```
//! use mapwave_harness::jobs::JobGraph;
//!
//! let mut g: JobGraph<u64> = JobGraph::new();
//! let a = g.add("a", vec![], |_| 2);
//! let b = g.add("b", vec![], |_| 3);
//! let sum = g.add("sum", vec![a, b], |deps| deps[0] + deps[1]);
//! let out = g.run(4);
//! assert_eq!(out[sum], 5);
//! ```

use crate::telemetry;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// Index of a job within its graph (also its index in [`JobGraph::run`]'s
/// output vector).
pub type JobId = usize;

type Work<T> = Box<dyn FnOnce(&[&T]) -> T + Send>;

struct Job<T> {
    label: String,
    deps: Vec<JobId>,
    work: Work<T>,
}

/// A dependency graph of typed jobs. See the module docs.
pub struct JobGraph<T> {
    jobs: Vec<Job<T>>,
}

impl<T> Default for JobGraph<T> {
    fn default() -> Self {
        JobGraph::new()
    }
}

impl<T> JobGraph<T> {
    /// An empty graph.
    pub fn new() -> Self {
        JobGraph { jobs: Vec::new() }
    }

    /// Number of jobs added so far.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the graph has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Adds a job depending on `deps` (all of which must already be added,
    /// which makes cycles unrepresentable) and returns its [`JobId`].
    ///
    /// `work` receives its dependencies' outputs in `deps` order.
    ///
    /// # Panics
    ///
    /// Panics if a dependency id has not been added yet.
    pub fn add(
        &mut self,
        label: impl Into<String>,
        deps: Vec<JobId>,
        work: impl FnOnce(&[&T]) -> T + Send + 'static,
    ) -> JobId {
        let id = self.jobs.len();
        for &d in &deps {
            assert!(d < id, "job dependency {d} added after dependent {id}");
        }
        self.jobs.push(Job {
            label: label.into(),
            deps,
            work: Box::new(work),
        });
        id
    }
}

impl<T: Send + Sync> JobGraph<T> {
    /// Executes every job and returns their outputs indexed by [`JobId`].
    ///
    /// `threads == 1` (or a single-job graph) runs inline in insertion
    /// order; larger values use a scoped worker pool. Output is identical
    /// either way.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any job after the pool drains.
    pub fn run(self, threads: usize) -> Vec<T> {
        let (_, results) = self.execute(threads, &mut |_, _| true);
        results
            .into_iter()
            .map(|slot| {
                let arc = slot.expect("all jobs completed");
                Arc::try_unwrap(arc)
                    .unwrap_or_else(|_| unreachable!("dependency Arcs are dropped before drain"))
            })
            .collect()
    }

    /// Executes jobs, committing each completed job **in insertion order**
    /// through `commit` — the checkpointing hook behind `mapwave-sweep`'s
    /// resumable engine.
    ///
    /// Workers complete jobs in any order, but `commit(id, &output)` is
    /// invoked on the calling thread strictly in [`JobId`] order, so an
    /// append-only journal written from `commit` is byte-identical for any
    /// worker count. Returning `false` from `commit` stops the run early:
    /// no further jobs are committed, idle workers drain, and jobs that
    /// never ran are abandoned (their side effects simply don't happen —
    /// a resumed run re-adds them).
    ///
    /// Returns the number of committed jobs (`== len()` unless stopped
    /// early).
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any job after the pool drains; jobs
    /// committed before the panic stay committed.
    pub fn run_checkpointed(
        self,
        threads: usize,
        mut commit: impl FnMut(JobId, &T) -> bool,
    ) -> usize {
        self.execute(threads, &mut commit).0
    }

    /// The one executor behind [`JobGraph::run`] and
    /// [`JobGraph::run_checkpointed`]: returns the committed count and the
    /// result slots (`None` for jobs abandoned by an early stop).
    fn execute(
        self,
        threads: usize,
        commit: &mut dyn FnMut(JobId, &T) -> bool,
    ) -> (usize, Vec<Option<Arc<T>>>) {
        let n = self.jobs.len();
        let threads = threads.max(1).min(n.max(1));
        if threads == 1 {
            // Inline on the calling thread, in insertion order.
            let mut results: Vec<Option<Arc<T>>> = Vec::with_capacity(n);
            for (id, job) in self.jobs.into_iter().enumerate() {
                let out = {
                    let dep_results: Vec<&T> = job
                        .deps
                        .iter()
                        .map(|&d| results[d].as_deref().expect("deps precede dependents"))
                        .collect();
                    let _span = telemetry::span_labeled("harness.job", job.label);
                    (job.work)(&dep_results)
                };
                telemetry::count("harness.jobs_executed", 1);
                let go_on = commit(id, &out);
                results.push(Some(Arc::new(out)));
                if !go_on {
                    break;
                }
            }
            let committed = results.len();
            results.resize_with(n, || None);
            return (committed, results);
        }
        self.execute_pool(threads, commit)
    }

    fn execute_pool(
        self,
        threads: usize,
        commit: &mut dyn FnMut(JobId, &T) -> bool,
    ) -> (usize, Vec<Option<Arc<T>>>) {
        struct Exec<T> {
            pending: Vec<Option<Job<T>>>,
            dependents: Vec<Vec<JobId>>,
            indegree: Vec<usize>,
            ready: VecDeque<JobId>,
            results: Vec<Option<Arc<T>>>,
            remaining: usize,
            stop: bool,
            panic: Option<Box<dyn std::any::Any + Send>>,
        }

        let n = self.jobs.len();
        let mut dependents = vec![Vec::new(); n];
        let mut indegree = vec![0usize; n];
        for (id, job) in self.jobs.iter().enumerate() {
            indegree[id] = job.deps.len();
            for &d in &job.deps {
                dependents[d].push(id);
            }
        }
        let ready: VecDeque<JobId> = (0..n).filter(|&id| indegree[id] == 0).collect();

        let exec = Mutex::new(Exec {
            pending: self.jobs.into_iter().map(Some).collect(),
            dependents,
            indegree,
            ready,
            results: (0..n).map(|_| None).collect(),
            remaining: n,
            stop: false,
            panic: None,
        });
        let cv = Condvar::new();
        let mut committed = 0usize;

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut guard = exec.lock().expect("job pool poisoned");
                    loop {
                        if guard.remaining == 0 || guard.stop || guard.panic.is_some() {
                            cv.notify_all();
                            break;
                        }
                        let Some(id) = guard.ready.pop_front() else {
                            guard = cv.wait(guard).expect("job pool poisoned");
                            continue;
                        };
                        let job = guard.pending[id].take().expect("job scheduled once");
                        let dep_arcs: Vec<Arc<T>> = job
                            .deps
                            .iter()
                            .map(|&d| {
                                Arc::clone(
                                    guard.results[d]
                                        .as_ref()
                                        .expect("deps complete before dependents"),
                                )
                            })
                            .collect();
                        drop(guard);

                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            let dep_refs: Vec<&T> = dep_arcs.iter().map(Arc::as_ref).collect();
                            let _span = telemetry::span_labeled("harness.job", job.label);
                            (job.work)(&dep_refs)
                        }));
                        telemetry::count("harness.jobs_executed", 1);
                        telemetry::flush();

                        guard = exec.lock().expect("job pool poisoned");
                        match outcome {
                            Ok(value) => {
                                guard.results[id] = Some(Arc::new(value));
                                guard.remaining -= 1;
                                let unlocked: Vec<JobId> = guard.dependents[id]
                                    .clone()
                                    .into_iter()
                                    .filter(|&dep| {
                                        guard.indegree[dep] -= 1;
                                        guard.indegree[dep] == 0
                                    })
                                    .collect();
                                guard.ready.extend(unlocked);
                                cv.notify_all();
                            }
                            Err(payload) => {
                                guard.panic.get_or_insert(payload);
                                cv.notify_all();
                                break;
                            }
                        }
                    }
                });
            }

            // The calling thread is the committer: it releases completed
            // jobs in insertion order, so journals written from `commit`
            // are deterministic for any worker count.
            let mut guard = exec.lock().expect("job pool poisoned");
            while committed < n && guard.panic.is_none() {
                let Some(arc) = guard.results[committed].as_ref().map(Arc::clone) else {
                    guard = cv.wait(guard).expect("job pool poisoned");
                    continue;
                };
                drop(guard);
                let go_on = commit(committed, arc.as_ref());
                committed += 1;
                guard = exec.lock().expect("job pool poisoned");
                if !go_on {
                    guard.stop = true;
                    cv.notify_all();
                    break;
                }
            }
        });

        let mut exec = exec.into_inner().expect("job pool poisoned");
        if let Some(payload) = exec.panic.take() {
            resume_unwind(payload);
        }
        (committed, exec.results)
    }
}

/// The worker count to use when the caller does not specify one.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> JobGraph<String> {
        let mut g: JobGraph<String> = JobGraph::new();
        let root = g.add("root", vec![], |_| "r".to_string());
        let left = g.add("left", vec![root], |d| format!("{}-l", d[0]));
        let right = g.add("right", vec![root], |d| format!("{}-r", d[0]));
        g.add("join", vec![left, right], |d| format!("{}+{}", d[0], d[1]));
        g
    }

    #[test]
    fn serial_runs_in_insertion_order() {
        let out = diamond().run(1);
        assert_eq!(out, vec!["r", "r-l", "r-r", "r-l+r-r"]);
    }

    /// Two independent chains added interleaved (`a0 a1 b0 b1 a2 b2`): a
    /// breadth-first ready queue would run `a0 b0 a1 b1 a2 b2`, so only a
    /// true inline serial loop logs insertion order.
    #[test]
    fn one_worker_runs_inline_in_insertion_order() {
        type Log = Arc<Mutex<Vec<(JobId, std::thread::ThreadId)>>>;
        fn interleaved_chains(log: &Log) -> JobGraph<JobId> {
            let mut g: JobGraph<JobId> = JobGraph::new();
            let add = |g: &mut JobGraph<JobId>, deps: Vec<JobId>| {
                let log = Arc::clone(log);
                let id = g.len();
                g.add(format!("job/{id}"), deps, move |_| {
                    log.lock().unwrap().push((id, std::thread::current().id()));
                    id
                })
            };
            let a0 = add(&mut g, vec![]);
            let a1 = add(&mut g, vec![a0]);
            let b0 = add(&mut g, vec![]);
            let b1 = add(&mut g, vec![b0]);
            add(&mut g, vec![a1]);
            add(&mut g, vec![b1]);
            g
        }
        let caller = std::thread::current().id();
        let expected: Vec<(JobId, std::thread::ThreadId)> = (0..6).map(|i| (i, caller)).collect();

        let log: Log = Arc::default();
        assert_eq!(interleaved_chains(&log).run(1), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(*log.lock().unwrap(), expected, "run(1)");

        let log: Log = Arc::default();
        let committed = interleaved_chains(&log).run_checkpointed(1, |_, _| true);
        assert_eq!(committed, 6);
        assert_eq!(*log.lock().unwrap(), expected, "run_checkpointed(1)");
    }

    #[test]
    fn parallel_matches_serial() {
        for threads in [2, 4, 8] {
            assert_eq!(diamond().run(threads), diamond().run(1));
        }
    }

    #[test]
    fn wide_fanout_completes() {
        let mut g: JobGraph<u64> = JobGraph::new();
        let seeds: Vec<JobId> = (0..40u64)
            .map(|i| g.add(format!("leaf/{i}"), vec![], move |_| i * i))
            .collect();
        let total = g.add("sum", seeds.clone(), |deps| deps.iter().map(|v| **v).sum());
        let out = g.run(8);
        assert_eq!(out[total], (0..40u64).map(|i| i * i).sum());
        for (i, &s) in seeds.iter().enumerate() {
            assert_eq!(out[s], (i * i) as u64);
        }
    }

    #[test]
    fn chains_respect_dependencies() {
        let mut g: JobGraph<u64> = JobGraph::new();
        let mut prev = g.add("start", vec![], |_| 1);
        for i in 0..20 {
            prev = g.add(format!("step/{i}"), vec![prev], |d| d[0] + 1);
        }
        assert_eq!(g.run(4)[prev], 21);
    }

    #[test]
    #[should_panic(expected = "added after dependent")]
    fn forward_dependencies_are_rejected() {
        let mut g: JobGraph<u8> = JobGraph::new();
        g.add("bad", vec![3], |_| 0);
    }

    #[test]
    fn job_panic_propagates_from_pool() {
        let mut g: JobGraph<u8> = JobGraph::new();
        g.add("ok", vec![], |_| 1);
        g.add("boom", vec![], |_| panic!("job failure"));
        for _ in 0..16 {
            g.add("filler", vec![], |_| 0);
        }
        let result = catch_unwind(AssertUnwindSafe(|| g.run(4)));
        assert!(result.is_err(), "pool re-raises the job panic");
    }

    #[test]
    fn checkpoint_commits_in_insertion_order() {
        for threads in [1, 4] {
            let mut order = Vec::new();
            let committed = diamond().run_checkpointed(threads, |id, out| {
                order.push((id, out.clone()));
                true
            });
            assert_eq!(committed, 4, "threads={threads}");
            assert_eq!(
                order,
                vec![
                    (0, "r".to_string()),
                    (1, "r-l".to_string()),
                    (2, "r-r".to_string()),
                    (3, "r-l+r-r".to_string()),
                ],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn checkpoint_stops_early_when_commit_declines() {
        for threads in [1, 4] {
            let mut g: JobGraph<u64> = JobGraph::new();
            for i in 0..32u64 {
                g.add(format!("cell/{i}"), vec![], move |_| i);
            }
            let mut seen = Vec::new();
            let committed = g.run_checkpointed(threads, |id, out| {
                seen.push((id, *out));
                seen.len() < 5
            });
            assert_eq!(committed, 5, "threads={threads}");
            assert_eq!(
                seen,
                (0..5).map(|i| (i, i as u64)).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn checkpoint_propagates_job_panics() {
        let mut g: JobGraph<u8> = JobGraph::new();
        g.add("ok", vec![], |_| 1);
        g.add("boom", vec![], |_| panic!("job failure"));
        for _ in 0..16 {
            g.add("filler", vec![], |_| 0);
        }
        let result = catch_unwind(AssertUnwindSafe(|| g.run_checkpointed(4, |_, _| true)));
        assert!(result.is_err(), "checkpointed pool re-raises the job panic");
    }

    #[test]
    fn thread_count_is_clamped() {
        let mut g: JobGraph<u8> = JobGraph::new();
        g.add("only", vec![], |_| 7);
        assert_eq!(g.run(64), vec![7]);
        assert!(available_parallelism() >= 1);
    }
}
