//! The sweep engine: executes a [`SweepSpec`]'s pending cells through the
//! deterministic worker pool, checkpointing every decided cell to the
//! store before the next one is committed.
//!
//! A run is one job graph with three kinds of job, so that each result is
//! computed once and reuse travels as job data, as in the evaluation's
//! graph:
//!
//! * **design jobs**, one per pending `(config, app)`: the design flow and
//!   its `nvfi` profiling run, through
//!   [`mapwave::orchestrator::design_and_nvfi_cached`]. Every other job of
//!   the app depends on it, so no worker blocks on another's design;
//! * **clean-system jobs**, one per pending clean `(config, app,
//!   variant)`: the system is simulated once (`nvfi` takes the design's
//!   profiling run instead), the uncapped cell records that run, and
//!   every capped cell replays it under its cap
//!   ([`mapwave::governed::replay_governed`]). The job emits finished
//!   records only, so no run report outlives it;
//! * **cells**, which commit. A clean cell takes its record from its
//!   clean-system job. A faulted cell still runs on its own: its plan
//!   comes from its own index ([`FaultConfig::for_cell`]), so its
//!   uncapped and capped siblings run under different plans and share no
//!   run.
//!
//! Reliability model, per cell:
//!
//! * up to [`EngineOptions::max_attempts`] attempts, with linear backoff
//!   between them ([`EngineOptions::backoff_base_ms`] × attempt number);
//! * an attempt can fail *organically* (the design flow rejects the
//!   configuration) or via the injected [`CellFailureModel`] — the
//!   engine-level failure hook that lets tests and CI rehearse crashes
//!   deterministically (`mapwave_faults` cell streams make the same cell
//!   fail the same way on every machine);
//! * a cell that exhausts its attempts is **dead-lettered**: recorded in
//!   the manifest with its attempt count, never retried by `resume`, and
//!   surfaced by `status`/`query` so the sweep completes instead of
//!   wedging.
//!
//! Commit order is the resume-identity linchpin: results are committed
//! strictly in cell-index order by the calling thread (see
//! [`mapwave_harness::jobs::JobGraph::run_checkpointed`]) no matter how
//! many workers ran, so the manifest of an interrupted-then-resumed sweep
//! is byte-identical to an uninterrupted one. Design and clean-system
//! jobs commit nothing, and [`EngineOptions::commit_limit`] counts cells
//! only. A kill can fall between a clean-system job and its cells; the
//! resumed run adds the job again for the cells still pending, and its
//! records are the same bits.

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

use mapwave::design_flow::{Design, DesignFlow};
use mapwave::governed::{replay_governed, run_system_governed_with_faults};
use mapwave::orchestrator::{config_key, design_and_nvfi_cached, RunVariant};
use mapwave::{run_system, run_system_with_faults, FaultRunReport, RunReport};
use mapwave_faults::{CellFailureModel, FaultConfig, FaultPlan, FaultStats};
use mapwave_governor::GovernorConfig;
use mapwave_harness::hash::CacheKey;
use mapwave_harness::jobs::{JobGraph, JobId};
use mapwave_harness::telemetry;

use crate::codec::{CellCoords, CellRecord};
use crate::spec::{SweepCell, SweepSpec};
use crate::store::{ArtifactStore, CellState, ManifestEntry};

/// Execution knobs of one engine run.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker threads for cell execution.
    pub jobs: usize,
    /// Attempts per cell before dead-lettering (≥ 1).
    pub max_attempts: u32,
    /// Base of the linear inter-attempt backoff in milliseconds
    /// (attempt *n* sleeps `n × backoff_base_ms`; `0` disables sleeping,
    /// which tests use).
    pub backoff_base_ms: u64,
    /// Injected engine-level failures (deterministic; see
    /// [`CellFailureModel`]). [`CellFailureModel::none`] for production.
    pub exec_faults: CellFailureModel,
    /// Stop after committing this many cells (simulates a kill for resume
    /// tests and the CI smoke job). `None` runs to completion.
    pub commit_limit: Option<usize>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            jobs: mapwave_harness::jobs::available_parallelism(),
            max_attempts: 3,
            backoff_base_ms: 10,
            exec_faults: CellFailureModel::none(),
            commit_limit: None,
        }
    }
}

/// Outcome of one executed cell (before it is committed).
enum CellOutcome {
    /// Completed; the encoded record is ready to persist.
    Done {
        /// Encoded [`CellRecord`] bytes.
        encoded: String,
    },
    /// Every attempt failed.
    Failed {
        /// Attempts made.
        attempts: u32,
    },
}

/// Summary of one [`SweepEngine::run`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Cells committed as completed this run.
    pub completed: usize,
    /// Cells dead-lettered this run.
    pub dead_lettered: usize,
    /// Cells still pending (non-zero only when a commit limit stopped the
    /// run early).
    pub pending: usize,
}

/// A sweep bound to a store.
#[derive(Debug)]
pub struct SweepEngine {
    store: ArtifactStore,
    spec: SweepSpec,
    opts: EngineOptions,
}

impl SweepEngine {
    /// Starts (or re-opens) a sweep of `spec` at `root`.
    ///
    /// # Errors
    ///
    /// Fails if the store already holds a *different* spec, or on I/O
    /// failure.
    pub fn create(
        root: impl Into<std::path::PathBuf>,
        spec: SweepSpec,
        opts: EngineOptions,
    ) -> io::Result<Self> {
        let store = ArtifactStore::open(root)?;
        store.write_spec(&spec)?;
        Ok(SweepEngine { store, spec, opts })
    }

    /// Re-opens an existing sweep, reading the spec it was created with
    /// from the store — resume never trusts the caller to repeat it.
    ///
    /// # Errors
    ///
    /// Fails if the store has no (or a corrupt) spec, or on I/O failure.
    pub fn resume(root: impl Into<std::path::PathBuf>, opts: EngineOptions) -> io::Result<Self> {
        let store = ArtifactStore::open(root)?;
        let spec = store.read_spec()?;
        Ok(SweepEngine { store, spec, opts })
    }

    /// The sweep's spec.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// The underlying store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// Executes every still-pending cell, committing each decided cell to
    /// the manifest in index order. Idempotent: already-decided cells
    /// (completed *or* dead-lettered) are never re-run.
    ///
    /// # Errors
    ///
    /// Fails on store I/O errors or a manifest written for a different
    /// spec.
    pub fn run(&self) -> io::Result<RunSummary> {
        let _span = telemetry::span("sweep.run");
        let spec_key = self.spec.key();
        let manifest = self.store.load_manifest()?;
        let decided: std::collections::BTreeSet<usize> = match &manifest {
            Some(m) => {
                if m.spec_key != spec_key {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "manifest belongs to a different sweep spec",
                    ));
                }
                m.entries.keys().copied().collect()
            }
            None => {
                self.store.write_manifest_header(spec_key)?;
                Default::default()
            }
        };

        let pending: Vec<SweepCell> = self
            .spec
            .cells()
            .into_iter()
            .filter(|c| !decided.contains(&c.index))
            .collect();
        let total_pending = pending.len();
        if total_pending == 0 {
            return Ok(RunSummary {
                completed: 0,
                dead_lettered: 0,
                pending: 0,
            });
        }

        let graph = build_graph(pending, &self.opts);
        let mut completed = 0usize;
        let mut dead_lettered = 0usize;
        let mut commit_error: Option<io::Error> = None;
        let limit = self.opts.commit_limit.unwrap_or(usize::MAX);
        graph.run_checkpointed(self.opts.jobs, |_, node| {
            // Design and clean-system jobs commit nothing, and the limit
            // counts cells only.
            let Node::Cell(cell, outcome) = node else {
                return true;
            };
            match self.commit_cell(cell, outcome) {
                Ok(CellState::Ok { .. }) => completed += 1,
                Ok(CellState::DeadLetter { .. }) => dead_lettered += 1,
                Err(e) => {
                    commit_error = Some(e);
                    return false;
                }
            }
            completed + dead_lettered < limit
        });
        if let Some(e) = commit_error {
            return Err(e);
        }

        Ok(RunSummary {
            completed,
            dead_lettered,
            pending: total_pending - completed - dead_lettered,
        })
    }

    fn commit_cell(&self, cell: &SweepCell, outcome: &CellOutcome) -> io::Result<CellState> {
        let state = match outcome {
            CellOutcome::Done { encoded } => {
                let (content_key, len) = self.store.put_blob(encoded)?;
                telemetry::count("sweep.cells_completed", 1);
                CellState::Ok { content_key, len }
            }
            CellOutcome::Failed { attempts } => {
                telemetry::count("sweep.cells_dead_lettered", 1);
                CellState::DeadLetter {
                    attempts: *attempts,
                }
            }
        };
        self.store.append_manifest_entry(&ManifestEntry {
            index: cell.index,
            cell_key: cell.key(),
            state: state.clone(),
        })?;
        Ok(state)
    }
}

/// A design job's product: the `(config, app)` flow, and its design with
/// the `nvfi` run it profiled on.
type Designed = (DesignFlow, Arc<(Design, RunReport)>);

/// What one job of the sweep's graph yields.
enum Node {
    /// A design job's product; `None` when the design flow rejects the
    /// configuration.
    Design(Option<Designed>),
    /// A clean-system job's finished records, one per pending cell it
    /// serves, in cell order; `None` when its design failed.
    Records(Option<Vec<CellRecord>>),
    /// A decided cell, ready to commit.
    Cell(SweepCell, CellOutcome),
}

/// The job graph of `pending` (ascending cell index): one design job per
/// `(config, app)`, one clean-system job per clean `(config, app,
/// variant)`, then the cells in index order, so the checkpoint committer
/// meets them in exactly that order. See the [module docs](self).
///
/// All designs come first and then all clean systems, so each app's
/// clean systems queue ahead of its faulted cells. Inserting each job
/// just before its first cell instead interleaves them; perfbench
/// `sweep_faulted` (2 workers) then read a higher peak RSS (median
/// 10.66 against 9.89 MiB over 15 runs each) for the same wall time.
fn build_graph(pending: Vec<SweepCell>, opts: &EngineOptions) -> JobGraph<Node> {
    let mut graph: JobGraph<Node> = JobGraph::new();
    let mut designs: BTreeMap<(CacheKey, &'static str), JobId> = BTreeMap::new();
    let design_of: Vec<JobId> = pending
        .iter()
        .map(|cell| {
            *designs
                .entry((config_key(&cell.config()), cell.app.name()))
                .or_insert_with(|| {
                    let (cfg, app) = (cell.config(), cell.app);
                    graph.add(
                        format!("design/{}", cell.app.name()),
                        Vec::new(),
                        move |_| {
                            Node::Design(DesignFlow::new(cfg).ok().map(|flow| {
                                let designed = design_and_nvfi_cached(&flow, app);
                                (flow, designed)
                            }))
                        },
                    )
                })
        })
        .collect();

    // Clean cells grouped by (design job, variant): each group's cells, in
    // index order, share one system run.
    let mut groups: BTreeMap<(JobId, &'static str), Vec<usize>> = BTreeMap::new();
    for (i, cell) in pending.iter().enumerate() {
        if cell.fault_rate == 0.0 {
            let key = (design_of[i], cell.variant.name());
            groups.entry(key).or_default().push(i);
        }
    }
    // Each clean cell's (clean-system job, position in its records).
    let mut record_of: Vec<Option<(JobId, usize)>> = vec![None; pending.len()];
    for ((design, _), members) in groups {
        let cells: Vec<SweepCell> = members.iter().map(|&i| pending[i]).collect();
        let first = cells[0];
        let job = graph.add(
            format!("system/{}/{}", first.app.name(), first.variant.name()),
            vec![design],
            move |deps| {
                let Node::Design(designed) = deps[0] else {
                    unreachable!("a clean-system job depends on its design job")
                };
                Node::Records(designed.as_ref().map(|d| clean_records(d, &cells)))
            },
        );
        for (pos, &i) in members.iter().enumerate() {
            record_of[i] = Some((job, pos));
        }
    }

    for (i, cell) in pending.into_iter().enumerate() {
        let opts = opts.clone();
        // A faulted cell reads its design job (and no record position).
        let (dep, pos) = record_of[i].unwrap_or((design_of[i], 0));
        graph.add(cell.label(), vec![dep], move |deps| {
            let outcome = match deps[0] {
                Node::Records(records) => {
                    execute_cell(&cell, &opts, || records.as_ref().map(|r| r[pos].clone()))
                }
                Node::Design(designed) => execute_cell(&cell, &opts, || {
                    designed.as_ref().map(|d| faulted_record(&cell, d))
                }),
                Node::Cell(..) => unreachable!("cells depend on design or clean-system jobs"),
            };
            Node::Cell(cell, outcome)
        });
    }
    graph
}

/// Runs one cell with the engine's retry/backoff policy; `attempt` yields
/// the cell's record, `None` when the attempt failed organically.
fn execute_cell(
    cell: &SweepCell,
    opts: &EngineOptions,
    mut attempt: impl FnMut() -> Option<CellRecord>,
) -> CellOutcome {
    let max_attempts = opts.max_attempts.max(1);
    for n in 0..max_attempts {
        if n > 0 && opts.backoff_base_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(
                opts.backoff_base_ms * n as u64,
            ));
        }
        let injected_failure = opts.exec_faults.attempt_fails(cell.index as u64, n);
        let outcome = if injected_failure { None } else { attempt() };
        match outcome {
            Some(record) => {
                return CellOutcome::Done {
                    encoded: record.encode(),
                }
            }
            None if n + 1 < max_attempts => {
                telemetry::count("sweep.cells_retried", 1);
            }
            None => {}
        }
    }
    CellOutcome::Failed {
        attempts: max_attempts,
    }
}

fn coords(cell: &SweepCell) -> CellCoords {
    CellCoords {
        label: cell.label(),
        app: cell.app.name().to_string(),
        variant: cell.variant.name().to_string(),
        preset: cell.preset.name().to_string(),
        scale: cell.scale,
        workload_seed: cell.workload_seed,
        fault_rate: cell.fault_rate,
        fault_seed: cell.fault_seed,
    }
}

fn governor(cell: &SweepCell, cap_w: f64) -> GovernorConfig {
    GovernorConfig::new(cap_w).with_epoch_cycles(cell.epoch_cycles)
}

/// The records of one clean system's cells (`cells` share app and
/// variant): the system runs once, the uncapped cell records that run,
/// and each capped cell replays it under its cap.
fn clean_records((flow, designed): &Designed, cells: &[SweepCell]) -> Vec<CellRecord> {
    let (design, nvfi) = (&designed.0, &designed.1);
    let (cfg, power) = (flow.config(), flow.power());
    let variant = cells[0].variant;
    let spec = {
        let _span = telemetry::span_labeled("core.spec", variant.name());
        variant.spec(flow, design)
    };
    let mut base = FaultRunReport {
        report: match variant {
            // The design flow's profiling run is the clean `nvfi` run.
            RunVariant::Nvfi => nvfi.clone(),
            _ => run_system(&spec, &design.workload, cfg, power),
        },
        faults: FaultStats::default(),
    };
    let mut records = Vec::with_capacity(cells.len());
    for cell in cells {
        records.push(match cell.power_cap_w {
            None => CellRecord::from_run(coords(cell), &base.report),
            Some(cap_w) => {
                let gov = governor(cell, cap_w);
                let governed = replay_governed(&spec, cfg, power, &gov, base, None);
                let record = CellRecord::from_governed(coords(cell), &governed);
                base = governed.base;
                record
            }
        });
    }
    records
}

/// A faulted cell's record: its own run under the plan its index derives
/// from the sweep's root seed, so every cell degrades independently yet
/// reproducibly; capped cells replay that run under the cap.
fn faulted_record(cell: &SweepCell, (flow, designed): &Designed) -> CellRecord {
    let design = &designed.0;
    let cfg = FaultConfig::at_rate(cell.fault_rate, cell.fault_seed).for_cell(cell.index as u64);
    let plan = FaultPlan::build(&cfg);
    let spec = cell.variant.spec(flow, design);
    let (workload, cfg, power) = (&design.workload, flow.config(), flow.power());
    match cell.power_cap_w {
        Some(cap_w) => {
            let gov = governor(cell, cap_w);
            let report = run_system_governed_with_faults(&spec, workload, cfg, power, &gov, &plan);
            CellRecord::from_governed(coords(cell), &report)
        }
        None => {
            let report = run_system_with_faults(&spec, workload, cfg, power, &plan);
            CellRecord::from_fault_run(coords(cell), &report)
        }
    }
}

/// Maps a [`RunVariant`] name back to the variant (CLI convenience).
pub fn variant_named(name: &str) -> Option<RunVariant> {
    crate::spec::parse_variant(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_root(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mapwave-sweep-engine-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fast_opts() -> EngineOptions {
        EngineOptions {
            jobs: 2,
            backoff_base_ms: 0,
            ..EngineOptions::default()
        }
    }

    #[test]
    fn smoke_sweep_completes_every_cell() {
        let root = temp_root("complete");
        let engine = SweepEngine::create(&root, SweepSpec::smoke(), fast_opts()).unwrap();
        let summary = engine.run().unwrap();
        assert_eq!(summary.completed, 4);
        assert_eq!(summary.dead_lettered, 0);
        assert_eq!(summary.pending, 0);

        let manifest = engine.store().load_manifest().unwrap().unwrap();
        assert_eq!(manifest.completed(), 4);
        // Every recorded blob decodes back to a record for its cell.
        for (idx, entry) in &manifest.entries {
            let CellState::Ok { content_key, .. } = entry.state else {
                panic!("cell {idx} not ok");
            };
            let text = engine.store().read_blob(content_key).unwrap();
            let record = crate::codec::CellRecord::decode(&text).unwrap();
            assert_eq!(record.app, "WC");
        }

        // Re-running is a no-op.
        let again = engine.run().unwrap();
        assert_eq!(again.completed, 0);
        assert_eq!(again.pending, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn governed_cells_sweep_resumably_with_cache_hits() {
        let root = temp_root("governed");
        let mut spec = SweepSpec::smoke();
        // One cap next to every anchor: 2 variants × 2 rates × 2 = 8 cells.
        spec.power_caps = vec![6.0];
        spec.epoch_cycles = 20_000;
        let kill_early = EngineOptions {
            commit_limit: Some(5),
            ..fast_opts()
        };
        let engine = SweepEngine::create(&root, spec, kill_early).unwrap();
        let first = engine.run().unwrap();
        assert_eq!(first.completed, 5);
        assert_eq!(first.pending, 3);

        // Resume finishes only the remaining cells, then re-running is a
        // pure cache hit.
        let engine = SweepEngine::resume(&root, fast_opts()).unwrap();
        assert_eq!(engine.spec().power_caps, vec![6.0]);
        let second = engine.run().unwrap();
        assert_eq!(second.completed, 3);
        assert_eq!(second.pending, 0);
        assert_eq!(engine.run().unwrap().completed, 0);

        // Every governed record answers the EDP-vs-cap question straight
        // from the store.
        let records = crate::query::load_records(engine.store()).unwrap();
        assert_eq!(records.len(), 8);
        let governed: Vec<_> = records.iter().filter_map(|r| r.governed.as_ref()).collect();
        assert_eq!(governed.len(), 4);
        for g in governed {
            assert_eq!(g.power_cap_w, 6.0);
            assert!(g.cap_respected, "sweep cells must honour their cap");
            assert!(g.governed_edp > 0.0);
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn mismatched_spec_is_rejected() {
        let root = temp_root("mismatch");
        SweepEngine::create(&root, SweepSpec::smoke(), fast_opts())
            .unwrap()
            .run()
            .unwrap();
        let err = SweepEngine::create(&root, SweepSpec::paper(), fast_opts()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        let _ = fs::remove_dir_all(&root);
    }
}
