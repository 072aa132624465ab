//! The sweep engine: executes a [`SweepSpec`]'s pending cells through the
//! deterministic worker pool, checkpointing every decided cell to the
//! store before the next one is committed.
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
//! is byte-identical to an uninterrupted one.

use std::io;

use mapwave::design_flow::DesignFlow;
use mapwave::governed::{run_system_governed, run_system_governed_with_faults};
use mapwave::orchestrator::{design_and_nvfi_cached, RunVariant};
use mapwave::run_system_with_faults;
use mapwave_faults::{CellFailureModel, FaultConfig, FaultPlan};
use mapwave_governor::GovernorConfig;
use mapwave_harness::jobs::JobGraph;
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

        // One job per pending cell, added in ascending index order so the
        // checkpoint committer sees them in exactly that order.
        let mut graph: JobGraph<(SweepCell, CellOutcome)> = JobGraph::new();
        for cell in pending {
            let opts = self.opts.clone();
            graph.add(cell.label(), Vec::new(), move |_| {
                (cell, execute_cell(&cell, &opts))
            });
        }

        let mut completed = 0usize;
        let mut dead_lettered = 0usize;
        let mut commit_error: Option<io::Error> = None;
        let limit = self.opts.commit_limit.unwrap_or(usize::MAX);
        let committed = graph.run_checkpointed(self.opts.jobs, |_, (cell, outcome)| {
            let result = self.commit_cell(cell, outcome);
            match result {
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
            pending: total_pending - committed,
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

/// Runs one cell with the engine's retry/backoff policy.
fn execute_cell(cell: &SweepCell, opts: &EngineOptions) -> CellOutcome {
    let max_attempts = opts.max_attempts.max(1);
    for attempt in 0..max_attempts {
        if attempt > 0 && opts.backoff_base_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(
                opts.backoff_base_ms * attempt as u64,
            ));
        }
        let injected_failure = opts.exec_faults.attempt_fails(cell.index as u64, attempt);
        let outcome = if injected_failure {
            None
        } else {
            attempt_cell(cell)
        };
        match outcome {
            Some(record) => {
                return CellOutcome::Done {
                    encoded: record.encode(),
                }
            }
            None if attempt + 1 < max_attempts => {
                telemetry::count("sweep.cells_retried", 1);
            }
            None => {}
        }
    }
    CellOutcome::Failed {
        attempts: max_attempts,
    }
}

/// One attempt at a cell; `None` means the attempt failed organically.
fn attempt_cell(cell: &SweepCell) -> Option<CellRecord> {
    let flow = DesignFlow::new(cell.config()).ok()?;
    let designed = design_and_nvfi_cached(&flow, cell.app);
    let (design, nvfi) = (&designed.0, &designed.1);
    let coords = CellCoords {
        label: cell.label(),
        app: cell.app.name().to_string(),
        variant: cell.variant.name().to_string(),
        preset: cell.preset.name().to_string(),
        scale: cell.scale,
        workload_seed: cell.workload_seed,
        fault_rate: cell.fault_rate,
        fault_seed: cell.fault_seed,
    };
    if let Some(cap_w) = cell.power_cap_w {
        // Governed cells replay the measured run under the power cap.
        let gov = GovernorConfig::new(cap_w).with_epoch_cycles(cell.epoch_cycles);
        let spec = cell.variant.spec(&flow, design);
        let report = if cell.fault_rate == 0.0 {
            run_system_governed(&spec, &design.workload, flow.config(), flow.power(), &gov)
        } else {
            let cfg =
                FaultConfig::at_rate(cell.fault_rate, cell.fault_seed).for_cell(cell.index as u64);
            let plan = FaultPlan::build(&cfg);
            run_system_governed_with_faults(
                &spec,
                &design.workload,
                flow.config(),
                flow.power(),
                &gov,
                &plan,
            )
        };
        Some(CellRecord::from_governed(coords, &report))
    } else if cell.fault_rate == 0.0 {
        // The design flow's profiling run is the clean `nvfi` run.
        Some(match cell.variant {
            RunVariant::Nvfi => CellRecord::from_run(coords, nvfi),
            variant => CellRecord::from_run(coords, &variant.run(&flow, design)),
        })
    } else {
        // Faulted cells derive their plan from the sweep's root seed via
        // the cell's own stream, so every cell degrades independently yet
        // reproducibly.
        let cfg =
            FaultConfig::at_rate(cell.fault_rate, cell.fault_seed).for_cell(cell.index as u64);
        let plan = FaultPlan::build(&cfg);
        let spec = cell.variant.spec(&flow, design);
        let report =
            run_system_with_faults(&spec, &design.workload, flow.config(), flow.power(), &plan);
        Some(CellRecord::from_fault_run(coords, &report))
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
