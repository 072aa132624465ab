//! A capped sweep simulates each clean system once: the uncapped cell
//! records the run and every capped cell replays it, while faulted cells
//! keep their own runs. The sharing must be invisible in the store — every
//! blob equals the record built from direct per-cell calls of the public
//! API — and visible in the telemetry: one `core.run_system` for the
//! design's `nvfi` profiling run, one for the clean WiNoC, one per faulted
//! cell, and no worker stalled on the design cache.
//!
//! Single-test binary on purpose: it asserts on the process-global
//! telemetry counters and spans, which other tests in the same binary
//! could reset concurrently.

use std::fs;

use mapwave::design_flow::DesignFlow;
use mapwave::governed::{run_system_governed, run_system_governed_with_faults};
use mapwave::orchestrator::RunVariant;
use mapwave::{run_system, run_system_with_faults};
use mapwave_faults::{FaultConfig, FaultPlan};
use mapwave_governor::GovernorConfig;
use mapwave_harness::telemetry;
use mapwave_sweep::codec::CellCoords;
use mapwave_sweep::prelude::*;

/// The smoke sweep with one cap next to every anchor: 8 cells, 4 capped.
fn capped_smoke(workload_seed: u64) -> SweepSpec {
    SweepSpec {
        workload_seeds: vec![workload_seed],
        power_caps: vec![6.0],
        epoch_cycles: 20_000,
        ..SweepSpec::smoke()
    }
}

/// Each cell's record computed on its own, as a per-cell engine would:
/// the design's profiling run for the clean uncapped `nvfi` cell, a fresh
/// run (governed when capped, faulted under the cell's own plan when
/// faulted) for every other cell.
fn direct_records(spec: &SweepSpec) -> Vec<CellRecord> {
    spec.cells()
        .iter()
        .map(|cell| {
            let flow = DesignFlow::new(cell.config()).unwrap();
            let (design, nvfi) = flow.design_with_baseline(cell.app);
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
            let spec = cell.variant.spec(&flow, &design);
            let (workload, cfg, power) = (&design.workload, flow.config(), flow.power());
            let plan = FaultPlan::build(
                &FaultConfig::at_rate(cell.fault_rate, cell.fault_seed).for_cell(cell.index as u64),
            );
            let clean = cell.fault_rate == 0.0;
            match cell.power_cap_w {
                Some(cap_w) => {
                    let gov = GovernorConfig::new(cap_w).with_epoch_cycles(cell.epoch_cycles);
                    let report = if clean {
                        run_system_governed(&spec, workload, cfg, power, &gov)
                    } else {
                        run_system_governed_with_faults(&spec, workload, cfg, power, &gov, &plan)
                    };
                    CellRecord::from_governed(coords, &report)
                }
                None if clean && cell.variant == RunVariant::Nvfi => {
                    CellRecord::from_run(coords, &nvfi)
                }
                None if clean => {
                    CellRecord::from_run(coords, &run_system(&spec, workload, cfg, power))
                }
                None => CellRecord::from_fault_run(
                    coords,
                    &run_system_with_faults(&spec, workload, cfg, power, &plan),
                ),
            }
        })
        .collect()
}

#[test]
fn capped_sweep_simulates_each_clean_system_once() {
    // A workload seed per run keeps the process-wide design cache cold,
    // so each run designs (and profiles) its app once.
    for (jobs, workload_seed) in [(1, 0xDAC_2015), (2, 0xDAC_2016)] {
        let spec = capped_smoke(workload_seed);
        let expected = direct_records(&spec);
        assert_eq!(expected.len(), 8);

        let root = std::env::temp_dir().join(format!(
            "mapwave-sweep-clean-reuse-{jobs}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&root);
        let opts = EngineOptions {
            jobs,
            ..EngineOptions::default()
        };
        let engine = SweepEngine::create(&root, spec, opts).unwrap();

        telemetry::reset();
        telemetry::enable();
        let summary = engine.run().unwrap();
        let seen = telemetry::snapshot();
        telemetry::disable();
        assert_eq!(summary.completed, 8, "jobs={jobs}");
        assert_eq!(summary.pending, 0, "jobs={jobs}");

        let manifest = engine.store().load_manifest().unwrap().unwrap();
        for (index, record) in expected.iter().enumerate() {
            let CellState::Ok { content_key, .. } = manifest.entries[&index].state else {
                panic!("jobs={jobs}: cell {index} not completed");
            };
            assert_eq!(
                engine.store().read_blob(content_key).unwrap(),
                record.encode(),
                "jobs={jobs}: cell {index} ({}) differs from its direct computation",
                record.label
            );
        }

        // 1 design profiling run + 1 clean WiNoC run + 4 faulted cells; a
        // per-cell engine adds one run per clean capped cell (8 in all).
        let runs: Vec<_> = seen
            .spans_named("core.run_system")
            .map(|s| s.label.clone().unwrap_or_default())
            .collect();
        assert_eq!(runs.len(), 6, "jobs={jobs}: core.run_system spans {runs:?}");
        assert_eq!(
            seen.spans_named("core.run_governed").count(),
            4,
            "jobs={jobs}: one replay per capped cell"
        );
        assert_eq!(
            seen.counter("cache.wait"),
            0,
            "jobs={jobs}: no worker may stall on the design cache"
        );
        let _ = fs::remove_dir_all(&root);
    }
}
