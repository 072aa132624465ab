//! Queries are answered from the store, not by re-simulation: every
//! completed cell read counts one `sweep.artifact_hits`, and the values a
//! query renders are exactly the bits the engine computed.
//!
//! Single-test binary on purpose: it asserts on the process-global
//! telemetry counters, which other tests in the same binary could reset
//! concurrently.

use std::fs;

use mapwave_harness::telemetry;
use mapwave_sweep::prelude::*;

#[test]
fn query_answers_from_artifacts_alone() {
    let root = std::env::temp_dir().join(format!(
        "mapwave-sweep-query-telemetry-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&root);

    let engine = SweepEngine::create(
        &root,
        SweepSpec::smoke(),
        EngineOptions {
            jobs: 2,
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let summary = engine.run().unwrap();
    assert_eq!(summary.completed, 4);

    telemetry::enable();
    let before = telemetry::snapshot().counter("sweep.artifact_hits");

    let records = load_records(engine.store()).unwrap();
    assert_eq!(records.len(), 4);

    let after = telemetry::snapshot().counter("sweep.artifact_hits");
    assert_eq!(
        after - before,
        4,
        "each completed cell must be served from the artifact store"
    );

    // The rendered table carries the engine's exact numbers: re-derive
    // the expected EDP column from the decoded records themselves.
    let table = render_table(&records, &QueryFilter::default(), Metric::Edp);
    for r in &records {
        assert!(
            table.contains(&format!("{:.6e}", r.edp)),
            "table must show {}'s EDP {:.6e}:\n{table}",
            r.label,
            r.edp
        );
    }

    // The clean nvfi cell anchors the saving computation; its own saving
    // renders as +0.00%.
    let saving = render_table(
        &records,
        &QueryFilter {
            variant: Some("nvfi".into()),
            ..Default::default()
        },
        Metric::EdpSaving,
    );
    assert!(
        saving.contains("+0.00%"),
        "nvfi saves nothing over itself:\n{saving}"
    );

    let _ = fs::remove_dir_all(&root);
}
