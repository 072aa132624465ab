//! The store's durability contract: a sweep killed after N cells and
//! resumed produces a byte-identical store to one that never died, and a
//! cell that can never succeed lands in the dead-letter queue instead of
//! wedging the sweep.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use mapwave_faults::CellFailureModel;
use mapwave_sweep::prelude::*;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mapwave-sweep-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn fast_opts(jobs: usize) -> EngineOptions {
    EngineOptions {
        jobs,
        backoff_base_ms: 0,
        ..EngineOptions::default()
    }
}

/// Every artifact blob of a store, keyed by filename.
fn artifact_bytes(root: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(root.join("artifacts")).expect("artifacts dir") {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        assert!(
            name.ends_with(".art"),
            "unexpected file {name:?} in artifact dir"
        );
        out.insert(name, fs::read(entry.path()).unwrap());
    }
    out
}

/// Runs `spec` once uninterrupted and once killed (commit limit) after
/// `limit` cells on `jobs` workers, then resumed without re-telling it the
/// spec — and with a different worker count, which must not matter — and
/// asserts the two stores are byte-identical.
fn assert_kill_and_resume_is_byte_identical(
    spec: &SweepSpec,
    limit: usize,
    jobs: usize,
    tag: &str,
) {
    let cells = spec.cell_count();

    // Reference: one uninterrupted run.
    let full_root = temp_root(&format!("{tag}-full"));
    let full = SweepEngine::create(&full_root, spec.clone(), fast_opts(2)).unwrap();
    let summary = full.run().unwrap();
    assert_eq!(summary.completed, cells);
    assert_eq!(summary.pending, 0);

    // Victim: the limit counts committed cells only.
    let killed_root = temp_root(&format!("{tag}-killed"));
    let killed = SweepEngine::create(
        &killed_root,
        spec.clone(),
        EngineOptions {
            commit_limit: Some(limit),
            ..fast_opts(jobs)
        },
    )
    .unwrap();
    let first = killed.run().unwrap();
    assert_eq!(first.completed, limit, "{tag}");
    assert_eq!(first.pending, cells - limit, "{tag}: kill left work behind");
    let manifest = killed.store().load_manifest().unwrap().unwrap();
    assert_eq!(
        manifest.entries.len(),
        limit,
        "{tag}: manifest after the kill"
    );

    let resumed = SweepEngine::resume(&killed_root, fast_opts(4)).unwrap();
    let second = resumed.run().unwrap();
    assert_eq!(second.completed, cells - limit, "{tag}");
    assert_eq!(second.pending, 0, "{tag}");

    // Byte identity: manifest, spec, and every artifact blob.
    let full_manifest = fs::read(full_root.join("manifest.txt")).unwrap();
    let killed_manifest = fs::read(killed_root.join("manifest.txt")).unwrap();
    assert_eq!(
        full_manifest, killed_manifest,
        "{tag}: manifest of killed+resumed sweep must match the uninterrupted one"
    );
    assert_eq!(
        fs::read(full_root.join("spec.txt")).unwrap(),
        fs::read(killed_root.join("spec.txt")).unwrap()
    );
    let full_artifacts = artifact_bytes(&full_root);
    let killed_artifacts = artifact_bytes(&killed_root);
    assert_eq!(
        full_artifacts.keys().collect::<Vec<_>>(),
        killed_artifacts.keys().collect::<Vec<_>>(),
        "{tag}: same artifact filenames (content addresses)"
    );
    assert_eq!(
        full_artifacts, killed_artifacts,
        "{tag}: same artifact bytes"
    );
    assert!(
        !full_artifacts.is_empty(),
        "identity is vacuous without artifacts"
    );

    let _ = fs::remove_dir_all(&full_root);
    let _ = fs::remove_dir_all(&killed_root);
}

#[test]
fn killed_and_resumed_sweep_is_byte_identical() {
    assert_kill_and_resume_is_byte_identical(&SweepSpec::smoke(), 2, 2, "smoke");
}

/// With caps, one clean-system job serves an uncapped cell and its capped
/// sibling (cells 0–1 share the clean `nvfi` run, cells 4–5 the clean
/// WiNoC run). A kill between the two cells leaves the job's work done
/// but its second cell uncommitted; the resumed sweep re-runs the job
/// for that cell alone and must still match.
#[test]
fn killed_between_a_clean_system_and_its_capped_cell_resumes_byte_identically() {
    let spec = SweepSpec {
        power_caps: vec![6.0],
        epoch_cycles: 20_000,
        ..SweepSpec::smoke()
    };
    for (limit, jobs) in [(1, 1), (1, 2), (5, 2)] {
        let tag = format!("capped-{limit}-jobs{jobs}");
        assert_kill_and_resume_is_byte_identical(&spec, limit, jobs, &tag);
    }
}

#[test]
fn always_failing_cells_dead_letter_instead_of_wedging() {
    let root = temp_root("dlq");
    let engine = SweepEngine::create(
        &root,
        SweepSpec::smoke(),
        EngineOptions {
            exec_faults: CellFailureModel::new(1.0, 7),
            max_attempts: 2,
            ..fast_opts(2)
        },
    )
    .unwrap();
    let summary = engine.run().unwrap();
    assert_eq!(summary.completed, 0);
    assert_eq!(summary.dead_lettered, 4, "every cell exhausts its attempts");
    assert_eq!(summary.pending, 0, "the sweep still finishes");

    let manifest = engine.store().load_manifest().unwrap().unwrap();
    assert_eq!(manifest.dead_lettered(), 4);
    for entry in manifest.entries.values() {
        assert_eq!(
            entry.state,
            CellState::DeadLetter { attempts: 2 },
            "cell {} records its attempt count",
            entry.index
        );
    }
    assert!(
        artifact_bytes(&root).is_empty(),
        "dead-lettered cells leave no artifacts"
    );

    // Resume does not resurrect the dead letters.
    let resumed = SweepEngine::resume(&root, fast_opts(1)).unwrap();
    let again = resumed.run().unwrap();
    assert_eq!(again.completed + again.dead_lettered + again.pending, 0);

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn transient_failures_retry_to_success() {
    // Find a seed whose cell-0 stream fails the first attempt but passes
    // the second — the retry machinery's happy path.
    let seed = (0..200u64)
        .find(|&s| {
            let m = CellFailureModel::new(0.5, s);
            m.attempt_fails(0, 0)
                && !m.attempt_fails(0, 1)
                && (1..4).all(|c| !m.attempt_fails(c, 0))
        })
        .expect("some seed yields fail-then-succeed for cell 0 only");

    let root = temp_root("retry");
    let engine = SweepEngine::create(
        &root,
        SweepSpec::smoke(),
        EngineOptions {
            exec_faults: CellFailureModel::new(0.5, seed),
            ..fast_opts(1)
        },
    )
    .unwrap();
    let summary = engine.run().unwrap();
    assert_eq!(summary.completed, 4, "retries rescue the transient failure");
    assert_eq!(summary.dead_lettered, 0);

    let _ = fs::remove_dir_all(&root);
}
