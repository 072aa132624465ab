//! The store's durability contract: a sweep killed after N cells and
//! resumed produces a byte-identical store to one that never died, and a
//! cell whose configuration the design flow rejects lands in the
//! dead-letter queue instead of wedging the sweep.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use mapwave_sweep::prelude::*;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mapwave-sweep-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn fast_opts(jobs: usize) -> EngineOptions {
    EngineOptions {
        jobs,
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

/// Runs `spec` once uninterrupted (deciding `dead_letters` of its cells
/// as dead letters) and once killed (commit limit) after `limit` cells on
/// `jobs` workers, then resumed without re-telling it the spec — and with
/// a different worker count, which must not matter — and asserts the two
/// stores are byte-identical.
fn assert_kill_and_resume_is_byte_identical(
    spec: &SweepSpec,
    dead_letters: usize,
    limit: usize,
    jobs: usize,
    tag: &str,
) {
    let cells = spec.cell_count();

    // Reference: one uninterrupted run.
    let full_root = temp_root(&format!("{tag}-full"));
    let full = SweepEngine::create(&full_root, spec.clone(), fast_opts(2)).unwrap();
    let summary = full.run().unwrap();
    assert_eq!(
        summary,
        RunSummary {
            completed: cells - dead_letters,
            dead_lettered: dead_letters,
            pending: 0,
        },
        "{tag}"
    );

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
    assert_eq!(first.completed + first.dead_lettered, limit, "{tag}");
    assert_eq!(first.pending, cells - limit, "{tag}: kill left work behind");
    let manifest = killed.store().load_manifest().unwrap().unwrap();
    assert_eq!(
        manifest.entries.len(),
        limit,
        "{tag}: manifest after the kill"
    );

    let resumed = SweepEngine::resume(&killed_root, fast_opts(4)).unwrap();
    let second = resumed.run().unwrap();
    assert_eq!(
        second.completed + second.dead_lettered,
        cells - limit,
        "{tag}: the resumed run decides exactly the cells the kill left"
    );
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
    assert_kill_and_resume_is_byte_identical(&SweepSpec::smoke(), 0, 2, 2, "smoke");
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
        assert_kill_and_resume_is_byte_identical(&spec, 0, limit, jobs, &tag);
    }
}

/// The design flow rejects scale 0 (`DesignFlow::new` returns `Err`), so
/// the first four cells of this spec can never run: each is decided in
/// one attempt as a dead letter, and the scale-0.002 cells still complete.
#[test]
fn always_failing_cells_dead_letter_instead_of_wedging() {
    let spec = SweepSpec {
        scales: vec![0.0, 0.002],
        ..SweepSpec::smoke()
    };
    let root = temp_root("dlq");
    let engine = SweepEngine::create(&root, spec.clone(), fast_opts(2)).unwrap();
    let summary = engine.run().unwrap();
    assert_eq!(
        summary,
        RunSummary {
            completed: 4,
            dead_lettered: 4,
            pending: 0,
        },
        "the sweep finishes around its dead letters"
    );

    let manifest = engine.store().load_manifest().unwrap().unwrap();
    assert_eq!(manifest.entries.len(), spec.cell_count());
    let mut stored = Vec::new();
    for (cell, entry) in spec.cells().iter().zip(manifest.entries.values()) {
        assert_eq!(entry.index, cell.index);
        match entry.state {
            CellState::DeadLetter { attempts } => {
                assert_eq!(cell.scale, 0.0, "cell {} dead-lettered", cell.index);
                assert_eq!(attempts, 1, "cell {} is decided in one attempt", cell.index);
            }
            CellState::Ok { content_key, .. } => {
                assert_eq!(cell.scale, 0.002, "cell {} completed", cell.index);
                stored.push(format!("{}.art", content_key.to_hex()));
            }
        }
    }
    stored.sort();
    assert_eq!(
        artifact_bytes(&root).into_keys().collect::<Vec<_>>(),
        stored,
        "only completed cells leave artifacts"
    );

    // Resume does not resurrect the dead letters.
    let resumed = SweepEngine::resume(&root, fast_opts(1)).unwrap();
    let again = resumed.run().unwrap();
    assert_eq!(again.completed + again.dead_lettered + again.pending, 0);
    let _ = fs::remove_dir_all(&root);

    // A kill among the dead letters, and one after the first completed
    // cell, both resume to the uninterrupted store.
    for (limit, jobs) in [(2, 2), (5, 1)] {
        let tag = format!("dlq-{limit}-jobs{jobs}");
        assert_kill_and_resume_is_byte_identical(&spec, 4, limit, jobs, &tag);
    }
}
