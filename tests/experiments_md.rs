//! EXPERIMENTS.md quotes measured numbers only inside marked blocks:
//!
//! ````text
//! <!-- mapwave fig8 --scale 0.1 -->
//! ```text
//! (what `mapwave fig8 --scale 0.1` prints)
//! ```
//! <!-- /mapwave -->
//! ````
//!
//! The opening marker names the command that prints the block. These tests
//! re-render every block with the same renderer and compare it byte for
//! byte. A marker that no test renders fails, and so does a rendered marker
//! that the file lacks.
//!
//! - The debug tier renders the reference run's artefacts (scale 0.1) and
//!   the fault-sweep smoke.
//! - The release tier renders the ablations, the scale envelope and the
//!   seed sweep. It also pins the digest of the full scale-1.0 report, the
//!   only run that generates every workload at its Table-1 size. It
//!   self-skips under `debug_assertions`, where those runs take minutes:
//!   `cargo test --release --test experiments_md`.
//!
//! After an intended model change, print the fresh blocks with
//! `MAPWAVE_GOLDEN_PRINT=1 cargo test --release --test experiments_md --
//! --nocapture` and paste them over the old ones; copy a new scale-1.0
//! digest from the failure message.

use mapwave::experiments::headline_across_seeds_with_jobs;
use mapwave::prelude::*;
use mapwave::report;
use mapwave_harness::hash::StableHasher;

const DOC: &str = include_str!("../EXPERIMENTS.md");
const CLOSE: &str = "<!-- /mapwave -->";
const FAULT_SMOKE: &str = "example degradation --smoke";
const SEEDS: &str = "mapwave seeds --scale 0.05 --seeds 5";
/// The scale envelope's headlines but 0.1, which the debug tier renders.
const ENVELOPE: [f64; 7] = [0.002, 0.01, 0.02, 0.05, 0.2, 0.5, 1.0];

/// Digest of `full_report` on the paper platform at scale 1.0.
const FULL_SCALE_REPORT_DIGEST: &str = "95f27c97abc7ab1471378e2d7ef8a643";

fn marker(command: &str, scale: f64) -> String {
    format!("mapwave {command} --scale {scale:?}")
}

fn debug_markers() -> Vec<String> {
    let mut markers: Vec<String> = report::ARTEFACTS.map(|(name, _)| marker(name, 0.1)).into();
    markers.push(FAULT_SMOKE.into());
    markers
}

fn release_markers() -> Vec<String> {
    let mut markers = vec![marker("ablations", 0.1), SEEDS.to_string()];
    markers.extend(ENVELOPE.map(|scale| marker("headline", scale)));
    markers
}

/// Every marked block of EXPERIMENTS.md as `(command, body)`, in file
/// order.
fn doc_blocks() -> Vec<(&'static str, String)> {
    let mut blocks = Vec::new();
    let mut lines = DOC.lines();
    while let Some(line) = lines.next() {
        let Some(cmd) = line
            .strip_prefix("<!-- ")
            .and_then(|l| l.strip_suffix(" -->"))
        else {
            continue;
        };
        assert_eq!(lines.next(), Some("```text"), "{line} must open a block");
        let mut body = String::new();
        for l in lines.by_ref().take_while(|l| *l != "```") {
            body.push_str(l);
            body.push('\n');
        }
        assert_eq!(lines.next(), Some(CLOSE), "{line} must end with {CLOSE}");
        blocks.push((cmd, body));
    }
    blocks
}

/// Compares each rendered `(command, body)` with every block the file
/// quotes under that marker, or prints the fresh blocks under
/// `MAPWAVE_GOLDEN_PRINT`.
fn check(rendered: &[(String, String)]) {
    if std::env::var_os("MAPWAVE_GOLDEN_PRINT").is_some() {
        for (cmd, body) in rendered {
            println!("<!-- {cmd} -->\n```text\n{body}```\n{CLOSE}\n");
        }
        return;
    }
    let blocks = doc_blocks();
    let mut failures = Vec::new();
    for (cmd, body) in rendered {
        let quoted: Vec<&String> = blocks.iter().filter(|b| b.0 == cmd).map(|b| &b.1).collect();
        if quoted.is_empty() {
            failures.push(format!("EXPERIMENTS.md has no <!-- {cmd} --> block"));
        }
        for doc in quoted.into_iter().filter(|doc| *doc != body) {
            failures.push(format!(
                "<!-- {cmd} --> drifted; the code prints:\n{body}EXPERIMENTS.md quotes:\n{doc}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn every_marker_is_rendered_by_a_tier() {
    let known = [debug_markers(), release_markers()].concat();
    for (cmd, _) in doc_blocks() {
        assert!(
            known.iter().any(|k| k == cmd),
            "EXPERIMENTS.md has a block for an unknown marker <!-- {cmd} -->"
        );
    }
}

#[test]
fn reference_run_blocks_match_the_renderers() {
    let ctx = ExperimentContext::new(PlatformConfig::paper().with_scale(0.1))
        .expect("paper config is valid");
    let flow =
        DesignFlow::new(PlatformConfig::small().with_scale(0.002)).expect("small config is valid");
    let mut rendered: Vec<(String, String)> = report::ARTEFACTS
        .map(|(name, render)| (marker(name, 0.1), render(&ctx)))
        .into();
    rendered.push((
        FAULT_SMOKE.into(),
        fault_sweep(&flow, &FaultSweepConfig::smoke()).render(),
    ));
    check(&rendered);
}

#[test]
fn release_blocks_match_the_renderers_and_the_full_scale_digest() {
    if cfg!(debug_assertions) {
        eprintln!("skipping the ablation, envelope and seed blocks in debug build (release-only)");
        return;
    }
    let paper = |scale: f64| PlatformConfig::paper().with_scale(scale);
    let flow = DesignFlow::new(paper(0.1)).expect("paper config is valid");
    let mut rendered = vec![(marker("ablations", 0.1), report::ablations(&flow))];
    let mut full_scale_report = String::new();
    for scale in ENVELOPE {
        let ctx = ExperimentContext::new_parallel(paper(scale), 2).expect("paper config is valid");
        rendered.push((marker("headline", scale), report::headline(&ctx.headline())));
        if scale == 1.0 {
            full_scale_report = report::full_report(&ctx);
        }
    }
    let stats = headline_across_seeds_with_jobs(&paper(0.05), 5, 2).expect("valid config");
    rendered.push((SEEDS.to_string(), report::seeds(&stats)));
    check(&rendered);

    let mut h = StableHasher::new();
    h.write(full_scale_report.as_bytes());
    let got = h.finish().to_hex();
    assert_eq!(
        got, FULL_SCALE_REPORT_DIGEST,
        "scale-1.0 report drift (got {got}); report:\n{full_scale_report}"
    );
}
