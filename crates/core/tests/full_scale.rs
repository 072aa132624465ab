//! Pinned digest of the full report at the paper's Table-1 input sizes.
//!
//! `report --scale 1.0` is the only run that generates every application
//! workload at full size, so it is the only one that exercises the
//! generators' full-scale counters and loops end to end. The test hashes the
//! complete `full_report` text. It self-skips under `debug_assertions`,
//! where the full-size generators and NoC windows take minutes; release
//! builds finish it in about ten seconds:
//! `cargo test --release -p mapwave --test full_scale`.
//!
//! To re-pin after an intended model change, run the test in a release build
//! and copy the digest from the failure message.

use mapwave::prelude::*;
use mapwave::report;
use mapwave_harness::hash::StableHasher;

/// Digest of `full_report` on the paper platform at scale 1.0.
const FULL_SCALE_REPORT_DIGEST: &str = "95f27c97abc7ab1471378e2d7ef8a643";

#[test]
fn full_scale_report_matches_pinned_digest() {
    if cfg!(debug_assertions) {
        eprintln!("skipping the scale-1.0 report golden in debug build (release-only)");
        return;
    }
    let ctx = ExperimentContext::new(PlatformConfig::paper().with_scale(1.0))
        .expect("paper config is valid");
    let text = report::full_report(&ctx);
    let mut h = StableHasher::new();
    h.write(text.as_bytes());
    let got = h.finish().to_hex();
    assert_eq!(
        got, FULL_SCALE_REPORT_DIGEST,
        "scale-1.0 report drift (got {got}); report:\n{text}"
    );
}
