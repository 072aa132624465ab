//! Harness integration at the façade level: the job-graph dispatch must be
//! byte-identical to the serial evaluation for any worker count, and the
//! design cache must be invisible except for speed.
//!
//! The design cache is process-global, so each test uses its own seed and
//! no test's designs can mask a miss in another.

use mapwave::orchestrator::{cache_stats, config_key, design_cached};
use mapwave::prelude::*;
use mapwave::report;
use mapwave_phoenix::apps::App;

fn cfg(seed: u64) -> PlatformConfig {
    PlatformConfig::small().with_scale(0.002).with_seed(seed)
}

/// Satellite 3: `--jobs N` must not change a single byte of the output.
#[test]
fn parallel_report_is_byte_identical_to_serial() {
    let serial = ExperimentContext::new_parallel(cfg(11), 1).expect("valid config");
    let pooled = ExperimentContext::new_parallel(cfg(11), 4).expect("valid config");
    assert_eq!(
        report::full_report(&serial),
        report::full_report(&pooled),
        "full report must be byte-identical for jobs=1 and jobs=4"
    );
    // Spot-check a typed artefact too, not just the rendering.
    assert_eq!(
        format!("{:?}", serial.headline()),
        format!("{:?}", pooled.headline())
    );
}

/// Satellite 4: the design cache keys on the configuration — the same
/// `(config, app)` hits, any changed field misses, and hits return the
/// identical artefact.
#[test]
fn stage_cache_hits_reproduce_and_misses_recompute() {
    let flow_a = DesignFlow::new(cfg(13)).expect("valid config");
    let flow_b = DesignFlow::new(cfg(14)).expect("valid config");
    assert_ne!(config_key(flow_a.config()), config_key(flow_b.config()));

    let first = design_cached(&flow_a, App::WordCount);
    let again = design_cached(&flow_a, App::WordCount);
    assert_eq!(
        format!("{first:?}"),
        format!("{again:?}"),
        "design cache hit must return the stored artefact"
    );
    let other = design_cached(&flow_b, App::WordCount);
    assert_ne!(
        format!("{first:?}"),
        format!("{other:?}"),
        "a different seed must produce (and cache) a different design"
    );
    // No other test in this binary designs through the cache: evaluations
    // pass their designs along the job graph as data.
    let stats: Vec<_> = cache_stats()
        .into_iter()
        .map(|(name, s)| (name, s.hits, s.misses))
        .collect();
    assert_eq!(stats, vec![("design", 1, 2)], "one hit, two misses");
}

/// Satellite 4: a two-figure pipeline computed twice over the same context
/// is stable.
#[test]
fn two_figure_pipeline_is_cache_stable() {
    let ctx = ExperimentContext::new(cfg(15)).expect("valid config");
    let t1_first = report::table1(&ctx.table1());
    let f2_first = report::fig2(&ctx.fig2());
    assert_eq!(t1_first, report::table1(&ctx.table1()));
    assert_eq!(f2_first, report::fig2(&ctx.fig2()));
}

/// The seed sweep also dispatches through the graph unchanged.
#[test]
fn seed_sweep_parallel_matches_serial() -> Result<(), String> {
    let c = cfg(16);
    let serial = mapwave::experiments::headline_across_seeds_with_jobs(&c, 2, 1)?;
    let pooled = mapwave::experiments::headline_across_seeds_with_jobs(&c, 2, 3)?;
    assert_eq!(format!("{serial:?}"), format!("{pooled:?}"));
    Ok(())
}
