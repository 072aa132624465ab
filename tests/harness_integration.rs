//! Harness integration at the façade level: the job-graph dispatch must be
//! byte-identical to the serial evaluation for any worker count, and the
//! stage caches must be invisible except for speed.
//!
//! Each test uses its own seed so the process-global stage caches of one
//! test cannot mask a miss in another.

use mapwave::orchestrator::{self, cache_stats, config_key, design_cached, run_cached, RunVariant};
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

/// Satellite 3: a warm-cache evaluation equals the cold one exactly.
#[test]
fn warm_cache_run_equals_cold_run() {
    let cold = ExperimentContext::new(cfg(12)).expect("valid config");
    let warm = ExperimentContext::new(cfg(12)).expect("valid config");
    assert_eq!(
        report::full_report(&cold),
        report::full_report(&warm),
        "a cache hit must reproduce the cold result byte for byte"
    );
}

/// Satellite 4: the design/run caches key on the configuration — the same
/// `(config, app, variant)` hits, any changed field misses, and hits return
/// the identical artefact.
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

    let run1 = run_cached(&flow_a, &first, RunVariant::Nvfi);
    let run2 = run_cached(&flow_a, &first, RunVariant::Nvfi);
    assert_eq!(format!("{run1:?}"), format!("{run2:?}"));
}

/// Satellite 4: a two-figure pipeline computed twice over the same context
/// is stable, and the caches record activity for the stages behind it.
#[test]
fn two_figure_pipeline_is_cache_stable() {
    let ctx = ExperimentContext::new(cfg(15)).expect("valid config");
    let t1_first = report::table1(&ctx.table1());
    let f2_first = report::fig2(&ctx.fig2());
    assert_eq!(t1_first, report::table1(&ctx.table1()));
    assert_eq!(f2_first, report::fig2(&ctx.fig2()));

    let stats = cache_stats();
    let design = stats
        .iter()
        .find(|(name, _)| *name == "design")
        .expect("design cache is registered");
    assert!(
        stats.iter().any(|(name, _)| *name == "run"),
        "run cache is registered"
    );
    // At least the six designs of this context passed through the design
    // cache (other tests in this binary add to the totals).
    assert!(
        design.1.misses >= 6,
        "designs were computed: {:?}",
        design.1
    );
    // Not every run is a run-cache miss (the design hands over the `nvfi`
    // run, and an unchanged VFI 2 reuses the VFI 1 run), but all thirty
    // reports of the context end up in the run cache.
    for app in App::ALL {
        for variant in RunVariant::ALL {
            assert!(
                orchestrator::run_is_cached(ctx.flow().config(), app, variant),
                "{app}/{}: report missing from the run cache",
                variant.name()
            );
        }
    }
    assert!(!orchestrator::cache_stats_summary().is_empty());
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
