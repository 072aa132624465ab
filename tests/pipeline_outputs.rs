//! Integration of the output/analysis surfaces: the full report, timelines,
//! graph metrics, DOT rendering and ablations over a real (small) run.

use mapwave::ablations::wireless_contribution;
use mapwave::prelude::*;
use mapwave::report;
use mapwave_noc::topology::dot::to_dot;
use mapwave_noc::topology::metrics::{small_world_sigma, summarize};
use mapwave_phoenix::apps::App;
use mapwave_phoenix::runtime::{Executor, RuntimeConfig};
use std::sync::OnceLock;

fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| {
        ExperimentContext::new(PlatformConfig::small().with_scale(0.002))
            .expect("small config is valid")
    })
}

#[test]
fn full_report_mentions_every_artifact() {
    let text = report::full_report(ctx());
    for needle in [
        "Table 1", "Figure 2", "Table 2", "Figure 4", "Figure 5", "Figure 6", "Figure 7",
        "Figure 8", "Headline",
    ] {
        assert!(text.contains(needle), "report is missing {needle}");
    }
    for app in App::ALL {
        assert!(text.contains(app.name()), "report is missing {app}");
    }
}

#[test]
fn winoc_topology_is_a_small_world_and_renders() {
    let d = ctx().design(App::WordCount);
    let spec = ctx()
        .flow()
        .winoc_spec(d, PlacementStrategy::MaxWirelessUtilization);
    let summary = summarize(&spec.topology);
    assert!(summary.avg_hops < 3.0, "16-node small world: {summary}");
    assert!(small_world_sigma(&spec.topology).is_finite());

    let dot = to_dot(&spec.topology, &spec.overlay);
    assert!(dot.starts_with("graph noc {"));
    assert!(dot.contains("fillcolor=lightblue"), "WIs must be marked");
    assert!(
        dot.matches("style=dashed").count() > 0,
        "wireless cliques rendered"
    );
}

#[test]
fn timeline_of_designed_system_is_consistent() {
    let d = ctx().design(App::Kmeans);
    let cfg = ctx().flow().config();
    let speeds = d.vfi2.core_speeds(&d.clustering, &cfg.vf_table);
    let exec = Executor::new(
        RuntimeConfig::nvfi(cfg.cores())
            .with_speeds(speeds)
            .with_steal_policy(d.steal(VfStage::Vfi2)),
    );
    let (report, timeline) = exec.run_traced(&d.workload);
    assert!((timeline.makespan() - report.total_cycles()).abs() < 1e-6 * report.total_cycles());
    let gantt = timeline.render(60);
    assert_eq!(gantt.lines().count(), cfg.cores());
    assert!(gantt.contains('M'), "map spans must render");
}

#[test]
fn ablation_runs_on_the_shared_context() {
    let d = ctx().design(App::Histogram);
    let a = wireless_contribution(ctx().flow(), d);
    assert!(a.with_feature.edp > 0.0);
    assert!(a.without_feature.edp > 0.0);
    assert!(a.edp_benefit().is_finite());
    assert!(a.time_benefit().is_finite());
}
