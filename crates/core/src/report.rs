//! Text rendering of the experiment results — the same rows and series the
//! paper's tables and figures report.

use crate::ablations::{
    adaptive_router_contribution, clustering_contribution, degree_split, headroom_sweep,
    steal_policy_contribution, wireless_contribution, DegreeComparison,
};
use crate::design_flow::DesignFlow;
use crate::experiments::{
    ExperimentContext, Fig2Series, Fig4Row, Fig5Row, Fig6Row, Fig7Row, Fig8Row, Headline,
    HeadlineStats, Table1Row, Table2Row,
};
use mapwave_phoenix::apps::App;

fn hr(width: usize) -> String {
    "-".repeat(width)
}

/// Renders Table 1.
pub fn table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 1. Applications analyzed and datasets used.\n");
    out.push_str(&format!(
        "{:<8} {:<36} {:>9} {:>14}\n",
        "App", "Input dataset", "MapTasks", "Compute[Gcyc]"
    ));
    out.push_str(&hr(70));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<36} {:>9} {:>14.3}\n",
            r.app.name(),
            r.input,
            r.map_tasks,
            r.compute_gcycles
        ));
    }
    out
}

/// Renders the Fig. 2 series as compact deciles.
pub fn fig2(series: &[Fig2Series]) -> String {
    let mut out = String::new();
    out.push_str("Figure 2. Core utilization (sorted, deciles shown), 64-core NVFI platform.\n");
    for s in series {
        let n = s.sorted_utilization.len();
        let deciles: Vec<String> = (0..=10)
            .map(|d| {
                let idx = ((d * (n - 1)) / 10).min(n - 1);
                format!("{:.2}", s.sorted_utilization[idx])
            })
            .collect();
        out.push_str(&format!(
            "{:<8} avg={:.3}  p100..p0: [{}]\n",
            s.app.name(),
            s.average,
            deciles.join(" ")
        ));
    }
    out
}

/// Renders Table 2.
pub fn table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 2. V/F assignments for MapReduce applications.\n");
    out.push_str(&format!(
        "{:<8} {:<52} {:<52} {}\n",
        "App", "VFI 1 (C1..C4)", "VFI 2 (C1..C4)", "Reassigned"
    ));
    out.push_str(&hr(120));
    out.push('\n');
    for r in rows {
        let fmt = |v: &[mapwave_vfi::vf::VfPair]| {
            v.iter()
                .map(|p| format!("{:.1}/{:.2}", p.voltage_v, p.freq_ghz))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&format!(
            "{:<8} {:<52} {:<52} {}\n",
            r.app.name(),
            fmt(&r.vfi1),
            fmt(&r.vfi2),
            if r.reassigned { "yes" } else { "no" }
        ));
    }
    out
}

/// Renders Fig. 4.
pub fn fig4(rows: &[Fig4Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 4. VFI 1 vs VFI 2 (normalized to NVFI mesh).\n");
    out.push_str(&format!(
        "{:<8} {:>10} {:>10} {:>10} {:>10}\n",
        "App", "VFI1 time", "VFI2 time", "VFI1 EDP", "VFI2 EDP"
    ));
    out.push_str(&hr(52));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}\n",
            r.app.name(),
            r.vfi1_time,
            r.vfi2_time,
            r.vfi1_edp,
            r.vfi2_edp
        ));
    }
    out
}

/// Renders Fig. 5.
pub fn fig5(rows: &[Fig5Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 5. Core utilization values.\n");
    out.push_str(&format!(
        "{:<8} {:>12} {:>18} {:>8}\n",
        "App", "Average", "Bottleneck-core", "Ratio"
    ));
    out.push_str(&hr(50));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>12.3} {:>18.3} {:>8.2}\n",
            r.app.name(),
            r.average_utilization,
            r.bottleneck_utilization,
            r.bottleneck_utilization / r.average_utilization.max(1e-9)
        ));
    }
    out
}

/// Renders Fig. 6.
pub fn fig6(rows: &[Fig6Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "Figure 6. Network EDP of maximized wireless usage relative to minimized hop count.\n",
    );
    out.push_str(&format!(
        "{:<8} {:>14} {:>16} {:>16}\n",
        "App", "Relative EDP", "WL share (max)", "WL share (min)"
    ));
    out.push_str(&hr(58));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>14.3} {:>16.3} {:>16.3}\n",
            r.app.name(),
            r.relative_network_edp,
            r.wireless_share_max,
            r.wireless_share_min
        ));
    }
    out
}

/// Renders the (3,1) vs (2,2) degree comparison.
pub fn fig6_degrees(rows: &[DegreeComparison]) -> String {
    let mut out = String::new();
    out.push_str("Degree sweep: (k_intra, k_inter) network EDP.\n");
    out.push_str(&format!(
        "{:<8} {:>14} {:>14} {:>10}\n",
        "App", "EDP (3,1)", "EDP (2,2)", "(3,1)/(2,2)"
    ));
    out.push_str(&hr(50));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>14.4e} {:>14.4e} {:>10.3}\n",
            r.app.name(),
            r.edp_31,
            r.edp_22,
            r.edp_31 / r.edp_22
        ));
    }
    out
}

/// Renders Fig. 7.
pub fn fig7(rows: &[Fig7Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 7. Normalized execution time per stage (vs NVFI mesh = 1.0).\n");
    out.push_str(&format!(
        "{:<8} {:<10} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
        "App", "System", "Map", "Reduce", "Merge", "LibInit", "Total"
    ));
    out.push_str(&hr(64));
    out.push('\n');
    for r in rows {
        for (label, p) in [("VFI Mesh", &r.vfi_mesh), ("VFI WiN", &r.vfi_winoc)] {
            out.push_str(&format!(
                "{:<8} {:<10} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}\n",
                r.app.name(),
                label,
                p.map,
                p.reduce,
                p.merge,
                p.lib_init,
                p.total()
            ));
        }
    }
    out
}

/// Renders Fig. 8.
pub fn fig8(rows: &[Fig8Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 8. Full-system EDP (normalized to NVFI mesh).\n");
    out.push_str(&format!(
        "{:<8} {:>10} {:>11}\n",
        "App", "VFI Mesh", "VFI WiNoC"
    ));
    out.push_str(&hr(32));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>10.3} {:>11.3}\n",
            r.app.name(),
            r.vfi_mesh_edp,
            r.vfi_winoc_edp
        ));
    }
    out
}

/// Renders the headline summary.
pub fn headline(h: &Headline) -> String {
    format!(
        "Headline: VFI WiNoC saves {:.1}% EDP on average (max {:.1}% on {}), \
         worst execution-time penalty {:+.2}%.\n",
        h.avg_edp_saving * 100.0,
        h.max_edp_saving * 100.0,
        h.best_app.name(),
        h.max_time_penalty * 100.0
    )
}

/// Renders the per-seed headlines of a seed sweep and their mean ± std.
pub fn seeds(stats: &HeadlineStats) -> String {
    let mut out = String::new();
    for (i, h) in stats.samples.iter().enumerate() {
        out.push_str(&format!(
            "seed {i}: avg saving {:>5.1}%, max {:>5.1}% ({}), worst penalty {:>+6.2}%\n",
            h.avg_edp_saving * 100.0,
            h.max_edp_saving * 100.0,
            h.best_app.name(),
            h.max_time_penalty * 100.0
        ));
    }
    out.push_str(&format!(
        "mean: saving {:.1}% ± {:.1}, penalty {:+.2}% ± {:.2}\n",
        stats.avg_saving_mean * 100.0,
        stats.avg_saving_std * 100.0,
        stats.penalty_mean * 100.0,
        stats.penalty_std * 100.0
    ));
    out
}

/// Renders one artefact of an evaluated context.
pub type Renderer = fn(&ExperimentContext) -> String;

/// The single artefacts in report order: each name is the `mapwave`
/// command that prints it, with its renderer.
pub const ARTEFACTS: [(&str, Renderer); 9] = [
    ("table1", |ctx| table1(&ctx.table1())),
    ("fig2", |ctx| fig2(&ctx.fig2())),
    ("table2", |ctx| table2(&ctx.table2())),
    ("fig4", |ctx| fig4(&ctx.fig4())),
    ("fig5", |ctx| fig5(&ctx.fig5())),
    ("fig6", |ctx| fig6(&ctx.fig6())),
    ("fig7", |ctx| fig7(&ctx.fig7())),
    ("fig8", |ctx| fig8(&ctx.fig8())),
    ("headline", |ctx| headline(&ctx.headline())),
];

/// Runs every experiment in `ctx` and renders the full report: every
/// artefact, separated by blank lines.
pub fn full_report(ctx: &ExperimentContext) -> String {
    ARTEFACTS.map(|(_, render)| render(ctx)).join("\n")
}

/// Runs the one-knob ablations on `flow`'s platform and renders them: the
/// four [`crate::ablations`] knobs for WC, KMEANS and HIST, the HIST
/// headroom frontier, and the WC and HIST degree split.
pub fn ablations(flow: &DesignFlow) -> String {
    let mut out = String::from("Ablations: benefit = without the feature / with it.\n");
    let mut degrees = Vec::new();
    for app in [App::WordCount, App::Kmeans, App::Histogram] {
        let design = flow.design(app);
        for ablation in [
            wireless_contribution(flow, &design),
            steal_policy_contribution(flow, &design),
            clustering_contribution(flow, &design),
            adaptive_router_contribution(flow, &design),
        ] {
            out.push_str(&format!(
                "{:<8} {:<40} EDP benefit {:>6.3}x  time benefit {:>6.3}x\n",
                app.name(),
                ablation.knob,
                ablation.edp_benefit(),
                ablation.time_benefit()
            ));
        }
        if app != App::Kmeans {
            degrees.push(degree_split(flow, &design));
        }
    }
    out.push_str("\nheadroom frontier (HIST, VFI mesh vs NVFI mesh):\n");
    // At 0.65 every HIST cluster already runs at the V/F table's top level, so
    // a lower headroom repeats the 0.65 row.
    for p in headroom_sweep(flow.config(), App::Histogram, &[0.95, 0.8, 0.65]) {
        out.push_str(&format!(
            "  headroom {:>4.2}: time x{:.3}, EDP x{:.3}\n",
            p.headroom, p.time_ratio, p.edp_ratio
        ));
    }
    out.push('\n');
    out.push_str(&fig6_degrees(&degrees));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use crate::experiments::{Fig8Row, Headline};

    #[test]
    fn fig8_renders_rows() {
        let rows = vec![Fig8Row {
            app: App::Kmeans,
            vfi_mesh_edp: 0.42,
            vfi_winoc_edp: 0.34,
        }];
        let s = fig8(&rows);
        assert!(s.contains("KMEANS"));
        assert!(s.contains("0.420"));
        assert!(s.contains("0.340"));
    }

    #[test]
    fn ablations_render_every_knob_frontier_point_and_degree_row() {
        let flow = DesignFlow::new(PlatformConfig::small().with_scale(0.002)).unwrap();
        let s = ablations(&flow);
        let benefit_lines: Vec<&str> = s.lines().filter(|l| l.contains("EDP benefit")).collect();
        assert_eq!(benefit_lines.len(), 12, "{s}");
        for (i, app) in ["WC", "KMEANS", "HIST"].into_iter().enumerate() {
            for (j, knob) in [
                "mm-wave wireless overlay",
                "design-time steal policy choice",
                "Eq. (1) utilization+traffic clustering",
                "2-VC Duato-adaptive router (extension)",
            ]
            .into_iter()
            .enumerate()
            {
                let line = benefit_lines[4 * i + j];
                assert!(line.starts_with(&format!("{app:<8} {knob}")), "{line}");
            }
        }
        let frontier = s.split("headroom frontier").nth(1).expect("frontier block");
        for h in ["0.95", "0.80", "0.65"] {
            assert_eq!(
                frontier.matches(&format!("  headroom {h}: time x")).count(),
                1,
                "{s}"
            );
        }
        let degrees = s.split("Degree sweep").nth(1).expect("degree block");
        let rows: Vec<&str> = degrees.lines().skip(3).collect();
        assert_eq!(rows.len(), 2, "{s}");
        assert!(
            rows[0].starts_with("WC ") && rows[1].starts_with("HIST "),
            "{s}"
        );
    }

    #[test]
    fn headline_renders_percentages() {
        let h = Headline {
            avg_edp_saving: 0.337,
            max_edp_saving: 0.662,
            best_app: App::Kmeans,
            max_time_penalty: 0.0322,
        };
        let s = headline(&h);
        assert!(s.contains("33.7%"));
        assert!(s.contains("66.2%"));
        assert!(s.contains("+3.22%"));
        assert!(s.contains("KMEANS"));
    }
}
