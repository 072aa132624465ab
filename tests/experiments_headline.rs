//! Drift guard for EXPERIMENTS.md: the headline table's average and
//! maximum EDP saving and worst VFI-WiNoC execution-time penalty (to one
//! decimal place), which Table 2 rows the bottleneck pass reassigns, the
//! Fig. 4 VFI 1/VFI 2 times and PCA EDP pair, the Fig. 5 bottleneck ÷
//! average utilization ratios (to two), the Fig. 6 relative network EDPs,
//! the Fig. 7 mesh/WiNoC totals and the Fig. 8 rows (to three) must be
//! the numbers the code produces at the reference scale (0.1). After an intended model change, regenerate them
//! with `cargo run --release --bin mapwave -- report --scale 0.1` and
//! update the document.

use mapwave::prelude::*;

#[test]
fn experiments_headline_matches_the_reference_run() {
    let ctx = ExperimentContext::new(PlatformConfig::paper().with_scale(0.1))
        .expect("paper config is valid");
    let h = ctx.headline();

    let doc = include_str!("../EXPERIMENTS.md");
    let section = |heading: &str| -> Vec<&str> {
        doc.lines()
            .skip_while(|l| !l.starts_with(heading))
            .skip(1)
            .take_while(|l| !l.starts_with("## "))
            .collect()
    };
    let table: Vec<&str> = section("## Headline")
        .into_iter()
        .filter(|l| l.starts_with('|'))
        .collect();
    let row = |label: &str| -> &str {
        table
            .iter()
            .find(|l| l.starts_with(label))
            .unwrap_or_else(|| panic!("EXPERIMENTS.md headline table has no {label:?} row"))
    };
    let pct = |x: f64| format!("{:.1}%", 100.0 * x);

    let checks = [
        ("| Average EDP saving", pct(h.avg_edp_saving)),
        (
            "| Maximum EDP saving",
            format!("{} ({})", pct(h.max_edp_saving), h.best_app.name()),
        ),
        (
            "| Worst execution-time penalty (VFI WiNoC)",
            format!("+{}", pct(h.max_time_penalty)),
        ),
    ];
    for (label, want) in checks {
        let line = row(label);
        assert!(
            line.contains(&want),
            "EXPERIMENTS.md drifted from the code: {label:?} row should quote {want}, found:\n{line}"
        );
    }
    // Table 2's VFI 2 column reads "unchanged" exactly for the apps the
    // bottleneck pass leaves alone.
    let table2 = section("## Table 2");
    for row in ctx.table2() {
        let prefix = format!("| {} |", row.app.name());
        let line = table2
            .iter()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("EXPERIMENTS.md Table 2 has no {} row", row.app.name()));
        let vfi2_cell = line.split('|').nth(3).unwrap_or("");
        assert_eq!(
            vfi2_cell.contains("unchanged"),
            !row.reassigned,
            "EXPERIMENTS.md Table 2 drifted from the code: the {} VFI 2 cell {vfi2_cell:?} \
             should {}say \"unchanged\"",
            row.app.name(),
            if row.reassigned { "not " } else { "" }
        );
    }
    // Fig. 4 tabulates both VFI times per application and quotes the PCA
    // EDP pair in prose.
    let fig4 = section("## Figure 4");
    let fig4_prose = fig4.join(" ");
    for row in ctx.fig4() {
        let want = format!(
            "| {} | {:.3} → {:.3} |",
            row.app.name(),
            row.vfi1_time,
            row.vfi2_time
        );
        assert!(
            fig4.iter().any(|l| l.starts_with(&want)),
            "EXPERIMENTS.md Figure 4 drifted from the code: should have the row {want:?}"
        );
        if row.app.name() == "PCA" {
            let want = format!("PCA {:.3} → {:.3}", row.vfi1_edp, row.vfi2_edp);
            assert!(
                fig4_prose.contains(&want),
                "EXPERIMENTS.md Figure 4 drifted from the code: should quote {want:?}"
            );
        }
    }
    // Fig. 5 quotes its bottleneck ÷ average ratios as running prose.
    let fig5 = section("## Figure 5").join(" ");
    for row in ctx.fig5() {
        let want = format!(
            "{} {:.2}",
            row.app.name(),
            row.bottleneck_utilization / row.average_utilization.max(1e-9)
        );
        assert!(
            fig5.contains(&want),
            "EXPERIMENTS.md Figure 5 drifted from the code: should quote {want:?}"
        );
    }
    // Fig. 6 quotes its ratios as running prose, which may wrap anywhere.
    let fig6 = section("## Figure 6").join(" ");
    for row in ctx.fig6() {
        let want = format!("{} {:.3}", row.app.name(), row.relative_network_edp);
        assert!(
            fig6.contains(&want),
            "EXPERIMENTS.md Figure 6 drifted from the code: should quote {want:?}"
        );
    }
    // Fig. 7 quotes its totals as running prose, which may wrap anywhere.
    let fig7 = section("## Figure 7").join(" ");
    for row in ctx.fig7() {
        let want = format!(
            "{} {:.3}/{:.3}",
            row.app.name(),
            row.mesh_total(),
            row.winoc_total()
        );
        assert!(
            fig7.contains(&want),
            "EXPERIMENTS.md Figure 7 drifted from the code: should quote {want:?}"
        );
    }
    let fig8 = section("## Figure 8");
    for row in ctx.fig8() {
        let want = format!(
            "| {} | {:.3} | {:.3} |",
            row.app.name(),
            row.vfi_mesh_edp,
            row.vfi_winoc_edp
        );
        assert!(
            fig8.contains(&want.as_str()),
            "EXPERIMENTS.md Figure 8 drifted from the code: should have the row {want:?}"
        );
    }
}
