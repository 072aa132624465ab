//! Drift guard for EXPERIMENTS.md: the headline table's average and
//! maximum EDP saving and worst VFI-WiNoC execution-time penalty (to one
//! decimal place), the Fig. 7 mesh/WiNoC totals and the Fig. 8 rows (to
//! three) must be the numbers the code produces at the reference scale
//! (0.1). After an intended model change, regenerate them with `cargo run
//! --release --bin mapwave -- report --scale 0.1` and update the document.

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
