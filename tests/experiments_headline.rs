//! Drift guard for the EXPERIMENTS.md headline table: the average and
//! maximum EDP saving and the worst VFI-WiNoC execution-time penalty it
//! quotes must be the numbers the code produces at the reference scale
//! (0.1), rounded to one decimal place. After an intended model change,
//! regenerate them with `cargo run --release --bin mapwave -- headline
//! --scale 0.1` and update the table.

use mapwave::prelude::*;

#[test]
fn experiments_headline_matches_the_reference_run() {
    let ctx = ExperimentContext::new(PlatformConfig::paper().with_scale(0.1))
        .expect("paper config is valid");
    let h = ctx.headline();

    let doc = include_str!("../EXPERIMENTS.md");
    let table: Vec<&str> = doc
        .lines()
        .skip_while(|l| !l.starts_with("## Headline"))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
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
}
