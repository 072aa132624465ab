//! Compare the paper's interconnect fabrics as graphs, and optionally dump
//! Graphviz renderings.
//!
//! ```sh
//! cargo run --release --example topology_explorer                 # metrics table
//! cargo run --release --example topology_explorer -- dot          # + .dot files
//! cargo run --release --example topology_explorer -- --cores 256  # 16x16 die
//! dot -Kneato -n -Tpng winoc.dot -o winoc.png                     # render
//! ```

use mapwave::config::PlatformConfig;
use mapwave_noc::node::grid_positions;
use mapwave_noc::prelude::*;
use mapwave_noc::topology::dot::to_dot;
use mapwave_noc::topology::mesh::mesh;
use mapwave_noc::topology::metrics::summarize;
use mapwave_repro::cli;

fn quadrants(side: usize) -> Vec<usize> {
    (0..side * side)
        .map(|i| (i % side) / (side / 2) + 2 * ((i / side) / (side / 2)))
        .collect()
}

/// The paper's hand-placed 64-core overlay: three WIs per quadrant near the
/// centres, one per channel.
fn paper_overlay() -> WirelessOverlay {
    let wis: Vec<WirelessInterface> = [
        (9usize, 0usize),
        (18, 1),
        (27, 2),
        (13, 0),
        (22, 1),
        (30, 2),
        (41, 0),
        (50, 1),
        (33, 2),
        (45, 0),
        (54, 1),
        (37, 2),
    ]
    .iter()
    .map(|&(n, c)| WirelessInterface {
        node: NodeId(n),
        channel: ChannelId(c),
    })
    .collect();
    WirelessOverlay::new(wis, 3).expect("valid overlay")
}

/// A generated overlay at any die size accepted by `--cores`: the scaled
/// per-cluster WI budget on a stride-2 grid inside each quadrant, channels
/// round-robin so each channel spans all four quadrants.
fn scaled_overlay(cfg: &PlatformConfig) -> WirelessOverlay {
    let (cols, rows) = (cfg.cols, cfg.rows);
    let channels = cfg.wi_channels();
    let mut wis = Vec::new();
    for q in 0..4 {
        for k in 0..cfg.wis_per_cluster {
            let col = cols / 2 * (q % 2) + 2 + 2 * (k % 3);
            let row = rows / 2 * (q / 2) + 2 + 2 * (k / 3);
            wis.push(WirelessInterface {
                node: NodeId(row * cols + col),
                channel: ChannelId(k % channels),
            });
        }
    }
    WirelessOverlay::new(wis, channels).expect("valid overlay")
}

const USAGE: &str = "cargo run --release --example topology_explorer [dot] [--cores N]";

fn main() -> Result<(), String> {
    let dump_dot = cli::arg_or(1, false, "mode (expected `dot`)", USAGE, |raw| {
        (raw == "dot").then_some(true)
    })?;
    let cores = cli::cores(64, USAGE)?;
    cli::forbid_governor_flags(USAGE)?;
    cli::expect_no_args_past(1, USAGE)?;

    let side = cli::die_side(cores);
    let cfg = PlatformConfig::paper().with_dims(side, side);
    cfg.validate()
        .map_err(|e| format!("--cores {cores}: {e}"))?;

    let m = mesh(side, side, 2.5);
    println!("mesh {side}x{side}        : {}", summarize(&m));

    println!("\npower-law small worlds (⟨k_intra⟩, ⟨k_inter⟩) = (3,1):");
    for alpha in [2.5, 2.0, 1.5, 1.0] {
        let sw = SmallWorldBuilder::new(grid_positions(side, side, 2.5), quadrants(side))
            .alpha(alpha)
            .seed(0xDAC_2015)
            .build()
            .expect("builds");
        println!("  alpha = {alpha:<4}: {}", summarize(&sw));
    }

    println!("\ndegree split at alpha = 1.5:");
    for (ki, ke) in [(3.0, 1.0), (2.0, 2.0)] {
        let sw = SmallWorldBuilder::new(grid_positions(side, side, 2.5), quadrants(side))
            .k_intra(ki)
            .k_inter(ke)
            .alpha(1.5)
            .seed(0xDAC_2015)
            .build()
            .expect("builds");
        println!("  ({ki:.0},{ke:.0})       : {}", summarize(&sw));
    }

    if dump_dot {
        let sw = SmallWorldBuilder::new(grid_positions(side, side, 2.5), quadrants(side))
            .alpha(1.5)
            .seed(0xDAC_2015)
            .build()
            .expect("builds");
        let overlay = if cores == 64 {
            paper_overlay()
        } else {
            scaled_overlay(&cfg)
        };
        std::fs::write("mesh.dot", to_dot(&m, &WirelessOverlay::none())).expect("write mesh.dot");
        std::fs::write("winoc.dot", to_dot(&sw, &overlay)).expect("write winoc.dot");
        println!("\nwrote mesh.dot and winoc.dot (render with: dot -Kneato -n -Tpng ...)");
    }
    Ok(())
}
