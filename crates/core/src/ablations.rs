//! Ablation studies: how much each design choice contributes.
//!
//! The paper's evaluation compares three whole platforms. These ablations
//! decompose the gap — each knob of the DESIGN.md inventory gets a
//! controlled experiment:
//!
//! * [`wireless_contribution`] — the WiNoC with its wireless overlay
//!   disabled (same small-world wires, up\*/down\* routing) isolates what
//!   the mm-wave links add beyond the small-world rewiring;
//! * [`steal_policy_contribution`] — VFI mesh with default vs Eq. (3)
//!   capped stealing;
//! * [`clustering_contribution`] — the Eq. (1) clustering vs a naive
//!   utilization-agnostic quadrant clustering;
//! * [`adaptive_router_contribution`] — the plain wormhole router vs the
//!   2-VC Duato-adaptive extension;
//! * [`degree_split`] — the small-world wired with (⟨k_intra⟩,
//!   ⟨k_inter⟩) = (3,1) vs (2,2), Section 7.2's setup study;
//! * [`headroom_sweep`] — the V/F-selection aggressiveness frontier.
//!
//! `mapwave ablations` prints all of them through
//! [`crate::report::ablations`].

use crate::config::PlatformConfig;
use crate::design_flow::{Design, DesignFlow, VfStage};
use crate::system::{run_system, RunReport, SystemSpec};
use mapwave_noc::routing::RoutingTable;
use mapwave_noc::topology::wireless::WirelessOverlay;
use mapwave_phoenix::apps::App;
use mapwave_phoenix::stealing::StealPolicy;
use mapwave_vfi::clustering::Clustering;

/// A pair of runs differing in exactly one knob.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// What the knob is.
    pub knob: &'static str,
    /// The run with the feature enabled (the designed system).
    pub with_feature: RunReport,
    /// The run with the feature removed/neutralised.
    pub without_feature: RunReport,
}

impl Ablation {
    /// EDP of the featureless variant relative to the featured one
    /// (> 1 means the feature helps).
    pub fn edp_benefit(&self) -> f64 {
        self.without_feature.edp / self.with_feature.edp
    }

    /// Execution time of the featureless variant relative to the featured
    /// one (> 1 means the feature speeds things up).
    pub fn time_benefit(&self) -> f64 {
        self.without_feature.exec_seconds / self.with_feature.exec_seconds
    }
}

/// The WiNoC with and without its wireless overlay: same small-world
/// wires, same thread mapping, same islands.
pub fn wireless_contribution(flow: &DesignFlow, design: &Design) -> Ablation {
    let cfg = flow.config();
    let spec = flow.winoc_spec(design, cfg.placement);
    let with_feature = run_system(&spec, &design.workload, cfg, flow.power());

    let wired_routing = RoutingTable::up_down_weighted(
        &spec.topology,
        &WirelessOverlay::none(),
        crate::placement::WINOC_HUB_EDGE_WEIGHT,
    )
    .expect("small-world graph stays connected without wireless");
    let wired = SystemSpec {
        label: format!("{} (wireless off)", spec.label),
        overlay: WirelessOverlay::none(),
        routing: wired_routing,
        ..spec
    };
    let without_feature = run_system(&wired, &design.workload, cfg, flow.power());
    Ablation {
        knob: "mm-wave wireless overlay",
        with_feature,
        without_feature,
    }
}

/// The WiNoC with the paper's plain wormhole router vs the 2-VC
/// Duato-adaptive router extension: same topology, overlay, mapping and
/// islands — only the router microarchitecture changes.
pub fn adaptive_router_contribution(flow: &DesignFlow, design: &Design) -> Ablation {
    let cfg = flow.config();
    let spec = flow.winoc_spec(design, cfg.placement);
    let without_feature = run_system(&spec, &design.workload, cfg, flow.power());

    let mut enhanced = cfg.clone();
    enhanced.noc_vcs = 2;
    enhanced.noc_adaptive = true;
    let with_feature = run_system(&spec, &design.workload, &enhanced, flow.power());
    Ablation {
        knob: "2-VC Duato-adaptive router (extension)",
        with_feature,
        without_feature,
    }
}

/// The VFI mesh with the design flow's steal policy vs the opposite policy.
pub fn steal_policy_contribution(flow: &DesignFlow, design: &Design) -> Ablation {
    let cfg = flow.config();
    let spec = flow.vfi_mesh_spec(design, VfStage::Vfi2);
    let with_feature = run_system(&spec, &design.workload, cfg, flow.power());
    let flipped = SystemSpec {
        label: format!("{} (steal flipped)", spec.label),
        steal: match spec.steal {
            StealPolicy::Default => StealPolicy::VfiCapped,
            StealPolicy::VfiCapped => StealPolicy::Default,
        },
        ..spec
    };
    let without_feature = run_system(&flipped, &design.workload, cfg, flow.power());
    Ablation {
        knob: "design-time steal policy choice",
        with_feature,
        without_feature,
    }
}

/// The Eq. (1) clustering vs a naive quadrant clustering (cores grouped by
/// die position, ignoring utilization and traffic), both with freshly
/// assigned V/F levels.
pub fn clustering_contribution(flow: &DesignFlow, design: &Design) -> Ablation {
    let cfg = flow.config();
    let spec = flow.vfi_mesh_spec(design, VfStage::Vfi2);
    let with_feature = run_system(&spec, &design.workload, cfg, flow.power());

    let naive_clustering = Clustering::grid_quadrants(cfg.cols, cfg.rows);
    let naive_vf = mapwave_vfi::assignment::assign_initial(
        &naive_clustering,
        &design.profile.utilization,
        &cfg.vf_table,
        cfg.headroom,
    );
    let naive = SystemSpec {
        label: "VFI Mesh (naive quadrant clustering)".into(),
        mapping: mapwave_manycore::mapping::ThreadMapping::identity(cfg.cores()),
        clustering: naive_clustering,
        vf: naive_vf,
        ..spec
    };
    let without_feature = run_system(&naive, &design.workload, cfg, flow.power());
    Ablation {
        knob: "Eq. (1) utilization+traffic clustering",
        with_feature,
        without_feature,
    }
}

/// The (⟨k_intra⟩, ⟨k_inter⟩) comparison behind Fig. 6's setup discussion.
#[derive(Debug, Clone)]
pub struct DegreeComparison {
    /// The application evaluated.
    pub app: App,
    /// Network EDP of the (3, 1) configuration.
    pub edp_31: f64,
    /// Network EDP of the (2, 2) configuration.
    pub edp_22: f64,
}

/// Section 7.2's degree split: network EDP of the design's WiNoC with its
/// small-world wired at (⟨k_intra⟩, ⟨k_inter⟩) = (3,1) vs (2,2).
pub fn degree_split(flow: &DesignFlow, design: &Design) -> DegreeComparison {
    let run_with = |k_intra: f64, k_inter: f64| {
        let cfg = flow.config().clone().with_degrees(k_intra, k_inter);
        let variant = DesignFlow::new(cfg.clone()).expect("degree variant is valid");
        let spec = variant.winoc_spec(design, cfg.placement);
        run_system(&spec, &design.workload, &cfg, flow.power()).network_edp()
    };
    DegreeComparison {
        app: design.app,
        edp_31: run_with(3.0, 1.0),
        edp_22: run_with(2.0, 2.0),
    }
}

/// One point of the headroom frontier.
#[derive(Debug, Clone)]
pub struct HeadroomPoint {
    /// The headroom used for V/F selection.
    pub headroom: f64,
    /// Resulting VFI-mesh run.
    pub run: RunReport,
    /// Execution time relative to the NVFI mesh.
    pub time_ratio: f64,
    /// EDP relative to the NVFI mesh.
    pub edp_ratio: f64,
}

/// Sweeps the V/F-selection headroom for one application, re-running the
/// design flow at each point.
///
/// # Panics
///
/// Panics if a headroom value makes the configuration invalid.
pub fn headroom_sweep(base: &PlatformConfig, app: App, headrooms: &[f64]) -> Vec<HeadroomPoint> {
    let base_flow = DesignFlow::new(base.clone()).expect("base config is valid");
    let nvfi = {
        let d = base_flow.design(app);
        run_system(&base_flow.nvfi_spec(), &d.workload, base, base_flow.power())
    };
    headrooms
        .iter()
        .map(|&headroom| {
            let mut cfg = base.clone();
            cfg.headroom = headroom;
            let flow = DesignFlow::new(cfg.clone()).expect("headroom variant is valid");
            let d = flow.design(app);
            let run = run_system(
                &flow.vfi_mesh_spec(&d, VfStage::Vfi2),
                &d.workload,
                &cfg,
                flow.power(),
            );
            HeadroomPoint {
                headroom,
                time_ratio: run.exec_seconds / nvfi.exec_seconds,
                edp_ratio: run.edp / nvfi.edp,
                run,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> DesignFlow {
        DesignFlow::new(PlatformConfig::small().with_scale(0.002)).unwrap()
    }

    #[test]
    fn wireless_ablation_runs_and_is_plausible() {
        let f = flow();
        let d = f.design(App::WordCount);
        let a = wireless_contribution(&f, &d);
        assert_eq!(a.knob, "mm-wave wireless overlay");
        assert!(a.with_feature.net.wireless_flit_hops > 0);
        assert_eq!(a.without_feature.net.wireless_flit_hops, 0);
        // The wired variant must still complete.
        assert!(a.without_feature.exec_seconds > 0.0);
        assert!((0.5..2.0).contains(&a.edp_benefit()), "{}", a.edp_benefit());
    }

    #[test]
    fn steal_ablation_never_prefers_the_flipped_policy() {
        let f = flow();
        let d = f.design(App::Kmeans);
        let a = steal_policy_contribution(&f, &d);
        // The flow chose its policy by modelled time, so flipping must not
        // be meaningfully faster.
        assert!(
            a.without_feature.exec_seconds >= a.with_feature.exec_seconds * 0.98,
            "flipped {} vs chosen {}",
            a.without_feature.exec_seconds,
            a.with_feature.exec_seconds
        );
    }

    #[test]
    fn adaptive_router_never_hurts() {
        let f = flow();
        let d = f.design(App::LinearRegression);
        let a = adaptive_router_contribution(&f, &d);
        // The enhanced router must not slow execution (it can only lower
        // network latency).
        assert!(
            a.with_feature.exec_seconds <= a.without_feature.exec_seconds * 1.02,
            "adaptive {} vs plain {}",
            a.with_feature.exec_seconds,
            a.without_feature.exec_seconds
        );
    }

    #[test]
    fn clustering_ablation_runs() {
        let f = flow();
        let d = f.design(App::Histogram);
        let a = clustering_contribution(&f, &d);
        assert!(a.with_feature.edp > 0.0);
        assert!(a.without_feature.edp > 0.0);
    }

    #[test]
    fn headroom_sweep_trades_time_for_energy() {
        let cfg = PlatformConfig::small().with_scale(0.002);
        let points = headroom_sweep(&cfg, App::Histogram, &[0.95, 0.5]);
        assert_eq!(points.len(), 2);
        // More aggressive headroom (0.95) slows execution at least as much
        // as the conservative setting.
        assert!(points[0].time_ratio >= points[1].time_ratio - 1e-9);
    }
}
