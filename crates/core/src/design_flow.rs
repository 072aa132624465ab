//! The VFI platform design flow for MapReduce applications (paper Fig. 3).
//!
//! ```text
//! profile on a non-VFI system ──► VFI clustering ──► V/F assignment (VFI 1)
//!        ──► bottleneck V/F reassignment + steal modification (VFI 2)
//!        ──► WiNoC construction, WI placement & thread mapping
//! ```
//!
//! [`DesignFlow::design`] executes the flow for one application and returns
//! a [`Design`] ([`DesignFlow::design_with_baseline`] also returns the
//! NVFI-mesh run it profiled on, the baseline of every comparison); spec
//! builders then materialise each of the paper's
//! platform configurations (NVFI mesh, VFI mesh, VFI WiNoC) as
//! [`SystemSpec`]s ready for [`crate::system::run_system`].

use crate::config::{PlacementStrategy, PlatformConfig};
use crate::orchestrator::config_key;
use crate::placement::{
    anneal_wi_placement, center_wis, initial_mapping, refine_mapping_max_wireless,
    refine_mapping_min_hop,
};
use crate::system::{RunReport, SystemSpec};
use mapwave_harness::hash::CacheKey;
use mapwave_manycore::mapping::ThreadMapping;
use mapwave_noc::node::grid_positions;
use mapwave_noc::routing::RoutingTable;
use mapwave_noc::topology::mesh::mesh;
use mapwave_noc::topology::small_world::SmallWorldBuilder;
use mapwave_noc::topology::wireless::WirelessOverlay;
use mapwave_noc::topology::Topology;
use mapwave_noc::NodeId;
use mapwave_phoenix::apps::App;
use mapwave_phoenix::stealing::StealPolicy;
use mapwave_phoenix::workload::{AppWorkload, ExecutionReport};
use mapwave_vfi::assignment::{
    assign_initial, detect_bottlenecks, reassign_for_bottlenecks, BottleneckAnalysis, VfAssignment,
};
use mapwave_vfi::clustering::{Clustering, ClusteringProblem};
use mapwave_vfi::power::CorePowerModel;
use std::sync::OnceLock;

/// Which V/F stage of the flow a spec should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfStage {
    /// The initial assignment (before bottleneck reassignment).
    Vfi1,
    /// The final assignment (after bottleneck reassignment).
    Vfi2,
}

impl VfStage {
    /// The label of the stage's VFI mesh system.
    pub fn mesh_label(self) -> &'static str {
        match self {
            VfStage::Vfi1 => "VFI 1 Mesh",
            VfStage::Vfi2 => "VFI Mesh",
        }
    }
}

/// The products of the design flow for one application.
#[derive(Debug, Clone)]
pub struct Design {
    /// The application designed for.
    pub app: App,
    /// Its recorded workload (real computation already performed).
    pub workload: AppWorkload,
    /// The NVFI-mesh profiling run (utilization + traffic inputs): the
    /// `exec` of the baseline [`RunReport`] that
    /// [`DesignFlow::design_with_baseline`] returns beside the design.
    pub profile: ExecutionReport,
    /// The Eq. (1) clustering.
    pub clustering: Clustering,
    /// VFI 1 per-cluster V/F.
    pub vfi1: VfAssignment,
    /// VFI 2 per-cluster V/F (bottleneck reassignment applied).
    pub vfi2: VfAssignment,
    /// The bottleneck analysis behind the reassignment decision.
    pub analysis: BottleneckAnalysis,
    /// Steal policy chosen for the VFI 1 system.
    pub steal_vfi1: StealPolicy,
    /// Steal policy chosen for the VFI 2 system.
    pub steal_vfi2: StealPolicy,
    /// The mesh specs' min-hop thread mapping, shared by both stages.
    min_hop_mapping: SpecProduct<ThreadMapping>,
    /// The WiNoC specs' small-world wireline graph, shared by both
    /// placement strategies.
    small_world: SpecProduct<Topology>,
}

/// A spec product built from a design on first use, with the key of the
/// flow configuration it was built under.
type SpecProduct<T> = OnceLock<(CacheKey, T)>;

/// `product`'s value for the flow configuration `key`: built once and
/// shared if the design's first such build used `key`, built afresh for
/// any other configuration (say, a flow varying the small-world degrees).
fn shared<T: Clone>(product: &SpecProduct<T>, key: CacheKey, build: impl Fn() -> T) -> T {
    let (built_for, value) = product.get_or_init(|| (key, build()));
    if *built_for == key {
        value.clone()
    } else {
        build()
    }
}

impl Design {
    /// The V/F assignment of a stage.
    pub fn vf(&self, stage: VfStage) -> &VfAssignment {
        match stage {
            VfStage::Vfi1 => &self.vfi1,
            VfStage::Vfi2 => &self.vfi2,
        }
    }

    /// Steal policy chosen for a stage by the design flow (Section 4.3).
    pub fn steal(&self, stage: VfStage) -> StealPolicy {
        match stage {
            VfStage::Vfi1 => self.steal_vfi1,
            VfStage::Vfi2 => self.steal_vfi2,
        }
    }
}

/// The design-flow driver.
#[derive(Debug, Clone)]
pub struct DesignFlow {
    cfg: PlatformConfig,
    power: CorePowerModel,
    /// The die's XY table, built by the first mesh spec and shared by every
    /// later one (a [`RoutingTable`] clone shares its arrays). Not built in
    /// [`DesignFlow::new`], which validates only.
    xy: OnceLock<RoutingTable>,
}

impl DesignFlow {
    /// Creates a flow for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns the validation message if `cfg` is inconsistent.
    pub fn new(cfg: PlatformConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(DesignFlow {
            cfg,
            power: CorePowerModel::default_x86(),
            xy: OnceLock::new(),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// The core power model in force.
    pub fn power(&self) -> &CorePowerModel {
        &self.power
    }

    /// A handle to the die's XY routing table, built on first use.
    fn xy_routing(&self) -> RoutingTable {
        self.xy
            .get_or_init(|| RoutingTable::xy(self.cfg.cols, self.cfg.rows))
            .clone()
    }

    /// The baseline: non-VFI mesh, identity mapping, default stealing.
    pub fn nvfi_spec(&self) -> SystemSpec {
        let cfg = &self.cfg;
        SystemSpec {
            label: "NVFI Mesh".into(),
            topology: mesh(cfg.cols, cfg.rows, cfg.tile_mm),
            overlay: WirelessOverlay::none(),
            routing: self.xy_routing(),
            mapping: ThreadMapping::identity(cfg.cores()),
            clustering: Clustering::grid_quadrants(cfg.cols, cfg.rows),
            vf: VfAssignment::uniform(cfg.clusters, cfg.vf_table.max()),
            steal: StealPolicy::Default,
        }
    }

    /// Runs the Fig. 3 flow for `app`.
    pub fn design(&self, app: App) -> Design {
        self.design_with_baseline(app).0
    }

    /// Runs the Fig. 3 flow for `app` and also returns the NVFI-mesh run
    /// it profiled on. That run is the baseline of every comparison, and
    /// it is exactly `run_system(&self.nvfi_spec(), ..)`, so callers that
    /// need both must not simulate it again.
    pub fn design_with_baseline(&self, app: App) -> (Design, RunReport) {
        let _span = mapwave_harness::telemetry::span_labeled("core.design", app.name());
        let cfg = &self.cfg;
        let workload = app.workload(cfg.scale, cfg.seed, cfg.cores());

        // Step 1: compute the V/F design parameters on the non-VFI system.
        let baseline = crate::system::run_system(&self.nvfi_spec(), &workload, cfg, &self.power);
        let profile = baseline.exec.clone();

        // Step 2: VFI clustering (Eq. 1).
        let n = cfg.cores();
        let traffic_rows: Vec<Vec<f64>> = (0..n)
            .map(|s| {
                (0..n)
                    .map(|d| profile.traffic.rate(NodeId(s), NodeId(d)))
                    .collect()
            })
            .collect();
        let problem =
            ClusteringProblem::new(profile.utilization.clone(), traffic_rows, cfg.clusters)
                .expect("profile produces a well-formed instance");
        // Bit-identical to the flat solve() for n ≤ 64; coarsen/refine
        // hierarchy beyond that.
        let clustering = problem.solve_multilevel();

        // Step 3: V/F assignment (VFI 1).
        let vfi1 = assign_initial(
            &clustering,
            &profile.utilization,
            &cfg.vf_table,
            cfg.headroom,
        );

        // Step 4: bottleneck reassignment (VFI 2).
        let analysis = detect_bottlenecks(&profile.utilization, &cfg.bottleneck);
        let vfi2 = reassign_for_bottlenecks(&vfi1, &clustering, &analysis, &cfg.vf_table);

        // Step 5: task-stealing modification. The Eq. (3) cap prevents slow
        // cores from stealing the phase tail, but in task-rich phases it
        // overloads the fast cores; the flow picks whichever policy runs
        // faster on the runtime model (a design-time decision, like the
        // paper's scheduler modification).
        let steal_vfi1 = self.choose_steal(&workload, &clustering, &vfi1);
        let steal_vfi2 = self.choose_steal(&workload, &clustering, &vfi2);

        let design = Design {
            app,
            workload,
            profile,
            clustering,
            vfi1,
            vfi2,
            analysis,
            steal_vfi1,
            steal_vfi2,
            min_hop_mapping: OnceLock::new(),
            small_world: OnceLock::new(),
        };
        (design, baseline)
    }

    /// Picks the steal policy with the lower modelled execution time for
    /// one V/F assignment (homogeneous assignments keep the default).
    fn choose_steal(
        &self,
        workload: &mapwave_phoenix::workload::AppWorkload,
        clustering: &Clustering,
        vf: &VfAssignment,
    ) -> StealPolicy {
        let f0 = vf.vf_of(0).freq_ghz;
        let heterogeneous =
            (1..vf.cluster_count()).any(|j| (vf.vf_of(j).freq_ghz - f0).abs() > 1e-9);
        if !heterogeneous {
            return StealPolicy::Default;
        }
        let speeds = vf.core_speeds(clustering, &self.cfg.vf_table);
        let time_with = |policy: StealPolicy| {
            let cfg = mapwave_phoenix::runtime::RuntimeConfig::nvfi(self.cfg.cores())
                .with_speeds(speeds.clone())
                .with_steal_policy(policy);
            mapwave_phoenix::runtime::Executor::new(cfg)
                .run(workload)
                .total_cycles()
        };
        if time_with(StealPolicy::VfiCapped) < time_with(StealPolicy::Default) {
            StealPolicy::VfiCapped
        } else {
            StealPolicy::Default
        }
    }

    /// The VFI mesh configuration of a stage: the baseline interconnect
    /// with the designed islands, a min-hop thread mapping, and the
    /// stage-appropriate steal policy.
    pub fn vfi_mesh_spec(&self, design: &Design, stage: VfStage) -> SystemSpec {
        let cfg = &self.cfg;
        let mapping = shared(&design.min_hop_mapping, config_key(cfg), || {
            self.min_hop_mapping(design)
        });
        SystemSpec {
            label: stage.mesh_label().into(),
            topology: mesh(cfg.cols, cfg.rows, cfg.tile_mm),
            overlay: WirelessOverlay::none(),
            routing: self.xy_routing(),
            mapping,
            clustering: design.clustering.clone(),
            vf: design.vf(stage).clone(),
            steal: design.steal(stage),
        }
    }

    /// The VFI WiNoC configuration: small-world wireline network built
    /// around the islands' traffic, wireless overlay placed by `strategy`,
    /// and the VFI 2 operating points.
    pub fn winoc_spec(&self, design: &Design, strategy: PlacementStrategy) -> SystemSpec {
        let cfg = &self.cfg;
        let topology = shared(&design.small_world, config_key(cfg), || {
            self.small_world(design)
        });

        // Scales with the die edge (3 on 8×8, 6 on 16×16, 12 on 32×32);
        // identical to the paper's min(3, wis_per_cluster) on ≤ 8×8 dies.
        let channels = cfg.wi_channels();
        let route = |overlay: &WirelessOverlay| {
            RoutingTable::up_down_weighted(
                &topology,
                overlay,
                crate::placement::WINOC_HUB_EDGE_WEIGHT,
            )
            .expect("WiNoC is connected")
        };
        let (overlay, mapping, routing) = match strategy {
            PlacementStrategy::MinHopCount => {
                // Minimise distance over the *actual* wireline graph, not
                // die geometry: a power-law network's neighbours are not
                // always physically adjacent.
                let hops = topology.hop_counts();
                let base =
                    crate::placement::initial_mapping(&design.clustering, cfg.cols, cfg.rows);
                let mapping = refine_mapping_min_hop(
                    base,
                    &design.clustering,
                    &design.profile.traffic,
                    |a: NodeId, b: NodeId| hops[a.index()][b.index()] as f64,
                );
                let physical = mapping.traffic_to_tiles(&design.profile.traffic);
                let overlay = anneal_wi_placement(
                    &topology,
                    &physical,
                    cfg.cols,
                    cfg.rows,
                    cfg.wis_per_cluster,
                    channels,
                    cfg.seed,
                );
                let routing = route(&overlay);
                (overlay, mapping, routing)
            }
            PlacementStrategy::MaxWirelessUtilization => {
                let overlay = center_wis(
                    cfg.cols,
                    cfg.rows,
                    cfg.tile_mm,
                    cfg.wis_per_cluster,
                    channels,
                );
                // Seed: heaviest external communicators onto the tiles
                // nearest the quadrant's WIs ("logically near, physically
                // far"), then refine against the *wireless-aware* routed
                // distance so intra-cluster locality is preserved too.
                let base = initial_mapping(&design.clustering, cfg.cols, cfg.rows);
                let seeded = refine_mapping_max_wireless(
                    &base,
                    &design.clustering,
                    &design.profile.traffic,
                    &overlay,
                    cfg.cols,
                    cfg.rows,
                );
                // The refinement's distance table is also the spec's
                // routing: the overlay does not change after it is built.
                let routing = route(&overlay);
                let mapping = refine_mapping_min_hop(
                    seeded,
                    &design.clustering,
                    &design.profile.traffic,
                    |a: NodeId, b: NodeId| routing.distance(a, b) as f64,
                );
                (overlay, mapping, routing)
            }
        };

        SystemSpec {
            label: format!("VFI WiNoC ({strategy})"),
            topology,
            overlay,
            routing,
            mapping,
            clustering: design.clustering.clone(),
            vf: design.vfi2.clone(),
            steal: design.steal(VfStage::Vfi2),
        }
    }

    /// The WiNoC's small-world wireline network, built around the islands'
    /// traffic.
    fn small_world(&self, design: &Design) -> Topology {
        let cfg = &self.cfg;
        let quadrant_labels: Vec<usize> = Clustering::grid_quadrants(cfg.cols, cfg.rows)
            .as_slice()
            .to_vec();
        let cluster_traffic = design
            .profile
            .traffic
            .cluster_rates(design.clustering.as_slice(), cfg.clusters);
        SmallWorldBuilder::new(
            grid_positions(cfg.cols, cfg.rows, cfg.tile_mm),
            quadrant_labels,
        )
        .k_intra(cfg.k_intra)
        .k_inter(cfg.k_inter)
        .alpha(cfg.alpha)
        .inter_traffic(cluster_traffic)
        .seed(cfg.seed)
        .build()
        .expect("validated configuration builds a connected WiNoC")
    }

    /// The methodology-1 thread mapping: minimise traffic-weighted mesh
    /// distance within the quadrant constraint.
    fn min_hop_mapping(&self, design: &Design) -> ThreadMapping {
        let cfg = &self.cfg;
        let cols = cfg.cols;
        let base = initial_mapping(&design.clustering, cfg.cols, cfg.rows);
        refine_mapping_min_hop(
            base,
            &design.clustering,
            &design.profile.traffic,
            |a: NodeId, b: NodeId| {
                let (ac, ar) = (a.index() % cols, a.index() / cols);
                let (bc, br) = (b.index() % cols, b.index() / cols);
                (ac.abs_diff(bc) + ar.abs_diff(br)) as f64
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::quadrant_of;

    fn flow() -> DesignFlow {
        DesignFlow::new(PlatformConfig::small().with_scale(0.002)).unwrap()
    }

    #[test]
    fn rejects_invalid_config() {
        let mut cfg = PlatformConfig::small();
        cfg.cols = 5;
        assert!(DesignFlow::new(cfg).is_err());
    }

    #[test]
    fn design_produces_balanced_clustering() {
        let f = flow();
        let d = f.design(App::WordCount);
        assert_eq!(d.clustering.cluster_count(), 4);
        assert_eq!(d.clustering.cluster_size(), 4);
        assert_eq!(d.vfi1.cluster_count(), 4);
        assert_eq!(d.vfi2.cluster_count(), 4);
    }

    #[test]
    fn vfi2_never_slower_than_vfi1() {
        let f = flow();
        for app in [App::Pca, App::Histogram, App::MatrixMult] {
            let d = f.design(app);
            for j in 0..4 {
                assert!(
                    d.vfi2.vf_of(j).freq_ghz >= d.vfi1.vf_of(j).freq_ghz,
                    "{app}: reassignment only raises V/F"
                );
            }
        }
    }

    #[test]
    fn specs_respect_quadrants() {
        let f = flow();
        let d = f.design(App::Kmeans);
        let spec = f.vfi_mesh_spec(&d, VfStage::Vfi2);
        for thread in 0..16 {
            assert_eq!(
                d.clustering.cluster_of(thread),
                quadrant_of(spec.mapping.tile_of(thread), 4, 4)
            );
        }
    }

    #[test]
    fn winoc_specs_build_for_both_strategies() {
        let f = flow();
        let d = f.design(App::LinearRegression);
        for strategy in [
            PlacementStrategy::MinHopCount,
            PlacementStrategy::MaxWirelessUtilization,
        ] {
            let spec = f.winoc_spec(&d, strategy);
            assert!(spec.topology.is_connected());
            assert_eq!(spec.overlay.len(), 4 * f.config().wis_per_cluster);
            assert_eq!(spec.routing.len(), 16);
        }
    }

    #[test]
    fn shared_spec_products_follow_the_flow_configuration() {
        // A design's small-world graph, first built under other degrees,
        // is not reused by its own flow: each flow's graph equals the one
        // it builds from a fresh design. Both mesh stages share a mapping.
        let f = flow();
        let cfg = f.config().clone().with_degrees(2.0, 2.0);
        let variant = DesignFlow::new(cfg).unwrap();
        let strategy = PlacementStrategy::MinHopCount;
        let d = f.design(App::Pca);
        let (fresh, fresh_variant) = (f.design(App::Pca), f.design(App::Pca));
        let by_variant = variant.winoc_spec(&d, strategy);
        let by_flow = f.winoc_spec(&d, strategy);
        assert_ne!(by_variant.topology, by_flow.topology);
        assert_eq!(by_flow.topology, f.winoc_spec(&fresh, strategy).topology);
        assert_eq!(
            by_variant.topology,
            variant.winoc_spec(&fresh_variant, strategy).topology
        );
        assert_eq!(
            f.vfi_mesh_spec(&d, VfStage::Vfi1).mapping,
            f.vfi_mesh_spec(&fresh, VfStage::Vfi2).mapping
        );
    }

    #[test]
    fn chosen_steal_policy_is_never_slower() {
        use mapwave_phoenix::runtime::{Executor, RuntimeConfig};
        let f = flow();
        let d = f.design(App::Kmeans);
        let speeds = d.vfi2.core_speeds(&d.clustering, &f.config().vf_table);
        let time = |policy| {
            Executor::new(
                RuntimeConfig::nvfi(16)
                    .with_speeds(speeds.clone())
                    .with_steal_policy(policy),
            )
            .run(&d.workload)
            .total_cycles()
        };
        let chosen = time(d.steal(VfStage::Vfi2));
        let default = time(StealPolicy::Default);
        assert!(
            chosen <= default + 1e-9,
            "chosen {chosen} vs default {default}"
        );
        // Homogeneous assignments always keep the default policy.
        let distinct: std::collections::BTreeSet<u64> =
            (0..4).map(|j| d.vfi2.vf_of(j).freq_ghz.to_bits()).collect();
        if distinct.len() == 1 {
            assert_eq!(d.steal(VfStage::Vfi2), StealPolicy::Default);
        }
    }

    #[test]
    fn design_is_deterministic() {
        let f = flow();
        let a = f.design(App::Histogram);
        let b = f.design(App::Histogram);
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.vfi1, b.vfi1);
        assert_eq!(a.vfi2, b.vfi2);
    }
}
