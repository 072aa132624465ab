//! Harness integration: stable configuration keys, the system variants
//! the evaluation runs, and the design cache behind the sweep engine.
//!
//! Every expensive stage of the evaluation is a pure function of the
//! [`PlatformConfig`] plus a small set of discrete inputs (the application,
//! the system variant). The design cache therefore keys semantically —
//! `(config key, app)` — instead of hashing the large derived structures
//! ([`Design`], [`crate::system::SystemSpec`]), which is sound because
//! those are themselves deterministic functions of the same key.
//!
//! # Examples
//!
//! ```
//! use mapwave::config::PlatformConfig;
//! use mapwave::orchestrator::config_key;
//!
//! let a = PlatformConfig::small().with_scale(0.01);
//! let b = PlatformConfig::small().with_scale(0.01);
//! assert_eq!(config_key(&a), config_key(&b));
//! assert_ne!(config_key(&a), config_key(&a.clone().with_seed(7)));
//! ```

use crate::config::{PlacementStrategy, PlatformConfig};
use crate::design_flow::{Design, DesignFlow, VfStage};
use crate::system::{run_system, RunReport};
use mapwave_harness::cache::{CacheStats, StageCache};
use mapwave_harness::hash::{CacheKey, StableHash, StableHasher};
use mapwave_phoenix::apps::App;
use std::sync::Arc;

impl StableHash for PlacementStrategy {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write(&[match self {
            PlacementStrategy::MinHopCount => 0u8,
            PlacementStrategy::MaxWirelessUtilization => 1u8,
        }]);
    }
}

impl StableHash for PlatformConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.cols.stable_hash(h);
        self.rows.stable_hash(h);
        self.tile_mm.stable_hash(h);
        self.clusters.stable_hash(h);
        self.vf_table.stable_hash(h);
        self.scale.stable_hash(h);
        self.seed.stable_hash(h);
        self.headroom.stable_hash(h);
        self.bottleneck.stable_hash(h);
        self.k_intra.stable_hash(h);
        self.k_inter.stable_hash(h);
        self.alpha.stable_hash(h);
        self.placement.stable_hash(h);
        self.wis_per_cluster.stable_hash(h);
        self.noc_warmup.stable_hash(h);
        self.noc_measure.stable_hash(h);
        self.noc_vcs.stable_hash(h);
        self.noc_adaptive.stable_hash(h);
        // The DRAM model is hashed only when banked: an ideal configuration
        // is behaviourally identical to one predating the field, so every
        // pre-existing cache entry and sweep-cell key stays valid.
        if !self.dram.is_ideal() {
            "dram-banked".stable_hash(h);
            self.dram.banks_per_controller.stable_hash(h);
            self.dram.timing.t_rp.stable_hash(h);
            self.dram.timing.t_rcd.stable_hash(h);
            self.dram.timing.t_cas.stable_hash(h);
            self.dram.timing.t_burst.stable_hash(h);
            self.dram.queue_depth.stable_hash(h);
            self.dram.spatial_run.stable_hash(h);
            self.dram.streams.stable_hash(h);
            self.dram.window_cycles.stable_hash(h);
        }
    }
}

/// The stable 128-bit key of a configuration — equal exactly for
/// structurally equal configurations, stable across processes.
pub fn config_key(cfg: &PlatformConfig) -> CacheKey {
    mapwave_harness::hash::stable_hash_of(cfg)
}

/// One of the five standard system runs of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunVariant {
    /// Non-VFI mesh baseline.
    Nvfi,
    /// Initial-assignment VFI mesh (VFI 1).
    Vfi1Mesh,
    /// Final VFI mesh (VFI 2 + steal modification).
    VfiMesh,
    /// VFI WiNoC, minimised-hop-count methodology.
    WinocMinHop,
    /// VFI WiNoC, maximised-wireless-utilisation methodology.
    WinocMaxWireless,
}

impl RunVariant {
    /// All variants, in the order [`crate::experiments::AppRuns`] stores
    /// them (the serial execution order of the pre-harness loops).
    pub const ALL: [RunVariant; 5] = [
        RunVariant::Nvfi,
        RunVariant::Vfi1Mesh,
        RunVariant::VfiMesh,
        RunVariant::WinocMinHop,
        RunVariant::WinocMaxWireless,
    ];

    /// A short stable name (used in cache keys and job labels).
    pub fn name(self) -> &'static str {
        match self {
            RunVariant::Nvfi => "nvfi",
            RunVariant::Vfi1Mesh => "vfi1-mesh",
            RunVariant::VfiMesh => "vfi-mesh",
            RunVariant::WinocMinHop => "winoc-min-hop",
            RunVariant::WinocMaxWireless => "winoc-max-wireless",
        }
    }

    /// Builds this variant's [`crate::system::SystemSpec`] from a design.
    pub fn spec(self, flow: &DesignFlow, design: &Design) -> crate::system::SystemSpec {
        match self {
            RunVariant::Nvfi => flow.nvfi_spec(),
            RunVariant::Vfi1Mesh => flow.vfi_mesh_spec(design, VfStage::Vfi1),
            RunVariant::VfiMesh => flow.vfi_mesh_spec(design, VfStage::Vfi2),
            RunVariant::WinocMinHop => flow.winoc_spec(design, PlacementStrategy::MinHopCount),
            RunVariant::WinocMaxWireless => {
                flow.winoc_spec(design, PlacementStrategy::MaxWirelessUtilization)
            }
        }
    }

    /// Builds this variant's system from a design and runs it.
    pub fn run(self, flow: &DesignFlow, design: &Design) -> RunReport {
        let spec = {
            // Min-hop mapping refinement, WI annealing and the small-world
            // and routing builds run here, outside `core.run_system`.
            let _span = mapwave_harness::telemetry::span_labeled("core.spec", self.name());
            self.spec(flow, design)
        };
        run_system(&spec, &design.workload, flow.config(), flow.power())
    }
}

/// The design cache: each `(config, app)` design with its `nvfi` run (the
/// design flow's NVFI-mesh profiling run), computed once process-wide.
/// The sweep engine's design jobs fill it and hand its entries to their
/// dependents as job data (so does the evaluation job graph, without the
/// cache); a later lookup of the same design in the process is a hit.
static DESIGN_CACHE: StageCache<Arc<(Design, RunReport)>> = StageCache::new("design");

fn design_key(cfg_key: CacheKey, app: App) -> CacheKey {
    mapwave_harness::hash::stable_hash_of(&("design", cfg_key.to_hex(), app.name()))
}

/// The design for `app` under `flow`'s configuration and its `nvfi` run,
/// computed once per `(config, app)` pair process-wide.
pub fn design_and_nvfi_cached(flow: &DesignFlow, app: App) -> Arc<(Design, RunReport)> {
    DESIGN_CACHE.get_or_insert_with(design_key(config_key(flow.config()), app), || {
        // Cache a fresh copy: the flow's own results lie among its freed
        // scratch in the computing worker's allocator arena and would keep
        // those pages resident (perfbench `sweep_faulted` on 2 workers:
        // median peak RSS 15.1 MiB without the copy, 13.6 MiB with it).
        let (design, nvfi) = flow.design_with_baseline(app);
        Arc::new((design.clone(), nvfi.clone()))
    })
}

/// The design for `app` under `flow`'s configuration, computed once per
/// `(config, app)` pair process-wide (see [`design_and_nvfi_cached`]).
pub fn design_cached(flow: &DesignFlow, app: App) -> Design {
    design_and_nvfi_cached(flow, app).0.clone()
}

/// Whether `design`'s VFI mesh (VFI 2) system is its VFI 1 mesh system
/// under another label. [`DesignFlow::vfi_mesh_spec`] varies only the
/// label, the V/F assignment and the steal policy by stage, so equal
/// assignments and policies (no bottleneck reassignment) give the same
/// system and the same run.
pub fn vfi_mesh_is_vfi1(design: &Design) -> bool {
    design.vfi1 == design.vfi2 && design.steal(VfStage::Vfi1) == design.steal(VfStage::Vfi2)
}

/// The `vfi-mesh` run, given the same design's `vfi1-mesh` run: that
/// report relabelled when [`vfi_mesh_is_vfi1`], a fresh run otherwise.
pub fn vfi_mesh_run(flow: &DesignFlow, design: &Design, vfi1_mesh: &RunReport) -> RunReport {
    if !vfi_mesh_is_vfi1(design) {
        return RunVariant::VfiMesh.run(flow, design);
    }
    RunReport {
        label: VfStage::Vfi2.mesh_label().into(),
        ..vfi1_mesh.clone()
    }
}

/// Hit/miss statistics of every stage cache, by stage name.
pub fn cache_stats() -> Vec<(&'static str, CacheStats)> {
    vec![(DESIGN_CACHE.name(), DESIGN_CACHE.stats())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_configs_key_equal() {
        let a = PlatformConfig::paper().with_scale(0.01).with_seed(42);
        let b = PlatformConfig::paper().with_scale(0.01).with_seed(42);
        assert_eq!(config_key(&a), config_key(&b));
    }

    #[test]
    fn every_field_change_misses() {
        let base = PlatformConfig::paper();
        let k = config_key(&base);
        let variants: Vec<PlatformConfig> = vec![
            PlatformConfig {
                cols: 10,
                ..base.clone()
            },
            PlatformConfig {
                rows: 10,
                ..base.clone()
            },
            PlatformConfig {
                tile_mm: 2.0,
                ..base.clone()
            },
            base.clone().with_scale(0.5),
            base.clone().with_seed(1),
            PlatformConfig {
                headroom: 0.7,
                ..base.clone()
            },
            base.clone().with_degrees(2.0, 2.0),
            PlatformConfig {
                alpha: 2.0,
                ..base.clone()
            },
            base.clone().with_placement(PlacementStrategy::MinHopCount),
            PlatformConfig {
                wis_per_cluster: 2,
                ..base.clone()
            },
            PlatformConfig {
                noc_warmup: 999,
                ..base.clone()
            },
            PlatformConfig {
                noc_measure: 999,
                ..base.clone()
            },
            PlatformConfig {
                noc_vcs: 2,
                ..base.clone()
            },
            PlatformConfig {
                noc_adaptive: true,
                noc_vcs: 2,
                ..base.clone()
            },
            PlatformConfig {
                bottleneck: mapwave_vfi::assignment::BottleneckParams {
                    ratio_threshold: 9.0,
                    ..base.bottleneck
                },
                ..base.clone()
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(config_key(v), k, "field change {i} must change the key");
        }
    }

    #[test]
    fn ideal_dram_keys_like_the_pre_dram_config() {
        use mapwave_manycore::dram::DramConfig;
        let base = PlatformConfig::paper();
        // Ideal is the default; an explicitly-set ideal keys identically.
        let explicit = base.clone().with_dram(DramConfig::ideal());
        assert_eq!(config_key(&base), config_key(&explicit));
        // Banked changes the key, and so does any banked parameter.
        let banked = base.clone().with_dram(DramConfig::banked());
        assert_ne!(config_key(&base), config_key(&banked));
        let mut tweaked = DramConfig::banked();
        tweaked.queue_depth = 32;
        assert_ne!(
            config_key(&banked),
            config_key(&base.clone().with_dram(tweaked))
        );
    }

    #[test]
    fn stage_keys_separate_namespaces() {
        let k = config_key(&PlatformConfig::small());
        let designs: std::collections::BTreeSet<String> = App::ALL
            .iter()
            .map(|&app| design_key(k, app).to_hex())
            .collect();
        assert_eq!(designs.len(), App::ALL.len(), "each app has a distinct key");
        assert!(
            !designs.contains(&k.to_hex()),
            "design keys never equal the bare config key"
        );
    }

    #[test]
    fn variant_names_are_distinct() {
        let names: std::collections::BTreeSet<&str> =
            RunVariant::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(names.len(), 5);
    }
}
