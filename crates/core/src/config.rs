//! Platform configuration for the design flow and experiments.

use mapwave_manycore::dram::DramConfig;
use mapwave_noc::switch::MAX_SWITCH_SLOTS;
use mapwave_noc::topology::small_world::DEFAULT_K_MAX;
use mapwave_vfi::assignment::BottleneckParams;
use mapwave_vfi::vf::VfTable;

/// Which wireless placement / thread mapping methodology to use for the
/// WiNoC (paper Section 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// Methodology 1: map threads to minimise the distance of highly
    /// communicating cores, then simulated-annealing WI placement minimising
    /// the traffic-weighted hop count.
    MinHopCount,
    /// Methodology 2: WIs at cluster centres, threads mapped
    /// "logically near, physically far" to maximise wireless utilisation.
    /// The paper finds this the consistently better choice (Fig. 6).
    #[default]
    MaxWirelessUtilization,
}

impl std::fmt::Display for PlacementStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementStrategy::MinHopCount => write!(f, "min-hop-count"),
            PlacementStrategy::MaxWirelessUtilization => write!(f, "max-wireless-util"),
        }
    }
}

/// Full configuration of one platform study.
///
/// # Examples
///
/// ```
/// use mapwave::config::PlatformConfig;
///
/// // The paper's 64-core platform at a small input scale for quick runs.
/// let cfg = PlatformConfig::paper().with_scale(0.01);
/// assert_eq!(cfg.cores(), 64);
/// assert_eq!(cfg.clusters, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Grid columns (the die is `cols × rows` tiles).
    pub cols: usize,
    /// Grid rows.
    pub rows: usize,
    /// Tile pitch in millimetres.
    pub tile_mm: f64,
    /// Number of VFI clusters (must divide the core count; quadrant layout
    /// requires exactly 4).
    pub clusters: usize,
    /// The V/F menu.
    pub vf_table: VfTable,
    /// Input scale factor (1.0 = the paper's Table-1 sizes).
    pub scale: f64,
    /// Workload generation seed.
    pub seed: u64,
    /// V/F selection headroom (Section 4.1 assignment).
    pub headroom: f64,
    /// Bottleneck detector parameters (Section 4.2).
    pub bottleneck: BottleneckParams,
    /// WiNoC average intra-cluster degree ⟨k_intra⟩.
    pub k_intra: f64,
    /// WiNoC average inter-cluster degree ⟨k_inter⟩.
    pub k_inter: f64,
    /// Power-law wiring exponent of the small-world network (lower values
    /// allow longer wires and shorter paths).
    pub alpha: f64,
    /// WiNoC wireless placement methodology.
    pub placement: PlacementStrategy,
    /// Wireless interfaces per cluster (one per channel in the paper).
    pub wis_per_cluster: usize,
    /// NoC simulation warmup cycles.
    pub noc_warmup: u64,
    /// NoC simulation measurement cycles.
    pub noc_measure: u64,
    /// Virtual channels per router port (1 = the paper's plain wormhole
    /// switch).
    pub noc_vcs: usize,
    /// Duato-style minimal adaptive routing on the upper VCs (an extension
    /// beyond the paper's router; requires `noc_vcs >= 2`).
    pub noc_adaptive: bool,
    /// Off-chip memory path: [`DramConfig::ideal`] (the fixed-latency
    /// model every golden is pinned against) or [`DramConfig::banked`]
    /// (per-controller command queues and bank state, so miss traffic
    /// observes queueing latency). Ideal configurations hash identically
    /// to configurations predating this field.
    pub dram: DramConfig,
}

impl PlatformConfig {
    /// The paper's configuration: 64 cores in four 4×4 VFIs, ⟨k⟩ = (3, 1),
    /// 12 WIs on 3 channels, full-scale inputs.
    pub fn paper() -> Self {
        PlatformConfig {
            cols: 8,
            rows: 8,
            tile_mm: 2.5,
            clusters: 4,
            vf_table: VfTable::paper_levels(),
            scale: 1.0,
            seed: 0xDAC_2015,
            headroom: 0.80,
            bottleneck: BottleneckParams::default(),
            k_intra: 3.0,
            k_inter: 1.0,
            alpha: 1.5,
            placement: PlacementStrategy::MaxWirelessUtilization,
            wis_per_cluster: 3,
            noc_warmup: 1_000,
            noc_measure: 5_000,
            noc_vcs: 1,
            noc_adaptive: false,
            dram: DramConfig::ideal(),
        }
    }

    /// A reduced 16-core configuration for fast tests (4×4 die, 2×2-tile
    /// VFIs).
    pub fn small() -> Self {
        PlatformConfig {
            cols: 4,
            rows: 4,
            noc_warmup: 500,
            noc_measure: 2_000,
            ..PlatformConfig::paper()
        }
    }

    /// A 256-core configuration: 16×16 die in four 8×8 VFIs, with the WI
    /// count scaled to the die (6 per cluster, 6 channels — the wireless
    /// budget grows linearly with the die edge, see
    /// [`PlatformConfig::wi_channels`]).
    pub fn large() -> Self {
        PlatformConfig {
            cols: 16,
            rows: 16,
            wis_per_cluster: 6,
            ..PlatformConfig::paper()
        }
    }

    /// A 1024-core configuration: 32×32 die in four 16×16 VFIs (the
    /// Epiphany-V scale), 12 WIs per cluster on 12 channels.
    pub fn huge() -> Self {
        PlatformConfig {
            cols: 32,
            rows: 32,
            wis_per_cluster: 12,
            ..PlatformConfig::paper()
        }
    }

    /// A parametric die: `cols × rows` tiles with the WI budget scaled to
    /// the die edge. Validation still applies — call
    /// [`PlatformConfig::validate`] (or [`crate::design_flow::DesignFlow::new`])
    /// to reject inconsistent dimensions with a clear error.
    pub fn with_dims(mut self, cols: usize, rows: usize) -> Self {
        self.cols = cols;
        self.rows = rows;
        self.wis_per_cluster = 3 * Self::die_scale(cols, rows);
        self
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cols * self.rows
    }

    /// The die-edge scale factor relative to the paper's 8×8 platform
    /// (≥ 1; the 4×4 test die shares the paper's wireless budget).
    fn die_scale(cols: usize, rows: usize) -> usize {
        (cols.max(rows) / 8).max(1)
    }

    /// Number of non-overlapping wireless channels for this die: the
    /// paper's 3 channels on the 8×8 die, scaled linearly with the die edge
    /// (6 on 16×16, 12 on 32×32) and never exceeding the per-cluster WI
    /// count. Identical to the paper's `min(3, wis_per_cluster)` on the
    /// 8×8 and 4×4 configurations.
    pub fn wi_channels(&self) -> usize {
        (mapwave_noc::topology::wireless::WirelessOverlay::PAPER_CHANNELS
            * Self::die_scale(self.cols, self.rows))
        .min(self.wis_per_cluster)
    }

    /// Sets the input scale.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the placement strategy.
    pub fn with_placement(mut self, placement: PlacementStrategy) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the WiNoC degree split (⟨k_intra⟩, ⟨k_inter⟩).
    pub fn with_degrees(mut self, k_intra: f64, k_inter: f64) -> Self {
        self.k_intra = k_intra;
        self.k_inter = k_inter;
        self
    }

    /// Sets the off-chip memory model.
    pub fn with_dram(mut self, dram: DramConfig) -> Self {
        self.dram = dram;
        self
    }

    /// The most ports any switch of this platform's fabrics can have: the
    /// small-world port cap, one connectivity-repair link per cluster
    /// beyond the first, and the local and wireless ports. Mesh switches
    /// have at most five.
    fn max_switch_ports(&self) -> usize {
        DEFAULT_K_MAX + self.clusters.saturating_sub(1) + 2
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.cols == 0 || self.rows == 0 {
            return Err("die dimensions must be nonzero".into());
        }
        if !self.cols.is_multiple_of(2) || !self.rows.is_multiple_of(2) {
            return Err("quadrant VFIs need even die dimensions".into());
        }
        if self.clusters != 4 {
            return Err("the quadrant layout supports exactly 4 clusters".into());
        }
        if !self.cores().is_multiple_of(self.clusters) {
            return Err("clusters must evenly divide cores".into());
        }
        if !(self.scale > 0.0 && self.scale.is_finite()) {
            return Err("scale must be positive".into());
        }
        if !(self.headroom > 0.0 && self.headroom <= 1.0) {
            return Err("headroom must be in (0,1]".into());
        }
        if self.wis_per_cluster == 0 {
            return Err("need at least one WI per cluster".into());
        }
        let quadrant_tiles = (self.cols / 2) * (self.rows / 2);
        if self.wis_per_cluster > quadrant_tiles {
            return Err(format!(
                "{} WIs per cluster exceed the {} tiles of a {}x{} quadrant",
                self.wis_per_cluster,
                quadrant_tiles,
                self.cols / 2,
                self.rows / 2
            ));
        }
        if self.noc_vcs == 0 {
            return Err("need at least one virtual channel".into());
        }
        if self.noc_adaptive && self.noc_vcs < 2 {
            return Err("adaptive routing needs at least two virtual channels".into());
        }
        // A switch keeps its input slots (ports × VCs) in one 64-bit mask.
        if self.noc_vcs > MAX_SWITCH_SLOTS / self.max_switch_ports() {
            return Err(format!(
                "{} virtual channels on switches of up to {} ports exceed the \
                 {MAX_SWITCH_SLOTS} input slots of a switch",
                self.noc_vcs,
                self.max_switch_ports()
            ));
        }
        self.dram.validate()?;
        Ok(())
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        assert_eq!(PlatformConfig::paper().validate(), Ok(()));
        assert_eq!(PlatformConfig::paper().cores(), 64);
    }

    #[test]
    fn small_config_is_valid() {
        assert_eq!(PlatformConfig::small().validate(), Ok(()));
        assert_eq!(PlatformConfig::small().cores(), 16);
    }

    #[test]
    fn large_and_huge_configs_are_valid() {
        let large = PlatformConfig::large();
        assert_eq!(large.validate(), Ok(()));
        assert_eq!(large.cores(), 256);
        assert_eq!(large.wi_channels(), 6);
        assert_eq!(large.wis_per_cluster, 6);
        let huge = PlatformConfig::huge();
        assert_eq!(huge.validate(), Ok(()));
        assert_eq!(huge.cores(), 1024);
        assert_eq!(huge.wi_channels(), 12);
    }

    #[test]
    fn vc_count_is_bounded_by_the_switch_slot_limit() {
        // 7 capped wired ports, 3 repair links, local and wireless: 12
        // ports, so 5 VCs (60 slots) fit in 64 and 6 (72) do not.
        let mut cfg = PlatformConfig::paper();
        assert_eq!(cfg.max_switch_ports(), 12);
        cfg.noc_vcs = 5;
        assert_eq!(cfg.validate(), Ok(()));
        cfg.noc_vcs = 6;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("64 input slots"), "{err}");
    }

    #[test]
    fn wi_channels_match_paper_on_existing_dies() {
        // The channel scaling must be invisible on the 8×8 and 4×4
        // platforms: 3 channels, exactly the old min(3, wis_per_cluster).
        assert_eq!(PlatformConfig::paper().wi_channels(), 3);
        assert_eq!(PlatformConfig::small().wi_channels(), 3);
    }

    #[test]
    fn with_dims_scales_wireless_budget() {
        let c = PlatformConfig::paper().with_dims(16, 16);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c, PlatformConfig::large());
        let d = PlatformConfig::paper().with_dims(32, 32);
        assert_eq!(d, PlatformConfig::huge());
    }

    #[test]
    fn non_square_even_dims_validate() {
        // A rectangular die is fine as long as quadrants exist: 12×4 = 48
        // cores (not a power of two), quadrants of 6×2 tiles.
        let c = PlatformConfig::paper().with_dims(12, 4);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.cores(), 48);
    }

    #[test]
    fn rejects_odd_dimensions() {
        let mut c = PlatformConfig::paper();
        c.cols = 7;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_non_square_odd_and_degenerate_dims_with_clear_errors() {
        // Every rejection is an Err, never a panic, and names the
        // constraint.
        for (cols, rows) in [(5usize, 8usize), (8, 5), (9, 9), (0, 8), (8, 0), (1, 64)] {
            let c = PlatformConfig::paper().with_dims(cols, rows);
            let err = c.validate().expect_err(&format!("{cols}x{rows} must fail"));
            assert!(
                err.contains("even") || err.contains("nonzero"),
                "{cols}x{rows}: unexpected message {err:?}"
            );
        }
    }

    #[test]
    fn rejects_wi_overflowing_quadrant() {
        let mut c = PlatformConfig::small();
        c.wis_per_cluster = 5; // 2×2 quadrant has only 4 tiles
        let err = c.validate().unwrap_err();
        assert!(err.contains("quadrant"), "unexpected message {err:?}");
    }

    #[test]
    fn rejects_bad_scale() {
        assert!(PlatformConfig::paper().with_scale(0.0).validate().is_err());
    }

    #[test]
    fn rejects_non_quadrant_clusters() {
        let mut c = PlatformConfig::paper();
        c.clusters = 8;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builders_compose() {
        let c = PlatformConfig::paper()
            .with_scale(0.5)
            .with_seed(9)
            .with_degrees(2.0, 2.0)
            .with_placement(PlacementStrategy::MinHopCount);
        assert_eq!(c.scale, 0.5);
        assert_eq!(c.seed, 9);
        assert_eq!(c.k_intra, 2.0);
        assert_eq!(c.placement, PlacementStrategy::MinHopCount);
    }

    #[test]
    fn strategy_display() {
        assert_eq!(PlacementStrategy::MinHopCount.to_string(), "min-hop-count");
        assert_eq!(
            PlacementStrategy::MaxWirelessUtilization.to_string(),
            "max-wireless-util"
        );
    }
}
