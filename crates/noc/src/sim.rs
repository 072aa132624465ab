//! Cycle-accurate network simulation.
//!
//! [`NetworkSim`] advances a wormhole-switched network cycle by cycle:
//! flits are injected by a Bernoulli process driven by a
//! [`crate::traffic::TrafficMatrix`] sampling, traverse input-buffered
//! switches under round-robin arbitration with credit-based flow control,
//! optionally hop across token-arbitrated wireless channels, and are ejected
//! at their destinations, accumulating latency and energy statistics.
//!
//! ## Active-set scheduling
//!
//! A switch with no buffered flits does nothing observable when clocked:
//! its round-robin pointer, wormhole bindings and output ownership are
//! untouched, and no flit can move. The inner loop therefore keeps an
//! **active set** — the ascending list of switches currently holding at
//! least one flit — and only walks those. Switches enroll when a flit
//! arrives (from a source queue or an upstream switch) and drop out lazily
//! once they drain, so per-cycle cost is proportional to the number of
//! in-flight flits rather than the topology size. Fractional clock
//! accumulators of dormant switches are replayed on wake (see
//! `NetworkSim::clock_fires`), preserving bit-identical firing sequences.
//!
//! During the drain phase (no injection), whenever every buffered flit is
//! still in its router pipeline (`ready_at` in the future) and no source
//! queue can inject, the simulator **fast-forwards** the clock to the next
//! ready time instead of idling cycle by cycle; token-MAC rotation over the
//! jumped cycles is applied in closed form. Fast-forwarded cycles are
//! observably identical to stepped idle cycles and count against the drain
//! budget.
//!
//! ## Clocking and VFI
//!
//! Each switch belongs to a clock domain and runs at a relative speed in
//! `(0, 1]` of the fastest domain; a switch only operates on cycles its
//! fractional clock accumulator fires. Flits crossing clock-domain
//! boundaries pay a mixed-clock FIFO synchronisation penalty. This models
//! the VFI-partitioned NoC of the paper, where each island's switches are
//! clocked at the island's frequency.

use crate::energy::EnergyModel;
use crate::flit::{flit_sequence, Flit, PacketId};
use crate::mac::{macs_for, ChannelMac};
use crate::node::NodeId;
use crate::routing::{Hop, Phase, RoutingTable};
use crate::stats::NetworkStats;
use crate::switch::{FabricState, OutRoute, Owner, PortMap, PORT_LOCAL};
use crate::topology::wireless::WirelessOverlay;
use crate::topology::Topology;
use crate::traffic::{InjectEvent, Injector, TrafficMatrix};
use mapwave_faults::FaultPlan;
use mapwave_harness::rng::SeedableRng;
use mapwave_harness::rng::StdRng;
use mapwave_harness::telemetry;
use std::borrow::Cow;
use std::collections::VecDeque;

/// A routing-table entry (out-port, wireless target, next up\*/down\*
/// phase) packed into 4 bytes. Table routes always use down-VC 0, so the
/// VC is not stored. The packing keeps the `2·n²`-entry escape and
/// wireline-fallback tables cache-resident (4 B/entry instead of the ~40 B
/// of `Option<(OutRoute, Phase)>`), which matters because every head-flit
/// routing decision is one random-index load from these tables.
///
/// Layout: bit 31 = present, bit 30 = next phase is `Down`, bits 16–29 =
/// out port, bits 0–15 = wireless target node (`0xFFFF` = wired hop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedRoute(u32);

impl PackedRoute {
    /// An unreachable routing state (no route).
    const NONE: PackedRoute = PackedRoute(0);

    fn pack(route: OutRoute, next_phase: Phase) -> Self {
        debug_assert_eq!(route.down_vc, 0, "table routes use the escape VC");
        debug_assert!(route.out_port < (1 << 14));
        let wt = route.wireless_to.map_or(0xFFFF, |w| {
            debug_assert!(w.index() < 0xFFFF);
            w.index() as u32
        });
        PackedRoute(
            (1 << 31)
                | (u32::from(matches!(next_phase, Phase::Down)) << 30)
                | ((route.out_port as u32) << 16)
                | wt,
        )
    }

    #[inline]
    fn unpack(self) -> Option<(OutRoute, Phase)> {
        if self.0 & (1 << 31) == 0 {
            return None;
        }
        let wt = self.0 & 0xFFFF;
        let phase = if self.0 & (1 << 30) != 0 {
            Phase::Down
        } else {
            Phase::Up
        };
        Some((
            OutRoute {
                out_port: ((self.0 >> 16) & 0x3FFF) as usize,
                wireless_to: (wt != 0xFFFF).then_some(NodeId(wt as usize)),
                down_vc: 0,
            },
            phase,
        ))
    }
}

/// Tunable microarchitecture parameters of the simulated network.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Input FIFO depth of ordinary ports, in flits (paper: 2).
    pub buffer_depth: usize,
    /// Input FIFO depth of wireless-interface ports, in flits (paper: 8).
    pub wi_buffer_depth: usize,
    /// Flits per packet.
    pub packet_len: usize,
    /// Extra cycles a flit pays when crossing clock-domain boundaries
    /// (mixed-clock FIFO synchronisation).
    pub sync_penalty: u64,
    /// Router pipeline depth: extra cycles a flit spends in each switch
    /// (buffer write, route compute, VC/switch allocation) beyond the
    /// single traversal cycle.
    pub router_delay: u64,
    /// Virtual channels per port. With 1 VC the router is the paper's
    /// plain wormhole switch; with ≥ 2, VC 0 is a deadlock-free *escape*
    /// channel following the routing table and the upper VCs are available
    /// for adaptive traffic (see [`SimConfig::adaptive`]).
    pub vcs: usize,
    /// Duato-style minimal adaptive routing (an extension beyond the
    /// paper's router): head flits on the upper VCs may take any wired
    /// neighbour that strictly reduces the hop distance, falling back to
    /// the escape VC (table-routed, deadlock-free) whenever the adaptive
    /// channels are blocked. Escape packets never return to the adaptive
    /// VCs — the conservative sufficient condition for deadlock freedom.
    /// Requires `vcs >= 2`.
    pub adaptive: bool,
    /// RNG seed for the injection process.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            buffer_depth: 2,
            wi_buffer_depth: 8,
            packet_len: 4,
            sync_penalty: 1,
            router_delay: 2,
            vcs: 1,
            adaptive: false,
            seed: 0,
        }
    }
}

/// Errors from [`NetworkSim::new`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Routing table size doesn't match the topology.
    TableSizeMismatch {
        /// Nodes in the topology.
        topology: usize,
        /// Nodes covered by the table.
        table: usize,
    },
    /// Per-switch speed vector has the wrong length or invalid values.
    InvalidSpeeds,
    /// Clock-domain vector has the wrong length.
    InvalidDomains,
    /// Buffer depths, packet length or VC count of zero, or adaptive
    /// routing without at least two VCs.
    InvalidConfig,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::TableSizeMismatch { topology, table } => write!(
                f,
                "routing table covers {table} nodes but topology has {topology}"
            ),
            SimError::InvalidSpeeds => {
                write!(f, "switch speeds must have one entry in (0,1] per node")
            }
            SimError::InvalidDomains => {
                write!(f, "clock domains must have one entry per node")
            }
            SimError::InvalidConfig => {
                write!(f, "buffer depths and packet length must be nonzero")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Whether the channel's token holder is mid-wormhole on its wireless port
/// (a holder keeps the token while a packet is in flight).
fn mac_holds_packet(ports: &PortMap, fabric: &FabricState, holder: Option<NodeId>) -> bool {
    holder.is_some_and(|h| {
        ports.wireless_port(h).is_some_and(|wp| {
            let base = fabric.slot(h, wp, 0);
            (base..base + fabric.vcs()).any(|s| fabric.out_owner_set(s))
        })
    })
}

/// Counters of the wireless-link faults that fired during the last run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocFaultCounts {
    /// Corrupted wireless transfer attempts (each burned a token slot and
    /// retransmitted later).
    pub flit_corruptions: u64,
    /// Wireless interfaces disabled after crossing the consecutive-error
    /// threshold (their packets divert to the wireline escape tree).
    pub wi_fallbacks: u64,
}

/// Runtime fault-injection state for the wireless layer. Present only when
/// a [`FaultPlan`] with a nonzero link-error rate is attached to a network
/// that actually has wireless equipment — fault-free simulations carry no
/// fault state at all and take the exact pre-fault code paths.
#[derive(Debug, Clone)]
struct NocFaults {
    plan: FaultPlan,
    /// Wireline-only escape table (same flat layout as `NetworkSim::escape`)
    /// that diverted packets follow after their WI is disabled.
    fallback: Vec<PackedRoute>,
    /// Transfer attempts per wireless channel — the deterministic hazard
    /// counter fed to [`FaultPlan::link_corrupts`].
    attempts: Vec<u64>,
    /// Consecutive corrupted attempts per source switch.
    consec: Vec<u32>,
    /// Switches whose WI crossed the fallback threshold and was disabled.
    disabled: Vec<bool>,
    counts: NocFaultCounts,
}

/// A cycle-accurate simulator instance for one network configuration.
///
/// The network description (topology, overlay, routing table) is held as
/// [`Cow`]: the owned constructors ([`NetworkSim::new`],
/// [`NetworkSim::with_clocks`]) yield a `NetworkSim<'static>`, while
/// [`NetworkSim::with_clocks_borrowed`] borrows an existing description —
/// callers that already hold a spec (e.g. a full-system run) build a
/// simulator without cloning multi-kilobyte component state.
///
/// # Examples
///
/// ```
/// use mapwave_noc::sim::{NetworkSim, SimConfig};
/// use mapwave_noc::routing::RoutingTable;
/// use mapwave_noc::topology::mesh::mesh;
/// use mapwave_noc::topology::wireless::WirelessOverlay;
/// use mapwave_noc::traffic::TrafficMatrix;
/// use mapwave_noc::energy::EnergyModel;
///
/// let topo = mesh(4, 4, 2.5);
/// let table = RoutingTable::xy(4, 4);
/// let mut sim = NetworkSim::new(
///     topo,
///     WirelessOverlay::none(),
///     table,
///     EnergyModel::default_65nm(),
///     SimConfig::default(),
/// )?;
/// let traffic = TrafficMatrix::uniform(16, 0.02);
/// let stats = sim.run(&traffic, 500, 2000, 5000);
/// assert!(stats.packets_delivered > 0);
/// assert!(stats.avg_latency() > 0.0);
/// # Ok::<(), mapwave_noc::sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NetworkSim<'a> {
    topo: Cow<'a, Topology>,
    overlay: Cow<'a, WirelessOverlay>,
    table: Cow<'a, RoutingTable>,
    ports: PortMap,
    energy_model: EnergyModel,
    cfg: SimConfig,
    domains: Vec<usize>,

    fabric: FabricState,
    macs: Vec<ChannelMac>,
    src_q: Vec<VecDeque<Flit>>,
    now: u64,
    next_packet: u64,
    measure_start: u64,
    measure_end: u64,
    injected_measured: u64,
    delivered_measured: u64,
    stats: NetworkStats,
    /// Measured flits per wired output port, CSR-aligned with `ports`
    /// (a directed wire link is one output port; the flat index keeps the
    /// hot-path counter array at `total_ports` entries instead of `n²`).
    link_flits: Vec<u64>,
    /// All-pairs wireline hop distances, flattened `v * n + dest`
    /// (adaptive routing only).
    hop_dist: Vec<u32>,
    /// Escape route and next phase per routing state, flattened
    /// `(v * 2 + phase) * n + dest`; [`PackedRoute::NONE`] for unreachable
    /// states.
    escape: Vec<PackedRoute>,
    /// Per-port flit traversal energy, CSR-aligned with `ports` (wired
    /// ports only; zero elsewhere).
    wire_energy: Vec<f64>,
    /// Per-port clock-domain sync penalty, CSR-aligned with `ports`.
    port_penalty: Vec<u64>,
    /// Per-switch crossbar energy per flit.
    switch_pj: Vec<f64>,
    /// Per-switch wireless channel index; `u32::MAX` for non-WI switches.
    wi_channel: Vec<u32>,
    /// VC new packets are injected on (the top VC when adaptive).
    inject_vc: usize,

    /// Flits currently buffered in each switch.
    buffered: Vec<u32>,
    /// Whether each switch is enrolled (in `active_list` or `pending`).
    active: Vec<bool>,
    /// Enrolled switches in ascending order; the per-cycle worklist.
    active_list: Vec<u32>,
    /// Switches that gained their first flit since the last sweep.
    pending: Vec<u32>,
    /// Scratch for merging `pending` into `active_list`.
    list_scratch: Vec<u32>,
    /// Sources with a nonempty source queue.
    src_list: Vec<u32>,
    /// Membership flags for `src_list`.
    src_listed: Vec<bool>,
    /// Sources whose local inject slot was full at the last attempt; the
    /// per-cycle space probe is skipped until that slot pops (the pop
    /// site in `try_advance` clears the flag), which is the only event
    /// that can free it.
    src_blocked: Vec<bool>,
    /// Per-switch index into the shared clock classes. Switches with the
    /// same speed bits walk the identical accumulator sequence from the
    /// same start, so the fractional clock is tracked once per class and
    /// `clock_fires` is a cached lookup after the first call of a cycle.
    clock_class: Vec<u32>,
    /// Distinct switch speed per clock class.
    class_speed: Vec<f64>,
    /// Fractional clock accumulator per class, caught up to `class_next`.
    class_acc: Vec<f64>,
    /// First cycle whose clock tick has not been applied per class;
    /// classes whose switches are all dormant replay the gap on first use.
    class_next: Vec<u64>,
    /// Whether the class clock fired at cycle `class_next - 1`.
    class_fires: Vec<bool>,
    /// Whether every switch runs at full speed (one clock class at 1.0 —
    /// class speeds are fixed at construction). The sweeps then skip the
    /// per-switch clock-class indirection: the clock trivially fires every
    /// cycle, and only the lazy cursor write is kept (snapshots read it),
    /// so firing patterns and state stay bit-identical.
    uniform_full_speed: bool,
    /// Earliest cycle at which processing switch `v` could do anything
    /// observable (`u64::MAX` when dormant). Between a switch's last
    /// processed cycle and `wake[v]`, clocking it is a proven no-op: every
    /// FIFO front is still inside a router pipeline, so `process_switch`
    /// would mutate nothing and the lazy clock replay covers the skipped
    /// `clock_fires` calls. A switch that saw a ready front this cycle
    /// (moved *or* blocked) wakes again next cycle; pushes into `v` lower
    /// `wake[v]` to the new flit's pipeline exit.
    wake: Vec<u64>,
    /// Minimum `wake` over the enrolled switches — the next cycle on which
    /// any switch has work. May be stale-low (a wasted sweep recomputes
    /// it), never stale-high.
    next_due: u64,

    /// Reusable per-cycle MAC holder snapshot.
    mac_holders: Vec<Option<NodeId>>,
    /// Reusable per-cycle channel-used flags.
    mac_used: Vec<bool>,
    /// Reusable per-switch output-port-used scratch (max port count).
    out_used: Vec<bool>,

    /// Switches currently parked *with a ready front* (blocked): the only
    /// ones a full-slot pop needs to rearm. Switches whose fronts are all
    /// in flight keep their pipeline-exit wake and must not be woken by
    /// neighbour pops.
    parked: Vec<bool>,
    /// Wireless fault-injection state; `None` unless a plan that can
    /// corrupt links is attached (see [`NetworkSim::set_faults`]).
    faults: Option<NocFaults>,

    /// Cycles advanced by stepping in the last run (telemetry).
    stepped_cycles: u64,
    /// Cycles advanced by fast-forward in the last run (telemetry).
    ff_cycles: u64,
    /// Stepped cycles whose switch work was replayed in closed form —
    /// steady-state cycles where only injection sampling and token-MAC
    /// rotation happened — plus drain cycles skipped after a periodic
    /// fixpoint was proven (telemetry).
    steady_cycles: u64,
    /// Flit moves (switch and source) performed by the last step.
    moves_last_step: u64,
    /// Reusable buffer for the precomputed injection schedule of one run
    /// (see [`Injector::schedule_into`]).
    sched: Vec<InjectEvent>,
}

impl<'a> NetworkSim<'a> {
    /// Creates a simulator over `topo` with uniform full-speed clocks.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn new(
        topo: Topology,
        overlay: WirelessOverlay,
        table: RoutingTable,
        energy_model: EnergyModel,
        cfg: SimConfig,
    ) -> Result<Self, SimError> {
        let n = topo.len();
        Self::with_clocks(
            topo,
            overlay,
            table,
            energy_model,
            cfg,
            vec![1.0; n],
            vec![0; n],
        )
    }

    /// Creates a simulator with per-switch clock speeds (relative to the
    /// fastest domain, in `(0, 1]`) and clock-domain labels (flits crossing
    /// domains pay [`SimConfig::sync_penalty`]).
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn with_clocks(
        topo: Topology,
        overlay: WirelessOverlay,
        table: RoutingTable,
        energy_model: EnergyModel,
        cfg: SimConfig,
        speeds: Vec<f64>,
        domains: Vec<usize>,
    ) -> Result<Self, SimError> {
        Self::build(
            Cow::Owned(topo),
            Cow::Owned(overlay),
            Cow::Owned(table),
            energy_model,
            cfg,
            speeds,
            domains,
        )
    }

    /// [`NetworkSim::with_clocks`] over borrowed network components: no
    /// topology/overlay/table clone, so one simulator can be assembled per
    /// evaluation without copying the network description.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn with_clocks_borrowed(
        topo: &'a Topology,
        overlay: &'a WirelessOverlay,
        table: &'a RoutingTable,
        energy_model: EnergyModel,
        cfg: SimConfig,
        speeds: Vec<f64>,
        domains: Vec<usize>,
    ) -> Result<Self, SimError> {
        Self::build(
            Cow::Borrowed(topo),
            Cow::Borrowed(overlay),
            Cow::Borrowed(table),
            energy_model,
            cfg,
            speeds,
            domains,
        )
    }

    fn build(
        topo: Cow<'a, Topology>,
        overlay: Cow<'a, WirelessOverlay>,
        table: Cow<'a, RoutingTable>,
        energy_model: EnergyModel,
        cfg: SimConfig,
        speeds: Vec<f64>,
        domains: Vec<usize>,
    ) -> Result<Self, SimError> {
        let n = topo.len();
        if table.len() != n {
            return Err(SimError::TableSizeMismatch {
                topology: n,
                table: table.len(),
            });
        }
        if speeds.len() != n || speeds.iter().any(|&s| !(s > 0.0 && s <= 1.0)) {
            return Err(SimError::InvalidSpeeds);
        }
        if domains.len() != n {
            return Err(SimError::InvalidDomains);
        }
        if cfg.buffer_depth == 0
            || cfg.wi_buffer_depth == 0
            || cfg.packet_len == 0
            || cfg.vcs == 0
            || (cfg.adaptive && cfg.vcs < 2)
        {
            return Err(SimError::InvalidConfig);
        }
        let ports = PortMap::new(&topo, &overlay);
        let mut caps = vec![cfg.buffer_depth; ports.total_ports()];
        for v in topo.nodes() {
            if let Some(wp) = ports.wireless_port(v) {
                caps[ports.flat_index(v, wp)] = cfg.wi_buffer_depth;
            }
        }
        let fabric = FabricState::new(&ports, &caps, cfg.vcs);
        let macs = macs_for(&overlay);
        let hop_dist: Vec<u32> = if cfg.adaptive {
            topo.hop_counts()
                .into_iter()
                .flatten()
                .map(|h| u32::try_from(h).unwrap_or(u32::MAX))
                .collect()
        } else {
            Vec::new()
        };

        // Precompute the full escape-route table: every reachable
        // (switch, phase, destination) state maps straight to its out-port
        // route, replacing per-flit table lookups and neighbour scans.
        let mut escape = vec![PackedRoute::NONE; 2 * n * n];
        for v in topo.nodes() {
            for (pi, phase) in [(0usize, Phase::Up), (1, Phase::Down)] {
                for d in 0..n {
                    let Some(entry) = table.try_entry(v, phase, NodeId(d)) else {
                        continue;
                    };
                    let route = match entry.hop {
                        Hop::Local => OutRoute {
                            out_port: PORT_LOCAL,
                            wireless_to: None,
                            down_vc: 0,
                        },
                        Hop::Wire(w) => OutRoute {
                            out_port: ports.wire_port(v, w),
                            wireless_to: None,
                            down_vc: 0,
                        },
                        Hop::Wireless { to, .. } => OutRoute {
                            out_port: ports
                                .wireless_port(v)
                                .expect("route uses wireless at a non-WI switch"),
                            wireless_to: Some(to),
                            down_vc: 0,
                        },
                    };
                    escape[(v.index() * 2 + pi) * n + d] =
                        PackedRoute::pack(route, entry.next_phase);
                }
            }
        }

        // Per-port link energies and domain-crossing penalties, aligned
        // with the port map's flat CSR indices.
        let total_ports = ports.total_ports();
        let mut wire_energy = vec![0.0f64; total_ports];
        let mut port_penalty = vec![0u64; total_ports];
        for v in topo.nodes() {
            for p in 1..ports.port_count(v) {
                if Some(p) == ports.wireless_port(v) {
                    continue;
                }
                let (w, _) = ports.wire_peer(v, p);
                let i = ports.flat_index(v, p);
                wire_energy[i] = energy_model.wire_energy_pj(topo.link_length_mm(v, w));
                port_penalty[i] = if domains[v.index()] != domains[w.index()] {
                    cfg.sync_penalty
                } else {
                    0
                };
            }
        }
        let switch_pj: Vec<f64> = topo
            .nodes()
            .map(|v| energy_model.switch_energy_pj(ports.radix(v)))
            .collect();
        let wi_channel: Vec<u32> = topo
            .nodes()
            .map(|v| overlay.channel_of(v).map_or(u32::MAX, |c| c.index() as u32))
            .collect();
        let max_ports = topo.nodes().map(|v| ports.port_count(v)).max().unwrap_or(0);
        let inject_vc = if cfg.adaptive { cfg.vcs - 1 } else { 0 };

        let mut class_speed: Vec<f64> = Vec::new();
        let clock_class: Vec<u32> = speeds
            .iter()
            .map(|s| {
                let bits = s.to_bits();
                match class_speed.iter().position(|c| c.to_bits() == bits) {
                    Some(i) => i as u32,
                    None => {
                        class_speed.push(*s);
                        (class_speed.len() - 1) as u32
                    }
                }
            })
            .collect();

        Ok(NetworkSim {
            link_flits: vec![0; total_ports],
            hop_dist,
            escape,
            wire_energy,
            port_penalty,
            switch_pj,
            wi_channel,
            inject_vc,
            buffered: vec![0; n],
            active: vec![false; n],
            active_list: Vec::with_capacity(n),
            pending: Vec::with_capacity(n),
            list_scratch: Vec::with_capacity(n),
            src_list: Vec::with_capacity(n),
            src_listed: vec![false; n],
            src_blocked: vec![false; n],
            clock_class,
            class_acc: vec![0.0; class_speed.len()],
            class_next: vec![0; class_speed.len()],
            class_fires: vec![false; class_speed.len()],
            uniform_full_speed: class_speed == [1.0],
            class_speed,
            wake: vec![u64::MAX; n],
            next_due: u64::MAX,
            mac_holders: Vec::with_capacity(macs.len()),
            mac_used: Vec::with_capacity(macs.len()),
            out_used: vec![false; max_ports],
            parked: vec![false; n],
            faults: None,
            stepped_cycles: 0,
            ff_cycles: 0,
            steady_cycles: 0,
            moves_last_step: 0,
            sched: Vec::new(),
            src_q: vec![VecDeque::new(); n],
            fabric,
            macs,
            topo,
            overlay,
            table,
            ports,
            energy_model,
            cfg,
            domains,
            now: 0,
            next_packet: 0,
            measure_start: 0,
            measure_end: u64::MAX,
            injected_measured: 0,
            delivered_measured: 0,
            stats: NetworkStats::default(),
        })
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The routing table in use.
    pub fn routing(&self) -> &RoutingTable {
        &self.table
    }

    /// Total cycles simulated since the last reset (warmup + measurement +
    /// drain, fast-forwarded cycles included); the denominator of
    /// simulated-cycles/sec throughput figures.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Cycles of the last run that were advanced by the drain fast-forward
    /// path rather than stepped individually.
    pub fn fast_forwarded_cycles(&self) -> u64 {
        self.ff_cycles
    }

    /// Attaches (or detaches) a fault plan.
    ///
    /// Fault state is only materialised when `plan` can corrupt wireless
    /// links *and* the network has wireless equipment; otherwise the
    /// simulator carries no fault state and behaves exactly as before this
    /// call. Attaching a plan precomputes the wireline-only escape table
    /// diverted packets fall back to. Per-run counters reset on every
    /// [`NetworkSim::run`], so one attached plan replays the identical
    /// fault schedule across runs.
    pub fn set_faults(&mut self, plan: &FaultPlan) {
        if !plan.affects_noc() || self.overlay.is_empty() {
            self.faults = None;
            return;
        }
        let n = self.topo.len();
        let wired = RoutingTable::up_down(&self.topo, &WirelessOverlay::none())
            .expect("wireline topology must be connected");
        let mut fallback = vec![PackedRoute::NONE; 2 * n * n];
        for v in self.topo.nodes() {
            for (pi, phase) in [(0usize, Phase::Up), (1, Phase::Down)] {
                for d in 0..n {
                    let Some(entry) = wired.try_entry(v, phase, NodeId(d)) else {
                        continue;
                    };
                    let route = match entry.hop {
                        Hop::Local => OutRoute {
                            out_port: PORT_LOCAL,
                            wireless_to: None,
                            down_vc: 0,
                        },
                        Hop::Wire(w) => OutRoute {
                            out_port: self.ports.wire_port(v, w),
                            wireless_to: None,
                            down_vc: 0,
                        },
                        Hop::Wireless { .. } => {
                            unreachable!("wireline-only table cannot route wireless")
                        }
                    };
                    fallback[(v.index() * 2 + pi) * n + d] =
                        PackedRoute::pack(route, entry.next_phase);
                }
            }
        }
        self.faults = Some(NocFaults {
            plan: plan.clone(),
            fallback,
            attempts: vec![0; self.macs.len()],
            consec: vec![0; n],
            disabled: vec![false; n],
            counts: NocFaultCounts::default(),
        });
    }

    /// Wireless-fault counters of the last run (zeros when no plan is
    /// attached or nothing fired).
    pub fn fault_counts(&self) -> NocFaultCounts {
        self.faults.as_ref().map(|f| f.counts).unwrap_or_default()
    }

    fn reset(&mut self) {
        self.fabric.reset();
        self.macs = macs_for(&self.overlay);
        for q in &mut self.src_q {
            q.clear();
        }
        self.now = 0;
        self.next_packet = 0;
        self.injected_measured = 0;
        self.delivered_measured = 0;
        self.stats = NetworkStats::default();
        self.link_flits.fill(0);
        self.buffered.fill(0);
        self.active.fill(false);
        self.active_list.clear();
        self.pending.clear();
        self.src_list.clear();
        self.src_listed.fill(false);
        self.src_blocked.fill(false);
        self.parked.fill(false);
        self.class_acc.fill(0.0);
        self.class_next.fill(0);
        self.class_fires.fill(false);
        self.wake.fill(u64::MAX);
        self.next_due = u64::MAX;
        self.stepped_cycles = 0;
        self.ff_cycles = 0;
        self.steady_cycles = 0;
        self.moves_last_step = 0;
        if let Some(fl) = &mut self.faults {
            // The plan (and fallback table) survives; the per-run hazard
            // counters restart so every run replays the same schedule.
            fl.attempts.fill(0);
            fl.consec.fill(0);
            fl.disabled.fill(false);
            fl.counts = NocFaultCounts::default();
        }
    }

    /// Runs `warmup` cycles, then `measure` cycles of measured injection,
    /// then drains in-flight measured packets for up to `drain_limit`
    /// cycles, and returns the statistics of the measurement window.
    ///
    /// The simulator state is reset first, so a `NetworkSim` can be reused
    /// across traffic patterns. The returned reference stays valid until
    /// the next `run`; clone it to keep the statistics across runs.
    pub fn run(
        &mut self,
        traffic: &TrafficMatrix,
        warmup: u64,
        measure: u64,
        drain_limit: u64,
    ) -> &NetworkStats {
        let _span = telemetry::span("noc.sim.run");
        self.reset();
        self.measure_start = warmup;
        self.measure_end = warmup + measure;
        // The injection process is independent of network state (see
        // `Injector::nonzero_sources`), so the whole run's schedule is
        // drawn up front in one tight pass over the same RNG stream a
        // per-cycle scan would consume — bit-identical events, and the
        // cycle loop can jump over event-free idle stretches.
        let injector = Injector::new(traffic);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut sched = std::mem::take(&mut self.sched);
        injector.schedule_into(&mut rng, warmup + measure, &mut sched);

        self.cycle_loop(&sched, warmup, measure, drain_limit);
        self.sched = sched;
        self.stats.cycles = measure;
        self.stats.packets_injected = self.injected_measured;
        self.stats.in_flight_at_end = self.injected_measured - self.delivered_measured;
        // Wired ports enumerate in ascending (from, to) order (ports
        // 1..=degree are sorted by neighbour id), matching the order the
        // old dense `from * n + to` scan produced.
        let mut loads = Vec::new();
        for v in self.topo.nodes() {
            for p in 1..self.ports.port_count(v) {
                if Some(p) == self.ports.wireless_port(v) {
                    continue;
                }
                let flits = self.link_flits[self.ports.flat_index(v, p)];
                if flits > 0 {
                    let (w, _) = self.ports.wire_peer(v, p);
                    loads.push(crate::stats::LinkLoad {
                        from: v,
                        to: w,
                        flits,
                    });
                }
            }
        }
        self.stats.link_loads = loads;
        telemetry::count("noc.packets_injected", self.stats.packets_injected);
        telemetry::count("noc.packets_delivered", self.stats.packets_delivered);
        telemetry::count("noc.flits_delivered", self.stats.flits_delivered);
        telemetry::count("noc.cycles_simulated", self.stepped_cycles);
        telemetry::count("noc.cycles_fast_forwarded", self.ff_cycles);
        telemetry::count("noc.cycles_steady_replayed", self.steady_cycles);
        &self.stats
    }

    /// The warmup/measure/drain cycle loop of one [`NetworkSim::run`].
    fn cycle_loop(&mut self, sched: &[InjectEvent], warmup: u64, measure: u64, drain_limit: u64) {
        let _loop_span = telemetry::span("noc.sim.cycle_loop");
        let end = warmup + measure;
        let mut pos = 0usize;
        while self.now < end {
            // Idle-gap jump: under exactly the in-step steady fast-path
            // conditions, and with no scheduled injection before the next
            // switch wake, every intervening cycle is idle token-MAC
            // bookkeeping — consume the stretch in closed form.
            if self.src_list.is_empty() && self.pending.is_empty() && self.next_due > self.now {
                let next_event = sched.get(pos).map_or(u64::MAX, |e| e.cycle);
                let horizon = self.next_due.min(next_event).min(end);
                if horizon > self.now + 1 {
                    self.steady_jump(horizon - self.now);
                    continue;
                }
            }
            self.step(Some((sched, &mut pos)));
        }
        let mut detector = crate::steady::PeriodDetector::default();
        let mut drained = 0u64;
        while drained < drain_limit && self.delivered_measured < self.injected_measured {
            // Only look for a jump after a cycle in which nothing
            // moved; while flits are flowing, stepping is the fast path.
            if self.moves_last_step == 0 {
                let gap = self.drain_gap();
                if gap > 1 {
                    let jump = gap.min(drain_limit - drained);
                    self.fast_forward(jump);
                    drained += jump;
                    detector.reset();
                    continue;
                }
                // Stalled and not fast-forwardable (a front is ready but
                // blocked). Injection is over, so the remaining dynamics
                // are a deterministic function of a small compact state;
                // if that state exactly recurs with every observable
                // counter unchanged, the drain is livelocked and every
                // remaining cycle is a verbatim repeat — consume the rest
                // of the budget in closed form.
                if detector.observe(|out| self.steady_snapshot(out)) {
                    let rest = drain_limit - drained;
                    self.now += rest;
                    self.steady_cycles += rest;
                    break;
                }
            } else {
                detector.reset();
            }
            self.step(None);
            drained += 1;
        }
    }

    /// The compact drain-phase state consumed by the livelock detector.
    ///
    /// During a streak of zero-move cycles the FIFO contents, wormhole
    /// bindings, round-robin pointers and source queues are all frozen —
    /// everything that *can* evolve is written here, in now-relative form:
    /// token positions, per-class fractional clock accumulators (with
    /// their lazy replay cursors), per-switch wake offsets, and the fault
    /// hazard counters plus the only stats field a zero-move cycle can
    /// touch (a corrupted transfer still radiates). Including the hazard
    /// counters is what disables detection under an *active* fault stream:
    /// while attempts keep burning, the state never recurs; once the
    /// stream is cycle-stable the counters freeze and detection resumes.
    fn steady_snapshot(&self, out: &mut Vec<u64>) {
        out.push(self.delivered_measured);
        out.push(self.stats.flits_delivered);
        out.push(self.stats.packets_delivered);
        out.push(self.stats.energy.wireless_pj.to_bits());
        for m in &self.macs {
            out.push(m.holder().map_or(u64::MAX, |h| h.index() as u64));
        }
        for &v in self.active_list.iter().chain(&self.pending) {
            let v = v as usize;
            let c = self.clock_class[v] as usize;
            out.push(v as u64);
            out.push(self.class_acc[c].to_bits());
            out.push(self.now + 1 - self.class_next[c].min(self.now + 1));
            out.push(match self.wake[v] {
                u64::MAX => u64::MAX,
                w => w.saturating_sub(self.now),
            });
        }
        for &s in &self.src_list {
            out.push(s as u64);
        }
        if let Some(fl) = &self.faults {
            out.extend(fl.attempts.iter().copied());
            out.extend(fl.consec.iter().map(|&c| u64::from(c)));
            out.extend(fl.disabled.iter().map(|&d| u64::from(d)));
            out.push(fl.counts.flit_corruptions);
            out.push(fl.counts.wi_fallbacks);
        }
    }

    /// Stepped cycles of the last run whose switch work was replayed in
    /// closed form (steady-state fast path + livelocked drain cycles).
    pub fn steady_replayed_cycles(&self) -> u64 {
        self.steady_cycles
    }

    /// Cycles until the next possible flit move during drain, or 0 when
    /// something can (or might) happen this cycle.
    ///
    /// A jump of `k` cycles is sound when no source queue can inject (its
    /// local port is full) and every FIFO-front flit is still in a router
    /// pipeline: those cycles are observably idle except for token-MAC
    /// rotation and clock accumulation, both of which [`Self::fast_forward`]
    /// replays in closed form.
    fn drain_gap(&self) -> u64 {
        for &s in &self.src_list {
            let slot = self
                .fabric
                .slot(NodeId(s as usize), PORT_LOCAL, self.inject_vc);
            if self.fabric.space(slot) > 0 {
                return 0;
            }
        }
        let mut min_ready = u64::MAX;
        let masks = self.fabric.occ_masks_enabled();
        for &v in self.active_list.iter().chain(&self.pending) {
            let v = NodeId(v as usize);
            if masks {
                let sb = self.fabric.switch_base(v);
                let mut m = self.fabric.occ_mask(v);
                while m != 0 {
                    let local = m.trailing_zeros() as usize;
                    m &= m - 1;
                    min_ready = min_ready.min(self.fabric.front_ready(sb + local));
                }
            } else {
                for slot in self.fabric.slots_of(v) {
                    min_ready = min_ready.min(self.fabric.front_ready(slot));
                }
            }
        }
        if min_ready == u64::MAX || min_ready <= self.now {
            0
        } else {
            min_ready - self.now
        }
    }

    /// Advances the clock over `cycles` observably idle cycles at once.
    ///
    /// Switch state is frozen (clock accumulators catch up lazily), but the
    /// token MACs rotate: a channel whose holder is mid-wormhole keeps its
    /// token, and an idle token rotates until it reaches a member that is
    /// mid-wormhole on its wireless port — from then on that member would
    /// have kept the token every remaining cycle.
    fn fast_forward(&mut self, cycles: u64) {
        self.rotate_macs_idle(cycles);
        self.now += cycles;
        self.ff_cycles += cycles;
    }

    /// Closed-form replay of observably idle warmup/measure cycles: the
    /// same cycles the in-step steady fast path would consume one at a
    /// time, credited to the same `steady_cycles` counter, with the idle
    /// token-MAC rotation applied in one pass.
    fn steady_jump(&mut self, cycles: u64) {
        self.rotate_macs_idle(cycles);
        self.now += cycles;
        self.steady_cycles += cycles;
        // What an idle step would have left behind.
        self.moves_last_step = 0;
    }

    /// The idle token-MAC rotation shared by both closed-form advances.
    fn rotate_macs_idle(&mut self, cycles: u64) {
        for c in 0..self.macs.len() {
            let len = self.macs[c].len() as u64;
            if len <= 1 {
                continue;
            }
            if mac_holds_packet(&self.ports, &self.fabric, self.macs[c].holder()) {
                continue;
            }
            let mut jump = cycles;
            for d in 1..len.min(cycles + 1) {
                let m = self.macs[c].holder_after(d as usize);
                if mac_holds_packet(&self.ports, &self.fabric, m) {
                    jump = d;
                    break;
                }
            }
            self.macs[c].advance_idle(jump);
        }
    }

    /// Whether a flit (packet) is inside the measurement window.
    fn measured(&self, f: &Flit) -> bool {
        f.created >= self.measure_start && f.created < self.measure_end
    }

    /// One global clock cycle.
    fn step(&mut self, inject: Option<(&[InjectEvent], &mut usize)>) {
        self.stepped_cycles += 1;
        self.moves_last_step = 0;

        // 1. Packet generation into source queues, consuming this cycle's
        //    slice of the precomputed schedule (events are sorted by cycle
        //    and, within a cycle, by ascending source — the order the old
        //    per-cycle sampling scan produced).
        if let Some((sched, pos)) = inject {
            while let Some(e) = sched.get(*pos) {
                if e.cycle != self.now {
                    break;
                }
                *pos += 1;
                let s = e.src as usize;
                let id = PacketId(self.next_packet);
                self.next_packet += 1;
                if self.now >= self.measure_start && self.now < self.measure_end {
                    self.injected_measured += 1;
                }
                self.src_q[s].extend(flit_sequence(
                    id,
                    NodeId(s),
                    NodeId(e.dest as usize),
                    self.cfg.packet_len,
                    self.now,
                ));
                if !self.src_listed[s] {
                    self.src_listed[s] = true;
                    self.src_list.push(s as u32);
                }
            }
        }

        // Steady-state fast path: nothing is backlogged at a source, no
        //    switch gained its first flit, and no enrolled switch has work
        //    before `next_due` — every front is still in its router
        //    pipeline. Sections 2–5 are then provably no-ops (the sweep
        //    would process nothing and keep every switch), so the cycle
        //    reduces to idle token-MAC bookkeeping; the skipped clock
        //    ticks replay lazily on wake, bit-identically.
        if self.src_list.is_empty() && self.pending.is_empty() && self.next_due > self.now {
            for mac in &mut self.macs {
                let holds = mac_holds_packet(&self.ports, &self.fabric, mac.holder());
                mac.end_cycle(false, holds);
            }
            self.steady_cycles += 1;
            self.now += 1;
            return;
        }

        // 2. Move one flit per backlogged node from the source queue into
        //    the local input port, enrolling the switch. New packets start
        //    on the top VC (the adaptive one when adaptive routing is on).
        let mut src_list = std::mem::take(&mut self.src_list);
        let mut keep = 0;
        let mut r = 0;
        while r < src_list.len() {
            let s = src_list[r] as usize;
            // A source that found its inject slot full stays backlogged
            // until that slot pops; the probe below is pure, so skipping
            // it until the pop rearms the flag changes nothing.
            if self.src_blocked[s] {
                src_list[keep] = s as u32;
                keep += 1;
                r += 1;
                continue;
            }
            let slot = self.fabric.slot(NodeId(s), PORT_LOCAL, self.inject_vc);
            if self.fabric.space(slot) > 0 {
                if let Some(mut f) = self.src_q[s].pop_front() {
                    // Entering the injection port costs the router pipeline
                    // too.
                    f.ready_at = f.ready_at.max(self.now + self.cfg.router_delay);
                    let ready = f.ready_at;
                    self.fabric.push_back(slot, f);
                    self.buffered[s] += 1;
                    self.moves_last_step += 1;
                    if self.wake[s] > ready {
                        self.wake[s] = ready;
                    }
                    if !self.active[s] {
                        self.active[s] = true;
                        self.pending.push(s as u32);
                    }
                }
            } else {
                self.src_blocked[s] = true;
            }
            if self.src_q[s].is_empty() {
                self.src_listed[s] = false;
            } else {
                src_list[keep] = s as u32;
                keep += 1;
            }
            r += 1;
        }
        src_list.truncate(keep);
        self.src_list = src_list;

        // 3. MAC: snapshot holders and usage flags per channel.
        let mut holders = std::mem::take(&mut self.mac_holders);
        holders.clear();
        holders.extend(self.macs.iter().map(ChannelMac::holder));
        let mut channel_used = std::mem::take(&mut self.mac_used);
        channel_used.clear();
        channel_used.resize(self.macs.len(), false);

        // 4. Enroll switches that gained their first flit since the last
        //    sweep (same-cycle injections included, for router_delay = 0).
        self.merge_pending();

        // 5. Switch operation, ascending over the active set. A switch's
        //    clock catches up lazily right before it is consulted, and a
        //    switch whose `wake` lies in the future is skipped outright
        //    (clocking it is a proven no-op). Switches that end the sweep
        //    empty are dropped and re-enroll on arrival.
        self.sweep(&holders, &mut channel_used);

        // 6. MAC bookkeeping.
        for (c, mac) in self.macs.iter_mut().enumerate() {
            let holds_packet = mac_holds_packet(&self.ports, &self.fabric, holders[c]);
            mac.end_cycle(channel_used[c], holds_packet);
        }
        self.mac_holders = holders;
        self.mac_used = channel_used;

        self.now += 1;
    }

    /// The switch sweep: ascending over the active list, due switches
    /// processed, drained switches dropped in place.
    ///
    /// `next_due` is rebuilt inline: the compaction scan folds in each
    /// kept switch's wake right after it is processed, and the wake
    /// writes that can touch a switch *earlier* in the list (a push into
    /// a lower-numbered or pending switch, a park rearm of a lower wire
    /// peer — both in `try_advance`) fold their lowered value in at the
    /// write. The result may sit below the true minimum when a push
    /// lowers a due switch that is later processed and re-armed higher —
    /// i.e. `next_due` stays stale-low-never-stale-high: a wasted sweep
    /// recomputes it, and no switch with work is ever skipped.
    fn sweep(&mut self, holders: &[Option<NodeId>], channel_used: &mut [bool]) {
        let mut list = std::mem::take(&mut self.active_list);
        let mut out_used = std::mem::take(&mut self.out_used);
        let mut keep = 0;
        self.next_due = u64::MAX;
        let uniform = self.uniform_full_speed;
        for r in 0..list.len() {
            let v = list[r] as usize;
            debug_assert!(self.buffered[v] > 0, "enrolled switches hold flits");
            if self.wake[v] <= self.now {
                // At uniform full speed the single class clock trivially
                // fires; keep only its lazy cursor in sync (the writes
                // `clock_fires` would make) and skip the class lookup.
                let fires = if uniform {
                    if self.class_next[0] <= self.now {
                        self.class_next[0] = self.now + 1;
                        self.class_fires[0] = true;
                    }
                    true
                } else {
                    self.clock_fires(v)
                };
                if fires {
                    self.process_switch(NodeId(v), holders, channel_used, &mut out_used);
                } else {
                    // The clock sat out this cycle: retry on the next one,
                    // exactly as a per-cycle sweep would.
                    self.wake[v] = self.now + 1;
                }
            }
            if self.buffered[v] > 0 {
                list[keep] = v as u32;
                keep += 1;
                self.next_due = self.next_due.min(self.wake[v]);
            } else {
                self.active[v] = false;
            }
        }
        list.truncate(keep);
        self.active_list = list;
        self.out_used = out_used;
    }

    /// Catches switch `v`'s fractional clock up to the current cycle and
    /// reports whether it fires now. Clocks are shared per speed class:
    /// every switch with the same speed walks the identical accumulator
    /// sequence from the same start, so the first call of a cycle replays
    /// any dormant gap (the identical sequence of additions a per-cycle
    /// update would have performed — firing patterns are bit-identical)
    /// and later calls for the same class are a cached lookup.
    fn clock_fires(&mut self, v: usize) -> bool {
        let c = self.clock_class[v] as usize;
        if self.class_next[c] <= self.now {
            let from = self.class_next[c];
            self.class_next[c] = self.now + 1;
            let speed = self.class_speed[c];
            if speed == 1.0 {
                // The accumulator stays exactly 0.0 and fires every cycle.
                self.class_fires[c] = true;
            } else {
                let acc = &mut self.class_acc[c];
                let mut fires = false;
                for _ in from..=self.now {
                    *acc += speed;
                    fires = *acc >= 1.0;
                    if fires {
                        *acc -= 1.0;
                    }
                }
                self.class_fires[c] = fires;
            }
        }
        self.class_fires[c]
    }

    /// Merges newly enrolled switches into the sorted active list.
    fn merge_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_unstable();
        let mut merged = std::mem::take(&mut self.list_scratch);
        merged.clear();
        merged.reserve(self.active_list.len() + self.pending.len());
        let (a, b) = (&self.active_list, &self.pending);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i] < b[j] {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(b[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.pending.clear();
        self.list_scratch = std::mem::replace(&mut self.active_list, merged);
    }

    /// Translates an escape-table entry into a concrete route (down-VC 0).
    fn escape_route(&self, v: NodeId, phase: Phase, dest: NodeId) -> (OutRoute, Phase) {
        let p = match phase {
            Phase::Up => 0,
            Phase::Down => 1,
        };
        self.escape[(v.index() * 2 + p) * self.topo.len() + dest.index()]
            .unpack()
            .unwrap_or_else(|| panic!("no route from {v} (phase {phase:?}) to {dest}"))
    }

    /// Routes a head flit at `(v, in-VC vc)`: the escape VC follows the
    /// table; adaptive VCs take any free minimal wired hop and fall back to
    /// the escape channel when blocked (conservative Duato).
    ///
    /// The third return is the fault-model divert flag: `true` when the
    /// packet leaves the wireless tree for the wireline-only fallback tree
    /// at this hop (it commits onto the flit only when the move succeeds).
    fn route_head(
        &self,
        v: NodeId,
        vc: usize,
        f: &Flit,
        out_used: &[bool],
    ) -> (OutRoute, Option<Phase>, bool) {
        if f.dest == v {
            return (
                OutRoute {
                    out_port: PORT_LOCAL,
                    wireless_to: None,
                    down_vc: 0,
                },
                None,
                false,
            );
        }
        if vc == 0 || !self.cfg.adaptive {
            if let Some(fl) = &self.faults {
                let n = self.topo.len();
                if f.wired_fallback {
                    // Already diverted: stay on the wireline-only tree.
                    let p = match f.phase {
                        Phase::Up => 0,
                        Phase::Down => 1,
                    };
                    let (route, np) = fl.fallback[(v.index() * 2 + p) * n + f.dest.index()]
                        .unpack()
                        .unwrap_or_else(|| {
                            panic!("no wireline fallback route from {v} to {}", f.dest)
                        });
                    return (route, Some(np), false);
                }
                let (route, next_phase) = self.escape_route(v, f.phase, f.dest);
                if route.wireless_to.is_some() && fl.disabled[v.index()] {
                    // The WI here fell back: divert onto the wireline-only
                    // up*/down* tree, restarting the phase at this switch
                    // (the same restart the adaptive fallback performs).
                    let (wr, np) = fl.fallback[(v.index() * 2) * n + f.dest.index()]
                        .unpack()
                        .unwrap_or_else(|| {
                            panic!("no wireline fallback route from {v} to {}", f.dest)
                        });
                    return (wr, Some(np), true);
                }
                return (route, Some(next_phase), false);
            }
            let (route, next_phase) = self.escape_route(v, f.phase, f.dest);
            return (route, Some(next_phase), false);
        }
        // Adaptive: any wired neighbour strictly closer to the destination,
        // preferring the one with the most free downstream adaptive space.
        let n = self.topo.len();
        let sb = self.fabric.switch_base(v);
        let vcs = self.cfg.vcs;
        let my_dist = self.hop_dist[v.index() * n + f.dest.index()];
        let mut best: Option<(usize, OutRoute)> = None; // (space, route)
        for (i, &w) in self.topo.neighbors(v).iter().enumerate() {
            if self.hop_dist[w.index() * n + f.dest.index()] >= my_dist {
                continue;
            }
            // Wired ports are 1..=degree in sorted neighbour order.
            let o = i + 1;
            if out_used[o] {
                continue;
            }
            let (_, wp) = self.ports.wire_peer(v, o);
            // Pick the free downstream adaptive VC with the most space.
            let Some((dvc, space)) = (1..vcs)
                .filter(|&c| !self.fabric.out_owner_set(sb + o * vcs + c))
                .map(|c| (c, self.fabric.space(self.fabric.slot(w, wp, c))))
                .max_by_key(|&(c, s)| (s, usize::MAX - c))
            else {
                continue;
            };
            if space == 0 {
                continue;
            }
            if best.as_ref().is_none_or(|(bs, _)| space > *bs) {
                best = Some((
                    space,
                    OutRoute {
                        out_port: o,
                        wireless_to: None,
                        down_vc: dvc,
                    },
                ));
            }
        }
        match best {
            Some((_, route)) => (route, None, false),
            None => {
                // All minimal adaptive channels blocked: drain via the
                // escape network, restarting the up*/down* phase here.
                let (route, next_phase) = self.escape_route(v, Phase::Up, f.dest);
                (route, Some(next_phase), false)
            }
        }
    }

    /// Moves flits through one switch for one of its active cycles.
    fn process_switch(
        &mut self,
        v: NodeId,
        holders: &[Option<NodeId>],
        channel_used: &mut [bool],
        out_used: &mut [bool],
    ) {
        let ports = self.ports.port_count(v);
        let vcs = self.cfg.vcs;
        let sb = self.fabric.switch_base(v);
        out_used[..ports].fill(false);
        let masks = self.fabric.occ_masks_enabled();

        // Pass A: continue established wormholes. Only an occupied slot
        // can move, and `v`'s occupancy never grows while `v` is being
        // processed (no switch pushes into itself), so iterating the set
        // bits of the occupancy mask visits exactly the slots whose probe
        // in the positional scan could succeed, in the same ascending
        // order — slots that empty mid-pass are re-filtered by the fresh
        // `front_ready` check either way.
        let mut any_moved = false;
        if masks {
            let mut m = self.fabric.occ_mask(v);
            while m != 0 {
                let local = m.trailing_zeros() as usize;
                m &= m - 1;
                any_moved |=
                    self.continue_wormhole(v, sb, sb + local, holders, channel_used, out_used);
            }
        } else {
            for slot in sb..sb + ports * vcs {
                any_moved |= self.continue_wormhole(v, sb, slot, holders, channel_used, out_used);
            }
        }

        // Pass B: route new head flits, round-robin over input ports
        // (escape VC first within a port, so draining traffic keeps
        // priority over fresh adaptive traffic). The masked variant
        // rotates the occupancy mask by whole ports so its set bits
        // enumerate in exactly the positional scan's order: cyclic ports
        // starting at `rr_next`, ascending VCs within a port.
        let rr = self.fabric.rr_next[v.index()] as usize;
        if masks {
            let w = ports * vcs;
            let m0 = self.fabric.occ_mask(v);
            let s = rr * vcs;
            let mut m = if s == 0 {
                m0
            } else {
                let wide = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
                ((m0 >> s) | (m0 << (w - s))) & wide
            };
            while m != 0 {
                let t = m.trailing_zeros() as usize;
                m &= m - 1;
                let mut local = t + s;
                if local >= w {
                    local -= w;
                }
                let (p, vc) = (local / vcs, local % vcs);
                if self.route_new_head(v, sb, p, vc, holders, channel_used, out_used) {
                    any_moved = true;
                    self.fabric.rr_next[v.index()] = ((p + 1) % ports) as u32;
                }
            }
        } else {
            let mut p = rr;
            for _ in 0..ports {
                for vc in 0..vcs {
                    if self.route_new_head(v, sb, p, vc, holders, channel_used, out_used) {
                        any_moved = true;
                        self.fabric.rr_next[v.index()] = ((p + 1) % ports) as u32;
                    }
                }
                p += 1;
                if p == ports {
                    p = 0;
                }
            }
        }

        // Decide when this switch next needs clocking. A ready front after
        // a cycle that moved flits retries immediately (the move may have
        // freed the port or ownership it waits on). A ready front after a
        // *move-free* cycle is blocked on state this switch cannot change:
        // the switch parks until a neighbour pops the full slot it pushes
        // into (`try_advance` rearms `wake`), a flit arrives (the push
        // sites lower `wake`), or an in-flight front exits its pipeline
        // (`fut_min`). Two carve-outs keep the skip a proven no-op:
        // wireless switches never park (token rotation is not a wake
        // source, and the holder check must burn its slot every cycle),
        // and under a fault plan a blocked wireless retry still mutates
        // hazard counters, so every ready front retries per-cycle.
        let mut ready_now = false;
        let mut fut_min = u64::MAX;
        if masks {
            // Empty slots report `front_ready == MAX` and influence
            // neither bound, so only the occupied slots need probing.
            let mut m = self.fabric.occ_mask(v);
            while m != 0 {
                let local = m.trailing_zeros() as usize;
                m &= m - 1;
                let r = self.fabric.front_ready(sb + local);
                if r <= self.now {
                    ready_now = true;
                } else if r < fut_min {
                    fut_min = r;
                }
            }
        } else {
            for slot in sb..sb + ports * vcs {
                let r = self.fabric.front_ready(slot);
                if r <= self.now {
                    ready_now = true;
                } else if r < fut_min {
                    fut_min = r;
                }
            }
        }
        let parkable =
            self.faults.is_none() && !any_moved && self.wi_channel[v.index()] == u32::MAX;
        self.parked[v.index()] = ready_now && parkable;
        self.wake[v.index()] = if ready_now && !parkable {
            self.now + 1
        } else {
            fut_min
        };
    }

    /// One Pass-A probe of [`NetworkSim::process_switch`]: continues the
    /// wormhole bound to `slot` when its front is ready and its output
    /// port is still free this cycle. Returns whether a flit moved.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn continue_wormhole(
        &mut self,
        v: NodeId,
        sb: usize,
        slot: usize,
        holders: &[Option<NodeId>],
        channel_used: &mut [bool],
        out_used: &mut [bool],
    ) -> bool {
        let Some(route) = self.fabric.in_route(slot) else {
            return false;
        };
        if out_used[route.out_port] {
            return false;
        }
        if self.fabric.front_ready(slot) > self.now {
            return false;
        }
        let f = *self.fabric.front(slot).expect("ready slot has a front");
        let local = slot - sb;
        let vcs = self.cfg.vcs;
        self.try_advance(
            v,
            local / vcs,
            local % vcs,
            f,
            route,
            None,
            out_used,
            holders,
            channel_used,
            false,
            false,
        )
    }

    /// One Pass-B probe of [`NetworkSim::process_switch`]: routes the new
    /// head flit at input `(p, vc)` when one is ready and unbound, and its
    /// chosen output is free. Returns whether a flit moved.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn route_new_head(
        &mut self,
        v: NodeId,
        sb: usize,
        p: usize,
        vc: usize,
        holders: &[Option<NodeId>],
        channel_used: &mut [bool],
        out_used: &mut [bool],
    ) -> bool {
        let vcs = self.cfg.vcs;
        let slot = sb + p * vcs + vc;
        if self.fabric.in_route_set(slot) {
            return false;
        }
        if self.fabric.front_ready(slot) > self.now {
            return false;
        }
        let f = *self.fabric.front(slot).expect("ready slot has a front");
        if !f.kind.is_head() {
            return false;
        }
        let (route, next_phase, divert) = self.route_head(v, vc, &f, out_used);
        let o = route.out_port;
        if out_used[o] || self.fabric.out_owner_set(sb + o * vcs + route.down_vc) {
            return false;
        }
        self.try_advance(
            v,
            p,
            vc,
            f,
            route,
            next_phase,
            out_used,
            holders,
            channel_used,
            true,
            divert,
        )
    }

    /// Attempts to move flit `f` — the validated (ready, front-of-queue)
    /// head of input `(p, vc)` at switch `v` — along `route`; the caller
    /// has already checked that `route.out_port` is unused this cycle.
    /// Head flits take `next_phase` with them only when the move succeeds
    /// (a blocked flit must keep its pre-hop routing state). Returns
    /// whether the flit moved.
    #[allow(clippy::too_many_arguments)]
    fn try_advance(
        &mut self,
        v: NodeId,
        p: usize,
        vc: usize,
        f: Flit,
        route: OutRoute,
        next_phase: Option<crate::routing::Phase>,
        out_used: &mut [bool],
        holders: &[Option<NodeId>],
        channel_used: &mut [bool],
        is_new_packet: bool,
        divert: bool,
    ) -> bool {
        let o = route.out_port;
        debug_assert!(!out_used[o], "caller reserves the output port");
        let vcs = self.cfg.vcs;
        let sb = self.fabric.switch_base(v);
        let slot = sb + p * vcs + vc;
        debug_assert_eq!(self.fabric.front(slot), Some(&f));
        debug_assert!(f.ready_at <= self.now);

        enum Dest {
            Eject,
            Into(NodeId, usize, u64, f64, bool), // node, port, penalty, link energy, wireless
        }

        let dest = if o == PORT_LOCAL {
            Dest::Eject
        } else if Some(o) == self.ports.wireless_port(v) {
            let to = route.wireless_to.expect("wireless route carries target");
            let ch = self.wi_channel[v.index()] as usize;
            if holders[ch] != Some(v) || channel_used[ch] {
                return false;
            }
            let tp = self
                .ports
                .wireless_port(to)
                .expect("wireless target is a WI");
            if self.fabric.space(self.fabric.slot(to, tp, route.down_vc)) == 0 {
                return false;
            }
            if let Some(fl) = self.faults.as_mut() {
                // Fault model: the transfer attempt may be corrupted by a
                // wireless bit error. The token slot is burned either way;
                // a corrupted flit stays put and retransmits on a later
                // slot, and past a threshold of consecutive corruptions the
                // source WI is disabled (future packets divert to wireline).
                let attempt = fl.attempts[ch];
                fl.attempts[ch] += 1;
                if fl.plan.link_corrupts(ch, attempt) {
                    fl.counts.flit_corruptions += 1;
                    fl.consec[v.index()] += 1;
                    if fl.consec[v.index()] >= fl.plan.wi_fallback_threshold()
                        && !fl.disabled[v.index()]
                    {
                        fl.disabled[v.index()] = true;
                        fl.counts.wi_fallbacks += 1;
                    }
                    channel_used[ch] = true;
                    if self.measured(&f) {
                        // The corrupted transfer still radiated.
                        self.stats.energy.wireless_pj += self.energy_model.wireless_energy_pj();
                    }
                    return false;
                }
                fl.consec[v.index()] = 0;
            }
            let penalty = if self.domains[v.index()] != self.domains[to.index()] {
                self.cfg.sync_penalty
            } else {
                0
            };
            Dest::Into(
                to,
                tp,
                penalty,
                self.energy_model.wireless_energy_pj(),
                true,
            )
        } else {
            let (w, wp) = self.ports.wire_peer(v, o);
            if self.fabric.space(self.fabric.slot(w, wp, route.down_vc)) == 0 {
                return false;
            }
            let i = self.ports.flat_index(v, o);
            Dest::Into(w, wp, self.port_penalty[i], self.wire_energy[i], false)
        };

        // Commit the move.
        let measured = self.measured(&f);
        let mut f = f;
        let was_full = self.fabric.space(slot) == 0;
        self.fabric.pop_front(slot);
        self.buffered[v.index()] -= 1;
        if p == PORT_LOCAL && vc == self.inject_vc {
            self.src_blocked[v.index()] = false;
        } else if self.faults.is_none()
            && was_full
            && p != PORT_LOCAL
            && Some(p) != self.ports.wireless_port(v)
        {
            // Popping a full wired slot is the only event that can unblock
            // the wire peer behind it (the peer is also the only switch
            // whose adaptive route choice reads this slot's space). A peer
            // later in this cycle's ascending sweep still gets consulted
            // *this* cycle — exactly as the per-cycle retry would.
            let (u, _) = self.ports.wire_peer(v, p);
            if self.parked[u.index()] {
                let t = if u.index() > v.index() {
                    self.now
                } else {
                    self.now + 1
                };
                if self.wake[u.index()] > t {
                    self.wake[u.index()] = t;
                    if u.index() < v.index() {
                        // `u` was already compacted this sweep; fold its
                        // lowered wake into `next_due`. A higher peer is
                        // folded when its own compaction slot comes around.
                        self.next_due = self.next_due.min(t);
                    }
                }
            }
        }
        self.moves_last_step += 1;
        if let Some(ph) = next_phase {
            f.phase = ph;
        }
        if divert {
            f.wired_fallback = true;
        }
        if measured {
            self.stats.energy.switch_pj += self.switch_pj[v.index()];
        }
        match dest {
            Dest::Eject => {
                if measured {
                    self.stats.flits_delivered += 1;
                    if f.kind.is_tail() {
                        let latency = self.now + 1 - f.created;
                        self.stats.packets_delivered += 1;
                        self.stats.latency_sum += latency;
                        self.stats.max_latency = self.stats.max_latency.max(latency);
                        self.stats.record_latency(latency);
                        self.delivered_measured += 1;
                    }
                }
            }
            Dest::Into(w, wp, penalty, link_pj, wireless) => {
                f.ready_at = self.now + 1 + self.cfg.router_delay + penalty;
                let ready = f.ready_at;
                if measured {
                    if wireless {
                        self.stats.energy.wireless_pj += link_pj;
                        self.stats.wireless_flit_hops += 1;
                    } else {
                        self.stats.energy.wire_pj += link_pj;
                        self.stats.wire_flit_hops += 1;
                        if route.down_vc > 0 {
                            self.stats.adaptive_flit_hops += 1;
                        }
                        self.link_flits[self.ports.flat_index(v, o)] += 1;
                    }
                }
                if wireless {
                    channel_used[self.wi_channel[v.index()] as usize] = true;
                }
                let wslot = self.fabric.slot(w, wp, route.down_vc);
                self.fabric.push_back(wslot, f);
                self.buffered[w.index()] += 1;
                if self.wake[w.index()] > ready {
                    self.wake[w.index()] = ready;
                }
                // Fold the receiver's (possibly just-lowered) wake into
                // `next_due`: `w` may already be compacted or sitting in
                // `pending`, where the compaction scan cannot see it. For a
                // receiver processed later this sweep the fold is merely
                // conservative (stale-low).
                self.next_due = self.next_due.min(self.wake[w.index()]);
                if !self.active[w.index()] {
                    self.active[w.index()] = true;
                    self.pending.push(w.index() as u32);
                }
            }
        }
        out_used[o] = true;

        // Wormhole bookkeeping.
        let oslot = sb + o * vcs + route.down_vc;
        if f.kind.is_tail() {
            self.fabric.set_in_route(slot, None);
            self.fabric.set_out_owner(oslot, None);
        } else if is_new_packet {
            self.fabric.set_in_route(slot, Some(route));
            self.fabric.set_out_owner(
                oslot,
                Some(Owner {
                    in_port: p,
                    in_vc: vc,
                }),
            );
        }
        true
    }

    /// Total flits currently buffered anywhere in the network (diagnostics).
    pub fn buffered_flits(&self) -> usize {
        self.fabric.occupancy() + self.src_q.iter().map(VecDeque::len).sum::<usize>()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::grid_positions;
    use crate::topology::mesh::mesh;
    use crate::topology::small_world::SmallWorldBuilder;
    use crate::topology::wireless::{ChannelId, WirelessInterface};

    fn mesh_sim(cols: usize, rows: usize) -> NetworkSim<'static> {
        NetworkSim::new(
            mesh(cols, rows, 2.5),
            WirelessOverlay::none(),
            RoutingTable::xy(cols, rows),
            EnergyModel::default_65nm(),
            SimConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn delivers_uniform_traffic() {
        let mut sim = mesh_sim(4, 4);
        let stats = sim.run(&TrafficMatrix::uniform(16, 0.05), 200, 2000, 20_000);
        assert!(stats.packets_injected > 50);
        assert_eq!(stats.in_flight_at_end, 0, "all measured packets drain");
        assert_eq!(stats.packets_delivered, stats.packets_injected);
        // 4 flits per packet.
        assert_eq!(stats.flits_delivered, 4 * stats.packets_delivered);
    }

    #[test]
    fn latency_exceeds_distance_plus_serialization() {
        let mut sim = mesh_sim(4, 4);
        let mut tm = TrafficMatrix::zeros(16);
        tm.set(NodeId(0), NodeId(15), 0.01);
        let stats = sim.run(&tm, 0, 3000, 10_000);
        assert!(stats.packets_delivered > 0);
        // distance 6 + 4 flits serialization - 1 = at least 9 cycles.
        assert!(
            stats.avg_latency() >= 9.0,
            "latency {}",
            stats.avg_latency()
        );
        assert!(
            stats.avg_latency() < 40.0,
            "latency {}",
            stats.avg_latency()
        );
    }

    #[test]
    fn energy_scales_with_distance() {
        let mut sim = mesh_sim(4, 4);
        let mut near = TrafficMatrix::zeros(16);
        near.set(NodeId(0), NodeId(1), 0.02);
        let near_stats = sim.run(&near, 100, 2000, 10_000).clone();
        let mut far = TrafficMatrix::zeros(16);
        far.set(NodeId(0), NodeId(15), 0.02);
        let far_stats = sim.run(&far, 100, 2000, 10_000);
        assert!(
            far_stats.energy_per_flit_pj() > 2.0 * near_stats.energy_per_flit_pj(),
            "far {} near {}",
            far_stats.energy_per_flit_pj(),
            near_stats.energy_per_flit_pj()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = mesh_sim(4, 4);
        let mut b = mesh_sim(4, 4);
        let tm = TrafficMatrix::uniform(16, 0.08);
        assert_eq!(a.run(&tm, 100, 1000, 10_000), b.run(&tm, 100, 1000, 10_000));
    }

    #[test]
    fn rerun_resets_state() {
        let mut sim = mesh_sim(4, 4);
        let tm = TrafficMatrix::uniform(16, 0.08);
        let first = sim.run(&tm, 100, 1000, 10_000).clone();
        let second = sim.run(&tm, 100, 1000, 10_000);
        assert_eq!(&first, second);
    }

    #[test]
    fn congestion_raises_latency() {
        let mut sim = mesh_sim(4, 4);
        let light = sim
            .run(&TrafficMatrix::uniform(16, 0.02), 300, 2000, 20_000)
            .clone();
        let heavy = sim.run(&TrafficMatrix::uniform(16, 0.25), 300, 2000, 20_000);
        assert!(heavy.avg_latency() > light.avg_latency());
    }

    fn line_with_wireless(len: usize) -> (Topology, WirelessOverlay) {
        let mut topo = Topology::new(
            (0..len)
                .map(|i| crate::node::Position::new(i as f64 * 2.5, 0.0))
                .collect(),
            crate::topology::TopologyKind::Custom,
        );
        for i in 0..len - 1 {
            topo.add_link(NodeId(i), NodeId(i + 1)).unwrap();
        }
        let overlay = WirelessOverlay::new(
            vec![
                WirelessInterface {
                    node: NodeId(0),
                    channel: ChannelId(0),
                },
                WirelessInterface {
                    node: NodeId(len - 1),
                    channel: ChannelId(0),
                },
            ],
            1,
        )
        .unwrap();
        (topo, overlay)
    }

    #[test]
    fn wireless_carries_long_distance_traffic() {
        let (topo, overlay) = line_with_wireless(20);
        let table = RoutingTable::up_down(&topo, &overlay).unwrap();
        let mut sim = NetworkSim::new(
            topo,
            overlay,
            table,
            EnergyModel::default_65nm(),
            SimConfig::default(),
        )
        .unwrap();
        let mut tm = TrafficMatrix::zeros(20);
        tm.set(NodeId(0), NodeId(19), 0.02);
        let stats = sim.run(&tm, 100, 3000, 20_000);
        assert!(stats.packets_delivered > 0);
        assert!(stats.wireless_flit_hops > 0, "wireless must be used");
        assert_eq!(stats.in_flight_at_end, 0);
        // End-to-end over wireless is far faster than 19 wire hops.
        assert!(stats.avg_latency() < 19.0 + 10.0);
        assert!(stats.energy.wireless_pj > 0.0);
    }

    #[test]
    fn wireless_contention_shares_channel() {
        // Four WIs on one channel, cross traffic: everything still drains.
        let mut topo = Topology::new(
            grid_positions(4, 4, 2.5),
            crate::topology::TopologyKind::Custom,
        );
        // Sparse wired ring so wireless is attractive.
        let ring = [0usize, 1, 2, 3, 7, 11, 15, 14, 13, 12, 8, 4];
        for i in 0..ring.len() {
            topo.add_link(NodeId(ring[i]), NodeId(ring[(i + 1) % ring.len()]))
                .unwrap();
        }
        topo.add_link(NodeId(5), NodeId(4)).unwrap();
        topo.add_link(NodeId(6), NodeId(7)).unwrap();
        topo.add_link(NodeId(9), NodeId(8)).unwrap();
        topo.add_link(NodeId(10), NodeId(11)).unwrap();
        let overlay = WirelessOverlay::new(
            vec![
                WirelessInterface {
                    node: NodeId(0),
                    channel: ChannelId(0),
                },
                WirelessInterface {
                    node: NodeId(3),
                    channel: ChannelId(0),
                },
                WirelessInterface {
                    node: NodeId(12),
                    channel: ChannelId(0),
                },
                WirelessInterface {
                    node: NodeId(15),
                    channel: ChannelId(0),
                },
            ],
            1,
        )
        .unwrap();
        let table = RoutingTable::up_down(&topo, &overlay).unwrap();
        let mut sim = NetworkSim::new(
            topo,
            overlay,
            table,
            EnergyModel::default_65nm(),
            SimConfig::default(),
        )
        .unwrap();
        let mut tm = TrafficMatrix::zeros(16);
        tm.set(NodeId(0), NodeId(15), 0.02);
        tm.set(NodeId(3), NodeId(12), 0.02);
        tm.set(NodeId(15), NodeId(0), 0.02);
        let stats = sim.run(&tm, 200, 3000, 30_000);
        assert_eq!(stats.in_flight_at_end, 0, "channel sharing must not wedge");
        assert!(stats.packets_delivered > 0);
    }

    #[test]
    fn slower_clocks_increase_latency() {
        let tm = TrafficMatrix::uniform(16, 0.03);
        let mut fast = mesh_sim(4, 4);
        let fast_stats = fast.run(&tm, 200, 2000, 20_000);
        let mut slow = NetworkSim::with_clocks(
            mesh(4, 4, 2.5),
            WirelessOverlay::none(),
            RoutingTable::xy(4, 4),
            EnergyModel::default_65nm(),
            SimConfig::default(),
            vec![0.5; 16],
            vec![0; 16],
        )
        .unwrap();
        let slow_stats = slow.run(&tm, 200, 2000, 20_000);
        assert!(
            slow_stats.avg_latency() > 1.5 * fast_stats.avg_latency(),
            "slow {} fast {}",
            slow_stats.avg_latency(),
            fast_stats.avg_latency()
        );
        assert_eq!(slow_stats.in_flight_at_end, 0);
    }

    #[test]
    fn domain_crossing_pays_sync_penalty() {
        let tm = {
            let mut t = TrafficMatrix::zeros(16);
            t.set(NodeId(0), NodeId(3), 0.01);
            t
        };
        let run = |domains: Vec<usize>, penalty: u64| {
            let cfg = SimConfig {
                sync_penalty: penalty,
                ..SimConfig::default()
            };
            let mut sim = NetworkSim::with_clocks(
                mesh(4, 4, 2.5),
                WirelessOverlay::none(),
                RoutingTable::xy(4, 4),
                EnergyModel::default_65nm(),
                cfg,
                vec![1.0; 16],
                domains,
            )
            .unwrap();
            sim.run(&tm, 100, 2000, 10_000).avg_latency()
        };
        let same = run(vec![0; 16], 3);
        // Domain boundary between columns 1 and 2.
        let split: Vec<usize> = (0..16).map(|i| usize::from(i % 4 >= 2)).collect();
        let cross = run(split, 3);
        assert!(cross > same, "cross {cross} same {same}");
    }

    #[test]
    fn rejects_mismatched_table() {
        let err = NetworkSim::new(
            mesh(4, 4, 1.0),
            WirelessOverlay::none(),
            RoutingTable::xy(3, 3),
            EnergyModel::default_65nm(),
            SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::TableSizeMismatch { .. }));
    }

    #[test]
    fn rejects_bad_speeds() {
        let err = NetworkSim::with_clocks(
            mesh(2, 2, 1.0),
            WirelessOverlay::none(),
            RoutingTable::xy(2, 2),
            EnergyModel::default_65nm(),
            SimConfig::default(),
            vec![1.0, 0.0, 1.0, 1.0],
            vec![0; 4],
        )
        .unwrap_err();
        assert_eq!(err, SimError::InvalidSpeeds);
    }

    #[test]
    fn rejects_zero_packet_len() {
        let cfg = SimConfig {
            packet_len: 0,
            ..SimConfig::default()
        };
        let err = NetworkSim::new(
            mesh(2, 2, 1.0),
            WirelessOverlay::none(),
            RoutingTable::xy(2, 2),
            EnergyModel::default_65nm(),
            cfg,
        )
        .unwrap_err();
        assert_eq!(err, SimError::InvalidConfig);
    }

    #[test]
    fn adaptive_requires_two_vcs() {
        let cfg = SimConfig {
            adaptive: true,
            vcs: 1,
            ..SimConfig::default()
        };
        let err = NetworkSim::new(
            mesh(2, 2, 1.0),
            WirelessOverlay::none(),
            RoutingTable::xy(2, 2),
            EnergyModel::default_65nm(),
            cfg,
        )
        .unwrap_err();
        assert_eq!(err, SimError::InvalidConfig);
    }

    fn adaptive_mesh_sim(cols: usize, rows: usize) -> NetworkSim<'static> {
        let cfg = SimConfig {
            vcs: 2,
            adaptive: true,
            ..SimConfig::default()
        };
        NetworkSim::new(
            mesh(cols, rows, 2.5),
            WirelessOverlay::none(),
            RoutingTable::xy(cols, rows),
            EnergyModel::default_65nm(),
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn adaptive_mesh_conserves_packets() {
        let mut sim = adaptive_mesh_sim(4, 4);
        let stats = sim.run(&TrafficMatrix::uniform(16, 0.05), 200, 2000, 30_000);
        assert_eq!(stats.in_flight_at_end, 0, "adaptive network must drain");
        assert_eq!(stats.packets_delivered, stats.packets_injected);
        assert_eq!(stats.flits_delivered, 4 * stats.packets_delivered);
    }

    #[test]
    fn adaptive_relieves_transpose_hotspots() {
        // Transpose traffic concentrates on the diagonal under XY routing;
        // minimal adaptive routing spreads it over both dimension orders.
        let tm = TrafficMatrix::transpose(8, 0.05);
        let mut xy = mesh_sim(8, 8);
        let base = xy.run(&tm, 500, 4000, 60_000);
        let mut ad = adaptive_mesh_sim(8, 8);
        let adaptive = ad.run(&tm, 500, 4000, 60_000);
        assert_eq!(adaptive.in_flight_at_end, 0);
        assert!(
            adaptive.avg_latency() < base.avg_latency(),
            "adaptive {} vs XY {}",
            adaptive.avg_latency(),
            base.avg_latency()
        );
        // Most hops actually use the adaptive channels.
        assert!(
            adaptive.adaptive_share() > 0.5,
            "{}",
            adaptive.adaptive_share()
        );
        assert_eq!(base.adaptive_share(), 0.0);
    }

    #[test]
    fn adaptive_raises_small_world_capacity() {
        // The up*/down*-routed small world saturates around 0.03 pkts/cyc
        // per node; two VCs with minimal adaptive routing push the knee out.
        let clusters: Vec<usize> = (0..64).map(|i| (i % 8) / 4 + 2 * ((i / 8) / 4)).collect();
        let topo = SmallWorldBuilder::new(grid_positions(8, 8, 2.5), clusters)
            .alpha(1.5)
            .seed(1)
            .build()
            .unwrap();
        let table = RoutingTable::up_down(&topo, &WirelessOverlay::none()).unwrap();
        let tm = TrafficMatrix::uniform(64, 0.03);
        let mut escape_only = NetworkSim::new(
            topo.clone(),
            WirelessOverlay::none(),
            table.clone(),
            EnergyModel::default_65nm(),
            SimConfig::default(),
        )
        .unwrap();
        let base = escape_only.run(&tm, 500, 3000, 60_000);
        let cfg = SimConfig {
            vcs: 2,
            adaptive: true,
            ..SimConfig::default()
        };
        let mut adaptive = NetworkSim::new(
            topo,
            WirelessOverlay::none(),
            table,
            EnergyModel::default_65nm(),
            cfg,
        )
        .unwrap();
        let ad = adaptive.run(&tm, 500, 3000, 60_000);
        assert!(
            ad.avg_latency() < base.avg_latency() * 0.5,
            "adaptive {} vs escape-only {}",
            ad.avg_latency(),
            base.avg_latency()
        );
        assert_eq!(ad.in_flight_at_end, 0);
    }

    #[test]
    fn adaptive_is_deterministic() {
        let tm = TrafficMatrix::uniform(16, 0.06);
        let mut a = adaptive_mesh_sim(4, 4);
        let mut b = adaptive_mesh_sim(4, 4);
        assert_eq!(a.run(&tm, 100, 1500, 20_000), b.run(&tm, 100, 1500, 20_000));
    }

    #[test]
    fn fast_forward_engages_during_drain() {
        // A deep router pipeline keeps drain-phase flits mid-pipeline most
        // cycles, so the drain loop should jump rather than idle-step.
        let cfg = SimConfig {
            router_delay: 8,
            ..SimConfig::default()
        };
        let mut sim = NetworkSim::new(
            mesh(4, 4, 2.5),
            WirelessOverlay::none(),
            RoutingTable::xy(4, 4),
            EnergyModel::default_65nm(),
            cfg,
        )
        .unwrap();
        let mut tm = TrafficMatrix::zeros(16);
        tm.set(NodeId(0), NodeId(15), 0.05);
        let in_flight = sim.run(&tm, 0, 400, 20_000).in_flight_at_end;
        assert_eq!(in_flight, 0);
        assert!(
            sim.fast_forwarded_cycles() > 0,
            "drain should fast-forward through pipeline stalls"
        );
    }

    #[test]
    fn fast_forward_matches_wireless_goldens_rerun() {
        // Re-running the same wireless configuration must be bit-identical
        // even though drains interleave stepping and fast-forwarding.
        let (topo, overlay) = line_with_wireless(12);
        let table = RoutingTable::up_down(&topo, &overlay).unwrap();
        let mut sim = NetworkSim::new(
            topo,
            overlay,
            table,
            EnergyModel::default_65nm(),
            SimConfig::default(),
        )
        .unwrap();
        let mut tm = TrafficMatrix::zeros(12);
        tm.set(NodeId(0), NodeId(11), 0.01);
        tm.set(NodeId(11), NodeId(0), 0.005);
        let first = sim.run(&tm, 100, 1500, 20_000).clone();
        let second = sim.run(&tm, 100, 1500, 20_000);
        assert_eq!(&first, second);
        assert_eq!(first.in_flight_at_end, 0);
    }

    #[test]
    fn small_world_full_sweep_drains() {
        let clusters: Vec<usize> = (0..64).map(|i| (i % 8) / 4 + 2 * ((i / 8) / 4)).collect();
        let topo = SmallWorldBuilder::new(grid_positions(8, 8, 2.5), clusters)
            .seed(1)
            .build()
            .unwrap();
        let table = RoutingTable::up_down(&topo, &WirelessOverlay::none()).unwrap();
        let mut sim = NetworkSim::new(
            topo,
            WirelessOverlay::none(),
            table,
            EnergyModel::default_65nm(),
            SimConfig::default(),
        )
        .unwrap();
        let stats = sim.run(&TrafficMatrix::uniform(64, 0.03), 300, 2000, 30_000);
        assert_eq!(stats.in_flight_at_end, 0);
        assert!(stats.packets_delivered > 100);
    }
}
