//! Cycle-accurate network simulation.
//!
//! [`NetworkSim`] advances a wormhole-switched network cycle by cycle:
//! flits are injected by a Bernoulli process driven by a
//! [`crate::traffic::TrafficMatrix`] sampling, traverse input-buffered
//! switches under round-robin arbitration with credit-based flow control,
//! optionally hop across token-arbitrated wireless channels, and are ejected
//! at their destinations, accumulating latency and energy statistics.
//!
//! ## Wake-calendar scheduling
//!
//! A switch does nothing observable when clocked while every FIFO front it
//! holds is still inside a router pipeline (or it holds none): its
//! round-robin pointer, wormhole bindings and output ownership are
//! untouched, and no flit can move. Each switch therefore carries a
//! **wake** — the first cycle on which clocking it could matter — and the
//! inner loop files switches by wake in a **calendar**: a timing wheel of
//! switch bitsets, one bucket per cycle modulo the wheel size. Every
//! finite wake lies within one router traversal of the current cycle, so
//! the wheel (the next power of two above that horizon) never wraps onto a
//! live bucket, and bucket `now` holds exactly the switches due now. Each
//! sweep walks that one bucket in ascending switch order, so per-cycle
//! cost is proportional to the switches with work rather than to the
//! topology size or the number of in-flight flits.
//!
//! Within a switch, the per-switch occupancy and bound-slot bitmasks of
//! [`FabricState`] split the probes: continuing wormholes walk the
//! occupied bound slots, new heads the occupied unbound ones, so no probe
//! is spent on a slot that cannot move.
//!
//! When no source is backlogged and no switch is due, the cycle loop
//! **jumps** to the next switch wake (the first nonempty bucket),
//! scheduled injection or phase end in one step, applying the idle
//! token-MAC rotation in closed form. This one rule serves warmup, measure
//! and drain alike; jumped cycles are observably identical to stepped idle
//! cycles and count against the drain budget.
//!
//! Every shortcut here is checked against a naive reference simulator
//! (`crates/noc/tests/sim_oracle.rs`) that clocks every switch on every
//! cycle, and compared field by field, bit for bit.
//!
//! ## Clocking and VFI
//!
//! Each switch belongs to a clock domain and runs at a relative speed in
//! `(0, 1]` of the fastest domain; a switch only operates on cycles its
//! fractional clock accumulator fires. Switches of equal speed share one
//! accumulator (a clock class), and every class ticks on every cycle,
//! stepped or jumped. Flits crossing clock-domain boundaries pay a
//! mixed-clock FIFO synchronisation penalty. This models the
//! VFI-partitioned NoC of the paper, where each island's switches are
//! clocked at the island's frequency.

use crate::energy::EnergyModel;
use crate::flit::{flit_sequence, Flit};
use crate::mac::{macs_for, ChannelMac};
use crate::node::NodeId;
use crate::routing::{Hop, Phase, RoutingTable, MAX_NODES};
use crate::stats::NetworkStats;
use crate::switch::{FabricState, OutRoute, Owner, PortMap, MAX_SWITCH_SLOTS, PORT_LOCAL};
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
/// out port, bits 0–15 = wireless target node (`0xFFFF` = wired hop; node
/// ids stay below it because [`NetworkSim`] rejects fabrics past
/// [`MAX_NODES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedRoute(u32);

impl PackedRoute {
    /// An unreachable routing state (no route).
    const NONE: PackedRoute = PackedRoute(0);

    fn pack(route: OutRoute, next_phase: Phase) -> Self {
        debug_assert_eq!(route.down_vc, 0, "table routes use the escape VC");
        debug_assert!(route.out_port < (1 << 14));
        let wt = route.wireless_to.map_or(0xFFFF, |w| {
            debug_assert!(w.index() < MAX_NODES);
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

/// Packs the route of every reachable `(switch, phase, destination)` state
/// of `table` into a flat `(v * 2 + phase) * n + dest` table;
/// [`PackedRoute::NONE`] for unreachable states.
fn packed_routes(topo: &Topology, ports: &PortMap, table: &RoutingTable) -> Vec<PackedRoute> {
    let n = topo.len();
    let mut packed = vec![PackedRoute::NONE; 2 * n * n];
    for v in topo.nodes() {
        for (pi, phase) in [(0usize, Phase::Up), (1, Phase::Down)] {
            for d in 0..n {
                let Some(entry) = table.try_entry(v, phase, NodeId(d)) else {
                    continue;
                };
                let (out_port, wireless_to) = match entry.hop {
                    Hop::Local => (PORT_LOCAL, None),
                    Hop::Wire(w) => (ports.wire_port(v, w), None),
                    Hop::Wireless { to, .. } => (
                        ports
                            .wireless_port(v)
                            .expect("route uses wireless at a non-WI switch"),
                        Some(to),
                    ),
                };
                let route = OutRoute {
                    out_port,
                    wireless_to,
                    down_vc: 0,
                };
                packed[(v.index() * 2 + pi) * n + d] = PackedRoute::pack(route, entry.next_phase);
            }
        }
    }
    packed
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
    /// Buffer depths, packet length or VC count of zero, adaptive routing
    /// without at least two VCs, a switch with more than 64 input slots
    /// (ports × VCs), or more than [`MAX_NODES`] switches.
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
            SimError::InvalidConfig => write!(
                f,
                "buffer depths, packet length and VC count must be nonzero, \
                 adaptive routing needs at least two VCs, no switch may \
                 have more than 64 input slots (ports x VCs), and the fabric \
                 may have at most {MAX_NODES} switches"
            ),
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

    /// Sources with a nonempty source queue.
    src_list: Vec<u32>,
    /// Membership flags for `src_list`.
    src_listed: Vec<bool>,
    /// Per-switch index into the shared clock classes. Switches with the
    /// same speed bits walk the identical accumulator sequence from the
    /// same start, so the fractional clock is tracked once per class.
    clock_class: Vec<u32>,
    /// Distinct switch speed per clock class.
    class_speed: Vec<f64>,
    /// Fractional clock accumulator per class.
    class_acc: Vec<f64>,
    /// Whether the class clock fires on the current cycle.
    class_fires: Vec<bool>,
    /// Earliest cycle at which processing switch `v` could do anything
    /// observable (`u64::MAX` when dormant: empty, or parked with no front
    /// in flight). Between a switch's last processed cycle and `wake[v]`,
    /// clocking it is a proven no-op: every FIFO front is still inside a
    /// router pipeline, so `process_switch` would mutate nothing. A switch
    /// that saw a ready front this cycle (moved *or* blocked) wakes again
    /// next cycle; pushes into `v` lower `wake[v]` to the new flit's
    /// pipeline exit. Written only through [`NetworkSim::set_wake`].
    wake: Vec<u64>,
    /// The wake calendar: `wheel_mask + 1` buckets of `words` bitset words,
    /// flattened `bucket * words + v / 64`. Bucket `t & wheel_mask` holds
    /// exactly the switches with a finite `wake == t`.
    calendar: Vec<u64>,
    /// Calendar bucket count minus one (the count is a power of two above
    /// the wake horizon, see [`NetworkSim::set_wake`]).
    wheel_mask: u64,
    /// Bitset words per calendar bucket.
    words: usize,

    /// Per-cycle MAC holder snapshot.
    mac_holders: Vec<Option<NodeId>>,
    /// Per-cycle channel-used flags.
    mac_used: Vec<bool>,
    /// Output-port-used flags of the switch being processed (max port
    /// count).
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
    /// Cycles consumed by idle jumps in the last run — stretches where
    /// only token-MAC rotation and clock ticks happened (telemetry).
    steady_cycles: u64,
    /// Work counters of the last run (telemetry).
    work: WorkCounters,
    /// Reusable buffer for the precomputed injection schedule of one run
    /// (see [`Injector::schedule_into`]).
    sched: Vec<InjectEvent>,
}

/// Per-run counts of the cycle loop's work, kept in plain fields and
/// emitted once per [`NetworkSim::run`].
#[derive(Debug, Clone, Copy, Default)]
struct WorkCounters {
    /// Due switches whose clock fired, so the sweep processed them.
    switches_processed: u64,
    /// Flits moved, switch to switch or source queue to injection port.
    flit_moves: u64,
    /// Head flits routed (a head blocked on its output is routed again
    /// on each retry).
    head_routes: u64,
    /// Due switches whose clock sat out the cycle.
    clock_gated_skips: u64,
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
        // Before the table check: no table covers a fabric this large.
        if n > MAX_NODES {
            return Err(SimError::InvalidConfig);
        }
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
        let ports = PortMap::new(&topo, &overlay);
        if cfg.buffer_depth == 0
            || cfg.wi_buffer_depth == 0
            || cfg.packet_len == 0
            || cfg.vcs == 0
            || (cfg.adaptive && cfg.vcs < 2)
            || topo
                .nodes()
                .any(|v| cfg.vcs > MAX_SWITCH_SLOTS / ports.port_count(v))
        {
            return Err(SimError::InvalidConfig);
        }
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
        let escape = packed_routes(&topo, &ports, &table);

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

        // Every finite wake lies in `[now, now + 1 + router_delay +
        // sync_penalty]` (see `set_wake`): a wheel with at least as many
        // buckets as that range has cycles gives each live wake its own.
        let wheel = (cfg.router_delay + cfg.sync_penalty + 2).next_power_of_two() as usize;
        let words = n.div_ceil(64);

        Ok(NetworkSim {
            link_flits: vec![0; total_ports],
            hop_dist,
            escape,
            wire_energy,
            port_penalty,
            switch_pj,
            wi_channel,
            inject_vc,
            src_list: Vec::with_capacity(n),
            src_listed: vec![false; n],
            clock_class,
            class_acc: vec![0.0; class_speed.len()],
            class_fires: vec![false; class_speed.len()],
            class_speed,
            wake: vec![u64::MAX; n],
            calendar: vec![0; wheel * words],
            wheel_mask: wheel as u64 - 1,
            words,
            mac_holders: Vec::with_capacity(macs.len()),
            mac_used: Vec::with_capacity(macs.len()),
            out_used: vec![false; max_ports],
            parked: vec![false; n],
            faults: None,
            stepped_cycles: 0,
            steady_cycles: 0,
            work: WorkCounters::default(),
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
    /// drain, jumped idle cycles included); the denominator of
    /// simulated-cycles/sec throughput figures.
    pub fn now(&self) -> u64 {
        self.now
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
        let fallback = packed_routes(&self.topo, &self.ports, &wired);
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
        self.injected_measured = 0;
        self.delivered_measured = 0;
        self.stats = NetworkStats::default();
        self.link_flits.fill(0);
        self.src_list.clear();
        self.src_listed.fill(false);
        self.parked.fill(false);
        self.class_acc.fill(0.0);
        self.class_fires.fill(false);
        self.wake.fill(u64::MAX);
        self.calendar.fill(0);
        self.stepped_cycles = 0;
        self.steady_cycles = 0;
        self.work = WorkCounters::default();
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
        // Liveness: a window that ends with measured packets still buffered.
        telemetry::count(
            "noc.windows_undrained",
            u64::from(self.stats.in_flight_at_end > 0),
        );
        telemetry::count("noc.packets_delivered", self.stats.packets_delivered);
        telemetry::count("noc.flits_delivered", self.stats.flits_delivered);
        telemetry::count("noc.cycles_simulated", self.stepped_cycles);
        telemetry::count("noc.cycles_steady_replayed", self.steady_cycles);
        let w = self.work;
        telemetry::count(
            "noc.switch_visits",
            w.switches_processed + w.clock_gated_skips,
        );
        telemetry::count("noc.switches_processed", w.switches_processed);
        telemetry::count("noc.flit_moves", w.flit_moves);
        telemetry::count("noc.head_routes", w.head_routes);
        telemetry::count("noc.clock_gated_skips", w.clock_gated_skips);
        &self.stats
    }

    /// The warmup/measure/drain cycle loop of one [`NetworkSim::run`]:
    /// runs until the measure window has closed and every measured packet
    /// is delivered or the drain budget is spent.
    fn cycle_loop(&mut self, sched: &[InjectEvent], warmup: u64, measure: u64, drain_limit: u64) {
        let _loop_span = telemetry::span("noc.sim.cycle_loop");
        let end = warmup + measure;
        let drain_end = end + drain_limit;
        let mut pos = 0usize;
        while self.now < end
            || (self.now < drain_end && self.delivered_measured < self.injected_measured)
        {
            // Idle jump: no source is backlogged and no switch is due. Up
            // to the next wake, scheduled injection or phase end, every
            // cycle is idle token-MAC bookkeeping — consume the stretch in
            // closed form.
            if self.src_list.is_empty() {
                let next_event = sched.get(pos).map_or(u64::MAX, |e| e.cycle);
                let phase_end = if self.now < end { end } else { drain_end };
                let target = self.next_due().min(next_event).min(phase_end);
                if target > self.now {
                    self.steady_jump(target - self.now);
                    continue;
                }
            }
            self.step(sched, &mut pos);
        }
    }

    /// The first cycle at or after `now` on which a switch is due — the
    /// first nonempty calendar bucket — or `u64::MAX` when none is.
    fn next_due(&self) -> u64 {
        (self.now..=self.now + self.wheel_mask)
            .find(|&t| {
                let b = (t & self.wheel_mask) as usize * self.words;
                self.calendar[b..b + self.words].iter().any(|&w| w != 0)
            })
            .unwrap_or(u64::MAX)
    }

    /// Cycles of the last run consumed by idle jumps.
    pub fn steady_replayed_cycles(&self) -> u64 {
        self.steady_cycles
    }

    /// Advances the clock over `cycles` observably idle cycles at once.
    ///
    /// Switch state is frozen, but the clock classes tick once per cycle
    /// and the token MACs rotate: a channel whose holder is mid-wormhole
    /// keeps its token, and an idle token rotates until it reaches a member
    /// that is mid-wormhole on its wireless port — from then on that member
    /// would have kept the token every remaining cycle.
    fn steady_jump(&mut self, cycles: u64) {
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
        for _ in 0..cycles {
            self.tick_clocks();
        }
        self.now += cycles;
        self.steady_cycles += cycles;
    }

    /// Advances every clock class by one cycle: the accumulator gains the
    /// class speed and fires when it reaches 1.
    fn tick_clocks(&mut self) {
        for (acc, (&speed, fires)) in self
            .class_acc
            .iter_mut()
            .zip(self.class_speed.iter().zip(&mut self.class_fires))
        {
            *acc += speed;
            *fires = *acc >= 1.0;
            if *fires {
                *acc -= 1.0;
            }
        }
    }

    /// Whether a flit (packet) is inside the measurement window.
    fn measured(&self, f: &Flit) -> bool {
        f.created >= self.measure_start && f.created < self.measure_end
    }

    /// One global clock cycle.
    fn step(&mut self, sched: &[InjectEvent], pos: &mut usize) {
        self.stepped_cycles += 1;
        self.tick_clocks();

        // 1. Packet generation into source queues, consuming this cycle's
        //    slice of the precomputed schedule (events are sorted by cycle
        //    and, within a cycle, by ascending source — the order the old
        //    per-cycle sampling scan produced).
        while let Some(e) = sched.get(*pos) {
            if e.cycle != self.now {
                break;
            }
            *pos += 1;
            let s = e.src as usize;
            if self.now >= self.measure_start && self.now < self.measure_end {
                self.injected_measured += 1;
            }
            self.src_q[s].extend(flit_sequence(
                NodeId(e.dest as usize),
                self.cfg.packet_len,
                self.now,
            ));
            if !self.src_listed[s] {
                self.src_listed[s] = true;
                self.src_list.push(s as u32);
            }
        }

        // 2. Move one flit per backlogged node from the source queue into
        //    the local input port, waking the switch. New packets start
        //    on the top VC (the adaptive one when adaptive routing is on).
        let mut src_list = std::mem::take(&mut self.src_list);
        let mut keep = 0;
        let mut r = 0;
        while r < src_list.len() {
            let s = src_list[r] as usize;
            let slot = self.fabric.slot(NodeId(s), PORT_LOCAL, self.inject_vc);
            if self.fabric.space(slot) > 0 {
                if let Some(mut f) = self.src_q[s].pop_front() {
                    // Entering the injection port costs the router pipeline
                    // too.
                    f.ready_at = f.ready_at.max(self.now + self.cfg.router_delay);
                    let ready = f.ready_at;
                    self.fabric.push_back(slot, f);
                    self.work.flit_moves += 1;
                    if self.wake[s] > ready {
                        self.set_wake(s, ready);
                    }
                }
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

        // 3. MAC: snapshot holders and clear usage flags per channel.
        self.mac_holders.clear();
        self.mac_holders
            .extend(self.macs.iter().map(ChannelMac::holder));
        self.mac_used.clear();
        self.mac_used.resize(self.macs.len(), false);

        // 4. Switch operation, ascending over the switches due this cycle
        //    (same-cycle injections included, for router_delay = 0).
        self.sweep();

        // 5. MAC bookkeeping.
        for (c, mac) in self.macs.iter_mut().enumerate() {
            let holds_packet = mac_holds_packet(&self.ports, &self.fabric, self.mac_holders[c]);
            mac.end_cycle(self.mac_used[c], holds_packet);
        }

        self.now += 1;
    }

    /// Moves switch `v`'s wake to cycle `t` (`u64::MAX`: dormant) and its
    /// calendar bit along with it. Every wake write goes through here.
    ///
    /// A finite wake lies in `[now, now + 1 + router_delay +
    /// sync_penalty]`: a push readies its flit after one traversal, the
    /// router pipeline and at most one sync penalty; an injection after
    /// the pipeline; a parked or clock-gated switch retries now or next
    /// cycle; and a switch's own pipeline-exit wake (`fut_min`) was set by
    /// one of those. The wheel is sized to that horizon, so bucket
    /// `t & wheel_mask` is never shared by two live cycles.
    #[inline(always)]
    fn set_wake(&mut self, v: usize, t: u64) {
        debug_assert!(
            t == u64::MAX
                || (self.now..=self.now + 1 + self.cfg.router_delay + self.cfg.sync_penalty)
                    .contains(&t),
            "wake {t} of switch {v} outside the calendar horizon at cycle {}",
            self.now
        );
        let (w, bit) = (v / 64, 1u64 << (v % 64));
        let old = self.wake[v];
        if old != u64::MAX {
            self.calendar[(old & self.wheel_mask) as usize * self.words + w] &= !bit;
        }
        if t != u64::MAX {
            self.calendar[(t & self.wheel_mask) as usize * self.words + w] |= bit;
        }
        self.wake[v] = t;
    }

    /// The switch sweep: ascending over calendar bucket `now`, each due
    /// switch processed (or, when its clock sits out the cycle, re-armed
    /// for the next one). Processing a switch always moves its wake past
    /// `now`, and the only wake written back to `now` mid-sweep is the park
    /// rearm of a higher-numbered wire peer (`try_advance`), so the walk
    /// re-reads the live word after each switch and takes its next set bit
    /// above the one just visited.
    fn sweep(&mut self) {
        let base = (self.now & self.wheel_mask) as usize * self.words;
        for w in 0..self.words {
            let mut above = u64::MAX;
            loop {
                let m = self.calendar[base + w] & above;
                if m == 0 {
                    break;
                }
                let bit = m & m.wrapping_neg();
                above = !(bit | (bit - 1));
                let v = w * 64 + bit.trailing_zeros() as usize;
                debug_assert_eq!(self.wake[v], self.now, "calendar bucket holds due switches");
                debug_assert!(
                    self.fabric.holds_flits(NodeId(v)),
                    "due switches hold flits"
                );
                if self.class_fires[self.clock_class[v] as usize] {
                    self.work.switches_processed += 1;
                    self.process_switch(v);
                } else {
                    self.work.clock_gated_skips += 1;
                    // The clock sat out this cycle: retry on the next one,
                    // exactly as a per-cycle sweep would.
                    self.set_wake(v, self.now + 1);
                }
            }
        }
    }

    /// Translates an escape-table entry into a concrete route (down-VC 0).
    #[inline(always)]
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
    #[inline(always)]
    fn route_head(&self, v: NodeId, vc: usize, f: &Flit) -> (OutRoute, Option<Phase>, bool) {
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
            if self.out_used[o] {
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
    fn process_switch(&mut self, v: usize) {
        let ports = self.ports.port_count(NodeId(v));
        let vcs = self.cfg.vcs;
        let sb = self.fabric.switch_base(NodeId(v));
        self.out_used[..ports].fill(false);

        // Pass A: continue established wormholes. Only an occupied, bound
        // slot can move, and while `v` is processed its occupancy never
        // grows (no switch pushes into itself) and a slot's binding changes
        // only in its own probe. So the set bits of `occ & bound` are
        // exactly the slots a positional scan could move, in the same
        // ascending order; slots that empty mid-pass are re-filtered by the
        // fresh `front_ready` check.
        let mut any_moved = false;
        let mut m = self.fabric.occ_mask(NodeId(v)) & self.fabric.bound_mask(NodeId(v));
        while m != 0 {
            let local = m.trailing_zeros() as usize;
            m &= m - 1;
            any_moved |= self.continue_wormhole(v, sb, local);
        }

        // Pass B: route new head flits, round-robin over input ports
        // (escape VC first within a port, so draining traffic keeps
        // priority over fresh adaptive traffic). The walk covers the
        // occupied unbound slots (`occ & !bound`, read after Pass A
        // released its tails), rotated by whole ports so its set bits
        // enumerate in a positional scan's order: cyclic ports starting at
        // `rr_next`, ascending VCs within a port.
        let rr = self.fabric.rr_next[v] as usize;
        let w = ports * vcs;
        let m0 = self.fabric.occ_mask(NodeId(v)) & !self.fabric.bound_mask(NodeId(v));
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
            let (p, vc) = self.split_slot(local);
            if self.route_new_head(v, sb, p, vc) {
                any_moved = true;
                self.fabric.rr_next[v] = if p + 1 == ports { 0 } else { p as u32 + 1 };
            }
        }

        // Decide when this switch next needs clocking. A ready front after
        // a cycle that moved flits retries immediately (the move may have
        // freed the port or ownership it waits on). A ready front after a
        // *move-free* cycle is blocked on state this switch cannot change:
        // the switch parks until a neighbour pops the full slot it pushes
        // into (`try_advance` rearms `wake`), a flit arrives (the push
        // sites lower `wake`), or an in-flight front exits its pipeline
        // (`fut_min`). One carve-out keeps the skip a proven no-op:
        // wireless switches never park (token rotation is not a wake
        // source, the holder check must burn its slot every cycle, and
        // under a fault plan a blocked wireless attempt still mutates the
        // hazard counters). Wired switches park under a fault plan too:
        // they neither touch the hazard counters nor route by fault state.
        // Empty slots report `front_ready == MAX` and influence neither
        // bound, so only the occupied slots are probed.
        let mut ready_now = false;
        let mut fut_min = u64::MAX;
        let mut m = self.fabric.occ_mask(NodeId(v));
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
        let parkable = !any_moved && self.wi_channel[v] == u32::MAX;
        self.parked[v] = ready_now && parkable;
        let wake = if ready_now && !parkable {
            self.now + 1
        } else {
            fut_min
        };
        self.set_wake(v, wake);
    }

    /// Splits switch-local slot index `local` into `(port, vc)`; a plain
    /// identity at one VC, the common case.
    #[inline(always)]
    fn split_slot(&self, local: usize) -> (usize, usize) {
        let vcs = self.cfg.vcs;
        if vcs == 1 {
            (local, 0)
        } else {
            (local / vcs, local % vcs)
        }
    }

    /// One Pass-A probe of [`NetworkSim::process_switch`]: continues the
    /// wormhole bound to switch-local slot `local` when its front is ready
    /// and its output port is still free this cycle. Returns whether a
    /// flit moved.
    #[inline(always)]
    fn continue_wormhole(&mut self, v: usize, sb: usize, local: usize) -> bool {
        let slot = sb + local;
        let Some(route) = self.fabric.in_route(slot) else {
            return false;
        };
        if self.out_used[route.out_port] || self.fabric.front_ready(slot) > self.now {
            return false;
        }
        let f = *self.fabric.front(slot).expect("ready slot has a front");
        let (p, vc) = self.split_slot(local);
        self.try_advance(v, p, vc, f, route, None, false, false)
    }

    /// One Pass-B probe of [`NetworkSim::process_switch`]: routes the new
    /// head flit at unbound input `(p, vc)` when one is ready, and its
    /// chosen output is free. Returns whether a flit moved.
    #[inline(always)]
    fn route_new_head(&mut self, v: usize, sb: usize, p: usize, vc: usize) -> bool {
        let vcs = self.cfg.vcs;
        let slot = sb + p * vcs + vc;
        if self.fabric.front_ready(slot) > self.now {
            return false;
        }
        let f = *self.fabric.front(slot).expect("ready slot has a front");
        if !f.kind.is_head() {
            return false;
        }
        self.work.head_routes += 1;
        let (route, next_phase, divert) = self.route_head(NodeId(v), vc, &f);
        let o = route.out_port;
        if self.out_used[o] || self.fabric.out_owner_set(sb + o * vcs + route.down_vc) {
            return false;
        }
        self.try_advance(v, p, vc, f, route, next_phase, true, divert)
    }

    /// Attempts to move flit `f` — the validated (ready, front-of-queue)
    /// head of input `(p, vc)` at switch `v` — along `route`; the caller
    /// has already checked that `route.out_port` is unused this cycle.
    /// Head flits take `next_phase` with them only when the move succeeds
    /// (a blocked flit must keep its pre-hop routing state). Returns
    /// whether the flit moved.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn try_advance(
        &mut self,
        v: usize,
        p: usize,
        vc: usize,
        f: Flit,
        route: OutRoute,
        next_phase: Option<Phase>,
        is_new_packet: bool,
        divert: bool,
    ) -> bool {
        let o = route.out_port;
        debug_assert!(!self.out_used[o], "caller reserves the output port");
        let vcs = self.cfg.vcs;
        let sb = self.fabric.switch_base(NodeId(v));
        let slot = sb + p * vcs + vc;
        debug_assert_eq!(self.fabric.front(slot), Some(&f));
        debug_assert!(f.ready_at <= self.now);

        enum Dest {
            Eject,
            Into(NodeId, usize, u64, f64, bool), // node, port, penalty, link energy, wireless
        }

        let dest = if o == PORT_LOCAL {
            Dest::Eject
        } else if Some(o) == self.ports.wireless_port(NodeId(v)) {
            let to = route.wireless_to.expect("wireless route carries target");
            let ch = self.wi_channel[v] as usize;
            if self.mac_holders[ch] != Some(NodeId(v)) || self.mac_used[ch] {
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
                    fl.consec[v] += 1;
                    if fl.consec[v] >= fl.plan.wi_fallback_threshold() && !fl.disabled[v] {
                        fl.disabled[v] = true;
                        fl.counts.wi_fallbacks += 1;
                    }
                    self.mac_used[ch] = true;
                    if self.measured(&f) {
                        // The corrupted transfer still radiated.
                        self.stats.energy.wireless_pj += self.energy_model.wireless_energy_pj();
                    }
                    return false;
                }
                fl.consec[v] = 0;
            }
            let penalty = if self.domains[v] != self.domains[to.index()] {
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
            let (w, wp) = self.ports.wire_peer(NodeId(v), o);
            if self.fabric.space(self.fabric.slot(w, wp, route.down_vc)) == 0 {
                return false;
            }
            let i = self.ports.flat_index(NodeId(v), o);
            Dest::Into(w, wp, self.port_penalty[i], self.wire_energy[i], false)
        };

        // Commit the move.
        let measured = self.measured(&f);
        let mut f = f;
        let was_full = self.fabric.space(slot) == 0;
        self.fabric.pop_front(slot);
        if was_full && p != PORT_LOCAL && Some(p) != self.ports.wireless_port(NodeId(v)) {
            // Popping a full wired slot is the only event that can unblock
            // the wire peer behind it (the peer is also the only switch
            // whose adaptive route choice reads this slot's space). A peer
            // later in this cycle's ascending sweep still gets consulted
            // *this* cycle — exactly as the per-cycle retry would.
            let (u, _) = self.ports.wire_peer(NodeId(v), p);
            let u = u.index();
            if self.parked[u] {
                let t = if u > v { self.now } else { self.now + 1 };
                if self.wake[u] > t {
                    self.set_wake(u, t);
                }
            }
        }
        self.work.flit_moves += 1;
        if let Some(ph) = next_phase {
            f.phase = ph;
        }
        if divert {
            f.wired_fallback = true;
        }
        if measured {
            self.stats.energy.switch_pj += self.switch_pj[v];
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
                        self.link_flits[self.ports.flat_index(NodeId(v), o)] += 1;
                    }
                }
                if wireless {
                    self.mac_used[self.wi_channel[v] as usize] = true;
                }
                let wslot = self.fabric.slot(w, wp, route.down_vc);
                self.fabric.push_back(wslot, f);
                let w = w.index();
                if self.wake[w] > ready {
                    self.set_wake(w, ready);
                }
            }
        }
        self.out_used[o] = true;

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

    #[test]
    fn invalid_config_message_names_every_cause() {
        let cfg = SimConfig {
            vcs: 0,
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
        let msg = err.to_string();
        for cause in [
            "buffer depths",
            "packet length",
            "VC count",
            "adaptive routing",
            "64 input slots",
            "at most 65535 switches",
        ] {
            assert!(msg.contains(cause), "{msg:?} should name {cause:?}");
        }
    }

    #[test]
    fn rejects_fabric_past_node_limit() {
        let big = Topology::new(
            vec![crate::node::Position::new(0.0, 0.0); MAX_NODES + 1],
            crate::topology::TopologyKind::Custom,
        );
        let err = NetworkSim::new(
            big,
            WirelessOverlay::none(),
            RoutingTable::xy(2, 2),
            EnergyModel::default_65nm(),
            SimConfig::default(),
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
    fn wireless_rerun_is_bit_identical() {
        // Re-running the same wireless configuration must be bit-identical
        // even though drains interleave stepping and idle jumps.
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
