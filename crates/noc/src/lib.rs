//! # mapwave-noc
//!
//! Cycle-accurate, flit-level Network-on-Chip simulator supporting the three
//! fabrics of the DAC'15 study *"Energy Efficient MapReduce with VFI-enabled
//! Multicore Platforms"*:
//!
//! * a conventional 2-D **mesh** with XY routing (the baseline),
//! * a **power-law small-world** wireline network built around a VFI
//!   partition ([`topology::small_world`]),
//! * the **WiNoC**: the small-world network overlaid with mm-wave wireless
//!   interfaces on three token-arbitrated channels
//!   ([`topology::wireless`], [`mac`]).
//!
//! Switches are input-buffered wormhole routers (2-flit FIFOs, 8-flit FIFOs
//! on wireless ports) with round-robin arbitration and credit flow control.
//! Routing is table-based and deadlock-free: XY on meshes, up\*/down\* on
//! irregular graphs ([`routing`]). Per-switch clock domains model the
//! VFI-partitioned NoC, and a parametric 65-nm energy model accounts for
//! switch, wire, and wireless energy per flit ([`energy`]).
//!
//! ## Quick start
//!
//! ```
//! use mapwave_noc::prelude::*;
//!
//! // An 8x8 mesh at 2.5 mm tile pitch, uniform random traffic.
//! let topo = mesh(8, 8, 2.5);
//! let table = RoutingTable::xy(8, 8);
//! let mut sim = NetworkSim::new(
//!     topo,
//!     WirelessOverlay::none(),
//!     table,
//!     EnergyModel::default_65nm(),
//!     SimConfig::default(),
//! )?;
//! let stats = sim.run(&TrafficMatrix::uniform(64, 0.01), 500, 2_000, 20_000);
//! assert!(stats.packets_delivered > 0);
//! println!(
//!     "avg latency {:.1} cycles, {:.1} pJ/flit",
//!     stats.avg_latency(),
//!     stats.energy_per_flit_pj()
//! );
//! # Ok::<(), mapwave_noc::sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod energy;
pub mod flit;
pub mod mac;
pub mod node;
pub mod routing;
pub mod sim;
pub mod stats;
pub mod switch;
pub mod topology;
pub mod traffic;

pub use energy::{EnergyBreakdown, EnergyModel};
pub use node::{NodeId, Position};
pub use routing::{Hop, Phase, RoutingTable};
pub use sim::{NetworkSim, NocFaultCounts, SimConfig};
pub use stats::NetworkStats;
pub use topology::wireless::{ChannelId, WirelessInterface, WirelessOverlay};
pub use topology::{Topology, TopologyKind};
pub use traffic::TrafficMatrix;

/// Convenient glob import for simulator users.
pub mod prelude {
    pub use crate::energy::EnergyModel;
    pub use crate::node::{NodeId, Position};
    pub use crate::routing::RoutingTable;
    pub use crate::sim::{NetworkSim, SimConfig};
    pub use crate::stats::NetworkStats;
    pub use crate::topology::mesh::mesh;
    pub use crate::topology::small_world::SmallWorldBuilder;
    pub use crate::topology::wireless::{ChannelId, WirelessInterface, WirelessOverlay};
    pub use crate::topology::Topology;
    pub use crate::traffic::TrafficMatrix;
}
