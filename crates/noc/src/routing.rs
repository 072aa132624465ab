//! Deterministic, deadlock-free routing tables.
//!
//! Two algorithms cover the paper's fabrics:
//!
//! * **XY dimension-order** for 2-D meshes (the NVFI / VFI mesh baselines) —
//!   deadlock-free by the turn-model argument;
//! * **up\*/down\*** for the irregular small-world WiNoC — a BFS spanning
//!   tree orients every link, and routes never take an *up* link after a
//!   *down* link, which makes the channel dependency graph acyclic.
//!
//! Wireless channels participate in up\*/down\* as *virtual hub* vertices:
//! each channel becomes a vertex adjacent to all of its wireless interfaces,
//! so a wireless transmission is the two-edge path `WI → hub → WI` (and is
//! therefore charged 2 in the hop metric, reflecting the token/serialisation
//! overhead of the shared medium — a wireless shortcut pays off exactly when
//! it replaces ≥ 3 wired hops).
//!
//! Tables are *state-indexed*: a packet carries a [`Phase`] bit (whether it
//! has taken a down link yet), and the next hop is a function of
//! `(current switch, phase, destination)`. This keeps per-hop decisions
//! legal without recomputing whole paths in the router.
//!
//! # Storage
//!
//! A table over `n` switches holds `2·n²` entries and `n²` distances, so it
//! is stored compactly: 12·n² bytes, 0.75 MiB at 256 switches. Both arrays
//! sit behind an [`Arc`] and no method mutates them, so a clone shares
//! them: the design flow builds its die's XY table once and every mesh
//! spec holds a handle to it.
//!
//! * Each entry is one `u32`: bit 31 = present (0 for an unreachable
//!   state), bit 30 = next phase is `Down`, bits 28–29 = hop kind (0
//!   `Local`, 1 `Wire`, 2 `Wireless`), bits 16–27 = wireless channel, bits
//!   0–15 = target node. [`RoutingTable::next_hop`] and
//!   [`RoutingTable::try_entry`] decode on read.
//! * Distances are kept only for phase-Up states, the rows
//!   [`RoutingTable::distance`] serves; the Down rows are construction
//!   scratch.
//!
//! The fields bound the fabric: at most [`MAX_NODES`] switches (node id
//! `0xFFFF` stays free as the simulator's wired-hop marker) and
//! [`MAX_CHANNELS`] wireless channels. Larger fabrics are rejected before
//! any table is allocated.

use crate::node::NodeId;
use crate::topology::wireless::{ChannelId, WirelessOverlay};
use crate::topology::Topology;
use std::collections::VecDeque;
use std::sync::Arc;

/// Routing phase of a packet under up\*/down\*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Phase {
    /// The packet has not yet taken a *down* link; both directions allowed.
    #[default]
    Up,
    /// The packet has gone *down*; only further down links are allowed.
    Down,
}

/// One routing step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// The packet is at its destination; eject to the local core.
    Local,
    /// Forward over the wire to this neighbouring switch.
    Wire(NodeId),
    /// Transmit on `channel` to the wireless interface at `to`.
    Wireless {
        /// Channel to transmit on.
        channel: ChannelId,
        /// Receiving wireless interface.
        to: NodeId,
    },
}

/// A table entry: the hop to take and the packet's phase after taking it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// The hop to take.
    pub hop: Hop,
    /// Phase the packet carries after this hop.
    pub next_phase: Phase,
}

/// Most switches a routing table (and a [`crate::NetworkSim`]) covers: node
/// ids fit a packed entry's 16-bit node field and stay below `0xFFFF`,
/// which the simulator's packed routes use to mark a wired hop.
pub const MAX_NODES: usize = 0xFFFF;

/// Most wireless channels a routing table covers: channel ids fit a packed
/// entry's 12-bit channel field.
pub const MAX_CHANNELS: usize = 1 << 12;

const PRESENT: u32 = 1 << 31;
const DOWN: u32 = 1 << 30;
const KIND_SHIFT: u32 = 28;
const CHANNEL_SHIFT: u32 = 16;
const CHANNEL_MASK: u32 = 0xFFF;
const NODE_MASK: u32 = 0xFFFF;

/// Packs `entry` into the one-`u32` layout of the module doc.
///
/// # Panics
///
/// Panics if the hop's node id is not below [`MAX_NODES`] or its channel
/// id not below [`MAX_CHANNELS`].
fn pack(entry: RouteEntry) -> u32 {
    let (kind, channel, node) = match entry.hop {
        Hop::Local => (0, 0, 0),
        Hop::Wire(w) => (1, 0, w.index()),
        Hop::Wireless { channel, to } => (2, channel.index(), to.index()),
    };
    assert!(node < MAX_NODES, "node id {node} exceeds the table's limit");
    assert!(
        channel < MAX_CHANNELS,
        "channel id {channel} exceeds the table's limit"
    );
    PRESENT
        | (u32::from(entry.next_phase == Phase::Down) * DOWN)
        | (kind << KIND_SHIFT)
        | ((channel as u32) << CHANNEL_SHIFT)
        | node as u32
}

/// Inverse of [`pack`]; `None` for an absent (unreachable) state.
fn unpack(bits: u32) -> Option<RouteEntry> {
    if bits & PRESENT == 0 {
        return None;
    }
    let node = NodeId((bits & NODE_MASK) as usize);
    let hop = match (bits >> KIND_SHIFT) & 3 {
        0 => Hop::Local,
        1 => Hop::Wire(node),
        _ => Hop::Wireless {
            channel: ChannelId(((bits >> CHANNEL_SHIFT) & CHANNEL_MASK) as usize),
            to: node,
        },
    };
    let next_phase = if bits & DOWN != 0 {
        Phase::Down
    } else {
        Phase::Up
    };
    Some(RouteEntry { hop, next_phase })
}

/// Errors from routing-table construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutingError {
    /// The topology (with wireless hubs) is not connected.
    Disconnected,
    /// The topology is empty.
    Empty,
    /// The fabric has more than [`MAX_NODES`] switches or more than
    /// [`MAX_CHANNELS`] wireless channels.
    TooLarge {
        /// Switches in the topology.
        nodes: usize,
        /// Wireless channels in the overlay.
        channels: usize,
    },
}

impl std::fmt::Display for RoutingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingError::Disconnected => write!(f, "topology is not connected"),
            RoutingError::Empty => write!(f, "topology has no nodes"),
            RoutingError::TooLarge { nodes, channels } => write!(
                f,
                "fabric has {nodes} switches and {channels} wireless channels; \
                 routing tables cover at most {MAX_NODES} and {MAX_CHANNELS}"
            ),
        }
    }
}

impl std::error::Error for RoutingError {}

/// A complete deterministic routing function for one network.
///
/// # Examples
///
/// ```
/// use mapwave_noc::routing::{RoutingTable, Hop, Phase};
/// use mapwave_noc::topology::mesh::mesh;
/// use mapwave_noc::NodeId;
///
/// let table = RoutingTable::xy(8, 8);
/// // XY routes horizontally first: node 0 -> node 3 starts eastward.
/// let entry = table.next_hop(NodeId(0), Phase::Up, NodeId(3));
/// assert_eq!(entry.hop, Hop::Wire(NodeId(1)));
/// # let _ = mesh(8, 8, 2.5);
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTable {
    n: usize,
    /// `entries[(v * 2 + phase) * n + dest]`, packed (see the module doc).
    entries: Arc<[u32]>,
    /// `dist[v * n + dest]` from phase Up, in hop-metric units.
    dist: Arc<[u32]>,
}

impl RoutingTable {
    /// Number of switches covered by the table.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the table covers no switches.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn idx(&self, v: NodeId, phase: Phase, dest: NodeId) -> usize {
        let p = match phase {
            Phase::Up => 0,
            Phase::Down => 1,
        };
        (v.index() * 2 + p) * self.n + dest.index()
    }

    /// The next hop for a packet at `v` in `phase` heading to `dest`.
    ///
    /// # Panics
    ///
    /// Panics if no legal route exists from this state — the simulator only
    /// consults states that lie on precomputed legal routes, so this fires
    /// only on misuse (e.g. fabricating a `Down` phase at an arbitrary node).
    pub fn next_hop(&self, v: NodeId, phase: Phase, dest: NodeId) -> RouteEntry {
        self.try_entry(v, phase, dest)
            .unwrap_or_else(|| panic!("no route from {v} (phase {phase:?}) to {dest}"))
    }

    /// The table entry for this state, or `None` when the state has no
    /// legal route (used when precomputing flat route tables, which must
    /// cover unreachable states without panicking).
    pub fn try_entry(&self, v: NodeId, phase: Phase, dest: NodeId) -> Option<RouteEntry> {
        unpack(self.entries[self.idx(v, phase, dest)])
    }

    /// Hop-metric distance from `src` (fresh packet, phase Up) to `dest`.
    /// Wireless traversals count 2; wire hops count 1.
    pub fn distance(&self, src: NodeId, dest: NodeId) -> u32 {
        self.dist[src.index() * self.n + dest.index()]
    }

    /// The full hop sequence from `src` to `dest` (excluding the final
    /// `Local` ejection).
    pub fn path(&self, src: NodeId, dest: NodeId) -> Vec<Hop> {
        let mut hops = Vec::new();
        let mut at = src;
        let mut phase = Phase::Up;
        while at != dest {
            let e = self.next_hop(at, phase, dest);
            match e.hop {
                Hop::Local => break,
                Hop::Wire(w) => {
                    hops.push(e.hop);
                    at = w;
                }
                Hop::Wireless { to, .. } => {
                    hops.push(e.hop);
                    at = to;
                }
            }
            phase = e.next_phase;
            assert!(
                hops.len() <= 4 * self.n + 8,
                "routing loop detected {src}->{dest}"
            );
        }
        hops
    }

    /// Number of wireless traversals on the `src → dest` route.
    pub fn wireless_hops(&self, src: NodeId, dest: NodeId) -> usize {
        self.path(src, dest)
            .iter()
            .filter(|h| matches!(h, Hop::Wireless { .. }))
            .count()
    }

    /// Builds the XY dimension-order table for a `cols x rows` mesh.
    ///
    /// # Panics
    ///
    /// Panics if `cols == 0 || rows == 0`, or if the mesh has more than
    /// [`MAX_NODES`] switches.
    pub fn xy(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be nonzero");
        let n = cols
            .checked_mul(rows)
            .filter(|&n| n <= MAX_NODES)
            .unwrap_or_else(|| panic!("a {cols}x{rows} mesh exceeds {MAX_NODES} switches"));
        let mut entries = vec![0u32; n * 2 * n];
        let mut dist = vec![0u32; n * n];
        for v in 0..n {
            let (vc, vr) = (v % cols, v / cols);
            for d in 0..n {
                let (dc, dr) = (d % cols, d / cols);
                let hop = if v == d {
                    Hop::Local
                } else if vc < dc {
                    Hop::Wire(NodeId(v + 1))
                } else if vc > dc {
                    Hop::Wire(NodeId(v - 1))
                } else if vr < dr {
                    Hop::Wire(NodeId(v + cols))
                } else {
                    Hop::Wire(NodeId(v - cols))
                };
                let packed = pack(RouteEntry {
                    hop,
                    next_phase: Phase::Up,
                });
                entries[v * 2 * n + d] = packed;
                entries[(v * 2 + 1) * n + d] = packed;
                dist[v * n + d] = (vc.abs_diff(dc) + vr.abs_diff(dr)) as u32;
            }
        }
        RoutingTable {
            n,
            entries: entries.into(),
            dist: dist.into(),
        }
    }

    /// Builds an up\*/down\* table for an arbitrary connected topology with
    /// an optional wireless overlay.
    ///
    /// The spanning tree is rooted at the highest-degree switch (ties: lowest
    /// id). Shortest legal routes are computed on the phase-expanded graph;
    /// ties prefer wired hops, then lower node ids, keeping the table
    /// deterministic.
    ///
    /// # Errors
    ///
    /// [`RoutingError::Disconnected`] if some pair has no legal route (an
    /// up\*/down\* route exists between every pair whenever the graph is
    /// connected, because root-via paths are always legal);
    /// [`RoutingError::Empty`] for an empty topology;
    /// [`RoutingError::TooLarge`] past [`MAX_NODES`] switches or
    /// [`MAX_CHANNELS`] channels.
    pub fn up_down(topo: &Topology, overlay: &WirelessOverlay) -> Result<Self, RoutingError> {
        Self::up_down_weighted(topo, overlay, 1)
    }

    /// [`RoutingTable::up_down`] with an explicit hub-edge weight: a
    /// wireless traversal costs `2 * hub_edge_weight` in the distance
    /// metric, so raising the weight reserves the scarce shared channels
    /// for routes that replace many wired hops. The default (weight 1,
    /// wireless hop = 2) uses wireless aggressively; the WiNoC platform
    /// uses weight 2 (wireless hop = 4), reflecting the channel's lower
    /// bandwidth and token-access latency relative to point-to-point wires.
    ///
    /// The extended adjacency, spanning-tree levels and every
    /// `(state, destination)` distance, hub states included, come from one
    /// [`UpDownDistances`] pass; each entry then depends only on those
    /// distance values, and the table keeps only the switches' phase-Up
    /// rows.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RoutingTable::up_down`].
    ///
    /// # Panics
    ///
    /// Panics if `hub_edge_weight == 0`.
    pub fn up_down_weighted(
        topo: &Topology,
        overlay: &WirelessOverlay,
        hub_edge_weight: u32,
    ) -> Result<Self, RoutingError> {
        assert!(hub_edge_weight > 0, "hub edge weight must be nonzero");
        let n = topo.len();
        if n == 0 {
            return Err(RoutingError::Empty);
        }
        let channels = overlay.channel_count();
        if n > MAX_NODES || channels > MAX_CHANNELS {
            return Err(RoutingError::TooLarge { nodes: n, channels });
        }
        let mut eval = UpDownDistances::new(topo, hub_edge_weight);
        if !eval.prepare(overlay) {
            return Err(RoutingError::Disconnected);
        }
        // Every state's distances, `dist[s * n + dest]`: switch states
        // `v * 2 + phase` first, then the hubs.
        let mut dist = vec![0u32; eval.state_count() * n];
        eval.all_pairs_into(&mut dist);
        // The legal steps of a state `v * 2 + p`, as (target state,
        // crosses a hub) — the kernel's own step lists.
        let steps = |s: usize| {
            eval.steps[eval.step_off[s]..eval.step_off[s + 1]]
                .iter()
                .map(|&e| (e >> 1, e & 1 == 1))
        };
        let phase = |state: usize| {
            if state.is_multiple_of(2) {
                Phase::Up
            } else {
                Phase::Down
            }
        };

        let mut entries = vec![0u32; n * 2 * n];
        for s in 0..2 * n {
            let v = s / 2;
            for d in 0..n {
                let out = s * n + d;
                if v == d {
                    entries[out] = pack(RouteEntry {
                        hop: Hop::Local,
                        next_phase: phase(s),
                    });
                    continue;
                }
                let my = dist[out];
                if my == u32::MAX {
                    // Unreachable state; never consulted. A connected graph
                    // always admits an Up route (climb to the root, then
                    // descend).
                    debug_assert_eq!(phase(s), Phase::Down, "connected graph has Up routes");
                    continue;
                }
                // The lowest legal equal-cost next state: wired candidates
                // sort first, so the shared wireless channels are taken only
                // when no equal-cost wire exists; ties then break toward the
                // lowest vertex id (state `w * 2 + q` orders as `(w, q)`),
                // keeping the table deterministic.
                let (is_hub, t) = steps(s)
                    .filter(|&(t, hub)| {
                        let cost = if hub { hub_edge_weight } else { 1 };
                        dist[t * n + d].saturating_add(cost) == my
                    })
                    .map(|(t, hub)| (hub, t))
                    .min()
                    .expect("finite distance implies a next state");
                entries[out] = pack(if !is_hub {
                    RouteEntry {
                        hop: Hop::Wire(NodeId(t / 2)),
                        next_phase: phase(t),
                    }
                } else {
                    // Resolve through the hub to the receiving WI.
                    let exit = steps(t)
                        .map(|(t2, _)| t2)
                        .filter(|&t2| {
                            t2 / 2 != v
                                && dist[t2 * n + d] == my.saturating_sub(2 * hub_edge_weight)
                        })
                        .min()
                        .expect("hub on shortest path has an exit WI");
                    RouteEntry {
                        hop: Hop::Wireless {
                            channel: ChannelId(t / 2 - n),
                            to: NodeId(exit / 2),
                        },
                        next_phase: phase(exit),
                    }
                });
            }
        }
        // Keep the switches' phase-Up rows, in a buffer of their own.
        let mut up = Vec::with_capacity(n * n);
        for rows in dist.chunks_exact(2 * n).take(n) {
            up.extend_from_slice(&rows[..n]);
        }
        Ok(RoutingTable {
            n,
            entries: entries.into(),
            dist: up.into(),
        })
    }
}

/// Bit-parallel up\*/down\* distances from every state to every switch.
///
/// Placement search and [`RoutingTable::up_down_weighted`] both need the
/// hop-metric distance of every `(switch, phase)` state to every
/// destination. Rather than one shortest-path search per destination, the
/// evaluator runs one breadth-first sweep over the phase-expanded graph
/// that carries all destinations at once: layer `k` holds, for each state,
/// a bitset of the switches it reaches within cost `k`, built as
///
/// `R[k+1][x] = R[k][x] | OR over legal steps x -> y of R[k+1-c][y]`
///
/// where `c` is the step's cost (1 on a wire, `hub_edge_weight` on a hub
/// edge). A ring of `hub_edge_weight + 1` layers is enough to read every
/// `R[k+1-c]`. The distance from `x` to `d` is the first `k` whose
/// `R[k][x]` contains `d`, and the sweep ends once `hub_edge_weight`
/// consecutive layers add nothing. Shortest-path distances are unique
/// values, so these are exactly the numbers a per-destination Dijkstra
/// returns.
///
/// Usage: construct once per topology, [`prepare`](Self::prepare) per
/// overlay (rebuilds the extended adjacency, BFS levels and legal steps),
/// then [`all_pairs_into`](Self::all_pairs_into). Scratch buffers are
/// reused across overlays.
///
/// # Examples
///
/// ```
/// use mapwave_noc::routing::{RoutingTable, UpDownDistances};
/// use mapwave_noc::topology::mesh::mesh;
/// use mapwave_noc::topology::wireless::WirelessOverlay;
/// use mapwave_noc::NodeId;
///
/// let m = mesh(4, 4, 1.0);
/// let table = RoutingTable::up_down(&m, &WirelessOverlay::none()).unwrap();
/// let mut eval = UpDownDistances::new(&m, 1);
/// assert!(eval.prepare(&WirelessOverlay::none()));
/// let mut dist = vec![0u32; eval.state_count() * 16];
/// eval.all_pairs_into(&mut dist);
/// for s in 0..16 {
///     for d in 0..16 {
///         // Fresh packets start in phase Up: state `s * 2`.
///         assert_eq!(dist[s * 2 * 16 + d], table.distance(NodeId(s), NodeId(d)));
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct UpDownDistances {
    n: usize,
    hub_edge_weight: u32,
    /// Wired adjacency CSR over the switches (fixed for the topology).
    wired_off: Vec<usize>,
    wired_adj: Vec<usize>,
    /// Combined adjacency CSR (switches then hub vertices); per overlay.
    adj_off: Vec<usize>,
    adj: Vec<usize>,
    /// BFS levels from the spanning-tree root; per overlay.
    level: Vec<usize>,
    /// Legal steps CSR over states `v * 2 + phase`; per overlay. Each
    /// entry is `target_state << 1 | crosses_hub`.
    step_off: Vec<usize>,
    steps: Vec<usize>,
    /// Ring of `hub_edge_weight + 1` reach layers, one bitset per state.
    layers: Vec<Vec<u64>>,
    bfs: VecDeque<usize>,
}

impl UpDownDistances {
    /// Builds an evaluator for `topo` with the given hub-edge weight
    /// (same metric as [`RoutingTable::up_down_weighted`]).
    ///
    /// # Panics
    ///
    /// Panics if `hub_edge_weight == 0`.
    pub fn new(topo: &Topology, hub_edge_weight: u32) -> Self {
        assert!(hub_edge_weight > 0, "hub edge weight must be nonzero");
        let n = topo.len();
        let mut wired_off = Vec::with_capacity(n + 1);
        let mut wired_adj = Vec::new();
        wired_off.push(0);
        for v in topo.nodes() {
            wired_adj.extend(topo.neighbors(v).iter().map(|w| w.index()));
            wired_off.push(wired_adj.len());
        }
        UpDownDistances {
            n,
            hub_edge_weight,
            wired_off,
            wired_adj,
            adj_off: Vec::new(),
            adj: Vec::new(),
            level: Vec::new(),
            step_off: Vec::new(),
            steps: Vec::new(),
            layers: vec![Vec::new(); hub_edge_weight as usize + 1],
            bfs: VecDeque::new(),
        }
    }

    /// Rebuilds the extended adjacency, spanning-tree levels and legal
    /// steps for `overlay`. Returns `false` when the extended graph is
    /// disconnected or empty — exactly the cases where
    /// [`RoutingTable::up_down_weighted`] returns an error and a placement
    /// cost would be infinite.
    pub fn prepare(&mut self, overlay: &WirelessOverlay) -> bool {
        let n = self.n;
        if n == 0 {
            return false;
        }
        let hubs = overlay.channel_count();
        let total = n + hubs;

        // Degree counts: wired degree plus one per attached WI; hub degree
        // is its member count.
        self.adj_off.clear();
        self.adj_off.resize(total + 1, 0);
        for v in 0..n {
            self.adj_off[v + 1] = self.wired_off[v + 1] - self.wired_off[v];
        }
        for wi in overlay.interfaces() {
            self.adj_off[wi.node.index() + 1] += 1;
            self.adj_off[n + wi.channel.index() + 1] += 1;
        }
        for v in 0..total {
            self.adj_off[v + 1] += self.adj_off[v];
        }
        self.adj.clear();
        self.adj.resize(self.adj_off[total], usize::MAX);
        // Fill via per-vertex cursors; neighbour order is irrelevant to
        // levels, distances and table entries (BFS levels are shortest hop
        // counts, and the table builder picks minima).
        let mut cursor: Vec<usize> = self.adj_off[..total].to_vec();
        for (v, cur) in cursor.iter_mut().enumerate().take(n) {
            for &w in &self.wired_adj[self.wired_off[v]..self.wired_off[v + 1]] {
                self.adj[*cur] = w;
                *cur += 1;
            }
        }
        for wi in overlay.interfaces() {
            let (v, hub) = (wi.node.index(), n + wi.channel.index());
            self.adj[cursor[v]] = hub;
            cursor[v] += 1;
            self.adj[cursor[hub]] = v;
            cursor[hub] += 1;
        }

        // Root: highest combined degree, ties toward the lowest switch id.
        // It must be a high-degree switch: every "crossing" route climbs
        // toward the root, so the root's port count bounds the bandwidth
        // of the tree's upper cut.
        let root = (0..n)
            .max_by_key(|&v| (self.adj_off[v + 1] - self.adj_off[v], usize::MAX - v))
            .expect("n > 0");
        self.level.clear();
        self.level.resize(total, usize::MAX);
        self.level[root] = 0;
        self.bfs.clear();
        self.bfs.push_back(root);
        let mut visited = 1usize;
        while let Some(v) = self.bfs.pop_front() {
            for &w in &self.adj[self.adj_off[v]..self.adj_off[v + 1]] {
                if self.level[w] == usize::MAX {
                    self.level[w] = self.level[v] + 1;
                    visited += 1;
                    self.bfs.push_back(w);
                }
            }
        }
        if visited != total {
            return false;
        }

        // Legal steps of state (v, p): an up link (toward the root, by
        // (level, id)) keeps phase Up and is barred in phase Down; a down
        // link enters phase Down.
        self.step_off.clear();
        self.steps.clear();
        self.step_off.push(0);
        for v in 0..total {
            for p in 0..2 {
                for &w in &self.adj[self.adj_off[v]..self.adj_off[v + 1]] {
                    let up = (self.level[w], w) < (self.level[v], v);
                    if up && p == 1 {
                        continue;
                    }
                    let to = w * 2 + usize::from(!up);
                    self.steps.push(to << 1 | usize::from(v >= n || w >= n));
                }
                self.step_off.push(self.steps.len());
            }
        }
        true
    }

    /// Number of phase-expanded states of the prepared overlay: two per
    /// switch, then two per wireless channel hub.
    pub fn state_count(&self) -> usize {
        2 * self.level.len()
    }

    /// Writes the hop-metric distance from every state to every switch:
    /// `out[(v * 2 + phase) * n + dest]` with phase 0 = Up, 1 = Down,
    /// switches `v < n` first and then the channel hubs, and `u32::MAX`
    /// where no legal route exists. The switches' phase-Up rows are what
    /// [`RoutingTable::up_down_weighted`] stores as
    /// [`RoutingTable::distance`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.state_count() * topo.len()` (so also
    /// if called before a successful [`prepare`](Self::prepare)).
    pub fn all_pairs_into(&mut self, out: &mut [u32]) {
        let n = self.n;
        let states = self.state_count();
        assert!(
            states > 0 && out.len() == states * n,
            "prepare() first; output must cover every state and switch"
        );
        let words = n.div_ceil(64);
        let hub_w = self.hub_edge_weight as usize;
        let ring = hub_w + 1;
        for layer in &mut self.layers {
            layer.clear();
            layer.resize(states * words, 0);
        }
        out.fill(u32::MAX);
        // Layer 0: both phase states of a switch reach the switch itself.
        for v in 0..n {
            for s in [v * 2, v * 2 + 1] {
                self.layers[0][s * words + v / 64] |= 1 << (v % 64);
                out[s * n + v] = 0;
            }
        }

        let mut k = 0usize;
        let mut quiet = 0usize;
        // Once `hub_w` consecutive layers add nothing, every layer the
        // recurrence reads is unchanged, so no later layer can grow.
        while quiet < hub_w {
            let mut next = std::mem::take(&mut self.layers[(k + 1) % ring]);
            let cur = &self.layers[k % ring];
            // Hub steps read layer k + 1 - hub_w (none exists yet before
            // the first `hub_w` layers).
            let back = (k + 1 >= hub_w).then(|| &self.layers[(k + 1 - hub_w) % ring]);
            let mut grew = false;
            for s in 0..states {
                let reach = &mut next[s * words..(s + 1) * words];
                let had = &cur[s * words..(s + 1) * words];
                reach.copy_from_slice(had);
                for &e in &self.steps[self.step_off[s]..self.step_off[s + 1]] {
                    let src = if e & 1 == 0 {
                        cur
                    } else if let Some(back) = back {
                        back
                    } else {
                        continue;
                    };
                    let t = e >> 1;
                    for (r, &x) in reach.iter_mut().zip(&src[t * words..(t + 1) * words]) {
                        *r |= x;
                    }
                }
                for (i, (&r, &h)) in reach.iter().zip(had).enumerate() {
                    let mut fresh = r & !h;
                    grew |= fresh != 0;
                    while fresh != 0 {
                        out[s * n + i * 64 + fresh.trailing_zeros() as usize] = (k + 1) as u32;
                        fresh &= fresh - 1;
                    }
                }
            }
            self.layers[(k + 1) % ring] = next;
            quiet = if grew { 0 } else { quiet + 1 };
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::grid_positions;
    use crate::topology::mesh::mesh;
    use crate::topology::small_world::SmallWorldBuilder;
    use crate::topology::wireless::{WirelessInterface, WirelessOverlay};

    #[test]
    fn xy_routes_reach_destination() {
        let t = RoutingTable::xy(4, 4);
        for s in 0..16 {
            for d in 0..16 {
                let path = t.path(NodeId(s), NodeId(d));
                let mut at = NodeId(s);
                for hop in &path {
                    match hop {
                        Hop::Wire(w) => at = *w,
                        _ => panic!("mesh path must be wired"),
                    }
                }
                assert_eq!(at, NodeId(d));
                assert_eq!(path.len() as u32, t.distance(NodeId(s), NodeId(d)));
            }
        }
    }

    #[test]
    fn xy_distance_is_manhattan() {
        let t = RoutingTable::xy(8, 8);
        assert_eq!(t.distance(NodeId(0), NodeId(63)), 14);
        assert_eq!(t.distance(NodeId(0), NodeId(7)), 7);
        assert_eq!(t.distance(NodeId(9), NodeId(9)), 0);
    }

    #[test]
    fn xy_goes_horizontal_first() {
        let t = RoutingTable::xy(4, 4);
        // 0 -> 15: east, east, east, then south.
        let path = t.path(NodeId(0), NodeId(15));
        assert_eq!(path[0], Hop::Wire(NodeId(1)));
        assert_eq!(path[2], Hop::Wire(NodeId(3)));
        assert_eq!(path[3], Hop::Wire(NodeId(7)));
    }

    #[test]
    fn up_down_on_mesh_reaches_everything() {
        let m = mesh(4, 4, 1.0);
        let t = RoutingTable::up_down(&m, &WirelessOverlay::none()).unwrap();
        for s in 0..16 {
            for d in 0..16 {
                let path = t.path(NodeId(s), NodeId(d));
                let mut at = NodeId(s);
                for hop in &path {
                    if let Hop::Wire(w) = hop {
                        assert!(m.has_link(at, *w), "nonexistent link used");
                        at = *w;
                    }
                }
                assert_eq!(at, NodeId(d));
            }
        }
    }

    #[test]
    fn up_down_never_up_after_down() {
        // Structural check: follow every path and verify phase monotonicity
        // is respected by the entries themselves (Down states only produce
        // Down next-phases).
        let m = mesh(5, 5, 1.0);
        let t = RoutingTable::up_down(&m, &WirelessOverlay::none()).unwrap();
        let mut reachable = 0;
        for v in 0..25 {
            for d in 0..25 {
                if v == d {
                    continue;
                }
                if let Some(e) = t.try_entry(NodeId(v), Phase::Down, NodeId(d)) {
                    assert_eq!(e.next_phase, Phase::Down);
                    reachable += 1;
                }
            }
        }
        assert!(reachable > 0, "some Down states must be routable");
    }

    fn quadrant_clusters() -> Vec<usize> {
        (0..64).map(|i| (i % 8) / 4 + 2 * ((i / 8) / 4)).collect()
    }

    fn paper_overlay() -> WirelessOverlay {
        // One WI per channel per quadrant, near quadrant centres.
        let nodes = [
            (9, 0),
            (18, 1),
            (27, 2), // cluster 0
            (13, 0),
            (22, 1),
            (31, 2), // cluster 1
            (41, 0),
            (50, 1),
            (33, 2), // cluster 2
            (45, 0),
            (54, 1),
            (37, 2), // cluster 3
        ];
        WirelessOverlay::new(
            nodes
                .iter()
                .map(|&(n, c)| WirelessInterface {
                    node: NodeId(n),
                    channel: ChannelId(c),
                })
                .collect(),
            3,
        )
        .unwrap()
    }

    #[test]
    fn up_down_with_wireless_reaches_everything() {
        let topo = SmallWorldBuilder::new(grid_positions(8, 8, 2.5), quadrant_clusters())
            .seed(3)
            .build()
            .unwrap();
        let overlay = paper_overlay();
        let t = RoutingTable::up_down(&topo, &overlay).unwrap();
        let mut wireless_used = 0usize;
        for s in 0..64 {
            for d in 0..64 {
                let path = t.path(NodeId(s), NodeId(d));
                let mut at = NodeId(s);
                for hop in &path {
                    match hop {
                        Hop::Wire(w) => {
                            assert!(topo.has_link(at, *w));
                            at = *w;
                        }
                        Hop::Wireless { channel, to } => {
                            assert_eq!(overlay.wireless_hop(at, *to), Some(*channel));
                            at = *to;
                            wireless_used += 1;
                        }
                        Hop::Local => unreachable!(),
                    }
                }
                assert_eq!(at, NodeId(d));
            }
        }
        assert!(wireless_used > 0, "wireless shortcuts should be used");
    }

    #[test]
    fn wireless_shortcut_shortens_long_paths() {
        // A long line of 30 nodes with WIs at both ends: the wireless hop
        // (cost 2) must beat the 29-hop wire path.
        let mut topo = Topology::new(
            (0..30)
                .map(|i| crate::node::Position::new(i as f64, 0.0))
                .collect(),
            crate::topology::TopologyKind::Custom,
        );
        for i in 0..29 {
            topo.add_link(NodeId(i), NodeId(i + 1)).unwrap();
        }
        let overlay = WirelessOverlay::new(
            vec![
                WirelessInterface {
                    node: NodeId(0),
                    channel: ChannelId(0),
                },
                WirelessInterface {
                    node: NodeId(29),
                    channel: ChannelId(0),
                },
            ],
            1,
        )
        .unwrap();
        let t = RoutingTable::up_down(&topo, &overlay).unwrap();
        assert_eq!(t.distance(NodeId(0), NodeId(29)), 2);
        assert_eq!(t.wireless_hops(NodeId(0), NodeId(29)), 1);
    }

    #[test]
    fn disconnected_topology_rejected() {
        let topo = Topology::new(
            vec![
                crate::node::Position::new(0.0, 0.0),
                crate::node::Position::new(1.0, 0.0),
            ],
            crate::topology::TopologyKind::Custom,
        );
        assert_eq!(
            RoutingTable::up_down(&topo, &WirelessOverlay::none()),
            Err(RoutingError::Disconnected)
        );
    }

    impl PartialEq for RoutingTable {
        fn eq(&self, other: &Self) -> bool {
            self.n == other.n && self.entries == other.entries
        }
    }

    #[test]
    fn empty_topology_rejected() {
        let topo = Topology::new(vec![], crate::topology::TopologyKind::Custom);
        assert_eq!(
            RoutingTable::up_down(&topo, &WirelessOverlay::none()).unwrap_err(),
            RoutingError::Empty
        );
    }

    /// The kernel's switch phase-Up rows equal the table's distances, its
    /// switch phase-Down rows are finite exactly where the table has a
    /// Down entry, and its full output (both phases, hubs included) equals
    /// a fresh evaluator's. The table reads the same kernel, so this checks
    /// the shared layout and `prepare`'s per-overlay reset;
    /// `tests/routing_oracle.rs` checks the distances against an
    /// independent search.
    fn assert_distances_match(
        topo: &Topology,
        overlay: &WirelessOverlay,
        weight: u32,
        eval: &mut UpDownDistances,
    ) {
        let table = RoutingTable::up_down_weighted(topo, overlay, weight).unwrap();
        assert!(eval.prepare(overlay), "table built, so graph is connected");
        let n = topo.len();
        let mut got = vec![0u32; eval.state_count() * n];
        eval.all_pairs_into(&mut got);
        let up: Vec<u32> = (0..n)
            .flat_map(|v| got[v * 2 * n..(v * 2 + 1) * n].iter().copied())
            .collect();
        assert_eq!(up[..], table.dist[..], "weight {weight}");
        assert!(!up.contains(&u32::MAX));
        for v in 0..n {
            for d in 0..n {
                let down = got[(v * 2 + 1) * n + d];
                let entry = table.try_entry(NodeId(v), Phase::Down, NodeId(d));
                assert_eq!(down != u32::MAX, entry.is_some(), "weight {weight}");
            }
        }
        let mut fresh = UpDownDistances::new(topo, weight);
        assert!(fresh.prepare(overlay));
        let mut want = vec![0u32; fresh.state_count() * n];
        fresh.all_pairs_into(&mut want);
        assert_eq!(got, want, "weight {weight}");
    }

    #[test]
    fn distance_evaluator_matches_table_on_mesh() {
        let m = mesh(4, 4, 1.0);
        let mut eval = UpDownDistances::new(&m, 1);
        assert_distances_match(&m, &WirelessOverlay::none(), 1, &mut eval);
    }

    #[test]
    fn distance_evaluator_matches_table_on_winoc() {
        let topo = SmallWorldBuilder::new(grid_positions(8, 8, 2.5), quadrant_clusters())
            .seed(3)
            .build()
            .unwrap();
        for weight in [1u32, 2, 3] {
            let mut eval = UpDownDistances::new(&topo, weight);
            assert_distances_match(&topo, &paper_overlay(), weight, &mut eval);
        }
    }

    #[test]
    fn distance_evaluator_scratch_reuse_across_overlays() {
        // One evaluator, several overlays (including none): each prepare()
        // must fully reset the per-overlay state.
        let topo = SmallWorldBuilder::new(grid_positions(8, 8, 2.5), quadrant_clusters())
            .seed(3)
            .build()
            .unwrap();
        let mut eval = UpDownDistances::new(&topo, 2);
        let moved = WirelessOverlay::new(
            paper_overlay()
                .interfaces()
                .iter()
                .map(|w| WirelessInterface {
                    node: NodeId((w.node.index() + 8) % 64),
                    channel: w.channel,
                })
                .collect(),
            3,
        )
        .unwrap();
        for overlay in [paper_overlay(), moved, WirelessOverlay::none()] {
            assert_distances_match(&topo, &overlay, 2, &mut eval);
        }
    }

    #[test]
    fn distance_evaluator_detects_disconnection() {
        let topo = Topology::new(
            vec![
                crate::node::Position::new(0.0, 0.0),
                crate::node::Position::new(1.0, 0.0),
            ],
            crate::topology::TopologyKind::Custom,
        );
        let mut eval = UpDownDistances::new(&topo, 1);
        assert!(!eval.prepare(&WirelessOverlay::none()));
        // An unused channel's hub vertex is isolated: the table builder
        // rejects it, and so must the evaluator.
        let m = mesh(2, 2, 1.0);
        assert!(RoutingTable::up_down(&m, &WirelessOverlay::new(vec![], 1).unwrap()).is_err());
        let mut eval = UpDownDistances::new(&m, 1);
        assert!(!eval.prepare(&WirelessOverlay::new(vec![], 1).unwrap()));
    }

    #[test]
    fn packed_entry_round_trips_to_the_limits() {
        let (node, channel) = (NodeId(MAX_NODES - 1), ChannelId(MAX_CHANNELS - 1));
        let hops = [
            Hop::Local,
            Hop::Wire(NodeId(0)),
            Hop::Wire(node),
            Hop::Wireless {
                channel: ChannelId(0),
                to: NodeId(0),
            },
            Hop::Wireless { channel, to: node },
            Hop::Wireless {
                channel,
                to: NodeId(0),
            },
            Hop::Wireless {
                channel: ChannelId(0),
                to: node,
            },
        ];
        for next_phase in [Phase::Up, Phase::Down] {
            for hop in hops {
                let entry = RouteEntry { hop, next_phase };
                assert_eq!(unpack(pack(entry)), Some(entry));
            }
        }
        assert_eq!(unpack(0), None);
    }

    #[test]
    #[should_panic(expected = "node id 65535")]
    fn pack_rejects_node_past_limit() {
        pack(RouteEntry {
            hop: Hop::Wire(NodeId(MAX_NODES)),
            next_phase: Phase::Up,
        });
    }

    #[test]
    #[should_panic(expected = "channel id 4096")]
    fn pack_rejects_channel_past_limit() {
        pack(RouteEntry {
            hop: Hop::Wireless {
                channel: ChannelId(MAX_CHANNELS),
                to: NodeId(0),
            },
            next_phase: Phase::Down,
        });
    }

    #[test]
    fn table_stores_packed_entries_and_up_distances_only() {
        let topo = SmallWorldBuilder::new(grid_positions(8, 8, 2.5), quadrant_clusters())
            .seed(3)
            .build()
            .unwrap();
        let t = RoutingTable::up_down_weighted(&topo, &paper_overlay(), 2).unwrap();
        let n = 64;
        // 4 B per entry and per distance, with no hub or Down rows kept
        // allocated behind them (a shared slice holds exactly its length).
        assert_eq!(std::mem::size_of_val(&*t.entries), 4 * 2 * n * n);
        assert_eq!(std::mem::size_of_val(&*t.dist), 4 * n * n);
        // A clone shares both arrays instead of copying them.
        let c = t.clone();
        assert!(Arc::ptr_eq(&t.entries, &c.entries) && Arc::ptr_eq(&t.dist, &c.dist));
    }

    #[test]
    fn oversized_fabric_rejected_before_allocation() {
        let big = Topology::new(
            vec![crate::node::Position::new(0.0, 0.0); MAX_NODES + 1],
            crate::topology::TopologyKind::Custom,
        );
        assert_eq!(
            RoutingTable::up_down(&big, &WirelessOverlay::none()),
            Err(RoutingError::TooLarge {
                nodes: MAX_NODES + 1,
                channels: 0
            })
        );
        let many = WirelessOverlay::new(vec![], MAX_CHANNELS + 1).unwrap();
        assert_eq!(
            RoutingTable::up_down(&mesh(2, 2, 1.0), &many),
            Err(RoutingError::TooLarge {
                nodes: 4,
                channels: MAX_CHANNELS + 1
            })
        );
        assert!(std::panic::catch_unwind(|| RoutingTable::xy(MAX_NODES + 1, 1)).is_err());
        assert!(std::panic::catch_unwind(|| RoutingTable::xy(usize::MAX, 2)).is_err());
    }

    #[test]
    fn single_node_routes_locally() {
        let topo = Topology::new(
            vec![crate::node::Position::new(0.0, 0.0)],
            crate::topology::TopologyKind::Custom,
        );
        let t = RoutingTable::up_down(&topo, &WirelessOverlay::none()).unwrap();
        assert_eq!(t.next_hop(NodeId(0), Phase::Up, NodeId(0)).hop, Hop::Local);
    }
}
