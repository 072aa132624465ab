//! Switch microarchitecture state: ports, virtual-channel buffers, wormhole
//! bindings.
//!
//! Port numbering at each switch is fixed and deterministic:
//!
//! * port 0 — the local core (injection on the input side, ejection on the
//!   output side);
//! * ports `1..=degree` — one per wired neighbour, in sorted neighbour
//!   order;
//! * port `degree + 1` — the wireless port, present only on switches that
//!   carry a wireless interface.
//!
//! Every input port holds one FIFO per **virtual channel**. With a single
//! VC this is the paper's plain wormhole router; with more, VC 0 is the
//! deadlock-free *escape* channel (up\*/down\* routed) and the upper VCs
//! carry minimally-adaptive traffic (see [`crate::sim`]).
//!
//! Both [`PortMap`] and [`FabricState`] use flat contiguous storage: the
//! port map is a CSR-style table over all ports of all switches (peer and
//! reverse-port precomputed per wired port), and the dynamic state of
//! *every* switch in the network — input FIFO rings, wormhole bindings,
//! output ownership, arbitration pointers — lives in a handful of
//! network-global arrays indexed by global `(switch, port, vc)` slot. The
//! simulator's inner loop indexes these directly instead of chasing nested
//! vectors, and a cross-switch access (the downstream credit check on every
//! hop) lands in the same few arrays as the local state.

use crate::flit::{Flit, FlitKind};
use crate::node::NodeId;
use crate::routing::Phase;
use crate::topology::wireless::WirelessOverlay;
use crate::topology::Topology;

/// Index of the local (core) port on every switch.
pub const PORT_LOCAL: usize = 0;

/// Most input slots (ports × VCs) one switch may have: each switch's
/// occupancy and binding state is one `u64` bitmask.
pub const MAX_SWITCH_SLOTS: usize = 64;

/// Sentinel for ports with no wired peer (local, wireless).
const NO_PEER: u32 = u32::MAX;

/// Static port layout of every switch in a network, stored CSR-style: the
/// ports of switch `v` occupy the flat index range `base[v]..base[v + 1]`,
/// and per-port arrays (`peer`, `peer_port`) are indexed by
/// [`PortMap::flat_index`]. Wired ports carry their peer switch *and* the
/// peer's reverse port, so the simulator never scans neighbour lists.
#[derive(Debug, Clone)]
pub struct PortMap {
    /// CSR offsets: ports of switch `v` are `base[v]..base[v + 1]`.
    base: Vec<u32>,
    /// Peer switch behind each port ([`NO_PEER`] for local/wireless).
    peer: Vec<u32>,
    /// Port index at the peer that faces back ([`NO_PEER`] for non-wire).
    peer_port: Vec<u32>,
    /// Wireless port index per switch ([`NO_PEER`] when the switch has no
    /// wireless interface).
    wireless: Vec<u32>,
}

impl PortMap {
    /// Builds the port layout for `topo` with `overlay`.
    pub fn new(topo: &Topology, overlay: &WirelessOverlay) -> Self {
        let n = topo.len();
        let mut base = Vec::with_capacity(n + 1);
        base.push(0u32);
        let mut peer = Vec::new();
        let mut peer_port = Vec::new();
        let mut wireless = Vec::with_capacity(n);
        for v in topo.nodes() {
            let neigh = topo.neighbors(v);
            peer.push(NO_PEER); // local port
            peer_port.push(NO_PEER);
            for &w in neigh {
                let back = topo
                    .neighbors(w)
                    .binary_search(&v)
                    .expect("links are undirected")
                    + 1;
                peer.push(w.index() as u32);
                peer_port.push(back as u32);
            }
            if overlay.is_wi(v) {
                wireless.push(neigh.len() as u32 + 1);
                peer.push(NO_PEER);
                peer_port.push(NO_PEER);
            } else {
                wireless.push(NO_PEER);
            }
            base.push(peer.len() as u32);
        }
        PortMap {
            base,
            peer,
            peer_port,
            wireless,
        }
    }

    /// Number of ports at `v` (local + wires + wireless if present).
    pub fn port_count(&self, v: NodeId) -> usize {
        (self.base[v.index() + 1] - self.base[v.index()]) as usize
    }

    /// Flat index of port `p` at `v` into CSR-aligned per-port tables.
    #[inline]
    pub fn flat_index(&self, v: NodeId, p: usize) -> usize {
        self.base[v.index()] as usize + p
    }

    /// Total number of ports over all switches (the length of CSR-aligned
    /// per-port tables).
    pub fn total_ports(&self) -> usize {
        *self.base.last().expect("base is nonempty") as usize
    }

    /// Port at `v` that faces wired neighbour `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a neighbour of `v`.
    pub fn wire_port(&self, v: NodeId, w: NodeId) -> usize {
        let s = self.base[v.index()] as usize;
        let degree = self.port_count(v) - 1 - usize::from(self.wireless[v.index()] != NO_PEER);
        // Wired peers occupy ports 1..=degree in ascending id order.
        self.peer[s + 1..s + 1 + degree]
            .binary_search(&(w.index() as u32))
            .map(|pos| pos + 1)
            .unwrap_or_else(|_| panic!("{w} is not a wired neighbour of {v}"))
    }

    /// The neighbour behind wired port `p` of `v`, if `p` is a wired port.
    pub fn peer(&self, v: NodeId, p: usize) -> Option<NodeId> {
        if p == PORT_LOCAL || p >= self.port_count(v) {
            return None;
        }
        match self.peer[self.flat_index(v, p)] {
            NO_PEER => None,
            w => Some(NodeId(w as usize)),
        }
    }

    /// The peer switch and its reverse port behind wired port `p` of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a wired port of `v`.
    #[inline]
    pub fn wire_peer(&self, v: NodeId, p: usize) -> (NodeId, usize) {
        let i = self.flat_index(v, p);
        let w = self.peer[i];
        debug_assert_ne!(w, NO_PEER, "port {p} of {v} is not wired");
        (NodeId(w as usize), self.peer_port[i] as usize)
    }

    /// Wireless port index at `v`, if any.
    #[inline]
    pub fn wireless_port(&self, v: NodeId) -> Option<usize> {
        match self.wireless[v.index()] {
            NO_PEER => None,
            p => Some(p as usize),
        }
    }

    /// Switch radix at `v` (same as [`PortMap::port_count`]); used for
    /// energy accounting.
    pub fn radix(&self, v: NodeId) -> usize {
        self.port_count(v)
    }
}

/// Where a wormhole at an input VC is currently streaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutRoute {
    /// Output port reserved by the packet.
    pub out_port: usize,
    /// Receiving wireless interface for wireless output ports.
    pub wireless_to: Option<NodeId>,
    /// Downstream virtual channel the packet was allocated.
    pub down_vc: usize,
}

/// The input VC currently owning an output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Owner {
    /// Owning input port.
    pub in_port: usize,
    /// Owning input virtual channel.
    pub in_vc: usize,
}

/// Dynamic state of every switch in the network, stored in network-global
/// flat arrays. The input FIFO of `(switch v, port p, vc)` is **slot**
/// `sbase[v] + p * vcs + vc`, where `sbase` mirrors the [`PortMap`] CSR
/// offsets — so all per-slot metadata (`head`/`len`/`in_route`/`out_owner`)
/// for an 8×8 mesh fits in a few KiB of contiguous memory, and every flit
/// buffered anywhere in the fabric lives in one pooled ring array.
#[derive(Debug, Clone)]
pub struct FabricState {
    /// First slot of each switch (`n + 1` entries, CSR-style):
    /// `sbase[v] = port_base[v] * vcs`.
    sbase: Box<[u32]>,
    /// Pooled ring storage for every input FIFO in the network; slot `s`
    /// owns `flits[off[s]..off[s + 1]]`.
    flits: Box<[Flit]>,
    /// Ring region offsets per slot (`slots + 1` entries).
    off: Box<[u32]>,
    /// Ring read position per slot, relative to `off[s]`.
    head: Box<[u32]>,
    /// Flits currently queued per slot.
    len: Box<[u32]>,
    /// `ready_at` of the front flit per slot, `u64::MAX` when empty.
    /// Maintained on push/pop (a queued flit's `ready_at` is fixed at push
    /// time), so the per-cycle readiness scans touch one flat array
    /// instead of loading whole flits from the rings.
    front_ready: Box<[u64]>,
    /// Wormhole binding per input slot (set by the head, cleared by the
    /// tail), packed into 4 bytes each (see [`FabricState::in_route`]) so
    /// the per-cycle wormhole scans stay within one cache line per switch.
    /// Layout: bit 31 = bound, bits 26–30 = down VC, bits 16–25 = out
    /// port, bits 0–15 = wireless target node (`0xFFFF` = wired).
    in_route: Box<[u32]>,
    /// Which input VC owns each `(output port, downstream VC)` slot,
    /// packed as bit 31 = owned, bits 16–30 = input port, bits 0–15 =
    /// input VC. The physical port is time-multiplexed per flit between
    /// downstream VCs — per-VC ownership is what keeps a stalled adaptive
    /// wormhole from blocking the escape network on a shared link.
    out_owner: Box<[u32]>,
    /// Round-robin pointer for new-packet arbitration, per switch.
    pub rr_next: Box<[u32]>,
    /// Per-switch occupancy bitmask: bit `s - sbase[v]` is set iff slot
    /// `s` of switch `v` holds at least one flit. Maintained on the
    /// 0↔1 queue-length transitions of `push_back`/`pop_front`, so the
    /// per-cycle sweeps iterate set bits instead of probing every slot.
    occ: Box<[u64]>,
    /// Per-switch bound-slot bitmask, laid out like `occ`: bit set iff the
    /// slot has a wormhole binding (`in_route`). Maintained by
    /// `set_in_route`, so the switch passes can split the occupied slots
    /// into bound (continue) and unbound (route) ones.
    bound: Box<[u64]>,
    /// Owning switch of each slot (for the occupancy-bit updates).
    slot_sw: Box<[u32]>,
    vcs: usize,
}

/// Filler for unoccupied ring positions (never observed: `len` guards all
/// reads).
const PLACEHOLDER: Flit = Flit {
    kind: FlitKind::HeadTail,
    dest: NodeId(0),
    phase: Phase::Up,
    created: 0,
    ready_at: 0,
    wired_fallback: false,
};

impl FabricState {
    /// Creates the fabric state for `ports` with the given per-port
    /// (per-VC) FIFO capacities — `caps` is indexed by
    /// [`PortMap::flat_index`] — and `vcs` virtual channels per port.
    ///
    /// # Panics
    ///
    /// Panics if `vcs == 0`, `caps` doesn't cover every port, or a switch
    /// has more than [`MAX_SWITCH_SLOTS`] slots.
    pub fn new(ports: &PortMap, caps: &[usize], vcs: usize) -> Self {
        assert!(vcs > 0, "need at least one virtual channel");
        assert_eq!(caps.len(), ports.total_ports(), "one capacity per port");
        let slots = caps.len() * vcs;
        let switches = ports.base.len() - 1;
        let sbase: Box<[u32]> = ports.base.iter().map(|&b| b * vcs as u32).collect();
        let mut off = Vec::with_capacity(slots + 1);
        off.push(0u32);
        for &cap in caps {
            for _ in 0..vcs {
                off.push(off.last().unwrap() + cap as u32);
            }
        }
        let total = *off.last().unwrap() as usize;
        let mut slot_sw = vec![0u32; slots];
        for v in 0..switches {
            let (lo, hi) = (sbase[v] as usize, sbase[v + 1] as usize);
            assert!(
                hi - lo <= MAX_SWITCH_SLOTS,
                "switch {v} has {} slots, more than {MAX_SWITCH_SLOTS}",
                hi - lo
            );
            for s in slot_sw.iter_mut().take(hi).skip(lo) {
                *s = v as u32;
            }
        }
        FabricState {
            occ: vec![0; switches].into_boxed_slice(),
            bound: vec![0; switches].into_boxed_slice(),
            slot_sw: slot_sw.into_boxed_slice(),
            sbase,
            flits: vec![PLACEHOLDER; total].into_boxed_slice(),
            off: off.into_boxed_slice(),
            head: vec![0; slots].into_boxed_slice(),
            len: vec![0; slots].into_boxed_slice(),
            front_ready: vec![u64::MAX; slots].into_boxed_slice(),
            in_route: vec![0; slots].into_boxed_slice(),
            out_owner: vec![0; slots].into_boxed_slice(),
            rr_next: vec![0; switches].into_boxed_slice(),
            vcs,
        }
    }

    /// Number of virtual channels per port.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// First slot of switch `v`; port `p`, VC `c` of `v` is slot
    /// `switch_base(v) + p * vcs + c`.
    #[inline]
    pub fn switch_base(&self, v: NodeId) -> usize {
        self.sbase[v.index()] as usize
    }

    /// Global slot of `(v, port, vc)`.
    #[inline]
    pub fn slot(&self, v: NodeId, p: usize, vc: usize) -> usize {
        self.switch_base(v) + p * self.vcs + vc
    }

    /// The slot range owned by switch `v`.
    #[inline]
    pub fn slots_of(&self, v: NodeId) -> std::ops::Range<usize> {
        self.sbase[v.index()] as usize..self.sbase[v.index() + 1] as usize
    }

    /// Ring capacity of slot `s`.
    #[inline]
    fn cap(&self, s: usize) -> u32 {
        self.off[s + 1] - self.off[s]
    }

    /// The oldest flit queued in slot `s`, if any.
    #[inline(always)]
    pub fn front(&self, s: usize) -> Option<&Flit> {
        if self.len[s] == 0 {
            None
        } else {
            Some(&self.flits[(self.off[s] + self.head[s]) as usize])
        }
    }

    /// Appends `f` to slot `s`.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if the ring is full; callers check
    /// [`FabricState::space`] first.
    #[inline(always)]
    pub fn push_back(&mut self, s: usize, f: Flit) {
        let cap = self.cap(s);
        debug_assert!(self.len[s] < cap, "input FIFO overflow at slot {s}");
        let mut pos = self.head[s] + self.len[s];
        if pos >= cap {
            pos -= cap;
        }
        self.flits[(self.off[s] + pos) as usize] = f;
        self.len[s] += 1;
        if self.len[s] == 1 {
            self.front_ready[s] = f.ready_at;
            let sw = self.slot_sw[s] as usize;
            self.occ[sw] |= 1 << (s as u32 - self.sbase[sw]);
        }
    }

    /// Occupancy bitmask of switch `v`: bit `i` set iff slot
    /// `switch_base(v) + i` is nonempty.
    #[inline]
    pub fn occ_mask(&self, v: NodeId) -> u64 {
        self.occ[v.index()]
    }

    /// Bound-slot bitmask of switch `v`: bit `i` set iff slot
    /// `switch_base(v) + i` has a wormhole binding.
    #[inline]
    pub fn bound_mask(&self, v: NodeId) -> u64 {
        self.bound[v.index()]
    }

    /// Whether any slot of switch `v` holds a flit.
    #[inline(always)]
    pub fn holds_flits(&self, v: NodeId) -> bool {
        self.occ[v.index()] != 0
    }

    /// `ready_at` of the front flit in slot `s`, `u64::MAX` when empty.
    #[inline]
    pub fn front_ready(&self, s: usize) -> u64 {
        self.front_ready[s]
    }

    /// The wormhole binding of input slot `s`, if any.
    #[inline(always)]
    pub fn in_route(&self, s: usize) -> Option<OutRoute> {
        let w = self.in_route[s];
        if w & (1 << 31) == 0 {
            return None;
        }
        let wt = w & 0xFFFF;
        Some(OutRoute {
            out_port: ((w >> 16) & 0x3FF) as usize,
            wireless_to: (wt != 0xFFFF).then_some(NodeId(wt as usize)),
            down_vc: ((w >> 26) & 0x1F) as usize,
        })
    }

    /// Binds or clears the wormhole route of input slot `s`.
    #[inline(always)]
    pub fn set_in_route(&mut self, s: usize, route: Option<OutRoute>) {
        let sw = self.slot_sw[s] as usize;
        let bit = 1 << (s as u32 - self.sbase[sw]);
        if route.is_some() {
            self.bound[sw] |= bit;
        } else {
            self.bound[sw] &= !bit;
        }
        self.in_route[s] = match route {
            None => 0,
            Some(r) => {
                debug_assert!(r.out_port < (1 << 10) && r.down_vc < (1 << 5));
                let wt = r.wireless_to.map_or(0xFFFF, |w| {
                    debug_assert!(w.index() < 0xFFFF);
                    w.index() as u32
                });
                (1 << 31) | ((r.down_vc as u32) << 26) | ((r.out_port as u32) << 16) | wt
            }
        };
    }

    /// Whether `(output port, downstream VC)` slot `s` is owned by a
    /// wormhole.
    #[inline]
    pub fn out_owner_set(&self, s: usize) -> bool {
        self.out_owner[s] & (1 << 31) != 0
    }

    /// The input VC owning output slot `s`, if any.
    #[inline]
    pub fn out_owner(&self, s: usize) -> Option<Owner> {
        let w = self.out_owner[s];
        if w & (1 << 31) == 0 {
            return None;
        }
        Some(Owner {
            in_port: ((w >> 16) & 0x7FFF) as usize,
            in_vc: (w & 0xFFFF) as usize,
        })
    }

    /// Assigns or releases ownership of output slot `s`.
    #[inline(always)]
    pub fn set_out_owner(&mut self, s: usize, owner: Option<Owner>) {
        self.out_owner[s] = match owner {
            None => 0,
            Some(o) => {
                debug_assert!(o.in_port < (1 << 15) && o.in_vc < (1 << 16));
                (1 << 31) | ((o.in_port as u32) << 16) | o.in_vc as u32
            }
        };
    }

    /// Removes and returns the oldest flit queued in slot `s`.
    #[inline(always)]
    pub fn pop_front(&mut self, s: usize) -> Option<Flit> {
        if self.len[s] == 0 {
            return None;
        }
        let f = self.flits[(self.off[s] + self.head[s]) as usize];
        self.head[s] = if self.head[s] + 1 == self.cap(s) {
            0
        } else {
            self.head[s] + 1
        };
        self.len[s] -= 1;
        self.front_ready[s] = if self.len[s] == 0 {
            let sw = self.slot_sw[s] as usize;
            self.occ[sw] &= !(1 << (s as u32 - self.sbase[sw]));
            u64::MAX
        } else {
            self.flits[(self.off[s] + self.head[s]) as usize].ready_at
        };
        Some(f)
    }

    /// Free space in the input FIFO at slot `s` (its ring capacity is its
    /// credit limit).
    #[inline(always)]
    pub fn space(&self, s: usize) -> usize {
        (self.cap(s) - self.len[s]) as usize
    }

    /// Total flits buffered anywhere in the fabric.
    pub fn occupancy(&self) -> usize {
        self.len.iter().map(|&l| l as usize).sum()
    }

    /// Returns every switch to its power-on state (FIFOs emptied, wormhole
    /// bindings cleared; flit payloads are overwritten on reuse).
    pub fn reset(&mut self) {
        self.head.fill(0);
        self.len.fill(0);
        self.front_ready.fill(u64::MAX);
        self.in_route.fill(0);
        self.out_owner.fill(0);
        self.rr_next.fill(0);
        self.occ.fill(0);
        self.bound.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::mesh::mesh;
    use crate::topology::wireless::{ChannelId, WirelessInterface};

    fn overlay_at(node: usize) -> WirelessOverlay {
        WirelessOverlay::new(
            vec![WirelessInterface {
                node: NodeId(node),
                channel: ChannelId(0),
            }],
            1,
        )
        .unwrap()
    }

    #[test]
    fn port_map_mesh_corner() {
        let m = mesh(3, 3, 1.0);
        let pm = PortMap::new(&m, &WirelessOverlay::none());
        // Corner 0 has neighbours 1 and 3 -> ports 1 and 2 plus local.
        assert_eq!(pm.port_count(NodeId(0)), 3);
        assert_eq!(pm.wire_port(NodeId(0), NodeId(1)), 1);
        assert_eq!(pm.wire_port(NodeId(0), NodeId(3)), 2);
        assert_eq!(pm.peer(NodeId(0), 1), Some(NodeId(1)));
        assert_eq!(pm.peer(NodeId(0), 0), None);
        assert_eq!(pm.wireless_port(NodeId(0)), None);
    }

    #[test]
    fn port_map_with_wi() {
        let m = mesh(3, 3, 1.0);
        let pm = PortMap::new(&m, &overlay_at(4));
        // Centre has 4 neighbours, so wireless is port 5.
        assert_eq!(pm.wireless_port(NodeId(4)), Some(5));
        assert_eq!(pm.port_count(NodeId(4)), 6);
        assert_eq!(pm.radix(NodeId(4)), 6);
        // The wireless port has no wired peer.
        assert_eq!(pm.peer(NodeId(4), 5), None);
    }

    #[test]
    fn wire_peer_is_reverse_consistent() {
        let m = mesh(3, 3, 1.0);
        let pm = PortMap::new(&m, &WirelessOverlay::none());
        for v in m.nodes() {
            for &w in m.neighbors(v) {
                let p = pm.wire_port(v, w);
                let (peer, back) = pm.wire_peer(v, p);
                assert_eq!(peer, w);
                assert_eq!(back, pm.wire_port(w, v));
            }
        }
    }

    #[test]
    fn flat_indices_are_disjoint_per_switch() {
        let m = mesh(3, 3, 1.0);
        let pm = PortMap::new(&m, &overlay_at(4));
        let mut seen = vec![false; pm.total_ports()];
        for v in m.nodes() {
            for p in 0..pm.port_count(v) {
                let i = pm.flat_index(v, p);
                assert!(!seen[i], "flat index {i} reused");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic]
    fn wire_port_panics_for_non_neighbor() {
        let m = mesh(3, 3, 1.0);
        let pm = PortMap::new(&m, &WirelessOverlay::none());
        let _ = pm.wire_port(NodeId(0), NodeId(8));
    }

    fn fabric_for(
        overlay: &WirelessOverlay,
        vcs: usize,
        cap: usize,
        wi_cap: usize,
    ) -> (PortMap, FabricState) {
        let m = mesh(3, 3, 1.0);
        let pm = PortMap::new(&m, overlay);
        let mut caps = vec![cap; pm.total_ports()];
        for v in m.nodes() {
            if let Some(wp) = pm.wireless_port(v) {
                caps[pm.flat_index(v, wp)] = wi_cap;
            }
        }
        let f = FabricState::new(&pm, &caps, vcs);
        (pm, f)
    }

    #[test]
    fn fabric_space_per_vc() {
        let (pm, mut f) = fabric_for(&overlay_at(4), 2, 2, 8);
        assert_eq!(f.vcs(), 2);
        let wp = pm.wireless_port(NodeId(4)).unwrap();
        assert_eq!(f.space(f.slot(NodeId(4), wp, 0)), 8);
        assert_eq!(f.space(f.slot(NodeId(4), wp, 1)), 8);
        let slot = f.slot(NodeId(4), wp, 1);
        f.push_back(slot, crate::flit::flits_of(NodeId(1), 1, 0)[0]);
        assert_eq!(f.space(f.slot(NodeId(4), wp, 1)), 7);
        assert_eq!(f.space(f.slot(NodeId(4), wp, 0)), 8);
        assert_eq!(f.space(f.slot(NodeId(4), 1, 0)), 2);
        assert_eq!(f.occupancy(), 1);
        f.reset();
        assert_eq!(f.occupancy(), 0);
        assert_eq!(f.space(slot), 8);
    }

    #[test]
    fn fabric_slots_are_disjoint_and_csr_aligned() {
        let (pm, f) = fabric_for(&overlay_at(4), 2, 2, 8);
        let m = mesh(3, 3, 1.0);
        let mut end = 0;
        for v in m.nodes() {
            let r = f.slots_of(v);
            assert_eq!(r.start, end, "switch {v} slots are contiguous");
            assert_eq!(r.len(), pm.port_count(v) * f.vcs());
            assert_eq!(f.slot(v, 0, 0), r.start);
            end = r.end;
        }
    }

    #[test]
    fn ring_fifo_preserves_order_across_wraparound() {
        let (_, mut f) = fabric_for(&WirelessOverlay::none(), 1, 3, 3);
        let s = f.slot(NodeId(0), 1, 0);
        let mk = |i: u64| {
            let mut fl = crate::flit::flits_of(NodeId(1), 1, 0)[0];
            fl.created = i;
            fl
        };
        // Fill, drain partially, refill to force the ring to wrap.
        for i in 0..3 {
            f.push_back(s, mk(i));
        }
        assert_eq!(f.space(s), 0);
        assert_eq!(f.pop_front(s).unwrap().created, 0);
        assert_eq!(f.pop_front(s).unwrap().created, 1);
        f.push_back(s, mk(3));
        f.push_back(s, mk(4));
        for want in 2..5 {
            assert_eq!(f.front(s).unwrap().created, want);
            assert_eq!(f.pop_front(s).unwrap().created, want);
        }
        assert_eq!(f.pop_front(s), None);
        assert_eq!(f.occupancy(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_vcs_panics() {
        let m = mesh(3, 3, 1.0);
        let pm = PortMap::new(&m, &WirelessOverlay::none());
        let caps = vec![2; pm.total_ports()];
        let _ = FabricState::new(&pm, &caps, 0);
    }
}
