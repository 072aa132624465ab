//! [`NetworkSim`] against a naive reference simulator.
//!
//! `NetworkSim` earns its speed with exactness-preserving shortcuts: the
//! wake calendar and its live-word sweep, switch parking with wakes, the
//! idle jump to the first nonempty calendar bucket, shared per-speed clock
//! classes and the split occupancy-mask probes. The goldens pin a handful of
//! fabrics; this file keeps a simulator with none of those shortcuts and
//! compares the whole [`NetworkStats`] of both, bit for bit, on seeded
//! small fabrics.
//!
//! The reference clocks every switch on every cycle, each with its own
//! fractional clock, and draws injections with a per-cycle
//! [`Injector::sample`] scan. It routes from [`RoutingTable::try_entry`],
//! arbitrates wireless channels with [`ChannelMac`] and corrupts wireless
//! transfers with [`FaultPlan::link_corrupts`]. Everything else (port
//! layout, FIFOs, wormhole bindings, round-robin arbitration, adaptive
//! route choice, energy accounting) is written out here from the public
//! API alone.

use mapwave_faults::{FaultConfig, FaultPlan};
use mapwave_harness::rng::{RngExt, SeedableRng, StdRng};
use mapwave_noc::flit::{flit_sequence, Flit};
use mapwave_noc::mac::{macs_for, ChannelMac};
use mapwave_noc::node::grid_positions;
use mapwave_noc::routing::{Hop, Phase, RoutingTable};
use mapwave_noc::sim::{NetworkSim, NocFaultCounts, SimConfig};
use mapwave_noc::stats::{LinkLoad, LATENCY_BUCKETS};
use mapwave_noc::topology::mesh::mesh;
use mapwave_noc::topology::small_world::SmallWorldBuilder;
use mapwave_noc::topology::wireless::{ChannelId, WirelessInterface, WirelessOverlay};
use mapwave_noc::topology::Topology;
use mapwave_noc::traffic::Injector;
use mapwave_noc::{EnergyModel, NetworkStats, NodeId, TrafficMatrix};
use std::collections::VecDeque;

/// A route chosen for a head flit: output port, wireless target and the
/// downstream VC.
#[derive(Debug, Clone, Copy)]
struct Route {
    out: usize,
    to: Option<usize>,
    vc: usize,
}

/// The local (ejection) port.
const EJECT: Route = Route {
    out: 0,
    to: None,
    vc: 0,
};

/// One network and its simulation parameters.
struct Net {
    topo: Topology,
    overlay: WirelessOverlay,
    table: RoutingTable,
    cfg: SimConfig,
    speeds: Vec<f64>,
    domains: Vec<usize>,
    plan: Option<FaultPlan>,
}

/// The naive reference: nested per-switch state, every switch every cycle.
struct Reference<'a> {
    net: &'a Net,
    energy: EnergyModel,
    n: usize,
    /// Wired neighbours per switch (port `i + 1` faces `nbrs[v][i]`).
    nbrs: Vec<Vec<usize>>,
    /// Wireless port per switch.
    wport: Vec<Option<usize>>,
    /// Wireline hop distances (adaptive routing).
    hops: Vec<Vec<usize>>,
    /// Wireline-only up*/down* table of diverted packets (fault state is
    /// live only when a plan can corrupt links and WIs exist).
    fallback: Option<RoutingTable>,
    inject_vc: usize,

    /// Input FIFOs per `[switch][port][vc]`.
    buf: Vec<Vec<Vec<VecDeque<Flit>>>>,
    /// Wormhole binding per input `[switch][port][vc]`.
    bound: Vec<Vec<Vec<Option<Route>>>>,
    /// Ownership per output `[switch][port][downstream vc]`.
    owned: Vec<Vec<Vec<bool>>>,
    rr: Vec<usize>,
    clock: Vec<f64>,
    macs: Vec<ChannelMac>,
    src_q: Vec<VecDeque<Flit>>,
    attempts: Vec<u64>,
    consec: Vec<u32>,
    disabled: Vec<bool>,
    counts: NocFaultCounts,
    link_flits: Vec<Vec<u64>>,
    stats: NetworkStats,
    injected: u64,
    delivered: u64,
    now: u64,
    measure: (u64, u64),
}

impl<'a> Reference<'a> {
    fn new(net: &'a Net) -> Self {
        let n = net.topo.len();
        let nbrs: Vec<Vec<usize>> = net
            .topo
            .nodes()
            .map(|v| net.topo.neighbors(v).iter().map(|w| w.index()).collect())
            .collect();
        let wport: Vec<Option<usize>> = (0..n)
            .map(|v| net.overlay.is_wi(NodeId(v)).then(|| nbrs[v].len() + 1))
            .collect();
        let ports = |v: usize| nbrs[v].len() + 1 + usize::from(wport[v].is_some());
        let vcs = net.cfg.vcs;
        let fallback = net
            .plan
            .as_ref()
            .filter(|p| p.affects_noc() && !net.overlay.is_empty())
            .map(|_| RoutingTable::up_down(&net.topo, &WirelessOverlay::none()).unwrap());
        Reference {
            energy: EnergyModel::default_65nm(),
            n,
            hops: net.topo.hop_counts(),
            fallback,
            inject_vc: if net.cfg.adaptive { vcs - 1 } else { 0 },
            buf: (0..n)
                .map(|v| vec![vec![VecDeque::new(); vcs]; ports(v)])
                .collect(),
            bound: (0..n).map(|v| vec![vec![None; vcs]; ports(v)]).collect(),
            owned: (0..n).map(|v| vec![vec![false; vcs]; ports(v)]).collect(),
            rr: vec![0; n],
            clock: vec![0.0; n],
            macs: macs_for(&net.overlay),
            src_q: vec![VecDeque::new(); n],
            attempts: vec![0; net.overlay.channel_count()],
            consec: vec![0; n],
            disabled: vec![false; n],
            counts: NocFaultCounts::default(),
            link_flits: (0..n).map(|v| vec![0; ports(v)]).collect(),
            stats: NetworkStats::default(),
            injected: 0,
            delivered: 0,
            now: 0,
            measure: (0, 0),
            nbrs,
            wport,
            net,
        }
    }

    fn ports(&self, v: usize) -> usize {
        self.buf[v].len()
    }

    fn cap(&self, v: usize, p: usize) -> usize {
        if Some(p) == self.wport[v] {
            self.net.cfg.wi_buffer_depth
        } else {
            self.net.cfg.buffer_depth
        }
    }

    fn space(&self, v: usize, p: usize, vc: usize) -> usize {
        self.cap(v, p) - self.buf[v][p][vc].len()
    }

    fn measured(&self, f: &Flit) -> bool {
        f.created >= self.measure.0 && f.created < self.measure.1
    }

    fn run(
        mut self,
        traffic: &TrafficMatrix,
        warmup: u64,
        measure: u64,
        drain: u64,
    ) -> (NetworkStats, NocFaultCounts) {
        let end = warmup + measure;
        self.measure = (warmup, end);
        let injector = Injector::new(traffic);
        let mut rng = StdRng::seed_from_u64(self.net.cfg.seed);
        while self.now < end || (self.now < end + drain && self.delivered < self.injected) {
            if self.now < end {
                for s in 0..self.n {
                    if let Some(d) = injector.sample(NodeId(s), &mut rng) {
                        if d.index() != s {
                            if self.now >= warmup {
                                self.injected += 1;
                            }
                            let len = self.net.cfg.packet_len;
                            self.src_q[s].extend(flit_sequence(d, len, self.now));
                        }
                    }
                }
            }
            self.step();
        }
        let mut stats = std::mem::take(&mut self.stats);
        stats.cycles = measure;
        stats.packets_injected = self.injected;
        stats.in_flight_at_end = self.injected - self.delivered;
        for v in 0..self.n {
            for (i, &w) in self.nbrs[v].iter().enumerate() {
                let flits = self.link_flits[v][i + 1];
                if flits > 0 {
                    stats.link_loads.push(LinkLoad {
                        from: NodeId(v),
                        to: NodeId(w),
                        flits,
                    });
                }
            }
        }
        (stats, self.counts)
    }

    fn step(&mut self) {
        let now = self.now;
        for s in 0..self.n {
            if self.space(s, 0, self.inject_vc) > 0 {
                if let Some(mut f) = self.src_q[s].pop_front() {
                    f.ready_at = f.ready_at.max(now + self.net.cfg.router_delay);
                    self.buf[s][0][self.inject_vc].push_back(f);
                }
            }
        }
        let holders: Vec<Option<NodeId>> = self.macs.iter().map(ChannelMac::holder).collect();
        let mut used = vec![false; self.macs.len()];
        for v in 0..self.n {
            self.clock[v] += self.net.speeds[v];
            if self.clock[v] >= 1.0 {
                self.clock[v] -= 1.0;
                self.process(v, &holders, &mut used);
            }
        }
        for (c, mac) in self.macs.iter_mut().enumerate() {
            let holds = holders[c].is_some_and(|h| {
                let h = h.index();
                self.wport[h].is_some_and(|wp| self.owned[h][wp].iter().any(|&o| o))
            });
            mac.end_cycle(used[c], holds);
        }
        self.now += 1;
    }

    fn process(&mut self, v: usize, holders: &[Option<NodeId>], used: &mut [bool]) {
        let ports = self.ports(v);
        let vcs = self.net.cfg.vcs;
        let mut out_used = vec![false; ports];
        // Continue established wormholes, positionally.
        for p in 0..ports {
            for vc in 0..vcs {
                let Some(route) = self.bound[v][p][vc] else {
                    continue;
                };
                let ready = self.buf[v][p][vc]
                    .front()
                    .is_some_and(|f| f.ready_at <= self.now);
                if ready && !out_used[route.out] {
                    self.advance(v, p, vc, route, None, false, &mut out_used, holders, used);
                }
            }
        }
        // Route new heads, round-robin over ports from the pointer.
        let start = self.rr[v];
        for k in 0..ports {
            let p = (start + k) % ports;
            for vc in 0..vcs {
                if self.bound[v][p][vc].is_some() {
                    continue;
                }
                let Some(&f) = self.buf[v][p][vc].front() else {
                    continue;
                };
                if f.ready_at > self.now || !f.kind.is_head() {
                    continue;
                }
                let (route, phase, divert) = self.route(v, vc, &f, &out_used);
                if out_used[route.out] || self.owned[v][route.out][route.vc] {
                    continue;
                }
                if self.advance(v, p, vc, route, phase, divert, &mut out_used, holders, used) {
                    self.rr[v] = (p + 1) % ports;
                }
            }
        }
    }

    /// The table route of `(v, phase) → dest` in `table`.
    fn table_route(
        &self,
        table: &RoutingTable,
        v: usize,
        phase: Phase,
        dest: NodeId,
    ) -> (Route, Phase) {
        let e = table
            .try_entry(NodeId(v), phase, dest)
            .expect("reachable routing state");
        let route = match e.hop {
            Hop::Local => EJECT,
            Hop::Wire(w) => Route {
                out: self.nbrs[v].binary_search(&w.index()).unwrap() + 1,
                to: None,
                vc: 0,
            },
            Hop::Wireless { to, .. } => Route {
                out: self.wport[v].expect("wireless hop from a WI"),
                to: Some(to.index()),
                vc: 0,
            },
        };
        (route, e.next_phase)
    }

    fn route(
        &self,
        v: usize,
        vc: usize,
        f: &Flit,
        out_used: &[bool],
    ) -> (Route, Option<Phase>, bool) {
        if f.dest.index() == v {
            return (EJECT, None, false);
        }
        if vc == 0 || !self.net.cfg.adaptive {
            // A diverted packet stays on the wireline tree; a packet whose
            // wireless hop starts at a disabled WI diverts onto it here,
            // restarting its phase.
            let table = match &self.fallback {
                Some(fb) if f.wired_fallback => fb,
                _ => &self.net.table,
            };
            let (r, np) = self.table_route(table, v, f.phase, f.dest);
            if let Some(fb) = self.fallback.as_ref().filter(|_| r.to.is_some()) {
                if self.disabled[v] {
                    let (r, np) = self.table_route(fb, v, Phase::Up, f.dest);
                    return (r, Some(np), true);
                }
            }
            return (r, Some(np), false);
        }
        // Minimal adaptive: the strictly closer wired neighbour whose free
        // adaptive VC has the most space (lowest port, then lowest VC, on
        // ties); the escape tree from phase Up when none has room.
        let d = f.dest.index();
        let mut best: Option<(usize, Route)> = None;
        for (i, &w) in self.nbrs[v].iter().enumerate() {
            let o = i + 1;
            if self.hops[w][d] >= self.hops[v][d] || out_used[o] {
                continue;
            }
            let wp = self.nbrs[w].binary_search(&v).unwrap() + 1;
            let mut pick: Option<(usize, usize)> = None;
            for c in 1..self.net.cfg.vcs {
                if self.owned[v][o][c] {
                    continue;
                }
                let s = self.space(w, wp, c);
                if pick.is_none_or(|(_, ps)| s > ps) {
                    pick = Some((c, s));
                }
            }
            let Some((c, s)) = pick else { continue };
            if s > 0 && best.is_none_or(|(bs, _)| s > bs) {
                best = Some((
                    s,
                    Route {
                        out: o,
                        to: None,
                        vc: c,
                    },
                ));
            }
        }
        match best {
            Some((_, r)) => (r, None, false),
            None => {
                let (r, np) = self.table_route(&self.net.table, v, Phase::Up, f.dest);
                (r, Some(np), false)
            }
        }
    }

    /// Moves the front flit of input `(p, vc)` at `v` along `route` when
    /// the downstream buffer (and, for wireless, the token) allows.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &mut self,
        v: usize,
        p: usize,
        vc: usize,
        route: Route,
        phase: Option<Phase>,
        divert: bool,
        out_used: &mut [bool],
        holders: &[Option<NodeId>],
        used: &mut [bool],
    ) -> bool {
        let mut f = *self.buf[v][p][vc].front().unwrap();
        let measured = self.measured(&f);
        let o = route.out;
        let hop = if o == 0 {
            None
        } else if Some(o) == self.wport[v] {
            let to = route.to.unwrap();
            let ch = self.net.overlay.channel_of(NodeId(v)).unwrap().index();
            if holders[ch] != Some(NodeId(v)) || used[ch] {
                return false;
            }
            let tp = self.wport[to].unwrap();
            if self.space(to, tp, route.vc) == 0 {
                return false;
            }
            if self.fallback.is_some() {
                let plan = self.net.plan.as_ref().unwrap();
                let attempt = self.attempts[ch];
                self.attempts[ch] += 1;
                if plan.link_corrupts(ch, attempt) {
                    self.counts.flit_corruptions += 1;
                    self.consec[v] += 1;
                    if self.consec[v] >= plan.wi_fallback_threshold() && !self.disabled[v] {
                        self.disabled[v] = true;
                        self.counts.wi_fallbacks += 1;
                    }
                    used[ch] = true;
                    if measured {
                        self.stats.energy.wireless_pj += self.energy.wireless_energy_pj();
                    }
                    return false;
                }
                self.consec[v] = 0;
            }
            Some((to, tp, Some(ch), self.energy.wireless_energy_pj()))
        } else {
            let w = self.nbrs[v][o - 1];
            let wp = self.nbrs[w].binary_search(&v).unwrap() + 1;
            if self.space(w, wp, route.vc) == 0 {
                return false;
            }
            let pj = self
                .energy
                .wire_energy_pj(self.net.topo.link_length_mm(NodeId(v), NodeId(w)));
            Some((w, wp, None, pj))
        };
        self.buf[v][p][vc].pop_front();
        if let Some(ph) = phase {
            f.phase = ph;
        }
        f.wired_fallback |= divert;
        if measured {
            self.stats.energy.switch_pj += self.energy.switch_energy_pj(self.ports(v));
        }
        match hop {
            None => {
                if measured {
                    self.stats.flits_delivered += 1;
                    if f.kind.is_tail() {
                        let latency = self.now + 1 - f.created;
                        self.stats.packets_delivered += 1;
                        self.stats.latency_sum += latency;
                        self.stats.max_latency = self.stats.max_latency.max(latency);
                        if self.stats.latency_histogram.is_empty() {
                            self.stats.latency_histogram = vec![0; LATENCY_BUCKETS];
                        }
                        let bucket = (latency.max(1).ilog2() as usize).min(LATENCY_BUCKETS - 1);
                        self.stats.latency_histogram[bucket] += 1;
                        self.delivered += 1;
                    }
                }
            }
            Some((w, wp, channel, pj)) => {
                let cross = self.net.domains[v] != self.net.domains[w];
                let penalty = if cross { self.net.cfg.sync_penalty } else { 0 };
                f.ready_at = self.now + 1 + self.net.cfg.router_delay + penalty;
                if measured {
                    if channel.is_some() {
                        self.stats.energy.wireless_pj += pj;
                        self.stats.wireless_flit_hops += 1;
                    } else {
                        self.stats.energy.wire_pj += pj;
                        self.stats.wire_flit_hops += 1;
                        if route.vc > 0 {
                            self.stats.adaptive_flit_hops += 1;
                        }
                        self.link_flits[v][o] += 1;
                    }
                }
                if let Some(ch) = channel {
                    used[ch] = true;
                }
                self.buf[w][wp][route.vc].push_back(f);
            }
        }
        out_used[o] = true;
        if f.kind.is_tail() {
            self.bound[v][p][vc] = None;
            self.owned[v][o][route.vc] = false;
        } else if f.kind.is_head() {
            self.bound[v][p][vc] = Some(route);
            self.owned[v][o][route.vc] = true;
        }
        true
    }
}

/// Asserts that every field of `got` equals `want`, f64 fields by bit
/// pattern.
fn assert_same_stats(got: &NetworkStats, want: &NetworkStats, case: &str) {
    let ints = |s: &NetworkStats| {
        [
            s.cycles,
            s.packets_injected,
            s.packets_delivered,
            s.flits_delivered,
            s.latency_sum,
            s.max_latency,
            s.wireless_flit_hops,
            s.wire_flit_hops,
            s.adaptive_flit_hops,
            s.in_flight_at_end,
        ]
    };
    let bits = |s: &NetworkStats| {
        [
            s.energy.switch_pj.to_bits(),
            s.energy.wire_pj.to_bits(),
            s.energy.wireless_pj.to_bits(),
        ]
    };
    assert_eq!(ints(got), ints(want), "{case}: counters");
    assert_eq!(bits(got), bits(want), "{case}: energy bits");
    assert_eq!(
        got.latency_histogram, want.latency_histogram,
        "{case}: histogram"
    );
    assert_eq!(got.link_loads, want.link_loads, "{case}: link loads");
    assert_eq!(got.digest(), want.digest(), "{case}: digest");
}

/// Runs `net` through `NetworkSim` and the reference and compares them.
/// Returns the simulator's statistics.
fn check(net: &Net, traffic: &TrafficMatrix, window: (u64, u64, u64), case: &str) -> NetworkStats {
    let (warmup, measure, drain) = window;
    let mut sim = NetworkSim::with_clocks_borrowed(
        &net.topo,
        &net.overlay,
        &net.table,
        EnergyModel::default_65nm(),
        net.cfg.clone(),
        net.speeds.clone(),
        net.domains.clone(),
    )
    .unwrap_or_else(|e| panic!("{case}: {e}"));
    if let Some(plan) = &net.plan {
        sim.set_faults(plan);
    }
    let got = sim.run(traffic, warmup, measure, drain).clone();
    let (want, counts) = Reference::new(net).run(traffic, warmup, measure, drain);
    assert_same_stats(&got, &want, case);
    assert_eq!(sim.fault_counts(), counts, "{case}: fault counts");
    got
}

/// Seeded random WIs on `channels` channels, dealt round-robin so that
/// channels have two or more members wherever the fabric has room.
fn random_overlay(rng: &mut StdRng, n: usize, channels: usize) -> WirelessOverlay {
    let wis = (2 * channels + rng.random_range(0..3usize)).min(n);
    let mut nodes: Vec<usize> = (0..n).collect();
    for i in 0..wis {
        let j = rng.random_range(i..n);
        nodes.swap(i, j);
    }
    WirelessOverlay::new(
        (0..wis)
            .map(|i| WirelessInterface {
                node: NodeId(nodes[i]),
                channel: ChannelId(i % channels),
            })
            .collect(),
        channels,
    )
    .unwrap()
}

/// A seeded random case: fabric, router parameters, clocks, faults, load
/// and window.
fn random_case(seed: u64) -> (Net, TrafficMatrix, (u64, u64, u64)) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (topo, overlay, table) = match rng.random_range(0..4u32) {
        0 => {
            let (cols, rows) = (rng.random_range(2..5usize), rng.random_range(2..5usize));
            (
                mesh(cols, rows, 2.5),
                WirelessOverlay::none(),
                RoutingTable::xy(cols, rows),
            )
        }
        kind => {
            let topo = match kind {
                1 => {
                    let (cols, rows) = (rng.random_range(2..5usize), rng.random_range(2..5usize));
                    mesh(cols, rows, 2.5)
                }
                2 => {
                    let clusters = (0..16).map(|i| (i % 4) / 2 + 2 * ((i / 4) / 2)).collect();
                    SmallWorldBuilder::new(grid_positions(4, 4, 2.5), clusters)
                        .alpha(1.0 + rng.random::<f64>())
                        .seed(rng.random_range(0..1000u64))
                        .build()
                        .unwrap()
                }
                // A ring's up*/down* routes detour through the root, so its
                // wireless shortcuts carry much of the traffic.
                _ => Topology::ring(rng.random_range(6..17usize), 2.5),
            };
            let channels = rng.random_range(0..8usize).min(3);
            let overlay = if channels == 0 {
                WirelessOverlay::none()
            } else {
                random_overlay(&mut rng, topo.len(), channels)
            };
            let weight = rng.random_range(1..3u32);
            let table = RoutingTable::up_down_weighted(&topo, &overlay, weight).unwrap();
            (topo, overlay, table)
        }
    };
    let n = topo.len();
    let vcs = rng.random_range(1..3usize);
    let cfg = SimConfig {
        buffer_depth: rng.random_range(1..4usize),
        wi_buffer_depth: rng.random_range(1..9usize),
        packet_len: rng.random_range(1..7usize),
        // Wake calendars of 2 to 16 buckets, so short windows wrap the
        // wheel many times.
        sync_penalty: rng.random_range(0..5u64),
        router_delay: rng.random_range(0..10u64),
        vcs,
        adaptive: vcs == 2 && rng.random::<f64>() < 0.7,
        seed: rng.random_range(0..10_000u64),
    };
    let domain_count = rng.random_range(1..4usize);
    let domains: Vec<usize> = (0..n).map(|_| rng.random_range(0..domain_count)).collect();
    let menu = [1.0, 0.9, 0.75, 0.6, 0.5, 0.3];
    let domain_speed: Vec<f64> = (0..domain_count)
        .map(|_| menu[rng.random_range(0..menu.len())])
        .collect();
    let speeds = domains.iter().map(|&d| domain_speed[d]).collect();
    let plan = (!overlay.is_empty() && rng.random::<f64>() < 0.4).then(|| {
        let mut fc = FaultConfig::at_rate(rng.random::<f64>() * 0.6, rng.random_range(0..100u64));
        fc.wi_fallback_threshold = rng.random_range(1..5u32);
        FaultPlan::build(&fc)
    });
    // Loads from idle to saturation.
    let rate = match rng.random_range(0..10u32) {
        0 => 0.0,
        1..=3 => 0.002 + 0.02 * rng.random::<f64>(),
        4..=6 => 0.02 + 0.1 * rng.random::<f64>(),
        _ => 0.1 + 0.5 * rng.random::<f64>(),
    };
    let traffic = match rng.random_range(0..4u32) {
        0 => TrafficMatrix::bit_complement(n, rate),
        1 => TrafficMatrix::hotspot(n, rate / 2.0, NodeId(rng.random_range(0..n)), rate),
        _ => TrafficMatrix::uniform(n, rate),
    };
    let window = (
        rng.random_range(0..61u64),
        rng.random_range(50..301u64),
        // Mostly a full drain; sometimes a budget that cuts it short.
        if rng.random::<f64>() < 0.8 {
            20_000
        } else {
            rng.random_range(0..200u64)
        },
    );
    let net = Net {
        topo,
        overlay,
        table,
        cfg,
        speeds,
        domains,
        plan,
    };
    (net, traffic, window)
}

#[test]
fn network_sim_matches_reference_on_random_fabrics() {
    for seed in 0..400u64 {
        let (net, traffic, window) = random_case(seed);
        let case = format!(
            "case {seed}: n={} wis={} vcs={} adaptive={} faults={} rate={:.4} window={window:?}",
            net.topo.len(),
            net.overlay.len(),
            net.cfg.vcs,
            net.cfg.adaptive,
            net.plan.is_some(),
            traffic.total_rate() / net.topo.len() as f64,
        );
        check(&net, &traffic, window, &case);
    }
}

/// Saturated 2×2 XY meshes whose drains stall with FIFO fronts still inside
/// a router pipeline, behind a clock that sat out or behind an earlier
/// front. XY routing is deadlock-free, so each must also deliver every
/// measured packet.
#[test]
fn saturated_xy_mesh_drains_match_reference() {
    struct Case {
        rate: f64,
        buffer_depth: usize,
        packet_len: usize,
        sync_penalty: u64,
        router_delay: u64,
        seed: u64,
        speeds: Vec<f64>,
    }
    let cases = [
        Case {
            rate: 0.4968404731215155,
            buffer_depth: 2,
            packet_len: 7,
            sync_penalty: 2,
            router_delay: 4,
            seed: 217,
            speeds: vec![1.0; 4],
        },
        Case {
            rate: 0.2840932020153178,
            buffer_depth: 1,
            packet_len: 2,
            sync_penalty: 2,
            router_delay: 3,
            seed: 118,
            speeds: vec![1.0; 4],
        },
        Case {
            rate: 0.45868755193064126,
            buffer_depth: 1,
            packet_len: 5,
            sync_penalty: 0,
            router_delay: 3,
            seed: 431,
            speeds: vec![0.5, 0.3, 0.75, 0.5],
        },
    ];
    for (i, c) in cases.into_iter().enumerate() {
        let net = Net {
            topo: mesh(2, 2, 1.0),
            overlay: WirelessOverlay::none(),
            table: RoutingTable::xy(2, 2),
            cfg: SimConfig {
                buffer_depth: c.buffer_depth,
                packet_len: c.packet_len,
                sync_penalty: c.sync_penalty,
                router_delay: c.router_delay,
                seed: c.seed,
                ..SimConfig::default()
            },
            speeds: c.speeds,
            domains: (0..4).map(|v| v % 3).collect(),
            plan: None,
        };
        let traffic = TrafficMatrix::uniform(4, c.rate);
        let stats = check(&net, &traffic, (50, 400, 5_000_000), &format!("case {i}"));
        assert!(stats.packets_injected > 0, "case {i}");
        assert_eq!(stats.in_flight_at_end, 0, "case {i}");
        assert_eq!(stats.packets_delivered, stats.packets_injected, "case {i}");
    }
}

/// Switch 0 of a 2×2 XY mesh ejects the traffic of switches 1 and 3, one
/// flit per cycle, through single-flit input buffers. Switch 1 blocks on
/// switch 0's full input and parks; when switch 0 pops that input, it
/// rearms switch 1 for the same cycle, and the sweep must still process it
/// — a higher-numbered switch in the bucket word it is walking.
#[test]
fn same_cycle_rearm_of_higher_parked_switch_matches_reference() {
    let mut traffic = TrafficMatrix::zeros(4);
    traffic.set(NodeId(1), NodeId(0), 0.4);
    traffic.set(NodeId(3), NodeId(0), 0.4);
    let net = Net {
        topo: mesh(2, 2, 1.0),
        overlay: WirelessOverlay::none(),
        table: RoutingTable::xy(2, 2),
        cfg: SimConfig {
            buffer_depth: 1,
            packet_len: 3,
            sync_penalty: 0,
            router_delay: 0,
            seed: 5,
            ..SimConfig::default()
        },
        speeds: vec![1.0; 4],
        domains: vec![0; 4],
        plan: None,
    };
    let stats = check(&net, &traffic, (20, 300, 20_000), "same-cycle rearm");
    assert!(stats.packets_delivered > 0);
    assert_eq!(stats.in_flight_at_end, 0);
}
