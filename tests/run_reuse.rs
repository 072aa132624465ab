//! The evaluation computes each distinct run once: the `nvfi` run is the
//! design flow's own profiling run, and the `vfi-mesh` run is the
//! `vfi1-mesh` run relabelled when the bottleneck reassignment changed
//! nothing. Both shortcuts must be invisible: every reused report equals a
//! fresh `run_system` of its variant's spec in every field, label
//! included, with every `f64` compared on its `to_bits()`.

use mapwave::orchestrator::{vfi_mesh_is_vfi1, RunVariant};
use mapwave::prelude::*;
use mapwave::system::{run_system, RunReport};
use mapwave_noc::stats::NetworkStats;
use mapwave_noc::{NodeId, TrafficMatrix};
use mapwave_phoenix::apps::App;
use mapwave_phoenix::workload::{ExecutionReport, PhaseBreakdown};

/// Every field of a report as `(name, bits)` pairs, so a mismatch names
/// the field that differs.
fn fields(r: &RunReport) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut f = |name: &str, x: f64| out.push((name.to_string(), x.to_bits()));
    f("exec_seconds", r.exec_seconds);
    f("core_energy_j", r.core_energy_j);
    f("net_energy_j", r.net_energy_j);
    f("edp", r.edp);
    exec_fields(&mut out, &r.exec);
    net_fields(&mut out, "net", &r.net);
    out.push(("net_by_phase.len".into(), r.net_by_phase.len() as u64));
    for (i, (kind, stats)) in r.net_by_phase.iter().enumerate() {
        out.push((format!("net_by_phase[{i}].kind {kind:?}"), i as u64));
        net_fields(&mut out, &format!("net_by_phase[{i}]"), stats);
    }
    out
}

fn phase_fields(out: &mut Vec<(String, u64)>, name: &str, p: &PhaseBreakdown) {
    for (stage, x) in [
        ("lib_init", p.lib_init),
        ("map", p.map),
        ("reduce", p.reduce),
        ("merge", p.merge),
    ] {
        out.push((format!("{name}.{stage}"), x.to_bits()));
    }
}

fn matrix_fields(out: &mut Vec<(String, u64)>, name: &str, m: &TrafficMatrix) {
    let n = m.len();
    out.push((format!("{name}.len"), n as u64));
    for s in 0..n {
        for d in 0..n {
            let rate = m.rate(NodeId(s), NodeId(d));
            out.push((format!("{name}[{s}][{d}]"), rate.to_bits()));
        }
    }
}

fn exec_fields(out: &mut Vec<(String, u64)>, e: &ExecutionReport) {
    out.push((format!("exec.name {}", e.name), 0));
    phase_fields(out, "exec.phases", &e.phases);
    out.push(("exec.cores".into(), e.busy_cycles.len() as u64));
    for (c, (&b, &u)) in e.busy_cycles.iter().zip(&e.utilization).enumerate() {
        out.push((format!("exec.busy_cycles[{c}]"), b.to_bits()));
        out.push((format!("exec.utilization[{c}]"), u.to_bits()));
    }
    out.push(("exec.steals".into(), e.steals));
    for (c, &t) in e.tasks_per_core.iter().enumerate() {
        out.push((format!("exec.tasks_per_core[{c}]"), u64::from(t)));
    }
    matrix_fields(out, "exec.traffic", &e.traffic);
}

fn net_fields(out: &mut Vec<(String, u64)>, name: &str, s: &NetworkStats) {
    let mut u = |field: &str, x: u64| out.push((format!("{name}.{field}"), x));
    u("cycles", s.cycles);
    u("packets_injected", s.packets_injected);
    u("packets_delivered", s.packets_delivered);
    u("flits_delivered", s.flits_delivered);
    u("latency_sum", s.latency_sum);
    u("max_latency", s.max_latency);
    u("wireless_flit_hops", s.wireless_flit_hops);
    u("wire_flit_hops", s.wire_flit_hops);
    u("adaptive_flit_hops", s.adaptive_flit_hops);
    u("energy.switch_pj", s.energy.switch_pj.to_bits());
    u("energy.wire_pj", s.energy.wire_pj.to_bits());
    u("energy.wireless_pj", s.energy.wireless_pj.to_bits());
    u("in_flight_at_end", s.in_flight_at_end);
    u("latency_histogram.len", s.latency_histogram.len() as u64);
    for (i, &count) in s.latency_histogram.iter().enumerate() {
        u(&format!("latency_histogram[{i}]"), count);
    }
    u("link_loads.len", s.link_loads.len() as u64);
    for (i, l) in s.link_loads.iter().enumerate() {
        u(&format!("link_loads[{i}].from"), l.from.index() as u64);
        u(&format!("link_loads[{i}].to"), l.to.index() as u64);
        u(&format!("link_loads[{i}].flits"), l.flits);
    }
}

fn assert_same(what: &str, got: &RunReport, fresh: &RunReport) {
    assert_eq!(got.label, fresh.label, "{what}: label");
    let (a, b) = (fields(got), fields(fresh));
    assert_eq!(a.len(), b.len(), "{what}: report shape");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x, y, "{what}: field differs");
    }
}

#[test]
fn reused_runs_equal_fresh_runs() {
    let cfg = PlatformConfig::small().with_scale(0.002).with_seed(21);
    let ctx = ExperimentContext::new(cfg).expect("valid config");
    let flow = ctx.flow();
    let (mut reused, mut rerun) = (0, 0);
    for app in App::ALL {
        let design = ctx.design(app);
        let runs = ctx.runs(app);
        let cfg = flow.config();

        let nvfi = run_system(&flow.nvfi_spec(), &design.workload, cfg, flow.power());
        assert_same(&format!("{app}/nvfi"), &runs.nvfi, &nvfi);

        let spec = RunVariant::VfiMesh.spec(flow, design);
        let vfi_mesh = run_system(&spec, &design.workload, cfg, flow.power());
        assert_same(&format!("{app}/vfi-mesh"), &runs.vfi_mesh, &vfi_mesh);

        if vfi_mesh_is_vfi1(design) {
            reused += 1;
        } else {
            rerun += 1;
        }
    }
    // Both branches of the `vfi-mesh` job ran: an always-reuse (or
    // never-reuse) shortcut cannot pass.
    assert!(reused > 0, "no application kept its VFI 1 assignment");
    assert!(rerun > 0, "every application kept its VFI 1 assignment");
}
