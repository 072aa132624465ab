//! Relaxation windows simulated on worker lanes (`sim_threads > 1`) must
//! reach the telemetry store exactly like the serial path: the same NoC
//! counter deltas and the same number of `noc.sim.run` spans. Each lane
//! flushes before its scoped thread is joined, so nothing depends on when
//! the thread-local store is torn down.
//!
//! Kept to a single `#[test]` on purpose: the telemetry store is
//! process-global, and a lone test per binary keeps the deltas exact.

use mapwave::prelude::*;
use mapwave_harness::telemetry;
use mapwave_phoenix::apps::App;

#[test]
fn lane_windows_report_the_same_noc_telemetry_as_the_serial_path() {
    let cfg = PlatformConfig::small().with_scale(0.002);
    let flow = DesignFlow::new(cfg.clone()).unwrap();
    let d = flow.design(App::WordCount);
    let spec = flow.winoc_spec(&d, PlacementStrategy::MinHopCount);

    telemetry::enable();
    let measure = |threads: usize| {
        let cfg = cfg.clone().with_sim_threads(threads);
        let before = telemetry::snapshot();
        run_system(&spec, &d.workload, &cfg, flow.power());
        let after = telemetry::snapshot();
        let deltas = [
            "noc.cycles_simulated",
            "noc.flits_delivered",
            "noc.packets_delivered",
        ]
        .map(|c| after.counter(c) - before.counter(c));
        let spans =
            after.spans_named("noc.sim.run").count() - before.spans_named("noc.sim.run").count();
        (deltas, spans)
    };
    let serial = measure(1);
    let lanes = measure(3);
    telemetry::disable();

    assert!(serial.1 > 0, "the serial run must simulate windows");
    assert!(serial.0[1] > 0, "the serial run must deliver flits");
    assert_eq!(lanes, serial, "lane telemetry drifted from the serial path");
}
