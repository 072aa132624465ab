//! Layer attribution of a traced repetition: self time per span (a span's
//! duration minus the part its child spans cover), folded into the layer
//! rows the benchmark reports.
//!
//! Spans nest only within one thread, so nesting is resolved per thread
//! track. Rows are thread-seconds: on the single-threaded workloads they
//! sum to the timed region's wall clock; inside a worker pool the worker
//! rows plus the pool's idle thread time sum to `jobs ×` the pool's wall
//! clock.

use mapwave_harness::telemetry::SpanRecord;
use std::collections::BTreeMap;

/// The benchmark's own root span around the timed region.
pub const ROOT: &str = "bench.timed";

/// Which layer row a span's self time is charged to. Spans the table does
/// not know (added to the program later) land in `trace.other_s`, so the
/// rows still sum to the wall clock.
fn layer_of(span: &str) -> &'static str {
    match span {
        "noc.sim.run" | "noc.sim.cycle_loop" => "noc.sim.self_s",
        "core.run_system" => "core.system.self_s",
        "core.run_governed" => "governor.replay_s",
        "phoenix.exec" => "phoenix.runtime.self_s",
        "core.design" | "bench.spec" => "core.design_flow.self_s",
        "harness.job" => "harness.jobs.self_s",
        "bench.context" | "bench.full_report" => "core.experiments.self_s",
        "sweep.run" => "sweep.engine.self_s",
        "bench.query" => "sweep.store.query_s",
        ROOT => "bench.unattributed_s",
        _ => "trace.other_s",
    }
}

/// Every row [`layer_of`] can produce, in report order.
pub const LEDGER_ROWS: [&str; 11] = [
    "noc.sim.self_s",
    "core.system.self_s",
    "governor.replay_s",
    "phoenix.runtime.self_s",
    "core.design_flow.self_s",
    "harness.jobs.self_s",
    "core.experiments.self_s",
    "sweep.engine.self_s",
    "sweep.store.query_s",
    "trace.other_s",
    "bench.unattributed_s",
];

/// The attributed timed region of one traced repetition.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Self seconds per layer row (thread-seconds).
    pub rows: BTreeMap<&'static str, f64>,
    /// Number of spans per span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Wall clock of the root span, seconds.
    pub wall_s: f64,
    /// Wall clock of the sweep engine's pool (`sweep.run`), seconds.
    pub pool_s: f64,
    /// Busy thread-seconds of the pool workers.
    pub pool_busy_s: f64,
}

impl Ledger {
    /// Attributes `spans`, which must hold exactly one [`ROOT`] span; its
    /// thread is the main thread, every other track is a pool worker.
    pub fn build(spans: &[SpanRecord]) -> Result<Ledger, String> {
        let mut roots = spans.iter().filter(|s| s.name == ROOT);
        let main_tid = match (roots.next(), roots.next()) {
            (Some(root), None) => root.tid,
            _ => return Err("expected exactly one root span".into()),
        };
        let mut ledger = Ledger::default();
        for row in LEDGER_ROWS {
            ledger.rows.insert(row, 0.0);
        }
        let mut by_tid: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for s in spans {
            by_tid.entry(s.tid).or_default().push(s);
            *ledger.calls.entry(s.name).or_insert(0) += 1;
        }
        for (&tid, track) in &mut by_tid {
            // Parents start no later and last no shorter than their
            // children, so this order visits every parent first.
            track.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
            let mut child_ns = vec![0u64; track.len()];
            let mut stack: Vec<usize> = Vec::new();
            for i in 0..track.len() {
                let start = track[i].start_ns;
                while let Some(&top) = stack.last() {
                    if start >= track[top].start_ns + track[top].dur_ns {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                match stack.last() {
                    Some(&parent) => child_ns[parent] += track[i].dur_ns,
                    None if tid != main_tid => ledger.pool_busy_s += track[i].dur_ns as f64 / 1e9,
                    None if track[i].name != ROOT => {
                        return Err(format!(
                            "span {} ran outside the timed region",
                            track[i].name
                        ))
                    }
                    None => {}
                }
                stack.push(i);
            }
            for (s, child) in track.iter().zip(child_ns) {
                let self_ns = s.dur_ns.saturating_sub(child);
                *ledger.rows.entry(layer_of(s.name)).or_insert(0.0) += self_ns as f64 / 1e9;
                if tid == main_tid && s.name == ROOT {
                    ledger.wall_s += s.dur_ns as f64 / 1e9;
                }
                if tid == main_tid && s.name == "sweep.run" {
                    ledger.pool_s += s.dur_ns as f64 / 1e9;
                }
            }
        }
        Ok(ledger)
    }

    /// Idle thread-seconds of the pool's `jobs` workers.
    pub fn pool_idle_s(&self, jobs: usize) -> f64 {
        (jobs as f64 * self.pool_s - self.pool_busy_s).max(0.0)
    }

    /// The share of the wall clock the layer rows account for. Worker
    /// rows and pool idle time are converted back to wall-clock seconds
    /// (divided by `jobs`), replacing the committer thread's wait inside
    /// `sweep.run`.
    pub fn accounted_frac(&self, jobs: usize) -> f64 {
        let rows: f64 = self
            .rows
            .iter()
            .filter(|(name, _)| **name != "bench.unattributed_s")
            .map(|(_, v)| v)
            .sum();
        let accounted = if self.pool_s > 0.0 {
            // Main-thread rows other than the pool's own span, plus the
            // pool's worker time and idle time per worker.
            let main = rows - self.pool_busy_s - self.rows["sweep.engine.self_s"];
            main + (self.pool_busy_s + self.pool_idle_s(jobs)) / jobs as f64
        } else {
            rows
        };
        accounted / self.wall_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u64, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            label: None,
            tid,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn nested_spans_are_charged_once() {
        // core.design contains a core.run_system, which contains a NoC
        // window: each level keeps only its own time.
        let spans = [
            span(ROOT, 0, 0, 100),
            span("core.design", 0, 10, 80),
            span("core.run_system", 0, 20, 50),
            span("noc.sim.run", 0, 30, 30),
        ];
        let ledger = Ledger::build(&spans).unwrap();
        assert_eq!(ledger.rows["core.design_flow.self_s"], 30e-9);
        assert_eq!(ledger.rows["core.system.self_s"], 20e-9);
        assert_eq!(ledger.rows["noc.sim.self_s"], 30e-9);
        assert_eq!(ledger.rows["bench.unattributed_s"], 20e-9);
        assert!((ledger.accounted_frac(1) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn pool_workers_are_scaled_back_to_wall_clock() {
        let spans = [
            span(ROOT, 0, 0, 100),
            span("sweep.run", 0, 0, 100),
            span("harness.job", 1, 0, 100),
            span("noc.sim.run", 1, 10, 40),
            span("harness.job", 2, 0, 60),
        ];
        let ledger = Ledger::build(&spans).unwrap();
        assert_eq!(ledger.pool_busy_s, 160e-9);
        assert!((ledger.pool_idle_s(2) - 40e-9).abs() < 1e-18);
        assert!((ledger.accounted_frac(2) - 1.0).abs() < 1e-12);
    }
}
