//! Structured telemetry: span timers and monotonic counters.
//!
//! The simulators call [`span`] / [`count`] at their hook points; when
//! telemetry is disabled (the default) each hook costs one relaxed atomic
//! load and nothing is recorded. When enabled, events accumulate in
//! thread-local buffers (no contention on the hot path) that are merged
//! into the global store by [`flush`] — the job runner flushes after every
//! job, and [`snapshot`] flushes the calling thread.
//!
//! Two exports:
//!
//! * [`TelemetrySummary::chrome_trace_json`] — a `chrome://tracing` /
//!   Perfetto-compatible JSON trace of every recorded span, one track per
//!   worker thread;
//! * [`TelemetrySummary::text_summary`] — a plain-text per-stage timing
//!   table plus the counter totals.
//!
//! # Examples
//!
//! ```
//! use mapwave_harness::telemetry;
//!
//! telemetry::enable();
//! {
//!     let _s = telemetry::span("doc.stage");
//!     telemetry::count("doc.items", 3);
//! }
//! let summary = telemetry::snapshot();
//! assert_eq!(summary.counter("doc.items"), 3);
//! assert!(summary.text_summary().contains("doc.stage"));
//! telemetry::disable();
//! telemetry::reset();
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Static hook-point name (e.g. `"noc.sim.run"`).
    pub name: &'static str,
    /// Optional per-instance label (e.g. the job description).
    pub label: Option<String>,
    /// Worker-thread track the span ran on.
    pub tid: u64,
    /// Start time in nanoseconds since the telemetry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

#[derive(Debug, Default)]
struct Store {
    counters: BTreeMap<&'static str, u64>,
    spans: Vec<SpanRecord>,
}

impl Store {
    fn merge_into(&mut self, other: &mut Store) {
        for (name, v) in std::mem::take(&mut self.counters) {
            *other.counters.entry(name).or_insert(0) += v;
        }
        other.spans.append(&mut self.spans);
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

fn global() -> &'static Mutex<Store> {
    static GLOBAL: OnceLock<Mutex<Store>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Store::default()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct Local {
    tid: u64,
    store: RefCell<Store>,
}

impl Drop for Local {
    fn drop(&mut self) {
        // A worker thread exiting mid-collection still contributes its data.
        if let Ok(mut g) = global().lock() {
            self.store.borrow_mut().merge_into(&mut g);
        }
    }
}

thread_local! {
    static LOCAL: Local = Local {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        store: RefCell::new(Store::default()),
    };
}

/// Turns recording on.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off (hooks become one-load no-ops again).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether hooks currently record.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `n` to the monotonic counter `name` (no-op when disabled).
#[inline]
pub fn count(name: &'static str, n: u64) {
    if !is_enabled() {
        return;
    }
    LOCAL.with(|l| {
        *l.store.borrow_mut().counters.entry(name).or_insert(0) += n;
    });
}

/// An in-flight timed region; records itself on drop.
///
/// Inactive (and free) when telemetry is disabled at creation.
#[must_use = "a span records the region it is alive for"]
pub struct Span {
    name: &'static str,
    label: Option<String>,
    start: Option<Instant>,
}

impl Span {
    fn record(name: &'static str, label: Option<String>) -> Span {
        let start = is_enabled().then(Instant::now);
        Span { name, label, start }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let start_ns = start.duration_since(epoch()).as_nanos() as u64;
        let dur_ns = start.elapsed().as_nanos() as u64;
        let record = SpanRecord {
            name: self.name,
            label: self.label.take(),
            tid: LOCAL.with(|l| l.tid),
            start_ns,
            dur_ns,
        };
        LOCAL.with(|l| l.store.borrow_mut().spans.push(record));
    }
}

/// Opens a span named `name` (no-op when disabled).
#[inline]
pub fn span(name: &'static str) -> Span {
    Span::record(name, None)
}

/// Opens a span with a per-instance label shown in the trace.
#[inline]
pub fn span_labeled(name: &'static str, label: impl Into<String>) -> Span {
    if !is_enabled() {
        return Span {
            name,
            label: None,
            start: None,
        };
    }
    Span::record(name, Some(label.into()))
}

/// Merges this thread's buffered events into the global store.
pub fn flush() {
    LOCAL.with(|l| {
        let mut g = global().lock().expect("telemetry store poisoned");
        l.store.borrow_mut().merge_into(&mut g);
    });
}

/// Clears everything recorded so far (all threads' flushed data).
pub fn reset() {
    LOCAL.with(|l| *l.store.borrow_mut() = Store::default());
    let mut g = global().lock().expect("telemetry store poisoned");
    *g = Store::default();
}

/// Everything recorded up to now (flushes the calling thread first).
///
/// Worker threads managed by [`crate::jobs::JobGraph`] flush after every
/// job; other live threads contribute whatever they have already flushed.
pub fn snapshot() -> TelemetrySummary {
    flush();
    let g = global().lock().expect("telemetry store poisoned");
    TelemetrySummary {
        counters: g
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect(),
        spans: g.spans.clone(),
    }
}

/// A point-in-time copy of the recorded telemetry.
#[derive(Debug, Clone)]
pub struct TelemetrySummary {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// All recorded spans.
    pub spans: Vec<SpanRecord>,
}

impl TelemetrySummary {
    /// The value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The spans named `name`.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// A Chrome-trace (`chrome://tracing`, Perfetto) JSON document of all
    /// spans, one duration event per span.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let name = match &s.label {
                Some(label) => format!("{} [{}]", s.name, label),
                None => s.name.to_string(),
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"mapwave\",\"ph\":\"X\",\
                 \"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                escape_json(&name),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// A plain-text per-stage timing table plus counter totals. The name
    /// column is as wide as the longest stage or counter name, so every
    /// value stays in its column.
    pub fn text_summary(&self) -> String {
        let mut agg: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = agg.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += s.dur_ns;
            e.2 = e.2.max(s.dur_ns);
        }
        let w = agg
            .keys()
            .copied()
            .chain(self.counters.keys().map(String::as_str))
            .map(str::len)
            .fold("counter".len(), usize::max);
        let mut out = String::new();
        if !agg.is_empty() {
            out.push_str(&format!(
                "{:<w$} {:>7} {:>12} {:>12} {:>12}\n",
                "stage", "count", "total[ms]", "mean[ms]", "max[ms]"
            ));
            for (name, (count, total, max)) in &agg {
                out.push_str(&format!(
                    "{:<w$} {:>7} {:>12.2} {:>12.3} {:>12.2}\n",
                    name,
                    count,
                    *total as f64 / 1e6,
                    *total as f64 / 1e6 / *count as f64,
                    *max as f64 / 1e6,
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("{:<w$} {:>20}\n", "counter", "total"));
            for (name, v) in &self.counters {
                out.push_str(&format!("{name:<w$} {v:>20}\n"));
            }
        }
        if out.is_empty() {
            out.push_str("(no telemetry recorded)\n");
        }
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Telemetry state is process-global, so exercise everything from one
    // test to avoid cross-test interference under the parallel test runner.
    #[test]
    fn spans_counters_and_exports_work_end_to_end() {
        reset();
        // Disabled: nothing records.
        disable();
        {
            let _s = span("t.disabled");
            count("t.disabled", 5);
        }
        let summary = snapshot();
        assert_eq!(summary.counter("t.disabled"), 0);
        assert_eq!(summary.spans_named("t.disabled").count(), 0);

        // Enabled: spans and counters land, threads get distinct tracks.
        enable();
        {
            let _s = span("t.stage");
            let _l = span_labeled("t.labeled", "seed 3");
            count("t.events", 2);
            count("t.events", 3);
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Close the span before flushing: `thread::scope` does not
                // wait for thread-local destructors, so a span still open
                // at `flush` could miss the snapshot below.
                {
                    let _s = span("t.stage");
                    count("t.events", 10);
                }
                flush();
            });
        });
        let summary = snapshot();
        assert_eq!(summary.counter("t.events"), 15);
        assert_eq!(summary.spans_named("t.stage").count(), 2);
        let tids: std::collections::BTreeSet<u64> =
            summary.spans_named("t.stage").map(|s| s.tid).collect();
        assert_eq!(tids.len(), 2, "each thread has its own track");

        let json = summary.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("t.labeled [seed 3]"));

        let text = summary.text_summary();
        assert!(text.contains("t.stage"));
        assert!(text.contains("t.events"));

        // Reset leaves a clean slate.
        disable();
        reset();
        assert_eq!(snapshot().spans.len(), 0);
        assert!(snapshot().text_summary().contains("no telemetry"));
    }

    #[test]
    fn text_summary_aligns_long_names() {
        let long = "placement.routing_rebuilds_avoided";
        let summary = TelemetrySummary {
            counters: BTreeMap::from([(long.to_string(), 720), ("t.short".to_string(), 5)]),
            spans: vec![SpanRecord {
                name: "t.stage",
                label: None,
                tid: 0,
                start_ns: 0,
                dur_ns: 1_000_000,
            }],
        };
        let text = summary.text_summary();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "{text}");
        // Every row of a table has the same width: the values line up.
        assert_eq!(lines[0].len(), lines[1].len(), "{text}");
        assert!(
            lines[2..].iter().all(|l| l.len() == lines[2].len()),
            "{text}"
        );
        assert!(lines[3].starts_with(long) && lines[3].ends_with(" 720"));
        assert!(lines[4].starts_with("t.short ") && lines[4].ends_with(" 5"));
    }

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
