//! The one timer and the one JSON writer of the workspace's two
//! micro-benches, `noc_step` and `design_flow`.
//!
//! [`time`] runs a closure once untimed, then repeatedly within a bounded
//! wall-clock budget, and returns every sample. [`Bench`] collects named
//! rows of samples in insertion order, prints one median line per row and,
//! when `MAPWAVE_BENCH_JSON=<path>` is set, writes them as
//!
//! ```json
//! {
//!   "bench": "noc_step",
//!   "unit": "simulated cycles/s",
//!   "nproc": 2,
//!   "cpu": "Intel(R) Xeon(R) Processor",
//!   "commit": "abc1234",
//!   "date": "2026-01-02T03:04:05Z",
//!   "rows": {
//!     "noc_step_mesh/low": {"median": 714860.000, "runs": [702113.250, 714860.000, 731002.500]}
//!   }
//! }
//! ```
//!
//! A same-day A/B is two such files, one written at each commit.
//!
//! The artefacts of the paper (Tables 1–2, Figs. 2–8, the headline and the
//! ablations) are printed by the `mapwave` CLI, not by benches.

use std::fmt::Write as _;
use std::process::Command;
use std::time::Instant;

/// Wall-clock budget of one row's timed samples, in seconds.
const BUDGET_SECS: f64 = 1.0;
/// Fewest and most timed samples per row.
const MIN_SAMPLES: usize = 3;
const MAX_SAMPLES: usize = 30;

/// Calls `f` once untimed (warming caches and sizing the sample count),
/// then times between 3 and 30 calls spending about one second in total,
/// and returns each call's wall-clock seconds in call order.
pub fn time<F: FnMut()>(mut f: F) -> Vec<f64> {
    let start = Instant::now();
    f();
    let once = start.elapsed().as_secs_f64().max(1e-6);
    let samples = ((BUDGET_SECS / once).ceil() as usize).clamp(MIN_SAMPLES, MAX_SAMPLES);
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64().max(1e-9)
        })
        .collect()
}

/// The middle of `runs` once sorted; the upper middle of an even count.
///
/// # Panics
///
/// Panics if `runs` is empty.
fn median(runs: &[f64]) -> f64 {
    let mut sorted = runs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Where a bench file was recorded.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// The first `model name` of `/proc/cpuinfo`, or `"unknown"`.
    pub cpu: String,
    /// `git rev-parse --short HEAD`, suffixed `-dirty` when tracked files
    /// differ from it, or `"unknown"`.
    pub commit: String,
    /// UTC date and time, `YYYY-MM-DDTHH:MM:SSZ`, or `"unknown"`.
    pub date: String,
}

impl Host {
    /// Describes the machine and tree this process runs on.
    fn current() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, name)| name.trim().to_string())
            });
        let commit = output_of("git", &["rev-parse", "--short", "HEAD"]).map(|head| {
            let dirty = output_of("git", &["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{head}-dirty")
            } else {
                head
            }
        });
        let unknown = || "unknown".to_string();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu.unwrap_or_else(unknown),
            commit: commit.unwrap_or_else(unknown),
            date: output_of("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"]).unwrap_or_else(unknown),
        }
    }
}

/// The trimmed stdout of a successful command, if any.
fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The named rows of one bench, in insertion order.
#[derive(Debug, Clone)]
pub struct Bench {
    name: &'static str,
    unit: &'static str,
    rows: Vec<(String, Vec<f64>)>,
}

impl Bench {
    /// An empty bench whose samples are all in `unit`.
    pub fn new(name: &'static str, unit: &'static str) -> Self {
        Bench {
            name,
            unit,
            rows: Vec::new(),
        }
    }

    /// Records a row of samples and prints its median.
    pub fn row(&mut self, name: impl Into<String>, runs: Vec<f64>) {
        let name = name.into();
        println!("{name:<34} median {:>14.3} {}", median(&runs), self.unit);
        self.rows.push((name, runs));
    }

    /// The bench file's JSON, recorded on `host`.
    pub fn to_json(&self, host: &Host) -> String {
        let mut out = format!(
            "{{\n  \"bench\": \"{}\",\n  \"unit\": \"{}\",\n  \"nproc\": {},\n  \
             \"cpu\": \"{}\",\n  \"commit\": \"{}\",\n  \"date\": \"{}\",\n  \"rows\": {{\n",
            escape(self.name),
            escape(self.unit),
            host.nproc,
            escape(&host.cpu),
            escape(&host.commit),
            escape(&host.date)
        );
        for (i, (name, runs)) in self.rows.iter().enumerate() {
            let values: Vec<String> = runs.iter().map(|v| format!("{v:.3}")).collect();
            let _ = write!(
                out,
                "    \"{}\": {{\"median\": {:.3}, \"runs\": [{}]}}",
                escape(name),
                median(runs),
                values.join(", ")
            );
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Writes the bench file to `MAPWAVE_BENCH_JSON`, if that is set.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn finish(&self) {
        if let Ok(path) = std::env::var("MAPWAVE_BENCH_JSON") {
            std::fs::write(&path, self.to_json(&Host::current())).expect("write bench json");
            println!("wrote {path}");
        }
    }
}

/// Escapes a string for a JSON string literal.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_the_schema_in_row_order_with_sorted_medians() {
        let mut bench = Bench::new("demo", "ms/call");
        bench.row("b/second", vec![3.0, 1.0, 2.0]);
        bench.row("a/first", vec![5.0, 9.0, 7.0, 1.0]);
        let host = Host {
            nproc: 4,
            cpu: "Some \"quoted\" CPU".into(),
            commit: "abc1234".into(),
            date: "2026-01-02T03:04:05Z".into(),
        };
        let json = bench.to_json(&host);
        let keys = [
            "\"bench\": \"demo\"",
            "\"unit\": \"ms/call\"",
            "\"nproc\": 4",
            "\"cpu\": \"Some \\\"quoted\\\" CPU\"",
            "\"commit\": \"abc1234\"",
            "\"date\": \"2026-01-02T03:04:05Z\"",
            "\"rows\": {",
            "\"b/second\": {\"median\": 2.000, \"runs\": [3.000, 1.000, 2.000]}",
            "\"a/first\": {\"median\": 7.000, \"runs\": [5.000, 9.000, 7.000, 1.000]}",
        ];
        let mut at = 0;
        for key in keys {
            let pos = json[at..]
                .find(key)
                .unwrap_or_else(|| panic!("{key} missing or out of order in\n{json}"));
            at += pos + key.len();
        }
        assert!(json.ends_with("}\n  }\n}\n"), "{json}");
    }

    #[test]
    fn median_is_the_middle_of_the_sorted_runs() {
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[9.0, 1.0, 5.0, 3.0]), 5.0);
    }

    #[test]
    fn timer_returns_bounded_raw_samples() {
        let mut calls = 0;
        let runs = time(|| calls += 1);
        assert_eq!(runs.len(), MAX_SAMPLES);
        assert_eq!(calls, MAX_SAMPLES + 1, "one untimed warm-up call");
        assert!(runs.iter().all(|&s| s > 0.0));
    }
}
