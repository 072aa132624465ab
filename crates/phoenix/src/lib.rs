//! # mapwave-phoenix
//!
//! A Phoenix++-style MapReduce runtime **model** with six instrumented,
//! really-computing applications — the workload half of the DAC'15
//! reproduction.
//!
//! * [`apps`] — Histogram, Kmeans, Linear Regression, Matrix
//!   Multiplication, PCA and Word Count over synthetically generated inputs
//!   of the paper's Table-1 sizes (scalable); every run computes the real
//!   result and records per-task costs;
//! * [`runtime`] — the event-driven executor: Split/Map/Reduce/Merge
//!   stages, library init on the master core, task stealing;
//! * [`stealing`] — the default and the VFI-capped (Eq. 3) steal policies;
//! * [`workload`] — workload and execution-report types.
//!
//! ## Quick start
//!
//! ```
//! use mapwave_phoenix::prelude::*;
//!
//! // Profile Word Count at 0.2% of the paper's input on a 64-core NVFI
//! // platform.
//! let workload = App::WordCount.workload(0.002, 42, 64);
//! let report = Executor::new(RuntimeConfig::nvfi(64)).run(&workload);
//! assert!(report.total_cycles() > 0.0);
//! assert_eq!(report.utilization.len(), 64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apps;
pub mod runtime;
pub mod stealing;
pub mod task;
pub mod timeline;
pub mod workload;

pub use apps::App;
pub use runtime::{Executor, PhoenixFaults, RuntimeConfig};
pub use stealing::{task_cap, StealPolicy};
pub use task::{PhaseKind, TaskWork};
pub use timeline::{Span, Timeline};
pub use workload::{AppWorkload, ExecutionReport, IterationWorkload, MergeSpec, PhaseBreakdown};

/// Convenient glob import.
pub mod prelude {
    pub use crate::apps::App;
    pub use crate::runtime::{Executor, RuntimeConfig};
    pub use crate::stealing::StealPolicy;
    pub use crate::task::TaskWork;
    pub use crate::workload::{AppWorkload, ExecutionReport, PhaseBreakdown};
}
