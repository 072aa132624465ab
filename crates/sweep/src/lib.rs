//! # mapwave-sweep
//!
//! A persistent, resumable design-space sweep engine for the mapwave
//! evaluation, with a content-addressed artifact store and a query CLI.
//!
//! The crate promotes the harness's ephemeral job graph + stage caches
//! into a durable service:
//!
//! * [`spec`] — declarative [`spec::SweepSpec`]s enumerate into stably
//!   ordered, stably keyed [`spec::SweepCell`]s;
//! * [`engine`] — [`engine::SweepEngine`] executes pending cells through
//!   the deterministic worker pool, each in one attempt, dead-lettering
//!   the cells whose configuration the design flow rejects, and
//!   checkpoints each decided cell in index order;
//! * [`store`] — [`store::ArtifactStore`] keeps content-addressed record
//!   blobs behind an append-only manifest, so a killed sweep resumes
//!   byte-identically;
//! * [`codec`] — bit-exact text encoding of per-cell results;
//! * [`query`] — EDP / energy / survivability tables served purely from
//!   cached artifacts (watch `sweep.artifact_hits`).
//!
//! The `mapwave-sweep` binary fronts all of it:
//!
//! ```text
//! mapwave-sweep run    --store out/sweep --preset small --scales 0.002
//! mapwave-sweep resume --store out/sweep
//! mapwave-sweep status --store out/sweep
//! mapwave-sweep query  --store out/sweep --metric edp-saving --app WC
//! ```
//!
//! # Example
//!
//! ```no_run
//! use mapwave_sweep::prelude::*;
//!
//! let opts = EngineOptions::default();
//! let engine = SweepEngine::create("out/sweep", SweepSpec::smoke(), opts)?;
//! let summary = engine.run()?;
//! assert_eq!(summary.pending, 0);
//! println!("{}", render_status(engine.store())?);
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod engine;
pub mod query;
pub mod spec;
pub mod store;

pub use codec::{CellRecord, GovernedCellMetrics};
pub use engine::{EngineOptions, RunSummary, SweepEngine};
pub use query::{load_records, render_status, render_table, run_query, Metric, QueryFilter};
pub use spec::{Preset, SweepCell, SweepSpec};
pub use store::{ArtifactStore, CellState, Manifest, ManifestEntry};

/// Convenient glob import.
pub mod prelude {
    pub use crate::codec::{CellRecord, GovernedCellMetrics};
    pub use crate::engine::{EngineOptions, RunSummary, SweepEngine};
    pub use crate::query::{
        load_records, render_status, render_table, run_query, Metric, QueryFilter,
    };
    pub use crate::spec::{Preset, SweepCell, SweepSpec};
    pub use crate::store::{ArtifactStore, CellState, Manifest, ManifestEntry};
}
