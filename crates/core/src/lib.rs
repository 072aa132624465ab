//! # mapwave
//!
//! Reproduction of *"Energy Efficient MapReduce with VFI-enabled Multicore
//! Platforms"* (DAC 2015): a design flow that couples Voltage/Frequency
//! Island partitioning with a millimetre-wave wireless NoC to run Phoenix++
//! MapReduce workloads at a fraction of the baseline energy-delay product.
//!
//! The crate orchestrates the three substrates of this workspace —
//! [`mapwave_noc`] (cycle-accurate NoC simulation), [`mapwave_vfi`]
//! (clustering, V/F assignment, power) and [`mapwave_phoenix`] (the
//! MapReduce runtime model and applications) — into:
//!
//! * [`design_flow`] — the paper's Fig. 3 flow: profile → cluster →
//!   assign V/F → reassign for bottleneck cores → build the WiNoC;
//! * [`placement`] — the two wireless placement / thread mapping
//!   methodologies of Section 6;
//! * [`system`] — the coupled full-system simulation producing execution
//!   time, energy and EDP;
//! * [`experiments`] — one method per table and figure of the evaluation,
//!   dispatched through the [`mapwave_harness`] job graph;
//! * [`orchestrator`] — stable configuration keys, the system variants
//!   run by that dispatch, and the sweep's design cache;
//! * [`ablations`] — controlled one-knob studies of the design choices;
//! * [`survivability`] — the fault-injection sweep: how much of the EDP
//!   saving survives link errors, core degradation and task failures;
//! * [`report`] — text rendering of the results.
//!
//! ## Quick start
//!
//! ```no_run
//! use mapwave::prelude::*;
//!
//! // Reproduce the whole evaluation at 1% input scale.
//! let cfg = PlatformConfig::paper().with_scale(0.01);
//! let ctx = ExperimentContext::new(cfg)?;
//! println!("{}", mapwave::report::full_report(&ctx));
//! # Ok::<(), String>(())
//! ```
//!
//! For a single application:
//!
//! ```
//! use mapwave::prelude::*;
//! use mapwave_phoenix::apps::App;
//!
//! let cfg = PlatformConfig::small().with_scale(0.002);
//! let flow = DesignFlow::new(cfg)?;
//! let design = flow.design(App::WordCount);
//! assert_eq!(design.clustering.cluster_count(), 4);
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod config;
pub mod design_flow;
pub mod experiments;
pub mod governed;
pub mod orchestrator;
pub mod placement;
pub mod report;
pub mod survivability;
pub mod system;

pub use config::{PlacementStrategy, PlatformConfig};
pub use design_flow::{Design, DesignFlow, VfStage};
pub use experiments::ExperimentContext;
pub use governed::{
    run_system_governed, run_system_governed_with_faults, EpochRecord, GovernedRunReport,
};
pub use survivability::{fault_sweep, FaultSweepConfig, FaultSweepPoint, FaultSweepReport};
pub use system::{run_system, run_system_with_faults, FaultRunReport, RunReport, SystemSpec};

/// Convenient glob import.
pub mod prelude {
    pub use crate::config::{PlacementStrategy, PlatformConfig};
    pub use crate::design_flow::{Design, DesignFlow, VfStage};
    pub use crate::experiments::ExperimentContext;
    pub use crate::governed::{
        run_system_governed, run_system_governed_with_faults, GovernedRunReport,
    };
    pub use crate::survivability::{fault_sweep, FaultSweepConfig, FaultSweepReport};
    pub use crate::system::{
        run_system, run_system_with_faults, FaultRunReport, RunReport, SystemSpec,
    };
}
