//! # lira-sim
//!
//! End-to-end evaluation harness for the LIRA reproduction: scenarios
//! (presets matching Table 2 of the paper), the multi-policy simulation
//! runner (one traffic feed, one reference server, one shedding server per
//! policy), and the paper's accuracy metrics (`E^C_rr`, `E^P_rr`,
//! `D^C_ev`, `C^C_ov`).
//!
//! ```no_run
//! use lira_sim::prelude::*;
//!
//! let scenario = Scenario::small(42);
//! let report = run_scenario(&scenario, &[Policy::Lira, Policy::RandomDrop]);
//! let lira = report.outcome(Policy::Lira).unwrap();
//! println!("LIRA containment error: {:.4}", lira.metrics.mean_containment);
//! ```

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod metrics;
pub mod pipeline;
pub mod runner;
mod telemetry;

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::adaptive::{run_adaptive, AdaptiveConfig, AdaptiveReport};
    pub use crate::metrics::{evaluation_errors, FaultReport, MetricsAccumulator, MetricsReport};
    pub use crate::pipeline::{ReferenceTimeline, SimPipeline, SimSetup, TrafficTrace};
    pub use crate::runner::{run_scenario, PolicyOutcome, RunReport};
    pub use lira_core::policy::Policy;
    pub use lira_core::telemetry::TelemetrySnapshot;
    pub use lira_workload::catalog::NamedScenario;
    pub use lira_workload::scenario::{DemandPhase, PhaseSchedule, Scenario, SpeedClass};
}
