//! # lira-core
//!
//! Core algorithms of **LIRA** — *Lightweight, Region-aware Load Shedding in
//! Mobile CQ Systems* (Gedik, Liu, Wu, Yu; ICDE 2007).
//!
//! LIRA reduces the position-update load of a mobile continual-query (CQ)
//! server *at the source*: instead of receiving every update and dropping
//! excess ones at random, it partitions the monitored space into shedding
//! regions and tells the mobile nodes in each region which dead-reckoning
//! inaccuracy threshold (*update throttler*) to use, so that the overall
//! update volume meets a budget while the query-result inaccuracy is
//! minimized.
//!
//! The crate provides:
//!
//! * [`reduction::ReductionModel`] — the update-reduction function `f(Δ)`
//!   as a piecewise-linear model (Figure 1 / Theorem 3.1);
//! * [`stats_grid::StatsGrid`] — the `α×α` statistics grid, LIRA's only
//!   data structure (Section 3.2.1);
//! * [`quadtree::RegionTree`] — the aggregated region hierarchy
//!   (GRIDREDUCE stage I);
//! * [`grid_reduce`] — the region-aware partitioner (GRIDREDUCE stage II);
//! * [`greedy_increment`] — the optimal throttler-setting algorithm
//!   (GREEDYINCREMENT, Algorithm 2);
//! * [`throt_loop::ThrotLoop`] — the throttle-fraction controller;
//! * [`plan::SheddingPlan`] — the distributable plan with its 16-byte
//!   per-region wire format;
//! * [`policy`] — the [`policy::SheddingPolicy`] trait with LIRA and the
//!   Section 4.2 comparators (Lira-Grid, Uniform Δ, Random Drop) behind
//!   one adaptation lifecycle;
//! * [`utility`] — the SPICE-line utility-aware policies
//!   ([`utility::UtilityGreedy`], [`utility::UtilityModel`]) that spend
//!   the budget where predicted accuracy-gain-per-admitted-update is
//!   highest;
//! * [`shedder::LiraShedder`] — the orchestrator running one full
//!   adaptation step.
//!
//! ## Quick example
//!
//! ```
//! use lira_core::prelude::*;
//!
//! // 1. Maintain the statistics grid from observed positions and queries.
//! let bounds = Rect::from_coords(0.0, 0.0, 1024.0, 1024.0);
//! let mut grid = StatsGrid::new(32, bounds).unwrap();
//! grid.begin_snapshot();
//! for i in 0..100 {
//!     grid.observe_node(&Point::new((i % 10) as f64 * 20.0, (i / 10) as f64 * 20.0), 12.0, 1.0);
//! }
//! grid.observe_query(&Rect::from_coords(600.0, 600.0, 800.0, 800.0));
//! grid.commit_snapshot();
//!
//! // 2. Configure and run one adaptation step at throttle fraction 0.5.
//! let mut config = LiraConfig::default();
//! config.bounds = bounds;
//! config.num_regions = 16;
//! config.alpha = 32;
//! let shedder = LiraShedder::new(config).unwrap();
//! let adaptation = shedder.adapt_with_throttle(&grid, 0.5).unwrap();
//!
//! // 3. Mobile nodes look up their local update throttler.
//! let delta = adaptation.plan.throttler_at(&Point::new(100.0, 100.0));
//! assert!((5.0..=100.0).contains(&delta));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod geometry;
pub mod greedy_increment;
pub mod grid_reduce;
pub mod plan;
pub mod policy;
pub mod quadtree;
pub mod reduction;
pub mod shedder;
pub mod stats_grid;
pub mod telemetry;
pub mod throt_loop;
pub mod utility;

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::config::LiraConfig;
    pub use crate::error::{LiraError, Result};
    pub use crate::geometry::{Circle, Point, Rect};
    pub use crate::greedy_increment::{greedy_increment, GreedyParams, RegionInput};
    pub use crate::grid_reduce::{grid_reduce, l_partitioning, GridReduceParams, GridReduceStats};
    pub use crate::plan::{PlanRegion, SheddingPlan};
    pub use crate::policy::{
        AdaptCost, LiraGridPolicy, LiraPolicy, Policy, RandomDropPolicy, RoundFeedback,
        SheddingPolicy, UniformDeltaPolicy,
    };
    pub use crate::reduction::ReductionModel;
    pub use crate::shedder::LiraShedder;
    pub use crate::stats_grid::{CellStats, StatsGrid};
    pub use crate::telemetry::{Histogram, MetricSpec, TelemetrySnapshot};
    pub use crate::throt_loop::{QueueObservation, ThrotLoop};
    pub use crate::utility::{UtilityGreedy, UtilityModel};
}
