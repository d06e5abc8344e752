//! # lira
//!
//! A Rust reproduction of **LIRA** — *Lightweight, Region-aware Load
//! Shedding in Mobile CQ Systems* (Gedik, Liu, Wu, Yu; ICDE 2007).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`lira_core`] (re-exported as `core`) — the LIRA algorithms: GRIDREDUCE partitioning,
//!   GREEDYINCREMENT throttler setting, THROTLOOP budget control, shedding
//!   plans, and the Uniform Δ / Lira-Grid baselines;
//! * [`lira_mobility`] (`mobility`) — synthetic road networks, demand-driven
//!   traffic simulation, dead reckoning, trace recording and `f(Δ)`
//!   calibration;
//! * [`lira_server`] (`server`) — the mobile CQ server: node store, grid
//!   index, range CQ engine, bounded update queue, base stations, and the
//!   mobile-node-side shedder;
//! * [`lira_workload`] (`workload`) — Proportional / Inverse / Random range
//!   CQ generators;
//! * [`lira_sim`] (`sim`) — the end-to-end evaluation harness with the
//!   paper's accuracy metrics.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-vs-measured results of every figure and
//! table in the paper's evaluation.

#![forbid(unsafe_code)]

pub use lira_core as core;
pub use lira_mobility as mobility;
pub use lira_server as server;
pub use lira_sim as sim;
pub use lira_workload as workload;

/// One-stop prelude combining the preludes of all member crates.
pub mod prelude {
    pub use lira_core::prelude::*;
    pub use lira_mobility::prelude::*;
    pub use lira_server::prelude::*;
    pub use lira_sim::prelude::*;
    pub use lira_workload::prelude::*;
}
