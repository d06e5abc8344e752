//! # lira-mobility
//!
//! Mobility substrate for the LIRA reproduction: a synthetic hierarchical
//! road network (expressways / arterials / collectors), demand-driven
//! traffic simulation, linear motion modeling with dead reckoning, and
//! trace recording with empirical `f(Δ)` calibration.
//!
//! This crate regenerates the paper's evaluation workload: "an hour long
//! car position trace generated from real-world road networks ... and
//! traffic volume data" — see DESIGN.md for the substitution rationale.
//!
//! ```
//! use lira_mobility::prelude::*;
//!
//! let network = generate_network(&NetworkConfig::small(7));
//! let demand = TrafficDemand::random_hotspots(network.bounds(), 3, 7);
//! let mut sim = TrafficSimulator::new(network, &demand, TrafficConfig { num_cars: 25, seed: 7 });
//! sim.step(1.0);
//! assert_eq!(sim.cars().len(), 25);
//! ```

#![forbid(unsafe_code)]

pub mod agent;
pub mod generator;
pub mod motion;
pub mod road;
pub mod route_motion;
pub mod router;
pub mod simulator;
pub mod trace;

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::generator::{generate_network, NetworkConfig};
    pub use crate::motion::{DeadReckoner, MotionReport};
    pub use crate::road::Edge;
    pub use crate::route_motion::RouteReckoner;
    pub use crate::router::shortest_path;
    pub use crate::simulator::{TrafficConfig, TrafficSimulator};
    pub use crate::trace::Trace;
    pub use crate::traffic::{Hotspot, TrafficDemand};
}

pub mod traffic;
