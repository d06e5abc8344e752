//! # lira-server
//!
//! Mobile CQ server substrate for the LIRA reproduction: the last-report
//! node store with dead-reckoning prediction, the continual range-query
//! engine over it (one cell grid, owned by the engine — DESIGN.md §13),
//! the bounded position-update input queue and the governor that runs
//! THROTLOOP over a set of them, the base-station layer, and the
//! mobile-node-side shedder with its tiny 5×5 lookup grid.
//!
//! ```
//! use lira_server::prelude::*;
//! use lira_core::geometry::{Point, Rect};
//!
//! let mut server = CqServer::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 4, 8);
//! server.register_query(RangeQuery { id: 0, range: Rect::from_coords(0.0, 0.0, 50.0, 50.0) });
//! server.ingest(2, 0.0, Point::new(10.0, 10.0), (1.0, 0.0));
//! let results = server.evaluate(0.0);
//! assert_eq!(results[0].nodes, vec![2]);
//! ```

pub mod base_station;
pub mod channel;
pub mod cq_engine;
pub mod digest;
pub mod governor;
pub mod history;
pub mod mobile;
pub mod node_store;
mod qindex;
pub mod query;
pub mod queue;
pub mod unified;

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::base_station::{
        density_dependent_placement, mean_broadcast_bytes, mean_regions_per_station, station_for,
        uniform_placement,
    };
    pub use crate::channel::{
        ChannelStats, DelayModel, Delivery, FaultProfile, FaultyChannel, LossModel, Outage,
        RetryPolicy,
    };
    pub use crate::cq_engine::{CqServer, EvalEngine};
    pub use crate::governor::{Governor, StepClass, WindowDecision};
    pub use crate::history::HistoryStore;
    pub use crate::mobile::MobileShedder;
    pub use crate::node_store::NodeStore;
    pub use crate::query::{sorted_difference_count, QueryResult, RangeQuery, UncertainResult};
    pub use crate::queue::UpdateQueue;
    pub use crate::unified::{ShardStats, MAX_SHARDS};
}
