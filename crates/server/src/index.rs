//! The moving-object index abstraction behind the CQ engine.
//!
//! The paper stresses that LIRA "can be used in conjunction with many of
//! the existing update indexing ... techniques"; this trait is that seam.
//! Two implementations ship: [`PredictedGrid`], a uniform grid refreshed to
//! predicted positions before each evaluation round (SINA-style), and the
//! [`TprTree`], which indexes the motion models
//! themselves and answers time-parameterized queries without refreshing.

use lira_core::geometry::{Point, Rect};

use crate::grid_index::GridIndex;
use crate::node_store::NodeStore;
use crate::tpr_tree::{MovingPoint, TprTree};

/// An index over the predicted positions of dead-reckoned mobile nodes.
///
/// `Send` is required so a `CqServer` built over any index can be moved
/// into a per-policy simulation lane running on its own thread (the
/// `lira-sim` pipeline).
pub trait MovingIndex: Send {
    /// Applies a position update (a fresh motion model) for `node`.
    /// `CqServer::ingest` calls this once per applied update, so it is
    /// on the ingest path: an index that can rebuild its view from the
    /// store in [`prepare`](Self::prepare) should do nothing here.
    fn apply(&mut self, node: u32, t: f64, origin: Point, velocity: (f64, f64));

    /// Removes `node` from the index.
    fn remove(&mut self, node: u32);

    /// Called once before a batch of range queries at time `t`.
    /// Implementations indexing static positions refresh here; indexes that
    /// are natively time-parameterized do nothing.
    ///
    /// **Contract:** every caller of
    /// [`candidates_into`](Self::candidates_into) calls `prepare` for the
    /// same `t` first (`CqServer::nearest` and both legacy-oracle
    /// evaluation arms do), and `store` is the store every applied update
    /// went into. A refresh-based index may therefore treat `prepare` as
    /// its only source of positions and ignore [`apply`](Self::apply).
    fn prepare(&mut self, t: f64, store: &NodeStore);

    /// Appends candidate node ids for a range query at time `t`. May
    /// over-approximate; the engine filters by exact predicted position.
    ///
    /// **Uniqueness contract:** each node id is appended at most once per
    /// call. Both shipped indexes hold exactly one entry per node (the
    /// grid's `locations` map, the tree's per-node leaf), so the engine
    /// sorts results without a dedup pass. New implementations must
    /// preserve this.
    fn candidates_into(&self, range: &Rect, t: f64, out: &mut Vec<u32>);
}

/// Grid index over predicted positions, refreshed per evaluation round.
#[derive(Debug, Clone)]
pub struct PredictedGrid {
    grid: GridIndex,
}

impl PredictedGrid {
    /// Creates a grid with `side × side` cells over `bounds` for node ids
    /// `0..num_nodes`.
    pub fn new(bounds: Rect, side: usize, num_nodes: usize) -> Self {
        PredictedGrid {
            grid: GridIndex::new(bounds, side, num_nodes),
        }
    }
}

impl MovingIndex for PredictedGrid {
    /// Does nothing: `prepare` re-places every reported node from the
    /// store before any candidate is read (see the [`MovingIndex::prepare`]
    /// contract), so indexing the report origin here never had an
    /// observable effect — it only put a second spatial structure on the
    /// ingest path of a server whose unified engine never reads it.
    fn apply(&mut self, _node: u32, _t: f64, _origin: Point, _velocity: (f64, f64)) {}

    fn remove(&mut self, node: u32) {
        self.grid.remove(node);
    }

    fn prepare(&mut self, t: f64, store: &NodeStore) {
        for node in 0..store.len() as u32 {
            if let Some(p) = store.predict(node, t) {
                self.grid.update(node, &p);
            }
        }
    }

    fn candidates_into(&self, range: &Rect, _t: f64, out: &mut Vec<u32>) {
        out.extend(self.grid.candidates(range));
    }
}

impl MovingIndex for TprTree {
    fn apply(&mut self, node: u32, t: f64, origin: Point, velocity: (f64, f64)) {
        self.update(MovingPoint {
            node,
            time: t,
            origin,
            velocity,
        });
    }

    fn remove(&mut self, node: u32) {
        TprTree::remove(self, node);
    }

    fn prepare(&mut self, _t: f64, _store: &NodeStore) {
        // Time-parameterized: nothing to refresh.
    }

    fn candidates_into(&self, range: &Rect, t: f64, out: &mut Vec<u32>) {
        self.query_into(range, t, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<I: MovingIndex>(mut index: I) {
        let mut store = NodeStore::new(3);
        store.apply(0, 0.0, Point::new(10.0, 10.0), (1.0, 0.0));
        store.apply(1, 0.0, Point::new(500.0, 500.0), (0.0, 0.0));
        index.apply(0, 0.0, Point::new(10.0, 10.0), (1.0, 0.0));
        index.apply(1, 0.0, Point::new(500.0, 500.0), (0.0, 0.0));

        // At t = 0 node 0 is in the corner box.
        index.prepare(0.0, &store);
        let mut out = Vec::new();
        index.candidates_into(&Rect::from_coords(0.0, 0.0, 50.0, 50.0), 0.0, &mut out);
        assert!(out.contains(&0));
        assert!(!out.contains(&1));

        // At t = 100 node 0 has drifted to x = 110.
        index.prepare(100.0, &store);
        out.clear();
        index.candidates_into(&Rect::from_coords(100.0, 0.0, 150.0, 50.0), 100.0, &mut out);
        assert!(
            out.contains(&0),
            "drifted node must be found at its prediction"
        );

        // Removal.
        index.remove(0);
        index.prepare(100.0, &store);
        // (PredictedGrid::prepare re-adds reported nodes from the store, so
        // removal is only meaningful for nodes absent from the store; this
        // just checks the call is safe on both implementations.)
    }

    /// The uniqueness contract on [`MovingIndex::candidates_into`]: even
    /// after heavy churn (repeated updates moving nodes across cells),
    /// every candidate list holds each node id at most once.
    fn exercise_uniqueness<I: MovingIndex>(mut index: I) {
        let mut store = NodeStore::new(20);
        for round in 0..8 {
            for n in 0..20u32 {
                let x = ((n as f64 * 137.0 + round as f64 * 311.0) % 1000.0).abs();
                let y = ((n as f64 * 59.0 + round as f64 * 173.0) % 1000.0).abs();
                store.apply(n, round as f64, Point::new(x, y), (1.0, -1.0));
                index.apply(n, round as f64, Point::new(x, y), (1.0, -1.0));
            }
        }
        index.prepare(9.0, &store);
        let mut out = Vec::new();
        for rect in [
            Rect::from_coords(0.0, 0.0, 1000.0, 1000.0),
            Rect::from_coords(-50.0, -50.0, 500.0, 1200.0),
            Rect::from_coords(250.0, 250.0, 750.0, 750.0),
        ] {
            out.clear();
            index.candidates_into(&rect, 9.0, &mut out);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), out.len(), "duplicate candidate for {rect:?}");
        }
    }

    #[test]
    fn grid_candidates_are_unique_after_churn() {
        exercise_uniqueness(PredictedGrid::new(
            Rect::from_coords(0.0, 0.0, 1000.0, 1000.0),
            16,
            20,
        ));
    }

    #[test]
    fn tpr_candidates_are_unique_after_churn() {
        exercise_uniqueness(TprTree::new(60.0));
    }

    #[test]
    fn grid_implementation_conforms() {
        exercise(PredictedGrid::new(
            Rect::from_coords(0.0, 0.0, 1000.0, 1000.0),
            16,
            3,
        ));
    }

    #[test]
    fn tpr_implementation_conforms() {
        exercise(TprTree::new(60.0));
    }
}
