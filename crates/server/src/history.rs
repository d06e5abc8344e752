//! Historical position tracking: the reason the fairness threshold exists.
//!
//! Section 3.1.1 of the paper: without the fairness bound `Δ⇔`, query-free
//! regions are shed to `Δ⊣` and their nodes are effectively untracked —
//! "for mobile CQ systems supporting historic and ad-hoc queries this may
//! be undesirable". This module provides that historic capability: every
//! reported motion model is retained, so the position of any node at any
//! *past* time can be reconstructed (to within the inaccuracy threshold it
//! was tracked with at that time), and ad-hoc snapshot range queries can be
//! answered against the past.

use lira_core::geometry::{Point, Rect};

use crate::node_store::StoredModel;

/// A store of per-node motion-model timelines.
#[derive(Debug, Clone)]
pub struct HistoryStore {
    timelines: Vec<Vec<StoredModel>>,
    records: u64,
}

impl HistoryStore {
    /// Creates a store for `num_nodes` nodes; every model is retained.
    pub fn new(num_nodes: usize) -> Self {
        HistoryStore {
            timelines: vec![Vec::new(); num_nodes],
            records: 0,
        }
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.timelines.len()
    }

    /// Whether the store tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.timelines.is_empty()
    }

    /// Total records ever made.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Records a reported motion model for `node`. Reports must arrive in
    /// non-decreasing time order per node.
    pub fn record(&mut self, node: u32, time: f64, origin: Point, velocity: (f64, f64)) {
        let timeline = &mut self.timelines[node as usize];
        if let Some(last) = timeline.last() {
            assert!(
                time >= last.time,
                "out-of-order report for node {node}: {time} < {}",
                last.time
            );
        }
        timeline.push(StoredModel {
            time,
            origin,
            velocity,
        });
        self.records += 1;
    }

    /// The model that was current at time `t` for `node` (the latest model
    /// with `model.time <= t`), or `None` if the node had not reported yet.
    pub(crate) fn model_at(&self, node: u32, t: f64) -> Option<&StoredModel> {
        let timeline = &self.timelines[node as usize];
        let idx = timeline.partition_point(|m| m.time <= t);
        idx.checked_sub(1).map(|i| &timeline[i])
    }

    /// Reconstructed position of `node` at past time `t`: the then-current
    /// model extrapolated to `t` — accurate to within the inaccuracy
    /// threshold the node was tracked with at that time.
    pub fn position_at(&self, node: u32, t: f64) -> Option<Point> {
        self.model_at(node, t).map(|m| m.predict(t))
    }

    /// Ad-hoc snapshot range query against the past: all nodes whose
    /// reconstructed position at time `t` lies in `range`, sorted by id.
    pub fn snapshot_range(&self, range: &Rect, t: f64) -> Vec<u32> {
        (0..self.timelines.len() as u32)
            .filter(|&n| self.position_at(n, t).is_some_and(|p| range.contains(&p)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_node_track() -> HistoryStore {
        let mut h = HistoryStore::new(2);
        // Node 0: east at 10 m/s from t=0, then north at 5 m/s from t=10.
        h.record(0, 0.0, Point::new(0.0, 0.0), (10.0, 0.0));
        h.record(0, 10.0, Point::new(100.0, 0.0), (0.0, 5.0));
        h
    }

    #[test]
    fn reconstructs_past_positions() {
        let h = store_with_node_track();
        assert_eq!(h.position_at(0, 0.0).unwrap(), Point::new(0.0, 0.0));
        assert_eq!(h.position_at(0, 5.0).unwrap(), Point::new(50.0, 0.0));
        // Exactly at the second report: the new model wins.
        assert_eq!(h.position_at(0, 10.0).unwrap(), Point::new(100.0, 0.0));
        assert_eq!(h.position_at(0, 14.0).unwrap(), Point::new(100.0, 20.0));
        // Before the first report: unknown.
        assert!(h.position_at(0, -1.0).is_none());
        // Never-reported node: unknown.
        assert!(h.position_at(1, 5.0).is_none());
    }

    #[test]
    fn snapshot_range_queries() {
        let mut h = store_with_node_track();
        h.record(1, 0.0, Point::new(500.0, 500.0), (0.0, 0.0));
        // At t=5: node 0 at (50,0), node 1 at (500,500).
        assert_eq!(
            h.snapshot_range(&Rect::from_coords(0.0, -10.0, 100.0, 10.0), 5.0),
            vec![0]
        );
        assert_eq!(
            h.snapshot_range(&Rect::from_coords(0.0, -10.0, 600.0, 600.0), 5.0),
            vec![0, 1]
        );
        assert!(h
            .snapshot_range(&Rect::from_coords(900.0, 900.0, 999.0, 999.0), 5.0)
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn rejects_out_of_order_reports() {
        let mut h = store_with_node_track();
        h.record(0, 5.0, Point::new(0.0, 0.0), (0.0, 0.0));
    }

    #[test]
    fn per_node_timelines_are_independent() {
        let mut h = HistoryStore::new(3);
        h.record(0, 0.0, Point::new(0.0, 0.0), (1.0, 0.0));
        h.record(2, 5.0, Point::new(100.0, 0.0), (0.0, 0.0));
        h.record(0, 10.0, Point::new(10.0, 0.0), (0.0, 0.0));
        // Interleaved reports: per-node order is what matters.
        assert_eq!(h.position_at(0, 4.0).unwrap(), Point::new(4.0, 0.0));
        assert_eq!(h.position_at(2, 100.0).unwrap(), Point::new(100.0, 0.0));
        assert!(h.position_at(1, 100.0).is_none());
        assert_eq!(h.records(), 3);
    }

    #[test]
    fn record_counting() {
        let h = store_with_node_track();
        assert_eq!(h.records(), 2);
        assert_eq!(h.len(), 2);
        assert!(!h.is_empty());
    }
}
