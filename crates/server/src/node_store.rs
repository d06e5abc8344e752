//! The server-side view of the mobile nodes: the last motion model each
//! node reported. Between reports the server *predicts* positions by
//! extrapolating the model — the essence of dead reckoning (Section 2.1).
//!
//! Storage is structure-of-arrays: one `f64` column per model component
//! (report time, origin x/y, velocity x/y), which makes the store's
//! footprint at the million-node scale exactly `5 × 8` bytes per node.
//! Since the engine's time wheel, a served round no longer sweeps the
//! population: it steps a scattered few percent of it (the nodes that
//! re-reported or came due), 64 at a time. What the columns buy there is
//! that a prediction is five plain loads at one index — no
//! `Option<StoredModel>` tag or padding to stride over — which the
//! engine's place pass issues for a whole chunk before it uses any of
//! them, so the misses overlap. The sweeps that remain (a rebuild, and
//! the fallback when the wheel cannot name the due nodes) still read
//! each column in order. The "has this node reported?" bit
//! needs no sixth column: a NaN report time is the never-reported
//! sentinel, and NaN's comparison semantics make the staleness check
//! below accept any first report for free. The fleet is fixed and a
//! model is only ever replaced, so a node that has reported keeps a
//! model from then on.

use lira_core::geometry::Point;

/// A reported linear motion model, mirrored from the mobile node side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StoredModel {
    /// Report time (seconds).
    pub time: f64,
    /// Reported position.
    pub origin: Point,
    /// Reported velocity (m/s).
    pub velocity: (f64, f64),
}

impl StoredModel {
    /// Predicted position at time `t`.
    #[inline]
    pub fn predict(&self, t: f64) -> Point {
        let dt = t - self.time;
        Point::new(
            self.origin.x + self.velocity.0 * dt,
            self.origin.y + self.velocity.1 * dt,
        )
    }
}

/// Last-reported motion models for a fixed population of nodes, in SoA
/// layout (see the module docs).
#[derive(Debug, Clone)]
pub struct NodeStore {
    /// Report time per node; NaN = never reported.
    time: Vec<f64>,
    ox: Vec<f64>,
    oy: Vec<f64>,
    vx: Vec<f64>,
    vy: Vec<f64>,
    reported: usize,
    updates_applied: u64,
}

impl NodeStore {
    /// Creates a store for `num_nodes` nodes, none of which has reported.
    pub fn new(num_nodes: usize) -> Self {
        NodeStore {
            time: vec![f64::NAN; num_nodes],
            ox: vec![0.0; num_nodes],
            oy: vec![0.0; num_nodes],
            vx: vec![0.0; num_nodes],
            vy: vec![0.0; num_nodes],
            reported: 0,
            updates_applied: 0,
        }
    }

    /// Number of tracked nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// Whether the store tracks no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Whether `node` has a model (has reported).
    #[inline]
    pub fn has(&self, node: u32) -> bool {
        !self.time[node as usize].is_nan()
    }

    /// Applies a position update for `node`. Updates older than the stored
    /// model are ignored (wireless delivery can reorder packets; a stale
    /// motion model must never overwrite a fresher one) — returns whether
    /// the update was applied. A NaN stored time (never reported) compares
    /// false against anything, so first reports always apply. A NaN
    /// `time` never applies: it would leave the node reading as never
    /// reported.
    pub fn apply(&mut self, node: u32, time: f64, origin: Point, velocity: (f64, f64)) -> bool {
        let n = node as usize;
        if self.time[n] > time || time.is_nan() {
            return false;
        }
        if self.time[n].is_nan() {
            self.reported += 1;
        }
        self.time[n] = time;
        self.ox[n] = origin.x;
        self.oy[n] = origin.y;
        self.vx[n] = velocity.0;
        self.vy[n] = velocity.1;
        self.updates_applied += 1;
        true
    }

    /// The node's predicted position at time `t` (`None` until it
    /// reports). Bit-identical to `StoredModel::predict` — same
    /// expression, same operation order.
    #[inline(always)]
    pub fn predict(&self, node: u32, t: f64) -> Option<Point> {
        self.has(node).then(|| self.position(node, t))
    }

    /// [`predict`](Self::predict) for a node known to have reported
    /// (NaN coordinates until it has). Always inlined: the engine's step
    /// calls it in two tight loops over a chunk of nodes, where a call
    /// returning an `Option` through memory cost ≈ 7 % of a
    /// `serve_paced`-shaped round.
    #[inline(always)]
    pub(crate) fn position(&self, node: u32, t: f64) -> Point {
        let n = node as usize;
        let dt = t - self.time[n];
        Point::new(self.ox[n] + self.vx[n] * dt, self.oy[n] + self.vy[n] * dt)
    }

    /// The node's last reported velocity (m/s per axis); meaningless
    /// until it reports.
    #[inline]
    pub fn velocity(&self, node: u32) -> (f64, f64) {
        (self.vx[node as usize], self.vy[node as usize])
    }

    /// Number of nodes that currently have a model.
    #[inline]
    pub fn reported_count(&self) -> usize {
        self.reported
    }

    /// Total updates applied over the store's lifetime.
    #[inline]
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store() {
        let s = NodeStore::new(3);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.reported_count(), 0);
        assert!(s.predict(0, 10.0).is_none());
        assert!(!s.has(0));
        assert!(NodeStore::new(0).is_empty());
    }

    #[test]
    fn apply_and_predict() {
        let mut s = NodeStore::new(2);
        s.apply(1, 5.0, Point::new(100.0, 0.0), (10.0, -2.0));
        assert_eq!(s.reported_count(), 1);
        assert_eq!(s.updates_applied(), 1);
        let p = s.predict(1, 8.0).unwrap();
        assert_eq!(p, Point::new(130.0, -6.0));
        // The same model as a `StoredModel` predicts identically
        // (bit-for-bit).
        let m = StoredModel {
            time: 5.0,
            origin: Point::new(100.0, 0.0),
            velocity: (10.0, -2.0),
        };
        assert_eq!(m.predict(8.0), p);
        // Node 0 still unknown.
        assert!(s.predict(0, 8.0).is_none());
    }

    #[test]
    fn newer_update_replaces_model() {
        let mut s = NodeStore::new(1);
        assert!(s.apply(0, 0.0, Point::new(0.0, 0.0), (1.0, 0.0)));
        assert!(s.apply(0, 10.0, Point::new(50.0, 50.0), (0.0, 1.0)));
        let p = s.predict(0, 12.0).unwrap();
        assert_eq!(p, Point::new(50.0, 52.0));
        assert_eq!(s.updates_applied(), 2);
        assert_eq!(s.reported_count(), 1);
    }

    #[test]
    fn stale_update_is_rejected() {
        let mut s = NodeStore::new(1);
        assert!(s.apply(0, 10.0, Point::new(50.0, 50.0), (0.0, 1.0)));
        // A delayed packet from t = 3 arrives after the t = 10 report.
        assert!(!s.apply(0, 3.0, Point::new(0.0, 0.0), (1.0, 0.0)));
        assert_eq!(s.predict(0, 12.0).unwrap(), Point::new(50.0, 52.0));
        assert_eq!(s.updates_applied(), 1);
        // Same-time updates do apply (the tie goes to the later arrival).
        assert!(s.apply(0, 10.0, Point::new(60.0, 60.0), (0.0, 0.0)));
    }

    #[test]
    fn a_nan_time_never_applies() {
        let mut s = NodeStore::new(2);
        assert!(!s.apply(0, f64::NAN, Point::new(1.0, 2.0), (0.0, 0.0)));
        assert!(!s.has(0));
        assert!(s.apply(1, 4.0, Point::new(1.0, 2.0), (0.0, 0.0)));
        assert!(!s.apply(1, f64::NAN, Point::new(9.0, 9.0), (0.0, 0.0)));
        assert_eq!(s.predict(1, 4.0), Some(Point::new(1.0, 2.0)));
        assert_eq!((s.reported_count(), s.updates_applied()), (1, 1));
    }
}
