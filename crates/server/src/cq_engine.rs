//! The mobile CQ server: ingests dead-reckoned position updates and
//! periodically re-evaluates the registered continual range queries over
//! the *predicted* node positions, in the style of SINA-like periodic
//! evaluation over a grid index.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use lira_core::geometry::{Point, Rect};

use crate::node_store::NodeStore;
use crate::query::{QueryResult, RangeQuery};
use crate::unified::{ShardStats, UnifiedEval};

/// A name for [`CqServer`]'s one engine, which [`CqServer::with_engine`]
/// ignores.
///
/// There is one engine (`crate::unified`; DESIGN.md §13), evaluated on
/// the calling thread: a cell→queries index with per-query member sets
/// maintained incrementally across rounds; a round steps only the nodes
/// that re-reported and the nodes a time wheel has due at the new `t`
/// (those about to cross a cell or query edge), not the fleet. The enum
/// and its single variant survive only because the frozen `benchmark/`
/// crate names `EvalEngine::Unified { shards }` — to be deleted by the
/// next `benchmark` PR (ROADMAP item 11(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalEngine {
    /// The engine. `shards` is ignored.
    Unified {
        /// Ignored.
        shards: usize,
    },
}

/// A mobile CQ server instance: the node store, the registered queries
/// and the evaluation engine that keeps their member sets.
#[derive(Debug, Clone)]
pub struct CqServer {
    bounds: Rect,
    store: NodeStore,
    queries: Vec<RangeQuery>,
    evaluations: u64,
    /// Engine state (boxed: it carries the member lists, the index and
    /// the per-node arrays).
    unified: Box<UnifiedEval>,
}

// The simulation pipeline moves whole servers into per-policy lane
// threads; keep that property from regressing (e.g. by an Rc sneaking
// into the store or the engine).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CqServer>();
};

/// A k-NN candidate ordered by `(distance, node)`. `f64::total_cmp`
/// makes the order total: a non-finite distance sorts after every finite
/// one instead of being a panic path.
struct Hit {
    distance: f64,
    node: u32,
}

impl Ord for Hit {
    fn cmp(&self, other: &Self) -> Ordering {
        self.distance
            .total_cmp(&other.distance)
            .then(self.node.cmp(&other.node))
    }
}

impl PartialOrd for Hit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Hit {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Hit {}

impl CqServer {
    /// Creates a server for `num_nodes` nodes over `bounds`.
    ///
    /// `_index_side` is ignored: it sized the second spatial index the
    /// server no longer has, and the parameter survives only because the
    /// frozen `benchmark/` crate passes it — to be dropped by the next
    /// `benchmark` PR (ROADMAP item 11).
    pub fn new(bounds: Rect, num_nodes: usize, _index_side: usize) -> Self {
        CqServer {
            bounds,
            store: NodeStore::new(num_nodes),
            queries: Vec::new(),
            evaluations: 0,
            unified: Box::new(UnifiedEval::new(bounds)),
        }
    }

    /// Returns the server unchanged: `_engine` is ignored, like
    /// [`new`](Self::new)'s `_index_side`. The method survives only
    /// because the frozen `benchmark/` crate calls it (ROADMAP item
    /// 11(a)).
    pub fn with_engine(self, _engine: EvalEngine) -> Self {
        self
    }

    /// The monitored space.
    #[inline]
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// Registers many continual range queries.
    pub fn register_queries<Q: IntoIterator<Item = RangeQuery>>(&mut self, queries: Q) {
        self.queries.extend(queries);
        self.unified.invalidate();
    }

    /// The registered queries.
    #[inline]
    pub fn queries(&self) -> &[RangeQuery] {
        &self.queries
    }

    /// Replaces the whole query set (continual queries come and go; LIRA
    /// re-adapts to the new workload at its next adaptation step).
    pub fn replace_queries<Q: IntoIterator<Item = RangeQuery>>(&mut self, queries: Q) {
        self.queries.clear();
        self.queries.extend(queries);
        self.unified.invalidate();
    }

    /// Ingests one position update (a new motion model for `node`). Stale
    /// (reordered) updates are rejected by the store and never reach the
    /// engine. Returns whether the update was applied.
    pub fn ingest(&mut self, node: u32, t: f64, position: Point, velocity: (f64, f64)) -> bool {
        let first_report = !self.store.has(node);
        if self.store.apply(node, t, position, velocity) {
            self.unified.on_ingest(node, first_report);
            true
        } else {
            false
        }
    }

    /// Evaluates every registered query at time `t` against the predicted
    /// node positions. Results are sorted by node id. Any `t` is legal;
    /// rounds at a `t` at or after the previous one are the cheap ones
    /// (a `t` below it, or far past it, makes the engine sweep the fleet
    /// once).
    pub fn evaluate(&mut self, t: f64) -> Vec<QueryResult> {
        let mut results = Vec::with_capacity(self.queries.len());
        self.evaluate_into(t, &mut results);
        results
    }

    /// Like [`evaluate`](Self::evaluate), but writes into `out`, reusing
    /// its allocations — the steady-state entry point for simulation
    /// lanes, which evaluate every round.
    pub fn evaluate_into(&mut self, t: f64, out: &mut Vec<QueryResult>) {
        self.evaluations += 1;
        self.unified
            .evaluate_into(&self.queries, &self.store, t, out);
    }

    /// The same round as [`evaluate_into`](Self::evaluate_into), folded
    /// onto the digest chain `prev` (0 starts one) instead of copied out:
    /// returns exactly what
    /// [`digest_round`](crate::digest::digest_round)`(prev, t, &results)`
    /// returns for the round's results. Nothing is materialised — the
    /// engine hashes each member list as it applies the round's edits to
    /// it. For callers that only fingerprint a round: the served digest.
    pub fn evaluate_digest(&mut self, t: f64, prev: u64) -> u64 {
        self.evaluations += 1;
        self.unified
            .evaluate_digest(&self.queries, &self.store, t, prev)
    }

    /// The `k` nodes nearest to `center` at time `t` (by predicted
    /// position), as `(node, distance)` sorted by ascending
    /// `(distance, node)` — the paper's motivating Ride Finder query
    /// ("monitor nearby taxis"). Returns fewer than `k` entries only when
    /// fewer nodes have reported.
    ///
    /// One pass over the store keeping the best `k`: no spatial structure
    /// is consulted, so the answer is the brute-force one by construction
    /// and costs a few nanoseconds per node (criterion row
    /// `cq_server/nearest_100k`).
    pub fn nearest(&mut self, center: Point, k: usize, t: f64) -> Vec<(u32, f64)> {
        if k == 0 {
            return Vec::new();
        }
        self.evaluations += 1;
        let mut best: BinaryHeap<Hit> = BinaryHeap::with_capacity(k.min(self.store.len()));
        for node in 0..self.store.len() as u32 {
            let Some(p) = self.store.predict(node, t) else {
                continue;
            };
            // `abs` is a no-op on a distance except that it clears a
            // NaN's sign bit, which is what puts NaN last (and not first)
            // under `total_cmp`.
            let hit = Hit {
                distance: p.distance(&center).abs(),
                node,
            };
            if best.len() < k {
                best.push(hit);
            } else if let Some(mut worst) = best.peek_mut() {
                if hit < *worst {
                    *worst = hit;
                }
            }
        }
        best.into_sorted_vec()
            .into_iter()
            .map(|hit| (hit.node, hit.distance))
            .collect()
    }

    /// Predicted position of `node` at `t` (`None` until it reports).
    #[inline]
    pub fn predict(&self, node: u32, t: f64) -> Option<Point> {
        self.store.predict(node, t)
    }

    /// The underlying node store.
    #[inline]
    pub fn store(&self) -> &NodeStore {
        &self.store
    }

    /// Number of evaluation rounds performed.
    #[inline]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The engine's telemetry — placed nodes, cumulative round wall
    /// time, nodes stepped and wheel entries fired / dropped stale. All
    /// zero until the first evaluation.
    pub fn shard_stats(&self) -> ShardStats {
        self.unified.stats()
    }

    /// Cumulative nodes the engine has placed or re-placed —
    /// [`ShardStats::stepped`] — so the difference across one
    /// [`evaluate_into`](Self::evaluate_into) is what that round stepped:
    /// the fleet in a rebuild or a sweep, the re-reported and due nodes
    /// in a kinetic round.
    pub fn stepped_nodes(&self) -> u64 {
        self.unified.stats().stepped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> CqServer {
        CqServer::new(Rect::from_coords(0.0, 0.0, 1000.0, 1000.0), 8, 10)
    }

    #[test]
    fn evaluate_on_reported_positions() {
        let mut s = server();
        s.register_queries([RangeQuery {
            id: 0,
            range: Rect::from_coords(0.0, 0.0, 100.0, 100.0),
        }]);
        s.ingest(0, 0.0, Point::new(50.0, 50.0), (0.0, 0.0));
        s.ingest(1, 0.0, Point::new(500.0, 500.0), (0.0, 0.0));
        let r = s.evaluate(0.0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].nodes, vec![0]);
        assert_eq!(s.evaluations(), 1);
    }

    #[test]
    fn evaluation_uses_predicted_positions() {
        let mut s = server();
        s.register_queries([RangeQuery {
            id: 0,
            range: Rect::from_coords(90.0, 0.0, 200.0, 50.0),
        }]);
        // Node reported at x=50 moving +10 m/s in x: enters the range at
        // t=4 (x=90 is the inclusive min edge... half-open: x >= 90).
        s.ingest(0, 0.0, Point::new(50.0, 10.0), (10.0, 0.0));
        assert!(s.evaluate(0.0)[0].nodes.is_empty());
        assert_eq!(s.evaluate(5.0)[0].nodes, vec![0]);
        // And leaves it by t=16 (x=210).
        assert!(s.evaluate(16.0)[0].nodes.is_empty());
    }

    #[test]
    fn unreported_nodes_are_invisible() {
        let mut s = server();
        s.register_queries([RangeQuery {
            id: 3,
            range: Rect::from_coords(0.0, 0.0, 1000.0, 1000.0),
        }]);
        let r = s.evaluate(1.0);
        assert!(r[0].nodes.is_empty());
        s.ingest(4, 1.0, Point::new(10.0, 10.0), (0.0, 0.0));
        let r = s.evaluate(1.0);
        assert_eq!(r[0].nodes, vec![4]);
    }

    #[test]
    fn multiple_queries_evaluated_together() {
        let mut s = server();
        s.register_queries([
            RangeQuery {
                id: 0,
                range: Rect::from_coords(0.0, 0.0, 100.0, 100.0),
            },
            RangeQuery {
                id: 1,
                range: Rect::from_coords(0.0, 0.0, 1000.0, 1000.0),
            },
        ]);
        s.ingest(2, 0.0, Point::new(400.0, 400.0), (0.0, 0.0));
        s.ingest(5, 0.0, Point::new(10.0, 20.0), (0.0, 0.0));
        let r = s.evaluate(0.0);
        assert_eq!(r[0].nodes, vec![5]);
        assert_eq!(r[1].nodes, vec![2, 5]);
    }

    #[test]
    fn replace_queries_swaps_workload() {
        let mut s = server();
        s.register_queries([RangeQuery {
            id: 0,
            range: Rect::from_coords(0.0, 0.0, 100.0, 100.0),
        }]);
        s.ingest(0, 0.0, Point::new(50.0, 50.0), (0.0, 0.0));
        assert_eq!(s.evaluate(0.0).len(), 1);
        s.replace_queries([
            RangeQuery {
                id: 5,
                range: Rect::from_coords(0.0, 0.0, 60.0, 60.0),
            },
            RangeQuery {
                id: 6,
                range: Rect::from_coords(500.0, 500.0, 900.0, 900.0),
            },
        ]);
        let r = s.evaluate(0.0);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].query, 5);
        assert_eq!(r[0].nodes, vec![0]);
        assert!(r[1].nodes.is_empty());
    }

    #[test]
    fn stale_updates_do_not_corrupt_results() {
        let mut s = server();
        s.register_queries([RangeQuery {
            id: 0,
            range: Rect::from_coords(0.0, 0.0, 100.0, 100.0),
        }]);
        assert!(s.ingest(0, 10.0, Point::new(50.0, 50.0), (0.0, 0.0)));
        // A delayed packet placing the node far away at an earlier time.
        assert!(!s.ingest(0, 2.0, Point::new(900.0, 900.0), (0.0, 0.0)));
        assert_eq!(s.evaluate(10.0)[0].nodes, vec![0]);
    }

    #[test]
    fn nearest_neighbors_basic() {
        let mut s = server();
        for i in 0..6u32 {
            // Nodes on a line at x = 100·(i+1).
            s.ingest(
                i,
                0.0,
                Point::new(100.0 * (i + 1) as f64, 500.0),
                (0.0, 0.0),
            );
        }
        let knn = s.nearest(Point::new(0.0, 500.0), 3, 0.0);
        assert_eq!(
            knn.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(knn[0].1, 100.0);
        assert_eq!(knn[2].1, 300.0);
        // k larger than the population returns everyone.
        assert_eq!(s.nearest(Point::new(0.0, 500.0), 50, 0.0).len(), 6);
        // k = 0 is empty.
        assert!(s.nearest(Point::new(0.0, 500.0), 0, 0.0).is_empty());
    }

    #[test]
    fn nearest_uses_predicted_positions() {
        let mut s = server();
        // Node 0 starts far but races toward the query point.
        s.ingest(0, 0.0, Point::new(900.0, 500.0), (-50.0, 0.0));
        s.ingest(1, 0.0, Point::new(300.0, 500.0), (0.0, 0.0));
        // At t = 0 node 1 is nearer to x=100...
        let knn = s.nearest(Point::new(100.0, 500.0), 1, 0.0);
        assert_eq!(knn[0].0, 1);
        // ...at t = 14 node 0 has moved to x = 200, closer than node 1.
        let knn = s.nearest(Point::new(100.0, 500.0), 1, 14.0);
        assert_eq!(knn[0].0, 0);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let bounds = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let mut server = CqServer::new(bounds, 80, 10);
        let mut truth = Vec::new();
        for i in 0..80u32 {
            let p = Point::new(
                ((i as f64 * 131.7) % 997.0) + 1.0,
                ((i as f64 * 77.3) % 983.0) + 1.0,
            );
            let v = ((i % 5) as f64 - 2.0, (i % 3) as f64 - 1.0);
            server.ingest(i, 0.0, p, v);
            truth.push((i, p, v));
        }
        for (t, cx, cy, k) in [
            (0.0, 10.0, 10.0, 5usize),
            (20.0, 500.0, 500.0, 10),
            (40.0, 990.0, 5.0, 1),
        ] {
            let center = Point::new(cx, cy);
            let mut expected: Vec<(u32, f64)> = truth
                .iter()
                .map(|(n, p, v)| {
                    let q = Point::new(p.x + v.0 * t, p.y + v.1 * t);
                    (*n, q.distance(&center))
                })
                .collect();
            expected.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            expected.truncate(k);
            assert_eq!(server.nearest(center, k, t), expected, "t={t}");
        }
    }

    #[test]
    fn nearest_orders_non_finite_distances_last_instead_of_panicking() {
        let mut s = server();
        s.ingest(0, 0.0, Point::new(300.0, 500.0), (0.0, 0.0));
        s.ingest(1, 0.0, Point::new(100.0, 500.0), (0.0, 0.0));
        // An infinite velocity at dt = 0 predicts to ∞·0 = NaN.
        s.ingest(2, 0.0, Point::new(200.0, 500.0), (f64::INFINITY, 0.0));
        let ids = |knn: Vec<(u32, f64)>| knn.iter().map(|(n, _)| *n).collect::<Vec<_>>();
        // Every reported node is returned when k allows, the NaN one last.
        let knn = s.nearest(Point::new(0.0, 500.0), 3, 0.0);
        assert!(knn[2].1.is_nan());
        assert_eq!(ids(knn), vec![1, 0, 2]);
        assert_eq!(ids(s.nearest(Point::new(0.0, 500.0), 2, 0.0)), vec![1, 0]);
        // A non-finite centre makes every distance non-finite: ties fall
        // back to node id.
        for c in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(ids(s.nearest(Point::new(c, 500.0), 2, 0.0)), vec![0, 1]);
        }
    }

    #[test]
    fn results_exact_versus_brute_force() {
        let mut s = server();
        let q = Rect::from_coords(200.0, 300.0, 700.0, 650.0);
        s.register_queries([RangeQuery { id: 0, range: q }]);
        let positions = [
            (0u32, Point::new(199.9, 400.0)),
            (1, Point::new(200.0, 300.0)),
            (2, Point::new(699.9, 649.9)),
            (3, Point::new(700.0, 400.0)),
            (4, Point::new(450.0, 500.0)),
            (5, Point::new(0.0, 0.0)),
        ];
        for (n, p) in positions {
            s.ingest(n, 0.0, p, (0.0, 0.0));
        }
        let got = s.evaluate(0.0);
        let want: Vec<u32> = positions
            .iter()
            .filter(|(_, p)| q.contains(p))
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(got[0].nodes, want);
    }
}
