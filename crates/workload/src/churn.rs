//! The shared churning node population the engine benchmarks and the
//! networked load generator replay: a seeded uniform scatter of nodes
//! with random velocities, of which a fixed fraction re-reports (after
//! one reflecting random-walk step) between evaluation rounds. The
//! criterion `cq_server/*` rows, `lira-storm` and the repo benchmark
//! (`benchmark/`) all drive the same workload so their numbers are
//! comparable points on one perf trajectory. The engine's work on a
//! skewed population is pinned as exact counts in
//! `crates/server/tests/work_pin.rs`, not timed here.

use lira_core::geometry::Point;
use lira_server::cq_engine::CqServer;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A node population plus the walk that re-reports a `churn_frac`
/// fraction of it per round, identically for every consumer — an
/// in-process [`CqServer`] or a wire client batching the reports.
pub struct ChurnWorkload {
    /// Current node positions (also the seed scatter for query
    /// generation, before any [`step`](Self::step)).
    pub positions: Vec<Point>,
    velocities: Vec<(f64, f64)>,
    space_m: f64,
    churn: usize,
    round: usize,
}

impl ChurnWorkload {
    /// A seeded population of `num_nodes` over a `space_m` × `space_m`
    /// square, re-reporting `churn_frac` of the fleet per round.
    pub fn new(num_nodes: usize, seed: u64, churn_frac: f64, space_m: f64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let positions = (0..num_nodes)
            .map(|_| Point::new(rng.gen_range(0.0..space_m), rng.gen_range(0.0..space_m)))
            .collect();
        let velocities = (0..num_nodes)
            .map(|_| (rng.gen_range(-15.0..15.0), rng.gen_range(-15.0..15.0)))
            .collect();
        ChurnWorkload {
            positions,
            velocities,
            space_m,
            churn: ((num_nodes as f64 * churn_frac) as usize).max(1),
            round: 0,
        }
    }

    /// Number of nodes re-reporting per [`step`](Self::step).
    pub fn churn_per_round(&self) -> usize {
        self.churn
    }

    /// Visits every node once with its initial state (the steady-state
    /// population), in ascending id order.
    pub fn prime_with(&self, mut report: impl FnMut(u32, Point, (f64, f64))) {
        for (i, (&p, &v)) in self.positions.iter().zip(&self.velocities).enumerate() {
            report(i as u32, p, v);
        }
    }

    /// Reports every node once at t = 0 directly into a server.
    pub fn prime(&self, server: &mut CqServer) {
        self.prime_with(|id, p, v| {
            server.ingest(id, 0.0, p, v);
        });
    }

    /// Advances one round: `churn` nodes walk one step (reflecting off
    /// the bounds) and re-report through the callback, in the walk's
    /// deterministic node order.
    pub fn step_with(&mut self, mut report: impl FnMut(u32, Point, (f64, f64))) {
        let n = self.positions.len();
        let start = (self.round * self.churn) % n;
        let space_m = self.space_m;
        for k in 0..self.churn {
            let i = (start + k) % n;
            let (vx, vy) = &mut self.velocities[i];
            let p = &mut self.positions[i];
            p.x += *vx;
            p.y += *vy;
            if p.x < 0.0 || p.x >= space_m {
                *vx = -*vx;
                p.x = p.x.clamp(0.0, space_m - 1e-6);
            }
            if p.y < 0.0 || p.y >= space_m {
                *vy = -*vy;
                p.y = p.y.clamp(0.0, space_m - 1e-6);
            }
            report(i as u32, *p, (*vx, *vy));
        }
        self.round += 1;
    }

    /// [`step_with`](Self::step_with) ingesting directly into a server.
    /// Reports stay at t = 0 — the store accepts same-time updates, so
    /// occupancy is stationary no matter how many rounds the timing loop
    /// runs.
    pub fn step(&mut self, server: &mut CqServer) {
        self.step_with(|id, p, v| {
            server.ingest(id, 0.0, p, v);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lira_core::geometry::Rect;

    #[test]
    fn workload_is_seed_deterministic_and_stays_in_bounds() {
        let space = 1_000.0;
        let bounds = Rect::from_coords(0.0, 0.0, space, space);
        let mut a = ChurnWorkload::new(200, 7, 0.1, space);
        let mut b = ChurnWorkload::new(200, 7, 0.1, space);
        assert_eq!(a.positions, b.positions);
        let mut sa = CqServer::new(bounds, 200, 8);
        let mut sb = CqServer::new(bounds, 200, 8);
        a.prime(&mut sa);
        b.prime(&mut sb);
        for _ in 0..30 {
            a.step(&mut sa);
            b.step(&mut sb);
            assert_eq!(a.positions, b.positions);
            for p in &a.positions {
                assert!(bounds.contains(p), "{p} escaped");
            }
        }
        // 30 rounds × 20 churned nodes wrap the population index space.
        assert_eq!(sa.store().updates_applied(), sb.store().updates_applied());
    }

    #[test]
    fn callback_replay_matches_direct_ingest() {
        // A wire client capturing reports and replaying them into its own
        // server must land in exactly the state of direct ingest.
        let space = 500.0;
        let bounds = Rect::from_coords(0.0, 0.0, space, space);
        let mut direct = ChurnWorkload::new(64, 3, 0.25, space);
        let mut relayed = ChurnWorkload::new(64, 3, 0.25, space);
        let mut sa = CqServer::new(bounds, 64, 8);
        let mut sb = CqServer::new(bounds, 64, 8);
        direct.prime(&mut sa);
        let mut batch: Vec<(u32, Point, (f64, f64))> = Vec::new();
        relayed.prime_with(|id, p, v| batch.push((id, p, v)));
        for (id, p, v) in batch.drain(..) {
            sb.ingest(id, 0.0, p, v);
        }
        for _ in 0..10 {
            direct.step(&mut sa);
            relayed.step_with(|id, p, v| batch.push((id, p, v)));
            for (id, p, v) in batch.drain(..) {
                sb.ingest(id, 0.0, p, v);
            }
            assert_eq!(direct.positions, relayed.positions);
        }
        assert_eq!(sa.store().updates_applied(), sb.store().updates_applied());
        assert_eq!(sa.evaluate(0.0), sb.evaluate(0.0));
    }
}
