//! The shared churning node population the engine benchmarks and the
//! networked load generator replay: a seeded uniform scatter of nodes
//! with random velocities, of which a fixed fraction re-reports (after
//! one reflecting random-walk step) between evaluation rounds.
//! `exp_shard`, the criterion `cq_server/*` rows, `lira-storm` and the
//! repo benchmark (`benchmark/`) all drive the same workload so their
//! numbers are comparable points on one perf trajectory.

use lira_core::geometry::Point;
use lira_server::cq_engine::CqServer;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of the drifting-hotspot population variant
/// ([`ChurnWorkload::with_hotspot`]): a fraction of the fleet confined
/// to a narrow vertical band that sweeps the space — the flash-crowd /
/// commute-drift skew the Lira scenarios produce, concentrated enough
/// to overload a uniform stripe partition.
#[derive(Debug, Clone, Copy)]
pub struct HotspotSpec {
    /// Fraction of the fleet confined to the hot band.
    pub hot_frac: f64,
    /// Band width as a fraction of the space side.
    pub width_frac: f64,
    /// Band drift per round, as a fraction of one full sweep (the band
    /// rides a triangle wave across the space; 0 pins it to the west
    /// edge).
    pub drift_frac: f64,
}

impl Default for HotspotSpec {
    /// 80 % of the fleet in a band a tenth of the space wide, crossing
    /// the space once every 500 rounds.
    fn default() -> Self {
        HotspotSpec {
            hot_frac: 0.8,
            width_frac: 0.1,
            drift_frac: 0.002,
        }
    }
}

/// Hot-band state of the hotspot variant.
struct Hot {
    /// Per hot node (ids `0..base_x.len()`): its fixed x offset within
    /// the band.
    base_x: Vec<f64>,
    width: f64,
    drift: f64,
}

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
    /// Drifting hot band (the skewed variant); `None` for the classic
    /// uniform population.
    hot: Option<Hot>,
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
            hot: None,
        }
    }

    /// The skewed variant of [`new`](Self::new): nodes `0..hot_frac·N`
    /// are squeezed into a vertical band that drifts across the space
    /// (see [`HotspotSpec`]); the rest scatter and walk as usual. Built
    /// on the same seeded draw sequence as `new` with zero extra rng
    /// draws — band offsets are derived by rescaling the already-drawn
    /// x coordinates and the drift is a pure function of the round
    /// counter, so replayed runs stay bit-deterministic.
    pub fn with_hotspot(
        num_nodes: usize,
        seed: u64,
        churn_frac: f64,
        space_m: f64,
        spec: HotspotSpec,
    ) -> Self {
        let mut w = ChurnWorkload::new(num_nodes, seed, churn_frac, space_m);
        let hot_n = ((num_nodes as f64 * spec.hot_frac) as usize).min(num_nodes);
        let width = (spec.width_frac * space_m).clamp(1.0, space_m);
        let base_x: Vec<f64> = w.positions[..hot_n]
            .iter()
            .map(|p| p.x / space_m * width)
            .collect();
        for (i, &bx) in base_x.iter().enumerate() {
            // The band owns a hot node's x outright (x velocity zeroed;
            // y keeps its reflecting walk).
            w.positions[i].x = bx.min(space_m - 1e-6);
            w.velocities[i].0 = 0.0;
        }
        w.hot = Some(Hot {
            base_x,
            width,
            drift: spec.drift_frac,
        });
        w
    }

    /// The hot band's western edge at the *next* step's round counter —
    /// a triangle wave sweeping `[0, space − width]`.
    fn band_shift(&self, hot: &Hot) -> f64 {
        let span = (self.space_m - hot.width).max(0.0);
        let u = (self.round as f64 * hot.drift) % 2.0;
        let tri = if u <= 1.0 { u } else { 2.0 - u };
        tri * span
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
        // Where the hot band sits this round (None for uniform runs).
        let band = self.hot.as_ref().map(|h| {
            let shift = self.band_shift(h);
            (h.base_x.len(), shift)
        });
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
            if let Some((hot_n, shift)) = band {
                if i < hot_n {
                    let bx = self.hot.as_ref().unwrap().base_x[i];
                    self.positions[i].x = (bx + shift).clamp(0.0, space_m - 1e-6);
                }
            }
            let p = self.positions[i];
            let v = self.velocities[i];
            report(i as u32, p, v);
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

    #[test]
    fn hotspot_workload_is_seed_deterministic() {
        let space = 1_000.0;
        let spec = HotspotSpec::default();
        let mut a = ChurnWorkload::with_hotspot(200, 11, 0.1, space, spec);
        let mut b = ChurnWorkload::with_hotspot(200, 11, 0.1, space, spec);
        assert_eq!(a.positions, b.positions);
        for _ in 0..25 {
            a.step_with(|_, _, _| {});
            b.step_with(|_, _, _| {});
            assert_eq!(a.positions, b.positions);
        }
    }

    #[test]
    fn hot_nodes_ride_the_drifting_band_and_cold_nodes_walk_free() {
        let space = 1_000.0;
        let spec = HotspotSpec {
            hot_frac: 0.5,
            width_frac: 0.1,
            drift_frac: 0.01,
        };
        let n = 100;
        let mut w = ChurnWorkload::with_hotspot(n, 5, 1.0, space, spec);
        let hot_n = n / 2;
        let width = spec.width_frac * space;
        let bounds = Rect::from_coords(0.0, 0.0, space, space);
        for round in 0..120 {
            // Band edge for the step that advances round → round + 1.
            let span = space - width;
            let u = (round as f64 * spec.drift_frac) % 2.0;
            let tri = if u <= 1.0 { u } else { 2.0 - u };
            let shift = tri * span;
            w.step_with(|id, p, _| {
                assert!(bounds.contains(&p), "{p} escaped at round {round}");
                if (id as usize) < hot_n {
                    assert!(
                        p.x >= shift - 1e-9 && p.x <= shift + width + 1e-9,
                        "hot node {id} at x={} outside band [{shift}, {}]",
                        p.x,
                        shift + width
                    );
                }
            });
        }
        // The drift actually moved the band a long way from the origin.
        let far = w.positions[..hot_n].iter().map(|p| p.x).fold(0.0, f64::max);
        assert!(far > width, "band never drifted east: max hot x = {far}");
    }

    #[test]
    fn hotspot_leaves_the_uniform_population_untouched() {
        // Cold nodes (and the whole uniform scatter) come from the same
        // seeded draw sequence as `new`, so the variant changes only the
        // hot ids' x coordinates and x velocities.
        let space = 800.0;
        let spec = HotspotSpec {
            hot_frac: 0.25,
            ..HotspotSpec::default()
        };
        let n = 64;
        let uniform = ChurnWorkload::new(n, 9, 0.2, space);
        let hot = ChurnWorkload::with_hotspot(n, 9, 0.2, space, spec);
        let hot_n = (n as f64 * spec.hot_frac) as usize;
        for i in hot_n..n {
            assert_eq!(uniform.positions[i], hot.positions[i]);
            assert_eq!(uniform.velocities[i], hot.velocities[i]);
        }
        for i in 0..hot_n {
            assert_eq!(uniform.positions[i].y, hot.positions[i].y);
            assert_eq!(hot.velocities[i].0, 0.0);
            assert_eq!(uniform.velocities[i].1, hot.velocities[i].1);
        }
    }
}
