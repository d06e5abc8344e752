//! A car agent: follows a routed path over the road network with smooth,
//! noisy speed dynamics and occasional intersection waits (traffic lights).
//!
//! The speed noise matters for the reproduction: with perfectly constant
//! speeds on straight segments, dead reckoning would only ever report at
//! turns. The stochastic speed process makes the predicted position drift
//! even on straights, producing the `f(Δ)` shape of Figure 1.

use lira_core::geometry::Point;
use rand::Rng;

use crate::road::RoadNetwork;
use crate::router::find_edge;

/// Probability of having to wait when entering a new segment.
const WAIT_PROBABILITY: f64 = 0.25;
/// Maximum wait at an intersection, seconds.
const MAX_WAIT_S: f64 = 15.0;
/// Mean-reversion rate of the speed process (1/s).
const SPEED_REVERSION: f64 = 0.5;
/// Standard deviation of speed noise per √s, m/s.
const SPEED_NOISE: f64 = 1.5;
/// Cars never fully stop while driving (m/s).
const MIN_MOVING_SPEED: f64 = 0.5;

/// A mobile node following routes on the road network.
#[derive(Debug, Clone)]
pub struct Car {
    /// Stable identifier.
    pub id: u32,
    /// Route as intersection indices; the car travels `path[leg] -> path[leg+1]`.
    path: Vec<u32>,
    leg: usize,
    /// Edge id of the current leg, `path[leg] -> path[leg + 1]`: resolved
    /// when a path is handed over and when the leg changes, so the per-tick
    /// arithmetic reads the segment without scanning adjacency lists.
    edge: u32,
    /// Meters traveled along the current segment.
    offset: f64,
    /// Personal speed factor relative to the segment speed limit.
    speed_factor: f64,
    /// Current speed (m/s) of the stochastic speed process.
    current_speed: f64,
    /// Remaining intersection wait, seconds.
    wait_s: f64,
    /// Current position (updated each step).
    position: Point,
    /// Current velocity vector (m/s); zero while waiting.
    velocity: (f64, f64),
}

impl Car {
    /// Creates a car at the start of `path`.
    ///
    /// # Panics
    /// Panics if `path` has fewer than 2 intersections, or if two
    /// consecutive intersections are not joined by a road.
    pub fn new<R: Rng>(id: u32, path: Vec<u32>, network: &RoadNetwork, rng: &mut R) -> Self {
        assert!(path.len() >= 2, "a trip needs at least two intersections");
        let edge = first_edge(&path, network);
        let position = network.node(path[0]);
        let speed_factor = rng.gen_range(0.8..1.15);
        let mut car = Car {
            id,
            path,
            leg: 0,
            edge,
            offset: 0.0,
            speed_factor,
            current_speed: 0.0,
            wait_s: 0.0,
            position,
            velocity: (0.0, 0.0),
        };
        car.current_speed = car.target_speed(network);
        car
    }

    /// Replaces the car's route (used when a trip completes). The new path
    /// must start where the car currently is, and every consecutive pair
    /// of its intersections must be joined by a road.
    pub(crate) fn assign_trip(&mut self, path: Vec<u32>, network: &RoadNetwork) {
        assert!(path.len() >= 2, "a trip needs at least two intersections");
        assert_eq!(
            path[0],
            *self.path.last().expect("non-empty path"),
            "new trip must start at the current intersection"
        );
        self.edge = first_edge(&path, network);
        self.path = path;
        self.leg = 0;
        self.offset = 0.0;
    }

    /// Redirects the car mid-trip: the remainder of the current route is
    /// replaced by `path_from_next`, which must start at the intersection
    /// the car is currently driving toward — see
    /// [`Self::next_intersection`]. The car keeps its position, speed and
    /// any pending wait — it finishes the segment it is on, then follows
    /// the new route. This is how flash-crowd scenarios turn a whole fleet
    /// around without teleporting anyone.
    pub(crate) fn redirect(&mut self, path_from_next: Vec<u32>, network: &RoadNetwork) {
        assert!(
            !path_from_next.is_empty(),
            "redirect path must not be empty"
        );
        assert_eq!(
            path_from_next[0],
            self.next_intersection(),
            "redirect must start at the intersection the car is heading to"
        );
        let mut new_path = Vec::with_capacity(path_from_next.len() + 1);
        new_path.push(self.path[self.leg]);
        new_path.extend(path_from_next);
        self.edge = first_edge(&new_path, network);
        self.path = new_path;
        self.leg = 0;
        // `offset` is kept: it still measures progress along the same
        // (current) segment, now the first leg of the new path.
    }

    /// Applies a multiplicative speed-class factor (pedestrian ≪ 1, drone
    /// ≫ 1) on top of the car's personal factor. Takes effect immediately:
    /// both the long-run target speed and the current speed scale, so a
    /// fleet split into classes diverges from the first step. Calling this
    /// never perturbs any RNG stream.
    pub(crate) fn scale_speed(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "speed factor must be finite and positive"
        );
        self.speed_factor *= factor;
        self.current_speed *= factor;
    }

    /// The intersection the car is currently driving toward.
    #[inline]
    pub(crate) fn next_intersection(&self) -> u32 {
        self.path[self.leg + 1]
    }

    /// Current position.
    #[inline]
    pub fn position(&self) -> Point {
        self.position
    }

    /// Current velocity vector (m/s).
    #[inline]
    pub fn velocity(&self) -> (f64, f64) {
        self.velocity
    }

    /// Current scalar speed (m/s).
    #[inline]
    pub fn speed(&self) -> f64 {
        (self.velocity.0 * self.velocity.0 + self.velocity.1 * self.velocity.1).sqrt()
    }

    /// The intersection the current trip ends at.
    pub fn destination(&self) -> u32 {
        *self.path.last().expect("non-empty path")
    }

    /// The geometry of the rest of the current trip: the car's position
    /// followed by the remaining route intersections. This is what a node
    /// shares with the server under route-based motion modeling
    /// (Civilis et al. \[2\] in the paper's related work).
    pub fn remaining_route(&self, network: &RoadNetwork) -> Vec<Point> {
        let mut route = Vec::with_capacity(self.path.len() - self.leg);
        route.push(self.position);
        for &node in &self.path[self.leg + 1..] {
            route.push(network.node(node));
        }
        route
    }

    fn target_speed(&self, network: &RoadNetwork) -> f64 {
        network.edge(self.edge).class.speed_limit() * self.speed_factor
    }

    /// Advances the car by `dt` seconds. Returns `true` when the trip's
    /// destination was reached during this step (the simulator then assigns
    /// a fresh trip).
    pub fn step<R: Rng>(&mut self, dt: f64, network: &RoadNetwork, rng: &mut R) -> bool {
        debug_assert!(dt > 0.0);
        // Ornstein-Uhlenbeck speed around the segment's target speed.
        let target = self.target_speed(network);
        let noise = gaussian(rng) * SPEED_NOISE * dt.sqrt();
        self.current_speed += SPEED_REVERSION * (target - self.current_speed) * dt + noise;
        // The upper bound must not dip below the floor — a pedestrian-class
        // speed scale can push `target * 1.3` under MIN_MOVING_SPEED, and
        // `f64::clamp` panics on an inverted range.
        self.current_speed = self
            .current_speed
            .clamp(MIN_MOVING_SPEED, (target * 1.3).max(MIN_MOVING_SPEED));

        let mut remaining = dt;
        let mut arrived = false;
        while remaining > 0.0 {
            if self.wait_s > 0.0 {
                let w = self.wait_s.min(remaining);
                self.wait_s -= w;
                remaining -= w;
                continue;
            }
            let length = network.edge(self.edge).length;
            let room = length - self.offset;
            let advance = self.current_speed * remaining;
            if advance < room {
                self.offset += advance;
                remaining = 0.0;
            } else {
                // Cross into the next segment (or finish the trip).
                self.offset = 0.0;
                remaining -= room / self.current_speed;
                self.leg += 1;
                if self.leg + 1 >= self.path.len() {
                    arrived = true;
                    self.leg = self.path.len() - 2; // Park on the last segment's end.
                    self.offset = length;
                    break;
                }
                self.edge = edge_between(network, self.path[self.leg], self.path[self.leg + 1]);
                if rng.gen_bool(WAIT_PROBABILITY) {
                    self.wait_s = rng.gen_range(0.0..MAX_WAIT_S);
                }
            }
        }
        self.update_pose(network);
        arrived
    }

    /// Recomputes position and velocity from (leg, offset).
    fn update_pose(&mut self, network: &RoadNetwork) {
        let a = network.node(self.path[self.leg]);
        let b = network.node(self.path[self.leg + 1]);
        let len = a.distance(&b).max(1e-9);
        // Offset is measured in road meters; project onto the straight
        // segment geometry.
        let t = (self.offset / network.edge(self.edge).length).clamp(0.0, 1.0);
        self.position = Point::new(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t);
        if self.wait_s > 0.0 {
            self.velocity = (0.0, 0.0);
        } else {
            let (ux, uy) = ((b.x - a.x) / len, (b.y - a.y) / len);
            self.velocity = (ux * self.current_speed, uy * self.current_speed);
        }
    }
}

/// The edge joining adjacent intersections `a` and `b`.
fn edge_between(network: &RoadNetwork, a: u32, b: u32) -> u32 {
    match find_edge(network, a, b) {
        Some((edge, _)) => edge,
        None => panic!("route nodes are not adjacent: no road {a} -> {b}"),
    }
}

/// Checks that every leg of `path` follows a road — so a broken route fails
/// where it is handed over, not ticks later when the car reaches the gap —
/// and returns the first leg's edge.
fn first_edge(path: &[u32], network: &RoadNetwork) -> u32 {
    let first = edge_between(network, path[0], path[1]);
    for w in path[1..].windows(2) {
        edge_between(network, w[0], w[1]);
    }
    first
}

/// Standard normal sample via Box–Muller (avoids a `rand_distr` dependency).
pub(crate) fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_network, NetworkConfig};
    use crate::router::shortest_path;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup() -> (crate::road::RoadNetwork, SmallRng) {
        (
            generate_network(&NetworkConfig::small(21)),
            SmallRng::seed_from_u64(99),
        )
    }

    #[test]
    fn car_starts_at_route_origin() {
        let (net, mut rng) = setup();
        let path = shortest_path(&net, 0, 50).unwrap();
        let car = Car::new(1, path.clone(), &net, &mut rng);
        assert_eq!(car.position(), net.node(path[0]));
        assert_eq!(car.destination(), 50);
    }

    #[test]
    fn car_moves_and_stays_on_network_segments() {
        let (net, mut rng) = setup();
        let path = shortest_path(&net, 0, 90).unwrap();
        let mut car = Car::new(1, path, &net, &mut rng);
        let start = car.position();
        let mut moved = false;
        for _ in 0..60 {
            car.step(1.0, &net, &mut rng);
            if car.position().distance(&start) > 1.0 {
                moved = true;
            }
            assert!(net.bounds().contains_closed(&car.position()));
        }
        assert!(moved, "car never moved");
    }

    #[test]
    fn car_eventually_arrives() {
        let (net, mut rng) = setup();
        let path = shortest_path(&net, 0, 11).unwrap();
        let dest = *path.last().unwrap();
        let mut car = Car::new(1, path, &net, &mut rng);
        let mut arrived = false;
        for _ in 0..10_000 {
            if car.step(1.0, &net, &mut rng) {
                arrived = true;
                break;
            }
        }
        assert!(arrived, "trip never completed");
        let d = car.position().distance(&net.node(dest));
        assert!(d < 1.0, "parked {d} m from destination");
    }

    #[test]
    fn displacement_bounded_by_speed() {
        let (net, mut rng) = setup();
        let path = shortest_path(&net, 0, 110).unwrap();
        let mut car = Car::new(1, path, &net, &mut rng);
        for _ in 0..200 {
            let before = car.position();
            car.step(1.0, &net, &mut rng);
            let dist = car.position().distance(&before);
            // 30 m/s expressway limit × 1.15 factor × 1.3 headroom ≈ 45.
            assert!(dist <= 45.0 + 1e-6, "teleported {dist} m in 1 s");
        }
    }

    #[test]
    fn assign_trip_validates_continuity() {
        let (net, mut rng) = setup();
        let path = shortest_path(&net, 0, 11).unwrap();
        let dest = *path.last().unwrap();
        let mut car = Car::new(1, path, &net, &mut rng);
        let next = shortest_path(&net, dest, 40).unwrap();
        car.assign_trip(next, &net);
        assert_eq!(car.destination(), 40);
    }

    #[test]
    #[should_panic(expected = "start at the current intersection")]
    fn assign_trip_rejects_discontinuous_route() {
        let (net, mut rng) = setup();
        let path = shortest_path(&net, 0, 11).unwrap();
        let mut car = Car::new(1, path, &net, &mut rng);
        let bad = shortest_path(&net, 55, 60).unwrap();
        car.assign_trip(bad, &net);
    }

    #[test]
    fn redirect_keeps_pose_and_changes_destination() {
        let (net, mut rng) = setup();
        let path = shortest_path(&net, 0, 110).unwrap();
        let mut car = Car::new(1, path, &net, &mut rng);
        for _ in 0..5 {
            car.step(1.0, &net, &mut rng);
        }
        let pos_before = car.position();
        let vel_before = car.velocity();
        let next = car.next_intersection();
        let new_tail = shortest_path(&net, next, 7).unwrap();
        car.redirect(new_tail, &net);
        assert_eq!(car.position(), pos_before, "redirect must not teleport");
        assert_eq!(car.velocity(), vel_before);
        assert_eq!(car.destination(), 7);
        assert_eq!(car.next_intersection(), next);
        // And the car still drives normally afterwards.
        for _ in 0..50 {
            car.step(1.0, &net, &mut rng);
            assert!(net.bounds().contains_closed(&car.position()));
        }
    }

    #[test]
    #[should_panic(expected = "heading to")]
    fn redirect_rejects_discontinuous_path() {
        let (net, mut rng) = setup();
        let path = shortest_path(&net, 0, 110).unwrap();
        let mut car = Car::new(1, path, &net, &mut rng);
        let next = car.next_intersection();
        let bad = shortest_path(&net, next + 7, 3).unwrap();
        car.redirect(bad, &net);
    }

    // The three hand-over points reject a route with a gap — 0 -> 1 -> 2 and
    // 11 -> 12 follow the 11 × 11 grid's roads, nothing joins them to the
    // far corner 120 — before any `step` reaches it.
    #[test]
    #[should_panic(expected = "no road 1 -> 120")]
    fn new_rejects_a_gapped_route() {
        let (net, mut rng) = setup();
        Car::new(1, vec![0, 1, 120], &net, &mut rng);
    }

    #[test]
    #[should_panic(expected = "no road 12 -> 120")]
    fn assign_trip_rejects_a_gapped_route() {
        let (net, mut rng) = setup();
        let mut car = Car::new(1, vec![0, 11], &net, &mut rng);
        car.assign_trip(vec![11, 12, 120], &net);
    }

    #[test]
    #[should_panic(expected = "no road 2 -> 120")]
    fn redirect_rejects_a_gapped_route() {
        let (net, mut rng) = setup();
        let mut car = Car::new(1, vec![0, 1, 2], &net, &mut rng);
        car.redirect(vec![1, 2, 120], &net);
    }

    #[test]
    fn scale_speed_separates_the_classes() {
        let (net, _) = setup();
        let path = shortest_path(&net, 0, 110).unwrap();
        let mean_speed = |scale: f64, steps: usize| -> f64 {
            // Fresh RNG per class: identical streams, so the scale factor
            // is the only difference.
            let mut rng = SmallRng::seed_from_u64(5);
            let mut car = Car::new(1, path.clone(), &net, &mut rng);
            if scale != 1.0 {
                car.scale_speed(scale);
            }
            let mut sum = 0.0;
            for _ in 0..steps {
                car.step(1.0, &net, &mut rng);
                sum += car.speed();
            }
            sum / steps as f64
        };
        let pedestrian = mean_speed(0.12, 120);
        let car_class = mean_speed(1.0, 120);
        let drone = mean_speed(2.0, 120);
        assert!(
            pedestrian < car_class * 0.5,
            "pedestrian {pedestrian} vs car {car_class}"
        );
        assert!(drone > car_class * 1.3, "drone {drone} vs car {car_class}");
        // The clamp guard holds even when target*1.3 < MIN_MOVING_SPEED.
        assert!(pedestrian >= 0.0);
    }

    #[test]
    fn extreme_slow_class_does_not_panic() {
        let (net, mut rng) = setup();
        let path = shortest_path(&net, 0, 30).unwrap();
        let mut car = Car::new(1, path, &net, &mut rng);
        car.scale_speed(1e-4); // target*1.3 far below MIN_MOVING_SPEED
        for _ in 0..50 {
            car.step(1.0, &net, &mut rng);
        }
        assert!(net.bounds().contains_closed(&car.position()));
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
