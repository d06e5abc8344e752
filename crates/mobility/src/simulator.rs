//! The traffic simulator: a fleet of cars running demand-driven trips over
//! the road network. This regenerates the paper's "hour long car position
//! trace ... simulating the cars going on roads in accordance with the
//! traffic volume data".

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::agent::Car;
use crate::road::RoadNetwork;
use crate::router::RouteCache;
use crate::traffic::{NodeSampler, TrafficDemand};

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Number of mobile nodes (cars).
    pub num_cars: usize,
    /// RNG seed; the simulation is fully deterministic given the seed.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            num_cars: 10_000,
            seed: 17,
        }
    }
}

/// A running traffic simulation. Cloning it (a calibration probe, say)
/// shares the shortest-path trees built so far instead of copying them.
#[derive(Debug, Clone)]
pub struct TrafficSimulator {
    network: RoadNetwork,
    sampler: NodeSampler,
    /// Every trip's route comes from here; the trees depend on the network
    /// only, so a demand change never invalidates them.
    routes: RouteCache,
    cars: Vec<Car>,
    rng: SmallRng,
    time: f64,
    /// Scratch for [`Self::step`]: indices of the cars that arrived.
    arrived: Vec<usize>,
}

impl TrafficSimulator {
    /// Spawns `cfg.num_cars` cars at demand-weighted origins, each with a
    /// demand-weighted destination.
    pub fn new(network: RoadNetwork, demand: &TrafficDemand, cfg: TrafficConfig) -> Self {
        assert!(cfg.num_cars > 0, "need at least one car");
        let mut routes = RouteCache::new(&network);
        let sampler = demand.node_sampler(&network);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut cars = Vec::with_capacity(cfg.num_cars);
        for id in 0..cfg.num_cars {
            let path = sample_trip(&network, &sampler, &mut routes, None, &mut rng);
            cars.push(Car::new(id as u32, path, &network, &mut rng));
        }
        TrafficSimulator {
            network,
            sampler,
            routes,
            cars,
            rng,
            time: 0.0,
            arrived: Vec::new(),
        }
    }

    /// Advances the simulation by `dt` seconds. Cars whose trip completes
    /// immediately receive a fresh demand-weighted trip.
    pub fn step(&mut self, dt: f64) {
        self.time += dt;
        // Every car steps before any arrival draws its next trip: the two
        // share one RNG stream, and its order is part of the determinism
        // contract.
        self.arrived.clear();
        for (i, car) in self.cars.iter_mut().enumerate() {
            if car.step(dt, &self.network, &mut self.rng) {
                self.arrived.push(i);
            }
        }
        for &i in &self.arrived {
            let origin = self.cars[i].destination();
            let path = sample_trip(
                &self.network,
                &self.sampler,
                &mut self.routes,
                Some(origin),
                &mut self.rng,
            );
            self.cars[i].assign_trip(path, &self.network);
        }
    }

    /// Replaces the demand surface governing *future* trips (day/night
    /// commute phases, flash-crowd inversions). Cars already en route keep
    /// their current trip; combine with [`Self::reroute_all`] to turn the
    /// whole fleet toward the new demand at once.
    pub fn set_demand(&mut self, demand: &TrafficDemand) {
        self.sampler = demand.node_sampler(&self.network);
    }

    /// Abandons every car's current trip and assigns a fresh
    /// demand-weighted one, starting from the intersection each car is
    /// already driving toward (no teleporting, no pose change). Cars are
    /// processed in id order off the simulator's own RNG, so the call is
    /// deterministic.
    pub fn reroute_all(&mut self) {
        for i in 0..self.cars.len() {
            let next = self.cars[i].next_intersection();
            let path = sample_trip(
                &self.network,
                &self.sampler,
                &mut self.routes,
                Some(next),
                &mut self.rng,
            );
            self.cars[i].redirect(path, &self.network);
        }
    }

    /// Applies a per-car multiplicative speed factor, keyed by car id —
    /// how heterogeneous fleets (pedestrian/car/drone classes) are set up
    /// after spawning. Consumes no RNG draws, so a scaled fleet's random
    /// stream stays aligned with an unscaled one.
    pub fn scale_speeds<F: Fn(u32) -> f64>(&mut self, factor_of: F) {
        for car in &mut self.cars {
            let f = factor_of(car.id);
            if f != 1.0 {
                car.scale_speed(f);
            }
        }
    }

    /// Elapsed simulation time in seconds.
    #[inline]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The simulated fleet.
    #[inline]
    pub fn cars(&self) -> &[Car] {
        &self.cars
    }

    /// The underlying road network.
    #[inline]
    pub fn network(&self) -> &RoadNetwork {
        &self.network
    }

    /// Fleet-wide mean scalar speed (m/s).
    pub fn mean_speed(&self) -> f64 {
        if self.cars.is_empty() {
            return 0.0;
        }
        self.cars.iter().map(|c| c.speed()).sum::<f64>() / self.cars.len() as f64
    }
}

/// Samples a routable trip. When `from` is given the trip starts there,
/// otherwise the origin is sampled from demand too.
fn sample_trip(
    network: &RoadNetwork,
    sampler: &NodeSampler,
    routes: &mut RouteCache,
    from: Option<u32>,
    rng: &mut SmallRng,
) -> Vec<u32> {
    let origin = from.unwrap_or_else(|| sampler.sample(rng));
    // Reject self-loops and (on pathological networks) unreachable pairs.
    for _ in 0..64 {
        let dest = sampler.sample(rng);
        if dest == origin {
            continue;
        }
        if let Some(path) = routes.route(origin, dest) {
            if path.len() >= 2 {
                return path;
            }
        }
    }
    // Fallback: walk to any neighbor (a connected network always has one).
    let &(_, neighbor) = network
        .neighbors(origin)
        .first()
        .expect("network has no isolated intersections");
    vec![origin, neighbor]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_network, NetworkConfig};
    use lira_core::geometry::Point;

    fn small_sim(cars: usize, seed: u64) -> TrafficSimulator {
        let net = generate_network(&NetworkConfig::small(seed));
        let demand = TrafficDemand::random_hotspots(net.bounds(), 3, seed);
        TrafficSimulator::new(
            net,
            &demand,
            TrafficConfig {
                num_cars: cars,
                seed,
            },
        )
    }

    #[test]
    fn spawns_requested_fleet() {
        let sim = small_sim(50, 3);
        assert_eq!(sim.cars().len(), 50);
        assert_eq!(sim.time(), 0.0);
        for car in sim.cars() {
            assert!(sim.network().bounds().contains_closed(&car.position()));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = small_sim(20, 5);
        let mut b = small_sim(20, 5);
        for _ in 0..30 {
            a.step(1.0);
            b.step(1.0);
        }
        for (ca, cb) in a.cars().iter().zip(b.cars()) {
            assert_eq!(ca.position(), cb.position());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = small_sim(20, 5);
        let mut b = small_sim(20, 6);
        for _ in 0..30 {
            a.step(1.0);
            b.step(1.0);
        }
        let same = a
            .cars()
            .iter()
            .zip(b.cars())
            .filter(|(ca, cb)| ca.position() == cb.position())
            .count();
        assert!(same < 5, "{same} identical positions across seeds");
    }

    #[test]
    fn cars_keep_moving_via_retripping() {
        let mut sim = small_sim(30, 8);
        let initial: Vec<Point> = sim.cars().iter().map(|c| c.position()).collect();
        // 10 simulated minutes: every car should have traveled.
        for _ in 0..600 {
            sim.step(1.0);
        }
        let moved = sim
            .cars()
            .iter()
            .zip(&initial)
            .filter(|(c, p0)| c.position().distance(p0) > 50.0)
            .count();
        assert!(moved > 25, "only {moved}/30 cars moved substantially");
        assert_eq!(sim.time(), 600.0);
    }

    #[test]
    fn consecutive_positions_are_continuous() {
        let net = generate_network(&NetworkConfig::small(31));
        let demand = TrafficDemand::random_hotspots(net.bounds(), 2, 31);
        let cfg = TrafficConfig {
            num_cars: 40,
            seed: 31,
        };
        let mut sim = TrafficSimulator::new(net, &demand, cfg);
        let mut last: Vec<Point> = sim.cars().iter().map(|c| c.position()).collect();
        for tick in 1..=120 {
            sim.step(1.0);
            for (node, (car, a)) in sim.cars().iter().zip(&mut last).enumerate() {
                let b = car.position();
                assert!(
                    a.distance(&b) <= 45.0,
                    "node {node} jumped {} m at tick {tick}",
                    a.distance(&b)
                );
                *a = b;
            }
        }
    }

    #[test]
    fn positions_stay_in_bounds() {
        let mut sim = small_sim(40, 12);
        for _ in 0..300 {
            sim.step(1.0);
            for car in sim.cars() {
                assert!(
                    sim.network().bounds().contains_closed(&car.position()),
                    "car {} escaped to {}",
                    car.id,
                    car.position()
                );
            }
        }
    }

    #[test]
    fn set_demand_and_reroute_redirect_the_fleet() {
        use crate::traffic::Hotspot;
        let mut sim = small_sim(60, 31);
        for _ in 0..30 {
            sim.step(1.0);
        }
        let before: Vec<Point> = sim.cars().iter().map(|c| c.position()).collect();
        // All future demand collapses onto one corner hotspot.
        let corner = Hotspot {
            center: Point::new(1900.0, 1900.0),
            sigma: 120.0,
            weight: 50.0,
        };
        sim.set_demand(&TrafficDemand::new(vec![corner], 0.01));
        sim.reroute_all();
        // Rerouting itself must not move anyone.
        for (car, p0) in sim.cars().iter().zip(&before) {
            assert_eq!(car.position(), *p0);
        }
        // After driving a while, the fleet should crowd toward the corner.
        for _ in 0..600 {
            sim.step(1.0);
        }
        let near = sim
            .cars()
            .iter()
            .filter(|c| c.position().distance(&corner.center) < 600.0)
            .count();
        assert!(near > 30, "only {near}/60 cars converged on the hotspot");
    }

    #[test]
    fn reroute_all_is_deterministic() {
        let make = || {
            let mut sim = small_sim(25, 9);
            for _ in 0..20 {
                sim.step(1.0);
            }
            sim.reroute_all();
            for _ in 0..50 {
                sim.step(1.0);
            }
            sim
        };
        let a = make();
        let b = make();
        for (ca, cb) in a.cars().iter().zip(b.cars()) {
            assert_eq!(ca.position(), cb.position());
        }
    }

    fn assert_same_bits(a: &TrafficSimulator, b: &TrafficSimulator, when: &str) {
        let bits = |sim: &TrafficSimulator| -> Vec<[u64; 4]> {
            sim.cars()
                .iter()
                .map(|c| {
                    let (p, v) = (c.position(), c.velocity());
                    [p.x, p.y, v.0, v.1].map(f64::to_bits)
                })
                .collect()
        };
        assert_eq!(bits(a), bits(b), "{when}");
    }

    #[test]
    fn overflowing_route_budget_changes_nothing() {
        let (mut plenty, mut tight) = (small_sim(60, 27), small_sim(60, 27));
        // Room for four trees: with 60 cars re-tripping from ever new
        // origins the cache starts over again and again.
        let budget = 4 * tight.network.num_nodes();
        tight.routes = RouteCache::with_budget(&tight.network, budget);
        for tick in 0..300 {
            plenty.step(1.0);
            tight.step(1.0);
            assert_same_bits(&plenty, &tight, &format!("tick {tick}"));
            assert!(tight.routes.trees_held() <= 4);
        }
        assert!(plenty.routes.trees_held() > 4, "the budget never bound");
    }

    #[test]
    fn demand_change_keeps_the_trees_and_the_bits() {
        use crate::traffic::Hotspot;
        let corner = TrafficDemand::new(
            vec![Hotspot {
                center: Point::new(1900.0, 1900.0),
                sigma: 120.0,
                weight: 50.0,
            }],
            0.01,
        );
        let replay = || {
            let mut sim = small_sim(40, 33);
            for _ in 0..60 {
                sim.step(1.0);
            }
            sim
        };
        // One simulator turns the fleet with its whole table, the other
        // with a cache that grows trees on demand and starts with none.
        let (mut warm, mut cold) = (replay(), replay());
        let n = cold.network.num_nodes();
        cold.routes = RouteCache::with_budget(&cold.network, n * n - 1);
        assert_eq!(cold.routes.trees_held(), 0);
        let held = warm.routes.trees_held();
        assert!(held > 0);
        warm.set_demand(&corner);
        assert_eq!(warm.routes.trees_held(), held, "set_demand dropped trees");
        warm.reroute_all();
        assert!(
            warm.routes.trees_held() >= held,
            "reroute_all dropped trees"
        );
        cold.set_demand(&corner);
        cold.reroute_all();
        for tick in 0..50 {
            warm.step(1.0);
            cold.step(1.0);
            assert_same_bits(&warm, &cold, &format!("tick {tick} after the switch"));
        }
    }

    #[test]
    fn scale_speeds_splits_the_fleet_into_classes() {
        let mut sim = small_sim(90, 15);
        // Thirds: pedestrians, cars, drones (by id stripe).
        sim.scale_speeds(|id| match id % 3 {
            0 => 0.12,
            1 => 1.0,
            _ => 2.0,
        });
        let mut dist = vec![0.0f64; 90];
        let start: Vec<Point> = sim.cars().iter().map(|c| c.position()).collect();
        for _ in 0..120 {
            sim.step(1.0);
            for (i, car) in sim.cars().iter().enumerate() {
                dist[i] = dist[i].max(car.position().distance(&start[i]));
            }
        }
        let class_mean = |k: u32| {
            let xs: Vec<f64> = (0..90)
                .filter(|i| i % 3 == k as usize)
                .map(|i| dist[i])
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let (ped, car, drone) = (class_mean(0), class_mean(1), class_mean(2));
        assert!(ped < car * 0.6, "pedestrians {ped} m vs cars {car} m");
        assert!(drone > car, "drones {drone} m vs cars {car} m");
    }

    #[test]
    fn mean_speed_is_plausible() {
        let mut sim = small_sim(100, 23);
        for _ in 0..120 {
            sim.step(1.0);
        }
        let v = sim.mean_speed();
        // Between walking pace and the expressway limit; waits drag it down.
        assert!(v > 1.0 && v < 30.0, "mean speed {v} m/s");
    }
}
