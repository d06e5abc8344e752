//! Determinism and invariant tests for the mobility substrate — the
//! foundation the sharded engine's bit-identity contract stands on:
//! every downstream "same seed ⇒ same report" assertion is vacuous
//! unless the traffic itself replays bit-identically. Pins three
//! contracts:
//!
//! 1. **Replay determinism** — a `(network, demand, config)` seed tuple
//!    reproduces every car's kinematic state bit for bit, tick by tick,
//!    and [`count_reports`] meters it identically.
//! 2. **Spatial containment** — simulated cars never leave the network's
//!    bounds.
//! 3. **Pinned goldens** — an FNV-1a digest of every car's kinematic
//!    state after N ticks, captured while the simulator still ran one
//!    point-to-point `shortest_path` per trip: a routing or stepping
//!    change that alters one path, one RNG draw or one rounding fails
//!    here, not only in `benchmark/expected.json`.
//! 4. **Model determinism** — [`TrafficDemand`] sampling and
//!    [`RouteReckoner`] reporting are pure functions of their seeds and
//!    inputs, and route predictions honor the Δ deviation bound between
//!    reports.

use lira_core::geometry::{Point, Rect};
use lira_mobility::motion::count_reports;
use lira_mobility::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn build_sim(seed: u64, num_cars: usize) -> TrafficSimulator {
    let network = generate_network(&NetworkConfig::small(seed));
    let bounds = *network.bounds();
    let demand = TrafficDemand::random_hotspots(&bounds, 3, seed);
    TrafficSimulator::new(network, &demand, TrafficConfig { num_cars, seed })
}

#[test]
fn simulator_replays_bit_identically_with_same_seed() {
    let mut a = build_sim(11, 60);
    let mut b = build_sim(11, 60);
    for tick in 0..120 {
        a.step(1.0);
        b.step(1.0);
        assert_eq!(a.time().to_bits(), b.time().to_bits());
        for (i, (ca, cb)) in a.cars().iter().zip(b.cars()).enumerate() {
            let (pa, pb) = (ca.position(), cb.position());
            assert_eq!(
                (pa.x.to_bits(), pa.y.to_bits()),
                (pb.x.to_bits(), pb.y.to_bits()),
                "tick {tick}: car {i} position diverged: {pa} vs {pb}"
            );
            let (va, vb) = (ca.velocity(), cb.velocity());
            assert_eq!(
                (va.0.to_bits(), va.1.to_bits()),
                (vb.0.to_bits(), vb.1.to_bits()),
                "tick {tick}: car {i} velocity diverged"
            );
        }
    }
}

/// FNV-1a over every car's `(x, y, vx, vy).to_bits()`, in id order.
fn fleet_digest(sim: &TrafficSimulator) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for car in sim.cars() {
        let (p, v) = (car.position(), car.velocity());
        for bits in [p.x, p.y, v.0, v.1].map(f64::to_bits) {
            for byte in bits.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn small_network_fleet_digest_is_pinned() {
    let mut sim = build_sim(11, 60);
    for _ in 0..400 {
        sim.step(1.0);
    }
    assert_eq!(fleet_digest(&sim), 0x2f67_0d07_7369_fded);
}

/// The paper's world: 10 000 cars on the 3 249-intersection default
/// network, through a 300-tick warm-up.
#[test]
#[ignore = "paper scale; CI's stress job runs it in release"]
fn paper_scale_fleet_digest_is_pinned() {
    let network = generate_network(&NetworkConfig::default());
    assert_eq!(network.num_nodes(), 3249);
    let demand = TrafficDemand::random_hotspots(network.bounds(), 5, 42);
    let cfg = TrafficConfig {
        num_cars: 10_000,
        seed: 42,
    };
    let mut sim = TrafficSimulator::new(network, &demand, cfg);
    for _ in 0..300 {
        sim.step(1.0);
    }
    assert_eq!(fleet_digest(&sim), 0x680a_c356_5fa0_d823);
}

#[test]
fn cars_stay_inside_network_bounds() {
    let mut sim = build_sim(13, 80);
    let bounds = *sim.network().bounds();
    // Edge endpoints may sit exactly on the boundary, so the containment
    // check is closed (with a float hair of slack).
    let closed = bounds.expand(1e-6);
    for tick in 0..200 {
        sim.step(1.0);
        for (i, car) in sim.cars().iter().enumerate() {
            let p = car.position();
            assert!(
                closed.contains_closed(&p),
                "tick {tick}: car {i} at {p} escaped {bounds:?}"
            );
            assert!(car.speed().is_finite() && car.speed() >= 0.0);
        }
    }
}

#[test]
fn metered_traffic_is_deterministic_and_in_bounds() {
    let mut a = build_sim(17, 50);
    let mut b = build_sim(17, 50);
    let bounds = a.network().bounds().expand(1e-6);
    for tick in 0..=90 {
        if tick > 0 {
            a.step(1.0);
            b.step(1.0);
        }
        assert_eq!(a.cars().len(), b.cars().len());
        for (node, (ca, cb)) in a.cars().iter().zip(b.cars()).enumerate() {
            let (pa, pb) = (ca.position(), cb.position());
            assert_eq!(
                (pa.x.to_bits(), pa.y.to_bits()),
                (pb.x.to_bits(), pb.y.to_bits()),
                "tick {tick} node {node}"
            );
            let (va, vb) = (ca.velocity(), cb.velocity());
            assert_eq!(
                (va.0.to_bits(), va.1.to_bits()),
                (vb.0.to_bits(), vb.1.to_bits()),
                "tick {tick} node {node}"
            );
            assert!(bounds.contains_closed(&pa), "car {pa} out of bounds");
        }
    }
    // Derived statistics inherit the determinism: identical update
    // counts at every threshold, pinned exactly (dead reckoning need not
    // report less at every wider Δ); the finest threshold reports and
    // the coarsest sheds.
    let deltas = [5.0, 25.0, 100.0];
    let counts = count_reports(&mut build_sim(17, 50), 90.0, 1.0, &deltas);
    assert_eq!(
        counts,
        count_reports(&mut build_sim(17, 50), 90.0, 1.0, &deltas)
    );
    assert_eq!(counts, [1060, 481, 273]);
    assert!(counts[0] > 0, "some node must have moved");
    assert!(counts[2] < counts[0], "the coarsest threshold must shed");
}

#[test]
fn traffic_demand_is_a_pure_function_of_its_seed() {
    let bounds = Rect::from_coords(0.0, 0.0, 4000.0, 4000.0);
    let a = TrafficDemand::random_hotspots(&bounds, 4, 29);
    let b = TrafficDemand::random_hotspots(&bounds, 4, 29);
    assert_eq!(a.hotspots().len(), b.hotspots().len());
    for (ha, hb) in a.hotspots().iter().zip(b.hotspots()) {
        assert_eq!(ha.center, hb.center);
        assert_eq!(ha.sigma.to_bits(), hb.sigma.to_bits());
        assert_eq!(ha.weight.to_bits(), hb.weight.to_bits());
    }
    // Density is finite and non-negative everywhere, and identically
    // seeded samplers draw identical node sequences.
    let network = generate_network(&NetworkConfig::small(29));
    for i in 0..20 {
        let p = Point::new(i as f64 * 200.0, (i * 7 % 20) as f64 * 200.0);
        let d = a.density(&p);
        assert!(d.is_finite() && d >= 0.0, "density at {p}: {d}");
        assert_eq!(d.to_bits(), b.density(&p).to_bits());
    }
    let (sa, sb) = (a.node_sampler(&network), b.node_sampler(&network));
    assert_eq!(sa.len(), sb.len());
    let mut ra = SmallRng::seed_from_u64(5);
    let mut rb = SmallRng::seed_from_u64(5);
    for _ in 0..200 {
        let (na, nb) = (sa.sample(&mut ra), sb.sample(&mut rb));
        assert_eq!(na, nb);
        assert!((na as usize) < sa.len());
    }
}

#[test]
fn route_reckoners_report_deterministically_and_honor_delta() {
    let mut sim = build_sim(37, 40);
    let delta = 20.0;
    let mut reck_a = vec![RouteReckoner::new(); 40];
    let mut reck_b = vec![RouteReckoner::new(); 40];
    for _ in 0..150 {
        sim.step(1.0);
        let t = sim.time();
        let network = sim.network();
        for (i, car) in sim.cars().iter().enumerate() {
            let pos = car.position();
            let speed = car.speed();
            let rep_a = reck_a[i].observe(
                i as u32,
                t,
                pos,
                || car.remaining_route(network),
                speed,
                delta,
            );
            let rep_b = reck_b[i].observe(
                i as u32,
                t,
                pos,
                || car.remaining_route(network),
                speed,
                delta,
            );
            // Identical inputs, identical decisions and models.
            match (&rep_a, &rep_b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.node, b.node);
                    assert_eq!(a.model, b.model);
                }
                _ => panic!("car {i}: reckoners disagreed at t = {t}"),
            }
            // The reckoner contract: between reports the shared model
            // predicts within Δ of the true position.
            let model = reck_a[i].last_model().expect("first observation reports");
            assert!(
                model.predict(t).distance(&pos) <= delta + 1e-9,
                "car {i}: route prediction drifted past Δ at t = {t}"
            );
        }
    }
    assert_eq!(
        reck_a.iter().map(|r| r.reports()).sum::<u64>(),
        reck_b.iter().map(|r| r.reports()).sum::<u64>()
    );
    // Routes actually re-reported somewhere (the model is exercised).
    assert!(reck_a.iter().map(|r| r.reports()).sum::<u64>() > 40);
}
