//! Geofencing with honest uncertainty: three-valued query results on top
//! of LIRA shedding.
//!
//! A security perimeter (geofence) must alert when vehicles are inside.
//! Under load shedding the server only knows positions to within each
//! region's throttler Δ, so a boolean answer would lie at the fence line.
//! `evaluate_uncertain` splits the answer into *must* (provably inside)
//! and *maybe* (within Δ of the fence) — and the example verifies both
//! guarantees against the simulation's true positions.
//!
//! Run with: `cargo run --release --example geofencing`

use lira::prelude::*;

fn main() -> Result<()> {
    let net_cfg = NetworkConfig::small(31);
    let bounds = net_cfg.bounds;
    let network = generate_network(&net_cfg);
    let demand = TrafficDemand::random_hotspots(&bounds, 3, 31);
    let mut sim = TrafficSimulator::new(
        network,
        &demand,
        TrafficConfig {
            num_cars: 300,
            seed: 31,
        },
    );
    for _ in 0..60 {
        sim.step(1.0);
    }

    // Shed at z = 0.4 with a LIRA plan.
    let mut config = LiraConfig::default();
    config.bounds = bounds;
    config = config.with_regions(25);
    let mut grid = StatsGrid::new(config.alpha, bounds)?;
    grid.begin_snapshot();
    for car in sim.cars() {
        grid.observe_node(&car.position(), car.speed(), 1.0);
    }
    let fence = Rect::from_coords(700.0, 700.0, 1400.0, 1400.0);
    grid.observe_query(&fence);
    grid.commit_snapshot();
    let shedder = LiraShedder::new(config.clone())?;
    let plan = shedder.adapt_with_throttle(&grid, 0.4)?.plan;

    let mut server = CqServer::new(bounds, 300, 64);
    server.register_query(RangeQuery {
        id: 0,
        range: fence,
    });
    let mut reckoners = vec![DeadReckoner::new(); 300];

    println!(
        "geofence {fence} | z = 0.4 | {} shedding regions",
        plan.len()
    );
    println!("\n  time | must | maybe | true inside | guarantee check");
    println!("-------+------+-------+-------------+----------------");
    let mut updates = 0u64;
    for tick in 1..=240u64 {
        sim.step(1.0);
        let t = sim.time();
        for (i, car) in sim.cars().iter().enumerate() {
            let delta = plan.throttler_at(&car.position());
            if let Some(rep) =
                reckoners[i].observe(i as u32, t, car.position(), car.velocity(), delta)
            {
                server.ingest(rep.node, t, rep.model.origin, rep.model.velocity);
                updates += 1;
            }
        }
        if tick % 30 != 0 {
            continue;
        }
        let result = &server.evaluate_uncertain(t, config.delta_max, |_, p| {
            plan.max_throttler_within(&p, config.delta_max)
        })[0];
        let truly_inside: Vec<u32> = sim
            .cars()
            .iter()
            .enumerate()
            .filter(|(_, c)| fence.contains(&c.position()))
            .map(|(i, _)| i as u32)
            .collect();
        // Guarantee 1: every `must` node is truly inside.
        let must_ok = result.must.iter().all(|n| {
            fence
                .expand(1e-6)
                .contains_closed(&sim.cars()[*n as usize].position())
        });
        // Guarantee 2: every truly-inside node is in must ∪ maybe.
        let recall_ok = truly_inside
            .iter()
            .all(|n| result.must.binary_search(n).is_ok() || result.maybe.binary_search(n).is_ok());
        println!(
            "{:>5.0}s | {:>4} | {:>5} | {:>11} | {}",
            t,
            result.must.len(),
            result.maybe.len(),
            truly_inside.len(),
            if must_ok && recall_ok {
                "✓ sound + complete"
            } else {
                "✗ VIOLATED"
            }
        );
        assert!(must_ok, "a must-node was outside the fence");
        assert!(recall_ok, "a vehicle inside the fence was missed");
    }
    println!("\nprocessed {updates} updates; every alert was provably correct and no");
    println!("intruder was missed — the maybe-set is exactly the honest gray zone");
    println!("that load shedding created.");
    Ok(())
}
