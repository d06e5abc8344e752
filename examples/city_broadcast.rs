//! City broadcast: the base-station layer end to end (Sections 2.2, 4.3.2).
//!
//! Computes a LIRA plan for a city, places base stations density-dependently
//! (small cells downtown, large cells in the suburbs), broadcasts each
//! station's region subset, installs it on mobile nodes with the tiny 5×5
//! on-device index, and verifies node-local throttler lookups against the
//! server's plan. Prints the per-station broadcast cost that the paper
//! compares against a single UDP packet.
//!
//! Run with: `cargo run --release --example city_broadcast`

use lira::prelude::*;

fn main() -> Result<()> {
    let net_cfg = NetworkConfig::small(23);
    let bounds = net_cfg.bounds;
    let network = generate_network(&net_cfg);
    let demand = TrafficDemand::random_hotspots(&bounds, 4, 23);
    let mut sim = TrafficSimulator::new(
        network,
        &demand,
        TrafficConfig {
            num_cars: 800,
            seed: 23,
        },
    );
    for _ in 0..90 {
        sim.step(1.0);
    }

    // Plan a 49-region shedding layout at z = 0.5.
    let mut config = LiraConfig::default();
    config.bounds = bounds;
    config = config.with_regions(49);
    let positions: Vec<Point> = sim.cars().iter().map(|c| c.position()).collect();
    let queries = generate_queries(
        &bounds,
        &positions,
        &WorkloadConfig::from_ratio(QueryDistribution::Proportional, 800, 0.01, 400.0, 23),
    );
    let mut grid = StatsGrid::new(config.alpha, bounds)?;
    grid.begin_snapshot();
    for car in sim.cars() {
        grid.observe_node(&car.position(), car.speed(), 1.0);
    }
    for q in &queries {
        grid.observe_query(&q.range);
    }
    grid.commit_snapshot();
    let shedder = LiraShedder::new(config.clone())?;
    let plan = shedder.adapt_with_throttle(&grid, 0.5)?.plan;
    println!(
        "plan: {} regions, {} bytes total",
        plan.len(),
        plan.encode().len()
    );

    // Density-dependent base stations: ≤ 120 nodes per station.
    let stations = density_dependent_placement(&bounds, &positions, 120, 200.0);
    println!(
        "\nplaced {} base stations (density-dependent)",
        stations.len()
    );
    println!(
        "mean regions per station: {:.1} | mean broadcast: {:.0} bytes (UDP payload limit 1472)",
        mean_regions_per_station(&stations, &plan),
        mean_broadcast_bytes(&stations, &plan),
    );

    // Broadcast: every station encodes its subset; nodes install it.
    let mut mismatches = 0usize;
    let mut total_installed = 0usize;
    for (i, car) in sim.cars().iter().enumerate().take(200) {
        let pos = car.position();
        let sid = station_for(&stations, &pos).expect("stations placed");
        let subset = plan.subset_for(&stations[sid as usize].coverage);
        // Wire round-trip: encode at the station, decode on the device.
        let payload: Vec<u8> = SheddingPlan::new(bounds, subset, config.delta_min).encode();
        let received = SheddingPlan::decode(bounds, &payload, config.delta_min)?;
        let node = MobileShedder::install(i as u32, received.regions().to_vec(), config.delta_min);
        total_installed += node.num_regions();

        // The node's local lookup must agree with the server's plan
        // (up to the f32 wire quantization at region borders).
        let local = node.throttler_at(&pos);
        let server = plan.throttler_at(&pos);
        if (local - server).abs() > 1e-3 {
            mismatches += 1;
        }
    }
    println!(
        "installed plans on 200 nodes: avg {:.1} regions/node, {} lookup mismatches",
        total_installed as f64 / 200.0,
        mismatches
    );
    assert!(mismatches <= 2, "node-local lookups diverged from the plan");
    println!("\nnode-local throttler lookups match the server's plan ✓");
    Ok(())
}
