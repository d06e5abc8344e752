//! Quickstart: one LIRA adaptation step from scratch.
//!
//! Builds a small synthetic city, observes its traffic into the statistics
//! grid, runs GRIDREDUCE + GREEDYINCREMENT at a 50% update budget, and
//! prints the resulting shedding regions with their update throttlers.
//!
//! Run with: `cargo run --release --example quickstart`

use lira::prelude::*;

fn main() -> Result<()> {
    // 1. A ~2 km² synthetic city with 3 traffic hotspots and 400 cars.
    let net_cfg = NetworkConfig::small(42);
    let bounds = net_cfg.bounds;
    let network = generate_network(&net_cfg);
    let demand = TrafficDemand::random_hotspots(&bounds, 3, 42);
    let mut sim = TrafficSimulator::new(
        network,
        &demand,
        TrafficConfig {
            num_cars: 400,
            seed: 42,
        },
    );
    println!(
        "city: {:.1} km² | {} intersections | {} cars",
        bounds.area() / 1e6,
        sim.network().num_nodes(),
        sim.cars().len()
    );

    // Let traffic flow for two simulated minutes.
    for _ in 0..120 {
        sim.step(1.0);
    }

    // 2. A range-CQ workload following the node distribution (m/n = 0.02).
    let positions: Vec<Point> = sim.cars().iter().map(|c| c.position()).collect();
    let queries = generate_queries(
        &bounds,
        &positions,
        &WorkloadConfig::from_ratio(QueryDistribution::Proportional, 400, 0.02, 300.0, 42),
    );
    println!("queries: {} range CQs", queries.len());

    // 3. Feed the statistics grid — LIRA's only data structure.
    let mut config = LiraConfig::default();
    config.bounds = bounds;
    config = config.with_regions(25); // l = 25 shedding regions (25 mod 3 = 1)
    let mut grid = StatsGrid::new(config.alpha, bounds)?;
    grid.begin_snapshot();
    for car in sim.cars() {
        grid.observe_node(&car.position(), car.speed(), 1.0);
    }
    for q in &queries {
        grid.observe_query(&q.range);
    }
    grid.commit_snapshot();

    // 4. One adaptation step at throttle fraction z = 0.5: keep only half
    //    of the position updates, placed where they hurt accuracy least.
    let shedder = LiraShedder::new(config.clone())?;
    let adaptation = shedder.adapt_with_throttle(&grid, 0.5)?;

    println!(
        "\nadaptation took {:?} | budget met: {} | objective Σ mᵢ·Δᵢ = {:.1}",
        adaptation.elapsed, adaptation.solution.budget_met, adaptation.solution.inaccuracy
    );
    println!("\n  # |        region (m)        |  side |  nodes | queries | Δ (m)");
    println!("----+--------------------------+-------+--------+---------+------");
    for (i, (region, stats)) in adaptation
        .plan
        .regions()
        .iter()
        .zip(&adaptation.partitioning.regions)
        .enumerate()
    {
        println!(
            "{:>3} | ({:>6.0},{:>6.0})-({:>6.0},{:>6.0}) | {:>5.0} | {:>6.1} | {:>7.2} | {:>5.1}",
            i,
            region.area.min.x,
            region.area.min.y,
            region.area.max.x,
            region.area.max.y,
            region.area.width(),
            stats.nodes,
            stats.queries,
            region.throttler,
        );
    }

    // 5. What a mobile node does with the plan: a local throttler lookup.
    let me = sim.cars()[0].position();
    println!(
        "\na node at {me} uses inaccuracy threshold Δ = {:.1} m",
        adaptation.plan.throttler_at(&me)
    );
    println!(
        "broadcast size for the full plan: {} bytes ({} regions × 16 B)",
        adaptation.plan.encode().len(),
        adaptation.plan.len()
    );
    Ok(())
}
