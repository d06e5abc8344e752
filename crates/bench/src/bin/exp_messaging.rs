//! The l trade-off of Section 2.2 ("Factors Affecting the Number of
//! Shedding Regions"), measured end to end over the wireless layer.
//!
//! Larger l exploits more heterogeneity (better accuracy) but grows the
//! per-station region subsets that must be broadcast on every plan change
//! and re-sent to every node crossing into a new station's coverage area.
//! This experiment runs the mobile side for real — nodes associate with
//! their nearest station, hand off as they move, and receive the region
//! subset on each hand-off — and accounts every byte.

use lira_bench::{print_header, snapshot_grid, ExpArgs};
use lira_core::prelude::*;
use lira_server::prelude::*;
use lira_sim::prelude::{Scenario, SimSetup};

fn main() {
    let args = ExpArgs::parse();
    let base = args.base_scenario();
    print_header(
        "exp_messaging",
        "wireless messaging cost vs number of shedding regions l",
        &args,
        &base,
    );

    println!("     l | regions/station | bcast B/station | Δ-bcast B/station | handoffs/node/h | handoff B/node/h | node mem");
    println!("{}", "-".repeat(112));
    for &l in &[16usize, 64, 250] {
        let r = measure(&base.clone().with_regions(l));
        println!(
            "{l:>6} | {:>15.1} | {:>15.0} | {:>17.0} | {:>15.2} | {:>16.0} | {:>8.1}",
            r.regions_per_station,
            r.broadcast_bytes_per_station,
            r.delta_broadcast_bytes_per_station,
            r.handoffs_per_node_hour,
            r.handoff_bytes_per_node_hour,
            r.regions_per_node,
        );
    }
    println!();
    println!("paper context: per-station broadcasts must fit one UDP packet (1472 B) and");
    println!("per-node state must stay tiny (the paper's l = 250 figure is ~41 regions,");
    println!("656 B). The table shows how both costs scale with l while hand-off *rate*");
    println!("is l-independent (it only depends on station geometry and node speed).");
    println!("Δ-bcast: when the server re-adapts, a station can broadcast only the");
    println!("regions that changed since the previous plan (SheddingPlan::changed_regions)");
    println!("instead of its full subset — the column shows the mean payload of that");
    println!("incremental broadcast for a re-adaptation one minute later.");
}

struct Measured {
    regions_per_station: f64,
    broadcast_bytes_per_station: f64,
    delta_broadcast_bytes_per_station: f64,
    handoffs_per_node_hour: f64,
    handoff_bytes_per_node_hour: f64,
    regions_per_node: f64,
}

fn measure(sc: &Scenario) -> Measured {
    let SimSetup {
        config,
        bounds,
        mut sim,
        queries,
        ..
    } = SimSetup::build(sc, false);

    // Plan from warmed statistics.
    let positions: Vec<Point> = sim.cars().iter().map(|c| c.position()).collect();
    let grid = snapshot_grid(config.alpha, bounds, &sim, &queries);
    let shedder = LiraShedder::new(config.clone()).unwrap();
    let plan = shedder
        .adapt_with_throttle(&grid, sc.throttle)
        .unwrap()
        .plan;

    // Base stations + per-station precomputed subsets.
    let stations = density_dependent_placement(&bounds, &positions, 200, bounds.width() / 32.0);
    let subsets: Vec<Vec<PlanRegion>> = stations
        .iter()
        .map(|s| plan.subset_for(&s.coverage))
        .collect();

    // Mobile side: associate, install, hand off while driving.
    let mut association: Vec<u32> = sim
        .cars()
        .iter()
        .map(|c| station_for(&stations, &c.position()).expect("stations placed"))
        .collect();
    let mut shedders: Vec<MobileShedder> = sim
        .cars()
        .iter()
        .enumerate()
        .map(|(i, _)| {
            MobileShedder::install(
                i as u32,
                subsets[association[i] as usize].clone(),
                config.delta_min,
            )
        })
        .collect();

    let mut handoffs = 0u64;
    let mut handoff_bytes = 0u64;
    let duration = sc.duration_s;
    for _ in 0..(duration as usize) {
        sim.step(1.0);
        for (i, car) in sim.cars().iter().enumerate() {
            let sid = station_for(&stations, &car.position()).expect("stations placed");
            if sid != association[i] {
                association[i] = sid;
                let subset = &subsets[sid as usize];
                handoff_bytes += (subset.len() * 16) as u64;
                shedders[i].handoff(subset.clone());
                handoffs += 1;
            }
        }
    }

    // Re-adapt one minute into the run (traffic has shifted) and measure
    // the incremental broadcast: only regions that changed.
    let regrid = snapshot_grid(config.alpha, bounds, &sim, &queries);
    let new_plan = shedder
        .adapt_with_throttle(&regrid, sc.throttle)
        .unwrap()
        .plan;
    let changed = SheddingPlan::new(bounds, new_plan.changed_regions(&plan), config.delta_min);
    let delta_broadcast_bytes_per_station = stations
        .iter()
        .map(|s| changed.subset_for(&s.coverage).len() * 16)
        .sum::<usize>() as f64
        / stations.len().max(1) as f64;

    let nodes = sc.num_cars as f64;
    let hours = duration / 3600.0;
    Measured {
        regions_per_station: mean_regions_per_station(&stations, &plan),
        broadcast_bytes_per_station: mean_broadcast_bytes(&stations, &plan),
        delta_broadcast_bytes_per_station,
        handoffs_per_node_hour: handoffs as f64 / nodes / hours,
        handoff_bytes_per_node_hour: handoff_bytes as f64 / nodes / hours,
        regions_per_node: shedders.iter().map(|s| s.num_regions()).sum::<usize>() as f64 / nodes,
    }
}
