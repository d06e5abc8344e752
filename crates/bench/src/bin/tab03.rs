//! Table 3: number of shedding regions per base station as a function of
//! the coverage radius, plus the paper's messaging-cost estimate —
//! density-dependent placement giving ~41 regions ≈ 656 broadcast bytes
//! per station, under the 1472-byte UDP payload limit.

use lira_bench::{print_header, snapshot_grid, ExpArgs};
use lira_core::prelude::*;
use lira_server::prelude::*;
use lira_sim::prelude::SimSetup;

fn main() {
    let mut args = ExpArgs::parse();
    // Table 3 is defined at the paper's geometry; keep the space full-size
    // regardless of scale, but let --quick shrink the fleet.
    args.full = true;
    let mut sc = args.base_scenario();
    if args.nodes.is_none() {
        sc.num_cars = 5_000;
    }
    sc.warmup_s = 120.0;
    print_header(
        "tab03",
        "shedding regions per base station vs coverage radius",
        &args,
        &sc,
    );

    // Build the plan exactly as the server would.
    let SimSetup {
        config,
        bounds,
        sim,
        queries,
        ..
    } = SimSetup::build(&sc, false);
    let positions: Vec<Point> = sim.cars().iter().map(|c| c.position()).collect();
    let grid = snapshot_grid(config.alpha, bounds, &sim, &queries);
    let shedder = LiraShedder::new(config.clone()).unwrap();
    let plan = shedder
        .adapt_with_throttle(&grid, sc.throttle)
        .unwrap()
        .plan;
    println!(
        "plan: l = {} regions over {:.0} km²\n",
        plan.len(),
        bounds.area() / 1e6
    );

    // Table 3 proper: uniform stations at each radius.
    println!("base station radius (km) |   1.0 |   2.0 |   3.0 |   4.0 |   5.0");
    print!("# of Δ_i's per station   |");
    for radius_km in [1.0, 2.0, 3.0, 4.0, 5.0] {
        let stations = uniform_placement(&bounds, radius_km * 1000.0);
        print!(" {:>5.1} |", mean_regions_per_station(&stations, &plan));
    }
    println!("\n");
    println!("paper reference row:        3.1 |  12.5 |  28.2 |  50.2 |  78.5 (l = 250)");

    // Density-dependent placement: the paper's realistic estimate.
    let stations = density_dependent_placement(&bounds, &positions, 150, 400.0);
    let mean_regions = mean_regions_per_station(&stations, &plan);
    let mean_bytes = mean_broadcast_bytes(&stations, &plan);
    println!(
        "\ndensity-dependent placement (≤150 nodes/station): {} stations",
        stations.len()
    );
    println!(
        "mean regions per station: {:.1} → broadcast {:.0} bytes per station",
        mean_regions, mean_bytes
    );
    println!("paper reference: ~41 regions → 41·(3+1)·4 = 656 bytes; UDP payload limit 1472");
    println!(
        "single-packet broadcasts: {}",
        if mean_bytes <= 1472.0 {
            "yes ✓"
        } else {
            "no ✗"
        }
    );

    // Mobile-node-side cost: install on a sample of nodes.
    let sample = positions.len().min(500);
    let mut total = 0usize;
    for (i, p) in positions.iter().take(sample).enumerate() {
        let sid = station_for(&stations, p).unwrap();
        let subset = plan.subset_for(&stations[sid as usize].coverage);
        let mobile = MobileShedder::install(i as u32, subset, config.delta_min);
        total += mobile.num_regions();
    }
    println!(
        "mean regions known per mobile node (sample of {sample}): {:.1}",
        total as f64 / sample as f64
    );
}
