//! Figure 3: illustration of the (α, l)-partitioning.
//!
//! Renders the mobile-node distribution, the query distribution, and the
//! final GRIDREDUCE partitioning as ASCII heat maps — the same four-panel
//! story as the paper's figure: regions stay coarse where splitting buys
//! no accuracy (query-free areas, homogeneous areas) and drill down where
//! node/query heterogeneity lives.

use lira_bench::{print_header, snapshot_grid, ExpArgs};
use lira_core::prelude::*;
use lira_sim::prelude::SimSetup;

const PANEL: usize = 32;

fn heat_char(v: f64, max: f64) -> char {
    const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    if max <= 0.0 {
        return ' ';
    }
    let idx = ((v / max) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[idx.min(RAMP.len() - 1)]
}

fn render(label: &str, cells: &[f64]) {
    let max = cells.iter().cloned().fold(0.0f64, f64::max);
    println!("{label}:");
    for row in (0..PANEL).rev() {
        let line: String = (0..PANEL)
            .map(|col| heat_char(cells[row * PANEL + col], max))
            .collect();
        println!("  |{line}|");
    }
    println!();
}

fn main() {
    let args = ExpArgs::parse();
    let sc = args.base_scenario();
    print_header(
        "fig03",
        "illustration of the (α, l)-partitioning",
        &args,
        &sc,
    );

    // Traffic + queries exactly as the runner sets them up.
    let SimSetup {
        config,
        bounds,
        sim,
        queries,
        ..
    } = SimSetup::build(&sc, false);
    let positions: Vec<Point> = sim.cars().iter().map(|c| c.position()).collect();

    // Panel 1: node density; panel 2: query density.
    let mut node_cells = vec![0.0f64; PANEL * PANEL];
    for p in &positions {
        let col = ((p.x / bounds.width()) * PANEL as f64).min(PANEL as f64 - 1.0) as usize;
        let row = ((p.y / bounds.height()) * PANEL as f64).min(PANEL as f64 - 1.0) as usize;
        node_cells[row * PANEL + col] += 1.0;
    }
    let mut query_cells = vec![0.0f64; PANEL * PANEL];
    for q in &queries {
        let c = q.range.center();
        let col = ((c.x / bounds.width()) * PANEL as f64).min(PANEL as f64 - 1.0) as usize;
        let row = ((c.y / bounds.height()) * PANEL as f64).min(PANEL as f64 - 1.0) as usize;
        query_cells[row * PANEL + col] += 1.0;
    }
    render("mobile node distribution", &node_cells);
    render("query distribution", &query_cells);

    // Panel 3: the (α, l)-partitioning — region size as resolution, and
    // panel 4: the assigned throttlers.
    let grid = snapshot_grid(config.alpha, bounds, &sim, &queries);
    let shedder = LiraShedder::new(config.clone()).unwrap();
    let adaptation = shedder.adapt_with_throttle(&grid, sc.throttle).unwrap();
    let plan = &adaptation.plan;

    let mut depth_cells = vec![0.0f64; PANEL * PANEL];
    let mut delta_cells = vec![0.0f64; PANEL * PANEL];
    for row in 0..PANEL {
        for col in 0..PANEL {
            let p = Point::new(
                (col as f64 + 0.5) / PANEL as f64 * bounds.width(),
                (row as f64 + 0.5) / PANEL as f64 * bounds.height(),
            );
            let region = plan
                .regions()
                .iter()
                .find(|r| r.area.contains(&p))
                .expect("plan tiles the space");
            // Finer regions → darker in the partitioning panel.
            depth_cells[row * PANEL + col] = (bounds.width() / region.area.width()).log2();
            delta_cells[row * PANEL + col] = region.throttler;
        }
    }
    render("(α, l)-partitioning (darker = finer regions)", &depth_cells);
    render(
        "update throttlers (darker = larger Δ, more shedding)",
        &delta_cells,
    );

    // Region-size histogram: the paper's point that region sizes vary by
    // orders of magnitude (the ×/* examples).
    let mut sizes: Vec<f64> = plan.regions().iter().map(|r| r.area.width()).collect();
    sizes.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "l = {} regions | side lengths: min {:.0} m, median {:.0} m, max {:.0} m ({}x span)",
        plan.len(),
        sizes[0],
        sizes[sizes.len() / 2],
        sizes[sizes.len() - 1],
        (sizes[sizes.len() - 1] / sizes[0]).round()
    );
    let query_free = adaptation
        .partitioning
        .regions
        .iter()
        .filter(|r| r.queries < 1e-6)
        .count();
    println!(
        "query-free regions (the paper's A× case, left coarse): {} of {}",
        query_free,
        plan.len()
    );
}
