//! Figure 1: reduction in the number of location updates received with
//! different inaccuracy thresholds — the empirical `f(Δ)` curve.
//!
//! Runs dead reckoning over the standard scenario's traffic at a sweep of
//! thresholds in one pass, printing the update counts relative to
//! `Δ⊢ = 5 m`, alongside the analytic model the optimizers use by default.

use lira_bench::{print_header, ExpArgs};
use lira_core::reduction::ReductionModel;
use lira_mobility::motion::count_reports;
use lira_sim::pipeline::SimSetup;
use lira_workload::scenario::Scenario;

fn main() {
    let args = ExpArgs::parse();
    let sc = args.base_scenario();
    print_header(
        "fig01",
        "update reduction factor f(Δ), Δ ∈ [5, 100] m",
        &args,
        &sc,
    );

    // Meter the scenario's traffic from its first tick (fewer cars
    // suffice: the reduction factor is a per-node ratio).
    let cars = sc.num_cars.min(if args.full { 2000 } else { 600 });
    let world = Scenario {
        num_cars: cars,
        warmup_s: 0.0,
        ..sc.clone()
    };
    let mut sim = SimSetup::build(&world, false).sim;
    let duration = sc.duration_s.max(240.0);
    println!(
        "trace: {} nodes × {} ticks ({} s at {} Hz)",
        cars,
        (duration / sc.dt).round() as usize + 1,
        duration,
        1.0 / sc.dt
    );

    let deltas: Vec<f64> = vec![
        5.0, 7.5, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0,
    ];
    let measured: Vec<(f64, f64)> = deltas
        .iter()
        .zip(count_reports(&mut sim, duration, sc.dt, &deltas))
        .map(|(&d, c)| (d, c as f64))
        .collect();
    let base = measured[0].1;
    let analytic = ReductionModel::analytic(sc.delta_min, sc.delta_max, sc.lira_config().kappa());

    println!("\n  Δ (m) |   updates | measured f(Δ) | analytic model f(Δ)");
    println!("--------+-----------+---------------+--------------------");
    for (d, count) in &measured {
        println!(
            "{:>7.1} | {:>9.0} | {:>13.4} | {:>19.4}",
            d,
            count,
            count / base,
            analytic.f(*d)
        );
    }

    // The paper's qualitative observations about the curve.
    let f10 = measured[2].1 / base;
    let f100 = measured[13].1 / base;
    println!("\nobservations:");
    println!(
        "  steep head: doubling Δ from 5 to 10 m already drops updates to {:.0}% ",
        f10 * 100.0
    );
    println!(
        "  long tail: at Δ⊣ = 100 m only {:.1}% of the updates remain",
        f100 * 100.0
    );
    let mid_slope = (measured[8].1 - measured[10].1) / base / 20.0;
    let tail_slope = (measured[11].1 - measured[13].1) / base / 20.0;
    println!(
        "  near-linear tail: slope per meter at 50–70 m is {:.5}, at 80–100 m {:.5}",
        mid_slope, tail_slope
    );
}
