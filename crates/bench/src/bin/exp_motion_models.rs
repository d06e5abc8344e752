//! Motion-model comparison: linear dead reckoning vs route-based models.
//!
//! Section 2.1 of the paper: "A popular motion model is piece-wise linear
//! approximation ..., whereas more advanced models also exist \[2\]. However,
//! for the purpose of this paper the particular motion model used is not of
//! importance." This experiment substantiates both halves of that claim:
//!
//! 1. Route-based models (prediction follows the remaining trip over the
//!    road network) send far fewer updates at the same `Δ` — they do not
//!    break at every turn.
//! 2. The *shape* of `f(Δ)` (non-increasing, steep head, flat tail) — the
//!    only property LIRA's optimizer relies on — holds for both, so either
//!    model can actuate the shedding.

use lira_bench::{print_header, ExpArgs};
use lira_mobility::motion::DeadReckoner;
use lira_mobility::route_motion::RouteReckoner;
use lira_sim::pipeline::SimSetup;
use lira_workload::scenario::Scenario;

fn main() {
    let args = ExpArgs::parse();
    let sc = args.base_scenario();
    print_header(
        "exp_motion_models",
        "linear vs route-based dead reckoning: updates and f(Δ) shape",
        &args,
        &sc,
    );

    let cars = sc.num_cars.min(600);
    let duration = sc.duration_s.max(240.0) as usize;
    let world = Scenario {
        num_cars: cars,
        warmup_s: 0.0,
        ..sc.clone()
    };
    let mut sim = SimSetup::build(&world, false).sim;
    println!("{cars} nodes × {duration} s, both reckoners running side by side\n");

    let deltas = [5.0, 10.0, 25.0, 50.0, 100.0];
    let mut linear: Vec<Vec<DeadReckoner>> = deltas
        .iter()
        .map(|_| vec![DeadReckoner::new(); cars])
        .collect();
    let mut route: Vec<Vec<RouteReckoner>> = deltas
        .iter()
        .map(|_| (0..cars).map(|_| RouteReckoner::new()).collect())
        .collect();

    for _ in 0..duration {
        sim.step(sc.dt);
        let t = sim.time();
        let net = sim.network();
        for (i, car) in sim.cars().iter().enumerate() {
            let (pos, vel) = (car.position(), car.velocity());
            for (d, reckoners) in deltas.iter().zip(linear.iter_mut()) {
                reckoners[i].observe(i as u32, t, pos, vel, *d);
            }
            for (d, reckoners) in deltas.iter().zip(route.iter_mut()) {
                reckoners[i].observe(
                    i as u32,
                    t,
                    pos,
                    || car.remaining_route(net),
                    car.speed(),
                    *d,
                );
            }
        }
    }

    let totals = |per_delta: &[u64]| -> Vec<f64> {
        let base = per_delta[0].max(1) as f64;
        per_delta.iter().map(|&c| c as f64 / base).collect()
    };
    let linear_counts: Vec<u64> = linear
        .iter()
        .map(|rs| rs.iter().map(|r| r.reports()).sum::<u64>())
        .collect();
    let route_counts: Vec<u64> = route
        .iter()
        .map(|rs| rs.iter().map(|r| r.reports()).sum::<u64>())
        .collect();
    let linear_f = totals(&linear_counts);
    let route_f = totals(&route_counts);

    println!("  Δ (m) | linear updates | route updates | linear f(Δ) | route f(Δ) | route/linear");
    println!("--------+----------------+---------------+-------------+------------+-------------");
    for (i, d) in deltas.iter().enumerate() {
        println!(
            "{d:>7.0} | {:>14} | {:>13} | {:>11.3} | {:>10.3} | {:>12.2}",
            linear_counts[i],
            route_counts[i],
            linear_f[i],
            route_f[i],
            route_counts[i] as f64 / linear_counts[i].max(1) as f64,
        );
    }

    println!();
    println!(
        "route-based modeling sends {:.0}% of the linear model's updates at Δ = 25 m;",
        100.0 * route_counts[2] as f64 / linear_counts[2].max(1) as f64
    );
    println!("both f(Δ) columns are non-increasing with a steep head — the only property");
    println!("LIRA's GREEDYINCREMENT optimality (Theorem 3.1) needs — so the Δ knob");
    println!("throttles either model (calibrate the ReductionModel per model in practice).");
}
