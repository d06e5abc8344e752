//! The value of frequent adaptation (Section 4.3.2: "This will enable
//! frequent adaptation...").
//!
//! The query workload churns mid-run: at t = duration/2 every continual
//! query is replaced by a fresh set drawn from a different seed (new users,
//! new places). Two LIRA deployments race: one re-adapts its shedding plan
//! every minute, the other keeps the plan computed for the *initial*
//! workload. Errors are reported separately for the pre-churn and
//! post-churn halves — the frozen plan should match the adaptive one before
//! the churn and degrade after it.

use lira_bench::{print_header, snapshot_grid, ExpArgs};
use lira_core::prelude::*;
use lira_mobility::prelude::*;
use lira_server::prelude::*;
use lira_sim::prelude::*;
use lira_workload::prelude::*;

fn main() {
    let args = ExpArgs::parse();
    let mut base = args.base_scenario();
    base.duration_s = base.duration_s.max(240.0);
    print_header(
        "exp_adaptivity",
        "frozen vs periodically re-adapted plan under query churn",
        &args,
        &base,
    );

    println!("variant         | E^C before churn | E^C after churn | degradation");
    println!("----------------+------------------+-----------------+------------");
    let mut rows = Vec::new();
    for (label, adaptive) in [("re-adapting", true), ("frozen plan", false)] {
        let mut pre = 0.0;
        let mut post = 0.0;
        for &seed in &args.seeds {
            let mut sc = base.clone();
            sc.seed = seed;
            let (a, b) = run_churn(&sc, adaptive);
            pre += a;
            post += b;
        }
        let k = args.seeds.len() as f64;
        println!(
            "{label:<15} | {:>16.4} | {:>15.4} | {:>10.2}x",
            pre / k,
            post / k,
            (post / k) / (pre / k).max(1e-9)
        );
        rows.push((label, pre / k, post / k));
    }
    println!();
    let frozen_post = rows[1].2;
    let adaptive_post = rows[0].2;
    println!(
        "after the churn, the frozen plan's containment error is {:.1}x the re-adapting one's:",
        frozen_post / adaptive_post.max(1e-9)
    );
    println!("the shedding regions and throttlers must track the query workload, and the");
    println!("few-millisecond adaptation step (fig14) makes minute-scale re-planning free.");
}

/// Returns (pre-churn E^C_rr, post-churn E^C_rr) for one run.
fn run_churn(sc: &Scenario, adaptive: bool) -> (f64, f64) {
    // The setup's query workload is exactly `workload(sc.seed, ..)`; the
    // closure is kept for the mid-run churn draw.
    let SimSetup {
        config,
        bounds,
        mut sim,
        mut queries,
        ..
    } = SimSetup::build(sc, false);
    let workload = |seed: u64, positions: &[Point]| {
        generate_queries(
            &bounds,
            positions,
            &WorkloadConfig::from_ratio(
                sc.query_distribution,
                sc.num_cars,
                sc.query_ratio,
                sc.query_side,
                seed,
            ),
        )
    };

    let mut reference = CqServer::new(bounds, sc.num_cars, 64);
    let mut shed = CqServer::new(bounds, sc.num_cars, 64);
    reference.register_queries(queries.iter().copied());
    shed.register_queries(queries.iter().copied());
    let mut ref_reckoners = vec![DeadReckoner::new(); sc.num_cars];
    let mut shed_reckoners = vec![DeadReckoner::new(); sc.num_cars];
    let shedder = LiraShedder::new(config.clone()).unwrap();
    let adapt = |sim: &TrafficSimulator, queries: &[RangeQuery]| {
        let grid = snapshot_grid(config.alpha, bounds, sim, queries);
        shedder
            .adapt_with_throttle(&grid, sc.throttle)
            .expect("adaptation succeeds")
            .plan
    };
    let mut plan = adapt(&sim, &queries);

    let mut pre = MetricsAccumulator::new(queries.len());
    let mut post = MetricsAccumulator::new(queries.len());
    let total_ticks = sc.duration_s as usize;
    let churn_tick = total_ticks / 2;
    let eval_every = sc.eval_period_s as usize;
    const ADAPT_EVERY: usize = 60;

    for tick in 1..=total_ticks {
        sim.step(sc.dt);
        let t = sim.time();

        if tick == churn_tick {
            // The workload churns: all queries replaced.
            let positions: Vec<Point> = sim.cars().iter().map(|c| c.position()).collect();
            queries = workload(sc.seed ^ 0xbeef, &positions);
            reference.replace_queries(queries.iter().copied());
            shed.replace_queries(queries.iter().copied());
        }
        if adaptive && tick % ADAPT_EVERY == 0 {
            plan = adapt(&sim, &queries);
        }

        for (i, car) in sim.cars().iter().enumerate() {
            let (pos, vel) = (car.position(), car.velocity());
            if let Some(rep) = ref_reckoners[i].observe(i as u32, t, pos, vel, sc.delta_min) {
                reference.ingest(rep.node, t, rep.model.origin, rep.model.velocity);
            }
            let delta = plan.throttler_at(&pos);
            if let Some(rep) = shed_reckoners[i].observe(i as u32, t, pos, vel, delta) {
                shed.ingest(rep.node, t, rep.model.origin, rep.model.velocity);
            }
        }

        if tick % eval_every == 0 {
            let ref_results = reference.evaluate(t);
            let shed_results = shed.evaluate(t);
            let errors = evaluation_errors(
                &ref_results,
                &shed_results,
                |n| reference.predict(n, t),
                |n| shed.predict(n, t),
            );
            // Skip the eval immediately after churn: both accumulators see
            // the same brand-new queries with cold result sets.
            if tick < churn_tick {
                pre.record(&errors);
            } else if tick > churn_tick + eval_every {
                post.record(&errors);
            }
        }
    }
    (
        pre.report().mean_containment,
        post.report().mean_containment,
    )
}
