//! The fairness threshold's raison d'être (Section 3.1.1): historic and
//! ad-hoc snapshot queries.
//!
//! LIRA's continual queries only need accuracy *inside query regions*, so
//! without a fairness bound the optimizer abandons query-free regions to
//! `Δ⊣`. But a system answering *ad-hoc* snapshot queries against the
//! *past* needs every node tracked everywhere. This experiment runs LIRA
//! at several fairness thresholds, records all reported motion models in a
//! [`HistoryStore`], then asks random historical snapshot queries and
//! compares against the reference (`Δ⊢`) history.
//!
//! Expected trade-off (the inverse of Figure 11): the *continual* queries
//! get better as `Δ⇔` relaxes, while the *ad-hoc historical* queries get
//! worse — exactly why `Δ⇔` is exposed as a knob.

use lira_bench::{print_header, snapshot_grid, ExpArgs};
use lira_core::prelude::*;
use lira_mobility::prelude::*;
use lira_server::prelude::*;
use lira_sim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args = ExpArgs::parse();
    let mut base = args.base_scenario();
    base.throttle = 0.4;
    print_header(
        "exp_history",
        "ad-hoc historical snapshot accuracy vs fairness threshold Δ⇔ (z = 0.4)",
        &args,
        &base,
    );

    println!("   Δ⇔ | CQ E^C_rr | snapshot E^C_rr | snapshot E^P_rr (m)");
    println!("-------+-----------+-----------------+--------------------");
    let mut cq_err = Vec::new();
    let mut snap_pos = Vec::new();
    for &fairness in &[5.0, 25.0, 50.0, 95.0] {
        let mut cq = 0.0;
        let mut sc_err = 0.0;
        let mut sp_err = 0.0;
        for &seed in &args.seeds {
            let mut sc = base.clone();
            sc.seed = seed;
            sc.fairness = fairness;
            let (c, s_c, s_p) = run_with_history(&sc);
            cq += c;
            sc_err += s_c;
            sp_err += s_p;
        }
        let k = args.seeds.len() as f64;
        println!(
            "{fairness:>6.0} | {:>9.4} | {:>15.4} | {:>19.3}",
            cq / k,
            sc_err / k,
            sp_err / k
        );
        cq_err.push(cq / k);
        snap_pos.push(sp_err / k);
    }
    println!();
    // A trend holds only if every step of the column takes it, not just
    // the end points.
    let cq_falls = cq_err.windows(2).all(|w| w[1] < w[0]);
    let snap_rises = snap_pos.windows(2).all(|w| w[1] > w[0]);
    println!(
        "trade-off observed: continual-query error {} with Δ⇔, historical snapshot error {}",
        if cq_falls {
            "falls"
        } else {
            "does not fall monotonically"
        },
        if snap_rises {
            "rises"
        } else {
            "does not rise monotonically"
        },
    );
    println!("paper claim (Section 3.1.1): Δ⇔ trades CQ accuracy for uniform tracking that");
    println!("historic/ad-hoc snapshot queries need.");
}

/// Runs one LIRA simulation keeping full report histories; returns
/// (continual E^C_rr, historical snapshot E^C_rr, historical snapshot E^P_rr).
fn run_with_history(sc: &Scenario) -> (f64, f64, f64) {
    let SimSetup {
        config,
        bounds,
        mut sim,
        queries,
        ..
    } = SimSetup::build(sc, false);

    // Plan once from the warmed-up statistics.
    let grid = snapshot_grid(config.alpha, bounds, &sim, &queries);
    let shedder = LiraShedder::new(config.clone()).unwrap();
    let plan = shedder
        .adapt_with_throttle(&grid, sc.throttle)
        .unwrap()
        .plan;

    // Two servers + two histories (reference at Δ⊢, shed per plan).
    let mut ref_server = CqServer::new(bounds, sc.num_cars, 64);
    let mut shed_server = CqServer::new(bounds, sc.num_cars, 64);
    ref_server.register_queries(queries.iter().copied());
    shed_server.register_queries(queries.iter().copied());
    let mut ref_history = HistoryStore::new(sc.num_cars);
    let mut shed_history = HistoryStore::new(sc.num_cars);
    let mut ref_reckoners = vec![DeadReckoner::new(); sc.num_cars];
    let mut shed_reckoners = vec![DeadReckoner::new(); sc.num_cars];

    let mut cq_acc = MetricsAccumulator::new(queries.len());
    let ticks = sc.duration_s as usize;
    let eval_every = sc.eval_period_s as usize;
    for tick in 1..=ticks {
        sim.step(sc.dt);
        let t = sim.time();
        for (i, car) in sim.cars().iter().enumerate() {
            let (pos, vel) = (car.position(), car.velocity());
            if let Some(rep) = ref_reckoners[i].observe(i as u32, t, pos, vel, sc.delta_min) {
                ref_server.ingest(rep.node, t, rep.model.origin, rep.model.velocity);
                ref_history.record(rep.node, t, rep.model.origin, rep.model.velocity);
            }
            let delta = plan.throttler_at(&pos);
            if let Some(rep) = shed_reckoners[i].observe(i as u32, t, pos, vel, delta) {
                shed_server.ingest(rep.node, t, rep.model.origin, rep.model.velocity);
                shed_history.record(rep.node, t, rep.model.origin, rep.model.velocity);
            }
        }
        if tick % eval_every == 0 {
            let ref_results = ref_server.evaluate(t);
            let shed_results = shed_server.evaluate(t);
            let errors = evaluation_errors(
                &ref_results,
                &shed_results,
                |n| ref_server.predict(n, t),
                |n| shed_server.predict(n, t),
            );
            cq_acc.record(&errors);
        }
    }

    // Ad-hoc historical snapshots: random square windows at random past
    // times (second half of the run, so histories are warm), placed
    // *uniformly* — history queries do not follow the CQ workload.
    let mut rng = SmallRng::seed_from_u64(sc.seed ^ 0x5151);
    let mut containment = 0.0;
    let mut pos_err_sum = 0.0;
    let mut pos_err_cnt = 0usize;
    const SNAPSHOTS: usize = 60;
    for _ in 0..SNAPSHOTS {
        let t = sc.warmup_s + sc.duration_s * rng.gen_range(0.5..1.0);
        let side = rng.gen_range(sc.query_side / 2.0..=sc.query_side);
        let center = Point::new(
            rng.gen_range(bounds.min.x..bounds.max.x),
            rng.gen_range(bounds.min.y..bounds.max.y),
        );
        let range = Rect::centered_clamped(center, side, side, &bounds);
        let truth = ref_history.snapshot_range(&range, t);
        let got = shed_history.snapshot_range(&range, t);
        let missing = lira_server::query::sorted_difference_count(&truth, &got);
        let extra = lira_server::query::sorted_difference_count(&got, &truth);
        containment += (missing + extra) as f64 / truth.len().max(1) as f64;
        for &n in &got {
            if let (Some(a), Some(b)) = (
                shed_history.position_at(n, t),
                ref_history.position_at(n, t),
            ) {
                pos_err_sum += a.distance(&b);
                pos_err_cnt += 1;
            }
        }
    }
    (
        cq_acc.report().mean_containment,
        containment / SNAPSHOTS as f64,
        pos_err_sum / pos_err_cnt.max(1) as f64,
    )
}
