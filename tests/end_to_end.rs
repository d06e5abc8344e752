//! End-to-end integration tests spanning all crates: traffic simulation →
//! dead reckoning → CQ servers → LIRA adaptation → accuracy metrics.
//!
//! These check the paper's *qualitative* claims on small scenarios; the
//! quantitative reproduction of each figure lives in `lira-bench`.

use lira::prelude::*;

#[test]
fn policy_quality_ordering_matches_paper() {
    // Section 4.3.1: LIRA outperforms Lira-Grid, which outperforms
    // Uniform Δ, which outperforms Random Drop. The LIRA vs Lira-Grid gap
    // needs spatial heterogeneity to show (paper: 1.08–2×), so this test
    // runs the medium default scenario rather than the tiny one, averaged
    // over two seeds: on a single seed the LIRA/Lira-Grid ratio wobbles
    // between ~0.85 and ~1.26 (see EXPERIMENTS.md), which is exactly the
    // single-run noise the parity tolerance below is meant to absorb.
    let reports: Vec<RunReport> = [101u64, 202]
        .iter()
        .map(|&seed| {
            let mut sc = Scenario::default();
            sc.seed = seed;
            sc.duration_s = 240.0;
            run_scenario(&sc, &Policy::ALL)
        })
        .collect();
    let m = |p: Policy| {
        let mut mean = MetricsReport::default();
        for report in &reports {
            let r = report.outcome(p).unwrap().metrics;
            mean.mean_position += r.mean_position / reports.len() as f64;
            mean.mean_containment += r.mean_containment / reports.len() as f64;
        }
        mean
    };

    let lira = m(Policy::Lira);
    let grid = m(Policy::LiraGrid);
    let uniform = m(Policy::UniformDelta);
    let drop = m(Policy::RandomDrop);

    // Paper (Figs. 4–5): Lira-Grid is the closest competitor (1.08–2x
    // LIRA at z = 0.5), so on one seed we only require parity-or-better
    // within noise; the averaged superiority is shown by the fig04/fig08
    // experiment binaries.
    assert!(
        lira.mean_position <= grid.mean_position * 1.25,
        "LIRA {} vs Lira-Grid {}",
        lira.mean_position,
        grid.mean_position
    );
    assert!(
        grid.mean_position < uniform.mean_position,
        "Lira-Grid {} vs Uniform {}",
        grid.mean_position,
        uniform.mean_position
    );
    assert!(
        uniform.mean_position < drop.mean_position,
        "Uniform {} vs Random Drop {}",
        uniform.mean_position,
        drop.mean_position
    );
    // "Vastly superior to random update dropping".
    assert!(
        drop.mean_position > 3.0 * lira.mean_position,
        "Random Drop {} should be several times LIRA {}",
        drop.mean_position,
        lira.mean_position
    );
    // Containment error agrees on the large gap.
    assert!(drop.mean_containment > 2.0 * lira.mean_containment);
}

#[test]
fn smaller_throttle_increases_error() {
    // Figures 4–7: absolute errors grow as the budget shrinks.
    let mut errors = Vec::new();
    for z in [0.8, 0.5, 0.3] {
        let mut sc = Scenario::small(55);
        sc.throttle = z;
        let report = run_scenario(&sc, &[Policy::Lira]);
        errors.push(report.outcome(Policy::Lira).unwrap().metrics.mean_position);
    }
    assert!(
        errors[0] < errors[2],
        "position error should grow as z shrinks: {errors:?}"
    );
}

#[test]
fn near_full_budget_gives_near_zero_error() {
    // The z -> 1 observation: LIRA cuts the small required fraction from
    // query-free regions, leaving query results almost untouched.
    let mut sc = Scenario::small(77);
    sc.throttle = 0.95;
    let report = run_scenario(&sc, &[Policy::Lira, Policy::RandomDrop]);
    let lira = report.outcome(Policy::Lira).unwrap().metrics;
    let drop = report.outcome(Policy::RandomDrop).unwrap().metrics;
    assert!(
        lira.mean_containment < 0.02,
        "LIRA containment at z=0.95: {}",
        lira.mean_containment
    );
    assert!(
        drop.mean_containment > 2.0 * lira.mean_containment,
        "Random Drop {} vs LIRA {}",
        drop.mean_containment,
        lira.mean_containment
    );
}

#[test]
fn all_query_distributions_run() {
    // Figures 5–7 cover Proportional, Inverse, and Random distributions.
    for dist in QueryDistribution::ALL {
        let mut sc = Scenario::small(31);
        sc.query_distribution = dist;
        sc.duration_s = 60.0;
        let report = run_scenario(&sc, &[Policy::Lira, Policy::UniformDelta]);
        let lira = report.outcome(Policy::Lira).unwrap();
        let uniform = report.outcome(Policy::UniformDelta).unwrap();
        assert!(report.num_queries > 0, "{dist:?}");
        assert!(
            lira.metrics.mean_position <= uniform.metrics.mean_position * 1.2,
            "{dist:?}: LIRA {} vs Uniform {}",
            lira.metrics.mean_position,
            uniform.metrics.mean_position
        );
    }
}

#[test]
fn budget_tracking_close_to_throttle_fraction() {
    // The update-budget constraint: processed updates ≈ z × reference.
    let mut sc = Scenario::small(91);
    sc.duration_s = 240.0;
    for z in [0.7, 0.4] {
        sc.throttle = z;
        let report = run_scenario(&sc, &[Policy::Lira]);
        let frac = report.outcome(Policy::Lira).unwrap().processed_fraction;
        assert!(
            (frac - z).abs() < 0.30,
            "z = {z}: processed fraction {frac} too far from budget"
        );
    }
}

#[test]
fn fairness_threshold_bounds_plan_spread() {
    // Section 3.1.1: |Δ_i − Δ_j| ≤ Δ⇔ in the deployed plan.
    let mut sc = Scenario::small(13);
    sc.fairness = 20.0;
    sc.duration_s = 40.0;
    let report = run_scenario(&sc, &[Policy::Lira]);
    assert!(report.outcome(Policy::Lira).is_some());
    // Rebuild the plan directly to inspect the throttlers.
    let config = sc.lira_config();
    let bounds = sc.bounds();
    let network = generate_network(&NetworkConfig {
        bounds,
        spacing: sc.road_spacing,
        arterial_period: sc.arterial_period,
        expressway_period: sc.expressway_period,
        jitter_frac: 0.2,
        dead_zones: sc.dead_zones.clone(),
        seed: sc.seed,
    });
    let demand = TrafficDemand::random_hotspots(&bounds, sc.hotspots, sc.seed);
    let mut sim = TrafficSimulator::new(
        network,
        &demand,
        TrafficConfig {
            num_cars: sc.num_cars,
            seed: sc.seed,
        },
    );
    for _ in 0..60 {
        sim.step(1.0);
    }
    let mut grid = StatsGrid::new(config.alpha, bounds).unwrap();
    grid.begin_snapshot();
    for car in sim.cars() {
        grid.observe_node(&car.position(), car.speed(), 1.0);
    }
    grid.commit_snapshot();
    let shedder = LiraShedder::new(config).unwrap();
    let plan = shedder.adapt_with_throttle(&grid, 0.3).unwrap().plan;
    let max = plan
        .regions()
        .iter()
        .map(|r| r.throttler)
        .fold(f64::MIN, f64::max);
    let min = plan
        .regions()
        .iter()
        .map(|r| r.throttler)
        .fold(f64::MAX, f64::min);
    assert!(
        max - min <= 20.0 + 1e-9,
        "plan spread {} exceeds fairness",
        max - min
    );
}

#[test]
fn random_drop_wastes_wireless_bandwidth() {
    // Section 2.1's first argument against server-actuated shedding: the
    // dropped updates still cross the wireless medium.
    let sc = Scenario::small(41);
    let report = run_scenario(&sc, &[Policy::Lira, Policy::RandomDrop]);
    let lira = report.outcome(Policy::Lira).unwrap();
    let drop = report.outcome(Policy::RandomDrop).unwrap();
    assert!(
        drop.updates_sent as f64 > 1.4 * lira.updates_sent as f64,
        "Random Drop sent {} vs LIRA {}",
        drop.updates_sent,
        lira.updates_sent
    );
}

#[test]
fn facade_prelude_exposes_full_pipeline() {
    // The `lira` facade alone is enough to drive every layer (compile-time
    // oriented test; minimal runtime).
    let bounds = Rect::from_coords(0.0, 0.0, 512.0, 512.0);
    let mut grid = StatsGrid::new(16, bounds).unwrap();
    grid.begin_snapshot();
    grid.observe_node(&Point::new(10.0, 10.0), 5.0, 1.0);
    grid.commit_snapshot();
    let mut config = LiraConfig::default();
    config.bounds = bounds;
    config.num_regions = 4;
    config.alpha = 16;
    let shedder = LiraShedder::new(config).unwrap();
    let adaptation = shedder.adapt_with_throttle(&grid, 0.5).unwrap();
    assert_eq!(adaptation.plan.len(), 4);
    let mobile = MobileShedder::install(0, adaptation.plan.regions().to_vec(), 5.0);
    assert!(mobile.throttler_at(&Point::new(10.0, 10.0)) >= 5.0);
}
