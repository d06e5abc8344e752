//! Paper-scale stress tests. Ignored by default (`cargo test -- --ignored`
//! runs them); each finishes in tens of seconds on a modern machine.
//! The first two tests are *not* ignored: they are the stress leg of
//! the unified engine's acceptance battery and run on a compact
//! scenario.

use lira::prelude::*;

/// Bitwise comparison of the deterministic outcome fields (the
/// wall-clock `adapt_micros` values and telemetry timings are exempt).
fn assert_outcomes_identical(a: &PolicyOutcome, b: &PolicyOutcome, ctx: &str) {
    assert_eq!(a.policy, b.policy, "{ctx}");
    assert_eq!(a.metrics, b.metrics, "{ctx}: metrics diverged");
    assert_eq!(a.updates_sent, b.updates_sent, "{ctx}");
    assert_eq!(a.updates_processed, b.updates_processed, "{ctx}");
    assert_eq!(
        a.processed_fraction.to_bits(),
        b.processed_fraction.to_bits(),
        "{ctx}"
    );
    assert_eq!(a.plan_regions, b.plan_regions, "{ctx}");
    assert_eq!(a.faults, b.faults, "{ctx}: fault books");
}

#[test]
fn unified_runs_are_deterministic_across_repeats() {
    // Same seed, run three times, under fault injection (delays,
    // duplicates, loss) that stresses the dirty rounds and the wheel
    // with stale out-of-order ingests. All three reports must be
    // bit-identical.
    let mut sc = Scenario::small(113);
    sc.num_cars = 150;
    sc.warmup_s = 20.0;
    sc.duration_s = 60.0;
    let sc = sc.with_faults(FaultProfile {
        loss: LossModel::Iid { p: 0.1 },
        delay: DelayModel::Uniform {
            min_s: 0.0,
            max_s: 2.0,
        },
        duplicate_prob: 0.05,
        outages: vec![],
        retry: RetryPolicy {
            max_retries: 2,
            backoff_s: 0.5,
        },
    });
    let policies = [Policy::Lira, Policy::RandomDrop];
    let run = || SimPipeline::new().run(&sc, &policies);
    let reports = [run(), run(), run()];
    let first = &reports[0];
    for (i, r) in reports.iter().enumerate().skip(1) {
        assert_eq!(first.reference_updates, r.reference_updates, "run {i}");
        for (oa, ob) in first.outcomes.iter().zip(&r.outcomes) {
            assert_outcomes_identical(oa, ob, &format!("run {i} {:?}", oa.policy));
        }
    }
    // The wheel's fired-entry counter is deterministic, so the runs
    // must agree on it exactly (telemetry permitting).
    let fired = |r: &RunReport| r.outcomes[0].telemetry.counter("shard.due_fired");
    if first.outcomes[0].telemetry.enabled {
        assert!(reports.iter().all(|r| fired(r) == fired(first)));
    }
}

#[test]
fn crossing_heavy_traffic_conserves_memberships_across_stripes() {
    // A tiling query partition over the whole space: every in-bounds
    // node belongs to exactly one tile, so summed tile memberships are a
    // conservation law. Fast horizontal traffic shuttles nodes across
    // cell and tile edges round after round; a lost or duplicated
    // membership edit would break the count immediately.
    const NUM: usize = 64;
    let bounds = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    // 4×4 tiles of 250 m: 16 queries make a 16-column evaluation grid.
    let queries: Vec<RangeQuery> = (0..16)
        .map(|id| {
            let (i, j) = (id % 4, id / 4);
            RangeQuery {
                id: id as u32,
                range: Rect::from_coords(
                    i as f64 * 250.0,
                    j as f64 * 250.0,
                    (i + 1) as f64 * 250.0,
                    (j + 1) as f64 * 250.0,
                ),
            }
        })
        .collect();
    let mut server = CqServer::new(bounds, NUM, 8);
    server.register_queries(queries.iter().copied());
    for n in 0..NUM as u32 {
        let x = 100.0 + (n as f64 * 37.0) % 700.0;
        let y = 3.0 + (n as f64 * 61.0) % 990.0;
        let vx = if n % 2 == 0 { 150.0 } else { -100.0 };
        server.ingest(n, 0.0, Point::new(x, y), (vx, 1.0));
    }
    for round in 0..9 {
        let t = round as f64 * 0.5;
        // Mid-run re-report wave: a third of the fleet reverses course,
        // exercising the dirty-round path mid-traffic.
        if round == 4 {
            for n in (0..NUM as u32).step_by(3) {
                let p = server.predict(n, t).unwrap();
                server.ingest(n, t, p, (-120.0, -1.0));
            }
        }
        let results = server.evaluate(t);
        let mut members: Vec<u32> = results
            .iter()
            .flat_map(|r| r.nodes.iter().copied())
            .collect();
        members.sort_unstable();
        let expected: Vec<u32> = (0..NUM as u32)
            .filter(|&n| server.predict(n, t).is_some_and(|p| bounds.contains(&p)))
            .collect();
        assert_eq!(
            members, expected,
            "round {round}: memberships lost or duplicated"
        );
    }
    let stats = server.shard_stats();
    assert_eq!(stats.nodes, NUM, "every node placed exactly once");
    assert!(
        stats.due_fired > 0,
        "crossing traffic comes due on the wheel"
    );
}

#[test]
#[ignore = "paper-scale: ~10k nodes, run with --ignored"]
fn paper_scale_run_is_stable_and_ordered() {
    let mut sc = Scenario::paper(7);
    sc.duration_s = 600.0; // 10 simulated minutes of the hour-long setup
    let report = run_scenario(&sc, &Policy::ALL);
    assert_eq!(report.num_cars, 10_000);
    assert_eq!(report.num_queries, 100);
    assert!(report.reference_updates > 100_000);
    let m = |p: Policy| report.outcome(p).unwrap().metrics;
    // The paper's ordering at full scale.
    assert!(m(Policy::Lira).mean_position <= m(Policy::LiraGrid).mean_position * 1.25);
    assert!(m(Policy::LiraGrid).mean_position < m(Policy::UniformDelta).mean_position);
    assert!(m(Policy::UniformDelta).mean_position < m(Policy::RandomDrop).mean_position);
    assert!(m(Policy::RandomDrop).mean_position > 5.0 * m(Policy::Lira).mean_position);
}

#[test]
#[ignore = "paper-scale adaptation timing, run with --ignored"]
fn paper_scale_adaptation_stays_lightweight() {
    // The paper's headline overhead claim: configuring LIRA for l = 250,
    // alpha = 128 takes ~40 ms on 2007 hardware; it must stay well under
    // that here, and even l = 4000 / alpha = 512 must stay under 500 ms.
    use std::time::Instant;
    let bounds = Rect::from_coords(0.0, 0.0, 14_142.0, 14_142.0);
    for (l, alpha, budget_ms) in [(250usize, 128usize, 40.0), (4000, 512, 500.0)] {
        let mut grid = StatsGrid::new(alpha, bounds).unwrap();
        grid.begin_snapshot();
        for i in 0..10_000 {
            let x = (i % 100) as f64 * 141.0 + 7.0;
            let y = (i / 100) as f64 * 141.0 + 7.0;
            grid.observe_node(&Point::new(x, y), 10.0 + (i % 20) as f64, 1.0);
        }
        for i in 0..100 {
            let x = (i % 10) as f64 * 1400.0;
            let y = (i / 10) as f64 * 1400.0;
            grid.observe_query(&Rect::from_coords(x, y, x + 1000.0, y + 1000.0));
        }
        grid.commit_snapshot();
        let mut config = LiraConfig::default();
        config.bounds = bounds;
        config.num_regions = l;
        config.alpha = alpha;
        let shedder = LiraShedder::new(config).unwrap();
        let _ = shedder.adapt_with_throttle(&grid, 0.5).unwrap(); // warm-up
        let started = Instant::now();
        let adaptation = shedder.adapt_with_throttle(&grid, 0.5).unwrap();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(adaptation.plan.len(), l);
        assert!(
            ms < budget_ms,
            "(l = {l}, alpha = {alpha}): {ms:.1} ms exceeds the paper's {budget_ms} ms"
        );
    }
}
