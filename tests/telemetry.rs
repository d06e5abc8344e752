//! Integration tests of the telemetry layer's two load-bearing promises
//! (DESIGN.md §10, docs/TELEMETRY.md): instrumentation never changes a
//! policy outcome, and every snapshot survives a JSON round trip.

use lira::prelude::*;
use lira_core::telemetry::{Level, COMPILED_OUT};

fn tiny(seed: u64) -> Scenario {
    let mut sc = Scenario::small(seed);
    sc.num_cars = 120;
    sc.duration_s = 40.0;
    sc.warmup_s = 10.0;
    sc
}

/// Telemetry-on and telemetry-off runs of the same scenario must produce
/// bit-identical policy outcomes: recording observes the simulation, it
/// never participates in it.
#[test]
fn telemetry_does_not_perturb_outcomes() {
    let sc = tiny(41);
    let on = SimPipeline::new()
        .with_telemetry(true)
        .run(&sc, &Policy::ALL);
    let off = SimPipeline::new()
        .with_telemetry(false)
        .run(&sc, &Policy::ALL);

    assert_eq!(on.reference_updates, off.reference_updates);
    for (a, b) in on.outcomes.iter().zip(&off.outcomes) {
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.updates_sent, b.updates_sent);
        assert_eq!(a.updates_processed, b.updates_processed);
        assert_eq!(a.plan_regions, b.plan_regions);
        // Float metrics compared exactly: same bits, not just close.
        assert_eq!(
            a.metrics.mean_containment.to_bits(),
            b.metrics.mean_containment.to_bits(),
            "{}: containment differs with telemetry",
            a.policy.name()
        );
        assert_eq!(
            a.metrics.mean_position.to_bits(),
            b.metrics.mean_position.to_bits(),
            "{}: position error differs with telemetry",
            a.policy.name()
        );
        // And the snapshots reflect the switch.
        assert!(!b.telemetry.enabled);
        assert_eq!(a.telemetry.enabled, !COMPILED_OUT);
    }
}

/// Every lane snapshot of a real run round-trips through its JSON form
/// unchanged, and the lane counters are consistent with the outcome.
#[test]
fn lane_snapshots_round_trip_and_reconcile() {
    let sc = tiny(43);
    let report = run_scenario(&sc, &Policy::ALL);
    for o in &report.outcomes {
        let back = TelemetrySnapshot::from_json(&o.telemetry.to_json()).unwrap();
        assert_eq!(back, o.telemetry, "{} snapshot round trip", o.policy.name());
        assert_eq!(o.telemetry.component, format!("lane:{}", o.policy.name()));
        if COMPILED_OUT {
            continue;
        }
        // The counters must agree with the outcome's own accounting.
        assert_eq!(
            o.telemetry.counter("lane.updates_sent"),
            Some(o.updates_sent),
            "{}",
            o.policy.name()
        );
        assert_eq!(
            o.telemetry.counter("lane.updates_admitted"),
            Some(o.updates_processed),
            "{}",
            o.policy.name()
        );
        // One plan lookup per car per tick; most find the car still in
        // the region its previous lookup found.
        let lookups = o.telemetry.counter("lane.plan_lookups").unwrap();
        let hits = o.telemetry.counter("lane.plan_hint_hits").unwrap();
        let ticks = (sc.duration_s / sc.dt).round() as u64;
        assert_eq!(lookups, ticks * sc.num_cars as u64, "{}", o.policy.name());
        assert!(
            hits * 10 > lookups * 9,
            "{}: {hits} hint hits of {lookups} lookups",
            o.policy.name()
        );
        // One adapt_us sample and one delta_m sample per region per
        // adaptation round.
        let adapts = o.telemetry.histogram("lane.adapt_us").unwrap();
        assert_eq!(adapts.count as usize, o.adapt_micros.len());
        assert!(o.telemetry.histogram("plan.delta_m").unwrap().count > 0);
    }
    let pipe = TelemetrySnapshot::from_json(&report.pipeline_telemetry.to_json()).unwrap();
    assert_eq!(pipe, report.pipeline_telemetry);
    if !COMPILED_OUT {
        for stage in [
            "pipeline.setup_us",
            "pipeline.trace_us",
            "pipeline.reference_us",
            "pipeline.lanes_us",
        ] {
            assert_eq!(
                report.pipeline_telemetry.histogram(stage).unwrap().count,
                1,
                "{stage} records exactly one sample per run"
            );
        }
    }
}

/// The closed-loop runner exports controller and queue telemetry, and an
/// overloaded configuration leaves operator-visible traces (gauges set,
/// latency samples, journal events) exactly as docs/TELEMETRY.md claims.
#[test]
fn adaptive_run_exports_controller_telemetry() {
    let mut sc = tiny(47);
    sc.num_cars = 200;
    sc.duration_s = 120.0;
    let cfg = AdaptiveConfig {
        service_rate: 40.0, // deliberately starved: forces shedding
        queue_capacity: 64,
        control_period_s: 20.0,
    };
    let report = run_adaptive(&sc, &cfg);
    let snap = &report.telemetry;
    let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(&back, snap);
    assert_eq!(snap.component, "adaptive");
    if COMPILED_OUT {
        return;
    }
    // The final control window's operating point is on the gauges.
    assert_eq!(snap.gauge("throtloop.z"), Some(report.final_throttle));
    assert!(snap.gauge("throtloop.lambda").is_some());
    assert!(snap.gauge("queue.depth").is_some());
    // Serviced updates left latency samples.
    assert!(snap.histogram("queue.service_latency_us").unwrap().count > 0);
    // The starved queue overflowed, and the overflow is visible both as
    // a counter and as warn-level journal events.
    let dropped: u64 = report.windows.iter().map(|w| w.dropped).sum();
    assert_eq!(snap.counter("queue.overflow_drops"), Some(dropped));
    if dropped > 0 {
        assert!(snap
            .events
            .iter()
            .any(|e| e.level == Level::Warn && e.message.contains("queue overflow")));
    }
}

/// Seed-merged sweep telemetry accumulates counters across seeds.
#[test]
fn sweep_merges_lane_telemetry_across_seeds() {
    use lira_bench::run_averaged;
    let seeds = [3u64, 5];
    let rows = run_averaged(&seeds, &[Policy::UniformDelta], tiny);
    assert_eq!(rows.len(), 1);
    let merged = &rows[0].1.telemetry;
    assert_eq!(merged.component, "lane:Uniform Delta");
    if COMPILED_OUT {
        return;
    }
    // The merged counter equals the sum of the per-seed runs.
    let total: u64 = seeds
        .iter()
        .map(|&s| {
            run_scenario(&tiny(s), &[Policy::UniformDelta]).outcomes[0]
                .telemetry
                .counter("lane.updates_sent")
                .unwrap()
        })
        .sum();
    assert_eq!(merged.counter("lane.updates_sent"), Some(total));
}

/// `shard.imbalance` is the coefficient of variation of the per-shard
/// node counts at end of run (docs/TELEMETRY.md): always exported, 0 when
/// there is one stripe, positive exactly when the stripes own unequal
/// shares of the fleet.
#[test]
fn shard_imbalance_is_zero_at_one_shard_and_reported_at_four() {
    if COMPILED_OUT {
        return;
    }
    let sc = tiny(53);
    let run = |shards: usize| {
        SimPipeline::new()
            .with_engine(EvalEngine::Unified { shards })
            .run(&sc, &[Policy::Lira])
            .outcomes
            .remove(0)
            .telemetry
    };
    let one = run(1);
    assert_eq!(one.histogram("shard.nodes").unwrap().count, 1);
    assert_eq!(one.gauge("shard.imbalance"), Some(0.0));

    let four = run(4);
    let nodes = four.histogram("shard.nodes").unwrap();
    assert_eq!(nodes.count, 4);
    assert_eq!(nodes.sum, sc.num_cars as u64, "stripes own the fleet");
    let imbalance = four
        .gauge("shard.imbalance")
        .expect("exported at every shard count");
    // σ/µ of four non-negative counts lies in [0, √3].
    assert!((0.0..=3f64.sqrt()).contains(&imbalance), "{imbalance}");
    assert_eq!(imbalance > 0.0, nodes.min != nodes.max);
}
