//! Integration tests of the telemetry layer (DESIGN.md §10,
//! docs/TELEMETRY.md): every snapshot survives a JSON round trip, the
//! counters agree with the reports, and the documented keys are the
//! registered ones. That instrumentation never changes a policy outcome
//! is held by the goldens, which pass in the default and the
//! `telemetry-off` build alike.

use std::collections::BTreeSet;

use lira::prelude::*;
use lira_core::telemetry::{Level, COMPILED_OUT};

fn tiny(seed: u64) -> Scenario {
    let mut sc = Scenario::small(seed);
    sc.num_cars = 120;
    sc.duration_s = 40.0;
    sc.warmup_s = 10.0;
    sc
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

/// The engine exports one `shard.nodes` sample a run, and the fleet is
/// what it holds placed at the end.
#[test]
fn shard_stats_export_one_sample_holding_the_fleet() {
    if COMPILED_OUT {
        return;
    }
    let sc = tiny(53);
    let tel = SimPipeline::new()
        .run(&sc, &[Policy::Lira])
        .outcomes
        .remove(0)
        .telemetry;
    let nodes = tel.histogram("shard.nodes").unwrap();
    assert_eq!(nodes.count, 1);
    assert_eq!(nodes.sum, sc.num_cars as u64, "the engine holds the fleet");
    assert_eq!(tel.histogram("shard.round_ns").unwrap().count, 1);
}

/// The backticked first column of every table in docs/TELEMETRY.md §2.
fn documented_keys() -> BTreeSet<String> {
    let doc = include_str!("../docs/TELEMETRY.md");
    let start = doc.find("\n## 2.").expect("TELEMETRY.md has a §2");
    let end = start + doc[start..].find("\n## 3.").expect("and a §3");
    doc[start..end]
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split_once('`'))
        .map(|(key, _)| key.to_string())
        .collect()
}

/// Every metric name a snapshot carries.
fn keys(snap: &TelemetrySnapshot) -> impl Iterator<Item = String> + '_ {
    let counters = snap.counters.iter().map(|m| m.name.clone());
    let gauges = snap.gauges.iter().map(|m| m.name.clone());
    let histograms = snap.histograms.iter().map(|m| m.name.clone());
    counters.chain(gauges).chain(histograms)
}

/// docs/TELEMETRY.md §2 lists exactly the keys the code registers: a
/// fixed lane of every policy over a faulty channel, a closed lane, the
/// pipeline, and a served session that has seen every data-path frame.
#[test]
fn the_metric_reference_is_the_registered_keys() {
    use lira_serve::protocol::{Frame, WireQuery, WireUpdate};
    use lira_serve::session::{ServeConfig, SessionCore};

    if COMPILED_OUT {
        // The end-of-run keys are only registered by a recording build.
        return;
    }
    let mut registered = BTreeSet::new();
    let sc = tiny(59).with_faults(FaultProfile::iid_loss(0.1));
    let report = run_scenario(&sc, &Policy::ALL);
    for o in &report.outcomes {
        registered.extend(keys(&o.telemetry));
    }
    registered.extend(keys(&report.pipeline_telemetry));
    let cfg = AdaptiveConfig {
        service_rate: 40.0,
        queue_capacity: 64,
        control_period_s: 20.0,
    };
    registered.extend(keys(&run_adaptive(&tiny(61), &cfg).telemetry));

    let mut session = SessionCore::new(ServeConfig::new(1000.0, 10));
    let conn = session.open_conn();
    let query = WireQuery {
        id: 0,
        min_x: 0.0,
        min_y: 0.0,
        max_x: 500.0,
        max_y: 500.0,
    };
    let update = WireUpdate {
        id: 1,
        x: 100.0,
        y: 100.0,
        vx: 1.0,
        vy: 0.0,
    };
    for frame in [
        Frame::Register {
            queries: vec![query],
        },
        Frame::Batch {
            t: 0.0,
            updates: vec![update],
        },
        Frame::EvalReq { t: 0.0 },
        Frame::WindowClose {
            t: 1.0,
            window_s: 1.0,
        },
    ] {
        session.handle(conn, frame);
    }
    registered.extend(keys(&session.telemetry_snapshot()));

    let documented = documented_keys();
    assert_eq!(
        documented.difference(&registered).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "documented in TELEMETRY.md §2 but never registered"
    );
    assert_eq!(
        registered.difference(&documented).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "registered but missing from TELEMETRY.md §2"
    );
}
