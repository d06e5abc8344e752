//! Integration tests of the telemetry layer (DESIGN.md §10,
//! docs/TELEMETRY.md): every snapshot survives a JSON round trip, the
//! counters agree with the reports, and the documented keys are the
//! registered ones. That instrumentation never changes a policy outcome
//! is held by the goldens, which pass in the default and the
//! `telemetry-off` build alike.

use std::collections::BTreeSet;

use lira::prelude::*;
use lira_core::telemetry::COMPILED_OUT;

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

/// The closed-loop runner exports controller and queue telemetry: its
/// window ring is the report's window timeline bit for bit, and an
/// overloaded configuration leaves operator-visible traces (latency
/// samples, overflow drops on the counter and in the ring) exactly as
/// docs/TELEMETRY.md claims.
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
        // The ring records nothing; the report keeps its own timeline.
        assert!(snap.windows.is_empty() && !report.windows.is_empty());
        return;
    }
    let bits = |w: &WindowDecision| {
        let reals = [
            w.time,
            w.arrival_rate,
            w.service_rate,
            w.throttle_before,
            w.throttle,
        ];
        (
            reals.map(f64::to_bits),
            w.queue_len,
            w.dropped,
            w.step,
            w.adapt_due,
        )
    };
    assert_eq!(
        snap.windows.iter().map(bits).collect::<Vec<_>>(),
        report.windows.iter().map(bits).collect::<Vec<_>>(),
        "the ring holds the report's windows"
    );
    assert_eq!(snap.windows_dropped, 0);
    // The last window's z is the run's final throttle.
    let last = snap.windows.last().expect("a window closed");
    assert_eq!(last.throttle.to_bits(), report.final_throttle.to_bits());
    // Serviced updates left latency samples.
    assert!(snap.histogram("queue.service_latency_us").unwrap().count > 0);
    // The starved queue overflowed, and the overflow is visible both on
    // the counter and in the windows that dropped.
    let dropped: u64 = snap.windows.iter().map(|w| w.dropped).sum();
    assert!(dropped > 0, "the starved queue must overflow");
    assert_eq!(snap.counter("queue.overflow_drops"), Some(dropped));
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

/// A snapshot's layout, one `kind name component unit` line per metric
/// in snapshot order.
fn layout(snap: &TelemetrySnapshot) -> Vec<String> {
    let line =
        |kind, name: &str, component: &str, unit: &str| format!("{kind} {name} {component} {unit}");
    let counters = (snap.counters.iter()).map(|m| line("counter", &m.name, &m.component, &m.unit));
    let gauges = (snap.gauges.iter()).map(|m| line("gauge", &m.name, &m.component, &m.unit));
    let histograms =
        (snap.histograms.iter()).map(|m| line("histogram", &m.name, &m.component, &m.unit));
    counters.chain(gauges).chain(histograms).collect()
}

/// The four snapshot shapes: a fixed lane of every policy over a faulty
/// channel, a starved closed lane, the pipeline, and a served session
/// after a short overloaded storm and one refused frame.
fn pinned_snapshots() -> Vec<TelemetrySnapshot> {
    use lira_serve::protocol::Frame;
    use lira_serve::session::{ServeConfig, SessionCore};
    use lira_serve::storm::{run_storm, InprocTransport, StormConfig, Transport};

    let sc = tiny(59).with_faults(FaultProfile::iid_loss(0.1));
    let report = run_scenario(&sc, &Policy::ALL);
    let mut snaps: Vec<_> = report.outcomes.into_iter().map(|o| o.telemetry).collect();
    snaps.push(report.pipeline_telemetry);
    let mut closed = tiny(61);
    closed.num_cars = 200;
    closed.duration_s = 120.0;
    let cfg = AdaptiveConfig {
        service_rate: 20.0,
        queue_capacity: 64,
        control_period_s: 10.0,
    };
    snaps.push(run_adaptive(&closed, &cfg).telemetry);

    let mut serve = ServeConfig::new(1000.0, 200);
    serve.num_regions = 49;
    serve.queue_capacity = 48;
    let mut storm = StormConfig::new(200, 1000.0);
    storm.rounds = 12;
    storm.eval_every = 3;
    storm.window_every = 3;
    storm.batch_cap = 64;
    let mut t = InprocTransport::new(SessionCore::new(serve));
    run_storm(&mut t, &storm).expect("in-process storm");
    t.send(&Frame::EvalReq { t: f64::NAN }).unwrap();
    assert!(matches!(t.recv().unwrap(), Frame::Error { .. }));
    snaps.push(t.session().telemetry_snapshot());
    snaps
}

/// A fixed lane's layout in a recording build.
const FIXED_LANE: [&str; 27] = [
    "counter lane.updates_sent sim.lane updates",
    "counter lane.updates_admitted sim.lane updates",
    "counter lane.updates_shed sim.lane updates",
    "counter lane.plan_lookups sim.lane lookups",
    "counter lane.plan_hint_hits sim.lane lookups",
    "counter grid_reduce.cells_visited core.grid_reduce cells",
    "counter grid_reduce.gain_evals core.grid_reduce evals",
    "counter grid_reduce.heap_pops core.grid_reduce pops",
    "counter grid_reduce.regions_emitted core.grid_reduce regions",
    "counter greedy.steps core.greedy_increment steps",
    "counter channel.rng_draws server.channel draws",
    "counter channel.transmissions server.channel sends",
    "counter channel.retries server.channel sends",
    "counter channel.lost server.channel updates",
    "counter channel.duplicates server.channel updates",
    "counter shard.due_fired server.sharded entries",
    "counter shard.due_stale server.sharded entries",
    "gauge lane.throttle sim.lane fraction",
    "gauge utility.score_max core.utility score",
    "histogram lane.adapt_us sim.lane us",
    "histogram plan.delta_m core.plan m",
    "histogram lane.region_admitted sim.lane updates",
    "histogram lane.region_shed sim.lane updates",
    "histogram utility.score core.utility milli",
    "histogram shard.stepped_nodes server.sharded nodes",
    "histogram shard.nodes server.sharded nodes",
    "histogram shard.round_ns server.sharded ns",
];

/// The closed lane's layout in a recording build (its uplink is perfect).
const CLOSED_LANE: [&str; 27] = [
    "counter lane.updates_sent sim.lane updates",
    "counter lane.updates_admitted sim.lane updates",
    "counter lane.updates_shed sim.lane updates",
    "counter lane.plan_lookups sim.lane lookups",
    "counter lane.plan_hint_hits sim.lane lookups",
    "counter grid_reduce.cells_visited core.grid_reduce cells",
    "counter grid_reduce.gain_evals core.grid_reduce evals",
    "counter grid_reduce.heap_pops core.grid_reduce pops",
    "counter grid_reduce.regions_emitted core.grid_reduce regions",
    "counter greedy.steps core.greedy_increment steps",
    "counter queue.overflow_drops server.queue updates",
    "counter throtloop.clamped_steps core.throt_loop steps",
    "counter throtloop.held_steps core.throt_loop steps",
    "counter throtloop.overload_steps core.throt_loop steps",
    "counter shard.due_fired server.sharded entries",
    "counter shard.due_stale server.sharded entries",
    "gauge lane.throttle sim.lane fraction",
    "gauge utility.score_max core.utility score",
    "histogram lane.adapt_us sim.lane us",
    "histogram plan.delta_m core.plan m",
    "histogram lane.region_admitted sim.lane updates",
    "histogram lane.region_shed sim.lane updates",
    "histogram utility.score core.utility milli",
    "histogram shard.stepped_nodes server.sharded nodes",
    "histogram queue.service_latency_us server.queue us",
    "histogram shard.nodes server.sharded nodes",
    "histogram shard.round_ns server.sharded ns",
];

const PIPELINE: [&str; 4] = [
    "histogram pipeline.setup_us sim.pipeline us",
    "histogram pipeline.trace_us sim.pipeline us",
    "histogram pipeline.reference_us sim.pipeline us",
    "histogram pipeline.lanes_us sim.pipeline us",
];

const SESSION: [&str; 13] = [
    "counter serve.rx.frames serve frames",
    "counter serve.rx.bytes serve bytes",
    "counter serve.rx.updates serve updates",
    "counter serve.queue.admitted serve updates",
    "counter serve.queue.dropped serve updates",
    "counter serve.plan.broadcasts serve frames",
    "counter serve.plan.bytes serve bytes",
    "counter serve.protocol.errors serve errors",
    "histogram serve.queue.wait_us serve us",
    "histogram serve.eval.round_us serve us",
    "histogram serve.eval.stepped_nodes serve nodes",
    "histogram serve.adapt.us serve us",
    "histogram serve.rx.batch_updates serve updates",
];

/// The keys a lane exports only at the end of a recording run: a
/// `telemetry-off` snapshot leaves them out.
const END_OF_RUN: [&str; 9] = [
    "channel.rng_draws",
    "channel.transmissions",
    "channel.retries",
    "channel.lost",
    "channel.duplicates",
    "shard.due_fired",
    "shard.due_stale",
    "shard.nodes",
    "shard.round_ns",
];

/// Each pinned snapshot: component, recording-build layout, counter
/// values, gauge values, windows kept. A `telemetry-off` build keeps the
/// layout less [`END_OF_RUN`] and reads zero everywhere.
type Pin = (
    &'static str,
    &'static [&'static str],
    &'static [u64],
    &'static [f64],
    usize,
);

const PINS: [Pin; 9] = [
    (
        "lane:LIRA",
        &FIXED_LANE,
        &[
            803, 725, 0, 4800, 4549, 345, 341, 4, 13, 310, 803, 803, 0, 78, 0, 91, 0,
        ],
        &[0.5, 0.0],
        0,
    ),
    (
        "lane:Lira-Grid",
        &FIXED_LANE,
        &[
            766, 692, 0, 4800, 4581, 1024, 0, 0, 9, 214, 766, 766, 0, 74, 0, 92, 0,
        ],
        &[0.5, 0.0],
        0,
    ),
    (
        "lane:Uniform Delta",
        &FIXED_LANE,
        &[
            750, 685, 0, 4800, 4680, 0, 0, 0, 0, 0, 750, 750, 0, 65, 0, 92, 0,
        ],
        &[0.5, 0.0],
        0,
    ),
    (
        "lane:Random Drop",
        &FIXED_LANE,
        &[
            1226, 553, 536, 4800, 4680, 0, 0, 0, 0, 0, 1226, 1226, 0, 137, 0, 85, 0,
        ],
        &[0.5, 0.0],
        0,
    ),
    (
        "lane:Utility Greedy",
        &FIXED_LANE,
        &[
            792, 704, 0, 4800, 4581, 1024, 0, 0, 9, 4, 792, 792, 0, 88, 0, 87, 0,
        ],
        &[0.5, 3.9999999999999987],
        0,
    ),
    (
        "lane:Utility Model",
        &FIXED_LANE,
        &[
            805, 721, 0, 4800, 4581, 1024, 0, 0, 9, 386, 805, 805, 0, 84, 0, 81, 0,
        ],
        &[0.5, 3.9999999999999987],
        0,
    ),
    ("pipeline", &PIPELINE, &[], &[], 0),
    (
        "adaptive",
        &CLOSED_LANE,
        &[
            2838, 2400, 0, 24000, 21119, 4140, 4092, 48, 156, 5102, 421, 1, 0, 0, 119, 0,
        ],
        &[0.331855552887794, 0.0],
        12,
    ),
    (
        "serve",
        &SESSION,
        &[28, 15528, 415, 192, 223, 4, 3280, 1],
        &[],
        4,
    ),
];

/// Every snapshot keeps its metrics' order, names, components and units,
/// and every counter and gauge value, in both builds.
#[test]
fn the_snapshot_layouts_and_values_are_pinned() {
    let snaps = pinned_snapshots();
    assert_eq!(snaps.len(), PINS.len());
    for (snap, &(component, keys, counters, gauges, windows)) in snaps.iter().zip(&PINS) {
        assert_eq!(snap.component, component);
        assert_eq!(snap.enabled, !COMPILED_OUT, "{component}");
        let kept =
            |line: &str| !COMPILED_OUT || !END_OF_RUN.contains(&line.split(' ').nth(1).unwrap());
        let expected: Vec<&str> = keys.iter().copied().filter(|l| kept(l)).collect();
        assert_eq!(layout(snap), expected, "{component}");
        let values: Vec<u64> = snap.counters.iter().map(|c| c.value).collect();
        let levels: Vec<f64> = snap.gauges.iter().map(|g| g.value).collect();
        let kept_windows = (snap.windows.len(), snap.windows_dropped);
        if COMPILED_OUT {
            assert!(values.iter().all(|&v| v == 0), "{component}: {values:?}");
            assert!(levels.iter().all(|&v| v == 0.0), "{component}: {levels:?}");
            assert_eq!(kept_windows, (0, 0), "{component}");
        } else {
            assert_eq!(values, counters, "{component}");
            assert_eq!(levels, gauges, "{component}");
            assert_eq!(kept_windows, (windows, 0), "{component}");
        }
    }
}
