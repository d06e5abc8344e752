//! The per-layer ledger of the traced run: replays a served run
//! in-process with spans, feeds the standalone layers the same stream,
//! and turns span totals into the per-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use lira_core::telemetry::json::Json;
use lira_core::telemetry::TelemetrySnapshot;

use crate::drive::{run_closed, Client, Gen, Measured, Tally};
use crate::metrics::{Values, POLICY_SLUGS};
use crate::replica::{standalone, ReplicaLink};
use crate::serve::Served;
use crate::sim::{SimOutput, SimRun};
use crate::span::{LayerTotal, Tracer};
use crate::spec::ServeSpec;
use crate::{sim, stats, Args, Outcome};

/// The share of `--seconds` a traced run spends on its served part. The
/// three in-process replays of the same rounds (with spans, without,
/// standalone layers) are single-threaded and take the rest.
pub const SERVED_SHARE: f64 = 0.2;

/// A tally as the JSON object pinned in `expected.json`.
pub fn checkpoint_json(t: &Tally) -> Json {
    Json::Obj(vec![
        ("updates_sent".into(), Json::UInt(t.updates_sent)),
        ("updates_dropped".into(), Json::UInt(t.updates_dropped)),
        ("eval_rounds".into(), Json::UInt(t.eval_rounds)),
        ("windows".into(), Json::UInt(t.windows)),
        ("plans_received".into(), Json::UInt(t.plans_received)),
        ("plan_epoch".into(), Json::UInt(t.plan_epoch)),
        ("plan_regions".into(), Json::UInt(t.plan_regions)),
        ("results_last".into(), Json::UInt(t.results_last)),
        ("digest".into(), Json::Str(format!("{:016x}", t.digest))),
    ])
}

/// The simulator's outputs as the JSON object pinned in `expected.json`.
/// Floats are written shortest-round-trip, so equality is bit equality.
pub fn sim_json(out: &SimOutput) -> Json {
    Json::Obj(vec![
        (
            "policies".into(),
            Json::Arr(
                out.policies
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(p.name.into())),
                            ("pos_err_m".into(), Json::Float(p.pos_err_m)),
                            ("contain_err".into(), Json::Float(p.contain_err)),
                            ("updates_sent".into(), Json::UInt(p.updates_sent)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "updates_processed".into(),
            Json::UInt(out.updates_processed),
        ),
        ("adaptive_final_z".into(), Json::Float(out.adaptive_final_z)),
        (
            "adaptive_drop_frac".into(),
            Json::Float(out.adaptive_drop_frac),
        ),
        (
            "adaptive_pos_err_m".into(),
            Json::Float(out.adaptive_pos_err_m),
        ),
    ])
}

/// One in-process replay of `rounds` rounds; returns what the client
/// saw, the session's deterministic core, the replay's wall (set-up
/// excluded) and the tracer.
fn replay(
    spec: &ServeSpec,
    seed: u64,
    rounds: usize,
    tracer: Tracer,
) -> Result<(Measured, String, Tracer), String> {
    let mut gen = Gen::new(spec, seed);
    let mut link = ReplicaLink::new(spec, tracer);
    let mut client = Client::open(&mut link, spec, &mut gen).map_err(|e| e.0)?;
    let measured = run_closed(&mut client, spec, &mut gen, rounds, None).map_err(|e| e.0)?;
    let core = link.deterministic_json();
    Ok((measured, core, link.into_tracer()))
}

struct Totals(BTreeMap<&'static str, LayerTotal>);

impl Totals {
    fn ns(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |t| t.self_ns as f64)
    }

    /// Mean self time per call, in units of `scale` ns.
    fn per_call(&self, name: &str, scale: f64) -> f64 {
        match self.0.get(name) {
            Some(t) if t.calls > 0 => t.self_ns as f64 / t.calls as f64 / scale,
            _ => 0.0,
        }
    }
}

fn histogram_quantiles(values: &mut Values, tel: Option<&TelemetrySnapshot>, name: &str) {
    let h = tel.and_then(|t| t.histogram(name));
    for (suffix, q) in [("p50", 0.5), ("p99", 0.99)] {
        let v = h.and_then(|h| h.quantile(q)).unwrap_or(0);
        values.set(format!("{name}_{suffix}"), v as f64);
    }
}

/// Fills `outcome` with the per-layer ledger of a served workload: the
/// served run's outside view, the replica's spans, the standalone
/// layers' spans, and the checks that tie the three together.
pub fn trace_served(spec: &ServeSpec, seed: u64, served: &Served, outcome: &mut Outcome) {
    let m = &served.measured;
    let rounds = m.rounds;
    let values = &mut outcome.values;

    // With spans first, then without for the tracing overhead: whichever
    // replay goes first also pays for fresh pages from the OS, so this
    // order can only overstate what the spans cost.
    let traced = replay(spec, seed, rounds, Tracer::recording());
    let plain = replay(spec, seed, rounds, Tracer::disabled());
    let ((plain, _, _), (replica, replica_core, mut tracer)) = match (plain, traced) {
        (Ok(p), Ok(t)) => (p, t),
        (Err(e), _) | (_, Err(e)) => {
            outcome.problems.push(format!("in-process replica: {e}"));
            return;
        }
    };

    // The socket may add bytes, never behaviour.
    let served_core = Json::parse(&m.report_json)
        .ok()
        .and_then(|r| r.get("deterministic").map(Json::to_string));
    if served_core.as_deref() != Some(replica_core.as_str()) {
        outcome.problems.push(format!(
            "the replica's deterministic report differs from the served one:\n  served  {}\n  replica {replica_core}",
            served_core.unwrap_or_default()
        ));
    }
    if replica.tally != m.tally {
        outcome.problems.push(format!(
            "the replica's client saw {:?}, the served client {:?}",
            replica.tally, m.tally
        ));
    }

    let standalone_from = tracer.spans().len();
    let standalone_started = Instant::now();
    let standalone_digest = standalone(spec, seed, rounds, &mut tracer);
    let standalone_s = standalone_started.elapsed().as_secs_f64();
    if standalone_digest != m.tally.digest {
        outcome.problems.push(format!(
            "the standalone engine's digest {standalone_digest:016x} differs from the served {:016x}",
            m.tally.digest
        ));
    }

    // Measured rounds only: set-up spans carry round 0.
    let replica_totals = Totals(tracer.totals(0..standalone_from, 1));
    let layer_totals = Totals(tracer.totals(standalone_from..tracer.spans().len(), 1));
    let prime_totals = Totals(tracer.totals(standalone_from..tracer.spans().len(), 0));

    let updates = (m.tally.updates_sent - served.at_setup.updates_sent) as f64;
    let per_update = |t: &Totals, name: &str| t.ns(name) / updates;

    values.set(
        "workload.churn.step_ns",
        per_update(&replica_totals, "workload.churn.step"),
    );
    for (metric, span) in [
        ("serve.protocol.encode_ns", "serve.protocol.encode"),
        ("serve.protocol.decode_ns", "serve.protocol.decode"),
        ("serve.session.batch_ns", "serve.session.batch"),
    ] {
        values.set(metric, per_update(&replica_totals, span));
    }
    values.set(
        "serve.session.eval_ms",
        replica_totals.per_call("serve.session.eval", 1e6),
    );
    values.set(
        "serve.session.window_ms",
        replica_totals.per_call("serve.session.window", 1e6),
    );
    let server_side = [
        "serve.protocol.decode",
        "serve.session.batch",
        "serve.session.eval",
        "serve.session.window",
        "serve.session.other",
        "serve.server.reply",
    ];
    let server_ns: f64 = server_side.iter().map(|n| replica_totals.ns(n)).sum();
    for name in &server_side[..4] {
        values.set(format!("share.{name}"), replica_totals.ns(name) / server_ns);
    }

    for (metric, span) in [
        ("serve.slices.route_ns", "serve.slices.route"),
        ("server.queue.offer_ns", "server.queue.offer"),
        ("server.queue.service_ns", "server.queue.service"),
        ("server.cq_engine.ingest_ns", "server.cq_engine.ingest"),
        ("core.stats_grid.observe_ns", "core.stats_grid.observe"),
        ("core.plan.throttler_at_ns", "core.plan.throttler_at"),
        ("mobility.motion.reckon_ns", "mobility.motion.reckon"),
    ] {
        values.set(metric, per_update(&layer_totals, span));
    }
    values.set(
        "server.cq_engine.ingest_first_ns",
        prime_totals.ns("server.cq_engine.ingest_first") / spec.nodes as f64,
    );
    for (metric, span, scale) in [
        (
            "server.cq_engine.evaluate_ms",
            "server.cq_engine.evaluate",
            1e6,
        ),
        (
            "server.cq_engine.evaluate_dirty_ms",
            "server.cq_engine.evaluate_dirty",
            1e6,
        ),
        ("serve.protocol.digest_ms", "serve.protocol.digest", 1e6),
        ("core.stats_grid.commit_ms", "core.stats_grid.commit", 1e6),
        ("core.policy.adapt_z05_ms", "core.policy.adapt_z05", 1e6),
        ("core.policy.adapt_z1_ms", "core.policy.adapt_z1", 1e6),
        ("core.throt_loop.observe_ns", "core.throt_loop.observe", 1.0),
        (
            "serve.protocol.plan_encode_us",
            "serve.protocol.plan_encode",
            1e3,
        ),
        ("core.plan.decode_us", "core.plan.decode", 1e3),
    ] {
        values.set(metric, layer_totals.per_call(span, scale));
    }

    // The served process, from outside it.
    let report = Json::parse(&m.report_json).ok();
    let conn = report
        .as_ref()
        .and_then(|r| r.get("deterministic"))
        .and_then(|c| c.get("connections"))
        .and_then(Json::as_array)
        .and_then(|c| c.first());
    let conn_field = |name: &str| {
        conn.and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    let telemetry = report
        .as_ref()
        .and_then(|r| r.get("telemetry"))
        .and_then(|t| TelemetrySnapshot::from_json(&t.to_string()).ok());
    values.set("serve.server.cpu_s", served.cpu_s);
    values.set(
        "serve.server.cpu_us_per_update",
        served.cpu_s * 1e6 / updates,
    );
    // What the process spends beyond the calls the replica makes: socket
    // reads and writes, buffer copies, polling. CPU time comes in 10 ms
    // ticks, so a `--smoke` run can read 0 and has no such fraction.
    if served.cpu_s > 0.0 {
        values.set(
            "serve.server.wire_overhead_frac",
            1.0 - server_ns / 1e9 / served.cpu_s,
        );
    }
    values.set("serve.server.bytes_rx", conn_field("bytes"));
    values.set("serve.server.frames_rx", conn_field("frames"));
    values.set("serve.server.eval_ms_p50", stats::median(&m.eval_ms));
    values.set(
        "serve.server.eval_ms_p90",
        stats::percentile(&m.eval_ms, 0.9),
    );
    for name in [
        "serve.queue.wait_us",
        "serve.eval.round_us",
        "serve.adapt.us",
    ] {
        histogram_quantiles(values, telemetry.as_ref(), name);
    }
    values.set(
        "bench.gen_late_ms_p99",
        stats::percentile(&m.gen_late_ms, 0.99),
    );

    // The trace's own cost and coverage. Every span under a round is a
    // named stage; what the rounds and the report take beyond their
    // stages is glue nobody is charged for.
    let stages_ns: f64 = replica_totals
        .0
        .iter()
        .filter(|(name, _)| **name != "bench.round")
        .map(|(_, t)| t.self_ns as f64)
        .sum();
    let unattributed = 1.0 - stages_ns / 1e9 / replica.wall_s;
    values.set("trace.replica_wall_s", replica.wall_s);
    values.set("trace.overhead_frac", replica.wall_s / plain.wall_s - 1.0);
    values.set("trace.unattributed_frac", unattributed);
    if unattributed.abs() > 0.10 {
        outcome.problems.push(format!(
            "stage sum {:.3} s does not reconcile with the replica's wall {:.3} s within 10 %",
            stages_ns / 1e9,
            replica.wall_s
        ));
    }

    let c = &m.checkpoint;
    for (name, v) in [
        ("count.updates_sent", c.updates_sent),
        ("count.updates_admitted", c.updates_sent - c.updates_dropped),
        ("count.updates_dropped", c.updates_dropped),
        ("count.eval_rounds", c.eval_rounds),
        ("count.windows", c.windows),
        ("count.plans_received", c.plans_received),
        ("count.plan_regions", c.plan_regions),
        ("count.results_last", c.results_last),
        ("count.digest_lo32", c.digest & 0xffff_ffff),
    ] {
        values.set(name, v as f64);
    }

    outcome.notes.push(format!(
        "replayed {rounds} rounds in-process: {:.3} s with spans, {:.3} s without, standalone layers {standalone_s:.3} s; {} spans",
        replica.wall_s,
        plain.wall_s,
        tracer.spans().len()
    ));
    outcome.spans = Some(tracer.to_json());
}

/// Fills `values` with the simulator's per-layer ledger: the stages of
/// `SimPipeline::run` timed from outside, and the per-policy outputs.
pub fn trace_sim(args: &Args, run: &SimRun, tracer: &mut Tracer, values: &mut Values) {
    sim::stages(args.seed, args.smoke, tracer);
    let totals = Totals(tracer.totals(0..tracer.spans().len(), 0));
    let s = |name: &str| totals.ns(name) / 1e9;
    let stages = s("sim.setup.build") + s("sim.trace.record") + s("sim.reference.compute");
    values.set("sim.wall_s", run.job_wall_s.iter().sum());
    values.set("sim.setup.build_s", s("sim.setup.build"));
    values.set("sim.trace.record_s", s("sim.trace.record"));
    values.set("sim.reference.compute_s", s("sim.reference.compute"));
    // The first world's run, less the stages it shares with the calls
    // above: what is left is the six policy lanes.
    values.set("sim.lanes.run_s", (run.job_wall_s[0] - stages).max(0.0));
    values.set("sim.adaptive.wall_s", s("sim.adaptive.run"));
    values.set("sim.adaptive.final_z", run.output.adaptive_final_z);
    values.set("sim.adaptive.drop_frac", run.output.adaptive_drop_frac);
    values.set("sim.adaptive.pos_err_m", run.output.adaptive_pos_err_m);
    for (slug, p) in POLICY_SLUGS.iter().zip(&run.output.policies) {
        values.set(format!("sim.policy.{slug}.pos_err_m"), p.pos_err_m);
        values.set(format!("sim.policy.{slug}.contain_err"), p.contain_err);
        values.set(
            format!("sim.policy.{slug}.updates_sent"),
            p.updates_sent as f64,
        );
    }
}
