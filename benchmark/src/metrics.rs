//! The metric names and units the benchmark prints. `BENCHMARK.json`
//! lists the same names; `tests/smoke.rs` holds the two together.

use lira_core::telemetry::json::Json;

/// End-to-end metrics: every workload prints each, from the untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("goodput_ups", "1/s"),
    ("fresh_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Slugs of the six policies, in `Policy::ALL` order.
pub const POLICY_SLUGS: [&str; 6] = [
    "lira",
    "lira_grid",
    "uniform_delta",
    "random_drop",
    "utility_greedy",
    "utility_model",
];

/// Per-layer metrics, apart from the per-policy rows: every workload
/// prints each from the traced run, 0 where the layer is not on the
/// workload's path.
const PER_LAYER_FIXED: &[(&str, &str)] = &[
    // The generator's own cost: bounds how much of a wall-time change
    // is the benchmark's.
    ("workload.churn.step_ns", "ns"),
    ("serve.protocol.encode_ns", "ns"),
    ("bench.gen_late_ms_p99", "ms"),
    ("bench.over_limit_frac", "fraction"),
    // Freshness over the whole of the traced run's served part, tail
    // included: the host's slow spells are in it, so it has no bound.
    ("bench.fresh_ms_p50", "ms"),
    ("bench.fresh_ms_p90", "ms"),
    // Server, per update, replica then standalone splits.
    ("serve.protocol.decode_ns", "ns"),
    ("serve.session.batch_ns", "ns"),
    ("serve.slices.route_ns", "ns"),
    ("server.queue.offer_ns", "ns"),
    ("server.queue.service_ns", "ns"),
    ("server.cq_engine.ingest_ns", "ns"),
    ("server.cq_engine.ingest_first_ns", "ns"),
    ("core.stats_grid.observe_ns", "ns"),
    // Server, per call.
    ("serve.session.eval_ms", "ms"),
    ("server.cq_engine.evaluate_ms", "ms"),
    ("server.cq_engine.evaluate_dirty_ms", "ms"),
    ("serve.protocol.digest_ms", "ms"),
    ("serve.session.window_ms", "ms"),
    ("core.stats_grid.commit_ms", "ms"),
    ("core.policy.adapt_z05_ms", "ms"),
    ("core.policy.adapt_z1_ms", "ms"),
    ("core.throt_loop.observe_ns", "ns"),
    ("serve.protocol.plan_encode_us", "us"),
    // Mobile side.
    ("core.plan.decode_us", "us"),
    ("core.plan.throttler_at_ns", "ns"),
    ("mobility.motion.reckon_ns", "ns"),
    // Shares of the replica's server-side time.
    ("share.serve.protocol.decode", "fraction"),
    ("share.serve.session.batch", "fraction"),
    ("share.serve.session.eval", "fraction"),
    ("share.serve.session.window", "fraction"),
    // The served process, read from outside it.
    ("serve.server.cpu_s", "s"),
    ("serve.server.cpu_us_per_update", "us"),
    ("serve.server.wire_overhead_frac", "fraction"),
    ("serve.server.bytes_rx", "bytes"),
    ("serve.server.frames_rx", "count"),
    ("serve.server.eval_ms_p50", "ms"),
    ("serve.server.eval_ms_p90", "ms"),
    ("serve.queue.wait_us_p50", "us"),
    ("serve.queue.wait_us_p99", "us"),
    ("serve.eval.round_us_p50", "us"),
    ("serve.eval.round_us_p99", "us"),
    ("serve.adapt.us_p50", "us"),
    ("serve.adapt.us_p99", "us"),
    // The trace's own cost and coverage.
    ("trace.replica_wall_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
    // Counts at the checkpoint round: they repeat exactly for a seed.
    ("count.updates_sent", "count"),
    ("count.updates_admitted", "count"),
    ("count.updates_dropped", "count"),
    ("count.eval_rounds", "count"),
    ("count.windows", "count"),
    ("count.plans_received", "count"),
    ("count.plan_regions", "count"),
    ("count.results_last", "count"),
    ("count.digest_lo32", "count"),
    // The simulator.
    ("sim.wall_s", "s"),
    ("sim.setup.build_s", "s"),
    ("sim.trace.record_s", "s"),
    ("sim.reference.compute_s", "s"),
    ("sim.lanes.run_s", "s"),
    ("sim.adaptive.wall_s", "s"),
    ("sim.adaptive.final_z", "fraction"),
    ("sim.adaptive.drop_frac", "fraction"),
    ("sim.adaptive.pos_err_m", "m"),
];

/// Every per-layer metric with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for slug in POLICY_SLUGS {
        out.push((format!("sim.policy.{slug}.pos_err_m"), "m"));
        out.push((format!("sim.policy.{slug}.contain_err"), "fraction"));
        out.push((format!("sim.policy.{slug}.updates_sent"), "count"));
    }
    out
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    /// Records `name = value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of the result line: every name of `defs`
    /// with its unit, 0 where this workload did not measure it. Panics
    /// on a value recorded under a name `defs` does not list, so a typo
    /// cannot silently drop a metric.
    pub fn to_json<'a>(&self, defs: impl IntoIterator<Item = (&'a str, &'a str)>) -> Json {
        let defs: Vec<(&str, &str)> = defs.into_iter().collect();
        for (name, _) in &self.0 {
            assert!(
                defs.iter().any(|(n, _)| n == name),
                "metric {name} is not in the table"
            );
        }
        Json::Obj(
            defs.iter()
                .map(|&(name, unit)| {
                    let value = self.get(name).unwrap_or(0.0);
                    (
                        name.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Float(value)),
                            ("unit".into(), Json::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}
