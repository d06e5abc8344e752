//! Telemetry wiring for the simulation harness: pre-registered metric
//! handles for the hot paths of a policy lane and, registered on the
//! same lane registry, of the closed loop's queue and controller.
//!
//! The core algorithms stay telemetry-free — they return plain counters
//! ([`GridReduceStats`](lira_core::grid_reduce::GridReduceStats),
//! [`AdaptCost`], the governor's [`WindowDecision`]) that this module
//! copies into per-lane [`Telemetry`] registries at adaptation
//! boundaries. Recording is a relaxed atomic per call, compiled out with
//! the `telemetry-off` feature of `lira-core`; policy outcomes are
//! bit-identical in both builds (every golden holds in each).
//!
//! Metric names, units and firing points are documented in
//! `docs/TELEMETRY.md`.

use std::sync::Arc;

use lira_core::plan::SheddingPlan;
use lira_core::policy::AdaptCost;
use lira_core::telemetry::{
    Counter, Gauge, Histogram, Level, MetricSpec, Telemetry, TelemetrySnapshot, COMPILED_OUT,
};
use lira_server::channel::ChannelStats;
use lira_server::cq_engine::CqServer;
use lira_server::governor::{StepClass, WindowDecision};

// Lane metrics (component "sim.lane").
const LANE_UPDATES_SENT: MetricSpec = MetricSpec::new("lane.updates_sent", "sim.lane", "updates");
const LANE_UPDATES_ADMITTED: MetricSpec =
    MetricSpec::new("lane.updates_admitted", "sim.lane", "updates");
const LANE_UPDATES_SHED: MetricSpec = MetricSpec::new("lane.updates_shed", "sim.lane", "updates");
const LANE_PLAN_LOOKUPS: MetricSpec = MetricSpec::new("lane.plan_lookups", "sim.lane", "lookups");
const LANE_PLAN_HINT_HITS: MetricSpec =
    MetricSpec::new("lane.plan_hint_hits", "sim.lane", "lookups");
const LANE_ADAPT_US: MetricSpec = MetricSpec::new("lane.adapt_us", "sim.lane", "us");
const LANE_THROTTLE: MetricSpec = MetricSpec::new("lane.throttle", "sim.lane", "fraction");
const GRID_CELLS_VISITED: MetricSpec =
    MetricSpec::new("grid_reduce.cells_visited", "core.grid_reduce", "cells");
const GRID_GAIN_EVALS: MetricSpec =
    MetricSpec::new("grid_reduce.gain_evals", "core.grid_reduce", "evals");
const GRID_HEAP_POPS: MetricSpec =
    MetricSpec::new("grid_reduce.heap_pops", "core.grid_reduce", "pops");
const GRID_REGIONS_EMITTED: MetricSpec =
    MetricSpec::new("grid_reduce.regions_emitted", "core.grid_reduce", "regions");
const GREEDY_STEPS: MetricSpec = MetricSpec::new("greedy.steps", "core.greedy_increment", "steps");
const PLAN_DELTA_M: MetricSpec = MetricSpec::new("plan.delta_m", "core.plan", "m");
const REGION_ADMITTED: MetricSpec = MetricSpec::new("lane.region_admitted", "sim.lane", "updates");
const REGION_SHED: MetricSpec = MetricSpec::new("lane.region_shed", "sim.lane", "updates");
// Utility-policy scores (component "core.utility"): one histogram sample
// per region per adaptation in milli-units (scores are small reals), plus
// the maximum score of the most recent adaptation. Only recorded for
// policies whose `utility_scores()` returns `Some` (the SPICE family).
const UTILITY_SCORE: MetricSpec = MetricSpec::new("utility.score", "core.utility", "milli");
const UTILITY_SCORE_MAX: MetricSpec = MetricSpec::new("utility.score_max", "core.utility", "score");
const CHANNEL_RNG_DRAWS: MetricSpec =
    MetricSpec::new("channel.rng_draws", "server.channel", "draws");
const CHANNEL_TRANSMISSIONS: MetricSpec =
    MetricSpec::new("channel.transmissions", "server.channel", "sends");
const CHANNEL_RETRIES: MetricSpec = MetricSpec::new("channel.retries", "server.channel", "sends");
const CHANNEL_LOST: MetricSpec = MetricSpec::new("channel.lost", "server.channel", "updates");
const CHANNEL_DUPLICATES: MetricSpec =
    MetricSpec::new("channel.duplicates", "server.channel", "updates");

// Engine metrics (component "server.sharded", the historical name kept
// for schema stability): end-of-run accounting, recorded once per run.
// One histogram sample per run; `shard.round_ns` is wall clock, hence
// excluded from the determinism contract like the pipeline stage timers.
const SHARD_NODES: MetricSpec = MetricSpec::new("shard.nodes", "server.sharded", "nodes");
const SHARD_ROUND_NS: MetricSpec = MetricSpec::new("shard.round_ns", "server.sharded", "ns");
const SHARD_STEPPED_NODES: MetricSpec =
    MetricSpec::new("shard.stepped_nodes", "server.sharded", "nodes");
const SHARD_DUE_FIRED: MetricSpec = MetricSpec::new("shard.due_fired", "server.sharded", "entries");
const SHARD_DUE_STALE: MetricSpec = MetricSpec::new("shard.due_stale", "server.sharded", "entries");

// Closed-loop metrics.
const QUEUE_DEPTH: MetricSpec = MetricSpec::new("queue.depth", "server.queue", "updates");
const QUEUE_OVERFLOW: MetricSpec =
    MetricSpec::new("queue.overflow_drops", "server.queue", "updates");
const QUEUE_LATENCY_US: MetricSpec =
    MetricSpec::new("queue.service_latency_us", "server.queue", "us");
const THROT_LAMBDA: MetricSpec =
    MetricSpec::new("throtloop.lambda", "core.throt_loop", "updates/s");
const THROT_MU: MetricSpec = MetricSpec::new("throtloop.mu", "core.throt_loop", "updates/s");
const THROT_RHO: MetricSpec = MetricSpec::new("throtloop.rho", "core.throt_loop", "fraction");
const THROT_Z: MetricSpec = MetricSpec::new("throtloop.z", "core.throt_loop", "fraction");
const THROT_CLAMPED: MetricSpec =
    MetricSpec::new("throtloop.clamped_steps", "core.throt_loop", "steps");
const THROT_HELD: MetricSpec = MetricSpec::new("throtloop.held_steps", "core.throt_loop", "steps");
const THROT_OVERLOAD: MetricSpec =
    MetricSpec::new("throtloop.overload_steps", "core.throt_loop", "steps");

// Pipeline stage metrics (component "sim.pipeline"). Wall-clock, hence
// nondeterministic across runs — excluded from the determinism contract.
const STAGE_SETUP_US: MetricSpec = MetricSpec::new("pipeline.setup_us", "sim.pipeline", "us");
const STAGE_TRACE_US: MetricSpec = MetricSpec::new("pipeline.trace_us", "sim.pipeline", "us");
const STAGE_REFERENCE_US: MetricSpec =
    MetricSpec::new("pipeline.reference_us", "sim.pipeline", "us");
const STAGE_LANES_US: MetricSpec = MetricSpec::new("pipeline.lanes_us", "sim.pipeline", "us");

/// Journal target for the closed-loop controller.
pub(crate) const TARGET_ADAPTIVE: &str = "sim.adaptive";

/// Pre-registered handles for one policy lane. Creation locks the
/// registry once; every recording after that is lock-free.
pub(crate) struct LaneTelemetry {
    registry: Arc<Telemetry>,
    updates_sent: Arc<Counter>,
    updates_admitted: Arc<Counter>,
    updates_shed: Arc<Counter>,
    plan_lookups: Arc<Counter>,
    plan_hint_hits: Arc<Counter>,
    adapt_us: Arc<Histogram>,
    throttle: Arc<Gauge>,
    grid_cells_visited: Arc<Counter>,
    grid_gain_evals: Arc<Counter>,
    grid_heap_pops: Arc<Counter>,
    grid_regions_emitted: Arc<Counter>,
    greedy_steps: Arc<Counter>,
    delta_m: Arc<Histogram>,
    region_admitted: Arc<Histogram>,
    region_shed: Arc<Histogram>,
    utility_score: Arc<Histogram>,
    utility_score_max: Arc<Gauge>,
    stepped_nodes: Arc<Histogram>,
}

impl LaneTelemetry {
    /// Creates the lane's registry.
    pub fn new() -> Self {
        let registry = Arc::new(Telemetry::new());
        LaneTelemetry {
            updates_sent: registry.counter(LANE_UPDATES_SENT),
            updates_admitted: registry.counter(LANE_UPDATES_ADMITTED),
            updates_shed: registry.counter(LANE_UPDATES_SHED),
            plan_lookups: registry.counter(LANE_PLAN_LOOKUPS),
            plan_hint_hits: registry.counter(LANE_PLAN_HINT_HITS),
            adapt_us: registry.histogram(LANE_ADAPT_US),
            throttle: registry.gauge(LANE_THROTTLE),
            grid_cells_visited: registry.counter(GRID_CELLS_VISITED),
            grid_gain_evals: registry.counter(GRID_GAIN_EVALS),
            grid_heap_pops: registry.counter(GRID_HEAP_POPS),
            grid_regions_emitted: registry.counter(GRID_REGIONS_EMITTED),
            greedy_steps: registry.counter(GREEDY_STEPS),
            delta_m: registry.histogram(PLAN_DELTA_M),
            region_admitted: registry.histogram(REGION_ADMITTED),
            region_shed: registry.histogram(REGION_SHED),
            utility_score: registry.histogram(UTILITY_SCORE),
            utility_score_max: registry.gauge(UTILITY_SCORE_MAX),
            stepped_nodes: registry.histogram(SHARD_STEPPED_NODES),
            registry,
        }
    }

    /// A mobile node produced a position update.
    #[inline]
    pub(crate) fn on_sent(&self) {
        self.updates_sent.incr();
    }

    /// The server admitted (applied) an update.
    #[inline]
    pub(crate) fn on_admitted(&self) {
        self.updates_admitted.incr();
    }

    /// An update was shed at the input (server-actuated drop).
    #[inline]
    pub(crate) fn on_shed(&self) {
        self.updates_shed.incr();
    }

    /// A run's plan lookups, one per car per tick, and how many of them
    /// found the car still in the region its previous lookup found.
    pub(crate) fn on_plan_lookups(&self, lookups: u64, hint_hits: u64) {
        self.plan_lookups.add(lookups);
        self.plan_hint_hits.add(hint_hits);
    }

    /// One evaluation round placed or re-placed `stepped` nodes (the
    /// difference of `CqServer::stepped_nodes` across it).
    #[inline]
    pub(crate) fn on_evaluated(&self, stepped: u64) {
        self.stepped_nodes.record(stepped);
    }

    /// Records one adaptation round: wall time, the throttle in force,
    /// the partitioner/optimizer work counters, and the plan's final Δ
    /// distribution (meters, one sample per region).
    pub(crate) fn on_adapt(
        &self,
        micros: u64,
        z: f64,
        cost: Option<AdaptCost>,
        plan: &SheddingPlan,
    ) {
        self.adapt_us.record(micros);
        self.throttle.set(z);
        if let Some(c) = cost {
            self.grid_cells_visited.add(c.partitioner.cells_visited);
            self.grid_gain_evals.add(c.partitioner.gain_evals);
            self.grid_heap_pops.add(c.partitioner.heap_pops);
            self.grid_regions_emitted.add(c.partitioner.regions_emitted);
            self.greedy_steps.add(c.greedy_steps);
        }
        if COMPILED_OUT {
            return; // skip the per-region walk entirely when compiled out
        }
        for r in plan.regions() {
            self.delta_m.record(r.throttler.round() as u64);
        }
    }

    /// Records one adaptation's per-region utility scores (histogram
    /// sample per region, milli-units) and the maximum score. A no-op
    /// for policies without a utility model (`scores = None`).
    pub(crate) fn on_utility(&self, scores: Option<&[f64]>) {
        if COMPILED_OUT {
            return;
        }
        let Some(scores) = scores else { return };
        let mut max = 0.0f64;
        for &s in scores {
            self.utility_score.record((s * 1000.0).round() as u64);
            max = max.max(s);
        }
        self.utility_score_max.set(max);
    }

    /// Flushes one plan epoch's per-region admitted/shed counts into the
    /// shed-skew histograms (one sample per region per epoch).
    pub(crate) fn flush_regions(&self, admitted: &[u64], shed: &[u64]) {
        if COMPILED_OUT {
            return;
        }
        for &n in admitted {
            self.region_admitted.record(n);
        }
        for &n in shed {
            self.region_shed.record(n);
        }
    }

    /// Closed-loop handles (`queue.*`, `throtloop.*`) registered on this
    /// lane's registry, so a closed-loop lane still exports one snapshot.
    pub(crate) fn closed_loop(&self) -> AdaptiveTelemetry {
        AdaptiveTelemetry::on(Arc::clone(&self.registry))
    }

    /// Copies the end-of-run accounting into the registry: the uplink
    /// channel's counters (lanes with a faulty uplink only), and the
    /// engine's one `shard.nodes` / `shard.round_ns` sample (final placed
    /// nodes, cumulative round wall time) and its wheel entries fired /
    /// dropped stale.
    pub(crate) fn on_run_end(&self, channel: Option<ChannelStats>, server: &CqServer) {
        if COMPILED_OUT {
            return;
        }
        let r = &self.registry;
        if let Some(stats) = channel {
            r.counter(CHANNEL_RNG_DRAWS).add(stats.rng_draws);
            r.counter(CHANNEL_TRANSMISSIONS).add(stats.transmissions);
            r.counter(CHANNEL_RETRIES).add(stats.retries);
            r.counter(CHANNEL_LOST).add(stats.lost);
            r.counter(CHANNEL_DUPLICATES).add(stats.duplicates);
        }
        let stats = server.shard_stats();
        r.histogram(SHARD_NODES).record(stats.nodes as u64);
        r.histogram(SHARD_ROUND_NS).record(stats.round_ns);
        r.counter(SHARD_DUE_FIRED).add(stats.due_fired);
        r.counter(SHARD_DUE_STALE).add(stats.due_stale);
    }

    /// Exports the lane's snapshot labelled `component` (conventionally
    /// `"lane:<policy name>"`).
    pub fn snapshot(&self, component: &str) -> TelemetrySnapshot {
        self.registry.snapshot(component)
    }
}

/// Wall-time accounting for the pipeline: setup, then the streamed stage
/// and the recorder and reference replay inside it. One sample per key
/// per run; the last three overlap, so they do not sum to the job.
pub(crate) struct PipelineTelemetry {
    registry: Telemetry,
    setup_us: Arc<Histogram>,
    trace_us: Arc<Histogram>,
    reference_us: Arc<Histogram>,
    lanes_us: Arc<Histogram>,
}

impl PipelineTelemetry {
    /// Creates the pipeline's registry.
    pub fn new() -> Self {
        let registry = Telemetry::new();
        PipelineTelemetry {
            setup_us: registry.histogram(STAGE_SETUP_US),
            trace_us: registry.histogram(STAGE_TRACE_US),
            reference_us: registry.histogram(STAGE_REFERENCE_US),
            lanes_us: registry.histogram(STAGE_LANES_US),
            registry,
        }
    }

    /// Records the setup stage's wall time (microseconds).
    pub(crate) fn on_setup(&self, us: u64) {
        self.setup_us.record(us);
    }

    /// Records the recorder's wall time, time blocked on a full channel
    /// included.
    pub(crate) fn on_trace(&self, us: u64) {
        self.trace_us.record(us);
    }

    /// Records the reference replay's wall time.
    pub(crate) fn on_reference(&self, us: u64) {
        self.reference_us.record(us);
    }

    /// Records the wall time of the whole streamed stage (recorder,
    /// reference replay and every lane).
    pub(crate) fn on_lanes(&self, us: u64) {
        self.lanes_us.record(us);
    }

    /// Exports the pipeline's snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.registry.snapshot("pipeline")
    }
}

/// Pre-registered handles for the closed loop's queue and controller,
/// on the registry of the lane it controls ([`LaneTelemetry::closed_loop`]).
pub(crate) struct AdaptiveTelemetry {
    registry: Arc<Telemetry>,
    queue_depth: Arc<Gauge>,
    queue_overflow: Arc<Counter>,
    queue_latency_us: Arc<Histogram>,
    lambda: Arc<Gauge>,
    mu: Arc<Gauge>,
    rho: Arc<Gauge>,
    z: Arc<Gauge>,
    clamped: Arc<Counter>,
    held: Arc<Counter>,
    overload: Arc<Counter>,
}

impl AdaptiveTelemetry {
    fn on(registry: Arc<Telemetry>) -> Self {
        AdaptiveTelemetry {
            queue_depth: registry.gauge(QUEUE_DEPTH),
            queue_overflow: registry.counter(QUEUE_OVERFLOW),
            queue_latency_us: registry.histogram(QUEUE_LATENCY_US),
            lambda: registry.gauge(THROT_LAMBDA),
            mu: registry.gauge(THROT_MU),
            rho: registry.gauge(THROT_RHO),
            z: registry.gauge(THROT_Z),
            clamped: registry.counter(THROT_CLAMPED),
            held: registry.counter(THROT_HELD),
            overload: registry.counter(THROT_OVERLOAD),
            registry,
        }
    }

    /// Records one serviced update's queueing latency (seconds; a
    /// non-finite latency is skipped).
    #[inline]
    pub(crate) fn on_serviced(&self, latency_s: f64) {
        if latency_s.is_finite() {
            self.queue_latency_us.record((latency_s * 1e6) as u64);
        }
    }

    /// Records one control window: queue state, the `(λ, μ, ρ, z)`
    /// operating point, and the step's classification. Degenerate windows
    /// (holds, overload clamps) produce `Warn` journal entries — the
    /// operator-facing signals in docs/TELEMETRY.md.
    pub(crate) fn on_window(&self, w: &WindowDecision) {
        let (lambda, mu) = (w.arrival_rate, w.service_rate);
        self.queue_depth.set(w.queue_len as f64);
        self.queue_overflow.add(w.dropped);
        self.lambda.set(lambda);
        self.mu.set(mu);
        self.rho
            .set(if mu > 0.0 { lambda / mu } else { f64::INFINITY });
        self.z.set(w.throttle);
        // An overload step is also a clamped one.
        let clamped = matches!(w.step, StepClass::Clamped | StepClass::Overload);
        self.clamped.add(u64::from(clamped));
        self.held.add(u64::from(w.step == StepClass::Held));
        self.overload.add(u64::from(w.step == StepClass::Overload));
        if COMPILED_OUT {
            return;
        }
        let event = match w.step {
            StepClass::Overload => Some((
                Level::Warn,
                format!(
                    "overload window: mu <= 0, z stepped at clamp (z = {:.4})",
                    w.throttle
                ),
            )),
            StepClass::Held => Some((
                Level::Warn,
                "degenerate window held: non-finite rate observation".to_string(),
            )),
            StepClass::Clamped => Some((
                Level::Info,
                format!("step factor clamped (z = {:.4})", w.throttle),
            )),
            StepClass::Tracked => None,
        };
        if let Some((level, message)) = event {
            self.registry.event(level, TARGET_ADAPTIVE, w.time, message);
        }
        if w.dropped > 0 {
            self.registry.event(
                Level::Warn,
                TARGET_ADAPTIVE,
                w.time,
                format!("queue overflow: {} updates tail-dropped", w.dropped),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lira_core::geometry::Rect;
    use lira_core::grid_reduce::GridReduceStats;

    #[test]
    fn lane_telemetry_records_adapt_cost() {
        let tel = LaneTelemetry::new();
        let plan = SheddingPlan::uniform(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 12.0);
        let cost = AdaptCost {
            partitioner: GridReduceStats {
                cells_visited: 10,
                gain_evals: 4,
                heap_pops: 3,
                regions_emitted: 1,
            },
            greedy_steps: 7,
        };
        tel.on_sent();
        tel.on_admitted();
        tel.on_adapt(42, 0.5, Some(cost), &plan);
        let snap = tel.snapshot("lane:test");
        if COMPILED_OUT {
            assert!(!snap.enabled);
            return;
        }
        assert_eq!(snap.counter("lane.updates_sent"), Some(1));
        assert_eq!(snap.counter("grid_reduce.cells_visited"), Some(10));
        assert_eq!(snap.counter("greedy.steps"), Some(7));
        assert_eq!(snap.gauge("lane.throttle"), Some(0.5));
        let deltas = snap.histogram("plan.delta_m").unwrap();
        assert_eq!(deltas.count, 1);
        assert_eq!(deltas.sum, 12);
    }

    #[test]
    fn adaptive_windows_are_recorded_by_their_step_class() {
        let lane = LaneTelemetry::new();
        let tel = lane.closed_loop();
        let window = |time, step, throttle, queue_len, dropped, lambda, mu| WindowDecision {
            time,
            arrival_rate: lambda,
            throttle,
            queue_len,
            dropped,
            service_rate: mu,
            throttle_before: 1.0,
            step,
            adapt_due: true,
        };
        // Overload window: mu = 0 counts as overload + clamp.
        tel.on_window(&window(20.0, StepClass::Overload, 0.5, 3, 2, 50.0, 0.0));
        // Healthy window: no new degenerate steps.
        tel.on_window(&window(40.0, StepClass::Tracked, 0.75, 0, 0, 10.0, 100.0));
        tel.on_window(&window(60.0, StepClass::Held, 0.75, 0, 0, f64::NAN, 100.0));
        let snap = lane.snapshot("adaptive");
        if COMPILED_OUT {
            assert!(!snap.enabled);
            return;
        }
        assert_eq!(snap.counter("throtloop.overload_steps"), Some(1));
        assert_eq!(snap.counter("throtloop.clamped_steps"), Some(1));
        assert_eq!(snap.counter("throtloop.held_steps"), Some(1));
        assert_eq!(snap.counter("queue.overflow_drops"), Some(2));
        assert_eq!(snap.gauge("throtloop.z"), Some(0.75));
        let messages: Vec<&str> = snap.events.iter().map(|e| e.message.as_str()).collect();
        assert!(messages[0].starts_with("overload window"), "{messages:?}");
        assert!(messages[1].starts_with("queue overflow: 2"), "{messages:?}");
        assert!(
            messages[2].starts_with("degenerate window held"),
            "{messages:?}"
        );
        assert_eq!(messages.len(), 3);
    }
}
