//! Telemetry for the simulation harness: the plain fields a policy lane
//! and the pipeline keep as they run, and the snapshots read off them
//! and off the lane's own books.
//!
//! The core algorithms stay telemetry-free — they return plain counters
//! ([`GridReduceStats`](lira_core::grid_reduce::GridReduceStats),
//! [`AdaptCost`], the governor's [`WindowDecision`]) that a lane adds
//! into its [`LaneTelemetry`] at adaptation boundaries. What the lane
//! already counts for its outcome (updates sent and applied, a closed
//! lane's windows) is read there when the snapshot is taken. Recording
//! is compiled out with the `telemetry-off` feature of `lira-core`;
//! policy outcomes are bit-identical in both builds (every golden holds
//! in each).
//!
//! Metric names, units and firing points are documented in
//! `docs/TELEMETRY.md`.

use lira_core::plan::SheddingPlan;
use lira_core::policy::AdaptCost;
use lira_core::telemetry::{Histogram, MetricSpec, TelemetrySnapshot, WindowRing, COMPILED_OUT};
use lira_core::throt_loop::{StepClass, WindowDecision};
use lira_server::channel::ChannelStats;
use lira_server::cq_engine::CqServer;
use lira_server::unified::ShardStats;

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

// Closed-loop metrics, read off the lane's windows except the latency;
// each window's operating point is in the snapshot's windows, not on
// gauges.
const QUEUE_OVERFLOW: MetricSpec =
    MetricSpec::new("queue.overflow_drops", "server.queue", "updates");
const QUEUE_LATENCY_US: MetricSpec =
    MetricSpec::new("queue.service_latency_us", "server.queue", "us");
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

/// One policy lane's telemetry: plain data on the lane's thread.
#[derive(Default)]
pub(crate) struct LaneTelemetry {
    /// Updates shed at the input (server-actuated drops).
    pub updates_shed: u64,
    /// A run's plan lookups, one per car per tick, and how many of them
    /// found the car still in the region its previous lookup found.
    pub plan_lookups: u64,
    pub plan_hint_hits: u64,
    /// Nodes each evaluation round placed or re-placed (the difference
    /// of `CqServer::stepped_nodes` across it).
    pub stepped_nodes: Histogram,
    /// A closed lane's queueing latency, one sample per serviced update.
    pub service_latency_us: Histogram,
    adapt_us: Histogram,
    throttle: f64,
    work: AdaptCost,
    delta_m: Histogram,
    region_admitted: Histogram,
    region_shed: Histogram,
    utility_score: Histogram,
    utility_score_max: f64,
    /// The end-of-run accounting, a recording build's only: the uplink
    /// channel's counters (lanes with a faulty uplink only) and the
    /// engine's.
    run_end: Option<(Option<ChannelStats>, ShardStats)>,
}

impl LaneTelemetry {
    /// Records one adaptation round: wall time, the throttle in force,
    /// the partitioner/optimizer work counters, and the plan's final Δ
    /// distribution (meters, one sample per region).
    pub(crate) fn on_adapt(
        &mut self,
        micros: u64,
        z: f64,
        cost: Option<AdaptCost>,
        plan: &SheddingPlan,
    ) {
        self.adapt_us.record(micros);
        if z.is_finite() {
            self.throttle = z;
        }
        if let Some(c) = cost {
            let (sum, part) = (&mut self.work.partitioner, &c.partitioner);
            sum.cells_visited += part.cells_visited;
            sum.gain_evals += part.gain_evals;
            sum.heap_pops += part.heap_pops;
            sum.regions_emitted += part.regions_emitted;
            self.work.greedy_steps += c.greedy_steps;
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
    pub(crate) fn on_utility(&mut self, scores: Option<&[f64]>) {
        if COMPILED_OUT {
            return;
        }
        let Some(scores) = scores else { return };
        let mut max = 0.0f64;
        for &s in scores {
            self.utility_score.record((s * 1000.0).round() as u64);
            max = max.max(s);
        }
        if max.is_finite() {
            self.utility_score_max = max;
        }
    }

    /// Flushes one plan epoch's per-region admitted/shed counts into the
    /// shed-skew histograms (one sample per region per epoch).
    pub(crate) fn flush_regions(&mut self, admitted: &[u64], shed: &[u64]) {
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

    /// Keeps the end-of-run accounting: the uplink channel's counters
    /// (lanes with a faulty uplink only), and the engine's final placed
    /// nodes, cumulative round wall time and wheel entries fired /
    /// dropped stale.
    pub(crate) fn on_run_end(&mut self, channel: Option<ChannelStats>, server: &CqServer) {
        if !COMPILED_OUT {
            self.run_end = Some((channel, server.shard_stats()));
        }
    }

    /// The lane's snapshot labelled `component` (conventionally
    /// `"lane:<policy name>"`), with the lane's own `sent` and
    /// `admitted` counts and, for a closed lane, its windows and service
    /// latency: the drops and step classes are counted off the windows,
    /// and the snapshot keeps the newest 4 096 of them.
    pub(crate) fn snapshot(
        &self,
        component: &str,
        sent: u64,
        admitted: u64,
        closed: Option<&[WindowDecision]>,
    ) -> TelemetrySnapshot {
        let one_sample = |v| {
            let mut h = Histogram::default();
            h.record(v);
            h
        };
        let shard_samples = (self.run_end)
            .map(|(_, shard)| [one_sample(shard.nodes as u64), one_sample(shard.round_ns)]);
        let part = &self.work.partitioner;
        let mut counters = vec![
            (LANE_UPDATES_SENT, sent),
            (LANE_UPDATES_ADMITTED, admitted),
            (LANE_UPDATES_SHED, self.updates_shed),
            (LANE_PLAN_LOOKUPS, self.plan_lookups),
            (LANE_PLAN_HINT_HITS, self.plan_hint_hits),
            (GRID_CELLS_VISITED, part.cells_visited),
            (GRID_GAIN_EVALS, part.gain_evals),
            (GRID_HEAP_POPS, part.heap_pops),
            (GRID_REGIONS_EMITTED, part.regions_emitted),
            (GREEDY_STEPS, self.work.greedy_steps),
        ];
        let mut histograms = vec![
            (LANE_ADAPT_US, &self.adapt_us),
            (PLAN_DELTA_M, &self.delta_m),
            (REGION_ADMITTED, &self.region_admitted),
            (REGION_SHED, &self.region_shed),
            (UTILITY_SCORE, &self.utility_score),
            (SHARD_STEPPED_NODES, &self.stepped_nodes),
        ];
        let mut ring = WindowRing::default();
        if let Some(windows) = closed {
            let steps = |classes: &[StepClass]| {
                windows.iter().filter(|w| classes.contains(&w.step)).count() as u64
            };
            counters.extend([
                (QUEUE_OVERFLOW, windows.iter().map(|w| w.dropped).sum()),
                // An overload step is also a clamped one.
                (
                    THROT_CLAMPED,
                    steps(&[StepClass::Clamped, StepClass::Overload]),
                ),
                (THROT_HELD, steps(&[StepClass::Held])),
                (THROT_OVERLOAD, steps(&[StepClass::Overload])),
            ]);
            histograms.push((QUEUE_LATENCY_US, &self.service_latency_us));
            windows.iter().for_each(|w| ring.push(w));
        }
        if let Some((channel, shard)) = self.run_end {
            if let Some(c) = channel {
                counters.extend([
                    (CHANNEL_RNG_DRAWS, c.rng_draws),
                    (CHANNEL_TRANSMISSIONS, c.transmissions),
                    (CHANNEL_RETRIES, c.retries),
                    (CHANNEL_LOST, c.lost),
                    (CHANNEL_DUPLICATES, c.duplicates),
                ]);
            }
            counters.extend([
                (SHARD_DUE_FIRED, shard.due_fired),
                (SHARD_DUE_STALE, shard.due_stale),
            ]);
        }
        if let Some([nodes, round_ns]) = &shard_samples {
            histograms.extend([(SHARD_NODES, nodes), (SHARD_ROUND_NS, round_ns)]);
        }
        let gauges = [
            (LANE_THROTTLE, self.throttle),
            (UTILITY_SCORE_MAX, self.utility_score_max),
        ];
        TelemetrySnapshot::from_entries(component, &counters, &gauges, &histograms, &ring)
    }
}

/// Wall-time accounting for the pipeline: setup, then the streamed stage
/// and the recorder and reference replay inside it. One sample per key
/// per run; the last three overlap, so they do not sum to the job.
#[derive(Default)]
pub(crate) struct PipelineTelemetry {
    pub setup_us: Histogram,
    /// The recorder's wall time, time blocked on a full channel included.
    pub trace_us: Histogram,
    pub reference_us: Histogram,
    /// The whole streamed stage: recorder, reference replay and every
    /// lane.
    pub lanes_us: Histogram,
}

impl PipelineTelemetry {
    /// The pipeline's snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let histograms = [
            (STAGE_SETUP_US, &self.setup_us),
            (STAGE_TRACE_US, &self.trace_us),
            (STAGE_REFERENCE_US, &self.reference_us),
            (STAGE_LANES_US, &self.lanes_us),
        ];
        TelemetrySnapshot::from_entries("pipeline", &[], &[], &histograms, &WindowRing::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lira_core::geometry::Rect;
    use lira_core::grid_reduce::GridReduceStats;

    #[test]
    fn lane_telemetry_records_adapt_cost() {
        let mut tel = LaneTelemetry::default();
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
        tel.on_adapt(42, 0.5, Some(cost), &plan);
        tel.on_adapt(40, 0.25, Some(cost), &plan);
        let snap = tel.snapshot("lane:test", 3, 2, None);
        if COMPILED_OUT {
            assert!(!snap.enabled);
            return;
        }
        assert_eq!(snap.counter("lane.updates_sent"), Some(3));
        assert_eq!(snap.counter("lane.updates_admitted"), Some(2));
        assert_eq!(snap.counter("grid_reduce.cells_visited"), Some(20));
        assert_eq!(snap.counter("greedy.steps"), Some(14));
        assert_eq!(snap.gauge("lane.throttle"), Some(0.25));
        let deltas = snap.histogram("plan.delta_m").unwrap();
        assert_eq!(deltas.count, 2);
        assert_eq!(deltas.sum, 24);
    }

    fn window(time: f64, step: StepClass, dropped: u64) -> WindowDecision {
        WindowDecision {
            time,
            arrival_rate: 10.0,
            throttle: 0.75,
            queue_len: 0,
            dropped,
            service_rate: 100.0,
            throttle_before: 1.0,
            step,
            adapt_due: true,
        }
    }

    #[test]
    fn a_closed_lane_counts_its_windows_by_step_class() {
        let lane = LaneTelemetry::default();
        let windows = [
            // Overload (µ = 0) counts as overload and as a clamp.
            window(20.0, StepClass::Overload, 2),
            window(40.0, StepClass::Tracked, 0),
            window(60.0, StepClass::Held, 0),
        ];
        let snap = lane.snapshot("adaptive", 0, 0, Some(&windows));
        if COMPILED_OUT {
            assert!(!snap.enabled && snap.windows.is_empty());
            return;
        }
        assert_eq!(snap.counter("throtloop.overload_steps"), Some(1));
        assert_eq!(snap.counter("throtloop.clamped_steps"), Some(1));
        assert_eq!(snap.counter("throtloop.held_steps"), Some(1));
        assert_eq!(snap.counter("queue.overflow_drops"), Some(2));
        assert_eq!(snap.windows, windows);
    }

    /// A closed lane's counters count every window, and its snapshot
    /// keeps the newest 4 096 and counts the rest as dropped.
    #[test]
    fn a_long_closed_lane_keeps_the_newest_windows_and_counts_them_all() {
        let windows: Vec<WindowDecision> = (0..4096 + 3)
            .map(|i| window(i as f64, StepClass::Clamped, 1))
            .collect();
        let lane = LaneTelemetry::default();
        let snap = lane.snapshot("adaptive", 0, 0, Some(&windows));
        if COMPILED_OUT {
            return;
        }
        assert_eq!(snap.windows, windows[3..]);
        assert_eq!(snap.windows_dropped, 3);
        assert_eq!(snap.counter("queue.overflow_drops"), Some(4099));
        assert_eq!(snap.counter("throtloop.clamped_steps"), Some(4099));
    }
}
