//! The composable simulation pipeline behind
//! [`run_scenario`](crate::runner::run_scenario).
//!
//! A scenario run is [`SimSetup`] — road network, traffic demand, a
//! warmed-up (and optionally model-calibrating) [`TrafficSimulator`], and
//! the query workload — followed by one streamed stage of three parts:
//!
//! 1. the **recorder** steps the simulator through the measured window
//!    and sends every tick's car states, once, to each consumer over a
//!    bounded channel. The tick stream is the *only* coupling between the
//!    traffic model and the servers, so every consumer sees
//!    byte-identical inputs;
//! 2. the **reference replay** — the `Δ⊢` reference server — consumes the
//!    ticks and sends each evaluation round's frame (the paper's `R*(q)`
//!    and `p*(o)`) to every lane;
//! 3. N independent **policy lanes** — each owns its CQ server, dead
//!    reckoners, statistics grid, policy (a [`SheddingPolicy`] trait
//!    object), and metrics accumulator — consume the ticks and frames.
//!
//! The three run on scoped threads ([`std::thread::scope`], no extra
//! dependencies) and at most a few dozen ticks are in memory at once.
//! [`SimSetup::build`] grows the road network's route table on a scoped
//! pool, one worker per core the process may use (one under `taskset -c
//! 0`), with the same trees at any count.
//! Callers that replay one trace more than once
//! (`lira-storm`, the loopback battery) materialise it instead:
//! [`SimSetup::record_trace`] gives the [`TrafficTrace`] and
//! [`SimPipeline::reference`] the [`ReferenceTimeline`], built from the
//! same per-tick snapshot and reference step the streamed stage uses.
//!
//! There is one lane loop under two controls: [`SimPipeline::run`] holds
//! `z` fixed and re-plans on the scenario's adaptation period;
//! [`SimPipeline::run_adaptive`] puts a bounded queue, a finite service
//! rate and THROTLOOP in front of the same lane (Section 3.4). Every
//! server of a run comes from [`SimPipeline::server`].
//!
//! Lane results are deterministic regardless of scheduling: each lane
//! derives its RNG from the scenario seed and its policy index
//! (`seed + 1000 + index`, the same rule the sequential runner always
//! used), reads its ticks and frames in order from its own channels, and
//! touches no shared mutable state — so a run is bit-identical on one
//! core or many (the goldens of `tests/pipeline.rs` hold under `taskset
//! -c 0`).

use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::time::Instant;

use lira_core::config::LiraConfig;
use lira_core::geometry::{Point, Rect};
use lira_core::plan::SheddingPlan;
use lira_core::policy::{Policy, RoundFeedback, SheddingPolicy};
use lira_core::reduction::ReductionModel;
use lira_core::stats_grid::StatsGrid;
use lira_core::throt_loop::WindowDecision;
use lira_mobility::generator::{generate_network, NetworkConfig};
use lira_mobility::motion::{calibrate_reduction, DeadReckoner};
use lira_mobility::simulator::{TrafficConfig, TrafficSimulator};
use lira_server::channel::FaultyChannel;
use lira_server::cq_engine::CqServer;
use lira_server::governor::Governor;
use lira_server::query::{QueryResult, RangeQuery};
use lira_workload::scenario::{PhaseSchedule, Scenario};
use lira_workload::{generate_queries, WorkloadConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::adaptive::{AdaptiveConfig, AdaptiveReport};
use crate::metrics::{FaultReport, MetricsAccumulator};
use crate::runner::{PolicyOutcome, RunReport};
use crate::telemetry::{AdaptiveTelemetry, LaneTelemetry, PipelineTelemetry};

/// Ticks a consumer may fall behind the recorder before the recorder
/// blocks. The recorder steps a tick in less time than a lane takes to
/// consume it, so the depth only caps memory (≈ depth × cars × 32 B, about
/// 10 MB at 10 k cars); it changes no result, so there is nothing for a
/// caller to tune.
const STREAM_DEPTH: usize = 32;

/// One tick of the measured window as the recorder streams it: the
/// simulation time and every car's state.
type Tick = (f64, Arc<[CarState]>);

/// Measured-window length in ticks (the `record_trace` rule).
fn measured_ticks(sc: &Scenario) -> usize {
    (sc.duration_s / sc.dt).round() as usize
}

/// Stage 1: everything the measured window depends on — validated config,
/// reduction model (analytic or probe-calibrated), warmed-up traffic, and
/// the query workload.
pub struct SimSetup {
    /// Validated LIRA configuration derived from the scenario.
    pub config: LiraConfig,
    /// The monitored space.
    pub bounds: Rect,
    /// The update-reduction model `f(Δ)`.
    pub model: ReductionModel,
    /// The traffic simulator, already past `warmup_s`.
    pub sim: TrafficSimulator,
    /// The scenario's demand-phase schedule, advanced through warmup and
    /// consumed by the measured window's recording (or by a caller
    /// driving `sim` itself — apply before every step).
    pub phases: PhaseSchedule,
    /// The registered continual queries.
    pub queries: Vec<RangeQuery>,
}

impl SimSetup {
    /// Builds the substrate for a scenario. When `calibrate` is set the
    /// analytic `f(Δ)` is replaced by one measured from a cloned traffic
    /// probe (the clone leaves the measured run untouched).
    pub fn build(sc: &Scenario, calibrate: bool) -> Self {
        let config = sc.lira_config();
        config
            .validate()
            .expect("scenario produces a valid LiraConfig");
        sc.validate()
            .expect("scenario timing and extensions (phases/fleet/dead zones) validate");
        let bounds = sc.bounds();
        let model = ReductionModel::analytic(sc.delta_min, sc.delta_max, config.kappa());

        let network = generate_network(&NetworkConfig {
            bounds,
            spacing: sc.road_spacing,
            arterial_period: sc.arterial_period,
            expressway_period: sc.expressway_period,
            jitter_frac: 0.2,
            dead_zones: sc.dead_zones.clone(),
            seed: sc.seed,
        });
        let demand = sc.base_demand();
        let mut sim = TrafficSimulator::new(
            network,
            &demand,
            TrafficConfig {
                num_cars: sc.num_cars,
                seed: sc.seed,
            },
        );
        if let Some(scales) = sc.fleet_speed_scales() {
            // Applied after spawning, so a heterogeneous fleet's RNG
            // streams stay aligned with the homogeneous baseline.
            sim.scale_speeds(|id| scales[id as usize]);
        }
        let mut phases = PhaseSchedule::new(sc);
        for _ in 0..(sc.warmup_s / sc.dt).round() as usize {
            phases.apply_due(&mut sim);
            sim.step(sc.dt);
        }

        let model = if calibrate {
            calibrate_reduction(
                &mut sim.clone(),
                180.0_f64.min(sc.duration_s),
                sc.dt,
                sc.delta_min,
                sc.delta_max,
                config.kappa(),
                10,
            )
            .expect("calibration probe produces updates")
        } else {
            model
        };

        let positions: Vec<_> = sim.cars().iter().map(|c| c.position()).collect();
        let queries = generate_queries(
            &bounds,
            &positions,
            &WorkloadConfig::from_ratio(
                sc.query_distribution,
                sc.num_cars,
                sc.query_ratio,
                sc.query_side,
                sc.seed,
            ),
        );

        SimSetup {
            config,
            bounds,
            model,
            sim,
            phases,
            queries,
        }
    }

    /// Advances the setup's simulator through the measured window and
    /// keeps the whole trace in memory — for callers that replay it more
    /// than once; [`SimPipeline::run`] streams the same ticks instead.
    /// Demand-phase switches scheduled inside the window fire here.
    pub fn record_trace(&mut self, sc: &Scenario) -> TrafficTrace {
        let phases = &mut self.phases;
        TrafficTrace::record_with(&mut self.sim, measured_ticks(sc), sc.dt, |sim| {
            phases.apply_due(sim)
        })
    }
}

/// The one recording loop: `emit` sees the starting state, then the
/// state after each of `total_ticks` steps of `dt`, with `before_step`
/// run immediately before every step.
fn record_ticks(
    sim: &mut TrafficSimulator,
    total_ticks: usize,
    dt: f64,
    mut before_step: impl FnMut(&mut TrafficSimulator),
    mut emit: impl FnMut(&TrafficSimulator),
) {
    emit(sim);
    for _ in 0..total_ticks {
        before_step(sim);
        sim.step(dt);
        emit(sim);
    }
}

/// Every car's state at the simulator's current tick — the one snapshot
/// behind both [`TrafficTrace`] and the streamed ticks.
fn car_states(sim: &TrafficSimulator) -> impl Iterator<Item = CarState> + '_ {
    sim.cars().iter().map(|c| CarState {
        position: c.position(),
        velocity: c.velocity(),
    })
}

/// The recorder of the streamed stage: advances `sim` through `sc`'s
/// measured window (firing `phases` before every step) and sends each
/// tick, from the starting snapshot on, to every feed. A feed whose
/// consumer has hung up is skipped, so one failed lane cannot stall the
/// rest; the feeds close when this returns.
fn record_stream(
    sim: &mut TrafficSimulator,
    phases: &mut PhaseSchedule,
    sc: &Scenario,
    feeds: Vec<SyncSender<Tick>>,
) {
    record_ticks(
        sim,
        measured_ticks(sc),
        sc.dt,
        |sim| phases.apply_due(sim),
        |sim| {
            let tick: Tick = (sim.time(), car_states(sim).collect());
            for feed in &feeds {
                let _ = feed.send(tick.clone());
            }
        },
    );
}

/// Receives tick `tick` of a streamed run. A feed that ends early means
/// its recorder stopped (panicked): fail loudly instead of blocking or
/// scoring a short run.
fn next_tick(feed: &Receiver<Tick>, tick: usize) -> Tick {
    feed.recv()
        .unwrap_or_else(|_| panic!("trace feed ended before tick {tick}"))
}

/// One car's kinematic state at one trace tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarState {
    /// Position (m).
    pub position: Point,
    /// Velocity vector (m/s).
    pub velocity: (f64, f64),
}

impl CarState {
    /// Scalar speed (m/s).
    pub fn speed(&self) -> f64 {
        (self.velocity.0 * self.velocity.0 + self.velocity.1 * self.velocity.1).sqrt()
    }
}

/// The recorded traffic of the measured window, tick-major — the ticks
/// the streamed stage hands its consumers, kept whole for replaying more
/// than once. Tick 0 is the post-warmup snapshot (where the initial
/// adaptation runs); ticks `1..=ticks()` follow each simulation step.
pub struct TrafficTrace {
    num_cars: usize,
    times: Vec<f64>,
    states: Vec<CarState>,
}

impl TrafficTrace {
    /// Advances `sim` by `total_ticks` steps of `dt`, recording every car's
    /// state at every tick (including the starting state).
    pub fn record(sim: &mut TrafficSimulator, total_ticks: usize, dt: f64) -> Self {
        Self::record_with(sim, total_ticks, dt, |_| {})
    }

    /// [`record`](Self::record) with a hook invoked immediately before
    /// every step — the pipeline threads demand-phase switches through it
    /// (see [`PhaseSchedule::apply_due`]).
    pub(crate) fn record_with<F: FnMut(&mut TrafficSimulator)>(
        sim: &mut TrafficSimulator,
        total_ticks: usize,
        dt: f64,
        before_step: F,
    ) -> Self {
        let num_cars = sim.cars().len();
        let mut times = Vec::with_capacity(total_ticks + 1);
        let mut states = Vec::with_capacity((total_ticks + 1) * num_cars);
        record_ticks(sim, total_ticks, dt, before_step, |sim| {
            times.push(sim.time());
            states.extend(car_states(sim));
        });
        TrafficTrace {
            num_cars,
            times,
            states,
        }
    }

    /// Number of recorded steps (excluding the starting snapshot).
    pub fn ticks(&self) -> usize {
        self.times.len() - 1
    }

    /// Number of cars per tick.
    pub fn num_cars(&self) -> usize {
        self.num_cars
    }

    /// Simulation time at `tick`.
    pub fn time(&self, tick: usize) -> f64 {
        self.times[tick]
    }

    /// All car states at `tick`.
    pub fn cars(&self, tick: usize) -> &[CarState] {
        &self.states[tick * self.num_cars..(tick + 1) * self.num_cars]
    }
}

/// One evaluation round of the reference server.
pub struct EvalFrame {
    /// The trace tick the round ran at.
    pub tick: usize,
    /// Simulation time of the round.
    pub time: f64,
    /// The reference result sets `R*(q)`, index-aligned with the queries.
    pub results: Vec<QueryResult>,
    /// The reference predicted position `p*(o)` per node id.
    pub predictions: Vec<Option<Point>>,
}

/// The `Δ⊢` reference server replayed over a recorded trace — the paper's
/// definition of the correct answer, with every frame the streamed stage
/// hands its lanes kept whole.
pub struct ReferenceTimeline {
    /// Updates the reference server received (the unshed volume).
    pub reference_updates: u64,
    /// One frame per evaluation round, in tick order.
    pub frames: Vec<EvalFrame>,
}

impl ReferenceTimeline {
    /// Replays the reference server (threshold `Δ⊢` everywhere) over the
    /// trace, evaluating every `sc.eval_period_s`, with the default
    /// pipeline options (see [`SimPipeline::reference`]).
    pub fn compute(trace: &TrafficTrace, setup: &SimSetup, sc: &Scenario) -> Self {
        SimPipeline::new().reference(trace, setup, sc)
    }
}

/// The `Δ⊢` reference server fed one tick at a time — the one replay body
/// behind both [`SimPipeline::reference`] and the streamed stage.
struct ReferenceReplay {
    server: CqServer,
    reckoners: Vec<DeadReckoner>,
    delta: f64,
    eval_every: usize,
    /// Updates the reference server has received so far.
    updates: u64,
}

impl ReferenceReplay {
    fn new(pipeline: &SimPipeline, setup: &SimSetup, sc: &Scenario) -> Self {
        ReferenceReplay {
            server: pipeline.server(setup, sc),
            reckoners: vec![DeadReckoner::new(); setup.sim.cars().len()],
            delta: sc.delta_min,
            eval_every: ticks_per(sc.eval_period_s, sc),
            updates: 0,
        }
    }

    /// Feeds tick `tick` (at time `t`) to the reference server and, when
    /// the tick is an evaluation round (a multiple of `eval_every`, the
    /// rule lanes follow too), returns the round's frame.
    fn step(&mut self, tick: usize, t: f64, cars: &[CarState]) -> Option<EvalFrame> {
        for (i, car) in cars.iter().enumerate() {
            if let Some(rep) =
                self.reckoners[i].observe(i as u32, t, car.position, car.velocity, self.delta)
            {
                self.updates += 1;
                self.server
                    .ingest(rep.node, t, rep.model.origin, rep.model.velocity);
            }
        }
        tick.is_multiple_of(self.eval_every).then(|| EvalFrame {
            tick,
            time: t,
            results: self.server.evaluate(t),
            predictions: (0..cars.len() as u32)
                .map(|n| self.server.predict(n, t))
                .collect(),
        })
    }
}

/// The reference replay of the streamed stage: replays every tick of
/// `feed` and sends each evaluation frame to every lane (a lane that has
/// hung up is skipped). Returns the reference's update count.
fn replay_stream(
    mut replay: ReferenceReplay,
    feed: Receiver<Tick>,
    sc: &Scenario,
    lanes: Vec<Sender<Arc<EvalFrame>>>,
) -> u64 {
    // The starting snapshot: the reference only replays steps.
    next_tick(&feed, 0);
    for tick in 1..=measured_ticks(sc) {
        let (t, cars) = next_tick(&feed, tick);
        if let Some(frame) = replay.step(tick, t, &cars) {
            let frame = Arc::new(frame);
            for lane in &lanes {
                let _ = lane.send(Arc::clone(&frame));
            }
        }
    }
    replay.updates
}

/// What one position update carries across the uplink: node id, motion
/// model origin, velocity, and the shedding-region index the sender was
/// in (`u32::MAX` when the plan resolved no region) — the last field
/// exists so per-region admission accounting survives the channel's
/// delay. Send time rides on the channel envelope.
pub(crate) type UplinkPayload = (u32, Point, (f64, f64), u32);

/// Region sentinel for "the plan had no region covering this position".
const NO_REGION: u32 = u32::MAX;

/// What sets a lane's throttle fraction, and what sits between admission
/// and the lane's server.
enum Control {
    /// `sc.throttle` throughout (the paper's system-parameter mode),
    /// re-planned every `sc.adapt_period_s` starting at tick 0. Admitted
    /// updates reach the server as they arrive.
    Fixed,
    /// THROTLOOP re-derives `z` every control window from a bounded input
    /// queue that the server drains at a finite rate (Section 3.4). No
    /// plan exists until the first window closes, and a window that
    /// admitted nothing keeps the plan it found.
    Closed {
        /// The one queue, holding each update's send time and payload
        /// stamped with its *delivery* time (so service latency measures
        /// queueing, not the wireless hop), and THROTLOOP over it.
        governor: Box<Governor<(f64, UplinkPayload)>>,
        cfg: AdaptiveConfig,
        /// Service earned and not yet spent (under one update), so a
        /// fractional `µ·dt` still drains at the declared rate.
        credit: f64,
        windows: Vec<WindowDecision>,
        tel: AdaptiveTelemetry,
    },
}

/// Stage 4: one policy's isolated simulation state. Owns everything it
/// mutates, so lanes can run on separate threads.
struct PolicyLane {
    policy: Policy,
    shedding: Box<dyn SheddingPolicy>,
    control: Control,
    server: CqServer,
    reckoners: Vec<DeadReckoner>,
    grid: StatsGrid,
    plan: SheddingPlan,
    /// Probability that the server admits an arriving update under the
    /// plan in force ([`SheddingPolicy::admission`]); 1 until the first
    /// plan.
    admission: f64,
    drop_rng: SmallRng,
    /// The uplink between this lane's dead reckoners and its server;
    /// `None` is the historical perfect channel.
    channel: Option<FaultyChannel<UplinkPayload>>,
    faults: FaultReport,
    updates_sent: u64,
    updates_processed: u64,
    adapt_micros: Vec<u64>,
    accumulator: MetricsAccumulator,
    /// The lane's evaluation-round result buffer, reused across rounds
    /// (the unified engine writes into it without allocating).
    shed_results: Vec<QueryResult>,
    tel: LaneTelemetry,
    /// Updates admitted per plan region in the current plan epoch. Kept
    /// as plain vectors — maintained identically whether telemetry is
    /// compiled in or out, so the lane does the same work either way.
    region_admitted: Vec<u64>,
    /// Updates shed (server-actuated admission drop) per plan region in
    /// the current plan epoch.
    region_shed: Vec<u64>,
    /// Accumulator totals at the previous evaluation round, so each
    /// round's error mass can be diffed out as policy feedback.
    prev_totals: (f64, f64),
    /// Per-node `Δ` caps for heterogeneous fleets (`None` = uncapped,
    /// the historical fast path).
    delta_caps: Option<Vec<f64>>,
    /// Where this epoch's server-actuated drops landed, on a fixed
    /// [`SKEW_GRID`]×[`SKEW_GRID`] partition of the monitored space. A
    /// *fixed* grid, not the plan's regions: Random Drop's plan is a
    /// single region, which would make its skew vacuously zero, and a
    /// plan-relative measure could not be compared across policies.
    skew_cells: Vec<u64>,
    /// The monitored space (for mapping drop positions to skew cells).
    bounds: Rect,
    /// Shed-volume-weighted sum of per-epoch shed-skew CoVs (numerator
    /// of [`PolicyOutcome::shed_skew`]).
    shed_skew_sum: f64,
    /// Total server-actuated drops across all epochs (its denominator).
    shed_skew_weight: f64,
    /// Sum and count of per-epoch plan-threshold CoVs (for
    /// [`PolicyOutcome::plan_skew`]).
    plan_skew_sum: f64,
    plan_epochs: u64,
}

/// Side of the fixed spatial grid used for shed-skew accounting (see
/// [`PolicyLane::skew_cells`]).
const SKEW_GRID: usize = 4;

/// Coefficient of variation (stddev/mean) of `values`; `0` when there are
/// fewer than two values or the mean is zero.
fn coefficient_of_variation(values: impl Iterator<Item = f64> + Clone) -> f64 {
    let (mut n, mut sum) = (0u64, 0.0f64);
    for v in values.clone() {
        n += 1;
        sum += v;
    }
    if n < 2 || sum == 0.0 {
        return 0.0;
    }
    let mean = sum / n as f64;
    let var = values.map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
    var.sqrt() / mean
}

/// Ticks per `period_s` (at least one).
fn ticks_per(period_s: f64, sc: &Scenario) -> usize {
    (period_s / sc.dt).round().max(1.0) as usize
}

impl PolicyLane {
    /// Builds the lane for `policy` at position `index` in the run, with
    /// its server taken from `pipeline`. The lane RNG seed is `scenario
    /// seed + 1000 + index`, matching the historical sequential runner so
    /// results stay reproducible; the channel RNG extends the same rule
    /// at offset 2000, keeping fault draws out of the admission stream (a
    /// faulty run perturbs traffic, never the drop decisions of an
    /// identically-seeded perfect run).
    fn new(
        pipeline: &SimPipeline,
        policy: Policy,
        index: usize,
        setup: &SimSetup,
        sc: &Scenario,
        closed: Option<&AdaptiveConfig>,
    ) -> Self {
        let tel = LaneTelemetry::new();
        let plan = SheddingPlan::uniform(setup.bounds, sc.delta_min);
        PolicyLane {
            policy,
            shedding: policy.build(&setup.config, &setup.model),
            control: match closed {
                None => Control::Fixed,
                Some(cfg) => Control::Closed {
                    governor: Box::new(
                        Governor::new(cfg.queue_capacity, cfg.service_rate, 1)
                            .expect("a validated adaptive config"),
                    ),
                    cfg: *cfg,
                    credit: 0.0,
                    windows: Vec::new(),
                    tel: tel.closed_loop(),
                },
            },
            server: pipeline.server(setup, sc),
            reckoners: vec![DeadReckoner::new(); sc.num_cars],
            grid: StatsGrid::new(sc.alpha, setup.bounds).expect("valid grid"),
            admission: 1.0,
            drop_rng: SmallRng::seed_from_u64(sc.seed.wrapping_add(1000 + index as u64)),
            channel: sc.faults.clone().map(|profile| {
                FaultyChannel::new(profile, sc.seed.wrapping_add(2000 + index as u64))
            }),
            faults: FaultReport::default(),
            updates_sent: 0,
            updates_processed: 0,
            adapt_micros: Vec::new(),
            accumulator: MetricsAccumulator::new(setup.queries.len()),
            shed_results: Vec::new(),
            tel,
            // The default plan's one region: feedback before the first
            // adaptation is indexed by it.
            region_admitted: vec![0; plan.len()],
            region_shed: vec![0; plan.len()],
            plan,
            prev_totals: (0.0, 0.0),
            delta_caps: sc.fleet_delta_caps(),
            skew_cells: vec![0; SKEW_GRID * SKEW_GRID],
            bounds: setup.bounds,
            shed_skew_sum: 0.0,
            shed_skew_weight: 0.0,
            plan_skew_sum: 0.0,
            plan_epochs: 0,
        }
    }

    /// Records one server-actuated drop at the sender's reported origin
    /// for shed-skew accounting.
    fn bump_skew_cell(&mut self, p: &Point) {
        let k = SKEW_GRID as f64;
        let fx = ((p.x - self.bounds.min.x) / self.bounds.width() * k) as usize;
        let fy = ((p.y - self.bounds.min.y) / self.bounds.height() * k) as usize;
        let cell = fy.min(SKEW_GRID - 1) * SKEW_GRID + fx.min(SKEW_GRID - 1);
        self.skew_cells[cell] += 1;
    }

    /// Closes the current plan epoch's shed-skew accounting: the CoV of
    /// server-actuated drops across the fixed spatial grid, weighted by
    /// the epoch's drop volume (epochs that shed nothing contribute
    /// nothing), then resets the epoch counters.
    fn flush_shed_skew(&mut self) {
        let total: u64 = self.skew_cells.iter().sum();
        if total == 0 {
            return;
        }
        let cov = coefficient_of_variation(self.skew_cells.iter().map(|&c| c as f64));
        self.shed_skew_sum += cov * total as f64;
        self.shed_skew_weight += total as f64;
        self.skew_cells.iter_mut().for_each(|c| *c = 0);
    }

    /// One adaptation round: snapshot statistics from the tick's car
    /// states and the workload, then let the policy re-plan. Only the
    /// policy's own computation is timed (the paper's server-side cost).
    fn adapt(&mut self, cars: &[CarState], z: f64) {
        // Close out the outgoing plan's per-region epoch before replacing
        // it (the region indices are only meaningful against one plan).
        // The default plan a lane starts under is not an epoch.
        if self.plan_epochs > 0 {
            self.tel
                .flush_regions(&self.region_admitted, &self.region_shed);
            self.flush_shed_skew();
        }
        self.grid.begin_snapshot();
        for car in cars {
            self.grid.observe_node(&car.position, car.speed(), 1.0);
        }
        for q in self.server.queries() {
            self.grid.observe_query(&q.range);
        }
        self.grid.commit_snapshot();
        let started = Instant::now();
        self.plan = self
            .shedding
            .adapt(&self.grid, z)
            .expect("adaptation succeeds on a committed snapshot");
        let micros = started.elapsed().as_micros() as u64;
        self.admission = self.shedding.admission(z);
        self.adapt_micros.push(micros);
        self.plan_skew_sum +=
            coefficient_of_variation(self.plan.regions().iter().map(|r| r.throttler));
        self.plan_epochs += 1;
        self.tel
            .on_adapt(micros, z, self.shedding.last_cost(), &self.plan);
        self.tel.on_utility(self.shedding.utility_scores());
        self.region_admitted.clear();
        self.region_admitted.resize(self.plan.len(), 0);
        self.region_shed.clear();
        self.region_shed.resize(self.plan.len(), 0);
    }

    /// Bumps a per-region epoch counter, ignoring the [`NO_REGION`]
    /// sentinel and indices from a superseded plan.
    fn bump_region(counts: &mut [u64], region: u32) {
        if let Some(slot) = counts.get_mut(region as usize) {
            *slot += 1;
        }
    }

    /// One update reaches the server's input at `now`, having been sent
    /// at `sent_at`. Admission is drawn per arrival: server-actuated
    /// policies (Random Drop) shed here, after the wireless cost is paid.
    /// On the perfect channel and under a zero-fault profile alike,
    /// arrivals come same-tick in send order, so the draw sequence is the
    /// same.
    fn arrive(&mut self, now: f64, sent_at: f64, update: UplinkPayload) {
        let (_, origin, _, region) = update;
        if self.admission < 1.0 && !self.drop_rng.gen_bool(self.admission) {
            self.tel.on_shed();
            Self::bump_region(&mut self.region_shed, region);
            self.bump_skew_cell(&origin);
            return;
        }
        match &mut self.control {
            // A region is credited with what its senders got applied.
            Control::Fixed => {
                if self.ingest(sent_at, update) {
                    Self::bump_region(&mut self.region_admitted, region);
                }
            }
            // A region is credited with what passed admission, whether
            // or not the bounded queue then has room for it.
            Control::Closed { governor, .. } => {
                Self::bump_region(&mut self.region_admitted, region);
                governor.offer_at(now, (sent_at, update));
            }
        }
    }

    /// Applies one update at its *send* time: delayed copies arrive
    /// stale, and the node store's per-node reorder guard (not this lane)
    /// decides what still applies — duplicates and overtaken reports fall
    /// out there.
    fn ingest(&mut self, sent_at: f64, (node, origin, velocity, _): UplinkPayload) -> bool {
        let applied = self.server.ingest(node, sent_at, origin, velocity);
        if applied {
            self.updates_processed += 1;
            self.tel.on_admitted();
        }
        applied
    }

    /// Runs the lane over the measured window, reading each tick from
    /// `ticks` and, on every evaluation tick, the reference's frame from
    /// `frames`: the one loop that drives a shedding server tick by tick.
    fn run(&mut self, ticks: Receiver<Tick>, frames: Receiver<Arc<EvalFrame>>, sc: &Scenario) {
        let total_ticks = measured_ticks(sc);
        let eval_every = ticks_per(sc.eval_period_s, sc);
        let adapt_every = {
            let (_, start) = next_tick(&ticks, 0);
            match &self.control {
                Control::Fixed => {
                    self.adapt(&start, sc.throttle);
                    ticks_per(sc.adapt_period_s, sc)
                }
                Control::Closed { cfg, .. } => ticks_per(cfg.control_period_s, sc),
            }
        };
        let mut channel = self.channel.take();
        // Per car, the plan region its last lookup found: most ticks a car
        // is still inside it, and `region_from` then skips the lookup grid.
        // Forgotten whenever the plan is replaced.
        let mut hints = vec![NO_REGION; sc.num_cars];
        let mut hints_epoch = self.plan_epochs;
        // Counted here and flushed once, off the per-car path.
        let (mut lookups, mut hint_hits) = (0u64, 0u64);

        for tick in 1..=total_ticks {
            let (t, cars) = next_tick(&ticks, tick);
            if hints_epoch != self.plan_epochs {
                hints.fill(NO_REGION);
                hints_epoch = self.plan_epochs;
            }
            lookups += cars.len() as u64;
            for (i, car) in cars.iter().enumerate() {
                // One lookup resolves both the throttler and the region
                // index, exactly as `region_at` would.
                let (region, delta) = self.plan.region_from(&car.position, hints[i]);
                let region = region.map_or(NO_REGION, |r| r as u32);
                hint_hits += u64::from(region == hints[i] && region != NO_REGION);
                hints[i] = region;
                // Heterogeneous fleets cap the plan's threshold per node
                // (a pedestrian's consumers reject wide Δ).
                let delta = match &self.delta_caps {
                    Some(caps) => delta.min(caps[i]),
                    None => delta,
                };
                if let Some(rep) =
                    self.reckoners[i].observe(i as u32, t, car.position, car.velocity, delta)
                {
                    self.updates_sent += 1;
                    self.tel.on_sent();
                    let update = (rep.node, rep.model.origin, rep.model.velocity, region);
                    match &mut channel {
                        None => self.arrive(t, t, update),
                        // The sender's true position is declared so
                        // regional outages (failed base stations) can
                        // match it; without regional outages in the
                        // profile this is bit-identical to plain `send`.
                        Some(ch) => ch.send_from(t, car.position, update),
                    }
                }
            }
            if let Some(ch) = &mut channel {
                for d in ch.poll(t) {
                    self.arrive(t, d.sent_at, d.payload);
                }
            }
            // The closed loop's server takes what this tick's service
            // earns off the queue and ingests it.
            if let Control::Closed {
                governor,
                cfg,
                credit,
                tel,
                ..
            } = &mut self.control
            {
                *credit += cfg.service_rate * sc.dt;
                let n = credit.floor();
                *credit -= n;
                let due: Vec<_> = governor.service_at(n as usize).collect();
                for (arrived_at, _) in &due {
                    tel.on_serviced(t - arrived_at);
                }
                for (_, (sent_at, update)) in due {
                    self.ingest(sent_at, update);
                }
            }

            if tick % adapt_every == 0 {
                let z = match &mut self.control {
                    // A plan installed at the last tick would shed nothing.
                    Control::Fixed => (tick != total_ticks).then_some(sc.throttle),
                    Control::Closed {
                        governor,
                        cfg,
                        windows,
                        tel,
                        ..
                    } => {
                        let decision = governor.close_window(t, cfg.control_period_s);
                        tel.on_window(&decision);
                        windows.push(decision);
                        decision.adapt_due.then_some(decision.throttle)
                    }
                };
                if let Some(z) = z {
                    self.adapt(&cars, z);
                }
            }

            if tick.is_multiple_of(eval_every) {
                let frame = frames
                    .recv()
                    .unwrap_or_else(|_| panic!("reference feed ended before tick {tick}"));
                assert_eq!(frame.tick, tick, "reference frame out of step");
                let stepped = self.server.stepped_nodes();
                self.server.evaluate_into(t, &mut self.shed_results);
                self.tel.on_evaluated(self.server.stepped_nodes() - stepped);
                let server = &self.server;
                self.accumulator.record_round(
                    &frame.results,
                    &self.shed_results,
                    |n| frame.predictions[n as usize],
                    |n| server.predict(n, t),
                );
                // Hand the round's realized error mass to feedback-aware
                // policies (a no-op for the feed-forward Section 4.2
                // policies, keeping their outcomes bit-identical).
                let (c_tot, p_tot) = self.accumulator.totals();
                let round_queries = frame.results.len().max(1) as f64;
                self.shedding.observe_round(&RoundFeedback {
                    position_error: (p_tot - self.prev_totals.1) / round_queries,
                    containment_error: (c_tot - self.prev_totals.0) / round_queries,
                    region_admitted: &self.region_admitted,
                    region_shed: &self.region_shed,
                    regions: self.plan.regions(),
                });
                self.prev_totals = (c_tot, p_tot);
            }
        }

        self.tel
            .flush_regions(&self.region_admitted, &self.region_shed);
        self.tel.on_plan_lookups(lookups, hint_hits);
        self.flush_shed_skew();
        if let Some(ch) = &channel {
            self.faults = FaultReport::from_channel(ch.stats(), ch.pending());
        }
        self.tel
            .on_run_end(channel.as_ref().map(|ch| ch.stats()), &self.server);
    }

    /// The fixed-`z` lane's outcome against the reference's unshed volume.
    fn outcome(self, reference_updates: u64) -> PolicyOutcome {
        PolicyOutcome {
            policy: self.policy,
            metrics: self.accumulator.report(),
            faults: self.faults,
            telemetry: self.tel.snapshot(&format!("lane:{}", self.policy.name())),
            updates_sent: self.updates_sent,
            updates_processed: self.updates_processed,
            processed_fraction: if reference_updates > 0 {
                self.updates_processed as f64 / reference_updates as f64
            } else {
                0.0
            },
            adapt_micros: self.adapt_micros,
            plan_regions: self.plan.len(),
            shed_skew: if self.shed_skew_weight > 0.0 {
                self.shed_skew_sum / self.shed_skew_weight
            } else {
                0.0
            },
            plan_skew: if self.plan_epochs > 0 {
                self.plan_skew_sum / self.plan_epochs as f64
            } else {
                0.0
            },
        }
    }

    /// The closed-loop lane's report. With no window ever closed the
    /// throttle in force is still the scenario's configured one.
    fn adaptive_report(self, sc: &Scenario) -> AdaptiveReport {
        let Control::Closed {
            governor, windows, ..
        } = self.control
        else {
            unreachable!("adaptive_report is only called on a lane built with a closed loop");
        };
        AdaptiveReport {
            final_throttle: windows.last().map_or(sc.throttle, |w| w.throttle),
            windows,
            drop_fraction: governor.drop_fraction(),
            metrics: self.accumulator.report(),
            faults: self.faults,
            telemetry: self.tel.snapshot("adaptive"),
        }
    }
}

/// The composed pipeline: setup, then the streamed stage (recorder →
/// reference replay → policy lanes).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimPipeline;

impl SimPipeline {
    /// The pipeline.
    pub fn new() -> Self {
        SimPipeline
    }

    /// A CQ server over `setup`'s space with the workload registered —
    /// the reference server and every lane's server come from here.
    pub fn server(&self, setup: &SimSetup, sc: &Scenario) -> CqServer {
        let mut s = CqServer::new(setup.bounds, sc.num_cars, 64);
        s.register_queries(setup.queries.iter().copied());
        s
    }

    /// Replays the reference server (threshold `Δ⊢` everywhere) over the
    /// trace, evaluating every `sc.eval_period_s`.
    pub fn reference(
        &self,
        trace: &TrafficTrace,
        setup: &SimSetup,
        sc: &Scenario,
    ) -> ReferenceTimeline {
        let mut replay = ReferenceReplay::new(self, setup, sc);
        let frames = (1..=trace.ticks())
            .filter_map(|tick| replay.step(tick, trace.time(tick), trace.cars(tick)))
            .collect();
        ReferenceTimeline {
            reference_updates: replay.updates,
            frames,
        }
    }

    /// The streamed stage: records `setup`'s measured window while the
    /// reference replay and every lane consume it tick by tick (see the
    /// module docs). Records the recorder's and the reference's walls on
    /// `ptel` and returns the reference's update count.
    fn stream(
        &self,
        setup: &mut SimSetup,
        sc: &Scenario,
        lanes: &mut [PolicyLane],
        ptel: &PipelineTelemetry,
    ) -> u64 {
        let replay = ReferenceReplay::new(self, setup, sc);
        let (feeds, mut tick_rxs): (Vec<SyncSender<Tick>>, Vec<_>) = (0..=lanes.len())
            .map(|_| mpsc::sync_channel(STREAM_DEPTH))
            .unzip();
        let reference_ticks = tick_rxs.remove(0);
        let (frame_txs, frame_rxs): (Vec<Sender<Arc<EvalFrame>>>, Vec<_>) =
            lanes.iter().map(|_| mpsc::channel()).unzip();

        let SimSetup { sim, phases, .. } = setup;
        let record = move || {
            let started = Instant::now();
            record_stream(sim, phases, sc, feeds);
            started.elapsed().as_micros() as u64
        };
        let reference = move || {
            let started = Instant::now();
            let updates = replay_stream(replay, reference_ticks, sc, frame_txs);
            (updates, started.elapsed().as_micros() as u64)
        };
        let lane_jobs = lanes
            .iter_mut()
            .zip(tick_rxs)
            .zip(frame_rxs)
            .map(|((lane, ticks), frames)| move || lane.run(ticks, frames, sc));

        let (trace_us, (reference_updates, reference_us)) = std::thread::scope(|scope| {
            let recorder = scope.spawn(record);
            let reference = scope.spawn(reference);
            let lanes: Vec<_> = lane_jobs.map(|job| scope.spawn(job)).collect();
            for lane in lanes {
                lane.join().expect("policy lane panicked");
            }
            (
                recorder.join().expect("trace recorder panicked"),
                reference.join().expect("reference replay panicked"),
            )
        });
        ptel.on_trace(trace_us);
        ptel.on_reference(reference_us);
        reference_updates
    }

    /// Runs the scenario for the given policies at the fixed throttle
    /// fraction `sc.throttle` and reports the comparison.
    pub fn run(&self, sc: &Scenario, policies: &[Policy]) -> RunReport {
        let ptel = PipelineTelemetry::new();
        let stage = Instant::now();
        let mut setup = SimSetup::build(sc, sc.calibrate_model);
        ptel.on_setup(stage.elapsed().as_micros() as u64);

        let mut lanes: Vec<PolicyLane> = policies
            .iter()
            .enumerate()
            .map(|(i, &policy)| PolicyLane::new(self, policy, i, &setup, sc, None))
            .collect();
        let stage = Instant::now();
        let reference_updates = self.stream(&mut setup, sc, &mut lanes, &ptel);
        ptel.on_lanes(stage.elapsed().as_micros() as u64);

        RunReport {
            reference_updates,
            num_queries: setup.queries.len(),
            num_cars: sc.num_cars,
            outcomes: lanes
                .into_iter()
                .map(|lane| lane.outcome(reference_updates))
                .collect(),
            pipeline_telemetry: ptel.snapshot(),
        }
    }

    /// Runs `policy` in the closed loop of [`crate::adaptive`] for
    /// `sc.duration_s` seconds; server-actuated policies (Random Drop)
    /// shed at the queue's input. The reference keeps its perfect feed
    /// under faulty uplinks (it defines the right answer).
    ///
    /// The closed loop always uses the analytic `f(Δ)`: the controller is
    /// being tested against the model the paper derives, not a calibrated
    /// refinement of it.
    ///
    /// Panics on a configuration [`AdaptiveConfig::validate`] refuses.
    pub fn run_adaptive(
        &self,
        sc: &Scenario,
        cfg: &AdaptiveConfig,
        policy: Policy,
    ) -> AdaptiveReport {
        cfg.validate().expect("valid adaptive config");
        let mut setup = SimSetup::build(sc, false);
        let mut lane = PolicyLane::new(self, policy, 0, &setup, sc, Some(cfg));
        self.stream(
            &mut setup,
            sc,
            std::slice::from_mut(&mut lane),
            &PipelineTelemetry::new(),
        );
        lane.adaptive_report(sc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};
    use std::time::Duration;

    /// Runs `f` on its own thread and returns how it ended; a stage that
    /// hangs fails the test at the deadline instead of stalling the suite.
    fn within_deadline<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        let (done, ended) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = done.send(panic::catch_unwind(AssertUnwindSafe(f)));
        });
        let outcome = ended
            .recv_timeout(Duration::from_secs(120))
            .expect("a streamed stage hung past its deadline");
        worker
            .join()
            .expect("the deadline worker reports, not panics");
        outcome
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    fn car_bits(c: &CarState) -> [u64; 4] {
        [c.position.x, c.position.y, c.velocity.0, c.velocity.1].map(f64::to_bits)
    }

    #[test]
    fn streamed_ticks_and_frames_match_the_recorded_stages() {
        let sc = Scenario::small(5);
        let pipeline = SimPipeline::new();
        let mut recorded = SimSetup::build(&sc, false);
        let trace = recorded.record_trace(&sc);
        let timeline = pipeline.reference(&trace, &recorded, &sc);

        let mut streamed = SimSetup::build(&sc, false);
        let replay = ReferenceReplay::new(&pipeline, &streamed, &sc);
        let (to_reference, reference_feed) = mpsc::sync_channel(STREAM_DEPTH);
        let (to_tap, tap) = mpsc::sync_channel(STREAM_DEPTH);
        let (to_lane, lane_frames) = mpsc::channel();
        let SimSetup { sim, phases, .. } = &mut streamed;
        let (ticks, updates) = std::thread::scope(|scope| {
            scope.spawn(|| record_stream(sim, phases, &sc, vec![to_reference, to_tap]));
            let reference =
                scope.spawn(|| replay_stream(replay, reference_feed, &sc, vec![to_lane]));
            let ticks: Vec<Tick> = tap.iter().collect();
            (ticks, reference.join().expect("reference replay"))
        });
        let frames: Vec<Arc<EvalFrame>> = lane_frames.iter().collect();

        assert_eq!(updates, timeline.reference_updates);
        assert_eq!(ticks.len(), trace.ticks() + 1);
        for (tick, (t, cars)) in ticks.iter().enumerate() {
            assert_eq!(t.to_bits(), trace.time(tick).to_bits(), "tick {tick} time");
            assert_eq!(cars.len(), trace.num_cars());
            for (s, r) in cars.iter().zip(trace.cars(tick)) {
                assert_eq!(car_bits(s), car_bits(r), "tick {tick} car state");
            }
        }
        assert!(!frames.is_empty());
        assert_eq!(frames.len(), timeline.frames.len());
        for (s, r) in frames.iter().zip(&timeline.frames) {
            assert_eq!(s.tick, r.tick);
            assert_eq!(s.time.to_bits(), r.time.to_bits());
            assert_eq!(s.results, r.results, "tick {} results", s.tick);
            let bits = |p: &[Option<Point>]| -> Vec<_> {
                p.iter()
                    .map(|p| p.map(|p| (p.x.to_bits(), p.y.to_bits())))
                    .collect()
            };
            assert_eq!(bits(&s.predictions), bits(&r.predictions));
        }
    }

    #[test]
    fn a_consumer_that_hangs_up_stalls_neither_the_recorder_nor_the_others() {
        // More ticks than the channel holds, so a recorder that waited on
        // the consumer that left would block for good.
        let sc = Scenario::small(6);
        let total_ticks = measured_ticks(&sc);
        assert!(total_ticks > 2 * STREAM_DEPTH);
        let received = within_deadline(move || {
            let mut setup = SimSetup::build(&sc, false);
            let (to_quitter, quitter) = mpsc::sync_channel(STREAM_DEPTH);
            let (to_stayer, stayer) = mpsc::sync_channel(STREAM_DEPTH);
            let SimSetup { sim, phases, .. } = &mut setup;
            std::thread::scope(|scope| {
                let recorder =
                    scope.spawn(|| record_stream(sim, phases, &sc, vec![to_quitter, to_stayer]));
                scope.spawn(move || {
                    for tick in 0..5 {
                        next_tick(&quitter, tick);
                    }
                });
                let received = stayer.iter().count();
                recorder
                    .join()
                    .expect("the recorder ignores a hung-up feed");
                received
            })
        })
        .expect("no stage panics");
        assert_eq!(received, total_ticks + 1);
    }

    #[test]
    fn a_feed_that_ends_early_panics_its_consumers() {
        let sc = Scenario::small(7);
        let setup = Arc::new(SimSetup::build(&sc, false));
        let start: Arc<[CarState]> = car_states(&setup.sim).collect();
        // Five ticks, then the recorder is gone.
        let short_feed = move || {
            let (feed, ticks) = mpsc::sync_channel(STREAM_DEPTH);
            for tick in 0..5 {
                feed.send((tick as f64, Arc::clone(&start)))
                    .expect("open feed");
            }
            ticks
        };

        let (reference_sc, reference_setup, ticks) = (sc.clone(), Arc::clone(&setup), short_feed());
        let reference = within_deadline(move || {
            let replay = ReferenceReplay::new(&SimPipeline::new(), &reference_setup, &reference_sc);
            replay_stream(replay, ticks, &reference_sc, Vec::new())
        });
        let message = panic_message(reference.expect_err("the reference panics"));
        assert_eq!(message, "trace feed ended before tick 5");

        let (lane_sc, lane_setup, ticks) = (sc.clone(), Arc::clone(&setup), short_feed());
        let lane = within_deadline(move || {
            let mut lane = PolicyLane::new(
                &SimPipeline::new(),
                Policy::Lira,
                0,
                &lane_setup,
                &lane_sc,
                None,
            );
            let (_, frames) = mpsc::channel();
            lane.run(ticks, frames, &lane_sc);
        });
        let message = panic_message(lane.expect_err("the lane panics"));
        assert_eq!(message, "trace feed ended before tick 5");

        // A whole trace but no reference: the lane stops at its first
        // evaluation round.
        let first_eval = ticks_per(sc.eval_period_s, &sc);
        let lane = within_deadline(move || {
            let mut setup = SimSetup::build(&sc, false);
            let mut lane = PolicyLane::new(&SimPipeline::new(), Policy::Lira, 0, &setup, &sc, None);
            let (feed, ticks) = mpsc::sync_channel(measured_ticks(&sc) + 1);
            let SimSetup { sim, phases, .. } = &mut setup;
            record_stream(sim, phases, &sc, vec![feed]);
            let (_, frames) = mpsc::channel();
            lane.run(ticks, frames, &sc);
        });
        let message = panic_message(lane.expect_err("the lane panics"));
        assert_eq!(
            message,
            format!("reference feed ended before tick {first_eval}")
        );
    }
}
