//! `sim_paper`: the paper's own experiment through `lira-sim`. Two
//! `Scenario::paper` worlds, all six policies each through
//! `SimPipeline::run`, then one closed-loop `run_adaptive` — the only
//! workload that yields accuracy, and the one that drives `CqServer`,
//! the policies, THROTLOOP and the mobile-side shedder through the
//! simulator's drivers instead of the wire.

use std::time::Instant;

use lira_sim::prelude::{
    run_adaptive, AdaptiveConfig, AdaptiveReport, Policy, ReferenceTimeline, RunReport, Scenario,
    SimPipeline, SimSetup,
};

use crate::span::Tracer;

/// Measured trace length: the paper's 3600 s trace spends half its wall
/// in page faults and varied 23–32 s between two runs on the reference
/// host; 1200 s keeps both adaptation periods and is steady.
const DURATION_S: f64 = 1200.0;
/// Throttle fraction of the policy comparison.
const THROTTLE: f64 = 0.5;

/// The worlds of one run: the paper world at full scale, or
/// `Scenario::small` for `--smoke`.
pub fn scenarios(seed: u64, smoke: bool) -> [Scenario; 2] {
    [seed, seed.wrapping_add(1)].map(|s| {
        let mut sc = if smoke {
            Scenario::small(s)
        } else {
            Scenario {
                duration_s: DURATION_S,
                ..Scenario::paper(s)
            }
        };
        sc.throttle = THROTTLE;
        sc
    })
}

/// The closed loop's server: the paper world's reference load is about
/// 3000 updates/s, so µ = 1500/s needs `z ≈ 0.5`.
fn adaptive_config(smoke: bool) -> AdaptiveConfig {
    if smoke {
        AdaptiveConfig::default()
    } else {
        AdaptiveConfig {
            service_rate: 1500.0,
            queue_capacity: 5000,
            ..AdaptiveConfig::default()
        }
    }
}

/// One policy's accuracy and volume, averaged over the two worlds.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// The policy's display name.
    pub name: &'static str,
    /// Mean position error E^P_rr, m.
    pub pos_err_m: f64,
    /// Mean containment error E^C_rr.
    pub contain_err: f64,
    /// Updates the mobile nodes sent, summed over the two worlds.
    pub updates_sent: u64,
}

/// What the simulator produced: everything here is a pure function of
/// the seed and must repeat bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutput {
    /// Per policy, in `Policy::ALL` order.
    pub policies: Vec<PolicyRow>,
    /// Updates the servers applied: every policy lane, both reference
    /// servers, and the closed loop's capacity-limited server.
    pub updates_processed: u64,
    /// The closed loop's final throttle fraction.
    pub adaptive_final_z: f64,
    /// The closed loop's overall drop fraction.
    pub adaptive_drop_frac: f64,
    /// The closed loop's mean position error, m.
    pub adaptive_pos_err_m: f64,
}

/// One run of the workload.
pub struct SimRun {
    /// What it computed.
    pub output: SimOutput,
    /// Wall of each job (the two `SimPipeline::run` calls, then
    /// `run_adaptive`), s.
    pub job_wall_s: Vec<f64>,
    /// The second world's per-policy tuples, for [`reproduces`].
    second_world: Vec<(f64, f64, u64)>,
}

fn tuples(report: &RunReport) -> Vec<(f64, f64, u64)> {
    report
        .outcomes
        .iter()
        .map(|o| {
            (
                o.metrics.mean_position,
                o.metrics.mean_containment,
                o.updates_sent,
            )
        })
        .collect()
}

/// Runs the second world's policy comparison again and says whether it
/// reproduces `run`'s bit for bit (lanes run on threads; their outputs
/// must not depend on the interleaving).
pub fn reproduces(run: &SimRun, seed: u64, smoke: bool) -> bool {
    let again = SimPipeline::new().run(&scenarios(seed, smoke)[1], &Policy::ALL);
    tuples(&again) == run.second_world
}

fn summarize(reports: &[RunReport], adaptive: &AdaptiveReport) -> SimOutput {
    let n = reports.len() as f64;
    let policies = Policy::ALL
        .iter()
        .map(|&p| {
            let outcomes: Vec<_> = reports
                .iter()
                .map(|r| r.outcome(p).expect("every policy was run"))
                .collect();
            PolicyRow {
                name: p.name(),
                pos_err_m: outcomes
                    .iter()
                    .map(|o| o.metrics.mean_position)
                    .sum::<f64>()
                    / n,
                contain_err: outcomes
                    .iter()
                    .map(|o| o.metrics.mean_containment)
                    .sum::<f64>()
                    / n,
                updates_sent: outcomes.iter().map(|o| o.updates_sent).sum(),
            }
        })
        .collect();
    let lanes: u64 = reports
        .iter()
        .map(|r| r.reference_updates + r.outcomes.iter().map(|o| o.updates_processed).sum::<u64>())
        .sum();
    // One latency sample is recorded per update the closed loop's server
    // takes off its queue.
    let adaptive_processed = adaptive
        .telemetry
        .histogram("queue.service_latency_us")
        .map_or(0, |h| h.count);
    SimOutput {
        policies,
        updates_processed: lanes + adaptive_processed,
        adaptive_final_z: adaptive.final_throttle,
        adaptive_drop_frac: adaptive.drop_fraction,
        adaptive_pos_err_m: adaptive.metrics.mean_position,
    }
}

/// Runs the three jobs, timing each from outside.
pub fn run(seed: u64, smoke: bool, tr: &mut Tracer) -> SimRun {
    let worlds = scenarios(seed, smoke);
    let pipeline = SimPipeline::new();
    let mut job_wall_s = Vec::new();
    let mut reports = Vec::new();
    for (i, sc) in worlds.iter().enumerate() {
        tr.set_round(i + 1);
        tr.enter("sim.pipeline.run");
        let started = Instant::now();
        reports.push(pipeline.run(sc, &Policy::ALL));
        job_wall_s.push(started.elapsed().as_secs_f64());
        tr.exit();
    }
    tr.set_round(worlds.len() + 1);
    tr.enter("sim.adaptive.run");
    let started = Instant::now();
    let adaptive = run_adaptive(&worlds[0], &adaptive_config(smoke));
    job_wall_s.push(started.elapsed().as_secs_f64());
    tr.exit();
    SimRun {
        output: summarize(&reports, &adaptive),
        job_wall_s,
        second_world: tuples(&reports[1]),
    }
}

/// Set-up of the simulator: building one world (road network, fleet,
/// warm-up, queries). `SimPipeline::run` builds its own again; this is
/// the part of a job that happens before any update flows.
pub fn setup_once(seed: u64, smoke: bool) -> f64 {
    let sc = &scenarios(seed, smoke)[0];
    let started = Instant::now();
    std::hint::black_box(SimSetup::build(sc, sc.calibrate_model));
    started.elapsed().as_secs_f64()
}

/// The stages of `SimPipeline::run` on the first world, each called
/// from outside under its own span: `SimSetup::build`, `record_trace`,
/// `ReferenceTimeline::compute`. What `run` takes beyond their sum is
/// the policy lanes.
pub fn stages(seed: u64, smoke: bool, tr: &mut Tracer) {
    let sc = &scenarios(seed, smoke)[0];
    tr.set_round(1);
    tr.enter("sim.setup.build");
    let mut setup = SimSetup::build(sc, sc.calibrate_model);
    tr.exit();
    tr.enter("sim.trace.record");
    let trace = setup.record_trace(sc);
    tr.exit();
    tr.enter("sim.reference.compute");
    std::hint::black_box(ReferenceTimeline::compute(&trace, &setup, sc));
    tr.exit();
}
