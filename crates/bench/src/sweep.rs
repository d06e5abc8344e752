//! The shared sweep driver behind the figure and experiment binaries.
//!
//! Every evaluation figure is the same shape of computation: a grid of
//! *sweep points* (a `z` value, a region count `l`, a fairness threshold…)
//! × a set of seeds, each cell one [`run_scenario`]-style simulation, each
//! point averaged over its seeds. This module runs that grid once,
//! spreading the independent cells over the machine's cores with
//! [`std::thread::scope`] worker threads.
//!
//! Each cell streams like any [`SimPipeline`] run: its recorder,
//! reference replay and lanes are threads holding a few dozen ticks, so
//! a paper-scale cell needs tens of MiB, not its whole trace. Results are
//! deterministic — cells are written to indexed slots and reduced in
//! point-major, seed-ascending order, so a sweep is bit-identical however
//! many workers run it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use lira_sim::prelude::*;

/// Metrics plus budget accounting, averaged over seeds.
#[derive(Debug, Clone, Default)]
pub struct AveragedOutcome {
    pub mean_containment: f64,
    pub mean_position: f64,
    pub stddev_containment: f64,
    pub cov_containment: f64,
    pub processed_fraction: f64,
    pub updates_sent: f64,
    pub adapt_micros: f64,
    /// Fraction of uplink sends terminally lost (0 on the perfect channel).
    pub loss_fraction: f64,
    /// Retransmissions per run (0 without a retry policy).
    pub retries: f64,
    /// Mean delivery staleness in seconds (0 on the perfect channel).
    pub mean_staleness_s: f64,
    /// The policy's lane telemetry merged across seeds (counters and
    /// histograms sum; see docs/TELEMETRY.md for the schema).
    pub telemetry: TelemetrySnapshot,
}

/// Averages each policy's outcome across the given reports (one report
/// per seed, all evaluating the same policy roster in the same order).
pub(crate) fn average_outcomes(
    policies: &[Policy],
    reports: &[&RunReport],
) -> Vec<(Policy, AveragedOutcome)> {
    let mut sums: Vec<AveragedOutcome> = vec![AveragedOutcome::default(); policies.len()];
    for report in reports {
        for (i, o) in report.outcomes.iter().enumerate() {
            let s = &mut sums[i];
            s.mean_containment += o.metrics.mean_containment;
            s.mean_position += o.metrics.mean_position;
            s.stddev_containment += o.metrics.stddev_containment;
            s.cov_containment += o.metrics.cov_containment;
            s.processed_fraction += o.processed_fraction;
            s.updates_sent += o.updates_sent as f64;
            s.adapt_micros +=
                o.adapt_micros.iter().sum::<u64>() as f64 / o.adapt_micros.len().max(1) as f64;
            s.loss_fraction += o.faults.loss_fraction();
            s.retries += o.faults.retries as f64;
            s.mean_staleness_s += o.faults.mean_staleness_s;
            s.telemetry.merge(&o.telemetry);
        }
    }
    let k = reports.len().max(1) as f64;
    policies
        .iter()
        .zip(sums)
        .map(|(&p, mut s)| {
            s.mean_containment /= k;
            s.mean_position /= k;
            s.stddev_containment /= k;
            s.cov_containment /= k;
            s.processed_fraction /= k;
            s.updates_sent /= k;
            s.adapt_micros /= k;
            s.loss_fraction /= k;
            s.retries /= k;
            s.mean_staleness_s /= k;
            s.telemetry.component = format!("lane:{}", p.name());
            (p, s)
        })
        .collect()
}

/// Runs the full `points × seeds` grid — `make(point, seed)` builds each
/// cell's scenario — and returns one averaged outcome row per point, in
/// point order.
pub(crate) fn run_sweep<P: Sync>(
    seeds: &[u64],
    policies: &[Policy],
    points: &[P],
    make: impl Fn(&P, u64) -> Scenario + Sync,
) -> Vec<Vec<(Policy, AveragedOutcome)>> {
    // Cell j covers point j / seeds.len(), seed j % seeds.len().
    let num_jobs = points.len() * seeds.len();
    let results: Vec<OnceLock<RunReport>> = (0..num_jobs).map(|_| OnceLock::new()).collect();
    let run_job = |j: usize| {
        let sc = make(&points[j / seeds.len()], seeds[j % seeds.len()]);
        let _ = results[j].set(SimPipeline::new().run(&sc, policies));
    };

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(num_jobs);
    if workers <= 1 {
        for j in 0..num_jobs {
            run_job(j);
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    if j >= num_jobs {
                        break;
                    }
                    run_job(j);
                });
            }
        });
    }

    (0..points.len())
        .map(|pi| {
            let reports: Vec<&RunReport> = (0..seeds.len())
                .map(|si| {
                    results[pi * seeds.len() + si]
                        .get()
                        .expect("every sweep cell completed")
                })
                .collect();
            average_outcomes(policies, &reports)
        })
        .collect()
}

/// Runs `make_scenario(seed)` for every seed, evaluating `policies`, and
/// averages each policy's outcome across seeds — a one-point sweep, with
/// the seeds parallelized across cores.
pub fn run_averaged(
    seeds: &[u64],
    policies: &[Policy],
    make_scenario: impl Fn(u64) -> Scenario + Sync,
) -> Vec<(Policy, AveragedOutcome)> {
    run_sweep(seeds, policies, &[()], |_, seed| make_scenario(seed))
        .pop()
        .expect("one point in, one row out")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> Scenario {
        let mut sc = Scenario::small(seed);
        sc.num_cars = 60;
        sc.duration_s = 30.0;
        sc.warmup_s = 10.0;
        sc
    }

    #[test]
    fn averaging_runs_policies() {
        let out = run_averaged(&[3, 5], &[Policy::UniformDelta], tiny);
        assert_eq!(out.len(), 1);
        assert!(out[0].1.updates_sent > 0.0);
    }

    #[test]
    fn sweep_rows_align_with_points() {
        let points = [0.4, 0.8];
        let rows = run_sweep(&[3], &[Policy::Lira], &points, |&z, seed| {
            let mut sc = tiny(seed);
            sc.throttle = z;
            sc
        });
        assert_eq!(rows.len(), 2);
        // A tighter budget cannot process more updates.
        assert!(rows[0][0].1.processed_fraction <= rows[1][0].1.processed_fraction + 0.05);
    }

    #[test]
    fn sweep_matches_per_point_runs() {
        // The parallel grid must reproduce the single-point driver bit for
        // bit (same seeds, same scenarios, same reduction order).
        let points = [13u64, 29];
        let rows = run_sweep(&[3, 5], &[Policy::UniformDelta], &points, |&extra, seed| {
            tiny(seed.wrapping_add(extra))
        });
        for (pi, &extra) in points.iter().enumerate() {
            let lone = run_averaged(&[3, 5], &[Policy::UniformDelta], |seed| {
                tiny(seed.wrapping_add(extra))
            });
            assert_eq!(rows[pi][0].1.mean_containment, lone[0].1.mean_containment);
            assert_eq!(rows[pi][0].1.updates_sent, lone[0].1.updates_sent);
        }
    }
}
