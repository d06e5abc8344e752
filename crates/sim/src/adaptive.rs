//! Closed-loop simulation: THROTLOOP driving the throttle fraction from
//! live input-queue observations (Section 3.4), end to end.
//!
//! Unlike [`run_scenario`](crate::runner::run_scenario), which evaluates
//! policies at a *fixed* `z`, the closed loop gives the shedding server a
//! bounded input queue and a finite service rate. Every control window the
//! controller observes `(λ, μ)`, recomputes `z`, and the policy re-plans;
//! the reference server remains infinitely provisioned (it defines
//! correctness, not feasibility).
//!
//! The loop itself is the pipeline's policy lane
//! ([`SimPipeline::run_adaptive`]); this module holds what the closed
//! loop adds to it — the capacity model, the queue and controller state
//! and the report.

use lira_core::policy::Policy;
use lira_core::throt_loop::ThrotLoop;
use lira_server::queue::UpdateQueue;
use lira_workload::scenario::Scenario;

use crate::metrics::{FaultReport, MetricsReport};
use crate::pipeline::{SimPipeline, UplinkPayload};
use crate::telemetry::AdaptiveTelemetry;

/// Server capacity model for the closed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Updates/second the shedding server can process.
    pub service_rate: f64,
    /// Input queue capacity `B`.
    pub queue_capacity: usize,
    /// Seconds between THROTLOOP observations (and re-plans).
    pub control_period_s: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            service_rate: 200.0,
            queue_capacity: 500,
            control_period_s: 20.0,
        }
    }
}

/// One control window's observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Simulation time at the end of the window.
    pub time: f64,
    /// Observed arrival rate λ (updates/s).
    pub arrival_rate: f64,
    /// Throttle fraction in force *after* the window's adaptation.
    pub throttle: f64,
    /// Queue length at the window end.
    pub queue_len: usize,
    /// Updates dropped (tail-drop) during the window.
    pub dropped: u64,
}

/// Result of a closed-loop run.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// Per-window timeline.
    pub windows: Vec<WindowStats>,
    /// Final throttle fraction.
    pub final_throttle: f64,
    /// Fraction of all arrivals dropped over the whole run.
    pub drop_fraction: f64,
    /// Accuracy vs the (infinitely provisioned) reference server.
    pub metrics: MetricsReport,
    /// Uplink delivery accounting (zeros on the perfect channel).
    pub faults: FaultReport,
    /// Controller/queue telemetry snapshot (per-window λ, μ, ρ, z,
    /// clamp/hold classification, queue depth and service latency);
    /// schema in docs/TELEMETRY.md.
    pub telemetry: lira_core::telemetry::TelemetrySnapshot,
}

/// Runs LIRA in the closed loop for `sc.duration_s` seconds with the
/// default pipeline options (see [`SimPipeline::run_adaptive`] for other
/// policies and engines).
pub fn run_adaptive(sc: &Scenario, cfg: &AdaptiveConfig) -> AdaptiveReport {
    SimPipeline::new().run_adaptive(sc, cfg, Policy::Lira)
}

/// An update waiting for service: its send time and what it carries.
type Queued = (f64, UplinkPayload);

/// What the closed loop puts between a policy lane's admission stage and
/// its server: a bounded input queue drained at the configured service
/// rate, and the THROTLOOP controller that turns each control window's
/// queue observation into the next throttle fraction.
pub(crate) struct ClosedLoop {
    cfg: AdaptiveConfig,
    controller: ThrotLoop,
    queue: UpdateQueue<Queued>,
    service_per_tick: usize,
    windows: Vec<WindowStats>,
    dropped_before: u64,
    tel: AdaptiveTelemetry,
}

impl ClosedLoop {
    pub(crate) fn new(cfg: &AdaptiveConfig, sc: &Scenario, tel: AdaptiveTelemetry) -> Self {
        ClosedLoop {
            cfg: *cfg,
            controller: ThrotLoop::new(cfg.queue_capacity).expect("valid queue capacity"),
            queue: UpdateQueue::new(cfg.queue_capacity),
            service_per_tick: (cfg.service_rate * sc.dt).round() as usize,
            windows: Vec::new(),
            dropped_before: 0,
            tel,
        }
    }

    /// Seconds between control windows.
    pub(crate) fn period_s(&self) -> f64 {
        self.cfg.control_period_s
    }

    /// Offers an admitted update to the queue (tail-dropped when full).
    /// The queue timestamp is the *delivery* time: service latency
    /// measures queueing, not the wireless hop.
    pub(crate) fn offer(&mut self, now: f64, sent_at: f64, update: UplinkPayload) {
        self.queue.offer_at(now, (sent_at, update));
    }

    /// The updates the server gets to at its fixed capacity this tick,
    /// each with its queue-entry time.
    pub(crate) fn service(&mut self, now: f64) -> Vec<(f64, Queued)> {
        let due: Vec<_> = self.queue.service_at(self.service_per_tick).collect();
        for (arrived_at, _) in &due {
            self.tel.on_serviced(now - arrived_at);
        }
        due
    }

    /// Closes a control window at `t`: THROTLOOP observes the window's
    /// `(λ, μ)` and returns the throttle fraction to re-plan under.
    pub(crate) fn close_window(&mut self, t: f64) -> f64 {
        let obs = self
            .queue
            .window_observation(self.cfg.control_period_s, self.cfg.service_rate);
        let z = self.controller.observe(obs);
        let dropped = self.queue.dropped() - self.dropped_before;
        self.dropped_before = self.queue.dropped();
        self.tel.on_window(
            t,
            self.queue.len(),
            dropped,
            obs.arrival_rate,
            obs.service_rate,
            &self.controller,
        );
        self.windows.push(WindowStats {
            time: t,
            arrival_rate: obs.arrival_rate,
            throttle: z,
            queue_len: self.queue.len(),
            dropped,
        });
        z
    }

    /// The run's report around the lane's accuracy, fault and telemetry
    /// books. With no window ever closed the throttle in force is still
    /// the scenario's configured one.
    pub(crate) fn report(
        self,
        sc: &Scenario,
        metrics: MetricsReport,
        faults: FaultReport,
        telemetry: lira_core::telemetry::TelemetrySnapshot,
    ) -> AdaptiveReport {
        AdaptiveReport {
            final_throttle: if self.windows.is_empty() {
                sc.throttle
            } else {
                self.controller.throttle()
            },
            windows: self.windows,
            drop_fraction: self.queue.drop_fraction(),
            metrics,
            faults,
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        let mut sc = Scenario::small(29);
        sc.num_cars = 300;
        sc.duration_s = 200.0;
        sc
    }

    #[test]
    fn ample_capacity_keeps_full_budget() {
        let sc = scenario();
        let cfg = AdaptiveConfig {
            service_rate: 10_000.0,
            queue_capacity: 10_000,
            control_period_s: 20.0,
        };
        let report = run_adaptive(&sc, &cfg);
        assert!(
            report.final_throttle > 0.95,
            "z = {}",
            report.final_throttle
        );
        assert_eq!(report.drop_fraction, 0.0);
        // Nothing shed: near-perfect accuracy.
        assert!(report.metrics.mean_containment < 0.01);
    }

    #[test]
    fn overload_drives_z_down_and_stops_drops() {
        let sc = scenario();
        // Unshed arrival rate for 300 cars is roughly 40–80 upd/s here;
        // capacity 25/s forces z well below 1.
        let cfg = AdaptiveConfig {
            service_rate: 25.0,
            queue_capacity: 200,
            control_period_s: 20.0,
        };
        let report = run_adaptive(&sc, &cfg);
        assert!(report.final_throttle < 0.8, "z = {}", report.final_throttle);
        assert!(!report.windows.is_empty());
        // Drops concentrate early; the last windows should be (nearly)
        // drop-free once the controller converges.
        let late_drops: u64 = report.windows.iter().rev().take(2).map(|w| w.dropped).sum();
        let early_drops: u64 = report.windows.iter().take(2).map(|w| w.dropped).sum();
        assert!(
            late_drops <= early_drops,
            "late {late_drops} vs early {early_drops}"
        );
        // The final arrival rate respects the capacity within the M/M/1
        // utilization target.
        let last = report.windows.last().unwrap();
        assert!(
            last.arrival_rate <= cfg.service_rate * 1.15,
            "λ = {} vs μ = {}",
            last.arrival_rate,
            cfg.service_rate
        );
    }

    #[test]
    fn policy_runner_drives_any_roster_policy() {
        let mut sc = scenario();
        sc.duration_s = 120.0;
        let cfg = AdaptiveConfig {
            service_rate: 40.0,
            queue_capacity: 200,
            control_period_s: 20.0,
        };
        for policy in [
            Policy::UtilityGreedy,
            Policy::UtilityModel,
            Policy::RandomDrop,
        ] {
            let report = SimPipeline::new().run_adaptive(&sc, &cfg, policy);
            assert!(!report.windows.is_empty(), "{policy:?}");
            assert!(
                report.final_throttle > 0.0 && report.final_throttle <= 1.0,
                "{policy:?}: z = {}",
                report.final_throttle
            );
            assert!(report.metrics.mean_containment.is_finite(), "{policy:?}");
        }
        // Determinism: the policy runner is a pure function of its inputs.
        let a = SimPipeline::new().run_adaptive(&sc, &cfg, Policy::UtilityGreedy);
        let b = SimPipeline::new().run_adaptive(&sc, &cfg, Policy::UtilityGreedy);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.final_throttle, b.final_throttle);
    }

    #[test]
    fn timeline_is_recorded() {
        let sc = scenario();
        let report = run_adaptive(&sc, &AdaptiveConfig::default());
        assert_eq!(report.windows.len(), (sc.duration_s / 20.0) as usize);
        for w in &report.windows {
            assert!(w.throttle > 0.0 && w.throttle <= 1.0);
            assert!(w.time > 0.0);
        }
    }
}
