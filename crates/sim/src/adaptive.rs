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
//! ([`SimPipeline::run_adaptive`]) around a one-queue
//! [`Governor`]; this module holds the capacity model and the report.

use lira_core::config::finite_positive;
use lira_core::policy::Policy;
use lira_core::throt_loop::WindowDecision;
use lira_server::governor::Governor;
use lira_workload::scenario::Scenario;

use crate::metrics::{FaultReport, MetricsReport};
use crate::pipeline::SimPipeline;

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

impl AdaptiveConfig {
    /// Says why no closed loop can run under this model: whatever
    /// [`Governor::check`] refuses (`B < 2`, a service rate that is not
    /// positive and finite), or a control period that is not positive and
    /// finite. [`SimPipeline::run_adaptive`] panics on a refusal.
    pub fn validate(&self) -> Result<(), String> {
        Governor::<()>::check(self.queue_capacity, self.service_rate)?;
        finite_positive("control period", self.control_period_s)
    }
}

/// Result of a closed-loop run.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// Per-window timeline.
    pub windows: Vec<WindowDecision>,
    /// Final throttle fraction.
    pub final_throttle: f64,
    /// Fraction of all arrivals dropped over the whole run.
    pub drop_fraction: f64,
    /// Accuracy vs the (infinitely provisioned) reference server.
    pub metrics: MetricsReport,
    /// Uplink delivery accounting (zeros on the perfect channel).
    pub faults: FaultReport,
    /// Controller/queue telemetry snapshot (the ring of the newest window
    /// decisions, the overflow and step-class counters and the service
    /// latency); schema in docs/TELEMETRY.md. Its `windows` equal
    /// [`Self::windows`] in a recording build and are empty under
    /// `telemetry-off`.
    pub telemetry: lira_core::telemetry::TelemetrySnapshot,
}

/// Runs LIRA in the closed loop for `sc.duration_s` seconds with the
/// default pipeline options (see [`SimPipeline::run_adaptive`] for other
/// policies and engines).
pub fn run_adaptive(sc: &Scenario, cfg: &AdaptiveConfig) -> AdaptiveReport {
    SimPipeline::new().run_adaptive(sc, cfg, Policy::Lira)
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
    fn validate_refuses_a_control_period_that_is_not_positive_and_finite() {
        assert_eq!(AdaptiveConfig::default().validate(), Ok(()));
        for control_period_s in [0.0, -20.0, f64::NAN, f64::INFINITY] {
            let cfg = AdaptiveConfig {
                control_period_s,
                ..AdaptiveConfig::default()
            };
            let why = cfg.validate().expect_err("refused");
            assert!(why.contains("control period"), "{why}");
        }
    }

    #[test]
    #[should_panic(expected = "two for THROTLOOP")]
    fn run_adaptive_refuses_a_one_slot_queue() {
        let cfg = AdaptiveConfig {
            queue_capacity: 1,
            ..AdaptiveConfig::default()
        };
        run_adaptive(&scenario(), &cfg);
    }

    #[test]
    fn a_fractional_service_rate_drains_at_its_declared_average() {
        // µ·dt = 0.25: the server earns one update every fourth tick, so
        // 100 ticks of an overloaded queue service exactly 25.
        let mut sc = scenario();
        sc.duration_s = 100.0;
        let cfg = AdaptiveConfig {
            service_rate: 0.25,
            queue_capacity: 200,
            control_period_s: 20.0,
        };
        let report = run_adaptive(&sc, &cfg);
        assert!(report.drop_fraction > 0.5, "the queue must stay full");
        if lira_core::telemetry::COMPILED_OUT {
            return;
        }
        let serviced = report
            .telemetry
            .histogram("queue.service_latency_us")
            .expect("the closed loop records service latency")
            .count;
        assert_eq!(serviced, 25);
    }

    #[test]
    fn windows_that_admit_nothing_do_not_re_plan() {
        // Through a total outage THROTLOOP still relaxes z, but with
        // nothing admitted since the last re-plan the lane keeps its plan
        // — the served session's rule, now the one rule.
        use lira_server::channel::{FaultProfile, Outage};
        let mut outage = FaultProfile::none();
        outage.outages.push(Outage::window(40.0, 70.0));
        let mut sc = Scenario::small(42).with_faults(outage);
        sc.num_cars = 300;
        sc.duration_s = 100.0;
        let cfg = AdaptiveConfig {
            service_rate: 30.0,
            queue_capacity: 200,
            control_period_s: 10.0,
        };
        let report = run_adaptive(&sc, &cfg);
        let silent: Vec<f64> = report
            .windows
            .iter()
            .filter(|w| !w.adapt_due)
            .map(|w| w.time)
            .collect();
        assert_eq!(silent, [50.0, 60.0]);
        for w in &report.windows {
            assert_eq!(w.adapt_due, w.arrival_rate > 0.0, "t = {}", w.time);
        }
        if lira_core::telemetry::COMPILED_OUT {
            return;
        }
        let adaptations = report.telemetry.histogram("lane.adapt_us").unwrap().count;
        assert_eq!(adaptations as usize, report.windows.len() - silent.len());
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
