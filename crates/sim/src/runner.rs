//! The end-to-end evaluation entry point: one traffic trace feeding a
//! *reference* CQ server (`Δ⊢` everywhere — the paper's definition of the
//! correct answer) and one shedding CQ server per policy under test, with
//! the accuracy metrics of Section 4.1 accumulated at every evaluation
//! round.
//!
//! The actual staging (the streamed recorder, reference replay and
//! per-policy lanes) lives in [`crate::pipeline`] and the policy
//! roster in [`lira_core::policy`]; this module holds the report types.

use lira_core::policy::Policy;
use lira_workload::scenario::Scenario;

use crate::metrics::{FaultReport, MetricsReport};
use crate::pipeline::SimPipeline;

/// Per-policy outcome of a run.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The evaluated policy.
    pub policy: Policy,
    /// Accuracy metrics vs. the reference server.
    pub metrics: MetricsReport,
    /// Uplink delivery/loss/retry accounting (all zeros when the
    /// scenario runs the perfect channel).
    pub faults: FaultReport,
    /// The lane's telemetry snapshot (metrics schema in
    /// docs/TELEMETRY.md); `enabled: false` with zeroed metrics when the
    /// pipeline ran with telemetry off.
    pub telemetry: lira_core::telemetry::TelemetrySnapshot,
    /// Position updates sent by the mobile nodes (wireless cost; under
    /// faults, see `faults.transmissions` for the airtime actually paid).
    pub updates_sent: u64,
    /// Updates actually applied by the server (differs from `updates_sent`
    /// only for Random Drop).
    pub updates_processed: u64,
    /// `updates_processed` relative to the reference server's update count
    /// — should track the throttle fraction `z` for the source-actuated
    /// policies.
    pub processed_fraction: f64,
    /// Microseconds spent in each adaptation step (server-side cost,
    /// Figure 14).
    pub adapt_micros: Vec<u64>,
    /// Number of regions in the final plan.
    pub plan_regions: usize,
    /// How unevenly server-actuated drops landed across the monitored
    /// space: the drop-volume-weighted mean over plan epochs of the
    /// coefficient of variation of shed counts on a fixed 4×4 spatial
    /// grid. `0` for source-actuated policies (they shed at the sender,
    /// not the input queue); for Random Drop it tracks how strongly the
    /// dropped volume concentrates in hotspots.
    pub shed_skew: f64,
    /// How unevenly the *plan itself* spreads its thresholds: the mean
    /// over adaptation epochs of the CoV of per-region `Δ` values. `0`
    /// for single-threshold plans (Uniform Delta, Random Drop); higher
    /// means the policy differentiates regions more aggressively.
    pub plan_skew: f64,
}

/// The result of one scenario run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Updates received by the reference (`Δ⊢`) server.
    pub reference_updates: u64,
    /// Number of registered queries.
    pub num_queries: usize,
    /// Number of mobile nodes.
    pub num_cars: usize,
    /// Per-policy outcomes, in the order requested.
    pub outcomes: Vec<PolicyOutcome>,
    /// Stage wall-time telemetry for the whole pipeline run (setup, then
    /// the streamed stage with its recorder and reference replay).
    pub pipeline_telemetry: lira_core::telemetry::TelemetrySnapshot,
}

impl RunReport {
    /// The outcome for a given policy, if it was evaluated.
    pub fn outcome(&self, policy: Policy) -> Option<&PolicyOutcome> {
        self.outcomes.iter().find(|o| o.policy == policy)
    }
}

/// Runs one scenario, evaluating all `policies` over the *same* traffic and
/// query workload (shared reference server), and returns the comparison.
/// With two or more policies the per-policy lanes run on scoped threads;
/// see [`SimPipeline`] for execution control.
pub fn run_scenario(sc: &Scenario, policies: &[Policy]) -> RunReport {
    SimPipeline::new().run(sc, policies)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_produces_sane_report() {
        let sc = Scenario::small(3);
        let report = run_scenario(&sc, &Policy::ALL);
        assert_eq!(report.outcomes.len(), 6);
        assert_eq!(report.num_cars, 250);
        assert_eq!(report.num_queries, 10);
        assert!(report.reference_updates > 0);
        for o in &report.outcomes {
            assert!(o.updates_sent > 0, "{:?} sent no updates", o.policy);
            assert!(o.updates_processed <= o.updates_sent);
            assert!(!o.adapt_micros.is_empty());
        }
    }

    #[test]
    fn source_actuated_policies_respect_budget() {
        let sc = Scenario::small(5);
        let report = run_scenario(
            &sc,
            &[
                Policy::Lira,
                Policy::LiraGrid,
                Policy::UniformDelta,
                Policy::UtilityGreedy,
                Policy::UtilityModel,
            ],
        );
        for o in &report.outcomes {
            assert_eq!(o.updates_sent, o.updates_processed, "{:?}", o.policy);
            // Budget: processed fraction near or below z (dead-reckoning
            // granularity and transient adaptation leave some slack).
            assert!(
                o.processed_fraction < sc.throttle * 1.35 + 0.05,
                "{:?} spent {} of the reference updates (z = {})",
                o.policy,
                o.processed_fraction,
                sc.throttle
            );
        }
    }

    #[test]
    fn random_drop_pays_full_wireless_cost() {
        let sc = Scenario::small(7);
        let report = run_scenario(&sc, &[Policy::RandomDrop]);
        let o = &report.outcomes[0];
        // The nodes still send (almost) the reference volume...
        assert!(
            o.updates_sent as f64 > 0.85 * report.reference_updates as f64,
            "sent {} vs reference {}",
            o.updates_sent,
            report.reference_updates
        );
        // ...but only ~z of it is processed.
        let processed_ratio = o.updates_processed as f64 / o.updates_sent as f64;
        assert!(
            (processed_ratio - sc.throttle).abs() < 0.1,
            "processed ratio {processed_ratio}"
        );
    }

    #[test]
    fn lira_beats_random_drop_on_position_error() {
        let sc = Scenario::small(11);
        let report = run_scenario(&sc, &[Policy::Lira, Policy::RandomDrop]);
        let lira = report.outcome(Policy::Lira).unwrap();
        let drop = report.outcome(Policy::RandomDrop).unwrap();
        assert!(
            drop.metrics.mean_position > lira.metrics.mean_position,
            "LIRA {} m vs Random Drop {} m",
            lira.metrics.mean_position,
            drop.metrics.mean_position
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let sc = Scenario::small(13);
        let a = run_scenario(&sc, &[Policy::Lira]);
        let b = run_scenario(&sc, &[Policy::Lira]);
        assert_eq!(a.reference_updates, b.reference_updates);
        assert_eq!(
            a.outcomes[0].metrics.mean_containment,
            b.outcomes[0].metrics.mean_containment
        );
        assert_eq!(a.outcomes[0].updates_sent, b.outcomes[0].updates_sent);
    }
}
