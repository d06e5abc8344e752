//! The paper's evaluation metrics (Section 4.1.1).
//!
//! All accuracy metrics compare a *shedding* server against a *reference*
//! server that runs `Δ_i = Δ⊢` everywhere: `R*(q)` and `p*(o)` are the
//! reference server's result set and predicted positions, exactly as the
//! paper defines them (not physical ground truth).

use lira_core::geometry::Point;
use lira_server::channel::ChannelStats;
use lira_server::query::QueryResult;

/// Errors of one query at one evaluation instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryErrors {
    /// Containment error `(|R*\R| + |R\R*|)/|R*|`. When `R*` is empty the
    /// denominator is taken as 1 (the error then counts the extras).
    pub containment: f64,
    /// Mean position error over the nodes in the shed result `R(q)`
    /// (0 when `R(q)` is empty).
    pub position: f64,
}

/// Errors of one query's shed result `s` against its reference `r` — the
/// one place the Section 4.1.1 arithmetic lives, so every caller sums in
/// the same order and gets the same bits.
fn query_errors(
    r: &QueryResult,
    s: &QueryResult,
    ref_pos: &mut impl FnMut(u32) -> Option<Point>,
    shed_pos: &mut impl FnMut(u32) -> Option<Point>,
) -> QueryErrors {
    debug_assert_eq!(r.query, s.query);
    let missing = r.missing_from(s);
    let extra = s.missing_from(r);
    let denom = r.nodes.len().max(1) as f64;
    let containment = (missing + extra) as f64 / denom;

    let mut pos_sum = 0.0;
    let mut pos_count = 0usize;
    for &node in &s.nodes {
        if let (Some(p), Some(p_star)) = (shed_pos(node), ref_pos(node)) {
            pos_sum += p.distance(&p_star);
            pos_count += 1;
        }
    }
    let position = if pos_count > 0 {
        pos_sum / pos_count as f64
    } else {
        0.0
    };
    QueryErrors {
        containment,
        position,
    }
}

/// Computes per-query errors for one evaluation round.
///
/// `reference` and `shed` must be index-aligned (same query in the same
/// slot). `ref_pos`/`shed_pos` give each server's predicted position for a
/// node at the evaluation time.
pub fn evaluation_errors(
    reference: &[QueryResult],
    shed: &[QueryResult],
    mut ref_pos: impl FnMut(u32) -> Option<Point>,
    mut shed_pos: impl FnMut(u32) -> Option<Point>,
) -> Vec<QueryErrors> {
    assert_eq!(
        reference.len(),
        shed.len(),
        "result sets must cover the same queries"
    );
    reference
        .iter()
        .zip(shed)
        .map(|(r, s)| query_errors(r, s, &mut ref_pos, &mut shed_pos))
        .collect()
}

/// Accumulates per-query errors across evaluation rounds and produces the
/// paper's summary metrics.
#[derive(Debug, Clone)]
pub struct MetricsAccumulator {
    /// Per query: running sums of containment and position error.
    containment_sums: Vec<f64>,
    position_sums: Vec<f64>,
    rounds: usize,
}

impl MetricsAccumulator {
    /// Creates an accumulator for `num_queries` queries.
    pub fn new(num_queries: usize) -> Self {
        MetricsAccumulator {
            containment_sums: vec![0.0; num_queries],
            position_sums: vec![0.0; num_queries],
            rounds: 0,
        }
    }

    /// Number of evaluation rounds recorded.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Running totals `(Σ containment, Σ position)` over all queries and
    /// rounds recorded so far. Diffing totals around a
    /// [`record_round`](Self::record_round) call yields that round's
    /// error mass — the realized-loss feedback signal for
    /// feedback-aware shedding policies.
    pub fn totals(&self) -> (f64, f64) {
        (
            self.containment_sums.iter().sum(),
            self.position_sums.iter().sum(),
        )
    }

    /// Records one evaluation round straight from the two result sets,
    /// accumulating in place — [`evaluation_errors`] followed by
    /// [`record`](Self::record) without the per-round `Vec<QueryErrors>`.
    /// This is the steady-state entry point for simulation lanes.
    pub fn record_round(
        &mut self,
        reference: &[QueryResult],
        shed: &[QueryResult],
        mut ref_pos: impl FnMut(u32) -> Option<Point>,
        mut shed_pos: impl FnMut(u32) -> Option<Point>,
    ) {
        assert_eq!(
            reference.len(),
            shed.len(),
            "result sets must cover the same queries"
        );
        assert_eq!(reference.len(), self.containment_sums.len());
        for (i, (r, s)) in reference.iter().zip(shed).enumerate() {
            let e = query_errors(r, s, &mut ref_pos, &mut shed_pos);
            self.containment_sums[i] += e.containment;
            self.position_sums[i] += e.position;
        }
        self.rounds += 1;
    }

    /// Records one evaluation round's per-query errors.
    pub fn record(&mut self, errors: &[QueryErrors]) {
        assert_eq!(errors.len(), self.containment_sums.len());
        for (i, e) in errors.iter().enumerate() {
            self.containment_sums[i] += e.containment;
            self.position_sums[i] += e.position;
        }
        self.rounds += 1;
    }

    /// Produces the summary metrics (zeros when nothing was recorded).
    pub fn report(&self) -> MetricsReport {
        let q = self.containment_sums.len();
        if self.rounds == 0 || q == 0 {
            return MetricsReport::default();
        }
        let per_query_containment: Vec<f64> = self
            .containment_sums
            .iter()
            .map(|s| s / self.rounds as f64)
            .collect();
        let per_query_position: Vec<f64> = self
            .position_sums
            .iter()
            .map(|s| s / self.rounds as f64)
            .collect();
        let mean_c = per_query_containment.iter().sum::<f64>() / q as f64;
        let mean_p = per_query_position.iter().sum::<f64>() / q as f64;
        let var_c = per_query_containment
            .iter()
            .map(|e| (e - mean_c) * (e - mean_c))
            .sum::<f64>()
            / q as f64;
        let dev_c = var_c.sqrt();
        MetricsReport {
            mean_containment: mean_c,
            mean_position: mean_p,
            stddev_containment: dev_c,
            cov_containment: if mean_c > 0.0 { dev_c / mean_c } else { 0.0 },
        }
    }
}

/// Summary accuracy metrics, named as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsReport {
    /// Mean containment error `E^C_rr`.
    pub mean_containment: f64,
    /// Mean position error `E^P_rr` (meters).
    pub mean_position: f64,
    /// Standard deviation of containment error `D^C_ev` (fairness metric).
    pub stddev_containment: f64,
    /// Coefficient of variance of containment error `C^C_ov = D^C_ev/E^C_rr`.
    pub cov_containment: f64,
}

/// Uplink delivery accounting for one policy lane (all zeros on the
/// perfect-channel path, i.e. when the scenario has no
/// [`FaultProfile`](lira_server::channel::FaultProfile)).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultReport {
    /// Position updates handed to the channel.
    pub sent: u64,
    /// Wireless transmissions (originals + retries + duplicate copies) —
    /// the airtime cost under faults.
    pub transmissions: u64,
    /// Retransmission attempts.
    pub retries: u64,
    /// Updates whose primary copy arrived at the server.
    pub delivered: u64,
    /// Duplicate copies delivered on top of `delivered`.
    pub duplicates: u64,
    /// Updates lost after exhausting the retry budget.
    pub lost: u64,
    /// Updates still in flight (or awaiting a retry) at the end of the
    /// run — neither delivered nor lost.
    pub pending: u64,
    /// Mean delivery latency of the arrived updates, seconds: how stale a
    /// position report is by the time the server applies it.
    pub mean_staleness_s: f64,
    /// RNG draws consumed by the channel's fault models — zero on the
    /// perfect-channel path, so telemetry can prove the fault layer is
    /// free when disabled.
    pub rng_draws: u64,
}

impl FaultReport {
    /// Snapshot of a channel's accounting at the end of a lane.
    pub fn from_channel(stats: ChannelStats, pending: u64) -> Self {
        FaultReport {
            sent: stats.sent,
            transmissions: stats.transmissions,
            retries: stats.retries,
            delivered: stats.delivered,
            duplicates: stats.duplicates,
            lost: stats.lost,
            pending,
            mean_staleness_s: stats.mean_delay_s(),
            rng_draws: stats.rng_draws,
        }
    }

    /// Fraction of sent updates that never arrived.
    pub fn loss_fraction(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.lost as f64 / self.sent as f64
        }
    }

    /// Accounting invariant: sent = delivered + lost + pending.
    pub fn accounted(&self) -> bool {
        self.sent == self.delivered + self.lost + self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(query: u32, nodes: Vec<u32>) -> QueryResult {
        QueryResult { query, nodes }
    }

    #[test]
    fn containment_error_counts_missing_and_extra() {
        let reference = vec![result(0, vec![1, 2, 3, 4])];
        let shed = vec![result(0, vec![2, 3, 9])];
        let errs = evaluation_errors(&reference, &shed, |_| None, |_| None);
        // Missing {1, 4}, extra {9}: (2 + 1)/4.
        assert!((errs[0].containment - 0.75).abs() < 1e-12);
        // No positions available: position error is 0.
        assert_eq!(errs[0].position, 0.0);
    }

    #[test]
    fn perfect_result_has_zero_error() {
        let reference = vec![result(0, vec![1, 2])];
        let shed = vec![result(0, vec![1, 2])];
        let pos = |n: u32| Some(Point::new(n as f64, 0.0));
        let errs = evaluation_errors(&reference, &shed, pos, pos);
        assert_eq!(errs[0].containment, 0.0);
        assert_eq!(errs[0].position, 0.0);
    }

    #[test]
    fn empty_reference_counts_extras() {
        let reference = vec![result(0, vec![])];
        let shed = vec![result(0, vec![5, 6])];
        let errs = evaluation_errors(&reference, &shed, |_| None, |_| None);
        assert_eq!(errs[0].containment, 2.0);
        // Both empty: zero error.
        let errs = evaluation_errors(
            &[result(0, vec![])],
            &[result(0, vec![])],
            |_| None,
            |_| None,
        );
        assert_eq!(errs[0].containment, 0.0);
    }

    #[test]
    fn position_error_averages_over_result_nodes() {
        let reference = vec![result(0, vec![1, 2])];
        let shed = vec![result(0, vec![1, 2])];
        let ref_pos = |n: u32| Some(Point::new(n as f64 * 10.0, 0.0));
        let shed_pos = |n: u32| {
            Some(Point::new(
                n as f64 * 10.0 + if n == 1 { 3.0 } else { 7.0 },
                0.0,
            ))
        };
        let errs = evaluation_errors(&reference, &shed, ref_pos, shed_pos);
        assert!((errs[0].position - 5.0).abs() < 1e-12);
    }

    #[test]
    fn position_error_skips_nodes_without_reference_positions() {
        let reference = vec![result(0, vec![1])];
        let shed = vec![result(0, vec![1, 2])];
        // Node 2 never reported to the reference: only node 1 contributes.
        let ref_pos = |n: u32| (n == 1).then(|| Point::new(0.0, 0.0));
        let shed_pos = |n: u32| Some(Point::new(n as f64, 0.0));
        let errs = evaluation_errors(&reference, &shed, ref_pos, shed_pos);
        assert!((errs[0].position - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accumulator_means_over_rounds_and_queries() {
        let mut acc = MetricsAccumulator::new(2);
        acc.record(&[
            QueryErrors {
                containment: 0.2,
                position: 10.0,
            },
            QueryErrors {
                containment: 0.4,
                position: 20.0,
            },
        ]);
        acc.record(&[
            QueryErrors {
                containment: 0.4,
                position: 30.0,
            },
            QueryErrors {
                containment: 0.6,
                position: 40.0,
            },
        ]);
        let r = acc.report();
        // Per-query means: (0.3, 0.5) -> mean 0.4; positions (20, 30) -> 25.
        assert!((r.mean_containment - 0.4).abs() < 1e-12);
        assert!((r.mean_position - 25.0).abs() < 1e-12);
        // Std dev across queries: |0.3-0.4| = 0.1.
        assert!((r.stddev_containment - 0.1).abs() < 1e-12);
        assert!((r.cov_containment - 0.25).abs() < 1e-12);
        assert_eq!(acc.rounds(), 2);
    }

    #[test]
    fn record_round_is_bit_identical_to_errors_plus_record() {
        let reference = vec![
            result(0, vec![1, 2, 3, 4]),
            result(1, vec![]),
            result(2, vec![7, 9]),
        ];
        let shed = vec![
            result(0, vec![2, 3, 9]),
            result(1, vec![5]),
            result(2, vec![7, 9]),
        ];
        let ref_pos = |n: u32| (n != 5).then(|| Point::new(n as f64 * 10.0, 3.0));
        let shed_pos = |n: u32| Some(Point::new(n as f64 * 10.0 + 1.5, 2.0));
        let mut via_errors = MetricsAccumulator::new(3);
        for _ in 0..3 {
            via_errors.record(&evaluation_errors(&reference, &shed, ref_pos, shed_pos));
        }
        let mut via_round = MetricsAccumulator::new(3);
        for _ in 0..3 {
            via_round.record_round(&reference, &shed, ref_pos, shed_pos);
        }
        assert_eq!(via_errors.rounds(), via_round.rounds());
        // Bit-identical, not just approximately equal.
        assert_eq!(via_errors.report(), via_round.report());
        assert_eq!(via_errors.containment_sums, via_round.containment_sums);
        assert_eq!(via_errors.position_sums, via_round.position_sums);
    }

    #[test]
    fn empty_accumulator_reports_zeros() {
        let acc = MetricsAccumulator::new(0);
        let r = acc.report();
        assert_eq!(r, MetricsReport::default());
        let acc = MetricsAccumulator::new(3);
        assert_eq!(acc.report(), MetricsReport::default());
    }

    #[test]
    fn fault_report_mirrors_channel_stats() {
        let stats = ChannelStats {
            sent: 10,
            transmissions: 14,
            retries: 3,
            delivered: 7,
            duplicates: 1,
            lost: 2,
            delay_sum_s: 3.5,
            rng_draws: 14,
        };
        let r = FaultReport::from_channel(stats, 1);
        assert!(r.accounted());
        assert!((r.loss_fraction() - 0.2).abs() < 1e-12);
        assert!((r.mean_staleness_s - 0.5).abs() < 1e-12);
        assert_eq!(r.rng_draws, 14);
        let zero = FaultReport::default();
        assert!(zero.accounted());
        assert_eq!(zero.loss_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "same queries")]
    fn mismatched_result_sets_panic() {
        let reference = vec![result(0, vec![])];
        evaluation_errors(&reference, &[], |_| None, |_| None);
    }
}
