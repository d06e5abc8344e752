//! The update-reduction function `f(Δ)` and its piecewise-linear model.
//!
//! For an inaccuracy threshold `Δ ∈ [Δ⊢, Δ⊣]`, `f(Δ)` gives the number of
//! position updates a dead-reckoning mobile node sends, *relative to*
//! `Δ = Δ⊢` (so `f(Δ⊢) = 1` and `f` is non-increasing). Figure 1 of the
//! paper shows the empirical shape: a steep `1/Δ`-like drop near `Δ⊢`
//! flattening into a linear tail near `Δ⊣`.
//!
//! Following Section 3.3.3, LIRA approximates `f` by a non-increasing
//! piecewise-linear function of `κ` segments of width `c_Δ` each; the
//! GREEDYINCREMENT algorithm is optimal for that approximation
//! (Theorem 3.1). [`ReductionModel`] is that approximation: it also exposes
//! the rate of decrease `r(Δ) = −f′(Δ)` and the inverse needed by
//! CALCERRGAIN.

use crate::error::{LiraError, Result};

/// Non-increasing piecewise-linear model of the update-reduction function.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionModel {
    delta_min: f64,
    delta_max: f64,
    /// `κ + 1` knot values; `knots[0] = 1.0`, non-increasing, `>= 0`.
    knots: Vec<f64>,
    /// Precomputed per-knot maximal secant rates (hot in GRIDREDUCE's
    /// context gains and GREEDYINCREMENT's selection).
    knot_secants: Vec<f64>,
}

impl ReductionModel {
    /// Builds a model directly from knot values.
    ///
    /// `knots[k]` is `f(Δ⊢ + k·w)` where `w = (Δ⊣ − Δ⊢)/(knots.len()−1)`.
    /// Values must start at 1, be non-increasing and non-negative.
    pub fn from_knots(delta_min: f64, delta_max: f64, knots: Vec<f64>) -> Result<Self> {
        if !(delta_min > 0.0 && delta_min < delta_max) {
            return Err(LiraError::InvalidConfig(
                "need 0 < delta_min < delta_max".into(),
            ));
        }
        if knots.len() < 2 {
            return Err(LiraError::InvalidConfig(
                "reduction model needs at least one segment".into(),
            ));
        }
        if (knots[0] - 1.0).abs() > 1e-9 {
            return Err(LiraError::InvalidConfig(format!(
                "f(delta_min) must be 1, got {}",
                knots[0]
            )));
        }
        for w in knots.windows(2) {
            if w[1] > w[0] + 1e-12 {
                return Err(LiraError::InvalidConfig(
                    "reduction model must be non-increasing".into(),
                ));
            }
        }
        if knots.iter().any(|&v| v < 0.0 || !v.is_finite()) {
            return Err(LiraError::InvalidConfig(
                "reduction values must be finite and non-negative".into(),
            ));
        }
        // Precompute max secant rates per knot: O(κ²) once, O(1) after.
        let kappa = knots.len() - 1;
        let width = (delta_max - delta_min) / kappa as f64;
        let knot_secants = (0..=kappa)
            .map(|k| {
                let mut best = 0.0f64;
                for b in (k + 1)..=kappa {
                    best = best.max((knots[k] - knots[b]) / ((b - k) as f64 * width));
                }
                best
            })
            .collect();
        Ok(ReductionModel {
            delta_min,
            delta_max,
            knots,
            knot_secants,
        })
    }

    /// Analytic default model reproducing the Figure 1 shape: a weighted mix
    /// of a `1/Δ` head (updates dominated by deviation-triggered reports)
    /// and a linear tail (updates dominated by motion-model changes, e.g.
    /// turns). `f(Δ) = β·(Δ⊢/Δ) + (1−β)·(1 − λ·(Δ−Δ⊢)/(Δ⊣−Δ⊢))` with
    /// `β = 0.7`, `λ = 0.85`, sampled at `κ` segments.
    pub fn analytic(delta_min: f64, delta_max: f64, kappa: usize) -> Self {
        const BETA: f64 = 0.7;
        const LAMBDA: f64 = 0.85;
        let kappa = kappa.max(1);
        let knots = (0..=kappa)
            .map(|k| {
                let d = delta_min + (delta_max - delta_min) * (k as f64) / (kappa as f64);
                let head = delta_min / d;
                let tail = 1.0 - LAMBDA * (d - delta_min) / (delta_max - delta_min);
                BETA * head + (1.0 - BETA) * tail
            })
            .collect();
        ReductionModel::from_knots(delta_min, delta_max, knots)
            .expect("analytic model is valid by construction")
    }

    /// Calibrates the model from empirical measurements: `samples` are
    /// `(Δ, update_count)` pairs counted by running dead reckoning over
    /// traffic at several thresholds (`lira_mobility::motion::count_reports`;
    /// this is how Figure 1 is produced).
    ///
    /// Counts are normalized by the count at the smallest sampled `Δ`
    /// (which should be `Δ⊢`), linearly interpolated onto `κ + 1` knots and
    /// then made monotone by a running minimum — measurement noise must not
    /// produce a locally increasing `f`, which would give a negative `r(Δ)`.
    pub fn from_samples(
        delta_min: f64,
        delta_max: f64,
        kappa: usize,
        samples: &[(f64, f64)],
    ) -> Result<Self> {
        if samples.len() < 2 {
            return Err(LiraError::MissingStatistics(
                "need at least two (delta, count) samples".into(),
            ));
        }
        let mut pts: Vec<(f64, f64)> = samples.to_vec();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN delta sample"));
        let base = pts[0].1;
        if base <= 0.0 {
            return Err(LiraError::MissingStatistics(
                "update count at delta_min must be positive".into(),
            ));
        }
        let kappa = kappa.max(1);
        let mut knots = Vec::with_capacity(kappa + 1);
        for k in 0..=kappa {
            let d = delta_min + (delta_max - delta_min) * (k as f64) / (kappa as f64);
            knots.push(interp(&pts, d) / base);
        }
        // Normalize the first knot to exactly 1 and enforce monotonicity.
        let first = knots[0];
        for v in &mut knots {
            *v /= first;
        }
        let mut run_min = f64::INFINITY;
        for v in &mut knots {
            run_min = run_min.min(*v);
            *v = run_min.max(0.0);
        }
        ReductionModel::from_knots(delta_min, delta_max, knots)
    }

    /// `Δ⊢`, the smallest representable threshold.
    #[inline]
    pub fn delta_min(&self) -> f64 {
        self.delta_min
    }

    /// `Δ⊣`, the largest representable threshold.
    #[inline]
    pub fn delta_max(&self) -> f64 {
        self.delta_max
    }

    /// Number of linear segments `κ`.
    #[inline]
    pub fn kappa(&self) -> usize {
        self.knots.len() - 1
    }

    /// Width of one segment, `(Δ⊣ − Δ⊢)/κ`.
    #[inline]
    pub(crate) fn segment_width(&self) -> f64 {
        (self.delta_max - self.delta_min) / self.kappa() as f64
    }

    /// The knot abscissa `Δ⊢ + k·w`.
    #[inline]
    pub fn knot_delta(&self, k: usize) -> f64 {
        self.delta_min + self.segment_width() * k as f64
    }

    /// Evaluates `f(Δ)`. Arguments are clamped to `[Δ⊢, Δ⊣]` (a node can
    /// never report more often than at the ideal resolution, nor less often
    /// than at the coarsest).
    pub fn f(&self, delta: f64) -> f64 {
        let d = delta.clamp(self.delta_min, self.delta_max);
        let w = self.segment_width();
        let pos = (d - self.delta_min) / w;
        let k = (pos.floor() as usize).min(self.kappa() - 1);
        let t = pos - k as f64;
        self.knots[k] + (self.knots[k + 1] - self.knots[k]) * t
    }

    /// The rate of decrease `r(Δ) = −f′(Δ) ≥ 0` (Section 3.3.2). At knots,
    /// the slope of the segment to the *right* is returned (the greedy step
    /// about to be taken); at `Δ⊣` the last segment's slope is returned.
    pub fn r(&self, delta: f64) -> f64 {
        let d = delta.clamp(self.delta_min, self.delta_max);
        let w = self.segment_width();
        let k = (((d - self.delta_min) / w).floor() as usize).min(self.kappa() - 1);
        (self.knots[k] - self.knots[k + 1]) / w
    }

    /// The smallest `Δ` such that `f(Δ) ≤ target`, or `Δ⊣` when even
    /// `f(Δ⊣) > target` (the paper's fallback when the budget is
    /// unattainable: all throttlers go to `Δ⊣`).
    ///
    /// This solves `E[t] ← min_Δ m[t]·Δ s.t. f(Δ) ≤ z·f(Δ⊢)` in
    /// CALCERRGAIN, and is also the Uniform Δ baseline's threshold choice.
    pub fn min_delta_for_budget(&self, target: f64) -> f64 {
        if target >= 1.0 {
            return self.delta_min;
        }
        if target < *self.knots.last().expect("non-empty knots") {
            return self.delta_max;
        }
        // Find the first segment whose right knot dips to or below target.
        let w = self.segment_width();
        for k in 0..self.kappa() {
            let (a, b) = (self.knots[k], self.knots[k + 1]);
            if b <= target {
                if a <= target {
                    // Already at or below target at the left knot.
                    return self.knot_delta(k);
                }
                // Linear crossing inside segment k.
                let t = (a - target) / (a - b);
                return self.knot_delta(k) + t * w;
            }
        }
        self.delta_max
    }

    /// The steepest *average* rate of decrease achievable from `delta`:
    /// `max over b > delta of (f(delta) − f(b))/(b − delta)`, taken over
    /// the knots. This is the gain a greedy shedder can realize by
    /// committing to advance from `delta` to the maximizing knot — flat
    /// segments in front of a cliff do not hide the cliff. Zero at `Δ⊣`.
    pub(crate) fn max_secant_rate(&self, delta: f64) -> f64 {
        let d = delta.clamp(self.delta_min, self.delta_max);
        let w = self.segment_width();
        let pos = (d - self.delta_min) / w;
        let k = pos.round() as usize;
        // Fast path: exactly on a knot (where the greedy always sits).
        if (pos - k as f64).abs() < 1e-9 && k <= self.kappa() {
            return self.knot_secants[k];
        }
        let fd = self.f(d);
        let mut best = 0.0f64;
        let start = pos.floor() as usize + 1;
        for b in start..=self.kappa() {
            let kd = self.knot_delta(b);
            if kd > d + 1e-12 {
                best = best.max((fd - self.knots[b]) / (kd - d));
            }
        }
        best
    }

    /// The throttler a greedy sweep reaches when it only advances while the
    /// *maximal secant* rate from the current knot stays at or above
    /// `threshold` (see [`max_secant_rate`](Self::max_secant_rate)): flat
    /// stretches are crossed when a steep-enough drop lies behind them.
    /// Returns `Δ⊣` when the whole curve qualifies.
    ///
    /// This is the closed-form throttler a region with gain
    /// `S(Δ) = (w/m)·rate(Δ)` settles at under a global marginal price
    /// `λ*`: pass `threshold = λ*·m/w`.
    pub(crate) fn delta_at_rate_threshold(&self, threshold: f64) -> f64 {
        for k in 0..self.kappa() {
            if self.knot_secants[k] < threshold {
                return self.knot_delta(k);
            }
        }
        self.delta_max
    }

    /// All knot values (for inspection / serialization in reports).
    pub fn knots(&self) -> &[f64] {
        &self.knots
    }
}

/// Linear interpolation over sorted `(x, y)` points, clamped at the ends.
fn interp(pts: &[(f64, f64)], x: f64) -> f64 {
    if x <= pts[0].0 {
        return pts[0].1;
    }
    if x >= pts[pts.len() - 1].0 {
        return pts[pts.len() - 1].1;
    }
    let i = pts.partition_point(|p| p.0 <= x);
    let (x0, y0) = pts[i - 1];
    let (x1, y1) = pts[i];
    if x1 == x0 {
        return y0;
    }
    y0 + (y1 - y0) * (x - x0) / (x1 - x0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_model() -> ReductionModel {
        ReductionModel::analytic(5.0, 100.0, 95)
    }

    #[test]
    fn analytic_model_basic_shape() {
        let m = default_model();
        assert_eq!(m.kappa(), 95);
        assert!((m.f(5.0) - 1.0).abs() < 1e-12, "f(delta_min) = 1");
        assert!(m.f(100.0) > 0.0, "updates never reach zero");
        assert!(m.f(100.0) < 0.2, "coarse threshold sheds most updates");
        // Steeper near delta_min than near delta_max (Figure 1 shape).
        assert!(m.r(5.0) > 5.0 * m.r(99.0));
    }

    #[test]
    fn f_is_non_increasing_and_clamped() {
        let m = default_model();
        let mut prev = f64::INFINITY;
        for i in 0..=1000 {
            let d = 5.0 + 95.0 * (i as f64) / 1000.0;
            let v = m.f(d);
            assert!(v <= prev + 1e-12, "f must be non-increasing at {d}");
            prev = v;
        }
        assert_eq!(m.f(1.0), m.f(5.0), "clamped below delta_min");
        assert_eq!(m.f(500.0), m.f(100.0), "clamped above delta_max");
    }

    #[test]
    fn r_matches_finite_differences() {
        let m = default_model();
        // Within a segment, r = -(f(b) - f(a))/(b - a) exactly.
        for k in [0usize, 10, 50, 94] {
            let a = m.knot_delta(k);
            let b = m.knot_delta(k + 1);
            let fd = (m.f(a) - m.f(b)) / (b - a);
            assert!((m.r(a + 1e-9) - fd).abs() < 1e-9, "segment {k}");
            assert!((m.r(a) - fd).abs() < 1e-9, "right slope at knot {k}");
        }
        // r at delta_max falls back to the last segment.
        let last = m.kappa() - 1;
        let fd = (m.f(m.knot_delta(last)) - m.f(m.delta_max())) / m.segment_width();
        assert!((m.r(100.0) - fd).abs() < 1e-9);
    }

    #[test]
    fn inverse_round_trips() {
        let m = default_model();
        for target in [1.0, 0.9, 0.75, 0.5, 0.3, 0.2] {
            let d = m.min_delta_for_budget(target);
            assert!(
                m.f(d) <= target + 1e-9,
                "f({d}) = {} exceeds target {target}",
                m.f(d)
            );
            // Minimality: slightly smaller delta violates the budget
            // (except at delta_min where the constraint is trivially tight).
            if d > m.delta_min() + 1e-6 {
                assert!(m.f(d - 1e-6) > target - 1e-9, "target {target} not minimal");
            }
        }
    }

    #[test]
    fn inverse_edge_cases() {
        let m = default_model();
        assert_eq!(m.min_delta_for_budget(1.0), 5.0);
        assert_eq!(m.min_delta_for_budget(2.0), 5.0);
        // Unattainable budget: fall back to delta_max (paper Section 3.3.1).
        assert_eq!(m.min_delta_for_budget(0.0), 100.0);
        assert_eq!(m.min_delta_for_budget(m.f(100.0) / 2.0), 100.0);
    }

    #[test]
    fn inverse_handles_flat_segments() {
        // A model with a plateau: f stays at 0.5 across a range.
        let m = ReductionModel::from_knots(5.0, 9.0, vec![1.0, 0.5, 0.5, 0.5, 0.25]).unwrap();
        let d = m.min_delta_for_budget(0.5);
        // The first point reaching 0.5 is the left edge of the plateau.
        assert!((d - 6.0).abs() < 1e-9, "got {d}");
        assert!(m.f(d) <= 0.5 + 1e-12);
    }

    #[test]
    fn from_knots_validation() {
        assert!(ReductionModel::from_knots(5.0, 100.0, vec![1.0]).is_err());
        assert!(ReductionModel::from_knots(5.0, 100.0, vec![0.9, 0.5]).is_err());
        assert!(ReductionModel::from_knots(5.0, 100.0, vec![1.0, 1.1]).is_err());
        assert!(ReductionModel::from_knots(5.0, 100.0, vec![1.0, -0.1]).is_err());
        assert!(ReductionModel::from_knots(100.0, 5.0, vec![1.0, 0.5]).is_err());
        assert!(ReductionModel::from_knots(5.0, 100.0, vec![1.0, 0.5]).is_ok());
    }

    #[test]
    fn calibration_from_noisy_samples() {
        // Ground truth 1/delta law with mild noise; counts in updates/hour.
        let samples: Vec<(f64, f64)> = (0..20)
            .map(|i| {
                let d = 5.0 + 5.0 * i as f64;
                let noise = if i % 2 == 0 { 1.02 } else { 0.98 };
                (d, 36000.0 * (5.0 / d) * noise)
            })
            .collect();
        let m = ReductionModel::from_samples(5.0, 100.0, 95, &samples).unwrap();
        assert!((m.f(5.0) - 1.0).abs() < 1e-12);
        // Despite noise the model is monotone.
        let mut prev = f64::INFINITY;
        for k in 0..=m.kappa() {
            assert!(m.knots()[k] <= prev + 1e-12);
            prev = m.knots()[k];
        }
        // And tracks the 1/delta law within noise bounds.
        assert!((m.f(50.0) - 0.1).abs() < 0.05);
    }

    #[test]
    fn calibration_rejects_degenerate_input() {
        assert!(ReductionModel::from_samples(5.0, 100.0, 95, &[(5.0, 100.0)]).is_err());
        assert!(ReductionModel::from_samples(5.0, 100.0, 95, &[(5.0, 0.0), (100.0, 0.0)]).is_err());
    }

    #[test]
    fn rate_threshold_sweep() {
        let m = default_model();
        // Zero threshold: every segment qualifies.
        assert_eq!(m.delta_at_rate_threshold(0.0), 100.0);
        // Impossibly high threshold: stop immediately at delta_min.
        assert_eq!(m.delta_at_rate_threshold(1e9), 5.0);
        // The analytic model's rate decreases, so the sweep stops exactly
        // where r first dips below the threshold.
        let thresh = m.r(30.0);
        let d = m.delta_at_rate_threshold(thresh * 1.0000001);
        assert!((d - 30.0).abs() <= m.segment_width() + 1e-9, "got {d}");
        // Monotone: higher thresholds stop earlier.
        let mut prev = f64::INFINITY;
        for t in [0.0, 1e-4, 1e-3, 1e-2, 1e-1] {
            let d = m.delta_at_rate_threshold(t);
            assert!(d <= prev + 1e-12);
            prev = d;
        }
    }

    #[test]
    fn rate_threshold_crosses_flats_toward_cliffs() {
        // Slopes per segment: 0.2, 0.0, 0.6, 0.1. The flat second segment
        // does NOT hide the 0.6 cliff behind it: from Δ = 6 the best
        // secant is (0.8 − 0.2)/2 = 0.3 ≥ 0.15, so the sweep crosses the
        // flat; from Δ = 8 the best remaining rate is 0.1 < 0.15 → stop.
        let m = ReductionModel::from_knots(5.0, 9.0, vec![1.0, 0.8, 0.8, 0.2, 0.1]).unwrap();
        assert_eq!(m.delta_at_rate_threshold(0.15), 8.0);
        // A threshold above every secant stops immediately.
        assert_eq!(m.delta_at_rate_threshold(0.5), 5.0);
    }

    #[test]
    fn max_secant_rate_sees_through_flats() {
        let m = ReductionModel::from_knots(5.0, 9.0, vec![1.0, 0.8, 0.8, 0.2, 0.1]).unwrap();
        // From 6.0: secants are 0 (to 7), 0.3 (to 8), 7/30 (to 9) → 0.3.
        assert!((m.max_secant_rate(6.0) - 0.3).abs() < 1e-12);
        // From the last knot there is nothing left.
        assert_eq!(m.max_secant_rate(9.0), 0.0);
        // On a strictly convex-decreasing curve the immediate slope is the
        // best secant: both rates agree.
        let a = ReductionModel::analytic(5.0, 100.0, 19);
        for k in 0..a.kappa() {
            let d = a.knot_delta(k);
            assert!((a.max_secant_rate(d) - a.r(d)).abs() < 1e-9, "knot {k}");
        }
    }

    #[test]
    fn interp_endpoints_and_midpoints() {
        let pts = [(0.0, 0.0), (1.0, 10.0), (3.0, 30.0)];
        assert_eq!(super::interp(&pts, -1.0), 0.0);
        assert_eq!(super::interp(&pts, 5.0), 30.0);
        assert_eq!(super::interp(&pts, 0.5), 5.0);
        assert_eq!(super::interp(&pts, 2.0), 20.0);
    }
}
