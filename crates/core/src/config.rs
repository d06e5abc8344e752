//! LIRA configuration: the knobs from Table 2 of the paper.

use crate::error::{LiraError, Result};
use crate::geometry::{Point, Rect};

/// Side length (meters) of the default monitored space: a square of
/// ~200 km², matching the Chamblee map used in the paper.
pub(crate) const DEFAULT_SPACE_SIDE_M: f64 = 14_142.0;

/// The most piecewise-linear segments [`LiraConfig::validate`] admits,
/// κ = ⌈(Δ⊣ − Δ⊢)/c_Δ⌉. The reduction model holds κ + 1 knots and
/// precomputes a secant for every pair of them, O(κ²) once per model,
/// and GREEDYINCREMENT may take κ steps per region. At 4 000 that is
/// 8·10⁶ pairs, about 0.1 s on a 2-vCPU host for the two models
/// `lira-serve` builds at start-up (10 000 took 1.3 s): forty times the
/// paper's κ = 95, and twice the largest the experiments run (the
/// ablation's Δ⊣ = 2 000 m, κ = 1 995). Without a bound a 1 m increment
/// under Δ⊣ = 10⁹ m asks for 8 GB of knots.
const MAX_KAPPA: usize = 4_000;

/// Configuration of the LIRA load shedder.
///
/// Field names follow the paper's notation (Table 2):
///
/// | field            | paper | default  |
/// |------------------|-------|----------|
/// | `num_regions`    | `l`   | 250      |
/// | `alpha`          | `α`   | 128      |
/// | `throttle`       | `z`   | 0.5      |
/// | `delta_min`      | `Δ⊢`  | 5 m      |
/// | `delta_max`      | `Δ⊣`  | 100 m    |
/// | `increment`      | `c_Δ` | 1 m      |
/// | `fairness`       | `Δ⇔`  | 50 m     |
#[derive(Debug, Clone, PartialEq)]
pub struct LiraConfig {
    /// The monitored geographical space.
    pub bounds: Rect,
    /// Number of shedding regions `l`; must satisfy `l mod 3 = 1`.
    pub num_regions: usize,
    /// Statistics-grid side cell count `α`; must be a power of two.
    pub alpha: usize,
    /// Throttle fraction `z ∈ (0, 1]`: fraction of the full-resolution
    /// update expenditure the system may spend.
    pub throttle: f64,
    /// Minimum inaccuracy threshold `Δ⊢` (ideal resolution), meters.
    pub delta_min: f64,
    /// Maximum inaccuracy threshold `Δ⊣` (lowest usable resolution), meters.
    pub delta_max: f64,
    /// Greedy increment `c_Δ`, meters. Also the segment size of the
    /// piecewise-linear approximation of `f` (Theorem 3.1).
    pub increment: f64,
    /// Fairness threshold `Δ⇔`: max allowed difference between any two
    /// region throttlers (Section 3.1.1).
    pub fairness: f64,
    /// Whether the speed-factor extension (Section 3.1.2) weights the
    /// update-budget constraint by per-region mean speeds.
    pub use_speed_factor: bool,
}

impl Default for LiraConfig {
    fn default() -> Self {
        LiraConfig {
            bounds: Rect::new(
                Point::new(0.0, 0.0),
                Point::new(DEFAULT_SPACE_SIDE_M, DEFAULT_SPACE_SIDE_M),
            ),
            num_regions: 250,
            alpha: 128,
            throttle: 0.5,
            delta_min: 5.0,
            delta_max: 100.0,
            increment: 1.0,
            fairness: 50.0,
            use_speed_factor: true,
        }
    }
}

impl LiraConfig {
    /// Validates the configuration against the domains stated in the paper.
    pub fn validate(&self) -> Result<()> {
        let b = &self.bounds;
        if !(b.width() > 0.0 && b.height() > 0.0) {
            return Err(LiraError::InvalidConfig(
                "bounds must have positive area".into(),
            ));
        }
        // An infinite square passes both the area test above and the
        // squareness test below (`∞ − ∞` is NaN, which compares false).
        if ![b.min.x, b.min.y, b.max.x, b.max.y]
            .iter()
            .all(|c| c.is_finite())
        {
            return Err(LiraError::InvalidConfig(format!(
                "bounds must be finite: ({}, {}) to ({}, {})",
                b.min.x, b.min.y, b.max.x, b.max.y
            )));
        }
        // The broadcast wire format encodes regions as squares (3 floats +
        // throttler, Section 4.3.2), which requires a square space.
        if (self.bounds.width() - self.bounds.height()).abs() > 1e-6 * self.bounds.width() {
            return Err(LiraError::InvalidConfig(format!(
                "bounds must be square for the square-region wire format: {} x {}",
                self.bounds.width(),
                self.bounds.height()
            )));
        }
        if self.num_regions == 0 || self.num_regions % 3 != 1 {
            return Err(LiraError::InvalidConfig(format!(
                "l = {} must satisfy l mod 3 = 1 (quad-tree drill-down adds 3 regions per step)",
                self.num_regions
            )));
        }
        if !self.alpha.is_power_of_two() {
            return Err(LiraError::InvalidConfig(format!(
                "alpha = {} must be a power of two",
                self.alpha
            )));
        }
        if (self.alpha * self.alpha) < self.num_regions {
            return Err(LiraError::InvalidConfig(format!(
                "alpha^2 = {} cannot host l = {} regions",
                self.alpha * self.alpha,
                self.num_regions
            )));
        }
        if !(self.throttle > 0.0 && self.throttle <= 1.0) {
            return Err(LiraError::InvalidConfig(format!(
                "throttle fraction z = {} must be in (0, 1]",
                self.throttle
            )));
        }
        // `∞` passes the ordering tests below (`c_Δ ≤ ∞ − Δ⊢` holds), and
        // NaN slips past a refusal written as `x < 0`.
        for (name, v) in [
            ("delta_max", self.delta_max),
            ("increment c_delta", self.increment),
            ("fairness threshold", self.fairness),
        ] {
            if !v.is_finite() {
                return Err(LiraError::InvalidConfig(format!(
                    "{name} = {v} must be finite"
                )));
            }
        }
        if !(self.delta_min > 0.0 && self.delta_min < self.delta_max) {
            return Err(LiraError::InvalidConfig(format!(
                "need 0 < delta_min ({}) < delta_max ({})",
                self.delta_min, self.delta_max
            )));
        }
        if !(self.increment > 0.0 && self.increment <= self.delta_max - self.delta_min) {
            return Err(LiraError::InvalidConfig(format!(
                "increment c_delta = {} must be in (0, delta_max - delta_min]",
                self.increment
            )));
        }
        let segments = (self.delta_max - self.delta_min) / self.increment;
        if segments > MAX_KAPPA as f64 {
            return Err(LiraError::InvalidConfig(format!(
                "(delta_max - delta_min) / increment = {segments} segments, \
                 more than the {MAX_KAPPA} the reduction model holds"
            )));
        }
        if self.fairness < 0.0 {
            return Err(LiraError::InvalidConfig(
                "fairness threshold must be >= 0".into(),
            ));
        }
        Ok(())
    }

    /// Number of piecewise-linear segments `κ = (Δ⊣ − Δ⊢)/c_Δ` (rounded up)
    /// used by the update-reduction model so that each greedy step stays
    /// within one segment (Theorem 3.1).
    pub fn kappa(&self) -> usize {
        (((self.delta_max - self.delta_min) / self.increment).ceil() as usize).max(1)
    }

    /// The paper's rule for configuring the statistics grid (Section 3.2.5):
    /// `α = 2^⌊log2(x·√l)⌋`, giving about `x²` area flexibility between
    /// `(α,l)`-partitioning and plain `l`-partitioning. The paper uses `x = 10`.
    /// Total in `l`, which arrives from command lines: `l = 0` gives `α = 1`
    /// and is [`validate`](Self::validate)'s to refuse.
    pub fn alpha_for(l: usize, x: f64) -> usize {
        assert!(x > 0.0);
        let target = x * (l as f64).sqrt();
        let exp = target.log2().floor().max(0.0) as u32;
        1usize << exp
    }

    /// Builder-style setter for the number of shedding regions; also
    /// re-derives `α` with the paper's `x = 10` rule.
    pub fn with_regions(mut self, l: usize) -> Self {
        self.num_regions = l;
        self.alpha = Self::alpha_for(l, 10.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_table2_and_validates() {
        let c = LiraConfig::default();
        assert_eq!(c.num_regions, 250);
        assert_eq!(c.alpha, 128);
        assert_eq!(c.throttle, 0.5);
        assert_eq!(c.delta_min, 5.0);
        assert_eq!(c.delta_max, 100.0);
        assert_eq!(c.increment, 1.0);
        assert_eq!(c.fairness, 50.0);
        c.validate().expect("Table 2 defaults must validate");
        // 250 mod 3 == 1, as required by GRIDREDUCE.
        assert_eq!(c.num_regions % 3, 1);
    }

    #[test]
    fn kappa_matches_paper_defaults() {
        let c = LiraConfig::default();
        assert_eq!(c.kappa(), 95); // (100 - 5) / 1
    }

    #[test]
    fn alpha_rule_matches_paper_examples() {
        // Paper: l = 250, x = 10 gives alpha = 128.
        assert_eq!(LiraConfig::alpha_for(250, 10.0), 128);
        // Paper: l = 4000 gives alpha = 512.
        assert_eq!(LiraConfig::alpha_for(4000, 10.0), 512);
        // No region count panics; `validate` refuses the ones that are wrong.
        assert_eq!(LiraConfig::alpha_for(0, 10.0), 1);
        assert!(LiraConfig::default().with_regions(0).validate().is_err());
    }

    #[test]
    fn rejects_non_square_bounds() {
        let mut c = LiraConfig::default();
        c.bounds = Rect::new(Point::new(0.0, 0.0), Point::new(1000.0, 2000.0));
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bounds_without_finite_positive_area() {
        let inf = f64::INFINITY;
        for (min, max, needle) in [
            (0.0, 0.0, "positive area"),
            (5.0, -5.0, "positive area"),
            (0.0, f64::NAN, "positive area"),
            (0.0, inf, "finite"),
            (-inf, 0.0, "finite"),
            (-inf, inf, "finite"),
        ] {
            let mut c = LiraConfig::default();
            // A literal: `Rect::new` debug-asserts `min <= max`.
            c.bounds = Rect {
                min: Point::new(min, min),
                max: Point::new(max, max),
            };
            let why = c.validate().expect_err("refused").to_string();
            assert!(why.contains(needle), "[{min}, {max}]²: {why:?}");
        }
    }

    #[test]
    fn rejects_bad_l() {
        let mut c = LiraConfig::default();
        c.num_regions = 251; // 251 mod 3 == 2
        assert!(matches!(c.validate(), Err(LiraError::InvalidConfig(_))));
        c.num_regions = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_alpha() {
        let mut c = LiraConfig::default();
        c.alpha = 100;
        assert!(c.validate().is_err());
        c.alpha = 8; // 64 cells < 250 regions
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_throttle_and_deltas() {
        let mut c = LiraConfig::default();
        c.throttle = 0.0;
        assert!(c.validate().is_err());
        c.throttle = 1.5;
        assert!(c.validate().is_err());
        c = LiraConfig::default();
        c.delta_min = 100.0;
        c.delta_max = 5.0;
        assert!(c.validate().is_err());
        c = LiraConfig::default();
        c.increment = 0.0;
        assert!(c.validate().is_err());
        c = LiraConfig::default();
        c.fairness = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_non_finite_deltas_increment_and_fairness() {
        let inf = f64::INFINITY;
        for needle in ["delta_max", "increment", "fairness"] {
            for v in [inf, -inf, f64::NAN] {
                let mut c = LiraConfig::default();
                *match needle {
                    "delta_max" => &mut c.delta_max,
                    "increment" => &mut c.increment,
                    _ => &mut c.fairness,
                } = v;
                let why = c.validate().expect_err("refused").to_string();
                assert!(why.contains(needle), "{needle} = {v}: {why:?}");
            }
        }
    }

    #[test]
    fn kappa_is_bounded() {
        let mut c = LiraConfig::default();
        c.delta_max = c.delta_min + MAX_KAPPA as f64;
        c.fairness = 0.0;
        c.validate().expect("κ at the bound");
        assert_eq!(c.kappa(), MAX_KAPPA);
        for (delta_max, increment) in [(c.delta_max + 0.5, 1.0), (1e9, 1.0), (100.0, 1e-3)] {
            c.delta_max = delta_max;
            c.increment = increment;
            let why = c.validate().expect_err("κ past the bound").to_string();
            assert!(
                why.contains("segments"),
                "Δ⊣ {delta_max}, c_Δ {increment}: {why}"
            );
        }
    }

    #[test]
    fn builders_rederive_alpha() {
        let c = LiraConfig::default().with_regions(4000);
        assert_eq!(c.alpha, 512);
        c.validate().unwrap();
    }
}
