//! The LIRA load shedder: the orchestrator that ties the two planning
//! algorithms together (Section 3). Each *adaptation step* runs GRIDREDUCE
//! and GREEDYINCREMENT at a given throttle fraction `z` and emits a fresh
//! [`SheddingPlan`] for distribution to base stations and mobile nodes.
//! THROTLOOP, which picks `z`, is the caller's: the server runs it once, on
//! its one input queue (`lira_server::governor::Governor`).

use std::time::{Duration, Instant};

use crate::config::LiraConfig;
use crate::error::Result;
use crate::greedy_increment::{greedy_increment, GreedyParams, ThrottlerSolution};
use crate::grid_reduce::{grid_reduce, GridReduceParams, Partitioning};
use crate::plan::SheddingPlan;
use crate::reduction::ReductionModel;
use crate::stats_grid::StatsGrid;

/// Outcome of one adaptation step, including the cost breakdown reported in
/// Figure 14 of the paper.
#[derive(Debug, Clone)]
pub struct Adaptation {
    /// The freshly computed shedding plan.
    pub plan: SheddingPlan,
    /// The partitioning the plan is based on.
    pub partitioning: Partitioning,
    /// The optimizer's solution (throttlers, expenditure, objective).
    pub solution: ThrottlerSolution,
    /// The throttle fraction `z` used for this step.
    pub throttle: f64,
    /// Wall-clock cost of the whole step (GRIDREDUCE + GREEDYINCREMENT),
    /// the server-side overhead metric of Section 4.3.2.
    pub elapsed: Duration,
}

/// The LIRA load shedder.
#[derive(Debug, Clone)]
pub struct LiraShedder {
    config: LiraConfig,
    model: ReductionModel,
}

impl LiraShedder {
    /// Creates a shedder with the analytic reduction model.
    pub fn new(config: LiraConfig) -> Result<Self> {
        config.validate()?;
        let model = ReductionModel::analytic(config.delta_min, config.delta_max, config.kappa());
        Ok(LiraShedder { config, model })
    }

    /// Replaces the reduction model, e.g. with one calibrated from an
    /// observed trace ([`ReductionModel::from_samples`]).
    pub fn with_model(mut self, model: ReductionModel) -> Self {
        self.model = model;
        self
    }

    /// Runs one adaptation step at the throttle fraction `throttle`.
    pub fn adapt_with_throttle(&self, grid: &StatsGrid, throttle: f64) -> Result<Adaptation> {
        let started = Instant::now();
        let partitioning = grid_reduce(
            grid,
            &self.model,
            &GridReduceParams::new(
                self.config.num_regions,
                throttle,
                self.config.fairness,
                self.config.use_speed_factor,
            ),
        )?;
        let solution = greedy_increment(
            &partitioning.inputs(),
            &self.model,
            &GreedyParams {
                throttle,
                fairness: self.config.fairness,
                use_speed: self.config.use_speed_factor,
            },
        );
        let plan = SheddingPlan::from_solution(
            self.config.bounds,
            &partitioning,
            &solution,
            self.config.delta_min,
        )?;
        Ok(Adaptation {
            plan,
            partitioning,
            solution,
            throttle,
            elapsed: started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Point, Rect};

    fn stats_grid(alpha: usize, bounds: Rect) -> StatsGrid {
        let mut g = StatsGrid::new(alpha, bounds).unwrap();
        g.begin_snapshot();
        for i in 0..500 {
            let x = bounds.min.x + (i % 25) as f64 / 25.0 * bounds.width() * 0.5;
            let y = bounds.min.y + (i / 25) as f64 / 20.0 * bounds.height() * 0.5;
            g.observe_node(&Point::new(x, y), 10.0 + (i % 7) as f64, 1.0);
        }
        for i in 0..5 {
            let x = bounds.min.x + bounds.width() * (0.6 + 0.05 * i as f64);
            g.observe_query(&Rect::from_coords(x, x, x + 200.0, x + 200.0));
        }
        g.commit_snapshot();
        g
    }

    fn small_config() -> LiraConfig {
        let mut c = LiraConfig::default();
        c.bounds = Rect::from_coords(0.0, 0.0, 3200.0, 3200.0);
        c.num_regions = 40;
        c.alpha = 32;
        c
    }

    #[test]
    fn rejects_invalid_config() {
        let mut c = small_config();
        c.num_regions = 39; // 39 mod 3 = 0
        assert!(LiraShedder::new(c).is_err());
    }

    #[test]
    fn fixed_throttle_adaptation_produces_full_plan() {
        let cfg = small_config();
        let grid = stats_grid(cfg.alpha, cfg.bounds);
        let shedder = LiraShedder::new(cfg.clone()).unwrap();
        let a = shedder.adapt_with_throttle(&grid, 0.5).unwrap();
        assert_eq!(a.plan.len(), cfg.num_regions);
        assert_eq!(a.throttle, 0.5);
        assert!(a.solution.budget_met);
        assert!(a.elapsed.as_secs() < 5);
        // Plan covers the whole space: any point resolves to a throttler in
        // the valid domain.
        for p in [
            Point::new(1.0, 1.0),
            Point::new(1599.0, 1601.0),
            Point::new(3100.0, 200.0),
        ] {
            let d = a.plan.throttler_at(&p);
            assert!((cfg.delta_min..=cfg.delta_max).contains(&d), "{d} at {p}");
        }
    }

    #[test]
    fn z_one_plan_keeps_ideal_resolution_everywhere() {
        let cfg = small_config();
        let grid = stats_grid(cfg.alpha, cfg.bounds);
        let shedder = LiraShedder::new(cfg.clone()).unwrap();
        let a = shedder.adapt_with_throttle(&grid, 1.0).unwrap();
        for r in a.plan.regions() {
            assert_eq!(r.throttler, cfg.delta_min);
        }
    }

    #[test]
    fn calibrated_model_can_be_swapped_in() {
        let cfg = small_config();
        let grid = stats_grid(cfg.alpha, cfg.bounds);
        let samples: Vec<(f64, f64)> = (0..10)
            .map(|i| (5.0 + 10.0 * i as f64, 1000.0 / (1.0 + i as f64)))
            .collect();
        let model =
            ReductionModel::from_samples(cfg.delta_min, cfg.delta_max, cfg.kappa(), &samples)
                .unwrap();
        let shedder = LiraShedder::new(cfg).unwrap().with_model(model);
        let a = shedder.adapt_with_throttle(&grid, 0.5).unwrap();
        assert!(a.solution.budget_met);
    }
}
