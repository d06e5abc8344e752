//! The [`SheddingPolicy`] trait: load-shedding strategies as pluggable
//! components.
//!
//! Every policy of Section 4.2 — LIRA itself and its three comparators —
//! shares one lifecycle: at each adaptation round the server hands the
//! policy the committed statistics snapshot and the observed throttle
//! fraction `z`, and the policy answers with a fresh [`SheddingPlan`] for
//! distribution to the mobile nodes. Policies differ only in *how* they
//! partition the space and set throttlers, so the simulation harness, the
//! sweep driver, and future server frontends can treat them uniformly, one
//! lane per policy, without matching on an enum inside the hot loop.
//!
//! The trait requires `Send` so policy lanes can run on scoped threads.
//!
//! | Policy | Partitioning | Throttlers | Server drops? |
//! |---|---|---|---|
//! | [`LiraPolicy`] | GRIDREDUCE | GREEDYINCREMENT | no |
//! | [`LiraGridPolicy`] | equal `⌊√l⌋²` grid | GREEDYINCREMENT | no |
//! | [`UniformDeltaPolicy`] | none (one region) | `f⁻¹(z)` | no |
//! | [`RandomDropPolicy`] | none (one region) | `Δ⊢` everywhere | yes, `1−z` |
//! | [`crate::utility::UtilityGreedy`] | equal `⌊√l⌋²` grid | utility-ranked greedy | no |
//! | [`crate::utility::UtilityModel`] | equal `⌊√l⌋²` grid | loss-model water-fill | no |
//!
//! Feedback-aware policies (the utility family) additionally consume
//! [`RoundFeedback`] after each evaluation round via
//! [`SheddingPolicy::observe_round`]; for the Section 4.2 policies the
//! hook is a no-op, so their behaviour is bit-identical with or without
//! feedback delivery.

use crate::config::LiraConfig;
use crate::error::Result;
use crate::geometry::Rect;
use crate::greedy_increment::{greedy_increment, GreedyParams, ThrottlerSolution};
use crate::grid_reduce::{l_partitioning, GridReduceStats};
use crate::plan::{PlanRegion, SheddingPlan};
use crate::reduction::ReductionModel;
use crate::shedder::LiraShedder;
use crate::stats_grid::StatsGrid;
use crate::utility::{UtilityGreedy, UtilityModel};

/// Deterministic work counters from one [`SheddingPolicy::adapt`] call,
/// surfaced for telemetry. Equal inputs always produce equal costs —
/// these are plain counts computed alongside the algorithms, never
/// wall-clock measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptCost {
    /// Partitioner work (GRIDREDUCE drill-down, or the trivial equal-grid
    /// scan for Lira-Grid).
    pub partitioner: GridReduceStats,
    /// GREEDYINCREMENT iterations (accepted segment advances).
    pub greedy_steps: u64,
}

/// One evaluation round's realized accuracy and shedding activity,
/// handed to feedback-aware policies via
/// [`SheddingPolicy::observe_round`].
///
/// The per-region counters are **cumulative within the current plan
/// epoch** (they reset when a new plan is installed) and are indexed
/// like `regions`, which is the plan the counters were accumulated
/// under. Policies that need per-round deltas diff against their own
/// snapshot from the previous call.
#[derive(Debug, Clone, Copy)]
pub struct RoundFeedback<'a> {
    /// Mean position error of this round's shed evaluation vs the
    /// reference (metres per query result).
    pub position_error: f64,
    /// Mean containment error (symmetric-difference fraction) of this
    /// round vs the reference.
    pub containment_error: f64,
    /// Updates admitted per plan region, cumulative within the epoch.
    pub region_admitted: &'a [u64],
    /// Updates shed per plan region, cumulative within the epoch.
    pub region_shed: &'a [u64],
    /// The plan regions the counters are indexed by.
    pub regions: &'a [PlanRegion],
}

/// A load-shedding policy: turns statistics snapshots into shedding plans.
pub trait SheddingPolicy: Send {
    /// Display name used in reports and experiment output (the single
    /// source of truth; nothing else re-hardcodes these strings).
    fn name(&self) -> &'static str;

    /// Runs one adaptation step: computes a fresh plan from the committed
    /// statistics snapshot at the observed throttle fraction `observed_z`.
    fn adapt(&mut self, stats: &StatsGrid, observed_z: f64) -> Result<SheddingPlan>;

    /// Probability that the *server* admits an arriving update at throttle
    /// `observed_z`. Source-actuated policies shed at the mobile nodes and
    /// admit everything; Random Drop pays the wireless cost and drops the
    /// excess here.
    fn admission(&self, _observed_z: f64) -> f64 {
        1.0
    }

    /// Work counters from the most recent [`Self::adapt`] call, for
    /// policies that run a partitioner/optimizer; `None` before the first
    /// adaptation or for trivial policies (Uniform Δ, Random Drop).
    fn last_cost(&self) -> Option<AdaptCost> {
        None
    }

    /// Folds one evaluation round's realized accuracy/shedding feedback
    /// into the policy's internal state. Default: no-op (the Section 4.2
    /// policies are feed-forward; only the utility family learns from
    /// feedback).
    fn observe_round(&mut self, _feedback: &RoundFeedback<'_>) {}

    /// Per-region utility scores from the most recent [`Self::adapt`]
    /// call, indexed like the emitted plan's regions; `None` for
    /// policies without a utility model. Surfaced for telemetry.
    fn utility_scores(&self) -> Option<&[f64]> {
        None
    }
}

/// The policy roster: every shedding policy the simulator, the CLI and
/// `lira-serve` can run. This is only a *roster* — construction happens
/// in [`Policy::build`], and everything after construction goes through
/// the [`SheddingPolicy`] trait.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Policy {
    /// Full LIRA: GRIDREDUCE partitioning + GREEDYINCREMENT throttlers.
    #[default]
    Lira,
    /// Equal-size `l`-partitioning + GREEDYINCREMENT (no GRIDREDUCE).
    LiraGrid,
    /// One system-wide inaccuracy threshold.
    UniformDelta,
    /// No source-side shedding; the server randomly drops the excess.
    RandomDrop,
    /// eSPICE-style utility shedding: greedy budget assignment in
    /// utility-per-budget-unit order.
    UtilityGreedy,
    /// gSPICE-style utility shedding: realized-loss EWMA model steering a
    /// proportional water-fill.
    UtilityModel,
}

impl Policy {
    /// All six policies: the paper's four (comparison order preserved)
    /// followed by the SPICE-line utility family.
    pub const ALL: [Policy; 6] = [
        Policy::Lira,
        Policy::LiraGrid,
        Policy::UniformDelta,
        Policy::RandomDrop,
        Policy::UtilityGreedy,
        Policy::UtilityModel,
    ];

    /// Display name used in experiment output, delegated to the policy
    /// implementations (the single source of these strings).
    pub fn name(self) -> &'static str {
        match self {
            Policy::Lira => LiraPolicy::NAME,
            Policy::LiraGrid => LiraGridPolicy::NAME,
            Policy::UniformDelta => UniformDeltaPolicy::NAME,
            Policy::RandomDrop => RandomDropPolicy::NAME,
            Policy::UtilityGreedy => UtilityGreedy::NAME,
            Policy::UtilityModel => UtilityModel::NAME,
        }
    }

    /// The command-line spelling (`lira-cli --policies`, `lira-serve
    /// --policy`).
    pub fn flag(self) -> &'static str {
        match self {
            Policy::Lira => "lira",
            Policy::LiraGrid => "lira-grid",
            Policy::UniformDelta => "uniform",
            Policy::RandomDrop => "random-drop",
            Policy::UtilityGreedy => "utility-greedy",
            Policy::UtilityModel => "utility-model",
        }
    }

    /// Parses a command-line spelling (inverse of [`Self::flag`]).
    pub fn from_flag(flag: &str) -> Option<Policy> {
        Policy::ALL.into_iter().find(|p| p.flag() == flag)
    }

    /// Constructs the policy implementation for a validated configuration
    /// and reduction model. The one place that matches on the roster;
    /// drivers only see `dyn SheddingPolicy`.
    pub fn build(self, config: &LiraConfig, model: &ReductionModel) -> Box<dyn SheddingPolicy> {
        match self {
            Policy::Lira => Box::new(LiraPolicy::from_shedder(
                LiraShedder::new(config.clone())
                    .expect("validated config")
                    .with_model(model.clone()),
            )),
            Policy::LiraGrid => Box::new(LiraGridPolicy::new(config.clone(), model.clone())),
            Policy::UniformDelta => Box::new(UniformDeltaPolicy::new(config.bounds, model.clone())),
            Policy::RandomDrop => Box::new(RandomDropPolicy::new(config.bounds, config.delta_min)),
            Policy::UtilityGreedy => Box::new(UtilityGreedy::new(config.clone(), model.clone())),
            Policy::UtilityModel => Box::new(UtilityModel::new(config.clone(), model.clone())),
        }
    }
}

/// Full LIRA: GRIDREDUCE partitioning + GREEDYINCREMENT throttlers.
#[derive(Debug, Clone)]
pub struct LiraPolicy {
    shedder: LiraShedder,
    last_cost: Option<AdaptCost>,
}

impl LiraPolicy {
    /// Display name.
    pub const NAME: &'static str = "LIRA";

    /// Creates the policy from a validated configuration.
    ///
    /// `_queue_capacity` is ignored: it sized a second THROTLOOP the
    /// shedder carried and nothing drove (the server's one THROTLOOP is
    /// `lira_server::governor::Governor`). The parameter survives only
    /// because the frozen `benchmark/` crate passes it — to be dropped by
    /// the next `benchmark` PR (ROADMAP item 11(b)).
    pub fn new(config: LiraConfig, _queue_capacity: usize) -> Result<Self> {
        Ok(LiraPolicy {
            shedder: LiraShedder::new(config)?,
            last_cost: None,
        })
    }

    /// Wraps an existing shedder (keeps its model).
    pub fn from_shedder(shedder: LiraShedder) -> Self {
        LiraPolicy {
            shedder,
            last_cost: None,
        }
    }

    /// Replaces the update-reduction model, e.g. with a calibrated one.
    #[must_use]
    pub fn with_model(mut self, model: ReductionModel) -> Self {
        self.shedder = self.shedder.with_model(model);
        self
    }
}

impl SheddingPolicy for LiraPolicy {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn adapt(&mut self, stats: &StatsGrid, observed_z: f64) -> Result<SheddingPlan> {
        let adaptation = self.shedder.adapt_with_throttle(stats, observed_z)?;
        self.last_cost = Some(AdaptCost {
            partitioner: adaptation.partitioning.stats,
            greedy_steps: adaptation.solution.steps as u64,
        });
        Ok(adaptation.plan)
    }

    fn last_cost(&self) -> Option<AdaptCost> {
        self.last_cost
    }
}

/// The Lira-Grid comparator: equal-size `l`-partitioning (no GRIDREDUCE)
/// with GREEDYINCREMENT throttlers — region-aware throttling without the
/// intelligent partitioner.
#[derive(Debug, Clone)]
pub struct LiraGridPolicy {
    config: LiraConfig,
    model: ReductionModel,
    last_cost: Option<AdaptCost>,
}

impl LiraGridPolicy {
    /// Display name.
    pub const NAME: &'static str = "Lira-Grid";

    /// Creates the policy for a configuration and reduction model.
    pub fn new(config: LiraConfig, model: ReductionModel) -> Self {
        LiraGridPolicy {
            config,
            model,
            last_cost: None,
        }
    }

    /// The full adaptation product, including the optimizer's solution.
    pub fn plan_with_solution(
        &self,
        stats: &StatsGrid,
        observed_z: f64,
    ) -> Result<(SheddingPlan, ThrottlerSolution)> {
        let partitioning = l_partitioning(stats, self.config.num_regions);
        let solution = greedy_increment(
            &partitioning.inputs(),
            &self.model,
            &GreedyParams {
                throttle: observed_z,
                fairness: self.config.fairness,
                use_speed: self.config.use_speed_factor,
            },
        );
        let plan = SheddingPlan::from_solution(
            *stats.bounds(),
            &partitioning,
            &solution,
            self.model.delta_min(),
        )?;
        Ok((plan, solution))
    }
}

impl SheddingPolicy for LiraGridPolicy {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn adapt(&mut self, stats: &StatsGrid, observed_z: f64) -> Result<SheddingPlan> {
        let partitioning = l_partitioning(stats, self.config.num_regions);
        let solution = greedy_increment(
            &partitioning.inputs(),
            &self.model,
            &GreedyParams {
                throttle: observed_z,
                fairness: self.config.fairness,
                use_speed: self.config.use_speed_factor,
            },
        );
        self.last_cost = Some(AdaptCost {
            partitioner: partitioning.stats,
            greedy_steps: solution.steps as u64,
        });
        SheddingPlan::from_solution(
            *stats.bounds(),
            &partitioning,
            &solution,
            self.model.delta_min(),
        )
    }

    fn last_cost(&self) -> Option<AdaptCost> {
        self.last_cost
    }
}

/// The Uniform Δ comparator: one system-wide inaccuracy threshold chosen
/// to retain a `z`-fraction of the update volume. Region-unaware.
#[derive(Debug, Clone)]
pub struct UniformDeltaPolicy {
    bounds: Rect,
    model: ReductionModel,
}

impl UniformDeltaPolicy {
    /// Display name.
    pub const NAME: &'static str = "Uniform Delta";

    /// Creates the policy over the monitored space.
    pub fn new(bounds: Rect, model: ReductionModel) -> Self {
        UniformDeltaPolicy { bounds, model }
    }

    /// The single-region plan at throttle `z` (needs no statistics).
    pub fn plan(&self, observed_z: f64) -> SheddingPlan {
        SheddingPlan::uniform(self.bounds, self.model.min_delta_for_budget(observed_z))
    }
}

impl SheddingPolicy for UniformDeltaPolicy {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn adapt(&mut self, _stats: &StatsGrid, observed_z: f64) -> Result<SheddingPlan> {
        Ok(self.plan(observed_z))
    }
}

/// The Random Drop comparator: no source-side shedding at all — nodes run
/// at the ideal resolution `Δ⊢` and the overloaded server randomly drops
/// the excess `1−z` at its input queue (wireless cost fully paid).
#[derive(Debug, Clone)]
pub struct RandomDropPolicy {
    bounds: Rect,
    delta_min: f64,
}

impl RandomDropPolicy {
    /// Display name.
    pub const NAME: &'static str = "Random Drop";

    /// Creates the policy over the monitored space with ideal threshold
    /// `delta_min`.
    pub fn new(bounds: Rect, delta_min: f64) -> Self {
        RandomDropPolicy { bounds, delta_min }
    }
}

impl SheddingPolicy for RandomDropPolicy {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn adapt(&mut self, _stats: &StatsGrid, _observed_z: f64) -> Result<SheddingPlan> {
        Ok(SheddingPlan::uniform(self.bounds, self.delta_min))
    }

    fn admission(&self, observed_z: f64) -> f64 {
        observed_z.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;

    fn grid() -> StatsGrid {
        let mut g = StatsGrid::new(16, Rect::from_coords(0.0, 0.0, 1600.0, 1600.0)).unwrap();
        g.begin_snapshot();
        for i in 0..300 {
            let x = (i % 20) as f64 * 40.0 + 5.0;
            let y = (i / 20) as f64 * 100.0 + 5.0;
            g.observe_node(&Point::new(x, y), 12.0, 1.0);
        }
        for i in 0..6 {
            let x = 1000.0 + (i % 3) as f64 * 150.0;
            let y = 1000.0 + (i / 3) as f64 * 150.0;
            g.observe_query(&Rect::from_coords(x, y, x + 120.0, y + 120.0));
        }
        g.commit_snapshot();
        g
    }

    fn config_for(g: &StatsGrid) -> LiraConfig {
        let mut cfg = LiraConfig::default();
        cfg.bounds = *g.bounds();
        cfg.num_regions = 250;
        cfg.alpha = 16;
        cfg.throttle = 0.5;
        cfg
    }

    #[test]
    fn roster_builds_every_policy_under_its_own_name() {
        let g = grid();
        let cfg = config_for(&g);
        let model = ReductionModel::analytic(5.0, 100.0, 95);
        let names: Vec<&str> = Policy::ALL
            .iter()
            .map(|p| {
                assert_eq!(Policy::from_flag(p.flag()), Some(*p));
                let built = p.build(&cfg, &model);
                assert_eq!(built.name(), p.name());
                built.name()
            })
            .collect();
        assert_eq!(Policy::from_flag("nope"), None);
        assert_eq!(
            names,
            [
                "LIRA",
                "Lira-Grid",
                "Uniform Delta",
                "Random Drop",
                "Utility Greedy",
                "Utility Model"
            ]
        );
    }

    #[test]
    fn feedback_is_a_noop_for_feed_forward_policies() {
        let g = grid();
        let cfg = config_for(&g);
        let model = ReductionModel::analytic(5.0, 100.0, 95);
        let mut p = LiraGridPolicy::new(cfg, model);
        let before = p.adapt(&g, 0.5).unwrap();
        let regions = before.regions().to_vec();
        let admitted = vec![7u64; regions.len()];
        let shed = vec![3u64; regions.len()];
        p.observe_round(&RoundFeedback {
            position_error: 10.0,
            containment_error: 0.5,
            region_admitted: &admitted,
            region_shed: &shed,
            regions: &regions,
        });
        assert!(p.utility_scores().is_none());
        let after = p.adapt(&g, 0.5).unwrap();
        assert_eq!(before.regions(), after.regions());
    }

    #[test]
    fn uniform_delta_matches_model_inverse() {
        let m = ReductionModel::analytic(5.0, 100.0, 95);
        let mut p = UniformDeltaPolicy::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0), m.clone());
        let plan = p.adapt(&grid(), 0.5).unwrap();
        assert_eq!(plan.len(), 1);
        let d = plan.throttler_at(&Point::new(5.0, 5.0));
        assert!(m.f(d) <= 0.5 + 1e-9);
        // z = 1 keeps ideal resolution.
        let plan = p.adapt(&grid(), 1.0).unwrap();
        assert_eq!(plan.throttler_at(&Point::new(5.0, 5.0)), 5.0);
    }

    #[test]
    fn lira_grid_respects_budget_and_solution() {
        let g = grid();
        let cfg = config_for(&g);
        let m = ReductionModel::analytic(5.0, 100.0, 95);
        let policy = LiraGridPolicy::new(cfg, m);
        let (plan, sol) = policy.plan_with_solution(&g, 0.5).unwrap();
        assert!(sol.budget_met);
        assert_eq!(plan.len(), 225); // 15x15 for l = 250
        for (r, d) in plan.regions().iter().zip(&sol.deltas) {
            assert_eq!(r.throttler, *d);
        }
    }

    #[test]
    fn only_random_drop_sheds_at_the_server() {
        let g = grid();
        let cfg = config_for(&g);
        let model = ReductionModel::analytic(5.0, 100.0, 95);
        for policy in Policy::ALL {
            let mut p = policy.build(&cfg, &model);
            let expect = if policy == Policy::RandomDrop {
                0.4
            } else {
                1.0
            };
            assert_eq!(p.admission(0.4), expect, "{}", p.name());
            // Every policy produces a valid plan through the same lifecycle.
            let plan = p.adapt(&g, 0.4).unwrap();
            assert!(!plan.is_empty(), "{}", p.name());
        }
    }

    #[test]
    fn random_drop_plans_ideal_resolution() {
        let mut p = RandomDropPolicy::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 5.0);
        let plan = p.adapt(&grid(), 0.3).unwrap();
        assert_eq!(plan.throttler_at(&Point::new(1.0, 1.0)), 5.0);
        assert_eq!(p.admission(1.7), 1.0, "admission clamps to a probability");
    }

    #[test]
    fn policies_are_object_safe_and_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Box<dyn SheddingPolicy>>();
        assert_send::<LiraPolicy>();
        assert_send::<LiraGridPolicy>();
        assert_send::<UniformDeltaPolicy>();
        assert_send::<RandomDropPolicy>();
        assert_send::<UtilityGreedy>();
        assert_send::<UtilityModel>();
    }
}
