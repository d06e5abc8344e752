//! Utility-aware shedding policies from the SPICE line (DESIGN.md §16).
//!
//! LIRA's optimizer treats every admitted update as equally valuable and
//! minimizes `Σ m_i·Δ_i` — a *volume* objective. The CEP shedding
//! literature (eSPICE's probabilistic per-event utility, gSPICE's
//! model-based prediction of an event's contribution to query results)
//! instead spends the throttle budget where the predicted
//! accuracy-gain-per-admitted-update is highest. This module maps that
//! idea onto LIRA's region machinery:
//!
//! * `region_utilities` scores each region of a partitioning by
//!   predicted query-result impact: overlapping-query mass × boundary
//!   proximity (heterogeneous per-cell query coverage means query edges
//!   cross the region, where admitted updates decide containment) ×
//!   staleness since the last admitted update ([`StalenessTracker`]).
//! * [`UtilityGreedy`] (eSPICE-style) ranks regions by
//!   utility-per-budget-unit and promotes them to full resolution `Δ⊢`
//!   greedily until the THROTLOOP budget is spent; everything else runs
//!   at `Δ⊣`.
//! * [`UtilityModel`] (gSPICE-style) maintains a per-cell EWMA model of
//!   realized accuracy loss, attributed from evaluation-round feedback
//!   ([`RoundFeedback`]) to the regions that carried update volume at
//!   coarse thresholds, and re-runs the optimal GREEDYINCREMENT
//!   allocator with the learned losses standing in for the query
//!   masses.
//!
//! Both emit ordinary [`SheddingPlan`]s over the equal-grid
//! `l`-partitioning, so the 16 B/region wire format and every downstream
//! consumer (plan broadcast, per-node lookup, telemetry) are untouched.
//! Both deliberately ignore the fairness threshold `Δ⇔`: concentrating
//! the budget is the point of utility shedding, and the contrast with
//! LIRA's fairness-constrained optimum is part of what `exp_scenarios`
//! measures.

use crate::config::LiraConfig;
use crate::error::Result;
use crate::geometry::Rect;
use crate::greedy_increment::{greedy_increment, GreedyParams, RegionInput};
use crate::grid_reduce::{l_partitioning, Partitioning};
use crate::plan::{PlanRegion, SheddingPlan};
use crate::policy::{AdaptCost, RoundFeedback, SheddingPolicy};
use crate::reduction::ReductionModel;
use crate::stats_grid::StatsGrid;

/// Side of the fixed bookkeeping grid the staleness tracker and the loss
/// model live on. Fixed (rather than per-plan) so learned state survives
/// re-partitioning: plan regions change every adaptation, cells don't.
pub const UTILITY_GRID_SIDE: usize = 8;

/// Tuning knobs of the utility score and the gSPICE loss model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilityParams {
    /// Gain of the staleness factor: the factor is
    /// `1 + staleness_gain × (rounds since an admitted update)`, capped.
    pub staleness_gain: f64,
    /// Cap on the staleness factor (keeps long-dark regions from
    /// dominating every other signal).
    pub staleness_cap: f64,
    /// Cap on the boundary-proximity factor `1 + CoV(cell query mass)`.
    pub boundary_cap: f64,
    /// EWMA smoothing of the loss model: `new = (1−λ)·old + λ·observed`.
    pub ewma_lambda: f64,
}

impl Default for UtilityParams {
    fn default() -> Self {
        UtilityParams {
            staleness_gain: 0.25,
            staleness_cap: 3.0,
            boundary_cap: 2.0,
            ewma_lambda: 0.3,
        }
    }
}

/// Iterates the cells of a `side × side` grid over `bounds` that overlap
/// `area`, yielding `(cell index, overlap area)`.
fn for_overlapping_cells(bounds: &Rect, side: usize, area: &Rect, mut f: impl FnMut(usize, f64)) {
    let cw = bounds.width() / side as f64;
    let ch = bounds.height() / side as f64;
    if cw <= 0.0 || ch <= 0.0 {
        return;
    }
    let clamp = |v: f64| (v.max(0.0) as usize).min(side);
    let c0 = clamp(((area.min.x - bounds.min.x) / cw + 1e-9).floor());
    let c1 = clamp(((area.max.x - bounds.min.x) / cw - 1e-9).ceil())
        .max(c0 + 1)
        .min(side);
    let r0 = clamp(((area.min.y - bounds.min.y) / ch + 1e-9).floor());
    let r1 = clamp(((area.max.y - bounds.min.y) / ch - 1e-9).ceil())
        .max(r0 + 1)
        .min(side);
    for row in r0..r1 {
        for col in c0..c1 {
            let cell = Rect::from_coords(
                bounds.min.x + col as f64 * cw,
                bounds.min.y + row as f64 * ch,
                bounds.min.x + (col + 1) as f64 * cw,
                bounds.min.y + (row + 1) as f64 * ch,
            );
            f(row * side + col, cell.intersection_area(area));
        }
    }
}

/// Tracks, on a fixed [`UTILITY_GRID_SIDE`]² grid, how many evaluation
/// rounds each part of the space has gone without an admitted update.
/// Regions left dark by shedding grow stale — their cached positions
/// drift — so their utility rises until the budget swings back to them.
#[derive(Debug, Clone)]
pub struct StalenessTracker {
    bounds: Rect,
    stale_rounds: Vec<f64>,
}

impl StalenessTracker {
    /// A fresh tracker over the monitored space (everything fresh).
    pub fn new(bounds: Rect) -> Self {
        StalenessTracker {
            bounds,
            stale_rounds: vec![0.0; UTILITY_GRID_SIDE * UTILITY_GRID_SIDE],
        }
    }

    /// Folds in one evaluation round: every cell overlapped by a plan
    /// region that admitted at least one update this round is refreshed,
    /// every other cell ages by one round.
    pub fn observe_round(&mut self, regions: &[PlanRegion], admitted: &[u64]) {
        let mut refreshed = vec![false; self.stale_rounds.len()];
        for (region, &a) in regions.iter().zip(admitted) {
            if a == 0 {
                continue;
            }
            for_overlapping_cells(&self.bounds, UTILITY_GRID_SIDE, &region.area, |idx, ov| {
                if ov > 0.0 {
                    refreshed[idx] = true;
                }
            });
        }
        for (s, r) in self.stale_rounds.iter_mut().zip(&refreshed) {
            if *r {
                *s = 0.0;
            } else {
                *s += 1.0;
            }
        }
    }

    /// The staleness factor for a region: `1 + gain × mean stale rounds`
    /// over the cells the region overlaps, capped.
    pub(crate) fn factor_for(&self, area: &Rect, params: &UtilityParams) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for_overlapping_cells(&self.bounds, UTILITY_GRID_SIDE, area, |idx, ov| {
            if ov > 0.0 {
                sum += self.stale_rounds[idx];
                count += 1;
            }
        });
        if count == 0 {
            return 1.0;
        }
        (1.0 + params.staleness_gain * sum / count as f64).min(params.staleness_cap)
    }
}

/// The boundary-proximity factor of a region: `1 + CoV` of the per-cell
/// query mass across the statistics-grid cells the region covers,
/// capped. Homogeneous coverage (all cells equally queried, or none)
/// gives 1; heterogeneous coverage means query boundaries cross the
/// region, where admitted updates decide containment.
pub(crate) fn boundary_factor(stats: &StatsGrid, area: &Rect, params: &UtilityParams) -> f64 {
    let alpha = stats.alpha();
    let mut masses: Vec<f64> = Vec::new();
    for_overlapping_cells(stats.bounds(), alpha, area, |idx, ov| {
        if ov > 0.0 {
            masses.push(stats.cells()[idx].queries);
        }
    });
    if masses.len() < 2 {
        return 1.0;
    }
    let n = masses.len() as f64;
    let mean = masses.iter().sum::<f64>() / n;
    if mean <= 0.0 {
        return 1.0;
    }
    let var = masses.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / n;
    (1.0 + var.sqrt() / mean).min(params.boundary_cap)
}

/// Scores every region of a partitioning by predicted query-result
/// impact: overlapping-query mass × boundary proximity × staleness.
/// Query-free regions score 0 — shedding there costs no query accuracy,
/// exactly as in LIRA's gain ordering.
pub(crate) fn region_utilities(
    stats: &StatsGrid,
    partitioning: &Partitioning,
    stale: &StalenessTracker,
    params: &UtilityParams,
) -> Vec<f64> {
    partitioning
        .regions
        .iter()
        .map(|r| {
            r.queries * boundary_factor(stats, &r.area, params) * stale.factor_for(&r.area, params)
        })
        .collect()
}

/// The throttlers chosen by a utility allocation, plus the number of
/// deterministic work steps taken (reported as `greedy_steps`).
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityAllocation {
    /// One throttler per input region, within `[Δ⊢, Δ⊣]`.
    pub deltas: Vec<f64>,
    /// Promotion / search steps taken (a work counter, not wall clock).
    pub steps: u64,
}

/// Shared effective-load weights: `n_i·s_i` under the speed factor,
/// `n_i` otherwise (identical to GREEDYINCREMENT's weighting).
fn weights(inputs: &[RegionInput], use_speed: bool) -> Vec<f64> {
    inputs
        .iter()
        .map(|r| {
            if use_speed {
                r.nodes * r.speed.max(0.0)
            } else {
                r.nodes
            }
        })
        .collect()
}

/// eSPICE-style greedy allocation: rank regions by utility per budget
/// unit and promote them to full resolution `Δ⊢` until the budget is
/// spent; the marginal region gets the finest threshold the residual
/// affords, everything else runs at `Δ⊣`. Zero-load regions keep `Δ⊢`
/// (promoting them is free). The expenditure `Σ w_i·f(Δ_i)` never
/// exceeds `max(z, f(Δ⊣))·Σ w_i`.
pub(crate) fn allocate_greedy(
    inputs: &[RegionInput],
    utilities: &[f64],
    model: &ReductionModel,
    throttle: f64,
    use_speed: bool,
) -> UtilityAllocation {
    let l = inputs.len();
    let d_min = model.delta_min();
    let d_max = model.delta_max();
    let w = weights(inputs, use_speed);
    let total: f64 = w.iter().sum();
    let budget = throttle * total; // f(Δ⊢) = 1 by model invariant
    let mut deltas = vec![d_min; l];
    if total <= 0.0 || throttle >= 1.0 {
        return UtilityAllocation { deltas, steps: 0 };
    }
    let f_floor = model.f(d_max);
    let floor_exp = total * f_floor;
    let mut order: Vec<usize> = (0..l).filter(|&i| w[i] > 0.0).collect();
    if budget <= floor_exp {
        // Unattainable budget: every loaded region maxes out (the
        // GREEDYINCREMENT convention; zero-load regions stay at Δ⊢).
        for &i in &order {
            deltas[i] = d_max;
        }
        return UtilityAllocation { deltas, steps: 0 };
    }
    // Utility per unit of promotion cost; the cost of promoting region i
    // from Δ⊣ to Δ⊢ is w_i·(1 − f(Δ⊣)), so the constant factor cancels
    // and the rank key is utility_i / w_i. Ties break by lower index.
    order.sort_by(|&a, &b| {
        let ka = utilities[a] / w[a];
        let kb = utilities[b] / w[b];
        kb.partial_cmp(&ka)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for &i in &order {
        deltas[i] = d_max;
    }
    let mut residual = budget - floor_exp;
    let mut steps = 0u64;
    for &i in &order {
        if residual <= 0.0 {
            break;
        }
        steps += 1;
        let promo = w[i] * (1.0 - f_floor);
        if promo <= residual * (1.0 + 1e-12) {
            deltas[i] = d_min;
            residual -= promo;
        } else {
            // Partial promotion: the finest threshold the residual buys.
            deltas[i] = model.min_delta_for_budget(f_floor + residual / w[i]);
            residual = 0.0;
        }
    }
    UtilityAllocation { deltas, steps }
}

/// gSPICE-style allocation: run the optimal GREEDYINCREMENT allocator
/// with the predicted marginal losses `score_i` standing in for the
/// query masses `m_i`, so it equalizes marginal *utility* loss instead
/// of marginal query inaccuracy. Higher scores buy finer thresholds.
/// All-zero scores degenerate to the Uniform Δ solution (nothing to
/// differentiate on). The fairness constraint `Δ⇔` is deliberately
/// disabled; the expenditure never exceeds `max(z, f(Δ⊣))·Σ w_i`.
pub(crate) fn allocate_by_loss(
    inputs: &[RegionInput],
    scores: &[f64],
    model: &ReductionModel,
    throttle: f64,
    use_speed: bool,
) -> UtilityAllocation {
    let l = inputs.len();
    let d_min = model.delta_min();
    let d_max = model.delta_max();
    let w = weights(inputs, use_speed);
    let total: f64 = w.iter().sum();
    let budget = throttle * total;
    let mut deltas = vec![d_min; l];
    if total <= 0.0 || throttle >= 1.0 {
        return UtilityAllocation { deltas, steps: 0 };
    }
    let f_floor = model.f(d_max);
    if budget <= total * f_floor {
        for (d, wi) in deltas.iter_mut().zip(&w) {
            if *wi > 0.0 {
                *d = d_max;
            }
        }
        return UtilityAllocation { deltas, steps: 0 };
    }
    let positive = w.iter().zip(scores).any(|(wi, s)| *wi > 0.0 && *s > 0.0);
    if !positive {
        // Nothing to differentiate on: the uniform threshold meeting the
        // budget (the Uniform Δ baseline) is the fair cold-start answer.
        let d = model.min_delta_for_budget(throttle);
        for (di, wi) in deltas.iter_mut().zip(&w) {
            if *wi > 0.0 {
                *di = d;
            }
        }
        return UtilityAllocation { deltas, steps: 0 };
    }
    let weighted: Vec<RegionInput> = inputs
        .iter()
        .zip(scores)
        .map(|(r, &s)| RegionInput::new(r.nodes, s.max(0.0), r.speed))
        .collect();
    let sol = greedy_increment(
        &weighted,
        model,
        &GreedyParams::unconstrained(throttle, use_speed),
    );
    UtilityAllocation {
        deltas: sol.deltas,
        steps: sol.steps as u64,
    }
}

/// Shared plumbing of the two utility policies: partition, score,
/// allocate, and book-keep feedback.
#[derive(Debug, Clone)]
struct UtilityCore {
    config: LiraConfig,
    model: ReductionModel,
    params: UtilityParams,
    stale: StalenessTracker,
    /// Cumulative per-plan-region admitted counts at the last feedback
    /// call (feedback counts are cumulative within a plan epoch).
    seen_admitted: Vec<u64>,
    last_cost: Option<AdaptCost>,
    last_scores: Vec<f64>,
}

impl UtilityCore {
    fn new(config: LiraConfig, model: ReductionModel, params: UtilityParams) -> Self {
        let bounds = config.bounds;
        UtilityCore {
            config,
            model,
            params,
            stale: StalenessTracker::new(bounds),
            seen_admitted: Vec::new(),
            last_cost: None,
            last_scores: Vec::new(),
        }
    }

    fn partition_and_score(&self, stats: &StatsGrid) -> (Partitioning, Vec<f64>) {
        let partitioning = l_partitioning(stats, self.config.num_regions);
        let scores = region_utilities(stats, &partitioning, &self.stale, &self.params);
        (partitioning, scores)
    }

    fn plan_from(
        &mut self,
        stats: &StatsGrid,
        partitioning: &Partitioning,
        scores: Vec<f64>,
        alloc: UtilityAllocation,
    ) -> SheddingPlan {
        let regions: Vec<PlanRegion> = partitioning
            .regions
            .iter()
            .zip(&alloc.deltas)
            .map(|(r, &d)| PlanRegion {
                area: r.area,
                throttler: d,
            })
            .collect();
        self.last_cost = Some(AdaptCost {
            partitioner: partitioning.stats,
            greedy_steps: alloc.steps,
        });
        self.last_scores = scores;
        // A fresh plan starts a fresh feedback epoch.
        self.seen_admitted.clear();
        SheddingPlan::new(*stats.bounds(), regions, self.model.delta_min())
    }

    /// Diffs the cumulative per-region admitted counts into this round's
    /// deltas and ages the staleness grid.
    fn admitted_round_deltas(&mut self, fb: &RoundFeedback<'_>) -> Vec<u64> {
        if self.seen_admitted.len() != fb.region_admitted.len() {
            self.seen_admitted = vec![0; fb.region_admitted.len()];
        }
        let deltas: Vec<u64> = fb
            .region_admitted
            .iter()
            .zip(&self.seen_admitted)
            .map(|(a, s)| a.saturating_sub(*s))
            .collect();
        self.seen_admitted.copy_from_slice(fb.region_admitted);
        self.stale.observe_round(fb.regions, &deltas);
        deltas
    }
}

/// eSPICE-style utility shedding: greedy all-or-nothing budget
/// assignment in utility order. See the module docs.
#[derive(Debug, Clone)]
pub struct UtilityGreedy {
    core: UtilityCore,
}

impl UtilityGreedy {
    /// Display name.
    pub const NAME: &'static str = "Utility Greedy";

    /// Creates the policy for a configuration and reduction model with
    /// default [`UtilityParams`].
    pub fn new(config: LiraConfig, model: ReductionModel) -> Self {
        Self::with_params(config, model, UtilityParams::default())
    }

    /// Creates the policy with explicit tuning parameters.
    pub(crate) fn with_params(
        config: LiraConfig,
        model: ReductionModel,
        params: UtilityParams,
    ) -> Self {
        UtilityGreedy {
            core: UtilityCore::new(config, model, params),
        }
    }
}

impl SheddingPolicy for UtilityGreedy {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn adapt(&mut self, stats: &StatsGrid, observed_z: f64) -> Result<SheddingPlan> {
        let (partitioning, scores) = self.core.partition_and_score(stats);
        let alloc = allocate_greedy(
            &partitioning.inputs(),
            &scores,
            &self.core.model,
            observed_z,
            self.core.config.use_speed_factor,
        );
        Ok(self.core.plan_from(stats, &partitioning, scores, alloc))
    }

    fn last_cost(&self) -> Option<AdaptCost> {
        self.core.last_cost
    }

    fn observe_round(&mut self, feedback: &RoundFeedback<'_>) {
        self.core.admitted_round_deltas(feedback);
    }

    fn utility_scores(&self) -> Option<&[f64]> {
        (!self.core.last_scores.is_empty()).then_some(&self.core.last_scores[..])
    }
}

/// gSPICE-style utility shedding: a per-cell EWMA model of realized
/// accuracy loss steers a utility-weighted GREEDYINCREMENT allocation.
/// See the module docs.
#[derive(Debug, Clone)]
pub struct UtilityModel {
    core: UtilityCore,
    /// Cumulative per-plan-region shed counts at the last feedback call.
    seen_shed: Vec<u64>,
    /// EWMA of the realized position-error share attributed to each
    /// fixed grid cell.
    loss: Vec<f64>,
}

impl UtilityModel {
    /// Display name.
    pub const NAME: &'static str = "Utility Model";

    /// Creates the policy for a configuration and reduction model with
    /// default [`UtilityParams`].
    pub fn new(config: LiraConfig, model: ReductionModel) -> Self {
        Self::with_params(config, model, UtilityParams::default())
    }

    /// Creates the policy with explicit tuning parameters.
    pub(crate) fn with_params(
        config: LiraConfig,
        model: ReductionModel,
        params: UtilityParams,
    ) -> Self {
        UtilityModel {
            core: UtilityCore::new(config, model, params),
            seen_shed: Vec::new(),
            loss: vec![0.0; UTILITY_GRID_SIDE * UTILITY_GRID_SIDE],
        }
    }

    /// The learned loss model's mean EWMA over the overlap of `area`.
    fn loss_for(&self, area: &Rect) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for_overlapping_cells(
            &self.core.config.bounds,
            UTILITY_GRID_SIDE,
            area,
            |idx, ov| {
                if ov > 0.0 {
                    sum += self.loss[idx];
                    count += 1;
                }
            },
        );
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}

impl SheddingPolicy for UtilityModel {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn adapt(&mut self, stats: &StatsGrid, observed_z: f64) -> Result<SheddingPlan> {
        let (partitioning, mut scores) = self.core.partition_and_score(stats);
        // Blend the learned loss model in multiplicatively, normalized by
        // the grid-wide mean so the cold start (all-zero EWMA) reduces to
        // the static utility score.
        let mean_loss = self.loss.iter().sum::<f64>() / self.loss.len() as f64;
        if mean_loss > 0.0 {
            for (score, region) in scores.iter_mut().zip(&partitioning.regions) {
                *score *= 1.0 + self.loss_for(&region.area) / mean_loss;
            }
        }
        let alloc = allocate_by_loss(
            &partitioning.inputs(),
            &scores,
            &self.core.model,
            observed_z,
            self.core.config.use_speed_factor,
        );
        self.seen_shed.clear();
        Ok(self.core.plan_from(stats, &partitioning, scores, alloc))
    }

    fn last_cost(&self) -> Option<AdaptCost> {
        self.core.last_cost
    }

    fn observe_round(&mut self, feedback: &RoundFeedback<'_>) {
        let admitted = self.core.admitted_round_deltas(feedback);
        if self.seen_shed.len() != feedback.region_shed.len() {
            self.seen_shed = vec![0; feedback.region_shed.len()];
        }
        let shed_deltas: Vec<u64> = feedback
            .region_shed
            .iter()
            .zip(&self.seen_shed)
            .map(|(a, s)| a.saturating_sub(*s))
            .collect();
        self.seen_shed.copy_from_slice(feedback.region_shed);
        // Error-mass proxy per region: every update that flowed through
        // the region this round (admitted or shed server-side), weighted
        // by its threshold — dead reckoning permits up to ~Δᵢ of drift
        // per update, so source-actuated lanes (where nothing is shed
        // server-side and `region_shed` stays zero) still attribute the
        // round's realized error to the regions running coarse.
        let mass: Vec<f64> = admitted
            .iter()
            .zip(&shed_deltas)
            .zip(feedback.regions)
            .map(|((&a, &s), r)| (a + s) as f64 * r.throttler)
            .collect();
        let total_mass: f64 = mass.iter().sum();
        if total_mass <= 0.0 || !feedback.position_error.is_finite() {
            return;
        }
        // Distribute the round's realized error over the cells in
        // proportion to that mass, then fold into the EWMA: cells that
        // ran coarse under load while error was high accumulate high
        // predicted marginal loss, and the next water-fill buys them
        // finer thresholds.
        let mut cell_mass = vec![0.0f64; self.loss.len()];
        let bounds = self.core.config.bounds;
        for (region, &m) in feedback.regions.iter().zip(&mass) {
            if m <= 0.0 {
                continue;
            }
            let area = region.area.area().max(f64::MIN_POSITIVE);
            for_overlapping_cells(&bounds, UTILITY_GRID_SIDE, &region.area, |idx, ov| {
                cell_mass[idx] += m * ov / area;
            });
        }
        let lambda = self.core.params.ewma_lambda;
        for (loss, m) in self.loss.iter_mut().zip(&cell_mass) {
            let observed = feedback.position_error * m / total_mass;
            *loss = (1.0 - lambda) * *loss + lambda * observed;
        }
    }

    fn utility_scores(&self) -> Option<&[f64]> {
        (!self.core.last_scores.is_empty()).then_some(&self.core.last_scores[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;

    fn model() -> ReductionModel {
        ReductionModel::analytic(5.0, 100.0, 95)
    }

    fn config() -> LiraConfig {
        let mut cfg = LiraConfig::default();
        cfg.bounds = Rect::from_coords(0.0, 0.0, 1600.0, 1600.0);
        cfg.num_regions = 16;
        cfg.alpha = 16;
        cfg
    }

    /// Nodes everywhere, queries concentrated in the NE corner.
    fn grid() -> StatsGrid {
        let cfg = config();
        let mut g = StatsGrid::new(cfg.alpha, cfg.bounds).unwrap();
        g.begin_snapshot();
        for i in 0..256 {
            let x = (i % 16) as f64 * 100.0 + 50.0;
            let y = (i / 16) as f64 * 100.0 + 50.0;
            g.observe_node(&Point::new(x, y), 10.0, 1.0);
        }
        for i in 0..4 {
            let x = 1100.0 + (i % 2) as f64 * 200.0;
            let y = 1100.0 + (i / 2) as f64 * 200.0;
            g.observe_query(&Rect::from_coords(x, y, x + 150.0, y + 150.0));
        }
        g.commit_snapshot();
        g
    }

    fn expenditure(inputs: &[RegionInput], deltas: &[f64], m: &ReductionModel) -> f64 {
        inputs
            .iter()
            .zip(deltas)
            .map(|(r, d)| r.nodes * r.speed * m.f(*d))
            .sum()
    }

    #[test]
    fn utilities_favor_queried_regions() {
        let g = grid();
        let p = l_partitioning(&g, 16);
        let stale = StalenessTracker::new(*g.bounds());
        let u = region_utilities(&g, &p, &stale, &UtilityParams::default());
        assert_eq!(u.len(), p.regions.len());
        let best = u.iter().cloned().fold(0.0f64, f64::max);
        assert!(best > 0.0);
        for (region, ui) in p.regions.iter().zip(&u) {
            if region.queries <= 0.0 {
                assert_eq!(*ui, 0.0, "query-free region must score 0");
            }
        }
    }

    #[test]
    fn staleness_rises_then_resets() {
        let bounds = Rect::from_coords(0.0, 0.0, 800.0, 800.0);
        let mut tracker = StalenessTracker::new(bounds);
        let params = UtilityParams::default();
        let dark = Rect::from_coords(0.0, 0.0, 400.0, 800.0);
        let lit = Rect::from_coords(400.0, 0.0, 800.0, 800.0);
        let regions = vec![
            PlanRegion {
                area: dark,
                throttler: 100.0,
            },
            PlanRegion {
                area: lit,
                throttler: 5.0,
            },
        ];
        for _ in 0..8 {
            tracker.observe_round(&regions, &[0, 10]);
        }
        let f_dark = tracker.factor_for(&dark, &params);
        let f_lit = tracker.factor_for(&lit, &params);
        assert!(f_dark > f_lit, "dark {f_dark} vs lit {f_lit}");
        assert!(f_dark <= params.staleness_cap + 1e-12);
        assert_eq!(f_lit, 1.0);
        // One admitted round heals the dark half completely.
        tracker.observe_round(&regions, &[5, 10]);
        assert_eq!(tracker.factor_for(&dark, &params), 1.0);
    }

    #[test]
    fn greedy_allocation_is_bang_bang_within_budget() {
        let m = model();
        let inputs = vec![
            RegionInput::new(100.0, 0.0, 10.0),
            RegionInput::new(100.0, 5.0, 10.0),
            RegionInput::new(100.0, 1.0, 10.0),
        ];
        let utilities = vec![0.0, 5.0, 1.0];
        let a = allocate_greedy(&inputs, &utilities, &m, 0.5, true);
        // Highest utility keeps full resolution; lowest sheds hardest.
        assert_eq!(a.deltas[1], 5.0);
        assert!(a.deltas[0] >= a.deltas[2]);
        let exp = expenditure(&inputs, &a.deltas, &m);
        let total: f64 = inputs.iter().map(|r| r.nodes * r.speed).sum();
        assert!(exp <= 0.5 * total * (1.0 + 1e-9), "exp {exp}");
        assert!(a.steps > 0);
    }

    #[test]
    fn greedy_full_budget_keeps_ideal_resolution() {
        let m = model();
        let inputs = vec![RegionInput::new(50.0, 1.0, 10.0)];
        let a = allocate_greedy(&inputs, &[1.0], &m, 1.0, true);
        assert_eq!(a.deltas, vec![5.0]);
        assert_eq!(a.steps, 0);
    }

    #[test]
    fn greedy_unattainable_budget_maxes_loaded_regions() {
        let m = model();
        let inputs = vec![
            RegionInput::new(50.0, 1.0, 10.0),
            RegionInput::new(0.0, 3.0, 0.0),
        ];
        let z = m.f(m.delta_max()) * 0.5;
        let a = allocate_greedy(&inputs, &[1.0, 1.0], &m, z, true);
        assert_eq!(a.deltas[0], 100.0);
        assert_eq!(a.deltas[1], 5.0, "zero-load region keeps ideal resolution");
    }

    #[test]
    fn loss_allocation_meets_budget_and_orders_by_score() {
        let m = model();
        let inputs = vec![
            RegionInput::new(100.0, 1.0, 10.0),
            RegionInput::new(100.0, 1.0, 10.0),
            RegionInput::new(100.0, 1.0, 10.0),
        ];
        let scores = vec![4.0, 1.0, 0.0];
        let a = allocate_by_loss(&inputs, &scores, &m, 0.5, true);
        assert!(a.deltas[0] <= a.deltas[1]);
        assert!(a.deltas[1] <= a.deltas[2]);
        let exp = expenditure(&inputs, &a.deltas, &m);
        let total: f64 = inputs.iter().map(|r| r.nodes * r.speed).sum();
        assert!(exp <= 0.5 * total * (1.0 + 1e-9), "exp {exp}");
    }

    #[test]
    fn loss_allocation_zero_scores_degenerates_to_uniform() {
        let m = model();
        let inputs = vec![
            RegionInput::new(100.0, 0.0, 10.0),
            RegionInput::new(50.0, 0.0, 10.0),
        ];
        let a = allocate_by_loss(&inputs, &[0.0, 0.0], &m, 0.6, true);
        let d = m.min_delta_for_budget(0.6);
        assert_eq!(a.deltas, vec![d, d]);
    }

    #[test]
    fn policies_produce_valid_plans_and_scores() {
        let g = grid();
        let cfg = config();
        let m = model();
        let mut policies: Vec<Box<dyn SheddingPolicy>> = vec![
            Box::new(UtilityGreedy::new(cfg.clone(), m.clone())),
            Box::new(UtilityModel::new(cfg.clone(), m.clone())),
        ];
        for p in policies.iter_mut() {
            assert!(p.utility_scores().is_none(), "no scores before adapt");
            let plan = p.adapt(&g, 0.5).unwrap();
            assert_eq!(plan.len(), 16);
            for r in plan.regions() {
                assert!(
                    (cfg.delta_min..=cfg.delta_max).contains(&r.throttler),
                    "{} out of range in {}",
                    r.throttler,
                    p.name()
                );
            }
            assert_eq!(p.admission(0.5), 1.0, "source-actuated");
            let scores = p.utility_scores().expect("scores after adapt");
            assert_eq!(scores.len(), 16);
            assert!(p.last_cost().is_some());
        }
    }

    #[test]
    fn model_feedback_shifts_allocation_toward_lossy_cells() {
        let g = grid();
        let cfg = config();
        let m = model();
        let mut policy = UtilityModel::new(cfg, m);
        let plan = policy.adapt(&g, 0.4).unwrap();
        let l = plan.len();
        // Rounds of feedback: all shedding in region 0 (SW corner) while
        // position error is large.
        let mut admitted = vec![0u64; l];
        let mut shed = vec![0u64; l];
        for round in 1..=6u64 {
            for (i, (a, s)) in admitted.iter_mut().zip(shed.iter_mut()).enumerate() {
                if i == 0 {
                    *s = 40 * round;
                } else {
                    *a = 10 * round;
                }
            }
            policy.observe_round(&RoundFeedback {
                position_error: 25.0,
                containment_error: 0.2,
                region_admitted: &admitted,
                region_shed: &shed,
                regions: plan.regions(),
            });
        }
        let sw = plan.regions()[0].area;
        assert!(
            policy.loss_for(&sw) > 0.0,
            "loss model learned from feedback"
        );
    }

    #[test]
    fn adapt_is_a_pure_function_of_inputs() {
        let g = grid();
        let cfg = config();
        let m = model();
        for make in [
            |c: LiraConfig, mo: ReductionModel| -> Box<dyn SheddingPolicy> {
                Box::new(UtilityGreedy::new(c, mo))
            },
            |c: LiraConfig, mo: ReductionModel| -> Box<dyn SheddingPolicy> {
                Box::new(UtilityModel::new(c, mo))
            },
        ] {
            let mut a = make(cfg.clone(), m.clone());
            let mut b = make(cfg.clone(), m.clone());
            let pa = a.adapt(&g, 0.37).unwrap();
            let pb = b.adapt(&g, 0.37).unwrap();
            assert_eq!(pa.regions(), pb.regions(), "{}", a.name());
        }
    }
}
