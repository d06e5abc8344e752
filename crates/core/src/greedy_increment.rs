//! GREEDYINCREMENT (Section 3.3, Algorithm 2): sets the update throttlers
//! `Δ_i` of a fixed set of shedding regions so that the update-budget
//! constraint is met while the query-result inaccuracy `Σ m_i·Δ_i` is
//! minimized, subject to the fairness threshold `Δ⇔`.
//!
//! The algorithm starts every throttler at `Δ⊢` (an infeasible point: the
//! update expenditure exceeds the budget) and repeatedly increments the
//! throttler with the highest *update gain*
//! `S_i(Δ) = (n_i/m_i)·s_i·r(Δ)` — the ratio of expenditure reduction to
//! inaccuracy increase — by one segment of the piecewise-linear reduction
//! model, until the budget is met. For that piecewise-linear `f` the greedy
//! is optimal (Theorem 3.1) — with a scope note the paper leaves implicit:
//! the exchange argument behind the theorem needs *diminishing returns*
//! (non-increasing `r`, i.e. convex decreasing `f`, which Figure 1's
//! empirical curve and our analytic model both satisfy). Optimality under
//! that condition is verified against exhaustive search by the
//! `greedy_matches_exhaustive_lattice_optimum` property test.
//!
//! Two implementation notes beyond the paper's pseudocode:
//!
//! * Selection uses the **maximal secant** rate
//!   (`ReductionModel::max_secant_rate`) instead of the immediate slope.
//!   On convex models the two coincide; on models with plateaus in front
//!   of cliffs (possible after empirical calibration) the immediate slope
//!   is 0 on the plateau and the paper's greedy would tie-break
//!   arbitrarily — provably badly (see `flat_segments_do_not_hide_cliffs`).
//!   Max-secant selection crosses plateaus toward cliffs. A caveat
//!   remains for *non-convex* models: if the budget exhausts
//!   mid-commitment (after paying a plateau's inaccuracy but before
//!   harvesting its cliff), the result can still be suboptimal — that
//!   variant of the problem is a non-convex knapsack, outside Theorem
//!   3.1's reach for any greedy.
//! * Regions with zero effective load never enter the heap: incrementing
//!   them cannot reduce expenditure, only add inaccuracy.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::geometry::OrdF64;
use crate::reduction::ReductionModel;

/// Per-region inputs to the optimizer: `n_i`, `m_i`, `s_i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionInput {
    /// Number of mobile nodes in the region, `n_i`.
    pub nodes: f64,
    /// Fractional number of queries in the region, `m_i`.
    pub queries: f64,
    /// Mean node speed in the region, `s_i` (used by the speed-factor
    /// extension of Section 3.1.2).
    pub speed: f64,
}

impl RegionInput {
    /// Convenience constructor.
    pub fn new(nodes: f64, queries: f64, speed: f64) -> Self {
        RegionInput {
            nodes,
            queries,
            speed,
        }
    }
}

/// Parameters of a GREEDYINCREMENT run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyParams {
    /// Throttle fraction `z ∈ (0, 1]`.
    pub throttle: f64,
    /// Fairness threshold `Δ⇔ ≥ 0`; `Δ⊣ − Δ⊢` disables the constraint.
    pub fairness: f64,
    /// Whether region speeds weight the budget constraint (Section 3.1.2).
    pub use_speed: bool,
}

impl GreedyParams {
    /// Parameters with the fairness constraint disabled.
    pub fn unconstrained(throttle: f64, use_speed: bool) -> Self {
        GreedyParams {
            throttle,
            fairness: f64::INFINITY,
            use_speed,
        }
    }
}

/// The result of a GREEDYINCREMENT run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThrottlerSolution {
    /// The chosen update throttlers, one per input region.
    pub deltas: Vec<f64>,
    /// Final update expenditure `Σ w_i·f(Δ_i)` (weighted units).
    pub expenditure: f64,
    /// The update budget `z·Σ w_i·f(Δ⊢)` the solution was driven toward.
    pub budget: f64,
    /// Query-result inaccuracy objective `Σ m_i·Δ_i`.
    pub inaccuracy: f64,
    /// Number of greedy steps taken.
    pub steps: usize,
    /// Whether the budget was met. `false` means the throttle fraction is
    /// unattainable within `[Δ⊢, Δ⊣]` and all throttlers were driven to
    /// their (fairness-constrained) maxima.
    pub budget_met: bool,
    /// The update gain `S_i` of the last *finite-gain* greedy step taken —
    /// the marginal "price" of update reduction at which the budget was
    /// met. `None` when the budget was satisfied without touching any
    /// queried region (all shedding came from `m_i = 0` regions) or when no
    /// steps ran. Used by GRIDREDUCE's context-aware accuracy gain.
    pub final_gain: Option<f64>,
}

/// Relative tolerance for budget comparisons.
const REL_EPS: f64 = 1e-9;

/// Heap priority: regions with `m_i = 0` form a strictly higher tier
/// (shedding there costs no query accuracy), ordered within each tier by the
/// gain value; ties broken by lower region index for determinism.
type HeapEntry = (u8, OrdF64, Reverse<usize>);

fn gain_entry(idx: usize, w: f64, m: f64, r: f64) -> HeapEntry {
    if m <= 0.0 {
        (1, OrdF64::new(w * r), Reverse(idx))
    } else {
        (0, OrdF64::new(w * r / m), Reverse(idx))
    }
}

/// Runs GREEDYINCREMENT over `regions` using the reduction model `model`.
///
/// The greedy increment `c_Δ` is the model's segment width, as required for
/// the optimality guarantee of Theorem 3.1.
pub fn greedy_increment(
    regions: &[RegionInput],
    model: &ReductionModel,
    params: &GreedyParams,
) -> ThrottlerSolution {
    let l = regions.len();
    let d_min = model.delta_min();
    let d_max = model.delta_max();
    let c_delta = model.segment_width();

    // Weights w_i = n_i·s_i (speed factor) or n_i.
    let weights: Vec<f64> = regions
        .iter()
        .map(|r| {
            if params.use_speed {
                r.nodes * r.speed.max(0.0)
            } else {
                r.nodes
            }
        })
        .collect();

    let total_weight: f64 = weights.iter().sum();
    let mut expenditure = total_weight * model.f(d_min); // = total_weight
    let budget = params.throttle * expenditure;

    let mut deltas = vec![d_min; l];
    let solution = |deltas: Vec<f64>, expenditure: f64, steps: usize, final_gain: Option<f64>| {
        let inaccuracy = deltas.iter().zip(regions).map(|(d, r)| r.queries * d).sum();
        let budget_met = expenditure <= budget + REL_EPS * expenditure.max(1.0);
        ThrottlerSolution {
            deltas,
            expenditure,
            budget,
            inaccuracy,
            steps,
            budget_met,
            final_gain,
        }
    };

    if l == 0 || expenditure <= budget + REL_EPS * expenditure.max(1.0) {
        // No regions, no nodes, or z = 1: the initial point is feasible.
        return solution(deltas, expenditure, 0, None);
    }

    // A fairness threshold finer than one segment cannot be expressed by
    // whole-segment greedy steps; it degenerates to the uniform-Δ solution
    // (the Δ⇔ = 0 extreme in Section 3.1.1). Note Σ w_i·f(Δ) ≤ z·Σ w_i
    // reduces to f(Δ) ≤ z regardless of weights.
    if params.fairness < c_delta {
        let d = model.min_delta_for_budget(params.throttle);
        let exp: f64 = total_weight * model.f(d);
        return solution(vec![d; l], exp, 1, None);
    }

    // H: max-heap of update gains (Algorithm 2 line 1). Regions with no
    // effective update load are left out: incrementing them cannot reduce
    // the expenditure, only add inaccuracy, so their throttler stays Δ⊢.
    //
    // Selection uses the *maximal secant* rate rather than the immediate
    // slope: on reduction models with flat stretches (plateaus from
    // empirical calibration), the immediate slope is 0 there and the
    // paper's greedy would pick among such regions arbitrarily — and
    // provably suboptimally. The steepest-average-reduction-ahead rate
    // restores the exchange argument behind Theorem 3.1 (see the
    // `greedy_matches_exhaustive_lattice_optimum` property test). On
    // strictly decreasing models the two rates coincide.
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(l);
    for (i, w) in weights.iter().enumerate() {
        if *w > 0.0 {
            heap.push(gain_entry(
                i,
                *w,
                regions[i].queries,
                model.max_secant_rate(d_min),
            ));
        }
    }
    // D: sorted multiset of current throttlers (Algorithm 2 line 2).
    let mut sorted: BTreeMap<OrdF64, usize> = BTreeMap::new();
    sorted.insert(OrdF64::new(d_min), l);
    // L: regions blocked at the fairness limit (Algorithm 2 line 3).
    let mut blocked: Vec<usize> = Vec::new();

    let min_delta = |sorted: &BTreeMap<OrdF64, usize>| -> f64 {
        sorted.keys().next().expect("non-empty multiset").0
    };
    let multiset_move = |sorted: &mut BTreeMap<OrdF64, usize>, from: f64, to: f64| {
        let k = OrdF64::new(from);
        let cnt = sorted.get_mut(&k).expect("delta present in multiset");
        *cnt -= 1;
        if *cnt == 0 {
            sorted.remove(&k);
        }
        *sorted.entry(OrdF64::new(to)).or_insert(0) += 1;
    };

    let mut steps = 0usize;
    let mut final_gain: Option<f64> = None;
    // Increment loop (Algorithm 2 lines 8–25).
    while expenditure > budget + REL_EPS * expenditure.max(1.0) {
        let Some((tier, OrdF64(gain), Reverse(i))) = heap.pop() else {
            break; // All throttlers maxed or blocked: budget unattainable.
        };
        steps += 1;
        let d_old = deltas[i];
        let floor_min = min_delta(&sorted);

        // Step target: the next segment knot, capped by the fairness limit,
        // the remaining budget, and Δ⊣ (Algorithm 2 lines 11–13).
        let rel = (d_old - d_min) / c_delta;
        let next_knot = d_min + c_delta * (rel.floor() + 1.0);
        // Guard against fp: ensure strict progress toward the next knot.
        let next_knot = if next_knot <= d_old + 1e-12 * d_max {
            d_old + c_delta
        } else {
            next_knot
        };
        let mut target = next_knot.min(floor_min + params.fairness).min(d_max);
        let rate = weights[i] * model.r(d_old);
        if rate > 0.0 {
            target = target.min(d_old + (expenditure - budget) / rate);
        }

        if target <= d_old {
            // No movement possible: blocked by fairness (requeue to the
            // blocked list) — the budget cap cannot bind here because the
            // loop condition guarantees remaining slack.
            blocked.push(i);
            continue;
        }

        deltas[i] = target;
        if tier == 0 {
            // Popped gains are non-increasing, so this ends up holding the
            // cheapest *accepted* finite-tier gain: the marginal price.
            final_gain = Some(gain);
        }
        expenditure -= weights[i] * (model.f(d_old) - model.f(target));
        multiset_move(&mut sorted, d_old, target);
        let new_min = min_delta(&sorted);

        if target - new_min >= params.fairness - 1e-12 * d_max {
            // Fairness limit reached (Algorithm 2 lines 16–17).
            blocked.push(i);
        } else if target < d_max - 1e-12 * d_max {
            // Re-insert with the refreshed gain (lines 18–19).
            heap.push(gain_entry(
                i,
                weights[i],
                regions[i].queries,
                model.max_secant_rate(target),
            ));
        }

        if new_min > floor_min {
            // The minimum throttler rose: unblock entries now strictly
            // below the fairness limit (lines 20–24).
            let fairness = params.fairness;
            let mut j = 0;
            while j < blocked.len() {
                let b = blocked[j];
                if deltas[b] - new_min < fairness - 1e-12 * d_max && deltas[b] < d_max {
                    heap.push(gain_entry(
                        b,
                        weights[b],
                        regions[b].queries,
                        model.max_secant_rate(deltas[b]),
                    ));
                    blocked.swap_remove(j);
                } else {
                    j += 1;
                }
            }
        }
    }

    solution(deltas, expenditure, steps, final_gain)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ReductionModel {
        ReductionModel::analytic(5.0, 100.0, 95)
    }

    fn params(z: f64) -> GreedyParams {
        GreedyParams {
            throttle: z,
            fairness: 50.0,
            use_speed: true,
        }
    }

    fn expenditure_of(
        regions: &[RegionInput],
        deltas: &[f64],
        m: &ReductionModel,
        speed: bool,
    ) -> f64 {
        regions
            .iter()
            .zip(deltas)
            .map(|(r, d)| {
                let w = if speed { r.nodes * r.speed } else { r.nodes };
                w * m.f(*d)
            })
            .sum()
    }

    #[test]
    fn empty_input_is_trivially_solved() {
        let s = greedy_increment(&[], &model(), &params(0.5));
        assert!(s.deltas.is_empty());
        assert!(s.budget_met);
        assert_eq!(s.steps, 0);
    }

    #[test]
    fn z_one_keeps_ideal_resolution() {
        let regions = vec![
            RegionInput::new(100.0, 2.0, 10.0),
            RegionInput::new(50.0, 1.0, 20.0),
        ];
        let s = greedy_increment(&regions, &model(), &params(1.0));
        assert!(s.deltas.iter().all(|&d| d == 5.0));
        assert!(s.budget_met);
        assert_eq!(s.steps, 0);
    }

    #[test]
    fn budget_constraint_is_respected() {
        let m = model();
        let regions = vec![
            RegionInput::new(500.0, 1.0, 15.0),
            RegionInput::new(100.0, 8.0, 10.0),
            RegionInput::new(50.0, 0.0, 25.0),
            RegionInput::new(300.0, 3.0, 12.0),
        ];
        for z in [0.9, 0.75, 0.5, 0.3] {
            let s = greedy_increment(&regions, &m, &params(z));
            assert!(s.budget_met, "z = {z}");
            let exp = expenditure_of(&regions, &s.deltas, &m, true);
            assert!(
                exp <= s.budget * (1.0 + 1e-6),
                "z = {z}: expenditure {exp} > budget {}",
                s.budget
            );
            // The solution should not waste budget: the reported
            // expenditure matches a recomputation from deltas.
            assert!((exp - s.expenditure).abs() < 1e-6 * exp.max(1.0));
        }
    }

    #[test]
    fn queryless_regions_shed_first() {
        // Two regions, same node count/speed; one has no queries.
        let regions = vec![
            RegionInput::new(100.0, 5.0, 10.0),
            RegionInput::new(100.0, 0.0, 10.0),
        ];
        // Mild shedding: the query-less region should absorb all of it.
        let s = greedy_increment(&regions, &model(), &params(0.8));
        assert!(s.budget_met);
        assert!(
            s.deltas[1] > s.deltas[0],
            "query-less region must shed more: {:?}",
            s.deltas
        );
        assert!((s.deltas[0] - 5.0).abs() < 1e-9, "queried region untouched");
    }

    #[test]
    fn near_one_throttle_has_near_zero_inaccuracy_with_queryless_room() {
        // The paper's explanation of the huge relative errors near z = 1:
        // LIRA cuts the required fraction from query-less regions, so the
        // objective stays ~0 while Uniform Δ pays everywhere.
        let regions = vec![
            RegionInput::new(100.0, 10.0, 10.0),
            RegionInput::new(900.0, 0.0, 10.0),
        ];
        let s = greedy_increment(&regions, &model(), &params(0.95));
        assert!(s.budget_met);
        assert!(
            s.inaccuracy - 10.0 * 5.0 < 1e-9,
            "only the floor m·Δ⊢ remains"
        );
    }

    #[test]
    fn gain_prefers_high_n_low_m_regions() {
        // Table 1: high n / low m is the most attractive quadrant.
        let regions = vec![
            RegionInput::new(1000.0, 1.0, 10.0), // high n, low m  -> shed a lot
            RegionInput::new(10.0, 10.0, 10.0),  // low n, high m  -> shed least
            RegionInput::new(1000.0, 10.0, 10.0),
            RegionInput::new(10.0, 1.0, 10.0),
        ];
        let s = greedy_increment(&regions, &model(), &params(0.5));
        assert!(s.budget_met);
        assert!(s.deltas[0] > s.deltas[1], "{:?}", s.deltas);
        assert!(s.deltas[0] >= s.deltas[2] - 1e-9);
        assert!(s.deltas[3] <= s.deltas[0] + 1e-9);
    }

    #[test]
    fn fairness_threshold_bounds_spread() {
        let regions = vec![
            RegionInput::new(1000.0, 0.0, 10.0),
            RegionInput::new(10.0, 50.0, 10.0),
            RegionInput::new(500.0, 1.0, 10.0),
        ];
        for fairness in [1.0, 5.0, 20.0, 50.0] {
            let p = GreedyParams {
                throttle: 0.4,
                fairness,
                use_speed: true,
            };
            let s = greedy_increment(&regions, &model(), &p);
            let max = s.deltas.iter().cloned().fold(f64::MIN, f64::max);
            let min = s.deltas.iter().cloned().fold(f64::MAX, f64::min);
            assert!(
                max - min <= fairness + 1e-9,
                "fairness {fairness} violated: spread {}",
                max - min
            );
        }
    }

    #[test]
    fn fairness_zero_degenerates_to_uniform() {
        let regions = vec![
            RegionInput::new(1000.0, 0.0, 10.0),
            RegionInput::new(10.0, 50.0, 10.0),
        ];
        let p = GreedyParams {
            throttle: 0.5,
            fairness: 0.0,
            use_speed: true,
        };
        let s = greedy_increment(&regions, &model(), &p);
        assert!(s.budget_met);
        assert_eq!(s.deltas[0], s.deltas[1]);
        assert_eq!(s.deltas[0], model().min_delta_for_budget(0.5));
    }

    #[test]
    fn relaxed_fairness_never_hurts_inaccuracy() {
        // Figure 10's observation: larger Δ⇔ relaxes the constraints and
        // enables (weakly) smaller objective values.
        let regions = vec![
            RegionInput::new(800.0, 0.5, 12.0),
            RegionInput::new(50.0, 20.0, 8.0),
            RegionInput::new(400.0, 2.0, 18.0),
            RegionInput::new(5.0, 9.0, 10.0),
        ];
        let mut prev = f64::INFINITY;
        for fairness in [5.0, 10.0, 25.0, 50.0, 95.0] {
            let p = GreedyParams {
                throttle: 0.4,
                fairness,
                use_speed: true,
            };
            let s = greedy_increment(&regions, &model(), &p);
            assert!(s.budget_met, "fairness {fairness}");
            assert!(
                s.inaccuracy <= prev + 1e-6,
                "fairness {fairness}: {} > {prev}",
                s.inaccuracy
            );
            prev = s.inaccuracy;
        }
    }

    #[test]
    fn unattainable_budget_maxes_all_throttlers() {
        let m = model();
        let regions = vec![
            RegionInput::new(100.0, 2.0, 10.0),
            RegionInput::new(200.0, 1.0, 10.0),
        ];
        // f(delta_max) is the floor of attainable reduction.
        let z = m.f(m.delta_max()) * 0.5;
        let s = greedy_increment(&regions, &m, &GreedyParams::unconstrained(z, true));
        assert!(!s.budget_met);
        assert!(
            s.deltas.iter().all(|&d| (d - 100.0).abs() < 1e-9),
            "{:?}",
            s.deltas
        );
    }

    #[test]
    fn speed_factor_shifts_shedding_to_fast_regions() {
        // Same n and m; one region's nodes move much faster, so shedding
        // there buys more update reduction per unit inaccuracy.
        let regions = vec![
            RegionInput::new(100.0, 2.0, 30.0),
            RegionInput::new(100.0, 2.0, 5.0),
        ];
        let s = greedy_increment(&regions, &model(), &params(0.6));
        assert!(s.budget_met);
        assert!(s.deltas[0] > s.deltas[1], "{:?}", s.deltas);
        // Without the speed factor the two regions are symmetric; the
        // greedy tie-break keeps their deltas within one increment.
        let p = GreedyParams {
            throttle: 0.6,
            fairness: 95.0,
            use_speed: false,
        };
        let s2 = greedy_increment(&regions, &model(), &p);
        assert!((s2.deltas[0] - s2.deltas[1]).abs() <= model().segment_width() + 1e-9);
    }

    #[test]
    fn zero_weight_population_is_trivially_feasible() {
        let regions = vec![RegionInput::new(0.0, 3.0, 0.0)];
        let s = greedy_increment(&regions, &model(), &params(0.1));
        assert!(s.budget_met);
        assert_eq!(s.deltas[0], 5.0);
    }

    #[test]
    fn steps_bounded_by_kappa_times_l() {
        let m = model();
        let regions: Vec<RegionInput> = (0..40)
            .map(|i| RegionInput::new(10.0 + i as f64, (i % 7) as f64, 5.0 + (i % 11) as f64))
            .collect();
        let s = greedy_increment(&regions, &m, &params(0.3));
        // Complexity bound from Section 3.3.3: at most kappa steps per
        // throttler, plus one blocked re-queue per step in the worst case.
        assert!(s.steps <= 2 * m.kappa() * regions.len());
        assert!(s.budget_met);
    }

    #[test]
    fn greedy_matches_exhaustive_optimum_on_lattice() {
        // Theorem 3.1: for piecewise-linear f with segment size c_delta,
        // greedy is optimal. Exhaustively enumerate all lattice assignments
        // for a small instance and compare objectives among those meeting
        // the budget.
        let m = ReductionModel::analytic(5.0, 25.0, 4); // knots at 5,10,15,20,25
        let regions = vec![
            RegionInput::new(30.0, 2.0, 10.0),
            RegionInput::new(80.0, 1.0, 10.0),
            RegionInput::new(10.0, 4.0, 10.0),
        ];
        for z in [0.9, 0.7, 0.5, 0.35] {
            let p = GreedyParams::unconstrained(z, true);
            let s = greedy_increment(&regions, &m, &p);
            assert!(s.budget_met, "z = {z}");
            let total_w: f64 = regions.iter().map(|r| r.nodes * r.speed).sum();
            let budget = z * total_w;
            let mut best = f64::INFINITY;
            for a in 0..=4usize {
                for b in 0..=4usize {
                    for c in 0..=4usize {
                        let ds = [m.knot_delta(a), m.knot_delta(b), m.knot_delta(c)];
                        let exp = expenditure_of(&regions, &ds, &m, true);
                        if exp <= budget * (1.0 + 1e-9) {
                            let obj: f64 =
                                ds.iter().zip(&regions).map(|(d, r)| r.queries * d).sum();
                            best = best.min(obj);
                        }
                    }
                }
            }
            // Greedy may land between knots (fractional final step), so it
            // can only do as well or better than the best lattice point.
            assert!(
                s.inaccuracy <= best + 1e-6,
                "z = {z}: greedy {} vs exhaustive {best}",
                s.inaccuracy
            );
        }
    }

    #[test]
    fn flat_segments_do_not_hide_cliffs() {
        // A model that is flat for two segments and then falls off a
        // cliff. With immediate-slope gains every initial gain is 0 and
        // the paper's greedy advances an arbitrary (index-order) region;
        // max-secant selection advances the region with the highest w/m —
        // the one whose cliff buys the most reduction per inaccuracy.
        let m = ReductionModel::from_knots(5.0, 105.0, vec![1.0, 1.0, 1.0, 0.25, 0.05]).unwrap();
        let regions = vec![
            RegionInput::new(10.0, 5.0, 10.0),  // w/m = 20
            RegionInput::new(500.0, 1.0, 10.0), // w/m = 5000: shed me first
        ];
        let sol = greedy_increment(&regions, &m, &GreedyParams::unconstrained(0.5, true));
        assert!(sol.budget_met);
        assert!(
            sol.deltas[1] > sol.deltas[0],
            "high-gain region must cross the flats first: {:?}",
            sol.deltas
        );
        assert!(
            (sol.deltas[0] - 5.0).abs() < 1e-9,
            "low-gain region untouched"
        );
    }

    #[test]
    fn final_gain_reflects_marginal_price() {
        let m = model();
        // z = 1: no steps, no price.
        let regions = vec![RegionInput::new(100.0, 2.0, 10.0)];
        let s = greedy_increment(&regions, &m, &params(1.0));
        assert_eq!(s.final_gain, None);
        // Budget met purely from a query-free region: still no price.
        let regions = vec![
            RegionInput::new(100.0, 5.0, 10.0),
            RegionInput::new(900.0, 0.0, 10.0),
        ];
        let s = greedy_increment(&regions, &m, &params(0.9));
        assert!(s.budget_met);
        assert_eq!(s.final_gain, None, "only m=0 shedding happened");
        // Deep shedding forces queried regions to participate: a finite,
        // positive price no larger than the initial best gain.
        let s = greedy_increment(&regions, &m, &params(0.2));
        assert!(s.budget_met);
        let price = s.final_gain.expect("queried region was shed");
        assert!(price > 0.0);
        let initial_gain = (100.0 / 5.0) * 10.0 * m.r(m.delta_min());
        assert!(price <= initial_gain + 1e-9);
    }
}
