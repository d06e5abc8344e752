//! GRIDREDUCE (Section 3.2, Algorithm 1): partitions the monitored space
//! into `l` shedding regions by drilling down a quad-tree region hierarchy,
//! always splitting the region with the highest *accuracy gain*.
//!
//! The accuracy gain of a tree node `t` is `V[t] = E[t] − E_p[t]`
//! (CALCERRGAIN): the reduction in expected query-result inaccuracy obtained
//! by replacing the single shedding region `t` with its four quad-tree
//! children, each with its own optimally chosen throttler. Regions that are
//! internally homogeneous (or query-free) have near-zero gain and are left
//! unsplit — this is what makes the partitioning *region-aware*.

use std::collections::BinaryHeap;

use crate::error::{LiraError, Result};
use crate::geometry::{OrdF64, Rect};
use crate::greedy_increment::{greedy_increment, GreedyParams, RegionInput};
use crate::quadtree::{NodeId, RegionTree};
use crate::reduction::ReductionModel;
use crate::stats_grid::StatsGrid;

/// One shedding region produced by the partitioner: its area and the
/// statistics GREEDYINCREMENT needs (`n_i`, `m_i`, `s_i`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SheddingRegion {
    /// The geographical area `A_i`.
    pub area: Rect,
    /// Number of mobile nodes, `n_i`.
    pub nodes: f64,
    /// Fractional number of queries, `m_i`.
    pub queries: f64,
    /// Mean node speed, `s_i`.
    pub speed: f64,
}

impl SheddingRegion {
    /// The optimizer's view of this region.
    pub(crate) fn as_input(&self) -> RegionInput {
        RegionInput::new(self.nodes, self.queries, self.speed)
    }
}

/// Work counters from one partitioner run, for telemetry.
///
/// Plain (non-atomic) `u64`s computed deterministically alongside the
/// algorithm: equal inputs always produce equal stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GridReduceStats {
    /// Tree nodes whose statistics were examined (bottom-up priority
    /// pass plus drill-down pops).
    pub cells_visited: u64,
    /// Accuracy/context gain evaluations performed (one per internal
    /// node of the hierarchy).
    pub gain_evals: u64,
    /// Drill-down heap pops (splits attempted).
    pub heap_pops: u64,
    /// Shedding regions emitted.
    pub regions_emitted: u64,
}

/// A partitioning of the space into shedding regions.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioning {
    /// The shedding regions `A_i`, `i ∈ [1..l]`. They tile the space.
    pub regions: Vec<SheddingRegion>,
    /// Work counters from the run that produced this partitioning.
    pub stats: GridReduceStats,
}

impl Partitioning {
    /// Optimizer inputs for all regions.
    pub fn inputs(&self) -> Vec<RegionInput> {
        self.regions.iter().map(|r| r.as_input()).collect()
    }
}

/// Settings for GRIDREDUCE.
#[derive(Debug, Clone, Copy)]
pub struct GridReduceParams {
    /// Desired number of shedding regions `l` (`l mod 3 = 1`).
    pub num_regions: usize,
    /// Throttle fraction `z` used inside the accuracy-gain computation.
    pub throttle: f64,
    /// Fairness threshold `Δ⇔` applied inside the accuracy-gain
    /// sub-problems, so gains predict what the *deployed* (fairness-
    /// constrained) GREEDYINCREMENT can actually realize.
    pub fairness: f64,
    /// Whether speeds weight the sub-problem budgets (Section 3.1.2).
    pub use_speed: bool,
    /// Whether drill-down priorities use the decayed lookahead
    /// `P[t] = max(V[t], γ·max P[child])` (see `drill_down`); `false`
    /// reproduces the paper's literal one-level gain, kept for ablation.
    pub lookahead: bool,
    /// Whether gains are evaluated against the global marginal price
    /// (see [`context_gain`]); `false` always uses the paper's self-budget
    /// CALCERRGAIN, kept for ablation.
    pub context_gain: bool,
}

impl GridReduceParams {
    /// Parameters with the lookahead refinement enabled (the default).
    pub fn new(num_regions: usize, throttle: f64, fairness: f64, use_speed: bool) -> Self {
        GridReduceParams {
            num_regions,
            throttle,
            fairness,
            use_speed,
            lookahead: true,
            context_gain: true,
        }
    }
}

/// Runs GRIDREDUCE over a statistics grid, producing an `(α, l)`-partitioning.
///
/// Stage I (`O(α²)`) builds the aggregated region hierarchy; stage II
/// (`O(l·log l)`) drills down by accuracy gain. If the hierarchy bottoms out
/// before `l` regions are reached (only possible when `l > α²` is rejected
/// upstream, or when every explored node is a leaf), fewer regions are
/// returned.
pub fn grid_reduce(
    grid: &StatsGrid,
    model: &ReductionModel,
    params: &GridReduceParams,
) -> Result<Partitioning> {
    if params.num_regions == 0 || params.num_regions % 3 != 1 {
        return Err(LiraError::InvalidConfig(format!(
            "l = {} must satisfy l mod 3 = 1",
            params.num_regions
        )));
    }
    if params.num_regions > grid.alpha() * grid.alpha() {
        return Err(LiraError::InvalidConfig(format!(
            "l = {} exceeds the grid's {} cells",
            params.num_regions,
            grid.alpha() * grid.alpha()
        )));
    }
    let tree = RegionTree::build(grid)?;
    Ok(drill_down(&tree, model, params))
}

/// Per-split discount applied to gains found deeper in a subtree when they
/// surface as drill-down priorities (see [`drill_down`]).
const LOOKAHEAD_DECAY: f64 = 0.8;

/// Drill-down heap entry: priority, then (level, row, col) reversed so ties
/// prefer splitting coarser regions, deterministically.
type DrillEntry = (OrdF64, std::cmp::Reverse<(u32, u32, u32)>);

/// Stage II of Algorithm 1 (lines 10–22), operating on a prebuilt hierarchy.
///
/// One refinement over the paper's pseudocode: the one-level accuracy gain
/// `V[t]` is *myopic* — a node whose four children look alike but whose
/// grandchildren differ wildly gets `V[t] ≈ 0` and would never be split,
/// even though drilling through it is worthwhile. We therefore drive the
/// heap by a lookahead priority
/// `P[t] = max(V[t], γ·max_children P[t_i])` (γ = 0.8, one discount per
/// extra split spent reaching the deep gain), precomputed bottom-up in
/// `O(α²)` — the same asymptotic cost as stage I. Splitting decisions and
/// the final region set are otherwise exactly the paper's.
pub(crate) fn drill_down(
    tree: &RegionTree,
    model: &ReductionModel,
    params: &GridReduceParams,
) -> Partitioning {
    // Estimate the global marginal price λ* once; when available, gains are
    // computed against it in closed form (see [`context_gain`]).
    let price = if params.context_gain {
        estimate_price(tree, model, params)
    } else {
        None
    };

    let mut stats = GridReduceStats::default();

    // Bottom-up pass: V[t] for every internal node, folded into the
    // lookahead priority P[t].
    let levels = tree.levels();
    let mut priority: Vec<Vec<f64>> = (0..levels)
        .map(|d| vec![0.0; (1usize << d) * (1usize << d)])
        .collect();
    for level in (0..levels.saturating_sub(1)).rev() {
        let side = 1usize << level;
        let child_side = side * 2;
        for row in 0..side {
            for col in 0..side {
                let id = NodeId {
                    level,
                    row: row as u32,
                    col: col as u32,
                };
                stats.cells_visited += 1;
                stats.gain_evals += 1;
                let own = match price {
                    Some(price) => context_gain(tree, id, model, price, params),
                    None => accuracy_gain(
                        tree,
                        id,
                        model,
                        params.throttle,
                        params.fairness,
                        params.use_speed,
                    ),
                };
                let mut deep = 0.0f64;
                if params.lookahead {
                    for (dr, dc) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                        deep = deep.max(
                            priority[level as usize + 1]
                                [(row * 2 + dr) * child_side + col * 2 + dc],
                        );
                    }
                }
                priority[level as usize][row * side + col] = own.max(LOOKAHEAD_DECAY * deep);
            }
        }
    }

    // H: max-heap of explored tree nodes by priority; ties broken by lower
    // tree level (prefer splitting coarser regions) then position, for
    // determinism.
    let mut heap: BinaryHeap<DrillEntry> = BinaryHeap::new();

    // L: finalized regions (leaves that cannot be split further).
    let mut finalized: Vec<NodeId> = Vec::new();

    let push = |heap: &mut BinaryHeap<DrillEntry>, id: NodeId| {
        let side = 1usize << id.level;
        let p = priority[id.level as usize][id.row as usize * side + id.col as usize];
        heap.push((
            OrdF64::new(p),
            std::cmp::Reverse((id.level, id.row, id.col)),
        ));
    };

    push(&mut heap, NodeId::ROOT);

    while finalized.len() + heap.len() < params.num_regions {
        let Some((_, std::cmp::Reverse((level, row, col)))) = heap.pop() else {
            break; // Hierarchy exhausted.
        };
        let id = NodeId { level, row, col };
        stats.heap_pops += 1;
        stats.cells_visited += 1;
        if tree.is_leaf(id) {
            // No further partitioning possible (Algorithm 1 lines 18–19).
            finalized.push(id);
        } else {
            for child in id.children() {
                push(&mut heap, child);
            }
        }
    }

    // The final region set is L ∪ H (Algorithm 1 lines 20–22).
    let mut ids = finalized;
    ids.extend(
        heap.into_iter()
            .map(|(_, std::cmp::Reverse((level, row, col)))| NodeId { level, row, col }),
    );
    // Deterministic output order: by level, then row, then col.
    ids.sort_by_key(|id| (id.level, id.row, id.col));

    let regions: Vec<SheddingRegion> = ids
        .into_iter()
        .map(|id| {
            let s = tree.stats(id);
            SheddingRegion {
                area: tree.region(id),
                nodes: s.nodes,
                queries: s.queries,
                speed: s.speed,
            }
        })
        .collect();
    stats.regions_emitted = regions.len() as u64;
    Partitioning { regions, stats }
}

/// CALCERRGAIN (Algorithm 1, bottom): the expected reduction in query-result
/// inaccuracy from splitting node `t` into its four children.
pub(crate) fn accuracy_gain(
    tree: &RegionTree,
    id: NodeId,
    model: &ReductionModel,
    throttle: f64,
    fairness: f64,
    use_speed: bool,
) -> f64 {
    let t = tree.stats(id);
    // E ← min_Δ m[t]·Δ s.t. n[t]·f(Δ) ≤ z·n[t]·f(Δ⊢): unsplit, the whole
    // region must shed to the budget on its own, so Δ = f⁻¹(z) — except
    // that a region with no (effective) update load is trivially feasible
    // at Δ⊢ and must not show a phantom gain. (Writing the constraint with
    // the n[t] factor, as the global problem does, makes the zero-load case
    // explicit; the paper's f(Δ) ≤ z·f(Δ⊢) form is the n[t] > 0 case.)
    let weight = if use_speed {
        t.nodes * t.speed
    } else {
        t.nodes
    };
    let e_single = if weight > 0.0 {
        t.queries * model.min_delta_for_budget(throttle)
    } else {
        t.queries * model.delta_min()
    };

    // E_p ← min Σ Δ_i·m[t_i] s.t. Σ n[t_i]·f(Δ_i) ≤ z·n[t]·f(Δ⊢):
    // a 4-region GREEDYINCREMENT sub-problem, run under the same fairness
    // threshold as the deployed optimizer so the gain is realizable.
    let children = id.children().map(|c| tree.stats(c));
    let inputs: Vec<RegionInput> = children
        .iter()
        .map(|c| RegionInput::new(c.nodes, c.queries, c.speed))
        .collect();
    let sub = greedy_increment(
        &inputs,
        model,
        &GreedyParams {
            throttle,
            fairness,
            use_speed,
        },
    );
    let gain = e_single - sub.inaccuracy;
    // Numerical guard: splitting strictly increases flexibility, so the
    // true gain is never negative; clamp fp noise.
    gain.max(0.0)
}

/// Estimates the global marginal price `λ*` of update reduction: the update
/// gain of the cheapest accepted GREEDYINCREMENT step when the whole space
/// is shed at granularity ~`l` (the quad-tree level with at least
/// `num_regions` nodes). Returns `None` when the budget is met without
/// shedding any queried region — the self-budget gain of CALCERRGAIN is
/// then used instead.
fn estimate_price(
    tree: &RegionTree,
    model: &ReductionModel,
    params: &GridReduceParams,
) -> Option<f64> {
    let mut level = 0u32;
    while (1usize << (2 * level)) < params.num_regions && level + 1 < tree.levels() {
        level += 1;
    }
    let side = 1u32 << level;
    let mut inputs = Vec::with_capacity((side * side) as usize);
    for row in 0..side {
        for col in 0..side {
            let s = tree.stats(NodeId { level, row, col });
            inputs.push(RegionInput::new(s.nodes, s.queries, s.speed));
        }
    }
    let sol = greedy_increment(
        &inputs,
        model,
        &GreedyParams {
            throttle: params.throttle,
            fairness: params.fairness,
            use_speed: params.use_speed,
        },
    );
    sol.final_gain.filter(|g| *g > 0.0)
}

/// The expected query-result inaccuracy of one region under a global
/// marginal price `λ*`: a region sheds exactly while its update gain
/// `S(Δ) = (w/m)·r(Δ)` stays at or above the price, so its throttler is
/// the rate-threshold crossing (capped by the fairness span).
fn context_cost(
    stats: crate::quadtree::NodeStats,
    model: &ReductionModel,
    price: f64,
    params: &GridReduceParams,
) -> f64 {
    if stats.queries <= 0.0 {
        // Query-free regions contribute nothing to the objective.
        return 0.0;
    }
    let weight = if params.use_speed {
        stats.nodes * stats.speed
    } else {
        stats.nodes
    };
    if weight <= 0.0 {
        // No update load: the global optimizer never sheds here.
        return stats.queries * model.delta_min();
    }
    let cap = (model.delta_min() + params.fairness).min(model.delta_max());
    let delta = model
        .delta_at_rate_threshold(price * stats.queries / weight)
        .min(cap);
    stats.queries * delta
}

/// Context-aware accuracy gain: the reduction in expected inaccuracy from
/// splitting node `t`, where both the unsplit and split costs are evaluated
/// against the *global* marginal price `λ*` rather than the node's
/// self-budget. This removes CALCERRGAIN's systematic overestimate for
/// regions whose load/query ratio deviates strongly from the global average
/// (e.g. query hotspots in sparse areas under the Inverse distribution).
pub fn context_gain(
    tree: &RegionTree,
    id: NodeId,
    model: &ReductionModel,
    price: f64,
    params: &GridReduceParams,
) -> f64 {
    let single = context_cost(tree.stats(id), model, price, params);
    let split: f64 = id
        .children()
        .iter()
        .map(|c| context_cost(tree.stats(*c), model, price, params))
        .sum();
    (single - split).max(0.0)
}

/// The equal-size `l`-partitioning used by the Lira-Grid comparator: the
/// space divided into `⌊√l⌋ × ⌊√l⌋` equal cells (Section 3.2.5), with
/// statistics aggregated from the statistics grid. This is the degenerate
/// partitioner GRIDREDUCE is compared against — same output type, no
/// region awareness.
pub fn l_partitioning(grid: &StatsGrid, num_regions: usize) -> Partitioning {
    let side = ((num_regions as f64).sqrt().floor() as usize).max(1);
    let bounds = *grid.bounds();
    let w = bounds.width() / side as f64;
    let h = bounds.height() / side as f64;
    let alpha = grid.alpha();

    let mut regions: Vec<SheddingRegion> = (0..side * side)
        .map(|i| {
            let (row, col) = (i / side, i % side);
            SheddingRegion {
                area: Rect::from_coords(
                    bounds.min.x + col as f64 * w,
                    bounds.min.y + row as f64 * h,
                    bounds.min.x + (col + 1) as f64 * w,
                    bounds.min.y + (row + 1) as f64 * h,
                ),
                nodes: 0.0,
                queries: 0.0,
                speed: 0.0,
            }
        })
        .collect();

    // Aggregate statistics-grid cells into the equal regions by cell-center
    // assignment (α is typically much larger than √l, making this exact up
    // to one cell of quantization).
    let mut speed_sums = vec![0.0f64; regions.len()];
    for gr in 0..alpha {
        for gc in 0..alpha {
            let cell = grid.cell(gr, gc);
            let center = grid.cell_rect(gr, gc).center();
            let col = (((center.x - bounds.min.x) / w).floor() as usize).min(side - 1);
            let row = (((center.y - bounds.min.y) / h).floor() as usize).min(side - 1);
            let region = &mut regions[row * side + col];
            region.nodes += cell.nodes;
            region.queries += cell.queries;
            speed_sums[row * side + col] += cell.speed_sum;
        }
    }
    for (region, speed_sum) in regions.iter_mut().zip(&speed_sums) {
        region.speed = if region.nodes > 0.0 {
            speed_sum / region.nodes
        } else {
            0.0
        };
    }
    let stats = GridReduceStats {
        cells_visited: (alpha * alpha) as u64,
        gain_evals: 0,
        heap_pops: 0,
        regions_emitted: regions.len() as u64,
    };
    Partitioning { regions, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;

    fn model() -> ReductionModel {
        ReductionModel::analytic(5.0, 100.0, 95)
    }

    fn params(l: usize) -> GridReduceParams {
        GridReduceParams::new(l, 0.5, 50.0, true)
    }

    /// A 16×16 grid with a dense node cluster (no queries) in the SW
    /// quadrant and a query hotspot (few nodes) in the NE quadrant.
    fn heterogeneous_grid() -> StatsGrid {
        let mut g = StatsGrid::new(16, Rect::from_coords(0.0, 0.0, 1600.0, 1600.0)).unwrap();
        g.begin_snapshot();
        for i in 0..200 {
            let x = 50.0 + (i % 14) as f64 * 50.0;
            let y = 50.0 + (i / 14) as f64 * 50.0;
            g.observe_node(&Point::new(x, y), 15.0, 1.0);
        }
        for i in 0..10 {
            g.observe_node(&Point::new(900.0 + i as f64 * 60.0, 900.0), 10.0, 1.0);
        }
        for i in 0..20 {
            let x = 850.0 + (i % 5) as f64 * 140.0;
            let y = 850.0 + (i / 5) as f64 * 140.0;
            g.observe_query(&Rect::from_coords(x, y, x + 100.0, y + 100.0));
        }
        g.commit_snapshot();
        g
    }

    #[test]
    fn rejects_invalid_l() {
        let g = heterogeneous_grid();
        let m = model();
        assert!(grid_reduce(&g, &m, &params(0)).is_err());
        assert!(grid_reduce(&g, &m, &params(3)).is_err());
        assert!(grid_reduce(&g, &m, &params(257)).is_err()); // > 16²=256
        assert!(grid_reduce(&g, &m, &params(4)).is_ok());
    }

    #[test]
    fn produces_exactly_l_regions() {
        let g = heterogeneous_grid();
        let m = model();
        for l in [1usize, 4, 13, 40, 100] {
            let p = grid_reduce(&g, &m, &params(l)).unwrap();
            assert_eq!(p.regions.len(), l, "l = {l}");
        }
    }

    #[test]
    fn regions_tile_the_space() {
        let g = heterogeneous_grid();
        let p = grid_reduce(&g, &model(), &params(40)).unwrap();
        let total: f64 = p.regions.iter().map(|r| r.area.area()).sum();
        assert!((total - g.bounds().area()).abs() < 1e-6);
        for i in 0..p.regions.len() {
            for j in (i + 1)..p.regions.len() {
                assert!(
                    !p.regions[i].area.intersects(&p.regions[j].area),
                    "regions {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn stats_are_conserved() {
        let g = heterogeneous_grid();
        let p = grid_reduce(&g, &model(), &params(25)).unwrap();
        let n: f64 = p.regions.iter().map(|r| r.nodes).sum();
        let m: f64 = p.regions.iter().map(|r| r.queries).sum();
        assert!((n - g.total_nodes()).abs() < 1e-6);
        assert!((m - g.total_queries()).abs() < 1e-6);
    }

    #[test]
    fn drills_into_heterogeneous_areas() {
        let g = heterogeneous_grid();
        let p = grid_reduce(&g, &model(), &params(13)).unwrap();
        // The query hotspot (NE) must be partitioned more finely than the
        // query-free node cluster (SW): smaller average region area where
        // the gain is.
        let b = g.bounds();
        let ne_rect = Rect::from_coords(b.width() / 2.0, b.height() / 2.0, b.width(), b.height());
        let ne_areas: Vec<f64> = p
            .regions
            .iter()
            .filter(|r| ne_rect.intersects(&r.area))
            .map(|r| r.area.area())
            .collect();
        let sw_rect = Rect::from_coords(0.0, 0.0, b.width() / 2.0, b.height() / 2.0);
        let sw_only: Vec<f64> = p
            .regions
            .iter()
            .filter(|r| sw_rect.intersection_area(&r.area) == r.area.area())
            .map(|r| r.area.area())
            .collect();
        assert!(!ne_areas.is_empty());
        let ne_min = ne_areas.iter().cloned().fold(f64::MAX, f64::min);
        let sw_min = sw_only.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            ne_min < sw_min,
            "NE hotspot regions ({ne_min}) should be finer than SW ({sw_min})"
        );
    }

    #[test]
    fn uniform_space_keeps_coarse_regions() {
        // Perfectly homogeneous space: gains are ~0 everywhere, so the
        // drill-down order is arbitrary but the partitioning remains valid.
        let mut g = StatsGrid::new(8, Rect::from_coords(0.0, 0.0, 800.0, 800.0)).unwrap();
        g.begin_snapshot();
        for r in 0..8 {
            for c in 0..8 {
                let p = g.cell_rect(r, c).center();
                g.observe_node(&p, 10.0, 1.0);
                g.observe_query(&Rect::square(Point::new(p.x - 10.0, p.y - 10.0), 20.0));
            }
        }
        g.commit_snapshot();
        let p = grid_reduce(&g, &model(), &params(16)).unwrap();
        assert_eq!(p.regions.len(), 16);
        let total: f64 = p.regions.iter().map(|r| r.area.area()).sum();
        assert!((total - 800.0 * 800.0).abs() < 1e-6);
    }

    #[test]
    fn accuracy_gain_zero_for_homogeneous_node() {
        // A node whose four children are identical has no gain.
        let mut g = StatsGrid::new(4, Rect::from_coords(0.0, 0.0, 400.0, 400.0)).unwrap();
        g.begin_snapshot();
        for r in 0..4 {
            for c in 0..4 {
                let p = g.cell_rect(r, c).center();
                g.observe_node(&p, 10.0, 1.0);
                g.observe_query(&Rect::square(Point::new(p.x - 5.0, p.y - 5.0), 10.0));
            }
        }
        g.commit_snapshot();
        let tree = RegionTree::build(&g).unwrap();
        let v = accuracy_gain(&tree, NodeId::ROOT, &model(), 0.5, 50.0, true);
        assert!(
            v.abs() < 1e-6,
            "homogeneous root gain should be ~0, got {v}"
        );
    }

    #[test]
    fn accuracy_gain_positive_for_skewed_node() {
        // Quadrants differ wildly: many nodes & no queries SW, many queries
        // & few nodes NE.
        let mut g = StatsGrid::new(2, Rect::from_coords(0.0, 0.0, 200.0, 200.0)).unwrap();
        g.begin_snapshot();
        for i in 0..100 {
            g.observe_node(
                &Point::new(10.0 + (i % 10) as f64, 10.0 + (i / 10) as f64),
                10.0,
                1.0,
            );
        }
        g.observe_node(&Point::new(150.0, 150.0), 10.0, 1.0);
        for _ in 0..10 {
            g.observe_query(&Rect::from_coords(120.0, 120.0, 180.0, 180.0));
        }
        g.commit_snapshot();
        let tree = RegionTree::build(&g).unwrap();
        let v = accuracy_gain(&tree, NodeId::ROOT, &model(), 0.5, 50.0, true);
        assert!(v > 0.0, "skewed root must have positive gain");
    }

    #[test]
    fn context_gain_rewards_isolation() {
        // One quadrant holds queries with no nodes; another holds a dense
        // node cluster with no queries: splitting the root isolates them.
        let mut g = StatsGrid::new(2, Rect::from_coords(0.0, 0.0, 200.0, 200.0)).unwrap();
        g.begin_snapshot();
        for i in 0..100 {
            g.observe_node(
                &Point::new(10.0 + (i % 10) as f64, 10.0 + (i / 10) as f64),
                10.0,
                1.0,
            );
        }
        for _ in 0..5 {
            g.observe_query(&Rect::from_coords(120.0, 120.0, 180.0, 180.0));
        }
        g.commit_snapshot();
        let tree = RegionTree::build(&g).unwrap();
        let m = model();
        let p = GridReduceParams::new(4, 0.5, 95.0, true);
        let v = context_gain(&tree, NodeId::ROOT, &m, 1.0, &p);
        assert!(
            v > 0.0,
            "isolating queries from load must have positive gain"
        );
    }

    #[test]
    fn context_gain_zero_for_homogeneous_node() {
        let mut g = StatsGrid::new(2, Rect::from_coords(0.0, 0.0, 200.0, 200.0)).unwrap();
        g.begin_snapshot();
        for r in 0..2 {
            for c in 0..2 {
                let p = g.cell_rect(r, c).center();
                g.observe_node(&p, 10.0, 1.0);
                g.observe_query(&Rect::square(Point::new(p.x - 5.0, p.y - 5.0), 10.0));
            }
        }
        g.commit_snapshot();
        let tree = RegionTree::build(&g).unwrap();
        let m = model();
        let p = GridReduceParams::new(4, 0.5, 95.0, true);
        let v = context_gain(&tree, NodeId::ROOT, &m, 0.05, &p);
        assert!(v.abs() < 1e-9, "identical children: no gain, got {v}");
    }

    #[test]
    fn context_cost_respects_fairness_cap() {
        // A huge-load query-free... rather: queried region with enormous
        // load would shed to delta_max without the cap; fairness caps it.
        let stats = crate::quadtree::NodeStats {
            nodes: 1e6,
            queries: 1.0,
            speed: 10.0,
        };
        let m = model();
        let mut p = GridReduceParams::new(4, 0.5, 20.0, true);
        let tiny_price = 1e-12;
        let cost = super::context_cost(stats, &m, tiny_price, &p);
        assert!(
            (cost - 25.0).abs() < 1e-9,
            "capped at delta_min + fairness, got {cost}"
        );
        p.fairness = 1000.0;
        let cost = super::context_cost(stats, &m, tiny_price, &p);
        assert!(
            (cost - 100.0).abs() < 1e-9,
            "uncapped goes to delta_max, got {cost}"
        );
    }

    #[test]
    fn price_estimation_modes() {
        // z = 1: no shedding, no price.
        let g = heterogeneous_grid();
        let tree = RegionTree::build(&g).unwrap();
        let m = model();
        let p1 = GridReduceParams::new(13, 1.0, 50.0, true);
        assert!(super::estimate_price(&tree, &m, &p1).is_none());
        // Moderate budget attainable from query-free regions alone: the
        // self-budget gain remains in force (no global price).
        let p15 = GridReduceParams::new(13, 0.3, 50.0, true);
        assert!(super::estimate_price(&tree, &m, &p15).is_none());
        // A budget so tight that queried regions must shed too: a finite,
        // positive price.
        let p2 = GridReduceParams::new(13, 0.05, 50.0, true);
        let price = super::estimate_price(&tree, &m, &p2);
        assert!(price.is_some_and(|v| v > 0.0), "{price:?}");
    }

    #[test]
    fn partitioner_reports_work_stats() {
        let g = heterogeneous_grid();
        let p = grid_reduce(&g, &model(), &params(13)).unwrap();
        assert_eq!(p.stats.regions_emitted, 13);
        assert!(p.stats.gain_evals > 0);
        assert!(p.stats.cells_visited > p.stats.gain_evals);
        // Reaching 13 regions takes at least (13 − 1)/3 = 4 splits.
        assert!(p.stats.heap_pops >= 4);
        // Stats are deterministic: same inputs, same counters.
        let p2 = grid_reduce(&g, &model(), &params(13)).unwrap();
        assert_eq!(p.stats, p2.stats);

        let lp = l_partitioning(&g, 16);
        assert_eq!(lp.stats.regions_emitted, 16);
        assert_eq!(lp.stats.cells_visited, 256);
        assert_eq!(lp.stats.gain_evals, 0);
    }

    #[test]
    fn l_one_returns_whole_space() {
        let g = heterogeneous_grid();
        let p = grid_reduce(&g, &model(), &params(1)).unwrap();
        assert_eq!(p.regions.len(), 1);
        assert_eq!(p.regions[0].area, *g.bounds());
        assert!((p.regions[0].nodes - g.total_nodes()).abs() < 1e-9);
    }

    #[test]
    fn max_l_reaches_leaf_level() {
        let g = heterogeneous_grid(); // alpha = 16 -> max l = 256
        let p = grid_reduce(&g, &model(), &params(256)).unwrap();
        assert_eq!(p.regions.len(), 256);
        // All regions are single grid cells.
        let cell_area = g.bounds().area() / 256.0;
        for r in &p.regions {
            assert!((r.area.area() - cell_area).abs() < 1e-6);
        }
    }

    #[test]
    fn l_partitioning_shape_and_conservation() {
        let g = heterogeneous_grid();
        for l in [4usize, 16, 250] {
            let p = l_partitioning(&g, l);
            let side = (l as f64).sqrt().floor() as usize;
            assert_eq!(p.regions.len(), side * side);
            let n: f64 = p.regions.iter().map(|r| r.nodes).sum();
            let m: f64 = p.regions.iter().map(|r| r.queries).sum();
            assert!((n - g.total_nodes()).abs() < 1e-9, "l = {l}");
            assert!((m - g.total_queries()).abs() < 1e-9, "l = {l}");
            let area: f64 = p.regions.iter().map(|r| r.area.area()).sum();
            assert!((area - g.bounds().area()).abs() < 1e-6);
        }
    }

    #[test]
    fn l_partitioning_regions_are_equal_size() {
        let p = l_partitioning(&heterogeneous_grid(), 250);
        let a0 = p.regions[0].area.area();
        for r in &p.regions {
            assert!((r.area.area() - a0).abs() < 1e-9);
        }
    }
}
