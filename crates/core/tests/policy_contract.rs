//! Property-based contract battery for every [`SheddingPolicy`].
//!
//! Each policy in the roster — LIRA, Lira-Grid, Uniform Delta, Random
//! Drop, Utility Greedy, Utility Model — is built through one registry
//! and held to the same bar over randomized worlds:
//!
//! 1. **Budget**: the effective processed fraction
//!    `admission(z) · Σ wᵢ·f(Δᵢ) / Σ wᵢ` never exceeds
//!    `max(z, f(Δ⊣))` — a policy may be *unable* to shed down to an
//!    unattainable `z` (the thresholds cap at `Δ⊣`), but it must never
//!    overspend an attainable one.
//! 2. **Throttler caps**: every plan threshold is finite and within
//!    `[Δ⊢, Δ⊣]`; the admission fraction is within `[0, 1]`.
//! 3. **Degenerate worlds**: an empty grid (no nodes, no queries) and a
//!    single-region configuration (`l = 1`) must not panic.
//! 4. **Zero shedding budget**: at `z = 1` every policy returns the
//!    identity plan — all thresholds at `Δ⊢`, admission 1 — because no
//!    shedding is required.
//! 5. **Purity**: plan output is a pure function of (stats, budget,
//!    construction seed) — two freshly built policies fed the same
//!    snapshot produce bit-identical plans.
//!
//! The worlds are generated with the vendored `proptest` shim
//! (deterministic per-case seeds, no shrinking), with fairness disabled
//! so the budget contract is exact for LIRA (a binding `Δ⇔` lawfully
//! trades budget for fairness; that interaction is covered by the unit
//! tests in `greedy_increment`).

use lira_core::prelude::*;
use proptest::prelude::*;

/// Number of randomized worlds per property (the battery runs six
/// policies against each, so keep the multiplier in check).
const CASES: u32 = 48;

/// One generated mobile-CQ world: node placements, speeds, and query
/// rectangles over a square space.
#[derive(Debug, Clone)]
struct World {
    side: f64,
    nodes: Vec<(f64, f64, f64)>,
    queries: Vec<(f64, f64, f64, f64)>,
}

fn world_strategy() -> impl Strategy<Value = World> {
    let side = 8_000.0f64;
    (
        prop::collection::vec((0.0..side, 0.0..side, 0.0..40.0f64), 0..=120),
        prop::collection::vec(
            (0.0..side, 0.0..side, 50.0..1_500.0f64, 50.0..1_500.0f64),
            0..=16,
        ),
    )
        .prop_map(move |(nodes, queries)| World {
            side,
            nodes,
            queries,
        })
}

fn config_for(world: &World, l: usize, alpha: usize) -> LiraConfig {
    let mut cfg = LiraConfig::default();
    cfg.bounds = Rect::from_coords(0.0, 0.0, world.side, world.side);
    cfg.num_regions = l;
    cfg.alpha = alpha;
    cfg.delta_min = 5.0;
    cfg.delta_max = 100.0;
    cfg.increment = 1.0;
    // Disable Δ⇔ so the budget contract is exact (see module docs).
    cfg.fairness = cfg.delta_max - cfg.delta_min;
    cfg.validate().expect("generated config is valid");
    cfg
}

fn grid_for(world: &World, cfg: &LiraConfig) -> StatsGrid {
    let mut g = StatsGrid::new(cfg.alpha, cfg.bounds).expect("valid grid");
    g.begin_snapshot();
    for &(x, y, speed) in &world.nodes {
        g.observe_node(&Point::new(x, y), speed, 1.0);
    }
    for &(x, y, w, h) in &world.queries {
        let r = Rect::from_coords(x, y, (x + w).min(world.side), (y + h).min(world.side));
        g.observe_query(&r);
    }
    g.commit_snapshot();
    g
}

/// Builds one fresh instance of every policy in the roster.
fn registry(cfg: &LiraConfig, model: &ReductionModel) -> Vec<Box<dyn SheddingPolicy>> {
    vec![
        Box::new(LiraPolicy::from_shedder(
            LiraShedder::new(cfg.clone())
                .expect("validated config")
                .with_model(model.clone()),
        )),
        Box::new(LiraGridPolicy::new(cfg.clone(), model.clone())),
        Box::new(UniformDeltaPolicy::new(cfg.bounds, model.clone())),
        Box::new(RandomDropPolicy::new(cfg.bounds, model.delta_min())),
        Box::new(UtilityGreedy::new(cfg.clone(), model.clone())),
        Box::new(UtilityModel::new(cfg.clone(), model.clone())),
    ]
}

fn model_for(cfg: &LiraConfig) -> ReductionModel {
    ReductionModel::analytic(cfg.delta_min, cfg.delta_max, cfg.kappa())
}

/// The effective processed fraction of a plan over a committed grid:
/// `admission · Σ wᵢ·f(Δᵢ) / Σ wᵢ`, evaluated per statistics cell (plan
/// regions are unions of grid cells, so cell centers resolve exactly).
fn processed_fraction(
    grid: &StatsGrid,
    cfg: &LiraConfig,
    model: &ReductionModel,
    plan: &SheddingPlan,
    admission: f64,
) -> Option<f64> {
    let alpha = grid.alpha();
    let bounds = grid.bounds();
    let (cw, ch) = (
        bounds.width() / alpha as f64,
        bounds.height() / alpha as f64,
    );
    let mut spent = 0.0;
    let mut total = 0.0;
    for (idx, cell) in grid.cells().iter().enumerate() {
        let w = if cfg.use_speed_factor {
            cell.nodes * cell.mean_speed().max(0.0)
        } else {
            cell.nodes
        };
        if w <= 0.0 {
            continue;
        }
        let center = Point::new(
            bounds.min.x + ((idx % alpha) as f64 + 0.5) * cw,
            bounds.min.y + ((idx / alpha) as f64 + 0.5) * ch,
        );
        spent += w * model.f(plan.throttler_at(&center));
        total += w;
    }
    (total > 0.0).then(|| admission * spent / total)
}

/// The valid `(l, alpha)` lattice: `l mod 3 = 1`, `alpha` a power of
/// two, `alpha² ≥ l`.
const SHAPES: [(usize, usize); 4] = [(4, 4), (7, 8), (10, 8), (16, 16)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn plans_respect_budget_and_caps(
        world in world_strategy(),
        shape in 0usize..SHAPES.len(),
        z in 0.05..=1.0f64,
    ) {
        let (l, alpha) = SHAPES[shape];
        let cfg = config_for(&world, l, alpha);
        let model = model_for(&cfg);
        let grid = grid_for(&world, &cfg);
        let ceiling = z.max(model.f(model.delta_max())) + 1e-6;
        for policy in registry(&cfg, &model).iter_mut() {
            let plan = policy.adapt(&grid, z).expect("adapt succeeds");
            let admission = policy.admission(z);
            prop_assert!(
                (0.0..=1.0).contains(&admission),
                "{}: admission {admission} out of [0,1]",
                policy.name()
            );
            prop_assert!(!plan.regions().is_empty(), "{}: empty plan", policy.name());
            for r in plan.regions() {
                prop_assert!(
                    r.throttler.is_finite()
                        && (cfg.delta_min..=cfg.delta_max).contains(&r.throttler),
                    "{}: throttler {} outside [{}, {}]",
                    policy.name(),
                    r.throttler,
                    cfg.delta_min,
                    cfg.delta_max
                );
            }
            if let Some(frac) = processed_fraction(&grid, &cfg, &model, &plan, admission) {
                prop_assert!(
                    frac <= ceiling,
                    "{}: processed fraction {frac:.6} exceeds ceiling {ceiling:.6} at z={z:.3}",
                    policy.name()
                );
            }
            if let Some(scores) = policy.utility_scores() {
                prop_assert!(
                    scores.iter().all(|s| s.is_finite() && *s >= 0.0),
                    "{}: non-finite or negative utility score",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn plans_are_pure_functions_of_inputs(
        world in world_strategy(),
        shape in 0usize..SHAPES.len(),
        z in 0.05..=1.0f64,
    ) {
        let (l, alpha) = SHAPES[shape];
        let cfg = config_for(&world, l, alpha);
        let model = model_for(&cfg);
        let grid = grid_for(&world, &cfg);
        let mut first = registry(&cfg, &model);
        let mut second = registry(&cfg, &model);
        for (a, b) in first.iter_mut().zip(second.iter_mut()) {
            let pa = a.adapt(&grid, z).expect("adapt succeeds");
            let pb = b.adapt(&grid, z).expect("adapt succeeds");
            prop_assert_eq!(pa.regions(), pb.regions(), "{} diverged", a.name());
            prop_assert_eq!(a.admission(z), b.admission(z), "{} admission", a.name());
        }
    }

    /// `LiraPolicy::new`'s queue capacity is ignored: the frozen
    /// benchmark replica builds LIRA as `LiraPolicy::new(config, B)` and
    /// `lira-serve` through the roster, and both must run one policy —
    /// at any `B`, including the 0 and 1 no THROTLOOP queue accepts.
    #[test]
    fn lira_policy_plans_the_same_at_every_queue_capacity(
        world in world_strategy(),
        shape in 0usize..SHAPES.len(),
        z in 0.05..=1.0f64,
    ) {
        let (l, alpha) = SHAPES[shape];
        let cfg = config_for(&world, l, alpha);
        let grid = grid_for(&world, &cfg);
        let bits = |plan: SheddingPlan| -> Vec<[u64; 5]> {
            plan.regions()
                .iter()
                .map(|r| {
                    let a = r.area;
                    [a.min.x, a.min.y, a.max.x, a.max.y, r.throttler].map(f64::to_bits)
                })
                .collect()
        };
        let mut roster = Policy::Lira.build(&cfg, &model_for(&cfg));
        let expected = bits(roster.adapt(&grid, z).expect("adapt succeeds"));
        for capacity in [0, 1, 2, 1_000] {
            let mut lira = LiraPolicy::new(cfg.clone(), capacity).expect("a valid config");
            prop_assert_eq!(lira.name(), roster.name());
            let plan = bits(lira.adapt(&grid, z).expect("adapt succeeds"));
            prop_assert_eq!(&plan, &expected, "queue capacity {}", capacity);
            prop_assert_eq!(lira.admission(z), roster.admission(z));
        }
    }
}

#[test]
fn full_budget_yields_the_identity_plan() {
    let world = World {
        side: 8_000.0,
        nodes: (0..60)
            .map(|i| {
                (
                    (i % 10) as f64 * 800.0 + 400.0,
                    (i / 10) as f64 * 1_300.0 + 200.0,
                    15.0,
                )
            })
            .collect(),
        queries: vec![
            (1_000.0, 1_000.0, 900.0, 900.0),
            (5_000.0, 5_000.0, 700.0, 400.0),
        ],
    };
    let cfg = config_for(&world, 7, 8);
    let model = model_for(&cfg);
    let grid = grid_for(&world, &cfg);
    for policy in registry(&cfg, &model).iter_mut() {
        let plan = policy.adapt(&grid, 1.0).expect("adapt succeeds");
        for r in plan.regions() {
            assert_eq!(
                r.throttler,
                cfg.delta_min,
                "{}: z = 1 must keep ideal resolution",
                policy.name()
            );
        }
        assert_eq!(
            policy.admission(1.0),
            1.0,
            "{}: z = 1 admits all",
            policy.name()
        );
    }
}

#[test]
fn unattainable_budget_caps_the_processed_fraction() {
    let world = World {
        side: 8_000.0,
        nodes: (0..80)
            .map(|i| {
                (
                    (i % 8) as f64 * 1_000.0 + 500.0,
                    (i / 8) as f64 * 790.0 + 100.0,
                    20.0,
                )
            })
            .collect(),
        queries: vec![(2_000.0, 2_000.0, 1_200.0, 1_200.0)],
    };
    let cfg = config_for(&world, 7, 8);
    let model = model_for(&cfg);
    let grid = grid_for(&world, &cfg);
    let f_floor = model.f(model.delta_max());
    // A throttle below f(Δ⊣) is unattainable through thresholds alone.
    let z = 0.5 * f_floor;
    for policy in registry(&cfg, &model).iter_mut() {
        let plan = policy.adapt(&grid, z).expect("adapt succeeds");
        let frac = processed_fraction(&grid, &cfg, &model, &plan, policy.admission(z))
            .expect("loaded world");
        assert!(
            frac <= f_floor + 1e-6,
            "{}: processed fraction {frac:.6} above the attainable floor {f_floor:.6}",
            policy.name()
        );
    }
}

#[test]
fn empty_grid_does_not_panic() {
    let world = World {
        side: 8_000.0,
        nodes: Vec::new(),
        queries: Vec::new(),
    };
    for &(l, alpha) in &SHAPES {
        let cfg = config_for(&world, l, alpha);
        let model = model_for(&cfg);
        let grid = grid_for(&world, &cfg);
        for policy in registry(&cfg, &model).iter_mut() {
            for z in [0.01, 0.4, 1.0] {
                let plan = policy
                    .adapt(&grid, z)
                    .expect("adapt succeeds on empty grid");
                for r in plan.regions() {
                    assert!(
                        r.throttler.is_finite()
                            && (cfg.delta_min..=cfg.delta_max).contains(&r.throttler),
                        "{}: empty-grid throttler {} out of range",
                        policy.name(),
                        r.throttler
                    );
                }
            }
        }
    }
}

#[test]
fn single_region_world_does_not_panic() {
    let world = World {
        side: 8_000.0,
        nodes: vec![(4_000.0, 4_000.0, 12.0)],
        queries: vec![(3_500.0, 3_500.0, 1_000.0, 1_000.0)],
    };
    // l = 1 (1 mod 3 = 1) with the smallest grid: one region, one node.
    let cfg = config_for(&world, 1, 4);
    let model = model_for(&cfg);
    let grid = grid_for(&world, &cfg);
    for policy in registry(&cfg, &model).iter_mut() {
        for z in [0.02, 0.5, 1.0] {
            let plan = policy.adapt(&grid, z).expect("adapt succeeds with l = 1");
            assert!(!plan.regions().is_empty(), "{}: empty plan", policy.name());
            let frac = processed_fraction(&grid, &cfg, &model, &plan, policy.admission(z))
                .expect("one loaded cell");
            assert!(
                frac <= z.max(model.f(model.delta_max())) + 1e-6,
                "{}: one-node world overspends: {frac:.6} at z={z}",
                policy.name()
            );
        }
    }
}

#[test]
fn baseline_policies_handle_degenerate_budgets_exactly() {
    // The two region-unaware baselines have no stats-dependent state, so
    // their edge behavior can be pinned exactly: a budget larger than the
    // total load (z > 1) clamps to the identity plan, z = 0 pins Random
    // Drop's admission to zero and Uniform Delta's threshold to Δ⊣, and
    // both an all-regions-empty grid and a one-node world produce the
    // same single uniform region as any loaded world.
    let empty = World {
        side: 8_000.0,
        nodes: Vec::new(),
        queries: Vec::new(),
    };
    let one_node = World {
        side: 8_000.0,
        nodes: vec![(4_000.0, 4_000.0, 10.0)],
        queries: Vec::new(),
    };
    let cfg = config_for(&empty, 7, 8);
    let model = model_for(&cfg);
    for world in [&empty, &one_node] {
        let grid = grid_for(world, &cfg);
        let mut drop = RandomDropPolicy::new(cfg.bounds, model.delta_min());
        let mut uniform = UniformDeltaPolicy::new(cfg.bounds, model.clone());

        // Budget larger than the total load: the identity plan, exactly.
        for z in [1.0, 1.7, 42.0] {
            let dp = drop.adapt(&grid, z).expect("random drop adapts");
            let up = uniform.adapt(&grid, z).expect("uniform delta adapts");
            for plan in [&dp, &up] {
                assert_eq!(plan.len(), 1, "single uniform region");
                assert_eq!(plan.regions()[0].throttler, cfg.delta_min);
            }
            assert_eq!(drop.admission(z), 1.0, "admission clamps to 1 at z={z}");
            assert_eq!(uniform.admission(z), 1.0);
        }

        // Starved budget: Random Drop admits nothing (but still plans
        // ideal resolution); Uniform Delta pins the coarsest threshold.
        let dp = drop.adapt(&grid, 0.0).expect("random drop adapts");
        assert_eq!(dp.regions()[0].throttler, cfg.delta_min);
        assert_eq!(drop.admission(0.0), 0.0);
        let up = uniform.adapt(&grid, 0.0).expect("uniform delta adapts");
        assert_eq!(up.regions()[0].throttler, cfg.delta_max);
    }
}

#[test]
fn registry_names_are_distinct() {
    let world = World {
        side: 8_000.0,
        nodes: Vec::new(),
        queries: Vec::new(),
    };
    let cfg = config_for(&world, 7, 8);
    let model = model_for(&cfg);
    let names: Vec<&str> = registry(&cfg, &model).iter().map(|p| p.name()).collect();
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(names.len(), 6, "the roster covers all six policies");
    assert_eq!(unique.len(), names.len(), "policy names collide: {names:?}");
}
