//! Property-based tests of the core invariants, driven by proptest over
//! randomized instances. These guard the optimizer and partitioner against
//! the corner cases hand-written tests miss (degenerate regions, extreme
//! budgets, skewed statistics).

use lira::prelude::*;
use proptest::prelude::*;

/// Strategy for a random reduction model: random non-increasing knots
/// (plateaus allowed — calibrated models can have them).
fn reduction_model(kappa: usize) -> impl Strategy<Value = ReductionModel> {
    prop::collection::vec(0.0f64..1.0, kappa).prop_map(move |drops| {
        // Turn arbitrary values into a non-increasing sequence from 1.
        let total: f64 = drops.iter().sum::<f64>().max(1e-9);
        let mut knots = Vec::with_capacity(kappa + 1);
        let mut v = 1.0;
        knots.push(1.0);
        for d in &drops {
            v -= 0.95 * d / total; // keep f(delta_max) > 0
            knots.push(v.max(0.0));
        }
        ReductionModel::from_knots(5.0, 105.0, knots).expect("constructed monotone")
    })
}

/// Strategy for a *convex* decreasing reduction model (non-increasing
/// rate `r`, i.e. diminishing returns) — the actual setting of
/// Theorem 3.1's exchange argument, and the shape of Figure 1's empirical
/// curve. For non-convex `f` (a cheap plateau in front of a steep cliff)
/// *any* greedy — the paper's or ours — can be beaten when the budget
/// exhausts mid-commitment; that variant is a non-convex knapsack (see
/// `greedy_increment.rs` docs).
fn convex_reduction_model(kappa: usize) -> impl Strategy<Value = ReductionModel> {
    prop::collection::vec(0.05f64..1.0, kappa).prop_map(move |mut drops| {
        // Sorting the per-segment drops descending makes r non-increasing.
        drops.sort_by(|a, b| b.partial_cmp(a).expect("finite drops"));
        let total: f64 = drops.iter().sum::<f64>().max(1e-9);
        let mut knots = Vec::with_capacity(kappa + 1);
        let mut v = 1.0;
        knots.push(1.0);
        for d in &drops {
            v -= 0.95 * d / total;
            knots.push(v.max(0.0));
        }
        ReductionModel::from_knots(5.0, 105.0, knots).expect("constructed monotone")
    })
}

/// Strategy for random region statistics.
fn regions(max_len: usize) -> impl Strategy<Value = Vec<RegionInput>> {
    prop::collection::vec(
        (0.0f64..1000.0, 0.0f64..20.0, 0.0f64..30.0)
            .prop_map(|(n, m, s)| RegionInput::new(n, m, s)),
        1..max_len,
    )
}

fn expenditure(rs: &[RegionInput], deltas: &[f64], model: &ReductionModel, speed: bool) -> f64 {
    rs.iter()
        .zip(deltas)
        .map(|(r, d)| {
            let w = if speed { r.nodes * r.speed } else { r.nodes };
            w * model.f(*d)
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn greedy_solution_is_feasible_or_saturated(
        rs in regions(20),
        model in reduction_model(10),
        z in 0.05f64..1.0,
        fairness in 10.0f64..100.0,
        use_speed in any::<bool>(),
    ) {
        let params = GreedyParams { throttle: z, fairness, use_speed };
        let sol = greedy_increment(&rs, &model, &params);

        // Domain constraint (iii): Δ⊢ ≤ Δᵢ ≤ Δ⊣.
        for &d in &sol.deltas {
            prop_assert!(d >= model.delta_min() - 1e-9 && d <= model.delta_max() + 1e-9);
        }

        // Fairness constraint (ii): max spread ≤ Δ⇔.
        let max = sol.deltas.iter().cloned().fold(f64::MIN, f64::max);
        let min = sol.deltas.iter().cloned().fold(f64::MAX, f64::min);
        prop_assert!(max - min <= fairness + 1e-6, "spread {} > {}", max - min, fairness);

        // Budget constraint (i) when met; internal accounting consistent.
        let exp = expenditure(&rs, &sol.deltas, &model, use_speed);
        prop_assert!((exp - sol.expenditure).abs() <= 1e-6 * exp.max(1.0),
            "reported {} vs recomputed {}", sol.expenditure, exp);
        if sol.budget_met {
            prop_assert!(exp <= sol.budget * (1.0 + 1e-6) + 1e-9,
                "expenditure {} > budget {}", exp, sol.budget);
        } else {
            // Saturated: every throttler is at its fairness-capped maximum.
            for &d in &sol.deltas {
                prop_assert!(d >= (min + fairness).min(model.delta_max()) - 1e-6);
            }
        }

        // Objective accounting.
        let inacc: f64 = sol.deltas.iter().zip(&rs).map(|(d, r)| r.queries * d).sum();
        prop_assert!((inacc - sol.inaccuracy).abs() <= 1e-9 * inacc.max(1.0));
    }

    #[test]
    fn greedy_inaccuracy_monotone_in_budget(
        rs in regions(12),
        model in reduction_model(8),
        z in 0.05f64..0.9,
    ) {
        // A larger budget can never force a worse objective.
        let lo = greedy_increment(&rs, &model, &GreedyParams::unconstrained(z, true));
        let hi = greedy_increment(&rs, &model, &GreedyParams::unconstrained((z + 0.1).min(1.0), true));
        prop_assert!(hi.inaccuracy <= lo.inaccuracy + 1e-6,
            "z={z}: inaccuracy {} at larger budget vs {}", hi.inaccuracy, lo.inaccuracy);
    }

    #[test]
    fn greedy_matches_exhaustive_lattice_optimum(
        rs in prop::collection::vec(
            (1.0f64..500.0, 0.0f64..10.0, 1.0f64..30.0)
                .prop_map(|(n, m, s)| RegionInput::new(n, m, s)),
            2..4,
        ),
        model in convex_reduction_model(4),
        z in 0.2f64..0.95,
    ) {
        // Theorem 3.1 on random instances: greedy (fairness disabled) is at
        // least as good as every feasible knot-lattice assignment.
        let params = GreedyParams::unconstrained(z, true);
        let sol = greedy_increment(&rs, &model, &params);
        prop_assume!(sol.budget_met);
        let total_w: f64 = rs.iter().map(|r| r.nodes * r.speed).sum();
        let budget = z * total_w;
        let kappa = model.kappa();
        let mut best = f64::INFINITY;
        // Exhaustive over the (kappa+1)^len lattice (len <= 3, kappa = 4).
        let len = rs.len();
        let mut idx = vec![0usize; len];
        loop {
            let ds: Vec<f64> = idx.iter().map(|&k| model.knot_delta(k)).collect();
            let exp: f64 = rs
                .iter()
                .zip(&ds)
                .map(|(r, d)| r.nodes * r.speed * model.f(*d))
                .sum();
            if exp <= budget * (1.0 + 1e-9) {
                let obj: f64 = rs.iter().zip(&ds).map(|(r, d)| r.queries * d).sum();
                best = best.min(obj);
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == len {
                    break;
                }
                idx[i] += 1;
                if idx[i] <= kappa {
                    break;
                }
                idx[i] = 0;
                i += 1;
            }
            if i == len {
                break;
            }
        }
        prop_assert!(
            sol.inaccuracy <= best + 1e-6,
            "greedy {} worse than exhaustive {best}",
            sol.inaccuracy
        );
    }

    #[test]
    fn reduction_model_invariants(model in reduction_model(12), d in 5.0f64..105.0, y in 0.0f64..1.2) {
        // f in [0, 1], non-increasing, r non-negative.
        let f = model.f(d);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
        prop_assert!(model.r(d) >= -1e-12);
        prop_assert!(model.f(d) >= model.f((d + 1.0).min(model.delta_max())) - 1e-12);
        // Inverse: result always satisfies the budget or saturates at max.
        let inv = model.min_delta_for_budget(y);
        prop_assert!(inv >= model.delta_min() && inv <= model.delta_max());
        if model.f(model.delta_max()) <= y {
            prop_assert!(model.f(inv) <= y + 1e-9, "f({inv}) = {} > {y}", model.f(inv));
        } else {
            prop_assert!((inv - model.delta_max()).abs() < 1e-12);
        }
    }
}

/// Pinned proptest counterexample (formerly persisted in
/// `properties.proptest-regressions`; the vendored generation-only
/// proptest shim never replays that file, so the case lives here as a
/// named test instead).
///
/// Proptest found this instance when `greedy_matches_exhaustive_lattice
/// _optimum` still ran over arbitrary non-increasing models: `f` is a
/// flat plateau (`f = 1` up to Δ = 80) followed by a cliff down to 0.05,
/// which is maximally *non-convex*. Crossing the plateau costs inaccuracy
/// without reducing load, so a naive next-knot greedy stalls on zero
/// gains and was beaten by the exhaustive lattice optimum here. The
/// *max-secant* gain computation fixed this instance — it prices a step
/// by the best secant slope to any later knot, so it sees across the
/// plateau to the cliff, and with continuous (mid-segment) stops it now
/// strictly beats the knot lattice on this workload. Non-convex models
/// in general remain a non-convex knapsack where greedy carries no
/// optimality guarantee (hence the convex restriction on the lattice
/// property above; see also the `greedy_increment.rs` module docs).
///
/// This test pins two things on the counterexample: (a) the solution
/// satisfies every feasibility invariant — optimality may be forfeited
/// on non-convex models, feasibility never is — and (b) the max-secant
/// plateau handling does not regress: greedy must stay at least as good
/// as the exhaustive knot-lattice optimum on this instance.
#[test]
fn nonconvex_cliff_model_regression_stays_feasible_and_beats_lattice() {
    let rs = [
        RegionInput::new(213.46372074371246, 8.064587140221777, 23.861618936213063),
        RegionInput::new(361.64285692232323, 6.618431343035539, 1.0),
        RegionInput::new(266.083799567616, 9.019998749055278, 23.448672982450226),
    ];
    let model = ReductionModel::from_knots(5.0, 105.0, vec![1.0, 1.0, 1.0, 1.0, 0.05]).unwrap();
    let z = 0.2;
    let sol = greedy_increment(&rs, &model, &GreedyParams::unconstrained(z, true));

    // (a) Feasibility invariants hold even on the adversarial model.
    assert!(sol.budget_met);
    for &d in &sol.deltas {
        assert!(d >= model.delta_min() - 1e-9 && d <= model.delta_max() + 1e-9);
    }
    let exp = expenditure(&rs, &sol.deltas, &model, true);
    assert!(
        (exp - sol.expenditure).abs() <= 1e-6 * exp.max(1.0),
        "reported {} vs recomputed {exp}",
        sol.expenditure
    );
    assert!(exp <= sol.budget * (1.0 + 1e-6), "{exp} > {}", sol.budget);

    // (b) The exhaustive knot-lattice optimum: with weights w = n·s of
    // roughly (5094, 362, 6239) and budget 0.2·Σw ≈ 2339, the only
    // feasible lattice shape is "push two regions off the cliff";
    // keeping the light region 1 at Δ⊢ is lattice-optimal
    // (inaccuracy ≈ 1827). Greedy does strictly better (≈ 1768) by
    // stopping region 2 partway down the cliff instead of at the knot.
    let kappa = model.kappa();
    let budget = sol.budget;
    let mut best = f64::INFINITY;
    let mut idx = [0usize; 3];
    loop {
        let ds: [f64; 3] = [
            model.knot_delta(idx[0]),
            model.knot_delta(idx[1]),
            model.knot_delta(idx[2]),
        ];
        let exp: f64 = rs
            .iter()
            .zip(&ds)
            .map(|(r, d)| r.nodes * r.speed * model.f(*d))
            .sum();
        if exp <= budget * (1.0 + 1e-9) {
            let obj: f64 = rs.iter().zip(&ds).map(|(r, d)| r.queries * d).sum();
            best = best.min(obj);
        }
        let mut i = 0;
        loop {
            if i == 3 {
                break;
            }
            idx[i] += 1;
            if idx[i] <= kappa {
                break;
            }
            idx[i] = 0;
            i += 1;
        }
        if i == 3 {
            break;
        }
    }
    assert!(best.is_finite());
    assert!(
        sol.inaccuracy <= best + 1e-6,
        "greedy ({}) trails the lattice optimum ({best}) again on the \
         non-convex counterexample — the max-secant plateau handling \
         regressed",
        sol.inaccuracy
    );
}

/// Random statistics grids for partitioning properties.
fn arbitrary_grid() -> impl Strategy<Value = StatsGrid> {
    (
        prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..30.0), 0..300),
        prop::collection::vec((0.0f64..0.9, 0.0f64..0.9, 0.01f64..0.1), 0..30),
    )
        .prop_map(|(nodes, queries)| {
            let bounds = Rect::from_coords(0.0, 0.0, 4096.0, 4096.0);
            let mut g = StatsGrid::new(32, bounds).unwrap();
            g.begin_snapshot();
            for (x, y, s) in nodes {
                g.observe_node(&Point::new(x * 4096.0, y * 4096.0), s, 1.0);
            }
            for (x, y, w) in queries {
                let side = w * 4096.0;
                g.observe_query(&Rect::from_coords(
                    x * 4096.0,
                    y * 4096.0,
                    x * 4096.0 + side,
                    y * 4096.0 + side,
                ));
            }
            g.commit_snapshot();
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn grid_reduce_partitioning_invariants(
        grid in arbitrary_grid(),
        steps in 0usize..30,
        z in 0.1f64..1.0,
    ) {
        let l = 1 + 3 * steps; // l mod 3 = 1 by construction
        let model = ReductionModel::analytic(5.0, 100.0, 19);
        let params = GridReduceParams::new(l, z, 50.0, true);
        let p = grid_reduce(&grid, &model, &params).unwrap();

        // Exactly l regions (the hierarchy always has enough leaves here).
        prop_assert_eq!(p.regions.len(), l);

        // Tiling: areas sum to the space, pairwise disjoint.
        let total: f64 = p.regions.iter().map(|r| r.area.area()).sum();
        prop_assert!((total - grid.bounds().area()).abs() < 1e-3);
        for i in 0..p.regions.len() {
            for j in (i + 1)..p.regions.len() {
                prop_assert!(!p.regions[i].area.intersects(&p.regions[j].area));
            }
        }

        // Statistics conservation.
        let n: f64 = p.regions.iter().map(|r| r.nodes).sum();
        let m: f64 = p.regions.iter().map(|r| r.queries).sum();
        prop_assert!((n - grid.total_nodes()).abs() < 1e-6);
        prop_assert!((m - grid.total_queries()).abs() < 1e-6);
    }

    #[test]
    fn plan_lookup_matches_linear_scan(
        grid in arbitrary_grid(),
        steps in 0usize..20,
        probe in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 20),
    ) {
        let l = 1 + 3 * steps;
        let model = ReductionModel::analytic(5.0, 100.0, 19);
        let params = GridReduceParams::new(l, 0.5, 50.0, true);
        let partitioning = grid_reduce(&grid, &model, &params).unwrap();
        let solution = greedy_increment(
            &partitioning.inputs(),
            &model,
            &GreedyParams { throttle: 0.5, fairness: 50.0, use_speed: true },
        );
        let plan = SheddingPlan::from_solution(*grid.bounds(), &partitioning, &solution, 5.0).unwrap();
        for (x, y) in probe {
            let p = Point::new(x * 4096.0, y * 4096.0);
            let scan = plan
                .regions()
                .iter()
                .find(|r| r.area.contains(&p))
                .map(|r| r.throttler)
                .unwrap_or(5.0);
            prop_assert_eq!(plan.throttler_at(&p), scan, "at {}", p);
        }
    }

    #[test]
    fn wire_round_trip_is_lossless_to_f32(
        grid in arbitrary_grid(),
        steps in 0usize..15,
    ) {
        let l = 1 + 3 * steps;
        let model = ReductionModel::analytic(5.0, 100.0, 19);
        let params = GridReduceParams::new(l, 0.4, 50.0, false);
        let partitioning = grid_reduce(&grid, &model, &params).unwrap();
        let solution = greedy_increment(
            &partitioning.inputs(),
            &model,
            &GreedyParams::unconstrained(0.4, false),
        );
        let plan = SheddingPlan::from_solution(*grid.bounds(), &partitioning, &solution, 5.0).unwrap();
        let decoded = SheddingPlan::decode(*plan.bounds(), &plan.encode(), 5.0).unwrap();
        prop_assert_eq!(plan.len(), decoded.len());
        for (a, b) in plan.regions().iter().zip(decoded.regions()) {
            prop_assert!((a.throttler - b.throttler).abs() < 1e-4);
            prop_assert!((a.area.min.x - b.area.min.x).abs() < 0.5);
            prop_assert!((a.area.width() - b.area.width()).abs() < 0.5);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The `SheddingPolicy` contract, checked uniformly for all six
    /// implementations: every plan stays inside the throttler domain
    /// `[Δ⊢, Δ⊣]`, and the *expected* post-shedding update rate — the
    /// speed-weighted `Σ_c s_c·f(Δ(center_c))` over the statistics-grid
    /// cells, scaled by the server-side admission probability — meets the
    /// budget `z`. Cells are the granularity at which every partitioner
    /// attributes nodes to regions, so this recomputation is exact.
    #[test]
    fn every_policy_respects_domain_and_budget(
        nodes in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.5f64..30.0), 50..250),
        queries in prop::collection::vec((0.0f64..0.9, 0.0f64..0.9, 0.01f64..0.1), 1..20),
        z in 0.3f64..0.95,
    ) {
        let bounds = Rect::from_coords(0.0, 0.0, 4096.0, 4096.0);
        let mut config = LiraConfig::default();
        config.bounds = bounds;
        config = config.with_regions(25);
        let model = ReductionModel::analytic(config.delta_min, config.delta_max, config.kappa());
        let mut grid = StatsGrid::new(config.alpha, bounds).unwrap();
        grid.begin_snapshot();
        for &(x, y, s) in &nodes {
            grid.observe_node(&Point::new(x * 4096.0, y * 4096.0), s, 1.0);
        }
        for &(x, y, w) in &queries {
            let side = w * 4096.0;
            grid.observe_query(&Rect::from_coords(
                x * 4096.0,
                y * 4096.0,
                x * 4096.0 + side,
                y * 4096.0 + side,
            ));
        }
        grid.commit_snapshot();

        let policies: Vec<Box<dyn SheddingPolicy>> = vec![
            Box::new(LiraPolicy::new(config.clone(), 1000).unwrap().with_model(model.clone())),
            Box::new(LiraGridPolicy::new(config.clone(), model.clone())),
            Box::new(UniformDeltaPolicy::new(bounds, model.clone())),
            Box::new(RandomDropPolicy::new(bounds, config.delta_min)),
            Box::new(UtilityGreedy::new(config.clone(), model.clone())),
            Box::new(UtilityModel::new(config.clone(), model.clone())),
        ];
        for mut policy in policies {
            let plan = policy.adapt(&grid, z).unwrap();
            for r in plan.regions() {
                prop_assert!(
                    r.throttler >= config.delta_min - 1e-9
                        && r.throttler <= config.delta_max + 1e-9,
                    "{}: throttler {} outside [{}, {}]",
                    policy.name(), r.throttler, config.delta_min, config.delta_max
                );
            }
            let admission = policy.admission(z);
            prop_assert!((0.0..=1.0).contains(&admission));
            let mut total = 0.0;
            let mut expected = 0.0;
            for r in 0..config.alpha {
                for c in 0..config.alpha {
                    let cell = grid.cell(r, c);
                    if cell.nodes <= 0.0 {
                        continue;
                    }
                    let center = grid.cell_rect(r, c).center();
                    total += cell.speed_sum;
                    expected += cell.speed_sum * model.f(plan.throttler_at(&center));
                }
            }
            expected *= admission;
            prop_assert!(
                expected <= z * total * (1.0 + 1e-6) + 1e-6,
                "{}: expected update rate {} exceeds budget {}",
                policy.name(), expected, z * total
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn history_reconstruction_matches_last_model(
        reports in prop::collection::vec(
            (0.0f64..500.0, 0.0f64..1000.0, 0.0f64..1000.0, -10.0f64..10.0, -10.0f64..10.0),
            1..40,
        ),
        query_t in 0.0f64..600.0,
    ) {
        let mut reports = reports;
        reports.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        let mut history = HistoryStore::new(1);
        for &(t, x, y, vx, vy) in &reports {
            history.record(0, t, Point::new(x, y), (vx, vy));
        }
        // Brute-force reference: the last report at or before query_t.
        let expected = reports
            .iter()
            .rfind(|r| r.0 <= query_t)
            .map(|&(t, x, y, vx, vy)| {
                Point::new(x + vx * (query_t - t), y + vy * (query_t - t))
            });
        let got = history.position_at(0, query_t);
        match (got, expected) {
            (Some(a), Some(b)) => {
                prop_assert!(a.distance(&b) < 1e-9, "{a} vs {b}");
            }
            (None, None) => {}
            other => prop_assert!(false, "mismatch: {:?}", other),
        }
    }

    #[test]
    fn mobile_shedder_agrees_with_plan_everywhere(
        grid in arbitrary_grid(),
        steps in 0usize..12,
        probes in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 15),
    ) {
        let l = 1 + 3 * steps;
        let model = ReductionModel::analytic(5.0, 100.0, 19);
        let params = GridReduceParams::new(l, 0.5, 50.0, true);
        let partitioning = grid_reduce(&grid, &model, &params).unwrap();
        let solution = greedy_increment(
            &partitioning.inputs(),
            &model,
            &GreedyParams { throttle: 0.5, fairness: 50.0, use_speed: true },
        );
        let plan =
            SheddingPlan::from_solution(*grid.bounds(), &partitioning, &solution, 5.0).unwrap();
        // Install the *whole* plan on a node (a station covering everything).
        let mobile = MobileShedder::install(0, plan.regions().to_vec(), 5.0);
        for (x, y) in probes {
            let p = Point::new(x * 4095.0, y * 4095.0);
            prop_assert_eq!(mobile.throttler_at(&p), plan.throttler_at(&p), "at {}", p);
        }
    }
}
