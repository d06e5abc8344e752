//! Ablations of the design choices called out in DESIGN.md §7:
//!
//! * **A — speed factor** (Section 3.1.2): budget adherence and accuracy
//!   with and without speed-weighted budgets.
//! * **B — reduction model**: analytic `f(Δ)` vs one calibrated from the
//!   workload's own trace; the calibrated model should track the target
//!   throttle fraction much more tightly.
//! * **C — partitioner internals**: the paper's literal one-level
//!   CALCERRGAIN vs the lookahead priority vs the global-price context
//!   gain, scored by the optimizer objective `Σ mᵢ·Δᵢ`.
//! * **D — distributed-CQ mimicry** (Section 5): a very large `Δ⊣` makes
//!   LIRA deliver updates almost only where queries are, mimicking
//!   query-aware distributed CQ systems.

use lira_bench::{print_header, run_averaged, snapshot_grid, ExpArgs};
use lira_core::prelude::*;
use lira_sim::prelude::*;
use lira_workload::prelude::*;

fn main() {
    let args = ExpArgs::parse();
    let base = args.base_scenario();
    print_header(
        "ablation",
        "design-choice ablations (DESIGN.md §7)",
        &args,
        &base,
    );

    ablation_speed_factor(&args, &base);
    ablation_model_calibration(&args, &base);
    ablation_partitioner(&args, &base);
    ablation_distributed_mimicry(&args, &base);
    ablation_sampled_statistics(&args, &base);
}

/// E — statistics-grid maintenance modes (Section 3.2.1): the paper notes
/// the grid "can easily be approximated using sampling". Build the grid
/// from a p-fraction node sample (weighted 1/p), plan from it, then score
/// the plan's objective against the *exact* statistics.
fn ablation_sampled_statistics(args: &ExpArgs, base: &Scenario) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    println!("--- E: sampled statistics maintenance (Section 3.2.1) ---");
    println!("sample rate | objective (exact stats) | exact expenditure / budget");
    let mut exact_obj = 0.0;
    let mut rows = Vec::new();
    let mut total_budget_ratio = 0.0;
    for &rate in &[1.0f64, 0.25, 0.05] {
        let mut total = 0.0;
        for &seed in &args.seeds {
            let mut sc = base.clone();
            sc.seed = seed;
            let (exact_grid, model) = scenario_grid(&sc);
            // Rebuild a sampled grid from the same snapshot by thinning the
            // exact grid cell-by-cell with binomial noise at the target
            // rate, then reweighting — equivalent in expectation to
            // observing a p-sample of the nodes.
            let sampled = if rate >= 1.0 {
                exact_grid.clone()
            } else {
                let mut rng = SmallRng::seed_from_u64(seed ^ 0xabcd);
                let mut g = StatsGrid::new(exact_grid.alpha(), *exact_grid.bounds()).unwrap();
                g.begin_snapshot();
                for row in 0..exact_grid.alpha() {
                    for col in 0..exact_grid.alpha() {
                        let cell = exact_grid.cell(row, col);
                        let center = exact_grid.cell_rect(row, col).center();
                        let n = cell.nodes.round() as usize;
                        let mut kept = 0usize;
                        for _ in 0..n {
                            if rng.gen_bool(rate) {
                                kept += 1;
                            }
                        }
                        for _ in 0..kept {
                            g.observe_node(&center, cell.mean_speed(), 1.0 / rate);
                        }
                    }
                }
                g.commit_snapshot();
                // Copy the exact query statistics (the server knows its own
                // registered queries; only node statistics are sampled).
                let cells: Vec<CellStats> = (0..exact_grid.alpha() * exact_grid.alpha())
                    .map(|i| {
                        let (r, c) = (i / exact_grid.alpha(), i % exact_grid.alpha());
                        CellStats {
                            nodes: g.cell(r, c).nodes,
                            queries: exact_grid.cell(r, c).queries,
                            speed_sum: g.cell(r, c).speed_sum,
                        }
                    })
                    .collect();
                let mut merged = StatsGrid::new(exact_grid.alpha(), *exact_grid.bounds()).unwrap();
                merged.load_cells(&cells).unwrap();
                merged
            };
            // Plan from the (possibly sampled) grid...
            let params = GridReduceParams::new(
                sc.num_regions,
                sc.throttle,
                sc.fairness,
                sc.use_speed_factor,
            );
            let partitioning = grid_reduce(&sampled, &model, &params).unwrap();
            let solution = greedy_increment(&partitioning.inputs(), &model, &greedy_params(&sc));
            // ...then score its throttlers with the EXACT statistics: map
            // exact cells onto the sampled plan's regions.
            let mut exact_inputs =
                vec![RegionInput::new(0.0, 0.0, 0.0); partitioning.regions.len()];
            let mut speed_sums = vec![0.0f64; partitioning.regions.len()];
            for row in 0..exact_grid.alpha() {
                for col in 0..exact_grid.alpha() {
                    let cell = exact_grid.cell(row, col);
                    let center = exact_grid.cell_rect(row, col).center();
                    if let Some(idx) = partitioning
                        .regions
                        .iter()
                        .position(|r| r.area.contains(&center))
                    {
                        exact_inputs[idx].nodes += cell.nodes;
                        exact_inputs[idx].queries += cell.queries;
                        speed_sums[idx] += cell.speed_sum;
                    }
                }
            }
            for (input, speed_sum) in exact_inputs.iter_mut().zip(&speed_sums) {
                input.speed = if input.nodes > 0.0 {
                    speed_sum / input.nodes
                } else {
                    0.0
                };
            }
            let objective: f64 = exact_inputs
                .iter()
                .zip(&solution.deltas)
                .map(|(r, d)| r.queries * d)
                .sum();
            // Budget check under EXACT statistics: a plan built from noisy
            // stats may overshoot the real budget even if its objective
            // looks good.
            let weight = |r: &RegionInput| {
                if sc.use_speed_factor {
                    r.nodes * r.speed
                } else {
                    r.nodes
                }
            };
            let expenditure: f64 = exact_inputs
                .iter()
                .zip(&solution.deltas)
                .map(|(r, d)| weight(r) * model.f(*d))
                .sum();
            let budget: f64 = sc.throttle * exact_inputs.iter().map(weight).sum::<f64>();
            total += objective;
            total_budget_ratio += expenditure / budget.max(1e-12);
        }
        let k = args.seeds.len() as f64;
        let avg = total / k;
        if rate >= 1.0 {
            exact_obj = avg;
        }
        rows.push((rate, avg, total_budget_ratio / k));
        total_budget_ratio = 0.0;
    }
    for (rate, avg, budget_ratio) in rows {
        println!(
            "{:>11} | {:>14.1} ({:>5}) | {:>26.3}",
            format!("{:.0}%", rate * 100.0),
            avg,
            if exact_obj > 0.0 {
                format!("{:.2}x", avg / exact_obj)
            } else {
                "-".into()
            },
            budget_ratio,
        );
    }
    println!("(the paper's claim: sampling keeps maintenance cheap with little planning loss)");
}

fn ablation_speed_factor(args: &ExpArgs, base: &Scenario) {
    println!("--- A: speed factor (Section 3.1.2) ---");
    println!("variant     | E^P_rr (m) | E^C_rr  | processed/budget");
    for (label, on) in [("with s_i", true), ("without", false)] {
        let out = run_averaged(&args.seeds, &[Policy::Lira], |seed| {
            let mut sc = base.clone();
            sc.seed = seed;
            sc.use_speed_factor = on;
            sc
        });
        let o = &out[0].1;
        println!(
            "{label:<11} | {:>10.3} | {:>7.4} | {:.3} (target z = {})",
            o.mean_position, o.mean_containment, o.processed_fraction, base.throttle
        );
    }
    println!();
}

fn ablation_model_calibration(args: &ExpArgs, base: &Scenario) {
    println!("--- B: analytic vs calibrated f(Δ) ---");
    println!("model      | E^P_rr (m) | E^C_rr  | processed/budget | |frac − z|");
    for (label, calibrate) in [("analytic", false), ("calibrated", true)] {
        let out = run_averaged(&args.seeds, &[Policy::Lira], |seed| {
            let mut sc = base.clone();
            sc.seed = seed;
            sc.calibrate_model = calibrate;
            sc
        });
        let o = &out[0].1;
        println!(
            "{label:<10} | {:>10.3} | {:>7.4} | {:>16.3} | {:>9.3}",
            o.mean_position,
            o.mean_containment,
            o.processed_fraction,
            (o.processed_fraction - base.throttle).abs()
        );
    }
    println!("(the calibrated model should track the z target more tightly)\n");
}

fn ablation_partitioner(args: &ExpArgs, base: &Scenario) {
    println!("--- C: partitioner gain variants (optimizer objective Σ mᵢ·Δᵢ, lower = better) ---");
    println!("gain variant                  | Proportional | Inverse");
    let variants: [(&str, bool, bool); 3] = [
        ("paper one-level CALCERRGAIN  ", false, false),
        ("+ lookahead priorities       ", true, false),
        ("+ global-price context gains ", true, true),
    ];
    for (label, lookahead, context) in variants {
        print!("{label}|");
        for dist in [QueryDistribution::Proportional, QueryDistribution::Inverse] {
            let mut total = 0.0;
            for &seed in &args.seeds {
                let mut sc = base.clone();
                sc.seed = seed;
                sc.query_distribution = dist;
                total += partition_objective(&sc, lookahead, context);
            }
            print!(" {:>12.1} |", total / args.seeds.len() as f64);
        }
        println!();
    }
    println!("(equal-grid l-partitioning baseline for the same stats:");
    let mut row = Vec::new();
    for dist in [QueryDistribution::Proportional, QueryDistribution::Inverse] {
        let mut total = 0.0;
        for &seed in &args.seeds {
            let mut sc = base.clone();
            sc.seed = seed;
            sc.query_distribution = dist;
            total += grid_objective(&sc);
        }
        row.push(total / args.seeds.len() as f64);
    }
    println!(
        "  Lira-Grid                    | {:>12.1} | {:>7.1})\n",
        row[0], row[1]
    );
}

/// Builds the scenario's statistics grid over the runner's warmed-up world.
fn scenario_grid(sc: &Scenario) -> (StatsGrid, ReductionModel) {
    let setup = SimSetup::build(sc, false);
    let grid = snapshot_grid(sc.alpha, setup.bounds, &setup.sim, &setup.queries);
    (grid, setup.model)
}

fn greedy_params(sc: &Scenario) -> GreedyParams {
    GreedyParams {
        throttle: sc.throttle,
        fairness: sc.fairness,
        use_speed: sc.use_speed_factor,
    }
}

fn partition_objective(sc: &Scenario, lookahead: bool, context: bool) -> f64 {
    let (grid, model) = scenario_grid(sc);
    let mut params = GridReduceParams::new(
        sc.num_regions,
        sc.throttle,
        sc.fairness,
        sc.use_speed_factor,
    );
    params.lookahead = lookahead;
    params.context_gain = context;
    let partitioning = grid_reduce(&grid, &model, &params).unwrap();
    greedy_increment(&partitioning.inputs(), &model, &greedy_params(sc)).inaccuracy
}

fn grid_objective(sc: &Scenario) -> f64 {
    let (grid, model) = scenario_grid(sc);
    let partitioning = l_partitioning(&grid, sc.num_regions);
    greedy_increment(&partitioning.inputs(), &model, &greedy_params(sc)).inaccuracy
}

fn ablation_distributed_mimicry(args: &ExpArgs, base: &Scenario) {
    println!("--- D: distributed-CQ mimicry (Section 5: very large Δ⊣) ---");
    println!("Δ⊣ (m) | updates vs reference | E^C_rr");
    for delta_max in [100.0, 500.0, 2000.0] {
        let out = run_averaged(&args.seeds, &[Policy::Lira], |seed| {
            let mut sc = base.clone();
            sc.seed = seed;
            sc.delta_max = delta_max;
            sc.fairness = delta_max - sc.delta_min; // unconstrained fairness
            sc.throttle = 0.25;
            sc
        });
        let o = &out[0].1;
        println!(
            "{delta_max:>6.0} | {:>20.3} | {:>6.4}",
            o.processed_fraction, o.mean_containment
        );
    }
    println!("(growing Δ⊣ lets LIRA suppress nearly all updates outside query regions,");
    println!("mimicking distributed query-aware delivery, at bounded containment cost)");
}
