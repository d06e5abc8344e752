//! `exp_scenarios` — the standing adversarial-scenario regression battery.
//!
//! Runs every shedding policy against every named scenario in the
//! adversarial catalog ([`lira_workload::catalog`]) on the unified
//! engine, and scores each (scenario, policy) cell on accuracy
//! (`E^C_rr`, `E^P_rr`), fairness (`D^C_ev`), and the two skew metrics
//! (`shed_skew`, `plan_skew`). The catalog is built to hurt: flash
//! crowds invert the hotspot map mid-run, commute cycles drift it,
//! heterogeneous fleets cap `Δ⊣` per class, twin cities carve dead zones
//! through the space, and a regional blackout silences the hot center.
//!
//! ```text
//! exp_scenarios [--quick] [--assert] [--seed N] [--out PATH]
//! ```
//!
//! * default: the catalog at `NamedScenario::scenario` scale (250 cars,
//!   120 s measured per scenario);
//! * `--quick` — `NamedScenario::tiny` scale (120 cars, 60 s), for CI;
//! * `--seed N` — base RNG seed (default 42);
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_scenarios.json` in the current directory);
//! * `--assert` — exit nonzero unless the regression floors hold (see
//!   below).
//!
//! The `--assert` floors are deliberately structural, so they hold at
//! both scales and stay meaningful as the implementation evolves:
//!
//! 1. every cell's containment error is finite and in `[0, 1]`, and
//!    every policy actually sent updates;
//! 2. in every scenario, the best source-actuated policy keeps
//!    `E^C_rr` at or below [`MAX_CONTAINMENT`] — the catalog is
//!    adversarial, but never hopeless;
//! 3. averaged over the catalog, LIRA beats Random Drop on mean
//!    position error (the paper's core claim must survive adversity);
//! 4. single-threshold plans (Uniform Delta, Random Drop) report zero
//!    `plan_skew`, and source-actuated policies report zero
//!    `shed_skew` (nothing is dropped server-side);
//! 5. the battery is deterministic: the first scenario, re-run under
//!    the same seed, reproduces its metrics bit for bit;
//! 6. in at least one scenario, a SPICE-line utility policy
//!    ([`lira_core::utility`]) beats LIRA on mean position error *at
//!    comparable shed volume* (processed fractions within
//!    [`COMPARABLE_SHED`] of each other) — the utility line has to earn
//!    its keep somewhere;
//! 7. in at least one scenario, LIRA beats both utility policies on mean
//!    position error — the paper's fairness-aware allocation must keep
//!    its own niche, or something degenerated.
//!
//! Each scenario also prints its utility verdict (which side won, or a
//! split decision), and the JSON records it as `utility_win` (the winning
//! utility policy's name, or empty) and `lira_win`, with the catalog
//! counts `utility_wins` and `lira_wins`.

use std::time::Instant;

use lira_core::telemetry::json::Json;
use lira_sim::prelude::*;
use lira_workload::catalog::NamedScenario;

/// Default base seed for the battery.
const DEFAULT_SEED: u64 = 42;
/// Ceiling on the best source-actuated containment error (floor 2).
const MAX_CONTAINMENT: f64 = 0.75;
/// Two cells shed "comparably" when their processed fractions are
/// within this much of each other (floor 6).
const COMPARABLE_SHED: f64 = 0.1;

struct Cell {
    policy: Policy,
    mean_containment: f64,
    mean_position: f64,
    fairness: f64,
    shed_skew: f64,
    plan_skew: f64,
    updates_sent: u64,
    updates_processed: u64,
    processed_fraction: f64,
    plan_regions: usize,
}

struct ScenarioRow {
    scenario: NamedScenario,
    num_cars: usize,
    duration_s: f64,
    reference_updates: u64,
    wall_ms: u64,
    cells: Vec<Cell>,
}

impl ScenarioRow {
    fn cell(&self, policy: Policy) -> &Cell {
        self.cells
            .iter()
            .find(|c| c.policy == policy)
            .expect("all policies ran")
    }

    /// The utility policy (if any) that beats LIRA on position error at
    /// comparable shed volume in this scenario.
    fn utility_win(&self) -> Option<Policy> {
        let lira = self.cell(Policy::Lira);
        [Policy::UtilityGreedy, Policy::UtilityModel]
            .into_iter()
            .find(|&p| {
                let c = self.cell(p);
                c.mean_position < lira.mean_position
                    && (c.processed_fraction - lira.processed_fraction).abs() <= COMPARABLE_SHED
            })
    }

    /// True when LIRA beats both utility policies on position error.
    fn lira_win(&self) -> bool {
        let lira = self.cell(Policy::Lira).mean_position;
        lira < self.cell(Policy::UtilityGreedy).mean_position
            && lira < self.cell(Policy::UtilityModel).mean_position
    }
}

fn run_one(named: NamedScenario, seed: u64, quick: bool) -> ScenarioRow {
    let sc = if quick {
        named.tiny(seed)
    } else {
        named.scenario(seed)
    };
    let started = Instant::now();
    let report = run_scenario(&sc, &Policy::ALL);
    let wall_ms = started.elapsed().as_millis() as u64;
    let cells = report
        .outcomes
        .iter()
        .map(|o| Cell {
            policy: o.policy,
            mean_containment: o.metrics.mean_containment,
            mean_position: o.metrics.mean_position,
            fairness: o.metrics.stddev_containment,
            shed_skew: o.shed_skew,
            plan_skew: o.plan_skew,
            updates_sent: o.updates_sent,
            updates_processed: o.updates_processed,
            processed_fraction: o.processed_fraction,
            plan_regions: o.plan_regions,
        })
        .collect();
    ScenarioRow {
        scenario: named,
        num_cars: sc.num_cars,
        duration_s: sc.duration_s,
        reference_updates: report.reference_updates,
        wall_ms,
        cells,
    }
}

fn report_json(mode: &str, seed: u64, rows: &[ScenarioRow]) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str("exp_scenarios".into())),
        ("host".into(), lira_bench::host_json()),
        ("mode".into(), Json::Str(mode.into())),
        ("seed".into(), Json::UInt(seed)),
        (
            "utility_wins".into(),
            Json::UInt(rows.iter().filter(|r| r.utility_win().is_some()).count() as u64),
        ),
        (
            "lira_wins".into(),
            Json::UInt(rows.iter().filter(|r| r.lira_win()).count() as u64),
        ),
        (
            "scenarios".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(r.scenario.name().into())),
                            ("stresses".into(), Json::Str(r.scenario.stresses().into())),
                            (
                                "expected_victim".into(),
                                Json::Str(r.scenario.expected_victim().into()),
                            ),
                            ("num_cars".into(), Json::UInt(r.num_cars as u64)),
                            ("duration_s".into(), Json::Float(r.duration_s)),
                            ("reference_updates".into(), Json::UInt(r.reference_updates)),
                            ("wall_ms".into(), Json::UInt(r.wall_ms)),
                            (
                                "utility_win".into(),
                                Json::Str(r.utility_win().map_or("", |p| p.name()).into()),
                            ),
                            ("lira_win".into(), Json::Bool(r.lira_win())),
                            (
                                "policies".into(),
                                Json::Arr(
                                    r.cells
                                        .iter()
                                        .map(|c| {
                                            Json::Obj(vec![
                                                (
                                                    "policy".into(),
                                                    Json::Str(c.policy.name().into()),
                                                ),
                                                (
                                                    "mean_containment".into(),
                                                    Json::Float(c.mean_containment),
                                                ),
                                                (
                                                    "mean_position_m".into(),
                                                    Json::Float(c.mean_position),
                                                ),
                                                ("fairness".into(), Json::Float(c.fairness)),
                                                ("shed_skew".into(), Json::Float(c.shed_skew)),
                                                ("plan_skew".into(), Json::Float(c.plan_skew)),
                                                ("updates_sent".into(), Json::UInt(c.updates_sent)),
                                                (
                                                    "updates_processed".into(),
                                                    Json::UInt(c.updates_processed),
                                                ),
                                                (
                                                    "processed_fraction".into(),
                                                    Json::Float(c.processed_fraction),
                                                ),
                                                (
                                                    "plan_regions".into(),
                                                    Json::UInt(c.plan_regions as u64),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The source-actuated roster (everything except Random Drop).
const SOURCE_ACTUATED: [Policy; 5] = [
    Policy::Lira,
    Policy::LiraGrid,
    Policy::UniformDelta,
    Policy::UtilityGreedy,
    Policy::UtilityModel,
];

fn check_floors(rows: &[ScenarioRow], seed: u64, quick: bool) -> Vec<String> {
    let mut failures = Vec::new();

    // Floor 1: sane, finite metrics everywhere.
    for r in rows {
        for c in &r.cells {
            let name = r.scenario.name();
            let policy = c.policy.name();
            if !(c.mean_containment.is_finite() && (0.0..=1.0).contains(&c.mean_containment)) {
                failures.push(format!(
                    "{name}/{policy}: containment {} out of [0,1]",
                    c.mean_containment
                ));
            }
            if !c.mean_position.is_finite() || c.mean_position < 0.0 {
                failures.push(format!(
                    "{name}/{policy}: position error {} not finite/non-negative",
                    c.mean_position
                ));
            }
            if c.updates_sent == 0 {
                failures.push(format!("{name}/{policy}: sent no updates"));
            }
        }
    }

    // Floor 2: the catalog is adversarial but never hopeless.
    for r in rows {
        let best = SOURCE_ACTUATED
            .iter()
            .map(|&p| r.cell(p).mean_containment)
            .fold(f64::INFINITY, f64::min);
        if best > MAX_CONTAINMENT {
            failures.push(format!(
                "{}: best source-actuated containment {best:.3} above the {MAX_CONTAINMENT:.3} \
                 ceiling",
                r.scenario.name()
            ));
        }
    }

    // Floor 3: LIRA beats Random Drop on position error, catalog-wide.
    let n = rows.len() as f64;
    let lira_pos: f64 = rows
        .iter()
        .map(|r| r.cell(Policy::Lira).mean_position)
        .sum::<f64>()
        / n;
    let drop_pos: f64 = rows
        .iter()
        .map(|r| r.cell(Policy::RandomDrop).mean_position)
        .sum::<f64>()
        / n;
    if lira_pos >= drop_pos {
        failures.push(format!(
            "catalog mean position error: LIRA {lira_pos:.2} m >= Random Drop {drop_pos:.2} m"
        ));
    }

    // Floor 4: structural skew invariants.
    for r in rows {
        let name = r.scenario.name();
        for &p in &[Policy::UniformDelta, Policy::RandomDrop] {
            let c = r.cell(p);
            if c.plan_skew != 0.0 {
                failures.push(format!(
                    "{name}/{}: single-threshold plan reports plan_skew {}",
                    p.name(),
                    c.plan_skew
                ));
            }
        }
        for &p in &SOURCE_ACTUATED {
            let c = r.cell(p);
            if c.shed_skew != 0.0 {
                failures.push(format!(
                    "{name}/{}: source-actuated policy reports shed_skew {}",
                    p.name(),
                    c.shed_skew
                ));
            }
        }
    }

    // Floor 5: determinism spot check on the first scenario.
    let first = &rows[0];
    let rerun = run_one(first.scenario, seed, quick);
    for (a, b) in first.cells.iter().zip(&rerun.cells) {
        if a.mean_containment != b.mean_containment
            || a.mean_position != b.mean_position
            || a.updates_sent != b.updates_sent
        {
            failures.push(format!(
                "{}/{}: re-run under the same seed diverged",
                first.scenario.name(),
                a.policy.name()
            ));
        }
    }

    // Floor 6: the utility line earns its keep in at least one scenario.
    if !rows.iter().any(|r| r.utility_win().is_some()) {
        failures.push(
            "no catalog scenario where a utility policy beats LIRA on position error at \
             comparable shed volume"
                .into(),
        );
    }

    // Floor 7: LIRA keeps its own niche in at least one scenario.
    if !rows.iter().any(|r| r.lira_win()) {
        failures
            .push("no catalog scenario where LIRA beats both utility policies on position".into());
    }

    failures
}

fn main() {
    let mut quick = false;
    let mut do_assert = false;
    let mut seed = DEFAULT_SEED;
    let mut out_path = String::from("BENCH_scenarios.json");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--assert" => do_assert = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--out" => {
                out_path = it.next().unwrap_or_else(|| usage("--out needs a path"));
            }
            "--help" | "-h" => usage("exp_scenarios [--quick] [--assert] [--seed N] [--out PATH]"),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let mode = if quick { "quick" } else { "full" };
    println!(
        "== exp_scenarios: {} named scenarios x {} policies, {mode} scale, seed {seed}",
        NamedScenario::ALL.len(),
        Policy::ALL.len()
    );

    let rows: Vec<ScenarioRow> = NamedScenario::ALL
        .iter()
        .map(|&named| {
            let row = run_one(named, seed, quick);
            for c in &row.cells {
                println!(
                    "{}/{}: E^C_rr={:.4} E^P_rr={:.2}m D^C_ev={:.4} shed_skew={:.3} \
                     plan_skew={:.3}",
                    row.scenario.name(),
                    c.policy.name(),
                    c.mean_containment,
                    c.mean_position,
                    c.fairness,
                    c.shed_skew,
                    c.plan_skew
                );
            }
            let verdict = match row.utility_win() {
                Some(p) => format!("{} beats LIRA", p.name()),
                None if row.lira_win() => "LIRA beats both utility policies".into(),
                None => "split decision".into(),
            };
            println!("{}: {verdict}", row.scenario.name());
            row
        })
        .collect();

    let json = report_json(mode, seed, &rows);
    std::fs::write(&out_path, format!("{json}\n")).expect("write BENCH_scenarios.json");
    println!("report={out_path}");

    if do_assert {
        let failures = check_floors(&rows, seed, quick);
        if failures.is_empty() {
            println!(
                "PASS: all regression floors hold over {} scenarios",
                rows.len()
            );
        } else {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            std::process::exit(1);
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
