//! `exp_utility` — where does utility-aware shedding beat LIRA, and
//! where does it lose?
//!
//! Runs LIRA, Random Drop, and the two SPICE-line utility policies
//! ([`lira_core::utility`]) against every named scenario in the
//! adversarial catalog, and scores each (scenario, policy) cell on the
//! paper's accuracy metrics plus shed volume. The point of the sweep is
//! the *comparison*: per scenario it records which policy won on mean
//! position error at comparable shed volume, so regressions in either
//! direction — the utility family losing its edge on skewed workloads,
//! or LIRA losing its edge on uniform ones — show up as floor failures.
//!
//! ```text
//! exp_utility [--quick] [--assert] [--seed N] [--out PATH]
//! ```
//!
//! * default: the catalog at `NamedScenario::scenario` scale (250 cars,
//!   120 s measured per scenario);
//! * `--quick` — `NamedScenario::tiny` scale (120 cars, 60 s), for CI;
//! * `--seed N` — base RNG seed (default 42);
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_utility.json` in the current directory);
//! * `--assert` — exit nonzero unless the floors hold (see below).
//!
//! The `--assert` floors:
//!
//! 1. every cell's metrics are finite and sane, and every policy sent
//!    updates in every scenario;
//! 2. in at least one catalog scenario, a utility policy beats LIRA on
//!    mean position error *at comparable shed volume* (processed
//!    fractions within [`COMPARABLE_SHED`] of each other) — the SPICE
//!    line has to earn its keep somewhere;
//! 3. in at least one catalog scenario, LIRA beats both utility
//!    policies on mean position error — the paper's fairness-aware
//!    allocation must keep its own niche, or something degenerated;
//! 4. the first scenario, re-run under the same seed, reproduces its
//!    metrics bit for bit.

use std::time::Instant;

use lira_core::telemetry::json::Json;
use lira_sim::prelude::*;
use lira_workload::catalog::NamedScenario;

/// Default base seed for the sweep.
const DEFAULT_SEED: u64 = 42;
/// Two cells shed "comparably" when their processed fractions are
/// within this much of each other.
const COMPARABLE_SHED: f64 = 0.1;
/// The roster under comparison: the paper baseline, the naive control,
/// and the two SPICE-line utility policies.
const ROSTER: [Policy; 4] = [
    Policy::Lira,
    Policy::RandomDrop,
    Policy::UtilityGreedy,
    Policy::UtilityModel,
];

struct Cell {
    policy: Policy,
    mean_containment: f64,
    mean_position: f64,
    fairness: f64,
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
            .expect("all roster policies ran")
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
    let report = run_scenario(&sc, &ROSTER);
    let wall_ms = started.elapsed().as_millis() as u64;
    let cells = report
        .outcomes
        .iter()
        .map(|o| Cell {
            policy: o.policy,
            mean_containment: o.metrics.mean_containment,
            mean_position: o.metrics.mean_position,
            fairness: o.metrics.stddev_containment,
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
        ("experiment".into(), Json::Str("exp_utility".into())),
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
                            ("num_cars".into(), Json::UInt(r.num_cars as u64)),
                            ("duration_s".into(), Json::Float(r.duration_s)),
                            ("reference_updates".into(), Json::UInt(r.reference_updates)),
                            ("wall_ms".into(), Json::UInt(r.wall_ms)),
                            (
                                "utility_win".into(),
                                match r.utility_win() {
                                    Some(p) => Json::Str(p.name().into()),
                                    None => Json::Str(String::new()),
                                },
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

    // Floor 2: the SPICE line earns its keep in at least one scenario.
    if !rows.iter().any(|r| r.utility_win().is_some()) {
        failures.push(
            "no catalog scenario where a utility policy beats LIRA on position error at \
             comparable shed volume"
                .into(),
        );
    }

    // Floor 3: LIRA keeps its own niche in at least one scenario.
    if !rows.iter().any(|r| r.lira_win()) {
        failures
            .push("no catalog scenario where LIRA beats both utility policies on position".into());
    }

    // Floor 4: determinism spot check on the first scenario.
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

    failures
}

fn main() {
    let mut quick = false;
    let mut do_assert = false;
    let mut seed = DEFAULT_SEED;
    let mut out_path = String::from("BENCH_utility.json");
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
            "--help" | "-h" => usage("exp_utility [--quick] [--assert] [--seed N] [--out PATH]"),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let mode = if quick { "quick" } else { "full" };
    println!(
        "== exp_utility: {} named scenarios x {} policies, {mode} scale, seed {seed}",
        NamedScenario::ALL.len(),
        ROSTER.len()
    );

    let rows: Vec<ScenarioRow> = NamedScenario::ALL
        .iter()
        .map(|&named| {
            let row = run_one(named, seed, quick);
            for c in &row.cells {
                println!(
                    "{}/{}: E^C_rr={:.4} E^P_rr={:.2}m processed={:.3}",
                    row.scenario.name(),
                    c.policy.name(),
                    c.mean_containment,
                    c.mean_position,
                    c.processed_fraction,
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
    std::fs::write(&out_path, format!("{json}\n")).expect("write BENCH_utility.json");
    println!("report={out_path}");

    if do_assert {
        let failures = check_floors(&rows, seed, quick);
        if failures.is_empty() {
            println!(
                "PASS: all utility floors hold over {} scenarios",
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
