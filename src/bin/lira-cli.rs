//! `lira-cli` — run LIRA simulations and inspect shedding plans from the
//! command line.
//!
//! ```text
//! lira-cli run      [options]   compare shedding policies at a fixed z
//! lira-cli adaptive [options]   closed loop: THROTLOOP picks z live
//! lira-cli plan     [options]   print one adaptation's region/throttler table
//!
//! common options:
//!   --scale small|default|paper   scenario preset        (default: default)
//!   --cars N                      mobile nodes
//!   --seed S                      master seed             (default: 17)
//!   --z F                         throttle fraction       (default: 0.5)
//!   --l N                         shedding regions (mod 3 = 1)
//!   --fairness F                  fairness threshold Δ⇔ in meters
//!   --dist proportional|inverse|random   query distribution
//!   --duration S                  measured seconds
//! run options:
//!   --policies lira,lira-grid,uniform,random-drop,utility-greedy,utility-model   (default: all)
//! adaptive options:
//!   --service-rate R              server capacity, updates/s (default 200)
//!   --capacity B                  input queue size           (default 500)
//! run/adaptive options:
//!   --telemetry-json PATH         write the run's telemetry snapshot(s)
//!                                 as JSON (schema: docs/TELEMETRY.md)
//! ```

use lira::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: lira-cli <run|adaptive|plan> [options]  (--help for details)");
        return ExitCode::from(2);
    };
    let opts = match Options::parse(rest) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match command.as_str() {
        "run" => cmd_run(&opts),
        "adaptive" => cmd_adaptive(&opts),
        "plan" => cmd_plan(&opts),
        "--help" | "-h" | "help" => {
            println!("see module docs: lira-cli <run|adaptive|plan> [options]");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command {other:?}; expected run, adaptive, or plan");
            ExitCode::from(2)
        }
    }
}

/// Parsed command-line options on top of a scenario preset.
#[derive(Debug, Clone)]
struct Options {
    scenario: Scenario,
    policies: Vec<Policy>,
    adaptive: AdaptiveConfig,
    telemetry_json: Option<String>,
}

impl Options {
    fn parse(args: &[String]) -> std::result::Result<Options, String> {
        let mut scale = "default".to_string();
        let mut kv: Vec<(String, String)> = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone();
            if key == "scale" {
                scale = value;
            } else {
                kv.push((key.to_string(), value));
            }
        }

        let mut sc = match scale.as_str() {
            "small" => Scenario::small(17),
            "default" => Scenario::default(),
            "paper" => Scenario::paper(17),
            other => return Err(format!("unknown scale {other:?}")),
        };
        let mut policies = Policy::ALL.to_vec();
        let mut adaptive = AdaptiveConfig::default();
        let mut telemetry_json = None;

        for (key, value) in kv {
            match key.as_str() {
                "cars" => sc.num_cars = parse(&key, &value)?,
                "seed" => sc.seed = parse(&key, &value)?,
                "z" => sc.throttle = parse(&key, &value)?,
                "l" => {
                    let l: usize = parse(&key, &value)?;
                    sc = sc.with_regions(l);
                }
                "fairness" => sc.fairness = parse(&key, &value)?,
                "duration" => sc.duration_s = parse(&key, &value)?,
                "dist" => {
                    sc.query_distribution = match value.as_str() {
                        "proportional" => QueryDistribution::Proportional,
                        "inverse" => QueryDistribution::Inverse,
                        "random" => QueryDistribution::Random,
                        other => return Err(format!("unknown distribution {other:?}")),
                    }
                }
                "policies" => {
                    policies = value
                        .split(',')
                        .map(|p| {
                            Policy::from_flag(p.trim())
                                .ok_or_else(|| format!("unknown policy {:?}", p.trim()))
                        })
                        .collect::<std::result::Result<_, String>>()?;
                }
                "service-rate" => adaptive.service_rate = parse(&key, &value)?,
                "capacity" => adaptive.queue_capacity = parse(&key, &value)?,
                "telemetry-json" => telemetry_json = Some(value),
                other => return Err(format!("unknown option --{other}")),
            }
        }
        // A `LiraError` already says "invalid configuration: ".
        sc.lira_config()
            .validate()
            .and_then(|()| sc.validate())
            .map_err(|e| e.to_string())?;
        adaptive
            .validate()
            .map_err(|e| format!("invalid configuration: {e}"))?;
        Ok(Options {
            scenario: sc,
            policies,
            adaptive,
            telemetry_json,
        })
    }
}

fn parse<T: std::str::FromStr>(key: &str, value: &str) -> std::result::Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{key}: cannot parse {value:?}"))
}

fn cmd_run(opts: &Options) -> ExitCode {
    let sc = &opts.scenario;
    println!(
        "running {} nodes, {:.0} km², z = {}, l = {}, {} s...",
        sc.num_cars,
        sc.space_side * sc.space_side / 1e6,
        sc.throttle,
        sc.num_regions,
        sc.duration_s
    );
    let report = run_scenario(sc, &opts.policies);
    println!(
        "\nreference server processed {} updates for {} queries",
        report.reference_updates, report.num_queries
    );
    println!("\npolicy         | containment err | position err (m) | updates sent | processed");
    println!("---------------+-----------------+------------------+--------------+----------");
    for o in &report.outcomes {
        println!(
            "{:<14} | {:>15.4} | {:>16.3} | {:>12} | {:>9}",
            o.policy.name(),
            o.metrics.mean_containment,
            o.metrics.mean_position,
            o.updates_sent,
            o.updates_processed,
        );
    }
    if let Some(path) = &opts.telemetry_json {
        let mut snapshots: Vec<&TelemetrySnapshot> =
            report.outcomes.iter().map(|o| &o.telemetry).collect();
        snapshots.push(&report.pipeline_telemetry);
        if let Err(e) = write_snapshots(path, &snapshots) {
            eprintln!("telemetry: not written ({e})");
            return ExitCode::FAILURE;
        }
        println!("\ntelemetry written to {path}");
    }
    ExitCode::SUCCESS
}

/// Writes snapshots as a JSON array (one element per lane, plus the
/// pipeline stage timings for `run`).
fn write_snapshots(path: &str, snapshots: &[&TelemetrySnapshot]) -> std::io::Result<()> {
    let body: Vec<String> = snapshots.iter().map(|s| s.to_json()).collect();
    std::fs::write(path, format!("[{}]\n", body.join(",")))
}

fn cmd_adaptive(opts: &Options) -> ExitCode {
    let cfg = opts.adaptive;
    println!(
        "closed loop: μ = {} upd/s, B = {}, control every {} s",
        cfg.service_rate, cfg.queue_capacity, cfg.control_period_s
    );
    let report = run_adaptive(&opts.scenario, &cfg);
    println!("\n  time |  λ (upd/s) |     z | queue | dropped");
    println!("-------+------------+-------+-------+--------");
    for w in &report.windows {
        println!(
            "{:>5.0}s | {:>10.1} | {:>5.3} | {:>5} | {:>7}",
            w.time, w.arrival_rate, w.throttle, w.queue_len, w.dropped
        );
    }
    println!(
        "\nfinal z = {:.3} | drop fraction {:.2}% | E^C_rr {:.4} | E^P_rr {:.2} m",
        report.final_throttle,
        report.drop_fraction * 100.0,
        report.metrics.mean_containment,
        report.metrics.mean_position
    );
    if let Some(path) = &opts.telemetry_json {
        if let Err(e) = write_snapshots(path, &[&report.telemetry]) {
            eprintln!("telemetry: not written ({e})");
            return ExitCode::FAILURE;
        }
        println!("telemetry written to {path}");
    }
    ExitCode::SUCCESS
}

fn cmd_plan(opts: &Options) -> ExitCode {
    let sc = &opts.scenario;
    // The world every run of this scenario starts from: network, warmed-up
    // traffic and the query workload.
    let setup = SimSetup::build(sc, false);
    let adapt = || {
        let mut grid = StatsGrid::new(setup.config.alpha, setup.bounds)?;
        grid.begin_snapshot();
        for car in setup.sim.cars() {
            grid.observe_node(&car.position(), car.speed(), 1.0);
        }
        for q in &setup.queries {
            grid.observe_query(&q.range);
        }
        grid.commit_snapshot();
        LiraShedder::new(setup.config.clone())?.adapt_with_throttle(&grid, sc.throttle)
    };
    let adaptation = match adapt() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "plan: l = {} regions | adaptation took {:?} | objective Σmᵢ·Δᵢ = {:.1} | wire size {} B",
        adaptation.plan.len(),
        adaptation.elapsed,
        adaptation.solution.inaccuracy,
        adaptation.plan.encode().len(),
    );
    println!("\n  # |     min corner     |  side (m) |  nodes | queries | Δ (m)");
    println!("----+--------------------+-----------+--------+---------+------");
    for (i, (region, stats)) in adaptation
        .plan
        .regions()
        .iter()
        .zip(&adaptation.partitioning.regions)
        .enumerate()
    {
        println!(
            "{:>3} | ({:>7.0},{:>7.0}) | {:>9.0} | {:>6.1} | {:>7.2} | {:>5.1}",
            i,
            region.area.min.x,
            region.area.min.y,
            region.area.width(),
            stats.nodes,
            stats.queries,
            region.throttler,
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> std::result::Result<Options, String> {
        Options::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn degenerate_durations_are_invalid_configurations() {
        // `inf` used to run until killed; the others printed an all-zero
        // policy table and exited 0.
        for duration in ["inf", "nan", "-5", "0"] {
            let err =
                parse_args(&["--scale", "small", "--duration", duration]).expect_err(duration);
            assert!(
                err.starts_with("invalid configuration: "),
                "--duration {duration}: {err}"
            );
        }
        assert!(parse_args(&["--scale", "small", "--duration", "60"]).is_ok());
    }

    #[test]
    fn an_invalid_configuration_is_named_once() {
        // A refusal from the scenario (a `LiraError`, which carries the
        // prefix itself) and one from the closed loop (a bare reason).
        for (flag, value) in [("--duration", "nan"), ("--l", "3"), ("--capacity", "1")] {
            let err = parse_args(&["--scale", "small", flag, value]).expect_err(value);
            assert!(
                err.starts_with("invalid configuration: "),
                "{flag} {value}: {err}"
            );
            assert_eq!(
                err.matches("invalid configuration").count(),
                1,
                "{flag} {value}: {err}"
            );
        }
    }

    #[test]
    fn closed_loops_that_cannot_run_are_invalid_configurations() {
        // `--capacity 0` and `1` used to panic; a service rate that is not
        // positive and finite used to run a server that never serviced,
        // or one THROTLOOP could not steer by.
        let refused = [
            ("--capacity", "0"),
            ("--capacity", "1"),
            ("--service-rate", "nan"),
            ("--service-rate", "inf"),
            ("--service-rate", "0"),
            ("--service-rate", "-5"),
        ];
        for (flag, value) in refused {
            let err = parse_args(&["--scale", "small", flag, value]).expect_err(value);
            assert!(
                err.starts_with("invalid configuration: "),
                "{flag} {value}: {err}"
            );
        }
        let opts = parse_args(&[
            "--scale",
            "small",
            "--capacity",
            "2",
            "--service-rate",
            "0.3",
        ])
        .expect("B = 2 and a fractional rate are runnable");
        assert_eq!(
            (opts.adaptive.queue_capacity, opts.adaptive.service_rate),
            (2, 0.3)
        );
    }
}
