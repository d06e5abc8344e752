//! The `lira-storm` binary: replay churn or catalog-scenario traffic
//! against a running `lira-serve`, report sustained updates/sec and the
//! server's own report.
//!
//! ```text
//! lira-storm --connect HOST:PORT [--nodes N] [--space M] [--rounds R]
//!            [--churn F] [--queries Q] [--eval-every E] [--window-every W]
//!            [--seed S] [--raw] [--batch-cap C]
//!            [--scenario NAME [--tiny]] [--out FILE]
//! ```
//!
//! Default mode replays [`lira_workload::churn::ChurnWorkload`];
//! `--scenario` replays a catalog scenario's recorded traffic trace
//! instead (the mode whose digests tie to the in-process pipeline when
//! combined with `--raw`). Output is `key=value` lines plus an optional
//! JSON report (`--out`). See docs/OPERATIONS.md.

use std::net::TcpStream;

use lira_serve::protocol::WireQuery;
use lira_serve::storm::{
    run_storm, run_storm_trace, StormConfig, StormReport, TcpTransport, TraceStormConfig,
};
use lira_sim::pipeline::SimSetup;
use lira_workload::catalog::NamedScenario;

fn usage() -> ! {
    eprintln!(
        "usage: lira-storm --connect HOST:PORT [--nodes N] [--space M] [--rounds R]\n\
         \x20                 [--churn F] [--queries Q] [--eval-every E] [--window-every W]\n\
         \x20                 [--seed S] [--raw] [--batch-cap C]\n\
         \x20                 [--scenario NAME [--tiny]] [--out FILE]"
    );
    std::process::exit(2);
}

fn report_lines(r: &StormReport) {
    println!("updates_sent={}", r.updates_sent);
    println!("updates_considered={}", r.updates_considered);
    println!("shed_at_source={}", r.shed_at_source);
    println!("batches={}", r.batches);
    println!("eval_rounds={}", r.eval_rounds);
    println!("digest={:016x}", r.digest);
    println!("plans_received={}", r.plans_received);
    println!("plan_epoch={}", r.plan_epoch);
    println!("wall_s={:.3}", r.wall_s);
    println!("sustained_ups={:.0}", r.sustained_ups);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut connect: Option<String> = None;
    let mut cfg = StormConfig::new(100_000, 14_142.0);
    let mut scenario: Option<String> = None;
    let mut tiny = false;
    let mut out: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let val = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match flag {
            "--connect" => connect = Some(val(&mut i)),
            "--nodes" => cfg.nodes = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--space" => cfg.space_m = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--rounds" => cfg.rounds = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--churn" => cfg.churn_frac = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--queries" => cfg.queries = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--eval-every" => cfg.eval_every = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--window-every" => cfg.window_every = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--raw" => cfg.shed = false,
            "--batch-cap" => cfg.batch_cap = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--scenario" => scenario = Some(val(&mut i)),
            "--tiny" => tiny = true,
            "--out" => out = Some(val(&mut i)),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    let Some(addr) = connect else { usage() };
    if let Err(e) = cfg.validate() {
        eprintln!("lira-storm: invalid configuration: {e}");
        std::process::exit(2);
    }

    let stream = match TcpStream::connect(&addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lira-storm: connect {addr}: {e}");
            std::process::exit(1);
        }
    };
    let mut transport = match TcpTransport::new(stream) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lira-storm: {e}");
            std::process::exit(1);
        }
    };

    let result = if let Some(name) = scenario {
        let Some(named) = NamedScenario::ALL
            .iter()
            .copied()
            .find(|n| n.name().eq_ignore_ascii_case(&name))
        else {
            eprintln!(
                "lira-storm: unknown scenario '{name}' (have: {})",
                NamedScenario::ALL
                    .iter()
                    .map(|n| n.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            std::process::exit(2);
        };
        let sc = if tiny {
            named.tiny(cfg.seed)
        } else {
            named.scenario(cfg.seed)
        };
        let mut setup = SimSetup::build(&sc, false);
        let trace = setup.record_trace(&sc);
        let queries: Vec<WireQuery> = setup.queries.iter().map(WireQuery::from_query).collect();
        let eval_every = (sc.eval_period_s / sc.dt).round().max(1.0) as usize;
        let tcfg = TraceStormConfig {
            delta_min: sc.delta_min,
            eval_every_ticks: eval_every,
            window_every_ticks: eval_every,
            shed: cfg.shed,
            batch_cap: cfg.batch_cap,
            expected_bounds: Some(sc.bounds()),
        };
        println!("mode=scenario scenario={}", named.name());
        run_storm_trace(&mut transport, &trace, queries, &tcfg)
    } else {
        println!("mode=churn nodes={} rounds={}", cfg.nodes, cfg.rounds);
        run_storm(&mut transport, &cfg)
    };

    match result {
        Ok(report) => {
            report_lines(&report);
            if let Some(path) = out {
                if let Err(e) = std::fs::write(&path, &report.server_json) {
                    eprintln!("lira-storm: write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("lira-storm: {e}");
            std::process::exit(1);
        }
    }
}
