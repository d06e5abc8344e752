//! The `lira-serve` binary: bind a localhost listener, run the session
//! loop, optionally write the session report on exit.
//!
//! ```text
//! lira-serve [--port P] [--space M] [--nodes N] [--shards S] [--slices L]
//!            [--queue-capacity B] [--service-rate U] [--adapt-every W]
//!            [--regions l] [--delta-min D] [--delta-max D]
//!            [--policy lira|lira-grid|uniform|utility-greedy|utility-model]
//!            [--conns K] [--report FILE] [--no-telemetry] [--verbose]
//! ```
//!
//! With `--port 0` (the default) an ephemeral port is chosen and printed
//! as `listening on 127.0.0.1:PORT` — harnesses parse that line. With
//! `--conns K` the process exits once `K` connections have come and
//! gone; without it, it serves until killed. See docs/OPERATIONS.md.

use std::net::TcpListener;

use lira_core::policy::Policy;
use lira_serve::server::{serve, ServeOptions};
use lira_serve::session::{ServeConfig, SessionCore};

fn usage() -> ! {
    eprintln!(
        "usage: lira-serve [--port P] [--space M] [--nodes N] [--shards S] [--slices L]\n\
         \x20                 [--queue-capacity B] [--service-rate U] [--adapt-every W]\n\
         \x20                 [--regions l] [--delta-min D] [--delta-max D]\n\
         \x20                 [--policy lira|lira-grid|uniform|utility-greedy|utility-model]\n\
         \x20                 [--conns K] [--report FILE] [--no-telemetry] [--verbose]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut port: u16 = 0;
    let mut space = 14_142.0f64;
    let mut nodes = 100_000usize;
    let mut cfg_overrides: Vec<(String, String)> = Vec::new();
    let mut conns: Option<usize> = None;
    let mut report_path: Option<String> = None;
    let mut telemetry = true;
    let mut verbose = false;
    let mut policy = Policy::default();

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let val = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match flag {
            "--port" => port = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--space" => space = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--nodes" => nodes = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--shards" | "--slices" | "--queue-capacity" | "--service-rate" | "--adapt-every"
            | "--regions" | "--delta-min" | "--delta-max" => {
                let v = val(&mut i);
                cfg_overrides.push((flag.to_string(), v));
            }
            "--policy" => policy = Policy::from_flag(&val(&mut i)).unwrap_or_else(|| usage()),
            "--conns" => conns = Some(val(&mut i).parse().unwrap_or_else(|_| usage())),
            "--report" => report_path = Some(val(&mut i)),
            "--no-telemetry" => telemetry = false,
            "--verbose" => verbose = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }

    let mut cfg = ServeConfig::new(space, nodes);
    cfg.telemetry = telemetry;
    cfg.policy = policy;
    for (flag, v) in &cfg_overrides {
        let ok = match flag.as_str() {
            "--shards" => v.parse().map(|x| cfg.shards = x).is_ok(),
            "--slices" => v.parse().map(|x| cfg.slices = x).is_ok(),
            "--queue-capacity" => v.parse().map(|x| cfg.queue_capacity = x).is_ok(),
            "--service-rate" => v.parse().map(|x| cfg.service_rate = x).is_ok(),
            "--adapt-every" => v.parse().map(|x| cfg.adapt_every_windows = x).is_ok(),
            "--regions" => v.parse().map(|x| cfg.num_regions = x).is_ok(),
            "--delta-min" => v.parse().map(|x| cfg.delta_min = x).is_ok(),
            "--delta-max" => v.parse().map(|x| cfg.delta_max = x).is_ok(),
            _ => unreachable!(),
        };
        if !ok {
            usage();
        }
    }
    if let Err(e) = cfg.validate() {
        eprintln!("lira-serve: invalid configuration: {e}");
        std::process::exit(2);
    }

    let listener = match TcpListener::bind(("127.0.0.1", port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("lira-serve: bind 127.0.0.1:{port}: {e}");
            std::process::exit(1);
        }
    };
    let local = listener.local_addr().expect("bound socket has an address");
    println!("listening on {local}");
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    let mut session = SessionCore::new(cfg);
    let opts = ServeOptions {
        exit_after_conns: conns,
        verbose,
        ..ServeOptions::default()
    };
    match serve(listener, &mut session, &opts) {
        Ok(summary) => {
            eprintln!(
                "serve: done, accepted {} conns ({} protocol closes, {} overflow closes), {} protocol errors",
                summary.accepted,
                summary.protocol_closes,
                summary.overflow_closes,
                session.protocol_errors()
            );
            if let Some(path) = report_path {
                if let Err(e) = std::fs::write(&path, session.report_json()) {
                    eprintln!("lira-serve: write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("lira-serve: {e}");
            std::process::exit(1);
        }
    }
}
