//! The repo benchmark. One command runs the four workloads — three
//! against a `lira-serve` child process over loopback TCP, one through
//! `lira-sim` — prints every metric by name and unit, checks the outputs,
//! and ends with one JSON result line per workload. See `README.md`.

mod child;
mod drive;
mod expected;
mod host;
mod ledger;
mod metrics;
mod replica;
mod serve;
mod sim;
mod span;
mod spec;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lira_core::telemetry::json::Json;

use crate::expected::{Expected, Verdict};
use crate::metrics::{Values, END_TO_END};
use crate::span::Tracer;
use crate::spec::{ServeSpec, SERVE_WORKLOADS, SIM_WORKLOAD};

/// The reply backlog of an open loop counts as growing when the median
/// freshness of the last 100 rounds exceeds that of the 100 before by
/// this many periods: at 103 % utilisation it grows that much.
const BACKLOG_GROWTH_PERIODS: f64 = 3.0;

/// World builds per untraced `sim_paper` run; `setup_s` is their median.
const SIM_SETUPS: usize = 3;

/// Command-line options.
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    bless: bool,
    serve_bin: PathBuf,
}

/// This package's directory in the checkout it was built in:
/// `expected.json` lives here, results go to `out/` under it.
const DIR: &str = env!("CARGO_MANIFEST_DIR");

fn usage() -> ! {
    eprintln!(
        "usage: lira-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                     [--smoke] [--bless] [--serve-bin PATH]\n\
         workloads: serve_ingest serve_eval_1m serve_paced sim_paper (default: all four)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: false,
        smoke: false,
        bless: false,
        serve_bin: std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("lira-serve")))
            .unwrap_or_else(|| "lira-serve".into()),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            "--serve-bin" => args.serve_bin = value().into(),
            _ => usage(),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        usage();
    }
    if args.smoke {
        // Smoke runs are sized in rounds, not seconds.
        args.seconds = 0.0;
    }
    args
}

/// What one workload run produced.
pub struct Outcome {
    /// Metric values, end-to-end or per-layer according to `--trace`.
    values: Values,
    /// Operations attempted: updates sent plus result rounds requested
    /// (`sim_paper`: policy lanes).
    attempted: u64,
    /// Operations that failed: updates dropped at the bounded queues.
    failed: u64,
    /// Correctness failures; any makes the run incorrect.
    problems: Vec<String>,
    /// Lines for the human-readable report (sample counts and such).
    notes: Vec<String>,
    /// Workload-specific detail for the result file.
    detail: Vec<(String, Json)>,
    /// Spans of the traced run.
    spans: Option<Json>,
}

impl Outcome {
    fn failed_to_run(problem: String) -> Self {
        Outcome {
            values: Values::default(),
            attempted: 1,
            failed: 1,
            problems: vec![problem],
            notes: Vec::new(),
            detail: Vec::new(),
            spans: None,
        }
    }
}

fn samples(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::Float).collect())
}

/// The end-to-end metrics and the correctness verdict of a served run.
fn judge_served(args: &Args, spec: &ServeSpec, served: &serve::Served) -> Outcome {
    let m = &served.measured;
    let mut problems = Vec::new();
    let mut notes = Vec::new();

    let report = Json::parse(&m.report_json).ok();
    let core = report.as_ref().and_then(|r| r.get("deterministic"));
    let field = |name: &str| core.and_then(|c| c.get(name)).and_then(Json::as_u64);
    let dropped = field("updates_dropped").unwrap_or(u64::MAX);
    if core.is_none() {
        problems.push("the final report has no deterministic core".into());
    }
    // The server must have ingested exactly what was sent, answered
    // every request, and held z = 1.
    for (name, want) in [
        ("updates_admitted", m.tally.updates_sent),
        ("updates_dropped", 0),
        ("protocol_errors", 0),
        ("eval_rounds", m.tally.eval_rounds),
        ("windows", m.tally.windows),
        ("plan_epoch", m.tally.plans_received),
    ] {
        if field(name) != Some(want) {
            problems.push(format!(
                "report {name} = {:?}, expected {want}",
                field(name)
            ));
        }
    }
    let z = core.and_then(|c| c.get("z")).and_then(Json::as_f64);
    if z != Some(1.0) {
        problems.push(format!("THROTLOOP ended at z = {z:?}, expected 1"));
    }
    if m.tally.results_last == 0 {
        problems.push("the last evaluation returned no results".into());
    }

    let checkpoint = ledger::checkpoint_json(&m.checkpoint);
    let expected = Expected::new(Path::new(DIR), spec.name, args.smoke, args.seed);
    match expected.settle(&checkpoint, args.bless) {
        Verdict::Mismatch(why) => problems.push(why),
        Verdict::Match => notes.push(format!(
            "checkpoint at round {} matches expected.json",
            spec.check_round
        )),
        Verdict::NotPinned => {}
    }

    let mut values = Values::default();
    // Open-loop hygiene: the generator must keep its own schedule, and
    // replies must not be falling further behind at the end. The gate is
    // on the generator's median lateness; its p95 and p99 are reported
    // only, because on the reference host they are set by stalls of the
    // host itself (a bare sleep loop on the idle host: p99 3 ms, max 25).
    if let Some(period) = spec.period {
        let period_ms = period.as_secs_f64() * 1e3;
        let gen_late = stats::median(&m.gen_late_ms);
        if gen_late > 0.1 * period_ms {
            problems.push(format!(
                "the generator ran {gen_late:.3} ms late at the median, more than a tenth of the {period_ms} ms period"
            ));
        }
        let n = m.fresh_ms.len();
        if n >= 200 {
            let before = stats::median(&m.fresh_ms[n - 200..n - 100]);
            let last = stats::median(&m.fresh_ms[n - 100..]);
            if last > before + BACKLOG_GROWTH_PERIODS * period_ms {
                problems.push(format!(
                    "reply backlog still growing: median freshness {before:.3} ms → {last:.3} ms over the last 200 rounds"
                ));
            }
        }
        // Results past the latency limit are reported, not failed: they
        // follow the host's stalls (up to a second on the reference
        // host), not the server.
        let over_limit = m.fresh_ms.iter().filter(|&&f| f > period_ms).count();
        if args.trace {
            values.set("bench.over_limit_frac", over_limit as f64 / n as f64);
        }
        notes.push(format!(
            "open loop, period and latency limit {period_ms} ms: generator late p50 {gen_late:.3} ms, p95 {:.3} ms, p99 {:.3} ms; {over_limit} of {n} results past the limit",
            stats::percentile(&m.gen_late_ms, 0.95),
            stats::percentile(&m.gen_late_ms, 0.99),
        ));
    }

    if m.cut_short {
        notes.push(format!(
            "cut short after {:.1} s: the host is much slower than the one the rounds were sized on",
            m.wall_s
        ));
    }
    let measured_updates = m.tally.updates_sent - served.at_setup.updates_sent;
    let measured_evals = m.tally.eval_rounds - served.at_setup.eval_rounds;
    if args.trace {
        values.set("bench.fresh_ms_p50", stats::median(&m.fresh_ms));
        values.set("bench.fresh_ms_p90", stats::percentile(&m.fresh_ms, 0.9));
    } else {
        // The quietest segment's figures (see `drive::SEGMENT_SAMPLES`).
        // In the open loop a segment's wall is set by the schedule, not
        // by the server, so goodput is taken over the whole phase: the
        // offered rate, unless the server fell behind at the end.
        let segments = m.segments(spec);
        let goodput = match spec.period {
            None => segments
                .iter()
                .map(|s| s.updates as f64 / s.wall_s)
                .fold(0.0, f64::max),
            Some(_) => measured_updates as f64 / m.wall_s,
        };
        let fresh = segments.iter().map(|s| stats::median(s.fresh_ms));
        values.set("setup_s", stats::median(&served.setup_s));
        values.set("goodput_ups", goodput);
        values.set("fresh_ms_p50", fresh.fold(f64::INFINITY, f64::min));
        values.set("peak_rss_mb", served.peak_rss_mb);
        notes.push(format!(
            "each timing is that of the quietest of {} segments of {} freshness samples; over the whole run the median freshness is {:.3} ms, the 90th percentile {:.3} ms",
            segments.len(),
            segments.first().map_or(0, |s| s.fresh_ms.len()),
            stats::median(&m.fresh_ms),
            stats::percentile(&m.fresh_ms, 0.9),
        ));
    }
    notes.push(format!(
        "{} rounds in {:.3} s: {measured_updates} updates, {} freshness samples, {} set-ups",
        m.rounds,
        m.wall_s,
        m.fresh_ms.len(),
        served.setup_s.len()
    ));
    Outcome {
        values,
        attempted: measured_updates + measured_evals,
        failed: dropped.min(measured_updates),
        problems,
        notes,
        detail: vec![
            ("rounds".into(), Json::UInt(m.rounds as u64)),
            ("wall_s".into(), Json::Float(m.wall_s)),
            ("checkpoint".into(), checkpoint),
            ("final".into(), ledger::checkpoint_json(&m.tally)),
            ("report".into(), core.cloned().unwrap_or(Json::Null)),
            ("setup_s".into(), samples(&served.setup_s)),
            (
                "rss_after_setup_mb".into(),
                samples(&served.rss_after_setup_mb),
            ),
            ("fresh_ms".into(), samples(&m.fresh_ms)),
            ("eval_ms".into(), samples(&m.eval_ms)),
            ("eval_at_s".into(), samples(&m.eval_at_s)),
            ("gen_late_ms".into(), samples(&m.gen_late_ms)),
        ],
        spans: None,
    }
}

fn run_serve_workload(args: &Args, spec: &ServeSpec) -> Outcome {
    if !args.trace {
        return match serve::run_served(&args.serve_bin, spec, args.seed, args.seconds, spec.setups)
        {
            Ok(served) => judge_served(args, spec, &served),
            Err(e) => Outcome::failed_to_run(e.0),
        };
    }
    // The traced run replays what a short served run did, so its served
    // part gets a share of the time and the replays the rest.
    let served = match serve::run_served(
        &args.serve_bin,
        spec,
        args.seed,
        args.seconds * ledger::SERVED_SHARE,
        1,
    ) {
        Ok(served) => served,
        Err(e) => return Outcome::failed_to_run(e.0),
    };
    let mut outcome = judge_served(args, spec, &served);
    ledger::trace_served(spec, args.seed, &served, &mut outcome);
    outcome
}

fn run_sim_workload(args: &Args) -> Outcome {
    let mut problems = Vec::new();
    let mut notes = Vec::new();
    let setups = if args.trace { 0 } else { SIM_SETUPS };
    let setup_s: Vec<f64> = (0..setups)
        .map(|_| sim::setup_once(args.seed, args.smoke))
        .collect();
    let mut tracer = if args.trace {
        Tracer::recording()
    } else {
        Tracer::disabled()
    };
    let run = sim::run(args.seed, args.smoke, &mut tracer);
    let out = &run.output;

    let observed = ledger::sim_json(out);
    let expected = Expected::new(Path::new(DIR), SIM_WORKLOAD, args.smoke, args.seed);
    match expected.settle(&observed, args.bless) {
        Verdict::Mismatch(why) => problems.push(why),
        Verdict::Match => notes.push("accuracy tuples match expected.json bit for bit".into()),
        // No pin for this seed: the paper's ordering must hold (below),
        // and the run must reproduce. The second run of a world takes 9 s
        // and times nothing, so it rides on the traced run, not on the
        // timed ones.
        Verdict::NotPinned => {
            if args.trace && !sim::reproduces(&run, args.seed, args.smoke) {
                problems.push("a second run of the same world gave different outputs".into());
            }
        }
    }
    let pos = |name: &str| {
        out.policies
            .iter()
            .find(|p| p.name == name)
            .map_or(f64::NAN, |p| p.pos_err_m)
    };
    let (lira, uniform, random) = (pos("LIRA"), pos("Uniform Delta"), pos("Random Drop"));
    if !(lira < uniform && uniform < random) {
        problems.push(format!(
            "position error must order LIRA < Uniform Delta < Random Drop, got {lira} / {uniform} / {random}"
        ));
    }

    let wall_s: f64 = run.job_wall_s.iter().sum();
    let job_ms: Vec<f64> = run.job_wall_s.iter().map(|s| s * 1e3).collect();
    let mut values = Values::default();
    if args.trace {
        ledger::trace_sim(args, &run, &mut tracer, &mut values);
        values.set("bench.fresh_ms_p50", stats::median(&job_ms));
    } else {
        values.set("setup_s", stats::median(&setup_s));
        values.set("goodput_ups", out.updates_processed as f64 / wall_s);
        // The two policy comparisons are the same work on two worlds:
        // the quicker one, as for the served workloads' segments.
        values.set("fresh_ms_p50", stats::min(&job_ms[..2]));
        match std::fs::read_to_string("/proc/self/status").and_then(|s| child::vm_hwm_mb(&s)) {
            Ok(mb) => values.set("peak_rss_mb", mb),
            Err(e) => problems.push(format!("cannot read own peak RSS: {e}")),
        }
    }
    notes.push(format!(
        "3 jobs in {wall_s:.3} s ({}), {} updates processed; LIRA pos_err_m {lira}, contain_err {}",
        run.job_wall_s
            .iter()
            .map(|s| format!("{s:.3} s"))
            .collect::<Vec<_>>()
            .join(", "),
        out.updates_processed,
        out.policies[0].contain_err,
    ));
    let lanes = (2 * out.policies.len() + 1) as u64;
    Outcome {
        values,
        attempted: lanes,
        failed: 0,
        problems,
        notes,
        detail: vec![
            ("output".into(), observed),
            ("sim_wall_s".into(), Json::Float(wall_s)),
        ],
        spans: args.trace.then(|| tracer.to_json()),
    }
}

/// Prints the human-readable report, writes the result files, and ends
/// with the one-line JSON result. Returns whether the run was correct.
fn report(args: &Args, workload: &str, host: &Json, outcome: Outcome) -> bool {
    let correct = outcome.problems.is_empty();
    let per_layer = metrics::per_layer();
    let metrics_json = if args.trace {
        outcome
            .values
            .to_json(per_layer.iter().map(|(n, u)| (n.as_str(), *u)))
    } else {
        outcome.values.to_json(END_TO_END.iter().copied())
    };
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(outcome.attempted.max(1))),
        ("failed".into(), Json::UInt(outcome.failed)),
        ("metrics".into(), metrics_json.clone()),
    ]);

    println!(
        "== {workload}  seed {}  {}{}",
        args.seed,
        if args.trace {
            "per-layer ledger (traced run)"
        } else {
            "end-to-end (untraced run)"
        },
        if args.smoke { "  [smoke scale]" } else { "" },
    );
    for note in &outcome.notes {
        println!("   {note}");
    }
    if let Json::Obj(members) = &metrics_json {
        for (name, m) in members {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("   {name:<40} {value:>18.6} {unit}");
        }
    }
    println!(
        "   failed {} of {} attempted",
        outcome.failed,
        outcome.attempted.max(1)
    );
    for p in &outcome.problems {
        println!("   INCORRECT: {p}");
    }

    let out_dir = Path::new(DIR).join("out");
    let suffix = if args.trace { "ledger" } else { "result" };
    let mut file = vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::UInt(args.seed)),
        ("seconds".into(), Json::Float(args.seconds)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("host".into(), host.clone()),
        ("result".into(), result.clone()),
        (
            "problems".into(),
            Json::Arr(outcome.problems.iter().cloned().map(Json::Str).collect()),
        ),
    ];
    file.extend(outcome.detail);
    let write = |name: String, body: Json| {
        let path = out_dir.join(name);
        if let Err(e) = std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::write(&path, format!("{body}\n")))
        {
            eprintln!("lira-benchmark: cannot write {}: {e}", path.display());
        }
    };
    write(format!("{workload}.{suffix}.json"), Json::Obj(file));
    if let Some(spans) = outcome.spans {
        write(
            format!("{workload}.trace.json"),
            Json::Obj(vec![
                ("workload".into(), Json::Str(workload.into())),
                ("seed".into(), Json::UInt(args.seed)),
                ("host".into(), host.clone()),
                ("spans".into(), spans),
            ]),
        );
    }
    println!("{result}");
    correct
}

fn main() -> ExitCode {
    let args = parse_args();
    // The CI matrix hooks must not reconfigure the simulator under test.
    std::env::remove_var("LIRA_REBALANCE");
    std::env::remove_var("LIRA_TEST_SHARDS");
    let workloads: Vec<String> = match &args.workload {
        Some(w) => vec![w.clone()],
        None => SERVE_WORKLOADS
            .iter()
            .chain([&SIM_WORKLOAD])
            .map(|w| w.to_string())
            .collect(),
    };
    let host = host::host_json(Path::new(DIR).parent().unwrap_or(Path::new(DIR)));
    println!("host: {host}");
    let mut all_correct = true;
    for workload in &workloads {
        let outcome = if workload == SIM_WORKLOAD {
            run_sim_workload(&args)
        } else if let Some(spec) = spec::serve_spec(workload, args.smoke) {
            run_serve_workload(&args, &spec)
        } else {
            eprintln!("lira-benchmark: unknown workload {workload}");
            usage();
        };
        all_correct &= report(&args, workload, &host, outcome);
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
