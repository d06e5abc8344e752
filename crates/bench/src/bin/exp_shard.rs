//! `exp_shard` — the unified engine against its sweep baseline.
//!
//! Benchmarks the one engine against the sweep baseline
//! (`with_dirty_tracking(false)` — the round structure of the retired
//! inverted engine, which walked every stored node each round; the
//! JSON's `baseline_*` keys) on two churning populations:
//!
//! * **uniform** — the classic seeded scatter with uniformly placed
//!   queries;
//! * **hotspot** — 80 % of the fleet squeezed into a drifting band a
//!   tenth of the space wide, with Proportional query placement.
//!
//! Before timing, each scale cross-checks the engine against the
//! baseline for equal results, and the digest a served round folds
//! (`evaluate_digest`) against `digest_round` over those results, round
//! by round — a benchmark of a wrong engine is worthless.
//!
//! ```text
//! exp_shard [--quick] [--assert] [--out PATH]
//! ```
//!
//! * default: the full ladder 10 000 × 100 → 1 000 000 × 10 000, one
//!   query per hundred nodes on every rung (the monitored space grows
//!   with √nodes so node density stays constant too — what changes up
//!   the ladder is the size of the fleet, not the depth of the cover
//!   over a node), both scenarios per scale;
//! * `--quick` — the hotspot scenario at two scales (including the
//!   100 000-node rung), for the CI perf-smoke step;
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_shard.json` in the current directory);
//! * `--assert` — exit nonzero unless, on the advancing round, the
//!   engine is at least [`MIN_SPEEDUP`]× the sweep baseline at every
//!   scale and strictly faster at each scenario's largest.
//!
//! Every round re-reports [`CHURN_FRAC`] of the fleet (the JSON's
//! `churn_frac`).
//!
//! What the numbers mean: every cell is timed on two rounds. The
//! **advancing** round (`advancing_ns`) is churn-ingest stamped `t`, then
//! evaluate at `t`, with `t += 1` per round — what a served `EvalReq` or
//! a simulated tick pays, and the headline. The **same-`t`** round
//! (`evaluate_ns`) is the same churn evaluated at a fixed time: only the
//! re-reported nodes can change, a round no server pays, kept because it
//! isolates the engine's floor (emit copy + churn). The **served**
//! columns time the advancing round twice more, as the two digest paths
//! pay it: `served_ns` is `evaluate_digest` — what `lira-serve` runs per
//! `EvalReq`, the digest folded as the member lists are written — and
//! `replica_ns` is `evaluate_into` followed by `digest_round` over the
//! copied results, what the benchmark's in-process replica and any
//! client folding materialised results pay. The baseline's sweep round
//! walks every stored node on both; the engine steps the re-reported
//! nodes plus, when `t` advances, the nodes its time wheel has due
//! (DESIGN.md §13), which is where the speedup comes from. A cell on
//! which the engine itself swept — `advancing_stepped_per_round` at least
//! half the fleet, a world that moves a node a good part of a cell per
//! round (`BUSY`) — timed the baseline's own code path, and is reported
//! as such beside its speedup.
//! Every rung does fixed work: [`WARMUP_ROUNDS`] untimed rounds, then
//! [`TIMED_ROUNDS`] rounds timed one at a time, and the rung reports
//! their median (the JSON's `*_ns` keys). So both engines of a scale run
//! the same rounds over the same churn, and the gate compares like with
//! like; a time-boxed mean would hold however many rounds fit in the box,
//! each engine starting its advancing rung from a different world.
//! Peak RSS per scale is the process high-water mark, cumulative up to
//! that rung of the ladder.

use std::hint::black_box;
use std::time::Instant;

use lira_bench::{host_json, peak_rss_bytes};
use lira_core::geometry::{Point, Rect};
use lira_core::telemetry::json::Json;
use lira_server::digest::digest_round;
use lira_server::prelude::*;
use lira_workload::churn::{ChurnWorkload, HotspotSpec};
use lira_workload::{generate_queries, QueryDistribution, WorkloadConfig};

/// Monitored space at the reference scale (10 000 nodes): the paper's
/// 10 km × 10 km region. Larger scales grow the side with √nodes.
const SPACE_M: f64 = 10_000.0;
/// Reference node count for the space scaling.
const REF_NODES: f64 = 10_000.0;
/// Fraction of nodes re-reporting between evaluation rounds.
const CHURN_FRAC: f64 = 0.05;
/// The `--assert` floor on the advancing-round speedup over the sweep
/// baseline.
const MIN_SPEEDUP: f64 = 1.0;
/// Query side length (m): small enough coverage per query that the emit
/// copy does not drown the round-structure signal at the top scales.
const QUERY_SIDE: f64 = 500.0;
/// Rounds each rung runs untimed before it times any.
const WARMUP_ROUNDS: usize = 10;
/// Rounds each rung times, one at a time; the rung reports their median.
const TIMED_ROUNDS: usize = 61;

/// The two churning populations each scale runs (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scen {
    Uniform,
    Hotspot,
}

impl Scen {
    fn name(self) -> &'static str {
        match self {
            Scen::Uniform => "uniform",
            Scen::Hotspot => "hotspot",
        }
    }

    /// Query placement: hotspot queries follow the (skewed) population,
    /// as a real deployment's demand would.
    fn distribution(self) -> QueryDistribution {
        match self {
            Scen::Uniform => QueryDistribution::Random,
            Scen::Hotspot => QueryDistribution::Proportional,
        }
    }

    fn workload(self, num_nodes: usize, space_m: f64) -> ChurnWorkload {
        match self {
            Scen::Uniform => ChurnWorkload::new(num_nodes, 7, CHURN_FRAC, space_m),
            Scen::Hotspot => ChurnWorkload::with_hotspot(
                num_nodes,
                7,
                CHURN_FRAC,
                space_m,
                HotspotSpec::default(),
            ),
        }
    }
}

/// Space side for a node count: constant density from the reference
/// scale up, never below the paper's 10 km.
fn space_for(num_nodes: usize) -> f64 {
    SPACE_M * (num_nodes as f64 / REF_NODES).max(1.0).sqrt()
}

fn make_server(num_nodes: usize, space_m: f64, queries: &[RangeQuery]) -> CqServer {
    let bounds = Rect::from_coords(0.0, 0.0, space_m, space_m);
    let mut server = CqServer::new(bounds, num_nodes, 64);
    server.register_queries(queries.iter().copied());
    server
}

/// Cross-checks the engine against the sweep baseline before timing, on
/// the exact workload pattern the timing loop replays.
fn verify_engines_agree(scen: Scen, num_nodes: usize, space_m: f64, queries: &[RangeQuery]) {
    let mut base = make_server(num_nodes, space_m, queries).with_dirty_tracking(false);
    let mut w_base = scen.workload(num_nodes, space_m);
    w_base.prime(&mut base);
    // A server whose rounds are materialised and one whose rounds are
    // folded into the served digest.
    let mut server = make_server(num_nodes, space_m, queries);
    let mut w = scen.workload(num_nodes, space_m);
    w.prime(&mut server);
    let mut folding = server.clone();
    let (mut replica, mut served) = (0, 0);
    // Five same-`t` rounds, then five advancing ones.
    for round in 0..10 {
        let t = (round as f64 - 4.0).max(0.5);
        let stamp = if round < 5 { 0.0 } else { t };
        w_base.step_with(|id, p, v| {
            base.ingest(id, stamp, p, v);
        });
        let want = base.evaluate(t);
        w.step_with(|id, p, v| {
            server.ingest(id, stamp, p, v);
            folding.ingest(id, stamp, p, v);
        });
        assert_eq!(
            server.evaluate(t),
            want,
            "the engine disagrees with the sweep baseline ({} {num_nodes} nodes, round {round})",
            scen.name()
        );
        replica = digest_round(replica, t, &want);
        served = folding.evaluate_digest(t, served);
        assert_eq!(
            served,
            replica,
            "the served digest disagrees with digest_round over the results ({} {num_nodes} \
             nodes, round {round})",
            scen.name()
        );
    }
}

/// Runs `round` [`WARMUP_ROUNDS`] times, then times it [`TIMED_ROUNDS`]
/// times one call at a time, and returns the median ns (fixed work, see
/// the module docs).
fn median_round_ns(label: String, mut round: impl FnMut() -> u64) -> f64 {
    for _ in 0..WARMUP_ROUNDS {
        black_box(round());
    }
    let mut ns: Vec<f64> = (0..TIMED_ROUNDS)
        .map(|_| {
            let started = Instant::now();
            black_box(round());
            started.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    let median = ns[TIMED_ROUNDS / 2];
    println!(
        "{label:<48} {:>10.1} µs/round (median of {TIMED_ROUNDS})",
        median / 1e3
    );
    median
}

/// What one server was timed at.
struct Timed {
    /// Same-`t` round: churn + evaluate at a fixed time, median ns.
    ns: f64,
    /// Advancing round: churn stamped `t` + evaluate at `t`, `t += 1`,
    /// median ns.
    advancing_ns: f64,
    /// Mean nodes the engine stepped per advancing round (the fleet for
    /// the sweep baseline).
    advancing_stepped: f64,
    /// Advancing round folded into the served digest (`evaluate_digest`),
    /// and the same round copied out and then hashed (`evaluate_into` +
    /// `digest_round`), median ns; `None` for the sweep baseline.
    served: Option<(f64, f64)>,
}

/// Times both rounds (see the module docs) for one server: the same-`t`
/// rung first, then the advancing one on the fleet it leaves placed —
/// and then, with `served`, the advancing round as each digest path pays
/// it.
fn bench_engine(
    label: &str,
    scen: Scen,
    num_nodes: usize,
    space_m: f64,
    server: CqServer,
    served: bool,
) -> Timed {
    let mut server = server;
    let mut workload = scen.workload(num_nodes, space_m);
    workload.prime(&mut server);
    let mut results = Vec::new();
    let ns = median_round_ns(format!("evaluate/{label}"), || {
        workload.step(&mut server);
        server.evaluate_into(0.5, &mut results);
        results.len() as u64
    });
    let mut t = 0.5;
    let stepped_before = server.stepped_nodes();
    let advancing_ns = median_round_ns(format!("advancing/{label}"), || {
        t += 1.0;
        workload.step_with(|id, p, v| {
            server.ingest(id, t, p, v);
        });
        server.evaluate_into(t, &mut results);
        results.len() as u64
    });
    let advancing_stepped = (server.stepped_nodes() - stepped_before) as f64 / (t - 0.5);
    let served = served.then(|| {
        let mut digest = 0;
        let mut rung = |name: &str, fold: &mut dyn FnMut(&mut CqServer, f64, u64) -> u64| {
            median_round_ns(format!("{name}/{label}"), || {
                t += 1.0;
                workload.step_with(|id, p, v| {
                    server.ingest(id, t, p, v);
                });
                digest = fold(&mut server, t, digest);
                digest
            })
        };
        let served_ns = rung("served", &mut |server, t, prev| {
            server.evaluate_digest(t, prev)
        });
        let replica_ns = rung("replica", &mut |server, t, prev| {
            server.evaluate_into(t, &mut results);
            digest_round(prev, t, &results)
        });
        (served_ns, replica_ns)
    });
    Timed {
        ns,
        advancing_ns,
        advancing_stepped,
        served,
    }
}

struct ScaleResult {
    scenario: &'static str,
    nodes: usize,
    queries: usize,
    space_m: f64,
    peak_rss_bytes: u64,
    /// Sweep-baseline round times, same-`t` and advancing.
    baseline_ns: f64,
    baseline_advancing_ns: f64,
    engine: Timed,
}

fn bench_scale(scen: Scen, num_nodes: usize, num_queries: usize) -> ScaleResult {
    let space_m = space_for(num_nodes);
    let bounds = Rect::from_coords(0.0, 0.0, space_m, space_m);
    let node_positions: Vec<Point> = scen.workload(num_nodes, space_m).positions;
    let cfg = WorkloadConfig {
        distribution: scen.distribution(),
        count: num_queries,
        side_length: QUERY_SIDE,
        seed: 11,
    };
    let queries = generate_queries(&bounds, &node_positions, &cfg);
    verify_engines_agree(scen, num_nodes, space_m, &queries);

    let tag = format!("{}/{num_nodes}x{num_queries}", scen.name());
    let baseline = bench_engine(
        &format!("baseline/{tag}"),
        scen,
        num_nodes,
        space_m,
        make_server(num_nodes, space_m, &queries).with_dirty_tracking(false),
        false,
    );
    let (baseline_ns, baseline_advancing_ns) = (baseline.ns, baseline.advancing_ns);
    let engine = bench_engine(
        &format!("unified/{tag}"),
        scen,
        num_nodes,
        space_m,
        make_server(num_nodes, space_m, &queries),
        true,
    );
    println!(
        "advancing_speedup_{0}_{num_nodes}x{num_queries}={1:.2} (stepping {3:.0} nodes/round{4}) \
         evaluate_speedup_{0}_{num_nodes}x{num_queries}={2:.2}",
        scen.name(),
        baseline_advancing_ns / engine.advancing_ns.max(1e-9),
        baseline_ns / engine.ns.max(1e-9),
        engine.advancing_stepped,
        // `BUSY` (DESIGN.md §13): the engine gave up on the wheel.
        if engine.advancing_stepped * 2.0 >= num_nodes as f64 {
            ": the engine swept, both columns time one code path"
        } else {
            ""
        }
    );
    let (served_ns, replica_ns) = engine.served.expect("the engine times both paths");
    println!(
        "served_speedup_{}_{num_nodes}x{num_queries}={:.2} (served {served_ns:.0} ns, replica \
         {replica_ns:.0} ns)",
        scen.name(),
        replica_ns / served_ns.max(1e-9),
    );
    let peak_rss = peak_rss_bytes();
    println!(
        "peak_rss_bytes_{}_{num_nodes}x{num_queries}={peak_rss}",
        scen.name()
    );
    ScaleResult {
        scenario: scen.name(),
        nodes: num_nodes,
        queries: queries.len(),
        space_m,
        peak_rss_bytes: peak_rss,
        baseline_ns,
        baseline_advancing_ns,
        engine,
    }
}

fn report_json(mode: &str, scales: &[ScaleResult]) -> Json {
    let scale = |s: &ScaleResult| {
        let r = &s.engine;
        let (served_ns, replica_ns) = r.served.expect("the engine times both paths");
        Json::Obj(vec![
            ("scenario".into(), Json::Str(s.scenario.into())),
            ("nodes".into(), Json::UInt(s.nodes as u64)),
            ("queries".into(), Json::UInt(s.queries as u64)),
            ("space_m".into(), Json::Float(s.space_m)),
            ("peak_rss_bytes".into(), Json::UInt(s.peak_rss_bytes)),
            ("baseline_ns".into(), Json::Float(s.baseline_ns)),
            (
                "baseline_advancing_ns".into(),
                Json::Float(s.baseline_advancing_ns),
            ),
            ("advancing_ns".into(), Json::Float(r.advancing_ns)),
            (
                "advancing_stepped_per_round".into(),
                Json::Float(r.advancing_stepped),
            ),
            (
                "advancing_speedup_vs_baseline".into(),
                Json::Float(s.baseline_advancing_ns / r.advancing_ns.max(1e-9)),
            ),
            ("evaluate_ns".into(), Json::Float(r.ns)),
            (
                "speedup_vs_baseline".into(),
                Json::Float(s.baseline_ns / r.ns.max(1e-9)),
            ),
            ("served_ns".into(), Json::Float(served_ns)),
            ("replica_ns".into(), Json::Float(replica_ns)),
            (
                "served_speedup_vs_replica".into(),
                Json::Float(replica_ns / served_ns.max(1e-9)),
            ),
        ])
    };
    Json::Obj(vec![
        ("experiment".into(), Json::Str("exp_shard".into())),
        ("host".into(), host_json()),
        ("mode".into(), Json::Str(mode.into())),
        ("churn_frac".into(), Json::Float(CHURN_FRAC)),
        ("query_side_m".into(), Json::Float(QUERY_SIDE)),
        ("warmup_rounds".into(), Json::UInt(WARMUP_ROUNDS as u64)),
        ("timed_rounds".into(), Json::UInt(TIMED_ROUNDS as u64)),
        (
            "scales".into(),
            Json::Arr(scales.iter().map(scale).collect()),
        ),
    ])
}

/// The `--assert` gate: the advancing round's floor against the sweep
/// baseline at every scale, strict at each scenario's largest.
fn run_asserts(scales: &[ScaleResult]) -> Result<(), String> {
    for s in scales {
        let largest = scales
            .iter()
            .rfind(|l| l.scenario == s.scenario)
            .is_some_and(|l| std::ptr::eq(l, s));
        let speedup = s.baseline_advancing_ns / s.engine.advancing_ns.max(1e-9);
        if speedup < MIN_SPEEDUP || (largest && speedup <= 1.0) {
            return Err(format!(
                "advancing-t speedup {speedup:.2}x below required {MIN_SPEEDUP:.2}x at {} {}x{}",
                s.scenario, s.nodes, s.queries
            ));
        }
        println!(
            "PASS: advancing-t round {speedup:.2}x the sweep baseline at {} {}x{}",
            s.scenario, s.nodes, s.queries
        );
    }
    Ok(())
}

fn main() {
    let mut quick = false;
    let mut do_assert = false;
    let mut out_path = String::from("BENCH_shard.json");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--assert" => do_assert = true,
            "--out" => {
                out_path = it.next().unwrap_or_else(|| usage("--out needs a path"));
            }
            "--help" | "-h" => usage("exp_shard [--quick] [--assert] [--out PATH]"),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    // Quick mode runs the skewed scenario only, and keeps a 100 000-node
    // rung.
    let (mode, runs): (&str, Vec<(Scen, usize, usize)>) = if quick {
        (
            "quick",
            vec![(Scen::Hotspot, 2_000, 100), (Scen::Hotspot, 100_000, 2_000)],
        )
    } else {
        // One query per hundred nodes on every rung.
        let ladder = [
            (10_000, 100),
            (100_000, 1_000),
            (250_000, 2_500),
            (1_000_000, 10_000),
        ];
        (
            "full",
            ladder
                .iter()
                .flat_map(|&(n, q)| [(Scen::Uniform, n, q), (Scen::Hotspot, n, q)])
                .collect(),
        )
    };
    println!(
        "== exp_shard: unified engine vs sweep baseline, {mode} ladder ({} runs, {:.0}% \
         churn/round)",
        runs.len(),
        CHURN_FRAC * 100.0
    );

    let scales: Vec<ScaleResult> = runs
        .iter()
        .map(|&(scen, n, q)| bench_scale(scen, n, q))
        .collect();

    let json = report_json(mode, &scales);
    std::fs::write(&out_path, format!("{json}\n")).expect("write BENCH_shard.json");
    println!("report={out_path}");

    if do_assert {
        if let Err(msg) = run_asserts(&scales) {
            eprintln!("FAIL: {msg}");
            std::process::exit(1);
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
