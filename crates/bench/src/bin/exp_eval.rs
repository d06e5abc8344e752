//! `exp_eval` — perf trajectory of the unified CQ evaluation engine.
//!
//! Benchmarks the unified engine (work skipping on, the default) against
//! its own sweep-round baseline (`with_dirty_tracking(false)` — the
//! round structure of the retired inverted engine, which walked every
//! stored node each round) on the same churning node population, across
//! node × query scales, for the server operations: `evaluate_advancing`
//! (`t += 1` per round, reports stamped `t` — the round a served
//! `EvalReq` or a simulated tick pays, and the headline), `evaluate` (the
//! same churn at a fixed `t`: re-reported nodes only, a round no server
//! pays), `evaluate_uncertain` and `nearest` (a scan of the node store,
//! the same code in both columns). Before timing, each scale
//! cross-checks the two configurations for equal results — a benchmark
//! of a wrong engine is worthless.
//!
//! ```text
//! exp_eval [--quick] [--assert] [--min-speedup X] [--churn F] [--out PATH]
//! ```
//!
//! * default: the full scale ladder up to 1 000 000 nodes × 10 000
//!   queries (the monitored space grows with √nodes so density stays at
//!   the paper's 100 nodes/km²);
//! * `--quick` — two scales that run in seconds, for the CI perf-smoke
//!   step (the larger, 20 000 × 200, sparse enough that the engine
//!   stays on the wheel, so the gate below bites);
//! * `--churn F` — fraction of nodes re-reporting between evaluation
//!   rounds (default 0.10);
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_eval.json` in the current directory);
//! * `--assert` — exit nonzero unless, at *every* scale, unified
//!   `evaluate_advancing` and `evaluate` are each at least
//!   `--min-speedup`× (default 1.0×, i.e. no slower) the sweep baseline,
//!   and `evaluate_advancing` is strictly faster at the largest. A rung
//!   on which the engine itself fell back to sweeping every round
//!   (`unified_stepped_per_round` ≥ half the fleet) is held to parity
//!   within 15 % instead — both columns then time the same code path.
//!
//! Output: the shim's one-line-per-benchmark timings, machine-readable
//! `key=value` lines per scale, and a `BENCH_eval.json` report with a
//! `host` block (cores, CPU model, rustc, commit), the mean ns/iter of
//! every (operation, engine, scale) cell plus the peak RSS after each
//! scale — the perf trajectory of the repo's evaluation
//! core (see EXPERIMENTS.md). Peak RSS is the process high-water mark,
//! so per-scale readings are cumulative up to that rung of the ladder.

use criterion::{black_box, Criterion};
use lira_bench::{host_json, peak_rss_bytes};
use lira_core::geometry::{Point, Rect};
use lira_core::plan::{PlanRegion, SheddingPlan};
use lira_core::telemetry::json::Json;
use lira_server::prelude::*;
use lira_workload::prelude::*;

/// Monitored space at the reference scale (10 000 nodes): the paper's
/// 10 km × 10 km region. Larger scales grow the side with √nodes.
const SPACE_M: f64 = 10_000.0;
/// Reference node count for the space scaling.
const REF_NODES: f64 = 10_000.0;
/// Fraction of nodes re-reporting between evaluation rounds (default;
/// see `--churn`).
const CHURN_FRAC: f64 = 0.10;
/// Δ⊣ for the uncertainty-aware benchmark (Table 2's upper bound).
const MAX_DELTA: f64 = 320.0;
/// k for the nearest-neighbor benchmark (Ride Finder's "10 nearby taxis").
const NEAREST_K: usize = 10;
/// `--assert` floor on a rung where the unified engine swept every round
/// (see `main`): the sweep baseline's own code path, so parity, less the
/// run-to-run noise of timing the same code twice.
const SWEPT_FLOOR: f64 = 0.85;
/// The timed configurations: the default engine and its
/// sweep-every-round baseline.
const ENGINES: [&str; 2] = ["unified", "baseline"];

/// Space side for a node count: constant density from the reference
/// scale up (√nodes growth), never below the paper's 10 km.
fn space_for(num_nodes: usize) -> f64 {
    SPACE_M * (num_nodes as f64 / REF_NODES).max(1.0).sqrt()
}

fn make_server(
    num_nodes: usize,
    space_m: f64,
    queries: &[RangeQuery],
    engine: EvalEngine,
) -> CqServer {
    let bounds = Rect::from_coords(0.0, 0.0, space_m, space_m);
    let mut server = CqServer::new(bounds, num_nodes, 64).with_engine(engine);
    server.register_queries(queries.iter().copied());
    server
}

/// A 4×4 tiling of plan regions with varied throttlers, so the
/// uncertainty benchmark exercises `max_throttler_within` across real
/// region borders rather than a uniform plan's trivial lookup.
fn bench_plan(space_m: f64) -> SheddingPlan {
    let bounds = Rect::from_coords(0.0, 0.0, space_m, space_m);
    let cell = space_m / 4.0;
    let regions = (0..16)
        .map(|i| {
            let (row, col) = (i / 4, i % 4);
            PlanRegion {
                area: Rect::from_coords(
                    col as f64 * cell,
                    row as f64 * cell,
                    (col + 1) as f64 * cell,
                    (row + 1) as f64 * cell,
                ),
                throttler: 20.0 * (i % 5 + 1) as f64,
            }
        })
        .collect();
    SheddingPlan::new(bounds, regions, 20.0)
}

/// Cross-checks unified against the sweep baseline before timing them.
fn verify_engines_agree(
    num_nodes: usize,
    space_m: f64,
    queries: &[RangeQuery],
    plan: &SheddingPlan,
    churn_frac: f64,
) {
    let mut servers: Vec<(&str, CqServer)> = vec![
        (
            "unified",
            make_server(num_nodes, space_m, queries, EvalEngine::default()),
        ),
        (
            "baseline",
            make_server(num_nodes, space_m, queries, EvalEngine::default())
                .with_dirty_tracking(false),
        ),
    ];
    let mut workloads: Vec<ChurnWorkload> = servers
        .iter()
        .map(|_| ChurnWorkload::new(num_nodes, 7, churn_frac, space_m))
        .collect();
    for (w, (_, s)) in workloads.iter_mut().zip(&mut servers) {
        w.prime(s);
    }
    for round in 0..5 {
        for (w, (_, s)) in workloads.iter_mut().zip(&mut servers) {
            w.step(s);
        }
        let (_, reference) = &mut servers[0];
        let want = reference.evaluate(0.5);
        let delta_of = |_: u32, p: Point| plan.max_throttler_within(&p, MAX_DELTA);
        let uwant = reference.evaluate_uncertain(0.5, MAX_DELTA, delta_of);
        let center = Point::new(space_m / 2.0, space_m / 2.0);
        let nwant = reference.nearest(center, NEAREST_K, 0.5);
        for (name, s) in servers.iter_mut().skip(1) {
            assert_eq!(
                s.evaluate(0.5),
                want,
                "unified vs {name} disagree on evaluate ({num_nodes} nodes, round {round})"
            );
            assert_eq!(
                s.evaluate_uncertain(0.5, MAX_DELTA, delta_of),
                uwant,
                "unified vs {name} disagree on evaluate_uncertain ({num_nodes} nodes)"
            );
            assert_eq!(
                s.nearest(center, NEAREST_K, 0.5),
                nwant,
                "unified vs {name} disagree on nearest ({num_nodes} nodes)"
            );
        }
    }
}

/// Runs one benchmark and returns its mean ns/iter from the shim.
fn bench_one(c: &mut Criterion, label: String, mut f: impl FnMut(&mut criterion::Bencher)) -> f64 {
    c.bench_function(label, &mut f);
    c.results().last().expect("benchmark just ran").1
}

/// Mean ns/iter for one operation across [`ENGINES`].
struct OpResult {
    op: &'static str,
    unified_ns: f64,
    baseline_ns: f64,
    /// Mean nodes the unified engine placed or re-placed per iteration
    /// (`CqServer::stepped_nodes`): the fleet when it sweeps, the
    /// re-reported and due nodes when it does not.
    unified_stepped: f64,
}

/// One rung of the ladder.
struct ScaleResult {
    nodes: usize,
    queries: usize,
    space_m: f64,
    peak_rss_bytes: u64,
    ops: Vec<OpResult>,
}

fn bench_scale(
    c: &mut Criterion,
    num_nodes: usize,
    num_queries: usize,
    churn_frac: f64,
) -> ScaleResult {
    let space_m = space_for(num_nodes);
    let bounds = Rect::from_coords(0.0, 0.0, space_m, space_m);
    let node_positions: Vec<Point> =
        ChurnWorkload::new(num_nodes, 7, churn_frac, space_m).positions;
    let cfg = WorkloadConfig {
        distribution: QueryDistribution::Random,
        count: num_queries,
        side_length: 1_000.0,
        seed: 11,
    };
    let queries = generate_queries(&bounds, &node_positions, &cfg);
    let plan = bench_plan(space_m);
    verify_engines_agree(num_nodes, space_m, &queries, &plan, churn_frac);

    let tag = format!("{num_nodes}x{num_queries}");
    let mut ops = Vec::new();
    for op in [
        "evaluate_advancing",
        "evaluate",
        "evaluate_uncertain",
        "nearest",
    ] {
        let mut per_engine = [0.0f64; ENGINES.len()];
        let mut unified_stepped = 0.0;
        for (slot, name) in ENGINES.into_iter().enumerate() {
            let mut server = make_server(num_nodes, space_m, &queries, EvalEngine::default())
                .with_dirty_tracking(name == "unified");
            let mut workload = ChurnWorkload::new(num_nodes, 7, churn_frac, space_m);
            workload.prime(&mut server);
            let mut results = Vec::new();
            let mut uresults = Vec::new();
            let mut centers = node_positions.iter().cycle().copied();
            // The advancing rung starts from a placed fleet, as a served
            // session does after its set-up evaluation.
            let mut t = 0.0;
            server.evaluate_into(t, &mut results);
            let stepped_before = server.stepped_nodes();
            let mut iterations = 0u64;
            per_engine[slot] = bench_one(
                c,
                format!("{op}/{name}/{tag}"),
                |b: &mut criterion::Bencher| {
                    b.iter(|| match op {
                        "evaluate_advancing" => {
                            t += 1.0;
                            iterations += 1;
                            workload.step_with(|id, p, v| {
                                server.ingest(id, t, p, v);
                            });
                            server.evaluate_into(t, &mut results);
                            black_box(results.len())
                        }
                        "evaluate" => {
                            iterations += 1;
                            workload.step(&mut server);
                            server.evaluate_into(0.5, &mut results);
                            black_box(results.len())
                        }
                        "evaluate_uncertain" => {
                            workload.step(&mut server);
                            server.evaluate_uncertain_into(
                                0.5,
                                MAX_DELTA,
                                |_, p| plan.max_throttler_within(&p, MAX_DELTA),
                                &mut uresults,
                            );
                            black_box(uresults.len())
                        }
                        _ => {
                            let center = centers.next().expect("cycle");
                            black_box(server.nearest(center, NEAREST_K, 0.5).len())
                        }
                    });
                },
            );
            if name == "unified" {
                unified_stepped =
                    (server.stepped_nodes() - stepped_before) as f64 / iterations.max(1) as f64;
            }
        }
        let speedup = per_engine[1] / per_engine[0].max(1e-9);
        if unified_stepped > 0.0 {
            println!(
                "{op}_speedup_{tag}={speedup:.2} (unified stepping {unified_stepped:.0} nodes/round)"
            );
        } else {
            println!("{op}_speedup_{tag}={speedup:.2}");
        }
        ops.push(OpResult {
            op,
            unified_ns: per_engine[0],
            baseline_ns: per_engine[1],
            unified_stepped,
        });
    }
    let peak_rss = peak_rss_bytes();
    println!("peak_rss_bytes_{tag}={peak_rss}");
    ScaleResult {
        nodes: num_nodes,
        queries: queries.len(),
        space_m,
        peak_rss_bytes: peak_rss,
        ops,
    }
}

fn report_json(mode: &str, churn_frac: f64, scales: &[ScaleResult]) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str("exp_eval".into())),
        ("host".into(), host_json()),
        ("mode".into(), Json::Str(mode.into())),
        ("churn_frac".into(), Json::Float(churn_frac)),
        ("max_delta".into(), Json::Float(MAX_DELTA)),
        ("nearest_k".into(), Json::UInt(NEAREST_K as u64)),
        (
            "scales".into(),
            Json::Arr(
                scales
                    .iter()
                    .map(|s| {
                        let mut members = vec![
                            ("nodes".into(), Json::UInt(s.nodes as u64)),
                            ("queries".into(), Json::UInt(s.queries as u64)),
                            ("space_m".into(), Json::Float(s.space_m)),
                            ("peak_rss_bytes".into(), Json::UInt(s.peak_rss_bytes)),
                        ];
                        for r in &s.ops {
                            let cell = vec![
                                (
                                    "unified_stepped_per_round".into(),
                                    Json::Float(r.unified_stepped),
                                ),
                                ("unified_ns".into(), Json::Float(r.unified_ns)),
                                ("baseline_ns".into(), Json::Float(r.baseline_ns)),
                                (
                                    "speedup_vs_baseline".into(),
                                    Json::Float(r.baseline_ns / r.unified_ns.max(1e-9)),
                                ),
                            ];
                            members.push((r.op.into(), Json::Obj(cell)));
                        }
                        Json::Obj(members)
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    let mut quick = false;
    let mut do_assert = false;
    let mut min_speedup = 1.0f64;
    let mut churn_frac = CHURN_FRAC;
    let mut out_path = String::from("BENCH_eval.json");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--assert" => do_assert = true,
            "--min-speedup" => {
                min_speedup = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--min-speedup needs a factor"));
            }
            "--churn" => {
                churn_frac = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--churn needs a fraction"));
            }
            "--out" => {
                out_path = it.next().unwrap_or_else(|| usage("--out needs a path"));
            }
            "--help" | "-h" => {
                usage("exp_eval [--quick] [--assert] [--min-speedup X] [--churn F] [--out PATH]")
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let (mode, ladder): (&str, &[(usize, usize)]) = if quick {
        ("quick", &[(500, 50), (20_000, 200)])
    } else {
        (
            "full",
            &[(10_000, 1_000), (100_000, 3_000), (1_000_000, 10_000)],
        )
    };
    println!(
        "== exp_eval: unified engine vs sweep baseline, {mode} ladder ({} scales, \
         {:.0}% churn/round)",
        ladder.len(),
        churn_frac * 100.0
    );

    let mut criterion = Criterion::default();
    let scales: Vec<ScaleResult> = ladder
        .iter()
        .map(|&(n, q)| bench_scale(&mut criterion, n, q, churn_frac))
        .collect();

    let json = report_json(mode, churn_frac, &scales);
    std::fs::write(&out_path, format!("{json}\n")).expect("write BENCH_eval.json");
    println!("report={out_path}");

    if do_assert {
        let mut failed = false;
        for (i, s) in scales.iter().enumerate() {
            for op in ["evaluate_advancing", "evaluate"] {
                let r = s.ops.iter().find(|r| r.op == op).expect("op benched");
                let speedup = r.baseline_ns / r.unified_ns.max(1e-9);
                // "No slower" everywhere; the round every server pays
                // must actually win where the fleet is largest. On a
                // rung so dense that the engine itself chose to sweep
                // (it stepped most of the fleet every round — tiny cells
                // against the distance a round moves a node) the two
                // columns time the same code path, so the floor there is
                // parity to within the noise of two such runs.
                let swept = r.unified_stepped * 2.0 >= s.nodes as f64;
                let floor = if swept {
                    min_speedup.min(SWEPT_FLOOR)
                } else {
                    min_speedup
                };
                let largest = op == "evaluate_advancing" && i + 1 == scales.len();
                if speedup < floor || (largest && speedup <= 1.0) {
                    eprintln!(
                        "FAIL: unified {op} speedup {speedup:.2}x below required \
                         {floor:.2}x at {}x{}",
                        s.nodes, s.queries
                    );
                    failed = true;
                } else {
                    println!(
                        "PASS: unified {op} {speedup:.2}x the sweep baseline at {}x{}",
                        s.nodes, s.queries
                    );
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
