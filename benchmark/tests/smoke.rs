//! Runs the whole suite at `--smoke` scale through `run.sh` and holds the
//! printed metrics to `BENCHMARK.json`: every name printed exactly once
//! per workload with its unit, and counts and digests that repeat.

use std::path::Path;
use std::process::Command;

use lira_core::telemetry::json::Json;

const WORKLOADS: [&str; 4] = ["serve_ingest", "serve_eval_1m", "serve_paced", "sim_paper"];

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// One smoke run of all four workloads; returns its stdout.
fn smoke(trace: bool) -> String {
    let out = Command::new("bash")
        .arg(manifest_dir().join("run.sh"))
        .args([
            "--smoke",
            "--seed",
            "42",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("run.sh starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "run.sh failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The result lines of a run, one per workload, in run order.
fn results(stdout: &str) -> Vec<Json> {
    let lines: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| Json::parse(l).expect("result line parses"))
        .collect();
    assert_eq!(lines.len(), WORKLOADS.len(), "one result line per workload");
    lines
}

fn members(j: &Json) -> &[(String, Json)] {
    match j {
        Json::Obj(m) => m,
        other => panic!("expected an object, got {other}"),
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(benchmark: &Json, key: &str) -> Vec<(String, String)> {
    benchmark
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn name_is_valid(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Checks one run's output against the declared metrics.
fn check_against(stdout: &str, declared: &[(String, String)]) {
    for (result, workload) in results(stdout).iter().zip(WORKLOADS) {
        assert_eq!(
            members(result)
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            ["correct", "attempted", "failed", "metrics"],
        );
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
        assert_eq!(result.get("failed"), Some(&Json::UInt(0)), "{workload}");
        assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let printed: Vec<(String, String)> = members(result.get("metrics").unwrap())
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                (
                    name.clone(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(printed, declared, "{workload}: names and units as declared");
    }
    // The human-readable report names each metric once per workload.
    for (name, unit) in declared {
        let lines = stdout
            .lines()
            .filter(|l| {
                let mut words = l.split_whitespace();
                words.next() == Some(name.as_str()) && words.nth(1) == Some(unit.as_str())
            })
            .count();
        assert_eq!(lines, WORKLOADS.len(), "{name} printed once per workload");
    }
}

/// The values of a traced run that are pure functions of the seed.
fn deterministic(stdout: &str) -> Vec<(String, Json)> {
    let mut out = Vec::new();
    for (result, workload) in results(stdout).iter().zip(WORKLOADS) {
        for (name, m) in members(result.get("metrics").unwrap()) {
            let repeats = name.starts_with("count.")
                || name.starts_with("sim.policy.")
                || ["final_z", "drop_frac", "pos_err_m"]
                    .iter()
                    .any(|s| name == &format!("sim.adaptive.{s}"))
                || name == "serve.server.bytes_rx"
                || name == "serve.server.frames_rx";
            if repeats {
                out.push((
                    format!("{workload}/{name}"),
                    m.get("value").unwrap().clone(),
                ));
            }
        }
    }
    out
}

#[test]
fn smoke_suite_prints_what_benchmark_json_declares() {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let benchmark = Json::parse(&text).expect("BENCHMARK.json parses");
    let end_to_end = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");
    for (name, _) in end_to_end.iter().chain(&per_layer) {
        assert!(name_is_valid(name), "{name}");
    }
    let listed: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(listed, WORKLOADS);

    check_against(&smoke(false), &end_to_end);
    let first = smoke(true);
    check_against(&first, &per_layer);
    let counts = deterministic(&first);
    assert!(counts
        .iter()
        .any(|(n, _)| n == "serve_paced/count.digest_lo32"));
    assert!(counts
        .iter()
        .any(|(n, _)| n == "sim_paper/sim.policy.lira.pos_err_m"));
    assert_eq!(
        counts,
        deterministic(&smoke(true)),
        "counts and digests repeat"
    );
}
