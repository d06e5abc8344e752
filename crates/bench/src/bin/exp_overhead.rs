//! `exp_overhead` — quantifies the wall-time cost of the telemetry layer.
//!
//! Runs the same multi-policy scenario repeatedly and reports the median
//! wall time:
//!
//! ```text
//! exp_overhead [--runs N] [--quick] [--assert --baseline-ms M]
//! ```
//!
//! * default output: `median_ms=<median>` — a machine-readable one-liner
//!   for CI;
//! * `--baseline-ms M` — also print the overhead against an externally
//!   measured median, finite and positive. CI measures it with a
//!   `--features telemetry-off` build of this same binary (the
//!   compile-time no-op), closing the loop on the "zero-overhead" claim;
//! * `--assert` — exit nonzero when the median exceeds the baseline by
//!   more than the 2% budget (plus a small absolute allowance for
//!   scheduler noise on short runs). Requires `--baseline-ms`.
//!
//! `--runs 0`, a `--baseline-ms` that is not finite and positive, and
//! `--assert` without a baseline exit 2 before the first run. Verifying
//! identical *outcomes* (not just cost) between the builds is the job of
//! the goldens, which hold in both.

use std::time::Instant;

use lira_core::telemetry::COMPILED_OUT;
use lira_sim::prelude::*;

/// Overhead budget: the instrumented build may cost at most 2% more wall
/// time than the baseline.
const BUDGET_FRAC: f64 = 0.02;
/// Absolute allowance (ms) so sub-second runs don't fail on OS jitter.
const NOISE_ALLOWANCE_MS: f64 = 30.0;

const USAGE: &str = "exp_overhead [--runs N] [--quick] [--assert --baseline-ms M]";

/// One invocation's options.
#[derive(Debug, PartialEq)]
struct Args {
    runs: usize,
    quick: bool,
    assert: bool,
    baseline_ms: Option<f64>,
}

/// Parses the flags (without the program name). Every refusal is a
/// message for [`usage`].
fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut runs = 5usize;
    let mut quick = false;
    let mut assert = false;
    let mut baseline_ms = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--runs" => {
                runs = match it.next().and_then(|v| v.parse().ok()) {
                    Some(0) | None => return Err("--runs needs a count of at least 1".into()),
                    Some(n) => n,
                }
            }
            "--baseline-ms" => {
                baseline_ms = match it.next().and_then(|v| v.parse::<f64>().ok()) {
                    Some(ms) if ms.is_finite() && ms > 0.0 => Some(ms),
                    _ => return Err("--baseline-ms needs finite, positive milliseconds".into()),
                }
            }
            "--assert" => assert = true,
            "--quick" => quick = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if assert && baseline_ms.is_none() {
        return Err("--assert needs --baseline-ms".into());
    }
    Ok(Args {
        runs,
        quick,
        assert,
        baseline_ms,
    })
}

fn scenario() -> Scenario {
    let mut sc = Scenario::small(17);
    sc.num_cars = 1000;
    sc.duration_s = 240.0;
    sc
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn time_run(sc: &Scenario) -> f64 {
    let started = Instant::now();
    let report = SimPipeline::new().run(sc, &Policy::ALL);
    // Keep the report alive past the clock read so the work can't be
    // optimized away.
    let elapsed = started.elapsed().as_secs_f64() * 1e3;
    assert!(report.reference_updates > 0);
    elapsed
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|msg| usage(&msg));

    let mut sc = scenario();
    if args.quick {
        sc.num_cars = 150;
        sc.duration_s = 60.0;
    }
    println!(
        "== exp_overhead: telemetry instrumentation cost ({} runs, {} nodes, {} s, telemetry {})",
        args.runs,
        sc.num_cars,
        sc.duration_s,
        if COMPILED_OUT {
            "compiled out"
        } else {
            "compiled in"
        },
    );

    // Warm-up run: page in the binary, build the allocator arenas.
    time_run(&sc);

    let mut samples: Vec<f64> = (0..args.runs).map(|_| time_run(&sc)).collect();
    let median_ms = median(&mut samples);
    println!("median_ms={median_ms:.1}");

    let Some(baseline) = args.baseline_ms else {
        return;
    };
    let overhead = median_ms - baseline;
    println!("baseline_ms={baseline:.1}");
    println!("overhead_pct={:.2}", overhead / baseline * 100.0);
    if args.assert {
        let budget_ms = baseline * BUDGET_FRAC + NOISE_ALLOWANCE_MS;
        if overhead > budget_ms {
            eprintln!(
                "FAIL: telemetry overhead {overhead:.1} ms exceeds budget {budget_ms:.1} ms ({}% of baseline + {} ms noise allowance)",
                BUDGET_FRAC * 100.0,
                NOISE_ALLOWANCE_MS,
            );
            std::process::exit(1);
        }
        println!("PASS: overhead {overhead:.1} ms within budget {budget_ms:.1} ms");
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Args, String> {
        parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn a_gate_needs_a_finite_positive_baseline() {
        // `nan` used to print `PASS: overhead NaN ms within budget NaN ms`
        // and exit 0: every comparison against NaN is false.
        for ms in ["nan", "inf", "-inf", "0", "-5", "ten"] {
            let err = parse_args(&["--assert", "--baseline-ms", ms]).expect_err(ms);
            assert!(err.starts_with("--baseline-ms"), "{ms}: {err}");
        }
        assert_eq!(
            parse_args(&["--assert"]),
            Err("--assert needs --baseline-ms".into())
        );
        assert_eq!(
            parse_args(&["--quick", "--assert", "--baseline-ms", "31.5"]),
            Ok(Args {
                runs: 5,
                quick: true,
                assert: true,
                baseline_ms: Some(31.5),
            })
        );
    }

    #[test]
    fn a_run_count_is_at_least_one() {
        // `--runs 0` used to panic in `median` (index out of bounds).
        for runs in ["0", "-1", "x"] {
            assert!(parse_args(&["--runs", runs]).is_err(), "--runs {runs}");
        }
        assert!(parse_args(&["--runs"]).is_err());
        assert_eq!(
            parse_args(&["--runs", "1"]),
            Ok(Args {
                runs: 1,
                quick: false,
                assert: false,
                baseline_ms: None,
            })
        );
    }
}
