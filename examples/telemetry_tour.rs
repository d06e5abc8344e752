//! Telemetry tour: what the pipeline tells you about itself.
//!
//! Runs one policy-comparison scenario and one deliberately starved
//! closed loop, then reads the story back from the telemetry snapshots
//! alone — partitioner work, per-adaptation cost, the plan's Δ spread,
//! shed-skew, queue latency quantiles, and the controller's window
//! decisions.
//! Metric names and the operator's guide: docs/TELEMETRY.md.
//!
//! Run with: `cargo run --release --example telemetry_tour`

use lira::prelude::*;

fn main() {
    let mut sc = Scenario::small(23);
    sc.num_cars = 400;
    sc.duration_s = 120.0;

    // --- Open-loop policy comparison: one snapshot per lane. -----------
    println!(
        "== policy lanes ({} nodes, {} s, z = {})\n",
        sc.num_cars, sc.duration_s, sc.throttle
    );
    let report = run_scenario(&sc, &Policy::ALL);
    println!("lane           |   sent | admitted | adapt p50 (µs) | Δ spread (m) | greedy steps");
    println!("---------------+--------+----------+----------------+--------------+-------------");
    for o in &report.outcomes {
        let t = &o.telemetry;
        let adapts = t.histogram("lane.adapt_us");
        let deltas = t.histogram("plan.delta_m");
        println!(
            "{:<14} | {:>6} | {:>8} | {:>14} | {:>12} | {:>12}",
            o.policy.name(),
            t.counter("lane.updates_sent").unwrap_or(0),
            t.counter("lane.updates_admitted").unwrap_or(0),
            adapts
                .and_then(|h| h.quantile(0.5))
                .map_or("-".into(), |v| v.to_string()),
            deltas
                .and_then(|h| Some(format!("{}..{}", h.min?, h.max?)))
                .unwrap_or_else(|| "-".into()),
            t.counter("greedy.steps").unwrap_or(0),
        );
    }

    // Shed-skew: region-aware policies concentrate shedding, and the
    // per-region histograms show it (docs/TELEMETRY.md §4.3).
    println!("\nshed-skew (per-region admitted updates per plan epoch):");
    for o in &report.outcomes {
        if let Some(h) = o.telemetry.histogram("lane.region_admitted") {
            if h.count > 0 {
                println!(
                    "  {:<14} mean {:>6.1}   min {:>4}   max {:>5}",
                    o.policy.name(),
                    h.mean().unwrap_or(0.0),
                    h.min.unwrap_or(0),
                    h.max.unwrap_or(0),
                );
            }
        }
    }

    // Where the wall time went (nondeterministic, wall-clock).
    let p = &report.pipeline_telemetry;
    println!("\npipeline stages (µs):");
    for name in [
        "pipeline.setup_us",
        "pipeline.trace_us",
        "pipeline.reference_us",
        "pipeline.lanes_us",
    ] {
        if let Some(h) = p.histogram(name) {
            println!("  {:<24} {:>8}", name, h.sum);
        }
    }

    // --- Closed loop, starved on purpose: the windows tell the story. -
    let cfg = AdaptiveConfig {
        service_rate: 60.0,
        queue_capacity: 100,
        control_period_s: 20.0,
    };
    println!(
        "\n== closed loop, starved (µ = {} upd/s, B = {})\n",
        cfg.service_rate, cfg.queue_capacity
    );
    let adaptive = run_adaptive(&sc, &cfg);
    let t = &adaptive.telemetry;
    if let Some(w) = t.windows.last() {
        println!(
            "final operating point: λ = {:.1}/s  ρ = {:.2}  z = {:.3}  queue = {}",
            w.arrival_rate,
            w.arrival_rate / w.service_rate,
            w.throttle,
            w.queue_len,
        );
    }
    if let Some(h) = t.histogram("queue.service_latency_us") {
        println!(
            "queue latency: p50 {:?} µs  p99 {:?} µs  ({} serviced; {} overflow drops)",
            h.quantile(0.5).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
            h.count,
            t.counter("queue.overflow_drops").unwrap_or(0),
        );
    }
    println!(
        "controller steps: {} clamped, {} held, {} overload",
        t.counter("throtloop.clamped_steps").unwrap_or(0),
        t.counter("throtloop.held_steps").unwrap_or(0),
        t.counter("throtloop.overload_steps").unwrap_or(0),
    );
    let shown = t.windows.len().min(6);
    if shown > 0 {
        println!(
            "\nlast {shown} of {} windows:",
            t.windows.len() as u64 + t.windows_dropped
        );
        println!(
            "  {:>5} | {:>6} | {:>8} → {:<8} | {:>5} | {:>7} | step",
            "t", "λ", "z before", "z", "queue", "dropped"
        );
        for w in &t.windows[t.windows.len() - shown..] {
            println!(
                "  {:>5.0} | {:>6.1} | {:>8.3} → {:<8.3} | {:>5} | {:>7} | {:?}",
                w.time,
                w.arrival_rate,
                w.throttle_before,
                w.throttle,
                w.queue_len,
                w.dropped,
                w.step
            );
        }
    }

    // Every snapshot is JSON; this is what --telemetry-json writes.
    let json = adaptive.telemetry.to_json();
    println!(
        "\nsnapshot JSON: {} bytes (schema v2, docs/TELEMETRY.md §3)",
        json.len()
    );
}
