//! Chaos/conformance suite for the fault-injected uplink: every test is
//! seeded-deterministic (no wall clock, no ambient entropy), so a failure
//! here is a real regression, not flake.
//!
//! The suite pins four contracts:
//! 1. **Reproducibility** — a `(FaultProfile, seed)` pair yields
//!    bit-identical reports, in sequential *and* parallel pipeline modes.
//! 2. **Conformance** — the zero-fault profile is bit-identical to the
//!    perfect-channel path the seed repository always ran.
//! 3. **Degradation** — accuracy degrades monotonically (within
//!    tolerance) as channel loss rises, and the closed-loop controller
//!    survives outages with finite, recovering `z`.
//! 4. **Accounting** — sent = delivered + lost + pending, always.

use lira::prelude::*;

/// A compact scenario so the whole suite stays debug-build friendly.
fn base_scenario(seed: u64) -> Scenario {
    let mut sc = Scenario::small(seed);
    sc.num_cars = 150;
    sc.warmup_s = 20.0;
    sc.duration_s = 60.0;
    sc
}

/// A profile exercising every fault model at once.
fn stormy_profile() -> FaultProfile {
    FaultProfile {
        loss: LossModel::GilbertElliott {
            p_g2b: 0.05,
            p_b2g: 0.3,
            loss_good: 0.02,
            loss_bad: 0.8,
        },
        delay: DelayModel::Uniform {
            min_s: 0.0,
            max_s: 3.0,
        },
        duplicate_prob: 0.05,
        outages: vec![Outage::window(50.0, 60.0)],
        retry: RetryPolicy {
            max_retries: 2,
            backoff_s: 1.0,
        },
    }
}

/// Field-by-field bitwise comparison of two outcomes, excluding the
/// wall-clock `adapt_micros` timings (their *length* must still agree)
/// and the fault books (compared separately where both sides keep them —
/// the perfect-channel path reports all zeros by construction).
fn assert_outcomes_identical(a: &PolicyOutcome, b: &PolicyOutcome, ctx: &str) {
    assert_eq!(a.policy, b.policy, "{ctx}");
    assert_eq!(a.metrics, b.metrics, "{ctx}: metrics diverged");
    assert_eq!(a.updates_sent, b.updates_sent, "{ctx}");
    assert_eq!(a.updates_processed, b.updates_processed, "{ctx}");
    assert_eq!(
        a.processed_fraction.to_bits(),
        b.processed_fraction.to_bits(),
        "{ctx}"
    );
    assert_eq!(a.plan_regions, b.plan_regions, "{ctx}");
    assert_eq!(a.adapt_micros.len(), b.adapt_micros.len(), "{ctx}");
}

#[test]
fn zero_fault_profile_is_bit_identical_to_perfect_channel() {
    // `None` runs the historical inline ingest path; `FaultProfile::none`
    // routes through the channel machinery with every model disabled.
    // The two must be indistinguishable down to the last bit, for every
    // policy — this is the conformance proof that inserting the channel
    // layer cannot have changed the seed repository's behavior.
    let perfect = base_scenario(91);
    let faultless = base_scenario(91).with_faults(FaultProfile::none());
    let a = run_scenario(&perfect, &Policy::ALL);
    let b = run_scenario(&faultless, &Policy::ALL);
    assert_eq!(a.reference_updates, b.reference_updates);
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        assert_outcomes_identical(oa, ob, oa.policy.name());
        // The channel path *does* keep its own books.
        assert_eq!(ob.faults.sent, ob.faults.delivered);
        assert_eq!(ob.faults.lost, 0);
    }
}

#[test]
fn same_profile_and_seed_reproduce_bit_identical_reports() {
    let sc = base_scenario(17).with_faults(stormy_profile());
    let a = run_scenario(&sc, &[Policy::Lira, Policy::RandomDrop]);
    let b = run_scenario(&sc, &[Policy::Lira, Policy::RandomDrop]);
    assert_eq!(a.reference_updates, b.reference_updates);
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        assert_outcomes_identical(oa, ob, oa.policy.name());
        assert_eq!(oa.faults, ob.faults, "{}: fault books", oa.policy.name());
    }
    // The profile actually bites: faults fired somewhere.
    let f = &a.outcomes[0].faults;
    assert!(f.lost + f.retries + f.duplicates > 0, "{f:?}");
}

#[test]
fn parallel_lanes_match_sequential_under_faults() {
    // The per-lane channel derives from the lane-RNG rule, so lanes stay
    // self-contained and thread scheduling cannot leak into results: two
    // threaded runs, each scheduled as the host pleases, must agree.
    let sc = base_scenario(23).with_faults(stormy_profile());
    let seq = SimPipeline::new().run(&sc, &Policy::ALL);
    let par = SimPipeline::new().run(&sc, &Policy::ALL);
    assert_eq!(seq.reference_updates, par.reference_updates);
    for (os, op) in seq.outcomes.iter().zip(&par.outcomes) {
        assert_outcomes_identical(os, op, os.policy.name());
        assert_eq!(os.faults, op.faults, "{}: fault books", os.policy.name());
    }
}

#[test]
fn fault_accounting_is_conserved_across_policies() {
    let sc = base_scenario(31).with_faults(stormy_profile());
    let report = run_scenario(&sc, &Policy::ALL);
    for o in &report.outcomes {
        let f = &o.faults;
        assert!(f.accounted(), "{}: {f:?}", o.policy.name());
        assert_eq!(f.sent, o.updates_sent, "{}", o.policy.name());
        assert!(f.delivered <= f.sent);
        assert!(f.transmissions >= f.sent, "retries only add transmissions");
        // A duplicate copy rides the same transmission (ack-loss model),
        // so airtime decomposes as originals + retries exactly.
        assert_eq!(f.transmissions, f.sent + f.retries);
        // The server can only apply what the channel delivered.
        assert!(o.updates_processed <= f.delivered + f.duplicates);
        assert!(f.mean_staleness_s >= 0.0 && f.mean_staleness_s.is_finite());
    }
}

#[test]
fn accuracy_degrades_monotonically_with_loss_rate() {
    // Position error under LIRA must not *improve* when the channel gets
    // worse. Exact monotonicity is too strict for a stochastic system —
    // a 10% relative tolerance absorbs single-seed noise while still
    // failing on any real inversion (the 0 → 0.6 gap is far larger).
    let losses = [0.0, 0.3, 0.6];
    let errors: Vec<f64> = losses
        .iter()
        .map(|&p| {
            let mut sc = base_scenario(47);
            if p > 0.0 {
                sc = sc.with_faults(FaultProfile::iid_loss(p));
            }
            let report = run_scenario(&sc, &[Policy::Lira]);
            report.outcomes[0].metrics.mean_position
        })
        .collect();
    for w in errors.windows(2) {
        assert!(
            w[1] >= w[0] * 0.9,
            "error must not shrink as loss rises: {errors:?}"
        );
    }
    assert!(
        errors[2] > errors[0],
        "60% loss must hurt vs a clean channel: {errors:?}"
    );
}

#[test]
fn pure_duplication_is_accuracy_neutral() {
    // A duplicate of an undelayed update carries the same motion model at
    // the same timestamp: the node store overwrite is idempotent, so
    // accuracy must be bit-identical to the clean channel — only the
    // accounting may differ.
    let clean = base_scenario(53);
    let dup = base_scenario(53).with_faults(FaultProfile {
        duplicate_prob: 1.0,
        ..FaultProfile::none()
    });
    let a = run_scenario(&clean, &[Policy::Lira]);
    let b = run_scenario(&dup, &[Policy::Lira]);
    assert_eq!(a.outcomes[0].metrics, b.outcomes[0].metrics);
    assert_eq!(b.outcomes[0].faults.duplicates, b.outcomes[0].faults.sent);
}

#[test]
fn retries_recover_updates_an_outage_would_lose() {
    let outage = Outage::window(40.0, 55.0);
    let run = |retry: RetryPolicy| {
        let sc = base_scenario(59).with_faults(FaultProfile {
            outages: vec![outage],
            retry,
            ..FaultProfile::none()
        });
        run_scenario(&sc, &[Policy::Lira]).outcomes[0].clone()
    };
    let without = run(RetryPolicy::none());
    let with = run(RetryPolicy {
        max_retries: 30,
        backoff_s: 1.0,
    });
    assert!(
        without.faults.lost > 0,
        "the outage must actually lose traffic: {:?}",
        without.faults
    );
    assert!(with.faults.retries > 0);
    assert!(
        with.faults.lost < without.faults.lost,
        "retries must recover losses: {:?} vs {:?}",
        with.faults,
        without.faults
    );
    assert!(with.faults.delivered > without.faults.delivered);
}

#[test]
fn closed_loop_survives_outage_and_recovers_throttle() {
    // An outage starves the input queue (λ collapses), then ends with the
    // retry backlog flushing in. The controller must keep z finite and in
    // range at every window and come back up once conditions normalize.
    let mut sc = base_scenario(67);
    sc.duration_s = 120.0;
    let sc = sc.with_faults(FaultProfile {
        outages: vec![Outage::window(50.0, 80.0)],
        retry: RetryPolicy {
            max_retries: 5,
            backoff_s: 2.0,
        },
        ..FaultProfile::none()
    });
    let cfg = AdaptiveConfig {
        service_rate: 400.0,
        queue_capacity: 400,
        control_period_s: 10.0,
    };
    let report = run_adaptive(&sc, &cfg);
    for w in &report.windows {
        assert!(
            w.throttle.is_finite() && (1e-3..=1.0).contains(&w.throttle),
            "window at t = {} has z = {}",
            w.time,
            w.throttle
        );
        assert!(w.arrival_rate.is_finite());
    }
    // Capacity is ample outside the outage: the controller ends back at
    // (or near) the full budget instead of wedging low.
    assert!(
        report.final_throttle > 0.9,
        "z failed to recover: {}",
        report.final_throttle
    );
    assert!(report.faults.accounted(), "{:?}", report.faults);
}

#[test]
fn adaptive_zero_fault_profile_matches_perfect_channel() {
    // The closed loop gets the same conformance guarantee as the fixed-z
    // pipeline: a disabled channel changes nothing.
    let mut perfect = base_scenario(71);
    perfect.duration_s = 80.0;
    let faultless = perfect.clone().with_faults(FaultProfile::none());
    let cfg = AdaptiveConfig {
        service_rate: 60.0,
        queue_capacity: 150,
        control_period_s: 10.0,
    };
    let a = run_adaptive(&perfect, &cfg);
    let b = run_adaptive(&faultless, &cfg);
    assert_eq!(a.windows, b.windows);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(
        a.final_throttle.to_bits(),
        b.final_throttle.to_bits(),
        "z diverged: {} vs {}",
        a.final_throttle,
        b.final_throttle
    );
    assert_eq!(a.drop_fraction.to_bits(), b.drop_fraction.to_bits());
}

#[test]
fn full_space_regional_outage_is_bit_identical_to_a_global_window() {
    // A regional outage whose rect covers every possible sender position
    // is the same fault as a plain time-window outage — down to the last
    // bit, since outage losses draw no RNG either way.
    let sc = base_scenario(37);
    let everywhere = Rect::from_coords(-1.0, -1.0, sc.space_side + 1.0, sc.space_side + 1.0);
    let global = sc.clone().with_faults(FaultProfile {
        outages: vec![Outage::window(30.0, 45.0)],
        ..FaultProfile::none()
    });
    let regional = sc.with_faults(FaultProfile {
        outages: vec![Outage::regional(30.0, 45.0, everywhere)],
        ..FaultProfile::none()
    });
    let a = run_scenario(&global, &Policy::ALL);
    let b = run_scenario(&regional, &Policy::ALL);
    assert_eq!(a.reference_updates, b.reference_updates);
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        assert_outcomes_identical(oa, ob, oa.policy.name());
        assert_eq!(oa.faults, ob.faults, "{}: fault books", oa.policy.name());
    }
    assert!(a.outcomes[0].faults.lost > 0, "the outage must bite");
}

#[test]
fn regional_outage_loses_strictly_less_than_its_global_counterpart() {
    // Failing one quadrant's base stations must lose some traffic (cars
    // do drive there) but strictly less than failing all of them over the
    // same window.
    let sc = base_scenario(43);
    let side = sc.space_side;
    let quadrant = Rect::from_coords(0.0, 0.0, side / 2.0, side / 2.0);
    let run = |outage: Outage| {
        let sc = base_scenario(43).with_faults(FaultProfile {
            outages: vec![outage],
            ..FaultProfile::none()
        });
        run_scenario(&sc, &[Policy::Lira]).outcomes[0].clone()
    };
    let regional = run(Outage::regional(30.0, 60.0, quadrant));
    let global = run(Outage::window(30.0, 60.0));
    assert!(
        regional.faults.lost > 0,
        "cars inside the quadrant must lose updates: {:?}",
        regional.faults
    );
    assert!(
        regional.faults.lost < global.faults.lost,
        "a quadrant outage cannot lose as much as a global one: {} vs {}",
        regional.faults.lost,
        global.faults.lost
    );
    // Less lost traffic must not make accuracy *worse* than the global
    // blackout (generous tolerance: different loss patterns shift the
    // evaluation rounds they land in).
    assert!(regional.metrics.mean_position <= global.metrics.mean_position * 1.1);
}

#[test]
fn outage_boundaries_are_start_inclusive_end_exclusive() {
    // Regression pin for the window convention, global and regional: a
    // transmission at exactly `start_s` is lost, one at exactly `end_s`
    // goes through.
    let region = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
    let inside = Point::new(50.0, 50.0);
    let profile = FaultProfile {
        outages: vec![
            Outage::window(10.0, 20.0),
            Outage::regional(30.0, 40.0, region),
        ],
        ..FaultProfile::none()
    };
    let mut ch: FaultyChannel<u32> = FaultyChannel::new(profile, 5);
    ch.send(10.0, 1); // global start: lost
    ch.send(20.0, 2); // global end: delivered
    ch.send_from(30.0, inside, 3); // regional start, inside: lost
    ch.send_from(40.0, inside, 4); // regional end, inside: delivered
    ch.send_from(35.0, Point::new(500.0, 500.0), 5); // mid-window, outside: delivered
                                                     // Ordered by delivery time: 2 at 20.0, 5 at 35.0, 4 at 40.0.
    let got: Vec<u32> = ch.drain(50.0).into_iter().map(|d| d.payload).collect();
    assert_eq!(got, vec![2, 5, 4]);
    let stats = ch.stats();
    assert_eq!(stats.lost, 2);
    assert_eq!(stats.rng_draws, 0, "outage decisions must not draw RNG");
}

#[test]
fn retry_backoff_chain_across_outage_edges_is_pinned() {
    // A send inside one outage whose retry cadence walks straight into a
    // second window: attempts at 5.5 (lost, in [5,6)), 10.0 (lost —
    // start-inclusive), 14.5 and 19.0 (lost, inside [10,20)), and 23.5
    // (clear air, delivered). The update survives with exactly 4 retries
    // and arrives at 23.5, 18 s stale.
    let profile = FaultProfile {
        outages: vec![Outage::window(5.0, 6.0), Outage::window(10.0, 20.0)],
        retry: RetryPolicy {
            max_retries: 4,
            backoff_s: 4.5,
        },
        ..FaultProfile::none()
    };
    let mut ch: FaultyChannel<u32> = FaultyChannel::new(profile, 5);
    ch.send(5.5, 7);
    assert!(ch.poll(23.4).is_empty(), "nothing may arrive early");
    // Poll (not drain): drain would abandon the queued 23.5 retry.
    let got = ch.poll(30.0);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].payload, 7);
    assert_eq!(got[0].sent_at, 5.5);
    assert_eq!(got[0].delivered_at, 23.5);
    let stats = ch.stats();
    assert_eq!((stats.delivered, stats.retries, stats.lost), (1, 4, 0));
    assert_eq!(stats.transmissions, 5);
    // One retry fewer and the 19.0 attempt is the last: the update dies
    // inside the second window instead.
    let profile = FaultProfile {
        outages: vec![Outage::window(5.0, 6.0), Outage::window(10.0, 20.0)],
        retry: RetryPolicy {
            max_retries: 3,
            backoff_s: 4.5,
        },
        ..FaultProfile::none()
    };
    let mut ch: FaultyChannel<u32> = FaultyChannel::new(profile, 5);
    ch.send(5.5, 7);
    assert!(ch.poll(30.0).is_empty());
    assert_eq!(ch.stats().lost, 1);
    assert_eq!(ch.stats().retries, 3);
}

#[test]
fn regional_blackout_scenario_end_to_end_accounting_holds() {
    // The catalog's regional-blackout composition (iid loss + regional
    // outage + retries) through the full pipeline: conservation laws and
    // determinism must survive the stacked fault models.
    let sc = NamedScenario::RegionalBlackout.tiny(61);
    let a = run_scenario(&sc, &Policy::ALL);
    let b = run_scenario(&sc, &Policy::ALL);
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        assert_outcomes_identical(oa, ob, oa.policy.name());
        assert_eq!(oa.faults, ob.faults, "{}: fault books", oa.policy.name());
        assert!(
            oa.faults.accounted(),
            "{}: {:?}",
            oa.policy.name(),
            oa.faults
        );
        assert!(
            oa.faults.lost > 0,
            "{}: the blackout must lose traffic",
            oa.policy.name()
        );
        assert!(oa.faults.retries > 0, "{}", oa.policy.name());
    }
}

#[test]
fn delay_reordering_keeps_metrics_finite_and_bounded() {
    // Heavy reordering (delays far beyond the update cadence) stresses
    // the node store's stale-rejection path; the run must stay sane:
    // finite errors, monotone accounting, staleness within the delay
    // bound.
    let sc = base_scenario(83).with_faults(FaultProfile {
        delay: DelayModel::Uniform {
            min_s: 0.0,
            max_s: 8.0,
        },
        ..FaultProfile::none()
    });
    let report = run_scenario(&sc, &[Policy::Lira, Policy::UniformDelta]);
    for o in &report.outcomes {
        assert!(o.metrics.mean_containment.is_finite());
        assert!(o.metrics.mean_position.is_finite());
        assert!(o.faults.accounted(), "{:?}", o.faults);
        assert!(
            o.faults.mean_staleness_s > 0.0 && o.faults.mean_staleness_s < 8.0,
            "staleness {} outside the delay envelope",
            o.faults.mean_staleness_s
        );
        // Delayed-but-delivered updates may be rejected as stale, never
        // invented: processed ≤ delivered.
        assert!(o.updates_processed <= o.faults.delivered);
    }
}
