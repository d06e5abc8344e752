//! Integration tests of the distribution pipeline: server plan → base
//! stations → wire encoding → mobile nodes, plus dead-reckoning round
//! trips between mobile and server state.

use lira::prelude::*;
use lira_core::telemetry::COMPILED_OUT;

/// A deterministic heterogeneous statistics grid for plan construction.
fn demo_grid(bounds: Rect, alpha: usize) -> StatsGrid {
    let mut grid = StatsGrid::new(alpha, bounds).unwrap();
    grid.begin_snapshot();
    // Dense, slow cluster in the SW; sparse, fast traffic in the NE.
    for i in 0..400 {
        let p = Point::new(
            bounds.width() * 0.05 + (i % 20) as f64 * bounds.width() * 0.01,
            bounds.height() * 0.05 + (i / 20) as f64 * bounds.height() * 0.01,
        );
        grid.observe_node(&p, 6.0, 1.0);
    }
    for i in 0..40 {
        let p = Point::new(
            bounds.width() * (0.6 + 0.01 * (i % 8) as f64),
            bounds.height() * (0.6 + 0.01 * (i / 8) as f64),
        );
        grid.observe_node(&p, 25.0, 1.0);
    }
    for i in 0..12 {
        let x = bounds.width() * (0.55 + 0.03 * (i % 4) as f64);
        let y = bounds.height() * (0.55 + 0.03 * (i / 4) as f64);
        grid.observe_query(&Rect::from_coords(
            x,
            y,
            x + bounds.width() * 0.05,
            y + bounds.height() * 0.05,
        ));
    }
    grid.commit_snapshot();
    grid
}

#[test]
fn plan_distribution_round_trip_preserves_lookups() {
    let bounds = Rect::from_coords(0.0, 0.0, 8192.0, 8192.0);
    let grid = demo_grid(bounds, 64);
    let mut config = LiraConfig::default();
    config.bounds = bounds;
    config = config.with_regions(40);
    let shedder = LiraShedder::new(config.clone()).unwrap();
    let plan = shedder.adapt_with_throttle(&grid, 0.4).unwrap().plan;

    // Base stations on a uniform grid with 1.5 km radius.
    let stations = uniform_placement(&bounds, 1500.0);
    assert!(!stations.is_empty());

    // For a probe set of points: resolve via station → wire → mobile node
    // and compare against the server plan.
    for i in 0..40 {
        for j in 0..40 {
            let p = Point::new(i as f64 * 200.0 + 17.0, j as f64 * 200.0 + 13.0);
            let sid = station_for(&stations, &p).unwrap();
            let subset = plan.subset_for(&stations[sid as usize].coverage);
            let wire = SheddingPlan::new(bounds, subset, config.delta_min).encode();
            let received = SheddingPlan::decode(bounds, &wire, config.delta_min).unwrap();
            let mobile = MobileShedder::install(0, received.regions().to_vec(), config.delta_min);
            let local = mobile.throttler_at(&p);
            let server = plan.throttler_at(&p);
            assert!(
                (local - server).abs() < 1e-3,
                "at {p}: mobile {local} vs server {server}"
            );
        }
    }
}

#[test]
fn station_subsets_cover_their_disks() {
    let bounds = Rect::from_coords(0.0, 0.0, 8192.0, 8192.0);
    let grid = demo_grid(bounds, 64);
    let mut config = LiraConfig::default();
    config.bounds = bounds;
    config = config.with_regions(25);
    let shedder = LiraShedder::new(config).unwrap();
    let plan = shedder.adapt_with_throttle(&grid, 0.5).unwrap().plan;
    for station in uniform_placement(&bounds, 2000.0) {
        let subset = plan.subset_for(&station.coverage);
        // Every plan region intersecting the disk must be in the subset.
        let expected = plan
            .regions()
            .iter()
            .filter(|r| station.coverage.intersects_rect(&r.area))
            .count();
        assert_eq!(subset.len(), expected);
    }
}

#[test]
fn dead_reckoning_keeps_server_within_delta() {
    // The fundamental dead-reckoning contract across the mobile and server
    // crates: at every observation instant, the server's prediction is
    // within the node's threshold of its true position.
    let net = generate_network(&NetworkConfig::small(3));
    let bounds = *net.bounds();
    let demand = TrafficDemand::random_hotspots(&bounds, 2, 3);
    let mut sim = TrafficSimulator::new(
        net,
        &demand,
        TrafficConfig {
            num_cars: 30,
            seed: 3,
        },
    );
    let mut server = CqServer::new(bounds, 30, 16);
    let mut reckoners = vec![DeadReckoner::new(); 30];
    let delta = 25.0;
    for _ in 0..300 {
        sim.step(1.0);
        let t = sim.time();
        for (i, car) in sim.cars().iter().enumerate() {
            if let Some(rep) =
                reckoners[i].observe(i as u32, t, car.position(), car.velocity(), delta)
            {
                server.ingest(rep.node, t, rep.model.origin, rep.model.velocity);
            }
            let predicted = server.predict(i as u32, t).expect("first tick reports");
            let true_pos = car.position();
            assert!(
                predicted.distance(&true_pos) <= delta + 1e-6,
                "node {i}: prediction off by {}",
                predicted.distance(&true_pos)
            );
        }
    }
}

#[test]
fn reference_and_shed_servers_agree_at_z_one() {
    // With z = 1 the plan is Δ⊢ everywhere: both servers see identical
    // update streams, so all error metrics must be exactly zero.
    let mut sc = Scenario::small(19);
    sc.throttle = 1.0;
    sc.duration_s = 60.0;
    let report = run_scenario(&sc, &[Policy::Lira, Policy::UniformDelta]);
    for o in &report.outcomes {
        assert_eq!(
            o.metrics.mean_containment, 0.0,
            "{:?} containment at z=1",
            o.policy
        );
        assert_eq!(
            o.metrics.mean_position, 0.0,
            "{:?} position at z=1",
            o.policy
        );
        assert_eq!(o.updates_processed, report.reference_updates);
    }
}

#[test]
fn a_lane_does_not_depend_on_its_neighbours() {
    // The catalog battery scores every policy from one six-lane run, so a
    // lane must report the same cell alone as beside the other five. On
    // the perfect channel only Random Drop draws from an RNG seeded by its
    // roster index (`seed + 1000 + index`): it matches when it keeps that
    // index.
    let mut sc = Scenario::small(29);
    sc.duration_s = 60.0;
    let pipeline = SimPipeline::new();
    let all = pipeline.run(&sc, &Policy::ALL);
    let bits = |o: &PolicyOutcome| {
        let m = &o.metrics;
        [
            m.mean_containment,
            m.mean_position,
            m.stddev_containment,
            m.cov_containment,
            o.processed_fraction,
            o.plan_skew,
        ]
        .map(f64::to_bits)
    };
    for (i, cell) in all.outcomes.iter().enumerate() {
        let roster = match cell.policy {
            Policy::RandomDrop => &Policy::ALL[..=i],
            _ => std::slice::from_ref(&cell.policy),
        };
        let lane = pipeline.run(&sc, roster).outcomes.pop().unwrap();
        assert_eq!(lane.policy, cell.policy);
        assert_eq!(bits(&lane), bits(cell), "{:?} metrics", cell.policy);
        assert_eq!(
            (lane.updates_sent, lane.updates_processed),
            (cell.updates_sent, cell.updates_processed),
            "{:?} updates sent and processed",
            cell.policy
        );
    }
}

/// `SimPipeline::new().run(&Scenario::small(31) @ 90 s, &Policy::ALL)`,
/// per policy: `updates_sent`, `updates_processed`, `plan_regions`, then
/// the bits of E^C_rr, E^P_rr, D^C_ev, C^C_ov and the processed fraction.
/// Captured at commit 9438966 (PR 17), where the unified engine and the
/// since-deleted legacy per-query evaluator both produced exactly these.
const RUN_GOLDENS: [(Policy, u64, u64, usize, [u64; 5]); 6] = [
    (
        Policy::Lira,
        3258,
        3258,
        13,
        [
            0x3f9b62a5194082f6,
            0x3ffcca1871ca0ca5,
            0x3fa05b1f54364ec6,
            0x3ff31cb06e15f009,
            0x3fe408a86fc42e70,
        ],
    ),
    (
        Policy::LiraGrid,
        3220,
        3220,
        9,
        [
            0x3f98e671f5583912,
            0x400b853f42ac7ac3,
            0x3fa05c2e27ac1920,
            0x3ff5065cbc9db0e2,
            0x3fe3ccd6dfed1c23,
        ],
    ),
    (
        Policy::UniformDelta,
        3075,
        3075,
        1,
        [
            0x3fa9903b619becae,
            0x4012adaf998489a4,
            0x3f9d89754a9f3c64,
            0x3fe27cad2dc08c87,
            0x3fe2e8958be799ae,
        ],
    ),
    (
        Policy::RandomDrop,
        5204,
        2625,
        1,
        [
            0x3fcec4007e04790d,
            0x40395e8b0e6769e0,
            0x3fb582e760effaa2,
            0x3fd65fd98d25414c,
            0x3fe02434bc1d1f49,
        ],
    ),
    (
        Policy::UtilityGreedy,
        3365,
        3365,
        9,
        [
            0x3fa0438b340bb071,
            0x40183b55ed636cfa,
            0x3fa7f65f7beac963,
            0x3ff792db6c935ef7,
            0x3fe4b11833f29e99,
        ],
    ),
    (
        Policy::UtilityModel,
        3248,
        3248,
        9,
        [
            0x3f9aee9277605993,
            0x400a120e229574ce,
            0x3fa0ffb660588aff,
            0x3ff4329f4b6bfea3,
            0x3fe3f8ea8d483719,
        ],
    ),
];

#[test]
fn run_report_matches_the_pre_deletion_goldens() {
    // The acceptance bar the engine was admitted on, kept after the
    // legacy per-query evaluator it was compared to is gone: for a
    // fixed-seed scenario the whole multi-policy report must match the
    // captured one bit for bit — policy outcomes, update counts, fault
    // accounting, plan sizes. Only wall-clock fields (`adapt_micros`,
    // telemetry snapshots) are exempt.
    let mut sc = Scenario::small(31);
    sc.duration_s = 90.0;
    let report = SimPipeline::new().run(&sc, &Policy::ALL);

    assert_eq!(report.reference_updates, 5204);
    assert_eq!(report.num_queries, 10);
    assert_eq!(report.num_cars, 250);
    assert_eq!(report.outcomes.len(), RUN_GOLDENS.len());
    for (o, (policy, sent, processed, regions, bits)) in report.outcomes.iter().zip(RUN_GOLDENS) {
        assert_eq!(o.policy, policy);
        assert_eq!(o.updates_sent, sent, "{policy:?} sent");
        assert_eq!(o.updates_processed, processed, "{policy:?} processed");
        assert_eq!(o.plan_regions, regions, "{policy:?} regions");
        // A perfect channel: nothing sent through it, nothing drawn.
        assert_eq!(o.faults, FaultReport::default(), "{policy:?} faults");
        assert_eq!(
            [
                o.metrics.mean_containment,
                o.metrics.mean_position,
                o.metrics.stddev_containment,
                o.metrics.cov_containment,
                o.processed_fraction,
            ]
            .map(f64::to_bits),
            bits,
            "{policy:?} E^C_rr / E^P_rr / D^C_ev / C^C_ov / processed fraction"
        );
    }
}

#[test]
fn adaptive_report_is_bit_identical_across_engines() {
    // Same bar for the closed loop: THROTLOOP's whole trajectory (window
    // stats, final throttle, drop fraction) and the accuracy metrics must
    // match the run captured at commit 9438966 (PR 17, where the unified
    // engine and the since-deleted legacy evaluator agreed on it).
    let mut sc = Scenario::small(37);
    sc.num_cars = 200;
    sc.duration_s = 120.0;
    let cfg = AdaptiveConfig {
        service_rate: 60.0,
        queue_capacity: 300,
        control_period_s: 20.0,
    };
    let unified = SimPipeline::new().run_adaptive(&sc, &cfg, Policy::Lira);

    // At μ = 60 /s this world never overloads: six windows at z = 1 with
    // an empty queue, told apart by their arrival rates.
    let arrival_rates: Vec<u64> = unified
        .windows
        .iter()
        .map(|w| w.arrival_rate.to_bits())
        .collect();
    assert_eq!(
        arrival_rates,
        [
            0x404a200000000000,
            0x4046b9999999999a,
            0x4046b33333333333,
            0x4047a66666666666,
            0x4046d33333333333,
            0x404699999999999a,
        ]
    );
    for (i, w) in unified.windows.iter().enumerate() {
        assert_eq!(w.time, 50.0 + 20.0 * i as f64);
        assert_eq!((w.throttle, w.queue_len, w.dropped), (1.0, 0, 0));
    }
    assert_eq!(unified.final_throttle, 1.0);
    assert_eq!(unified.drop_fraction, 0.0);
    assert_eq!(unified.metrics, MetricsReport::default());
    assert_eq!(unified.faults, FaultReport::default());
}

#[test]
fn table3_region_counts_grow_with_radius() {
    // Table 3's shape: stations with larger coverage know more regions.
    let bounds = Rect::from_coords(0.0, 0.0, 14_142.0, 14_142.0);
    let grid = demo_grid(bounds, 128);
    let mut config = LiraConfig::default();
    config.bounds = bounds;
    let shedder = LiraShedder::new(config).unwrap();
    let plan = shedder.adapt_with_throttle(&grid, 0.5).unwrap().plan;
    // A fixed station growing its radius sees a superset of regions:
    // strictly monotone counts.
    let center = bounds.center();
    let mut prev = 0usize;
    for radius_km in [1.0, 2.0, 3.0, 4.0, 5.0] {
        let n = plan
            .subset_for(&Circle::new(center, radius_km * 1000.0))
            .len();
        assert!(
            n > prev,
            "radius {radius_km} km: {n} regions not more than {prev}"
        );
        prev = n;
    }
    // Across a whole placement the mean also grows from the smallest to
    // the largest radius (per-step counts can wobble as station positions
    // shift with the grid pitch).
    let small = mean_regions_per_station(&uniform_placement(&bounds, 1000.0), &plan);
    let large = mean_regions_per_station(&uniform_placement(&bounds, 5000.0), &plan);
    assert!(large > 2.0 * small, "1 km: {small}, 5 km: {large}");
}

/// The stormy profile of `tests/faults.rs`: every fault model at once.
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

/// One closed-loop run pinned bit for bit (captured at the commit before
/// the closed loop became a `SimPipeline` lane).
struct AdaptiveGolden {
    /// Per window: `(arrival_rate, throttle)` bits, `queue_len`, `dropped`.
    windows: &'static [(u64, u64, usize, u64)],
    final_throttle: u64,
    drop_fraction: u64,
    /// `MetricsReport` bits: E^C_rr, E^P_rr, D^C_ev, C^C_ov.
    metrics: [u64; 4],
    /// `FaultReport`: sent, transmissions, retries, delivered, duplicates,
    /// lost, pending, rng_draws.
    faults: [u64; 8],
    staleness: u64,
    /// `queue.service_latency_us` `(count, sum)`.
    latency: (u64, u64),
}

/// `Scenario::small(29)` at 300 cars x 200 s, in the order (mu, B) =
/// (25, 200) perfect, stormy; (10 000, 10 000) perfect, stormy.
const ADAPTIVE_GOLDENS: [AdaptiveGolden; 4] = [
    // LIRA mu=25 B=200 stormy=false
    AdaptiveGolden {
        windows: &[
            (0x4052833333333333, 0x3fe0000000000000, 175, 806),
            (0x4041533333333333, 0x3fd6f8fb329be3ed, 175, 193),
            (0x403ba66666666666, 0x3fd4aac194fe96a9, 175, 53),
            (0x403b400000000000, 0x3fd2dda29e521672, 175, 45),
            (0x40398ccccccccccd, 0x3fd25e0ac8baa09f, 175, 11),
            (0x403919999999999a, 0x3fd233e470bf12f1, 168, 9),
            (0x4038e66666666666, 0x3fd22f36b792ac5e, 158, 8),
            (0x40388ccccccccccd, 0x3fd26cd73ef4cf7f, 149, 0),
            (0x40398ccccccccccd, 0x3fd1f03a438e27b2, 160, 0),
            (0x4036b33333333333, 0x3fd3a83b55de9854, 114, 0),
        ],
        final_throttle: 0x3fd3a83b55de9854,
        drop_fraction: 0x3fc714a3a2f05de2,
        metrics: [
            0x3fdd7830197b33fc,
            0x4049ad8c04162fa8,
            0x3fc5234cf82965d9,
            0x3fd6f3f6bc5623e6,
        ],
        faults: [0, 0, 0, 0, 0, 0, 0, 0],
        staleness: 0x0000000000000000,
        latency: (5000, 32322000000),
    },
    // LIRA mu=25 B=200 stormy=true
    AdaptiveGolden {
        windows: &[
            (0x4051533333333333, 0x3fe0000000000000, 175, 736),
            (0x4038266666666666, 0x3fe07af6fd5992d1, 173, 10),
            (0x4044c00000000000, 0x3fd3c1acb76cec26, 175, 328),
            (0x403b266666666666, 0x3fd219df8a5a9a22, 175, 43),
            (0x403959999999999a, 0x3fd1c30b929e1477, 175, 7),
            (0x403a666666666666, 0x3fd0bc626b5c389d, 175, 28),
            (0x4037666666666666, 0x3fd1ca7278250af4, 143, 0),
            (0x403959999999999a, 0x3fd1751b7efb7304, 150, 0),
            (0x4038cccccccccccd, 0x3fd1829f733cb9d1, 146, 0),
            (0x4037266666666666, 0x3fd2d0a424bd6160, 109, 0),
        ],
        final_throttle: 0x3fd2d0a424bd6160,
        drop_fraction: 0x3fc7bdb90624304e,
        metrics: [
            0x3fe31edcc4cbe103,
            0x4051fc38b0fe0eaf,
            0x3fc94f04bfab6c6d,
            0x3fd52d9d79dbc95c,
        ],
        faults: [6297, 7785, 1488, 5920, 291, 321, 56, 25790],
        staleness: 0x3ffa42ab1ebd7053,
        latency: (4950, 29982000000),
    },
    // LIRA mu=10000 B=10000 stormy=false
    AdaptiveGolden {
        windows: &[
            (0x4052833333333333, 0x3ff0000000000000, 0, 0),
            (0x405089999999999a, 0x3ff0000000000000, 0, 0),
            (0x4050566666666666, 0x3ff0000000000000, 0, 0),
            (0x40507ccccccccccd, 0x3ff0000000000000, 0, 0),
            (0x4050966666666666, 0x3ff0000000000000, 0, 0),
            (0x4050c66666666666, 0x3ff0000000000000, 0, 0),
            (0x4050400000000000, 0x3ff0000000000000, 0, 0),
            (0x4050633333333333, 0x3ff0000000000000, 0, 0),
            (0x4050a9999999999a, 0x3ff0000000000000, 0, 0),
            (0x4050e33333333333, 0x3ff0000000000000, 0, 0),
        ],
        final_throttle: 0x3ff0000000000000,
        drop_fraction: 0x0000000000000000,
        metrics: [
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
        faults: [0, 0, 0, 0, 0, 0, 0, 0],
        staleness: 0x0000000000000000,
        latency: (13394, 0),
    },
    // LIRA mu=10000 B=10000 stormy=true
    AdaptiveGolden {
        windows: &[
            (0x4051533333333333, 0x3ff0000000000000, 0, 0),
            (0x4043cccccccccccd, 0x3ff0000000000000, 0, 0),
            (0x4050d9999999999a, 0x3ff0000000000000, 0, 0),
            (0x4051533333333333, 0x3ff0000000000000, 0, 0),
            (0x4051d9999999999a, 0x3ff0000000000000, 0, 0),
            (0x4051666666666666, 0x3ff0000000000000, 0, 0),
            (0x4050e9999999999a, 0x3ff0000000000000, 0, 0),
            (0x4051533333333333, 0x3ff0000000000000, 0, 0),
            (0x4051500000000000, 0x3ff0000000000000, 0, 0),
            (0x4051966666666666, 0x3ff0000000000000, 0, 0),
        ],
        final_throttle: 0x3ff0000000000000,
        drop_fraction: 0x0000000000000000,
        metrics: [
            0x3fb7f215fe4f0abc,
            0x401f064f3fa4abe3,
            0x3fab210ac492118a,
            0x3fe220898c115856,
        ],
        faults: [13394, 16369, 2975, 12632, 631, 604, 158, 55182],
        staleness: 0x3ffa32f7925290f3,
        latency: (13263, 0),
    },
];

/// `(policy, stormy, [final_throttle, drop_fraction, E^C_rr, E^P_rr] bits,
/// queue.service_latency_us sum)` at (mu, B) = (25, 200).
const ADAPTIVE_POLICY_GOLDENS: [(Policy, bool, [u64; 4], u64); 4] = [
    (
        Policy::UtilityModel,
        false,
        [
            0x3fd3e1ced2290cb2,
            0x3fc71882800a7e13,
            0x3fddfa557ea9536c,
            0x40493d7663c6e1cc,
        ],
        30550000000,
    ),
    (
        Policy::RandomDrop,
        false,
        [
            0x3fd67598a83b4d0c,
            0x3fc4c5e4c5e4c5e5,
            0x3fe6028844730ccb,
            0x4057f3a4b233bead,
        ],
        29142000000,
    ),
    (
        Policy::UtilityModel,
        true,
        [
            0x3fd10c8ea8866890,
            0x3fc6f96f96f96f97,
            0x3fe3945afef44085,
            0x4052863aadfcb9fc,
        ],
        30741000000,
    ),
    (
        Policy::RandomDrop,
        true,
        [
            0x3fd58e13bd8fb79e,
            0x3fc65f5f949c9b9d,
            0x3feaa1dfcf3ee7f9,
            0x405ebbed6c68a29c,
        ],
        27763000000,
    ),
];
fn adaptive_golden_scenario(stormy: bool) -> Scenario {
    let mut sc = Scenario::small(29);
    sc.num_cars = 300;
    sc.duration_s = 200.0;
    if stormy {
        sc.with_faults(stormy_profile())
    } else {
        sc
    }
}

fn latency(report: &AdaptiveReport) -> (u64, u64) {
    let h = report
        .telemetry
        .histogram("queue.service_latency_us")
        .expect("closed loop records service latency");
    (h.count, h.sum)
}

#[test]
fn run_adaptive_matches_the_pre_lane_goldens() {
    let configs = [(25.0, 200usize), (10_000.0, 10_000)];
    for (i, golden) in ADAPTIVE_GOLDENS.iter().enumerate() {
        let (service_rate, queue_capacity) = configs[i / 2];
        let stormy = i % 2 == 1;
        let ctx = format!("mu = {service_rate}, B = {queue_capacity}, stormy = {stormy}");
        let cfg = AdaptiveConfig {
            service_rate,
            queue_capacity,
            control_period_s: 20.0,
        };
        let r = run_adaptive(&adaptive_golden_scenario(stormy), &cfg);
        let windows: Vec<_> = r
            .windows
            .iter()
            .map(|w| {
                (
                    w.arrival_rate.to_bits(),
                    w.throttle.to_bits(),
                    w.queue_len,
                    w.dropped,
                )
            })
            .collect();
        assert_eq!(windows, golden.windows, "{ctx}: windows");
        assert_eq!(r.final_throttle.to_bits(), golden.final_throttle, "{ctx}");
        assert_eq!(r.drop_fraction.to_bits(), golden.drop_fraction, "{ctx}");
        let m = &r.metrics;
        assert_eq!(
            [
                m.mean_containment,
                m.mean_position,
                m.stddev_containment,
                m.cov_containment
            ]
            .map(f64::to_bits),
            golden.metrics,
            "{ctx}: metrics"
        );
        let f = &r.faults;
        assert_eq!(
            [
                f.sent,
                f.transmissions,
                f.retries,
                f.delivered,
                f.duplicates,
                f.lost,
                f.pending,
                f.rng_draws
            ],
            golden.faults,
            "{ctx}: faults"
        );
        assert_eq!(f.mean_staleness_s.to_bits(), golden.staleness, "{ctx}");
        if !COMPILED_OUT {
            assert_eq!(latency(&r), golden.latency, "{ctx}: service latency");
        }
    }
}

#[test]
fn closed_loop_policies_match_the_pre_lane_goldens() {
    let cfg = AdaptiveConfig {
        service_rate: 25.0,
        queue_capacity: 200,
        control_period_s: 20.0,
    };
    for (policy, stormy, bits, latency_sum) in ADAPTIVE_POLICY_GOLDENS {
        let r = SimPipeline::new().run_adaptive(&adaptive_golden_scenario(stormy), &cfg, policy);
        assert_eq!(
            [
                r.final_throttle,
                r.drop_fraction,
                r.metrics.mean_containment,
                r.metrics.mean_position
            ]
            .map(f64::to_bits),
            bits,
            "{policy:?}, stormy = {stormy}"
        );
        if !COMPILED_OUT {
            assert_eq!(latency(&r).1, latency_sum, "{policy:?}, stormy = {stormy}");
        }
    }
}

#[test]
fn closed_loop_without_a_window_keeps_the_configured_throttle() {
    // `duration_s < control_period_s`: THROTLOOP never observes, so the
    // throttle in force is the scenario's configured one.
    let mut sc = adaptive_golden_scenario(false);
    sc.duration_s = 10.0;
    let cfg = AdaptiveConfig {
        service_rate: 25.0,
        queue_capacity: 200,
        control_period_s: 20.0,
    };
    let r = run_adaptive(&sc, &cfg);
    assert!(r.windows.is_empty());
    assert_eq!(r.final_throttle, sc.throttle);
    assert_eq!(r.drop_fraction.to_bits(), 0x3fdfcf86d10a9a82);
    assert_eq!(r.metrics.mean_position.to_bits(), 0x40405ef0f016a64e);
}
