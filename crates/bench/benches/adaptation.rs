//! Criterion micro-benchmarks of the LIRA server-side algorithms and hot
//! paths. `adaptation/*` is the Criterion companion of Figure 14 (wall
//! clock of one full adaptation step); the rest cover the per-update and
//! per-lookup costs the paper argues are negligible.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lira_core::prelude::*;
use lira_mobility::generator::{generate_network, NetworkConfig};
use lira_mobility::motion::DeadReckoner;
use lira_mobility::router::{shortest_path, RouteCache};
use lira_mobility::simulator::{TrafficConfig, TrafficSimulator};
use lira_mobility::traffic::TrafficDemand;
use lira_server::cq_engine::CqServer;
use lira_server::queue::UpdateQueue;
use lira_workload::churn::ChurnWorkload;
use lira_workload::{generate_queries, QueryDistribution, WorkloadConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn build_grid(alpha: usize, bounds: Rect, seed: u64) -> StatsGrid {
    let mut grid = StatsGrid::new(alpha, bounds).unwrap();
    let mut rng = SmallRng::seed_from_u64(seed);
    grid.begin_snapshot();
    for _ in 0..10_000 {
        let (cx, cy, sigma) = match rng.gen_range(0..4) {
            0 => (0.3, 0.3, 0.05),
            1 => (0.7, 0.6, 0.08),
            2 => (0.2, 0.8, 0.04),
            _ => (0.5, 0.5, 0.5),
        };
        let x = (cx + sigma * (rng.gen::<f64>() - 0.5)).clamp(0.0, 0.999);
        let y = (cy + sigma * (rng.gen::<f64>() - 0.5)).clamp(0.0, 0.999);
        grid.observe_node(
            &Point::new(x * bounds.width(), y * bounds.height()),
            rng.gen_range(3.0..30.0),
            1.0,
        );
    }
    for _ in 0..100 {
        let x = rng.gen_range(0.0..0.9) * bounds.width();
        let y = rng.gen_range(0.0..0.9) * bounds.height();
        grid.observe_query(&Rect::from_coords(x, y, x + 1000.0, y + 1000.0));
    }
    grid.commit_snapshot();
    grid
}

fn bounds() -> Rect {
    Rect::from_coords(0.0, 0.0, 14_142.0, 14_142.0)
}

/// Figure 14 companion: the full adaptation step at paper parameters.
fn bench_adaptation(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptation");
    group.sample_size(20);
    for (l, alpha) in [(100usize, 64usize), (250, 128), (1000, 256)] {
        let grid = build_grid(alpha, bounds(), 7);
        let mut config = LiraConfig::default();
        config.bounds = bounds();
        config.num_regions = l;
        config.alpha = alpha;
        let shedder = LiraShedder::new(config, 1000).unwrap();
        group.bench_function(BenchmarkId::from_parameter(format!("l{l}_a{alpha}")), |b| {
            b.iter(|| {
                let a = shedder.adapt_with_throttle(black_box(&grid), 0.5).unwrap();
                black_box(a.plan.len())
            })
        });
    }
    group.finish();
}

/// GRIDREDUCE alone (stage I + II).
fn bench_grid_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_reduce");
    group.sample_size(30);
    let model = ReductionModel::analytic(5.0, 100.0, 95);
    for (l, alpha) in [(100usize, 64usize), (250, 128), (1000, 256)] {
        let grid = build_grid(alpha, bounds(), 7);
        let params = GridReduceParams::new(l, 0.5, 50.0, true);
        group.bench_function(BenchmarkId::from_parameter(format!("l{l}_a{alpha}")), |b| {
            b.iter(|| {
                black_box(
                    grid_reduce(black_box(&grid), &model, &params)
                        .unwrap()
                        .regions
                        .len(),
                )
            })
        });
    }
    group.finish();
}

/// GREEDYINCREMENT alone over l regions.
fn bench_greedy_increment(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_increment");
    let model = ReductionModel::analytic(5.0, 100.0, 95);
    let mut rng = SmallRng::seed_from_u64(3);
    for l in [100usize, 250, 1000, 4000] {
        let regions: Vec<RegionInput> = (0..l)
            .map(|_| {
                RegionInput::new(
                    rng.gen_range(0.0..200.0),
                    if rng.gen_bool(0.3) {
                        rng.gen_range(0.0..5.0)
                    } else {
                        0.0
                    },
                    rng.gen_range(3.0..30.0),
                )
            })
            .collect();
        let params = GreedyParams {
            throttle: 0.5,
            fairness: 50.0,
            use_speed: true,
        };
        group.bench_function(BenchmarkId::from_parameter(l), |b| {
            b.iter(|| black_box(greedy_increment(black_box(&regions), &model, &params).steps))
        });
    }
    group.finish();
}

/// The mobile node's hot path: throttler lookup in a deployed plan.
fn bench_plan_lookup(c: &mut Criterion) {
    let grid = build_grid(128, bounds(), 7);
    let mut config = LiraConfig::default();
    config.bounds = bounds();
    let shedder = LiraShedder::new(config, 1000).unwrap();
    let plan = shedder.adapt_with_throttle(&grid, 0.5).unwrap().plan;
    let mut rng = SmallRng::seed_from_u64(5);
    let points: Vec<Point> = (0..1024)
        .map(|_| Point::new(rng.gen_range(0.0..14_142.0), rng.gen_range(0.0..14_142.0)))
        .collect();
    c.bench_function("plan_lookup/1024_points", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 1023;
            black_box(plan.throttler_at(black_box(&points[i])))
        })
    });
    // What a simulated car pays on most ticks: the region its previous
    // lookup found still holds it, so the hint answers without the grid.
    let hints: Vec<u32> = points
        .iter()
        .map(|p| plan.region_at(p).0.map_or(u32::MAX, |r| r as u32))
        .collect();
    c.bench_function("plan_lookup/1024_points_live_hint", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 1023;
            black_box(plan.region_from(black_box(&points[i]), hints[i]).1)
        })
    });
}

/// Regression tripwire for the two `CqServer` operations that are plain
/// scans of the node store and have no ladder of their own: `nearest`
/// (k = 10) and `evaluate_uncertain` (Δ⊣ = 320 m, per-node Δ read off a
/// 16-region plan through `max_throttler_within`), each after a 10 %
/// churn step, on 100 000 nodes × 3 000 one-kilometre queries at the
/// paper's 100 nodes/km².
fn bench_cq_server(c: &mut Criterion) {
    const NODES: usize = 100_000;
    const MAX_DELTA: f64 = 320.0;
    let space_m = 10_000.0 * (NODES as f64 / 10_000.0).sqrt();
    let bounds = Rect::from_coords(0.0, 0.0, space_m, space_m);
    let mut workload = ChurnWorkload::new(NODES, 7, 0.10, space_m);
    let cfg = WorkloadConfig {
        distribution: QueryDistribution::Random,
        count: 3_000,
        side_length: 1_000.0,
        seed: 11,
    };
    let mut server = CqServer::new(bounds, NODES, 64);
    server.register_queries(generate_queries(&bounds, &workload.positions, &cfg));
    workload.prime(&mut server);
    // A 4×4 tiling with varied throttlers, so the Δ lookup crosses real
    // region borders instead of a uniform plan's trivial answer.
    let cell = space_m / 4.0;
    let regions = (0..16)
        .map(|i| PlanRegion {
            area: Rect::square(
                Point::new((i % 4) as f64 * cell, (i / 4) as f64 * cell),
                cell,
            ),
            throttler: 20.0 * (i % 5 + 1) as f64,
        })
        .collect();
    let plan = SheddingPlan::new(bounds, regions, 20.0);

    let mut group = c.benchmark_group("cq_server");
    group.sample_size(20);
    let centers = &workload.positions;
    group.bench_function("nearest_100k", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % centers.len();
            black_box(server.nearest(black_box(centers[i]), 10, 0.5).len())
        })
    });
    let mut results = Vec::new();
    group.bench_function("evaluate_uncertain_100k", |b| {
        b.iter(|| {
            workload.step(&mut server);
            server.evaluate_uncertain_into(
                0.5,
                MAX_DELTA,
                |_, p| plan.max_throttler_within(&p, MAX_DELTA),
                &mut results,
            );
            black_box(results.len())
        })
    });
    group.finish();
}

/// The mobile node's per-tick cost: one dead-reckoning observation.
fn bench_dead_reckoning(c: &mut Criterion) {
    let mut reckoner = DeadReckoner::new();
    let mut t = 0.0;
    c.bench_function("dead_reckoning/observe", |b| {
        b.iter(|| {
            t += 1.0;
            // A gently curving trajectory that reports occasionally.
            let p = Point::new(10.0 * t, 30.0 * (t / 40.0).sin());
            black_box(reckoner.observe(0, t, black_box(p), (10.0, 0.5), 25.0))
        })
    });
}

/// The trace substrate's per-tick cost: the paper's fleet (10 000 cars,
/// 3 249 intersections) advanced one second, re-tripping arrivals, after a
/// warm-up long enough that every origin's shortest-path tree is cached.
fn bench_traffic_step(c: &mut Criterion) {
    let network = generate_network(&NetworkConfig::default());
    let demand = TrafficDemand::random_hotspots(network.bounds(), 5, 42);
    let cfg = TrafficConfig {
        num_cars: 10_000,
        seed: 42,
    };
    let mut sim = TrafficSimulator::new(network, &demand, cfg);
    for _ in 0..300 {
        sim.step(1.0);
    }
    c.bench_function("traffic_step/10k_cars_paper_network", |b| {
        b.iter(|| {
            sim.step(1.0);
            black_box(sim.time())
        })
    });
}

/// One trip's route on the paper network: read off a cached shortest-path
/// tree (what the simulator does) and the point-to-point Dijkstra kept as
/// the reference; and the whole route table, every origin's tree, which
/// `RouteCache::new` grows up front on every core.
fn bench_route_lookup(c: &mut Criterion) {
    let network = generate_network(&NetworkConfig::default());
    let n = network.num_nodes() as u32;
    let mut rng = SmallRng::seed_from_u64(19);
    let pairs: Vec<(u32, u32)> = (0..4096)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let mut group = c.benchmark_group("route_lookup");
    let mut warm = RouteCache::new(&network);
    group.bench_function("tree_walk", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 4095;
            let (from, to) = pairs[i];
            black_box(warm.route(black_box(from), to))
        })
    });
    group.bench_function("shortest_path", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 4095;
            let (from, to) = pairs[i];
            black_box(shortest_path(&network, black_box(from), to))
        })
    });
    group.bench_function("route_table", |b| {
        b.iter(|| black_box(RouteCache::new(black_box(&network))))
    });
    group.finish();
}

/// The input queue under load: offer + drain batches.
fn bench_queue(c: &mut Criterion) {
    c.bench_function("queue/offer_service_100", |b| {
        let mut queue: UpdateQueue<u64> = UpdateQueue::new(10_000);
        b.iter(|| {
            for i in 0..100u64 {
                queue.offer_at(0.0, black_box(i));
            }
            black_box(queue.service_at(100).len())
        })
    });
}

/// Statistics-grid maintenance: the constant-time per-update observation.
fn bench_stats_grid(c: &mut Criterion) {
    let mut grid = StatsGrid::new(128, bounds()).unwrap();
    grid.begin_snapshot();
    let mut rng = SmallRng::seed_from_u64(11);
    let points: Vec<Point> = (0..4096)
        .map(|_| Point::new(rng.gen_range(0.0..14_142.0), rng.gen_range(0.0..14_142.0)))
        .collect();
    c.bench_function("stats_grid/observe_node", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 4095;
            grid.observe_node(black_box(&points[i]), 12.0, 1.0);
        })
    });
}

criterion_group!(
    benches,
    bench_adaptation,
    bench_grid_reduce,
    bench_greedy_increment,
    bench_plan_lookup,
    bench_cq_server,
    bench_dead_reckoning,
    bench_traffic_step,
    bench_route_lookup,
    bench_queue,
    bench_stats_grid,
);
criterion_main!(benches);
