//! The engine's work, pinned: after four seeded churn histories, the
//! cumulative [`ShardStats`] work counters (`stepped`, `due_fired`,
//! `due_stale`) and the served digest chain must read exactly the values
//! recorded on an engine known to answer right: the first three before
//! the per-node step was rewritten as passes over a chunk, the band
//! history before the engine's sweep switch was deleted. The equivalence
//! batteries hold *what* the engine answers; this
//! holds *how much work* it does to answer it, so a change that keeps
//! every answer but steps, fires or re-files one node more or less — a
//! `safe_until` that moved by an ulp, a tick filed one bucket off — fails
//! here instead of passing as "bit for bit".
//!
//! The histories (all at `t += 1` per round, so the wheel stays
//! scheduled unless the churn makes it give up):
//! * *kinetic* — 1 % of the fleet re-reports each round;
//! * *sweeping* — every node re-reports each round, past the wheel's
//!   busy threshold, so rounds sweep;
//! * *removals* — 5 % re-report, 1 % are removed and 1 % re-ingested
//!   (first reports again) each round;
//! * *band* — 80 % of the fleet rides a band a tenth of the space wide
//!   that drifts each round, queries are centred on node positions, and
//!   5 % re-report each round.
//!
//! This file is also the engine's work gate against a sweep: a sweep
//! steps every node every round, `ROUNDS × NODES` in all, and the
//! kinetic and band histories must step fewer than half of that. The
//! count is exact, so the gate reads the same on every run and host.

use lira_core::geometry::{Point, Rect};
use lira_server::prelude::*;

const NODES: usize = 4_000;
const QUERIES: usize = 60;
const ROUNDS: usize = 30;
const SIDE: f64 = 10_000.0;

/// splitmix64: a fixed, dependency-free stream, so the pin does not move
/// with any RNG crate.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn velocity(&mut self) -> (f64, f64) {
        ((self.unit() - 0.5) * 60.0, (self.unit() - 0.5) * 60.0)
    }
}

/// Per-round churn of one history, in parts per thousand of the fleet.
struct Churn {
    report: usize,
    remove: usize,
    reingest: usize,
    /// Nodes `0..hot` of each thousand ride the drifting [`Band`]; 0
    /// scatters the whole fleet and its queries uniformly.
    hot: usize,
}

/// The band history's skew: each hot node keeps a fixed x offset inside
/// a band `SIDE / 10` wide whose west edge rides a triangle wave across
/// the space, a hundredth of a crossing per round. A hot node's x
/// velocity is 0; the band moves it when it re-reports.
struct Band {
    offsets: Vec<f64>,
}

impl Band {
    const WIDTH: f64 = SIDE / 10.0;
    const DRIFT: f64 = 0.01;

    /// Where a hot node sits in `round`, or `None` for a cold node.
    fn x(&self, node: usize, round: usize) -> Option<f64> {
        let u = (round as f64 * Self::DRIFT) % 2.0;
        let tri = if u <= 1.0 { u } else { 2.0 - u };
        let shift = tri * (SIDE - Self::WIDTH);
        self.offsets.get(node).map(|&o| o + shift)
    }
}

fn uniform_query(rng: &mut Mix) -> Rect {
    let (x, y) = (rng.unit() * SIDE, rng.unit() * SIDE);
    let (w, h) = (200.0 + rng.unit() * 1_500.0, 200.0 + rng.unit() * 1_500.0);
    Rect::from_coords(x, y, x + w, y + h)
}

/// `(stepped, due_fired, due_stale, digest)` after `ROUNDS` served rounds.
fn run(seed: u64, churn: Churn) -> (u64, u64, u64, u64) {
    let mut rng = Mix(seed);
    let bounds = Rect::from_coords(0.0, 0.0, SIDE, SIDE);
    let mut server = CqServer::new(bounds, NODES, 0);
    // A uniform history draws its queries before its nodes; a band
    // history centres its queries on the nodes, so draws them after.
    let mut ranges: Vec<Rect> = if churn.hot == 0 {
        (0..QUERIES).map(|_| uniform_query(&mut rng)).collect()
    } else {
        Vec::new()
    };
    let mut nodes: Vec<(Point, (f64, f64))> = (0..NODES)
        .map(|_| {
            let p = Point::new(rng.unit() * SIDE, rng.unit() * SIDE);
            (p, rng.velocity())
        })
        .collect();
    let band = Band {
        offsets: nodes[..NODES * churn.hot / 1000]
            .iter()
            .map(|(p, _)| p.x / SIDE * Band::WIDTH)
            .collect(),
    };
    for (n, (p, v)) in nodes.iter_mut().enumerate() {
        if let Some(x) = band.x(n, 0) {
            p.x = x;
            v.0 = 0.0;
        }
    }
    if churn.hot != 0 {
        ranges = (0..QUERIES)
            .map(|_| {
                let c = nodes[rng.below(NODES)].0;
                let (w, h) = (200.0 + rng.unit() * 1_500.0, 200.0 + rng.unit() * 1_500.0);
                Rect::from_coords(c.x - w / 2.0, c.y - h / 2.0, c.x + w / 2.0, c.y + h / 2.0)
            })
            .collect();
    }
    server.register_queries(
        ranges
            .into_iter()
            .zip(0..)
            .map(|(range, id)| RangeQuery { id, range }),
    );
    for (n, (p, v)) in nodes.into_iter().enumerate() {
        server.ingest(n as u32, 0.0, p, v);
    }
    let mut removed = Vec::new();
    let mut h = server.evaluate_digest(0.0, 0);
    for round in 1..=ROUNDS {
        let t = round as f64;
        for _ in 0..NODES * churn.report / 1000 {
            let n = rng.below(NODES) as u32;
            let mut v = rng.velocity();
            if let Some(mut p) = server.predict(n, t) {
                if let Some(x) = band.x(n as usize, round) {
                    p.x = x;
                    v.0 = 0.0;
                }
                server.ingest(n, t, p, v);
            }
        }
        for _ in 0..NODES * churn.remove / 1000 {
            let n = rng.below(NODES) as u32;
            if server.remove_node(n) {
                removed.push(n);
            }
        }
        for _ in 0..(NODES * churn.reingest / 1000).min(removed.len()) {
            let n = removed.swap_remove(rng.below(removed.len()));
            let p = Point::new(rng.unit() * SIDE, rng.unit() * SIDE);
            server.ingest(n, t, p, rng.velocity());
        }
        h = server.evaluate_digest(t, h);
    }
    let s = server.shard_stats();
    (s.stepped, s.due_fired, s.due_stale, h)
}

/// The engine's advantage over a sweep, as a count: fewer than half of
/// the `ROUNDS × NODES` node steps a sweep of every round would take.
fn assert_below_half_a_sweep(stepped: u64) {
    let sweep = (ROUNDS * NODES) as u64;
    assert!(
        stepped < sweep / 2,
        "stepped {stepped} nodes, a sweep steps {sweep}"
    );
}

#[test]
fn kinetic_churn_does_the_recorded_work() {
    let got = run(
        1,
        Churn {
            report: 10,
            remove: 0,
            reingest: 0,
            hot: 0,
        },
    );
    assert_below_half_a_sweep(got.0);
    assert_eq!(got, (25_049, 16_051, 287, 0xf61e_a381_7445_f7b6));
}

#[test]
fn sweeping_churn_does_the_recorded_work() {
    let got = run(
        2,
        Churn {
            report: 1000,
            remove: 0,
            reingest: 0,
            hot: 0,
        },
    );
    assert_eq!(got, (124_000, 8_259, 0, 0xe0f4_9d3c_85ae_ee53));
}

#[test]
fn churn_with_removals_does_the_recorded_work() {
    let got = run(
        3,
        Churn {
            report: 50,
            remove: 10,
            reingest: 10,
            hot: 0,
        },
    );
    assert_eq!(got, (31_512, 17_806, 1_550, 0xec04_caeb_28fc_0537));
}

#[test]
fn band_churn_does_the_recorded_work() {
    let got = run(
        4,
        Churn {
            report: 50,
            remove: 0,
            reingest: 0,
            hot: 800,
        },
    );
    assert_below_half_a_sweep(got.0);
    assert_eq!(got, (30_104, 17_224, 939, 0x0464_89ee_91eb_b086));
}
