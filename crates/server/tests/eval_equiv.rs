//! Property-based equivalence suite for the CQ evaluation engine:
//! kinetic (the default) ≡ its sweep-every-round twin
//! (`with_dirty_tracking(false)`) ≡ brute force (`common::World`), for
//! `evaluate`, `evaluate_uncertain`, and `nearest`. Both servers run at
//! the shard count the CI matrix selects via `LIRA_TEST_SHARDS` (default
//! 1, the degenerate single-stripe case).
//!
//! Every generated coordinate is a multiple of 62.5 m (exactly
//! representable in binary) over a 1 km² space with 8×8 index cells of
//! 125 m — so nodes routinely land *exactly* on query-range borders and
//! index-cell boundaries, the places where an incremental engine and a
//! full scan could disagree. Positions outside the bounds exercise the
//! clamped border cells.

use lira_core::geometry::{Point, Rect};
use lira_server::prelude::*;
use proptest::prelude::*;

mod common;
use common::{bounds, query_set, World, U};

const NUM_NODES: usize = 24;

#[derive(Clone, Debug)]
struct Update {
    node: u32,
    t: f64,
    pos: Point,
    vel: (f64, f64),
}

fn updates(max: usize) -> impl Strategy<Value = Vec<Update>> {
    prop::collection::vec(
        (
            0u32..NUM_NODES as u32,
            0u32..5,
            -2i32..19,
            -2i32..19,
            -2i32..3,
            -2i32..3,
        )
            .prop_map(|(node, k, i, j, vi, vj)| Update {
                node,
                t: k as f64,
                pos: Point::new(i as f64 * U, j as f64 * U),
                vel: (vi as f64 * 6.25, vj as f64 * 6.25),
            }),
        1..max,
    )
}

/// The two configurations under test, fed identically, with the
/// brute-force world they are held to.
struct Pair {
    servers: [(&'static str, CqServer); 2],
    world: World,
}

impl Pair {
    fn new(queries: &[RangeQuery]) -> Self {
        let server = || {
            let mut s =
                CqServer::new(bounds(), NUM_NODES, 8).with_engine(common::unified_from_env(1));
            s.register_queries(queries.iter().copied());
            s
        };
        Pair {
            servers: [
                ("kinetic", server()),
                ("sweep", server().with_dirty_tracking(false)),
            ],
            world: World::new(NUM_NODES),
        }
    }

    fn ingest(&mut self, u: &Update) {
        for (_, s) in &mut self.servers {
            s.ingest(u.node, u.t, u.pos, u.vel);
        }
        self.world.report(u.node, u.t, u.pos, u.vel);
    }
}

/// The deterministic per-node Δ both the servers and the oracle use in
/// uncertain evaluation (binary-exact multiples of U/4).
fn delta_of(n: u32, _p: Point) -> f64 {
    (n % 4) as f64 * 15.625
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn evaluate_equivalent_across_engines_and_rounds(
        ups in updates(60),
        qs in query_set(8),
        qs2 in query_set(5),
    ) {
        let mut pair = Pair::new(&qs);
        // Interleave ingest and evaluation so the engine runs genuine
        // incremental rounds (round 0 is its full rebuild).
        for (round, chunk) in ups.chunks(8).enumerate() {
            for u in chunk {
                pair.ingest(u);
            }
            let t = round as f64 + 0.5;
            let want = pair.world.evaluate(&qs, t);
            for (label, s) in &mut pair.servers {
                prop_assert_eq!(&s.evaluate(t), &want, "{} t={}", label, t);
            }
        }
        // Workload swap: the query index must invalidate and rebuild.
        let t = 9.0;
        let want = pair.world.evaluate(&qs2, t);
        for (label, s) in &mut pair.servers {
            s.replace_queries(qs2.iter().copied());
            prop_assert_eq!(&s.evaluate(t), &want, "{} after swap", label);
        }
    }

    /// Advancing-`t` histories (see `common`): the default engine steps
    /// only re-reported and due nodes, and must agree round for round
    /// with the sweep-every-round baseline and brute force — through
    /// churn, removals, query swaps, `dt = 0`, jumps past the wheel and
    /// time running backwards.
    #[test]
    fn advancing_t_histories_equivalent_across_engines(
        steps in common::history(120),
        qs in common::query_set(8),
        qs2 in common::query_set(5),
    ) {
        let mut subjects = Pair::new(&[])
            .servers
            .map(|(label, server)| common::Subject::new(label, server));
        common::replay(&steps, &qs, &qs2, &mut subjects);
    }

    #[test]
    fn evaluate_uncertain_equivalent_across_engines(
        ups in updates(50),
        qs in query_set(6),
        dmax_step in 1i32..4,
    ) {
        // Δ⊣ at binary-exact multiples of half a cell, so expanded query
        // edges also align with cell boundaries (the hardest case for
        // candidate gathering).
        let max_delta = dmax_step as f64 * 31.25;
        let mut pair = Pair::new(&qs);
        for (round, chunk) in ups.chunks(10).enumerate() {
            for u in chunk {
                pair.ingest(u);
            }
            let t = round as f64 + 0.25;
            let want = pair.world.evaluate_uncertain(&qs, t, max_delta, delta_of);
            for (label, s) in &mut pair.servers {
                prop_assert_eq!(
                    &s.evaluate_uncertain(t, max_delta, delta_of),
                    &want, "{} t={}", label, t
                );
            }
        }
    }

    #[test]
    fn nearest_equivalent_across_engines(
        ups in updates(40),
        qs in query_set(3),
        ci in -1i32..18,
        cj in -1i32..18,
        k in 0usize..8,
    ) {
        let center = Point::new(ci as f64 * U, cj as f64 * U);
        let mut pair = Pair::new(&qs);
        for u in &ups {
            pair.ingest(u);
        }
        let t = 4.0;
        let want = pair.world.nearest(center, k, t);
        for (label, s) in &mut pair.servers {
            prop_assert_eq!(&s.nearest(center, k, t), &want, "{}", label);
        }
    }
}

/// Hand-picked border geometry: nodes exactly on the inclusive min edge,
/// the exclusive max edge, cell boundaries, and outside the bounds.
#[test]
fn border_points_resolve_identically_on_every_engine() {
    let range = Rect::from_coords(250.0, 250.0, 500.0, 500.0);
    let qs = [RangeQuery { id: 0, range }];
    let mut pair = Pair::new(&qs);
    let cases = [
        Point::new(250.0, 250.0),   // min corner: inside (half-open)
        Point::new(500.0, 500.0),   // max corner: outside
        Point::new(500.0, 300.0),   // max x edge: outside
        Point::new(250.0, 499.999), // min x edge: inside
        Point::new(375.0, 250.0),   // min y edge, on a cell boundary
        Point::new(-62.5, 300.0),   // out of bounds west (clamped cell)
        Point::new(300.0, 1062.5),  // out of bounds north
        Point::new(499.999, 499.999),
    ];
    for (n, p) in cases.iter().enumerate() {
        let u = Update {
            node: n as u32,
            t: 0.0,
            pos: *p,
            vel: (0.0, 0.0),
        };
        pair.ingest(&u);
    }
    let Pair { servers, world } = &mut pair;
    let want = world.evaluate(&qs, 0.0);
    for (label, s) in servers.iter_mut() {
        assert_eq!(s.evaluate(0.0), want, "{label}");
    }
    // Nodes sitting at distance exactly Δ from the range must classify
    // identically too (the maybe-boundary).
    let want = world.evaluate_uncertain(&qs, 0.0, 62.5, |_, _| 62.5);
    for (label, s) in servers.iter_mut() {
        assert_eq!(
            s.evaluate_uncertain(0.0, 62.5, |_, _| 62.5),
            want,
            "{label}"
        );
    }
    // Zero Δ degenerates to exact evaluation for `must`; `maybe` shrinks
    // to exactly the nodes sitting *on* the closed boundary (distance 0
    // but outside the half-open rect).
    let exact = world.evaluate(&qs, 0.0);
    let zero = world.evaluate_uncertain(&qs, 0.0, 0.0, |_, _| 0.0);
    assert_eq!(zero[0].must, exact[0].nodes);
    for (label, s) in servers.iter_mut() {
        assert_eq!(s.evaluate_uncertain(0.0, 0.0, |_, _| 0.0), zero, "{label}");
    }
    for &n in &zero[0].maybe {
        let p = world.predict(n as usize, 0.0).unwrap();
        assert!(!range.contains(&p));
        assert_eq!(range.distance_to_point(&p), 0.0, "node {n} at {p:?}");
    }
}
