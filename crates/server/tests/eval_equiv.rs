//! Property-based equivalence suite for the CQ evaluation engine: the
//! kinetic engine ≡ brute force (`common::World`), for `evaluate`,
//! `evaluate_uncertain`, and `nearest`, and for the uncertain path's
//! cached cover and call order.
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
            -4i32..5,
            -2i32..3,
        )
            .prop_map(|(node, k, i, j, vi, vj)| Update {
                node,
                t: k as f64,
                pos: Point::new(i as f64 * U, j as f64 * U),
                // x-velocities reach ±25 m/s, so nodes cross cell edges
                // between rounds.
                vel: (vi as f64 * 6.25, vj as f64 * 6.25),
            }),
        1..max,
    )
}

/// The server under test, fed as the brute-force world it is held to.
struct Pair {
    server: CqServer,
    world: World,
}

impl Pair {
    fn new(queries: &[RangeQuery]) -> Self {
        let mut server = CqServer::new(bounds(), NUM_NODES, 8);
        server.register_queries(queries.iter().copied());
        Pair {
            server,
            world: World::new(NUM_NODES),
        }
    }

    fn ingest(&mut self, u: &Update) {
        self.server.ingest(u.node, u.t, u.pos, u.vel);
        self.world.report(u.node, u.t, u.pos, u.vel);
    }
}

/// 65 to 80 rectangles whose left edges all fall in one grid column,
/// their right edges in another and their bottom and top edges in one
/// row each, so every cell on that outline is partially covered by more
/// than 64 queries and a node's hit bits there take two words. Corners
/// and offsets are arbitrary reals: no lattice, and edges a fraction of a
/// metre apart.
fn wide_query_set() -> impl Strategy<Value = Vec<RangeQuery>> {
    (
        65usize..81,
        (1usize..12, 1usize..12),
        (4usize..16, 4usize..16),
        prop::collection::vec((0.05f64..0.95, 0.05f64..0.95), 80..81),
        prop::collection::vec((0.05f64..0.95, 0.05f64..0.95), 80..81),
    )
        .prop_map(|(n, (c0, r0), (cw, rh), lo, hi)| {
            // `side_for(n)`, which is what the engine will build.
            let side = (4.0 * (n as f64).sqrt()).ceil() as usize;
            let w = 1000.0 / side as f64;
            (0..n)
                .map(|k| RangeQuery {
                    id: k as u32,
                    range: Rect::from_coords(
                        (c0 as f64 + lo[k].0) * w,
                        (r0 as f64 + lo[k].1) * w,
                        ((c0 + cw) as f64 + hi[k].0) * w,
                        ((r0 + rh) as f64 + hi[k].1) * w,
                    ),
                })
                .collect()
        })
}

/// The deterministic per-node Δ both the server and the oracle use in
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
            prop_assert_eq!(&pair.server.evaluate(t), &want, "t={}", t);
        }
        // Workload swap: the query index must invalidate and rebuild.
        let t = 9.0;
        let want = pair.world.evaluate(&qs2, t);
        pair.server.replace_queries(qs2.iter().copied());
        prop_assert_eq!(&pair.server.evaluate(t), &want, "after swap");
    }

    /// Advancing-`t` histories (see `common`): the engine steps only
    /// re-reported and due nodes, and must agree round for round with
    /// brute force — through churn, first reports, query swaps, `dt = 0`,
    /// jumps past the wheel and time running backwards.
    #[test]
    fn advancing_t_histories_equivalent_across_engines(
        steps in common::history(120),
        qs in common::query_set(8),
        qs2 in common::query_set(5),
    ) {
        let mut subjects = [common::Subject::new("kinetic", Pair::new(&[]).server)];
        common::replay(&steps, &qs, &qs2, &mut subjects);
    }

    /// The same histories over cells with more than 64 partial covers
    /// (two hit words a node), swapping with an ordinary query set (one
    /// word) and back.
    #[test]
    fn wide_cell_histories_equivalent_across_engines(
        steps in common::history(120),
        qs in wide_query_set(),
        qs2 in common::query_set(5),
    ) {
        let mut subjects = [common::Subject::new("kinetic", Pair::new(&[]).server)];
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
            prop_assert_eq!(
                &pair.server.evaluate_uncertain(t, max_delta, delta_of),
                &want, "t={}", t
            );
        }
    }

    /// The Δ⊣-expanded cover is cached between calls: a call with a
    /// different Δ⊣, and a call after the query set changed, must both
    /// answer from a cover built for what they were asked.
    #[test]
    fn uncertain_cover_follows_max_delta_and_the_query_set(
        ups in updates(50),
        qs in query_set(6),
        qs2 in query_set(5),
        dmax_steps in (1i32..5, 1i32..5),
    ) {
        let narrow = dmax_steps.0 as f64 * 31.25;
        let wide = narrow + dmax_steps.1 as f64 * 31.25;
        // Per-node Δ up to the wider Δ⊣, so the narrower one clamps.
        let delta_of = |n: u32, _p: Point| (n % 9) as f64 * 31.25;
        let mut pair = Pair::new(&qs);
        for u in &ups {
            pair.ingest(u);
        }
        let t = 2.25;
        for max_delta in [narrow, wide, narrow] {
            let want = pair.world.evaluate_uncertain(&qs, t, max_delta, delta_of);
            prop_assert_eq!(
                &pair.server.evaluate_uncertain(t, max_delta, delta_of),
                &want, "Δ⊣={}", max_delta
            );
        }
        // Same Δ⊣ as the last call: only the query-set change can tell
        // the server its cover is stale.
        let want = pair.world.evaluate_uncertain(&qs2, t, narrow, delta_of);
        pair.server.replace_queries(qs2.iter().copied());
        prop_assert_eq!(
            &pair.server.evaluate_uncertain(t, narrow, delta_of),
            &want, "after swap"
        );
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
        prop_assert_eq!(&pair.server.nearest(center, k, t), &want);
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
    let Pair { server, world } = &mut pair;
    assert_eq!(server.evaluate(0.0), world.evaluate(&qs, 0.0));
    // Nodes sitting at distance exactly Δ from the range must classify
    // identically too (the maybe-boundary).
    assert_eq!(
        server.evaluate_uncertain(0.0, 62.5, |_, _| 62.5),
        world.evaluate_uncertain(&qs, 0.0, 62.5, |_, _| 62.5)
    );
    // Zero Δ degenerates to exact evaluation for `must`; `maybe` shrinks
    // to exactly the nodes sitting *on* the closed boundary (distance 0
    // but outside the half-open rect).
    let exact = world.evaluate(&qs, 0.0);
    let zero = world.evaluate_uncertain(&qs, 0.0, 0.0, |_, _| 0.0);
    assert_eq!(zero[0].must, exact[0].nodes);
    assert_eq!(server.evaluate_uncertain(0.0, 0.0, |_, _| 0.0), zero);
    for &n in &zero[0].maybe {
        let p = world.predict(n as usize, 0.0).unwrap();
        assert!(!range.contains(&p));
        assert_eq!(range.distance_to_point(&p), 0.0, "node {n} at {p:?}");
    }
}

/// Four queries make `side_for(4) = 8` grid columns of 125 m; the nodes
/// below sit *exactly* on column edges (x ∈ {125·k}) and move one cell
/// width a round, so every moving node lands on the next edge round after
/// round, crossing cells in both directions.
#[test]
fn cell_edge_traffic_resolves_exactly() {
    let qs: Vec<RangeQuery> = [
        Rect::from_coords(0.0, 0.0, 250.0, 1000.0),
        Rect::from_coords(250.0, 0.0, 625.0, 1000.0), // edges on cell edges
        Rect::from_coords(625.0, 0.0, 1000.0, 1000.0),
        Rect::from_coords(125.0, 250.0, 875.0, 750.0), // spans every column
    ]
    .into_iter()
    .enumerate()
    .map(|(id, range)| RangeQuery {
        id: id as u32,
        range,
    })
    .collect();
    let mut pair = Pair::new(&qs);
    for n in 0..NUM_NODES as u32 {
        pair.ingest(&Update {
            node: n,
            t: 0.0,
            pos: Point::new(125.0 * (n % 9) as f64, 62.5 * (n % 16) as f64),
            vel: (if n % 2 == 0 { 125.0 } else { -125.0 }, 6.25),
        });
    }
    for round in 0..8 {
        let t = round as f64;
        let want = pair.world.evaluate(&qs, t);
        let wantu = pair.world.evaluate_uncertain(&qs, t, 125.0, delta_of);
        let s = &mut pair.server;
        assert_eq!(s.evaluate(t), want, "t={t}");
        common::assert_placed("kinetic", s, &pair.world, t);
        assert_eq!(
            s.evaluate_uncertain(t, 125.0, delta_of),
            wantu,
            "uncertain t={t}"
        );
    }
}

/// `evaluate_uncertain` is one ascending pass over the store: `delta_of`
/// (a stateful, non-`Sync` closure here) is called once per node some
/// Δ⊣-expanded query's cover reaches, in ascending id order, and never
/// for a node nothing can reach or one that has not reported.
#[test]
fn uncertain_is_one_ascending_pass() {
    use std::cell::RefCell;
    // Four queries: an 8 × 8 grid of 125 m cells. All of them lie west
    // of x = 500, so expanded by Δ⊣ = 62.5 they reach no cell east of
    // column 4.
    let qs: Vec<RangeQuery> = [
        Rect::from_coords(125.0, 125.0, 375.0, 375.0),
        Rect::from_coords(0.0, 500.0, 250.0, 750.0),
        Rect::from_coords(250.0, 250.0, 437.5, 500.0),
        Rect::from_coords(62.5, 62.5, 125.0, 125.0),
    ]
    .into_iter()
    .enumerate()
    .map(|(id, range)| RangeQuery {
        id: id as u32,
        range,
    })
    .collect();
    let max_delta = 62.5;
    let mut pair = Pair::new(&qs);
    // Odd nodes report, descending so ingest order is not id order: most
    // on a diagonal through the queries, nodes 19 and 23 far to the east
    // where no expanded query reaches. Even nodes never report.
    for n in (1..NUM_NODES as u32).rev().step_by(2) {
        let pos = if n == 19 || n == 23 {
            Point::new(937.5, 62.5 * (n % 16) as f64)
        } else {
            Point::new(31.25 * n as f64, 31.25 * n as f64)
        };
        pair.ingest(&Update {
            node: n,
            t: 0.0,
            pos,
            vel: (0.0, 0.0),
        });
    }
    let t = 1.0;
    let want = pair.world.evaluate_uncertain(&qs, t, max_delta, delta_of);
    let calls = RefCell::new(Vec::new());
    let got = pair.server.evaluate_uncertain(t, max_delta, |n, p| {
        calls.borrow_mut().push(n);
        delta_of(n, p)
    });
    assert_eq!(got, want);
    let calls = calls.into_inner();
    assert!(!calls.is_empty(), "the diagonal crosses the queries");
    assert!(
        calls.windows(2).all(|w| w[0] < w[1]),
        "calls {calls:?} not strictly ascending"
    );
    assert!(
        calls.iter().all(|n| n % 2 == 1 && ![19, 23].contains(n)),
        "called for an unreported or unreachable node: {calls:?}"
    );
    for r in &got {
        for n in r.must.iter().chain(&r.maybe) {
            assert!(calls.contains(n), "node {n} reported uncalled");
        }
    }
}

/// `common::minimise`, the shrinker behind `common::replay`: a predicate
/// that fails while three marked elements are all present reduces a
/// hundred to exactly those three, in order; one that fails on any ten
/// elements keeps ten, none of which can go; one that always fails
/// reduces to nothing.
#[test]
fn the_minimiser_reduces_a_failing_input_to_its_core() {
    let input: Vec<u32> = (0..100).collect();
    let mut calls = 0;
    let core = common::minimise(&input, |s| {
        calls += 1;
        [13, 42, 77].iter().all(|n| s.contains(n))
    });
    assert_eq!(core, vec![13, 42, 77]);
    assert!(calls < 200, "{calls} predicate runs");

    let long = |s: &[u32]| s.len() >= 10;
    let core = common::minimise(&input, long);
    assert_eq!(core.len(), 10);
    assert!(core.windows(2).all(|w| w[0] < w[1]), "order kept: {core:?}");
    for i in 0..core.len() {
        let mut less = core.clone();
        less.remove(i);
        assert!(!long(&less), "1-minimal");
    }

    assert!(common::minimise(&input, |_| true).is_empty());
}
