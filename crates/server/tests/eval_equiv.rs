//! Property-based equivalence suite for the CQ evaluation engine: the
//! kinetic engine ≡ brute force (`common::World`), for `evaluate` and
//! `nearest`.
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
        let s = &mut pair.server;
        assert_eq!(s.evaluate(t), want, "t={t}");
        common::assert_placed("kinetic", s, &pair.world, t);
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
