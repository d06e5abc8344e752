//! Property-based equivalence suite for the unified engine across shard
//! counts: unified at shards ∈ {1, 2, 3, 7, 8} (plus a pool-free
//! sequential run and the `LIRA_TEST_SHARDS` CI count) ≡ the
//! dirty-tracking-off baseline ≡ brute force (`common::World`), for
//! `evaluate`, `evaluate_uncertain`, `nearest` and the stripe layout
//! itself (`common::assert_stripes`).
//!
//! Coordinates reuse the lattice trick from `eval_equiv.rs` — every
//! generated coordinate is a multiple of 62.5 m (binary-exact) over a
//! 1 km² space — and the dedicated boundary test pins the query count so
//! the evaluation grid has exactly 8 columns, making lattice points land
//! *exactly* on stripe boundaries for every tested shard count. Rounds
//! are evaluated twice per step (advancing `t`, then the same `t` again
//! after more ingests) so the engine's work-skipping dirty rounds are
//! exercised as hard as its full sweeps and handoffs.

use lira_core::geometry::{Point, Rect};
use lira_server::prelude::*;
use proptest::prelude::*;

mod common;
use common::{bounds, query_set, World, U};

const NUM_NODES: usize = 24;
/// Shard counts under test: degenerate (1), even splits (2, 8 — at 8 the
/// boundary test's grid gives every shard exactly one column), uneven
/// splits that leave stripes of different widths (3, 7).
const SHARD_COUNTS: [usize; 5] = [1, 2, 3, 7, 8];

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
                // x-velocities reach ±25 m/s so nodes cross stripe
                // boundaries between rounds.
                vel: (vi as f64 * 6.25, vj as f64 * 6.25),
            }),
        1..max,
    )
}

/// Every engine configuration under test, fed identically, with the
/// brute-force world they are held to: the dirty-tracking-off baseline
/// (the retired inverted engine's every-node incremental round), one
/// pooled unified server per count in `SHARD_COUNTS`, one forced onto
/// the calling thread (sequential ≡ parallel), and one with the CI
/// matrix's `LIRA_TEST_SHARDS` count.
struct Fleet {
    baseline: CqServer,
    unified: Vec<(usize, CqServer)>,
    world: World,
}

impl Fleet {
    fn new(queries: &[RangeQuery]) -> Self {
        let b = bounds();
        let mut unified: Vec<(usize, CqServer)> = SHARD_COUNTS
            .iter()
            .map(|&s| {
                (
                    s,
                    CqServer::new(b, NUM_NODES, 8).with_engine(EvalEngine::Unified { shards: s }),
                )
            })
            .collect();
        // Shards = 4 again, but with every phase on the calling thread:
        // must be bit-identical to the pooled run.
        unified.push((
            4,
            CqServer::new(b, NUM_NODES, 8)
                .with_engine(EvalEngine::Unified { shards: 4 })
                .with_sequential_eval(true),
        ));
        // The CI matrix leg (LIRA_TEST_SHARDS ∈ {4, 8}) widens coverage.
        unified.push((
            0, // label: env-selected
            CqServer::new(b, NUM_NODES, 8).with_engine(common::unified_from_env(4)),
        ));
        let mut fleet = Fleet {
            baseline: CqServer::new(b, NUM_NODES, 8).with_dirty_tracking(false),
            unified,
            world: World::new(NUM_NODES),
        };
        fleet.baseline.register_queries(queries.iter().copied());
        for (_, s) in &mut fleet.unified {
            s.register_queries(queries.iter().copied());
        }
        fleet
    }

    fn ingest(&mut self, u: &Update) {
        self.baseline.ingest(u.node, u.t, u.pos, u.vel);
        for (_, s) in &mut self.unified {
            s.ingest(u.node, u.t, u.pos, u.vel);
        }
        self.world.report(u.node, u.t, u.pos, u.vel);
    }

    fn replace(&mut self, queries: &[RangeQuery]) {
        self.baseline.replace_queries(queries.iter().copied());
        for (_, s) in &mut self.unified {
            s.replace_queries(queries.iter().copied());
        }
    }
}

/// The deterministic per-node Δ all engines and the oracle use in
/// uncertain evaluation (binary-exact multiples of U/4).
fn delta_of(n: u32, _p: Point) -> f64 {
    (n % 4) as f64 * 15.625
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn evaluate_equivalent_across_shard_counts(
        ups in updates(60),
        qs in query_set(8),
        qs2 in query_set(5),
    ) {
        let mut fleet = Fleet::new(&qs);
        for (round, chunk) in ups.chunks(8).enumerate() {
            let (head, tail) = chunk.split_at(chunk.len() / 2);
            for u in head {
                fleet.ingest(u);
            }
            // Advancing-t round: full sweeps, stripe handoffs.
            let t = round as f64 + 0.5;
            let want = fleet.world.evaluate(&qs, t);
            prop_assert_eq!(&fleet.baseline.evaluate(t), &want, "baseline t={}", t);
            for (s, server) in &mut fleet.unified {
                prop_assert_eq!(&server.evaluate(t), &want, "unified({}) t={}", *s, t);
                common::assert_stripes(&format!("unified({s})"), server, &fleet.world, t);
            }
            // Same-t round after more ingests: the unified engine's
            // dirty path re-places only the re-reported nodes.
            for u in tail {
                fleet.ingest(u);
            }
            let want = fleet.world.evaluate(&qs, t);
            prop_assert_eq!(&fleet.baseline.evaluate(t), &want, "baseline same-t {}", t);
            for (s, server) in &mut fleet.unified {
                prop_assert_eq!(&server.evaluate(t), &want, "unified({}) same-t {}", *s, t);
                common::assert_stripes(&format!("unified({s})"), server, &fleet.world, t);
            }
        }
        // Workload swap: stripe indexes must invalidate and rebuild.
        fleet.replace(&qs2);
        let t = 9.0;
        let want = fleet.world.evaluate(&qs2, t);
        prop_assert_eq!(&fleet.baseline.evaluate(t), &want, "baseline after swap");
        for (s, server) in &mut fleet.unified {
            prop_assert_eq!(&server.evaluate(t), &want, "unified({}) after swap", *s);
        }
    }

    /// Advancing-`t` histories (see `common`) on the whole fleet: every
    /// shard count, pooled and sequential, against the sweep-every-round
    /// baseline and brute force. Due nodes cross stripes like any stepped
    /// node.
    #[test]
    fn advancing_t_histories_equivalent_across_shard_counts(
        steps in common::history(120),
        qs in common::query_set(8),
        qs2 in common::query_set(5),
    ) {
        let Fleet { baseline, unified, .. } = Fleet::new(&qs);
        let mut subjects = vec![common::Subject::new("baseline", baseline)];
        subjects.extend(
            unified
                .into_iter()
                .map(|(s, server)| common::Subject::new(format!("unified({s})"), server)),
        );
        common::replay(&steps, &qs, &qs2, &mut subjects);
    }

    #[test]
    fn evaluate_uncertain_equivalent_across_shard_counts(
        ups in updates(50),
        qs in query_set(6),
        dmax_step in 1i32..4,
    ) {
        // Δ⊣ at binary-exact multiples of half a cell, so the expanded
        // covers also align with cell (and stripe) boundaries.
        let max_delta = dmax_step as f64 * 31.25;
        let mut fleet = Fleet::new(&qs);
        for (round, chunk) in ups.chunks(10).enumerate() {
            for u in chunk {
                fleet.ingest(u);
            }
            let t = round as f64 + 0.25;
            let want = fleet.world.evaluate_uncertain(&qs, t, max_delta, delta_of);
            prop_assert_eq!(
                &fleet.baseline.evaluate_uncertain(t, max_delta, delta_of),
                &want, "baseline t={}", t
            );
            for (s, server) in &mut fleet.unified {
                prop_assert_eq!(
                    &server.evaluate_uncertain(t, max_delta, delta_of),
                    &want, "unified({}) t={}", *s, t
                );
            }
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
        let mut fleet = Fleet::new(&qs);
        for u in &ups {
            fleet.ingest(u);
        }
        let t = 2.25;
        for max_delta in [narrow, wide, narrow] {
            let want = fleet.world.evaluate_uncertain(&qs, t, max_delta, delta_of);
            for (s, server) in &mut fleet.unified {
                prop_assert_eq!(
                    &server.evaluate_uncertain(t, max_delta, delta_of),
                    &want, "unified({}) Δ⊣={}", *s, max_delta
                );
            }
        }
        // Same Δ⊣ as the last call: only the query-set change can tell
        // the server its cover is stale.
        fleet.replace(&qs2);
        let want = fleet.world.evaluate_uncertain(&qs2, t, narrow, delta_of);
        for (s, server) in &mut fleet.unified {
            prop_assert_eq!(
                &server.evaluate_uncertain(t, narrow, delta_of),
                &want, "unified({}) after swap", *s
            );
        }
    }

    #[test]
    fn nearest_equivalent_across_shard_counts(
        ups in updates(40),
        qs in query_set(3),
        ci in -1i32..18,
        cj in -1i32..18,
        k in 0usize..8,
    ) {
        let center = Point::new(ci as f64 * U, cj as f64 * U);
        let mut fleet = Fleet::new(&qs);
        for u in &ups {
            fleet.ingest(u);
        }
        let t = 4.0;
        let want = fleet.world.nearest(center, k, t);
        prop_assert_eq!(&fleet.baseline.nearest(center, k, t), &want, "baseline");
        for (s, server) in &mut fleet.unified {
            prop_assert_eq!(&server.nearest(center, k, t), &want, "unified({})", *s);
        }
    }
}

/// Four queries make `side_for(4) = 8` grid columns of 125 m, so stripe
/// boundaries for every count in `SHARD_COUNTS` fall on multiples of
/// 125 m — at 7 one stripe owns two columns and six own one, at 8 each
/// owns exactly one — and the lattice nodes below sit *exactly* on them.
/// Crossing traffic shuttles nodes across the boundaries round after
/// round.
#[test]
fn stripe_boundary_alignment_is_exact() {
    let qs: Vec<RangeQuery> = [
        Rect::from_coords(0.0, 0.0, 250.0, 1000.0),
        Rect::from_coords(250.0, 0.0, 625.0, 1000.0), // edges on stripe bounds
        Rect::from_coords(625.0, 0.0, 1000.0, 1000.0),
        Rect::from_coords(125.0, 250.0, 875.0, 750.0), // spans every stripe
    ]
    .into_iter()
    .enumerate()
    .map(|(id, range)| RangeQuery {
        id: id as u32,
        range,
    })
    .collect();
    let mut fleet = Fleet::new(&qs);
    // Nodes pinned to stripe-boundary columns (x ∈ {125·k}) with
    // velocities that push them back and forth across the boundaries.
    for n in 0..NUM_NODES as u32 {
        let u = Update {
            node: n,
            t: 0.0,
            pos: Point::new(125.0 * (n % 9) as f64, 62.5 * (n % 16) as f64),
            vel: (if n % 2 == 0 { 125.0 } else { -125.0 }, 6.25),
        };
        fleet.ingest(&u);
    }
    for round in 0..8 {
        // t advances by exactly one cell width per round: every moving
        // node lands on the next boundary, many crossing stripes.
        let t = round as f64;
        let want = fleet.world.evaluate(&qs, t);
        assert_eq!(fleet.baseline.evaluate(t), want, "baseline t={t}");
        for (s, server) in &mut fleet.unified {
            assert_eq!(server.evaluate(t), want, "unified({s}) t={t}");
            common::assert_stripes(&format!("unified({s})"), server, &fleet.world, t);
        }
        let wantu = fleet.world.evaluate_uncertain(&qs, t, 125.0, delta_of);
        for (s, server) in &mut fleet.unified {
            assert_eq!(
                server.evaluate_uncertain(t, 125.0, delta_of),
                wantu,
                "unified({s}) uncertain t={t}"
            );
        }
    }
    // The crossing traffic must actually have exercised handoffs.
    for (s, server) in &fleet.unified {
        if *s > 1 {
            let handoffs: u64 = server.shard_stats().iter().map(|st| st.handoffs).sum();
            assert!(handoffs > 0, "unified({s}): crossing traffic hands off");
        }
    }
}

/// `evaluate_uncertain` is one ascending pass over the store, whatever
/// the shard count: `delta_of` (a stateful, non-`Sync` closure here) is
/// called once per node some Δ⊣-expanded query's cover reaches, in
/// ascending id order, and never for a node nothing can reach or one that
/// has not reported — the same call sequence on every server.
#[test]
fn uncertain_is_one_ascending_pass_at_every_shard_count() {
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
    let mut fleet = Fleet::new(&qs);
    // Odd nodes report, descending so ingest order is not id order: most
    // on a diagonal through the queries, nodes 19 and 23 far to the east
    // where no expanded query reaches. Even nodes never report.
    for n in (1..NUM_NODES as u32).rev().step_by(2) {
        let pos = if n == 19 || n == 23 {
            Point::new(937.5, 62.5 * (n % 16) as f64)
        } else {
            Point::new(31.25 * n as f64, 31.25 * n as f64)
        };
        fleet.ingest(&Update {
            node: n,
            t: 0.0,
            pos,
            vel: (0.0, 0.0),
        });
    }
    let t = 1.0;
    let want = fleet.world.evaluate_uncertain(&qs, t, max_delta, delta_of);
    let mut sequences: Vec<Vec<u32>> = Vec::new();
    for (s, server) in &mut fleet.unified {
        let calls = RefCell::new(Vec::new());
        let got = server.evaluate_uncertain(t, max_delta, |n, p| {
            calls.borrow_mut().push(n);
            delta_of(n, p)
        });
        assert_eq!(got, want, "unified({s})");
        let calls = calls.into_inner();
        assert!(
            calls.windows(2).all(|w| w[0] < w[1]),
            "unified({s}): calls {calls:?} not strictly ascending"
        );
        assert!(
            calls.iter().all(|n| n % 2 == 1 && ![19, 23].contains(n)),
            "unified({s}): called for an unreported or unreachable node: {calls:?}"
        );
        for r in &got {
            for n in r.must.iter().chain(&r.maybe) {
                assert!(
                    calls.contains(n),
                    "unified({s}): node {n} reported uncalled"
                );
            }
        }
        sequences.push(calls);
    }
    assert!(!sequences[0].is_empty(), "the diagonal crosses the queries");
    assert!(
        sequences.iter().all(|calls| *calls == sequences[0]),
        "call sequences differ across shard counts: {sequences:?}"
    );
}

/// `shard_stats` reports the stripe layout and node occupancy.
#[test]
fn shard_stats_reflect_layout_and_occupancy() {
    let qs: Vec<RangeQuery> = (0..4)
        .map(|id| RangeQuery {
            id,
            range: Rect::from_coords(0.0, 0.0, 1000.0, 1000.0),
        })
        .collect();
    let mut server =
        CqServer::new(bounds(), NUM_NODES, 8).with_engine(EvalEngine::Unified { shards: 3 });
    assert_eq!(server.shard_stats(), Vec::new(), "no stripes yet");
    server.register_queries(qs);
    // All nodes in the westmost column.
    for n in 0..NUM_NODES as u32 {
        server.ingest(n, 0.0, Point::new(10.0, 10.0 + n as f64), (0.0, 0.0));
    }
    server.evaluate(0.0);
    let stats = server.shard_stats();
    assert_eq!(stats.len(), 3);
    // side_for(4) = 8 columns split 2/3/3.
    assert_eq!(stats[0].columns, (0, 2));
    assert_eq!(stats[1].columns, (2, 5));
    assert_eq!(stats[2].columns, (5, 8));
    assert_eq!(stats[0].nodes, NUM_NODES, "west stripe owns everything");
    assert_eq!(stats[1].nodes + stats[2].nodes, 0);
    // The engine always has stripes — the default server reports its
    // single degenerate one.
    let mut default_server = CqServer::new(bounds(), 4, 8);
    default_server.register_query(RangeQuery {
        id: 0,
        range: Rect::from_coords(0.0, 0.0, 1000.0, 1000.0),
    });
    default_server.evaluate(0.0);
    let stats = default_server.shard_stats();
    assert_eq!(stats.len(), 1, "shards = 1 is one degenerate stripe");
    assert_eq!(stats[0].columns, (0, 4), "side_for(1) = 4 columns");
}
