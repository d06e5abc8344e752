//! Re-striping correctness battery (DESIGN.md §15): interleaves churn,
//! query replacement, and *forced* column migrations, and asserts every
//! rebalanced configuration stays bit-identical to the `shards = 1`
//! oracle — migration happens between rounds, so it must be invisible
//! in results. A deterministic hotspot test then exercises the organic
//! trigger path (CoV + hysteresis) end to end.
//!
//! Coordinates use the binary-exact 62.5 m lattice from
//! `shard_equiv.rs`; queries are pinned so the evaluation grid has
//! exactly 8 columns and migrations move whole 125 m columns.

use lira_core::geometry::{Point, Rect};
use lira_server::prelude::*;
use proptest::prelude::*;

mod common;
use common::{bounds, query_set, U};

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
                vel: (vi as f64 * 6.25, vj as f64 * 6.25),
            }),
        1..max,
    )
}

/// The deterministic per-node Δ for uncertain rounds (multiples of U/4).
fn delta_of(n: u32, _p: Point) -> f64 {
    (n % 4) as f64 * 15.625
}

/// The `shards = 1` oracle plus rebalance-enabled servers at several
/// shard counts (both builder orders — the flag must survive
/// `with_engine` — and one pool-free sequential run).
struct Fleet {
    oracle: CqServer,
    rebalanced: Vec<(usize, CqServer)>,
}

impl Fleet {
    fn new(queries: &[RangeQuery]) -> Self {
        let b = bounds();
        let rebalanced = vec![
            (
                2,
                CqServer::new(b, NUM_NODES, 8)
                    .with_engine(EvalEngine::Unified { shards: 2 })
                    .with_rebalance(true),
            ),
            (
                3,
                CqServer::new(b, NUM_NODES, 8)
                    .with_rebalance(true)
                    .with_engine(EvalEngine::Unified { shards: 3 })
                    .with_sequential_eval(true),
            ),
            (
                8,
                CqServer::new(b, NUM_NODES, 8)
                    .with_engine(EvalEngine::Unified { shards: 8 })
                    .with_rebalance(true),
            ),
        ];
        let mut fleet = Fleet {
            oracle: CqServer::new(b, NUM_NODES, 8),
            rebalanced,
        };
        fleet.oracle.register_queries(queries.iter().copied());
        for (_, s) in &mut fleet.rebalanced {
            s.register_queries(queries.iter().copied());
        }
        fleet
    }

    fn ingest(&mut self, u: &Update) {
        self.oracle.ingest(u.node, u.t, u.pos, u.vel);
        for (_, s) in &mut self.rebalanced {
            s.ingest(u.node, u.t, u.pos, u.vel);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Churn + query replacement + a forced migration between every
    /// round pair, alternating whether the migration lands before or
    /// after fresh ingests (a rebalance must be safe with dirty/pending
    /// feeds queued) — always bit-identical to `shards = 1`.
    #[test]
    fn forced_restripes_never_change_results(
        ups in updates(60),
        qs in query_set(8),
        qs2 in query_set(5),
    ) {
        let mut fleet = Fleet::new(&qs);
        let mut restriped_cols = 0usize;
        for (round, chunk) in ups.chunks(8).enumerate() {
            let (head, tail) = chunk.split_at(chunk.len() / 2);
            for u in head {
                fleet.ingest(u);
            }
            let t = round as f64 + 0.5;
            let want = fleet.oracle.evaluate(t);
            for (s, server) in &mut fleet.rebalanced {
                prop_assert_eq!(&server.evaluate(t), &want, "rebalanced({}) t={}", *s, t);
            }
            if round % 2 == 0 {
                // Migrate with empty round feeds…
                for (_, server) in &mut fleet.rebalanced {
                    restriped_cols += server.force_restripe();
                }
                for u in tail {
                    fleet.ingest(u);
                }
            } else {
                // …and with re-reports already queued for the next round.
                for u in tail {
                    fleet.ingest(u);
                }
                for (_, server) in &mut fleet.rebalanced {
                    restriped_cols += server.force_restripe();
                }
            }
            let want = fleet.oracle.evaluate(t);
            for (s, server) in &mut fleet.rebalanced {
                prop_assert_eq!(&server.evaluate(t), &want, "rebalanced({}) same-t {}", *s, t);
            }
        }
        let _ = restriped_cols; // may legitimately be 0 on balanced inputs
        // Uncertain rounds rebuild their stripe-clipped covers after a
        // migration resized the stripes.
        let t = 8.25;
        let want = fleet.oracle.evaluate_uncertain(t, 125.0, delta_of);
        for (s, server) in &mut fleet.rebalanced {
            prop_assert_eq!(
                &server.evaluate_uncertain(t, 125.0, delta_of),
                &want, "rebalanced({}) uncertain", *s
            );
        }
        // Workload swap after migrations: indexes rebuild from scratch.
        fleet.oracle.replace_queries(qs2.iter().copied());
        for (_, s) in &mut fleet.rebalanced {
            s.replace_queries(qs2.iter().copied());
        }
        let t = 9.0;
        let want = fleet.oracle.evaluate(t);
        for (s, server) in &mut fleet.rebalanced {
            prop_assert_eq!(&server.evaluate(t), &want, "rebalanced({}) after swap", *s);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Advancing-`t` histories (see `common`) with forced migrations in
    /// the mix: the wheel's per-node words are global, so moving a
    /// column's nodes to another shard must leave every pending entry
    /// valid — due nodes then step on their *new* owner. Rebalanced
    /// servers at every shard count stay identical to `shards = 1`, to
    /// its sweep-every-round twin, and to brute force.
    #[test]
    fn advancing_t_histories_survive_forced_restripes(
        steps in common::history(120),
        qs in common::query_set(8),
        qs2 in common::query_set(5),
    ) {
        let Fleet { oracle, rebalanced } = Fleet::new(&qs);
        let mut subjects: Vec<common::Subject> = vec![
            common::Subject::new("shards=1", oracle),
            common::Subject::new(
                "shards=1 sweep",
                CqServer::new(bounds(), NUM_NODES, 8).with_dirty_tracking(false),
            ),
            common::Subject::new(
                "env",
                CqServer::new(bounds(), NUM_NODES, 8)
                    .with_engine(EvalEngine::unified_from_env(4))
                    .with_rebalance(rebalance_from_env(true)),
            ),
        ];
        subjects.extend(
            rebalanced
                .into_iter()
                .map(|(s, server)| common::Subject::new(format!("rebalanced({s})"), server)),
        );
        common::replay(&steps, &qs, &qs2, &mut subjects);
    }
}

/// A population that drifts into a hotspot after the stripes are built
/// must organically trip the CoV trigger, migrate columns, reduce the
/// peak shard population — and never change a single result.
#[test]
fn sustained_hotspot_triggers_the_restriper() {
    // 4 queries ⇒ side_for(4) = 8 grid columns of 125 m.
    let qs: Vec<RangeQuery> = [
        Rect::from_coords(0.0, 0.0, 250.0, 1000.0),
        Rect::from_coords(250.0, 0.0, 625.0, 1000.0),
        Rect::from_coords(625.0, 0.0, 1000.0, 1000.0),
        Rect::from_coords(125.0, 250.0, 875.0, 750.0),
    ]
    .into_iter()
    .enumerate()
    .map(|(id, range)| RangeQuery {
        id: id as u32,
        range,
    })
    .collect();
    let mut oracle = CqServer::new(bounds(), NUM_NODES, 8);
    let mut server = CqServer::new(bounds(), NUM_NODES, 8)
        .with_engine(EvalEngine::Unified { shards: 4 })
        .with_rebalance(true);
    oracle.register_queries(qs.iter().copied());
    server.register_queries(qs.iter().copied());

    // Uniform spread first: the load-aware initial boundaries come out
    // near-uniform and the trigger stays quiet.
    for n in 0..NUM_NODES as u32 {
        let p = Point::new(U * (n % 16) as f64 + 31.25, U * (n / 2) as f64);
        oracle.ingest(n, 0.0, p, (0.0, 0.0));
        server.ingest(n, 0.0, p, (0.0, 0.0));
    }
    for round in 0..4 {
        let t = round as f64;
        assert_eq!(server.evaluate(t), oracle.evaluate(t), "warmup t={t}");
    }
    assert_eq!(
        server.restripe_stats().restripes,
        0,
        "a balanced world must not restripe"
    );

    // Flash crowd: every node re-reports inside the two westmost
    // columns, round after round.
    for round in 4..24 {
        let t = round as f64;
        for n in 0..NUM_NODES as u32 {
            let p = Point::new(U * (n % 4) as f64 + 15.625, U * (n % 16) as f64);
            oracle.ingest(n, t, p, (0.0, 0.0));
            server.ingest(n, t, p, (0.0, 0.0));
        }
        assert_eq!(server.evaluate(t), oracle.evaluate(t), "hotspot t={t}");
    }
    let rs = server.restripe_stats();
    assert!(
        rs.restripes >= 1,
        "sustained imbalance must trigger: {rs:?}"
    );
    assert!(rs.moved_cols > 0, "a rebalance moves columns: {rs:?}");
    let stats = server.shard_stats();
    let peak = stats.iter().map(|s| s.nodes).max().unwrap();
    assert!(
        peak <= NUM_NODES / 2,
        "migration must split the hot stripe: {stats:?}"
    );
    assert_eq!(
        stats.iter().map(|s| s.nodes).sum::<usize>(),
        NUM_NODES,
        "every node still owned exactly once"
    );
}

/// Accounting edges: nothing to migrate before the first round or at
/// one shard; stats start zeroed.
#[test]
fn restripe_accounting_edges() {
    let mut fresh = CqServer::new(bounds(), 8, 8).with_engine(EvalEngine::Unified { shards: 4 });
    assert_eq!(fresh.force_restripe(), 0, "unprimed engine has no columns");
    let rs = fresh.restripe_stats();
    assert_eq!(rs, RestripeStats::default());

    let mut single = CqServer::new(bounds(), 8, 8).with_rebalance(true);
    single.register_query(RangeQuery {
        id: 0,
        range: Rect::from_coords(0.0, 0.0, 1000.0, 1000.0),
    });
    single.ingest(0, 0.0, Point::new(10.0, 10.0), (0.0, 0.0));
    single.evaluate(0.0);
    assert_eq!(single.force_restripe(), 0, "one shard never migrates");
    assert_eq!(
        single.restripe_stats().imbalance,
        0.0,
        "one shard is never imbalanced"
    );
}
