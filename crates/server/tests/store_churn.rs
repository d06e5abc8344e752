//! Property-based churn suite for the SoA `NodeStore` under the unified
//! engine: random interleavings of first reports, re-reports (including
//! stale ones), *removals*, and re-registrations, with evaluate rounds
//! in between — results must stay bit-identical to the brute-force
//! `common::World`, which models the store's exact staleness and removal
//! semantics. Rounds reuse the same output buffers
//! throughout (the membership/result buffer-reuse contract): a node that
//! vanishes must vanish from the *reused* vectors too, not merely from
//! freshly-allocated ones.
//!
//! Coordinates use the binary-exact 62.5 m lattice from `eval_equiv.rs`
//! so removals and re-insertions land exactly on cell and stripe
//! boundaries.

use lira_core::geometry::{Point, Rect};
use lira_server::prelude::*;
use proptest::prelude::*;

mod common;
use common::{bounds, query_set, World, U};

const NUM_NODES: usize = 16;

/// One step of the churn script.
#[derive(Clone, Debug)]
enum Op {
    /// Report (first or repeat; possibly stale) for `node` at time `t`.
    Report {
        node: u32,
        t: f64,
        pos: Point,
        vel: (f64, f64),
    },
    /// Remove `node` (no-op if it never reported).
    Remove { node: u32 },
    /// Evaluate everything at the *last* round time again (dirty round).
    EvalSame,
    /// Evaluate everything at an advanced time (sweep round).
    EvalAdvance,
}

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    // Op selector 0..10 — 5 parts report, 2 remove, 1 same-t round,
    // 2 advancing rounds (the vendored proptest has no `prop_oneof`).
    prop::collection::vec(
        (
            0u32..10,
            0u32..NUM_NODES as u32,
            0u32..6,
            -2i32..19,
            -2i32..19,
            0u32..25,
        )
            .prop_map(|(sel, node, k, i, j, v)| match sel {
                0..=4 => Op::Report {
                    node,
                    t: k as f64,
                    pos: Point::new(i as f64 * U, j as f64 * U),
                    // v encodes (vx, vy) ∈ {-2..2}² in multiples of 6.25.
                    vel: (((v / 5) as f64 - 2.0) * 6.25, ((v % 5) as f64 - 2.0) * 6.25),
                },
                5 | 6 => Op::Remove { node },
                7 => Op::EvalSame,
                _ => Op::EvalAdvance,
            }),
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn churn_with_removals_stays_bit_identical_to_the_oracle(
        script in ops(80),
        qs in query_set(7),
    ) {
        let b = bounds();
        // Unified at 1 and 3 shards plus the sweep-every-round twin;
        // output buffers created once and reused across every round below.
        let mut servers: Vec<(String, CqServer)> = vec![
            ("unified(1)".into(), CqServer::new(b, NUM_NODES, 8)),
            (
                "unified(3)".into(),
                CqServer::new(b, NUM_NODES, 8).with_engine(EvalEngine::Unified { shards: 3 }),
            ),
            (
                "sweep".into(),
                CqServer::new(b, NUM_NODES, 8).with_dirty_tracking(false),
            ),
        ];
        for (_, s) in &mut servers {
            s.register_queries(qs.iter().copied());
        }
        let mut oracle = World::new(NUM_NODES);
        let mut bufs: Vec<Vec<QueryResult>> = vec![Vec::new(); servers.len()];
        let mut t = 0.5;
        let mut rounds = 0u32;
        for op in &script {
            match op {
                Op::Report { node, t, pos, vel } => {
                    for (_, s) in &mut servers {
                        s.ingest(*node, *t, *pos, *vel);
                    }
                    oracle.report(*node, *t, *pos, *vel);
                }
                Op::Remove { node } => {
                    let removed: Vec<bool> = servers
                        .iter_mut()
                        .map(|(_, s)| s.remove_node(*node))
                        .collect();
                    prop_assert!(
                        removed.iter().all(|&r| r == removed[0]),
                        "engines disagree on removal of {}", node
                    );
                    oracle.remove(*node);
                }
                Op::EvalSame | Op::EvalAdvance => {
                    if matches!(op, Op::EvalAdvance) {
                        t += 1.0;
                    }
                    rounds += 1;
                    let want = oracle.evaluate(&qs, t);
                    for ((label, s), buf) in servers.iter_mut().zip(&mut bufs) {
                        s.evaluate_into(t, buf);
                        prop_assert_eq!(&*buf, &want, "{} t={} round={}", label, t, rounds);
                    }
                }
            }
        }
        // Final settling round into the same reused buffers.
        t += 1.0;
        let want = oracle.evaluate(&qs, t);
        for ((label, s), buf) in servers.iter_mut().zip(&mut bufs) {
            s.evaluate_into(t, buf);
            prop_assert_eq!(&*buf, &want, "{} final", label);
        }
        // And the store agrees with the oracle on who exists.
        let alive = oracle.reported_count();
        for (label, s) in &servers {
            prop_assert_eq!(s.store().reported_count(), alive, "{} reported_count", label);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Advancing-`t` histories (see `common`), removal-heavy: a removed
    /// node's wheel entry goes stale, a re-registered one files afresh,
    /// a rejected stale report must not disturb either — with the result
    /// buffers reused across every round. The default engine (at the CI
    /// leg's shard count and at 3) and its sweep-every-round twin
    /// against brute force.
    #[test]
    fn advancing_t_histories_with_removals_match_the_oracle(
        steps in common::history(160),
        qs in common::query_set(7),
        qs2 in common::query_set(4),
    ) {
        let b = bounds();
        let server =
            |engine: EvalEngine| CqServer::new(b, common::NUM_NODES, 8).with_engine(engine);
        let mut subjects = [
            common::Subject::new("unified(env)", server(common::unified_from_env(1))),
            common::Subject::new("unified(3)", server(EvalEngine::Unified { shards: 3 })),
            common::Subject::new(
                "unified(env) sweep",
                server(common::unified_from_env(1)).with_dirty_tracking(false),
            ),
        ];
        common::replay(&steps, &qs, &qs2, &mut subjects);
    }
}

/// Node churn interleaved with a correlated regional outage: while the
/// west half's base stations are dark (`[10, 20)`), every west-side
/// report is silently lost on the uplink, some of those same nodes are
/// removed server-side, and after the window they re-register through
/// the recovered channel. The engine at 1 and 3 shards and its
/// sweep-every-round twin must agree bit for bit at every round — losses arriving
/// as *gaps* (a removal with no subsequent report) exercise a different
/// store path than the usual stale-rejection churn.
#[test]
fn churn_across_a_regional_outage_window_stays_engine_identical() {
    let west = Rect::from_coords(0.0, 0.0, 500.0, 1000.0);
    let profile = FaultProfile {
        outages: vec![Outage::regional(10.0, 20.0, west)],
        ..FaultProfile::none()
    };
    // Zero-draw profile: the outage decides by position and time alone,
    // so the whole test is deterministic for any seed.
    let mut ch: FaultyChannel<(u32, f64, Point, (f64, f64))> = FaultyChannel::new(profile, 3);

    let mut servers: Vec<(String, CqServer)> = vec![
        ("unified(1)".into(), CqServer::new(bounds(), NUM_NODES, 8)),
        (
            "unified(3)".into(),
            CqServer::new(bounds(), NUM_NODES, 8).with_engine(EvalEngine::Unified { shards: 3 }),
        ),
        (
            "sweep".into(),
            CqServer::new(bounds(), NUM_NODES, 8).with_dirty_tracking(false),
        ),
    ];
    let qs = [
        RangeQuery {
            id: 0,
            range: Rect::from_coords(0.0, 0.0, 500.0, 1000.0),
        },
        RangeQuery {
            id: 1,
            range: Rect::from_coords(250.0, 0.0, 1000.0, 1000.0),
        },
    ];
    for (_, s) in &mut servers {
        s.register_queries(qs);
    }
    let mut bufs: Vec<Vec<QueryResult>> = vec![Vec::new(); servers.len()];

    // Node i lives at a fixed lattice position; the west half is
    // ids 0..8, the east half 8..16.
    let pos = |i: u32| {
        let col = if i < 8 { 1 + (i % 4) } else { 9 + (i % 4) };
        Point::new(col as f64 * U, (1 + i / 4 % 4) as f64 * U)
    };

    for step in 0..30u32 {
        let t = step as f64;
        // Every node re-reports each second from its position.
        for i in 0..NUM_NODES as u32 {
            ch.send_from(t, pos(i), (i, t, pos(i), (0.0, 0.0)));
        }
        // Mid-outage churn: remove a west node (whose replacement report
        // is being eaten by the outage) and an east node (whose report
        // still flows) each second of the window.
        if (12..16).contains(&step) {
            let west_node = step - 12; // 0..4
            let east_node = 8 + (step - 12);
            for (label, s) in &mut servers {
                assert!(s.remove_node(west_node), "{label} remove {west_node}");
                assert!(s.remove_node(east_node), "{label} remove {east_node}");
            }
        }
        for d in ch.poll(t) {
            let (node, rt, p, v) = d.payload;
            for (_, s) in &mut servers {
                s.ingest(node, rt, p, v);
            }
        }
        // Evaluate every tick; all three servers must agree exactly.
        for ((_, s), buf) in servers.iter_mut().zip(&mut bufs) {
            s.evaluate_into(t + 0.5, buf);
        }
        let (first, rest) = bufs.split_first().expect("three servers");
        for ((label, _), buf) in servers.iter().skip(1).zip(rest) {
            assert_eq!(buf, first, "{label} diverged at t = {t}");
        }
        // Spot-check the semantics at the window edges: while the outage
        // holds, removed west nodes stay gone (their re-reports are being
        // lost), removed east nodes reappear next tick.
        if step == 17 {
            let west_ids = &bufs[0][0].nodes;
            for removed in 0..4u32 {
                assert!(
                    !west_ids.contains(&removed),
                    "west node {removed} resurrected mid-outage: {west_ids:?}"
                );
            }
            let east_ids = &bufs[0][1].nodes;
            for removed in 8..12u32 {
                assert!(
                    east_ids.contains(&removed),
                    "east node {removed} should re-register through the live channel"
                );
            }
        }
    }
    // After the window every node is back.
    for ((label, s), buf) in servers.iter_mut().zip(&mut bufs) {
        s.evaluate_into(30.5, buf);
        let mut all: Vec<u32> = buf[0].nodes.iter().chain(&buf[1].nodes).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), NUM_NODES, "{label}: someone never recovered");
        assert_eq!(s.store().reported_count(), NUM_NODES, "{label}");
    }
    // The outage actually bit: 8 west nodes x 10 seconds of lost reports.
    assert_eq!(ch.stats().lost, 80);
    assert_eq!(ch.stats().rng_draws, 0, "zero-draw fault profile");
}

/// A remove → re-ingest → evaluate sequence within a single round must
/// re-register the node exactly once (the pending/dirty overlap path),
/// at every shard count, including with reused buffers across the
/// transition.
#[test]
fn remove_then_reingest_within_one_round() {
    let qs = [RangeQuery {
        id: 0,
        range: Rect::from_coords(0.0, 0.0, 1000.0, 1000.0),
    }];
    for shards in [1usize, 2, 4] {
        let mut s = CqServer::new(bounds(), 4, 8).with_engine(EvalEngine::Unified { shards });
        s.register_queries(qs);
        let mut buf = Vec::new();
        s.ingest(0, 0.0, Point::new(100.0, 100.0), (0.0, 0.0));
        s.ingest(1, 0.0, Point::new(900.0, 100.0), (0.0, 0.0));
        s.evaluate_into(0.5, &mut buf);
        assert_eq!(buf[0].nodes, vec![0, 1], "shards={shards}");
        // Same-t: remove node 0, re-ingest it elsewhere, remove node 1.
        assert!(s.remove_node(0));
        s.ingest(0, 0.25, Point::new(500.0, 500.0), (0.0, 0.0));
        assert!(s.remove_node(1));
        s.evaluate_into(0.5, &mut buf);
        assert_eq!(buf[0].nodes, vec![0], "shards={shards} after churn");
        // Double-remove is a no-op and nothing reappears.
        assert!(!s.remove_node(1));
        s.evaluate_into(0.5, &mut buf);
        assert_eq!(buf[0].nodes, vec![0], "shards={shards} idempotent");
        assert_eq!(s.store().reported_count(), 1);
    }
}
