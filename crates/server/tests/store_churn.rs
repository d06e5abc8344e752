//! Property-based churn suite for the SoA `NodeStore` under the unified
//! engine: random interleavings of first reports and re-reports
//! (including stale ones), with evaluate rounds in between — results must
//! stay bit-identical to the brute-force `common::World`, which models
//! the store's exact staleness semantics. Rounds reuse the same output
//! buffers throughout (the membership/result buffer-reuse contract): a
//! node that leaves a query must leave the *reused* vectors too, not
//! merely freshly-allocated ones.
//!
//! Coordinates use the binary-exact 62.5 m lattice from `eval_equiv.rs`
//! so reports land exactly on cell boundaries.

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
    /// Evaluate everything at the *last* round time again (dirty round).
    EvalSame,
    /// Evaluate everything at an advanced time (kinetic round).
    EvalAdvance,
}

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    // Op selector 0..10 — 7 parts report, 1 same-t round, 2 advancing
    // rounds (the vendored proptest has no `prop_oneof`).
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
                0..=6 => Op::Report {
                    node,
                    t: k as f64,
                    pos: Point::new(i as f64 * U, j as f64 * U),
                    // v encodes (vx, vy) ∈ {-2..2}² in multiples of 6.25.
                    vel: (((v / 5) as f64 - 2.0) * 6.25, ((v % 5) as f64 - 2.0) * 6.25),
                },
                7 => Op::EvalSame,
                _ => Op::EvalAdvance,
            }),
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn churn_stays_bit_identical_to_the_oracle(
        script in ops(80),
        qs in query_set(7),
    ) {
        // The output buffer is created once and reused across every
        // round below.
        let mut s = CqServer::new(bounds(), NUM_NODES, 8);
        s.register_queries(qs.iter().copied());
        let mut oracle = World::new(NUM_NODES);
        let mut buf: Vec<QueryResult> = Vec::new();
        let mut t = 0.5;
        let mut rounds = 0u32;
        for op in &script {
            match op {
                Op::Report { node, t, pos, vel } => {
                    s.ingest(*node, *t, *pos, *vel);
                    oracle.report(*node, *t, *pos, *vel);
                }
                Op::EvalSame | Op::EvalAdvance => {
                    if matches!(op, Op::EvalAdvance) {
                        t += 1.0;
                    }
                    rounds += 1;
                    s.evaluate_into(t, &mut buf);
                    prop_assert_eq!(&buf, &oracle.evaluate(&qs, t), "t={} round={}", t, rounds);
                }
            }
        }
        // Final settling round into the same reused buffer.
        t += 1.0;
        s.evaluate_into(t, &mut buf);
        prop_assert_eq!(&buf, &oracle.evaluate(&qs, t), "final");
        // And the store agrees with the oracle on who exists.
        prop_assert_eq!(s.store().reported_count(), oracle.reported_count());
    }
}

/// Node churn interleaved with a correlated regional outage: while the
/// west half's base stations are dark (`[10, 20)`), every west-side
/// report is silently lost on the uplink, and after the window the west
/// half reports again through the recovered channel. The engine must
/// agree bit for bit at every round with the brute-force world fed the
/// same deliveries — losses arriving as *gaps* in a node's reports, not
/// as the usual stale rejections.
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

    let mut s = CqServer::new(bounds(), NUM_NODES, 8);
    let mut world = World::new(NUM_NODES);
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
    s.register_queries(qs);
    let mut buf: Vec<QueryResult> = Vec::new();

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
        for d in ch.poll(t) {
            let (node, rt, p, v) = d.payload;
            s.ingest(node, rt, p, v);
            world.report(node, rt, p, v);
        }
        // Evaluate every tick; the engine and the world must agree
        // exactly.
        s.evaluate_into(t + 0.5, &mut buf);
        assert_eq!(buf, world.evaluate(&qs, t + 0.5), "diverged at t = {t}");
        // Spot-check the window: while the outage holds only the east
        // half's reports reach the store.
        if step == 17 {
            assert_eq!(s.store().updates_applied(), 10 * 16 + 8 * 8);
        }
    }
    // After the window every node reports again.
    s.evaluate_into(30.5, &mut buf);
    assert_eq!(buf, world.evaluate(&qs, 30.5));
    let mut all: Vec<u32> = buf[0].nodes.iter().chain(&buf[1].nodes).copied().collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), NUM_NODES, "someone never recovered");
    assert_eq!(s.store().reported_count(), NUM_NODES);
    assert_eq!(s.store().updates_applied(), 10 * 16 + 10 * 8 + 10 * 16);
    assert_eq!(world.reported_count(), NUM_NODES);
    // The outage actually bit: 8 west nodes x 10 seconds of lost reports.
    assert_eq!(ch.stats().lost, 80);
    assert_eq!(ch.stats().rng_draws, 0, "zero-draw fault profile");
}

/// A node whose first report and a re-report both land between the same
/// two primed rounds is both pending (to be claimed) and dirty (to be
/// stepped): the round must place it once, from its latest model, and
/// step it once.
#[test]
fn a_first_report_and_a_re_report_in_one_round_place_the_node_once() {
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
    let mut s = CqServer::new(bounds(), 4, 8);
    s.register_queries(qs);
    let mut buf = Vec::new();
    for n in 0..3u32 {
        s.ingest(
            n,
            0.0,
            Point::new(62.5 + 125.0 * n as f64, 62.5),
            (0.0, 0.0),
        );
    }
    s.evaluate_into(0.0, &mut buf);
    assert_eq!(
        (buf[0].nodes.as_slice(), buf[1].nodes.as_slice()),
        (&[0, 1, 2][..], &[2][..])
    );
    s.evaluate_into(1.0, &mut buf); // the sweep that schedules the wheel
    let before = s.shard_stats();
    // Node 3 first reports in the west half, then re-reports in the east.
    s.ingest(3, 1.5, Point::new(62.5, 312.5), (0.0, 0.0));
    s.ingest(3, 1.75, Point::new(812.5, 312.5), (0.0, 0.0));
    s.evaluate_into(2.0, &mut buf);
    assert_eq!(
        (buf[0].nodes.as_slice(), buf[1].nodes.as_slice()),
        (&[0, 1, 2][..], &[2, 3][..])
    );
    let after = s.shard_stats();
    assert_eq!(after.nodes - before.nodes, 1, "placed once");
    assert_eq!(after.stepped - before.stepped, 1, "stepped once");
    // The next rounds find it where the claim put it.
    s.evaluate_into(3.0, &mut buf);
    assert_eq!(
        (buf[0].nodes.as_slice(), buf[1].nodes.as_slice()),
        (&[0, 1, 2][..], &[2, 3][..])
    );
    assert_eq!(s.shard_stats().nodes, 4);
}
