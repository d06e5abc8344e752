//! What a served session costs, counted by a global allocator that
//! tallies every allocation it makes, every byte it hands out and every
//! byte still live — tests of the mechanism, not the clock, so they read
//! the same whatever the host's speed:
//!
//! * A session's queue is an admission ledger that reserves nothing and
//!   keeps its offer times as runs (16 B each, one per `Batch` between
//!   drain points), so a slot of `B` costs nothing: building a session
//!   with `B = 2^24` must allocate under 64 KiB (a ledger that reserved
//!   its runs, or an admit time a slot, allocates 128–256 MiB there).
//! * A priming `Batch` of 200 000 first reports grows the live heap by
//!   under 64 KiB: the ledger adds one run, and the unprimed engine
//!   records no change feed for the rebuild that places every node
//!   anyway (the first-report list it once grew was ≈ 1 MB).
//! * Closing a window over a deep ledger allocates nothing sized by its
//!   depth (< 1 MiB for 200 000 queued updates; a depth-sized copy of the
//!   queue is ≈ 11 MB).
//! * The engine keeps a node's partial hits as bits in one flat array,
//!   so the rebuild that places 200 000 primed nodes allocates a few
//!   hundred times (indexes and member lists), not once per node with a
//!   hit.
//! * Each answer is held once: after three rounds the session's live
//!   heap is its node store, the engine's per-node words and its member
//!   lists — no per-node list headers, no copy of the member lists made
//!   for the digest, and no ledger or first-report list sized by the
//!   fleet.
//!
//! All live in a binary of their own, so no other test's allocations
//! land in the counts, and they take turns on [`SERIAL`] so none counts
//! another's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

use lira_core::geometry::Point;
use lira_serve::protocol::{Frame, WireQuery, WireUpdate};
use lira_serve::session::{ServeConfig, SessionCore};
use lira_server::cq_engine::CqServer;

/// The system allocator, counting every byte it hands out.
struct Counting;

/// Bytes handed out since the process started; a statistic only, so
/// `Relaxed` publishes nothing else (nor do the other two).
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// Calls to `alloc` and `realloc` since the process started.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Bytes handed out and not yet given back.
static LIVE: AtomicI64 = AtomicI64::new(0);

/// Held for the whole of each test: the count is process-wide. It guards
/// no data, so a test that panicked holding it leaves nothing to repair
/// and the next one takes it over (`into_inner`).
static SERIAL: Mutex<()> = Mutex::new(());

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the caller's guarantees to this allocator are the ones `System`
// requires, and its results are `System`'s.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NODES: u32 = 200_000;

/// A one-shard session for [`NODES`] nodes over a 10 km square, `B` of
/// one slot a node, with a connection open.
fn one_shard_session() -> (SessionCore, u32) {
    let mut cfg = ServeConfig::new(10_000.0, NODES as usize);
    cfg.shards = 1;
    cfg.num_regions = 49;
    cfg.queue_capacity = NODES as usize;
    let mut s = SessionCore::new(cfg);
    let conn = s.open_conn();
    s.handle(conn, Frame::Hello { flags: 0 });
    (s, conn)
}

/// Node `id`'s report: a 1000 × 200 lattice over the square, every node
/// moving south-east at √2 m/s.
fn report(id: u32) -> WireUpdate {
    WireUpdate {
        id,
        x: (id % 1000) as f64 * 10.0 + 5.0,
        y: (id / 1000) as f64 * 50.0 + 5.0,
        vx: 1.0,
        vy: -1.0,
    }
}

/// A `Batch` of the reports of `ids`, sent at `t`.
fn batch(t: f64, ids: impl Iterator<Item = u32>) -> Frame {
    Frame::Batch {
        t,
        updates: ids.map(report).collect(),
    }
}

/// Four overlapping rectangles: `side_for(4) = 8` cells of 1 250 m a
/// side, most of them cut by a query edge, so tens of thousands of nodes
/// hold a partial hit.
fn four_queries() -> Vec<WireQuery> {
    [
        (1_000.0, 1_000.0, 6_000.0, 4_000.0),
        (3_100.0, 2_100.0, 9_000.0, 8_300.0),
        (500.0, 5_200.0, 4_400.0, 9_500.0),
        (7_100.0, 600.0, 9_600.0, 3_300.0),
    ]
    .iter()
    .zip(0..)
    .map(|(&(min_x, min_y, max_x, max_y), id)| WireQuery {
        id,
        min_x,
        min_y,
        max_x,
        max_y,
    })
    .collect()
}

#[test]
fn a_session_ledger_slot_costs_nothing() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let slots = 1 << 24;
    // A small fleet: the session's fixed cost (node store, grids,
    // registry) is ≈ 32 KB at 100 nodes, which leaves the budget to B.
    let mut cfg = ServeConfig::new(10_000.0, 100);
    cfg.queue_capacity = slots;
    let before = ALLOCATED.load(Ordering::Relaxed);
    let s = SessionCore::new(cfg);
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
    drop(s);
    assert!(
        allocated < 64 << 10,
        "a session with B = {slots} allocated {allocated} B at construction; \
         its ledger must reserve nothing for the slots it may never fill"
    );
}

#[test]
fn a_priming_batch_grows_the_heap_by_nothing_node_sized() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut s, conn) = one_shard_session();
    s.handle(
        conn,
        Frame::Register {
            queries: four_queries(),
        },
    );
    // Counted from before the frame is built: `handle` consumes and
    // frees it, so what stays live is what the session kept.
    let before = LIVE.load(Ordering::Relaxed);
    s.handle(conn, batch(0.0, 0..NODES));
    let grown = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        grown < 64 << 10,
        "a priming Batch of {NODES} first reports grew the live heap by {grown} B; \
         the ledger keeps runs of offer times, not slots, and an unprimed engine \
         records no change feed for the rebuild that places every node anyway"
    );
    drop(s);
}

#[test]
fn a_window_close_over_a_deep_queue_allocates_nothing_depth_sized() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut s, conn) = one_shard_session();
    // Prime every node with a first report and a re-report, each round
    // evaluated, so the engine's node and dirty lists are already at
    // full size when the measured window closes over a re-report of all
    // of them.
    for t in [0.0, 0.5] {
        s.handle(conn, batch(t, 0..NODES));
        s.handle(conn, Frame::EvalReq { t });
    }

    let quarter = NODES / 4;
    for k in 0..4 {
        s.handle(conn, batch(1.0, k * quarter..(k + 1) * quarter));
    }
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = s.handle(
        conn,
        Frame::WindowClose {
            t: 1.0,
            window_s: 1.0,
        },
    );
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;

    let Frame::WindowAck { depth, dropped, .. } = out.replies[0] else {
        panic!("expected a WindowAck, got {:?}", out.replies);
    };
    assert_eq!(
        (depth, dropped),
        (NODES as u64, 0),
        "the whole queue drained"
    );
    assert!(
        allocated < 1 << 20,
        "WindowClose over {NODES} queued updates allocated {allocated} B; \
         the drain must not copy the queue"
    );
}

#[test]
fn the_rebuild_allocates_nothing_per_node() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut s, conn) = one_shard_session();
    s.handle(
        conn,
        Frame::Register {
            queries: four_queries(),
        },
    );
    s.handle(conn, batch(0.0, 0..NODES));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = s.handle(conn, Frame::EvalReq { t: 0.0 });
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(matches!(
        out.replies[..],
        [Frame::EvalRes { results: 4, .. }]
    ));
    assert!(
        allocations < 1_000,
        "the rebuild over {NODES} primed nodes made {allocations} allocations; \
         a node's hits must not be a heap block of its own"
    );
}

#[test]
fn a_served_session_holds_each_answer_once() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let live = || LIVE.load(Ordering::Relaxed);
    let before = live();
    let (mut s, conn) = one_shard_session();
    let queries = four_queries();
    s.handle(
        conn,
        Frame::Register {
            queries: queries.clone(),
        },
    );
    // Three rounds: the rebuild, the sweep that schedules the wheel and
    // a kinetic one, each after a batch; the two later batches re-report
    // every hundredth node.
    let rounds = [0.0, 1.0, 2.0];
    for (r, &t) in rounds.iter().enumerate() {
        let ids: Vec<u32> = (0..NODES).filter(|id| r == 0 || id % 100 == 0).collect();
        s.handle(conn, batch(t, ids.into_iter()));
        let out = s.handle(conn, Frame::EvalReq { t });
        assert!(matches!(out.replies[..], [Frame::EvalRes { .. }]));
    }
    let held = live() - before;

    // The round's member pairs, from a server of our own fed the same
    // reports (built after the count, so not in it).
    let mut server = CqServer::new(*s.plan().bounds(), NODES as usize, 0);
    server.register_queries(queries.iter().map(|q| q.to_query()));
    for (r, &t) in rounds.iter().enumerate() {
        for id in (0..NODES).filter(|id| r == 0 || id % 100 == 0) {
            let u = report(id);
            server.ingest(id, t, Point::new(u.x, u.y), (u.vx, u.vy));
        }
    }
    let pairs: usize = server.evaluate(2.0).iter().map(|r| r.nodes.len()).sum();

    let nodes = NODES as usize;
    // The node store: five `f64` columns. The admission ledger holds a
    // run per `Batch` between drain points, and the priming batch grew
    // no first-report list (the engine was unprimed), so neither has a
    // per-node term.
    let store = 40 * nodes;
    // The engine, per node: cell, owned position and wheel tick (4 B
    // each), one hit word (W = 1 here), the dirty flag (1 B), and its
    // entry in the owned list and in the wheel (4 B each, the owned list
    // up to twice that after doubling).
    let engine = (12 + 8 + 1 + 2 * 4 + 4) * nodes;
    // The member lists, up to twice their length after doubling.
    let members = 2 * 4 * pairs;
    let budget = store + engine + members + (1 << 20);
    assert!(
        held as usize <= budget,
        "after three rounds the session holds {held} B, over its budget of {budget} B \
         (store {store}, engine {engine}, {pairs} member pairs {members}, 1 MiB slack): \
         every answer must be held once, as per-node words and member lists"
    );
    drop(s);
}

/// 512 squares on a 16 × 32 lattice over the square, alternately
/// 3 000 m and 300 m a side: member lists of very different sizes side
/// by side, so a buffer handed from a long list to a short one, or
/// resized exactly every round, shows in the counts.
fn mixed_queries() -> Vec<WireQuery> {
    (0..512)
        .map(|id| {
            let side = if id % 2 == 0 { 3_000.0 } else { 300.0 };
            let (min_x, min_y) = (
                (id % 16) as f64 * 430.0 + 50.0,
                (id / 16) as f64 * 215.0 + 50.0,
            );
            WireQuery {
                id,
                min_x,
                min_y,
                max_x: min_x + side,
                max_y: min_y + side,
            }
        })
        .collect()
}

/// Runs kinetic `EvalReq` rounds at one shard over [`mixed_queries`],
/// round `r` at `t = r` after a batch of `updates(r)`, and returns the
/// allocations a measured round made on average and how far the
/// measured rounds grew the live heap. The first `WARM` rounds (the
/// rebuild, the sweep that schedules the wheel, a few kinetic ones) are
/// not measured; only `EvalReq` is, never the batches.
fn kinetic_rounds(updates: impl Fn(u32) -> Vec<WireUpdate>) -> (f64, i64) {
    const WARM: u32 = 8;
    const MEASURED: u32 = 24;
    let (mut s, conn) = one_shard_session();
    s.handle(
        conn,
        Frame::Register {
            queries: mixed_queries(),
        },
    );
    let (mut allocations, mut grown) = (0, 0);
    for r in 0..WARM + MEASURED {
        let t = r as f64;
        s.handle(
            conn,
            Frame::Batch {
                t,
                updates: updates(r),
            },
        );
        let (count, live) = (
            ALLOCATIONS.load(Ordering::Relaxed),
            LIVE.load(Ordering::Relaxed),
        );
        let out = s.handle(conn, Frame::EvalReq { t });
        assert!(matches!(
            out.replies[..],
            [Frame::EvalRes { results: 512, .. }]
        ));
        if r >= WARM {
            allocations += ALLOCATIONS.load(Ordering::Relaxed) - count;
            grown += LIVE.load(Ordering::Relaxed) - live;
        }
    }
    (allocations as f64 / MEASURED as f64, grown)
}

#[test]
fn steady_kinetic_rounds_keep_short_lists_short() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Every node reports first, then a different hundredth of the fleet
    // re-reports each round: the lists keep their sizes.
    let (per_round, grown) = kinetic_rounds(|r| {
        (0..NODES)
            .filter(|id| r == 0 || id % 100 == r % 100)
            .map(report)
            .collect()
    });
    // ≈ 150 allocations a round, nearly all the wheel's buckets, and
    // ≈ 50 kB grown; a rebuilt list swapped in whatever its buffer's
    // size grows the heap by ≈ 1.6 MB.
    assert!(
        per_round < 250.0,
        "a steady kinetic EvalReq made {per_round} allocations a round"
    );
    assert!(
        grown < 1 << 19,
        "24 steady kinetic EvalReqs grew the live heap by {grown} B; a rebuilt member list \
         must not keep a buffer far longer than itself"
    );
}

#[test]
fn growing_member_lists_grow_amortised() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The fleet joins a hundredth at a time, so every member list grows
    // round after round.
    let (per_round, _) =
        kinetic_rounds(|r| (0..NODES).filter(|id| id % 100 == r).map(report).collect());
    // ≈ 140 allocations a round; a rebuilt list's buffer sized exactly,
    // not amortised, makes ≈ 370.
    assert!(
        per_round < 250.0,
        "a kinetic EvalReq over growing lists made {per_round} allocations a round; the \
         member lists' buffers must grow amortised, not be resized exactly every round"
    );
}
