//! What the served queues cost, counted by a global allocator that
//! tallies every byte it hands out — tests of the mechanism, not the
//! clock, so they read the same whatever the host's speed:
//!
//! * A session's queues are admission ledgers. `UpdateQueue::new`
//!   preallocates its `B` slots, and a ledger slot holds only an admit
//!   time (8 B), so building a session with `B = 1 000 000` must stay
//!   under 12 MB. A queue that held the updates (56 B a slot) allocates
//!   ≈ 56 MB there.
//! * Closing a window over a deep ledger allocates nothing sized by its
//!   depth (< 1 MiB for 200 000 queued updates; a depth-sized copy of the
//!   queue is ≈ 11 MB).
//!
//! Both live in a binary of their own, so no other test's allocations
//! land in the count, and they take turns on [`SERIAL`] so neither
//! counts the other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use lira_serve::protocol::{Frame, WireUpdate};
use lira_serve::session::{ServeConfig, SessionCore};

/// The system allocator, counting every byte it hands out.
struct Counting;

/// Bytes handed out since the process started; a statistic only, so
/// `Relaxed` publishes nothing else.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

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
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NODES: u32 = 200_000;

#[test]
fn a_session_ledger_costs_eight_bytes_a_slot() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let slots = 1_000_000;
    let mut cfg = ServeConfig::new(10_000.0, 1_000);
    cfg.queue_capacity = slots;
    let before = ALLOCATED.load(Ordering::Relaxed);
    let s = SessionCore::new(cfg);
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
    drop(s);
    assert!(
        allocated < 12_000_000,
        "a session with B = {slots} allocated {allocated} B at construction; \
         its queues must hold admission books (8 B a slot), not updates"
    );
}

#[test]
fn a_window_close_over_a_deep_queue_allocates_nothing_depth_sized() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = ServeConfig::new(10_000.0, NODES as usize);
    cfg.shards = 1;
    cfg.num_regions = 49;
    cfg.queue_capacity = NODES as usize;
    let mut s = SessionCore::new(cfg);
    let conn = s.open_conn();
    s.handle(conn, Frame::Hello { flags: 0 });
    let batch = |t: f64, ids: std::ops::Range<u32>| Frame::Batch {
        t,
        updates: ids
            .map(|id| WireUpdate {
                id,
                x: (id % 1000) as f64 * 10.0 + 5.0,
                y: (id / 1000) as f64 * 50.0 + 5.0,
                vx: 1.0,
                vy: -1.0,
            })
            .collect(),
    };
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
