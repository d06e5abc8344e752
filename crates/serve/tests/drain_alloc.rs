//! The served drain works in place: closing a window over a deep queue
//! allocates nothing sized by the queue. A test of the mechanism, not
//! the clock — a counting global allocator sees a depth-sized copy
//! (≈ 11 MB for the 200 000 updates here) whatever the host's speed.
//! One test in a binary of its own, so no other test's allocations land
//! in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lira_serve::protocol::{Frame, WireUpdate};
use lira_serve::session::{ServeConfig, SessionCore};

/// The system allocator, counting every byte it hands out.
struct Counting;

/// Bytes handed out since the process started; a statistic only, so
/// `Relaxed` publishes nothing else.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

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
fn a_window_close_over_a_deep_queue_allocates_nothing_depth_sized() {
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
    // full size when the measured drain re-reports them all again.
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
