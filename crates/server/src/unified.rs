//! The unified evaluation engine: one SoA-backed, work-skipping core
//! for every shard count, with `shards = 1` as the degenerate
//! (single-stripe, no-pool) case (DESIGN.md §13).
//!
//! The engine partitions the cell grid of `QueryIndex` into `S`
//! contiguous column stripes, each owned by one shard that runs the same
//! incremental membership maintenance over its own slice of the node
//! population. Per-query member lists are per-shard; per-*node* state
//! (current cell, hit bits, owned-list position) is global — each
//! node is owned by exactly one shard, so the arrays are written
//! disjointly and cost `O(nodes)` once instead of `O(nodes × shards)`.
//!
//! A round is at most three phases over a persistent hand-rolled
//! `WorkerPool` (`S − 1` threads plus the calling thread, reused
//! across rounds), with the pool join acting as the inter-phase barrier
//! — and each phase is dispatched *only to the shards with work*:
//!
//! 1. **Step** — the nodes whose answer may have changed (see *The one
//!    skip rule* below) are bucketed by owning shard on the coordinating
//!    thread, in ascending id order; each active shard re-places its
//!    bucket (or sweeps all owned nodes when the rule cannot name
//!    them), routing stripe-leavers to per-`(src, dst)` outboxes.
//!    Shards with nothing to step are never woken.
//! 2. **Integrate** — pending first reports are pre-routed to their
//!    destination stripe by the coordinator; each *receiving* shard
//!    drains its inbound outboxes and claims its pending arrivals. The
//!    phase is skipped outright when nothing crossed a stripe and
//!    nothing is pending. The member-list edits both phases asked for
//!    are queued, and applied per list in one merge pass before…
//! 3. **Emit** — per-shard disjoint sorted member lists are k-way
//!    merged into the caller's buffers (a plain copy at `shards = 1`).
//!    A caller that only reads the round — the served digest — takes
//!    [`CqServer::evaluate_lists`](crate::cq_engine::CqServer::evaluate_lists)
//!    instead: shard 0's member lists themselves at one shard, an
//!    engine-owned merge buffer at several.
//!
//! Two properties make the result *bit-identical* across shard counts
//! (and to the retired single-index inverted engine):
//!
//! * **Boundary replication**: a query overlapping several stripes is
//!   registered on every overlapping shard, and a stripe index's
//!   per-cell lists are identical to the full-width index's lists for
//!   every in-stripe cell (`QueryIndex::build_cols`). A node is
//!   therefore classified against exactly the same queries at any shard
//!   count, by exactly one shard.
//! * **Deterministic merge**: each shard's member lists are sorted node
//!   sets, shards own disjoint node sets, and the k-way merge emits the
//!   ascending union, independent of thread scheduling.
//!
//! # The one skip rule
//!
//! A node's stored answer is its `(cell, hit bits)`: the grid cell its
//! prediction fell in when it was last placed, and which of that cell's
//! partial-cover queries contained it (see *Hit bits* below). A round at
//! `t` must re-place exactly the nodes for which that pair, recomputed
//! at `t` from the node's current model, could differ. Those are
//!
//! > *re-reported ∪ handed-off ∪ pending ∪ due(t)*
//!
//! — the nodes whose model changed (or vanished) since they were placed,
//! and the nodes whose model did not but whose prediction has moved far
//! enough. `due(t)` comes from a bucketed time wheel (`Wheel`): whenever a
//! node is placed, `Shard::safe_until` gives a conservative instant up to
//! which its pair provably stays what it is, and the node is filed under
//! that instant's tick. The invariant the engine holds between rounds:
//!
//! > *the stored pair is exact for every owned node that has not
//! > re-reported and whose `safe_until ≥ t`.*
//!
//! So a round drains the ticks up to `t`'s, steps what it finds, and
//! leaves everyone else untouched; at `t == last_t` nothing is due, which
//! is the old "same evaluation time" shortcut as a special case rather
//! than a separate path. Stepping goes through `Shard::replace`, the
//! single exact arbiter, whatever the reason a node was stepped: a wheel
//! entry that fires early finds nothing changed and re-files. Correctness
//! therefore never depends on the closed form being *right*, only on it
//! being *early*, and it is early by construction:
//!
//! * The floating-point chain from `t` to the pair — `predict`
//!   (`fl(t − t₀)`, times `v`, plus the origin), `axis_cell` (minus
//!   `lo`, over the extent, times `side`, floor, clamp) and the range
//!   comparisons — is monotone in `t` stage by stage, per axis. A
//!   monotone step function that reads the same at both ends of an
//!   interval is constant on it.
//! * `safe_until` proposes an instant from real arithmetic — distance to
//!   the nearest cell or query edge ahead, shrunk by the same
//!   `1e-9·(w+h)` margin the full-cover test uses, over the speed — and
//!   then *checks* it with that very chain: same cell, nearest edge on
//!   each axis not reached. It returns the proposal only if the check
//!   passes, and `t` itself (due at every later round) otherwise. The
//!   margin is what makes the check pass instead of landing within an
//!   ulp of an edge; it can only make a node fire early.
//! * Ticks order entries through one monotone function of time, and a
//!   round drains the whole tick `t` falls in, so `safe_until < t`
//!   implies "drained".
//!
//! What the wheel costs: one `u32` tick word per node plus one `u32` per
//! live entry (about one per moving node: a re-report leaves the old
//! entry in place unless the new safe time is *earlier*), allocated at
//! the first round that schedules and global like the other per-node
//! arrays. A rebuild files nothing and leaves the engine unscheduled;
//! the first advancing round after it is a sweep that files everyone
//! (`Wheel::reschedule`, `Wheel::fill`). The sweep is also the fallback
//! whenever the wheel cannot name the due nodes (`t < last_t`, a jump
//! past the ring) or would name too many of them to be worth asking
//! (`BUSY`, `CALM`: a world that moves a node a good part of a cell per
//! round sweeps as it always did) — and, with
//! `CqServer::with_dirty_tracking(false)`, every round: the benchmarks'
//! baseline and the in-tree oracle the equivalence batteries hold the
//! kinetic rounds to.
//!
//! # Hit bits
//!
//! A node's partial hits are a subset of its cell's partial list
//! (`QueryIndex::partial_at`), which is ascending and the same list on
//! every stripe that stores the cell — and the shard that owns a node
//! owns its cell. So the hits are kept as a bitset over that list: bit
//! `i` of the node's words stands for the list's `i`-th query. Every node
//! has `W` `u64` words in one flat array, where `W` is the widest
//! partial list over 64, rounded up (at least 1), derived from the
//! built indexes whenever the query set changes. On the repo
//! benchmark's workloads the widest list is 9, so a node's hit state is
//! one 8 B word; no node owns a heap block of its own, whatever `W`.
//! Bits are only meaningful against the cell they were set in: a step
//! that changes cell reads the old words through the old cell's list
//! and writes the new words against the new one.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use lira_core::geometry::{Point, Rect};

use crate::node_store::NodeStore;
use crate::qindex::{axis_cell, insert_member, remove_member, side_for, QueryIndex};
use crate::query::{QueryResult, RangeQuery};

/// Hard cap on the shard count: the emit merge keeps one cursor per
/// shard on the stack, and stripe parallelism past this point is far
/// beyond any sensible core count for one lane.
pub const MAX_SHARDS: usize = 32;

/// Sentinel for "this node is owned by no shard" in the global per-node
/// arrays (`side ≤ 256`, so real cell ids stay far below it).
const UNOWNED: u32 = u32::MAX;

/// Buckets in the kinetic time wheel's ring, and so how many ticks
/// ahead a node can be filed. A node that stays safe past the horizon is
/// filed inside it and re-files when it fires (nothing changed, one step),
/// which costs `owned / (WHEEL_TICKS / TICKS_PER_ROUND)` spurious steps a
/// round at worst.
const WHEEL_TICKS: u64 = 4096;
/// A tick is this fraction of the evaluation period seen when the wheel
/// was scheduled. A round drains the whole tick `t` falls in, so nodes
/// fire up to one tick early: finer ticks waste fewer steps, coarser ones
/// reach further ahead (the horizon is `WHEEL_TICKS / TICKS_PER_ROUND` =
/// 512 rounds).
const TICKS_PER_ROUND: f64 = 8.0;
/// A kinetic round that would have to step more than this share of the
/// fleet (`BUSY.0 / BUSY.1`) falls back to the sweep. A step through the
/// wheel costs about three of a sweep's — it also computes a
/// `safe_until`, and it walks the node arrays in gaps rather than in
/// order — and the churn ladder of EXPERIMENTS.md (*PR 17*) puts the
/// break-even between 31 % of the fleet (still 1.2× ahead) and 47 %
/// (0.7×).
const BUSY: (usize, usize) = (2, 5);
/// A sweep schedules the wheel only if the sweep before it changed less
/// than this share of the fleet — half the rate at which a kinetic round
/// gives up, so a world near the threshold does not flip back and forth
/// paying for a whole-fleet filing each time.
const CALM: (usize, usize) = (1, 5);
/// Nodes a kinetic round steps between two warm-up passes (see
/// `Shard::dirty_round`): enough for their misses to overlap, few
/// enough that the lines are still in L1/L2 when the steps read them.
const WARM_CHUNK: usize = 64;
/// A drained wheel bucket keeps its buffer if it holds at most this many
/// entries (a small world then never allocates in a round); a larger one
/// is freed, and buckets grow by at least this much.
const BUCKET_KEEP: usize = 32;
/// Sentinel in the per-node tick word for "no live wheel entry": never
/// filed, already fired, torn down, or safe forever.
const NO_TICK: u32 = u32::MAX;

/// Adaptive-dispatch gate for the per-node phases (step/sweep/rebuild):
/// waking the pool costs two channel hops per worker, so rounds below
/// this much per-node work stay on the calling thread.
const PAR_STEP_MIN: usize = 1024;
/// Adaptive-dispatch gate for the emit phase, in result entries
/// (measured on the previous round — emit volume is stable between
/// adjacent rounds).
const PAR_EMIT_MIN: usize = 8192;

/// A snapshot of one shard's telemetry, exposed through
/// [`CqServer::shard_stats`](crate::cq_engine::CqServer::shard_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard position (0-based).
    pub shard: usize,
    /// Grid columns `[start, end)` of the stripe this shard owns.
    pub columns: (usize, usize),
    /// Nodes currently owned by the shard (as of the last exact round).
    pub nodes: usize,
    /// Cumulative wall time the shard spent in step/integrate phases,
    /// nanoseconds.
    pub round_ns: u64,
    /// Cumulative nodes handed off *out of* this shard on stripe
    /// crossings.
    pub handoffs: u64,
    /// Cumulative nodes this shard placed or re-placed: every owned node
    /// in a rebuild or a sweep; re-reported, due and first-reporting
    /// nodes in a kinetic round (a node handed to another stripe counts
    /// once, here). The per-round difference is what the round cost.
    pub stepped: u64,
    /// Cumulative wheel entries that came due for nodes of this shard
    /// and sent them through a step (DESIGN.md §13).
    pub due_fired: u64,
    /// Cumulative wheel entries dropped on pop because the node had been
    /// re-filed, handed off or removed since. Entries of nodes no shard
    /// owns any more are charged to shard 0.
    pub due_stale: u64,
}

/// One dispatched unit: run `f(idx)`. The erased borrow is kept alive by
/// [`WorkerPool::run_on`], which blocks until the worker signals
/// completion.
struct Job {
    f: &'static (dyn Fn(usize) + Sync),
    idx: usize,
}

/// A persistent pool of worker threads, created once per engine and
/// reused by every round (the vendored-deps-only stand-in for a rayon
/// scope). Workers block on a channel between rounds, so an idle pool
/// costs nothing but memory.
struct WorkerPool {
    senders: Vec<Sender<Job>>,
    done: Receiver<()>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads, each waiting for jobs.
    fn new(workers: usize) -> Self {
        let (done_tx, done) = channel();
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = channel::<Job>();
            let done_tx = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("lira-shard-{}", w + 1))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        (job.f)(job.idx);
                        if done_tx.send(()).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn shard worker thread");
            senders.push(tx);
            handles.push(handle);
        }
        WorkerPool {
            senders,
            done,
            handles,
        }
    }

    /// Runs `f(i)` concurrently for every index in `targets` — the tail
    /// on pool workers, the head on the calling thread — and blocks
    /// until all of them finish. The join doubles as the inter-phase
    /// barrier: a dispatch never overlaps the previous one. Idle shards
    /// are simply not in `targets` and their workers never wake.
    fn run_on(&self, targets: &[usize], f: &(dyn Fn(usize) + Sync)) {
        let Some((&head, tail)) = targets.split_first() else {
            return;
        };
        assert!(
            tail.len() <= self.senders.len(),
            "pool too small for {} shards",
            targets.len()
        );
        // SAFETY: erasing the borrow's lifetime is sound because this
        // function does not return until every dispatched job has
        // signalled completion on the done channel, so no worker can
        // still hold `f` after the borrow ends.
        let f_erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        for (w, &idx) in tail.iter().enumerate() {
            self.senders[w]
                .send(Job { f: f_erased, idx })
                .expect("shard worker alive");
        }
        f(head);
        for _ in tail {
            self.done.recv().expect("shard worker finished");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channels wakes every worker out of `recv`.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

/// A raw pointer the phase closures can share across worker threads.
/// Every use site upholds the phase protocol: during a phase each
/// accessed index is touched mutably by exactly one worker, or the
/// pointee is read-only for the whole phase; the dispatch join orders
/// phases.
struct SendMutPtr<T>(*mut T);

impl<T> SendMutPtr<T> {
    /// The wrapped pointer. A method rather than field access so that
    /// closures capture the whole `Sync` wrapper (edition-2021 precise
    /// capture would otherwise grab the bare `*mut`, which is `!Sync`).
    fn ptr(&self) -> *mut T {
        self.0
    }
}

impl<T> Clone for SendMutPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendMutPtr<T> {}
// SAFETY: see the struct documentation — disjoint or read-only access
// per phase, phases ordered by the dispatch join.
unsafe impl<T> Send for SendMutPtr<T> {}
unsafe impl<T> Sync for SendMutPtr<T> {}

/// Shared views of the engine's *global* per-node arrays, handed to the
/// shard phase methods. Per-element access only, via raw pointers — no
/// aliased `&mut` slices ever exist across workers.
///
/// The disjointness protocol: a node's entries are written only by the
/// shard that owns the node (step/sweep phases), by the shard claiming
/// it (integrate phase — exactly one shard per node, since a node is
/// routed to exactly one stripe), or by the coordinator between phases.
#[derive(Clone, Copy)]
struct NodeRefs {
    cell: SendMutPtr<u32>,
    /// `words` hit words per node, node-major.
    hits: SendMutPtr<u64>,
    words: usize,
    pos: SendMutPtr<u32>,
    /// The wheel's per-node tick words; dangling unless the round files
    /// (only touched under a [`Filing`]).
    tick: SendMutPtr<u32>,
}

impl NodeRefs {
    /// The global cell node `n`'s prediction occupied at the last round
    /// (`UNOWNED` when no shard owns the node).
    #[inline]
    fn cell(&self, n: usize) -> u32 {
        // SAFETY: per-node disjoint access, see the struct docs.
        unsafe { *self.cell.ptr().add(n) }
    }

    #[inline]
    fn set_cell(&self, n: usize, v: u32) {
        // SAFETY: per-node disjoint access, see the struct docs.
        unsafe { *self.cell.ptr().add(n) = v }
    }

    /// Node `n`'s hit words: bit `i` set iff the `i`-th query of its
    /// cell's partial list contains it (module docs, *Hit bits*).
    #[allow(clippy::mut_from_ref)]
    #[inline]
    fn hits(&self, n: usize) -> &mut [u64] {
        // SAFETY: per-node disjoint access, see the struct docs; the
        // returned borrow is used and dropped within one shard's
        // single-threaded phase code.
        unsafe { std::slice::from_raw_parts_mut(self.hits.ptr().add(n * self.words), self.words) }
    }

    /// Node `n`'s position in its owning shard's `owned` list.
    #[inline]
    fn pos(&self, n: usize) -> u32 {
        // SAFETY: per-node disjoint access, see the struct docs.
        unsafe { *self.pos.ptr().add(n) }
    }

    #[inline]
    fn set_pos(&self, n: usize, v: u32) {
        // SAFETY: per-node disjoint access, see the struct docs.
        unsafe { *self.pos.ptr().add(n) = v }
    }

    /// The tick node `n`'s live wheel entry is filed under ([`NO_TICK`]
    /// when it has none). Only valid in a round that files.
    #[inline]
    fn tick(&self, n: usize) -> u32 {
        // SAFETY: per-node disjoint access, see the struct docs.
        unsafe { *self.tick.ptr().add(n) }
    }

    #[inline]
    fn set_tick(&self, n: usize, v: u32) {
        // SAFETY: per-node disjoint access, see the struct docs.
        unsafe { *self.tick.ptr().add(n) = v }
    }
}

/// What a shard needs to file the nodes it places in a round at `t`
/// into the coordinator's [`Wheel`]: the wheel's time base and the tick
/// `t` falls in. `None` in a round that does not file (a rebuild, a
/// sweep with dirty tracking off, a same-`t` round on an unscheduled
/// engine).
#[derive(Clone, Copy)]
struct Filing {
    /// Time of tick 0.
    origin: f64,
    /// Seconds per tick.
    width: f64,
    /// The tick the round's `t` falls in: the earliest a node can be
    /// filed under, and the first the next advancing round drains.
    first: u64,
    /// Whether this is the sweep that (re)schedules every owned node:
    /// the coordinator then fills the ring from the tick words in one
    /// counted pass, and the shards keep no list of what they filed.
    bulk: bool,
}

impl Filing {
    /// The tick time `s ≥ origin` falls in. Monotone in `s` — every
    /// step is (subtract, divide by a positive width, truncate,
    /// saturate) — which is all the wheel's "never late" argument needs:
    /// `s < t` implies `tick_of(s) ≤ tick_of(t)`.
    #[inline]
    fn tick_of(&self, s: f64) -> u64 {
        ((s - self.origin) / self.width) as u64
    }

    /// The tick to file node `n` under when its answer is safe until
    /// `s`: the tick of `s`, or — past the horizon — a tick in the far
    /// half of the ring picked by node id, so the nodes that are safe
    /// for a long time come back a few per round instead of all at
    /// once. [`NO_TICK`] when `s` is `+∞`.
    #[inline]
    fn tick_for(&self, s: f64, n: usize) -> u32 {
        if s == f64::INFINITY {
            return NO_TICK;
        }
        let last = self.first + WHEEL_TICKS - 1;
        let k = self.tick_of(s);
        let k = if k > last {
            last - n as u64 % (WHEEL_TICKS / 2)
        } else {
            k.max(self.first)
        };
        k as u32
    }
}

/// The kinetic schedule (module docs, *The one skip rule*): a bucketed
/// time wheel over the owned nodes, owned by the coordinator. Global
/// rather than per-shard, like the other per-node arrays.
#[derive(Debug, Clone, Default)]
struct Wheel {
    /// Whether the wheel covers every owned node: each has a live entry
    /// at or before the tick of its `safe_until`, or is safe forever.
    /// False until the first advancing round after a rebuild (which is a
    /// sweep that files), and whenever dirty tracking is off.
    scheduled: bool,
    /// Time of tick 0 and seconds per tick, set when scheduled.
    origin: f64,
    width: f64,
    /// `ring[k % WHEEL_TICKS]` holds the ids filed under tick `k`. Live
    /// ticks span less than one turn, so slots never mix ticks. Empty
    /// until first scheduled.
    ring: Vec<Vec<u32>>,
    /// Per node: the tick of its live entry, [`NO_TICK`] if none. An
    /// entry popped from tick `k` is live iff this word says `k`. Empty
    /// until first scheduled.
    tick: Vec<u32>,
}

impl Wheel {
    /// The filing context for a round at `t` on a scheduled wheel.
    fn filing(&self, t: f64) -> Option<Filing> {
        let base = Filing {
            origin: self.origin,
            width: self.width,
            first: 0,
            bulk: false,
        };
        self.scheduled.then(|| Filing {
            first: base.tick_of(t),
            ..base
        })
    }

    /// Empties the wheel and restarts it at `t` with ticks sized from
    /// the step `last_t → t`, for a sweep that files every owned node.
    /// Leaves the wheel unscheduled (and returns `None`) when the step
    /// gives no usable tick width.
    fn reschedule(&mut self, last_t: f64, t: f64, num_nodes: usize) -> Option<Filing> {
        let width = (t - last_t).abs() / TICKS_PER_ROUND;
        self.scheduled = width > 0.0 && width.is_finite() && t.is_finite();
        if !self.scheduled {
            return None;
        }
        self.origin = t;
        self.width = width;
        // Fresh buckets, so `fill` sizes each to what it holds.
        self.ring.clear();
        self.ring.resize_with(WHEEL_TICKS as usize, Vec::new);
        self.tick.clear();
        self.tick.resize(num_nodes, NO_TICK);
        self.filing(t).map(|f| Filing { bulk: true, ..f })
    }

    /// Fills the emptied ring from the tick words after a sweep that
    /// filed every owned node, each bucket allocated to its exact size.
    fn fill(&mut self) {
        let slot = |k: u32| (k as u64 % WHEEL_TICKS) as usize;
        let mut sizes = vec![0usize; WHEEL_TICKS as usize];
        for &k in self.tick.iter().filter(|&&k| k != NO_TICK) {
            sizes[slot(k)] += 1;
        }
        for (bucket, &size) in self.ring.iter_mut().zip(&sizes) {
            bucket.reserve_exact(size);
        }
        for (n, &k) in self.tick.iter().enumerate() {
            if k != NO_TICK {
                self.ring[slot(k)].push(n as u32);
            }
        }
    }
}

/// One stripe's evaluation state: the per-query member lists restricted
/// to the nodes whose predicted position falls in this shard's columns,
/// plus the stripe-clipped indexes. Per-node state lives in the
/// engine-global arrays (see [`NodeRefs`]).
#[derive(Debug, Clone)]
struct Shard {
    /// Grid columns `[start, end)` owned by this shard.
    cols: Range<usize>,
    /// Stripe-restricted cell→queries index for exact evaluation.
    qindex: QueryIndex,
    /// Per *global* query slot: sorted ids of owned member nodes.
    members: Vec<Vec<u32>>,
    /// Owned node ids (unordered; the global `owned_pos` array maps
    /// node → position in this list).
    owned: Vec<u32>,
    /// The hit words `replace` computes before it compares them with
    /// the stored ones (`W` of them).
    hits_scratch: Vec<u64>,
    /// Cumulative step+integrate wall time, nanoseconds.
    round_ns: u64,
    /// Cumulative nodes handed off out of this shard.
    handoffs: u64,
    /// Member-list edits the round's steps and claims asked for, as
    /// [`member_op`] words; [`flush_ops`](Self::flush_ops) applies them
    /// per list before the emit phase reads any.
    ops: Vec<u64>,
    /// Merge buffer of `flush_ops`, usually swapped with the list it
    /// rebuilt.
    ops_scratch: Vec<u32>,
    /// Nodes whose tick word this shard set during the round; the
    /// coordinator moves them into the wheel's buckets after the phases
    /// (the ring is its alone to write).
    filed: Vec<u32>,
    /// Cumulative steps that found a node's `(cell, hit bits)`
    /// different from what was stored, or the node gone: over a sweep,
    /// how much of the fleet a round at this cadence really changes.
    changed: u64,
    /// Cumulative counts behind [`ShardStats`].
    stepped: u64,
    due_fired: u64,
    due_stale: u64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            cols: 0..0,
            qindex: QueryIndex::unbuilt(),
            members: Vec::new(),
            owned: Vec::new(),
            hits_scratch: Vec::new(),
            round_ns: 0,
            handoffs: 0,
            ops: Vec::new(),
            ops_scratch: Vec::new(),
            filed: Vec::new(),
            changed: 0,
            stepped: 0,
            due_fired: 0,
            due_stale: 0,
        }
    }

    /// Full build: claim every reported node in the stripe with one
    /// ascending store pass (pushing in node-id order keeps the member
    /// lists sorted with no per-insert search). The coordinator reset
    /// the global per-node arrays before this phase.
    fn rebuild(&mut self, queries: &[RangeQuery], store: &NodeStore, t: f64, refs: NodeRefs) {
        for list in &mut self.members {
            list.clear();
        }
        self.owned.clear();
        let Shard {
            cols,
            qindex,
            members,
            owned,
            ..
        } = self;
        for n in 0..store.len() {
            let Some(p) = store.predict(n as u32, t) else {
                continue;
            };
            let (row, col) = qindex.rc_of(&p);
            if !cols.contains(&col) {
                continue;
            }
            let slot = qindex.slot(row, col);
            for &q in qindex.full_at(slot) {
                members[q as usize].push(n as u32);
            }
            let hits = refs.hits(n);
            for (i, &q) in qindex.partial_at(slot).iter().enumerate() {
                if queries[q as usize].range.contains(&p) {
                    members[q as usize].push(n as u32);
                    set_bit(hits, i);
                }
            }
            refs.set_cell(n, (row * qindex.side() + col) as u32);
            refs.set_pos(n, owned.len() as u32);
            owned.push(n as u32);
        }
        self.stepped += self.owned.len() as u64;
    }

    /// Incremental sweep over every owned node: the fallback when the
    /// wheel cannot say which nodes are due (module docs), and every
    /// round of the dirty-tracking-off baseline. With a `filing` it also
    /// (re)schedules every node it places.
    #[allow(clippy::too_many_arguments)]
    fn sweep_round(
        &mut self,
        queries: &[RangeQuery],
        store: &NodeStore,
        t: f64,
        routes_row: &mut [Vec<u32>],
        col_owner: &[u32],
        refs: NodeRefs,
        filing: Option<&Filing>,
    ) {
        self.stepped += self.owned.len() as u64;
        let mut k = 0;
        while k < self.owned.len() {
            let n = self.owned[k] as usize;
            if self.step_node(n, queries, store, t, routes_row, col_owner, refs, filing) {
                k += 1;
            } else {
                self.unown_at(k, refs);
            }
        }
    }

    /// Work-skipping round: `dirty` is this shard's bucket of owned
    /// nodes whose stored answer may be wrong at `t` — they re-reported
    /// or were removed since the last round, or their wheel entry came
    /// due. Everyone else has the same model and a `safe_until ≥ t`,
    /// hence the same cell and the same memberships.
    #[allow(clippy::too_many_arguments)]
    fn dirty_round(
        &mut self,
        dirty: &[u32],
        queries: &[RangeQuery],
        store: &NodeStore,
        t: f64,
        routes_row: &mut [Vec<u32>],
        col_owner: &[u32],
        refs: NodeRefs,
        filing: Option<&Filing>,
    ) {
        self.stepped += dirty.len() as u64;
        for chunk in dirty.chunks(WARM_CHUNK) {
            // A step reads eight scattered cache lines of per-node state
            // (five store columns, cell, hit words, tick) and is too
            // branchy for the core to run ahead into the next node's.
            // Reading one word of each first, in a loop with nothing
            // else in it, lets those misses overlap: a third off the
            // round at a million nodes.
            let mut touched = 0u64;
            for &n in chunk {
                let n = n as usize;
                touched ^= store
                    .predict(n as u32, t)
                    .map_or(0, |p| p.x.to_bits() ^ p.y.to_bits())
                    ^ refs.cell(n) as u64
                    ^ refs.hits(n)[0];
                if filing.is_some() {
                    touched ^= refs.tick(n) as u64;
                }
            }
            std::hint::black_box(touched);
            for &n in chunk {
                let n = n as usize;
                debug_assert_ne!(refs.cell(n), UNOWNED, "dirty node routed to a non-owner");
                if !self.step_node(n, queries, store, t, routes_row, col_owner, refs, filing) {
                    self.unown_at(refs.pos(n) as usize, refs);
                }
            }
        }
    }

    /// Drops the owned entry at position `k`, keeping `owned_pos` exact.
    fn unown_at(&mut self, k: usize, refs: NodeRefs) {
        let n = self.owned.swap_remove(k) as usize;
        refs.set_pos(n, UNOWNED);
        if let Some(&moved) = self.owned.get(k) {
            refs.set_pos(moved as usize, k as u32);
        }
    }

    /// Removes every membership node `n` holds on this shard and marks
    /// it unplaced (stripe crossing or node removal). Its wheel entry, if
    /// any, goes stale.
    fn tear_down(&mut self, n: usize, refs: NodeRefs, filing: Option<&Filing>) {
        self.changed += 1;
        if filing.is_some() {
            refs.set_tick(n, NO_TICK);
        }
        let Shard { qindex, ops, .. } = self;
        let old_slot = qindex.slot_of_cell(refs.cell(n) as usize);
        let hits = refs.hits(n);
        let held = qindex.full_at(old_slot).iter().copied();
        for q in held.chain(hit_queries(hits, qindex.partial_at(old_slot))) {
            ops.push(member_op(q, n as u32, false));
        }
        hits.fill(0);
        refs.set_cell(n, UNOWNED);
    }

    /// Re-places one owned node at time `t`, and files it when the round
    /// files. Returns false when the node left this shard: removed from
    /// the store (memberships torn down, node forgotten) or crossed into
    /// another stripe (torn down and routed to the new owner's inbox).
    #[allow(clippy::too_many_arguments)]
    fn step_node(
        &mut self,
        n: usize,
        queries: &[RangeQuery],
        store: &NodeStore,
        t: f64,
        routes_row: &mut [Vec<u32>],
        col_owner: &[u32],
        refs: NodeRefs,
        filing: Option<&Filing>,
    ) -> bool {
        debug_assert_ne!(refs.cell(n), UNOWNED, "stepping an unowned node");
        let Some(p) = store.predict(n as u32, t) else {
            // The node was removed since the last round.
            self.tear_down(n, refs, filing);
            return false;
        };
        let (row, col) = self.qindex.rc_of(&p);
        if !self.cols.contains(&col) {
            // Stripe crossing: remove every membership held here and hand
            // the node to the stripe that owns its new column.
            self.tear_down(n, refs, filing);
            self.handoffs += 1;
            routes_row[col_owner[col] as usize].push(n as u32);
            return false;
        }
        self.changed += self.replace(n, &p, row, col, queries, refs) as u64;
        if let Some(f) = filing {
            self.file(n, &p, row, col, queries, store, t, f, refs);
        }
        true
    }

    /// Moves owned node `n`'s memberships to what position `p` in
    /// in-stripe cell `(row, col)` implies. This is the single exact
    /// arbiter of a node's answer: whatever made the node step — a
    /// report, a sweep, a wheel entry firing early — the stored
    /// `(cell, hit bits)` afterwards is the one `p` has. Returns
    /// whether that differs from what was stored.
    fn replace(
        &mut self,
        n: usize,
        p: &Point,
        row: usize,
        col: usize,
        queries: &[RangeQuery],
        refs: NodeRefs,
    ) -> bool {
        let cell = row * self.qindex.side() + col;
        let slot = self.qindex.slot(row, col);
        let old_cell = refs.cell(n) as usize;
        let Shard {
            qindex,
            ops,
            hits_scratch,
            ..
        } = self;
        let partial = qindex.partial_at(slot);
        if cell == old_cell && partial.is_empty() {
            // Full-cover membership depends on the cell alone: nothing
            // can have changed for this node.
            return false;
        }
        hits_scratch.fill(0);
        for (i, &q) in partial.iter().enumerate() {
            if queries[q as usize].range.contains(p) {
                set_bit(hits_scratch, i);
            }
        }
        let old_hits = refs.hits(n);
        if cell == old_cell && *hits_scratch == *old_hits {
            return false;
        }
        // A node's memberships are its cell's full covers plus its
        // partial hits; only the difference touches a member list. A
        // node that crosses between two cells the same query covers —
        // most crossings — stays where it is in that query's list.
        let old_slot = qindex.slot_of_cell(old_cell);
        sync_members(
            ops,
            n as u32,
            merged(
                qindex.full_at(old_slot).iter().copied(),
                hit_queries(old_hits, qindex.partial_at(old_slot)),
            ),
            merged(
                qindex.full_at(slot).iter().copied(),
                hit_queries(hits_scratch, partial),
            ),
        );
        old_hits.copy_from_slice(hits_scratch);
        refs.set_cell(n, cell as u32);
        true
    }

    /// A conservative `safe_until` for node `n`, just placed at `p` in
    /// cell `(row, col)` at time `t`: an instant up to which its
    /// floating-point `(cell, hit bits)` provably equals what is
    /// stored now. `+∞` for a node that can reach nothing; `t` itself
    /// when nothing better can be proved (the node is then due at every
    /// later `t`).
    ///
    /// The closed form only *proposes*: per axis, the distance to the
    /// nearest coordinate ahead at which any comparison can flip — the
    /// cell edge, and each edge line of each partial-cover query of the
    /// cell, whether or not the node will be inside the query's other
    /// axis when it gets there — shrunk by [`QueryIndex::edge_margin`],
    /// over the speed. The floating-point chain *disposes*: the node is
    /// predicted at the proposed instant with the very `predict` /
    /// `axis_cell` / `<` a step would use, and the proposal stands only
    /// if the cell is the same and neither nearest coordinate has been
    /// reached. Each stage of that chain is monotone in `t`
    /// (`fl(t − t₀)`, times a constant, plus a constant, minus `lo`,
    /// over a positive extent, floor, clamp, compare against a
    /// constant), so a comparison that reads the same at both ends of
    /// an interval reads the same throughout, and the farther edges
    /// cannot flip before the nearest. The margin is therefore not what
    /// makes the bound sound — it is what makes the check pass instead
    /// of landing within an ulp of the edge — and erring by it only
    /// ever fires a node early.
    #[allow(clippy::too_many_arguments)]
    fn safe_until(
        &self,
        n: usize,
        p: &Point,
        row: usize,
        col: usize,
        queries: &[RangeQuery],
        store: &NodeStore,
        t: f64,
    ) -> f64 {
        let (vx, vy) = store.velocity(n as u32);
        let (x0, x1, y0, y1) = self.qindex.cell_edges(row, col);
        // The nearest flip coordinate ahead on each axis. A coordinate
        // moving up can only flip `p < e` for `e > p`; moving down, for
        // `e ≤ p` (both `min ≤ p` and `p < max` are functions of `p < e`).
        let mut ex = if vx > 0.0 { x1 } else { x0 };
        let mut ey = if vy > 0.0 { y1 } else { y0 };
        let nearer = |near: &mut f64, e: f64, p: f64, v: f64| {
            if v > 0.0 && e > p {
                *near = near.min(e);
            } else if v < 0.0 && e <= p {
                *near = near.max(e);
            }
        };
        for &q in self.qindex.partial_at(self.qindex.slot(row, col)) {
            let r = &queries[q as usize].range;
            nearer(&mut ex, r.min.x, p.x, vx);
            nearer(&mut ex, r.max.x, p.x, vx);
            nearer(&mut ey, r.min.y, p.y, vy);
            nearer(&mut ey, r.max.y, p.y, vy);
        }
        let eps = self.qindex.edge_margin();
        let time_to = |e: f64, p: f64, v: f64| {
            if v == 0.0 {
                f64::INFINITY
            } else {
                ((e - p).abs() - eps) / v.abs()
            }
        };
        let dt = time_to(ex, p.x, vx).min(time_to(ey, p.y, vy));
        if dt == f64::INFINITY {
            return f64::INFINITY;
        }
        let s = t + dt;
        // No headroom, an overflow, or a NaN from non-finite inputs.
        if s.is_nan() || s <= t || s == f64::INFINITY {
            return t;
        }
        let Some(ps) = store.predict(n as u32, s) else {
            return t;
        };
        let unchanged = self.qindex.rc_of(&ps) == (row, col)
            && (ps.x < ex) == (p.x < ex)
            && (ps.y < ey) == (p.y < ey);
        if unchanged {
            s
        } else {
            t
        }
    }

    /// Files node `n`, just placed at `p`, under the tick of its
    /// [`safe_until`](Self::safe_until) — lazily: a live entry at an
    /// earlier tick is left to fire early (it finds nothing changed and
    /// re-files), so a node that re-reports every round still has one
    /// entry, not one per report. Only a node whose safe time moved
    /// *earlier* gets a second entry, and the first goes stale.
    #[allow(clippy::too_many_arguments)]
    fn file(
        &mut self,
        n: usize,
        p: &Point,
        row: usize,
        col: usize,
        queries: &[RangeQuery],
        store: &NodeStore,
        t: f64,
        filing: &Filing,
        refs: NodeRefs,
    ) {
        let s = self.safe_until(n, p, row, col, queries, store, t);
        let k = filing.tick_for(s, n);
        // Covers "live entry at or before `k`" and "none wanted, none
        // there" (`NO_TICK` is the largest word).
        if refs.tick(n) <= k {
            return;
        }
        refs.set_tick(n, k);
        if !filing.bulk {
            self.filed.push(n as u32);
        }
    }

    /// Claims a node routed here by another shard (its new position is
    /// guaranteed to lie in this stripe).
    #[allow(clippy::too_many_arguments)]
    fn claim(
        &mut self,
        n: usize,
        queries: &[RangeQuery],
        store: &NodeStore,
        t: f64,
        refs: NodeRefs,
        filing: Option<&Filing>,
    ) {
        let p = store.predict(n as u32, t).expect("routed node has a model");
        let (row, col) = self.qindex.rc_of(&p);
        debug_assert!(self.cols.contains(&col), "node routed to the wrong stripe");
        self.insert_node(n, row, col, &p, queries, refs);
        if let Some(f) = filing {
            self.file(n, &p, row, col, queries, store, t, f, refs);
        }
    }

    /// Claims a pending first report the coordinator routed to this
    /// stripe. Skips nodes that are already owned (a node can be pending
    /// *and* re-placed in the step phase after a remove/re-ingest pair)
    /// or were removed again before the round.
    #[allow(clippy::too_many_arguments)]
    fn claim_pending(
        &mut self,
        n: usize,
        queries: &[RangeQuery],
        store: &NodeStore,
        t: f64,
        refs: NodeRefs,
        filing: Option<&Filing>,
    ) {
        if refs.cell(n) != UNOWNED {
            return;
        }
        let Some(p) = store.predict(n as u32, t) else {
            return;
        };
        let (row, col) = self.qindex.rc_of(&p);
        debug_assert!(
            self.cols.contains(&col),
            "pending node routed to the wrong stripe"
        );
        // A first placement is a step; a hand-off was counted where the
        // node was stepped out of its old stripe.
        self.stepped += 1;
        self.insert_node(n, row, col, &p, queries, refs);
        if let Some(f) = filing {
            self.file(n, &p, row, col, queries, store, t, f, refs);
        }
    }

    fn insert_node(
        &mut self,
        n: usize,
        row: usize,
        col: usize,
        p: &Point,
        queries: &[RangeQuery],
        refs: NodeRefs,
    ) {
        let slot = self.qindex.slot(row, col);
        let Shard {
            qindex, ops, owned, ..
        } = self;
        for &q in qindex.full_at(slot) {
            ops.push(member_op(q, n as u32, true));
        }
        let hits = refs.hits(n);
        debug_assert!(
            hits.iter().all(|&w| w == 0),
            "claimed node carries stale hit bits"
        );
        for (i, &q) in qindex.partial_at(slot).iter().enumerate() {
            if queries[q as usize].range.contains(p) {
                ops.push(member_op(q, n as u32, true));
                set_bit(hits, i);
            }
        }
        refs.set_cell(n, (row * qindex.side() + col) as u32);
        refs.set_pos(n, owned.len() as u32);
        owned.push(n as u32);
    }

    /// Applies the round's queued member-list edits. A sorted `Vec`
    /// pays a memmove of half the list per single insert or remove; a
    /// round at a million nodes queues dozens of edits against each
    /// list, so a list with more than a couple is instead rebuilt in one
    /// merge pass over it and its (sorted) edits.
    fn flush_ops(&mut self) {
        let Shard {
            members,
            ops,
            ops_scratch,
            ..
        } = self;
        ops.sort_unstable();
        let mut rest = ops.as_slice();
        while let Some(&first) = rest.first() {
            let q = (first >> 33) as u32;
            let (group, tail) = rest.split_at(rest.partition_point(|&op| (op >> 33) as u32 == q));
            rest = tail;
            let edit = |op: u64| ((op >> 1) as u32, op & 1 == 1);
            if group.len() <= 2 {
                for &op in group {
                    match edit(op) {
                        (n, true) => insert_member(members, q, n),
                        (n, false) => remove_member(members, q, n),
                    }
                }
                continue;
            }
            let list = &mut members[q as usize];
            ops_scratch.clear();
            let mut kept = list.as_slice();
            for &op in group {
                let (n, insert) = edit(op);
                let (below, from) = kept.split_at(kept.partition_point(|&m| m < n));
                ops_scratch.extend_from_slice(below);
                let present = from.first() == Some(&n);
                debug_assert_ne!(present, insert, "node {n} vs query slot {q}");
                kept = if present { &from[1..] } else { from };
                if insert {
                    ops_scratch.push(n);
                }
            }
            ops_scratch.extend_from_slice(kept);
            // Swap the rebuilt list in, unless that would leave a short
            // list holding a long one's old buffer: buffers circulate
            // through the scratch slot, and unchecked every list would in
            // time hold the capacity of the largest.
            if ops_scratch.capacity() <= 2 * ops_scratch.len() {
                std::mem::swap(list, ops_scratch);
            } else {
                list.clear();
                list.extend_from_slice(ops_scratch);
            }
        }
        ops.clear();
    }
}

/// Sets bit `i` of a node's hit words.
#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// The queries of a cell's `partial` list whose bits are set in `bits`,
/// ascending like the list.
#[inline]
fn hit_queries<'a>(bits: &'a [u64], partial: &'a [u32]) -> impl Iterator<Item = u32> + 'a {
    bits.iter().enumerate().flat_map(move |(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                partial[w * 64 + i]
            })
        })
    })
}

/// The ascending union of two ascending, disjoint id sequences.
fn merged(a: impl Iterator<Item = u32>, b: impl Iterator<Item = u32>) -> impl Iterator<Item = u32> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(&x), Some(&y)) if y < x => {
            debug_assert_ne!(x, y);
            b.next()
        }
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

/// One deferred member-list edit as a sortable word: query slot, then
/// node, then remove (0) before insert (1). A round steps or claims a
/// node at most once per shard, so a `(slot, node)` pair occurs at most
/// once among a shard's pending edits.
#[inline]
fn member_op(q: u32, n: u32, insert: bool) -> u64 {
    (q as u64) << 33 | (n as u64) << 1 | insert as u64
}

/// Queues the edits that move node `n` from the query slots in `old` to
/// those in `new` (both ascending): one per slot in exactly one of them.
fn sync_members(
    ops: &mut Vec<u64>,
    n: u32,
    old: impl Iterator<Item = u32>,
    new: impl Iterator<Item = u32>,
) {
    let (mut old, mut new) = (old.peekable(), new.peekable());
    loop {
        match (old.peek().copied(), new.peek().copied()) {
            (None, None) => break,
            (Some(a), Some(b)) if a == b => {
                old.next();
                new.next();
            }
            (Some(a), b) if b.is_none_or(|b| a < b) => {
                ops.push(member_op(a, n, false));
                old.next();
            }
            (_, Some(b)) => {
                ops.push(member_op(b, n, true));
                new.next();
            }
            (Some(_), None) => unreachable!("covered by the guard above"),
        }
    }
}

/// Merges the sorted, pairwise-disjoint per-shard lists into `out`
/// ascending. The dedup guard keeps the merge deterministic (and loudly
/// wrong in debug builds) even if the disjointness invariant were ever
/// violated.
fn merge_into(srcs: &[&[u32]], out: &mut Vec<u32>) {
    debug_assert!(srcs.len() <= MAX_SHARDS);
    // Compact away empty sources first: with narrow queries most lists
    // live on a single stripe, and the k-way loop below must not scan
    // `s` cursors per element for what is usually a copy or a 2-way
    // merge.
    let mut lists = [&[] as &[u32]; MAX_SHARDS];
    let mut k = 0usize;
    let mut total = 0usize;
    for list in srcs {
        if !list.is_empty() {
            lists[k] = list;
            k += 1;
            total += list.len();
        }
    }
    match k {
        0 => return,
        1 => {
            out.extend_from_slice(lists[0]);
            return;
        }
        2 => {
            // Two stripes: a plain disjoint merge, no cursor array.
            out.reserve(total);
            let (a, b) = (lists[0], lists[1]);
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                debug_assert_ne!(a[i], b[j], "node {} owned by two shards", a[i]);
                if a[i] < b[j] {
                    out.push(a[i]);
                    i += 1;
                } else {
                    out.push(b[j]);
                    j += 1;
                }
            }
            out.extend_from_slice(&a[i..]);
            out.extend_from_slice(&b[j..]);
            return;
        }
        _ => {}
    }
    out.reserve(total);
    let lists = &lists[..k];
    let mut pos = [0usize; MAX_SHARDS];
    loop {
        let mut best: Option<u32> = None;
        for (i, list) in lists.iter().enumerate() {
            if let Some(&v) = list.get(pos[i]) {
                if best.is_none_or(|b| v < b) {
                    best = Some(v);
                }
            }
        }
        let Some(b) = best else { break };
        let mut sources = 0;
        for (i, list) in lists.iter().enumerate() {
            if list.get(pos[i]) == Some(&b) {
                pos[i] += 1;
                sources += 1;
            }
        }
        debug_assert_eq!(sources, 1, "node {b} owned by {sources} shards");
        out.push(b);
    }
}

/// All state of the unified engine. See the module docs for the round
/// protocol and the bit-identity argument.
#[derive(Debug)]
pub(crate) struct UnifiedEval {
    bounds: Rect,
    num_shards: usize,
    shards: Vec<Shard>,
    /// Per grid column: the shard owning it.
    col_owner: Vec<u32>,
    /// Global per-node arrays (disjointly written — each node is owned
    /// by exactly one shard; see [`NodeRefs`]).
    node_cell: Vec<u32>,
    /// `hit_words` words per node: each node's hit bits (module docs,
    /// *Hit bits*).
    hits: Vec<u64>,
    hit_words: usize,
    owned_pos: Vec<u32>,
    /// Per query, at several shards: the round's merged member lists,
    /// for [`evaluate_lists`](Self::evaluate_lists) (unused at one
    /// shard, where shard 0's lists are the answer).
    lists: Vec<Vec<u32>>,
    /// Whether the stripe indexes match the current query set.
    indexed: bool,
    /// Whether shard state describes a completed exact round.
    primed: bool,
    /// The last exact round's evaluation time.
    last_t: f64,
    /// Whether a round may skip the nodes whose answer cannot have
    /// changed (true in production; false sweeps every owned node every
    /// round — the benchmarks' baseline and the in-tree oracle).
    dirty_tracking: bool,
    /// The kinetic schedule: which owned nodes come due when.
    wheel: Wheel,
    /// Whether the next sweep should (re)schedule the wheel: true after a
    /// rebuild and while rounds are kinetic; false once a round had to
    /// step more than the [`BUSY`] share of the fleet, until a sweep
    /// finds less than the [`CALM`] share of it changed. Filing the
    /// whole fleet doubles a sweep's cost, so a world that moves too
    /// fast for the wheel to pay — long evaluation periods, tiny cells,
    /// everyone re-reporting — just sweeps, as it always did.
    calm: bool,
    /// Nodes that re-reported (or were removed) since the last exact
    /// round — plus, from the coordinator's prep to the end of a kinetic
    /// round, the nodes the wheel fired — deduplicated via `dirty_flag`.
    dirty: Vec<u32>,
    dirty_flag: Vec<bool>,
    /// Nodes whose *first* report arrived since the last exact round —
    /// not yet owned by any shard.
    pending: Vec<u32>,
    /// Flat per-`(src, dst)` handoff outboxes (`src·S + dst`), reused
    /// across rounds; receivers clear their inbound column after
    /// draining it.
    routes: Vec<Vec<u32>>,
    /// Per-shard batches the coordinator builds before each round
    /// (dirty nodes by owner; pending first reports by destination).
    dirty_by_shard: Vec<Vec<u32>>,
    pending_by_shard: Vec<Vec<u32>>,
    /// Lazily-created worker pool (`num_shards − 1` threads). Not
    /// cloned: a cloned engine rebuilds its own pool on first use.
    pool: Option<WorkerPool>,
    /// Host parallelism, cached at construction: with one core the pool
    /// can only lose, so phases below it stay on the calling thread.
    hw: usize,
    /// Result entries emitted by the last exact round (drives the emit
    /// phase's pool-dispatch decision for the next one).
    emit_entries: usize,
}

impl Clone for UnifiedEval {
    fn clone(&self) -> Self {
        UnifiedEval {
            bounds: self.bounds,
            num_shards: self.num_shards,
            shards: self.shards.clone(),
            col_owner: self.col_owner.clone(),
            node_cell: self.node_cell.clone(),
            hits: self.hits.clone(),
            hit_words: self.hit_words,
            owned_pos: self.owned_pos.clone(),
            lists: self.lists.clone(),
            indexed: self.indexed,
            primed: self.primed,
            last_t: self.last_t,
            dirty_tracking: self.dirty_tracking,
            wheel: self.wheel.clone(),
            calm: self.calm,
            dirty: self.dirty.clone(),
            dirty_flag: self.dirty_flag.clone(),
            pending: self.pending.clone(),
            routes: self.routes.clone(),
            dirty_by_shard: self.dirty_by_shard.clone(),
            pending_by_shard: self.pending_by_shard.clone(),
            pool: None,
            hw: self.hw,
            emit_entries: self.emit_entries,
        }
    }
}

impl UnifiedEval {
    /// Creates empty state for a server over `bounds` with `shards`
    /// stripes (clamped to `1..=MAX_SHARDS`).
    pub(crate) fn new(bounds: Rect, num_nodes: usize, shards: usize) -> Self {
        UnifiedEval {
            bounds,
            num_shards: shards.clamp(1, MAX_SHARDS),
            shards: Vec::new(),
            col_owner: Vec::new(),
            node_cell: Vec::new(),
            hits: Vec::new(),
            hit_words: 1,
            owned_pos: Vec::new(),
            lists: Vec::new(),
            indexed: false,
            primed: false,
            last_t: 0.0,
            dirty_tracking: true,
            wheel: Wheel::default(),
            calm: true,
            dirty: Vec::new(),
            dirty_flag: vec![false; num_nodes],
            pending: Vec::new(),
            routes: Vec::new(),
            dirty_by_shard: Vec::new(),
            pending_by_shard: Vec::new(),
            pool: None,
            hw: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            emit_entries: 0,
        }
    }

    /// Enables or disables work skipping (see the module docs; off is
    /// the benchmarking baseline and the oracle). Sweeps with it off do
    /// not maintain the wheel, so it starts over unscheduled.
    pub(crate) fn set_dirty_tracking(&mut self, enabled: bool) {
        self.dirty_tracking = enabled;
        self.wheel.scheduled = false;
    }

    /// Marks every derived structure stale (query-set change).
    pub(crate) fn invalidate(&mut self) {
        self.indexed = false;
        self.primed = false;
    }

    /// Ingest hook: tracks which nodes' stored answer a new model may
    /// have invalidated. Flag and push, nothing else — the node's new
    /// `safe_until` is computed when the next round steps it anyway.
    /// `first_report` nodes are not owned by any shard yet and are
    /// claimed at the next round's integrate phase.
    pub(crate) fn on_ingest(&mut self, node: u32, first_report: bool) {
        let n = node as usize;
        if n >= self.dirty_flag.len() {
            self.dirty_flag.resize(n + 1, false);
        }
        if first_report {
            self.pending.push(node);
        } else if !self.dirty_flag[n] {
            self.dirty_flag[n] = true;
            self.dirty.push(node);
        }
    }

    /// Removal hook: the node must be re-placed (torn down) at the next
    /// round whether or not the wheel has it due.
    pub(crate) fn on_remove(&mut self, node: u32) {
        let n = node as usize;
        if n >= self.dirty_flag.len() {
            self.dirty_flag.resize(n + 1, false);
        }
        if !self.dirty_flag[n] {
            self.dirty_flag[n] = true;
            self.dirty.push(node);
        }
    }

    /// Cumulative nodes placed or re-placed, over all shards (the sum of
    /// [`ShardStats::stepped`], without the snapshot).
    pub(crate) fn stepped(&self) -> u64 {
        self.shards.iter().map(|shard| shard.stepped).sum()
    }

    /// Per-shard telemetry snapshot.
    pub(crate) fn stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| ShardStats {
                shard: i,
                columns: (shard.cols.start, shard.cols.end),
                nodes: shard.owned.len(),
                round_ns: shard.round_ns,
                handoffs: shard.handoffs,
                stepped: shard.stepped,
                due_fired: shard.due_fired,
                due_stale: shard.due_stale,
            })
            .collect()
    }

    /// (Re)builds the stripe layout and per-shard exact indexes for the
    /// current query set. Stripe `i` of `s` owns columns
    /// `side·i/s .. side·(i+1)/s`: contiguous, near-even, and the same
    /// split for any query set of the same size, so a node's stripe is a
    /// pure function of `(query count, shard count, x)`. A stripe may own
    /// no column at all (`s > side`); it then never owns a node.
    fn build_indexes(&mut self, queries: &[RangeQuery], num_nodes: usize) {
        let side = side_for(queries.len());
        let s = self.num_shards;
        self.shards.resize_with(s, Shard::new);
        self.col_owner.clear();
        self.col_owner.resize(side, 0);
        let mut widest = 0;
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let (lo, hi) = (side * i / s, side * (i + 1) / s);
            for owner in &mut self.col_owner[lo..hi] {
                *owner = i as u32;
            }
            shard.cols = lo..hi;
            shard.qindex = QueryIndex::build_cols(&self.bounds, queries, 0.0, true, lo..hi);
            shard.members.resize_with(queries.len(), Vec::new);
            shard.members.truncate(queries.len());
            widest = widest.max(shard.qindex.widest_partial());
        }
        // One bit per entry of the widest partial list: a property of
        // the query set, fixed until it changes.
        self.hit_words = widest.div_ceil(64).max(1);
        for shard in &mut self.shards {
            shard.hits_scratch.resize(self.hit_words, 0);
        }
        self.node_cell.resize(num_nodes, UNOWNED);
        // The words are laid out anew: the rebuild that must follow
        // zeroes them.
        self.hits.resize(num_nodes * self.hit_words, 0);
        self.owned_pos.resize(num_nodes, UNOWNED);
        if self.dirty_flag.len() < num_nodes {
            self.dirty_flag.resize(num_nodes, false);
        }
        self.routes.resize_with(s * s, Vec::new);
        self.routes.truncate(s * s);
        self.dirty_by_shard.resize_with(s, Vec::new);
        self.pending_by_shard.resize_with(s, Vec::new);
        self.indexed = true;
        self.primed = false;
    }

    /// Clears the per-round change feeds after an exact round consumed
    /// them.
    fn clear_round_inputs(&mut self) {
        for &n in &self.dirty {
            self.dirty_flag[n as usize] = false;
        }
        self.dirty.clear();
        self.pending.clear();
        for bucket in self
            .dirty_by_shard
            .iter_mut()
            .chain(self.pending_by_shard.iter_mut())
        {
            bucket.clear();
        }
    }

    /// The shard owning the stripe a position falls in.
    #[inline]
    fn owner_of(&self, p: &Point) -> usize {
        let side = self.col_owner.len();
        let col = axis_cell(p.x, self.bounds.min.x, self.bounds.width(), side);
        self.col_owner[col] as usize
    }

    /// `due(t)`: moves every node whose wheel entry could have a
    /// `safe_until < t` onto the dirty list, and says whether the wheel
    /// could tell. False — sweep instead — for a `t` below the last
    /// round's, for an advancing `t` on an unscheduled engine, for a
    /// jump past the ring, and when the round would step more than two
    /// fifths of the fleet (everything is due anyway).
    ///
    /// Every live entry has a `safe_until ≥ last_t`, so nothing is due at
    /// `t == last_t` and no tick is read. For a later `t` the ticks
    /// `tick_of(last_t) ..= tick_of(t)` are drained whole — the first
    /// again because nodes filed during the last round may sit in it, the
    /// last in full because `tick_of` is all that orders entries, so a
    /// node fires up to one tick early and never late.
    fn collect_due(&mut self, t: f64) -> bool {
        match t.partial_cmp(&self.last_t) {
            Some(Ordering::Equal) => return true,
            Some(Ordering::Greater) => {}
            // Backwards, or a NaN on either side.
            _ => return false,
        }
        let (Some(from), Some(to)) = (self.wheel.filing(self.last_t), self.wheel.filing(t)) else {
            return false;
        };
        // The second bound keeps every tick a round can file under
        // below `NO_TICK`.
        if to.first - from.first >= WHEEL_TICKS || to.first + WHEEL_TICKS >= NO_TICK as u64 {
            return false;
        }
        let side = self.col_owner.len();
        for k in from.first..=to.first {
            let slot = (k % WHEEL_TICKS) as usize;
            let mut bucket = std::mem::take(&mut self.wheel.ring[slot]);
            for &node in bucket.iter() {
                let n = node as usize;
                let cell = self.node_cell[n];
                let owner = if cell == UNOWNED {
                    0
                } else {
                    self.col_owner[cell as usize % side] as usize
                };
                if self.wheel.tick[n] as u64 != k {
                    self.shards[owner].due_stale += 1;
                    continue;
                }
                self.wheel.tick[n] = NO_TICK;
                self.shards[owner].due_fired += 1;
                if !self.dirty_flag[n] {
                    self.dirty_flag[n] = true;
                    self.dirty.push(node);
                }
            }
            // A bucket is at its fullest when it comes due, and 4096
            // buckets that each kept that capacity would hold a hundred
            // times what is live: only a small one is kept for reuse.
            if bucket.capacity() <= BUCKET_KEEP {
                bucket.clear();
                self.wheel.ring[slot] = bucket;
            }
        }
        // A round this busy is cheaper as a sweep, and a wheel this busy
        // is not earning its keep: its ticks are too coarse for the
        // cadence `t` now moves at (they were sized from one long step),
        // or the fleet really does change that fast. The sweep does not
        // re-file; a later one does once the world has calmed down.
        self.calm = self.dirty.len() * BUSY.1 <= self.owned_total() * BUSY.0;
        if !self.calm {
            self.wheel.scheduled = false;
        }
        self.calm
    }

    /// Nodes owned over all shards.
    fn owned_total(&self) -> usize {
        self.shards.iter().map(|shard| shard.owned.len()).sum()
    }

    /// One exact evaluation round at time `t`, writing sorted
    /// [`QueryResult`]s into `out`. With `sequential`, every phase of
    /// every shard runs on the calling thread in shard order — same
    /// state transitions, no pool.
    pub(crate) fn evaluate_into(
        &mut self,
        queries: &[RangeQuery],
        store: &NodeStore,
        t: f64,
        out: &mut Vec<QueryResult>,
        sequential: bool,
    ) {
        let par_emit = self.round(queries, store, t, sequential);
        let nq = queries.len();
        out.resize_with(nq, QueryResult::default);
        out.truncate(nq);
        for (slot, query) in out.iter_mut().zip(queries) {
            slot.query = query.id;
        }
        if self.num_shards == 1 {
            for (slot, members) in out.iter_mut().zip(&self.shards[0].members) {
                slot.nodes.clear();
                slot.nodes.extend_from_slice(members);
            }
        } else {
            self.merge(out, |slot| &mut slot.nodes, par_emit);
        }
        self.emit_entries = out.iter().map(|r| r.nodes.len()).sum();
    }

    /// The same round as [`evaluate_into`](Self::evaluate_into), read in
    /// place: per query, in `queries` order, its sorted member ids. At
    /// one shard these are shard 0's own member lists and nothing is
    /// copied; at several, the k-way merge fills the engine's per-query
    /// buffer instead of the caller's.
    pub(crate) fn evaluate_lists(
        &mut self,
        queries: &[RangeQuery],
        store: &NodeStore,
        t: f64,
        sequential: bool,
    ) -> &[Vec<u32>] {
        let par_emit = self.round(queries, store, t, sequential);
        if self.num_shards == 1 {
            let lists = &self.shards[0].members;
            self.emit_entries = lists.iter().map(Vec::len).sum();
            return lists;
        }
        let mut lists = std::mem::take(&mut self.lists);
        lists.resize_with(queries.len(), Vec::new);
        lists.truncate(queries.len());
        self.merge(&mut lists, |list| list, par_emit);
        self.emit_entries = lists.iter().map(Vec::len).sum();
        self.lists = lists;
        &self.lists
    }

    /// Emit at several shards: k-way merges every query's per-shard
    /// member lists into `nodes(&mut out[q])`, each worker over a
    /// contiguous chunk of queries — on the pool when `par`.
    fn merge<T: Send>(
        &self,
        out: &mut [T],
        nodes: impl Fn(&mut T) -> &mut Vec<u32> + Sync,
        par: bool,
    ) {
        let (s, nq) = (self.num_shards, out.len());
        let shards = &self.shards;
        let out_ptr = SendMutPtr(out.as_mut_ptr());
        let chunk = |i: usize| {
            let mut srcs: Vec<&[u32]> = vec![&[]; s];
            for q in nq * i / s..nq * (i + 1) / s {
                // SAFETY: the chunks are disjoint, so each slot is
                // written by exactly one worker.
                let list = nodes(unsafe { &mut *out_ptr.ptr().add(q) });
                list.clear();
                for (src, shard) in srcs.iter_mut().zip(shards) {
                    *src = &shard.members[q];
                }
                merge_into(&srcs, list);
            }
        };
        let all: Vec<usize> = (0..s).collect();
        match &self.pool {
            Some(pool) if par => pool.run_on(&all, &chunk),
            _ => all.iter().for_each(|&i| chunk(i)),
        }
    }

    /// The round itself: every phase but the emit, and the wheel's and
    /// the change feeds' bookkeeping. Returns whether the emit should
    /// run on the pool (which then exists).
    fn round(
        &mut self,
        queries: &[RangeQuery],
        store: &NodeStore,
        t: f64,
        sequential: bool,
    ) -> bool {
        if !self.indexed {
            self.build_indexes(queries, store.len());
        }
        let s = self.num_shards;
        let rebuild = !self.primed;
        // The one skip rule: step only the nodes whose answer can have
        // changed, whenever the wheel can name them.
        let kinetic = !rebuild && self.dirty_tracking && self.collect_due(t);
        let filing = if rebuild {
            // A rebuild files nothing, so set-up pays nothing for the
            // wheel: the next advancing round is a sweep that files.
            self.wheel.scheduled = false;
            self.calm = true;
            None
        } else if kinetic {
            self.wheel.filing(t)
        } else if self.dirty_tracking && self.calm {
            self.wheel.reschedule(self.last_t, t, store.len())
        } else {
            // A sweep that does not file re-places nodes behind the
            // wheel's back: whatever it held is not a schedule any more.
            self.wheel.scheduled = false;
            None
        };
        let changed_before: u64 = self.shards.iter().map(|shard| shard.changed).sum();

        // Coordinator prep: batch the round's change feed per shard.
        let mut step_targets: Vec<usize> = Vec::with_capacity(s);
        let mut integrate_targets: Vec<usize> = Vec::with_capacity(s);
        if rebuild {
            // Full rebuild: reset the global per-node arrays and any
            // stale outboxes; every shard participates in the step
            // phase, nothing integrates.
            self.node_cell.fill(UNOWNED);
            self.owned_pos.fill(UNOWNED);
            self.hits.fill(0);
            for outbox in &mut self.routes {
                outbox.clear();
            }
            step_targets.extend(0..s);
        } else {
            if kinetic {
                // Bucket dirty nodes by owning shard (derived from the
                // node's current cell — columns map to shards).
                let side = self.col_owner.len();
                for &node in &self.dirty {
                    let cell = self.node_cell[node as usize];
                    if cell == UNOWNED {
                        continue; // pending or already removed, never placed
                    }
                    let owner = self.col_owner[cell as usize % side] as usize;
                    self.dirty_by_shard[owner].push(node);
                }
                for bucket in &mut self.dirty_by_shard {
                    bucket.sort_unstable();
                }
                step_targets.extend((0..s).filter(|&i| !self.dirty_by_shard[i].is_empty()));
            } else {
                step_targets.extend((0..s).filter(|&i| !self.shards[i].owned.is_empty()));
            }
            // Route pending first reports to their destination stripe.
            for &node in &self.pending {
                if self.node_cell[node as usize] != UNOWNED {
                    continue; // re-placed via the dirty path (remove/re-ingest)
                }
                let Some(p) = store.predict(node, t) else {
                    continue; // removed again before any round saw it
                };
                let owner = self.owner_of(&p);
                self.pending_by_shard[owner].push(node);
            }
        }

        // Adaptive dispatch: the pool costs two channel hops per worker
        // per phase, so small rounds — and every round on a single-core
        // host — run on the calling thread. The decision is free to vary
        // per round because pooled and sequential execution are
        // state-identical (the equivalence suite pins this).
        let step_work = if kinetic {
            self.dirty.len()
        } else {
            store.len()
        };
        let par = !sequential && s > 1 && self.hw > 1;
        let par_step = par && step_work >= PAR_STEP_MIN;
        let par_emit = par
            && if rebuild {
                store.len() >= PAR_EMIT_MIN
            } else {
                self.emit_entries >= PAR_EMIT_MIN
            };
        let pool: Option<&WorkerPool> = if par_step || par_emit {
            Some(self.pool.get_or_insert_with(|| WorkerPool::new(s - 1)))
        } else {
            None
        };
        let run_on = |targets: &[usize], f: &(dyn Fn(usize) + Sync)| match pool {
            Some(p) if par_step => p.run_on(targets, f),
            _ => {
                for &i in targets {
                    f(i);
                }
            }
        };

        let shards = SendMutPtr(self.shards.as_mut_ptr());
        let routes = SendMutPtr(self.routes.as_mut_ptr());
        let refs = NodeRefs {
            cell: SendMutPtr(self.node_cell.as_mut_ptr()),
            hits: SendMutPtr(self.hits.as_mut_ptr()),
            words: self.hit_words,
            pos: SendMutPtr(self.owned_pos.as_mut_ptr()),
            tick: SendMutPtr(self.wheel.tick.as_mut_ptr()),
        };
        let filing = filing.as_ref();
        let col_owner = &self.col_owner;
        let dirty_by_shard = &self.dirty_by_shard;
        let pending_by_shard = &self.pending_by_shard;

        // Phase 1 — step: each active worker exclusively owns shard i,
        // outbox row i, and the per-node entries of the nodes shard i
        // owns.
        run_on(&step_targets, &|i: usize| {
            // SAFETY: exclusive per-index access, see SendMutPtr/NodeRefs.
            let shard = unsafe { &mut *shards.ptr().add(i) };
            let routes_row = unsafe { std::slice::from_raw_parts_mut(routes.ptr().add(i * s), s) };
            let start = Instant::now();
            if rebuild {
                shard.rebuild(queries, store, t, refs);
            } else if kinetic {
                shard.dirty_round(
                    &dirty_by_shard[i],
                    queries,
                    store,
                    t,
                    routes_row,
                    col_owner,
                    refs,
                    filing,
                );
            } else {
                shard.sweep_round(queries, store, t, routes_row, col_owner, refs, filing);
            }
            shard.round_ns += start.elapsed().as_nanos() as u64;
        });

        // Phase 2 — integrate: each receiving worker drains (and clears)
        // the outbox column addressed to its shard and claims its
        // pre-routed pending arrivals. Skipped outright when no node
        // crossed a stripe and nothing is pending.
        if !rebuild {
            for i in 0..s {
                let inbound = (0..s).any(|src| !self.routes[src * s + i].is_empty());
                if inbound || !self.pending_by_shard[i].is_empty() {
                    integrate_targets.push(i);
                }
            }
            run_on(&integrate_targets, &|i: usize| {
                // SAFETY: shard i and outbox column i are touched by this
                // worker only; claimed nodes' per-node entries are
                // disjoint (each node is routed to exactly one stripe).
                let shard = unsafe { &mut *shards.ptr().add(i) };
                let start = Instant::now();
                for src in 0..s {
                    let outbox = unsafe { &mut *routes.ptr().add(src * s + i) };
                    for &n in outbox.iter() {
                        shard.claim(n as usize, queries, store, t, refs, filing);
                    }
                    outbox.clear();
                }
                for &n in &pending_by_shard[i] {
                    shard.claim_pending(n as usize, queries, store, t, refs, filing);
                }
                shard.round_ns += start.elapsed().as_nanos() as u64;
            });
        }

        // Every edit the two phases queued lands in the member lists
        // now, shard by shard, before anything reads them.
        let flush_targets: Vec<usize> =
            (0..s).filter(|&i| !self.shards[i].ops.is_empty()).collect();
        run_on(&flush_targets, &|i: usize| {
            // SAFETY: exclusive per-index access, see SendMutPtr.
            let shard = unsafe { &mut *shards.ptr().add(i) };
            let start = Instant::now();
            shard.flush_ops();
            shard.round_ns += start.elapsed().as_nanos() as u64;
        });

        // Phase 3, the emit, is the caller's: the member lists are final.
        if !rebuild && !kinetic {
            // What a sweep saw decides whether the next one files.
            let changed = self.shards.iter().map(|shard| shard.changed).sum::<u64>();
            self.calm = (changed - changed_before) as usize * CALM.1 <= self.owned_total() * CALM.0;
        }
        // Move what the shards filed into the wheel's buckets (the ring
        // is the coordinator's alone, and nothing reads it mid-round).
        if filing.is_some_and(|f| f.bulk) {
            self.wheel.fill();
        }
        for shard in &mut self.shards {
            for node in shard.filed.drain(..) {
                let k = self.wheel.tick[node as usize];
                let bucket = &mut self.wheel.ring[(k as u64 % WHEEL_TICKS) as usize];
                // Grow by an eighth, not by doubling: the buckets are
                // the wheel's whole footprint and there are thousands.
                if bucket.len() == bucket.capacity() {
                    bucket.reserve_exact((bucket.len() / 8).max(BUCKET_KEEP));
                }
                bucket.push(node);
            }
        }

        self.primed = true;
        self.last_t = t;
        self.clear_round_inputs();
        par_emit
    }
}

// The simulation pipeline moves whole servers (and therefore engines)
// into per-policy lane threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<UnifiedEval>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_handles_empty_single_and_many() {
        let mut out = Vec::new();
        merge_into(&[&[], &[]], &mut out);
        assert!(out.is_empty());
        merge_into(&[&[1, 5, 9], &[]], &mut out);
        assert_eq!(out, vec![1, 5, 9]);
        out.clear();
        merge_into(&[&[2, 8], &[1, 5, 9], &[0, 10]], &mut out);
        assert_eq!(out, vec![0, 1, 2, 5, 8, 9, 10]);
    }

    #[test]
    fn pool_runs_every_index_and_reuses_workers() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let pool = WorkerPool::new(3);
        let sum = AtomicU64::new(0);
        pool.run_on(&[0, 1, 2, 3], &|i| {
            sum.fetch_add(1 << (8 * i), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 0x01010101);
        // Reuse across rounds: same workers, fresh closure.
        for _ in 0..100 {
            pool.run_on(&[0, 1, 2, 3], &|i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 0x01010101 + 600);
    }

    #[test]
    fn pool_dispatches_fewer_targets_than_workers() {
        let pool = WorkerPool::new(7);
        let hits = std::sync::Mutex::new(Vec::new());
        pool.run_on(&[0, 1], &|i| hits.lock().unwrap().push(i));
        let mut got = hits.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn pool_run_on_dispatches_sparse_targets() {
        let pool = WorkerPool::new(3);
        let hits = std::sync::Mutex::new(Vec::new());
        pool.run_on(&[], &|i| hits.lock().unwrap().push(i));
        pool.run_on(&[2], &|i| hits.lock().unwrap().push(i));
        pool.run_on(&[0, 3], &|i| hits.lock().unwrap().push(i));
        let mut got = hits.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![0, 2, 3]);
    }
}
