//! The unified evaluation engine: one SoA-backed, work-skipping core
//! that keeps every registered query's member list up to date across
//! rounds, on the calling thread (DESIGN.md §13).
//!
//! The engine owns the cell grid of `QueryIndex` and one `Shard`: the
//! per-query member lists and the per-node arrays (current cell, hit
//! bits, wheel tick). The fleet is fixed and a node, once it reports,
//! always has a model, so a node stays placed from the round after its
//! first report on. A round at `t` is straight-line code:
//!
//! 1. **Step** — re-place the nodes whose answer may have changed (see
//!    *The one skip rule* below), or sweep every placed node when the
//!    rule cannot name them, in ascending id order: 64 nodes at a time,
//!    in passes (*The step in passes* below).
//! 2. **Claim** — place the nodes whose first report arrived since the
//!    last round, through the same passes.
//! 3. **Flush** — apply the member-list edits both phases queued, per
//!    list, in one merge pass. A caller that only hashes the round — the
//!    served digest — takes
//!    [`CqServer::evaluate_digest`](crate::cq_engine::CqServer::evaluate_digest)
//!    instead, and nothing is copied out: the flush itself folds each
//!    list as it rebuilds it (*The folded flush* below).
//! 4. **File** — move the nodes the round scheduled into the time wheel.
//!
//! # The one skip rule
//!
//! A node's stored answer is its `(cell, hit bits)`: the grid cell its
//! prediction fell in when it was last placed, and which of that cell's
//! partial-cover queries contained it (see *Hit bits* below). A round at
//! `t` must re-place exactly the nodes for which that pair, recomputed
//! at `t` from the node's current model, could differ. Those are
//!
//! > *re-reported ∪ pending ∪ due(t)*
//!
//! — the nodes whose model changed since they were placed,
//! and the nodes whose model did not but whose prediction has moved far
//! enough. `due(t)` comes from a bucketed time wheel (`Wheel`): whenever a
//! node is placed, the step's propose and check passes (`Shard::propose`,
//! `Shard::check`) give a conservative instant up to which its pair
//! provably stays what it is, and the node is filed under that instant's
//! tick. The invariant the engine holds between rounds:
//!
//! > *the stored pair is exact for every placed node that has not
//! > re-reported and whose `safe_until ≥ t`.*
//!
//! So a round drains the ticks up to `t`'s, steps what it finds, and
//! leaves everyone else untouched; at `t == last_t` nothing is due, which
//! is the old "same evaluation time" shortcut as a special case rather
//! than a separate path. Stepping goes through the membership pass
//! (`Shard::sync`), the single exact arbiter, whatever the reason a node
//! was stepped: a wheel entry that fires early finds nothing changed and
//! re-files. Correctness therefore never depends on the closed form being
//! *right*, only on it being *early*, and it is early by construction:
//!
//! * The floating-point chain from `t` to the pair — `predict`
//!   (`fl(t − t₀)`, times `v`, plus the origin), `axis_cell` (minus
//!   `lo`, over the extent, times `side`, clamp, truncate) and the range
//!   comparisons — is monotone in `t` stage by stage, per axis. A
//!   monotone step function that reads the same at both ends of an
//!   interval is constant on it.
//! * The propose pass computes an instant from real arithmetic — distance
//!   to the nearest cell or query edge ahead, shrunk by the same
//!   `1e-9·(w+h)` margin the full-cover test uses, over the speed — and
//!   the check pass *checks* it with that very chain: same cell, nearest
//!   edge on each axis not reached. The proposal stands only if the check
//!   passes, and the node gets `t` itself (due at every later round)
//!   otherwise. The margin is what makes the check pass instead of
//!   landing within an ulp of an edge; it can only make a node fire
//!   early.
//! * Ticks order entries through one monotone function of time, and a
//!   round drains the whole tick `t` falls in, so `safe_until < t`
//!   implies "drained".
//!
//! What the wheel costs: one `u32` tick word per node plus one `u32` per
//! live entry (about one per moving node: a re-report leaves the old
//! entry in place unless the new safe time is *earlier*), allocated at
//! the first round that schedules, like the other per-node arrays. A
//! rebuild files nothing and leaves the engine unscheduled; the first
//! advancing round after it is a sweep that files everyone
//! (`Wheel::reschedule`, `Wheel::fill`). The sweep is also the fallback
//! whenever the wheel cannot name the due nodes (`t < last_t`, a jump
//! past the ring) or would name too many of them to be worth asking
//! (`BUSY`, `CALM`: a world that moves a node a good part of a cell per
//! round sweeps as it always did).
//!
//! # The step in passes
//!
//! Stepping one node is one dependent chain — predict, divide into a
//! cell, load the cell's lists, compare, branch — and a core cannot run
//! far into the next node's chain while this one's branches resolve. So
//! the step takes up to 64 nodes at a time (`CHUNK`: a chunk of the
//! dirty scan, of the placed ids, or of the pending first reports) and
//! runs each stage over all of them before the next. Every pass is a loop
//! over independent nodes, whose loads and divisions overlap, and hands
//! the next pass what it computed through the chunk's `Lanes`:
//!
//! 1. *place* (`Shard::place`) — predict at `t` and find the cell; read
//!    the stored cell, hit words and tick word;
//! 2. *membership* (`Shard::sync`) — the containment bits of the new
//!    cell's partial covers, as bit operations with no branch. A node
//!    that stays in its cell queues one edit per set bit of
//!    `old ^ new`; one that moves gathers its old and new query slots
//!    into two reused buffers and queues their symmetric difference in
//!    one loop; a first report has no old slots;
//! 3. *propose* (`Shard::propose`) — the closed form of the safe-until
//!    instant;
//! 4. *check* (`Shard::check`) — the floating-point chain at that
//!    instant;
//! 5. *file* (`Shard::file`) — the tick.
//!
//! The edits of a round are sorted before any flush, so the order in
//! which a chunk queues them is free, and every member list, tick word
//! and work counter is the one the step gave when it took one node at a
//! time: the unit test `the_passes_step_each_node_as_the_scalar_step_does`
//! holds the passes to that step, node by node, and
//! `tests/work_pin.rs` pins the work counters of four churn histories.
//! On a 2-vCPU Xeon guest, in-process runs alternating with the
//! one-node-at-a-time engine put a kinetic step at ≈ 170–210 ns a node
//! against ≈ 290–310 in a `serve_paced`-shaped world (100 k nodes, 10 %
//! re-reporting a round, 1 000 queries), and at ≈ 210–220 ns against
//! ≈ 360–380 at a million nodes (1 % re-reporting).
//!
//! # Hit bits
//!
//! A node's partial hits are a subset of its cell's partial list
//! (`QueryIndex::partial_at`), which is ascending. So the hits are kept
//! as a bitset over that list: bit
//! `i` of the node's words stands for the list's `i`-th query. Every node
//! has `W` `u64` words in one flat array, where `W` is the widest
//! partial list over 64, rounded up (at least 1), derived from the
//! built index whenever the query set changes. On the repo
//! benchmark's workloads the widest list is 9, so a node's hit state is
//! one 8 B word; no node owns a heap block of its own, whatever `W`.
//! Bits are only meaningful against the cell they were set in: a step
//! that changes cell reads the old words through the old cell's list
//! and writes the new words against the new one.
//!
//! The round's change feed is a bitmap too: one bit a node, set by the
//! ingest hook and by the wheel, so a node is marked once
//! however often it re-reports, and scanning the words yields the dirty
//! nodes in ascending id order with nothing sorted.
//!
//! # The folded flush
//!
//! The served digest hashes every member id of every round, and at a
//! million nodes that chain of multiplies costs about as much as the
//! kinetic steps. The hashed round therefore leaves its queued
//! edits unapplied, and one pass over the queries in order both applies
//! and hashes them (`Shard::flush_digest`): a list with no edits is
//! hashed where it lies; a list with edits hashes its post-edit length,
//! then is rebuilt by a *linear* merge with its sorted edits that writes
//! and hashes each id in the same loop, so the copy runs in the shadow of
//! the multiply chain. A caller that does not hash keeps
//! `Shard::flush_ops`'s bulk body — binary searches and `memcpy`s,
//! faster than the linear merge when nothing else is paying for the walk.

use std::cmp::Ordering;
use std::time::Instant;

use lira_core::geometry::{Point, Rect};

use crate::digest::{fold_ids, fold_narrow, fold_wide, open_list, open_round, NARROW};
use crate::node_store::NodeStore;
use crate::qindex::{insert_member, remove_member, QueryIndex};
use crate::query::{QueryResult, RangeQuery};

/// Sentinel for "this node is placed in no cell" in the per-node arrays
/// (`side ≤ 256`, so real cell ids stay far below it): it has not
/// reported, or its first report waits for the next round's claim.
const UNOWNED: u32 = u32::MAX;

/// Buckets in the kinetic time wheel's ring, and so how many ticks
/// ahead a node can be filed. A node that stays safe past the horizon is
/// filed inside it and re-files when it fires (nothing changed, one step),
/// which costs `placed / (WHEEL_TICKS / TICKS_PER_ROUND)` spurious steps a
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
/// order — and the churn ladder of docs/PERF_LOG.md (*kinetic evaluation,
/// before and after*) puts the break-even between 31 % of the fleet (still
/// 1.2× ahead) and 47 % (0.7×).
const BUSY: (usize, usize) = (2, 5);
/// A sweep schedules the wheel only if the sweep before it changed less
/// than this share of the fleet — half the rate at which a kinetic round
/// gives up, so a world near the threshold does not flip back and forth
/// paying for a whole-fleet filing each time.
const CALM: (usize, usize) = (1, 5);
/// A drained wheel bucket keeps its buffer if it holds at most this many
/// entries (a small world then never allocates in a round); a larger one
/// is freed, and buckets grow by at least this much.
const BUCKET_KEEP: usize = 32;
/// Sentinel in the per-node tick word for "no live wheel entry": never
/// filed, already fired, or safe forever.
const NO_TICK: u32 = u32::MAX;

/// A snapshot of the engine's telemetry, exposed through
/// [`CqServer::shard_stats`](crate::cq_engine::CqServer::shard_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Nodes currently placed (as of the last exact round).
    pub nodes: usize,
    /// Cumulative wall time spent in the rounds' step, claim and flush
    /// phases, nanoseconds.
    pub round_ns: u64,
    /// Cumulative nodes placed or re-placed: every placed node in a
    /// rebuild or a sweep; re-reported, due and first-reporting nodes in
    /// a kinetic round. The per-round difference is what the round cost.
    pub stepped: u64,
    /// Cumulative wheel entries that came due and sent their node
    /// through a step (DESIGN.md §13).
    pub due_fired: u64,
    /// Cumulative wheel entries dropped on pop because the node had been
    /// re-filed since.
    pub due_stale: u64,
}

/// What the engine needs to file the nodes it places in a round at `t`
/// into the [`Wheel`]: the wheel's time base and the tick `t` falls in.
/// `None` in a round that does not file (a rebuild, a sweep of a busy
/// world, a same-`t` round on an unscheduled engine).
#[derive(Clone, Copy)]
struct Filing {
    /// Time of tick 0.
    origin: f64,
    /// Seconds per tick.
    width: f64,
    /// The tick the round's `t` falls in: the earliest a node can be
    /// filed under, and the first the next advancing round drains.
    first: u64,
    /// Whether this is the sweep that (re)schedules every placed node:
    /// the ring is then filled from the tick words in one counted pass,
    /// and the round keeps no list of what it filed.
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
/// time wheel over the placed nodes. Each node's tick word lives with
/// the other per-node arrays, in [`Shard::tick`].
#[derive(Debug, Clone, Default)]
struct Wheel {
    /// Whether the wheel covers every placed node: each has a live entry
    /// at or before the tick of its `safe_until`, or is safe forever.
    /// False until the first advancing round after a rebuild (which is a
    /// sweep that files), and after a sweep that does not file.
    scheduled: bool,
    /// Time of tick 0 and seconds per tick, set when scheduled.
    origin: f64,
    width: f64,
    /// `ring[k % WHEEL_TICKS]` holds the ids filed under tick `k`. Live
    /// ticks span less than one turn, so slots never mix ticks. Empty
    /// until first scheduled.
    ring: Vec<Vec<u32>>,
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
    /// the step `last_t → t`, for a sweep that files every placed node,
    /// and resets the tick words `tick` to one per node, none filed.
    /// Leaves the wheel unscheduled (and returns `None`) when the step
    /// gives no usable tick width.
    fn reschedule(
        &mut self,
        last_t: f64,
        t: f64,
        tick: &mut Vec<u32>,
        nodes: usize,
    ) -> Option<Filing> {
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
        tick.clear();
        tick.resize(nodes, NO_TICK);
        self.filing(t).map(|f| Filing { bulk: true, ..f })
    }

    /// Fills the emptied ring from the tick words after a sweep that
    /// filed every placed node, each bucket allocated to its exact size.
    fn fill(&mut self, tick: &[u32]) {
        let slot = |k: u32| (k as u64 % WHEEL_TICKS) as usize;
        let mut sizes = vec![0usize; WHEEL_TICKS as usize];
        for &k in tick.iter().filter(|&&k| k != NO_TICK) {
            sizes[slot(k)] += 1;
        }
        for (bucket, &size) in self.ring.iter_mut().zip(&sizes) {
            bucket.reserve_exact(size);
        }
        for (n, &k) in tick.iter().enumerate() {
            if k != NO_TICK {
                self.ring[slot(k)].push(n as u32);
            }
        }
    }

    /// Files node `n` in the bucket of `tick`, its new live entry.
    fn push(&mut self, n: u32, tick: u32) {
        let bucket = &mut self.ring[(tick as u64 % WHEEL_TICKS) as usize];
        // Grow by an eighth, not by doubling: the buckets are the
        // wheel's whole footprint and there are thousands.
        if bucket.len() == bucket.capacity() {
            bucket.reserve_exact((bucket.len() / 8).max(BUCKET_KEEP));
        }
        bucket.push(n);
    }
}

/// Nodes the step takes one pass at a time (module docs, *The step in
/// passes*): enough for the scattered per-node reads of one pass to
/// overlap, few enough that their lines are still in L1/L2 when the next
/// pass reads them.
const CHUNK: usize = 64;

/// What one chunk of the step carries from pass to pass (module docs,
/// *The step in passes*), by position in the chunk. The [`Shard`] holds
/// it, so a round allocates nothing for it.
#[derive(Debug, Clone)]
struct Lanes {
    len: usize,
    node: [u32; CHUNK],
    /// The cell the node was placed in (`UNOWNED` for a first report),
    /// and, in a round that files, its tick word.
    old: [u32; CHUNK],
    tick: [u32; CHUNK],
    /// The node's prediction at `t`, and the cell's row, column and slot
    /// it falls in.
    p: [Point; CHUNK],
    row: [u32; CHUNK],
    col: [u32; CHUNK],
    slot: [u32; CHUNK],
    /// Per axis, the nearest coordinate ahead at which a comparison can
    /// flip, and the node's safe-until instant
    /// ([`Shard::propose`], [`Shard::check`]).
    ex: [f64; CHUNK],
    ey: [f64; CHUNK],
    s: [f64; CHUNK],
    /// `words` words per node: the hit bits stored before the step, and
    /// the ones the node has at `t`.
    held: Vec<u64>,
    hits: Vec<u64>,
}

impl Lanes {
    fn new() -> Self {
        Lanes {
            len: 0,
            node: [0; CHUNK],
            old: [UNOWNED; CHUNK],
            tick: [NO_TICK; CHUNK],
            p: [Point::default(); CHUNK],
            row: [0; CHUNK],
            col: [0; CHUNK],
            slot: [0; CHUNK],
            ex: [0.0; CHUNK],
            ey: [0.0; CHUNK],
            s: [0.0; CHUNK],
            held: Vec::new(),
            hits: Vec::new(),
        }
    }

    /// Adds node `n` to the chunk; true once the chunk is full.
    fn push(&mut self, n: u32) -> bool {
        self.node[self.len] = n;
        self.len += 1;
        self.len == CHUNK
    }
}

/// The evaluation state: the per-query member lists, the index they are
/// classified against and the per-node arrays.
#[derive(Debug, Clone)]
struct Shard {
    /// Cell→queries index for exact evaluation.
    qindex: QueryIndex,
    /// Per query slot: sorted ids of member nodes.
    members: Vec<Vec<u32>>,
    /// How many nodes are placed: those whose `cell` is set.
    placed: usize,
    /// Per node: the cell its prediction occupied at the last round
    /// (`UNOWNED` when it is not placed).
    cell: Vec<u32>,
    /// `words` hit words per node, node-major: bit `i` set iff the
    /// `i`-th query of its cell's partial list contains it (module docs,
    /// *Hit bits*).
    hits: Vec<u64>,
    words: usize,
    /// Per node: the tick its live wheel entry is filed under
    /// ([`NO_TICK`] when it has none). Empty until the wheel is first
    /// scheduled, and only read in a round that files.
    tick: Vec<u32>,
    /// The chunk the step is working on.
    lanes: Lanes,
    /// A moving node's query slots before and after its step, ascending
    /// (see [`memberships`]).
    old_set: Vec<u32>,
    new_set: Vec<u32>,
    /// Member-list edits the round's steps and claims asked for, as
    /// [`member_op`] words; [`flush_ops`](Self::flush_ops) (or, in a
    /// hashed round, [`flush_digest`](Self::flush_digest)) applies them
    /// per list before anything reads the lists.
    ops: Vec<u64>,
    /// Merge buffer of the flush, usually swapped with the list it
    /// rebuilt (see [`swap_in`]).
    ops_scratch: Vec<u32>,
    /// Nodes whose tick word the round set, for the engine to move into
    /// the wheel's buckets after the round.
    filed: Vec<u32>,
    /// Cumulative steps that found a node's `(cell, hit bits)`
    /// different from what was stored: over a sweep, how much of the
    /// fleet a round at this cadence really changes.
    changed: u64,
    /// Cumulative counts behind [`ShardStats`].
    round_ns: u64,
    stepped: u64,
    due_fired: u64,
    due_stale: u64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            qindex: QueryIndex::unbuilt(),
            members: Vec::new(),
            placed: 0,
            cell: Vec::new(),
            hits: Vec::new(),
            words: 1,
            tick: Vec::new(),
            lanes: Lanes::new(),
            old_set: Vec::new(),
            new_set: Vec::new(),
            ops: Vec::new(),
            ops_scratch: Vec::new(),
            filed: Vec::new(),
            changed: 0,
            round_ns: 0,
            stepped: 0,
            due_fired: 0,
            due_stale: 0,
        }
    }

    /// Builds the index for `queries` over `bounds` and sizes the member
    /// lists and per-node arrays for it and `num_nodes` nodes.
    fn build(&mut self, bounds: &Rect, queries: &[RangeQuery], num_nodes: usize) {
        self.qindex = QueryIndex::build(bounds, queries, 0.0, true);
        self.members.resize_with(queries.len(), Vec::new);
        self.members.truncate(queries.len());
        // One bit per entry of the widest partial list: a property of
        // the query set, fixed until it changes.
        self.words = self.qindex.widest_partial().div_ceil(64).max(1);
        self.lanes.held.resize(CHUNK * self.words, 0);
        self.lanes.hits.resize(CHUNK * self.words, 0);
        self.cell.resize(num_nodes, UNOWNED);
        // The words are laid out anew: the rebuild that must follow
        // zeroes them.
        self.hits.resize(num_nodes * self.words, 0);
    }

    /// Full build: place every reported node with one ascending store
    /// pass (pushing in node-id order keeps the member lists sorted with
    /// no per-insert search).
    fn rebuild(&mut self, queries: &[RangeQuery], store: &NodeStore, t: f64) {
        for list in &mut self.members {
            list.clear();
        }
        self.cell.fill(UNOWNED);
        self.hits.fill(0);
        let Shard {
            qindex,
            members,
            cell,
            hits,
            words,
            ..
        } = self;
        let w = *words;
        let mut placed = 0;
        for n in 0..store.len() {
            let Some(p) = store.predict(n as u32, t) else {
                continue;
            };
            let (row, col) = qindex.rc_of(&p);
            let slot = qindex.slot(row, col);
            for &q in qindex.full_at(slot) {
                members[q as usize].push(n as u32);
            }
            let bits = &mut hits[n * w..(n + 1) * w];
            let partial = qindex.partial_at(slot);
            hit_words(bits, partial, queries, &p);
            for q in hit_queries(bits, partial) {
                members[q as usize].push(n as u32);
            }
            cell[n] = slot as u32;
            placed += 1;
        }
        self.placed = placed;
        self.stepped += placed as u64;
    }

    /// Steps the nodes `ids` yields to time `t`, a chunk at a time, and
    /// files them when the round files. With `claim` they are the first
    /// reports of the round, none of them placed yet; without, only the
    /// placed ones are stepped — a sweep feeds every id, a kinetic round
    /// the dirty ones, and a node whose first report (and perhaps a
    /// re-report too) arrived since the last round is left to the claim.
    fn step_ids(
        &mut self,
        mut ids: impl Iterator<Item = u32>,
        claim: bool,
        queries: &[RangeQuery],
        store: &NodeStore,
        t: f64,
        filing: Option<&Filing>,
    ) {
        loop {
            self.lanes.len = 0;
            for n in ids.by_ref() {
                let placed = self.cell[n as usize] != UNOWNED;
                debug_assert!(!(claim && placed), "node {n} claimed twice");
                if (claim || placed) && self.lanes.push(n) {
                    break;
                }
            }
            if self.lanes.len == 0 {
                break;
            }
            if claim {
                self.placed += self.lanes.len;
            }
            self.step_chunk(queries, store, t, filing);
        }
    }

    /// Steps the chunk in `lanes` to time `t`, and files it when the
    /// round files: one pass after another over the chunk's nodes
    /// (module docs, *The step in passes*). A node whose stored cell is
    /// `UNOWNED` is a first report, placed from nothing.
    fn step_chunk(
        &mut self,
        queries: &[RangeQuery],
        store: &NodeStore,
        t: f64,
        filing: Option<&Filing>,
    ) {
        self.stepped += self.lanes.len as u64;
        self.place(store, t, filing.is_some());
        self.sync(queries);
        if let Some(f) = filing {
            self.propose(queries, store, t);
            self.check(store, t);
            self.file(f);
        }
    }

    /// Pass 1, *place*: predicts every node of the chunk at `t`, finds
    /// the cell that falls in, and reads what is stored for the node.
    fn place(&mut self, store: &NodeStore, t: f64, filing: bool) {
        let Shard {
            qindex,
            cell,
            hits,
            words,
            tick,
            lanes: l,
            ..
        } = self;
        let w = *words;
        for i in 0..l.len {
            let n = l.node[i] as usize;
            l.old[i] = cell[n];
            if filing {
                l.tick[i] = tick[n];
            }
            copy_words(&mut l.held[i * w..(i + 1) * w], &hits[n * w..(n + 1) * w]);
            let p = store.position(n as u32, t);
            let (row, col) = qindex.rc_of(&p);
            (l.p[i], l.row[i], l.col[i]) = (p, row as u32, col as u32);
            l.slot[i] = qindex.slot(row, col) as u32;
        }
    }

    /// Pass 2, *membership*: moves every node of the chunk to the
    /// `(cell, hit bits)` its position at `t` has, queueing one member
    /// edit per query slot it enters or leaves. This is the single exact
    /// arbiter of a node's answer: whatever made the node step — a
    /// report, a sweep, a wheel entry firing early — the stored pair
    /// afterwards is the one its position has.
    fn sync(&mut self, queries: &[RangeQuery]) {
        let Shard {
            qindex,
            ops,
            cell,
            hits,
            words,
            lanes: l,
            old_set,
            new_set,
            changed,
            ..
        } = self;
        let w = *words;
        for i in 0..l.len {
            let n = l.node[i];
            let (old, slot) = (l.old[i] as usize, l.slot[i] as usize);
            let held = &l.held[i * w..(i + 1) * w];
            let stored = &mut hits[n as usize * w..(n as usize + 1) * w];
            let partial = qindex.partial_at(slot);
            if slot == old && partial.is_empty() {
                // Full covers follow from the cell alone.
                continue;
            }
            let new = &mut l.hits[i * w..(i + 1) * w];
            hit_words(new, partial, queries, &l.p[i]);
            if slot == old {
                // Only partial hits can differ: one edit per flipped bit.
                let mut flipped = 0;
                for (k, (&was, &now)) in held.iter().zip(new.iter()).enumerate() {
                    let mut diff = was ^ now;
                    flipped |= diff;
                    while diff != 0 {
                        let b = diff.trailing_zeros();
                        diff &= diff - 1;
                        let q = partial[k * 64 + b as usize];
                        ops.push(member_op(q, n, now >> b & 1 == 1));
                    }
                }
                if flipped == 0 {
                    continue;
                }
            } else {
                // A node that crosses between two cells the same query
                // covers — most crossings — stays where it is in that
                // query's list.
                let was = if l.old[i] == UNOWNED {
                    &[]
                } else {
                    memberships(old_set, qindex, old, held)
                };
                let now = memberships(new_set, qindex, slot, new);
                queue_moves(ops, n, was, now);
                cell[n as usize] = slot as u32;
            }
            // A first report changes nothing that was stored.
            *changed += (l.old[i] != UNOWNED) as u64;
            copy_words(stored, new);
        }
    }

    /// Pass 3, *propose*: for every node of the chunk, an instant
    /// up to which its floating-point `(cell, hit bits)` is claimed to
    /// stay what pass 2 stored: `+∞` for a node that can reach nothing,
    /// `t` itself when no headroom is left (the node is then due at every
    /// later `t`), and otherwise a proposal that pass 4 checks.
    ///
    /// Per axis, the proposal is the distance to the nearest coordinate
    /// ahead at which any comparison can flip — the cell edge, and each
    /// edge line of each partial-cover query of the cell, whether or not
    /// the node will be inside the query's other axis when it gets there
    /// — shrunk by [`QueryIndex::edge_margin`], over the speed.
    fn propose(&mut self, queries: &[RangeQuery], store: &NodeStore, t: f64) {
        let Shard {
            qindex, lanes: l, ..
        } = self;
        let eps = qindex.edge_margin();
        for i in 0..l.len {
            let p = l.p[i];
            let (vx, vy) = store.velocity(l.node[i]);
            let (x0, x1, y0, y1) = qindex.cell_edges(l.row[i] as usize, l.col[i] as usize);
            let mut ex = if vx > 0.0 { x1 } else { x0 };
            let mut ey = if vy > 0.0 { y1 } else { y0 };
            for &q in qindex.partial_at(l.slot[i] as usize) {
                let r = &queries[q as usize].range;
                ex = nearer(nearer(ex, r.min.x, p.x, vx), r.max.x, p.x, vx);
                ey = nearer(nearer(ey, r.min.y, p.y, vy), r.max.y, p.y, vy);
            }
            let dt = time_to(ex, p.x, vx, eps).min(time_to(ey, p.y, vy, eps));
            let s = t + dt;
            l.s[i] = if dt == f64::INFINITY {
                f64::INFINITY
            } else if s.is_nan() || s <= t || s == f64::INFINITY {
                // No headroom, an overflow, or a NaN from non-finite
                // inputs.
                t
            } else {
                s
            };
            (l.ex[i], l.ey[i]) = (ex, ey);
        }
    }

    /// Pass 4, *check*: the closed form of pass 3 only proposes; the
    /// floating-point chain disposes. Each proposal `s` in `(t, ∞)` is
    /// predicted with the very `predict` / `axis_cell` / `<` a step would
    /// use, and stands only if the cell is the same and neither nearest
    /// coordinate has been reached; otherwise the node gets `t`. Each
    /// stage of that chain is monotone in time (`fl(s − t₀)`, times a
    /// constant, plus a constant, minus `lo`, over a positive extent,
    /// clamp, truncate, compare against a constant), so a comparison that
    /// reads the same at both ends of an interval reads the same
    /// throughout, and the farther edges cannot flip before the nearest.
    /// The margin of pass 3 is therefore not what makes the bound sound
    /// — it is what makes the check pass instead of landing within an
    /// ulp of the edge — and erring by it only ever fires a node early.
    fn check(&mut self, store: &NodeStore, t: f64) {
        let Shard {
            qindex, lanes: l, ..
        } = self;
        for i in 0..l.len {
            let s = l.s[i];
            if !(s > t && s < f64::INFINITY) {
                continue;
            }
            let ps = store.position(l.node[i], s);
            let (p, ex, ey) = (l.p[i], l.ex[i], l.ey[i]);
            let (row, col) = qindex.rc_of(&ps);
            let unchanged = (row as u32, col as u32) == (l.row[i], l.col[i])
                && (ps.x < ex) == (p.x < ex)
                && (ps.y < ey) == (p.y < ey);
            l.s[i] = if unchanged { s } else { t };
        }
    }

    /// Pass 5, *file*: files every node of the chunk under the
    /// tick of its safe-until instant — lazily: a live entry at an
    /// earlier tick is left to fire early (it finds nothing changed and
    /// re-files), so a node that re-reports every round still has one
    /// entry, not one per report. Only a node whose safe time moved
    /// *earlier* gets a second entry, and the first goes stale.
    fn file(&mut self, filing: &Filing) {
        let Shard {
            tick,
            filed,
            lanes: l,
            ..
        } = self;
        for i in 0..l.len {
            let n = l.node[i];
            let k = filing.tick_for(l.s[i], n as usize);
            // Covers "live entry at or before `k`" and "none wanted, none
            // there" (`NO_TICK` is the largest word).
            if l.tick[i] <= k {
                continue;
            }
            tick[n as usize] = k;
            if !filing.bulk {
                filed.push(n);
            }
        }
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
            swap_in(list, ops_scratch);
        }
        ops.clear();
    }

    /// [`flush_ops`](Self::flush_ops) fused with the digest (module
    /// docs, *The folded flush*): applies the round's queued edits and
    /// folds every member list, in slot order, onto the round opened in
    /// `h`, each under the id of its query in `queries`.
    fn flush_digest(&mut self, queries: &[RangeQuery], mut h: u64) -> u64 {
        let Shard {
            members,
            ops,
            ops_scratch,
            ..
        } = self;
        ops.sort_unstable();
        let mut rest = ops.as_slice();
        for (q, (list, query)) in members.iter_mut().zip(queries).enumerate() {
            let (group, tail) = rest.split_at(rest.partition_point(|&op| op >> 33 == q as u64));
            rest = tail;
            h = if group.is_empty() {
                let max = list.last().copied().unwrap_or(0);
                fold_ids(open_list(h, query.id, list.len()), list, max)
            } else {
                fold_edited(h, query.id, list, group, ops_scratch)
            };
        }
        debug_assert!(rest.is_empty(), "member edits past the last query slot");
        ops.clear();
        h
    }
}

/// Moves the rebuilt list in `scratch` into `list`: a swap, unless that
/// would leave a short list holding a long one's old buffer — buffers
/// circulate through the scratch slot, and unchecked every list would in
/// time hold the capacity of the largest.
fn swap_in(list: &mut Vec<u32>, scratch: &mut Vec<u32>) {
    if scratch.capacity() <= 2 * scratch.len() {
        std::mem::swap(list, scratch);
    } else {
        list.clear();
        list.extend_from_slice(scratch);
    }
}

/// Folds one member list with queued edits onto `h` under query id
/// `query` while rebuilding it: its post-edit length first, then every
/// id of the linear merge of `list` with its sorted edits `group`, each
/// written to `scratch` and hashed in the same loop before the rebuilt
/// list is swapped in. As in [`Shard::flush_ops`], an insert must be
/// absent and a remove present, and an edit is honoured by its insert
/// bit.
fn fold_edited(
    h: u64,
    query: u32,
    list: &mut Vec<u32>,
    group: &[u64],
    scratch: &mut Vec<u32>,
) -> u64 {
    let inserts = group.iter().filter(|&&op| op & 1 == 1).count();
    let len = list.len() + inserts - (group.len() - inserts);
    let h = open_list(h, query, len);
    // The rebuilt list's largest id is at most the larger of the old
    // list's last and the last insert: an upper bound, which is all the
    // width needs.
    let last_insert = group.iter().rev().find(|&&op| op & 1 == 1);
    let max = list
        .last()
        .copied()
        .max(last_insert.map(|&op| (op >> 1) as u32))
        .unwrap_or(0);
    scratch.clear();
    scratch.reserve(len);
    let h = if max < NARROW {
        merge_fold(h, list, group, scratch, fold_narrow)
    } else {
        merge_fold(h, list, group, scratch, fold_wide)
    };
    debug_assert_eq!(scratch.len(), len, "member edits against query {query}");
    swap_in(list, scratch);
    h
}

/// The loop of [`fold_edited`], one copy per id width.
#[inline(always)]
fn merge_fold(
    mut h: u64,
    list: &[u32],
    group: &[u64],
    out: &mut Vec<u32>,
    fold: impl Fn(u64, u32) -> u64,
) -> u64 {
    let mut i = 0;
    for &op in group {
        let (n, insert) = ((op >> 1) as u32, op & 1 == 1);
        while let Some(&m) = list.get(i).filter(|&&m| m < n) {
            out.push(m);
            h = fold(h, m);
            i += 1;
        }
        let present = list.get(i) == Some(&n);
        debug_assert_ne!(present, insert, "node {n} vs a member edit");
        i += present as usize;
        if insert {
            out.push(n);
            h = fold(h, n);
        }
    }
    for &m in &list[i..] {
        out.push(m);
        h = fold(h, m);
    }
    h
}

/// The positions of the set bits of `words`, ascending: bit `i` of word
/// `w` is position `64·w + i`.
#[inline]
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + i
            })
        })
    })
}

/// The queries of a cell's `partial` list whose bits are set in `bits`,
/// ascending like the list.
#[inline]
fn hit_queries<'a>(bits: &'a [u64], partial: &'a [u32]) -> impl Iterator<Item = u32> + 'a {
    set_bits(bits).map(|i| partial[i])
}

/// A set of node ids, one bit a node (module docs, *Hit bits*): an
/// insert is idempotent and counted, and the members come out ascending
/// by a scan of the words.
#[derive(Debug, Clone, Default)]
struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// Makes room for ids below `nodes`.
    fn grow(&mut self, nodes: usize) {
        let words = nodes.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    fn insert(&mut self, n: u32) {
        let (w, bit) = (n as usize / 64, 1u64 << (n % 64));
        self.grow(n as usize + 1);
        if self.words[w] & bit == 0 {
            self.words[w] |= bit;
            self.len += 1;
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The members, ascending.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        set_bits(&self.words).map(|n| n as u32)
    }

    fn clear(&mut self) {
        if self.len > 0 {
            self.words.fill(0);
            self.len = 0;
        }
    }
}

/// One deferred member-list edit as a sortable word: query slot, then
/// node, then remove (0) before insert (1). A round steps or claims a
/// node at most once, so a `(slot, node)` pair occurs at most once among
/// the pending edits.
#[inline]
fn member_op(q: u32, n: u32, insert: bool) -> u64 {
    (q as u64) << 33 | (n as u64) << 1 | insert as u64
}

/// Sets bit `i` of `bits` iff the `i`-th query of the cell's `partial`
/// list contains `p`, and clears the rest: `Rect::contains`'s
/// comparisons, joined without its branches.
#[inline]
fn hit_words(bits: &mut [u64], partial: &[u32], queries: &[RangeQuery], p: &Point) {
    let inside = |q: u32| {
        let r = &queries[q as usize].range;
        (p.x >= r.min.x) & (p.x < r.max.x) & (p.y >= r.min.y) & (p.y < r.max.y)
    };
    // One word — every benchmark workload — is built in a register.
    if let [word] = bits {
        *word = 0;
        for (i, &q) in partial.iter().enumerate() {
            *word |= (inside(q) as u64) << i;
        }
        return;
    }
    bits.fill(0);
    for (i, &q) in partial.iter().enumerate() {
        bits[i / 64] |= (inside(q) as u64) << (i % 64);
    }
}

/// Copies one node's hit words: a plain move when there is one word, not
/// a `memcpy` call.
#[inline]
fn copy_words(to: &mut [u64], from: &[u64]) {
    if let ([to], [from]) = (&mut *to, from) {
        *to = *from;
    } else {
        to.copy_from_slice(from);
    }
}

/// The query slots a node holds in the cell at `slot` with hit bits
/// `bits`, ascending: the cell's full covers, as they lie in the index
/// when no bit is set, or else merged with the hit partial covers (two
/// disjoint ascending lists) into `out`.
fn memberships<'a>(
    out: &'a mut Vec<u32>,
    qindex: &'a QueryIndex,
    slot: usize,
    bits: &[u64],
) -> &'a [u32] {
    let (full, partial) = (qindex.full_at(slot), qindex.partial_at(slot));
    if bits.iter().all(|&word| word == 0) {
        return full;
    }
    out.clear();
    let mut f = 0;
    for (k, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            let q = partial[k * 64 + word.trailing_zeros() as usize];
            word &= word - 1;
            while f < full.len() && full[f] < q {
                out.push(full[f]);
                f += 1;
            }
            out.push(q);
        }
    }
    out.extend_from_slice(&full[f..]);
    out
}

/// Queues the edits that move node `n` from the query slots in `old` to
/// those in `new` (both ascending): one per slot in exactly one of them.
fn queue_moves(ops: &mut Vec<u64>, n: u32, old: &[u32], new: &[u32]) {
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            Ordering::Equal => (i, j) = (i + 1, j + 1),
            Ordering::Less => {
                ops.push(member_op(old[i], n, false));
                i += 1;
            }
            Ordering::Greater => {
                ops.push(member_op(new[j], n, true));
                j += 1;
            }
        }
    }
    ops.extend(old[i..].iter().map(|&q| member_op(q, n, false)));
    ops.extend(new[j..].iter().map(|&q| member_op(q, n, true)));
}

/// `near`, the nearest coordinate ahead of a node at `p` moving at `v`
/// along one axis at which a comparison can flip, or `e` if that is
/// nearer. A coordinate moving up can only flip `p < e` for `e > p`;
/// moving down, for `e ≤ p` (both `min ≤ p` and `p < max` are functions
/// of `p < e`). An edge behind the node enters as ±∞, so the choice has
/// no branch.
#[inline]
fn nearer(near: f64, e: f64, p: f64, v: f64) -> f64 {
    let up = near.min(if e > p { e } else { f64::INFINITY });
    let down = near.max(if e <= p { e } else { f64::NEG_INFINITY });
    // Both candidates, then a select: the direction of travel differs
    // from node to node, and a branch on it would miss half the time.
    if v > 0.0 {
        up
    } else if v < 0.0 {
        down
    } else {
        near
    }
}

/// The time a node at `p` moving at `v` takes to come within `eps` of
/// `e` along one axis (`+∞` at rest).
#[inline]
fn time_to(e: f64, p: f64, v: f64, eps: f64) -> f64 {
    if v == 0.0 {
        f64::INFINITY
    } else {
        ((e - p).abs() - eps) / v.abs()
    }
}

/// All state of the unified engine. See the module docs for the round.
#[derive(Debug, Clone)]
pub(crate) struct UnifiedEval {
    bounds: Rect,
    shard: Shard,
    /// Whether the index matches the current query set.
    indexed: bool,
    /// Whether the shard describes a completed exact round.
    primed: bool,
    /// The last exact round's evaluation time.
    last_t: f64,
    /// The kinetic schedule: which placed nodes come due when.
    wheel: Wheel,
    /// Whether the next sweep should (re)schedule the wheel: true after a
    /// rebuild and while rounds are kinetic; false once a round had to
    /// step more than the [`BUSY`] share of the fleet, until a sweep
    /// finds less than the [`CALM`] share of it changed. Filing the
    /// whole fleet doubles a sweep's cost, so a world that moves too
    /// fast for the wheel to pay — long evaluation periods, tiny cells,
    /// everyone re-reporting — just sweeps, as it always did.
    calm: bool,
    /// Nodes that re-reported since the last exact round — plus, from
    /// `collect_due` to the end of a kinetic round, the nodes the wheel
    /// fired.
    dirty: NodeSet,
    /// Nodes whose *first* report arrived since the last exact round —
    /// not yet placed.
    pending: Vec<u32>,
}

impl UnifiedEval {
    /// Creates empty state for a server over `bounds`.
    pub(crate) fn new(bounds: Rect) -> Self {
        UnifiedEval {
            bounds,
            shard: Shard::new(),
            indexed: false,
            primed: false,
            last_t: 0.0,
            wheel: Wheel::default(),
            calm: true,
            dirty: NodeSet::default(),
            pending: Vec::new(),
        }
    }

    /// Marks every derived structure stale (query-set change).
    pub(crate) fn invalidate(&mut self) {
        self.indexed = false;
        self.primed = false;
    }

    /// Ingest hook: tracks which nodes' stored answer a new model may
    /// have invalidated. Flag and push, nothing else — the node's new
    /// `safe_until` is computed when the next round steps it anyway.
    /// `first_report` nodes are not placed yet and are claimed at the
    /// next round.
    ///
    /// An unprimed engine records nothing: its next round is a rebuild,
    /// which places every stored node without reading the feed and
    /// clears it. So a priming burst of a million first reports grows no
    /// pending list (4 MB that the rebuild would discard unread and the
    /// list would keep).
    pub(crate) fn on_ingest(&mut self, node: u32, first_report: bool) {
        if !self.primed {
            return;
        }
        if first_report {
            self.pending.push(node);
        } else {
            self.dirty.insert(node);
        }
    }

    /// The telemetry snapshot.
    pub(crate) fn stats(&self) -> ShardStats {
        let shard = &self.shard;
        ShardStats {
            nodes: shard.placed,
            round_ns: shard.round_ns,
            stepped: shard.stepped,
            due_fired: shard.due_fired,
            due_stale: shard.due_stale,
        }
    }

    /// (Re)builds the index and sizes the member lists and per-node
    /// arrays for the current query set.
    fn build_indexes(&mut self, queries: &[RangeQuery], num_nodes: usize) {
        self.shard.build(&self.bounds, queries, num_nodes);
        self.dirty.grow(num_nodes);
        self.indexed = true;
        self.primed = false;
    }

    /// `due(t)`: moves every node whose wheel entry could have a
    /// `safe_until < t` into the dirty set, and says whether the wheel
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
        let shard = &mut self.shard;
        for k in from.first..=to.first {
            let slot = (k % WHEEL_TICKS) as usize;
            let mut bucket = std::mem::take(&mut self.wheel.ring[slot]);
            for &node in bucket.iter() {
                let n = node as usize;
                if shard.tick[n] as u64 != k {
                    shard.due_stale += 1;
                    continue;
                }
                shard.tick[n] = NO_TICK;
                shard.due_fired += 1;
                self.dirty.insert(node);
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
        self.calm = self.dirty.len() * BUSY.1 <= shard.placed * BUSY.0;
        if !self.calm {
            self.wheel.scheduled = false;
        }
        self.calm
    }

    /// One exact evaluation round at time `t`, writing sorted
    /// [`QueryResult`]s into `out`.
    pub(crate) fn evaluate_into(
        &mut self,
        queries: &[RangeQuery],
        store: &NodeStore,
        t: f64,
        out: &mut Vec<QueryResult>,
    ) {
        self.round(queries, store, t, true);
        let nq = queries.len();
        out.resize_with(nq, QueryResult::default);
        out.truncate(nq);
        for ((slot, query), members) in out.iter_mut().zip(queries).zip(&self.shard.members) {
            slot.query = query.id;
            slot.nodes.clear();
            slot.nodes.extend_from_slice(members);
        }
    }

    /// The same round as [`evaluate_into`](Self::evaluate_into), folded
    /// onto the digest chain `prev` instead of copied out: returns what
    /// `digest_round(prev, t, &results)` returns for its results. The
    /// flush folds each list as it rebuilds it (module docs, *The folded
    /// flush*).
    pub(crate) fn evaluate_digest(
        &mut self,
        queries: &[RangeQuery],
        store: &NodeStore,
        t: f64,
        prev: u64,
    ) -> u64 {
        self.round(queries, store, t, false);
        let h = open_round(prev, t, queries.len());
        let shard = &mut self.shard;
        let start = Instant::now();
        let h = shard.flush_digest(queries, h);
        shard.round_ns += start.elapsed().as_nanos() as u64;
        h
    }

    /// The round itself: the step and claim phases, the wheel's and the
    /// change feeds' bookkeeping — and, with `flush`, the member-list
    /// edits applied (without, they stay queued for the caller's
    /// [`Shard::flush_digest`]).
    fn round(&mut self, queries: &[RangeQuery], store: &NodeStore, t: f64, flush: bool) {
        if !self.indexed {
            self.build_indexes(queries, store.len());
        }
        let rebuild = !self.primed;
        // The one skip rule: step only the nodes whose answer can have
        // changed, whenever the wheel can name them.
        let kinetic = !rebuild && self.collect_due(t);
        let filing = if rebuild {
            // A rebuild files nothing, so set-up pays nothing for the
            // wheel: the next advancing round is a sweep that files.
            self.wheel.scheduled = false;
            self.calm = true;
            None
        } else if kinetic {
            self.wheel.filing(t)
        } else if self.calm {
            self.wheel
                .reschedule(self.last_t, t, &mut self.shard.tick, store.len())
        } else {
            // A sweep that does not file re-places nodes behind the
            // wheel's back: whatever it held is not a schedule any more.
            self.wheel.scheduled = false;
            None
        };
        let filing = filing.as_ref();
        let shard = &mut self.shard;
        let changed_before = shard.changed;
        let start = Instant::now();
        if rebuild {
            shard.rebuild(queries, store, t);
        } else {
            if kinetic {
                shard.step_ids(self.dirty.iter(), false, queries, store, t, filing);
            } else {
                shard.step_ids(0..store.len() as u32, false, queries, store, t, filing);
            }
            let pending = self.pending.iter().copied();
            shard.step_ids(pending, true, queries, store, t, filing);
        }
        // Every edit the two phases queued lands in the member lists
        // now, before anything reads them — unless the caller folds them
        // in itself.
        if flush && !shard.ops.is_empty() {
            shard.flush_ops();
        }
        shard.round_ns += start.elapsed().as_nanos() as u64;

        if !rebuild && !kinetic {
            // What a sweep saw decides whether the next one files.
            let changed = (shard.changed - changed_before) as usize;
            self.calm = changed * CALM.1 <= shard.placed * CALM.0;
        }
        // Move what the round filed into the wheel's buckets.
        if filing.is_some_and(|f| f.bulk) {
            self.wheel.fill(&shard.tick);
        }
        for node in shard.filed.drain(..) {
            self.wheel.push(node, shard.tick[node as usize]);
        }

        self.primed = true;
        self.last_t = t;
        self.dirty.clear();
        self.pending.clear();
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
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The one-node-at-a-time step the passes replaced, kept as their
    /// oracle: `replace` and `safe_until` as they were, with the
    /// branching `Rect::contains` and the membership difference taken
    /// between two `BTreeSet`s.
    mod scalar {
        use super::*;

        /// The query slots node `n` holds in `slot` under hit words `bits`.
        fn held(shard: &Shard, slot: usize, bits: &[u64]) -> BTreeSet<u32> {
            let partial = shard.qindex.partial_at(slot);
            let hit = (0..partial.len()).filter(|&i| bits[i / 64] >> (i % 64) & 1 == 1);
            shard
                .qindex
                .full_at(slot)
                .iter()
                .copied()
                .chain(hit.map(|i| partial[i]))
                .collect()
        }

        /// Moves placed (or, from `UNOWNED`, first-reporting) node `n` to
        /// what `p` in `(row, col)` implies; returns whether that differs
        /// from what was stored.
        pub(super) fn replace(
            shard: &mut Shard,
            n: usize,
            p: &Point,
            row: usize,
            col: usize,
            queries: &[RangeQuery],
        ) -> bool {
            let w = shard.words;
            let slot = shard.qindex.slot(row, col);
            let old_slot = shard.cell[n] as usize;
            let mut bits = vec![0u64; w];
            for (i, &q) in shard.qindex.partial_at(slot).iter().enumerate() {
                if queries[q as usize].range.contains(p) {
                    bits[i / 64] |= 1 << (i % 64);
                }
            }
            let old_bits = shard.hits[n * w..(n + 1) * w].to_vec();
            if slot == old_slot && bits == old_bits {
                return false;
            }
            let was = if shard.cell[n] == UNOWNED {
                BTreeSet::new()
            } else {
                held(shard, old_slot, &old_bits)
            };
            let now = held(shard, slot, &bits);
            for &q in was.difference(&now) {
                shard.ops.push(member_op(q, n as u32, false));
            }
            for &q in now.difference(&was) {
                shard.ops.push(member_op(q, n as u32, true));
            }
            shard.hits[n * w..(n + 1) * w].copy_from_slice(&bits);
            shard.cell[n] = slot as u32;
            true
        }

        #[allow(clippy::too_many_arguments)]
        pub(super) fn safe_until(
            shard: &Shard,
            n: usize,
            p: &Point,
            row: usize,
            col: usize,
            queries: &[RangeQuery],
            store: &NodeStore,
            t: f64,
        ) -> f64 {
            let (vx, vy) = store.velocity(n as u32);
            let (x0, x1, y0, y1) = shard.qindex.cell_edges(row, col);
            let mut ex = if vx > 0.0 { x1 } else { x0 };
            let mut ey = if vy > 0.0 { y1 } else { y0 };
            let nearer = |near: &mut f64, e: f64, p: f64, v: f64| {
                if v > 0.0 && e > p {
                    *near = near.min(e);
                } else if v < 0.0 && e <= p {
                    *near = near.max(e);
                }
            };
            for &q in shard.qindex.partial_at(shard.qindex.slot(row, col)) {
                let r = &queries[q as usize].range;
                nearer(&mut ex, r.min.x, p.x, vx);
                nearer(&mut ex, r.max.x, p.x, vx);
                nearer(&mut ey, r.min.y, p.y, vy);
                nearer(&mut ey, r.max.y, p.y, vy);
            }
            let eps = shard.qindex.edge_margin();
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
            if s.is_nan() || s <= t || s == f64::INFINITY {
                return t;
            }
            let ps = store
                .predict(n as u32, s)
                .expect("a stepped node has a model");
            let unchanged = shard.qindex.rc_of(&ps) == (row, col)
                && (ps.x < ex) == (p.x < ex)
                && (ps.y < ey) == (p.y < ey);
            if unchanged {
                s
            } else {
                t
            }
        }
    }

    /// One generated node of a chunk: its model, where it was placed
    /// (none: a first report) with the hit words stored for it, and its
    /// tick word.
    #[derive(Clone, Debug)]
    struct Node {
        model: (f64, Point, (f64, f64)),
        placed: Option<(Placed, [u64; 2])>,
        tick: u32,
    }

    /// The cell a generated node was placed in.
    #[derive(Clone, Copy, Debug)]
    enum Placed {
        /// The cell its prediction at `t` falls in — a step that can only
        /// flip hit bits.
        Same,
        /// Some cell, as a number to reduce modulo the cell count.
        Any(usize),
    }

    /// A coordinate on the 62.5 m lattice of the equivalence batteries,
    /// nudged off it by one of a few offsets (none, an ulp-sized one, an
    /// arbitrary one, one just below).
    fn coord(i: i32, nudge: u32) -> f64 {
        i as f64 * 62.5 + [0.0, 1e-9, 13.37, -0.001][nudge as usize % 4]
    }

    fn queries() -> impl Strategy<Value = Vec<RangeQuery>> {
        // A crowded set shares one corner cell, so that cell's partial
        // list can run past 64 and a node's hits take two words.
        (
            prop::collection::vec((-1i32..17, -1i32..17, 1i32..8, 1i32..8, 0u32..4), 1..140),
            any::<bool>(),
        )
            .prop_map(|(rects, crowd)| {
                rects
                    .into_iter()
                    .enumerate()
                    .map(|(id, (i, j, w, h, nudge))| {
                        let (i, j) = if crowd { (4, 4) } else { (i, j) };
                        let (x, y) = (coord(i, nudge), coord(j, nudge + id as u32));
                        RangeQuery {
                            id: id as u32,
                            range: Rect::from_coords(
                                x,
                                y,
                                x + w as f64 * 62.5,
                                y + h as f64 * 41.0,
                            ),
                        }
                    })
                    .collect()
            })
    }

    fn nodes() -> impl Strategy<Value = Vec<Node>> {
        prop::collection::vec(
            (
                (
                    0u32..8,
                    (-2i32..19, -2i32..19),
                    (-4i32..5, -4i32..5),
                    0u32..4,
                ),
                (0u32..4, 0usize..100_000, any::<u64>(), any::<u64>()),
                0u32..6,
            )
                .prop_map(|((m, (i, j), (vi, vj), nudge), (c, slot, w0, w1), k)| {
                    // Now and then a node far off the grid on one axis,
                    // where a prediction at the proposed instant rounds by
                    // metres, or one fast enough to cross it in a round.
                    let far = |axis| if m == axis { 1e16 } else { 0.0 };
                    let (x, y) = (coord(i, nudge) - far(5), coord(j, nudge + 1) - far(6));
                    let scale = if m == 7 { 1e4 } else { 6.25 };
                    let model = (
                        [0.0, 0.5, 1.0, 3.0][m as usize % 4],
                        Point::new(x, y),
                        (vi as f64 * scale, vj as f64 * scale),
                    );
                    let placed = match c {
                        0 => None,
                        1 => Some(Placed::Any(slot)),
                        _ => Some(Placed::Same),
                    };
                    Node {
                        model,
                        placed: placed.map(|at| (at, [w0, w1])),
                        tick: [NO_TICK, 0, 3, 40, 500, 4000][k as usize],
                    }
                }),
            1..=CHUNK,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The staged passes against the scalar step, node by node: the
        /// same member edits (as a multiset), the same stored `(cell, hit
        /// words)`, the same safe-until bits, the same tick words and
        /// filing order, and the same nodes counted changed.
        #[test]
        fn the_passes_step_each_node_as_the_scalar_step_does(
            qs in queries(),
            chunk in nodes(),
            (ti, width, bulk, filing) in (0usize..6, 0usize..3, any::<bool>(), any::<bool>()),
        ) {
            let t = [0.0, 0.5, 1.0, 2.25, 7.0, 1e-9][ti];
            let bounds = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
            let mut store = NodeStore::new(chunk.len());
            let mut shard = Shard::new();
            shard.build(&bounds, &qs, chunk.len());
            shard.tick.resize(chunk.len(), NO_TICK);
            let far = shard.qindex.rc_of(&Point::new(f64::MAX, f64::MAX));
            let cells = shard.qindex.slot(far.0, far.1) + 1;
            let w = shard.words;
            for (n, node) in chunk.iter().enumerate() {
                let (time, origin, v) = node.model;
                store.apply(n as u32, time, origin, v);
                if let Some((at, words)) = node.placed {
                    let slot = match at {
                        Placed::Same => {
                            let (row, col) = shard.qindex.rc_of(&store.position(n as u32, t));
                            shard.qindex.slot(row, col)
                        }
                        Placed::Any(slot) => slot % cells,
                    };
                    // Only bits below the cell's partial count can be set.
                    let width = shard.qindex.partial_at(slot).len();
                    for (k, word) in shard.hits[n * w..(n + 1) * w].iter_mut().enumerate() {
                        let bits = width.saturating_sub(64 * k).min(64);
                        *word = words[k % 2] & u64::MAX.checked_shr(64 - bits as u32).unwrap_or(0);
                    }
                    shard.cell[n] = slot as u32;
                }
                shard.tick[n] = node.tick;
            }
            let filing = filing.then(|| {
                let base = Filing { origin: -1.0, width: [0.125, 1.0, 1e-3][width], first: 0, bulk };
                Filing { first: base.tick_of(t), ..base }
            });
            let filing = filing.as_ref();

            let mut want = shard.clone();
            let mut want_s = vec![None; chunk.len()];
            for (n, want_s) in want_s.iter_mut().enumerate() {
                want.stepped += 1;
                let p = store.predict(n as u32, t).expect("every generated node reported");
                let (row, col) = want.qindex.rc_of(&p);
                let placed = want.cell[n] != UNOWNED;
                let changed = scalar::replace(&mut want, n, &p, row, col, &qs);
                want.changed += (placed && changed) as u64;
                if let Some(f) = filing {
                    let s = scalar::safe_until(&want, n, &p, row, col, &qs, &store, t);
                    *want_s = Some(s.to_bits());
                    let k = f.tick_for(s, n);
                    if want.tick[n] > k {
                        want.tick[n] = k;
                        if !f.bulk {
                            want.filed.push(n as u32);
                        }
                    }
                }
            }

            shard.lanes.len = chunk.len();
            for n in 0..chunk.len() {
                shard.lanes.node[n] = n as u32;
            }
            shard.step_chunk(&qs, &store, t, filing);
            for (n, &s) in want_s.iter().enumerate() {
                if let Some(s) = s {
                    prop_assert_eq!(shard.lanes.s[n].to_bits(), s, "safe-until of node {}", n);
                }
            }
            let (mut got_ops, mut want_ops) = (shard.ops.clone(), want.ops.clone());
            got_ops.sort_unstable();
            want_ops.sort_unstable();
            prop_assert_eq!(got_ops, want_ops);
            prop_assert_eq!(&shard.cell, &want.cell);
            prop_assert_eq!(&shard.hits, &want.hits);
            prop_assert_eq!(&shard.tick, &want.tick);
            prop_assert_eq!(&shard.filed, &want.filed);
            prop_assert_eq!(
                (shard.changed, shard.stepped),
                (want.changed, want.stepped)
            );
        }
    }

    #[test]
    fn a_move_queues_only_the_membership_difference() {
        // A node leaving slots {1, 3, 5} for {3, 5, 7}: one remove, one
        // insert. Slots 3 and 5 hold it before and after, so their lists
        // are left alone (a remove-then-insert there rebuilds them for
        // nothing).
        let mut ops = Vec::new();
        queue_moves(&mut ops, 42, &[1, 3, 5], &[3, 5, 7]);
        assert_eq!(ops, vec![member_op(1, 42, false), member_op(7, 42, true)]);
        ops.clear();
        queue_moves(&mut ops, 9, &[2, 4], &[2, 4]);
        assert!(ops.is_empty());
        queue_moves(&mut ops, 9, &[], &[0, 6]);
        assert_eq!(ops, vec![member_op(0, 9, true), member_op(6, 9, true)]);
    }

    /// What `fold_edited` must return for `list` under `edits`: the bytes
    /// of query 9's id, the post-edit length and every post-edit id.
    fn folded_bytes(list: &[u32], edits: &[(u32, bool)]) -> (Vec<u32>, u64) {
        use crate::digest::{fnv1a, FNV_OFFSET};
        let mut after: std::collections::BTreeSet<u32> = list.iter().copied().collect();
        for &(n, insert) in edits {
            if insert {
                after.insert(n);
            } else {
                after.remove(&n);
            }
        }
        let h = fnv1a(FNV_OFFSET, &9u32.to_le_bytes());
        let h = fnv1a(h, &(after.len() as u64).to_le_bytes());
        let h = after.iter().fold(h, |h, n| fnv1a(h, &n.to_le_bytes()));
        (after.into_iter().collect(), h)
    }

    #[test]
    fn an_edited_list_folds_what_it_becomes() {
        type Case = (&'static [u32], &'static [(u32, bool)]);
        let cases: [Case; 7] = [
            (&[1, 5, 9], &[(1, false), (7, true)]),
            // A kept tail above 2²⁴, every edit below it.
            (&[1, 5, NARROW + 3], &[(2, true), (5, false)]),
            // An insert above the old maximum, which sat below 2²⁴.
            (&[1, 5, NARROW - 1], &[(NARROW, true)]),
            (&[0, NARROW - 1], &[(u32::MAX, true), (0, false)]),
            // A removed tail above 2²⁴: the width may stay wide.
            (&[4, NARROW + 1], &[(NARROW + 1, false), (6, true)]),
            // Emptied, and refilled.
            (&[4], &[(4, false)]),
            (&[], &[(3, true), (NARROW - 1, true), (NARROW + 2, true)]),
        ];
        let mut scratch = Vec::new();
        for (old, edits) in cases {
            let mut group: Vec<u64> = edits.iter().map(|&(n, i)| member_op(9, n, i)).collect();
            group.sort_unstable();
            let mut list = old.to_vec();
            let h = fold_edited(
                crate::digest::FNV_OFFSET,
                9,
                &mut list,
                &group,
                &mut scratch,
            );
            let (after, want) = folded_bytes(old, edits);
            assert_eq!(list, after, "{old:?} under {edits:?}");
            assert_eq!(h, want, "{old:?} under {edits:?}");
        }
    }

    #[test]
    fn a_node_set_yields_its_members_once_and_ascending() {
        let mut set = NodeSet::default();
        let ids = [700, 64, 0, 63, 65, 64, 127, 128, 1, 700, 4095, 99];
        for n in ids {
            set.insert(n);
        }
        let mut want = ids.to_vec();
        want.sort_unstable();
        want.dedup();
        assert_eq!(set.iter().collect::<Vec<_>>(), want);
        assert_eq!(set.len(), want.len());
        set.clear();
        assert_eq!((set.iter().count(), set.len()), (0, 0));
        set.insert(5000);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![5000]);
    }
}
