//! The advancing-`t` history every equivalence battery replays (`eval_equiv`,
//! `kinetic_edges`, `store_churn`): random interleavings of reports (first,
//! fresh and stale) and query-set replacement with evaluation rounds at
//! `t += dt`, where `dt` is drawn from the steps a kinetic engine can get
//! wrong — none, one ulp-ish, one period, a jump past many events, a jump
//! past the whole time wheel, and backwards. Every server under test is
//! compared, round for round, against a brute-force [`World`] with the node
//! store's exact staleness rule — the one oracle of every battery, for
//! `evaluate` and `nearest` — and, after every round,
//! for how many nodes the engine holds placed ([`assert_placed`]).
//!
//! Coordinates are multiples of 62.5 m (binary-exact) over a 1 km² space
//! and velocities multiples of 6.25 m/s, so nodes sit *exactly* on cell
//! and query edges at whole-second times, with events every few
//! seconds — the places where a closed-form `safe_until` and the
//! floating-point chain it predicts could disagree.

// Each battery uses its own subset.
#![allow(dead_code)]

use lira_core::geometry::{Point, Rect};
use lira_server::prelude::*;
use proptest::prelude::*;

/// The coordinate lattice unit (m); binary-exact, half a 125 m cell of
/// the 8-column grid four queries give.
pub const U: f64 = 62.5;
pub const NUM_NODES: usize = 24;

pub fn bounds() -> Rect {
    Rect::from_coords(0.0, 0.0, 1000.0, 1000.0)
}

/// The evaluation steps a history draws from. One period dominates so
/// the wheel stays scheduled and most rounds are kinetic; 37 s passes
/// several cell crossings of every moving node at once; 5000 s is past
/// the ring at any tick width these steps can set; the negative steps
/// must take the sweep and leave the wheel usable afterwards.
pub const DTS: [f64; 10] = [1.0, 1.0, 1.0, 1.0, 0.0, 1e-9, 0.5, 37.0, 5000.0, -2.5];

/// One step of a history.
#[derive(Clone, Debug)]
pub enum Step {
    /// `node` reports `pos`/`vel`, time-stamped `age` seconds before the
    /// last evaluation time (older than its stored model ⇒ rejected).
    Report {
        node: u32,
        age: f64,
        pos: Point,
        vel: (f64, f64),
    },
    /// Evaluate everything at `t += dt` and compare.
    Eval { dt: f64 },
    /// Swap the registered query set for the other one.
    ReplaceQueries,
}

pub fn history(max: usize) -> impl Strategy<Value = Vec<Step>> {
    // Selector 0..20 — 11 parts report, 7 evaluate, 1 query swap and 1
    // the shape below (the vendored proptest has no `prop_oneof`).
    prop::collection::vec(
        (
            0u32..20,
            0u32..NUM_NODES as u32,
            0u32..4,
            (-2i32..19, -2i32..19),
            (-4i32..5, -4i32..5),
            0usize..DTS.len(),
        )
            .prop_map(|(sel, node, age, (i, j), (vi, vj), dt)| {
                let report = Step::Report {
                    node,
                    age: age as f64 * 0.5,
                    pos: Point::new(i as f64 * U, j as f64 * U),
                    vel: (vi as f64 * 6.25, vj as f64 * 6.25),
                };
                match sel {
                    0..=10 => vec![report],
                    18 => vec![Step::ReplaceQueries],
                    // A sweep that does not file, a node re-reported into
                    // it, then rounds one period apart: the jump past the
                    // ring moves most of the fleet, so the backwards sweep
                    // after it does not file, and the wheel it leaves has
                    // no entry for the re-reported node. A round that
                    // trusted that wheel would miss the node's crossings.
                    19 => {
                        let mut shape = vec![Step::Eval { dt: 5000.0 }, report];
                        shape.extend([-2.5, 1.0, 1.0, 1.0, 1.0].map(|dt| Step::Eval { dt }));
                        shape
                    }
                    _ => vec![Step::Eval { dt: DTS[dt] }],
                }
            }),
        1..max,
    )
    .prop_map(|blocks| blocks.concat())
}

pub fn query_set(max: usize) -> impl Strategy<Value = Vec<RangeQuery>> {
    prop::collection::vec(
        (-1i32..17, -1i32..17, 1i32..8, 1i32..8).prop_map(|(i, j, w, h)| {
            Rect::from_coords(
                i as f64 * U,
                j as f64 * U,
                (i + w) as f64 * U,
                (j + h) as f64 * U,
            )
        }),
        1..max,
    )
    .prop_map(|rects| {
        rects
            .into_iter()
            .enumerate()
            .map(|(id, range)| RangeQuery {
                id: id as u32,
                range,
            })
            .collect()
    })
}

/// `(report time, origin, velocity)`.
type Model = (f64, Point, (f64, f64));

/// The brute-force oracle: last-writer-wins motion models with the node
/// store's exact rule (reject strictly older reports, accept ties) and
/// the same prediction arithmetic, evaluated by full scans.
#[derive(Clone)]
pub struct World {
    models: Vec<Option<Model>>,
}

impl World {
    pub fn new(num_nodes: usize) -> Self {
        World {
            models: vec![None; num_nodes],
        }
    }

    pub fn report(&mut self, node: u32, t: f64, pos: Point, vel: (f64, f64)) {
        let slot = &mut self.models[node as usize];
        if slot.is_some_and(|(time, _, _)| time > t) {
            return;
        }
        *slot = Some((t, pos, vel));
    }

    pub fn predict(&self, node: usize, t: f64) -> Option<Point> {
        self.models[node].map(|(time, origin, vel)| {
            let dt = t - time;
            Point::new(origin.x + vel.0 * dt, origin.y + vel.1 * dt)
        })
    }

    pub fn evaluate(&self, queries: &[RangeQuery], t: f64) -> Vec<QueryResult> {
        queries
            .iter()
            .map(|q| QueryResult {
                query: q.id,
                nodes: (0..self.models.len())
                    .filter(|&n| self.predict(n, t).is_some_and(|p| q.range.contains(&p)))
                    .map(|n| n as u32)
                    .collect(),
            })
            .collect()
    }

    /// The `k` nearest reported nodes by `(distance, id)`: sort everyone.
    pub fn nearest(&self, center: Point, k: usize, t: f64) -> Vec<(u32, f64)> {
        let mut hits: Vec<(u32, f64)> = (0..self.models.len())
            .filter_map(|n| self.predict(n, t).map(|p| (n as u32, p.distance(&center))))
            .collect();
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        hits.truncate(k);
        hits
    }

    pub fn reported_count(&self) -> usize {
        self.models.iter().filter(|m| m.is_some()).count()
    }
}

/// Held after an exact round at `t`: the engine has placed exactly the
/// reported nodes.
pub fn assert_placed(label: &str, server: &CqServer, world: &World, t: f64) {
    assert_eq!(
        server.shard_stats().nodes,
        world.reported_count(),
        "{label} placed nodes t={t}"
    );
}

/// One server under test with the result buffer it reuses across rounds
/// (a node that leaves a query must leave the reused vectors too).
#[derive(Clone)]
pub struct Subject {
    pub label: String,
    pub server: CqServer,
    buf: Vec<QueryResult>,
}

impl Subject {
    pub fn new(label: impl Into<String>, server: CqServer) -> Self {
        Subject {
            label: label.into(),
            server,
            buf: Vec::new(),
        }
    }
}

/// Replays `steps` against every subject and the brute-force world,
/// starting from query set `qs` (a `ReplaceQueries` step toggles between
/// `qs` and `qs2`), and asserts after every evaluation — plus three
/// settling rounds one period apart at the end — that each subject's
/// result, its `k` nearest nodes to a lattice point that moves with the
/// round, and its placed-node count equal the world's. Returns the
/// number of rounds compared.
///
/// The vendored `proptest` does not shrink, so a failing history is
/// shrunk here: [`minimise`] replays sub-histories against copies of the
/// subjects as they were passed in, and the panic names the first
/// failure and the 1-minimal history that still fails.
pub fn replay(
    steps: &[Step],
    qs: &[RangeQuery],
    qs2: &[RangeQuery],
    subjects: &mut [Subject],
) -> usize {
    let fresh = subjects.to_vec();
    let run = |steps: &[Step], subjects: &mut [Subject]| {
        quietly(|| replay_once(steps, qs, qs2, subjects))
    };
    let cause = match run(steps, subjects) {
        Ok(rounds) => return rounds,
        Err(cause) => cause,
    };
    // Every input the predicate accepts becomes the shrink's current one,
    // so the last failure it sees is the core's.
    let mut last = cause.clone();
    let core = minimise(steps, |steps| {
        run(steps, &mut fresh.clone())
            .map_err(|e| last = e)
            .is_err()
    });
    panic!(
        "{cause}\nshrunk from {} to {} steps, which fail with: {last}\n{core:?}",
        steps.len(),
        core.len()
    );
}

/// Runs `f`, turning a panic into its message, and keeps the default
/// hook from printing it: a shrink panics hundreds of times.
fn quietly<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    use std::cell::Cell;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::Once;
    thread_local!(static QUIET: Cell<bool> = const { Cell::new(false) });
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let noisy = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                noisy(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    result.map_err(|cause| {
        cause
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| cause.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "a panic with no message".into())
    })
}

/// Delta debugging (ddmin): shrinks `input` to a sub-sequence on which
/// `fails` still holds and from which no single element can be dropped
/// without it ceasing to — a 1-minimal failing input. Splits the input
/// into halves, then quarters and so on; keeps one chunk alone, or
/// everything but one chunk, whenever that still fails, and re-splits
/// what is left. `fails(input)` must hold.
pub fn minimise<T: Clone>(input: &[T], mut fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut cur = input.to_vec();
    let mut parts = 2;
    while !cur.is_empty() {
        let size = cur.len().div_ceil(parts.min(cur.len()));
        let chunks: Vec<(usize, usize)> = (0..cur.len())
            .step_by(size)
            .map(|start| (start, (start + size).min(cur.len())))
            .collect();
        // One chunk alone (when there are two or more).
        if chunks.len() > 1 {
            if let Some(&(a, b)) = chunks.iter().find(|&&(a, b)| fails(&cur[a..b])) {
                cur = cur[a..b].to_vec();
                parts = 2;
                continue;
            }
        }
        // Everything but one chunk.
        let without = |cur: &[T], (a, b): (usize, usize)| [&cur[..a], &cur[b..]].concat();
        if let Some(&chunk) = chunks.iter().find(|&&c| fails(&without(&cur, c))) {
            cur = without(&cur, chunk);
            parts = (chunks.len() - 1).max(2);
            continue;
        }
        if size == 1 {
            // Every single element was dropped in turn: 1-minimal.
            break;
        }
        parts = chunks.len() * 2;
    }
    cur
}

/// [`replay`] without the shrink.
fn replay_once(
    steps: &[Step],
    qs: &[RangeQuery],
    qs2: &[RangeQuery],
    subjects: &mut [Subject],
) -> usize {
    for s in subjects.iter_mut() {
        s.server.replace_queries(qs.iter().copied());
    }
    let mut world = World::new(NUM_NODES);
    let (mut active, mut other) = (qs, qs2);
    let mut t = 0.5;
    let mut rounds = 0;
    let settle = [
        Step::Eval { dt: 1.0 },
        Step::Eval { dt: 1.0 },
        Step::Eval { dt: 1.0 },
    ];
    for (i, step) in steps.iter().chain(&settle).enumerate() {
        match step {
            Step::Report {
                node,
                age,
                pos,
                vel,
            } => {
                world.report(*node, t - age, *pos, *vel);
                for s in subjects.iter_mut() {
                    s.server.ingest(*node, t - age, *pos, *vel);
                }
            }
            Step::ReplaceQueries => {
                std::mem::swap(&mut active, &mut other);
                for s in subjects.iter_mut() {
                    s.server.replace_queries(active.iter().copied());
                }
            }
            Step::Eval { dt } => {
                t += dt;
                rounds += 1;
                let want = world.evaluate(active, t);
                // Lattice points −1..18 per axis, so centres sit on
                // nodes, between them and outside the bounds, and ties
                // in distance (broken by id) are routine.
                let center = Point::new(
                    ((rounds * 5) % 20) as f64 * U - U,
                    ((rounds * 7) % 20) as f64 * U - U,
                );
                let k = rounds % 7;
                let near = world.nearest(center, k, t);
                for s in subjects.iter_mut() {
                    s.server.evaluate_into(t, &mut s.buf);
                    assert_eq!(s.buf, want, "{} step {i} round {rounds} t={t}", s.label);
                    assert_eq!(
                        s.server.nearest(center, k, t),
                        near,
                        "{} nearest k={k} step {i} round {rounds} t={t}",
                        s.label
                    );
                    assert_placed(&s.label, &s.server, &world, t);
                }
            }
        }
    }
    for s in subjects.iter() {
        assert_eq!(
            s.server.store().reported_count(),
            world.reported_count(),
            "{} reported_count",
            s.label
        );
    }
    rounds
}
