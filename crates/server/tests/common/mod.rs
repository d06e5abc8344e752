//! The advancing-`t` history every equivalence battery replays
//! (`eval_equiv`, `shard_equiv`, `restripe_equiv`, `store_churn`): random
//! interleavings of reports (fresh and stale), removals, re-registrations,
//! query-set replacement and forced restripes with evaluation rounds at
//! `t += dt`, where `dt` is drawn from the steps a kinetic engine can get
//! wrong — none, one ulp-ish, one period, a jump past many events, a jump
//! past the whole time wheel, and backwards. Every server under test is
//! compared, round for round, against a brute-force [`World`] with the
//! node store's exact staleness and removal rules — the one oracle of
//! every battery, for `evaluate`, `evaluate_uncertain` and `nearest`.
//!
//! Coordinates are multiples of 62.5 m (binary-exact) over a 1 km² space
//! and velocities multiples of 6.25 m/s, so nodes sit *exactly* on cell,
//! stripe and query edges at whole-second times, with events every few
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
    /// `node` deregisters (no-op if it never reported).
    Remove { node: u32 },
    /// Evaluate everything at `t += dt` and compare.
    Eval { dt: f64 },
    /// Swap the registered query set for the other one.
    ReplaceQueries,
    /// Force a column migration (multi-shard unified servers only).
    Restripe,
}

pub fn history(max: usize) -> impl Strategy<Value = Vec<Step>> {
    // Selector 0..20 — 9 parts report, 2 remove, 7 evaluate, 1 query
    // swap, 1 restripe (the vendored proptest has no `prop_oneof`).
    prop::collection::vec(
        (
            0u32..20,
            0u32..NUM_NODES as u32,
            0u32..4,
            (-2i32..19, -2i32..19),
            (-4i32..5, -4i32..5),
            0usize..DTS.len(),
        )
            .prop_map(|(sel, node, age, (i, j), (vi, vj), dt)| match sel {
                0..=8 => Step::Report {
                    node,
                    age: age as f64 * 0.5,
                    pos: Point::new(i as f64 * U, j as f64 * U),
                    vel: (vi as f64 * 6.25, vj as f64 * 6.25),
                },
                9 | 10 => Step::Remove { node },
                11..=17 => Step::Eval { dt: DTS[dt] },
                18 => Step::ReplaceQueries,
                _ => Step::Restripe,
            }),
        1..max,
    )
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
/// store's exact rules (reject strictly older reports, accept ties;
/// removal forgets history) and the same prediction arithmetic,
/// evaluated by full scans.
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

    pub fn remove(&mut self, node: u32) {
        self.models[node as usize] = None;
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

    /// The uncertain-membership specification: `must` ⇔ the prediction is
    /// inside with interior depth ≥ the node's Δ; `maybe` ⇔ not must but
    /// within Δ of the range.
    pub fn evaluate_uncertain(
        &self,
        queries: &[RangeQuery],
        t: f64,
        max_delta: f64,
        delta_of: impl Fn(u32, Point) -> f64,
    ) -> Vec<UncertainResult> {
        queries
            .iter()
            .map(|q| {
                let mut must = Vec::new();
                let mut maybe = Vec::new();
                for n in 0..self.models.len() {
                    let Some(p) = self.predict(n, t) else {
                        continue;
                    };
                    let delta = delta_of(n as u32, p).clamp(0.0, max_delta);
                    if q.range.contains(&p) && q.range.interior_depth(&p) >= delta {
                        must.push(n as u32);
                    } else if q.range.distance_to_point(&p) <= delta {
                        maybe.push(n as u32);
                    }
                }
                UncertainResult {
                    query: q.id,
                    must,
                    maybe,
                }
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

/// One server under test with the result buffer it reuses across rounds
/// (a node that vanishes must vanish from the reused vectors too).
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
/// result, and its `k` nearest nodes to a lattice point that moves with
/// the round, equal the world's. Returns the number of rounds compared.
pub fn replay(
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
            Step::Remove { node } => {
                let had = world.models[*node as usize].is_some();
                world.remove(*node);
                for s in subjects.iter_mut() {
                    assert_eq!(
                        s.server.remove_node(*node),
                        had,
                        "{} remove {node}",
                        s.label
                    );
                }
            }
            Step::ReplaceQueries => {
                std::mem::swap(&mut active, &mut other);
                for s in subjects.iter_mut() {
                    s.server.replace_queries(active.iter().copied());
                }
            }
            Step::Restripe => {
                for s in subjects.iter_mut() {
                    s.server.force_restripe();
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
