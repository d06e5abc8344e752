//! The advancing-`t` history every equivalence battery replays (`eval_equiv`,
//! `shard_equiv`, `store_churn`): random interleavings of reports (fresh and
//! stale), removals, re-registrations and query-set replacement with
//! evaluation rounds at `t += dt`, where `dt` is drawn from the steps a
//! kinetic engine can get wrong — none, one ulp-ish, one period, a jump past
//! many events, a jump past the whole time wheel, and backwards. Every server
//! under test is compared, round for round, against a brute-force [`World`]
//! with the node store's exact staleness and removal rules — the one oracle
//! of every battery, for `evaluate`, `evaluate_uncertain` and `nearest` —
//! and, after every round, for which stripe owns which node
//! ([`assert_stripes`]).
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

/// The engine at the shard count of the CI matrix leg: the
/// `LIRA_TEST_SHARDS` environment variable, or `default_shards` when it
/// is unset or not a count.
pub fn unified_from_env(default_shards: usize) -> EvalEngine {
    let shards = std::env::var("LIRA_TEST_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(default_shards);
    EvalEngine::Unified { shards }
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
}

pub fn history(max: usize) -> impl Strategy<Value = Vec<Step>> {
    // Selector 0..20 — 9 parts report, 2 remove, 8 evaluate, 1 query
    // swap (the vendored proptest has no `prop_oneof`).
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
                18 => Step::ReplaceQueries,
                _ => Step::Eval { dt: DTS[dt] },
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

/// What is left of striping, held after an exact round at `t`: the
/// stripes tile the grid's `⌈4·√Q⌉` columns contiguously as `side·i/s`
/// (some own one column or none once `s` reaches `side`), and each owns
/// exactly the reported nodes whose predicted `x` falls in its columns —
/// a node's stripe is a pure function of `(Q, s, x)`.
pub fn assert_stripes(label: &str, server: &CqServer, world: &World, t: f64) {
    let stats = server.shard_stats();
    let s = stats.len();
    let side = ((4.0 * (server.queries().len() as f64).sqrt()).ceil() as usize).clamp(1, 256);
    let b = server.bounds();
    let mut per_col = vec![0usize; side];
    for n in 0..world.models.len() {
        if let Some(p) = world.predict(n, t) {
            let col = ((p.x - b.min.x) / b.width() * side as f64).floor();
            per_col[col.clamp(0.0, (side - 1) as f64) as usize] += 1;
        }
    }
    for (i, st) in stats.iter().enumerate() {
        let (lo, hi) = (side * i / s, side * (i + 1) / s);
        assert_eq!(st.columns, (lo, hi), "{label} stripe {i} of {s} t={t}");
        assert_eq!(
            st.nodes,
            per_col[lo..hi].iter().sum::<usize>(),
            "{label} stripe {i} of {s} occupancy t={t}"
        );
    }
    assert_eq!(
        stats.iter().map(|st| st.nodes).sum::<usize>(),
        world.reported_count(),
        "{label} owned nodes t={t}"
    );
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
/// result, its `k` nearest nodes to a lattice point that moves with the
/// round, and its stripes' occupancy equal the world's. Returns the
/// number of rounds compared.
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
                    assert_stripes(&s.label, &s.server, &world, t);
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
