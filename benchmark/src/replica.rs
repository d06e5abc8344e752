//! The traced run's in-process side. [`ReplicaLink`] replays a served
//! workload single-threaded through the public functions in the order
//! `server::serve` and `SessionCore` call them (`Frame::encode` →
//! `Decoder` → `note_frame` → `handle`), one span per call.
//! [`standalone`] feeds the same update stream to separate instances of
//! the layers `handle` fuses, to split its time.

use std::collections::VecDeque;
use std::hint::black_box;
use std::io;

use lira_core::geometry::Point;
use lira_core::plan::SheddingPlan;
use lira_core::policy::{LiraPolicy, SheddingPolicy};
use lira_core::stats_grid::StatsGrid;
use lira_core::throt_loop::{QueueObservation, ThrotLoop};
use lira_mobility::motion::DeadReckoner;
use lira_serve::protocol::{decode_plan, digest_round, plan_frame, Decoder, Frame, WireUpdate};
use lira_serve::session::{ServeConfig, SessionCore};
use lira_serve::slices::SliceTable;
use lira_server::cq_engine::{CqServer, EvalEngine};
use lira_server::query::{QueryResult, RangeQuery};
use lira_server::queue::UpdateQueue;

use crate::drive::{Gen, Link};
use crate::span::Tracer;
use crate::spec::ServeSpec;

/// A single-connection server in this process, spans around every call.
pub struct ReplicaLink {
    session: SessionCore,
    conn: u32,
    server_dec: Decoder,
    client_dec: Decoder,
    inbox: VecDeque<Frame>,
    subscribed: bool,
    tracer: Tracer,
}

impl ReplicaLink {
    /// A fresh session for `spec`, recording into `tracer`.
    pub fn new(spec: &ServeSpec, tracer: Tracer) -> Self {
        let mut session = SessionCore::new(spec.serve_config());
        let conn = session.open_conn();
        ReplicaLink {
            session,
            conn,
            server_dec: Decoder::new(),
            client_dec: Decoder::new(),
            inbox: VecDeque::new(),
            subscribed: false,
            tracer,
        }
    }

    /// The session's deterministic report core.
    pub fn deterministic_json(&self) -> String {
        self.session.deterministic_json()
    }

    /// Hands the tracer back.
    pub fn into_tracer(self) -> Tracer {
        self.tracer
    }
}

fn bad_data(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl Link for ReplicaLink {
    fn send(&mut self, frame: Frame) -> io::Result<()> {
        let tr = &mut self.tracer;
        tr.enter("serve.protocol.encode");
        let bytes = frame.encode();
        tr.exit();
        drop(frame);

        tr.enter("serve.protocol.decode");
        self.server_dec.push(&bytes);
        let frame = self.server_dec.next().map_err(bad_data)?;
        tr.exit();
        let frame = frame.expect("a whole frame was pushed");

        if let Frame::Hello { flags } = &frame {
            self.subscribed = flags & lira_serve::protocol::HELLO_SUBSCRIBE_PLANS != 0;
        }
        tr.enter(match &frame {
            Frame::Batch { .. } => "serve.session.batch",
            Frame::EvalReq { .. } => "serve.session.eval",
            Frame::WindowClose { .. } => "serve.session.window",
            _ => "serve.session.other",
        });
        self.session.note_frame(self.conn, &frame, bytes.len());
        let out = self.session.handle(self.conn, frame);
        tr.exit();

        tr.enter("serve.server.reply");
        let broadcast = if self.subscribed {
            out.broadcast
        } else {
            Vec::new()
        };
        for reply in out.replies.iter().chain(&broadcast) {
            self.client_dec.push(&reply.encode());
            let decoded = self.client_dec.next().map_err(bad_data)?;
            self.inbox
                .push_back(decoded.expect("a whole frame was pushed"));
        }
        tr.exit();
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Frame> {
        self.inbox.pop_front().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::WouldBlock,
                "no server frame pending (client expected one)",
            )
        })
    }

    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }
}

/// Standalone instances of the layers `SessionCore` fuses, configured as
/// the session configures its own.
struct Layers {
    cfg: ServeConfig,
    table: SliceTable,
    queues: Vec<UpdateQueue<(WireUpdate, f64)>>,
    server: CqServer,
    grid: StatsGrid,
    policy: LiraPolicy,
    throt: ThrotLoop,
    queries: Vec<RangeQuery>,
    /// The mobile side: the plan nodes look their threshold up in, and
    /// one dead reckoner per node.
    plan: SheddingPlan,
    reckoners: Vec<DeadReckoner>,
    results: Vec<QueryResult>,
    digest: u64,
}

impl Layers {
    fn new(spec: &ServeSpec, queries: Vec<RangeQuery>) -> Self {
        let cfg = spec.serve_config();
        let lira = cfg.lira_config();
        let per_shard = (cfg.queue_capacity / cfg.shards).max(1);
        let mut server = CqServer::new(cfg.bounds, cfg.num_nodes, cfg.index_side)
            .with_engine(EvalEngine::Unified { shards: cfg.shards });
        server.replace_queries(queries.iter().copied());
        let mut grid = StatsGrid::new(lira.alpha, cfg.bounds).expect("serve config validates");
        grid.begin_snapshot();
        Layers {
            table: SliceTable::new(cfg.slices, cfg.shards),
            queues: (0..cfg.shards)
                .map(|_| UpdateQueue::new(per_shard))
                .collect(),
            server,
            grid,
            policy: LiraPolicy::new(lira, cfg.queue_capacity.max(2))
                .expect("serve config validates"),
            throt: ThrotLoop::new(cfg.queue_capacity.max(2)).expect("capacity ≥ 2"),
            queries,
            plan: SheddingPlan::uniform(cfg.bounds, cfg.delta_min),
            reckoners: vec![DeadReckoner::new(); spec.nodes],
            results: Vec::new(),
            digest: 0,
            cfg,
        }
    }

    /// What `handle(Batch)` and `drain` do to one round's updates, layer
    /// by layer, then what the mobile side does before it reports them.
    /// `first` marks the priming pass, where every ingest is a node's
    /// first report.
    fn ingest(&mut self, tr: &mut Tracer, t: f64, updates: &[WireUpdate], first: bool) {
        tr.enter("serve.slices.route");
        let shards: Vec<u32> = updates
            .iter()
            .map(|u| self.table.assignments()[self.table.slice_of(u.id)])
            .collect();
        tr.exit();

        tr.enter("server.queue.offer");
        for (u, &shard) in updates.iter().zip(&shards) {
            black_box(self.queues[shard as usize].offer_at(0.0, (*u, t)));
        }
        tr.exit();

        tr.enter("server.queue.service");
        for q in &mut self.queues {
            let n = q.len();
            black_box(q.service_at(n));
        }
        tr.exit();

        tr.enter(if first {
            "server.cq_engine.ingest_first"
        } else {
            "server.cq_engine.ingest"
        });
        for u in updates {
            self.server
                .ingest(u.id, t, Point::new(u.x, u.y), (u.vx, u.vy));
        }
        tr.exit();

        tr.enter("core.stats_grid.observe");
        for u in updates {
            let speed = (u.vx * u.vx + u.vy * u.vy).sqrt();
            self.grid.observe_node(&Point::new(u.x, u.y), speed, 1.0);
        }
        tr.exit();

        tr.enter("core.plan.throttler_at");
        for u in updates {
            black_box(self.plan.throttler_at(&Point::new(u.x, u.y)));
        }
        tr.exit();

        tr.enter("mobility.motion.reckon");
        for u in updates {
            black_box(self.reckoners[u.id as usize].observe(
                u.id,
                t,
                Point::new(u.x, u.y),
                (u.vx, u.vy),
                self.cfg.delta_min,
            ));
        }
        tr.exit();
    }

    /// What `handle(WindowClose)` does after its drain, then the plan's
    /// trip to the mobile side.
    fn window(&mut self, tr: &mut Tracer, epoch: u64, t: f64, arrival_rate: f64) {
        tr.enter("core.throt_loop.observe");
        black_box(self.throt.observe(QueueObservation {
            arrival_rate,
            service_rate: self.cfg.service_rate,
        }));
        tr.exit();

        tr.enter("core.stats_grid.commit");
        for q in &self.queries {
            self.grid.observe_query(&q.range);
        }
        self.grid.commit_snapshot();
        tr.exit();

        // Shedding half the load, for contrast with the `z = 1` the
        // served run holds.
        tr.enter("core.policy.adapt_z05");
        black_box(self.policy.adapt(&self.grid, 0.5)).ok();
        tr.exit();

        tr.enter("core.policy.adapt_z1");
        let adapted = self.policy.adapt(&self.grid, 1.0);
        tr.exit();
        self.grid.begin_snapshot();

        let Ok(plan) = adapted else { return };
        tr.enter("serve.protocol.plan_encode");
        let bytes = plan_frame(&plan, epoch, t, self.cfg.delta_min).encode();
        tr.exit();
        black_box(bytes.len());

        let regions = plan.encode();
        tr.enter("core.plan.decode");
        let decoded = decode_plan(self.cfg.bounds, &regions, self.cfg.delta_min);
        tr.exit();
        self.plan = decoded.expect("an encoded plan decodes");
    }

    /// What `handle(EvalReq)` does after its drain, then the same `t`
    /// again: nothing moved, so the second call is the dirty round
    /// `BENCH_eval.json` reports, which no served round pays.
    fn eval(&mut self, tr: &mut Tracer, t: f64) {
        tr.enter("server.cq_engine.evaluate");
        self.server.evaluate_into(t, &mut self.results);
        tr.exit();

        tr.enter("serve.protocol.digest");
        self.digest = digest_round(self.digest, t, &self.results);
        tr.exit();

        tr.enter("server.cq_engine.evaluate_dirty");
        self.server.evaluate_into(t, &mut self.results);
        tr.exit();
    }
}

/// Replays `rounds` rounds of `spec` under `seed` through standalone
/// instances of the layers the session fuses, one span per call at
/// batch granularity; returns the rolling digest they arrive at, which
/// must be the session's.
pub fn standalone(spec: &ServeSpec, seed: u64, rounds: usize, tr: &mut Tracer) -> u64 {
    let mut gen = Gen::new(spec, seed);
    let mut layers = Layers::new(spec, gen.queries.iter().map(|q| q.to_query()).collect());
    tr.set_round(0);
    layers.ingest(tr, 0.0, &gen.prime(), true);
    layers.window(tr, 0, 0.0, spec.offered_rate());
    // Set-up's warm-up cycle keeps its windows and ends with the one
    // evaluation; round ids count from the first measured round.
    let warmup = spec.warmup_rounds();
    let mut t = 0.0;
    for r in 1..=warmup {
        let (now, updates) = gen.step();
        t = now;
        layers.ingest(tr, t, &updates, false);
        if r % spec.window_every == 0 {
            layers.window(tr, r as u64, t, spec.offered_rate());
        }
    }
    layers.eval(tr, t);
    for r in 1..=rounds {
        tr.set_round(r);
        let (t, updates) = gen.step();
        layers.ingest(tr, t, &updates, false);
        if r % spec.window_every == 0 {
            layers.window(tr, (warmup + r) as u64, t, spec.offered_rate());
        }
        if r % spec.eval_every == 0 {
            layers.eval(tr, t);
        }
    }
    layers.digest
}
