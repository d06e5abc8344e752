//! The transport-agnostic session core: everything `lira-serve` does
//! *between* the socket and the engine. One [`SessionCore`] owns the CQ
//! server, the [`Governor`] (the one bounded input queue — an admission
//! ledger: the engine ingests an update when it is admitted — and the
//! THROTLOOP controller over it), the statistics grid and the LIRA
//! shedder — and turns incoming [`Frame`]s into reply/broadcast frames.
//!
//! Splitting the core from the socket loop is what makes the acceptance
//! criterion *testable*: the TCP transport and the in-process transport
//! feed the identical frame stream to the identical core, so the
//! deterministic report produced over loopback is bit-identical to the
//! in-process one by construction — and the loopback test asserts it.
//!
//! Determinism contract: every field of the deterministic report is a
//! pure function of the frame sequence. Wall-clock only feeds the
//! latency *histograms* (telemetry), never the report core.

use std::time::Instant;

use lira_core::config::LiraConfig;
use lira_core::error::LiraError;
use lira_core::geometry::{Point, Rect};
use lira_core::plan::SheddingPlan;
use lira_core::policy::{Policy, SheddingPolicy};
use lira_core::reduction::ReductionModel;
use lira_core::stats_grid::StatsGrid;
use lira_core::telemetry::json::Json;
use lira_core::telemetry::{Histogram, MetricSpec, TelemetrySnapshot, WindowRing};
use lira_server::cq_engine::CqServer;
use lira_server::governor::Governor;

use crate::protocol::{self, kind, Frame, WireUpdate};

/// Configuration of one serving session (CLI flags map onto this 1:1;
/// see `docs/OPERATIONS.md`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Monitored space (must be square — LIRA's grids require it).
    pub bounds: Rect,
    /// Node-id capacity of the engine: the node store is sized to this
    /// once, and a `Batch` naming an id ≥ this is rejected whole.
    pub num_nodes: usize,
    /// Must be 1, its default: the engine evaluates one stripe, on the
    /// session's thread ([`Self::validate`] refuses any other count).
    /// The field survives only because the frozen `benchmark/` crate
    /// assigns it (ROADMAP item 11(a)).
    pub shards: usize,
    /// Ignored, like `index_side`: it sized the slice table that routed
    /// updates to per-shard queues, which are gone (the session has one
    /// admission ledger). The field survives only because the frozen
    /// `benchmark/` crate reads it (ROADMAP item 11).
    pub slices: usize,
    /// Bounded input-queue capacity `B`: one admission ledger of `B`
    /// slots, `2 × num_nodes` (at least 64) by default, so a client that
    /// primes the whole fleet and then re-reports it before its first
    /// drain point is not tail-dropped.
    pub queue_capacity: usize,
    /// Provisioned service rate µ in updates/sec — the capacity THROTLOOP
    /// steers arrivals toward.
    pub service_rate: f64,
    /// Run a plan adaptation every this many closed windows.
    pub adapt_every_windows: u32,
    /// Ignored: it sized the server's second spatial index, which is
    /// gone. The field survives only because the frozen `benchmark/`
    /// crate reads it — to be dropped by the next `benchmark` PR
    /// (ROADMAP item 11).
    pub index_side: usize,
    /// LIRA region budget `l` (`l mod 3 == 1`).
    pub num_regions: usize,
    /// Minimum inaccuracy threshold Δ_min (m) — also the plan default.
    pub delta_min: f64,
    /// Maximum inaccuracy threshold Δ_max (m).
    pub delta_max: f64,
    /// Ignored, like `index_side`: it switched on load-aware striping
    /// and automatic slice moves, which are gone (DESIGN.md §12), and
    /// survives only because the frozen `benchmark/` crate assigns it —
    /// to be dropped by the next `benchmark` PR (ROADMAP item 11).
    pub rebalance: bool,
    /// The shedding policy behind the plan broadcasts (CLI `--policy`;
    /// LIRA by default). Must be source-actuated ([`Self::validate`]
    /// refuses a policy that sheds at the server); every such policy
    /// emits ordinary [`SheddingPlan`]s over the unchanged 16 B/region
    /// wire format.
    pub policy: Policy,
}

impl ServeConfig {
    /// A session over a `space_m`-sided square with Table-2-style
    /// defaults scaled to `num_nodes`.
    pub fn new(space_m: f64, num_nodes: usize) -> Self {
        ServeConfig {
            bounds: Rect::from_coords(0.0, 0.0, space_m, space_m),
            num_nodes,
            shards: 1,
            slices: 64,
            queue_capacity: (2 * num_nodes).max(64),
            service_rate: (num_nodes as f64).max(1000.0),
            adapt_every_windows: 1,
            index_side: 64,
            num_regions: 250,
            delta_min: 5.0,
            delta_max: 100.0,
            rebalance: false,
            policy: Policy::default(),
        }
    }

    /// The LIRA shedder configuration this session derives.
    pub fn lira_config(&self) -> LiraConfig {
        let mut c = LiraConfig {
            bounds: self.bounds,
            num_regions: self.num_regions,
            delta_min: self.delta_min,
            delta_max: self.delta_max,
            ..LiraConfig::default()
        };
        c.alpha = LiraConfig::alpha_for(c.num_regions, 2.0);
        c
    }

    /// Says why no session can run under this configuration: no node
    /// capacity (every `Batch` would name an id past it), a shard
    /// count other than one, a queue capacity `B` more
    /// than `Welcome` can advertise, whatever [`Governor::check`]
    /// refuses (fewer than THROTLOOP's two slots, a service rate it
    /// cannot divide by), a LIRA configuration that does not validate,
    /// or a policy that sheds at the server. The binary checks before
    /// it binds; [`SessionCore::new`] panics on a refusal.
    pub fn validate(&self) -> Result<(), String> {
        self.checked_policy().map(drop)
    }

    /// Makes [`Self::validate`]'s checks and builds the shedding policy,
    /// once: the build holds the reduction model's O(κ²) secant table.
    fn checked_policy(&self) -> Result<Box<dyn SheddingPolicy>, String> {
        if self.num_nodes < 1 {
            return Err("nodes must be at least 1 (every Batch id must be below it)".into());
        }
        if self.shards != 1 {
            return Err(format!(
                "shards must be 1 (the engine evaluates one stripe), got {}",
                self.shards
            ));
        }
        if self.queue_capacity > u32::MAX as usize {
            return Err(format!(
                "queue capacity must be at most {} (the Welcome frame's u32), got {}",
                u32::MAX,
                self.queue_capacity
            ));
        }
        Governor::<()>::check(self.queue_capacity, self.service_rate)?;
        self.shedding_policy()
    }

    /// Builds the configured shedding policy, or says why this session
    /// cannot run it: the LIRA configuration must validate, and the
    /// policy must admit every arrival (the serving path has no
    /// server-side drop stage, which rules out Random Drop).
    pub(crate) fn shedding_policy(&self) -> Result<Box<dyn SheddingPolicy>, String> {
        let lira = self.lira_config();
        // The bare reason: the binary prefixes "invalid configuration".
        lira.validate().map_err(|e| match e {
            LiraError::InvalidConfig(why) => why,
            other => other.to_string(),
        })?;
        let model = ReductionModel::analytic(self.delta_min, self.delta_max, lira.kappa());
        let policy = self.policy.build(&lira, &model);
        if policy.admission(0.5) < 1.0 {
            return Err(format!(
                "policy {} sheds at the server; lira-serve runs source-actuated policies only",
                self.policy.flag()
            ));
        }
        Ok(policy)
    }
}

/// Per-connection counters, surfaced in the session report and summed
/// into the telemetry's `serve.rx.frames` and `serve.rx.bytes`.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ConnStats {
    /// Session id assigned at `Hello` (connection ordinal).
    pub id: u32,
    /// Frames received from this connection.
    pub frames: u64,
    /// Wire bytes received from this connection (headers included).
    pub bytes: u64,
    /// Position updates received from this connection.
    pub updates: u64,
    /// Batch frames received from this connection.
    pub batches: u64,
    /// Protocol/semantic errors charged to this connection.
    pub errors: u64,
}

const RX_FRAMES: MetricSpec = MetricSpec::new("serve.rx.frames", "serve", "frames");
const RX_BYTES: MetricSpec = MetricSpec::new("serve.rx.bytes", "serve", "bytes");
const RX_UPDATES: MetricSpec = MetricSpec::new("serve.rx.updates", "serve", "updates");
const QUEUE_ADMITTED: MetricSpec = MetricSpec::new("serve.queue.admitted", "serve", "updates");
const QUEUE_DROPPED: MetricSpec = MetricSpec::new("serve.queue.dropped", "serve", "updates");
const PLAN_BROADCASTS: MetricSpec = MetricSpec::new("serve.plan.broadcasts", "serve", "frames");
const PLAN_BYTES: MetricSpec = MetricSpec::new("serve.plan.bytes", "serve", "bytes");
const PROTOCOL_ERRORS: MetricSpec = MetricSpec::new("serve.protocol.errors", "serve", "errors");
const QUEUE_WAIT_US: MetricSpec = MetricSpec::new("serve.queue.wait_us", "serve", "us");
const EVAL_ROUND_US: MetricSpec = MetricSpec::new("serve.eval.round_us", "serve", "us");
const EVAL_STEPPED: MetricSpec = MetricSpec::new("serve.eval.stepped_nodes", "serve", "nodes");
const ADAPT_US: MetricSpec = MetricSpec::new("serve.adapt.us", "serve", "us");
const BATCH_UPDATES: MetricSpec = MetricSpec::new("serve.rx.batch_updates", "serve", "updates");

/// The distributions the session records (component `serve`); its
/// counts are read off the session's own books when a snapshot is
/// taken. All names are listed in `docs/TELEMETRY.md`.
#[derive(Default)]
struct ServeTelemetry {
    queue_wait_us: Histogram,
    eval_us: Histogram,
    eval_stepped: Histogram,
    adapt_us: Histogram,
    batch_updates: Histogram,
}

/// What [`SessionCore::handle`] produced: frames to send back to the
/// originating connection, and frames to broadcast to every
/// plan-subscribed connection (the originator included, if subscribed).
#[derive(Debug, Default)]
pub struct Output {
    /// Replies to the originating connection, in order.
    pub replies: Vec<Frame>,
    /// Broadcast frames for all subscribed connections.
    pub broadcast: Vec<Frame>,
}

/// The session core. See the module docs for the determinism contract.
pub struct SessionCore {
    cfg: ServeConfig,
    server: CqServer,
    /// The admission ledger (capacity, tail drop, depth, λ and wait) and
    /// THROTLOOP over it. An admitted update is already in the engine;
    /// its slot only holds the wall time it was admitted at.
    governor: Governor<()>,
    grid: StatsGrid,
    policy: Box<dyn SheddingPolicy>,
    plan: SheddingPlan,
    plan_epoch: u64,
    eval_rounds: u64,
    digest: u64,
    last_results: u64,
    batches_rx: u64,
    plan_broadcasts: u64,
    plan_bytes: u64,
    conns: Vec<ConnStats>,
    tel: ServeTelemetry,
    /// The newest THROTLOOP decisions, one per acknowledged window.
    windows: WindowRing,
    started: Instant,
}

impl SessionCore {
    /// Builds a session core. Panics on invalid configuration (the
    /// binaries validate flags first; tests construct valid configs).
    pub fn new(cfg: ServeConfig) -> Self {
        let policy = cfg.checked_policy().expect("valid serve config");
        let lira = cfg.lira_config();
        let server = CqServer::new(cfg.bounds, cfg.num_nodes, cfg.index_side);
        let mut grid = StatsGrid::new(lira.alpha, cfg.bounds).expect("alpha/bounds validated");
        grid.begin_snapshot();
        SessionCore {
            governor: Governor::new(
                cfg.queue_capacity,
                cfg.service_rate,
                cfg.adapt_every_windows,
            )
            .expect("validated above"),
            grid,
            policy,
            plan: SheddingPlan::uniform(cfg.bounds, cfg.delta_min),
            plan_epoch: 0,
            eval_rounds: 0,
            digest: 0,
            last_results: 0,
            batches_rx: 0,
            plan_broadcasts: 0,
            plan_bytes: 0,
            conns: Vec::new(),
            tel: ServeTelemetry::default(),
            windows: WindowRing::default(),
            server,
            started: Instant::now(),
            cfg,
        }
    }

    /// The current shedding plan.
    pub fn plan(&self) -> &SheddingPlan {
        &self.plan
    }

    /// Total protocol errors charged so far (wire violations + semantic
    /// rejections), summed over the connection books.
    pub fn protocol_errors(&self) -> u64 {
        self.conns.iter().map(|c| c.errors).sum()
    }

    /// A snapshot of the session's telemetry (component `serve`; plain
    /// data, safe to ship across threads): its histograms and windows,
    /// and the counts the connection books, the admission ledger and the
    /// session keep for the report. Harnesses read service-latency
    /// percentiles from the `serve.queue.wait_us` histogram here.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let g = &self.governor;
        let counters = [
            (RX_FRAMES, self.conns.iter().map(|c| c.frames).sum()),
            (RX_BYTES, self.conns.iter().map(|c| c.bytes).sum()),
            (RX_UPDATES, g.arrived()),
            (QUEUE_ADMITTED, g.admitted()),
            (QUEUE_DROPPED, g.dropped()),
            (PLAN_BROADCASTS, self.plan_broadcasts),
            (PLAN_BYTES, self.plan_bytes),
            (PROTOCOL_ERRORS, self.protocol_errors()),
        ];
        let t = &self.tel;
        let histograms = [
            (QUEUE_WAIT_US, &t.queue_wait_us),
            (EVAL_ROUND_US, &t.eval_us),
            (EVAL_STEPPED, &t.eval_stepped),
            (ADAPT_US, &t.adapt_us),
            (BATCH_UPDATES, &t.batch_updates),
        ];
        TelemetrySnapshot::from_entries("serve", &counters, &[], &histograms, &self.windows)
    }

    /// Registers a new connection; returns its session id.
    pub fn open_conn(&mut self) -> u32 {
        let id = self.conns.len() as u32;
        self.conns.push(ConnStats {
            id,
            ..ConnStats::default()
        });
        id
    }

    /// Charges one received frame to a connection's counters. The
    /// transport calls this for every frame *before* [`Self::handle`];
    /// `wire_len` is the full frame length including the header.
    pub fn note_frame(&mut self, conn: u32, frame: &Frame, wire_len: usize) {
        let c = &mut self.conns[conn as usize];
        c.frames += 1;
        c.bytes += wire_len as u64;
        if let Frame::Batch { updates, .. } = frame {
            c.batches += 1;
            c.updates += updates.len() as u64;
        }
    }

    /// Charges a wire-protocol violation (undecodable bytes) to a
    /// connection. The transport closes the connection afterwards.
    pub(crate) fn note_protocol_error(&mut self, conn: u32) {
        self.conns[conn as usize].errors += 1;
    }

    /// Seconds of wall clock since the session started (feeds latency
    /// histograms only — never the deterministic report).
    fn wall(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Processes one client frame and returns the frames it produced.
    pub fn handle(&mut self, conn: u32, frame: Frame) -> Output {
        let mut out = Output::default();
        match frame {
            Frame::Hello { .. } => {
                out.replies.push(Frame::Welcome {
                    session: conn,
                    slices: 1,
                    shards: 1,
                    queue_capacity: self.cfg.queue_capacity as u32,
                    default_delta: self.cfg.delta_min,
                    bounds: [
                        self.cfg.bounds.min.x,
                        self.cfg.bounds.min.y,
                        self.cfg.bounds.max.x,
                        self.cfg.bounds.max.y,
                    ],
                });
            }
            Frame::Register { queries } => {
                // A query must be finite with `min ≤ max` on both axes
                // (zero width is legal): a NaN or inverted rectangle
                // matches nothing and trips `Rect::new`'s debug
                // assertion, and none of them may reach the engine's
                // index or `StatsGrid::observe_query`. The frame is
                // accepted or refused whole.
                let bad = queries.iter().find(|q| {
                    let corners = [q.min_x, q.min_y, q.max_x, q.max_y];
                    !corners.iter().all(|v| v.is_finite()) || q.min_x > q.max_x || q.min_y > q.max_y
                });
                if let Some(q) = bad {
                    let why = format!(
                        "query {}: corners must be finite with min ≤ max, got ({}, {})–({}, {})",
                        q.id, q.min_x, q.min_y, q.max_x, q.max_y
                    );
                    out.replies
                        .push(self.reject(conn, protocol::ERR_INVALID, why));
                    return out;
                }
                self.server
                    .replace_queries(queries.iter().map(|q| q.to_query()));
                out.replies.push(Frame::Ack { of: kind::REGISTER });
            }
            Frame::Batch { t, updates } => {
                // The engine indexes its node store by id, keeps NaN as
                // the never-reported time, and predicts, places and
                // schedules a node from its coordinates, so none of
                // these may get past here; a frame is accepted or
                // refused whole.
                let finite = |u: &WireUpdate| [u.x, u.y, u.vx, u.vy].iter().all(|v| v.is_finite());
                let capacity = self.cfg.num_nodes;
                let bad = updates
                    .iter()
                    .find(|u| u.id as usize >= capacity || !finite(u));
                let why = if !t.is_finite() {
                    Some(format!("batch time must be finite, got {t}"))
                } else {
                    bad.map(|u| {
                        if u.id as usize >= capacity {
                            format!("node id {} ≥ capacity {capacity}", u.id)
                        } else {
                            format!("node {}: position and velocity must be finite", u.id)
                        }
                    })
                };
                if let Some(why) = why {
                    out.replies
                        .push(self.reject(conn, protocol::ERR_INVALID, why));
                    return out;
                }
                self.batches_rx += 1;
                self.tel.batch_updates.record(updates.len() as u64);
                // Ingest on admission: the ledger decides, and an admitted
                // update goes straight into the engine and the stats
                // grid, in arrival order.
                let wall = self.wall();
                for u in updates {
                    if self.governor.offer_at(wall, ()) {
                        let origin = Point::new(u.x, u.y);
                        let speed = (u.vx * u.vx + u.vy * u.vy).sqrt();
                        self.server.ingest(u.id, t, origin, (u.vx, u.vy));
                        self.grid.observe_node(&origin, speed, 1.0);
                    }
                }
            }
            Frame::EvalReq { t } => {
                // A non-finite `t` would place every node at a NaN
                // position and fold the result into the digest. A finite
                // `t` below the last one is legal (the engine sweeps).
                if !t.is_finite() {
                    out.replies.push(self.reject(
                        conn,
                        protocol::ERR_INVALID,
                        format!("evaluation time must be finite, got {t}"),
                    ));
                    return out;
                }
                self.drain();
                let t0 = Instant::now();
                let stepped = self.server.stepped_nodes();
                // The engine folds the round into the digest as it
                // writes its member lists: nothing is copied out just to
                // be hashed.
                self.digest = self.server.evaluate_digest(t, self.digest);
                self.last_results = self.server.queries().len() as u64;
                self.tel
                    .eval_stepped
                    .record(self.server.stepped_nodes() - stepped);
                self.eval_rounds += 1;
                self.tel.eval_us.record(t0.elapsed().as_micros() as u64);
                out.replies.push(Frame::EvalRes {
                    t,
                    round: self.eval_rounds,
                    results: self.last_results,
                    digest: self.digest,
                });
            }
            Frame::WindowClose { t, window_s } => {
                if !(t.is_finite() && window_s.is_finite() && window_s > 0.0) {
                    out.replies.push(self.reject(
                        conn,
                        protocol::ERR_INVALID,
                        format!(
                            "t must be finite and window_s positive and finite, got {t}, {window_s}"
                        ),
                    ));
                    return out;
                }
                let decision = self.governor.close_window(t, window_s);
                self.drain();
                self.windows.push(&decision);
                let mut adapted = 0u8;
                if decision.adapt_due {
                    let t0 = Instant::now();
                    for q in self.server.queries() {
                        self.grid.observe_query(&q.range);
                    }
                    self.grid.commit_snapshot();
                    match self.policy.adapt(&self.grid, decision.throttle) {
                        Ok(plan) => {
                            self.plan = plan;
                            self.plan_epoch += 1;
                            adapted = 1;
                            let frame = protocol::plan_frame(
                                &self.plan,
                                self.plan_epoch,
                                t,
                                self.cfg.delta_min,
                            );
                            let bytes = frame.encode().len() as u64;
                            self.plan_broadcasts += 1;
                            self.plan_bytes += bytes;
                            out.broadcast.push(frame);
                        }
                        Err(_) => {
                            // Degenerate snapshot (e.g. all mass in one
                            // cell): keep the previous plan, stay alive.
                        }
                    }
                    self.grid.begin_snapshot();
                    self.tel.adapt_us.record(t0.elapsed().as_micros() as u64);
                }
                out.replies.push(Frame::WindowAck {
                    t,
                    z: decision.throttle,
                    lambda: decision.arrival_rate,
                    mu: decision.service_rate,
                    depth: decision.queue_len as u64,
                    dropped: self.governor.dropped(),
                    adapted,
                });
            }
            // A no-op, kept on the wire until the next version: there is
            // one admission ledger and nothing left to route.
            Frame::SetSlice { .. } => out.replies.push(Frame::Ack {
                of: kind::SET_SLICE,
            }),
            Frame::ReportReq => {
                self.drain();
                out.replies.push(Frame::ReportRes {
                    json: self.report_json(),
                });
            }
            Frame::Bye => {
                // The transport closes the connection after flushing.
            }
            // Server-bound connections must never send server→client kinds.
            Frame::Welcome { .. }
            | Frame::EvalRes { .. }
            | Frame::WindowAck { .. }
            | Frame::Plan { .. }
            | Frame::Ack { .. }
            | Frame::ReportRes { .. }
            | Frame::Error { .. } => {
                out.replies.push(self.reject(
                    conn,
                    protocol::ERR_UNEXPECTED,
                    format!("kind {} is server→client only", frame.kind()),
                ));
            }
        }
        out
    }

    /// Builds an `Error` reply and charges it to the connection.
    fn reject(&mut self, conn: u32, code: u16, message: String) -> Frame {
        self.conns[conn as usize].errors += 1;
        Frame::Error { code, message }
    }

    /// Services the ledger: the books only, since `Batch` already put
    /// each admitted update into the engine and the stats grid. Called
    /// at the drain points (`EvalReq`, `WindowClose`, `ReportReq`), which
    /// empty the ledger so that `WindowAck.depth` is the count admitted
    /// since the previous drain point — and so that the governor's
    /// "admitted since the last re-plan" is what the re-plan's statistics
    /// grid has seen.
    ///
    /// The ledger is walked by run, not by update: a `Batch`'s updates
    /// share the one wall-clock read that stamped their offers, so each
    /// run of equal offer times is one wait, recorded once, and the
    /// dequeue that follows takes the whole ledger without visiting a
    /// slot.
    fn drain(&mut self) {
        let wall = self.wall();
        for (offered, count) in self.governor.runs() {
            let wait = ((wall - offered).max(0.0) * 1e6) as u64;
            self.tel.queue_wait_us.record_n(wait, count as u64);
        }
        drop(self.governor.service_at(usize::MAX));
    }

    /// The deterministic report core: a pure function of the frame
    /// sequence, compared bit-for-bit between wire and in-process runs.
    pub fn deterministic_json(&self) -> String {
        let conns = self
            .conns
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("id".into(), Json::UInt(c.id as u64)),
                    ("frames".into(), Json::UInt(c.frames)),
                    ("bytes".into(), Json::UInt(c.bytes)),
                    ("updates".into(), Json::UInt(c.updates)),
                    ("batches".into(), Json::UInt(c.batches)),
                    ("errors".into(), Json::UInt(c.errors)),
                ])
            })
            .collect();
        Json::Obj(vec![
            (
                "protocol_version".into(),
                Json::UInt(protocol::VERSION as u64),
            ),
            ("shards".into(), Json::UInt(1)),
            (
                "queue_capacity".into(),
                Json::UInt(self.cfg.queue_capacity as u64),
            ),
            (
                "frames_rx".into(),
                Json::UInt(self.conns.iter().map(|c| c.frames).sum()),
            ),
            ("batches_rx".into(), Json::UInt(self.batches_rx)),
            ("updates_rx".into(), Json::UInt(self.governor.arrived())),
            (
                "updates_admitted".into(),
                Json::UInt(self.governor.admitted()),
            ),
            (
                "updates_dropped".into(),
                Json::UInt(self.governor.dropped()),
            ),
            ("eval_rounds".into(), Json::UInt(self.eval_rounds)),
            ("last_results".into(), Json::UInt(self.last_results)),
            ("digest".into(), Json::Str(format!("{:016x}", self.digest))),
            ("windows".into(), Json::UInt(self.governor.windows())),
            ("z".into(), Json::Float(self.governor.throttle())),
            ("plan_epoch".into(), Json::UInt(self.plan_epoch)),
            ("plan_broadcasts".into(), Json::UInt(self.plan_broadcasts)),
            ("plan_bytes".into(), Json::UInt(self.plan_bytes)),
            ("plan_regions".into(), Json::UInt(self.plan.len() as u64)),
            (
                "registered_queries".into(),
                Json::UInt(self.server.queries().len() as u64),
            ),
            ("protocol_errors".into(), Json::UInt(self.protocol_errors())),
            ("connections".into(), Json::Arr(conns)),
        ])
        .to_string()
    }

    /// The full session report: the deterministic core plus the telemetry
    /// snapshot (whose wall-clock histograms are *not* deterministic).
    pub fn report_json(&self) -> String {
        let core = Json::parse(&self.deterministic_json()).expect("own JSON parses");
        let snapshot = self.telemetry_snapshot();
        let tel = Json::parse(&snapshot.to_json()).expect("snapshot JSON parses");
        Json::Obj(vec![
            ("deterministic".into(), core),
            ("telemetry".into(), tel),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lira_server::query::RangeQuery;

    fn tiny() -> SessionCore {
        let mut cfg = ServeConfig::new(1000.0, 100);
        cfg.queue_capacity = 64;
        cfg.service_rate = 50.0;
        SessionCore::new(cfg)
    }

    fn upd(id: u32, x: f64, y: f64) -> WireUpdate {
        WireUpdate {
            id,
            x,
            y,
            vx: 1.0,
            vy: 0.0,
        }
    }

    /// Each registered query's members in a round of the session's
    /// engine at `t`.
    fn members_at(s: &mut SessionCore, t: f64) -> Vec<Vec<u32>> {
        let mut results = Vec::new();
        s.server.evaluate_into(t, &mut results);
        results.into_iter().map(|r| r.nodes).collect()
    }

    #[test]
    fn hello_register_batch_eval_flow() {
        let mut s = tiny();
        let conn = s.open_conn();
        let out = s.handle(conn, Frame::Hello { flags: 1 });
        assert!(matches!(
            out.replies[0],
            Frame::Welcome {
                session: 0,
                slices: 1,
                ..
            }
        ));

        let out = s.handle(
            conn,
            Frame::Register {
                queries: vec![crate::protocol::WireQuery {
                    id: 0,
                    min_x: 0.0,
                    min_y: 0.0,
                    max_x: 500.0,
                    max_y: 500.0,
                }],
            },
        );
        assert_eq!(out.replies, vec![Frame::Ack { of: kind::REGISTER }]);

        s.handle(
            conn,
            Frame::Batch {
                t: 0.0,
                updates: vec![upd(1, 100.0, 100.0), upd(2, 900.0, 900.0)],
            },
        );
        let out = s.handle(conn, Frame::EvalReq { t: 0.0 });
        match &out.replies[0] {
            Frame::EvalRes { round, results, .. } => {
                assert_eq!(*round, 1);
                assert_eq!(*results, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Node 1 is inside the query, node 2 outside.
        assert_eq!(s.server.evaluate(0.0)[0].nodes, vec![1]);
    }

    #[test]
    fn validate_refuses_a_session_with_no_nodes() {
        // Every id is at least a capacity of 0, so such a server would
        // answer each `Batch` with a protocol error.
        let why = ServeConfig::new(1000.0, 0)
            .validate()
            .expect_err("no nodes");
        assert!(why.contains("nodes must be at least 1"), "{why}");
        assert_eq!(ServeConfig::new(1000.0, 1).validate(), Ok(()));
    }

    #[test]
    fn a_refused_lira_configuration_is_not_prefixed_twice() {
        // The binary prints "invalid configuration: " before the reason,
        // so the reason must not carry `LiraError`'s own prefix.
        let mut cfg = ServeConfig::new(1000.0, 100);
        cfg.num_regions = 5;
        let why = cfg.validate().expect_err("l = 5");
        assert!(why.contains("l mod 3"), "{why}");
        assert!(!why.contains("invalid configuration"), "{why}");
    }

    #[test]
    fn validate_refuses_what_a_session_cannot_run() {
        let base = || ServeConfig::new(1000.0, 100);
        assert_eq!(base().validate(), Ok(()));
        let refused = |edit: fn(&mut ServeConfig), needle: &str| {
            let mut cfg = base();
            edit(&mut cfg);
            let why = cfg.validate().expect_err(needle);
            assert!(why.contains(needle), "{why:?} should mention {needle:?}");
        };
        // The engine evaluates one stripe: `Welcome` and the report
        // would name a count it does not run.
        refused(|c| c.shards = 0, "one stripe");
        refused(|c| c.shards = 2, "one stripe");
        refused(|c| c.service_rate = 0.0, "service rate");
        refused(|c| c.service_rate = -5.0, "service rate");
        refused(|c| c.service_rate = f64::NAN, "service rate");
        refused(|c| c.service_rate = f64::INFINITY, "service rate");
        // A `B` the session would not honour as advertised: fewer than
        // THROTLOOP's two slots, or more than a u32.
        refused(|c| c.queue_capacity = 0, "queue capacity");
        refused(|c| c.queue_capacity = 1, "two for THROTLOOP");
        refused(|c| c.queue_capacity = u32::MAX as usize + 1, "u32");
        let edge = |queue_capacity| ServeConfig {
            queue_capacity,
            ..base()
        };
        assert_eq!(edge(2).validate(), Ok(()));
        assert_eq!(edge(u32::MAX as usize).validate(), Ok(()));
        // The slice count routes nothing any more, so it is not checked.
        assert_eq!(
            ServeConfig {
                slices: 0,
                ..base()
            }
            .validate(),
            Ok(())
        );
        // What `shedding_policy` already refused is refused here too.
        refused(|c| c.policy = Policy::RandomDrop, "sheds at the server");
        refused(|c| c.num_regions = 251, "l mod 3");
        refused(|c| c.num_regions = 0, "l mod 3");
        refused(|c| c.bounds.max = c.bounds.min, "positive area");
        refused(
            |c| c.bounds.max = Point::new(f64::INFINITY, f64::INFINITY),
            "finite",
        );
        // `--space 1e308`: a finite side whose area overflows. The session
        // started, and GREEDYINCREMENT panicked ("NaN is not orderable")
        // on its first adapting window. The largest side with a finite
        // area still runs.
        refused(|c| c.bounds.max = Point::new(1e308, 1e308), "finite area");
        refused(|c| c.bounds.max = Point::new(1e160, 1e160), "finite area");
        assert_eq!(ServeConfig::new(1.3e154, 100).validate(), Ok(()));
    }

    /// The two edge values OPERATIONS.md gives a meaning: `--adapt-every
    /// 0` never re-plans (THROTLOOP still steps `z`), and `--regions 1`
    /// plans one region, a uniform Δ.
    #[test]
    fn adapt_every_zero_never_replans_and_one_region_plans_one() {
        for (adapt_every_windows, num_regions) in [(0, 250), (1, 1)] {
            let mut cfg = ServeConfig::new(1000.0, 100);
            (cfg.adapt_every_windows, cfg.num_regions) = (adapt_every_windows, num_regions);
            cfg.service_rate = 50.0;
            assert_eq!(cfg.validate(), Ok(()));
            let mut s = SessionCore::new(cfg);
            let conn = s.open_conn();
            for w in 0..3 {
                let t = w as f64 + 1.0;
                let updates = (0..100)
                    .map(|i| {
                        upd(
                            i,
                            (i % 10) as f64 * 100.0 + 5.0,
                            (i / 10) as f64 * 100.0 + 5.0,
                        )
                    })
                    .collect();
                s.handle(conn, Frame::Batch { t, updates });
                let out = s.handle(conn, Frame::WindowClose { t, window_s: 1.0 });
                let Frame::WindowAck { z, adapted, .. } = out.replies[0] else {
                    panic!("unexpected {:?}", out.replies[0]);
                };
                assert!(z < 1.0, "λ = 100/s against µ = 50/s must throttle");
                assert_eq!(adapted == 1, adapt_every_windows > 0);
                assert_eq!(out.broadcast.len(), usize::from(adapted));
            }
            assert_eq!(s.plan().len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "the engine evaluates one stripe")]
    fn a_session_over_zero_shards_is_refused_at_construction() {
        let mut cfg = ServeConfig::new(1000.0, 100);
        cfg.shards = 0;
        SessionCore::new(cfg);
    }

    /// The largest `B` `validate` accepts runs: the ledger reserves
    /// nothing, so a `B` of `u32::MAX` slots costs what it queues.
    #[test]
    fn a_session_at_the_largest_queue_capacity_starts_and_admits() {
        let mut cfg = ServeConfig::new(1000.0, 100);
        cfg.queue_capacity = u32::MAX as usize;
        assert_eq!(cfg.validate(), Ok(()));
        let mut s = SessionCore::new(cfg);
        let conn = s.open_conn();
        let out = s.handle(conn, Frame::Hello { flags: 0 });
        assert!(matches!(
            out.replies[..],
            [Frame::Welcome {
                queue_capacity: u32::MAX,
                ..
            }]
        ));
        s.handle(
            conn,
            Frame::Batch {
                t: 0.0,
                updates: vec![upd(1, 100.0, 100.0), upd(2, 900.0, 900.0)],
            },
        );
        assert_eq!(
            (
                s.governor.admitted(),
                s.governor.dropped(),
                s.governor.depth()
            ),
            (2, 0, 2)
        );
        let out = s.handle(conn, Frame::EvalReq { t: 0.0 });
        assert!(matches!(out.replies[..], [Frame::EvalRes { round: 1, .. }]));
        assert_eq!(s.governor.depth(), 0, "the drain point emptied the ledger");
    }

    /// The out-of-bounds contract (docs/WIRE.md, OPERATIONS.md §5): a
    /// finite position outside `bounds` is admitted with its frame, sits
    /// in a border cell of the engine's grid and the stats grid, and
    /// matches only the queries that geometrically contain it — so no
    /// in-bounds query.
    #[test]
    fn a_finite_out_of_bounds_position_is_admitted_and_matches_no_in_bounds_query() {
        let mut s = tiny(); // 1 km², 100 nodes
        let conn = s.open_conn();
        s.handle(conn, Frame::Hello { flags: 0 });
        // The whole space, its north-east corner cell, and one that
        // overhangs that corner.
        let queries = [(0.0, 1000.0), (900.0, 1000.0), (900.0, 1300.0)]
            .iter()
            .zip(0..)
            .map(|(&(min, max), id)| {
                let range = Rect::from_coords(min, min, max, max);
                crate::protocol::WireQuery::from_query(&RangeQuery { id, range })
            })
            .collect();
        s.handle(conn, Frame::Register { queries });
        let updates = vec![
            upd(1, 100.0, 100.0),
            upd(2, 1100.0, 1100.0),
            upd(3, -50.0, 500.0),
            upd(4, 950.0, 1e12),
        ];
        let out = s.handle(conn, Frame::Batch { t: 0.0, updates });
        assert!(out.replies.is_empty(), "admitted, not refused");
        s.handle(conn, Frame::EvalReq { t: 0.0 });
        let (t, window_s) = (1.0, 1.0);
        s.handle(conn, Frame::WindowClose { t, window_s });
        assert_eq!(s.protocol_errors(), 0);
        // The members are the last round's: a second round at its `t`
        // steps nothing.
        assert_eq!(members_at(&mut s, 0.0), vec![vec![1], vec![], vec![2]]);
        let report = Json::parse(&s.deterministic_json()).unwrap();
        let field = |k: &str| report.get(k).unwrap().as_u64().unwrap();
        assert_eq!(field("updates_rx"), 4);
        assert_eq!(field("updates_admitted"), 4);
        assert_eq!(field("updates_dropped"), 0);
    }

    #[test]
    fn utility_policies_drive_the_plan_broadcast_path() {
        for policy in Policy::ALL {
            let mut cfg = ServeConfig::new(1000.0, 100);
            cfg.queue_capacity = 64;
            cfg.service_rate = 50.0;
            cfg.policy = policy;
            if policy == Policy::RandomDrop {
                // No server-side drop stage to run it on.
                assert!(cfg.shedding_policy().is_err());
                continue;
            }
            let mut s = SessionCore::new(cfg);
            let conn = s.open_conn();
            s.handle(conn, Frame::Hello { flags: 1 });
            let updates: Vec<WireUpdate> = (0..100)
                .map(|i| {
                    upd(
                        i,
                        (i % 10) as f64 * 100.0 + 5.0,
                        (i / 10) as f64 * 100.0 + 5.0,
                    )
                })
                .collect();
            s.handle(conn, Frame::Batch { t: 0.0, updates });
            let out = s.handle(
                conn,
                Frame::WindowClose {
                    t: 1.0,
                    window_s: 1.0,
                },
            );
            // The utility policy's plan rides the ordinary 16 B/region
            // wire format, exactly like LIRA's.
            assert_eq!(out.broadcast.len(), 1, "{policy:?}");
            match &out.broadcast[0] {
                Frame::Plan { epoch, regions, .. } => {
                    assert_eq!(*epoch, 1, "{policy:?}");
                    assert!(!regions.is_empty(), "{policy:?}");
                    assert_eq!(regions.len() % crate::protocol::REGION_WIRE_LEN, 0);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn window_close_runs_throtloop_and_broadcasts_a_plan() {
        let mut s = tiny();
        let conn = s.open_conn();
        s.handle(conn, Frame::Hello { flags: 1 });
        // Overdrive arrivals: λ = 100/1s ≫ µ = 50/s, so z must fall.
        let updates: Vec<WireUpdate> = (0..100)
            .map(|i| {
                upd(
                    i,
                    (i % 10) as f64 * 100.0 + 5.0,
                    (i / 10) as f64 * 100.0 + 5.0,
                )
            })
            .collect();
        s.handle(conn, Frame::Batch { t: 0.0, updates });
        let out = s.handle(
            conn,
            Frame::WindowClose {
                t: 1.0,
                window_s: 1.0,
            },
        );
        match &out.replies[0] {
            Frame::WindowAck {
                z, lambda, adapted, ..
            } => {
                assert!(*lambda > 99.0, "λ {lambda}");
                assert!(*z < 1.0, "overload must throttle, z {z}");
                assert_eq!(*adapted, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(out.broadcast.len(), 1, "plan broadcast to subscribers");
        match &out.broadcast[0] {
            Frame::Plan { epoch, regions, .. } => {
                assert_eq!(*epoch, 1);
                assert!(!regions.is_empty());
                assert_eq!(regions.len() % crate::protocol::REGION_WIRE_LEN, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn queue_overflow_drops_and_reports() {
        let mut s = tiny(); // capacity 64
        let conn = s.open_conn();
        s.handle(conn, Frame::Hello { flags: 0 });
        let updates: Vec<WireUpdate> = (0..500).map(|i| upd(i % 100, 10.0, 10.0)).collect();
        s.handle(conn, Frame::Batch { t: 0.0, updates });
        let out = s.handle(
            conn,
            Frame::WindowClose {
                t: 1.0,
                window_s: 1.0,
            },
        );
        match &out.replies[0] {
            Frame::WindowAck { dropped, .. } => {
                assert_eq!(*dropped, 500 - 64, "tail drop beyond capacity");
            }
            other => panic!("unexpected {other:?}"),
        }
        let report = s.deterministic_json();
        let parsed = Json::parse(&report).unwrap();
        assert_eq!(
            parsed.get("updates_dropped").unwrap().as_u64(),
            Some(500 - 64)
        );
        assert_eq!(parsed.get("updates_admitted").unwrap().as_u64(), Some(64));
    }

    /// The queue counters, read off the admission ledger, and the batched
    /// wait charges (one `record_n` per run of equal waits) count what the
    /// report counts.
    #[test]
    fn queue_telemetry_agrees_with_the_report_under_overload() {
        let mut s = tiny(); // capacity 64
        let conn = s.open_conn();
        s.handle(conn, Frame::Hello { flags: 0 });
        let batch = |r: u32| Frame::Batch {
            t: r as f64,
            updates: (0..45)
                .map(|i| upd((i * 7 + r) % 100, 20.0 * i as f64, 500.0))
                .collect(),
        };
        for r in 0..6 {
            // 90 arrivals per drain into 64 slots: the tails drop.
            s.handle(conn, batch(r));
            s.handle(conn, batch(r + 10));
            let t = r as f64;
            let drain = if r % 2 == 0 {
                Frame::WindowClose { t, window_s: 1.0 }
            } else {
                Frame::EvalReq { t }
            };
            s.handle(conn, drain);
        }
        let report = Json::parse(&s.deterministic_json()).unwrap();
        let field = |k: &str| report.get(k).unwrap().as_u64().unwrap();
        let (admitted, dropped) = (field("updates_admitted"), field("updates_dropped"));
        assert!(dropped > 0, "the queues must overflow");
        assert_eq!(admitted + dropped, field("updates_rx"));
        assert_eq!(s.governor.depth(), 0, "every admitted update was drained");
        if lira_core::telemetry::COMPILED_OUT {
            return;
        }
        let snap = s.telemetry_snapshot();
        assert_eq!(snap.counter("serve.queue.admitted"), Some(admitted));
        assert_eq!(snap.counter("serve.queue.dropped"), Some(dropped));
        let waits = snap.histogram("serve.queue.wait_us").unwrap();
        assert_eq!(waits.count, admitted);
    }

    /// The telemetry's window ring holds what each `WindowAck` said, one
    /// entry per acknowledged window; a refused `WindowClose` leaves no
    /// entry.
    #[test]
    fn the_window_ring_matches_the_window_acks() {
        let mut s = tiny(); // capacity 64, µ = 50/s
        let conn = s.open_conn();
        let mut acks = Vec::new();
        for (w, arrivals) in [120u32, 0, 30, 90, 10].into_iter().enumerate() {
            let t = w as f64 + 1.0;
            let updates = (0..arrivals).map(|i| upd(i % 100, 10.0, 10.0)).collect();
            s.handle(conn, Frame::Batch { t, updates });
            let refused = s.handle(
                conn,
                Frame::WindowClose {
                    t: f64::NAN,
                    window_s: 1.0,
                },
            );
            assert!(matches!(refused.replies[0], Frame::Error { .. }));
            let out = s.handle(conn, Frame::WindowClose { t, window_s: 0.5 });
            match out.replies[0] {
                Frame::WindowAck {
                    t,
                    z,
                    lambda,
                    mu,
                    depth,
                    ..
                } => acks.push((t, z, lambda, mu, depth)),
                ref other => panic!("unexpected {other:?}"),
            }
        }
        let snap = s.telemetry_snapshot();
        if lira_core::telemetry::COMPILED_OUT {
            assert!(snap.windows.is_empty());
            return;
        }
        let ring: Vec<_> = snap
            .windows
            .iter()
            .map(|w| {
                let depth = w.queue_len as u64;
                (w.time, w.throttle, w.arrival_rate, w.service_rate, depth)
            })
            .collect();
        assert_eq!(ring, acks);
        assert_eq!(snap.windows_dropped, 0);
        assert!(
            snap.windows.iter().any(|w| w.dropped > 0),
            "window 1 overflows"
        );
    }

    #[test]
    fn semantic_rejections_are_counted_not_fatal() {
        let mut s = tiny();
        let conn = s.open_conn();
        s.handle(conn, Frame::Hello { flags: 0 });
        let out = s.handle(conn, Frame::EvalReq { t: f64::NAN });
        assert!(matches!(
            out.replies[0],
            Frame::Error {
                code: protocol::ERR_INVALID,
                ..
            }
        ));
        let out = s.handle(conn, Frame::Ack { of: 1 });
        assert!(matches!(
            out.replies[0],
            Frame::Error {
                code: protocol::ERR_UNEXPECTED,
                ..
            }
        ));
        assert_eq!(s.protocol_errors(), 2);
        // The session still works, and `SetSlice` is a no-op: any slice
        // and shard is acknowledged and changes nothing.
        let before = s.deterministic_json();
        let out = s.handle(
            conn,
            Frame::SetSlice {
                slice: 999,
                shard: 0,
            },
        );
        assert_eq!(
            out.replies,
            vec![Frame::Ack {
                of: kind::SET_SLICE
            }]
        );
        assert_eq!(s.deterministic_json(), before);
        let out = s.handle(conn, Frame::EvalReq { t: 0.0 });
        assert!(matches!(out.replies[0], Frame::EvalRes { round: 1, .. }));
    }

    /// Sends one good batch, then `bad`, and checks the session refused
    /// the bad frame whole and stayed consistent.
    fn assert_batch_rejected(bad: Frame) {
        let mut s = tiny(); // 100 nodes
        let conn = s.open_conn();
        s.handle(conn, Frame::Hello { flags: 0 });
        s.handle(
            conn,
            Frame::Batch {
                t: 0.0,
                updates: vec![upd(1, 100.0, 100.0), upd(2, 900.0, 900.0)],
            },
        );
        let out = s.handle(conn, bad);
        // Draining must neither panic nor apply any part of the frame.
        s.handle(conn, Frame::EvalReq { t: 1.0 });
        assert_eq!(s.server.store().reported_count(), 2);
        let [Frame::Error { code, .. }] = &out.replies[..] else {
            panic!("expected one Error reply, got {:?}", out.replies);
        };
        assert_eq!(*code, protocol::ERR_INVALID);
        assert_eq!(s.protocol_errors(), 1);
        assert_eq!(s.conns[conn as usize].errors, 1);
        let report = Json::parse(&s.deterministic_json()).unwrap();
        let field = |k: &str| report.get(k).unwrap().as_u64().unwrap();
        assert_eq!(field("protocol_errors"), 1);
        assert_eq!(field("updates_rx"), 2, "only accepted frames count");
        assert_eq!(field("updates_admitted") + field("updates_dropped"), 2);
    }

    #[test]
    fn batch_with_an_out_of_range_node_id_is_rejected_whole() {
        assert_batch_rejected(Frame::Batch {
            t: 0.5,
            updates: vec![upd(3, 10.0, 10.0), upd(100, 10.0, 10.0)],
        });
    }

    #[test]
    fn batch_with_a_non_finite_time_is_rejected_whole() {
        for t in [f64::NAN, f64::INFINITY] {
            assert_batch_rejected(Frame::Batch {
                t,
                updates: vec![upd(3, 10.0, 10.0)],
            });
        }
    }

    #[test]
    fn batch_with_a_non_finite_coordinate_is_rejected_whole() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for field in 0..4 {
                let mut u = upd(3, 10.0, 10.0);
                *[&mut u.x, &mut u.y, &mut u.vx, &mut u.vy][field] = bad;
                assert_batch_rejected(Frame::Batch {
                    t: 0.5,
                    updates: vec![upd(4, 20.0, 20.0), u],
                });
            }
        }
    }

    fn wire_query(id: u32, min: (f64, f64), max: (f64, f64)) -> crate::protocol::WireQuery {
        crate::protocol::WireQuery {
            id,
            min_x: min.0,
            min_y: min.1,
            max_x: max.0,
            max_y: max.1,
        }
    }

    #[test]
    fn register_with_an_impossible_rectangle_is_rejected_whole() {
        let good = wire_query(0, (0.0, 0.0), (500.0, 500.0));
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let bad = [
            wire_query(1, (nan, 0.0), (10.0, 10.0)),
            wire_query(1, (0.0, 0.0), (10.0, nan)),
            wire_query(1, (20.0, 0.0), (10.0, 10.0)),
            wire_query(1, (0.0, 20.0), (10.0, 10.0)),
            wire_query(1, (-inf, 0.0), (10.0, 10.0)),
            wire_query(1, (0.0, 0.0), (10.0, inf)),
            wire_query(1, (-inf, -inf), (inf, inf)),
        ];
        let register = |queries| Frame::Register { queries };
        for q in bad {
            let mut s = tiny();
            let conn = s.open_conn();
            s.handle(conn, Frame::Hello { flags: 0 });
            s.handle(conn, register(vec![good]));
            let updates = vec![upd(1, 100.0, 100.0), upd(2, 900.0, 900.0)];
            s.handle(conn, Frame::Batch { t: 0.0, updates });

            let out = s.handle(conn, register(vec![good, q]));
            let [Frame::Error { code, .. }] = &out.replies[..] else {
                panic!("{q:?}: expected one Error reply, got {:?}", out.replies);
            };
            assert_eq!(*code, protocol::ERR_INVALID);
            assert_eq!(s.conns[conn as usize].errors, 1);
            assert_eq!(s.server.queries(), &[good.to_query()], "{q:?}");
            // The session still serves the good query alone.
            s.handle(conn, Frame::EvalReq { t: 0.0 });
            assert_eq!(members_at(&mut s, 0.0), vec![vec![1]], "{q:?}");
            let report = Json::parse(&s.deterministic_json()).unwrap();
            let field = |k: &str| report.get(k).unwrap().as_u64().unwrap();
            assert_eq!(field("registered_queries"), 1);
            assert_eq!(field("protocol_errors"), 1);
        }

        // Zero width and zero height stay legal: a point and a segment,
        // registered and evaluated, though under the half-open
        // convention they contain no position.
        let mut s = tiny();
        let conn = s.open_conn();
        s.handle(conn, Frame::Hello { flags: 0 });
        let queries = vec![
            wire_query(0, (100.0, 100.0), (100.0, 100.0)),
            wire_query(1, (0.0, 900.0), (1000.0, 900.0)),
        ];
        let out = s.handle(conn, register(queries));
        assert_eq!(out.replies, vec![Frame::Ack { of: kind::REGISTER }]);
        let updates = vec![upd(1, 100.0, 100.0), upd(2, 900.0, 900.0)];
        s.handle(conn, Frame::Batch { t: 0.0, updates });
        let out = s.handle(conn, Frame::EvalReq { t: 0.0 });
        assert!(matches!(out.replies[0], Frame::EvalRes { results: 2, .. }));
        assert_eq!(s.protocol_errors(), 0);
    }

    /// The evaluation digest after `script`, run against a fresh session.
    fn digest_after(script: &[Frame]) -> u64 {
        let mut cfg = ServeConfig::new(1000.0, 100);
        cfg.queue_capacity = 1024;
        let mut s = SessionCore::new(cfg);
        let conn = s.open_conn();
        s.handle(conn, Frame::Hello { flags: 0 });
        for frame in script {
            let out = s.handle(conn, frame.clone());
            assert!(
                !matches!(out.replies.first(), Some(Frame::Error { .. })),
                "{:?}",
                out.replies
            );
        }
        assert_eq!(s.protocol_errors(), 0);
        s.digest
    }

    /// Ingest on admission puts a `Batch` into the engine before a
    /// `Register` that follows it, where the drain used to put it after:
    /// the two commute, so either order gives the same digest.
    #[test]
    fn ingest_and_register_commute() {
        let register = |side: f64| Frame::Register {
            queries: vec![
                wire_query(0, (0.0, 0.0), (side, side)),
                wire_query(1, (side, 0.0), (1000.0, side)),
                wire_query(2, (250.0, 250.0), (750.0, 750.0)),
            ],
        };
        let batch = |t: f64| Frame::Batch {
            t,
            updates: (0..100)
                .map(|i| {
                    let x = (i as f64 * 37.0 + t * 11.0) % 1000.0;
                    let y = (i as f64 * 53.0 + t * 7.0) % 1000.0;
                    WireUpdate {
                        vx: (i % 7) as f64 - 3.0,
                        ..upd(i, x, y)
                    }
                })
                .collect(),
        };
        let script = |batch_first: bool| {
            let mut frames = vec![register(400.0), batch(0.0), Frame::EvalReq { t: 0.0 }];
            let (a, b) = (batch(1.0), register(600.0));
            frames.extend(if batch_first { [a, b] } else { [b, a] });
            frames.extend([Frame::EvalReq { t: 1.0 }, Frame::EvalReq { t: 2.5 }]);
            frames
        };
        let digest = digest_after(&script(true));
        assert_ne!(digest, 0);
        assert_eq!(digest, digest_after(&script(false)));
    }

    /// Sends a batch and one good evaluation, then `bad`, and checks the
    /// session refused it without draining, evaluating or closing
    /// anything — and still serves the next good request.
    fn assert_request_rejected(bad: Frame) {
        let mut s = tiny();
        let conn = s.open_conn();
        s.handle(conn, Frame::Hello { flags: 0 });
        let batch = |t: f64| Frame::Batch {
            t,
            updates: vec![upd(1, 100.0, 100.0), upd(2, 900.0, 900.0)],
        };
        s.handle(conn, batch(0.0));
        s.handle(conn, Frame::EvalReq { t: 0.0 });
        s.handle(conn, batch(1.0));
        let before = s.deterministic_json();
        assert_eq!(s.governor.depth(), 2);

        let out = s.handle(conn, bad);
        let [Frame::Error { code, .. }] = &out.replies[..] else {
            panic!("expected one Error reply, got {:?}", out.replies);
        };
        assert_eq!(*code, protocol::ERR_INVALID);
        assert!(out.broadcast.is_empty());
        assert_eq!(s.governor.depth(), 2);
        assert_eq!(s.server.evaluations(), 1, "nothing evaluated");
        assert_eq!(s.conns[conn as usize].errors, 1);
        let report = |json: &str, k: &str| {
            let v = Json::parse(json).unwrap();
            v.get(k).map(|f| f.to_string()).unwrap()
        };
        let after = s.deterministic_json();
        for k in [
            "eval_rounds",
            "digest",
            "windows",
            "z",
            "plan_epoch",
            "updates_rx",
            "updates_admitted",
            "updates_dropped",
        ] {
            assert_eq!(report(&after, k), report(&before, k), "{k} moved");
        }
        assert_eq!(report(&after, "protocol_errors"), "1");

        // A finite `t` below the last one stays legal.
        let out = s.handle(conn, Frame::EvalReq { t: -3.0 });
        assert!(matches!(out.replies[0], Frame::EvalRes { round: 2, .. }));
        let report = Json::parse(&s.deterministic_json()).unwrap();
        let field = |k: &str| report.get(k).unwrap().as_u64().unwrap();
        assert_eq!(field("updates_admitted") + field("updates_dropped"), 4);
    }

    #[test]
    fn eval_req_with_a_non_finite_time_is_rejected() {
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_request_rejected(Frame::EvalReq { t });
        }
    }

    #[test]
    fn window_close_with_a_non_finite_time_is_rejected() {
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_request_rejected(Frame::WindowClose { t, window_s: 1.0 });
        }
    }

    #[test]
    fn window_close_with_a_bad_window_is_rejected() {
        for window_s in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_request_rejected(Frame::WindowClose { t: 1.0, window_s });
        }
    }

    /// Every server→client kind a client sends is refused with
    /// `ERR_UNEXPECTED`, changes nothing, and the session carries on.
    #[test]
    fn a_server_to_client_kind_from_a_client_is_unexpected() {
        let frames = [
            Frame::Welcome {
                session: 0,
                slices: 1,
                shards: 1,
                queue_capacity: 64,
                default_delta: 5.0,
                bounds: [0.0, 0.0, 1000.0, 1000.0],
            },
            Frame::EvalRes {
                t: 0.0,
                round: 1,
                results: 0,
                digest: 0,
            },
            Frame::WindowAck {
                t: 0.0,
                z: 1.0,
                lambda: 0.0,
                mu: 50.0,
                depth: 0,
                dropped: 0,
                adapted: 0,
            },
            Frame::Plan {
                epoch: 1,
                t: 0.0,
                default_delta: 5.0,
                regions: Vec::new(),
            },
            Frame::Ack { of: kind::HELLO },
            Frame::ReportRes { json: "{}".into() },
            Frame::Error {
                code: protocol::ERR_INVALID,
                message: String::new(),
            },
        ];
        let mut s = tiny();
        let conn = s.open_conn();
        s.handle(conn, Frame::Hello { flags: 0 });
        let updates = vec![upd(1, 100.0, 100.0)];
        s.handle(conn, Frame::Batch { t: 0.0, updates });
        let before = s.deterministic_json();
        for (k, frame) in frames.into_iter().enumerate() {
            let out = s.handle(conn, frame);
            let [Frame::Error { code, .. }] = &out.replies[..] else {
                panic!("expected one Error reply, got {:?}", out.replies);
            };
            assert_eq!(*code, protocol::ERR_UNEXPECTED);
            assert!(out.broadcast.is_empty());
            assert_eq!(s.protocol_errors(), k as u64 + 1);
        }
        let after = Json::parse(&s.deterministic_json()).unwrap();
        let before = Json::parse(&before).unwrap();
        for k in ["eval_rounds", "digest", "windows", "updates_rx"] {
            assert_eq!(after.get(k), before.get(k), "{k} moved");
        }
        let out = s.handle(conn, Frame::EvalReq { t: 0.0 });
        assert!(matches!(out.replies[0], Frame::EvalRes { round: 1, .. }));
    }

    #[test]
    fn deterministic_report_is_frame_sequence_function() {
        let run = || {
            let mut s = tiny();
            let conn = s.open_conn();
            s.handle(conn, Frame::Hello { flags: 1 });
            for r in 0..5 {
                let updates: Vec<WireUpdate> = (0..40)
                    .map(|i| upd(i, (i as f64 * 17.0 + r as f64) % 1000.0, 500.0))
                    .collect();
                s.handle(
                    conn,
                    Frame::Batch {
                        t: r as f64,
                        updates,
                    },
                );
                s.handle(conn, Frame::EvalReq { t: r as f64 });
                s.handle(
                    conn,
                    Frame::WindowClose {
                        t: r as f64,
                        window_s: 1.0,
                    },
                );
            }
            s.deterministic_json()
        };
        assert_eq!(run(), run(), "bit-identical across runs");
    }
}
