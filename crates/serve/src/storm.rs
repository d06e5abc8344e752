//! `lira-storm`: the load generator. Replays [`ChurnWorkload`] or a
//! catalog scenario's traffic trace against a serving session — over a
//! real socket ([`TcpTransport`]) or straight into an in-process
//! [`SessionCore`] ([`InprocTransport`]). Both transports carry the
//! *identical* frame stream, which is how the loopback battery proves
//! the wire adds bytes but not behavior.
//!
//! Source-side shedding: when `shed` is on, every node runs a
//! [`DeadReckoner`] whose inaccuracy threshold Δ is looked up in the
//! most recently broadcast [`SheddingPlan`] at the node's position —
//! the paper's actuation path, at wire granularity.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use lira_core::geometry::{Point, Rect};
use lira_core::plan::SheddingPlan;
use lira_mobility::motion::DeadReckoner;
use lira_sim::pipeline::TrafficTrace;
use lira_workload::churn::ChurnWorkload;
use lira_workload::{generate_queries, QueryDistribution, WorkloadConfig};

use crate::protocol::{decode_plan, Decoder, Frame, WireQuery, WireUpdate, HELLO_SUBSCRIBE_PLANS};
use crate::session::SessionCore;

/// A client-side frame channel: send one frame, receive server frames in
/// order. Implementations must preserve frame order exactly.
pub trait Transport {
    /// Sends one frame to the server.
    fn send(&mut self, frame: &Frame) -> std::io::Result<()>;
    /// Receives the next server frame (blocking).
    fn recv(&mut self) -> std::io::Result<Frame>;
}

/// TCP transport over a blocking stream.
pub struct TcpTransport {
    stream: TcpStream,
    decoder: Decoder,
    buf: Vec<u8>,
}

impl TcpTransport {
    /// Wraps a connected stream (switched to blocking, nodelay on).
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream,
            decoder: Decoder::new(),
            buf: vec![0u8; 256 * 1024],
        })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.stream.write_all(&frame.encode())
    }

    fn recv(&mut self) -> std::io::Result<Frame> {
        loop {
            match self.decoder.next() {
                Ok(Some(f)) => return Ok(f),
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ))
                }
            }
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.decoder.push(&self.buf[..n]);
        }
    }
}

/// In-process transport: frames go through the full encode→decode wire
/// codec (so byte-level behavior is still exercised) into an owned
/// [`SessionCore`], and server frames queue into an inbox. The
/// frame-for-frame twin of [`TcpTransport`] minus the kernel.
pub struct InprocTransport {
    session: SessionCore,
    conn: u32,
    subscribed: bool,
    inbox: VecDeque<Frame>,
}

impl InprocTransport {
    /// Wraps a session core as a single-connection server.
    pub fn new(mut session: SessionCore) -> Self {
        let conn = session.open_conn();
        InprocTransport {
            session,
            conn,
            subscribed: false,
            inbox: VecDeque::new(),
        }
    }

    /// The session core, for report harvesting after the run.
    pub fn session(&self) -> &SessionCore {
        &self.session
    }
}

impl Transport for InprocTransport {
    fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        // Round-trip the bytes exactly as the socket path would.
        let bytes = frame.encode();
        let mut d = Decoder::new();
        d.push(&bytes);
        let frame = d
            .next()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
            .expect("a full frame was pushed");
        self.session.note_frame(self.conn, &frame, bytes.len());
        if let Frame::Hello { flags } = &frame {
            self.subscribed = flags & HELLO_SUBSCRIBE_PLANS != 0;
        }
        let out = self.session.handle(self.conn, frame);
        self.inbox.extend(out.replies);
        if self.subscribed {
            self.inbox.extend(out.broadcast);
        }
        Ok(())
    }

    fn recv(&mut self) -> std::io::Result<Frame> {
        self.inbox.pop_front().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "no server frame pending (client expected one)",
            )
        })
    }
}

/// Load-generator configuration (CLI flags map onto this; see
/// `docs/OPERATIONS.md`).
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Fleet size.
    pub nodes: usize,
    /// Side of the square space (m).
    pub space_m: f64,
    /// Rounds to run (each round = one churn step).
    pub rounds: usize,
    /// Sim-seconds per round.
    pub dt: f64,
    /// Fraction of the fleet re-reporting per round.
    pub churn_frac: f64,
    /// Continual queries to register.
    pub queries: usize,
    /// Query side-length parameter `w` (m).
    pub query_side: f64,
    /// Evaluate every this many rounds.
    pub eval_every: usize,
    /// Close a THROTLOOP window every this many rounds.
    pub window_every: usize,
    /// Workload seed.
    pub seed: u64,
    /// Shed at source: honor broadcast plans via dead reckoners. With
    /// `false`, every churned node reports raw (Δ = the server's default)
    /// — the mode whose digests tie to the in-process reference.
    pub shed: bool,
    /// Max updates per `Batch` frame (larger batches are split).
    pub batch_cap: usize,
}

impl StormConfig {
    /// Defaults matched to [`crate::session::ServeConfig::new`].
    pub fn new(nodes: usize, space_m: f64) -> Self {
        StormConfig {
            nodes,
            space_m,
            rounds: 50,
            dt: 1.0,
            churn_frac: 0.1,
            queries: (nodes / 100).max(1),
            query_side: space_m / 14.0,
            eval_every: 5,
            window_every: 5,
            seed: 42,
            shed: true,
            batch_cap: 50_000,
        }
    }

    /// Says why the churn workload cannot be generated under this
    /// configuration: no node, a space side that is not finite and
    /// positive, a churn fraction outside `(0, 1]` (a fraction above one
    /// would re-report nodes several times a round), or a round length
    /// that is not finite and positive. The binary checks before it
    /// connects.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 1 {
            return Err("nodes must be at least 1".into());
        }
        if !(self.space_m.is_finite() && self.space_m > 0.0) {
            return Err(format!(
                "space must be finite and positive, got {}",
                self.space_m
            ));
        }
        if !(self.churn_frac > 0.0 && self.churn_frac <= 1.0) {
            return Err(format!("churn must lie in (0, 1], got {}", self.churn_frac));
        }
        if !(self.dt.is_finite() && self.dt > 0.0) {
            return Err(format!(
                "round length must be finite and positive, got {}",
                self.dt
            ));
        }
        Ok(())
    }
}

/// What one storm run measured.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// Updates put on the wire.
    pub updates_sent: u64,
    /// Update candidates the workload produced (sent + shed at source).
    pub updates_considered: u64,
    /// Candidates suppressed by dead reckoning under the current plan.
    pub shed_at_source: u64,
    /// Batch frames sent.
    pub batches: u64,
    /// Evaluation rounds requested.
    pub eval_rounds: u64,
    /// Final rolling result digest from the server.
    pub digest: u64,
    /// Plan broadcasts received.
    pub plans_received: u64,
    /// Last plan epoch seen (0 = never).
    pub plan_epoch: u64,
    /// Wall-clock seconds for the driving loop.
    pub wall_s: f64,
    /// Sustained updates/sec over the wall clock.
    pub sustained_ups: f64,
    /// The server's full report JSON (`ReportRes`).
    pub server_json: String,
}

impl StormReport {
    /// The server's deterministic report core — the string compared
    /// bit-for-bit between transports. `pub` for the crate's
    /// `tests/loopback.rs`, its one caller.
    pub fn deterministic_core(&self) -> String {
        use lira_core::telemetry::json::Json;
        let parsed = Json::parse(&self.server_json).expect("server JSON parses");
        parsed
            .get("deterministic")
            .expect("report has a deterministic core")
            .to_string()
    }
}

/// A storm-side protocol failure (unexpected frame, transport error).
#[derive(Debug)]
pub enum StormError {
    /// Transport-level failure.
    Io(std::io::Error),
    /// The server answered with something the client didn't expect.
    Unexpected(&'static str, Frame),
    /// The server's world doesn't match the client's flags.
    Mismatch(String),
}

impl std::fmt::Display for StormError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StormError::Io(e) => write!(f, "transport: {e}"),
            StormError::Unexpected(what, frame) => {
                write!(f, "expected {what}, got {frame:?}")
            }
            StormError::Mismatch(m) => write!(f, "client/server mismatch: {m}"),
        }
    }
}

impl std::error::Error for StormError {}

impl From<std::io::Error> for StormError {
    fn from(e: std::io::Error) -> Self {
        StormError::Io(e)
    }
}

/// Client-side session state shared by the churn and trace drivers.
struct Driver<'a, T: Transport> {
    t: &'a mut T,
    plan: SheddingPlan,
    default_delta: f64,
    bounds: Rect,
    plans_received: u64,
    plan_epoch: u64,
    batch: Vec<WireUpdate>,
    batch_cap: usize,
    updates_sent: u64,
    batches: u64,
    eval_rounds: u64,
    digest: u64,
    /// One dead reckoner per node id.
    reckoners: Vec<DeadReckoner>,
    /// Observations offered to the reckoners.
    considered: u64,
    /// Observations the reckoners suppressed.
    shed: u64,
}

impl<'a, T: Transport> Driver<'a, T> {
    /// Hello/Welcome handshake for a fleet of `nodes`; seeds the local
    /// plan with the server's default Δ.
    fn open(t: &'a mut T, batch_cap: usize, nodes: usize) -> Result<Self, StormError> {
        t.send(&Frame::Hello {
            flags: HELLO_SUBSCRIBE_PLANS,
        })?;
        let welcome = t.recv()?;
        let (bounds, default_delta) = match &welcome {
            Frame::Welcome {
                bounds,
                default_delta,
                ..
            } => (
                Rect::from_coords(bounds[0], bounds[1], bounds[2], bounds[3]),
                *default_delta,
            ),
            other => return Err(StormError::Unexpected("Welcome", other.clone())),
        };
        Ok(Driver {
            t,
            plan: SheddingPlan::uniform(bounds, default_delta),
            default_delta,
            bounds,
            plans_received: 0,
            plan_epoch: 0,
            batch: Vec::new(),
            batch_cap: batch_cap.max(1),
            updates_sent: 0,
            batches: 0,
            eval_rounds: 0,
            digest: 0,
            reckoners: vec![DeadReckoner::new(); nodes],
            considered: 0,
            shed: 0,
        })
    }

    /// The mobile-side body: node `id` observes its own motion at
    /// `t_sim`, looks its threshold up in the installed plan at its
    /// position (or reports under `raw_delta` when source-side shedding
    /// is off), and puts an update on the wire if dead reckoning has
    /// drifted past it.
    fn observe(
        &mut self,
        id: u32,
        t_sim: f64,
        p: Point,
        v: (f64, f64),
        raw_delta: Option<f64>,
    ) -> Result<(), StormError> {
        self.considered += 1;
        let delta = raw_delta.unwrap_or_else(|| self.plan.throttler_at(&p));
        match self.reckoners[id as usize].observe(id, t_sim, p, v, delta) {
            Some(rep) => self.push(
                t_sim,
                WireUpdate {
                    id: rep.node,
                    x: rep.model.origin.x,
                    y: rep.model.origin.y,
                    vx: rep.model.velocity.0,
                    vy: rep.model.velocity.1,
                },
            ),
            None => {
                self.shed += 1;
                Ok(())
            }
        }
    }

    fn register(&mut self, queries: Vec<WireQuery>) -> Result<(), StormError> {
        self.t.send(&Frame::Register { queries })?;
        match self.recv_filtered()? {
            Frame::Ack { .. } => Ok(()),
            other => Err(StormError::Unexpected("Ack", other)),
        }
    }

    /// Receives one frame; a plan broadcast is installed on the way and
    /// yields `None`.
    fn recv_installing(&mut self) -> Result<Option<Frame>, StormError> {
        match self.t.recv()? {
            Frame::Plan {
                epoch,
                default_delta,
                regions,
                ..
            } => {
                self.plans_received += 1;
                self.plan_epoch = epoch;
                self.plan = decode_plan(self.bounds, &regions, default_delta).map_err(|_| {
                    StormError::Mismatch("server broadcast an undecodable plan".into())
                })?;
                Ok(None)
            }
            other => Ok(Some(other)),
        }
    }

    /// Receives the next non-plan frame, transparently installing any
    /// plan broadcasts that arrive first.
    fn recv_filtered(&mut self) -> Result<Frame, StormError> {
        loop {
            if let Some(frame) = self.recv_installing()? {
                return Ok(frame);
            }
        }
    }

    fn push(&mut self, t_sim: f64, u: WireUpdate) -> Result<(), StormError> {
        self.batch.push(u);
        if self.batch.len() >= self.batch_cap {
            self.flush(t_sim)?;
        }
        Ok(())
    }

    fn flush(&mut self, t_sim: f64) -> Result<(), StormError> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let updates = std::mem::take(&mut self.batch);
        self.updates_sent += updates.len() as u64;
        self.batches += 1;
        self.t.send(&Frame::Batch { t: t_sim, updates })?;
        Ok(())
    }

    fn eval(&mut self, t_sim: f64) -> Result<(), StormError> {
        self.flush(t_sim)?;
        self.t.send(&Frame::EvalReq { t: t_sim })?;
        match self.recv_filtered()? {
            Frame::EvalRes { digest, .. } => {
                self.eval_rounds += 1;
                self.digest = digest;
                Ok(())
            }
            other => Err(StormError::Unexpected("EvalRes", other)),
        }
    }

    fn close_window(&mut self, t_sim: f64, window_s: f64) -> Result<(), StormError> {
        self.flush(t_sim)?;
        self.t.send(&Frame::WindowClose { t: t_sim, window_s })?;
        match self.recv_filtered()? {
            Frame::WindowAck { adapted, .. } => {
                if adapted == 1 {
                    // The plan broadcast trails the ack on the wire; wait
                    // for it now so the *next* round sheds under the new
                    // plan — identical actuation timing on both
                    // transports.
                    self.wait_plan(self.plan_epoch + 1)?;
                }
                Ok(())
            }
            other => Err(StormError::Unexpected("WindowAck", other)),
        }
    }

    /// Blocks until a plan with epoch ≥ `min_epoch` has been installed.
    fn wait_plan(&mut self, min_epoch: u64) -> Result<(), StormError> {
        while self.plan_epoch < min_epoch {
            if let Some(other) = self.recv_installing()? {
                return Err(StormError::Unexpected("Plan broadcast", other));
            }
        }
        Ok(())
    }

    fn finish(mut self, wall_s: f64) -> Result<StormReport, StormError> {
        self.flush(0.0)?;
        self.t.send(&Frame::ReportReq)?;
        let server_json = match self.recv_filtered()? {
            Frame::ReportRes { json } => json,
            other => return Err(StormError::Unexpected("ReportRes", other)),
        };
        self.t.send(&Frame::Bye)?;
        let sent = self.updates_sent;
        Ok(StormReport {
            updates_sent: sent,
            updates_considered: self.considered,
            shed_at_source: self.shed,
            batches: self.batches,
            eval_rounds: self.eval_rounds,
            digest: self.digest,
            plans_received: self.plans_received,
            plan_epoch: self.plan_epoch,
            wall_s,
            sustained_ups: if wall_s > 0.0 {
                sent as f64 / wall_s
            } else {
                0.0
            },
            server_json,
        })
    }
}

/// Runs the churn workload through a transport. Deterministic given
/// `cfg` (the wall-clock fields of the report aside).
pub fn run_storm<T: Transport>(t: &mut T, cfg: &StormConfig) -> Result<StormReport, StormError> {
    let mut d = Driver::open(t, cfg.batch_cap, cfg.nodes)?;
    let mut w = ChurnWorkload::new(cfg.nodes, cfg.seed, cfg.churn_frac, cfg.space_m);

    let queries = generate_queries(
        &d.bounds,
        &w.positions,
        &WorkloadConfig {
            distribution: QueryDistribution::Random,
            count: cfg.queries.max(1),
            side_length: cfg.query_side,
            seed: cfg.seed ^ 0x5eed,
        },
    );
    d.register(queries.iter().map(WireQuery::from_query).collect())?;

    let started = Instant::now();
    let raw_delta = (!cfg.shed).then_some(d.default_delta);
    let mut pending: Vec<(u32, Point, (f64, f64))> = Vec::new();

    // Prime: every node reports once at t = 0 (first observation always
    // passes the reckoner).
    w.prime_with(|id, p, v| pending.push((id, p, v)));
    for (id, p, v) in pending.drain(..) {
        d.observe(id, 0.0, p, v, raw_delta)?;
    }
    d.flush(0.0)?;

    for round in 1..=cfg.rounds {
        let t_sim = round as f64 * cfg.dt;
        w.step_with(|id, p, v| pending.push((id, p, v)));
        for (id, p, v) in pending.drain(..) {
            d.observe(id, t_sim, p, v, raw_delta)?;
        }
        // Flush at the round boundary: a `Batch` frame's `t` stamps every
        // update it carries, so updates must never straddle rounds (the
        // engine would ingest them with a later model time than the
        // client observed).
        d.flush(t_sim)?;
        if cfg.window_every > 0 && round % cfg.window_every == 0 {
            d.close_window(t_sim, cfg.window_every as f64 * cfg.dt)?;
        }
        if cfg.eval_every > 0 && round % cfg.eval_every == 0 {
            d.eval(t_sim)?;
        }
    }
    d.finish(started.elapsed().as_secs_f64())
}

/// Options for [`run_storm_trace`].
#[derive(Debug, Clone)]
pub struct TraceStormConfig {
    /// Dead-reckoning threshold Δ used when `shed` is off (pass the
    /// scenario's `delta_min` to mirror the in-process reference).
    pub delta_min: f64,
    /// Evaluate every this many trace ticks (the reference pipeline uses
    /// `eval_period_s / dt`).
    pub eval_every_ticks: usize,
    /// Close a THROTLOOP window every this many trace ticks (0 = never).
    pub window_every_ticks: usize,
    /// Shed at source under broadcast plans instead of the fixed Δ.
    pub shed: bool,
    /// Max updates per `Batch` frame.
    pub batch_cap: usize,
    /// When set, fail fast if the server's `Welcome` bounds differ (the
    /// plan geometry would silently disagree otherwise).
    pub expected_bounds: Option<Rect>,
}

/// Replays a recorded scenario [`TrafficTrace`] through a transport with
/// dead reckoners at threshold Δ — with `shed = false`, byte-for-byte the
/// ingest stream of `lira_sim::pipeline::ReferenceTimeline`, so the
/// server's evaluation digests tie the façade to the in-process
/// pipeline on the same seed.
pub fn run_storm_trace<T: Transport>(
    t: &mut T,
    trace: &TrafficTrace,
    queries: Vec<WireQuery>,
    cfg: &TraceStormConfig,
) -> Result<StormReport, StormError> {
    let TraceStormConfig {
        delta_min,
        eval_every_ticks,
        window_every_ticks,
        shed,
        batch_cap,
        expected_bounds,
    } = cfg.clone();
    let mut d = Driver::open(t, batch_cap, trace.num_cars())?;
    if let Some(want) = expected_bounds {
        if d.bounds != want {
            return Err(StormError::Mismatch(format!(
                "server bounds {:?} != scenario bounds {want:?}",
                d.bounds
            )));
        }
    }
    d.register(queries)?;

    let started = Instant::now();
    let raw_delta = (!shed).then_some(delta_min);

    for tick in 1..=trace.ticks() {
        let t_sim = trace.time(tick);
        for (i, car) in trace.cars(tick).iter().enumerate() {
            d.observe(i as u32, t_sim, car.position, car.velocity, raw_delta)?;
        }
        // Same per-tick flush as the churn driver: batch `t` must equal
        // the observation time of every update it carries — that is what
        // ties the replay digests to `ReferenceTimeline` bit-for-bit.
        d.flush(t_sim)?;
        if window_every_ticks > 0 && tick % window_every_ticks == 0 {
            d.close_window(
                t_sim,
                window_every_ticks as f64 * (trace.time(1) - trace.time(0)),
            )?;
        }
        if eval_every_ticks > 0 && tick % eval_every_ticks == 0 {
            d.eval(t_sim)?;
        }
    }
    d.finish(started.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_refuses_a_workload_the_churn_generator_cannot_make() {
        let base = || StormConfig::new(1000, 2000.0);
        assert_eq!(base().validate(), Ok(()));
        let refused = |edit: fn(&mut StormConfig), needle: &str| {
            let mut cfg = base();
            edit(&mut cfg);
            let why = cfg.validate().expect_err(needle);
            assert!(why.contains(needle), "{why:?} should mention {needle:?}");
        };
        refused(|c| c.nodes = 0, "nodes");
        for space in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let mut cfg = base();
            cfg.space_m = space;
            assert!(cfg.validate().unwrap_err().contains("space"), "{space}");
        }
        for churn in [0.0, -1.0, 1.5, 5.0, f64::NAN, f64::INFINITY] {
            let mut cfg = base();
            cfg.churn_frac = churn;
            assert!(cfg.validate().unwrap_err().contains("churn"), "{churn}");
        }
        for dt in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut cfg = base();
            cfg.dt = dt;
            assert!(cfg.validate().unwrap_err().contains("round length"), "{dt}");
        }
        // The edges of what runs: one node, every node every round.
        let edge = StormConfig {
            nodes: 1,
            churn_frac: 1.0,
            ..base()
        };
        assert_eq!(edge.validate(), Ok(()));
    }
}
