//! The load generator and the round loop it drives a session with. The
//! same loop runs over a TCP connection to a `lira-serve` child and over
//! the in-process replica, so both see the identical frame sequence.

use std::io;
use std::time::{Duration, Instant};

use lira_core::geometry::Rect;
use lira_serve::protocol::{decode_plan, Frame, WireQuery, WireUpdate, HELLO_SUBSCRIBE_PLANS};
use lira_workload::churn::ChurnWorkload;
use lira_workload::{generate_queries, QueryDistribution, WorkloadConfig};

use crate::span::Tracer;
use crate::spec::{ServeSpec, BATCH_CAP, DT_S};

/// A client's frame channel to a session. `send` takes the frame by
/// value because the in-process replica hands it to the session after
/// the codec round trip, as the socket loop does.
pub trait Link {
    /// Sends one frame.
    fn send(&mut self, frame: Frame) -> io::Result<()>;
    /// Receives the next server frame (blocking).
    fn recv(&mut self) -> io::Result<Frame>;
    /// The tracer spans are recorded into (disabled on untraced links).
    fn tracer(&mut self) -> &mut Tracer;
}

/// The load generator: a seeded churning fleet and its query set. Every
/// churned node reports, with no source-side dead reckoning, so offered
/// load is fixed by the workload's parameters alone.
pub struct Gen {
    fleet: ChurnWorkload,
    /// The continual queries to register.
    pub queries: Vec<WireQuery>,
    round: usize,
}

impl Gen {
    /// The fleet and queries of `spec` under `seed`.
    pub fn new(spec: &ServeSpec, seed: u64) -> Self {
        let space = spec.space_m();
        let fleet = ChurnWorkload::new(spec.nodes, seed, spec.churn, space);
        let queries = generate_queries(
            &Rect::from_coords(0.0, 0.0, space, space),
            &fleet.positions,
            &WorkloadConfig {
                distribution: QueryDistribution::Random,
                count: spec.queries,
                side_length: space / 14.0,
                seed: seed ^ 0x5eed,
            },
        );
        Gen {
            fleet,
            queries: queries.iter().map(WireQuery::from_query).collect(),
            round: 0,
        }
    }

    /// Every node's initial report, in id order.
    pub fn prime(&self) -> Vec<WireUpdate> {
        let mut out = Vec::with_capacity(self.fleet.positions.len());
        self.fleet
            .prime_with(|id, p, v| out.push(wire(id, p.x, p.y, v)));
        out
    }

    /// Advances one round; returns its sim time and the updates of the
    /// nodes that moved.
    pub fn step(&mut self) -> (f64, Vec<WireUpdate>) {
        self.round += 1;
        let mut out = Vec::with_capacity(self.fleet.churn_per_round());
        self.fleet
            .step_with(|id, p, v| out.push(wire(id, p.x, p.y, v)));
        (self.round as f64 * DT_S, out)
    }
}

fn wire(id: u32, x: f64, y: f64, v: (f64, f64)) -> WireUpdate {
    WireUpdate {
        id,
        x,
        y,
        vx: v.0,
        vy: v.1,
    }
}

/// Splits one round's updates into `Batch` frames of at most
/// [`BATCH_CAP`] updates.
pub fn batch_frames(t: f64, updates: Vec<WireUpdate>) -> Vec<Frame> {
    if updates.len() <= BATCH_CAP {
        return vec![Frame::Batch { t, updates }];
    }
    updates
        .chunks(BATCH_CAP)
        .map(|c| Frame::Batch {
            t,
            updates: c.to_vec(),
        })
        .collect()
}

/// What the client has seen of the session so far. All of it is a
/// function of the frame sequence, so it repeats exactly for a seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Updates put on the link (priming included).
    pub updates_sent: u64,
    /// `EvalRes` frames received.
    pub eval_rounds: u64,
    /// `WindowAck` frames received.
    pub windows: u64,
    /// `Plan` broadcasts received.
    pub plans_received: u64,
    /// Epoch of the last plan received.
    pub plan_epoch: u64,
    /// Regions in the last plan received.
    pub plan_regions: u64,
    /// Result count of the last `EvalRes`.
    pub results_last: u64,
    /// Rolling digest of the last `EvalRes`.
    pub digest: u64,
    /// Queue drops reported by the last `WindowAck`.
    pub updates_dropped: u64,
    /// Throttle fraction reported by the last `WindowAck`.
    pub z: f64,
}

impl Tally {
    /// Folds one server frame in. `Err` names a frame that should never
    /// arrive (an `Error`, a client-bound kind out of place, a plan that
    /// does not decode).
    pub fn on_frame(&mut self, bounds: Rect, frame: &Frame) -> Result<(), String> {
        match frame {
            Frame::EvalRes {
                round,
                results,
                digest,
                ..
            } => {
                self.eval_rounds += 1;
                if *round != self.eval_rounds {
                    return Err(format!(
                        "EvalRes round {round}, expected {}",
                        self.eval_rounds
                    ));
                }
                self.results_last = *results;
                self.digest = *digest;
            }
            Frame::WindowAck { z, dropped, .. } => {
                self.windows += 1;
                self.updates_dropped = *dropped;
                self.z = *z;
            }
            Frame::Plan {
                epoch,
                default_delta,
                regions,
                ..
            } => {
                let plan = decode_plan(bounds, regions, *default_delta)
                    .map_err(|e| format!("plan epoch {epoch} does not decode: {e:?}"))?;
                self.plans_received += 1;
                self.plan_epoch = *epoch;
                self.plan_regions = plan.len() as u64;
            }
            Frame::Ack { .. } | Frame::Welcome { .. } | Frame::ReportRes { .. } => {}
            other => return Err(format!("unexpected frame {other:?}")),
        }
        Ok(())
    }
}

/// A failed run: an i/o error (socket, server process) or a frame that
/// should not have come.
#[derive(Debug)]
pub struct DriveError(pub String);

impl From<io::Error> for DriveError {
    fn from(e: io::Error) -> Self {
        DriveError(format!("i/o: {e}"))
    }
}

impl From<String> for DriveError {
    fn from(e: String) -> Self {
        DriveError(e)
    }
}

/// The client half of a session over some [`Link`].
pub struct Client<'a, L: Link> {
    /// The link.
    pub link: &'a mut L,
    /// Everything seen so far.
    pub tally: Tally,
    /// The session's bounds, from `Welcome`.
    pub bounds: Rect,
}

impl<'a, L: Link> Client<'a, L> {
    fn recv(&mut self) -> Result<Frame, DriveError> {
        let f = self.link.recv()?;
        self.tally.on_frame(self.bounds, &f)?;
        Ok(f)
    }

    /// Receives until `want` matches, folding plan broadcasts in on the
    /// way.
    fn recv_until(&mut self, want: fn(&Frame) -> bool) -> Result<Frame, DriveError> {
        loop {
            let f = self.recv()?;
            if want(&f) {
                return Ok(f);
            }
            if !matches!(f, Frame::Plan { .. }) {
                return Err(DriveError(format!("unexpected frame {f:?}")));
            }
        }
    }

    fn send_updates(&mut self, t: f64, updates: Vec<WireUpdate>) -> Result<(), DriveError> {
        self.tally.updates_sent += updates.len() as u64;
        for f in batch_frames(t, updates) {
            self.link.send(f)?;
        }
        Ok(())
    }

    /// `WindowClose` → `WindowAck`, then the plan broadcast that trails
    /// an adapting window.
    fn close_window(&mut self, t: f64, window_s: f64) -> Result<(), DriveError> {
        self.link.send(Frame::WindowClose { t, window_s })?;
        let ack = self.recv_until(|f| matches!(f, Frame::WindowAck { .. }))?;
        if let Frame::WindowAck { adapted: 1, .. } = ack {
            self.recv_until(|f| matches!(f, Frame::Plan { .. }))?;
        }
        Ok(())
    }

    /// `EvalReq` → `EvalRes`.
    fn eval(&mut self, t: f64) -> Result<(), DriveError> {
        self.link.send(Frame::EvalReq { t })?;
        self.recv_until(|f| matches!(f, Frame::EvalRes { .. }))?;
        Ok(())
    }

    /// Set-up: `Hello` → `Welcome` → `Register` → prime every node → one
    /// window sized so priming reads as steady-state arrivals (it also
    /// runs the initial adaptation) → warm-up rounds → first `EvalRes`.
    ///
    /// The warm-up is one full churn cycle of rounds without evaluation:
    /// after it every node has re-reported once, so the ages of the
    /// stored reports are spread as they stay for the rest of the run
    /// (straight after priming every report is fresh, a state the
    /// server is never in again).
    pub fn open(link: &'a mut L, spec: &ServeSpec, gen: &mut Gen) -> Result<Self, DriveError> {
        link.tracer().set_round(0);
        link.send(Frame::Hello {
            flags: HELLO_SUBSCRIBE_PLANS,
        })?;
        let bounds = match link.recv()? {
            Frame::Welcome { bounds: b, .. } => Rect::from_coords(b[0], b[1], b[2], b[3]),
            other => return Err(DriveError(format!("expected Welcome, got {other:?}"))),
        };
        let mut c = Client {
            link,
            tally: Tally::default(),
            bounds,
        };
        c.link.send(Frame::Register {
            queries: gen.queries.clone(),
        })?;
        c.recv_until(|f| matches!(f, Frame::Ack { .. }))?;
        c.send_updates(0.0, gen.prime())?;
        c.close_window(0.0, spec.prime_window_s())?;
        let mut t = 0.0;
        for r in 1..=spec.warmup_rounds() {
            let (now, updates) = gen.step();
            t = now;
            c.send_updates(t, updates)?;
            if r % spec.window_every == 0 {
                c.close_window(t, spec.window_every as f64 * DT_S)?;
            }
        }
        c.eval(t)?;
        Ok(c)
    }

    /// `ReportReq` → the report JSON.
    pub fn report(&mut self) -> Result<String, DriveError> {
        self.link.send(Frame::ReportReq)?;
        match self.recv_until(|f| matches!(f, Frame::ReportRes { .. }))? {
            Frame::ReportRes { json } => Ok(json),
            _ => unreachable!("recv_until matched ReportRes"),
        }
    }
}

/// What one measured phase produced.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Rounds run.
    pub rounds: usize,
    /// The run was cut short of its sized round count because it had
    /// taken [`GIVE_UP_FACTOR`] times its nominal seconds.
    pub cut_short: bool,
    /// Wall of the phase: first round started → `ReportRes` read.
    pub wall_s: f64,
    /// Per evaluated round: round due → `EvalRes` read, ms.
    pub fresh_ms: Vec<f64>,
    /// Per evaluated round: `EvalReq` written → `EvalRes` read, ms.
    pub eval_ms: Vec<f64>,
    /// Per evaluated round: when its `EvalRes` was read, seconds since
    /// the first round was due.
    pub eval_at_s: Vec<f64>,
    /// Open loop only: round's first byte written − round due, ms.
    pub gen_late_ms: Vec<f64>,
    /// The tally when the checkpoint round's `EvalRes` arrived.
    pub checkpoint: Tally,
    /// The tally at the end.
    pub tally: Tally,
    /// The server's final report (`ReportRes`).
    pub report_json: String,
}

/// A measured phase is cut into segments of equal work, at least this
/// many freshness samples each, and each timing is computed per segment.
/// The end-to-end metric is that of the **quietest segment** (lowest
/// median freshness, highest goodput): the reference host runs
/// memory-bound code a tenth to a third slower for seconds to minutes at
/// a time when its neighbours are busy (they share its last-level
/// cache), which only ever makes a segment slower, so the quietest one
/// is the nearest a run comes to the program's own speed. A slower
/// program is slower in every segment and moves it just the same.
pub const SEGMENT_SAMPLES: usize = 20;

/// At most this many segments, however many samples there are.
pub const MAX_SEGMENTS: usize = 20;

/// One segment of a measured phase. It ends when an `EvalRes` is read,
/// which follows a drain: everything sent in it has been ingested.
pub struct Segment<'a> {
    /// Updates sent (and, with no drops, ingested) in the segment.
    pub updates: u64,
    /// From the previous segment's last `EvalRes` to this one's, s.
    pub wall_s: f64,
    /// Freshness of the segment's evaluated rounds, ms.
    pub fresh_ms: &'a [f64],
}

impl Measured {
    /// The phase's segments: runs of evaluated rounds, as equal in
    /// length as the count allows.
    pub fn segments(&self, spec: &ServeSpec) -> Vec<Segment<'_>> {
        let evals = self.fresh_ms.len();
        let n = (evals / SEGMENT_SAMPLES).clamp(1, MAX_SEGMENTS).min(evals);
        let per_eval = (spec.eval_every * spec.churn_per_round()) as u64;
        (0..n)
            .map(|k| {
                let (from, to) = (k * evals / n, (k + 1) * evals / n);
                let began = if from == 0 {
                    0.0
                } else {
                    self.eval_at_s[from - 1]
                };
                Segment {
                    updates: (to - from) as u64 * per_eval,
                    wall_s: self.eval_at_s[to - 1] - began,
                    fresh_ms: &self.fresh_ms[from..to],
                }
            })
            .collect()
    }
}

/// A run whose fixed work takes this many times its nominal seconds is
/// cut short at the next cadence cycle, so a slow spell of the host
/// cannot push the runs past the harness's time limits. Work is
/// otherwise never scaled by time.
pub const GIVE_UP_FACTOR: f64 = 1.6;

/// Runs `rounds` rounds of the closed loop: each round steps the fleet,
/// sends its updates, closes a window and asks for an evaluation on
/// their cadences, and waits for every reply before the next round
/// starts. A round is due the moment the previous one's replies are in.
pub fn run_closed<L: Link>(
    c: &mut Client<'_, L>,
    spec: &ServeSpec,
    gen: &mut Gen,
    rounds: usize,
    give_up_after: Option<Duration>,
) -> Result<Measured, DriveError> {
    let mut m = Measured::default();
    let started = Instant::now();
    for r in 1..=rounds {
        let due = Instant::now();
        c.link.tracer().set_round(r);
        c.link.tracer().enter("bench.round");
        c.link.tracer().enter("workload.churn.step");
        let (t, updates) = gen.step();
        c.link.tracer().exit();
        c.send_updates(t, updates)?;
        if r % spec.window_every == 0 {
            c.close_window(t, spec.window_every as f64 * DT_S)?;
        }
        if r % spec.eval_every == 0 {
            let asked = Instant::now();
            c.eval(t)?;
            m.eval_ms.push(asked.elapsed().as_secs_f64() * 1e3);
            m.fresh_ms.push(due.elapsed().as_secs_f64() * 1e3);
            m.eval_at_s.push(started.elapsed().as_secs_f64());
        }
        c.link.tracer().exit();
        m.rounds = r;
        if r == spec.check_round {
            m.checkpoint = c.tally.clone();
        }
        if r >= spec.check_round
            && r % spec.cycle() == 0
            && give_up_after.is_some_and(|limit| started.elapsed() > limit)
        {
            m.cut_short = r < rounds;
            break;
        }
    }
    c.link.tracer().set_round(m.rounds + 1);
    m.report_json = c.report()?;
    m.wall_s = started.elapsed().as_secs_f64();
    m.tally = c.tally.clone();
    Ok(m)
}
