//! The LIRA wire protocol: length-prefixed binary frames over a byte
//! stream (see `docs/WIRE.md` for the byte-level specification, kept in
//! sync with this module by a doc-test).
//!
//! Design constraints, in order:
//!
//! 1. **Compact plans.** Shedding-plan broadcasts use the paper's
//!    16 B/region encoding verbatim ([`SheddingPlan::encode`]), so a
//!    plan frame costs `28 + 16·regions` bytes on the wire.
//! 2. **Exact updates.** Position updates carry `f64` coordinates
//!    (36 B/update): the façade must be *bit-identical* to the
//!    in-process pipeline, so ingest precision is never rounded. The
//!    `f32` compactness trade applies only to plan regions, where the
//!    paper makes it.
//! 3. **Hand-rolled.** No serde, no tokio — the build is offline and
//!    the codec is ~400 lines of explicit little-endian arithmetic that
//!    a doc can specify byte-by-byte.

use lira_core::geometry::Rect;
use lira_core::plan::SheddingPlan;
use lira_server::query::RangeQuery;

/// Frame magic: ASCII `"RL"` read little-endian as `0x4C52` ("LR").
pub(crate) const MAGIC: u16 = 0x4C52;
/// Protocol version carried in every frame header.
pub(crate) const VERSION: u8 = 1;
/// Fixed header length: magic (2) + version (1) + kind (1) + payload length (4).
pub const HEADER_LEN: usize = 8;
/// Hard payload cap; larger declared lengths are a protocol error. Batches
/// beyond this are split by the sender (~233k updates fit).
pub const MAX_PAYLOAD: usize = 8 * 1024 * 1024;
/// Wire size of one position update: id (4) + x, y, vx, vy (4 × 8).
pub const UPDATE_WIRE_LEN: usize = 36;
/// Wire size of one plan region (the paper's format): min-x, min-y, side,
/// throttler, each `f32` little-endian.
pub(crate) const REGION_WIRE_LEN: usize = 16;

/// `Hello.flags` bit 0: subscribe this connection to plan broadcasts.
pub const HELLO_SUBSCRIBE_PLANS: u32 = 1;

/// Error-frame code: the peer sent a frame the session cannot accept in
/// its current state (e.g. a server-bound kind sent to a client).
pub(crate) const ERR_UNEXPECTED: u16 = 1;
/// Error-frame code: a structurally valid frame carried invalid values
/// (slice/shard out of range, malformed plan regions, …).
pub(crate) const ERR_INVALID: u16 = 2;
/// Error-frame code: the byte stream itself was malformed; the server
/// closes the connection after sending this.
pub(crate) const ERR_PROTOCOL: u16 = 3;

/// One position update as it crosses the wire (36 bytes, little-endian).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireUpdate {
    /// Node id.
    pub id: u32,
    /// Motion-model origin x (meters).
    pub x: f64,
    /// Motion-model origin y (meters).
    pub y: f64,
    /// Velocity x (m/s).
    pub vx: f64,
    /// Velocity y (m/s).
    pub vy: f64,
}

/// One continual range query as registered over the wire (36 bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireQuery {
    /// Stable query id.
    pub id: u32,
    /// Range min x.
    pub min_x: f64,
    /// Range min y.
    pub min_y: f64,
    /// Range max x.
    pub max_x: f64,
    /// Range max y.
    pub max_y: f64,
}

impl WireQuery {
    /// Converts to the engine's query type.
    pub fn to_query(self) -> RangeQuery {
        RangeQuery {
            id: self.id,
            range: Rect::from_coords(self.min_x, self.min_y, self.max_x, self.max_y),
        }
    }

    /// Converts from the engine's query type.
    pub fn from_query(q: &RangeQuery) -> Self {
        WireQuery {
            id: q.id,
            min_x: q.range.min.x,
            min_y: q.range.min.y,
            max_x: q.range.max.x,
            max_y: q.range.max.y,
        }
    }
}

/// A decoded protocol frame. Client→server kinds: `Hello`, `Register`,
/// `Batch`, `EvalReq`, `WindowClose`, `SetSlice`, `ReportReq`, `Bye`.
/// Server→client kinds: `Welcome`, `EvalRes`, `WindowAck`, `Plan`,
/// `Ack`, `ReportRes`, `Error`.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session open. `flags` bit 0 ([`HELLO_SUBSCRIBE_PLANS`]) subscribes
    /// the connection to shedding-plan broadcasts.
    Hello {
        /// Option bits.
        flags: u32,
    },
    /// Server's reply to `Hello`: the session parameters a client needs
    /// to shed at source and validate its world against the server's.
    Welcome {
        /// Server-assigned session id (connection ordinal).
        session: u32,
        /// Always 1: the session has one admission ledger and routes
        /// nothing (the field stays until the next protocol version).
        slices: u32,
        /// Engine stripes: always 1, the one the engine evaluates.
        shards: u32,
        /// Bounded-queue capacity `B` (updates).
        queue_capacity: u32,
        /// The plan default Δ (meters): the throttler clients assume
        /// before the first plan broadcast.
        default_delta: f64,
        /// Monitored space `[min-x, min-y, max-x, max-y]`.
        bounds: [f64; 4],
    },
    /// Replace the registered continual-query set.
    Register {
        /// The full query set (replaces any previous registration).
        queries: Vec<WireQuery>,
    },
    /// A batch of position updates observed at sim-time `t`.
    Batch {
        /// Simulation timestamp the updates were observed at.
        t: f64,
        /// The updates, in send order.
        updates: Vec<WireUpdate>,
    },
    /// Drain the input queue's books and evaluate all queries at
    /// sim-time `t`.
    EvalReq {
        /// Evaluation timestamp.
        t: f64,
    },
    /// Evaluation result summary (results stay server-side; the digest
    /// commits to them bit-exactly).
    EvalRes {
        /// Evaluation timestamp (echoed).
        t: f64,
        /// 1-based evaluation round ordinal.
        round: u64,
        /// Number of query results in this round.
        results: u64,
        /// Rolling FNV-1a digest over all rounds so far (see
        /// [`digest_round`]).
        digest: u64,
    },
    /// Close a THROTLOOP observation window of `window_s` seconds ending
    /// at sim-time `t`.
    WindowClose {
        /// Window end timestamp.
        t: f64,
        /// Window length in seconds (λ is measured over it).
        window_s: f64,
    },
    /// Server's reply to `WindowClose`: the controller observation and
    /// the new throttle.
    WindowAck {
        /// Window end timestamp (echoed).
        t: f64,
        /// New throttle fraction `z` after this observation.
        z: f64,
        /// Measured arrival rate λ (updates/s) over the window.
        lambda: f64,
        /// Provisioned service rate µ (updates/s).
        mu: f64,
        /// Updates admitted since the last drain point: the input
        /// queue's depth when the `WindowClose` arrived.
        depth: u64,
        /// Total updates dropped at the queue since session start.
        dropped: u64,
        /// 1 if this window triggered a plan adaptation (a `Plan` frame
        /// follows to subscribers), else 0.
        adapted: u8,
    },
    /// A shedding-plan broadcast: `regions` is the paper's 16 B/region
    /// encoding ([`SheddingPlan::encode`]), decoded against the session
    /// bounds with `default_delta`.
    Plan {
        /// Monotone plan epoch (0 = the initial uniform plan).
        epoch: u64,
        /// Sim-time the plan was computed at.
        t: f64,
        /// Default Δ for positions outside every region.
        default_delta: f64,
        /// `16·n` bytes of region records.
        regions: Vec<u8>,
    },
    /// A no-op, always acknowledged: it once rewrote a slice→shard
    /// routing entry, and stays on the wire until the next protocol
    /// version deletes it.
    SetSlice {
        /// Slice index (ignored).
        slice: u32,
        /// Target shard (ignored).
        shard: u32,
    },
    /// Positive acknowledgement of the frame kind `of`.
    Ack {
        /// The acknowledged request's kind code.
        of: u8,
    },
    /// Request the session report (deterministic core + telemetry).
    ReportReq,
    /// The session report as UTF-8 JSON.
    ReportRes {
        /// Report body (see `docs/OPERATIONS.md`).
        json: String,
    },
    /// Orderly close. The server flushes and closes the connection.
    Bye,
    /// The peer did something wrong; `code` is one of the `ERR_*`
    /// constants.
    Error {
        /// Machine-readable error class.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
}

/// Frame kind codes (the `kind` header byte).
pub mod kind {
    /// `Hello`.
    pub(crate) const HELLO: u8 = 1;
    /// `Welcome`.
    pub(crate) const WELCOME: u8 = 2;
    /// `Register`.
    pub(crate) const REGISTER: u8 = 3;
    /// `Batch`.
    pub(crate) const BATCH: u8 = 4;
    /// `EvalReq`.
    pub(crate) const EVAL_REQ: u8 = 5;
    /// `EvalRes`.
    pub(crate) const EVAL_RES: u8 = 6;
    /// `WindowClose`.
    pub(crate) const WINDOW_CLOSE: u8 = 7;
    /// `WindowAck`.
    pub(crate) const WINDOW_ACK: u8 = 8;
    /// `Plan`.
    pub(crate) const PLAN: u8 = 9;
    /// `SetSlice`.
    pub(crate) const SET_SLICE: u8 = 10;
    /// `Ack`.
    pub(crate) const ACK: u8 = 11;
    /// `ReportReq`.
    pub(crate) const REPORT_REQ: u8 = 12;
    /// `ReportRes`.
    pub(crate) const REPORT_RES: u8 = 13;
    /// `Bye`.
    pub(crate) const BYE: u8 = 14;
    /// `Error`.
    pub(crate) const ERROR: u8 = 15;
}

/// A wire-protocol violation. The decoder returns these instead of
/// panicking; the server answers with an `Error` frame and closes.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Header magic was not `MAGIC`.
    BadMagic(u16),
    /// Header version was not `VERSION`.
    BadVersion(u8),
    /// Unassigned kind code.
    UnknownKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversize(u32),
    /// Payload shorter than its kind requires, or an inner count
    /// inconsistent with the payload length.
    Truncated {
        /// Frame kind being decoded.
        kind: u8,
        /// What the decoder was reading when the bytes ran out.
        context: &'static str,
    },
    /// Payload longer than its kind consumes.
    TrailingBytes {
        /// Frame kind being decoded.
        kind: u8,
        /// Unconsumed byte count.
        extra: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8 {
        /// Frame kind being decoded.
        kind: u8,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad magic 0x{m:04x} (want 0x{MAGIC:04x})"),
            WireError::BadVersion(v) => write!(f, "unsupported version {v} (want {VERSION})"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversize(n) => write!(f, "payload length {n} exceeds {MAX_PAYLOAD}"),
            WireError::Truncated { kind, context } => {
                write!(f, "kind {kind}: payload truncated reading {context}")
            }
            WireError::TrailingBytes { kind, extra } => {
                write!(f, "kind {kind}: {extra} trailing payload bytes")
            }
            WireError::BadUtf8 { kind } => write!(f, "kind {kind}: string field is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------- encode

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

impl Frame {
    /// This frame's kind code.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => kind::HELLO,
            Frame::Welcome { .. } => kind::WELCOME,
            Frame::Register { .. } => kind::REGISTER,
            Frame::Batch { .. } => kind::BATCH,
            Frame::EvalReq { .. } => kind::EVAL_REQ,
            Frame::EvalRes { .. } => kind::EVAL_RES,
            Frame::WindowClose { .. } => kind::WINDOW_CLOSE,
            Frame::WindowAck { .. } => kind::WINDOW_ACK,
            Frame::Plan { .. } => kind::PLAN,
            Frame::SetSlice { .. } => kind::SET_SLICE,
            Frame::Ack { .. } => kind::ACK,
            Frame::ReportReq => kind::REPORT_REQ,
            Frame::ReportRes { .. } => kind::REPORT_RES,
            Frame::Bye => kind::BYE,
            Frame::Error { .. } => kind::ERROR,
        }
    }

    /// Encodes the complete frame (header + payload) for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        debug_assert!(payload.len() <= MAX_PAYLOAD, "frame exceeds MAX_PAYLOAD");
        let mut e = Enc {
            buf: Vec::with_capacity(HEADER_LEN + payload.len()),
        };
        e.u16(MAGIC);
        e.u8(VERSION);
        e.u8(self.kind());
        e.u32(payload.len() as u32);
        e.buf.extend_from_slice(&payload);
        e.buf
    }

    /// Encodes just the payload bytes (no header).
    pub(crate) fn encode_payload(&self) -> Vec<u8> {
        let mut e = Enc { buf: Vec::new() };
        match self {
            Frame::Hello { flags } => e.u32(*flags),
            Frame::Welcome {
                session,
                slices,
                shards,
                queue_capacity,
                default_delta,
                bounds,
            } => {
                e.u32(*session);
                e.u32(*slices);
                e.u32(*shards);
                e.u32(*queue_capacity);
                e.f64(*default_delta);
                for b in bounds {
                    e.f64(*b);
                }
            }
            Frame::Register { queries } => {
                e.u32(queries.len() as u32);
                for q in queries {
                    e.u32(q.id);
                    e.f64(q.min_x);
                    e.f64(q.min_y);
                    e.f64(q.max_x);
                    e.f64(q.max_y);
                }
            }
            Frame::Batch { t, updates } => {
                e.f64(*t);
                e.u32(updates.len() as u32);
                for u in updates {
                    e.u32(u.id);
                    e.f64(u.x);
                    e.f64(u.y);
                    e.f64(u.vx);
                    e.f64(u.vy);
                }
            }
            Frame::EvalReq { t } => e.f64(*t),
            Frame::EvalRes {
                t,
                round,
                results,
                digest,
            } => {
                e.f64(*t);
                e.u64(*round);
                e.u64(*results);
                e.u64(*digest);
            }
            Frame::WindowClose { t, window_s } => {
                e.f64(*t);
                e.f64(*window_s);
            }
            Frame::WindowAck {
                t,
                z,
                lambda,
                mu,
                depth,
                dropped,
                adapted,
            } => {
                e.f64(*t);
                e.f64(*z);
                e.f64(*lambda);
                e.f64(*mu);
                e.u64(*depth);
                e.u64(*dropped);
                e.u8(*adapted);
            }
            Frame::Plan {
                epoch,
                t,
                default_delta,
                regions,
            } => {
                e.u64(*epoch);
                e.f64(*t);
                e.f64(*default_delta);
                e.u32((regions.len() / REGION_WIRE_LEN) as u32);
                e.buf.extend_from_slice(regions);
            }
            Frame::SetSlice { slice, shard } => {
                e.u32(*slice);
                e.u32(*shard);
            }
            Frame::Ack { of } => e.u8(*of),
            Frame::ReportReq | Frame::Bye => {}
            Frame::ReportRes { json } => {
                e.u32(json.len() as u32);
                e.buf.extend_from_slice(json.as_bytes());
            }
            Frame::Error { code, message } => {
                e.u16(*code);
                e.u32(message.len() as u32);
                e.buf.extend_from_slice(message.as_bytes());
            }
        }
        e.buf
    }
}

// ---------------------------------------------------------------- decode

struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
    kind: u8,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.bytes.len() {
            return Err(WireError::Truncated {
                kind: self.kind,
                context,
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self, c: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, c)?[0])
    }
    fn u16(&mut self, c: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, c)?.try_into().unwrap()))
    }
    fn u32(&mut self, c: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, c)?.try_into().unwrap()))
    }
    fn u64(&mut self, c: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, c)?.try_into().unwrap()))
    }
    fn f64(&mut self, c: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8, c)?.try_into().unwrap()))
    }
    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.bytes.len() {
            return Err(WireError::TrailingBytes {
                kind: self.kind,
                extra: self.bytes.len() - self.pos,
            });
        }
        Ok(())
    }
}

/// Decodes one payload of the given kind. Rejects unknown kinds,
/// truncated fields, inconsistent inner counts, and trailing bytes.
pub(crate) fn decode_payload(kind_code: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cur {
        bytes: payload,
        pos: 0,
        kind: kind_code,
    };
    let frame = match kind_code {
        kind::HELLO => Frame::Hello {
            flags: c.u32("flags")?,
        },
        kind::WELCOME => Frame::Welcome {
            session: c.u32("session")?,
            slices: c.u32("slices")?,
            shards: c.u32("shards")?,
            queue_capacity: c.u32("queue_capacity")?,
            default_delta: c.f64("default_delta")?,
            bounds: [
                c.f64("bounds")?,
                c.f64("bounds")?,
                c.f64("bounds")?,
                c.f64("bounds")?,
            ],
        },
        kind::REGISTER => {
            let n = c.u32("query count")? as usize;
            let mut queries = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                queries.push(WireQuery {
                    id: c.u32("query id")?,
                    min_x: c.f64("query rect")?,
                    min_y: c.f64("query rect")?,
                    max_x: c.f64("query rect")?,
                    max_y: c.f64("query rect")?,
                });
            }
            Frame::Register { queries }
        }
        kind::BATCH => {
            let t = c.f64("t")?;
            let n = c.u32("update count")? as usize;
            let mut updates = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                updates.push(WireUpdate {
                    id: c.u32("update id")?,
                    x: c.f64("update fields")?,
                    y: c.f64("update fields")?,
                    vx: c.f64("update fields")?,
                    vy: c.f64("update fields")?,
                });
            }
            Frame::Batch { t, updates }
        }
        kind::EVAL_REQ => Frame::EvalReq { t: c.f64("t")? },
        kind::EVAL_RES => Frame::EvalRes {
            t: c.f64("t")?,
            round: c.u64("round")?,
            results: c.u64("results")?,
            digest: c.u64("digest")?,
        },
        kind::WINDOW_CLOSE => Frame::WindowClose {
            t: c.f64("t")?,
            window_s: c.f64("window_s")?,
        },
        kind::WINDOW_ACK => Frame::WindowAck {
            t: c.f64("t")?,
            z: c.f64("z")?,
            lambda: c.f64("lambda")?,
            mu: c.f64("mu")?,
            depth: c.u64("depth")?,
            dropped: c.u64("dropped")?,
            adapted: c.u8("adapted")?,
        },
        kind::PLAN => {
            let epoch = c.u64("epoch")?;
            let t = c.f64("t")?;
            let default_delta = c.f64("default_delta")?;
            let n = c.u32("region count")? as usize;
            let regions = c
                .take(
                    n.checked_mul(REGION_WIRE_LEN).ok_or(WireError::Truncated {
                        kind: kind_code,
                        context: "region count overflow",
                    })?,
                    "region records",
                )?
                .to_vec();
            Frame::Plan {
                epoch,
                t,
                default_delta,
                regions,
            }
        }
        kind::SET_SLICE => Frame::SetSlice {
            slice: c.u32("slice")?,
            shard: c.u32("shard")?,
        },
        kind::ACK => Frame::Ack { of: c.u8("of")? },
        kind::REPORT_REQ => Frame::ReportReq,
        kind::REPORT_RES => {
            let n = c.u32("json length")? as usize;
            let bytes = c.take(n, "json body")?;
            Frame::ReportRes {
                json: String::from_utf8(bytes.to_vec())
                    .map_err(|_| WireError::BadUtf8 { kind: kind_code })?,
            }
        }
        kind::BYE => Frame::Bye,
        kind::ERROR => {
            let code = c.u16("code")?;
            let n = c.u32("message length")? as usize;
            let bytes = c.take(n, "message body")?;
            Frame::Error {
                code,
                message: String::from_utf8(bytes.to_vec())
                    .map_err(|_| WireError::BadUtf8 { kind: kind_code })?,
            }
        }
        other => return Err(WireError::UnknownKind(other)),
    };
    c.finish()?;
    Ok(frame)
}

/// Incremental frame decoder over a byte stream: push read chunks in,
/// pull complete frames out. Partial frames wait for more bytes; any
/// structural violation is returned once and poisons nothing (the caller
/// decides to close).
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    start: usize,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Appends freshly read bytes, first dropping what was decoded: the
    /// buffer then holds the undecoded tail and `bytes`, nothing more.
    /// What moves is the tail of a partial frame, and only after a
    /// frame was decoded (a frame larger than a read is moved once, not
    /// once per read).
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Tries to decode the next complete frame. `Ok(None)` means "need
    /// more bytes".
    #[allow(clippy::should_implement_trait)] // fallible pull, not an Iterator
    pub fn next(&mut self) -> Result<Option<Frame>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = u16::from_le_bytes([avail[0], avail[1]]);
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = avail[2];
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind_code = avail[3];
        let len = u32::from_le_bytes([avail[4], avail[5], avail[6], avail[7]]);
        if len as usize > MAX_PAYLOAD {
            return Err(WireError::Oversize(len));
        }
        let total = HEADER_LEN + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let frame = decode_payload(kind_code, &avail[HEADER_LEN..total])?;
        self.start += total;
        Ok(Some(frame))
    }
}

// ---------------------------------------------------------------- digest

/// The rolling digest an `EvalRes` carries: FNV-1a 64 over each round's
/// bytes, defined beside the engine that folds it
/// ([`CqServer::evaluate_digest`](lira_server::cq_engine::CqServer::evaluate_digest)).
pub use lira_server::digest::{digest_round, fnv1a, FNV_OFFSET, FNV_PRIME};

/// Encodes a [`SheddingPlan`] as a `Plan` frame at `epoch`/`t`.
pub fn plan_frame(plan: &SheddingPlan, epoch: u64, t: f64, default_delta: f64) -> Frame {
    Frame::Plan {
        epoch,
        t,
        default_delta,
        regions: plan.encode(),
    }
}

/// Decodes a `Plan` frame's regions back into a [`SheddingPlan`] over
/// `bounds`. Fails on malformed region records (bad lengths, non-finite
/// or non-positive sides, negative throttlers).
pub fn decode_plan(
    bounds: Rect,
    regions: &[u8],
    default_delta: f64,
) -> Result<SheddingPlan, lira_core::error::LiraError> {
    SheddingPlan::decode(bounds, regions, default_delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lira_server::query::QueryResult;

    fn roundtrip(f: Frame) {
        let bytes = f.encode();
        let mut d = Decoder::new();
        d.push(&bytes);
        let got = d.next().expect("decode").expect("complete");
        assert_eq!(got, f);
        assert_eq!(d.next(), Ok(None), "no spurious second frame");
    }

    #[test]
    fn roundtrip_every_kind() {
        roundtrip(Frame::Hello { flags: 1 });
        roundtrip(Frame::Welcome {
            session: 7,
            slices: 64,
            shards: 4,
            queue_capacity: 1000,
            default_delta: 5.0,
            bounds: [0.0, 0.0, 14_142.0, 14_142.0],
        });
        roundtrip(Frame::Register {
            queries: vec![WireQuery {
                id: 3,
                min_x: 1.0,
                min_y: 2.0,
                max_x: 30.0,
                max_y: 40.0,
            }],
        });
        roundtrip(Frame::Batch {
            t: 12.5,
            updates: vec![
                WireUpdate {
                    id: 42,
                    x: 100.0,
                    y: 200.0,
                    vx: -3.25,
                    vy: 14.0,
                },
                WireUpdate {
                    id: 43,
                    x: 0.0,
                    y: 0.0,
                    vx: 0.0,
                    vy: 0.0,
                },
            ],
        });
        roundtrip(Frame::EvalReq { t: 60.0 });
        roundtrip(Frame::EvalRes {
            t: 60.0,
            round: 1,
            results: 10,
            digest: 0xdead_beef,
        });
        roundtrip(Frame::WindowClose {
            t: 60.0,
            window_s: 10.0,
        });
        roundtrip(Frame::WindowAck {
            t: 60.0,
            z: 0.75,
            lambda: 1000.0,
            mu: 800.0,
            depth: 12,
            dropped: 3,
            adapted: 1,
        });
        let plan = SheddingPlan::uniform(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 5.0);
        roundtrip(plan_frame(&plan, 2, 60.0, 5.0));
        roundtrip(Frame::SetSlice { slice: 9, shard: 1 });
        roundtrip(Frame::Ack { of: kind::REGISTER });
        roundtrip(Frame::ReportReq);
        roundtrip(Frame::ReportRes {
            json: "{\"ok\":true}".into(),
        });
        roundtrip(Frame::Bye);
        roundtrip(Frame::Error {
            code: ERR_INVALID,
            message: "slice out of range".into(),
        });
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let f = Frame::Batch {
            t: 1.0,
            updates: vec![WireUpdate {
                id: 1,
                x: 2.0,
                y: 3.0,
                vx: 4.0,
                vy: 5.0,
            }],
        };
        let bytes = f.encode();
        let mut d = Decoder::new();
        for chunk in bytes.chunks(3) {
            assert_eq!(d.next(), Ok(None));
            d.push(chunk);
        }
        assert_eq!(d.next(), Ok(Some(f)));
    }

    #[test]
    fn garbage_and_truncation_are_rejected() {
        let mut d = Decoder::new();
        d.push(b"GARBAGE!");
        assert!(matches!(d.next(), Err(WireError::BadMagic(_))));

        // Valid magic, wrong version.
        let mut bytes = Frame::Bye.encode();
        bytes[2] = 9;
        let mut d = Decoder::new();
        d.push(&bytes);
        assert_eq!(d.next(), Err(WireError::BadVersion(9)));

        // Unknown kind.
        let mut bytes = Frame::Bye.encode();
        bytes[3] = 200;
        let mut d = Decoder::new();
        d.push(&bytes);
        assert_eq!(d.next(), Err(WireError::UnknownKind(200)));

        // Declared length beyond cap.
        let mut bytes = Frame::Bye.encode();
        bytes[4..8].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        let mut d = Decoder::new();
        d.push(&bytes);
        assert!(matches!(d.next(), Err(WireError::Oversize(_))));

        // Batch whose inner count promises more updates than the payload holds.
        let f = Frame::Batch {
            t: 0.0,
            updates: vec![WireUpdate {
                id: 1,
                x: 0.0,
                y: 0.0,
                vx: 0.0,
                vy: 0.0,
            }],
        };
        let mut bytes = f.encode();
        let count_off = HEADER_LEN + 8;
        bytes[count_off..count_off + 4].copy_from_slice(&5u32.to_le_bytes());
        let mut d = Decoder::new();
        d.push(&bytes);
        assert!(matches!(d.next(), Err(WireError::Truncated { .. })));

        // Payload longer than the kind consumes.
        let mut bytes = Frame::EvalReq { t: 1.0 }.encode();
        bytes.extend_from_slice(&[0u8; 4]);
        bytes[4..8].copy_from_slice(&12u32.to_le_bytes());
        let mut d = Decoder::new();
        d.push(&bytes);
        assert!(matches!(d.next(), Err(WireError::TrailingBytes { .. })));
    }

    #[test]
    fn back_to_back_frames_decode_in_order() {
        let a = Frame::Hello { flags: 1 };
        let b = Frame::EvalReq { t: 2.0 };
        let c = Frame::Bye;
        let mut bytes = a.encode();
        bytes.extend(b.encode());
        bytes.extend(c.encode());
        let mut d = Decoder::new();
        d.push(&bytes);
        assert_eq!(d.next(), Ok(Some(a)));
        assert_eq!(d.next(), Ok(Some(b)));
        assert_eq!(d.next(), Ok(Some(c)));
        assert_eq!(d.next(), Ok(None));
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let r1 = QueryResult {
            query: 0,
            nodes: vec![1, 2, 3],
        };
        let r2 = QueryResult {
            query: 1,
            nodes: vec![4],
        };
        let a = digest_round(0, 1.0, &[r1.clone(), r2.clone()]);
        let b = digest_round(0, 1.0, &[r2.clone(), r1.clone()]);
        assert_ne!(a, b);
        let c = digest_round(0, 2.0, &[r1.clone(), r2.clone()]);
        assert_ne!(a, c);
        assert_eq!(a, digest_round(0, 1.0, &[r1, r2]));
    }

    #[test]
    fn plan_frame_roundtrips_through_the_paper_encoding() {
        use lira_core::plan::PlanRegion;
        let bounds = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let plan = SheddingPlan::new(
            bounds,
            vec![
                PlanRegion {
                    area: Rect::from_coords(0.0, 0.0, 500.0, 500.0),
                    throttler: 12.5,
                },
                PlanRegion {
                    area: Rect::from_coords(500.0, 500.0, 1000.0, 1000.0),
                    throttler: 80.0,
                },
            ],
            5.0,
        );
        let f = plan_frame(&plan, 1, 0.0, 5.0);
        if let Frame::Plan {
            regions,
            default_delta,
            ..
        } = &f
        {
            let decoded = decode_plan(bounds, regions, *default_delta).expect("valid plan");
            assert_eq!(decoded.len(), 2);
            assert_eq!(decoded.encode(), plan.encode());
        } else {
            unreachable!()
        }
    }
}
