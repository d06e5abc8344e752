//! Loopback battery: the same storm driven over a real TCP socket and
//! through [`InprocTransport`] must produce bit-identical deterministic
//! report cores — the wire adds bytes, not behavior. And a raw-mode
//! (`shed = false`) scenario replay must digest-match the in-process
//! `ReferenceTimeline` on the same seed, tying the networked façade to
//! the pipeline the rest of the repo trusts.
//!
//! The session ingests an update when its one admission ledger admits
//! it, so the last tests hold the ingest to the queue books: under tail
//! drop the books conserve and the wire agrees; frames that change no
//! answer move no chain, with or without tail drop; and the default
//! queue capacity admits a default storm whole.
//! The last one holds the socket loop to decoding as it reads: a client
//! that writes faster than the server handles never piles up in the
//! server's decoder.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use lira_core::telemetry::json::Json;
use lira_core::telemetry::TelemetrySnapshot;
use lira_serve::protocol::{
    digest_round, Frame, WireQuery, WireUpdate, HEADER_LEN, MAX_PAYLOAD, UPDATE_WIRE_LEN,
};
use lira_serve::server::{serve, ServeOptions, READ_CHUNK};
use lira_serve::session::{ServeConfig, SessionCore};
use lira_serve::storm::{
    run_storm, run_storm_trace, InprocTransport, StormConfig, TcpTransport, TraceStormConfig,
    Transport,
};
use lira_sim::pipeline::{SimPipeline, SimSetup};
use lira_workload::catalog::NamedScenario;

/// Spawns a one-connection server on an ephemeral port, runs `storm`
/// against it over TCP, and returns what the storm returned.
fn run_over_tcp<F, R>(cfg: ServeConfig, storm: F) -> R
where
    F: FnOnce(&mut TcpTransport) -> R + Send,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("bound addr");
    let server = std::thread::spawn(move || {
        let mut session = SessionCore::new(cfg);
        let opts = ServeOptions {
            exit_after_conns: Some(1),
            ..ServeOptions::default()
        };
        serve(listener, &mut session, &opts).expect("serve loop");
        session.protocol_errors()
    });
    let stream = TcpStream::connect(addr).expect("connect");
    let mut transport = TcpTransport::new(stream).expect("transport");
    let report = storm(&mut transport);
    drop(transport);
    let protocol_errors = server.join().expect("server thread");
    assert_eq!(
        protocol_errors, 0,
        "a clean client causes no protocol errors"
    );
    report
}

#[test]
fn tcp_and_inproc_churn_runs_are_bit_identical() {
    let mut cfg = ServeConfig::new(2_000.0, 1_500);
    cfg.num_regions = 49; // small adapt grids keep the test quick
    let mut storm_cfg = StormConfig::new(1_500, 2_000.0);
    storm_cfg.rounds = 18;
    storm_cfg.eval_every = 6;
    storm_cfg.window_every = 6;
    storm_cfg.batch_cap = 400; // force multi-batch rounds

    let tcp = run_over_tcp(cfg.clone(), |t| {
        run_storm(t, &storm_cfg).expect("tcp storm")
    });
    let mut inproc_t = InprocTransport::new(SessionCore::new(cfg));
    let inproc = run_storm(&mut inproc_t, &storm_cfg).expect("inproc storm");

    // The deterministic report core is a pure function of the frame
    // stream; identical streams ⇒ identical strings, byte for byte.
    assert_eq!(tcp.deterministic_core(), inproc.deterministic_core());
    assert_eq!(tcp.digest, inproc.digest);
    assert_eq!(tcp.updates_sent, inproc.updates_sent);
    assert_eq!(tcp.shed_at_source, inproc.shed_at_source);
    assert_eq!(tcp.batches, inproc.batches);
    assert_eq!(tcp.plans_received, inproc.plans_received);
    assert_eq!(tcp.plan_epoch, inproc.plan_epoch);
    // THROTLOOP windows closed and plans were actually broadcast —
    // the run exercised adaptation, not just ingest.
    assert!(tcp.plans_received > 0, "windows must broadcast plans");
    assert!(tcp.digest != 0, "evaluation rounds must have run");
}

/// Builds the serve config + storm inputs for a catalog scenario the
/// same way the `lira-storm --scenario NAME --tiny --raw` CLI does.
fn scenario_fixture(
    named: NamedScenario,
    seed: u64,
) -> (
    ServeConfig,
    lira_sim::pipeline::TrafficTrace,
    Vec<WireQuery>,
    TraceStormConfig,
    lira_workload::scenario::Scenario,
    SimSetup,
) {
    let sc = named.tiny(seed);
    let mut setup = SimSetup::build(&sc, false);
    let trace = setup.record_trace(&sc);
    let queries: Vec<WireQuery> = setup.queries.iter().map(WireQuery::from_query).collect();
    let eval_every = (sc.eval_period_s / sc.dt).round().max(1.0) as usize;

    let mut cfg = ServeConfig::new(sc.space_side, sc.num_cars);
    cfg.num_regions = 49;
    cfg.delta_min = sc.delta_min;
    cfg.delta_max = sc.delta_max;
    // Digest-tie runs must not tail-drop: give the queue headroom for
    // every update between drains.
    cfg.queue_capacity = 1 << 20;

    let tcfg = TraceStormConfig {
        delta_min: sc.delta_min,
        eval_every_ticks: eval_every,
        window_every_ticks: eval_every,
        shed: false,
        batch_cap: 10_000,
        expected_bounds: Some(sc.bounds()),
    };
    (cfg, trace, queries, tcfg, sc, setup)
}

#[test]
fn scenario_raw_replay_digest_ties_to_the_reference_timeline() {
    let (cfg, trace, queries, tcfg, sc, setup) = scenario_fixture(NamedScenario::PaperWorld, 7);

    let mut inproc_t = InprocTransport::new(SessionCore::new(cfg.clone()));
    let report =
        run_storm_trace(&mut inproc_t, &trace, queries.clone(), &tcfg).expect("inproc trace storm");

    // The reference pipeline on the same trace, same engine family.
    let reference = SimPipeline::new().reference(&trace, &setup, &sc);
    assert_eq!(
        report.updates_sent, reference.reference_updates,
        "raw mode sends exactly the reference's unshed update volume"
    );

    // Fold the reference's evaluation rounds through the same digest the
    // server maintains; raw replay must land on the identical value.
    let mut digest = 0u64;
    for frame in &reference.frames {
        digest = digest_round(digest, frame.time, &frame.results);
    }
    assert!(!reference.frames.is_empty(), "scenario must evaluate");
    assert_eq!(
        report.digest, digest,
        "networked evaluation digests must match the in-process reference"
    );
    assert_eq!(report.eval_rounds as usize, reference.frames.len());

    // And the socket changes none of it.
    let tcp = run_over_tcp(cfg, |t| {
        run_storm_trace(t, &trace, queries, &tcfg).expect("tcp trace storm")
    });
    assert_eq!(tcp.digest, digest);
    assert_eq!(tcp.deterministic_core(), report.deterministic_core());
}

#[test]
fn welcome_bounds_mismatch_fails_fast() {
    let (cfg, trace, queries, mut tcfg, _sc, _setup) =
        scenario_fixture(NamedScenario::FlashCrowd, 11);
    // Lie about the expected world: the driver must refuse to replay.
    tcfg.expected_bounds = Some(lira_core::geometry::Rect::from_coords(
        0.0, 0.0, 123.0, 123.0,
    ));
    let mut inproc_t = InprocTransport::new(SessionCore::new(cfg));
    let err = run_storm_trace(&mut inproc_t, &trace, queries, &tcfg)
        .expect_err("bounds mismatch must be fatal");
    assert!(
        err.to_string().contains("mismatch"),
        "unexpected error: {err}"
    );
}

/// One `WindowAck`'s controller output: `(z bits, λ bits, µ, dropped,
/// adapted)`.
type AckChain = Vec<(u64, u64, f64, u64, u8)>;

/// Frames a [`Recording`] slips in behind the storm's back.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Extra {
    /// None.
    Plain,
    /// A `SetSlice` after every `WindowClose`.
    SetSliceAfterWindows,
    /// A `ReportReq` after every `Batch`: one more drain point.
    ReportAfterBatches,
}

/// Wraps a transport and keeps what the server answered at each drain
/// point: every `WindowAck` (its depth, and its controller output) and
/// every `EvalRes.digest`, in order, while sending the `extra` frames the
/// storm never sees.
struct Recording<'a, T> {
    inner: &'a mut T,
    extra: Extra,
    held: VecDeque<Frame>,
    depths: Vec<u64>,
    acks: AckChain,
    digests: Vec<u64>,
}

impl<'a, T: Transport> Recording<'a, T> {
    fn new(inner: &'a mut T, extra: Extra) -> Self {
        Recording {
            inner,
            extra,
            held: VecDeque::new(),
            depths: Vec::new(),
            acks: Vec::new(),
            digests: Vec::new(),
        }
    }
}

impl<T: Transport> Transport for Recording<'_, T> {
    fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.inner.send(frame)?;
        let extra = match (self.extra, frame) {
            (Extra::SetSliceAfterWindows, Frame::WindowClose { .. }) => Frame::SetSlice {
                slice: self.acks.len() as u32,
                shard: 1,
            },
            (Extra::ReportAfterBatches, Frame::Batch { .. }) => Frame::ReportReq,
            _ => return Ok(()),
        };
        self.inner.send(&extra)?;
        loop {
            match self.inner.recv()? {
                Frame::Ack { .. } | Frame::ReportRes { .. } => return Ok(()),
                other => self.held.push_back(other),
            }
        }
    }

    fn recv(&mut self) -> std::io::Result<Frame> {
        let frame = match self.held.pop_front() {
            Some(frame) => frame,
            None => self.inner.recv()?,
        };
        match &frame {
            Frame::WindowAck {
                depth,
                z,
                lambda,
                mu,
                dropped,
                adapted,
                ..
            } => {
                self.depths.push(*depth);
                self.acks
                    .push((z.to_bits(), lambda.to_bits(), *mu, *dropped, *adapted));
            }
            Frame::EvalRes { digest, .. } => self.digests.push(*digest),
            _ => {}
        }
        Ok(frame)
    }
}

/// An in-process transport that, at every drain point it forwards, notes
/// how many updates the session admitted since the previous drain point
/// — what the next `WindowAck.depth` must say.
struct Ledger {
    inner: InprocTransport,
    admitted_at_drain: u64,
    expected_depths: Vec<u64>,
}

impl Transport for Ledger {
    fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        if matches!(
            frame,
            Frame::EvalReq { .. } | Frame::WindowClose { .. } | Frame::ReportReq
        ) {
            let report = Json::parse(&self.inner.session().deterministic_json()).unwrap();
            let admitted = report.get("updates_admitted").unwrap().as_u64().unwrap();
            if matches!(frame, Frame::WindowClose { .. }) {
                self.expected_depths.push(admitted - self.admitted_at_drain);
            }
            self.admitted_at_drain = admitted;
        }
        self.inner.send(frame)
    }

    fn recv(&mut self) -> std::io::Result<Frame> {
        self.inner.recv()
    }
}

/// A report's deterministic core and its `serve.queue.wait_us` count.
fn core_and_waits(server_json: &str) -> (Json, u64) {
    let report = Json::parse(server_json).expect("report parses");
    let core = report.get("deterministic").unwrap().clone();
    let tel = TelemetrySnapshot::from_json(&report.get("telemetry").unwrap().to_string())
        .expect("telemetry parses");
    let waits = tel
        .histogram("serve.queue.wait_us")
        .expect("wait histogram");
    (core, waits.count)
}

/// Under tail drop the books are the paper's queue books however the engine ingests: every received update
/// is admitted or dropped, each `WindowAck.depth` is what was admitted
/// since the previous drain point, one wait sample is taken per
/// admitted update — and TCP and in-process runs agree on all of it.
///
/// The pins were captured at one shard when the session still ingested
/// at the drain points: the same books and the same digests, whenever
/// the engine takes the update. The `WindowAck` chain — `(z bits, λ
/// bits, µ, lifetime drops, adapted)` per window — was captured while the
/// session still ran its own copy of the THROTLOOP window, before it
/// moved onto the shared governor.
#[test]
fn tail_drop_books_conserve_and_tcp_matches_inproc() {
    let pinned: AckChain = vec![
        (0x3fe0000000000000, 0x4088a20000000000, 150.0, 2641, 1),
        (0x3fd13acf914c1bad, 0x4071580000000000, 150.0, 3239, 1),
        (0x3fc9a5c003dc30c4, 0x4069180000000000, 150.0, 3530, 1),
        (0x3fc01e3f68fcc6b9, 0x406db80000000000, 150.0, 3969, 1),
        (0x3fd01e3f68fcc6b9, 0x4051600000000000, 150.0, 3969, 1),
        (0x3fc01e3f68fcc6b9, 0x4074980000000000, 150.0, 4775, 1),
    ];
    let (digest, admitted, dropped) = ("350c5d9a72d33574", 2_838, 4_775);
    let mut cfg = ServeConfig::new(2_000.0, 2_000);
    cfg.num_regions = 49;
    cfg.queue_capacity = 256;
    cfg.service_rate = 150.0;
    let mut storm_cfg = StormConfig::new(2_000, 2_000.0);
    storm_cfg.rounds = 24;
    storm_cfg.churn_frac = 0.2;
    storm_cfg.eval_every = 2;
    storm_cfg.window_every = 4;
    storm_cfg.batch_cap = 150;
    storm_cfg.seed = 5;

    let (tcp, tcp_depths, tcp_acks, tcp_digests) = run_over_tcp(cfg.clone(), |t| {
        let mut rec = Recording::new(t, Extra::Plain);
        let report = run_storm(&mut rec, &storm_cfg).expect("tcp storm");
        (report, rec.depths, rec.acks, rec.digests)
    });
    let mut ledger = Ledger {
        inner: InprocTransport::new(SessionCore::new(cfg)),
        admitted_at_drain: 0,
        expected_depths: Vec::new(),
    };
    let mut rec = Recording::new(&mut ledger, Extra::Plain);
    let inproc = run_storm(&mut rec, &storm_cfg).expect("inproc storm");
    let (depths, acks, digests) = (rec.depths, rec.acks, rec.digests);

    assert_eq!(tcp.deterministic_core(), inproc.deterministic_core());
    assert_eq!((&tcp_depths, &tcp_digests), (&depths, &digests));
    assert_eq!(tcp_acks, acks);
    assert_eq!(acks, pinned);
    assert_eq!(depths, ledger.expected_depths);
    assert_eq!(depths.len(), 24 / 4);
    assert_eq!(format!("{:016x}", inproc.digest), digest);

    for json in [&tcp.server_json, &inproc.server_json] {
        let (core, waits) = core_and_waits(json);
        let field = |k: &str| core.get(k).unwrap().as_u64().unwrap();
        assert_eq!(
            (field("updates_admitted"), field("updates_dropped")),
            (admitted, dropped)
        );
        assert_eq!(field("updates_rx"), admitted + dropped);
        assert_eq!(waits, admitted, "one wait sample per admitted update");
        assert!(core.get("z").unwrap().as_f64().unwrap() < 1.0);
    }
}

/// What one in-process storm answered: the `EvalRes` digest chain, the
/// `WindowAck` chain and the updates the ledger dropped.
fn storm_record(
    cfg: ServeConfig,
    storm_cfg: &StormConfig,
    extra: Extra,
) -> (Vec<u64>, AckChain, u64) {
    let mut inproc = InprocTransport::new(SessionCore::new(cfg));
    let mut rec = Recording::new(&mut inproc, extra);
    let report = run_storm(&mut rec, storm_cfg).expect("inproc storm");
    let core = Json::parse(&report.deterministic_core()).unwrap();
    let dropped = core.get("updates_dropped").unwrap().as_u64().unwrap();
    (rec.digests, rec.acks, dropped)
}

/// Frames that change no answer move no chain: over a few seeds, with
/// `B` never binding and with a 256-slot `B` that tail-drops, a
/// `SetSlice` after every window (a no-op) leaves the `EvalRes` digest
/// chain and the `WindowAck` chain as the storm's frames alone make
/// them; and with no drop, so does a `ReportReq` after every `Batch`
/// (an extra drain point, which moves only the books' timing).
#[test]
fn set_slice_and_report_frames_move_no_chain() {
    for seed in [5, 11, 23] {
        for queue_capacity in [1 << 20, 256] {
            let mut storm_cfg = StormConfig::new(1_000, 2_000.0);
            storm_cfg.rounds = 12;
            storm_cfg.churn_frac = 0.3;
            storm_cfg.eval_every = 2;
            storm_cfg.window_every = 3;
            // Above B, so a 256-slot ledger drops even when every
            // `Batch` is followed by a drain point.
            storm_cfg.batch_cap = 400;
            storm_cfg.seed = seed;
            let run = |extra| {
                let mut cfg = ServeConfig::new(2_000.0, 1_000);
                cfg.num_regions = 49;
                cfg.queue_capacity = queue_capacity;
                cfg.service_rate = 150.0;
                storm_record(cfg, &storm_cfg, extra)
            };
            let case = format!("seed {seed}, B {queue_capacity}");
            let plain = run(Extra::Plain);
            assert_eq!(plain.0.len(), 12 / 2, "{case}");
            assert_eq!(plain.1.len(), 12 / 3, "{case}");
            assert_eq!(plain.2 > 0, queue_capacity == 256, "{case}");
            assert_eq!(run(Extra::SetSliceAfterWindows), plain, "{case}, SetSlice");
            let (digests, acks, dropped) = run(Extra::ReportAfterBatches);
            assert_eq!(dropped > 0, queue_capacity == 256, "{case}, ReportReq");
            if dropped == 0 {
                assert_eq!((digests, acks), (plain.0, plain.1), "{case}, ReportReq");
            }
        }
    }
}

/// A default storm against a default session over the same fleet drops
/// nothing: the storm primes every node before its first drain point
/// and re-reports half the fleet in the first window, and the default
/// `B` of twice the fleet holds all of it.
#[test]
fn default_queue_capacity_admits_a_default_storm() {
    let nodes = 2_000;
    let cfg = ServeConfig::new(2_000.0, nodes);
    let storm_cfg = StormConfig::new(nodes, 2_000.0);
    let mut inproc = InprocTransport::new(SessionCore::new(cfg));
    let report = run_storm(&mut inproc, &storm_cfg).expect("inproc storm");
    let core = Json::parse(&report.deterministic_core()).unwrap();
    let field = |k: &str| core.get(k).unwrap().as_u64().unwrap();
    assert!(field("updates_rx") > nodes as u64);
    assert_eq!(field("updates_dropped"), 0);
    assert_eq!(field("updates_admitted"), field("updates_rx"));
}

/// A client that writes 32 MiB of `Batch` frames before it reads a byte:
/// the server decodes each chunk as it reads it, so its decoder never
/// holds more than one chunk plus the tail of one frame — here a 72 kB
/// frame, far under the general bound of two chunks and one
/// `MAX_PAYLOAD` frame — and the wire still changes nothing: the core
/// equals the in-process run of the same frames.
#[test]
fn a_fast_writer_is_decoded_as_it_is_read() {
    let nodes = 50_000u32;
    let mut cfg = ServeConfig::new(2_000.0, nodes as usize);
    cfg.num_regions = 49;
    cfg.queue_capacity = 1 << 20;
    let per_batch = 2_000u32;
    let batches = (32 << 20) / (per_batch as usize * UPDATE_WIRE_LEN) + 1;
    let frames: Vec<Frame> = [
        Frame::Hello { flags: 0 },
        Frame::Register {
            queries: vec![WireQuery {
                id: 7,
                min_x: 250.0,
                min_y: 500.0,
                max_x: 1_250.0,
                max_y: 1_750.0,
            }],
        },
    ]
    .into_iter()
    .chain((0..batches).map(|b| {
        Frame::Batch {
            t: b as f64 * 0.01,
            updates: (0..per_batch)
                .map(|i| {
                    let id = (b as u32 * per_batch + i) % nodes;
                    let (x, y) = ((id * 37 % 2_000) as f64, (id * 53 % 2_000) as f64);
                    WireUpdate {
                        id,
                        x,
                        y,
                        vx: (b % 7) as f64 - 3.0,
                        vy: 1.5,
                    }
                })
                .collect(),
        }
    }))
    .chain([
        Frame::EvalReq {
            t: batches as f64 * 0.01,
        },
        Frame::ReportReq,
        Frame::Bye,
    ])
    .collect();
    let widest = frames.iter().map(|f| f.encode().len()).max().unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("bound addr");
    let server_cfg = cfg.clone();
    let server = std::thread::spawn(move || {
        let mut session = SessionCore::new(server_cfg);
        let opts = ServeOptions {
            exit_after_conns: Some(1),
            ..ServeOptions::default()
        };
        let summary = serve(listener, &mut session, &opts).expect("serve loop");
        (summary, session.deterministic_json())
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut written = 0;
    for frame in &frames {
        let bytes = frame.encode();
        stream.write_all(&bytes).expect("write");
        written += bytes.len();
    }
    assert!(written >= 32 << 20, "{written} B written");
    let mut replies = Vec::new();
    stream.read_to_end(&mut replies).expect("read replies");
    let (summary, tcp_core) = server.join().expect("server thread");

    assert_eq!(summary.protocol_closes, 0);
    let high = summary.decoder_high_water;
    assert!(
        high <= 2 * READ_CHUNK + HEADER_LEN + MAX_PAYLOAD,
        "the decoder held {high} B"
    );
    assert!(
        high < READ_CHUNK + widest,
        "the decoder held {high} B: more than one read and one {widest} B frame"
    );

    let mut inproc = InprocTransport::new(SessionCore::new(cfg));
    for frame in &frames {
        inproc.send(frame).expect("inproc send");
    }
    assert_eq!(tcp_core, inproc.session().deterministic_json());
    let core = Json::parse(&tcp_core).unwrap();
    let field = |k: &str| core.get(k).unwrap().as_u64().unwrap();
    assert_eq!(field("updates_admitted"), batches as u64 * per_batch as u64);
    assert_eq!(field("eval_rounds"), 1);
}
