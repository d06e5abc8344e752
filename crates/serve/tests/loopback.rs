//! Loopback battery: the same storm driven over a real TCP socket and
//! through [`InprocTransport`] must produce bit-identical deterministic
//! report cores — the wire adds bytes, not behavior. And a raw-mode
//! (`shed = false`) scenario replay must digest-match the in-process
//! `ReferenceTimeline` on the same seed, tying the networked façade to
//! the pipeline the rest of the repo trusts.
//!
//! The session ingests an update when its shard's queue admits it, so
//! the last two tests hold the moved ingest to the queue books: under
//! tail drop the books conserve and the wire agrees, and with no drop
//! the digest chain depends neither on the shard count nor on how often
//! the client drains.

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};

use lira_core::telemetry::json::Json;
use lira_core::telemetry::TelemetrySnapshot;
use lira_serve::protocol::{digest_round, Frame, WireQuery};
use lira_serve::server::{serve, ServeOptions};
use lira_serve::session::{ServeConfig, SessionCore};
use lira_serve::storm::{
    run_storm, run_storm_trace, InprocTransport, StormConfig, TcpTransport, TraceStormConfig,
    Transport,
};
use lira_server::cq_engine::EvalEngine;
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
    cfg.shards = 2;
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
    cfg.shards = 2;
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
    let reference = SimPipeline::new()
        .with_engine(EvalEngine::Unified { shards: cfg.shards })
        .reference(&trace, &setup, &sc);
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

/// Drives a fixed Batch/EvalReq/WindowClose script against a fresh
/// session built from `cfg`, optionally calling `between_windows` after
/// every `WindowClose`, and returns the parsed deterministic report.
/// Update volume is skewed (a few hot ids carry most of the traffic) so
/// the slice→shard table starts imbalanced, and stays far below queue
/// capacity so routing changes cannot alter the drop pattern.
fn run_skewed_script<F>(cfg: ServeConfig, mut between_windows: F) -> Json
where
    F: FnMut(&mut SessionCore, u32, u64),
{
    use lira_serve::protocol::WireUpdate;
    // Two hot ids that the FNV slice hash routes to the *same* shard
    // under the initial round-robin table, so the skew piles onto one
    // queue instead of cancelling out.
    let table = lira_serve::slices::SliceTable::new(cfg.slices, cfg.shards);
    let mut hot_ids = (1u32..1000).filter(|&id| table.shard_of(id) == 0);
    let hot = [hot_ids.next().unwrap(), hot_ids.next().unwrap()];
    let mut s = SessionCore::new(cfg);
    let conn = s.open_conn();
    s.handle(conn, Frame::Hello { flags: 0 });
    s.handle(
        conn,
        Frame::Register {
            queries: vec![WireQuery {
                id: 0,
                min_x: 0.0,
                min_y: 0.0,
                max_x: 600.0,
                max_y: 600.0,
            }],
        },
    );
    for round in 0..6u64 {
        let t = round as f64;
        let mut updates = Vec::new();
        // Two hot nodes send 40 updates each per round; forty cold nodes
        // send one each — per-slice admission counts are heavily skewed.
        for rep in 0..40u32 {
            for hot in hot {
                updates.push(WireUpdate {
                    id: hot,
                    x: 100.0 + (rep as f64),
                    y: 100.0,
                    vx: 1.0,
                    vy: 0.0,
                });
            }
        }
        for cold in 10..50u32 {
            updates.push(WireUpdate {
                id: cold,
                x: (cold as f64) * 18.0,
                y: 700.0,
                vx: 0.0,
                vy: 1.0,
            });
        }
        s.handle(conn, Frame::Batch { t, updates });
        s.handle(conn, Frame::EvalReq { t });
        s.handle(
            conn,
            Frame::WindowClose {
                t: t + 1.0,
                window_s: 1.0,
            },
        );
        between_windows(&mut s, conn, round);
    }
    Json::parse(&s.deterministic_json()).expect("report parses")
}

#[test]
fn digest_is_unchanged_across_live_setslice_rewrites() {
    let mut cfg = ServeConfig::new(1_000.0, 100);
    cfg.shards = 2;
    cfg.slices = 8;
    cfg.queue_capacity = 1 << 16; // no tail-drops: admits mirror the skew

    let plain = run_skewed_script(cfg.clone(), |_, _, _| {});
    // Same frame script, but the client live-rewrites the slice→shard
    // table between windows — ping-ponging every slice across shards.
    let rewritten = run_skewed_script(cfg, |s, conn, round| {
        for slice in 0..8u32 {
            let out = s.handle(
                conn,
                Frame::SetSlice {
                    slice,
                    shard: ((slice + round as u32) % 2),
                },
            );
            assert!(
                matches!(out.replies[0], Frame::Ack { .. }),
                "rewrite must be accepted: {:?}",
                out.replies[0]
            );
        }
    });

    // Routing moved, results did not: the evaluation digest and every
    // load-bearing counter agree bit for bit.
    for key in [
        "digest",
        "eval_rounds",
        "last_results",
        "updates_admitted",
        "updates_dropped",
        "windows",
    ] {
        assert_eq!(
            plain.get(key),
            rewritten.get(key),
            "{key} must not change under live SetSlice rewrites"
        );
    }
    assert_ne!(
        plain.get("digest").unwrap().as_str(),
        Some("0000000000000000"),
        "the script must actually evaluate something"
    );
    assert_eq!(rewritten.get("slice_rewrites").unwrap().as_u64(), Some(48));
    assert_eq!(plain.get("slice_rewrites").unwrap().as_u64(), Some(0));
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

/// Wraps a transport and keeps what the server answered at each drain
/// point: every `WindowAck` (its depth, and its controller output) and
/// every `EvalRes.digest`, in order. With `report_after_batches`, it also
/// follows every `Batch` with a `ReportReq` — one more drain point the
/// storm never sees.
struct Recording<'a, T> {
    inner: &'a mut T,
    report_after_batches: bool,
    held: VecDeque<Frame>,
    depths: Vec<u64>,
    acks: AckChain,
    digests: Vec<u64>,
}

impl<'a, T: Transport> Recording<'a, T> {
    fn new(inner: &'a mut T, report_after_batches: bool) -> Self {
        Recording {
            inner,
            report_after_batches,
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
        if self.report_after_batches && matches!(frame, Frame::Batch { .. }) {
            self.inner.send(&Frame::ReportReq)?;
            loop {
                match self.inner.recv()? {
                    Frame::ReportRes { .. } => break,
                    other => self.held.push_back(other),
                }
            }
        }
        Ok(())
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

/// Under tail drop, at one shard and at three, the books are the
/// paper's queue books however the engine ingests: every received update
/// is admitted or dropped, each `WindowAck.depth` is what was admitted
/// since the previous drain point, one wait sample is taken per
/// admitted update — and TCP and in-process runs agree on all of it.
///
/// The pins were captured when the session still ingested at the drain
/// points: the same books and the same digests, whenever the engine
/// takes the update. The `WindowAck` chains — `(z bits, λ bits, µ,
/// lifetime drops, adapted)` per window — were captured while the
/// session still ran its own copy of the THROTLOOP window, before it
/// moved onto the shared governor.
#[test]
fn tail_drop_books_conserve_and_tcp_matches_inproc() {
    let one_shard: AckChain = vec![
        (0x3fe0000000000000, 0x4088a20000000000, 150.0, 2641, 1),
        (0x3fd13acf914c1bad, 0x4071580000000000, 150.0, 3239, 1),
        (0x3fc9a5c003dc30c4, 0x4069180000000000, 150.0, 3530, 1),
        (0x3fc01e3f68fcc6b9, 0x406db80000000000, 150.0, 3969, 1),
        (0x3fd01e3f68fcc6b9, 0x4051600000000000, 150.0, 3969, 1),
        (0x3fc01e3f68fcc6b9, 0x4074980000000000, 150.0, 4775, 1),
    ];
    let three_shards: AckChain = vec![
        (0x3fe0000000000000, 0x4088a20000000000, 150.0, 2643, 1),
        (0x3fd12af91b1ddfd4, 0x4071680000000000, 150.0, 3247, 1),
        (0x3fca1bac0cd74378, 0x4068900000000000, 150.0, 3523, 1),
        (0x3fc04e05740e8f47, 0x406de80000000000, 150.0, 3970, 1),
        (0x3fd04e05740e8f47, 0x4052100000000000, 150.0, 3970, 1),
        (0x3fc04e05740e8f47, 0x4074100000000000, 150.0, 4744, 1),
    ];
    let pins = [
        (1, "350c5d9a72d33574", 2_838, 4_775, one_shard),
        (3, "2a7516b6d663ca2d", 2_839, 4_744, three_shards),
    ];
    for (shards, digest, admitted, dropped, chain) in pins {
        let mut cfg = ServeConfig::new(2_000.0, 2_000);
        cfg.shards = shards;
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
            let mut rec = Recording::new(t, false);
            let report = run_storm(&mut rec, &storm_cfg).expect("tcp storm");
            (report, rec.depths, rec.acks, rec.digests)
        });
        let mut ledger = Ledger {
            inner: InprocTransport::new(SessionCore::new(cfg)),
            admitted_at_drain: 0,
            expected_depths: Vec::new(),
        };
        let mut rec = Recording::new(&mut ledger, false);
        let inproc = run_storm(&mut rec, &storm_cfg).expect("inproc storm");
        let (depths, acks, digests) = (rec.depths, rec.acks, rec.digests);

        assert_eq!(tcp.deterministic_core(), inproc.deterministic_core());
        assert_eq!((&tcp_depths, &tcp_digests), (&depths, &digests));
        assert_eq!(tcp_acks, acks);
        assert_eq!(acks, chain, "{shards} shards");
        assert_eq!(depths, ledger.expected_depths, "{shards} shards");
        assert_eq!(depths.len(), 24 / 4);
        assert_eq!(format!("{:016x}", inproc.digest), digest);

        for json in [&tcp.server_json, &inproc.server_json] {
            let (core, waits) = core_and_waits(json);
            let field = |k: &str| core.get(k).unwrap().as_u64().unwrap();
            assert_eq!(
                (field("updates_admitted"), field("updates_dropped")),
                (admitted, dropped),
                "{shards} shards"
            );
            assert_eq!(field("updates_rx"), admitted + dropped);
            assert_eq!(waits, admitted, "one wait sample per admitted update");
            assert!(core.get("z").unwrap().as_f64().unwrap() < 1.0);
        }
    }
}

/// With `B` never binding, the engine and the stats grid see every update
/// in arrival order whatever the shard count, so the digest chain — and
/// with it the plans the storm sheds under — is the same at 1, 2 and 4
/// shards. Extra drain points change the books' timing, not their sums:
/// a `ReportReq` after every `Batch` leaves the chain where it was.
#[test]
fn digest_chain_is_independent_of_shards_and_extra_drain_points() {
    let mut storm_cfg = StormConfig::new(1_500, 2_000.0);
    storm_cfg.rounds = 16;
    storm_cfg.churn_frac = 0.3;
    storm_cfg.eval_every = 2;
    // λ is summed over the shards' window counts divided by `window_s`;
    // a power of two keeps each quotient, and so the sum, exact.
    storm_cfg.window_every = 4;
    storm_cfg.batch_cap = 300;
    let run = |shards: usize, report_after_batches: bool| {
        let mut cfg = ServeConfig::new(2_000.0, 1_500);
        cfg.shards = shards;
        cfg.num_regions = 49;
        cfg.queue_capacity = 1 << 20;
        let mut inproc = InprocTransport::new(SessionCore::new(cfg));
        let mut rec = Recording::new(&mut inproc, report_after_batches);
        let report = run_storm(&mut rec, &storm_cfg).expect("inproc storm");
        let core = Json::parse(&report.deterministic_core()).unwrap();
        let books: Vec<String> = [
            "digest",
            "eval_rounds",
            "last_results",
            "updates_rx",
            "updates_admitted",
            "updates_dropped",
            "windows",
            "z",
            "plan_epoch",
            "plan_bytes",
        ]
        .iter()
        .map(|k| format!("{k}={}", core.get(k).unwrap()))
        .collect();
        (rec.digests, books, report.plans_received)
    };
    let (digests, books, plans) = run(1, false);
    assert_eq!(digests.len(), 16 / 2);
    assert!(plans > 0, "the storm must shed under broadcast plans");
    assert!(books.contains(&"updates_dropped=0".to_string()));
    for (shards, extra) in [(2, false), (4, false), (1, true), (4, true)] {
        let (d, b, p) = run(shards, extra);
        assert_eq!(d, digests, "{shards} shards, extra drain points: {extra}");
        assert_eq!(b, books, "{shards} shards, extra drain points: {extra}");
        assert_eq!(p, plans);
    }
}
