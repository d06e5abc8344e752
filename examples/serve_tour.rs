//! Serve tour: the networked façade, frame by frame.
//!
//! Boots `lira-serve`'s session loop on an ephemeral localhost port and
//! walks the whole wire protocol by hand — handshake, query
//! registration, batched updates, a THROTLOOP window with a plan
//! broadcast, an evaluation round and the session report — then lets
//! `lira-storm`'s churn driver loose on the same server to show
//! sustained throughput. Byte-level protocol spec:
//! docs/WIRE.md; operator's guide: docs/OPERATIONS.md.
//!
//! Run with: `cargo run --release --example serve_tour`

use std::net::{TcpListener, TcpStream};

use lira_serve::protocol::{Frame, WireQuery, WireUpdate, HELLO_SUBSCRIBE_PLANS};
use lira_serve::server::{serve, ServeOptions};
use lira_serve::session::{ServeConfig, SessionCore};
use lira_serve::storm::{run_storm, StormConfig, TcpTransport, Transport};

fn main() {
    // --- Boot a server on an ephemeral port, two connections' worth. --
    let cfg = ServeConfig::new(2_000.0, 5_000);
    println!(
        "== lira-serve: {}×{} m, queue B = {}, µ = {}/s\n",
        cfg.bounds.max.x, cfg.bounds.max.y, cfg.queue_capacity, cfg.service_rate
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn({
        let cfg = cfg.clone();
        move || {
            let mut session = SessionCore::new(cfg);
            let opts = ServeOptions {
                exit_after_conns: Some(2),
                ..ServeOptions::default()
            };
            serve(listener, &mut session, &opts).expect("serve loop");
            session.telemetry_snapshot()
        }
    });

    // --- Connection 1: the protocol by hand. ---------------------------
    let mut t = TcpTransport::new(TcpStream::connect(addr).expect("connect")).expect("transport");

    t.send(&Frame::Hello {
        flags: HELLO_SUBSCRIBE_PLANS,
    })
    .unwrap();
    let Frame::Welcome {
        session,
        queue_capacity,
        default_delta,
        ..
    } = t.recv().unwrap()
    else {
        panic!("expected Welcome");
    };
    println!(
        "Hello → Welcome: session {session}, B = {queue_capacity}, default Δ = {default_delta} m"
    );

    t.send(&Frame::Register {
        queries: vec![
            WireQuery {
                id: 0,
                min_x: 0.0,
                min_y: 0.0,
                max_x: 500.0,
                max_y: 500.0,
            },
            WireQuery {
                id: 1,
                min_x: 1_000.0,
                min_y: 1_000.0,
                max_x: 1_800.0,
                max_y: 1_800.0,
            },
        ],
    })
    .unwrap();
    assert!(matches!(t.recv().unwrap(), Frame::Ack { .. }));
    println!("Register(2 queries) → Ack");

    // Overdrive the queue: every node reports three times, λ far above µ
    // forces THROTLOOP to throttle, and what exceeds B is tail-dropped.
    let nodes = cfg.num_nodes as u32;
    let updates: Vec<WireUpdate> = (0..nodes * 3)
        .map(|i| WireUpdate {
            id: i % nodes,
            x: (i % 40) as f64 * 50.0 + 5.0,
            y: (i / 40 % 40) as f64 * 50.0 + 5.0,
            vx: 3.0,
            vy: 0.0,
        })
        .collect();
    let n = updates.len();
    t.send(&Frame::Batch { t: 0.0, updates }).unwrap();
    println!("Batch({n} updates at t = 0)");

    t.send(&Frame::WindowClose {
        t: 1.0,
        window_s: 1.0,
    })
    .unwrap();
    let Frame::WindowAck {
        z,
        lambda,
        mu,
        dropped,
        adapted,
        ..
    } = t.recv().unwrap()
    else {
        panic!("expected WindowAck");
    };
    println!(
        "WindowClose → WindowAck: λ = {lambda:.0}/s vs µ = {mu:.0}/s ⇒ z = {z:.3} \
         ({dropped} tail-dropped, adapted = {adapted})"
    );
    if adapted == 1 {
        let Frame::Plan {
            epoch,
            regions,
            default_delta,
            ..
        } = t.recv().unwrap()
        else {
            panic!("expected the plan broadcast after the ack");
        };
        println!(
            "Plan broadcast: epoch {epoch}, {} regions × 16 B, default Δ = {default_delta} m",
            regions.len() / 16
        );
    }

    t.send(&Frame::EvalReq { t: 1.0 }).unwrap();
    let Frame::EvalRes {
        round,
        results,
        digest,
        ..
    } = t.recv().unwrap()
    else {
        panic!("expected EvalRes");
    };
    println!("EvalReq → EvalRes: round {round}, {results} result sets, digest {digest:016x}");

    t.send(&Frame::ReportReq).unwrap();
    let Frame::ReportRes { json } = t.recv().unwrap() else {
        panic!("expected ReportRes");
    };
    println!("ReportReq → ReportRes ({} bytes of JSON)", json.len());
    t.send(&Frame::Bye).unwrap();
    drop(t);

    // --- Connection 2: the storm driver, end to end. -------------------
    let mut storm_cfg = StormConfig::new(5_000, 2_000.0);
    storm_cfg.rounds = 25;
    let mut t = TcpTransport::new(TcpStream::connect(addr).expect("connect")).expect("transport");
    let report = run_storm(&mut t, &storm_cfg).expect("storm");
    drop(t);
    println!(
        "\n== lira-storm: {} updates in {:.3} s ⇒ {:.0} updates/s sustained",
        report.updates_sent, report.wall_s, report.sustained_ups
    );
    println!(
        "   {} shed at source under {} broadcast plans (last epoch {}), digest {:016x}",
        report.shed_at_source, report.plans_received, report.plan_epoch, report.digest
    );

    // --- What the server saw (telemetry; names in docs/TELEMETRY.md). --
    let snapshot = server.join().expect("server thread");
    println!("\n== server telemetry");
    for name in [
        "serve.rx.frames",
        "serve.rx.updates",
        "serve.queue.dropped",
        "serve.plan.broadcasts",
    ] {
        if let Some(c) = snapshot.counters.iter().find(|c| c.name == name) {
            println!("   {:<24} {:>10} {}", c.name, c.value, c.unit);
        }
    }
    if let Some(h) = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "serve.queue.wait_us")
    {
        println!(
            "   {:<24} p50 {:?} µs  p99 {:?} µs  ({} samples)",
            h.name,
            h.quantile(0.5).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
            h.count
        );
    }
}
