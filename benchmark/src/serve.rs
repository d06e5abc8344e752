//! The served workloads: a `lira-serve` child process, one loopback TCP
//! connection, set-up repeated for a median around the measured phase.

use std::path::Path;
use std::time::{Duration, Instant};

use lira_core::geometry::Rect;
use lira_serve::protocol::Frame;

use crate::child::{Server, TcpLink};
use crate::drive::{
    batch_frames, run_closed, Client, DriveError, Gen, Link, Measured, Tally, GIVE_UP_FACTOR,
};
use crate::spec::{ServeSpec, DT_S};

/// One served run, before it is judged.
pub struct Served {
    /// Wall of each set-up: spawn → `Welcome` → `Register` → prime →
    /// first `EvalRes`, s.
    pub setup_s: Vec<f64>,
    /// The tally right after the last set-up.
    pub at_setup: Tally,
    /// The measured phase.
    pub measured: Measured,
    /// Peak resident set of the child, MiB: the highest `VmHWM` any of
    /// the run's servers reached — the discarded ones after set-up, the
    /// measured one just before `Bye`. Priming sets the peak, and how
    /// much of the burst sits in the server's decode buffer at once
    /// depends on timing (201 to 228 MiB at 1 M nodes, in steps as the
    /// buffer doubles), so one server's reading is not steady; the
    /// highest of several is the case where all of it does.
    pub peak_rss_mb: f64,
    /// `VmHWM` right after each set-up, MiB.
    pub rss_after_setup_mb: Vec<f64>,
    /// CPU seconds the child spent during the measured phase.
    pub cpu_s: f64,
}

/// A server that has been set up, with the connection to it.
struct Ready {
    server: Server,
    link: TcpLink,
    gen: Gen,
    /// What the client saw during set-up.
    tally: Tally,
    bounds: Rect,
    /// Spawn → first `EvalRes`, s.
    setup_s: f64,
    /// `VmHWM` right after set-up, MiB.
    rss_mb: f64,
}

impl Ready {
    /// Spawns a server and sets it up.
    fn new(bin: &Path, spec: &ServeSpec, seed: u64) -> Result<Self, DriveError> {
        // Generating the inputs is not part of set-up.
        let mut gen = Gen::new(spec, seed);
        let started = Instant::now();
        let server = Server::spawn(bin, spec)?;
        let mut link = TcpLink::connect(server.addr)?;
        let Client { tally, bounds, .. } = Client::open(&mut link, spec, &mut gen)?;
        let setup_s = started.elapsed().as_secs_f64();
        let rss_mb = server.peak_rss_mb()?;
        Ok(Ready {
            server,
            link,
            gen,
            tally,
            bounds,
            setup_s,
            rss_mb,
        })
    }

    /// `Bye`, then waits for the server to exit by itself.
    fn shut_down(mut self) -> Result<(), DriveError> {
        self.link.send(Frame::Bye)?;
        drop(self.link);
        Ok(self.server.wait_exit()?)
    }
}

/// Runs `spec` against a fresh `lira-serve`, sized for `seconds`. Set-up
/// is done `setups` times, each against its own server: half of them
/// before the measured server's and half after it has gone, so that a
/// slow spell of the host shorter than the run cannot cover them all.
pub fn run_served(
    bin: &Path,
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    setups: usize,
) -> Result<Served, DriveError> {
    let mut setup_s = Vec::with_capacity(setups);
    let mut rss_after_setup = Vec::with_capacity(setups);
    let mut set_up_and_discard = |times: usize| -> Result<(), DriveError> {
        for _ in 0..times {
            let discarded = Ready::new(bin, spec, seed)?;
            setup_s.push(discarded.setup_s);
            rss_after_setup.push(discarded.rss_mb);
            discarded.shut_down()?;
        }
        Ok(())
    };
    let before = setups.saturating_sub(1) / 2;
    set_up_and_discard(before)?;
    let mut ready = Ready::new(bin, spec, seed)?;

    let cpu_before = ready.server.cpu_s()?;
    let rounds = spec.rounds_for(seconds);
    let give_up = Duration::from_secs_f64(GIVE_UP_FACTOR * seconds.max(1.0));
    let mut client = Client {
        link: &mut ready.link,
        tally: ready.tally.clone(),
        bounds: ready.bounds,
    };
    let measured = match spec.period {
        None => run_closed(&mut client, spec, &mut ready.gen, rounds, Some(give_up))?,
        Some(period) => run_paced(&mut client, spec, &mut ready.gen, period, rounds)?,
    };
    let cpu_s = ready.server.cpu_s()? - cpu_before;
    let measured_peak_mb = ready.server.peak_rss_mb()?;
    let at_setup = ready.tally.clone();
    let (measured_setup_s, measured_rss_mb) = (ready.setup_s, ready.rss_mb);
    ready.shut_down()?;
    set_up_and_discard(setups.saturating_sub(1) - before)?;
    setup_s.push(measured_setup_s);
    rss_after_setup.push(measured_rss_mb);
    let peak_rss_mb = rss_after_setup
        .iter()
        .copied()
        .fold(measured_peak_mb, f64::max);
    Ok(Served {
        setup_s,
        at_setup,
        measured,
        peak_rss_mb,
        rss_after_setup_mb: rss_after_setup,
        cpu_s,
    })
}

/// How long before a round is due the sender stops sleeping and spins.
const SPIN: Duration = Duration::from_millis(1);

/// What the reader thread hands back.
struct Replies {
    tally: Tally,
    checkpoint: Tally,
    eval_res_at: Vec<Instant>,
    report_json: String,
    ended: Instant,
}

/// The open loop: round `r` is due at `t0 + r·period` and is sent then,
/// whether or not earlier replies have arrived. One sender (this
/// thread), one reader thread, one connection.
fn run_paced(
    c: &mut Client<'_, TcpLink>,
    spec: &ServeSpec,
    gen: &mut Gen,
    period: Duration,
    rounds: usize,
) -> Result<Measured, DriveError> {
    let mut reader_link = c.link.try_clone()?;
    let bounds = c.bounds;
    let start_tally = c.tally.clone();
    let check_eval = start_tally.eval_rounds + (spec.check_round / spec.eval_every) as u64;
    let reader = std::thread::spawn(move || -> Result<Replies, DriveError> {
        let mut tally = start_tally;
        let mut checkpoint = Tally::default();
        let mut eval_res_at = Vec::new();
        loop {
            let f = reader_link.recv()?;
            let now = Instant::now();
            tally.on_frame(bounds, &f)?;
            match f {
                Frame::EvalRes { .. } => {
                    eval_res_at.push(now);
                    if tally.eval_rounds == check_eval {
                        checkpoint = tally.clone();
                    }
                }
                Frame::ReportRes { json } => {
                    return Ok(Replies {
                        tally,
                        checkpoint,
                        eval_res_at,
                        report_json: json,
                        ended: now,
                    })
                }
                _ => {}
            }
        }
    });

    let t0 = Instant::now();
    let mut sent = c.tally.updates_sent;
    let mut gen_late_ms = Vec::new();
    let mut eval_due = Vec::new();
    let mut eval_asked = Vec::new();
    let sending = (|| -> Result<(), DriveError> {
        for r in 1..=rounds {
            let due = t0 + period * r as u32;
            // Sleep to just short of the due instant, then spin: timer
            // wake-ups on the reference host are late by up to 3 ms.
            if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
                std::thread::sleep(wait);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            gen_late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let (t, updates) = gen.step();
            sent += updates.len() as u64;
            for f in batch_frames(t, updates) {
                c.link.send(f)?;
            }
            if r % spec.window_every == 0 {
                c.link.send(Frame::WindowClose {
                    t,
                    window_s: spec.window_every as f64 * DT_S,
                })?;
            }
            if r % spec.eval_every == 0 {
                c.link.send(Frame::EvalReq { t })?;
                eval_due.push(due);
                eval_asked.push(Instant::now());
            }
        }
        c.link.send(Frame::ReportReq)?;
        Ok(())
    })();
    // On a send error the server is gone or going, so the reader's recv
    // ends too; join it either way before reporting.
    let replies = reader.join().expect("reader thread panicked");
    sending?;
    let replies = replies?;

    if replies.eval_res_at.len() != eval_due.len() {
        return Err(DriveError(format!(
            "{} EvalReq sent, {} EvalRes received",
            eval_due.len(),
            replies.eval_res_at.len()
        )));
    }
    let ms = |from: &[Instant]| -> Vec<f64> {
        replies
            .eval_res_at
            .iter()
            .zip(from)
            .map(|(got, from)| got.duration_since(*from).as_secs_f64() * 1e3)
            .collect()
    };
    let mut tally = replies.tally;
    tally.updates_sent = sent;
    let mut checkpoint = replies.checkpoint;
    checkpoint.updates_sent =
        c.tally.updates_sent + (spec.check_round * spec.churn_per_round()) as u64;
    c.tally = tally.clone();
    Ok(Measured {
        rounds,
        cut_short: false,
        wall_s: replies.ended.duration_since(t0 + period).as_secs_f64(),
        fresh_ms: ms(&eval_due),
        eval_ms: ms(&eval_asked),
        eval_at_s: replies
            .eval_res_at
            .iter()
            .map(|got| got.duration_since(t0 + period).as_secs_f64())
            .collect(),
        gen_late_ms,
        checkpoint,
        tally,
        report_json: replies.report_json,
    })
}
