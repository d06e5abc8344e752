//! The `lira-serve` socket loop: a hand-rolled, single-threaded,
//! non-blocking accept/read/process/write loop over `std::net` — the
//! offline build has no async runtime, and one thread is exactly what
//! determinism wants (frames are processed in a well-defined order:
//! connection index, then stream order).
//!
//! Slow-client handling: output is buffered per connection and flushed
//! opportunistically; a client that stops reading accumulates buffer up
//! to `MAX_OUTBUF` and is then disconnected (see
//! `docs/OPERATIONS.md` § failure modes). A client that sends
//! undecodable bytes gets one `Error` frame and is disconnected.
//!
//! Input is decoded as it is read: the loop reads one [`READ_CHUNK`],
//! handles every complete frame in the connection's decoder, and reads
//! again only while the last read filled the chunk. A decoder therefore
//! never holds more than one chunk plus the tail of one frame — at most
//! `READ_CHUNK + HEADER_LEN + MAX_PAYLOAD` bytes — however fast the
//! client writes. ([`ServeSummary::decoder_high_water`] reports what it
//! reached.)

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use crate::protocol::Decoder;
use crate::protocol::{Frame, ERR_PROTOCOL, HELLO_SUBSCRIBE_PLANS};
use crate::session::SessionCore;

/// Per-connection outbound buffer cap; beyond this the client is deemed
/// stuck and disconnected (a stuck subscriber must not wedge the loop).
pub(crate) const MAX_OUTBUF: usize = 64 * 1024 * 1024;

/// Bytes read from a connection at a time; the frames they complete are
/// handled before the next read.
pub const READ_CHUNK: usize = 256 * 1024;

/// Options for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Exit once this many connections have been accepted *and* all of
    /// them have closed (`None` = run until the process is killed).
    pub exit_after_conns: Option<usize>,
    /// Sleep when an iteration made no progress (keeps the idle loop off
    /// the CPU without adding meaningful latency).
    pub idle_sleep: Duration,
    /// Print per-connection lifecycle lines to stderr.
    pub verbose: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            exit_after_conns: None,
            idle_sleep: Duration::from_micros(50),
            verbose: false,
        }
    }
}

/// What [`serve`] saw over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub accepted: usize,
    /// Connections force-closed for protocol violations.
    pub protocol_closes: usize,
    /// Connections force-closed for exceeding `MAX_OUTBUF`.
    pub overflow_closes: usize,
    /// The most bytes any connection's decoder held at once: read but
    /// not yet handled (module docs).
    pub decoder_high_water: usize,
}

struct Conn {
    stream: TcpStream,
    decoder: Decoder,
    outbuf: Vec<u8>,
    out_pos: usize,
    id: u32,
    subscribed: bool,
    /// Peer sent `Bye` or violated the protocol: close once flushed.
    closing: bool,
    /// Read side saw EOF or a hard error.
    dead: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.outbuf.len() - self.out_pos
    }

    fn queue(&mut self, frame: &Frame) {
        self.outbuf.extend_from_slice(&frame.encode());
        // Compact lazily once the flushed prefix dominates.
        if self.out_pos > 0 && self.out_pos * 2 > self.outbuf.len() {
            self.outbuf.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }
}

/// Runs the serve loop over an already-bound listener until the exit
/// condition in `opts` is met. The listener is switched to non-blocking
/// mode; the session core outlives the call (so a caller can harvest its
/// report).
pub fn serve(
    listener: TcpListener,
    session: &mut SessionCore,
    opts: &ServeOptions,
) -> std::io::Result<ServeSummary> {
    listener.set_nonblocking(true)?;
    let mut conns: Vec<Conn> = Vec::new();
    let mut summary = ServeSummary {
        accepted: 0,
        protocol_closes: 0,
        overflow_closes: 0,
        decoder_high_water: 0,
    };
    let mut read_buf = vec![0u8; READ_CHUNK];

    loop {
        let mut progressed = false;

        // Accept everything waiting.
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    stream.set_nonblocking(true)?;
                    stream.set_nodelay(true)?;
                    let id = session.open_conn();
                    if opts.verbose {
                        eprintln!("serve: conn {id} from {peer}");
                    }
                    conns.push(Conn {
                        stream,
                        decoder: Decoder::new(),
                        outbuf: Vec::new(),
                        out_pos: 0,
                        id,
                        subscribed: false,
                        closing: false,
                        dead: false,
                    });
                    summary.accepted += 1;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }

        // Read + process, one connection at a time, in accept order: one
        // chunk, then every frame it completed, then the next chunk while
        // the kernel keeps them full.
        for ci in 0..conns.len() {
            while !(conns[ci].dead || conns[ci].closing) {
                let full = match conns[ci].stream.read(&mut read_buf) {
                    Ok(0) => {
                        conns[ci].dead = true;
                        false
                    }
                    Ok(n) => {
                        let decoder = &mut conns[ci].decoder;
                        decoder.push(&read_buf[..n]);
                        summary.decoder_high_water =
                            summary.decoder_high_water.max(decoder.buffered());
                        progressed = true;
                        n == read_buf.len()
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => false,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conns[ci].dead = true;
                        false
                    }
                };
                // A connection that hit EOF or an error still has its
                // complete frames handled.
                progressed |= handle_frames(&mut conns, ci, session, &mut summary, opts);
                if !full {
                    break;
                }
            }
        }

        // Flush output buffers.
        for c in conns.iter_mut() {
            if c.dead {
                continue;
            }
            while c.pending_out() > 0 {
                match c.stream.write(&c.outbuf[c.out_pos..]) {
                    Ok(0) => {
                        c.dead = true;
                        break;
                    }
                    Ok(n) => {
                        c.out_pos += n;
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                }
            }
            if c.pending_out() > MAX_OUTBUF {
                // Slow client: it has stopped reading while subscribed to
                // a fast broadcast stream. Cut it loose.
                c.dead = true;
            }
        }
        summary.overflow_closes += conns
            .iter()
            .filter(|c| c.dead && c.pending_out() > MAX_OUTBUF)
            .count();

        // Reap: closing conns leave once flushed; dead conns leave now.
        conns.retain(|c| !(c.dead || (c.closing && c.pending_out() == 0)));

        if let Some(target) = opts.exit_after_conns {
            if summary.accepted >= target && conns.is_empty() {
                return Ok(summary);
            }
        }
        if !progressed {
            std::thread::sleep(opts.idle_sleep);
        }
    }
}

/// Decodes and handles every complete frame in connection `ci`'s decoder,
/// in stream order, stopping at a `Bye` or a protocol violation (which
/// mark the connection closing). Returns whether it handled any frame.
fn handle_frames(
    conns: &mut [Conn],
    ci: usize,
    session: &mut SessionCore,
    summary: &mut ServeSummary,
    opts: &ServeOptions,
) -> bool {
    let mut handled = false;
    while !conns[ci].closing {
        let buffered_before = conns[ci].decoder.buffered();
        match conns[ci].decoder.next() {
            Ok(Some(frame)) => {
                handled = true;
                let wire_len = buffered_before - conns[ci].decoder.buffered();
                let id = conns[ci].id;
                session.note_frame(id, &frame, wire_len);
                if let Frame::Hello { flags } = &frame {
                    conns[ci].subscribed = flags & HELLO_SUBSCRIBE_PLANS != 0;
                }
                let is_bye = matches!(frame, Frame::Bye);
                let out = session.handle(id, frame);
                for f in &out.replies {
                    conns[ci].queue(f);
                }
                if !out.broadcast.is_empty() {
                    for c in conns.iter_mut() {
                        if c.subscribed && !c.dead {
                            for f in &out.broadcast {
                                c.queue(f);
                            }
                        }
                    }
                }
                conns[ci].closing = is_bye;
            }
            Ok(None) => break,
            Err(e) => {
                let id = conns[ci].id;
                session.note_protocol_error(id);
                let err = Frame::Error {
                    code: ERR_PROTOCOL,
                    message: e.to_string(),
                };
                conns[ci].queue(&err);
                conns[ci].closing = true;
                summary.protocol_closes += 1;
                if opts.verbose {
                    eprintln!("serve: conn {id} protocol error: {e}");
                }
            }
        }
    }
    handled
}
