//! The `lira-serve` child process and the TCP link to it.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

use lira_serve::protocol::{Decoder, Frame};

use crate::drive::Link;
use crate::span::Tracer;
use crate::spec::ServeSpec;

/// A running `lira-serve`, killed and reaped on drop so no run leaves a
/// process behind.
pub struct Server {
    child: Child,
    /// Held open so a later write to stdout cannot fail the server.
    _stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `bin` for `spec` on an ephemeral loopback port and waits
    /// for its `listening on` line.
    pub fn spawn(bin: &Path, spec: &ServeSpec) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(spec.serve_args())
            // The CI matrix hooks must not reconfigure the server under test.
            .env_remove("LIRA_REBALANCE")
            .env_remove("LIRA_TEST_SHARDS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse().ok())
        });
        match addr {
            Some(addr) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "{} did not announce its port (said {line:?})",
                    bin.display()
                )))
            }
        }
    }

    fn proc_file(&self, name: &str) -> io::Result<String> {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id()))
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        vm_hwm_mb(&self.proc_file("status")?)
    }

    /// CPU seconds consumed so far (user + system).
    pub fn cpu_s(&self) -> io::Result<f64> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let ticks: Vec<u64> = rest
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|f| f.parse().ok())
            .collect();
        if ticks.len() != 2 {
            return Err(io::Error::other("unparsable /proc/<pid>/stat"));
        }
        // USER_HZ is 100 on every Linux ABI Rust targets.
        Ok((ticks[0] + ticks[1]) as f64 / 100.0)
    }

    /// Waits for the server to exit by itself (it does once its one
    /// connection has closed); `Err` if it exits unsuccessfully.
    pub fn wait_exit(mut self) -> io::Result<()> {
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("lira-serve exited with {status}")))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Already reaped after `wait_exit`; both calls are then no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Parses `VmHWM` out of a `/proc/<pid>/status` body, in MiB.
pub fn vm_hwm_mb(status: &str) -> io::Result<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// One TCP connection to the server, blocking, `TCP_NODELAY` on.
pub struct TcpLink {
    stream: TcpStream,
    decoder: Decoder,
    buf: Vec<u8>,
    tracer: Tracer,
}

impl TcpLink {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpLink::over(stream))
    }

    fn over(stream: TcpStream) -> Self {
        TcpLink {
            stream,
            decoder: Decoder::new(),
            buf: vec![0u8; 256 * 1024],
            tracer: Tracer::disabled(),
        }
    }

    /// A second handle on the same connection, for a reader thread. Only
    /// one of the two handles may receive.
    pub fn try_clone(&self) -> io::Result<Self> {
        Ok(TcpLink::over(self.stream.try_clone()?))
    }
}

impl Link for TcpLink {
    fn send(&mut self, frame: Frame) -> io::Result<()> {
        self.stream.write_all(&frame.encode())
    }

    fn recv(&mut self) -> io::Result<Frame> {
        loop {
            match self.decoder.next() {
                Ok(Some(f)) => return Ok(f),
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            }
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.decoder.push(&self.buf[..n]);
        }
    }

    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmHWM:\t  307200 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(vm_hwm_mb(status).unwrap(), 300.0);
        assert!(vm_hwm_mb("Name:\tx\n").is_err());
    }
}
