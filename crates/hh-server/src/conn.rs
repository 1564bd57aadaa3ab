//! Deadline-bounded connection plumbing: the transport abstraction over
//! TCP and Unix sockets, and the framed reader/writer that survives
//! slow-loris clients.
//!
//! The failure the deadlines exist for is the *stall*, not the error: a
//! client that sends three bytes of a length prefix and goes silent
//! would otherwise pin a server thread forever. [`DeadlineConn`] bounds
//! every wait three ways:
//!
//! * **idle** — how long to wait *between* frames for the first byte of
//!   the next one. Generous: an idle client is cheap.
//! * **io** — the per-`read`/`write` tick. Short: it only bounds how
//!   long a stall goes unnoticed.
//! * **frame** — the total budget for one frame, enforced against a
//!   monotonic deadline across ticks. A client trickling one byte per
//!   tick (each tick succeeding, so no single timeout fires) still
//!   cannot hold the connection past this.
//!
//! Expiry surfaces as [`ProtocolError::DeadlineExceeded`]; a peer that
//! hangs up cleanly between frames is `Ok(None)`; one that hangs up
//! mid-frame is [`ProtocolError::Truncated`]. The caller drops the
//! connection in every case — there is no protocol resync after a
//! damaged stream.

use crate::proto::{ProtocolError, MAX_FRAME_LEN};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A stream transport the deadline machinery can drive: byte I/O plus
/// socket-level timeouts and shutdown.
pub trait Transport: Read + Write + Send {
    /// Bounds each subsequent `read` call.
    fn set_read_deadline(&self, t: Option<Duration>) -> std::io::Result<()>;
    /// Bounds each subsequent `write` call.
    fn set_write_deadline(&self, t: Option<Duration>) -> std::io::Result<()>;
    /// Closes both directions (used by the reaper to cut a peer loose).
    fn shutdown(&self) -> std::io::Result<()>;
}

impl Transport for TcpStream {
    fn set_read_deadline(&self, t: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(t)
    }
    fn set_write_deadline(&self, t: Option<Duration>) -> std::io::Result<()> {
        self.set_write_timeout(t)
    }
    fn shutdown(&self) -> std::io::Result<()> {
        TcpStream::shutdown(self, std::net::Shutdown::Both)
    }
}

impl Transport for UnixStream {
    fn set_read_deadline(&self, t: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(t)
    }
    fn set_write_deadline(&self, t: Option<Duration>) -> std::io::Result<()> {
        self.set_write_timeout(t)
    }
    fn shutdown(&self) -> std::io::Result<()> {
        UnixStream::shutdown(self, std::net::Shutdown::Both)
    }
}

impl Transport for Box<dyn Transport> {
    fn set_read_deadline(&self, t: Option<Duration>) -> std::io::Result<()> {
        (**self).set_read_deadline(t)
    }
    fn set_write_deadline(&self, t: Option<Duration>) -> std::io::Result<()> {
        (**self).set_write_deadline(t)
    }
    fn shutdown(&self) -> std::io::Result<()> {
        (**self).shutdown()
    }
}

/// The three deadline knobs; see the module docs for what each bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnLimits {
    /// Max wait between frames (slow client allowance).
    pub idle: Duration,
    /// Per-read/write tick (stall detection granularity).
    pub io: Duration,
    /// Total budget for one frame, read or write (trickle ceiling).
    pub frame: Duration,
}

impl Default for ConnLimits {
    fn default() -> Self {
        Self {
            idle: Duration::from_secs(30),
            io: Duration::from_millis(250),
            frame: Duration::from_secs(5),
        }
    }
}

impl ConnLimits {
    /// Tight limits for tests: stalls are detected in tens of
    /// milliseconds instead of seconds.
    pub fn fast() -> Self {
        Self {
            idle: Duration::from_millis(400),
            io: Duration::from_millis(20),
            frame: Duration::from_millis(200),
        }
    }
}

/// A transport wrapped in the three-deadline frame state machine.
pub struct DeadlineConn<T: Transport> {
    inner: T,
    limits: ConnLimits,
    /// Optional server-wide stop flag; when it flips, the idle wait
    /// between frames ends as a clean hang-up within one io tick.
    stop: Option<Arc<AtomicBool>>,
    /// Outgoing frame (prefix + body), reused across writes; see
    /// [`DeadlineConn::write_frame`].
    out: Vec<u8>,
}

/// Largest outgoing-frame buffer a connection keeps between writes. A
/// full ingest batch fits; a rare multi-megabyte snapshot reply is not
/// held for the connection's lifetime.
const KEEP_OUT_BUF: usize = 1 << 20;

impl<T: Transport> DeadlineConn<T> {
    /// Wraps `inner` under `limits`.
    pub fn new(inner: T, limits: ConnLimits) -> Self {
        Self {
            inner,
            limits,
            stop: None,
            out: Vec::new(),
        }
    }

    /// Attaches a stop flag: once it reads `true`, the between-frames
    /// wait in [`DeadlineConn::read_frame`] returns `Ok(None)` (clean
    /// hang-up) within roughly one `limits.io` tick, instead of
    /// blocking out the full idle allowance. This is how a server
    /// drains handler threads promptly on shutdown.
    pub fn with_stop(mut self, flag: Arc<AtomicBool>) -> Self {
        self.stop = Some(flag);
        self
    }

    fn stopped(&self) -> bool {
        self.stop.as_ref().is_some_and(|s| s.load(Ordering::SeqCst))
    }

    /// The wrapped transport.
    pub fn get_ref(&self) -> &T {
        &self.inner
    }

    /// Reads one frame body, spending at most `limits.idle` waiting for
    /// it to start and `limits.frame` from its first byte. `Ok(None)`
    /// is a clean hang-up between frames (or a stop-flag trip, see
    /// [`DeadlineConn::with_stop`]).
    pub fn read_frame(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        // Between frames: wait for the first byte in io-sized ticks so
        // a stop flag is noticed within one tick, not one idle period.
        let idle_deadline = Instant::now() + self.limits.idle;
        self.inner.set_read_deadline(Some(self.limits.io))?;
        let mut prefix = [0u8; 4];
        loop {
            if self.stopped() {
                return Ok(None);
            }
            match self.inner.read(&mut prefix[..1]) {
                Ok(0) => return Ok(None),
                Ok(_) => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) => {
                    if Instant::now() >= idle_deadline {
                        return Err(ProtocolError::DeadlineExceeded);
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        // Mid-frame: tick-sized reads against the frame deadline.
        let deadline = Instant::now() + self.limits.frame;
        self.inner.set_read_deadline(Some(self.limits.io))?;
        self.read_exact_deadline(&mut prefix[1..4], deadline)?;
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(ProtocolError::FrameTooLarge {
                len: len as u64,
                max: MAX_FRAME_LEN as u64,
            });
        }
        let mut body = vec![0u8; len];
        self.read_exact_deadline(&mut body, deadline)?;
        Ok(Some(body))
    }

    /// Writes one frame (length prefix + body) under the frame budget.
    pub fn write_frame(&mut self, body: &[u8]) -> Result<(), ProtocolError> {
        if body.len() > MAX_FRAME_LEN {
            return Err(ProtocolError::FrameTooLarge {
                len: body.len() as u64,
                max: MAX_FRAME_LEN as u64,
            });
        }
        let deadline = Instant::now() + self.limits.frame;
        self.inner.set_write_deadline(Some(self.limits.io))?;
        // One buffer, one write: prefix and body in the same segment so
        // the peer never waits on a second packet for a frame boundary.
        // The buffer is the connection's own, so a frame costs one copy
        // of the body and no allocation once the buffer has grown.
        let mut out = std::mem::take(&mut self.out);
        out.clear();
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(body);
        let written = self.write_all_deadline(&out, deadline);
        if out.capacity() <= KEEP_OUT_BUF {
            self.out = out;
        }
        written?;
        self.inner.flush()?;
        Ok(())
    }

    /// Fills `buf`, looping over io ticks until done or `deadline`.
    fn read_exact_deadline(
        &mut self,
        buf: &mut [u8],
        deadline: Instant,
    ) -> Result<(), ProtocolError> {
        let mut off = 0;
        while off < buf.len() {
            if Instant::now() >= deadline {
                return Err(ProtocolError::DeadlineExceeded);
            }
            match self.inner.read(&mut buf[off..]) {
                Ok(0) => return Err(ProtocolError::Truncated),
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // One tick expired; the frame deadline decides whether
                // the stall has gone on long enough to cut the peer off.
                Err(e) if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Drains `buf`, looping over io ticks until done or `deadline`.
    fn write_all_deadline(&mut self, buf: &[u8], deadline: Instant) -> Result<(), ProtocolError> {
        let mut off = 0;
        while off < buf.len() {
            if Instant::now() >= deadline {
                return Err(ProtocolError::DeadlineExceeded);
            }
            match self.inner.write(&buf[off..]) {
                Ok(0) => return Err(ProtocolError::Truncated),
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Request;
    use std::net::TcpListener;

    /// A loopback pair with the accepted side wrapped in `limits`.
    fn pair(limits: ConnLimits) -> (DeadlineConn<TcpStream>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (DeadlineConn::new(server, limits), client)
    }

    #[test]
    fn whole_frames_roundtrip() {
        let (mut server, mut client) = pair(ConnLimits::default());
        let body = Request::Ping.encode();
        crate::proto::write_frame(&mut client, &body).unwrap();
        let got = server.read_frame().unwrap().expect("frame arrives");
        assert_eq!(got, body);
    }

    #[test]
    fn clean_hangup_between_frames_is_none() {
        let (mut server, client) = pair(ConnLimits::fast());
        drop(client);
        assert!(server.read_frame().unwrap().is_none());
    }

    #[test]
    fn hangup_mid_frame_is_truncated() {
        let (mut server, mut client) = pair(ConnLimits::fast());
        client.write_all(&[10, 0, 0, 0, 1, 2]).unwrap();
        drop(client);
        assert_eq!(server.read_frame().unwrap_err(), ProtocolError::Truncated);
    }

    #[test]
    fn idle_peer_trips_the_idle_deadline() {
        let (mut server, _client) = pair(ConnLimits::fast());
        let t0 = Instant::now();
        assert_eq!(
            server.read_frame().unwrap_err(),
            ProtocolError::DeadlineExceeded
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "reaper took too long"
        );
    }

    #[test]
    fn stall_mid_frame_trips_the_frame_deadline() {
        let (mut server, mut client) = pair(ConnLimits::fast());
        // Three of four prefix bytes, then silence.
        client.write_all(&[5, 0, 0]).unwrap();
        let t0 = Instant::now();
        assert_eq!(
            server.read_frame().unwrap_err(),
            ProtocolError::DeadlineExceeded
        );
        assert!(t0.elapsed() < Duration::from_secs(5), "stall went unreaped");
    }

    #[test]
    fn oversized_prefix_rejected_without_allocation() {
        let (mut server, mut client) = pair(ConnLimits::fast());
        client.write_all(&u32::MAX.to_le_bytes()).unwrap();
        assert!(matches!(
            server.read_frame().unwrap_err(),
            ProtocolError::FrameTooLarge { .. }
        ));
    }
}
