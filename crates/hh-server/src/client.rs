//! A blocking protocol client over TCP or Unix sockets.
//!
//! Thin by design: one request frame out, one response frame in, both
//! under the same [`ConnLimits`] deadlines the server uses (a stalled
//! *server* must not pin the client either). Every wire-level `Error`
//! response is rehydrated into a [`ProtocolError`] via
//! [`ProtocolError::from_wire`], so callers see one error type for
//! local failures and remote refusals alike; a [`Response::RetryAfter`]
//! received where the operation expected success becomes
//! [`ProtocolError::Overloaded`], keeping backoff handling in one
//! `match` arm.
//!
//! # Exactly-once retries
//!
//! Every client carries an identity unique across processes and their
//! restarts (drawn from a per-process random seed, not the pid alone:
//! the server's dedup contract requires that no two client lifetimes
//! share an id) and numbers its ingest requests. A transport failure
//! after the request left is ambiguous — the server may or may not
//! have applied the batch — so [`Client::ingest_reliable`] reconnects
//! and resends under the **same** request number: the server's dedup
//! table replays the original ack if the batch landed, applies it if
//! it did not, and either way the batch counts exactly once. Overload is honored too (the server's
//! `RetryAfter` hint), with jittered exponential backoff between
//! attempts so a thundering herd of retriers spreads out.

use crate::conn::{ConnLimits, DeadlineConn, Transport};
use crate::facade::TenantSpec;
use crate::proto::{ProtocolError, RangeEntry, Request, Response, ServerHealth};
use hh_hash::mix64;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Per-process client counter; mixed with the process seed into ids.
static NEXT_CLIENT: AtomicU64 = AtomicU64::new(1);

/// A fresh seed for one process lifetime: OS randomness (through
/// `RandomState`'s keys), the pid and the wall clock, hashed together.
/// A restarted process draws a new one even under the same pid — which
/// containers reuse routinely — so it never inherits the old process's
/// client ids, and with them its dedup entries on the server.
pub(crate) fn draw_process_seed() -> u64 {
    let mut h = RandomState::new().build_hasher();
    h.write_u32(std::process::id());
    if let Ok(t) = SystemTime::now().duration_since(UNIX_EPOCH) {
        h.write_u128(t.as_nanos());
    }
    h.finish()
}

/// The `n`-th client id of the process lifetime seeded with `seed`.
/// Within one lifetime, distinct `n` give distinct ids (`mix64` is a
/// bijection).
pub(crate) fn client_id_for(seed: u64, n: u64) -> u64 {
    mix64(seed.wrapping_add(n))
}

fn fresh_client_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(draw_process_seed);
    loop {
        let id = client_id_for(seed, NEXT_CLIENT.fetch_add(1, Ordering::Relaxed));
        // Id 0 is the anonymous (never-deduplicated) client on the wire.
        if id != 0 {
            return id;
        }
    }
}

/// How [`Client::ingest_reliable`] paces itself.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
        }
    }
}

/// How to re-establish the transport after a failure.
enum Remote {
    Tcp(SocketAddr),
    Uds(PathBuf),
    /// Handed a raw transport; reconnect is impossible.
    Opaque,
}

/// A connected protocol client.
pub struct Client {
    conn: DeadlineConn<Box<dyn Transport>>,
    limits: ConnLimits,
    remote: Remote,
    /// Unique identity for server-side exactly-once dedup.
    client_id: u64,
    /// Next ingest request number (fresh per logical batch, reused
    /// across retries of the same batch).
    next_req_seq: u64,
}

impl Client {
    /// Connects over TCP with default deadlines.
    pub fn connect_tcp(addr: SocketAddr) -> Result<Self, ProtocolError> {
        Self::connect_tcp_with(addr, ConnLimits::default())
    }

    /// Connects over TCP with explicit deadlines.
    pub fn connect_tcp_with(addr: SocketAddr, limits: ConnLimits) -> Result<Self, ProtocolError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut c = Self::from_transport(Box::new(stream), limits);
        c.remote = Remote::Tcp(addr);
        Ok(c)
    }

    /// Connects over a Unix domain socket with default deadlines.
    pub fn connect_uds(path: impl AsRef<Path>) -> Result<Self, ProtocolError> {
        let stream = UnixStream::connect(&path)?;
        let mut c = Self::from_transport(Box::new(stream), ConnLimits::default());
        c.remote = Remote::Uds(path.as_ref().to_path_buf());
        Ok(c)
    }

    /// Wraps an already-connected transport (no reconnect support —
    /// [`Client::ingest_reliable`] still retries over the live
    /// connection).
    pub fn from_transport(transport: Box<dyn Transport>, limits: ConnLimits) -> Self {
        Self {
            conn: DeadlineConn::new(transport, limits),
            limits,
            remote: Remote::Opaque,
            client_id: fresh_client_id(),
            next_req_seq: 1,
        }
    }

    /// This client's identity as the server's dedup table sees it.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// Re-establishes the transport to the remembered endpoint.
    fn reconnect(&mut self) -> Result<(), ProtocolError> {
        let transport: Box<dyn Transport> = match &self.remote {
            Remote::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Box::new(stream)
            }
            Remote::Uds(path) => Box::new(UnixStream::connect(path)?),
            Remote::Opaque => {
                return Err(ProtocolError::Io(
                    std::io::ErrorKind::NotConnected,
                    "client has no endpoint to reconnect to".to_string(),
                ))
            }
        };
        self.conn = DeadlineConn::new(transport, self.limits);
        Ok(())
    }

    /// One request/response exchange. `Error` responses become `Err`;
    /// every other response is returned as-is.
    pub fn call(&mut self, req: &Request) -> Result<Response, ProtocolError> {
        self.exchange(&req.encode())
    }

    /// [`Client::call`] for an already-encoded request body.
    fn exchange(&mut self, body: &[u8]) -> Result<Response, ProtocolError> {
        if let Err(e) = self.conn.write_frame(body) {
            // A server refusing at the door writes one parting frame
            // (RetryAfter) and closes; our request write then breaks.
            // Salvage that frame before reporting the transport error.
            return match self.conn.read_frame() {
                Ok(Some(body)) => Self::unwrap_response(&body),
                _ => Err(e),
            };
        }
        let body = self.conn.read_frame()?.ok_or(ProtocolError::Truncated)?;
        Self::unwrap_response(&body)
    }

    fn unwrap_response(body: &[u8]) -> Result<Response, ProtocolError> {
        match Response::decode(body)? {
            Response::Error { code, message } => Err(ProtocolError::from_wire(code, message)),
            rsp => Ok(rsp),
        }
    }

    /// Folds a [`Response::RetryAfter`] into [`ProtocolError::Overloaded`]
    /// for operations that expect a definite outcome.
    fn call_expecting(&mut self, req: &Request) -> Result<Response, ProtocolError> {
        self.exchange_expecting(&req.encode())
    }

    /// [`Client::call_expecting`] for an already-encoded request body.
    fn exchange_expecting(&mut self, body: &[u8]) -> Result<Response, ProtocolError> {
        match self.exchange(body)? {
            Response::RetryAfter { millis } => Err(ProtocolError::Overloaded {
                retry_after_ms: millis,
            }),
            rsp => Ok(rsp),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ProtocolError> {
        match self.call_expecting(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ProtocolError::UnexpectedResponse("ping wanted Pong")),
        }
    }

    /// Creates a tenant.
    pub fn create(&mut self, tenant: &str, spec: TenantSpec) -> Result<(), ProtocolError> {
        let req = Request::Create {
            tenant: tenant.to_string(),
            spec,
        };
        match self.call_expecting(&req)? {
            Response::Created => Ok(()),
            _ => Err(ProtocolError::UnexpectedResponse("create wanted Created")),
        }
    }

    /// Ingests a batch into one shard; returns items accepted.
    /// Overload comes back as [`ProtocolError::Overloaded`] with the
    /// server's backoff hint. The request is numbered (so a later
    /// manual resend under [`Client::ingest_reliable`] semantics is
    /// possible) but *not* retried here.
    pub fn ingest(
        &mut self,
        tenant: &str,
        shard: u32,
        items: &[u64],
    ) -> Result<u64, ProtocolError> {
        let req_seq = self.next_req_seq;
        self.next_req_seq += 1;
        self.ingest_with_seq(tenant, shard, req_seq, items)
    }

    /// One wire exchange under an explicit request number.
    fn ingest_with_seq(
        &mut self,
        tenant: &str,
        shard: u32,
        req_seq: u64,
        items: &[u64],
    ) -> Result<u64, ProtocolError> {
        let body = Request::encode_ingest(tenant, shard, self.client_id, req_seq, items);
        match self.exchange_expecting(&body)? {
            Response::Ingested { accepted } => Ok(accepted),
            _ => Err(ProtocolError::UnexpectedResponse("ingest wanted Ingested")),
        }
    }

    /// Ingests with reconnect-and-retry: transport failures
    /// (connection severed, truncation, missed deadline) reconnect and
    /// resend under the **same** request number, so the server's dedup
    /// applies the batch exactly once no matter where the first attempt
    /// died; overload honors the server's backoff hint. Backoff between
    /// attempts is exponential with deterministic jitter. Every other
    /// error is definitive and returned immediately.
    pub fn ingest_reliable(
        &mut self,
        tenant: &str,
        shard: u32,
        items: &[u64],
        policy: &RetryPolicy,
    ) -> Result<u64, ProtocolError> {
        let req_seq = self.next_req_seq;
        self.next_req_seq += 1;
        // Deterministic jitter stream, de-correlated across clients and
        // batches.
        let mut rng = mix64(self.client_id ^ req_seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut backoff = policy.base;
        let mut last = ProtocolError::Overloaded { retry_after_ms: 0 };
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                // Full jitter over [backoff/2, backoff]: spread without
                // ever retrying effectively immediately.
                rng = mix64(rng);
                let half = backoff.as_micros() as u64 / 2;
                let wait = Duration::from_micros(half + rng % half.max(1));
                std::thread::sleep(wait);
                backoff = (backoff * 2).min(policy.cap);
            }
            match self.ingest_with_seq(tenant, shard, req_seq, items) {
                Ok(accepted) => return Ok(accepted),
                Err(e) => match e {
                    ProtocolError::Io(..)
                    | ProtocolError::Truncated
                    | ProtocolError::DeadlineExceeded => {
                        last = e;
                        // Ambiguous outcome: reconnect and let the
                        // dedup table disambiguate. A failed reconnect
                        // just burns this attempt; the next one tries
                        // again.
                        let _ = self.reconnect();
                    }
                    ProtocolError::Overloaded { retry_after_ms } => {
                        // The server asked for a specific pause; take
                        // the longer of its hint and our backoff.
                        backoff = backoff.max(Duration::from_millis(retry_after_ms.min(250)));
                        last = ProtocolError::Overloaded { retry_after_ms };
                    }
                    definitive => return Err(definitive),
                },
            }
        }
        Err(last)
    }

    /// Reads the tenant's report: `(item, estimate)` pairs plus the
    /// serving epoch.
    pub fn query(&mut self, tenant: &str) -> Result<(Vec<(u64, f64)>, u64), ProtocolError> {
        let req = Request::Query {
            tenant: tenant.to_string(),
        };
        match self.call_expecting(&req)? {
            Response::Report { entries, epoch } => Ok((entries, epoch)),
            _ => Err(ProtocolError::UnexpectedResponse("query wanted Report")),
        }
    }

    /// Estimates the mass of the inclusive id range `[lo, hi]` on a
    /// dyadic tenant. Returns `(estimate, epoch)`.
    pub fn range_query(
        &mut self,
        tenant: &str,
        lo: u64,
        hi: u64,
    ) -> Result<(f64, u64), ProtocolError> {
        let req = Request::RangeQuery {
            tenant: tenant.to_string(),
            lo,
            hi,
        };
        match self.call_expecting(&req)? {
            Response::RangeEstimate { estimate, epoch } => Ok((estimate, epoch)),
            _ => Err(ProtocolError::UnexpectedResponse(
                "range_query wanted RangeEstimate",
            )),
        }
    }

    /// Reads a dyadic tenant's heavy intervals at threshold `phi` as
    /// `(level, lo, hi, estimate)` entries plus the serving epoch.
    pub fn heavy_ranges(
        &mut self,
        tenant: &str,
        phi: f64,
    ) -> Result<(Vec<RangeEntry>, u64), ProtocolError> {
        let req = Request::HeavyRanges {
            tenant: tenant.to_string(),
            phi,
        };
        match self.call_expecting(&req)? {
            Response::Ranges { entries, epoch } => Ok((entries, epoch)),
            _ => Err(ProtocolError::UnexpectedResponse(
                "heavy_ranges wanted Ranges",
            )),
        }
    }

    /// Fetches server health.
    pub fn health(&mut self) -> Result<ServerHealth, ProtocolError> {
        match self.call_expecting(&Request::Health)? {
            Response::Health(h) => Ok(h),
            _ => Err(ProtocolError::UnexpectedResponse("health wanted Health")),
        }
    }

    /// Forces a checkpoint round; returns tenants persisted.
    pub fn checkpoint(&mut self) -> Result<u64, ProtocolError> {
        match self.call_expecting(&Request::Checkpoint)? {
            Response::Checkpointed { tenants } => Ok(tenants),
            _ => Err(ProtocolError::UnexpectedResponse(
                "checkpoint wanted Checkpointed",
            )),
        }
    }

    /// Fetches the tenant's merged summary as portable snapshot bytes.
    pub fn snapshot(&mut self, tenant: &str) -> Result<Vec<u8>, ProtocolError> {
        let req = Request::Snapshot {
            tenant: tenant.to_string(),
        };
        match self.call_expecting(&req)? {
            Response::Snapshot { bytes } => Ok(bytes),
            _ => Err(ProtocolError::UnexpectedResponse(
                "snapshot wanted Snapshot",
            )),
        }
    }

    /// Recovers a quarantined tenant; returns shards rebuilt.
    pub fn recover(&mut self, tenant: &str) -> Result<u64, ProtocolError> {
        let req = Request::Recover {
            tenant: tenant.to_string(),
        };
        match self.call_expecting(&req)? {
            Response::Recovered { shards } => Ok(shards),
            _ => Err(ProtocolError::UnexpectedResponse(
                "recover wanted Recovered",
            )),
        }
    }

    /// Asks the server to checkpoint and exit.
    pub fn shutdown_server(&mut self) -> Result<(), ProtocolError> {
        match self.call_expecting(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ProtocolError::UnexpectedResponse(
                "shutdown wanted ShuttingDown",
            )),
        }
    }

    /// Ingests with bounded retry on overload: sleeps the server's
    /// hint and tries again, up to `attempts`.
    pub fn ingest_retry(
        &mut self,
        tenant: &str,
        shard: u32,
        items: &[u64],
        attempts: u32,
    ) -> Result<u64, ProtocolError> {
        let mut last = ProtocolError::Overloaded { retry_after_ms: 0 };
        for _ in 0..attempts.max(1) {
            match self.ingest(tenant, shard, items) {
                Err(ProtocolError::Overloaded { retry_after_ms }) => {
                    last = ProtocolError::Overloaded { retry_after_ms };
                    std::thread::sleep(std::time::Duration::from_millis(retry_after_ms.min(250)));
                }
                other => return other,
            }
        }
        Err(last)
    }
}
