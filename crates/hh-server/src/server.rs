//! The daemon: accept loops, admission control, the tenant registry,
//! periodic checkpointing, and crash recovery.
//!
//! # Threads
//!
//! One acceptor thread per server, one handler thread per live
//! connection, one checkpointer thread ticking at the configured
//! cadence. Handler threads are bounded by
//! [`ServerConfig::max_connections`] — a connection over that budget
//! gets a single [`Response::RetryAfter`] frame and is closed before a
//! handler thread is ever spawned, so a connection flood degrades into
//! polite refusals instead of thread exhaustion.
//!
//! # Failure containment
//!
//! A connection can only hurt itself: protocol damage (bad checksum,
//! hostile length, truncation) either gets a structured
//! [`Response::Error`] on an intact frame boundary or drops that one
//! connection; deadlines bound every read and write
//! ([`crate::conn`]); tenant faults quarantine the tenant, not the
//! server ([`crate::tenant`]); and corrupt on-disk state quarantines
//! the tenant directory at boot ([`crate::store`]). [`ServerHealth`]
//! surfaces every one of those events.
//!
//! # Lifecycle
//!
//! [`Server::start`] binds, recovers from the store, and returns once
//! serving. Recovery hydrates the store's tenants on
//! `std::thread::available_parallelism()` scoped workers, each
//! streaming its tenant's WAL through [`hh_wal::Wal::open_with`].
//! [`Server::shutdown`] drains: the acceptor and checkpointer exit,
//! handler threads wind down (they poll the stop flag between
//! frames), and only then the final checkpoint runs — checkpoint
//! rounds are single-flight, so it can never interleave with a round a
//! handler started. [`Server::kill`] is the crash simulation:
//! everything stops **without** a final checkpoint, and still loses
//! *nothing acked*: every tenant is write-ahead logged, each ack waits
//! for its record's fsync, and recovery restores the last checkpoint
//! bundle and replays the WAL tail over it.

use crate::conn::{ConnLimits, DeadlineConn, Transport};
use crate::durability::{BankSnapshot, IngestFrame};
use crate::proto::{validate_tenant_name, ProtocolError, Request, Response, ServerHealth};
use crate::store::{RecoveredTenant, Store};
use crate::tenant::{Tenant, RETRY_AFTER_MS};
use hh_wal::{Wal, WalConfig};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where a server listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// TCP; use port 0 to let the OS pick (see [`Server::local_addr`]).
    Tcp(SocketAddr),
    /// Unix domain socket at this path (stale socket files are
    /// replaced).
    Unix(PathBuf),
}

/// Tunables; the defaults are production-shaped, tests use
/// [`ServerConfig::fast`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Snapshot directory for checkpoints and recovery.
    pub store_root: PathBuf,
    /// Per-connection deadlines.
    pub limits: ConnLimits,
    /// Handler-thread budget; connections over it are refused with
    /// `RetryAfter`.
    pub max_connections: usize,
    /// Resident-summary budget; exceeding it evicts
    /// least-recently-used tenants to snapshot.
    pub memory_budget_bytes: u64,
    /// Checkpoint cadence.
    pub checkpoint_every: Duration,
    /// How long one checkpoint round waits on a tenant's flush barrier
    /// before falling back to last-good bytes for the shards still
    /// pending. Rounds run under the registry lock, so this bound is
    /// what keeps one wedged shard worker from stalling every request
    /// on the server.
    pub checkpoint_timeout: Duration,
    /// Rotation threshold of each tenant's write-ahead log segments,
    /// in bytes.
    pub wal_segment_bytes: u64,
}

impl ServerConfig {
    /// A config rooted at `store_root` with default knobs.
    pub fn new(store_root: impl Into<PathBuf>) -> Self {
        Self {
            store_root: store_root.into(),
            limits: ConnLimits::default(),
            max_connections: 64,
            memory_budget_bytes: 256 << 20,
            checkpoint_every: Duration::from_secs(30),
            checkpoint_timeout: Duration::from_secs(2),
            wal_segment_bytes: 4 << 20,
        }
    }

    /// Test-shaped config: tight deadlines, fast checkpoints, and small
    /// WAL segments so kill tests cross rotations.
    pub fn fast(store_root: impl Into<PathBuf>) -> Self {
        Self {
            limits: ConnLimits::fast(),
            max_connections: 8,
            checkpoint_every: Duration::from_millis(200),
            wal_segment_bytes: 64 << 10,
            ..Self::new(store_root)
        }
    }

    fn wal_config(&self, dir: PathBuf) -> WalConfig {
        WalConfig {
            dir,
            segment_bytes: self.wal_segment_bytes,
        }
    }
}

/// A registry slot: a tenant is live in memory, evicted to disk, or
/// broken (its disk state failed to rehydrate).
enum Slot {
    Live(Box<Tenant>),
    /// On disk; rehydrated on next touch. Holds the tenant's log when
    /// the eviction save covered every record in it
    /// ([`Tenant::into_covered_wal`]), released so it keeps no file
    /// descriptor: rehydration reattaches that handle instead of
    /// scanning the log. `None` means scan.
    Evicted(Option<Arc<Wal>>),
    /// Rehydration failed (reason recorded); requests are refused as
    /// quarantined until an operator intervenes on disk.
    Broken(String),
}

struct Registry {
    slots: HashMap<String, Slot>,
    /// Logical LRU clock: bumped on every touch.
    clock: u64,
}

/// Monotonic event counters, shared across handler threads.
#[derive(Default)]
struct Stats {
    accept_rejections: AtomicU64,
    evictions: AtomicU64,
    checkpoints: AtomicU64,
    admission_shed: AtomicU64,
    /// Torn-tail bytes cut from WAL segments at boot and rehydration.
    wal_truncated_bytes: AtomicU64,
}

struct Shared {
    config: ServerConfig,
    store: Store,
    registry: Mutex<Registry>,
    stats: Stats,
    active: AtomicU64,
    /// Tenants lost at boot (quarantined on disk), surfaced in health.
    boot_lost: Vec<String>,
    recovered_tenants: u64,
    /// Wall time of the boot hydrate phase, in microseconds.
    boot_recovery_us: u64,
    /// Set by shutdown/kill; the acceptor, handlers, and checkpointer
    /// all watch it. `Arc`'d so each connection's deadline machinery
    /// can poll it between frames ([`DeadlineConn::with_stop`]).
    stopping: Arc<AtomicBool>,
    /// True on graceful shutdown only: the final checkpoint runs.
    graceful: AtomicBool,
    /// Wakes the checkpointer early on shutdown. `stopping` is raised
    /// and `tick` notified only while holding `tick_lock`
    /// ([`signal_stop`]), and the checkpointer checks `stopping` under
    /// the same lock before it parks, so a stop cannot slip into the
    /// gap between its check and its wait.
    tick: Condvar,
    tick_lock: Mutex<()>,
    /// Serializes checkpoint rounds. Rounds from different threads
    /// (periodic, protocol `Checkpoint`/`Shutdown`, eviction, final)
    /// write through the same `<file>.tmp` paths; two rounds in flight
    /// would steal each other's temp files mid-rename and one round's
    /// saves would silently vanish.
    ///
    /// Lock order: `ckpt_lock` before `registry`, everywhere both are
    /// held (`checkpoint_all`, the eviction path). Never acquire
    /// `ckpt_lock` while holding the registry lock.
    ckpt_lock: Mutex<()>,
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Box<dyn Transport>> {
        match self {
            Self::Tcp(l) => {
                let (s, _) = l.accept()?;
                // Frames are written whole and waited on synchronously;
                // leaving Nagle on costs a delayed-ACK round (~40ms)
                // per request on loopback.
                s.set_nodelay(true)?;
                Ok(Box::new(s))
            }
            Self::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Box::new(s))
            }
        }
    }
}

/// A running daemon. Dropping without [`Server::shutdown`] /
/// [`Server::kill`] behaves like a kill (no final checkpoint).
pub struct Server {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    local_addr: Option<SocketAddr>,
    acceptor: Option<JoinHandle<()>>,
    checkpointer: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `endpoint`, recovers every verifiable tenant from the
    /// store, and starts serving.
    pub fn start(config: ServerConfig, endpoint: Endpoint) -> std::io::Result<Self> {
        let store = Store::open(&config.store_root)?;
        let boot = store.load_all()?;
        let recovered_tenants = boot.recovered.len() as u64;
        let t0 = Instant::now();
        let (slots, truncated) = hydrate_all(&config, &store, boot.recovered);
        let boot_recovery_us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let boot_lost = boot.lost.into_iter().map(|(name, _)| name).collect();

        let listener = match &endpoint {
            Endpoint::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr)?),
            Endpoint::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                Listener::Unix(UnixListener::bind(path)?)
            }
        };
        let local_addr = match &listener {
            Listener::Tcp(l) => Some(l.local_addr()?),
            Listener::Unix(_) => None,
        };

        let shared = Arc::new(Shared {
            config,
            store,
            registry: Mutex::new(Registry { slots, clock: 0 }),
            stats: Stats {
                wal_truncated_bytes: AtomicU64::new(truncated),
                ..Stats::default()
            },
            active: AtomicU64::new(0),
            boot_lost,
            recovered_tenants,
            boot_recovery_us,
            stopping: Arc::new(AtomicBool::new(false)),
            graceful: AtomicBool::new(false),
            tick: Condvar::new(),
            tick_lock: Mutex::new(()),
            ckpt_lock: Mutex::new(()),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hh-server-accept".into())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        let checkpointer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hh-server-checkpoint".into())
                .spawn(move || checkpoint_loop(&shared))?
        };
        Ok(Self {
            shared,
            endpoint,
            local_addr,
            acceptor: Some(acceptor),
            checkpointer: Some(checkpointer),
        })
    }

    /// The bound TCP address (None for Unix endpoints).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// A handle for in-process observation and fault drills.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Raises the stop flag, wakes the checkpointer out of its wait, and
    /// wakes the acceptor out of its blocking `accept` by connecting
    /// once.
    fn wake(&self) {
        signal_stop(&self.shared);
        match &self.endpoint {
            Endpoint::Tcp(_) => {
                if let Some(addr) = self.local_addr {
                    let _ = TcpStream::connect(addr);
                }
            }
            Endpoint::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
    }

    fn stop(mut self, graceful: bool) {
        self.shared.graceful.store(graceful, Ordering::SeqCst);
        self.wake();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.checkpointer.take() {
            let _ = h.join();
        }
        if graceful {
            // Drain handler threads before the final checkpoint. They
            // notice `stopping` within one io tick between frames (and
            // within one frame budget mid-frame), but the one that
            // served a protocol `Shutdown` may still be inside its own
            // checkpoint round — if the final round below overlapped
            // it, a restart could boot from files the straggler is
            // still writing. The cap only guards against a stuck
            // handler; it is never reached on the healthy path.
            let limits = self.shared.config.limits;
            let cap = Instant::now() + limits.idle + limits.frame + Duration::from_secs(10);
            while self.shared.active.load(Ordering::SeqCst) > 0 && Instant::now() < cap {
                std::thread::sleep(Duration::from_millis(1));
            }
            checkpoint_all(&self.shared);
        }
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Graceful shutdown: stop accepting, run a final checkpoint, join
    /// the service threads.
    pub fn shutdown(self) {
        self.stop(true);
    }

    /// Crash simulation: stop everything with **no** final checkpoint.
    /// State since the last periodic checkpoint is lost, exactly as in
    /// a real `kill -9` — the recovery tests measure that window.
    pub fn kill(self) {
        self.stop(false);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_none() {
            return; // already stopped
        }
        // Best-effort wake so the joins below terminate.
        self.wake();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.checkpointer.take() {
            let _ = h.join();
        }
    }
}

/// In-process observation and drill hooks (tests, operators embedding
/// the server).
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The same health the `Health` protocol op serves.
    pub fn health(&self) -> ServerHealth {
        build_health(&self.shared)
    }

    /// Forces a checkpoint round now. Returns tenants persisted.
    pub fn checkpoint_now(&self) -> u64 {
        checkpoint_all(&self.shared)
    }

    /// Injects a quarantine fault into a live tenant (drills the
    /// refuse-writes/serve-reads path deterministically). Errors if
    /// the tenant is unknown or not resident.
    pub fn inject_tenant_fault(&self, name: &str, reason: &str) -> Result<(), ProtocolError> {
        let mut reg = lock_registry(&self.shared);
        match reg.slots.get_mut(name) {
            Some(Slot::Live(t)) => {
                t.inject_fault(reason);
                Ok(())
            }
            Some(_) => Err(ProtocolError::BadRequest(format!(
                "tenant {name:?} is not resident"
            ))),
            None => Err(ProtocolError::UnknownTenant(name.to_string())),
        }
    }
}

/// Raises `stopping` and wakes the checkpointer, both under `tick_lock`
/// (see [`Shared::tick`]).
fn signal_stop(shared: &Shared) {
    let _tick = shared
        .tick_lock
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    shared.stopping.store(true, Ordering::SeqCst);
    shared.tick.notify_all();
}

fn lock_registry(shared: &Shared) -> std::sync::MutexGuard<'_, Registry> {
    shared
        .registry
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Rebuilds a tenant from its recovered checkpoint bundle and attaches
/// its write-ahead log. Shared by the boot scan and eviction
/// rehydration, so a kill at *any* point recovers through exactly one
/// code path. Returns the tenant and the torn-tail bytes its log open
/// cut.
///
/// Two branches, on where the log comes from. `kept` is the handle an
/// eviction left in [`Slot::Evicted`] because the bundle covers every
/// record in it: it is reattached as is — no directory scan, no
/// checksum, no frame decode — since replay would skip every record.
/// Its next append reopens the active segment it released. Otherwise
/// (boot, and evictions that left records uncovered) the log is opened
/// and its tail replayed over the bundle.
///
/// Replay streams: each record's payload is decoded straight out of the
/// scan buffer into one reused frame and applied before the next record
/// is read, so no copy of the log is ever held.
///
/// Fail-closed: a WAL that fails structural validation, or a
/// checksum-valid record whose frame does not decode or contradicts the
/// spec, turns the whole tenant into an error — the caller marks the
/// slot `Broken` (write-and-read quarantine) and every other tenant
/// keeps serving. Records before the damage may already have been
/// applied; the half-replayed tenant is dropped with the error.
fn hydrate(
    config: &ServerConfig,
    store: &Store,
    rec: RecoveredTenant,
    kept: Option<Arc<Wal>>,
) -> Result<(Tenant, u64), String> {
    let RecoveredTenant {
        name,
        spec,
        shards,
        shard_bytes,
        hwms,
        dedup,
    } = rec;
    let mut tenant = Tenant::from_bank(spec, shards, shard_bytes).map_err(|e| e.to_string())?;
    tenant.restore_durability(&hwms, &dedup);
    let mut truncated = 0;
    if let Some(wal) = kept {
        tenant.attach_wal(wal);
    } else {
        // A log reopened after a crash must never re-issue a sequence
        // number the bundle's marks already cover — the hint floors
        // the next sequence past them even if the tail itself was
        // never durable (checkpoint syncs the log first, so durable
        // tails always reach at least the marks; the hint guards the
        // fresh-log edge).
        let hint = hwms.iter().copied().max().unwrap_or(0) + 1;
        let mut frame = IngestFrame::default();
        let wal_cfg = config.wal_config(store.wal_dir(&name));
        let (wal, replay) = Wal::open_with(wal_cfg, hint, |seq, payload| {
            frame
                .decode_from(payload)
                .map_err(|e| format!("malformed frame: {e}"))?;
            tenant
                .replay_frame(seq, &frame)
                .map(drop)
                .map_err(|e| e.to_string())
        })
        .map_err(|e| format!("wal recovery failed: {e}"))?;
        truncated = replay.truncated_bytes;
        tenant.attach_wal(Arc::new(wal));
    }
    Ok((tenant, truncated))
}

/// Hydrates the boot scan's tenants on `available_parallelism()` scoped
/// workers that pull from one shared queue (logs differ widely in
/// length, so a fixed split could idle a worker behind the longest).
/// Each worker holds at most one segment buffer at a time. Returns the
/// registry slots and the torn-tail bytes cut.
fn hydrate_all(
    config: &ServerConfig,
    store: &Store,
    recovered: Vec<RecoveredTenant>,
) -> (HashMap<String, Slot>, u64) {
    let workers = std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(recovered.len());
    let queue = Mutex::new(recovered.into_iter());
    let next = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let mut slots = HashMap::new();
    let mut truncated = 0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(t) = next() {
                        let name = t.name.clone();
                        done.push((name, hydrate(config, store, t, None)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (name, result) in done {
                let slot = match result {
                    Ok((tenant, cut)) => {
                        truncated += cut;
                        Slot::Live(Box::new(tenant))
                    }
                    Err(e) => Slot::Broken(e),
                };
                slots.insert(name, slot);
            }
        }
    });
    (slots, truncated)
}

/// Releases one admission slot on drop, so a handler that unwinds
/// (a panic anywhere under `serve_conn`) cannot leak capacity.
struct ActiveSlot(Arc<Shared>);

impl Drop for ActiveSlot {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &Listener) {
    loop {
        let conn = listener.accept();
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let transport = match conn {
            Ok(t) => t,
            Err(_) => {
                // A persistent accept failure (EMFILE under fd
                // exhaustion, say) must degrade into a paced retry,
                // not a 100%-CPU busy loop on the acceptor.
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        // Admission control: over-budget connections get one RetryAfter
        // frame and the door, on the acceptor thread — no handler
        // thread is spent on them.
        let active = shared.active.load(Ordering::SeqCst);
        if active >= shared.config.max_connections as u64 {
            shared
                .stats
                .accept_rejections
                .fetch_add(1, Ordering::Relaxed);
            let mut conn = DeadlineConn::new(transport, shared.config.limits);
            let rsp = Response::RetryAfter {
                millis: RETRY_AFTER_MS,
            };
            let _ = conn.write_frame(&rsp.encode());
            let _ = conn.get_ref().shutdown();
            continue;
        }
        shared.active.fetch_add(1, Ordering::SeqCst);
        let worker_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("hh-server-conn".into())
            .spawn(move || {
                // Built before serve_conn so the decrement fires even
                // if the handler unwinds.
                let _slot = ActiveSlot(Arc::clone(&worker_shared));
                serve_conn(&worker_shared, transport);
            });
        if spawned.is_err() {
            // The closure never ran (and its guard was never built):
            // release the slot here.
            shared.active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn serve_conn(shared: &Arc<Shared>, transport: Box<dyn Transport>) {
    let mut conn =
        DeadlineConn::new(transport, shared.config.limits).with_stop(Arc::clone(&shared.stopping));
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let body = match conn.read_frame() {
            Ok(Some(body)) => body,
            // Clean hang-up between frames.
            Ok(None) => return,
            Err(e @ ProtocolError::FrameTooLarge { .. }) => {
                // The stream position is known (nothing was read past
                // the prefix), but the peer is mid-send of a frame we
                // refuse to buffer: answer and cut it loose.
                let _ = conn.write_frame(&Response::from_error(&e).encode());
                let _ = conn.get_ref().shutdown();
                return;
            }
            // Deadline expiry, truncation, transport failure: the
            // stream is damaged or the peer is hostile — drop it.
            Err(_) => {
                let _ = conn.get_ref().shutdown();
                return;
            }
        };
        // The frame arrived whole, so the boundary is intact: a body
        // that fails the codec gets a structured reply and the
        // connection lives on.
        let (rsp, stop_after) = match Request::decode(&body) {
            Ok(Request::Shutdown) => (Response::ShuttingDown, true),
            Ok(req) => (handle_request(shared, &req), false),
            Err(e) => (Response::from_error(&e), false),
        };
        if conn.write_frame(&rsp.encode()).is_err() {
            return;
        }
        if stop_after {
            shared.graceful.store(true, Ordering::SeqCst);
            signal_stop(shared);
            // Checkpoint here, on this handler thread, so a client
            // whose `Shutdown` was acked gets durability even if the
            // operator never calls `Server::shutdown`. The round is
            // single-flight (`ckpt_lock`), and a concurrent graceful
            // stop drains this thread before its own final round.
            checkpoint_all(shared);
            return;
        }
    }
}

fn handle_request(shared: &Arc<Shared>, req: &Request) -> Response {
    match dispatch(shared, req) {
        Ok(rsp) => rsp,
        Err(e @ ProtocolError::Overloaded { retry_after_ms }) => {
            let _ = e;
            Response::RetryAfter {
                millis: retry_after_ms,
            }
        }
        Err(e) => Response::from_error(&e),
    }
}

fn dispatch(shared: &Arc<Shared>, req: &Request) -> Result<Response, ProtocolError> {
    match req {
        Request::Ping => Ok(Response::Pong),
        Request::Health => Ok(Response::Health(build_health(shared))),
        Request::Checkpoint => Ok(Response::Checkpointed {
            tenants: checkpoint_all(shared),
        }),
        Request::Create { tenant, spec } => {
            validate_tenant_name(tenant)?;
            spec.validate()?;
            let mut reg = lock_registry(shared);
            if reg.slots.contains_key(tenant) {
                return Err(ProtocolError::TenantExists(tenant.clone()));
            }
            let mut t = Tenant::create(*spec)?;
            let wal_cfg = shared.config.wal_config(shared.store.wal_dir(tenant));
            let (wal, _replay) = Wal::open(wal_cfg, 1).map_err(|e| {
                ProtocolError::Io(std::io::ErrorKind::Other, format!("wal open failed: {e}"))
            })?;
            t.attach_wal(Arc::new(wal));
            // Persist immediately: a crash before the first periodic
            // checkpoint must not forget the tenant exists. This is the
            // spec's only write: later saves rewrite the bundle alone.
            let bank = t.bundle();
            shared.store.save_tenant(tenant, spec, &bank)?;
            touch(&mut reg, &mut t);
            reg.slots.insert(tenant.clone(), Slot::Live(Box::new(t)));
            drop(reg);
            enforce_memory_budget(shared, Some(tenant));
            Ok(Response::Created)
        }
        Request::Ingest {
            tenant,
            shard,
            client,
            req_seq,
            items,
        } => {
            let mut reg = lock_registry(shared);
            let t = resident_tenant(shared, &mut reg, tenant)?;
            let outcome = t
                .ingest_logged(tenant, *shard, *client, *req_seq, items)
                .inspect_err(|e| {
                    if matches!(e, ProtocolError::Overloaded { .. }) {
                        shared.stats.admission_shed.fetch_add(1, Ordering::Relaxed);
                    }
                })?;
            drop(reg);
            // The durability point: the ack below must not leave until
            // the logged record is fsynced. Committed *after* the
            // registry lock drops so the fsync stalls only this
            // tenant's log, not the whole server.
            if let Some((wal, seq)) = &outcome.commit {
                wal.commit(*seq).map_err(|e| {
                    ProtocolError::Io(
                        std::io::ErrorKind::Other,
                        format!("wal commit failed, batch not acked: {e}"),
                    )
                })?;
            }
            enforce_memory_budget(shared, Some(tenant));
            Ok(Response::Ingested {
                accepted: outcome.accepted,
            })
        }
        Request::Query { tenant } => {
            let mut reg = lock_registry(shared);
            let t = resident_tenant(shared, &mut reg, tenant)?;
            let (entries, epoch) = t.query()?;
            Ok(Response::Report { entries, epoch })
        }
        Request::Snapshot { tenant } => {
            let mut reg = lock_registry(shared);
            let t = resident_tenant(shared, &mut reg, tenant)?;
            let bytes = t.snapshot_merged()?;
            Ok(Response::Snapshot { bytes })
        }
        Request::RangeQuery { tenant, lo, hi } => {
            let mut reg = lock_registry(shared);
            let t = resident_tenant(shared, &mut reg, tenant)?;
            let (estimate, epoch) = t.range_query(*lo, *hi)?;
            Ok(Response::RangeEstimate { estimate, epoch })
        }
        Request::HeavyRanges { tenant, phi } => {
            let mut reg = lock_registry(shared);
            let t = resident_tenant(shared, &mut reg, tenant)?;
            let (entries, epoch) = t.heavy_ranges(*phi)?;
            Ok(Response::Ranges { entries, epoch })
        }
        Request::Recover { tenant } => {
            let mut reg = lock_registry(shared);
            let t = resident_tenant(shared, &mut reg, tenant)?;
            let shards = t.recover()? as u64;
            Ok(Response::Recovered { shards })
        }
        // Handled before dispatch (it flips server state).
        Request::Shutdown => Ok(Response::ShuttingDown),
    }
}

/// Bumps the LRU clock onto `t`.
fn touch(reg: &mut Registry, t: &mut Tenant) {
    reg.clock += 1;
    t.last_touch = reg.clock;
}

/// Resolves `name` to a live tenant, rehydrating from disk if it was
/// evicted. Broken slots refuse as quarantined.
fn resident_tenant<'a>(
    shared: &Shared,
    reg: &'a mut std::sync::MutexGuard<'_, Registry>,
    name: &str,
) -> Result<&'a mut Tenant, ProtocolError> {
    match reg.slots.get_mut(name) {
        None => return Err(ProtocolError::UnknownTenant(name.to_string())),
        Some(Slot::Broken(reason)) => {
            return Err(ProtocolError::Quarantined(format!("{name} ({reason})")))
        }
        Some(Slot::Evicted(kept)) => {
            let kept = kept.take();
            let slot = match shared.store.load_tenant(name) {
                Ok(rec) => match hydrate(&shared.config, &shared.store, rec, kept) {
                    Ok((t, truncated)) => {
                        shared
                            .stats
                            .wal_truncated_bytes
                            .fetch_add(truncated, Ordering::Relaxed);
                        Slot::Live(Box::new(t))
                    }
                    Err(e) => Slot::Broken(e),
                },
                Err(reason) => Slot::Broken(reason),
            };
            reg.slots.insert(name.to_string(), slot);
            if matches!(reg.slots.get(name), Some(Slot::Broken(_))) {
                return Err(ProtocolError::Quarantined(name.to_string()));
            }
        }
        Some(Slot::Live(_)) => {}
    }
    let clock = {
        reg.clock += 1;
        reg.clock
    };
    match reg.slots.get_mut(name) {
        Some(Slot::Live(t)) => {
            t.last_touch = clock;
            Ok(t)
        }
        _ => unreachable!("slot was just made live"),
    }
}

/// Evicts least-recently-used tenants to snapshot until resident bytes
/// fit the budget. `keep` (the tenant just touched) is never evicted.
fn enforce_memory_budget(shared: &Shared, keep: Option<&str>) {
    let budget = shared.config.memory_budget_bytes;
    loop {
        // Fast path — the common case touches only the registry lock.
        {
            let reg = lock_registry(shared);
            let resident: u64 = reg
                .slots
                .values()
                .map(|s| match s {
                    Slot::Live(t) => t.resident_bytes(),
                    _ => 0,
                })
                .sum();
            if resident <= budget {
                return;
            }
        }
        // Eviction round. Lock order is ckpt_lock → registry, matching
        // checkpoint_all, and the registry stays held through the disk
        // write: `Slot::Evicted` must never be observable before the
        // victim's fresh bundle has landed. A covered eviction parks
        // the log in the slot, and `hydrate` reattaches a parked log
        // without scanning it, trusting the bundle on disk to cover
        // every record. A request that rehydrated from the *stale*
        // bundle in between would skip the records past its marks: its
        // next ingest moves the marks past them, and the next
        // checkpoint makes the loss of those acked batches permanent.
        let _round = shared
            .ckpt_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut reg = lock_registry(shared);
        let mut resident: u64 = 0;
        let mut lru: Option<(String, u64)> = None;
        for (name, slot) in &reg.slots {
            if let Slot::Live(t) = slot {
                resident += t.resident_bytes();
                if Some(name.as_str()) == keep {
                    continue;
                }
                if lru.as_ref().is_none_or(|(_, stamp)| t.last_touch < *stamp) {
                    lru = Some((name.clone(), t.last_touch));
                }
            }
        }
        // Re-checked under both locks: a concurrent round may have
        // already evicted enough.
        if resident <= budget {
            return;
        }
        let Some((victim, _)) = lru else { return };
        let Some(Slot::Live(mut t)) = reg.slots.remove(&victim) else {
            return;
        };
        let bank = t.checkpoint(shared.config.checkpoint_timeout);
        if shared.store.save_bank(&victim, &bank).is_ok() {
            // The bundle covers everything up to the marks; retire the
            // sealed WAL segments it makes redundant before the tenant
            // leaves memory.
            if let Some(wal) = t.wal() {
                let _ = wal.compact(t.covered_seq());
            }
            reg.slots
                .insert(victim, Slot::Evicted(t.into_covered_wal()));
            shared.stats.evictions.fetch_add(1, Ordering::Relaxed);
        } else {
            // A failed save keeps the tenant resident (no data loss).
            reg.slots.insert(victim, Slot::Live(t));
            return;
        }
        // Both locks drop here; loop to re-check the budget.
    }
}

/// Checkpoints every resident tenant to disk. Returns tenants saved.
///
/// Single-flight: the whole round (collect + save) holds
/// `Shared::ckpt_lock`, so concurrent callers queue instead of racing
/// each other's temp files. Callers must not hold the registry lock —
/// the round takes it internally.
fn checkpoint_all(shared: &Shared) -> u64 {
    let _round = shared
        .ckpt_lock
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Collect bundles under the lock, write outside it.
    type Round = (String, BankSnapshot, Option<(Arc<Wal>, u64)>);
    let work: Vec<Round> = {
        let mut reg = lock_registry(shared);
        let names: Vec<String> = reg.slots.keys().cloned().collect();
        let mut work = Vec::new();
        for name in names {
            if let Some(Slot::Live(t)) = reg.slots.get_mut(&name) {
                let bank = t.checkpoint(shared.config.checkpoint_timeout);
                let wal = t.wal().map(|w| (Arc::clone(w), t.covered_seq()));
                work.push((name.clone(), bank, wal));
            }
        }
        work
    };
    let mut saved = 0;
    for (name, bank, wal) in work {
        if shared.store.save_bank(&name, &bank).is_ok() {
            saved += 1;
            // Only after the bundle durably covers them may the sealed
            // segments below the marks be retired; a failed save keeps
            // every segment (replay still needs them).
            if let Some((wal, covered)) = wal {
                let _ = wal.compact(covered);
            }
        }
    }
    if saved > 0 {
        shared.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
    }
    saved
}

fn checkpoint_loop(shared: &Arc<Shared>) {
    loop {
        {
            let guard = shared
                .tick_lock
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            // Checked under the lock `signal_stop` raises it under: a
            // stop that lands before this line is seen here, and one
            // that lands after it finds us parked and wakes us.
            if shared.stopping.load(Ordering::SeqCst) {
                return;
            }
            let _unused = shared
                .tick
                .wait_timeout(guard, shared.config.checkpoint_every);
        }
        if shared.stopping.load(Ordering::SeqCst) {
            // The final checkpoint (graceful only) is run by whoever
            // initiated the stop.
            return;
        }
        checkpoint_all(shared);
    }
}

fn build_health(shared: &Shared) -> ServerHealth {
    let mut reg = lock_registry(shared);
    let mut quarantined: Vec<String> = shared.boot_lost.clone();
    let mut shed = 0;
    let mut resident = 0;
    let mut wal_appended = 0;
    let mut wal_depth = 0;
    let mut wal_fsyncs = 0;
    let mut wal_max_commit_wait_us = 0;
    let mut wal_replayed = 0;
    let mut dedup_hits = 0;
    let mut wal_segments = 0;
    let tenants = reg.slots.len() as u64;
    for (name, slot) in reg.slots.iter_mut() {
        match slot {
            Slot::Live(t) => {
                shed += t.shed_items();
                resident += t.resident_bytes();
                let ws = t.wal_stats();
                wal_appended += ws.appended_records;
                wal_depth += ws.depth_records;
                wal_fsyncs += ws.fsyncs;
                wal_max_commit_wait_us = wal_max_commit_wait_us.max(ws.max_commit_wait_us);
                wal_segments += ws.segments;
                wal_replayed += t.wal_replayed();
                dedup_hits += t.dedup_hits();
                if t.quarantined() {
                    quarantined.push(name.clone());
                }
            }
            Slot::Broken(_) => quarantined.push(name.clone()),
            Slot::Evicted(_) => {}
        }
    }
    quarantined.sort();
    quarantined.dedup();
    ServerHealth {
        tenants,
        active_connections: shared.active.load(Ordering::SeqCst),
        accept_rejections: shared.stats.accept_rejections.load(Ordering::Relaxed),
        shed_batches: shed + shared.stats.admission_shed.load(Ordering::Relaxed),
        evictions: shared.stats.evictions.load(Ordering::Relaxed),
        checkpoints: shared.stats.checkpoints.load(Ordering::Relaxed),
        recovered_tenants: shared.recovered_tenants,
        boot_recovery_us: shared.boot_recovery_us,
        quarantined,
        resident_bytes: resident,
        wal_appended,
        wal_depth,
        wal_fsyncs,
        wal_max_commit_wait_us,
        wal_replayed,
        dedup_hits,
        wal_segments,
        wal_truncated_bytes: shared.stats.wal_truncated_bytes.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::facade::{SummaryKind, TenantSpec};

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hh-server-srv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> TenantSpec {
        TenantSpec {
            kind: SummaryKind::SpaceSaving,
            shards: 1,
            m: 100_000,
            universe: 1 << 20,
            ..TenantSpec::default()
        }
    }

    fn start_tcp(tag: &str) -> (Server, Client, PathBuf) {
        let root = tmp_root(tag);
        let server = Server::start(
            ServerConfig::fast(&root),
            Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        )
        .unwrap();
        let client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        (server, client, root)
    }

    #[test]
    fn full_request_cycle_over_tcp() {
        let (server, mut client, root) = start_tcp("cycle");
        client.ping().unwrap();
        client.create("alpha", spec()).unwrap();
        let heavy: Vec<u64> = (0..4_000u64)
            .map(|i| if i % 2 == 0 { 5 } else { i })
            .collect();
        assert_eq!(
            client.ingest("alpha", 0, &heavy).unwrap(),
            heavy.len() as u64
        );
        let (entries, _epoch) = client.query("alpha").unwrap();
        assert!(entries.iter().any(|&(item, _)| item == 5));
        let snapshot = client.snapshot("alpha").unwrap();
        use hh_core::{HeavyHitters as _, MergeableSummary as _};
        let restored = crate::facade::DynSummary::from_bytes(&snapshot).unwrap();
        assert!(restored.report().contains(5));
        let health = client.health().unwrap();
        assert_eq!(health.tenants, 1);
        assert!(health.quarantined.is_empty());
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn dyadic_tenant_serves_range_queries_over_the_wire() {
        let (server, mut client, root) = start_tcp("ranges");
        let dyadic = TenantSpec {
            kind: SummaryKind::Dyadic,
            shards: 2,
            m: 100_000,
            universe: 1 << 16,
            ..TenantSpec::default()
        };
        client.create("net", dyadic).unwrap();
        // Half the traffic lands in the block [0x4000, 0x7FFF].
        let stream: Vec<u64> = (0..8_000u64)
            .map(|i| {
                if i % 2 == 0 {
                    0x4000 + (i % 64)
                } else {
                    i % 0x4000
                }
            })
            .collect();
        client.ingest("net", 0, &stream[..4_000]).unwrap();
        client.ingest("net", 1, &stream[4_000..]).unwrap();
        let (estimate, epoch) = client.range_query("net", 0x4000, 0x7FFF).unwrap();
        assert!(
            (estimate - 4_000.0).abs() <= 0.05 * 8_000.0,
            "block mass {estimate}"
        );
        let (ranges, epoch2) = client.heavy_ranges("net", 0.4).unwrap();
        assert_eq!(epoch, epoch2, "quiescent reads share an epoch");
        assert!(
            ranges
                .iter()
                .any(|&(_, lo, hi, _)| lo <= 0x4000 && 0x7FFF <= hi),
            "no reported range covers the planted block: {ranges:?}"
        );
        // A point-summary tenant refuses range ops with a structured error.
        client.create("points", spec()).unwrap();
        client.ingest("points", 0, &[5; 100]).unwrap();
        assert!(matches!(
            client.range_query("points", 0, 10).unwrap_err(),
            ProtocolError::BadRequest(_)
        ));
        assert!(matches!(
            client.heavy_ranges("points", 0.1).unwrap_err(),
            ProtocolError::BadRequest(_)
        ));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn duplicate_create_and_unknown_tenant_are_structured() {
        let (server, mut client, root) = start_tcp("errors");
        client.create("a", spec()).unwrap();
        assert!(matches!(
            client.create("a", spec()).unwrap_err(),
            ProtocolError::TenantExists(_)
        ));
        assert!(matches!(
            client.query("ghost").unwrap_err(),
            ProtocolError::UnknownTenant(_)
        ));
        assert!(matches!(
            client.create("bad/../name", spec()).unwrap_err(),
            ProtocolError::BadRequest(_)
        ));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fault_drill_refuses_writes_serves_reads_then_recovers() {
        let (server, mut client, root) = start_tcp("drill");
        client.create("t", spec()).unwrap();
        client.ingest("t", 0, &[7; 1000]).unwrap();
        server.handle().inject_tenant_fault("t", "drill").unwrap();
        assert!(matches!(
            client.ingest("t", 0, &[8; 10]).unwrap_err(),
            ProtocolError::Quarantined(_)
        ));
        let (entries, _) = client.query("t").unwrap();
        assert!(
            entries.iter().any(|&(item, _)| item == 7),
            "reads must survive"
        );
        assert_eq!(client.health().unwrap().quarantined, vec!["t".to_string()]);
        client.recover("t").unwrap();
        client.ingest("t", 0, &[8; 10]).unwrap();
        assert!(client.health().unwrap().quarantined.is_empty());
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn kill_with_wal_loses_nothing_acked() {
        let root = tmp_root("kill-wal");
        let cfg = ServerConfig {
            // No periodic checkpoints: every acked batch after the one
            // explicit checkpoint lives only in the WAL when the server
            // dies.
            checkpoint_every: Duration::from_secs(3600),
            ..ServerConfig::fast(&root)
        };
        let server =
            Server::start(cfg.clone(), Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
        let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        client.create("t", spec()).unwrap();
        client.ingest("t", 0, &[42; 2_000]).unwrap();
        client.checkpoint().unwrap();
        // Acked after the checkpoint: only the log holds it now.
        client.ingest("t", 0, &[99; 2_000]).unwrap();
        server.kill();

        let server = Server::start(cfg, Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
        let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        let health = client.health().unwrap();
        assert_eq!(health.recovered_tenants, 1);
        assert!(health.quarantined.is_empty());
        assert!(health.wal_replayed >= 1, "replay did no work: {health:?}");
        let (entries, _) = client.query("t").unwrap();
        let count_of = |item: u64| {
            entries
                .iter()
                .find(|&&(i, _)| i == item)
                .map_or(0.0, |&(_, n)| n)
        };
        assert_eq!(count_of(42) as u64, 2_000, "checkpointed batch lost");
        assert_eq!(
            count_of(99) as u64,
            2_000,
            "acked batch lost despite the WAL"
        );
        // And the replayed state keeps accepting + checkpointing.
        client.ingest("t", 0, &[7; 100]).unwrap();
        client.checkpoint().unwrap();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stop_right_after_start_never_waits_out_the_checkpoint_interval() {
        // Regression: a stop raised before the checkpointer first parked
        // was a lost wakeup, and the join waited the whole interval.
        let root = tmp_root("stop-race");
        let cfg = ServerConfig {
            checkpoint_every: Duration::from_secs(3600),
            ..ServerConfig::fast(&root)
        };
        for i in 0..50 {
            let server =
                Server::start(cfg.clone(), Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
            let (done, stopped) = std::sync::mpsc::channel();
            let stopper = std::thread::spawn(move || {
                if i % 2 == 0 {
                    server.kill();
                } else {
                    server.shutdown();
                }
                let _ = done.send(());
            });
            stopped
                .recv_timeout(Duration::from_secs(2))
                .unwrap_or_else(|_| panic!("stop {i} did not return within 2 s"));
            stopper.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn health_reports_boot_recovery_time_and_torn_tail_bytes() {
        let root = tmp_root("recovery-health");
        let cfg = ServerConfig {
            checkpoint_every: Duration::from_secs(3600),
            ..ServerConfig::fast(&root)
        };
        let server =
            Server::start(cfg.clone(), Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
        let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        let fresh = client.health().unwrap();
        assert_eq!(fresh.wal_truncated_bytes, 0);
        client.create("t", spec()).unwrap();
        client.ingest("t", 0, &[3; 500]).unwrap();
        server.kill();

        // Half a record's worth of garbage after the last whole record:
        // the torn tail a crash mid-append leaves.
        let wal_dir = root.join("t").join("wal");
        let mut segs: Vec<PathBuf> = std::fs::read_dir(&wal_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segs.sort();
        let active = segs.last().unwrap();
        let mut bytes = std::fs::read(active).unwrap();
        bytes.extend_from_slice(&[0xEE; 37]);
        std::fs::write(active, &bytes).unwrap();

        let server = Server::start(cfg, Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
        let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        let health = client.health().unwrap();
        assert_eq!(health.wal_truncated_bytes, 37, "{health:?}");
        assert!(health.boot_recovery_us > 0, "{health:?}");
        assert!(health.wal_replayed >= 1, "{health:?}");
        assert!(health.quarantined.is_empty());
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn connection_flood_gets_retry_after_not_thread_exhaustion() {
        let root = tmp_root("flood");
        let cfg = ServerConfig {
            max_connections: 2,
            ..ServerConfig::fast(&root)
        };
        let server = Server::start(cfg, Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
        let addr = server.local_addr().unwrap();
        let _c1 = Client::connect_tcp(addr).unwrap();
        let _c2 = Client::connect_tcp(addr).unwrap();
        // Give the acceptor a beat to account for both handlers.
        std::thread::sleep(Duration::from_millis(50));
        let mut c3 = Client::connect_tcp(addr).unwrap();
        match c3.ping() {
            Err(ProtocolError::Overloaded { .. }) => {}
            other => panic!("expected RetryAfter at the door, got {other:?}"),
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn memory_budget_evicts_lru_to_snapshot_and_rehydrates() {
        let root = tmp_root("evict");
        let cfg = ServerConfig {
            // Small enough that two tenants cannot both stay resident.
            memory_budget_bytes: 1,
            ..ServerConfig::fast(&root)
        };
        let server = Server::start(cfg, Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
        let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        client.create("old", spec()).unwrap();
        client.ingest("old", 0, &[11; 2_000]).unwrap();
        client.create("new", spec()).unwrap();
        let health = client.health().unwrap();
        assert!(health.evictions >= 1, "budget of 1 byte must evict");
        // The evicted tenant rehydrates transparently, data intact.
        let (entries, _) = client.query("old").unwrap();
        assert!(entries.iter().any(|&(item, _)| item == 11));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn eviction_churn_with_concurrent_rehydration_loses_no_acked_items() {
        let root = tmp_root("churn");
        let cfg = ServerConfig {
            // Nothing fits: every touch evicts the other tenant, so
            // eviction saves and rehydrations interleave constantly.
            memory_budget_bytes: 1,
            ..ServerConfig::fast(&root)
        };
        let server = Server::start(cfg, Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
        let addr = server.local_addr().unwrap();
        {
            let mut c = Client::connect_tcp(addr).unwrap();
            c.create("a", spec()).unwrap();
            c.create("b", spec()).unwrap();
        }
        // The regression this guards: `Slot::Evicted` published before
        // the eviction save reached disk let a concurrent request
        // rehydrate the stale on-disk checkpoint, which then shadowed
        // the fresh bytes — acked ingests silently lost.
        let workers: Vec<_> = [("a", 1u64), ("b", 2u64)]
            .into_iter()
            .map(|(name, item)| {
                std::thread::spawn(move || {
                    let mut c = Client::connect_tcp(addr).unwrap();
                    let mut acked = 0u64;
                    for _ in 0..40 {
                        acked += c.ingest_retry(name, 0, &[item; 25], 20).unwrap();
                        c.query(name).unwrap();
                    }
                    (name, item, acked)
                })
            })
            .collect();
        let mut c = Client::connect_tcp(addr).unwrap();
        for w in workers {
            let (name, item, acked) = w.join().unwrap();
            let (entries, _) = c.query(name).unwrap();
            let count = entries
                .iter()
                .find(|&&(i, _)| i == item)
                .map_or(0.0, |&(_, n)| n);
            assert_eq!(
                count as u64, acked,
                "tenant {name}: acked ingests lost in eviction churn"
            );
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The log handle `name` holds: its live tenant's, or the one its
    /// `Evicted` slot keeps. The second value says whether it is live.
    fn log_of(server: &Server, name: &str) -> (Option<Arc<Wal>>, bool) {
        let reg = lock_registry(&server.shared);
        match reg.slots.get(name) {
            Some(Slot::Live(t)) => (t.wal().cloned(), true),
            Some(Slot::Evicted(kept)) => (kept.clone(), false),
            _ => panic!("tenant {name} is neither live nor evicted"),
        }
    }

    /// A config where nothing fits: touching one tenant evicts the
    /// other, and only explicit rounds checkpoint.
    fn churn_config(root: &std::path::Path) -> ServerConfig {
        ServerConfig {
            memory_budget_bytes: 1,
            checkpoint_every: Duration::from_secs(3600),
            ..ServerConfig::fast(root)
        }
    }

    /// A one-shard Algorithm-2 tenant over a small universe: an item
    /// outside it trips the summary's debug assertion, which panics the
    /// shard mid-ingest — a deterministic way to poison a served shard
    /// (the runtime quarantines it, and checkpoints skip it).
    #[cfg(debug_assertions)]
    fn algo2_spec() -> TenantSpec {
        TenantSpec {
            kind: SummaryKind::Algo2,
            universe: 1 << 16,
            m: 1 << 16,
            ..spec()
        }
    }

    /// File descriptors this process holds on files under `dir`.
    fn fds_under(dir: &std::path::Path) -> usize {
        std::fs::read_dir("/proc/self/fd")
            .unwrap()
            .filter_map(|e| std::fs::read_link(e.ok()?.path()).ok())
            .filter(|target| target.starts_with(dir))
            .count()
    }

    #[test]
    fn covered_eviction_parks_the_log_and_rehydration_reattaches_it() {
        use hh_core::{MergeableSummary as _, StreamSummary as _};
        let root = tmp_root("keep-log");
        let cfg = churn_config(&root);
        let server =
            Server::start(cfg.clone(), Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
        let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        let names = ["a", "b"];
        let mut oracles: Vec<_> = names
            .iter()
            .map(|&n| {
                client.create(n, spec()).unwrap();
                spec().build_bank().unwrap().remove(0)
            })
            .collect();
        for cycle in 0..4u64 {
            for (k, &name) in names.iter().enumerate() {
                let other = names[1 - k];
                let (kept, live) = log_of(&server, name);
                assert!(!live, "cycle {cycle}: {name} should be evicted");
                let kept = kept.expect("a covered eviction keeps the log");
                assert!(!kept.holds_file());
                assert_eq!(
                    fds_under(&server.shared.store.wal_dir(name)),
                    0,
                    "cycle {cycle}: evicted {name} holds a descriptor"
                );
                let last = kept.stats().appended_seq;
                let items = vec![cycle * 10 + k as u64; 40 + cycle as usize];
                client.ingest(name, 0, &items).unwrap();
                oracles[k].insert_batch(&items);
                let (now, live) = log_of(&server, name);
                assert!(live);
                assert!(
                    Arc::ptr_eq(&kept, &now.unwrap()),
                    "cycle {cycle}: rehydrating {name} reopened its log"
                );
                assert!(kept.holds_file(), "the append reopened the segment");
                assert_eq!(
                    kept.stats().appended_seq,
                    last + 1,
                    "the sequence continues"
                );
                assert!(matches!(log_of(&server, other), (Some(_), false)));
            }
        }
        assert!(client.health().unwrap().evictions >= 8);
        server.kill();

        let server = Server::start(cfg, Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
        let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        assert!(client.health().unwrap().quarantined.is_empty());
        for (name, oracle) in names.iter().zip(&oracles) {
            assert_eq!(
                client.snapshot(name).unwrap(),
                oracle.to_bytes(),
                "tenant {name}: an acked batch was lost or doubled"
            );
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_client_restarted_under_its_old_pid_keeps_every_batch() {
        use crate::client::{client_id_for, draw_process_seed};
        use hh_core::{MergeableSummary as _, StreamSummary as _};
        // Two lifetimes of one client process under the same pid, each
        // numbering its first client 1 and its requests from 1 — what a
        // restarted container's client does. A pid-and-counter id
        // would be the same for both, and the second lifetime's first
        // batches would be answered as duplicates of the first's.
        let first = client_id_for(draw_process_seed(), 1);
        let second = client_id_for(draw_process_seed(), 1);
        assert_ne!(first, second);
        let (server, mut client, root) = start_tcp("restarted-client");
        client.create("t", spec()).unwrap();
        let mut oracle = spec().build_bank().unwrap().remove(0);
        for (id, batches) in [(first, 5u64), (second, 3)] {
            for req_seq in 1..=batches {
                let items = vec![req_seq * 3 + id % 7; 20];
                let rsp = client
                    .call(&Request::Ingest {
                        tenant: "t".into(),
                        shard: 0,
                        client: id,
                        req_seq,
                        items: items.clone(),
                    })
                    .unwrap();
                assert_eq!(rsp, Response::Ingested { accepted: 20 });
                oracle.insert_batch(&items);
            }
        }
        assert_eq!(
            client.snapshot("t").unwrap(),
            oracle.to_bytes(),
            "a batch of the restarted client was dropped"
        );
        assert_eq!(client.health().unwrap().dedup_hits, 0);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn eviction_with_a_skipped_shard_rescans_the_log_and_loses_nothing() {
        use hh_core::{MergeableSummary as _, StreamSummary as _};
        let root = tmp_root("skip-scan");
        let server = Server::start(
            churn_config(&root),
            Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        )
        .unwrap();
        let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        client.create("t", algo2_spec()).unwrap();
        let mut oracle = algo2_spec().build_bank().unwrap().remove(0);
        let acked: Vec<u64> = (0..500).map(|i| i % 37).collect();
        client.ingest("t", 0, &acked).unwrap();
        oracle.insert_batch(&acked);
        // Poison the shard: the batch is refused and never logged, and
        // the acked one above sits in the log past the shard's mark.
        assert!(matches!(
            client.ingest("t", 0, &[1 << 20]).unwrap_err(),
            ProtocolError::Quarantined(_)
        ));
        let (open, _) = log_of(&server, "t");
        // Creating a second tenant evicts "t".
        client.create("other", spec()).unwrap();
        assert!(
            matches!(log_of(&server, "t"), (None, false)),
            "a skipped shard leaves the log uncovered: nothing may be kept"
        );
        assert_eq!(
            client.snapshot("t").unwrap(),
            oracle.to_bytes(),
            "the scan must replay the acked batch over the last-good bytes"
        );
        let (reopened, _) = log_of(&server, "t");
        assert!(!Arc::ptr_eq(&open.unwrap(), &reopened.unwrap()));
        assert!(client.health().unwrap().wal_replayed >= 1);
        // The rehydrated shard is whole again and keeps ingesting.
        client.ingest("t", 0, &acked).unwrap();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn recover_after_rehydration_rebuilds_the_shard_from_the_loaded_bytes() {
        let root = tmp_root("recover-rehydrated");
        let server = Server::start(
            churn_config(&root),
            Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        )
        .unwrap();
        let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        client.create("t", algo2_spec()).unwrap();
        let items: Vec<u64> = (0..800).map(|i| (i * 7) % 113).collect();
        client.ingest("t", 0, &items).unwrap();
        // Creating a second tenant evicts "t".
        client.create("other", spec()).unwrap();
        // Rehydrate with a read: no checkpoint runs, so the recovery
        // slot holds exactly the bytes the bundle was loaded from.
        let loaded = client.snapshot("t").unwrap();
        assert!(matches!(log_of(&server, "t"), (Some(_), true)));
        assert!(matches!(
            client.ingest("t", 0, &[1 << 20]).unwrap_err(),
            ProtocolError::Quarantined(_)
        ));
        assert_eq!(client.health().unwrap().quarantined, vec!["t".to_string()]);
        assert_eq!(client.recover("t").unwrap(), 1, "one shard rebuilt");
        assert!(client.health().unwrap().quarantined.is_empty());
        assert_eq!(client.snapshot("t").unwrap(), loaded);
        client.ingest("t", 0, &items).unwrap();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoints_and_evictions_never_rewrite_the_spec() {
        use std::os::unix::fs::MetadataExt as _;
        let root = tmp_root("spec-once");
        let cfg = churn_config(&root);
        let server =
            Server::start(cfg.clone(), Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
        let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        client.create("t", spec()).unwrap();
        let spec_file = root.join("t").join("spec.hhs");
        let bank_file = root.join("t").join("bank.hhs");
        let inode = |path: &std::path::Path| std::fs::metadata(path).unwrap().ino();
        let (spec_ino, bank_ino) = (inode(&spec_file), inode(&bank_file));
        client.ingest("t", 0, &[5; 300]).unwrap();
        assert_eq!(client.checkpoint().unwrap(), 1);
        // Creating a second tenant evicts "t".
        client.create("other", spec()).unwrap();
        client.ingest("t", 0, &[6; 200]).unwrap();
        assert!(client.health().unwrap().evictions >= 2);
        assert_ne!(inode(&bank_file), bank_ino, "the bundle was rewritten");
        assert_eq!(inode(&spec_file), spec_ino, "the spec was rewritten");
        server.kill();

        let server = Server::start(cfg, Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
        let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        assert_eq!(client.health().unwrap().recovered_tenants, 2);
        let (entries, _) = client.query("t").unwrap();
        let count = |item| entries.iter().find(|e| e.0 == item).map_or(0.0, |e| e.1);
        assert_eq!((count(5), count(6)), (300.0, 200.0));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn protocol_shutdown_checkpoints_before_exit() {
        let root = tmp_root("proto-shutdown");
        let cfg = ServerConfig {
            checkpoint_every: Duration::from_secs(3600),
            ..ServerConfig::fast(&root)
        };
        let server =
            Server::start(cfg.clone(), Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
        let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        client.create("t", spec()).unwrap();
        client.ingest("t", 0, &[5; 1_000]).unwrap();
        client.shutdown_server().unwrap();
        drop(client);
        server.shutdown(); // joins; final checkpoint already ran

        let server = Server::start(cfg, Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
        let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        let (entries, _) = client.query("t").unwrap();
        assert!(
            entries.iter().any(|&(item, _)| item == 5),
            "graceful shutdown must not lose acked data"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}
