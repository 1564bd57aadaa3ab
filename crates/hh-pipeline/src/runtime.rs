//! Persistent shard workers: the one sharding entry point, behind
//! hh-server's N-shard tenants and [`crate::partition_and_merge`].
//!
//! Worker threads are spawned **once**, at construction, and batches
//! travel through bounded per-worker queues for the runtime's whole
//! life: one spawn per shard per batch dominates batch-oriented
//! ingestion (BENCH_4 measured a per-call scoped-thread pipeline
//! *losing* to its own sequential fallback on exactly that overhead).
//!
//! # Shape
//!
//! Each shard pairs a worker thread with a [`std::sync::mpsc`] channel
//! of [`QUEUE_DEPTH`] batch slots. The worker owns its summary behind
//! an `Arc<Mutex<_>>` — the mutex is uncontended in steady state (the
//! worker is the only writer; readers lock only after a
//! [`ShardRuntime::flush`] barrier has drained the queues) and exists
//! so quiescent reads need no channel round-trip. Drained batch buffers
//! recycle through a free list back to the dispatcher, so steady-state
//! ingestion allocates nothing: about `QUEUE_DEPTH + 2` buffers per
//! shard circulate forever.
//!
//! The queue bound is deliberate back-pressure: a dispatcher that runs
//! ahead of a slow shard blocks on that shard's queue instead of
//! buffering the overflow, which caps in-flight memory at
//! `shards × QUEUE_DEPTH` batches and keeps the dispatcher from
//! racing unboundedly ahead of ingestion. [`Backpressure::Shed`] trades
//! that completeness for bounded latency: a full queue drops the batch
//! and counts it in [`RuntimeHealth::shed_items`] instead of blocking.
//!
//! # Sequential fallback
//!
//! On a single-core host (or a single-shard configuration) the fan-out
//! cannot win — the OS serializes the work anyway, after paying the
//! queue hops. [`IngestMode::Auto`] therefore degrades to inline
//! sequential ingestion: same cells, same per-shard state, no threads.
//! Every caller inherits the guard by construction; DESIGN.md §10
//! records the measured crossover. [`IngestMode::Parallel`] /
//! [`IngestMode::Sequential`] force a mode, which is how the
//! equivalence suite pins both paths on one host.
//!
//! # Failure model: propagate or quarantine
//!
//! Under the default [`FailurePolicy::Propagate`], a worker that panics
//! mid-batch drops its receiver as it unwinds, so the next dispatch to
//! it fails fast — the runtime joins the dead worker and re-raises its
//! payload — and an in-progress [`ShardRuntime::flush`] reports the
//! death instead of waiting on an acknowledgement that will never
//! come. Nothing deadlocks on a dead shard, and the panic is never
//! swallowed: shutdown joins every worker and re-raises the first
//! payload it finds.
//!
//! [`FailurePolicy::Quarantine`] degrades gracefully instead: the dead
//! shard is marked *poisoned* (its panic message recorded in
//! [`RuntimeHealth`]), subsequent dispatches to it are shed and
//! counted, and **every other shard keeps ingesting and serving
//! reads**. A poisoned shard is rebuilt by [`ShardRuntime::recover`]
//! from the bytes laid down by the last [`ShardRuntime::checkpoint`] —
//! the snapshot/restore half of the mergeable-summary contract doing
//! double duty as a crash-recovery log. What the rebuilt shard loses is
//! exactly the batches dispatched after that checkpoint, all of them
//! counted in [`RuntimeHealth::shed_items`]; DESIGN.md §11 walks
//! through the accounting.

use hh_core::{MergeableSummary, SnapshotError, StreamSummary};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Batch slots per worker queue. Two slots give double-buffering — the
/// dispatcher prepares batch `n + 1` while the worker drains batch
/// `n` — and anything deeper only adds in-flight memory: the dispatcher
/// and worker advance in lockstep once the pipe is full, so extra slots
/// never fill except ahead of a stall they merely postpone.
pub const QUEUE_DEPTH: usize = 2;

/// How a [`ShardRuntime`] drives its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// Persistent workers iff the host has more than one core *and*
    /// there is more than one shard; inline otherwise. The right choice
    /// everywhere outside of mode-equivalence tests.
    Auto,
    /// Inline ingestion on the calling thread, always.
    Sequential,
    /// Persistent workers, even on a single core (the equivalence suite
    /// pins this against [`IngestMode::Sequential`] on one host).
    Parallel,
}

/// What a [`ShardRuntime`] does when a shard worker panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Re-raise the worker's panic at the next dispatch/flush that
    /// touches the dead shard (the default — a worker panic is a bug
    /// and should fail the run loudly).
    #[default]
    Propagate,
    /// Mark the shard poisoned, shed its traffic, and keep every other
    /// shard ingesting and serving reads; [`ShardRuntime::recover`]
    /// rebuilds the shard from its last checkpoint.
    Quarantine,
}

/// What [`ShardRuntime::dispatch_ref`] does when a shard's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Block the dispatcher until a slot frees (the default: bounded
    /// memory, no data loss).
    #[default]
    Block,
    /// Drop the batch and count its items in
    /// [`RuntimeHealth::shed_items`] (bounded latency for ingest loops
    /// that must not stall behind a slow shard).
    Shed,
}

/// A point-in-time health snapshot of a [`ShardRuntime`]; see
/// [`ShardRuntime::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeHealth {
    /// Total number of shards.
    pub shards: usize,
    /// Whether persistent workers are running (false on the sequential
    /// fallback).
    pub parallel: bool,
    /// Quarantined shards as `(index, panic message)` pairs, in shard
    /// order. Empty under [`FailurePolicy::Propagate`] (a panic there
    /// never survives long enough to be recorded).
    pub poisoned: Vec<(usize, String)>,
    /// Stream items dropped instead of ingested: batches shed on a full
    /// queue under [`Backpressure::Shed`], plus batches bound for a
    /// dead or quarantined shard.
    pub shed_items: u64,
    /// Shards holding checkpoint bytes a [`ShardRuntime::recover`]
    /// could rebuild from.
    pub checkpointed: usize,
}

impl RuntimeHealth {
    /// Whether every shard is live and nothing has been dropped.
    pub fn all_healthy(&self) -> bool {
        self.poisoned.is_empty() && self.shed_items == 0
    }
}

/// Why a [`ShardRuntime::flush_timeout`] barrier did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlushError {
    /// Shards that had not acknowledged the barrier when the deadline
    /// hit. The shards are alive — just slow or stalled; their batches
    /// remain queued and a later flush can still succeed.
    TimedOut {
        /// Indices of shards still owing an acknowledgement.
        pending: Vec<usize>,
    },
    /// Shards whose worker died before acknowledging. Returned (rather
    /// than panicking) only under [`FailurePolicy::Quarantine`], after
    /// the shards have been quarantined.
    WorkerPanicked {
        /// Indices of the shards whose workers died.
        shards: Vec<usize>,
    },
}

impl std::fmt::Display for FlushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TimedOut { pending } => {
                write!(f, "flush timed out waiting on shards {pending:?}")
            }
            Self::WorkerPanicked { shards } => {
                write!(f, "shard workers {shards:?} panicked before the barrier")
            }
        }
    }
}

impl std::error::Error for FlushError {}

/// Why [`ShardRuntime::recover`] could not rebuild a shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// The shard is live; there is nothing to recover.
    NotQuarantined,
    /// No [`ShardRuntime::checkpoint`] has captured this shard, so
    /// there are no bytes to rebuild from.
    NoCheckpoint,
    /// The checkpoint bytes failed to restore (they are kept verbatim
    /// in memory, so this indicates corruption outside the runtime).
    Snapshot(SnapshotError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotQuarantined => write!(f, "shard is not quarantined"),
            Self::NoCheckpoint => write!(f, "no checkpoint to rebuild the shard from"),
            Self::Snapshot(e) => write!(f, "checkpoint failed to restore: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

/// Work sent to a shard worker.
enum Job {
    /// Ingest one batch (the buffer returns through the free list).
    Batch(Vec<u64>),
    /// Barrier acknowledgement: by channel FIFO, every batch enqueued
    /// before this job has been fully ingested when the shard's index
    /// comes back on the ack channel.
    Flush(Sender<usize>, usize),
}

struct Worker {
    tx: SyncSender<Job>,
    /// Behind a mutex so the `&self` flush path can join a dead worker
    /// when quarantining it.
    handle: Mutex<Option<JoinHandle<()>>>,
}

/// Mutable failure-tracking state, interior-mutable so the `&self`
/// read/flush paths can record deaths they discover.
struct HealthState {
    /// Panic message per quarantined shard (`None` = live).
    poisoned: Vec<Option<String>>,
    /// Items dropped instead of ingested; see
    /// [`RuntimeHealth::shed_items`].
    shed_items: u64,
}

/// A fixed bank of summaries, each driven by its own persistent worker
/// thread (or inline, in sequential mode). See the module docs for the
/// design.
pub struct ShardRuntime<S> {
    cells: Vec<Arc<Mutex<S>>>,
    /// Empty in sequential mode.
    workers: Vec<Worker>,
    /// Recycled batch buffers, refilled by workers after each drain
    /// (always disconnected-empty on the sequential fallback, which
    /// never allocates batch buffers at all).
    free_rx: Receiver<Vec<u64>>,
    /// Kept alive so [`ShardRuntime::recover`] can plumb the free list
    /// into a respawned worker.
    free_tx: Sender<Vec<u64>>,
    policy: FailurePolicy,
    backpressure: Backpressure,
    health: Mutex<HealthState>,
    /// Last checkpoint bytes per shard; see [`ShardRuntime::checkpoint`].
    checkpoints: Vec<Option<Arc<[u8]>>>,
}

impl<S> std::fmt::Debug for ShardRuntime<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRuntime")
            .field("shards", &self.cells.len())
            .field("parallel", &!self.workers.is_empty())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

/// Single-writer locks cannot poison each other, but a reader callback
/// (or a quarantined worker) may panic while holding the lock; the
/// state it saw is still consistent for readers, and writers only
/// reach a recovered cell through [`ShardRuntime::recover`], which
/// replaces the value wholesale.
fn lock<S>(cell: &Mutex<S>) -> std::sync::MutexGuard<'_, S> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a joined worker's panic payload for [`RuntimeHealth`].
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

impl<S: StreamSummary + Send + 'static> ShardRuntime<S> {
    /// A runtime over `summaries` (one shard each, in order) in the
    /// given mode, with the default [`FailurePolicy::Propagate`] and
    /// [`Backpressure::Block`].
    ///
    /// # Panics
    /// If `summaries` is empty, or a worker thread cannot be spawned.
    pub fn new(summaries: Vec<S>, mode: IngestMode) -> Self {
        assert!(!summaries.is_empty(), "need at least one shard");
        let parallel = match mode {
            IngestMode::Sequential => false,
            // Unconditional, even for one shard: the mode exists so the
            // equivalence and panic-propagation suites can force the
            // worker path onto any host.
            IngestMode::Parallel => true,
            IngestMode::Auto => {
                summaries.len() > 1
                    && std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                        > 1
            }
        };
        let cells: Vec<Arc<Mutex<S>>> = summaries
            .into_iter()
            .map(|s| Arc::new(Mutex::new(s)))
            .collect();
        let (free_tx, free_rx) = channel();
        let workers = if parallel {
            cells
                .iter()
                .enumerate()
                .map(|(j, cell)| spawn_worker(j, Arc::clone(cell), free_tx.clone()))
                .collect()
        } else {
            Vec::new()
        };
        let shards = cells.len();
        Self {
            cells,
            workers,
            free_rx,
            free_tx,
            policy: FailurePolicy::default(),
            backpressure: Backpressure::default(),
            health: Mutex::new(HealthState {
                poisoned: vec![None; shards],
                shed_items: 0,
            }),
            checkpoints: vec![None; shards],
        }
    }

    /// Sets what happens when a shard worker panics. Takes effect for
    /// deaths discovered from this call on; see [`FailurePolicy`].
    pub fn set_failure_policy(&mut self, policy: FailurePolicy) {
        self.policy = policy;
    }

    /// Sets the full-queue dispatch behavior; see [`Backpressure`].
    pub fn set_backpressure(&mut self, backpressure: Backpressure) {
        self.backpressure = backpressure;
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the runtime holds no shards (never true: construction
    /// requires at least one).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Whether persistent workers are running (false on the sequential
    /// fallback).
    pub fn is_parallel(&self) -> bool {
        !self.workers.is_empty()
    }

    /// A point-in-time health snapshot: which shards are quarantined
    /// (and why), how many items have been shed, and how many shards a
    /// [`ShardRuntime::recover`] could rebuild.
    pub fn health(&self) -> RuntimeHealth {
        let state = lock(&self.health);
        RuntimeHealth {
            shards: self.cells.len(),
            parallel: self.is_parallel(),
            poisoned: state
                .poisoned
                .iter()
                .enumerate()
                .filter_map(|(j, p)| p.as_ref().map(|msg| (j, msg.clone())))
                .collect(),
            shed_items: state.shed_items,
            checkpointed: self.checkpoints.iter().filter(|c| c.is_some()).count(),
        }
    }

    /// A recycled batch buffer from the free list, or a fresh one.
    fn recycled(&mut self) -> Vec<u64> {
        let mut buf = self.free_rx.try_recv().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Hands `items` to shard `j`: copies them into a recycled buffer
    /// and enqueues it on the shard's worker in parallel mode, ingests
    /// inline (zero-copy) in sequential mode.
    ///
    /// Under [`Backpressure::Block`] (default) this blocks while shard
    /// `j`'s queue is full; under [`Backpressure::Shed`] it drops the
    /// batch instead and counts the items. A dead worker follows the
    /// failure policy: [`FailurePolicy::Propagate`] re-raises its panic
    /// here, [`FailurePolicy::Quarantine`] poisons the shard and sheds.
    pub fn dispatch_ref(&mut self, j: usize, items: &[u64]) {
        if items.is_empty() {
            return;
        }
        if self.shed_if_poisoned(j, items.len() as u64) {
            return;
        }
        if self.workers.is_empty() {
            self.ingest_inline(j, items);
            return;
        }
        let mut owned = self.recycled();
        owned.extend_from_slice(items);
        self.send_batch(j, owned);
    }

    /// Whether shard `j` is quarantined; if so, charges `items` to the
    /// shed counter (a poisoned shard's traffic is dropped, not queued
    /// behind a worker that will never drain it).
    fn shed_if_poisoned(&self, j: usize, items: u64) -> bool {
        let mut state = lock(&self.health);
        if state.poisoned[j].is_some() {
            state.shed_items += items;
            true
        } else {
            false
        }
    }

    /// Sequential-mode ingestion. Under [`FailurePolicy::Quarantine`]
    /// a panicking summary poisons its shard exactly like a dead
    /// worker would (the panic is caught; reads on other shards keep
    /// working); under the default policy it propagates to the caller.
    fn ingest_inline(&self, j: usize, items: &[u64]) {
        match self.policy {
            FailurePolicy::Propagate => lock(&self.cells[j]).insert_batch(items),
            FailurePolicy::Quarantine => {
                let cell = &self.cells[j];
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    lock(cell).insert_batch(items)
                }));
                if let Err(payload) = outcome {
                    let mut state = lock(&self.health);
                    state.poisoned[j] = Some(payload_message(payload.as_ref()));
                    state.shed_items += items.len() as u64;
                }
            }
        }
    }

    /// Queues one owned batch on worker `j`, applying the backpressure
    /// policy and the failure policy.
    fn send_batch(&mut self, j: usize, owned: Vec<u64>) {
        use std::sync::mpsc::TrySendError;
        let send_result = match self.backpressure {
            Backpressure::Block => self.workers[j].tx.send(Job::Batch(owned)).map_err(|e| e.0),
            Backpressure::Shed => match self.workers[j].tx.try_send(Job::Batch(owned)) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(Job::Batch(buf))) => {
                    lock(&self.health).shed_items += buf.len() as u64;
                    // The buffer stays in circulation.
                    let _ = self.free_tx.send(buf);
                    Ok(())
                }
                Err(TrySendError::Full(job)) => {
                    drop(job);
                    unreachable!("only batches are dispatched here");
                }
                Err(TrySendError::Disconnected(job)) => Err(job),
            },
        };
        if let Err(job) = send_result {
            let lost = match job {
                Job::Batch(buf) => buf.len() as u64,
                Job::Flush(..) => 0,
            };
            self.worker_died(j, lost);
        }
    }

    /// Handles a discovered worker death per the failure policy.
    fn worker_died(&self, j: usize, lost_items: u64) {
        match self.policy {
            FailurePolicy::Propagate => self.join_dead_worker(j),
            FailurePolicy::Quarantine => self.quarantine(j, lost_items),
        }
    }

    /// Barrier: returns once every batch dispatched so far has been
    /// fully ingested. A no-op on the sequential fallback (ingestion is
    /// synchronous there).
    ///
    /// # Panics
    /// Under [`FailurePolicy::Propagate`], if any worker died — the
    /// queues of a dead shard would otherwise hold batches no one will
    /// ever drain. Under [`FailurePolicy::Quarantine`] the dead shards
    /// are quarantined instead and the live shards' barrier holds.
    pub fn flush(&self) {
        // Dead workers were already handled per policy inside the
        // barrier; a timeout is impossible with no deadline.
        let _ = self.barrier(None);
    }

    /// [`ShardRuntime::flush`] with a deadline: waits at most `timeout`
    /// for the barrier acknowledgements.
    ///
    /// # Errors
    /// [`FlushError::TimedOut`] with the still-pending shards if the
    /// deadline hits (their batches remain queued; the barrier can be
    /// retried), or [`FlushError::WorkerPanicked`] (quarantine policy
    /// only) naming shards whose workers died.
    ///
    /// # Panics
    /// Under [`FailurePolicy::Propagate`], if any worker died.
    pub fn flush_timeout(&self, timeout: Duration) -> Result<(), FlushError> {
        self.barrier(Some(timeout))
    }

    /// The shared barrier behind [`ShardRuntime::flush`] and
    /// [`ShardRuntime::flush_timeout`].
    fn barrier(&self, timeout: Option<Duration>) -> Result<(), FlushError> {
        if self.workers.is_empty() {
            return Ok(());
        }
        let (ack_tx, ack_rx) = channel();
        let mut awaiting = vec![false; self.workers.len()];
        let mut skipped_dead = Vec::new();
        {
            let state = lock(&self.health);
            for (j, w) in self.workers.iter().enumerate() {
                if state.poisoned[j].is_some() {
                    continue; // already quarantined: nothing to drain
                }
                // A send error means the worker's receiver is gone — it
                // panicked and unwound. Keep flushing the live shards so
                // their state is quiescent before we report.
                if w.tx.send(Job::Flush(ack_tx.clone(), j)).is_ok() {
                    awaiting[j] = true;
                } else {
                    skipped_dead.push(j);
                }
            }
        }
        drop(ack_tx);
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut pending = awaiting.iter().filter(|&&a| a).count();
        while pending > 0 {
            let ack = match deadline {
                None => ack_rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    ack_rx.recv_timeout(left)
                }
            };
            match ack {
                Ok(j) => {
                    awaiting[j] = false;
                    pending -= 1;
                }
                // Every remaining ack sender sat in a dead worker's
                // queue and was dropped with it: the shards still
                // marked awaiting are dead.
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {
                    return Err(FlushError::TimedOut {
                        pending: (0..awaiting.len()).filter(|&j| awaiting[j]).collect(),
                    });
                }
            }
        }
        let mut dead = skipped_dead;
        dead.extend((0..awaiting.len()).filter(|&j| awaiting[j]));
        if dead.is_empty() {
            return Ok(());
        }
        match self.policy {
            FailurePolicy::Propagate => {
                panic!("shard worker panicked; its batches cannot be recovered")
            }
            FailurePolicy::Quarantine => {
                for &j in &dead {
                    self.quarantine(j, 0);
                }
                Err(FlushError::WorkerPanicked { shards: dead })
            }
        }
    }

    /// Read access to shard `j`'s summary. Callers that need to observe
    /// all prior dispatches must [`ShardRuntime::flush`] first; the lock
    /// alone only guarantees a consistent (not necessarily current)
    /// view.
    pub fn with_summary<T>(&self, j: usize, f: impl FnOnce(&S) -> T) -> T {
        f(&lock(&self.cells[j]))
    }

    /// Maps a read over every shard's summary, in shard order. Same
    /// flush caveat as [`ShardRuntime::with_summary`].
    pub fn map_summaries<T>(&self, mut f: impl FnMut(&S) -> T) -> Vec<T> {
        self.cells.iter().map(|c| f(&lock(c))).collect()
    }

    /// Shuts the workers down and returns the summaries (flushing
    /// implicitly: shutdown drains every queue before the worker
    /// exits). Propagates the first worker panic found, unless the
    /// policy is [`FailurePolicy::Quarantine`] (those deaths are
    /// recorded state, not new information).
    pub fn into_summaries(mut self) -> Vec<S> {
        self.shutdown();
        self.cells
            .drain(..)
            .map(|c| {
                Arc::try_unwrap(c)
                    .ok()
                    .expect("workers joined; no other Arc holders remain")
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
            })
            .collect()
    }

    /// Quarantines shard `j`: joins its dead worker, records the panic
    /// message, and charges any lost items. Idempotent.
    fn quarantine(&self, j: usize, lost_items: u64) {
        let message = match lock(&self.workers[j].handle).take() {
            Some(handle) => match handle.join() {
                Err(payload) => payload_message(payload.as_ref()),
                Ok(()) => "worker exited unexpectedly".to_string(),
            },
            // Already joined (e.g. flush and dispatch both saw the
            // death): keep the first recorded message.
            None => return,
        };
        let mut state = lock(&self.health);
        state.poisoned[j] = Some(message);
        state.shed_items += lost_items;
    }

    /// Joins worker `j` after its channel disconnected, re-raising its
    /// panic payload.
    fn join_dead_worker(&self, j: usize) -> ! {
        let handle = lock(&self.workers[j].handle)
            .take()
            .expect("dead worker joined twice");
        match handle.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            // The worker loop only exits when the sender drops, and the
            // sender is alive in `self` — reaching this is a runtime
            // invariant violation, not a summary failure.
            Ok(()) => unreachable!("shard worker exited while its queue was live"),
        }
    }

    /// Drops every queue sender (workers drain and exit) and joins the
    /// threads, re-raising the first panic payload found (propagate
    /// policy only).
    fn shutdown(&mut self) {
        if let Some(payload) = join_all(&mut self.workers) {
            if self.policy == FailurePolicy::Propagate {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl<S: MergeableSummary + Send + 'static> ShardRuntime<S> {
    /// Checkpoints every live shard: flushes, then snapshots each
    /// summary ([`MergeableSummary::to_bytes`]) into the runtime's
    /// recovery slots. Returns the number of shards captured.
    /// Quarantined shards keep their previous checkpoint (their
    /// current state is whatever the panic left behind).
    ///
    /// The stored bytes are exactly what [`ShardRuntime::recover`]
    /// rebuilds from; callers wanting durability can persist the same
    /// bytes externally — the format is the tagged, checksummed
    /// snapshot codec.
    pub fn checkpoint(&mut self) -> usize {
        self.flush();
        self.capture_checkpoints(&[]).len()
    }

    /// [`ShardRuntime::checkpoint`] with a bounded flush barrier.
    /// Shards still pending when `timeout` hits are skipped entirely —
    /// their queued batches stay queued, their recovery slot keeps its
    /// previous bytes, and (crucially) their cell lock is never taken,
    /// so a worker wedged mid-batch cannot stall the caller. Returns
    /// the `(shard, bytes)` pairs actually captured.
    pub fn checkpoint_timeout(&mut self, timeout: Duration) -> Vec<(usize, Arc<[u8]>)> {
        let pending = match self.flush_timeout(timeout) {
            Ok(()) => Vec::new(),
            Err(FlushError::TimedOut { pending }) => pending,
            // Dead workers were quarantined by the barrier; the
            // poisoned filter below already excludes them.
            Err(FlushError::WorkerPanicked { .. }) => Vec::new(),
        };
        self.capture_checkpoints(&pending)
    }

    /// Arms the recovery slots with bytes the caller already holds,
    /// one per shard in order, without flushing or re-encoding: the
    /// snapshot a bank was just restored from, or the encoding a fresh
    /// bank was just given. The caller vouches that each entry restores
    /// to its shard's current state; [`ShardRuntime::recover`] rebuilds
    /// from exactly these bytes until the next checkpoint replaces them.
    ///
    /// # Panics
    /// If `bytes` does not hold exactly one entry per shard.
    pub fn seed_checkpoints(&mut self, bytes: Vec<Arc<[u8]>>) {
        assert_eq!(bytes.len(), self.cells.len(), "one checkpoint per shard");
        self.checkpoints = bytes.into_iter().map(Some).collect();
    }

    /// Snapshots every shard except poisoned ones and `skip` into the
    /// recovery slots, returning what was captured.
    fn capture_checkpoints(&mut self, skip: &[usize]) -> Vec<(usize, Arc<[u8]>)> {
        let poisoned: Vec<bool> = {
            let state = lock(&self.health);
            state.poisoned.iter().map(|p| p.is_some()).collect()
        };
        let mut captured = Vec::new();
        for (j, cell) in self.cells.iter().enumerate() {
            if poisoned[j] || skip.contains(&j) {
                continue;
            }
            let bytes: Arc<[u8]> = lock(cell).to_bytes().into();
            self.checkpoints[j] = Some(Arc::clone(&bytes));
            captured.push((j, bytes));
        }
        captured
    }

    /// Rebuilds quarantined shard `j` from its last checkpoint: the
    /// snapshot bytes restore to a summary, the shard's cell is
    /// replaced wholesale, a fresh worker is spawned (in parallel
    /// mode), and the shard rejoins dispatch.
    ///
    /// Everything ingested on shard `j` after the checkpoint is gone —
    /// by then it was either drained into the poisoned state being
    /// discarded here, or shed and counted. [`RuntimeHealth`] keeps
    /// the score honest.
    pub fn recover(&mut self, j: usize) -> Result<(), RecoverError> {
        {
            let state = lock(&self.health);
            if state.poisoned[j].is_none() {
                return Err(RecoverError::NotQuarantined);
            }
        }
        let bytes = self.checkpoints[j]
            .as_ref()
            .ok_or(RecoverError::NoCheckpoint)?;
        let restored = S::from_bytes(bytes).map_err(RecoverError::Snapshot)?;
        // The cell's mutex may still carry the poison flag from the
        // worker's panic; every lock in this module recovers through
        // `into_inner`, so the flag is harmless once the value is
        // replaced wholesale.
        *lock(&self.cells[j]) = restored;
        if !self.workers.is_empty() {
            self.workers[j] = spawn_worker(j, Arc::clone(&self.cells[j]), self.free_tx.clone());
        }
        lock(&self.health).poisoned[j] = None;
        Ok(())
    }
}

/// Spawns the persistent worker thread for shard `j` over `cell`,
/// returning batch buffers through `free`.
fn spawn_worker<S: StreamSummary + Send + 'static>(
    j: usize,
    cell: Arc<Mutex<S>>,
    free: Sender<Vec<u64>>,
) -> Worker {
    let (tx, rx) = sync_channel::<Job>(QUEUE_DEPTH);
    let handle = std::thread::Builder::new()
        .name(format!("hh-shard-{j}"))
        .spawn(move || {
            while let Ok(job) = rx.recv() {
                match job {
                    Job::Batch(buf) => {
                        lock(&cell).insert_batch(&buf);
                        // Free-list send fails only after the runtime
                        // dropped; then the buffer just deallocates
                        // here.
                        let _ = free.send(buf);
                    }
                    Job::Flush(ack, shard) => {
                        let _ = ack.send(shard);
                    }
                }
            }
        })
        .expect("spawn shard worker");
    Worker {
        tx,
        handle: Mutex::new(Some(handle)),
    }
}

/// Drains `workers`, dropping each queue sender **before** joining its
/// thread (the worker's `recv` loop ends when the last sender
/// disappears; joining first would deadlock). Returns the first panic
/// payload found, if any.
fn join_all(workers: &mut Vec<Worker>) -> Option<Box<dyn std::any::Any + Send>> {
    let mut panicked = None;
    for w in workers.drain(..) {
        let Worker { tx, handle } = w;
        drop(tx);
        let handle = handle.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some(handle) = handle {
            if let Err(payload) = handle.join() {
                panicked.get_or_insert(payload);
            }
        }
    }
    panicked
}

impl<S> Drop for ShardRuntime<S> {
    fn drop(&mut self) {
        // Re-raise a worker's panic unless we are already unwinding (a
        // double panic would abort and mask the original) or the
        // policy treats deaths as recorded state.
        if let Some(payload) = join_all(&mut self.workers) {
            if !std::thread::panicking() && self.policy == FailurePolicy::Propagate {
                std::panic::resume_unwind(payload);
            }
        }
    }
}
