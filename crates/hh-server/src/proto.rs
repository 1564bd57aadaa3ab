//! The wire protocol: length-prefixed frames whose bodies ride the v3
//! snapshot codec.
//!
//! A frame is `[u32 LE body_len][body]`. The body is a tagged,
//! checksummed buffer produced by [`hh_core::mergeable::snapshot`]'s
//! `encode` — the same fail-closed codec the summaries snapshot with —
//! under [`REQUEST_TAG`] or [`RESPONSE_TAG`]. That buys the protocol
//! the codec's whole hardening story for free: every length prefix is
//! validated against the remaining input before any allocation
//! (`bounded_len`), the fnv1a64x4 trailer is verified before a single
//! payload byte is interpreted, and any malformed input decodes to a
//! structured [`SnapshotError`] — never a panic, never an oversized
//! allocation.
//!
//! The one allocation the codec cannot guard — the frame body buffer
//! itself — is guarded here: [`read_frame`] rejects any length prefix
//! above [`MAX_FRAME_LEN`] *before* allocating
//! ([`ProtocolError::FrameTooLarge`]).
//!
//! ```text
//!        0        4              4+N-8        4+N
//!        +--------+----------------+------------+
//!        | u32 LE |  tagged body   |  fnv1a64x4 |
//!        | N      |  "hh.proto.*"  |  trailer   |
//!        +--------+----------------+------------+
//!                  \______ snapshot::encode ____/
//! ```
//!
//! # The `Ingest` item block
//!
//! An `Ingest` body carries its items as one block of raw
//! little-endian `u64` words — the block the WAL record payload
//! ([`crate::durability::encode_frame`]) already stores — written and
//! read through the codec's bulk word channel
//! ([`Writer::write_u64_words`], [`Reader::read_u64_words`]):
//!
//! ```text
//!   u64 op = 2 | u64 len, tenant | u64 shard | u64 client | u64 req_seq
//!   | u64 count | count × u64 LE items
//! ```
//!
//! The decoder refuses a count above [`MAX_BATCH`], then checks
//! `count × 8` against the bytes left, both before allocating. There is
//! one item encoding, with no width flag and no fallback. Through
//! `hh.proto.req.v2` the items were an LEB128 varint block: encoding
//! and decoding it cost ~22 ns per item, against ~2.7 ns per item for
//! the Algorithm-2 kernel that consumes the batch, and the server then
//! re-encoded the items as words for the WAL. Raw words take that codec
//! off the ingest path and cost wire size instead: 8 bytes per item,
//! where varints took ~4.9 on a Zipf batch.
//!
//! Errors cross the wire as `(code, message)` pairs inside
//! [`Response::Error`]; [`ProtocolError::to_wire`] /
//! [`ProtocolError::from_wire`] are the stable mapping.

use crate::facade::{SummaryKind, TenantSpec, MAX_SHARDS};
use hh_core::mergeable::snapshot;
use hh_core::{MergeError, ParamError, SnapshotError};
use hh_space::codec::{Codec, CodecError, Reader, Writer};
use std::io::{Read, Write};

/// Snapshot-codec tag for request bodies (v3: `Ingest` items travel
/// as raw little-endian words; see the module docs). A v2 body is
/// refused as [`SnapshotError::WrongTag`].
pub const REQUEST_TAG: &str = "hh.proto.req.v3";
/// Snapshot-codec tag for response bodies (v2: signed with the
/// checksum's folded lane step).
pub const RESPONSE_TAG: &str = "hh.proto.rsp.v2";

/// Hard ceiling on a frame body. A hostile length prefix above this is
/// rejected before any buffer is allocated.
pub const MAX_FRAME_LEN: usize = 4 << 20;

/// Hard ceiling on items in one `Ingest` batch (keeps a single request
/// comfortably under [`MAX_FRAME_LEN`] and bounds per-request work).
pub const MAX_BATCH: usize = 1 << 16;

/// Hard ceiling on tenant-name length.
pub const MAX_TENANT_NAME: usize = 64;

/// Everything that can go wrong between two protocol peers, as one
/// `?`-friendly error type.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// A frame length prefix exceeded [`MAX_FRAME_LEN`]; rejected
    /// before allocation.
    FrameTooLarge {
        /// The advertised body length.
        len: u64,
        /// The ceiling it exceeded.
        max: u64,
    },
    /// The peer closed the connection mid-frame.
    Truncated,
    /// A read or write missed its per-connection deadline.
    DeadlineExceeded,
    /// The frame body failed the snapshot codec's validation
    /// (bad tag, checksum mismatch, hostile length, malformed payload).
    Snapshot(SnapshotError),
    /// A merge the request demanded was refused by the summaries.
    Merge(MergeError),
    /// The request was well-formed bytes but semantically invalid.
    BadRequest(String),
    /// The named tenant does not exist.
    UnknownTenant(String),
    /// `Create` named a tenant that already exists.
    TenantExists(String),
    /// `Ingest` addressed a shard outside the tenant's bank.
    ShardOutOfRange {
        /// The shard the request addressed.
        shard: u32,
        /// The tenant's shard count.
        shards: u32,
    },
    /// The tenant's runtime is quarantined; reads still work, writes
    /// are refused until `Recover`.
    Quarantined(String),
    /// The server shed the request under overload; retry after the
    /// indicated backoff.
    Overloaded {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The peer answered with a response the request cannot produce.
    UnexpectedResponse(&'static str),
    /// A transport-level failure, with its [`std::io::ErrorKind`].
    Io(std::io::ErrorKind, String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte ceiling")
            }
            Self::Truncated => write!(f, "connection closed mid-frame"),
            Self::DeadlineExceeded => write!(f, "connection deadline exceeded"),
            Self::Snapshot(e) => write!(f, "frame body rejected: {e}"),
            Self::Merge(e) => write!(f, "merge refused: {e}"),
            Self::BadRequest(what) => write!(f, "bad request: {what}"),
            Self::UnknownTenant(name) => write!(f, "unknown tenant {name:?}"),
            Self::TenantExists(name) => write!(f, "tenant {name:?} already exists"),
            Self::ShardOutOfRange { shard, shards } => {
                write!(f, "shard {shard} out of range for a {shards}-shard tenant")
            }
            Self::Quarantined(name) => {
                write!(f, "tenant {name:?} is quarantined; recover before writing")
            }
            Self::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms} ms")
            }
            Self::UnexpectedResponse(what) => write!(f, "unexpected response: {what}"),
            Self::Io(kind, msg) => write!(f, "transport failure ({kind:?}): {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Snapshot(e) => Some(e),
            Self::Merge(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for ProtocolError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

impl From<MergeError> for ProtocolError {
    fn from(e: MergeError) -> Self {
        Self::Merge(e)
    }
}

impl From<ParamError> for ProtocolError {
    fn from(e: ParamError) -> Self {
        Self::BadRequest(e.to_string())
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            // Deadline-bounded sockets surface expiry as one of these
            // two kinds depending on platform.
            ErrorKind::TimedOut | ErrorKind::WouldBlock => Self::DeadlineExceeded,
            ErrorKind::UnexpectedEof => Self::Truncated,
            kind => Self::Io(kind, e.to_string()),
        }
    }
}

impl ProtocolError {
    /// Stable `(code, message)` wire form for [`Response::Error`].
    pub fn to_wire(&self) -> (u64, String) {
        let code = match self {
            Self::FrameTooLarge { .. } => 1,
            Self::Truncated => 2,
            Self::DeadlineExceeded => 3,
            Self::Snapshot(_) => 4,
            Self::Merge(_) => 5,
            Self::BadRequest(_) => 6,
            Self::UnknownTenant(_) => 7,
            Self::TenantExists(_) => 8,
            Self::ShardOutOfRange { .. } => 9,
            Self::Quarantined(_) => 10,
            Self::Overloaded { .. } => 11,
            Self::UnexpectedResponse(_) => 12,
            Self::Io(..) => 13,
        };
        (code, self.to_string())
    }

    /// Rebuilds the error a peer sent as `(code, message)`. Codes that
    /// carry structure rebuild the closest structured variant; unknown
    /// codes fold into [`ProtocolError::BadRequest`] (an old server
    /// talking to a newer client must not crash the client).
    pub fn from_wire(code: u64, message: String) -> Self {
        match code {
            1 => Self::FrameTooLarge {
                len: 0,
                max: MAX_FRAME_LEN as u64,
            },
            2 => Self::Truncated,
            3 => Self::DeadlineExceeded,
            4 => Self::Snapshot(SnapshotError::Malformed(message)),
            5 => Self::Merge(MergeError::Incompatible("remote peer refused the merge")),
            7 => Self::UnknownTenant(message),
            8 => Self::TenantExists(message),
            9 => Self::ShardOutOfRange {
                shard: 0,
                shards: 0,
            },
            10 => Self::Quarantined(message),
            11 => Self::Overloaded { retry_after_ms: 0 },
            12 => Self::UnexpectedResponse("remote"),
            13 => Self::Io(std::io::ErrorKind::Other, message),
            _ => Self::BadRequest(message),
        }
    }
}

/// Validates a tenant name: non-empty, at most [`MAX_TENANT_NAME`]
/// bytes, `[A-Za-z0-9_-]` only (names become snapshot directory names,
/// so path metacharacters are rejected at the protocol boundary).
pub fn validate_tenant_name(name: &str) -> Result<(), ProtocolError> {
    if name.is_empty() || name.len() > MAX_TENANT_NAME {
        return Err(ProtocolError::BadRequest(format!(
            "tenant name must be 1..={MAX_TENANT_NAME} bytes, got {}",
            name.len()
        )));
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
    {
        return Err(ProtocolError::BadRequest(format!(
            "tenant name {name:?} has characters outside [A-Za-z0-9_-]"
        )));
    }
    Ok(())
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Creates a tenant with the given summary spec.
    Create {
        /// Tenant name (see [`validate_tenant_name`]).
        tenant: String,
        /// Summary kind, parameters, seeds, shard count.
        spec: TenantSpec,
    },
    /// Appends a batch of stream items to one shard of a tenant.
    Ingest {
        /// Target tenant.
        tenant: String,
        /// Target shard in `0..spec.shards`.
        shard: u32,
        /// Client identity for exactly-once dedup (0 = anonymous:
        /// no dedup, the batch is applied every time it arrives).
        client: u64,
        /// Client request sequence number. Retrying a transport-failed
        /// ingest with the **same** `(client, req_seq)` is exactly-once:
        /// if the original was applied, the server replies with the
        /// original ack instead of applying again.
        req_seq: u64,
        /// Stream items (at most [`MAX_BATCH`]).
        items: Vec<u64>,
    },
    /// Reads the tenant's merged heavy-hitter report.
    ///
    /// Reads are **read-uncommitted**: an ingest is applied to the
    /// shards before its WAL commit, so a concurrent query can count
    /// items whose ack never leaves the server (the commit's fsync
    /// fails and latches fail-stop, or the process dies first). Only
    /// acked items are promised to survive recovery.
    Query {
        /// Target tenant.
        tenant: String,
    },
    /// Server health and statistics.
    Health,
    /// Forces a checkpoint of every tenant bank to disk now.
    Checkpoint,
    /// Returns the tenant's merged summary as portable snapshot bytes.
    Snapshot {
        /// Target tenant.
        tenant: String,
    },
    /// Clears a quarantined tenant back to its last checkpoint.
    Recover {
        /// Target tenant.
        tenant: String,
    },
    /// Asks the server to drain, checkpoint, and exit.
    Shutdown,
    /// Estimates the mass of an inclusive id range `[lo, hi]` over the
    /// tenant's merged state. Only tenants of the
    /// [`SummaryKind::Dyadic`] kind can answer.
    RangeQuery {
        /// Target tenant.
        tenant: String,
        /// First id of the range (inclusive).
        lo: u64,
        /// Last id of the range (inclusive).
        hi: u64,
    },
    /// Reads the tenant's heavy dyadic intervals (prefixes) at the
    /// given threshold. Only [`SummaryKind::Dyadic`] tenants answer.
    HeavyRanges {
        /// Target tenant.
        tenant: String,
        /// Heaviness threshold as a fraction of the stream.
        phi: f64,
    },
}

/// One heavy dyadic interval on the wire: `(level, lo, hi, estimate)`.
pub type RangeEntry = (u32, u64, u64, f64);

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Create`].
    Created,
    /// Reply to [`Request::Ingest`]: the batch was applied.
    Ingested {
        /// Items applied from this batch.
        accepted: u64,
    },
    /// Overload reply to [`Request::Ingest`]: nothing was applied;
    /// retry after the indicated backoff.
    RetryAfter {
        /// Suggested client backoff in milliseconds.
        millis: u64,
    },
    /// Reply to [`Request::Query`].
    Report {
        /// `(item, estimate)` pairs in decreasing-estimate order.
        entries: Vec<(u64, f64)>,
        /// Serving epoch the report was read at.
        epoch: u64,
    },
    /// Reply to [`Request::Health`].
    Health(ServerHealth),
    /// Reply to [`Request::Checkpoint`].
    Checkpointed {
        /// Tenants whose banks were written to disk.
        tenants: u64,
    },
    /// Reply to [`Request::Snapshot`].
    Snapshot {
        /// Portable snapshot bytes (restorable by any
        /// `MergeableSummary` of the tenant's kind — or the
        /// `DynSummary` facade).
        bytes: Vec<u8>,
    },
    /// Reply to [`Request::Shutdown`].
    ShuttingDown,
    /// Reply to [`Request::Recover`].
    Recovered {
        /// Shards rebuilt from their last checkpoint.
        shards: u64,
    },
    /// Structured failure, from [`ProtocolError::to_wire`].
    Error {
        /// Stable error code.
        code: u64,
        /// Human-readable description.
        message: String,
    },
    /// Reply to [`Request::RangeQuery`].
    RangeEstimate {
        /// Estimated range mass, in stream counts.
        estimate: f64,
        /// Serving epoch the estimate was read at.
        epoch: u64,
    },
    /// Reply to [`Request::HeavyRanges`].
    Ranges {
        /// `(level, lo, hi, estimate)` per heavy dyadic interval,
        /// level-major (coarsest first), then by lower endpoint.
        entries: Vec<RangeEntry>,
        /// Serving epoch the ranges were read at.
        epoch: u64,
    },
}

/// Server health: the observability surface the `Health` op exposes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServerHealth {
    /// Live tenants.
    pub tenants: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Connections refused at accept because the server was full.
    pub accept_rejections: u64,
    /// Ingest batches shed under overload (sums tenant runtimes' shed
    /// counters and admission-control rejections).
    pub shed_batches: u64,
    /// Tenants evicted to snapshot by the memory budget (LRU).
    pub evictions: u64,
    /// Checkpoint rounds completed.
    pub checkpoints: u64,
    /// Tenants restored from disk at the last boot.
    pub recovered_tenants: u64,
    /// Tenants currently quarantined (poisoned runtime, or
    /// unrecoverable at boot). Writes to them are refused; the rest of
    /// the server keeps serving.
    pub quarantined: Vec<String>,
    /// Heap bytes currently held by resident tenant summaries.
    pub resident_bytes: u64,
    /// WAL records appended across resident tenants, each counted
    /// since its log was last opened.
    pub wal_appended: u64,
    /// WAL records not yet covered by a checkpoint — the replay debt a
    /// crash right now would incur.
    pub wal_depth: u64,
    /// WAL fsyncs issued (a commit already covered by an earlier fsync
    /// issues none, so this can trail the ack count).
    pub wal_fsyncs: u64,
    /// Worst single commit wait observed, in microseconds — the fsync
    /// lag an acked ingest paid.
    pub wal_max_commit_wait_us: u64,
    /// WAL records replayed into summaries at boot/rehydration.
    pub wal_replayed: u64,
    /// Retried ingests answered from the dedup table instead of
    /// re-applied.
    pub dedup_hits: u64,
    /// Live WAL segment files across resident tenants.
    pub wal_segments: u64,
    /// Wall time, in microseconds, of the last boot's hydrate phase:
    /// restoring every recovered tenant's bundle and replaying its WAL.
    pub boot_recovery_us: u64,
    /// Torn-tail bytes cut from WAL segments at boot and at eviction
    /// rehydration since the server started.
    pub wal_truncated_bytes: u64,
}

// --- wire codecs ---

fn write_string_seq(values: &[String], w: &mut Writer) {
    w.write_seq_len(values.len());
    for v in values {
        w.write_str(v);
    }
}

fn read_string_seq(r: &mut Reader<'_>) -> Result<Vec<String>, CodecError> {
    let n = r.read_seq_len()?;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(r.read_string()?);
    }
    Ok(out)
}

impl Codec for TenantSpec {
    fn write_to(&self, w: &mut Writer) {
        w.write_u64(self.kind.code());
        w.write_f64(self.eps);
        w.write_f64(self.phi);
        w.write_f64(self.delta);
        w.write_u64(self.universe);
        w.write_u64(self.m);
        w.write_u64(self.structure_seed);
        w.write_u64(u64::from(self.shards));
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let code = r.read_u64()?;
        let kind = SummaryKind::from_code(code)
            .ok_or_else(|| CodecError::invariant(format!("unknown summary kind code {code}")))?;
        let eps = r.read_f64()?;
        let phi = r.read_f64()?;
        let delta = r.read_f64()?;
        let universe = r.read_u64()?;
        let m = r.read_u64()?;
        let structure_seed = r.read_u64()?;
        let shards = r.read_u64()?;
        if shards == 0 || shards > u64::from(MAX_SHARDS) {
            return Err(CodecError::invariant(format!(
                "shard count {shards} outside 1..={MAX_SHARDS}"
            )));
        }
        Ok(Self {
            kind,
            eps,
            phi,
            delta,
            universe,
            m,
            structure_seed,
            shards: shards as u32,
        })
    }
}

/// The one `Ingest` writer, shared by [`Request`]'s [`Codec`] impl and
/// [`Request::encode_ingest`]; see the module docs for the layout.
fn write_ingest(
    w: &mut Writer,
    tenant: &str,
    shard: u32,
    client: u64,
    req_seq: u64,
    items: &[u64],
) {
    // Room for the rest of the body and the digest trailer, so the item
    // block and the trailer land without a reallocation.
    w.reserve(6 * 8 + tenant.len() + items.len() * 8 + snapshot::CHECKSUM_LEN);
    w.write_u64(2);
    w.write_str(tenant);
    w.write_u64(u64::from(shard));
    w.write_u64(client);
    w.write_u64(req_seq);
    w.write_seq_len(items.len());
    w.write_u64_words(items);
}

impl Codec for Request {
    fn write_to(&self, w: &mut Writer) {
        match self {
            Self::Ping => w.write_u64(0),
            Self::Create { tenant, spec } => {
                w.write_u64(1);
                w.write_str(tenant);
                spec.write_to(w);
            }
            Self::Ingest {
                tenant,
                shard,
                client,
                req_seq,
                items,
            } => write_ingest(w, tenant, *shard, *client, *req_seq, items),
            Self::Query { tenant } => {
                w.write_u64(3);
                w.write_str(tenant);
            }
            Self::Health => w.write_u64(4),
            Self::Checkpoint => w.write_u64(5),
            Self::Snapshot { tenant } => {
                w.write_u64(6);
                w.write_str(tenant);
            }
            Self::Recover { tenant } => {
                w.write_u64(7);
                w.write_str(tenant);
            }
            Self::Shutdown => w.write_u64(8),
            Self::RangeQuery { tenant, lo, hi } => {
                w.write_u64(9);
                w.write_str(tenant);
                w.write_u64(*lo);
                w.write_u64(*hi);
            }
            Self::HeavyRanges { tenant, phi } => {
                w.write_u64(10);
                w.write_str(tenant);
                w.write_f64(*phi);
            }
        }
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let read_tenant = |r: &mut Reader<'_>| -> Result<String, CodecError> {
            let name = r.read_string()?;
            if name.len() > MAX_TENANT_NAME {
                return Err(CodecError::length_overflow(format!(
                    "tenant name of {} bytes exceeds the {MAX_TENANT_NAME}-byte cap",
                    name.len()
                )));
            }
            Ok(name)
        };
        Ok(match r.read_u64()? {
            0 => Self::Ping,
            1 => {
                let tenant = read_tenant(r)?;
                let spec = TenantSpec::read_from(r)?;
                Self::Create { tenant, spec }
            }
            2 => {
                let tenant = read_tenant(r)?;
                let shard = r.read_u64()?;
                if shard > u64::from(MAX_SHARDS) {
                    return Err(CodecError::invariant(format!(
                        "shard index {shard} outside any legal bank"
                    )));
                }
                let client = r.read_u64()?;
                let req_seq = r.read_u64()?;
                let count = r.read_u64()?;
                if count > MAX_BATCH as u64 {
                    return Err(CodecError::length_overflow(format!(
                        "ingest batch of {count} items exceeds the {MAX_BATCH}-item cap"
                    )));
                }
                let items = r.read_u64_words(count as usize)?;
                Self::Ingest {
                    tenant,
                    shard: shard as u32,
                    client,
                    req_seq,
                    items,
                }
            }
            3 => Self::Query {
                tenant: read_tenant(r)?,
            },
            4 => Self::Health,
            5 => Self::Checkpoint,
            6 => Self::Snapshot {
                tenant: read_tenant(r)?,
            },
            7 => Self::Recover {
                tenant: read_tenant(r)?,
            },
            8 => Self::Shutdown,
            9 => {
                let tenant = read_tenant(r)?;
                let lo = r.read_u64()?;
                let hi = r.read_u64()?;
                if lo > hi {
                    return Err(CodecError::invariant(format!(
                        "range lower bound {lo} above upper bound {hi}"
                    )));
                }
                Self::RangeQuery { tenant, lo, hi }
            }
            10 => {
                let tenant = read_tenant(r)?;
                let phi = r.read_f64()?;
                if !(phi > 0.0 && phi <= 1.0) {
                    return Err(CodecError::invariant(format!(
                        "range threshold {phi} outside (0, 1]"
                    )));
                }
                Self::HeavyRanges { tenant, phi }
            }
            op => return Err(CodecError::invariant(format!("unknown request op {op}"))),
        })
    }
}

impl Codec for ServerHealth {
    fn write_to(&self, w: &mut Writer) {
        w.write_u64(self.tenants);
        w.write_u64(self.active_connections);
        w.write_u64(self.accept_rejections);
        w.write_u64(self.shed_batches);
        w.write_u64(self.evictions);
        w.write_u64(self.checkpoints);
        w.write_u64(self.recovered_tenants);
        write_string_seq(&self.quarantined, w);
        w.write_u64(self.resident_bytes);
        w.write_u64(self.wal_appended);
        w.write_u64(self.wal_depth);
        w.write_u64(self.wal_fsyncs);
        w.write_u64(self.wal_max_commit_wait_us);
        w.write_u64(self.wal_replayed);
        w.write_u64(self.dedup_hits);
        w.write_u64(self.wal_segments);
        w.write_u64(self.boot_recovery_us);
        w.write_u64(self.wal_truncated_bytes);
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            tenants: r.read_u64()?,
            active_connections: r.read_u64()?,
            accept_rejections: r.read_u64()?,
            shed_batches: r.read_u64()?,
            evictions: r.read_u64()?,
            checkpoints: r.read_u64()?,
            recovered_tenants: r.read_u64()?,
            quarantined: read_string_seq(r)?,
            resident_bytes: r.read_u64()?,
            wal_appended: r.read_u64()?,
            wal_depth: r.read_u64()?,
            wal_fsyncs: r.read_u64()?,
            wal_max_commit_wait_us: r.read_u64()?,
            wal_replayed: r.read_u64()?,
            dedup_hits: r.read_u64()?,
            wal_segments: r.read_u64()?,
            boot_recovery_us: r.read_u64()?,
            wal_truncated_bytes: r.read_u64()?,
        })
    }
}

impl Codec for Response {
    fn write_to(&self, w: &mut Writer) {
        match self {
            Self::Pong => w.write_u64(0),
            Self::Created => w.write_u64(1),
            Self::Ingested { accepted } => {
                w.write_u64(2);
                w.write_u64(*accepted);
            }
            Self::RetryAfter { millis } => {
                w.write_u64(3);
                w.write_u64(*millis);
            }
            Self::Report { entries, epoch } => {
                w.write_u64(4);
                w.write_seq_len(entries.len());
                for &(item, estimate) in entries {
                    w.write_u64(item);
                    w.write_f64(estimate);
                }
                w.write_u64(*epoch);
            }
            Self::Health(health) => {
                w.write_u64(5);
                health.write_to(w);
            }
            Self::Checkpointed { tenants } => {
                w.write_u64(6);
                w.write_u64(*tenants);
            }
            Self::Snapshot { bytes } => {
                w.write_u64(7);
                w.write_byte_seq(bytes);
            }
            Self::ShuttingDown => w.write_u64(8),
            Self::Recovered { shards } => {
                w.write_u64(10);
                w.write_u64(*shards);
            }
            Self::Error { code, message } => {
                w.write_u64(9);
                w.write_u64(*code);
                w.write_str(message);
            }
            Self::RangeEstimate { estimate, epoch } => {
                w.write_u64(11);
                w.write_f64(*estimate);
                w.write_u64(*epoch);
            }
            Self::Ranges { entries, epoch } => {
                w.write_u64(12);
                w.write_seq_len(entries.len());
                for &(level, lo, hi, estimate) in entries {
                    w.write_u64(u64::from(level));
                    w.write_u64(lo);
                    w.write_u64(hi);
                    w.write_f64(estimate);
                }
                w.write_u64(*epoch);
            }
        }
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.read_u64()? {
            0 => Self::Pong,
            1 => Self::Created,
            2 => Self::Ingested {
                accepted: r.read_u64()?,
            },
            3 => Self::RetryAfter {
                millis: r.read_u64()?,
            },
            4 => {
                let n = r.read_seq_len()?;
                let mut entries = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let item = r.read_u64()?;
                    let estimate = r.read_f64()?;
                    entries.push((item, estimate));
                }
                Self::Report {
                    entries,
                    epoch: r.read_u64()?,
                }
            }
            5 => Self::Health(ServerHealth::read_from(r)?),
            6 => Self::Checkpointed {
                tenants: r.read_u64()?,
            },
            7 => Self::Snapshot {
                bytes: r.read_byte_seq()?,
            },
            8 => Self::ShuttingDown,
            9 => Self::Error {
                code: r.read_u64()?,
                message: r.read_string()?,
            },
            10 => Self::Recovered {
                shards: r.read_u64()?,
            },
            11 => Self::RangeEstimate {
                estimate: r.read_f64()?,
                epoch: r.read_u64()?,
            },
            12 => {
                let n = r.read_seq_len()?;
                let mut entries = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let level = r.read_u64()?;
                    if level > 64 {
                        return Err(CodecError::invariant(format!(
                            "dyadic level {level} above 64"
                        )));
                    }
                    let lo = r.read_u64()?;
                    let hi = r.read_u64()?;
                    let estimate = r.read_f64()?;
                    entries.push((level as u32, lo, hi, estimate));
                }
                Self::Ranges {
                    entries,
                    epoch: r.read_u64()?,
                }
            }
            op => return Err(CodecError::invariant(format!("unknown response op {op}"))),
        })
    }
}

impl Request {
    /// Encodes into a checksummed, tagged frame body.
    pub fn encode(&self) -> Vec<u8> {
        snapshot::encode(REQUEST_TAG, self)
    }

    /// Encodes a [`Request::Ingest`] body from borrowed parts: the
    /// client's hot path, with no owned copy of the items. Byte-identical
    /// to `encode` of the same request.
    pub fn encode_ingest(
        tenant: &str,
        shard: u32,
        client: u64,
        req_seq: u64,
        items: &[u64],
    ) -> Vec<u8> {
        snapshot::encode_with(REQUEST_TAG, |w| {
            write_ingest(w, tenant, shard, client, req_seq, items)
        })
    }

    /// Decodes a frame body. Fail-closed: any deviation is a
    /// structured error.
    pub fn decode(body: &[u8]) -> Result<Self, ProtocolError> {
        Ok(snapshot::decode(REQUEST_TAG, body)?)
    }
}

impl Response {
    /// Encodes into a checksummed, tagged frame body.
    pub fn encode(&self) -> Vec<u8> {
        snapshot::encode(RESPONSE_TAG, self)
    }

    /// Decodes a frame body. Fail-closed: any deviation is a
    /// structured error.
    pub fn decode(body: &[u8]) -> Result<Self, ProtocolError> {
        Ok(snapshot::decode(RESPONSE_TAG, body)?)
    }

    /// The error response for a failed request.
    pub fn from_error(e: &ProtocolError) -> Self {
        let (code, message) = e.to_wire();
        Self::Error { code, message }
    }
}

/// Writes one frame: the `u32 LE` body length, then the body.
///
/// # Errors
/// [`ProtocolError::FrameTooLarge`] if `body` exceeds
/// [`MAX_FRAME_LEN`]; otherwise transport errors.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<(), ProtocolError> {
    if body.len() > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge {
            len: body.len() as u64,
            max: MAX_FRAME_LEN as u64,
        });
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame body, validating the length prefix against
/// [`MAX_FRAME_LEN`] before allocating.
///
/// A clean EOF *before the first prefix byte* returns `Ok(None)` (the
/// peer hung up between frames); EOF anywhere later is
/// [`ProtocolError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(ProtocolError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge {
            len: len as u64,
            max: MAX_FRAME_LEN as u64,
        });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Create {
                tenant: "alpha".into(),
                spec: TenantSpec::default(),
            },
            Request::Ingest {
                tenant: "alpha".into(),
                shard: 3,
                client: 0x9E37_79B9,
                req_seq: 17,
                items: vec![1, 2, 3, u64::MAX],
            },
            Request::Query {
                tenant: "alpha".into(),
            },
            Request::Health,
            Request::Checkpoint,
            Request::Snapshot {
                tenant: "alpha".into(),
            },
            Request::Recover {
                tenant: "alpha".into(),
            },
            Request::Shutdown,
            Request::RangeQuery {
                tenant: "alpha".into(),
                lo: 1 << 24,
                hi: (1 << 25) - 1,
            },
            Request::HeavyRanges {
                tenant: "alpha".into(),
                phi: 0.05,
            },
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Created,
            Response::Ingested { accepted: 42 },
            Response::RetryAfter { millis: 25 },
            Response::Report {
                entries: vec![(7, 1000.5), (9, 10.0)],
                epoch: 12,
            },
            Response::Health(ServerHealth {
                tenants: 2,
                quarantined: vec!["bad".into()],
                resident_bytes: 4096,
                wal_appended: 12,
                wal_depth: 3,
                wal_fsyncs: 4,
                wal_max_commit_wait_us: 1500,
                wal_replayed: 7,
                dedup_hits: 2,
                wal_segments: 2,
                boot_recovery_us: 640_123,
                wal_truncated_bytes: 4_097,
                ..ServerHealth::default()
            }),
            Response::Checkpointed { tenants: 2 },
            Response::Snapshot {
                bytes: vec![0xDE, 0xAD],
            },
            Response::ShuttingDown,
            Response::Recovered { shards: 1 },
            Response::Error {
                code: 7,
                message: "unknown tenant".into(),
            },
            Response::RangeEstimate {
                estimate: 123.5,
                epoch: 4,
            },
            Response::Ranges {
                entries: vec![(8, 0, (1 << 24) - 1, 400.0), (32, 7, 7, 90.25)],
                epoch: 4,
            },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        // The `fnv1a64x4` of every encoding, pinned in `requests()` and
        // `responses()` order: a codec change that moves one wire byte
        // fails here, not at a peer running the other build.
        const REQUEST_DIGESTS: [u64; 11] = [
            0xB08F_93BC_8473_9F74,
            0xD282_BBF1_9022_A158,
            0x1973_87F9_C53D_8F08,
            0xA520_34D5_06ED_C52F,
            0x13FC_900D_E3D9_EEBB,
            0xB94D_AD4D_9089_74A3,
            0xEB4F_7813_A7A1_28D4,
            0x0536_5080_23BC_906B,
            0x20E7_51D2_86EB_9CB7,
            0xFC83_87AC_64FC_DE42,
            0xEEF5_C018_EC04_4859,
        ];
        const RESPONSE_DIGESTS: [u64; 13] = [
            0x1741_0669_9A2E_B743,
            0xF96C_7099_E1A4_9828,
            0x037C_E0A1_E396_7114,
            0x1044_10FE_0FDD_090D,
            0x9E51_7FFD_A91A_9AE8,
            0x1175_4E9B_BE60_BC48,
            0x522F_5FB4_51CF_E1A8,
            0x68C0_6B66_723D_67F1,
            0x375D_5796_6038_E68A,
            0x866C_4B63_CD98_71A0,
            0x617C_EB76_E1F3_E3FE,
            0x454D_8719_9B2F_35E5,
            0x9813_2417_8BBA_E850,
        ];
        let mut digests = Vec::new();
        for req in requests() {
            let body = req.encode();
            digests.push(hh_space::fnv1a64x4(&body));
            assert_eq!(Request::decode(&body).unwrap(), req);
        }
        assert_eq!(digests, REQUEST_DIGESTS, "request encodings moved");
        digests.clear();
        for rsp in responses() {
            let body = rsp.encode();
            digests.push(hh_space::fnv1a64x4(&body));
            assert_eq!(Response::decode(&body).unwrap(), rsp);
        }
        assert_eq!(digests, RESPONSE_DIGESTS, "response encodings moved");
    }

    #[test]
    fn frames_roundtrip_over_a_byte_pipe() {
        let mut pipe = Vec::new();
        for req in requests() {
            write_frame(&mut pipe, &req.encode()).unwrap();
        }
        let mut r = &pipe[..];
        for req in requests() {
            let body = read_frame(&mut r).unwrap().expect("frame present");
            assert_eq!(Request::decode(&body).unwrap(), req);
        }
        assert_eq!(
            read_frame(&mut r).unwrap(),
            None,
            "clean EOF between frames"
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut evil = Vec::new();
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        evil.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut &evil[..]).unwrap_err();
        assert!(matches!(err, ProtocolError::FrameTooLarge { .. }), "{err}");
    }

    #[test]
    fn truncation_mid_prefix_and_mid_body_is_structured() {
        let mut pipe = Vec::new();
        write_frame(
            &mut pipe,
            &Request::Query {
                tenant: "alpha".into(),
            }
            .encode(),
        )
        .unwrap();
        for cut in 1..pipe.len() {
            let err = read_frame(&mut &pipe[..cut]).unwrap_err();
            assert_eq!(err, ProtocolError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_bodies_never_decode() {
        let body = Request::Health.encode();
        for i in 0..body.len() {
            let mut bent = body.to_vec();
            bent[i] ^= 0x40;
            assert!(
                Request::decode(&bent).is_err(),
                "bit flip at byte {i} slipped through the checksum"
            );
        }
    }

    #[test]
    fn health_responses_fail_closed_under_truncation_and_bit_flips() {
        // Every field set, so a flip in any of them (the recovery
        // fields last on the wire included) would show if it decoded.
        let health = Response::Health(ServerHealth {
            tenants: 3,
            active_connections: 4,
            accept_rejections: 5,
            shed_batches: 6,
            evictions: 7,
            checkpoints: 8,
            recovered_tenants: 9,
            quarantined: vec!["q".into()],
            resident_bytes: 10,
            wal_appended: 11,
            wal_depth: 12,
            wal_fsyncs: 13,
            wal_max_commit_wait_us: 14,
            wal_replayed: 15,
            dedup_hits: 16,
            wal_segments: 17,
            boot_recovery_us: 18,
            wal_truncated_bytes: 19,
        });
        let body = health.encode();
        assert_eq!(Response::decode(&body).unwrap(), health);
        for cut in 0..body.len() {
            assert!(
                Response::decode(&body[..cut]).is_err(),
                "health truncated at {cut} decoded"
            );
        }
        for i in 0..body.len() {
            for bit in [0x01u8, 0x80] {
                let mut bent = body.to_vec();
                bent[i] ^= bit;
                assert!(
                    Response::decode(&bent).is_err(),
                    "flip {bit:#x} at byte {i} of a health body decoded"
                );
            }
        }
    }

    #[test]
    fn hostile_batch_and_name_caps_hold() {
        let shard0_items = |n: usize| Request::Ingest {
            tenant: "t".into(),
            shard: 0,
            client: 0,
            req_seq: 0,
            items: vec![7; n],
        };
        assert!(Request::decode(&shard0_items(MAX_BATCH).encode()).is_ok());
        assert!(Request::decode(&shard0_items(MAX_BATCH + 1).encode()).is_err());
        let long_name = Request::Query {
            tenant: "x".repeat(MAX_TENANT_NAME + 1),
        };
        assert!(Request::decode(&long_name.encode()).is_err());
    }

    /// A request body of the given payload under [`REQUEST_TAG`], with a
    /// valid trailer: hostile payloads reach the decoder, not the
    /// checksum.
    fn sealed(payload: impl FnOnce(&mut Writer)) -> Vec<u8> {
        snapshot::encode_with(REQUEST_TAG, payload)
    }

    /// An `Ingest` payload whose item block claims `count` items and
    /// holds `words`, then one stray byte if `stray`.
    fn ingest_claiming(count: u64, words: &[u64], stray: bool) -> Vec<u8> {
        sealed(|w| {
            w.write_u64(2);
            w.write_str("t");
            w.write_u64(0);
            w.write_u64(9);
            w.write_u64(1);
            w.write_u64(count);
            w.write_u64_words(words);
            if stray {
                w.write_bool(true);
            }
        })
    }

    #[test]
    fn hostile_item_blocks_are_structured_errors() {
        // Each lying count would, if trusted, size an allocation far
        // beyond the frame (up to 2^64 bytes, which aborts rather than
        // errs), so a structured error here also shows nothing was
        // allocated from it.
        let overflow = |body: &[u8]| match Request::decode(body) {
            Err(ProtocolError::Snapshot(SnapshotError::LengthOverflow(msg))) => msg,
            other => panic!("wanted LengthOverflow, got {other:?}"),
        };
        // More words claimed than remain.
        let msg = overflow(&ingest_claiming(10, &[1, 2, 3], false));
        assert!(msg.contains("remaining bytes"), "{msg}");
        // `count × 8` overflows `u64` (and, unchecked, would wrap to 0
        // or 2^64 − 8): the cap refuses it before any multiply.
        for count in [u64::MAX, u64::MAX / 8 + 1] {
            let msg = overflow(&ingest_claiming(count, &[], false));
            assert!(msg.contains("cap"), "count {count}: {msg}");
        }
        // Above the cap with every claimed word present.
        let words = vec![7u64; MAX_BATCH + 1];
        let msg = overflow(&ingest_claiming(words.len() as u64, &words, false));
        assert!(msg.contains("cap"), "{msg}");
        // One stray byte after a complete block.
        match Request::decode(&ingest_claiming(2, &[5, 6], true)) {
            Err(ProtocolError::Snapshot(SnapshotError::InvariantViolated(msg))) => {
                assert!(msg.contains("1 trailing bytes"), "{msg}");
            }
            other => panic!("wanted a trailing-byte refusal, got {other:?}"),
        }
        // The same builder with an honest count decodes.
        assert_eq!(
            Request::decode(&ingest_claiming(2, &[5, 6], false)).unwrap(),
            Request::Ingest {
                tenant: "t".into(),
                shard: 0,
                client: 9,
                req_seq: 1,
                items: vec![5, 6],
            }
        );
    }

    #[test]
    fn a_v2_request_body_is_refused_by_tag() {
        let mut w = Writer::default();
        w.write_str("hh.proto.req.v2");
        w.write_u64(0);
        let mut body = w.into_bytes();
        body.extend_from_slice(&hh_space::fnv1a64x4(&body).to_le_bytes());
        match Request::decode(&body) {
            Err(ProtocolError::Snapshot(SnapshotError::WrongTag { found, .. })) => {
                assert_eq!(found, "hh.proto.req.v2");
            }
            other => panic!("wanted WrongTag, got {other:?}"),
        }
    }

    /// SplitMix64: the seeded stream of the round-trip property test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn random_batches_roundtrip_through_the_wire_and_the_wal_frame() {
        use crate::durability::{encode_frame, IngestFrame};
        const SEED: u64 = 0x1D_B10C;
        let mut rng = SEED;
        let mut frame = Vec::new();
        let mut back = IngestFrame::default();
        for case in 0..48 {
            let len = match case {
                0 => 0,
                1 => MAX_BATCH,
                _ => (splitmix(&mut rng) % 5_000) as usize,
            };
            let mut items: Vec<u64> = (0..len)
                .map(|_| match splitmix(&mut rng) % 4 {
                    0 => 0,
                    1 => u64::MAX,
                    2 => splitmix(&mut rng) % 128,
                    _ => splitmix(&mut rng),
                })
                .collect();
            if len >= 2 {
                items[0] = 0;
                items[len - 1] = u64::MAX;
            }
            let (shard, client, req_seq) = (case as u32 % 8, splitmix(&mut rng), case as u64);
            let why = format!("seed {SEED:#x}, case {case}, {len} items");

            // The wire arm: the borrowed encoder, the owned request's
            // encoder and the `Codec` impl all write the same bytes.
            let req = Request::Ingest {
                tenant: "tenant-7".into(),
                shard,
                client,
                req_seq,
                items: items.clone(),
            };
            let body = Request::encode_ingest("tenant-7", shard, client, req_seq, &items);
            assert_eq!(body, req.encode(), "{why}");
            assert_eq!(body, snapshot::encode(REQUEST_TAG, &req), "{why}");
            assert_eq!(Request::decode(&body).unwrap(), req, "{why}");

            // The WAL frame carries the very same item block.
            encode_frame(shard, client, req_seq, &items, &mut frame);
            let block = &body[body.len() - 8 - 8 * len..body.len() - 8];
            assert_eq!(&frame[24..], block, "{why}");
            back.decode_from(&frame).unwrap();
            assert_eq!(
                (back.shard, back.client, back.req_seq),
                (shard, client, req_seq),
                "{why}"
            );
            assert_eq!(back.items, items, "{why}");
        }
    }

    #[test]
    fn the_wal_frame_encoding_is_pinned() {
        // Digest of this frame as the per-item encoder of the previous
        // request format wrote it: the word channel moved no byte.
        let mut frame = Vec::new();
        crate::durability::encode_frame(
            3,
            0xDEAD_BEEF,
            42,
            &[0, 1, 127, 128, 0x0102_0304_0506_0708, u64::MAX],
            &mut frame,
        );
        assert_eq!(frame.len(), 72);
        assert_eq!(hh_space::fnv1a64x4(&frame), 0x829A_77A7_5A8E_BA5B);
    }

    #[test]
    fn wire_errors_roundtrip_their_codes() {
        let errors = [
            ProtocolError::Truncated,
            ProtocolError::DeadlineExceeded,
            ProtocolError::UnknownTenant("t".into()),
            ProtocolError::TenantExists("t".into()),
            ProtocolError::Quarantined("t".into()),
            ProtocolError::Overloaded { retry_after_ms: 9 },
        ];
        for e in errors {
            let (code, message) = e.to_wire();
            let back = ProtocolError::from_wire(code, message.clone());
            assert_eq!(back.to_wire().0, code, "{message}");
        }
    }
}
