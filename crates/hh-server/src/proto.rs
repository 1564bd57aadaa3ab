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
//! Errors cross the wire as `(code, message)` pairs inside
//! [`Response::Error`]; [`ProtocolError::to_wire`] /
//! [`ProtocolError::from_wire`] are the stable mapping.

use crate::facade::{SummaryKind, TenantSpec, MAX_SHARDS};
use hh_core::mergeable::snapshot;
use hh_core::{MergeError, ParamError, SnapshotError};
use serde::{de, Deserialize, Deserializer, Serialize, Serializer};
use std::io::{Read, Write};

/// Snapshot-codec tag for request bodies.
pub const REQUEST_TAG: &str = "hh.proto.req.v1";
/// Snapshot-codec tag for response bodies.
pub const RESPONSE_TAG: &str = "hh.proto.rsp.v1";

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
    /// WAL records appended across resident tenants (0 when running
    /// checkpoint-only).
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

// --- manual serde impls (the vendored derive is a compile-time stub) ---

fn write_string_seq<S: Serializer>(values: &[String], s: &mut S) -> Result<(), S::Error> {
    s.write_seq_len(values.len())?;
    for v in values {
        s.write_str(v)?;
    }
    Ok(())
}

fn read_string_seq<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Vec<String>, D::Error> {
    let n = d.read_seq_len()?;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(d.read_string()?);
    }
    Ok(out)
}

impl Serialize for TenantSpec {
    fn serialize<S: Serializer>(&self, mut s: S) -> Result<S::Ok, S::Error> {
        s.write_u64(self.kind.code())?;
        s.write_f64(self.eps)?;
        s.write_f64(self.phi)?;
        s.write_f64(self.delta)?;
        s.write_u64(self.universe)?;
        s.write_u64(self.m)?;
        s.write_u64(self.structure_seed)?;
        s.write_u64(u64::from(self.shards))?;
        s.done()
    }
}

impl<'de> Deserialize<'de> for TenantSpec {
    fn deserialize<D: Deserializer<'de>>(mut d: D) -> Result<Self, D::Error> {
        let code = d.read_u64()?;
        let kind = SummaryKind::from_code(code)
            .ok_or_else(|| de::Error::invariant(format!("unknown summary kind code {code}")))?;
        let eps = d.read_f64()?;
        let phi = d.read_f64()?;
        let delta = d.read_f64()?;
        let universe = d.read_u64()?;
        let m = d.read_u64()?;
        let structure_seed = d.read_u64()?;
        let shards = d.read_u64()?;
        if shards == 0 || shards > u64::from(MAX_SHARDS) {
            return Err(de::Error::invariant(format!(
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

impl Serialize for Request {
    fn serialize<S: Serializer>(&self, mut s: S) -> Result<S::Ok, S::Error> {
        match self {
            Self::Ping => s.write_u64(0)?,
            Self::Create { tenant, spec } => {
                s.write_u64(1)?;
                s.write_str(tenant)?;
                spec.serialize(&mut s)?;
            }
            Self::Ingest {
                tenant,
                shard,
                client,
                req_seq,
                items,
            } => {
                s.write_u64(2)?;
                s.write_str(tenant)?;
                s.write_u64(u64::from(*shard))?;
                s.write_u64(*client)?;
                s.write_u64(*req_seq)?;
                snapshot::write_u64_slice(items, &mut s)?;
            }
            Self::Query { tenant } => {
                s.write_u64(3)?;
                s.write_str(tenant)?;
            }
            Self::Health => s.write_u64(4)?,
            Self::Checkpoint => s.write_u64(5)?,
            Self::Snapshot { tenant } => {
                s.write_u64(6)?;
                s.write_str(tenant)?;
            }
            Self::Recover { tenant } => {
                s.write_u64(7)?;
                s.write_str(tenant)?;
            }
            Self::Shutdown => s.write_u64(8)?,
            Self::RangeQuery { tenant, lo, hi } => {
                s.write_u64(9)?;
                s.write_str(tenant)?;
                s.write_u64(*lo)?;
                s.write_u64(*hi)?;
            }
            Self::HeavyRanges { tenant, phi } => {
                s.write_u64(10)?;
                s.write_str(tenant)?;
                s.write_f64(*phi)?;
            }
        }
        s.done()
    }
}

impl<'de> Deserialize<'de> for Request {
    fn deserialize<D: Deserializer<'de>>(mut d: D) -> Result<Self, D::Error> {
        let read_tenant = |d: &mut D| -> Result<String, D::Error> {
            let name = d.read_string()?;
            if name.len() > MAX_TENANT_NAME {
                return Err(de::Error::length_overflow(format!(
                    "tenant name of {} bytes exceeds the {MAX_TENANT_NAME}-byte cap",
                    name.len()
                )));
            }
            Ok(name)
        };
        Ok(match d.read_u64()? {
            0 => Self::Ping,
            1 => {
                let tenant = read_tenant(&mut d)?;
                let spec = TenantSpec::deserialize(&mut d)?;
                Self::Create { tenant, spec }
            }
            2 => {
                let tenant = read_tenant(&mut d)?;
                let shard = d.read_u64()?;
                if shard > u64::from(MAX_SHARDS) {
                    return Err(de::Error::invariant(format!(
                        "shard index {shard} outside any legal bank"
                    )));
                }
                let client = d.read_u64()?;
                let req_seq = d.read_u64()?;
                let items = snapshot::read_u64_slice(&mut d)?;
                if items.len() > MAX_BATCH {
                    return Err(de::Error::length_overflow(format!(
                        "ingest batch of {} items exceeds the {MAX_BATCH}-item cap",
                        items.len()
                    )));
                }
                Self::Ingest {
                    tenant,
                    shard: shard as u32,
                    client,
                    req_seq,
                    items,
                }
            }
            3 => Self::Query {
                tenant: read_tenant(&mut d)?,
            },
            4 => Self::Health,
            5 => Self::Checkpoint,
            6 => Self::Snapshot {
                tenant: read_tenant(&mut d)?,
            },
            7 => Self::Recover {
                tenant: read_tenant(&mut d)?,
            },
            8 => Self::Shutdown,
            9 => {
                let tenant = read_tenant(&mut d)?;
                let lo = d.read_u64()?;
                let hi = d.read_u64()?;
                if lo > hi {
                    return Err(de::Error::invariant(format!(
                        "range lower bound {lo} above upper bound {hi}"
                    )));
                }
                Self::RangeQuery { tenant, lo, hi }
            }
            10 => {
                let tenant = read_tenant(&mut d)?;
                let phi = d.read_f64()?;
                if !(phi > 0.0 && phi <= 1.0) {
                    return Err(de::Error::invariant(format!(
                        "range threshold {phi} outside (0, 1]"
                    )));
                }
                Self::HeavyRanges { tenant, phi }
            }
            op => return Err(de::Error::invariant(format!("unknown request op {op}"))),
        })
    }
}

impl Serialize for ServerHealth {
    fn serialize<S: Serializer>(&self, mut s: S) -> Result<S::Ok, S::Error> {
        s.write_u64(self.tenants)?;
        s.write_u64(self.active_connections)?;
        s.write_u64(self.accept_rejections)?;
        s.write_u64(self.shed_batches)?;
        s.write_u64(self.evictions)?;
        s.write_u64(self.checkpoints)?;
        s.write_u64(self.recovered_tenants)?;
        write_string_seq(&self.quarantined, &mut s)?;
        s.write_u64(self.resident_bytes)?;
        s.write_u64(self.wal_appended)?;
        s.write_u64(self.wal_depth)?;
        s.write_u64(self.wal_fsyncs)?;
        s.write_u64(self.wal_max_commit_wait_us)?;
        s.write_u64(self.wal_replayed)?;
        s.write_u64(self.dedup_hits)?;
        s.write_u64(self.wal_segments)?;
        s.write_u64(self.boot_recovery_us)?;
        s.write_u64(self.wal_truncated_bytes)?;
        s.done()
    }
}

impl<'de> Deserialize<'de> for ServerHealth {
    fn deserialize<D: Deserializer<'de>>(mut d: D) -> Result<Self, D::Error> {
        Ok(Self {
            tenants: d.read_u64()?,
            active_connections: d.read_u64()?,
            accept_rejections: d.read_u64()?,
            shed_batches: d.read_u64()?,
            evictions: d.read_u64()?,
            checkpoints: d.read_u64()?,
            recovered_tenants: d.read_u64()?,
            quarantined: read_string_seq(&mut d)?,
            resident_bytes: d.read_u64()?,
            wal_appended: d.read_u64()?,
            wal_depth: d.read_u64()?,
            wal_fsyncs: d.read_u64()?,
            wal_max_commit_wait_us: d.read_u64()?,
            wal_replayed: d.read_u64()?,
            dedup_hits: d.read_u64()?,
            wal_segments: d.read_u64()?,
            boot_recovery_us: d.read_u64()?,
            wal_truncated_bytes: d.read_u64()?,
        })
    }
}

impl Serialize for Response {
    fn serialize<S: Serializer>(&self, mut s: S) -> Result<S::Ok, S::Error> {
        match self {
            Self::Pong => s.write_u64(0)?,
            Self::Created => s.write_u64(1)?,
            Self::Ingested { accepted } => {
                s.write_u64(2)?;
                s.write_u64(*accepted)?;
            }
            Self::RetryAfter { millis } => {
                s.write_u64(3)?;
                s.write_u64(*millis)?;
            }
            Self::Report { entries, epoch } => {
                s.write_u64(4)?;
                s.write_seq_len(entries.len())?;
                for &(item, estimate) in entries {
                    s.write_u64(item)?;
                    s.write_f64(estimate)?;
                }
                s.write_u64(*epoch)?;
            }
            Self::Health(health) => {
                s.write_u64(5)?;
                health.serialize(&mut s)?;
            }
            Self::Checkpointed { tenants } => {
                s.write_u64(6)?;
                s.write_u64(*tenants)?;
            }
            Self::Snapshot { bytes } => {
                s.write_u64(7)?;
                s.write_byte_seq(bytes)?;
            }
            Self::ShuttingDown => s.write_u64(8)?,
            Self::Recovered { shards } => {
                s.write_u64(10)?;
                s.write_u64(*shards)?;
            }
            Self::Error { code, message } => {
                s.write_u64(9)?;
                s.write_u64(*code)?;
                s.write_str(message)?;
            }
            Self::RangeEstimate { estimate, epoch } => {
                s.write_u64(11)?;
                s.write_f64(*estimate)?;
                s.write_u64(*epoch)?;
            }
            Self::Ranges { entries, epoch } => {
                s.write_u64(12)?;
                s.write_seq_len(entries.len())?;
                for &(level, lo, hi, estimate) in entries {
                    s.write_u64(u64::from(level))?;
                    s.write_u64(lo)?;
                    s.write_u64(hi)?;
                    s.write_f64(estimate)?;
                }
                s.write_u64(*epoch)?;
            }
        }
        s.done()
    }
}

impl<'de> Deserialize<'de> for Response {
    fn deserialize<D: Deserializer<'de>>(mut d: D) -> Result<Self, D::Error> {
        Ok(match d.read_u64()? {
            0 => Self::Pong,
            1 => Self::Created,
            2 => Self::Ingested {
                accepted: d.read_u64()?,
            },
            3 => Self::RetryAfter {
                millis: d.read_u64()?,
            },
            4 => {
                let n = d.read_seq_len()?;
                let mut entries = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let item = d.read_u64()?;
                    let estimate = d.read_f64()?;
                    entries.push((item, estimate));
                }
                Self::Report {
                    entries,
                    epoch: d.read_u64()?,
                }
            }
            5 => Self::Health(ServerHealth::deserialize(&mut d)?),
            6 => Self::Checkpointed {
                tenants: d.read_u64()?,
            },
            7 => Self::Snapshot {
                bytes: d.read_byte_seq()?,
            },
            8 => Self::ShuttingDown,
            9 => Self::Error {
                code: d.read_u64()?,
                message: d.read_string()?,
            },
            10 => Self::Recovered {
                shards: d.read_u64()?,
            },
            11 => Self::RangeEstimate {
                estimate: d.read_f64()?,
                epoch: d.read_u64()?,
            },
            12 => {
                let n = d.read_seq_len()?;
                let mut entries = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let level = d.read_u64()?;
                    if level > 64 {
                        return Err(de::Error::invariant(format!(
                            "dyadic level {level} above 64"
                        )));
                    }
                    let lo = d.read_u64()?;
                    let hi = d.read_u64()?;
                    let estimate = d.read_f64()?;
                    entries.push((level as u32, lo, hi, estimate));
                }
                Self::Ranges {
                    entries,
                    epoch: d.read_u64()?,
                }
            }
            op => return Err(de::Error::invariant(format!("unknown response op {op}"))),
        })
    }
}

impl Request {
    /// Encodes into a checksummed, tagged frame body.
    pub fn encode(&self) -> bytes::Bytes {
        snapshot::encode(REQUEST_TAG, self)
    }

    /// Decodes a frame body. Fail-closed: any deviation is a
    /// structured error.
    pub fn decode(body: &[u8]) -> Result<Self, ProtocolError> {
        Ok(snapshot::decode(REQUEST_TAG, body)?)
    }
}

impl Response {
    /// Encodes into a checksummed, tagged frame body.
    pub fn encode(&self) -> bytes::Bytes {
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
        for req in requests() {
            let back = Request::decode(&req.encode()).unwrap();
            assert_eq!(back, req);
        }
        for rsp in responses() {
            let back = Response::decode(&rsp.encode()).unwrap();
            assert_eq!(back, rsp);
        }
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
