//! `hh-server`: a fault-tolerant multi-tenant serving daemon for the
//! paper's heavy-hitter summaries.
//!
//! The summaries this workspace reproduces (BhattacharyyaDW16) are
//! mergeable, checkpointable, `O(1/φ)`-space objects — exactly the
//! shape of state a network daemon can keep per tenant, snapshot under
//! pressure, and rebuild after a crash. This crate is that daemon,
//! std-only, built on the robustness substrate the workspace already
//! has:
//!
//! * **Protocol** ([`proto`]): length-prefixed frames whose bodies ride
//!   the v3 snapshot codec — checksummed and fail-closed, so malformed
//!   or truncated input yields a structured [`ProtocolError`], never a
//!   panic or an allocation sized from hostile bytes.
//! * **Deadlines** ([`conn`]): idle/io/frame budgets on every
//!   connection; slow-loris clients are reaped, stalls are bounded.
//! * **Tenancy** ([`facade`], [`tenant`]): any of the eight served
//!   `MergeableSummary` kinds behind one object-safe [`DynSummary`]; ingest rides `ShardRuntime` with quarantine-and-
//!   shed failure handling; reads run on the live shard (1 shard) or
//!   on one merged copy the tenant rebuilds after ingest (N shards).
//! * **Durability** ([`durability`], [`store`], [`server`]): every
//!   acked ingest is write-ahead logged (`hh-wal`) before the ack, so
//!   a kill at any point loses nothing acked — recovery restores the
//!   atomic checkpoint bundle and replays the log tail over it,
//!   idempotently. Numbered requests give exactly-once retry semantics
//!   ([`Client::ingest_reliable`]); atomic file writes and a boot scan
//!   restore every verifiable tenant and quarantine — rather than die
//!   on — the rest. Overload degrades to `RetryAfter` replies and LRU
//!   eviction-to-snapshot, all surfaced in [`ServerHealth`].
//!
//! ```no_run
//! use hh_server::{Client, Endpoint, Server, ServerConfig, SummaryKind, TenantSpec};
//!
//! let server = Server::start(
//!     ServerConfig::new("/var/lib/hh"),
//!     Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
//! )?;
//! let mut client = Client::connect_tcp(server.local_addr().unwrap())?;
//! client.create("clicks", TenantSpec { kind: SummaryKind::Algo2, ..TenantSpec::default() })?;
//! client.ingest("clicks", 0, &[1, 2, 2, 3])?;
//! let (report, _epoch) = client.query("clicks")?;
//! # let _ = report;
//! # Ok::<(), hh_server::ProtocolError>(())
//! ```

pub mod client;
pub mod conn;
pub mod durability;
pub mod facade;
pub mod proto;
pub mod server;
pub mod store;
pub mod tenant;

pub use client::{Client, RetryPolicy};
pub use conn::{ConnLimits, DeadlineConn, Transport};
pub use durability::{BankSnapshot, DedupEntry, IngestFrame, DEDUP_CAP};
pub use facade::{DynSummary, SummaryKind, TenantSpec, MAX_SHARDS};
// Re-exported because `Tenant::wal_stats` returns it.
pub use hh_wal::WalStats;
pub use proto::{
    read_frame, write_frame, ProtocolError, RangeEntry, Request, Response, ServerHealth, MAX_BATCH,
    MAX_FRAME_LEN, MAX_TENANT_NAME, REQUEST_TAG, RESPONSE_TAG,
};
pub use server::{Endpoint, Server, ServerConfig, ServerHandle};
pub use store::{BootReport, RecoveredTenant, Store};
pub use tenant::{IngestOutcome, Tenant};
