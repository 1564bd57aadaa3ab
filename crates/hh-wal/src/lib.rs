//! Segmented write-ahead log for the serving daemon.
//!
//! PR 8's daemon bounded crash loss to "at most the un-checkpointed
//! window"; this crate closes that window. Every acked ingest is
//! appended here as a checksummed record *before* the ack, so recovery
//! can replay `snapshot + WAL tail` and lose nothing that was ever
//! acknowledged.
//!
//! The BDW16 setting makes this unusually cheap: the entire recovery
//! state is an O(ε⁻¹ log n)-word snapshot plus a log whose depth is
//! bounded by the checkpoint cadence — so durability needs no more than
//! one inline fsync per commit, shared by every record appended before
//! it: no background thread, no timer.
//!
//! The layers, bottom up:
//!
//! * [`record`] — one checksummed unit:
//!   `[len][seq + payload][fnv1a64x4]`, fail-closed decode (bounded
//!   lengths, no panic on any byte soup).
//! * [`segment`] — header format, naming, and the scan that separates
//!   legal torn tails (active segment, truncate) from structural
//!   damage (sealed segment, quarantine).
//! * [`wal`] — the log: append / commit (an inline fsync that covers
//!   every earlier append), rotation, streaming replay
//!   ([`Wal::open_with`]), and checkpoint-gated [`Wal::compact`].

pub mod record;
pub mod segment;
pub mod wal;

pub use record::{Record, RecordFault, MAX_RECORD_LEN};
pub use wal::{
    record_disk_len, replay_dir, ReplayStats, Wal, WalConfig, WalError, WalReplay, WalStats,
};
