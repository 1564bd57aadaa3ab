//! The durability contract: what gets logged, what gets deduplicated,
//! and what a checkpoint bundle carries.
//!
//! Three pieces, all consumed by [`crate::tenant`] and
//! [`crate::store`]:
//!
//! * [`IngestFrame`] — the WAL record payload: one acked ingest batch
//!   with its shard, the client's identity, and the client's request
//!   sequence number. Replay re-applies it; the identity pair re-arms
//!   dedup so a retry that straddles a crash is still exactly-once.
//! * [`DedupTable`] — per-tenant request dedup: the last request
//!   sequence number seen from each client, with the ack it earned.
//!   A retried `(client, req_seq)` returns the original ack instead of
//!   double-applying. Bounded FIFO (oldest client evicted), and
//!   persisted inside the checkpoint bundle so exactly-once survives
//!   recovery.
//! * [`BankSnapshot`] — the one-file checkpoint bundle: every shard's
//!   summary bytes, the per-shard WAL high-water marks those bytes
//!   reflect, and the dedup table. One file because the pieces are
//!   meaningless apart: shard bytes without their high-water marks
//!   either double-apply or drop the replay tail.
//!
//! # The exactly-once contract
//!
//! The table keeps one entry per client, so exactly-once rests on how
//! clients identify and number their requests:
//!
//! * a client id belongs to one client lifetime: a process that
//!   restarts takes a fresh id and never reuses an old one
//!   ([`crate::Client`] draws its ids from a per-process random seed,
//!   so this holds even when a restart gets the same pid);
//! * a client's `req_seq` rises with every new request it sends to a
//!   tenant (gaps are fine; [`crate::Client`] uses one counter for all
//!   tenants);
//! * a client sends request `k + 1` only after request `k` is acked
//!   (retries of `k` reuse `k`).
//!
//! Under that contract any `req_seq` *below* the client's latest was
//! applied before the latest was admitted: it can only be a late copy
//! of an acked request — say, the original frame of a retry that was
//! itself acked, reaching the server after the client moved on. The
//! table answers it as a duplicate and does not apply it: the ack
//! carries the batch's own length, and its commit wait covers the
//! client's latest record, which sits after the original's in the log.
//! A `req_seq` equal to the latest replays that request's own ack.
//!
//! Breaking the first rule loses data silently: a new lifetime that
//! reuses an id and starts its numbering over has every request up to
//! the old lifetime's latest `req_seq` answered as a duplicate — acked,
//! never applied — and the table outlives server restarts inside the
//! bundle.
//!
//! A client that FIFO eviction at [`DEDUP_CAP`] has dropped from the
//! table (more than `DEDUP_CAP` newer clients were admitted since its
//! last request) loses this protection: its next request, retry or
//! not, is applied as new.

use crate::proto::MAX_BATCH;
use hh_space::codec::{Codec, CodecError, Reader, Writer};
use std::collections::HashMap;
use std::collections::VecDeque;

/// Hard ceiling on dedup entries per tenant (one per distinct client;
/// FIFO eviction beyond it).
pub const DEDUP_CAP: usize = 4096;

/// One acked ingest batch, as logged to (and replayed from) the WAL.
///
/// The encoding is plain little-endian — `[u32 shard][u64 client]
/// [u64 req_seq][u32 count][count × u64 items]` — not a tagged
/// snapshot: the WAL record layer already owns framing and
/// checksumming, so the payload only needs to be unambiguous and
/// bounded. The items are the same raw word block an `Ingest` request
/// carries on the wire, written and read through the codec's bulk word
/// channel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestFrame {
    /// Target shard in the tenant's bank.
    pub shard: u32,
    /// Client identity (0 = anonymous, no dedup).
    pub client: u64,
    /// Client's request sequence number (dedup key with `client`).
    pub req_seq: u64,
    /// The batch items.
    pub items: Vec<u64>,
}

/// Encodes an ingest frame from its parts into `out` (cleared first) —
/// the hot-path form, no [`IngestFrame`] allocation.
pub fn encode_frame(shard: u32, client: u64, req_seq: u64, items: &[u64], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(FRAME_HEADER + items.len() * 8);
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&client.to_le_bytes());
    out.extend_from_slice(&req_seq.to_le_bytes());
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    let mut w = Writer::from(std::mem::take(out));
    w.write_u64_words(items);
    *out = w.into_bytes();
}

/// Bytes of an ingest frame before its item block.
const FRAME_HEADER: usize = 24;

impl IngestFrame {
    /// Encodes into `out` (cleared first).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_frame(self.shard, self.client, self.req_seq, &self.items, out);
    }

    /// Decodes a WAL record payload into `self`, reusing its item
    /// buffer (replay decodes every record of a log through one frame).
    /// Fail-closed: the item count is bounded by [`MAX_BATCH`] and
    /// checked against the remaining bytes before any allocation;
    /// trailing garbage is an error. A payload that fails here inside a
    /// checksum-valid record is structural damage, not a torn tail, and
    /// leaves `self` unspecified.
    pub fn decode_from(&mut self, buf: &[u8]) -> Result<(), String> {
        let (header, block) = buf
            .split_at_checked(FRAME_HEADER)
            .ok_or_else(|| format!("ingest frame of {} bytes is too short", buf.len()))?;
        let count = u32::from_le_bytes(header[20..24].try_into().expect("sized")) as usize;
        if count > MAX_BATCH {
            return Err(format!(
                "ingest frame claims {count} items, above the {MAX_BATCH}-item cap"
            ));
        }
        if block.len() != count * 8 {
            return Err(format!(
                "ingest frame length {} does not match {count} items",
                buf.len()
            ));
        }
        self.shard = u32::from_le_bytes(header[0..4].try_into().expect("sized"));
        self.client = u64::from_le_bytes(header[4..12].try_into().expect("sized"));
        self.req_seq = u64::from_le_bytes(header[12..20].try_into().expect("sized"));
        self.items.clear();
        Reader::new(block)
            .read_u64_words_into(count, &mut self.items)
            .map_err(|e| e.to_string())
    }
}

/// What dedup remembers about a client's latest request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedupEntry {
    /// The client's request sequence number.
    pub req_seq: u64,
    /// The ack the request earned (items accepted).
    pub accepted: u64,
    /// The WAL sequence number the batch was logged under (0 when the
    /// tenant runs without a WAL).
    pub wal_seq: u64,
}

/// Per-tenant exactly-once request dedup; see the module docs.
#[derive(Debug, Default)]
pub struct DedupTable {
    entries: HashMap<u64, DedupEntry>,
    /// Clients in admission order, for FIFO eviction at [`DEDUP_CAP`].
    order: VecDeque<u64>,
    hits: u64,
}

impl DedupTable {
    /// Looks up a duplicate: a `req_seq` at or below the client's
    /// latest one (see the module docs for why a lower one is already
    /// applied). Returns the client's latest entry — for an exact retry
    /// that is the original ack; for an older request its `wal_seq` is
    /// the record whose commit covers it. `client` 0 is anonymous and
    /// never deduplicated.
    pub fn check(&mut self, client: u64, req_seq: u64) -> Option<DedupEntry> {
        if client == 0 {
            return None;
        }
        let entry = self.entries.get(&client)?;
        if req_seq <= entry.req_seq {
            self.hits += 1;
            return Some(*entry);
        }
        None
    }

    /// Records the ack for a client's latest request (replacing any
    /// earlier one). Evicts the oldest-admitted client beyond
    /// [`DEDUP_CAP`].
    pub fn admit(&mut self, client: u64, entry: DedupEntry) {
        if client == 0 {
            return;
        }
        if self.entries.insert(client, entry).is_none() {
            self.order.push_back(client);
            if self.order.len() > DEDUP_CAP {
                if let Some(oldest) = self.order.pop_front() {
                    self.entries.remove(&oldest);
                }
            }
        }
    }

    /// Admission for WAL replay: only takes the entry if it is newer
    /// (higher `req_seq`) than what the checkpoint bundle already
    /// restored — a replayed record must never regress a client's
    /// entry, or a later retry of the newer request would miss dedup
    /// and double-apply.
    pub fn admit_replay(&mut self, client: u64, entry: DedupEntry) {
        if client == 0 {
            return;
        }
        if let Some(cur) = self.entries.get(&client) {
            if cur.req_seq >= entry.req_seq {
                return;
            }
        }
        self.admit(client, entry);
    }

    /// Retries answered from the table so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Entries as `(client, entry)` in admission order, for the
    /// checkpoint bundle.
    pub fn snapshot(&self) -> Vec<(u64, DedupEntry)> {
        self.order
            .iter()
            .filter_map(|c| self.entries.get(c).map(|e| (*c, *e)))
            .collect()
    }

    /// Rebuilds a table from a checkpoint bundle's entries.
    pub fn from_snapshot(entries: &[(u64, DedupEntry)]) -> Self {
        let mut t = Self::default();
        for &(client, entry) in entries {
            t.admit(client, entry);
        }
        t
    }
}

/// The one-file checkpoint bundle a tenant persists; see the module
/// docs. Serialized under the store's bank tag through the v3 snapshot
/// codec, so it inherits tagging, checksumming, and fail-closed
/// decoding.
#[derive(Debug, Clone, PartialEq)]
pub struct BankSnapshot {
    /// Each shard's summary snapshot bytes, in shard order.
    pub shards: Vec<Vec<u8>>,
    /// Per-shard WAL high-water marks: shard `j`'s bytes reflect every
    /// WAL record for `j` with sequence number at or below `hwms[j]`.
    /// All zeros when the tenant runs without a WAL.
    pub hwms: Vec<u64>,
    /// The dedup table at checkpoint time.
    pub dedup: Vec<(u64, DedupEntry)>,
}

impl Codec for BankSnapshot {
    fn write_to(&self, w: &mut Writer) {
        w.write_seq_len(self.shards.len());
        for bytes in &self.shards {
            w.write_byte_seq(bytes);
        }
        w.write_seq_len(self.hwms.len());
        for &hwm in &self.hwms {
            w.write_u64(hwm);
        }
        w.write_seq_len(self.dedup.len());
        for &(client, e) in &self.dedup {
            w.write_u64(client);
            w.write_u64(e.req_seq);
            w.write_u64(e.accepted);
            w.write_u64(e.wal_seq);
        }
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.read_seq_len()?;
        if n == 0 || n > crate::facade::MAX_SHARDS as usize {
            return Err(CodecError::invariant(format!(
                "bank claims {n} shards outside 1..={}",
                crate::facade::MAX_SHARDS
            )));
        }
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            shards.push(r.read_byte_seq()?);
        }
        let h = r.read_seq_len()?;
        if h != n {
            return Err(CodecError::invariant(format!(
                "bank has {n} shards but {h} high-water marks"
            )));
        }
        let mut hwms = Vec::with_capacity(h);
        for _ in 0..h {
            hwms.push(r.read_u64()?);
        }
        let k = r.read_seq_len()?;
        if k > DEDUP_CAP {
            return Err(CodecError::length_overflow(format!(
                "bank carries {k} dedup entries, above the {DEDUP_CAP} cap"
            )));
        }
        let mut dedup = Vec::with_capacity(k);
        for _ in 0..k {
            let client = r.read_u64()?;
            let req_seq = r.read_u64()?;
            let accepted = r.read_u64()?;
            let wal_seq = r.read_u64()?;
            dedup.push((
                client,
                DedupEntry {
                    req_seq,
                    accepted,
                    wal_seq,
                },
            ));
        }
        Ok(Self {
            shards,
            hwms,
            dedup,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_frame_roundtrips_and_rejects_damage() {
        let frame = IngestFrame {
            shard: 3,
            client: 0xDEAD_BEEF,
            req_seq: 42,
            items: vec![1, 2, 3, u64::MAX],
        };
        let mut buf = Vec::new();
        frame.encode_into(&mut buf);
        let mut back = IngestFrame::default();
        back.decode_from(&buf).unwrap();
        assert_eq!(back, frame);
        // Truncations and extensions both fail (exact length required).
        assert!(back.decode_from(&buf[..buf.len() - 1]).is_err());
        let mut long = buf.clone();
        long.push(0);
        assert!(back.decode_from(&long).is_err());
        // A hostile count is rejected before sizing anything from it.
        let mut evil = buf.clone();
        evil[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(back.decode_from(&evil).is_err());
        // The same frame, reused after those failures, decodes a shorter
        // payload without leaking items from the longer one.
        let short = IngestFrame {
            shard: 1,
            client: 0,
            req_seq: 0,
            items: vec![5],
        };
        short.encode_into(&mut buf);
        back.decode_from(&buf).unwrap();
        assert_eq!(back, short);
    }

    #[test]
    fn dedup_answers_retries_and_late_older_requests() {
        let mut t = DedupTable::default();
        assert!(t.check(7, 1).is_none());
        t.admit(
            7,
            DedupEntry {
                req_seq: 1,
                accepted: 100,
                wal_seq: 5,
            },
        );
        let hit = t.check(7, 1).unwrap();
        assert_eq!((hit.accepted, hit.wal_seq), (100, 5));
        assert_eq!(t.hits(), 1);
        // A newer request from the same client supersedes the entry; a
        // late copy of the older one is still a duplicate, answered
        // with the latest entry (whose record covers it).
        t.admit(
            7,
            DedupEntry {
                req_seq: 2,
                accepted: 50,
                wal_seq: 6,
            },
        );
        assert_eq!(t.check(7, 1).map(|e| e.wal_seq), Some(6));
        assert!(t.check(7, 2).is_some());
        assert!(t.check(7, 3).is_none(), "a newer request is new");
        // Client 0 is anonymous.
        t.admit(
            0,
            DedupEntry {
                req_seq: 9,
                accepted: 9,
                wal_seq: 9,
            },
        );
        assert!(t.check(0, 9).is_none());
    }

    #[test]
    fn dedup_evicts_fifo_at_the_cap() {
        let mut t = DedupTable::default();
        for c in 1..=(DEDUP_CAP as u64 + 10) {
            t.admit(
                c,
                DedupEntry {
                    req_seq: 1,
                    accepted: 1,
                    wal_seq: c,
                },
            );
        }
        assert!(t.check(1, 1).is_none(), "oldest client evicted");
        assert!(t.check(DEDUP_CAP as u64 + 10, 1).is_some());
        assert!(t.snapshot().len() <= DEDUP_CAP);
    }

    #[test]
    fn dedup_survives_a_snapshot_roundtrip() {
        let mut t = DedupTable::default();
        for c in [3u64, 9, 27] {
            t.admit(
                c,
                DedupEntry {
                    req_seq: c * 2,
                    accepted: c * 3,
                    wal_seq: c * 4,
                },
            );
        }
        let back = DedupTable::from_snapshot(&t.snapshot());
        for c in [3u64, 9, 27] {
            let e = {
                let mut b = DedupTable::from_snapshot(&back.snapshot());
                b.check(c, c * 2).unwrap()
            };
            assert_eq!((e.accepted, e.wal_seq), (c * 3, c * 4));
        }
    }

    #[test]
    fn bank_snapshot_roundtrips_through_the_codec() {
        use hh_core::mergeable::snapshot;
        let bank = BankSnapshot {
            shards: vec![vec![1, 2, 3], vec![], vec![0xFF; 64]],
            hwms: vec![10, 0, 7],
            dedup: vec![(
                5,
                DedupEntry {
                    req_seq: 1,
                    accepted: 2,
                    wal_seq: 3,
                },
            )],
        };
        let bytes = snapshot::encode("hh.test.bank", &bank);
        let back: BankSnapshot = snapshot::decode("hh.test.bank", &bytes).unwrap();
        assert_eq!(back, bank);
        // Mismatched hwm count is an invariant violation, not a panic.
        let bent = BankSnapshot {
            hwms: vec![1],
            ..bank.clone()
        };
        let bytes = snapshot::encode("hh.test.bank", &bent);
        assert!(snapshot::decode::<BankSnapshot>("hh.test.bank", &bytes).is_err());
    }
}
