//! One tenant: a shard bank behind a quarantining [`ShardRuntime`],
//! read in place.
//!
//! Ingest dispatches into the runtime's shards; reads run on the live
//! summaries, not on a copy. A read after any ingest first waits on
//! the flush barrier and bumps the serving epoch. Then:
//!
//! * a **1-shard** tenant answers from shard 0 under its cell lock,
//!   with no clone at all. Every served kind keeps its own query
//!   cache, so repeated reads with no ingest in between stay cached;
//! * an **N-shard** tenant answers from one merged copy it keeps. A
//!   stale read rebuilds it: clone shard 0, then `merge_from` every
//!   other shard in place under its cell lock — one clone per read.
//!
//! Reads hold `&mut Tenant` (the registry lock), so no reader outlives
//! the state it read. Writers are blocked only for the flush barrier.
//!
//! Failure containment is layered:
//!
//! * A shard whose summary panics is **quarantined** by the runtime
//!   ([`FailurePolicy::Quarantine`]): its traffic is shed and counted,
//!   every other shard keeps serving. [`Tenant::recover`] rebuilds it
//!   from the runtime's last in-memory checkpoint.
//! * Overload **sheds** instead of blocking
//!   ([`Backpressure::Shed`]): a full shard queue drops the batch, and
//!   [`Tenant::ingest`] turns the drop into a structured
//!   [`ProtocolError::Overloaded`] so the client backs off.
//! * [`Tenant::checkpoint`] produces the bundle the [`crate::store`]
//!   persists. Poisoned shards keep their *last good* bytes — the
//!   panic-interrupted state never reaches disk.
//! * With a WAL attached ([`Tenant::attach_wal`]), every accepted
//!   batch is appended to the log *before* the ack
//!   ([`Tenant::ingest_logged`]), per-shard high-water marks track
//!   what the last checkpoint covers, and [`Tenant::replay_frame`]
//!   re-applies the tail idempotently on recovery. A failed append is
//!   **fail-stop**: the batch is already in the shard but not in the
//!   log, so the tenant latches a write-quarantine rather than ack
//!   data it could silently lose.

use crate::durability::{encode_frame, BankSnapshot, DedupEntry, DedupTable, IngestFrame};
use crate::facade::{DynSummary, TenantSpec};
use crate::proto::{ProtocolError, RangeEntry};
use hh_core::{HeavyHitters, MergeableSummary};
use hh_pipeline::{Backpressure, FailurePolicy, IngestMode, ShardRuntime};
use hh_space::SpaceUsage;
use hh_wal::{Wal, WalStats};
use std::sync::Arc;
use std::time::Duration;

/// Backoff hint clients get with [`ProtocolError::Overloaded`].
pub const RETRY_AFTER_MS: u64 = 50;

/// How long a stale read waits on the flush barrier before giving up
/// and reading whatever the shards hold.
const REFRESH_FLUSH_TIMEOUT: Duration = Duration::from_secs(2);

/// What [`Tenant::ingest_logged`] hands back: the ack payload plus the
/// durability obligation the *server* must discharge before sending it.
#[derive(Debug)]
pub struct IngestOutcome {
    /// Items accepted (the ack payload).
    pub accepted: u64,
    /// When set, `wal.commit(seq)` must succeed before the ack leaves
    /// the server. Returned instead of committed inline so the server
    /// can drop the registry lock first — the commit's fsync must not
    /// serialize every other tenant.
    pub commit: Option<(Arc<Wal>, u64)>,
    /// Whether this ack was replayed from the dedup table rather than
    /// applied.
    pub deduplicated: bool,
}

/// A live tenant: spec, shard bank, and bookkeeping.
pub struct Tenant {
    /// The spec the bank was built from (persisted alongside it).
    pub spec: TenantSpec,
    runtime: ShardRuntime<DynSummary>,
    /// The merge of every shard, kept by N-shard tenants between reads;
    /// dropped by a stale read and rebuilt. Always `None` for 1 shard.
    merged: Option<DynSummary>,
    epoch: u64,
    /// Items ingested since the last read.
    stale_items: u64,
    /// Items accepted over the tenant's lifetime.
    pub total_items: u64,
    /// LRU stamp, maintained by the registry.
    pub last_touch: u64,
    /// Bytes most recently handed to the store, per shard. Poisoned
    /// shards keep their last good entry here.
    disk_bytes: Vec<Arc<[u8]>>,
    /// Operator-injected fault (testing and drills): while set, writes
    /// are refused as [`ProtocolError::Quarantined`] and health reports
    /// the tenant, without any shard actually dying. Also latched by a
    /// failed WAL append (fail-stop — see the module docs).
    forced_fault: Option<String>,
    /// The write-ahead log. The server attaches one to every tenant it
    /// serves; `None` only for a tenant built and driven directly
    /// ([`Tenant::create`] + [`Tenant::ingest`]).
    wal: Option<Arc<Wal>>,
    /// Exactly-once request dedup (client → latest acked request).
    dedup: DedupTable,
    /// Highest WAL sequence number *dispatched* to each shard.
    applied: Vec<u64>,
    /// Highest WAL sequence number each shard's persisted bytes cover
    /// (advanced by [`Tenant::checkpoint`] for shards that flushed).
    disk_hwm: Vec<u64>,
    /// WAL records re-applied during recovery.
    wal_replayed: u64,
    /// Reused frame-encode buffer for the append hot path.
    wal_scratch: Vec<u8>,
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("spec", &self.spec)
            .field("epoch", &self.epoch)
            .field("total_items", &self.total_items)
            .finish_non_exhaustive()
    }
}

impl Tenant {
    /// Builds a fresh tenant from its spec. Each new shard is encoded
    /// once; those bytes serve as both its last-good bytes and its
    /// in-memory recovery checkpoint.
    pub fn create(spec: TenantSpec) -> Result<Self, ProtocolError> {
        let bank = spec.build_bank()?;
        let bytes = bank.iter().map(|s| s.to_bytes().into()).collect();
        Self::from_bank(spec, bank, bytes)
    }

    /// Rehydrates a tenant around an existing bank (boot recovery and
    /// eviction rehydration). `bytes[j]` must restore to `bank[j]` —
    /// the verified snapshot it was just decoded from
    /// ([`crate::store::RecoveredTenant::shard_bytes`]). They become the
    /// tenant's last-good bytes and arm the runtime's in-memory
    /// recovery, so a shard that dies before the first periodic
    /// checkpoint can still be rebuilt, with no re-encode.
    ///
    /// # Errors
    /// A merge error if an N-shard bank's shards do not merge (the
    /// merged copy is built here, so a bad bank fails closed at boot).
    pub fn from_bank(
        spec: TenantSpec,
        bank: Vec<DynSummary>,
        bytes: Vec<Arc<[u8]>>,
    ) -> Result<Self, ProtocolError> {
        debug_assert_eq!(bank.len(), spec.shards as usize);
        let mut runtime = ShardRuntime::new(bank, IngestMode::Auto);
        runtime.set_failure_policy(FailurePolicy::Quarantine);
        runtime.set_backpressure(Backpressure::Shed);
        runtime.seed_checkpoints(bytes.clone());
        let shards = spec.shards as usize;
        let mut tenant = Self {
            spec,
            runtime,
            merged: None,
            epoch: 0,
            stale_items: 0,
            total_items: 0,
            last_touch: 0,
            disk_bytes: bytes,
            forced_fault: None,
            wal: None,
            dedup: DedupTable::default(),
            applied: vec![0; shards],
            disk_hwm: vec![0; shards],
            wal_replayed: 0,
            wal_scratch: Vec::new(),
        };
        if shards > 1 {
            tenant.merged = Some(tenant.merge_shards()?);
        }
        Ok(tenant)
    }

    /// Restores the durability metadata persisted in a checkpoint
    /// bundle: per-shard high-water marks and the dedup table. Must run
    /// before [`Tenant::replay_frame`] so replay can skip records the
    /// bundle already covers.
    pub fn restore_durability(&mut self, hwms: &[u64], dedup: &[(u64, DedupEntry)]) {
        debug_assert_eq!(hwms.len(), self.spec.shards as usize);
        self.disk_hwm.copy_from_slice(hwms);
        self.applied.copy_from_slice(hwms);
        self.dedup = DedupTable::from_snapshot(dedup);
    }

    /// Attaches the write-ahead log. Every later accepted batch routes
    /// through it ([`Tenant::ingest_logged`]).
    pub fn attach_wal(&mut self, wal: Arc<Wal>) {
        self.wal = Some(wal);
    }

    /// Appends `items` to shard `shard`. Returns the number accepted.
    ///
    /// # Errors
    /// [`ProtocolError::ShardOutOfRange`] for a bad index,
    /// [`ProtocolError::Quarantined`] if the shard (or the whole
    /// tenant, via an injected fault) is quarantined, and
    /// [`ProtocolError::Overloaded`] if the batch was shed on a full
    /// queue.
    pub fn ingest(&mut self, name: &str, shard: u32, items: &[u64]) -> Result<u64, ProtocolError> {
        self.ingest_logged(name, shard, 0, 0, items)
            .map(|o| o.accepted)
    }

    /// The full ingest path: exactly-once dedup, dispatch, WAL append.
    ///
    /// Ordering is load-bearing: dedup lookup first (a retry of an
    /// acked request replays the ack without touching the shards), then
    /// dispatch (a shed batch is *never* logged — the client will
    /// retry it), then the WAL append, then dedup admission. The
    /// returned [`IngestOutcome::commit`] obligation must be
    /// discharged by the caller before acking.
    ///
    /// # Errors
    /// Everything [`Tenant::ingest`] returns, plus
    /// [`ProtocolError::Io`] when the WAL append fails — in which case
    /// the tenant latches a write-quarantine (fail-stop): the batch
    /// reached the shard but not the log, and an un-logged ack is a
    /// promise recovery cannot keep.
    pub fn ingest_logged(
        &mut self,
        name: &str,
        shard: u32,
        client: u64,
        req_seq: u64,
        items: &[u64],
    ) -> Result<IngestOutcome, ProtocolError> {
        if shard >= self.spec.shards {
            return Err(ProtocolError::ShardOutOfRange {
                shard,
                shards: self.spec.shards,
            });
        }
        if let Some(latest) = self.dedup.check(client, req_seq) {
            // A duplicate (see `durability`'s contract): an exact retry
            // replays its original ack; a late older request was applied
            // in full before the latest was admitted. Either way the ack
            // waits until the client's latest record is durable (the
            // first attempt may have died between append and commit).
            let accepted = if latest.req_seq == req_seq {
                latest.accepted
            } else {
                items.len() as u64
            };
            let commit = match (&self.wal, latest.wal_seq) {
                (Some(wal), seq) if seq > 0 => Some((Arc::clone(wal), seq)),
                _ => None,
            };
            return Ok(IngestOutcome {
                accepted,
                commit,
                deduplicated: true,
            });
        }
        if self.forced_fault.is_some() {
            return Err(ProtocolError::Quarantined(name.to_string()));
        }
        let j = shard as usize;
        let before = self.runtime.health();
        if before.poisoned.iter().any(|&(p, _)| p == j) {
            return Err(ProtocolError::Quarantined(name.to_string()));
        }
        self.runtime.dispatch_ref(j, items);
        let after = self.runtime.health();
        if after.shed_items > before.shed_items {
            // The dispatch itself shed the batch: either the queue was
            // full or the worker died under our feet.
            if after.poisoned.iter().any(|&(p, _)| p == j) {
                return Err(ProtocolError::Quarantined(name.to_string()));
            }
            return Err(ProtocolError::Overloaded {
                retry_after_ms: RETRY_AFTER_MS,
            });
        }
        let mut wal_seq = 0;
        let commit = if let Some(wal) = &self.wal {
            let mut scratch = std::mem::take(&mut self.wal_scratch);
            encode_frame(shard, client, req_seq, items, &mut scratch);
            let appended = wal.append(&scratch);
            self.wal_scratch = scratch;
            match appended {
                Ok(seq) => {
                    wal_seq = seq;
                    self.applied[j] = seq;
                    Some((Arc::clone(wal), seq))
                }
                Err(e) => {
                    self.forced_fault = Some(format!("wal append failed: {e}"));
                    return Err(ProtocolError::Io(
                        std::io::ErrorKind::Other,
                        format!("wal append failed, tenant write-quarantined: {e}"),
                    ));
                }
            }
        } else {
            None
        };
        self.dedup.admit(
            client,
            DedupEntry {
                req_seq,
                accepted: items.len() as u64,
                wal_seq,
            },
        );
        self.stale_items += items.len() as u64;
        self.total_items += items.len() as u64;
        Ok(IngestOutcome {
            accepted: items.len() as u64,
            commit,
            deduplicated: false,
        })
    }

    /// Re-applies one WAL record during recovery. Idempotent against
    /// the checkpoint bundle: a record whose sequence number is at or
    /// below its shard's high-water mark is already reflected in the
    /// restored bytes and is skipped (its dedup entry is still
    /// re-armed if newer than what the bundle carried). Returns whether
    /// the record was applied.
    ///
    /// # Errors
    /// [`ProtocolError::BadRequest`] if the frame names a shard the
    /// spec does not have — a checksum-valid record that contradicts the
    /// spec is structural damage, and the caller quarantines the
    /// tenant.
    pub fn replay_frame(&mut self, seq: u64, frame: &IngestFrame) -> Result<bool, ProtocolError> {
        if frame.shard >= self.spec.shards {
            return Err(ProtocolError::BadRequest(format!(
                "wal record {seq} names shard {} but the spec has {}",
                frame.shard, self.spec.shards
            )));
        }
        let j = frame.shard as usize;
        self.dedup.admit_replay(
            frame.client,
            DedupEntry {
                req_seq: frame.req_seq,
                accepted: frame.items.len() as u64,
                wal_seq: seq,
            },
        );
        if seq <= self.disk_hwm[j] {
            return Ok(false);
        }
        self.runtime.dispatch_ref(j, &frame.items);
        self.applied[j] = seq;
        self.stale_items += frame.items.len() as u64;
        self.total_items += frame.items.len() as u64;
        self.wal_replayed += 1;
        Ok(true)
    }

    /// Current serving epoch (bumps on the first read after an ingest).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Reads the current report as protocol entries.
    pub fn query(&mut self) -> Result<(Vec<(u64, f64)>, u64), ProtocolError> {
        let entries = self.read(|s| {
            s.report()
                .entries()
                .iter()
                .map(|e| (e.item, e.count))
                .collect()
        })?;
        Ok((entries, self.epoch))
    }

    /// Estimates the mass of the inclusive id range `[lo, hi]`. Only
    /// dyadic tenants can answer; every other kind refuses with
    /// [`ProtocolError::BadRequest`].
    pub fn range_query(&mut self, lo: u64, hi: u64) -> Result<(f64, u64), ProtocolError> {
        let estimate = self.read(|s| s.range_estimate(lo, hi))?.ok_or_else(|| {
            ProtocolError::BadRequest(format!(
                "kind {:?} does not answer range queries (only dyadic tenants do)",
                self.spec.kind
            ))
        })?;
        Ok((estimate, self.epoch))
    }

    /// Reads the heavy dyadic intervals at threshold `phi`, as
    /// `(level, lo, hi, estimate)` protocol entries. Only dyadic
    /// tenants can answer.
    pub fn heavy_ranges(&mut self, phi: f64) -> Result<(Vec<RangeEntry>, u64), ProtocolError> {
        let ranges = self.read(|s| s.heavy_ranges(phi))?.ok_or_else(|| {
            ProtocolError::BadRequest(format!(
                "kind {:?} does not answer range queries (only dyadic tenants do)",
                self.spec.kind
            ))
        })?;
        let entries = ranges
            .iter()
            .map(|r| (r.level, r.lo, r.hi, r.count))
            .collect();
        Ok((entries, self.epoch))
    }

    /// The merged summary's portable snapshot bytes.
    pub fn snapshot_merged(&mut self) -> Result<Vec<u8>, ProtocolError> {
        self.read(MergeableSummary::to_bytes)
    }

    /// Runs `f` on the tenant's whole state: shard 0 in place for a
    /// 1-shard tenant, the merged copy otherwise. The first read after
    /// an ingest flushes the runtime, bumps the epoch and drops the
    /// merged copy so it is rebuilt from the live shards.
    fn read<T>(&mut self, f: impl FnOnce(&DynSummary) -> T) -> Result<T, ProtocolError> {
        if self.stale_items > 0 {
            // Quarantines were applied by the barrier; a timeout keeps
            // the batches queued. Either way the bank is still
            // readable — read what is there rather than failing the
            // read path.
            let _ = self.runtime.flush_timeout(REFRESH_FLUSH_TIMEOUT);
            self.merged = None;
            self.epoch += 1;
            self.stale_items = 0;
        }
        if self.spec.shards == 1 {
            return Ok(self.runtime.with_summary(0, f));
        }
        let merged = match self.merged.take() {
            Some(m) => m,
            None => self.merge_shards()?,
        };
        Ok(f(self.merged.insert(merged)))
    }

    /// Merges the live shards into one summary: clones shard 0 and
    /// merges every other shard into it under that shard's cell lock.
    fn merge_shards(&self) -> Result<DynSummary, ProtocolError> {
        let mut acc = self.runtime.with_summary(0, DynSummary::clone);
        for j in 1..self.runtime.len() {
            self.runtime.with_summary(j, |part| acc.merge_from(part))?;
        }
        Ok(acc)
    }

    /// Checkpoints the bank: arms the runtime's in-memory recovery and
    /// returns the bundle to persist. The flush barrier is bounded by
    /// `timeout` ([`crate::server::ServerConfig::checkpoint_timeout`]);
    /// poisoned shards and shards whose worker missed the deadline
    /// contribute their last good bytes *and keep their old high-water
    /// mark* — a wedged worker's cell lock is never even taken, and
    /// recovery replays its tail from the WAL instead.
    ///
    /// With a WAL attached the log is fsynced first, so the bundle's
    /// marks never reference sequence numbers the log could lose: a
    /// reopened log's next sequence number is always past every mark,
    /// and fresh appends can never be shadowed by a stale mark. If
    /// that sync fails the whole bundle falls back to last-good (bytes
    /// *and* marks) and the tenant latches a write-quarantine — the
    /// same fail-stop as a failed append.
    pub fn checkpoint(&mut self, timeout: Duration) -> BankSnapshot {
        let wal_ok = match &self.wal {
            Some(wal) => wal.sync().is_ok(),
            None => true,
        };
        if wal_ok {
            for (j, bytes) in self.runtime.checkpoint_timeout(timeout) {
                self.disk_bytes[j] = bytes;
                self.disk_hwm[j] = self.applied[j];
            }
        } else {
            self.forced_fault
                .get_or_insert_with(|| "wal sync failed at checkpoint".to_string());
        }
        self.bundle()
    }

    /// The bundle of what the last checkpoint captured — last-good
    /// bytes, marks and the dedup table — without capturing anew. A
    /// fresh tenant's bundle is its creation-time encoding.
    pub fn bundle(&self) -> BankSnapshot {
        BankSnapshot {
            shards: self.disk_bytes.iter().map(|b| b.to_vec()).collect(),
            hwms: self.disk_hwm.clone(),
            dedup: self.dedup.snapshot(),
        }
    }

    /// The WAL sequence number every shard's persisted bytes cover —
    /// the safe compaction bound: segments whose records all sit at or
    /// below it can be retired.
    pub fn covered_seq(&self) -> u64 {
        self.disk_hwm.iter().copied().min().unwrap_or(0)
    }

    /// The attached WAL, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Gives the tenant up for eviction, keeping only its log handle —
    /// and only when the last [`Tenant::checkpoint`] covers every record
    /// ever appended to the log: each shard's persisted mark reaches the
    /// last record dispatched to that shard, and the log has not
    /// fail-stopped. A rehydration from that bundle may then reattach
    /// the handle instead of scanning the log, since replay would skip
    /// every record. `None` when a shard was skipped or poisoned at the
    /// checkpoint, when the log has failed, or without a WAL.
    ///
    /// A kept log is released ([`Wal::release_file`]): it holds no file
    /// descriptor while its tenant is evicted, so descriptors stay
    /// bounded by the resident tenants however many are evicted. The
    /// next append reopens the active segment by path.
    pub fn into_covered_wal(self) -> Option<Arc<Wal>> {
        let wal = self.wal?;
        let covered = self.disk_hwm == self.applied && !wal.is_failed();
        (covered && wal.release_file().is_ok()).then_some(wal)
    }

    /// The attached WAL's counters (zeroed defaults without one).
    pub fn wal_stats(&self) -> WalStats {
        self.wal.as_ref().map(|w| w.stats()).unwrap_or_default()
    }

    /// Retries answered from the dedup table.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup.hits()
    }

    /// WAL records re-applied during recovery.
    pub fn wal_replayed(&self) -> u64 {
        self.wal_replayed
    }

    /// Clears quarantine: rebuilds every poisoned shard from its last
    /// in-memory checkpoint and lifts any injected fault. Returns how
    /// many shards were rebuilt. The next read re-reads the shards
    /// under a new epoch.
    pub fn recover(&mut self) -> Result<usize, ProtocolError> {
        self.forced_fault = None;
        let poisoned: Vec<usize> = self
            .runtime
            .health()
            .poisoned
            .iter()
            .map(|&(j, _)| j)
            .collect();
        let mut rebuilt = 0;
        for j in poisoned {
            self.runtime
                .recover(j)
                .map_err(|e| ProtocolError::BadRequest(format!("shard {j}: {e}")))?;
            rebuilt += 1;
        }
        self.stale_items += 1; // force the next read to refresh
        Ok(rebuilt)
    }

    /// Whether writes are currently refused.
    pub fn quarantined(&self) -> bool {
        self.forced_fault.is_some() || !self.runtime.health().poisoned.is_empty()
    }

    /// Items shed by this tenant's runtime so far.
    pub fn shed_items(&self) -> u64 {
        self.runtime.health().shed_items
    }

    /// Heap bytes resident in the live bank plus the merged copy an
    /// N-shard tenant keeps (the memory-budget input).
    pub fn resident_bytes(&self) -> u64 {
        let merged = self.merged.as_ref().map_or(0, |m| m.heap_bytes() as u64);
        self.runtime
            .map_summaries(|s| s.heap_bytes() as u64)
            .into_iter()
            .sum::<u64>()
            + merged
    }

    /// Injects an operator fault: writes fail as quarantined until
    /// [`Tenant::recover`]. Deterministic drills for the failure
    /// surface; no shard actually dies.
    pub fn inject_fault(&mut self, reason: impl Into<String>) {
        self.forced_fault = Some(reason.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::SummaryKind;

    fn spec() -> TenantSpec {
        TenantSpec {
            kind: SummaryKind::SpaceSaving,
            shards: 2,
            m: 100_000,
            universe: 1 << 20,
            ..TenantSpec::default()
        }
    }

    #[test]
    fn ingest_then_query_sees_the_heavy_item_and_bumps_epochs() {
        let mut t = Tenant::create(spec()).unwrap();
        let heavy: Vec<u64> = (0..10_000u64)
            .map(|i| if i % 2 == 0 { 5 } else { i })
            .collect();
        t.ingest("t", 0, &heavy[..5_000]).unwrap();
        t.ingest("t", 1, &heavy[5_000..]).unwrap();
        let (entries, epoch1) = t.query().unwrap();
        assert!(entries.iter().any(|&(item, _)| item == 5));
        // A quiescent re-query serves the same epoch; new data bumps it.
        let (_, epoch2) = t.query().unwrap();
        assert_eq!(epoch1, epoch2);
        t.ingest("t", 0, &[5; 100]).unwrap();
        let (_, epoch3) = t.query().unwrap();
        assert!(epoch3 > epoch2);
    }

    #[test]
    fn one_shard_epoch_bumps_once_per_ingest_and_on_recover() {
        let mut t = Tenant::create(TenantSpec {
            shards: 1,
            ..spec()
        })
        .unwrap();
        assert_eq!(t.query().unwrap().1, 0, "a fresh tenant answers at epoch 0");
        assert_eq!(t.query().unwrap().1, 0, "no ingest, no bump");
        t.ingest("t", 0, &[5; 100]).unwrap();
        assert_eq!(t.epoch(), 0, "ingest alone does not bump");
        let (entries, epoch) = t.query().unwrap();
        assert_eq!(epoch, 1, "one ingest, one bump");
        assert!(entries.iter().any(|&(item, _)| item == 5));
        t.snapshot_merged().unwrap();
        assert_eq!(t.query().unwrap().1, 1, "reads after the bump keep it");
        t.ingest("t", 0, &[6; 100]).unwrap();
        t.ingest("t", 0, &[6; 100]).unwrap();
        assert_eq!(
            t.query().unwrap().1,
            2,
            "one bump for any number of ingests"
        );
        t.inject_fault("drill");
        t.recover().unwrap();
        assert_eq!(t.epoch(), 2);
        assert_eq!(t.query().unwrap().1, 3, "recover forces a bump");
        assert_eq!(t.query().unwrap().1, 3);
        assert!(t.merged.is_none(), "a 1-shard tenant keeps no merged copy");
    }

    #[test]
    fn resident_bytes_counts_the_merged_copy() {
        let mut t = Tenant::create(spec()).unwrap();
        t.ingest("t", 0, &[7; 500]).unwrap();
        t.ingest("t", 1, &[9; 300]).unwrap();
        t.query().unwrap();
        let shards: u64 = t
            .runtime
            .map_summaries(|s| s.heap_bytes() as u64)
            .into_iter()
            .sum();
        let merged = t.merged.as_ref().expect("N-shard tenants keep a merge");
        assert_eq!(t.resident_bytes(), shards + merged.heap_bytes() as u64);
    }

    #[test]
    fn bad_shard_index_is_structured() {
        let mut t = Tenant::create(spec()).unwrap();
        assert_eq!(
            t.ingest("t", 9, &[1]).unwrap_err(),
            ProtocolError::ShardOutOfRange {
                shard: 9,
                shards: 2
            }
        );
    }

    #[test]
    fn injected_fault_refuses_writes_until_recover() {
        let mut t = Tenant::create(spec()).unwrap();
        t.ingest("t", 0, &[1, 2, 3]).unwrap();
        t.inject_fault("drill");
        assert!(t.quarantined());
        assert!(matches!(
            t.ingest("t", 0, &[4]).unwrap_err(),
            ProtocolError::Quarantined(_)
        ));
        // Reads keep working while quarantined.
        assert!(t.query().is_ok());
        t.recover().unwrap();
        assert!(!t.quarantined());
        t.ingest("t", 0, &[4]).unwrap();
    }

    #[test]
    fn checkpoint_bytes_restore_to_the_same_state() {
        let mut t = Tenant::create(spec()).unwrap();
        t.ingest("t", 0, &[7; 500]).unwrap();
        t.ingest("t", 1, &[9; 300]).unwrap();
        let bank = t.checkpoint(Duration::from_secs(2));
        assert_eq!(bank.shards.len(), 2);
        assert_eq!(bank.hwms, vec![0, 0], "no WAL, marks stay zero");
        for b in &bank.shards {
            let restored = DynSummary::from_bytes(b).unwrap();
            assert_eq!(restored.kind(), SummaryKind::SpaceSaving);
        }
    }

    #[test]
    fn logged_ingest_appends_dedups_and_replays() {
        let dir = std::env::temp_dir().join(format!("hh-tenant-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (wal, replay) = hh_wal::Wal::open(hh_wal::WalConfig::new(&dir), 1).unwrap();
        assert!(replay.records.is_empty());
        let wal = Arc::new(wal);
        let mut t = Tenant::create(spec()).unwrap();
        t.attach_wal(Arc::clone(&wal));

        let out = t.ingest_logged("t", 0, 42, 1, &[7, 7, 9]).unwrap();
        assert_eq!(out.accepted, 3);
        assert!(!out.deduplicated);
        let (_, seq) = out.commit.expect("logged ingest owes a commit");
        wal.commit(seq).unwrap();

        // A retry of the same (client, req_seq) replays the ack
        // without dispatching again.
        let retry = t.ingest_logged("t", 0, 42, 1, &[7, 7, 9]).unwrap();
        assert!(retry.deduplicated);
        assert_eq!(retry.accepted, 3);
        assert_eq!(t.total_items, 3, "the retry never reached the shards");
        assert_eq!(t.dedup_hits(), 1);

        // Recovery: a fresh tenant replays the record once; marks make
        // a second replay of the same record a no-op.
        let (_, replay) = hh_wal::Wal::open(hh_wal::WalConfig::new(&dir), 1).unwrap();
        assert_eq!(replay.records.len(), 1);
        let mut fresh = Tenant::create(spec()).unwrap();
        let mut frame = IngestFrame::default();
        for rec in &replay.records {
            frame.decode_from(&rec.payload).unwrap();
            assert!(fresh.replay_frame(rec.seq, &frame).unwrap());
        }
        assert_eq!(fresh.total_items, 3);
        assert_eq!(fresh.wal_replayed(), 1);
        // And the replayed dedup entry still answers the retry.
        let retry = fresh.ingest_logged("t", 0, 42, 1, &[7, 7, 9]).unwrap();
        assert!(retry.deduplicated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_late_older_request_is_answered_as_a_duplicate_not_applied() {
        // The stale-duplicate interleaving, forced in order: request 1's
        // retry is acked, request 2 is acked, then request 1's original
        // frame arrives. It must not reach the shards a second time.
        let dir = std::env::temp_dir().join(format!("hh-tenant-late-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (wal, _) = hh_wal::Wal::open(hh_wal::WalConfig::new(&dir), 1).unwrap();
        let wal = Arc::new(wal);
        let mut t = Tenant::create(spec()).unwrap();
        t.attach_wal(Arc::clone(&wal));
        let first = t.ingest_logged("t", 0, 42, 1, &[7; 30]).unwrap();
        let second = t.ingest_logged("t", 1, 42, 2, &[9; 20]).unwrap();
        let (_, latest_seq) = second.commit.expect("logged ingest owes a commit");
        assert!(!first.deduplicated && !second.deduplicated);
        let bytes = t.snapshot_merged().unwrap();
        let total = t.total_items;

        let late = t.ingest_logged("t", 0, 42, 1, &[7; 30]).unwrap();
        assert_eq!(t.total_items, total, "the late request was applied twice");
        assert_eq!(t.snapshot_merged().unwrap(), bytes);
        assert_eq!(wal.stats().appended_records, 2, "nothing new was logged");
        assert!(late.deduplicated);
        assert_eq!(late.accepted, 30, "the late request acks its own batch");
        let (_, seq) = late.commit.expect("the ack waits on the log");
        assert_eq!(
            seq, latest_seq,
            "the wait covers the client's latest record"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_keeps_the_log_only_when_the_bundle_covers_it() {
        let dir = std::env::temp_dir().join(format!("hh-tenant-cover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (wal, _) = hh_wal::Wal::open(hh_wal::WalConfig::new(&dir), 1).unwrap();
        let wal = Arc::new(wal);
        let logged = |shard: u32| {
            let mut t = Tenant::create(spec()).unwrap();
            t.attach_wal(Arc::clone(&wal));
            t.ingest("t", shard, &[3; 10]).unwrap();
            t
        };
        assert!(
            logged(0).into_covered_wal().is_none(),
            "no checkpoint covers the record"
        );
        // Shard 1 never saw a record, so its mark may stay behind the
        // log's end: coverage is per shard, not the minimum mark.
        let mut t = logged(0);
        t.checkpoint(Duration::from_secs(2));
        assert!(t.covered_seq() < wal.stats().appended_seq);
        let kept = t.into_covered_wal().expect("every record is covered");
        assert!(Arc::ptr_eq(&kept, &wal));
        assert!(!kept.holds_file(), "a kept log is parked without its fd");
        // A shard left behind by the checkpoint (as a skipped one is)
        // leaves its tail uncovered.
        let mut t = logged(1);
        assert!(wal.holds_file(), "the next append reopened the segment");
        t.checkpoint(Duration::from_secs(2));
        t.disk_hwm[1] -= 1;
        assert!(t.into_covered_wal().is_none());
        // Without a log there is nothing to keep.
        let mut bare = Tenant::create(spec()).unwrap();
        bare.checkpoint(Duration::from_secs(2));
        assert!(bare.into_covered_wal().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restored_bytes_arm_recovery_and_become_the_bundle() {
        let mut t = Tenant::create(spec()).unwrap();
        t.ingest("t", 0, &[4; 300]).unwrap();
        t.ingest("t", 1, &[8; 200]).unwrap();
        let bank = t.checkpoint(Duration::from_secs(2));
        let shards = bank
            .shards
            .iter()
            .map(|b| DynSummary::from_bytes(b).unwrap())
            .collect();
        let bytes = bank.shards.iter().map(|b| b[..].into()).collect();
        let back = Tenant::from_bank(spec(), shards, bytes).unwrap();
        assert_eq!(back.runtime.health().checkpointed, 2, "recovery is armed");
        assert_eq!(back.bundle().shards, bank.shards);
    }

    #[test]
    fn query_reads_logged_items_before_their_commit() {
        let dir =
            std::env::temp_dir().join(format!("hh-tenant-uncommitted-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (wal, _) = hh_wal::Wal::open(hh_wal::WalConfig::new(&dir), 1).unwrap();
        let wal = Arc::new(wal);
        let mut t = Tenant::create(spec()).unwrap();
        t.attach_wal(Arc::clone(&wal));

        // Read-uncommitted: the items are applied and visible while the
        // commit that would make their ack durable is still owed.
        let out = t.ingest_logged("t", 0, 0, 0, &[11; 64]).unwrap();
        let (_, seq) = out.commit.expect("logged ingest owes a commit");
        assert!(wal.stats().durable_seq < seq, "not yet committed");
        let (entries, _) = t.query().unwrap();
        assert!(
            entries
                .iter()
                .any(|&(item, count)| item == 11 && count >= 64.0),
            "uncommitted items not visible: {entries:?}"
        );
        wal.commit(seq).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_merged_is_restorable_and_reports_the_heavy_item() {
        let mut t = Tenant::create(spec()).unwrap();
        t.ingest("t", 0, &[3; 4_000]).unwrap();
        t.ingest("t", 1, &[3; 4_000]).unwrap();
        let bytes = t.snapshot_merged().unwrap();
        let restored = DynSummary::from_bytes(&bytes).unwrap();
        assert!(restored.report().contains(3));
    }
}
