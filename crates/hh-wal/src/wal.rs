//! The log itself: append, commit (durability wait), replay, segment
//! rotation, and checkpoint-gated compaction.
//!
//! # Durability model
//!
//! [`Wal::append`] assigns the next sequence number and buffers the
//! record into the active segment (one `write` syscall, no fsync).
//! [`Wal::commit`] then makes a sequence number *durable*: it fsyncs
//! the active segment inline, and that fsync covers every record
//! appended before it. A committer whose record an earlier fsync
//! already covered returns without issuing its own, so concurrent acks
//! share fsyncs whenever their appends land before one of them syncs.
//! Acked means fsynced: every committed record survives power loss.
//!
//! # Failure handling
//!
//! The log is **fail-stop**: the first append or fsync error latches
//! [`WalError::Failed`] and every later operation refuses. A
//! half-written record from a failed append is rolled back with
//! `set_len` where possible so the latch, not interleaved garbage, is
//! what the next reader finds. Replay damage policy lives in
//! [`crate::segment`]: torn active tails truncate, anything else is
//! structural and surfaces as [`WalError::Structural`] for the caller
//! to quarantine. The one exception is reopening a released active
//! segment ([`Wal::release_file`]): that writes nothing, so its failure
//! fails the one call and does not latch.
//!
//! # Replay
//!
//! There is one scan of the log directory. It reads each segment into
//! one reused buffer and lends every record's payload to a visitor as
//! soon as the record's checksum and continuity checks pass
//! ([`Wal::open_with`]), so recovery applies the log while it reads it
//! and never holds more than one segment in memory. Streaming means the
//! visitor can see a valid prefix of a log that later turns out to be
//! damaged: on `Err` the caller must discard whatever it built from the
//! visited records. [`Wal::open`] and [`replay_dir`] are collecting
//! adapters over the same scan.
//!
//! # Compaction invariant
//!
//! [`Wal::compact`]`(covered)` deletes a sealed segment only when
//! *every* sequence number it holds is at most `covered` — the
//! caller's promise that a durable checkpoint already reflects those
//! records. The active segment is never deleted, so the sequence
//! numbering never loses its anchor.

use crate::record::{encode_record, encoded_len, Record};
use crate::segment::{
    encode_header, parse_segment_file_name, scan_segment, segment_file_name, SEGMENT_HEADER_LEN,
};
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Log tunables.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Rotate the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
}

impl WalConfig {
    /// A config rooted at `dir` with 4 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_bytes: 4 << 20,
        }
    }
}

/// Everything that can go wrong operating the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// A filesystem operation failed (kind plus context).
    Io(std::io::ErrorKind, String),
    /// Replay found damage that cannot be a legal torn tail; the log
    /// cannot be trusted and its tenant should be quarantined.
    Structural(String),
    /// The log latched fail-stop after an earlier error; no further
    /// appends or commits are accepted.
    Failed(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(kind, what) => write!(f, "wal io failure ({kind:?}): {what}"),
            Self::Structural(what) => write!(f, "wal structurally damaged: {what}"),
            Self::Failed(what) => write!(f, "wal is fail-stopped: {what}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.kind(), e.to_string())
    }
}

/// What [`Wal::open`] salvaged from disk: every record, copied out.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Every surviving record, in sequence order. The caller filters
    /// against its checkpoint high-water marks for idempotent replay.
    pub records: Vec<Record>,
    /// Torn-tail bytes truncated from the active segment.
    pub truncated_bytes: u64,
    /// Segment files scanned.
    pub segments: u64,
}

/// What a streaming replay ([`Wal::open_with`]) visited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records handed to the visitor.
    pub records: u64,
    /// Torn-tail bytes cut from the active segment.
    pub truncated_bytes: u64,
    /// Segment files scanned.
    pub segments: u64,
}

/// A point-in-time stats snapshot (all counters since open).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub appended_records: u64,
    /// On-disk bytes appended (framing included).
    pub appended_bytes: u64,
    /// Highest sequence number appended (0 if none ever).
    pub appended_seq: u64,
    /// Highest sequence number known durable (fsynced).
    pub durable_seq: u64,
    /// Fsync calls issued.
    pub fsyncs: u64,
    /// Live segment files (sealed plus active).
    pub segments: u64,
    /// Bytes across all live segment files.
    pub log_bytes: u64,
    /// Records appended but not yet covered by a checkpoint
    /// (`appended_seq - covered_seq`): the replay debt a crash incurs.
    pub depth_records: u64,
    /// Worst single [`Wal::commit`] wait observed, in microseconds —
    /// the fsync lag an acked ingest paid.
    pub max_commit_wait_us: u64,
    /// Sealed segments retired by compaction.
    pub compacted_segments: u64,
}

/// A sealed (rotated, fully fsynced) segment still on disk.
struct SealedSeg {
    first_seq: u64,
    path: PathBuf,
    bytes: u64,
}

struct WalState {
    /// Active segment file, opened for append; `None` while released
    /// ([`Wal::release_file`]) until the next write reopens it.
    file: Option<File>,
    active_path: PathBuf,
    active_first_seq: u64,
    active_len: u64,
    /// Sequence number the next append receives.
    next_seq: u64,
    appended_seq: u64,
    durable_seq: u64,
    /// Highest sequence number a checkpoint covers (compaction input).
    covered_seq: u64,
    sealed: Vec<SealedSeg>,
    /// Fail-stop latch; set by the first irrecoverable error.
    failed: Option<String>,
    // Counters (snapshotted by `stats`).
    appended_records: u64,
    appended_bytes: u64,
    fsyncs: u64,
    max_commit_wait_us: u64,
    compacted_segments: u64,
    /// Scratch buffer for record encoding (reused across appends).
    scratch: Vec<u8>,
}

/// One tenant's write-ahead log. Internally synchronized: share it as
/// `Arc<Wal>` and call [`Wal::append`] / [`Wal::commit`] from any
/// thread.
pub struct Wal {
    config: WalConfig,
    state: Mutex<WalState>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.config.dir)
            .finish_non_exhaustive()
    }
}

/// Fsyncs a directory so entry creations/deletions inside it are
/// durable (the same discipline as the store's atomic writes).
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Creates a fresh segment file (header written and fsynced, directory
/// entry fsynced) and returns it opened for append.
fn create_segment(dir: &Path, first_seq: u64) -> std::io::Result<(File, PathBuf)> {
    let path = dir.join(segment_file_name(first_seq));
    let mut f = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)?;
    f.write_all(&encode_header(first_seq))?;
    f.sync_all()?;
    sync_dir(dir)?;
    Ok((f, path))
}

impl Wal {
    /// Opens (creating if needed) the log in `config.dir` and replays
    /// every surviving record into a [`WalReplay`], copying each
    /// payload. A thin collecting adapter over [`Wal::open_with`]; see
    /// it for `next_seq_hint` and the error contract.
    ///
    /// # Errors
    /// As [`Wal::open_with`]. On `Err` nothing is returned, so nothing
    /// needs discarding.
    pub fn open(config: WalConfig, next_seq_hint: u64) -> Result<(Self, WalReplay), WalError> {
        let mut records = Vec::new();
        let (wal, stats) = Self::open_with(config, next_seq_hint, |seq, payload| {
            records.push(Record {
                seq,
                payload: payload.to_vec(),
            });
            Ok(())
        })?;
        let replay = WalReplay {
            records,
            truncated_bytes: stats.truncated_bytes,
            segments: stats.segments,
        };
        Ok((wal, replay))
    }

    /// Opens (creating if needed) the log in `config.dir`, streaming
    /// every surviving record through `visit(seq, payload)` in sequence
    /// order as the scan reads it. `next_seq_hint` seeds the numbering
    /// of an *empty* directory (a fresh tenant passes 1; a caller
    /// re-creating a wiped log passes its checkpoint high-water mark
    /// plus one); a non-empty log derives its numbering from disk.
    ///
    /// A torn tail on the active segment is cut off only after every
    /// segment has scanned cleanly.
    ///
    /// # Errors
    /// [`WalError::Structural`] on damage outside a legal torn tail, or
    /// when `visit` rejects a record — the caller should quarantine,
    /// not retry. [`WalError::Io`] on filesystem failure.
    ///
    /// **Fail-closed contract:** records are visited before the whole
    /// log is validated, so on `Err` the visitor may already have seen
    /// a prefix of the log. The caller must discard everything it built
    /// from those records; only an `Ok` means the visited sequence is
    /// the whole surviving log.
    pub fn open_with(
        config: WalConfig,
        next_seq_hint: u64,
        visit: impl FnMut(u64, &[u8]) -> Result<(), String>,
    ) -> Result<(Self, ReplayStats), WalError> {
        std::fs::create_dir_all(&config.dir)?;
        let scan = scan_dir(&config.dir, visit)?;
        let stats = scan.stats;
        let (file, active_path, active_first_seq, active_len, next_seq) = match scan.active {
            None => {
                let first = next_seq_hint.max(1);
                let (f, path) = create_segment(&config.dir, first)?;
                (f, path, first, SEGMENT_HEADER_LEN as u64, first)
            }
            Some(active) => {
                if stats.truncated_bytes > 0 {
                    // Torn tail: cut the file back to the last whole
                    // record so appends resume on a clean boundary.
                    let f = OpenOptions::new().write(true).open(&active.path)?;
                    f.set_len(active.valid_len)?;
                    f.sync_all()?;
                }
                let f = OpenOptions::new().append(true).open(&active.path)?;
                let first = active.first_seq;
                (f, active.path, first, active.valid_len, scan.next_seq)
            }
        };
        let sealed = scan.sealed;
        let appended_seq = next_seq.saturating_sub(1);
        let covered_seq = sealed
            .first()
            .map_or(active_first_seq, |s| s.first_seq)
            .saturating_sub(1);
        let wal = Self {
            state: Mutex::new(WalState {
                file: Some(file),
                active_path,
                active_first_seq,
                active_len,
                next_seq,
                appended_seq,
                // Whatever survived to be replayed is as durable as it
                // will ever get.
                durable_seq: appended_seq,
                covered_seq,
                sealed,
                failed: None,
                appended_records: 0,
                appended_bytes: 0,
                fsyncs: 0,
                max_commit_wait_us: 0,
                compacted_segments: 0,
                scratch: Vec::new(),
            }),
            config,
        };
        Ok((wal, stats))
    }

    fn lock(&self) -> MutexGuard<'_, WalState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Appends `payload` as the next record and returns its sequence
    /// number. Buffered only — pair with [`Wal::commit`] before acking.
    ///
    /// # Errors
    /// [`WalError::Failed`] once fail-stopped; [`WalError::Io`] on the
    /// write that latches it.
    pub fn append(&self, payload: &[u8]) -> Result<u64, WalError> {
        let mut st = self.lock();
        if let Some(why) = &st.failed {
            return Err(WalError::Failed(why.clone()));
        }
        // Reopening a released file changes nothing on disk, so its
        // failure (say, out of descriptors) fails this append alone and
        // does not latch.
        active_file(&mut st)?;
        // Rotate first so a record never straddles the size threshold
        // by more than one record.
        if st.active_len >= self.config.segment_bytes {
            if let Err(e) = rotate(&mut st, &self.config) {
                let why = format!("rotation failed: {e}");
                st.failed = Some(why.clone());
                return Err(WalError::Failed(why));
            }
        }
        let seq = st.next_seq;
        let mut scratch = std::mem::take(&mut st.scratch);
        scratch.clear();
        encode_record(seq, payload, &mut scratch);
        let wrote = st.file.as_mut().expect("opened above").write_all(&scratch);
        let rec_len = scratch.len() as u64;
        st.scratch = scratch;
        if let Err(e) = wrote {
            // Roll the file back to the last record boundary; if even
            // that fails the latch still protects correctness (replay
            // truncates the torn tail).
            let len = st.active_len;
            if let Some(file) = st.file.as_mut() {
                let _ = file.set_len(len);
            }
            let why = format!("append of seq {seq} failed: {e}");
            st.failed = Some(why.clone());
            return Err(WalError::Failed(why));
        }
        st.active_len += rec_len;
        st.next_seq += 1;
        st.appended_seq = seq;
        st.appended_records += 1;
        st.appended_bytes += rec_len;
        Ok(seq)
    }

    /// Returns once `seq` is durable: fsyncs the active segment inline
    /// unless an earlier fsync already covered `seq`, in which case it
    /// returns without one. Acking a client before `commit` returns
    /// forfeits the zero-acked-loss guarantee.
    ///
    /// # Errors
    /// [`WalError::Failed`] if the log fail-stopped before durability
    /// was reached.
    pub fn commit(&self, seq: u64) -> Result<(), WalError> {
        let t0 = Instant::now();
        let mut st = self.lock();
        let result = sync_active(&mut st, seq);
        let waited = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        st.max_commit_wait_us = st.max_commit_wait_us.max(waited);
        result
    }

    /// Forces everything appended so far to disk.
    pub fn sync(&self) -> Result<(), WalError> {
        let mut st = self.lock();
        let up_to = st.appended_seq;
        sync_active(&mut st, up_to)
    }

    /// Retires every sealed segment whose records are all at or below
    /// `covered` (the caller's durable checkpoint high-water mark).
    /// Returns segments deleted. The active segment always survives.
    pub fn compact(&self, covered: u64) -> Result<u64, WalError> {
        let mut st = self.lock();
        st.covered_seq = st.covered_seq.max(covered);
        let mut removed = 0;
        while let Some(front) = st.sealed.first() {
            // The front sealed segment ends where its successor starts.
            let end = st
                .sealed
                .get(1)
                .map_or(st.active_first_seq, |next| next.first_seq)
                .saturating_sub(1);
            if end > covered {
                break;
            }
            let path = front.path.clone();
            std::fs::remove_file(&path)?;
            st.sealed.remove(0);
            st.compacted_segments += 1;
            removed += 1;
        }
        if removed > 0 {
            sync_dir(&self.config.dir)?;
        }
        Ok(removed)
    }

    /// Fsyncs and closes the active segment's file handle, keeping all
    /// in-memory state: numbering, coverage, the sealed-segment list.
    /// The next append (or fsync) reopens the segment by path in append
    /// mode — no scan, no checksum pass. For a log parked while its
    /// owner is evicted, so an idle log holds no file descriptor.
    ///
    /// # Errors
    /// As [`Wal::sync`]; the handle stays open on error.
    pub fn release_file(&self) -> Result<(), WalError> {
        let mut st = self.lock();
        let up_to = st.appended_seq;
        sync_active(&mut st, up_to)?;
        st.file = None;
        Ok(())
    }

    /// Whether the active segment's file handle is open (see
    /// [`Wal::release_file`]).
    pub fn holds_file(&self) -> bool {
        self.lock().file.is_some()
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> WalStats {
        let st = self.lock();
        WalStats {
            appended_records: st.appended_records,
            appended_bytes: st.appended_bytes,
            appended_seq: st.appended_seq,
            durable_seq: st.durable_seq,
            fsyncs: st.fsyncs,
            segments: st.sealed.len() as u64 + 1,
            log_bytes: st.sealed.iter().map(|s| s.bytes).sum::<u64>() + st.active_len,
            depth_records: st.appended_seq.saturating_sub(st.covered_seq),
            max_commit_wait_us: st.max_commit_wait_us,
            compacted_segments: st.compacted_segments,
        }
    }

    /// Whether the log has fail-stopped: every later append, commit
    /// and sync fails until the log is reopened.
    pub fn is_failed(&self) -> bool {
        self.lock().failed.is_some()
    }

    /// The sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.lock().next_seq
    }

    /// The on-disk byte offset durability has reached in the active
    /// segment (everything before it survives power loss; the tail
    /// past it may tear). Test oracles cut files here.
    pub fn durable_active_bytes(&self) -> u64 {
        let st = self.lock();
        if st.durable_seq >= st.appended_seq {
            st.active_len
        } else {
            // Durability lags: conservatively, nothing past the last
            // explicit fsync point is promised. Acks wait for commit,
            // so they never expose this window.
            SEGMENT_HEADER_LEN as u64
        }
    }
}

/// The active segment's handle, reopened for append if released.
fn active_file(st: &mut WalState) -> std::io::Result<&mut File> {
    if st.file.is_none() {
        st.file = Some(OpenOptions::new().append(true).open(&st.active_path)?);
    }
    Ok(st.file.as_mut().expect("just opened"))
}

/// Fsyncs the active segment and advances `durable_seq`; latches
/// fail-stop on error. `seq` is only used to short-circuit when the
/// work is already done.
fn sync_active(st: &mut WalState, seq: u64) -> Result<(), WalError> {
    if let Some(why) = &st.failed {
        return Err(WalError::Failed(why.clone()));
    }
    if st.durable_seq >= seq.min(st.appended_seq) {
        return Ok(());
    }
    match active_file(st)?.sync_data() {
        Ok(()) => {
            st.durable_seq = st.appended_seq;
            st.fsyncs += 1;
            Ok(())
        }
        Err(e) => {
            let why = format!("fsync failed: {e}");
            st.failed = Some(why.clone());
            Err(WalError::Failed(why))
        }
    }
}

/// Seals the active segment (fsynced whole — the invariant replay's
/// damage policy rests on) and starts a new one.
fn rotate(st: &mut WalState, config: &WalConfig) -> std::io::Result<()> {
    active_file(st)?.sync_all()?;
    st.durable_seq = st.appended_seq;
    st.fsyncs += 1;
    let (file, path) = create_segment(&config.dir, st.next_seq)?;
    let old_path = std::mem::replace(&mut st.active_path, path);
    st.sealed.push(SealedSeg {
        first_seq: st.active_first_seq,
        path: old_path,
        bytes: st.active_len,
    });
    st.file = Some(file);
    st.active_first_seq = st.next_seq;
    st.active_len = SEGMENT_HEADER_LEN as u64;
    Ok(())
}

/// The last segment of a scanned log: where appends resume.
struct ActiveSeg {
    path: PathBuf,
    first_seq: u64,
    /// Bytes that parsed whole; a torn tail past them is cut at open.
    valid_len: u64,
}

/// What one scan of a log directory found.
struct DirScan {
    sealed: Vec<SealedSeg>,
    /// `None` for a directory holding no segment files.
    active: Option<ActiveSeg>,
    /// The sequence number after the last whole record.
    next_seq: u64,
    stats: ReplayStats,
}

/// The one segment scan: reads every segment of `dir` in sequence
/// order into a single reused buffer, checks header continuity, and
/// streams each record to `visit` (see [`scan_segment`]). Every segment
/// but the last is sealed and must scan whole and non-empty.
fn scan_dir(
    dir: &Path,
    mut visit: impl FnMut(u64, &[u8]) -> Result<(), String>,
) -> Result<DirScan, WalError> {
    let mut firsts: Vec<u64> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        if let Some(first) = parse_segment_file_name(&name) {
            firsts.push(first);
        }
    }
    firsts.sort_unstable();

    let mut stats = ReplayStats::default();
    let mut sealed = Vec::new();
    let mut active = None;
    let mut expect = firsts.first().copied().unwrap_or(1);
    let mut buf = Vec::new();
    for (i, &first) in firsts.iter().enumerate() {
        let is_last = i + 1 == firsts.len();
        let path = dir.join(segment_file_name(first));
        if first != expect {
            return Err(WalError::Structural(format!(
                "segment {} breaks continuity (expected first seq {expect})",
                path.display()
            )));
        }
        buf.clear();
        File::open(&path)?.read_to_end(&mut buf)?;
        let scan = scan_segment(&buf, !is_last, expect, &mut visit)
            .map_err(|e| WalError::Structural(format!("{}: {e}", path.display())))?;
        if !is_last && scan.records == 0 {
            return Err(WalError::Structural(format!(
                "sealed segment {} holds no records",
                path.display()
            )));
        }
        expect += scan.records;
        stats.records += scan.records;
        stats.segments += 1;
        if is_last {
            stats.truncated_bytes = scan.discarded_bytes;
            active = Some(ActiveSeg {
                path,
                first_seq: first,
                valid_len: scan.valid_len,
            });
        } else {
            sealed.push(SealedSeg {
                first_seq: first,
                path,
                bytes: buf.len() as u64,
            });
        }
    }
    Ok(DirScan {
        sealed,
        active,
        next_seq: expect,
        stats,
    })
}

/// A convenience for tests and tooling: replays a directory without
/// constructing a live log (no truncation side effects), copying every
/// record out. A collecting adapter over the
/// same scan [`Wal::open_with`] streams.
pub fn replay_dir(dir: &Path) -> Result<WalReplay, WalError> {
    let mut records = Vec::new();
    let scan = scan_dir(dir, |seq, payload| {
        records.push(Record {
            seq,
            payload: payload.to_vec(),
        });
        Ok(())
    })?;
    Ok(WalReplay {
        records,
        truncated_bytes: scan.stats.truncated_bytes,
        segments: scan.stats.segments,
    })
}

/// The on-disk size of a record with this payload length (exposed so
/// tests can compute exact cut offsets).
pub fn record_disk_len(payload_len: usize) -> usize {
    encoded_len(payload_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hh-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(dir: &Path) -> WalConfig {
        WalConfig {
            dir: dir.to_path_buf(),
            segment_bytes: 256, // tiny: rotation every few records
        }
    }

    #[test]
    fn append_commit_reopen_replays_everything() {
        let dir = tmpdir("roundtrip");
        let payloads: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 1 + i as usize]).collect();
        {
            let (wal, replay) = Wal::open(cfg(&dir), 1).unwrap();
            assert!(replay.records.is_empty());
            for p in &payloads {
                let seq = wal.append(p).unwrap();
                wal.commit(seq).unwrap();
            }
            let stats = wal.stats();
            assert_eq!(stats.appended_records, 20);
            assert_eq!(stats.durable_seq, 20);
            assert!(stats.segments > 1, "tiny segments must rotate");
        }
        let (wal, replay) = Wal::open(cfg(&dir), 1).unwrap();
        assert_eq!(replay.records.len(), 20);
        for (i, rec) in replay.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64 + 1);
            assert_eq!(rec.payload, payloads[i]);
        }
        assert_eq!(wal.next_seq(), 21);
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_blocks_until_durable_and_shares_covering_fsyncs() {
        let dir = tmpdir("commit");
        let (wal, _) = Wal::open(
            WalConfig {
                segment_bytes: 1 << 20, // no rotation fsyncs in this test
                ..cfg(&dir)
            },
            1,
        )
        .unwrap();
        // One fsync covers every record appended before it: committing
        // seq 2 makes 1..=4 durable, and committing any of them again
        // issues no further fsync.
        for i in 1..=4u8 {
            assert_eq!(wal.append(&[i]).unwrap(), u64::from(i));
        }
        let before = wal.stats().fsyncs;
        wal.commit(2).unwrap();
        let after = wal.stats();
        assert_eq!(after.fsyncs, before + 1);
        assert_eq!(after.durable_seq, 4);
        for seq in [1, 3, 4] {
            wal.commit(seq).unwrap();
        }
        assert_eq!(wal.stats().fsyncs, before + 1, "covered commits fsynced");

        // Concurrent committers: every commit returns durable.
        let wal = Arc::new(wal);
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..25u8 {
                        let seq = wal.append(&[w, i]).unwrap();
                        wal.commit(seq).unwrap();
                        assert!(wal.stats().durable_seq >= seq, "acked before durable");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(wal.stats().appended_records, 104);
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_retires_only_fully_covered_sealed_segments() {
        let dir = tmpdir("compact");
        let (wal, _) = Wal::open(cfg(&dir), 1).unwrap();
        for i in 0..30u8 {
            let seq = wal.append(&[i; 16]).unwrap();
            wal.commit(seq).unwrap();
        }
        let before = wal.stats();
        assert!(before.segments >= 3);
        // Cover nothing: nothing may go.
        assert_eq!(wal.compact(0).unwrap(), 0);
        // Cover everything: all sealed segments go, the active stays.
        let removed = wal.compact(30).unwrap();
        assert_eq!(removed, before.segments - 1);
        assert_eq!(wal.stats().segments, 1);
        assert_eq!(wal.stats().depth_records, 0);
        // Appends keep their numbering after full compaction.
        let seq = wal.append(b"after").unwrap();
        assert_eq!(seq, 31);
        wal.commit(seq).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(cfg(&dir), 1).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert!(seqs.contains(&31));
        assert!(seqs.iter().all(|&s| s > 0), "seq anchor survived");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_compaction_never_drops_uncovered_records() {
        let dir = tmpdir("partial-compact");
        let (wal, _) = Wal::open(cfg(&dir), 1).unwrap();
        for i in 0..30u8 {
            let seq = wal.append(&[i; 16]).unwrap();
            wal.commit(seq).unwrap();
        }
        for covered in [5u64, 12, 19, 26] {
            wal.compact(covered).unwrap();
            let replay = replay_dir(&dir).unwrap();
            let min_seq = replay.records.iter().map(|r| r.seq).min().unwrap();
            assert!(
                min_seq <= covered + 1,
                "compact({covered}) dropped uncovered seq {min_seq}"
            );
            let max_seq = replay.records.iter().map(|r| r.seq).max().unwrap();
            assert_eq!(max_seq, 30);
        }
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume_cleanly() {
        let dir = tmpdir("torn");
        let disk_len = record_disk_len(16);
        {
            let (wal, _) = Wal::open(cfg(&dir), 1).unwrap();
            for i in 0..3u8 {
                let seq = wal.append(&[i; 16]).unwrap();
                wal.commit(seq).unwrap();
            }
        }
        // Tear the last record in half.
        let seg = dir.join(segment_file_name(1));
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - disk_len as u64 / 2).unwrap();
        drop(f);

        let (wal, replay) = Wal::open(cfg(&dir), 1).unwrap();
        assert_eq!(replay.records.len(), 2, "torn record dropped");
        assert!(replay.truncated_bytes > 0);
        // The next append takes over the torn record's seq.
        assert_eq!(wal.append(b"recovered").unwrap(), 3);
        wal.commit(3).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(cfg(&dir), 1).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[2].payload, b"recovered");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_in_a_sealed_segment_is_structural() {
        let dir = tmpdir("sealed-damage");
        {
            let (wal, _) = Wal::open(cfg(&dir), 1).unwrap();
            for i in 0..30u8 {
                let seq = wal.append(&[i; 16]).unwrap();
                wal.commit(seq).unwrap();
            }
            assert!(wal.stats().segments >= 2);
        }
        let first = dir.join(segment_file_name(1));
        let mut bytes = std::fs::read(&first).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&first, &bytes).unwrap();
        match Wal::open(cfg(&dir), 1) {
            Err(WalError::Structural(_)) => {}
            other => panic!("expected structural damage, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_committed_v2_segment_replays_from_its_directory() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let replay = replay_dir(&dir).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [7, 8, 9]);
        assert_eq!(replay.records[1].payload, b"heavy hitters");
        assert_eq!(replay.records[2].payload, [0xA5; 300]);
        assert_eq!((replay.segments, replay.truncated_bytes), (1, 0));
    }

    #[test]
    fn a_directory_holding_a_v1_segment_is_structural_damage() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/v1");
        match replay_dir(&dir) {
            Err(WalError::Structural(why)) => {
                assert!(why.contains("v1 (CRC-32) WAL format"), "{why}");
            }
            other => panic!("expected the v1 segment refused, got {other:?}"),
        }
        let mut visited = 0;
        let refused = scan_dir(&dir, |_, _| {
            visited += 1;
            Ok(())
        });
        assert!(matches!(refused, Err(WalError::Structural(_))));
        assert_eq!(visited, 0, "no v1 record is ever lent to a visitor");
    }

    #[test]
    fn streaming_open_fails_closed_after_visiting_a_valid_prefix() {
        let dir = tmpdir("stream-prefix");
        {
            let (wal, _) = Wal::open(cfg(&dir), 1).unwrap();
            for i in 0..40u8 {
                let seq = wal.append(&[i; 16]).unwrap();
                wal.commit(seq).unwrap();
            }
            assert!(wal.stats().segments >= 4);
        }
        let (wal, stats) = Wal::open_with(cfg(&dir), 1, |_, _| Ok(())).unwrap();
        assert_eq!((stats.records, stats.truncated_bytes), (40, 0));
        assert_eq!(stats.segments, wal.stats().segments);
        drop(wal);

        // Rot a record in the third (sealed) segment: the first two
        // segments' records are visited in order, then the open fails.
        let mut firsts: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| parse_segment_file_name(e.unwrap().file_name().to_str()?))
            .collect();
        firsts.sort_unstable();
        let third = dir.join(segment_file_name(firsts[2]));
        let mut bytes = std::fs::read(&third).unwrap();
        bytes[SEGMENT_HEADER_LEN + 12] ^= 0x01;
        std::fs::write(&third, &bytes).unwrap();
        let mut seen = Vec::new();
        let err = Wal::open_with(cfg(&dir), 1, |seq, _| {
            seen.push(seq);
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, WalError::Structural(_)), "{err}");
        let prefix: Vec<u64> = (1..firsts[2]).collect();
        assert_eq!(seen, prefix, "exactly the records before the damage");

        // A visitor that refuses a record is structural damage too.
        let err = Wal::open_with(cfg(&dir), 1, |seq, _| {
            if seq == 2 {
                return Err("frame refused".into());
            }
            Ok(())
        })
        .unwrap_err();
        assert!(
            matches!(&err, WalError::Structural(why) if why.contains("frame refused")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_rotation_latches_the_fail_stop_flag() {
        let dir = tmpdir("latch");
        let (wal, _) = Wal::open(cfg(&dir), 1).unwrap();
        assert!(!wal.is_failed());
        // Squat on every name the next rotations could pick, so the
        // first one fails to create its segment.
        let next = wal.next_seq();
        for seq in next..next + 64 {
            std::fs::write(dir.join(segment_file_name(seq)), b"squatter").unwrap();
        }
        let failure = (0..64)
            .map(|_| wal.append(&[7; 40]))
            .find_map(Result::err)
            .expect("a tiny segment must rotate within 64 appends");
        assert!(matches!(failure, WalError::Failed(_)), "{failure}");
        assert!(wal.is_failed());
        assert!(wal.sync().is_err(), "the latch holds for every later call");
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// File descriptors this process holds on files under `dir`.
    fn fds_under(dir: &Path) -> usize {
        std::fs::read_dir("/proc/self/fd")
            .unwrap()
            .filter_map(|e| std::fs::read_link(e.ok()?.path()).ok())
            .filter(|target| target.starts_with(dir))
            .count()
    }

    #[test]
    fn a_released_log_holds_no_fd_and_reopens_where_it_stopped() {
        let dir = tmpdir("release");
        let (wal, _) = Wal::open(cfg(&dir), 1).unwrap();
        for _ in 0..10 {
            wal.append(&[1; 30]).unwrap();
        }
        let before = wal.stats();
        assert!(before.durable_seq < before.appended_seq);
        wal.release_file().unwrap();
        assert!(!wal.holds_file());
        assert_eq!(fds_under(&dir), 0, "a released log keeps no fd open");
        let after = wal.stats();
        assert_eq!(after.appended_seq, before.appended_seq);
        assert_eq!(after.durable_seq, after.appended_seq, "released synced");
        assert_eq!(after.segments, before.segments);
        // Appends reopen the segment and continue the sequence, across
        // rotations too.
        for k in 1..=10 {
            let seq = wal.append(&[2; 30]).unwrap();
            assert_eq!(seq, before.appended_seq + k);
        }
        assert!(wal.holds_file());
        wal.sync().unwrap();
        drop(wal);
        let (_, replay) = Wal::open(cfg(&dir), 1).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (1..=20).collect::<Vec<u64>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_reopen_fails_one_append_without_latching() {
        let dir = tmpdir("reopen");
        let (wal, _) = Wal::open(cfg(&dir), 1).unwrap();
        assert_eq!(wal.append(b"a").unwrap(), 1);
        wal.release_file().unwrap();
        // Take the active segment away so the reopen fails.
        let active = dir.join(segment_file_name(1));
        let aside = dir.join("aside");
        std::fs::rename(&active, &aside).unwrap();
        assert!(matches!(wal.append(b"b").unwrap_err(), WalError::Io(..)));
        assert!(!wal.is_failed(), "nothing on disk changed: no latch");
        std::fs::rename(&aside, &active).unwrap();
        assert_eq!(wal.append(b"b").unwrap(), 2, "no sequence number lost");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_honors_the_seq_hint() {
        let dir = tmpdir("hint");
        let (wal, replay) = Wal::open(cfg(&dir), 1000).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(wal.append(b"x").unwrap(), 1000);
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
