//! Durability suite for the write-ahead log (PR 10): `hh-wal` alone
//! and the whole `hh-server` stack on top of it are driven through the
//! `hh-faults` disk corruptors, and the contract is:
//!
//! 1. **power loss at every byte offset** of the log leaves exactly
//!    the maximal whole-record prefix: replay recovers it byte for
//!    byte, `Wal::open` truncates the torn tail and appends cleanly
//!    from the boundary — never a panic, never a half-record;
//! 2. the [`hh_faults::disk::FaultyFile`] watermark oracle agrees:
//!    torn appends survive only up to the tear, a **lying fsync**
//!    leaves nothing (which is exactly why acked durability is defined
//!    by the honored-fsync boundary), and scheduled **bit rot** is
//!    caught by the record checksum;
//! 3. **commit means durable**: a returned `commit(seq)` implies a
//!    power cut at the durable watermark still replays every committed
//!    record;
//! 4. **structural damage is quarantine, not crash**: any corruption
//!    of a *sealed* segment fails replay with `WalError::Structural`;
//!    at the server level that quarantines the one tenant whose log is
//!    damaged while every other tenant keeps serving;
//! 5. **retried ingest applies exactly once**: a numbered request
//!    severed at every offset of its frame — including the
//!    applied-but-unacked case — then retried under the same
//!    `(client, req_seq)` lands exactly once, byte-identical to an
//!    each-batch-once oracle;
//! 6. **compaction never drops uncovered records**: retiring sealed
//!    segments at the checkpoint cover keeps every record past the
//!    cover replayable with its payload intact.

use hh_faults::disk::FaultyFile;
use hh_server::client::Client;
use hh_server::facade::{SummaryKind, TenantSpec};
use hh_server::proto::{read_frame, write_frame, Request, Response};
use hh_server::server::{Endpoint, Server, ServerConfig};
use hh_wal::record::encode_record;
use hh_wal::segment::{encode_header, segment_file_name, SEGMENT_HEADER_LEN};
use hh_wal::{record_disk_len, replay_dir, Wal, WalConfig, WalError};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hh-wal-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wal_cfg(dir: &Path) -> WalConfig {
    WalConfig {
        dir: dir.to_path_buf(),
        segment_bytes: 1 << 20,
    }
}

/// Deterministic per-seq payload so replays can be checked byte for
/// byte.
fn pat(seq: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seq.wrapping_mul(31) as u8).wrapping_add(i as u8))
        .collect()
}

/// Copies every regular file of `src` into a fresh `dst`.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn truncate_file(path: &Path, len: u64) {
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(len).unwrap();
}

// ---------------------------------------------------------------------------
// 1. Power loss at every byte offset.
// ---------------------------------------------------------------------------

#[test]
fn power_cut_at_every_byte_offset_recovers_the_exact_durable_prefix() {
    let base = tmp("sweep-base");
    let sizes = [1usize, 7, 64, 300, 1000, 13, 128, 2];
    {
        let (wal, replay) = Wal::open(wal_cfg(&base), 1).unwrap();
        assert!(replay.records.is_empty());
        for (i, &len) in sizes.iter().enumerate() {
            let seq = wal.append(&pat(i as u64 + 1, len)).unwrap();
            assert_eq!(seq, i as u64 + 1);
        }
        wal.commit(sizes.len() as u64).unwrap();
    }
    let seg = base.join(segment_file_name(1));
    let file_len = std::fs::metadata(&seg).unwrap().len() as usize;

    // Record boundaries: offs[k] = end of the k-th record.
    let mut offs = vec![SEGMENT_HEADER_LEN];
    for &len in &sizes {
        offs.push(offs.last().unwrap() + record_disk_len(len));
    }
    assert_eq!(
        *offs.last().unwrap(),
        file_len,
        "boundary math disagrees with disk"
    );

    let scratch = tmp("sweep-cut");
    for cut in SEGMENT_HEADER_LEN..=file_len {
        let _ = std::fs::remove_dir_all(&scratch);
        copy_dir(&base, &scratch);
        truncate_file(&scratch.join(segment_file_name(1)), cut as u64);

        // The maximal whole-record prefix the cut leaves behind.
        let expect = offs.iter().filter(|&&b| b <= cut).count() - 1;
        let replay = replay_dir(&scratch).unwrap();
        assert_eq!(replay.records.len(), expect, "cut at {cut}");
        for (i, rec) in replay.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64 + 1);
            assert_eq!(
                rec.payload,
                pat(i as u64 + 1, sizes[i]),
                "payload torn at cut {cut}"
            );
        }

        // A live open salvages the same prefix (truncating the tail)...
        let (wal, opened) = Wal::open(wal_cfg(&scratch), 1).unwrap();
        assert_eq!(opened.records.len(), expect, "open at cut {cut}");
        assert_eq!(opened.truncated_bytes as usize, cut - offs[expect]);
        drop(wal);

        // ...and at record boundaries, appending resumes seamlessly.
        if cut == offs[expect] {
            let (wal, _) = Wal::open(wal_cfg(&scratch), 1).unwrap();
            let next = wal.append(&pat(99, 40)).unwrap();
            assert_eq!(next, expect as u64 + 1);
            wal.commit(next).unwrap();
            drop(wal);
            let again = replay_dir(&scratch).unwrap();
            assert_eq!(again.records.len(), expect + 1);
            assert_eq!(again.records[expect].payload, pat(99, 40));
        }
    }

    // A cut inside the segment header is not a legal torn tail.
    let _ = std::fs::remove_dir_all(&scratch);
    copy_dir(&base, &scratch);
    truncate_file(
        &scratch.join(segment_file_name(1)),
        SEGMENT_HEADER_LEN as u64 - 1,
    );
    assert!(matches!(replay_dir(&scratch), Err(WalError::Structural(_))));

    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(&scratch);
}

// ---------------------------------------------------------------------------
// 2. The FaultyFile watermark oracle.
// ---------------------------------------------------------------------------

#[test]
fn torn_appends_and_lying_fsyncs_match_the_faultyfile_watermark_oracle() {
    let rec = |seq: u64, payload: &[u8]| {
        let mut buf = Vec::new();
        encode_record(seq, payload, &mut buf);
        buf
    };
    let rec1 = rec(1, &pat(1, 20));
    let rec2 = rec(2, &pat(2, 10));

    // (2a) Kill mid-append at every offset inside the second record:
    // replay keeps the first record and reports exactly the torn bytes.
    let dir = tmp("faulty-tear");
    std::fs::create_dir_all(&dir).unwrap();
    let seg = dir.join(segment_file_name(1));
    for torn in 1..rec2.len() {
        let mut durable = encode_header(1).to_vec();
        durable.extend_from_slice(&rec1);
        std::fs::write(&seg, &durable).unwrap();
        let f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
        let mut file = FaultyFile::new(f).unwrap().kill_after(torn);
        assert!(
            file.write_all(&rec2).is_err(),
            "kill at {torn} must surface"
        );
        assert_eq!(file.written(), torn);
        let replay = replay_dir(&dir).unwrap();
        assert_eq!(replay.records.len(), 1, "torn at {torn}");
        assert_eq!(replay.records[0].payload, pat(1, 20));
        assert_eq!(replay.truncated_bytes as usize, torn);
    }

    // (2b) A lying disk: the sync "succeeds", the power cut reveals
    // nothing was committed — the record the caller thought durable is
    // gone. This is the scenario that defines durability as the
    // honored-fsync boundary, not the write boundary.
    std::fs::write(&seg, encode_header(1)).unwrap();
    let f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
    let mut file = FaultyFile::new(f).unwrap().drop_syncs();
    file.write_all(&rec1).unwrap();
    file.sync().unwrap(); // lies
    assert_eq!(file.durable(), 0);
    file.power_cut().unwrap();
    let replay = replay_dir(&dir).unwrap();
    assert!(
        replay.records.is_empty(),
        "a lying fsync must not count as durable"
    );

    // (2c) Scheduled bit rot under chunked writes: the flip lands in
    // the second record; the checksum rejects it, the first record
    // survives. Once a successor segment exists the damaged segment is
    // sealed and the same flip is structural.
    std::fs::write(&seg, encode_header(1)).unwrap();
    let f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
    let mut file = FaultyFile::new(f)
        .unwrap()
        .chunk(3)
        .flip_at(rec1.len() + 8, 0x40);
    file.write_all(&rec1).unwrap();
    file.write_all(&rec2).unwrap();
    file.sync().unwrap();
    let replay = replay_dir(&dir).unwrap();
    assert_eq!(replay.records.len(), 1);
    assert_eq!(replay.truncated_bytes as usize, rec2.len());

    let mut next_seg = encode_header(3).to_vec();
    next_seg.extend_from_slice(&rec(3, b"sealer"));
    std::fs::write(dir.join(segment_file_name(3)), &next_seg).unwrap();
    assert!(
        matches!(replay_dir(&dir), Err(WalError::Structural(_))),
        "sealed-segment bit rot must be structural, not salvaged"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// 3. Commit means durable.
// ---------------------------------------------------------------------------

#[test]
fn commit_means_durable_at_the_fsync_watermark() {
    let dir = tmp("ack");
    let (wal, _) = Wal::open(wal_cfg(&dir), 1).unwrap();
    for seq in 1..=6u64 {
        assert_eq!(wal.append(&pat(seq, 50)).unwrap(), seq);
        wal.commit(seq).unwrap();
        assert!(
            wal.stats().durable_seq >= seq,
            "commit({seq}) returned before durability"
        );
    }
    // Power loss now: only bytes at or before the durable watermark
    // survive. The uncommitted tail appended afterwards may tear —
    // no committed record depends on it.
    let cut = wal.durable_active_bytes();
    wal.append(&pat(7, 50)).unwrap();
    wal.append(&pat(8, 50)).unwrap();
    drop(wal);

    let scratch = tmp("ack-cut");
    copy_dir(&dir, &scratch);
    truncate_file(&scratch.join(segment_file_name(1)), cut);
    let replay = replay_dir(&scratch).unwrap();
    assert_eq!(replay.records.len(), 6, "committed records lost at the cut");
    for (i, rec) in replay.records.iter().enumerate() {
        assert_eq!(rec.payload, pat(i as u64 + 1, 50));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}

// ---------------------------------------------------------------------------
// 4. Structural damage: quarantine, never a crash.
// ---------------------------------------------------------------------------

/// Builds a multi-segment log (tiny segments force rotations) and
/// returns the sorted segment file names.
fn build_multi_segment(dir: &Path, records: u64) -> Vec<PathBuf> {
    let config = WalConfig {
        dir: dir.to_path_buf(),
        segment_bytes: 256,
    };
    let (wal, _) = Wal::open(config, 1).unwrap();
    for seq in 1..=records {
        wal.append(&pat(seq, (seq % 23) as usize + 5)).unwrap();
    }
    wal.commit(records).unwrap();
    drop(wal);
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segs.sort();
    segs
}

#[test]
fn corruption_is_structural_in_sealed_segments_and_salvage_in_the_active_tail() {
    const RECORDS: u64 = 60;
    let base = tmp("damage-base");
    let segs = build_multi_segment(&base, RECORDS);
    assert!(
        segs.len() >= 3,
        "need several sealed segments, got {}",
        segs.len()
    );
    assert_eq!(replay_dir(&base).unwrap().records.len(), RECORDS as usize);

    let scratch = tmp("damage-cut");
    let with_copy = |mutate: &dyn Fn(&Path)| {
        let _ = std::fs::remove_dir_all(&scratch);
        copy_dir(&base, &scratch);
        mutate(&scratch);
    };

    // Active-tail damage: the last byte of the last segment is a legal
    // torn tail — replay salvages everything before it.
    with_copy(&|dir| {
        let path = dir.join(segs.last().unwrap().file_name().unwrap());
        let mut buf = std::fs::read(&path).unwrap();
        *buf.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, &buf).unwrap();
    });
    let replay = replay_dir(&scratch).unwrap();
    assert_eq!(replay.records.len(), RECORDS as usize - 1);
    assert!(replay.truncated_bytes > 0);
    // And a live open over the same damage truncates and keeps going.
    let (wal, opened) = Wal::open(
        WalConfig {
            dir: scratch.clone(),
            segment_bytes: 256,
        },
        1,
    )
    .unwrap();
    assert_eq!(opened.records.len(), RECORDS as usize - 1);
    assert_eq!(wal.append(b"after the tear").unwrap(), RECORDS);
    wal.commit(RECORDS).unwrap();
    drop(wal);

    // The same single-bit flip in a *sealed* segment is structural.
    with_copy(&|dir| {
        let path = dir.join(segs[0].file_name().unwrap());
        let mut buf = std::fs::read(&path).unwrap();
        buf[SEGMENT_HEADER_LEN + 7] ^= 0x20;
        std::fs::write(&path, &buf).unwrap();
    });
    assert!(matches!(replay_dir(&scratch), Err(WalError::Structural(_))));

    // A missing middle segment breaks sequence continuity: structural.
    with_copy(&|dir| {
        std::fs::remove_file(dir.join(segs[1].file_name().unwrap())).unwrap();
    });
    assert!(matches!(replay_dir(&scratch), Err(WalError::Structural(_))));

    // Deterministic corruption fuzz: single-bit flips sampled across
    // the whole log either salvage a prefix or fail structurally —
    // never panic, never invent records.
    let mut rng = 0x5EED_1DEAu64;
    for _ in 0..64 {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        with_copy(&|dir| {
            let files: Vec<PathBuf> = segs
                .iter()
                .map(|s| dir.join(s.file_name().unwrap()))
                .collect();
            let total: usize = files
                .iter()
                .map(|f| std::fs::metadata(f).unwrap().len() as usize)
                .sum();
            let mut off = (rng >> 16) as usize % total;
            for f in &files {
                let len = std::fs::metadata(f).unwrap().len() as usize;
                if off < len {
                    let mut buf = std::fs::read(f).unwrap();
                    buf[off] ^= 1 << (rng % 8);
                    std::fs::write(f, &buf).unwrap();
                    break;
                }
                off -= len;
            }
        });
        match replay_dir(&scratch) {
            Ok(replay) => assert!(replay.records.len() <= RECORDS as usize),
            Err(WalError::Structural(_)) => {}
            Err(other) => panic!("fuzz flip produced a non-structural failure: {other}"),
        }
    }

    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(&scratch);
}

fn server_spec() -> TenantSpec {
    TenantSpec {
        kind: SummaryKind::SpaceSaving,
        shards: 1,
        m: 100_000,
        universe: 1 << 20,
        ..TenantSpec::default()
    }
}

#[test]
fn corrupt_sealed_wal_quarantines_one_tenant_while_the_rest_serve() {
    let root = tmp("server-quarantine");
    // No periodic checkpoints: checkpoints advance the cover and would
    // let compaction retire the sealed segment this test corrupts.
    let mut config = ServerConfig::fast(&root);
    config.checkpoint_every = Duration::from_secs(3_600);
    let server = Server::start(
        config.clone(),
        Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    client.create("bad", server_spec()).unwrap();
    client.create("good", server_spec()).unwrap();

    let mut oracle = server_spec().build_bank().unwrap().remove(0);
    // Enough volume into "bad" to seal at least one 64 KiB segment.
    for i in 0..20u64 {
        let items: Vec<u64> = (0..500).map(|k| i * 131 + k % 17).collect();
        assert_eq!(client.ingest("bad", 0, &items).unwrap(), 500);
    }
    for i in 0..3u64 {
        let items: Vec<u64> = (0..400).map(|k| 7_000 + i * 131 + k % 11).collect();
        assert_eq!(client.ingest("good", 0, &items).unwrap(), 400);
        use hh_core::StreamSummary as _;
        oracle.insert_batch(&items);
    }
    server.kill();

    // Flip one byte inside a record of bad's oldest (sealed) segment.
    let wal_dir = root.join("bad").join("wal");
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&wal_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segs.sort();
    assert!(segs.len() >= 2, "ingest volume did not seal a segment");
    let mut buf = std::fs::read(&segs[0]).unwrap();
    buf[SEGMENT_HEADER_LEN + 40] ^= 0x10;
    std::fs::write(&segs[0], &buf).unwrap();

    let server = Server::start(config, Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();

    // The damaged tenant is quarantined, not fatal: the daemon is up,
    // refuses writes to "bad", and serves "good" with every acked batch
    // replayed from its (intact) log.
    let health = client.health().unwrap();
    assert!(
        health.quarantined.contains(&"bad".to_string()),
        "damaged log must quarantine its tenant: {:?}",
        health.quarantined
    );
    assert!(client.ingest("bad", 0, &[1, 2, 3]).is_err());
    use hh_core::MergeableSummary as _;
    let served = client.snapshot("good").unwrap();
    assert_eq!(
        served,
        oracle.to_bytes(),
        "healthy tenant lost acked data to a neighbor's corruption"
    );
    assert_eq!(client.ingest("good", 0, &[9, 9, 9]).unwrap(), 3);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// 5. Retried ingest applies exactly once.
// ---------------------------------------------------------------------------

#[test]
fn retried_ingest_applies_exactly_once_at_every_sever_offset() {
    let root = tmp("dedup-exact");
    let mut config = ServerConfig::fast(&root);
    config.checkpoint_every = Duration::from_secs(3_600);
    let server = Server::start(config, Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
    let addr = server.local_addr().unwrap();
    Client::connect_tcp(addr)
        .unwrap()
        .create("exact", server_spec())
        .unwrap();

    // Few distinct items + huge m: SpaceSaving is exact, so one double
    // apply or one lost batch shifts the snapshot bytes.
    const CLIENT: u64 = 0xC0FFEE;
    let items: Vec<u64> = (0..40).map(|k| k % 4).collect();
    let body_for = |req_seq: u64| {
        Request::Ingest {
            tenant: "exact".to_string(),
            shard: 0,
            client: CLIENT,
            req_seq,
            items: items.clone(),
        }
        .encode()
    };
    let frame_for = |body: &[u8]| {
        let mut full = (body.len() as u32).to_le_bytes().to_vec();
        full.extend_from_slice(body);
        full
    };

    let mut good = TcpStream::connect(addr).unwrap();
    good.set_nodelay(true).unwrap();
    good.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut rpc = |body: &[u8]| -> Response {
        write_frame(&mut good, body).unwrap();
        let rsp = read_frame(&mut good)
            .unwrap()
            .expect("server closed the retry conn");
        Response::decode(&rsp).unwrap()
    };

    let mut oracle = server_spec().build_bank().unwrap().remove(0);
    let reference_len = frame_for(&body_for(1)).len();

    // (5a) Sever the numbered frame at every offset — the server never
    // sees a complete request, so nothing is applied — then retry the
    // same (client, req_seq) whole. Exactly one application each.
    for cut in 1..reference_len {
        let req_seq = cut as u64;
        let body = body_for(req_seq);
        let full = frame_for(&body);
        let sever = cut.min(full.len() - 1);
        let mut doomed = TcpStream::connect(addr).unwrap();
        let _ = doomed.write_all(&full[..sever]);
        drop(doomed);

        match rpc(&body) {
            Response::Ingested { accepted } => assert_eq!(accepted, 40, "sever at {cut}"),
            other => panic!("retry after sever at {cut} answered {other:?}"),
        }
        use hh_core::StreamSummary as _;
        oracle.insert_batch(&items);
    }

    // (5b) Applied but unacked: the full frame lands on its own
    // connection, which dies with the ack unused. The retry must dedup —
    // answered from the table with the original accepted count, not
    // re-applied. The original is driven to its answer before the retry
    // is sent, and resent while the acceptor refuses it at
    // `max_connections`, so the retry always finds it applied and
    // `dedup_hits` measures the server, not the scheduler.
    let apply_original = |full: &[u8], k: u64| {
        for _ in 0..100 {
            let mut drive = TcpStream::connect(addr).unwrap();
            drive
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let _ = drive.write_all(full);
            // A refused connection can be reset before its RetryAfter
            // frame is read: no frame at all is a refusal too.
            match read_frame(&mut drive) {
                Ok(Some(rsp)) => match Response::decode(&rsp).unwrap() {
                    Response::Ingested { accepted } => {
                        assert_eq!(accepted, 40, "original {k}");
                        return;
                    }
                    Response::RetryAfter { millis } => {
                        std::thread::sleep(Duration::from_millis(millis));
                    }
                    other => panic!("original {k} answered {other:?}"),
                },
                Ok(None) | Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        panic!("original {k} was refused 100 times");
    };
    for k in 0..5u64 {
        let req_seq = 1_000_000 + k;
        let body = body_for(req_seq);
        apply_original(&frame_for(&body), k);

        match rpc(&body) {
            Response::Ingested { accepted } => assert_eq!(accepted, 40, "unacked retry {k}"),
            other => panic!("unacked retry {k} answered {other:?}"),
        }
        use hh_core::StreamSummary as _;
        oracle.insert_batch(&items);
    }

    // A fresh connection: one opened before (5a) would have sat idle
    // past `ConnLimits::fast`'s idle limit and been reaped.
    let mut client = Client::connect_tcp(addr).unwrap();
    use hh_core::MergeableSummary as _;
    let served = client.snapshot("exact").unwrap();
    assert_eq!(
        served,
        oracle.to_bytes(),
        "retries lost or double-applied a batch"
    );
    assert!(
        client.health().unwrap().dedup_hits >= 5,
        "applied-but-unacked retries must be served from the dedup table"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// 6. Compaction never drops uncovered records.
// ---------------------------------------------------------------------------

#[test]
fn compaction_never_drops_records_past_the_checkpoint_cover() {
    const RECORDS: u64 = 100;
    const COVERED: u64 = 37;
    let dir = tmp("compact");
    let config = WalConfig {
        dir: dir.clone(),
        segment_bytes: 256,
    };
    let (wal, _) = Wal::open(config.clone(), 1).unwrap();
    for seq in 1..=RECORDS {
        wal.append(&pat(seq, (seq % 23) as usize + 5)).unwrap();
    }
    wal.commit(RECORDS).unwrap();
    let before = wal.stats().segments;
    assert!(
        before >= 4,
        "tiny segments should have rotated, got {before}"
    );

    // Nothing covered, nothing retired.
    assert_eq!(wal.compact(0).unwrap(), 0);

    // Cover a prefix: only segments that lie entirely at or below the
    // cover may go; the one straddling it must survive whole.
    let removed = wal.compact(COVERED).unwrap();
    assert!(
        removed >= 1,
        "a covered prefix across rotations must retire segments"
    );
    assert_eq!(wal.stats().compacted_segments, removed);
    drop(wal);

    let replay = replay_dir(&dir).unwrap();
    let first = replay.records.first().map(|r| r.seq).unwrap();
    assert!(
        first <= COVERED + 1,
        "compaction dropped uncovered seq {} (cover was {COVERED})",
        first
    );
    let mut expect = first;
    for rec in &replay.records {
        assert_eq!(rec.seq, expect, "replay gap after compaction");
        assert_eq!(
            rec.payload,
            pat(rec.seq, (rec.seq % 23) as usize + 5),
            "payload of seq {} damaged by compaction",
            rec.seq
        );
        expect += 1;
    }
    assert_eq!(expect - 1, RECORDS, "records past the cover went missing");

    // The compacted log is still a valid log: it opens and appends.
    let (wal, opened) = Wal::open(config, 1).unwrap();
    assert_eq!(opened.records.len(), replay.records.len());
    assert_eq!(wal.append(b"life goes on").unwrap(), RECORDS + 1);
    wal.commit(RECORDS + 1).unwrap();
    drop(wal);

    let _ = std::fs::remove_dir_all(&dir);
}
