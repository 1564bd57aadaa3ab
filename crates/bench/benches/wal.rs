//! BENCH_10 group: `wal` — the write-ahead log's cost surface.
//!
//! PR 10 puts an `hh-wal` append + commit on every acked ingest, so the
//! durability tax deserves its own trajectory group: the gate watches
//! the log itself (not just the serving path it hides inside):
//!
//! * **append_commit_per_batch** — one 4 KiB record appended and
//!   committed (one inline fsync per ack): the price of power-loss
//!   durability on this host's disk.
//! * **replay_10k** — cold-start replay throughput over a 10 000-record
//!   multi-segment log: the recovery-time budget a crash incurs.
//! * **scan_segment_4mib** — the in-memory scan of one full 4 MiB
//!   segment of 32 KiB records (the serving path's ingest-record size)
//!   with a no-op visitor, in bytes: record parsing plus the trailer
//!   digest, with no filesystem in the loop.
//!
//! The log's share of an acked ingest over the wire is measured where
//! the rest of that round trip is: `serve_throughput/ingest_wire`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hh_wal::record::encode_record;
use hh_wal::segment::{encode_header, scan_segment};
use hh_wal::{record_disk_len, replay_dir, Wal, WalConfig};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Duration;

/// One ingest frame's order of magnitude (512 items).
const PAYLOAD: usize = 4096;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hh-wal-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_wal(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal");

    // --- The log itself: append + commit (one inline fsync). ---
    let payload = vec![0xA5u8; PAYLOAD];
    let dir = scratch("append_commit");
    let (wal, _) = Wal::open(
        WalConfig {
            dir: dir.clone(),
            segment_bytes: 64 << 20,
        },
        1,
    )
    .expect("open wal");
    g.throughput(Throughput::Bytes(PAYLOAD as u64));
    g.bench_function("append_commit_per_batch", |b| {
        b.iter(|| {
            let seq = wal.append(black_box(&payload)).expect("append");
            wal.commit(seq).expect("commit");
            black_box(seq)
        })
    });
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);

    // --- Cold-start replay over a multi-segment log. ---
    const RECORDS: u64 = 10_000;
    let dir = scratch("replay");
    {
        let (wal, _) = Wal::open(
            WalConfig {
                dir: dir.clone(),
                segment_bytes: 1 << 20,
            },
            1,
        )
        .expect("open wal");
        let rec = vec![0x5Au8; 512];
        for _ in 0..RECORDS {
            wal.append(&rec).expect("append");
        }
        wal.sync().expect("sync");
    }
    g.throughput(Throughput::Elements(RECORDS));
    g.bench_function("replay_10k", |b| {
        b.iter(|| {
            let replay = replay_dir(&dir).expect("replay");
            assert_eq!(replay.records.len() as u64, RECORDS);
            black_box(replay.segments)
        })
    });
    let _ = std::fs::remove_dir_all(&dir);

    // --- The scan alone: one full segment, already in memory. ---
    const SEGMENT: usize = 4 << 20;
    let rec = vec![0x3Cu8; 32 << 10];
    let mut segment = encode_header(1).to_vec();
    let mut records = 0u64;
    while segment.len() + record_disk_len(rec.len()) <= SEGMENT {
        records += 1;
        encode_record(records, &rec, &mut segment);
    }
    g.throughput(Throughput::Bytes(segment.len() as u64));
    g.bench_function("scan_segment_4mib", |b| {
        b.iter(|| {
            let scan = scan_segment(black_box(&segment), true, 1, |_, _| Ok(())).expect("scan");
            assert_eq!(scan.records, records);
            black_box(scan.valid_len)
        })
    });

    g.finish();
}

fn short() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_wal
}
criterion_main!(benches);
