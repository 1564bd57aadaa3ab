//! Thread scaling of the persistent shard runtime: whole-stream
//! ingestion through `ShardRuntime` over a seed-aligned Algorithm 2 bank
//! at 1, 2, and 4 shards (batches dispatched round-robin, merged on
//! read), with the ingest mode **forced** both ways so the two execution
//! paths are measured on every host:
//!
//! * `seq_*` — `IngestMode::Sequential`: inline per-shard
//!   `insert_batch` on the calling thread. This is the single-core
//!   baseline and what `Auto` picks on a 1-vCPU box.
//! * `par_*` — `IngestMode::Parallel`: persistent workers behind
//!   bounded queues. On a multi-core host this is where shard scaling
//!   shows up; on a single core it isolates the queue hand-off tax the
//!   runtime pays for its pipelining (workers and dispatcher time-slice
//!   one core, so `par` can only lose there — by design the loss is the
//!   copy + channel cost, not thread spawning, which happens once).
//!
//! Per-core efficiency is `seq_shards1` rate divided by
//! (`par_shardsK` rate × recorded `host_cores`); the README trajectory
//! table narrates it. The group records the host's core count as
//! `_meta/host_cores` in `CRITERION_JSON`, and `bench_compare` refuses
//! to rate this group (and `sharded_throughput`) against a baseline
//! recorded on a host with a different core count — shard-scaling
//! ratios measured on different hardware are not comparable.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hh_core::{HeavyHitters, HhParams, MergeableSummary, OptimalListHh, Report};
use hh_pipeline::{seed_aligned_algo2, IngestMode, ShardRuntime};
use std::hint::black_box;
use std::time::Duration;

const M: usize = 1 << 21;
const N: u64 = 1 << 32;
const EPS: f64 = 0.05;
const PHI: f64 = 0.2;
const DELTA: f64 = 0.1;
const BATCH: usize = 1 << 16;

/// Dispatches `data` round-robin in `BATCH`-item batches over a fresh
/// `shards`-part bank in `mode`, then merges on read and reports.
fn ingest_and_report(data: &[u64], shards: usize, mode: IngestMode) -> Report {
    let params = HhParams::with_delta(EPS, PHI, DELTA).unwrap();
    let bank = seed_aligned_algo2(params, N, M as u64, shards, 0x5CA1E).unwrap();
    let mut rt = ShardRuntime::new(bank, mode);
    for (i, chunk) in data.chunks(BATCH).enumerate() {
        rt.dispatch_ref(i % shards, chunk);
    }
    // Total time includes the drain: scaling claims must count
    // queued-but-unprocessed work.
    rt.flush();
    let mut merged = rt.with_summary(0, OptimalListHh::clone);
    for j in 1..shards {
        rt.with_summary(j, |part| merged.merge_from(part)).unwrap();
    }
    merged.report()
}

fn bench_thread_scaling(c: &mut Criterion) {
    c.record_metadata(
        "host_cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    let data = hh_bench::zipf_stream(M, N, 1.2, 7);
    let mut g = c.benchmark_group("thread_scaling");
    g.throughput(Throughput::Elements(M as u64));

    for (mode, tag) in [
        (IngestMode::Sequential, "seq"),
        (IngestMode::Parallel, "par"),
    ] {
        for shards in [1usize, 2, 4] {
            g.bench_function(format!("algo2_{tag}_shards{shards}"), |b| {
                b.iter(|| ingest_and_report(black_box(&data), shards, mode))
            });
        }
    }
    g.finish();
}

fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_thread_scaling
}
criterion_main!(benches);
