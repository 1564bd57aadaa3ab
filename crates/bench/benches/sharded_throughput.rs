//! Sharded throughput: whole-stream ingestion through
//! `hh_pipeline::partition_and_merge` at 1, 2, and 4 shards for both of
//! the paper's algorithms.
//!
//! Each shard is one part of a seed-aligned bank and ingests one
//! positional chunk of the stream (batch path, full advertised length,
//! so the sampled work of the whole bank equals one unsharded run split
//! across shards); the timed work is the shard runtime's dispatch (in
//! `IngestMode::Auto`, so a single-core host ingests inline — see the
//! `thread_scaling` group for the mode forced both ways) plus the
//! merge. Shard scaling is bounded by the cores the host actually
//! exposes — on a single-core container the 2- and 4-shard rates
//! collapse onto the 1-shard rate plus merge overhead (the recorded
//! BENCH_N carries the host's core count as `_meta/host_cores` for
//! exactly this reason).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hh_core::HhParams;
use hh_pipeline::{partition_and_merge, seed_aligned_algo1, seed_aligned_algo2};
use std::hint::black_box;
use std::time::Duration;

const M: usize = 1 << 21;
const N: u64 = 1 << 32;
const EPS: f64 = 0.05;
const PHI: f64 = 0.2;
const DELTA: f64 = 0.1;

fn stream() -> Vec<u64> {
    hh_bench::zipf_stream(M, N, 1.2, 7)
}

fn bench_sharded(c: &mut Criterion) {
    let data = stream();
    let params = HhParams::with_delta(EPS, PHI, DELTA).unwrap();
    let mut g = c.benchmark_group("sharded_throughput");
    g.throughput(Throughput::Elements(M as u64));

    for shards in [1usize, 2, 4] {
        g.bench_function(format!("algo2_shards{shards}"), |b| {
            b.iter(|| {
                let bank = seed_aligned_algo2(params, N, M as u64, shards, 2).unwrap();
                partition_and_merge(bank, black_box(&data)).unwrap()
            })
        });
    }
    for shards in [1usize, 4] {
        g.bench_function(format!("algo1_shards{shards}"), |b| {
            b.iter(|| {
                let bank = seed_aligned_algo1(params, N, M as u64, shards, 1).unwrap();
                partition_and_merge(bank, black_box(&data)).unwrap()
            })
        });
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
    targets = bench_sharded
}
criterion_main!(benches);
