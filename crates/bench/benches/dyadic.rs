//! BENCH_9 group: `dyadic` — the hierarchical range-query bank.
//!
//! A `DyadicHh` bank multiplies every cost by the level count (L = 16
//! here: a 16-bit key space keeps the trajectory workload affordable),
//! so this group pins the four prices a caller pays: ingestion (one
//! update per level per item), the heavy-prefix descent (warm = the
//! cached configured-φ forest, cold = a stricter φ that re-descends),
//! the canonical range decomposition (≤ 2L point estimates for a
//! worst-case interval), and the bank-wide merge and snapshot paths
//! that make it a first-class mergeable summary.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use hh_core::{MergeableSummary, StreamSummary};
use hh_dyadic::DyadicHh;
use std::hint::black_box;
use std::time::Duration;

const M: usize = 1 << 17;
const N: u64 = 1 << 16;
const EPS: f64 = 0.05;
const PHI: f64 = 0.2;
const DELTA: f64 = 0.1;

fn bench_dyadic(c: &mut Criterion) {
    let data = hh_bench::zipf_stream(M, N, 1.2, 21);
    let mut g = c.benchmark_group("dyadic");

    // Ingestion: the L-fold update cost, via the batched kernel.
    let empty_cm = DyadicHh::count_min(EPS, PHI, DELTA, N, 31).unwrap();
    g.throughput(Throughput::Elements(M as u64));
    g.bench_function("count_min_ingest_batch", |b| {
        b.iter_batched(
            || empty_cm.clone(),
            |mut bank| {
                bank.insert_batch(black_box(&data));
                bank
            },
            BatchSize::LargeInput,
        )
    });

    let mut cm = empty_cm.clone();
    cm.insert_batch(&data);

    // Heavy-prefix forest: warm hits the per-bank QueryCache, cold uses
    // a stricter φ and re-runs the pruned descent every call.
    g.throughput(Throughput::Elements(1));
    g.bench_function("count_min_heavy_ranges_warm", |b| {
        b.iter(|| black_box(cm.heavy_ranges(PHI)))
    });
    g.bench_function("count_min_heavy_ranges_cold", |b| {
        b.iter(|| black_box(cm.heavy_ranges(PHI * 1.25)))
    });

    // Worst-case interval: both endpoints interior, so the canonical
    // decomposition needs nodes at (almost) every level twice.
    g.bench_function("count_min_range_estimate", |b| {
        b.iter(|| black_box(cm.range_estimate(black_box(1), black_box(N - 2))))
    });

    // Merge and snapshot: L level merges / L tagged level buffers.
    let halves = hh_dyadic::seed_aligned_count_min(EPS, PHI, DELTA, N, 2, 31).unwrap();
    let (mut left, mut right) = {
        let mut it = halves.into_iter();
        (it.next().unwrap(), it.next().unwrap())
    };
    let (lo, hi) = data.split_at(M / 2);
    left.insert_batch(lo);
    right.insert_batch(hi);
    g.bench_function("count_min_merge_pair", |b| {
        b.iter_batched(
            || left.clone(),
            |mut acc| {
                acc.merge_from(black_box(&right)).unwrap();
                acc
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("count_min_snapshot_roundtrip", |b| {
        b.iter(|| {
            let bytes = black_box(&cm).to_bytes();
            DyadicHh::from_bytes(black_box(&bytes)).unwrap()
        })
    });
    g.finish();
}

fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_dyadic
}
criterion_main!(benches);
