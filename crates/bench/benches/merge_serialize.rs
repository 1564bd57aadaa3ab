//! BENCH_4 groups: `merge` and `serialize` — the cost of the
//! mergeability + persistence subsystem (PR 4).
//!
//! `merge` measures folding one summary of half the fixed Zipf workload
//! into another (the combiner step of a distributed aggregation or a
//! window rotation); throughput is stated in elements covered by the
//! merged result. `serialize` measures a full snapshot round trip
//! (`to_bytes` then `from_bytes`) of a summary loaded with the whole
//! workload — the checkpoint/restore path.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use hh_baselines::{CountMin, CountSketch, LossyCounting, MisraGriesBaseline, SpaceSaving};
use hh_core::{HhParams, MergeableSummary, OptimalListHh, SimpleListHh, StreamSummary};
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

/// Builds a seed-aligned pair, each loaded with one half of the stream.
fn loaded_pair<S: StreamSummary>(data: &[u64], make: impl Fn(u64) -> S) -> (S, S) {
    let (left, right) = data.split_at(data.len() / 2);
    let mut a = make(1);
    a.insert_batch(left);
    let mut b = make(2);
    b.insert_batch(right);
    (a, b)
}

fn bench_merge(c: &mut Criterion) {
    let data = stream();
    let params = HhParams::with_delta(EPS, PHI, DELTA).unwrap();
    let mut g = c.benchmark_group("merge");
    g.throughput(Throughput::Elements(M as u64));

    let (a1, b1) = loaded_pair(&data, |s| {
        SimpleListHh::with_seeds(params, N, M as u64, 9, s).unwrap()
    });
    g.bench_function("algo1_merge_pair", |b| {
        b.iter_batched(
            || a1.clone(),
            |mut acc| {
                acc.merge_from(black_box(&b1)).unwrap();
                acc
            },
            BatchSize::LargeInput,
        )
    });

    let (a2, b2) = loaded_pair(&data, |s| {
        OptimalListHh::with_seeds(params, N, M as u64, 9, s).unwrap()
    });
    g.bench_function("algo2_merge_pair", |b| {
        b.iter_batched(
            || a2.clone(),
            |mut acc| {
                acc.merge_from(black_box(&b2)).unwrap();
                acc
            },
            BatchSize::LargeInput,
        )
    });

    let (amg, bmg) = loaded_pair(&data, |_| MisraGriesBaseline::new(EPS, PHI, N));
    g.bench_function("misra_gries_merge_pair", |b| {
        b.iter_batched(
            || amg.clone(),
            |mut acc| {
                acc.merge_from(black_box(&bmg)).unwrap();
                acc
            },
            BatchSize::LargeInput,
        )
    });

    let (ass, bss) = loaded_pair(&data, |_| SpaceSaving::new(EPS, PHI, N));
    g.bench_function("space_saving_merge_pair", |b| {
        b.iter_batched(
            || ass.clone(),
            |mut acc| {
                acc.merge_from(black_box(&bss)).unwrap();
                acc
            },
            BatchSize::LargeInput,
        )
    });

    let (alc, blc) = loaded_pair(&data, |_| LossyCounting::new(EPS, PHI, N));
    g.bench_function("lossy_counting_merge_pair", |b| {
        b.iter_batched(
            || alc.clone(),
            |mut acc| {
                acc.merge_from(black_box(&blc)).unwrap();
                acc
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_serialize(c: &mut Criterion) {
    let data = stream();
    let params = HhParams::with_delta(EPS, PHI, DELTA).unwrap();
    let mut g = c.benchmark_group("serialize");

    let mut a1 = SimpleListHh::new(params, N, M as u64, 1).unwrap();
    a1.insert_batch(&data);
    g.bench_function("algo1_snapshot_roundtrip", |b| {
        b.iter(|| {
            let bytes = black_box(&a1).to_bytes();
            SimpleListHh::from_bytes(black_box(&bytes)).unwrap()
        })
    });

    let mut a2 = OptimalListHh::new(params, N, M as u64, 2).unwrap();
    a2.insert_batch(&data);
    g.bench_function("algo2_snapshot_roundtrip", |b| {
        b.iter(|| {
            let bytes = black_box(&a2).to_bytes();
            OptimalListHh::from_bytes(black_box(&bytes)).unwrap()
        })
    });

    let mut mg = MisraGriesBaseline::new(EPS, PHI, N);
    mg.insert_batch(&data);
    g.bench_function("misra_gries_snapshot_roundtrip", |b| {
        b.iter(|| {
            let bytes = black_box(&mg).to_bytes();
            MisraGriesBaseline::from_bytes(black_box(&bytes)).unwrap()
        })
    });

    let mut ss = SpaceSaving::new(EPS, PHI, N);
    ss.insert_batch(&data);
    g.bench_function("space_saving_snapshot_roundtrip", |b| {
        b.iter(|| {
            let bytes = black_box(&ss).to_bytes();
            SpaceSaving::from_bytes(black_box(&bytes)).unwrap()
        })
    });
    g.finish();
}

/// BENCH_7 group: `snapshot_decode` — the restore path alone, on
/// pre-built snapshot buffers. This is the path PR 7 hardened (tag
/// match, trailing-checksum verification, bounded length reads,
/// restore-time invariant checks), so it gets its own group: the
/// fail-closed codec must stay within the regression budget of the
/// trusting one it replaced. Throughput is stated in snapshot bytes.
fn bench_snapshot_decode(c: &mut Criterion) {
    let data = stream();
    let params = HhParams::with_delta(EPS, PHI, DELTA).unwrap();
    let mut g = c.benchmark_group("snapshot_decode");

    fn loaded_bytes<S: MergeableSummary>(data: &[u64], mut s: S) -> Vec<u8> {
        s.insert_batch(data);
        s.to_bytes()
    }

    let b1 = loaded_bytes(&data, SimpleListHh::new(params, N, M as u64, 1).unwrap());
    g.throughput(Throughput::Bytes(b1.len() as u64));
    g.bench_function("algo1_decode", |b| {
        b.iter(|| SimpleListHh::from_bytes(black_box(&b1)).unwrap())
    });

    let b2 = loaded_bytes(&data, OptimalListHh::new(params, N, M as u64, 2).unwrap());
    g.throughput(Throughput::Bytes(b2.len() as u64));
    g.bench_function("algo2_decode", |b| {
        b.iter(|| OptimalListHh::from_bytes(black_box(&b2)).unwrap())
    });

    let bmg = loaded_bytes(&data, MisraGriesBaseline::new(EPS, PHI, N));
    g.throughput(Throughput::Bytes(bmg.len() as u64));
    g.bench_function("misra_gries_decode", |b| {
        b.iter(|| MisraGriesBaseline::from_bytes(black_box(&bmg)).unwrap())
    });

    let bss = loaded_bytes(&data, SpaceSaving::new(EPS, PHI, N));
    g.throughput(Throughput::Bytes(bss.len() as u64));
    g.bench_function("space_saving_decode", |b| {
        b.iter(|| SpaceSaving::from_bytes(black_box(&bss)).unwrap())
    });

    let bcm = loaded_bytes(&data, CountMin::new(EPS, PHI, DELTA, N, 3));
    g.throughput(Throughput::Bytes(bcm.len() as u64));
    g.bench_function("count_min_decode", |b| {
        b.iter(|| CountMin::from_bytes(black_box(&bcm)).unwrap())
    });

    let bcs = loaded_bytes(&data, CountSketch::new(0.1, PHI, DELTA, N, 4));
    g.throughput(Throughput::Bytes(bcs.len() as u64));
    g.bench_function("count_sketch_decode", |b| {
        b.iter(|| CountSketch::from_bytes(black_box(&bcs)).unwrap())
    });

    let blc = loaded_bytes(&data, LossyCounting::new(EPS, PHI, N));
    g.throughput(Throughput::Bytes(blc.len() as u64));
    g.bench_function("lossy_counting_decode", |b| {
        b.iter(|| LossyCounting::from_bytes(black_box(&blc)).unwrap())
    });
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
    targets = bench_merge, bench_serialize, bench_snapshot_decode
}
criterion_main!(benches);
