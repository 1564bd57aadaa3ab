//! Property suite for the persistent shard runtime: `IngestMode::Parallel`
//! (one worker thread per shard, bounded queues) and
//! `IngestMode::Sequential` (inline fallback, no threads) must be
//! **bit-identical** — same per-shard reports, same point estimates, and
//! the same mid-stream reads at every flush point — for every summary in
//! the workspace, across random shard counts, batch sizes, and flush
//! schedules.
//!
//! This is the contract that makes the single-core fallback safe: a
//! 1-vCPU host silently downgrades `Auto` to `Sequential`, and nothing
//! observable may change. Note the converse also holds on this suite's
//! own host — `Parallel` is *forced*, so the worker path (queue
//! hand-off, buffer recycling, flush barriers, shutdown drain) is
//! genuinely exercised even when `Auto` would have picked `Sequential`.
//!
//! The directed tests at the bottom pin down the failure mode: a worker
//! that panics mid-batch must surface its payload on the ingest thread
//! (via dispatch, flush, or shutdown) rather than deadlock or silently
//! drop data.

use hh_baselines::{
    CountMin, CountSketch, LossyCounting, MisraGriesBaseline, SpaceSaving, StickySampling,
};
use hh_core::{FrequencyEstimator, HeavyHitters, HhParams, OptimalListHh, SimpleListHh};
use hh_core::{Report, StreamSummary};
use hh_dyadic::DyadicHh;
use hh_pipeline::{IngestMode, ShardRuntime};
use hh_streams::{collect_stream, ZipfGenerator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const M: usize = 40_000;
const N: u64 = 1 << 32;
const EPS: f64 = 0.05;
const PHI: f64 = 0.2;
const DELTA: f64 = 0.1;

/// A Zipf stream plus probe ids: the two top (scrambled) ranks, a tail
/// id, and an absent id.
fn workload(seed: u64) -> (Vec<u64>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = ZipfGenerator::new(N, 1.2).scrambled(&mut rng);
    let stream = collect_stream(&mut gen, M, &mut rng);
    let probes = vec![
        gen.id_of_rank(1),
        gen.id_of_rank(2),
        gen.id_of_rank(1000),
        stream.iter().max().unwrap() + 1,
    ];
    (stream, probes)
}

/// Feeds `stream` round-robin through a runtime in the given mode,
/// flushing (and reading every shard) every `flush_every` dispatches,
/// then shuts the runtime down and returns the summaries plus the
/// mid-stream reports in order.
fn drive<S>(
    summaries: Vec<S>,
    mode: IngestMode,
    stream: &[u64],
    batch: usize,
    flush_every: usize,
) -> (Vec<S>, Vec<Report>)
where
    S: StreamSummary + HeavyHitters + Send + 'static,
{
    let shards = summaries.len();
    let mut rt = ShardRuntime::new(summaries, mode);
    let mut mid = Vec::new();
    for (i, part) in stream.chunks(batch.max(1)).enumerate() {
        rt.dispatch_ref(i % shards, part);
        if flush_every > 0 && (i + 1) % flush_every == 0 {
            // Read-under-ingest: a flush barrier then a full sweep of
            // per-shard reports, which must match across modes too.
            rt.flush();
            mid.extend(rt.map_summaries(HeavyHitters::report));
        }
    }
    (rt.into_summaries(), mid)
}

/// Runs the same dispatch schedule under `Sequential` and (forced)
/// `Parallel` and asserts the outcomes are indistinguishable.
fn assert_modes_agree<S, F>(
    make: F,
    stream: &[u64],
    shards: usize,
    batch: usize,
    flush_every: usize,
    probes: &[u64],
) where
    S: StreamSummary + HeavyHitters + FrequencyEstimator + Send + 'static,
    F: Fn() -> S,
{
    let mk = || (0..shards).map(|_| make()).collect::<Vec<S>>();
    let (seq, seq_mid) = drive(mk(), IngestMode::Sequential, stream, batch, flush_every);
    let (par, par_mid) = drive(mk(), IngestMode::Parallel, stream, batch, flush_every);
    assert_eq!(seq_mid, par_mid, "mid-stream flush-point reports diverge");
    for (j, (a, b)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(a.report(), b.report(), "shard {j}: final reports diverge");
        for &p in probes {
            assert_eq!(a.estimate(p), b.estimate(p), "shard {j}: estimate({p})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn all_point_summaries_parallel_equals_sequential(
        seed in 0u64..1 << 32,
        shards in 1usize..5,
        batch in 1usize..8192,
        flush_every in 0usize..8,
    ) {
        let (stream, probes) = workload(seed);
        let params = HhParams::with_delta(EPS, PHI, DELTA).unwrap();

        assert_modes_agree(
            || SimpleListHh::new(params, N, M as u64, seed).unwrap(),
            &stream, shards, batch, flush_every, &probes,
        );
        assert_modes_agree(
            || OptimalListHh::new(params, N, M as u64, seed).unwrap(),
            &stream, shards, batch, flush_every, &probes,
        );
        assert_modes_agree(
            || MisraGriesBaseline::new(EPS, PHI, N),
            &stream, shards, batch, flush_every, &probes,
        );
        assert_modes_agree(
            || SpaceSaving::new(EPS, PHI, N),
            &stream, shards, batch, flush_every, &probes,
        );
        assert_modes_agree(
            || LossyCounting::new(EPS, PHI, N),
            &stream, shards, batch, flush_every, &probes,
        );
        assert_modes_agree(
            || StickySampling::new(EPS, PHI, DELTA, N, seed),
            &stream, shards, batch, flush_every, &probes,
        );
        assert_modes_agree(
            || CountMin::new(EPS, PHI, DELTA, N, seed),
            &stream, shards, batch, flush_every, &probes,
        );
        assert_modes_agree(
            || CountSketch::new(EPS, PHI, DELTA, N, seed),
            &stream, shards, batch, flush_every, &probes,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn dyadic_banks_parallel_equals_sequential(
        seed in 0u64..1 << 32,
        shards in 1usize..4,
        batch in 1usize..4096,
        flush_every in 0usize..6,
    ) {
        // The dyadic bank, folded into a 16-bit key space so the
        // 16-level bank stays affordable at proptest scale. Coarser ε
        // than the point summaries: the bank splits it across levels.
        let (stream, probes) = workload(seed);
        let stream: Vec<u64> = stream.iter().map(|&x| x & 0xFFFF).collect();
        let probes: Vec<u64> = probes.iter().map(|&x| x & 0xFFFF).collect();
        assert_modes_agree(
            || DyadicHh::count_min(0.1, PHI, DELTA, 1 << 16, seed).unwrap(),
            &stream, shards, batch, flush_every, &probes,
        );
    }
}

/// The sentinel that makes a [`Bomb`] worker blow up mid-batch.
const MAGIC: u64 = 0xDEAD_BEEF;

/// A minimal summary whose `insert` panics on [`MAGIC`] — the directed
/// probe for worker-panic propagation.
#[derive(Debug, Default)]
struct Bomb {
    count: u64,
}

impl StreamSummary for Bomb {
    fn insert(&mut self, item: u64) {
        assert!(item != MAGIC, "bomb tripped");
        self.count += 1;
    }
}

#[test]
fn worker_panic_propagates_on_dispatch_and_shutdown() {
    // Forced Parallel: workers exist even on a single-core host, so the
    // propagation path is exercised everywhere this suite runs.
    let mut rt = ShardRuntime::new(vec![Bomb::default(), Bomb::default()], IngestMode::Parallel);
    assert!(rt.is_parallel());
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        rt.dispatch_ref(0, &[1, 2, MAGIC, 3]);
        // The bounded queue (not an unbounded buffer) guarantees the
        // ingest side observes the death in finitely many dispatches;
        // `into_summaries` joins and re-raises if none of them did.
        for _ in 0..64 {
            rt.dispatch_ref(0, &[1, 2, 3]);
        }
        drop(rt.into_summaries());
    }))
    .expect_err("worker panic must reach the ingest thread");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string payload>");
    assert!(msg.contains("bomb tripped"), "unexpected payload: {msg}");
}

#[test]
fn worker_panic_fails_flush_instead_of_deadlocking() {
    let mut rt = ShardRuntime::new(vec![Bomb::default()], IngestMode::Parallel);
    rt.dispatch_ref(0, &[MAGIC]);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        // FIFO ordering puts the flush job behind the fatal batch: the
        // worker dies first, the ack channel drops, and flush must
        // report that rather than wait forever.
        rt.flush();
    }))
    .expect_err("flush over a dead worker must fail loudly");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string payload>");
    assert!(
        msg.contains("shard worker panicked"),
        "unexpected payload: {msg}"
    );
}
