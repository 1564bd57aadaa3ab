//! Scaling the workspace's summaries out: a persistent shard runtime
//! and partition-and-merge over seed-aligned banks.
//!
//! The workspace's summaries are single-threaded by construction (the
//! paper's model is one pass, one machine word at a time). This crate
//! scales them out one way: split the stream **by position** — any
//! chunking whatsoever — ingest each part into its own summary, and
//! combine the parts through [`MergeableSummary`]. This is the shape
//! distributed aggregation actually has (each ingest node summarizes
//! whatever traffic reached it, a combiner merges), and the shape
//! hh-server's N-shard tenants serve (DESIGN.md §7.2). Randomized
//! summaries must be **seed-aligned** for the merge: build them with
//! the [`seed_aligned_algo1`] / [`seed_aligned_algo2`] presets, which
//! share one *structure seed* (hash draws) across parts while giving
//! every part its own *stream seed* (sampling coins). See DESIGN.md
//! §"Mergeable summaries".
//!
//! * [`ShardRuntime`] drives a bank of summaries from persistent
//!   worker threads: threads are spawned once at construction, batches
//!   travel through bounded queues via [`ShardRuntime::dispatch_ref`],
//!   reads synchronize via a flush barrier, and worker panics
//!   propagate (or quarantine the shard; see [`FailurePolicy`]).
//!   Single-core hosts fall back to inline sequential ingestion — same
//!   state, no threads.
//! * [`partition_and_merge`] runs a whole stream through a runtime in
//!   one positional chunk per summary and merges the results.
//! * [`Frozen`] is the read-only serving view of any merged result.
//!
//! # Example
//!
//! ```
//! use hh_core::{HeavyHitters, HhParams, MergeableSummary};
//! use hh_pipeline::{seed_aligned_algo2, IngestMode, ShardRuntime};
//!
//! let params = HhParams::new(0.05, 0.2).unwrap();
//! let m = 200_000u64;
//! let bank = seed_aligned_algo2(params, 1 << 30, m, 4, 42).unwrap();
//! let mut rt = ShardRuntime::new(bank, IngestMode::Auto);
//! let stream: Vec<u64> = (0..m).map(|i| if i % 2 == 0 { 7 } else { i }).collect();
//! for (i, batch) in stream.chunks(8192).enumerate() {
//!     rt.dispatch_ref(i % rt.len(), batch); // any split works
//! }
//! // Merge on read: flush, then fold every part into a copy of the first.
//! rt.flush();
//! let mut merged = rt.with_summary(0, Clone::clone);
//! for j in 1..rt.len() {
//!     rt.with_summary(j, |part| merged.merge_from(part)).unwrap();
//! }
//! assert!(merged.report().contains(7)); // 50% item at phi = 20%
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runtime;

pub use runtime::{
    Backpressure, FailurePolicy, FlushError, IngestMode, RecoverError, RuntimeHealth, ShardRuntime,
};

use hh_core::{FrequencyEstimator, HeavyHitters, HhParams, OptimalListHh};
use hh_core::{MergeError, MergeableSummary, ParamError, Report};
use hh_core::{SimpleListHh, StreamSummary};
use hh_hash::mix64;

/// SplitMix64-derived stream seed for part `j` of a seed-aligned bank.
fn stream_seed(seed: u64, j: usize) -> u64 {
    mix64(mix64(seed ^ 0x57AE).wrapping_add(j as u64))
}

/// A bank of **seed-aligned** Algorithm 1 instances for merge-based
/// pipelines: every part draws its hash from the same structure seed
/// (so the summaries are merge-compatible) and its sampling coins from
/// a per-part stream seed (so parts sample independently). Parts
/// advertise the full stream length `m`, keeping the unsharded rate.
pub fn seed_aligned_algo1(
    params: HhParams,
    universe: u64,
    m: u64,
    parts: usize,
    seed: u64,
) -> Result<Vec<SimpleListHh>, ParamError> {
    (0..parts)
        .map(|j| SimpleListHh::with_seeds(params, universe, m, mix64(seed), stream_seed(seed, j)))
        .collect()
}

/// A bank of seed-aligned Algorithm 2 instances; see
/// [`seed_aligned_algo1`] for the seeding conventions. All parts share
/// their `R` repetition hashes, which is exactly the precondition for
/// the bucket-wise [`MergeableSummary::merge_from`] of `OptimalListHh`.
pub fn seed_aligned_algo2(
    params: HhParams,
    universe: u64,
    m: u64,
    parts: usize,
    seed: u64,
) -> Result<Vec<OptimalListHh>, ParamError> {
    (0..parts)
        .map(|j| OptimalListHh::with_seeds(params, universe, m, mix64(seed), stream_seed(seed, j)))
        .collect()
}

/// Splits `stream` into one positional chunk per summary, ingests the
/// chunks concurrently on a [`ShardRuntime`] worker bank (inline on the
/// single-core fallback — no thread is ever spawned that the host
/// cannot use), and merges the results left to right. Trailing
/// summaries get no chunk when the stream is shorter than the bank.
/// This is the whole-stream form of the served path (dispatch per
/// part, merge on read): the partition is arbitrary (chunks here; any
/// split works), so it models distributed ingestion where each node
/// summarizes whatever reached it.
///
/// # Errors
/// [`MergeError`] if the summaries are not merge-compatible (randomized
/// summaries must be seed-aligned; use the `seed_aligned_*` presets).
///
/// # Panics
/// If `summaries` is empty.
///
/// # Example
///
/// ```
/// use hh_core::{HeavyHitters, HhParams};
/// use hh_pipeline::{partition_and_merge, seed_aligned_algo2};
///
/// let m = 200_000u64;
/// let stream: Vec<u64> = (0..m).map(|i| if i % 2 == 0 { 7 } else { i }).collect();
/// let params = HhParams::new(0.05, 0.2).unwrap();
/// let parts = seed_aligned_algo2(params, 1 << 30, m, 4, 42).unwrap();
/// let merged = partition_and_merge(parts, &stream).unwrap();
/// assert!(merged.report().contains(7)); // 50% item at phi = 20%
/// ```
pub fn partition_and_merge<S>(summaries: Vec<S>, stream: &[u64]) -> Result<S, MergeError>
where
    S: StreamSummary + MergeableSummary + Send + 'static,
{
    assert!(!summaries.is_empty(), "need at least one part");
    let chunk = stream.len().div_ceil(summaries.len()).max(1);
    let mut rt = ShardRuntime::new(summaries, IngestMode::Auto);
    for (j, part) in stream.chunks(chunk).enumerate() {
        rt.dispatch_ref(j, part);
    }
    // `into_summaries` joins the workers, which drains every queue — an
    // implicit flush — and propagates any worker panic.
    let mut parts = rt.into_summaries();
    let mut acc = parts.remove(0);
    for s in &parts {
        acc.merge_from(s)?;
    }
    Ok(acc)
}

/// An immutable, query-optimized view of a summary for serving.
///
/// Freezing materializes the report once; afterwards [`Frozen::report`]
/// hands out a **borrow** of it — no clone, no lock, no rescan — and
/// point queries go to the (warm, never-again-invalidated) summary.
/// `Frozen` is the read-mostly serving shape: build one per checkpoint,
/// share it behind an `Arc` across however many query threads the
/// service runs, and drop it when the next one is ready. Built by
/// [`Frozen::new`] from any summary (a [`partition_and_merge`] result,
/// a merged bank).
#[derive(Debug, Clone)]
pub struct Frozen<S> {
    summary: S,
    report: Report,
}

impl<S: HeavyHitters> Frozen<S> {
    /// Freezes a summary: runs (and stores) its report eagerly, so every
    /// subsequent read is allocation-free.
    pub fn new(summary: S) -> Self {
        let report = summary.report();
        Self { summary, report }
    }

    /// The materialized report, by reference.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// The frozen summary (read-only).
    pub fn summary(&self) -> &S {
        &self.summary
    }

    /// Unfreezes, returning the summary (e.g. to resume ingestion).
    pub fn into_inner(self) -> S {
        self.summary
    }
}

impl<S: FrequencyEstimator> Frozen<S> {
    /// Point query against the frozen summary.
    pub fn estimate(&self, item: u64) -> f64 {
        self.summary.estimate(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_baselines::MisraGriesBaseline;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn planted(m: u64, heavy: &[(u64, f64)], seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream = Vec::with_capacity(m as usize);
        for &(id, frac) in heavy {
            stream.extend(std::iter::repeat_n(id, (frac * m as f64) as usize));
        }
        while stream.len() < m as usize {
            stream.push(1_000_000 + rng.gen_range(0..4096u64));
        }
        use rand::seq::SliceRandom;
        stream.shuffle(&mut rng);
        stream
    }

    #[test]
    fn single_shard_pipeline_equals_direct_summary() {
        let stream = planted(50_000, &[(7, 0.4)], 1);
        let mut rt = ShardRuntime::new(
            vec![MisraGriesBaseline::new(0.05, 0.2, 1 << 21)],
            IngestMode::Auto,
        );
        for chunk in stream.chunks(4096) {
            rt.dispatch_ref(0, chunk);
        }
        let mut direct = MisraGriesBaseline::new(0.05, 0.2, 1 << 21);
        direct.insert_all(&stream);
        let shard = rt.into_summaries().remove(0);
        for probe in [7u64, 1_000_001, 1_002_222] {
            assert_eq!(shard.estimate(probe), direct.estimate(probe));
        }
    }

    #[test]
    fn algo2_preset_reports_planted_heavy_hitters() {
        // The served shape: batches dispatched round-robin over a
        // seed-aligned bank, merged on read while the runtime stays live.
        let m = 400_000u64;
        let stream = planted(m, &[(7, 0.30), (8, 0.16)], 4);
        let params = HhParams::with_delta(0.05, 0.1, 0.1).unwrap();
        let bank = seed_aligned_algo2(params, 1 << 40, m, 4, 99).unwrap();
        let mut rt = ShardRuntime::new(bank, IngestMode::Auto);
        for (i, chunk) in stream.chunks(16 * 1024).enumerate() {
            rt.dispatch_ref(i % rt.len(), chunk);
        }
        rt.flush();
        let mut merged = rt.with_summary(0, OptimalListHh::clone);
        for j in 1..rt.len() {
            rt.with_summary(j, |part| merged.merge_from(part)).unwrap();
        }
        let r = merged.report();
        for (item, frac) in [(7u64, 0.30), (8, 0.16)] {
            assert!(r.contains(item), "missing heavy item {item}");
            let est = r.estimate(item).unwrap();
            assert!(
                (est - frac * m as f64).abs() <= 0.05 * m as f64,
                "item {item}: est {est}"
            );
        }
    }

    #[test]
    fn algo1_preset_reports_planted_heavy_hitters() {
        let m = 300_000u64;
        let stream = planted(m, &[(7, 0.30)], 5);
        let params = HhParams::with_delta(0.04, 0.12, 0.1).unwrap();
        let bank = seed_aligned_algo1(params, 1 << 40, m, 2, 17).unwrap();
        let merged = partition_and_merge(bank, &stream).unwrap();
        assert!(merged.report().contains(7));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardRuntime::new(Vec::<MisraGriesBaseline>::new(), IngestMode::Auto);
    }

    #[test]
    fn partition_and_merge_matches_definition_one() {
        let m = 400_000u64;
        let stream = planted(m, &[(7, 0.30), (8, 0.16)], 11);
        let params = HhParams::with_delta(0.05, 0.1, 0.1).unwrap();
        for parts in [1usize, 2, 5] {
            let bank = seed_aligned_algo2(params, 1 << 40, m, parts, 77).unwrap();
            let merged = partition_and_merge(bank, &stream).unwrap();
            let r = merged.report();
            for (item, frac) in [(7u64, 0.30), (8, 0.16)] {
                assert!(r.contains(item), "{parts} parts: missing {item}");
                let est = r.estimate(item).unwrap();
                assert!(
                    (est - frac * m as f64).abs() <= 0.05 * m as f64,
                    "{parts} parts: item {item} est {est}"
                );
            }
        }
    }

    #[test]
    fn partition_and_merge_handles_empty_and_short_streams() {
        // An empty stream leaves every part empty; a stream shorter than
        // the part count gives the trailing parts no chunk at all. Either
        // way the merge must equal one summary over the same stream.
        let make = || MisraGriesBaseline::new(0.05, 0.2, 1 << 20);
        for stream in [&[][..], &[5, 9, 5][..]] {
            let merged = partition_and_merge((0..5).map(|_| make()).collect(), stream).unwrap();
            let mut single = make();
            single.insert_all(stream);
            assert_eq!(merged.report(), single.report(), "stream {stream:?}");
            for probe in [5u64, 9, 11] {
                assert_eq!(merged.estimate(probe), single.estimate(probe));
            }
        }
    }

    #[test]
    fn partition_and_merge_rejects_misaligned_banks() {
        let params = HhParams::new(0.05, 0.2).unwrap();
        let a = hh_core::OptimalListHh::with_seeds(params, 1 << 20, 10_000, 1, 1).unwrap();
        let b = hh_core::OptimalListHh::with_seeds(params, 1 << 20, 10_000, 2, 2).unwrap();
        let stream: Vec<u64> = (0..10_000).collect();
        assert!(partition_and_merge(vec![a, b], &stream).is_err());
    }

    #[test]
    fn sequential_fallback_matches_direct_shard_state() {
        // Whatever ingestion mode the host picks (this CI box may have
        // any core count), the per-shard state must equal driving each
        // shard's insert_batch directly with the batches it was sent.
        let stream = planted(40_000, &[(7, 0.4)], 8);
        let make = || MisraGriesBaseline::new(0.05, 0.2, 1 << 21);
        let mut rt = ShardRuntime::new((0..4).map(|_| make()).collect(), IngestMode::Auto);
        let mut direct: Vec<MisraGriesBaseline> = (0..4).map(|_| make()).collect();
        for (i, chunk) in stream.chunks(4096).enumerate() {
            rt.dispatch_ref(i % 4, chunk);
            direct[i % 4].insert_batch(chunk);
        }
        rt.flush();
        for (j, direct) in direct.iter().enumerate() {
            assert_eq!(
                rt.with_summary(j, |s| s.report()),
                direct.report(),
                "shard {j} diverged"
            );
        }
    }

    #[test]
    fn frozen_view_serves_borrowed_reports_and_estimates() {
        let m = 150_000u64;
        let stream = planted(m, &[(7, 0.4), (8, 0.2)], 15);
        let params = HhParams::with_delta(0.05, 0.15, 0.1).unwrap();
        let bank = seed_aligned_algo2(params, 1 << 40, m, 2, 9).unwrap();
        let merged = partition_and_merge(bank, &stream).unwrap();
        let frozen = Frozen::new(merged.clone());
        // Borrowed report, identical to the summary's own.
        assert_eq!(frozen.report().entries(), merged.report().entries());
        assert!(frozen.report().contains(7));
        // Point queries agree with the underlying summary.
        for probe in [7u64, 8, 999_999] {
            assert_eq!(frozen.estimate(probe), merged.estimate(probe));
        }
        // The view is freely cloneable/shareable and unfreezes.
        let again = frozen.clone();
        let inner = again.into_inner();
        assert_eq!(inner.report().entries(), frozen.report().entries());
    }
}
