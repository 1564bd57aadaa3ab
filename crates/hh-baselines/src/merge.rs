//! Merge-semantics tests for the mergeable baselines.
//!
//! Misra–Gries and Space-Saving summaries are *mergeable* (Agarwal,
//! Cormode, Huang, Phillips, Wei, Yi 2012): two summaries of capacity `k`
//! built on streams `A` and `B` combine into one capacity-`k` summary of
//! `A ⊎ B` with the same `(|A|+|B|)/(k+1)` error bound. The merge
//! implementations live with their summaries — [`crate::SpaceSaving`],
//! [`crate::MisraGriesBaseline`], [`crate::CountMin`],
//! [`crate::CountSketch`], and [`crate::LossyCounting`] all implement
//! [`hh_core::MergeableSummary`]. These tests summarize positional
//! chunks of one stream and check each merged result against the
//! union stream's guarantee. The parallel runner over the same contract
//! is `hh_pipeline::partition_and_merge`.

#[cfg(test)]
mod tests {
    use crate::misra_gries::MisraGriesBaseline;
    use crate::space_saving::SpaceSaving;
    use hh_core::{FrequencyEstimator, MergeableSummary, StreamSummary};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Summarizes `stream` in `parts` positional chunks, a fresh summary
    /// from `make()` per chunk, and folds `merge_from` over them left to
    /// right.
    fn merge_chunks<S, F>(stream: &[u64], parts: usize, make: F) -> S
    where
        S: StreamSummary + MergeableSummary,
        F: Fn() -> S,
    {
        let chunk = stream.len().div_ceil(parts).max(1);
        let mut summaries = stream.chunks(chunk).map(|c| {
            let mut s = make();
            s.insert_batch(c);
            s
        });
        let mut acc = summaries.next().expect("a non-empty stream");
        for s in summaries {
            acc.merge_from(&s).expect("parts must be merge-compatible");
        }
        acc
    }

    fn random_stream(m: usize, universe: u64, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|_| {
                if rng.gen_bool(0.25) {
                    7
                } else {
                    rng.gen_range(0..universe)
                }
            })
            .collect()
    }

    #[test]
    fn merged_misra_gries_keeps_error_bound() {
        let stream = random_stream(40_000, 500, 1);
        let merged = merge_chunks(&stream, 4, || MisraGriesBaseline::new(0.05, 0.2, 1 << 20));
        let bound = stream.len() as f64 * 0.05 / 2.0 + 1.0; // k = 2/ε
        for probe in [7u64, 0, 100, 499] {
            let truth = stream.iter().filter(|&&x| x == probe).count() as f64;
            let est = merged.estimate(probe);
            assert!(est <= truth, "probe {probe} overestimated");
            assert!(est + bound >= truth, "probe {probe} undercount too big");
        }
    }

    #[test]
    fn merged_space_saving_keeps_bounds() {
        let stream = random_stream(40_000, 500, 2);
        let merged = merge_chunks(&stream, 4, || SpaceSaving::with_capacity(64, 0.2, 1 << 20));
        let bound = 2.0 * stream.len() as f64 / 64.0;
        for (item, count, err) in merged.entries() {
            let truth = stream.iter().filter(|&&x| x == item).count() as f64;
            assert!(
                count as f64 + 1.0 >= truth,
                "item {item}: merged count {count} < truth {truth}"
            );
            assert!(
                (count - err) as f64 <= truth + bound,
                "item {item}: lower bound violated"
            );
        }
        // Heavy item must survive the merge.
        assert!(merged.entries().iter().any(|&(i, _, _)| i == 7));
    }

    #[test]
    fn single_shard_equals_sequential() {
        let stream = random_stream(10_000, 100, 3);
        let merged = merge_chunks(&stream, 1, || MisraGriesBaseline::new(0.1, 0.3, 1 << 10));
        let mut seq = MisraGriesBaseline::new(0.1, 0.3, 1 << 10);
        seq.insert_all(&stream);
        for probe in 0..100u64 {
            assert_eq!(merged.estimate(probe), seq.estimate(probe), "probe {probe}");
        }
    }

    #[test]
    fn many_shards_still_find_heavy_item() {
        let stream = random_stream(60_000, 2000, 4);
        let merged = merge_chunks(&stream, 8, || SpaceSaving::with_capacity(40, 0.2, 1 << 20));
        use hh_core::HeavyHitters;
        assert!(merged.report().contains(7));
    }

    #[test]
    fn merged_lossy_counting_keeps_undercount_bound() {
        use crate::lossy::LossyCounting;
        let stream = random_stream(50_000, 3000, 5);
        let eps = 0.02;
        let merged = merge_chunks(&stream, 4, || LossyCounting::new(eps, 0.1, 1 << 20));
        let m = stream.len() as f64;
        let truth = stream.iter().filter(|&&x| x == 7).count() as f64;
        let est = merged.estimate(7);
        assert!(est <= truth, "lossy merge must never overcount");
        // ε'(= ε/2) per part plus the untracked-bound slack of the merge.
        assert!(
            est + eps * m + 8.0 >= truth,
            "undercount too large: {est} vs {truth}"
        );
        use hh_core::HeavyHitters;
        assert!(merged.report().contains(7));
    }

    #[test]
    fn merged_count_min_never_undercounts() {
        use crate::count_min::CountMin;
        let stream = random_stream(40_000, 2000, 6);
        // Seed-aligned: every shard summary draws the same row hashes.
        let merged = merge_chunks(&stream, 4, || CountMin::new(0.02, 0.1, 0.05, 1 << 20, 77));
        let m = stream.len() as f64;
        for probe in [7u64, 0, 1000, 1999] {
            let truth = stream.iter().filter(|&&x| x == probe).count() as f64;
            let est = merged.estimate(probe);
            assert!(est >= truth, "probe {probe}: merged CM undercounts");
            assert!(est <= truth + 0.04 * m, "probe {probe}: overshoot {est}");
        }
        use hh_core::HeavyHitters;
        assert!(merged.report().contains(7));
    }

    #[test]
    fn merged_count_sketch_stays_accurate() {
        use crate::count_sketch::CountSketch;
        let stream = random_stream(40_000, 2000, 8);
        let merged = merge_chunks(&stream, 4, || CountSketch::new(0.1, 0.2, 0.1, 1 << 20, 88));
        let truth = stream.iter().filter(|&&x| x == 7).count() as f64;
        let est = merged.estimate(7);
        assert!(
            (est - truth).abs() <= 0.05 * stream.len() as f64,
            "merged CS estimate {est} vs {truth}"
        );
        use hh_core::HeavyHitters;
        assert!(merged.report().contains(7));
    }

    #[test]
    #[should_panic(expected = "merge-compatible")]
    fn differently_seeded_sketches_refuse_to_merge() {
        use crate::count_min::CountMin;
        use std::sync::atomic::{AtomicU64, Ordering};
        let stream = random_stream(10_000, 200, 9);
        let seed = AtomicU64::new(0);
        // A factory that (incorrectly) reseeds per shard.
        let _ = merge_chunks(&stream, 2, || {
            CountMin::new(0.05, 0.2, 0.1, 1 << 20, seed.fetch_add(1, Ordering::SeqCst))
        });
    }
}
