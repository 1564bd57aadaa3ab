//! Property suite for the served merge path: a seed-aligned bank split
//! by position over the shard runtime and merged
//! (`partition_and_merge`) must satisfy the (φ, ε) recall and
//! suppression guarantees of Definition 1 on planted-heavy-hitter and
//! Zipf streams at 1, 2, and 4 parts — the part count is an executor
//! knob, not a semantics knob.

use hh_core::{HeavyHitters, HhParams, MergeableSummary, StreamSummary};
use hh_pipeline::{partition_and_merge, seed_aligned_algo1, seed_aligned_algo2};
use hh_streams::{arrange, collect_stream, ExactCounts, OrderPolicy, ZipfGenerator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PART_COUNTS: [usize; 3] = [1, 2, 4];

/// Planted workload: a 30% item, an item just over φ, an item pinned
/// just under (φ−ε), and a light-id tail.
fn planted_with_boundary(m: u64, phi: f64, eps: f64, seed: u64) -> Vec<u64> {
    let light_frac = phi - eps - 0.02;
    let mut counts: Vec<(u64, u64)> = vec![
        (1, (0.30 * m as f64) as u64),
        (2, (phi * m as f64) as u64 + m / 200),
        (3, (light_frac * m as f64) as u64),
    ];
    let used: u64 = counts.iter().map(|&(_, c)| c).sum();
    let tail_ids = 2048u64;
    let fill = m - used;
    for j in 0..tail_ids {
        let c = fill / tail_ids + u64::from(j < fill % tail_ids);
        if c > 0 {
            counts.push((1_000_000 + j, c));
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    arrange(&counts, OrderPolicy::Shuffled, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn planted_guarantees_hold_at_every_shard_count(seed in 0u64..1 << 32) {
        let (m, phi, eps) = (400_000u64, 0.15, 0.05);
        let stream = planted_with_boundary(m, phi, eps, seed);
        let params = HhParams::with_delta(eps, phi, 0.1).unwrap();
        for parts in PART_COUNTS {
            let bank = seed_aligned_algo2(params, 1 << 40, m, parts, seed ^ 0xD1CE).unwrap();
            let r = partition_and_merge(bank, &stream).unwrap().report();
            prop_assert!(r.contains(1), "{parts} parts: missing 30% item");
            prop_assert!(r.contains(2), "{parts} parts: missing phi-heavy item");
            prop_assert!(
                !r.contains(3),
                "{parts} parts: (phi-eps)-light item reported"
            );
            let est = r.estimate(1).unwrap();
            prop_assert!(
                (est - 0.30 * m as f64).abs() <= eps * m as f64,
                "{parts} parts: estimate {est} off by more than eps*m"
            );
        }
    }

    #[test]
    fn zipf_recall_and_suppression_at_every_shard_count(seed in 0u64..1 << 32) {
        let (m, phi, eps) = (300_000usize, 0.1, 0.04);
        let mut gen = ZipfGenerator::new(1 << 30, 1.3);
        let mut rng = StdRng::seed_from_u64(seed);
        let stream = collect_stream(&mut gen, m, &mut rng);
        let oracle = ExactCounts::from_stream(&stream);
        let params = HhParams::with_delta(eps, phi, 0.1).unwrap();
        for parts in PART_COUNTS {
            let bank =
                seed_aligned_algo2(params, 1 << 30, m as u64, parts, seed ^ 0xBEEF).unwrap();
            let r = partition_and_merge(bank, &stream).unwrap().report();
            for (item, f) in oracle.heavy_hitters(phi) {
                prop_assert!(
                    r.contains(item),
                    "{parts} parts: missing zipf HH {item} (f = {f})"
                );
            }
            for item in oracle.forbidden(phi, eps) {
                prop_assert!(
                    !r.contains(item),
                    "{parts} parts: forbidden zipf item {item} reported"
                );
            }
        }
    }

    #[test]
    fn algo1_pipeline_guarantees_hold(seed in 0u64..1 << 32) {
        let (m, phi, eps) = (300_000u64, 0.15, 0.05);
        let stream = planted_with_boundary(m, phi, eps, seed);
        let params = HhParams::with_delta(eps, phi, 0.1).unwrap();
        for parts in PART_COUNTS {
            let bank = seed_aligned_algo1(params, 1 << 40, m, parts, seed ^ 0xFA11).unwrap();
            let r = partition_and_merge(bank, &stream).unwrap().report();
            prop_assert!(r.contains(1), "{parts} parts: missing 30% item");
            prop_assert!(r.contains(2), "{parts} parts: missing phi-heavy item");
            prop_assert!(
                !r.contains(3),
                "{parts} parts: (phi-eps)-light item reported"
            );
        }
    }

    #[test]
    fn same_seed_pipeline_runs_are_bit_identical(seed in 0u64..1 << 32) {
        let (m, phi, eps) = (150_000u64, 0.2, 0.05);
        let stream = planted_with_boundary(m, phi, eps, seed);
        let params = HhParams::with_delta(eps, phi, 0.1).unwrap();
        let run = || {
            let bank = seed_aligned_algo2(params, 1 << 40, m, 4, seed).unwrap();
            partition_and_merge(bank, &stream).unwrap()
        };
        let (a, b) = (run(), run());
        // Thread scheduling must not leak into results: parts are
        // independent and merge in a fixed order, so the merged summary
        // is schedule-free down to its snapshot bytes.
        let (ra, rb) = (a.report(), b.report());
        prop_assert_eq!(ra.entries(), rb.entries());
        prop_assert_eq!(a.to_bytes(), b.to_bytes());
    }
}

/// Every input's pre-epoch-0 prefix survives a merge (DESIGN.md §1.6).
/// A cell live in K shards used to lose K − 1 of its K prefixes, about
/// `(K − 1) · thresholds[0] · 2^k` = 800 items per extra shard at this
/// shape (p = 1), so the 30% item read about ε·m low at 4 shards. The
/// stream is dealt the way the server deals it: 1024-item batches,
/// round-robin over seed-aligned shards, merged left to right.
#[test]
fn merged_shards_keep_every_input_prefix() {
    let (m, phi, eps) = (48_000u64, 0.15, 0.05);
    let params = HhParams::with_delta(eps, phi, 0.1).unwrap();
    for seed in 1..=4u64 {
        let stream = planted_with_boundary(m, phi, eps, seed);
        let truth = stream.iter().filter(|&&x| x == 1).count() as f64;
        for shards in [1, 2, 4, 8] {
            let mut bank = seed_aligned_algo2(params, 1 << 32, m, shards, seed).unwrap();
            for (i, batch) in stream.chunks(1024).enumerate() {
                bank[i % shards].insert_batch(batch);
            }
            let mut merged = bank.remove(0);
            for s in &bank {
                merged.merge_from(s).unwrap();
            }
            let est = merged.report().estimate(1).expect("30% item reported");
            assert!(
                (est - truth).abs() <= eps * m as f64,
                "seed {seed}, {shards} shards: estimate {est} vs {truth}"
            );
        }
    }
}
