//! Property suite for the dyadic range-query subsystem, on the
//! Count-Min [`DyadicHh`] bank:
//!
//! 1. **planted-prefix recall and suppression** — every dyadic range
//!    carrying at least `(φ+ε)·m` of a planted-prefix stream is
//!    reported by `heavy_ranges(φ)`, and no range below `(φ−ε)·m` is,
//!    across all four stream orderings (Definition 1 lifted from
//!    points to ranges; the gray zone in between is unconstrained);
//! 2. **range estimates track the exact oracle** — `range_estimate`
//!    on arbitrary intervals stays within `ε·m` of exact counting
//!    (and never undercounts);
//! 3. **merge-of-partitions ≡ single-stream** — seed-aligned banks
//!    over an arbitrary positional partition agree exactly with one
//!    bank over the whole stream (Count-Min is deterministic given the
//!    seed);
//! 4. **snapshot → restore → continue** — a bank checkpointed
//!    mid-stream and resumed finishes identically to the original.

use hh_core::{FrequencyEstimator, MergeableSummary, StreamSummary};
use hh_dyadic::{seed_aligned_count_min, DyadicHh, HeavyRange};
use hh_streams::{arrange, OrderPolicy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

const KEY_BITS: u32 = 16;
const U: u64 = 1 << KEY_BITS;
const M: u64 = 120_000;
const EPS: f64 = 0.04;
const PHI: f64 = 0.15;
const DELTA: f64 = 0.01;

const ORDERINGS: [OrderPolicy; 4] = [
    OrderPolicy::Shuffled,
    OrderPolicy::Sorted,
    OrderPolicy::RoundRobin,
    OrderPolicy::HeavyLast,
];

/// The planted-prefix workload over the 16-bit space, as exact
/// `(address, count)` pairs summing to `M`:
///
/// * block `0xAB00..=0xABFF` (the level-8 node `0xAB`) carries 35%,
///   with one hot host (`0xAB00`, 21%) so the heavy *chain* reaches
///   the leaves on one path and goes light on the sibling paths;
/// * point `0x1234` carries 20% — a heavy leaf with a full ancestor
///   chain;
/// * block `0xCD00..=0xCDFF` carries 9% `< (φ−ε)` — every node it
///   induces must be suppressed;
/// * the rest is background spread at stride 32 across the space
///   (outside the blocks), so no accidental node crosses `φ−ε`.
fn planted_prefix_counts() -> Vec<(u64, u64)> {
    let frac = |f: f64| (f * M as f64).round() as u64;
    let mut counts: Vec<(u64, u64)> = vec![(0xAB00, frac(0.21)), (0x1234, frac(0.20))];
    for h in 1..256u64 {
        counts.push((0xAB00 + h, frac(0.14) / 255));
    }
    for h in 0..256u64 {
        counts.push((0xCD00 + h, frac(0.09) / 256));
    }
    let used: u64 = counts.iter().map(|&(_, c)| c).sum();
    let background: Vec<u64> = (0..U / 32)
        .map(|j| j * 32 + 7)
        .filter(|&a| !(0xAB00..=0xABFF).contains(&a) && !(0xCD00..=0xCDFF).contains(&a))
        .filter(|&a| a != 0x1234)
        .collect();
    let fill = M - used;
    let n = background.len() as u64;
    for (j, &a) in background.iter().enumerate() {
        let c = fill / n + u64::from((j as u64) < fill % n);
        if c > 0 {
            counts.push((a, c));
        }
    }
    counts
}

/// Exact mass of every dyadic node touched by `counts`, keyed by
/// `(level, index)` — the ground-truth oracle.
fn node_masses(counts: &[(u64, u64)]) -> HashMap<(u32, u64), u64> {
    let mut masses = HashMap::new();
    for &(a, c) in counts {
        for k in 1..=KEY_BITS {
            *masses.entry((k, a >> (KEY_BITS - k))).or_insert(0u64) += c;
        }
    }
    masses
}

/// Exact mass of the inclusive interval `[lo, hi]`.
fn interval_mass(counts: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    counts
        .iter()
        .filter(|&&(a, _)| lo <= a && a <= hi)
        .map(|&(_, c)| c)
        .sum()
}

/// Definition-1 agreement on ranges: every node at or above the
/// `(φ+ε)·m` line is reported, nothing below the `(φ−ε)·m` line is.
fn assert_recall_and_suppression(
    reported: &[HeavyRange],
    masses: &HashMap<(u32, u64), u64>,
    ctx: &str,
) {
    let must = (PHI + EPS) * M as f64;
    let must_not = (PHI - EPS) * M as f64;
    let got: HashSet<(u32, u64)> = reported.iter().map(|r| (r.level, r.index)).collect();
    for (&(k, i), &c) in masses {
        if c as f64 >= must {
            assert!(
                got.contains(&(k, i)),
                "{ctx}: heavy node level {k} index {i:#x} (mass {c}) missing"
            );
        }
    }
    for r in reported {
        let c = masses.get(&(r.level, r.index)).copied().unwrap_or(0);
        assert!(
            c as f64 >= must_not,
            "{ctx}: light node level {} index {:#x} (mass {c}) reported",
            r.level,
            r.index
        );
    }
}

/// Cuts `stream` into `parts` random contiguous chunks (any chunk
/// possibly empty) — an arbitrary positional partition.
fn random_partition(stream: &[u64], parts: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cuts: Vec<usize> = (0..parts - 1)
        .map(|_| rng.gen_range(0..=stream.len()))
        .collect();
    cuts.sort_unstable();
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for &c in &cuts {
        out.push(stream[start..c].to_vec());
        start = c;
    }
    out.push(stream[start..].to_vec());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn count_min_bank_recall_and_suppression_across_orderings(
        seed in 0u64..1 << 32,
    ) {
        let counts = planted_prefix_counts();
        let masses = node_masses(&counts);
        for (oi, &order) in ORDERINGS.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed ^ oi as u64);
            let stream = arrange(&counts, order, &mut rng);
            let mut bank = DyadicHh::count_min(EPS, PHI, DELTA, U, seed ^ 0xD1).unwrap();
            bank.insert_batch(&stream);
            let ranges = bank.heavy_ranges(PHI);
            assert_recall_and_suppression(&ranges, &masses, &format!("cm/{order:?}"));
        }
    }

    #[test]
    fn range_estimates_track_the_exact_oracle(
        seed in 0u64..1 << 32,
    ) {
        let counts = planted_prefix_counts();
        let mut rng = StdRng::seed_from_u64(seed);
        let stream = arrange(&counts, OrderPolicy::Shuffled, &mut rng);
        let mut bank = DyadicHh::count_min(EPS, PHI, DELTA, U, seed ^ 0xD3).unwrap();
        bank.insert_batch(&stream);
        // Fixed ranges that straddle the planted structure, plus random
        // intervals: Count-Min never undercounts, and the bank's
        // calibration (ε split over the ≤2L decomposition nodes) keeps
        // the total overcount within ε·m.
        let mut ranges = vec![
            (0xAB00u64, 0xABFFu64),
            (0xA000, 0xBFFF),
            (0x1234, 0x1234),
            (0xCD00, 0xCDFF),
            (0, U - 1),
        ];
        for _ in 0..8 {
            let a = rng.gen_range(0..U);
            let b = rng.gen_range(0..U);
            ranges.push((a.min(b), a.max(b)));
        }
        for (lo, hi) in ranges {
            let truth = interval_mass(&counts, lo, hi) as f64;
            let est = bank.range_estimate(lo, hi);
            prop_assert!(est >= truth, "[{lo:#x},{hi:#x}]: {est} under {truth}");
            prop_assert!(
                est <= truth + EPS * M as f64,
                "[{lo:#x},{hi:#x}]: {est} vs {truth} beyond eps*m"
            );
        }
    }

    #[test]
    fn count_min_merge_of_partitions_matches_single_stream(
        seed in 0u64..1 << 32,
        parts in 2usize..6,
    ) {
        let counts = planted_prefix_counts();
        let mut rng = StdRng::seed_from_u64(seed);
        let stream = arrange(&counts, OrderPolicy::Shuffled, &mut rng);
        let chunks = random_partition(&stream, parts, seed ^ 0x9A);
        let mut banks = seed_aligned_count_min(EPS, PHI, DELTA, U, parts, seed ^ 0xD4).unwrap();
        for (b, chunk) in banks.iter_mut().zip(&chunks) {
            b.insert_batch(chunk);
        }
        let mut merged = banks.remove(0);
        for b in &banks {
            merged.merge_from(b).expect("seed-aligned banks must merge");
        }
        let mut single = DyadicHh::count_min(EPS, PHI, DELTA, U, seed ^ 0xD4).unwrap();
        single.insert_batch(&stream);
        // Count-Min is deterministic given the seed: cell-wise sums of
        // the partition equal the whole stream's, so point estimates,
        // range estimates, and the heavy forest agree exactly.
        for probe in [0xAB00u64, 0x1234, 0xCD07, 0xE007] {
            prop_assert_eq!(
                merged.estimate(probe).to_bits(),
                single.estimate(probe).to_bits()
            );
        }
        for (lo, hi) in [(0xAB00u64, 0xABFFu64), (0x1000, 0x8FFF), (0, U - 1)] {
            prop_assert_eq!(
                merged.range_estimate(lo, hi).to_bits(),
                single.range_estimate(lo, hi).to_bits()
            );
        }
        prop_assert_eq!(merged.heavy_ranges(PHI), single.heavy_ranges(PHI));
        prop_assert_eq!(merged.processed(), single.processed());
    }
}

#[test]
fn snapshot_resume_continues_bit_identically() {
    // Checkpoint mid-stream, restore, finish on both copies: the bank
    // must match byte for byte (Count-Min state is deterministic).
    let counts = planted_prefix_counts();
    let mut rng = StdRng::seed_from_u64(11);
    let stream = arrange(&counts, OrderPolicy::Shuffled, &mut rng);
    let (head, tail) = stream.split_at(stream.len() / 2);

    let mut cm = DyadicHh::count_min(EPS, PHI, DELTA, U, 21).unwrap();
    cm.insert_batch(head);
    let mut resumed = DyadicHh::from_bytes(&cm.to_bytes()).unwrap();
    cm.insert_batch(tail);
    resumed.insert_batch(tail);
    assert_eq!(cm.to_bytes(), resumed.to_bytes());
    assert_eq!(cm.heavy_ranges(PHI), resumed.heavy_ranges(PHI));
}
