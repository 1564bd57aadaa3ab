//! Property suite for the mergeability + persistence subsystem (PR 4):
//! for every [`MergeableSummary`] in the workspace,
//!
//! 1. **merge-of-partitions ≡ single-stream ingestion** — summarizing an
//!    arbitrary positional partition of a stream and merging reports the
//!    same heavy-hitter set as one summary over the whole stream, with
//!    estimates within the type's error bound, across random splits,
//!    orderings, and Zipf workloads;
//! 2. **snapshot → restore bit-identity** — `from_bytes(to_bytes(s))`
//!    reproduces `report()` (and the space accounting) bit for bit.

use hh_baselines::{CountMin, CountSketch, LossyCounting, MisraGriesBaseline, SpaceSaving};
use hh_core::{
    FrequencyEstimator, HeavyHitters, HhParams, MergeableSummary, MisraGries, OptimalListHh,
    Report, SimpleListHh, StreamSummary,
};
use hh_integration::planted;
use hh_space::SpaceUsage;
use hh_streams::{collect_stream, ZipfGenerator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const M: u64 = 200_000;
const EPS: f64 = 0.05;
const PHI: f64 = 0.15;

/// The standard workload: planted heavies (30%, φ+2%, and one pinned
/// under φ−ε) over a light tail, or a Zipf(1.1) stream.
fn workload(seed: u64, zipf: bool) -> Vec<u64> {
    if zipf {
        let mut rng = StdRng::seed_from_u64(seed);
        collect_stream(&mut ZipfGenerator::new(1 << 20, 1.1), M as usize, &mut rng)
    } else {
        planted(
            M,
            &[(7, 0.30), (8, PHI + 0.02), (55, PHI - EPS - 0.02)],
            seed,
        )
    }
}

/// Cuts `stream` into `parts` random contiguous chunks (every chunk
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

/// Drives the partition → merge path and returns (merged, single).
fn merge_vs_single<S, F>(stream: &[u64], parts: usize, seed: u64, make: F) -> (S, S)
where
    S: StreamSummary + MergeableSummary,
    F: Fn(usize) -> S,
{
    let chunks = random_partition(stream, parts, seed ^ 0x9A);
    let mut summaries: Vec<S> = (0..parts).map(&make).collect();
    for (s, chunk) in summaries.iter_mut().zip(&chunks) {
        s.insert_batch(chunk);
    }
    let mut merged = summaries.remove(0);
    for s in &summaries {
        merged.merge_from(s).expect("seed-aligned parts must merge");
    }
    let mut single = make(parts); // distinct stream seed is fine
    single.insert_batch(stream);
    (merged, single)
}

/// Definition-1 agreement between a merged report and a single-stream
/// report on a planted workload: both must contain the planted heavies,
/// neither may contain the pinned-light item, and merged estimates stay
/// within `eps·m` of the single-stream estimates for reported items.
fn assert_reports_agree(merged: &Report, single: &Report, zipf: bool, ctx: &str) {
    if !zipf {
        for item in [7u64, 8] {
            assert!(merged.contains(item), "{ctx}: merged misses {item}");
            assert!(single.contains(item), "{ctx}: single misses {item}");
        }
        assert!(!merged.contains(55), "{ctx}: merged reports light item");
        assert!(!single.contains(55), "{ctx}: single reports light item");
    }
    for e in merged.entries() {
        if let Some(se) = single.estimate(e.item) {
            assert!(
                (e.count - se).abs() <= 2.0 * EPS * M as f64,
                "{ctx}: item {} merged {} vs single {se}",
                e.item,
                e.count
            );
        }
    }
}

/// Snapshot round-trip: report, estimates on probes, and model bits
/// must be bit-identical.
fn assert_snapshot_identity<S>(s: &S, probes: &[u64])
where
    S: MergeableSummary + HeavyHitters + FrequencyEstimator + SpaceUsage,
{
    let restored = S::from_bytes(&s.to_bytes()).expect("own snapshot must restore");
    assert_eq!(s.report().entries(), restored.report().entries());
    assert_eq!(s.model_bits(), restored.model_bits());
    for &p in probes {
        assert_eq!(
            s.estimate(p).to_bits(),
            restored.estimate(p).to_bits(),
            "probe {p}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn algo1_merge_of_partitions_matches_single_stream(
        seed in 0u64..1 << 32,
        parts in 2usize..6,
        zipf_sel in 0u64..2,
    ) {
        let zipf = zipf_sel == 1;
        let stream = workload(seed, zipf);
        let params = HhParams::with_delta(EPS, PHI, 0.1).unwrap();
        let (merged, single) = merge_vs_single(&stream, parts, seed, |j| {
            SimpleListHh::with_seeds(params, 1 << 40, M, seed ^ 0xA1, 1000 + j as u64).unwrap()
        });
        assert_reports_agree(&merged.report(), &single.report(), zipf, "algo1");
        assert_snapshot_identity(&merged, &[7, 8, 55, 9_000_001]);
    }

    #[test]
    fn algo2_merge_of_partitions_matches_single_stream(
        seed in 0u64..1 << 32,
        parts in 2usize..6,
        zipf_sel in 0u64..2,
    ) {
        let zipf = zipf_sel == 1;
        let stream = workload(seed, zipf);
        let params = HhParams::with_delta(EPS, PHI, 0.1).unwrap();
        let (merged, single) = merge_vs_single(&stream, parts, seed, |j| {
            OptimalListHh::with_seeds(params, 1 << 40, M, seed ^ 0xA2, 2000 + j as u64).unwrap()
        });
        assert_reports_agree(&merged.report(), &single.report(), zipf, "algo2");
        assert_snapshot_identity(&merged, &[7, 8, 55, 9_000_001]);
    }

    #[test]
    fn deterministic_summaries_merge_within_bounds(
        seed in 0u64..1 << 32,
        parts in 2usize..6,
        zipf_sel in 0u64..2,
    ) {
        let zipf = zipf_sel == 1;
        let stream = workload(seed, zipf);

        // Misra–Gries: merged estimates undercount by ≤ m/(k+1).
        let (merged, single) = merge_vs_single(&stream, parts, seed, |_| {
            MisraGriesBaseline::new(EPS, PHI, 1 << 40)
        });
        assert_reports_agree(&merged.report(), &single.report(), zipf, "mg");
        assert_snapshot_identity(&merged, &[7, 8, 55]);

        // Space-Saving: merged counts never undercount the truth.
        let (merged, single) = merge_vs_single(&stream, parts, seed, |_| {
            SpaceSaving::with_capacity(64, PHI, 1 << 40)
        });
        assert_reports_agree(&merged.report(), &single.report(), zipf, "ss");
        assert_snapshot_identity(&merged, &[7, 8, 55]);

        // Lossy Counting.
        let (merged, single) = merge_vs_single(&stream, parts, seed, |_| {
            LossyCounting::new(EPS, PHI, 1 << 40)
        });
        assert_reports_agree(&merged.report(), &single.report(), zipf, "lossy");
        assert_snapshot_identity(&merged, &[7, 8, 55]);
    }

    #[test]
    fn sketches_merge_within_bounds(
        seed in 0u64..1 << 32,
        parts in 2usize..6,
        zipf_sel in 0u64..2,
    ) {
        let zipf = zipf_sel == 1;
        let stream = workload(seed, zipf);

        // Count-Min: seed-aligned (same constructor seed per part).
        let (merged, single) = merge_vs_single(&stream, parts, seed, |_| {
            CountMin::new(EPS, PHI, 0.05, 1 << 40, seed ^ 0xC1)
        });
        assert_reports_agree(&merged.report(), &single.report(), zipf, "cm");
        // CM is fully deterministic given the seed, so merged ≡ single
        // exactly: cell-wise sums of the partition equal the stream's.
        for probe in [7u64, 8, 55, 12345] {
            prop_assert_eq!(merged.estimate(probe), single.estimate(probe));
        }
        assert_snapshot_identity(&merged, &[7, 8, 55]);

        // CountSketch: same exact-equality argument.
        let (merged, single) = merge_vs_single(&stream, parts, seed, |_| {
            CountSketch::new(0.1, PHI, 0.1, 1 << 40, seed ^ 0xC2)
        });
        for probe in [7u64, 8, 55, 12345] {
            prop_assert_eq!(merged.estimate(probe), single.estimate(probe));
        }
        assert_snapshot_identity(&merged, &[7, 8, 55]);
    }

    #[test]
    fn dyadic_bank_merge_of_partitions_matches_single_stream(
        seed in 0u64..1 << 32,
        parts in 2usize..6,
    ) {
        // The ninth summary. The Count-Min bank is deterministic given
        // its seed, so partition-and-merge is *exact*: estimates,
        // range estimates, and the heavy forest all match the
        // single-stream bank (prop_dyadic.rs covers the dyadic-specific
        // guarantees in depth).
        let stream = workload(seed, false);
        let mut banks =
            hh_dyadic::seed_aligned_count_min(EPS, PHI, 0.05, 1 << 16, parts, seed ^ 0xA9)
                .unwrap();
        let chunks = random_partition(&stream, parts, seed ^ 0x9A);
        for (b, chunk) in banks.iter_mut().zip(&chunks) {
            // The planted workload's light tail lives at 9_000_000+;
            // fold it into the 16-bit space the bank covers.
            let folded: Vec<u64> = chunk.iter().map(|&x| x & 0xFFFF).collect();
            b.insert_batch(&folded);
        }
        let mut merged = banks.remove(0);
        for b in &banks {
            merged.merge_from(b).expect("seed-aligned banks must merge");
        }
        let mut single =
            hh_dyadic::DyadicHh::count_min(EPS, PHI, 0.05, 1 << 16, seed ^ 0xA9).unwrap();
        let folded: Vec<u64> = stream.iter().map(|&x| x & 0xFFFF).collect();
        single.insert_batch(&folded);
        for probe in [7u64, 8, 55, 12345] {
            prop_assert_eq!(merged.estimate(probe), single.estimate(probe));
        }
        prop_assert_eq!(merged.heavy_ranges(PHI), single.heavy_ranges(PHI));
        prop_assert_eq!(
            merged.range_estimate(0, 63).to_bits(),
            single.range_estimate(0, 63).to_bits()
        );
        assert_snapshot_identity(&merged, &[7, 8, 55]);
    }

    #[test]
    fn misra_gries_table_merge_keeps_classic_bound(
        seed in 0u64..1 << 32,
        parts in 2usize..8,
    ) {
        // The shared core table under arbitrary partitions of a random
        // stream: merged estimate within (combined m)/(k+1) of truth.
        let mut rng = StdRng::seed_from_u64(seed);
        let stream: Vec<u64> = (0..20_000).map(|_| rng.gen_range(0..200u64)).collect();
        let k = 15usize;
        let (merged, _) = merge_vs_single(&stream, parts, seed, |_| MisraGries::new(k, 16));
        let bound = stream.len() as u64 / (k as u64 + 1);
        for key in 0..200u64 {
            let truth = stream.iter().filter(|&&x| x == key).count() as u64;
            let est = merged.estimate(key);
            prop_assert!(est <= truth, "key {key} overestimates");
            prop_assert!(est + bound >= truth, "key {key} undercounts");
        }
        // Snapshot identity at the table level (content equality).
        let restored = MisraGries::from_bytes(&merged.to_bytes()).unwrap();
        prop_assert_eq!(&merged, &restored);
        prop_assert_eq!(merged.model_bits(), restored.model_bits());
    }
}

#[test]
fn snapshots_are_rejected_across_types() {
    let params = HhParams::new(0.1, 0.3).unwrap();
    let a1 = SimpleListHh::new(params, 1 << 20, 1000, 0).unwrap();
    let a2 = OptimalListHh::new(params, 1 << 20, 1000, 0).unwrap();
    let mg = MisraGriesBaseline::new(0.1, 0.3, 1 << 20);
    assert!(SimpleListHh::from_bytes(&a2.to_bytes()).is_err());
    assert!(OptimalListHh::from_bytes(&mg.to_bytes()).is_err());
    assert!(MisraGriesBaseline::from_bytes(&a1.to_bytes()).is_err());
    assert!(SpaceSaving::from_bytes(b"").is_err());
    assert!(CountMin::from_bytes(&[0u8; 16]).is_err());
}

#[test]
fn snapshot_resume_continues_bit_identically() {
    // Checkpoint mid-stream, restore, finish on both copies: reports
    // and sample counts agree exactly (RNG state travels with the
    // snapshot). This is the checkpoint/resume scenario end to end.
    let stream = workload(3, false);
    let (head, tail) = stream.split_at(stream.len() / 2);
    let params = HhParams::with_delta(EPS, PHI, 0.1).unwrap();

    let mut a2 = OptimalListHh::new(params, 1 << 40, M, 4).unwrap();
    a2.insert_batch(head);
    let mut resumed = OptimalListHh::from_bytes(&a2.to_bytes()).unwrap();
    a2.insert_batch(tail);
    resumed.insert_batch(tail);
    assert_eq!(a2.report().entries(), resumed.report().entries());
    assert_eq!(a2.samples(), resumed.samples());
    assert_eq!(a2.model_bits(), resumed.model_bits());

    let mut a1 = SimpleListHh::new(params, 1 << 40, M, 5).unwrap();
    a1.insert_batch(head);
    let mut resumed = SimpleListHh::from_bytes(&a1.to_bytes()).unwrap();
    a1.insert_batch(tail);
    resumed.insert_batch(tail);
    assert_eq!(a1.report().entries(), resumed.report().entries());
    assert_eq!(a1.samples(), resumed.samples());
}

#[test]
fn merged_space_is_at_most_the_sum_of_parts() {
    // The hh-space merged-size accounting argument, demonstrated on
    // real summaries: model_bits(merge(a, b)) ≤ model_bits(a) +
    // model_bits(b) for the counter-table types (gamma subadditivity).
    let stream = workload(9, false);
    let (left, right) = stream.split_at(stream.len() / 2);
    let params = HhParams::with_delta(EPS, PHI, 0.1).unwrap();

    let mut a = OptimalListHh::with_seeds(params, 1 << 40, M, 1, 10).unwrap();
    let mut b = OptimalListHh::with_seeds(params, 1 << 40, M, 1, 11).unwrap();
    a.insert_batch(left);
    b.insert_batch(right);
    let (sum_a, sum_b) = (a.model_bits(), b.model_bits());
    a.merge_from(&b).unwrap();
    assert!(
        a.model_bits() <= sum_a + sum_b,
        "merged {} > parts {sum_a} + {sum_b}",
        a.model_bits()
    );
}
