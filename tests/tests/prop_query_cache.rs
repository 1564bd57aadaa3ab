//! Property suite for the incremental query engine (PR 5): cached
//! `report()` / `estimate()` results must be **bit-identical** to a
//! freshly rebuilt summary across randomly interleaved
//! insert / batch-insert / merge / snapshot-restore / query sequences,
//! for all nine implementations (the dyadic banks cache the heavy
//! forest on top of the usual report path).
//!
//! The cold rebuild comes for free from the cache design: `Clone`
//! produces a summary with a cold read cache (the cache holds derived
//! state only), so `s.clone().report()` always runs the full scan, and
//! `S::from_bytes(&s.to_bytes())` exercises the restore path — both are
//! compared against the possibly-warm `s.report()` after every probe
//! point. Queries are *interleaved with* the mutations rather than run
//! once at the end, because the bugs this suite exists to catch are
//! missing invalidations: a mutation that leaves a stale cache behind is
//! only visible if something cached a value before it ran.
//!
//! The same contract is pinned one layer up, on the serving read path:
//! an `hh-server` tenant answers from its live shard (1 shard) or from
//! a merged copy it keeps (N shards), so a warm cache on a live summary
//! must never serve a report that a cold merge of cloned shards would
//! not.

use hh_baselines::{
    CountMin, CountSketch, LossyCounting, MisraGriesBaseline, SpaceSaving, StickySampling,
};
use hh_core::{
    FrequencyEstimator, HeavyHitters, HhParams, MergeableSummary, OptimalListHh, SimpleListHh,
    StreamSummary,
};
use hh_dyadic::DyadicHh;
use hh_server::facade::{DynSummary, SummaryKind, TenantSpec};
use hh_server::proto::ProtocolError;
use hh_server::Tenant;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EPS: f64 = 0.05;
const PHI: f64 = 0.15;
/// Advertised stream length for the sampled summaries (big enough that
/// the sampled regime engages; the op mix inserts far fewer).
const M: u64 = 200_000;
/// Point-query probes: the skewed favorites, some tail ids, one alien.
const PROBES: [u64; 6] = [0, 1, 2, 37, 4096, 900_001];

/// A skewed random item: a few hot ids plus a light tail.
fn item(rng: &mut StdRng) -> u64 {
    if rng.gen_bool(0.4) {
        rng.gen_range(0..4u64)
    } else {
        rng.gen_range(0..5000u64)
    }
}

fn batch(rng: &mut StdRng) -> Vec<u64> {
    let len = rng.gen_range(1..600usize);
    (0..len).map(|_| item(rng)).collect()
}

/// The coherence check: the (possibly cached) live answers must equal a
/// cold clone's answers bit for bit.
fn check_against_cold<S>(s: &S, ctx: &str)
where
    S: HeavyHitters + FrequencyEstimator + Clone,
{
    let live = s.report();
    // A second call is a guaranteed cache hit; it must change nothing.
    assert_eq!(
        live.entries(),
        s.report().entries(),
        "{ctx}: repeated query disagrees with itself"
    );
    let cold = s.clone();
    assert_eq!(
        live.entries(),
        cold.report().entries(),
        "{ctx}: cached report differs from cold rebuild"
    );
    for p in PROBES {
        assert_eq!(
            s.estimate(p).to_bits(),
            cold.estimate(p).to_bits(),
            "{ctx}: cached estimate for probe {p} differs from cold rebuild"
        );
    }
}

/// Random interleaving driver for mergeable summaries. `make(j)`
/// builds merge-compatible instances (seed-aligned where that matters);
/// instance 0 is the subject, later indices feed merges.
fn drive_mergeable<S, F>(make: F, seed: u64, ops: usize, ctx: &str)
where
    S: StreamSummary + MergeableSummary + HeavyHitters + FrequencyEstimator + Clone,
    F: Fn(usize) -> S,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = make(0);
    let mut donor_idx = 1usize;
    for op in 0..ops {
        match rng.gen_range(0..6u32) {
            0 => {
                let x = item(&mut rng);
                s.insert(x);
            }
            1 => s.insert_batch(&batch(&mut rng)),
            2 => {
                // Merge a freshly loaded donor in; queries afterwards
                // must see its mass (stale caches would not).
                let mut donor = make(donor_idx);
                donor_idx += 1;
                donor.insert_batch(&batch(&mut rng));
                s.merge_from(&donor).expect("compatible by construction");
            }
            3 => {
                // Snapshot round trip mid-sequence; the restored value
                // replaces the live one and must behave identically.
                s = S::from_bytes(&s.to_bytes()).expect("own snapshot restores");
            }
            _ => check_against_cold(&s, &format!("{ctx} op {op}")),
        }
    }
    check_against_cold(&s, &format!("{ctx} final"));
    // And the restore path one last time, against the warm summary.
    let restored = S::from_bytes(&s.to_bytes()).expect("own snapshot restores");
    assert_eq!(
        s.report().entries(),
        restored.report().entries(),
        "{ctx}: warm report differs from restored rebuild"
    );
}

/// Interleaving driver for summaries without merge/snapshot
/// (StickySampling): insert / batch / query only.
fn drive_plain<S, F>(make: F, seed: u64, ops: usize, ctx: &str)
where
    S: StreamSummary + HeavyHitters + FrequencyEstimator + Clone,
    F: Fn() -> S,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = make();
    for op in 0..ops {
        match rng.gen_range(0..4u32) {
            0 => {
                let x = item(&mut rng);
                s.insert(x);
            }
            1 => s.insert_batch(&batch(&mut rng)),
            _ => check_against_cold(&s, &format!("{ctx} op {op}")),
        }
    }
    check_against_cold(&s, &format!("{ctx} final"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn algo1_cache_coherent_under_interleaving(
        seed in 0u64..1 << 32,
        ops in 20usize..60,
    ) {
        let params = HhParams::with_delta(EPS, PHI, 0.1).unwrap();
        drive_mergeable(
            |j| SimpleListHh::with_seeds(params, 1 << 20, M, seed ^ 0xE1, 100 + j as u64).unwrap(),
            seed,
            ops,
            "algo1",
        );
    }

    #[test]
    fn algo2_cache_coherent_under_interleaving(
        seed in 0u64..1 << 32,
        ops in 20usize..60,
    ) {
        let params = HhParams::with_delta(EPS, PHI, 0.1).unwrap();
        drive_mergeable(
            |j| OptimalListHh::with_seeds(params, 1 << 20, M, seed ^ 0xE2, 200 + j as u64).unwrap(),
            seed,
            ops,
            "algo2",
        );
    }

    #[test]
    fn counter_baselines_cache_coherent_under_interleaving(
        seed in 0u64..1 << 32,
        ops in 20usize..50,
    ) {
        drive_mergeable(
            |_| MisraGriesBaseline::new(EPS, PHI, 1 << 20),
            seed,
            ops,
            "misra-gries",
        );
        drive_mergeable(
            |_| SpaceSaving::with_capacity(64, PHI, 1 << 20),
            seed,
            ops,
            "space-saving",
        );
        drive_mergeable(
            |_| LossyCounting::new(EPS, PHI, 1 << 20),
            seed,
            ops,
            "lossy",
        );
    }

    #[test]
    fn sketch_baselines_cache_coherent_under_interleaving(
        seed in 0u64..1 << 32,
        ops in 20usize..50,
    ) {
        drive_mergeable(
            |_| CountMin::new(EPS, PHI, 0.05, 1 << 20, seed ^ 0xE3),
            seed,
            ops,
            "count-min",
        );
        drive_mergeable(
            |_| CountSketch::new(0.1, PHI, 0.1, 1 << 20, seed ^ 0xE4),
            seed,
            ops,
            "count-sketch",
        );
    }

    #[test]
    fn dyadic_banks_cache_coherent_under_interleaving(
        seed in 0u64..1 << 32,
        ops in 20usize..40,
    ) {
        drive_mergeable(
            |_| DyadicHh::count_min(EPS, PHI, 0.05, 1 << 16, seed ^ 0xE6).unwrap(),
            seed,
            ops,
            "dyadic-cm",
        );
    }

    #[test]
    fn sticky_sampling_cache_coherent_under_interleaving(
        seed in 0u64..1 << 32,
        ops in 20usize..60,
    ) {
        drive_plain(
            || StickySampling::new(EPS, PHI, 0.1, 1 << 20, seed ^ 0xE5),
            seed,
            ops,
            "sticky",
        );
    }
}

/// The dyadic-specific cached path: `heavy_ranges(φ)` at the
/// configured threshold is memoized, so after every mutation kind the
/// warm forest must equal a cold clone's.
#[test]
fn warm_heavy_forest_sees_every_mutation_kind() {
    let mut bank = DyadicHh::count_min(0.05, 0.2, 0.05, 1 << 16, 77).unwrap();
    bank.insert_batch(&vec![0x4242u64; 500]);
    let warm = bank.heavy_ranges(0.2);
    assert_eq!(warm, bank.clone().heavy_ranges(0.2));
    assert!(warm.iter().any(|r| r.level == 16 && r.index == 0x4242));

    // Scalar inserts shift the heavy set to a different leaf entirely.
    for _ in 0..2_000 {
        bank.insert(0x1111);
    }
    let after = bank.heavy_ranges(0.2);
    assert_eq!(
        after,
        bank.clone().heavy_ranges(0.2),
        "stale forest after inserts"
    );
    assert!(after.iter().any(|r| r.level == 16 && r.index == 0x1111));

    // Merge: the donor's mass must appear in the warm forest.
    let mut donor = DyadicHh::count_min(0.05, 0.2, 0.05, 1 << 16, 77).unwrap();
    donor.insert_batch(&vec![0x9999u64; 4_000]);
    bank.merge_from(&donor).unwrap();
    let merged = bank.heavy_ranges(0.2);
    assert_eq!(
        merged,
        bank.clone().heavy_ranges(0.2),
        "stale forest after merge"
    );
    assert!(merged.iter().any(|r| r.level == 16 && r.index == 0x9999));

    // Restore-then-continue starts cold and keeps tracking.
    let mut r = DyadicHh::from_bytes(&bank.to_bytes()).unwrap();
    assert_eq!(r.heavy_ranges(0.2), merged);
    r.insert_batch(&vec![0x7777u64; 20_000]);
    assert_eq!(
        r.heavy_ranges(0.2),
        r.clone().heavy_ranges(0.2),
        "stale forest after restore-then-continue"
    );
}

/// A directed regression for the exact failure mode a missing
/// invalidation produces: warm the cache, mutate, and require the next
/// answer to reflect the mutation.
#[test]
fn warm_cache_sees_every_mutation_kind() {
    let params = HhParams::with_delta(0.1, 0.3, 0.1).unwrap();
    // Short advertised stream => p = 1, so every insert is sampled and
    // must invalidate.
    let mut a = OptimalListHh::with_seeds(params, 1 << 20, 1_000, 3, 4).unwrap();
    let heavy = vec![9u64; 600];
    a.insert_batch(&heavy);
    let before = a.report();
    assert!(before.contains(9));

    // Scalar inserts after a warm query: enough mass that the sampled
    // counters certainly move, and the cached answer must track the
    // cold rebuild exactly.
    let est_before = before.estimate(9).unwrap();
    for _ in 0..300 {
        a.insert(9);
    }
    let after_insert = a.report();
    assert_eq!(
        after_insert.entries(),
        a.clone().report().entries(),
        "stale cache after scalar inserts"
    );
    assert!(
        after_insert.estimate(9).unwrap() > est_before,
        "300 sampled inserts did not move the estimate"
    );

    // Merge after a warm query: the donor's mass must appear, and the
    // cached answer must again equal the cold rebuild. The donor gets
    // enough nines that its buckets cross epoch 0 — mass below the
    // epoch-0 threshold sits in the estimator's documented pre-epoch-0
    // blind spot and would legitimately not move the estimate.
    let _ = a.report();
    let mut donor = OptimalListHh::with_seeds(params, 1 << 20, 1_000, 3, 5).unwrap();
    donor.insert_batch(&vec![9u64; 1_000]);
    a.merge_from(&donor).unwrap();
    let after_merge = a.report();
    assert_eq!(
        after_merge.entries(),
        a.clone().report().entries(),
        "stale cache after merge"
    );
    assert!(
        after_merge.estimate(9).unwrap() > after_insert.estimate(9).unwrap(),
        "merged mass did not appear in the report"
    );

    // Restore-then-continue: the restored summary starts cold, agrees
    // with the warm original, and then tracks its own mutations.
    let mut r = OptimalListHh::from_bytes(&a.to_bytes()).unwrap();
    assert_eq!(r.report().entries(), a.report().entries());
    for _ in 0..300 {
        r.insert(9);
    }
    assert_eq!(
        r.report().entries(),
        r.clone().report().entries(),
        "stale cache after restore-then-continue"
    );
}

/// Tenant parameters: at ε = 0.1 and m = [`M`] Algorithm 2 samples at
/// p = 1/4, so short batches are often wholly unsampled and leave its
/// cache warm on purpose.
const TENANT_EPS: f64 = 0.1;
const TENANT_PHI: f64 = 0.2;

/// A heavier skew than [`item`]: ids 0 and 1 clear φ, so every
/// thresholded kind reports a non-empty list that moves with each
/// ingest.
fn tenant_item(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..10u32) {
        0..=2 => 0,
        3..=4 => 1,
        _ => rng.gen_range(2..5000u64),
    }
}

/// What reads used to cost: clone every shard, merge the clones. The
/// clones start cold, so this is the reference a warm live read must
/// match.
fn cold_merge(bank: &[DynSummary]) -> DynSummary {
    let mut acc = bank[0].clone();
    for part in &bank[1..] {
        acc.merge_from(&part.clone())
            .expect("one spec, one merge family");
    }
    acc
}

/// Alternates seeded ingest rounds with reads on a tenant of `kind` ×
/// `shards`. A mirror bank built from the same spec gets exactly the
/// batches the tenant accepted, in the same order per shard, so its
/// cold merge is what the tenant's state must read as. Rounds with no
/// ingest read a tenant that is not stale (the cached path); rounds of
/// 1–3 items leave sampling kinds' caches warm when nothing is sampled.
fn tenant_reads_match_cold_merge(kind: SummaryKind, shards: u32, seed: u64, rounds: usize) {
    let spec = TenantSpec {
        kind,
        eps: TENANT_EPS,
        phi: TENANT_PHI,
        universe: 1 << 16,
        m: M,
        structure_seed: seed,
        shards,
        ..TenantSpec::default()
    };
    let mut tenant = Tenant::create(spec).expect("valid spec");
    let mut mirror = spec.build_bank().expect("valid spec");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reported_rounds = 0;
    for round in 0..rounds {
        let ctx = format!(
            "{kind:?} x{shards} round {round} \
             (replay: tenant_reads_match_cold_merge(SummaryKind::{kind:?}, {shards}, {seed:#x}, {rounds}))"
        );
        for _ in 0..rng.gen_range(0..4u32) {
            let j = rng.gen_range(0..shards);
            let len = if rng.gen_bool(0.3) {
                rng.gen_range(1..4usize)
            } else {
                rng.gen_range(1..600usize)
            };
            let items: Vec<u64> = (0..len).map(|_| tenant_item(&mut rng)).collect();
            match tenant.ingest("t", j, &items) {
                Ok(_) => mirror[j as usize].insert_batch(&items),
                // A shed batch never reached the shard.
                Err(ProtocolError::Overloaded { .. }) => {}
                Err(e) => panic!("{ctx}: ingest failed: {e}"),
            }
        }
        let cold = cold_merge(&mirror);
        let want: Vec<(u64, u64)> = cold
            .report()
            .entries()
            .iter()
            .map(|e| (e.item, e.count.to_bits()))
            .collect();
        reported_rounds += usize::from(!want.is_empty());
        for pass in 0..2 {
            let (got, _) = tenant.query().expect("query");
            let got: Vec<(u64, u64)> = got.iter().map(|&(i, c)| (i, c.to_bits())).collect();
            assert_eq!(
                got, want,
                "{ctx}: query pass {pass} differs from cold merge"
            );
        }
        assert_eq!(
            tenant.snapshot_merged().expect("snapshot"),
            cold.to_bytes(),
            "{ctx}: snapshot_merged differs from cold merge"
        );
        if kind == SummaryKind::Dyadic {
            for (lo, hi) in [(0, 3), (0, 4_999), (37, 4_096), (0, (1 << 16) - 1)] {
                let (got, _) = tenant.range_query(lo, hi).expect("range");
                let want = cold.range_estimate(lo, hi).expect("dyadic answers");
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{ctx}: range [{lo}, {hi}] differs from cold merge"
                );
            }
            for phi in [TENANT_PHI, 0.3] {
                let (got, _) = tenant.heavy_ranges(phi).expect("heavy ranges");
                let want: Vec<_> = cold
                    .heavy_ranges(phi)
                    .expect("dyadic answers")
                    .iter()
                    .map(|r| (r.level, r.lo, r.hi, r.count))
                    .collect();
                assert_eq!(
                    got, want,
                    "{ctx}: heavy ranges at {phi} differ from cold merge"
                );
            }
        }
    }
    assert!(
        reported_rounds * 2 >= rounds,
        "{kind:?} x{shards} seed {seed:#x}: only {reported_rounds} of {rounds} rounds \
         had a non-empty report, so the check is close to vacuous"
    );
}

#[test]
fn tenant_reads_equal_a_cold_merge_for_every_kind_and_shard_count() {
    for kind in SummaryKind::ALL {
        for shards in [1, 2, 4] {
            let seed = 0x51DE_0000 ^ (kind.code() << 8) ^ u64::from(shards);
            tenant_reads_match_cold_merge(kind, shards, seed, 12);
        }
    }
}
