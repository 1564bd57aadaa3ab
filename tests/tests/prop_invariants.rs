//! Property-based cross-crate invariants (proptest): the structural
//! guarantees that must hold on *arbitrary* streams, not just the
//! designed workloads.

use hh_baselines::{LossyCounting, MisraGriesBaseline, SpaceSaving};
use hh_core::{FrequencyEstimator, MisraGries, StreamSummary};
use hh_space::{GammaVec, VarCounterArray};
use hh_votes::Ranking;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

fn truth(stream: &[u64]) -> HashMap<u64, u64> {
    let mut t = HashMap::new();
    for &x in stream {
        *t.entry(x).or_insert(0) += 1;
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn misra_gries_error_invariant(
        stream in vec(0u64..50, 1..2000),
        capacity in 1usize..20,
    ) {
        let mut mg = MisraGries::new(capacity, 8);
        mg.insert_all(&stream);
        let bound = stream.len() as u64 / (capacity as u64 + 1);
        for (&item, &f) in &truth(&stream) {
            let est = mg.estimate(item);
            prop_assert!(est <= f, "overestimate: item {item}");
            prop_assert!(est + bound >= f, "undercount beyond s/(k+1)");
        }
        prop_assert!(mg.len() <= capacity);
    }

    #[test]
    fn space_saving_sandwich_invariant(
        stream in vec(0u64..60, 1..2000),
        capacity in 1usize..16,
    ) {
        let mut ss = SpaceSaving::with_capacity(capacity, 0.5, 64);
        ss.insert_all(&stream);
        let t = truth(&stream);
        for (item, count, err) in ss.entries() {
            let f = t.get(&item).copied().unwrap_or(0);
            prop_assert!(count >= f, "space-saving must not undercount");
            prop_assert!(count - err <= f, "count-err must lower-bound f");
        }
        // Minimum monitored count is at most m/k.
        prop_assert!(ss.min_count() <= stream.len() as u64 / capacity as u64 + 1);
    }

    #[test]
    fn lossy_counting_undercount_invariant(
        stream in vec(0u64..40, 1..1500),
    ) {
        let eps = 0.1;
        let mut lc = LossyCounting::new(eps, 0.5, 64);
        lc.insert_all(&stream);
        let budget = eps * stream.len() as f64;
        for (&item, &f) in &truth(&stream) {
            let est = lc.estimate(item);
            prop_assert!(est <= f as f64);
            prop_assert!(est + budget >= f as f64);
        }
    }

    #[test]
    fn gamma_roundtrip_arbitrary_values(values in vec(0u64..u64::MAX - 1, 0..200)) {
        let gv: GammaVec = values.iter().copied().collect();
        prop_assert_eq!(gv.decode_all(), values);
    }

    #[test]
    fn varcounter_accounting_matches_recompute(
        ops in vec((0usize..16, 0u64..1000), 0..500),
    ) {
        let mut a = VarCounterArray::new(16);
        for &(i, delta) in &ops {
            a.add(i, delta);
        }
        let recomputed: u64 = a.iter().map(hh_space::gamma_bits).sum();
        prop_assert_eq!(hh_space::SpaceUsage::model_bits(&a), recomputed);
        prop_assert_eq!(a.to_gamma().bit_len() as u64, recomputed);
    }

    #[test]
    fn merged_mg_equals_error_contract(
        left in vec(0u64..30, 1..800),
        right in vec(0u64..30, 1..800),
    ) {
        let mut a = MisraGriesBaseline::new(0.2, 0.5, 64);
        let mut b = MisraGriesBaseline::new(0.2, 0.5, 64);
        a.insert_all(&left);
        b.insert_all(&right);
        use hh_core::MergeableSummary;
        a.merge_from(&b).unwrap();
        let m = (left.len() + right.len()) as u64;
        let k = a.capacity() as u64;
        let combined: Vec<u64> = left.iter().chain(right.iter()).copied().collect();
        for (&item, &f) in &truth(&combined) {
            let est = a.estimate(item);
            prop_assert!(est <= f as f64);
            prop_assert!(est + (m / (k + 1)) as f64 + 1.0 >= f as f64, "item {item}");
        }
    }

    #[test]
    fn rankings_stay_permutations_under_ops(n in 1usize..30, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let r = Ranking::random(n, &mut rng);
        // Positions invert the order.
        let pos = r.positions();
        for p in 0..n {
            prop_assert_eq!(pos[r.at(p) as usize] as usize, p);
        }
        // Borda contributions are a permutation of 0..n.
        let mut contrib: Vec<u64> = (0..n as u32).map(|c| r.borda_contribution(c)).collect();
        contrib.sort_unstable();
        prop_assert_eq!(contrib, (0..n as u64).collect::<Vec<_>>());
    }

    #[test]
    fn bitvec_push_bits_roundtrip(values in vec((0u64..u64::MAX, 1u32..64), 0..50)) {
        let mut bv = hh_space::BitVec::new();
        for &(v, w) in &values {
            bv.push_bits(v & ((1u64 << w) - 1), w);
        }
        let mut pos = 0usize;
        for &(v, w) in &values {
            prop_assert_eq!(bv.get_bits(pos, w), v & ((1u64 << w) - 1));
            pos += w as usize;
        }
    }
}
