//! Space-accounting integration: every summary's `model_bits` must be
//! meaningful (realizable, monotone in the right parameters).

use hh_baselines::{MisraGriesBaseline, SpaceSaving};
use hh_core::{HhParams, OptimalListHh, Report, SimpleListHh, StreamSummary};
use hh_integration::planted;
use hh_space::{bounds, SpaceUsage, VarCounterArray};
use hh_streams::{collect_stream, ZipfGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

const M: u64 = 120_000;
const HEAVY: [(u64, f64); 2] = [(1, 0.3), (2, 0.2)];

#[test]
fn model_bits_are_realizable_gamma_codes() {
    // The accounting claims Σ gamma(c); the GammaVec encoding must attain
    // exactly that length.
    let mut a = VarCounterArray::new(64);
    for i in 0..1000u64 {
        a.add((i % 64) as usize, i % 17);
    }
    assert_eq!(a.model_bits(), a.to_gamma().bit_len() as u64);
}

#[test]
fn algo1_space_grows_with_inverse_eps() {
    let stream = planted(M, &HEAVY, 1);
    let mut bits = Vec::new();
    for eps in [0.1, 0.05, 0.025] {
        let params = HhParams::with_delta(eps, 0.2, 0.1).unwrap();
        let mut a = SimpleListHh::new(params, 1 << 40, M, 2).unwrap();
        a.insert_all(&stream);
        bits.push(a.model_bits());
    }
    // Table fill fluctuates with Misra-Gries churn, so adjacent points
    // can wobble; the 4x endpoints must order cleanly.
    assert!(
        bits[2] > bits[0],
        "bits must grow over a 4x eps change: {bits:?}"
    );
}

#[test]
fn algo1_beats_misra_gries_on_wide_universes() {
    let n = 1u64 << 60;
    let eps = 0.02;
    let stream = planted(1 << 21, &HEAVY, 3);
    let params = HhParams::with_delta(eps, 0.25, 0.1).unwrap();
    let mut a1 = SimpleListHh::new(params, n, 1 << 21, 4).unwrap();
    a1.insert_all(&stream);
    // Capacity-matched raw-id Misra-Gries bound.
    let mg_bits = (4.0 / eps) * (60.0 + 21.0);
    assert!(
        (a1.model_bits() as f64) < mg_bits,
        "{} !< {mg_bits}",
        a1.model_bits()
    );
}

#[test]
fn upper_bounds_sit_above_lower_bound_formulas() {
    // The Table-1 formulas must be internally consistent over a grid.
    for &eps in &[0.1, 0.02] {
        for &phi in &[0.5, 0.2] {
            for &n in &[1u64 << 10, 1 << 40] {
                let m = 1u64 << 30;
                assert!(bounds::heavy_hitters(eps, phi, n, m) > 0.0);
                assert!(
                    bounds::minimum_upper(eps, m)
                        >= 0.9 * bounds::minimum_lower(eps, m).min(bounds::minimum_upper(eps, m))
                );
                assert!(
                    bounds::maximin_upper(eps, n.min(1024), m)
                        >= bounds::maximin_lower(eps, n.min(1024), m)
                );
            }
        }
    }
}

#[test]
fn heap_bytes_never_zero_for_nonempty_tables() {
    let stream = planted(M, &HEAVY, 5);
    let params = HhParams::with_delta(0.05, 0.2, 0.1).unwrap();
    let mut a2 = OptimalListHh::new(params, 1 << 40, M, 6).unwrap();
    a2.insert_all(&stream);
    assert!(a2.heap_bytes() > 0);
    assert!(a2.model_bits() > 0);
    // The word-RAM footprint exceeds the information-theoretic model — we
    // never under-report real memory.
    assert!((a2.heap_bytes() as u64) * 8 >= a2.model_bits());
}

#[test]
fn space_saving_and_mg_price_ids_by_universe() {
    let mut small = SpaceSaving::with_capacity(32, 0.3, 1 << 8);
    let mut large = SpaceSaving::with_capacity(32, 0.3, 1 << 56);
    let mut mg_small = MisraGriesBaseline::new(0.1, 0.3, 1 << 8);
    let mut mg_large = MisraGriesBaseline::new(0.1, 0.3, 1 << 56);
    for i in 0..10_000u64 {
        let x = i % 40;
        small.insert(x);
        large.insert(x);
        mg_small.insert(x);
        mg_large.insert(x);
    }
    assert!(large.model_bits() > small.model_bits());
    assert!(mg_large.model_bits() > mg_small.model_bits());
    // Exactly 48 extra bits per stored id.
    assert_eq!(
        large.model_bits() - small.model_bits(),
        48 * large.len() as u64
    );
}

#[test]
fn reports_codec_round_trip() {
    let stream = planted(M, &HEAVY, 7);
    let params = HhParams::with_delta(0.05, 0.2, 0.1).unwrap();
    let mut a = SimpleListHh::new(params, 1 << 40, M, 8).unwrap();
    a.insert_all(&stream);
    use hh_core::HeavyHitters;
    let report = a.report();
    let entries: Vec<(u64, f64)> = report.entries().iter().map(|e| (e.item, e.count)).collect();
    let rebuilt = Report::new(
        entries
            .iter()
            .map(|&(item, count)| hh_core::ItemEstimate { item, count })
            .collect(),
    );
    assert_eq!(rebuilt.entries(), report.entries());
}

#[test]
fn algo2_heap_stays_within_a_stated_factor_of_its_model_bits() {
    // DESIGN.md §10.2's gate: a served-shape tenant (ε 0.05, φ 0.15,
    // δ 0.1, 32-bit universe, m = 200 000, so p = 1) fed its whole
    // advertised stream holds at most this many heap bits per model bit.
    // Steeper Zipf shapes need fewer model bits for the same tables, so
    // Zipf 2.0 sits closest to the factor (~18); with a dense `u64` T2
    // and a separate row offset per cell it read ~44.
    const FACTOR: f64 = 24.0;
    let params = HhParams::with_delta(0.05, 0.15, 0.1).unwrap();
    let m = 200_000u64;
    for exponent in [1.2, 1.5, 2.0] {
        for seed in 1..=5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut zipf = ZipfGenerator::new(1 << 32, exponent).scrambled(&mut rng);
            let stream = collect_stream(&mut zipf, m as usize, &mut rng);
            let mut a = OptimalListHh::with_seeds(params, 1 << 32, m, 42, seed).unwrap();
            for batch in stream.chunks(1024) {
                a.insert_batch(batch);
            }
            let ratio = (a.heap_bytes() * 8) as f64 / a.model_bits() as f64;
            assert!(
                ratio <= FACTOR,
                "Zipf {exponent}, seed {seed}: {ratio:.1} heap bits per model bit"
            );
        }
    }
}
