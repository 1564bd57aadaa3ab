//! Algorithm 1: the simple, near-optimal (ε, φ)-List heavy hitters
//! algorithm (Theorem 1).
//!
//! Pipeline, exactly as in §3.1.1:
//!
//! 1. **Sample** each stream item with probability `p = Θ(ℓ/m)` where
//!    `ℓ = Θ(ε⁻² log δ⁻¹)`; by Lemma 3 the sampled stream preserves all
//!    relative frequencies to ±ε/4.
//! 2. **Hash ids** into a range of `Θ(ℓ²/δ)` so that, by Lemma 2, the
//!    sampled items have no colliding ids — this shrinks per-key storage
//!    from `log n` to `O(log(ℓ²/δ)) = O(log ε⁻¹)` bits, which is the whole
//!    space win over Misra–Gries.
//! 3. **Misra–Gries** over the hashed ids with `Θ(1/ε)` counters (table
//!    `T1`).
//! 4. **Raw-id table** `T2` keeps the actual ids of the top `Θ(1/φ)` keys
//!    of `T1` (only `Θ(φ⁻¹ log n)` bits), kept consistent with `T1` as
//!    counts move.
//!
//! At report time, every `T2` item whose `T1` count clears
//! `(φ − ε/2)·s` is output with the estimate `count / p`.
//!
//! Update time is `O(1)`: unsampled items cost one skip-counter decrement,
//! and sampled items are `Θ(1/(pε)) ≫ k` positions apart on average so
//! table work amortizes below one operation per position (§3.1's
//! "spreading" argument; the skip sampler makes the common path branch-
//! free).

use crate::cache::QueryCache;
use crate::config::{Constants, HhParams};
use crate::error::{MergeError, ParamError, SnapshotError};
use crate::mergeable::{check_compatible, snapshot, MergeableSummary};
use crate::mg::MisraGries;
use crate::report::{ItemEstimate, Report};
use crate::traits::{HeavyHitters, StreamSummary};
use hh_hash::{CarterWegmanFamily, CarterWegmanHash, HashFamily, HashFunction};
use hh_sampling::SkipSampler;
use hh_space::codec::{Codec, CodecError, Reader, Writer};
use hh_space::SpaceUsage;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Algorithm 1 of the paper (Theorem 1).
#[derive(Debug, Clone)]
pub struct SimpleListHh {
    params: HhParams,
    universe: u64,
    sampler: SkipSampler,
    /// Actual (power-of-two-rounded) sampling probability.
    p: f64,
    hash: CarterWegmanHash,
    /// Misra–Gries over hashed ids.
    t1: MisraGries,
    /// `(hashed id, raw id)` for the currently-top `t2_cap` keys of `T1`.
    /// Only the raw id is charged in the space model — the hashed id is
    /// recomputable as `hash(raw)` and is kept as a word-RAM convenience.
    t2: Vec<(u64, u64)>,
    t2_cap: usize,
    /// Number of sampled items `s = |S|`.
    samples: u64,
    rng: StdRng,
    /// Materialized report, invalidated by the sampled-insert path and
    /// `merge_from` (unsampled items change no query-visible state);
    /// restore builds a fresh, cold value. See `QueryCache`.
    cache: QueryCache<Report>,
}

impl SimpleListHh {
    /// Creates the algorithm for a stream of advertised length `m` over
    /// universe `[0, universe)`, with the default constants profile.
    pub fn new(params: HhParams, universe: u64, m: u64, seed: u64) -> Result<Self, ParamError> {
        Self::with_constants(params, universe, m, seed, Constants::default())
    }

    /// Creates the algorithm with an explicit constants profile.
    pub fn with_constants(
        params: HhParams,
        universe: u64,
        m: u64,
        seed: u64,
        consts: Constants,
    ) -> Result<Self, ParamError> {
        if m == 0 {
            return Err(ParamError::ZeroLength);
        }
        let eps = params.eps();
        let delta = params.delta();

        // ℓ = Θ(ε⁻² ln δ⁻¹) — the Lemma-3 budget.
        let ell = (consts.sample_factor * (6.0 / delta).ln() / (eps * eps)).ceil();
        if !ell.is_finite() || ell < 1.0 {
            return Err(ParamError::BadConstants("sample budget overflow"));
        }
        // Target twice ℓ before power-of-two rounding so the realized
        // expectation stays at or above ℓ.
        let p_target = (2.0 * ell / m as f64).min(1.0);
        let exponent = hh_sampling::bernoulli::pow2_exponent(p_target);
        // Collision-free hashed-id range (Lemma 2): s ≤ 6ℓ + 64 w.h.p.
        let s_cap = 6.0 * ell + 64.0;
        Self::with_sampling_exponent(params, universe, seed, consts, exponent, s_cap)
    }

    /// Advanced constructor used by the unknown-stream-length wrapper
    /// (Theorem 7): the sampling probability is forced to `2^{-exponent}`
    /// and the collision-free hash range is sized for up to
    /// `expected_samples_cap` sampled items.
    pub fn with_sampling_exponent(
        params: HhParams,
        universe: u64,
        seed: u64,
        consts: Constants,
        exponent: u32,
        expected_samples_cap: f64,
    ) -> Result<Self, ParamError> {
        if universe == 0 {
            return Err(ParamError::EmptyUniverse);
        }
        let eps = params.eps();
        let delta = params.delta();
        let mut rng = StdRng::seed_from_u64(seed);

        let sampler = SkipSampler::with_exponent(exponent);
        let p = sampler.probability();

        let s_cap = expected_samples_cap.max(64.0);
        let hash_range =
            ((consts.hash_range_factor * s_cap * s_cap / delta).ceil() as u64).clamp(64, 1 << 60);
        let hash = CarterWegmanFamily::new(hash_range).sample(&mut rng);

        let k = (consts.mg_capacity_factor / eps).ceil() as usize;
        let t1 = MisraGries::new(k.max(1), hh_space::id_bits(hash_range));

        // T2 capacity: enough that no true heavy hitter can be evicted by
        // items of genuinely larger count (at most 1/(φ − 3ε/4) of them).
        let t2_cap = (1.0 / (params.phi() - 0.75 * eps)).ceil() as usize + 4;

        Ok(Self {
            params,
            universe,
            sampler,
            p,
            hash,
            t1,
            t2: Vec::with_capacity(t2_cap),
            t2_cap,
            samples: 0,
            rng,
            cache: QueryCache::new(),
        })
    }

    /// Creates a **seed-aligned** instance for merge-based pipelines:
    /// the hash function is drawn from `structure_seed` while the
    /// sampling coins run off `stream_seed`. Instances sharing a
    /// structure seed agree on their hashed-id space — the precondition
    /// for [`MergeableSummary::merge_from`] — while distinct stream
    /// seeds keep their sampling decisions independent across shards.
    pub fn with_seeds(
        params: HhParams,
        universe: u64,
        m: u64,
        structure_seed: u64,
        stream_seed: u64,
    ) -> Result<Self, ParamError> {
        let mut a =
            Self::with_constants(params, universe, m, structure_seed, Constants::default())?;
        a.rng = StdRng::seed_from_u64(stream_seed);
        Ok(a)
    }

    /// The realized sampling probability (after power-of-two rounding).
    pub fn sampling_probability(&self) -> f64 {
        self.p
    }

    /// Number of items sampled so far (`|S|` in the paper).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Problem parameters.
    pub fn params(&self) -> HhParams {
        self.params
    }

    /// Per-term space decomposition `(t1_bits, t2_bits, sampler_bits)`
    /// matching the Theorem-1 bound's terms: `ε⁻¹ log ε⁻¹` (hashed-id
    /// Misra–Gries plus the hash seed), `φ⁻¹ log n` (raw ids), and
    /// `log log m` (sampler).
    pub fn component_bits(&self) -> (u64, u64, u64) {
        let t2_bits = self.t2.len() as u64 * hh_space::id_bits(self.universe)
            + (self.t2_cap - self.t2.len()) as u64;
        (
            self.t1.model_bits() + self.hash.model_bits(),
            t2_bits,
            self.sampler.model_bits(),
        )
    }

    /// Maintains the `T2` invariant after the count of `hashed` rose to
    /// `count` with raw id `raw`.
    fn update_t2(&mut self, hashed: u64, raw: u64, count: u64) {
        if self.t2.iter().any(|&(h, _)| h == hashed) {
            return; // already tracked; counts are read from T1 at report
        }
        if self.t2.len() < self.t2_cap {
            self.t2.push((hashed, raw));
            return;
        }
        // Replace the current minimum if strictly smaller than `count`.
        // Entries whose key fell out of T1 have estimate 0 and go first.
        if let Some((min_idx, min_count)) = self
            .t2
            .iter()
            .enumerate()
            .map(|(i, &(h, _))| (i, self.t1.estimate(h)))
            .min_by_key(|&(_, c)| c)
        {
            if min_count < count {
                self.t2[min_idx] = (hashed, raw);
            }
        }
    }
}

impl StreamSummary for SimpleListHh {
    fn insert(&mut self, item: u64) {
        debug_assert!(item < self.universe, "item outside declared universe");
        if !self.sampler.accept(&mut self.rng) {
            return;
        }
        self.sampled_insert(item);
    }

    /// Batch ingestion: instead of offering every element to the skip
    /// sampler (one counter decrement each), jump straight to the next
    /// sampled position with [`SkipSampler::next_within`] — an unsampled
    /// run costs one subtraction and its elements are never even loaded.
    /// RNG draw order matches the element-wise path exactly, so a
    /// same-seed batch run is bit-identical to element-wise insertion.
    fn insert_batch(&mut self, items: &[u64]) {
        debug_assert!(
            items.iter().all(|&x| x < self.universe),
            "item outside declared universe"
        );
        // p = 1: nothing to skip — the scalar loop is the fast path
        // (see `OptimalListHh::insert_batch`).
        if self.sampler.exponent() == 0 {
            for &x in items {
                self.insert(x);
            }
            return;
        }
        let mut i = 0usize;
        let n = items.len();
        while i < n {
            match self.sampler.next_within((n - i) as u64, &mut self.rng) {
                None => break,
                Some(off) => {
                    i += off as usize;
                    self.sampled_insert(items[i]);
                    i += 1;
                }
            }
        }
    }
}

impl SimpleListHh {
    /// The per-sample body shared by the scalar and batch insert paths.
    #[inline]
    fn sampled_insert(&mut self, item: u64) {
        // Sampled items are query-visible; unsampled ones never get here.
        self.cache.invalidate();
        self.samples += 1;
        let hashed = self.hash.hash(item);
        self.t1.insert(hashed);
        let count = self.t1.estimate(hashed);
        self.update_t2(hashed, item, count);
    }
}

impl HeavyHitters for SimpleListHh {
    /// The report; a cache hit (one clone of the materialized report)
    /// after a quiescent period, a `T2`-scan rebuild on the first query
    /// after a mutation.
    fn report(&self) -> Report {
        self.cache.get_or_build(|| self.build_report()).clone()
    }
}

impl SimpleListHh {
    /// The cold report pass: every `T2` item whose merged-`T1` count
    /// clears `(φ − ε/2)·s` is output at `count / p`.
    fn build_report(&self) -> Report {
        if self.samples == 0 {
            return Report::default();
        }
        let threshold = (self.params.phi() - self.params.eps() / 2.0) * self.samples as f64;
        self.t2
            .iter()
            .filter_map(|&(hashed, raw)| {
                let c = self.t1.estimate(hashed);
                (c as f64 >= threshold).then(|| ItemEstimate {
                    item: raw,
                    count: c as f64 / self.p,
                })
            })
            .collect()
    }
}

impl crate::traits::FrequencyEstimator for SimpleListHh {
    /// Point query: the hashed-id Misra–Gries count scaled back by the
    /// sampling rate. Sound for any item (the hash is evaluated on
    /// demand), with the same `±εm` accuracy as reported items for items
    /// heavy enough to survive the table; light items may read as 0.
    fn estimate(&self, item: u64) -> f64 {
        self.t1.estimate(self.hash.hash(item)) as f64 / self.p
    }
}

impl SpaceUsage for SimpleListHh {
    fn model_bits(&self) -> u64 {
        let t2_bits = self.t2.len() as u64 * hh_space::id_bits(self.universe)
            + (self.t2_cap - self.t2.len()) as u64;
        self.t1.model_bits() + t2_bits + self.hash.model_bits() + self.sampler.model_bits()
    }

    fn heap_bytes(&self) -> usize {
        self.t1.heap_bytes() + self.t2.capacity() * 16
    }
}

/// Snapshot format version tag (v3: a trailing integrity checksum
/// guards the whole buffer; v4: signed with its folded lane step).
const A1_TAG: &str = "hh.algo1.v4";
/// Largest `T2` capacity a snapshot may claim. Real capacities are
/// `Θ(1/φ)` with `φ > ε > 0`, far below this; the bound exists so a
/// forged snapshot cannot commit a restored instance to unbounded
/// future growth.
const T2_CAP_LIMIT: usize = 1 << 24;

/// Full-state snapshot: parameters, hash seed, both tables, the sample
/// count, and the sampler/RNG state, so a restored instance reports
/// bit-identically *and* continues ingesting exactly as the original
/// would have.
impl Codec for SimpleListHh {
    fn write_to(&self, w: &mut Writer) {
        self.params.write_to(w);
        w.write_u64(self.universe);
        self.sampler.write_to(w);
        self.hash.write_to(w);
        self.t1.write_to(w);
        self.t2.write_to(w);
        w.write_u64(self.t2_cap as u64);
        w.write_u64(self.samples);
        snapshot::write_rng_state(self.rng.to_state(), w);
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let params = HhParams::read_from(r)?;
        let universe = r.read_u64()?;
        if universe == 0 {
            return Err(CodecError::invariant("empty universe"));
        }
        let sampler = SkipSampler::read_from(r)?;
        let hash = CarterWegmanHash::read_from(r)?;
        let t1 = MisraGries::read_from(r)?;
        let t2: Vec<(u64, u64)> = Vec::read_from(r)?;
        let t2_cap = r.read_u64()?;
        if t2_cap == 0 || t2_cap > T2_CAP_LIMIT as u64 {
            return Err(CodecError::invariant("T2 capacity out of range"));
        }
        let t2_cap = t2_cap as usize;
        if t2.len() > t2_cap {
            return Err(CodecError::invariant("T2 overflows its capacity"));
        }
        let samples = r.read_u64()?;
        let rng = StdRng::from_state(snapshot::read_rng_state(r)?);
        let p = sampler.probability();
        Ok(Self {
            params,
            universe,
            sampler,
            p,
            hash,
            t1,
            t2,
            t2_cap,
            samples,
            rng,
            cache: QueryCache::new(),
        })
    }
}

impl MergeableSummary for SimpleListHh {
    /// Seed-aligned merge: requires both instances to share the hash
    /// seed and sampling rate (build them with
    /// [`SimpleListHh::with_seeds`] under one structure seed). The
    /// hashed-id Misra–Gries tables merge counter-wise, the raw-id
    /// tables union and keep the `Θ(1/φ)` heaviest keys of the merged
    /// `T1`, and the sample counts add — afterwards `self` summarizes
    /// the concatenated sampled stream with the combined `s`.
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        check_compatible(&self.params, &other.params, "parameters")?;
        check_compatible(&self.universe, &other.universe, "universes")?;
        check_compatible(&self.hash, &other.hash, "hash seeds")?;
        check_compatible(&self.p, &other.p, "sampling rates")?;
        check_compatible(&self.t2_cap, &other.t2_cap, "T2 capacities")?;
        self.cache.invalidate();
        self.t1.merge_from(&other.t1)?;
        // Saturating: counter accumulation must stay total even for
        // near-u64::MAX counts smuggled in through a restored snapshot.
        self.samples = self.samples.saturating_add(other.samples);
        // Union of tracked raw ids, re-ranked by the merged T1 counts.
        let mut merged = std::mem::take(&mut self.t2);
        for &(hashed, raw) in &other.t2 {
            if !merged.iter().any(|&(h, _)| h == hashed) {
                merged.push((hashed, raw));
            }
        }
        if merged.len() > self.t2_cap {
            merged.sort_unstable_by_key(|&(h, _)| (std::cmp::Reverse(self.t1.estimate(h)), h));
            merged.truncate(self.t2_cap);
        }
        self.t2 = merged;
        Ok(())
    }

    fn to_bytes(&self) -> Vec<u8> {
        snapshot::encode(A1_TAG, self)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        snapshot::decode(A1_TAG, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_streams::{arrange, OrderPolicy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn planted_stream(m: u64, heavy: &[(u64, f64)], seed: u64) -> Vec<u64> {
        // Deterministic counts: heavy items get exactly round(p*m), filler
        // is spread over many distinct light ids.
        let mut counts: Vec<(u64, u64)> = heavy
            .iter()
            .map(|&(id, frac)| (id, (frac * m as f64).round() as u64))
            .collect();
        let used: u64 = counts.iter().map(|&(_, c)| c).sum();
        let fill = m - used;
        let light_ids = 4096u64;
        for j in 0..light_ids {
            let c = fill / light_ids + u64::from(j < fill % light_ids);
            if c > 0 {
                counts.push((1_000_000 + j, c));
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        arrange(&counts, OrderPolicy::Shuffled, &mut rng)
    }

    #[test]
    fn finds_planted_heavy_hitters() {
        let m = 400_000u64;
        let params = HhParams::with_delta(0.02, 0.1, 0.1).unwrap();
        let stream = planted_stream(m, &[(7, 0.30), (8, 0.15), (9, 0.11)], 1);
        let mut a = SimpleListHh::new(params, 1 << 40, m, 99).unwrap();
        a.insert_all(&stream);
        let r = a.report();
        for item in [7u64, 8, 9] {
            assert!(r.contains(item), "missing heavy item {item}");
        }
        // Estimates within εm.
        for (item, frac) in [(7u64, 0.30), (8, 0.15), (9, 0.11)] {
            let est = r.estimate(item).unwrap();
            let truth = frac * m as f64;
            assert!(
                (est - truth).abs() <= 0.02 * m as f64,
                "item {item}: est {est} truth {truth}"
            );
        }
    }

    #[test]
    fn rejects_items_below_phi_minus_eps() {
        let m = 400_000u64;
        let params = HhParams::with_delta(0.02, 0.1, 0.1).unwrap();
        // 30% heavy, plus an item at exactly (φ−ε)m = 8% — must NOT be
        // reported; φ-level items MUST be.
        let stream = planted_stream(m, &[(7, 0.30), (55, 0.08)], 2);
        let mut a = SimpleListHh::new(params, 1 << 40, m, 17).unwrap();
        a.insert_all(&stream);
        let r = a.report();
        assert!(r.contains(7));
        assert!(!r.contains(55), "item at (phi-eps)m must be suppressed");
    }

    #[test]
    fn order_independence() {
        let m = 200_000u64;
        let params = HhParams::with_delta(0.04, 0.2, 0.1).unwrap();
        let counts: Vec<(u64, u64)> =
            vec![(5, (0.4 * m as f64) as u64), (6, (0.25 * m as f64) as u64)]
                .into_iter()
                .chain((0..2000).map(|j| (100_000 + j, (m as f64 * 0.35 / 2000.0) as u64)))
                .collect();
        for policy in [
            OrderPolicy::Sorted,
            OrderPolicy::RoundRobin,
            OrderPolicy::HeavyLast,
        ] {
            let mut rng = StdRng::seed_from_u64(3);
            let stream = arrange(&counts, policy, &mut rng);
            let mut a = SimpleListHh::new(params, 1 << 40, stream.len() as u64, 7).unwrap();
            a.insert_all(&stream);
            let r = a.report();
            assert!(r.contains(5), "{policy:?}: missing item 5");
            assert!(r.contains(6), "{policy:?}: missing item 6");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let m = 50_000u64;
        let params = HhParams::new(0.05, 0.2).unwrap();
        let stream = planted_stream(m, &[(1, 0.5)], 4);
        let run = |seed| {
            let mut a = SimpleListHh::new(params, 1 << 20, m, seed).unwrap();
            a.insert_all(&stream);
            a.report()
        };
        assert_eq!(run(42).entries(), run(42).entries());
    }

    #[test]
    fn space_well_below_misra_gries_for_large_universe() {
        // Like-for-like comparison: Misra–Gries needs the same counter
        // capacity k = 4/ε to give the same additive error, but stores
        // raw 60-bit ids and full log-m counters. Algorithm 1 stores
        // hashed ids (Θ(log ε⁻¹) bits) and sampled counters.
        let m = 1 << 22;
        let eps = 0.02;
        let n = 1u64 << 60;
        let params = HhParams::with_delta(eps, 0.25, 0.1).unwrap();
        let stream = planted_stream(m, &[(3, 0.5)], 5);
        let mut a = SimpleListHh::new(params, n, m, 11).unwrap();
        a.insert_all(&stream);
        let mg_bits = (4.0 / eps) * (60.0 + (m as f64).log2());
        assert!(
            (a.model_bits() as f64) < mg_bits,
            "model {} not below MG {}",
            a.model_bits(),
            mg_bits
        );
    }

    #[test]
    fn point_queries_track_heavy_items() {
        use crate::traits::FrequencyEstimator;
        let m = 300_000u64;
        let params = HhParams::with_delta(0.04, 0.2, 0.1).unwrap();
        let stream = planted_stream(m, &[(7, 0.35), (8, 0.25)], 21);
        let mut a = SimpleListHh::new(params, 1 << 40, m, 22).unwrap();
        a.insert_all(&stream);
        for (item, frac) in [(7u64, 0.35), (8, 0.25)] {
            let est = a.estimate(item);
            assert!(
                (est - frac * m as f64).abs() <= 0.04 * m as f64,
                "item {item}: est {est}"
            );
        }
        // A never-seen item cannot be overestimated beyond the MG error.
        assert!(a.estimate(999_999_999) <= 0.04 * m as f64);
    }

    #[test]
    fn batch_insert_is_bit_identical_to_element_wise() {
        let m = 120_000u64;
        let params = HhParams::with_delta(0.04, 0.2, 0.1).unwrap();
        let stream = planted_stream(m, &[(7, 0.35)], 13);
        let mut a = SimpleListHh::new(params, 1 << 40, m, 5).unwrap();
        for &x in &stream {
            a.insert(x);
        }
        let mut b = SimpleListHh::new(params, 1 << 40, m, 5).unwrap();
        for chunk in stream.chunks(1237) {
            b.insert_batch(chunk);
        }
        assert_eq!(a.report().entries(), b.report().entries());
        assert_eq!(a.samples(), b.samples());
        assert_eq!(a.model_bits(), b.model_bits());
    }

    #[test]
    fn empty_stream_reports_nothing() {
        let params = HhParams::new(0.1, 0.3).unwrap();
        let a = SimpleListHh::new(params, 100, 1000, 0).unwrap();
        assert!(a.report().is_empty());
    }

    #[test]
    fn merged_partitions_find_the_heavy_hitters() {
        let m = 400_000u64;
        let params = HhParams::with_delta(0.04, 0.12, 0.1).unwrap();
        let stream = planted_stream(m, &[(7, 0.30), (8, 0.15), (55, 0.06)], 31);
        let mut parts: Vec<SimpleListHh> = (0..3)
            .map(|j| SimpleListHh::with_seeds(params, 1 << 40, m, 9, 100 + j).unwrap())
            .collect();
        // Arbitrary position-based partition: round-robin over the parts.
        for (i, &x) in stream.iter().enumerate() {
            parts[i % 3].insert(x);
        }
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge_from(p).unwrap();
        }
        let r = merged.report();
        assert!(
            r.contains(7) && r.contains(8),
            "merged report misses heavy items"
        );
        assert!(!r.contains(55), "(phi-eps)-light item must stay suppressed");
        for (item, frac) in [(7u64, 0.30), (8, 0.15)] {
            let est = r.estimate(item).unwrap();
            assert!(
                (est - frac * m as f64).abs() <= 0.04 * m as f64,
                "item {item}: est {est}"
            );
        }
    }

    #[test]
    fn merge_rejects_differently_seeded_instances() {
        use crate::error::MergeError;
        let params = HhParams::new(0.05, 0.2).unwrap();
        let mut a = SimpleListHh::with_seeds(params, 1 << 20, 10_000, 1, 10).unwrap();
        let b = SimpleListHh::with_seeds(params, 1 << 20, 10_000, 2, 11).unwrap();
        assert_eq!(
            a.merge_from(&b),
            Err(MergeError::Incompatible("hash seeds"))
        );
    }

    #[test]
    fn snapshot_restores_report_and_resumes_bit_identically() {
        let m = 150_000u64;
        let params = HhParams::with_delta(0.05, 0.2, 0.1).unwrap();
        let stream = planted_stream(m, &[(7, 0.4)], 8);
        let (head, tail) = stream.split_at(stream.len() / 2);
        let mut a = SimpleListHh::new(params, 1 << 40, m, 3).unwrap();
        a.insert_batch(head);
        let mut restored = SimpleListHh::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(a.report().entries(), restored.report().entries());
        assert_eq!(a.model_bits(), restored.model_bits());
        // Resuming the stream on the restored copy matches the original.
        a.insert_batch(tail);
        restored.insert_batch(tail);
        assert_eq!(a.report().entries(), restored.report().entries());
        assert_eq!(a.samples(), restored.samples());
    }

    #[test]
    fn constructor_validates() {
        let params = HhParams::new(0.1, 0.3).unwrap();
        assert!(matches!(
            SimpleListHh::new(params, 0, 10, 0),
            Err(ParamError::EmptyUniverse)
        ));
        assert!(matches!(
            SimpleListHh::new(params, 10, 0, 0),
            Err(ParamError::ZeroLength)
        ));
    }
}
