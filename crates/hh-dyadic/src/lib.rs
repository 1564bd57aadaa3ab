//! Dyadic hierarchical heavy hitters: range and prefix queries.
//!
//! The paper's (ε, φ)-guarantee is point-wise, but the classic
//! network-telemetry question is hierarchical: *which IP prefixes are
//! elephants?* The standard route (Cormode–Muthukrishnan, and the
//! practical counterpart of Li–Nakos's sublinear-query goal — see
//! DESIGN.md §13) is a bank of L = ⌈log₂ n⌉ point summaries, one per
//! **dyadic level**: level k summarizes the stream projected onto its
//! k-bit prefixes, so level-k item `i` *is* the dyadic interval
//! `[i·2^(L−k), (i+1)·2^(L−k))`. Every stream item updates its one
//! ancestor per level; every query decomposes into level nodes:
//!
//! * [`DyadicHh::heavy_ranges`] walks the tree top-down, visiting only
//!   children of heavy parents (interval mass is monotone under
//!   containment, so a heavy node's ancestors are all heavy — the
//!   descent prunes to `O(φ⁻¹ log n)` nodes instead of scanning `n`).
//! * [`DyadicHh::range_estimate`] writes any interval `[lo, hi]` as at
//!   most 2 **canonical** dyadic nodes per level (the classic
//!   decomposition), summing ≤ 2L point estimates.
//!
//! Every level is a Count-Min sketch, and the bank inherits the full
//! workspace contract: level-wise [`merge_from`] (same-seed banks merge
//! cell-wise, exactly like a single sketch), a tagged `hh.dyadic.v2`
//! snapshot with the snapshot checksum trailer and fail-closed bounded
//! decoding, [`SpaceUsage`], and cached queries — each level sketch
//! keeps its own [`QueryCache`]d report, and the bank caches the
//! descent at the configured φ, so repeated queries over a warm bank
//! cost a clone.
//!
//! [`merge_from`]: MergeableSummary::merge_from
//!
//! # Example
//!
//! ```
//! use hh_core::StreamSummary;
//! use hh_dyadic::DyadicHh;
//!
//! // 16-bit key space; report prefixes above 20% of the stream.
//! let mut bank = DyadicHh::count_min(0.05, 0.2, 0.01, 1 << 16, 42).unwrap();
//! for i in 0..100_000u64 {
//!     // Half the stream lands in the 256-wide block [0xAB00, 0xABFF].
//!     bank.insert(if i % 2 == 0 { 0xAB00 + (i % 256) } else { i % (1 << 16) });
//! }
//! // The /8 block is heavy at its level ...
//! assert!(bank
//!     .heavy_ranges(0.2)
//!     .iter()
//!     .any(|r| r.lo == 0xAB00 && r.hi == 0xABFF));
//! // ... and range queries see its mass without enumerating points.
//! let est = bank.range_estimate(0xAB00, 0xABFF);
//! assert!((est - 50_000.0).abs() < 5_000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hh_baselines::CountMin;
use hh_core::mergeable::snapshot;
use hh_core::{
    FrequencyEstimator, HeavyHitters, ItemEstimate, MergeError, MergeableSummary, ParamError,
    QueryCache, Report, SnapshotError, StreamSummary,
};
use hh_hash::mix64;
use hh_space::codec::{Codec, CodecError, Reader, Writer};
use hh_space::{gamma_bits, SpaceUsage};

/// Snapshot tag for [`DyadicHh`] banks. Each level buffer carries its
/// own Count-Min tag, so a bank whose levels hold any other summary
/// fails closed at decode. v2 is signed with the checksum's folded lane
/// step.
pub const TAG: &str = "hh.dyadic.v2";

fn check_compatible<T: PartialEq>(a: &T, b: &T, what: &'static str) -> Result<(), MergeError> {
    if a == b {
        Ok(())
    } else {
        Err(MergeError::Incompatible(what))
    }
}

/// One heavy dyadic interval, as reported by [`DyadicHh::heavy_ranges`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeavyRange {
    /// Dyadic level (1 ..= key_bits); level k nodes are k-bit prefixes.
    pub level: u32,
    /// The node's index at its level (the prefix value).
    pub index: u64,
    /// First point of the interval (inclusive).
    pub lo: u64,
    /// Last point of the interval (inclusive).
    pub hi: u64,
    /// Estimated interval mass, in stream counts.
    pub count: f64,
}

impl HeavyRange {
    /// Number of points the interval covers (saturating at `u64::MAX`
    /// for the 2⁶⁴-wide root-level nodes).
    pub fn span(&self) -> u64 {
        (self.hi - self.lo).saturating_add(1)
    }
}

/// A bank of L = key_bits Count-Min level sketches answering heavy
/// dyadic range and prefix queries; see the crate docs for the scheme.
#[derive(Debug, Clone)]
pub struct DyadicHh {
    /// `levels[k-1]` summarizes level k: the stream's k-bit prefixes.
    levels: Vec<CountMin>,
    /// L: number of levels, `hh_space::id_bits(universe)`.
    key_bits: u32,
    /// Size of the point universe (items are `0 .. universe`).
    universe: u64,
    /// Additive-error fraction the bank was built for.
    eps: f64,
    /// Heaviness threshold the bank was built for.
    phi: f64,
    /// Stream items processed (the mass of the virtual root).
    processed: u64,
    /// Reused shift buffer for batch ingestion (not part of the state:
    /// never serialized, never compared).
    scratch: Vec<u64>,
    /// Cached descent at the configured φ; invalidated on every
    /// mutation, like the per-summary report caches.
    cache: QueryCache<Vec<HeavyRange>>,
}

impl DyadicHh {
    /// One Count-Min sketch per level, calibrated so the **bank-level**
    /// guarantees come out at the requested `(eps, phi, delta)` —
    /// per-level error is `eps / (2L)` (a range decomposition sums
    /// ≤ 2L one-sided node errors) and per-level failure is `delta / L`
    /// (union bound over the descent). Level k's sketch covers the
    /// universe `u_k = min(2^k, 2^64 − 1)` with L =
    /// `hh_space::id_bits(universe)`.
    ///
    /// All structure lives in the seed: banks built with the same
    /// `(eps, phi, delta, universe, seed)` are merge-compatible.
    ///
    /// # Errors
    /// [`ParamError`] if `(eps, phi, delta)` is not a valid heavy-hitter
    /// configuration or the universe is empty.
    pub fn count_min(
        eps: f64,
        phi: f64,
        delta: f64,
        universe: u64,
        seed: u64,
    ) -> Result<Self, ParamError> {
        if !(delta > 0.0 && delta < 1.0) {
            return Err(ParamError::DeltaOutOfRange(delta));
        }
        if !(eps > 0.0 && eps < 1.0) {
            return Err(ParamError::EpsOutOfRange(eps));
        }
        if !(phi > 0.0 && phi <= 1.0) {
            return Err(ParamError::PhiOutOfRange(phi));
        }
        if eps >= phi {
            return Err(ParamError::EpsNotBelowPhi { eps, phi });
        }
        if universe == 0 {
            return Err(ParamError::EmptyUniverse);
        }
        let key_bits = hh_space::id_bits(universe) as u32;
        let eps_level = eps / (2.0 * f64::from(key_bits));
        let delta_level = delta / f64::from(key_bits);
        let levels = (1..=key_bits)
            .map(|k| {
                CountMin::new(
                    eps_level,
                    phi,
                    delta_level,
                    Self::level_universe(k),
                    mix64(seed ^ k as u64),
                )
            })
            .collect();
        Ok(Self {
            levels,
            key_bits,
            universe,
            eps,
            phi,
            processed: 0,
            scratch: Vec::new(),
            cache: QueryCache::new(),
        })
    }

    /// The universe of level k: `2^k`, saturated for k = 64.
    fn level_universe(k: u32) -> u64 {
        if k >= 64 {
            u64::MAX
        } else {
            1u64 << k
        }
    }

    /// Number of dyadic levels L (= bits per key).
    pub fn key_bits(&self) -> u32 {
        self.key_bits
    }

    /// The point universe the bank was built for.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// The configured additive-error fraction ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The configured heaviness threshold φ.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Stream items processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The level sketches, coarsest (1-bit prefixes) first.
    pub fn levels(&self) -> &[CountMin] {
        &self.levels
    }
}

/// `parts` merge-compatible Count-Min banks: identical structure (the
/// sketch is deterministic given the seed), ready for
/// [`hh_pipeline::partition_and_merge`].
///
/// # Errors
/// [`ParamError`] on an invalid configuration.
pub fn seed_aligned_count_min(
    eps: f64,
    phi: f64,
    delta: f64,
    universe: u64,
    parts: usize,
    seed: u64,
) -> Result<Vec<DyadicHh>, ParamError> {
    (0..parts)
        .map(|_| DyadicHh::count_min(eps, phi, delta, universe, seed))
        .collect()
}

impl StreamSummary for DyadicHh {
    fn insert(&mut self, item: u64) {
        let l = self.key_bits;
        for k in 1..=l {
            self.levels[(k - 1) as usize].insert(item >> (l - k));
        }
        self.processed += 1;
        self.cache.invalidate();
    }

    fn insert_batch(&mut self, items: &[u64]) {
        if items.is_empty() {
            return;
        }
        let l = self.key_bits;
        // Shift the whole batch once per level and hand it to that
        // level's batch kernel. Each level sees its projection in
        // stream order, so batch ingestion stays bit-identical to the
        // scalar loop (each level's RNG sees the same draw sequence).
        let mut scratch = std::mem::take(&mut self.scratch);
        for k in 1..l {
            let shift = l - k;
            scratch.clear();
            scratch.extend(items.iter().map(|&x| x >> shift));
            self.levels[(k - 1) as usize].insert_batch(&scratch);
        }
        self.levels[(l - 1) as usize].insert_batch(items);
        self.scratch = scratch;
        self.processed += items.len() as u64;
        self.cache.invalidate();
    }
}

impl DyadicHh {
    /// Every dyadic interval whose estimated mass is at least
    /// `phi · processed`, found by top-down descent: level k is read
    /// only under nodes whose level-(k−1) parent qualified, so a warm
    /// query touches `O(φ⁻¹ log n)` cached report entries.
    ///
    /// `phi` at or below the configured threshold returns each level's
    /// native (ε, φ)-report (every ≥ φ-heavy node present, nothing
    /// below φ − ε); a stricter `phi` additionally filters by the
    /// estimates. Results are level-major, then by index. Ancestors of
    /// a heavy node are heavy by containment, so the output is a
    /// downward-closed forest — callers wanting only the *maximal*
    /// intervals keep the entries whose parent `index >> 1` at
    /// `level − 1` is absent.
    pub fn heavy_ranges(&self, phi: f64) -> Vec<HeavyRange> {
        if phi.to_bits() == self.phi.to_bits() {
            return self.cache.get_or_build(|| self.descend(self.phi)).clone();
        }
        self.descend(phi)
    }

    fn descend(&self, phi: f64) -> Vec<HeavyRange> {
        let l = self.key_bits;
        let mass = self.processed as f64;
        // At the configured φ each level's report *is* the guarantee
        // set; only a stricter threshold needs an estimate filter
        // (re-thresholding at a laxer φ than configured cannot recover
        // items the summaries never tracked).
        let stricter = phi > self.phi;
        let mut out = Vec::new();
        // The virtual root (level 0, the whole universe) always holds
        // the full stream; its index 0 seeds the frontier.
        let mut frontier: Vec<u64> = vec![0];
        for k in 1..=l {
            let report = self.levels[(k - 1) as usize].report();
            let mut hits: Vec<(u64, f64)> = report
                .entries()
                .iter()
                .filter(|e| frontier.binary_search(&(e.item >> 1)).is_ok())
                .filter(|e| !stricter || e.count >= phi * mass)
                .map(|e| (e.item, e.count))
                .collect();
            hits.sort_unstable_by_key(|&(i, _)| i);
            let span_shift = l - k;
            for &(index, count) in &hits {
                let lo = (index as u128) << span_shift;
                let hi = lo + ((1u128 << span_shift) - 1);
                out.push(HeavyRange {
                    level: k,
                    index,
                    lo: lo as u64,
                    hi: hi as u64,
                    count,
                });
            }
            frontier = hits.into_iter().map(|(i, _)| i).collect();
            if frontier.is_empty() {
                break;
            }
        }
        out
    }

    /// Estimated mass of the inclusive interval `[lo, hi]`, via the
    /// canonical dyadic decomposition: at most 2 whole nodes per level,
    /// so ≤ 2L point estimates regardless of the interval width. With
    /// the per-level calibration of [`DyadicHh::count_min`] the total
    /// error is `ε · m` with probability 1 − δ.
    pub fn range_estimate(&self, lo: u64, hi: u64) -> f64 {
        if lo > hi {
            return 0.0;
        }
        let l = self.key_bits;
        let (lo, hi) = (lo as u128, hi as u128);
        let mut total = 0.0;
        // (level, index) nodes still straddling a query endpoint.
        let mut stack: Vec<(u32, u64)> = vec![(0, 0)];
        while let Some((k, i)) = stack.pop() {
            let span_shift = l - k;
            let node_lo = (i as u128) << span_shift;
            let node_hi = node_lo + ((1u128 << span_shift) - 1);
            if node_lo > hi || node_hi < lo {
                continue;
            }
            if lo <= node_lo && node_hi <= hi {
                total += if k == 0 {
                    self.processed as f64
                } else {
                    self.levels[(k - 1) as usize].estimate(i)
                };
                continue;
            }
            // A straddling node is never a leaf (a single point is
            // either contained or disjoint), so recursing is safe.
            stack.push((k + 1, 2 * i + 1));
            stack.push((k + 1, 2 * i));
        }
        total
    }
}

impl HeavyHitters for DyadicHh {
    /// The point heavy hitters: the leaf level of
    /// [`DyadicHh::heavy_ranges`] at the configured φ, i.e. the heavy
    /// items themselves with the descent's pruning applied.
    fn report(&self) -> Report {
        self.heavy_ranges(self.phi)
            .into_iter()
            .filter(|r| r.level == self.key_bits)
            .map(|r| ItemEstimate {
                item: r.index,
                count: r.count,
            })
            .collect()
    }
}

impl FrequencyEstimator for DyadicHh {
    fn estimate(&self, item: u64) -> f64 {
        self.levels[(self.key_bits - 1) as usize].estimate(item)
    }
}

impl MergeableSummary for DyadicHh {
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        check_compatible(&self.key_bits, &other.key_bits, "dyadic level counts")?;
        check_compatible(&self.universe, &other.universe, "universes")?;
        check_compatible(&self.eps.to_bits(), &other.eps.to_bits(), "eps parameters")?;
        check_compatible(&self.phi.to_bits(), &other.phi.to_bits(), "phi parameters")?;
        // Merge into a scratch copy first: a seed mismatch surfacing at
        // level k must not leave levels < k merged (the trait requires
        // `self` unchanged on error).
        let mut merged = self.levels.clone();
        for (mine, theirs) in merged.iter_mut().zip(&other.levels) {
            mine.merge_from(theirs)?;
        }
        self.levels = merged;
        self.processed = self.processed.saturating_add(other.processed);
        self.cache.invalidate();
        Ok(())
    }

    fn to_bytes(&self) -> Vec<u8> {
        snapshot::encode(TAG, self)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        snapshot::decode(TAG, bytes)
    }
}

impl Codec for DyadicHh {
    fn write_to(&self, w: &mut Writer) {
        w.write_u64(self.key_bits as u64);
        w.write_u64(self.universe);
        w.write_f64(self.eps);
        w.write_f64(self.phi);
        w.write_u64(self.processed);
        w.write_seq_len(self.levels.len());
        for level in &self.levels {
            // Each level keeps its own tagged, checksummed buffer: the
            // outer tag names the bank, the inner tags pin the level
            // type, and the outer trailer covers everything.
            w.write_byte_seq(&level.to_bytes());
        }
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let key_bits = r.read_u64()?;
        if key_bits == 0 || key_bits > 64 {
            return Err(CodecError::invariant("dyadic level count out of range"));
        }
        let universe = r.read_u64()?;
        if universe == 0 || hh_space::id_bits(universe) != key_bits {
            return Err(CodecError::invariant(
                "dyadic universe inconsistent with level count",
            ));
        }
        let eps = r.read_f64()?;
        let phi = r.read_f64()?;
        if !(eps > 0.0 && eps < phi && phi <= 1.0) {
            return Err(CodecError::invariant(
                "invalid (eps, phi) in dyadic snapshot",
            ));
        }
        let processed = r.read_u64()?;
        let n = r.read_seq_len()?;
        if n as u64 != key_bits {
            return Err(CodecError::invariant("dyadic level count mismatch"));
        }
        // n ≤ 64 at this point: the allocation is bounded regardless of
        // what the (already checksummed) buffer claims.
        let mut levels = Vec::with_capacity(n);
        for k in 0..n {
            let level = CountMin::from_bytes(r.read_byte_slice()?)
                .map_err(|e| CodecError::invariant(format!("dyadic level {}: {e}", k + 1)))?;
            levels.push(level);
        }
        Ok(Self {
            levels,
            key_bits: key_bits as u32,
            universe,
            eps,
            phi,
            processed,
            scratch: Vec::new(),
            cache: QueryCache::new(),
        })
    }
}

impl SpaceUsage for DyadicHh {
    fn model_bits(&self) -> u64 {
        self.levels.iter().map(SpaceUsage::model_bits).sum::<u64>() + gamma_bits(self.processed)
    }

    fn heap_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(SpaceUsage::heap_bytes)
            .sum::<usize>()
            + self.levels.capacity() * core::mem::size_of::<CountMin>()
            + self.scratch.capacity() * core::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const U: u64 = 1 << 16;

    /// ~50% of the stream in the 256-wide block at 0xAB00, ~20% on the
    /// single point 0x1234, the rest uniform noise.
    fn planted_stream(m: u64, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|_| {
                let r: f64 = rng.gen();
                if r < 0.5 {
                    0xAB00 + rng.gen_range(0..256u64)
                } else if r < 0.7 {
                    0x1234
                } else {
                    rng.gen_range(0..U)
                }
            })
            .collect()
    }

    fn exact_range(stream: &[u64], lo: u64, hi: u64) -> u64 {
        stream.iter().filter(|&&x| lo <= x && x <= hi).count() as u64
    }

    #[test]
    fn level_geometry() {
        let bank = DyadicHh::count_min(0.05, 0.2, 0.01, U, 7).unwrap();
        assert_eq!(bank.key_bits(), 16);
        assert_eq!(bank.levels().len(), 16);
        assert_eq!(DyadicHh::level_universe(64), u64::MAX);
        assert_eq!(DyadicHh::level_universe(3), 8);
    }

    #[test]
    fn rejects_bad_params() {
        assert!(DyadicHh::count_min(0.0, 0.2, 0.01, U, 7).is_err());
        assert!(DyadicHh::count_min(0.3, 0.2, 0.01, U, 7).is_err());
        assert!(DyadicHh::count_min(0.05, 0.2, 1.5, U, 7).is_err());
        assert!(DyadicHh::count_min(0.05, 0.2, 0.01, 0, 7).is_err());
    }

    #[test]
    fn heavy_ranges_find_planted_prefix_and_point() {
        let stream = planted_stream(60_000, 1);
        let mut bank = DyadicHh::count_min(0.05, 0.15, 0.01, U, 7).unwrap();
        bank.insert_batch(&stream);
        let ranges = bank.heavy_ranges(0.15);
        // The /8 block (level 8, index 0xAB) carries ~50%.
        assert!(
            ranges
                .iter()
                .any(|r| r.level == 8 && r.index == 0xAB && r.lo == 0xAB00 && r.hi == 0xABFF),
            "missing planted block in {ranges:?}"
        );
        // The planted point (~20%) survives to the leaf level.
        assert!(ranges.iter().any(|r| r.level == 16 && r.index == 0x1234));
        // Every ancestor of a reported node is reported (downward-closed).
        for r in &ranges {
            if r.level > 1 {
                assert!(
                    ranges
                        .iter()
                        .any(|p| p.level == r.level - 1 && p.index == r.index >> 1),
                    "orphan node {r:?}"
                );
            }
        }
        // Nothing under φ − ε is reported.
        let m = bank.processed() as f64;
        for r in &ranges {
            let exact = exact_range(&stream, r.lo, r.hi) as f64;
            assert!(
                exact >= (0.15 - 0.05) * m,
                "light range reported: {r:?} exact {exact}"
            );
        }
    }

    #[test]
    fn stricter_phi_filters_and_report_is_leaf_level() {
        let stream = planted_stream(60_000, 2);
        let mut bank = DyadicHh::count_min(0.05, 0.15, 0.01, U, 7).unwrap();
        bank.insert_batch(&stream);
        // At 60% nothing qualifies (the heaviest block is ~50%).
        assert!(bank.heavy_ranges(0.7).is_empty());
        let report = bank.report();
        assert!(report.contains(0x1234));
        // Point reports only hold leaf nodes, never coarse intervals.
        for e in report.entries() {
            assert!(e.item < U);
        }
    }

    #[test]
    fn range_estimate_tracks_exact_oracle() {
        let stream = planted_stream(60_000, 3);
        let mut bank = DyadicHh::count_min(0.05, 0.2, 0.01, U, 7).unwrap();
        bank.insert_batch(&stream);
        let m = bank.processed() as f64;
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let a = rng.gen_range(0..U);
            let b = rng.gen_range(0..U);
            let (lo, hi) = (a.min(b), a.max(b));
            let exact = exact_range(&stream, lo, hi) as f64;
            let est = bank.range_estimate(lo, hi);
            assert!(
                (est - exact).abs() <= 0.05 * m,
                "range [{lo}, {hi}]: est {est} exact {exact}"
            );
        }
        // Degenerate and full ranges.
        assert_eq!(bank.range_estimate(5, 4), 0.0);
        assert_eq!(bank.range_estimate(0, U - 1), m);
        assert_eq!(bank.range_estimate(0, u64::MAX), m);
    }

    #[test]
    fn batch_equals_scalar_bit_identity() {
        let stream = planted_stream(20_000, 4);
        let mut batched = DyadicHh::count_min(0.05, 0.2, 0.01, U, 7).unwrap();
        for chunk in stream.chunks(777) {
            batched.insert_batch(chunk);
        }
        let mut scalar = DyadicHh::count_min(0.05, 0.2, 0.01, U, 7).unwrap();
        for &x in &stream {
            scalar.insert(x);
        }
        assert_eq!(batched.to_bytes(), scalar.to_bytes());
    }

    #[test]
    fn merge_of_partitions_matches_single_stream() {
        let stream = planted_stream(40_000, 6);
        let mut banks = seed_aligned_count_min(0.05, 0.2, 0.01, U, 3, 7).unwrap();
        for (j, chunk) in stream.chunks(stream.len() / 3 + 1).enumerate() {
            banks[j].insert_batch(chunk);
        }
        let mut merged = banks.remove(0);
        for b in &banks {
            merged.merge_from(b).unwrap();
        }
        let mut single = DyadicHh::count_min(0.05, 0.2, 0.01, U, 7).unwrap();
        single.insert_batch(&stream);
        // Count-Min merge is cell-wise addition, so the merged bank's
        // tables equal the single-stream bank's exactly: every point
        // and range estimate is bit-identical. (Snapshot bytes can
        // differ in the candidate shortlists, which are interleaving-
        // dependent by design — same standard as prop_merge's CM case.)
        assert_eq!(merged.processed(), single.processed());
        for probe in [0x1234u64, 0xAB07, 0, U - 1] {
            assert_eq!(
                merged.estimate(probe).to_bits(),
                single.estimate(probe).to_bits()
            );
        }
        for (lo, hi) in [(0xAB00u64, 0xABFFu64), (0, U / 2), (0x1000, 0x2000)] {
            assert_eq!(
                merged.range_estimate(lo, hi).to_bits(),
                single.range_estimate(lo, hi).to_bits()
            );
        }
        assert_eq!(merged.heavy_ranges(0.2), single.heavy_ranges(0.2));
    }

    #[test]
    fn merge_rejects_mismatched_banks() {
        let mut a = DyadicHh::count_min(0.05, 0.2, 0.01, U, 7).unwrap();
        let b = DyadicHh::count_min(0.05, 0.2, 0.01, U << 1, 7).unwrap();
        assert!(a.merge_from(&b).is_err());
        let c = DyadicHh::count_min(0.04, 0.2, 0.01, U, 7).unwrap();
        assert!(a.merge_from(&c).is_err());
        // A seed mismatch is caught by the level sketches — and must
        // leave the receiver untouched.
        let before = a.to_bytes();
        let d = DyadicHh::count_min(0.05, 0.2, 0.01, U, 8).unwrap();
        assert!(a.merge_from(&d).is_err());
        assert_eq!(a.to_bytes(), before);
    }

    #[test]
    fn snapshot_roundtrip_restore_continue() {
        let stream = planted_stream(30_000, 8);
        let (head, tail) = stream.split_at(17_000);
        let mut bank = DyadicHh::count_min(0.05, 0.2, 0.01, U, 7).unwrap();
        bank.insert_batch(head);
        let wire = bank.to_bytes();
        let mut restored = DyadicHh::from_bytes(&wire).unwrap();
        assert_eq!(restored.to_bytes(), wire);
        bank.insert_batch(tail);
        restored.insert_batch(tail);
        assert_eq!(bank.to_bytes(), restored.to_bytes());
    }

    #[test]
    fn snapshot_rejects_foreign_and_corrupt() {
        let mut bank = DyadicHh::count_min(0.05, 0.2, 0.01, 1 << 8, 7).unwrap();
        bank.insert_batch(&[1, 2, 3, 200, 200, 200]);
        let wire = bank.to_bytes();
        // Wrong outer tag.
        let cm = CountMin::new(0.05, 0.2, 0.01, 1 << 8, 7);
        assert!(matches!(
            DyadicHh::from_bytes(&cm.to_bytes()),
            Err(SnapshotError::WrongTag { .. })
        ));
        // The outer tag names only the bank, so a well-formed bank whose
        // levels hold CountSketch buffers passes the envelope but must
        // fail closed at the inner level tags.
        let foreign = snapshot::encode_with(TAG, |w| {
            w.write_u64(8);
            w.write_u64(1 << 8);
            w.write_f64(0.05);
            w.write_f64(0.2);
            w.write_u64(0);
            w.write_seq_len(8);
            for k in 1..=8 {
                let level = hh_baselines::CountSketch::new(0.05, 0.2, 0.01, 1 << k, 7);
                w.write_byte_seq(&level.to_bytes());
            }
        });
        assert!(matches!(
            DyadicHh::from_bytes(&foreign),
            Err(SnapshotError::InvariantViolated(msg)) if msg.contains("dyadic level 1")
        ));
        // Truncation anywhere fails with a structured error.
        for cut in [0, 1, wire.len() / 2, wire.len() - 1] {
            assert!(DyadicHh::from_bytes(&wire[..cut]).is_err());
        }
        // Any bit flip is caught by the outer checksum (or tag check).
        let mut flipped = wire.to_vec();
        flipped[wire.len() / 2] ^= 0x10;
        assert!(DyadicHh::from_bytes(&flipped).is_err());
    }

    #[test]
    fn query_cache_cold_warm_agree() {
        let stream = planted_stream(20_000, 9);
        let mut bank = DyadicHh::count_min(0.04, 0.12, 0.01, U, 7).unwrap();
        bank.insert_batch(&stream);
        let warm1 = bank.heavy_ranges(0.12);
        let warm2 = bank.heavy_ranges(0.12);
        assert_eq!(warm1, warm2);
        // Mutation invalidates: the planted point's estimate grows.
        let before = bank.report().estimate(0x1234).unwrap();
        for _ in 0..5_000 {
            bank.insert(0x1234);
        }
        let after = bank.report().estimate(0x1234).unwrap();
        assert!(after > before);
        // A cloned bank rebuilds its cache cold and agrees.
        let cold = bank.clone();
        assert_eq!(cold.heavy_ranges(0.12), bank.heavy_ranges(0.12));
    }

    #[test]
    fn space_usage_accounts_all_levels() {
        let bank = DyadicHh::count_min(0.05, 0.2, 0.01, U, 7).unwrap();
        let per_level: u64 = bank.levels().iter().map(SpaceUsage::model_bits).sum();
        assert!(bank.model_bits() >= per_level);
        assert!(bank.heap_bytes() > 0);
        assert!(bank.total_bytes() > bank.heap_bytes());
    }

    #[test]
    fn frozen_view_serves_reports() {
        let stream = planted_stream(20_000, 10);
        let mut bank = DyadicHh::count_min(0.05, 0.2, 0.01, U, 7).unwrap();
        bank.insert_batch(&stream);
        let expect = bank.report();
        let frozen = hh_pipeline::Frozen::new(bank);
        assert_eq!(frozen.report(), &expect);
    }
}
