//! The Count-Min sketch \[CM05\].
//!
//! A `d × w` matrix of counters with one pairwise-independent hash
//! function per row; a point query takes the minimum over rows, giving a
//! one-sided overestimate: `f_x ≤ est(x) ≤ f_x + (e/w)·m` with probability
//! `1 − e^{−d}` per query. For the (ε, φ) problem, a candidate set tracks
//! every item whose estimate ever clears `φ·(position)`; an item that is
//! heavy at the end of the stream clears that bar at its last arrival, so
//! recall is guaranteed without a second pass.
//!
//! Space: `d·w = Θ(ε⁻¹ log δ⁻¹)` counters of `log m` bits plus the
//! candidate ids — the `Θ(ε⁻¹ log m)` shape that Table 1's optimal bound
//! beats.

use hh_core::mergeable::snapshot;
use hh_core::{
    FrequencyEstimator, HeavyHitters, ItemEstimate, MergeError, MergeableSummary, QueryCache,
    Report, SnapshotError, StreamSummary,
};
use hh_hash::FastMap;
use hh_hash::{CarterWegmanFamily, CarterWegmanHash, HashFamily, HashFunction};
use hh_space::codec::{Codec, CodecError, Reader, Writer};
use hh_space::space::{gamma_bits, SpaceUsage};
use hh_space::VarCounterArray;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Count-Min sketch with heavy-hitter candidate tracking.
#[derive(Debug, Clone)]
pub struct CountMin {
    rows: Vec<(CarterWegmanHash, VarCounterArray)>,
    width: u64,
    /// Conservative update: only raise the minimal counters. Halves the
    /// overestimate in practice at no space cost (an ablation knob).
    conservative: bool,
    candidates: FastMap<u64, ()>,
    candidate_cap: usize,
    key_bits: u64,
    processed: u64,
    eps: f64,
    phi: f64,
    /// Materialized report; every mutation invalidates (see DESIGN.md §8).
    cache: QueryCache<Report>,
}

impl CountMin {
    /// Sketch with width `⌈2e/ε⌉` and depth `⌈ln(1/δ)⌉`, reporting at `φ`.
    pub fn new(eps: f64, phi: f64, delta: f64, universe: u64, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        assert!(phi > eps && phi <= 1.0, "need eps < phi <= 1");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        let width = ((2.0 * std::f64::consts::E / eps).ceil() as u64).max(2);
        let depth = ((1.0 / delta).ln().ceil() as usize).max(1);
        Self::with_dimensions(width, depth, eps, phi, universe, seed, false)
    }

    /// Fully parameterized constructor.
    pub fn with_dimensions(
        width: u64,
        depth: usize,
        eps: f64,
        phi: f64,
        universe: u64,
        seed: u64,
        conservative: bool,
    ) -> Self {
        assert!(width >= 2 && depth >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let family = CarterWegmanFamily::new(width);
        let rows = (0..depth)
            .map(|_| {
                (
                    family.sample(&mut rng),
                    VarCounterArray::new(width as usize),
                )
            })
            .collect();
        Self {
            rows,
            width,
            conservative,
            candidates: FastMap::default(),
            candidate_cap: ((8.0 / phi).ceil() as usize).max(8),
            key_bits: hh_space::id_bits(universe),
            processed: 0,
            eps,
            phi,
            cache: QueryCache::new(),
        }
    }

    /// Width `w` of each row.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Depth `d` (number of rows).
    pub fn depth(&self) -> usize {
        self.rows.len()
    }

    /// Items processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of live heavy-hitter candidates.
    pub fn candidates(&self) -> usize {
        self.candidates.len()
    }

    /// The configured additive-error fraction ε (the width is `⌈2e/ε⌉`).
    pub fn eps(&self) -> f64 {
        self.eps
    }

    fn query(&self, item: u64) -> u64 {
        self.rows
            .iter()
            .map(|(h, row)| row.get(h.hash(item) as usize))
            .min()
            .unwrap_or(0)
    }

    fn prune_candidates(&mut self) {
        let bar = self.phi * self.processed as f64;
        let estimates: Vec<(u64, f64)> = self
            .candidates
            .keys()
            .map(|&i| (i, self.query(i) as f64))
            .collect();
        for (i, est) in estimates {
            if est < bar {
                self.candidates.remove(&i);
            }
        }
    }

    /// Candidate tracking after an arrival of `item` whose post-update
    /// point estimate is `est` (shared by the scalar and batch paths).
    #[inline]
    fn track_candidate(&mut self, item: u64, est: u64) {
        if est as f64 >= self.phi * self.processed as f64 {
            self.candidates.insert(item, ());
            if self.candidates.len() > self.candidate_cap {
                self.prune_candidates();
            }
        }
    }
}

impl StreamSummary for CountMin {
    fn insert(&mut self, item: u64) {
        self.cache.invalidate();
        self.processed += 1;
        if self.conservative {
            let current = self.query(item);
            for (h, row) in &mut self.rows {
                let idx = h.hash(item) as usize;
                if row.get(idx) < current + 1 {
                    row.set(idx, current + 1);
                }
            }
        } else {
            for (h, row) in &mut self.rows {
                row.increment(h.hash(item) as usize);
            }
        }
        // Candidate tracking: an item heavy at stream end clears this bar
        // at its final arrival (est ≥ f_final > φm ≥ φ·processed).
        let est = self.query(item);
        self.track_candidate(item, est);
    }

    /// Batch ingestion, split into a hash pass and an update pass per
    /// tile: the hash pass evaluates each row's Carter–Wegman function
    /// over the whole tile in a tight loop (independent iterations, so
    /// the field-arithmetic chains of consecutive items overlap), and
    /// the update pass replays the precomputed buckets in element order,
    /// folding the point query into the increment returns — one hash
    /// evaluation per row per item instead of the scalar path's two.
    /// Final state and candidate decisions are bit-identical to
    /// element-wise insertion.
    fn insert_batch(&mut self, items: &[u64]) {
        if !items.is_empty() {
            self.cache.invalidate();
        }
        if self.conservative {
            // The conservative-update ablation interleaves queries and
            // raises in a way the two-pass split cannot reproduce.
            for &x in items {
                self.insert(x);
            }
            return;
        }
        const TILE: usize = 256;
        let d = self.rows.len();
        let mut scratch: Vec<u64> = vec![0; d * TILE];
        for tile in items.chunks(TILE) {
            for (r, (h, _)) in self.rows.iter().enumerate() {
                for (s, &x) in scratch[r * TILE..].iter_mut().zip(tile) {
                    *s = h.hash(x);
                }
            }
            for (t, &x) in tile.iter().enumerate() {
                self.processed += 1;
                let mut est = u64::MAX;
                for r in 0..d {
                    let idx = scratch[r * TILE + t] as usize;
                    est = est.min(self.rows[r].1.increment_raw(idx));
                }
                self.track_candidate(x, est);
            }
        }
        // Deferred half of the raw increments: one O(width) resync per
        // batch restores the incremental gamma accounting exactly.
        for (_, row) in &mut self.rows {
            row.resync_model_bits();
        }
    }
}

impl CountMin {
    /// The cold report pass behind the cached [`HeavyHitters::report`].
    fn build_report(&self) -> Report {
        let m = self.processed as f64;
        let threshold = self.phi * m;
        self.candidates
            .keys()
            .filter_map(|&item| {
                let est = self.query(item) as f64;
                (est >= threshold).then_some(ItemEstimate { item, count: est })
            })
            .collect()
    }
}

impl HeavyHitters for CountMin {
    /// The report — a cache hit after a quiescent period, a candidate
    /// re-query on the first query after a mutation.
    fn report(&self) -> Report {
        self.cache.get_or_build(|| self.build_report()).clone()
    }
}

impl FrequencyEstimator for CountMin {
    fn estimate(&self, item: u64) -> f64 {
        self.query(item) as f64
    }
}

/// Snapshot format version tag (v3: signed with the checksum's folded
/// lane step).
const TAG: &str = "hh.baseline.count-min.v3";
/// Decode-time ceiling on the candidate capacity a snapshot may claim.
const CANDIDATE_CAP_LIMIT: usize = 1 << 24;

impl Codec for CountMin {
    fn write_to(&self, w: &mut Writer) {
        self.rows.write_to(w);
        w.write_u64(self.width);
        w.write_bool(self.conservative);
        self.sorted_candidates().write_to(w);
        w.write_u64(self.candidate_cap as u64);
        w.write_u64(self.key_bits);
        w.write_u64(self.processed);
        w.write_f64(self.eps);
        w.write_f64(self.phi);
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let rows: Vec<(CarterWegmanHash, VarCounterArray)> = Vec::read_from(r)?;
        let width = r.read_u64()?;
        if rows.is_empty() || width == 0 {
            return Err(CodecError::invariant("CountMin needs at least one row"));
        }
        if rows
            .iter()
            .any(|(h, row)| h.range() != width || row.len() as u64 != width)
        {
            return Err(CodecError::invariant("CountMin row shapes inconsistent"));
        }
        let conservative = r.read_bool()?;
        let cand: Vec<u64> = Vec::read_from(r)?;
        let candidate_cap = r.read_u64()?;
        if candidate_cap == 0 || candidate_cap > CANDIDATE_CAP_LIMIT as u64 {
            return Err(CodecError::invariant(
                "CountMin candidate capacity out of range",
            ));
        }
        let candidate_cap = candidate_cap as usize;
        if cand.len() > candidate_cap {
            return Err(CodecError::invariant("CountMin candidates overflow"));
        }
        if cand.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CodecError::invariant("CountMin candidates not sorted"));
        }
        let key_bits = r.read_u64()?;
        if key_bits > 64 {
            return Err(CodecError::invariant("key width exceeds 64 bits"));
        }
        let processed = r.read_u64()?;
        let eps = r.read_f64()?;
        let phi = r.read_f64()?;
        if !(eps > 0.0 && eps < phi && phi <= 1.0) {
            return Err(CodecError::invariant("invalid (eps, phi) in snapshot"));
        }
        let mut candidates = FastMap::default();
        for item in cand {
            candidates.insert(item, ());
        }
        Ok(Self {
            rows,
            width,
            conservative,
            candidates,
            candidate_cap,
            key_bits,
            processed,
            eps,
            phi,
            cache: QueryCache::new(),
        })
    }
}

impl CountMin {
    /// Candidate ids in sorted order (deterministic wire format and
    /// merge ordering; the map iteration order is hasher-dependent).
    fn sorted_candidates(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.candidates.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

impl MergeableSummary for CountMin {
    /// Seed-aligned merge: both sketches must share every row hash
    /// (same constructor seed), so each cell counts the same preimage
    /// class and the matrices add cell-wise. Per row,
    /// `c₁[i] + c₂[i] ≥ f₁(x) + f₂(x)` for every `x` in the cell, so
    /// the min-over-rows estimate still never undercounts, and the
    /// expected overshoot is `(e/w)·(m₁+m₂)` — the sketch guarantee at
    /// the combined length. Candidate sets union and re-prune against
    /// the combined threshold.
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.width != other.width || self.rows.len() != other.rows.len() {
            return Err(MergeError::Incompatible("sketch dimensions"));
        }
        if self
            .rows
            .iter()
            .zip(&other.rows)
            .any(|((ha, _), (hb, _))| ha != hb)
        {
            return Err(MergeError::Incompatible("row hash seeds"));
        }
        if self.conservative != other.conservative {
            return Err(MergeError::Incompatible("update modes"));
        }
        if self.eps != other.eps || self.phi != other.phi {
            return Err(MergeError::Incompatible("(eps, phi) parameters"));
        }
        if self.key_bits != other.key_bits {
            return Err(MergeError::Incompatible("key widths"));
        }
        self.cache.invalidate();
        for ((_, row), (_, orow)) in self.rows.iter_mut().zip(&other.rows) {
            row.merge_add(orow);
        }
        self.processed = self.processed.saturating_add(other.processed);
        for item in other.sorted_candidates() {
            self.candidates.insert(item, ());
        }
        // The union can exceed the cap; one prune against the combined
        // stream restores it (and drops keys that were only heavy in
        // one shard's shorter substream).
        if self.candidates.len() > self.candidate_cap {
            self.prune_candidates();
        }
        Ok(())
    }

    fn to_bytes(&self) -> Vec<u8> {
        snapshot::encode(TAG, self)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        snapshot::decode(TAG, bytes)
    }
}

impl SpaceUsage for CountMin {
    fn model_bits(&self) -> u64 {
        let matrix: u64 = self
            .rows
            .iter()
            .map(|(h, row)| h.model_bits() + row.model_bits())
            .sum();
        matrix + self.candidates.len() as u64 * self.key_bits + gamma_bits(self.processed)
    }
    fn heap_bytes(&self) -> usize {
        self.rows.iter().map(|(_, r)| r.heap_bytes()).sum::<usize>()
            + self.candidates.capacity() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::Rng;

    fn zipfish_stream(m: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream = Vec::with_capacity(m);
        stream.extend(std::iter::repeat_n(1u64, m * 3 / 10));
        stream.extend(std::iter::repeat_n(2u64, m * 15 / 100));
        for _ in 0..(m - m * 3 / 10 - m * 15 / 100) {
            stream.push(rng.gen_range(1000..200_000));
        }
        stream.shuffle(&mut rng);
        stream
    }

    #[test]
    fn never_undercounts() {
        let stream = zipfish_stream(40_000, 1);
        let mut cm = CountMin::new(0.02, 0.1, 0.05, 1 << 40, 2);
        cm.insert_all(&stream);
        for probe in [1u64, 2, 1234, 999_999] {
            let truth = stream.iter().filter(|&&x| x == probe).count() as f64;
            assert!(cm.estimate(probe) >= truth, "probe {probe}");
        }
    }

    #[test]
    fn overestimate_bounded() {
        let stream = zipfish_stream(40_000, 3);
        let mut cm = CountMin::new(0.02, 0.1, 0.05, 1 << 40, 4);
        cm.insert_all(&stream);
        let m = stream.len() as f64;
        // Check several absent items: estimate ≤ εm (the CM guarantee is
        // e/w per row; width chosen for ε/2·m average).
        for probe in 0..20u64 {
            let absent = 500_000 + probe;
            assert!(
                cm.estimate(absent) <= 0.02 * m,
                "absent item {absent} overestimated by {}",
                cm.estimate(absent)
            );
        }
    }

    #[test]
    fn finds_heavy_hitters_with_candidates() {
        let stream = zipfish_stream(60_000, 5);
        let mut cm = CountMin::new(0.05, 0.2, 0.05, 1 << 40, 6);
        cm.insert_all(&stream);
        let r = cm.report();
        assert!(r.contains(1), "30% item missing");
        assert!(!r.contains(2) || 0.15 >= 0.2 - 0.05, "15% item at phi=20%");
        assert!(cm.candidates() <= cm.candidate_cap);
    }

    #[test]
    fn conservative_update_tightens_estimates() {
        let stream = zipfish_stream(40_000, 7);
        let mut plain = CountMin::with_dimensions(64, 4, 0.05, 0.2, 1 << 40, 8, false);
        let mut cons = CountMin::with_dimensions(64, 4, 0.05, 0.2, 1 << 40, 8, true);
        plain.insert_all(&stream);
        cons.insert_all(&stream);
        // Conservative estimates are never larger, summed over probes.
        let probes: Vec<u64> = (0..200).map(|i| 1000 + i * 37).collect();
        let sum_plain: f64 = probes.iter().map(|&p| plain.estimate(p)).sum();
        let sum_cons: f64 = probes.iter().map(|&p| cons.estimate(p)).sum();
        assert!(sum_cons <= sum_plain, "{sum_cons} > {sum_plain}");
        // And still never undercounts.
        for &p in &probes {
            let truth = stream.iter().filter(|&&x| x == p).count() as f64;
            assert!(cons.estimate(p) >= truth);
        }
    }

    #[test]
    fn batch_insert_matches_element_wise() {
        for conservative in [false, true] {
            let stream = zipfish_stream(30_000, 9);
            let mut scalar = CountMin::with_dimensions(64, 4, 0.05, 0.2, 1 << 40, 8, conservative);
            for &x in &stream {
                scalar.insert(x);
            }
            let mut batch = CountMin::with_dimensions(64, 4, 0.05, 0.2, 1 << 40, 8, conservative);
            for chunk in stream.chunks(999) {
                batch.insert_batch(chunk);
            }
            assert_eq!(scalar.report().entries(), batch.report().entries());
            for probe in [1u64, 2, 1234, 500_001] {
                assert_eq!(scalar.estimate(probe), batch.estimate(probe));
            }
            assert_eq!(scalar.model_bits(), batch.model_bits());
        }
    }

    #[test]
    fn dimensions_accessors() {
        let cm = CountMin::new(0.1, 0.3, 0.1, 1 << 20, 1);
        assert!(cm.width() >= (2.0 * std::f64::consts::E / 0.1) as u64);
        assert!(cm.depth() >= 2);
    }
}
