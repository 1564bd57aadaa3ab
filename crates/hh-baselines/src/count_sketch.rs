//! CountSketch \[CCFC04\]: the signed median sketch.
//!
//! Each of `d` rows carries a bucket hash `h_j` and a sign hash `s_j`;
//! an arrival adds `s_j(x)` to `C[j][h_j(x)]`, and the point estimate is
//! the median over rows of `s_j(x)·C[j][h_j(x)]`. Unlike Count-Min the
//! error is two-sided but scales with `√F₂` instead of `F₁ = m`, so
//! CountSketch wins on skewed streams — the trade-off experiment E7
//! exhibits against both Count-Min and the paper's algorithms.

use hh_core::mergeable::snapshot;
use hh_core::{
    FrequencyEstimator, HeavyHitters, ItemEstimate, MergeError, MergeableSummary, QueryCache,
    Report, SnapshotError, StreamSummary,
};
use hh_hash::FastMap;
use hh_hash::{HashFamily, HashFunction, PolynomialFamily, PolynomialHash};
use hh_space::codec::{Codec, CodecError, Reader, Writer};
use hh_space::space::{gamma_bits, SpaceUsage};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The CountSketch summary with heavy-hitter candidate tracking.
#[derive(Debug, Clone)]
pub struct CountSketch {
    /// Per row: (bucket-and-sign hash, signed counters).
    rows: Vec<(PolynomialHash, Vec<i64>)>,
    width: u64,
    candidates: FastMap<u64, ()>,
    candidate_cap: usize,
    key_bits: u64,
    processed: u64,
    phi: f64,
    /// Materialized report; every mutation invalidates (see DESIGN.md §8).
    cache: QueryCache<Report>,
}

impl CountSketch {
    /// Sketch with width `⌈4/ε²⌉` clamped to `[16, 2²⁰]` and odd depth
    /// `⌈ln(1/δ)⌉`, reporting at `φ`.
    ///
    /// The `1/ε²` width targets the ℓ2 guarantee `±ε√F₂ ≤ εm`; for large
    /// widths prefer [`CountSketch::with_dimensions`].
    pub fn new(eps: f64, phi: f64, delta: f64, universe: u64, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        assert!(phi > eps && phi <= 1.0, "need eps < phi <= 1");
        let width = ((4.0 / (eps * eps)).ceil() as u64).clamp(16, 1 << 20);
        let mut depth = ((1.0 / delta).ln().ceil() as usize).max(3);
        if depth % 2 == 0 {
            depth += 1;
        }
        Self::with_dimensions(width, depth, phi, universe, seed)
    }

    /// Fully parameterized constructor (odd `depth` enforced).
    pub fn with_dimensions(width: u64, depth: usize, phi: f64, universe: u64, seed: u64) -> Self {
        assert!(width >= 2 && depth >= 1);
        let depth = if depth % 2 == 0 { depth + 1 } else { depth };
        let mut rng = StdRng::seed_from_u64(seed);
        let family = PolynomialFamily::new(width, 2);
        let rows = (0..depth)
            .map(|_| (family.sample(&mut rng), vec![0i64; width as usize]))
            .collect();
        Self {
            rows,
            width,
            candidates: FastMap::default(),
            candidate_cap: ((8.0 / phi).ceil() as usize).max(8),
            key_bits: hh_space::id_bits(universe),
            processed: 0,
            phi,
            cache: QueryCache::new(),
        }
    }

    /// Width of each row.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.rows.len()
    }

    /// Items processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Median of a mutable estimate buffer (the upper median, matching
    /// the sort-then-index convention for the forced-odd depth).
    ///
    /// Depth 3 — every `δ ≥ e⁻³` configuration, including the default
    /// `⌈ln δ⁻¹⌉` for δ = 0.1 — takes a branch-free min/max lattice:
    /// `med(a,b,c) = min(max(a,b), max(min(a,b), c))`, three `cmov`
    /// pairs where `select_nth_unstable` runs its general partition
    /// machinery. Identical value by uniqueness of the odd-length
    /// median, so estimates are unchanged bit for bit.
    #[inline]
    fn median(ests: &mut [i64]) -> i64 {
        if let &mut [a, b, c] = ests {
            return a.max(b).min(a.min(b).max(c));
        }
        let mid = ests.len() / 2;
        *ests.select_nth_unstable(mid).1
    }

    fn query(&self, item: u64) -> f64 {
        // One hash evaluation per row (bucket and sign from the same
        // field value) into a stack buffer; depth is ⌈ln δ⁻¹⌉, so 16
        // covers every reachable configuration (δ = 10⁻⁶ needs 15) and
        // the heap fallback is for hand-built sketches only. The buffer
        // is deliberately small: it is zeroed per call, and this runs
        // per stream item.
        let d = self.rows.len();
        let mut stack = [0i64; 16];
        let mut heap: Vec<i64>;
        let ests: &mut [i64] = if d <= 16 {
            &mut stack[..d]
        } else {
            heap = vec![0; d];
            &mut heap
        };
        for ((h, row), e) in self.rows.iter().zip(ests.iter_mut()) {
            let (idx, sign) = h.hash_and_sign(item);
            *e = sign * row[idx as usize];
        }
        Self::median(ests) as f64
    }

    fn prune_candidates(&mut self) {
        let bar = self.phi * self.processed as f64;
        let ests: Vec<(u64, f64)> = self
            .candidates
            .keys()
            .map(|&i| (i, self.query(i)))
            .collect();
        for (i, est) in ests {
            if est < bar {
                self.candidates.remove(&i);
            }
        }
    }
}

impl CountSketch {
    /// Candidate tracking after an arrival of `item` whose post-update
    /// median estimate is `est` (shared by the scalar and batch paths).
    #[inline]
    fn track_candidate(&mut self, item: u64, est: i64) {
        if est as f64 >= self.phi * self.processed as f64 {
            self.candidates.insert(item, ());
            if self.candidates.len() > self.candidate_cap {
                self.prune_candidates();
            }
        }
    }
}

impl CountSketch {
    /// The fused per-arrival body: update every row and read the
    /// post-update per-row estimates back in the same pass — each row's
    /// bucket and sign come from **one** polynomial evaluation
    /// ([`PolynomialHash::hash_and_sign`]), where the seed implementation
    /// paid two for the update and two more for the tracking query.
    #[inline]
    fn insert_fused(&mut self, item: u64) {
        self.cache.invalidate();
        self.processed += 1;
        let d = self.rows.len();
        let mut stack = [0i64; 16];
        let mut heap: Vec<i64>;
        let ests: &mut [i64] = if d <= 16 {
            &mut stack[..d]
        } else {
            heap = vec![0; d];
            &mut heap
        };
        for ((h, row), e) in self.rows.iter_mut().zip(ests.iter_mut()) {
            let (idx, sign) = h.hash_and_sign(item);
            let c = row[idx as usize] + sign;
            row[idx as usize] = c;
            *e = sign * c;
        }
        let est = Self::median(ests);
        self.track_candidate(item, est);
    }
}

impl StreamSummary for CountSketch {
    fn insert(&mut self, item: u64) {
        self.insert_fused(item);
    }

    /// Batch ingestion through the tiled row kernel: a row-major hash
    /// pass evaluates each row's degree-2 Mersenne polynomial over the
    /// whole tile — the coefficient loads hoist out and the per-item
    /// evaluation chains, serial in the fused body, run independently
    /// across tile lanes — then an element-order apply pass replays the
    /// packed `(bucket, sign)` words against the counters.
    ///
    /// Two decisions keep this bit-identical to element-wise insertion:
    /// the hash pass reads no counter state (hashes depend only on the
    /// item), and the apply pass — counter update, post-update median,
    /// candidate tracking against `φ·processed` — runs in stream order,
    /// exactly the fused body minus its hash work. An earlier tile split
    /// that pushed tracking out of the apply pass measured ~8% slower;
    /// the version here instead moves *only* the hash evaluation, packs
    /// sign into the scratch word's low bit, and reuses one estimate
    /// buffer instead of zeroing a 16-lane stack frame per arrival.
    fn insert_batch(&mut self, items: &[u64]) {
        if items.is_empty() {
            return;
        }
        self.cache.invalidate();
        const TILE: usize = 256;
        let d = self.rows.len();
        let mut scratch: Vec<u64> = vec![0; d * TILE];
        let mut ests: Vec<i64> = vec![0; d];
        for tile in items.chunks(TILE) {
            for (r, (h, _)) in self.rows.iter().enumerate() {
                for (s, &x) in scratch[r * TILE..].iter_mut().zip(tile) {
                    let (idx, sign) = h.hash_and_sign(x);
                    *s = (idx << 1) | (sign > 0) as u64;
                }
            }
            for (t, &x) in tile.iter().enumerate() {
                self.processed += 1;
                for (r, ((_, row), e)) in self.rows.iter_mut().zip(ests.iter_mut()).enumerate() {
                    let s = scratch[r * TILE + t];
                    let sign = if s & 1 == 1 { 1 } else { -1 };
                    let c = row[(s >> 1) as usize] + sign;
                    row[(s >> 1) as usize] = c;
                    *e = sign * c;
                }
                let est = Self::median(&mut ests);
                self.track_candidate(x, est);
            }
        }
    }
}

impl CountSketch {
    /// The cold report pass behind the cached [`HeavyHitters::report`].
    fn build_report(&self) -> Report {
        let threshold = self.phi * self.processed as f64;
        self.candidates
            .keys()
            .filter_map(|&item| {
                let est = self.query(item);
                (est >= threshold).then_some(ItemEstimate { item, count: est })
            })
            .collect()
    }
}

impl HeavyHitters for CountSketch {
    /// The report — a cache hit after a quiescent period, a candidate
    /// re-query on the first query after a mutation.
    fn report(&self) -> Report {
        self.cache.get_or_build(|| self.build_report()).clone()
    }
}

impl FrequencyEstimator for CountSketch {
    fn estimate(&self, item: u64) -> f64 {
        self.query(item)
    }
}

/// Snapshot format version tag (v2: trailing integrity checksum; v3:
/// signed with its folded lane step).
const TAG: &str = "hh.baseline.count-sketch.v3";
/// Largest candidate capacity a snapshot may claim (real capacities
/// are `Θ(1/φ)`); bounds a restored instance's future growth.
const CANDIDATE_CAP_LIMIT: usize = 1 << 24;

impl Codec for CountSketch {
    fn write_to(&self, w: &mut Writer) {
        self.rows.write_to(w);
        w.write_u64(self.width);
        self.sorted_candidates().write_to(w);
        w.write_u64(self.candidate_cap as u64);
        w.write_u64(self.key_bits);
        w.write_u64(self.processed);
        w.write_f64(self.phi);
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let rows: Vec<(PolynomialHash, Vec<i64>)> = Vec::read_from(r)?;
        let width = r.read_u64()?;
        if rows.is_empty() || rows.len() % 2 == 0 {
            return Err(CodecError::invariant("CountSketch depth must be odd"));
        }
        if rows
            .iter()
            .any(|(h, row)| h.range() != width || row.len() as u64 != width)
        {
            return Err(CodecError::invariant("CountSketch row shapes inconsistent"));
        }
        let cand: Vec<u64> = Vec::read_from(r)?;
        let candidate_cap = r.read_u64()?;
        if candidate_cap == 0 || candidate_cap > CANDIDATE_CAP_LIMIT as u64 {
            return Err(CodecError::invariant(
                "CountSketch candidate capacity out of range",
            ));
        }
        let candidate_cap = candidate_cap as usize;
        if cand.len() > candidate_cap {
            return Err(CodecError::invariant("CountSketch candidates overflow"));
        }
        if cand.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CodecError::invariant(
                "CountSketch candidates unsorted or duplicated",
            ));
        }
        let key_bits = r.read_u64()?;
        if key_bits > 64 {
            return Err(CodecError::invariant("CountSketch key width above 64 bits"));
        }
        let processed = r.read_u64()?;
        // Every arrival adds ±1 to one cell per row, so |cell| ≤
        // processed (and processed itself must fit the signed counter
        // domain for that bound to mean anything).
        if processed > i64::MAX as u64 {
            return Err(CodecError::invariant(
                "CountSketch stream position overflows counters",
            ));
        }
        if rows
            .iter()
            .any(|(_, row)| row.iter().any(|&c| c.unsigned_abs() > processed))
        {
            return Err(CodecError::invariant(
                "CountSketch cell exceeds stream position",
            ));
        }
        let phi = r.read_f64()?;
        if !(phi > 0.0 && phi <= 1.0) {
            return Err(CodecError::invariant("invalid phi in snapshot"));
        }
        let mut candidates = FastMap::default();
        for item in cand {
            candidates.insert(item, ());
        }
        Ok(Self {
            rows,
            width,
            candidates,
            candidate_cap,
            key_bits,
            processed,
            phi,
            cache: QueryCache::new(),
        })
    }
}

impl CountSketch {
    /// Candidate ids in sorted order (deterministic wire format and
    /// merge ordering).
    fn sorted_candidates(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.candidates.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

impl MergeableSummary for CountSketch {
    /// Seed-aligned merge: with shared row hashes (bucket *and* sign
    /// come from the same polynomial draw), the signed counters add
    /// cell-wise and each row's estimate remains
    /// `s_j(x)·C[j][h_j(x)] = f₁(x) + f₂(x) + noise`, unbiased with the
    /// combined stream's `√F₂` error — the median over rows is the
    /// sketch guarantee at the merged length.
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
        if self.phi != other.phi {
            return Err(MergeError::Incompatible("phi thresholds"));
        }
        if self.key_bits != other.key_bits {
            return Err(MergeError::Incompatible("key widths"));
        }
        if self.candidate_cap != other.candidate_cap {
            return Err(MergeError::Incompatible("candidate capacities"));
        }
        self.cache.invalidate();
        // Saturating: stays total for adversarial counts restored from
        // a snapshot (honest counts are bounded by the stream length).
        for ((_, row), (_, orow)) in self.rows.iter_mut().zip(&other.rows) {
            for (c, &o) in row.iter_mut().zip(orow) {
                *c = c.saturating_add(o);
            }
        }
        self.processed = self.processed.saturating_add(other.processed);
        for item in other.sorted_candidates() {
            self.candidates.insert(item, ());
        }
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

impl SpaceUsage for CountSketch {
    fn model_bits(&self) -> u64 {
        let matrix: u64 = self
            .rows
            .iter()
            .map(|(h, row)| {
                h.model_bits()
                    + row
                        .iter()
                        .map(|&c| 1 + gamma_bits(c.unsigned_abs()))
                        .sum::<u64>()
            })
            .sum();
        matrix + self.candidates.len() as u64 * self.key_bits + gamma_bits(self.processed)
    }
    fn heap_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|(_, r)| r.capacity() * 8)
            .sum::<usize>()
            + self.candidates.capacity() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::Rng;

    fn skewed_stream(m: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream = Vec::with_capacity(m);
        stream.extend(std::iter::repeat_n(1u64, m * 3 / 10));
        stream.extend(std::iter::repeat_n(2u64, m / 10));
        for _ in 0..(m - m * 3 / 10 - m / 10) {
            stream.push(rng.gen_range(1000..500_000));
        }
        stream.shuffle(&mut rng);
        stream
    }

    #[test]
    fn estimates_heavy_items_accurately() {
        let m = 50_000;
        let stream = skewed_stream(m, 1);
        let mut cs = CountSketch::with_dimensions(1024, 5, 0.2, 1 << 40, 2);
        cs.insert_all(&stream);
        let truth = (m * 3 / 10) as f64;
        let est = cs.estimate(1);
        assert!(
            (est - truth).abs() <= 0.05 * m as f64,
            "est {est} truth {truth}"
        );
    }

    #[test]
    fn unbiased_for_absent_items() {
        let m = 50_000;
        let stream = skewed_stream(m, 3);
        let mut cs = CountSketch::with_dimensions(1024, 5, 0.2, 1 << 40, 4);
        cs.insert_all(&stream);
        // Absent items: median estimate should hover near zero, far below
        // the heavy item's count (two-sided error is the point vs CM).
        let mut worst: f64 = 0.0;
        for probe in 0..50u64 {
            worst = worst.max(cs.estimate(900_000 + probe).abs());
        }
        assert!(worst <= 0.02 * m as f64, "absent-item error {worst}");
    }

    #[test]
    fn reports_heavy_hitters() {
        let m = 60_000;
        let stream = skewed_stream(m, 5);
        let mut cs = CountSketch::new(0.1, 0.2, 0.1, 1 << 40, 6);
        cs.insert_all(&stream);
        let r = cs.report();
        assert!(r.contains(1), "30% item missing at phi=20%");
        assert!(!r.contains(2), "10% item must not be reported at 20%");
    }

    #[test]
    fn depth_is_forced_odd() {
        let cs = CountSketch::with_dimensions(64, 4, 0.2, 1 << 20, 1);
        assert_eq!(cs.depth() % 2, 1);
    }

    #[test]
    fn batch_insert_matches_element_wise() {
        let m = 30_000;
        let stream = skewed_stream(m, 9);
        let mut scalar = CountSketch::new(0.1, 0.2, 0.1, 1 << 40, 10);
        for &x in &stream {
            scalar.insert(x);
        }
        let mut batch = CountSketch::new(0.1, 0.2, 0.1, 1 << 40, 10);
        for chunk in stream.chunks(1023) {
            batch.insert_batch(chunk);
        }
        assert_eq!(scalar.report().entries(), batch.report().entries());
        for probe in [1u64, 2, 1234, 900_001] {
            assert_eq!(scalar.estimate(probe), batch.estimate(probe));
        }
    }
}
