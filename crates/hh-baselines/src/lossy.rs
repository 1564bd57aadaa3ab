//! Lossy Counting \[MM02\]: deterministic windowed pruning.
//!
//! The stream is cut into windows of width `w = ⌈1/ε'⌉`. Each tracked item
//! carries `(count, Δ)` where `Δ` is the maximum number of occurrences it
//! could have had before being tracked (the window index at insertion
//! minus one). At every window boundary, entries with
//! `count + Δ ≤ current_window` are pruned. Guarantees:
//!
//! * estimates undercount by at most `ε'm`,
//! * at most `(1/ε')·log(ε'm)` entries are live (the paper's bound), so
//!   space is `O(ε'⁻¹ log(ε'm) (log n + log m))` bits — *worse* than
//!   Misra–Gries by a log factor, which experiment E7 shows.

use hh_core::mergeable::snapshot;
use hh_core::{
    FrequencyEstimator, HeavyHitters, ItemEstimate, MergeError, MergeableSummary, QueryCache,
    Report, SnapshotError, StreamSummary,
};
use hh_hash::FastMap;
use hh_space::codec::{Codec, CodecError, Reader, Writer};
use hh_space::space::{gamma_bits, SpaceUsage};

/// The Lossy Counting summary.
#[derive(Debug, Clone)]
pub struct LossyCounting {
    /// item → (count since tracked, Δ).
    entries: FastMap<u64, (u64, u64)>,
    window: u64,
    current_window: u64,
    in_window: u64,
    key_bits: u64,
    processed: u64,
    eps: f64,
    phi: f64,
    /// Materialized report; every mutation invalidates (see DESIGN.md §8).
    cache: QueryCache<Report>,
}

impl LossyCounting {
    /// Lossy counting with internal error `ε/2` (leaving threshold slack)
    /// reporting at `φ`.
    pub fn new(eps: f64, phi: f64, universe: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        assert!(phi > eps && phi <= 1.0, "need eps < phi <= 1");
        Self {
            entries: FastMap::default(),
            window: (2.0 / eps).ceil() as u64,
            current_window: 1,
            in_window: 0,
            key_bits: hh_space::id_bits(universe),
            processed: 0,
            eps,
            phi,
            cache: QueryCache::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Items processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    fn prune(&mut self) {
        let b = self.current_window;
        self.entries.retain(|_, &mut (c, d)| c + d > b);
    }
}

impl StreamSummary for LossyCounting {
    fn insert(&mut self, item: u64) {
        self.cache.invalidate();
        self.processed += 1;
        self.in_window += 1;
        match self.entries.get_mut(&item) {
            Some((c, _)) => *c += 1,
            None => {
                self.entries.insert(item, (1, self.current_window - 1));
            }
        }
        if self.in_window == self.window {
            self.prune();
            self.current_window += 1;
            self.in_window = 0;
        }
    }

    /// Batch ingestion: the batch is cut at window boundaries, so the
    /// inner loop is pure map work — the boundary test, the Δ for newly
    /// tracked items, and the stream-position accounting are all hoisted
    /// to once per window-aligned chunk. State after the batch is
    /// bit-identical to element-wise insertion.
    fn insert_batch(&mut self, items: &[u64]) {
        if !items.is_empty() {
            self.cache.invalidate();
        }
        let mut rest = items;
        while !rest.is_empty() {
            let room = (self.window - self.in_window) as usize;
            let (now, later) = rest.split_at(room.min(rest.len()));
            let delta = self.current_window - 1;
            for &x in now {
                match self.entries.get_mut(&x) {
                    Some((c, _)) => *c += 1,
                    None => {
                        self.entries.insert(x, (1, delta));
                    }
                }
            }
            self.processed += now.len() as u64;
            self.in_window += now.len() as u64;
            if self.in_window == self.window {
                self.prune();
                self.current_window += 1;
                self.in_window = 0;
            }
            rest = later;
        }
    }
}

impl LossyCounting {
    /// The cold report pass behind the cached [`HeavyHitters::report`].
    fn build_report(&self) -> Report {
        // Standard rule: output items with count ≥ (φ − ε')m; estimates
        // compensated upward by Δ/2 would bias both ways, so report the
        // undercounting estimate and a threshold at (φ − ε/2 − ε'(=ε/2)).
        let m = self.processed as f64;
        let threshold = (self.phi - self.eps) * m;
        self.entries
            .iter()
            .filter(|&(_, &(c, _))| c as f64 >= threshold)
            .map(|(&item, &(c, _))| ItemEstimate {
                item,
                count: c as f64,
            })
            .collect()
    }
}

impl HeavyHitters for LossyCounting {
    /// The report — a cache hit after a quiescent period, an entry scan
    /// on the first query after a mutation.
    fn report(&self) -> Report {
        self.cache.get_or_build(|| self.build_report()).clone()
    }
}

impl FrequencyEstimator for LossyCounting {
    fn estimate(&self, item: u64) -> f64 {
        self.entries
            .get(&item)
            .map(|&(c, _)| c as f64)
            .unwrap_or(0.0)
    }
}

/// Snapshot format version tag (v2: trailing integrity checksum; v3:
/// signed with its folded lane step).
const TAG: &str = "hh.baseline.lossy-counting.v3";

impl Codec for LossyCounting {
    fn write_to(&self, w: &mut Writer) {
        w.write_u64(self.window);
        w.write_u64(self.current_window);
        w.write_u64(self.in_window);
        w.write_u64(self.key_bits);
        w.write_u64(self.processed);
        w.write_f64(self.eps);
        w.write_f64(self.phi);
        self.sorted_entries().write_to(w);
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let window = r.read_u64()?;
        if window == 0 {
            return Err(CodecError::invariant(
                "LossyCounting window must be positive",
            ));
        }
        let current_window = r.read_u64()?;
        let in_window = r.read_u64()?;
        if in_window >= window || current_window == 0 {
            return Err(CodecError::invariant(
                "LossyCounting window state inconsistent",
            ));
        }
        let key_bits = r.read_u64()?;
        if key_bits > 64 {
            return Err(CodecError::invariant(
                "LossyCounting key width above 64 bits",
            ));
        }
        let processed = r.read_u64()?;
        let eps = r.read_f64()?;
        let phi = r.read_f64()?;
        if !(eps > 0.0 && eps < phi && phi <= 1.0) {
            return Err(CodecError::invariant("invalid (eps, phi) in snapshot"));
        }
        let pairs: Vec<(u64, (u64, u64))> = Vec::read_from(r)?;
        let mut entries = FastMap::default();
        for (item, cd) in pairs {
            if cd.0 == 0 {
                return Err(CodecError::invariant("LossyCounting zero-count entry"));
            }
            if cd.0 > processed {
                return Err(CodecError::invariant(
                    "LossyCounting count exceeds stream position",
                ));
            }
            if entries.insert(item, cd).is_some() {
                return Err(CodecError::invariant("LossyCounting duplicate items"));
            }
        }
        Ok(Self {
            entries,
            window,
            current_window,
            in_window,
            key_bits,
            processed,
            eps,
            phi,
            cache: QueryCache::new(),
        })
    }
}

impl LossyCounting {
    /// Entries in sorted item order (deterministic wire format; the map
    /// iteration order is hasher-dependent).
    fn sorted_entries(&self) -> Vec<(u64, (u64, u64))> {
        let mut v: Vec<(u64, (u64, u64))> = self.entries.iter().map(|(&i, &cd)| (i, cd)).collect();
        v.sort_unstable_by_key(|&(i, _)| i);
        v
    }
}

impl MergeableSummary for LossyCounting {
    /// The mergeable-summaries Lossy Counting merge: counts add for
    /// items tracked on both sides (`Δ`s add too), while an item
    /// tracked on only one side inherits the *other* side's untracked
    /// bound — its current window index — as extra `Δ`. The merged
    /// window index is the sum, so the invariants survive: tracked
    /// items keep `c ≤ f ≤ c + Δ` with `Δ ≤ b₁ + b₂ ≈ ε'(m₁+m₂)`, and
    /// untracked items keep `f ≤ b₁ + b₂`. One prune against the
    /// combined index restores the live-entry bound.
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.window != other.window {
            return Err(MergeError::Incompatible("window widths"));
        }
        if self.eps != other.eps || self.phi != other.phi {
            return Err(MergeError::Incompatible("(eps, phi) parameters"));
        }
        if self.key_bits != other.key_bits {
            return Err(MergeError::Incompatible("key widths"));
        }
        self.cache.invalidate();
        // Untracked-mass bounds: an item absent from a summary has at
        // most (current_window) occurrences in its substream (the prune
        // invariant, counting the partial window conservatively).
        let b_self = self.current_window;
        let b_other = other.current_window;
        // Items tracked only on our side could have had up to b_other
        // occurrences in the other substream. Charge it to *every* own
        // entry up front (a plain iteration, no hashing), then let the
        // pass over `other` cancel the charge for the items it tracks —
        // this replaces the seed implementation's second full pass with
        // one hash lookup per own entry.
        // All counter arithmetic below saturates: honestly built
        // summaries sit far from u64::MAX, but a restored snapshot may
        // not, and the merge must stay total (Δ is a conservative upper
        // bound, so saturation only loosens it — never unsound).
        for (_, entry) in self.entries.iter_mut() {
            entry.1 = entry.1.saturating_add(b_other);
        }
        for (item, &(c, d)) in other.entries.iter() {
            match self.entries.get_mut(item) {
                Some((sc, sd)) => {
                    *sc = sc.saturating_add(c);
                    // The blanket b_other charge does not apply to items
                    // other actually tracks; their own Δ adds instead.
                    *sd = sd.saturating_sub(b_other).saturating_add(d);
                }
                None => {
                    self.entries.insert(*item, (c, d.saturating_add(b_self)));
                }
            }
        }
        self.processed = self.processed.saturating_add(other.processed);
        // Combined window position: completed windows add; the partial
        // windows coalesce (their items are all accounted in c/Δ).
        self.in_window = self.in_window.saturating_add(other.in_window) % self.window;
        self.current_window = (self.processed / self.window).saturating_add(1);
        let b = self.current_window;
        self.entries
            .retain(|_, &mut (c, d)| c.saturating_add(d) > b);
        Ok(())
    }

    fn to_bytes(&self) -> Vec<u8> {
        snapshot::encode(TAG, self)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        snapshot::decode(TAG, bytes)
    }
}

impl SpaceUsage for LossyCounting {
    fn model_bits(&self) -> u64 {
        let entries: u64 = self
            .entries
            .iter()
            .map(|(_, &(c, d))| self.key_bits + gamma_bits(c) + gamma_bits(d))
            .sum();
        entries + gamma_bits(self.processed)
    }
    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn undercount_bounded_by_eps_m() {
        let mut rng = StdRng::seed_from_u64(2);
        let stream: Vec<u64> = (0..50_000)
            .map(|_| {
                if rng.gen_bool(0.25) {
                    3
                } else {
                    rng.gen_range(0..5000)
                }
            })
            .collect();
        let eps = 0.02;
        let mut lc = LossyCounting::new(eps, 0.1, 1 << 20);
        lc.insert_all(&stream);
        let truth = stream.iter().filter(|&&x| x == 3).count() as f64;
        let est = lc.estimate(3);
        assert!(est <= truth);
        assert!(
            est >= truth - eps * 50_000.0,
            "undercount too large: {est} vs {truth}"
        );
    }

    #[test]
    fn prunes_infrequent_items() {
        let mut lc = LossyCounting::new(0.1, 0.3, 1 << 20);
        // 10000 distinct singletons: table must stay near 1/ε' after
        // pruning, not grow linearly.
        for i in 0..10_000u64 {
            lc.insert(i);
        }
        assert!(lc.len() <= 2 * lc.window as usize, "len {}", lc.len());
    }

    #[test]
    fn report_keeps_heavy_drops_light() {
        let mut lc = LossyCounting::new(0.1, 0.3, 1 << 20);
        let mut stream = Vec::new();
        stream.extend(std::iter::repeat_n(1u64, 4000)); // 40%
        stream.extend(std::iter::repeat_n(2u64, 1500)); // 15% ≤ (φ−ε)m = 20%
        stream.extend((0..4500).map(|i| 100 + i % 1000));
        let mut rng = StdRng::seed_from_u64(4);
        use rand::seq::SliceRandom;
        stream.shuffle(&mut rng);
        lc.insert_all(&stream);
        let r = lc.report();
        assert!(r.contains(1));
        assert!(!r.contains(2));
    }

    #[test]
    fn deterministic() {
        let stream: Vec<u64> = (0..5000).map(|i| i % 97).collect();
        let mut a = LossyCounting::new(0.05, 0.2, 128);
        let mut b = LossyCounting::new(0.05, 0.2, 128);
        a.insert_all(&stream);
        b.insert_all(&stream);
        assert_eq!(a.report().entries(), b.report().entries());
    }

    #[test]
    fn batch_insert_matches_element_wise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(6);
        let stream: Vec<u64> = (0..25_000).map(|_| rng.gen_range(0..3000)).collect();
        let mut scalar = LossyCounting::new(0.05, 0.2, 1 << 20);
        for &x in &stream {
            scalar.insert(x);
        }
        // Chunk sizes chosen to land both inside and across windows.
        let mut batch = LossyCounting::new(0.05, 0.2, 1 << 20);
        for chunk in stream.chunks(61) {
            batch.insert_batch(chunk);
        }
        assert_eq!(scalar.len(), batch.len());
        for probe in 0..3000u64 {
            assert_eq!(scalar.estimate(probe), batch.estimate(probe), "{probe}");
        }
        assert_eq!(scalar.model_bits(), batch.model_bits());
    }
}
