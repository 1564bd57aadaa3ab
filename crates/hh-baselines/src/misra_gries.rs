//! The Misra–Gries baseline as the paper's point of comparison:
//! `O(ε⁻¹(log n + log m))` bits, deterministic.

use hh_core::mergeable::snapshot;
use hh_core::{
    HeavyHitters, ItemEstimate, MergeError, MergeableSummary, MisraGries, QueryCache, Report,
    SnapshotError, StreamSummary,
};
use hh_space::codec::{Codec, CodecError, Reader, Writer};
use hh_space::SpaceUsage;

/// Misra–Gries run over raw ids with `⌈1/ε⌉` counters, reporting at the
/// `(φ − ε/2)m` threshold.
///
/// Wraps the same table Algorithms 1 and 2 embed (`hh_core::mg`), but
/// keyed by raw ids over the full (unsampled) stream — exactly the
/// algorithm of \[MG82\] the paper cites as the state of the art it
/// improves: *"prior to our work the best known algorithms for the (ε,
/// φ)-Heavy Hitters Problem used O(ε⁻¹(log n + log m)) bits of space."*
#[derive(Debug, Clone)]
pub struct MisraGriesBaseline {
    table: MisraGries,
    eps: f64,
    phi: f64,
    /// Materialized report; every mutation invalidates (see DESIGN.md §8).
    cache: QueryCache<Report>,
}

impl MisraGriesBaseline {
    /// Baseline with `⌈2/ε⌉` counters (error `εm/2`, leaving slack for
    /// the report threshold) over universe `[0, universe)`.
    pub fn new(eps: f64, phi: f64, universe: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        assert!(phi > eps && phi <= 1.0, "need eps < phi <= 1");
        let k = (2.0 / eps).ceil() as usize;
        Self {
            table: MisraGries::for_universe(k, universe),
            eps,
            phi,
            cache: QueryCache::new(),
        }
    }

    /// Number of counters.
    pub fn capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Access to the underlying table (for merging).
    pub fn table(&self) -> &MisraGries {
        &self.table
    }

    /// Mutable access to the underlying table (for merging). Mutating
    /// through it can change query answers, so the report cache drops.
    pub fn table_mut(&mut self) -> &mut MisraGries {
        self.cache.invalidate();
        &mut self.table
    }

    /// The cold report pass behind the cached [`HeavyHitters::report`].
    fn build_report(&self) -> Report {
        let m = self.table.processed() as f64;
        // MG undercounts by at most m/(k+1) <= eps*m/2; compensate half
        // the bias in the threshold so both sides of Definition 1 hold.
        let threshold = (self.phi - self.eps / 2.0) * m;
        self.table
            .entries()
            .into_iter()
            .filter(|&(_, c)| c as f64 >= threshold)
            .map(|(item, c)| ItemEstimate {
                item,
                count: c as f64,
            })
            .collect()
    }
}

impl StreamSummary for MisraGriesBaseline {
    fn insert(&mut self, item: u64) {
        self.cache.invalidate();
        self.table.insert(item);
    }

    fn insert_batch(&mut self, items: &[u64]) {
        self.cache.invalidate();
        self.table.insert_batch(items);
    }
}

impl HeavyHitters for MisraGriesBaseline {
    /// The report — a cache hit after a quiescent period, a table scan
    /// on the first query after a mutation.
    fn report(&self) -> Report {
        self.cache.get_or_build(|| self.build_report()).clone()
    }
}

impl hh_core::FrequencyEstimator for MisraGriesBaseline {
    fn estimate(&self, item: u64) -> f64 {
        self.table.estimate(item) as f64
    }
}

impl SpaceUsage for MisraGriesBaseline {
    fn model_bits(&self) -> u64 {
        self.table.model_bits()
    }
    fn heap_bytes(&self) -> usize {
        self.table.heap_bytes()
    }
}

/// Snapshot format version tag (v2: the wrapped table switched to the
/// varint-slice wire format; v3: trailing integrity checksum; v4:
/// signed with its folded lane step).
const TAG: &str = "hh.baseline.misra-gries.v4";

impl Codec for MisraGriesBaseline {
    fn write_to(&self, w: &mut Writer) {
        w.write_f64(self.eps);
        w.write_f64(self.phi);
        self.table.write_to(w);
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let eps = r.read_f64()?;
        let phi = r.read_f64()?;
        if !(eps > 0.0 && eps < phi && phi <= 1.0) {
            return Err(CodecError::invariant("invalid (eps, phi) in snapshot"));
        }
        let table = MisraGries::read_from(r)?;
        Ok(Self {
            table,
            eps,
            phi,
            cache: QueryCache::new(),
        })
    }
}

impl MergeableSummary for MisraGriesBaseline {
    /// Counter merge of the underlying tables ([`MisraGries::merge`]);
    /// deterministic, so any two instances with the same `(ε, φ)` are
    /// compatible.
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.eps != other.eps || self.phi != other.phi {
            return Err(MergeError::Incompatible("(eps, phi) parameters"));
        }
        self.cache.invalidate();
        self.table.merge_from(other.table())
    }

    fn to_bytes(&self) -> Vec<u8> {
        snapshot::encode(TAG, self)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        snapshot::decode(TAG, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_streams::{arrange, OrderPolicy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn guarantee_on_planted_stream() {
        let m = 100_000u64;
        let mut counts = vec![(1u64, 30_000u64), (2, 12_000), (3, 7_900)];
        for j in 0..500u64 {
            counts.push((100 + j, 100));
        }
        let used: u64 = counts.iter().map(|&(_, c)| c).sum();
        counts[0].1 += m - used;
        let mut rng = StdRng::seed_from_u64(1);
        let stream = arrange(&counts, OrderPolicy::Shuffled, &mut rng);
        let mut b = MisraGriesBaseline::new(0.02, 0.1, 1 << 20);
        b.insert_all(&stream);
        let r = b.report();
        // f1 > 30%, f2 = 12% are heavy at φ = 10%; f3 = 7.9% ≤ (φ−ε)m = 8%.
        assert!(r.contains(1) && r.contains(2));
        assert!(!r.contains(3));
    }

    #[test]
    fn estimates_never_exceed_truth() {
        let mut b = MisraGriesBaseline::new(0.1, 0.3, 100);
        for i in 0..10_000u64 {
            b.insert(i % 37);
        }
        use hh_core::FrequencyEstimator;
        for i in 0..37u64 {
            let truth = 10_000 / 37 + u64::from(i < 10_000 % 37);
            assert!(b.estimate(i) <= truth as f64);
        }
    }

    #[test]
    fn space_scales_with_log_universe() {
        let mut small = MisraGriesBaseline::new(0.1, 0.3, 1 << 10);
        let mut large = MisraGriesBaseline::new(0.1, 0.3, 1 << 60);
        for i in 0..1000u64 {
            small.insert(i % 30);
            large.insert(i % 30);
        }
        // 50 extra bits per stored key.
        let diff = large.model_bits() - small.model_bits();
        assert_eq!(diff, 50 * large.table.len() as u64);
    }

    #[test]
    #[should_panic(expected = "need eps < phi")]
    fn bad_params_rejected() {
        MisraGriesBaseline::new(0.3, 0.2, 10);
    }
}
