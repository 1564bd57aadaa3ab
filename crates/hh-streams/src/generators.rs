//! Non-Zipf item sources and adversarial stream arrangements.

use crate::ItemSource;
use rand::seq::SliceRandom;
use rand::Rng;

/// Uniform item source over `[0, n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformGenerator {
    n: u64,
}

impl UniformGenerator {
    /// Uniform source over a universe of size `n ≥ 1`.
    pub fn new(n: u64) -> Self {
        assert!(n >= 1, "universe must be non-empty");
        Self { n }
    }
}

impl ItemSource for UniformGenerator {
    fn next_item<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        rng.gen_range(0..self.n)
    }
    fn universe(&self) -> u64 {
        self.n
    }
}

/// Item source with explicitly *planted* heavy items over a uniform
/// background — the workload for the guarantee experiments (E11), because
/// the true frequencies are designed, not sampled.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedGenerator {
    /// `(item, probability)` for the planted items.
    heavy: Vec<(u64, f64)>,
    /// Background universe `[0, n)`; background ids colliding with planted
    /// ids are re-drawn so planted probabilities stay exact.
    n: u64,
    heavy_mass: f64,
}

impl PlantedGenerator {
    /// Plants `heavy` items with the given marginal probabilities; the
    /// remaining mass is uniform over `[0, n)` minus the planted ids.
    ///
    /// # Panics
    /// If probabilities are not in (0,1), sum above 1, ids repeat, or ids
    /// fall outside the universe.
    pub fn new(n: u64, heavy: Vec<(u64, f64)>) -> Self {
        let mass: f64 = heavy.iter().map(|&(_, p)| p).sum();
        assert!(mass < 1.0 + 1e-12, "planted mass must be at most 1");
        assert!(
            heavy.iter().all(|&(_, p)| p > 0.0),
            "probabilities must be positive"
        );
        assert!(heavy.iter().all(|&(i, _)| i < n), "ids must be in universe");
        let mut ids: Vec<u64> = heavy.iter().map(|&(i, _)| i).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), heavy.len(), "planted ids must be distinct");
        assert!(
            (n as usize) > heavy.len(),
            "universe must exceed planted set"
        );
        Self {
            heavy,
            n,
            heavy_mass: mass,
        }
    }

    /// The planted `(item, probability)` pairs.
    pub fn planted(&self) -> &[(u64, f64)] {
        &self.heavy
    }
}

impl ItemSource for PlantedGenerator {
    fn next_item<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        let mut u: f64 = rng.gen();
        if u < self.heavy_mass {
            for &(item, p) in &self.heavy {
                if u < p {
                    return item;
                }
                u -= p;
            }
        }
        // Background: uniform over non-planted ids.
        loop {
            let x = rng.gen_range(0..self.n);
            if !self.heavy.iter().any(|&(i, _)| i == x) {
                return x;
            }
        }
    }

    fn universe(&self) -> u64 {
        self.n
    }
}

/// How a fixed multiset of items is laid out along the stream. The paper's
/// guarantees are order-independent; these policies probe that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Uniformly random permutation of the multiset.
    Shuffled,
    /// All copies of an item appear consecutively (sorted by item id).
    Sorted,
    /// Round-robin across items until counts are exhausted — maximally
    /// interleaved, the hard case for sticky-sampling-style algorithms.
    RoundRobin,
    /// All copies of the heavy items at the *end* — the layout of the
    /// Indexing reduction in Theorem 9, where Bob's items arrive last.
    HeavyLast,
}

/// Builds a concrete stream from `(item, count)` pairs under the given
/// ordering policy.
pub fn arrange<R: Rng + ?Sized>(
    counts: &[(u64, u64)],
    policy: OrderPolicy,
    rng: &mut R,
) -> Vec<u64> {
    let total: u64 = counts.iter().map(|&(_, c)| c).sum();
    let mut stream = Vec::with_capacity(total as usize);
    match policy {
        OrderPolicy::Shuffled => {
            for &(item, c) in counts {
                stream.extend(std::iter::repeat_n(item, c as usize));
            }
            stream.shuffle(rng);
        }
        OrderPolicy::Sorted => {
            let mut sorted = counts.to_vec();
            sorted.sort_unstable();
            for (item, c) in sorted {
                stream.extend(std::iter::repeat_n(item, c as usize));
            }
        }
        OrderPolicy::RoundRobin => {
            let mut remaining: Vec<(u64, u64)> = counts.to_vec();
            while !remaining.is_empty() {
                remaining.retain_mut(|(item, c)| {
                    stream.push(*item);
                    *c -= 1;
                    *c > 0
                });
            }
        }
        OrderPolicy::HeavyLast => {
            let mut sorted = counts.to_vec();
            sorted.sort_unstable_by_key(|&(_, c)| c); // light first
            for (item, c) in sorted {
                stream.extend(std::iter::repeat_n(item, c as usize));
            }
        }
    }
    stream
}

/// Materializes `len` draws from a source.
pub fn collect_stream<S: ItemSource, R: Rng + ?Sized>(
    source: &mut S,
    len: usize,
    rng: &mut R,
) -> Vec<u64> {
    (0..len).map(|_| source.next_item(rng)).collect()
}

/// Builds the hardest frequency vector for the (ε, φ) decision problem:
/// `heavy` items just **above** the report threshold (`φm + slack`) and
/// `boundary` items at exactly `(φ−ε)m` — the largest frequency an
/// algorithm must refuse. Anything that blurs counts by more than εm
/// will either miss a heavy item or leak a boundary item; used by the
/// false-positive stress tests.
///
/// Returns `(counts, heavy_ids, boundary_ids)`; counts sum to `m` (a
/// filler tail of singletons absorbs the remainder).
///
/// # Panics
/// If the requested items exceed the stream budget.
pub fn threshold_adversary(
    m: u64,
    phi: f64,
    eps: f64,
    heavy: usize,
    boundary: usize,
) -> (Vec<(u64, u64)>, Vec<u64>, Vec<u64>) {
    let above = (phi * m as f64).floor() as u64 + 1 + m / 1000;
    let at = ((phi - eps) * m as f64).floor() as u64;
    let planted = above * heavy as u64 + at * boundary as u64;
    assert!(planted <= m, "adversary does not fit in the stream budget");
    let mut counts = Vec::new();
    let mut heavy_ids = Vec::new();
    let mut boundary_ids = Vec::new();
    for i in 0..heavy as u64 {
        counts.push((i, above));
        heavy_ids.push(i);
    }
    for i in 0..boundary as u64 {
        let id = 1000 + i;
        counts.push((id, at));
        boundary_ids.push(id);
    }
    let mut fill = m - planted;
    let mut id = 1_000_000u64;
    while fill > 0 {
        let c = fill.min(1);
        counts.push((id, c));
        fill -= c;
        id += 1;
    }
    (counts, heavy_ids, boundary_ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_covers_universe() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = UniformGenerator::new(8);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[g.next_item(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn planted_frequencies_match() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = PlantedGenerator::new(1000, vec![(7, 0.3), (99, 0.1)]);
        let n = 100_000;
        let stream = collect_stream(&mut g, n, &mut rng);
        let f7 = stream.iter().filter(|&&x| x == 7).count() as f64 / n as f64;
        let f99 = stream.iter().filter(|&&x| x == 99).count() as f64 / n as f64;
        assert!((f7 - 0.3).abs() < 0.01, "f7 {f7}");
        assert!((f99 - 0.1).abs() < 0.01, "f99 {f99}");
    }

    #[test]
    fn planted_background_avoids_planted_ids() {
        let mut rng = StdRng::seed_from_u64(3);
        // Tiny universe: background must still avoid item 0.
        let mut g = PlantedGenerator::new(3, vec![(0, 0.5)]);
        let stream = collect_stream(&mut g, 5000, &mut rng);
        let f0 = stream.iter().filter(|&&x| x == 0).count() as f64 / 5000.0;
        assert!((f0 - 0.5).abs() < 0.05);
        assert!(stream.iter().all(|&x| x < 3));
    }

    #[test]
    #[should_panic(expected = "planted ids must be distinct")]
    fn duplicate_planted_ids_rejected() {
        PlantedGenerator::new(10, vec![(1, 0.2), (1, 0.2)]);
    }

    #[test]
    fn arrange_preserves_multiset_for_all_policies() {
        let mut rng = StdRng::seed_from_u64(4);
        let counts = [(3u64, 5u64), (9, 2), (1, 7)];
        for policy in [
            OrderPolicy::Shuffled,
            OrderPolicy::Sorted,
            OrderPolicy::RoundRobin,
            OrderPolicy::HeavyLast,
        ] {
            let stream = arrange(&counts, policy, &mut rng);
            assert_eq!(stream.len(), 14, "{policy:?}");
            for &(item, c) in &counts {
                let got = stream.iter().filter(|&&x| x == item).count() as u64;
                assert_eq!(got, c, "{policy:?} item {item}");
            }
        }
    }

    #[test]
    fn round_robin_interleaves() {
        let mut rng = StdRng::seed_from_u64(5);
        let stream = arrange(&[(0, 3), (1, 3)], OrderPolicy::RoundRobin, &mut rng);
        assert_eq!(stream, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn threshold_adversary_counts_are_exact() {
        let m = 100_000u64;
        let (counts, heavy, boundary) = threshold_adversary(m, 0.2, 0.05, 2, 3);
        let total: u64 = counts.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, m);
        assert_eq!(heavy.len(), 2);
        assert_eq!(boundary.len(), 3);
        for &h in &heavy {
            let c = counts.iter().find(|&&(i, _)| i == h).unwrap().1;
            assert!(c as f64 > 0.2 * m as f64, "heavy item must clear phi*m");
        }
        for &b in &boundary {
            let c = counts.iter().find(|&&(i, _)| i == b).unwrap().1;
            assert_eq!(c, ((0.2 - 0.05) * m as f64).floor() as u64);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn threshold_adversary_rejects_overfull() {
        threshold_adversary(100, 0.5, 0.1, 3, 0);
    }

    #[test]
    fn heavy_last_puts_max_count_at_end() {
        let mut rng = StdRng::seed_from_u64(6);
        let stream = arrange(&[(5, 10), (6, 1)], OrderPolicy::HeavyLast, &mut rng);
        assert_eq!(stream[0], 6);
        assert!(stream[1..].iter().all(|&x| x == 5));
    }
}
