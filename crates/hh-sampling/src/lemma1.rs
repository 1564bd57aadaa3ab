//! The Lemma-1 sampler: select an item with probability `1/m` in
//! `O(log log m)` bits and `O(1)` time.
//!
//! Paper, Lemma 1: *"We generate a `(log₂ m)`-bit integer C uniformly at
//! random ... Choose the item only if ... C = 0."* The only persistent
//! state is the number of random bits to draw, `k = log₂ m`, which costs
//! `O(log k) = O(log log m)` bits. Proposition 2 (appendix B) shows this is
//! optimal for any algorithm sampling with probability `p ≤ 1/n`.

use hh_space::space::{delta_bits, SpaceUsage};
use rand::Rng;

/// Samples each offered item independently with probability `2^{-k}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lemma1Sampler {
    /// Number of fair coin flips per decision; the sampler's entire state.
    k: u32,
}

impl Lemma1Sampler {
    /// Sampler with inclusion probability exactly `2^{-k}`.
    ///
    /// # Panics
    /// If `k > 64` (the paper's streams never exceed `2⁶⁴` items).
    pub fn with_log_denominator(k: u32) -> Self {
        assert!(k <= 64, "k must be at most 64");
        Self { k }
    }

    /// Sampler with probability `1/m` where `m` is rounded **up** to the
    /// next power of two (footnote 3: replacing `p` by the nearby
    /// power-of-two probability affects neither correctness nor the
    /// asymptotic performance).
    pub fn with_denominator(m: u64) -> Self {
        Self::with_log_denominator(hh_space::ceil_log2(m) as u32)
    }

    /// The inclusion probability `2^{-k}`.
    pub fn probability(&self) -> f64 {
        (0.5f64).powi(self.k as i32)
    }

    /// `k`, the log of the denominator.
    pub fn log_denominator(&self) -> u32 {
        self.k
    }

    /// One sampling decision: draws `k` fair bits, accepts iff all are
    /// zero. `O(1)` in the word RAM (one or zero 64-bit draws).
    #[inline]
    pub fn decide<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        if self.k == 0 {
            return true;
        }
        let word: u64 = rng.gen();
        let mask = if self.k == 64 {
            u64::MAX
        } else {
            (1u64 << self.k) - 1
        };
        word & mask == 0
    }
}

impl SpaceUsage for Lemma1Sampler {
    fn model_bits(&self) -> u64 {
        // Stores k in a self-delimiting code: Θ(log k) = Θ(log log m).
        delta_bits(self.k as u64)
    }
    fn heap_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probability_matches_empirical_rate() {
        let mut rng = StdRng::seed_from_u64(42);
        for k in [1u32, 3, 6] {
            let s = Lemma1Sampler::with_log_denominator(k);
            let trials = 200_000u32;
            let hits = (0..trials).filter(|_| s.decide(&mut rng)).count() as f64;
            let rate = hits / trials as f64;
            let p = s.probability();
            assert!(
                (rate - p).abs() < 0.25 * p + 1e-4,
                "k={k}: rate {rate} vs p {p}"
            );
        }
    }

    #[test]
    fn k_zero_always_accepts() {
        let mut rng = StdRng::seed_from_u64(0);
        let s = Lemma1Sampler::with_log_denominator(0);
        assert!((0..100).all(|_| s.decide(&mut rng)));
        assert_eq!(s.probability(), 1.0);
    }

    #[test]
    fn with_denominator_rounds_up_to_pow2() {
        assert_eq!(Lemma1Sampler::with_denominator(1000).log_denominator(), 10);
        assert_eq!(Lemma1Sampler::with_denominator(1024).log_denominator(), 10);
        assert_eq!(Lemma1Sampler::with_denominator(1025).log_denominator(), 11);
        assert_eq!(Lemma1Sampler::with_denominator(1).log_denominator(), 0);
    }

    #[test]
    fn space_is_log_log_m() {
        // For m = 2^40, k = 40, and the state is Θ(log 40) bits — single
        // digits, far below log m.
        let s = Lemma1Sampler::with_denominator(1 << 40);
        assert!(s.model_bits() <= 16, "got {}", s.model_bits());
        // Doubling m many times barely moves the space.
        let s2 = Lemma1Sampler::with_denominator(1 << 60);
        assert!(s2.model_bits() - s.model_bits() <= 4);
    }

    #[test]
    fn k_64_uses_full_mask() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = Lemma1Sampler::with_log_denominator(64);
        // Probability 2^-64: should essentially never fire.
        assert!((0..10_000).all(|_| !s.decide(&mut rng)));
    }
}
