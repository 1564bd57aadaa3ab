//! The Morris approximate counter \[Mor78, Fla85\].
//!
//! §3.5 of the paper uses it to track the stream position in
//! `O(log log m + k)` bits with error probability `2^{−k/2}`: *"We use the
//! approximate counting method of Morris to approximately count the length
//! of the stream"*, with correctness-at-every-power-of-two (event E in the
//! proof of Theorem 7) giving a factor-4 approximation at every position.
//!
//! The counter keeps `C` and increments it with probability `b^{−C}`; the
//! estimate is `(b^C − 1)/(b − 1)`. Base `b = 2` is the classical counter;
//! [`MorrisCounter::with_accuracy`] averages `s` independent copies to cut
//! the relative standard error to `≈ √(1/(2s))`.

use hh_space::space::{gamma_bits, SpaceUsage};
use rand::Rng;

/// A bank of `s` independent base-`b` Morris counters whose estimates are
/// averaged.
#[derive(Debug, Clone, PartialEq)]
pub struct MorrisCounter {
    /// Exponents of the independent copies.
    exponents: Vec<u32>,
    base: f64,
}

impl MorrisCounter {
    /// Single classical base-2 Morris counter.
    pub fn new() -> Self {
        Self::with_copies(2.0, 1)
    }

    /// `copies` independent base-`base` counters, averaged.
    ///
    /// # Panics
    /// If `base ≤ 1` or `copies == 0`.
    pub fn with_copies(base: f64, copies: usize) -> Self {
        assert!(base > 1.0, "base must exceed 1");
        assert!(copies >= 1, "need at least one copy");
        Self {
            exponents: vec![0; copies],
            base,
        }
    }

    /// A counter bank sized so the relative standard error is about
    /// `rel_err` (uses the Flajolet variance `Var ≈ n²(b−1)/2` per copy).
    pub fn with_accuracy(rel_err: f64) -> Self {
        assert!(rel_err > 0.0);
        // With base b and s copies: rel. std. err ≈ sqrt((b−1)/(2s)).
        // Fix b = 2 and solve for s.
        let s = (0.5 / (rel_err * rel_err)).ceil().max(1.0) as usize;
        Self::with_copies(2.0, s)
    }

    /// Registers one stream item.
    #[inline]
    pub fn increment<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for c in self.exponents.iter_mut() {
            let p = self.base.powi(-(*c as i32));
            if p >= 1.0 || rng.gen::<f64>() < p {
                *c += 1;
            }
        }
    }

    /// Current estimate of the number of increments.
    pub fn estimate(&self) -> f64 {
        let total: f64 = self
            .exponents
            .iter()
            .map(|&c| (self.base.powi(c as i32) - 1.0) / (self.base - 1.0))
            .sum();
        total / self.exponents.len() as f64
    }

    /// Largest exponent across copies (drives the space accounting).
    pub fn max_exponent(&self) -> u32 {
        self.exponents.iter().copied().max().unwrap_or(0)
    }

    /// Number of independent copies.
    pub fn copies(&self) -> usize {
        self.exponents.len()
    }
}

impl Default for MorrisCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl SpaceUsage for MorrisCounter {
    fn model_bits(&self) -> u64 {
        // Each copy stores its exponent C ≈ log_b(count): Θ(log log m).
        self.exponents.iter().map(|&c| gamma_bits(c as u64)).sum()
    }
    fn heap_bytes(&self) -> usize {
        self.exponents.capacity() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn estimate_unbiased_over_many_runs() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 4096u64;
        let runs = 300;
        let mut sum = 0.0;
        for _ in 0..runs {
            let mut c = MorrisCounter::new();
            for _ in 0..n {
                c.increment(&mut rng);
            }
            sum += c.estimate();
        }
        let mean = sum / runs as f64;
        // Unbiased estimator: mean within ~3 standard errors.
        // Per-run std ≈ n/√2, so std-err ≈ n/√(2·runs) ≈ 0.041 n.
        assert!(
            (mean - n as f64).abs() < 0.15 * n as f64,
            "mean {mean} vs {n}"
        );
    }

    #[test]
    fn averaging_reduces_error() {
        let mut rng = StdRng::seed_from_u64(10);
        let n = 10_000u64;
        let mut bank = MorrisCounter::with_accuracy(0.1);
        assert!(bank.copies() >= 50);
        for _ in 0..n {
            bank.increment(&mut rng);
        }
        let rel = (bank.estimate() - n as f64).abs() / n as f64;
        assert!(rel < 0.35, "relative error {rel}");
    }

    #[test]
    fn exponent_is_log_of_count() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut c = MorrisCounter::new();
        for _ in 0..1 << 16 {
            c.increment(&mut rng);
        }
        let e = c.max_exponent();
        // Exponent should be near log2(n) = 16 (within a few doublings).
        assert!((10..=22).contains(&e), "exponent {e}");
        // And the space is gamma(e): a handful of bits.
        assert!(c.model_bits() <= 16);
    }

    #[test]
    fn zero_increments_zero_estimate() {
        let c = MorrisCounter::new();
        assert_eq!(c.estimate(), 0.0);
        assert_eq!(c.max_exponent(), 0);
    }

    #[test]
    fn factor_four_accuracy_at_powers_of_two() {
        // Event E in Theorem 7's proof: correctness within a factor of 4
        // at every position, given correctness at powers of two. Empirical
        // proxy: a moderately averaged counter stays within 4x at every
        // power of two with high probability.
        let mut rng = StdRng::seed_from_u64(12);
        let mut c = MorrisCounter::with_copies(2.0, 16);
        let mut n = 0u64;
        let mut ok = true;
        for _ in 0..(1 << 14) {
            c.increment(&mut rng);
            n += 1;
            if n.is_power_of_two() && n >= 16 {
                let est = c.estimate();
                ok &= est >= n as f64 / 4.0 && est <= n as f64 * 4.0;
            }
        }
        assert!(ok, "estimate left the 4x envelope at a power of two");
    }
}
