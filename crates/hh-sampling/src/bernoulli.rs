//! Per-item Bernoulli sampling with power-of-two probabilities, and the
//! geometric-skip equivalent.
//!
//! Footnote 3 of the paper: *"whenever we pick an item with probability
//! p > 0, we can assume, without loss of generality, that 1/p is a power of
//! two"*. [`BernoulliSampler`] implements exactly that coin; its state is
//! the exponent, `O(log log m)` bits.
//!
//! [`SkipSampler`] draws the *gap* to the next sampled item from the
//! geometric distribution instead of flipping a coin per item. The two are
//! distributionally identical, but the skip form does constant work per
//! stream position with no random draw at unsampled positions — this is
//! how the algorithms keep `O(1)` worst-case update time (§3.1: work is
//! "spread out" because samples are `Θ(1/ε)` positions apart on average).

use crate::lemma1::Lemma1Sampler;
use hh_space::codec::{Codec, CodecError, Reader, Writer};
use hh_space::space::{delta_bits, gamma_bits, SpaceUsage};
use rand::Rng;

/// Rounds probability `p` to `2^{-k}` with `k = round(−log₂ p)` clamped to
/// `[0, 64]`, per footnote 3.
pub fn pow2_exponent(p: f64) -> u32 {
    assert!(p > 0.0 && p <= 1.0, "probability must be in (0, 1]");
    (-p.log2()).round().clamp(0.0, 64.0) as u32
}

/// Draws a Geometric(2⁻ᵏ) failure count — the gap before the next
/// success of a Bernoulli(2⁻ᵏ) trial sequence — by inversion in O(1):
/// `⌊ln U / ln(1 − 2⁻ᵏ)⌋`, `k ≥ 1`.
///
/// The denominator is computed as `(-p).ln_1p()`, which stays exact when
/// `1 − 2⁻ᵏ` rounds to 1.0 in f64 (`k ≥ 54`); the naive
/// `(1.0 - p).ln()` form divides by zero there and degenerates into an
/// accept-everything sampler. Shared by [`SkipSampler`] and
/// [`crate::BitSkipSampler`] so the math exists (and is fixed) in
/// exactly one place.
pub(crate) fn geometric_gap<R: Rng + ?Sized>(k: u32, rng: &mut R) -> u64 {
    debug_assert!((1..=64).contains(&k));
    let p = (0.5f64).powi(k as i32);
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let g = (u.ln() / (-p).ln_1p()).floor();
    if g >= u64::MAX as f64 {
        u64::MAX
    } else {
        g as u64
    }
}

/// Independent coin with probability `2^{-k}` per offered item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BernoulliSampler {
    inner: Lemma1Sampler,
}

impl BernoulliSampler {
    /// Coin with probability `2^{-k}`.
    pub fn with_exponent(k: u32) -> Self {
        Self {
            inner: Lemma1Sampler::with_log_denominator(k),
        }
    }

    /// Coin with probability `p` rounded to the nearest power of two.
    pub fn with_probability(p: f64) -> Self {
        Self::with_exponent(pow2_exponent(p))
    }

    /// The (rounded) inclusion probability.
    pub fn probability(&self) -> f64 {
        self.inner.probability()
    }

    /// Flips the coin.
    #[inline]
    pub fn accept<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.inner.decide(rng)
    }
}

impl SpaceUsage for BernoulliSampler {
    fn model_bits(&self) -> u64 {
        self.inner.model_bits()
    }
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Geometric-gap sampler: behaves like [`BernoulliSampler`] but only draws
/// randomness when a sample fires.
///
/// State: the exponent `k` plus a countdown of at most `O(log(1/p))` bits
/// in expectation (the gap value), still `O(log log m + log(1/p))` — within
/// the paper's budget since `1/p = O(m/ℓ)` and the countdown is charged to
/// the `log log m` term in expectation by footnote 3's power-of-two form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkipSampler {
    k: u32,
    /// Items remaining to skip before the next accept; `0` means the next
    /// offer accepts.
    remaining: u64,
    primed: bool,
}

impl SkipSampler {
    /// Skip sampler with probability `2^{-k}`.
    pub fn with_exponent(k: u32) -> Self {
        assert!(k <= 64, "k must be at most 64");
        Self {
            k,
            remaining: 0,
            primed: false,
        }
    }

    /// Skip sampler with probability `p` rounded to a power of two.
    pub fn with_probability(p: f64) -> Self {
        Self::with_exponent(pow2_exponent(p))
    }

    /// The inclusion probability.
    pub fn probability(&self) -> f64 {
        (0.5f64).powi(self.k as i32)
    }

    /// The exponent `k` (inclusion probability is `2⁻ᵏ`); see
    /// [`crate::BitSkipSampler::exponent`].
    pub fn exponent(&self) -> u32 {
        self.k
    }

    fn draw_gap<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        // Geometric(p): number of failures before the first success; for
        // k = 0 the gap is always 0.
        self.remaining = if self.k == 0 {
            0
        } else {
            geometric_gap(self.k, rng)
        };
        self.primed = true;
    }

    /// Offers one item; returns whether it is sampled.
    #[inline]
    pub fn accept<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        if !self.primed {
            self.draw_gap(rng);
        }
        if self.remaining == 0 {
            self.draw_gap(rng);
            true
        } else {
            self.remaining -= 1;
            false
        }
    }

    /// Offers `n` consecutive items at once; returns the offset of the
    /// first sampled one (consuming its trial), or `None` if none of the
    /// `n` are sampled.
    ///
    /// Exactly equivalent — including the backing-RNG draw sequence — to
    /// calling [`SkipSampler::accept`] up to `n` times and stopping at
    /// the first `true`: the pre-drawn gap either covers the whole batch
    /// (one subtraction, no RNG) or lands inside it (the success is
    /// consumed and the next gap pre-drawn, as `accept` would). This is
    /// the batch-ingestion fast path: unsampled runs cost one arithmetic
    /// step instead of one decrement per item.
    #[inline]
    pub fn next_within<R: Rng + ?Sized>(&mut self, n: u64, rng: &mut R) -> Option<u64> {
        if !self.primed {
            self.draw_gap(rng);
        }
        if self.remaining >= n {
            self.remaining -= n;
            return None;
        }
        let offset = self.remaining;
        self.draw_gap(rng);
        Some(offset)
    }
}

impl SpaceUsage for SkipSampler {
    fn model_bits(&self) -> u64 {
        delta_bits(self.k as u64) + gamma_bits(self.remaining) + 1
    }
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Field-wise snapshot: exponent, countdown, primed flag. Restoring
/// resumes the trial sequence exactly where the snapshot left it.
impl Codec for SkipSampler {
    fn write_to(&self, w: &mut Writer) {
        w.write_u64(self.k as u64);
        w.write_u64(self.remaining);
        w.write_bool(self.primed);
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let k = r.read_u64()?;
        if k > 64 {
            return Err(CodecError::invariant("SkipSampler exponent above 64"));
        }
        let remaining = r.read_u64()?;
        let primed = r.read_bool()?;
        let mut s = Self::with_exponent(k as u32);
        s.remaining = remaining;
        s.primed = primed;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pow2_exponent_rounds() {
        assert_eq!(pow2_exponent(1.0), 0);
        assert_eq!(pow2_exponent(0.5), 1);
        assert_eq!(pow2_exponent(0.25), 2);
        assert_eq!(pow2_exponent(0.3), 2); // -log2(0.3) ≈ 1.74 → 2
        assert_eq!(pow2_exponent(0.4), 1); // -log2(0.4) ≈ 1.32 → 1
        assert_eq!(pow2_exponent(1e-30), 64); // clamped
    }

    #[test]
    fn skip_and_coin_have_same_rate() {
        let mut rng = StdRng::seed_from_u64(1234);
        let n = 1 << 18;
        for k in [2u32, 5] {
            let coin = BernoulliSampler::with_exponent(k);
            let mut skip = SkipSampler::with_exponent(k);
            let coin_hits = (0..n).filter(|_| coin.accept(&mut rng)).count() as f64;
            let skip_hits = (0..n).filter(|_| skip.accept(&mut rng)).count() as f64;
            let expect = n as f64 * (0.5f64).powi(k as i32);
            for (name, hits) in [("coin", coin_hits), ("skip", skip_hits)] {
                assert!(
                    (hits - expect).abs() < 6.0 * expect.sqrt() + 6.0,
                    "k={k} {name}: {hits} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn skip_gaps_are_geometric() {
        // Mean gap between accepts should be 1/p.
        let mut rng = StdRng::seed_from_u64(7);
        let k = 4u32;
        let mut s = SkipSampler::with_exponent(k);
        let mut gaps = Vec::new();
        let mut since = 0u64;
        for _ in 0..1 << 18 {
            if s.accept(&mut rng) {
                gaps.push(since);
                since = 0;
            } else {
                since += 1;
            }
        }
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        let expect = (1u64 << k) as f64 - 1.0; // failures before a success
        assert!(
            (mean - expect).abs() < 0.1 * expect,
            "mean gap {mean} vs {expect}"
        );
    }

    #[test]
    fn probability_one_accepts_everything() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = SkipSampler::with_exponent(0);
        assert!((0..100).all(|_| s.accept(&mut rng)));
    }

    #[test]
    fn next_within_matches_per_trial_accept() {
        // Same seed, same exponent: driving the sampler with batched
        // next_within over arbitrary chunk sizes must reproduce the
        // per-trial accept sequence exactly (positions and RNG draws).
        for k in [0u32, 1, 3, 6] {
            let n_trials = 50_000u64;
            let mut scalar = SkipSampler::with_exponent(k);
            let mut rng_a = StdRng::seed_from_u64(99);
            let scalar_hits: Vec<u64> = (0..n_trials)
                .filter(|_| scalar.accept(&mut rng_a))
                .collect();
            let mut batch = SkipSampler::with_exponent(k);
            let mut rng_b = StdRng::seed_from_u64(99);
            let mut batch_hits = Vec::new();
            let mut pos = 0u64;
            let chunks = [1u64, 2, 7, 64, 1000, 4096];
            let mut ci = 0usize;
            while pos < n_trials {
                let len = chunks[ci % chunks.len()].min(n_trials - pos);
                ci += 1;
                let mut off = 0u64;
                while let Some(j) = batch.next_within(len - off, &mut rng_b) {
                    batch_hits.push(pos + off + j);
                    off += j + 1;
                }
                pos += len;
            }
            assert_eq!(batch_hits, scalar_hits, "k={k}");
        }
    }

    #[test]
    fn huge_exponents_accept_essentially_never() {
        // Regression: the naive ln(1 - p) gap denominator is exactly 0.0
        // once 1 - 2^-k rounds to 1.0 (k >= 54), which turned the skip
        // sampler into an accept-everything sampler at the top of its
        // domain. geometric_gap's ln_1p form keeps the rate at ~2^-k.
        for k in [54u32, 64] {
            let mut s = SkipSampler::with_exponent(k);
            let mut rng = StdRng::seed_from_u64(k as u64);
            let hits = (0..10_000).filter(|_| s.accept(&mut rng)).count();
            assert_eq!(hits, 0, "k={k} accepted {hits}/10000");
        }
    }

    #[test]
    fn space_stays_tiny() {
        let s = BernoulliSampler::with_probability(1.0 / (1 << 20) as f64);
        assert!(s.model_bits() < 16);
    }
}
