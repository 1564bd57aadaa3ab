//! k-wise independent polynomial hashing over `F_p`, `p = 2⁶¹ − 1`.
//!
//! A uniformly random polynomial of degree `k − 1` evaluated at the key
//! gives a k-wise independent family. Pairwise (k = 2) suffices for the
//! paper's Lemma 2 and the Chebyshev arguments; k = 4 supports
//! fourth-moment concentration for CountSketch-style baselines.

use crate::mersenne::{self, P};
use crate::{HashFamily, HashFunction};
use hh_space::codec::{Codec, CodecError, Reader, Writer};
use hh_space::SpaceUsage;
use rand::Rng;

/// Family of degree-(k−1) polynomials over `F_p` reduced into `[0, range)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolynomialFamily {
    range: u64,
    k: usize,
}

impl PolynomialFamily {
    /// Creates the family with independence parameter `k ≥ 1`.
    ///
    /// # Panics
    /// If `range` is zero / too large, or `k` is zero.
    pub fn new(range: u64, k: usize) -> Self {
        assert!(range > 0 && range < P, "invalid range");
        assert!(k >= 1, "independence k must be at least 1");
        Self { range, k }
    }

    /// Independence parameter.
    pub fn independence(&self) -> usize {
        self.k
    }
}

impl HashFamily for PolynomialFamily {
    type Fun = PolynomialHash;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> PolynomialHash {
        // Leading coefficient nonzero keeps the polynomial at full degree;
        // uniformity of lower coefficients gives k-wise independence.
        let mut coeffs: Vec<u64> = (0..self.k).map(|_| rng.gen_range(0..P)).collect();
        if self.k > 1 && coeffs[0] == 0 {
            coeffs[0] = 1;
        }
        PolynomialHash {
            coeffs,
            range: self.range,
        }
    }
}

/// A sampled polynomial hash function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolynomialHash {
    coeffs: Vec<u64>,
    range: u64,
}

/// Field-wise snapshot: the coefficient vector and the structural range.
/// A restored function hashes (and signs) identically, preserving the
/// shared-seed contract sketch merging relies on.
impl Codec for PolynomialHash {
    fn write_to(&self, w: &mut Writer) {
        self.coeffs.write_to(w);
        w.write_u64(self.range);
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let coeffs: Vec<u64> = Vec::read_from(r)?;
        let range = r.read_u64()?;
        if coeffs.is_empty() || coeffs.iter().any(|&c| c >= P) || range == 0 || range >= P {
            return Err(CodecError::invariant(
                "PolynomialHash snapshot outside the field",
            ));
        }
        Ok(Self { coeffs, range })
    }
}

impl PolynomialHash {
    /// Bucket and a `{−1, +1}` sign from **one** polynomial evaluation.
    ///
    /// The bucket is the fast-range of the field value `v` (driven by
    /// `v`'s high bits) and the sign is `v`'s low bit — a spare bit the
    /// range reduction all but ignores. This halves CountSketch's hash
    /// work versus evaluating a second polynomial for the sign, and the
    /// pair is still sound for the CountSketch analysis: `v` is k-wise
    /// independent across keys, and within each fast-range preimage
    /// class (a contiguous interval of ~`p/range` field values) the low
    /// bit alternates, so `|E[sign · 1[bucket = b]]| ≤ 1/p ≈ 2⁻⁶¹` —
    /// sign and bucket are unbiased and cross-key independent to within
    /// the field's own rounding.
    #[inline]
    pub fn hash_and_sign(&self, x: u64) -> (u64, i64) {
        let v = mersenne::poly_eval(&self.coeffs, mersenne::reduce64(x));
        let sign = if v & 1 == 1 { 1 } else { -1 };
        (mersenne::fast_range(v, self.range), sign)
    }

    /// The `{−1, +1}` sign alone (the same bit
    /// [`PolynomialHash::hash_and_sign`] returns).
    #[inline]
    pub fn sign(&self, x: u64) -> i64 {
        let v = mersenne::poly_eval(&self.coeffs, mersenne::reduce64(x));
        if v & 1 == 1 {
            1
        } else {
            -1
        }
    }
}

impl HashFunction for PolynomialHash {
    #[inline]
    fn hash(&self, x: u64) -> u64 {
        // Fast-range instead of `% range`: same near-equal preimage
        // classes, no hardware division (see carter_wegman.rs).
        mersenne::fast_range(
            mersenne::poly_eval(&self.coeffs, mersenne::reduce64(x)),
            self.range,
        )
    }

    #[inline]
    fn range(&self) -> u64 {
        self.range
    }
}

impl SpaceUsage for PolynomialHash {
    fn model_bits(&self) -> u64 {
        61 * self.coeffs.len() as u64
    }
    fn heap_bytes(&self) -> usize {
        self.coeffs.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_in_range_for_various_k() {
        let mut rng = StdRng::seed_from_u64(5);
        for k in [1usize, 2, 4, 8] {
            let fam = PolynomialFamily::new(1000, k);
            let h = fam.sample(&mut rng);
            for _ in 0..300 {
                assert!(h.hash(rng.gen()) < 1000);
            }
        }
    }

    #[test]
    fn seed_cost_scales_with_k() {
        let mut rng = StdRng::seed_from_u64(5);
        let h2 = PolynomialFamily::new(64, 2).sample(&mut rng);
        let h4 = PolynomialFamily::new(64, 4).sample(&mut rng);
        assert_eq!(h2.model_bits(), 122);
        assert_eq!(h4.model_bits(), 244);
    }

    #[test]
    fn signs_are_balanced() {
        let mut rng = StdRng::seed_from_u64(23);
        let fam = PolynomialFamily::new(64, 2);
        let mut plus = 0i64;
        let n = 20_000;
        let h = fam.sample(&mut rng);
        for x in 0..n {
            plus += (h.sign(x) > 0) as i64;
        }
        let frac = plus as f64 / n as f64;
        assert!((0.45..0.55).contains(&frac), "sign balance {frac}");
    }

    #[test]
    fn hash_and_sign_agrees_with_separate_calls() {
        let mut rng = StdRng::seed_from_u64(41);
        let fam = PolynomialFamily::new(1000, 2);
        let h = fam.sample(&mut rng);
        for _ in 0..2000 {
            let x: u64 = rng.gen();
            assert_eq!(h.hash_and_sign(x), (h.hash(x), h.sign(x)));
        }
    }

    #[test]
    fn sign_uncorrelated_with_bucket() {
        // CountSketch needs sign and bucket to behave independently; check
        // the empirical sign balance within each bucket.
        let mut rng = StdRng::seed_from_u64(31);
        let fam = PolynomialFamily::new(8, 2);
        let h = fam.sample(&mut rng);
        let mut per_bucket = [(0i64, 0i64); 8];
        for x in 0..40_000u64 {
            let b = h.hash(x) as usize;
            if h.sign(x) > 0 {
                per_bucket[b].0 += 1;
            } else {
                per_bucket[b].1 += 1;
            }
        }
        for (b, (p, m)) in per_bucket.iter().enumerate() {
            let frac = *p as f64 / (p + m) as f64;
            assert!((0.40..0.60).contains(&frac), "bucket {b} balance {frac}");
        }
    }
}
