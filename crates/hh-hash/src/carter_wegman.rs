//! The Carter–Wegman pairwise-independent family
//! `h_{a,b}(x) = fastrange((a·x + b) mod p, r)` with `p = 2⁶¹ − 1`.
//!
//! This is the family the paper invokes via \[LRSC01\] in §2.4: it exists
//! for every range and its description (`a`, `b`) costs `2⌈log₂ p⌉ = 122`
//! bits — the `O(log n)` seed cost charged in the space analyses of
//! Theorems 1 and 2.
//!
//! The final reduction into `[0, r)` uses Lemire's multiply-shift
//! fast-range ([`mersenne::fast_range`]) instead of the textbook `mod r`:
//! both partition the field into `r` near-equal preimage classes (sizes
//! within one of each other), so the pairwise collision bound is
//! identical, but fast-range costs one widening multiply where `mod`
//! costs a hardware division — the difference between ~3 and ~25 cycles
//! on the per-repetition hot path of the heavy-hitter algorithms.

use crate::mersenne::{self, P};
use crate::{HashFamily, HashFunction};
use hh_space::codec::{Codec, CodecError, Reader, Writer};
use hh_space::SpaceUsage;
use rand::Rng;

/// The family `{h_{a,b} : a ∈ [1,p), b ∈ [0,p)}` with codomain `[0, range)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarterWegmanFamily {
    range: u64,
}

impl CarterWegmanFamily {
    /// Creates the family with the given codomain size.
    ///
    /// # Panics
    /// If `range` is zero or not less than `p`.
    pub fn new(range: u64) -> Self {
        assert!(range > 0, "range must be positive");
        assert!(range < P, "range must be below the field size");
        Self { range }
    }
}

impl HashFamily for CarterWegmanFamily {
    type Fun = CarterWegmanHash;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> CarterWegmanHash {
        CarterWegmanHash {
            a: rng.gen_range(1..P),
            b: rng.gen_range(0..P),
            range: self.range,
        }
    }
}

/// A sampled function `x ↦ fastrange((a·x + b) mod p, range)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarterWegmanHash {
    a: u64,
    b: u64,
    range: u64,
}

/// Field-wise snapshot of the drawn coefficients and the structural
/// range, so a restored function hashes identically — the seed-sharing
/// contract that makes summaries built on this family mergeable.
impl Codec for CarterWegmanHash {
    fn write_to(&self, w: &mut Writer) {
        w.write_u64(self.a);
        w.write_u64(self.b);
        w.write_u64(self.range);
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let a = r.read_u64()?;
        let b = r.read_u64()?;
        let range = r.read_u64()?;
        if !(1..P).contains(&a) || b >= P || range == 0 || range >= P {
            return Err(CodecError::invariant(
                "CarterWegmanHash snapshot outside the field",
            ));
        }
        Ok(Self::from_coefficients(a, b, range))
    }
}

impl CarterWegmanHash {
    /// Builds a function with explicit coefficients (used by tests and by
    /// deterministic replay in the lower-bound protocols).
    pub fn from_coefficients(a: u64, b: u64, range: u64) -> Self {
        assert!((1..P).contains(&a) && b < P && range > 0 && range < P);
        Self { a, b, range }
    }
}

impl HashFunction for CarterWegmanHash {
    #[inline]
    fn hash(&self, x: u64) -> u64 {
        let x = mersenne::reduce64(x);
        mersenne::fast_range(mersenne::add(mersenne::mul(self.a, x), self.b), self.range)
    }

    #[inline]
    fn range(&self) -> u64 {
        self.range
    }
}

impl SpaceUsage for CarterWegmanHash {
    fn model_bits(&self) -> u64 {
        // The two field elements a and b; the range is a structural
        // parameter of the algorithm, not part of the random seed.
        2 * 61
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
    fn output_always_in_range() {
        let mut rng = StdRng::seed_from_u64(11);
        let fam = CarterWegmanFamily::new(17);
        for _ in 0..20 {
            let h = fam.sample(&mut rng);
            for _ in 0..200 {
                let x: u64 = rng.gen();
                assert!(h.hash(x) < 17);
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_coefficients() {
        let h = CarterWegmanHash::from_coefficients(12345, 678, 100);
        let a = h.hash(42);
        for _ in 0..5 {
            assert_eq!(h.hash(42), a);
        }
        // Reference computation: field arithmetic, then the Lemire
        // multiply-shift reduction ⌊v·r/2⁶¹⌋.
        let v = (12345u128 * 42 + 678) % P as u128;
        let expected = (v * 100) >> 61;
        assert_eq!(a as u128, expected);
    }

    #[test]
    fn pairwise_independence_on_small_range() {
        // Over many function draws, the joint distribution of
        // (h(x0), h(x1)) for fixed x0 ≠ x1 should be close to uniform on
        // [r]² — the defining property of pairwise independence.
        let r = 4u64;
        let fam = CarterWegmanFamily::new(r);
        let mut rng = StdRng::seed_from_u64(99);
        let mut joint = vec![0u32; (r * r) as usize];
        let draws = 40_000;
        for _ in 0..draws {
            let h = fam.sample(&mut rng);
            let (y0, y1) = (h.hash(1), h.hash(2));
            joint[(y0 * r + y1) as usize] += 1;
        }
        let expect = draws as f64 / (r * r) as f64;
        for (cell, &c) in joint.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.15, "cell {cell}: count {c}, expected {expect}");
        }
    }

    #[test]
    fn seed_cost_is_two_field_elements() {
        let h = CarterWegmanHash::from_coefficients(1, 0, 10);
        assert_eq!(h.model_bits(), 122);
    }

    #[test]
    #[should_panic(expected = "range must be positive")]
    fn zero_range_rejected() {
        CarterWegmanFamily::new(0);
    }
}
