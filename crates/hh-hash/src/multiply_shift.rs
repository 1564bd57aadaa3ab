//! Dietzfelbinger's multiply-shift family for power-of-two ranges.
//!
//! `h_{a,b}(x) = ((a·x + b) mod 2¹²⁸) >> (128 − ℓ)` with uniformly random
//! 128-bit `a` (odd in the plain-universal variant) and `b` is strongly
//! universal onto `ℓ`-bit outputs. It needs no modular reduction, making it
//! the fastest family here — appropriate for the `O(1)` worst-case update
//! claim of Theorems 1 and 2.

use crate::{HashFamily, HashFunction};
use hh_space::codec::{Codec, CodecError, Reader, Writer};
use hh_space::SpaceUsage;
use rand::Rng;

/// The multiply-shift family producing `ℓ`-bit outputs (range `2^ℓ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiplyShiftFamily {
    out_bits: u32,
}

impl MultiplyShiftFamily {
    /// Family with codomain `[0, 2^out_bits)`.
    ///
    /// # Panics
    /// If `out_bits` is zero or exceeds 64.
    pub fn new_pow2(out_bits: u32) -> Self {
        assert!((1..=64).contains(&out_bits), "out_bits must be in 1..=64");
        Self { out_bits }
    }

    /// Family whose range is the smallest power of two `≥ min_range`.
    pub fn covering(min_range: u64) -> Self {
        Self::new_pow2(hh_space::ceil_log2(min_range).max(1) as u32)
    }
}

impl HashFamily for MultiplyShiftFamily {
    type Fun = MultiplyShiftHash;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> MultiplyShiftHash {
        let a = ((rng.gen::<u64>() as u128) << 64) | rng.gen::<u64>() as u128;
        let b = ((rng.gen::<u64>() as u128) << 64) | rng.gen::<u64>() as u128;
        MultiplyShiftHash {
            a: a | 1, // odd multiplier
            b,
            out_bits: self.out_bits,
        }
    }
}

/// A sampled multiply-shift function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiplyShiftHash {
    a: u128,
    b: u128,
    out_bits: u32,
}

impl HashFunction for MultiplyShiftHash {
    #[inline]
    fn hash(&self, x: u64) -> u64 {
        let v = self.a.wrapping_mul(x as u128).wrapping_add(self.b);
        (v >> (128 - self.out_bits)) as u64
    }

    #[inline]
    fn range(&self) -> u64 {
        if self.out_bits == 64 {
            u64::MAX // 2^64 does not fit; callers with 64-bit ranges know this
        } else {
            1u64 << self.out_bits
        }
    }
}

impl SpaceUsage for MultiplyShiftHash {
    fn model_bits(&self) -> u64 {
        2 * 128
    }
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Dietzfelbinger's *plain-universal* single-multiply variant:
/// `h_a(x) = (a·x mod 2⁶⁴) >> (64 − ℓ)` with `a` a uniformly random odd
/// 64-bit word.
///
/// Collision bound `Pr[h(x) = h(y)] ≤ 2/2^ℓ` for `x ≠ y` (\[DHKP97\]) —
/// a factor two weaker than Definition 2 demands of a range-`2^ℓ` family,
/// so callers that need `Pr ≤ 1/B` draw it with range `2B` (one extra
/// output bit). In exchange the evaluation is a single 64-bit multiply
/// and a shift: ~3 cycles, fully pipelined, against ~15 cycles for the
/// Mersenne-field families. This is the repetition hash of Algorithm 2's
/// hot path, where the hash is evaluated `R ≈ 20` times per sampled item
/// and the unit-cost RAM model of §2.3 prices exactly this operation
/// at O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiplyShift64Family {
    out_bits: u32,
}

impl MultiplyShift64Family {
    /// Family with codomain `[0, 2^out_bits)`, `out_bits ∈ [1, 63]`.
    ///
    /// # Panics
    /// If `out_bits` is outside `1..=63`.
    pub fn new_pow2(out_bits: u32) -> Self {
        assert!((1..=63).contains(&out_bits), "out_bits must be in 1..=63");
        Self { out_bits }
    }

    /// Family whose range is the smallest power of two `≥ 2·min_range`:
    /// the doubling restores the `1/min_range` collision bound lost to
    /// the plain-universal factor two.
    pub fn covering_universal(min_range: u64) -> Self {
        Self::new_pow2(hh_space::ceil_log2(2 * min_range).max(1) as u32)
    }
}

impl HashFamily for MultiplyShift64Family {
    type Fun = MultiplyShift64Hash;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> MultiplyShift64Hash {
        MultiplyShift64Hash {
            a: rng.gen::<u64>() | 1,
            shift: 64 - self.out_bits,
        }
    }
}

/// A sampled single-multiply function (see [`MultiplyShift64Family`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiplyShift64Hash {
    a: u64,
    shift: u32,
}

/// Field-wise snapshot: the odd multiplier and the shift. A restored
/// function hashes identically, which is what lets seed-aligned
/// Algorithm-2 repetitions merge bucket-wise.
impl Codec for MultiplyShift64Hash {
    fn write_to(&self, w: &mut Writer) {
        w.write_u64(self.a);
        w.write_u64(self.shift as u64);
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let a = r.read_u64()?;
        let shift = r.read_u64()?;
        if a & 1 == 0 || !(1..=63).contains(&shift) {
            return Err(CodecError::invariant(
                "MultiplyShift64Hash snapshot malformed",
            ));
        }
        Ok(Self {
            a,
            shift: shift as u32,
        })
    }
}

impl HashFunction for MultiplyShift64Hash {
    #[inline]
    fn hash(&self, x: u64) -> u64 {
        self.a.wrapping_mul(x) >> self.shift
    }

    #[inline]
    fn range(&self) -> u64 {
        1u64 << (64 - self.shift)
    }
}

impl SpaceUsage for MultiplyShift64Hash {
    fn model_bits(&self) -> u64 {
        // One 64-bit multiplier; the shift is a structural parameter.
        64
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
    fn output_fits_out_bits() {
        let mut rng = StdRng::seed_from_u64(3);
        for bits in [1u32, 5, 16, 63] {
            let fam = MultiplyShiftFamily::new_pow2(bits);
            let h = fam.sample(&mut rng);
            for _ in 0..500 {
                let y = h.hash(rng.gen());
                assert!(y < (1u64 << bits), "bits={bits} y={y}");
            }
        }
    }

    #[test]
    fn covering_picks_enough_bits() {
        assert_eq!(MultiplyShiftFamily::covering(100).out_bits, 7);
        assert_eq!(MultiplyShiftFamily::covering(128).out_bits, 7);
        assert_eq!(MultiplyShiftFamily::covering(129).out_bits, 8);
        assert_eq!(MultiplyShiftFamily::covering(1).out_bits, 1);
    }

    #[test]
    fn distribution_roughly_uniform() {
        // A single fixed function applied to sequential keys should spread
        // across buckets (this catches e.g. forgetting the shift).
        let mut rng = StdRng::seed_from_u64(17);
        let fam = MultiplyShiftFamily::new_pow2(4);
        let h = fam.sample(&mut rng);
        let mut buckets = [0u32; 16];
        for x in 0..16_000u64 {
            buckets[h.hash(x) as usize] += 1;
        }
        for (i, &c) in buckets.iter().enumerate() {
            assert!((500..=1500).contains(&c), "bucket {i} count {c}");
        }
    }

    #[test]
    fn multiplier_is_forced_odd() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let h = MultiplyShiftFamily::new_pow2(8).sample(&mut rng);
            assert_eq!(h.a & 1, 1);
        }
    }

    #[test]
    fn ms64_output_in_range_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let fam = MultiplyShift64Family::new_pow2(6);
        for _ in 0..20 {
            let h = fam.sample(&mut rng);
            assert_eq!(h.range(), 64);
            for _ in 0..200 {
                let x: u64 = rng.gen();
                let y = h.hash(x);
                assert!(y < 64);
                assert_eq!(y, h.hash(x));
            }
        }
    }

    #[test]
    fn ms64_collision_rate_within_plain_universal_bound() {
        // Empirical collision probability over random pairs must stay
        // under the 2/2^l plain-universal bound (with slack).
        let mut rng = StdRng::seed_from_u64(11);
        let bits = 6u32;
        let fam = MultiplyShift64Family::new_pow2(bits);
        let mut collisions = 0usize;
        let mut total = 0usize;
        for _ in 0..400 {
            let h = fam.sample(&mut rng);
            for _ in 0..200 {
                let a: u64 = rng.gen();
                let mut b: u64 = rng.gen();
                while b == a {
                    b = rng.gen();
                }
                total += 1;
                collisions += usize::from(h.hash(a) == h.hash(b));
            }
        }
        let rate = collisions as f64 / total as f64;
        let bound = 2.0 / (1u64 << bits) as f64;
        assert!(rate < 1.5 * bound, "collision rate {rate} vs bound {bound}");
    }

    #[test]
    fn ms64_covering_universal_doubles_range() {
        // covering_universal(B) must give 2^l >= 2B so 2/2^l <= 1/B.
        for min_range in [1u64, 5, 640, 1000, 4096] {
            let fam = MultiplyShift64Family::covering_universal(min_range);
            let mut rng = StdRng::seed_from_u64(1);
            let h = fam.sample(&mut rng);
            assert!(
                h.range() >= 2 * min_range,
                "range {} min {min_range}",
                h.range()
            );
        }
    }

    #[test]
    fn ms64_sequential_keys_spread() {
        let mut rng = StdRng::seed_from_u64(29);
        let h = MultiplyShift64Family::new_pow2(4).sample(&mut rng);
        let mut buckets = [0u32; 16];
        for x in 0..16_000u64 {
            buckets[h.hash(x) as usize] += 1;
        }
        for (i, &c) in buckets.iter().enumerate() {
            assert!((500..=1500).contains(&c), "bucket {i} count {c}");
        }
    }
}
