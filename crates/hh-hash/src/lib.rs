//! Universal hash families (Definition 2 of the paper).
//!
//! The paper needs, for Lemma 2 and for both heavy-hitter algorithms, a
//! *universal family* `H = {h : A → B}` with
//! `Pr_{h∈H}[h(a)=h(b)] ≤ 1/|B|` for all `a ≠ b`, such that drawing and
//! storing `h` costs `O(log |A|)` bits. This crate provides four
//! interchangeable constructions:
//!
//! * [`CarterWegmanFamily`] — `fastrange((a·x + b) mod p, r)` over the
//!   Mersenne prime `p = 2⁶¹ − 1`; pairwise independent, the textbook
//!   family the paper cites (\[LRSC01\]), with a division-free Lemire
//!   range reduction.
//! * [`MultiplyShiftFamily`] — Dietzfelbinger's multiply-shift scheme for
//!   power-of-two ranges; 2-universal, fastest in practice, the natural
//!   choice in the unit-cost RAM model of §2.3 (\[DHKP97\] is by the same
//!   authors the paper cites for the model).
//! * [`PolynomialFamily`] — degree-(k−1) polynomials over `F_p`, giving
//!   k-wise independence for the concentration arguments.
//! * [`TabulationFamily`] — simple tabulation; 3-independent, constant time,
//!   larger seed.
//!
//! All families implement [`HashFamily`]; the sampled functions implement
//! [`HashFunction`] plus [`hh_space::SpaceUsage`] so algorithms can charge
//! their seed bits to the space accounting.
//!
//! # Example
//!
//! ```
//! use hh_hash::{CarterWegmanFamily, HashFamily, HashFunction};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let h = CarterWegmanFamily::new(128).sample(&mut rng);
//! assert!(h.hash(0xDEAD_BEEF) < 128);
//! // Deterministic once sampled:
//! assert_eq!(h.hash(42), h.hash(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod carter_wegman;
pub mod fast_map;
pub mod mersenne;
pub mod multiply_shift;
pub mod polynomial;
pub mod tabulation;

pub use carter_wegman::{CarterWegmanFamily, CarterWegmanHash};
pub use fast_map::{fast_map_with_capacity, FastMap, FxBuildHasher, FxU64Hasher};
pub use multiply_shift::{
    MultiplyShift64Family, MultiplyShift64Hash, MultiplyShiftFamily, MultiplyShiftHash,
};
pub use polynomial::{PolynomialFamily, PolynomialHash};
pub use tabulation::{TabulationFamily, TabulationHash};

use rand::Rng;

/// A sampled hash function from a universal family.
pub trait HashFunction {
    /// Evaluates the function. The result is in `[0, range)`.
    fn hash(&self, x: u64) -> u64;

    /// Size of the codomain `B`.
    fn range(&self) -> u64;
}

/// A distribution over hash functions (a hash family) from which functions
/// are drawn with fresh randomness.
pub trait HashFamily {
    /// Concrete function type produced by sampling.
    type Fun: HashFunction;

    /// Draws one function uniformly from the family.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Fun;

    /// Draws `k` independent functions (the "repetitions" both algorithms
    /// take medians over).
    fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, k: usize) -> Vec<Self::Fun> {
        (0..k).map(|_| self.sample(rng)).collect()
    }
}

/// The SplitMix64 finalizer (Steele, Lea, Flood 2014): one invertible,
/// well-mixed shuffle of a word. The workspace derives every per-shard,
/// per-level and per-window seed and every client id through it, so any
/// input (including 0) becomes a well-spread word, and distinct inputs
/// stay distinct. `mix64(s)` is the first output of a SplitMix64
/// generator seeded with `s`.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Empirical collision-rate check shared by the families: for random
    /// distinct pairs the measured collision rate must stay near `1/range`.
    fn collision_rate<F: HashFamily>(family: &F, range: u64, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let trials = 400usize;
        let pairs = 200usize;
        let mut collisions = 0usize;
        let mut total = 0usize;
        for _ in 0..trials {
            let h = family.sample(&mut rng);
            assert_eq!(h.range(), range);
            for _ in 0..pairs {
                let a: u64 = rng.gen();
                let mut b: u64 = rng.gen();
                while b == a {
                    b = rng.gen();
                }
                total += 1;
                if h.hash(a) == h.hash(b) {
                    collisions += 1;
                }
            }
        }
        collisions as f64 / total as f64
    }

    #[test]
    fn all_families_are_universal_empirically() {
        let range = 64u64;
        let budget = 3.0 / range as f64; // generous slack over 1/range
        let cw = CarterWegmanFamily::new(range);
        let ms = MultiplyShiftFamily::new_pow2(6);
        let poly = PolynomialFamily::new(range, 4);
        let tab = TabulationFamily::new_pow2(6);
        assert!(collision_rate(&cw, range, 1) < budget);
        assert!(collision_rate(&ms, range, 2) < budget);
        assert!(collision_rate(&poly, range, 3) < budget);
        assert!(collision_rate(&tab, range, 4) < budget);
    }

    #[test]
    fn sample_many_draws_distinct_functions() {
        let mut rng = StdRng::seed_from_u64(7);
        let fam = CarterWegmanFamily::new(1024);
        let hs = fam.sample_many(&mut rng, 8);
        assert_eq!(hs.len(), 8);
        // Two independent draws almost surely differ on some input.
        let probe = 0xDEADBEEFu64;
        let outs: std::collections::HashSet<u64> = hs.iter().map(|h| h.hash(probe)).collect();
        assert!(outs.len() > 1, "eight draws should not all agree");
    }

    #[test]
    fn mix64_matches_the_published_splitmix64_vector() {
        // The reference SplitMix64 generator seeded with 0 emits
        // 0xE220A8397B1DCDAF first.
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
    }
}
