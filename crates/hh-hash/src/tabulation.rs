//! Simple tabulation hashing.
//!
//! The key is split into 8 bytes; each byte indexes a table of random
//! words which are XORed together. Simple tabulation is 3-independent and
//! enjoys much stronger Chernoff-style concentration than its independence
//! suggests (Pǎtraşcu–Thorup), making it a good "strong but constant-time"
//! option for the ablation experiments. Its seed is 8·256 words — far above
//! the `O(log n)` bits the paper charges — so it is *not* used in the
//! space-measured configurations, only in the timing ablations (E6/E12).

use crate::{HashFamily, HashFunction};
use hh_space::SpaceUsage;
use rand::Rng;

const CHUNKS: usize = 8;
const TABLE: usize = 256;

/// The simple-tabulation family producing `out_bits`-bit outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TabulationFamily {
    out_bits: u32,
}

impl TabulationFamily {
    /// Family with codomain `[0, 2^out_bits)`.
    ///
    /// # Panics
    /// If `out_bits` is zero or exceeds 64.
    pub fn new_pow2(out_bits: u32) -> Self {
        assert!((1..=64).contains(&out_bits), "out_bits must be in 1..=64");
        Self { out_bits }
    }
}

impl HashFamily for TabulationFamily {
    type Fun = TabulationHash;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> TabulationHash {
        let mut tables = vec![[0u64; TABLE]; CHUNKS];
        for t in tables.iter_mut() {
            for e in t.iter_mut() {
                *e = rng.gen();
            }
        }
        TabulationHash {
            tables,
            out_bits: self.out_bits,
        }
    }
}

/// A sampled simple-tabulation function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TabulationHash {
    tables: Vec<[u64; TABLE]>,
    out_bits: u32,
}

impl HashFunction for TabulationHash {
    #[inline]
    fn hash(&self, x: u64) -> u64 {
        let mut acc = 0u64;
        for (i, t) in self.tables.iter().enumerate() {
            let byte = ((x >> (8 * i)) & 0xFF) as usize;
            acc ^= t[byte];
        }
        acc >> (64 - self.out_bits)
    }

    #[inline]
    fn range(&self) -> u64 {
        if self.out_bits == 64 {
            u64::MAX
        } else {
            1u64 << self.out_bits
        }
    }
}

impl SpaceUsage for TabulationHash {
    fn model_bits(&self) -> u64 {
        (CHUNKS * TABLE * 64) as u64
    }
    fn heap_bytes(&self) -> usize {
        self.tables.capacity() * TABLE * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let h = TabulationFamily::new_pow2(10).sample(&mut rng);
        for _ in 0..1000 {
            assert!(h.hash(rng.gen()) < 1024);
        }
    }

    #[test]
    fn single_byte_flip_changes_output_often() {
        // Avalanche sanity: flipping one input byte should change the hash
        // almost always (tables are random words).
        let mut rng = StdRng::seed_from_u64(4);
        let h = TabulationFamily::new_pow2(32).sample(&mut rng);
        let mut changed = 0;
        let total = 1000;
        for i in 0..total {
            let x: u64 = rng.gen();
            let y = x ^ (0xFFu64 << (8 * (i % 8)));
            if h.hash(x) != h.hash(y) {
                changed += 1;
            }
        }
        assert!(changed > total * 9 / 10, "changed {changed}/{total}");
    }

    #[test]
    fn seed_is_expensive_and_reported_honestly() {
        let mut rng = StdRng::seed_from_u64(6);
        let h = TabulationFamily::new_pow2(8).sample(&mut rng);
        assert_eq!(h.model_bits(), 8 * 256 * 64);
        assert!(h.heap_bytes() >= 8 * 256 * 8);
    }
}
