//! CIDR-structured network workloads: heavy prefixes over Zipf hosts.
//!
//! The network-telemetry scenario for the dyadic range-query machinery:
//! traffic concentrates in a handful of *address blocks* (an AS, a data
//! center, a scanner's /16), while inside each block the per-host
//! distribution is itself skewed. [`CidrZipf`] plants `/8`–`/24`-style
//! prefixes with exact marginal masses over the 32-bit IPv4 space and
//! fills each block with a Zipf host tail, so the *prefix* frequencies
//! are designed (the dyadic recall tests need ground truth) while the
//! *point* frequencies look like real traffic.

use crate::{ItemSource, ZipfGenerator};
use rand::Rng;

/// Number of address bits in the generated keys (IPv4).
pub const KEY_BITS: u32 = 32;

/// One planted block: `value` is the prefix's leading bits, `len` its
/// length in bits (CIDR `/len`), `mass` its exact marginal probability.
#[derive(Debug, Clone, PartialEq)]
struct Block {
    value: u64,
    len: u32,
    mass: f64,
    hosts: ZipfGenerator,
}

impl Block {
    /// First address of the block.
    fn lo(&self) -> u64 {
        self.value << (KEY_BITS - self.len)
    }

    /// Last address of the block (inclusive).
    fn hi(&self) -> u64 {
        self.lo() + ((1u64 << (KEY_BITS - self.len)) - 1)
    }

    fn contains(&self, addr: u64) -> bool {
        addr >> (KEY_BITS - self.len) == self.value
    }
}

/// Item source over the 32-bit address space with planted heavy CIDR
/// prefixes and Zipf-distributed hosts inside each prefix; the
/// remaining mass is uniform background that avoids every planted
/// block, so the planted masses stay exact (the [`PlantedGenerator`]
/// convention, lifted from points to prefixes).
///
/// [`PlantedGenerator`]: crate::PlantedGenerator
///
/// # Example
///
/// ```
/// use hh_streams::{collect_stream, CidrZipf};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// // 40% of packets from 10.0.0.0/8, 25% from 192.168.0.0/16.
/// let mut g = CidrZipf::new(vec![(10, 8, 0.40), (0xC0A8, 16, 0.25)], 1.1);
/// let mut rng = StdRng::seed_from_u64(7);
/// let stream = collect_stream(&mut g, 50_000, &mut rng);
/// let in_ten = stream.iter().filter(|&&a| a >> 24 == 10).count();
/// assert!((in_ten as f64 / 50_000.0 - 0.40).abs() < 0.02);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CidrZipf {
    blocks: Vec<Block>,
    planted_mass: f64,
}

impl CidrZipf {
    /// Plants `(prefix_value, prefix_len, mass)` blocks with Zipf(`
    /// host_exponent`) hosts inside each. `prefix_value` holds the
    /// block's leading `prefix_len` bits (e.g. `(10, 8, 0.4)` is
    /// 10.0.0.0/8 at 40%).
    ///
    /// # Panics
    /// If a prefix length is outside `1..=32`, a value does not fit its
    /// length, masses are not positive or sum above 1, or two blocks
    /// overlap (one prefix extends another — block masses would stop
    /// being marginals).
    pub fn new(prefixes: Vec<(u64, u32, f64)>, host_exponent: f64) -> Self {
        let mass: f64 = prefixes.iter().map(|&(_, _, p)| p).sum();
        assert!(mass < 1.0 + 1e-12, "planted mass must be at most 1");
        for &(value, len, p) in &prefixes {
            assert!((1..=KEY_BITS).contains(&len), "prefix length /{len}");
            assert!(
                len == 64 || value >> len == 0,
                "prefix value {value:#x} does not fit /{len}"
            );
            assert!(p > 0.0, "masses must be positive");
        }
        for (i, &(va, la, _)) in prefixes.iter().enumerate() {
            for &(vb, lb, _) in &prefixes[..i] {
                let l = la.min(lb);
                assert!(
                    va >> (la - l) != vb >> (lb - l),
                    "blocks {va:#x}/{la} and {vb:#x}/{lb} overlap"
                );
            }
        }
        let blocks = prefixes
            .into_iter()
            .map(|(value, len, mass)| Block {
                value,
                len,
                mass,
                hosts: ZipfGenerator::new(1u64 << (KEY_BITS - len), host_exponent),
            })
            .collect();
        Self {
            blocks,
            planted_mass: mass,
        }
    }

    /// The planted `(prefix_value, prefix_len, mass)` triples.
    pub fn planted(&self) -> Vec<(u64, u32, f64)> {
        self.blocks
            .iter()
            .map(|b| (b.value, b.len, b.mass))
            .collect()
    }

    /// The inclusive address range `[lo, hi]` of planted block `i`.
    pub fn block_range(&self, i: usize) -> (u64, u64) {
        (self.blocks[i].lo(), self.blocks[i].hi())
    }
}

impl ItemSource for CidrZipf {
    fn next_item<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        let mut u: f64 = rng.gen();
        if u < self.planted_mass {
            for i in 0..self.blocks.len() {
                if u < self.blocks[i].mass {
                    let lo = self.blocks[i].lo();
                    // Zipf rank 0 is the block's hottest host; the
                    // suffix is the rank itself (no scramble), so the
                    // heavy host of 10.0.0.0/8 is 10.0.0.0 — readable
                    // in examples, irrelevant to the sketches (they
                    // hash).
                    return lo + self.blocks[i].hosts.next_item(rng);
                }
                u -= self.blocks[i].mass;
            }
        }
        // Background: uniform over addresses outside every block.
        loop {
            let x = rng.gen_range(0..1u64 << KEY_BITS);
            if !self.blocks.iter().any(|b| b.contains(x)) {
                return x;
            }
        }
    }

    fn universe(&self) -> u64 {
        1u64 << KEY_BITS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_stream;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn telecom() -> CidrZipf {
        CidrZipf::new(
            vec![(10, 8, 0.35), (0xC0A8, 16, 0.20), (0xC00002, 24, 0.10)],
            1.1,
        )
    }

    #[test]
    fn planted_prefix_masses_hit_targets() {
        let mut g = telecom();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000usize;
        let stream = collect_stream(&mut g, n, &mut rng);
        for (i, (value, len, mass)) in g.planted().into_iter().enumerate() {
            let (lo, hi) = g.block_range(i);
            assert_eq!(lo >> (KEY_BITS - len), value);
            let hits = stream.iter().filter(|&&a| lo <= a && a <= hi).count();
            let f = hits as f64 / n as f64;
            assert!((f - mass).abs() < 0.01, "block {value:#x}/{len}: {f}");
        }
    }

    #[test]
    fn hosts_inside_a_block_are_zipf_skewed() {
        let mut g = telecom();
        let mut rng = StdRng::seed_from_u64(2);
        let stream = collect_stream(&mut g, 200_000, &mut rng);
        let (lo, hi) = g.block_range(0);
        let in_block: Vec<u64> = stream
            .iter()
            .copied()
            .filter(|&a| lo <= a && a <= hi)
            .collect();
        // The hottest host (rank 1 = the block's base address) carries
        // far more than a uniform share of the block.
        let top = in_block.iter().filter(|&&a| a == lo).count() as f64;
        let uniform_share = in_block.len() as f64 / (hi - lo + 1) as f64;
        assert!(top > 50.0 * uniform_share.max(1.0), "top {top}");
    }

    #[test]
    fn background_avoids_planted_blocks_and_masses_are_exact_marginals() {
        let mut g = CidrZipf::new(vec![(1, 1, 0.5)], 1.2);
        let mut rng = StdRng::seed_from_u64(3);
        let stream = collect_stream(&mut g, 50_000, &mut rng);
        // Half the address space is planted; the background half must
        // carry the other ~50% exactly.
        let upper = stream.iter().filter(|&&a| a >> 31 == 1).count() as f64;
        assert!((upper / 50_000.0 - 0.5).abs() < 0.01);
    }

    #[test]
    fn same_seed_streams_are_bit_identical() {
        let mut a = telecom();
        let mut b = telecom();
        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        assert_eq!(
            collect_stream(&mut a, 10_000, &mut ra),
            collect_stream(&mut b, 10_000, &mut rb)
        );
        let mut rc = StdRng::seed_from_u64(10);
        assert_ne!(
            collect_stream(&mut a, 10_000, &mut rc),
            collect_stream(&mut b, 10_000, &mut rb)
        );
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn nested_blocks_rejected() {
        CidrZipf::new(vec![(10, 8, 0.3), (10 << 8 | 1, 16, 0.1)], 1.1);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_prefix_value_rejected() {
        CidrZipf::new(vec![(256, 8, 0.3)], 1.1);
    }

    #[test]
    #[should_panic(expected = "at most 1")]
    fn overfull_mass_rejected() {
        CidrZipf::new(vec![(1, 8, 0.6), (2, 8, 0.6)], 1.1);
    }
}
