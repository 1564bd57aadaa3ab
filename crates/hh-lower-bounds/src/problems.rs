//! The communication problems of §4.1, as concrete instances.

use rand::Rng;

/// `Indexing_{m,t}` (Definition 10): Alice holds `x ∈ [alphabet]^t`, Bob
/// holds `i ∈ [t]` and must output `x_i`. One-way complexity
/// `Ω(t·log alphabet)` (Lemma 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexingInstance {
    /// Alphabet size (the `m` of Definition 10).
    pub alphabet: u64,
    /// Alice's string.
    pub x: Vec<u64>,
    /// Bob's index into `x`.
    pub i: usize,
}

impl IndexingInstance {
    /// A uniformly random instance with `t` symbols from `[alphabet]`.
    pub fn random<R: Rng + ?Sized>(alphabet: u64, t: usize, rng: &mut R) -> Self {
        assert!(alphabet >= 1 && t >= 1);
        Self {
            alphabet,
            x: (0..t).map(|_| rng.gen_range(0..alphabet)).collect(),
            i: rng.gen_range(0..t),
        }
    }

    /// String length `t`.
    pub fn t(&self) -> usize {
        self.x.len()
    }

    /// The answer Bob must produce.
    pub fn answer(&self) -> u64 {
        self.x[self.i]
    }

    /// `R^{1-way}(Indexing) = Ω(t log alphabet)` in bound units.
    pub fn lower_bound_units(&self) -> f64 {
        self.t() as f64 * (self.alphabet as f64).log2().max(1.0)
    }
}

/// `ε-Perm` (Definition 11): Alice holds a permutation of `[n]` cut into
/// `1/ε` contiguous blocks; Bob holds an item and must name its block.
/// One-way complexity `Ω(n log(1/ε))` (Lemma 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpsPermInstance {
    /// The permutation σ (`σ[pos]` = item at position pos).
    pub sigma: Vec<u32>,
    /// Number of blocks `1/ε`.
    pub blocks: usize,
    /// Bob's item.
    pub query: u32,
}

impl EpsPermInstance {
    /// A random instance over `n` items with `blocks` equal blocks.
    ///
    /// # Panics
    /// If `blocks` does not divide `n`.
    pub fn random<R: Rng + ?Sized>(n: usize, blocks: usize, rng: &mut R) -> Self {
        assert!(blocks >= 1 && n % blocks == 0, "blocks must divide n");
        use rand::seq::SliceRandom;
        let mut sigma: Vec<u32> = (0..n as u32).collect();
        sigma.shuffle(rng);
        Self {
            sigma,
            blocks,
            query: rng.gen_range(0..n as u32),
        }
    }

    /// Number of items `n`.
    pub fn n(&self) -> usize {
        self.sigma.len()
    }

    /// Items per block (`εn`).
    pub fn block_size(&self) -> usize {
        self.n() / self.blocks
    }

    /// Position of `item` in σ.
    pub fn position_of(&self, item: u32) -> usize {
        self.sigma
            .iter()
            .position(|&c| c == item)
            .expect("item in permutation")
    }

    /// The 0-indexed block containing `item` — Bob's required answer for
    /// `query`.
    pub fn block_of(&self, item: u32) -> usize {
        self.position_of(item) / self.block_size()
    }

    /// `R^{1-way}(ε-Perm) = Ω(n log(1/ε))` in bound units.
    pub fn lower_bound_units(&self) -> f64 {
        self.n() as f64 * (self.blocks as f64).log2().max(1.0)
    }
}

/// `Greater-Than_n` (Definition 12): Alice holds `x`, Bob holds `y ≠ x`,
/// Bob outputs `[x > y]`. One-way complexity `Ω(log n)` (Lemma 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GreaterThanInstance {
    /// Alice's number.
    pub x: u32,
    /// Bob's number (distinct from `x`).
    pub y: u32,
}

impl GreaterThanInstance {
    /// A random instance with `x, y ∈ [1, max]`, `x ≠ y`.
    pub fn random<R: Rng + ?Sized>(max: u32, rng: &mut R) -> Self {
        assert!(max >= 2);
        let x = rng.gen_range(1..=max);
        let mut y = rng.gen_range(1..=max);
        while y == x {
            y = rng.gen_range(1..=max);
        }
        Self { x, y }
    }

    /// The answer Bob must produce.
    pub fn answer(&self) -> bool {
        self.x > self.y
    }

    /// `R^{1-way}(GT) = Ω(log n)`; through the Theorem 14 reduction the
    /// stream length is `2^x + 2^y`, so this is the `Ω(log log m)` term.
    pub fn lower_bound_units(&self, max: u32) -> f64 {
        (max as f64).log2().max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn indexing_instance_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = IndexingInstance::random(8, 16, &mut rng);
        assert_eq!(inst.t(), 16);
        assert!(inst.x.iter().all(|&s| s < 8));
        assert!(inst.i < 16);
        assert_eq!(inst.answer(), inst.x[inst.i]);
        assert_eq!(inst.lower_bound_units(), 16.0 * 3.0);
    }

    #[test]
    fn perm_blocks_partition() {
        let mut rng = StdRng::seed_from_u64(2);
        let inst = EpsPermInstance::random(24, 4, &mut rng);
        assert_eq!(inst.block_size(), 6);
        // Every item lands in exactly one block index < 4.
        for item in 0..24u32 {
            assert!(inst.block_of(item) < 4);
        }
        // Position lookup is consistent.
        let q = inst.query;
        assert_eq!(inst.sigma[inst.position_of(q)], q);
    }

    #[test]
    #[should_panic(expected = "blocks must divide n")]
    fn perm_rejects_ragged_blocks() {
        let mut rng = StdRng::seed_from_u64(3);
        EpsPermInstance::random(10, 3, &mut rng);
    }

    #[test]
    fn greater_than_never_equal() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let g = GreaterThanInstance::random(10, &mut rng);
            assert_ne!(g.x, g.y);
            assert_eq!(g.answer(), g.x > g.y);
        }
    }
}
