//! The [`SpaceUsage`] trait and bit-cost helpers shared by the workspace.

/// Number of bits needed to store one identifier drawn from a range of the
/// given size, i.e. `⌈log₂ range⌉` (with a floor of 1 bit so that even a
/// unary range is addressable).
///
/// This is the cost the paper charges for storing an element of `[n]`
/// (`log n` bits) or a hashed identifier in `[⌈4ℓ²/δ⌉]`.
#[inline]
pub fn id_bits(range: u64) -> u64 {
    ceil_log2(range).max(1)
}

/// `⌈log₂ x⌉` for `x ≥ 1`; returns 0 for `x ∈ {0, 1}`.
#[inline]
pub fn ceil_log2(x: u64) -> u64 {
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros() as u64
    }
}

/// `⌊log₂ x⌋` for `x ≥ 1`; returns 0 for `x ∈ {0, 1}`.
#[inline]
pub fn floor_log2(x: u64) -> u64 {
    if x == 0 {
        0
    } else {
        63 - x.leading_zeros() as u64
    }
}

/// Cost in bits of storing a counter with current value `c` in the
/// variable-length representation of Blandford–Blelloch \[BB08\], which the
/// paper invokes in §2.3 ("We store an integer C ... in O(log C) bits").
///
/// We charge the Elias-gamma cost `2⌊log₂(c+1)⌋ + 1`: a concrete,
/// self-delimiting code with the right asymptotics that we also actually
/// implement in [`crate::gamma`]. A zero counter costs 1 bit.
#[inline]
pub fn gamma_bits(c: u64) -> u64 {
    2 * floor_log2(c + 1) + 1
}

/// Sum of [`gamma_bits`] over a slice of counters: the dense
/// variable-length accounting for a whole table, computed on demand.
///
/// This is the *deferred* form of the incremental `model_bit_sum` kept by
/// [`crate::VarCounterArray`]: hot paths that own raw `&[u64]` tables can
/// skip all per-update accounting and pay one linear scan at query time
/// instead (space queries are rare; updates are the hot path).
#[inline]
pub fn gamma_sum_bits(counts: &[u64]) -> u64 {
    counts.iter().map(|&c| gamma_bits(c)).sum()
}

/// Sparse accounting over a slice: gamma-coded gaps between nonzero
/// positions plus gamma-coded values, plus a terminator bit. The deferred
/// slice form of [`crate::VarCounterArray::sparse_model_bits`], for
/// mostly-empty tables held as raw `&[u64]`.
pub fn sparse_slice_bits(counts: &[u64]) -> u64 {
    sparse_bits(counts.iter().copied().enumerate())
}

/// [`sparse_slice_bits`] of a table given as `(position, value)`
/// pairs in ascending position order, with every omitted position
/// zero: the same cost for a table stored only by its nonzero rows.
pub fn sparse_bits(entries: impl IntoIterator<Item = (usize, u64)>) -> u64 {
    let mut bits = 0u64;
    let mut last = 0usize;
    for (i, c) in entries {
        if c > 0 {
            bits += gamma_bits((i - last) as u64) + gamma_bits(c);
            last = i + 1;
        }
    }
    bits + 1
}

/// Dense gamma accounting of the **cell-wise sum** of two counter
/// tables, without materializing the merged table: the model cost a
/// merge of two seed-aligned summaries will charge for these rows.
///
/// Subadditivity makes merged summaries cheaper than the parts they
/// came from: `gamma_bits(a + b) ≤ gamma_bits(a) + gamma_bits(b)` for
/// all `a, b` (the gamma cost is `2⌊log₂(c+1)⌋ + 1` and
/// `log(a + b + 1) ≤ log(a+1) + log(b+1)`), so the result is at most
/// `gamma_sum_bits(a) + gamma_sum_bits(b)` — merging `K` shards costs
/// at most the bits of one shard plus `K − 1` dense tables' headroom,
/// never the sum of all `K`. The merge planners in `hh-pipeline` and
/// the DESIGN.md space-cost argument use exactly this bound.
///
/// # Panics
/// If the slices have different lengths (seed-aligned tables always
/// agree on shape).
#[inline]
pub fn merged_gamma_sum_bits(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "merged tables must share their shape");
    a.iter().zip(b).map(|(&x, &y)| gamma_bits(x + y)).sum()
}

/// Sparse accounting of the cell-wise sum of two mostly-empty tables
/// (the merged-size companion of [`sparse_slice_bits`], used for
/// Algorithm 2's T3 rows).
///
/// # Panics
/// If the slices have different lengths.
pub fn merged_sparse_slice_bits(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "merged tables must share their shape");
    let mut bits = 0u64;
    let mut last = 0usize;
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        let c = x + y;
        if c > 0 {
            bits += gamma_bits((i - last) as u64) + gamma_bits(c);
            last = i + 1;
        }
    }
    bits + 1
}

/// Cost in bits of storing `c` in the Elias-delta code,
/// `⌊log₂(c+1)⌋ + 2⌊log₂(⌊log₂(c+1)⌋+1)⌋ + 1`. Slightly cheaper than gamma
/// for large counters; used by the `log log` accounting of Lemma 1.
#[inline]
pub fn delta_bits(c: u64) -> u64 {
    let n = floor_log2(c + 1);
    n + 2 * floor_log2(n + 1) + 1
}

/// Space accounting implemented by every summary/data structure in the
/// workspace.
///
/// `model_bits` is the paper's accounting (see crate docs); `heap_bytes` is
/// the actual allocation of the Rust representation.
pub trait SpaceUsage {
    /// Bits under the paper's storage model (§2.3).
    fn model_bits(&self) -> u64;

    /// Bytes of heap memory actually allocated by this structure
    /// (excluding the inline `size_of::<Self>()` footprint).
    fn heap_bytes(&self) -> usize;

    /// Total bytes: inline size plus heap allocation.
    fn total_bytes(&self) -> usize
    where
        Self: Sized,
    {
        core::mem::size_of::<Self>() + self.heap_bytes()
    }
}

impl<T: SpaceUsage> SpaceUsage for &T {
    fn model_bits(&self) -> u64 {
        (**self).model_bits()
    }
    fn heap_bytes(&self) -> usize {
        (**self).heap_bytes()
    }
}

impl<T: SpaceUsage> SpaceUsage for Option<T> {
    fn model_bits(&self) -> u64 {
        // One presence bit plus the payload.
        1 + self.as_ref().map_or(0, SpaceUsage::model_bits)
    }
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, SpaceUsage::heap_bytes)
    }
}

impl<T: SpaceUsage> SpaceUsage for Vec<T> {
    fn model_bits(&self) -> u64 {
        self.iter().map(SpaceUsage::model_bits).sum()
    }
    fn heap_bytes(&self) -> usize {
        self.capacity() * core::mem::size_of::<T>()
            + self.iter().map(SpaceUsage::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_small_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1 << 20), 20);
        assert_eq!(ceil_log2((1 << 20) + 1), 21);
    }

    #[test]
    fn floor_log2_small_values() {
        assert_eq!(floor_log2(0), 0);
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(2), 1);
        assert_eq!(floor_log2(3), 1);
        assert_eq!(floor_log2(4), 2);
        assert_eq!(floor_log2(u64::MAX), 63);
    }

    #[test]
    fn id_bits_floors_at_one() {
        assert_eq!(id_bits(1), 1);
        assert_eq!(id_bits(2), 1);
        assert_eq!(id_bits(3), 2);
        assert_eq!(id_bits(1024), 10);
    }

    #[test]
    fn gamma_bits_matches_code_length() {
        // gamma(c) encodes c+1 in 2*floor(log2(c+1)) + 1 bits.
        assert_eq!(gamma_bits(0), 1);
        assert_eq!(gamma_bits(1), 3);
        assert_eq!(gamma_bits(2), 3);
        assert_eq!(gamma_bits(3), 5);
        assert_eq!(gamma_bits(6), 5);
        assert_eq!(gamma_bits(7), 7);
    }

    #[test]
    fn gamma_sum_bits_matches_elementwise() {
        let counts = [0u64, 1, 2, 3, 100, 0, 7];
        let expected: u64 = counts.iter().map(|&c| gamma_bits(c)).sum();
        assert_eq!(gamma_sum_bits(&counts), expected);
        assert_eq!(gamma_sum_bits(&[]), 0);
    }

    #[test]
    fn sparse_slice_bits_matches_gap_formula() {
        let mut counts = vec![0u64; 100];
        counts[17] = 3;
        counts[90] = 1;
        let expected = gamma_bits(17) + gamma_bits(3) + gamma_bits(90 - 18) + gamma_bits(1) + 1;
        assert_eq!(sparse_slice_bits(&counts), expected);
        assert_eq!(sparse_slice_bits(&[0u64; 10]), 1);
        assert_eq!(sparse_slice_bits(&[]), 1);
        // The same table given by its nonzero positions only.
        assert_eq!(sparse_bits([(17, 3), (50, 0), (90, 1)]), expected);
    }

    #[test]
    fn merged_gamma_accounting_is_subadditive() {
        let a = [0u64, 1, 2, 7, 100, 0];
        let b = [3u64, 0, 2, 1, 100, 0];
        let merged = merged_gamma_sum_bits(&a, &b);
        let direct: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        assert_eq!(merged, gamma_sum_bits(&direct));
        assert!(merged <= gamma_sum_bits(&a) + gamma_sum_bits(&b));
        // Pointwise subadditivity of the gamma cost itself.
        for x in 0..50u64 {
            for y in 0..50u64 {
                assert!(
                    gamma_bits(x + y) <= gamma_bits(x) + gamma_bits(y),
                    "{x}+{y}"
                );
            }
        }
    }

    #[test]
    fn merged_sparse_accounting_matches_materialized_sum() {
        let mut a = vec![0u64; 64];
        let mut b = vec![0u64; 64];
        a[5] = 2;
        b[5] = 1;
        b[40] = 9;
        let direct: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        assert_eq!(merged_sparse_slice_bits(&a, &b), sparse_slice_bits(&direct));
        assert_eq!(merged_sparse_slice_bits(&[], &[]), 1);
    }

    #[test]
    fn delta_bits_beats_gamma_eventually() {
        // For large counters delta is shorter than gamma.
        assert!(delta_bits(1_000_000) < gamma_bits(1_000_000));
        // And both grow like log.
        assert!(delta_bits(1 << 40) < 60);
        // Exact Elias-delta code lengths, as an encoder writes them.
        assert_eq!(
            [0, 1, 2, 3, 7, 8, 100, 12345, 1 << 33, 1 << 55].map(delta_bits),
            [1, 4, 4, 5, 8, 8, 11, 20, 44, 66]
        );
    }

    #[test]
    fn option_accounting_adds_presence_bit() {
        struct One;
        impl SpaceUsage for One {
            fn model_bits(&self) -> u64 {
                7
            }
            fn heap_bytes(&self) -> usize {
                0
            }
        }
        assert_eq!(Some(One).model_bits(), 8);
        assert_eq!(None::<One>.model_bits(), 1);
    }

    #[test]
    fn vec_accounting_sums_members() {
        struct K(u64);
        impl SpaceUsage for K {
            fn model_bits(&self) -> u64 {
                self.0
            }
            fn heap_bytes(&self) -> usize {
                0
            }
        }
        let v = vec![K(1), K(2), K(3)];
        assert_eq!(v.model_bits(), 6);
        assert!(v.heap_bytes() >= 3 * core::mem::size_of::<K>());
    }
}
