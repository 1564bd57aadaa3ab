//! Updatable counter arrays with Blandford–Blelloch-style accounting.
//!
//! §2.3 of the paper: "We store an integer C using a variable length array
//! of \[BB08\] which allows us to read and update C in O(1) time and O(log C)
//! bits of space." [`VarCounterArray`] reproduces that contract for an
//! array of counters: O(1) reads and increments, while
//! [`SpaceUsage::model_bits`] charges the Elias-gamma cost
//! `Σ_i (2⌊log₂(c_i+1)⌋+1)` maintained incrementally so that querying the
//! model cost is itself O(1). [`VarCounterArray::to_gamma`] materializes the
//! compact encoding to prove the accounting is realizable.

use crate::codec::{Codec, CodecError, Reader, Writer};
use crate::gamma::GammaVec;
use crate::space::{gamma_bits, SpaceUsage};

/// An array of `u64` counters whose model space cost is the sum of the
/// gamma-code lengths of the current values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarCounterArray {
    counts: Vec<u64>,
    /// Running Σ gamma_bits(c_i), kept in sync by every mutation.
    model_bit_sum: u64,
}

/// Snapshot of the raw counter values, as one varint block through the
/// codec's bulk byte channel (element count, then the LEB128 bytes of
/// every counter): counters are `O(1)` expected bits each, so the block
/// is ~8× smaller than fixed-width words and is written/read with a
/// single bulk call instead of one codec call per counter. The
/// incremental gamma-bit sum is an invariant of the values and is
/// recomputed at restore time rather than trusted from the wire.
impl Codec for VarCounterArray {
    fn write_to(&self, w: &mut Writer) {
        w.write_seq_len(self.counts.len());
        w.write_byte_seq_with(|out| crate::varint::push_uvarints(out, &self.counts));
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.read_seq_len()?;
        let block = r.read_byte_slice()?;
        let counts = crate::varint::decode_uvarints(block, n)
            .ok_or_else(|| CodecError::invariant("malformed counter varint block"))?;
        let model_bit_sum = counts.iter().map(|&c| gamma_bits(c)).sum();
        Ok(Self {
            counts,
            model_bit_sum,
        })
    }
}

impl VarCounterArray {
    /// Creates `len` zero counters.
    pub fn new(len: usize) -> Self {
        Self {
            counts: vec![0; len],
            // A zero counter costs one bit.
            model_bit_sum: len as u64,
        }
    }

    /// Number of counters.
    #[inline]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether there are no counters.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Reads counter `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Adds one to counter `i` and returns the new value.
    ///
    /// Fast path of [`VarCounterArray::add`]: a `+1` changes the gamma
    /// cost `2⌊log₂(c+1)⌋+1` only when `c+1` crosses a power-of-two
    /// boundary, i.e. when `old + 2` is a power of two — and then by
    /// exactly 2 bits. Checking that is one add and one popcount-style
    /// test instead of two `gamma_bits` evaluations, which matters to
    /// callers incrementing on every stream item.
    #[inline]
    pub fn increment(&mut self, i: usize) -> u64 {
        let old = self.counts[i];
        let new = old + 1;
        self.counts[i] = new;
        if (old + 2).is_power_of_two() {
            self.model_bit_sum += 2;
        }
        new
    }

    /// Adds one to counter `i` **without** touching the incremental
    /// model-bit sum, returning the new value. Batch update loops use it
    /// to keep gamma accounting out of their inner pass; the caller must
    /// restore the invariant with [`VarCounterArray::resync_model_bits`]
    /// before the next space query.
    #[inline]
    pub fn increment_raw(&mut self, i: usize) -> u64 {
        let new = self.counts[i] + 1;
        self.counts[i] = new;
        new
    }

    /// Recomputes the model-bit sum from the raw counters (the deferred
    /// half of [`VarCounterArray::increment_raw`]): the result is exactly
    /// the value incremental maintenance would have reached. O(len), so
    /// callers amortize it over a batch of raw increments.
    pub fn resync_model_bits(&mut self) {
        self.model_bit_sum = self.counts.iter().map(|&c| gamma_bits(c)).sum();
    }

    /// Adds `delta` to counter `i` and returns the new value.
    #[inline]
    pub fn add(&mut self, i: usize, delta: u64) -> u64 {
        let old = self.counts[i];
        let new = old + delta;
        self.counts[i] = new;
        self.model_bit_sum += gamma_bits(new);
        self.model_bit_sum -= gamma_bits(old);
        new
    }

    /// Sets counter `i` to `value`.
    #[inline]
    pub fn set(&mut self, i: usize, value: u64) {
        let old = self.counts[i];
        self.counts[i] = value;
        self.model_bit_sum += gamma_bits(value);
        self.model_bit_sum -= gamma_bits(old);
    }

    /// Sets counter `i` to `min(current, cap)`; used for the truncated
    /// counters of Algorithm 3 ("Truncate counters of S3 at
    /// 2·log⁷(2/εδ)").
    #[inline]
    pub fn truncate_at(&mut self, i: usize, cap: u64) {
        if self.counts[i] > cap {
            self.set(i, cap);
        }
    }

    /// Appends a new counter initialized to `value` and returns its index.
    pub fn push(&mut self, value: u64) -> usize {
        self.counts.push(value);
        self.model_bit_sum += gamma_bits(value);
        self.counts.len() - 1
    }

    /// Iterator over counter values.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.counts.iter().copied()
    }

    /// Sum of all counters.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Index of the minimum counter (first on ties).
    pub fn argmin(&self) -> Option<usize> {
        (0..self.counts.len()).min_by_key(|&i| self.counts[i])
    }

    /// Index of the maximum counter (first on ties).
    pub fn argmax(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for i in 0..self.counts.len() {
            if best.is_none_or(|b| self.counts[i] > self.counts[b]) {
                best = Some(i);
            }
        }
        best
    }

    /// Materializes the gamma encoding of the current values, demonstrating
    /// that `model_bits` is the length of an actual code word sequence.
    pub fn to_gamma(&self) -> GammaVec {
        self.counts.iter().copied().collect()
    }

    /// Space cost of a *sparse* encoding: gamma-coded gaps between nonzero
    /// positions plus gamma-coded values, plus a terminator. This is the
    /// accounting for mostly-empty tables such as Algorithm 2's `T3`
    /// ("These are upper bounds; not all the allowed cells will actually
    /// be used"), where charging a bit per empty cell would overstate the
    /// cost by orders of magnitude.
    pub fn sparse_model_bits(&self) -> u64 {
        crate::space::sparse_slice_bits(&self.counts)
    }

    /// Number of nonzero counters.
    pub fn nonzero(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Adds `other`'s counters cell-wise (the merge primitive for
    /// seed-aligned sketch rows), resyncing the gamma accounting once at
    /// the end — exactly the merged cost
    /// [`crate::space::merged_gamma_sum_bits`] predicts. Cells saturate
    /// rather than wrap, so counter values restored from an adversarial
    /// snapshot cannot panic the merge under overflow checks.
    ///
    /// # Panics
    /// If the arrays have different lengths; callers must pre-check the
    /// shapes (every sketch `merge_from` rejects mismatched dimensions
    /// with a `MergeError` before reaching this point).
    pub fn merge_add(&mut self, other: &Self) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "merged counter arrays must share their shape"
        );
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c = c.saturating_add(o);
        }
        self.resync_model_bits();
    }
}

impl SpaceUsage for VarCounterArray {
    fn model_bits(&self) -> u64 {
        self.model_bit_sum
    }
    fn heap_bytes(&self) -> usize {
        self.counts.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_increments_resync_to_incremental_accounting() {
        let mut incremental = VarCounterArray::new(8);
        let mut raw = VarCounterArray::new(8);
        for i in 0..200usize {
            incremental.increment(i % 8);
            raw.increment_raw(i % 8);
        }
        raw.resync_model_bits();
        assert_eq!(incremental, raw);
        assert_eq!(incremental.model_bits(), raw.model_bits());
    }

    #[test]
    fn model_bits_tracks_gamma_sum() {
        let mut a = VarCounterArray::new(4);
        assert_eq!(a.model_bits(), 4);
        a.add(0, 100);
        a.add(1, 7);
        a.increment(2);
        let expected: u64 = [100u64, 7, 1, 0].iter().map(|&c| gamma_bits(c)).sum();
        assert_eq!(a.model_bits(), expected);
        // And it equals the length of the real encoding.
        assert_eq!(a.model_bits(), a.to_gamma().bit_len() as u64);
    }

    #[test]
    fn set_and_truncate() {
        let mut a = VarCounterArray::new(2);
        a.set(0, 1000);
        a.truncate_at(0, 50);
        assert_eq!(a.get(0), 50);
        a.truncate_at(1, 50); // no-op on small counter
        assert_eq!(a.get(1), 0);
        assert_eq!(
            a.model_bits(),
            gamma_bits(50) + gamma_bits(0),
            "accounting follows truncation"
        );
    }

    #[test]
    fn push_grows_array() {
        let mut a = VarCounterArray::new(0);
        assert_eq!(a.push(9), 0);
        assert_eq!(a.push(0), 1);
        assert_eq!(a.len(), 2);
        assert_eq!(a.model_bits(), gamma_bits(9) + gamma_bits(0));
    }

    #[test]
    fn argmin_argmax_total() {
        let mut a = VarCounterArray::new(3);
        a.set(0, 5);
        a.set(1, 2);
        a.set(2, 8);
        assert_eq!(a.argmin(), Some(1));
        assert_eq!(a.argmax(), Some(2));
        assert_eq!(a.total(), 15);
    }

    #[test]
    fn sparse_accounting_ignores_empty_runs() {
        let mut a = VarCounterArray::new(10_000);
        a.set(17, 3);
        a.set(9_000, 1);
        assert_eq!(a.nonzero(), 2);
        let expected = gamma_bits(17) + gamma_bits(3) + gamma_bits(9_000 - 18) + gamma_bits(1) + 1;
        assert_eq!(a.sparse_model_bits(), expected);
        // Sparse is far below dense for a nearly-empty table.
        assert!(a.sparse_model_bits() < a.model_bits() / 50);
    }

    #[test]
    fn sparse_accounting_empty_table() {
        let a = VarCounterArray::new(1000);
        assert_eq!(a.sparse_model_bits(), 1);
        assert_eq!(a.nonzero(), 0);
    }

    #[test]
    fn increment_fast_path_tracks_gamma_boundaries() {
        // Walk one counter across several power-of-two boundaries and
        // check the incremental sum against a recompute at every step.
        let mut a = VarCounterArray::new(2);
        for expected in 1..=200u64 {
            a.increment(0);
            assert_eq!(a.get(0), expected);
            assert_eq!(
                a.model_bits(),
                gamma_bits(expected) + gamma_bits(0),
                "at value {expected}"
            );
        }
    }

    #[test]
    fn incremental_accounting_matches_recompute_after_many_ops() {
        let mut a = VarCounterArray::new(16);
        let mut x = 12345u64;
        for step in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (x >> 33) as usize % 16;
            match step % 3 {
                0 => {
                    a.increment(i);
                }
                1 => {
                    a.add(i, x % 100);
                }
                _ => a.truncate_at(i, 1 << 20),
            }
        }
        let recomputed: u64 = a.iter().map(gamma_bits).sum();
        assert_eq!(a.model_bits(), recomputed);
    }
}
