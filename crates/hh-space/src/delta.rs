//! Elias-delta coding — the asymptotically tighter companion to
//! [`crate::gamma`].
//!
//! Delta codes the bit-length of a value in gamma and then the value's
//! remaining bits plainly: `|δ(c)| = ⌊log₂(c+1)⌋ + 2⌊log₂(⌊log₂(c+1)⌋+1)⌋
//! + 1` bits — `log c + O(log log c)` versus gamma's `2 log c`. The
//! `log log` shape is exactly the storage class the paper's ε-Minimum
//! analysis charges for its truncated counters and that Lemma 1 charges
//! for the sampler exponent, so [`DeltaVec`] is the codec backing
//! [`crate::space::delta_bits`] the way [`crate::GammaVec`] backs
//! [`crate::space::gamma_bits`].

use crate::bits::BitVec;
use crate::space::SpaceUsage;

/// Append-only sequence of delta-coded unsigned integers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaVec {
    bits: BitVec,
    len: usize,
}

impl DeltaVec {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of encoded values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total encoded length in bits.
    pub fn bit_len(&self) -> usize {
        self.bits.len()
    }

    /// Appends `value`.
    pub fn push(&mut self, value: u64) {
        let v = value
            .checked_add(1)
            .expect("DeltaVec cannot encode u64::MAX");
        let n = 63 - v.leading_zeros(); // ⌊log₂ v⌋; v needs n+1 bits
                                        // Gamma-code (n+1), then the low n bits of v (MSB first).
        let l = n + 1;
        let ll = 31 - l.leading_zeros(); // ⌊log₂ l⌋
        for _ in 0..ll {
            self.bits.push(false);
        }
        for b in (0..=ll).rev() {
            self.bits.push((l >> b) & 1 == 1);
        }
        for b in (0..n).rev() {
            self.bits.push((v >> b) & 1 == 1);
        }
        self.len += 1;
    }

    /// Decodes all values.
    pub fn decode_all(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        let mut pos = 0usize;
        while pos < self.bits.len() {
            // Gamma-decode the length l.
            let mut ll = 0u32;
            while !self.bits.get(pos) {
                ll += 1;
                pos += 1;
            }
            let mut l = 0u32;
            for _ in 0..=ll {
                l = (l << 1) | self.bits.get(pos) as u32;
                pos += 1;
            }
            // Read l−1 explicit bits under an implicit leading 1.
            let mut v = 1u64;
            for _ in 0..(l - 1) {
                v = (v << 1) | self.bits.get(pos) as u64;
                pos += 1;
            }
            out.push(v - 1);
        }
        out
    }

    /// Extends with values from an iterator.
    pub fn extend<I: IntoIterator<Item = u64>>(&mut self, values: I) {
        for v in values {
            self.push(v);
        }
    }
}

impl FromIterator<u64> for DeltaVec {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut dv = DeltaVec::new();
        dv.extend(iter);
        dv
    }
}

impl SpaceUsage for DeltaVec {
    fn model_bits(&self) -> u64 {
        self.bits.len() as u64
    }
    fn heap_bytes(&self) -> usize {
        self.bits.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::GammaVec;
    use crate::space::delta_bits;

    #[test]
    fn roundtrip_small_values() {
        let vals: Vec<u64> = (0..200).collect();
        let dv: DeltaVec = vals.iter().copied().collect();
        assert_eq!(dv.decode_all(), vals);
    }

    #[test]
    fn roundtrip_large_values() {
        let vals = vec![0, 1, 2, 7, 8, u32::MAX as u64, 1 << 50, (1 << 62) + 999];
        let dv: DeltaVec = vals.iter().copied().collect();
        assert_eq!(dv.decode_all(), vals);
    }

    #[test]
    fn encoded_length_matches_delta_bits() {
        for v in [0u64, 1, 2, 3, 7, 8, 100, 12345, 1 << 33, 1 << 55] {
            let mut dv = DeltaVec::new();
            dv.push(v);
            assert_eq!(dv.bit_len() as u64, delta_bits(v), "value {v}");
        }
    }

    #[test]
    fn beats_gamma_on_large_counters() {
        let vals: Vec<u64> = (0..64).map(|i| 1_000_000 + i * 7919).collect();
        let dv: DeltaVec = vals.iter().copied().collect();
        let gv: GammaVec = vals.iter().copied().collect();
        assert!(
            dv.bit_len() < gv.bit_len(),
            "delta {} !< gamma {}",
            dv.bit_len(),
            gv.bit_len()
        );
    }

    #[test]
    fn zero_costs_one_bit() {
        let mut dv = DeltaVec::new();
        dv.push(0);
        assert_eq!(dv.bit_len(), 1);
    }
}
