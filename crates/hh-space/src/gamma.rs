//! Elias-gamma coding of unsigned integers.
//!
//! The paper stores counters in `O(log C)` bits (§2.3, citing the
//! variable-length arrays of Blandford–Blelloch). Elias gamma is the
//! concrete self-delimiting code we use to *realize* that accounting: a
//! value `c ≥ 0` is encoded as the gamma code of `c + 1`, which occupies
//! exactly [`crate::space::gamma_bits`]`(c)` bits. [`GammaVec`] is an
//! append-only sequence of gamma-coded values; [`crate::varcount`] builds a
//! random-access *updatable* counter array on top of the same accounting.

use crate::bits::BitVec;
use crate::space::SpaceUsage;

/// Append-only sequence of gamma-coded unsigned integers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GammaVec {
    bits: BitVec,
    len: usize,
}

impl GammaVec {
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
        // Encode value + 1 (gamma cannot encode 0).
        let v = value
            .checked_add(1)
            .expect("GammaVec cannot encode u64::MAX");
        let n = 63 - v.leading_zeros(); // floor(log2(v))
                                        // n zeros, then the n+1 significant bits of v from MSB to LSB.
        for _ in 0..n {
            self.bits.push(false);
        }
        for b in (0..=n).rev() {
            self.bits.push((v >> b) & 1 == 1);
        }
        self.len += 1;
    }

    /// Decodes all values.
    pub fn decode_all(&self) -> Vec<u64> {
        self.iter().collect()
    }

    /// Iterator decoding values in order.
    pub fn iter(&self) -> GammaDecoder<'_> {
        GammaDecoder {
            bits: &self.bits,
            pos: 0,
        }
    }

    /// Extends with values from an iterator.
    pub fn extend<I: IntoIterator<Item = u64>>(&mut self, values: I) {
        for v in values {
            self.push(v);
        }
    }
}

impl FromIterator<u64> for GammaVec {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut gv = GammaVec::new();
        gv.extend(iter);
        gv
    }
}

impl SpaceUsage for GammaVec {
    fn model_bits(&self) -> u64 {
        self.bits.len() as u64
    }
    fn heap_bytes(&self) -> usize {
        self.bits.heap_bytes()
    }
}

/// Streaming decoder over a gamma-coded bit sequence.
#[derive(Debug, Clone)]
pub struct GammaDecoder<'a> {
    bits: &'a BitVec,
    pos: usize,
}

impl Iterator for GammaDecoder<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.pos >= self.bits.len() {
            return None;
        }
        let mut n = 0u32;
        while !self.bits.get(self.pos) {
            n += 1;
            self.pos += 1;
            debug_assert!(self.pos < self.bits.len(), "truncated gamma code");
        }
        let mut v: u64 = 0;
        for _ in 0..=n {
            v = (v << 1) | self.bits.get(self.pos) as u64;
            self.pos += 1;
        }
        Some(v - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::gamma_bits;

    #[test]
    fn roundtrip_small_values() {
        let vals: Vec<u64> = (0..100).collect();
        let gv: GammaVec = vals.iter().copied().collect();
        assert_eq!(gv.decode_all(), vals);
    }

    #[test]
    fn roundtrip_large_values() {
        let vals = vec![0, 1, u32::MAX as u64, 1 << 40, (1 << 62) + 12345];
        let gv: GammaVec = vals.iter().copied().collect();
        assert_eq!(gv.decode_all(), vals);
    }

    #[test]
    fn encoded_length_matches_gamma_bits() {
        for v in [0u64, 1, 2, 3, 7, 8, 100, 12345, 1 << 33] {
            let mut gv = GammaVec::new();
            gv.push(v);
            assert_eq!(gv.bit_len() as u64, gamma_bits(v), "value {v}");
        }
    }

    #[test]
    fn zero_costs_one_bit() {
        let gv: GammaVec = std::iter::repeat_n(0u64, 64).collect();
        assert_eq!(gv.bit_len(), 64);
    }

    #[test]
    fn mixed_sequence_concatenates() {
        let vals = vec![5u64, 0, 9999, 1, 0, 42];
        let gv: GammaVec = vals.iter().copied().collect();
        let expected: u64 = vals.iter().map(|&v| gamma_bits(v)).sum();
        assert_eq!(gv.model_bits(), expected);
        assert_eq!(gv.decode_all(), vals);
    }

    #[test]
    #[should_panic(expected = "cannot encode")]
    fn max_value_rejected() {
        let mut gv = GammaVec::new();
        gv.push(u64::MAX);
    }
}
