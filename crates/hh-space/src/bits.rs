//! A plain bit vector.
//!
//! Used by Algorithm 3 (ε-Minimum) for the membership vector `B1` over the
//! universe, and as the backing store for [`crate::gamma::GammaVec`]. The
//! paper charges exactly `|U|` bits for a bit vector over universe `U`, which
//! is what [`SpaceUsage::model_bits`] reports.

use crate::space::SpaceUsage;

/// Growable bit vector with O(1) random access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bit vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if w == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[w] |= 1u64 << b;
        }
        self.len += 1;
    }

    /// Reads bit `i`. Panics when out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `bit`. Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Index of the first zero bit, if any.
    pub fn first_zero(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != u64::MAX {
                let b = w.trailing_ones() as usize;
                let idx = wi * 64 + b;
                if idx < self.len {
                    return Some(idx);
                }
            }
        }
        None
    }

    /// Whether all bits are one.
    pub fn all_ones(&self) -> bool {
        self.first_zero().is_none()
    }

    /// Iterator over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Appends `bits` low-order bits of `value`, lowest bit first.
    pub fn push_bits(&mut self, value: u64, bits: u32) {
        debug_assert!(bits <= 64);
        for b in 0..bits {
            self.push((value >> b) & 1 == 1);
        }
    }

    /// Reads `bits` bits starting at `pos`, lowest bit first.
    pub fn get_bits(&self, pos: usize, bits: u32) -> u64 {
        debug_assert!(bits <= 64);
        let mut v = 0u64;
        for b in 0..bits {
            if self.get(pos + b as usize) {
                v |= 1 << b;
            }
        }
        v
    }

    /// Overwrites `bits` bits starting at `pos` with the low bits of
    /// `value`, lowest bit first.
    pub fn set_bits(&mut self, pos: usize, value: u64, bits: u32) {
        debug_assert!(bits <= 64);
        for b in 0..bits {
            self.set(pos + b as usize, (value >> b) & 1 == 1);
        }
    }
}

impl SpaceUsage for BitVec {
    fn model_bits(&self) -> u64 {
        self.len as u64
    }
    fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bv = BitVec::new();
        for b in iter {
            bv.push(b);
        }
        bv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut bv = BitVec::new();
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            bv.push(b);
        }
        assert_eq!(bv.len(), 200);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(bv.get(i), b, "bit {i}");
        }
    }

    #[test]
    fn zeros_then_set() {
        let mut bv = BitVec::zeros(130);
        assert_eq!(bv.count_ones(), 0);
        bv.set(0, true);
        bv.set(64, true);
        bv.set(129, true);
        assert_eq!(bv.count_ones(), 3);
        assert!(bv.get(64));
        bv.set(64, false);
        assert_eq!(bv.count_ones(), 2);
    }

    #[test]
    fn first_zero_and_all_ones() {
        let mut bv = BitVec::zeros(70);
        assert_eq!(bv.first_zero(), Some(0));
        for i in 0..70 {
            bv.set(i, true);
        }
        assert!(bv.all_ones());
        bv.set(65, false);
        assert_eq!(bv.first_zero(), Some(65));
    }

    #[test]
    fn first_zero_ignores_padding_bits() {
        // 64 ones exactly: the word is full, padding must not be reported.
        let mut bv = BitVec::zeros(64);
        for i in 0..64 {
            bv.set(i, true);
        }
        assert_eq!(bv.first_zero(), None);
        assert!(bv.all_ones());
    }

    #[test]
    fn bit_field_roundtrip() {
        let mut bv = BitVec::new();
        bv.push_bits(0b1011_0101, 8);
        bv.push_bits(0x3FFF, 14);
        bv.push_bits(u64::MAX, 64);
        assert_eq!(bv.get_bits(0, 8), 0b1011_0101);
        assert_eq!(bv.get_bits(8, 14), 0x3FFF);
        assert_eq!(bv.get_bits(22, 64), u64::MAX);
        bv.set_bits(8, 0x1234 & 0x3FFF, 14);
        assert_eq!(bv.get_bits(8, 14), 0x1234 & 0x3FFF);
    }

    #[test]
    fn model_bits_is_length() {
        let bv = BitVec::zeros(1000);
        assert_eq!(bv.model_bits(), 1000);
    }

    #[test]
    fn from_iterator_collects() {
        let bv: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(bv.len(), 3);
        assert!(bv.get(0) && !bv.get(1) && bv.get(2));
    }
}
