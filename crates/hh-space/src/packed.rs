//! Fixed-width packed integer vector.
//!
//! Stores `len` integers of `width` bits each, contiguously. This is the
//! natural store for the tables of Algorithm 1 and 2, where every entry has
//! a compile-time-unknown but run-time-fixed bit budget (e.g. each value
//! entry of table `T1` in Algorithm 1 "can store an integer in `[0, 11ℓ]`",
//! i.e. `⌈log₂(11ℓ+1)⌉` bits).

use crate::bits::BitVec;
use crate::space::SpaceUsage;

/// A vector of `len` unsigned integers, each stored in exactly `width` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedIntVec {
    bits: BitVec,
    width: u32,
    len: usize,
}

impl PackedIntVec {
    /// Creates a packed vector of `len` zeros with `width` bits per entry.
    ///
    /// # Panics
    /// If `width` is 0 or exceeds 64.
    pub fn new(len: usize, width: u32) -> Self {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        Self {
            bits: BitVec::zeros(len * width as usize),
            width,
            len,
        }
    }

    /// Creates a packed vector wide enough to hold values up to `max_value`.
    pub fn with_max_value(len: usize, max_value: u64) -> Self {
        Self::new(len, crate::space::id_bits(max_value + 1).max(1) as u32)
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per entry.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Largest storable value, `2^width − 1`.
    #[inline]
    pub fn max_value(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Reads entry `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        self.bits.get_bits(i * self.width as usize, self.width)
    }

    /// Writes entry `i`. Panics if `v` does not fit in `width` bits.
    #[inline]
    pub fn set(&mut self, i: usize, v: u64) {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        assert!(
            v <= self.max_value(),
            "value {v} does not fit in {} bits",
            self.width
        );
        self.bits.set_bits(i * self.width as usize, v, self.width);
    }

    /// Adds `delta` to entry `i`, saturating at the maximum storable value.
    #[inline]
    pub fn saturating_add(&mut self, i: usize, delta: u64) -> u64 {
        let v = self.get(i).saturating_add(delta).min(self.max_value());
        self.set(i, v);
        v
    }

    /// Iterator over entries.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Index of the minimum entry (first on ties), or `None` when empty.
    pub fn argmin(&self) -> Option<usize> {
        (0..self.len).min_by_key(|&i| self.get(i))
    }

    /// Index of the maximum entry (first on ties), or `None` when empty.
    pub fn argmax(&self) -> Option<usize> {
        (0..self.len).max_by_key(|&i| (self.get(i), core::cmp::Reverse(i)))
    }
}

impl SpaceUsage for PackedIntVec {
    fn model_bits(&self) -> u64 {
        self.len as u64 * self.width as u64
    }
    fn heap_bytes(&self) -> usize {
        self.bits.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_various_widths() {
        for width in [1u32, 3, 7, 13, 31, 64] {
            let mut pv = PackedIntVec::new(50, width);
            let max = pv.max_value();
            for i in 0..50 {
                pv.set(i, (i as u64 * 2_654_435_761) & max);
            }
            for i in 0..50 {
                assert_eq!(
                    pv.get(i),
                    (i as u64 * 2_654_435_761) & max,
                    "w={width} i={i}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_value_panics() {
        let mut pv = PackedIntVec::new(4, 3);
        pv.set(0, 8);
    }

    #[test]
    fn with_max_value_sizes_width() {
        let pv = PackedIntVec::with_max_value(10, 11);
        assert_eq!(pv.width(), 4); // 0..=11 needs 4 bits
        let pv = PackedIntVec::with_max_value(10, 15);
        assert_eq!(pv.width(), 4);
        let pv = PackedIntVec::with_max_value(10, 16);
        assert_eq!(pv.width(), 5);
        let pv = PackedIntVec::with_max_value(10, 0);
        assert_eq!(pv.width(), 1);
    }

    #[test]
    fn saturating_add_caps() {
        let mut pv = PackedIntVec::new(2, 4);
        assert_eq!(pv.saturating_add(0, 10), 10);
        assert_eq!(pv.saturating_add(0, 10), 15);
        assert_eq!(pv.get(0), 15);
        assert_eq!(pv.get(1), 0);
    }

    #[test]
    fn argmin_argmax() {
        let mut pv = PackedIntVec::new(5, 8);
        for (i, v) in [9u64, 4, 17, 4, 12].into_iter().enumerate() {
            pv.set(i, v);
        }
        assert_eq!(pv.argmin(), Some(1));
        assert_eq!(pv.argmax(), Some(2));
        let empty = PackedIntVec::new(0, 8);
        assert_eq!(empty.argmin(), None);
        assert_eq!(empty.argmax(), None);
    }

    #[test]
    fn model_bits_is_len_times_width() {
        let pv = PackedIntVec::new(100, 13);
        assert_eq!(pv.model_bits(), 1300);
    }
}
