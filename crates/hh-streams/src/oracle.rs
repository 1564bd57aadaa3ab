//! Exact ground truth for scoring the streaming algorithms.

use std::collections::HashMap;

/// Exact frequency oracle: the (space-unconstrained) reference that every
/// experiment compares streaming summaries against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExactCounts {
    counts: HashMap<u64, u64>,
    len: u64,
}

impl ExactCounts {
    /// Empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Oracle over a full stream.
    pub fn from_stream(stream: &[u64]) -> Self {
        let mut o = Self::new();
        for &x in stream {
            o.insert(x);
        }
        o
    }

    /// Records one occurrence.
    pub fn insert(&mut self, item: u64) {
        *self.counts.entry(item).or_insert(0) += 1;
        self.len += 1;
    }

    /// Stream length `m`.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no items were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct items seen.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Exact frequency of `item` (zero if unseen).
    pub fn freq(&self, item: u64) -> u64 {
        self.counts.get(&item).copied().unwrap_or(0)
    }

    /// Items with `f_i > φ·m` ("must report" set of Definition 1), sorted
    /// by decreasing frequency.
    pub fn heavy_hitters(&self, phi: f64) -> Vec<(u64, u64)> {
        let threshold = phi * self.len as f64;
        let mut hh: Vec<(u64, u64)> = self
            .counts
            .iter()
            .filter(|&(_, &c)| c as f64 > threshold)
            .map(|(&i, &c)| (i, c))
            .collect();
        hh.sort_unstable_by_key(|&(i, c)| (std::cmp::Reverse(c), i));
        hh
    }

    /// Items with `f_i ≤ (φ−ε)·m` ("must not report" set of Definition 1).
    pub fn forbidden(&self, phi: f64, eps: f64) -> Vec<u64> {
        let threshold = (phi - eps) * self.len as f64;
        let mut v: Vec<u64> = self
            .counts
            .iter()
            .filter(|&(_, &c)| (c as f64) <= threshold)
            .map(|(&i, _)| i)
            .collect();
        v.sort_unstable();
        v
    }

    /// The maximum frequency and one witness item.
    pub fn max(&self) -> Option<(u64, u64)> {
        self.counts
            .iter()
            .map(|(&i, &c)| (i, c))
            .max_by_key(|&(i, c)| (c, std::cmp::Reverse(i)))
    }

    /// The minimum frequency over the whole universe `[0, universe)` —
    /// items never seen have frequency zero, matching the ε-Minimum
    /// problem statement ("an item with frequency zero ... is a valid
    /// solution").
    pub fn min_over_universe(&self, universe: u64) -> u64 {
        if (self.counts.len() as u64) < universe {
            0
        } else {
            self.counts.values().copied().min().unwrap_or(0)
        }
    }

    /// Whether `item` attains the universe minimum frequency within an
    /// additive `slack`.
    pub fn is_eps_minimum(&self, item: u64, universe: u64, slack: u64) -> bool {
        self.freq(item) <= self.min_over_universe(universe) + slack
    }

    /// All `(item, count)` pairs sorted by decreasing count.
    pub fn sorted_counts(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.counts.iter().map(|(&i, &c)| (i, c)).collect();
        v.sort_unstable_by_key(|&(i, c)| (std::cmp::Reverse(c), i));
        v
    }

    /// Merges another oracle into this one (used by the sharded runner).
    pub fn merge(&mut self, other: &ExactCounts) {
        for (&i, &c) in &other.counts {
            *self.counts.entry(i).or_insert(0) += c;
        }
        self.len += other.len;
    }

    /// `F₁^{res(k)}`: total frequency excluding the `k` largest items —
    /// the tail quantity in the \[BICS10\] guarantee quoted in §1.
    pub fn residual_mass(&self, k: usize) -> u64 {
        let sorted = self.sorted_counts();
        sorted.iter().skip(k).map(|&(_, c)| c).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(items: &[u64]) -> ExactCounts {
        ExactCounts::from_stream(items)
    }

    #[test]
    fn basic_counting() {
        let o = oracle(&[1, 2, 2, 3, 3, 3]);
        assert_eq!(o.len(), 6);
        assert_eq!(o.distinct(), 3);
        assert_eq!(o.freq(3), 3);
        assert_eq!(o.freq(42), 0);
    }

    #[test]
    fn heavy_hitters_strict_threshold() {
        // m = 10, φ = 0.3 → need f > 3.
        let o = oracle(&[1, 1, 1, 1, 2, 2, 2, 3, 3, 4]);
        let hh = o.heavy_hitters(0.3);
        assert_eq!(hh, vec![(1, 4)]);
        // φ = 0.25 → need f > 2.5, so items 1 and 2.
        let hh = o.heavy_hitters(0.25);
        assert_eq!(hh, vec![(1, 4), (2, 3)]);
    }

    #[test]
    fn forbidden_set_complements() {
        let o = oracle(&[1, 1, 1, 1, 2, 2, 2, 3, 3, 4]);
        // φ = 0.4, ε = 0.1 → forbidden iff f ≤ 3.
        let fb = o.forbidden(0.4, 0.1);
        assert_eq!(fb, vec![2, 3, 4]);
    }

    #[test]
    fn max_and_min() {
        let o = oracle(&[5, 5, 6]);
        assert_eq!(o.max(), Some((5, 2)));
        // Universe of 10: unseen items exist, min is 0.
        assert_eq!(o.min_over_universe(10), 0);
        // Universe of exactly the two seen items: min is 1.
        assert_eq!(o.min_over_universe(2), 1);
        assert!(o.is_eps_minimum(6, 2, 0));
        assert!(!o.is_eps_minimum(5, 2, 0));
        assert!(o.is_eps_minimum(5, 2, 1));
    }

    #[test]
    fn residual_mass_drops_top_k() {
        let o = oracle(&[1, 1, 1, 2, 2, 3]);
        assert_eq!(o.residual_mass(0), 6);
        assert_eq!(o.residual_mass(1), 3);
        assert_eq!(o.residual_mass(2), 1);
        assert_eq!(o.residual_mass(3), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = oracle(&[1, 2]);
        let b = oracle(&[2, 3]);
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.freq(2), 2);
        assert_eq!(a.distinct(), 3);
    }

    #[test]
    fn empty_oracle() {
        let o = ExactCounts::new();
        assert!(o.is_empty());
        assert_eq!(o.max(), None);
        assert_eq!(o.heavy_hitters(0.1), vec![]);
        assert_eq!(o.min_over_universe(5), 0);
    }
}
