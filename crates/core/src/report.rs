//! Report types returned by the heavy-hitter algorithms.

/// One reported item with its frequency estimate `f̃_i` (in stream counts,
/// not fractions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItemEstimate {
    /// The item id.
    pub item: u64,
    /// Estimated number of occurrences; Definition 1 guarantees
    /// `|f̃_i − f_i| ≤ εm` for reported items (with probability 1 − δ).
    pub count: f64,
}

/// The output set `S` of Definition 1 with estimates, sorted by decreasing
/// estimate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    entries: Vec<ItemEstimate>,
}

impl Report {
    /// Builds a report, sorting entries by decreasing estimate (ties by
    /// item id) and dropping duplicates.
    pub fn new(mut entries: Vec<ItemEstimate>) -> Self {
        entries.sort_by(|a, b| {
            b.count
                .partial_cmp(&a.count)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.item.cmp(&b.item))
        });
        entries.dedup_by_key(|e| e.item);
        Self { entries }
    }

    /// The reported entries, heaviest first.
    pub fn entries(&self) -> &[ItemEstimate] {
        &self.entries
    }

    /// Number of reported items.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was reported.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `item` is in the output set.
    pub fn contains(&self, item: u64) -> bool {
        self.entries.iter().any(|e| e.item == item)
    }

    /// The estimate for `item`, if reported.
    pub fn estimate(&self, item: u64) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.item == item)
            .map(|e| e.count)
    }

    /// The items only, heaviest first.
    pub fn items(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.item).collect()
    }

    /// The heaviest entry, if any.
    pub fn top(&self) -> Option<ItemEstimate> {
        self.entries.first().copied()
    }
}

impl FromIterator<ItemEstimate> for Report {
    fn from_iter<I: IntoIterator<Item = ItemEstimate>>(iter: I) -> Self {
        Report::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(item: u64, count: f64) -> ItemEstimate {
        ItemEstimate { item, count }
    }

    #[test]
    fn sorted_by_decreasing_estimate() {
        let r = Report::new(vec![e(1, 5.0), e(2, 9.0), e(3, 7.0)]);
        assert_eq!(r.items(), vec![2, 3, 1]);
        assert_eq!(r.top().unwrap().item, 2);
    }

    #[test]
    fn duplicate_items_deduped() {
        let r = Report::new(vec![e(1, 5.0), e(1, 4.0)]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.estimate(1), Some(5.0));
    }

    #[test]
    fn lookup_helpers() {
        let r = Report::new(vec![e(10, 3.0)]);
        assert!(r.contains(10));
        assert!(!r.contains(11));
        assert_eq!(r.estimate(10), Some(3.0));
        assert_eq!(r.estimate(11), None);
        assert!(!r.is_empty());
        assert!(Report::default().is_empty());
    }

    #[test]
    fn ties_broken_by_item_id() {
        let r = Report::new(vec![e(5, 2.0), e(3, 2.0)]);
        assert_eq!(r.items(), vec![3, 5]);
    }
}
