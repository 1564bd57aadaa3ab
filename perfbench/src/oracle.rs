//! The (ε, φ) check of a served report against the exact counts of the
//! acked stream.
//!
//! Workloads cycle through a pool of generated batches, so a tenant's
//! acked stream is fully described by how many times each pool batch was
//! acked; [`Truth`] weights each batch's `hh_streams` oracle by that
//! count.

use hh_streams::ExactCounts;
use std::collections::HashMap;

/// Exact frequencies of one tenant's acked stream.
#[derive(Debug, Default, Clone)]
pub struct Truth {
    counts: HashMap<u64, u64>,
    m: u64,
}

impl Truth {
    /// Adds `times` copies of a batch with exact counts `batch`.
    pub fn add(&mut self, batch: &ExactCounts, times: u64) {
        if times == 0 {
            return;
        }
        for (item, c) in batch.sorted_counts() {
            *self.counts.entry(item).or_insert(0) += c * times;
        }
        self.m += batch.len() * times;
    }

    /// Stream length `m`.
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Exact frequency of `item`.
    pub fn freq(&self, item: u64) -> u64 {
        self.counts.get(&item).copied().unwrap_or(0)
    }
}

/// What one check found.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Verdict {
    /// Largest |f̃ − f| / (ε·m) over the checked estimates.
    pub err_over_eps: f64,
    /// Human-readable violations; empty when the report holds.
    pub violations: Vec<String>,
}

impl Verdict {
    /// Folds `other` into `self` (max error, all violations).
    pub fn join(&mut self, other: Verdict) {
        self.err_over_eps = self.err_over_eps.max(other.err_over_eps);
        self.violations.extend(other.violations);
    }

    /// Checks one estimate of a quantity whose exact value is `exact`.
    pub fn estimate(&mut self, what: &str, estimate: f64, exact: u64, eps: f64, m: u64) {
        let bound = eps * m as f64;
        let err = (estimate - exact as f64).abs();
        self.err_over_eps = self.err_over_eps.max(err / bound.max(1.0));
        if err > bound {
            self.violations.push(format!(
                "{what}: estimate {estimate} is {err} from exact {exact}, above eps*m = {bound}"
            ));
        }
    }
}

/// Checks a heavy-hitter report `(item, estimate)` against `truth`:
/// every item with f ≥ φm is reported, none with f ≤ (φ−ε)m is, and each
/// reported estimate is within εm of its exact count.
pub fn check_report(truth: &Truth, report: &[(u64, f64)], eps: f64, phi: f64) -> Verdict {
    let m = truth.m() as f64;
    let mut v = Verdict::default();
    for (&item, &f) in &truth.counts {
        if f as f64 >= phi * m && !report.iter().any(|&(i, _)| i == item) {
            v.violations.push(format!(
                "item {item} with f = {f} >= phi*m = {} was not reported",
                phi * m
            ));
        }
    }
    for &(item, est) in report {
        let f = truth.freq(item);
        if f as f64 <= (phi - eps) * m {
            v.violations.push(format!(
                "item {item} with f = {f} <= (phi-eps)*m = {} was reported",
                (phi - eps) * m
            ));
        }
        v.estimate(&format!("item {item}"), est, f, eps, truth.m());
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// m = 1000: item 1 at 40%, item 2 at 12%, item 3 at 5%, the rest
    /// spread thin.
    fn truth() -> Truth {
        let mut stream = vec![1u64; 400];
        stream.extend([2u64; 120]);
        stream.extend([3u64; 50]);
        stream.extend(100..530u64);
        let mut t = Truth::default();
        t.add(&ExactCounts::from_stream(&stream[..500]), 1);
        t.add(&ExactCounts::from_stream(&stream[500..]), 1);
        t.add(&ExactCounts::from_stream(&stream), 0);
        t
    }

    const EPS: f64 = 0.05;
    const PHI: f64 = 0.15;

    #[test]
    fn a_correct_report_passes_with_its_largest_error() {
        let t = truth();
        assert_eq!(t.m(), 1000);
        let v = check_report(&t, &[(1, 410.0), (2, 110.0)], EPS, PHI);
        assert!(v.violations.is_empty(), "{:?}", v.violations);
        assert!((v.err_over_eps - 10.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn a_missing_heavy_item_is_caught() {
        let v = check_report(&truth(), &[(2, 120.0)], EPS, PHI);
        assert_eq!(v.violations.len(), 1, "{:?}", v.violations);
        assert!(v.violations[0].contains("item 1"));
    }

    #[test]
    fn a_reported_light_item_is_caught() {
        // f(3) = 50 <= (0.15 - 0.05) * 1000 = 100.
        let v = check_report(&truth(), &[(1, 400.0), (3, 50.0)], EPS, PHI);
        assert_eq!(v.violations.len(), 1, "{:?}", v.violations);
        assert!(v.violations[0].contains("item 3"));
    }

    #[test]
    fn an_estimate_off_by_more_than_eps_m_is_caught() {
        let v = check_report(&truth(), &[(1, 451.0)], EPS, PHI);
        assert_eq!(v.violations.len(), 1, "{:?}", v.violations);
        assert!(v.err_over_eps > 1.0);
    }

    #[test]
    fn weights_multiply_batches() {
        let mut t = Truth::default();
        t.add(&ExactCounts::from_stream(&[7, 7, 8]), 3);
        assert_eq!((t.m(), t.freq(7), t.freq(8), t.freq(9)), (9, 6, 3, 0));
    }
}
