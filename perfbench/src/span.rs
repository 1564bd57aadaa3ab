//! Spans around calls into the layers' public functions, accumulated by
//! name with their self time (a span's time minus its children's).
//!
//! Nothing inside the program is instrumented: the traced run drives each
//! request shape through the same public functions the server calls, in
//! the server's order, and wraps every call in a span here.

use std::collections::BTreeMap;
use std::time::Instant;

/// Running totals for one span name, in nanoseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotals {
    /// Closed spans.
    pub count: u64,
    /// Wall time inside the spans, children included.
    pub total_ns: f64,
    /// Wall time minus the time of child spans.
    pub self_ns: f64,
}

impl SpanTotals {
    /// Mean span time in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.total_ns / self.count.max(1) as f64 / 1e3
    }
}

/// A stack of open spans plus the per-name totals of closed ones.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Open spans: name and child time accumulated so far.
    open: Vec<(&'static str, f64)>,
    totals: BTreeMap<&'static str, SpanTotals>,
    /// Every closed span's time, per name, for the names that need a
    /// distribution rather than a mean.
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// Opens a span named `name`.
    pub fn enter(&mut self, name: &'static str) {
        self.open.push((name, 0.0));
    }

    /// Closes the innermost span, which took `elapsed_ns` in all. Its self
    /// time is that minus its children's time (never below zero), and its
    /// whole time counts as child time of the span around it.
    pub fn exit(&mut self, elapsed_ns: f64) {
        let (name, children_ns) = self.open.pop().expect("exit without enter");
        let t = self.totals.entry(name).or_default();
        t.count += 1;
        t.total_ns += elapsed_ns;
        t.self_ns += (elapsed_ns - children_ns).max(0.0);
        if let Some(parent) = self.open.last_mut() {
            parent.1 += elapsed_ns;
        }
        if let Some(s) = self.samples.get_mut(name) {
            s.push(elapsed_ns);
        }
    }

    /// Runs `f` inside a span named `name`, timed with the wall clock.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(name);
        let t0 = Instant::now();
        let out = f(self);
        self.exit(t0.elapsed().as_nanos() as f64);
        out
    }

    /// Keeps every sample of `name` (for percentiles) from now on.
    pub fn keep_samples(&mut self, name: &'static str) {
        self.samples.entry(name).or_default();
    }

    /// Totals for `name` (zeroes if it never closed).
    pub fn get(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Kept samples of `name`, in nanoseconds.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Folds another tracer's closed spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.self_ns += t.self_ns;
        }
        for (name, s) in other.samples {
            self.samples.entry(name).or_default().extend(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_total_minus_direct_children() {
        let mut t = Tracer::default();
        t.enter("refresh");
        t.enter("flush");
        t.exit(10.0);
        t.enter("merge");
        t.enter("inner");
        t.exit(5.0);
        t.exit(30.0);
        t.exit(100.0);
        assert_eq!(t.get("refresh").total_ns, 100.0);
        assert_eq!(t.get("refresh").self_ns, 60.0, "100 - (10 + 30)");
        assert_eq!(t.get("merge").self_ns, 25.0, "grandchildren count once");
        assert_eq!(t.get("flush").self_ns, 10.0);
    }

    #[test]
    fn repeated_spans_accumulate_and_self_time_never_goes_negative() {
        let mut t = Tracer::default();
        for _ in 0..3 {
            t.enter("a");
            t.exit(4.0);
        }
        // A child measured longer than its parent (clock granularity).
        t.enter("p");
        t.enter("c");
        t.exit(9.0);
        t.exit(8.0);
        assert_eq!(t.get("a").count, 3);
        assert_eq!(t.get("a").total_ns, 12.0);
        assert_eq!(t.get("p").self_ns, 0.0);
        assert_eq!(t.get("missing"), SpanTotals::default());
    }

    #[test]
    fn absorb_sums_totals_and_samples() {
        let mut a = Tracer::default();
        a.keep_samples("x");
        a.enter("x");
        a.exit(1.0);
        let mut b = Tracer::default();
        b.keep_samples("x");
        b.enter("x");
        b.exit(3.0);
        a.absorb(b);
        assert_eq!(a.get("x").count, 2);
        assert_eq!(a.get("x").mean_us(), 0.002);
        assert_eq!(a.samples("x"), &[1.0, 3.0]);
    }
}
