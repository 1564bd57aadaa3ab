//! Percentiles with their sample counts, medians, metric names, and the
//! one-line JSON result the benchmark prints last.

use std::fmt::Write as _;

/// A percentile is only reported when at least this many samples lie
/// beyond it; a p99 therefore needs at least 1000 samples.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a latency distribution, with the counts that back it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pctl {
    /// The sample at the percentile's nearest rank.
    pub value: f64,
    /// Samples in the distribution.
    pub n: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The `pct`-th percentile (an integer percent, 1..=100) of `samples` by
/// nearest rank: the sample at rank `ceil(pct·n/100)`. Integer arithmetic,
/// so `n = 1000` puts p99 at rank 990 with exactly 10 samples beyond.
/// `None` for an empty slice.
pub fn percentile(samples: &[f64], pct: usize) -> Option<Pctl> {
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (n * pct).div_ceil(100).max(1);
    Some(Pctl {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// At most this many time windows split a timed phase. Reporting the
/// median over windows keeps a few seconds of host disturbance (a burst of
/// steal time or of disk latency) from moving a whole run's figure.
pub const WINDOWS: usize = 5;

/// A percentile taken per time window, and the median over the windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Median over the windows of each window's percentile.
    pub value: f64,
    /// Windows used.
    pub windows: usize,
    /// Samples in all.
    pub n: usize,
    /// Fewest samples beyond the percentile in any window.
    pub beyond: usize,
}

impl Windowed {
    /// Whether every window has enough samples beyond its percentile.
    pub fn valid(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Splits `(time, value)` samples into `k` windows of equal length over
/// `[0, span]` by time; a sample past `span` joins the last window.
fn split(samples: &[(f64, f64)], span: f64, k: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); k];
    for &(t, v) in samples {
        let w = ((t / span * k as f64) as usize).min(k - 1);
        out[w].push(v);
    }
    out
}

/// The `pct`-th percentile of `(send time, latency)` samples over a phase
/// of `span` seconds: per window, then the median over windows. Uses the
/// most windows (up to [`WINDOWS`]) for which every window keeps
/// [`MIN_BEYOND`] samples beyond its percentile; one window if none does.
pub fn windowed_percentile(samples: &[(f64, f64)], span: f64, pct: usize) -> Option<Windowed> {
    if samples.is_empty() {
        return None;
    }
    let at = |k: usize| {
        let parts: Vec<Pctl> = split(samples, span, k)
            .iter()
            .filter_map(|w| percentile(w, pct))
            .collect();
        let values: Vec<f64> = parts.iter().map(|p| p.value).collect();
        Windowed {
            value: median(&values),
            windows: k,
            n: samples.len(),
            beyond: if parts.len() == k {
                parts.iter().map(|p| p.beyond).min().unwrap_or(0)
            } else {
                0
            },
        }
    };
    (2..=WINDOWS)
        .rev()
        .map(at)
        .find(Windowed::valid)
        .or_else(|| Some(at(1)))
}

/// The median over [`WINDOWS`] equal windows of `[0, span]` of the rate
/// `Σ value / window length`, for `(completion time, value)` samples.
pub fn windowed_rate(samples: &[(f64, f64)], span: f64) -> f64 {
    let len = span / WINDOWS as f64;
    let rates: Vec<f64> = split(samples, span, WINDOWS)
        .iter()
        .map(|w| w.iter().sum::<f64>() / len)
        .collect();
    median(&rates)
}

/// Median by nearest rank (the lower middle for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50).map_or(f64::NAN, |p| p.value)
}

/// Arithmetic mean (NaN for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Whether `name` is a legal metric or workload name: 1 to 64 of
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a legal unit: 1 to 16 of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Named metric values in emission order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric; names and units are validated when rendered.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Problems that make the set unprintable: bad names or units,
    /// duplicates, and non-finite values.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if !valid_name(name) {
                out.push(format!("metric name {name:?} is not valid"));
            }
            if !valid_unit(unit) {
                out.push(format!("unit {unit:?} of {name} is not valid"));
            }
            if !value.is_finite() {
                out.push(format!("metric {name} is not finite ({value})"));
            }
            if self.0[..i].iter().any(|(n, _, _)| n == name) {
                out.push(format!("metric {name} is recorded twice"));
            }
        }
        out
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with every digit Rust's shortest
/// round-trip formatting gives it.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the percentile has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p99_of_1000_samples_has_exactly_ten_beyond() {
        let p = percentile(&ramp(1000), 99).unwrap();
        assert_eq!(p.value, 990.0);
        assert_eq!((p.n, p.beyond), (1000, MIN_BEYOND));
    }

    #[test]
    fn p99_below_1000_samples_has_fewer_than_ten_beyond() {
        let p = percentile(&ramp(999), 99).unwrap();
        assert_eq!(p.beyond, 9);
        let p = percentile(&ramp(50), 99).unwrap();
        assert_eq!((p.value, p.beyond), (50.0, 0));
    }

    #[test]
    fn p50_uses_the_nearest_rank() {
        assert_eq!(percentile(&ramp(4), 50).unwrap().value, 2.0);
        assert_eq!(percentile(&ramp(5), 50).unwrap().value, 3.0);
        assert_eq!(percentile(&[7.0], 50).unwrap().value, 7.0);
        assert!(percentile(&[], 50).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_percentiles_take_the_median_window() {
        // 5 windows of 1 s, 1000 samples each; window 3 is ten times
        // slower (a disturbance), and the median window ignores it.
        let mut s = Vec::new();
        for w in 0..5 {
            let scale = if w == 3 { 10.0 } else { 1.0 + w as f64 / 100.0 };
            for i in 0..1000 {
                s.push((w as f64 + i as f64 / 1000.0, scale * (1 + i) as f64));
            }
        }
        let p = windowed_percentile(&s, 5.0, 99).unwrap();
        assert_eq!((p.windows, p.n, p.beyond), (5, 5000, 10));
        assert!(p.valid());
        assert_eq!(p.value, 1.02 * 990.0);
        // Too few samples for 5 windows of p99: fall back to fewer.
        let p = windowed_percentile(&s[..2500], 2.5, 99).unwrap();
        assert_eq!(p.windows, 2);
        assert!(p.valid());
        let p = windowed_percentile(&s[..500], 0.5, 99).unwrap();
        assert_eq!(p.windows, 1);
        assert!(!p.valid());
        assert!(windowed_percentile(&[], 1.0, 50).is_none());
    }

    #[test]
    fn windowed_rates_take_the_median_window() {
        // 10 items/s, except a stalled window with none.
        let s: Vec<(f64, f64)> = (0..50)
            .filter(|i| !(20..30).contains(i))
            .map(|i| (i as f64 / 10.0, 1.0))
            .collect();
        assert_eq!(windowed_rate(&s, 5.0), 10.0);
    }

    #[test]
    fn metric_names_allow_only_the_documented_alphabet() {
        for good in ["setup_s", "wal.commit_wait_p99_us", "a-b.c_d", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "µs",
            "a/b",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("items/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("µs") && !valid_unit("") && !valid_unit("per second"));
    }

    #[test]
    fn metric_sets_report_duplicates_and_non_finite_values() {
        let mut m = Metrics::default();
        m.put("a", 1.0, "s");
        m.put("a", 2.0, "s");
        m.put("b c", f64::NAN, "s");
        let problems = m.problems();
        assert_eq!(problems.len(), 3, "{problems:?}");
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.8127, "s");
        m.put("n", 3.0, "count");
        assert_eq!(
            result_line(true, 5, 0, &m),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"n\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
