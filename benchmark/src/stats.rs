//! Order statistics for timing samples: medians, quartiles and the
//! "highest percentile with at least ten samples beyond it" rule.

/// Quantile `q` in [0, 1] of an ascending slice, by linear interpolation
/// between closest ranks. Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), which is what the acceptance rule is stated in. One sample
/// is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        // j = i*(n+1)/4 clamped to [1, n-1]; interpolate v[j-1]..v[j].
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Candidate tail percentiles, in tenths of a percent.
const TAIL_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest of p99.9 / p99 / p95 / p90 / p75 / p50 that still has at
/// least ten samples beyond it among `n`; `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERMILLE
        .into_iter()
        .find(|p| n * (1000 - p) >= 10_000)
        .map(|p| p as f64 / 10.0)
}

/// What every timing is printed as: median, tail percentile, count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// `(percentile, value)` per [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        median: quantile_sorted(&v, 0.5),
        tail: tail_percentile(v.len()).map(|p| (p, quantile_sorted(&v, p / 100.0))),
        n: v.len(),
    }
}

impl Summary {
    /// `median 1.234 p90 1.456 n=120`, scaled by `scale` (1e3 for ms).
    pub fn render(&self, scale: f64) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p} {:.4}", v * scale),
            None => "p- (n<20)".to_string(),
        };
        format!("median {:.4} {tail} n={}", self.median * scale, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(12), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        let s = summarize(&(0..100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.n, 100);
        assert_eq!(s.median, 49.5);
        assert_eq!(s.tail.map(|t| t.0), Some(90.0));
    }
}
