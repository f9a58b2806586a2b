//! Order statistics: the percentile rule, medians, and quartile spread.

/// Sorts a sample in place (NaN-free by construction: every value is a
/// difference of clock readings or a count).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
}

/// The `q`-quantile (0..=1) of a **sorted** sample by the nearest-rank rule
/// used across the repo (`sorted[(len-1)*q]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let idx = ((sorted.len() - 1) as f64 * q).floor() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// How many samples lie strictly beyond the `q`-quantile's rank.
fn beyond(len: usize, q: f64) -> usize {
    len - 1 - ((len - 1) as f64 * q).floor() as usize
}

/// The tail percentiles tried, highest first.
const TAILS: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// The highest tail percentile of a sample of `len` that still has at
/// least ten samples beyond it (the choosing-metrics rule), or the median
/// when the sample is too small for any tail.
pub fn supported_tail(len: usize) -> f64 {
    TAILS
        .into_iter()
        .find(|&q| len > 0 && beyond(len, q) >= 10)
        .unwrap_or(0.5)
}

/// The tail latency of a **sorted** sample: the value at
/// [`supported_tail`], with the percentile actually used.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let q = supported_tail(sorted.len());
    (quantile(sorted, q), q)
}

/// Median of an unsorted sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what the
/// regression driver computes its spread from.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median (0 for a single value).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 989 of 0..=999, ten beyond.
        assert_eq!(supported_tail(1000), 0.99);
        // 902 is the smallest sample whose p99 rank leaves ten beyond it.
        assert_eq!(supported_tail(902), 0.99);
        assert_eq!(supported_tail(901), 0.95);
        assert_eq!(supported_tail(182), 0.95);
        assert_eq!(supported_tail(181), 0.90);
        assert_eq!(supported_tail(92), 0.90);
        assert_eq!(supported_tail(91), 0.75);
        assert_eq!(supported_tail(38), 0.75);
        assert_eq!(supported_tail(37), 0.5);
        assert_eq!(supported_tail(0), 0.5);
    }

    #[test]
    fn tail_reports_the_percentile_it_used() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v), (989.0, 0.99));
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v), (89.0, 0.90));
    }

    #[test]
    fn median_of_reps() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }
}
