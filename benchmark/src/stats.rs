//! Order statistics for the benchmark's samples.
//!
//! Medians and quartiles follow Python's `statistics.median` and
//! `statistics.quantiles(values, n=4)` (the exclusive method), because that
//! is how the driver that accepts or rejects the benchmark computes its
//! spreads; the two must agree on the same values.

/// Ascending copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the middle pair for an even count. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile. `None` below two samples,
/// where a quartile is not defined.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Distance between the quartiles as a share of the median: the run-to-run
/// spread the driver holds against each metric's bound. `None` below two
/// samples or for a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 1) of `values`, reported only when
/// at least [`TAIL_SUPPORT`] samples lie beyond it; otherwise the sample is
/// too small to say anything about that tail.
pub fn tail(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = (p * v.len() as f64).ceil() as usize;
    if rank == 0 || v.len() - rank < TAIL_SUPPORT {
        return None;
    }
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 15.0, 22.5)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_quartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&v), Some(1.0));
        assert_eq!(iqr_share(&[7.0; 5]), Some(0.0));
        assert_eq!(iqr_share(&[0.0; 5]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=2400).map(f64::from).collect();
        // 24 samples lie beyond the 99th percentile of 2 400.
        assert_eq!(tail(&v, 0.99), Some(2376.0));
        // 1 000 samples leave exactly ten beyond p99: still supported.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Some(990.0));
        // 999 leave nine: not reported.
        assert_eq!(tail(&v[..999], 0.99), None);
        // A batch workload's 7 to 15 samples support no tail at all.
        assert_eq!(tail(&v[..15], 0.99), None);
        assert_eq!(tail(&v[..15], 0.5), None);
        assert_eq!(tail(&[], 0.99), None);
    }
}
