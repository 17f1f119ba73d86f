//! Order statistics over the harness's own samples.

/// Median of `values` (mean of the two middle samples when even; 0.0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest of `values` (0.0 when empty).
pub fn least(values: &[f64]) -> f64 {
    let least = values.iter().copied().fold(f64::INFINITY, f64::min);
    if values.is_empty() {
        0.0
    } else {
        least
    }
}

/// Largest of `values` (0.0 when empty).
pub fn most(values: &[f64]) -> f64 {
    -least(&values.iter().map(|v| -v).collect::<Vec<_>>())
}

/// The highest sample that still has ten samples beyond it — the
/// 11th-largest — with the percentile it stands at, so a tail figure is
/// never a single outlier. `None` with fewer than 11 samples.
pub fn tail_with_ten_beyond(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = v.len() - 11;
    Some((v[rank], 100.0 * (rank + 1) as f64 / v.len() as f64))
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)` (the
/// exclusive method) so the number matches the acceptance script's. 0.0
/// with fewer than two samples or a zero median.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quantile = |k: usize| {
        // Position k*(n+1)/4 on a 1-based axis; like Python, the index is
        // clamped to the samples and the interpolation weight is not.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (quantile(3) - quantile(1)) / med
    }
}

/// `num / den`, or 0.0 when the denominator is 0 — a layer that did no
/// work reports a zero ratio, never NaN (which is not JSON).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn least_and_most_of_samples_and_of_nothing() {
        assert_eq!(
            (least(&[3.0, 1.0, 2.0]), most(&[3.0, 1.0, 2.0])),
            (1.0, 3.0)
        );
        assert_eq!((least(&[]), most(&[])), (0.0, 0.0));
    }

    #[test]
    fn tail_is_the_eleventh_largest_with_its_percentile() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, pct) = tail_with_ten_beyond(&v).expect("40 samples");
        assert_eq!(value, 30.0, "ten samples (31..=40) lie beyond it");
        assert_eq!(pct, 75.0);
        assert!(tail_with_ten_beyond(&v[..10]).is_none());
        let (value, _) = tail_with_ten_beyond(&v[..11]).expect("11 samples");
        assert_eq!(value, 1.0);
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((iqr_over_median(&[40.0, 10.0, 20.0]) - 1.5).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[7.0]), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
