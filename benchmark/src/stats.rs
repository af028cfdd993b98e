//! Order statistics over small sample sets.

/// Median of `values` (mean of the middle two for even counts); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` gives, which is what the
/// acceptance driver uses for run-to-run spread. Needs two samples; fewer
/// yield `(median, median)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let m = median(&v);
        return (m, m);
    }
    let at = |q: usize| {
        // Position q*(n+1)/4 in 1-based ranks. The rank pair is clamped to
        // the data but the fraction is not, so tiny samples extrapolate
        // exactly as Python does.
        let pos = q as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        v[lo - 1] + (v[lo] - v[lo - 1]) * (pos - lo as f64)
    };
    (at(1), at(3))
}

/// Spread of a sample set: interquartile distance as a share of the
/// median. Zero for fewer than two samples or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// The `p`-th percentile (0..=100) by nearest rank on sorted data; 0 for
/// an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
