//! Small statistics helpers shared by generators and the survey tables.

/// Sample mean and (population) standard deviation.
///
/// The paper reports `mean ± std` rows; survey literature in this venue
/// conventionally uses the population form, and at n = 29 the difference
/// is below the table's printed precision either way.
pub(crate) fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Shift and scale `values` so their mean/std match the targets exactly
/// (used to pin synthesized survey responses to the published moments
/// before clipping to the instrument's scale).
pub(crate) fn fit_moments(values: &mut [f64], target_mean: f64, target_std: f64) {
    let (mean, std) = mean_std(values);
    let scale = if std > 1e-12 { target_std / std } else { 0.0 };
    for v in values.iter_mut() {
        *v = target_mean + (*v - mean) * scale;
    }
}

/// Clamp every value into `[lo, hi]` (survey scales are bounded).
pub(crate) fn clamp_all(values: &mut [f64], lo: f64, hi: f64) {
    for v in values.iter_mut() {
        *v = v.clamp(lo, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[3.0]), (3.0, 0.0));
    }

    #[test]
    fn fit_moments_hits_targets() {
        let mut v: Vec<f64> = (0..29).map(|i| i as f64 * 0.37).collect();
        fit_moments(&mut v, 6.6, 1.2);
        let (m, s) = mean_std(&v);
        assert!((m - 6.6).abs() < 1e-9);
        assert!((s - 1.2).abs() < 1e-9);
    }

    #[test]
    fn fit_moments_degenerate_input() {
        let mut v = vec![5.0; 10];
        fit_moments(&mut v, 3.0, 1.0);
        // Zero-variance input can only match the mean.
        let (m, s) = mean_std(&v);
        assert!((m - 3.0).abs() < 1e-9);
        assert!(s.abs() < 1e-9);
    }

    #[test]
    fn clamp_all_bounds() {
        let mut v = vec![-1.0, 5.0, 11.0];
        clamp_all(&mut v, 0.0, 10.0);
        assert_eq!(v, vec![0.0, 5.0, 10.0]);
    }
}
