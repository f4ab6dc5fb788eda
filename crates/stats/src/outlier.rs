//! The *outlier percentage* negotiability summarizer of §3.3: "the portion
//! of (performance) counters that exist at least three standard deviations
//! away from the average were calculated as a means to capture spiky usage."

use crate::descriptive::{mean, stddev};

/// Standard deviations from the mean at which a sample is an outlier.
const SIGMAS: f64 = 3.0;

/// Fraction of samples at least three standard deviations away from the
/// mean. A constant (zero-variance) or empty series has no outliers by
/// definition.
pub fn outlier_fraction(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    let sd = stddev(xs);
    if sd == 0.0 {
        return 0.0;
    }
    let cut = SIGMAS * sd;
    xs.iter().filter(|&&x| (x - m).abs() >= cut).count() as f64 / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_has_no_outliers() {
        assert_eq!(outlier_fraction(&[]), 0.0);
    }

    #[test]
    fn constant_series_has_no_outliers() {
        assert_eq!(outlier_fraction(&[5.0; 100]), 0.0);
        // At 7.71853 and 2477.084 the summed mean rounds away from the level,
        // so the stddev is not 0. Every deviation then has the same size,
        // exactly one stddev, so none reaches 3σ.
        for level in [0.0, 7.71853, 2477.084] {
            assert_eq!(outlier_fraction(&[level; 2016]), 0.0, "level {level}");
        }
    }

    #[test]
    fn tight_cluster_has_no_three_sigma_outliers() {
        let xs: Vec<f64> = (0..100).map(|i| 10.0 + (i % 5) as f64 * 0.01).collect();
        assert_eq!(outlier_fraction(&xs), 0.0);
    }

    #[test]
    fn rare_extreme_spikes_are_flagged() {
        let mut xs = vec![10.0; 999];
        xs.push(10_000.0);
        let f = outlier_fraction(&xs);
        assert!((f - 0.001).abs() < 1e-9, "fraction = {f}");
    }

    #[test]
    fn outliers_start_at_three_sigma() {
        // 999 samples alternating ±1 (σ ≈ 1) and one more at `x`: about
        // 2.5σ out is not an outlier, about 3.5σ out is.
        let series = |x: f64| {
            let mut xs: Vec<f64> = (0..999).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
            xs.push(x);
            xs
        };
        assert_eq!(outlier_fraction(&series(2.5)), 0.0);
        assert_eq!(outlier_fraction(&series(3.5)), 0.001);
    }

    #[test]
    fn fraction_is_bounded() {
        let xs: Vec<f64> =
            (0..500).map(|i| if i % 50 == 0 { 500.0 } else { ((i * 97) % 23) as f64 }).collect();
        let f = outlier_fraction(&xs);
        assert!(f > 0.0 && f <= 1.0, "fraction = {f}");
    }
}
