//! The *outlier percentage* negotiability summarizer of §3.3: "the portion
//! of (performance) counters that exist at least three standard deviations
//! away from the average were calculated as a means to capture spiky usage."

use crate::descriptive::{mean, stddev};

/// Fraction of samples at least `k` standard deviations away from the mean.
///
/// The paper uses `k = 3`. A constant (zero-variance) or empty series has no
/// outliers by definition.
pub fn outlier_fraction(xs: &[f64], k: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    let sd = stddev(xs);
    if sd == 0.0 {
        return 0.0;
    }
    let cut = k * sd;
    xs.iter().filter(|&&x| (x - m).abs() >= cut).count() as f64 / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_has_no_outliers() {
        assert_eq!(outlier_fraction(&[], 3.0), 0.0);
    }

    #[test]
    fn constant_series_has_no_outliers() {
        assert_eq!(outlier_fraction(&[5.0; 100], 3.0), 0.0);
        // At 7.71853 and 2477.084 the summed mean rounds away from the level,
        // so the stddev is not 0. Every deviation then has the same size,
        // exactly one stddev, so none reaches 3σ.
        for level in [0.0, 7.71853, 2477.084] {
            assert_eq!(outlier_fraction(&[level; 2016], 3.0), 0.0, "level {level}");
        }
    }

    #[test]
    fn tight_cluster_has_no_three_sigma_outliers() {
        let xs: Vec<f64> = (0..100).map(|i| 10.0 + (i % 5) as f64 * 0.01).collect();
        assert_eq!(outlier_fraction(&xs, 3.0), 0.0);
    }

    #[test]
    fn rare_extreme_spikes_are_flagged() {
        let mut xs = vec![10.0; 999];
        xs.push(10_000.0);
        let f = outlier_fraction(&xs, 3.0);
        assert!((f - 0.001).abs() < 1e-9, "fraction = {f}");
    }

    #[test]
    fn smaller_k_flags_more_points() {
        let xs: Vec<f64> = (0..200).map(|i| ((i * 31) % 17) as f64).collect();
        assert!(outlier_fraction(&xs, 1.0) >= outlier_fraction(&xs, 2.0));
        assert!(outlier_fraction(&xs, 2.0) >= outlier_fraction(&xs, 3.0));
    }

    #[test]
    fn fraction_is_bounded() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 97) % 23) as f64).collect();
        let f = outlier_fraction(&xs, 0.5);
        assert!((0.0..=1.0).contains(&f));
    }
}
