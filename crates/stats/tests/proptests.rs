//! Property-based tests for the statistics substrate.

use doppler_stats::descriptive::{mean, quantile, stddev};
use doppler_stats::{
    auc_ecdf, kmeans, max_scale, minmax_scale, minmax_scaled_auc, spike_dwell_fraction,
    stl_decompose, BootstrapWindows, Ecdf,
};
use proptest::prelude::*;

fn finite_series() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6..1e6f64, 1..200)
}

proptest! {
    #[test]
    fn quantiles_are_ordered_and_bounded(xs in finite_series(), q1 in 0.0..1.0f64, q2 in 0.0..1.0f64) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let vlo = quantile(&xs, lo).unwrap();
        let vhi = quantile(&xs, hi).unwrap();
        prop_assert!(vlo <= vhi);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(vlo >= min - 1e-9 && vhi <= max + 1e-9);
    }

    #[test]
    fn mean_lies_between_min_and_max(xs in finite_series()) {
        let m = mean(&xs);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= min - 1e-6 && m <= max + 1e-6);
    }

    #[test]
    fn stddev_is_nonnegative_and_shift_invariant(xs in finite_series(), shift in -1e3..1e3f64) {
        let sd = stddev(&xs);
        prop_assert!(sd >= 0.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((stddev(&shifted) - sd).abs() < 1e-6 * (1.0 + sd));
    }

    #[test]
    fn ecdf_is_a_cdf(xs in finite_series(), probe in -1e6..1e6f64) {
        let e = Ecdf::new(&xs).unwrap();
        let f = e.eval(probe);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert_eq!(e.eval(e.max()), 1.0);
        // Monotone along the grid.
        for w in e.grid(16).windows(2) {
            prop_assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn minmax_scaler_maps_anything_into_unit_interval(xs in finite_series()) {
        let scaled = minmax_scale(&xs);
        prop_assert_eq!(scaled.len(), xs.len());
        for v in scaled {
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&v), "value {v}");
        }
    }

    #[test]
    fn max_scaler_maps_counters_into_unit_interval(
        // Perf counters are non-negative by construction — max-scaling is
        // only specified on that domain.
        xs in prop::collection::vec(0.0..1e6f64, 1..200),
    ) {
        let scaled = max_scale(&xs);
        prop_assert_eq!(scaled.len(), xs.len());
        for v in scaled {
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&v), "value {v}");
        }
    }

    #[test]
    fn auc_is_bounded_by_interval_length(xs in finite_series(), width in 0.1..10.0f64) {
        let e = Ecdf::new(&xs).unwrap();
        let lo = e.min();
        let a = auc_ecdf(&e, lo, lo + width);
        prop_assert!(a >= -1e-12 && a <= width + 1e-9);
    }

    #[test]
    fn minmax_auc_in_unit_interval(xs in finite_series()) {
        let a = minmax_scaled_auc(&xs);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&a));
    }

    #[test]
    fn dwell_fraction_is_a_fraction(xs in finite_series()) {
        let d = spike_dwell_fraction(&xs);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn stl_components_resum(xs in prop::collection::vec(-100.0..100.0f64, 48..300)) {
        if let Some(d) = stl_decompose(&xs, 24) {
            for (i, &x) in xs.iter().enumerate() {
                let resum = d.trend[i] + d.seasonal[i] + d.residual[i];
                prop_assert!((resum - x).abs() < 1e-6, "index {i}");
            }
            let ve = d.variance_explained();
            prop_assert!((0.0..=1.0).contains(&ve));
        }
    }

    #[test]
    fn kmeans_assigns_every_point_to_nearest_centroid(
        points in prop::collection::vec(prop::collection::vec(-10.0..10.0f64, 2), 2..40),
        k in 1usize..5,
    ) {
        let r = kmeans(&points, k, 7);
        prop_assert_eq!(r.assignments.len(), points.len());
        for (p, &a) in points.iter().zip(&r.assignments) {
            let d_assigned = doppler_stats::euclidean_sq(p, &r.centroids[a]);
            for c in &r.centroids {
                prop_assert!(d_assigned <= doppler_stats::euclidean_sq(p, c) + 1e-9);
            }
        }
    }

    #[test]
    fn bootstrap_windows_stay_in_bounds(
        len in 1usize..500, window in 1usize..600, replicates in 0usize..50, seed in 0u64..100,
    ) {
        let plan = BootstrapWindows::generate(len, window, replicates, seed);
        prop_assert_eq!(plan.len(), replicates);
        for w in plan.windows() {
            prop_assert!(w.end <= len);
            prop_assert!(w.start < w.end);
        }
    }

    #[test]
    fn quantile_and_summary_never_panic_on_arbitrary_floats(
        xs in prop::collection::vec(-1e6..1e6f64, 0..120),
        corruptions in prop::collection::vec(
            (
                0usize..200,
                prop::sample::select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
            ),
            0..4,
        ),
        q in 0.0..1.0f64,
    ) {
        // Plant non-finite samples at arbitrary slots: quantile and
        // Summary must return Some exactly when the series is non-empty
        // and fully finite, and must never panic either way.
        let mut xs = xs;
        for &(slot, bad) in &corruptions {
            if !xs.is_empty() {
                let n = xs.len();
                xs[slot % n] = bad;
            }
        }
        let clean = !xs.is_empty() && xs.iter().all(|x| x.is_finite());
        let quantile_result = quantile(&xs, q);
        let summary = doppler_stats::Summary::of(&xs);
        prop_assert_eq!(quantile_result.is_some(), clean);
        prop_assert_eq!(summary.is_some(), clean);
        if let Some(v) = quantile_result {
            prop_assert!(v.is_finite());
        }
        if let Some(s) = summary {
            prop_assert!(s.min <= s.median && s.median <= s.max);
        }
    }
}
