//! Area under the empirical CDF — the AUC negotiability summarizers of §3.3.
//!
//! For a series scaled into `[0, 1]`, the AUC of its ECDF over `[0, 1]`
//! measures how much probability mass sits at *low* utilization: a workload
//! that idles with rare, short spikes has an ECDF that jumps early, so its
//! AUC is high; a steadily-busy workload keeps its ECDF low until the right
//! edge, so its AUC is low. "Higher AUC values tend to describe workloads
//! that had transient spiky usage" (Fig. 6), i.e. the dimension is
//! *negotiable*.

use crate::ecdf::Ecdf;
use crate::scaling::{max_scale, minmax_scale};

/// Area under an ECDF over a fixed `[lo, hi]` interval, computed exactly.
///
/// The ECDF is a right-continuous step function, so the area is the sum of
/// `F(x_k) * (x_{k+1} - x_k)` over the step intervals clipped to `[lo, hi]`.
pub fn auc_ecdf(ecdf: &Ecdf, lo: f64, hi: f64) -> f64 {
    auc_sorted(ecdf.sorted_values(), lo, hi)
}

/// [`auc_ecdf`] over the ascending sample `values`, in one walk.
///
/// Each step's `F(x_k)` is `k / n` for the count `k` of samples at or below
/// the step's left end. The walk visits every run of ties above `lo` in
/// order, and that left end is the previous run's value (or `lo`), so `k`
/// is the index where the current run starts: the walk carries it instead
/// of searching for it.
fn auc_sorted(values: &[f64], lo: f64, hi: f64) -> f64 {
    assert!(hi >= lo, "auc_ecdf interval is inverted");
    if hi == lo {
        return 0.0;
    }
    let n = values.len() as f64;
    let mut area = 0.0;
    let mut prev_x = lo;
    // Samples before the current run of ties: the count at or below prev_x.
    let mut below = 0;
    for (i, &v) in values.iter().enumerate() {
        // Collapse runs of ties: the step only advances after the whole run.
        if i + 1 < values.len() && values[i + 1] == v {
            continue;
        }
        let run_start = std::mem::replace(&mut below, i + 1);
        if v <= lo {
            continue;
        }
        // F is constant on [prev_x, v) because no sample point lies inside.
        let x = v.min(hi);
        if x > prev_x {
            area += run_start as f64 / n * (x - prev_x);
            prev_x = x;
        }
        if v >= hi {
            break;
        }
    }
    if prev_x < hi {
        // Reached only when no run ends at or past hi: every sample is at or
        // below prev_x, and `below` counts them all.
        area += below as f64 / n * (hi - prev_x);
    }
    area
}

/// The AUC over `[0, 1]` of a series already scaled into it, `1.0` when
/// empty. Sorting in place skips the copy an [`Ecdf`] makes; the sort need
/// not be stable, since the only samples that compare equal yet differ are
/// `0.0` and `-0.0`, and the walk reads samples only through comparisons,
/// `min` and differences, where the sign of a zero cannot change the area.
fn unit_auc(mut scaled: Vec<f64>) -> f64 {
    if scaled.is_empty() {
        return 1.0;
    }
    scaled.sort_unstable_by(|a, b| a.partial_cmp(b).expect("non-finite input to Ecdf"));
    auc_sorted(&scaled, 0.0, 1.0)
}

/// The *MinMax Scaler AUC* summarizer: min-max scale the series, build the
/// ECDF, integrate over `[0, 1]`.
///
/// Returns a value in `[0, 1]`; `1.0` for degenerate (constant/empty) series,
/// which reads as "maximally negotiable" — a flat counter never throttles
/// above its own level.
pub fn minmax_scaled_auc(xs: &[f64]) -> f64 {
    unit_auc(minmax_scale(xs))
}

/// The *Max Scaler AUC* summarizer: divide by the max, build the ECDF,
/// integrate over `[0, 1]`.
pub fn max_scaled_auc(xs: &[f64]) -> f64 {
    unit_auc(max_scale(xs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The AUC as an `Ecdf` over a stable sort computed it, with one binary
    /// search for `F` per step: the bits the one-walk AUC must reproduce.
    fn auc_reference(sample: &[f64], lo: f64, hi: f64) -> f64 {
        assert!(hi >= lo, "auc_ecdf interval is inverted");
        if hi == lo {
            return 0.0;
        }
        let mut values = sample.to_vec();
        values.sort_by(|a, b| a.partial_cmp(b).expect("non-finite input to Ecdf"));
        let eval = |x: f64| values.partition_point(|&v| v <= x) as f64 / values.len() as f64;
        let mut area = 0.0;
        let mut prev_x = lo;
        for (i, &v) in values.iter().enumerate() {
            if i + 1 < values.len() && values[i + 1] == v {
                continue;
            }
            if v <= lo {
                continue;
            }
            let x = v.min(hi);
            if x > prev_x {
                area += eval(prev_x) * (x - prev_x);
                prev_x = x;
            }
            if v >= hi {
                break;
            }
        }
        if prev_x < hi {
            area += eval(prev_x) * (hi - prev_x);
        }
        area
    }

    /// The one-walk AUC, over an `Ecdf` and over an unstable sort, against
    /// the reference, bit for bit.
    fn assert_matches_reference(sample: &[f64], lo: f64, hi: f64) {
        let want = auc_reference(sample, lo, hi).to_bits();
        let ecdf = Ecdf::new(sample).expect("a nonempty sample");
        assert_eq!(auc_ecdf(&ecdf, lo, hi).to_bits(), want, "{sample:?} over [{lo}, {hi}]");
        let mut unstable = sample.to_vec();
        unstable.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(auc_sorted(&unstable, lo, hi).to_bits(), want, "{sample:?} over [{lo}, {hi}]");
    }

    #[test]
    fn one_walk_matches_the_reference_bit_for_bit() {
        let samples: [&[f64]; 9] = [
            &[0.5],
            &[0.0, 0.0, 0.0],
            &[0.1, 0.1, 0.4, 0.4, 0.4, 0.9],
            &[0.0, -0.0, 0.0, -0.0, 0.3, 0.3, -0.0, 1.0, 1.0],
            &[-0.0, -0.0, 0.0, 0.7],
            &[-2.0, -0.5, 0.0, 0.25, 1.0, 1.0, 1.5, 3.0],
            &[1.0, 1.0, 1.0],
            &[2.0, 5.0],
            &[-1.0, -0.25, -0.0],
        ];
        let intervals = [
            (0.0, 1.0),
            (-0.0, 1.0),
            (0.0, 0.0),
            (0.1, 0.4),
            (0.25, 0.7),
            (-1.0, 2.0),
            (-3.0, -1.0),
            (0.4, 0.4),
            (1.0, 4.0),
            (-0.5, -0.0),
            (0.05, 0.3),
        ];
        for sample in samples {
            for (lo, hi) in intervals {
                assert_matches_reference(sample, lo, hi);
            }
        }
    }

    #[test]
    fn summarizers_match_the_reference_bit_for_bit() {
        let spiky: Vec<f64> = (0..2016).map(|i| if i % 97 < 3 { 8.0 } else { 0.4 }).collect();
        let noisy: Vec<f64> =
            (0..2016).map(|i| ((i * 2_654_435_761_usize) % 1009) as f64).collect();
        let signed: Vec<f64> = (0..500).map(|i| [-0.0, 0.0, 2.0, 2.0, 5.0][i % 5]).collect();
        for xs in [&spiky[..], &noisy, &signed, &[3.0; 10]] {
            assert_eq!(
                minmax_scaled_auc(xs).to_bits(),
                auc_reference(&minmax_scale(xs), 0.0, 1.0).to_bits()
            );
            assert_eq!(
                max_scaled_auc(xs).to_bits(),
                auc_reference(&max_scale(xs), 0.0, 1.0).to_bits()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn one_walk_matches_the_reference_on_any_sample(
            // Few distinct levels, so ties and signed zeros are common.
            levels in prop::collection::vec(
                prop::sample::select(vec![-1.0, -0.0, 0.0, 0.125, 0.5, 0.5, 0.75, 1.0, 1.0, 2.0]),
                1..60,
            ),
            jitter in prop::collection::vec(-1.0..2.0f64, 0..60),
            lo in prop::sample::select(vec![-1.5, -0.0, 0.0, 0.125, 0.3, 0.5, 1.0]),
            width in prop::sample::select(vec![0.0, 0.2, 0.5, 1.0, 3.0]),
        ) {
            let sample: Vec<f64> = levels.into_iter().chain(jitter).collect();
            assert_matches_reference(&sample, lo, lo + width);
        }
    }

    #[test]
    fn auc_of_point_mass_at_zero_is_one() {
        // All sample mass at 0: F(x) = 1 everywhere on [0,1].
        let e = Ecdf::new(&[0.0, 0.0, 0.0]).unwrap();
        assert!((auc_ecdf(&e, 0.0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auc_of_point_mass_at_one_is_zero() {
        // All mass at 1: F(x) = 0 on [0,1), so the area is 0.
        let e = Ecdf::new(&[1.0, 1.0]).unwrap();
        assert!(auc_ecdf(&e, 0.0, 1.0).abs() < 1e-12);
    }

    #[test]
    fn auc_of_uniform_grid_approaches_half() {
        let xs: Vec<f64> = (0..=1000).map(|i| i as f64 / 1000.0).collect();
        let e = Ecdf::new(&xs).unwrap();
        let a = auc_ecdf(&e, 0.0, 1.0);
        assert!((a - 0.5).abs() < 0.01, "auc = {a}");
    }

    #[test]
    fn auc_zero_width_interval_is_zero() {
        let e = Ecdf::new(&[0.3, 0.7]).unwrap();
        assert_eq!(auc_ecdf(&e, 0.5, 0.5), 0.0);
    }

    #[test]
    fn auc_partial_interval() {
        // Mass at 0 and 1 equally: F = 0.5 on [0,1). Area over [0, 0.5] = 0.25.
        let e = Ecdf::new(&[0.0, 1.0]).unwrap();
        assert!((auc_ecdf(&e, 0.0, 0.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn spiky_series_has_higher_auc_than_steady() {
        // Spiky: long idle at 5% with rare 100% spikes.
        let mut spiky = vec![0.05; 990];
        spiky.extend_from_slice(&[1.0; 10]);
        // Steady: always between 60% and 80%.
        let steady: Vec<f64> = (0..1000).map(|i| 0.6 + 0.2 * ((i % 10) as f64 / 10.0)).collect();
        let a_spiky = minmax_scaled_auc(&spiky);
        let a_steady = minmax_scaled_auc(&steady);
        assert!(a_spiky > a_steady, "spiky auc {a_spiky} should exceed steady auc {a_steady}");
    }

    #[test]
    fn max_scaler_detects_high_floor_that_minmax_hides() {
        // High-baseline steady series: min-max rescales 90..100 to fill [0,1]
        // (moderate AUC), but max-scaling keeps everything above 0.9 (tiny AUC).
        let xs: Vec<f64> = (0..100).map(|i| 90.0 + (i % 10) as f64).collect();
        let minmax = minmax_scaled_auc(&xs);
        let maxs = max_scaled_auc(&xs);
        assert!(maxs < 0.15, "max-scaled auc {maxs}");
        assert!(minmax > 0.3, "minmax-scaled auc {minmax}");
    }

    #[test]
    fn degenerate_series_read_as_negotiable() {
        assert_eq!(minmax_scaled_auc(&[]), 1.0);
        assert_eq!(minmax_scaled_auc(&[4.2; 12]), 1.0);
        assert_eq!(max_scaled_auc(&[]), 1.0);
        for level in [0.0, 7.71853, 2477.084] {
            assert_eq!(minmax_scaled_auc(&[level; 2016]), 1.0, "level {level}");
        }
    }

    #[test]
    fn max_scaler_reads_a_flat_series_by_its_level() {
        // A flat zero series scales to all zeros (no evidence of load); any
        // positive flat series scales to a point mass at its own max.
        assert_eq!(max_scaled_auc(&[0.0; 2016]), 1.0);
        for level in [7.71853, 2477.084] {
            assert_eq!(max_scaled_auc(&[level; 2016]), 0.0, "level {level}");
        }
    }

    #[test]
    fn auc_values_stay_in_unit_interval() {
        for series in [
            vec![0.0, 0.1, 0.9, 1.0],
            vec![55.0, 54.0, 53.0, 52.0],
            (0..500).map(|i| ((i * 37) % 97) as f64).collect::<Vec<_>>(),
        ] {
            for f in [minmax_scaled_auc, max_scaled_auc] {
                let a = f(&series);
                assert!((0.0..=1.0 + 1e-12).contains(&a), "auc out of range: {a}");
            }
        }
    }
}
