//! Seasonal-Trend decomposition using Loess (STL), after Cleveland et al.
//! (1990) — reference \[6\] of the Doppler paper.
//!
//! The *STL variance decomposition* negotiability summarizer (§3.3)
//! decomposes each perf-counter series `R` into trend `T`, seasonal `S`, and
//! residual `I`, then scores the dimension with
//! `max(0, 1 - var(I) / var(R))` — "the closer this value is to 1, the more
//! the observed performance is explained by trend and seasonality".
//!
//! This is a faithful, simplified STL: cycle-subseries Loess smoothing for
//! the seasonal, a moving-average low-pass to de-drift it, and Loess for the
//! trend, iterated twice. The robustness-weight
//! outer loop of full STL is omitted — Doppler feeds the decomposition into
//! a *variance ratio*, for which the non-robust inner loop is sufficient
//! (and is what makes the summarizer cheap enough to consider at all; the
//! paper ultimately ships thresholding for speed).

use crate::dispatch::{self, Isa};
use crate::loess::Smoother;

/// Loess span for smoothing each cycle-subseries, as a fraction of the
/// subseries length.
pub const SEASONAL_SPAN: f64 = 0.75;
/// Loess span for the trend, as a fraction of the full series length.
pub const TREND_SPAN: f64 = 0.25;
/// Inner-loop iterations; 2 matches the STL paper's default.
const INNER_ITERATIONS: usize = 2;

/// The additive decomposition `R = T + S + I`.
#[derive(Debug, Clone, PartialEq)]
pub struct StlDecomposition {
    pub trend: Vec<f64>,
    pub seasonal: Vec<f64>,
    pub residual: Vec<f64>,
}

impl StlDecomposition {
    /// The summarizer value of §3.3: `max(0, 1 - var(I)/var(R))`, where `R`
    /// is reconstructed from the components. A flat input scores exactly 1
    /// (fully explained): [`stl_decompose`] returns it as its own trend with
    /// zero residual. A reconstruction with zero variance also scores 1.
    pub fn variance_explained(&self) -> f64 {
        let n = self.trend.len();
        let observed: Vec<f64> =
            (0..n).map(|i| self.trend[i] + self.seasonal[i] + self.residual[i]).collect();
        let var_r = crate::descriptive::variance(&observed);
        if var_r == 0.0 {
            return 1.0;
        }
        let var_i = crate::descriptive::variance(&self.residual);
        (1.0 - var_i / var_r).max(0.0)
    }
}

/// Outputs summed together in [`moving_average`]'s full-width windows.
const LANES: usize = 16;

/// Centered moving average over the `2 * (w / 2) + 1` points around each
/// position (edges use the available points).
///
/// Full-width windows are summed sixteen at a time in lockstep; every window
/// is still summed left to right from `-0.0`, as `Iterator::sum` does, so
/// the output is bit-identical to summing each window on its own. Inlined
/// into each compiled copy of [`crate::dispatch::moving_average`].
#[inline(always)]
pub(crate) fn moving_average(xs: &[f64], w: usize) -> Vec<f64> {
    let n = xs.len();
    let half = w.max(1) / 2;
    let average = |i: usize| {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        xs[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
    };
    let mut out: Vec<f64> = (0..half.min(n)).map(average).collect();
    let width = 2 * half + 1;
    for block in xs.windows(width + LANES - 1).step_by(LANES) {
        let mut sums = [-0.0; LANES];
        for x in block.windows(LANES) {
            let x: &[f64; LANES] = x.try_into().expect("windows of LANES samples");
            for (s, x) in sums.iter_mut().zip(x) {
                *s += x;
            }
        }
        out.extend(sums.map(|s| s / width as f64));
    }
    let tail = out.len()..n;
    out.extend(tail.map(average));
    out
}

/// A series whose range is at most this many `f64::EPSILON`s times its
/// largest magnitude (about this many ulps of its level) counts as flat.
const FLAT_ULPS: f64 = 4.0;

/// Decompose an evenly spaced series with `period` samples per season
/// (e.g. 144 for daily seasonality at 10-minute sampling).
///
/// Returns `None` when `period < 2` or the series is shorter than two full
/// periods —
/// seasonality is not identifiable below that, which is also why the paper
/// pushes customers to collect at least a week of data.
///
/// A flat series (its range at most `4 · f64::EPSILON` times its largest
/// magnitude, a few ulps of its level) decomposes exactly into itself as
/// the trend, with zero seasonal and zero residual. It is decided here, on
/// the input, because the loess passes would otherwise leave rounding
/// noise in the residual that [`StlDecomposition::variance_explained`]
/// scores.
pub fn stl_decompose(series: &[f64], period: usize) -> Option<StlDecomposition> {
    let n = series.len();
    let p = period;
    if p < 2 || n < 2 * p {
        return None;
    }
    let (lo, hi) = series
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    if hi - lo <= FLAT_ULPS * f64::EPSILON * lo.abs().max(hi.abs()) {
        return Some(StlDecomposition {
            trend: series.to_vec(),
            seasonal: vec![0.0; n],
            residual: vec![0.0; n],
        });
    }

    // Each pass's plan is looked up once. Phases below `n % p` have one
    // more cycle than the rest, so the cycle-subseries take at most two
    // lengths.
    let isa = Isa::detect();
    let trend_pass = Smoother::new(n, TREND_SPAN);
    let (short, long) = (n / p, n.div_ceil(p));
    let short_pass = Smoother::new(short, SEASONAL_SPAN);
    let long_pass = Smoother::new(long, SEASONAL_SPAN);

    let mut trend = vec![0.0; n];
    let mut seasonal = vec![0.0; n];
    // One phase's cycle-subseries and its smoothing, reused across phases
    // and iterations.
    let mut sub = Vec::with_capacity(long);
    let mut smoothed = vec![0.0; long];

    for _ in 0..INNER_ITERATIONS {
        // 1. Detrend.
        let detrended: Vec<f64> = series.iter().zip(&trend).map(|(r, t)| r - t).collect();

        // 2. Cycle-subseries smoothing: smooth the values at each phase of
        //    the season across cycles, then re-interleave.
        let mut cyc = vec![0.0; n];
        for phase in 0..p {
            sub.clear();
            sub.extend(detrended[phase..].iter().step_by(p));
            let pass = if sub.len() == short { &short_pass } else { &long_pass };
            let smoothed = &mut smoothed[..sub.len()];
            pass.smooth_into(isa, &sub, smoothed);
            for (c, &s) in cyc[phase..].iter_mut().step_by(p).zip(&*smoothed) {
                *c = s;
            }
        }

        // 3. Low-pass the preliminary seasonal so slow drift stays in the
        //    trend: two passes of a moving average over 2·⌊p/2⌋ + 1 points
        //    (145 for p = 144; one more than a period when p is even) plus
        //    a 3-point pass (the STL paper's 3×p×p filter, collapsed).
        let average = |xs: &[f64], w| dispatch::moving_average(isa, xs, w);
        let low = average(&average(&average(&cyc, p), p), 3);
        for i in 0..n {
            seasonal[i] = cyc[i] - low[i];
        }

        // 4. Deseasonalize and re-fit the trend.
        let deseasonalized: Vec<f64> = series.iter().zip(&seasonal).map(|(r, s)| r - s).collect();
        trend_pass.smooth_into(isa, &deseasonalized, &mut trend);
    }

    let residual: Vec<f64> = (0..n).map(|i| series[i] - trend[i] - seasonal[i]).collect();
    Some(StlDecomposition { trend, seasonal, residual })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::variance;
    use proptest::prelude::*;

    fn sine_with_trend(n: usize, period: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                0.02 * i as f64
                    + 10.0 * (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin()
                    + 50.0
            })
            .collect()
    }

    #[test]
    fn too_short_series_is_rejected() {
        assert!(stl_decompose(&[1.0; 20], 24).is_none());
        assert!(stl_decompose(&[], 144).is_none());
    }

    #[test]
    fn components_resum_to_input_exactly() {
        let series = sine_with_trend(600, 48);
        let d = stl_decompose(&series, 48).unwrap();
        for (i, &x) in series.iter().enumerate() {
            let resum = d.trend[i] + d.seasonal[i] + d.residual[i];
            assert!((resum - x).abs() < 1e-9, "index {i}");
        }
    }

    #[test]
    fn pure_seasonal_signal_is_mostly_explained() {
        let series = sine_with_trend(960, 48);
        let d = stl_decompose(&series, 48).unwrap();
        let ve = d.variance_explained();
        assert!(ve > 0.9, "variance explained = {ve}");
    }

    #[test]
    fn white_noise_is_mostly_residual() {
        // Deterministic pseudo-noise with no structure at the probe period.
        let series: Vec<f64> =
            (0..960).map(|i| ((i * 2_654_435_761_usize) % 10_000) as f64 / 10_000.0).collect();
        let d = stl_decompose(&series, 48).unwrap();
        let ve = d.variance_explained();
        assert!(ve < 0.55, "variance explained = {ve}");
    }

    #[test]
    fn noise_scores_below_seasonal_signal() {
        let seasonal = sine_with_trend(960, 48);
        let noise: Vec<f64> =
            (0..960).map(|i| ((i * 1_103_515_245_usize + 12_345) % 10_000) as f64).collect();
        let dv_seasonal = stl_decompose(&seasonal, 48).unwrap().variance_explained();
        let dv_noise = stl_decompose(&noise, 48).unwrap().variance_explained();
        assert!(dv_seasonal > dv_noise, "seasonal {dv_seasonal} should exceed noise {dv_noise}");
    }

    #[test]
    fn trend_captures_linear_drift() {
        let series: Vec<f64> = (0..600).map(|i| 1.0 + 0.1 * i as f64).collect();
        let d = stl_decompose(&series, 24).unwrap();
        // Seasonal of a pure line should be near zero; the trend carries it.
        assert!(variance(&d.seasonal) < variance(&series) * 0.01);
        assert!(d.variance_explained() > 0.99);
    }

    #[test]
    fn constant_series_fully_explained() {
        let d = stl_decompose(&[5.0; 300], 24).unwrap();
        assert_eq!(d.variance_explained(), 1.0);
        // Levels whose loess passes do not reconstruct them exactly, over a
        // 14-day, 10-minute history at daily seasonality.
        for level in [7.71853, 2477.084] {
            let d = stl_decompose(&[level; 2016], 144).unwrap();
            assert_eq!(d.variance_explained(), 1.0, "level {level}");
        }
    }

    #[test]
    fn one_ulp_jitter_is_still_flat() {
        // A seeded ±1-ulp nudge on about half the samples: the range stays
        // within a few ulps of the level, so the series is still flat.
        let mut rng = crate::rng::SeededRng::new(7);
        for level in [5.0f64, 7.71853, 2477.084] {
            let series: Vec<f64> = (0..2016)
                .map(|_| match rng.index(4) {
                    0 => level.next_up(),
                    1 => level.next_down(),
                    _ => level,
                })
                .collect();
            let d = stl_decompose(&series, 144).unwrap();
            assert_eq!(d.variance_explained(), 1.0, "level {level}");
        }
    }

    proptest! {
        #[test]
        fn any_flat_series_is_fully_explained(
            bits in 0..u64::MAX,
            period in 2usize..160,
            extra in 0usize..400,
        ) {
            // Any finite level: a non-finite bit pattern loses its top
            // exponent bit, which leaves it finite.
            let level = match f64::from_bits(bits) {
                x if x.is_finite() => x,
                _ => f64::from_bits(bits & !(1 << 62)),
            };
            let series = vec![level; 2 * period + extra];
            let d = stl_decompose(&series, period).unwrap();
            prop_assert_eq!(d.variance_explained(), 1.0, "level {level:e}, period {period}");
        }
    }

    /// One window at a time, the order the lockstep sums must reproduce.
    fn moving_average_reference(xs: &[f64], w: usize) -> Vec<f64> {
        let n = xs.len();
        let w = w.max(1);
        let half = w / 2;
        (0..n)
            .map(|i| {
                let lo = i.saturating_sub(half);
                let hi = (i + half + 1).min(n);
                xs[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect()
    }

    #[test]
    fn moving_average_matches_reference_bit_for_bit() {
        let noise: Vec<f64> = (0..300)
            .map(|i| ((i * 2_654_435_761_usize) % 10_007) as f64 * 1e3 - 5e6 + 0.1 * i as f64)
            .collect();
        let zeros = [-0.0; 40];
        for xs in [&noise[..], &noise[..7], &noise[..1], &[], &zeros[..]] {
            for w in [0, 1, 2, 3, 4, 5, 8, 13, 144, 145, 299, 300, 301, 1000] {
                let fast = moving_average(xs, w);
                let slow = moving_average_reference(xs, w);
                assert_eq!(fast.len(), slow.len());
                for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "n = {}, w = {w}, output {i}", xs.len());
                }
            }
        }
    }

    /// The decomposition with one `loess_smooth` call, and so one plan
    /// lookup and one output `Vec`, per cycle-subseries: the order of work
    /// [`stl_decompose`] must reproduce to the bit.
    fn stl_reference(series: &[f64], period: usize) -> StlDecomposition {
        let n = series.len();
        let p = period;
        let mut trend = vec![0.0; n];
        let mut seasonal = vec![0.0; n];
        for _ in 0..INNER_ITERATIONS {
            let detrended: Vec<f64> = series.iter().zip(&trend).map(|(r, t)| r - t).collect();
            let mut cyc = vec![0.0; n];
            for phase in 0..p {
                let sub: Vec<f64> = detrended[phase..].iter().step_by(p).copied().collect();
                let smoothed = crate::loess::loess_smooth(&sub, SEASONAL_SPAN);
                for (c, s) in cyc[phase..].iter_mut().step_by(p).zip(smoothed) {
                    *c = s;
                }
            }
            let low = moving_average_reference(
                &moving_average_reference(&moving_average_reference(&cyc, p), p),
                3,
            );
            for i in 0..n {
                seasonal[i] = cyc[i] - low[i];
            }
            let deseasonalized: Vec<f64> =
                series.iter().zip(&seasonal).map(|(r, s)| r - s).collect();
            trend = crate::loess::loess_smooth(&deseasonalized, TREND_SPAN);
        }
        let residual: Vec<f64> = (0..n).map(|i| series[i] - trend[i] - seasonal[i]).collect();
        StlDecomposition { trend, seasonal, residual }
    }

    #[test]
    fn cycle_subseries_match_the_per_phase_reference_bit_for_bit() {
        // 14·144 + 1 and 2·144 + 70 give the cycle-subseries two lengths
        // (15 and 14, 3 and 2); 2·144 gives length 2, which passes through
        // the loess unchanged; 14·144 is the summarizer's 14-day history.
        for n in [14 * 144 + 1, 2 * 144 + 70, 2 * 144, 14 * 144] {
            for (k, series) in [
                sine_with_trend(n, 144),
                (0..n).map(|i| ((i * 2_654_435_761_usize) % 10_007) as f64 * 0.37).collect(),
            ]
            .into_iter()
            .enumerate()
            {
                let fast = stl_decompose(&series, 144).unwrap();
                let slow = stl_reference(&series, 144);
                for (name, a, b) in [
                    ("trend", &fast.trend, &slow.trend),
                    ("seasonal", &fast.seasonal, &slow.seasonal),
                    ("residual", &fast.residual, &slow.residual),
                ] {
                    for (i, (a, b)) in a.iter().zip(b).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "n = {n}, series {k}: {name}[{i}]");
                    }
                }
            }
        }
    }

    #[test]
    fn moving_average_of_constant_is_identity() {
        assert_eq!(moving_average(&[2.0; 10], 5), vec![2.0; 10]);
    }

    #[test]
    fn moving_average_smooths_alternation() {
        let xs = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0];
        let out = moving_average(&xs, 2);
        let v_in = variance(&xs);
        let v_out = variance(&out);
        assert!(v_out < v_in);
    }
}
