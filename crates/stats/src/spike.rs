//! The spike-duration *thresholding algorithm* of §3.3 — the negotiability
//! summarizer Doppler ships in production.
//!
//! > "Doppler first identifies the max peak value(s) within the time-series
//! > data of each performance dimension. The variances of the counters are
//! > also captured, and a window is formed (one standard deviation) below
//! > the max value. The total duration in which resource utilization is
//! > within this window is then assessed. If the total duration lasts for
//! > greater than a threshold percentage (ρ) of the total assessment period,
//! > the performance dimension is cast as non-negotiable."
//!
//! The measurement is four statistics: the max, the mean, the variance and
//! the dwell count. The max, mean and variance are each one serial chain of
//! floating-point operations over the series, so [`SpikeProfile::measure_lanes`]
//! runs up to [`LANES`] equal-length series (the dimensions of one history)
//! in lockstep, each statistic held in a `[f64; L]` lane array. Every lane
//! still takes the same terms in the same order with the same operations as
//! [`descriptive`](crate::descriptive)'s `max`, `mean` and `variance`: the
//! max keeps the first of equal peaks, both sums start from `-0.0` as
//! `Iterator::sum` does, and Rust never contracts a multiply and add into
//! an FMA. So each lane is bit-identical to measuring its series alone.

/// Series measured together by the profiler; the lane width it uses.
pub const LANES: usize = 4;

/// The outcome of running the thresholding algorithm on one dimension.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpikeProfile {
    /// Max peak value observed in the series.
    pub peak: f64,
    /// Arithmetic mean of the series.
    pub mean: f64,
    /// One (population) standard deviation of the series: the window
    /// height.
    pub stddev: f64,
    /// Fraction of samples that sit inside `[peak - stddev, peak]`.
    pub dwell_fraction: f64,
}

impl SpikeProfile {
    /// Run the thresholding measurement. Returns `None` for an empty series.
    pub fn measure(xs: &[f64]) -> Option<SpikeProfile> {
        SpikeProfile::measure_lanes([xs]).map(|[p]| p)
    }

    /// Measure `L` series of one length together; lane `l` of the result
    /// equals [`measure`](SpikeProfile::measure)`(lanes[l])` bit for bit.
    /// Returns `None` when the series are empty, and panics when their
    /// lengths differ.
    pub fn measure_lanes<const L: usize>(lanes: [&[f64]; L]) -> Option<[SpikeProfile; L]> {
        let n = lanes.first().map_or(0, |xs| xs.len());
        assert!(lanes.iter().all(|xs| xs.len() == n), "lanes of unequal length");
        if n == 0 {
            return None;
        }
        debug_assert!(
            lanes.iter().all(|xs| xs.iter().all(|x| x.is_finite())),
            "spike profile over non-finite input"
        );
        // Re-slicing to exactly `n` lets the indexing below skip its bounds
        // checks. Column `t` holds every lane's sample `t`.
        let lanes = lanes.map(|xs| &xs[..n]);
        let columns = || (0..n).map(|t| lanes.map(|xs| xs[t]));
        let len = n as f64;

        // Pass 1: the running max (a later sample replaces the peak only
        // when strictly greater) and the sum.
        let mut peak = lanes.map(|xs| xs[0]);
        let mut sum = [-0.0; L];
        for x in columns() {
            for l in 0..L {
                peak[l] = if x[l] > peak[l] { x[l] } else { peak[l] };
                sum[l] += x[l];
            }
        }
        let mean = sum.map(|s| s / len);

        // Pass 2: the sum of squared deviations from the mean.
        let mut squares = [-0.0; L];
        for x in columns() {
            for l in 0..L {
                let d = x[l] - mean[l];
                squares[l] += d * d;
            }
        }

        // Pass 3: the dwell count, one lane at a time (a count has no
        // rounding, so each lane vectorizes on its own).
        Some(std::array::from_fn(|l| {
            let stddev = (squares[l] / len).sqrt();
            let lo = peak[l] - stddev;
            let dwell = lanes[l].iter().filter(|&&x| x >= lo).count();
            SpikeProfile {
                peak: peak[l],
                mean: mean[l],
                stddev,
                dwell_fraction: dwell as f64 / len,
            }
        }))
    }
}

/// Convenience wrapper returning just the dwell fraction (`1.0` for an empty
/// series, which reads as non-negotiable — no evidence of spare headroom).
pub fn spike_dwell_fraction(xs: &[f64]) -> f64 {
    SpikeProfile::measure(xs).map_or(1.0, |p| p.dwell_fraction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::{max, mean, stddev};
    use proptest::prelude::*;

    /// The one-series measurement the lockstep kernel must match to the
    /// bit, straight from the descriptive statistics.
    fn measure_reference(xs: &[f64]) -> Option<SpikeProfile> {
        let peak = max(xs)?;
        let sd = stddev(xs);
        let lo = peak - sd;
        let dwell = xs.iter().filter(|&&x| x >= lo).count() as f64 / xs.len() as f64;
        Some(SpikeProfile { peak, mean: mean(xs), stddev: sd, dwell_fraction: dwell })
    }

    /// Assert every lane of one kernel call equals the reference, field by
    /// field and bit for bit.
    fn assert_lanes_match<const L: usize>(lanes: [&[f64]; L]) {
        let got = SpikeProfile::measure_lanes(lanes);
        let n = lanes[0].len();
        assert_eq!(got.is_none(), n == 0, "n = {n}");
        for (l, xs) in lanes.iter().enumerate() {
            let want = measure_reference(xs);
            let got = got.map(|p| p[l]);
            let bits = |p: Option<SpikeProfile>| {
                p.map(|p| [p.peak, p.mean, p.stddev, p.dwell_fraction].map(f64::to_bits))
            };
            assert_eq!(bits(got), bits(want), "n = {n}, lane {l} of {L}: {got:?} vs {want:?}");
            // The one-lane call is the same kernel.
            assert_eq!(bits(SpikeProfile::measure(xs)), bits(want), "n = {n}, one lane");
        }
    }

    /// Deterministic pseudo-noise in `[-scale / 2, scale / 2)`.
    fn noise(n: usize, seed: usize, scale: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let h = (i + seed).wrapping_mul(2_654_435_761) % 100_003;
                scale * (h as f64 / 100_003.0 - 0.5)
            })
            .collect()
    }

    /// Spikes to `10 × scale` on a floor near `scale`.
    fn spiky(n: usize, seed: usize, scale: f64) -> Vec<f64> {
        noise(n, seed, scale)
            .into_iter()
            .enumerate()
            .map(
                |(i, y)| if (i + seed).is_multiple_of(37) { 10.0 * scale } else { scale + 0.1 * y },
            )
            .collect()
    }

    #[test]
    fn lockstep_lanes_match_the_scalar_measurement() {
        for n in [0, 1, 2, 7, 1008, 2016] {
            let tiny = spiky(n, 1, 1e-3);
            let unit = noise(n, 2, 1.0);
            let big = spiky(n, 3, 1e6);
            let negative: Vec<f64> = spiky(n, 4, 50.0).iter().map(|x| -x).collect();
            let constant = vec![3.25; n];
            let zeros = vec![-0.0; n];
            let signed_zeros: Vec<f64> =
                (0..n).map(|i| if i % 3 == 0 { 0.0 } else { -0.0 }).collect();
            assert_lanes_match([&tiny[..], &unit, &big, &negative]);
            assert_lanes_match([&constant[..], &zeros, &signed_zeros, &big]);
            assert_lanes_match([&zeros[..], &tiny, &constant]);
            assert_lanes_match([&negative[..], &signed_zeros]);
            assert_lanes_match([&unit[..]]);
        }
    }

    proptest! {
        #[test]
        fn random_lanes_match_the_scalar_measurement(
            n in 0usize..300,
            seed in 0usize..1_000_000,
            scales in prop::collection::vec(
                prop::sample::select(vec![1e-3, 0.5, 1.0, 1e3, 1e6]),
                4,
            ),
        ) {
            let lanes: Vec<Vec<f64>> = scales
                .iter()
                .enumerate()
                .map(|(l, &scale)| match (seed + l) % 3 {
                    0 => spiky(n, seed + l, scale),
                    1 => noise(n, seed + l, scale),
                    // Coarse steps, so samples tie with the peak and the
                    // window edge often.
                    _ => noise(n, seed + l, 8.0).iter().map(|y| y.round() * scale).collect(),
                })
                .collect();
            assert_lanes_match([&lanes[0][..], &lanes[1], &lanes[2], &lanes[3]]);
            assert_lanes_match([&lanes[0][..], &lanes[1], &lanes[2]]);
        }
    }

    #[test]
    fn constant_lanes_have_no_spread_and_dwell_everywhere() {
        let a = [2.5; 9];
        let b = [-0.0; 9];
        let [pa, pb] = SpikeProfile::measure_lanes([&a[..], &b]).unwrap();
        assert_eq!((pa.stddev, pa.dwell_fraction), (0.0, 1.0));
        assert_eq!((pb.stddev, pb.dwell_fraction), (0.0, 1.0));
        // `Iterator::sum` starts from -0.0, so an all-(-0.0) series has a
        // negative-zero mean.
        assert!(pb.mean == 0.0 && pb.mean.is_sign_negative());
        assert_lanes_match([&a[..], &b]);
    }

    #[test]
    fn samples_exactly_at_the_window_edge_dwell() {
        // Mean 3, variance 4: the window is [4, 6], and the sample at 4
        // sits exactly on its lower edge.
        let edge = [0.0, 2.0, 3.0, 4.0, 6.0];
        let p = SpikeProfile::measure(&edge).unwrap();
        assert_eq!((p.peak, p.stddev, p.dwell_fraction), (6.0, 2.0, 0.4));
        // Scaled by powers of two, negated and shuffled, the edge stays
        // exact.
        let shifted: Vec<f64> = edge.iter().map(|x| x * 1024.0 - 2048.0).collect();
        let negated = [-6.0, -2.0, 0.0, -4.0, -3.0];
        let shuffled = [4.0, 0.0, 6.0, 3.0, 2.0];
        assert_lanes_match([&edge[..], &shifted, &negated, &shuffled]);
        assert_eq!(SpikeProfile::measure(&negated).unwrap().dwell_fraction, 0.4);
    }

    #[test]
    #[should_panic(expected = "unequal length")]
    fn lanes_of_unequal_length_are_rejected() {
        SpikeProfile::measure_lanes([&[1.0, 2.0][..], &[1.0]]);
    }

    fn spiky_series() -> Vec<f64> {
        // 1% of samples at 100, the rest near 10.
        let mut xs = vec![10.0; 990];
        for slot in 0..10 {
            xs[slot * 99] = 100.0;
        }
        xs
    }

    fn steady_high_series() -> Vec<f64> {
        // Hovers within a few percent of its own max the whole time.
        (0..1000).map(|i| 95.0 + ((i % 7) as f64) * 0.5).collect()
    }

    #[test]
    fn empty_series_yields_none() {
        assert!(SpikeProfile::measure(&[]).is_none());
        assert!(SpikeProfile::measure_lanes([&[][..], &[]]).is_none());
        assert_eq!(spike_dwell_fraction(&[]), 1.0);
    }

    #[test]
    fn constant_series_dwells_forever() {
        // stddev = 0 so the window is [peak, peak]: every sample is inside.
        let p = SpikeProfile::measure(&[50.0; 20]).unwrap();
        assert_eq!(p.dwell_fraction, 1.0);
        // At 7.71853 and 2477.084 the summed mean rounds away from the level
        // (by 9e-14 and 1e-10), so the stddev is not 0; every sample still
        // sits at the peak, inside the window.
        for level in [0.0, 7.71853, 2477.084] {
            assert_eq!(spike_dwell_fraction(&[level; 2016]), 1.0, "level {level}");
        }
    }

    #[test]
    fn rare_short_spikes_are_negotiable() {
        let p = SpikeProfile::measure(&spiky_series()).unwrap();
        assert!(p.dwell_fraction < 0.05, "dwell = {}", p.dwell_fraction);
    }

    #[test]
    fn sustained_high_utilization_is_non_negotiable() {
        // The series cycles within one stddev of its max almost half the
        // time — far above any sensible rho.
        let p = SpikeProfile::measure(&steady_high_series()).unwrap();
        assert!(p.dwell_fraction > 0.2, "dwell = {}", p.dwell_fraction);
    }

    #[test]
    fn peak_and_window_are_reported() {
        let p = SpikeProfile::measure(&spiky_series()).unwrap();
        assert_eq!(p.peak, 100.0);
        assert!(p.stddev > 0.0);
    }

    #[test]
    fn rho_controls_the_decision_boundary() {
        let p = SpikeProfile::measure(&spiky_series()).unwrap();
        // dwell is 1%: negotiable under rho = 5%, non-negotiable under 0.5%
        // (the `dwell < rho` rule of `NegotiabilityStrategy::Thresholding`).
        assert!(p.dwell_fraction < 0.05, "dwell = {}", p.dwell_fraction);
        assert!(p.dwell_fraction >= 0.005, "dwell = {}", p.dwell_fraction);
    }

    #[test]
    fn dwell_fraction_is_a_fraction() {
        for xs in [spiky_series(), steady_high_series(), vec![1.0]] {
            let d = spike_dwell_fraction(&xs);
            assert!((0.0..=1.0).contains(&d));
        }
    }
}
