//! The negotiability summarizers of §3.3.
//!
//! Each strategy collapses one perf dimension's time series into (a) a
//! continuous *weight* — higher means more negotiable — used as a
//! clustering feature, and (b) a boolean *bit* (1 = negotiable in the
//! paper's Table 3 notation is 0; we use `true` = negotiable and render at
//! the edges). Six strategies are compared in Table 4; production ships
//! the thresholding algorithm "for its transparent interpretation and high
//! performance".

use std::ops::Range;

use doppler_stats::spike::LANES;
use doppler_stats::{
    max_scaled_auc, minmax_scaled_auc, outlier_fraction, spike_dwell_fraction, stl_decompose,
    SpikeProfile,
};
use doppler_telemetry::{PerfDimension, PerfHistory};

/// A negotiability summarizer (§3.3, Table 4).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum NegotiabilityStrategy {
    /// The production thresholding algorithm: measure the fraction of the
    /// assessment spent within one standard deviation of the max; a
    /// dimension dwelling less than `rho` is negotiable.
    Thresholding {
        /// Dwell-fraction threshold ρ (tuned by sensitivity analysis;
        /// default 0.05).
        rho: f64,
    },
    /// Area under the ECDF of the min-max-scaled series; high AUC =
    /// transient spiky usage = negotiable.
    MinMaxScalerAuc {
        /// AUC above this is negotiable.
        cut: f64,
    },
    /// Same with max scaling only — "better identifies large spikes".
    MaxScalerAuc { cut: f64 },
    /// Fraction of samples ≥ 3σ from the mean; spiky usage shows outliers.
    OutlierPercentage {
        /// Outlier fraction above this is negotiable.
        cut: f64,
    },
    /// STL variance decomposition: score `max(0, 1 − var(I)/var(R))`; low
    /// explained variance = erratic spikes = negotiable.
    StlVarianceDecomposition {
        /// Samples per season (144 = daily at 10-minute sampling).
        period: usize,
        /// Explained variance below this is negotiable.
        cut: f64,
    },
    /// MinMax AUC features concatenated with thresholding features — the
    /// "adjusted with timeseries" row of Table 4. Bits follow thresholding.
    MinMaxAucWithThresholding { rho: f64, cut: f64 },
}

impl NegotiabilityStrategy {
    /// The production default. The paper tunes ρ by sensitivity analysis
    /// without stating the value; 0.08 keeps a per-dimension tolerance of
    /// 5 % (plus its sampling noise) safely classified as negotiable while
    /// saturated demand (dwell ≳ 30 %) stays non-negotiable.
    pub fn production() -> NegotiabilityStrategy {
        NegotiabilityStrategy::Thresholding { rho: 0.08 }
    }

    /// All six strategies at their evaluation settings, in Table 4 row
    /// order.
    pub fn table4_lineup() -> Vec<(&'static str, NegotiabilityStrategy)> {
        vec![
            ("MinMax Scaler AUC", NegotiabilityStrategy::MinMaxScalerAuc { cut: 0.75 }),
            ("Max Scaler AUC", NegotiabilityStrategy::MaxScalerAuc { cut: 0.70 }),
            ("Thresholding Algorithm", NegotiabilityStrategy::Thresholding { rho: 0.08 }),
            ("Outlier percentage", NegotiabilityStrategy::OutlierPercentage { cut: 0.004 }),
            (
                "STL Variance Decomposition",
                NegotiabilityStrategy::StlVarianceDecomposition { period: 144, cut: 0.55 },
            ),
            (
                "MinMax Scaler AUC adjusted with timeseries",
                NegotiabilityStrategy::MinMaxAucWithThresholding { rho: 0.08, cut: 0.75 },
            ),
        ]
    }

    /// One dimension's negotiability profile: the continuous weight(s) —
    /// every weight in `[0, 1]`, higher = more negotiable; most strategies
    /// emit one, the combined strategy two — and the boolean bit. Each
    /// strategy's statistic is computed once and feeds both.
    pub fn dimension_profile(&self, values: &[f64]) -> (Vec<f64>, bool) {
        let mut weights = Vec::with_capacity(self.weights_per_dimension());
        let dwell = self.thresholds().then(|| spike_dwell_fraction(values));
        let bit = self.push_dimension(values, dwell, &mut weights);
        (weights, bit)
    }

    /// Append one present dimension's weight(s) to `weights` and return its
    /// bit. `dwell` is the dimension's [`spike_dwell_fraction`], measured
    /// by the caller when [`thresholds`](Self::thresholds).
    fn push_dimension(&self, values: &[f64], dwell: Option<f64>, weights: &mut Vec<f64>) -> bool {
        let dwell = || dwell.expect("thresholding strategies are handed the dwell fraction");
        match *self {
            NegotiabilityStrategy::Thresholding { rho } => {
                let dwell = dwell();
                weights.push(1.0 - dwell);
                dwell < rho
            }
            NegotiabilityStrategy::MinMaxScalerAuc { cut } => {
                let auc = minmax_scaled_auc(values);
                weights.push(auc);
                auc > cut
            }
            NegotiabilityStrategy::MaxScalerAuc { cut } => {
                let auc = max_scaled_auc(values);
                weights.push(auc);
                auc > cut
            }
            NegotiabilityStrategy::OutlierPercentage { cut } => {
                let fraction = outlier_fraction(values, 3.0);
                // Outlier fractions live near 0; stretch them so clustering
                // sees the contrast (3σ outliers cap out around a few %).
                weights.push((fraction * 25.0).min(1.0));
                fraction > cut
            }
            NegotiabilityStrategy::StlVarianceDecomposition { period, cut } => {
                let explained = stl_decompose(values, period)
                    .map(|d| d.variance_explained())
                    // Short series: fall back to "unstructured".
                    .unwrap_or(0.0);
                weights.push(1.0 - explained);
                explained < cut
            }
            NegotiabilityStrategy::MinMaxAucWithThresholding { rho, .. } => {
                let dwell = dwell();
                weights.extend([minmax_scaled_auc(values), 1.0 - dwell]);
                dwell < rho
            }
        }
    }

    /// Whether the strategy reads the thresholding dwell fraction.
    fn thresholds(&self) -> bool {
        matches!(
            self,
            NegotiabilityStrategy::Thresholding { .. }
                | NegotiabilityStrategy::MinMaxAucWithThresholding { .. }
        )
    }

    /// Weight and bit vectors across the profiled dimensions: Eq. 2's
    /// `w_CPU, w_RAM, …` and the `<0,0,1,1>`-style bits of §5.2.1. Missing
    /// dimensions read as non-negotiable (weight 0, bit false) — absence of
    /// evidence is not permission to throttle. The
    /// [`profile_range`](Self::profile_range) of the whole history.
    pub fn profile(&self, history: &PerfHistory, dims: &[PerfDimension]) -> (Vec<f64>, Vec<bool>) {
        self.profile_range(history, dims, 0..history.len())
    }

    /// [`profile`](Self::profile) of the samples in `range` alone: equal,
    /// bit for bit, to profiling `history.window(range.start, range.end)`,
    /// but it reads the range in place, copies nothing and skips the
    /// unprofiled dimensions. The §3.4 confidence bootstrap profiles each
    /// window this way. Panics when `range` runs past the history.
    ///
    /// The thresholding dwell fractions of up to [`LANES`] dimensions are
    /// measured together by [`SpikeProfile::measure_lanes`], which keeps
    /// every dimension's sums in their own lane.
    pub fn profile_range(
        &self,
        history: &PerfHistory,
        dims: &[PerfDimension],
        range: Range<usize>,
    ) -> (Vec<f64>, Vec<bool>) {
        let mut weights = Vec::with_capacity(dims.len() * self.weights_per_dimension());
        let mut bits = Vec::with_capacity(dims.len());
        for chunk in dims.chunks(LANES) {
            let series: [Option<&[f64]>; LANES] = std::array::from_fn(|l| {
                let values = history.values(*chunk.get(l)?)?;
                Some(&values[range.clone()])
            });
            let dwell = self.thresholds().then(|| dwell_lanes(series));
            for (l, values) in series[..chunk.len()].iter().enumerate() {
                match values {
                    Some(values) => {
                        bits.push(self.push_dimension(values, dwell.map(|d| d[l]), &mut weights))
                    }
                    None => {
                        weights.extend(std::iter::repeat_n(0.0, self.weights_per_dimension()));
                        bits.push(false);
                    }
                }
            }
        }
        (weights, bits)
    }

    /// The weight half of [`profile`](NegotiabilityStrategy::profile).
    pub fn weights(&self, history: &PerfHistory, dims: &[PerfDimension]) -> Vec<f64> {
        self.profile(history, dims).0
    }

    /// The bit half of [`profile`](NegotiabilityStrategy::profile).
    pub fn bits(&self, history: &PerfHistory, dims: &[PerfDimension]) -> Vec<bool> {
        self.profile(history, dims).1
    }

    /// Number of weights emitted per dimension (2 for the combined
    /// strategy, 1 otherwise).
    pub fn weights_per_dimension(&self) -> usize {
        match self {
            NegotiabilityStrategy::MinMaxAucWithThresholding { .. } => 2,
            _ => 1,
        }
    }
}

/// The [`spike_dwell_fraction`] of every present series, measured in one
/// lockstep call: an absent lane borrows a present series and is ignored.
fn dwell_lanes(series: [Option<&[f64]>; LANES]) -> [f64; LANES] {
    let Some(&present) = series.iter().flatten().next() else {
        return [1.0; LANES];
    };
    let lanes = series.map(|s| s.unwrap_or(present));
    SpikeProfile::measure_lanes(lanes).map_or([1.0; LANES], |lanes| lanes.map(|p| p.dwell_fraction))
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_telemetry::TimeSeries;

    /// 2016 samples (14 days): rare short spikes to 10 over a floor of 1.
    fn spiky() -> Vec<f64> {
        let mut v = vec![1.0; 2016];
        for i in (0..2016).step_by(150) {
            v[i] = 10.0;
            v[i + 1] = 10.0;
        }
        v
    }

    /// Steady demand pressing against a saturation plateau.
    fn saturated() -> Vec<f64> {
        (0..2016)
            .map(|i| {
                let noise = ((i * 2_654_435_761_usize) % 1000) as f64 / 1000.0;
                (8.0 + noise).min(8.6)
            })
            .collect()
    }

    #[test]
    fn every_strategy_calls_spiky_negotiable() {
        for (name, s) in NegotiabilityStrategy::table4_lineup() {
            assert!(s.dimension_profile(&spiky()).1, "{name} missed the spiky series");
        }
    }

    #[test]
    fn thresholding_calls_saturated_non_negotiable() {
        assert!(!NegotiabilityStrategy::production().dimension_profile(&saturated()).1);
    }

    #[test]
    fn auc_strategies_separate_spiky_from_saturated() {
        for s in [
            NegotiabilityStrategy::MinMaxScalerAuc { cut: 0.75 },
            NegotiabilityStrategy::MaxScalerAuc { cut: 0.70 },
        ] {
            let w_spiky = s.dimension_profile(&spiky()).0[0];
            let w_sat = s.dimension_profile(&saturated()).0[0];
            assert!(w_spiky > w_sat, "{s:?}: {w_spiky} !> {w_sat}");
        }
    }

    #[test]
    fn outlier_strategy_sees_three_sigma_spikes() {
        let s = NegotiabilityStrategy::OutlierPercentage { cut: 0.004 };
        assert!(s.dimension_profile(&spiky()).1);
        assert!(!s.dimension_profile(&saturated()).1);
    }

    #[test]
    fn stl_strategy_calls_diurnal_structure_non_negotiable() {
        // A clean daily cycle is fully explained by seasonality: the
        // customer really does need that capacity every day.
        let diurnal: Vec<f64> = (0..2016)
            .map(|i| 5.0 + 3.0 * (2.0 * std::f64::consts::PI * i as f64 / 144.0).sin())
            .collect();
        let s = NegotiabilityStrategy::StlVarianceDecomposition { period: 144, cut: 0.55 };
        assert!(!s.dimension_profile(&diurnal).1);
        assert!(s.dimension_profile(&spiky()).1);
    }

    #[test]
    fn weights_are_unit_interval() {
        for (_, s) in NegotiabilityStrategy::table4_lineup() {
            for series in [spiky(), saturated()] {
                for w in s.dimension_profile(&series).0 {
                    assert!((0.0..=1.0).contains(&w), "{s:?} weight {w}");
                }
            }
        }
    }

    #[test]
    fn combined_strategy_emits_two_weights_per_dimension() {
        let s = NegotiabilityStrategy::MinMaxAucWithThresholding { rho: 0.05, cut: 0.75 };
        assert_eq!(s.weights_per_dimension(), 2);
        assert_eq!(s.dimension_profile(&spiky()).0.len(), 2);
    }

    #[test]
    fn combined_strategy_calls_a_flat_series_non_negotiable() {
        // MinMax AUC reads a flat series as 1; the thresholding dwell is 1,
        // so its weight is 0 and the dwell rule calls it non-negotiable.
        let s = NegotiabilityStrategy::MinMaxAucWithThresholding { rho: 0.08, cut: 0.75 };
        for level in [0.0, 7.71853, 2477.084] {
            assert_eq!(s.dimension_profile(&[level; 2016]), (vec![1.0, 0.0], false), "{level}");
        }
    }

    #[test]
    fn history_level_bits_follow_dimension_order() {
        let h = PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(spiky()))
            .with(PerfDimension::Memory, TimeSeries::ten_minute(saturated()));
        let bits = NegotiabilityStrategy::production()
            .bits(&h, &[PerfDimension::Cpu, PerfDimension::Memory]);
        assert_eq!(bits, vec![true, false]);
    }

    #[test]
    fn missing_dimension_reads_non_negotiable() {
        let h = PerfHistory::new().with(PerfDimension::Cpu, TimeSeries::ten_minute(spiky()));
        let s = NegotiabilityStrategy::production();
        let bits = s.bits(&h, &[PerfDimension::Cpu, PerfDimension::Iops]);
        assert_eq!(bits, vec![true, false]);
        let w = s.weights(&h, &[PerfDimension::Cpu, PerfDimension::Iops]);
        assert_eq!(w.len(), 2);
        assert_eq!(w[1], 0.0);
    }

    /// The profile of one series straight from the `doppler_stats`
    /// summaries, independent of [`NegotiabilityStrategy::dimension_profile`].
    fn reference(strategy: NegotiabilityStrategy, v: &[f64]) -> (Vec<f64>, bool) {
        let dwell = spike_dwell_fraction(v);
        let minmax = minmax_scaled_auc(v);
        match strategy {
            NegotiabilityStrategy::Thresholding { rho } => (vec![1.0 - dwell], dwell < rho),
            NegotiabilityStrategy::MinMaxScalerAuc { cut } => (vec![minmax], minmax > cut),
            NegotiabilityStrategy::MaxScalerAuc { cut } => {
                (vec![max_scaled_auc(v)], max_scaled_auc(v) > cut)
            }
            NegotiabilityStrategy::OutlierPercentage { cut } => {
                let fraction = outlier_fraction(v, 3.0);
                (vec![(fraction * 25.0).min(1.0)], fraction > cut)
            }
            NegotiabilityStrategy::StlVarianceDecomposition { period, cut } => {
                let explained = stl_decompose(v, period).map_or(0.0, |d| d.variance_explained());
                (vec![1.0 - explained], explained < cut)
            }
            NegotiabilityStrategy::MinMaxAucWithThresholding { rho, .. } => {
                (vec![minmax, 1.0 - dwell], dwell < rho)
            }
        }
    }

    #[test]
    fn profile_matches_the_stats_summaries_for_every_strategy() {
        const DAYS: usize = 3 * 144; // long enough for STL at a daily period
        let dims = [PerfDimension::Cpu, PerfDimension::Memory, PerfDimension::Iops];
        let diurnal: Vec<f64> = (0..DAYS)
            .map(|i| 5.0 + 3.0 * (2.0 * std::f64::consts::PI * i as f64 / 144.0).sin())
            .collect();
        let full = PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(spiky()[..DAYS].to_vec()))
            .with(PerfDimension::Memory, TimeSeries::ten_minute(saturated()[..DAYS].to_vec()))
            .with(PerfDimension::Iops, TimeSeries::ten_minute(diurnal.clone()));
        let missing = PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(spiky()[..DAYS].to_vec()))
            .with(PerfDimension::Iops, TimeSeries::ten_minute(diurnal));
        // 96 samples: shorter than two STL seasons, so STL falls back.
        let short = PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(spiky()[..96].to_vec()))
            .with(PerfDimension::Memory, TimeSeries::ten_minute(saturated()[..96].to_vec()))
            .with(PerfDimension::Iops, TimeSeries::ten_minute(vec![3.0; 96]));
        for (name, s) in NegotiabilityStrategy::table4_lineup() {
            for history in [&full, &missing, &short] {
                let mut want = (Vec::new(), Vec::new());
                for dim in dims {
                    let (w, bit) = match history.values(dim) {
                        Some(v) => reference(s, v),
                        None => (vec![0.0; s.weights_per_dimension()], false),
                    };
                    want.0.extend(w);
                    want.1.push(bit);
                }
                let got = s.profile(history, &dims);
                assert_eq!(got, want, "{name}");
                assert_eq!(s.weights(history, &dims), want.0, "{name}");
                assert_eq!(s.bits(history, &dims), want.1, "{name}");
            }
            if let NegotiabilityStrategy::StlVarianceDecomposition { .. } = s {
                // The fallback reads "unstructured": weight 1 on every
                // present dimension.
                assert_eq!(s.weights(&short, &dims), vec![1.0; 3]);
            }
        }
        // The missing dimension profiles as weight 0, bit false.
        let s = NegotiabilityStrategy::MinMaxAucWithThresholding { rho: 0.08, cut: 0.75 };
        let (w, bits) = s.profile(&missing, &dims);
        assert_eq!((&w[2..4], bits[1]), (&[0.0, 0.0][..], false));
    }

    #[test]
    fn empty_series_is_non_negotiable_under_production() {
        assert!(!NegotiabilityStrategy::production().dimension_profile(&[]).1);
    }
}
