//! The parametric workload specification the trace generator consumes.
//!
//! Exploratory analysis in the paper (§1) found that "low-level resource
//! statistics are sufficient to capture differences in workload" — so the
//! generator does not model queries at all. Each perf dimension gets a
//! baseline, optional daily seasonality, a linear trend, Gaussian noise,
//! and an optional spike train; those five knobs span every workload shape
//! the evaluation needs (steady, spiky, diurnal, trending, idle).

use std::collections::BTreeMap;

use doppler_telemetry::PerfDimension;

/// A Poisson train of fixed-duration spikes layered on a series.
///
/// For ordinary dimensions a spike *adds* `amplitude`; for the inverted
/// latency dimension a spike *tightens* the requirement by subtracting it
/// (a burst of latency-critical traffic).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpikeTrain {
    /// Expected number of spikes per day.
    pub rate_per_day: f64,
    /// Spike length in samples.
    pub duration_samples: usize,
    /// Height of the spike in the dimension's unit.
    pub amplitude: f64,
}

/// Generation parameters for one perf dimension.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DimensionProfile {
    /// Baseline level, in the dimension's unit.
    pub base: f64,
    /// Standard deviation of per-sample Gaussian noise.
    pub noise_sd: f64,
    /// Amplitude of a 24-hour sine added to the baseline.
    pub diurnal_amplitude: f64,
    /// Linear drift per day (positive = growing demand).
    pub trend_per_day: f64,
    /// Optional spike train.
    pub spike: Option<SpikeTrain>,
    /// Hard floor for generated values (0 for most dimensions; latency
    /// uses a small positive floor since 0 ms is unphysical).
    pub floor: f64,
    /// Optional saturation ceiling. Real perf counters plateau at what the
    /// hardware (or the workload's own concurrency) allows, which is what
    /// makes sustained-high demand dwell near its max — the signature the
    /// thresholding profiler keys on. Pure Gaussian noise never dwells
    /// within one σ of its own extreme value.
    pub ceiling: Option<f64>,
}

impl DimensionProfile {
    /// A flat profile at a constant level — no noise, no structure.
    pub fn constant(level: f64) -> DimensionProfile {
        DimensionProfile {
            base: level,
            noise_sd: 0.0,
            diurnal_amplitude: 0.0,
            trend_per_day: 0.0,
            spike: None,
            floor: 0.0,
            ceiling: None,
        }
    }

    /// A steady profile: level plus mild noise.
    pub fn steady(level: f64, noise_sd: f64) -> DimensionProfile {
        DimensionProfile { noise_sd, ..DimensionProfile::constant(level) }
    }

    /// A saturating profile: steady demand that regularly presses against
    /// a ceiling just above its baseline — the shape of a non-negotiable
    /// dimension (sustained dwell near the max).
    pub fn saturating(level: f64, noise_sd: f64) -> DimensionProfile {
        DimensionProfile {
            ceiling: Some(level + 0.6 * noise_sd),
            ..DimensionProfile::steady(level, noise_sd)
        }
    }

    /// A spiky profile: low base with rare excursions to `base + amplitude`.
    pub fn spiky(
        base: f64,
        amplitude: f64,
        rate_per_day: f64,
        duration_samples: usize,
    ) -> DimensionProfile {
        DimensionProfile {
            base,
            noise_sd: base * 0.05,
            diurnal_amplitude: 0.0,
            trend_per_day: 0.0,
            spike: Some(SpikeTrain { rate_per_day, duration_samples, amplitude }),
            floor: 0.0,
            ceiling: None,
        }
    }

    /// Builder: set the floor.
    pub fn with_floor(mut self, floor: f64) -> DimensionProfile {
        self.floor = floor;
        self
    }

    /// Builder: add daily seasonality.
    pub fn with_diurnal(mut self, amplitude: f64) -> DimensionProfile {
        self.diurnal_amplitude = amplitude;
        self
    }

    /// Builder: add linear drift.
    pub fn with_trend(mut self, per_day: f64) -> DimensionProfile {
        self.trend_per_day = per_day;
        self
    }
}

/// A complete workload: one profile per collected dimension plus the
/// assessment window geometry.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadSpec {
    /// Human-readable label, carried into reports.
    pub name: String,
    /// Assessment duration in days.
    pub days: f64,
    /// Sampling interval, minutes (10 in production).
    pub interval_minutes: u32,
    /// Per-dimension generation profiles.
    pub dims: BTreeMap<PerfDimension, DimensionProfile>,
}

impl WorkloadSpec {
    /// An empty spec over the standard 10-minute interval.
    pub fn new(name: impl Into<String>, days: f64) -> WorkloadSpec {
        WorkloadSpec { name: name.into(), days, interval_minutes: 10, dims: BTreeMap::new() }
    }

    /// Builder: attach a dimension profile.
    pub fn with_dim(mut self, dim: PerfDimension, profile: DimensionProfile) -> WorkloadSpec {
        self.dims.insert(dim, profile);
        self
    }

    /// Number of samples the generated history will contain.
    pub fn samples(&self) -> usize {
        ((self.days * 24.0 * 60.0) / self.interval_minutes as f64).round().max(1.0) as usize
    }

    /// Samples per day at this spec's interval.
    pub fn samples_per_day(&self) -> f64 {
        24.0 * 60.0 / self.interval_minutes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_for_two_weeks_of_ten_minute_data() {
        let s = WorkloadSpec::new("w", 14.0);
        assert_eq!(s.samples(), 14 * 144);
        assert_eq!(s.samples_per_day(), 144.0);
    }

    #[test]
    fn fractional_days_round_to_nearest_sample() {
        let s = WorkloadSpec::new("w", 0.5);
        assert_eq!(s.samples(), 72);
    }

    #[test]
    fn tiny_duration_still_yields_one_sample() {
        let s = WorkloadSpec::new("w", 0.0001);
        assert_eq!(s.samples(), 1);
    }

    #[test]
    fn builders_compose() {
        let p =
            DimensionProfile::steady(4.0, 0.2).with_diurnal(1.0).with_trend(0.1).with_floor(0.5);
        assert_eq!(p.base, 4.0);
        assert_eq!(p.diurnal_amplitude, 1.0);
        assert_eq!(p.trend_per_day, 0.1);
        assert_eq!(p.floor, 0.5);
    }

    #[test]
    fn spiky_profile_carries_its_train() {
        let p = DimensionProfile::spiky(1.0, 9.0, 2.0, 3);
        let t = p.spike.unwrap();
        assert_eq!(t.amplitude, 9.0);
        assert_eq!(t.rate_per_day, 2.0);
        assert_eq!(t.duration_samples, 3);
    }

    #[test]
    fn saturating_profile_caps_just_above_base() {
        let p = DimensionProfile::saturating(10.0, 1.0);
        assert_eq!(p.base, 10.0);
        assert_eq!(p.ceiling, Some(10.6));
    }

    #[test]
    fn with_dim_registers_dimensions() {
        let s = WorkloadSpec::new("w", 1.0)
            .with_dim(PerfDimension::Cpu, DimensionProfile::constant(2.0))
            .with_dim(PerfDimension::Iops, DimensionProfile::constant(100.0));
        assert_eq!(s.dims.len(), 2);
    }
}
