//! The trace generator: [`WorkloadSpec`] → [`PerfHistory`].

use doppler_stats::SeededRng;
use doppler_telemetry::{PerfHistory, TimeSeries};

use crate::spec::{DimensionProfile, WorkloadSpec};

/// The series before spikes and clamps: baseline, trend, daily sine and
/// noise, one noise draw per sample.
///
/// No population dimension has a diurnal cycle, so the sine is skipped when
/// its amplitude is zero. That changes no output bit: the skipped term is
/// `±0.0`, which leaves a non-zero level as it is and can only flip the
/// sign of a zero one, and the noise added next is never `-0.0` (it is
/// `0.0 + sd × z`, or `0.0` itself), so a zero sum comes out `+0.0`
/// either way.
fn levels(
    profile: &DimensionProfile,
    n: usize,
    samples_per_day: f64,
    rng: &mut SeededRng,
) -> Vec<f64> {
    let mut values = Vec::with_capacity(n);
    for t in 0..n {
        let day = t as f64 / samples_per_day;
        let mut level = profile.base + profile.trend_per_day * day;
        if profile.diurnal_amplitude != 0.0 {
            level += profile.diurnal_amplitude
                * (2.0 * std::f64::consts::PI * (t as f64) / samples_per_day).sin();
        }
        let noise =
            if profile.noise_sd > 0.0 { rng.normal_with(0.0, profile.noise_sd) } else { 0.0 };
        values.push(level + noise);
    }
    values
}

/// Generate one dimension's series.
fn generate_dimension(
    profile: &DimensionProfile,
    inverted: bool,
    n: usize,
    samples_per_day: f64,
    rng: &mut SeededRng,
) -> Vec<f64> {
    let mut values = levels(profile, n, samples_per_day, rng);

    // Overlay the spike train: Poisson arrivals, fixed duration.
    if let Some(train) = profile.spike {
        if train.rate_per_day > 0.0 && train.duration_samples > 0 {
            let p_start = train.rate_per_day / samples_per_day;
            let mut t = 0;
            while t < n {
                if rng.chance(p_start) {
                    let end = (t + train.duration_samples).min(n);
                    for v in values.iter_mut().take(end).skip(t) {
                        if inverted {
                            // Latency spike: a burst of latency-critical
                            // traffic *tightens* the requirement.
                            *v -= train.amplitude;
                        } else {
                            *v += train.amplitude;
                        }
                    }
                    t = end;
                } else {
                    t += 1;
                }
            }
        }
    }

    for v in &mut values {
        if let Some(cap) = profile.ceiling {
            if *v > cap {
                *v = cap;
            }
        }
        if *v < profile.floor {
            *v = profile.floor;
        }
    }
    values
}

/// Generate the full perf history for a spec, deterministically from the
/// seed. Dimensions generate in canonical order so the draw sequence is
/// stable run-to-run.
pub fn generate(spec: &WorkloadSpec, seed: u64) -> PerfHistory {
    let n = spec.samples();
    let per_day = spec.samples_per_day();
    let mut root = SeededRng::new(seed);
    let mut history = PerfHistory::new();
    for (dim, profile) in &spec.dims {
        let mut rng = root.fork(*dim as u64 + 1);
        let values = generate_dimension(profile, dim.inverted(), n, per_day, &mut rng);
        history.insert(*dim, TimeSeries::new(spec.interval_minutes, values));
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_stats::descriptive::{max, mean, min};
    use doppler_telemetry::PerfDimension;

    use crate::spec::{DimensionProfile, SpikeTrain};

    fn base_spec() -> WorkloadSpec {
        WorkloadSpec::new("test", 7.0)
            .with_dim(PerfDimension::Cpu, DimensionProfile::steady(2.0, 0.1))
    }

    /// [`levels`] as first written, with the sine computed for every
    /// sample: the oracle the zero-amplitude skip must equal bit for bit.
    fn levels_reference(
        profile: &DimensionProfile,
        n: usize,
        samples_per_day: f64,
        rng: &mut SeededRng,
    ) -> Vec<f64> {
        let mut values = Vec::with_capacity(n);
        for t in 0..n {
            let day = t as f64 / samples_per_day;
            let diurnal = profile.diurnal_amplitude
                * (2.0 * std::f64::consts::PI * (t as f64) / samples_per_day).sin();
            let noise =
                if profile.noise_sd > 0.0 { rng.normal_with(0.0, profile.noise_sd) } else { 0.0 };
            values.push(profile.base + profile.trend_per_day * day + diurnal + noise);
        }
        values
    }

    #[test]
    fn skipping_a_zero_diurnal_term_changes_no_bit() {
        let mut draw = SeededRng::new(41);
        for case in 0..400 {
            // Zero and negative-zero bases, negative and zero trends, and
            // zero noise are all common.
            let pick = |draw: &mut SeededRng, options: &[f64]| options[draw.index(options.len())];
            let scale = pick(&mut draw, &[1e-3, 1.0, 500.0]);
            // Zero, negative zero, or a signed value at the case's scale.
            let signed = |draw: &mut SeededRng| {
                let value = scale * draw.range(-1.0, 1.0);
                pick(draw, &[0.0, -0.0, value])
            };
            let noise = scale * draw.range(0.0, 0.1);
            let profile = DimensionProfile {
                base: signed(&mut draw),
                noise_sd: pick(&mut draw, &[0.0, noise]),
                // Mostly zero amplitudes, the case the skip takes.
                diurnal_amplitude: if draw.chance(0.75) { 0.0 } else { signed(&mut draw) },
                trend_per_day: signed(&mut draw),
                ..DimensionProfile::constant(0.0)
            };
            let n = pick(&mut draw, &[0.0, 1.0, 144.0, 2016.0]) as usize;
            let per_day = pick(&mut draw, &[24.0, 144.0]);
            let seed = draw.index(1_000_000) as u64;
            let got = levels(&profile, n, per_day, &mut SeededRng::new(seed));
            let want = levels_reference(&profile, n, per_day, &mut SeededRng::new(seed));
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "case {case}: {profile:?}, n = {n}");
        }
    }

    #[test]
    fn output_has_spec_geometry() {
        let h = generate(&base_spec(), 1);
        assert_eq!(h.len(), 7 * 144);
        assert_eq!(h.interval_minutes(), 10);
        assert_eq!(h.dimensions(), vec![PerfDimension::Cpu]);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&base_spec(), 99);
        let b = generate(&base_spec(), 99);
        assert_eq!(a, b);
        let c = generate(&base_spec(), 100);
        assert_ne!(a, c);
    }

    #[test]
    fn steady_profile_stays_near_base() {
        let h = generate(&base_spec(), 5);
        let vals = h.values(PerfDimension::Cpu).unwrap();
        assert!((mean(vals) - 2.0).abs() < 0.05);
        assert!(max(vals).unwrap() < 3.0);
        assert!(min(vals).unwrap() > 1.0);
    }

    #[test]
    fn constant_profile_is_exactly_constant() {
        let spec = WorkloadSpec::new("c", 1.0)
            .with_dim(PerfDimension::Memory, DimensionProfile::constant(16.0));
        let h = generate(&spec, 3);
        assert!(h.values(PerfDimension::Memory).unwrap().iter().all(|&v| v == 16.0));
    }

    #[test]
    fn spikes_appear_and_are_rare() {
        let spec = WorkloadSpec::new("s", 14.0)
            .with_dim(PerfDimension::Cpu, DimensionProfile::spiky(1.0, 10.0, 1.0, 2));
        let h = generate(&spec, 7);
        let vals = h.values(PerfDimension::Cpu).unwrap();
        let spiked = vals.iter().filter(|&&v| v > 6.0).count();
        assert!(spiked > 0, "no spikes generated");
        // ~14 expected spikes x 2 samples out of 2016 samples: well under 5%.
        assert!((spiked as f64) < 0.05 * vals.len() as f64, "spikes too frequent: {spiked}");
    }

    #[test]
    fn latency_spikes_tighten_downward() {
        let spec = WorkloadSpec::new("l", 14.0).with_dim(
            PerfDimension::IoLatency,
            DimensionProfile {
                base: 6.0,
                noise_sd: 0.0,
                diurnal_amplitude: 0.0,
                trend_per_day: 0.0,
                spike: Some(SpikeTrain { rate_per_day: 2.0, duration_samples: 3, amplitude: 5.0 }),
                floor: 0.5,
                ceiling: None,
            },
        );
        let h = generate(&spec, 11);
        let vals = h.values(PerfDimension::IoLatency).unwrap();
        assert!(vals.iter().any(|&v| v < 2.0), "latency requirement never tightened");
        assert!(vals.iter().all(|&v| v >= 0.5), "floor violated");
    }

    #[test]
    fn diurnal_cycle_shows_daily_period() {
        let spec = WorkloadSpec::new("d", 4.0)
            .with_dim(PerfDimension::Cpu, DimensionProfile::constant(10.0).with_diurnal(4.0));
        let h = generate(&spec, 2);
        let vals = h.values(PerfDimension::Cpu).unwrap();
        // Peak near sample 36 (6 h), trough near sample 108 (18 h).
        assert!(vals[36] > 13.0);
        assert!(vals[108] < 7.0);
        // One day later the phase repeats.
        assert!((vals[36] - vals[36 + 144]).abs() < 1e-9);
    }

    #[test]
    fn trend_grows_demand_across_days() {
        let spec = WorkloadSpec::new("t", 10.0)
            .with_dim(PerfDimension::Iops, DimensionProfile::constant(100.0).with_trend(50.0));
        let h = generate(&spec, 2);
        let vals = h.values(PerfDimension::Iops).unwrap();
        let first_day = mean(&vals[..144]);
        let last_day = mean(&vals[vals.len() - 144..]);
        assert!(last_day - first_day > 400.0, "trend too weak: {first_day} -> {last_day}");
    }

    #[test]
    fn floor_clamps_noise_excursions() {
        let spec = WorkloadSpec::new("f", 2.0)
            .with_dim(PerfDimension::Cpu, DimensionProfile::steady(0.1, 1.0));
        let h = generate(&spec, 13);
        assert!(h.values(PerfDimension::Cpu).unwrap().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn multi_dimension_histories_are_aligned() {
        let spec = WorkloadSpec::new("m", 3.0)
            .with_dim(PerfDimension::Cpu, DimensionProfile::steady(2.0, 0.1))
            .with_dim(PerfDimension::Iops, DimensionProfile::steady(500.0, 20.0))
            .with_dim(PerfDimension::Memory, DimensionProfile::constant(8.0));
        let h = generate(&spec, 17);
        assert_eq!(h.dimensions().len(), 3);
        assert_eq!(h.len(), 3 * 144);
    }
}
