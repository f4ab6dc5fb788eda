//! The §5.2.3 SKU-change scenario (Figure 11), generalized to a
//! parametric [`DriftSpec`].
//!
//! "the customer initially was using SQL DB GP 2 cores, but switched to SQL
//! DB BC 6 cores. Doppler is able to pick up the need for this change as
//! shown by the price-performance curves generated before (dotted line) and
//! after (solid line) the transition. If the customer had stuck to the
//! original SKU choice of GP 2 cores, they would experience significant
//! throttling (>40%)."
//!
//! A [`DriftSpec`] describes a workload whose demand changes at an onset
//! day, and generates its two telemetry windows, before and after the
//! onset. It sets the *direction* of the change (grow or shrink), the
//! *magnitude* (demand ratio between the big and small phase; `1.0` means
//! no change at all — the control cohort), and whether the big phase is
//! latency-critical (only Business Critical SKUs host it). The original
//! [`drift_scenario`] — the Figure 11 shape — is a thin wrapper over
//! [`DriftSpec::figure11`]. Fleet drift tests inject per-cohort drift by
//! varying the spec per region and feeding [`DriftScenario::before`] as
//! each customer's baseline window and [`DriftScenario::after`] as its
//! fresh telemetry.

use doppler_telemetry::{PerfDimension, PerfHistory};

use crate::generate::generate;
use crate::spec::{DimensionProfile, WorkloadSpec};

/// A workload whose resource needs changed mid-assessment.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftScenario {
    /// The telemetry before the change.
    pub before: PerfHistory,
    /// The telemetry after the change.
    pub after: PerfHistory,
}

/// Which way demand moves at the onset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DriftDirection {
    /// Small before the onset, `magnitude` times bigger after it — the
    /// Figure 11 customer.
    Grow,
    /// Big before the onset, shrinking to the base scale after it — the
    /// right-sizing mirror image.
    Shrink,
}

/// Parametric SKU-change scenario: one knob per §5.2.3 degree of freedom.
///
/// # Example
///
/// ```
/// use doppler_workload::{DriftDirection, DriftSpec};
///
/// // A workload that quadruples on day 3 of a 7-day window.
/// let spec = DriftSpec {
///     direction: DriftDirection::Grow,
///     days: 7.0,
///     onset_day: 3.0,
///     magnitude: 4.0,
///     ..DriftSpec::default()
/// };
/// let scenario = spec.scenario(17);
/// assert_eq!(scenario.before.len(), 3 * 144);
/// assert_eq!(scenario.after.len(), 4 * 144);
/// // magnitude 1.0 is the control: statistically identical phases.
/// let control = DriftSpec { magnitude: 1.0, ..spec };
/// assert_eq!(control.scenario(17).after.len(), 4 * 144);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DriftSpec {
    pub direction: DriftDirection,
    /// Total window length, days.
    pub days: f64,
    /// Day the change hits, where `before` ends and `after` begins
    /// (clamped into `[0, days]`).
    pub onset_day: f64,
    /// Demand ratio big-phase / small-phase (`1.0` = no injected drift).
    pub magnitude: f64,
    /// Small-phase scale in GP-2-vCore-ish units (`1.0` reproduces the
    /// Figure 11 before-phase).
    pub base_scale: f64,
    /// Whether the big phase is latency-critical — sub-millisecond IO that
    /// only Business Critical SKUs host (Figure 11: yes). Ignored when
    /// `magnitude == 1.0` (there is no big phase).
    pub latency_critical: bool,
}

impl Default for DriftSpec {
    /// The Figure 11 shape over a 14-day window: grow ~4× at day 7 into a
    /// latency-critical workload.
    fn default() -> DriftSpec {
        DriftSpec::figure11(7.0)
    }
}

impl DriftSpec {
    /// The Figure 11 scenario geometry: `days` of GP-2-sized demand
    /// followed by `days` of BC-6-sized, latency-critical demand.
    pub fn figure11(days: f64) -> DriftSpec {
        DriftSpec {
            direction: DriftDirection::Grow,
            days: 2.0 * days,
            onset_day: days,
            magnitude: 25.0 / 6.0,
            base_scale: 1.0,
            latency_critical: true,
        }
    }

    /// A control spec of the same geometry with no injected drift: both
    /// phases at the base scale, latency-tolerant throughout.
    pub fn control(self) -> DriftSpec {
        DriftSpec { magnitude: 1.0, latency_critical: false, ..self }
    }

    /// Generate the scenario, deterministic in `(self, seed)`.
    pub fn scenario(&self, seed: u64) -> DriftScenario {
        let onset = self.onset_day.clamp(0.0, self.days);
        let magnitude = self.magnitude.max(0.0);
        let drifts = magnitude != 1.0;
        let (scale_before, scale_after) = match self.direction {
            DriftDirection::Grow => (self.base_scale, self.base_scale * magnitude),
            DriftDirection::Shrink => (self.base_scale * magnitude, self.base_scale),
        };
        let big_is_after = scale_after >= scale_before;
        let before_spec = self.phase_spec(
            "before-change",
            onset,
            scale_before,
            drifts && self.latency_critical && !big_is_after,
        );
        let after_spec = self.phase_spec(
            "after-change",
            self.days - onset,
            scale_after,
            drifts && self.latency_critical && big_is_after,
        );

        DriftScenario {
            before: generate(&before_spec, seed),
            after: generate(&after_spec, seed ^ 0xD1F7),
        }
    }

    /// One phase's workload spec at `scale`. At scale 1.0 this is the
    /// Figure 11 before-phase (fits a GP 2-core SKU: 2 vCores, 10.4 GB,
    /// 640 IOPS, 5 ms); latency-critical phases demand sub-GP latency that
    /// only a Business Critical SKU offers.
    fn phase_spec(
        &self,
        name: &str,
        days: f64,
        scale: f64,
        latency_critical: bool,
    ) -> WorkloadSpec {
        // Critical latency sits between BC's 1 ms floor and GP's 5 ms —
        // satisfiable, but only by Business Critical (the floor keeps it
        // satisfiable: nothing on Azure beats 1 ms). The tolerant profile
        // floors just *above* GP's 5 ms: a 5σ noise dip below the GP
        // boundary would otherwise flip a zero-tolerance selection on a
        // single sample, injecting phantom drift into control cohorts.
        let latency = if latency_critical {
            DimensionProfile::steady(1.3, 0.05).with_floor(1.05)
        } else {
            DimensionProfile::steady(6.0, 0.2).with_floor(5.05)
        };
        // CPU noise stays at 5 % of the mean: the Figure 11 after-phase
        // runs at 5.0 vCores, and a noisier ratio would push stray samples
        // past BC 6's 6-vCore cap, bumping the paper's BC_6 landing spot
        // to BC_8 under zero-tolerance selection.
        WorkloadSpec::new(name, days)
            .with_dim(PerfDimension::Cpu, DimensionProfile::steady(1.2 * scale, 0.06 * scale))
            .with_dim(PerfDimension::Memory, DimensionProfile::steady(6.0 * scale, 0.3 * scale))
            .with_dim(PerfDimension::Iops, DimensionProfile::steady(380.0 * scale, 30.0 * scale))
            .with_dim(PerfDimension::IoLatency, latency)
            .with_dim(PerfDimension::LogRate, DimensionProfile::steady(4.0 * scale, 0.3 * scale))
            .with_dim(PerfDimension::Storage, DimensionProfile::constant(100.0 + 20.0 * scale))
    }
}

/// Build the Figure 11 scenario: `days` of GP-2-sized demand followed by
/// `days` of BC-6-sized, latency-critical demand. Thin wrapper over
/// [`DriftSpec::figure11`].
pub fn drift_scenario(days: f64, seed: u64) -> DriftScenario {
    DriftSpec::figure11(days).scenario(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_stats::descriptive::mean;

    #[test]
    fn change_point_splits_evenly() {
        let s = drift_scenario(7.0, 1);
        assert_eq!(s.before.len(), 7 * 144);
        assert_eq!(s.after.len(), 7 * 144);
        assert_eq!(s.before.dimensions(), s.after.dimensions());
    }

    #[test]
    fn demand_steps_up_after_change() {
        let s = drift_scenario(5.0, 2);
        let cpu_before = mean(s.before.values(PerfDimension::Cpu).unwrap());
        let cpu_after = mean(s.after.values(PerfDimension::Cpu).unwrap());
        assert!(cpu_after > 3.0 * cpu_before, "{cpu_before} -> {cpu_after}");
    }

    #[test]
    fn latency_tightens_after_change() {
        let s = drift_scenario(5.0, 3);
        let lat_before = mean(s.before.values(PerfDimension::IoLatency).unwrap());
        let lat_after = mean(s.after.values(PerfDimension::IoLatency).unwrap());
        assert!(lat_before > 5.0);
        assert!(lat_after < 1.5);
    }

    #[test]
    fn scenario_is_deterministic() {
        assert_eq!(drift_scenario(3.0, 9), drift_scenario(3.0, 9));
        let spec = DriftSpec { magnitude: 2.5, ..DriftSpec::figure11(2.0) };
        assert_eq!(spec.scenario(4), spec.scenario(4));
    }

    #[test]
    fn before_fits_gp2_after_does_not() {
        // Phase 1 demand stays within GP 2's caps (2 vCores, 640 IOPS);
        // phase 2 blows through them.
        let s = drift_scenario(5.0, 4);
        let iops_before = s.before.values(PerfDimension::Iops).unwrap();
        let exceed_before =
            iops_before.iter().filter(|&&v| v > 640.0).count() as f64 / iops_before.len() as f64;
        assert!(exceed_before < 0.01, "before-phase exceedance {exceed_before}");
        let iops_after = s.after.values(PerfDimension::Iops).unwrap();
        let exceed_after =
            iops_after.iter().filter(|&&v| v > 640.0).count() as f64 / iops_after.len() as f64;
        assert!(exceed_after > 0.99, "after-phase exceedance {exceed_after}");
    }

    #[test]
    fn onset_day_places_the_change_point() {
        let spec = DriftSpec { days: 5.0, onset_day: 1.0, ..DriftSpec::figure11(1.0) };
        let s = spec.scenario(5);
        assert_eq!(s.before.len(), 144);
        assert_eq!(s.after.len(), 4 * 144);
    }

    #[test]
    fn shrink_mirrors_grow() {
        let spec = DriftSpec {
            direction: DriftDirection::Shrink,
            days: 2.0,
            onset_day: 1.0,
            magnitude: 4.0,
            base_scale: 1.0,
            latency_critical: true,
        };
        let s = spec.scenario(6);
        let cpu_before = mean(s.before.values(PerfDimension::Cpu).unwrap());
        let cpu_after = mean(s.after.values(PerfDimension::Cpu).unwrap());
        assert!(cpu_before > 3.0 * cpu_after, "{cpu_before} -> {cpu_after}");
        // Shrink: the latency-critical phase is the *before* one.
        let lat_before = mean(s.before.values(PerfDimension::IoLatency).unwrap());
        let lat_after = mean(s.after.values(PerfDimension::IoLatency).unwrap());
        assert!(lat_before < 1.5);
        assert!(lat_after > 5.0);
    }

    #[test]
    fn control_spec_injects_no_drift() {
        let control = DriftSpec::figure11(1.0).control();
        assert_eq!(control.magnitude, 1.0);
        let s = control.scenario(8);
        let cpu_before = mean(s.before.values(PerfDimension::Cpu).unwrap());
        let cpu_after = mean(s.after.values(PerfDimension::Cpu).unwrap());
        assert!((cpu_before - cpu_after).abs() < 0.1, "{cpu_before} vs {cpu_after}");
        // Even with latency_critical set, magnitude 1.0 means no big phase
        // and therefore no latency flip.
        let same = DriftSpec { magnitude: 1.0, ..DriftSpec::figure11(1.0) }.scenario(8);
        let lat_after = mean(same.after.values(PerfDimension::IoLatency).unwrap());
        assert!(lat_after > 5.0);
    }

    #[test]
    fn base_scale_sizes_both_phases() {
        let small = DriftSpec { base_scale: 0.5, ..DriftSpec::figure11(1.0) }.scenario(9);
        let big = DriftSpec { base_scale: 2.0, ..DriftSpec::figure11(1.0) }.scenario(9);
        let mean_cpu = |s: &DriftScenario| mean(s.before.values(PerfDimension::Cpu).unwrap());
        assert!(mean_cpu(&big) > 3.0 * mean_cpu(&small));
    }
}
