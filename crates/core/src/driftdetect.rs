//! SKU-change detection (§5.2.3, Figure 11).
//!
//! "Since changes in resource utilization patterns trigger changes in the
//! price-performance curves, Doppler can automatically detect the need to
//! change SKUs to accommodate changing workload requirements." The study
//! generates one curve on the telemetry before the change and one on the
//! telemetry after it, and compares where the recommendations land —
//! including the counterfactual throttling the customer would suffer by
//! keeping the old SKU (the Figure 11 customer would see > 40 %).

use doppler_catalog::Sku;
use doppler_telemetry::PerfHistory;

use crate::curve::{PricePerfPoint, PricePerformanceCurve};
use crate::matching::select_for_p;

/// How urgently a detected SKU change needs acting on, graded by the
/// throttling the customer suffers while they stay put. A fleet monitor
/// triages its re-assessment queue on this ordering (`Critical` first).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum DriftSeverity {
    /// The recommendation did not move.
    None,
    /// The SKU changed but the old choice still serves the new workload —
    /// a shrink, or a sideways move: pure cost drift.
    Low,
    /// Noticeable throttling (< 20 % of samples) on the old SKU.
    Moderate,
    /// Sustained throttling (20–50 %) — the Figure 11 customer (> 40 %)
    /// lands here.
    High,
    /// The old SKU throttles most of the time; the workload has outgrown
    /// it outright.
    Critical,
}

impl DriftSeverity {
    /// All grades in ascending order — histogram bucket order.
    pub const ALL: [DriftSeverity; 5] = [
        DriftSeverity::None,
        DriftSeverity::Low,
        DriftSeverity::Moderate,
        DriftSeverity::High,
        DriftSeverity::Critical,
    ];

    /// Grade a drift verdict: `changed` is whether the recommendation
    /// moved, `throttle_if_unchanged` the raw throttling probability of
    /// staying put (boundaries at 1 %, 20 %, and 50 %).
    pub fn of(changed: bool, throttle_if_unchanged: f64) -> DriftSeverity {
        if !changed {
            DriftSeverity::None
        } else if throttle_if_unchanged < 0.01 {
            DriftSeverity::Low
        } else if throttle_if_unchanged < 0.2 {
            DriftSeverity::Moderate
        } else if throttle_if_unchanged < 0.5 {
            DriftSeverity::High
        } else {
            DriftSeverity::Critical
        }
    }

    /// This grade's index into a `[usize; 5]` histogram (the
    /// [`ALL`](DriftSeverity::ALL) order).
    pub fn bucket(self) -> usize {
        match self {
            DriftSeverity::None => 0,
            DriftSeverity::Low => 1,
            DriftSeverity::Moderate => 2,
            DriftSeverity::High => 3,
            DriftSeverity::Critical => 4,
        }
    }
}

/// Before/after comparison of two telemetry windows.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DriftReport {
    pub before_curve: PricePerformanceCurve,
    pub after_curve: PricePerformanceCurve,
    /// Recommendation on the before-history.
    pub before_sku: Option<String>,
    /// Recommendation on the after-history.
    pub after_sku: Option<String>,
    /// The recommendations differ: the workload outgrew (or shrank out of)
    /// its SKU.
    pub changed: bool,
    /// Raw throttling probability the *before* recommendation would suffer
    /// on the *after* workload — the cost of not moving.
    pub throttle_if_unchanged: f64,
}

impl DriftReport {
    /// Severity grade of this report:
    /// [`DriftSeverity::of`]`(changed, throttle_if_unchanged)`.
    pub fn severity(&self) -> DriftSeverity {
        DriftSeverity::of(self.changed, self.throttle_if_unchanged)
    }

    /// The re-recommendation hook: the after-window's selected point — the
    /// SKU (and its price) the customer should move to. `None` when the
    /// after-window produced no selection (empty SKU set).
    pub fn re_recommendation(&self) -> Option<&PricePerfPoint> {
        self.after_sku.as_ref().and_then(|id| self.after_curve.point_for(id))
    }

    /// The before-window's selected point on its own curve.
    pub fn previous_recommendation(&self) -> Option<&PricePerfPoint> {
        self.before_sku.as_ref().and_then(|id| self.before_curve.point_for(id))
    }

    /// Monthly cost of acting on the re-recommendation: after-SKU price
    /// minus before-SKU price (negative for a shrink). `None` unless both
    /// windows selected a SKU.
    pub fn cost_delta(&self) -> Option<f64> {
        let before = self.previous_recommendation()?;
        let after = self.re_recommendation()?;
        Some(after.monthly_cost - before.monthly_cost)
    }
}

/// The group tolerance both sides select at: zero, the §5.2.3 study's
/// setting.
const P_G: f64 = 0.0;

/// Generate the curves of the `before` and `after` windows over `skus`,
/// and select on each at zero group tolerance.
pub fn detect_drift(before: &PerfHistory, after: &PerfHistory, skus: &[&Sku]) -> DriftReport {
    let before_curve = PricePerformanceCurve::generate(before, skus);
    let after_curve = PricePerformanceCurve::generate(after, skus);
    let before_sku = select_for_p(&before_curve, P_G).map(|p| p.sku_id.clone());
    let after_sku = select_for_p(&after_curve, P_G).map(|p| p.sku_id.clone());
    let throttle_if_unchanged = before_sku
        .as_ref()
        .and_then(|id| after_curve.point_for(id))
        .map(|p| 1.0 - p.raw_score)
        .unwrap_or(0.0);
    DriftReport {
        changed: before_sku != after_sku,
        before_curve,
        after_curve,
        before_sku,
        after_sku,
        throttle_if_unchanged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_catalog::{azure_paas_catalog, CatalogSpec, DeploymentType};
    use doppler_telemetry::{PerfDimension, TimeSeries};

    fn window(cpu: f64, n: usize) -> PerfHistory {
        PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; n]))
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![7.0; n]))
    }

    #[test]
    fn growth_triggers_a_change() {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let r = detect_drift(&window(1.0, 100), &window(7.0, 100), &skus);
        assert!(r.changed);
        assert_eq!(r.before_sku.as_deref(), Some("DB_GP_2"));
        assert_eq!(r.after_sku.as_deref(), Some("DB_GP_8"));
        // Staying on GP 2 would throttle on every after-sample.
        assert!(r.throttle_if_unchanged > 0.99);
    }

    #[test]
    fn stable_workload_reports_no_change() {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let r = detect_drift(&window(1.0, 100), &window(1.1, 100), &skus);
        assert!(!r.changed);
        assert_eq!(r.throttle_if_unchanged, 0.0);
    }

    #[test]
    fn shrink_is_also_detected() {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let r = detect_drift(&window(7.0, 100), &window(0.5, 100), &skus);
        assert!(r.changed);
        // Moving down throttles nothing.
        assert_eq!(r.throttle_if_unchanged, 0.0);
    }

    #[test]
    fn empty_sku_set_degrades_gracefully() {
        let r = detect_drift(&window(1.0, 50), &window(5.0, 50), &[]);
        assert!(r.before_sku.is_none());
        assert!(r.after_sku.is_none());
        assert!(!r.changed);
        assert_eq!(r.severity(), DriftSeverity::None);
        assert_eq!(r.re_recommendation(), None);
        assert_eq!(r.cost_delta(), None);
    }

    #[test]
    fn severity_boundaries_grade_the_throttle_probability() {
        // Not changed dominates everything.
        assert_eq!(DriftSeverity::of(false, 0.99), DriftSeverity::None);
        // Changed: boundaries at 1 %, 20 %, 50 % (half-open from below).
        assert_eq!(DriftSeverity::of(true, 0.0), DriftSeverity::Low);
        assert_eq!(DriftSeverity::of(true, 0.009_999), DriftSeverity::Low);
        assert_eq!(DriftSeverity::of(true, 0.01), DriftSeverity::Moderate);
        assert_eq!(DriftSeverity::of(true, 0.199_999), DriftSeverity::Moderate);
        assert_eq!(DriftSeverity::of(true, 0.2), DriftSeverity::High);
        assert_eq!(DriftSeverity::of(true, 0.42), DriftSeverity::High);
        assert_eq!(DriftSeverity::of(true, 0.499_999), DriftSeverity::High);
        assert_eq!(DriftSeverity::of(true, 0.5), DriftSeverity::Critical);
        assert_eq!(DriftSeverity::of(true, 1.0), DriftSeverity::Critical);
        // Severity orders by urgency, and buckets walk the ALL order.
        assert!(DriftSeverity::Critical > DriftSeverity::High);
        assert!(DriftSeverity::Low > DriftSeverity::None);
        for (i, s) in DriftSeverity::ALL.into_iter().enumerate() {
            assert_eq!(s.bucket(), i);
        }
    }

    #[test]
    fn growth_report_grades_critical_and_prices_the_move() {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let r = detect_drift(&window(1.0, 100), &window(7.0, 100), &skus);
        // Throttling on every after-sample: the top severity grade.
        assert_eq!(r.severity(), DriftSeverity::Critical);
        let re = r.re_recommendation().expect("after-window selects");
        assert_eq!(Some(re.sku_id.as_str()), r.after_sku.as_deref());
        let prev = r.previous_recommendation().expect("before-window selects");
        assert_eq!(Some(prev.sku_id.as_str()), r.before_sku.as_deref());
        // Growing into a bigger SKU costs more.
        let delta = r.cost_delta().expect("both sides selected");
        assert!((delta - (re.monthly_cost - prev.monthly_cost)).abs() < 1e-12);
        assert!(delta > 0.0, "delta = {delta}");
    }

    #[test]
    fn shrink_report_grades_low_with_a_negative_cost_delta() {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let r = detect_drift(&window(7.0, 100), &window(0.5, 100), &skus);
        assert_eq!(r.severity(), DriftSeverity::Low, "shrinks throttle nothing");
        assert!(r.cost_delta().unwrap() < 0.0, "moving down saves money");
    }

    #[test]
    fn empty_history_yields_a_stable_cheapest_recommendation() {
        // No samples at all: throttling is zero everywhere, both windows
        // select the cheapest SKU, and nothing reads as drift.
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let r = detect_drift(&PerfHistory::new(), &PerfHistory::new(), &skus);
        assert!(!r.changed);
        assert_eq!(r.before_sku, r.after_sku);
        assert!(r.before_sku.is_some());
        assert_eq!(r.throttle_if_unchanged, 0.0);
        assert_eq!(r.severity(), DriftSeverity::None);
        assert_eq!(r.cost_delta(), Some(0.0));
    }

    #[test]
    fn single_window_splits_degrade_to_an_empty_side() {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        // An empty before window scores every SKU clean, so the before
        // pick is the cheapest rung and the big after-demand reads as a
        // change.
        let r = detect_drift(&PerfHistory::new(), &window(7.0, 50), &skus);
        assert!(r.before_curve.points().iter().all(|p| p.score >= 1.0 - 1e-12));
        assert!(r.changed);
        // An empty after window also scores clean, so the pick falls back
        // to the cheapest rung and nothing throttles.
        let r = detect_drift(&window(1.0, 50), &PerfHistory::new(), &skus);
        assert!(r.after_curve.points().iter().all(|p| p.score >= 1.0 - 1e-12));
        assert_eq!(r.throttle_if_unchanged, 0.0);
    }

    #[test]
    fn detect_drift_is_pure() {
        // Same inputs → bit-for-bit identical report, across repeated
        // calls and across differently-ordered prior work (no hidden
        // state). The fleet monitor's worker-count determinism rests on
        // this.
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let after = window(6.0, 60);
        let befores: Vec<PerfHistory> = (0..4).map(|i| window(1.0 + i as f64, 60)).collect();
        let first: Vec<DriftReport> =
            befores.iter().map(|b| detect_drift(b, &after, &skus)).collect();
        let reversed: Vec<DriftReport> =
            befores.iter().rev().map(|b| detect_drift(b, &after, &skus)).collect();
        for (a, b) in first.iter().zip(reversed.iter().rev()) {
            assert_eq!(a, b);
        }
        assert_eq!(
            first,
            befores.iter().map(|b| detect_drift(b, &after, &skus)).collect::<Vec<_>>()
        );
    }
}
