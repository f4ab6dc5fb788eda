//! The price-performance curve (§3.2, Figure 4b) and its shape taxonomy
//! (§5.1, Figure 8).
//!
//! A curve is the list of candidate SKUs sorted by monthly cost, each
//! carrying its performance score `1 − P(throttling)`. Doppler enforces
//! monotonicity "so that customers cannot select SKUs that are more
//! expensive and less performant": the displayed score is the running
//! maximum over cheaper SKUs (a cheaper dominating SKU always exists, so
//! showing the raw dip would only invite a strictly worse choice).
//!
//! [`PricePerformanceCurve::generate`] scores every SKU from one set of
//! [`ExceedanceMasks`] rather than one Eq. 1 walk per SKU: per dimension,
//! the SKUs a sample throttles are a prefix of the capacity order
//! (descending for the inverted latency dimension), and a sample's
//! multi-word bitset is the OR of those prefixes. The per-SKU counts, and
//! so the scores, are bit-identical to
//! [`throttling_probability`](crate::throttling::throttling_probability).

use doppler_catalog::{ResourceCaps, Sku};
use doppler_telemetry::PerfHistory;

use crate::throttling::{throttled_fraction, ExceedanceMasks};

/// The curve's point order: ascending monthly cost, ties by SKU id.
fn by_cost(cost_a: f64, id_a: &str, cost_b: f64, id_b: &str) -> std::cmp::Ordering {
    cost_a.partial_cmp(&cost_b).expect("finite costs").then_with(|| id_a.cmp(id_b))
}

/// Sort indices into `skus` into the order their points take on a curve,
/// where SKU `s` costs `costs[s]`: a bootstrap window scores SKUs in this
/// order without building the curve.
pub(crate) fn sort_by_cost(order: &mut [usize], skus: &[&Sku], costs: &[f64]) {
    order.sort_by(|&a, &b| by_cost(costs[a], &skus[a].id.0, costs[b], &skus[b].id.0));
}

/// One SKU's position on a price-performance curve.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PricePerfPoint {
    pub sku_id: String,
    /// Monthly cost, dollars (compute plus storage where applicable).
    pub monthly_cost: f64,
    /// Raw performance score `1 − P(throttling)` for this SKU alone.
    pub raw_score: f64,
    /// Monotone (envelope) score actually displayed and used for selection.
    pub score: f64,
}

/// The shape classes of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CurveShape {
    /// Every relevant SKU satisfies 100 % of the workload's needs.
    Flat,
    /// SKUs bifurcate between satisfying 100 % and 0 % of needs.
    Simple,
    /// A rank over a range of intermediate throttling probabilities.
    Complex,
}

/// A price-performance curve: points sorted by ascending monthly cost with
/// the monotone envelope applied.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PricePerformanceCurve {
    points: Vec<PricePerfPoint>,
}

impl PricePerformanceCurve {
    /// Build the curve for a workload over candidate SKUs, using each SKU's
    /// own capacities and compute price.
    pub fn generate(history: &PerfHistory, skus: &[&Sku]) -> PricePerformanceCurve {
        let caps: Vec<ResourceCaps> = skus.iter().map(|sku| sku.caps).collect();
        let counts = ExceedanceMasks::new(history, &caps).counts(0..history.len());
        PricePerformanceCurve::from_counts(skus, &counts, history.len())
    }

    /// Build the curve from each SKU's throttled-sample count out of `n`
    /// samples (`counts[i]` belongs to `skus[i]`), at each SKU's own
    /// compute price.
    pub(crate) fn from_counts(skus: &[&Sku], counts: &[u32], n: usize) -> PricePerformanceCurve {
        let scored = skus
            .iter()
            .zip(counts)
            .map(|(sku, &count)| {
                (
                    sku.id.to_string(),
                    sku.monthly_cost(),
                    1.0 - throttled_fraction(count as usize, n),
                )
            })
            .collect();
        PricePerformanceCurve::from_scored(scored)
    }

    /// Build a curve from pre-computed `(sku_id, monthly_cost, raw_score)`
    /// triples — the entry point for the MI flow, where both capacity and
    /// cost are adjusted by the storage layout.
    pub fn from_scored(mut scored: Vec<(String, f64, f64)>) -> PricePerformanceCurve {
        scored.sort_by(|a, b| by_cost(a.1, &a.0, b.1, &b.0));
        let mut points = Vec::with_capacity(scored.len());
        let mut envelope: f64 = 0.0;
        for (sku_id, monthly_cost, raw_score) in scored {
            envelope = envelope.max(raw_score);
            points.push(PricePerfPoint { sku_id, monthly_cost, raw_score, score: envelope });
        }
        PricePerformanceCurve { points }
    }

    /// The curve's points, cheapest first.
    pub fn points(&self) -> &[PricePerfPoint] {
        &self.points
    }

    /// Number of candidate SKUs on the curve.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the curve has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Position of a SKU on the curve.
    pub fn position_of(&self, sku_id: &str) -> Option<usize> {
        self.points.iter().position(|p| p.sku_id == sku_id)
    }

    /// The point for a SKU.
    pub fn point_for(&self, sku_id: &str) -> Option<&PricePerfPoint> {
        self.points.iter().find(|p| p.sku_id == sku_id)
    }

    /// Classify the curve shape per §5.1. `tol` is the score distance from
    /// 0/1 still counted as "at" the extreme (the paper's flat/simple
    /// classes are visual; we use 0.5 %).
    pub fn classify(&self) -> CurveShape {
        const TOL: f64 = 0.005;
        if self.points.is_empty() {
            return CurveShape::Flat;
        }
        let all_full = self.points.iter().all(|p| p.score >= 1.0 - TOL);
        if all_full {
            return CurveShape::Flat;
        }
        let bifurcated = self.points.iter().all(|p| p.score >= 1.0 - TOL || p.score <= TOL);
        if bifurcated {
            CurveShape::Simple
        } else {
            CurveShape::Complex
        }
    }

    /// True when the curve carries preference information: at least one SKU
    /// throttles. Flat curves say nothing about a customer's tolerance, so
    /// group-preference learning skips them (§5.2.1 attributes most
    /// mismatches to exactly these customers).
    pub fn is_informative(&self) -> bool {
        self.points.iter().any(|p| p.score < 1.0 - 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_catalog::{azure_paas_catalog, CatalogSpec, DeploymentType};
    use doppler_telemetry::{PerfDimension, TimeSeries};

    fn catalog() -> doppler_catalog::Catalog {
        azure_paas_catalog(&CatalogSpec::default())
    }

    fn tiny_workload() -> PerfHistory {
        PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![0.2; 16]))
            .with(PerfDimension::Memory, TimeSeries::ten_minute(vec![1.0; 16]))
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![7.0; 16]))
    }

    fn midsize_spiky_workload() -> PerfHistory {
        let mut cpu = vec![2.0; 100];
        for i in (0..100).step_by(10) {
            cpu[i] = 24.0; // rare spikes past the mid-size SKUs
        }
        PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(cpu))
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![7.0; 100]))
    }

    #[test]
    fn points_sorted_by_cost() {
        let cat = catalog();
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let curve = PricePerformanceCurve::generate(&tiny_workload(), &skus);
        for w in curve.points().windows(2) {
            assert!(w[0].monthly_cost <= w[1].monthly_cost);
        }
    }

    #[test]
    fn envelope_is_monotone_nondecreasing() {
        let cat = catalog();
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let curve = PricePerformanceCurve::generate(&midsize_spiky_workload(), &skus);
        for w in curve.points().windows(2) {
            assert!(w[1].score >= w[0].score);
        }
    }

    #[test]
    fn envelope_never_below_raw() {
        let cat = catalog();
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let curve = PricePerformanceCurve::generate(&midsize_spiky_workload(), &skus);
        for p in curve.points() {
            assert!(p.score >= p.raw_score - 1e-12);
        }
    }

    #[test]
    fn tiny_workload_yields_flat_curve() {
        let cat = catalog();
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let curve = PricePerformanceCurve::generate(&tiny_workload(), &skus);
        assert_eq!(curve.classify(), CurveShape::Flat);
        assert!(!curve.is_informative());
    }

    #[test]
    fn constant_demand_yields_simple_curve() {
        // 12 vCores of constant demand: SKUs below always throttle, above
        // never — a pure bifurcation.
        let h = PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![12.5; 32]))
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![7.0; 32]));
        let cat = catalog();
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let curve = PricePerformanceCurve::generate(&h, &skus);
        assert_eq!(curve.classify(), CurveShape::Simple);
        assert!(curve.is_informative());
    }

    #[test]
    fn spiky_demand_yields_complex_curve() {
        let cat = catalog();
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let curve = PricePerformanceCurve::generate(&midsize_spiky_workload(), &skus);
        assert_eq!(curve.classify(), CurveShape::Complex);
    }

    #[test]
    fn scores_lie_in_unit_interval() {
        let cat = catalog();
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let curve = PricePerformanceCurve::generate(&midsize_spiky_workload(), &skus);
        for p in curve.points() {
            assert!((0.0..=1.0).contains(&p.raw_score));
            assert!((0.0..=1.0).contains(&p.score));
        }
    }

    #[test]
    fn empty_sku_set_yields_empty_flat_curve() {
        let curve = PricePerformanceCurve::generate(&tiny_workload(), &[]);
        assert!(curve.is_empty());
        assert_eq!(curve.classify(), CurveShape::Flat);
    }

    #[test]
    fn position_and_point_lookups() {
        let cat = catalog();
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let curve = PricePerformanceCurve::generate(&tiny_workload(), &skus);
        let first = curve.points()[0].sku_id.clone();
        assert_eq!(curve.position_of(&first), Some(0));
        assert!(curve.point_for(&first).is_some());
        assert_eq!(curve.position_of("NOPE"), None);
    }

    #[test]
    fn from_scored_applies_envelope_to_dips() {
        let curve = PricePerformanceCurve::from_scored(vec![
            ("a".into(), 100.0, 0.6),
            ("b".into(), 200.0, 0.4), // dips below the cheaper SKU
            ("c".into(), 300.0, 0.9),
        ]);
        let scores: Vec<f64> = curve.points().iter().map(|p| p.score).collect();
        assert_eq!(scores, vec![0.6, 0.6, 0.9]);
        assert_eq!(curve.points()[1].raw_score, 0.4);
    }
}
