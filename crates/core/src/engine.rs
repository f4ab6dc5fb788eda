//! The [`DopplerEngine`] façade: train on migrated customers, recommend for
//! new ones (Figure 3's full loop).
//!
//! [`DopplerEngine::recommend_with_confidence`] runs the §3.4 bootstrap in
//! one sweep, without rebuilding a curve per window. Eq. 1 only counts
//! samples, so the history's [`ExceedanceMasks`] (per dimension, the SKUs a
//! sample throttles are a prefix of the capacity order, descending for
//! inverted latency; a sample's `ceil(S / 64)`-word bitset ORs those
//! prefixes) are built once. One walk of the masks then keeps the per-SKU
//! counts at the windows' boundaries and at `0` and `n` ([`BoundaryCounts`]),
//! so a window's counts cost O(SKUs). Nothing is copied per window. What a
//! window still costs:
//!
//! * **Profile.** [`NegotiabilityStrategy::profile_windows`] profiles every
//!   window together. Under thresholding, the profiled dimensions are copied
//!   once into sample-major columns, and one lockstep kernel measures two
//!   windows of up to four dimensions per call, three passes over the
//!   windows.
//! * **Group and select.** The group is re-assigned from the window's
//!   profile. The kernel sorts its candidate SKUs by (cost, id) once: per
//!   customer for a plain catalog, per distinct storage assignment for MI.
//!   A window fills its envelope scores in that order and runs one
//!   selection pass over them: no curve, no `String` ids, no sort.
//! * **MI Steps 1 and 2.** An MI window also re-runs Step 1, whose IOPS
//!   limit moves with the window's peak, and adds the samples past that
//!   limit to the GP counts.
//!
//! The confidence is bit-identical to the provided
//! [`RecommendationBackend::recommend_with_confidence`](crate::RecommendationBackend::recommend_with_confidence),
//! which re-runs [`DopplerEngine::recommend`] on a copy of every window.

use std::ops::Range;

use doppler_catalog::{BillingRates, Catalog, DeploymentType, FileLayout, Sku, SkuId, StorageTier};
use doppler_telemetry::{PerfDimension, PerfHistory};

use crate::confidence::{agreement, bootstrap_windows, ConfidenceConfig};
use crate::curve::{sort_by_cost, CurveShape, PricePerformanceCurve};
use crate::explain::{explain, Explanation};
use crate::grouping::{FittedGrouping, GroupingStrategy};
use crate::matching::GroupModel;
use crate::mi::{MiAssessment, MiKernel};
use crate::profile::NegotiabilityStrategy;
use crate::throttling::{throttled_fraction, BoundaryCounts, ExceedanceMasks, ThrottleBreakdown};

/// Engine configuration: which deployment is being assessed and how the
/// Customer Profiler summarizes and groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    pub deployment: DeploymentType,
    pub negotiability: NegotiabilityStrategy,
    pub grouping: GroupingStrategy,
    pub rates: BillingRates,
}

impl EngineConfig {
    /// The production configuration for a deployment: thresholding +
    /// straightforward enumeration (§5.2.1: "The final strategy deployed in
    /// production utilizes the thresholding algorithm, then employs
    /// straightforward enumeration").
    pub fn production(deployment: DeploymentType) -> EngineConfig {
        EngineConfig {
            deployment,
            negotiability: NegotiabilityStrategy::production(),
            grouping: GroupingStrategy::Enumeration,
            rates: BillingRates::default(),
        }
    }
}

/// One training example: a successfully migrated customer with a retained
/// SKU (the ≥ 40-day criterion of §5).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingRecord {
    pub history: PerfHistory,
    pub chosen_sku: SkuId,
    /// MI customers carry their fixed file layout (§3.2).
    pub file_layout: Option<FileLayout>,
}

/// MI-specific context attached to a recommendation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MiSummary {
    pub restricted_to_bc: bool,
    pub gp_iops_limit: f64,
    pub storage_tiers: Vec<StorageTier>,
}

/// A completed recommendation: the chosen SKU plus everything needed to
/// audit it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Recommendation {
    /// The recommended SKU; `None` when no candidate exists (e.g. a data
    /// file larger than any MI placement).
    pub sku_id: Option<String>,
    pub monthly_cost: Option<f64>,
    /// The SKU's (envelope) score `1 − P(throttling)`.
    pub score: Option<f64>,
    pub curve: PricePerformanceCurve,
    pub shape: CurveShape,
    /// Profiler group the customer matched.
    pub group: usize,
    /// Group tolerance `P_g` applied in matching.
    pub preferred_p: f64,
    /// Negotiability bits across the profiled dimensions.
    pub bits: Vec<bool>,
    /// Bootstrap confidence, when requested.
    pub confidence: Option<f64>,
    pub explanation: Explanation,
    pub mi: Option<MiSummary>,
}

/// The trained engine.
#[derive(Debug, Clone)]
pub struct DopplerEngine {
    catalog: Catalog,
    config: EngineConfig,
    grouping: FittedGrouping,
    model: GroupModel,
}

/// The dimensions profiled per deployment (§5.2.1): CPU, memory, IOPS and
/// log rate for SQL DB (2⁴ = 16 groups); CPU, memory, IOPS for SQL MI
/// (2³ = 8 groups).
pub fn profiled_dimensions(deployment: DeploymentType) -> &'static [PerfDimension] {
    match deployment {
        DeploymentType::SqlDb => &[
            PerfDimension::Cpu,
            PerfDimension::Memory,
            PerfDimension::Iops,
            PerfDimension::LogRate,
        ],
        DeploymentType::SqlMi => &[PerfDimension::Cpu, PerfDimension::Memory, PerfDimension::Iops],
    }
}

impl DopplerEngine {
    /// Train on migrated customers: profile each, fit the grouping, learn
    /// each group's preferred operating point.
    pub fn train(
        catalog: Catalog,
        config: EngineConfig,
        records: &[TrainingRecord],
    ) -> DopplerEngine {
        let dims = profiled_dimensions(config.deployment);
        let profiles: Vec<_> =
            records.iter().map(|r| config.negotiability.profile(&r.history, dims)).collect();
        DopplerEngine::train_profiled(catalog, config, records, &profiles)
    }

    /// [`train`](Self::train) on records whose profiles are already known:
    /// `profiles[i]` is `config.negotiability.profile` of record `i`'s
    /// history over [`profiled_dimensions`]. A back-test that profiles
    /// each customer once passes the same profiles here and to
    /// [`recommend_profiled`](Self::recommend_profiled). Panics when the
    /// two slices differ in length.
    pub fn train_profiled(
        catalog: Catalog,
        config: EngineConfig,
        records: &[TrainingRecord],
        profiles: &[(Vec<f64>, Vec<bool>)],
    ) -> DopplerEngine {
        assert_eq!(profiles.len(), records.len(), "one profile per training record");
        let dims = profiled_dimensions(config.deployment);
        let (weights, bits): (Vec<Vec<f64>>, Vec<Vec<bool>>) = profiles.iter().cloned().unzip();
        let (grouping, labels) = if records.is_empty() {
            (FittedGrouping::Enumeration { n_dims: dims.len() }, Vec::new())
        } else {
            config.grouping.fit(&weights, &bits)
        };

        let mut engine = DopplerEngine {
            catalog,
            config,
            grouping,
            model: GroupModel::learn(0, std::iter::empty()),
        };
        let curves: Vec<PricePerformanceCurve> = records
            .iter()
            .map(|r| engine.curve_for(&r.history, r.file_layout.as_ref()).0)
            .collect();
        engine.model = GroupModel::learn(
            engine.grouping.group_count(),
            labels
                .iter()
                .zip(&curves)
                .zip(records)
                .map(|((&g, c), r)| (g, c, r.chosen_sku.0.as_str())),
        );
        engine
    }

    /// An engine with no training data: enumeration groups and a
    /// zero-tolerance fallback (recommends the cheapest fully satisfying
    /// SKU — the behaviour a fresh deployment starts from).
    pub fn untrained(catalog: Catalog, config: EngineConfig) -> DopplerEngine {
        DopplerEngine::train(catalog, config, &[])
    }

    /// The catalog in use.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The learned group model (Table 3's statistics live here).
    pub fn group_model(&self) -> &GroupModel {
        &self.model
    }

    /// The dimensions this engine profiles.
    pub fn dims(&self) -> &'static [PerfDimension] {
        profiled_dimensions(self.config.deployment)
    }

    /// Build the price-performance curve for a workload (the MI assessment
    /// when a layout is supplied). The second element carries MI context.
    pub fn curve_for(
        &self,
        history: &PerfHistory,
        layout: Option<&FileLayout>,
    ) -> (PricePerformanceCurve, Option<MiAssessment>) {
        let kernel = CurveKernel::new(self, history, layout);
        let n = history.len();
        kernel.curve(0..n, kernel.masks().counts(0..n))
    }

    /// Profile, group, and recommend.
    pub fn recommend(&self, history: &PerfHistory, layout: Option<&FileLayout>) -> Recommendation {
        self.recommend_profiled(history, layout, self.profile(history))
    }

    /// [`recommend`](Self::recommend) given the history's profile, as
    /// [`NegotiabilityStrategy::profile`] computes it over
    /// [`dims`](Self::dims): group and select without profiling again.
    pub fn recommend_profiled(
        &self,
        history: &PerfHistory,
        layout: Option<&FileLayout>,
        profile: (Vec<f64>, Vec<bool>),
    ) -> Recommendation {
        let (curve, mi) = self.curve_for(history, layout);
        self.recommend_on(history, curve, mi, profile)
    }

    /// The engine's negotiability profile of a whole history.
    fn profile(&self, history: &PerfHistory) -> (Vec<f64>, Vec<bool>) {
        self.config.negotiability.profile(history, self.dims())
    }

    /// [`recommend`](Self::recommend) with the §3.4 bootstrap confidence
    /// attached, scoring every window from one walk of the masks and
    /// profiling the windows together (see the module docs). Windows
    /// compare only the selected SKU, so they skip the breakdown and
    /// explanation.
    pub fn recommend_with_confidence(
        &self,
        history: &PerfHistory,
        layout: Option<&FileLayout>,
        confidence: &ConfidenceConfig,
    ) -> Recommendation {
        let mut kernel = CurveKernel::new(self, history, layout);
        let n = history.len();
        let windows = bootstrap_windows(n, confidence);
        let ends = windows.iter().flat_map(|w| [w.start, w.end]);
        let counts = BoundaryCounts::new(kernel.masks(), ends.chain([0, n]));
        let (curve, mi) = kernel.curve(0..n, counts.counts(0..n));
        let mut rec = self.recommend_on(history, curve, mi, self.profile(history));
        if let Some(original) = rec.sku_id.as_deref() {
            let profiles =
                self.config.negotiability.profile_windows(history, self.dims(), &windows);
            let mut agree = 0;
            for (range, (weights, bits)) in windows.iter().zip(profiles) {
                let group = self.grouping.assign(&weights, &bits);
                let counts = counts.counts(range.clone());
                let selects =
                    kernel.window_selects(&self.model, group, range.clone(), counts, original);
                agree += usize::from(selects);
            }
            rec.confidence = Some(agreement(agree, confidence));
        }
        rec
    }

    /// Group and select on an already built curve and profile.
    fn recommend_on(
        &self,
        history: &PerfHistory,
        curve: PricePerformanceCurve,
        mi: Option<MiAssessment>,
        (weights, bits): (Vec<f64>, Vec<bool>),
    ) -> Recommendation {
        let dims = self.dims();
        let group = self.grouping.assign(&weights, &bits);
        let preferred_p = self.model.preferred_p(group);

        let shape = curve.classify();
        let point = self.model.select(group, &curve).cloned();

        // Breakdown at the chosen SKU, with the MI storage-derived IOPS
        // limit substituted where applicable.
        let breakdown = point.as_ref().and_then(|p| {
            let sku = self.catalog.get(&SkuId(p.sku_id.clone()))?;
            let mut caps = sku.caps;
            if let Some(a) = &mi {
                if sku.tier == doppler_catalog::ServiceTier::GeneralPurpose {
                    caps.iops = a.gp_iops_limit;
                }
            }
            Some(ThrottleBreakdown::compute(history, &caps))
        });

        let explanation = explain(
            point.as_ref().map(|p| p.sku_id.as_str()),
            &curve,
            shape,
            dims,
            &bits,
            group,
            preferred_p,
            breakdown.as_ref(),
        );
        Recommendation {
            sku_id: point.as_ref().map(|p| p.sku_id.clone()),
            monthly_cost: point.as_ref().map(|p| p.monthly_cost),
            score: point.as_ref().map(|p| p.score),
            curve,
            shape,
            group,
            preferred_p,
            bits,
            confidence: None,
            explanation,
            mi: mi.map(|a| MiSummary {
                restricted_to_bc: a.restricted_to_bc,
                gp_iops_limit: a.gp_iops_limit,
                storage_tiers: a.storage.tiers,
            }),
        }
    }
}

/// Eq. 1's exceedance masks for one history over the SKUs
/// [`DopplerEngine::curve_for`] scores: the deployment's catalog, or for
/// MI with a layout, the instances that hold its data.
enum CurveKernel<'a> {
    Plain {
        skus: Vec<&'a Sku>,
        /// Indices into `skus` in the curve's (monthly cost, id) order.
        by_cost: Vec<usize>,
        masks: ExceedanceMasks,
    },
    Mi(MiKernel<'a>),
}

impl<'a> CurveKernel<'a> {
    fn new(
        engine: &'a DopplerEngine,
        history: &'a PerfHistory,
        layout: Option<&'a FileLayout>,
    ) -> CurveKernel<'a> {
        match (engine.config.deployment, layout) {
            (DeploymentType::SqlMi, Some(layout)) => CurveKernel::Mi(MiKernel::new(
                history,
                layout,
                &engine.catalog,
                &engine.config.rates,
            )),
            _ => {
                let skus = engine.catalog.for_deployment(engine.config.deployment);
                let caps: Vec<_> = skus.iter().map(|sku| sku.caps).collect();
                let costs: Vec<f64> = skus.iter().map(|sku| sku.monthly_cost()).collect();
                let mut by_cost: Vec<usize> = (0..skus.len()).collect();
                sort_by_cost(&mut by_cost, &skus, &costs);
                CurveKernel::Plain { masks: ExceedanceMasks::new(history, &caps), by_cost, skus }
            }
        }
    }

    fn masks(&self) -> &ExceedanceMasks {
        match self {
            CurveKernel::Plain { masks, .. } => masks,
            CurveKernel::Mi(kernel) => kernel.masks(),
        }
    }

    /// `curve_for` on the samples in `range`, given the masks' per-SKU
    /// throttled counts over that range.
    fn curve(
        &self,
        range: Range<usize>,
        counts: Vec<u32>,
    ) -> (PricePerformanceCurve, Option<MiAssessment>) {
        match self {
            CurveKernel::Plain { skus, .. } => {
                (PricePerformanceCurve::from_counts(skus, &counts, range.len()), None)
            }
            CurveKernel::Mi(kernel) => match kernel.assess(range, counts) {
                Some(a) => (a.curve.clone(), Some(a)),
                // No MI placement exists (file too large): empty curve.
                None => (PricePerformanceCurve::from_scored(vec![]), None),
            },
        }
    }

    /// Whether `model` selects the SKU `original` for `group` on the
    /// samples in `range`, given the masks' per-SKU counts over that range:
    /// `model.select(group, &self.curve(range, counts).0)` reads `original`.
    /// Both kernels score their SKUs in the curve's (cost, id) order and
    /// select from those scores directly, building no curve.
    fn window_selects(
        &mut self,
        model: &GroupModel,
        group: usize,
        range: Range<usize>,
        mut counts: Vec<u32>,
        original: &str,
    ) -> bool {
        let n = range.len();
        let (skus, order): (&[&Sku], &[usize]) = match self {
            CurveKernel::Plain { skus, by_cost, .. } => (skus, by_cost),
            // No MI placement exists: the curve is empty.
            CurveKernel::Mi(kernel) => match kernel.window(range, &mut counts) {
                Some(window) => window,
                None => return false,
            },
        };
        // The curve's monotone envelope, cheapest SKU first.
        let scores = order.iter().scan(0.0_f64, |envelope, &s| {
            *envelope = envelope.max(1.0 - throttled_fraction(counts[s] as usize, n));
            Some((s, *envelope))
        });
        model.select_scored(group, scores).is_some_and(|s| skus[s].id.0 == original)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::ConfidenceConfig;
    use doppler_catalog::{azure_paas_catalog, CatalogSpec};
    use doppler_telemetry::TimeSeries;

    fn catalog() -> Catalog {
        azure_paas_catalog(&CatalogSpec::default())
    }

    fn tiny_history(n: usize) -> PerfHistory {
        PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![0.3; n]))
            .with(PerfDimension::Memory, TimeSeries::ten_minute(vec![1.5; n]))
            .with(PerfDimension::Iops, TimeSeries::ten_minute(vec![50.0; n]))
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![7.0; n]))
            .with(PerfDimension::LogRate, TimeSeries::ten_minute(vec![0.2; n]))
    }

    #[test]
    fn untrained_engine_recommends_cheapest_satisfying() {
        let engine =
            DopplerEngine::untrained(catalog(), EngineConfig::production(DeploymentType::SqlDb));
        let rec = engine.recommend(&tiny_history(64), None);
        assert_eq!(rec.sku_id.as_deref(), Some("DB_GP_2"));
        assert_eq!(rec.shape, CurveShape::Flat);
        assert_eq!(rec.score, Some(1.0));
    }

    #[test]
    fn trained_engine_applies_group_tolerance() {
        // One trainer: spiky CPU, negotiable, parked one rung below its
        // peak. The engine should learn that tolerance and re-apply it.
        let mut cpu = vec![1.0; 2016];
        for i in (0..2016).step_by(100) {
            cpu[i] = 7.0; // ~1% of samples above 6 vCores
        }
        let history = PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(cpu))
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![7.0; 2016]));
        let record = TrainingRecord {
            history: history.clone(),
            chosen_sku: SkuId("DB_GP_2".into()),
            file_layout: None,
        };
        let engine = DopplerEngine::train(
            catalog(),
            EngineConfig::production(DeploymentType::SqlDb),
            &[record],
        );
        let rec = engine.recommend(&history, None);
        // The same workload re-assessed gets the same negotiated SKU, not
        // the 8-vCore machine its max would demand.
        assert_eq!(rec.sku_id.as_deref(), Some("DB_GP_2"));
        assert!(rec.preferred_p > 0.005, "learned tolerance {}", rec.preferred_p);
    }

    #[test]
    fn recommendation_carries_explanation_and_bits() {
        let engine =
            DopplerEngine::untrained(catalog(), EngineConfig::production(DeploymentType::SqlDb));
        let rec = engine.recommend(&tiny_history(64), None);
        assert_eq!(rec.bits.len(), 4);
        assert!(!rec.explanation.summary.is_empty());
        assert!(rec.explanation.render().contains("group"));
    }

    #[test]
    fn mi_engine_uses_layouts() {
        let engine =
            DopplerEngine::untrained(catalog(), EngineConfig::production(DeploymentType::SqlMi));
        let layout = FileLayout::from_sizes(&[100.0, 100.0]);
        let rec = engine.recommend(&tiny_history(64), Some(&layout));
        let mi = rec.mi.expect("MI context");
        assert_eq!(mi.gp_iops_limit, 1000.0);
        assert_eq!(mi.storage_tiers.len(), 2);
        assert!(rec.sku_id.unwrap().starts_with("MI_"));
    }

    #[test]
    fn mi_without_placement_recommends_nothing() {
        let engine =
            DopplerEngine::untrained(catalog(), EngineConfig::production(DeploymentType::SqlMi));
        let layout = FileLayout::from_sizes(&[9_000.0]);
        let rec = engine.recommend(&tiny_history(16), Some(&layout));
        assert!(rec.sku_id.is_none());
        assert!(rec.curve.is_empty());
        assert!(rec.explanation.summary.contains("No SKU"));
    }

    #[test]
    fn confidence_is_attached_and_high_for_stable_workloads() {
        let engine =
            DopplerEngine::untrained(catalog(), EngineConfig::production(DeploymentType::SqlDb));
        let rec = engine.recommend_with_confidence(
            &tiny_history(500),
            None,
            &ConfidenceConfig { replicates: 10, window_samples: 100, seed: 1 },
        );
        assert_eq!(rec.confidence, Some(1.0));
    }

    #[test]
    fn engine_profiles_the_right_dimensions_per_deployment() {
        assert_eq!(profiled_dimensions(DeploymentType::SqlDb).len(), 4);
        assert_eq!(profiled_dimensions(DeploymentType::SqlMi).len(), 3);
    }

    #[test]
    fn train_on_empty_records_matches_untrained() {
        let a =
            DopplerEngine::train(catalog(), EngineConfig::production(DeploymentType::SqlDb), &[]);
        let rec = a.recommend(&tiny_history(32), None);
        assert_eq!(rec.preferred_p, 0.0);
        assert_eq!(rec.sku_id.as_deref(), Some("DB_GP_2"));
    }
}
