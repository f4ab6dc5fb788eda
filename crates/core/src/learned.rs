//! Lorentz-style learned backend: nearest-neighbour SKU recommendation over
//! normalized workload fingerprints.
//!
//! *Learned SKU Recommendation Using Profile Data* (Lorentz) replaces
//! hand-tuned recommendation rules with a model trained on profiles of
//! already-migrated customers: summarize each workload as a fixed-length
//! feature vector, normalize, and recommend the SKU retained by the most
//! similar profile — falling back to the rule-based recommender whenever the
//! nearest profile is not similar enough to trust (the similarity-floor
//! safeguard). [`LearnedBackend`] reproduces that design on top of Doppler's
//! machinery:
//!
//! * **Workload fingerprints** — mean and peak utilization per profiled
//!   dimension (§5.2.1's CPU / memory / IOPS / log-rate set), min-max
//!   normalized across the training corpus ([`doppler_stats::scaling`]);
//! * **Nearest neighbour** — Euclidean distance
//!   ([`doppler_stats::distance`]) against the training exemplars; corpora
//!   larger than [`LearnedConfig::max_profiles`] are compressed to k-means
//!   centroids ([`mod@doppler_stats::kmeans`]), each labeled by its
//!   cluster's majority SKU;
//! * **Similarity floor** — `similarity = 1 / (1 + distance)`; below
//!   [`LearnedConfig::similarity_floor`] the backend returns the embedded
//!   heuristic [`DopplerEngine`]'s recommendation *exactly* (bit-for-bit),
//!   so a sparse or mismatched training corpus can never make things worse
//!   than the paper's engine.
//!
//! Everything is deterministic: feature extraction is pure, compression
//! runs under [`LearnedConfig::seed`], and nearest-neighbour ties break on
//! exemplar order ([`f64::total_cmp`] semantics, so a non-finite distance
//! can never win) — the fleet's bit-for-bit report equality across worker
//! counts holds for this backend too. Degenerate training corpora surface
//! as typed [`LearnedTrainError`]s from [`LearnedBackend::try_train`]
//! instead of panics or NaN-poisoned distances.

use std::fmt;

use doppler_catalog::{Catalog, FileLayout, Fingerprint};
use doppler_stats::distance::euclidean;
use doppler_stats::kmeans::{kmeans, KMeansResult};
use doppler_stats::scaling::minmax_scale;
use doppler_telemetry::{PerfDimension, PerfHistory};

use crate::engine::{
    profiled_dimensions, DopplerEngine, EngineConfig, Recommendation, TrainingRecord,
};

/// Hyper-parameters for [`LearnedBackend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnedConfig {
    /// Minimum similarity `1 / (1 + distance)` to the nearest training
    /// exemplar for the learned recommendation to be trusted; below it the
    /// heuristic fallback's recommendation is returned unchanged. `0.0`
    /// always trusts the neighbour; anything `> 1.0` always falls back.
    pub similarity_floor: f64,
    /// Maximum number of exemplars kept; larger training corpora are
    /// compressed to this many k-means clusters.
    pub max_profiles: usize,
    /// Seed for the k-means compression (only used when compressing).
    pub seed: u64,
}

impl Default for LearnedConfig {
    fn default() -> LearnedConfig {
        LearnedConfig { similarity_floor: 0.75, max_profiles: 256, seed: 0 }
    }
}

/// Why a training corpus was rejected by [`LearnedBackend::try_train`].
/// Degenerate inputs are *typed* errors, never panics or silently
/// NaN-poisoned exemplars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnedTrainError {
    /// A training record carries an empty telemetry window: either one of
    /// its profiled series is present but has no samples (`dimension` set)
    /// or the record has no samples in *any* profiled dimension
    /// (`dimension` `None`). A record with some dimensions absent but at
    /// least one populated is fine — absent telemetry reads as zero.
    EmptyWindow {
        /// Index of the offending record in the training slice.
        record: usize,
        /// The empty-but-present series, when one was identified.
        dimension: Option<PerfDimension>,
    },
    /// A training record carries a NaN or infinite sample; one corrupt
    /// point would otherwise poison the min-max normalization for the
    /// whole corpus.
    NonFiniteSample {
        /// Index of the offending record in the training slice.
        record: usize,
        /// The series carrying the non-finite sample.
        dimension: PerfDimension,
    },
}

impl fmt::Display for LearnedTrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnedTrainError::EmptyWindow { record, dimension: Some(dim) } => {
                write!(f, "training record {record}: empty telemetry window for {dim:?}")
            }
            LearnedTrainError::EmptyWindow { record, dimension: None } => {
                write!(f, "training record {record}: no telemetry in any profiled dimension")
            }
            LearnedTrainError::NonFiniteSample { record, dimension } => {
                write!(f, "training record {record}: non-finite sample in {dim:?}", dim = dimension)
            }
        }
    }
}

impl std::error::Error for LearnedTrainError {}

/// One training exemplar: a normalized workload fingerprint and the SKU its
/// cluster of migrated customers retained.
#[derive(Debug, Clone, PartialEq)]
struct Exemplar {
    profile: Vec<f64>,
    sku_id: String,
}

/// The learned recommender. Construct with [`LearnedBackend::train`].
#[derive(Debug, Clone)]
pub struct LearnedBackend {
    fallback: DopplerEngine,
    learned: LearnedConfig,
    /// Per-feature `(min, range)` from the training corpus; queries are
    /// normalized with exactly these parameters.
    norms: Vec<(f64, f64)>,
    exemplars: Vec<Exemplar>,
}

/// Features per profiled dimension in a workload fingerprint: mean and
/// peak utilization.
const FEATURES_PER_DIMENSION: usize = 2;

/// Summarize a history into the raw (unnormalized) workload fingerprint:
/// mean then peak per profiled dimension, zero where telemetry is absent.
fn raw_profile(history: &PerfHistory, dims: &[PerfDimension]) -> Vec<f64> {
    let mut profile = Vec::with_capacity(dims.len() * FEATURES_PER_DIMENSION);
    for &dim in dims {
        match history.values(dim) {
            Some(values) if !values.is_empty() => {
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                let peak = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                profile.push(mean);
                profile.push(peak);
            }
            _ => profile.resize(profile.len() + FEATURES_PER_DIMENSION, 0.0),
        }
    }
    profile
}

/// Validate one training record: every *present* profiled series must be
/// non-empty and fully finite, and at least one profiled dimension must
/// carry telemetry.
fn validate_record(
    index: usize,
    record: &TrainingRecord,
    dims: &[PerfDimension],
) -> Result<(), LearnedTrainError> {
    let mut populated = false;
    for &dim in dims {
        match record.history.values(dim) {
            Some([]) => {
                return Err(LearnedTrainError::EmptyWindow { record: index, dimension: Some(dim) })
            }
            Some(values) => {
                if values.iter().any(|x| !x.is_finite()) {
                    return Err(LearnedTrainError::NonFiniteSample {
                        record: index,
                        dimension: dim,
                    });
                }
                populated = true;
            }
            None => {}
        }
    }
    if !populated {
        return Err(LearnedTrainError::EmptyWindow { record: index, dimension: None });
    }
    Ok(())
}

impl LearnedBackend {
    /// Train on migrated customers: fingerprint and normalize every profile,
    /// compress when the corpus exceeds [`LearnedConfig::max_profiles`],
    /// and train the embedded heuristic fallback on the same records.
    ///
    /// Panics on a degenerate corpus (see [`LearnedTrainError`]); prefer
    /// [`LearnedBackend::try_train`] when the training set comes from an
    /// untrusted pipeline. The registry's single-flight slot converts the
    /// panic into a counted training failure, never a poisoned engine.
    pub fn train(
        catalog: Catalog,
        config: EngineConfig,
        learned: LearnedConfig,
        records: &[TrainingRecord],
    ) -> LearnedBackend {
        match Self::try_train(catalog, config, learned, records) {
            Ok(backend) => backend,
            Err(e) => panic!("LearnedBackend::train: {e}"),
        }
    }

    /// [`train`](LearnedBackend::train) with degenerate corpora surfaced
    /// as typed errors: an empty telemetry window or a non-finite sample
    /// in any training record returns a [`LearnedTrainError`] instead of
    /// panicking or NaN-poisoning the normalization.
    pub fn try_train(
        catalog: Catalog,
        config: EngineConfig,
        learned: LearnedConfig,
        records: &[TrainingRecord],
    ) -> Result<LearnedBackend, LearnedTrainError> {
        let dims = profiled_dimensions(config.deployment);
        for (index, record) in records.iter().enumerate() {
            validate_record(index, record, dims)?;
        }
        let raw: Vec<Vec<f64>> = records.iter().map(|r| raw_profile(&r.history, dims)).collect();

        let n_features = dims.len() * FEATURES_PER_DIMENSION;
        let mut norms = Vec::with_capacity(n_features);
        let mut normalized = vec![Vec::with_capacity(n_features); raw.len()];
        for f in 0..n_features {
            let column: Vec<f64> = raw.iter().map(|p| p[f]).collect();
            let min = column.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = column.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            // Degenerate (constant or empty) columns clamp to a zero
            // range: both training and query normalization map them to
            // 0.0 instead of dividing by zero.
            let range = if max > min { max - min } else { 0.0 };
            norms.push(if column.is_empty() { (0.0, 0.0) } else { (min, range) });
            for (row, &scaled) in normalized.iter_mut().zip(minmax_scale(&column).iter()) {
                row.push(scaled);
            }
        }

        let exemplars = if normalized.is_empty() {
            Vec::new()
        } else if normalized.len() > learned.max_profiles.max(1) {
            Self::compress(&normalized, records, &learned)
        } else {
            normalized
                .into_iter()
                .zip(records)
                .map(|(profile, r)| Exemplar { profile, sku_id: r.chosen_sku.0.clone() })
                .collect()
        };

        let fallback = DopplerEngine::train(catalog, config, records);
        Ok(LearnedBackend { fallback, learned, norms, exemplars })
    }

    /// Corpus compression: one exemplar per k-means cluster, positioned at
    /// the fitted centroid and labeled with its majority SKU (ties break to
    /// the lexicographically smallest, for determinism).
    fn compress(
        normalized: &[Vec<f64>],
        records: &[TrainingRecord],
        learned: &LearnedConfig,
    ) -> Vec<Exemplar> {
        let KMeansResult { centroids, assignments, .. } =
            kmeans(normalized, learned.max_profiles.max(1), learned.seed);
        centroids
            .iter()
            .enumerate()
            .filter_map(|(cluster, centroid)| {
                let mut counts = std::collections::BTreeMap::new();
                for (&assigned, record) in assignments.iter().zip(records) {
                    if assigned == cluster {
                        *counts.entry(record.chosen_sku.0.as_str()).or_insert(0usize) += 1;
                    }
                }
                let majority =
                    counts.iter().fold(None::<(&str, usize)>, |best, (&sku, &n)| match best {
                        Some((_, m)) if m >= n => best,
                        _ => Some((sku, n)),
                    });
                majority
                    .map(|(sku, _)| Exemplar { profile: centroid.clone(), sku_id: sku.to_string() })
            })
            .collect()
    }

    /// The embedded heuristic engine the backend falls back to.
    pub fn fallback(&self) -> &DopplerEngine {
        &self.fallback
    }

    /// The catalog in use.
    pub fn catalog(&self) -> &Catalog {
        self.fallback.catalog()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        self.fallback.config()
    }

    /// Normalize a query history with the training-corpus normalization.
    fn query_profile(&self, history: &PerfHistory) -> Vec<f64> {
        let dims = profiled_dimensions(self.fallback.config().deployment);
        raw_profile(history, dims)
            .iter()
            .zip(&self.norms)
            .map(|(&x, &(min, range))| if range > 0.0 { (x - min) / range } else { 0.0 })
            .collect()
    }

    /// The nearest exemplar's SKU and its similarity `1 / (1 + distance)`,
    /// or `None` when no exemplars exist. The scan orders distances with
    /// [`f64::total_cmp`] and skips non-finite ones outright, so a NaN
    /// distance (a corrupt exemplar or a NaN query sample) can never win —
    /// a fully non-finite scan returns `None` and the caller falls back to
    /// the heuristic. Ties break on exemplar order.
    pub fn nearest(&self, history: &PerfHistory) -> Option<(&str, f64)> {
        let query = self.query_profile(history);
        let mut best: Option<(&Exemplar, f64)> = None;
        for exemplar in &self.exemplars {
            let d = euclidean(&exemplar.profile, &query);
            if !d.is_finite() {
                continue;
            }
            match best {
                Some((_, bd)) if bd.total_cmp(&d).is_le() => {}
                _ => best = Some((exemplar, d)),
            }
        }
        best.map(|(e, d)| (e.sku_id.as_str(), 1.0 / (1.0 + d)))
    }

    /// Recommend: nearest-neighbour SKU when the neighbour clears the
    /// similarity floor and prices on this workload's curve, the heuristic
    /// fallback's exact recommendation otherwise.
    pub fn recommend(&self, history: &PerfHistory, layout: Option<&FileLayout>) -> Recommendation {
        let fallback_rec = self.fallback.recommend(history, layout);
        let Some((sku, similarity)) = self.nearest(history) else {
            return fallback_rec;
        };
        if similarity < self.learned.similarity_floor {
            return fallback_rec;
        }
        // The neighbour's SKU must exist on this workload's own
        // price-performance curve (it may not under an MI layout or a
        // rolled catalog) — otherwise the heuristic stands.
        let Some(point) = fallback_rec.curve.points().iter().find(|p| p.sku_id == sku) else {
            return fallback_rec;
        };
        Recommendation {
            sku_id: Some(point.sku_id.clone()),
            monthly_cost: Some(point.monthly_cost),
            score: Some(point.score),
            ..fallback_rec
        }
    }

    /// Deterministic content fingerprint over the fallback, the
    /// hyper-parameters, the normalization, and every exemplar.
    pub fn fingerprint(&self) -> u64 {
        use crate::backend::RecommendationBackend as _;
        let mut fp = Fingerprint::new();
        fp.write_str("learned");
        fp.write_u64(self.fallback.fingerprint());
        fp.write_f64(self.learned.similarity_floor);
        fp.write_usize(self.learned.max_profiles);
        fp.write_u64(self.learned.seed);
        for &(min, range) in &self.norms {
            fp.write_f64(min);
            fp.write_f64(range);
        }
        fp.write_usize(self.exemplars.len());
        for e in &self.exemplars {
            fp.write_str(&e.sku_id);
            for &x in &e.profile {
                fp.write_f64(x);
            }
        }
        fp.finish()
    }
}

impl crate::backend::RecommendationBackend for LearnedBackend {
    fn id(&self) -> &'static str {
        "learned"
    }

    fn catalog(&self) -> &Catalog {
        LearnedBackend::catalog(self)
    }

    fn config(&self) -> &EngineConfig {
        LearnedBackend::config(self)
    }

    fn recommend(&self, history: &PerfHistory, layout: Option<&FileLayout>) -> Recommendation {
        LearnedBackend::recommend(self, history, layout)
    }

    fn fingerprint(&self) -> u64 {
        LearnedBackend::fingerprint(self)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RecommendationBackend;
    use crate::confidence::ConfidenceConfig;
    use doppler_catalog::{azure_paas_catalog, CatalogSpec, DeploymentType, SkuId};
    use doppler_telemetry::TimeSeries;

    fn catalog() -> Catalog {
        azure_paas_catalog(&CatalogSpec::default())
    }

    fn config() -> EngineConfig {
        EngineConfig::production(DeploymentType::SqlDb)
    }

    fn history(cpu: f64, iops: f64) -> PerfHistory {
        PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 96]))
            .with(PerfDimension::Memory, TimeSeries::ten_minute(vec![2.0; 96]))
            .with(PerfDimension::Iops, TimeSeries::ten_minute(vec![iops; 96]))
            .with(PerfDimension::LogRate, TimeSeries::ten_minute(vec![0.5; 96]))
    }

    fn record(cpu: f64, iops: f64, sku: &str) -> TrainingRecord {
        TrainingRecord {
            history: history(cpu, iops),
            chosen_sku: SkuId(sku.into()),
            file_layout: None,
        }
    }

    fn corpus() -> Vec<TrainingRecord> {
        vec![
            record(0.2, 50.0, "DB_GP_2"),
            record(0.3, 60.0, "DB_GP_2"),
            record(2.0, 900.0, "DB_GP_8"),
            record(2.2, 950.0, "DB_GP_8"),
        ]
    }

    #[test]
    fn empty_corpus_is_pure_fallback() {
        let b = LearnedBackend::train(catalog(), config(), LearnedConfig::default(), &[]);
        let h = history(0.5, 100.0);
        assert_eq!(b.recommend(&h, None), b.fallback().recommend(&h, None));
        assert_eq!(b.exemplars.len(), 0);
    }

    #[test]
    fn near_exact_match_recommends_the_neighbours_sku() {
        let b = LearnedBackend::train(catalog(), config(), LearnedConfig::default(), &corpus());
        // A workload almost identical to the DB_GP_8 cohort.
        let rec = b.recommend(&history(2.1, 920.0), None);
        assert_eq!(rec.sku_id.as_deref(), Some("DB_GP_8"));
        // The learned point prices off the workload's own curve.
        let point =
            rec.curve.points().iter().find(|p| p.sku_id == "DB_GP_8").expect("sku on curve");
        assert_eq!(rec.monthly_cost, Some(point.monthly_cost));
        assert_eq!(rec.score, Some(point.score));
        // SqlDb profiles 4 dimensions, mean and peak each.
        assert_eq!(b.exemplars[0].profile.len(), 8);
    }

    #[test]
    fn floor_above_one_always_falls_back_exactly() {
        let cfg = LearnedConfig { similarity_floor: 2.0, ..LearnedConfig::default() };
        let b = LearnedBackend::train(catalog(), config(), cfg, &corpus());
        for (cpu, iops) in [(0.2, 50.0), (1.0, 400.0), (2.1, 920.0)] {
            let h = history(cpu, iops);
            assert_eq!(b.recommend(&h, None), b.fallback().recommend(&h, None));
        }
    }

    #[test]
    fn kmeans_compression_bounds_exemplars_and_stays_deterministic() {
        let records: Vec<TrainingRecord> = (0..40)
            .map(|i| {
                let cpu = 0.1 + (i % 10) as f64 * 0.3;
                record(cpu, cpu * 300.0, if cpu > 1.5 { "DB_GP_8" } else { "DB_GP_2" })
            })
            .collect();
        let cfg = LearnedConfig { max_profiles: 8, seed: 7, ..LearnedConfig::default() };
        let a = LearnedBackend::train(catalog(), config(), cfg, &records);
        let b = LearnedBackend::train(catalog(), config(), cfg, &records);
        assert!(a.exemplars.len() <= 8);
        assert!(!a.exemplars.is_empty());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let h = history(2.8, 840.0);
        assert_eq!(a.recommend(&h, None), b.recommend(&h, None));
    }

    #[test]
    fn fingerprint_tracks_hyper_parameters() {
        let a = LearnedBackend::train(catalog(), config(), LearnedConfig::default(), &corpus());
        let b = LearnedBackend::train(
            catalog(),
            config(),
            LearnedConfig { similarity_floor: 0.5, ..LearnedConfig::default() },
            &corpus(),
        );
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn empty_present_window_is_a_typed_error() {
        let mut records = corpus();
        records[1].history =
            PerfHistory::new().with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![]));
        let err =
            LearnedBackend::try_train(catalog(), config(), LearnedConfig::default(), &records)
                .unwrap_err();
        assert_eq!(
            err,
            LearnedTrainError::EmptyWindow { record: 1, dimension: Some(PerfDimension::Cpu) }
        );
        assert!(err.to_string().contains("record 1"), "{err}");
    }

    #[test]
    fn telemetry_free_record_is_a_typed_error() {
        let mut records = corpus();
        records[3].history = PerfHistory::new();
        assert_eq!(
            LearnedBackend::try_train(catalog(), config(), LearnedConfig::default(), &records)
                .unwrap_err(),
            LearnedTrainError::EmptyWindow { record: 3, dimension: None }
        );
    }

    #[test]
    fn non_finite_sample_is_a_typed_error_not_nan_poisoning() {
        // TimeSeries::new rejects non-finite samples, but the roll-up
        // arithmetic (TimeSeries::add) can overflow two finite series to
        // infinity — exactly the corrupt-but-sanctioned path the typed
        // error exists for.
        let big = TimeSeries::ten_minute(vec![f64::MAX; 96]);
        let overflow = big.add(&big);
        assert!(overflow.values().iter().all(|v| v.is_infinite()), "overflowed to infinity");
        let mut records = corpus();
        records[2].history = PerfHistory::new().with(PerfDimension::Cpu, overflow);
        assert_eq!(
            LearnedBackend::try_train(catalog(), config(), LearnedConfig::default(), &records)
                .unwrap_err(),
            LearnedTrainError::NonFiniteSample { record: 2, dimension: PerfDimension::Cpu }
        );
    }

    #[test]
    fn constant_columns_clamp_to_zero_and_still_recommend() {
        // Every record identical: every feature column is constant, so
        // min-max normalization would divide by zero without the clamp.
        let records: Vec<TrainingRecord> = (0..4).map(|_| record(0.5, 100.0, "DB_GP_2")).collect();
        let cfg = LearnedConfig { similarity_floor: 0.0, ..LearnedConfig::default() };
        let b = LearnedBackend::train(catalog(), config(), cfg, &records);
        let rec = b.recommend(&history(0.5, 100.0), None);
        assert_eq!(rec.sku_id.as_deref(), Some("DB_GP_2"));
        assert!(rec.monthly_cost.unwrap().is_finite());
        let (_, similarity) = b.nearest(&history(0.5, 100.0)).expect("exemplars exist");
        assert!(similarity.is_finite());
        assert_eq!(similarity, 1.0, "identical constant profiles sit at distance zero");
    }

    #[test]
    fn nan_fingerprint_exemplar_can_never_win() {
        let trained =
            LearnedBackend::train(catalog(), config(), LearnedConfig::default(), &corpus());
        // Plant a corrupt exemplar whose distance to any query is NaN,
        // ahead of the legitimate ones.
        let mut corrupt = trained.clone();
        corrupt.exemplars.insert(
            0,
            Exemplar {
                profile: vec![f64::NAN; corrupt.exemplars[0].profile.len()],
                sku_id: "BAD".into(),
            },
        );
        let (sku, similarity) = corrupt.nearest(&history(2.1, 920.0)).expect("finite neighbour");
        assert_ne!(sku, "BAD", "NaN distance must never win the scan");
        assert!(similarity.is_finite());
        assert_eq!(
            corrupt.recommend(&history(2.1, 920.0), None).sku_id.as_deref(),
            Some("DB_GP_8")
        );
        // All-corrupt exemplars: nearest is None, recommend falls back.
        let mut all_bad = trained.clone();
        for e in &mut all_bad.exemplars {
            e.profile = vec![f64::NAN; e.profile.len()];
        }
        assert!(all_bad.nearest(&history(0.5, 100.0)).is_none());
        let h = history(0.5, 100.0);
        assert_eq!(all_bad.recommend(&h, None), trained.fallback().recommend(&h, None));
    }

    #[test]
    fn confidence_resamples_the_learned_recommendation() {
        let b = LearnedBackend::train(catalog(), config(), LearnedConfig::default(), &corpus());
        let rec =
            b.recommend_with_confidence(&history(2.1, 920.0), None, &ConfidenceConfig::default());
        let c = rec.confidence.expect("confidence attached");
        assert!((0.0..=1.0).contains(&c));
    }
}
