//! Pluggable recommendation backends.
//!
//! Doppler's §4 pipeline is one fixed heuristic/curve-matching engine, but
//! the recommendation seam itself is backend-agnostic: anything that can map
//! a [`PerfHistory`] (plus an optional MI file layout) to a
//! [`Recommendation`] can drive the DMA pipeline, the fleet assessor, the
//! drift monitor, and the engine registry. [`RecommendationBackend`] is that
//! seam, extracted from [`DopplerEngine`]:
//!
//! * [`DopplerEngine`] is the default implementation (the paper's engine);
//! * [`crate::learned::LearnedBackend`] is a Lorentz-style learned engine —
//!   nearest-neighbour over normalized workload fingerprints with a
//!   similarity-floor fallback to the heuristic;
//! * third-party backends implement the trait and plug into every layer
//!   unchanged.
//!
//! Training is deliberately *not* on the trait (it would not be
//! object-safe and every backend has its own hyper-parameters); instead
//! [`BackendSpec`] names a backend + its training configuration, and the
//! [`crate::registry::EngineRegistry`] dispatches `spec.train(..)` under its
//! single-flight slot, memoizing the resulting
//! `Arc<dyn RecommendationBackend>` keyed by
//! `(catalog key, backend fingerprint, template, training fingerprint)`.
//!
//! ```
//! use doppler_core::backend::{BackendSpec, RecommendationBackend};
//! use doppler_core::{DopplerEngine, EngineConfig};
//! use doppler_catalog::{azure_paas_catalog, CatalogSpec, DeploymentType};
//! use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};
//!
//! let catalog = azure_paas_catalog(&CatalogSpec::default());
//! let config = EngineConfig::production(DeploymentType::SqlDb);
//! let backend = BackendSpec::Heuristic.train(catalog, config, &[]);
//! let history = PerfHistory::new()
//!     .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![0.4; 96]));
//! let rec = backend.recommend(&history, None);
//! assert!(rec.sku_id.is_some());
//! ```

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use doppler_catalog::{Catalog, FileLayout, Fingerprint};
use doppler_telemetry::PerfHistory;

use crate::confidence::{confidence_score, ConfidenceConfig};
use crate::engine::{DopplerEngine, EngineConfig, Recommendation, TrainingRecord};
use crate::learned::{LearnedBackend, LearnedConfig};

/// A SKU-recommendation engine: the object-safe seam between the training
/// side (catalog + migrated customers) and every consumer (DMA pipeline,
/// fleet assessor/service, drift monitor, registry).
///
/// # Contract
///
/// * **Deterministic**: the same `(history, layout)` must always produce the
///   same [`Recommendation`] — fleet reports are compared bit-for-bit across
///   worker counts, so any internal randomness must be seeded from the
///   inputs.
/// * **Thread-safe**: backends are shared as `Arc<dyn RecommendationBackend>`
///   across worker pools; `recommend*` take `&self`.
/// * **Catalog-faithful**: [`Self::catalog`] and [`Self::config`] must
///   describe exactly what the backend recommends from — the drift probe and
///   the resource-use report derive SKU capacities from them.
pub trait RecommendationBackend: Send + Sync + fmt::Debug {
    /// Stable short identifier of the backend *kind* (`"heuristic"`,
    /// `"learned"`, ...). Folded into registry memo keys so two backends
    /// trained on the same catalog/training set never cross-serve.
    fn id(&self) -> &'static str;

    /// The catalog this backend recommends from.
    fn catalog(&self) -> &Catalog;

    /// The engine configuration (deployment, profiling, rates).
    fn config(&self) -> &EngineConfig;

    /// Profile the workload and recommend a SKU.
    fn recommend(&self, history: &PerfHistory, layout: Option<&FileLayout>) -> Recommendation;

    /// Recommend and attach the §3.4 bootstrap confidence score: the
    /// bootstrap resamples this backend's own [`recommend`](Self::recommend)
    /// over random windows of the history, whatever the backend is.
    fn recommend_with_confidence(
        &self,
        history: &PerfHistory,
        layout: Option<&FileLayout>,
        confidence: &ConfidenceConfig,
    ) -> Recommendation {
        let mut rec = self.recommend(history, layout);
        if let Some(original) = rec.sku_id.clone() {
            rec.confidence = Some(confidence_score(history, &original, confidence, |window| {
                self.recommend(window, layout).sku_id
            }));
        }
        rec
    }

    /// Deterministic content fingerprint over everything the backend
    /// learned; two backends fingerprint equal only if they recommend
    /// identically.
    fn fingerprint(&self) -> u64;

    /// The backend as [`Any`], so callers holding a trait object can
    /// downcast to the concrete backend (e.g. to read a heuristic engine's
    /// group model); return `self`.
    fn as_any(&self) -> &dyn Any;
}

impl RecommendationBackend for DopplerEngine {
    fn id(&self) -> &'static str {
        "heuristic"
    }

    fn catalog(&self) -> &Catalog {
        DopplerEngine::catalog(self)
    }

    fn config(&self) -> &EngineConfig {
        DopplerEngine::config(self)
    }

    fn recommend(&self, history: &PerfHistory, layout: Option<&FileLayout>) -> Recommendation {
        DopplerEngine::recommend(self, history, layout)
    }

    /// Equal to the provided method to the bit, but every window's curve
    /// comes from prefix counts built once per history.
    fn recommend_with_confidence(
        &self,
        history: &PerfHistory,
        layout: Option<&FileLayout>,
        confidence: &ConfidenceConfig,
    ) -> Recommendation {
        DopplerEngine::recommend_with_confidence(self, history, layout, confidence)
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_str("heuristic");
        fp.write_u64(DopplerEngine::catalog(self).fingerprint());
        // The config and the learned group model fully determine the
        // recommendation function; both hash via their canonical `Debug`
        // forms (derived, content-complete, and stable in-process).
        fp.write_str(&format!("{:?}", DopplerEngine::config(self)));
        fp.write_str(&format!("{:?}", self.group_model()));
        fp.finish()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Names a backend kind plus its training-time configuration — the
/// object-unsafe half of the backend contract ([`BackendSpec::train`] is the
/// `train`-from-`TrainingSet` constructor hook the trait cannot carry).
///
/// The registry folds [`BackendSpec::fingerprint`] into its memo key, so a
/// champion/challenger fleet training both kinds on the same
/// `(catalog key, template, training set)` gets exactly one training per
/// spec and never cross-serves a cached engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BackendSpec {
    /// The paper's heuristic/curve-matching [`DopplerEngine`].
    #[default]
    Heuristic,
    /// Lorentz-style learned nearest-neighbour backend
    /// ([`crate::learned::LearnedBackend`]).
    Learned(LearnedConfig),
}

impl BackendSpec {
    /// The stable backend-kind identifier (matches
    /// [`RecommendationBackend::id`] of the trained backend).
    pub fn id(&self) -> &'static str {
        match self {
            BackendSpec::Heuristic => "heuristic",
            BackendSpec::Learned(_) => "learned",
        }
    }

    /// Deterministic fingerprint over the backend kind *and* its
    /// hyper-parameters — part of the registry memo key: two learned
    /// configurations over one catalog/training key are two distinct memo
    /// slots.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_str(self.id());
        if let BackendSpec::Learned(cfg) = self {
            fp.write_f64(cfg.similarity_floor);
            fp.write_usize(cfg.max_profiles);
            fp.write_u64(cfg.seed);
        }
        fp.finish()
    }

    /// Train a backend of this kind on migrated customers.
    ///
    /// Panics on a degenerate learned-training corpus (see
    /// [`LearnedTrainError`](crate::LearnedTrainError)); the registry's
    /// single-flight slot converts that panic into a counted failure. Use
    /// [`BackendSpec::try_train`] to handle the typed error directly.
    pub fn train(
        &self,
        catalog: Catalog,
        config: EngineConfig,
        records: &[TrainingRecord],
    ) -> Arc<dyn RecommendationBackend> {
        // Only the learned kind can fail; panic with the message
        // `LearnedBackend::train` uses.
        self.try_train(catalog, config, records)
            .unwrap_or_else(|e| panic!("LearnedBackend::train: {e}"))
    }

    /// [`train`](BackendSpec::train) with degenerate corpora surfaced as
    /// typed errors instead of panics. The heuristic backend accepts any
    /// corpus and never errors.
    pub fn try_train(
        &self,
        catalog: Catalog,
        config: EngineConfig,
        records: &[TrainingRecord],
    ) -> Result<Arc<dyn RecommendationBackend>, crate::learned::LearnedTrainError> {
        match self {
            BackendSpec::Heuristic => Ok(Arc::new(DopplerEngine::train(catalog, config, records))),
            BackendSpec::Learned(cfg) => {
                Ok(Arc::new(LearnedBackend::try_train(catalog, config, *cfg, records)?))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_catalog::{azure_paas_catalog, CatalogSpec, DeploymentType};
    use doppler_telemetry::{PerfDimension, TimeSeries};

    fn history(cpu: f64) -> PerfHistory {
        PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 96]))
            .with(PerfDimension::Iops, TimeSeries::ten_minute(vec![120.0; 96]))
    }

    fn engine() -> DopplerEngine {
        DopplerEngine::untrained(
            azure_paas_catalog(&CatalogSpec::default()),
            EngineConfig::production(DeploymentType::SqlDb),
        )
    }

    #[test]
    fn trait_object_recommends_exactly_like_the_concrete_engine() {
        let concrete = engine();
        let dynamic: Arc<dyn RecommendationBackend> = Arc::new(concrete.clone());
        let h = history(0.6);
        assert_eq!(dynamic.recommend(&h, None), concrete.recommend(&h, None));
        assert_eq!(dynamic.id(), "heuristic");
    }

    #[test]
    fn as_any_downcasts_back_to_the_engine() {
        let dynamic: Arc<dyn RecommendationBackend> = Arc::new(engine());
        assert!(dynamic.as_any().downcast_ref::<DopplerEngine>().is_some());
    }

    #[test]
    fn spec_fingerprints_separate_backend_kinds_and_params() {
        let heuristic = BackendSpec::Heuristic.fingerprint();
        let learned = BackendSpec::Learned(LearnedConfig::default()).fingerprint();
        let tighter = BackendSpec::Learned(LearnedConfig {
            similarity_floor: 0.99,
            ..LearnedConfig::default()
        })
        .fingerprint();
        assert_ne!(heuristic, learned);
        assert_ne!(learned, tighter);
    }

    #[test]
    fn engine_fingerprint_tracks_training_content() {
        use doppler_catalog::SkuId;
        let a = engine();
        let records = vec![TrainingRecord {
            history: history(0.9),
            chosen_sku: SkuId("DB_GP_4".into()),
            file_layout: None,
        }];
        let b = DopplerEngine::train(
            azure_paas_catalog(&CatalogSpec::default()),
            EngineConfig::production(DeploymentType::SqlDb),
            &records,
        );
        assert_ne!(RecommendationBackend::fingerprint(&a), RecommendationBackend::fingerprint(&b));
        assert_eq!(
            RecommendationBackend::fingerprint(&a),
            RecommendationBackend::fingerprint(&engine())
        );
    }
}
