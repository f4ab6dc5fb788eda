//! The SKU Recommendation Pipeline (§4): preprocessed input → Doppler
//! engine → packaged result.

use std::sync::Arc;

use doppler_catalog::{CatalogKey, DeploymentType, FileLayout};
use doppler_core::{
    BackendSpec, ConfidenceConfig, EngineRegistry, EngineTemplate, Recommendation,
    RecommendationBackend, RegistryError, TrainingSet,
};
use doppler_telemetry::PerfHistory;

use crate::preprocess::PreprocessedInstance;

/// One assessment request: an instance's preprocessed telemetry plus the
/// customer's target choice.
#[derive(Debug, Clone)]
pub struct AssessmentRequest {
    /// Identifier carried through to the ledger.
    pub instance_name: String,
    pub input: PreprocessedInstance,
    /// Whether to compute the §3.4 confidence score.
    pub confidence: Option<ConfidenceConfig>,
}

impl AssessmentRequest {
    /// Build a request from an already-aggregated instance-level history —
    /// the entry point batch callers (e.g. `doppler-fleet`) use when no
    /// per-database raw counters exist. The instance is recorded as one
    /// database (how DMA represents a server it could not enumerate) whose
    /// per-database history is left empty: assessment reads only the
    /// instance-level series and the database *count*, and duplicating a
    /// multi-week history per request would double fleet memory.
    pub fn from_history(
        instance_name: impl Into<String>,
        instance: PerfHistory,
        file_sizes_gib: Vec<f64>,
        confidence: Option<ConfidenceConfig>,
    ) -> AssessmentRequest {
        let instance_name = instance_name.into();
        let databases = vec![(format!("{instance_name}/db0"), PerfHistory::new())];
        AssessmentRequest {
            instance_name,
            input: PreprocessedInstance { instance, databases, file_sizes_gib },
            confidence,
        }
    }
}

/// One completed assessment: the decision and nothing else.
///
/// The instance name stays on the [`AssessmentRequest`]. The
/// [`ResourceUseReport`](crate::ResourceUseReport) dashboard is built on
/// demand from the request's history and this recommendation:
/// `ResourceUseReport::build(&request.input.instance, &result.recommendation)`.
#[derive(Debug, Clone)]
pub struct AssessmentResult {
    /// Number of databases assessed within the instance.
    pub databases_assessed: usize,
    pub recommendation: Recommendation,
}

/// The pipeline: a recommendation backend plus the glue.
///
/// Since the registry refactor the pipeline does not *own* its engine: it
/// holds an `Arc<dyn RecommendationBackend>`, so cloning a pipeline (or
/// sharing it across fleets and services) bumps a reference count instead
/// of copying a trained model and its catalog — and since the backend
/// redesign the engine behind that `Arc` can be any
/// [`RecommendationBackend`] (the heuristic
/// [`DopplerEngine`](doppler_core::DopplerEngine), the learned
/// `LearnedBackend`, or a third-party implementation). Resolve backends
/// through an [`EngineRegistry`] with
/// [`from_registry`](SkuRecommendationPipeline::from_registry) /
/// [`from_registry_backend`](SkuRecommendationPipeline::from_registry_backend)
/// — one training per distinct
/// `(catalog key, backend, template, training set)` across every pipeline
/// in the process.
#[derive(Debug, Clone)]
pub struct SkuRecommendationPipeline {
    backend: Arc<dyn RecommendationBackend>,
}

impl SkuRecommendationPipeline {
    /// Wrap a trained backend this pipeline will be the only user of. For
    /// backends shared across consumers, prefer
    /// [`from_shared`](SkuRecommendationPipeline::from_shared) or
    /// [`from_registry`](SkuRecommendationPipeline::from_registry).
    pub fn new(backend: impl RecommendationBackend + 'static) -> SkuRecommendationPipeline {
        SkuRecommendationPipeline::from_shared(Arc::new(backend))
    }

    /// Wrap an already-shared backend — a reference-count bump, no model or
    /// catalog copies.
    pub fn from_shared(backend: Arc<dyn RecommendationBackend>) -> SkuRecommendationPipeline {
        SkuRecommendationPipeline { backend }
    }

    /// Resolve the default (heuristic) backend through a registry
    /// (training it on first use, sharing it afterwards) and wrap it.
    pub fn from_registry(
        registry: &EngineRegistry,
        key: &CatalogKey,
        template: &EngineTemplate,
        training: &TrainingSet,
    ) -> Result<SkuRecommendationPipeline, RegistryError> {
        Ok(SkuRecommendationPipeline::from_shared(registry.get_or_train(key, template, training)?))
    }

    /// Resolve a specific backend kind through a registry and wrap it.
    pub fn from_registry_backend(
        registry: &EngineRegistry,
        key: &CatalogKey,
        template: &EngineTemplate,
        training: &TrainingSet,
        backend: &BackendSpec,
    ) -> Result<SkuRecommendationPipeline, RegistryError> {
        Ok(SkuRecommendationPipeline::from_shared(
            registry.get_or_train_backend(key, template, training, backend)?,
        ))
    }

    /// The backend in use — the canonical accessor (also the shared handle:
    /// clone it to hold the backend, `Arc::ptr_eq` it to compare
    /// allocations).
    pub fn backend(&self) -> &Arc<dyn RecommendationBackend> {
        &self.backend
    }

    /// The deployment target this pipeline's backend was configured for —
    /// the routing key batch layers (e.g. `doppler-fleet`) dispatch on.
    pub fn deployment(&self) -> DeploymentType {
        self.backend.config().deployment
    }

    /// Assess one instance and return its decision. No Resource Use
    /// report is built here; callers that show the dashboard build it from
    /// the request's history and the returned recommendation.
    pub fn assess(&self, request: &AssessmentRequest) -> AssessmentResult {
        let history: &PerfHistory = &request.input.instance;
        let layout = (self.backend.config().deployment == DeploymentType::SqlMi
            && !request.input.file_sizes_gib.is_empty())
        .then(|| FileLayout::from_sizes(&request.input.file_sizes_gib));

        let recommendation = match &request.confidence {
            Some(cfg) => self.backend.recommend_with_confidence(history, layout.as_ref(), cfg),
            None => self.backend.recommend(history, layout.as_ref()),
        };
        AssessmentResult { databases_assessed: request.input.databases.len(), recommendation }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResourceUseReport;
    use doppler_catalog::{azure_paas_catalog, CatalogSpec};
    use doppler_core::engine::EngineConfig;
    use doppler_core::DopplerEngine;
    use doppler_telemetry::{PerfDimension, TimeSeries};

    fn pipeline(deployment: DeploymentType) -> SkuRecommendationPipeline {
        let engine = DopplerEngine::untrained(
            azure_paas_catalog(&CatalogSpec::default()),
            EngineConfig::production(deployment),
        );
        SkuRecommendationPipeline::new(engine)
    }

    fn request(deployment_files: Vec<f64>) -> AssessmentRequest {
        let history = PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![0.5; 300]))
            .with(PerfDimension::Memory, TimeSeries::ten_minute(vec![2.0; 300]))
            .with(PerfDimension::Iops, TimeSeries::ten_minute(vec![80.0; 300]))
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.5; 300]));
        AssessmentRequest {
            instance_name: "inst-1".into(),
            input: PreprocessedInstance {
                instance: history.clone(),
                databases: vec![("db1".into(), history)],
                file_sizes_gib: deployment_files,
            },
            confidence: None,
        }
    }

    #[test]
    fn db_assessment_recommends_cheapest_gp() {
        let result = pipeline(DeploymentType::SqlDb).assess(&request(vec![]));
        assert_eq!(result.recommendation.sku_id.as_deref(), Some("DB_GP_2"));
        assert_eq!(result.databases_assessed, 1);
    }

    #[test]
    fn mi_assessment_uses_the_file_layout() {
        let result = pipeline(DeploymentType::SqlMi).assess(&request(vec![100.0, 100.0]));
        let mi = result.recommendation.mi.as_ref().expect("MI context");
        assert_eq!(mi.gp_iops_limit, 1000.0);
    }

    #[test]
    fn confidence_is_attached_when_requested() {
        let mut req = request(vec![]);
        req.confidence = Some(ConfidenceConfig { replicates: 8, window_samples: 60, seed: 1 });
        let result = pipeline(DeploymentType::SqlDb).assess(&req);
        assert_eq!(result.recommendation.confidence, Some(1.0));
    }

    #[test]
    fn pipeline_reports_its_deployment() {
        assert_eq!(pipeline(DeploymentType::SqlMi).deployment(), DeploymentType::SqlMi);
        assert_eq!(pipeline(DeploymentType::SqlDb).deployment(), DeploymentType::SqlDb);
    }

    #[test]
    fn report_is_produced() {
        let req = request(vec![]);
        let result = pipeline(DeploymentType::SqlDb).assess(&req);
        let report = ResourceUseReport::build(&req.input.instance, &result.recommendation);
        assert!(!report.dimension_summaries.is_empty());
    }

    #[test]
    fn registry_resolved_pipelines_share_one_engine() {
        use doppler_catalog::InMemoryCatalogProvider;
        let registry = EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production()));
        let key = CatalogKey::production(DeploymentType::SqlDb);
        let a = SkuRecommendationPipeline::from_registry(
            &registry,
            &key,
            &EngineTemplate::production(),
            &TrainingSet::empty(),
        )
        .unwrap();
        let b = SkuRecommendationPipeline::from_registry(
            &registry,
            &key,
            &EngineTemplate::production(),
            &TrainingSet::empty(),
        )
        .unwrap();
        assert!(Arc::ptr_eq(a.backend(), b.backend()), "one engine, two pipelines");
        assert_eq!(registry.stats().misses, 1);
        // Cloning a pipeline is a reference-count bump, not a model copy.
        let c = a.clone();
        assert!(Arc::ptr_eq(a.backend(), c.backend()));
        assert_eq!(
            a.assess(&request(vec![])).recommendation,
            b.assess(&request(vec![])).recommendation
        );
    }

    #[test]
    fn registry_resolves_learned_backend_pipelines() {
        use doppler_catalog::InMemoryCatalogProvider;
        use doppler_core::{LearnedBackend, LearnedConfig};
        let registry = EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production()));
        let key = CatalogKey::production(DeploymentType::SqlDb);
        let spec = BackendSpec::Learned(LearnedConfig::default());
        let p = SkuRecommendationPipeline::from_registry_backend(
            &registry,
            &key,
            &EngineTemplate::production(),
            &TrainingSet::empty(),
            &spec,
        )
        .unwrap();
        assert_eq!(p.backend().id(), "learned");
        assert!(p.backend().as_any().downcast_ref::<LearnedBackend>().is_some());
        // An empty corpus means the learned backend is pure fallback.
        let direct = pipeline(DeploymentType::SqlDb);
        assert_eq!(
            p.assess(&request(vec![])).recommendation,
            direct.assess(&request(vec![])).recommendation
        );
    }
}
