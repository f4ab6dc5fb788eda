//! # Doppler — automated SKU recommendation for SQL-to-cloud migration
//!
//! A from-scratch Rust reproduction of *"Doppler: Automated SKU
//! Recommendation in Migrating SQL Workloads to the Cloud"* (Cahoon et
//! al., PVLDB 15(12), 2022). This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`stats`] | `doppler-stats` | ECDF/AUC, STL/Loess, bootstrap, k-means, hierarchical clustering |
//! | [`catalog`] | `doppler-catalog` | Azure SQL PaaS SKU catalog, storage tiers, billing |
//! | [`telemetry`] | `doppler-telemetry` | perf-counter series, pre-aggregation, roll-up |
//! | [`workload`] | `doppler-workload` | synthetic traces, benchmark synthesis, customer cohorts |
//! | [`replay`] | `doppler-replay` | machine simulator for workload replay |
//! | [`engine`] | `doppler-core` | the Doppler engine: curves, profiling, matching, confidence, pluggable backends |
//! | [`dma`] | `doppler-dma` | Data Migration Assistant integration |
//! | [`fleet`] | `doppler-fleet` | concurrent fleet-scale batch assessment |
//! | [`obs`] | `doppler-obs` | metrics, latency histograms, span timers, ops dashboard |
//!
//! ## Quickstart
//!
//! ```
//! use doppler::prelude::*;
//!
//! // A two-week assessment of a small workload.
//! let history = doppler::workload::generate(
//!     &WorkloadArchetype::Steady.spec(1.0, 14.0),
//!     42,
//! );
//! let engine = DopplerEngine::untrained(
//!     azure_paas_catalog(&CatalogSpec::default()),
//!     EngineConfig::production(DeploymentType::SqlDb),
//! );
//! let rec = engine.recommend(&history, None);
//! assert!(rec.sku_id.is_some());
//! ```

#![forbid(unsafe_code)]

pub use doppler_catalog as catalog;
pub use doppler_core as engine;
pub use doppler_dma as dma;
pub use doppler_fleet as fleet;
pub use doppler_obs as obs;
pub use doppler_replay as replay;
pub use doppler_stats as stats;
pub use doppler_telemetry as telemetry;
pub use doppler_workload as workload;

/// The types most programs need, in one import.
pub mod prelude {
    pub use doppler_catalog::{
        azure_paas_catalog, BillingRates, Catalog, CatalogKey, CatalogProvider, CatalogRoll,
        CatalogSpec, CatalogVersion, DeploymentType, FeedError, FileLayout,
        InMemoryCatalogProvider, PriceFeed, RefreshableCatalogProvider, Region, ServiceTier, Sku,
        SkuId,
    };
    pub use doppler_core::{
        detect_drift, BackendSpec, BaselineStrategy, ConfidenceConfig, CurveShape, DopplerEngine,
        DriftReport, DriftSeverity, EngineConfig, EngineRegistry, EngineTemplate, GroupingStrategy,
        LearnedBackend, LearnedConfig, LearnedTrainError, NegotiabilityStrategy,
        PricePerformanceCurve, Recommendation, RecommendationBackend, RegistryError, RegistryStats,
        TrainingRecord, TrainingSet,
    };
    pub use doppler_dma::{
        AdoptionLedger, AssessmentRequest, AssessmentResult, SkuRecommendationPipeline,
    };
    pub use doppler_fleet::{
        Backtest, BacktestCase, BacktestReport, CatalogRollOutcome, DriftMonitor, DriftOutcome,
        DriftPass, DriftVerdict, EngineRoute, FleetAssessment, FleetAssessor, FleetConfig,
        FleetDriftReport, FleetReport, FleetRequest, FleetScheduler, FleetService,
        MonitoredCustomer, ScheduleSummary, ServiceProgress, SimClock, SimMonth, Ticket,
        TicketQueue,
    };
    pub use doppler_obs::{ObsRegistry, ObsSnapshot};
    pub use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};
    pub use doppler_workload::{DriftSpec, PopulationSpec, WorkloadArchetype, WorkloadSpec};
}
