//! Champion/challenger (A/B) fleets: route one cohort through two
//! recommendation backends and compare them side by side.
//!
//! The backend redesign makes a second engine cheap to *run*; this module
//! makes it cheap to *judge*. An [`AbFleet`] wraps two [`FleetAssessor`]s —
//! the **champion** (typically the production heuristic) and the
//! **challenger** (e.g. the learned backend) — and assesses the same cohort
//! through both, pairing the per-instance results by submission index:
//!
//! * both sides inherit the fleet layer's determinism (submission-order
//!   aggregation), so the comparison is bit-for-bit reproducible at any
//!   worker count;
//! * when both assessors resolve through one shared
//!   [`EngineRegistry`](doppler_core::EngineRegistry), the backend spec is
//!   part of the memo key, so the run costs exactly one training per
//!   `(key, backend)` and the sides can never cross-serve engines;
//! * the outcome is the champion's [`FleetReport`] with
//!   [`FleetReport::ab`] populated: side-by-side cost / confidence /
//!   recommendation-count columns, SKU agreement, and an adoption row
//!   estimating what switching to the challenger where it is cheaper would
//!   save — rendered in the ASCII dashboard and exported via
//!   [`doppler_dma::json`] ([`ab_summary_to_json`]).
//!
//! ```
//! use doppler_core::{DopplerEngine, EngineConfig};
//! use doppler_catalog::{azure_paas_catalog, CatalogSpec, DeploymentType};
//! use doppler_fleet::{AbFleet, FleetAssessor, FleetConfig, FleetRequest};
//! use doppler_dma::AssessmentRequest;
//! use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};
//!
//! let engine = || DopplerEngine::untrained(
//!     azure_paas_catalog(&CatalogSpec::default()),
//!     EngineConfig::production(DeploymentType::SqlDb),
//! );
//! let champion = FleetAssessor::new(engine(), FleetConfig::with_workers(2));
//! let challenger = FleetAssessor::new(engine(), FleetConfig::with_workers(2));
//! let cohort: Vec<FleetRequest> = (0..4)
//!     .map(|i| {
//!         let history = PerfHistory::new()
//!             .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![0.4; 96]));
//!         FleetRequest::new(
//!             DeploymentType::SqlDb,
//!             AssessmentRequest::from_history(
//!                 format!("db-{i}"),
//!                 history,
//!                 vec![],
//!                 None,
//!             ),
//!         )
//!     })
//!     .collect();
//! let outcome = AbFleet::new(champion, challenger).assess(cohort);
//! let ab = outcome.report.ab.as_ref().expect("A/B summary attached");
//! assert_eq!(ab.paired, 4);
//! assert_eq!(ab.sku_agreements, 4, "identical backends always agree");
//! ```

use doppler_dma::json::Json;

use crate::assessor::{FleetAssessment, FleetAssessor, FleetRequest};
use crate::report::FleetReport;

/// One side's aggregate columns in an A/B comparison.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AbSideSummary {
    /// The backend id serving this side (`"heuristic"`, `"learned"`, ...),
    /// or a caller-supplied label.
    pub backend: String,
    /// Instances with a concrete SKU recommendation.
    pub recommended: usize,
    /// Instances that failed or were unplaceable.
    pub unrecommended: usize,
    /// Total monthly bill over the recommended instances.
    pub total_monthly_cost: f64,
    /// Mean monthly cost per recommended instance.
    pub mean_monthly_cost: Option<f64>,
    /// Mean confidence over instances that carried a score.
    pub mean_confidence: Option<f64>,
}

/// The adoption row: what switching to the challenger would change, over
/// the instances where both sides recommended.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AbAdoption {
    /// Paired instances where the challenger proposed a *different* SKU at
    /// a strictly lower monthly cost.
    pub challenger_cheaper: usize,
    /// Total monthly savings from adopting the challenger on exactly those
    /// instances (positive = challenger saves money).
    pub projected_monthly_savings: f64,
}

/// Side-by-side champion/challenger comparison, attached to
/// [`FleetReport::ab`] by [`AbFleet::assess`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AbSummary {
    pub champion: AbSideSummary,
    pub challenger: AbSideSummary,
    /// Instances paired across both runs (the cohort size).
    pub paired: usize,
    /// Pairs where both sides produced a concrete SKU.
    pub both_recommended: usize,
    /// Of those, pairs recommending the *same* SKU.
    pub sku_agreements: usize,
    pub adoption: AbAdoption,
}

impl AbSummary {
    /// SKU agreement as a fraction of pairs where both sides recommended;
    /// `None` when no pair did.
    pub fn agreement_rate(&self) -> Option<f64> {
        (self.both_recommended > 0)
            .then(|| self.sku_agreements as f64 / self.both_recommended as f64)
    }
}

/// The outcome of an A/B run: the champion's report with the comparison
/// attached, plus both sides' full assessments for drill-down.
#[derive(Debug, Clone)]
pub struct AbAssessment {
    /// The champion's [`FleetReport`] with [`FleetReport::ab`] populated —
    /// what a dashboard renders.
    pub report: FleetReport,
    pub champion: FleetAssessment,
    pub challenger: FleetAssessment,
}

/// A champion/challenger harness over two [`FleetAssessor`]s. See the
/// [module docs](self) for the full walkthrough.
pub struct AbFleet {
    champion: FleetAssessor,
    challenger: FleetAssessor,
    champion_label: Option<String>,
    challenger_label: Option<String>,
}

impl AbFleet {
    /// Pair a champion and a challenger assessor. Build each side with its
    /// own backend (via [`FleetAssessor::new`],
    /// [`with_backend`](FleetAssessor::with_backend), or registry routes
    /// with distinct [`BackendSpec`](doppler_core::BackendSpec)s); sharing
    /// one registry between the sides is safe and costs one training per
    /// `(key, backend)`.
    pub fn new(champion: FleetAssessor, challenger: FleetAssessor) -> AbFleet {
        AbFleet { champion, challenger, champion_label: None, challenger_label: None }
    }

    /// Override the side labels reported in the summary (defaults to each
    /// side's backend id where resolvable, else `"champion"` /
    /// `"challenger"`).
    pub fn with_labels(
        mut self,
        champion: impl Into<String>,
        challenger: impl Into<String>,
    ) -> AbFleet {
        self.champion_label = Some(champion.into());
        self.challenger_label = Some(challenger.into());
        self
    }

    /// The champion-side assessor.
    pub fn champion(&self) -> &FleetAssessor {
        &self.champion
    }

    /// The challenger-side assessor.
    pub fn challenger(&self) -> &FleetAssessor {
        &self.challenger
    }

    /// Assess the cohort through both sides and pair the results by
    /// submission index. Deterministic at any worker count: each side's
    /// results are in submission order, so pairing, agreement counts, and
    /// the adoption row are functions of the cohort alone.
    pub fn assess(&self, cohort: Vec<FleetRequest>) -> AbAssessment {
        let champion_run = self.champion.assess(cohort.iter().cloned());
        let challenger_run = self.challenger.assess(cohort);
        let summary = self.summarize(&champion_run, &challenger_run);
        let mut report = champion_run.report.clone();
        report.ab = Some(summary);
        AbAssessment { report, champion: champion_run, challenger: challenger_run }
    }

    fn side_label(
        &self,
        assessor: &FleetAssessor,
        explicit: &Option<String>,
        role: &str,
    ) -> String {
        if let Some(label) = explicit {
            return label.clone();
        }
        // A fixed pipeline knows its backend id directly; a registry route
        // carries it in its spec. Mixed-backend sides (different ids per
        // deployment) fall back to the role name.
        let mut ids: Vec<&str> =
            [doppler_catalog::DeploymentType::SqlDb, doppler_catalog::DeploymentType::SqlMi]
                .into_iter()
                .filter_map(|d| assessor.pipeline_for(d).map(|p| p.backend().id()))
                .chain(assessor.routes().map(|route| route.backend.id()))
                .collect();
        ids.sort_unstable();
        ids.dedup();
        match ids.as_slice() {
            [id] => (*id).to_string(),
            _ => role.to_string(),
        }
    }

    fn summarize(&self, champion: &FleetAssessment, challenger: &FleetAssessment) -> AbSummary {
        debug_assert_eq!(
            champion.results.len(),
            challenger.results.len(),
            "A/B sides assessed different cohort sizes"
        );
        let paired = champion.results.len().min(challenger.results.len());
        let mut both_recommended = 0usize;
        let mut sku_agreements = 0usize;
        let mut challenger_cheaper = 0usize;
        let mut projected_monthly_savings = 0.0f64;
        for (a, b) in champion.results.iter().zip(&challenger.results) {
            let a_rec = a.outcome.as_ref().ok().map(|r| &r.recommendation);
            let b_rec = b.outcome.as_ref().ok().map(|r| &r.recommendation);
            let (Some(a_rec), Some(b_rec)) = (a_rec, b_rec) else { continue };
            let (Some(a_sku), Some(b_sku)) = (&a_rec.sku_id, &b_rec.sku_id) else { continue };
            both_recommended += 1;
            if a_sku == b_sku {
                sku_agreements += 1;
            } else if let (Some(a_cost), Some(b_cost)) = (a_rec.monthly_cost, b_rec.monthly_cost) {
                if b_cost < a_cost {
                    challenger_cheaper += 1;
                    projected_monthly_savings += a_cost - b_cost;
                }
            }
        }
        AbSummary {
            champion: side_summary(
                self.side_label(&self.champion, &self.champion_label, "champion"),
                champion,
            ),
            challenger: side_summary(
                self.side_label(&self.challenger, &self.challenger_label, "challenger"),
                challenger,
            ),
            paired,
            both_recommended,
            sku_agreements,
            adoption: AbAdoption { challenger_cheaper, projected_monthly_savings },
        }
    }
}

fn side_summary(backend: String, run: &FleetAssessment) -> AbSideSummary {
    let report = &run.report;
    let mean_confidence = report.confidence.as_ref().map(|c| c.mean);
    AbSideSummary {
        backend,
        recommended: report.recommended,
        unrecommended: report.fleet_size - report.recommended,
        total_monthly_cost: report.total_monthly_cost,
        mean_monthly_cost: report.mean_monthly_cost,
        mean_confidence,
    }
}

fn side_to_json(side: &AbSideSummary) -> Json {
    Json::Obj(vec![
        ("backend".into(), Json::Str(side.backend.clone())),
        ("recommended".into(), Json::Num(side.recommended as f64)),
        ("unrecommended".into(), Json::Num(side.unrecommended as f64)),
        ("total_monthly_cost".into(), Json::Num(side.total_monthly_cost)),
        ("mean_monthly_cost".into(), side.mean_monthly_cost.map_or(Json::Null, Json::Num)),
        ("mean_confidence".into(), side.mean_confidence.map_or(Json::Null, Json::Num)),
    ])
}

fn side_from_json(json: &Json) -> Option<AbSideSummary> {
    Some(AbSideSummary {
        backend: json.get("backend")?.as_str()?.to_string(),
        recommended: json.get("recommended")?.as_f64()? as usize,
        unrecommended: json.get("unrecommended")?.as_f64()? as usize,
        total_monthly_cost: json.get("total_monthly_cost")?.as_f64()?,
        mean_monthly_cost: json.get("mean_monthly_cost")?.non_null().and_then(Json::as_f64),
        mean_confidence: json.get("mean_confidence")?.non_null().and_then(Json::as_f64),
    })
}

/// Export an [`AbSummary`] as a [`doppler_dma::json`] value — the A/B
/// analogue of the obs-snapshot export, losslessly re-parsable with
/// [`ab_summary_from_json`].
pub fn ab_summary_to_json(summary: &AbSummary) -> Json {
    Json::Obj(vec![
        ("champion".into(), side_to_json(&summary.champion)),
        ("challenger".into(), side_to_json(&summary.challenger)),
        ("paired".into(), Json::Num(summary.paired as f64)),
        ("both_recommended".into(), Json::Num(summary.both_recommended as f64)),
        ("sku_agreements".into(), Json::Num(summary.sku_agreements as f64)),
        (
            "adoption".into(),
            Json::Obj(vec![
                (
                    "challenger_cheaper".into(),
                    Json::Num(summary.adoption.challenger_cheaper as f64),
                ),
                (
                    "projected_monthly_savings".into(),
                    Json::Num(summary.adoption.projected_monthly_savings),
                ),
            ]),
        ),
    ])
}

/// Re-parse an exported A/B summary; `None` on any structural mismatch.
pub fn ab_summary_from_json(json: &Json) -> Option<AbSummary> {
    let adoption = json.get("adoption")?;
    Some(AbSummary {
        champion: side_from_json(json.get("champion")?)?,
        challenger: side_from_json(json.get("challenger")?)?,
        paired: json.get("paired")?.as_f64()? as usize,
        both_recommended: json.get("both_recommended")?.as_f64()? as usize,
        sku_agreements: json.get("sku_agreements")?.as_f64()? as usize,
        adoption: AbAdoption {
            challenger_cheaper: adoption.get("challenger_cheaper")?.as_f64()? as usize,
            projected_monthly_savings: adoption.get("projected_monthly_savings")?.as_f64()?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_catalog::{azure_paas_catalog, CatalogSpec, DeploymentType, SkuId};
    use doppler_core::{
        BackendSpec, ConfidenceConfig, DopplerEngine, EngineConfig, LearnedBackend, LearnedConfig,
        TrainingRecord,
    };
    use doppler_dma::AssessmentRequest;
    use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};
    use std::sync::Arc;

    fn history(cpu: f64) -> PerfHistory {
        PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 96]))
            .with(PerfDimension::Memory, TimeSeries::ten_minute(vec![2.0; 96]))
            .with(PerfDimension::Iops, TimeSeries::ten_minute(vec![cpu * 200.0; 96]))
            .with(PerfDimension::LogRate, TimeSeries::ten_minute(vec![0.4; 96]))
    }

    fn engine() -> DopplerEngine {
        DopplerEngine::untrained(
            azure_paas_catalog(&CatalogSpec::default()),
            EngineConfig::production(DeploymentType::SqlDb),
        )
    }

    fn cohort(n: usize) -> Vec<FleetRequest> {
        (0..n)
            .map(|i| {
                let cpu = 0.2 + (i % 7) as f64 * 0.45;
                FleetRequest::new(
                    DeploymentType::SqlDb,
                    AssessmentRequest::from_history(
                        format!("cust-{i:03}"),
                        history(cpu),
                        vec![],
                        Some(ConfidenceConfig { replicates: 4, window_samples: 24, seed: 11 }),
                    ),
                )
            })
            .collect()
    }

    fn learned(records: &[TrainingRecord], floor: f64) -> LearnedBackend {
        LearnedBackend::train(
            azure_paas_catalog(&CatalogSpec::default()),
            EngineConfig::production(DeploymentType::SqlDb),
            LearnedConfig { similarity_floor: floor, ..LearnedConfig::default() },
            records,
        )
    }

    fn training() -> Vec<TrainingRecord> {
        (0..8)
            .map(|i| {
                let cpu = 0.2 + (i % 4) as f64 * 0.9;
                TrainingRecord {
                    history: history(cpu),
                    chosen_sku: SkuId(if cpu > 1.0 { "DB_GP_8".into() } else { "DB_GP_2".into() }),
                    file_layout: None,
                }
            })
            .collect()
    }

    #[test]
    fn identical_backends_agree_everywhere_with_zero_savings() {
        let ab = AbFleet::new(
            FleetAssessor::new(engine(), crate::FleetConfig::with_workers(2)),
            FleetAssessor::new(engine(), crate::FleetConfig::with_workers(3)),
        );
        let out = ab.assess(cohort(24));
        let s = out.report.ab.as_ref().expect("summary");
        assert_eq!(s.paired, 24);
        assert_eq!(s.both_recommended, s.sku_agreements);
        assert_eq!(s.agreement_rate(), Some(1.0));
        assert_eq!(s.adoption.challenger_cheaper, 0);
        assert_eq!(s.adoption.projected_monthly_savings, 0.0);
        assert_eq!(s.champion.backend, "heuristic");
        assert_eq!(s.champion.total_monthly_cost, s.challenger.total_monthly_cost);
    }

    #[test]
    fn shared_registry_trains_once_per_backend_and_key() {
        use doppler_catalog::{CatalogKey, InMemoryCatalogProvider};
        use doppler_core::{EngineRegistry, TrainingSet};
        let registry =
            Arc::new(EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production())));
        let key = CatalogKey::production(DeploymentType::SqlDb);
        let training = TrainingSet::new(training());
        let route = || crate::EngineRoute::production(key.clone()).trained(training.clone());
        let champion = FleetAssessor::over_registry(
            Arc::clone(&registry),
            crate::FleetConfig::with_workers(4),
        )
        .with_route(route());
        let challenger = FleetAssessor::over_registry(
            Arc::clone(&registry),
            crate::FleetConfig::with_workers(4),
        )
        .with_route(route().with_backend_spec(BackendSpec::Learned(LearnedConfig::default())));
        // No explicit labels: the sides are named from their routes' specs.
        let out = AbFleet::new(champion, challenger).assess(cohort(32));
        let stats = registry.stats();
        assert_eq!(stats.misses, 2, "one training per (key, backend)");
        assert_eq!(stats.failures, 0);
        let s = out.report.ab.as_ref().expect("summary");
        assert_eq!(s.paired, 32);
        assert_eq!(
            (s.champion.backend.as_str(), s.challenger.backend.as_str()),
            ("heuristic", "learned")
        );
    }

    #[test]
    fn json_export_round_trips_losslessly() {
        let ab = AbFleet::new(
            FleetAssessor::new(engine(), crate::FleetConfig::with_workers(2)),
            FleetAssessor::new(learned(&training(), 0.0), crate::FleetConfig::with_workers(2)),
        );
        let out = ab.assess(cohort(16));
        let summary = out.report.ab.clone().expect("summary");
        let rendered = ab_summary_to_json(&summary).render_pretty();
        let parsed = Json::parse(&rendered).expect("valid JSON");
        let round = ab_summary_from_json(&parsed).expect("structurally complete");
        assert_eq!(round, summary);
    }

    #[test]
    fn ab_section_renders_in_the_dashboard() {
        let ab = AbFleet::new(
            FleetAssessor::new(engine(), crate::FleetConfig::with_workers(2)),
            FleetAssessor::new(learned(&training(), 0.0), crate::FleetConfig::with_workers(2)),
        );
        let out = ab.assess(cohort(16));
        let text = out.report.render();
        assert!(text.contains("Champion/challenger"), "render:\n{text}");
        assert!(text.contains("heuristic"));
        assert!(text.contains("learned"));
        assert!(text.contains("SKU agreement"));
        assert!(text.contains("adopt challenger"));
    }
}
