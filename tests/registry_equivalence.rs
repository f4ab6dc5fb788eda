//! Registry-path equivalence and economy: a mixed-region fleet resolved
//! through the [`EngineRegistry`] must
//!
//! 1. perform **exactly K trainings** for K distinct
//!    `(deployment, region, version)` keys — asserted via the registry's
//!    hit/miss counters,
//! 2. produce reports and per-instance results **bit-for-bit identical**
//!    to the per-pipeline training path (each engine trained directly,
//!    requests assessed serially in submission order), under every
//!    deployment in `common::CONFIGS` alike, and
//! 3. make warm resolution dramatically cheaper than cold training (a
//!    coarse ≥ 10× guard keeps the property from regressing silently;
//!    `perfbench`'s `fleet_lifecycle` workload reports the registry's
//!    training time and hit ratio).

mod common;

use std::sync::Arc;
use std::time::Instant;

use common::{catalog, outcomes, provider, sweep, training_records, Config, REGIONS};
use doppler::fleet::cloud_fleet;
use doppler::fleet::FleetResult;
use doppler::prelude::*;

/// A small migrated cohort per deployment, used as the shared training
/// set — non-trivial training makes the warm/cold gap observable and the
/// determinism claim meaningful.
fn training_set(deployment: DeploymentType) -> TrainingSet {
    let spec = match deployment {
        DeploymentType::SqlDb => PopulationSpec::sql_db(8, 909),
        DeploymentType::SqlMi => PopulationSpec::sql_mi(8, 909),
    };
    TrainingSet::new(training_records(&PopulationSpec { days: 1.0, ..spec }))
}

/// The mixed fleet: an untagged SQL DB cohort (default key `DB@global`),
/// a West Europe SQL DB cohort, and an untagged SQL MI cohort — three
/// distinct catalog keys in one run, with month tags exercising the
/// adoption ledger.
fn mixed_fleet() -> Vec<FleetRequest> {
    let catalog = catalog();
    let db = PopulationSpec { days: 1.0, ..PopulationSpec::sql_db(24, 41) };
    let west = PopulationSpec { days: 1.0, ..PopulationSpec::sql_db(24, 42) }
        .in_region(Region::new("westeurope"));
    let mi = PopulationSpec { days: 1.0, ..PopulationSpec::sql_mi(16, 43) };
    cloud_fleet(&db, &catalog, None)
        .map(|r| r.with_month("Oct-21"))
        .chain(cloud_fleet(&west, &catalog, None).map(|r| r.with_month("Nov-21")))
        .chain(cloud_fleet(&mi, &catalog, None).map(|r| r.with_month("Nov-21")))
        .collect()
}

fn registry_assessor(config: Config) -> (Arc<EngineRegistry>, FleetAssessor) {
    let registry = Arc::new(EngineRegistry::new(Arc::new(provider())));
    let assessor = config
        .over_registry(Arc::clone(&registry))
        .with_route(
            EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb))
                .trained(training_set(DeploymentType::SqlDb)),
        )
        .with_route(
            EngineRoute::production(CatalogKey::production(DeploymentType::SqlMi))
                .trained(training_set(DeploymentType::SqlMi)),
        );
    (registry, assessor)
}

/// The per-pipeline training path: every distinct key's engine trained
/// directly (no registry), requests assessed serially in submission
/// order.
fn reference_results(fleet: &[FleetRequest]) -> Vec<FleetResult> {
    let train_for = |key: &CatalogKey| -> SkuRecommendationPipeline {
        let (_, multiplier) =
            REGIONS.into_iter().find(|(r, _)| key.region == Region::new(*r)).expect("known region");
        let rates = CatalogSpec::default().rates.scaled(multiplier);
        let spec = CatalogSpec { rates };
        let config = EngineConfig { rates, ..EngineConfig::production(key.deployment) };
        let training = training_set(key.deployment);
        SkuRecommendationPipeline::new(DopplerEngine::train(
            azure_paas_catalog(&spec),
            config,
            training.records(),
        ))
    };
    let mut pipelines: Vec<(CatalogKey, SkuRecommendationPipeline)> = Vec::new();
    fleet
        .iter()
        .enumerate()
        .map(|(index, request)| {
            let key = request
                .catalog_key
                .clone()
                .unwrap_or_else(|| CatalogKey::production(request.deployment));
            if !pipelines.iter().any(|(k, _)| *k == key) {
                let pipeline = train_for(&key);
                pipelines.push((key.clone(), pipeline));
            }
            let pipeline = &pipelines.iter().find(|(k, _)| *k == key).expect("just inserted").1;
            FleetResult {
                index,
                instance_name: request.request.instance_name.as_str().into(),
                deployment: request.deployment,
                month: request.month.clone(),
                outcome: Ok(pipeline.assess(&request.request)),
            }
        })
        .collect()
}

#[test]
fn mixed_region_fleet_trains_once_per_key_and_matches_the_per_pipeline_path() {
    let fleet = mixed_fleet();
    assert_eq!(fleet.len(), 64);

    let reference = reference_results(&fleet);
    let reference_report = FleetReport::from_results(&reference);
    assert_eq!(reference_report.failed, 0, "{:?}", reference_report.failures);

    // Bit-for-bit equality with the per-pipeline path: the aggregate
    // report (PartialEq over counts, f64 cost sums, histograms, and the
    // adoption ledger) and every per-instance result.
    sweep("report and results", &(reference_report, outcomes(&reference)), |config| {
        let (registry, assessor) = registry_assessor(config);
        let out = assessor.assess(fleet.clone());

        // Exactly K = 3 distinct keys were touched: DB@global#v1,
        // DB@westeurope#v1, MI@global#v1 — and exactly 3 trainings ran,
        // no matter how many workers raced the cold keys.
        let stats = registry.stats();
        assert_eq!(stats.misses, 3, "{config:?}: {stats:?}");
        assert_eq!(stats.failures, 0);
        assert_eq!(
            stats.hits + stats.coalesced + stats.misses,
            64,
            "every request resolved through the registry ({config:?})"
        );
        assert_eq!(registry.len(), 3);
        (out.report, outcomes(&out.results))
    });
}

#[test]
fn adoption_ledger_reproduces_from_the_single_fleet_run() {
    let (_registry, assessor) = registry_assessor(Config { workers: 4, ..Config::SERIAL });
    let out = assessor.assess(mixed_fleet());
    let oct = out.report.adoption.month("Oct-21").expect("tagged cohort");
    let nov = out.report.adoption.month("Nov-21").expect("tagged cohorts");
    assert_eq!(oct.unique_instances, 24);
    assert_eq!(nov.unique_instances, 40);
    assert_eq!(oct.unique_databases, 24, "from_history registers one db per instance");
    // Table 1's signature: recommendations generated far exceed unique
    // instances, because most workloads have several fully satisfying SKUs.
    assert!(
        nov.recommendations_generated > nov.unique_instances,
        "{} recommendations for {} instances",
        nov.recommendations_generated,
        nov.unique_instances
    );
    let text = out.report.render();
    assert!(text.contains("Adoption (Table 1)"), "{text}");
}

#[test]
fn warm_resolution_is_at_least_ten_times_cheaper_than_cold_training() {
    let registry = EngineRegistry::new(Arc::new(provider()));
    let key = CatalogKey::production(DeploymentType::SqlDb);
    let template = EngineTemplate::production();
    let training = training_set(DeploymentType::SqlDb);

    let cold_start = Instant::now();
    let engine = registry.get_or_train(&key, &template, &training).unwrap();
    let cold = cold_start.elapsed();

    const WARM_ITERS: u32 = 200;
    let warm_start = Instant::now();
    for _ in 0..WARM_ITERS {
        let warm = registry.get_or_train(&key, &template, &training).unwrap();
        assert!(Arc::ptr_eq(&warm, &engine));
    }
    let warm = warm_start.elapsed() / WARM_ITERS;

    // The bench quantifies the real gap (orders of magnitude); this guard
    // only has to be loose enough to never flake on a noisy CI container.
    assert!(cold >= warm * 10, "cold training {cold:?} should dwarf warm resolution {warm:?}");
    let stats = registry.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits + stats.coalesced, WARM_ITERS as u64);
}
