//! Engine-registry hot paths: cold resolution (one full training run),
//! warm resolution (map read lock + `Arc` bump), and mixed-region
//! fleet throughput against the pre-registry baseline of retraining per
//! run.
//!
//! The headline number is `cold_vs_warm`: warm resolution must be at
//! least an order of magnitude cheaper than cold training — on any real
//! host it is several orders — which is what turns N-trainings-per-fleet
//! into one-training-per-key fleet-wide.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use doppler_catalog::{
    azure_paas_catalog, CatalogKey, CatalogProvider, CatalogSpec, CatalogVersion, DeploymentType,
    InMemoryCatalogProvider, PriceFeed, RefreshableCatalogProvider, Region,
};
use doppler_core::{EngineRegistry, EngineTemplate, TrainingRecord, TrainingSet};
use doppler_fleet::{cloud_fleet, EngineRoute, FleetAssessor, FleetConfig, FleetRequest};
use doppler_workload::PopulationSpec;

const REGIONS: [(&str, f64); 3] = [("global", 1.0), ("westeurope", 1.08), ("eastasia", 1.12)];
const FLEET_PER_REGION: usize = 24;

fn provider() -> InMemoryCatalogProvider {
    // `global` is re-registered at multiplier 1.0 — same contents as
    // `production()`, kept uniform with the other regions.
    REGIONS.iter().fold(InMemoryCatalogProvider::new(), |p, &(region, multiplier)| {
        p.with_region(
            Region::new(region),
            CatalogVersion::INITIAL,
            &CatalogSpec::default(),
            multiplier,
        )
    })
}

/// A migrated training cohort big enough that cold training visibly
/// dwarfs the warm lookup.
fn training() -> TrainingSet {
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let spec = PopulationSpec { days: 1.0, ..PopulationSpec::sql_db(16, 909) };
    TrainingSet::new(
        spec.stream_customers(&catalog)
            .map(|c| TrainingRecord {
                history: c.history,
                chosen_sku: c.chosen_sku,
                file_layout: c.file_layout,
            })
            .collect::<Vec<_>>(),
    )
}

fn db_key(region: &str) -> CatalogKey {
    CatalogKey::new(DeploymentType::SqlDb, Region::new(region), CatalogVersion::INITIAL)
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let training = training();
    let template = EngineTemplate::production();
    let mut group = c.benchmark_group("registry_resolution");
    group.sample_size(10);

    // Cold: a fresh registry per iteration — every resolution trains.
    group.bench_function("cold_training", |b| {
        b.iter(|| {
            let registry = EngineRegistry::new(Arc::new(provider()));
            std::hint::black_box(
                registry.get_or_train(&db_key("global"), &template, &training).unwrap(),
            )
        })
    });

    // Warm: one registry, trained once up front — every resolution is a
    // sharded read lock + Arc bump.
    let registry = EngineRegistry::new(Arc::new(provider()));
    registry.get_or_train(&db_key("global"), &template, &training).unwrap();
    group.bench_function("warm_resolution", |b| {
        b.iter(|| {
            std::hint::black_box(
                registry.get_or_train(&db_key("global"), &template, &training).unwrap(),
            )
        })
    });
    group.finish();
}

fn mixed_region_fleet() -> Vec<FleetRequest> {
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    REGIONS
        .iter()
        .enumerate()
        .flat_map(|(i, &(region, _))| {
            let spec = PopulationSpec {
                days: 1.0,
                ..PopulationSpec::sql_db(FLEET_PER_REGION, 50 + i as u64)
            }
            .in_region(Region::new(region));
            cloud_fleet(&spec, &catalog, None).collect::<Vec<_>>()
        })
        .collect()
}

fn registry_assessor(registry: &Arc<EngineRegistry>, workers: usize) -> FleetAssessor {
    let mut config = FleetConfig::with_workers(workers);
    config.keep_results = false;
    FleetAssessor::over_registry(Arc::clone(registry), config)
        .with_route(EngineRoute::production(db_key("global")).trained(training()))
}

fn bench_mixed_region_fleet(c: &mut Criterion) {
    let fleet = mixed_region_fleet();
    let mut group = c.benchmark_group(format!(
        "mixed_region_fleet_{}x{}_instances",
        REGIONS.len(),
        FLEET_PER_REGION
    ));
    group.sample_size(10);

    // Warm-registry throughput: engines for all three regions are trained
    // on the first iteration and shared ever after, so steady-state cost
    // is pure assessment.
    for workers in [1usize, 4] {
        let registry = Arc::new(EngineRegistry::new(Arc::new(provider())));
        let assessor = registry_assessor(&registry, workers);
        group.bench_with_input(
            BenchmarkId::new("registry_warm/workers", workers),
            &fleet,
            |b, fleet| b.iter(|| assessor.assess(std::hint::black_box(fleet.clone())).report),
        );
    }

    // The pre-registry baseline: a fresh registry per run — every region's
    // engine retrains every fleet, which is what per-run pipelines cost.
    group.bench_with_input(
        BenchmarkId::new("retrain_per_run/workers", 4usize),
        &fleet,
        |b, fleet| {
            b.iter(|| {
                let registry = Arc::new(EngineRegistry::new(Arc::new(provider())));
                let assessor = registry_assessor(&registry, 4);
                assessor.assess(std::hint::black_box(fleet.clone())).report
            })
        },
    );
    group.finish();
}

/// Feed-roll latency: how long one `apply_feed` takes — re-price the
/// region's catalog, fingerprint it, bump the version, log the roll — and
/// the retire-then-retrain round trip a roll costs the registry.
fn bench_feed_roll(c: &mut Criterion) {
    let mut group = c.benchmark_group("feed_roll");
    group.sample_size(10);

    let provider = RefreshableCatalogProvider::production();
    group.bench_function("apply_feed_reprice", |b| {
        // Alternate a cut and its inverse so rates stay bounded while
        // every feed is a real (non-idempotent) roll.
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let m = if flip { 0.95 } else { 1.0 / 0.95 };
            std::hint::black_box(
                provider.apply_feed(&Region::global(), PriceFeed::Multiplier(m)).unwrap(),
            )
        })
    });

    group.bench_function("roll_retire_and_retrain", |b| {
        let provider = Arc::new(RefreshableCatalogProvider::production());
        let registry = EngineRegistry::new(Arc::clone(&provider) as Arc<dyn CatalogProvider>);
        let template = EngineTemplate::production();
        let training = training();
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let m = if flip { 0.95 } else { 1.0 / 0.95 };
            let rolls = provider.apply_feed(&Region::global(), PriceFeed::Multiplier(m)).unwrap();
            let roll = &rolls[0];
            registry.retire_version(&roll.old_key);
            std::hint::black_box(
                registry.get_or_train(&roll.new_key, &template, &training).unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cold_vs_warm, bench_mixed_region_fleet, bench_feed_roll);
criterion_main!(benches);
