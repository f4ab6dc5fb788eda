//! Learned-backend costs: what a learned nearest-neighbour recommendation
//! costs next to the plain heuristic, what training the learned backend
//! costs, and what a replayed back-test costs per held-out case.
//!
//! `backend_recommend` shows the learned lookup is a small constant on top
//! of the heuristic it falls back to (the corpus scan is a few hundred
//! normalized-distance evaluations). `backtest_run` shows the harness
//! costs two fleet passes plus one queueing-machine replay per
//! (case, side), linear in the cohort.

use criterion::{criterion_group, criterion_main, Criterion};

use std::sync::Arc;

use doppler_catalog::{
    azure_paas_catalog, CatalogKey, CatalogSpec, DeploymentType, InMemoryCatalogProvider,
};
use doppler_core::{
    BackendSpec, DopplerEngine, EngineConfig, EngineRegistry, LearnedBackend, LearnedConfig,
    RecommendationBackend, TrainingRecord, TrainingSet,
};
use doppler_fleet::{Backtest, BacktestCase, EngineRoute, FleetAssessor, FleetConfig};
use doppler_workload::PopulationSpec;

const CORPUS: usize = 128;

fn config() -> EngineConfig {
    EngineConfig::production(DeploymentType::SqlDb)
}

fn training(n: usize) -> Vec<TrainingRecord> {
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let spec = PopulationSpec { days: 1.0, ..PopulationSpec::sql_db(n, 909) };
    spec.stream_customers(&catalog)
        .map(|c| TrainingRecord {
            history: c.history,
            chosen_sku: c.chosen_sku,
            file_layout: c.file_layout,
        })
        .collect()
}

fn learned(floor: f64, records: &[TrainingRecord]) -> LearnedBackend {
    LearnedBackend::train(
        azure_paas_catalog(&CatalogSpec::default()),
        config(),
        LearnedConfig { similarity_floor: floor, ..LearnedConfig::default() },
        records,
    )
}

/// Per-recommendation latency: heuristic alone, the learned backend doing
/// a real corpus lookup, and the learned backend with an unclearable floor
/// (pure fallback — the safeguard's overhead).
fn bench_backend_recommend(c: &mut Criterion) {
    let records = training(CORPUS);
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let heuristic = DopplerEngine::untrained(catalog.clone(), config());
    let open = learned(0.0, &records);
    let floored = learned(2.0, &records);
    let spec = PopulationSpec { days: 1.0, ..PopulationSpec::sql_db(1, 77) };
    let workload = spec.stream_customers(&catalog).next().expect("one customer").history;

    let mut group = c.benchmark_group(format!("backend_recommend_{CORPUS}_exemplars"));
    group.sample_size(10);
    group.bench_function("heuristic", |b| {
        b.iter(|| std::hint::black_box(heuristic.recommend(&workload, None)))
    });
    group.bench_function("learned_nn_lookup", |b| {
        b.iter(|| std::hint::black_box(RecommendationBackend::recommend(&open, &workload, None)))
    });
    group.bench_function("learned_floored_fallback", |b| {
        b.iter(|| std::hint::black_box(RecommendationBackend::recommend(&floored, &workload, None)))
    });
    group.finish();
}

/// Training cost of the default learned backend (mean + peak fingerprints,
/// no compression) over one corpus.
fn bench_learned_train(c: &mut Criterion) {
    let records = training(CORPUS);
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let mut group = c.benchmark_group(format!("learned_train_{CORPUS}_records"));
    group.sample_size(10);
    group.bench_function("mean_peak", |b| {
        b.iter(|| {
            std::hint::black_box(LearnedBackend::train(
                catalog.clone(),
                config(),
                LearnedConfig::default(),
                &records,
            ))
        })
    });
    group.finish();
}

/// End-to-end back-test cost over a held-out cohort: two assessor passes
/// plus two replays per case.
fn bench_backtest_run(c: &mut Criterion) {
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let records = training(64);
    let spec = PopulationSpec { days: 1.0, ..PopulationSpec::sql_db(64, 4242) };
    let cases: Vec<BacktestCase> =
        spec.customers(&catalog).iter().map(BacktestCase::from_customer).collect();
    let registry = Arc::new(EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production())));
    let side = |backend: BackendSpec, training: TrainingSet| {
        FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(4))
            .with_route(
                EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb))
                    .trained(training)
                    .with_backend_spec(backend),
            )
    };
    let learned = BackendSpec::Learned(LearnedConfig::default());
    let harness = Backtest::new(
        catalog.clone(),
        side(learned, TrainingSet::new(records)),
        side(BackendSpec::Heuristic, TrainingSet::empty()),
    );
    // One untimed run trains both engines: the iterations measure the
    // back-test, never training.
    std::hint::black_box(harness.run(&cases));
    let mut group = c.benchmark_group("backtest_run_64_cases");
    group.sample_size(10);
    group.bench_function("replay_scored", |b| b.iter(|| std::hint::black_box(harness.run(&cases))));
    group.finish();
}

criterion_group!(benches, bench_backend_recommend, bench_learned_train, bench_backtest_run);
criterion_main!(benches);
