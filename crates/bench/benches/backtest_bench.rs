//! Learned-backend training and back-test costs: what training the
//! learned backend costs, and what a replayed back-test costs per
//! held-out case.
//!
//! `backtest_run` shows the harness costs two fleet passes plus one
//! queueing-machine replay per (case, side), linear in the cohort.

use criterion::{criterion_group, criterion_main, Criterion};

use doppler_catalog::{azure_paas_catalog, CatalogSpec, DeploymentType};
use doppler_core::{DopplerEngine, EngineConfig, LearnedBackend, LearnedConfig, TrainingRecord};
use doppler_fleet::{Backtest, BacktestCase, FleetAssessor, FleetConfig};
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
    let learned =
        LearnedBackend::train(catalog.clone(), config(), LearnedConfig::default(), &records);
    let harness = Backtest::new(
        catalog.clone(),
        FleetAssessor::new(learned, FleetConfig::with_workers(4)),
        FleetAssessor::new(
            DopplerEngine::untrained(catalog.clone(), config()),
            FleetConfig::with_workers(4),
        ),
    );
    let mut group = c.benchmark_group("backtest_run_64_cases");
    group.sample_size(10);
    group.bench_function("replay_scored", |b| b.iter(|| std::hint::black_box(harness.run(&cases))));
    group.finish();
}

criterion_group!(benches, bench_learned_train, bench_backtest_run);
criterion_main!(benches);
