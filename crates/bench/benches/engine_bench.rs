//! End-to-end engine benchmarks: training throughput and per-assessment
//! latency — the "make sure the solution can scale" design goal of §3.1.

use criterion::{criterion_group, criterion_main, Criterion};
use doppler_bench::backtest;
use doppler_catalog::{azure_paas_catalog, CatalogSpec, DeploymentType};
use doppler_core::{DopplerEngine, EngineConfig, TrainingRecord};
use doppler_workload::PopulationSpec;

fn training_records(n: usize) -> Vec<TrainingRecord> {
    let cat = azure_paas_catalog(&CatalogSpec::default());
    backtest::training_records(
        &PopulationSpec { days: 7.0, ..PopulationSpec::sql_db(n, 3) }.customers(&cat),
    )
}

fn bench_training(c: &mut Criterion) {
    let cat = azure_paas_catalog(&CatalogSpec::default());
    let records = training_records(100);
    let mut group = c.benchmark_group("engine_training");
    group.sample_size(10);
    group.bench_function("train_100_customers_7d", |b| {
        b.iter(|| {
            DopplerEngine::train(
                cat.clone(),
                EngineConfig::production(DeploymentType::SqlDb),
                std::hint::black_box(&records),
            )
        })
    });
    group.finish();
}

fn bench_recommendation(c: &mut Criterion) {
    let cat = azure_paas_catalog(&CatalogSpec::default());
    let records = training_records(60);
    let engine =
        DopplerEngine::train(cat, EngineConfig::production(DeploymentType::SqlDb), &records);
    let history = &records[0].history;
    c.bench_function("recommend_one_7d_history", |b| {
        b.iter(|| engine.recommend(std::hint::black_box(history), None))
    });
}

fn bench_baseline_for_contrast(c: &mut Criterion) {
    let cat = azure_paas_catalog(&CatalogSpec::default());
    let records = training_records(10);
    let history = &records[0].history;
    let baseline = doppler_core::BaselineStrategy::p95();
    c.bench_function("baseline_recommend_one_7d_history", |b| {
        b.iter(|| baseline.recommend(std::hint::black_box(history), &cat, DeploymentType::SqlDb))
    });
}

criterion_group!(benches, bench_training, bench_recommendation, bench_baseline_for_contrast);
criterion_main!(benches);
