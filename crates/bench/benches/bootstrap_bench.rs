//! Confidence-score benchmarks: the §3.4 bootstrap re-runs the full
//! pipeline per replicate. The heuristic engine scores each window's SKUs
//! from prefix counts built once, so the per-window cost is profiling the
//! window's sample range and selecting from its cost-ordered scores; the
//! MI row also re-runs Step 1 (storage tiers) and builds a curve on every
//! window of a bursty-IO history. `db_14d` is the DMA user's request: a
//! trained production engine and a 14-day SQL DB cohort history;
//! `recommend/db_14d` is the same request with confidence off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use doppler_bench::backtest::training_records;
use doppler_catalog::{azure_paas_catalog, CatalogSpec, DeploymentType, FileLayout};
use doppler_core::{ConfidenceConfig, DopplerEngine, EngineConfig};
use doppler_workload::{generate, PopulationSpec, WorkloadArchetype};

fn bench_confidence(c: &mut Criterion) {
    let engine = DopplerEngine::untrained(
        azure_paas_catalog(&CatalogSpec::default()),
        EngineConfig::production(DeploymentType::SqlDb),
    );
    let history = generate(&WorkloadArchetype::Diurnal.spec(6.0, 30.0), 3);
    let mut group = c.benchmark_group("confidence_score");
    group.sample_size(10);
    for replicates in [10usize, 30] {
        group.bench_with_input(
            BenchmarkId::new("replicates", replicates),
            &replicates,
            |b, &replicates| {
                b.iter(|| {
                    engine.recommend_with_confidence(
                        std::hint::black_box(&history),
                        None,
                        &ConfidenceConfig { replicates, window_samples: 7 * 144, seed: 1 },
                    )
                })
            },
        );
    }

    let mi_engine = DopplerEngine::untrained(
        azure_paas_catalog(&CatalogSpec::default()),
        EngineConfig::production(DeploymentType::SqlMi),
    );
    let mi_history = generate(&WorkloadArchetype::BurstyIo.spec(8.0, 14.0), 5);
    let layout = FileLayout::from_sizes(&[100.0, 300.0]);
    group.bench_function(BenchmarkId::new("mi_layout", 30), |b| {
        b.iter(|| {
            mi_engine.recommend_with_confidence(
                std::hint::black_box(&mi_history),
                Some(&layout),
                &ConfidenceConfig { replicates: 30, window_samples: 7 * 144, seed: 1 },
            )
        })
    });

    // The production engine trained on a migrated cohort, scoring another
    // cohort's customer with the default 30 one-week windows.
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let records = training_records(&PopulationSpec::sql_db(200, 3).customers(&catalog));
    let db_engine = DopplerEngine::train(
        catalog.clone(),
        EngineConfig::production(DeploymentType::SqlDb),
        &records,
    );
    let db_history = PopulationSpec::sql_db(1, 4).customer(0, &catalog).history;
    assert_eq!(db_history.len(), 2016, "14 days of 10-minute samples");
    group.bench_function("db_14d", |b| {
        b.iter(|| {
            db_engine.recommend_with_confidence(
                std::hint::black_box(&db_history),
                None,
                &ConfidenceConfig::default(),
            )
        })
    });
    group.finish();

    // The same request with confidence off: the fleet pass's call.
    let mut group = c.benchmark_group("recommend");
    group.bench_function("db_14d", |b| {
        b.iter(|| db_engine.recommend(std::hint::black_box(&db_history), None))
    });
    group.finish();
}

criterion_group!(benches, bench_confidence);
criterion_main!(benches);
