//! Confidence-score benchmarks: the §3.4 bootstrap re-runs the full
//! pipeline per replicate, so its cost scales linearly in replicates and
//! window length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use doppler_catalog::{azure_paas_catalog, CatalogSpec, DeploymentType};
use doppler_core::{ConfidenceConfig, DopplerEngine, EngineConfig, RecommendationBackend};
use doppler_workload::{generate, WorkloadArchetype};

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
    group.finish();
}

criterion_group!(benches, bench_confidence);
criterion_main!(benches);
