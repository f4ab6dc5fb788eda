//! Sharded-fleet hot paths: streamed cohort throughput as the shard count
//! grows, the per-digest aggregation fold itself, and the price of merging
//! two shard aggregators at reporting time.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use doppler_catalog::{
    azure_paas_catalog, CatalogKey, CatalogSpec, CatalogVersion, DeploymentType,
    InMemoryCatalogProvider, Region,
};
use doppler_core::{CurveShape, EngineRegistry};
use doppler_fleet::{
    cloud_fleet, DigestOutcome, EngineRoute, FleetAggregator, FleetAssessor, FleetConfig,
    FleetRequest, FleetService, ResultDigest, ShardPlan, TicketQueue,
};
use doppler_workload::PopulationSpec;

const COHORT: usize = 256;
const REGIONS: usize = 4;

fn regions() -> Vec<Region> {
    (0..REGIONS).map(|i| Region::new(format!("region-{i}"))).collect()
}

/// A mixed-region cohort: the synthetic population, round-robined across
/// four regional catalogs so every shard plan has work on every shard.
fn keyed_fleet() -> Vec<FleetRequest> {
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let spec = PopulationSpec { days: 1.0, ..PopulationSpec::sql_db(COHORT, 13) };
    let regions = regions();
    cloud_fleet(&spec, &catalog, None)
        .enumerate()
        .map(|(i, r)| {
            r.with_catalog_key(CatalogKey::new(
                DeploymentType::SqlDb,
                regions[i % regions.len()].clone(),
                CatalogVersion::INITIAL,
            ))
        })
        .collect()
}

fn sharded_service(shards: usize, workers: usize) -> FleetService {
    let provider = regions().into_iter().fold(InMemoryCatalogProvider::production(), |p, r| {
        p.with_region(r, CatalogVersion::INITIAL, &CatalogSpec::default(), 1.0)
    });
    let registry = Arc::new(EngineRegistry::new(Arc::new(provider)));
    let config = FleetConfig { workers, queue_depth: workers * 4, keep_results: false };
    FleetAssessor::over_registry(registry, config)
        .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)))
        .with_shard_plan(ShardPlan::by_region(shards))
        .into_service()
}

fn stream_cohort(service: &FleetService, fleet: &[FleetRequest]) -> usize {
    let mut tickets = TicketQueue::new();
    let mut done = 0usize;
    for request in fleet {
        tickets.push(service.submit(request.clone()).expect("service open"));
        while tickets.try_next().is_some() {
            done += 1;
        }
    }
    while tickets.next_blocking().is_some() {
        done += 1;
    }
    done
}

/// Streamed throughput at 1, 2, and 4 shards (2 workers each): the
/// scale-out curve the README quotes. One long-lived service per shard
/// count, reused across iterations.
fn bench_sharded_stream(c: &mut Criterion) {
    let fleet = keyed_fleet();
    let mut group = c.benchmark_group(format!("sharded_stream_{COHORT}_instances"));
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        let service = sharded_service(shards, 2);
        group.bench_with_input(BenchmarkId::new("shards", shards), &fleet, |b, fleet| {
            b.iter(|| stream_cohort(&service, std::hint::black_box(fleet)))
        });
        let report = service.shutdown();
        assert_eq!(report.fleet_size % COHORT, 0);
    }
    group.finish();
}

/// One synthetic digest, varied enough to populate every report facet.
fn digest(i: usize) -> ResultDigest {
    let outcome = if i.is_multiple_of(97) {
        DigestOutcome::Failed { message: format!("probe-{i}") }
    } else {
        DigestOutcome::Assessed {
            databases_assessed: 1 + i % 4,
            shape: [CurveShape::Flat, CurveShape::Simple, CurveShape::Complex][i % 3],
            confidence: i.is_multiple_of(5).then_some(0.15 + (i % 7) as f64 * 0.1),
            sku: Some((Arc::from(format!("SKU_{}", i % 12).as_str()), 40.0 + (i % 12) as f64)),
            eligible_recommendations: 1 + i % 6,
        }
    };
    ResultDigest {
        index: i,
        instance_name: Arc::from(format!("inst-{i}").as_str()),
        deployment: DeploymentType::SqlDb,
        month: Some(Arc::from(["Oct-21", "Nov-21", "Dec-21"][i % 3])),
        outcome,
    }
}

fn folded(n: usize) -> FleetAggregator {
    let mut agg = FleetAggregator::new();
    for i in 0..n {
        agg.accept_digest(&digest(i));
    }
    agg
}

/// The per-assessment aggregation fold (what each worker pays per result)
/// and the per-report merge of two half-fleet shard aggregators.
fn bench_fold_and_merge(c: &mut Criterion) {
    let digests: Vec<ResultDigest> = (0..10_000).map(digest).collect();
    c.bench_function("aggregator_fold_10k_digests", |b| {
        b.iter(|| {
            let mut agg = FleetAggregator::new();
            for d in &digests {
                agg.accept_digest(std::hint::black_box(d));
            }
            agg.accepted()
        })
    });

    let left = folded(50_000);
    let right = {
        let mut agg = FleetAggregator::new();
        for i in 50_000..100_000 {
            agg.accept_digest(&digest(i));
        }
        agg
    };
    c.bench_function("aggregator_merge_two_50k_shards", |b| {
        b.iter(|| {
            let mut merged = FleetAggregator::new();
            merged.merge(std::hint::black_box(&left));
            merged.merge(std::hint::black_box(&right));
            merged.accepted()
        })
    });
}

criterion_group!(benches, bench_sharded_stream, bench_fold_and_merge);
criterion_main!(benches);
