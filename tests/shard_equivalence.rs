//! Shard equivalence: a sharded `FleetService` must be bit-for-bit
//! indistinguishable from the unsharded one. A mixed-region cohort
//! streamed through every pairing of a `common::CONFIGS` worker count with
//! a `CONFIGS` shard count must produce the identical `FleetReport`
//! (including its adoption ledger), identical per-instance results in
//! identical global submission order, and conserved observability spans
//! (the shared `fleet.*` stage histograms count the cohort once, both lane
//! gauges drain to zero).
//!
//! The aggregator-level laws behind that guarantee are property-tested
//! below: `FleetAggregator::merge` agrees with the sequential
//! `accept_digest` fold for arbitrary digest interleavings and is
//! associative, so any shard partition merged in any grouping reports the
//! same thing; and folding the digests in any order finishes to the same
//! report, so workers may fold results as they complete.
//!
//! CI runs this in the determinism job with `--test-threads=1` and
//! `SHARD_COHORT=10000`; the default cohort stays small for local runs.

mod common;

use std::sync::Arc;

use common::{flat_request, outcomes, provider_over, stream, sweep_over, Config, CONFIGS};
use doppler::fleet::{DigestOutcome, FleetAggregator, ResultDigest};
use doppler::prelude::*;
use proptest::prelude::*;

fn cohort_size() -> usize {
    std::env::var("SHARD_COHORT").ok().and_then(|v| v.parse().ok()).unwrap_or(400)
}

fn regions() -> Vec<Region> {
    (0..7).map(|i| Region::new(format!("region-{i}"))).collect()
}

/// A mixed-region cohort: most requests pinned across seven regional
/// catalogs, every ninth keyless (routing as the global region), all
/// month-tagged so the adoption ledger is exercised too.
fn cohort(size: usize, regions: &[Region]) -> Vec<FleetRequest> {
    (0..size)
        .map(|i| {
            let request = flat_request(&format!("inst-{i}"), 0.3 + (i % 9) as f64 * 0.7, 1 + i % 3);
            let mut r = FleetRequest::new(DeploymentType::SqlDb, request)
                .with_month(["Oct-21", "Nov-21", "Dec-21"][i % 3]);
            if i % 9 != 0 {
                let region = regions[i % regions.len()].clone();
                r = r.with_catalog_key(CatalogKey::new(
                    DeploymentType::SqlDb,
                    region,
                    CatalogVersion::INITIAL,
                ));
            }
            r
        })
        .collect()
}

fn assessor(config: Config) -> FleetAssessor {
    let regions = regions().into_iter().chain([Region::global()]).map(|r| (r, 1.0));
    let registry = Arc::new(EngineRegistry::new(Arc::new(provider_over(regions))));
    config
        .over_registry(registry)
        .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)))
}

/// Every `CONFIGS` worker count paired with every `CONFIGS` shard count
/// (obs as that shard row sets it): the full 3 × 3 product.
fn product() -> impl Iterator<Item = Config> {
    CONFIGS.into_iter().flat_map(|w| CONFIGS.map(|s| Config { workers: w.workers, ..s }))
}

#[test]
fn sharded_runs_match_the_unsharded_run_bit_for_bit() {
    let fleet = cohort(cohort_size(), &regions());
    let (base_results, base_report) = stream(assessor(Config::SERIAL).into_service(), &fleet);
    assert_eq!(base_report.fleet_size, fleet.len());
    assert!(base_report.failed == 0, "{:?}", base_report.failures);

    // Reports (cost totals, SKU mix, histograms, attention lists,
    // adoption ledger) are bit-for-bit identical, and so is every
    // per-instance result, in global submission order.
    let oracle = (base_report, outcomes(&base_results));
    sweep_over(product(), "report and results", &oracle, |config| {
        let service = assessor(config).into_service();
        assert_eq!(service.shard_count(), config.shards);
        let (results, report) = stream(service, &fleet);
        (report, outcomes(&results))
    });
}

/// Observability conservation under sharding: every shard records into
/// the same `fleet.*` names, so each stage histogram counts the cohort
/// once, the service-wide worker counters partition it, and both lane
/// gauges drain to zero — no span is lost or double counted by the
/// fan-out, batched popping included.
#[test]
fn sharded_obs_spans_conserve_and_gauges_drain() {
    let fleet = cohort(cohort_size().min(240), &regions());
    for config in CONFIGS {
        let obs = ObsRegistry::enabled();
        let (results, report) = stream(assessor(config).with_obs(&obs).into_service(), &fleet);
        assert_eq!(results.len(), fleet.len(), "{config:?}");
        assert_eq!(report.fleet_size, fleet.len(), "{config:?}");
        let snapshot = obs.snapshot();

        for stage in ["fleet.stage.queue_wait", "fleet.stage.aggregate", "fleet.queue.pop_wait"] {
            assert_eq!(
                snapshot.histogram(stage).map(|h| h.count),
                Some(fleet.len() as u64),
                "{stage} under {config:?}"
            );
        }
        let worker_tasks: u64 = (0..config.shards * config.workers)
            .map(|n| snapshot.counter(&format!("fleet.worker.{n}.tasks")).unwrap_or(0))
            .sum();
        assert_eq!(worker_tasks, fleet.len() as u64, "worker tasks under {config:?}");
        for lane in ["normal", "priority"] {
            assert_eq!(
                snapshot.gauge(&format!("fleet.queue.depth.{lane}")),
                Some(0),
                "lane {lane} under {config:?}"
            );
        }
        // The engine-set stages stay global: one resolve/assess span per
        // assessment regardless of the plan.
        assert_eq!(
            snapshot.histogram("fleet.stage.assess").map(|h| h.count),
            Some(fleet.len() as u64),
            "assess spans under {config:?}"
        );
    }
}

/// Build one synthetic digest from a generated spec tuple.
fn digest(index: usize, kind: u8, sku: u8, month: u8, flagged: bool) -> ResultDigest {
    let outcome = if kind == 0 {
        DigestOutcome::Failed { message: format!("boom-{index}") }
    } else {
        DigestOutcome::Assessed {
            databases_assessed: 1 + (kind as usize % 3),
            shape: [CurveShape::Flat, CurveShape::Simple, CurveShape::Complex][kind as usize % 3],
            confidence: flagged.then_some(0.2 + 0.15 * kind as f64),
            // kind == 1 leaves the instance unplaceable (no SKU selected).
            sku: (kind != 1)
                .then(|| (Arc::from(format!("SKU_{sku}").as_str()), 7.5 * sku as f64 + 1.0)),
            eligible_recommendations: 1 + sku as usize,
        }
    };
    ResultDigest {
        index,
        instance_name: Arc::from(format!("inst-{index}").as_str()),
        deployment: if kind.is_multiple_of(2) {
            DeploymentType::SqlDb
        } else {
            DeploymentType::SqlMi
        },
        month: (month > 0).then(|| Arc::from(["Oct-21", "Nov-21"][month as usize - 1])),
        outcome,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary digest streams and arbitrary shard assignments,
    /// folding per shard then merging reports exactly what the sequential
    /// fold reports — and the merge is associative, so the grouping of the
    /// merges doesn't matter either. Folding the same digests into one
    /// aggregator in a permuted order reports the same thing too.
    #[test]
    fn merge_agrees_with_the_sequential_fold_and_is_associative(
        spec in proptest::collection::vec((0u8..5, 0u8..4, 0u8..3, 0u8..2), 0..120),
        shards in 1usize..5,
        salt in 0usize..97,
    ) {
        let digests: Vec<ResultDigest> = spec
            .iter()
            .enumerate()
            .map(|(i, &(kind, sku, month, flagged))| digest(i, kind, sku, month, flagged == 1))
            .collect();

        let mut sequential = FleetAggregator::new();
        for d in &digests {
            sequential.accept_digest(d);
        }

        // Arbitrary deterministic shard assignment (index-mixed, salted).
        let mut parts: Vec<FleetAggregator> =
            (0..shards).map(|_| FleetAggregator::new()).collect();
        for (i, d) in digests.iter().enumerate() {
            parts[(i.wrapping_mul(31) + salt) % shards].accept_digest(d);
        }

        // Left-to-right merge matches the sequential fold…
        let mut left = FleetAggregator::new();
        for p in &parts {
            left.merge(p);
        }
        prop_assert_eq!(left.finish(), sequential.finish());

        // …and so does the opposite grouping: fold the tail first, then
        // merge the head into it last.
        let mut tail = FleetAggregator::new();
        for p in parts.iter().skip(1).rev() {
            tail.merge(p);
        }
        let mut right = parts.into_iter().next().unwrap_or_default();
        right.merge(&tail);
        prop_assert_eq!(right.finish(), sequential.finish());

        // Completion order: a salted permutation (a salted sort key, so
        // every salt gives a different shuffle) folded into one aggregator.
        let mut permuted: Vec<&ResultDigest> = digests.iter().collect();
        permuted.sort_by_key(|d| (d.index.wrapping_mul(2_654_435_761) ^ salt.wrapping_mul(40_503)) % 1_000_003);
        let mut shuffled = FleetAggregator::new();
        for d in permuted {
            shuffled.accept_digest(d);
        }
        prop_assert_eq!(shuffled.finish(), sequential.finish());
    }
}
