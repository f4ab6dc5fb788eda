//! Catalog-lifecycle upgrade equivalence: a 1,000-customer mixed-region
//! fleet assessed at `v1`, hit by a price feed in exactly one region and
//! rolled through `DriftMonitor::on_catalog_roll`, must
//!
//! 1. re-assess the rolled region's customers **bit-for-bit identical** to
//!    a fresh fleet (fresh registry, fresh monitor) assessed directly at
//!    `v2` — the upgrade path may not diverge from a cold start at the new
//!    version,
//! 2. leave the untouched regions **byte-identical to their `v1`
//!    results** — rolling one region must not perturb any other,
//! 3. show the lifecycle in the registry's counters: **exactly one new
//!    training** for the rolled key, **retirement — not retraining — of
//!    the old one** (resolving it returns the typed `Retired` error), and
//! 4. hold all of the above under every deployment in `common::CONFIGS`,
//!    bit-for-bit across them.
//!
//! Runs single-threaded in the CI determinism job so the service worker
//! pool is the only concurrency in play.

mod common;

use std::sync::Arc;

use common::{decisions, flat_window, region_of, sweep, Config, REGIONS};
use doppler::fleet::FleetResult;
use doppler::prelude::*;

const COHORT: usize = 1_000;
const ROLLED_REGION: &str = "westeurope";
/// The price feed under test: a 7 % cut in West Europe.
const FEED: PriceFeed = PriceFeed::Multiplier(0.93);

/// Every run builds its provider through the same lineage — construct the
/// three regions, then (for the fresh-at-v2 reference) apply the same
/// feed — so prices at each version are bit-for-bit comparable across
/// providers.
fn refreshable() -> Arc<RefreshableCatalogProvider> {
    Arc::new(RefreshableCatalogProvider::new(Arc::new(common::provider())))
}

fn key_for(region: &str, version: CatalogVersion) -> CatalogKey {
    CatalogKey::new(DeploymentType::SqlDb, Region::new(region), version)
}

/// Customer `i`: region round-robin, a steady workload whose scale varies
/// by customer so the cohort spreads across SKU rungs.
fn cohort_request(i: usize, version_in_rolled: CatalogVersion) -> FleetRequest {
    let region = region_of(i);
    let version = if region == ROLLED_REGION { version_in_rolled } else { CatalogVersion::INITIAL };
    let cpu = 0.3 + 0.45 * ((i / REGIONS.len()) % 16) as f64;
    let history = flat_window(cpu, 96);
    FleetRequest::new(
        DeploymentType::SqlDb,
        AssessmentRequest::from_history(format!("cust-{i:04}"), history, vec![], None),
    )
    .with_catalog_key(key_for(region, version))
}

fn monitor_over(
    provider: &Arc<RefreshableCatalogProvider>,
    config: Config,
) -> (Arc<EngineRegistry>, DriftMonitor) {
    let registry = Arc::new(EngineRegistry::new(Arc::clone(provider) as Arc<dyn CatalogProvider>));
    let assessor = config
        .over_registry(Arc::clone(&registry))
        .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)));
    (registry, DriftMonitor::new(assessor))
}

/// The reference: a provider that already rolled, a fresh registry, a
/// fresh monitor — the rolled region's customers assessed directly at v2.
fn fresh_at_v2(config: Config) -> Vec<FleetResult> {
    let provider = refreshable();
    let rolls = provider.apply_feed(&Region::new(ROLLED_REGION), FEED).unwrap();
    assert!(!rolls.is_empty());
    let (_registry, monitor) = monitor_over(&provider, config);
    let fleet: Vec<FleetRequest> = (0..COHORT)
        .filter(|&i| region_of(i) == ROLLED_REGION)
        .map(|i| cohort_request(i, CatalogVersion(2)))
        .collect();
    let mut tickets = Vec::new();
    for request in fleet {
        tickets.push(monitor.service().submit(request).expect("open service"));
    }
    tickets.into_iter().map(|t| t.recv().expect("assessed")).collect()
}

struct RolledRun {
    repriced: Vec<FleetResult>,
    untouched_before: Vec<FleetResult>,
    untouched_after: Vec<FleetResult>,
}

/// The upgrade path: assess everything at v1, watch it, feed + roll one
/// region, then re-check the untouched regions through the same (still
/// warm) service.
fn rolled_run(config: Config) -> RolledRun {
    let provider = refreshable();
    let (registry, mut monitor) = monitor_over(&provider, config);

    // 1. Assess the whole cohort at v1 and register it with the monitor.
    let fleet: Vec<FleetRequest> =
        (0..COHORT).map(|i| cohort_request(i, CatalogVersion::INITIAL)).collect();
    let mut tickets = Vec::new();
    for request in &fleet {
        tickets.push(monitor.service().submit(request.clone()).expect("open service"));
    }
    let results: Vec<FleetResult> =
        tickets.into_iter().map(|t| t.recv().expect("assessed")).collect();
    for (request, result) in fleet.iter().zip(&results) {
        assert!(result.outcome.is_ok(), "{}", result.instance_name);
        assert!(monitor.watch_assessment(request, result));
    }
    let stats = registry.stats();
    assert_eq!(stats.misses, 3, "one training per region at v1 ({config:?})");

    // 2. The feed lands; the region rolls; the monitor processes it.
    let rolls = provider.apply_feed(&Region::new(ROLLED_REGION), FEED).unwrap();
    let old_key = key_for(ROLLED_REGION, CatalogVersion::INITIAL);
    let roll = rolls.iter().find(|r| r.old_key == old_key).expect("DB key rolled");
    assert_eq!(roll.new_key, key_for(ROLLED_REGION, CatalogVersion(2)));
    let outcome = monitor.on_catalog_roll("Roll-22", &roll.old_key, &roll.new_key);
    assert_eq!(outcome.retired_engines, 1, "{config:?}");

    // 3. Counter story: exactly one new training (the rolled key), the old
    //    key retired — resolving it errors instead of retraining.
    let stats = registry.stats();
    assert_eq!(stats.misses, 4, "exactly one new training for the roll ({config:?})");
    assert_eq!(stats.retirements, 1, "{config:?}");
    assert!(matches!(
        registry.get_or_train(&old_key, &EngineTemplate::production(), &TrainingSet::empty()),
        Err(RegistryError::Retired(_))
    ));
    assert_eq!(registry.stats().misses, 4, "the retired key never retrains");

    // 4. Re-check the untouched regions through the same service, still
    //    pinned at v1 — and collect their original v1 results to compare.
    let mut untouched_before = Vec::new();
    let mut untouched_tickets = Vec::new();
    for (i, result) in results.iter().enumerate() {
        if region_of(i) == ROLLED_REGION {
            continue;
        }
        untouched_before.push(result.clone());
        untouched_tickets.push(
            monitor
                .service()
                .submit(cohort_request(i, CatalogVersion::INITIAL))
                .expect("open service"),
        );
    }
    let untouched_after =
        untouched_tickets.into_iter().map(|t| t.recv().expect("assessed")).collect();
    assert_eq!(
        registry.stats().misses,
        4,
        "re-checking untouched regions resolves warm ({config:?})"
    );

    RolledRun { repriced: outcome.repriced, untouched_before, untouched_after }
}

#[test]
fn rolled_region_matches_a_fresh_fleet_at_v2_and_untouched_regions_hold() {
    let members = (0..COHORT).filter(|&i| region_of(i) == ROLLED_REGION).count();
    let observe = |run: &RolledRun| (decisions(&run.repriced), decisions(&run.untouched_after));
    // The whole story is deployment invariant.
    sweep("repriced and untouched results", &observe(&rolled_run(Config::SERIAL)), |config| {
        let run = rolled_run(config);
        // The upgrade path equals the cold start at v2, bit for bit, and
        // re-prices every member of the rolled region.
        let fresh = decisions(&fresh_at_v2(config));
        assert_eq!(decisions(&run.repriced), fresh, "rolled vs fresh under {config:?}");
        assert_eq!(run.repriced.len(), members);
        // Untouched regions: byte-identical to their v1 results.
        let before = decisions(&run.untouched_before);
        assert_eq!(before, decisions(&run.untouched_after), "untouched under {config:?}");
        observe(&run)
    });
}

#[test]
fn repriced_bills_scale_by_exactly_the_feed_multiplier() {
    let config = Config { workers: 2, ..Config::SERIAL };
    let run = rolled_run(config);
    let provider = refreshable();
    let (_registry, monitor) = monitor_over(&provider, config);
    // The same customers assessed at v1 on a fresh stack: the rolled
    // recommendations keep the SKU and scale the monthly bill by the feed.
    let v1: Vec<FleetResult> = {
        let fleet: Vec<FleetRequest> = (0..COHORT)
            .filter(|&i| region_of(i) == ROLLED_REGION)
            .map(|i| cohort_request(i, CatalogVersion::INITIAL))
            .collect();
        let tickets: Vec<_> =
            fleet.into_iter().map(|r| monitor.service().submit(r).expect("open")).collect();
        tickets.into_iter().map(|t| t.recv().expect("assessed")).collect()
    };
    for (rolled, before) in run.repriced.iter().zip(&v1) {
        let (ra, rb) = (rolled.outcome.as_ref().unwrap(), before.outcome.as_ref().unwrap());
        assert_eq!(ra.recommendation.sku_id, rb.recommendation.sku_id, "{}", rolled.instance_name);
        let (ca, cb) =
            (ra.recommendation.monthly_cost.unwrap(), rb.recommendation.monthly_cost.unwrap());
        assert!((ca - cb * 0.93).abs() < 1e-6, "{}: {ca} vs {cb}", rolled.instance_name);
    }
}
