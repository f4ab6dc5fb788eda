//! Catalog lifecycle end to end: assess a mixed-region fleet, watch it,
//! land a mid-run price cut in one region through the refreshable price
//! feed, and process the version roll — the old engine is retired, the
//! pinned customers are re-priced through the priority lane, and the
//! whole event reads off the same dashboards as drift.
//!
//! ```text
//! cargo run --release --example catalog_roll
//! ```
//!
//! Flags via env (keeps the example dependency-free): `FLEET_SIZE`
//! (default 300 customers, round-robin across 3 regions),
//! `FLEET_WORKERS` (default: all cores).

use std::sync::Arc;
use std::time::Instant;

use doppler::prelude::*;

fn main() {
    let fleet_size: usize =
        std::env::var("FLEET_SIZE").ok().and_then(|s| s.parse().ok()).unwrap_or(300);
    let workers: usize = std::env::var("FLEET_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    let regions = [("global", 1.0), ("westeurope", 1.08), ("eastasia", 1.12)];

    // 1. A refreshable provider over the three regions: the wrapped
    //    in-memory provider is frozen, the wrapper accepts price feeds.
    let inner = regions.iter().fold(InMemoryCatalogProvider::new(), |p, &(region, multiplier)| {
        p.with_region(
            Region::new(region),
            CatalogVersion::INITIAL,
            &CatalogSpec::default(),
            multiplier,
        )
    });
    let provider = Arc::new(RefreshableCatalogProvider::new(Arc::new(inner)));
    let registry = Arc::new(EngineRegistry::new(Arc::clone(&provider) as Arc<dyn CatalogProvider>));
    let assessor =
        FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(workers))
            .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)));
    let mut monitor = DriftMonitor::new(assessor);

    // 2. Assess the fleet at v1, pinned per region, and watch everything.
    let requests: Vec<FleetRequest> = (0..fleet_size)
        .map(|i| {
            let (region, _) = regions[i % regions.len()];
            let cpu = 0.3 + 0.45 * ((i / regions.len()) % 16) as f64;
            let history = PerfHistory::new()
                .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 96]))
                .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; 96]));
            FleetRequest::new(
                DeploymentType::SqlDb,
                AssessmentRequest::from_history(format!("cust-{i:04}"), history, vec![], None),
            )
            .with_catalog_key(CatalogKey::new(
                DeploymentType::SqlDb,
                Region::new(region),
                CatalogVersion::INITIAL,
            ))
            .with_month("Oct-22")
        })
        .collect();
    let start = Instant::now();
    let tickets = monitor.service().submit_all(requests.clone()).expect("open service");
    let results: Vec<_> = tickets.into_iter().map(|t| t.recv().expect("assessed")).collect();
    for (request, result) in requests.iter().zip(&results) {
        monitor.watch_assessment(request, result);
    }
    println!(
        "assessed + deployed {} customers across {} regions at v1 in {:.2?}\n",
        fleet_size,
        regions.len(),
        start.elapsed()
    );

    // 3. Mid-run, a 12 % price cut lands in West Europe. The feed bumps
    //    the region to v2 and logs one roll per deployment.
    let west = Region::new("westeurope");
    let rolls = provider.apply_feed(&west, PriceFeed::Multiplier(0.88)).expect("known region");
    for roll in &rolls {
        println!(
            "price feed: {} -> {} (fingerprint {:016x})",
            roll.old_key, roll.new_key, roll.fingerprint
        );
    }

    // 4. Process the roll: retire the old key, re-price the pinned
    //    customers through the priority lane.
    let roll = rolls
        .iter()
        .find(|r| r.old_key.deployment == DeploymentType::SqlDb)
        .expect("DB key rolled");
    let start = Instant::now();
    let outcome = monitor.on_catalog_roll("Nov-22", &roll.old_key, &roll.new_key);
    println!(
        "\nroll processed in {:.2?}: {} engine(s) retired, {} customer(s) re-priced",
        start.elapsed(),
        outcome.retired_engines,
        outcome.repriced.len()
    );
    let saved: f64 = outcome
        .repriced
        .iter()
        .zip(
            results
                .iter()
                .filter(|r| outcome.repriced.iter().any(|p| p.instance_name == r.instance_name)),
        )
        .filter_map(|(after, before)| {
            let a = after.outcome.as_ref().ok()?.recommendation.monthly_cost?;
            let b = before.outcome.as_ref().ok()?.recommendation.monthly_cost?;
            Some(b - a)
        })
        .sum();
    println!("monthly savings from the cut: ${saved:.2}");

    // 5. The lifecycle on the dashboards: the next drift pass carries the
    //    roll, and the registry counters tell the training-economy story.
    let pass = monitor.tick("Nov-22");
    println!("\n{}", pass.report.render());
    let stats = registry.stats();
    // Warm resolutions split between `hits` and `coalesced` by timing, so
    // only their sum is deterministic.
    println!(
        "registry: {} trainings, {} warm resolutions, {} retired engine(s), {} live entries",
        stats.misses,
        stats.hits + stats.coalesced,
        stats.retirements,
        stats.entries
    );
    let ledger = monitor.ledger();
    let nov = ledger.month("Nov-22").expect("roll recorded");
    println!(
        "ledger Nov-22: {} catalog roll(s), {} customer(s) re-priced",
        nov.catalog_rolls, nov.customers_repriced
    );
}
