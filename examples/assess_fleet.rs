//! Fleet assessment through the engine registry: push a mixed-region
//! synthetic customer fleet — SQL DB and SQL MI, two regions — through the
//! concurrent batch assessor and print the fleet dashboard plus the
//! registry's training economy.
//!
//! ```text
//! cargo run --release --example assess_fleet
//! ```
//!
//! Flags via env (keeps the example dependency-free):
//! `FLEET_SIZE` (default 600 DB + 200 MI), `FLEET_WORKERS` (default: all
//! cores).

use std::sync::Arc;
use std::time::Instant;

use doppler::fleet::cloud_fleet;
use doppler::prelude::*;

fn main() {
    let db_size: usize =
        std::env::var("FLEET_SIZE").ok().and_then(|s| s.parse().ok()).unwrap_or(600);
    let mi_size = db_size / 3;
    let workers: usize = std::env::var("FLEET_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));

    // 1. The catalog provider: the global offer catalog at list price plus
    //    West Europe at an 8 % regional premium. One registry memoizes
    //    every trained engine per (deployment, region, version) — across
    //    this run and any other fleet sharing the Arc.
    let provider = InMemoryCatalogProvider::production().with_region(
        Region::new("westeurope"),
        CatalogVersion::INITIAL,
        &CatalogSpec::default(),
        1.08,
    );
    let registry = Arc::new(EngineRegistry::new(Arc::new(provider)));
    let assessor =
        FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(workers))
            .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)))
            .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlMi)));

    // 2. A heterogeneous, mixed-region fleet: a calibrated SQL DB cohort
    //    (global), a West Europe SQL DB cohort (tagged, so each request
    //    pins its regional catalog key), and a SQL MI cohort — streamed
    //    lazily through the bounded work queue, tagged with adoption
    //    months so the report reproduces the paper's Table 1 view.
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let db_spec = PopulationSpec { days: 2.0, ..PopulationSpec::sql_db(db_size / 2, 42) };
    let west_spec = PopulationSpec { days: 2.0, ..PopulationSpec::sql_db(db_size / 2, 44) }
        .in_region(Region::new("westeurope"));
    let mi_spec = PopulationSpec { days: 2.0, ..PopulationSpec::sql_mi(mi_size, 43) };
    let fleet = cloud_fleet(&db_spec, &catalog, None)
        .map(|r| r.with_month("Oct-21"))
        .chain(cloud_fleet(&west_spec, &catalog, None).map(|r| r.with_month("Nov-21")))
        .chain(cloud_fleet(&mi_spec, &catalog, None).map(|r| r.with_month("Nov-21")));

    // 3. Assess and time it. Engines are trained lazily, exactly once per
    //    distinct catalog key, by whichever worker first needs them.
    let start = Instant::now();
    let assessment = assessor.assess(fleet);
    let elapsed = start.elapsed();

    // 4. The fleet dashboard: totals, SKU mix, shapes, adoption months,
    //    per-deployment rows.
    println!("{}", assessment.report.render());
    let n = assessment.report.fleet_size;
    println!(
        "assessed {n} instances on {workers} worker(s) in {elapsed:.2?} ({:.1} instances/s)",
        n as f64 / elapsed.as_secs_f64()
    );
    let stats = registry.stats();
    // Warm resolutions split between `hits` and `coalesced` by timing, so
    // only their sum is deterministic.
    println!(
        "registry: {} trainings, {} warm resolutions across {} keys",
        stats.misses,
        stats.hits + stats.coalesced,
        stats.entries,
    );
}
