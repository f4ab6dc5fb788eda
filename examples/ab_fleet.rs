//! Champion/challenger fleets: assess one synthetic cohort through the
//! production heuristic (champion) and the learned nearest-neighbour
//! backend (challenger), side by side, off one shared engine registry.
//!
//! The learned backend is bootstrapped Lorentz-style from the champion's
//! own historical decisions: a small training fleet is assessed by the
//! heuristic, and those (workload fingerprint → chosen SKU) pairs become
//! the challenger's exemplar corpus. The A/B report then shows where the
//! challenger agrees, where it diverges, and what adopting it on its
//! cheaper picks would save — while the registry proves the whole run cost
//! exactly one training per (catalog key, backend).
//!
//! ```text
//! cargo run --release --example ab_fleet
//! ```
//!
//! Flags via env (keeps the example dependency-free):
//! `FLEET_SIZE` (default 1200), `FLEET_WORKERS` (default: all cores).

use std::sync::Arc;
use std::time::Instant;

use doppler::fleet::{ab_summary_to_json, cloud_fleet};
use doppler::prelude::*;

fn main() {
    let fleet_size: usize =
        std::env::var("FLEET_SIZE").ok().and_then(|s| s.parse().ok()).unwrap_or(1200);
    let workers: usize = std::env::var("FLEET_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));

    // 1. Bootstrap a training corpus from the champion's own decisions:
    //    assess a small historical fleet with the plain heuristic and keep
    //    each (workload, chosen SKU) pair as a training record.
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let config = EngineConfig::production(DeploymentType::SqlDb);
    let heuristic = DopplerEngine::untrained(catalog.clone(), config);
    let records: Vec<TrainingRecord> = (0..64)
        .filter_map(|i| {
            let archetype = [
                WorkloadArchetype::Steady,
                WorkloadArchetype::Diurnal,
                WorkloadArchetype::Trending,
                WorkloadArchetype::Idle,
            ][i % 4];
            let history = doppler::workload::generate(
                &archetype.spec(0.5 + (i % 8) as f64, 3.0),
                1000 + i as u64,
            );
            let sku = heuristic.recommend(&history, None).sku_id?;
            Some(TrainingRecord { history, chosen_sku: SkuId(sku), file_layout: None })
        })
        .collect();
    println!("bootstrapped {} training records from champion decisions\n", records.len());

    // 2. One registry serves both sides. The backend spec is part of the
    //    memo key, so the champion's heuristic and the challenger's
    //    learned engine each train exactly once and never cross-serve.
    let registry = Arc::new(EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production())));
    let key = CatalogKey::production(DeploymentType::SqlDb);
    let training = TrainingSet::new(records);
    let route = || EngineRoute::production(key.clone()).trained(training.clone());
    let champion =
        FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(workers))
            .with_route(route());
    let challenger =
        FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(workers))
            .with_route(route().with_backend_spec(BackendSpec::Learned(LearnedConfig::default())));

    // 3. One cohort, both backends, paired per instance. The comparison is
    //    deterministic for any worker count.
    let spec = PopulationSpec { days: 2.0, ..PopulationSpec::sql_db(fleet_size, 42) };
    let cohort: Vec<FleetRequest> =
        cloud_fleet(&spec, &catalog, None).map(|r| r.with_month("Oct-21")).collect();
    let started = Instant::now();
    let outcome = AbFleet::new(champion, challenger).assess(cohort);
    let elapsed = started.elapsed();

    // 4. The champion's dashboard now carries the champion/challenger
    //    section: side-by-side cost and confidence columns, SKU agreement,
    //    and the adoption row.
    println!("{}", outcome.report.render());

    let stats = registry.stats();
    // Warm resolutions split between `hits` and `coalesced` by timing, so
    // only their sum is deterministic.
    println!(
        "\nregistry: {} trainings ({} warm resolutions) — one per (catalog key, backend)",
        stats.misses,
        stats.hits + stats.coalesced
    );
    println!(
        "assessed {} instances x 2 backends in {:.2?} ({} workers)",
        outcome.report.fleet_size, elapsed, workers
    );

    // 5. The same summary, machine-readable for downstream dashboards.
    let ab = outcome.report.ab.as_ref().expect("A/B summary attached");
    println!("\n--- dma::json export ---\n{}", ab_summary_to_json(ab).render_pretty());
}
