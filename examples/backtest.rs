//! Judge a challenger backend before rollout: back-test the learned
//! nearest-neighbour backend against ground truth and against the
//! production heuristic (the champion), off one shared engine registry.
//!
//! A synthetic cohort is split into a training fleet and a held-out fleet.
//! Both backends train on the training fleet's (history → chosen SKU)
//! pairs. Every pick on the held-out fleet is then *replayed* through the
//! `doppler-replay` queueing machine on the customer's own history (§5.4):
//! once against the SKUs those customers actually ran on, and once against
//! the champion's picks — where the report's SKU agreement and its
//! "adopt candidate" row show where the challenger diverges and what
//! adopting it on its cheaper picks would save. The registry proves both
//! runs cost exactly one training per (catalog key, backend), and each
//! report's JSON export must round-trip.
//!
//! ```text
//! cargo run --release --example backtest
//! ```
//!
//! Flags via env (keeps the example dependency-free):
//! `FLEET_SIZE` (default 600), `FLEET_WORKERS` (default: all cores).

use std::sync::Arc;

use doppler::fleet::{backtest_report_from_json, backtest_report_to_json, BacktestCase};
use doppler::prelude::*;

fn main() {
    let fleet_size: usize =
        std::env::var("FLEET_SIZE").ok().and_then(|s| s.parse().ok()).unwrap_or(600);
    let workers: usize = std::env::var("FLEET_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));

    // 1. Split one synthetic cohort: the first half trains both backends,
    //    the second half is held out for the back-test.
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let spec = PopulationSpec { days: 1.0, ..PopulationSpec::sql_db(fleet_size, 42) };
    let customers = spec.customers(&catalog);
    let (train, holdout) = customers.split_at(customers.len() / 2);
    let records: Vec<TrainingRecord> = train
        .iter()
        .map(|c| TrainingRecord {
            history: c.history.clone(),
            chosen_sku: c.chosen_sku.clone(),
            file_layout: c.file_layout.clone(),
        })
        .collect();
    println!("training corpus: {} customers   held out: {}\n", records.len(), holdout.len());

    // 2. One registry serves both sides. The backend spec is part of the
    //    memo key, so the champion's heuristic and the challenger's
    //    learned engine each train exactly once and never cross-serve.
    let registry = Arc::new(EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production())));
    let training = TrainingSet::new(records);
    let route = || {
        EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb))
            .trained(training.clone())
    };
    let harness = |candidate_label: &str, reference_label: &str| {
        let side = || {
            FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(workers))
        };
        Backtest::new(
            catalog.clone(),
            side().with_route(
                route().with_backend_spec(BackendSpec::Learned(LearnedConfig::default())),
            ),
            side().with_route(route()),
        )
        .with_labels(candidate_label, reference_label)
    };

    // 3. Against ground truth: the learned backend's picks (candidate) vs
    //    the SKUs those customers actually ran on.
    let labelled: Vec<BacktestCase> = holdout.iter().map(BacktestCase::from_customer).collect();
    report(&harness("learned", "ground-truth").run(&labelled));

    // 4. Against the champion: drop the labels, so the reference pick is
    //    the heuristic's own recommendation for each case.
    let unlabelled: Vec<BacktestCase> =
        labelled.into_iter().map(|case| BacktestCase { ground_truth: None, ..case }).collect();
    report(&harness("learned", "heuristic").run(&unlabelled));

    let stats = registry.stats();
    // Warm resolutions split between `hits` and `coalesced` by timing, so
    // only their sum is deterministic.
    println!(
        "registry: {} trainings ({} warm resolutions) — one per (catalog key, backend)",
        stats.misses,
        stats.hits + stats.coalesced
    );
}

/// Print a back-test report and check its export is lossless — what a
/// dashboard stores is what it reads.
fn report(report: &BacktestReport) {
    println!("{}", report.render());
    let json = backtest_report_to_json(report);
    let parsed = doppler::dma::json::Json::parse(&json.render_pretty()).expect("valid JSON");
    let back = backtest_report_from_json(&parsed).expect("structurally sound");
    assert_eq!(&back, report, "dma::json round trip is lossless");
    println!("dma::json round trip: lossless ({} case rows)\n", report.cases.len());
}
