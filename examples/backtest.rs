//! Back-test the learned backend against ground truth.
//!
//! A synthetic cohort is split into a training fleet and a held-out fleet.
//! The learned backend trains on the training fleet's (history → chosen
//! SKU) pairs, then both its picks and the customers' own choices are
//! *replayed* through the `doppler-replay` queueing machine on each
//! held-out history (§5.4): fit rates, throttle months, and the projected
//! cost delta land in one report, whose JSON export must round-trip.
//!
//! ```text
//! cargo run --release --example backtest
//! ```
//!
//! Flags via env (keeps the example dependency-free):
//! `FLEET_SIZE` (default 600), `FLEET_WORKERS` (default: all cores).

use doppler::fleet::{backtest_report_from_json, backtest_report_to_json, BacktestCase};
use doppler::prelude::*;

fn main() {
    let fleet_size: usize =
        std::env::var("FLEET_SIZE").ok().and_then(|s| s.parse().ok()).unwrap_or(600);
    let workers: usize = std::env::var("FLEET_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));

    // 1. Split one synthetic cohort: the first half trains the learned
    //    backend, the second half is held out for the back-test.
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let config = EngineConfig::production(DeploymentType::SqlDb);
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
    let learned =
        LearnedBackend::train(catalog.clone(), config, LearnedConfig::default(), &records);
    println!(
        "trained the learned backend on {} customers ({} exemplars)\n",
        records.len(),
        learned.exemplar_count(),
    );

    // 2. Replay the held-out fleet: the learned backend's picks (candidate)
    //    vs the SKUs those customers actually ran on (ground truth).
    let cases: Vec<BacktestCase> = holdout.iter().map(BacktestCase::from_customer).collect();
    let harness = Backtest::new(
        catalog.clone(),
        FleetAssessor::new(learned, FleetConfig::with_workers(workers)),
        FleetAssessor::new(
            DopplerEngine::untrained(catalog.clone(), config),
            FleetConfig::with_workers(workers),
        ),
    )
    .with_labels("learned", "ground-truth");
    let report = harness.run(&cases);
    println!("{}", report.render());

    // The export is lossless — what a dashboard stores is what it reads.
    let json = backtest_report_to_json(&report);
    let parsed = doppler::dma::json::Json::parse(&json.render_pretty()).expect("valid JSON");
    let back = backtest_report_from_json(&parsed).expect("structurally sound");
    assert_eq!(back, report, "dma::json round trip is lossless");
    println!("dma::json round trip: lossless ({} case rows)", report.cases.len());
}
