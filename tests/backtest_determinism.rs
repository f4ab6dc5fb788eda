//! Backtest determinism suite: a replayed back-test must be bit-for-bit
//! identical at any worker count — report, rendering, and JSON export.
//!
//! CI runs this with the other determinism suites in one `--test-threads=1`
//! step; `common::sweep` checks every run at 1, 4 and 8 workers.

mod common;

use common::{catalog, engine, labelled_training, sweep};
use doppler::fleet::{backtest_report_from_json, backtest_report_to_json, BacktestCase};
use doppler::prelude::*;

fn history(cpu: f64, iops: f64) -> PerfHistory {
    PerfHistory::new()
        .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 144]))
        .with(PerfDimension::Memory, TimeSeries::ten_minute(vec![1.5 + cpu; 144]))
        .with(PerfDimension::Iops, TimeSeries::ten_minute(vec![iops; 144]))
        .with(PerfDimension::LogRate, TimeSeries::ten_minute(vec![0.5; 144]))
}

fn cases(n: usize) -> Vec<BacktestCase> {
    (0..n)
        .map(|i| BacktestCase {
            name: format!("holdout-{i}"),
            deployment: DeploymentType::SqlDb,
            history: history(0.3 + (i % 7) as f64 * 0.55, 100.0 + (i % 7) as f64 * 250.0),
            file_sizes_gib: vec![],
            // Every third case carries a ground-truth label; the rest fall
            // back to the reference assessor's pick.
            ground_truth: (i % 3 == 0).then(|| "DB_GP_8".to_string()),
        })
        .collect()
}

fn harness(workers: usize) -> Backtest {
    let learned = LearnedBackend::train(
        catalog(),
        EngineConfig::production(DeploymentType::SqlDb),
        LearnedConfig::default(),
        &labelled_training(24, |cpu| history(cpu, cpu * 180.0)),
    );
    Backtest::new(
        catalog(),
        FleetAssessor::new(learned, FleetConfig::with_workers(workers)),
        FleetAssessor::new(engine(), FleetConfig::with_workers(workers)),
    )
    .with_labels("learned", "heuristic")
}

#[test]
fn backtest_reports_are_bit_for_bit_identical_across_worker_counts() {
    let cohort = cases(24);
    let report = |workers| harness(workers).run(&cohort);
    let baseline = report(1);
    assert!(baseline.scored_pairs > 0, "the sweep actually scored something");
    // Rendering is a pure function of the report.
    sweep("report and rendering", &(baseline.render(), baseline), |w| {
        let run = report(w);
        (run.render(), run)
    });
}

#[test]
fn backtest_json_export_is_identical_and_lossless_across_worker_counts() {
    let cohort = cases(16);
    let export = |workers| backtest_report_to_json(&harness(workers).run(&cohort)).render_pretty();
    let baseline = export(1);
    sweep("JSON export", &baseline, export);
    let parsed = doppler::dma::json::Json::parse(&baseline).expect("valid JSON");
    let report = backtest_report_from_json(&parsed).expect("structurally sound");
    assert_eq!(report, harness(1).run(&cohort), "round trip equals a fresh run");
}

#[test]
fn repeated_runs_of_one_harness_are_stable() {
    let cohort = cases(12);
    let harness = harness(4);
    let first = harness.run(&cohort);
    let second = harness.run(&cohort);
    assert_eq!(first, second, "a harness is reusable without state leakage");
}
