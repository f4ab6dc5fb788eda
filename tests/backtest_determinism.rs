//! Backtest determinism suite: a replayed back-test must be bit-for-bit
//! identical under any deployment — report, rendering, and JSON export.
//!
//! CI runs this with the other determinism suites in one `--test-threads=1`
//! step; `common::sweep` checks every run under each `common::CONFIGS` row.

mod common;

use common::{catalog, labelled_training, sql_db_route, sweep, Config};
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

fn harness(config: Config) -> Backtest {
    let learned = sql_db_route()
        .trained(TrainingSet::new(labelled_training(24, |cpu| history(cpu, cpu * 180.0))))
        .with_backend_spec(BackendSpec::Learned(LearnedConfig::default()));
    Backtest::new(catalog(), config.assessor(learned), config.assessor(sql_db_route()))
        .with_labels("learned", "heuristic")
}

#[test]
fn backtest_reports_are_bit_for_bit_identical_across_worker_counts() {
    let cohort = cases(24);
    let report = |config| harness(config).run(&cohort);
    let baseline = report(Config::SERIAL);
    assert!(baseline.scored_pairs > 0, "the sweep actually scored something");
    // Rendering is a pure function of the report.
    sweep("report and rendering", &(baseline.render(), baseline), |config| {
        let run = report(config);
        (run.render(), run)
    });
}

#[test]
fn backtest_json_export_is_identical_and_lossless_across_worker_counts() {
    let cohort = cases(16);
    let export = |config| backtest_report_to_json(&harness(config).run(&cohort)).render_pretty();
    let baseline = export(Config::SERIAL);
    sweep("JSON export", &baseline, export);
    let parsed = doppler::dma::json::Json::parse(&baseline).expect("valid JSON");
    let report = backtest_report_from_json(&parsed).expect("structurally sound");
    assert_eq!(report, harness(Config::SERIAL).run(&cohort), "round trip equals a fresh run");
}

#[test]
fn repeated_runs_of_one_harness_are_stable() {
    let cohort = cases(12);
    let harness = harness(Config { workers: 4, ..Config::SERIAL });
    let first = harness.run(&cohort);
    let second = harness.run(&cohort);
    assert_eq!(first, second, "a harness is reusable without state leakage");
}
