//! Backend-redesign determinism suite: the learned backend, and the
//! replay backtest that judges it against the heuristic champion, must be
//! as reproducible as the heuristic path they ride on.
//!
//! CI runs this with the other determinism suites in one `--test-threads=1`
//! step; `common::sweep` checks every run under each `common::CONFIGS` row.

mod common;

use common::{catalog, engine, labelled_training, outcomes, sweep, Config};
use doppler::dma::preprocess::PreprocessedInstance;
use doppler::fleet::{backtest_report_from_json, backtest_report_to_json, BacktestCase};
use doppler::prelude::*;
use proptest::prelude::*;

fn config() -> EngineConfig {
    EngineConfig::production(DeploymentType::SqlDb)
}

fn history(cpu: f64, mem: f64) -> PerfHistory {
    PerfHistory::new()
        .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 96]))
        .with(PerfDimension::Memory, TimeSeries::ten_minute(vec![mem; 96]))
        .with(PerfDimension::Iops, TimeSeries::ten_minute(vec![cpu * 150.0; 96]))
        .with(PerfDimension::LogRate, TimeSeries::ten_minute(vec![0.5; 96]))
}

fn training(n: usize) -> Vec<TrainingRecord> {
    labelled_training(n, |cpu| history(cpu, 1.0 + cpu))
}

fn learned_backend(floor: f64, records: &[TrainingRecord]) -> LearnedBackend {
    LearnedBackend::train(
        catalog(),
        config(),
        LearnedConfig { similarity_floor: floor, ..LearnedConfig::default() },
        records,
    )
}

fn request(name: String, cpu: f64) -> FleetRequest {
    FleetRequest::new(
        DeploymentType::SqlDb,
        AssessmentRequest {
            instance_name: name,
            input: PreprocessedInstance {
                instance: history(cpu, 2.0),
                databases: vec![("db0".into(), PerfHistory::new())],
                file_sizes_gib: vec![],
            },
            confidence: Some(ConfidenceConfig { replicates: 4, window_samples: 24, seed: 7 }),
        },
    )
}

fn cpu_of(i: usize) -> f64 {
    0.2 + (i % 13) as f64 * 0.55
}

fn cohort(n: usize) -> Vec<FleetRequest> {
    (0..n).map(|i| request(format!("inst-{i:04}"), cpu_of(i))).collect()
}

/// A trained learned backend yields the same fleet report — and the same
/// per-instance results — under every deployment.
#[test]
fn learned_backend_fleets_are_deterministic_across_worker_counts() {
    let records = training(24);
    let fleet = cohort(96);
    let observe = |config: Config| {
        let run = config.assessor(learned_backend(0.0, &records)).assess(fleet.clone());
        (run.report.render(), run.report, outcomes(&run.results))
    };
    let baseline = observe(Config::SERIAL);
    assert!(baseline.1.recommended > 0);
    assert_eq!(baseline.1.failed, 0);
    sweep("learned report, rendering and results", &baseline, observe);
}

/// The acceptance scenario: a ≥1k-case unlabelled cohort backtested
/// through a shared registry, learned challenger (candidate) against the
/// heuristic champion (reference). One training per `(key, backend)`, and
/// the whole report — rendering and JSON export — bit-for-bit stable
/// across deployments.
#[test]
fn thousand_case_backtest_is_deterministic_and_trains_once_per_backend() {
    use std::sync::Arc;

    let cases: Vec<BacktestCase> = (0..1024)
        .map(|i| BacktestCase {
            name: format!("inst-{i:04}"),
            deployment: DeploymentType::SqlDb,
            history: history(cpu_of(i), 2.0),
            file_sizes_gib: vec![],
            ground_truth: None,
        })
        .collect();
    let key = CatalogKey::production(DeploymentType::SqlDb);
    let training_set = TrainingSet::new(training(32));
    let run = |config: Config| {
        let registry =
            Arc::new(EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production())));
        let route = || EngineRoute::production(key.clone()).trained(training_set.clone());
        let champion = config.over_registry(Arc::clone(&registry)).with_route(route());
        let challenger = config
            .over_registry(Arc::clone(&registry))
            .with_route(route().with_backend_spec(BackendSpec::Learned(LearnedConfig::default())));

        let report = Backtest::new(catalog(), challenger, champion)
            .with_labels("learned", "heuristic")
            .run(&cases);
        let stats = registry.stats();
        assert_eq!(stats.misses, 2, "one training per (key, backend) under {config:?}");
        assert_eq!(stats.failures, 0);

        assert_eq!(report.cases.len(), 1024);
        assert!(report.scored_pairs > 0);
        let rendered = report.render();
        assert!(rendered.contains("SKU agreement"));

        // The JSON export round-trips losslessly under every deployment.
        let json = backtest_report_to_json(&report);
        let parsed = doppler::dma::json::Json::parse(&json.render_pretty()).unwrap();
        assert_eq!(backtest_report_from_json(&parsed).as_ref(), Some(&report));

        (rendered, report)
    };
    sweep("backtest report and rendering", &run(Config::SERIAL), run);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The Lorentz safeguard: with a similarity floor no query can clear
    /// (> 1, while similarity = 1/(1+d) ≤ 1), the learned backend must
    /// return the heuristic fallback's *exact* recommendation for any
    /// workload — same SKU, same cost, same curve, bit for bit.
    #[test]
    fn floored_learned_backend_always_defers_to_the_heuristic(
        cpu in 0.05..20.0f64,
        mem in 0.25..64.0f64,
        corpus in 1usize..40,
    ) {
        let records = training(corpus);
        let floored = learned_backend(2.0, &records);
        let heuristic = engine();
        let workload = history(cpu, mem);

        let learned_rec = floored.recommend(&workload, None);
        let heuristic_rec = heuristic.recommend(&workload, None);
        prop_assert_eq!(&learned_rec, &heuristic_rec);

        // With the floor disabled the same corpus may override the SKU,
        // but never invent one outside the heuristic's own price-perf
        // curve.
        let open = learned_backend(0.0, &records);
        let open_rec = open.recommend(&workload, None);
        if let Some(sku) = &open_rec.sku_id {
            prop_assert!(
                heuristic_rec.curve.points().iter().any(|p| &p.sku_id == sku),
                "learned SKU {} not on the heuristic curve",
                sku
            );
        }
    }
}
