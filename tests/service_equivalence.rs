//! Service/assessor equivalence: the streaming `FleetService` front-end and
//! the one-shot `FleetAssessor::assess` are two entrances to the same
//! worker pool — for the same cohort they must produce bit-for-bit
//! identical reports and per-instance results at every worker count, equal
//! to the serial single-pipeline reference, and month-tagged requests must
//! fill the report's `AdoptionLedger` exactly as the reference counts.
//!
//! CI runs this alongside `fleet_determinism` in the dedicated determinism
//! job with `--test-threads=1`; the 1/4/8-worker sweep lives inside each
//! test.

use doppler::dma::preprocess::PreprocessedInstance;
use doppler::dma::ResourceUseReport;
use doppler::fleet::{FleetResult, ServiceProgress};
use doppler::prelude::*;
use proptest::prelude::*;

const WORKER_SWEEP: [usize; 3] = [1, 4, 8];

fn engine() -> DopplerEngine {
    DopplerEngine::untrained(
        azure_paas_catalog(&CatalogSpec::default()),
        EngineConfig::production(DeploymentType::SqlDb),
    )
}

fn request(name: &str, cpu: f64, databases: usize) -> AssessmentRequest {
    let history = PerfHistory::new()
        .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 96]))
        .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; 96]));
    AssessmentRequest {
        instance_name: name.into(),
        input: PreprocessedInstance {
            instance: history,
            databases: (0..databases.max(1))
                .map(|d| (format!("{name}/db{d}"), PerfHistory::new()))
                .collect(),
            file_sizes_gib: vec![],
        },
        confidence: None,
    }
}

fn cohort(cpus: &[f64]) -> Vec<AssessmentRequest> {
    cpus.iter().enumerate().map(|(i, &cpu)| request(&format!("inst-{i}"), cpu, 1 + i % 4)).collect()
}

/// The ground-truth path: one pipeline, one thread, input order.
fn serial_reference(requests: &[AssessmentRequest]) -> Vec<AssessmentResult> {
    let pipeline = SkuRecommendationPipeline::new(engine());
    requests.iter().map(|r| pipeline.assess(r)).collect()
}

/// Record `results` against a ledger by the Table 1 counting rule: one
/// recommendation per curve point scored 1.0, at least one per instance.
fn reference_ledger(month: &str, results: &[AssessmentResult]) -> AdoptionLedger {
    let mut ledger = AdoptionLedger::default();
    for r in results {
        let eligible =
            r.recommendation.curve.points().iter().filter(|p| p.score >= 1.0 - 1e-9).count();
        ledger.record(month, r.databases_assessed, eligible.max(1));
    }
    ledger
}

/// The whole decision must match; the Resource Use report is a pure
/// function of the request's history and this recommendation, so it
/// matches too. Instance names are compared on the `FleetResult`s.
fn assert_results_identical(a: &AssessmentResult, b: &AssessmentResult) {
    assert_eq!(a.databases_assessed, b.databases_assessed);
    assert_eq!(a.recommendation, b.recommendation);
}

/// Stream a cohort through a `FleetService` one submission at a time with
/// interleaved non-blocking receives — the continuous-operation shape — and
/// return the in-order results plus the final report.
fn stream_through_service(
    workers: usize,
    requests: &[AssessmentRequest],
) -> (Vec<FleetResult>, FleetReport) {
    let service = FleetAssessor::new(engine(), FleetConfig::with_workers(workers)).into_service();
    let mut tickets = TicketQueue::new();
    let mut results = Vec::new();
    for r in requests {
        let ticket = service
            .submit(FleetRequest::new(DeploymentType::SqlDb, r.clone()))
            .unwrap_or_else(|_| unreachable!("service is open"));
        tickets.push(ticket);
        while let Some(result) = tickets.try_next() {
            results.push(result);
        }
    }
    service.close();
    while let Some(result) = tickets.next_blocking() {
        results.push(result);
    }
    let progress = service.progress();
    assert_eq!(progress, ServiceProgress { submitted: requests.len(), completed: requests.len() });
    (results, service.shutdown())
}

#[test]
fn streaming_service_and_one_shot_assessor_agree_across_worker_counts() {
    let requests = cohort(&(0..48).map(|i| 0.3 + (i % 9) as f64 * 0.7).collect::<Vec<f64>>());
    let fleet: Vec<FleetRequest> =
        requests.iter().map(|r| FleetRequest::new(DeploymentType::SqlDb, r.clone())).collect();
    let baseline = FleetAssessor::new(engine(), FleetConfig::with_workers(1)).assess(fleet.clone());
    for workers in WORKER_SWEEP {
        let one_shot =
            FleetAssessor::new(engine(), FleetConfig::with_workers(workers)).assess(fleet.clone());
        assert_eq!(one_shot.report, baseline.report, "one-shot report at {workers} workers");

        let (streamed, streamed_report) = stream_through_service(workers, &requests);
        assert_eq!(streamed_report, baseline.report, "streamed report at {workers} workers");
        assert_eq!(streamed.len(), baseline.results.len());
        for (s, b) in streamed.iter().zip(&baseline.results) {
            assert_eq!(s.index, b.index);
            assert_eq!(s.instance_name, b.instance_name);
            assert_results_identical(s.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
        }
    }
}

/// An assessment returns only its decision; the Resource Use report is
/// built on demand from the request and the result. A result that came
/// through the service must render the same report as `pipeline.assess`
/// of the same request, for an MI request (file layout) and a
/// confidence-on DB request.
#[test]
fn on_demand_reports_match_between_service_and_pipeline() {
    let mi_engine = DopplerEngine::untrained(
        azure_paas_catalog(&CatalogSpec::default()),
        EngineConfig::production(DeploymentType::SqlMi),
    );
    let mut mi = request("mi-inst", 3.0, 2);
    mi.input.file_sizes_gib = vec![120.0, 40.0, 8.0];
    let mut db = request("db-inst", 1.5, 1);
    db.confidence = Some(ConfidenceConfig { replicates: 8, window_samples: 48, seed: 3 });
    let cases = [
        (DeploymentType::SqlMi, mi, SkuRecommendationPipeline::new(mi_engine.clone())),
        (DeploymentType::SqlDb, db, SkuRecommendationPipeline::new(engine())),
    ];
    let service = FleetAssessor::new(engine(), FleetConfig::with_workers(2))
        .with_backend(mi_engine)
        .into_service();
    for (deployment, request, pipeline) in cases {
        let ticket = service
            .submit(FleetRequest::new(deployment, request.clone()))
            .unwrap_or_else(|_| unreachable!("service is open"));
        let served = ticket.recv().expect("assessed").outcome.expect("assessed");
        let direct = pipeline.assess(&request);
        match deployment {
            DeploymentType::SqlMi => assert!(direct.recommendation.mi.is_some()),
            DeploymentType::SqlDb => assert!(direct.recommendation.confidence.is_some()),
        }
        let report = |r: &AssessmentResult| {
            ResourceUseReport::build(&request.input.instance, &r.recommendation).to_json()
        };
        assert_eq!(report(&served), report(&direct), "{deployment:?}");
    }
    service.shutdown();
}

/// `requests` as a fleet whose every member carries the ledger `month`.
fn month_tagged(requests: &[AssessmentRequest], month: &str) -> Vec<FleetRequest> {
    requests
        .iter()
        .map(|r| FleetRequest::new(DeploymentType::SqlDb, r.clone()).with_month(month))
        .collect()
}

#[test]
fn month_tagged_assessor_matches_the_serial_reference_and_ledger() {
    let requests = cohort(&(0..32).map(|i| 0.4 + (i % 6) as f64).collect::<Vec<f64>>());
    let reference = serial_reference(&requests);
    let expected_ledger = reference_ledger("Oct-21", &reference);
    for workers in WORKER_SWEEP {
        let out = FleetAssessor::new(engine(), FleetConfig::with_workers(workers))
            .assess(month_tagged(&requests, "Oct-21"));
        assert_eq!(out.results.len(), reference.len());
        for ((got, want), request) in out.results.iter().zip(&reference).zip(&requests) {
            assert_eq!(*got.instance_name, *request.instance_name);
            assert_results_identical(got.outcome.as_ref().unwrap(), want);
        }
        assert_eq!(out.report.adoption, expected_ledger, "ledger at {workers} workers");
    }
}

/// Backend equivalence: the same heuristic engine must produce bit-for-bit
/// identical fleets whether it is consumed concretely
/// (`FleetAssessor::new`), as a shared trait object
/// (`SkuRecommendationPipeline::from_shared`), or resolved through the
/// registry as a `BackendSpec::Heuristic` — and a `LearnedBackend` with an
/// empty exemplar corpus is contractually pure fallback, so it must match
/// all of them too. At every worker count.
#[test]
fn backend_paths_are_bit_for_bit_equivalent_across_worker_counts() {
    use doppler::dma::SkuRecommendationPipeline;
    use std::sync::Arc;

    let requests = cohort(&(0..40).map(|i| 0.25 + (i % 8) as f64 * 0.8).collect::<Vec<f64>>());
    let fleet: Vec<FleetRequest> =
        requests.iter().map(|r| FleetRequest::new(DeploymentType::SqlDb, r.clone())).collect();
    let baseline = FleetAssessor::new(engine(), FleetConfig::with_workers(1)).assess(fleet.clone());

    for workers in WORKER_SWEEP {
        // Path 1: concrete engine handed to the assessor.
        let concrete =
            FleetAssessor::new(engine(), FleetConfig::with_workers(workers)).assess(fleet.clone());
        assert_eq!(concrete.report, baseline.report, "concrete at {workers} workers");

        // Path 2: the same engine behind an explicit trait-object handle.
        let shared: Arc<dyn RecommendationBackend> = Arc::new(engine());
        let trait_object = FleetAssessor::from_pipeline(
            Arc::new(SkuRecommendationPipeline::from_shared(shared)),
            FleetConfig::with_workers(workers),
        )
        .assess(fleet.clone());
        assert_eq!(trait_object.report, baseline.report, "trait object at {workers} workers");

        // Path 3: registry-resolved heuristic backend.
        let registry =
            Arc::new(EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production())));
        let registered =
            FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(workers))
                .with_route(
                    EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb))
                        .trained(TrainingSet::empty()),
                )
                .assess(fleet.clone());
        assert_eq!(registered.report, baseline.report, "registry at {workers} workers");
        assert_eq!(registry.stats().misses, 1);

        // Path 4: the learned backend with an empty corpus is pure fallback.
        let learned = LearnedBackend::train(
            azure_paas_catalog(&CatalogSpec::default()),
            EngineConfig::production(DeploymentType::SqlDb),
            LearnedConfig::default(),
            &[],
        );
        let fallback =
            FleetAssessor::new(learned, FleetConfig::with_workers(workers)).assess(fleet.clone());
        assert_eq!(fallback.report, baseline.report, "empty-corpus learned at {workers} workers");

        // Per-instance results, not just aggregates.
        for run in [&concrete, &trait_object, &registered, &fallback] {
            assert_eq!(run.results.len(), baseline.results.len());
            for (got, want) in run.results.iter().zip(&baseline.results) {
                assert_eq!(got.instance_name, want.instance_name);
                assert_results_identical(
                    got.outcome.as_ref().unwrap(),
                    want.outcome.as_ref().unwrap(),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any random cohort: streaming submission, the one-shot assessor, and
    /// the month-tagged assessor agree bit-for-bit with the serial
    /// reference — reports, results, ledger — at 1, 4, and 8 workers.
    #[test]
    fn any_cohort_is_path_and_worker_count_invariant(
        cpus in prop::collection::vec(0.1..24.0f64, 1..24),
        month_seed in 0u8..3,
    ) {
        let month = ["Oct-21", "Nov-21", "Jan-22"][month_seed as usize];
        let requests = cohort(&cpus);
        let reference = serial_reference(&requests);
        let expected_ledger = reference_ledger(month, &reference);
        let fleet: Vec<FleetRequest> = requests
            .iter()
            .map(|r| FleetRequest::new(DeploymentType::SqlDb, r.clone()))
            .collect();
        let baseline =
            FleetAssessor::new(engine(), FleetConfig::with_workers(1)).assess(fleet.clone());

        for workers in WORKER_SWEEP {
            // Path 1: the one-shot assessor.
            let one_shot = FleetAssessor::new(engine(), FleetConfig::with_workers(workers))
                .assess(fleet.clone());
            prop_assert_eq!(&one_shot.report, &baseline.report);

            // Path 2: streaming submission through the service.
            let (streamed, streamed_report) = stream_through_service(workers, &requests);
            prop_assert_eq!(&streamed_report, &baseline.report);
            for (s, want) in streamed.iter().zip(&reference) {
                let got = s.outcome.as_ref().unwrap();
                prop_assert_eq!(&got.recommendation.sku_id, &want.recommendation.sku_id);
                prop_assert_eq!(got.recommendation.monthly_cost, want.recommendation.monthly_cost);
            }

            // Path 3: the one-shot assessor with adoption recording.
            let tagged = FleetAssessor::new(engine(), FleetConfig::with_workers(workers))
                .assess(month_tagged(&requests, month));
            for (got, want) in tagged.results.iter().zip(&reference) {
                let got = got.outcome.as_ref().unwrap();
                prop_assert_eq!(&got.recommendation, &want.recommendation);
            }
            prop_assert_eq!(&tagged.report.adoption, &expected_ledger);
        }
    }
}
