//! Service/assessor equivalence: the streaming `FleetService` front-end and
//! the one-shot `FleetAssessor::assess` are two entrances to the same
//! worker pool — for the same cohort they must produce bit-for-bit
//! identical reports and per-instance results under every deployment,
//! equal to the serial single-pipeline reference, and month-tagged
//! requests must fill the report's `AdoptionLedger` exactly as the
//! reference counts.
//!
//! CI runs this with the other determinism suites in one `--test-threads=1`
//! step; `common::sweep` checks every run under each `common::CONFIGS` row.

mod common;

use common::{
    catalog, decision, decisions, engine, flat_request, outcomes, sql_db_route, stream, sweep,
    Config,
};
use doppler::dma::ResourceUseReport;
use doppler::fleet::{FleetAggregator, FleetResult};
use doppler::prelude::*;
use proptest::prelude::*;

fn cohort(cpus: &[f64]) -> Vec<AssessmentRequest> {
    cpus.iter()
        .enumerate()
        .map(|(i, &cpu)| flat_request(&format!("inst-{i}"), cpu, 1 + i % 4))
        .collect()
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

fn one_shot(config: Config, fleet: Vec<FleetRequest>) -> FleetAssessment {
    config.assessor(sql_db_route()).assess(fleet)
}

fn sql_db_fleet(requests: &[AssessmentRequest]) -> Vec<FleetRequest> {
    requests.iter().map(|r| FleetRequest::new(DeploymentType::SqlDb, r.clone())).collect()
}

/// The cohort streamed through a `FleetService` under `config`.
fn stream_through_service(
    config: Config,
    fleet: &[FleetRequest],
) -> (Vec<FleetResult>, FleetReport) {
    stream(config.assessor(sql_db_route()).into_service(), fleet)
}

#[test]
fn streaming_service_and_one_shot_assessor_agree_across_worker_counts() {
    let requests = cohort(&(0..48).map(|i| 0.3 + (i % 9) as f64 * 0.7).collect::<Vec<f64>>());
    let fleet = sql_db_fleet(&requests);
    let baseline = one_shot(Config::SERIAL, fleet.clone());
    assert_eq!(baseline.report.failed, 0);
    sweep("one-shot report", &baseline.report, |config| one_shot(config, fleet.clone()).report);
    let oracle = (baseline.report.clone(), outcomes(&baseline.results));
    sweep("streamed report and results", &oracle, |config| {
        let (streamed, report) = stream_through_service(config, &fleet);
        (report, outcomes(&streamed))
    });
}

/// An assessment returns only its decision; the Resource Use report is
/// built on demand from the request and the result. A result that came
/// through the service must render the same report as `pipeline.assess`
/// of the same request, for an MI request (file layout) and a
/// confidence-on DB request.
#[test]
fn on_demand_reports_match_between_service_and_pipeline() {
    let mi_engine =
        || DopplerEngine::untrained(catalog(), EngineConfig::production(DeploymentType::SqlMi));
    let mut mi = flat_request("mi-inst", 3.0, 2);
    mi.input.file_sizes_gib = vec![120.0, 40.0, 8.0];
    let mut db = flat_request("db-inst", 1.5, 1);
    db.confidence = Some(ConfidenceConfig { replicates: 8, window_samples: 48, seed: 3 });
    let cases = [(DeploymentType::SqlMi, mi), (DeploymentType::SqlDb, db)];
    let report = |request: &AssessmentRequest, r: &AssessmentResult| {
        ResourceUseReport::build(&request.input.instance, &r.recommendation).to_json()
    };
    let direct: Vec<_> = cases
        .iter()
        .map(|(deployment, request)| {
            let engine = match deployment {
                DeploymentType::SqlMi => mi_engine(),
                DeploymentType::SqlDb => engine(),
            };
            let direct = SkuRecommendationPipeline::new(engine).assess(request);
            match deployment {
                DeploymentType::SqlMi => assert!(direct.recommendation.mi.is_some()),
                DeploymentType::SqlDb => assert!(direct.recommendation.confidence.is_some()),
            }
            report(request, &direct)
        })
        .collect();
    sweep("served Resource Use reports", &direct, |config| {
        let mi_route = EngineRoute::production(CatalogKey::production(DeploymentType::SqlMi));
        let service = config.assessor(sql_db_route()).with_route(mi_route).into_service();
        let served = cases
            .iter()
            .map(|(deployment, request)| {
                let ticket = service
                    .submit(FleetRequest::new(*deployment, request.clone()))
                    .unwrap_or_else(|_| unreachable!("service is open"));
                report(request, &ticket.recv().expect("assessed").outcome.expect("assessed"))
            })
            .collect::<Vec<_>>();
        service.shutdown();
        served
    });
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
    let expected: Vec<_> =
        requests.iter().zip(&reference).map(|(q, r)| decision(&q.instance_name, r)).collect();
    let oracle = (expected, reference_ledger("Oct-21", &reference));
    // The whole decision must match; the Resource Use report is a pure
    // function of the request's history and this recommendation, so it
    // matches too.
    sweep("decisions and ledger", &oracle, |config| {
        let out = one_shot(config, month_tagged(&requests, "Oct-21"));
        (decisions(&out.results), out.report.adoption)
    });
}

/// Backend equivalence: the heuristic engine resolved through the registry
/// as a `BackendSpec::Heuristic` must produce bit-for-bit the fleet the
/// serial reference pipeline produces — and a learned backend with an
/// empty exemplar corpus is contractually pure fallback, so it must match
/// too. Under every deployment, per-instance results included; the
/// reference report folds the serial results into a fresh aggregator.
#[test]
fn backend_paths_are_bit_for_bit_equivalent_across_worker_counts() {
    use std::sync::Arc;

    let requests = cohort(&(0..40).map(|i| 0.25 + (i % 8) as f64 * 0.8).collect::<Vec<f64>>());
    let fleet = sql_db_fleet(&requests);
    let reference: Vec<FleetResult> = requests
        .iter()
        .zip(serial_reference(&requests))
        .enumerate()
        .map(|(index, (request, result))| FleetResult {
            index,
            instance_name: request.instance_name.as_str().into(),
            deployment: DeploymentType::SqlDb,
            month: None,
            outcome: Ok(result),
        })
        .collect();
    let mut aggregator = FleetAggregator::new();
    reference.iter().for_each(|r| aggregator.accept(r));
    let oracle = (aggregator.finish(), outcomes(&reference));
    assert_eq!(oracle.0.failed, 0);
    let observe = |run: FleetAssessment| (run.report, outcomes(&run.results));

    // The registry-resolved heuristic backend.
    sweep("registry", &oracle, |config| {
        let registry =
            Arc::new(EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production())));
        let run = config
            .over_registry(Arc::clone(&registry))
            .with_route(sql_db_route())
            .assess(fleet.clone());
        assert_eq!(registry.stats().misses, 1, "registry trainings under {config:?}");
        observe(run)
    });

    // The learned backend with an empty corpus is pure fallback.
    sweep("empty-corpus learned", &oracle, |config| {
        let learned =
            sql_db_route().with_backend_spec(BackendSpec::Learned(LearnedConfig::default()));
        observe(config.assessor(learned).assess(fleet.clone()))
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any random cohort: streaming submission, the one-shot assessor, and
    /// the month-tagged assessor agree bit-for-bit with the serial
    /// reference — reports, results, ledger — under every deployment.
    #[test]
    fn any_cohort_is_path_and_worker_count_invariant(
        cpus in prop::collection::vec(0.1..24.0f64, 1..24),
        month_seed in 0u8..3,
    ) {
        let month = ["Oct-21", "Nov-21", "Jan-22"][month_seed as usize];
        let requests = cohort(&cpus);
        let reference = serial_reference(&requests);
        let expected_ledger = reference_ledger(month, &reference);
        let fleet = sql_db_fleet(&requests);
        let baseline = one_shot(Config::SERIAL, fleet.clone());

        // Path 1: the one-shot assessor.
        sweep("one-shot report", &baseline.report, |config| one_shot(config, fleet.clone()).report);

        // Path 2: streaming submission through the service.
        let recommendations: Vec<Recommendation> =
            reference.iter().map(|r| r.recommendation.clone()).collect();
        let recommendations_of = |results: &[FleetResult]| -> Vec<Recommendation> {
            results.iter().map(|r| r.outcome.as_ref().unwrap().recommendation.clone()).collect()
        };
        sweep("streamed report and results", &(baseline.report.clone(), recommendations.clone()), |config| {
            let (streamed, report) = stream_through_service(config, &fleet);
            (report, recommendations_of(&streamed))
        });

        // Path 3: the one-shot assessor with adoption recording.
        sweep("tagged results and ledger", &(recommendations, expected_ledger), |config| {
            let tagged = one_shot(config, month_tagged(&requests, month));
            (recommendations_of(&tagged.results), tagged.report.adoption)
        });
    }
}
