//! DMA pipeline integration: raw counters through preprocessing, the
//! recommendation pipeline, reports, and batch assessment with adoption
//! counting.

mod common;

use common::{catalog, engine, sql_db_route, Config};
use doppler::dma::preprocess::preprocess;
use doppler::dma::{
    render_text_report, AssessmentRequest, DatabaseTelemetry, RawCounterSet, ResourceUseReport,
    SkuRecommendationPipeline,
};
use doppler::prelude::*;
use doppler::telemetry::RawSample;

fn raw_db(name: &str, cpu: f64, latency: f64, minutes: f64) -> DatabaseTelemetry {
    let mk = |level: f64| -> Vec<RawSample> {
        (0..(minutes / 10.0) as usize)
            .map(|i| RawSample { minute: i as f64 * 10.0, value: level })
            .collect()
    };
    DatabaseTelemetry {
        name: name.into(),
        counters: RawCounterSet::default()
            .with(PerfDimension::Cpu, mk(cpu))
            .with(PerfDimension::Memory, mk(cpu * 3.0))
            .with(PerfDimension::Iops, mk(cpu * 300.0))
            .with(PerfDimension::IoLatency, mk(latency)),
        file_sizes_gib: vec![100.0],
    }
}

fn pipeline(deployment: DeploymentType) -> SkuRecommendationPipeline {
    SkuRecommendationPipeline::new(DopplerEngine::untrained(
        catalog(),
        EngineConfig::production(deployment),
    ))
}

#[test]
fn preprocess_and_assess_matches_direct_engine_call() {
    let minutes = 2.0 * 24.0 * 60.0;
    let dbs = vec![raw_db("a", 0.8, 6.0, minutes), raw_db("b", 0.4, 7.0, minutes)];
    let pre = preprocess(&dbs, minutes);

    // Direct engine call on the rolled-up instance history.
    let direct = engine().recommend(&pre.instance, None);

    // Pipeline call.
    let result = pipeline(DeploymentType::SqlDb).assess(&AssessmentRequest {
        instance_name: "parity".into(),
        input: pre,
        confidence: None,
    });
    assert_eq!(result.recommendation.sku_id, direct.sku_id);
    assert_eq!(result.recommendation.group, direct.group);
}

#[test]
fn instance_rollup_aggregates_database_demand() {
    let minutes = 24.0 * 60.0;
    // Two 1.2-vCore databases: instance needs ~2.4 vCores -> a 4-vCore SKU.
    let dbs = vec![raw_db("a", 1.2, 6.0, minutes), raw_db("b", 1.2, 6.0, minutes)];
    let pre = preprocess(&dbs, minutes);
    let result = pipeline(DeploymentType::SqlDb).assess(&AssessmentRequest {
        instance_name: "rollup".into(),
        input: pre,
        confidence: None,
    });
    assert_eq!(result.recommendation.sku_id.as_deref(), Some("DB_GP_4"));
}

#[test]
fn mi_requests_carry_file_layouts_through_the_pipeline() {
    let minutes = 24.0 * 60.0;
    let dbs = vec![raw_db("a", 1.0, 6.0, minutes), raw_db("b", 1.0, 6.0, minutes)];
    let pre = preprocess(&dbs, minutes);
    assert_eq!(pre.file_sizes_gib, vec![100.0, 100.0]);
    let result = pipeline(DeploymentType::SqlMi).assess(&AssessmentRequest {
        instance_name: "mi".into(),
        input: pre,
        confidence: None,
    });
    let mi = result.recommendation.mi.expect("MI context flows through");
    assert_eq!(mi.storage_tiers.len(), 2);
}

#[test]
fn batch_service_and_ledger_count_correctly() {
    let minutes = 24.0 * 60.0;
    let requests: Vec<AssessmentRequest> = (0..6)
        .map(|i| AssessmentRequest {
            instance_name: format!("inst-{i}"),
            input: preprocess(&[raw_db("only", 0.5, 6.5, minutes)], minutes),
            confidence: None,
        })
        .collect();
    let assessor = Config { workers: 3, obs: false }.assessor(sql_db_route());
    let out = assessor.assess(
        requests
            .into_iter()
            .map(|r| FleetRequest::new(DeploymentType::SqlDb, r).with_month("Oct-21")),
    );
    assert_eq!(out.results.len(), 6);
    assert!(out.results.iter().all(|r| r.outcome.is_ok()));
    let m = out.report.adoption.month("Oct-21").unwrap();
    assert_eq!(m.unique_instances, 6);
    assert_eq!(m.unique_databases, 6);
    assert!(m.recommendations_generated >= 6);
}

#[test]
fn reports_render_and_serialize() {
    let minutes = 24.0 * 60.0;
    let request = AssessmentRequest {
        instance_name: "report".into(),
        input: preprocess(&[raw_db("x", 0.7, 6.0, minutes)], minutes),
        confidence: Some(ConfidenceConfig { replicates: 5, window_samples: 30, seed: 1 }),
    };
    let result = pipeline(DeploymentType::SqlDb).assess(&request);
    let report = ResourceUseReport::build(&request.input.instance, &result.recommendation);
    let text = render_text_report(&report);
    assert!(text.contains("Recommended SKU"));
    assert!(text.contains("Confidence"));
    let json = report.to_json();
    assert!(json.contains("curve_rows"));
    let parsed = doppler::dma::json::Json::parse(&json).unwrap();
    assert!(parsed.get("recommended_sku").and_then(|v| v.as_str()).is_some());
}

#[test]
fn dead_collectors_do_not_poison_the_instance() {
    let minutes = 24.0 * 60.0;
    let mut dead = raw_db("dead", 10.0, 6.0, minutes);
    for (_, samples) in dead.counters.samples.iter_mut() {
        for s in samples.iter_mut() {
            s.value = f64::NAN;
        }
    }
    let pre = preprocess(&[raw_db("live", 0.5, 6.0, minutes), dead], minutes);
    assert_eq!(pre.databases.len(), 1);
    let result = pipeline(DeploymentType::SqlDb).assess(&AssessmentRequest {
        instance_name: "resilient".into(),
        input: pre,
        confidence: None,
    });
    // Only the live database's 0.5 vCores count.
    assert_eq!(result.recommendation.sku_id.as_deref(), Some("DB_GP_2"));
}
