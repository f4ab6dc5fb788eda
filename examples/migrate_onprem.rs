//! The full migration-assessment journey for an on-premises SQL Server:
//! raw perf counters → preprocessing → a Doppler engine trained on cloud
//! customers → recommendation, explanation, and confidence — the complete
//! DMA flow of §4.
//!
//! ```text
//! cargo run --release --example migrate_onprem
//! ```

use doppler::dma::{
    preprocess::preprocess, render_text_report, AssessmentRequest, DatabaseTelemetry,
    RawCounterSet, ResourceUseReport, SkuRecommendationPipeline,
};
use doppler::prelude::*;
use doppler::stats::SeededRng;
use doppler::telemetry::RawSample;

/// Fake one week of raw (irregular, occasionally failing) collector output
/// for one database — the kind of stream the appliance actually sees.
fn collect(db_load: f64, latency_ms: f64, seed: u64) -> RawCounterSet {
    let mut rng = SeededRng::new(seed);
    let total_minutes = 7.0 * 24.0 * 60.0;
    let mut mk = |level: f64, spread: f64| -> Vec<RawSample> {
        let mut out = Vec::new();
        let mut minute = 0.0;
        while minute < total_minutes {
            // Samples arrive every 8-12 minutes; ~2% of reads fail.
            minute += rng.range(8.0, 12.0);
            let value = if rng.chance(0.02) {
                f64::NAN
            } else {
                (level + rng.normal_with(0.0, spread)).max(0.0)
            };
            out.push(RawSample { minute, value });
        }
        out
    };
    RawCounterSet::default()
        .with(PerfDimension::Cpu, mk(0.9 * db_load, 0.1 * db_load))
        .with(PerfDimension::Memory, mk(3.2 * db_load, 0.2 * db_load))
        .with(PerfDimension::Iops, mk(420.0 * db_load, 40.0 * db_load))
        .with(PerfDimension::IoLatency, mk(latency_ms, 0.05 * latency_ms))
        .with(PerfDimension::LogRate, mk(2.1 * db_load, 0.2 * db_load))
        .with(PerfDimension::Storage, mk(55.0 * db_load, 0.0))
}

fn main() {
    // --- On the appliance: collect and preprocess three databases. -------
    let databases = vec![
        DatabaseTelemetry {
            name: "orders".into(),
            counters: collect(2.0, 1.3, 11), // latency-critical order entry
            file_sizes_gib: vec![120.0],
        },
        DatabaseTelemetry {
            name: "catalog".into(),
            counters: collect(0.8, 6.0, 12),
            file_sizes_gib: vec![60.0],
        },
        DatabaseTelemetry {
            name: "reporting".into(),
            counters: collect(1.4, 8.0, 13),
            file_sizes_gib: vec![300.0],
        },
    ];
    let preprocessed = preprocess(&databases, 7.0 * 24.0 * 60.0);
    println!(
        "preprocessed {} databases into {} aligned 10-minute samples",
        preprocessed.databases.len(),
        preprocessed.instance.len()
    );

    // --- In the control plane: train Doppler on migrated customers. ------
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let cohort = PopulationSpec::sql_db(250, 42).customers(&catalog);
    let records: Vec<TrainingRecord> = cohort
        .iter()
        .filter(|c| !c.over_provisioned)
        .map(|c| TrainingRecord {
            history: c.history.clone(),
            chosen_sku: c.chosen_sku.clone(),
            file_layout: None,
        })
        .collect();
    println!("trained on {} migrated customers", records.len());
    let engine =
        DopplerEngine::train(catalog, EngineConfig::production(DeploymentType::SqlDb), &records);

    // --- Assess. ----------------------------------------------------------
    let pipeline = SkuRecommendationPipeline::new(engine);
    let request = AssessmentRequest {
        instance_name: "onprem-sql-01".into(),
        input: preprocessed,
        confidence: Some(ConfidenceConfig { replicates: 25, window_samples: 3 * 144, seed: 5 }),
    };
    let result = pipeline.assess(&request);

    // --- Explain: the Resource Use dashboard, built on demand. -------------
    let report = ResourceUseReport::build(&request.input.instance, &result.recommendation);
    println!("\n{}", render_text_report(&report));
    // The orders database's 1.3 ms latency requirement should steer the
    // instance toward Business Critical.
    if let Some(sku) = &result.recommendation.sku_id {
        println!("final recommendation for onprem-sql-01: {sku}");
    }
}
