//! The drift-monitoring loop end to end: assess a mixed-region fleet,
//! watch every deployed customer, then run monthly drift passes as a
//! demand wave hits one region — drifted customers jump the queue through
//! the priority lane, get re-recommended, and stabilize on their new SKUs
//! the following month.
//!
//! ```text
//! cargo run --release --example drift_watch
//! ```
//!
//! Flags via env (keeps the example dependency-free): `FLEET_SIZE`
//! (default 60), `FLEET_WORKERS` (default: all cores).

use std::sync::Arc;

use doppler::prelude::*;
use doppler::workload::{DriftDirection, DriftSpec};

const DRIFTING_REGION: &str = "westeurope";

/// Customer `i`'s drift spec: which region it lives in decides whether the
/// demand wave (grow ~4× into a latency-critical workload) hits it.
fn spec_for(i: usize, size: usize, drifting: bool) -> DriftSpec {
    let west = i >= size / 2;
    DriftSpec {
        direction: DriftDirection::Grow,
        days: 1.0,
        onset_day: 0.5,
        magnitude: if west && drifting { 25.0 / 6.0 } else { 1.0 },
        base_scale: 0.4 + 0.5 * ((i % 6) as f64 / 5.0),
        latency_critical: true,
    }
}

fn main() {
    let size: usize = std::env::var("FLEET_SIZE").ok().and_then(|s| s.parse().ok()).unwrap_or(60);
    let workers: usize = std::env::var("FLEET_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));

    // 1. A registry-backed service: global at list price, West Europe at
    //    an 8 % premium. The monitor owns the service; ordinary traffic
    //    could keep flowing through `monitor.service()` alongside it.
    let provider = InMemoryCatalogProvider::production().with_region(
        Region::new(DRIFTING_REGION),
        CatalogVersion::INITIAL,
        &CatalogSpec::default(),
        1.08,
    );
    let registry = Arc::new(EngineRegistry::new(Arc::new(provider)));
    let assessor =
        FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(workers))
            .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)));
    let mut monitor = DriftMonitor::new(assessor);

    // 2. Initial assessment (the "assess" + "deploy" steps): every
    //    customer's baseline window goes through the pipeline once, and
    //    the result seeds the monitor's watch list.
    let west_key =
        CatalogKey::production(DeploymentType::SqlDb).in_region(Region::new(DRIFTING_REGION));
    let mut requests = Vec::new();
    for i in 0..size {
        let baseline = spec_for(i, size, false).scenario(77 + i as u64).before;
        let mut request = FleetRequest::new(
            DeploymentType::SqlDb,
            AssessmentRequest::from_history(format!("cust-{i:03}"), baseline, vec![], None),
        )
        .with_month("Oct-21");
        if i >= size / 2 {
            request = request.with_catalog_key(west_key.clone());
        }
        requests.push(request);
    }
    let tickets = monitor.service().submit_all(requests.iter().cloned()).expect("live service");
    for (request, ticket) in requests.iter().zip(tickets) {
        let result = ticket.recv().expect("assessed");
        monitor.watch_assessment(request, &result);
    }
    println!(
        "deployed {} customers ({} global, {} {DRIFTING_REGION}); watching all of them\n",
        monitor.watched(),
        size / 2,
        size - size / 2
    );

    // 3. Monthly drift passes: November is quiet, the demand wave hits
    //    West Europe in December (drifted customers re-queue through the
    //    priority lane and roll their baselines forward), and January
    //    finds them stable on their new SKUs.
    for (month, drifting, seed) in
        [("Nov-21", false, 1_000u64), ("Dec-21", true, 2_000), ("Jan-22", true, 3_000)]
    {
        for i in 0..size {
            // January: the wave-hit region's demand holds at its December
            // level (same window), so the rolled-forward baselines read
            // stable; everyone else keeps drawing fresh control windows.
            let window_seed =
                if month == "Jan-22" && i >= size / 2 { 2_000 } else { seed } + i as u64;
            let fresh = spec_for(i, size, drifting).scenario(window_seed).after;
            monitor.observe(&format!("cust-{i:03}"), fresh);
        }
        let pass = monitor.tick(month);
        println!("{}", pass.report.render());
        if !pass.reassessments.is_empty() {
            println!(
                "priority lane re-assessed {} drifted customer(s); first move: {}",
                pass.reassessments.len(),
                pass.reassessments[0]
                    .outcome
                    .as_ref()
                    .ok()
                    .and_then(|r| r.recommendation.sku_id.clone())
                    .unwrap_or_else(|| "?".into())
            );
        }
        println!();
    }

    // 4. The monitor's ledger rows (drift checks per month) and the
    //    service's own report, whose adoption table now carries both the
    //    Table 1 counters and the drift columns.
    let mut ledger = monitor.ledger().clone();
    let report = monitor.shutdown();
    ledger.merge(&report.adoption);
    println!("=== Continuous-operation ledger ===");
    println!(
        "{:>8} {:>10} {:>16} {:>12} {:>8}",
        "month", "instances", "recommendations", "drift-checks", "drifted"
    );
    for month in ["Oct-21", "Nov-21", "Dec-21", "Jan-22"] {
        let Some(row) = ledger.month(month) else { continue };
        println!(
            "{:>8} {:>10} {:>16} {:>12} {:>8}",
            month,
            row.unique_instances,
            row.recommendations_generated,
            row.drift_checks,
            row.drift_detected
        );
    }
    let stats = registry.stats();
    println!(
        "\nregistry: {} trainings for {} resolutions across {} keys",
        stats.misses,
        stats.hits + stats.coalesced + stats.misses,
        stats.entries
    );
}
