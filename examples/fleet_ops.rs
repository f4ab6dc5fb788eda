//! The fleet through an operator's eyes: one `ObsRegistry` instruments
//! the whole hot path — catalog price-feed applies, engine trainings,
//! queue lanes, per-stage worker spans, drift passes — while a demand
//! wave and a price cut play out. The run ends with the drift report plus
//! the ops dashboard appended, and the same snapshot exported as JSON
//! (the artifact a CI job archives).
//!
//! ```text
//! cargo run --release --example fleet_ops
//! ```
//!
//! Flags via env (keeps the example dependency-free): `FLEET_SIZE`
//! (default 48), `FLEET_WORKERS` (default: all cores), `OBS_JSON` (when
//! set, the snapshot JSON is also written to this path).

use std::sync::Arc;

use doppler::dma::json::Json;
use doppler::dma::{obs_snapshot_from_json, obs_snapshot_to_json};
use doppler::prelude::*;
use doppler::workload::{DriftDirection, DriftSpec};

const WAVE_REGION: &str = "westeurope";

/// Customer `i`'s drift spec: the upper half of the fleet lives in the
/// wave region and grows ~4× once the wave arrives.
fn spec_for(i: usize, size: usize, wave: bool) -> DriftSpec {
    let west = i >= size / 2;
    DriftSpec {
        direction: DriftDirection::Grow,
        days: 1.0,
        onset_day: 0.5,
        magnitude: if west && wave { 25.0 / 6.0 } else { 1.0 },
        base_scale: 0.4 + 0.5 * ((i % 6) as f64 / 5.0),
        latency_critical: true,
    }
}

fn main() {
    let size: usize = std::env::var("FLEET_SIZE").ok().and_then(|s| s.parse().ok()).unwrap_or(48);
    let workers: usize = std::env::var("FLEET_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));

    // 1. One observability registry, handed to every layer. Each `with_obs`
    //    is a builder step; a layer not given the registry simply stays
    //    uninstrumented (the handles are no-ops).
    let obs = ObsRegistry::enabled();
    let inner = InMemoryCatalogProvider::production().with_region(
        Region::new(WAVE_REGION),
        CatalogVersion::INITIAL,
        &CatalogSpec::default(),
        1.08,
    );
    let provider = Arc::new(RefreshableCatalogProvider::new(Arc::new(inner)).with_obs(&obs));
    let registry = Arc::new(
        EngineRegistry::new(Arc::clone(&provider) as Arc<dyn CatalogProvider>).with_obs(&obs),
    );
    let assessor =
        FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(workers))
            .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)))
            .with_obs(&obs);
    let mut monitor = DriftMonitor::new(assessor);

    // 2. Assess and watch the fleet at baseline: half global, half in the
    //    wave region at its premium catalog.
    let west_key =
        CatalogKey::production(DeploymentType::SqlDb).in_region(Region::new(WAVE_REGION));
    let mut requests = Vec::new();
    for i in 0..size {
        let baseline = spec_for(i, size, false).scenario(131 + i as u64).before;
        let mut request = FleetRequest::new(
            DeploymentType::SqlDb,
            AssessmentRequest::from_history(format!("cust-{i:03}"), baseline, vec![], None),
        )
        .with_month("Oct-22");
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
    println!("deployed and watching {} customers ({WAVE_REGION} holds the upper half)", size);

    // 3. November: the demand wave hits the wave region. Drifted customers
    //    re-queue through the priority lane; the pass latency, verdict
    //    counters, and re-queue gauge all land in the obs registry.
    for i in 0..size {
        let fresh = spec_for(i, size, true).scenario(5_000 + i as u64).after;
        monitor.observe(&format!("cust-{i:03}"), fresh);
    }
    let nov = monitor.tick("Nov-22");
    println!(
        "Nov-22 drift pass: {} checked, {} drifted, {} re-assessed through the priority lane",
        nov.report.checked,
        nov.report.drifted,
        nov.reassessments.len()
    );

    // 4. December: a 12 % price cut lands in the wave region through the
    //    price feed (timed by `catalog.feed_apply`), and the roll is
    //    processed — old engine retired, pinned customers re-priced.
    let rolls = provider
        .apply_feed(&Region::new(WAVE_REGION), PriceFeed::Multiplier(0.88))
        .expect("known region");
    let roll = rolls
        .iter()
        .find(|r| r.old_key.deployment == DeploymentType::SqlDb)
        .expect("DB key rolled");
    let outcome = monitor.on_catalog_roll("Dec-22", &roll.old_key, &roll.new_key);
    println!(
        "Dec-22 catalog roll: {} -> {}, {} engine(s) retired, {} customer(s) re-priced",
        roll.old_key,
        roll.new_key,
        outcome.retired_engines,
        outcome.repriced.len()
    );

    // 5. The December pass re-checks the fleet (demand holds at its
    //    November level, so the rolled-forward baselines read stable) and
    //    carries the roll; render it with the ops dashboard appended —
    //    business verdicts first, then where the time went (stage
    //    latencies, queue waits, training counts).
    for i in 0..size {
        let held = spec_for(i, size, true).scenario(5_000 + i as u64).after;
        monitor.observe(&format!("cust-{i:03}"), held);
    }
    let dec = monitor.tick("Dec-22");
    let snapshot = obs.snapshot();
    println!("\n{}", dec.report.render_with_ops(&snapshot));

    // 6. The machine-readable side of the same snapshot: export to JSON,
    //    then prove the artifact round-trips (parse the rendered text and
    //    re-load it into an identical snapshot) — the validation CI runs
    //    against the uploaded artifact.
    let json_text = obs_snapshot_to_json(&snapshot).render_pretty();
    let reparsed = Json::parse(&json_text).expect("exported JSON parses");
    let reloaded = obs_snapshot_from_json(&reparsed).expect("schema round-trips");
    assert_eq!(reloaded, snapshot, "JSON export must round-trip losslessly");
    println!("snapshot JSON: {} bytes, round-trip OK", json_text.len());
    if let Ok(path) = std::env::var("OBS_JSON") {
        if !path.is_empty() {
            std::fs::write(&path, &json_text).expect("writable OBS_JSON path");
            println!("snapshot written to {path}");
        }
    }
}
