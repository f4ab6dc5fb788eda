//! Autonomous fleet lifecycle, simulated: a [`FleetScheduler`] runs years
//! of fleet life — staggered onboarding waves, monthly telemetry with
//! seasonal drift, periodic regional price cuts, cursor-dispatched
//! catalog rolls, and TTL retirement — in seconds, deterministically.
//! The same schedule always produces the same report, at any worker
//! count.
//!
//! ```text
//! cargo run --release --example fleet_sim
//! ```
//!
//! Flags via env (keeps the example dependency-free): `FLEET_SIZE`
//! (default 120 customers, round-robin across 3 regions), `SIM_YEARS`
//! (default 3), `FLEET_WORKERS` (default: all cores).

use std::sync::Arc;
use std::time::Instant;

use doppler::dma::json::Json;
use doppler::fleet::schedule_summary_to_json;
use doppler::prelude::*;

const REGIONS: [(&str, f64); 3] = [("global", 1.0), ("westeurope", 1.08), ("eastasia", 1.12)];

fn window(cpu: f64) -> PerfHistory {
    PerfHistory::new()
        .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 48]))
        .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; 48]))
}

fn main() {
    let fleet_size: usize =
        std::env::var("FLEET_SIZE").ok().and_then(|s| s.parse().ok()).unwrap_or(120);
    let years: usize = std::env::var("SIM_YEARS").ok().and_then(|s| s.parse().ok()).unwrap_or(3);
    let workers: usize = std::env::var("FLEET_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    let horizon = years * 12;

    // 1. The serving stack: a refreshable provider over three regions, a
    //    shared engine registry, a registry-resolving assessor, and the drift
    //    monitor — exactly what an operator would crank by hand.
    let inner = REGIONS.iter().fold(InMemoryCatalogProvider::new(), |p, &(region, multiplier)| {
        p.with_region(
            Region::new(region),
            CatalogVersion::INITIAL,
            &CatalogSpec::default(),
            multiplier,
        )
    });
    let provider = Arc::new(RefreshableCatalogProvider::new(Arc::new(inner)));
    let registry = Arc::new(EngineRegistry::new(Arc::clone(&provider) as Arc<dyn CatalogProvider>));
    let assessor =
        FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(workers))
            .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)));
    let mut sim = FleetScheduler::new(DriftMonitor::new(assessor), SimClock::starting(2022, 1))
        .with_provider(Arc::clone(&provider))
        .with_idle_ttl(6)
        .with_version_window(2);

    // 2. The calendar. Customer `i` onboards in month `i % 12` of year
    //    one, reports telemetry monthly for two years, then goes dark (a
    //    churned tenant) and ages out through the idle TTL. Every fifth
    //    customer's workload grows 3× mid-life — the drift pass catches
    //    it the month it lands and re-assesses through the priority lane.
    for i in 0..fleet_size {
        let (region, _) = REGIONS[i % REGIONS.len()];
        let key = CatalogKey::new(DeploymentType::SqlDb, Region::new(region), CatalogVersion(1));
        let name = format!("cust-{i:04}");
        let base = 0.3 + 0.45 * ((i / REGIONS.len()) % 16) as f64;
        let onboard = i % 12;
        sim.onboard_at(
            onboard,
            MonitoredCustomer::new(&name, DeploymentType::SqlDb, window(base))
                .with_catalog_key(key),
        );
        let drift_month = onboard + 6;
        for m in onboard + 1..(onboard + 24).min(horizon) {
            let cpu = if i % 5 == 0 && m >= drift_month { base * 3.0 + 2.0 } else { base };
            sim.telemetry_at(m, &name, window(cpu));
        }
    }
    // A price cut lands every six months, rotating through the regions —
    // each one rolls its region's catalog version and re-prices the
    // pinned customers the same simulated month, through the change-log
    // cursor.
    for (k, m) in (5..horizon).step_by(6).enumerate() {
        let (region, _) = REGIONS[k % REGIONS.len()];
        sim.feed_at(m, Region::new(region), PriceFeed::Multiplier(0.95));
    }

    // 3. Run the years. Pausing between calendar years costs nothing —
    //    `run(12)` × N is bit-for-bit `run(12 * N)`.
    let start = Instant::now();
    for year in 0..years {
        let months = sim.run(12);
        let (drifted, repriced, retired): (usize, usize, usize) =
            months.iter().fold((0, 0, 0), |(d, p, r), m| {
                let priced: usize = m
                    .rolls
                    .iter()
                    .map(|roll| roll.repriced.iter().filter(|x| x.outcome.is_ok()).count())
                    .sum();
                (d + m.pass.report.drifted, p + priced, r + m.retired_customers.len())
            });
        println!(
            "year {}: {:>3} drift events, {:>3} re-priced, {:>3} customers retired, {:>3} watched",
            2022 + year,
            drifted,
            repriced,
            retired,
            sim.monitor().watched(),
        );
    }
    let elapsed = start.elapsed();

    // 4. The lifecycle invariants the scheduler exists to keep.
    let summary = sim.summary().clone();
    assert_eq!(summary.sim_months(), horizon);
    assert_eq!(summary.customers_onboarded, fleet_size);
    assert_eq!(
        sim.monitor().roll_cursor(),
        provider.rolls(),
        "every published roll was dispatched exactly once"
    );
    assert_eq!(summary.reprice_failures, 0, "no re-price was silently dropped");
    let json = schedule_summary_to_json(&summary);
    let parsed = Json::parse(&json.render_pretty()).expect("exported JSON re-parses");
    assert_eq!(
        doppler::fleet::schedule_summary_from_json(&parsed).as_ref(),
        Some(&summary),
        "schedule trace round-trips losslessly"
    );

    // 5. The final report carries the whole simulated life, including the
    //    per-month schedule trace.
    let report = sim.shutdown();
    println!("\n{}", report.render());
    let stats = registry.stats();
    // Warm resolutions split between `hits` and `coalesced` by timing, so
    // only their sum is deterministic.
    println!(
        "registry: {} trainings, {} warm resolutions, {} retired engine(s), {} live entries",
        stats.misses,
        stats.hits + stats.coalesced,
        stats.retirements,
        stats.entries
    );
    println!(
        "\nsimulated {} months ({} customers, {} workers) in {:.2?} — {:.1} years/sec",
        horizon,
        fleet_size,
        workers,
        elapsed,
        years as f64 / elapsed.as_secs_f64().max(1e-9),
    );
}
