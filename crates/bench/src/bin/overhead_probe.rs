//! Paired observability-overhead probe: the authoritative check that
//! instrumentation stays within a few percent of the no-op path.
//!
//! Measuring the no-op and enabled paths in separate windows, minutes
//! apart on a busy CI container, lets run-to-run drift (±10 % and more)
//! swamp the effect being measured. This probe runs the two modes back to
//! back in every round, alternating which goes first, and gates on the
//! median of the per-round enabled / no-op ratios, so machine drift and
//! run order hit both sides equally:
//!
//! ```text
//! cargo run --release -p doppler-bench --bin overhead_probe
//! ```
//!
//! Env knobs: `COHORT` (default 1000 customers), `ROUNDS` (default 10;
//! the first round is warm-up and discarded), `FLEET_WORKERS` (default 4,
//! or the machine's parallelism when that is lower: more workers than
//! CPUs only adds scheduler noise). Exits non-zero when the median
//! overhead exceeds `MAX_OVERHEAD_PCT` (5 %), so CI can gate on it
//! directly.

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use doppler_catalog::{
    azure_paas_catalog, CatalogKey, CatalogSpec, DeploymentType, InMemoryCatalogProvider,
};
use doppler_core::EngineRegistry;
use doppler_fleet::{cloud_fleet, EngineRoute, FleetAssessor, FleetConfig, FleetRequest};
use doppler_obs::ObsRegistry;
use doppler_workload::PopulationSpec;

const MAX_OVERHEAD_PCT: f64 = 5.0;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn main() {
    let cohort_size = env_usize("COHORT", 1000);
    let rounds = env_usize("ROUNDS", 10).max(2);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = env_usize("FLEET_WORKERS", cpus.min(4));

    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let spec = PopulationSpec { days: 1.0, ..PopulationSpec::sql_db(cohort_size, 17) };
    let fleet: Vec<FleetRequest> = cloud_fleet(&spec, &catalog, None).collect();
    // One registry for every round, its engine trained before timing
    // starts: the rounds measure assessment, never training.
    let registry = Arc::new(EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production())));
    let route = EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb));
    registry
        .get_or_train(&route.default_key, &route.template, &route.training)
        .expect("the production catalog resolves");
    let assessor = |obs: &ObsRegistry| {
        let mut config = FleetConfig::with_workers(workers);
        config.keep_results = false;
        FleetAssessor::over_registry(Arc::clone(&registry), config)
            .with_route(route.clone())
            .with_obs(obs)
    };

    let time = |obs: ObsRegistry| {
        let a = assessor(&obs);
        let t0 = Instant::now();
        std::hint::black_box(a.assess(fleet.clone()).report);
        t0.elapsed().as_secs_f64() * 1e3
    };
    let mut noop = Vec::new();
    let mut enabled = Vec::new();
    let mut ratios = Vec::new();
    for round in 0..rounds {
        // Odd rounds run the enabled mode first, so neither mode always
        // inherits the other's warm caches or leftover threads.
        let (n, e) = if round % 2 == 0 {
            let n = time(ObsRegistry::disabled());
            (n, time(ObsRegistry::enabled()))
        } else {
            let e = time(ObsRegistry::enabled());
            (time(ObsRegistry::disabled()), e)
        };
        // Round 0 is warm-up: caches, lazy statics, allocator pools.
        if round > 0 {
            noop.push(n);
            enabled.push(e);
            ratios.push(e / n);
        }
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let overhead_pct = (median(&mut ratios) - 1.0) * 100.0;
    let (noop_median, enabled_median) = (median(&mut noop), median(&mut enabled));
    println!(
        "obs overhead probe: {cohort_size} customers x {} measured rounds on {workers} worker(s)",
        rounds - 1
    );
    println!(
        "  noop    median {:>8.2} ms   (spread {:.2}..{:.2})",
        noop_median,
        noop[0],
        noop[noop.len() - 1]
    );
    println!(
        "  enabled median {:>8.2} ms   (spread {:.2}..{:.2})",
        enabled_median,
        enabled[0],
        enabled[enabled.len() - 1]
    );
    println!(
        "  overhead: {overhead_pct:.2}% median of per-round ratios (budget {MAX_OVERHEAD_PCT:.0}%)"
    );
    if overhead_pct > MAX_OVERHEAD_PCT {
        eprintln!("FAIL: instrumentation overhead exceeds the {MAX_OVERHEAD_PCT:.0}% budget");
        std::process::exit(1);
    }
}
