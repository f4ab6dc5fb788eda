//! Streaming fleet assessment over the engine registry: run the
//! long-lived `FleetService`, submit a heterogeneous cohort as a
//! continuous request stream, and poll the incremental report snapshot
//! the way a migration dashboard would — mid-run, while tickets are still
//! resolving. Engines resolve through one shared `EngineRegistry`, so
//! nothing is ever trained twice, here or in any other consumer of the
//! same registry.
//!
//! ```text
//! cargo run --release --example streaming_service
//! ```
//!
//! Flags via env (keeps the example dependency-free):
//! `FLEET_SIZE` (default 400 DB + ~130 MI), `FLEET_WORKERS` (default: all
//! cores).

use std::sync::Arc;
use std::time::Instant;

use doppler::fleet::cloud_fleet;
use doppler::prelude::*;

fn main() {
    let db_size: usize =
        std::env::var("FLEET_SIZE").ok().and_then(|s| s.parse().ok()).unwrap_or(400);
    let mi_size = db_size / 3;
    let workers: usize = std::env::var("FLEET_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));

    // 1. One long-lived service resolving both deployment targets through
    //    a shared registry: each engine is trained at most once — by the
    //    first worker that needs it — and every later resolution is a
    //    shared read-lock lookup plus an Arc bump. One `ObsRegistry`
    //    instruments the whole path: registry trainings, queue lanes, and
    //    the per-stage worker spans all land in the same snapshot.
    let obs = ObsRegistry::enabled();
    let registry = Arc::new(
        EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production())).with_obs(&obs),
    );
    let service =
        FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(workers))
            .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)))
            .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlMi)))
            .with_obs(&obs)
            .into_service();

    // 2. The request stream: a SQL DB cohort chained with a SQL MI cohort,
    //    submitted one at a time exactly as a telemetry pipeline would hand
    //    them over. `submit` applies backpressure at the bounded queue, so
    //    the stream never materializes beyond queue depth.
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let db_spec = PopulationSpec { days: 2.0, ..PopulationSpec::sql_db(db_size, 42) };
    let mi_spec = PopulationSpec { days: 2.0, ..PopulationSpec::sql_mi(mi_size, 43) };
    let stream = cloud_fleet(&db_spec, &catalog, None).chain(cloud_fleet(&mi_spec, &catalog, None));

    let start = Instant::now();
    let mut tickets = TicketQueue::new();
    let mut resolved = 0usize;
    let mut next_progress_mark = 1usize;
    for request in stream {
        tickets.push(service.submit(request).expect("service accepts while open"));
        // Drain whatever has completed, keeping the outstanding-ticket
        // window bounded by the service's queue depth + worker count.
        while tickets.try_next().is_some() {
            resolved += 1;
        }
        // 3. Mid-run dashboard: poll the snapshot a few times as the run
        //    progresses. The snapshot is the exact report of the
        //    `completed` results — never a half-updated view.
        let progress = service.progress();
        if progress.completed >= next_progress_mark * (db_size + mi_size) / 4 {
            next_progress_mark += 1;
            let snapshot = service.report_snapshot();
            let stats = registry.stats();
            println!(
                "[{:>6.2?}] submitted {:>4}  in flight {:>3}  completed {:>4}  queue {:>3}  \
                 trained {:>2}  warm {:>4}  ${:>10.2}/mo so far",
                start.elapsed(),
                progress.submitted,
                progress.in_flight(),
                progress.completed,
                service.queue_len(),
                stats.misses,
                stats.hits + stats.coalesced,
                snapshot.total_monthly_cost,
            );
        }
    }

    // 4. End of stream: stop intake, block out the tail of tickets.
    service.close();
    while tickets.next_blocking().is_some() {
        resolved += 1;
    }
    let elapsed = start.elapsed();

    // 5. Final dashboard — identical to what a one-shot batch run of the
    //    same cohort would report, plus the ops view (stage latencies,
    //    per-worker task counts, queue-wait percentiles) appended from the
    //    observability snapshot. The report half is deterministic; only
    //    the ops half varies run to run.
    let report = service.shutdown();
    println!("\n{}", report.render_with_ops(&obs.snapshot()));
    println!(
        "streamed {resolved} instances on {workers} worker(s) in {elapsed:.2?} ({:.1} instances/s)",
        resolved as f64 / elapsed.as_secs_f64()
    );
    let stats = registry.stats();
    println!(
        "registry: {} trainings, {} warm resolutions, {} engines cached",
        stats.misses,
        stats.hits + stats.coalesced,
        stats.entries,
    );
}
