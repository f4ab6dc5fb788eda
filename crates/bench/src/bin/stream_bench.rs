//! Memory-bounded streaming bench: one million synthetic customers pushed
//! through one `FleetService` without ever materialising the cohort or its
//! results.
//!
//! Requests are synthesised on the fly from a small pool of Arc-shared
//! telemetry windows (a refcount bump per submission, not a buffer copy),
//! results are drained as they complete with `keep_results = false`, and
//! workers fold each result into the service's one aggregate as it
//! completes — so resident memory stays flat no matter how many customers
//! stream through.
//! `VmHWM` from `/proc/self/status` is asserted against a hard budget to
//! keep it that way.
//!
//! ```text
//! cargo run --release -p doppler-bench --bin stream_bench            # 1M
//! cargo run --release -p doppler-bench --bin stream_bench -- --quick # 100k
//! ```
//!
//! Env knobs: `STREAM_CUSTOMERS` (overrides the cohort size),
//! `FLEET_WORKERS` (default 2), `RSS_BUDGET_MB` (default 4096; exits
//! non-zero past it), `STREAM_JSON_LOG` (append the JSON-lines row to a
//! file).
//!
//! Row schema (one JSON object per line):
//! `{"label":"stream_1m_customers/workers/2","customers":1000000,
//!   "elapsed_s":..,"throughput_per_s":..,"ns_per_iter":..,
//!   "iters_per_sec":..,"vm_hwm_mib":..}`
//! (`ns_per_iter`/`iters_per_sec` are per-customer, matching the vendored
//! criterion's JSON-lines rows.)

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::sync::Arc;

use doppler_catalog::{
    CatalogKey, CatalogSpec, CatalogVersion, DeploymentType, InMemoryCatalogProvider, Region,
};
use doppler_core::EngineRegistry;
use doppler_dma::preprocess::PreprocessedInstance;
use doppler_dma::AssessmentRequest;
use doppler_fleet::{
    EngineRoute, FleetAssessor, FleetConfig, FleetRequest, FleetService, TicketQueue,
};
use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};

const REGIONS: usize = 8;
const WINDOW_POOL: usize = 64;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Peak resident set (`VmHWM`) in MiB, from the kernel's own accounting.
fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn regions() -> Vec<Region> {
    (0..REGIONS).map(|i| Region::new(format!("region-{i}"))).collect()
}

/// The shared telemetry pool: every customer reuses one of these windows,
/// so a submission clones two `Arc<[f64]>` handles instead of re-allocating
/// a multi-sample buffer per customer.
fn window_pool() -> Vec<PerfHistory> {
    (0..WINDOW_POOL)
        .map(|i| {
            let cpu = 0.3 + (i % 9) as f64 * 0.7 + (i / 9) as f64 * 0.05;
            PerfHistory::new()
                .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 144]))
                .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; 144]))
        })
        .collect()
}

fn request(i: usize, pool: &[PerfHistory], regions: &[Region]) -> FleetRequest {
    let history = pool[i % pool.len()].clone();
    FleetRequest::new(
        DeploymentType::SqlDb,
        AssessmentRequest {
            instance_name: format!("cust-{i}"),
            input: PreprocessedInstance {
                instance: history.clone(),
                databases: vec![(format!("cust-{i}/db0"), history)],
                file_sizes_gib: vec![],
            },
            confidence: None,
        },
    )
    .with_month(["Oct-21", "Nov-21", "Dec-21"][i % 3])
    .with_catalog_key(CatalogKey::new(
        DeploymentType::SqlDb,
        regions[i % regions.len()].clone(),
        CatalogVersion::INITIAL,
    ))
}

fn service(workers: usize) -> FleetService {
    let provider = regions().into_iter().fold(InMemoryCatalogProvider::production(), |p, r| {
        p.with_region(r, CatalogVersion::INITIAL, &CatalogSpec::default(), 1.0)
    });
    let registry = Arc::new(EngineRegistry::new(Arc::new(provider)));
    let config = FleetConfig { workers, queue_depth: workers * 8, keep_results: false };
    FleetAssessor::over_registry(registry, config)
        .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)))
        .into_service()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let customers = env_usize("STREAM_CUSTOMERS", if quick { 100_000 } else { 1_000_000 });
    let workers = env_usize("FLEET_WORKERS", 2);
    let rss_budget_mib = env_usize("RSS_BUDGET_MB", 4096) as f64;

    let pool = window_pool();
    let regions = regions();
    println!("streaming {customers} customers, {workers} worker(s)");

    let service = service(workers);
    let mut tickets = TicketQueue::new();
    let mut done = 0usize;
    let t0 = std::time::Instant::now();
    for i in 0..customers {
        let ticket = service.submit(request(i, &pool, &regions)).unwrap_or_else(|_| unreachable!());
        tickets.push(ticket);
        // Drain as we go: in-flight results stay bounded by the queue
        // depth, never by the cohort size.
        while tickets.try_next().is_some() {
            done += 1;
        }
    }
    while tickets.next_blocking().is_some() {
        done += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let report = service.shutdown();
    assert_eq!(done, customers, "every ticket resolved");
    assert_eq!(report.fleet_size, customers, "report covers the fleet");
    assert_eq!(report.failed, 0, "no assessment failures: {:?}", report.failures);

    let per_customer_ns = elapsed * 1e9 / customers as f64;
    println!("  {elapsed:>7.2} s   {:>9.0} customers/s", customers as f64 / elapsed);
    let row = format!(
        concat!(
            "{{\"label\":\"stream_{}_customers/workers/{}\",\"customers\":{},",
            "\"elapsed_s\":{:.3},\"throughput_per_s\":{:.0},\"ns_per_iter\":{:.1},",
            "\"iters_per_sec\":{:.3},\"vm_hwm_mib\":{:.0}}}"
        ),
        if customers == 1_000_000 { "1m".to_string() } else { format!("{customers}") },
        workers,
        customers,
        elapsed,
        customers as f64 / elapsed,
        per_customer_ns,
        1e9 / per_customer_ns,
        vm_hwm_mib(),
    );
    if let Ok(path) = std::env::var("STREAM_JSON_LOG") {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("open STREAM_JSON_LOG");
        writeln!(file, "{row}").expect("append row");
    } else {
        println!("{row}");
    }

    let hwm = vm_hwm_mib();
    println!("peak RSS (VmHWM): {hwm:.0} MiB (budget {rss_budget_mib:.0} MiB)");
    if hwm > rss_budget_mib {
        eprintln!("FAIL: peak RSS exceeds the {rss_budget_mib:.0} MiB budget");
        std::process::exit(1);
    }
}
