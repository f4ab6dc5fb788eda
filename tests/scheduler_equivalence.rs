//! Scheduler ≡ operator equivalence: a [`FleetScheduler`] run over a
//! fixed calendar — staggered onboarding, monthly telemetry with
//! mid-life drift, three price feeds, churned tenants aging out through
//! the idle TTL — must be **bit-for-bit identical** to the same sequence
//! cranked by hand through the public `DriftMonitor` /
//! `RefreshableCatalogProvider` API in the documented six-step month
//! order:
//!
//! 1. scheduled runs agree with themselves under every deployment in
//!    `common::CONFIGS` — every month digest, the schedule summary, the
//!    adoption ledger, and the final report;
//! 2. a scheduled run equals the operator-cranked sequence under each
//!    deployment — the scheduler adds no behavior, only a calendar;
//! 3. a run paused and resumed mid-simulation (`run(3)+run(3)+run(2)`,
//!    or month by month) is indistinguishable from a straight `run(8)`,
//!    under each deployment.
//!
//! Runs single-threaded in the CI determinism job so the service worker
//! pool is the only concurrency in play.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use common::{flat_window, outcomes, region_of, sweep, Config, Outcome, REGIONS};
use doppler::prelude::*;

const COHORT: usize = 24;
const MONTHS: usize = 8;
const IDLE_TTL: usize = 3;
const VERSION_WINDOW: u32 = 1;

fn base_cpu(i: usize) -> f64 {
    0.4 + 0.5 * ((i / REGIONS.len()) % 8) as f64
}

fn onboard_month(i: usize) -> usize {
    i % 3
}

/// Every fourth customer's workload triples four months into its life.
fn drifts(i: usize) -> bool {
    i.is_multiple_of(4)
}

/// The last four customers churn: telemetry stops after month 2, so the
/// idle TTL unwatches them in month `2 + IDLE_TTL`.
fn churns(i: usize) -> bool {
    i >= COHORT - 4
}

/// Customers scheduled to onboard in month `m`, in cohort order — the
/// single source both the scheduler and the hand crank consume.
fn onboardings(m: usize) -> Vec<MonitoredCustomer> {
    (0..COHORT)
        .filter(|&i| onboard_month(i) == m)
        .map(|i| {
            MonitoredCustomer::new(
                format!("cust-{i:04}"),
                DeploymentType::SqlDb,
                flat_window(base_cpu(i), 48),
            )
            .with_catalog_key(CatalogKey::new(
                DeploymentType::SqlDb,
                Region::new(region_of(i)),
                CatalogVersion::INITIAL,
            ))
        })
        .collect()
}

/// Telemetry windows arriving in month `m`, in cohort order.
fn telemetry(m: usize) -> Vec<(String, PerfHistory)> {
    (0..COHORT)
        .filter(|&i| m > onboard_month(i) && !(churns(i) && m > 2))
        .map(|i| {
            let base = base_cpu(i);
            let cpu = if drifts(i) && m >= onboard_month(i) + 4 { base * 3.0 + 2.0 } else { base };
            (format!("cust-{i:04}"), flat_window(cpu, 48))
        })
        .collect()
}

/// Price feeds landing in month `m`.
fn feeds(m: usize) -> Vec<(Region, PriceFeed)> {
    match m {
        2 => vec![(Region::new("westeurope"), PriceFeed::Multiplier(0.93))],
        4 => vec![(Region::new("eastasia"), PriceFeed::Multiplier(0.90))],
        5 => vec![(Region::new("westeurope"), PriceFeed::Multiplier(0.95))],
        _ => Vec::new(),
    }
}

fn build_monitor(
    config: Config,
) -> (DriftMonitor, Arc<RefreshableCatalogProvider>, Arc<EngineRegistry>) {
    let inner = common::provider();
    let provider = Arc::new(RefreshableCatalogProvider::new(Arc::new(inner)));
    let registry = Arc::new(EngineRegistry::new(Arc::clone(&provider) as Arc<dyn CatalogProvider>));
    let assessor = config
        .over_registry(Arc::clone(&registry))
        .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)));
    (DriftMonitor::new(assessor), provider, registry)
}

#[derive(Debug, PartialEq)]
struct RollDigest {
    old_key: String,
    new_key: String,
    retired_engines: usize,
    reprice_failures: usize,
    repriced: Vec<Outcome>,
}

/// Everything one simulated month did, in comparable form.
#[derive(Debug, PartialEq)]
struct MonthDigest {
    label: String,
    rolls: Vec<RollDigest>,
    report: FleetDriftReport,
    outcomes: Vec<DriftOutcome>,
    reassessed: Vec<Outcome>,
    retired_customers: Vec<String>,
    retired_engines: usize,
}

fn roll_digest(outcome: &CatalogRollOutcome) -> RollDigest {
    RollDigest {
        old_key: outcome.old_key.to_string(),
        new_key: outcome.new_key.to_string(),
        retired_engines: outcome.retired_engines,
        reprice_failures: outcome.reprice_failures,
        repriced: outcomes(&outcome.repriced),
    }
}

#[derive(Debug, PartialEq)]
struct Run {
    months: Vec<MonthDigest>,
    ledger: AdoptionLedger,
    /// The final report, schedule trace stripped so scheduled and
    /// hand-cranked runs compare on the assessment payload alone.
    report: FleetReport,
    summary: Option<ScheduleSummary>,
}

/// The scheduled run, stepped in `chunks` (which must sum to [`MONTHS`])
/// to exercise pause/resume.
fn scheduled(config: Config, chunks: &[usize]) -> Run {
    let (monitor, provider, _registry) = build_monitor(config);
    let mut sim = FleetScheduler::new(monitor, SimClock::starting(2022, 1))
        .with_provider(Arc::clone(&provider))
        .with_idle_ttl(IDLE_TTL)
        .with_version_window(VERSION_WINDOW);
    for m in 0..MONTHS {
        for customer in onboardings(m) {
            sim.onboard_at(m, customer);
        }
        for (name, w) in telemetry(m) {
            sim.telemetry_at(m, name, w);
        }
        for (region, feed) in feeds(m) {
            sim.feed_at(m, region, feed);
        }
    }
    assert_eq!(chunks.iter().sum::<usize>(), MONTHS);
    let mut months = Vec::new();
    for &chunk in chunks {
        for month in sim.run(chunk) {
            months.push(MonthDigest {
                label: month.label,
                rolls: month.rolls.iter().map(roll_digest).collect(),
                report: month.pass.report,
                outcomes: month.pass.outcomes,
                reassessed: outcomes(&month.pass.reassessments),
                retired_customers: month.retired_customers,
                retired_engines: month.retired_engines,
            });
        }
    }
    let ledger = sim.monitor().ledger().clone();
    let summary = sim.summary().clone();
    let mut report = sim.shutdown();
    assert_eq!(report.schedule.as_ref(), Some(&summary), "the trace rides the report");
    report.schedule = None;
    Run { months, ledger, report, summary: Some(summary) }
}

/// The reference: the same calendar cranked by hand through the public
/// API, in the six-step order the scheduler module documents — watch,
/// observe, feed, change-log cursor dispatch, tick, TTL retirement.
fn hand_cranked(config: Config) -> Run {
    let (mut monitor, provider, registry) = build_monitor(config);
    let mut clock = SimClock::starting(2022, 1);
    let mut cursor = 0usize;
    let mut frontier = 0u32;
    let mut last_seen: HashMap<String, usize> = HashMap::new();
    let mut months = Vec::new();

    for m in 0..MONTHS {
        let label = clock.label();
        // 1. Onboarding.
        for customer in onboardings(m) {
            last_seen.insert(customer.name.clone(), m);
            monitor.watch(customer);
        }
        // 2. Telemetry arrival.
        for (name, w) in telemetry(m) {
            if monitor.observe(&name, w) {
                last_seen.insert(name, m);
            }
        }
        // 3. Price feeds.
        for (region, feed) in feeds(m) {
            provider.apply_feed(&region, feed).expect("known region");
        }
        // 4. Roll dispatch via the change-log cursor.
        let published = provider.change_log_since(cursor);
        cursor += published.len();
        let mut rolls = Vec::new();
        for roll in &published {
            rolls.push(roll_digest(&monitor.on_catalog_roll(&label, &roll.old_key, &roll.new_key)));
            frontier = frontier.max(roll.new_key.version.0);
        }
        // 5. The drift pass.
        let pass = monitor.tick(&label);
        // 6. TTL retirement: idle customers, then stale engines.
        let idle: Vec<String> = monitor
            .watched_names()
            .filter(|name| m - last_seen.get(*name).copied().unwrap_or(m) >= IDLE_TTL)
            .map(str::to_string)
            .collect();
        let mut retired_customers = Vec::new();
        for name in idle {
            if monitor.unwatch(&name) {
                last_seen.remove(&name);
                retired_customers.push(name);
            }
        }
        let retired_engines = if frontier > VERSION_WINDOW {
            registry.retire_older_than(CatalogVersion(frontier - VERSION_WINDOW))
        } else {
            0
        };

        months.push(MonthDigest {
            label,
            rolls,
            report: pass.report,
            outcomes: pass.outcomes,
            reassessed: outcomes(&pass.reassessments),
            retired_customers,
            retired_engines,
        });
        clock.advance();
    }

    let ledger = monitor.ledger().clone();
    let report = monitor.shutdown();
    assert_eq!(report.schedule, None, "no scheduler, no trace");
    Run { months, ledger, report, summary: None }
}

/// The scenario is only a regression guard if it actually exercises the
/// lifecycle — drift caught, rolls dispatched, re-prices issued,
/// churned tenants retired.
fn assert_scenario_is_live(run: &Run, context: &str) {
    let summary = run.summary.as_ref().expect("scheduled run");
    assert_eq!(summary.sim_months(), MONTHS, "{context}");
    assert_eq!(summary.customers_onboarded, COHORT, "{context}");
    assert_eq!(summary.drift_detected, 5, "{context}: 6 drifters minus the churned one");
    assert_eq!(summary.reassessments, 5, "{context}");
    assert!(summary.rolls_dispatched >= 3, "{context}: three feeds rolled");
    assert!(summary.customers_repriced > 0, "{context}");
    assert_eq!(summary.reprice_failures, 0, "{context}");
    assert_eq!(summary.customers_retired, 4, "{context}: the churned tail aged out");
}

#[test]
fn scheduled_runs_are_worker_count_invariant() {
    // Every month digest, the ledger, the final report and the schedule
    // trace.
    let baseline = scheduled(Config::SERIAL, &[MONTHS]);
    assert_scenario_is_live(&baseline, "serial");
    sweep("scheduled run", &baseline, |config| scheduled(config, &[MONTHS]));
}

#[test]
fn scheduled_equals_the_operator_cranked_sequence() {
    let hand = hand_cranked(Config::SERIAL);
    sweep("scheduled vs hand-cranked run", &hand, |config| {
        assert_eq!(hand_cranked(config), hand, "hand-cranked under {config:?}");
        Run { summary: None, ..scheduled(config, &[MONTHS]) }
    });
}

#[test]
fn paused_and_resumed_runs_are_indistinguishable() {
    let straight = scheduled(Config::SERIAL, &[MONTHS]);
    for chunks in [&[3usize, 3, 2][..], &[1; MONTHS][..]] {
        sweep(&format!("run paused at {chunks:?}"), &straight, |config| scheduled(config, chunks));
    }
}
