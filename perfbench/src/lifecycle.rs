//! `fleet_lifecycle`: multi-year `FleetScheduler` runs over a realistic
//! cohort in three regions. Customers onboard in staggered waves, report
//! one week of telemetry a month for two years, and every fifth one grows
//! 3x mid-life. A price feed lands every third month, rotating through the
//! regions; each rolls the region's catalog versions, which retires the
//! old engines, retrains the new ones on the trained route, and re-prices
//! the pinned customers through the priority lane. Customers that go dark
//! age out through the idle TTL.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use doppler_catalog::{
    CatalogKey, CatalogProvider, CatalogSpec, CatalogVersion, DeploymentType,
    InMemoryCatalogProvider, PriceFeed, RefreshableCatalogProvider, Region,
};
use doppler_core::{DopplerEngine, EngineRegistry, EngineTemplate, TrainingRecord, TrainingSet};
use doppler_dma::json::Json;
use doppler_fleet::{
    schedule_summary_from_json, schedule_summary_to_json, DriftMonitor, FleetConfig, FleetResult,
    FleetScheduler, MonitoredCustomer, ScheduleSummary, SimClock,
};
use doppler_obs::ObsRegistry;
use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};

use crate::common::{
    build_stack, hist_count, hist_ms, median, migrated_cohorts, ms, realistic_pool, report_summary,
    spawn, summarize, Outcome, Slice,
};
use crate::trace::Recorder;
use crate::{replica, Run};

const REGIONS: [(&str, f64); 3] = [("global", 1.0), ("westeurope", 1.08), ("eastasia", 1.12)];
const CUSTOMERS: usize = 48;
const MONTHS: usize = 30;
const WEEK: usize = 7 * 144;
/// Simulations per run at least (more while time remains).
const MIN_SIMULATIONS: usize = 3;
/// Throughput and the median month latency are taken from the fastest
/// quarter of the run's simulations (see `summarize`).
const KEEP: usize = 4;

struct Customer {
    name: String,
    key: CatalogKey,
    file_sizes_gib: Vec<f64>,
    onboard: usize,
    /// Alternating monthly one-week windows: [week 1, week 2].
    weeks: [PerfHistory; 2],
    /// The same weeks after the mid-life growth (every fifth customer).
    grown: Option<[PerfHistory; 2]>,
}

struct Inputs {
    customers: Vec<Customer>,
    cohorts: Vec<(DeploymentType, Vec<TrainingRecord>)>,
}

/// Scale every additive dimension (latency stays put).
fn grow(history: &PerfHistory, factor: f64) -> PerfHistory {
    let mut out = PerfHistory::new();
    for (dim, series) in history.iter() {
        let values: Vec<f64> = if dim == PerfDimension::IoLatency {
            series.values().to_vec()
        } else {
            series.values().iter().map(|v| v * factor).collect()
        };
        out.insert(dim, TimeSeries::new(series.interval_minutes(), values));
    }
    out
}

fn generate(run: &Run) -> Inputs {
    let catalog = doppler_bench::backtest::catalog();
    let customers = realistic_pool(run.seed, CUSTOMERS, &catalog)
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let weeks = [c.history.window(0, WEEK), c.history.window(WEEK, 2 * WEEK)];
            let grown = (i % 5 == 0).then(|| [grow(&weeks[0], 3.0), grow(&weeks[1], 3.0)]);
            let (region, _) = REGIONS[i % REGIONS.len()];
            Customer {
                name: format!("cust-{i:04}"),
                key: CatalogKey::new(c.deployment, Region::new(region), CatalogVersion::INITIAL),
                file_sizes_gib: c
                    .file_layout
                    .as_ref()
                    .map(|l| l.files.iter().map(|f| f.size_gib).collect())
                    .unwrap_or_default(),
                onboard: i % 12,
                weeks,
                grown,
            }
        })
        .collect();
    Inputs { customers, cohorts: migrated_cohorts(run.seed, &catalog) }
}

/// The window `c` (customer `i`) reports in month `m`: alternating weeks,
/// grown from six months after onboarding for every fifth customer.
fn window(c: &Customer, i: usize, m: usize) -> &PerfHistory {
    let weeks = match &c.grown {
        Some(grown) if m >= c.onboard + 6 => grown,
        _ => &c.weeks,
    };
    &weeks[(m + i) % 2]
}

/// The price-feed calendar: every third month, rotating through the
/// regions.
fn feeds() -> impl Iterator<Item = (usize, &'static str)> {
    (2..MONTHS).step_by(3).enumerate().map(|(k, m)| (m, REGIONS[k % REGIONS.len()].0))
}

/// Set-up: the refreshable provider over three regions, the registry
/// warmed for every (deployment, region) key, and the service.
fn setup(
    inputs: &Inputs,
    config: FleetConfig,
    obs: Option<&ObsRegistry>,
) -> (FleetScheduler, Arc<RefreshableCatalogProvider>, Arc<EngineRegistry>) {
    let inner = REGIONS.iter().fold(InMemoryCatalogProvider::new(), |p, &(region, multiplier)| {
        p.with_region(
            Region::new(region),
            CatalogVersion::INITIAL,
            &CatalogSpec::default(),
            multiplier,
        )
    });
    let mut provider = RefreshableCatalogProvider::new(Arc::new(inner));
    if let Some(obs) = obs {
        provider = provider.with_obs(obs);
    }
    let provider = Arc::new(provider);
    let warm: Vec<CatalogKey> = REGIONS
        .iter()
        .flat_map(|&(region, _)| {
            [DeploymentType::SqlDb, DeploymentType::SqlMi]
                .map(|d| CatalogKey::new(d, Region::new(region), CatalogVersion::INITIAL))
        })
        .collect();
    let stack =
        build_stack(Arc::clone(&provider) as Arc<dyn CatalogProvider>, &warm, &inputs.cohorts, obs);
    let service = spawn(&stack, config, obs);
    let scheduler = FleetScheduler::new(DriftMonitor::over(service), SimClock::starting(2022, 1))
        .with_provider(Arc::clone(&provider))
        .with_idle_ttl(3)
        .with_version_window(2);
    (scheduler, provider, stack.registry)
}

/// The catalog version a customer onboards pinned to: its region's version
/// of that month (each earlier feed rolled the region once).
fn onboarding_key(c: &Customer) -> CatalogKey {
    let region = c.key.region.as_str();
    let rolled = feeds().filter(|&(m, r)| m < c.onboard && r == region).count() as u32;
    c.key.clone().at_version(CatalogVersion(CatalogVersion::INITIAL.0 + rolled))
}

/// Hand the generated calendar to the scheduler. Customers onboard on
/// their first week; later rolls re-pin them.
fn schedule(sim: &mut FleetScheduler, inputs: &Inputs) {
    for (i, c) in inputs.customers.iter().enumerate() {
        let mut customer = MonitoredCustomer::new(&c.name, c.key.deployment, c.weeks[0].clone())
            .with_catalog_key(onboarding_key(c));
        customer.file_sizes_gib = c.file_sizes_gib.clone();
        sim.onboard_at(c.onboard, customer);
        for m in c.onboard + 1..(c.onboard + 24).min(MONTHS) {
            sim.telemetry_at(m, &c.name, window(c, i, m).clone());
        }
    }
    for (m, region) in feeds() {
        sim.feed_at(m, Region::new(region), PriceFeed::Multiplier(0.97));
    }
}

/// Totals over the simulations of one side of a run.
#[derive(Default)]
struct Sims {
    /// One slice per simulation: its step time and customers processed.
    per_run: Vec<Slice>,
    step_ms: Vec<f64>,
    step_total_s: f64,
    ops: u64,
    failed: u64,
    setup_s: Vec<f64>,
    shutdown_ms: f64,
    summary: Option<ScheduleSummary>,
    registry: Option<Arc<EngineRegistry>>,
}

impl Sims {
    fn throughput(&self) -> f64 {
        self.ops as f64 / self.step_total_s
    }
}

/// Run one whole simulation into `sims`, checking it. A customer
/// processed is a drift check, a re-assessment, or a re-price.
fn simulate(
    inputs: &Inputs,
    config: FleetConfig,
    obs: Option<&ObsRegistry>,
    sims: &mut Sims,
    out: &mut Outcome,
) {
    let t0 = Instant::now();
    let (mut sim, provider, registry) = setup(inputs, config, obs);
    sims.setup_s.push(t0.elapsed().as_secs_f64());
    schedule(&mut sim, inputs);
    let (ops_before, total_before) = (sims.ops, sims.step_total_s);
    for _ in 0..MONTHS {
        let t0 = Instant::now();
        let month = sim.step();
        let elapsed = t0.elapsed();
        sims.step_ms.push(ms(elapsed));
        sims.step_total_s += elapsed.as_secs_f64();
        let repriced: Vec<_> = month.rolls.iter().flat_map(|r| &r.repriced).collect();
        sims.ops +=
            (month.pass.outcomes.len() + month.pass.reassessments.len() + repriced.len()) as u64;
        let errors: Vec<String> = month
            .pass
            .outcomes
            .iter()
            .filter_map(|o| o.error.clone())
            .chain(
                month
                    .pass
                    .reassessments
                    .iter()
                    .chain(repriced.iter().copied())
                    .filter_map(|r| r.outcome.as_ref().err().map(|e| e.message.clone())),
            )
            .collect();
        sims.failed += errors.len() as u64;
        if let Some(first) = errors.first() {
            out.problems.push(format!(
                "{}: {} failed ops, e.g. {first}",
                month.label,
                errors.len()
            ));
        }
    }
    sims.per_run.push(Slice {
        seconds: sims.step_total_s - total_before,
        ops: (sims.ops - ops_before) as f64,
        latencies_ms: sims.step_ms[sims.step_ms.len() - MONTHS..].to_vec(),
    });

    let summary = sim.summary().clone();
    out.check(sim.monitor().roll_cursor() == provider.rolls(), || {
        format!(
            "roll cursor {} != provider rolls {}",
            sim.monitor().roll_cursor(),
            provider.rolls()
        )
    });
    out.check(summary.reprice_failures == 0, || {
        format!("{} re-price failures", summary.reprice_failures)
    });
    out.check(summary.rolls_dispatched > 0 && summary.customers_retired > 0, || {
        "the schedule rolled no catalog or retired no customer".to_string()
    });
    let rendered = schedule_summary_to_json(&summary).render_pretty();
    let parsed = Json::parse(&rendered).ok();
    out.check(
        parsed.as_ref().and_then(schedule_summary_from_json).as_ref() == Some(&summary),
        || "ScheduleSummary JSON does not round-trip".to_string(),
    );
    if let Some(first) = &sims.summary {
        out.check(first == &summary, || "repeated simulations diverged".to_string());
    }
    let t0 = Instant::now();
    let report = sim.shutdown();
    sims.shutdown_ms += ms(t0.elapsed());
    out.check(report.schedule.as_ref() == Some(&summary), || {
        "final report lost the schedule trace".to_string()
    });
    sims.summary = Some(summary);
    sims.registry = Some(registry);
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let inputs = generate(run);
    let generate_s = t0.elapsed().as_secs_f64();
    let config = FleetConfig::with_workers(run.workers);
    out.stamp.push(("generate_s", generate_s.to_string()));
    out.stamp.push(("customers", CUSTOMERS.to_string()));
    out.stamp.push(("months_per_simulation", MONTHS.to_string()));

    if !run.trace {
        // One simulation, checked but not measured, pays the process's
        // one-off costs (first-touch page faults, cold caches).
        let mut warm = Sims::default();
        simulate(&inputs, config, None, &mut warm, &mut out);
        out.phase("warmup", warm.ops, warm.failed);
        let mut sims = Sims::default();
        let start = Instant::now();
        while sims.per_run.len() < MIN_SIMULATIONS || start.elapsed().as_secs_f64() < run.seconds {
            simulate(&inputs, config, None, &mut sims, &mut out);
        }
        out.phase("lifecycle", sims.ops, sims.failed);
        out.stamp.push(("simulations", sims.per_run.len().to_string()));
        let setup_s = median(&sims.setup_s);
        let s = summarize(sims.per_run, KEEP, sims.step_ms);
        report_summary(&mut out, &s, setup_s);
        return out;
    }

    // Traced run: untraced simulations and simulations recording into the
    // obs registry alternate, then the replica replays the decisions of one
    // more simulation.
    let obs = ObsRegistry::enabled();
    let (mut untraced, mut traced) = (Sims::default(), Sims::default());
    let start = Instant::now();
    while traced.per_run.is_empty() || start.elapsed().as_secs_f64() < run.seconds * 2.0 / 3.0 {
        simulate(&inputs, config, None, &mut untraced, &mut out);
        simulate(&inputs, config, Some(&obs), &mut traced, &mut out);
    }
    out.phase("untraced", untraced.ops, untraced.failed);
    out.phase("traced", traced.ops, traced.failed);
    let snapshot = obs.snapshot();
    let summary = traced.summary.as_ref().expect("at least one simulation");
    let per_run = |v: f64| v / traced.per_run.len() as f64;
    out.metric("fleet.queue_wait_ms", per_run(hist_ms(&snapshot, "fleet.stage.queue_wait")));
    out.metric("fleet.aggregate_ms", per_run(hist_ms(&snapshot, "fleet.stage.aggregate")));
    out.metric("fleet.shutdown_ms", per_run(traced.shutdown_ms));
    out.metric("fleet.drift.probes", per_run(hist_count(&snapshot, "fleet.stage.drift_probe")));
    out.metric("fleet.drift.probe_ms", per_run(hist_ms(&snapshot, "fleet.stage.drift_probe")));
    out.metric("fleet.drift.wait_ms", per_run(hist_ms(&snapshot, "fleet.stage.drift_wait")));
    out.metric("catalog.rolls", per_run(snapshot.counter("catalog.rolls").unwrap_or(0) as f64));
    out.metric("catalog.feed_apply_ms", per_run(hist_ms(&snapshot, "catalog.feed_apply")));
    out.metric("fleet.scheduler.repriced", summary.customers_repriced as f64);
    out.metric("fleet.scheduler.retired", summary.customers_retired as f64);
    out.metric("fleet.scheduler.months_per_s", traced.step_ms.len() as f64 / traced.step_total_s);
    out.metric("fleet.scheduler.month_p50_ms", median(&traced.step_ms));
    let registry = traced.registry.as_ref().expect("at least one simulation");
    crate::registry_metrics(registry, &snapshot, traced.per_run.len(), &mut out);
    out.metric("trace.untraced_cps", untraced.throughput());
    out.metric("trace.traced_cps", traced.throughput());
    out.metric("trace.overhead_pct", 100.0 * (1.0 - traced.throughput() / untraced.throughput()));

    let mut rec = Recorder::new();
    let replayed = replay(&inputs, config, &mut rec, &mut out);
    out.phase("replica", replayed.compared, replayed.disagree);
    replica::layer_metrics(&rec, &mut out);
    out.metric("trace.replica_cps", replayed.compared as f64 / replayed.busy.as_secs_f64());
    out.metric("workload.generate_s", generate_s);
    crate::write_spans(run, &rec, &mut out);
    out
}

/// What the replica replayed.
struct Replayed {
    compared: u64,
    disagree: u64,
    /// Time spent inside the replica.
    busy: Duration,
}

/// Run one more (untraced) simulation and replay every assessment its
/// service made — each roll's re-prices (the customer's standing baseline
/// window, priced in the new catalog version) and each drift pass's
/// re-assessments (the month's fresh window, in the customer's pinned
/// version) — through the replica, which must decide the same SKU at the
/// same cost.
fn replay(inputs: &Inputs, config: FleetConfig, rec: &mut Recorder, out: &mut Outcome) -> Replayed {
    let (mut sim, _provider, registry) = setup(inputs, config, None);
    schedule(&mut sim, inputs);
    let training: Vec<(DeploymentType, TrainingSet)> =
        inputs.cohorts.iter().map(|(d, records)| (*d, TrainingSet::new(records.clone()))).collect();
    let slot: HashMap<&str, usize> =
        inputs.customers.iter().enumerate().map(|(i, c)| (c.name.as_str(), i)).collect();
    // What the service holds per customer: its baseline window and the
    // catalog version it is pinned to.
    let mut baseline: Vec<&PerfHistory> = inputs.customers.iter().map(|c| &c.weeks[0]).collect();
    let mut pinned: Vec<CatalogKey> = inputs.customers.iter().map(onboarding_key).collect();
    let mut replayed = Replayed { compared: 0, disagree: 0, busy: Duration::ZERO };
    for m in 0..MONTHS {
        let month = sim.step();
        let mut decisions: Vec<(usize, &PerfHistory, &FleetResult)> = Vec::new();
        // Rolls run before the drift pass within a month.
        for roll in &month.rolls {
            for result in &roll.repriced {
                let i = slot[&*result.instance_name];
                pinned[i] = roll.new_key.clone();
                decisions.push((i, baseline[i], result));
            }
        }
        for result in &month.pass.reassessments {
            let i = slot[&*result.instance_name];
            let fresh = window(&inputs.customers[i], i, m);
            decisions.push((i, fresh, result));
            if result.outcome.is_ok() {
                baseline[i] = fresh;
            }
        }
        for (i, history, result) in decisions {
            let c = &inputs.customers[i];
            let (_, training) = training
                .iter()
                .find(|(d, _)| *d == c.key.deployment)
                .expect("route per deployment");
            let backend =
                match registry.get_or_train(&pinned[i], &EngineTemplate::production(), training) {
                    Ok(backend) => backend,
                    Err(e) => {
                        out.problems.push(format!("{}: resolving {}: {e}", c.name, pinned[i]));
                        continue;
                    }
                };
            let engine =
                backend.as_any().downcast_ref::<DopplerEngine>().expect("heuristic engine");
            let t0 = Instant::now();
            let decided = replica::assess(rec, engine, i as u32, history, &c.file_sizes_gib, None);
            replayed.busy += t0.elapsed();
            replayed.compared += 1;
            let same = result.outcome.as_ref().is_ok_and(|served| {
                let served = &served.recommendation;
                served.sku_id == decided.sku_id
                    && served.monthly_cost.map(f64::to_bits)
                        == decided.monthly_cost.map(f64::to_bits)
            });
            if !same {
                replayed.disagree += 1;
                out.problems.push(format!("{}: replica != service in {}", c.name, month.label));
            }
        }
    }
    sim.shutdown();
    out.check(replayed.compared > 0, || "the simulation made no assessment to replay".into());
    replayed
}
