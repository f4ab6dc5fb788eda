//! The autonomous fleet lifecycle: a [`FleetScheduler`] that owns the
//! §5.2.3 loop end to end — assess → deploy → watch → re-assess on drift
//! or re-price → retire — driven by a virtual [`SimClock`] instead of an
//! operator's hand.
//!
//! Everything the operator used to crank by hand is an *event* on the
//! scheduler's calendar, processed once per simulated month in one fixed
//! order:
//!
//! ```text
//!             ┌──────────────── one SimClock month ────────────────┐
//!             │                                                    │
//!  onboard ──►│ 1. watch scheduled customers   (watch order)       │
//!  telemetry ►│ 2. observe scheduled windows   (arrival order)     │
//!  pricing ──►│ 3. apply scheduled price feeds (provider rolls)    │
//!             │ 4. dispatch new catalog rolls  (change-log cursor) │──► re-price
//!             │ 5. DriftMonitor::tick          (severity re-queue) │──► re-assess
//!             │ 6. TTL retirement              (idle customers,    │
//!             │                                 stale engines)     │
//!             └────────────────────────────────────────────────────┘
//! ```
//!
//! Step 4 is the cursor-based change-log subscription
//! ([`RefreshableCatalogProvider::change_log_since`] via
//! [`DriftMonitor::dispatch_rolls`]): each published roll is dispatched
//! exactly once, no matter how often the scheduler looks at the log.
//! Step 5 rides the service queue's priority lane — drifted customers
//! re-assess Critical-first. Step 6 is age-based lifecycle hygiene:
//! customers idle past the TTL are unwatched, and engines pinned to
//! catalog versions older than the version window are tombstoned in the
//! shared registry.
//!
//! Because every step is an ordinary public `DriftMonitor` /
//! `RefreshableCatalogProvider` call and the order is fixed, a scheduled
//! run is **bit-for-bit equal** to the same sequence cranked by hand —
//! at any worker count — which is what `tests/scheduler_equivalence.rs`
//! locks. The virtual clock makes the simulator: multiple years of fleet
//! life run in seconds, deterministically, with the per-month trace
//! recorded as a [`ScheduleSummary`] on the final
//! [`FleetReport`].
//!
//! # Example
//!
//! ```
//! use doppler_catalog::DeploymentType;
//! use doppler_fleet::{
//!     DriftMonitor, FleetAssessor, FleetConfig, FleetScheduler, MonitoredCustomer, SimClock,
//! };
//! use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};
//!
//! let monitor = DriftMonitor::new(FleetAssessor::production(FleetConfig::with_workers(2)));
//! let mut sim = FleetScheduler::new(monitor, SimClock::starting(2022, 1));
//!
//! let window = |cpu: f64| {
//!     PerfHistory::new()
//!         .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 96]))
//!         .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; 96]))
//! };
//! sim.onboard_at(0, MonitoredCustomer::new("cust-1", DeploymentType::SqlDb, window(0.5)));
//! sim.telemetry_at(1, "cust-1", window(7.0)); // the workload grows 14×
//!
//! let months = sim.run(2);
//! assert_eq!(months[0].label, "Jan-22");
//! assert_eq!(months[1].pass.report.drifted, 1, "month 2 caught the drift");
//! let report = sim.shutdown();
//! assert_eq!(report.schedule.unwrap().drift_detected, 1);
//! ```

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use doppler_catalog::{CatalogVersion, PriceFeed, RefreshableCatalogProvider, Region};
use doppler_dma::json::Json;
use doppler_telemetry::PerfHistory;

use crate::drift::{CatalogRollOutcome, DriftMonitor, DriftPass, MonitoredCustomer};
use crate::report::FleetReport;

/// A virtual month counter — the simulation's only notion of time. No
/// wall clock is ever read: the same schedule always produces the same
/// labels, which is half of what makes scheduled runs reproducible.
///
/// Labels render in the repo's ledger convention (`"Jan-22"`), so
/// scheduler months line up with hand-written
/// [`DriftMonitor::tick`] months in reports and ledgers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimClock {
    /// Absolute month index: `year * 12 + (month - 1)`.
    months: usize,
}

const MONTH_NAMES: [&str; 12] =
    ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"];

impl SimClock {
    /// A clock reading `month` (1–12, clamped) of `year`.
    pub fn starting(year: usize, month: usize) -> SimClock {
        SimClock { months: year * 12 + month.clamp(1, 12) - 1 }
    }

    /// The current month's ledger label, e.g. `"Jan-22"`.
    pub fn label(&self) -> String {
        format!("{}-{:02}", MONTH_NAMES[self.months % 12], (self.months / 12) % 100)
    }

    /// The calendar year the clock currently reads.
    pub fn year(&self) -> usize {
        self.months / 12
    }

    /// Advance one month.
    pub fn advance(&mut self) {
        self.months += 1;
    }
}

/// What one simulated month did ([`FleetScheduler::step`]).
#[derive(Debug)]
pub struct SimMonth {
    /// The month's [`SimClock`] label.
    pub label: String,
    /// Customers onboarded (newly watched) this month.
    pub onboarded: usize,
    /// Telemetry windows that arrived and were staged.
    pub telemetry: usize,
    /// Price feeds applied to the provider.
    pub feeds: usize,
    /// Catalog rolls dispatched through the change-log cursor, in
    /// publication order — one outcome per roll.
    pub rolls: Vec<CatalogRollOutcome>,
    /// The month's drift pass (checks, verdicts, priority re-assessments).
    pub pass: DriftPass,
    /// Customers unwatched by the idle TTL, in watch order.
    pub retired_customers: Vec<String>,
    /// Engines tombstoned by the version window.
    pub retired_engines: usize,
}

/// One simulated month's row in the [`ScheduleSummary`] — the schedule
/// trace that rides the final report.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScheduleMonthRow {
    pub month: String,
    pub onboarded: usize,
    pub telemetry: usize,
    pub feeds: usize,
    /// Catalog rolls dispatched.
    pub rolls: usize,
    /// Customers re-priced by those rolls (successes only, matching the
    /// ledger's `customers_repriced`).
    pub repriced: usize,
    /// Re-prices surfaced as failures
    /// ([`CatalogRollOutcome::reprice_failures`]).
    pub reprice_failures: usize,
    /// Drift checks run by the month's pass.
    pub checked: usize,
    pub drifted: usize,
    /// Priority-lane re-assessments of drifted customers.
    pub reassessed: usize,
    pub retired_customers: usize,
    pub retired_engines: usize,
    /// Customers still watched at month end.
    pub watched: usize,
}

/// The simulation's schedule trace: one row per simulated month plus
/// whole-run totals, attached to the final report by
/// [`FleetScheduler::shutdown`].
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct ScheduleSummary {
    /// The first simulated month's label.
    pub start: String,
    /// Per-month rows, in simulation order.
    pub months: Vec<ScheduleMonthRow>,
    pub customers_onboarded: usize,
    pub telemetry_windows: usize,
    pub feeds_applied: usize,
    pub rolls_dispatched: usize,
    pub customers_repriced: usize,
    pub reprice_failures: usize,
    pub drift_checks: usize,
    pub drift_detected: usize,
    pub reassessments: usize,
    pub customers_retired: usize,
    pub engines_retired: usize,
}

impl ScheduleSummary {
    /// Simulated months so far.
    pub fn sim_months(&self) -> usize {
        self.months.len()
    }

    fn record(&mut self, row: ScheduleMonthRow) {
        if self.months.is_empty() {
            self.start = row.month.clone();
        }
        self.customers_onboarded += row.onboarded;
        self.telemetry_windows += row.telemetry;
        self.feeds_applied += row.feeds;
        self.rolls_dispatched += row.rolls;
        self.customers_repriced += row.repriced;
        self.reprice_failures += row.reprice_failures;
        self.drift_checks += row.checked;
        self.drift_detected += row.drifted;
        self.reassessments += row.reassessed;
        self.customers_retired += row.retired_customers;
        self.engines_retired += row.retired_engines;
        self.months.push(row);
    }
}

/// The event-driven lifecycle loop over a [`DriftMonitor`]: schedule
/// onboarding waves, telemetry arrivals, and price feeds on a virtual
/// calendar, then [`step`](FleetScheduler::step) (or
/// [`run`](FleetScheduler::run)) through simulated months. See the
/// [module docs](self) for the per-month event order and the determinism
/// contract.
pub struct FleetScheduler {
    monitor: DriftMonitor,
    clock: SimClock,
    /// Months stepped so far — the key space of the schedule maps.
    step: usize,
    /// The price-feed source (and change-log publisher). `None` = a
    /// fixed-catalog simulation: steps 3–4 are no-ops.
    provider: Option<Arc<RefreshableCatalogProvider>>,
    onboardings: BTreeMap<usize, Vec<MonitoredCustomer>>,
    telemetry: BTreeMap<usize, Vec<(String, PerfHistory)>>,
    feeds: BTreeMap<usize, Vec<(Region, PriceFeed)>>,
    /// Unwatch customers that have gone this many months without
    /// telemetry. `None` = never retire.
    idle_ttl: Option<usize>,
    /// Keep engines for the newest N catalog versions; retire older.
    /// `None` = never retire.
    version_window: Option<u32>,
    /// Highest catalog version seen in dispatched rolls — the frontier
    /// the version window trails.
    version_frontier: u32,
    /// Customer → month index of its latest telemetry (or onboarding).
    last_seen: HashMap<String, usize>,
    summary: ScheduleSummary,
}

impl FleetScheduler {
    /// A scheduler over `monitor`, starting at `clock`'s month.
    pub fn new(monitor: DriftMonitor, clock: SimClock) -> FleetScheduler {
        FleetScheduler {
            monitor,
            clock,
            step: 0,
            provider: None,
            onboardings: BTreeMap::new(),
            telemetry: BTreeMap::new(),
            feeds: BTreeMap::new(),
            idle_ttl: None,
            version_window: None,
            version_frontier: 0,
            last_seen: HashMap::new(),
            summary: ScheduleSummary::default(),
        }
    }

    /// Attach the catalog provider: scheduled price feeds apply to it,
    /// and every roll it publishes is dispatched through the monitor's
    /// change-log cursor (step 4) — including rolls applied *outside*
    /// the schedule, e.g. by an operator between steps.
    pub fn with_provider(mut self, provider: Arc<RefreshableCatalogProvider>) -> FleetScheduler {
        self.provider = Some(provider);
        self
    }

    /// Unwatch customers that have gone `months` simulated months without
    /// a telemetry arrival (step 6). Onboarding counts as an arrival.
    pub fn with_idle_ttl(mut self, months: usize) -> FleetScheduler {
        self.idle_ttl = Some(months.max(1));
        self
    }

    /// After each month's roll dispatch, tombstone registry engines whose
    /// catalog version trails the newest rolled version by `versions` or
    /// more (step 6) — bounded memory over years of monthly re-pricing.
    /// No-op for services without a shared registry.
    pub fn with_version_window(mut self, versions: u32) -> FleetScheduler {
        self.version_window = Some(versions.max(1));
        self
    }

    /// Schedule a customer to be watched in simulated month `month`
    /// (0-based offset from the clock's start).
    pub fn onboard_at(&mut self, month: usize, customer: MonitoredCustomer) {
        self.onboardings.entry(month).or_default().push(customer);
    }

    /// Schedule a telemetry window to arrive for `name` in month `month`.
    /// Windows for one customer in one month overwrite
    /// ([`DriftMonitor::observe`] semantics: freshest wins).
    pub fn telemetry_at(&mut self, month: usize, name: impl Into<String>, window: PerfHistory) {
        self.telemetry.entry(month).or_default().push((name.into(), window));
    }

    /// Schedule a price feed against `region` in month `month` (applied
    /// before that month's roll dispatch, so its rolls re-price the fleet
    /// in the same month). Ignored without a
    /// [`provider`](FleetScheduler::with_provider).
    pub fn feed_at(&mut self, month: usize, region: Region, feed: PriceFeed) {
        self.feeds.entry(month).or_default().push((region, feed));
    }

    /// The monitor under the scheduler (its ledger, watch list, service).
    pub fn monitor(&self) -> &DriftMonitor {
        &self.monitor
    }

    /// The clock, positioned at the *next* month to simulate.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The schedule trace accumulated so far.
    pub fn summary(&self) -> &ScheduleSummary {
        &self.summary
    }

    /// Simulate one month: the six lifecycle steps in the fixed order the
    /// [module docs](self) diagram shows. Deterministic: the same
    /// schedule produces a bit-for-bit identical [`SimMonth`] (and
    /// downstream report) at any worker count, and an interrupted run
    /// resumed later is indistinguishable from an uninterrupted one —
    /// all state lives in the scheduler, none in the clock.
    pub fn step(&mut self) -> SimMonth {
        let obs = self.monitor.service().obs().clone();
        let step_span = obs.histogram("sim.step_latency").start();
        let label = self.clock.label();
        let m = self.step;

        // 1. Onboarding — watch order is schedule order.
        let onboard = self.onboardings.remove(&m).unwrap_or_default();
        let onboarded = onboard.len();
        for customer in onboard {
            self.last_seen.insert(customer.name.clone(), m);
            self.monitor.watch(customer);
        }

        // 2. Telemetry arrival — staged windows feed this month's pass.
        let mut telemetry = 0usize;
        for (name, window) in self.telemetry.remove(&m).unwrap_or_default() {
            if self.monitor.observe(&name, window) {
                self.last_seen.insert(name, m);
                telemetry += 1;
            }
        }

        // 3. Price feeds — applied before roll dispatch so a feed's rolls
        // re-price the fleet in the month the feed lands.
        let mut feeds = 0usize;
        if let Some(provider) = &self.provider {
            for (region, feed) in self.feeds.remove(&m).unwrap_or_default() {
                if provider.apply_feed(&region, feed).is_ok() {
                    feeds += 1;
                }
            }
        }

        // 4. Roll dispatch via the change-log cursor: each published roll
        // retires the old key's engines and re-prices its pinned
        // customers exactly once, ever.
        let rolls = match &self.provider {
            Some(provider) => self.monitor.dispatch_rolls(&label, provider),
            None => Vec::new(),
        };
        for roll in &rolls {
            self.version_frontier = self.version_frontier.max(roll.new_key.version.0);
        }

        // 5. The drift pass — severity-ordered priority re-queue inside.
        let pass = self.monitor.tick(&label);

        // 6. TTL retirement: idle customers leave the watch list; engines
        // behind the version window leave the registry.
        let mut retired_customers = Vec::new();
        if let Some(ttl) = self.idle_ttl {
            let idle: Vec<String> = self
                .monitor
                .watched_names()
                .filter(|name| {
                    let seen = self.last_seen.get(*name).copied().unwrap_or(m);
                    m - seen >= ttl
                })
                .map(str::to_string)
                .collect();
            for name in idle {
                if self.monitor.unwatch(&name) {
                    self.last_seen.remove(&name);
                    retired_customers.push(name);
                }
            }
        }
        let mut retired_engines = 0usize;
        if let Some(window) = self.version_window.filter(|&w| self.version_frontier > w) {
            let floor = CatalogVersion(self.version_frontier - window);
            retired_engines = self.monitor.service().registry().retire_older_than(floor);
        }

        let row = ScheduleMonthRow {
            month: label.clone(),
            onboarded,
            telemetry,
            feeds,
            rolls: rolls.len(),
            repriced: rolls
                .iter()
                .map(|r| r.repriced.iter().filter(|x| x.outcome.is_ok()).count())
                .sum(),
            reprice_failures: rolls.iter().map(|r| r.reprice_failures).sum(),
            checked: pass.report.checked,
            drifted: pass.report.drifted,
            reassessed: pass.reassessments.len(),
            retired_customers: retired_customers.len(),
            retired_engines,
            watched: self.monitor.watched(),
        };
        obs.counter("sim.months").incr();
        obs.counter("sim.telemetry").add(telemetry as u64);
        obs.counter("sim.feeds").add(feeds as u64);
        obs.counter("sim.rolls_dispatched").add(rolls.len() as u64);
        obs.counter("sim.customers_retired").add(retired_customers.len() as u64);
        obs.counter("sim.engines_retired").add(retired_engines as u64);
        if obs.is_enabled() {
            obs.event(
                "sim.step",
                &format!(
                    "month={label} onboarded={onboarded} telemetry={telemetry} feeds={feeds} \
                     rolls={} checked={} drifted={} retired={}",
                    row.rolls, row.checked, row.drifted, row.retired_customers
                ),
            );
        }
        self.summary.record(row);
        self.step += 1;
        self.clock.advance();
        drop(step_span);

        SimMonth {
            label,
            onboarded,
            telemetry,
            feeds,
            rolls,
            pass,
            retired_customers,
            retired_engines,
        }
    }

    /// Simulate `months` consecutive months. `run(a)` then `run(b)` is
    /// exactly `run(a + b)` — pausing a simulation costs nothing and
    /// changes nothing.
    pub fn run(&mut self, months: usize) -> Vec<SimMonth> {
        (0..months).map(|_| self.step()).collect()
    }

    /// Shut the service down and return its final assessment report with
    /// the schedule trace attached
    /// ([`FleetReport::schedule`](crate::FleetReport::schedule)).
    pub fn shutdown(self) -> FleetReport {
        let mut report = self.monitor.shutdown();
        report.schedule = Some(self.summary);
        report
    }
}

fn row_to_json(row: &ScheduleMonthRow) -> Json {
    Json::Obj(vec![
        ("month".into(), Json::Str(row.month.clone())),
        ("onboarded".into(), Json::Num(row.onboarded as f64)),
        ("telemetry".into(), Json::Num(row.telemetry as f64)),
        ("feeds".into(), Json::Num(row.feeds as f64)),
        ("rolls".into(), Json::Num(row.rolls as f64)),
        ("repriced".into(), Json::Num(row.repriced as f64)),
        ("reprice_failures".into(), Json::Num(row.reprice_failures as f64)),
        ("checked".into(), Json::Num(row.checked as f64)),
        ("drifted".into(), Json::Num(row.drifted as f64)),
        ("reassessed".into(), Json::Num(row.reassessed as f64)),
        ("retired_customers".into(), Json::Num(row.retired_customers as f64)),
        ("retired_engines".into(), Json::Num(row.retired_engines as f64)),
        ("watched".into(), Json::Num(row.watched as f64)),
    ])
}

fn row_from_json(json: &Json) -> Option<ScheduleMonthRow> {
    let num = |key: &str| json.get(key).and_then(Json::as_f64).map(|v| v as usize);
    Some(ScheduleMonthRow {
        month: json.get("month")?.as_str()?.to_string(),
        onboarded: num("onboarded")?,
        telemetry: num("telemetry")?,
        feeds: num("feeds")?,
        rolls: num("rolls")?,
        repriced: num("repriced")?,
        reprice_failures: num("reprice_failures")?,
        checked: num("checked")?,
        drifted: num("drifted")?,
        reassessed: num("reassessed")?,
        retired_customers: num("retired_customers")?,
        retired_engines: num("retired_engines")?,
        watched: num("watched")?,
    })
}

/// Export a schedule trace as a self-contained JSON value (the
/// `doppler_dma::json` dialect every other report export uses) — months
/// array first, totals after, so dashboards can stream the rows.
pub fn schedule_summary_to_json(summary: &ScheduleSummary) -> Json {
    Json::Obj(vec![
        ("start".into(), Json::Str(summary.start.clone())),
        ("sim_months".into(), Json::Num(summary.sim_months() as f64)),
        ("months".into(), Json::Arr(summary.months.iter().map(row_to_json).collect())),
        ("customers_onboarded".into(), Json::Num(summary.customers_onboarded as f64)),
        ("telemetry_windows".into(), Json::Num(summary.telemetry_windows as f64)),
        ("feeds_applied".into(), Json::Num(summary.feeds_applied as f64)),
        ("rolls_dispatched".into(), Json::Num(summary.rolls_dispatched as f64)),
        ("customers_repriced".into(), Json::Num(summary.customers_repriced as f64)),
        ("reprice_failures".into(), Json::Num(summary.reprice_failures as f64)),
        ("drift_checks".into(), Json::Num(summary.drift_checks as f64)),
        ("drift_detected".into(), Json::Num(summary.drift_detected as f64)),
        ("reassessments".into(), Json::Num(summary.reassessments as f64)),
        ("customers_retired".into(), Json::Num(summary.customers_retired as f64)),
        ("engines_retired".into(), Json::Num(summary.engines_retired as f64)),
    ])
}

/// Re-parse an exported schedule trace; `None` on any structural
/// mismatch. Round-trips [`schedule_summary_to_json`] losslessly.
pub fn schedule_summary_from_json(json: &Json) -> Option<ScheduleSummary> {
    let num = |key: &str| json.get(key).and_then(Json::as_f64).map(|v| v as usize);
    Some(ScheduleSummary {
        start: json.get("start")?.as_str()?.to_string(),
        months: json.get("months")?.as_arr()?.iter().map(row_from_json).collect::<Option<_>>()?,
        customers_onboarded: num("customers_onboarded")?,
        telemetry_windows: num("telemetry_windows")?,
        feeds_applied: num("feeds_applied")?,
        rolls_dispatched: num("rolls_dispatched")?,
        customers_repriced: num("customers_repriced")?,
        reprice_failures: num("reprice_failures")?,
        drift_checks: num("drift_checks")?,
        drift_detected: num("drift_detected")?,
        reassessments: num("reassessments")?,
        customers_retired: num("customers_retired")?,
        engines_retired: num("engines_retired")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use doppler_catalog::{
        CatalogKey, CatalogSpec, CatalogVersion, DeploymentType, InMemoryCatalogProvider,
    };
    use doppler_core::EngineRegistry;
    use doppler_telemetry::{PerfDimension, TimeSeries};

    use crate::assessor::{EngineRoute, FleetAssessor, FleetConfig};

    fn window(cpu: f64, n: usize) -> PerfHistory {
        PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; n]))
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; n]))
    }

    fn simple_scheduler(workers: usize) -> FleetScheduler {
        let monitor =
            DriftMonitor::new(FleetAssessor::production(FleetConfig::with_workers(workers)));
        FleetScheduler::new(monitor, SimClock::starting(2022, 1))
    }

    /// A provider-backed scheduler: one West Europe region over a shared
    /// registry, with the DB production route.
    fn rolled_scheduler(workers: usize) -> (FleetScheduler, Arc<RefreshableCatalogProvider>) {
        let provider = Arc::new(RefreshableCatalogProvider::new(Arc::new(
            InMemoryCatalogProvider::production().with_region(
                Region::new("westeurope"),
                CatalogVersion::INITIAL,
                &CatalogSpec::default(),
                1.08,
            ),
        )));
        let registry = Arc::new(EngineRegistry::new(
            Arc::clone(&provider) as Arc<dyn doppler_catalog::CatalogProvider>
        ));
        let assessor = FleetAssessor::over_registry(registry, FleetConfig::with_workers(workers))
            .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)));
        let scheduler =
            FleetScheduler::new(DriftMonitor::new(assessor), SimClock::starting(2022, 1))
                .with_provider(Arc::clone(&provider));
        (scheduler, provider)
    }

    #[test]
    fn clock_labels_follow_the_ledger_convention() {
        let mut clock = SimClock::starting(2021, 11);
        assert_eq!(clock.label(), "Nov-21");
        clock.advance();
        assert_eq!(clock.label(), "Dec-21");
        clock.advance();
        assert_eq!(clock.label(), "Jan-22");
        assert_eq!(clock.year(), 2022);
        assert_eq!(SimClock::starting(2024, 12).label(), "Dec-24");
        assert_eq!(SimClock::starting(2024, 99).label(), "Dec-24", "month clamps");
    }

    #[test]
    fn scheduled_drift_is_caught_in_the_arrival_month() {
        let mut sim = simple_scheduler(2);
        sim.onboard_at(0, MonitoredCustomer::new("c", DeploymentType::SqlDb, window(0.5, 96)));
        sim.telemetry_at(2, "c", window(7.0, 96));
        let months = sim.run(4);
        assert_eq!(
            months.iter().map(|m| m.pass.report.drifted).collect::<Vec<_>>(),
            [0, 0, 1, 0],
            "drift lands exactly in the telemetry month"
        );
        assert_eq!(months[2].label, "Mar-22");
        assert_eq!(months[2].pass.reassessments.len(), 1);
        let summary = sim.summary();
        assert_eq!(summary.sim_months(), 4);
        assert_eq!(summary.drift_checks, 1);
        assert_eq!(summary.drift_detected, 1);
        assert_eq!(summary.reassessments, 1);
        assert_eq!(summary.customers_onboarded, 1);
        assert_eq!(summary.telemetry_windows, 1);
    }

    #[test]
    fn scheduled_feed_rolls_and_reprices_in_its_month() {
        let (mut sim, provider) = rolled_scheduler(2);
        let west = Region::new("westeurope");
        let key = CatalogKey::production(DeploymentType::SqlDb).in_region(west.clone());
        sim.onboard_at(
            0,
            MonitoredCustomer::new("pin", DeploymentType::SqlDb, window(0.5, 48))
                .with_catalog_key(key),
        );
        // Train the pinned engine in month 0 so the roll has something to
        // retire.
        sim.telemetry_at(0, "pin", window(0.5, 48));
        sim.feed_at(1, west, PriceFeed::Multiplier(0.9));
        let months = sim.run(3);
        assert_eq!(months[0].rolls.len(), 0);
        assert_eq!(months[1].feeds, 1);
        assert_eq!(months[1].rolls.len(), 2, "both deployments of the region rolled");
        let db_roll = months[1].rolls.iter().find(|r| r.repriced.len() == 1).unwrap();
        assert_eq!(&*db_roll.repriced[0].instance_name, "pin");
        assert_eq!(db_roll.reprice_failures, 0);
        assert_eq!(months[2].rolls.len(), 0, "the cursor never replays a roll");
        assert_eq!(provider.rolls(), 2);
        assert_eq!(sim.monitor().roll_cursor(), 2);
        assert_eq!(sim.summary().rolls_dispatched, 2);
        assert_eq!(sim.summary().customers_repriced, 1);
        let ledger = sim.monitor().ledger();
        assert_eq!(ledger.month("Feb-22").unwrap().customers_repriced, 1);
    }

    #[test]
    fn idle_ttl_unwatches_and_version_window_retires() {
        // Two regions: West Europe rolls (its superseded engines retire
        // with each roll), North Europe never does — its v1 engine can
        // only age out through the *version window*.
        let provider = Arc::new(RefreshableCatalogProvider::new(Arc::new(
            InMemoryCatalogProvider::production()
                .with_region(
                    Region::new("westeurope"),
                    CatalogVersion::INITIAL,
                    &CatalogSpec::default(),
                    1.08,
                )
                .with_region(
                    Region::new("northeurope"),
                    CatalogVersion::INITIAL,
                    &CatalogSpec::default(),
                    1.02,
                ),
        )));
        let registry = Arc::new(EngineRegistry::new(
            Arc::clone(&provider) as Arc<dyn doppler_catalog::CatalogProvider>
        ));
        let assessor = FleetAssessor::over_registry(registry, FleetConfig::with_workers(2))
            .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)));
        let mut sim = FleetScheduler::new(DriftMonitor::new(assessor), SimClock::starting(2022, 1))
            .with_provider(Arc::clone(&provider))
            .with_idle_ttl(2)
            .with_version_window(1);

        let west = Region::new("westeurope");
        let west_key = CatalogKey::production(DeploymentType::SqlDb).in_region(west.clone());
        let north_key =
            CatalogKey::production(DeploymentType::SqlDb).in_region(Region::new("northeurope"));
        sim.onboard_at(
            0,
            MonitoredCustomer::new("keeper", DeploymentType::SqlDb, window(0.5, 48))
                .with_catalog_key(west_key),
        );
        sim.onboard_at(
            0,
            MonitoredCustomer::new("north", DeploymentType::SqlDb, window(0.5, 48))
                .with_catalog_key(north_key),
        );
        sim.onboard_at(0, MonitoredCustomer::new("ghost", DeploymentType::SqlDb, window(0.5, 48)));
        // The keeper reports telemetry every month; north only the first
        // two; the ghost never does.
        for m in 0..4 {
            sim.telemetry_at(m, "keeper", window(0.5, 48));
        }
        sim.telemetry_at(0, "north", window(0.5, 48));
        sim.telemetry_at(1, "north", window(0.5, 48));
        // Two West Europe feeds → versions 2 and 3. With a window of 1,
        // the month-2 sweep floors the fleet at v2 and drops North
        // Europe's (never-rolled) v1 engine.
        sim.feed_at(1, west.clone(), PriceFeed::Multiplier(0.95));
        sim.feed_at(2, west, PriceFeed::Multiplier(0.95));
        let months = sim.run(4);

        assert!(months[0].retired_customers.is_empty());
        assert!(months[1].retired_customers.is_empty());
        assert_eq!(months[2].retired_customers, ["ghost"], "idle for 2 months -> unwatched");
        assert_eq!(months[3].retired_customers, ["north"], "telemetry stopped after month 2");
        assert_eq!(sim.monitor().watched(), 1);
        assert_eq!(sim.monitor().watched_names().collect::<Vec<_>>(), ["keeper"]);

        assert_eq!(months[0].retired_engines, 0, "frontier still at v1");
        assert_eq!(months[1].retired_engines, 0, "window 1 keeps v1 while frontier is v2");
        assert_eq!(months[2].retired_engines, 1, "north's v1 engine aged out at frontier v3");
        assert_eq!(sim.summary().customers_retired, 2);
        assert_eq!(sim.summary().engines_retired, 1);
    }

    #[test]
    fn summary_rides_the_final_report_and_round_trips_json() {
        let mut sim = simple_scheduler(2);
        sim.onboard_at(0, MonitoredCustomer::new("c", DeploymentType::SqlDb, window(0.5, 96)));
        sim.telemetry_at(1, "c", window(7.0, 96));
        sim.run(2);
        let summary = sim.summary().clone();
        let report = sim.shutdown();
        assert_eq!(report.schedule.as_ref(), Some(&summary));
        assert_eq!(report.fleet_size, 1, "the drift re-assessment went through the service");
        let rendered = report.render();
        assert!(rendered.contains("Simulation schedule"), "{rendered}");
        assert!(rendered.contains("Jan-22"), "{rendered}");

        let json = schedule_summary_to_json(&summary);
        let text = json.render_pretty();
        let parsed = Json::parse(&text).expect("exported JSON re-parses");
        let back = schedule_summary_from_json(&parsed).expect("structurally sound");
        assert_eq!(back, summary, "lossless round-trip");
    }
}
