//! Fleet-wide drift monitoring: continuous re-assessment of deployed
//! customers against their recommended SKUs (§5.2.3 at fleet scale).
//!
//! Doppler validates a recommendation *after* migration by comparing
//! telemetry before and after the SKU change; production SKU advisors must
//! keep doing that for every deployed customer as workloads drift. The
//! [`DriftMonitor`] is that loop:
//!
//! 1. **watch** — register each deployed customer with the telemetry
//!    window its recommendation was made on (directly, or straight from a
//!    fleet run via [`DriftMonitor::watch_assessment`]);
//! 2. **observe** — stage each customer's freshest telemetry window as it
//!    arrives;
//! 3. **tick** — per month (or on demand), compare every staged window with
//!    its baseline window — [`detect_drift`] on the two, through the shared
//!    [`FleetService`] worker pool — folding the per-customer
//!    [`DriftOutcome`]s — in registration order, so every aggregate is
//!    bit-for-bit identical for any worker count — into a
//!    [`FleetDriftReport`] with per-region and per-deployment roll-ups;
//! 4. **re-queue** — customers whose recommendation moved are re-assessed
//!    immediately through the queue's *priority lane*
//!    ([`FleetRequest::with_priority`]), jumping any normal backlog —
//!    worst drift first (severity-ordered within the lane, Critical ahead
//!    of High, stable within a grade) — and their baselines roll forward
//!    to the fresh window.
//!
//! Drift checks ride the same worker pool as assessments but stay out of
//! the service's assessment aggregate — the monitor owns their
//! aggregation, and its [`AdoptionLedger`] gains per-month drift-outcome
//! rows alongside the Table 1 counters.
//!
//! # Example
//!
//! ```
//! use doppler_catalog::DeploymentType;
//! use doppler_fleet::{DriftMonitor, FleetAssessor, FleetConfig, MonitoredCustomer};
//! use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};
//!
//! let mut monitor = DriftMonitor::new(FleetAssessor::production(FleetConfig::with_workers(2)));
//!
//! let window = |cpu: f64| {
//!     PerfHistory::new()
//!         .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 96]))
//!         .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; 96]))
//! };
//! monitor.watch(MonitoredCustomer::new("cust-1", DeploymentType::SqlDb, window(0.5)));
//! monitor.observe("cust-1", window(7.0)); // the workload grew 14×
//! let pass = monitor.tick("Nov-21");
//! assert_eq!(pass.report.drifted, 1);
//! assert_eq!(pass.reassessments.len(), 1, "drifted customers re-assess via the priority lane");
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use doppler_catalog::{CatalogKey, DeploymentType, RefreshableCatalogProvider, Region};
use doppler_core::{detect_drift, ConfidenceConfig, DriftSeverity};
use doppler_dma::{AdoptionLedger, AssessmentRequest, AssessmentResult};
use doppler_obs::{Gauge, Histogram};
use doppler_telemetry::PerfHistory;

use crate::assessor::{AssessmentError, EngineSet, FleetAssessor, FleetRequest, FleetResult};
use crate::report::{bar_row, render_attention_list, FleetReport};
use crate::service::{FleetService, Ticket};

/// One drift check, shipped to the worker pool: a customer's baseline
/// window, its fresh window, and where to price the verdict. The probe
/// shares both windows with the monitor, so submitting one copies no
/// telemetry.
#[derive(Debug, Clone)]
pub struct DriftProbe {
    /// The customer being checked (labels the outcome).
    pub customer: String,
    pub deployment: DeploymentType,
    /// Price the check against this exact offer catalog; `None` = the
    /// deployment's default route (same resolution as assessment).
    pub catalog_key: Option<CatalogKey>,
    /// The window the standing recommendation was made on.
    pub baseline: Arc<PerfHistory>,
    /// The freshest telemetry window.
    pub fresh: Arc<PerfHistory>,
}

/// What one drift check concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DriftVerdict {
    /// The fresh window selects the same SKU as the baseline window.
    Stable,
    /// The recommendation moved: the workload outgrew (or shrank out of)
    /// its SKU.
    Drifted,
    /// No verdict: the fresh window was empty or collected other
    /// dimensions than the baseline, one of the windows produced no
    /// selection, or the check itself failed (no route, panic) — see
    /// [`DriftOutcome::error`].
    Inconclusive,
}

/// One customer's drift-check result, tagged with its submission index.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DriftOutcome {
    /// Position of this outcome in its [`DriftPass`] (the monitor
    /// re-indexes on collection). For checks submitted directly via
    /// [`FleetService::submit_drift`](crate::service::FleetService::submit_drift)
    /// this is the service-wide drift-check sequence number instead.
    pub index: usize,
    pub customer: String,
    pub deployment: DeploymentType,
    /// The region the check was priced in ([`Region::global`] when the
    /// customer carries no catalog key).
    pub region: Region,
    pub verdict: DriftVerdict,
    /// Severity grade ([`DriftSeverity::None`] unless drifted).
    pub severity: DriftSeverity,
    /// The baseline window's selection.
    pub before_sku: Option<String>,
    /// The fresh window's selection — the re-recommendation.
    pub after_sku: Option<String>,
    /// Raw throttling probability of keeping the baseline SKU on the
    /// fresh workload.
    pub throttle_if_unchanged: f64,
    /// Monthly cost of acting on the re-recommendation (after − before).
    pub cost_delta: Option<f64>,
    /// Why the check was inconclusive, when it failed outright.
    pub error: Option<String>,
}

impl DriftOutcome {
    /// A check that failed outright: no verdict, only the reason.
    fn inconclusive(
        index: usize,
        customer: String,
        deployment: DeploymentType,
        region: Region,
        error: String,
    ) -> DriftOutcome {
        DriftOutcome {
            index,
            customer,
            deployment,
            region,
            verdict: DriftVerdict::Inconclusive,
            severity: DriftSeverity::None,
            before_sku: None,
            after_sku: None,
            throttle_if_unchanged: 0.0,
            cost_delta: None,
            error: Some(error),
        }
    }
}

/// Run one probe against the service's engine set — the worker-side body
/// of a drift check. Panics and resolution failures become
/// [`DriftVerdict::Inconclusive`] outcomes instead of killing the worker.
pub(crate) fn evaluate_probe(engines: &EngineSet, index: usize, probe: DriftProbe) -> DriftOutcome {
    let DriftProbe { customer, deployment, catalog_key, baseline, fresh } = probe;
    let region = catalog_key.as_ref().map(|k| k.region.clone()).unwrap_or_else(Region::global);
    // Drift checks are not assessments: their resolution stays out of
    // `fleet.stage.resolve`.
    let evaluated = engines.guarded(deployment, &catalog_key, &Histogram::default(), |pipeline| {
        // The resolved pipeline's catalog is already regional (prices
        // scaled by the provider), so the drift verdict is priced in the
        // customer's own region.
        let skus = pipeline.backend().catalog().for_deployment(deployment);
        detect_drift(&baseline, &fresh, &skus)
    });
    let report = match evaluated {
        Ok(report) => report,
        Err(e) => {
            return DriftOutcome::inconclusive(index, customer, deployment, region, e.message)
        }
    };
    let verdict = match (&report.before_sku, &report.after_sku) {
        (Some(_), Some(_)) if report.changed => DriftVerdict::Drifted,
        (Some(_), Some(_)) => DriftVerdict::Stable,
        _ => DriftVerdict::Inconclusive,
    };
    DriftOutcome {
        index,
        customer,
        deployment,
        region,
        verdict,
        severity: report.severity(),
        throttle_if_unchanged: report.throttle_if_unchanged,
        cost_delta: report.cost_delta(),
        before_sku: report.before_sku,
        after_sku: report.after_sku,
        error: None,
    }
}

/// One roll-up row of a drift pass: the verdict counts of the checks that
/// share a key — the region a check was priced in ([`CatalogKey`]
/// plumbing), or its deployment target.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DriftRollupRow<K> {
    pub key: K,
    pub checked: usize,
    pub drifted: usize,
    pub stable: usize,
    pub inconclusive: usize,
    /// Sum of the drifted customers' re-recommendation cost deltas.
    pub cost_delta: f64,
}

impl<K: PartialEq + Clone> DriftRollupRow<K> {
    /// Count one outcome into `key`'s row, appending the row on first
    /// sight.
    fn tally(rows: &mut Vec<DriftRollupRow<K>>, key: &K, verdict: DriftVerdict, cost_delta: f64) {
        let slot = rows.iter().position(|row| row.key == *key).unwrap_or_else(|| {
            rows.push(DriftRollupRow {
                key: key.clone(),
                checked: 0,
                drifted: 0,
                stable: 0,
                inconclusive: 0,
                cost_delta: 0.0,
            });
            rows.len() - 1
        });
        let row = &mut rows[slot];
        row.checked += 1;
        row.cost_delta += cost_delta;
        match verdict {
            DriftVerdict::Drifted => row.drifted += 1,
            DriftVerdict::Stable => row.stable += 1,
            DriftVerdict::Inconclusive => row.inconclusive += 1,
        }
    }
}

/// Append one roll-up section of the drift dashboard — only when it has
/// more than one row to compare.
fn render_rollup<K>(
    out: &mut String,
    title: &str,
    rows: &[DriftRollupRow<K>],
    label: impl Fn(&K) -> String,
) {
    if rows.len() <= 1 {
        return;
    }
    out.push_str(&format!("\n--- {title} ---\n"));
    for r in rows {
        out.push_str(&format!(
            "{:>14}   checked {:>6}   drifted {:>5}   stable {:>6}   inconclusive {:>4}   {:+.2} $/mo\n",
            label(&r.key), r.checked, r.drifted, r.stable, r.inconclusive, r.cost_delta
        ));
    }
}

/// One drifted customer, for the attention list.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DriftedRow {
    pub customer: String,
    pub region: Region,
    pub from_sku: Option<String>,
    pub to_sku: Option<String>,
    pub severity: DriftSeverity,
    pub throttle_if_unchanged: f64,
    pub cost_delta: Option<f64>,
}

/// The aggregate view of one monitoring pass: verdict counts, the severity
/// histogram, the total re-recommendation cost delta, and per-region /
/// per-deployment roll-up rows that always sum back to the fleet totals.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FleetDriftReport {
    /// The ledger month this pass was recorded under.
    pub month: String,
    pub checked: usize,
    pub drifted: usize,
    pub stable: usize,
    pub inconclusive: usize,
    /// Severity histogram in [`DriftSeverity::ALL`] order.
    pub severity: [usize; 5],
    /// Catalog version rolls processed since the previous pass
    /// ([`DriftMonitor::on_catalog_roll`]) — a billing change shows up on
    /// the same dashboard as drift.
    pub catalog_rolls: usize,
    /// Sum of the drifted customers' re-recommendation cost deltas
    /// (positive: the fleet grew; negative: right-sizing savings).
    pub total_cost_delta: f64,
    /// Per-region rows, sorted by region label.
    pub regions: Vec<DriftRollupRow<Region>>,
    /// Per-deployment rows in `SqlDb`, `SqlMi` order (present targets
    /// only).
    pub deployments: Vec<DriftRollupRow<DeploymentType>>,
    /// The drifted customers, in submission order.
    pub drifted_customers: Vec<DriftedRow>,
}

impl FleetDriftReport {
    /// Fold a pass's outcomes (must be in submission order — summation
    /// follows it, so equal inputs produce bit-for-bit equal reports
    /// regardless of how many workers ran the checks).
    pub fn from_outcomes(month: &str, outcomes: &[DriftOutcome]) -> FleetDriftReport {
        let mut report = FleetDriftReport {
            month: month.to_string(),
            checked: 0,
            drifted: 0,
            stable: 0,
            inconclusive: 0,
            severity: [0; 5],
            catalog_rolls: 0,
            total_cost_delta: 0.0,
            regions: Vec::new(),
            deployments: Vec::new(),
            drifted_customers: Vec::new(),
        };
        for o in outcomes {
            report.checked += 1;
            report.severity[o.severity.bucket()] += 1;
            let drifted_delta = match o.verdict {
                DriftVerdict::Drifted => {
                    report.drifted += 1;
                    report.drifted_customers.push(DriftedRow {
                        customer: o.customer.clone(),
                        region: o.region.clone(),
                        from_sku: o.before_sku.clone(),
                        to_sku: o.after_sku.clone(),
                        severity: o.severity,
                        throttle_if_unchanged: o.throttle_if_unchanged,
                        cost_delta: o.cost_delta,
                    });
                    let delta = o.cost_delta.unwrap_or(0.0);
                    report.total_cost_delta += delta;
                    delta
                }
                DriftVerdict::Stable => {
                    report.stable += 1;
                    0.0
                }
                DriftVerdict::Inconclusive => {
                    report.inconclusive += 1;
                    0.0
                }
            };
            DriftRollupRow::tally(&mut report.regions, &o.region, o.verdict, drifted_delta);
            DriftRollupRow::tally(&mut report.deployments, &o.deployment, o.verdict, drifted_delta);
        }
        report.regions.sort_by(|a, b| a.key.as_str().cmp(b.key.as_str()));
        report.deployments.sort_by_key(|row| row.key);
        report
    }

    /// Render the drift pass as a terminal dashboard, in the style of
    /// [`FleetReport::render`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("=== Fleet Drift Report ({}) ===\n", self.month));
        out.push_str(&format!(
            "checked: {:>7}   drifted: {:>6}   stable: {:>6}   inconclusive: {:>5}\n",
            self.checked, self.drifted, self.stable, self.inconclusive
        ));
        out.push_str(&format!(
            "re-recommendation cost delta: {}${:.2}/mo\n",
            if self.total_cost_delta >= 0.0 { "+" } else { "-" },
            self.total_cost_delta.abs()
        ));
        if self.catalog_rolls > 0 {
            out.push_str(&format!("catalog rolls since last pass: {}\n", self.catalog_rolls));
        }

        if self.checked > 0 {
            out.push_str("\n--- Severity ---\n");
            let max_count = self.severity.iter().copied().max().unwrap_or(1).max(1);
            for (grade, &count) in DriftSeverity::ALL.iter().zip(&self.severity) {
                out.push_str(&bar_row(&format!("{grade:?}"), count, max_count, self.checked, ""));
            }
        }

        render_rollup(&mut out, "Regions", &self.regions, |region| region.as_str().to_string());
        render_rollup(&mut out, "Deployments", &self.deployments, |d| format!("{d:?}"));

        let drifted_lines: Vec<String> = self
            .drifted_customers
            .iter()
            .map(|r| {
                format!(
                    "{} [{}] {} -> {} ({:?}, {:.0}% throttled if unchanged{})",
                    r.customer,
                    r.region.as_str(),
                    r.from_sku.as_deref().unwrap_or("?"),
                    r.to_sku.as_deref().unwrap_or("?"),
                    r.severity,
                    r.throttle_if_unchanged * 100.0,
                    match r.cost_delta {
                        Some(d) => format!(", {d:+.2} $/mo"),
                        None => String::new(),
                    }
                )
            })
            .collect();
        render_attention_list(&mut out, "Drifted", &drifted_lines);
        out
    }

    /// [`render`](FleetDriftReport::render) with the ops dashboard from an
    /// [`ObsSnapshot`](doppler_obs::ObsSnapshot) appended, mirroring
    /// [`FleetReport::render_with_ops`](crate::FleetReport::render_with_ops):
    /// the drift verdicts first, then the pass/probe latencies and re-queue
    /// activity behind them. The report itself never reads the snapshot.
    pub fn render_with_ops(&self, snapshot: &doppler_obs::ObsSnapshot) -> String {
        let mut out = self.render();
        out.push('\n');
        out.push_str(&snapshot.render());
        out
    }
}

/// One deployed customer the monitor watches: the telemetry window its
/// standing recommendation was made on, plus enough routing context to
/// re-check (and re-assess) it in its own region.
#[derive(Debug, Clone)]
pub struct MonitoredCustomer {
    pub name: String,
    pub deployment: DeploymentType,
    /// Price drift checks and re-assessments against this exact offer
    /// catalog; `None` = the deployment's default route.
    pub catalog_key: Option<CatalogKey>,
    /// The window the standing recommendation was made on, shared with
    /// the drift probes that compare against it.
    pub baseline: Arc<PerfHistory>,
    /// The standing recommendation, when known (display only — verdicts
    /// compare the baseline window's own selection against the fresh
    /// window's).
    pub baseline_sku: Option<String>,
    /// The standing recommendation's monthly cost, when known.
    pub baseline_cost: Option<f64>,
    /// MI data-file sizes, carried into re-assessment requests.
    pub file_sizes_gib: Vec<f64>,
    /// Confidence settings the customer was originally assessed with;
    /// carried into priority-lane re-assessments so the re-recommendation
    /// keeps its confidence score.
    pub confidence: Option<ConfidenceConfig>,
}

impl MonitoredCustomer {
    pub fn new(
        name: impl Into<String>,
        deployment: DeploymentType,
        baseline: PerfHistory,
    ) -> MonitoredCustomer {
        MonitoredCustomer {
            name: name.into(),
            deployment,
            catalog_key: None,
            baseline: Arc::new(baseline),
            baseline_sku: None,
            baseline_cost: None,
            file_sizes_gib: Vec::new(),
            confidence: None,
        }
    }

    /// Pin the offer catalog; the key's deployment becomes the customer's.
    pub fn with_catalog_key(mut self, key: CatalogKey) -> MonitoredCustomer {
        self.deployment = key.deployment;
        self.catalog_key = Some(key);
        self
    }

    /// The region drift checks are priced in.
    pub fn region(&self) -> Region {
        self.catalog_key.as_ref().map(|k| k.region.clone()).unwrap_or_else(Region::global)
    }

    /// Build a watch entry straight from a fleet run: the request supplies
    /// the baseline window and routing, the result the standing
    /// recommendation. `None` when the assessment failed (there is no
    /// recommendation to monitor).
    pub fn from_assessment(
        request: &FleetRequest,
        result: &FleetResult,
    ) -> Option<MonitoredCustomer> {
        let assessed = result.outcome.as_ref().ok()?;
        let mut customer = MonitoredCustomer::new(
            result.instance_name.as_ref(),
            request.deployment,
            request.request.input.instance.clone(),
        );
        customer.catalog_key = request.catalog_key.clone();
        customer.adopt(assessed);
        customer.file_sizes_gib = request.request.input.file_sizes_gib.clone();
        customer.confidence = request.request.confidence;
        Some(customer)
    }

    /// The priority-lane, month-tagged re-assessment of this customer on
    /// `history`, routed through its current catalog key with its original
    /// file layout and confidence settings.
    fn reassessment(&self, history: PerfHistory, month: &str) -> FleetRequest {
        let request = AssessmentRequest::from_history(
            self.name.clone(),
            history,
            self.file_sizes_gib.clone(),
            self.confidence,
        );
        let fleet_request =
            FleetRequest::new(self.deployment, request).with_month(month).with_priority();
        match &self.catalog_key {
            Some(key) => fleet_request.with_catalog_key(key.clone()),
            None => fleet_request,
        }
    }

    /// Roll the standing recommendation forward to an assessment's pick.
    fn adopt(&mut self, assessed: &AssessmentResult) {
        self.baseline_sku = assessed.recommendation.sku_id.clone();
        self.baseline_cost = assessed.recommendation.monthly_cost;
    }
}

/// Why `fresh` cannot be compared with `baseline`: it holds no samples,
/// or it collects another set of dimensions. `None` when it can.
fn incomparable(baseline: &PerfHistory, fresh: &PerfHistory) -> Option<String> {
    if fresh.is_empty() {
        return Some("fresh window is empty".to_string());
    }
    let (want, got) = (baseline.dimensions(), fresh.dimensions());
    (want != got).then(|| format!("fresh window misaligned with its baseline: {got:?} vs {want:?}"))
}

struct Watched {
    customer: MonitoredCustomer,
    /// The freshest telemetry window staged by `observe`, if any.
    fresh: Option<Arc<PerfHistory>>,
}

/// What one processed catalog roll did to the monitored fleet
/// ([`DriftMonitor::on_catalog_roll`]).
#[derive(Debug)]
pub struct CatalogRollOutcome {
    /// The key the roll superseded.
    pub old_key: CatalogKey,
    /// The key pinned customers now resolve.
    pub new_key: CatalogKey,
    /// Engines tombstoned in the shared registry for the old key (0 when
    /// no engine was ever trained for it).
    pub retired_engines: usize,
    /// Priority-lane re-assessments of the customers that were pinned to
    /// the old key, in watch order — their standing recommendations
    /// re-priced against the new catalog version. Every pinned customer
    /// appears here exactly once: a re-price that could not run (the
    /// service closed mid-roll) is surfaced as a *failed* result, never
    /// silently dropped.
    pub repriced: Vec<FleetResult>,
    /// How many of [`repriced`](CatalogRollOutcome::repriced) failed —
    /// assessment errors plus re-prices the service refused or dropped.
    pub reprice_failures: usize,
}

/// One completed monitoring pass.
#[derive(Debug)]
pub struct DriftPass {
    /// The aggregate roll-up.
    pub report: FleetDriftReport,
    /// Per-customer outcomes, in registration order.
    pub outcomes: Vec<DriftOutcome>,
    /// Priority-lane re-assessments of the drifted customers, worst drift
    /// first: severity-ordered (Critical → High → …), stably, so equally
    /// graded customers keep the order they appear in
    /// [`FleetDriftReport::drifted_customers`].
    pub reassessments: Vec<FleetResult>,
}

/// The fleet drift-monitoring loop. See the [module docs](crate::drift)
/// for the lifecycle, and
/// [`ROADMAP`](https://github.com/doppler-repro/doppler) for where it sits
/// in the assess → deploy → monitor → re-queue cycle.
pub struct DriftMonitor {
    service: FleetService,
    /// Watch entries in registration order (the pass order).
    watched: Vec<Watched>,
    /// Customer name → slot in `watched`, so registration and observation
    /// stay O(1) over fleet-sized cohorts.
    slots: HashMap<String, usize>,
    ledger: AdoptionLedger,
    /// Catalog rolls processed since the last pass; folded into the next
    /// [`FleetDriftReport::catalog_rolls`].
    rolls_since_tick: usize,
    /// How far into a provider's change log
    /// [`dispatch_rolls`](DriftMonitor::dispatch_rolls) has dispatched —
    /// the last-seen-roll cursor that makes log replay idempotent.
    roll_cursor: usize,
}

impl DriftMonitor {
    /// A monitor owning a fresh service over the assessor's engine set.
    pub fn new(assessor: FleetAssessor) -> DriftMonitor {
        DriftMonitor::over(assessor.into_service())
    }

    /// A monitor over an existing service — the shared-pool deployment:
    /// assessment traffic keeps flowing through
    /// [`service`](DriftMonitor::service) while the monitor's priority
    /// re-assessments jump that backlog.
    pub fn over(service: FleetService) -> DriftMonitor {
        DriftMonitor {
            service,
            watched: Vec::new(),
            slots: HashMap::new(),
            ledger: AdoptionLedger::default(),
            rolls_since_tick: 0,
            roll_cursor: 0,
        }
    }

    /// The underlying service (submit ordinary assessment traffic here).
    pub fn service(&self) -> &FleetService {
        &self.service
    }

    /// Register a customer for monitoring. Re-watching a name replaces its
    /// entry (and drops any staged window) in place, keeping its original
    /// position in the pass order.
    pub fn watch(&mut self, customer: MonitoredCustomer) {
        match self.slots.get(&customer.name) {
            Some(&slot) => self.watched[slot] = Watched { customer, fresh: None },
            None => {
                self.slots.insert(customer.name.clone(), self.watched.len());
                self.watched.push(Watched { customer, fresh: None });
            }
        }
    }

    /// Register a customer straight from a fleet run. Returns `false` for
    /// failed assessments (nothing to monitor).
    pub fn watch_assessment(&mut self, request: &FleetRequest, result: &FleetResult) -> bool {
        match MonitoredCustomer::from_assessment(request, result) {
            Some(customer) => {
                self.watch(customer);
                true
            }
            None => false,
        }
    }

    /// Customers currently watched.
    pub fn watched(&self) -> usize {
        self.watched.len()
    }

    /// The watched customer names, in pass (registration) order.
    pub fn watched_names(&self) -> impl Iterator<Item = &str> {
        self.watched.iter().map(|w| w.customer.name.as_str())
    }

    /// Stop watching `name`, dropping its entry (and any staged window).
    /// The remaining customers keep their relative pass order. Returns
    /// `false` for unknown names. O(watched) — the name→slot map
    /// re-indexes — so retire in batches (the scheduler's TTL sweep),
    /// not per telemetry sample.
    pub fn unwatch(&mut self, name: &str) -> bool {
        let Some(slot) = self.slots.remove(name) else { return false };
        self.watched.remove(slot);
        for s in self.slots.values_mut() {
            if *s > slot {
                *s -= 1;
            }
        }
        true
    }

    /// Stage `name`'s freshest telemetry window for the next pass
    /// (replacing any previous staging). Returns `false` for unknown
    /// customers.
    pub fn observe(&mut self, name: &str, fresh: PerfHistory) -> bool {
        match self.slots.get(name) {
            Some(&slot) => {
                self.watched[slot].fresh = Some(Arc::new(fresh));
                true
            }
            None => false,
        }
    }

    /// Customers with a staged window awaiting the next pass.
    pub fn observed(&self) -> usize {
        self.watched.iter().filter(|w| w.fresh.is_some()).count()
    }

    /// Per-month drift-outcome rows (checks run, drift detected),
    /// alongside nothing else — the Table 1 ledger extension.
    pub fn ledger(&self) -> &AdoptionLedger {
        &self.ledger
    }

    /// Run one monitoring pass over every customer with a staged window:
    /// fan the drift checks out across the service's workers, fold the
    /// outcomes in registration order, re-queue the drifted customers
    /// through the priority lane, and roll their baselines forward to the
    /// fresh window. A fresh window with no samples, or with another
    /// dimension set than its baseline, gets no probe: it reads as
    /// [`DriftVerdict::Inconclusive`], and the customer's baseline and
    /// standing SKU stay as they were. Deterministic: the same staged
    /// windows produce the same [`DriftPass`] for any worker count.
    pub fn tick(&mut self, month: &str) -> DriftPass {
        // Write-aside pass instrumentation, through the service's shared
        // registry — all no-ops unless the service was built with
        // `FleetAssessor::with_obs`. The probes themselves are timed by the
        // workers (`fleet.stage.drift_probe`); this layer adds whole-pass
        // latency, verdict/severity tallies, and the priority-lane
        // re-queue depth.
        let obs = self.service.obs().clone();
        let pass_span = obs.histogram("drift.pass_latency").start();

        // Phase 1: submit every staged check, in registration order. The
        // fresh window is kept aside — the drifted subset re-assesses on
        // it and rolls its baseline forward to it. A fresh window that
        // cannot be compared with its baseline (no samples, or a collector
        // dropped or added a counter) becomes an immediate Inconclusive
        // outcome instead of a verdict or a failed pass.
        enum Pending {
            InFlight(usize, Arc<PerfHistory>, Ticket<DriftOutcome>),
            Immediate(DriftOutcome),
        }
        let mut pending = Vec::new();
        for (slot, w) in self.watched.iter_mut().enumerate() {
            let Some(fresh) = w.fresh.take() else { continue };
            if let Some(reason) = incomparable(&w.customer.baseline, &fresh) {
                pending.push(Pending::Immediate(DriftOutcome::inconclusive(
                    0, // re-indexed at collection
                    w.customer.name.clone(),
                    w.customer.deployment,
                    w.customer.region(),
                    reason,
                )));
                continue;
            }
            let probe = DriftProbe {
                customer: w.customer.name.clone(),
                deployment: w.customer.deployment,
                catalog_key: w.customer.catalog_key.clone(),
                baseline: Arc::clone(&w.customer.baseline),
                fresh: Arc::clone(&fresh),
            };
            match self.service.submit_drift(probe) {
                Ok(ticket) => pending.push(Pending::InFlight(slot, fresh, ticket)),
                // The service was closed under the monitor: nothing can be
                // checked any more; leave the window staged for a future
                // monitor over a live service.
                Err(_) => {
                    w.fresh = Some(fresh);
                    break;
                }
            }
        }

        // Phase 2: collect outcomes in submission order, re-indexed to
        // their position in this pass, and record them.
        let mut outcomes: Vec<DriftOutcome> = Vec::with_capacity(pending.len());
        let mut requeue = Vec::new();
        for entry in pending {
            let mut outcome = match entry {
                Pending::Immediate(outcome) => outcome,
                Pending::InFlight(slot, fresh, ticket) => {
                    let Some(outcome) = ticket.recv() else { continue };
                    if outcome.verdict == DriftVerdict::Drifted {
                        requeue.push((slot, fresh, outcome.severity));
                    }
                    outcome
                }
            };
            outcome.index = outcomes.len();
            self.ledger.record_drift(month, outcome.verdict == DriftVerdict::Drifted);
            outcomes.push(outcome);
        }
        let mut report = FleetDriftReport::from_outcomes(month, &outcomes);
        report.catalog_rolls = std::mem::take(&mut self.rolls_since_tick);
        if obs.is_enabled() {
            for outcome in &outcomes {
                obs.counter(&format!("drift.verdict.{:?}", outcome.verdict)).incr();
                obs.counter(&format!("drift.severity.{:?}", outcome.severity)).incr();
            }
        }

        // Phase 3: drifted customers jump the queue, worst drift first —
        // within the priority lane the re-queue is severity-ordered
        // (Critical ahead of High ahead of Moderate…), stably, so equally
        // graded customers keep registration order and the pass stays
        // deterministic. Each re-assessment runs the *full* pipeline
        // (profiling, matching, and the original confidence settings) on
        // the fresh window, month-tagged so the service's own adoption
        // ledger records the re-assessment wave.
        requeue.sort_by_key(|&(_, _, severity)| std::cmp::Reverse(severity.bucket()));
        let requeue = requeue.into_iter().map(|(slot, fresh, _)| (slot, Some(fresh))).collect();
        let reassessments = self.reassess(month, requeue, &obs.gauge("drift.requeue_depth"));

        obs.counter("drift.passes").incr();
        obs.counter("drift.reassessments").add(reassessments.len() as u64);
        if obs.is_enabled() {
            obs.event(
                "drift.pass",
                &format!(
                    "month={month} checked={} drifted={} reassessed={}",
                    report.checked,
                    report.drifted,
                    reassessments.len()
                ),
            );
        }
        drop(pass_span);
        DriftPass { report, outcomes, reassessments }
    }

    /// Process one catalog version roll — the lifecycle hook a
    /// [`RefreshableCatalogProvider`]
    /// feed produces a [`CatalogRoll`](doppler_catalog::CatalogRoll) for:
    ///
    /// 1. the old key is **retired** in the shared registry
    ///    ([`EngineRegistry::retire_version`](doppler_core::EngineRegistry::retire_version)),
    ///    so nothing can silently retrain or serve the superseded catalog;
    /// 2. every watched customer pinned to the old key is re-pinned to the
    ///    new key and **re-assessed through the priority lane** on its
    ///    baseline window (the workload did not change — its price did),
    ///    jumping any normal backlog exactly like drifted customers do;
    /// 3. successful re-assessments roll the customer's standing
    ///    recommendation (SKU and monthly cost) forward, and the roll is
    ///    recorded in the ledger's `catalog_rolls` / `customers_repriced`
    ///    columns and surfaced by the next pass's
    ///    [`FleetDriftReport::catalog_rolls`].
    ///
    /// Customers in other regions (or at other versions) are untouched —
    /// their keys still resolve warm. Deterministic: re-assessments are
    /// submitted and collected in watch order, so equal fleets produce
    /// bit-for-bit equal [`CatalogRollOutcome::repriced`] vectors at any
    /// worker count.
    pub fn on_catalog_roll(
        &mut self,
        month: &str,
        old_key: &CatalogKey,
        new_key: &CatalogKey,
    ) -> CatalogRollOutcome {
        let retired_engines = self.service.registry().retire_version(old_key);

        // Re-pin and re-queue, in watch order. The key moves even if the
        // re-assessment later fails: the old key is retired, so leaving a
        // customer pinned to it would strand every future check.
        let mut pinned = Vec::new();
        for (slot, w) in self.watched.iter_mut().enumerate() {
            if w.customer.catalog_key.as_ref() == Some(old_key) {
                w.customer.catalog_key = Some(new_key.clone());
                pinned.push((slot, None));
            }
        }
        let repriced = self.reassess(month, pinned, &Gauge::default());
        let reprice_failures = repriced.iter().filter(|r| r.outcome.is_err()).count();
        self.ledger.record_roll(month, repriced.len() - reprice_failures);
        self.rolls_since_tick += 1;
        let obs = self.service.obs();
        obs.counter("drift.catalog_rolls").incr();
        if reprice_failures > 0 {
            obs.counter("drift.reprice_failures").add(reprice_failures as u64);
        }
        if obs.is_enabled() {
            obs.event(
                "catalog.roll",
                &format!(
                    "month={month} {old_key} -> {new_key} retired={retired_engines} repriced={} failed={reprice_failures}",
                    repriced.len()
                ),
            );
        }
        CatalogRollOutcome {
            old_key: old_key.clone(),
            new_key: new_key.clone(),
            retired_engines,
            repriced,
            reprice_failures,
        }
    }

    /// Re-assess watched customers through the priority lane, in the given
    /// order: submit each slot's
    /// [`reassessment`](MonitoredCustomer::reassessment) — on its fresh
    /// window when one is given, else on its current baseline — then
    /// collect the results in that same order, with `depth` counting the
    /// submissions in flight. A submit the service refuses (closed
    /// mid-roll), or a ticket it drops, becomes a failed result indexed by
    /// its position here, so every slot answers exactly once — the
    /// customer may already have been re-pinned, and dropping it would
    /// hide it from the outcome and the ledger. A success rolls the
    /// customer forward: the fresh window becomes its baseline, and the
    /// re-recommendation its standing one.
    fn reassess(
        &mut self,
        month: &str,
        slots: Vec<(usize, Option<Arc<PerfHistory>>)>,
        depth: &Gauge,
    ) -> Vec<FleetResult> {
        let pending: Vec<_> = slots
            .into_iter()
            .map(|(slot, fresh)| {
                let customer = &self.watched[slot].customer;
                let history = PerfHistory::clone(fresh.as_ref().unwrap_or(&customer.baseline));
                let ticket = self.service.submit(customer.reassessment(history, month)).ok();
                if ticket.is_some() {
                    depth.add(1);
                }
                (slot, fresh, ticket)
            })
            .collect();
        let mut results = Vec::with_capacity(pending.len());
        for (position, (slot, fresh, ticket)) in pending.into_iter().enumerate() {
            let delivered = match ticket {
                Some(ticket) => {
                    depth.add(-1);
                    ticket.recv().ok_or("re-price dropped: service shut down mid-roll")
                }
                None => Err("re-price refused: service closed"),
            };
            let customer = &mut self.watched[slot].customer;
            let result = delivered.unwrap_or_else(|message| FleetResult {
                index: position,
                instance_name: Arc::from(customer.name.as_str()),
                deployment: customer.deployment,
                month: Some(Arc::from(month)),
                outcome: Err(AssessmentError { message: message.to_string() }),
            });
            if let Ok(assessed) = &result.outcome {
                if let Some(fresh) = fresh {
                    customer.baseline = fresh;
                }
                customer.adopt(assessed);
            }
            results.push(result);
        }
        results
    }

    /// Dispatch every change-log roll this monitor has not yet handled —
    /// oldest first, each through
    /// [`on_catalog_roll`](DriftMonitor::on_catalog_roll) — and advance
    /// the monitor's last-seen-roll cursor past them.
    ///
    /// This is the replay-safe subscription over
    /// [`RefreshableCatalogProvider::change_log_since`]: because the
    /// monitor only ever reads the log *after* its cursor, feeding it the
    /// same provider twice (or re-running a dispatch loop over an
    /// unchanged log) dispatches nothing the second time — each roll
    /// re-prices its pinned customers exactly once. Hand-replaying the
    /// full [`change_log`](RefreshableCatalogProvider::change_log) into
    /// [`on_catalog_roll`](DriftMonitor::on_catalog_roll) has no such
    /// protection and double-dispatches; prefer this entry point.
    pub fn dispatch_rolls(
        &mut self,
        month: &str,
        provider: &RefreshableCatalogProvider,
    ) -> Vec<CatalogRollOutcome> {
        let rolls = provider.change_log_since(self.roll_cursor);
        self.roll_cursor += rolls.len();
        rolls.iter().map(|roll| self.on_catalog_roll(month, &roll.old_key, &roll.new_key)).collect()
    }

    /// How many change-log rolls
    /// [`dispatch_rolls`](DriftMonitor::dispatch_rolls) has dispatched.
    pub fn roll_cursor(&self) -> usize {
        self.roll_cursor
    }

    /// Shut the underlying service down, returning its final assessment
    /// report (which includes the monitor's month-tagged re-assessments).
    pub fn shutdown(self) -> FleetReport {
        self.service.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use doppler_catalog::{CatalogSpec, CatalogVersion, InMemoryCatalogProvider};
    use doppler_core::EngineRegistry;
    use doppler_telemetry::{PerfDimension, TimeSeries};

    use crate::assessor::{EngineRoute, FleetConfig};

    fn window(cpu: f64, n: usize) -> PerfHistory {
        PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; n]))
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; n]))
    }

    fn monitor(workers: usize) -> DriftMonitor {
        DriftMonitor::new(FleetAssessor::production(FleetConfig::with_workers(workers)))
    }

    #[test]
    fn grown_customers_drift_and_requeue_while_steady_ones_hold() {
        let mut monitor = monitor(2);
        let mut grower = MonitoredCustomer::new("grower", DeploymentType::SqlDb, window(0.5, 96));
        grower.baseline_sku = Some("DB_GP_2".into());
        grower.baseline_cost = Some(100.0);
        monitor.watch(grower);
        monitor.watch(MonitoredCustomer::new("steady", DeploymentType::SqlDb, window(0.5, 96)));
        assert_eq!(monitor.watched(), 2);
        assert!(monitor.observe("grower", window(7.0, 96)));
        assert!(monitor.observe("steady", window(0.6, 96)));
        assert!(!monitor.observe("stranger", window(1.0, 96)));
        assert_eq!(monitor.observed(), 2);

        let pass = monitor.tick("Nov-21");
        assert_eq!(monitor.observed(), 0, "the pass consumed the staged windows");
        assert_eq!(pass.report.checked, 2);
        assert_eq!(pass.report.drifted, 1);
        assert_eq!(pass.report.stable, 1);
        assert_eq!(pass.report.inconclusive, 0);
        assert_eq!(pass.outcomes.len(), 2);
        assert_eq!(pass.outcomes[0].customer, "grower");
        assert_eq!(pass.outcomes[0].verdict, DriftVerdict::Drifted);
        assert!(pass.outcomes[0].severity >= DriftSeverity::High, "staying put throttles hard");
        assert_eq!(pass.outcomes[1].verdict, DriftVerdict::Stable);
        assert_eq!(pass.outcomes[1].severity, DriftSeverity::None);

        // Only the drifted customer re-assessed, through the priority lane.
        assert_eq!(pass.reassessments.len(), 1);
        assert_eq!(&*pass.reassessments[0].instance_name, "grower");
        let new_sku = pass.reassessments[0]
            .outcome
            .as_ref()
            .unwrap()
            .recommendation
            .sku_id
            .clone()
            .expect("placed");
        assert_ne!(new_sku, "DB_GP_2");

        // The drifted baseline rolled forward: the same fresh window again
        // now reads as stable.
        monitor.observe("grower", window(7.0, 96));
        let second = monitor.tick("Dec-21");
        assert_eq!(second.report.drifted, 0);
        assert_eq!(second.report.stable, 1);

        // Ledger drift rows by month.
        assert_eq!(monitor.ledger().month("Nov-21").unwrap().drift_checks, 2);
        assert_eq!(monitor.ledger().month("Nov-21").unwrap().drift_detected, 1);
        assert_eq!(monitor.ledger().month("Dec-21").unwrap().drift_detected, 0);

        // The service's own report counted the (month-tagged) priority
        // re-assessment.
        let report = monitor.shutdown();
        assert_eq!(report.fleet_size, 1);
        assert_eq!(report.adoption.month("Nov-21").unwrap().unique_instances, 1);
    }

    #[test]
    fn requeue_is_severity_ordered_critical_first() {
        let mut monitor = monitor(2);
        // Registration order: the mild drifter first, the runaway one
        // second — so severity ordering is observably *not* registration
        // order.
        monitor.watch(MonitoredCustomer::new("mild", DeploymentType::SqlDb, window(0.5, 96)));
        monitor.watch(MonitoredCustomer::new("wild", DeploymentType::SqlDb, window(0.5, 96)));
        // Mild: spiky — a handful of samples above the old SKU moves the
        // selection, but the throttle exposure stays a few percent.
        let spiky = PerfHistory::new()
            .with(
                PerfDimension::Cpu,
                TimeSeries::ten_minute([vec![0.5; 90], vec![3.0; 6]].concat()),
            )
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; 96]));
        assert!(monitor.observe("mild", spiky));
        assert!(monitor.observe("wild", window(7.0, 96)));

        let pass = monitor.tick("Nov-21");
        assert_eq!(pass.report.drifted, 2, "{:?}", pass.outcomes);
        // Outcomes stay in registration order…
        assert_eq!(pass.outcomes[0].customer, "mild");
        assert_eq!(pass.outcomes[1].customer, "wild");
        assert!(
            pass.outcomes[1].severity > pass.outcomes[0].severity,
            "the 14x grower must outrank the mild one ({:?} vs {:?})",
            pass.outcomes[1].severity,
            pass.outcomes[0].severity,
        );
        // …but the priority-lane re-queue is severity-ordered: worst first.
        assert_eq!(pass.reassessments.len(), 2);
        assert_eq!(&*pass.reassessments[0].instance_name, "wild");
        assert_eq!(&*pass.reassessments[1].instance_name, "mild");
    }

    #[test]
    fn tick_without_observations_is_empty() {
        let mut monitor = monitor(1);
        monitor.watch(MonitoredCustomer::new("idle", DeploymentType::SqlDb, window(0.5, 48)));
        let pass = monitor.tick("Jan-22");
        assert_eq!(pass.report.checked, 0);
        assert_eq!(pass.report, FleetDriftReport::from_outcomes("Jan-22", &[]));
        assert!(pass.reassessments.is_empty());
        assert_eq!(monitor.ledger().month("Jan-22"), None, "no checks, no row");
    }

    #[test]
    fn rewatching_a_name_replaces_the_entry() {
        let mut monitor = monitor(1);
        monitor.watch(MonitoredCustomer::new("c", DeploymentType::SqlDb, window(0.5, 48)));
        monitor.observe("c", window(0.5, 48));
        monitor.watch(MonitoredCustomer::new("c", DeploymentType::SqlDb, window(1.0, 48)));
        assert_eq!(monitor.watched(), 1);
        assert_eq!(monitor.observed(), 0, "re-watching drops the staged window");
    }

    #[test]
    fn schema_mismatched_fresh_windows_are_inconclusive_not_fatal() {
        let mut monitor = monitor(2);
        for name in ["dropped", "added", "fine"] {
            monitor.watch(MonitoredCustomer::new(name, DeploymentType::SqlDb, window(0.5, 48)));
        }
        // The collector stopped reporting IoLatency for one customer and
        // started reporting Memory for another: neither fresh window
        // collects its baseline's dimensions any more.
        let dropped =
            PerfHistory::new().with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![0.5; 48]));
        let added =
            window(7.0, 48).with(PerfDimension::Memory, TimeSeries::ten_minute(vec![1.0; 48]));
        monitor.observe("dropped", dropped);
        monitor.observe("added", added);
        monitor.observe("fine", window(0.5, 48));
        let pass = monitor.tick("Aug-22");
        assert_eq!(pass.report.checked, 3, "the pass survives the broken windows");
        assert_eq!(pass.report.inconclusive, 2);
        assert_eq!(pass.report.stable, 1);
        assert!(pass.reassessments.is_empty());
        for (outcome, name) in pass.outcomes.iter().zip(["dropped", "added"]) {
            assert_eq!(outcome.customer, name);
            assert_eq!(outcome.verdict, DriftVerdict::Inconclusive);
            assert!(outcome.error.as_ref().unwrap().contains("misaligned"), "{outcome:?}");
        }
        // Outcome indices are pass positions, including across ticks.
        assert_eq!(pass.outcomes.iter().map(|o| o.index).collect::<Vec<_>>(), [0, 1, 2]);
        monitor.observe("fine", window(0.5, 48));
        let second = monitor.tick("Sep-22");
        assert_eq!(second.outcomes[0].index, 0);
    }

    #[test]
    fn empty_fresh_windows_are_inconclusive_and_keep_the_baseline() {
        let mut monitor = monitor(2);
        let mut customer = MonitoredCustomer::new("quiet", DeploymentType::SqlDb, window(5.0, 96));
        customer.baseline_sku = Some("DB_GP_6".into());
        monitor.watch(customer);
        // No samples at all, and the baseline's dimensions with no samples.
        for (month, empty) in [("Jun-23", PerfHistory::new()), ("Jul-23", window(5.0, 0))] {
            monitor.observe("quiet", empty);
            let pass = monitor.tick(month);
            assert_eq!(pass.report.inconclusive, 1, "{month}");
            assert_eq!(pass.outcomes[0].verdict, DriftVerdict::Inconclusive);
            assert!(pass.outcomes[0].error.as_ref().unwrap().contains("empty"));
            assert!(pass.reassessments.is_empty(), "nothing re-assesses on zero samples");
            let kept = &monitor.watched[0].customer;
            assert_eq!(kept.baseline.len(), 96, "the baseline stays");
            assert_eq!(kept.baseline_sku.as_deref(), Some("DB_GP_6"), "the standing SKU stays");
        }
        // The baseline still judges: the same workload again is stable.
        monitor.observe("quiet", window(5.0, 96));
        assert_eq!(monitor.tick("Aug-23").outcomes[0].verdict, DriftVerdict::Stable);
    }

    #[test]
    fn reassessments_keep_the_customers_confidence_settings() {
        use doppler_core::ConfidenceConfig;
        let mut monitor = monitor(2);
        let mut customer = MonitoredCustomer::new("conf", DeploymentType::SqlDb, window(0.5, 96));
        customer.confidence = Some(ConfidenceConfig { replicates: 8, window_samples: 48, seed: 7 });
        monitor.watch(customer);
        monitor.observe("conf", window(7.0, 96));
        let pass = monitor.tick("Oct-22");
        assert_eq!(pass.reassessments.len(), 1);
        let rec = &pass.reassessments[0].outcome.as_ref().unwrap().recommendation;
        assert!(rec.confidence.is_some(), "re-assessment keeps computing confidence");
    }

    #[test]
    fn unroutable_customers_are_inconclusive_not_fatal() {
        // Only SqlDb is routed; SqlMi checks have nowhere to go.
        let registry = EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production()));
        let assessor =
            FleetAssessor::over_registry(Arc::new(registry), FleetConfig::with_workers(1))
                .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)));
        let mut monitor = DriftMonitor::new(assessor);
        monitor.watch(MonitoredCustomer::new("mi", DeploymentType::SqlMi, window(0.5, 48)));
        monitor.observe("mi", window(0.5, 48));
        let pass = monitor.tick("Feb-22");
        assert_eq!(pass.report.inconclusive, 1);
        assert_eq!(pass.outcomes[0].verdict, DriftVerdict::Inconclusive);
        assert!(pass.outcomes[0].error.as_ref().unwrap().contains("SqlMi"));
        assert!(pass.reassessments.is_empty());
    }

    #[test]
    fn keyed_customers_attribute_to_their_region() {
        use doppler_catalog::Region;
        let provider = InMemoryCatalogProvider::production().with_region(
            Region::new("westeurope"),
            CatalogVersion::INITIAL,
            &CatalogSpec::default(),
            1.08,
        );
        let registry = Arc::new(EngineRegistry::new(Arc::new(provider)));
        let assessor = FleetAssessor::over_registry(registry, FleetConfig::with_workers(2))
            .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)));
        let mut monitor = DriftMonitor::new(assessor);
        let west =
            CatalogKey::production(DeploymentType::SqlDb).in_region(Region::new("westeurope"));
        monitor.watch(
            MonitoredCustomer::new("west-grower", DeploymentType::SqlDb, window(0.5, 48))
                .with_catalog_key(west),
        );
        monitor.watch(MonitoredCustomer::new(
            "global-steady",
            DeploymentType::SqlDb,
            window(0.5, 48),
        ));
        monitor.observe("west-grower", window(7.0, 48));
        monitor.observe("global-steady", window(0.5, 48));
        let pass = monitor.tick("Mar-22");
        assert_eq!(pass.report.drifted, 1);
        assert_eq!(pass.report.regions.len(), 2);
        let west_row =
            pass.report.regions.iter().find(|r| r.key == Region::new("westeurope")).unwrap();
        assert_eq!((west_row.checked, west_row.drifted), (1, 1));
        let global_row = pass.report.regions.iter().find(|r| r.key == Region::global()).unwrap();
        assert_eq!((global_row.checked, global_row.stable), (1, 1));
        // The drifted West Europe customer re-assessed against its own
        // (8 % dearer) catalog.
        assert_eq!(pass.reassessments.len(), 1);
        let rec = &pass.reassessments[0].outcome.as_ref().unwrap().recommendation;
        assert!(rec.monthly_cost.unwrap() > 0.0);
        // And the report's cost delta is priced in-region too.
        assert!(west_row.cost_delta > 0.0);
        assert!((pass.report.total_cost_delta - west_row.cost_delta).abs() < 1e-9);
    }

    #[test]
    fn watch_assessment_seeds_the_monitor_from_a_fleet_run() {
        let assessor = FleetAssessor::production(FleetConfig::with_workers(2));
        let fleet: Vec<FleetRequest> = (0..4)
            .map(|i| {
                FleetRequest::new(
                    DeploymentType::SqlDb,
                    AssessmentRequest::from_history(format!("c{i}"), window(0.5, 48), vec![], None),
                )
            })
            .collect();
        let out = assessor.assess(fleet.clone());
        let mut monitor = monitor(2);
        for (request, result) in fleet.iter().zip(&out.results) {
            assert!(monitor.watch_assessment(request, result));
        }
        assert_eq!(monitor.watched(), 4);
        // The registered baseline carries the standing recommendation.
        monitor.observe("c0", window(7.0, 48));
        let pass = monitor.tick("Apr-22");
        assert_eq!(pass.report.drifted, 1);
        assert_eq!(pass.outcomes[0].before_sku.as_deref(), Some("DB_GP_2"));
    }

    #[test]
    fn report_rows_sum_to_totals_and_render_mentions_sections() {
        let mut monitor = monitor(4);
        for i in 0..6 {
            monitor.watch(MonitoredCustomer::new(
                format!("c{i}"),
                DeploymentType::SqlDb,
                window(0.5, 48),
            ));
            monitor.observe(&format!("c{i}"), window(if i % 3 == 0 { 7.0 } else { 0.5 }, 48));
        }
        let pass = monitor.tick("May-22");
        let report = &pass.report;
        assert_eq!(report.checked, 6);
        assert_eq!(report.drifted + report.stable + report.inconclusive, report.checked);
        assert_eq!(report.severity.iter().sum::<usize>(), report.checked);
        let region_checked: usize = report.regions.iter().map(|r| r.checked).sum();
        assert_eq!(region_checked, report.checked);
        let deployment_drifted: usize = report.deployments.iter().map(|d| d.drifted).sum();
        assert_eq!(deployment_drifted, report.drifted);
        assert_eq!(report.drifted_customers.len(), report.drifted);
        let text = report.render();
        assert!(text.contains("Fleet Drift Report (May-22)"), "{text}");
        assert!(text.contains("Severity"), "{text}");
        assert!(text.contains("Drifted"), "{text}");
        assert!(text.contains("re-recommendation cost delta"), "{text}");
    }

    #[test]
    fn catalog_roll_reprices_pinned_customers_and_retires_the_old_engine() {
        use doppler_catalog::{PriceFeed, RefreshableCatalogProvider, Region};
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
        let assessor =
            FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(2))
                .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)));
        let mut monitor = DriftMonitor::new(assessor);

        let west = Region::new("westeurope");
        let old_key = CatalogKey::production(DeploymentType::SqlDb).in_region(west.clone());
        let mut west_a = MonitoredCustomer::new("west-a", DeploymentType::SqlDb, window(0.5, 48))
            .with_catalog_key(old_key.clone());
        west_a.baseline_sku = Some("DB_GP_2".into());
        west_a.baseline_cost = Some(100.0);
        monitor.watch(west_a);
        monitor.watch(MonitoredCustomer::new("global-b", DeploymentType::SqlDb, window(0.5, 48)));
        monitor.watch(
            MonitoredCustomer::new("west-c", DeploymentType::SqlDb, window(0.5, 48))
                .with_catalog_key(old_key.clone()),
        );
        // Train the old key's engine so there is something to retire.
        monitor.observe("west-a", window(0.5, 48));
        let pass = monitor.tick("Oct-22");
        assert_eq!(pass.report.stable, 1);
        assert_eq!(pass.report.catalog_rolls, 0);
        let priced_at_v1 = registry
            .get_or_train(
                &old_key,
                &doppler_core::EngineTemplate::production(),
                &doppler_core::TrainingSet::empty(),
            )
            .unwrap()
            .recommend(&window(0.5, 48), None)
            .monthly_cost
            .unwrap();

        // A 10 % price cut lands in West Europe and the region rolls.
        let rolls = provider.apply_feed(&west, PriceFeed::Multiplier(0.9)).unwrap();
        let roll = rolls.iter().find(|r| r.old_key == old_key).expect("DB key rolled");
        let outcome = monitor.on_catalog_roll("Nov-22", &roll.old_key, &roll.new_key);

        assert_eq!(outcome.retired_engines, 1, "the v1 engine was tombstoned");
        assert_eq!(outcome.repriced.len(), 2, "both pinned customers re-priced, watch order");
        assert_eq!(&*outcome.repriced[0].instance_name, "west-a");
        assert_eq!(&*outcome.repriced[1].instance_name, "west-c");
        for result in &outcome.repriced {
            let rec = &result.outcome.as_ref().unwrap().recommendation;
            assert_eq!(rec.sku_id.as_deref(), Some("DB_GP_2"), "same workload, same shape");
            let cost = rec.monthly_cost.unwrap();
            assert!((cost - priced_at_v1 * 0.9).abs() < 1e-6, "{cost} vs {priced_at_v1}");
        }

        // The registry refused to retrain the old key and trained the new
        // one exactly once.
        let stats = registry.stats();
        assert_eq!(stats.retirements, 1);
        assert!(matches!(
            registry.get_or_train(
                &old_key,
                &doppler_core::EngineTemplate::production(),
                &doppler_core::TrainingSet::empty(),
            ),
            Err(doppler_core::RegistryError::Retired(_))
        ));

        // The ledger and the next pass's report surface the roll.
        assert_eq!(monitor.ledger().month("Nov-22").unwrap().catalog_rolls, 1);
        assert_eq!(monitor.ledger().month("Nov-22").unwrap().customers_repriced, 2);
        monitor.observe("global-b", window(0.5, 48));
        let pass = monitor.tick("Nov-22");
        assert_eq!(pass.report.catalog_rolls, 1);
        assert!(pass.report.render().contains("catalog rolls since last pass: 1"));
        let next = monitor.tick("Dec-22");
        assert_eq!(next.report.catalog_rolls, 0, "rolls are per-pass, not cumulative");

        // The service's own assessment report counted the month-tagged
        // priority re-assessments.
        let report = monitor.shutdown();
        let nov = report.adoption.month("Nov-22").unwrap();
        assert_eq!(nov.unique_instances, 2, "the two priority re-assessments");
    }

    #[test]
    fn catalog_roll_with_no_pinned_customers_still_logs() {
        let mut monitor = monitor(1);
        let old = CatalogKey::production(DeploymentType::SqlDb);
        let new = old.clone().at_version(CatalogVersion(2));
        let outcome = monitor.on_catalog_roll("Jan-23", &old, &new);
        assert_eq!(outcome.retired_engines, 0, "no engine was trained for the rolled key");
        assert!(outcome.repriced.is_empty());
        assert_eq!(monitor.ledger().month("Jan-23").unwrap().catalog_rolls, 1);
        assert_eq!(monitor.ledger().month("Jan-23").unwrap().customers_repriced, 0);
    }

    /// A monitor over a registry-backed service with `pinned` customers
    /// pinned to the initial West Europe DB key, for the roll-dispatch
    /// tests. Returns the monitor, the provider, and the pinned key.
    fn pinned_monitor(
        pinned: usize,
    ) -> (DriftMonitor, Arc<doppler_catalog::RefreshableCatalogProvider>, CatalogKey) {
        use doppler_catalog::{RefreshableCatalogProvider, Region};
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
        let assessor = FleetAssessor::over_registry(registry, FleetConfig::with_workers(2))
            .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)));
        let mut monitor = DriftMonitor::new(assessor);
        let key =
            CatalogKey::production(DeploymentType::SqlDb).in_region(Region::new("westeurope"));
        for i in 0..pinned {
            monitor.watch(
                MonitoredCustomer::new(format!("pin-{i}"), DeploymentType::SqlDb, window(0.5, 48))
                    .with_catalog_key(key.clone()),
            );
        }
        (monitor, provider, key)
    }

    #[test]
    fn twice_replayed_change_log_reprices_each_customer_exactly_once() {
        use doppler_catalog::{PriceFeed, Region};
        let (mut monitor, provider, key) = pinned_monitor(2);
        let west = Region::new("westeurope");

        // Nothing in the log yet: dispatch is a no-op.
        assert!(monitor.dispatch_rolls("Oct-22", &provider).is_empty());
        assert_eq!(monitor.roll_cursor(), 0);

        // A price cut rolls the region (both deployments). The first
        // dispatch re-prices each pinned customer exactly once.
        provider.apply_feed(&west, PriceFeed::Multiplier(0.9)).unwrap();
        let outcomes = monitor.dispatch_rolls("Nov-22", &provider);
        assert_eq!(outcomes.len(), 2, "DB and MI keys of the region rolled together");
        assert_eq!(monitor.roll_cursor(), provider.rolls());
        let db_roll = outcomes.iter().find(|o| o.old_key == key).expect("DB key rolled");
        assert_eq!(db_roll.repriced.len(), 2);
        assert_eq!(db_roll.reprice_failures, 0);
        assert_eq!(monitor.ledger().month("Nov-22").unwrap().customers_repriced, 2);

        // The regression: replaying the (unchanged) log again — the exact
        // call pattern that used to double-dispatch when operators fed
        // `change_log()` back into `on_catalog_roll` — dispatches nothing.
        assert!(monitor.dispatch_rolls("Nov-22", &provider).is_empty());
        assert!(monitor.dispatch_rolls("Nov-22", &provider).is_empty());
        assert_eq!(
            monitor.ledger().month("Nov-22").unwrap().customers_repriced,
            2,
            "a twice-replayed log re-prices each customer exactly once"
        );
        assert_eq!(monitor.ledger().month("Nov-22").unwrap().catalog_rolls, 2);

        // A *new* roll after the cursor still dispatches (exactly once).
        provider.apply_feed(&west, PriceFeed::Multiplier(0.8)).unwrap();
        let outcomes = monitor.dispatch_rolls("Dec-22", &provider);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(monitor.ledger().month("Dec-22").unwrap().customers_repriced, 2);
        assert!(monitor.dispatch_rolls("Dec-22", &provider).is_empty());
        assert_eq!(monitor.ledger().month("Dec-22").unwrap().customers_repriced, 2);
    }

    #[test]
    fn refused_reprices_surface_as_failed_results_not_silent_drops() {
        use doppler_catalog::PriceFeed;
        let (mut monitor, provider, key) = pinned_monitor(2);
        provider
            .apply_feed(&doppler_catalog::Region::new("westeurope"), PriceFeed::Multiplier(0.9))
            .unwrap();
        let roll = provider.change_log().into_iter().find(|r| r.old_key == key).unwrap();

        // The service closes under the monitor (operator shutdown racing a
        // feed). Every pinned customer's re-price submit is refused — the
        // old behavior dropped them from the outcome entirely.
        monitor.service().close();
        let outcome = monitor.on_catalog_roll("Jan-23", &roll.old_key, &roll.new_key);
        assert_eq!(outcome.repriced.len(), 2, "refused re-prices still surface, in watch order");
        assert_eq!(outcome.reprice_failures, 2);
        for (i, result) in outcome.repriced.iter().enumerate() {
            assert_eq!(&*result.instance_name, &format!("pin-{i}"));
            assert_eq!(result.month.as_deref(), Some("Jan-23"));
            let err = result.outcome.as_ref().unwrap_err();
            assert!(err.message.contains("re-price refused"), "{}", err.message);
        }
        // The ledger only counts *successful* re-prices, but the roll is
        // recorded (the failure count rides the outcome).
        assert_eq!(monitor.ledger().month("Jan-23").unwrap().catalog_rolls, 1);
        assert_eq!(monitor.ledger().month("Jan-23").unwrap().customers_repriced, 0);
    }

    #[test]
    fn rewatching_replaces_the_baseline_and_keeps_pass_order() {
        let mut monitor = monitor(2);
        let mut a = MonitoredCustomer::new("a", DeploymentType::SqlDb, window(0.5, 96));
        a.baseline_sku = Some("DB_GP_2".into());
        a.baseline_cost = Some(100.0);
        monitor.watch(a);
        monitor.watch(MonitoredCustomer::new("b", DeploymentType::SqlDb, window(0.5, 96)));

        // Re-watch "a" with a *grown* baseline: the slot must be replaced
        // in place — same pass order, no stale duplicate left behind.
        monitor.watch(MonitoredCustomer::new("a", DeploymentType::SqlDb, window(7.0, 96)));
        assert_eq!(monitor.watched(), 2, "no duplicate entry");
        assert_eq!(monitor.watched_names().collect::<Vec<_>>(), ["a", "b"]);

        // Drift verdicts prove the *new* baseline is in force: the same
        // 7.0-CPU window that would read as drifted against the old
        // baseline is stable against the replacement.
        monitor.observe("a", window(7.0, 96));
        monitor.observe("b", window(0.5, 96));
        let pass = monitor.tick("Feb-23");
        assert_eq!(pass.outcomes[0].customer, "a", "pass order is registration order");
        assert_eq!(pass.outcomes[0].verdict, DriftVerdict::Stable, "new baseline in force");
        assert_eq!(pass.outcomes[1].customer, "b");
    }

    #[test]
    fn unwatch_retires_the_entry_and_keeps_the_remaining_order() {
        let mut monitor = monitor(2);
        for name in ["a", "b", "c"] {
            monitor.watch(MonitoredCustomer::new(name, DeploymentType::SqlDb, window(0.5, 48)));
        }
        monitor.observe("b", window(0.5, 48));
        assert!(monitor.unwatch("b"));
        assert!(!monitor.unwatch("b"), "already gone");
        assert!(!monitor.unwatch("stranger"));
        assert_eq!(monitor.watched(), 2);
        assert_eq!(monitor.watched_names().collect::<Vec<_>>(), ["a", "c"]);
        assert_eq!(monitor.observed(), 0, "the retired entry took its staged window with it");
        assert!(!monitor.observe("b", window(0.5, 48)), "retired names are unknown");

        // The survivors' slots re-indexed: both still observable, pass
        // order preserved.
        monitor.observe("a", window(0.5, 48));
        monitor.observe("c", window(0.5, 48));
        let pass = monitor.tick("Mar-23");
        assert_eq!(pass.outcomes.len(), 2);
        assert_eq!(pass.outcomes[0].customer, "a");
        assert_eq!(pass.outcomes[1].customer, "c");

        // Re-watching a retired name registers fresh, at the end.
        monitor.watch(MonitoredCustomer::new("b", DeploymentType::SqlDb, window(0.5, 48)));
        assert_eq!(monitor.watched_names().collect::<Vec<_>>(), ["a", "c", "b"]);
    }
}
