//! Fleet-level aggregation: what a migration programme manager looks at
//! after assessing thousands of instances — the total bill, the SKU mix,
//! how confident the engine was, and which instances need human attention.
//!
//! Everything here is computed from the order-stable result vector, so a
//! report is bit-for-bit identical for any worker count, and
//! `FleetReport: PartialEq` makes that property directly testable.

use std::sync::Arc;

use doppler_catalog::DeploymentType;
use doppler_core::{CurveShape, Recommendation};
use doppler_dma::{AdoptionLedger, MonthlyAdoption};
use doppler_obs::ObsSnapshot;
use doppler_stats::ExactSum;

use crate::assessor::FleetResult;

/// Recommendation variants DMA would surface for one assessed instance:
/// one per curve point at full score, at least one — the unit the paper's
/// Table 1 counts as "recommendations generated". The counting rule
/// behind the fleet report's adoption ledger.
pub fn eligible_recommendations(recommendation: &Recommendation) -> usize {
    recommendation.curve.points().iter().filter(|p| p.score >= 1.0 - 1e-9).count().max(1)
}

/// One SKU's share of the fleet.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SkuMixRow {
    pub sku_id: String,
    pub count: usize,
    /// Sum of the monthly cost over instances recommended this SKU.
    pub total_monthly_cost: f64,
}

/// One curve shape's share of the fleet (§5.1's Figure 9 breakdown, now
/// observable over any assessed fleet).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ShapeMixRow {
    pub shape: CurveShape,
    pub count: usize,
}

/// Confidence-score distribution over the instances that carried one.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ConfidenceSummary {
    pub scored: usize,
    pub mean: f64,
    pub min: f64,
    /// Counts in `[0, .5)`, `[.5, .75)`, `[.75, .9)`, `[.9, 1)`, `[1]`.
    pub buckets: [usize; 5],
}

/// Per-deployment-target breakdown.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DeploymentMixRow {
    pub deployment: DeploymentType,
    pub fleet: usize,
    pub recommended: usize,
    pub unplaceable: usize,
    pub failed: usize,
    pub total_monthly_cost: f64,
}

/// One failed instance: name plus the error that stopped it.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FailureRow {
    pub instance_name: String,
    pub message: String,
}

/// The slice of a [`FleetResult`] the aggregator actually reads — a few
/// scalars and short strings, not the price-performance curve the full
/// result carries. Every fold goes through a digest, so the unit tests
/// can fold synthetic digests through the same arithmetic.
#[derive(Debug, Clone, PartialEq)]
struct ResultDigest {
    /// Submission index. The report sorts attention lists and adoption
    /// months by it, so any fold order reproduces the sequential
    /// submission order bit for bit.
    index: usize,
    instance_name: Arc<str>,
    deployment: DeploymentType,
    /// The adoption-ledger month the request carried, if any.
    month: Option<Arc<str>>,
    outcome: DigestOutcome,
}

/// Outcome projection inside a [`ResultDigest`].
#[derive(Debug, Clone, PartialEq)]
enum DigestOutcome {
    /// Assessment errored or panicked.
    Failed { message: String },
    /// Assessed; `sku` is `Some((sku_id, monthly_cost))` when placed.
    Assessed {
        databases_assessed: usize,
        shape: CurveShape,
        confidence: Option<f64>,
        sku: Option<(Arc<str>, f64)>,
        /// Recommendation variants DMA would surface for this instance:
        /// one per curve point at full score, at least one — the unit the
        /// paper's Table 1 counts as "recommendations generated".
        eligible_recommendations: usize,
    },
}

impl ResultDigest {
    fn of(result: &FleetResult) -> ResultDigest {
        let outcome = match &result.outcome {
            Err(e) => DigestOutcome::Failed { message: e.message.clone() },
            Ok(r) => {
                let eligible = eligible_recommendations(&r.recommendation);
                DigestOutcome::Assessed {
                    databases_assessed: r.databases_assessed,
                    shape: r.recommendation.shape,
                    confidence: r.recommendation.confidence,
                    sku: r.recommendation.sku_id.as_deref().map(|sku_id| {
                        (Arc::from(sku_id), r.recommendation.monthly_cost.unwrap_or(0.0))
                    }),
                    eligible_recommendations: eligible,
                }
            }
        };
        ResultDigest {
            index: result.index,
            // `FleetResult` already holds interned `Arc<str>` strings, so a
            // digest costs refcount bumps, not fresh heap strings.
            instance_name: result.instance_name.clone(),
            deployment: result.deployment,
            month: result.month.clone(),
            outcome,
        }
    }
}

/// Append-only list stored as shared 1024-element chunks plus a mutable
/// tail. `Clone` bumps the chunk refcounts and copies only the tail, so a
/// snapshot of a 100k-row attention list costs O(tail + chunk count) — the
/// fix for `report_snapshot()` deep-cloning O(fleet) state under the
/// progress lock.
#[derive(Debug, Clone)]
struct ChunkedList<T> {
    full: Vec<Arc<Vec<T>>>,
    tail: Vec<T>,
}

const CHUNK: usize = 1024;

impl<T> ChunkedList<T> {
    fn new() -> ChunkedList<T> {
        ChunkedList { full: Vec::new(), tail: Vec::new() }
    }

    fn len(&self) -> usize {
        self.full.len() * CHUNK + self.tail.len()
    }

    fn push(&mut self, item: T) {
        self.tail.push(item);
        if self.tail.len() == CHUNK {
            self.full.push(Arc::new(std::mem::take(&mut self.tail)));
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.full.iter().flat_map(|chunk| chunk.iter()).chain(self.tail.iter())
    }
}

/// The aggregate view of one fleet assessment run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FleetReport {
    pub fleet_size: usize,
    /// Instances with a concrete SKU recommendation.
    pub recommended: usize,
    /// Instances assessed successfully but with no feasible SKU (e.g. an
    /// MI data file larger than any placement).
    pub unplaceable: usize,
    /// Instances whose assessment errored or panicked.
    pub failed: usize,
    /// Databases covered across all successfully assessed instances.
    pub databases_assessed: usize,
    /// Total monthly bill over all recommended instances.
    pub total_monthly_cost: f64,
    /// Mean monthly cost per recommended instance.
    pub mean_monthly_cost: Option<f64>,
    /// SKU histogram, descending by count then ascending by SKU id.
    pub sku_mix: Vec<SkuMixRow>,
    /// Curve-shape histogram in `Flat`, `Simple`, `Complex` order.
    pub shape_mix: Vec<ShapeMixRow>,
    /// Present when at least one instance carried a confidence score.
    pub confidence: Option<ConfidenceSummary>,
    /// Per-deployment rows in `SqlDb`, `SqlMi` order (present targets only).
    pub deployments: Vec<DeploymentMixRow>,
    /// Names of the unplaceable instances, in submission order.
    pub unplaceable_instances: Vec<String>,
    /// Failure bucket, in submission order.
    pub failures: Vec<FailureRow>,
    /// Table 1 adoption counters by month, over the requests that carried
    /// a [`FleetRequest::with_month`](crate::FleetRequest::with_month)
    /// label. Empty when the fleet was untagged.
    pub adoption: AdoptionLedger,
    /// Per-month simulation trace, present when the report came out of a
    /// [`FleetScheduler`](crate::FleetScheduler) run
    /// ([`FleetScheduler::shutdown`](crate::FleetScheduler::shutdown)).
    /// Operator-cranked runs leave it `None`.
    pub schedule: Option<crate::scheduler::ScheduleSummary>,
}

/// One SKU's accumulating share (internal: exact cost sum + interned id).
#[derive(Debug, Clone)]
struct SkuAgg {
    sku_id: Arc<str>,
    count: usize,
    total_monthly_cost: ExactSum,
}

/// One deployment target's accumulating row (internal: exact cost sum).
#[derive(Debug, Clone)]
struct DeploymentAgg {
    deployment: DeploymentType,
    fleet: usize,
    recommended: usize,
    unplaceable: usize,
    failed: usize,
    total_monthly_cost: ExactSum,
}

/// One adoption month's accumulating row. `first_index` is the smallest
/// submission index that recorded into the month, so a fold in completion
/// order can reconstruct the sequential first-seen month order.
#[derive(Debug, Clone)]
struct MonthAgg {
    label: Arc<str>,
    first_index: usize,
    row: MonthlyAdoption,
}

/// Streaming accumulator behind [`FleetReport`]: accepts results one at a
/// time, in any order, so the service can aggregate each result as it
/// completes without buffering the whole fleet. State is O(distinct SKUs + attention
/// buckets), not O(fleet).
///
/// Cost and confidence totals accumulate in
/// [`ExactSum`] superaccumulators, so sums are exactly rounded and
/// independent of fold order — the property that lets workers fold
/// results as they complete and still report bit-for-bit what a
/// sequential fold reports.
///
/// `Clone` exists so a long-lived service can copy an accumulator out from
/// under its lock for a mid-run report while results keep streaming in;
/// attention lists are chunk-shared, so a clone is cheap even at 100k
/// accepted results.
#[derive(Debug, Clone)]
pub struct FleetAggregator {
    fleet_size: usize,
    recommended: usize,
    databases_assessed: usize,
    total_monthly_cost: ExactSum,
    sku_mix: Vec<SkuAgg>,
    shape_counts: [usize; 3],
    confidence_scored: usize,
    confidence_sum: ExactSum,
    confidence_min: f64,
    confidence_buckets: [usize; 5],
    deployments: Vec<DeploymentAgg>,
    unplaceable_instances: ChunkedList<(usize, Arc<str>)>,
    failures: ChunkedList<(usize, Arc<str>, String)>,
    adoption: Vec<MonthAgg>,
}

impl Default for FleetAggregator {
    fn default() -> FleetAggregator {
        FleetAggregator::new()
    }
}

impl FleetAggregator {
    pub fn new() -> FleetAggregator {
        FleetAggregator {
            fleet_size: 0,
            recommended: 0,
            databases_assessed: 0,
            total_monthly_cost: ExactSum::new(),
            sku_mix: Vec::new(),
            shape_counts: [0; 3],
            confidence_scored: 0,
            confidence_sum: ExactSum::new(),
            confidence_min: f64::INFINITY,
            confidence_buckets: [0; 5],
            deployments: Vec::new(),
            unplaceable_instances: ChunkedList::new(),
            failures: ChunkedList::new(),
            adoption: Vec::new(),
        }
    }

    /// Fold one result in, in any order: sums are exact and
    /// order-invariant, and attention lists and adoption months are keyed
    /// by the result's submission index, so the finished report
    /// depends only on the set of results accepted.
    pub fn accept(&mut self, r: &FleetResult) {
        self.accept_digest(&ResultDigest::of(r));
    }

    /// Fold one digested result in; like
    /// [`accept`](FleetAggregator::accept), order does not matter.
    fn accept_digest(&mut self, r: &ResultDigest) {
        self.fleet_size += 1;
        let deployment_row = {
            let d = r.deployment;
            match self.deployments.iter().position(|row| row.deployment == d) {
                Some(i) => &mut self.deployments[i],
                None => {
                    self.deployments.push(DeploymentAgg {
                        deployment: d,
                        fleet: 0,
                        recommended: 0,
                        unplaceable: 0,
                        failed: 0,
                        total_monthly_cost: ExactSum::new(),
                    });
                    self.deployments.last_mut().expect("just pushed")
                }
            }
        };
        deployment_row.fleet += 1;
        match &r.outcome {
            DigestOutcome::Failed { message } => {
                deployment_row.failed += 1;
                self.failures.push((r.index, r.instance_name.clone(), message.clone()));
            }
            DigestOutcome::Assessed {
                databases_assessed,
                shape,
                confidence,
                sku,
                eligible_recommendations,
            } => {
                if let Some(month) = &r.month {
                    let row = match self.adoption.iter_mut().find(|m| *m.label == **month) {
                        Some(m) => {
                            m.first_index = m.first_index.min(r.index);
                            &mut m.row
                        }
                        None => {
                            self.adoption.push(MonthAgg {
                                label: month.clone(),
                                first_index: r.index,
                                row: MonthlyAdoption::default(),
                            });
                            &mut self.adoption.last_mut().expect("just pushed").row
                        }
                    };
                    row.unique_instances += 1;
                    row.unique_databases += databases_assessed;
                    row.recommendations_generated += eligible_recommendations;
                }
                self.databases_assessed += databases_assessed;
                self.shape_counts[match shape {
                    CurveShape::Flat => 0,
                    CurveShape::Simple => 1,
                    CurveShape::Complex => 2,
                }] += 1;
                if let Some(c) = *confidence {
                    self.confidence_scored += 1;
                    self.confidence_sum.add(c);
                    self.confidence_min = self.confidence_min.min(c);
                    self.confidence_buckets[if c >= 1.0 {
                        4
                    } else if c >= 0.9 {
                        3
                    } else if c >= 0.75 {
                        2
                    } else if c >= 0.5 {
                        1
                    } else {
                        0
                    }] += 1;
                }
                match sku {
                    Some((sku_id, cost)) => {
                        self.recommended += 1;
                        deployment_row.recommended += 1;
                        let cost = *cost;
                        self.total_monthly_cost.add(cost);
                        deployment_row.total_monthly_cost.add(cost);
                        match self.sku_mix.iter_mut().find(|row| row.sku_id == *sku_id) {
                            Some(row) => {
                                row.count += 1;
                                row.total_monthly_cost.add(cost);
                            }
                            None => {
                                let mut sum = ExactSum::new();
                                sum.add(cost);
                                self.sku_mix.push(SkuAgg {
                                    sku_id: sku_id.clone(),
                                    count: 1,
                                    total_monthly_cost: sum,
                                });
                            }
                        }
                    }
                    None => {
                        deployment_row.unplaceable += 1;
                        self.unplaceable_instances.push((r.index, r.instance_name.clone()));
                    }
                }
            }
        }
    }

    /// Results folded in so far.
    pub fn accepted(&self) -> usize {
        self.fleet_size
    }

    /// Build the [`FleetReport`] over the results accepted so far, by
    /// reference and without cloning the accumulated maps first:
    /// histograms sort into their canonical orders, attention lists into
    /// submission order, and the exact sums round once, here.
    /// Strings are materialized only for the report rows actually emitted.
    /// The accumulator stays usable, so this is also the incremental view a
    /// dashboard polls mid-run: the exact report of the results accepted so
    /// far, whatever order they arrived in.
    pub fn finish(&self) -> FleetReport {
        let mut sku_mix: Vec<SkuMixRow> = self
            .sku_mix
            .iter()
            .map(|row| SkuMixRow {
                sku_id: row.sku_id.to_string(),
                count: row.count,
                total_monthly_cost: row.total_monthly_cost.value(),
            })
            .collect();
        sku_mix.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.sku_id.cmp(&b.sku_id)));
        let mut deployments: Vec<DeploymentMixRow> = self
            .deployments
            .iter()
            .map(|row| DeploymentMixRow {
                deployment: row.deployment,
                fleet: row.fleet,
                recommended: row.recommended,
                unplaceable: row.unplaceable,
                failed: row.failed,
                total_monthly_cost: row.total_monthly_cost.value(),
            })
            .collect();
        deployments.sort_by_key(|row| match row.deployment {
            DeploymentType::SqlDb => 0,
            DeploymentType::SqlMi => 1,
        });
        let shape_mix = [CurveShape::Flat, CurveShape::Simple, CurveShape::Complex]
            .into_iter()
            .zip(self.shape_counts)
            .map(|(shape, count)| ShapeMixRow { shape, count })
            .collect();
        let confidence = (self.confidence_scored > 0).then(|| ConfidenceSummary {
            scored: self.confidence_scored,
            mean: self.confidence_sum.value() / self.confidence_scored as f64,
            min: self.confidence_min,
            buckets: self.confidence_buckets,
        });
        let mut unplaceable: Vec<&(usize, Arc<str>)> = self.unplaceable_instances.iter().collect();
        unplaceable.sort_by_key(|(index, _)| *index);
        let unplaceable_instances: Vec<String> =
            unplaceable.into_iter().map(|(_, name)| name.to_string()).collect();
        let mut failed: Vec<&(usize, Arc<str>, String)> = self.failures.iter().collect();
        failed.sort_by_key(|(index, _, _)| *index);
        let failures: Vec<FailureRow> = failed
            .into_iter()
            .map(|(_, name, message)| FailureRow {
                instance_name: name.to_string(),
                message: message.clone(),
            })
            .collect();
        let mut months: Vec<&MonthAgg> = self.adoption.iter().collect();
        months.sort_by_key(|m| m.first_index);
        let mut adoption = AdoptionLedger::default();
        for m in months {
            adoption.add_row(&m.label, &m.row);
        }
        let total_monthly_cost = self.total_monthly_cost.value();
        FleetReport {
            fleet_size: self.fleet_size,
            recommended: self.recommended,
            unplaceable: self.unplaceable_instances.len(),
            failed: self.failures.len(),
            databases_assessed: self.databases_assessed,
            total_monthly_cost,
            mean_monthly_cost: (self.recommended > 0)
                .then(|| total_monthly_cost / self.recommended as f64),
            sku_mix,
            shape_mix,
            confidence,
            deployments,
            unplaceable_instances,
            failures,
            adoption,
            schedule: None,
        }
    }
}

impl FleetReport {
    /// Aggregate a result vector, in any order. Sums are exact, so equal
    /// result sets produce bit-for-bit equal reports regardless of order or
    /// of how many workers ran.
    pub fn from_results(results: &[FleetResult]) -> FleetReport {
        let mut agg = FleetAggregator::new();
        for r in results {
            agg.accept(r);
        }
        agg.finish()
    }

    /// Render the report as a terminal dashboard (the fleet-scale analogue
    /// of the per-instance Resource Use report).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("=== Fleet Assessment Report ===\n");
        out.push_str(&format!(
            "instances: {:>7}   recommended: {:>7}   unplaceable: {:>5}   failed: {:>5}\n",
            self.fleet_size, self.recommended, self.unplaceable, self.failed
        ));
        out.push_str(&format!("databases assessed: {}\n", self.databases_assessed));
        out.push_str(&format!(
            "total monthly cost: ${:.2}{}\n",
            self.total_monthly_cost,
            match self.mean_monthly_cost {
                Some(mean) => format!("   (mean ${mean:.2}/instance)"),
                None => String::new(),
            }
        ));

        if !self.sku_mix.is_empty() {
            out.push_str("\n--- SKU mix ---\n");
            let max_count = self.sku_mix.iter().map(|r| r.count).max().unwrap_or(1).max(1);
            for row in &self.sku_mix {
                out.push_str(&bar_row(
                    &row.sku_id,
                    row.count,
                    max_count,
                    self.recommended,
                    &format!("${:.2}/mo", row.total_monthly_cost),
                ));
            }
        }

        let assessed: usize = self.shape_mix.iter().map(|r| r.count).sum();
        if assessed > 0 {
            out.push_str("\n--- Curve shapes ---\n");
            let max_count = self.shape_mix.iter().map(|r| r.count).max().unwrap_or(1).max(1);
            for row in &self.shape_mix {
                out.push_str(&bar_row(
                    &format!("{:?}", row.shape),
                    row.count,
                    max_count,
                    assessed,
                    "",
                ));
            }
        }

        if let Some(c) = &self.confidence {
            out.push_str("\n--- Confidence ---\n");
            out.push_str(&format!(
                "scored: {}   mean: {:.3}   min: {:.3}\n",
                c.scored, c.mean, c.min
            ));
            let labels = ["[0, .5)", "[.5, .75)", "[.75, .9)", "[.9, 1)", "[1]"];
            let max_count = c.buckets.iter().copied().max().unwrap_or(1).max(1);
            for (label, &count) in labels.iter().zip(&c.buckets) {
                out.push_str(&bar_row(label, count, max_count, c.scored, ""));
            }
        }

        if self.adoption.rows().count() > 0 {
            // Drift and catalog-roll columns appear once any month carries
            // such rows (a ledger fed by the drift monitor / roll hook).
            let monitored = self.adoption.rows().any(|(_, row)| row.drift_checks > 0);
            let rolled = self.adoption.rows().any(|(_, row)| row.catalog_rolls > 0);
            out.push_str("\n--- Adoption (Table 1) ---\n");
            out.push_str(&format!(
                "{:>8} {:>10} {:>10} {:>16}",
                "month", "instances", "databases", "recommendations"
            ));
            if monitored {
                out.push_str(&format!(" {:>12} {:>8}", "drift-checks", "drifted"));
            }
            if rolled {
                out.push_str(&format!(" {:>13} {:>9}", "catalog-rolls", "re-priced"));
            }
            out.push('\n');
            for (month, row) in self.adoption.rows() {
                out.push_str(&format!(
                    "{:>8} {:>10} {:>10} {:>16}",
                    month,
                    row.unique_instances,
                    row.unique_databases,
                    row.recommendations_generated
                ));
                if monitored {
                    out.push_str(&format!(" {:>12} {:>8}", row.drift_checks, row.drift_detected));
                }
                if rolled {
                    out.push_str(&format!(
                        " {:>13} {:>9}",
                        row.catalog_rolls, row.customers_repriced
                    ));
                }
                out.push('\n');
            }
        }

        if let Some(schedule) = &self.schedule {
            out.push_str("\n--- Simulation schedule ---\n");
            out.push_str(&format!(
                "{} simulated month(s) from {}: {} telemetry window(s), {} feed(s), {} roll(s), \
                 {} re-priced ({} failed), {} drift check(s) ({} drifted, {} re-assessed), \
                 {} customer(s) and {} engine(s) retired\n",
                schedule.sim_months(),
                schedule.start,
                schedule.telemetry_windows,
                schedule.feeds_applied,
                schedule.rolls_dispatched,
                schedule.customers_repriced,
                schedule.reprice_failures,
                schedule.drift_checks,
                schedule.drift_detected,
                schedule.reassessments,
                schedule.customers_retired,
                schedule.engines_retired,
            ));
            out.push_str(&format!(
                "{:>8} {:>8} {:>6} {:>6} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
                "month",
                "telem",
                "feeds",
                "rolls",
                "repriced",
                "checked",
                "drifted",
                "reassess",
                "retired",
                "watched"
            ));
            for row in &schedule.months {
                out.push_str(&format!(
                    "{:>8} {:>8} {:>6} {:>6} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
                    row.month,
                    row.telemetry,
                    row.feeds,
                    row.rolls,
                    row.repriced,
                    row.checked,
                    row.drifted,
                    row.reassessed,
                    row.retired_customers,
                    row.watched,
                ));
            }
        }

        if self.deployments.len() > 1 {
            out.push_str("\n--- Deployments ---\n");
            for d in &self.deployments {
                out.push_str(&format!(
                    "{:>12}   fleet {:>6}   recommended {:>6}   unplaceable {:>5}   failed {:>5}   ${:.2}/mo\n",
                    format!("{:?}", d.deployment),
                    d.fleet,
                    d.recommended,
                    d.unplaceable,
                    d.failed,
                    d.total_monthly_cost
                ));
            }
        }

        render_attention_list(&mut out, "Unplaceable", &self.unplaceable_instances);
        let failure_lines: Vec<String> =
            self.failures.iter().map(|f| format!("{}: {}", f.instance_name, f.message)).collect();
        render_attention_list(&mut out, "Failures", &failure_lines);
        out
    }

    /// [`render`](FleetReport::render) with the ops dashboard from an
    /// [`ObsSnapshot`] appended — what an operator tails after a fleet run:
    /// the business numbers first, then where the time went. The report
    /// itself never depends on the snapshot, so determinism suites keep
    /// comparing [`render`](FleetReport::render) output byte-for-byte while
    /// ops tooling layers the (timing-dependent) dashboard on top.
    pub fn render_with_ops(&self, snapshot: &ObsSnapshot) -> String {
        let mut out = self.render();
        out.push('\n');
        out.push_str(&snapshot.render());
        out
    }
}

/// A `label  count |#####     | share%  suffix` row, the idiom the bench
/// crate's `ascii::curve_table` uses for score bars. Shared with the drift
/// report's dashboard.
pub(crate) fn bar_row(
    label: &str,
    count: usize,
    max_count: usize,
    total: usize,
    suffix: &str,
) -> String {
    const WIDTH: usize = 32;
    let bar = (count * WIDTH).div_ceil(max_count).min(WIDTH);
    let share = if total > 0 { 100.0 * count as f64 / total as f64 } else { 0.0 };
    let mut row = format!(
        "{label:>12} {count:>7} |{}{}| {share:>5.1}%",
        "#".repeat(bar),
        " ".repeat(WIDTH - bar),
    );
    if !suffix.is_empty() {
        row.push_str("  ");
        row.push_str(suffix);
    }
    row.push('\n');
    row
}

/// List the first few instances needing attention, with an elision count.
pub(crate) fn render_attention_list(out: &mut String, title: &str, lines: &[String]) {
    const SHOWN: usize = 10;
    if lines.is_empty() {
        return;
    }
    out.push_str(&format!("\n--- {title} ({}) ---\n", lines.len()));
    for line in lines.iter().take(SHOWN) {
        out.push_str(&format!("  {line}\n"));
    }
    if lines.len() > SHOWN {
        out.push_str(&format!("  … and {} more\n", lines.len() - SHOWN));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assessor::{AssessmentError, FleetResult};
    use doppler_catalog::{azure_paas_catalog, CatalogSpec};
    use doppler_core::{DopplerEngine, EngineConfig};
    use doppler_dma::{AssessmentRequest, SkuRecommendationPipeline};
    use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};

    fn result(index: usize, name: &str, cpu: f64) -> FleetResult {
        let engine = DopplerEngine::untrained(
            azure_paas_catalog(&CatalogSpec::default()),
            EngineConfig::production(DeploymentType::SqlDb),
        );
        let pipeline = SkuRecommendationPipeline::new(engine);
        let history = PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 64]))
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; 64]));
        FleetResult {
            index,
            instance_name: name.into(),
            deployment: DeploymentType::SqlDb,
            month: None,
            outcome: Ok(pipeline.assess(&AssessmentRequest::from_history(
                name,
                history,
                vec![],
                None,
            ))),
        }
    }

    fn failed(index: usize, name: &str) -> FleetResult {
        FleetResult {
            index,
            instance_name: name.into(),
            deployment: DeploymentType::SqlMi,
            month: None,
            outcome: Err(AssessmentError { message: "boom".into() }),
        }
    }

    #[test]
    fn counts_and_costs_add_up() {
        let results = vec![result(0, "a", 0.5), result(1, "b", 6.0), failed(2, "c")];
        let report = FleetReport::from_results(&results);
        assert_eq!(report.fleet_size, 3);
        assert_eq!(report.recommended, 2);
        assert_eq!(report.failed, 1);
        assert_eq!(report.unplaceable, 0);
        let mix_total: usize = report.sku_mix.iter().map(|r| r.count).sum();
        assert_eq!(mix_total, 2);
        let mix_cost: f64 = report.sku_mix.iter().map(|r| r.total_monthly_cost).sum();
        assert!((mix_cost - report.total_monthly_cost).abs() < 1e-9);
        assert_eq!(
            report.failures,
            vec![FailureRow { instance_name: "c".into(), message: "boom".into() }]
        );
    }

    #[test]
    fn digest_fold_matches_full_fold() {
        let results = vec![result(0, "a", 0.5), result(1, "b", 6.0), failed(2, "c")];
        let mut by_result = FleetAggregator::new();
        let mut by_digest = FleetAggregator::new();
        for r in &results {
            by_result.accept(r);
            by_digest.accept_digest(&ResultDigest::of(r));
        }
        assert_eq!(by_result.finish(), by_digest.finish());
    }

    #[test]
    fn sku_mix_sorts_by_count_then_id() {
        let results = vec![result(0, "a", 0.5), result(1, "b", 0.5), result(2, "c", 24.0)];
        let report = FleetReport::from_results(&results);
        assert!(report.sku_mix[0].count >= report.sku_mix[1].count);
        assert_eq!(report.sku_mix[0].count, 2);
    }

    #[test]
    fn per_deployment_rows_split_the_fleet() {
        let results = vec![result(0, "a", 0.5), failed(1, "mi")];
        let report = FleetReport::from_results(&results);
        assert_eq!(report.deployments.len(), 2);
        assert_eq!(report.deployments[0].deployment, DeploymentType::SqlDb);
        assert_eq!(report.deployments[0].recommended, 1);
        assert_eq!(report.deployments[1].deployment, DeploymentType::SqlMi);
        assert_eq!(report.deployments[1].failed, 1);
    }

    #[test]
    fn render_mentions_the_key_sections() {
        let results = vec![result(0, "a", 0.5), result(1, "b", 8.0), failed(2, "c")];
        let report = FleetReport::from_results(&results);
        let text = report.render();
        assert!(text.contains("Fleet Assessment Report"));
        assert!(text.contains("SKU mix"));
        assert!(text.contains("Curve shapes"));
        assert!(text.contains("Failures"));
        assert!(text.contains("DB_GP_2"), "{text}");
    }

    #[test]
    fn empty_fleet_renders_without_sections() {
        let report = FleetReport::from_results(&[]);
        let text = report.render();
        assert!(text.contains("instances:       0"));
        assert!(!text.contains("SKU mix"));
        assert!(!text.contains("Adoption"));
        assert_eq!(report.mean_monthly_cost, None);
        assert_eq!(report.confidence, None);
    }

    #[test]
    fn month_tags_fold_into_the_adoption_ledger() {
        let mut results =
            vec![result(0, "a", 0.5), result(1, "b", 0.5), result(2, "c", 6.0), failed(3, "d")];
        results[0].month = Some("Oct-21".into());
        results[1].month = Some("Oct-21".into());
        results[2].month = Some("Nov-21".into());
        results[3].month = Some("Nov-21".into()); // failed: not assessed, not counted
        let report = FleetReport::from_results(&results);
        let oct = report.adoption.month("Oct-21").unwrap();
        assert_eq!(oct.unique_instances, 2);
        assert_eq!(oct.unique_databases, 2);
        // Tiny workloads: every curve point scores 1.0, so DMA surfaces
        // one recommendation per eligible SKU — the Table 1 pattern of
        // recommendations far exceeding instances.
        assert!(oct.recommendations_generated > oct.unique_instances);
        assert_eq!(report.adoption.month("Nov-21").unwrap().unique_instances, 1);
        let text = report.render();
        assert!(text.contains("Adoption (Table 1)"), "{text}");
        assert!(text.contains("Oct-21"));
    }

    #[test]
    fn roll_columns_render_when_the_ledger_carries_rolls() {
        let mut results = vec![result(0, "a", 0.5)];
        results[0].month = Some("Oct-21".into());
        let mut report = FleetReport::from_results(&results);
        assert!(!report.render().contains("catalog-rolls"), "no rolls, no columns");
        // A merged lifecycle ledger (the drift monitor's) brings the
        // catalog-roll columns into the Table 1 section.
        let mut lifecycle = AdoptionLedger::default();
        lifecycle.record_roll("Oct-21", 7);
        report.adoption.merge(&lifecycle);
        let text = report.render();
        assert!(text.contains("catalog-rolls"), "{text}");
        assert!(text.contains("re-priced"), "{text}");
        assert_eq!(report.adoption.month("Oct-21").unwrap().customers_repriced, 7);
    }

    #[test]
    fn untagged_results_leave_the_ledger_empty() {
        let report = FleetReport::from_results(&[result(0, "a", 0.5)]);
        assert_eq!(report.adoption.rows().count(), 0);
    }

    /// Synthetic digests covering every fold branch: failures, unplaceable,
    /// month tags, confidence buckets, repeated SKUs.
    fn synthetic_digests(n: usize) -> Vec<ResultDigest> {
        (0..n)
            .map(|i| {
                let outcome = match i % 5 {
                    0 => DigestOutcome::Failed { message: format!("err-{i}") },
                    1 => DigestOutcome::Assessed {
                        databases_assessed: 2,
                        shape: CurveShape::Flat,
                        confidence: Some(0.3 + (i % 7) as f64 * 0.1),
                        sku: None, // unplaceable
                        eligible_recommendations: 1,
                    },
                    _ => DigestOutcome::Assessed {
                        databases_assessed: 1 + i % 3,
                        shape: if i % 2 == 0 { CurveShape::Simple } else { CurveShape::Complex },
                        confidence: (i % 4 != 0).then(|| (i % 11) as f64 / 10.0),
                        sku: Some((
                            Arc::from(format!("SKU_{}", i % 4).as_str()),
                            17.25 + i as f64 * 0.125,
                        )),
                        eligible_recommendations: 1 + i % 2,
                    },
                };
                ResultDigest {
                    index: i,
                    instance_name: Arc::from(format!("inst-{i}").as_str()),
                    deployment: if i % 3 == 0 {
                        DeploymentType::SqlMi
                    } else {
                        DeploymentType::SqlDb
                    },
                    month: (i % 2 == 0).then(|| Arc::from(["Oct-21", "Nov-21", "Dec-21"][i % 3])),
                    outcome,
                }
            })
            .collect()
    }

    #[test]
    fn snapshot_matches_finish_and_leaves_the_aggregator_usable() {
        let digests = synthetic_digests(50);
        let mut agg = FleetAggregator::new();
        for d in &digests[..30] {
            agg.accept_digest(d);
        }
        let snap = agg.finish();
        assert_eq!(snap.fleet_size, 30);
        for d in &digests[30..] {
            agg.accept_digest(d);
        }
        assert_eq!(agg.accepted(), 50);
        assert_eq!(snap, {
            let mut prefix = FleetAggregator::new();
            for d in &digests[..30] {
                prefix.accept_digest(d);
            }
            prefix.finish()
        });
    }

    /// Build one synthetic digest from a generated spec tuple.
    fn digest(index: usize, kind: u8, sku: u8, month: u8, flagged: bool) -> ResultDigest {
        let outcome = if kind == 0 {
            DigestOutcome::Failed { message: format!("boom-{index}") }
        } else {
            DigestOutcome::Assessed {
                databases_assessed: 1 + (kind as usize % 3),
                shape: [CurveShape::Flat, CurveShape::Simple, CurveShape::Complex]
                    [kind as usize % 3],
                confidence: flagged.then_some(0.2 + 0.15 * kind as f64),
                // kind == 1 leaves the instance unplaceable (no SKU selected).
                sku: (kind != 1)
                    .then(|| (Arc::from(format!("SKU_{sku}").as_str()), 7.5 * sku as f64 + 1.0)),
                eligible_recommendations: 1 + sku as usize,
            }
        };
        ResultDigest {
            index,
            instance_name: Arc::from(format!("inst-{index}").as_str()),
            deployment: if kind.is_multiple_of(2) {
                DeploymentType::SqlDb
            } else {
                DeploymentType::SqlMi
            },
            month: (month > 0).then(|| Arc::from(["Oct-21", "Nov-21"][month as usize - 1])),
            outcome,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Completion order: workers fold results as they complete, so
        /// folding the digests in any order must finish to the report the
        /// sequential fold builds. A salted permutation (a salted sort key,
        /// so every salt gives a different shuffle) stands in for the
        /// workers' interleaving.
        #[test]
        fn permuted_fold_matches_the_sequential_fold(
            spec in proptest::collection::vec((0u8..5, 0u8..4, 0u8..3, 0u8..2), 0..120),
            salt in 0usize..97,
        ) {
            let digests: Vec<ResultDigest> = spec
                .iter()
                .enumerate()
                .map(|(i, &(kind, sku, month, flagged))| digest(i, kind, sku, month, flagged == 1))
                .collect();

            let mut sequential = FleetAggregator::new();
            for d in &digests {
                sequential.accept_digest(d);
            }

            let mut permuted: Vec<&ResultDigest> = digests.iter().collect();
            permuted.sort_by_key(|d| {
                (d.index.wrapping_mul(2_654_435_761) ^ salt.wrapping_mul(40_503)) % 1_000_003
            });
            let mut shuffled = FleetAggregator::new();
            for d in permuted {
                shuffled.accept_digest(d);
            }
            proptest::prop_assert_eq!(shuffled.finish(), sequential.finish());
        }
    }
}
