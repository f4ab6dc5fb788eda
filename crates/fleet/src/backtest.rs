//! Replay back-testing for recommendation backends (§5.4 style).
//!
//! The Doppler paper validates recommendations by *replaying* each
//! customer's demand trace against the recommended SKU and checking that
//! latency and throttling stay within bounds (§5.4, Figure 13). This
//! module turns that per-instance check into a fleet-level harness: a
//! held-out cohort is assessed through two assessors — a **candidate**
//! (typically a [`doppler_core::LearnedBackend`]) and a **reference**
//! (typically the production heuristic engine, or the ground-truth SKU
//! labels baked into a synthetic cohort) — and every pick is replayed
//! through the `doppler-replay` queueing machine on the customer's own
//! history. The result is a [`BacktestReport`]: paired fit rates,
//! throttle-month counts, and the projected cost delta of switching to
//! the candidate.
//!
//! The same harness judges a challenger backend against a champion before
//! rollout: leave `ground_truth` unset and the reference side is the
//! champion's own pick. [`BacktestReport::agreement_rate`] and
//! [`BacktestReport::cheaper_candidate_picks`] then read as "where does
//! the challenger diverge" and "what would adopting it where it is cheaper
//! save". When both assessors resolve through one shared
//! [`EngineRegistry`](doppler_core::EngineRegistry), the backend spec is
//! part of the memo key, so a run costs one training per
//! `(key, backend)` and the sides never cross-serve engines.
//!
//! Every cost in the report is the replay catalog's list price for the
//! pick ([`Sku::monthly_cost`](doppler_catalog::Sku::monthly_cost)), not
//! the `monthly_cost` an assessor quoted. For SQL DB picks priced against
//! the replay catalog the two are equal; a SQL MI General Purpose quote
//! also carries its storage tiers, and an assessor routed to a regional
//! catalog with its own price multiplier quotes a different figure.
//!
//! The harness is deterministic for any worker count: both assessors
//! collect order-stably, cases are scored in submission order, and the
//! replay machine itself is a pure function of `(history, SKU)`.

use doppler_catalog::{Catalog, DeploymentType, SkuId};
use doppler_dma::json::Json;
use doppler_dma::AssessmentRequest;
use doppler_replay::{replay, ReplayOutcome};
use doppler_telemetry::PerfHistory;
use doppler_workload::CloudCustomer;

use crate::assessor::{FleetAssessment, FleetAssessor, FleetRequest};

/// p95-latency bound a pick must meet to fit (ms), §5.4.
const LATENCY_LIMIT_MS: f64 = 15.0;
/// Throttle-fraction bound a pick must meet to fit: 5 % of ticks.
const THROTTLE_BUDGET: f64 = 0.05;

/// One held-out customer: a demand history plus, optionally, the SKU the
/// customer actually ran on (the §5 back-test label). When `ground_truth`
/// is present it overrides the reference assessor's pick for this case.
#[derive(Debug, Clone)]
pub struct BacktestCase {
    /// Instance name carried through assessment and the report.
    pub name: String,
    pub deployment: DeploymentType,
    /// The held-out demand trace — replayed as-is on both picks.
    pub history: PerfHistory,
    /// MI file sizes, forwarded to the assessors (empty for SQL DB).
    pub file_sizes_gib: Vec<f64>,
    /// The SKU the customer actually chose, when known.
    pub ground_truth: Option<String>,
}

impl BacktestCase {
    /// Build a case from a synthetic cloud customer, using its
    /// `chosen_sku` (the SKU it "fixed for ≥ 40 days") as ground truth.
    pub fn from_customer(customer: &CloudCustomer) -> BacktestCase {
        let file_sizes_gib = customer
            .file_layout
            .as_ref()
            .map(|layout| layout.files.iter().map(|f| f.size_gib).collect())
            .unwrap_or_default();
        BacktestCase {
            name: format!("customer-{}", customer.id),
            deployment: customer.deployment,
            history: customer.history.clone(),
            file_sizes_gib,
            ground_truth: Some(customer.chosen_sku.0.clone()),
        }
    }
}

/// The replay scorecard for one (case, SKU) pair.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReplayScore {
    pub sku_id: String,
    /// Monthly cost of the replayed SKU (730-hour month).
    pub monthly_cost: f64,
    /// Fraction of ticks where any capacity was exceeded.
    pub throttle_fraction: f64,
    pub mean_latency_ms: f64,
    pub p95_latency_ms: f64,
    /// Whether the pick *fits*: p95 latency within the harness limit and
    /// throttling within budget.
    pub fits: bool,
}

/// One scored case: the candidate's and reference's replay outcomes side
/// by side. A side is `None` when that assessor produced no recommendation
/// for the case, the SKU is absent from the replay catalog, or the
/// history is empty (nothing to replay).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BacktestCaseRow {
    pub name: String,
    pub candidate: Option<ReplayScore>,
    pub reference: Option<ReplayScore>,
    /// Both sides picked the same SKU.
    pub agreed: bool,
}

/// The fleet-level back-test roll-up.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BacktestReport {
    pub candidate_label: String,
    pub reference_label: String,
    /// p95-latency bound a pick must meet to fit (ms).
    pub latency_limit_ms: f64,
    /// Throttle-fraction bound a pick must meet to fit.
    pub throttle_budget: f64,
    pub cases: Vec<BacktestCaseRow>,
    /// Cases where both sides produced a replayable pick.
    pub scored_pairs: usize,
    pub sku_agreements: usize,
    pub candidate_fit: usize,
    pub reference_fit: usize,
    /// Cases whose pick exceeded the throttle budget. Each case is one
    /// customer-history window — about one telemetry month — so this
    /// counts "months with throttling" across the cohort.
    pub candidate_throttle_months: usize,
    pub reference_throttle_months: usize,
    /// Total monthly cost of each side's picks over the scored pairs.
    pub candidate_monthly_cost: f64,
    pub reference_monthly_cost: f64,
}

impl BacktestReport {
    /// Fraction of scored pairs where both sides picked the same SKU;
    /// `None` when nothing was scored.
    pub fn agreement_rate(&self) -> Option<f64> {
        (self.scored_pairs > 0).then(|| self.sku_agreements as f64 / self.scored_pairs as f64)
    }

    /// Candidate cost minus reference cost over the scored pairs —
    /// negative means the candidate is cheaper.
    pub fn monthly_cost_delta(&self) -> f64 {
        self.candidate_monthly_cost - self.reference_monthly_cost
    }

    /// Scored pairs where the candidate's pick costs strictly less than the
    /// reference's (so it is a different SKU: both sides are priced from
    /// one catalog): how many, and the monthly savings of adopting the
    /// candidate on exactly those cases (reference minus candidate cost,
    /// summed in case order).
    pub fn cheaper_candidate_picks(&self) -> (usize, f64) {
        self.cases
            .iter()
            .filter_map(|row| match (&row.candidate, &row.reference) {
                (Some(c), Some(r)) if c.monthly_cost < r.monthly_cost => {
                    Some(r.monthly_cost - c.monthly_cost)
                }
                _ => None,
            })
            .fold((0, 0.0), |(picks, savings), saving| (picks + 1, savings + saving))
    }

    /// Terminal rendering in the fleet-report ASCII style.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("=== Backend Backtest ===\n");
        out.push_str(&format!(
            "candidate: {}   reference: {}\n",
            self.candidate_label, self.reference_label
        ));
        out.push_str(&format!(
            "cases: {}   scored pairs: {}   SKU agreement: {}\n",
            self.cases.len(),
            self.scored_pairs,
            match self.agreement_rate() {
                Some(rate) => format!("{:.1}%", rate * 100.0),
                None => "n/a".into(),
            }
        ));
        out.push_str(&format!(
            "fit (p95 <= {:.1} ms, throttle <= {:.1}%):\n",
            self.latency_limit_ms,
            self.throttle_budget * 100.0
        ));
        out.push_str(&format!(
            "  candidate: {:>5}/{}   throttle months: {:>4}   cost: ${:.2}/mo\n",
            self.candidate_fit,
            self.scored_pairs,
            self.candidate_throttle_months,
            self.candidate_monthly_cost
        ));
        out.push_str(&format!(
            "  reference: {:>5}/{}   throttle months: {:>4}   cost: ${:.2}/mo\n",
            self.reference_fit,
            self.scored_pairs,
            self.reference_throttle_months,
            self.reference_monthly_cost
        ));
        let delta = self.monthly_cost_delta();
        out.push_str(&format!(
            "cost delta (candidate - reference): {}${:.2}/mo\n",
            if delta < 0.0 { "-" } else { "+" },
            delta.abs()
        ));
        let (picks, savings) = self.cheaper_candidate_picks();
        out.push_str(&format!(
            "adopt candidate on {picks} cheaper pick(s): ${savings:.2}/mo projected savings\n"
        ));
        out
    }
}

/// The back-test harness: two assessors over one catalog, with the fit
/// bounds of §5.4 (p95 latency within 15 ms, throttling within 5 % of
/// ticks).
pub struct Backtest {
    catalog: Catalog,
    candidate: FleetAssessor,
    reference: FleetAssessor,
    candidate_label: String,
    reference_label: String,
}

impl Backtest {
    /// Build a harness replaying picks against `catalog`.
    ///
    /// Panics if either assessor was built with
    /// [`FleetConfig::keep_results`](crate::FleetConfig::keep_results)
    /// off: the harness scores the per-instance picks, and such an
    /// assessor returns none.
    pub fn new(catalog: Catalog, candidate: FleetAssessor, reference: FleetAssessor) -> Backtest {
        for (side, assessor) in [("candidate", &candidate), ("reference", &reference)] {
            assert!(
                assessor.config().keep_results,
                "Backtest::new: the {side} assessor must keep per-instance results \
                 (FleetConfig::keep_results = true)"
            );
        }
        Backtest {
            catalog,
            candidate,
            reference,
            candidate_label: "candidate".into(),
            reference_label: "reference".into(),
        }
    }

    /// Label the two sides in the report.
    pub fn with_labels(
        mut self,
        candidate: impl Into<String>,
        reference: impl Into<String>,
    ) -> Backtest {
        self.candidate_label = candidate.into();
        self.reference_label = reference.into();
        self
    }

    /// Score a pick by replaying `history` on it. `None` when there is no
    /// pick, the SKU is not in the replay catalog, or the history is
    /// empty.
    fn score(&self, history: &PerfHistory, sku_id: Option<&str>) -> Option<ReplayScore> {
        let sku_id = sku_id?;
        if history.is_empty() {
            return None;
        }
        let sku = self.catalog.get(&SkuId(sku_id.to_string()))?;
        let outcome: ReplayOutcome = replay(history, sku);
        let fits =
            outcome.meets_latency(LATENCY_LIMIT_MS) && outcome.throttle_fraction <= THROTTLE_BUDGET;
        Some(ReplayScore {
            sku_id: outcome.sku_id,
            monthly_cost: sku.monthly_cost(),
            throttle_fraction: outcome.throttle_fraction,
            mean_latency_ms: outcome.mean_latency_ms,
            p95_latency_ms: outcome.p95_latency_ms,
            fits,
        })
    }

    /// Assess the cohort through both sides and replay every pick.
    ///
    /// The reference pick for a case is its `ground_truth` when present,
    /// else the reference assessor's recommendation — so the same harness
    /// back-tests against labelled cohorts (§5) and against a champion
    /// backend (pre-rollout) without reconfiguration.
    pub fn run(&self, cases: &[BacktestCase]) -> BacktestReport {
        let requests: Vec<FleetRequest> = cases
            .iter()
            .map(|case| {
                FleetRequest::new(
                    case.deployment,
                    AssessmentRequest::from_history(
                        case.name.clone(),
                        case.history.clone(),
                        case.file_sizes_gib.clone(),
                        None,
                    ),
                )
            })
            .collect();
        let candidate_run = self.candidate.assess(requests.iter().cloned());
        let reference_run = self.reference.assess(requests);

        let mut rows = Vec::with_capacity(cases.len());
        let mut scored_pairs = 0usize;
        let mut sku_agreements = 0usize;
        let mut candidate_fit = 0usize;
        let mut reference_fit = 0usize;
        let mut candidate_throttle_months = 0usize;
        let mut reference_throttle_months = 0usize;
        let mut candidate_monthly_cost = 0.0f64;
        let mut reference_monthly_cost = 0.0f64;

        // Both runs kept every result (checked in `new`), in submission
        // order, so case `index` is result `index` on each side.
        for (index, case) in cases.iter().enumerate() {
            let pick_of = |run: &FleetAssessment| {
                let result = &run.results[index];
                debug_assert_eq!(result.index, index);
                result.outcome.as_ref().ok().and_then(|a| a.recommendation.sku_id.clone())
            };
            let candidate_pick = pick_of(&candidate_run);
            let reference_pick = case.ground_truth.clone().or_else(|| pick_of(&reference_run));

            let candidate = self.score(&case.history, candidate_pick.as_deref());
            let reference = self.score(&case.history, reference_pick.as_deref());
            let agreed = match (&candidate, &reference) {
                (Some(a), Some(b)) => a.sku_id == b.sku_id,
                _ => false,
            };
            if let (Some(a), Some(b)) = (&candidate, &reference) {
                scored_pairs += 1;
                sku_agreements += usize::from(agreed);
                candidate_fit += usize::from(a.fits);
                reference_fit += usize::from(b.fits);
                candidate_throttle_months += usize::from(a.throttle_fraction > THROTTLE_BUDGET);
                reference_throttle_months += usize::from(b.throttle_fraction > THROTTLE_BUDGET);
                candidate_monthly_cost += a.monthly_cost;
                reference_monthly_cost += b.monthly_cost;
            }
            rows.push(BacktestCaseRow { name: case.name.clone(), candidate, reference, agreed });
        }

        BacktestReport {
            candidate_label: self.candidate_label.clone(),
            reference_label: self.reference_label.clone(),
            latency_limit_ms: LATENCY_LIMIT_MS,
            throttle_budget: THROTTLE_BUDGET,
            cases: rows,
            scored_pairs,
            sku_agreements,
            candidate_fit,
            reference_fit,
            candidate_throttle_months,
            reference_throttle_months,
            candidate_monthly_cost,
            reference_monthly_cost,
        }
    }
}

fn score_to_json(score: &ReplayScore) -> Json {
    Json::Obj(vec![
        ("sku_id".into(), Json::Str(score.sku_id.clone())),
        ("monthly_cost".into(), Json::Num(score.monthly_cost)),
        ("throttle_fraction".into(), Json::Num(score.throttle_fraction)),
        ("mean_latency_ms".into(), Json::Num(score.mean_latency_ms)),
        ("p95_latency_ms".into(), Json::Num(score.p95_latency_ms)),
        ("fits".into(), Json::Num(f64::from(u8::from(score.fits)))),
    ])
}

fn score_from_json(json: &Json) -> Option<ReplayScore> {
    Some(ReplayScore {
        sku_id: json.get("sku_id")?.as_str()?.to_string(),
        monthly_cost: json.get("monthly_cost")?.as_f64()?,
        throttle_fraction: json.get("throttle_fraction")?.as_f64()?,
        mean_latency_ms: json.get("mean_latency_ms")?.as_f64()?,
        p95_latency_ms: json.get("p95_latency_ms")?.as_f64()?,
        fits: json.get("fits")?.as_f64()? != 0.0,
    })
}

fn side_to_json(side: &Option<ReplayScore>) -> Json {
    match side {
        Some(score) => score_to_json(score),
        None => Json::Null,
    }
}

/// Export a [`BacktestReport`] as a [`doppler_dma::json`] value, losslessly
/// re-parsable with [`backtest_report_from_json`].
pub fn backtest_report_to_json(report: &BacktestReport) -> Json {
    Json::Obj(vec![
        ("candidate_label".into(), Json::Str(report.candidate_label.clone())),
        ("reference_label".into(), Json::Str(report.reference_label.clone())),
        ("latency_limit_ms".into(), Json::Num(report.latency_limit_ms)),
        ("throttle_budget".into(), Json::Num(report.throttle_budget)),
        (
            "cases".into(),
            Json::Arr(
                report
                    .cases
                    .iter()
                    .map(|row| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(row.name.clone())),
                            ("candidate".into(), side_to_json(&row.candidate)),
                            ("reference".into(), side_to_json(&row.reference)),
                            ("agreed".into(), Json::Num(f64::from(u8::from(row.agreed)))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("scored_pairs".into(), Json::Num(report.scored_pairs as f64)),
        ("sku_agreements".into(), Json::Num(report.sku_agreements as f64)),
        ("candidate_fit".into(), Json::Num(report.candidate_fit as f64)),
        ("reference_fit".into(), Json::Num(report.reference_fit as f64)),
        ("candidate_throttle_months".into(), Json::Num(report.candidate_throttle_months as f64)),
        ("reference_throttle_months".into(), Json::Num(report.reference_throttle_months as f64)),
        ("candidate_monthly_cost".into(), Json::Num(report.candidate_monthly_cost)),
        ("reference_monthly_cost".into(), Json::Num(report.reference_monthly_cost)),
    ])
}

/// Re-parse an exported back-test report; `None` on structural mismatch.
pub fn backtest_report_from_json(json: &Json) -> Option<BacktestReport> {
    let cases = json
        .get("cases")?
        .as_arr()?
        .iter()
        .map(|row| {
            Some(BacktestCaseRow {
                name: row.get("name")?.as_str()?.to_string(),
                candidate: match row.get("candidate")?.non_null() {
                    Some(v) => Some(score_from_json(v)?),
                    None => None,
                },
                reference: match row.get("reference")?.non_null() {
                    Some(v) => Some(score_from_json(v)?),
                    None => None,
                },
                agreed: row.get("agreed")?.as_f64()? != 0.0,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(BacktestReport {
        candidate_label: json.get("candidate_label")?.as_str()?.to_string(),
        reference_label: json.get("reference_label")?.as_str()?.to_string(),
        latency_limit_ms: json.get("latency_limit_ms")?.as_f64()?,
        throttle_budget: json.get("throttle_budget")?.as_f64()?,
        cases,
        scored_pairs: json.get("scored_pairs")?.as_f64()? as usize,
        sku_agreements: json.get("sku_agreements")?.as_f64()? as usize,
        candidate_fit: json.get("candidate_fit")?.as_f64()? as usize,
        reference_fit: json.get("reference_fit")?.as_f64()? as usize,
        candidate_throttle_months: json.get("candidate_throttle_months")?.as_f64()? as usize,
        reference_throttle_months: json.get("reference_throttle_months")?.as_f64()? as usize,
        candidate_monthly_cost: json.get("candidate_monthly_cost")?.as_f64()?,
        reference_monthly_cost: json.get("reference_monthly_cost")?.as_f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assessor::{EngineRoute, FleetConfig};
    use doppler_catalog::{azure_paas_catalog, CatalogKey, CatalogSpec};
    use doppler_core::{BackendSpec, LearnedConfig, TrainingRecord, TrainingSet};
    use doppler_telemetry::{PerfDimension, TimeSeries};

    fn history(cpu: f64, iops: f64) -> PerfHistory {
        PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 144]))
            .with(PerfDimension::Memory, TimeSeries::ten_minute(vec![2.0; 144]))
            .with(PerfDimension::Iops, TimeSeries::ten_minute(vec![iops; 144]))
            .with(PerfDimension::LogRate, TimeSeries::ten_minute(vec![0.4; 144]))
    }

    fn cases(n: usize) -> Vec<BacktestCase> {
        (0..n)
            .map(|i| BacktestCase {
                name: format!("case-{i}"),
                deployment: DeploymentType::SqlDb,
                history: history(0.3 + (i % 5) as f64 * 0.6, 120.0 + (i % 5) as f64 * 300.0),
                file_sizes_gib: vec![],
                ground_truth: None,
            })
            .collect()
    }

    fn harness() -> Backtest {
        let config = FleetConfig::with_workers(2);
        Backtest::new(
            azure_paas_catalog(&CatalogSpec::default()),
            FleetAssessor::production(config),
            FleetAssessor::production(config),
        )
        .with_labels("learned", "heuristic")
    }

    #[test]
    fn identical_assessors_agree_everywhere() {
        let report = harness().run(&cases(8));
        assert_eq!(report.scored_pairs, 8);
        assert_eq!(report.agreement_rate(), Some(1.0));
        assert_eq!(report.monthly_cost_delta(), 0.0);
        assert_eq!(report.cheaper_candidate_picks(), (0, 0.0));
        assert!(report.render().contains("SKU agreement: 100.0%"));
        assert!(report.render().contains("adopt candidate on 0 cheaper pick(s): $0.00/mo"));
    }

    #[test]
    fn only_cheaper_candidate_picks_count_toward_adoption() {
        let catalog = azure_paas_catalog(&CatalogSpec::default());
        let price = |id: &str| catalog.get(&SkuId(id.into())).expect("in catalog").monthly_cost();
        let mut cs = cases(5);
        // Case 0: the label is far dearer than the candidate's pick.
        cs[0].ground_truth = Some("DB_BC_80".into());
        // Case 4: the label is cheaper than the candidate's pick.
        cs[4].ground_truth = Some("DB_GP_2".into());
        // Cases 1-3 fall back to the identical reference assessor.
        let report = harness().run(&cs);
        let side = |i: usize| {
            let row = &report.cases[i];
            (row.candidate.clone().expect("scored"), row.reference.clone().expect("scored"))
        };
        let (candidate, reference) = side(0);
        assert_ne!(candidate.sku_id, reference.sku_id);
        assert_eq!(reference.monthly_cost, price("DB_BC_80"));
        let (dearer, cheap_label) = side(4);
        assert!(dearer.monthly_cost > cheap_label.monthly_cost, "precondition: {dearer:?}");

        let (picks, savings) = report.cheaper_candidate_picks();
        assert_eq!(picks, 1);
        assert_eq!(savings, price("DB_BC_80") - candidate.monthly_cost);
        assert!(report.render().contains(&format!(
            "adopt candidate on 1 cheaper pick(s): ${savings:.2}/mo projected savings"
        )));
    }

    #[test]
    fn ground_truth_overrides_the_reference_pick() {
        let mut cs = cases(3);
        cs[1].ground_truth = Some("DB_BC_32".into());
        let report = harness().run(&cs);
        assert_eq!(report.cases[1].reference.as_ref().unwrap().sku_id, "DB_BC_32");
        // The overridden case no longer agrees; the others still do.
        assert!(!report.cases[1].agreed);
        assert_eq!(report.sku_agreements, 2);
    }

    #[test]
    fn unknown_sku_and_empty_history_score_as_none() {
        let mut cs = cases(2);
        cs[0].ground_truth = Some("NOT_A_SKU".into());
        cs[1].history = PerfHistory::new();
        let report = harness().run(&cs);
        assert!(report.cases[0].reference.is_none());
        assert!(report.cases[1].candidate.is_none());
        assert!(report.cases[1].reference.is_none());
        // Neither case forms a scored pair.
        assert_eq!(report.scored_pairs, 0);
        assert_eq!(report.agreement_rate(), None);
    }

    #[test]
    fn over_provisioned_reference_is_costlier_but_fits() {
        // Ground truth pins every case on a huge SKU: the candidate should
        // be cheaper while both fit comfortably.
        let mut cs = cases(4);
        for case in &mut cs {
            case.ground_truth = Some("DB_BC_80".into());
        }
        let report = harness().run(&cs);
        assert_eq!(report.scored_pairs, 4);
        assert_eq!(report.reference_fit, 4);
        assert!(report.monthly_cost_delta() < 0.0, "candidate should be cheaper");
    }

    #[test]
    #[should_panic(expected = "reference assessor must keep per-instance results")]
    fn assessors_that_drop_results_are_rejected() {
        let keeping = FleetConfig::with_workers(1);
        let dropping = FleetConfig { keep_results: false, ..keeping };
        Backtest::new(
            azure_paas_catalog(&CatalogSpec::default()),
            FleetAssessor::production(keeping),
            FleetAssessor::production(dropping),
        );
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let mut cs = cases(5);
        cs[2].ground_truth = Some("NOT_A_SKU".into());
        let report = harness().run(&cs);
        let json = backtest_report_to_json(&report);
        let reparsed =
            backtest_report_from_json(&Json::parse(&json.render_pretty()).unwrap()).unwrap();
        assert_eq!(reparsed, report);
    }

    fn training() -> Vec<TrainingRecord> {
        (0..8)
            .map(|i| {
                let cpu = 0.2 + (i % 4) as f64 * 0.9;
                TrainingRecord {
                    history: history(cpu, cpu * 200.0),
                    chosen_sku: SkuId(if cpu > 1.0 { "DB_GP_8".into() } else { "DB_GP_2".into() }),
                    file_layout: None,
                }
            })
            .collect()
    }

    #[test]
    fn identical_backends_agree_everywhere_with_zero_savings() {
        // Same heuristic engine on both sides, different worker counts.
        let report = Backtest::new(
            azure_paas_catalog(&CatalogSpec::default()),
            FleetAssessor::production(FleetConfig::with_workers(2)),
            FleetAssessor::production(FleetConfig::with_workers(3)),
        )
        .run(&cases(24));
        assert_eq!(report.scored_pairs, 24);
        assert_eq!(report.sku_agreements, report.scored_pairs);
        assert_eq!(report.agreement_rate(), Some(1.0));
        assert_eq!(report.cheaper_candidate_picks(), (0, 0.0));
        assert_eq!(report.candidate_monthly_cost, report.reference_monthly_cost);
        assert_eq!(report.candidate_fit, report.reference_fit);
    }

    #[test]
    fn shared_registry_trains_once_per_backend_and_key() {
        use doppler_catalog::InMemoryCatalogProvider;
        use doppler_core::EngineRegistry;
        use std::sync::Arc;
        let registry =
            Arc::new(EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production())));
        let key = CatalogKey::production(DeploymentType::SqlDb);
        let training = TrainingSet::new(training());
        let route = || EngineRoute::production(key.clone()).trained(training.clone());
        let reference =
            FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(4))
                .with_route(route());
        let candidate =
            FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(4))
                .with_route(
                    route().with_backend_spec(BackendSpec::Learned(LearnedConfig::default())),
                );
        let report =
            Backtest::new(azure_paas_catalog(&CatalogSpec::default()), candidate, reference)
                .with_labels("learned", "heuristic")
                .run(&cases(32));
        let stats = registry.stats();
        assert_eq!(stats.misses, 2, "one training per (key, backend)");
        assert_eq!(stats.failures, 0);
        assert_eq!(report.scored_pairs, 32);
        assert_eq!(report.cases.len(), 32);
    }

    #[test]
    fn json_export_round_trips_losslessly() {
        // A learned candidate that answers every query, so the sides
        // disagree and both carry their own costs into the export.
        let learned = BackendSpec::Learned(LearnedConfig {
            similarity_floor: 0.0,
            ..LearnedConfig::default()
        });
        let config = FleetConfig::with_workers(2);
        let report = Backtest::new(
            azure_paas_catalog(&CatalogSpec::default()),
            FleetAssessor::production(config).with_route(
                EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb))
                    .trained(TrainingSet::new(training()))
                    .with_backend_spec(learned),
            ),
            FleetAssessor::production(config),
        )
        .with_labels("learned", "heuristic")
        .run(&cases(16));
        assert_eq!(report.scored_pairs, 16);
        let rendered = backtest_report_to_json(&report).render_pretty();
        let parsed = Json::parse(&rendered).expect("valid JSON");
        let round = backtest_report_from_json(&parsed).expect("structurally complete");
        assert_eq!(round, report);
    }
}
