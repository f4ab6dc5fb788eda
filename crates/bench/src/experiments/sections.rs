//! Prose-result reproductions: the §5.3 baseline comparison and the §1
//! over-provisioning survey.

use std::fmt::Write as _;

use doppler_catalog::{DeploymentType, SkuId};
use doppler_core::{
    rightsize, BaselineStrategy, DopplerEngine, EngineConfig, PricePerformanceCurve, TrainingRecord,
};
use doppler_stats::descriptive::{mean, min};
use doppler_telemetry::PerfDimension;
use doppler_workload::{sec53_instances, PopulationSpec};

use crate::backtest::catalog;
use crate::experiments::ExperimentScale;

/// §5.3: compare Doppler against the p95 baseline on the ten on-prem
/// instances. The paper reports: 80 % of the time Doppler's SKU meets the
/// workload's latency requirement while the baseline under-specifies; for
/// the rest the baseline fails to recommend anything at all.
pub fn sec5_3(scale: &ExperimentScale) -> String {
    let cat = catalog();
    // Doppler needs a trained group model; train on a small cloud cohort.
    let training = PopulationSpec::sql_db(scale.cohort.min(300), scale.seed).customers(&cat);
    let records: Vec<TrainingRecord> = training
        .iter()
        .filter(|c| !c.over_provisioned)
        .map(|c| TrainingRecord {
            history: c.history.clone(),
            chosen_sku: c.chosen_sku.clone(),
            file_layout: None,
        })
        .collect();
    let engine = DopplerEngine::train(
        cat.clone(),
        EngineConfig::production(DeploymentType::SqlDb),
        &records,
    );
    let baseline = BaselineStrategy::p95();

    let instances = sec53_instances(7.0, scale.seed ^ 0x53);
    let mut out = String::from(
        "Section 5.3 — Doppler vs the baseline strategy on 10 on-prem instances\n\
         Instance                      Baseline       Doppler        Latency need met?\n",
    );
    let mut doppler_meets = 0usize;
    let mut baseline_meets = 0usize;
    let mut baseline_none = 0usize;
    for inst in &instances {
        let lat_need =
            min(inst.history.values(PerfDimension::IoLatency).unwrap_or(&[])).unwrap_or(10.0);
        let b = baseline.recommend(&inst.history, &cat, DeploymentType::SqlDb);
        let d = engine.recommend(&inst.history, None);
        let meets = |sku_id: Option<&str>| -> bool {
            sku_id
                .and_then(|id| cat.get(&SkuId(id.into())))
                .map(|s| s.caps.min_io_latency_ms <= lat_need)
                .unwrap_or(false)
        };
        let b_id = b.map(|s| s.id.to_string());
        let d_meets = meets(d.sku_id.as_deref());
        let b_meets = meets(b_id.as_deref());
        if d_meets {
            doppler_meets += 1;
        }
        if b_meets {
            baseline_meets += 1;
        }
        if b_id.is_none() {
            baseline_none += 1;
        }
        let _ = writeln!(
            out,
            "{:<28} {:<14} {:<14} baseline {} / doppler {}",
            inst.name,
            b_id.as_deref().unwrap_or("(none)"),
            d.sku_id.as_deref().unwrap_or("(none)"),
            if b_meets { "yes" } else { "NO " },
            if d_meets { "yes" } else { "NO " },
        );
    }
    let _ = writeln!(
        out,
        "\nDoppler meets the latency requirement on {doppler_meets}/10 instances \
         (paper: 8/10 = 80%);\nthe baseline meets it on {baseline_meets}/10 and returns \
         no recommendation at all on {baseline_none}/10 (paper: 2/10)."
    );
    out
}

/// §1's fleet survey: "30% of SQL databases consume 43% or less of
/// provisioned CPU resources, and only 5% of SQL databases reach the
/// maximum provisioned CPU usage for more than 10% of this study's
/// duration" — plus the right-sizing outcome of §5.1/§5.2.1.
pub fn survey(scale: &ExperimentScale) -> String {
    let cat = catalog();
    let customers = PopulationSpec::sql_db(scale.cohort, scale.seed).customers(&cat);
    let skus = cat.for_deployment(DeploymentType::SqlDb);
    let mut low_util = 0usize;
    let mut pegged = 0usize;
    let mut flagged = 0usize;
    let mut truly_over = 0usize;
    let mut flagged_and_over = 0usize;
    let mut total_savings = 0.0;
    for c in &customers {
        let provisioned = cat.get(&c.chosen_sku).expect("chosen exists").caps.vcores;
        let cpu = c.history.values(PerfDimension::Cpu).expect("cpu collected");
        if mean(cpu) <= 0.43 * provisioned {
            low_util += 1;
        }
        let at_max =
            cpu.iter().filter(|&&v| v >= 0.98 * provisioned).count() as f64 / cpu.len() as f64;
        if at_max > 0.10 {
            pegged += 1;
        }
        // Right-sizing audit on the customer's own curve.
        let curve = PricePerformanceCurve::generate(&c.history, &skus);
        if let Some(r) = rightsize(&curve, c.chosen_sku.0.as_str()) {
            if c.over_provisioned {
                truly_over += 1;
            }
            if r.over_provisioned {
                flagged += 1;
                total_savings += r.annual_savings();
                if c.over_provisioned {
                    flagged_and_over += 1;
                }
            }
        }
    }
    let n = customers.len() as f64;
    let mut out = String::from("Section 1 survey + §5.1 right-sizing audit (SQL DB cohort)\n");
    let _ = writeln!(
        out,
        "databases consuming <=43% of provisioned CPU: {:.1}% (paper: 30%)",
        100.0 * low_util as f64 / n
    );
    let _ = writeln!(
        out,
        "databases at max provisioned CPU >10% of the window: {:.1}% (paper: 5%)",
        100.0 * pegged as f64 / n
    );
    let _ = writeln!(
        out,
        "right-sizing flags {:.1}% of the fleet as over-provisioned (paper: ~10%)",
        100.0 * flagged as f64 / n
    );
    let _ = writeln!(
        out,
        "recall against ground truth: {flagged_and_over}/{truly_over} generated \
         over-provisioned customers flagged"
    );
    let _ = writeln!(
        out,
        "aggregate annual savings opportunity: ${:.0} (the Figure 8a customer alone saved >$100k)",
        total_savings
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale { cohort: 80, seed: 3 }
    }

    #[test]
    fn sec5_3_baseline_fails_where_doppler_negotiates() {
        let s = sec5_3(&tiny());
        assert!(s.contains("no recommendation at all on 2/10"), "{s}");
    }

    #[test]
    fn survey_reports_all_headline_numbers() {
        let s = survey(&tiny());
        assert!(s.contains("<=43%"), "{s}");
        assert!(s.contains("right-sizing flags"), "{s}");
    }
}
