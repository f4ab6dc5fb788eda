//! Table reproductions (Tables 1-6).

use doppler_catalog::{DeploymentType, StorageTier};
use doppler_core::grouping::bits_to_group;
use doppler_core::{DopplerEngine, EngineConfig, GroupingStrategy, NegotiabilityStrategy};
use doppler_dma::{AssessmentRequest, PreprocessedInstance};
use doppler_fleet::{FleetAssessor, FleetConfig, FleetRequest};
use doppler_stats::SeededRng;
use doppler_workload::{PopulationSpec, WorkloadArchetype};
use std::fmt::Write as _;

use crate::backtest::{backtest_customers, catalog, training_records};
use crate::experiments::ExperimentScale;
use crate::par::par_map;

/// Table 1: run four months of seeded, month-tagged request volume through
/// the fleet assessor and print its adoption ledger. The paper's counts are
/// operational telemetry; the reproduction demonstrates the counting
/// harness at the same order of magnitude.
pub fn table1(scale: &ExperimentScale) -> String {
    let assessor = FleetAssessor::production(FleetConfig::with_workers(8));
    let mut rng = SeededRng::new(scale.seed);
    // Paper-scale monthly volumes (instances assessed per month).
    let months: [(&str, usize); 4] =
        [("Oct-21", 185), ("Nov-21", 215), ("Dec-21", 57), ("Jan-22", 231)];
    let mut requests = Vec::new();
    for (label, instances) in months {
        // Scale request volume down proportionally for fast runs while
        // keeping the relative month-to-month shape.
        let n = (instances * scale.cohort / 600).max(5);
        for i in 0..n {
            let dbs = 1 + rng.index(40); // instances host 1-40 databases
            let archetype =
                if rng.chance(0.7) { WorkloadArchetype::Idle } else { WorkloadArchetype::Steady };
            let h = doppler_workload::generate(
                &archetype.spec(rng.range(0.5, 4.0), 3.0),
                rng.fork(i as u64).unit().to_bits(),
            );
            let request = AssessmentRequest {
                instance_name: format!("{label}-{i}"),
                input: PreprocessedInstance {
                    instance: h.clone(),
                    databases: (0..dbs).map(|d| (format!("db{d}"), h.clone())).collect(),
                    file_sizes_gib: vec![],
                },
                confidence: None,
            };
            requests.push(FleetRequest::new(DeploymentType::SqlDb, request).with_month(label));
        }
    }
    let report = assessor.assess(requests).report;
    let mut out = String::from(
        "Table 1 — DMA adoption (simulated request stream)\n\
         Month    Unique instances  Unique databases  Recommendations\n",
    );
    for (month, m) in report.adoption.rows() {
        let _ = writeln!(
            out,
            "{month:<8} {:>16}  {:>16}  {:>15}",
            m.unique_instances, m.unique_databases, m.recommendations_generated
        );
    }
    out
}

/// Table 2: the MI GP premium-disk storage tiers.
pub fn table2(_scale: &ExperimentScale) -> String {
    let mut out = String::from(
        "Table 2 — File IO characteristics of Azure SQL MI GP storage tiers\n\
         Tier   File size (GiB)     IOPS   Throughput (MiB/s)  $/month\n",
    );
    let mut lo = 0.0;
    for t in StorageTier::ALL {
        let _ = writeln!(
            out,
            "{:<6} ({:>5}, {:>5}]   {:>6}   {:>18}  {:>7.2}",
            t.to_string(),
            lo,
            t.max_file_gib(),
            t.iops(),
            t.throughput_mibps(),
            t.monthly_price()
        );
        lo = t.max_file_gib();
    }
    out
}

/// Table 3: per-group score statistics for SQL MI under the thresholding
/// profiler and straightforward enumeration.
pub fn table3(scale: &ExperimentScale) -> String {
    let cat = catalog();
    let spec = PopulationSpec::sql_mi(scale.cohort, scale.seed);
    let customers = spec.customers(&cat);
    let engine = DopplerEngine::train(
        cat.clone(),
        EngineConfig::production(DeploymentType::SqlMi),
        &training_records(&customers),
    );
    let mut out = String::from(
        "Table 3 — Azure SQL MI customer groups (0 = negotiable, as in the paper)\n\
         Group  vCores Memory IOPS   Members  Operating  Average (Std) Score\n",
    );
    for paper_group in 1..=8usize {
        // Paper digits (vCores, Memory, IOPS), 0 = negotiable, counted in
        // binary from group 1 (000) to group 8 (111).
        let d = paper_group - 1;
        let digits = [(d >> 2) & 1, (d >> 1) & 1, d & 1];
        // Our encoding: bit i set when dimension i (Cpu, Memory, Iops in
        // canonical order) is negotiable.
        let ours = bits_to_group(&[digits[0] == 0, digits[1] == 0, digits[2] == 0]);
        let s = engine.group_model().stats()[ours];
        let score = if s.n_informative == 0 {
            "     (unobserved)".to_string()
        } else {
            format!("{:.4} ({:.3})", s.mean_score, s.std_score)
        };
        let _ = writeln!(
            out,
            "{paper_group:<6} {:<6} {:<6} {:<6} {:>7}  {:>9}  {score}",
            digits[0], digits[1], digits[2], s.n_total, s.n_operating,
        );
    }
    out
}

/// Customers per deployment that [`table4`] back-tests at most; a larger
/// cohort is cut to this many, and the table says so in a trailing line.
const TABLE4_COHORT_CAP: usize = 400;

/// Table 4: back-test accuracy per negotiability definition under k-means
/// grouping (k = 2^dims). The paper's Table 4 numbers sit well below
/// Table 5's because the over-provisioned segment is still included here —
/// Table 5 is introduced precisely by noting how accuracy "drastically
/// improves when over-provisioned customers are excluded".
pub fn table4(scale: &ExperimentScale) -> String {
    let cat = catalog();
    // STL-heavy strategies make this the slowest table; cap the cohort.
    let n = scale.cohort.min(TABLE4_COHORT_CAP);
    let db = PopulationSpec::sql_db(n, scale.seed).customers(&cat);
    let mi = PopulationSpec::sql_mi(n, scale.seed ^ 0xA5).customers(&cat);
    let lineup = NegotiabilityStrategy::table4_lineup();
    // The twelve (strategy, deployment) cells share nothing mutable, so
    // they run in parallel; rows print in lineup order.
    let cells: Vec<_> = lineup
        .iter()
        .flat_map(|&(_, strategy)| {
            [(strategy, DeploymentType::SqlDb, &db, 16), (strategy, DeploymentType::SqlMi, &mi, 8)]
        })
        .collect();
    let accuracy = par_map(&cells, |&(strategy, deployment, customers, k)| {
        let config = EngineConfig {
            deployment,
            negotiability: strategy,
            grouping: GroupingStrategy::KMeans { k, seed: scale.seed },
            rates: Default::default(),
        };
        backtest_customers(&cat, customers, config).accuracy_including_over_provisioned()
    });
    let mut out = String::from(
        "Table 4 — accuracy of Doppler per negotiability definition (k-means grouping)\n\
         Negotiability Definition                            DB       MI\n",
    );
    for ((name, _), row) in lineup.iter().zip(accuracy.chunks(2)) {
        let _ = writeln!(out, "{name:<50} {:>6.1}%  {:>6.1}%", row[0] * 100.0, row[1] * 100.0);
    }
    if n < scale.cohort {
        let _ = writeln!(out, "(cohort capped at {n} of {})", scale.cohort);
    }
    out
}

/// Table 5: the production configuration's accuracy with over-provisioned
/// customers excluded, plus per-tier micro accuracy.
pub fn table5(scale: &ExperimentScale) -> String {
    let cat = catalog();
    let mut out = String::from(
        "Table 5 — elastic strategy accuracy excluding over-provisioned customers\n\
         Customer Type  Accuracy   Micro Accuracy\n",
    );
    for (label, deployment, spec) in [
        ("DB", DeploymentType::SqlDb, PopulationSpec::sql_db(scale.cohort, scale.seed)),
        ("MI", DeploymentType::SqlMi, PopulationSpec::sql_mi(scale.cohort, scale.seed)),
    ] {
        let customers = spec.customers(&cat);
        let r = backtest_customers(&cat, &customers, EngineConfig::production(deployment));
        let _ = writeln!(
            out,
            "{label:<14} {:>7.1}%   GP: {:.1}% / BC: {:.1}%   (incl. over-provisioned: {:.1}%)",
            r.accuracy() * 100.0,
            r.gp.accuracy() * 100.0,
            r.bc.accuracy() * 100.0,
            r.accuracy_including_over_provisioned() * 100.0
        );
    }
    out
}

/// Table 6: the four machines synthesized workloads are replayed on.
pub fn table6(_scale: &ExperimentScale) -> String {
    let mut out = String::from(
        "Table 6 — SKUs used to execute synthetic workloads\n\
         ID     vCPU      Memory    Cache/Throughput  Disk IOPS   $/hour\n",
    );
    for sku in doppler_catalog::replay_skus() {
        let _ = writeln!(
            out,
            "{:<6} {:>2} cores  {:>4} GB   {:>7} MB/s      {:>7}   {:>6.2}",
            sku.id.to_string(),
            sku.vcores(),
            sku.caps.memory_gb,
            sku.caps.throughput_mbps,
            sku.caps.iops,
            sku.price_per_hour
        );
    }
    out.push_str("(all four machines share a 2 TB SSD)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale { cohort: 60, seed: 7 }
    }

    #[test]
    fn table2_prints_six_tiers() {
        let t = table2(&tiny());
        for tier in ["P10", "P20", "P30", "P40", "P50", "P60"] {
            assert!(t.contains(tier), "{t}");
        }
    }

    #[test]
    fn table6_prints_four_skus() {
        let t = table6(&tiny());
        for sku in ["SKU1", "SKU2", "SKU3", "SKU4"] {
            assert!(t.contains(sku), "{t}");
        }
        assert!(t.contains("154000"));
    }

    #[test]
    fn table3_has_eight_groups() {
        let t = table3(&tiny());
        assert_eq!(t.lines().count(), 2 + 8, "{t}");
    }

    #[test]
    fn table5_reports_both_deployments() {
        let t = table5(&tiny());
        assert!(t.contains("DB"));
        assert!(t.contains("MI"));
        assert!(t.contains("GP:"));
    }

    #[test]
    fn table1_counts_scale_with_months() {
        let t = table1(&tiny());
        assert!(t.contains("Oct-21"));
        assert!(t.contains("Jan-22"));
        assert_eq!(t.lines().count(), 2 + 4);
    }

    #[test]
    fn bits_to_group_is_consistent_with_table3_rows() {
        assert_eq!(bits_to_group(&[true, true, true]), 0b111);
    }
}
