//! The §5.2 back-testing loop.
//!
//! "We accomplish this by leveraging internal data we have on successfully
//! migrated customers in Azure and assume that customers that have fixed
//! their cloud SKU for at least 40 days have selected the optimal SKU for
//! their workload needs. We also exclude over-provisioned customers … The
//! frequency at which Doppler can match the same (fixed) SKU as these
//! customers is taken as one proxy to measure the utility (accuracy) of
//! Doppler."

use doppler_catalog::{azure_paas_catalog, Catalog, CatalogSpec, DeploymentType, ServiceTier};
use doppler_core::engine::profiled_dimensions;
use doppler_core::{DopplerEngine, EngineConfig, TrainingRecord};
use doppler_workload::{CloudCustomer, PopulationSpec};

/// Accuracy per service tier (the "micro accuracy" columns of Table 5).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierAccuracy {
    pub matches: usize,
    pub total: usize,
}

impl TierAccuracy {
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.matches as f64 / self.total as f64
        }
    }
}

/// Outcome of one back-test run. Every customer is scored; the
/// over-provisioned segment is counted apart, so one run gives both the
/// paper's Table 5 accuracy (segment excluded) and the "before exclusion"
/// accuracy it is contrasted with (Table 4).
#[derive(Debug, Clone, PartialEq)]
pub struct BacktestResult {
    pub deployment: DeploymentType,
    /// Well-provisioned customers scored.
    pub n_scored: usize,
    /// Well-provisioned customers whose fixed SKU was matched.
    pub matches: usize,
    pub gp: TierAccuracy,
    pub bc: TierAccuracy,
    /// The over-provisioned segment, scored apart.
    pub over_provisioned: TierAccuracy,
}

impl BacktestResult {
    /// Overall accuracy over the well-provisioned customers.
    pub fn accuracy(&self) -> f64 {
        TierAccuracy { matches: self.matches, total: self.n_scored }.accuracy()
    }

    /// Overall accuracy over every customer, the over-provisioned segment
    /// included.
    pub fn accuracy_including_over_provisioned(&self) -> f64 {
        TierAccuracy {
            matches: self.matches + self.over_provisioned.matches,
            total: self.n_scored + self.over_provisioned.total,
        }
        .accuracy()
    }
}

/// The standard catalog every experiment uses.
pub fn catalog() -> Catalog {
    azure_paas_catalog(&CatalogSpec::default())
}

/// The training set of a cohort: its well-provisioned customers, each with
/// the SKU it fixed (and, for MI, its file layout).
pub fn training_records(customers: &[CloudCustomer]) -> Vec<TrainingRecord> {
    customers.iter().filter(|c| !c.over_provisioned).map(training_record).collect()
}

fn training_record(c: &CloudCustomer) -> TrainingRecord {
    TrainingRecord {
        history: c.history.clone(),
        chosen_sku: c.chosen_sku.clone(),
        file_layout: c.file_layout.clone(),
    }
}

/// Generate a cohort, train the engine on its well-provisioned members,
/// and back-test.
pub fn backtest(spec: &PopulationSpec, engine_config: EngineConfig) -> BacktestResult {
    let cat = catalog();
    let customers = spec.customers(&cat);
    backtest_customers(&cat, &customers, engine_config)
}

/// Back-test over an already-generated cohort (lets callers reuse one
/// cohort across engine configurations, as Table 4 does). Each customer
/// is profiled once: the well-provisioned customers' profiles train the
/// engine, and every customer's profile scores it.
pub fn backtest_customers(
    cat: &Catalog,
    customers: &[CloudCustomer],
    engine_config: EngineConfig,
) -> BacktestResult {
    let dims = profiled_dimensions(engine_config.deployment);
    let profiles: Vec<_> =
        customers.iter().map(|c| engine_config.negotiability.profile(&c.history, dims)).collect();
    // One pass picks the trained customers, so record i and profile i
    // always come from the same customer.
    let (records, trained): (Vec<_>, Vec<_>) = customers
        .iter()
        .zip(&profiles)
        .filter(|(c, _)| !c.over_provisioned)
        .map(|(c, p)| (training_record(c), p.clone()))
        .unzip();
    let engine = DopplerEngine::train_profiled(cat.clone(), engine_config, &records, &trained);

    let mut result = BacktestResult {
        deployment: engine_config.deployment,
        n_scored: 0,
        matches: 0,
        gp: TierAccuracy::default(),
        bc: TierAccuracy::default(),
        over_provisioned: TierAccuracy::default(),
    };
    for (c, profile) in customers.iter().zip(profiles) {
        let rec = engine.recommend_profiled(&c.history, c.file_layout.as_ref(), profile);
        let hit = rec.sku_id.as_deref() == Some(c.chosen_sku.0.as_str());
        if c.over_provisioned {
            result.over_provisioned.total += 1;
            result.over_provisioned.matches += hit as usize;
            continue;
        }
        result.n_scored += 1;
        result.matches += hit as usize;
        let tier = match c.chosen_tier {
            ServiceTier::GeneralPurpose => &mut result.gp,
            ServiceTier::BusinessCritical => &mut result.bc,
        };
        tier.total += 1;
        tier.matches += hit as usize;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_core::engine::EngineConfig;

    #[test]
    fn db_backtest_reaches_high_accuracy_on_a_small_cohort() {
        let spec = PopulationSpec { days: 4.0, ..PopulationSpec::sql_db(120, 7) };
        let r = backtest(&spec, EngineConfig::production(DeploymentType::SqlDb));
        assert!(r.n_scored > 80);
        assert!(
            r.accuracy() > 0.75,
            "accuracy {} ({}ic/{} scored)",
            r.accuracy(),
            r.matches,
            r.n_scored
        );
    }

    #[test]
    fn excluding_over_provisioned_raises_accuracy() {
        let spec = PopulationSpec { days: 4.0, ..PopulationSpec::sql_db(150, 13) };
        let r = backtest(&spec, EngineConfig::production(DeploymentType::SqlDb));
        assert!(
            r.accuracy() > r.accuracy_including_over_provisioned(),
            "excluded {} !> included {}",
            r.accuracy(),
            r.accuracy_including_over_provisioned()
        );
    }

    #[test]
    fn tier_totals_partition_the_scored_set() {
        let spec = PopulationSpec { days: 4.0, ..PopulationSpec::sql_db(100, 3) };
        let r = backtest(&spec, EngineConfig::production(DeploymentType::SqlDb));
        assert_eq!(r.gp.total + r.bc.total, r.n_scored);
        assert_eq!(r.gp.matches + r.bc.matches, r.matches);
        assert_eq!(r.n_scored + r.over_provisioned.total, 100, "every customer is scored");
    }
}
