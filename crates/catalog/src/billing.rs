//! The billing interface of §4: "A billing interface exists to compute the
//! prices for each SKU."
//!
//! Prices are anchored to the $/hour figures the paper reprints in Figure 1
//! (GP ≈ $0.2525/vCore/h, BC ≈ $0.68/vCore/h for SQL DB) and expand with a
//! per-deployment multiplier. Monthly cost uses Azure's 730-hour month.

use crate::sku::{DeploymentType, ServiceTier};

/// Hours in a billing month (Azure convention).
pub const HOURS_PER_MONTH: f64 = 730.0;

/// Per-vCore hourly rates by deployment and tier.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BillingRates {
    /// SQL DB General Purpose, $/vCore/h.
    pub db_gp: f64,
    /// SQL DB Business Critical, $/vCore/h.
    pub db_bc: f64,
    /// SQL MI General Purpose, $/vCore/h.
    pub mi_gp: f64,
    /// SQL MI Business Critical, $/vCore/h.
    pub mi_bc: f64,
}

impl Default for BillingRates {
    /// Rates reverse-engineered from Figure 1 (DB) and Azure's public MI
    /// price sheet (MI runs a few percent above DB for the managed server
    /// surface).
    fn default() -> BillingRates {
        BillingRates { db_gp: 0.2525, db_bc: 0.68, mi_gp: 0.2703, mi_bc: 0.7252 }
    }
}

impl BillingRates {
    /// Hourly compute price for a (deployment, tier, vCores) combination.
    pub fn hourly(&self, deployment: DeploymentType, tier: ServiceTier, vcores: f64) -> f64 {
        let rate = match (deployment, tier) {
            (DeploymentType::SqlDb, ServiceTier::GeneralPurpose) => self.db_gp,
            (DeploymentType::SqlDb, ServiceTier::BusinessCritical) => self.db_bc,
            (DeploymentType::SqlMi, ServiceTier::GeneralPurpose) => self.mi_gp,
            (DeploymentType::SqlMi, ServiceTier::BusinessCritical) => self.mi_bc,
        };
        rate * vcores
    }

    /// Monthly compute price.
    pub fn monthly(&self, deployment: DeploymentType, tier: ServiceTier, vcores: f64) -> f64 {
        self.hourly(deployment, tier, vcores) * HOURS_PER_MONTH
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::FileLayout;

    #[test]
    fn figure1_prices_are_reproduced() {
        // Figure 1: GP 2 vCores $0.51/h, BC 2 $1.36/h, GP 4 $1.01/h,
        // BC 4 $2.72/h, GP 6 $1.52/h, BC 6 $4.08/h.
        let r = BillingRates::default();
        let cases = [
            (ServiceTier::GeneralPurpose, 2.0, 0.51),
            (ServiceTier::BusinessCritical, 2.0, 1.36),
            (ServiceTier::GeneralPurpose, 4.0, 1.01),
            (ServiceTier::BusinessCritical, 4.0, 2.72),
            (ServiceTier::GeneralPurpose, 6.0, 1.52),
            (ServiceTier::BusinessCritical, 6.0, 4.08),
        ];
        for (tier, vcores, want) in cases {
            let got = r.hourly(DeploymentType::SqlDb, tier, vcores);
            assert!((got - want).abs() < 0.011, "{tier} {vcores}: got {got}, want {want}");
        }
    }

    #[test]
    fn bc_costs_more_than_gp_everywhere() {
        let r = BillingRates::default();
        for d in [DeploymentType::SqlDb, DeploymentType::SqlMi] {
            assert!(
                r.hourly(d, ServiceTier::BusinessCritical, 4.0)
                    > r.hourly(d, ServiceTier::GeneralPurpose, 4.0)
            );
        }
    }

    #[test]
    fn monthly_is_730_hourly() {
        let r = BillingRates::default();
        let h = r.hourly(DeploymentType::SqlDb, ServiceTier::GeneralPurpose, 8.0);
        assert!(
            (r.monthly(DeploymentType::SqlDb, ServiceTier::GeneralPurpose, 8.0) - h * 730.0).abs()
                < 1e-9
        );
    }

    #[test]
    fn price_scales_linearly_in_vcores() {
        let r = BillingRates::default();
        let h2 = r.hourly(DeploymentType::SqlMi, ServiceTier::GeneralPurpose, 2.0);
        let h8 = r.hourly(DeploymentType::SqlMi, ServiceTier::GeneralPurpose, 8.0);
        assert!((h8 - 4.0 * h2).abs() < 1e-9);
    }

    #[test]
    fn storage_cost_is_added_for_mi() {
        // An MI General Purpose SKU costs its compute plus the rent of the
        // premium disks under its files: one 100 GiB file rents a P10.
        let storage = FileLayout::from_sizes(&[100.0]).assign_tiers().unwrap();
        assert!((storage.monthly_storage_cost() - 19.71).abs() < 1e-9);
    }
}
