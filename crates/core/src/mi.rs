//! The SQL Managed Instance flow (§3.2, "Determining file storage tier for
//! MI").
//!
//! MI General Purpose stores every database file on its own premium disk,
//! so the instance IOPS limit is not a SKU constant — it is the sum of the
//! per-file storage-tier limits (Table 2). Recommendation therefore runs in
//! two steps:
//!
//! * **Step 1** — pick storage tiers: each file gets the smallest disk that
//!   fits it at 100 %; tiers are then upgraded until the summed IOPS and
//!   throughput cover at least 95 % of the workload's needs. If even P60
//!   disks cannot, the search is restricted to Business Critical (whose
//!   local-SSD IO is a SKU constant).
//! * **Step 2** — build the instance-level price-performance curve with the
//!   storage-derived IOPS limit substituted into every GP SKU, and the
//!   premium-disk rent added to GP monthly costs.
//!
//! Step 2 runs on the [`ExceedanceMasks`] kernel. Every GP SKU shares the
//! Step-1 IOPS limit, which moves with the history (a bootstrap window's
//! IOPS peak can change the tiers). So the masks are built once with GP
//! IOPS unbounded, and the samples whose demand passes the window's limit
//! are added to the GP counts afterwards. The counts are the ones Eq. 1
//! gives with the limit substituted into each GP SKU's capacities.

use std::ops::Range;

use doppler_catalog::{
    BillingRates, Catalog, DeploymentType, FileLayout, ServiceTier, Sku, TierAssignment,
};
use doppler_stats::descriptive::max;
use doppler_telemetry::{PerfDimension, PerfHistory};

use crate::curve::PricePerformanceCurve;
use crate::throttling::{add_bits, throttled_fraction, ExceedanceMasks};

/// The §3.2 Step-1 satisfaction fraction ("chosen based on file layout
/// analysis of current on-cloud Azure SQL MI resources").
pub const IOPS_SATISFACTION_FRACTION: f64 = 0.95;

/// Outcome of the two-step MI assessment.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MiAssessment {
    /// Storage tier per data file after the demand-driven upgrade.
    pub storage: TierAssignment,
    /// Step 1 could not reach 95 % on GP premium disks: only BC SKUs are
    /// on the curve.
    pub restricted_to_bc: bool,
    /// The instance-level price-performance curve (Step 2).
    pub curve: PricePerformanceCurve,
    /// The effective GP IOPS limit (sum over files), for reporting.
    pub gp_iops_limit: f64,
}

/// Run the MI assessment. Returns `None` when a data file exceeds the
/// largest premium disk (no MI placement exists).
pub fn mi_curve(
    history: &PerfHistory,
    layout: &FileLayout,
    catalog: &Catalog,
    rates: &BillingRates,
) -> Option<MiAssessment> {
    let kernel = MiKernel::new(history, layout, catalog, rates);
    let n = history.len();
    kernel.assess(0..n, kernel.masks().counts(0..n))
}

/// One history's MI assessment, ready to run on any window of it.
pub(crate) struct MiKernel<'a> {
    layout: &'a FileLayout,
    rates: &'a BillingRates,
    /// MI SKUs whose instance can hold the layout's data, in catalog order.
    candidates: Vec<&'a Sku>,
    /// Bitset of the General Purpose candidates.
    gp: Vec<u64>,
    /// The history's IOPS series, when collected.
    iops: Option<&'a [f64]>,
    /// Masks over `candidates`, with every GP candidate's IOPS unbounded.
    masks: ExceedanceMasks,
}

impl<'a> MiKernel<'a> {
    /// Build the masks of `history` over the MI SKUs that fit `layout`.
    pub(crate) fn new(
        history: &'a PerfHistory,
        layout: &'a FileLayout,
        catalog: &'a Catalog,
        rates: &'a BillingRates,
    ) -> MiKernel<'a> {
        let total_data = layout.total_gib();
        let candidates: Vec<&Sku> = catalog
            .for_deployment(DeploymentType::SqlMi)
            .into_iter()
            .filter(|sku| sku.caps.max_data_gb >= total_data)
            .collect();
        let mut gp = vec![0u64; candidates.len().div_ceil(64).max(1)];
        let caps: Vec<_> = candidates
            .iter()
            .enumerate()
            .map(|(s, sku)| {
                let mut caps = sku.caps;
                if sku.tier == ServiceTier::GeneralPurpose {
                    gp[s / 64] |= 1 << (s % 64);
                    caps.iops = f64::INFINITY;
                }
                caps
            })
            .collect();
        MiKernel {
            layout,
            rates,
            masks: ExceedanceMasks::new(history, &caps),
            candidates,
            gp,
            iops: history.values(PerfDimension::Iops),
        }
    }

    /// The masks Step 2 counts from (GP IOPS unbounded).
    pub(crate) fn masks(&self) -> &ExceedanceMasks {
        &self.masks
    }

    /// Run Steps 1 and 2 on the samples in `range`, given the masks'
    /// per-candidate counts over that range.
    pub(crate) fn assess(&self, range: Range<usize>, mut counts: Vec<u32>) -> Option<MiAssessment> {
        // Step 1: storage tiers from size (100 %) and IO demand (95 %).
        let iops = self.iops.map_or(&[][..], |v| &v[range.clone()]);
        let iops_demand = max(iops).unwrap_or(0.0);
        let throughput_demand = iops_demand / 128.0; // 8 KB pages
        let (storage, satisfied) = self.layout.assign_tiers_for_demand(
            iops_demand,
            throughput_demand,
            IOPS_SATISFACTION_FRACTION,
        )?;
        let restricted_to_bc = !satisfied;
        let gp_iops_limit = storage.total_iops();

        // Step 2: a GP SKU also throttles wherever demand passes the
        // storage-derived IOPS limit and no other dimension already did.
        if !restricted_to_bc {
            let mut extra = vec![0u64; self.gp.len()];
            for (t, &v) in range.clone().zip(iops) {
                if v > gp_iops_limit {
                    for ((e, g), m) in extra.iter_mut().zip(&self.gp).zip(self.masks.sample(t)) {
                        *e = g & !m;
                    }
                    add_bits(&mut counts, &extra);
                }
            }
        }
        let scored = self
            .candidates
            .iter()
            .zip(counts)
            .filter(|(sku, _)| !(restricted_to_bc && sku.tier == ServiceTier::GeneralPurpose))
            .map(|(sku, count)| {
                let monthly = match sku.tier {
                    ServiceTier::GeneralPurpose => self.rates.monthly_with_storage(sku, &storage),
                    // BC uses local SSD: SKU-constant IO, no premium-disk rent.
                    ServiceTier::BusinessCritical => sku.monthly_cost(),
                };
                let score = 1.0 - throttled_fraction(count as usize, range.len());
                (sku.id.to_string(), monthly, score)
            })
            .collect();
        Some(MiAssessment {
            storage,
            restricted_to_bc,
            curve: PricePerformanceCurve::from_scored(scored),
            gp_iops_limit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_catalog::{azure_paas_catalog, CatalogSpec, StorageTier};
    use doppler_telemetry::TimeSeries;

    fn catalog() -> Catalog {
        azure_paas_catalog(&CatalogSpec::default())
    }

    fn history(iops: Vec<f64>) -> PerfHistory {
        let n = iops.len();
        PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![2.0; n]))
            .with(PerfDimension::Memory, TimeSeries::ten_minute(vec![10.0; n]))
            .with(PerfDimension::Iops, TimeSeries::ten_minute(iops))
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; n]))
    }

    #[test]
    fn paper_example_three_small_files() {
        // Three files on 128 GB disks -> 3 x P10 -> 1500 IOPS limit.
        let layout = FileLayout::from_sizes(&[100.0, 100.0, 100.0]);
        let a = mi_curve(&history(vec![1000.0; 20]), &layout, &catalog(), &BillingRates::default())
            .unwrap();
        assert_eq!(a.storage.tiers, vec![StorageTier::P10; 3]);
        assert_eq!(a.gp_iops_limit, 1500.0);
        assert!(!a.restricted_to_bc);
    }

    #[test]
    fn io_demand_upgrades_storage_tiers() {
        let layout = FileLayout::from_sizes(&[100.0]);
        let a = mi_curve(&history(vec![4500.0; 20]), &layout, &catalog(), &BillingRates::default())
            .unwrap();
        // A single P10 (500 IOPS) cannot serve 4500: expect >= P30.
        assert!(a.storage.tiers[0] >= StorageTier::P30);
        assert!(a.gp_iops_limit >= 0.95 * 4500.0);
    }

    #[test]
    fn impossible_io_demand_restricts_to_bc() {
        let layout = FileLayout::from_sizes(&[100.0]);
        let a =
            mi_curve(&history(vec![60_000.0; 20]), &layout, &catalog(), &BillingRates::default())
                .unwrap();
        assert!(a.restricted_to_bc);
        assert!(a.curve.points().iter().all(|p| p.sku_id.contains("BC")));
    }

    #[test]
    fn oversized_file_yields_none() {
        let layout = FileLayout::from_sizes(&[9_000.0]);
        assert!(mi_curve(&history(vec![100.0; 5]), &layout, &catalog(), &BillingRates::default())
            .is_none());
    }

    #[test]
    fn gp_costs_include_premium_disk_rent() {
        let layout = FileLayout::from_sizes(&[100.0]);
        let cat = catalog();
        let rates = BillingRates::default();
        let a = mi_curve(&history(vec![200.0; 20]), &layout, &cat, &rates).unwrap();
        let gp4 = a.curve.point_for("MI_GP_4").expect("GP 4 on curve");
        let compute = cat.get(&"MI_GP_4".into()).unwrap().monthly_cost();
        assert!(
            (gp4.monthly_cost - (compute + StorageTier::P10.monthly_price())).abs() < 1e-6,
            "cost {}",
            gp4.monthly_cost
        );
    }

    #[test]
    fn bc_costs_exclude_premium_disk_rent() {
        let layout = FileLayout::from_sizes(&[100.0]);
        let cat = catalog();
        let a =
            mi_curve(&history(vec![200.0; 20]), &layout, &cat, &BillingRates::default()).unwrap();
        let bc4 = a.curve.point_for("MI_BC_4").expect("BC 4 on curve");
        let compute = cat.get(&"MI_BC_4".into()).unwrap().monthly_cost();
        assert!((bc4.monthly_cost - compute).abs() < 1e-6);
    }

    #[test]
    fn instances_too_small_for_the_data_are_excluded() {
        // 3 TB of data excludes SKUs whose max_data_gb is below it.
        let layout = FileLayout::from_sizes(&[1500.0, 1500.0]);
        let a = mi_curve(&history(vec![500.0; 10]), &layout, &catalog(), &BillingRates::default())
            .unwrap();
        let cat = catalog();
        for p in a.curve.points() {
            let sku = cat.get(&doppler_catalog::SkuId(p.sku_id.clone())).unwrap();
            assert!(sku.caps.max_data_gb >= 3000.0, "{} too small", p.sku_id);
        }
    }

    #[test]
    fn layout_limited_gp_throttles_where_bc_does_not() {
        // Demand 3000 IOPS against a single file upgraded to P30 (5000):
        // GP satisfies; but demand 6000 against P40 (7500) cap... use a
        // spiky series instead: baseline 1000 with spikes to 7000.
        let mut iops = vec![1000.0; 100];
        for i in (0..100).step_by(10) {
            iops[i] = 7_000.0;
        }
        let layout = FileLayout::from_sizes(&[100.0]);
        let a = mi_curve(&history(iops), &layout, &catalog(), &BillingRates::default()).unwrap();
        // Storage upgraded to satisfy >= 95% of the 7000 peak -> P40 (7500).
        assert!(a.gp_iops_limit >= 6650.0);
        // All GP SKUs share the same layout-derived IOPS cap.
        let gp_scores: Vec<f64> = a
            .curve
            .points()
            .iter()
            .filter(|p| p.sku_id.contains("GP"))
            .map(|p| p.raw_score)
            .collect();
        assert!(!gp_scores.is_empty());
    }
}
