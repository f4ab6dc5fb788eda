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
//!
//! A §3.4 bootstrap window needs only the SKU its curve would select, so it
//! builds no curve: the candidates' (monthly cost, id) order depends only
//! on the window's storage assignment, and the kernel sorts it once per
//! distinct assignment. The window then scores its candidates in that
//! order, as a plain-catalog window does.

use std::ops::Range;

use doppler_catalog::{Catalog, DeploymentType, FileLayout, ServiceTier, Sku, TierAssignment};
use doppler_telemetry::{PerfDimension, PerfHistory};

use crate::curve::{sort_by_cost, PricePerformanceCurve};
use crate::throttling::{add_bits, extremes, throttled_fraction, ExceedanceMasks};

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
) -> Option<MiAssessment> {
    let kernel = MiKernel::new(history, layout, catalog);
    let n = history.len();
    kernel.assess(0..n, kernel.masks().counts(0..n))
}

/// One history's MI assessment, ready to run on any window of it.
pub(crate) struct MiKernel<'a> {
    layout: &'a FileLayout,
    /// MI SKUs whose instance can hold the layout's data, in catalog order.
    candidates: Vec<&'a Sku>,
    /// Bitset of the General Purpose candidates.
    gp: Vec<u64>,
    /// The history's IOPS series, when collected.
    iops: Option<&'a [f64]>,
    /// Masks over `candidates`, with every GP candidate's IOPS unbounded.
    masks: ExceedanceMasks,
    /// Per storage assignment and BC restriction a window has met, the
    /// indices of the candidates on its curve in (monthly cost, id) order.
    orders: Vec<(TierAssignment, bool, Vec<usize>)>,
}

/// Step 1's outcome on one window.
struct StorageChoice {
    storage: TierAssignment,
    restricted_to_bc: bool,
    gp_iops_limit: f64,
}

impl<'a> MiKernel<'a> {
    /// Build the masks of `history` over the MI SKUs that fit `layout`.
    pub(crate) fn new(
        history: &'a PerfHistory,
        layout: &'a FileLayout,
        catalog: &'a Catalog,
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
            masks: ExceedanceMasks::new(history, &caps),
            candidates,
            gp,
            iops: history.values(PerfDimension::Iops),
            orders: Vec::new(),
        }
    }

    /// The masks Step 2 counts from (GP IOPS unbounded).
    pub(crate) fn masks(&self) -> &ExceedanceMasks {
        &self.masks
    }

    /// Run Steps 1 and 2 on the samples in `range`, given the masks'
    /// per-candidate counts over that range.
    pub(crate) fn assess(&self, range: Range<usize>, mut counts: Vec<u32>) -> Option<MiAssessment> {
        let StorageChoice { storage, restricted_to_bc, gp_iops_limit } =
            self.steps(range.clone(), &mut counts)?;
        let scored = self
            .candidates
            .iter()
            .zip(counts)
            .filter(|(sku, _)| !(restricted_to_bc && sku.tier == ServiceTier::GeneralPurpose))
            .map(|(sku, count)| {
                let monthly = self.monthly(sku, &storage);
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

    /// [`assess`](Self::assess) without the curve: Steps 1 and 2 on the
    /// samples in `range`, adjusting `counts` (the masks' counts over that
    /// range) to Step 2's. Returns the candidate SKUs, in the order of the
    /// counts, and the indices of the curve's points among them, cheapest
    /// first; `None` when no MI placement exists.
    pub(crate) fn window(
        &mut self,
        range: Range<usize>,
        counts: &mut [u32],
    ) -> Option<(&[&'a Sku], &[usize])> {
        let StorageChoice { storage, restricted_to_bc, .. } = self.steps(range, counts)?;
        let cached =
            self.orders.iter().position(|(s, r, _)| *r == restricted_to_bc && *s == storage);
        let i = match cached {
            Some(i) => i,
            None => {
                let costs: Vec<f64> =
                    self.candidates.iter().map(|sku| self.monthly(sku, &storage)).collect();
                let mut order: Vec<usize> = (0..self.candidates.len())
                    .filter(|&s| {
                        !(restricted_to_bc
                            && self.candidates[s].tier == ServiceTier::GeneralPurpose)
                    })
                    .collect();
                sort_by_cost(&mut order, &self.candidates, &costs);
                self.orders.push((storage, restricted_to_bc, order));
                self.orders.len() - 1
            }
        };
        Some((&self.candidates, &self.orders[i].2))
    }

    /// A candidate's monthly cost under a storage assignment.
    fn monthly(&self, sku: &Sku, storage: &TierAssignment) -> f64 {
        match sku.tier {
            ServiceTier::GeneralPurpose => sku.monthly_cost() + storage.monthly_storage_cost(),
            // BC uses local SSD: SKU-constant IO, no premium-disk rent.
            ServiceTier::BusinessCritical => sku.monthly_cost(),
        }
    }

    /// Step 1 on the samples in `range`, then Step 2's adjustment of
    /// `counts`, the masks' per-candidate counts over that range.
    fn steps(&self, range: Range<usize>, counts: &mut [u32]) -> Option<StorageChoice> {
        // Step 1: storage tiers from size (100 %) and IO demand (95 %). The
        // peak is taken in independent lanes, so of two equal zeros it may
        // return the other sign than a serial scan; Step 1 only compares
        // it, so nothing changes.
        let iops = self.iops.map_or(&[][..], |v| &v[range.clone()]);
        let iops_demand = if iops.is_empty() { 0.0 } else { extremes(iops).1 };
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
        if !restricted_to_bc && iops_demand > gp_iops_limit {
            let mut extra = vec![0u64; self.gp.len()];
            for (t, &v) in range.zip(iops) {
                if v > gp_iops_limit {
                    for ((e, g), m) in extra.iter_mut().zip(&self.gp).zip(self.masks.sample(t)) {
                        *e = g & !m;
                    }
                    add_bits(counts, &extra);
                }
            }
        }
        Some(StorageChoice { storage, restricted_to_bc, gp_iops_limit })
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
        let a = mi_curve(&history(vec![1000.0; 20]), &layout, &catalog()).unwrap();
        assert_eq!(a.storage.tiers, vec![StorageTier::P10; 3]);
        assert_eq!(a.gp_iops_limit, 1500.0);
        assert!(!a.restricted_to_bc);
    }

    #[test]
    fn io_demand_upgrades_storage_tiers() {
        let layout = FileLayout::from_sizes(&[100.0]);
        let a = mi_curve(&history(vec![4500.0; 20]), &layout, &catalog()).unwrap();
        // A single P10 (500 IOPS) cannot serve 4500: expect >= P30.
        assert!(a.storage.tiers[0] >= StorageTier::P30);
        assert!(a.gp_iops_limit >= 0.95 * 4500.0);
    }

    #[test]
    fn impossible_io_demand_restricts_to_bc() {
        let layout = FileLayout::from_sizes(&[100.0]);
        let a = mi_curve(&history(vec![60_000.0; 20]), &layout, &catalog()).unwrap();
        assert!(a.restricted_to_bc);
        assert!(a.curve.points().iter().all(|p| p.sku_id.contains("BC")));
    }

    #[test]
    fn oversized_file_yields_none() {
        let layout = FileLayout::from_sizes(&[9_000.0]);
        assert!(mi_curve(&history(vec![100.0; 5]), &layout, &catalog()).is_none());
    }

    #[test]
    fn gp_costs_include_premium_disk_rent() {
        let layout = FileLayout::from_sizes(&[100.0]);
        let cat = catalog();
        let a = mi_curve(&history(vec![200.0; 20]), &layout, &cat).unwrap();
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
        let a = mi_curve(&history(vec![200.0; 20]), &layout, &cat).unwrap();
        let bc4 = a.curve.point_for("MI_BC_4").expect("BC 4 on curve");
        let compute = cat.get(&"MI_BC_4".into()).unwrap().monthly_cost();
        assert!((bc4.monthly_cost - compute).abs() < 1e-6);
    }

    #[test]
    fn instances_too_small_for_the_data_are_excluded() {
        // 3 TB of data excludes SKUs whose max_data_gb is below it.
        let layout = FileLayout::from_sizes(&[1500.0, 1500.0]);
        let a = mi_curve(&history(vec![500.0; 10]), &layout, &catalog()).unwrap();
        let cat = catalog();
        for p in a.curve.points() {
            let sku = cat.get(&doppler_catalog::SkuId(p.sku_id.clone())).unwrap();
            assert!(sku.caps.max_data_gb >= 3000.0, "{} too small", p.sku_id);
        }
    }

    #[test]
    fn step_two_counts_the_base_once() {
        // CPU demand of 6 vCores throttles every SKU under 6 vCores at every
        // sample, so those sit in the masks' base. IOPS spikes to 5,200 on
        // one sample in four; Step 1 gives the single file a P30 (5,000
        // IOPS, at least 95 % of the peak), so the spikes also pass the GP
        // limit. A GP SKU in the base throttles at every sample once, not
        // once more per spike: Step 2's read of each sample's mask must see
        // the base bits.
        let n = 40;
        let iops: Vec<f64> = (0..n).map(|t| if t % 4 == 0 { 5_200.0 } else { 100.0 }).collect();
        let history = history(iops).with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![6.0; n]));
        let layout = FileLayout::from_sizes(&[100.0]);
        let catalog = catalog();
        let a = mi_curve(&history, &layout, &catalog).unwrap();
        assert_eq!((a.storage.tiers.clone(), a.restricted_to_bc), (vec![StorageTier::P30], false));
        let scalar = |id: &str| {
            let sku = catalog.get(&id.into()).unwrap();
            let mut caps = sku.caps;
            if sku.tier == ServiceTier::GeneralPurpose {
                caps.iops = a.gp_iops_limit;
            }
            crate::throttling::throttling_probability(&history, &caps)
        };
        for p in a.curve.points() {
            assert_eq!(p.raw_score.to_bits(), (1.0 - scalar(&p.sku_id)).to_bits(), "{}", p.sku_id);
        }
        assert_eq!(a.curve.point_for("MI_GP_4").unwrap().raw_score, 0.0);
        assert_eq!(a.curve.point_for("MI_GP_8").unwrap().raw_score, 0.75);

        // The window path adjusts the same counts.
        let mut kernel = MiKernel::new(&history, &layout, &catalog);
        let mut counts = kernel.masks().counts(0..n);
        let (candidates, order) = kernel.window(0..n, &mut counts).unwrap();
        assert_eq!(order.len(), candidates.len());
        for (sku, &count) in candidates.iter().zip(&counts) {
            let fraction = throttled_fraction(count as usize, n);
            assert_eq!(fraction.to_bits(), scalar(&sku.id.0).to_bits(), "{}", sku.id);
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
        let a = mi_curve(&history(iops), &layout, &catalog()).unwrap();
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
