//! Catalog generation: expand the per-vCore scaling rules into the full
//! SKU universe, and pin the special-purpose SKU sets the paper prints.
//!
//! Azure's published resource-limit pages ([30, 32, 37] in the paper) scale
//! almost every capacity linearly in vCores within a (deployment, tier)
//! family; Figure 1 reprints six rows of that table and this module encodes
//! the implied rules:
//!
//! | dimension        | GP              | BC            |
//! |------------------|-----------------|---------------|
//! | memory           | 5.2 GB/vCore    | 5.2 GB/vCore  |
//! | data IOPS        | 320 /vCore      | 4000 /vCore   |
//! | log rate         | 3.75 MB/s/vCore | 12 MB/s/vCore |
//! | min IO latency   | 5 ms            | 1 ms          |
//! | IO throughput    | 24 MB/s/vCore   | 128 MB/s/vCore |
//! | max data size    | max(1 TB, 256 GB/vCore), capped at 4 TB |

use crate::billing::BillingRates;
use crate::catalog::Catalog;
use crate::sku::{DeploymentType, ResourceCaps, ServiceTier, Sku, SkuId};

/// vCore ladders per deployment type (SQL DB sells smaller slices; MI
/// starts at 4 vCores).
const DB_VCORES: [u32; 14] = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 24, 32, 40, 80];
const MI_VCORES: [u32; 8] = [4, 8, 16, 24, 32, 40, 64, 80];

/// Memory per vCore in both tiers, GB (Figure 1: 10.4 GB at 2 vCores).
const MEMORY_GB_PER_VCORE: f64 = 5.2;

/// One service tier's column of the module table.
struct TierRules {
    /// Data IOPS per vCore.
    iops_per_vcore: f64,
    /// Log rate per vCore, MB/s.
    log_mbps_per_vcore: f64,
    /// Min IO latency, ms.
    latency_ms: f64,
    /// IO throughput per vCore, MB/s.
    throughput_per_vcore: f64,
}

/// General Purpose (Figure 1 at 2 vCores: 640 IOPS, 7.5 MB/s log, 5 ms).
const GP: TierRules = TierRules {
    iops_per_vcore: 320.0,
    log_mbps_per_vcore: 3.75,
    latency_ms: 5.0,
    throughput_per_vcore: 24.0,
};

/// Business Critical (Figure 1 at 2 vCores: 8000 IOPS, 24 MB/s log, 1 ms).
const BC: TierRules = TierRules {
    iops_per_vcore: 4000.0,
    log_mbps_per_vcore: 12.0,
    latency_ms: 1.0,
    throughput_per_vcore: 128.0,
};

/// The billing rates catalog generation prices SKUs at; capacities follow
/// the module table. The default produces the Azure-like universe used
/// throughout the evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CatalogSpec {
    pub rates: BillingRates,
}

fn max_data_gb(vcores: f64) -> f64 {
    (256.0 * vcores).clamp(1024.0, 4096.0)
}

fn build_sku(
    spec: &CatalogSpec,
    deployment: DeploymentType,
    tier: ServiceTier,
    vcores: u32,
) -> Sku {
    let v = vcores as f64;
    let rules = if tier == ServiceTier::BusinessCritical { &BC } else { &GP };
    let caps = ResourceCaps {
        vcores: v,
        memory_gb: MEMORY_GB_PER_VCORE * v,
        max_data_gb: max_data_gb(v),
        iops: rules.iops_per_vcore * v,
        log_rate_mbps: rules.log_mbps_per_vcore * v,
        min_io_latency_ms: rules.latency_ms,
        throughput_mbps: rules.throughput_per_vcore * v,
    };
    Sku {
        id: SkuId(format!("{deployment}_{tier}_{vcores}")),
        deployment,
        tier,
        caps,
        price_per_hour: spec.rates.hourly(deployment, tier, v),
    }
}

/// Generate the full Azure SQL PaaS catalog: DB and MI, GP and BC, every
/// vCore rung — 44 compute shapes whose MI GP entries later expand across
/// file layouts into the 200+ effective SKUs the paper counts.
pub fn azure_paas_catalog(spec: &CatalogSpec) -> Catalog {
    let mut skus = Vec::new();
    for &v in &DB_VCORES {
        skus.push(build_sku(spec, DeploymentType::SqlDb, ServiceTier::GeneralPurpose, v));
        skus.push(build_sku(spec, DeploymentType::SqlDb, ServiceTier::BusinessCritical, v));
    }
    for &v in &MI_VCORES {
        skus.push(build_sku(spec, DeploymentType::SqlMi, ServiceTier::GeneralPurpose, v));
        skus.push(build_sku(spec, DeploymentType::SqlMi, ServiceTier::BusinessCritical, v));
    }
    Catalog::new(skus)
}

/// The four machines of Table 6, used to execute synthesized workloads in
/// §5.4. Memory runs at 4 GB/vCore and IOPS at the table's printed values;
/// prices extrapolate the GP rate so the price-performance curve of
/// Figure 12 has an x-axis.
pub fn replay_skus() -> Vec<Sku> {
    let rates = BillingRates::default();
    let rows: [(u32, f64, f64, f64); 4] = [
        (4, 16.0, 100.0, 6_000.0),
        (8, 32.0, 200.0, 12_000.0),
        (16, 64.0, 400.0, 154_000.0),
        (32, 128.0, 800.0, 308_000.0),
    ];
    rows.iter()
        .enumerate()
        .map(|(i, &(vcores, mem, cache_gb, iops))| {
            let v = vcores as f64;
            Sku {
                id: SkuId(format!("SKU{}", i + 1)),
                deployment: DeploymentType::SqlDb,
                tier: ServiceTier::GeneralPurpose,
                caps: ResourceCaps {
                    vcores: v,
                    memory_gb: mem,
                    // Table 6 footnote: all four machines share a 2 TB SSD.
                    max_data_gb: 2048.0,
                    iops,
                    log_rate_mbps: 3.75 * v,
                    // Dedicated machines over local SSD (the shared 2 TB
                    // drive): all four deliver ~1 ms best-case IO latency.
                    min_io_latency_ms: 1.0,
                    // Cache column doubles as the throughput proxy.
                    throughput_mbps: cache_gb,
                },
                price_per_hour: rates.hourly(DeploymentType::SqlDb, ServiceTier::GeneralPurpose, v),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_rows_are_reproduced() {
        // The six rows of Figure 1, checked field by field.
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let check = |id: &str, mem: f64, iops: f64, log: f64, lat: f64, price: f64| {
            let s = cat.get(&SkuId(id.into())).unwrap_or_else(|| panic!("{id} missing"));
            // Azure rounds the published memory figures (31.1 GB at 6
            // vCores vs the exact 5.2/vCore = 31.2), so allow 0.5 %.
            assert!((s.caps.memory_gb - mem).abs() / mem < 0.005, "{id} memory");
            assert_eq!(s.caps.iops, iops, "{id} iops");
            assert!((s.caps.log_rate_mbps - log).abs() < 1e-9, "{id} log rate");
            assert_eq!(s.caps.min_io_latency_ms, lat, "{id} latency");
            assert!((s.price_per_hour - price).abs() < 0.011, "{id} price {}", s.price_per_hour);
        };
        check("DB_BC_2", 10.4, 8000.0, 24.0, 1.0, 1.36);
        check("DB_GP_2", 10.4, 640.0, 7.5, 5.0, 0.51);
        check("DB_BC_4", 20.8, 16000.0, 48.0, 1.0, 2.72);
        check("DB_GP_4", 20.8, 1280.0, 15.0, 5.0, 1.01);
        check("DB_BC_6", 31.1, 24000.0, 72.0, 1.0, 4.08);
        check("DB_GP_6", 31.1, 1920.0, 22.5, 5.0, 1.52);
    }

    #[test]
    fn figure1_max_data_sizes() {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let size = |id: &str| cat.get(&SkuId(id.into())).unwrap().caps.max_data_gb;
        assert_eq!(size("DB_GP_2"), 1024.0);
        assert_eq!(size("DB_GP_4"), 1024.0);
        assert_eq!(size("DB_GP_6"), 1536.0);
    }

    #[test]
    fn catalog_covers_both_deployments_and_tiers() {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        for d in [DeploymentType::SqlDb, DeploymentType::SqlMi] {
            for t in [ServiceTier::GeneralPurpose, ServiceTier::BusinessCritical] {
                assert!(cat.iter().any(|s| s.deployment == d && s.tier == t), "missing {d}/{t}");
            }
        }
        assert_eq!(cat.len(), 2 * DB_VCORES.len() + 2 * MI_VCORES.len());
    }

    #[test]
    fn ids_are_unique() {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let mut ids: Vec<_> = cat.iter().map(|s| s.id.clone()).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn bc_beats_gp_on_every_performance_axis_at_equal_vcores() {
        let spec = CatalogSpec::default();
        let cat = azure_paas_catalog(&spec);
        for &v in &DB_VCORES {
            let gp = cat.get(&SkuId(format!("DB_GP_{v}"))).unwrap();
            let bc = cat.get(&SkuId(format!("DB_BC_{v}"))).unwrap();
            assert!(bc.caps.iops > gp.caps.iops);
            assert!(bc.caps.log_rate_mbps > gp.caps.log_rate_mbps);
            assert!(bc.caps.min_io_latency_ms < gp.caps.min_io_latency_ms);
            assert!(bc.price_per_hour > gp.price_per_hour);
        }
    }

    #[test]
    fn price_increases_with_vcores_within_family() {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let mut gp: Vec<_> = cat
            .iter()
            .filter(|s| {
                s.deployment == DeploymentType::SqlDb && s.tier == ServiceTier::GeneralPurpose
            })
            .collect();
        gp.sort_by(|a, b| a.caps.vcores.partial_cmp(&b.caps.vcores).unwrap());
        for w in gp.windows(2) {
            assert!(w[1].price_per_hour > w[0].price_per_hour);
            assert!(w[1].caps.dominates(&w[0].caps));
        }
    }

    #[test]
    fn replay_skus_match_table6() {
        let skus = replay_skus();
        assert_eq!(skus.len(), 4);
        assert_eq!(skus[0].vcores(), 4);
        assert_eq!(skus[0].caps.memory_gb, 16.0);
        assert_eq!(skus[0].caps.iops, 6_000.0);
        assert_eq!(skus[1].vcores(), 8);
        assert_eq!(skus[1].caps.iops, 12_000.0);
        assert_eq!(skus[2].caps.iops, 154_000.0);
        assert_eq!(skus[3].vcores(), 32);
        assert_eq!(skus[3].caps.memory_gb, 128.0);
        assert_eq!(skus[3].caps.iops, 308_000.0);
        // Prices must be strictly increasing so Figure 12 has a usable x-axis.
        for w in skus.windows(2) {
            assert!(w[1].price_per_hour > w[0].price_per_hour);
        }
    }

    #[test]
    fn mi_catalog_starts_at_four_vcores() {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let min_mi = cat
            .iter()
            .filter(|s| s.deployment == DeploymentType::SqlMi)
            .map(|s| s.vcores())
            .min()
            .unwrap();
        assert_eq!(min_mi, 4);
    }
}
