//! The catalog query API the engine enumerates candidates from.

use crate::sku::{DeploymentType, ResourceCaps, ServiceTier, Sku, SkuId};

/// An immutable collection of SKUs with the lookups the engine needs.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Catalog {
    skus: Vec<Sku>,
}

impl Catalog {
    /// Build a catalog. SKUs are kept sorted by (deployment, tier, vCores)
    /// so iteration order is stable regardless of input order.
    pub fn new(mut skus: Vec<Sku>) -> Catalog {
        skus.sort_by(|a, b| {
            (a.deployment, a.tier)
                .cmp(&(b.deployment, b.tier))
                .then(a.caps.vcores.partial_cmp(&b.caps.vcores).expect("finite vcores"))
        });
        Catalog { skus }
    }

    /// Number of SKUs.
    pub fn len(&self) -> usize {
        self.skus.len()
    }

    /// True when the catalog holds no SKUs.
    pub fn is_empty(&self) -> bool {
        self.skus.is_empty()
    }

    /// Iterate over all SKUs.
    pub fn iter(&self) -> impl Iterator<Item = &Sku> {
        self.skus.iter()
    }

    /// Look up a SKU by id.
    pub fn get(&self, id: &SkuId) -> Option<&Sku> {
        self.skus.iter().find(|s| &s.id == id)
    }

    /// All SKUs of one deployment type (the assessment scoping choice the
    /// DMA tool asks the customer for up front).
    pub fn for_deployment(&self, deployment: DeploymentType) -> Vec<&Sku> {
        self.skus.iter().filter(|s| s.deployment == deployment).collect()
    }

    /// SKUs of one deployment restricted to one service tier (the §3.2
    /// Step 1 fallback "restrict our search of relevant SKUs to Business
    /// Critical ones").
    pub fn for_deployment_tier(&self, deployment: DeploymentType, tier: ServiceTier) -> Vec<&Sku> {
        self.skus.iter().filter(|s| s.deployment == deployment && s.tier == tier).collect()
    }

    /// SKUs sorted by ascending monthly cost — the x-axis of every
    /// price-performance curve.
    pub fn sorted_by_price(&self, deployment: DeploymentType) -> Vec<&Sku> {
        let mut v = self.for_deployment(deployment);
        v.sort_by(|a, b| {
            a.price_per_hour
                .partial_cmp(&b.price_per_hour)
                .expect("finite prices")
                .then_with(|| a.id.cmp(&b.id))
        });
        v
    }

    /// The cheapest SKU of a deployment whose capacities dominate the given
    /// requirement — the primitive behind the baseline strategy of §2.
    pub fn cheapest_satisfying(
        &self,
        deployment: DeploymentType,
        requirement: &ResourceCaps,
    ) -> Option<&Sku> {
        self.sorted_by_price(deployment).into_iter().find(|s| s.caps.dominates(requirement))
    }
}

impl FromIterator<Sku> for Catalog {
    fn from_iter<T: IntoIterator<Item = Sku>>(iter: T) -> Catalog {
        Catalog::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{azure_paas_catalog, CatalogSpec};

    fn catalog() -> Catalog {
        azure_paas_catalog(&CatalogSpec::default())
    }

    #[test]
    fn get_finds_known_ids() {
        let c = catalog();
        assert!(c.get(&SkuId("DB_GP_2".into())).is_some());
        assert!(c.get(&SkuId("MI_BC_80".into())).is_some());
        assert!(c.get(&SkuId("DB_GP_3".into())).is_none());
    }

    #[test]
    fn deployment_filter_partitions_catalog() {
        let c = catalog();
        let db = c.for_deployment(DeploymentType::SqlDb).len();
        let mi = c.for_deployment(DeploymentType::SqlMi).len();
        assert_eq!(db + mi, c.len());
        assert!(db > 0 && mi > 0);
    }

    #[test]
    fn sorted_by_price_is_ascending() {
        let c = catalog();
        let sorted = c.sorted_by_price(DeploymentType::SqlDb);
        for w in sorted.windows(2) {
            assert!(w[0].price_per_hour <= w[1].price_per_hour);
        }
    }

    #[test]
    fn cheapest_satisfying_small_requirement_is_smallest_gp() {
        let c = catalog();
        let req = ResourceCaps {
            vcores: 1.0,
            memory_gb: 2.0,
            max_data_gb: 100.0,
            iops: 100.0,
            log_rate_mbps: 1.0,
            min_io_latency_ms: 10.0,
            throughput_mbps: 10.0,
        };
        let s = c.cheapest_satisfying(DeploymentType::SqlDb, &req).unwrap();
        assert_eq!(s.id.to_string(), "DB_GP_2");
    }

    #[test]
    fn tight_latency_requirement_forces_bc() {
        let c = catalog();
        let req = ResourceCaps {
            vcores: 2.0,
            memory_gb: 4.0,
            max_data_gb: 100.0,
            iops: 500.0,
            log_rate_mbps: 5.0,
            min_io_latency_ms: 2.0, // GP's 5 ms floor cannot meet this
            throughput_mbps: 10.0,
        };
        let s = c.cheapest_satisfying(DeploymentType::SqlDb, &req).unwrap();
        assert_eq!(s.tier, ServiceTier::BusinessCritical);
    }

    #[test]
    fn impossible_requirement_finds_nothing() {
        let c = catalog();
        let req = ResourceCaps {
            vcores: 10_000.0,
            memory_gb: 0.0,
            max_data_gb: 0.0,
            iops: 0.0,
            log_rate_mbps: 0.0,
            min_io_latency_ms: 10.0,
            throughput_mbps: 0.0,
        };
        assert!(c.cheapest_satisfying(DeploymentType::SqlDb, &req).is_none());
    }

    #[test]
    fn with_extra_keeps_sorted_order_and_len() {
        let c = catalog();
        let before = c.len();
        let mut extra = c.get(&SkuId("DB_GP_2".into())).unwrap().clone();
        extra.id = SkuId("DB_GP_custom".into());
        let c2: Catalog = c.iter().cloned().chain([extra]).collect();
        assert_eq!(c2.len(), before + 1);
        assert!(c2.get(&SkuId("DB_GP_custom".into())).is_some());
        let keys: Vec<_> = c2.iter().map(|s| (s.deployment, s.tier, s.caps.vcores)).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_catalog_behaves() {
        let c = Catalog::new(Vec::new());
        assert!(c.is_empty());
        assert!(c.sorted_by_price(DeploymentType::SqlDb).is_empty());
    }

    #[test]
    fn from_iterator_collects() {
        let c = catalog();
        let rebuilt: Catalog = c.iter().cloned().collect();
        assert_eq!(rebuilt.len(), c.len());
    }
}
