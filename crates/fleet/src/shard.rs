//! Shard planning for the fleet service.
//!
//! A [`ShardPlan`] decides which of N independent shards — each with its
//! own bounded queue, worker pool, and aggregator — a request routes to,
//! keyed by the request's [`CatalogKey`](doppler_catalog::CatalogKey)
//! region. Keyless requests route as the global region, so a single-region
//! fleet with a single-shard plan behaves exactly like the unsharded
//! service.
//!
//! Routing must be a pure function of the request (never of load or
//! timing): the equivalence suites assert sharded runs are bit-for-bit
//! identical to unsharded ones, which only holds if the same request
//! always lands on the same shard.

use doppler_catalog::{Fingerprint, Region};

/// How a sharded [`FleetService`](crate::FleetService) partitions work.
///
/// Routing hashes the region label (FNV-1a) across
/// [`shards`](ShardPlan::shards).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
}

impl Default for ShardPlan {
    fn default() -> ShardPlan {
        ShardPlan::single()
    }
}

impl ShardPlan {
    /// One shard: the unsharded service, exactly.
    pub fn single() -> ShardPlan {
        ShardPlan::by_region(1)
    }

    /// `shards` shards (clamped to at least 1), routed by hashing each
    /// request's region label.
    pub fn by_region(shards: usize) -> ShardPlan {
        ShardPlan { shards: shards.max(1) }
    }

    /// Number of shards in the plan.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard a request routes to. `None` — a request with no pinned
    /// catalog key — routes as [`Region::global`], so keyless and
    /// explicitly-global requests share a shard.
    pub fn shard_of(&self, region: Option<&Region>) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let global = Region::global();
        let region = region.unwrap_or(&global);
        // FNV-1a over the raw label bytes (not `write_str`, which would
        // length-prefix them): stable across runs and platforms, unlike
        // `DefaultHasher`, whose keys are randomized per process.
        let mut hash = Fingerprint::new();
        hash.write_bytes(region.as_str().as_bytes());
        hash.finish() as usize % self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let plan = ShardPlan::single();
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.shard_of(None), 0);
        assert_eq!(plan.shard_of(Some(&Region::new("westeurope"))), 0);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        assert_eq!(ShardPlan::by_region(0).shards(), 1);
    }

    #[test]
    fn keyless_requests_route_as_the_global_region() {
        for shards in [2, 3, 4, 7] {
            let plan = ShardPlan::by_region(shards);
            assert_eq!(plan.shard_of(None), plan.shard_of(Some(&Region::global())));
        }
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let plan = ShardPlan::by_region(4);
        for name in ["westeurope", "eastasia", "centralus", "global", "atlantis"] {
            let region = Region::new(name);
            let shard = plan.shard_of(Some(&region));
            assert!(shard < 4);
            assert_eq!(shard, plan.shard_of(Some(&region)), "{name} must route stably");
        }
    }

    #[test]
    fn distinct_regions_spread_across_shards() {
        let plan = ShardPlan::by_region(4);
        let mut seen = [false; 4];
        for i in 0..64 {
            seen[plan.shard_of(Some(&Region::new(format!("region-{i}"))))] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 regions over 4 shards must hit every shard");
    }
}
