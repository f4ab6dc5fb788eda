//! Azure SQL PaaS SKU catalog model for the Doppler engine.
//!
//! The paper's recommendation engine consumes three fixed inputs besides the
//! customer's telemetry (§3.1): "(ii) all the possible cloud target PaaS
//! SKUs; and (iii) the real-time pricing associated with each SKU". This
//! crate provides both:
//!
//! * [`sku`] — the SKU record: deployment type (SQL DB / SQL MI), service
//!   tier (General Purpose / Business Critical), and per-dimension resource
//!   capacities (Figure 1),
//! * [`storage`] — the premium-disk storage tiers P10–P60 and database file
//!   layouts that drive SQL MI General Purpose IOPS limits (Table 2, §3.2),
//! * [`generate`] — a catalog builder that expands the per-vCore scaling
//!   rules the paper reprints into the full 200+ SKU universe, plus the four
//!   machines of Table 6 used for workload replay,
//! * [`billing`] — hourly/monthly pricing (the "billing interface" of §4),
//! * [`catalog`] — the query API the engine uses to enumerate and filter
//!   candidates,
//! * [`provider`] — catalog *resolution*: a [`CatalogKey`]
//!   `(deployment, region, version)` resolves through a
//!   [`CatalogProvider`] to the `Arc`-shared catalog and billing rates
//!   serving that offer, with content fingerprints engine caches key on.

#![forbid(unsafe_code)]

pub mod billing;
pub mod catalog;
pub mod generate;
pub mod provider;
pub mod sku;
pub mod storage;

pub use billing::{BillingRates, HOURS_PER_MONTH};
pub use catalog::Catalog;
pub use generate::{azure_paas_catalog, replay_skus, CatalogSpec};
pub use provider::{
    CatalogKey, CatalogProvider, CatalogRoll, CatalogVersion, FeedError, Fingerprint,
    InMemoryCatalogProvider, PriceFeed, RefreshableCatalogProvider, Region, ResolvedCatalog,
};
pub use sku::{DeploymentType, ResourceCaps, ServiceTier, Sku, SkuId};
pub use storage::{DataFile, FileLayout, StorageTier, TierAssignment};
