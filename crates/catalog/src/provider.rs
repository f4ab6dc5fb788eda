//! Catalog resolution: from a `(deployment, region, version)` key to the
//! SKU catalog and billing rates that serve it.
//!
//! Production Doppler recommends against *many* offer catalogs, not one:
//! each Azure region prices the same compute shapes differently, and the
//! catalog itself is versioned as Azure adds rungs and revises limits
//! (§4's "real-time pricing associated with each SKU" is a per-region
//! feed). This module is the seam that keeps the engine agnostic of where
//! its catalog came from:
//!
//! * [`CatalogKey`] — the full identity of one offer catalog:
//!   deployment target, [`Region`], and [`CatalogVersion`];
//! * [`CatalogProvider`] — the resolution trait: key → [`ResolvedCatalog`]
//!   (an `Arc`-shared [`Catalog`], its [`BillingRates`], and a content
//!   [`fingerprint`](Catalog::fingerprint) that downstream caches key on);
//! * [`InMemoryCatalogProvider`] — the multi-region in-memory
//!   implementation: one generated Azure catalog per region at a
//!   region-specific price multiplier (the Lorentz-style abstraction of
//!   the candidate/pricing source);
//! * [`RefreshableCatalogProvider`] — the *lifecycle* wrapper: billing
//!   changes arrive as [`PriceFeed`]s, each roll
//!   bumps the region's [`CatalogVersion`] atomically and appends a
//!   [`CatalogRoll`] to the change log, while every previously published
//!   key keeps resolving so in-flight work is never yanked mid-assessment.
//!
//! # Example
//!
//! ```
//! use doppler_catalog::{
//!     CatalogKey, CatalogProvider, CatalogSpec, CatalogVersion, DeploymentType,
//!     InMemoryCatalogProvider, Region,
//! };
//!
//! // East US at list price, West Europe 8 % above it.
//! let provider = InMemoryCatalogProvider::new()
//!     .with_region(Region::new("eastus"), CatalogVersion::INITIAL, &CatalogSpec::default(), 1.0)
//!     .with_region(Region::new("westeurope"), CatalogVersion::INITIAL, &CatalogSpec::default(), 1.08);
//!
//! let east = CatalogKey::new(DeploymentType::SqlDb, Region::new("eastus"), CatalogVersion::INITIAL);
//! let west = CatalogKey::new(DeploymentType::SqlDb, Region::new("westeurope"), CatalogVersion::INITIAL);
//! let cheap = provider.resolve(&east).unwrap();
//! let dear = provider.resolve(&west).unwrap();
//! assert!(dear.rates.db_gp > cheap.rates.db_gp);
//! assert_ne!(cheap.fingerprint, dear.fingerprint);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock};

use doppler_obs::{Counter, Histogram, ObsRegistry};

use crate::billing::BillingRates;
use crate::catalog::Catalog;
use crate::generate::{azure_paas_catalog, CatalogSpec};
use crate::sku::DeploymentType;

/// An Azure-style region label (`"eastus"`, `"westeurope"`, …). Plain
/// newtype, so multi-cloud scenarios can mint their own namespaces
/// (`"aws/us-east-1"`) without touching the engine.
#[derive(
    Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct Region(pub String);

impl Region {
    /// A region from any string-ish label.
    pub fn new(label: impl Into<String>) -> Region {
        Region(label.into())
    }

    /// The region used when a caller never says — the single-catalog
    /// behaviour the seed shipped with.
    pub fn global() -> Region {
        Region("global".to_string())
    }

    /// The label.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Region {
    fn from(s: &str) -> Region {
        Region::new(s)
    }
}

/// A monotonically increasing catalog revision. Azure revises limits and
/// adds rungs; pinning the version in the key means an engine trained
/// against `v1` is never served a `v2` catalog by accident.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct CatalogVersion(pub u32);

impl CatalogVersion {
    /// The first published revision.
    pub const INITIAL: CatalogVersion = CatalogVersion(1);

    /// The next revision after this one.
    pub fn next(self) -> CatalogVersion {
        CatalogVersion(self.0 + 1)
    }
}

impl Default for CatalogVersion {
    fn default() -> CatalogVersion {
        CatalogVersion::INITIAL
    }
}

impl fmt::Display for CatalogVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The full identity of one offer catalog: which deployment family it
/// serves, in which [`Region`], at which [`CatalogVersion`].
///
/// This is the unit engines are trained and cached per: two fleets
/// assessing the same deployment in different regions resolve different
/// keys and therefore different prices, while two fleets sharing a key
/// share one trained engine.
///
/// ```
/// use doppler_catalog::{CatalogKey, CatalogVersion, DeploymentType, Region};
///
/// let key = CatalogKey::new(DeploymentType::SqlMi, Region::new("eastus"), CatalogVersion::INITIAL);
/// assert_eq!(key.to_string(), "MI@eastus#v1");
/// assert_eq!(CatalogKey::production(DeploymentType::SqlDb).region, Region::global());
/// ```
#[derive(
    Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct CatalogKey {
    pub deployment: DeploymentType,
    pub region: Region,
    pub version: CatalogVersion,
}

impl CatalogKey {
    pub fn new(deployment: DeploymentType, region: Region, version: CatalogVersion) -> CatalogKey {
        CatalogKey { deployment, region, version }
    }

    /// The default key for a deployment: the [`Region::global`] catalog at
    /// its initial version — what single-catalog callers resolve.
    pub fn production(deployment: DeploymentType) -> CatalogKey {
        CatalogKey::new(deployment, Region::global(), CatalogVersion::INITIAL)
    }

    /// The same key against another region.
    pub fn in_region(mut self, region: Region) -> CatalogKey {
        self.region = region;
        self
    }

    /// The same key at another catalog version.
    pub fn at_version(mut self, version: CatalogVersion) -> CatalogKey {
        self.version = version;
        self
    }
}

impl fmt::Display for CatalogKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}#{}", self.deployment, self.region, self.version)
    }
}

/// A streaming FNV-1a 64-bit hasher for content fingerprints.
///
/// Deliberately *not* `std::hash::Hasher`: fingerprints are stable
/// identities that cross thread and (in principle) process boundaries, so
/// they must not depend on `RandomState` seeding, and `f64`s are hashed by
/// bit pattern explicitly rather than through a blanket impl.
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

impl Fingerprint {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Fingerprint {
        Fingerprint(Self::OFFSET_BASIS)
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Hash an `f64` by bit pattern (`-0.0` and `0.0` therefore differ —
    /// fingerprints identify inputs, they do not define numeric equality).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Hash a string length-prefixed, so `("ab","c")` ≠ `("a","bc")`.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint::new()
    }
}

impl BillingRates {
    /// Rates scaled by a region price multiplier (West Europe lists ~8 %
    /// above East US; sovereign clouds run higher still).
    pub fn scaled(&self, multiplier: f64) -> BillingRates {
        BillingRates {
            db_gp: self.db_gp * multiplier,
            db_bc: self.db_bc * multiplier,
            mi_gp: self.mi_gp * multiplier,
            mi_bc: self.mi_bc * multiplier,
        }
    }

    /// Fold these rates into a content fingerprint.
    pub fn write_fingerprint(&self, fp: &mut Fingerprint) {
        fp.write_f64(self.db_gp);
        fp.write_f64(self.db_bc);
        fp.write_f64(self.mi_gp);
        fp.write_f64(self.mi_bc);
    }
}

impl Catalog {
    /// A deterministic content fingerprint over every SKU's identity,
    /// capacities, and price — two catalogs fingerprint equal iff their
    /// contents are bit-for-bit equal. Engine caches key on this, so a
    /// revised catalog can never serve a stale engine.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_usize(self.len());
        for sku in self.iter() {
            fp.write_str(&sku.id.0);
            fp.write_u8(sku.deployment as u8);
            fp.write_u8(sku.tier as u8);
            fp.write_f64(sku.caps.vcores);
            fp.write_f64(sku.caps.memory_gb);
            fp.write_f64(sku.caps.max_data_gb);
            fp.write_f64(sku.caps.iops);
            fp.write_f64(sku.caps.log_rate_mbps);
            fp.write_f64(sku.caps.min_io_latency_ms);
            fp.write_f64(sku.caps.throughput_mbps);
            fp.write_f64(sku.price_per_hour);
        }
        fp.finish()
    }
}

/// One resolved catalog: the shared SKU universe, the billing rates that
/// priced it, and the content fingerprint caches key on.
#[derive(Debug, Clone)]
pub struct ResolvedCatalog {
    pub catalog: Arc<Catalog>,
    pub rates: BillingRates,
    /// Covers the catalog contents *and* the rates — precomputed at
    /// registration so the warm resolution path never rehashes 40+ SKUs.
    pub fingerprint: u64,
}

impl ResolvedCatalog {
    /// Bundle a catalog with its rates, computing the fingerprint once.
    pub fn new(catalog: Arc<Catalog>, rates: BillingRates) -> ResolvedCatalog {
        let mut fp = Fingerprint::new();
        fp.write_u64(catalog.fingerprint());
        rates.write_fingerprint(&mut fp);
        ResolvedCatalog { catalog, rates, fingerprint: fp.finish() }
    }
}

/// The resolution seam between engines and their catalog source.
///
/// Implementations must be cheap on the warm path — `resolve` is called
/// once per engine lookup, so a map access plus an `Arc` bump is the
/// budget. `Send + Sync` because one provider serves every worker of a
/// fleet.
pub trait CatalogProvider: Send + Sync {
    /// The catalog serving `key`, or `None` when no such offer exists.
    fn resolve(&self, key: &CatalogKey) -> Option<ResolvedCatalog>;

    /// Every key this provider can resolve, in deterministic order.
    /// Default: unknown (empty) — providers backed by remote feeds cannot
    /// enumerate.
    fn keys(&self) -> Vec<CatalogKey> {
        Vec::new()
    }
}

/// An in-memory multi-region [`CatalogProvider`]: one entry per
/// [`CatalogKey`], typically generated per region from a [`CatalogSpec`]
/// at a region price multiplier.
///
/// Both deployments of a region share one `Arc<Catalog>` allocation — the
/// key narrows *which* SKUs an engine enumerates, not which catalog object
/// it holds.
#[derive(Default)]
pub struct InMemoryCatalogProvider {
    entries: HashMap<CatalogKey, ResolvedCatalog>,
}

impl InMemoryCatalogProvider {
    pub fn new() -> InMemoryCatalogProvider {
        InMemoryCatalogProvider::default()
    }

    /// A provider holding only the default production catalog (both
    /// deployments, [`Region::global`], [`CatalogVersion::INITIAL`]) — the
    /// drop-in equivalent of the seed's single hard-coded catalog.
    pub fn production() -> InMemoryCatalogProvider {
        InMemoryCatalogProvider::new().with_region(
            Region::global(),
            CatalogVersion::INITIAL,
            &CatalogSpec::default(),
            1.0,
        )
    }

    /// Register (or replace) one key's catalog and rates.
    pub fn insert(&mut self, key: CatalogKey, catalog: Arc<Catalog>, rates: BillingRates) {
        self.entries.insert(key, ResolvedCatalog::new(catalog, rates));
    }

    /// Generate and register a whole region at a price multiplier: the
    /// Azure PaaS universe of `spec` is expanded once with the scaled
    /// rates, shared across both deployment keys of the region.
    pub fn with_region(
        mut self,
        region: Region,
        version: CatalogVersion,
        spec: &CatalogSpec,
        price_multiplier: f64,
    ) -> InMemoryCatalogProvider {
        let rates = spec.rates.scaled(price_multiplier);
        let regional_spec = CatalogSpec { rates };
        let catalog = Arc::new(azure_paas_catalog(&regional_spec));
        for deployment in [DeploymentType::SqlDb, DeploymentType::SqlMi] {
            self.insert(
                CatalogKey::new(deployment, region.clone(), version),
                Arc::clone(&catalog),
                rates,
            );
        }
        self
    }

    /// Number of registered keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl CatalogProvider for InMemoryCatalogProvider {
    fn resolve(&self, key: &CatalogKey) -> Option<ResolvedCatalog> {
        self.entries.get(key).cloned()
    }

    fn keys(&self) -> Vec<CatalogKey> {
        let mut keys: Vec<CatalogKey> = self.entries.keys().cloned().collect();
        keys.sort();
        keys
    }
}

/// One price-feed update for a region — the §4 "real-time pricing" input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PriceFeed {
    /// Scale the region's *current* rates (and therefore every SKU price)
    /// by a factor — a percentage price cut or rise, compounding across
    /// feeds.
    Multiplier(f64),
    /// Replace the region's rates outright; SKU prices re-derive from the
    /// new rates exactly as catalog generation would.
    Rates(BillingRates),
}

/// One entry of the [`RefreshableCatalogProvider`] change log: which key
/// rolled to which, and the content fingerprint the new key resolves to.
/// Downstream caches (the engine registry) retire `old_key` and train
/// `new_key` off this record.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogRoll {
    pub old_key: CatalogKey,
    pub new_key: CatalogKey,
    /// Fingerprint of the new key's [`ResolvedCatalog`].
    pub fingerprint: u64,
}

/// Why a feed could not be applied.
#[derive(Debug, Clone, PartialEq)]
pub enum FeedError {
    /// No catalog is published for this region (feeds re-price existing
    /// offers; they do not create regions).
    UnknownRegion(Region),
    /// The multiplier was not a finite positive number.
    InvalidMultiplier(f64),
    /// The fed rates contained a non-finite or non-positive entry — a
    /// corrupted feed must be rejected before it can publish a catalog
    /// that panics downstream price sorts.
    InvalidRates(BillingRates),
}

impl fmt::Display for FeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedError::UnknownRegion(region) => {
                write!(f, "no catalog published for region {region}")
            }
            FeedError::InvalidMultiplier(m) => {
                write!(f, "price multiplier must be finite and positive, got {m}")
            }
            FeedError::InvalidRates(rates) => {
                write!(f, "billing rates must be finite and positive, got {rates:?}")
            }
        }
    }
}

impl std::error::Error for FeedError {}

/// Every rate finite and positive — what a publishable feed must satisfy.
fn rates_are_valid(rates: &BillingRates) -> bool {
    [rates.db_gp, rates.db_bc, rates.mi_gp, rates.mi_bc]
        .iter()
        .all(|rate| rate.is_finite() && *rate > 0.0)
}

/// Re-price a catalog against new rates, exactly as generation would:
/// every SKU's hourly price is re-derived through
/// [`BillingRates::hourly`], so a re-priced catalog is bit-for-bit equal
/// to one generated from a spec carrying those rates. Capacities are
/// untouched — a price feed changes what a shape costs, not what it does.
fn reprice(catalog: &Catalog, rates: &BillingRates) -> Catalog {
    Catalog::new(
        catalog
            .iter()
            .map(|sku| {
                let mut sku = sku.clone();
                sku.price_per_hour = rates.hourly(sku.deployment, sku.tier, sku.caps.vcores);
                sku
            })
            .collect(),
    )
}

/// Versioned entries layered over a wrapped provider, plus the per-region
/// version frontier and the roll log — everything behind one `RwLock` so a
/// feed lands atomically: no reader ever sees half a region rolled.
struct RefreshState {
    /// Keys published by feeds (the wrapped provider's own keys
    /// stay resolvable underneath).
    overrides: HashMap<CatalogKey, ResolvedCatalog>,
    /// Latest published version per (deployment, region). Strictly
    /// monotone: feeds only ever move it forward.
    latest: HashMap<(DeploymentType, Region), CatalogVersion>,
    log: Vec<CatalogRoll>,
}

/// A [`CatalogProvider`] wrapper that accepts **price-feed updates** at
/// runtime — the missing lifecycle half of the
/// provider seam (PAPER.md §4: pricing is a live feed, not a constant).
///
/// Semantics:
///
/// * [`apply_feed`](RefreshableCatalogProvider::apply_feed) re-prices one
///   region and bumps its [`CatalogVersion`] — atomically for every
///   deployment published in the region, so `DB@west#v2` and `MI@west#v2`
///   appear together;
/// * a feed that changes nothing (multiplier `1.0`, or re-sending the
///   rates already in force) is **idempotent**: no version bump, no roll —
///   the fingerprint changes iff the rates change;
/// * old keys are never unpublished: an engine pinned to `v1` keeps
///   resolving until a registry-level retirement tombstones it, so version
///   rolls never race in-flight assessments;
/// * every roll is appended to the
///   [`change_log`](RefreshableCatalogProvider::change_log) as a
///   [`CatalogRoll`], the record fleet operators feed into
///   `DriftMonitor::on_catalog_roll`.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use doppler_catalog::{
///     CatalogProvider, DeploymentType, InMemoryCatalogProvider, PriceFeed,
///     RefreshableCatalogProvider, Region,
/// };
///
/// let provider = RefreshableCatalogProvider::new(Arc::new(InMemoryCatalogProvider::production()));
/// let v1 = provider.latest(DeploymentType::SqlDb, &Region::global()).unwrap();
///
/// // A 7 % price cut lands: the global region rolls to v2.
/// let rolls = provider.apply_feed(&Region::global(), PriceFeed::Multiplier(0.93)).unwrap();
/// let v2 = provider.latest(DeploymentType::SqlDb, &Region::global()).unwrap();
/// assert_eq!(v2.version, v1.version.next());
/// assert_eq!(rolls.len(), 2, "both deployments of the region roll together");
///
/// // Old and new keys both resolve; the new one is 7 % cheaper.
/// let old = provider.resolve(&v1).unwrap();
/// let new = provider.resolve(&v2).unwrap();
/// assert!(new.rates.db_gp < old.rates.db_gp);
/// ```
pub struct RefreshableCatalogProvider {
    inner: Arc<dyn CatalogProvider>,
    state: RwLock<RefreshState>,
    obs: ProviderObs,
}

/// Write-aside lifecycle instrumentation: feed-apply latency, a roll
/// counter, and a `catalog.roll` event per published roll. No-ops until
/// [`RefreshableCatalogProvider::with_obs`] is called.
#[derive(Default)]
struct ProviderObs {
    registry: ObsRegistry,
    /// `catalog.feed_apply` — one observation per
    /// [`apply_feed`](RefreshableCatalogProvider::apply_feed) call,
    /// including rejected and idempotent feeds.
    feed_apply: Histogram,
    /// `catalog.rolls` — rolls published by feeds.
    rolls: Counter,
}

impl RefreshableCatalogProvider {
    /// Wrap a provider. The wrapped provider's enumerable keys seed the
    /// per-region version frontier; providers that cannot enumerate
    /// ([`CatalogProvider::keys`] empty) start with no known regions, so
    /// every feed to them fails with [`FeedError::UnknownRegion`].
    pub fn new(inner: Arc<dyn CatalogProvider>) -> RefreshableCatalogProvider {
        let mut latest: HashMap<(DeploymentType, Region), CatalogVersion> = HashMap::new();
        for key in inner.keys() {
            let entry = latest.entry((key.deployment, key.region.clone())).or_insert(key.version);
            *entry = (*entry).max(key.version);
        }
        RefreshableCatalogProvider {
            inner,
            state: RwLock::new(RefreshState { overrides: HashMap::new(), latest, log: Vec::new() }),
            obs: ProviderObs::default(),
        }
    }

    /// Record feed-apply latency (`catalog.feed_apply`), a roll counter
    /// (`catalog.rolls`), and one `catalog.roll` event per published roll
    /// into `obs`. Write-aside: resolution, feeds, and the change log are
    /// unaffected. Builder-style; set before sharing the provider.
    pub fn with_obs(mut self, obs: &ObsRegistry) -> RefreshableCatalogProvider {
        self.obs = ProviderObs {
            registry: obs.clone(),
            feed_apply: obs.histogram("catalog.feed_apply"),
            rolls: obs.counter("catalog.rolls"),
        };
        self
    }

    /// The production single-region provider, made refreshable.
    pub fn production() -> RefreshableCatalogProvider {
        RefreshableCatalogProvider::new(Arc::new(InMemoryCatalogProvider::production()))
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, RefreshState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, RefreshState> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The latest published key for `(deployment, region)`, or `None` when
    /// the region has never been published for that deployment.
    pub fn latest(&self, deployment: DeploymentType, region: &Region) -> Option<CatalogKey> {
        self.read()
            .latest
            .get(&(deployment, region.clone()))
            .map(|&version| CatalogKey::new(deployment, region.clone(), version))
    }

    /// The full change log, oldest roll first.
    pub fn change_log(&self) -> Vec<CatalogRoll> {
        self.read().log.clone()
    }

    /// The change log from `offset` onward — the cursor-based
    /// subscription primitive. A consumer that has already handled the
    /// first `offset` rolls calls this with its cursor and advances it by
    /// the returned length; replaying the same cursor twice between rolls
    /// returns nothing, so a subscriber (e.g.
    /// `DriftMonitor::dispatch_rolls`) never re-dispatches a roll it has
    /// handled. An `offset` past the end of the log is not an error — it
    /// returns the empty tail.
    pub fn change_log_since(&self, offset: usize) -> Vec<CatalogRoll> {
        let state = self.read();
        state.log[offset.min(state.log.len())..].to_vec()
    }

    /// Rolls applied so far.
    pub fn rolls(&self) -> usize {
        self.read().log.len()
    }

    /// Apply a price feed to one region: every deployment published in the
    /// region is re-priced and republished under the region's next
    /// [`CatalogVersion`], in one atomic update. Returns the
    /// [`CatalogRoll`]s appended to the change log — empty when the feed
    /// changes nothing (idempotent duplicate).
    pub fn apply_feed(
        &self,
        region: &Region,
        feed: PriceFeed,
    ) -> Result<Vec<CatalogRoll>, FeedError> {
        let _span = self.obs.feed_apply.start();
        match feed {
            PriceFeed::Multiplier(m) if !m.is_finite() || m <= 0.0 => {
                return Err(FeedError::InvalidMultiplier(m));
            }
            PriceFeed::Rates(rates) if !rates_are_valid(&rates) => {
                return Err(FeedError::InvalidRates(rates));
            }
            _ => {}
        }
        let mut state = self.write();
        // Deployments published in this region, in fixed (SqlDb, SqlMi)
        // order so the change log is deterministic.
        let deployments: Vec<DeploymentType> = [DeploymentType::SqlDb, DeploymentType::SqlMi]
            .into_iter()
            .filter(|&d| state.latest.contains_key(&(d, region.clone())))
            .collect();
        if deployments.is_empty() {
            return Err(FeedError::UnknownRegion(region.clone()));
        }

        // Resolve every current entry and compute its re-priced successor.
        // Deployments sharing one catalog allocation keep sharing it.
        let mut repriced: Vec<(CatalogKey, ResolvedCatalog, ResolvedCatalog)> = Vec::new();
        let mut shared: Vec<(*const Catalog, Arc<Catalog>)> = Vec::new();
        for &deployment in &deployments {
            let version = state.latest[&(deployment, region.clone())];
            let old_key = CatalogKey::new(deployment, region.clone(), version);
            let current = resolve_layered(&state, &self.inner, &old_key)
                .ok_or_else(|| FeedError::UnknownRegion(region.clone()))?;
            let rates = match feed {
                PriceFeed::Multiplier(m) => current.rates.scaled(m),
                PriceFeed::Rates(rates) => rates,
            };
            let ptr = Arc::as_ptr(&current.catalog);
            let catalog = match shared.iter().find(|(p, _)| *p == ptr) {
                Some((_, arc)) => Arc::clone(arc),
                None => {
                    let arc = Arc::new(reprice(&current.catalog, &rates));
                    shared.push((ptr, Arc::clone(&arc)));
                    arc
                }
            };
            repriced.push((old_key, current, ResolvedCatalog::new(catalog, rates)));
        }

        // Idempotence: a feed that leaves every fingerprint unchanged is a
        // no-op — no version bump, no log entries.
        if repriced.iter().all(|(_, old, new)| old.fingerprint == new.fingerprint) {
            return Ok(Vec::new());
        }

        // One atomic bump for the whole region: every deployment lands on
        // the same next version (the successor of the region's frontier),
        // even if the wrapped provider published them at different versions.
        let next = deployments
            .iter()
            .map(|&d| state.latest[&(d, region.clone())])
            .max()
            .expect("non-empty")
            .next();
        let mut rolls = Vec::with_capacity(repriced.len());
        for (old_key, _, resolved) in repriced {
            let new_key = old_key.clone().at_version(next);
            let roll = CatalogRoll {
                old_key,
                new_key: new_key.clone(),
                fingerprint: resolved.fingerprint,
            };
            state.latest.insert((new_key.deployment, new_key.region.clone()), next);
            state.overrides.insert(new_key, resolved);
            state.log.push(roll.clone());
            rolls.push(roll);
        }
        drop(state);
        self.obs.rolls.add(rolls.len() as u64);
        if self.obs.registry.is_enabled() {
            for roll in &rolls {
                self.obs
                    .registry
                    .event("catalog.roll", &format!("{} -> {}", roll.old_key, roll.new_key));
            }
        }
        Ok(rolls)
    }
}

/// Overrides first, the wrapped provider underneath — the single
/// resolution rule, shared by the trait impl and `apply_feed`'s
/// read-current step (which already holds the lock).
fn resolve_layered(
    state: &RefreshState,
    inner: &Arc<dyn CatalogProvider>,
    key: &CatalogKey,
) -> Option<ResolvedCatalog> {
    state.overrides.get(key).cloned().or_else(|| inner.resolve(key))
}

impl CatalogProvider for RefreshableCatalogProvider {
    fn resolve(&self, key: &CatalogKey) -> Option<ResolvedCatalog> {
        let state = self.read();
        resolve_layered(&state, &self.inner, key)
    }

    fn keys(&self) -> Vec<CatalogKey> {
        let state = self.read();
        let mut keys = self.inner.keys();
        keys.extend(state.overrides.keys().cloned());
        keys.sort();
        keys.dedup();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CatalogSpec {
        CatalogSpec::default()
    }

    #[test]
    fn with_obs_counts_rolls_and_times_feeds() {
        let obs = ObsRegistry::enabled();
        let provider = RefreshableCatalogProvider::production().with_obs(&obs);
        let rolls = provider.apply_feed(&Region::global(), PriceFeed::Multiplier(0.9)).unwrap();
        assert!(!rolls.is_empty());
        // Idempotent duplicate: latency still recorded, no new rolls.
        provider.apply_feed(&Region::global(), PriceFeed::Multiplier(1.0)).unwrap();
        let s = obs.snapshot();
        assert_eq!(s.counter("catalog.rolls"), Some(provider.rolls() as u64));
        assert_eq!(s.histogram("catalog.feed_apply").unwrap().count, 2);
        assert_eq!(s.events.iter().filter(|e| e.name == "catalog.roll").count(), rolls.len());
    }

    #[test]
    fn key_display_reads_compactly() {
        let key = CatalogKey::production(DeploymentType::SqlDb);
        assert_eq!(key.to_string(), "DB@global#v1");
        let key = key.in_region(Region::new("eastus")).at_version(CatalogVersion(3));
        assert_eq!(key.to_string(), "DB@eastus#v3");
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_sensitive() {
        let a = azure_paas_catalog(&spec());
        let b = azure_paas_catalog(&spec());
        assert_eq!(a.fingerprint(), b.fingerprint());

        let pricier = CatalogSpec { rates: spec().rates.scaled(1.01) };
        assert_ne!(a.fingerprint(), azure_paas_catalog(&pricier).fingerprint());

        let custom = crate::sku::Sku {
            id: crate::sku::SkuId("DB_GP_custom".into()),
            ..b.iter().next().unwrap().clone()
        };
        let extra: Catalog = a.iter().cloned().chain([custom]).collect();
        assert_ne!(a.fingerprint(), extra.fingerprint());
    }

    #[test]
    fn fingerprint_write_str_is_length_prefixed() {
        let mut a = Fingerprint::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fingerprint::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn region_multiplier_scales_every_price() {
        let provider = InMemoryCatalogProvider::new()
            .with_region(Region::new("eastus"), CatalogVersion::INITIAL, &spec(), 1.0)
            .with_region(Region::new("westeurope"), CatalogVersion::INITIAL, &spec(), 1.08);
        let east = provider
            .resolve(&CatalogKey::new(
                DeploymentType::SqlDb,
                Region::new("eastus"),
                CatalogVersion::INITIAL,
            ))
            .unwrap();
        let west = provider
            .resolve(&CatalogKey::new(
                DeploymentType::SqlDb,
                Region::new("westeurope"),
                CatalogVersion::INITIAL,
            ))
            .unwrap();
        assert_eq!(east.catalog.len(), west.catalog.len());
        for (e, w) in east.catalog.iter().zip(west.catalog.iter()) {
            assert_eq!(e.id, w.id);
            assert!((w.price_per_hour - e.price_per_hour * 1.08).abs() < 1e-9, "{}", e.id);
        }
        assert!((west.rates.mi_bc - east.rates.mi_bc * 1.08).abs() < 1e-12);
    }

    #[test]
    fn both_deployments_of_a_region_share_one_catalog_allocation() {
        let provider = InMemoryCatalogProvider::production();
        let db = provider.resolve(&CatalogKey::production(DeploymentType::SqlDb)).unwrap();
        let mi = provider.resolve(&CatalogKey::production(DeploymentType::SqlMi)).unwrap();
        assert!(Arc::ptr_eq(&db.catalog, &mi.catalog));
        assert_eq!(db.fingerprint, mi.fingerprint);
    }

    #[test]
    fn unknown_keys_resolve_to_none() {
        let provider = InMemoryCatalogProvider::production();
        let missing = CatalogKey::production(DeploymentType::SqlDb).in_region("mars".into());
        assert!(provider.resolve(&missing).is_none());
        let stale = CatalogKey::production(DeploymentType::SqlDb).at_version(CatalogVersion(2));
        assert!(provider.resolve(&stale).is_none());
    }

    #[test]
    fn keys_enumerate_sorted() {
        let provider = InMemoryCatalogProvider::new()
            .with_region(Region::new("b"), CatalogVersion::INITIAL, &spec(), 1.0)
            .with_region(Region::new("a"), CatalogVersion::INITIAL, &spec(), 1.0);
        let keys = provider.keys();
        assert_eq!(keys.len(), 4);
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn versions_advance() {
        assert_eq!(CatalogVersion::INITIAL.next(), CatalogVersion(2));
        assert_eq!(CatalogVersion::default(), CatalogVersion::INITIAL);
        assert!(CatalogVersion(2) > CatalogVersion::INITIAL);
    }

    fn refreshable() -> RefreshableCatalogProvider {
        RefreshableCatalogProvider::new(Arc::new(
            InMemoryCatalogProvider::production().with_region(
                Region::new("westeurope"),
                CatalogVersion::INITIAL,
                &spec(),
                1.08,
            ),
        ))
    }

    #[test]
    fn feed_rolls_every_deployment_of_the_region_to_one_new_version() {
        let provider = refreshable();
        let west = Region::new("westeurope");
        let rolls = provider.apply_feed(&west, PriceFeed::Multiplier(0.9)).unwrap();
        assert_eq!(rolls.len(), 2);
        for roll in &rolls {
            assert_eq!(roll.old_key.version, CatalogVersion::INITIAL);
            assert_eq!(roll.new_key.version, CatalogVersion(2));
            assert_eq!(roll.new_key.region, west);
            let resolved = provider.resolve(&roll.new_key).unwrap();
            assert_eq!(resolved.fingerprint, roll.fingerprint);
        }
        assert_eq!(provider.change_log(), rolls);
        // The untouched region's frontier did not move.
        let global = provider.latest(DeploymentType::SqlDb, &Region::global()).unwrap();
        assert_eq!(global.version, CatalogVersion::INITIAL);
    }

    #[test]
    fn change_log_since_is_a_replay_safe_cursor() {
        let provider = refreshable();
        let west = Region::new("westeurope");
        assert!(provider.change_log_since(0).is_empty(), "no rolls yet");

        let first = provider.apply_feed(&west, PriceFeed::Multiplier(0.9)).unwrap();
        assert_eq!(provider.change_log_since(0), provider.change_log());
        assert_eq!(provider.change_log_since(0), first);
        let mut cursor = provider.rolls();
        assert!(provider.change_log_since(cursor).is_empty(), "cursor drained the log");
        assert!(
            provider.change_log_since(cursor).is_empty(),
            "replaying the same cursor twice yields nothing new"
        );

        let second = provider.apply_feed(&Region::global(), PriceFeed::Multiplier(0.8)).unwrap();
        let tail = provider.change_log_since(cursor);
        assert_eq!(tail, second, "only the rolls after the cursor come back");
        cursor += tail.len();
        assert_eq!(cursor, provider.rolls());
        assert!(provider.change_log_since(cursor).is_empty());
        assert!(
            provider.change_log_since(cursor + 10).is_empty(),
            "past-the-end is empty, not a panic"
        );
    }

    #[test]
    fn feed_reprices_exactly_like_generation_would() {
        let provider = refreshable();
        let west = Region::new("westeurope");
        provider.apply_feed(&west, PriceFeed::Multiplier(0.9)).unwrap();
        let key = provider.latest(DeploymentType::SqlDb, &west).unwrap();
        let rolled = provider.resolve(&key).unwrap();
        // The reference: generate the catalog from the rolled rates
        // directly. Bit-for-bit equal prices and fingerprint.
        let rates = spec().rates.scaled(1.08).scaled(0.9);
        let reference = azure_paas_catalog(&CatalogSpec { rates });
        assert_eq!(rolled.catalog.fingerprint(), reference.fingerprint());
        for (a, b) in rolled.catalog.iter().zip(reference.iter()) {
            assert_eq!(a.price_per_hour.to_bits(), b.price_per_hour.to_bits(), "{}", a.id);
            assert_eq!(a.caps.iops, b.caps.iops, "capacities are untouched");
        }
        // Both deployments of the rolled region still share one catalog
        // allocation, as the in-memory provider publishes them.
        let mi_key = CatalogKey::new(DeploymentType::SqlMi, west, key.version);
        let mi = provider.resolve(&mi_key).unwrap();
        assert!(Arc::ptr_eq(&rolled.catalog, &mi.catalog));
    }

    #[test]
    fn old_keys_keep_resolving_after_a_roll() {
        let provider = refreshable();
        let west = Region::new("westeurope");
        let v1 = provider.latest(DeploymentType::SqlDb, &west).unwrap();
        let before = provider.resolve(&v1).unwrap();
        provider.apply_feed(&west, PriceFeed::Multiplier(1.2)).unwrap();
        let after = provider.resolve(&v1).unwrap();
        assert_eq!(before.fingerprint, after.fingerprint, "v1 is immutable");
        assert_eq!(provider.keys().len(), 4 + 2, "old and new keys both enumerate");
    }

    #[test]
    fn feed_to_unknown_region_is_a_typed_error() {
        let provider = refreshable();
        let err =
            provider.apply_feed(&Region::new("mars"), PriceFeed::Multiplier(0.5)).unwrap_err();
        assert_eq!(err, FeedError::UnknownRegion(Region::new("mars")));
        assert!(err.to_string().contains("mars"));
        assert_eq!(provider.rolls(), 0);
    }

    #[test]
    fn invalid_multipliers_are_rejected() {
        let provider = refreshable();
        for m in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = provider.apply_feed(&Region::global(), PriceFeed::Multiplier(m)).unwrap_err();
            assert!(matches!(err, FeedError::InvalidMultiplier(_)), "{m}");
        }
        assert_eq!(provider.rolls(), 0);
    }

    #[test]
    fn corrupted_rates_feeds_are_rejected_before_publishing() {
        let provider = refreshable();
        for bad in [f64::NAN, f64::INFINITY, 0.0, -0.25] {
            let rates = BillingRates { db_gp: bad, ..BillingRates::default() };
            let err = provider.apply_feed(&Region::global(), PriceFeed::Rates(rates)).unwrap_err();
            assert!(matches!(err, FeedError::InvalidRates(_)), "{bad}");
        }
        // Nothing rolled, nothing published: the frontier never moved.
        assert_eq!(provider.rolls(), 0);
        assert_eq!(provider.latest(DeploymentType::SqlDb, &Region::global()).unwrap().version.0, 1);
    }

    #[test]
    fn duplicate_feeds_are_idempotent() {
        let provider = refreshable();
        let west = Region::new("westeurope");
        // Multiplier 1.0 changes nothing: no roll, no version bump.
        assert!(provider.apply_feed(&west, PriceFeed::Multiplier(1.0)).unwrap().is_empty());
        assert_eq!(provider.latest(DeploymentType::SqlDb, &west).unwrap().version.0, 1);
        // A real change rolls once; re-sending the same absolute rates is
        // then a no-op.
        let rates = spec().rates.scaled(0.8);
        assert_eq!(provider.apply_feed(&west, PriceFeed::Rates(rates)).unwrap().len(), 2);
        assert!(provider.apply_feed(&west, PriceFeed::Rates(rates)).unwrap().is_empty());
        assert_eq!(provider.latest(DeploymentType::SqlDb, &west).unwrap().version.0, 2);
        assert_eq!(provider.rolls(), 2);
    }

    #[test]
    fn fingerprint_changes_iff_rates_change() {
        let provider = refreshable();
        let west = Region::new("westeurope");
        let v1 = provider.resolve(&provider.latest(DeploymentType::SqlDb, &west).unwrap()).unwrap();
        // Unchanged rates → no new fingerprint (no roll at all).
        assert!(provider.apply_feed(&west, PriceFeed::Multiplier(1.0)).unwrap().is_empty());
        // Changed rates → the roll's fingerprint differs from v1's.
        let rolls = provider.apply_feed(&west, PriceFeed::Multiplier(1.01)).unwrap();
        assert!(rolls.iter().all(|r| r.fingerprint != v1.fingerprint));
    }

    #[test]
    fn multiplier_feeds_compound() {
        let provider = refreshable();
        let west = Region::new("westeurope");
        provider.apply_feed(&west, PriceFeed::Multiplier(0.5)).unwrap();
        provider.apply_feed(&west, PriceFeed::Multiplier(0.5)).unwrap();
        let key = provider.latest(DeploymentType::SqlDb, &west).unwrap();
        assert_eq!(key.version.0, 3);
        let resolved = provider.resolve(&key).unwrap();
        let base = spec().rates.scaled(1.08);
        assert!((resolved.rates.db_gp - base.db_gp * 0.25).abs() < 1e-12);
    }
}
