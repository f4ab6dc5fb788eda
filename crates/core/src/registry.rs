//! The [`EngineRegistry`]: one trained
//! [`RecommendationBackend`] per
//! `(catalog key, backend, engine template, training set)`, shared fleet-wide.
//!
//! Doppler served hundreds of thousands of recommendations (§4, Table 1)
//! from a handful of trained models — training happens once per offer
//! catalog and training cohort, not once per request or per fleet run. The
//! registry is that memoization layer:
//!
//! * engines are keyed by the [`CatalogKey`] they serve, the
//!   [`BackendSpec`] that trained them, the
//!   [`EngineTemplate`] they were configured from, and the
//!   [`TrainingSet`]'s content fingerprint, so any input change —
//!   a revised catalog version, different billing rates, a new grouping
//!   strategy, a different backend kind, one more training record — yields
//!   a distinct engine, while identical inputs always share one
//!   `Arc<dyn RecommendationBackend>`;
//! * lookups go through one `RwLock` map: warm resolutions share its read
//!   lock, so a fleet of workers hammering
//!   [`get_or_train`](EngineRegistry::get_or_train) on warm keys never
//!   waits on a writer unless a training is being inserted or a version
//!   retired;
//! * training is **single-flight**: concurrent requesters of the same cold
//!   key block on the one in-progress training run instead of duplicating
//!   it — N workers racing a cold key cost exactly one training;
//! * [`stats`](EngineRegistry::stats) exposes hit / miss / coalesced
//!   counters, so "a mixed-region fleet run over K keys performs exactly K
//!   trainings" is directly assertable;
//! * the cache has one **lifecycle**: version retirement.
//!   [`retire_version`](EngineRegistry::retire_version) /
//!   [`retire_older_than`](EngineRegistry::retire_older_than) tombstone
//!   keys a catalog roll has superseded and drop their engines — resolving
//!   a retired key returns [`RegistryError::Retired`] instead of silently
//!   retraining a stale catalog, and a retirement counter sits beside the
//!   hit/miss stats. Nothing else evicts a trained engine: the cache holds
//!   one engine per live (key, backend, template, training set).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use doppler_catalog::{CatalogKey, DeploymentType, InMemoryCatalogProvider};
//! use doppler_core::{EngineRegistry, EngineTemplate, TrainingSet};
//!
//! let registry = EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production()));
//! let key = CatalogKey::production(DeploymentType::SqlDb);
//!
//! let a = registry
//!     .get_or_train(&key, &EngineTemplate::production(), &TrainingSet::empty())
//!     .unwrap();
//! let b = registry
//!     .get_or_train(&key, &EngineTemplate::production(), &TrainingSet::empty())
//!     .unwrap();
//! assert!(Arc::ptr_eq(&a, &b), "second resolution is a cache hit");
//! let stats = registry.stats();
//! assert_eq!((stats.misses, stats.hits), (1, 1));
//! ```

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};

use doppler_catalog::{CatalogKey, CatalogProvider, Fingerprint};
use doppler_obs::{Counter, Histogram, ObsRegistry};

use crate::backend::{BackendSpec, RecommendationBackend};
use crate::engine::{EngineConfig, TrainingRecord};
use crate::grouping::GroupingStrategy;
use crate::profile::NegotiabilityStrategy;

/// The deployment- and rates-free part of an [`EngineConfig`]: how the
/// Customer Profiler summarizes and groups. The deployment comes from the
/// [`CatalogKey`] and the billing rates from the resolved catalog, so one
/// template serves every region and version.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EngineTemplate {
    pub negotiability: NegotiabilityStrategy,
    pub grouping: GroupingStrategy,
}

impl EngineTemplate {
    /// The production configuration (§5.2.1): thresholding +
    /// straightforward enumeration.
    pub fn production() -> EngineTemplate {
        EngineTemplate {
            negotiability: NegotiabilityStrategy::production(),
            grouping: GroupingStrategy::Enumeration,
        }
    }

    /// Complete the template into a concrete [`EngineConfig`] for a key's
    /// deployment and a resolved catalog's rates.
    pub fn config_for(
        &self,
        deployment: doppler_catalog::DeploymentType,
        rates: doppler_catalog::BillingRates,
    ) -> EngineConfig {
        EngineConfig {
            deployment,
            negotiability: self.negotiability,
            grouping: self.grouping,
            rates,
        }
    }

    /// Content fingerprint: the strategy's stable tag (its discriminant)
    /// plus the grouping's tag and parameters. Allocation-free — this runs
    /// on every warm engine resolution, once per fleet request.
    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u8(self.negotiability as u8);
        match self.grouping {
            GroupingStrategy::Enumeration => fp.write_u8(0),
            GroupingStrategy::KMeans { k, seed } => {
                fp.write_u8(1);
                fp.write_usize(k);
                fp.write_u64(seed);
            }
        }
        fp.finish()
    }
}

impl Default for EngineTemplate {
    fn default() -> EngineTemplate {
        EngineTemplate::production()
    }
}

/// An immutable, `Arc`-shared training cohort with its content fingerprint
/// computed **once** at construction — the warm resolution path compares
/// one `u64` instead of rehashing weeks of telemetry per request.
#[derive(Debug, Clone)]
pub struct TrainingSet {
    records: Arc<[TrainingRecord]>,
    fingerprint: u64,
}

impl TrainingSet {
    /// Fingerprint and freeze a training cohort.
    pub fn new(records: Vec<TrainingRecord>) -> TrainingSet {
        let mut fp = Fingerprint::new();
        fp.write_usize(records.len());
        for record in &records {
            for (dim, series) in record.history.iter() {
                fp.write_str(&format!("{dim:?}"));
                fp.write_u32(series.interval_minutes());
                fp.write_usize(series.len());
                for &v in series.values() {
                    fp.write_f64(v);
                }
            }
            fp.write_str(&record.chosen_sku.0);
            match &record.file_layout {
                None => fp.write_u8(0),
                Some(layout) => {
                    fp.write_u8(1);
                    fp.write_usize(layout.files.len());
                    for file in &layout.files {
                        fp.write_f64(file.size_gib);
                    }
                }
            }
        }
        TrainingSet { records: records.into(), fingerprint: fp.finish() }
    }

    /// The empty cohort: engines resolve untrained (zero-tolerance
    /// fallback), which is what a fresh deployment starts from.
    pub fn empty() -> TrainingSet {
        TrainingSet::new(Vec::new())
    }

    pub fn records(&self) -> &[TrainingRecord] {
        &self.records
    }

    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl Default for TrainingSet {
    fn default() -> TrainingSet {
        TrainingSet::empty()
    }
}

/// Why an engine could not be resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The provider has no catalog for this key (unknown region,
    /// deployment not offered).
    UnknownCatalog(CatalogKey),
    /// The training run for this key panicked; the slot was evicted, so a
    /// retry will train afresh.
    TrainingFailed(CatalogKey),
    /// The key was retired ([`EngineRegistry::retire_version`] /
    /// [`retire_older_than`](EngineRegistry::retire_older_than)) — a
    /// catalog roll superseded it, so the registry refuses to train or
    /// serve it rather than silently recommending against a stale catalog.
    Retired(CatalogKey),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownCatalog(key) => {
                write!(f, "no catalog registered for {key}")
            }
            RegistryError::TrainingFailed(key) => {
                write!(f, "engine training for {key} panicked")
            }
            RegistryError::Retired(key) => {
                write!(f, "catalog {key} is retired; resolve its successor version")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Point-in-time registry counters. `hits + coalesced + misses +
/// failures` = completed [`get_or_train`](EngineRegistry::get_or_train)
/// calls; `misses` equals the number of training runs performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Resolutions served by an already-trained engine.
    pub hits: u64,
    /// Resolutions that blocked on another requester's in-flight training
    /// (single-flight: they cost a wait, not a duplicate training).
    pub coalesced: u64,
    /// Resolutions that performed the training run themselves.
    pub misses: u64,
    /// Resolutions that failed (unknown catalog, a retired key, or a
    /// training panic observed either first-hand or while coalesced).
    pub failures: u64,
    /// Engines dropped because their catalog key was retired.
    pub retirements: u64,
    /// Trained engines currently held.
    pub entries: usize,
}

/// The full identity of a cached engine. The map key carries the
/// [`CatalogKey`] structurally (no hash collisions across keys) plus the
/// combined content fingerprint of the resolved catalog, the backend spec,
/// the template, and the training set.
#[derive(Clone, PartialEq, Eq, Hash)]
struct EngineKey {
    catalog: CatalogKey,
    fingerprint: u64,
}

/// One cache slot, shared between the trainer and any coalesced waiters.
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

enum SlotState {
    /// The first requester is training; waiters block on the condvar.
    Training,
    Ready(Arc<dyn RecommendationBackend>),
    /// The training run panicked. Terminal for this slot — the trainer
    /// evicts it from the map, so later requesters allocate a fresh one.
    Failed,
}

impl Slot {
    fn training() -> Arc<Slot> {
        Arc::new(Slot { state: Mutex::new(SlotState::Training), ready: Condvar::new() })
    }

    fn lock(&self) -> MutexGuard<'_, SlotState> {
        // The trainer publishes Ready/Failed before any panic can unwind
        // through this mutex; tolerate poison rather than cascading.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn publish(&self, state: SlotState) {
        *self.lock() = state;
        self.ready.notify_all();
    }

    /// Block until the slot leaves `Training`; `None` means the training
    /// run failed.
    fn wait(&self) -> Option<Arc<dyn RecommendationBackend>> {
        let mut state = self.lock();
        loop {
            match &*state {
                SlotState::Ready(engine) => return Some(Arc::clone(engine)),
                SlotState::Failed => return None,
                SlotState::Training => {
                    state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Non-blocking read of a ready engine.
    fn get_ready(&self) -> Option<Arc<dyn RecommendationBackend>> {
        match &*self.lock() {
            SlotState::Ready(engine) => Some(Arc::clone(engine)),
            _ => None,
        }
    }
}

/// Retirement tombstones: exact retired keys plus a monotone version
/// floor. Read (briefly) on every resolution; written only on catalog
/// rolls.
#[derive(Default)]
struct Lifecycle {
    retired: HashSet<CatalogKey>,
    /// Keys with `version <` this floor are retired wholesale.
    min_version: Option<doppler_catalog::CatalogVersion>,
}

impl Lifecycle {
    fn is_retired(&self, key: &CatalogKey) -> bool {
        self.min_version.is_some_and(|floor| key.version < floor) || self.retired.contains(key)
    }
}

/// The fleet-wide trained-engine cache. See the [module docs](self) for
/// the design; construct with [`new`](EngineRegistry::new) and share via
/// `Arc` — every method takes `&self`.
pub struct EngineRegistry {
    provider: Arc<dyn CatalogProvider>,
    slots: RwLock<HashMap<EngineKey, Arc<Slot>>>,
    lifecycle: RwLock<Lifecycle>,
    hits: AtomicU64,
    coalesced: AtomicU64,
    misses: AtomicU64,
    failures: AtomicU64,
    retirements: AtomicU64,
    obs: RegistryObs,
}

/// Write-through observability for the registry: the lifetime counters
/// above stay authoritative (and are what [`RegistryStats`] reads); these
/// handles mirror each increment into a shared
/// [`ObsRegistry`](doppler_obs::ObsRegistry) so registry traffic shows up
/// in fleet-wide snapshots, plus a train-latency histogram the atomic
/// counters cannot express. All no-ops until
/// [`EngineRegistry::with_obs`] is called.
#[derive(Default)]
struct RegistryObs {
    /// `registry.train_latency` — one observation per training run,
    /// including runs that panic.
    train: Histogram,
    hits: Counter,
    coalesced: Counter,
    misses: Counter,
    failures: Counter,
    retirements: Counter,
}

impl EngineRegistry {
    /// An empty registry over a provider.
    pub fn new(provider: Arc<dyn CatalogProvider>) -> EngineRegistry {
        EngineRegistry {
            provider,
            slots: RwLock::new(HashMap::new()),
            lifecycle: RwLock::new(Lifecycle::default()),
            hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            retirements: AtomicU64::new(0),
            obs: RegistryObs::default(),
        }
    }

    /// Mirror the training-economy counters into `obs` as `registry.*`
    /// series and record per-training latency into
    /// `registry.train_latency`. Write-aside: resolution behaviour and
    /// [`RegistryStats`] are unaffected. Builder-style; set before sharing
    /// the registry.
    pub fn with_obs(mut self, obs: &ObsRegistry) -> EngineRegistry {
        self.obs = RegistryObs {
            train: obs.histogram("registry.train_latency"),
            hits: obs.counter("registry.hits"),
            coalesced: obs.counter("registry.coalesced"),
            misses: obs.counter("registry.misses"),
            failures: obs.counter("registry.failures"),
            retirements: obs.counter("registry.retirements"),
        };
        self
    }

    /// The catalog provider resolutions go through.
    pub fn provider(&self) -> &Arc<dyn CatalogProvider> {
        &self.provider
    }

    /// Resolve the default-backend (heuristic) engine for
    /// `(key, template, training)`, training it exactly once across all
    /// concurrent callers if it is not cached. Equivalent to
    /// [`get_or_train_backend`](EngineRegistry::get_or_train_backend) with
    /// [`BackendSpec::Heuristic`].
    pub fn get_or_train(
        &self,
        key: &CatalogKey,
        template: &EngineTemplate,
        training: &TrainingSet,
    ) -> Result<Arc<dyn RecommendationBackend>, RegistryError> {
        self.get_or_train_backend(key, template, training, &BackendSpec::Heuristic)
    }

    /// Resolve the backend for `(key, backend spec, template, training)`,
    /// training it exactly once across all concurrent callers if it is not
    /// cached. The spec's fingerprint is part of the memo key, so two
    /// backend kinds trained on identical inputs occupy distinct slots and
    /// can never cross-serve (champion/challenger safety).
    ///
    /// Warm path: one provider lookup, one map read lock, one map get,
    /// one `Arc` bump. Cold path: the calling thread trains (outside any
    /// lock) while concurrent requesters for the same key block on the
    /// slot; requesters for *other* keys proceed unhindered.
    pub fn get_or_train_backend(
        &self,
        key: &CatalogKey,
        template: &EngineTemplate,
        training: &TrainingSet,
        backend: &BackendSpec,
    ) -> Result<Arc<dyn RecommendationBackend>, RegistryError> {
        if self.is_retired(key) {
            self.failures.fetch_add(1, Ordering::Relaxed);
            self.obs.failures.incr();
            return Err(RegistryError::Retired(key.clone()));
        }
        let (engine_key, resolved) =
            self.engine_key(key, template, training, backend).ok_or_else(|| {
                self.failures.fetch_add(1, Ordering::Relaxed);
                self.obs.failures.incr();
                RegistryError::UnknownCatalog(key.clone())
            })?;
        // Fast path: shared read lock on the map.
        let existing =
            self.slots.read().unwrap_or_else(PoisonError::into_inner).get(&engine_key).cloned();
        if let Some(slot) = existing {
            return self.resolve_slot(key, &slot);
        }

        // Slow path: take the write lock just long enough to insert-or-get
        // the slot; training itself happens with no lock held.
        let (slot, trainer) = {
            let mut map = self.slots.write().unwrap_or_else(PoisonError::into_inner);
            match map.get(&engine_key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Slot::training();
                    map.insert(engine_key.clone(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if !trainer {
            return self.resolve_slot(key, &slot);
        }

        let config = template.config_for(key.deployment, resolved.rates);
        let catalog = (*resolved.catalog).clone();
        let train_span = self.obs.train.start();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            backend.train(catalog, config, training.records())
        }));
        drop(train_span);
        match outcome {
            Ok(engine) => {
                slot.publish(SlotState::Ready(Arc::clone(&engine)));
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.obs.misses.incr();
                Ok(engine)
            }
            Err(payload) => {
                // Evict before notifying so no requester can coalesce onto
                // a slot that will never become Ready.
                self.slots.write().unwrap_or_else(PoisonError::into_inner).remove(&engine_key);
                slot.publish(SlotState::Failed);
                self.failures.fetch_add(1, Ordering::Relaxed);
                self.obs.failures.incr();
                std::panic::resume_unwind(payload)
            }
        }
    }

    /// Derive the cache identity of `(key, backend, template, training)`:
    /// resolve the provider and combine the catalog, backend, template, and
    /// training fingerprints. `None` when the provider has no catalog for
    /// the key.
    fn engine_key(
        &self,
        key: &CatalogKey,
        template: &EngineTemplate,
        training: &TrainingSet,
        backend: &BackendSpec,
    ) -> Option<(EngineKey, doppler_catalog::ResolvedCatalog)> {
        let resolved = self.provider.resolve(key)?;
        let mut fp = Fingerprint::new();
        fp.write_u64(resolved.fingerprint);
        fp.write_u64(backend.fingerprint());
        fp.write_u64(template.fingerprint());
        fp.write_u64(training.fingerprint());
        Some((EngineKey { catalog: key.clone(), fingerprint: fp.finish() }, resolved))
    }

    /// Point-in-time counters and cache size.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            hits: self.hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            retirements: self.retirements.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Trained engines currently held.
    pub fn len(&self) -> usize {
        self.slots.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tombstone one exact [`CatalogKey`]: every engine trained for it is
    /// dropped (counted into [`RegistryStats::retirements`]) and any later
    /// resolution returns [`RegistryError::Retired`] — never a retrain.
    /// The operator move behind a catalog version roll: retire `v1`, let
    /// the priority lane re-assess against `v2`. Returns the number of
    /// engines dropped. In-flight `Arc`s (and waiters already coalesced
    /// onto an in-flight training) keep their engines; only the cache
    /// forgets them.
    pub fn retire_version(&self, key: &CatalogKey) -> usize {
        self.lifecycle.write().unwrap_or_else(PoisonError::into_inner).retired.insert(key.clone());
        self.retire_matching(|catalog| catalog == key)
    }

    /// Tombstone every key — across all deployments and regions — whose
    /// version is older than `floor`, dropping their engines. The floor is
    /// monotone: a lower floor than one already set is a no-op for the
    /// tombstone (already-retired keys stay retired). Returns the number
    /// of engines dropped.
    pub fn retire_older_than(&self, floor: doppler_catalog::CatalogVersion) -> usize {
        {
            let mut lifecycle = self.lifecycle.write().unwrap_or_else(PoisonError::into_inner);
            lifecycle.min_version = Some(lifecycle.min_version.map_or(floor, |f| f.max(floor)));
        }
        self.retire_matching(|catalog| catalog.version < floor)
    }

    /// Whether resolutions of `key` are refused as retired.
    fn is_retired(&self, key: &CatalogKey) -> bool {
        self.lifecycle.read().unwrap_or_else(PoisonError::into_inner).is_retired(key)
    }

    /// Drop every cached entry whose catalog key matches. Trained engines
    /// count into the retirement counter and the return value; in-flight
    /// `Training` slots are dropped from the cache too (so nothing can
    /// coalesce onto a retired key) but count nothing — no engine existed
    /// yet. The shared sweep behind both retirement entry points.
    fn retire_matching(&self, matches: impl Fn(&CatalogKey) -> bool) -> usize {
        let mut engines = 0usize;
        self.slots.write().unwrap_or_else(PoisonError::into_inner).retain(|k, slot| {
            let retire = matches(&k.catalog);
            if retire && slot.get_ready().is_some() {
                engines += 1;
            }
            !retire
        });
        self.retirements.fetch_add(engines as u64, Ordering::Relaxed);
        self.obs.retirements.add(engines as u64);
        engines
    }

    /// Resolve through an existing slot, classifying the counter outcome:
    /// a slot that is already `Ready` is a hit; one still `Training` is a
    /// coalesced wait; a `Failed` slot (only observable in the narrow
    /// window before the trainer evicts it) reports failure.
    fn resolve_slot(
        &self,
        key: &CatalogKey,
        slot: &Slot,
    ) -> Result<Arc<dyn RecommendationBackend>, RegistryError> {
        if let Some(engine) = slot.get_ready() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.obs.hits.incr();
            return Ok(engine);
        }
        match slot.wait() {
            Some(engine) => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                self.obs.coalesced.incr();
                Ok(engine)
            }
            None => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                self.obs.failures.incr();
                Err(RegistryError::TrainingFailed(key.clone()))
            }
        }
    }
}

impl fmt::Debug for EngineRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineRegistry").field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_catalog::{
        azure_paas_catalog, Catalog, CatalogSpec, CatalogVersion, DeploymentType,
        InMemoryCatalogProvider, Region, SkuId,
    };
    use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};

    fn registry() -> EngineRegistry {
        EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production()))
    }

    fn db_key() -> CatalogKey {
        CatalogKey::production(DeploymentType::SqlDb)
    }

    fn record(cpu: f64, n: usize) -> TrainingRecord {
        TrainingRecord {
            history: PerfHistory::new()
                .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; n]))
                .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.5; n])),
            chosen_sku: SkuId("DB_GP_2".into()),
            file_layout: None,
        }
    }

    #[test]
    fn with_obs_mirrors_counters_and_times_training() {
        let obs = ObsRegistry::enabled();
        let registry = registry().with_obs(&obs);
        registry
            .get_or_train(&db_key(), &EngineTemplate::production(), &TrainingSet::empty())
            .unwrap();
        registry
            .get_or_train(&db_key(), &EngineTemplate::production(), &TrainingSet::empty())
            .unwrap();
        let unknown = CatalogKey::production(DeploymentType::SqlDb).in_region(Region::new("nope"));
        assert!(registry
            .get_or_train(&unknown, &EngineTemplate::production(), &TrainingSet::empty())
            .is_err());
        let stats = registry.stats();
        let snapshot = obs.snapshot();
        assert_eq!(snapshot.counter("registry.misses"), Some(stats.misses));
        assert_eq!(snapshot.counter("registry.hits"), Some(stats.hits));
        assert_eq!(snapshot.counter("registry.failures"), Some(stats.failures));
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.failures, 1);
        // One training run, one latency observation.
        assert_eq!(snapshot.histogram("registry.train_latency").unwrap().count, stats.misses);
    }

    #[test]
    fn hit_returns_the_same_engine_allocation() {
        let registry = registry();
        let a = registry
            .get_or_train(&db_key(), &EngineTemplate::production(), &TrainingSet::empty())
            .unwrap();
        let b = registry
            .get_or_train(&db_key(), &EngineTemplate::production(), &TrainingSet::empty())
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn counters_are_exact_over_a_sequential_workload() {
        let registry = registry();
        let template = EngineTemplate::production();
        let empty = TrainingSet::empty();
        let trained = TrainingSet::new(vec![record(0.5, 64)]);
        // 3 distinct keys: (db, empty), (db, trained), (mi, empty).
        let mi_key = CatalogKey::production(DeploymentType::SqlMi);
        for _ in 0..5 {
            registry.get_or_train(&db_key(), &template, &empty).unwrap();
            registry.get_or_train(&db_key(), &template, &trained).unwrap();
            registry.get_or_train(&mi_key, &template, &empty).unwrap();
        }
        let stats = registry.stats();
        assert_eq!(stats.misses, 3, "one training per distinct key");
        assert_eq!(stats.hits + stats.coalesced, 12);
        assert_eq!(stats.coalesced, 0, "sequential callers never coalesce");
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn distinct_templates_and_training_sets_get_distinct_engines() {
        let registry = registry();
        let a = registry
            .get_or_train(&db_key(), &EngineTemplate::production(), &TrainingSet::empty())
            .unwrap();
        let kmeans = EngineTemplate {
            grouping: GroupingStrategy::KMeans { k: 4, seed: 7 },
            ..EngineTemplate::production()
        };
        let b = registry.get_or_train(&db_key(), &kmeans, &TrainingSet::empty()).unwrap();
        let c = registry
            .get_or_train(
                &db_key(),
                &EngineTemplate::production(),
                &TrainingSet::new(vec![record(0.5, 64)]),
            )
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(registry.stats().misses, 3);
    }

    #[test]
    fn champion_and_challenger_backends_never_cross_serve() {
        use crate::learned::LearnedConfig;
        let registry = registry();
        let template = EngineTemplate::production();
        let training = TrainingSet::new(vec![record(0.5, 64)]);
        let learned = BackendSpec::Learned(LearnedConfig::default());

        let champion = registry
            .get_or_train_backend(&db_key(), &template, &training, &BackendSpec::Heuristic)
            .unwrap();
        let challenger =
            registry.get_or_train_backend(&db_key(), &template, &training, &learned).unwrap();
        let stats = registry.stats();
        assert_eq!(stats.misses, 2, "one training per (key, backend)");
        assert_eq!(stats.hits, 0, "no cross-hits between backend kinds");
        assert!(!Arc::ptr_eq(&champion, &challenger));
        assert_eq!(champion.id(), "heuristic");
        assert_eq!(challenger.id(), "learned");

        // Warm resolutions stay within their own backend's slot.
        let champion2 = registry
            .get_or_train_backend(&db_key(), &template, &training, &BackendSpec::Heuristic)
            .unwrap();
        let challenger2 =
            registry.get_or_train_backend(&db_key(), &template, &training, &learned).unwrap();
        let stats = registry.stats();
        assert_eq!((stats.misses, stats.hits), (2, 2));
        assert!(Arc::ptr_eq(&champion, &champion2));
        assert!(Arc::ptr_eq(&challenger, &challenger2));
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn unknown_catalog_is_an_error_and_counts_as_failure() {
        let registry = registry();
        let missing = db_key().in_region(Region::new("atlantis"));
        let err = registry
            .get_or_train(&missing, &EngineTemplate::production(), &TrainingSet::empty())
            .unwrap_err();
        assert_eq!(err, RegistryError::UnknownCatalog(missing.clone()));
        assert!(err.to_string().contains("atlantis"));
        assert_eq!(registry.stats().failures, 1);
        assert_eq!(registry.len(), 0);
    }

    #[test]
    fn single_flight_trains_once_under_concurrency() {
        let registry = Arc::new(registry());
        let template = EngineTemplate::production();
        // A non-trivial training set so the cold window is wide enough for
        // real overlap.
        let training = TrainingSet::new((0..12).map(|i| record(0.3 + i as f64, 288)).collect());
        const THREADS: usize = 8;
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let engines: Vec<Arc<dyn RecommendationBackend>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let registry = Arc::clone(&registry);
                    let barrier = Arc::clone(&barrier);
                    let training = training.clone();
                    scope.spawn(move || {
                        barrier.wait();
                        registry.get_or_train(&db_key(), &template, &training).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for engine in &engines[1..] {
            assert!(Arc::ptr_eq(&engines[0], engine), "all callers share one engine");
        }
        let stats = registry.stats();
        assert_eq!(stats.misses, 1, "exactly one training run across {THREADS} threads");
        assert_eq!(stats.hits + stats.coalesced, (THREADS - 1) as u64);
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn registry_engine_matches_direct_training_bit_for_bit() {
        let registry = registry();
        let training = TrainingSet::new(vec![record(0.6, 96), record(4.0, 96)]);
        let shared =
            registry.get_or_train(&db_key(), &EngineTemplate::production(), &training).unwrap();
        let direct = crate::engine::DopplerEngine::train(
            azure_paas_catalog(&CatalogSpec::default()),
            EngineConfig::production(DeploymentType::SqlDb),
            training.records(),
        );
        let history = record(0.7, 128).history;
        let a = shared.recommend(&history, None);
        let b = direct.recommend(&history, None);
        assert_eq!(a, b);
    }

    #[test]
    fn retired_keys_error_and_never_retrain() {
        let registry = registry();
        let template = EngineTemplate::production();
        let empty = TrainingSet::empty();
        let engine = registry.get_or_train(&db_key(), &template, &empty).unwrap();
        assert_eq!(registry.retire_version(&db_key()), 1, "one engine tombstoned");
        assert!(registry.is_retired(&db_key()));
        assert!(registry.is_empty());

        let err = registry.get_or_train(&db_key(), &template, &empty).unwrap_err();
        assert_eq!(err, RegistryError::Retired(db_key()));
        assert!(err.to_string().contains("retired"));
        let stats = registry.stats();
        assert_eq!(stats.misses, 1, "retirement never triggers a retrain");
        assert_eq!(stats.retirements, 1);
        assert_eq!(stats.failures, 1, "the refused resolution counts as a failure");
        // In-flight Arcs keep serving.
        assert!(engine.recommend(&record(0.4, 32).history, None).sku_id.is_some());
        // Other keys are untouched.
        registry
            .get_or_train(&CatalogKey::production(DeploymentType::SqlMi), &template, &empty)
            .unwrap();
    }

    #[test]
    fn retire_older_than_applies_a_monotone_version_floor() {
        let provider = InMemoryCatalogProvider::production()
            .with_region(Region::global(), CatalogVersion(2), &CatalogSpec::default(), 1.0)
            .with_region(Region::global(), CatalogVersion(3), &CatalogSpec::default(), 1.0);
        let registry = EngineRegistry::new(Arc::new(provider));
        let template = EngineTemplate::production();
        let empty = TrainingSet::empty();
        for v in 1..=3 {
            registry
                .get_or_train(&db_key().at_version(CatalogVersion(v)), &template, &empty)
                .unwrap();
        }
        assert_eq!(registry.retire_older_than(CatalogVersion(3)), 2, "v1 and v2 engines dropped");
        assert!(registry.is_retired(&db_key()));
        assert!(registry.is_retired(&db_key().at_version(CatalogVersion(2))));
        assert!(!registry.is_retired(&db_key().at_version(CatalogVersion(3))));
        // The floor covers keys never resolved, in any region.
        assert!(registry.is_retired(&db_key().in_region(Region::new("never-seen"))));
        // A lower floor later cannot un-retire.
        registry.retire_older_than(CatalogVersion(2));
        assert!(registry.is_retired(&db_key().at_version(CatalogVersion(2))));
        assert_eq!(registry.stats().retirements, 2);
        assert!(matches!(
            registry.get_or_train(&db_key(), &template, &empty),
            Err(RegistryError::Retired(_))
        ));
        registry.get_or_train(&db_key().at_version(CatalogVersion(3)), &template, &empty).unwrap();
        assert_eq!(registry.stats().misses, 3, "the surviving version still serves warm");
    }

    #[test]
    fn training_panic_then_retirement_refuses_rather_than_retrains() {
        // A provider whose catalog prices are NaN: curve generation sorts
        // by price and panics — a genuine mid-training panic inside the
        // registry's catch.
        struct NanPriced;
        impl CatalogProvider for NanPriced {
            fn resolve(&self, _key: &CatalogKey) -> Option<doppler_catalog::ResolvedCatalog> {
                let catalog = azure_paas_catalog(&CatalogSpec::default());
                let poisoned = Catalog::new(
                    catalog
                        .iter()
                        .map(|sku| {
                            let mut sku = sku.clone();
                            sku.price_per_hour = f64::NAN;
                            sku
                        })
                        .collect(),
                );
                Some(doppler_catalog::ResolvedCatalog::new(
                    Arc::new(poisoned),
                    doppler_catalog::BillingRates::default(),
                ))
            }
        }
        let registry = EngineRegistry::new(Arc::new(NanPriced));
        let template = EngineTemplate::production();
        let training = TrainingSet::new(vec![record(0.5, 64)]);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            registry.get_or_train(&db_key(), &template, &training)
        }));
        assert!(outcome.is_err(), "the training panic propagates to the trainer");
        let stats = registry.stats();
        assert_eq!((stats.failures, stats.entries), (1, 0), "the failed slot was evicted");

        // Retiring the key after the panic: later resolutions get the
        // typed retirement error — not another training attempt, and not
        // another panic.
        assert_eq!(registry.retire_version(&db_key()), 0, "no engine existed to drop");
        let err = registry.get_or_train(&db_key(), &template, &training).unwrap_err();
        assert_eq!(err, RegistryError::Retired(db_key()));
        assert_eq!(registry.stats().misses, 0, "nothing ever trained successfully");
    }

    #[test]
    fn catalog_versions_partition_the_cache() {
        let provider = InMemoryCatalogProvider::production().with_region(
            Region::global(),
            CatalogVersion(2),
            &CatalogSpec { rates: CatalogSpec::default().rates.scaled(1.05) },
            1.0,
        );
        let registry = EngineRegistry::new(Arc::new(provider));
        let template = EngineTemplate::production();
        let empty = TrainingSet::empty();
        let v1 = registry.get_or_train(&db_key(), &template, &empty).unwrap();
        let v2 = registry
            .get_or_train(&db_key().at_version(CatalogVersion(2)), &template, &empty)
            .unwrap();
        assert!(!Arc::ptr_eq(&v1, &v2));
        // The v2 engine prices 5 % higher.
        let rec1 = v1.recommend(&record(0.4, 32).history, None);
        let rec2 = v2.recommend(&record(0.4, 32).history, None);
        assert_eq!(rec1.sku_id, rec2.sku_id);
        assert!(rec2.monthly_cost.unwrap() > rec1.monthly_cost.unwrap());
    }

    /// Two strategies sharing a tag would share one trained engine.
    #[test]
    fn template_fingerprints_separate_every_strategy() {
        let template = |negotiability| EngineTemplate {
            negotiability,
            grouping: GroupingStrategy::Enumeration,
        };
        let fingerprints: HashSet<u64> = NegotiabilityStrategy::table4_lineup()
            .into_iter()
            .map(|(_, strategy)| template(strategy).fingerprint())
            .collect();
        assert_eq!(fingerprints.len(), 6);
        for (_, strategy) in NegotiabilityStrategy::table4_lineup() {
            assert_eq!(template(strategy).fingerprint(), template(strategy).fingerprint());
        }
        assert_eq!(
            EngineTemplate::production().fingerprint(),
            template(NegotiabilityStrategy::Thresholding).fingerprint()
        );
    }

    #[test]
    fn training_set_fingerprints_distinguish_contents() {
        let a = TrainingSet::new(vec![record(0.5, 64)]);
        let b = TrainingSet::new(vec![record(0.5, 64)]);
        let c = TrainingSet::new(vec![record(0.6, 64)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(a.fingerprint(), TrainingSet::empty().fingerprint());
        assert!(TrainingSet::empty().is_empty());
        assert_eq!(a.len(), 1);
    }
}
