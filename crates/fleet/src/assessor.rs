//! The fleet assessor: spread a fleet of assessment requests across a
//! worker pool, collect per-instance results order-stably, and aggregate
//! them into a [`FleetReport`].
//!
//! Doppler ran as a service issuing hundreds of thousands of SKU
//! recommendations (§4, Table 1); this module is the reproduction's version
//! of that serving layer. The trained engine is read-only after
//! construction, so assessment parallelizes embarrassingly: each worker
//! resolves its request's engine through one shared [`EngineRegistry`]
//! (an `Arc` bump once the engine is trained), pops tasks from a bounded
//! queue (so lazily-generated fleets never materialize fully), and streams
//! results back in completion order. Results are then folded in submission
//! order, making the output — and every aggregate derived from it —
//! bit-for-bit independent of the worker count.
//!
//! Since the streaming front-end landed, [`FleetAssessor::assess`] is a
//! one-shot convenience over [`FleetService`]: it spins up a service, feeds
//! the fleet through with backpressure, drains the tickets in order, and
//! shuts the service down. The worker pool itself lives in
//! [`crate::service`].

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use doppler_catalog::{CatalogKey, DeploymentType, InMemoryCatalogProvider};
use doppler_core::{BackendSpec, EngineRegistry, EngineTemplate, TrainingSet};
use doppler_dma::{AssessmentRequest, AssessmentResult, SkuRecommendationPipeline};
use doppler_obs::{Histogram, ObsRegistry};

use crate::report::FleetReport;
use crate::service::{FleetService, TicketQueue};

/// One fleet member: which deployment target it is assessed against, plus
/// the ordinary DMA assessment request.
///
/// A request may additionally pin a [`CatalogKey`] — the exact
/// `(deployment, region, version)` offer catalog it should be priced
/// against — so one fleet run can mix regions; keyless requests route to
/// their deployment's default engine. The optional `month` label feeds the
/// fleet report's adoption ledger (the paper's Table 1 view).
#[derive(Debug, Clone)]
pub struct FleetRequest {
    pub deployment: DeploymentType,
    /// Resolve through the registry against this exact offer catalog;
    /// `None` = the deployment's default route.
    pub catalog_key: Option<CatalogKey>,
    /// Adoption-ledger month label (e.g. `"Oct-21"`); `None` = untracked.
    /// Interned: every result and digest derived from this request shares
    /// the one allocation.
    pub month: Option<Arc<str>>,
    /// Enter the service queue's priority lane: popped ahead of the
    /// normal backlog (migration-deadline and drifted-customer work); the
    /// report does not depend on completion order.
    pub priority: bool,
    pub request: AssessmentRequest,
}

impl FleetRequest {
    pub fn new(deployment: DeploymentType, request: AssessmentRequest) -> FleetRequest {
        FleetRequest { deployment, catalog_key: None, month: None, priority: false, request }
    }

    /// Pin the offer catalog this request is assessed against. The key's
    /// deployment becomes the request's deployment — the key is the more
    /// specific routing fact.
    pub fn with_catalog_key(mut self, key: CatalogKey) -> FleetRequest {
        self.deployment = key.deployment;
        self.catalog_key = Some(key);
        self
    }

    /// Tag the request with an adoption-ledger month (Table 1).
    pub fn with_month(mut self, month: impl Into<Arc<str>>) -> FleetRequest {
        self.month = Some(month.into());
        self
    }

    /// Route through the service queue's priority lane — the
    /// migration-deadline / drifted-customer fast path. Ordering jumps the
    /// backlog; the report aggregate is unaffected (it does not depend on
    /// completion order).
    ///
    /// ```
    /// use doppler_catalog::DeploymentType;
    /// use doppler_dma::AssessmentRequest;
    /// use doppler_fleet::FleetRequest;
    /// use doppler_telemetry::PerfHistory;
    ///
    /// let request = FleetRequest::new(
    ///     DeploymentType::SqlDb,
    ///     AssessmentRequest::from_history("deadline-cust", PerfHistory::new(), vec![], None),
    /// )
    /// .with_priority();
    /// assert!(request.priority);
    /// ```
    pub fn with_priority(mut self) -> FleetRequest {
        self.priority = true;
        self
    }
}

/// Why an instance produced no [`AssessmentResult`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AssessmentError {
    pub message: String,
}

/// One fleet member's outcome, tagged with its submission index.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Position in the input fleet (results are sorted by this): the
    /// service's submission index, gap-free and in submission order.
    pub index: usize,
    /// Interned once at submission; digests and monitors share it by
    /// refcount instead of re-cloning the heap string per result.
    pub instance_name: Arc<str>,
    pub deployment: DeploymentType,
    /// The adoption-ledger month the request carried, if any.
    pub month: Option<Arc<str>>,
    pub outcome: Result<AssessmentResult, AssessmentError>,
}

/// Worker-pool configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Bounded work-queue depth; caps how far the feeder runs ahead of the
    /// workers when the fleet comes from a lazy iterator.
    pub queue_depth: usize,
    /// Keep the full per-instance results in [`FleetAssessment::results`].
    /// Disable for very large fleets where only the report matters.
    pub keep_results: bool,
}

impl FleetConfig {
    /// `workers` threads with a queue depth of four tasks per worker.
    pub fn with_workers(workers: usize) -> FleetConfig {
        let workers = workers.max(1);
        FleetConfig { workers, queue_depth: workers * 4, keep_results: true }
    }
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        FleetConfig::with_workers(workers)
    }
}

/// A completed fleet run: the aggregate report plus (optionally) every
/// per-instance result in submission order.
#[derive(Debug, Clone)]
pub struct FleetAssessment {
    pub report: FleetReport,
    /// Per-instance results in submission order; empty when
    /// [`FleetConfig::keep_results`] is false.
    pub results: Vec<FleetResult>,
}

/// One registry-backed route: how requests for a deployment resolve when
/// the serving layer goes through an [`EngineRegistry`]. Keyless requests
/// resolve `default_key`; keyed requests resolve their own key — in both
/// cases with this route's template and training cohort, so every region
/// and version of a deployment shares one configuration and one training
/// set (and therefore exactly one training run per distinct key,
/// registry-wide).
#[derive(Clone)]
pub struct EngineRoute {
    pub default_key: CatalogKey,
    pub template: EngineTemplate,
    pub training: TrainingSet,
    /// Which backend kind this route trains and serves (the heuristic
    /// engine by default). Part of the registry memo key, so routes with
    /// different backends — e.g. a champion and a challenger fleet sharing
    /// one registry — never cross-serve each other's engines.
    pub backend: BackendSpec,
}

impl EngineRoute {
    /// A production-template route with no training data.
    pub fn production(default_key: CatalogKey) -> EngineRoute {
        EngineRoute {
            default_key,
            template: EngineTemplate::production(),
            training: TrainingSet::empty(),
            backend: BackendSpec::Heuristic,
        }
    }

    /// The same route with a training cohort.
    pub fn trained(mut self, training: TrainingSet) -> EngineRoute {
        self.training = training;
        self
    }

    /// The same route serving a different backend kind.
    pub fn with_backend_spec(mut self, backend: BackendSpec) -> EngineRoute {
        self.backend = backend;
        self
    }
}

/// The routing table: an [`EngineRegistry`] with one [`EngineRoute`] per
/// deployment. Shared immutably across however many worker threads —
/// scoped or long-lived — the serving layer runs; all engine state lives
/// behind `Arc`s, so cloning the set is cheap.
///
/// This is the single place a fleet request turns into a [`FleetResult`]:
/// both the one-shot [`FleetAssessor`] and the streaming
/// [`FleetService`](crate::service::FleetService) route through it, so the
/// two paths cannot drift apart. A request resolves through the route for
/// its deployment: a pinned [`FleetRequest::catalog_key`] resolves that
/// key, a keyless request the route's `default_key`. A deployment with no
/// route fails into the report's failure bucket.
#[derive(Clone)]
pub(crate) struct EngineSet {
    registry: Arc<EngineRegistry>,
    routes: Vec<(DeploymentType, EngineRoute)>,
    obs: EngineSetObs,
}

/// Per-stage latency histograms for the engine-resolution and assessment
/// stages of [`EngineSet::assess_one`]. Default handles are no-ops; they
/// become live via [`EngineSet::instrument`].
#[derive(Clone, Default)]
struct EngineSetObs {
    /// `fleet.stage.resolve` — routing one request to its pipeline
    /// (including any registry training the first request per key pays).
    resolve: Histogram,
    /// `fleet.stage.assess` — running one assessment through the resolved
    /// pipeline.
    assess: Histogram,
}

impl EngineSet {
    /// Register the per-stage histograms with `obs` (a disabled registry
    /// leaves the set uninstrumented).
    pub(crate) fn instrument(&mut self, obs: &ObsRegistry) {
        self.obs = EngineSetObs {
            resolve: obs.histogram("fleet.stage.resolve"),
            assess: obs.histogram("fleet.stage.assess"),
        };
    }

    pub(crate) fn registry(&self) -> &Arc<EngineRegistry> {
        &self.registry
    }

    /// Add (or replace) the registry route serving its default key's
    /// deployment.
    pub(crate) fn insert_route(&mut self, route: EngineRoute) {
        let deployment = route.default_key.deployment;
        self.routes.retain(|(d, _)| *d != deployment);
        self.routes.push((deployment, route));
    }

    pub(crate) fn route_for(&self, deployment: DeploymentType) -> Option<&EngineRoute> {
        self.routes.iter().find(|(d, _)| *d == deployment).map(|(_, r)| r)
    }

    /// Resolve the pipeline a request routes to (see the type docs). Warm
    /// resolutions are a shared read lock plus an `Arc` bump; the first
    /// request per key pays the one training run.
    pub(crate) fn resolve(
        &self,
        deployment: DeploymentType,
        catalog_key: &Option<CatalogKey>,
    ) -> Result<SkuRecommendationPipeline, AssessmentError> {
        let deployment = catalog_key.as_ref().map_or(deployment, |key| key.deployment);
        let route = self.route_for(deployment).ok_or_else(|| AssessmentError {
            message: format!("no engine route configured for deployment {deployment:?}"),
        })?;
        let key = catalog_key.as_ref().unwrap_or(&route.default_key);
        let engine = self
            .registry
            .get_or_train_backend(key, &route.template, &route.training, &route.backend)
            .map_err(|e| AssessmentError { message: e.to_string() })?;
        Ok(SkuRecommendationPipeline::from_shared(engine))
    }

    /// Resolve the pipeline `(deployment, catalog_key)` routes to and run
    /// `work` on it — the fleet's one panic guard, shared by assessments
    /// and drift checks. Panics, missing routes, and registry resolution
    /// errors become `Err` instead of poisoning the worker. The catch
    /// covers resolution too: a registry training run (or a provider) that
    /// panics must kill this job, not the worker — a dead worker would drop
    /// its popped batch unanswered and, with one worker, deadlock the
    /// feeder on queue backpressure. `resolve_span` times the resolution.
    pub(crate) fn guarded<R>(
        &self,
        deployment: DeploymentType,
        catalog_key: &Option<CatalogKey>,
        resolve_span: &Histogram,
        work: impl FnOnce(SkuRecommendationPipeline) -> R,
    ) -> Result<R, AssessmentError> {
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            let resolved = {
                let _span = resolve_span.start();
                self.resolve(deployment, catalog_key)
            };
            resolved.map(work)
        }))
        .unwrap_or_else(|payload| Err(AssessmentError { message: panic_message(payload) }))
    }

    /// Assess one routed request through [`guarded`](EngineSet::guarded),
    /// timing resolution (`fleet.stage.resolve`) and assessment
    /// (`fleet.stage.assess`).
    pub(crate) fn assess_one(
        &self,
        index: usize,
        instance_name: Arc<str>,
        task: FleetRequest,
    ) -> FleetResult {
        let FleetRequest { deployment, catalog_key, month, request, priority: _ } = task;
        let outcome = self.guarded(deployment, &catalog_key, &self.obs.resolve, |pipeline| {
            let _span = self.obs.assess.start();
            pipeline.assess(&request)
        });
        FleetResult { index, instance_name, deployment, month, outcome }
    }
}

/// The fleet-scale batch assessor: every request resolves its engine
/// through one shared [`EngineRegistry`], and the trained engines are
/// shared immutably across the worker pool.
pub struct FleetAssessor {
    engines: EngineSet,
    config: FleetConfig,
    obs: ObsRegistry,
}

impl FleetAssessor {
    /// An assessor that resolves every engine through a shared
    /// [`EngineRegistry`]. Add one [`EngineRoute`] per deployment with
    /// [`with_route`](FleetAssessor::with_route); requests pinning a
    /// [`FleetRequest::catalog_key`] then resolve their exact offer
    /// catalog, keyless requests resolve their deployment route's default
    /// key, and a mixed-region fleet costs exactly one training per
    /// distinct key (asserted via [`EngineRegistry::stats`]).
    pub fn over_registry(registry: Arc<EngineRegistry>, config: FleetConfig) -> FleetAssessor {
        let engines = EngineSet { registry, routes: Vec::new(), obs: EngineSetObs::default() };
        FleetAssessor { engines, config, obs: ObsRegistry::disabled() }
    }

    /// An assessor over a fresh [`EngineRegistry`] on the production
    /// catalog (global region, initial version), serving the untrained
    /// production route for both deployments.
    pub fn production(config: FleetConfig) -> FleetAssessor {
        let registry =
            Arc::new(EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production())));
        FleetAssessor::over_registry(registry, config)
            .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)))
            .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlMi)))
    }

    /// Record hot-path metrics into `obs`: per-stage latency histograms
    /// (queue wait → engine resolution → assessment → aggregation),
    /// queue-lane depth gauges and wait histograms, valve trips, and
    /// per-worker task counters. Instrumentation is strictly write-aside —
    /// assessments, reports, and their byte-level renders are identical
    /// whether `obs` is enabled, disabled, or absent. Carried into the
    /// service by [`into_service`](FleetAssessor::into_service) and every
    /// [`assess`](FleetAssessor::assess) run.
    pub fn with_obs(mut self, obs: &ObsRegistry) -> FleetAssessor {
        self.obs = obs.clone();
        self.engines.instrument(obs);
        self
    }

    /// Add (or replace) the registry route serving its default key's
    /// deployment.
    pub fn with_route(mut self, route: EngineRoute) -> FleetAssessor {
        self.engines.insert_route(route);
        self
    }

    /// The shared registry this assessor resolves through.
    pub fn registry(&self) -> &Arc<EngineRegistry> {
        self.engines.registry()
    }

    /// The configuration in use.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Convert into the long-lived streaming front-end, keeping the engine
    /// set and configuration.
    pub fn into_service(self) -> FleetService {
        let FleetAssessor { engines, config, obs } = self;
        FleetService::from_parts(engines, config, obs)
    }

    /// Assess an entire fleet.
    ///
    /// The fleet iterator is consumed lazily from the calling thread and
    /// fed through a bounded queue to `config.workers` worker threads; a
    /// panicking or unroutable instance lands in the failure bucket instead
    /// of poisoning the run. Completed results are drained in submission
    /// order while the feed is still running, so with
    /// `keep_results = false` peak memory is O(queue depth + workers) plus
    /// the aggregation state — which includes one name per unplaceable
    /// instance and one row per failure, so a fleet that fails wholesale
    /// still accumulates its attention buckets. Output order and every
    /// aggregate are deterministic: the same fleet yields the same
    /// [`FleetAssessment`] for any worker count.
    pub fn assess<I>(&self, fleet: I) -> FleetAssessment
    where
        I: IntoIterator<Item = FleetRequest>,
    {
        let service = FleetService::from_parts(self.engines.clone(), self.config, self.obs.clone());
        let keep = self.config.keep_results;
        let mut kept = Vec::new();
        let mut outstanding = TicketQueue::new();

        // Feed with backpressure (submit blocks at queue capacity). With
        // keep_results on, retire tickets from the front as they resolve so
        // the outstanding window normally tracks the service's out-of-order
        // window (the kept vector is O(fleet) by request — and so is the
        // ticket buffer in the worst case, e.g. when the very first
        // assessment is the slowest). With keep_results off, tickets are
        // dropped at submission: no per-request buffering at all, and the
        // report alone flows out of the service. If the fleet iterator
        // panics mid-feed, dropping `service` closes the queue and joins
        // the workers, so the panic propagates instead of deadlocking.
        for request in fleet {
            match service.submit(request) {
                Ok(ticket) if keep => outstanding.push(ticket),
                Ok(_) => {}
                Err(_) => unreachable!("the service queue is not closed until the feed ends"),
            }
            while let Some(result) = outstanding.try_next() {
                kept.push(result);
            }
        }

        service.close();
        while let Some(result) = outstanding.next_blocking() {
            kept.push(result);
        }
        let report = service.shutdown();
        FleetAssessment { report, results: kept }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("assessment panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("assessment panicked: {s}")
    } else {
        "assessment panicked (opaque payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_catalog::{CatalogSpec, InMemoryCatalogProvider};
    use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};

    fn assessor(workers: usize) -> FleetAssessor {
        FleetAssessor::production(FleetConfig::with_workers(workers))
    }

    fn request(name: &str, cpu: f64) -> FleetRequest {
        let history = PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 96]))
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; 96]));
        FleetRequest::new(
            DeploymentType::SqlDb,
            AssessmentRequest::from_history(name, history, vec![], None),
        )
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let fleet: Vec<FleetRequest> =
            (0..64).map(|i| request(&format!("inst-{i}"), 0.4 + (i % 7) as f64)).collect();
        let out = assessor(8).assess(fleet);
        assert_eq!(out.results.len(), 64);
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(*r.instance_name, format!("inst-{i}"));
        }
    }

    #[test]
    fn unroutable_deployments_land_in_the_failure_bucket() {
        // A pinned key resolves through its own deployment's route; SqlMi
        // has none.
        let assessor =
            FleetAssessor::over_registry(regional_registry(), FleetConfig::with_workers(2))
                .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)));
        let mi = request("mi-stranded", 0.5)
            .with_catalog_key(CatalogKey::production(DeploymentType::SqlMi));
        let fleet = vec![request("ok", 0.5), mi];
        let out = assessor.assess(fleet);
        assert_eq!(out.report.recommended, 1);
        assert_eq!(out.report.failed, 1);
        assert!(out.results[1].outcome.as_ref().unwrap_err().message.contains("SqlMi"));
    }

    #[test]
    fn heterogeneous_fleets_route_per_deployment() {
        let assessor = assessor(4);
        let mut mi = request("mi-1", 0.5);
        mi.deployment = DeploymentType::SqlMi;
        mi.request.input.file_sizes_gib = vec![64.0, 64.0];
        let out = assessor.assess(vec![request("db-1", 0.5), mi]);
        assert_eq!(out.report.failed, 0);
        let sku_of = |i: usize| {
            out.results[i].outcome.as_ref().unwrap().recommendation.sku_id.clone().unwrap()
        };
        assert!(sku_of(0).starts_with("DB_"));
        assert!(sku_of(1).starts_with("MI_"));
    }

    #[test]
    fn panicking_fleet_iterator_propagates_instead_of_deadlocking() {
        let assessor = assessor(2);
        let fleet = (0..8).map(|i| {
            if i == 4 {
                panic!("fleet source failed");
            }
            request(&format!("i{i}"), 0.5)
        });
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| assessor.assess(fleet)));
        assert!(outcome.is_err(), "the feed panic must propagate out of assess()");
    }

    #[test]
    fn empty_fleet_is_fine() {
        let out = assessor(4).assess(Vec::new());
        assert_eq!(out.report.fleet_size, 0);
        assert!(out.results.is_empty());
    }

    #[test]
    fn month_tagged_fleet_counts_instances_databases_recommendations() {
        let tagged = |i: usize, month: &str| {
            let mut r = request(&format!("i{i}"), 0.5);
            r.request.input.databases =
                vec![("d1".into(), PerfHistory::new()), ("d2".into(), PerfHistory::new())];
            r.with_month(month)
        };
        let fleet = (0..3).map(|i| tagged(i, "Oct-21")).chain((3..5).map(|i| tagged(i, "Nov-21")));
        let ledger = assessor(2).assess(fleet).report.adoption;
        let m = ledger.month("Oct-21").unwrap();
        assert_eq!(m.unique_instances, 3);
        assert_eq!(m.unique_databases, 6);
        // Tiny workloads: every SKU is eligible, so recommendations exceed
        // instances — the Table 1 pattern.
        assert!(m.recommendations_generated > m.unique_instances);
        assert_eq!(ledger.month("Nov-21").unwrap().unique_instances, 2);
        assert_eq!(ledger.rows().map(|(month, _)| month).collect::<Vec<_>>(), ["Oct-21", "Nov-21"]);
    }

    #[test]
    fn keep_results_false_retains_only_the_report() {
        let mut config = FleetConfig::with_workers(2);
        config.keep_results = false;
        let out = FleetAssessor::production(config)
            .assess((0..8).map(|i| request(&format!("i{i}"), 0.5)));
        assert!(out.results.is_empty());
        assert_eq!(out.report.fleet_size, 8);
        assert_eq!(out.report.recommended, 8);
    }

    fn regional_registry() -> Arc<EngineRegistry> {
        use doppler_catalog::{CatalogVersion, Region};
        let provider = InMemoryCatalogProvider::production()
            .with_region(
                Region::new("westeurope"),
                CatalogVersion::INITIAL,
                &CatalogSpec::default(),
                1.08,
            )
            .with_region(
                Region::new("eastasia"),
                CatalogVersion::INITIAL,
                &CatalogSpec::default(),
                1.12,
            );
        Arc::new(EngineRegistry::new(Arc::new(provider)))
    }

    #[test]
    fn registry_assessor_serves_keyless_and_keyed_requests() {
        use doppler_catalog::Region;
        let registry = regional_registry();
        let assessor =
            FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(4))
                .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)));
        let west =
            CatalogKey::production(DeploymentType::SqlDb).in_region(Region::new("westeurope"));
        let fleet = vec![
            request("global-0", 0.5),
            request("west-0", 0.5).with_catalog_key(west.clone()),
            request("global-1", 0.5),
            request("west-1", 0.5).with_catalog_key(west),
        ];
        let out = assessor.assess(fleet);
        assert_eq!(out.report.failed, 0);
        assert_eq!(out.report.recommended, 4);
        // Same workload, same SKU — but the West Europe instances pay the
        // 8 % regional premium.
        let cost = |i: usize| {
            out.results[i].outcome.as_ref().unwrap().recommendation.monthly_cost.unwrap()
        };
        assert_eq!(cost(0), cost(2));
        assert!((cost(1) - cost(0) * 1.08).abs() < 1e-6, "west {} vs global {}", cost(1), cost(0));
        // Two distinct keys touched → exactly two trainings, fleet-wide.
        let stats = registry.stats();
        assert_eq!(stats.misses, 2, "{stats:?}");
        assert_eq!(stats.hits + stats.coalesced, 2);
    }

    #[test]
    fn registry_assessor_without_a_route_fails_that_deployment_only() {
        let registry = regional_registry();
        let assessor =
            FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(2))
                .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)));
        let mut mi = request("mi-unrouted", 0.5);
        mi.deployment = DeploymentType::SqlMi;
        let out = assessor.assess(vec![request("db-ok", 0.5), mi]);
        assert_eq!(out.report.recommended, 1);
        assert_eq!(out.report.failed, 1);
        assert!(out.results[1].outcome.as_ref().unwrap_err().message.contains("SqlMi"));
    }

    #[test]
    fn unknown_regions_resolve_to_error_outcomes() {
        use doppler_catalog::Region;
        let registry = regional_registry();
        let assessor = FleetAssessor::over_registry(registry, FleetConfig::with_workers(2))
            .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)));
        let lost = request("lost", 0.5).with_catalog_key(
            CatalogKey::production(DeploymentType::SqlDb).in_region(Region::new("atlantis")),
        );
        let out = assessor.assess(vec![lost]);
        assert_eq!(out.report.failed, 1);
        assert!(out.results[0]
            .outcome
            .as_ref()
            .unwrap_err()
            .message
            .contains("no catalog registered"));
    }

    #[test]
    fn panicking_resolution_fails_the_request_not_the_worker() {
        use doppler_catalog::{CatalogProvider, Region, ResolvedCatalog};
        struct PanickyProvider(InMemoryCatalogProvider);
        impl CatalogProvider for PanickyProvider {
            fn resolve(&self, key: &CatalogKey) -> Option<ResolvedCatalog> {
                if key.region == Region::new("boom") {
                    panic!("provider feed corrupted");
                }
                self.0.resolve(key)
            }
        }
        let registry = Arc::new(EngineRegistry::new(Arc::new(PanickyProvider(
            InMemoryCatalogProvider::production(),
        ))));
        // One worker: if the panic killed it, the second request would
        // never be assessed (and a longer feed would deadlock on
        // backpressure).
        let assessor = FleetAssessor::over_registry(registry, FleetConfig::with_workers(1))
            .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)));
        let boom = request("boom", 0.5).with_catalog_key(
            CatalogKey::production(DeploymentType::SqlDb).in_region(Region::new("boom")),
        );
        let out = assessor.assess(vec![boom, request("fine", 0.5)]);
        assert_eq!(out.report.failed, 1);
        assert_eq!(out.report.recommended, 1);
        let message = &out.results[0].outcome.as_ref().unwrap_err().message;
        assert!(message.contains("provider feed corrupted"), "{message}");
        assert!(out.results[1].outcome.is_ok());
    }

    #[test]
    fn keyless_and_default_key_requests_share_one_engine() {
        // The two resolution rules meet: a keyless request resolves the
        // route's default key, so pinning that same key trains nothing new.
        let assessor = assessor(2);
        let pinned =
            request("pinned", 0.5).with_catalog_key(CatalogKey::production(DeploymentType::SqlDb));
        let out = assessor.assess(vec![request("keyless", 0.5), pinned]);
        assert_eq!(out.report.recommended, 2);
        let rec = |i: usize| &out.results[i].outcome.as_ref().unwrap().recommendation;
        assert_eq!(rec(0), rec(1));
        assert_eq!(assessor.registry().stats().misses, 1, "one engine serves both rules");
    }

    #[test]
    fn learned_backend_route_resolves_through_the_registry() {
        use doppler_core::{LearnedConfig, TrainingRecord};
        let registry =
            Arc::new(EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production())));
        let training = TrainingSet::new(vec![TrainingRecord {
            history: PerfHistory::new()
                .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![0.5; 96]))
                .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; 96])),
            chosen_sku: doppler_catalog::SkuId("DB_GP_2".into()),
            file_layout: None,
        }]);
        let assessor =
            FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(2))
                .with_route(
                    EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb))
                        .trained(training)
                        .with_backend_spec(BackendSpec::Learned(LearnedConfig::default())),
                );
        let out = assessor.assess(vec![request("learned-1", 0.5)]);
        assert_eq!(out.report.recommended, 1);
        let stats = registry.stats();
        assert_eq!(stats.misses, 1, "one learned training");
    }

    #[test]
    fn shared_pipelines_warm_start_without_retraining() {
        // Two assessors over one registry: the second resolves the engine
        // the first trained.
        let registry = regional_registry();
        let route = EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb));
        let a = FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(2))
            .with_route(route.clone());
        let b = FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(4))
            .with_route(route);
        assert!(Arc::ptr_eq(a.registry(), b.registry()));
        let fleet: Vec<FleetRequest> =
            (0..12).map(|i| request(&format!("w{i}"), 0.5 + i as f64 * 0.3)).collect();
        assert_eq!(a.assess(fleet.clone()).report, b.assess(fleet).report);
        assert_eq!(registry.stats().misses, 1, "{:?}", registry.stats());
    }
}
