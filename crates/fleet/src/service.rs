//! The streaming fleet front-end: a long-lived, submission-based service
//! over the worker pool.
//!
//! The paper frames Doppler as an ongoing pipeline — DMA "receives hundreds
//! of assessment requests daily", not one batch a quarter — so the serving
//! layer should accept requests continuously. [`FleetService`] is that
//! front-end:
//!
//! * [`submit`](FleetService::submit) /
//!   [`submit_all`](FleetService::submit_all) enqueue assessment requests
//!   at any time (blocking only on the bounded queue's backpressure) and
//!   hand back a [`Ticket`] per request;
//! * a pool of long-lived worker threads pops from the shared
//!   [`BoundedQueue`], resolves each request's engine through the shared
//!   engine registry, and delivers the result to its ticket;
//! * every completion is also folded, as it completes, into a
//!   [`FleetAggregator`], so [`report_snapshot`](FleetService::report_snapshot)
//!   yields a mid-run [`FleetReport`] over every result completed so far —
//!   a view a dashboard can render while results are still streaming in;
//! * [`shutdown`](FleetService::shutdown) (or `Drop`) closes the queue,
//!   lets the workers drain every accepted request, and joins them —
//!   dropping a service with in-flight tickets never deadlocks, and the
//!   buffered results stay receivable from the tickets afterwards.
//!
//! # Determinism
//!
//! Every submission takes one submission index (what
//! [`FleetResult::index`] reports), and workers fold each result into the
//! one aggregator the moment it completes. The aggregator's report does
//! not depend on fold order: cost totals are exact superaccumulator sums,
//! and attention lists and adoption months are ordered by submission
//! index when the report is built. So a finished run reports bit-for-bit
//! the same for any worker count and any completion order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use doppler_obs::{Counter, Histogram, ObsRegistry};

use crate::assessor::{EngineSet, FleetConfig, FleetRequest, FleetResult};
use crate::drift::{DriftOutcome, DriftProbe};
use crate::queue::BoundedQueue;
use crate::report::{FleetAggregator, FleetReport};

/// How many tasks a worker drains from the queue per lock
/// acquisition. Batching amortizes the queue's lock/condvar traffic under
/// a deep backlog without hurting latency — [`BoundedQueue::pop_many`]
/// never waits to *fill* a batch, it takes what is there.
const POP_QUANTUM: usize = 8;

/// One enqueued unit of work for the pool: an assessment request
/// (its submission index, the routed request, and the channel its result
/// is delivered on) or a drift check (which stays out of the assessment
/// aggregate — the [`DriftMonitor`](crate::drift::DriftMonitor) folds its
/// own outcomes).
enum Task {
    Assess {
        /// Submission index — what [`FleetResult::index`] carries.
        index: usize,
        /// Interned once at submission; the result carries it.
        instance_name: Arc<str>,
        request: FleetRequest,
        reply: mpsc::Sender<FleetResult>,
        /// Submission instant, for the queue-wait stage histogram. `None`
        /// when observability is disabled — the no-op mode never reads the
        /// clock.
        enqueued: Option<Instant>,
    },
    Drift {
        index: usize,
        probe: DriftProbe,
        reply: mpsc::Sender<DriftOutcome>,
        enqueued: Option<Instant>,
    },
}

/// The service's write-aside instrumentation: per-stage latency
/// histograms every worker records into. All handles are no-ops under a
/// disabled registry.
struct StageObs {
    /// `fleet.stage.queue_wait` — submit → worker pop, assessments.
    queue_wait: Histogram,
    /// `fleet.stage.aggregate` — folding one result into the aggregate
    /// (includes the progress-lock wait).
    aggregate: Histogram,
    /// `fleet.stage.drift_wait` — submit → worker pop, drift checks.
    drift_wait: Histogram,
    /// `fleet.stage.drift_probe` — evaluating one drift probe.
    drift_probe: Histogram,
}

impl StageObs {
    fn registered(registry: &ObsRegistry) -> StageObs {
        StageObs {
            queue_wait: registry.histogram("fleet.stage.queue_wait"),
            aggregate: registry.histogram("fleet.stage.aggregate"),
            drift_wait: registry.histogram("fleet.stage.drift_wait"),
            drift_probe: registry.histogram("fleet.stage.drift_probe"),
        }
    }
}

/// Everything the worker threads share with the front-end handle.
struct ServiceShared {
    queue: BoundedQueue<Task>,
    progress: Mutex<Progress>,
    engines: EngineSet,
    stages: StageObs,
    /// Submission indices handed out so far, so a single-threaded
    /// submitter sees indices in exact call order.
    next_index: AtomicUsize,
    /// Drift checks submitted so far — a separate sequence from the
    /// assessment submission indices, since drift work never enters the
    /// assessment aggregate.
    drift_submitted: AtomicUsize,
    obs: ObsRegistry,
}

/// Submission/completion tracking, under one mutex so
/// [`FleetService::progress`] reads a consistent snapshot. The mutex is
/// never held across the queue's blocking backpressure wait.
#[derive(Default)]
struct Progress {
    /// Requests accepted into the queue. Raised before the push and
    /// lowered again if the push loses to a concurrent close, so a
    /// completion is never counted ahead of its submission.
    submitted: usize,
    /// Every completed result, folded in as it completes; its
    /// [`accepted`](FleetAggregator::accepted) count is the completed
    /// count.
    aggregator: FleetAggregator,
}

fn lock_progress(shared: &ServiceShared) -> std::sync::MutexGuard<'_, Progress> {
    // A worker that panicked mid-assessment is already contained by
    // `EngineSet::assess_one`; tolerate a poisoned lock rather than
    // cascading panics through shutdown and snapshots.
    shared.progress.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker: drain the queue in [`POP_QUANTUM`]-sized batches until it
/// closes. The batch `Vec` is allocated once per worker
/// and reused across its whole lifetime — steady-state popping allocates
/// nothing.
fn worker_loop(shared: &ServiceShared, tasks: &Counter) {
    let stages = &shared.stages;
    let mut batch = Vec::with_capacity(POP_QUANTUM);
    while shared.queue.pop_many(POP_QUANTUM, &mut batch) > 0 {
        for task in batch.drain(..) {
            tasks.incr();
            match task {
                Task::Assess { index, instance_name, request, reply, enqueued } => {
                    if let Some(enqueued) = enqueued {
                        stages.queue_wait.record(enqueued.elapsed());
                    }
                    let result = shared.engines.assess_one(index, instance_name, request);
                    {
                        let _span = stages.aggregate.start();
                        lock_progress(shared).aggregator.accept(&result);
                    }
                    // The submitter may have dropped its ticket; that just
                    // means nobody is listening, not that the work failed.
                    let _ = reply.send(result);
                }
                Task::Drift { index, probe, reply, enqueued } => {
                    if let Some(enqueued) = enqueued {
                        stages.drift_wait.record(enqueued.elapsed());
                    }
                    // Drift checks bypass the Progress fold entirely: they
                    // are not assessments, so they stay out of the
                    // assessment aggregate.
                    let _span = stages.drift_probe.start();
                    let outcome = crate::drift::evaluate_probe(&shared.engines, index, probe);
                    drop(_span);
                    let _ = reply.send(outcome);
                }
            }
        }
    }
}

/// A claim on one submitted job's eventual result: a [`FleetResult`] for
/// an assessment, a [`DriftOutcome`] for a drift check
/// ([`FleetService::submit_drift`]).
///
/// Each ticket owns a private channel the worker delivers into, so results
/// remain receivable even after the service itself has been shut down or
/// dropped. Dropping a ticket is fine — the job still runs, and an
/// assessment still counts toward the service's aggregate report.
#[derive(Debug)]
pub struct Ticket<T = FleetResult> {
    index: usize,
    rx: mpsc::Receiver<T>,
}

impl<T> Ticket<T> {
    /// The submission index this ticket resolves to ([`FleetResult::index`],
    /// or the drift-check sequence number [`DriftOutcome::index`]).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Block until the result is ready. Returns `None` only if the service
    /// was torn down before the job ran — which a normal
    /// [`FleetService::shutdown`]/`Drop` never does, since both drain the
    /// queue first.
    pub fn recv(self) -> Option<T> {
        self.rx.recv().ok()
    }

    /// Non-blocking poll: `Some` exactly once, when the result has been
    /// delivered; `None` while it is still in flight.
    pub fn try_recv(&mut self) -> Option<T> {
        self.rx.try_recv().ok()
    }
}

/// A FIFO of outstanding [`Ticket`]s with front-first draining — the
/// bookkeeping every streaming caller otherwise rewrites by hand: push each
/// ticket as you submit, pull completed results in submission order with
/// [`try_next`](TicketQueue::try_next) while feeding, then block out the
/// tail with [`next_blocking`](TicketQueue::next_blocking). Interleaving
/// the two keeps the outstanding window bounded by the service's queue
/// depth + worker count.
#[derive(Debug, Default)]
pub struct TicketQueue {
    tickets: VecDeque<Ticket>,
}

impl TicketQueue {
    pub fn new() -> TicketQueue {
        TicketQueue { tickets: VecDeque::new() }
    }

    /// Append a freshly submitted ticket.
    pub fn push(&mut self, ticket: Ticket) {
        self.tickets.push_back(ticket);
    }

    /// Tickets still queued (resolved ones are removed as they drain).
    pub fn len(&self) -> usize {
        self.tickets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tickets.is_empty()
    }

    /// The next in-submission-order result if it is already available,
    /// without blocking. A ticket whose service died before assessing it
    /// (not reachable through normal shutdown) is discarded rather than
    /// wedging the queue.
    pub fn try_next(&mut self) -> Option<FleetResult> {
        loop {
            let front = self.tickets.front_mut()?;
            match front.rx.try_recv() {
                Ok(result) => {
                    self.tickets.pop_front();
                    return Some(result);
                }
                Err(mpsc::TryRecvError::Empty) => return None,
                Err(mpsc::TryRecvError::Disconnected) => {
                    self.tickets.pop_front();
                }
            }
        }
    }

    /// Block for the next in-submission-order result; `None` once every
    /// queued ticket has drained (lost tickets are skipped, as in
    /// [`try_next`](TicketQueue::try_next)).
    pub fn next_blocking(&mut self) -> Option<FleetResult> {
        while let Some(ticket) = self.tickets.pop_front() {
            if let Some(result) = ticket.recv() {
                return Some(result);
            }
        }
        None
    }
}

/// Point-in-time counters for a running service. The pair is read under
/// one lock, so `completed` never exceeds `submitted`;
/// workers keep completing the moment the lock is released, of course.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceProgress {
    /// Requests accepted by [`FleetService::submit`] so far.
    pub submitted: usize,
    /// Requests fully assessed — and folded into the snapshot aggregate —
    /// so far.
    pub completed: usize,
}

impl ServiceProgress {
    /// Submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.submitted - self.completed
    }
}

/// The long-lived streaming front-end over the fleet worker pool. See the
/// [module docs](crate::service) for the lifecycle.
pub struct FleetService {
    shared: Arc<ServiceShared>,
    workers: Vec<JoinHandle<()>>,
}

impl FleetService {
    pub(crate) fn from_parts(
        engines: EngineSet,
        config: FleetConfig,
        obs: ObsRegistry,
    ) -> FleetService {
        let shared = Arc::new(ServiceShared {
            queue: BoundedQueue::instrumented(config.queue_depth, &obs, "fleet.queue"),
            progress: Mutex::new(Progress::default()),
            engines,
            stages: StageObs::registered(&obs),
            next_index: AtomicUsize::new(0),
            drift_submitted: AtomicUsize::new(0),
            obs,
        });
        let workers = (0..config.workers.max(1))
            .map(|n| {
                let shared = Arc::clone(&shared);
                let tasks = shared.obs.counter(&format!("fleet.worker.{n}.tasks"));
                std::thread::Builder::new()
                    .name(format!("fleet-worker-{n}"))
                    .spawn(move || worker_loop(&shared, &tasks))
                    .expect("spawn fleet worker")
            })
            .collect();
        FleetService { shared, workers }
    }

    /// Enqueue one request, blocking while the bounded queue is at
    /// capacity (backpressure, not unbounded buffering). Requests flagged
    /// [`FleetRequest::with_priority`] enter the queue's priority lane and
    /// are popped ahead of the normal backlog; the report does not depend
    /// on completion order, so it stays deterministic. Returns
    /// the request back as `Err` if the service has been
    /// [`close`](FleetService::close)d.
    // The Err variant is deliberately the rejected request itself — same
    // contract as `BoundedQueue::push` — so a caller can reroute it to
    // another service without having cloned it up front.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, request: FleetRequest) -> Result<Ticket, FleetRequest> {
        let (reply, rx) = mpsc::channel();
        let index = self.submit_with_reply(request, reply)?;
        Ok(Ticket { index, rx })
    }

    /// [`submit`](FleetService::submit) with a caller-supplied delivery
    /// channel instead of a fresh [`Ticket`] — the allocation-lean path
    /// for high-volume streaming: clone one `Sender` per submission (a
    /// refcount bump) rather than building a channel pair each. Returns
    /// the request's submission index ([`FleetResult::index`]); batch
    /// collectors sort received results by it to restore submission order.
    /// Dropping the receiver is fine — the assessments still run and still
    /// count toward the aggregate report.
    #[allow(clippy::result_large_err)]
    pub fn submit_with_reply(
        &self,
        request: FleetRequest,
        reply: mpsc::Sender<FleetResult>,
    ) -> Result<usize, FleetRequest> {
        let shared = &*self.shared;
        let priority = request.priority;
        // Count the submission before the push (without holding the lock
        // across the queue's backpressure wait, which would stall every
        // dashboard poll with the feeder), so no worker can complete it
        // before it is counted.
        lock_progress(shared).submitted += 1;
        let index = shared.next_index.fetch_add(1, Ordering::Relaxed);
        let instance_name = Arc::from(request.request.instance_name.as_str());
        let enqueued = shared.obs.is_enabled().then(Instant::now);
        let task = Task::Assess { index, instance_name, request, reply, enqueued };
        let pushed =
            if priority { shared.queue.push_priority(task) } else { shared.queue.push(task) };
        match pushed {
            Ok(()) => Ok(index),
            Err(Task::Assess { request, .. }) => {
                // The push lost to a concurrent close: uncount it.
                lock_progress(shared).submitted -= 1;
                Err(request)
            }
            Err(Task::Drift { .. }) => unreachable!("an assess push returns an assess task"),
        }
    }

    /// Enqueue one drift check on the normal lane (monitoring sweeps are
    /// background work; it is the *re-assessment* of a drifted customer
    /// that jumps the queue). Drift checks share the worker pool and
    /// backpressure but never enter the assessment aggregate —
    /// collect the outcome from the returned [`Ticket`]. Returns the
    /// probe back as `Err` if the service has been closed.
    #[allow(clippy::result_large_err)]
    pub fn submit_drift(&self, probe: DriftProbe) -> Result<Ticket<DriftOutcome>, DriftProbe> {
        let (reply, rx) = mpsc::channel();
        let index = self.shared.drift_submitted.fetch_add(1, Ordering::Relaxed);
        let enqueued = self.shared.obs.is_enabled().then(Instant::now);
        match self.shared.queue.push(Task::Drift { index, probe, reply, enqueued }) {
            Ok(()) => Ok(Ticket { index, rx }),
            Err(Task::Drift { probe, .. }) => Err(probe),
            Err(Task::Assess { .. }) => unreachable!("a drift push returns a drift task"),
        }
    }

    /// Enqueue a whole stream of requests (lazily, with the same
    /// backpressure as [`submit`](FleetService::submit)), returning one
    /// ticket per request. On a closed service the rejected request comes
    /// back as `Err`; requests already submitted keep their tickets with
    /// the workers.
    #[allow(clippy::result_large_err)]
    pub fn submit_all<I>(&self, fleet: I) -> Result<Vec<Ticket>, FleetRequest>
    where
        I: IntoIterator<Item = FleetRequest>,
    {
        let mut tickets = Vec::new();
        for request in fleet {
            tickets.push(self.submit(request)?);
        }
        Ok(tickets)
    }

    /// The shared [`EngineRegistry`](doppler_core::EngineRegistry) this
    /// service resolves every request through. Fleet operators reach
    /// through this on catalog rolls — retire the superseded key, read the
    /// training-economy counters.
    pub fn registry(&self) -> &Arc<doppler_core::EngineRegistry> {
        self.shared.engines.registry()
    }

    /// The observability registry this service (and its queue, engine set,
    /// and any [`DriftMonitor`](crate::drift::DriftMonitor) over it) record
    /// into. Disabled unless the service was built via
    /// [`FleetAssessor::with_obs`](crate::assessor::FleetAssessor::with_obs).
    pub fn obs(&self) -> &ObsRegistry {
        &self.shared.obs
    }

    /// Items currently queued across both lanes (racy by nature; for
    /// dashboards).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Current submission/completion counters, read as one consistent
    /// snapshot under the progress lock.
    pub fn progress(&self) -> ServiceProgress {
        let progress = lock_progress(&self.shared);
        ServiceProgress { submitted: progress.submitted, completed: progress.aggregator.accepted() }
    }

    /// A mid-run [`FleetReport`] over every result completed so far — the
    /// incremental dashboard view. Once the service is drained this is the
    /// final report. Mid-run it covers the set of completed results,
    /// whichever they are; it never shrinks between polls.
    ///
    /// Cost note: the clone under the lock is O(chunk count + live
    /// attention rows), *not* O(results aggregated) — the aggregator's
    /// attention lists are chunked behind shared `Arc`s, so cloning shares
    /// the sealed chunks instead of copying every row. Hot-polling a
    /// dashboard stays cheap even over a fleet failing wholesale; the
    /// finishing work (sorting, report materialization) runs outside the
    /// lock.
    pub fn report_snapshot(&self) -> FleetReport {
        // Clone the accumulator inside the lock (cheap — see above), finish
        // it outside: workers delivering results contend on this mutex.
        let aggregator = lock_progress(&self.shared).aggregator.clone();
        aggregator.finish()
    }

    /// Stop accepting new submissions. Requests already queued still run;
    /// idle workers exit once the queue drains.
    pub fn close(&self) {
        self.shared.queue.close();
    }

    /// Whether [`close`](FleetService::close) has been called — after which
    /// every [`submit`](FleetService::submit) returns its request back.
    pub fn is_closed(&self) -> bool {
        self.shared.queue.is_closed()
    }

    /// Close, drain every accepted request, join the workers, and return
    /// the final aggregate report.
    pub fn shutdown(mut self) -> FleetReport {
        self.join_workers();
        // Workers are joined: nothing else reads the aggregator, so take it
        // instead of cloning.
        std::mem::take(&mut lock_progress(&self.shared).aggregator).finish()
    }

    fn join_workers(&mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            // A worker that somehow panicked outside the per-assessment
            // catch still must not break teardown for the others.
            let _ = handle.join();
        }
    }
}

impl Drop for FleetService {
    fn drop(&mut self) {
        self.join_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use doppler_catalog::{CatalogSpec, DeploymentType};
    use doppler_dma::AssessmentRequest;
    use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};

    use crate::assessor::FleetAssessor;

    fn service(workers: usize) -> FleetService {
        FleetAssessor::production(FleetConfig::with_workers(workers)).into_service()
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
    fn tickets_resolve_with_their_own_results() {
        let service = service(4);
        let tickets =
            service.submit_all((0..16).map(|i| request(&format!("inst-{i}"), 0.5))).unwrap();
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.index(), i);
            let result = ticket.recv().expect("assessed");
            assert_eq!(result.index, i);
            assert_eq!(*result.instance_name, format!("inst-{i}"));
            assert!(result.outcome.is_ok());
        }
        let report = service.shutdown();
        assert_eq!(report.fleet_size, 16);
        assert_eq!(report.recommended, 16);
    }

    #[test]
    fn snapshot_is_an_exact_prefix_report() {
        let service = service(2);
        let tickets = service.submit_all((0..12).map(|i| request(&format!("s{i}"), 0.5))).unwrap();
        // Wait for everything, then snapshot: must equal the final report.
        let mut queue = TicketQueue::new();
        tickets.into_iter().for_each(|t| queue.push(t));
        let mut results = Vec::new();
        while results.len() < 12 {
            match queue.try_next() {
                Some(result) => results.push(result),
                None => std::thread::yield_now(),
            }
        }
        assert!(queue.is_empty());
        let snapshot = service.report_snapshot();
        assert_eq!(snapshot.fleet_size, 12);
        let final_report = service.shutdown();
        assert_eq!(snapshot, final_report);
    }

    #[test]
    fn progress_counters_track_the_run() {
        let service = service(2);
        assert_eq!(service.progress(), ServiceProgress { submitted: 0, completed: 0 });
        let tickets = service.submit_all((0..8).map(|i| request(&format!("p{i}"), 0.5))).unwrap();
        assert_eq!(service.progress().submitted, 8);
        for t in tickets {
            t.recv().unwrap();
        }
        let progress = service.progress();
        assert_eq!(progress.completed, 8);
        assert_eq!(progress.in_flight(), 0);
        assert_eq!(service.shutdown().fleet_size, 8);
    }

    #[test]
    fn submit_after_close_returns_the_request() {
        let service = service(1);
        assert!(!service.is_closed());
        service.close();
        assert!(service.is_closed());
        let rejected = service.submit(request("late", 0.5)).unwrap_err();
        assert_eq!(rejected.request.instance_name, "late");
        assert_eq!(service.progress().submitted, 0, "rejected submissions burn no index");
        assert_eq!(service.shutdown().fleet_size, 0);
    }

    #[test]
    fn rejected_submissions_do_not_stall_aggregation() {
        let service = service(1);
        let tickets = service.submit_all((0..8).map(|i| request(&format!("r{i}"), 0.5))).unwrap();
        service.close();
        // Rejected while earlier submissions may still be in flight: the
        // consistent progress snapshot must not count it.
        assert!(service.submit(request("late", 0.5)).is_err());
        for ticket in tickets {
            ticket.recv().unwrap();
        }
        let progress = service.progress();
        assert_eq!(progress.submitted, 8);
        assert_eq!(progress.completed, 8);
        assert_eq!(progress.in_flight(), 0);
        assert_eq!(service.shutdown().fleet_size, 8);
    }

    #[test]
    fn dropping_the_service_with_inflight_tickets_joins_cleanly() {
        let service = service(2);
        let tickets = service.submit_all((0..24).map(|i| request(&format!("d{i}"), 0.5))).unwrap();
        // Drop the service while (potentially) none of the tickets have
        // been received: Drop closes the queue, drains the 24 accepted
        // requests, and joins — no deadlock, no panic, and the buffered
        // results stay receivable afterwards.
        drop(service);
        for (i, ticket) in tickets.into_iter().enumerate() {
            let result = ticket.recv().expect("drained before join");
            assert_eq!(result.index, i);
            assert!(result.outcome.is_ok());
        }
    }

    #[test]
    fn dropping_tickets_first_never_wedges_the_workers() {
        let service = service(2);
        let tickets = service.submit_all((0..16).map(|i| request(&format!("t{i}"), 0.5))).unwrap();
        drop(tickets);
        // Workers deliver into dropped receivers (a no-op) and keep going;
        // the aggregate still counts every submission.
        let report = service.shutdown();
        assert_eq!(report.fleet_size, 16);
        assert_eq!(report.recommended, 16);
    }

    #[test]
    fn unroutable_submissions_resolve_to_error_outcomes() {
        use doppler_catalog::{CatalogKey, InMemoryCatalogProvider};
        use doppler_core::EngineRegistry;

        use crate::assessor::EngineRoute;

        // Only SqlDb is routed; SqlMi requests have nowhere to go.
        let registry = EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production()));
        let service =
            FleetAssessor::over_registry(Arc::new(registry), FleetConfig::with_workers(2))
                .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)))
                .into_service();
        let mut mi = request("mi-stranded", 0.5);
        mi.deployment = DeploymentType::SqlMi;
        let ticket = service.submit(mi).unwrap();
        let result = ticket.recv().unwrap();
        assert!(result.outcome.unwrap_err().message.contains("SqlMi"));
        let report = service.shutdown();
        assert_eq!(report.failed, 1);
    }

    #[test]
    fn interleaved_submit_and_recv_streams_continuously() {
        let service = service(3);
        let mut queue = TicketQueue::new();
        let mut results = Vec::new();
        for i in 0..40 {
            queue.push(service.submit(request(&format!("c{i}"), 0.4)).unwrap());
            while let Some(result) = queue.try_next() {
                results.push(result);
            }
        }
        assert_eq!(queue.len() + results.len(), 40);
        while let Some(result) = queue.next_blocking() {
            results.push(result);
        }
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
        }
        assert_eq!(service.shutdown().fleet_size, 40);
    }

    #[test]
    fn priority_submissions_are_served_ahead_of_the_normal_backlog() {
        use doppler_catalog::{
            CatalogKey, CatalogProvider, CatalogVersion, InMemoryCatalogProvider, Region,
            ResolvedCatalog,
        };
        use doppler_core::EngineRegistry;
        use std::sync::Condvar;

        use crate::assessor::EngineRoute;

        // A provider that records the order workers resolve keys in, and
        // blocks the "gate" key until released — so the worker can be
        // parked while a backlog builds up behind it.
        struct GatingProvider {
            inner: InMemoryCatalogProvider,
            served: Mutex<Vec<String>>,
            gate: (Mutex<bool>, Condvar),
        }
        impl CatalogProvider for GatingProvider {
            fn resolve(&self, key: &CatalogKey) -> Option<ResolvedCatalog> {
                self.served.lock().unwrap().push(key.region.as_str().to_string());
                if key.region.as_str() == "gate" {
                    let (lock, cvar) = &self.gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cvar.wait(open).unwrap();
                    }
                }
                self.inner.resolve(key)
            }
        }

        let regions = ["gate", "n0", "n1", "n2", "p0", "p1"];
        let inner = regions.iter().fold(InMemoryCatalogProvider::new(), |p, r| {
            p.with_region(Region::new(*r), CatalogVersion::INITIAL, &CatalogSpec::default(), 1.0)
        });
        let provider = Arc::new(GatingProvider {
            inner,
            served: Mutex::new(Vec::new()),
            gate: (Mutex::new(false), Condvar::new()),
        });
        let registry = Arc::new(EngineRegistry::new(Arc::clone(&provider) as _));
        // One worker and a deep queue: every submission below is popped by
        // that single worker in lane order, which the provider log records.
        let config = FleetConfig { workers: 1, queue_depth: 16, keep_results: true };
        let service = FleetAssessor::over_registry(registry, config)
            .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)))
            .into_service();

        let keyed = |region: &str, priority: bool| {
            let r = request(region, 0.5).with_catalog_key(CatalogKey::new(
                DeploymentType::SqlDb,
                Region::new(region),
                CatalogVersion::INITIAL,
            ));
            if priority {
                r.with_priority()
            } else {
                r
            }
        };

        // Park the worker on the gate...
        let gate_ticket = service.submit(keyed("gate", false)).unwrap();
        while provider.served.lock().unwrap().is_empty() {
            std::thread::yield_now();
        }
        // ...queue a normal backlog, then priority work behind it.
        let mut tickets = Vec::new();
        for region in ["n0", "n1", "n2"] {
            tickets.push(service.submit(keyed(region, false)).unwrap());
        }
        for region in ["p0", "p1"] {
            tickets.push(service.submit(keyed(region, true)).unwrap());
        }
        // Release the gate and drain.
        {
            let (lock, cvar) = &provider.gate;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
        }
        assert!(gate_ticket.recv().unwrap().outcome.is_ok());
        let report = service.shutdown();
        assert_eq!(report.fleet_size, 6);
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        // The observable reorder: both priority submissions were served
        // before any of the normal backlog submitted ahead of them.
        let served = provider.served.lock().unwrap().clone();
        assert_eq!(served, vec!["gate", "p0", "p1", "n0", "n1", "n2"]);
        // Tickets still resolve with their own results, and the aggregate
        // was unaffected (fleet_size/failed above); per-ticket results keep
        // their submission identity.
        for (ticket, region) in tickets.into_iter().zip(["n0", "n1", "n2", "p0", "p1"]) {
            assert_eq!(&*ticket.recv().unwrap().instance_name, region);
        }
    }

    #[test]
    fn drift_probes_ride_the_pool_without_entering_the_aggregate() {
        use crate::drift::{DriftProbe, DriftVerdict};
        let service = service(2);
        let window = |cpu: f64| {
            Arc::new(
                PerfHistory::new()
                    .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 48]))
                    .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; 48])),
            )
        };
        let probe = DriftProbe {
            customer: "c-1".into(),
            deployment: DeploymentType::SqlDb,
            catalog_key: None,
            baseline: window(0.5),
            fresh: window(7.0),
        };
        let mut ticket = service.submit_drift(probe.clone()).unwrap();
        assert_eq!(ticket.index(), 0);
        let outcome = loop {
            match ticket.try_recv() {
                Some(outcome) => break outcome,
                None => std::thread::yield_now(),
            }
        };
        assert_eq!(outcome.customer, "c-1");
        assert_eq!(outcome.verdict, DriftVerdict::Drifted);
        // Drift work is invisible to the assessment aggregate.
        assert_eq!(service.progress(), ServiceProgress { submitted: 0, completed: 0 });
        assert_eq!(service.report_snapshot().fleet_size, 0);
        // A closed service hands the probe back, like submit does.
        service.close();
        let rejected = service.submit_drift(probe).unwrap_err();
        assert_eq!(rejected.customer, "c-1");
        assert_eq!(service.shutdown().fleet_size, 0);
    }

    #[test]
    fn drift_tickets_deliver_their_outcome_through_recv() {
        use crate::drift::{DriftProbe, DriftVerdict};
        let obs = ObsRegistry::enabled();
        let service =
            FleetAssessor::production(FleetConfig::with_workers(2)).with_obs(&obs).into_service();
        let window = |cpu: f64| {
            Arc::new(
                PerfHistory::new()
                    .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 48]))
                    .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; 48])),
            )
        };
        let probe = |customer: &str, fresh_cpu: f64| DriftProbe {
            customer: customer.into(),
            deployment: DeploymentType::SqlDb,
            catalog_key: None,
            baseline: window(0.5),
            fresh: window(fresh_cpu),
        };
        let tickets: Vec<Ticket<DriftOutcome>> = [("grown", 7.0), ("steady", 0.5)]
            .into_iter()
            .map(|(customer, cpu)| service.submit_drift(probe(customer, cpu)).unwrap())
            .collect();
        let verdicts: Vec<_> = tickets
            .into_iter()
            .enumerate()
            .map(|(i, ticket)| {
                assert_eq!(ticket.index(), i, "drift checks take their own sequence");
                let outcome = ticket.recv().expect("drift checks are answered");
                assert_eq!(outcome.index, i);
                (outcome.customer, outcome.verdict)
            })
            .collect();
        assert_eq!(
            verdicts,
            [("grown".to_string(), DriftVerdict::Drifted), ("steady".into(), DriftVerdict::Stable)]
        );
        assert_eq!(service.shutdown().fleet_size, 0);
        // Drift checks share the assessments' panic guard but not their
        // stage metrics: `fleet.stage.resolve` counts assessments only.
        let snapshot = obs.snapshot();
        let count = |name: &str| snapshot.histogram(name).map_or(0, |h| h.count);
        assert_eq!(count("fleet.stage.drift_probe"), 2);
        assert_eq!(count("fleet.stage.resolve"), 0);
    }
}
