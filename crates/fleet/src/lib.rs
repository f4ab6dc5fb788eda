//! # doppler-fleet — concurrent fleet-scale batch assessment
//!
//! Doppler shipped as a production service: DMA alone submitted hundreds
//! of assessment requests daily, and across Azure migration tooling the
//! engine issued 774K+ SKU recommendations (§4, Table 1). The per-instance
//! library in `doppler-dma` assesses one instance at a time; this crate is
//! the serving skeleton above it:
//!
//! * [`queue`] — a bounded, closable MPMC work queue, so fleets described
//!   by lazy iterators (streamed synthetic populations, §5-scale cohorts)
//!   are assessed in O(queue depth) request memory;
//! * [`assessor`] — the [`FleetAssessor`]: the one-shot batch entry point,
//!   resolving each request's engine through a shared `EngineRegistry`
//!   (one [`EngineRoute`] per deployment), catching per-instance panics
//!   into a failure bucket, and collecting results order-stably so output
//!   is bit-for-bit identical for any worker count;
//! * [`service`] — the [`FleetService`] streaming front-end: a long-lived
//!   worker pool accepting [`submit`](FleetService::submit)ted requests
//!   continuously (assessments and drift checks alike), resolving them
//!   through [`Ticket`] handles, and
//!   publishing incremental [`FleetReport`] snapshots mid-run;
//! * [`report`] — the [`FleetReport`] aggregation layer: total monthly
//!   cost, SKU-mix histogram, curve-shape and confidence distributions,
//!   per-deployment breakdown, and the unplaceable/failure buckets, with a
//!   terminal rendering in the style of the bench crate's ASCII figures;
//! * [`backtest`] — the [`Backtest`] harness that judges one backend
//!   against another: a held-out cohort assessed through a candidate and
//!   a reference assessor (ground-truth labels or a champion backend),
//!   every pick replayed on the customer's own history through the
//!   `doppler-replay` queueing machine, scored into SKU agreement, fit
//!   rates, throttle months, and a cost delta ([`BacktestReport`]);
//! * [`drift`] — the [`DriftMonitor`] continuous re-assessment loop
//!   (assess → deploy → monitor → re-queue): fleet-wide §5.2.3 drift
//!   checks over the same worker pool, [`FleetDriftReport`] roll-ups per
//!   region and deployment, priority-lane re-queueing of drifted
//!   customers, and the catalog-lifecycle hook
//!   ([`DriftMonitor::on_catalog_roll`]) that retires a rolled key's
//!   engines and re-prices its pinned customers through the same lane;
//! * [`scheduler`] — the [`FleetScheduler`] autonomous lifecycle loop: a
//!   virtual [`SimClock`] drives telemetry arrival, monthly drift ticks,
//!   price-feed application, cursor-based catalog-roll dispatch, and
//!   TTL-based retirement — years of fleet life simulated in seconds,
//!   bit-for-bit equal to the operator-cranked sequence;
//! * [`source`] — conversions from `doppler-workload` populations
//!   (cloud cohorts, on-prem candidates) into fleet request streams.
//!
//! ## Example
//!
//! ```
//! use doppler_catalog::{azure_paas_catalog, CatalogSpec};
//! use doppler_fleet::{cloud_fleet, FleetAssessor, FleetConfig};
//! use doppler_workload::PopulationSpec;
//!
//! let catalog = azure_paas_catalog(&CatalogSpec::default());
//! let assessor = FleetAssessor::production(FleetConfig::with_workers(4));
//!
//! let spec = PopulationSpec { days: 1.0, ..PopulationSpec::sql_db(50, 42) };
//! let assessment = assessor.assess(cloud_fleet(&spec, &catalog, None));
//!
//! assert_eq!(assessment.report.fleet_size, 50);
//! println!("{}", assessment.report.render());
//! ```
//!
//! ## Streaming
//!
//! For continuous operation, convert the assessor into a [`FleetService`]
//! and submit requests as they arrive:
//!
//! ```
//! use doppler_catalog::{azure_paas_catalog, CatalogSpec};
//! use doppler_fleet::{cloud_fleet, FleetAssessor, FleetConfig};
//! use doppler_workload::PopulationSpec;
//!
//! let catalog = azure_paas_catalog(&CatalogSpec::default());
//! let service = FleetAssessor::production(FleetConfig::with_workers(2)).into_service();
//!
//! let spec = PopulationSpec { days: 1.0, ..PopulationSpec::sql_db(10, 42) };
//! let tickets = service.submit_all(cloud_fleet(&spec, &catalog, None)).unwrap();
//! for ticket in tickets {
//!     let result = ticket.recv().expect("assessed");
//!     assert!(result.outcome.is_ok());
//! }
//! // Workers fold each result before resolving its ticket, so every
//! // `report_snapshot()` from here on renders these same numbers; earlier
//! // snapshots cover the results completed so far.
//! let report = service.shutdown();
//! assert_eq!(report.fleet_size, 10);
//! ```

#![forbid(unsafe_code)]

pub mod assessor;
pub mod backtest;
pub mod drift;
pub mod queue;
pub mod report;
pub mod scheduler;
pub mod service;
pub mod source;

pub use assessor::{
    AssessmentError, EngineRoute, FleetAssessment, FleetAssessor, FleetConfig, FleetRequest,
    FleetResult,
};
pub use backtest::{
    backtest_report_from_json, backtest_report_to_json, Backtest, BacktestCase, BacktestCaseRow,
    BacktestReport, ReplayScore,
};
pub use drift::{
    CatalogRollOutcome, DriftMonitor, DriftOutcome, DriftPass, DriftProbe, DriftRollupRow,
    DriftVerdict, DriftedRow, FleetDriftReport, MonitoredCustomer,
};
pub use queue::BoundedQueue;
pub use report::{
    eligible_recommendations, ConfidenceSummary, DeploymentMixRow, FailureRow, FleetAggregator,
    FleetReport, ShapeMixRow, SkuMixRow,
};
pub use scheduler::{
    schedule_summary_from_json, schedule_summary_to_json, FleetScheduler, ScheduleMonthRow,
    ScheduleSummary, SimClock, SimMonth,
};
pub use service::{FleetService, ServiceProgress, Ticket, TicketQueue};
pub use source::{cloud_fleet, customer_request, onprem_fleet, onprem_request};
