//! Data Migration Assistant (DMA) integration (§4).
//!
//! Doppler ships inside DMA v5.5; three modules were built around the
//! engine, and this crate reproduces each:
//!
//! * [`preprocess`] — the **Data Preprocessing Module**: raw perf counters
//!   (collected every 10 minutes, possibly gappy) are aggregated and rolled
//!   up file → database → instance, and the static inputs (SKU catalog,
//!   pricing) are attached;
//! * [`pipeline`] — the **SKU Recommendation Pipeline**: runs the Doppler
//!   engine over the preprocessed input and returns the decision (an
//!   [`AssessmentResult`]: database count plus recommendation);
//! * [`report`] — the **Resource Use Module**: time-series and distribution
//!   dashboards plus the price-performance curve, "so that customers can
//!   understand why they received a specific SKU recommendation"; exports
//!   to plain text and JSON. An assessment does not build it: a caller that
//!   shows the dashboard calls [`ResourceUseReport::build`] on the
//!   request's history and the result's recommendation;
//! * [`assessment`] — adoption accounting: DMA receives hundreds of
//!   assessment requests daily (Table 1); this module keeps the monthly
//!   adoption counters. The batch fan-out itself is served by the
//!   `doppler-fleet` worker pool (`doppler_fleet::FleetAssessor`), whose
//!   report fills the [`AdoptionLedger`] kept here from month-tagged
//!   requests.

#![forbid(unsafe_code)]

pub mod assessment;
pub mod json;
pub mod obs_export;
pub mod pipeline;
pub mod preprocess;
pub mod report;

pub use assessment::{AdoptionLedger, MonthlyAdoption};
pub use obs_export::{obs_snapshot_from_json, obs_snapshot_to_json};
pub use pipeline::{AssessmentRequest, AssessmentResult, SkuRecommendationPipeline};
pub use preprocess::{DatabaseTelemetry, PreprocessedInstance, RawCounterSet};
pub use report::{render_text_report, ResourceUseReport};
