//! Performance-counter telemetry for the Doppler engine.
//!
//! The DMA appliance's *Performance Collector & Pre-Aggregator* (Figure 2)
//! gathers "SQL performance (perf) counters on CPU, storage, memory, IOPs,
//! and latency", sampling every 10 minutes and aggregating "at the file,
//! database and instance levels" (§4). This crate models that path:
//!
//! * [`series`] — evenly spaced [`TimeSeries`] at a fixed sampling interval,
//! * [`counters`] — the [`PerfDimension`] vocabulary and the
//!   [`PerfHistory`] bundle of aligned series the engine consumes,
//! * [`collect`] — the pre-aggregator: bucketing raw, possibly gappy
//!   samples into clean 10-minute intervals,
//! * [`mod@rollup`] — file → database → instance aggregation,
//! * [`mod@window`] — [`PerfHistory::window`], one contiguous window cut
//!   out of a longer history.
//!
//! A before/after drift comparison (§5.2.3) takes its two windows as two
//! [`PerfHistory`] values.

#![forbid(unsafe_code)]

pub mod collect;
pub mod counters;
pub mod rollup;
pub mod series;
pub mod window;

pub use collect::{PreAggregator, RawSample};
pub use counters::{PerfDimension, PerfHistory};
pub use rollup::{rollup, AggregationLevel};
pub use series::TimeSeries;
