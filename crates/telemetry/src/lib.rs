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
//! * [`mod@window`] — splitting and stitching histories for before/after
//!   drift comparisons.

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
pub use window::{concat, split_at};
