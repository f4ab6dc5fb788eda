//! Statistics substrate for the Doppler SKU-recommendation engine.
//!
//! The Doppler paper (VLDB 2022) relies on a handful of classical statistical
//! tools to turn raw performance-counter time series into negotiability
//! profiles and confidence scores:
//!
//! * empirical CDFs and the area under them ([`ecdf`], [`auc`]) — the
//!   *MinMax Scaler AUC* and *Max Scaler AUC* summarizers of §3.3,
//! * spike-duration measurement ([`spike`]) — the *thresholding algorithm*,
//! * outlier fractions ([`outlier`]) — the *outlier percentage* summarizer,
//! * Seasonal-Trend decomposition by Loess ([`stl`], [`loess`]) — the *STL
//!   variance decomposition* summarizer,
//! * k-means clustering ([`mod@kmeans`]) — the grouping step of the
//!   Customer Profiler,
//! * contiguous-window bootstrapping ([`bootstrap`]) — the confidence score
//!   of §3.4.
//!
//! Everything here is implemented from scratch on `f64` slices so the engine
//! crates stay free of heavyweight numeric dependencies. All randomized
//! routines take explicit seeds and are fully deterministic.
//!
//! The only `unsafe` code is in the private `dispatch` module, which runs
//! the STL kernels' AVX2 copy on CPUs that have AVX2.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod auc;
pub mod bootstrap;
pub mod descriptive;
#[allow(unsafe_code)]
mod dispatch;
pub mod distance;
pub mod ecdf;
pub mod exactsum;
pub mod kmeans;
pub mod loess;
pub mod outlier;
pub mod rng;
pub mod scaling;
pub mod spike;
pub mod stl;

pub use auc::{auc_ecdf, max_scaled_auc, minmax_scaled_auc};
pub use bootstrap::{BootstrapWindows, WindowSampler};
pub use descriptive::{mean, quantile, quantile_sorted, stddev, variance, Summary};
pub use distance::{euclidean, euclidean_sq, manhattan};
pub use ecdf::Ecdf;
pub use exactsum::ExactSum;
pub use kmeans::{kmeans, nearest_centroid, KMeansResult};
pub use loess::loess_smooth;
pub use outlier::outlier_fraction;
pub use rng::SeededRng;
pub use scaling::{max_scale, minmax_scale};
pub use spike::{spike_dwell_fraction, SpikeProfile};
pub use stl::{stl_decompose, StlDecomposition};
