//! The Doppler engine: automated SKU recommendation from low-level resource
//! statistics (Cahoon et al., PVLDB 15(12), 2022).
//!
//! Doppler maps a customer's performance history — CPU, memory, IOPS, IO
//! latency, and for SQL DB log rate and storage — onto a right-sized Azure
//! SQL PaaS SKU without ever reading customer data or queries. The engine
//! is two modules plus a guardrail:
//!
//! * the **Price-Performance Modeler** ([`throttling`], [`curve`]):
//!   estimate, for every candidate SKU, the probability that the workload
//!   runs into resource throttling (Eq. 1), and plot `1 − P(throttling)`
//!   against monthly cost as a monotone *price-performance curve*;
//! * the **Customer Profiler** ([`profile`], [`grouping`], [`matching`]):
//!   summarize each dimension's negotiability, group customers with the
//!   straightforward-enumeration or k-means strategy, learn
//!   each group's preferred operating point from successfully migrated
//!   customers (Eq. 3), and match new customers to the SKU closest below
//!   that point (Eqs. 4–6);
//! * the **confidence score** ([`confidence`]): bootstrap the raw telemetry
//!   and report how often the recommendation survives resampling (§3.4).
//!
//! Around those sit the SQL MI storage-tier flow ([`mi`], §3.2), the naive
//! baseline Doppler replaced ([`baseline`], §2), the curve-shape heuristics
//! the paper shows to be inadequate ([`heuristics`], §3.2), right-sizing of
//! over-provisioned cloud customers ([`mod@rightsize`], §5.1), SKU-change
//! detection ([`driftdetect`], §5.2.3), and the human-readable explanations
//! ([`explain`]) that make the recommendation auditable. [`engine`] ties
//! everything into the [`engine::DopplerEngine`] façade the DMA pipeline
//! calls, and [`registry`] memoizes trained engines per
//! `(catalog key, backend, template, training set)` so a whole fleet shares
//! one training run per distinct key.
//!
//! The engine is one of several [`backend::RecommendationBackend`]s: every
//! consumer (pipeline, fleet, drift monitor, registry) works against the
//! trait, [`engine::DopplerEngine`] is the default implementation, and
//! [`learned::LearnedBackend`] is a Lorentz-style learned alternative with a
//! similarity-floor fallback to the heuristic.

#![forbid(unsafe_code)]

pub mod backend;
pub mod baseline;
pub mod confidence;
pub mod curve;
pub mod driftdetect;
pub mod engine;
pub mod explain;
pub mod grouping;
pub mod heuristics;
pub mod learned;
pub mod matching;
pub mod mi;
pub mod profile;
pub mod registry;
pub mod rightsize;
pub mod throttling;

pub use backend::{BackendSpec, RecommendationBackend};
pub use baseline::BaselineStrategy;
pub use confidence::{confidence_score, ConfidenceConfig};
pub use curve::{CurveShape, PricePerfPoint, PricePerformanceCurve};
pub use driftdetect::{detect_drift, DriftReport, DriftSeverity};
pub use engine::{DopplerEngine, EngineConfig, Recommendation, TrainingRecord};
pub use grouping::{FittedGrouping, GroupingStrategy};
pub use heuristics::CurveHeuristic;
pub use learned::{LearnedBackend, LearnedConfig, LearnedTrainError};
pub use matching::GroupModel;
pub use mi::{mi_curve, MiAssessment};
pub use profile::NegotiabilityStrategy;
pub use registry::{EngineRegistry, EngineTemplate, RegistryError, RegistryStats, TrainingSet};
pub use rightsize::{rightsize, RightsizeReport};
pub use throttling::{throttling_probability, ThrottleBreakdown};
