//! Synthetic workload and customer-population generation.
//!
//! The Doppler paper evaluates on proprietary Azure telemetry: perf
//! histories of 9,295 SQL MI and 7,041 SQL DB customers (§5), 257 on-prem
//! SQL servers, and a synthesis tool that reconstructs workloads from
//! benchmark fragments (§5.4). None of that data can ship with a
//! reproduction, so this crate builds the closest synthetic equivalents
//! (the README's "Reproduction harness" section says how the experiments
//! use them):
//!
//! * [`spec`] / [`mod@generate`] — a parametric trace generator producing the
//!   statistical features Doppler actually consumes: baselines, diurnal
//!   seasonality, trends, noise, and spike trains per perf dimension,
//! * [`archetype`] — named workload shapes (steady, spiky-CPU, diurnal,
//!   bursty-IO, OLTP/OLAP/KV-like, idle, …) used across the experiments,
//! * [`synth`] — the benchmark-fragment composer of §5.4: TPC-C/H/DS and
//!   YCSB-like fragments with scale factor, frequency, and concurrency,
//!   fitted to a target perf history,
//! * [`population`] — seeded cohorts of cloud customers (with fixed SKU
//!   choices, negotiability ground truth, and an over-provisioned segment)
//!   and on-prem assessment candidates,
//! * [`drift`] — the §5.2.3 before/after SKU-change scenario.

#![forbid(unsafe_code)]

pub mod archetype;
pub mod drift;
pub mod generate;
pub mod population;
pub mod spec;
pub mod synth;

pub use archetype::WorkloadArchetype;
pub use drift::{drift_scenario, DriftDirection, DriftScenario, DriftSpec};
pub use generate::generate;
pub use population::{
    onprem_population, sec53_instances, CloudCustomer, OnPremCandidate, PopulationSpec, ShapeClass,
};
pub use spec::{DimensionProfile, SpikeTrain, WorkloadSpec};
pub use synth::{BenchmarkFragment, BenchmarkKind, SynthesizedWorkload};
