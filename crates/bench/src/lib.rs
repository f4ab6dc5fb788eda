//! Shared harness code for the Doppler reproduction benchmarks.
//!
//! The `reproduce` binary (one subcommand per paper table/figure) and the
//! criterion benches both build on these helpers:
//!
//! * [`backtest`] — the §5.2 evaluation loop: train the engine on a
//!   synthetic migrated-customer cohort, recommend for every member, and
//!   score against the SKU each member actually fixed;
//! * [`ascii`] — terminal rendering of curves and series so every figure
//!   has a printable form;
//! * [`experiments`] — one reproduction function per paper table/figure,
//!   dispatched by the `reproduce` binary;
//! * [`par`] — the in-order parallel map that runs Table 4's cells and
//!   `reproduce all`'s experiments on every CPU.

#![forbid(unsafe_code)]

pub mod ascii;
pub mod backtest;
pub mod experiments;
pub mod par;
