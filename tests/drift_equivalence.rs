//! Drift-monitor equivalence and determinism: a monitor-driven fleet
//! drift pass over a 1,000-customer mixed-region cohort (drift injected
//! into exactly one region) must
//!
//! 1. produce per-customer verdicts **identical to serially calling
//!    `detect_drift`** on the same baseline and fresh windows against the
//!    same regional catalogs,
//! 2. attribute every drifted customer to the region the drift was
//!    injected into (and nothing to the control regions), and
//! 3. be **bit-for-bit deterministic** — the same `FleetDriftReport`,
//!    outcome vector, and priority-lane re-assessments (SKU and cost
//!    included) under every deployment in `common::CONFIGS`, the
//!    monitor re-queueing each drifted customer on the priority lane.
//!
//! Runs single-threaded in the CI determinism job so the service worker
//! pool is the only concurrency in play.

mod common;

use std::sync::Arc;

use common::{outcomes, provider, region_of, sweep, Config, REGIONS};
use doppler::fleet::{DriftVerdict, MonitoredCustomer};
use doppler::prelude::*;
use doppler::workload::DriftDirection;

const COHORT: usize = 1_000;
const DRIFTING_REGION: &str = "westeurope";

/// Customer `i` of the cohort: its region (round-robin), catalog key
/// (global customers stay keyless — the default-route path), and its
/// baseline + fresh telemetry windows. Only the drifting region's
/// customers get a grown, latency-critical fresh window; the others get a
/// control window drawn from the same distribution as their baseline.
fn cohort_member(i: usize) -> (MonitoredCustomer, PerfHistory) {
    let region = region_of(i);
    let drifts = region == DRIFTING_REGION;
    let spec = DriftSpec {
        direction: DriftDirection::Grow,
        days: 1.0,
        onset_day: 0.5,
        magnitude: if drifts { 25.0 / 6.0 } else { 1.0 },
        base_scale: 0.5 + 0.4 * ((i % 7) as f64 / 6.0),
        latency_critical: true,
    };
    let scenario = spec.scenario(1000 + i as u64);
    let mut customer =
        MonitoredCustomer::new(format!("cust-{i:04}"), DeploymentType::SqlDb, scenario.before);
    if region != "global" {
        customer = customer.with_catalog_key(
            CatalogKey::production(DeploymentType::SqlDb).in_region(Region::new(region)),
        );
    }
    (customer, scenario.after)
}

fn monitor(config: Config) -> DriftMonitor {
    let registry = Arc::new(EngineRegistry::new(Arc::new(provider())));
    let assessor = config
        .over_registry(registry)
        .with_route(EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb)));
    DriftMonitor::new(assessor)
}

fn run_pass(config: Config) -> DriftPass {
    let mut monitor = monitor(config);
    for i in 0..COHORT {
        let (customer, fresh) = cohort_member(i);
        let name = customer.name.clone();
        monitor.watch(customer);
        assert!(monitor.observe(&name, fresh));
    }
    monitor.tick("Jul-22")
}

/// One serial-reference row: `(customer, verdict, before SKU, after SKU,
/// throttle-if-unchanged)`.
type SerialVerdict = (String, DriftVerdict, Option<String>, Option<String>, f64);

/// The serial reference: `detect_drift` called customer by customer on
/// the baseline and fresh windows, against the catalog its key resolves to, with
/// the monitor's verdict rule applied by hand.
fn serial_verdicts() -> Vec<SerialVerdict> {
    let provider = provider();
    (0..COHORT)
        .map(|i| {
            let (customer, fresh) = cohort_member(i);
            let key = customer
                .catalog_key
                .clone()
                .unwrap_or_else(|| CatalogKey::production(DeploymentType::SqlDb));
            let resolved = provider.resolve(&key).expect("registered region");
            let skus = resolved.catalog.for_deployment(customer.deployment);
            let report = detect_drift(&customer.baseline, &fresh, &skus);
            let verdict = match (&report.before_sku, &report.after_sku) {
                (Some(_), Some(_)) if report.changed => DriftVerdict::Drifted,
                (Some(_), Some(_)) => DriftVerdict::Stable,
                _ => DriftVerdict::Inconclusive,
            };
            (
                customer.name.clone(),
                verdict,
                report.before_sku,
                report.after_sku,
                report.throttle_if_unchanged,
            )
        })
        .collect()
}

#[test]
fn monitor_pass_matches_serial_detect_drift_with_regional_attribution() {
    let pass = run_pass(Config { workers: 4, ..Config::SERIAL });
    let reference = serial_verdicts();
    assert_eq!(pass.outcomes.len(), COHORT);
    assert_eq!(reference.len(), COHORT);

    // 1. Per-customer verdict equality with the serial reference.
    let mut expected_drifted = 0usize;
    for (outcome, (name, verdict, before, after, throttle)) in pass.outcomes.iter().zip(&reference)
    {
        assert_eq!(&outcome.customer, name);
        assert_eq!(&outcome.verdict, verdict, "{name}");
        assert_eq!(&outcome.before_sku, before, "{name}");
        assert_eq!(&outcome.after_sku, after, "{name}");
        assert_eq!(outcome.throttle_if_unchanged, *throttle, "{name}");
        if *verdict == DriftVerdict::Drifted {
            expected_drifted += 1;
        }
    }
    assert_eq!(pass.report.drifted, expected_drifted);
    assert_eq!(pass.report.checked, COHORT);
    assert_eq!(pass.report.inconclusive, 0, "every cohort member resolves");

    // 2. The injected drift shows up where it was injected — and only
    // there. Every drifting-region customer moved (the fresh window is
    // latency-critical: only Business Critical hosts it), every control
    // customer held.
    let per_region = |label: &str| {
        pass.report
            .regions
            .iter()
            .find(|r| r.key == Region::new(label))
            .unwrap_or_else(|| panic!("missing region row {label}"))
    };
    for &(label, _) in &REGIONS {
        let row = per_region(label);
        let members = (0..COHORT).filter(|&i| region_of(i) == label).count();
        assert_eq!(row.checked, members, "{label}");
        if label == DRIFTING_REGION {
            assert_eq!(row.drifted, members, "{label}: all injected customers drift");
            assert_eq!(row.stable, 0);
            assert!(row.cost_delta > 0.0, "growing costs money");
        } else {
            assert_eq!(row.drifted, 0, "{label}: control cohort must not drift");
            assert_eq!(row.stable, members);
            assert_eq!(row.cost_delta, 0.0);
        }
    }
    assert_eq!(pass.report.drifted, per_region(DRIFTING_REGION).checked);

    // Roll-up rows sum back to the fleet totals.
    assert_eq!(pass.report.regions.iter().map(|r| r.checked).sum::<usize>(), COHORT);
    assert_eq!(pass.report.regions.iter().map(|r| r.drifted).sum::<usize>(), pass.report.drifted);
    let delta_sum: f64 = pass.report.regions.iter().map(|r| r.cost_delta).sum();
    assert!((delta_sum - pass.report.total_cost_delta).abs() < 1e-9);

    // 3. Every drifted customer was re-assessed through the priority lane,
    // in its own region, and moved to a Business Critical SKU.
    assert_eq!(pass.reassessments.len(), pass.report.drifted);
    for result in &pass.reassessments {
        let rec = &result.outcome.as_ref().expect("re-assessment succeeds").recommendation;
        let sku = rec.sku_id.as_deref().expect("placed");
        assert!(sku.starts_with("DB_BC_"), "{}: {sku}", result.instance_name);
    }
}

#[test]
fn monitor_pass_is_bit_for_bit_deterministic_across_worker_counts() {
    let observe = |pass: DriftPass| (pass.report, pass.outcomes, outcomes(&pass.reassessments));
    let baseline = observe(run_pass(Config::SERIAL));
    assert!(baseline.2.iter().all(|r| r.recommendation.is_some()), "re-assessments succeed");
    sweep("report, outcomes and re-assessments", &baseline, |config| observe(run_pass(config)));
}
