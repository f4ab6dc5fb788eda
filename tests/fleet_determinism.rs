//! Fleet-scale determinism: assessing the same 1,000-instance synthetic
//! population must produce bit-for-bit identical output under every
//! deployment in `common::CONFIGS`: worker count and obs.

mod common;

use common::{catalog, outcomes, sql_db_route, sweep, Config};
use doppler::fleet::cloud_fleet;
use doppler::prelude::*;

#[test]
fn thousand_instances_are_deterministic_across_worker_counts() {
    let spec = PopulationSpec { days: 1.0, ..PopulationSpec::sql_db(1000, 20_26) };
    let fleet: Vec<FleetRequest> = cloud_fleet(&spec, &catalog(), None).collect();
    assert_eq!(fleet.len(), 1000);

    // The aggregate report is PartialEq over every field — counts, f64
    // cost sums, histograms, bucket lists — so this is the bit-for-bit
    // equality the subsystem promises. Per-instance streams agree too, in
    // submission order.
    let single = Config::SERIAL.assessor(sql_db_route()).assess(fleet.clone());
    let oracle = (single.report.clone(), outcomes(&single.results));
    sweep("report and per-instance results", &oracle, |config| {
        let run = config.assessor(sql_db_route()).assess(fleet.clone());
        (run.report, outcomes(&run.results))
    });

    // Sanity on the aggregates themselves.
    let report = &single.report;
    assert_eq!(report.fleet_size, 1000);
    assert_eq!(report.failed, 0);
    assert_eq!(report.recommended + report.unplaceable, 1000);
    assert!(report.recommended > 900, "recommended = {}", report.recommended);
    assert!(report.total_monthly_cost > 0.0);
    let mix_total: usize = report.sku_mix.iter().map(|r| r.count).sum();
    assert_eq!(mix_total, report.recommended);
    let shape_total: usize = report.shape_mix.iter().map(|r| r.count).sum();
    assert_eq!(shape_total, 1000 - report.failed);
    // Figure 9: flat curves dominate a calibrated SQL DB cohort.
    assert!(report.shape_mix[0].count > 600, "flat count = {}", report.shape_mix[0].count);

    // The rendered dashboard reflects the same numbers.
    let text = report.render();
    assert!(text.contains("instances:    1000"), "{text}");
    assert!(text.contains("SKU mix"));
}

#[test]
fn streaming_and_materialized_fleets_agree() {
    let catalog = catalog();
    let spec = PopulationSpec { days: 1.0, ..PopulationSpec::sql_db(100, 7) };
    // Once through the lazy iterator (bounded-queue backpressure path)…
    let streamed = |config: Config| {
        config.assessor(sql_db_route()).assess(cloud_fleet(&spec, &catalog, None)).report
    };
    // …and once through a pre-collected vector.
    let materialized = |config: Config| {
        let fleet: Vec<FleetRequest> = cloud_fleet(&spec, &catalog, None).collect();
        config.assessor(sql_db_route()).assess(fleet).report
    };
    let oracle = streamed(Config::SERIAL);
    sweep("streamed and materialized reports", &(oracle.clone(), oracle), |config| {
        (streamed(config), materialized(config))
    });
}
