//! Observability contract tests: instrumentation is write-aside, so an
//! obs-enabled run must produce the bit-for-bit identical `FleetReport` an
//! uninstrumented run does at every worker count; the metrics themselves
//! must conserve (per-stage span counts equal the `ServiceProgress`
//! totals, lane gauges drain to zero); and the JSON export must round-trip
//! losslessly through `dma::json` — the validation CI runs against the
//! exported artifact.
//!
//! CI runs this with the other determinism suites in one `--test-threads=1`
//! step; `common::sweep` checks every run at 1, 4 and 8 workers.

mod common;

use common::{engine, flat_request, sweep, WORKER_SWEEP};
use doppler::dma::json::Json;
use doppler::dma::{obs_snapshot_from_json, obs_snapshot_to_json};
use doppler::prelude::*;

fn cohort(size: usize) -> Vec<FleetRequest> {
    (0..size)
        .map(|i| {
            let request = flat_request(&format!("inst-{i}"), 0.3 + (i % 9) as f64 * 0.7, 1 + i % 4);
            FleetRequest::new(DeploymentType::SqlDb, request).with_month("Oct-22")
        })
        .collect()
}

/// Turning instrumentation on changes no business output: the reports —
/// and their rendered dashboards — are byte-identical to an obs-off run
/// at 1, 4, and 8 workers.
#[test]
fn obs_on_and_obs_off_reports_are_bit_for_bit_identical() {
    let fleet = cohort(48);
    let assessor = |workers| FleetAssessor::new(engine(), FleetConfig::with_workers(workers));
    let baseline = assessor(1).assess(fleet.clone()).report;
    sweep("obs-on report and rendering", &(baseline.render(), baseline.clone()), |workers| {
        let off = assessor(workers).assess(fleet.clone()).report;
        let obs = ObsRegistry::enabled();
        let on = assessor(workers).with_obs(&obs).assess(fleet.clone()).report;
        assert_eq!(on, off, "obs-on vs obs-off at {workers} workers");
        assert_eq!(on.render(), off.render(), "rendered report bytes at {workers} workers");
        // The instrumentation did actually observe the run it rode on.
        let snapshot = obs.snapshot();
        assert_eq!(snapshot.histogram("fleet.stage.assess").map(|h| h.count), Some(48));
        (on.render(), on)
    });
}

/// Per-stage span counts conserve against the service's own progress
/// accounting: every completed task was timed exactly once per stage, the
/// per-worker task counters partition the total, and the lane-depth
/// gauges drain back to zero by shutdown.
#[test]
fn stage_span_counts_match_service_progress_and_gauges_drain() {
    let fleet = cohort(40);
    for workers in WORKER_SWEEP {
        let obs = ObsRegistry::enabled();
        let service = FleetAssessor::new(engine(), FleetConfig::with_workers(workers))
            .with_obs(&obs)
            .into_service();
        let tickets = service.submit_all(fleet.iter().cloned()).expect("open service");
        for ticket in tickets {
            ticket.recv().expect("assessed");
        }
        let progress = service.progress();
        assert_eq!(
            progress,
            ServiceProgress { submitted: 40, completed: 40 },
            "at {workers} workers"
        );
        let report = service.shutdown();
        let snapshot = obs.snapshot();

        // One span per completed task in every assessment stage.
        for stage in [
            "fleet.stage.queue_wait",
            "fleet.stage.resolve",
            "fleet.stage.assess",
            "fleet.stage.aggregate",
        ] {
            let counted = snapshot.histogram(stage).map(|h| h.count);
            assert_eq!(counted, Some(progress.completed as u64), "{stage} at {workers} workers");
        }
        // The per-worker task counters partition the completed total.
        let worker_tasks: u64 = (0..workers)
            .map(|i| snapshot.counter(&format!("fleet.worker.{i}.tasks")).unwrap_or(0))
            .sum();
        assert_eq!(worker_tasks, progress.completed as u64, "worker tasks at {workers} workers");
        // Both queue lanes drained before shutdown returned.
        assert_eq!(snapshot.gauge("fleet.queue.depth.normal"), Some(0));
        assert_eq!(snapshot.gauge("fleet.queue.depth.priority"), Some(0));
        // And the run still aggregated the whole fleet.
        assert_eq!(report.fleet_size, 40);
    }
}

/// The ops dashboard rides on the deterministic report render without
/// altering it: `render_with_ops` output starts with the exact `render`
/// bytes, and a disabled registry degrades to an explicit no-op banner.
#[test]
fn render_with_ops_appends_without_touching_the_report() {
    let fleet = cohort(12);
    let obs = ObsRegistry::enabled();
    let assessment =
        FleetAssessor::new(engine(), FleetConfig::with_workers(2)).with_obs(&obs).assess(fleet);
    let plain = assessment.report.render();
    let with_ops = assessment.report.render_with_ops(&obs.snapshot());
    assert!(with_ops.starts_with(&plain), "report prefix must be untouched");
    assert!(with_ops.contains("=== Ops Dashboard ==="));
    assert!(with_ops.contains("fleet.stage.assess"));

    let disabled = assessment.report.render_with_ops(&ObsRegistry::disabled().snapshot());
    assert!(disabled.starts_with(&plain));
    assert!(disabled.contains("observability disabled"));
}

/// A snapshot of a real instrumented run survives the full artifact path:
/// export to a `dma::json` tree, render to text, re-parse, re-load —
/// losslessly.
#[test]
fn exported_snapshot_round_trips_through_dma_json() {
    let obs = ObsRegistry::enabled();
    let service =
        FleetAssessor::new(engine(), FleetConfig::with_workers(2)).with_obs(&obs).into_service();
    let tickets = service.submit_all(cohort(16)).expect("open service");
    for ticket in tickets {
        ticket.recv().expect("assessed");
    }
    service.shutdown();
    let snapshot = obs.snapshot();
    assert!(snapshot.enabled);
    assert!(!snapshot.histograms.is_empty());

    let text = obs_snapshot_to_json(&snapshot).render_pretty();
    let reparsed = Json::parse(&text).expect("exported JSON parses");
    let reloaded = obs_snapshot_from_json(&reparsed).expect("schema round-trips");
    assert_eq!(reloaded, snapshot);
}
