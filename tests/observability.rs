//! Observability contract tests: instrumentation is write-aside, so an
//! obs-enabled run must produce the bit-for-bit identical `FleetReport` an
//! uninstrumented run does; the metrics themselves must conserve
//! (per-stage span counts equal the `ServiceProgress` totals, lane gauges
//! drain to zero); and the JSON export must round-trip losslessly through
//! `dma::json` — the validation CI runs against the exported artifact.
//!
//! CI runs this with the other determinism suites in one `--test-threads=1`
//! step; `common::sweep` checks every run under each `common::CONFIGS` row,
//! which turns obs both off and on.

mod common;

use common::{flat_request, sql_db_route, stream, sweep, Config, CONFIGS};
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
/// and their rendered dashboards — are byte-identical to the obs-off
/// serial run under every deployment, obs-on rows included.
#[test]
fn obs_on_and_obs_off_reports_are_bit_for_bit_identical() {
    let fleet = cohort(48);
    let observe = |config: Config| {
        let service = config.assessor(sql_db_route()).into_service();
        let obs = service.obs().clone();
        let (_, report) = stream(service, &fleet);
        // The instrumentation observed the run it rode on, exactly when on.
        let spans = obs.snapshot().histogram("fleet.stage.assess").map(|h| h.count);
        assert_eq!(spans, config.obs.then_some(48), "assess spans under {config:?}");
        (report.render(), report)
    };
    sweep("report and rendering", &observe(Config::SERIAL), observe);
}

/// Per-stage span counts conserve against the service's own progress
/// accounting: every completed task was timed exactly once per stage, the
/// per-worker task counters partition the total, and the lane-depth
/// gauges drain back to zero by shutdown — under every deployment's
/// workers, with obs on.
#[test]
fn stage_span_counts_match_service_progress_and_gauges_drain() {
    let fleet = cohort(40);
    for config in CONFIGS {
        let obs = ObsRegistry::enabled();
        let service = config.assessor(sql_db_route()).with_obs(&obs).into_service();
        let tickets = service.submit_all(fleet.iter().cloned()).expect("open service");
        for ticket in tickets {
            ticket.recv().expect("assessed");
        }
        let progress = service.progress();
        assert_eq!(progress, ServiceProgress { submitted: 40, completed: 40 }, "{config:?}");
        let report = service.shutdown();
        let snapshot = obs.snapshot();

        // One span per completed task in every assessment stage, batched
        // popping included.
        for stage in [
            "fleet.queue.pop_wait",
            "fleet.stage.queue_wait",
            "fleet.stage.resolve",
            "fleet.stage.assess",
            "fleet.stage.aggregate",
        ] {
            let counted = snapshot.histogram(stage).map(|h| h.count);
            assert_eq!(counted, Some(progress.completed as u64), "{stage} under {config:?}");
        }
        // The per-worker task counters partition the completed total.
        let worker_tasks: u64 = (0..config.workers)
            .map(|i| snapshot.counter(&format!("fleet.worker.{i}.tasks")).unwrap_or(0))
            .sum();
        assert_eq!(worker_tasks, progress.completed as u64, "worker tasks under {config:?}");
        // Both queue lanes drained before shutdown returned.
        assert_eq!(snapshot.gauge("fleet.queue.depth.normal"), Some(0), "{config:?}");
        assert_eq!(snapshot.gauge("fleet.queue.depth.priority"), Some(0), "{config:?}");
        // And the run still aggregated the whole fleet.
        assert_eq!(report.fleet_size, 40, "{config:?}");
    }
}

/// The ops dashboard rides on the deterministic report render without
/// altering it: `render_with_ops` output starts with the exact `render`
/// bytes, and a disabled registry degrades to an explicit no-op banner.
#[test]
fn render_with_ops_appends_without_touching_the_report() {
    let fleet = cohort(12);
    let obs = ObsRegistry::enabled();
    let config = Config { workers: 2, ..Config::SERIAL };
    let assessment = config.assessor(sql_db_route()).with_obs(&obs).assess(fleet);
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
    let config = Config { workers: 2, ..Config::SERIAL };
    let service = config.assessor(sql_db_route()).with_obs(&obs).into_service();
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
