//! What the benchmark measures: workloads, end-to-end metrics, per-layer
//! metrics, and which layer is expected to move which end-to-end metric on
//! which workload. `perfbench --list` prints it as text; a test checks
//! that `BENCHMARK.json` at the repository root lists the same workloads
//! and metrics.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
    pub what: &'static str,
}

/// One per-layer group: the metrics it covers and the end-to-end metrics
/// (per workload) it should move.
pub struct Layer {
    pub layer: &'static str,
    pub metrics: &'static [&'static str],
    pub moves: &'static str,
}

pub const RUN_SECONDS: u32 = 20;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "assess_confidence",
        why: "the DMA user's request: 14-day SQL DB/MI histories with the 30-window confidence \
              bootstrap on, closed loop; curve and confidence layers do nearly all the work",
    },
    Workload {
        name: "assess_fleet",
        why: "the operator's fleet pass: the same histories with confidence off, streamed at full \
              backpressure beside dashboard snapshots; packaging, queueing and aggregation show",
    },
    Workload {
        name: "fleet_lifecycle",
        why: "multi-year FleetScheduler runs over 3 regions: catalog rolls, retirement and \
              retraining (writes) run beside resolves, drift probes and re-assessments (reads)",
    },
    Workload {
        name: "paper_table4",
        why:
            "the reduced Table 4 reproduction: six negotiability strategies x DB/MI with k-means; \
              the only traffic through the STL/loess profile path",
    },
];

pub const END_TO_END: &[Metric] = &[
    Metric {
        name: "throughput_cps",
        unit: "1/s",
        better: "higher",
        bound: Some(0.25),
        what: "customers processed per second, over the run's fastest slices (the fastest tenth \
               of its 0.5 s slices on assess_*, the fastest quarter of its simulations or \
               reproductions elsewhere): assessments (assess_*), drift checks + re-assessments \
               + re-prices (fleet_lifecycle), back-tested customers (paper_table4)",
    },
    Metric {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: Some(0.25),
        what: "median latency, over the samples of the same fastest slices, of the workload's \
               unit of work: submit -> result per assessment (assess_*; queue wait included on \
               assess_fleet), one FleetScheduler::step (fleet_lifecycle, the month latency), \
               one Table 4 reproduction (paper_table4)",
    },
    Metric {
        name: "latency_p99_ms",
        unit: "ms",
        better: "lower",
        bound: Some(0.25),
        what: "99th percentile of the same latencies, over every sample of the run",
    },
    Metric {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: Some(0.25),
        what: "median time to build the catalog provider, train the engines through the registry \
               and spawn the service (input generation excluded); on paper_table4, which makes \
               its own inputs, the catalog and cohorts table4 builds before training",
    },
    Metric {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: Some(0.2),
        what: "VmHWM of the workload process",
    },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, bound: None, what: "" }
}

pub const PER_LAYER: &[Metric] = &[
    layer("core.curve.calls", "count", "lower"),
    layer("core.curve.self_ms", "ms", "lower"),
    layer("core.curve.pairs", "count", "lower"),
    layer("core.confidence.windows", "count", "lower"),
    layer("core.confidence.self_ms", "ms", "lower"),
    layer("core.profile.calls", "count", "lower"),
    layer("core.profile.self_ms", "ms", "lower"),
    layer("core.profile.stl_ms", "ms", "lower"),
    layer("core.grouping.fit_ms", "ms", "lower"),
    layer("core.match.self_ms", "ms", "lower"),
    layer("dma.report.self_ms", "ms", "lower"),
    layer("fleet.submit_ms", "ms", "lower"),
    layer("fleet.queue_wait_ms", "ms", "lower"),
    layer("fleet.aggregate_ms", "ms", "lower"),
    layer("fleet.snapshot_ms", "ms", "lower"),
    layer("fleet.shutdown_ms", "ms", "lower"),
    layer("core.registry.trainings", "count", "lower"),
    layer("core.registry.train_ms", "ms", "lower"),
    layer("core.registry.hit_ratio", "ratio", "higher"),
    layer("core.registry.retirements", "count", "lower"),
    layer("catalog.rolls", "count", "lower"),
    layer("catalog.feed_apply_ms", "ms", "lower"),
    layer("fleet.drift.probes", "count", "lower"),
    layer("fleet.drift.probe_ms", "ms", "lower"),
    layer("fleet.drift.wait_ms", "ms", "lower"),
    layer("fleet.scheduler.repriced", "count", "lower"),
    layer("fleet.scheduler.retired", "count", "lower"),
    layer("fleet.scheduler.months_per_s", "1/s", "higher"),
    layer("fleet.scheduler.month_p50_ms", "ms", "lower"),
    layer("bench.table4.experiment_s", "s", "lower"),
    layer("workload.generate_s", "s", "lower"),
    layer("trace.untraced_cps", "1/s", "higher"),
    layer("trace.traced_cps", "1/s", "higher"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.replica_cps", "1/s", "higher"),
    layer("trace.spans", "count", "lower"),
];

pub const LAYERS: &[Layer] = &[
    Layer {
        layer: "curve",
        metrics: &["core.curve.calls", "core.curve.self_ms", "core.curve.pairs"],
        moves: "throughput_cps + latency_p50_ms on assess_confidence; setup_s on assess_*; \
                throughput_cps + latency_p50_ms (month latency) on fleet_lifecycle; flat on \
                paper_table4",
    },
    Layer {
        layer: "confidence",
        metrics: &["core.confidence.windows", "core.confidence.self_ms"],
        moves: "latency_p50_ms + latency_p99_ms on assess_confidence; zero on assess_fleet",
    },
    Layer {
        layer: "profile + grouping",
        metrics: &[
            "core.profile.calls",
            "core.profile.self_ms",
            "core.profile.stl_ms",
            "core.grouping.fit_ms",
        ],
        moves: "latency_p50_ms (experiment wall) + throughput_cps on paper_table4; negligible on \
                assess_*",
    },
    Layer {
        layer: "decision packaging",
        metrics: &["core.match.self_ms", "dma.report.self_ms"],
        moves: "throughput_cps + peak_rss_mib on assess_fleet; negligible on assess_confidence",
    },
    Layer {
        layer: "fleet service",
        metrics: &[
            "fleet.submit_ms",
            "fleet.queue_wait_ms",
            "fleet.aggregate_ms",
            "fleet.snapshot_ms",
            "fleet.shutdown_ms",
        ],
        moves: "throughput_cps + latency_p99_ms on assess_fleet; absent from paper_table4",
    },
    Layer {
        layer: "registry, catalog, drift",
        metrics: &[
            "core.registry.trainings",
            "core.registry.train_ms",
            "core.registry.hit_ratio",
            "core.registry.retirements",
            "catalog.rolls",
            "catalog.feed_apply_ms",
            "fleet.drift.probes",
            "fleet.drift.probe_ms",
            "fleet.drift.wait_ms",
            "fleet.scheduler.repriced",
            "fleet.scheduler.retired",
            "fleet.scheduler.months_per_s",
            "fleet.scheduler.month_p50_ms",
        ],
        moves: "throughput_cps + latency_p50_ms (month latency) on fleet_lifecycle; setup_s \
                elsewhere",
    },
    Layer {
        layer: "harness",
        metrics: &[
            "bench.table4.experiment_s",
            "workload.generate_s",
            "trace.untraced_cps",
            "trace.traced_cps",
            "trace.overhead_pct",
            "trace.replica_cps",
            "trace.spans",
        ],
        moves: "none: input generation time (kept out of setup_s; 0 on paper_table4), the \
                Table 4 wall time, and the tracing overhead of the traced run (assess_* and \
                fleet_lifecycle; 0 on paper_table4, whose traced side is the replica)",
    },
];

/// The human-readable inventory.
pub fn render_text() -> String {
    let mut out = String::from("workloads\n");
    for w in WORKLOADS {
        out.push_str(&format!("  {:<18} {}\n", w.name, w.why));
    }
    out.push_str("\nend-to-end metrics (--trace 0)\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "  {:<16} {:<5} {:<6} bound {:>4}  {}\n",
            m.name,
            m.unit,
            m.better,
            m.bound.unwrap_or(0.0),
            m.what
        ));
    }
    out.push_str("\nper-layer metrics (--trace 1)\n");
    for l in LAYERS {
        out.push_str(&format!("  [{}] moves: {}\n", l.layer, l.moves));
        for name in l.metrics {
            let m = PER_LAYER.iter().find(|m| m.name == *name).expect("listed metric");
            out.push_str(&format!("    {:<30} {:<6} {}\n", m.name, m.unit, m.better));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use doppler_dma::json::Json;

    use super::*;

    #[test]
    fn benchmark_json_lists_this_inventory() {
        let json =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let strings = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|s| s.as_str().expect(key).to_string())
                .collect()
        };
        assert_eq!(strings("paths"), ["perfbench"]);
        assert_eq!(strings("command")[..3], ["cargo", "run", "--release"]);
        assert_eq!(json.get("run_seconds").and_then(Json::as_f64), Some(f64::from(RUN_SECONDS)));
        let names = |key: &str| -> Vec<String> {
            let rows = json.get(key).and_then(Json::as_arr).expect(key);
            rows.iter()
                .map(|r| r.get("name").and_then(Json::as_str).expect("name").to_string())
                .collect()
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), workloads);
        for (key, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let rows = json.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(rows.len(), metrics.len(), "{key}");
            for (row, m) in rows.iter().zip(metrics) {
                assert_eq!(row.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(row.get("unit").and_then(Json::as_str), Some(m.unit), "{}", m.name);
                assert_eq!(row.get("better").and_then(Json::as_str), Some(m.better), "{}", m.name);
                assert_eq!(row.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        }
        for w in WORKLOADS {
            let row = json
                .get("workloads")
                .and_then(Json::as_arr)
                .expect("workloads")
                .iter()
                .find(|r| r.get("name").and_then(Json::as_str) == Some(w.name))
                .expect(w.name);
            assert_eq!(row.get("why").and_then(Json::as_str), Some(w.why), "{}", w.name);
        }
    }
}
