//! Figure reproductions (Figures 1, 4, 5, 6, 8, 9, 10, 11, 12, 13).

use std::fmt::Write as _;

use doppler_catalog::{DeploymentType, SkuId};
use doppler_core::{
    detect_drift, ConfidenceConfig, CurveHeuristic, CurveShape, DopplerEngine, EngineConfig,
    PricePerformanceCurve, TrainingRecord,
};
use doppler_replay::replay;
use doppler_stats::{Ecdf, SeededRng, Summary};
use doppler_telemetry::PerfDimension;
use doppler_workload::{
    drift_scenario, generate, onprem_population, BenchmarkFragment, BenchmarkKind, PopulationSpec,
    ShapeClass, SynthesizedWorkload, WorkloadArchetype,
};

use crate::ascii::{curve_table, strip_chart};
use crate::backtest::catalog;
use crate::experiments::ExperimentScale;

fn curve_rows(curve: &PricePerformanceCurve) -> Vec<(String, f64, f64)> {
    curve.points().iter().map(|p| (p.sku_id.clone(), p.monthly_cost, p.score)).collect()
}

/// Figure 1: the six example SKU rows.
pub fn figure1(_scale: &ExperimentScale) -> String {
    let cat = catalog();
    let mut out = String::from(
        "Figure 1 — example Azure SQL DB SKU offerings\n\
         Tier vCores MaxData(GB) MaxMem(GB) MaxIOPS  MaxLog(MB/s) MinLat(ms) Price($/h)\n",
    );
    for id in ["DB_BC_2", "DB_GP_2", "DB_BC_4", "DB_GP_4", "DB_BC_6", "DB_GP_6"] {
        let s = cat.get(&SkuId(id.into())).expect("known id");
        let _ = writeln!(
            out,
            "{:<4} {:>6} {:>11} {:>10.1} {:>8} {:>12.1} {:>10} {:>10.2}",
            s.tier.to_string(),
            s.vcores(),
            s.caps.max_data_gb,
            s.caps.memory_gb,
            s.caps.iops,
            s.caps.log_rate_mbps,
            s.caps.min_io_latency_ms,
            s.price_per_hour
        );
    }
    out
}

/// Figure 4: a spiky-CPU workload's trace (a) and its price-performance
/// curve (b).
pub fn figure4(scale: &ExperimentScale) -> String {
    let cat = catalog();
    let history = generate(&WorkloadArchetype::SpikyCpu.spec(12.0, 14.0), scale.seed);
    let skus = cat.for_deployment(DeploymentType::SqlDb);
    let curve = PricePerformanceCurve::generate(&history, &skus);
    let mut out = String::from("Figure 4a — CPU usage by time (vCores, 14 days)\n");
    out.push_str(&strip_chart(history.values(PerfDimension::Cpu).unwrap(), 96, 10));
    out.push_str("\nFigure 4b — price-performance curve\n");
    out.push_str(&curve_table(&curve_rows(&curve)));
    let _ = writeln!(out, "curve shape: {:?}", curve.classify());
    out
}

/// Figure 5: the complex curve where the three heuristics disagree.
pub fn figure5(scale: &ExperimentScale) -> String {
    let cat = catalog();
    // A workload engineered for a complex curve: several dimensions spiking
    // at different levels so the envelope climbs in stages.
    let spec = doppler_workload::WorkloadSpec::new("fig5", 14.0)
        .with_dim(PerfDimension::Cpu, doppler_workload::DimensionProfile::spiky(3.0, 9.0, 4.0, 2))
        .with_dim(
            PerfDimension::Memory,
            doppler_workload::DimensionProfile::spiky(20.0, 45.0, 2.0, 3),
        )
        .with_dim(
            PerfDimension::Iops,
            doppler_workload::DimensionProfile::spiky(1500.0, 2800.0, 1.5, 2),
        )
        .with_dim(
            PerfDimension::IoLatency,
            doppler_workload::DimensionProfile::steady(6.0, 0.3).with_floor(0.5),
        );
    let history = generate(&spec, scale.seed);
    let skus = cat.for_deployment(DeploymentType::SqlDb);
    let curve = PricePerformanceCurve::generate(&history, &skus);

    let mut out = String::from("Figure 5 — a complex price-performance curve\n");
    out.push_str(&curve_table(&curve_rows(&curve)));
    let picks = [
        ("Largest Performance Increase", CurveHeuristic::LargestPerformanceIncrease),
        ("Largest Slope", CurveHeuristic::LargestSlope),
        ("Performance Threshold (95%)", CurveHeuristic::PerformanceThreshold),
    ];
    out.push_str("\nHeuristic selections:\n");
    let mut selected = Vec::new();
    for (name, h) in picks {
        let pick = h.select(&curve).unwrap_or_else(|| "(none)".into());
        let _ = writeln!(out, "  {name:<30} -> {pick}");
        selected.push(pick);
    }
    selected.dedup();
    let _ = writeln!(
        out,
        "Distinct answers from 3 heuristics: {} (the paper's Figure 5 pathology)",
        selected.len()
    );
    out
}

/// Figure 6: ECDFs and raw time series for contrasting archetypes.
pub fn figure6(scale: &ExperimentScale) -> String {
    let mut out =
        String::from("Figure 6 — ECDFs (top) and raw series (bottom) per workload type\n");
    for (name, arch) in [
        ("steady", WorkloadArchetype::Steady),
        ("spiky", WorkloadArchetype::SpikyCpu),
        ("diurnal", WorkloadArchetype::Diurnal),
        ("bursty-io", WorkloadArchetype::BurstyIo),
    ] {
        let h = generate(&arch.spec(8.0, 7.0), scale.seed ^ name.len() as u64);
        let cpu = h.values(PerfDimension::Cpu).unwrap();
        let e = Ecdf::new(cpu).expect("nonempty");
        let s = Summary::of(cpu).expect("nonempty");
        let _ =
            writeln!(out, "\n[{name}] CPU mean {:.2}, p95 {:.2}, max {:.2}", s.mean, s.p95, s.max);
        out.push_str("  ECDF (x: vCores, y: F(x)):\n");
        for (x, f) in e.grid(8) {
            let bar = (f * 40.0).round() as usize;
            let _ = writeln!(out, "  {x:>8.2} |{}", "#".repeat(bar));
        }
        out.push_str("  raw series:\n");
        out.push_str(&strip_chart(cpu, 80, 6));
    }
    out
}

/// Figure 8: the four canonical curve shapes.
pub fn figure8(scale: &ExperimentScale) -> String {
    let cat = catalog();
    let skus = cat.for_deployment(DeploymentType::SqlDb);
    let mut out = String::from("Figure 8 — major types of price-performance curves\n");
    let cases: [(&str, doppler_workload::WorkloadSpec); 4] = [
        ("(a) Flat", WorkloadArchetype::Idle.spec(1.0, 7.0)),
        ("(b) Simple", WorkloadArchetype::HardStep.spec(14.0, 7.0)),
        ("(c) Complex I", WorkloadArchetype::SpikyCpu.spec(10.0, 7.0)),
        ("(d) Complex II", WorkloadArchetype::OlapLike.spec(8.0, 7.0)),
    ];
    for (name, spec) in cases {
        let h = generate(&spec, scale.seed);
        let curve = PricePerformanceCurve::generate(&h, &skus);
        let _ = writeln!(out, "\n{name} — classified {:?}", curve.classify());
        // Print a compact curve: every point collapsed to score buckets.
        out.push_str(&curve_table(&curve_rows(&curve).into_iter().take(12).collect::<Vec<_>>()));
    }
    out
}

/// Figure 9: breakdown of curve types per cohort.
pub fn figure9(scale: &ExperimentScale) -> String {
    let cat = catalog();
    let mut out = String::from(
        "Figure 9 — curve-type breakdown\n\
         Cohort        Flat     Simple   Complex\n",
    );
    let mut classify_cohort =
        |label: &str,
         histories: Vec<(doppler_telemetry::PerfHistory, Option<doppler_catalog::FileLayout>)>,
         deployment| {
            let engine =
                DopplerEngine::untrained(cat.clone(), EngineConfig::production(deployment));
            let mut counts = [0usize; 3];
            let total = histories.len();
            for (h, layout) in histories {
                let (curve, _) = engine.curve_for(&h, layout.as_ref());
                match curve.classify() {
                    CurveShape::Flat => counts[0] += 1,
                    CurveShape::Simple => counts[1] += 1,
                    CurveShape::Complex => counts[2] += 1,
                }
            }
            let pct = |c: usize| 100.0 * c as f64 / total.max(1) as f64;
            let _ = writeln!(
                out,
                "{label:<12} {:>6.1}%  {:>6.1}%  {:>6.1}%",
                pct(counts[0]),
                pct(counts[1]),
                pct(counts[2])
            );
        };
    let db = PopulationSpec::sql_db(scale.cohort, scale.seed).customers(&cat);
    classify_cohort(
        "SQL DB",
        db.into_iter().map(|c| (c.history, None)).collect(),
        DeploymentType::SqlDb,
    );
    let mi = PopulationSpec::sql_mi(scale.cohort, scale.seed ^ 1).customers(&cat);
    classify_cohort(
        "SQL MI",
        mi.into_iter().map(|c| (c.history, c.file_layout)).collect(),
        DeploymentType::SqlMi,
    );
    let onprem = onprem_population(scale.cohort.min(257), 7.0, scale.seed ^ 2);
    classify_cohort(
        "On-prem",
        onprem.into_iter().map(|c| (c.history, None)).collect(),
        DeploymentType::SqlDb,
    );
    out
}

/// Figure 10: confidence-score distribution against the bootstrap window
/// length, over 30-day histories.
pub fn figure10(scale: &ExperimentScale) -> String {
    let cat = catalog();
    let n = (scale.cohort / 20).clamp(8, 30);
    let spec = PopulationSpec {
        days: 30.0,
        // Confidence is interesting on non-trivial workloads: force complex.
        shape: Some(ShapeClass::Complex),
        ..PopulationSpec::sql_db(n, scale.seed)
    };
    let customers = spec.customers(&cat);
    let records: Vec<TrainingRecord> = customers
        .iter()
        .map(|c| TrainingRecord {
            history: c.history.clone(),
            chosen_sku: c.chosen_sku.clone(),
            file_layout: None,
        })
        .collect();
    let engine = DopplerEngine::train(
        cat.clone(),
        EngineConfig::production(DeploymentType::SqlDb),
        &records,
    );

    let mut out = String::from(
        "Figure 10 — confidence score vs bootstrap window (30-day histories)\n\
         Window     mean   p25    median p75\n",
    );
    for (label, hours) in
        [("6 hours", 6.0), ("1 day", 24.0), ("3 days", 72.0), ("1 week", 168.0), ("2 weeks", 336.0)]
    {
        let window_samples = (hours * 6.0) as usize;
        let scores: Vec<f64> = customers
            .iter()
            .map(|c| {
                let rec = engine.recommend_with_confidence(
                    &c.history,
                    None,
                    &ConfidenceConfig { replicates: 20, window_samples, seed: scale.seed },
                );
                rec.confidence.unwrap_or(0.0)
            })
            .collect();
        let s = Summary::of(&scores).expect("nonempty");
        let _ =
            writeln!(out, "{label:<10} {:.3}  {:.3}  {:.3}  {:.3}", s.mean, s.p25, s.median, s.p75);
    }
    out
}

/// Figure 11: price-performance curves before and after a SKU change.
pub fn figure11(scale: &ExperimentScale) -> String {
    let cat = catalog();
    let scenario = drift_scenario(7.0, scale.seed);
    let skus = cat.for_deployment(DeploymentType::SqlDb);
    let report = detect_drift(&scenario.before, &scenario.after, &skus);
    let mut out = String::from("Figure 11 — curves before (top) and after (bottom) a SKU change\n");
    out.push_str("before:\n");
    out.push_str(&curve_table(
        &curve_rows(&report.before_curve).into_iter().take(10).collect::<Vec<_>>(),
    ));
    out.push_str("after:\n");
    out.push_str(&curve_table(
        &curve_rows(&report.after_curve).into_iter().take(10).collect::<Vec<_>>(),
    ));
    let _ = writeln!(
        out,
        "recommendation before: {:?}, after: {:?} (changed: {})",
        report.before_sku, report.after_sku, report.changed
    );
    let _ = writeln!(
        out,
        "throttling if the customer had kept the old SKU: {:.1}% (paper: >40%)",
        report.throttle_if_unchanged * 100.0
    );
    out
}

/// The synthesized workload of §5.4 sized to make SKU2 the knee.
pub fn synth_workload() -> SynthesizedWorkload {
    SynthesizedWorkload {
        fragments: vec![
            BenchmarkFragment {
                kind: BenchmarkKind::TpcC,
                scale_factor: 1.0,
                query_frequency: 1.0,
                concurrency: 24,
            },
            BenchmarkFragment {
                kind: BenchmarkKind::TpcH,
                scale_factor: 1.0,
                query_frequency: 1.0,
                concurrency: 3,
            },
            BenchmarkFragment {
                kind: BenchmarkKind::Ycsb,
                scale_factor: 1.0,
                query_frequency: 0.5,
                concurrency: 10,
            },
        ],
        days: 0.3, // the paper's 7-hour replay window
        burstiness: 0.16,
        data_size_gb: 400.0,
    }
}

/// Figure 12: the synthesized workload's curve over the Table 6 SKUs.
pub fn figure12(scale: &ExperimentScale) -> String {
    let demand = synth_workload().demand_trace(scale.seed);
    let skus = doppler_catalog::replay_skus();
    let refs: Vec<&doppler_catalog::Sku> = skus.iter().collect();
    let curve = PricePerformanceCurve::generate(&demand, &refs);
    let mut out =
        String::from("Figure 12 — price-performance curve for the synthesized workload\n");
    out.push_str(&curve_table(&curve_rows(&curve)));
    let pick = doppler_core::matching::select_for_p(&curve, 0.10);
    let _ = writeln!(
        out,
        "Doppler selection at a 10% tolerance: {} (paper: SKU2)",
        pick.map(|p| p.sku_id.clone()).unwrap_or_default()
    );
    out
}

/// Figure 13: replayed counters on the four Table 6 SKUs.
pub fn figure13(scale: &ExperimentScale) -> String {
    let demand = synth_workload().demand_trace(scale.seed);
    let mut out = String::from("Figure 13 — synthesized workload replayed on SKU1-SKU4\n");
    let mut rng = SeededRng::new(scale.seed);
    let _ = rng.unit();
    for sku in doppler_catalog::replay_skus() {
        let r = replay(&demand, &sku);
        let _ = writeln!(
            out,
            "\n[{}] mean vCores {:.2} (cap {}), mean latency {:.2} ms, p95 latency {:.2} ms, \
             throttled {:.1}% of ticks",
            r.sku_id,
            r.mean_vcores,
            sku.caps.vcores,
            r.mean_latency_ms,
            r.p95_latency_ms,
            r.throttle_fraction * 100.0
        );
        out.push_str("  used vCores:\n");
        out.push_str(&strip_chart(r.observed.values(PerfDimension::Cpu).unwrap(), 72, 5));
        out.push_str("  observed latency (ms):\n");
        out.push_str(&strip_chart(r.observed.values(PerfDimension::IoLatency).unwrap(), 72, 5));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale { cohort: 40, seed: 11 }
    }

    #[test]
    fn figure1_reprints_the_six_rows() {
        let f = figure1(&tiny());
        assert_eq!(f.lines().count(), 2 + 6);
        assert!(f.contains("BC"));
        assert!(f.contains("GP"));
    }

    #[test]
    fn figure5_heuristics_disagree() {
        let f = figure5(&tiny());
        assert!(
            f.contains("Distinct answers from 3 heuristics: 2")
                || f.contains("Distinct answers from 3 heuristics: 3"),
            "{f}"
        );
    }

    #[test]
    fn figure8_produces_all_shapes() {
        let f = figure8(&tiny());
        assert!(f.contains("Flat"), "{f}");
        assert!(f.contains("Simple"), "{f}");
        assert!(f.contains("Complex"), "{f}");
    }

    #[test]
    fn figure11_detects_the_change() {
        let f = figure11(&tiny());
        assert!(f.contains("changed: true"), "{f}");
        // The paper's §5.2.3 customer: GP 2 cores before, BC 6 cores after.
        assert!(f.contains("before: Some(\"DB_GP_2\"), after: Some(\"DB_BC_6\")"), "{f}");
    }

    #[test]
    fn figure12_selects_sku2() {
        let f = figure12(&tiny());
        assert!(f.contains("SKU2"), "{f}");
    }
}
