//! Customer Profiler microbenchmarks: the §3.3 summarizers compared head
//! to head — the paper chose thresholding partly because "calculating the
//! AUC is more time-consuming".

use criterion::{criterion_group, criterion_main, Criterion};
use doppler_core::NegotiabilityStrategy;
use doppler_stats::stl::{SEASONAL_SPAN, TREND_SPAN};
use doppler_stats::{
    kmeans, loess_smooth, minmax_scaled_auc, stl_decompose, BootstrapWindows, SeededRng,
};
use doppler_telemetry::PerfDimension;
use doppler_workload::{generate, WorkloadArchetype};

fn bench_summarizers(c: &mut Criterion) {
    let history = generate(&WorkloadArchetype::SpikyCpu.spec(8.0, 14.0), 3);
    let dims =
        [PerfDimension::Cpu, PerfDimension::Memory, PerfDimension::Iops, PerfDimension::LogRate];
    let mut group = c.benchmark_group("negotiability_summarizers");
    for (name, strategy) in NegotiabilityStrategy::table4_lineup() {
        // STL is orders of magnitude slower; trim its sample budget.
        if matches!(strategy, NegotiabilityStrategy::StlVarianceDecomposition { .. }) {
            group.sample_size(10);
        } else {
            group.sample_size(50);
        }
        group.bench_function(name, |b| {
            b.iter(|| strategy.profile(std::hint::black_box(&history), &dims))
        });
    }
    group.finish();

    // One confidence window's profile: a week of samples (1,008) over the
    // four SQL DB dimensions, read in place from the 14-day history.
    let production = NegotiabilityStrategy::production();
    let mut thresholding = c.benchmark_group("thresholding");
    thresholding.bench_function("window_1008x4", |b| {
        b.iter(|| production.profile_range(std::hint::black_box(&history), &dims, 504..1512))
    });
    // All of a confidence request's windows at once: the default 30
    // one-week bootstrap windows over the same history and dimensions.
    let windows = BootstrapWindows::generate(history.len(), 7 * 144, 30, 0);
    thresholding.bench_function("windows_30x1008x4", |b| {
        b.iter(|| {
            production.profile_windows(std::hint::black_box(&history), &dims, windows.windows())
        })
    });
    thresholding.finish();
}

/// STL's kernels at the STL summarizer's exact shapes: a 14-day, 10-minute
/// CPU series (2,016 samples), its trend loess pass (span 0.25, q = 504),
/// one cycle-subseries loess pass (the 14 samples at one phase of the day,
/// span 0.75, q = 11; a decomposition makes 288 of them), and the whole
/// decomposition at daily period 144.
fn bench_stl(c: &mut Criterion) {
    let history = generate(&WorkloadArchetype::SpikyCpu.spec(8.0, 14.0), 3);
    let cpu = history.values(PerfDimension::Cpu).expect("generated histories carry CPU");
    assert_eq!(cpu.len(), 2016, "14 days of 10-minute samples");
    let cycle: Vec<f64> = cpu.iter().step_by(144).copied().collect();
    assert_eq!(cycle.len(), 14, "one sample per day at one phase");
    let mut loess = c.benchmark_group("loess_smooth");
    loess.bench_function("trend_n2016_q504", |b| {
        b.iter(|| loess_smooth(std::hint::black_box(cpu), TREND_SPAN))
    });
    loess.bench_function("cycle_n14_q11", |b| {
        b.iter(|| loess_smooth(std::hint::black_box(&cycle), SEASONAL_SPAN))
    });
    loess.finish();
    let mut stl = c.benchmark_group("stl_decompose");
    stl.sample_size(10);
    stl.bench_function("14d_p144", |b| b.iter(|| stl_decompose(std::hint::black_box(cpu), 144)));
    stl.finish();
}

/// The MinMax Scaler AUC of one 14-day, 10-minute CPU series (2,016
/// samples): scale, sort, and the walk over the ECDF's steps.
fn bench_auc(c: &mut Criterion) {
    let history = generate(&WorkloadArchetype::SpikyCpu.spec(8.0, 14.0), 3);
    let cpu = history.values(PerfDimension::Cpu).expect("generated histories carry CPU");
    assert_eq!(cpu.len(), 2016, "14 days of 10-minute samples");
    let mut auc = c.benchmark_group("auc");
    auc.bench_function("minmax_scaled_n2016", |b| {
        b.iter(|| minmax_scaled_auc(std::hint::black_box(cpu)))
    });
    auc.finish();
}

fn bench_grouping(c: &mut Criterion) {
    // 1000 customers' weight vectors near the 16 bit-corners.
    let mut rng = SeededRng::new(9);
    let points: Vec<Vec<f64>> = (0..1000)
        .map(|i| {
            (0..4)
                .map(|d| {
                    let corner = if (i >> d) & 1 == 1 { 0.95 } else { 0.45 };
                    corner + rng.normal_with(0.0, 0.02)
                })
                .collect()
        })
        .collect();
    c.bench_function("kmeans_k16_n1000", |b| {
        b.iter(|| kmeans(std::hint::black_box(&points), 16, 1))
    });
}

criterion_group!(benches, bench_summarizers, bench_stl, bench_auc, bench_grouping);
criterion_main!(benches);
