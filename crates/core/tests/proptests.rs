//! Property-based tests for the engine's invariants.

use std::ops::Range;
use std::sync::OnceLock;

use doppler_catalog::{
    azure_paas_catalog, Catalog, CatalogSpec, DeploymentType, FileLayout, ResourceCaps,
    ServiceTier, SkuId,
};
use doppler_core::engine::profiled_dimensions;
use doppler_core::matching::{select_for_p, select_with_slack};
use doppler_core::throttling::{throttled_fraction, BoundaryCounts, ExceedanceMasks};
use doppler_core::{
    confidence_score, mi_curve, throttling_probability, BaselineStrategy, ConfidenceConfig,
    DopplerEngine, EngineConfig, GroupModel, GroupingStrategy, NegotiabilityStrategy,
    PricePerformanceCurve, Recommendation, RecommendationBackend, ThrottleBreakdown,
    TrainingRecord,
};
use doppler_stats::BootstrapWindows;
use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};
use proptest::prelude::*;

fn caps(vcores: f64, memory: f64, iops: f64, latency: f64) -> ResourceCaps {
    ResourceCaps {
        vcores,
        memory_gb: memory,
        max_data_gb: 4096.0,
        iops,
        log_rate_mbps: 1e6,
        min_io_latency_ms: latency,
        throughput_mbps: 1e6,
    }
}

fn history_strategy() -> impl Strategy<Value = PerfHistory> {
    (
        prop::collection::vec(0.0..40.0f64, 8..120),
        prop::collection::vec(0.0..200.0f64, 8..120),
        prop::collection::vec(0.1..20.0f64, 8..120),
    )
        .prop_map(|(cpu, mem, lat)| {
            let n = cpu.len().min(mem.len()).min(lat.len());
            PerfHistory::new()
                .with(PerfDimension::Cpu, TimeSeries::ten_minute(cpu[..n].to_vec()))
                .with(PerfDimension::Memory, TimeSeries::ten_minute(mem[..n].to_vec()))
                .with(PerfDimension::IoLatency, TimeSeries::ten_minute(lat[..n].to_vec()))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn throttling_probability_is_a_probability(h in history_strategy(), v in 0.1..100.0f64) {
        let p = throttling_probability(&h, &caps(v, v * 5.0, v * 300.0, 3.0));
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn throttling_is_monotone_in_capacity(h in history_strategy(), v in 0.1..50.0f64) {
        // Scaling every capacity up can never increase the probability
        // (latency scales *down*, its improving direction).
        let small = caps(v, v * 5.0, v * 300.0, 4.0);
        let big = caps(v * 2.0, v * 10.0, v * 600.0, 2.0);
        let p_small = throttling_probability(&h, &small);
        let p_big = throttling_probability(&h, &big);
        prop_assert!(p_big <= p_small + 1e-12, "{p_big} > {p_small}");
    }

    #[test]
    fn curve_envelope_is_monotone_and_above_raw(h in history_strategy()) {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let curve = PricePerformanceCurve::generate(&h, &skus);
        for w in curve.points().windows(2) {
            prop_assert!(w[0].monthly_cost <= w[1].monthly_cost);
            prop_assert!(w[1].score >= w[0].score - 1e-12);
        }
        for p in curve.points() {
            prop_assert!(p.score >= p.raw_score - 1e-12);
            prop_assert!((0.0..=1.0).contains(&p.raw_score));
        }
    }

    #[test]
    fn selection_respects_the_constraint(h in history_strategy(), p_g in 0.0..1.0f64) {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let curve = PricePerformanceCurve::generate(&h, &skus);
        let best_score = curve.points().iter().map(|p| p.score).fold(0.0, f64::max);
        if let Some(pick) = select_for_p(&curve, p_g) {
            let p = 1.0 - pick.score;
            // Either the constraint held, or nothing satisfied it and the
            // fallback returned the most performant point.
            prop_assert!(
                p <= p_g + 1e-9 || (pick.score - best_score).abs() < 1e-12,
                "constraint violated: P {p} vs P_g {p_g}"
            );
        }
    }

    #[test]
    fn slack_only_widens_the_feasible_set(h in history_strategy(), p_g in 0.0..0.5f64, slack in 0.0..0.3f64) {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let curve = PricePerformanceCurve::generate(&h, &skus);
        let strict = select_for_p(&curve, p_g).map(|p| 1.0 - p.score);
        let loose = select_with_slack(&curve, p_g, slack).map(|p| 1.0 - p.score);
        if let (Some(s), Some(l)) = (strict, loose) {
            // The slack pick is at least as close to p_g from the feasible
            // side; both are valid probabilities.
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((0.0..=1.0).contains(&l));
        }
    }

    #[test]
    fn baseline_result_dominates_its_own_requirement(h in history_strategy()) {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        for strategy in [BaselineStrategy::max(), BaselineStrategy::p95()] {
            let req = strategy.requirement(&h);
            if let Some(sku) = strategy.recommend(&h, &cat, DeploymentType::SqlDb) {
                prop_assert!(sku.caps.dominates(&req), "{} fails its own requirement", sku.id);
            }
        }
    }

    #[test]
    fn max_baseline_never_throttles_on_additive_dimensions(h in history_strategy()) {
        // The max-reduction baseline over-provisions by construction: its
        // chosen SKU satisfies every sample of every *additive* dimension.
        // Latency is exempt — the baseline's scalar reduction handles the
        // inverted dimension backwards (the §5.3 flaw this repo reproduces
        // deliberately), so latency exceedances are expected.
        let cat = azure_paas_catalog(&CatalogSpec::default());
        if let Some(sku) = BaselineStrategy::max().recommend(&h, &cat, DeploymentType::SqlDb) {
            let breakdown = ThrottleBreakdown::compute(&h, &sku.caps);
            for (dim, frac) in breakdown.per_dimension {
                if !dim.inverted() {
                    prop_assert!(frac.abs() < 1e-12, "{dim} exceeded {frac} under max baseline");
                }
            }
        }
    }
}

/// SplitMix64: the kernel properties draw their shapes (dimension subset,
/// SKU count, ties) from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Mostly a coarse grid shared by demands and capacities, so demand
    /// lands exactly on a cap (and caps repeat) often; sometimes off-grid.
    fn level(&mut self) -> f64 {
        if self.below(4) == 0 {
            self.unit() * 12.0
        } else {
            self.below(25) as f64 * 0.5
        }
    }
}

/// A history over a random subset of the six dimensions (possibly none,
/// possibly zero samples) and a SKU list of 0 to 150 capacity sets.
fn kernel_case(seed: u64) -> (PerfHistory, Vec<ResourceCaps>) {
    let mut rng = Rng(seed);
    let n = rng.below(160);
    let dims = rng.next();
    let mut history = PerfHistory::new();
    for (i, &dim) in PerfDimension::ALL.iter().enumerate() {
        if dims >> i & 1 == 1 {
            history.insert(dim, TimeSeries::ten_minute((0..n).map(|_| rng.level()).collect()));
        }
    }
    let skus = [0, 1, 3, 28, 63, 64, 65, 150][rng.below(8)];
    let caps = (0..skus)
        .map(|_| ResourceCaps {
            vcores: rng.level(),
            memory_gb: rng.level(),
            max_data_gb: rng.level(),
            iops: rng.level(),
            log_rate_mbps: rng.level(),
            min_io_latency_ms: rng.level(),
            throughput_mbps: rng.level(),
        })
        .collect();
    (history, caps)
}

fn assert_counts_match(history: &PerfHistory, caps: &[ResourceCaps], counts: &[u32], what: &str) {
    assert_eq!(counts.len(), caps.len());
    for (s, (caps, &count)) in caps.iter().zip(counts).enumerate() {
        let kernel = throttled_fraction(count as usize, history.len());
        let scalar = throttling_probability(history, caps);
        assert_eq!(kernel.to_bits(), scalar.to_bits(), "{what}: SKU {s}: {kernel} vs {scalar}");
    }
}

/// The Eq. 1 oracle for a confidence run: the provided trait method, which
/// re-runs the engine's own `recommend` on every window.
fn oracle(
    engine: &DopplerEngine,
    history: &PerfHistory,
    layout: Option<&FileLayout>,
    config: &ConfidenceConfig,
) -> Recommendation {
    let mut rec = engine.recommend(history, layout);
    if let Some(original) = rec.sku_id.clone() {
        rec.confidence = Some(confidence_score(history, &original, config, |window| {
            engine.recommend(window, layout).sku_id
        }));
    }
    rec
}

fn assert_confidence_matches(
    engine: &DopplerEngine,
    history: &PerfHistory,
    layout: Option<&FileLayout>,
    config: &ConfidenceConfig,
) {
    let want = oracle(engine, history, layout, config);
    let got = engine.recommend_with_confidence(history, layout, config);
    let via_trait =
        RecommendationBackend::recommend_with_confidence(engine, history, layout, config);
    assert_eq!(got.confidence.map(f64::to_bits), want.confidence.map(f64::to_bits));
    assert_eq!(got, want);
    assert_eq!(via_trait, want);
}

/// Confidence configurations at the edges of an `n`-sample bootstrap: no
/// replicate, one, an odd count (so the last batch of windows holds one),
/// and windows as long as the history or longer.
fn edge_configs(rng: &mut Rng, n: usize, seed: u64) -> Vec<ConfidenceConfig> {
    let window_samples = 1 + rng.below(n);
    vec![
        ConfidenceConfig { replicates: 0, window_samples, seed },
        ConfidenceConfig { replicates: 1, window_samples, seed },
        ConfidenceConfig { replicates: 3 + 2 * rng.below(10), window_samples, seed },
        ConfidenceConfig { replicates: 1 + rng.below(12), window_samples: n, seed },
        ConfidenceConfig { replicates: 1 + rng.below(12), window_samples: n + rng.below(50), seed },
    ]
}

/// `history` without the series of `dim`.
fn without(history: &PerfHistory, dim: PerfDimension) -> PerfHistory {
    let mut kept = PerfHistory::new();
    for (d, series) in history.iter().filter(|&(d, _)| d != dim) {
        kept.insert(d, series.clone());
    }
    kept
}

/// A 10-minute workload with two regimes (so short windows disagree) and
/// IOPS bursts whose height varies along the history, so windows see
/// different peaks.
fn workload(rng: &mut Rng, n: usize) -> PerfHistory {
    let cut = rng.below(n.max(1));
    let cpu_base = [0.5 + 4.0 * rng.unit(), 0.5 + 12.0 * rng.unit()];
    let spike_rate = 0.02 + 0.1 * rng.unit();
    let mem = 2.0 + 60.0 * rng.unit();
    let iops_base = 50.0 + 1500.0 * rng.unit();
    let burst_peak = 300.0 + 16_000.0 * rng.unit();
    let latency = if rng.below(3) == 0 { 1.1 + 0.5 * rng.unit() } else { 5.0 + 2.0 * rng.unit() };
    let log_rate = 1.0 + 40.0 * rng.unit();
    let storage = 10.0 + 400.0 * rng.unit();
    let mut series = |f: &mut dyn FnMut(&mut Rng, usize) -> f64| {
        TimeSeries::ten_minute((0..n).map(|t| f(rng, t)).collect())
    };
    let cpu = series(&mut |r, t| {
        let base = cpu_base[usize::from(t >= cut)];
        if r.unit() < spike_rate {
            base * (2.0 + 4.0 * r.unit())
        } else {
            base * (0.8 + 0.4 * r.unit())
        }
    });
    let memory = series(&mut |r, _| mem * (0.9 + 0.2 * r.unit()));
    let iops = series(&mut |r, t| {
        if r.unit() < 0.03 {
            burst_peak * (t + 1) as f64 / n as f64 * (0.5 + r.unit())
        } else {
            iops_base * (0.7 + 0.6 * r.unit())
        }
    });
    let io_latency = series(&mut |r, _| latency * (0.95 + 0.1 * r.unit()));
    let log = series(&mut |r, _| log_rate * (0.5 + r.unit()));
    let data = series(&mut |_, _| storage);
    PerfHistory::new()
        .with(PerfDimension::Cpu, cpu)
        .with(PerfDimension::Memory, memory)
        .with(PerfDimension::Iops, iops)
        .with(PerfDimension::IoLatency, io_latency)
        .with(PerfDimension::LogRate, log)
        .with(PerfDimension::Storage, data)
}

/// Half the time, snap IOPS demand onto storage-tier limits and their
/// sums, so samples land exactly on a GP instance's IOPS limit.
fn maybe_tie_iops(rng: &mut Rng, history: PerfHistory) -> PerfHistory {
    const LIMITS: [f64; 8] = [150.0, 500.0, 1000.0, 2300.0, 2800.0, 5000.0, 7500.0, 12500.0];
    if rng.below(2) == 0 {
        return history;
    }
    let top = 1 + rng.below(LIMITS.len());
    let iops = (0..history.len()).map(|_| LIMITS[rng.below(top)]).collect();
    history.with(PerfDimension::Iops, TimeSeries::ten_minute(iops))
}

fn random_layout(rng: &mut Rng) -> FileLayout {
    let files = 1 + rng.below(3);
    FileLayout::from_sizes(&(0..files).map(|_| 20.0 + 700.0 * rng.unit()).collect::<Vec<_>>())
}

/// Random training records for `deployment` (MI records carry layouts).
fn training_records(deployment: DeploymentType, seed: u64, n: usize) -> Vec<TrainingRecord> {
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let skus: Vec<SkuId> =
        catalog.for_deployment(deployment).iter().map(|s| s.id.clone()).collect();
    let mut rng = Rng(seed);
    (0..n)
        .map(|_| TrainingRecord {
            history: workload(&mut rng, 288),
            chosen_sku: skus[rng.below(skus.len())].clone(),
            file_layout: (deployment == DeploymentType::SqlMi).then(|| random_layout(&mut rng)),
        })
        .collect()
}

/// Engines trained on random picks, so groups carry varied tolerances.
fn engine(deployment: DeploymentType) -> &'static DopplerEngine {
    static ENGINES: OnceLock<[DopplerEngine; 2]> = OnceLock::new();
    let engines = ENGINES.get_or_init(|| {
        let catalog = azure_paas_catalog(&CatalogSpec::default());
        let train = |deployment: DeploymentType, seed: u64| {
            let records = training_records(deployment, seed, 16);
            DopplerEngine::train(catalog.clone(), EngineConfig::production(deployment), &records)
        };
        [train(DeploymentType::SqlDb, 11), train(DeploymentType::SqlMi, 12)]
    });
    &engines[usize::from(deployment == DeploymentType::SqlMi)]
}

/// A history over a random subset of the six dimensions, a third of them
/// constant, against 0 to 150 capacity sets in which a quarter of the
/// capacities of every dimension, latency included, are NaN.
fn nan_kernel_case(seed: u64) -> (PerfHistory, Vec<ResourceCaps>) {
    let mut rng = Rng(seed);
    let n = rng.below(160);
    let dims = rng.next();
    let mut history = PerfHistory::new();
    for (i, &dim) in PerfDimension::ALL.iter().enumerate() {
        if dims >> i & 1 == 1 {
            let values = if rng.below(3) == 0 {
                vec![rng.level(); n]
            } else {
                (0..n).map(|_| rng.level()).collect()
            };
            history.insert(dim, TimeSeries::ten_minute(values));
        }
    }
    let skus = [0, 1, 3, 28, 63, 64, 65, 150][rng.below(8)];
    let cap = |rng: &mut Rng| if rng.below(4) == 0 { f64::NAN } else { rng.level() };
    let caps = (0..skus)
        .map(|_| ResourceCaps {
            vcores: cap(&mut rng),
            memory_gb: cap(&mut rng),
            max_data_gb: cap(&mut rng),
            iops: cap(&mut rng),
            log_rate_mbps: cap(&mut rng),
            min_io_latency_ms: cap(&mut rng),
            throughput_mbps: cap(&mut rng),
        })
        .collect();
    (history, caps)
}

/// The masks' and boundary counts' scores over the whole history, one
/// sample and arbitrary (possibly empty) spans equal the scalar walk's.
fn assert_kernel_matches(history: &PerfHistory, caps: &[ResourceCaps], seed: u64) {
    let n = history.len();
    let masks = ExceedanceMasks::new(history, caps);
    assert_eq!(masks.len(), n);
    assert_counts_match(history, caps, &masks.counts(0..n), "whole history");

    let mut rng = Rng(seed ^ 0xA5A5);
    let mut windows: Vec<Range<usize>> = Vec::new();
    windows.push(0..n);
    if n > 0 {
        let t = rng.below(n);
        windows.push(t..t + 1);
        for _ in 0..6 {
            let (a, b) = (rng.below(n + 1), rng.below(n + 1));
            windows.push(a.min(b)..a.max(b));
        }
    }
    let boundaries = BoundaryCounts::new(&masks, windows.iter().flat_map(|w| [w.start, w.end]));
    for range in windows {
        let window = history.window(range.start, range.end);
        let what = format!("window {range:?} of {n}");
        assert_counts_match(&window, caps, &boundaries.counts(range.clone()), &what);
        assert_counts_match(&window, caps, &masks.counts(range), &what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn exceedance_kernel_matches_the_scalar_probability(seed in 0u64..u64::MAX) {
        let (history, caps) = kernel_case(seed);
        assert_kernel_matches(&history, &caps, seed);
    }

    #[test]
    fn exceedance_kernel_never_exceeds_a_nan_capacity(seed in 0u64..u64::MAX) {
        let (history, caps) = nan_kernel_case(seed);
        assert_kernel_matches(&history, &caps, seed);
    }

    #[test]
    fn breakdown_matches_the_scalar_probability(seed in 0u64..u64::MAX) {
        for (history, caps) in [kernel_case(seed), nan_kernel_case(seed)] {
            for (s, caps) in caps.iter().enumerate() {
                let b = ThrottleBreakdown::compute(&history, caps);
                let joint = throttling_probability(&history, caps);
                prop_assert_eq!(b.joint.to_bits(), joint.to_bits(), "SKU {}", s);
                prop_assert_eq!(b.per_dimension.len(), history.dimensions().len());
                for (&(dim, fraction), (d, series)) in b.per_dimension.iter().zip(history.iter()) {
                    prop_assert_eq!(dim, d);
                    let alone = PerfHistory::new().with(dim, series.clone());
                    let scalar = throttling_probability(&alone, caps);
                    prop_assert_eq!(fraction.to_bits(), scalar.to_bits(), "SKU {} {}", s, dim);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn db_confidence_matches_the_per_window_pipeline(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let n = 150 + rng.below(500);
        let history = workload(&mut rng, n);
        let config = ConfidenceConfig {
            replicates: 1 + rng.below(20),
            window_samples: 1 + rng.below(history.len() + 50),
            seed,
        };
        assert_confidence_matches(engine(DeploymentType::SqlDb), &history, None, &config);
        // Edge configurations, and the history without one profiled
        // dimension.
        let engine = engine(DeploymentType::SqlDb);
        let partial = without(&history, profiled_dimensions(DeploymentType::SqlDb)[rng.below(4)]);
        for config in edge_configs(&mut rng, n, seed) {
            assert_confidence_matches(engine, &history, None, &config);
            assert_confidence_matches(engine, &partial, None, &config);
        }
    }

    #[test]
    fn mi_confidence_matches_the_per_window_pipeline(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let n = 150 + rng.below(500);
        let history = workload(&mut rng, n);
        let history = maybe_tie_iops(&mut rng, history);
        let layout = random_layout(&mut rng);
        let config = ConfidenceConfig {
            replicates: 1 + rng.below(20),
            window_samples: 1 + rng.below(history.len() + 50),
            seed,
        };
        let engine = engine(DeploymentType::SqlMi);
        assert_confidence_matches(engine, &history, Some(&layout), &config);
        // Without a layout the MI engine scores the plain catalog curve.
        assert_confidence_matches(engine, &history, None, &config);
        // Edge configurations; the history without one profiled dimension
        // (IOPS among them, which Step 1 reads); and IOPS demand past what
        // any premium-disk layout serves in some windows or all of them, so
        // windows are restricted to Business Critical.
        let partial = without(&history, profiled_dimensions(DeploymentType::SqlMi)[rng.below(3)]);
        let iops = history.values(PerfDimension::Iops).expect("workloads collect IOPS");
        let peak = iops.iter().copied().fold(0.0, f64::max);
        let scale = 40_000.0 / peak * [1.0, 0.5 + rng.unit()][rng.below(2)];
        let heavy = history.clone().with(
            PerfDimension::Iops,
            TimeSeries::ten_minute(iops.iter().map(|v| v * scale).collect()),
        );
        for config in edge_configs(&mut rng, n, seed) {
            for history in [&history, &partial, &heavy] {
                assert_confidence_matches(engine, history, Some(&layout), &config);
            }
            assert_confidence_matches(engine, &partial, None, &config);
        }
    }

    #[test]
    fn mi_curve_matches_the_scalar_probability(seed in 0u64..u64::MAX) {
        // Step 2 equals Eq. 1 with the Step-1 IOPS limit substituted into
        // every GP SKU.
        let mut rng = Rng(seed);
        let n = 1 + rng.below(400);
        let history = workload(&mut rng, n);
        let history = maybe_tie_iops(&mut rng, history);
        let layout = random_layout(&mut rng);
        let catalog = engine(DeploymentType::SqlMi).catalog();
        let a = mi_curve(&history, &layout, catalog).expect("files fit a premium disk");
        for point in a.curve.points() {
            let sku = catalog.get(&SkuId(point.sku_id.clone())).expect("catalog SKU");
            let mut caps = sku.caps;
            if sku.tier == ServiceTier::GeneralPurpose {
                caps.iops = a.gp_iops_limit;
            }
            let scalar = 1.0 - throttling_probability(&history, &caps);
            prop_assert_eq!(point.raw_score.to_bits(), scalar.to_bits(), "{}", point.sku_id);
        }
    }
}

/// The MI property above only proves something if windows really move the
/// Step-1 result: here the bootstrap windows of one history land on
/// several GP IOPS limits, and a BC-only restriction, and the fast path
/// still matches the oracle.
#[test]
fn mi_windows_move_the_storage_tiers() {
    let engine = engine(DeploymentType::SqlMi);
    let catalog: &Catalog = engine.catalog();
    let n = 2016;
    let iops: Vec<f64> = (0..n)
        .map(|t| match t % 144 {
            0 => [400.0, 2_000.0, 4_500.0, 7_000.0, 11_000.0, 20_000.0][(t / 144) % 6],
            _ => 150.0,
        })
        .collect();
    let history = PerfHistory::new()
        .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![3.0; n]))
        .with(PerfDimension::Memory, TimeSeries::ten_minute(vec![12.0; n]))
        .with(PerfDimension::Iops, TimeSeries::ten_minute(iops))
        .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; n]));
    let layout = FileLayout::from_sizes(&[100.0]);
    let config = ConfidenceConfig { replicates: 30, window_samples: 300, seed: 4 };
    let mut limits = Vec::new();
    let mut restricted = false;
    for w in BootstrapWindows::generate(n, 300, 30, 4).windows() {
        let window = history.window(w.start, w.end);
        let a = mi_curve(&window, &layout, catalog).unwrap();
        restricted |= a.restricted_to_bc;
        if !limits.contains(&a.gp_iops_limit) {
            limits.push(a.gp_iops_limit);
        }
    }
    assert!(limits.len() >= 3, "windows hit only GP IOPS limits {limits:?}");
    assert!(restricted, "no window was restricted to Business Critical");
    assert_confidence_matches(engine, &history, Some(&layout), &config);
}

/// Sample ranges of an `n`-sample history: empty ones (at the start, the
/// end and inside), one sample, the whole history, and random spans.
fn ranges(rng: &mut Rng, n: usize) -> Vec<Range<usize>> {
    let mut ranges = vec![0..0, n..n, 0..n];
    if n > 0 {
        let t = rng.below(n);
        ranges.extend([t..t, t..t + 1]);
        for _ in 0..3 {
            let (a, b) = (rng.below(n + 1), rng.below(n + 1));
            ranges.push(a.min(b)..a.max(b));
        }
    }
    ranges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Profiling a sample range in place equals profiling a copied window,
    /// and profiling that window one dimension at a time, weight for
    /// weight (`to_bits`) and bit for bit. It covers every Table 4
    /// strategy, over the MI, DB and full dimension lists (so the lockstep
    /// profiler runs a short lane group), with dimensions missing.
    #[test]
    fn range_profile_matches_the_copied_window(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        // Long enough, at times, for STL's two daily seasons.
        let n = [rng.below(12), rng.below(160), 288 + rng.below(200)][rng.below(3)];
        let mut history = workload(&mut rng, n);
        if rng.below(3) == 0 {
            history = maybe_tie_iops(&mut rng, history);
        }
        // Drop up to two dimensions, profiled ones included.
        for _ in 0..rng.below(3) {
            let dim = PerfDimension::ALL[rng.below(6)];
            let mut kept = PerfHistory::new();
            for (d, series) in history.iter().filter(|&(d, _)| d != dim) {
                kept.insert(d, series.clone());
            }
            history = kept;
        }
        let len = history.len();
        let dim_lists: [&[PerfDimension]; 3] = [
            profiled_dimensions(DeploymentType::SqlMi),
            profiled_dimensions(DeploymentType::SqlDb),
            &PerfDimension::ALL,
        ];
        for range in ranges(&mut rng, len) {
            let window = history.window(range.start, range.end);
            for (name, strategy) in NegotiabilityStrategy::table4_lineup() {
                for dims in dim_lists {
                    let what = format!("{name}, {} dims, range {range:?} of {len}", dims.len());
                    let got = strategy.profile_range(&history, dims, range.clone());
                    // The copied window, and the same window one dimension
                    // at a time (the one-lane kernel).
                    let mut one_by_one = (Vec::new(), Vec::new());
                    for &dim in dims {
                        let (w, bit) = match window.values(dim) {
                            Some(values) => strategy.dimension_profile(values),
                            None => (vec![0.0; strategy.weights_per_dimension()], false),
                        };
                        one_by_one.0.extend(w);
                        one_by_one.1.push(bit);
                    }
                    for want in [strategy.profile(&window, dims), one_by_one] {
                        prop_assert_eq!(
                            got.0.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                            want.0.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                            "{}", what
                        );
                        prop_assert_eq!(&got.1, &want.1, "{}", what);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Profiling a set of equal-length windows together equals profiling
    /// each window's range alone, weight for weight (`to_bits`) and bit for
    /// bit, for every Table 4 strategy over the MI, DB and full dimension
    /// lists, with dimensions missing: windows of one to three samples, of
    /// the whole history and of random lengths, starting anywhere and
    /// ending on the last sample, in odd and even counts (so the last
    /// lockstep batch holds one window or two).
    #[test]
    fn window_profiles_match_the_range_profiles(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let n = [1 + rng.below(12), 1 + rng.below(160), 288 + rng.below(200)][rng.below(3)];
        let mut history = workload(&mut rng, n);
        for _ in 0..rng.below(3) {
            history = without(&history, PerfDimension::ALL[rng.below(6)]);
        }
        let len = [1, 2, 3, n, 1 + rng.below(n)][rng.below(5)].min(n);
        let count = rng.below(8);
        let mut windows: Vec<Range<usize>> = (0..count)
            .map(|_| {
                let start = rng.below(n - len + 1);
                start..start + len
            })
            .collect();
        if count > 0 && rng.below(2) == 0 {
            windows[rng.below(count)] = n - len..n;
        }
        let dim_lists: [&[PerfDimension]; 3] = [
            profiled_dimensions(DeploymentType::SqlMi),
            profiled_dimensions(DeploymentType::SqlDb),
            &PerfDimension::ALL,
        ];
        for (name, strategy) in NegotiabilityStrategy::table4_lineup() {
            for dims in dim_lists {
                let got = strategy.profile_windows(&history, dims, &windows);
                prop_assert_eq!(got.len(), windows.len());
                for (range, got) in windows.iter().zip(got) {
                    let what = format!("{name}, {} dims, window {range:?} of {n}", dims.len());
                    let want = strategy.profile_range(&history, dims, range.clone());
                    prop_assert_eq!(
                        got.0.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                        want.0.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                        "{}", what
                    );
                    prop_assert_eq!(&got.1, &want.1, "{}", what);
                }
            }
        }
    }
}

/// Table 4's configuration of `strategy` for `deployment`: k-means
/// grouping, small enough for a 16-record training set.
fn lineup_config(deployment: DeploymentType, strategy: NegotiabilityStrategy) -> EngineConfig {
    EngineConfig {
        deployment,
        negotiability: strategy,
        grouping: GroupingStrategy::KMeans { k: 4, seed: 5 },
        rates: Default::default(),
    }
}

/// One engine per Table 4 strategy and deployment, in lineup order, DB
/// before MI.
fn lineup_engines() -> &'static [DopplerEngine] {
    static ENGINES: OnceLock<Vec<DopplerEngine>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        let catalog = azure_paas_catalog(&CatalogSpec::default());
        let mut engines = Vec::new();
        for (_, strategy) in NegotiabilityStrategy::table4_lineup() {
            for (deployment, seed) in [(DeploymentType::SqlDb, 21), (DeploymentType::SqlMi, 22)] {
                let records = training_records(deployment, seed, 16);
                let config = lineup_config(deployment, strategy);
                engines.push(DopplerEngine::train(catalog.clone(), config, &records));
            }
        }
        engines
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Recommending on the history's own profile equals recommending from
    /// the history alone, for every Table 4 strategy on SQL DB, and on SQL
    /// MI with and without a file layout.
    #[test]
    fn profiled_recommend_matches_recommend(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let n = [1 + rng.below(40), 288 + rng.below(200)][rng.below(2)];
        let history = workload(&mut rng, n);
        let history = maybe_tie_iops(&mut rng, history);
        let layout = random_layout(&mut rng);
        for engine in lineup_engines() {
            let layouts = match engine.config().deployment {
                DeploymentType::SqlDb => vec![None],
                DeploymentType::SqlMi => vec![None, Some(&layout)],
            };
            for layout in layouts {
                let profile = engine.config().negotiability.profile(&history, engine.dims());
                let got = engine.recommend_profiled(&history, layout, profile);
                prop_assert_eq!(got, engine.recommend(&history, layout));
            }
        }
    }
}

/// Training on the strategy's own profiles of the records equals training
/// on the records: the same group model, and the same recommendation for
/// every record and for fresh histories. The group model also equals one
/// learned from the layer functions: the grouping fitted on the profiles,
/// and each record's curve under its label.
#[test]
fn train_profiled_matches_train() {
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    for (name, strategy) in NegotiabilityStrategy::table4_lineup() {
        for deployment in [DeploymentType::SqlDb, DeploymentType::SqlMi] {
            let records = training_records(deployment, 31, 16);
            let config = lineup_config(deployment, strategy);
            let dims = profiled_dimensions(deployment);
            let profiles: Vec<_> =
                records.iter().map(|r| strategy.profile(&r.history, dims)).collect();
            let trained = DopplerEngine::train(catalog.clone(), config, &records);
            let profiled =
                DopplerEngine::train_profiled(catalog.clone(), config, &records, &profiles);
            assert_eq!(trained.group_model(), profiled.group_model(), "{name}, {deployment:?}");
            let (weights, bits): (Vec<_>, Vec<_>) = profiles.iter().cloned().unzip();
            let (grouping, labels) = config.grouping.fit(&weights, &bits);
            let curves: Vec<_> = records
                .iter()
                .map(|r| profiled.curve_for(&r.history, r.file_layout.as_ref()).0)
                .collect();
            let oracle = GroupModel::learn(
                grouping.group_count(),
                labels
                    .iter()
                    .zip(&curves)
                    .zip(&records)
                    .map(|((&g, c), r)| (g, c, r.chosen_sku.0.as_str())),
            );
            assert_eq!(profiled.group_model(), &oracle, "{name}, {deployment:?}");
            let fresh = training_records(deployment, 32, 4);
            for r in records.iter().chain(&fresh) {
                assert_eq!(
                    profiled.recommend(&r.history, r.file_layout.as_ref()),
                    trained.recommend(&r.history, r.file_layout.as_ref()),
                    "{name}, {deployment:?}"
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "one profile per training record")]
fn train_profiled_needs_one_profile_per_record() {
    let records = training_records(DeploymentType::SqlDb, 41, 2);
    let strategy = NegotiabilityStrategy::production();
    let profile = strategy.profile(&records[0].history, profiled_dimensions(DeploymentType::SqlDb));
    DopplerEngine::train_profiled(
        azure_paas_catalog(&CatalogSpec::default()),
        EngineConfig::production(DeploymentType::SqlDb),
        &records,
        &[profile],
    );
}
