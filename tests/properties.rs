//! Cross-crate property tests: generated workloads driven through the
//! whole stack must uphold the system invariants.

mod common;

use std::collections::VecDeque;

use common::{catalog, engine, sql_db_route, Config};
use doppler::fleet::{BoundedQueue, DriftOutcome, FleetDriftReport, MonitoredCustomer};
use doppler::prelude::*;
use doppler::replay::replay;
use doppler::stats::SeededRng;
use doppler::telemetry::rollup;
use doppler::workload::DriftDirection;
use proptest::prelude::*;

fn archetype_strategy() -> impl Strategy<Value = WorkloadArchetype> {
    prop::sample::select(WorkloadArchetype::ALL.to_vec())
}

/// The reference model of the two-lane queue's scheduling rule: priority
/// lane first, FIFO within each lane, with the anti-starvation valve
/// serving one normal item after `FAIRNESS` consecutive priority pops
/// that delayed waiting normal work.
struct LaneModel {
    priority: VecDeque<u32>,
    normal: VecDeque<u32>,
    streak: usize,
}

impl LaneModel {
    fn new() -> LaneModel {
        LaneModel { priority: VecDeque::new(), normal: VecDeque::new(), streak: 0 }
    }

    fn len(&self) -> usize {
        self.priority.len() + self.normal.len()
    }

    fn pop(&mut self) -> Option<u32> {
        let normal_waiting = !self.normal.is_empty();
        let valve_open = self.streak >= BoundedQueue::<u32>::FAIRNESS && normal_waiting;
        let serve_priority = !self.priority.is_empty() && !valve_open;
        let item = if serve_priority { self.priority.pop_front() } else { self.normal.pop_front() };
        if item.is_some() {
            self.streak = if serve_priority && normal_waiting { self.streak + 1 } else { 0 };
        }
        item
    }
}

/// One scripted queue operation: push-normal, push-priority, or pop.
fn lane_ops_strategy() -> impl Strategy<Value = Vec<(u8, u32)>> {
    prop::collection::vec((0u8..3, 0u32..1_000_000), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_generated_workload_gets_a_recommendation(
        arch in archetype_strategy(),
        scale in 0.2..24.0f64,
        seed in 0u64..1000,
    ) {
        let history = doppler::workload::generate(&arch.spec(scale, 2.0), seed);
        let rec = engine().recommend(&history, None);
        prop_assert!(rec.sku_id.is_some());
        prop_assert!(!rec.curve.is_empty());
        let score = rec.score.unwrap();
        prop_assert!((0.0..=1.0).contains(&score));
    }

    #[test]
    fn curve_scores_never_decrease_with_price_for_any_workload(
        arch in archetype_strategy(),
        scale in 0.2..30.0f64,
        seed in 0u64..1000,
    ) {
        let history = doppler::workload::generate(&arch.spec(scale, 1.0), seed);
        let cat = catalog();
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let curve = doppler::engine::PricePerformanceCurve::generate(&history, &skus);
        for w in curve.points().windows(2) {
            prop_assert!(w[1].score >= w[0].score - 1e-12);
        }
    }

    #[test]
    fn replay_never_exceeds_capacity(
        cpu_level in 0.5..60.0f64,
        iops_level in 100.0..40_000.0f64,
        seed in 0u64..100,
    ) {
        let mut rng = SeededRng::new(seed);
        let n = 100;
        let history = PerfHistory::new()
            .with(
                PerfDimension::Cpu,
                TimeSeries::ten_minute((0..n).map(|_| cpu_level * rng.range(0.5, 1.5)).collect()),
            )
            .with(
                PerfDimension::Iops,
                TimeSeries::ten_minute((0..n).map(|_| iops_level * rng.range(0.5, 1.5)).collect()),
            );
        for sku in doppler::catalog::replay_skus() {
            let out = replay(&history, &sku);
            let cpu_peak = out
                .observed
                .values(PerfDimension::Cpu)
                .unwrap()
                .iter()
                .copied()
                .fold(0.0, f64::max);
            let iops_peak = out
                .observed
                .values(PerfDimension::Iops)
                .unwrap()
                .iter()
                .copied()
                .fold(0.0, f64::max);
            prop_assert!(cpu_peak <= sku.caps.vcores + 1e-9);
            prop_assert!(iops_peak <= sku.caps.iops + 1e-9);
            prop_assert!((0.0..=1.0).contains(&out.throttle_fraction));
        }
    }

    #[test]
    fn rollup_of_identical_children_scales_additive_dims(
        level in 0.1..10.0f64,
        copies in 1usize..6,
    ) {
        let child = PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![level; 12]))
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![5.0; 12]));
        let merged = rollup(&vec![child; copies]);
        let cpu = merged.values(PerfDimension::Cpu).unwrap();
        prop_assert!((cpu[0] - level * copies as f64).abs() < 1e-9);
        // Latency takes the strictest requirement, which is unchanged.
        prop_assert_eq!(merged.values(PerfDimension::IoLatency).unwrap()[0], 5.0);
    }

    #[test]
    fn population_customers_always_reference_catalog_skus(
        n in 1usize..12,
        seed in 0u64..50,
    ) {
        let cat = catalog();
        let spec = PopulationSpec { days: 1.0, ..PopulationSpec::sql_db(n, seed) };
        for c in spec.customers(&cat) {
            prop_assert!(cat.get(&c.chosen_sku).is_some());
            prop_assert_eq!(c.negotiability.len(), 4);
            prop_assert!(!c.history.is_empty());
        }
    }

    #[test]
    fn priority_lane_conserves_and_never_starves_under_arbitrary_interleavings(
        ops in lane_ops_strategy(),
    ) {
        // Capacity above the op count: pushes never block, so the scripted
        // single-threaded interleaving is exactly the schedule exercised.
        let queue = BoundedQueue::new(ops.len() + 1);
        let mut model = LaneModel::new();
        let mut pushed = 0usize;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for (kind, value) in ops {
            match kind {
                0 => {
                    queue.push(value).unwrap();
                    model.normal.push_back(value);
                    pushed += 1;
                }
                1 => {
                    queue.push_priority(value).unwrap();
                    model.priority.push_back(value);
                    pushed += 1;
                }
                _ => {
                    // Pop only when non-empty (an empty open queue blocks).
                    if model.len() > 0 {
                        popped.push(queue.pop().unwrap());
                        expected.push(model.pop().unwrap());
                    }
                }
            }
        }
        // Close and drain: total pops must equal total pushes — the
        // normal lane is never starved out of delivery — and the whole
        // pop sequence must match the two-lane scheduling model
        // (priority-first, per-lane FIFO, FAIRNESS valve).
        queue.close();
        while let Some(v) = queue.pop() {
            popped.push(v);
            expected.push(model.pop().unwrap());
        }
        prop_assert_eq!(model.len(), 0);
        prop_assert_eq!(popped.len(), pushed, "total pops == total pushes");
        prop_assert_eq!(popped, expected);
    }

    #[test]
    fn drift_report_rollup_rows_always_sum_to_fleet_totals(
        fields in prop::collection::vec(
            (0u8..3, 0u8..5, 0usize..3, 0u8..2, -500.0..500.0f64),
            0..40,
        ),
    ) {
        use doppler::fleet::{DriftRollupRow, DriftVerdict};
        let regions = ["global", "westeurope", "eastasia"];
        let outcomes: Vec<DriftOutcome> = fields
            .iter()
            .enumerate()
            .map(|(index, &(verdict, severity, region, deployment, delta))| {
                let verdict = match verdict {
                    0 => DriftVerdict::Stable,
                    1 => DriftVerdict::Drifted,
                    _ => DriftVerdict::Inconclusive,
                };
                DriftOutcome {
                    index,
                    customer: format!("c{index}"),
                    deployment: if deployment == 0 {
                        DeploymentType::SqlDb
                    } else {
                        DeploymentType::SqlMi
                    },
                    region: Region::new(regions[region]),
                    verdict,
                    severity: DriftSeverity::ALL[severity as usize],
                    before_sku: Some("DB_GP_2".into()),
                    after_sku: Some("DB_GP_4".into()),
                    throttle_if_unchanged: 0.5,
                    cost_delta: Some(delta),
                    error: None,
                }
            })
            .collect();
        let mut report = FleetDriftReport::from_outcomes("Prop-22", &outcomes);
        // A catalog roll landing between passes annotates the report; the
        // roll-up sums must be unaffected by its presence.
        report.catalog_rolls = outcomes.len() % 5;
        prop_assert_eq!(report.catalog_rolls, outcomes.len() % 5);
        prop_assert_eq!(report.checked, outcomes.len());
        prop_assert_eq!(report.drifted + report.stable + report.inconclusive, report.checked);
        prop_assert_eq!(report.severity.iter().sum::<usize>(), report.checked);
        prop_assert_eq!(report.drifted_customers.len(), report.drifted);
        // Region rows sum to the fleet totals, column by column.
        let sum = |f: fn(&DriftRollupRow<Region>) -> usize| -> usize {
            report.regions.iter().map(f).sum()
        };
        prop_assert_eq!(sum(|r| r.checked), report.checked);
        prop_assert_eq!(sum(|r| r.drifted), report.drifted);
        prop_assert_eq!(sum(|r| r.stable), report.stable);
        prop_assert_eq!(sum(|r| r.inconclusive), report.inconclusive);
        let region_delta: f64 = report.regions.iter().map(|r| r.cost_delta).sum();
        prop_assert!((region_delta - report.total_cost_delta).abs() < 1e-6);
        // Deployment rows too.
        prop_assert_eq!(report.deployments.iter().map(|d| d.checked).sum::<usize>(), report.checked);
        prop_assert_eq!(report.deployments.iter().map(|d| d.drifted).sum::<usize>(), report.drifted);
        let deployment_delta: f64 = report.deployments.iter().map(|d| d.cost_delta).sum();
        prop_assert!((deployment_delta - report.total_cost_delta).abs() < 1e-6);
        // Region rows come out sorted and unique.
        for pair in report.regions.windows(2) {
            prop_assert!(pair[0].key.as_str() < pair[1].key.as_str());
        }
    }

    #[test]
    fn registry_retirement_holds_under_arbitrary_ops(
        ops in prop::collection::vec((0usize..6, 0u8..8), 1..40),
    ) {
        use std::collections::HashSet;
        use std::sync::Arc;
        // Six single-version regions; each op resolves one of them, or
        // retires it first.
        let provider = (0..6).fold(InMemoryCatalogProvider::new(), |p, i| {
            p.with_region(
                Region::new(format!("r{i}")),
                CatalogVersion::INITIAL,
                &CatalogSpec::default(),
                1.0,
            )
        });
        let registry = EngineRegistry::new(Arc::new(provider));
        let template = EngineTemplate::production();
        let empty = TrainingSet::empty();
        let key = |i: usize| {
            CatalogKey::new(DeploymentType::SqlDb, Region::new(format!("r{i}")), CatalogVersion::INITIAL)
        };
        let mut retired: HashSet<usize> = HashSet::new();
        let mut cached: HashSet<usize> = HashSet::new();
        let total_ops = ops.len() as u64;
        let mut misses_before;
        for (i, action) in ops {
            // Retire roughly one op in eight; the rest resolve.
            let retire = action == 0;
            if retire {
                registry.retire_version(&key(i));
                retired.insert(i);
                cached.remove(&i);
            }
            misses_before = registry.stats().misses;
            match registry.get_or_train(&key(i), &template, &empty) {
                Ok(_) => {
                    prop_assert!(!retired.contains(&i), "retired key r{i} resolved");
                    // A live key that was already cached resolves warm.
                    let trained = registry.stats().misses - misses_before;
                    prop_assert_eq!(trained, u64::from(!cached.contains(&i)), "r{} retrained", i);
                    cached.insert(i);
                }
                Err(RegistryError::Retired(_)) => {
                    prop_assert!(retired.contains(&i), "live key r{i} refused as retired");
                    prop_assert_eq!(
                        registry.stats().misses, misses_before,
                        "retire-then-resolve must never retrain"
                    );
                }
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
            // Retirement is the only way an engine leaves the cache.
            prop_assert_eq!(registry.len(), cached.len());
        }
        let stats = registry.stats();
        prop_assert_eq!(stats.entries, registry.len());
        // Every op completed exactly one resolution.
        prop_assert_eq!(stats.hits + stats.coalesced + stats.misses + stats.failures, total_ops);
    }

    #[test]
    fn provider_versions_are_strictly_monotone_under_interleaved_feeds(
        ops in prop::collection::vec((0usize..4, 0u8..4), 1..30),
    ) {
        use std::collections::HashMap;
        use std::sync::Arc;
        let regions = ["r0", "r1", "r2"];
        let inner = regions.iter().fold(InMemoryCatalogProvider::new(), |p, r| {
            p.with_region(Region::new(*r), CatalogVersion::INITIAL, &CatalogSpec::default(), 1.0)
        });
        let provider = RefreshableCatalogProvider::new(Arc::new(inner));
        let base = CatalogSpec::default().rates;
        let mut versions: HashMap<(DeploymentType, String), CatalogVersion> = HashMap::new();
        let mut logged = 0usize;
        for (region_idx, kind) in ops {
            let feed = match kind {
                0 => PriceFeed::Multiplier(1.0), // always a no-op
                1 => PriceFeed::Multiplier(0.9),
                2 => PriceFeed::Multiplier(1.1),
                _ => PriceFeed::Rates(base.scaled(0.8)), // idempotent once in force
            };
            if region_idx == 3 {
                // Unknown regions are typed errors, never partial updates.
                prop_assert!(matches!(
                    provider.apply_feed(&Region::new("mars"), feed),
                    Err(FeedError::UnknownRegion(_))
                ));
                continue;
            }
            let region = regions[region_idx];
            let rolls = provider.apply_feed(&Region::new(region), feed).unwrap();
            logged += rolls.len();
            for roll in &rolls {
                let slot = (roll.new_key.deployment, region.to_string());
                let prev = versions.get(&slot).copied().unwrap_or(CatalogVersion::INITIAL);
                prop_assert!(
                    roll.new_key.version > prev,
                    "{region}: {} !> {prev}", roll.new_key.version
                );
                prop_assert_eq!(&roll.old_key.region, &roll.new_key.region);
                versions.insert(slot, roll.new_key.version);
                // Every logged key resolves, and its fingerprint matches.
                let resolved = provider.resolve(&roll.new_key).unwrap();
                prop_assert_eq!(resolved.fingerprint, roll.fingerprint);
            }
            // The advertised frontier agrees with the model.
            for (&(deployment, ref r), &v) in &versions {
                let latest = provider.latest(deployment, &Region::new(r.as_str())).unwrap();
                prop_assert_eq!(latest.version, v, "{}", r);
            }
        }
        prop_assert_eq!(provider.change_log().len(), logged);
        prop_assert_eq!(provider.rolls(), logged);
    }

    #[test]
    fn zero_drift_cohorts_never_report_drift(
        n in 1usize..7,
        seed in 0u64..200,
    ) {
        // A control cohort: every customer's fresh window is drawn from
        // the same distribution as its baseline (magnitude 1.0 — no
        // injected drift), at sizes that sit comfortably inside a SKU
        // rung. No seed may produce a drifted verdict.
        let config = Config { workers: 1 + (seed % 3) as usize, obs: false };
        let mut monitor = DriftMonitor::new(config.assessor(sql_db_route()));
        for i in 0..n {
            let spec = DriftSpec {
                direction: DriftDirection::Grow,
                days: 0.5,
                onset_day: 0.25,
                magnitude: 1.0,
                base_scale: 0.4 + 0.5 * (i as f64 / 6.0),
                latency_critical: false,
            };
            let scenario = spec.scenario(seed.wrapping_mul(31).wrapping_add(i as u64));
            monitor.watch(MonitoredCustomer::new(
                format!("ctrl-{i}"),
                DeploymentType::SqlDb,
                scenario.before,
            ));
            monitor.observe(&format!("ctrl-{i}"), scenario.after);
        }
        let pass = monitor.tick("Ctl-22");
        prop_assert_eq!(pass.report.checked, n);
        prop_assert_eq!(pass.report.drifted, 0, "outcomes: {:?}", pass.outcomes);
        prop_assert_eq!(pass.report.stable, n);
        prop_assert!(pass.reassessments.is_empty());
    }

    #[test]
    fn instrumented_lane_gauges_always_drain_to_zero(
        ops in lane_ops_strategy(),
    ) {
        // Any scripted interleaving of pushes and pops on an instrumented
        // queue: at every step each lane's depth gauge equals the model's
        // lane length, and after close + full drain both read zero — the
        // invariant the ops dashboard's queue-depth rows rely on.
        let obs = ObsRegistry::enabled();
        let queue = BoundedQueue::instrumented(ops.len() + 1, &obs, "q");
        let mut model = LaneModel::new();
        for (kind, value) in ops {
            match kind {
                0 => {
                    queue.push(value).unwrap();
                    model.normal.push_back(value);
                }
                1 => {
                    queue.push_priority(value).unwrap();
                    model.priority.push_back(value);
                }
                _ => {
                    if model.len() > 0 {
                        queue.pop().unwrap();
                        model.pop().unwrap();
                    }
                }
            }
            let snapshot = obs.snapshot();
            prop_assert_eq!(snapshot.gauge("q.depth.normal"), Some(model.normal.len() as i64));
            prop_assert_eq!(snapshot.gauge("q.depth.priority"), Some(model.priority.len() as i64));
        }
        queue.close();
        while queue.pop().is_some() {}
        let snapshot = obs.snapshot();
        prop_assert_eq!(snapshot.gauge("q.depth.normal"), Some(0));
        prop_assert_eq!(snapshot.gauge("q.depth.priority"), Some(0));
    }

    #[test]
    fn histogram_count_always_equals_observations_recorded(
        observations in prop::collection::vec(0u64..u64::MAX / 2, 0..200),
    ) {
        // However the samples spread across the power-of-two buckets, the
        // histogram's count is exact — every `record_ns` lands in exactly
        // one bucket — and the max is the true maximum.
        let obs = ObsRegistry::enabled();
        let histogram = obs.histogram("lat");
        for &ns in &observations {
            histogram.record_ns(ns);
        }
        let snapshot = obs.snapshot();
        let summary = snapshot.histogram("lat").unwrap();
        prop_assert_eq!(summary.count, observations.len() as u64);
        prop_assert_eq!(histogram.count(), observations.len() as u64);
        prop_assert_eq!(summary.max_ns, observations.iter().copied().max().unwrap_or(0));
    }
}
