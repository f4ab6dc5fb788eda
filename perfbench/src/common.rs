//! Shared plumbing: the run outcome and its operation accounting, summary
//! statistics, process probes, the realistic inputs every assess path
//! draws from, and the serving stack every workload sets up.

use std::sync::Arc;
use std::time::{Duration, Instant};

use doppler_catalog::InMemoryCatalogProvider;
use doppler_catalog::{Catalog, CatalogKey, CatalogProvider, DeploymentType};
use doppler_core::{BackendSpec, EngineRegistry, TrainingRecord, TrainingSet};
use doppler_dma::json::Json;
use doppler_fleet::{EngineRoute, FleetAssessor, FleetConfig, FleetService};
use doppler_obs::{ObsRegistry, ObsSnapshot};
use doppler_workload::{CloudCustomer, PopulationSpec};

/// Attempted / succeeded / failed operations of one phase of a run.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
}

/// Everything a workload reports back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub phases: Vec<Phase>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Output checks that failed; empty = correct.
    pub problems: Vec<String>,
    /// Extra run-stamp fields.
    pub stamp: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn phase(&mut self, name: &'static str, attempted: u64, failed: u64) {
        self.phases.push(Phase {
            name,
            attempted,
            succeeded: attempted.saturating_sub(failed),
            failed,
        });
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// Median of a non-empty sample of finite values.
pub fn median(values: &[f64]) -> f64 {
    doppler_stats::quantile(values, 0.5).expect("a non-empty sample of finite values")
}

/// One stretch of measured work: how long it took, how many operations it
/// completed, and their latencies.
pub struct Slice {
    pub seconds: f64,
    pub ops: f64,
    pub latencies_ms: Vec<f64>,
}

impl Slice {
    fn rate(&self) -> f64 {
        self.ops / self.seconds
    }
}

/// A run's end-to-end figures.
pub struct Summary {
    pub throughput: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Slices the throughput and the median are taken from, of all slices.
    pub kept: usize,
    pub slices: usize,
    /// Latency samples the median is taken over.
    pub p50_samples: usize,
    /// Latency samples the p99 is taken over: every one of the run.
    pub samples: usize,
}

/// Summarise a run: throughput and median latency over the fastest
/// `1 / keep` of its slices, the p99 over every latency sample of the run.
///
/// The machines this runs on are shared: a neighbour's load slows the
/// whole process by a quarter or more for stretches of a few seconds to
/// most of a run, which moves a whole-run mean or median by far more than
/// any regression bound. Slices the machine slowed are the slower ones, so
/// the fastest (by throughput) estimate what the code itself costs. The
/// p99 keeps every sample, so stalls of the program's own (a lock, a
/// retrain) stay in its tail.
pub fn summarize(mut slices: Vec<Slice>, keep: usize, mut latencies_ms: Vec<f64>) -> Summary {
    assert!(!slices.is_empty(), "a run measures at least one slice");
    assert!(!latencies_ms.is_empty(), "a run measures at least one latency");
    let total = slices.len();
    slices.sort_by(|a, b| b.rate().total_cmp(&a.rate()));
    slices.truncate(total.div_ceil(keep));
    let seconds: f64 = slices.iter().map(|s| s.seconds).sum();
    let ops: f64 = slices.iter().map(|s| s.ops).sum();
    let mut kept_ms: Vec<f64> =
        slices.iter().flat_map(|s| s.latencies_ms.iter().copied()).collect();
    kept_ms.sort_by(f64::total_cmp);
    latencies_ms.sort_by(f64::total_cmp);
    Summary {
        throughput: ops / seconds,
        p50_ms: doppler_stats::quantile_sorted(&kept_ms, 0.5),
        p99_ms: doppler_stats::quantile_sorted(&latencies_ms, 0.99),
        kept: slices.len(),
        slices: total,
        p50_samples: kept_ms.len(),
        samples: latencies_ms.len(),
    }
}

/// Cut a stream of completions into slices of `width` seconds: completion
/// `i` landed `done_s[i]` seconds from the start and took `latencies_ms[i]`.
/// A trailing partial slice is dropped.
pub fn time_slices(done_s: &[f64], latencies_ms: &[f64], width: f64) -> Vec<Slice> {
    let n = (done_s.last().copied().unwrap_or(0.0) / width).floor().max(1.0) as usize;
    let mut slices: Vec<Slice> =
        (0..n).map(|_| Slice { seconds: width, ops: 0.0, latencies_ms: Vec::new() }).collect();
    for (&t, &latency) in done_s.iter().zip(latencies_ms) {
        if let Some(slice) = slices.get_mut((t / width) as usize) {
            slice.ops += 1.0;
            slice.latencies_ms.push(latency);
        }
    }
    slices.retain(|s| s.ops > 0.0);
    slices
}

/// Record the end-to-end figures and their coverage.
pub fn report_summary(out: &mut Outcome, s: &Summary, setup_s: f64) {
    out.metric("throughput_cps", s.throughput);
    out.metric("latency_p50_ms", s.p50_ms);
    out.metric("latency_p99_ms", s.p99_ms);
    out.metric("setup_s", setup_s);
    out.stamp.push(("slices_kept", format!("{} of {}", s.kept, s.slices)));
    out.stamp.push(("latency_p50_samples", s.p50_samples.to_string()));
    out.stamp.push(("latency_p99_samples", s.samples.to_string()));
}

/// `json` on one line.
pub fn one_line(json: &Json) -> String {
    json.render_pretty().lines().map(str::trim_start).collect::<Vec<_>>().join(" ")
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Total of a histogram in the obs snapshot, in ms (0 when absent).
pub fn hist_ms(snapshot: &ObsSnapshot, name: &str) -> f64 {
    snapshot.histogram(name).map_or(0.0, |h| h.mean_ns as f64 * h.count as f64 / 1e6)
}

pub fn hist_count(snapshot: &ObsSnapshot, name: &str) -> f64 {
    snapshot.histogram(name).map_or(0.0, |h| h.count as f64)
}

/// The assessed customer mix: three SQL DB customers to one SQL MI
/// customer (MI carries its file layout), at the paper's 14-day, 10-minute
/// defaults over every profiled dimension plus IO latency.
pub fn realistic_pool(seed: u64, n: usize, catalog: &Catalog) -> Vec<CloudCustomer> {
    let n_mi = n / 4;
    let db = PopulationSpec::sql_db(n - n_mi, seed);
    let mi = PopulationSpec::sql_mi(n_mi, seed ^ 0x5EED_0001);
    let (mut db, mut mi) = (db.stream_customers(catalog), mi.stream_customers(catalog));
    (0..n)
        .map(|i| {
            let next = if i % 4 == 3 { mi.next() } else { db.next() };
            next.or_else(|| db.next()).or_else(|| mi.next()).expect("pool sized to the cohorts")
        })
        .collect()
}

/// Customers per deployment in the migrated cohort the engines train on.
const TRAINING_COHORT: usize = 48;

/// The migrated cohorts (one per deployment) the engines train on: the
/// well-provisioned customers of a seeded population.
pub fn migrated_cohorts(
    seed: u64,
    catalog: &Catalog,
) -> Vec<(DeploymentType, Vec<TrainingRecord>)> {
    [
        (DeploymentType::SqlDb, PopulationSpec::sql_db(TRAINING_COHORT, seed ^ 0x7A1B)),
        (DeploymentType::SqlMi, PopulationSpec::sql_mi(TRAINING_COHORT, seed ^ 0x7A1C)),
    ]
    .into_iter()
    .map(|(deployment, spec)| {
        let records = spec
            .stream_customers(catalog)
            .filter(|c| !c.over_provisioned)
            .map(|c| TrainingRecord {
                history: c.history,
                chosen_sku: c.chosen_sku,
                file_layout: c.file_layout,
            })
            .collect();
        (deployment, records)
    })
    .collect()
}

/// The serving stack every workload sets up: a catalog provider and an
/// engine registry with both deployments' engines trained, through the
/// registry, on the migrated cohort.
pub struct Stack {
    pub registry: Arc<EngineRegistry>,
    pub routes: Vec<EngineRoute>,
}

/// Build the stack and warm it: every route's default key, plus `warm`,
/// is trained before this returns, so timing starts on a warm registry.
pub fn build_stack(
    provider: Arc<dyn CatalogProvider>,
    warm: &[CatalogKey],
    cohorts: &[(DeploymentType, Vec<TrainingRecord>)],
    obs: Option<&ObsRegistry>,
) -> Stack {
    let mut registry = EngineRegistry::new(provider);
    if let Some(obs) = obs {
        registry = registry.with_obs(obs);
    }
    let registry = Arc::new(registry);
    let routes: Vec<EngineRoute> = cohorts
        .iter()
        .map(|(deployment, records)| {
            EngineRoute::production(CatalogKey::production(*deployment))
                .trained(TrainingSet::new(records.clone()))
        })
        .collect();
    for route in &routes {
        let keys = std::iter::once(&route.default_key)
            .chain(warm.iter().filter(|k| k.deployment == route.default_key.deployment));
        for key in keys {
            registry
                .get_or_train_backend(
                    key,
                    &route.template,
                    &route.training,
                    &BackendSpec::Heuristic,
                )
                .unwrap_or_else(|e| panic!("warm {key}: {e}"));
        }
    }
    Stack { registry, routes }
}

/// Spawn a fleet service over the stack's (warm) registry.
pub fn spawn(stack: &Stack, config: FleetConfig, obs: Option<&ObsRegistry>) -> FleetService {
    let mut assessor = FleetAssessor::over_registry(Arc::clone(&stack.registry), config);
    for route in &stack.routes {
        assessor = assessor.with_route(route.clone());
    }
    if let Some(obs) = obs {
        assessor = assessor.with_obs(obs);
    }
    assessor.into_service()
}

pub fn production_provider() -> Arc<dyn CatalogProvider> {
    Arc::new(InMemoryCatalogProvider::production())
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Median wall time of [`SETUP_REPS`] runs of `setup` (each result is
/// dropped, which shuts its service down, outside the timed region).
pub fn median_setup_s<T>(mut setup: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let built = setup();
            let elapsed = t0.elapsed().as_secs_f64();
            drop(built);
            elapsed
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_keeps_the_fastest_slices_p99_keeps_every_sample() {
        // Three one-second slices at 10 ops/s and five slowed ones at
        // 5 ops/s; a few latency samples in a hundred are stalls.
        let slice = |ops: f64, ms: f64| Slice { seconds: 1.0, ops, latencies_ms: vec![ms; 2] };
        let mut slices: Vec<Slice> = (0..5).map(|_| slice(5.0, 200.0)).collect();
        slices.extend((0..3).map(|_| slice(10.0, 100.0)));
        let mut latencies = vec![200.0; 296];
        latencies.extend([900.0; 4]);
        let s = summarize(slices, 4, latencies);
        assert_eq!((s.kept, s.slices, s.p50_samples, s.samples), (2, 8, 4, 300));
        assert_eq!(s.throughput, 10.0);
        assert_eq!(s.p50_ms, 100.0);
        assert_eq!(s.p99_ms, 900.0);
    }

    #[test]
    fn one_line_keeps_the_document() {
        let json = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Num(1.5), Json::Str("x \"y\"".into())])),
            ("b".into(), Json::Obj(vec![("c".into(), Json::Bool(true))])),
        ]);
        let line = one_line(&json);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line), Ok(json));
    }

    #[test]
    fn time_slices_drop_the_partial_tail() {
        let s = time_slices(&[0.1, 0.4, 0.6, 0.9, 1.1], &[1.0, 2.0, 3.0, 4.0, 5.0], 0.5);
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].ops, 2.0);
        assert_eq!(s[1].latencies_ms, [3.0, 4.0]);
    }

    #[test]
    fn pool_mixes_three_db_to_one_mi() {
        let catalog = doppler_bench::backtest::catalog();
        let pool = realistic_pool(3, 8, &catalog);
        let mi = pool.iter().filter(|c| c.deployment == DeploymentType::SqlMi).count();
        assert_eq!(mi, 2);
        assert!(pool[3].file_layout.is_some());
    }
}
