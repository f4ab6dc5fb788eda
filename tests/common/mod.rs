//! Fixtures shared by the integration suites, each defined once: the
//! deployment table [`CONFIGS`] and [`sweep`], which checks a scenario under
//! every row against the suite's serial oracle; the registry-backed
//! assessor every row deploys ([`Config::assessor`]) and the untrained SQL
//! DB route it usually serves; the three-region catalog provider; the flat
//! ten-minute telemetry window; the production catalog and the untrained
//! SQL DB engine serial oracles call directly; and the training-record
//! builders.
//!
//! A suite pulls in what it needs with `mod common;`.

// Each suite uses a different subset.
#![allow(dead_code)]

use std::fmt::Debug;
use std::sync::Arc;

use doppler::dma::preprocess::PreprocessedInstance;
use doppler::fleet::{FleetResult, ServiceProgress};
use doppler::prelude::*;

/// One deployment of the fleet service: the workers its pool runs, and
/// whether instrumentation records into a live [`ObsRegistry`]. No
/// business output may depend on either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    pub workers: usize,
    pub obs: bool,
}

/// The deployments every determinism suite runs its scenario under.
/// Together the rows cover workers 1/4/8 and obs off and on; the first
/// row is [`Config::SERIAL`].
pub const CONFIGS: [Config; 3] = [
    Config { workers: 1, obs: false },
    Config { workers: 4, obs: true },
    Config { workers: 8, obs: false },
];

impl Config {
    /// One worker, obs off: the deployment oracles run under.
    pub const SERIAL: Config = CONFIGS[0];

    /// An assessor under this config over a fresh production-catalog
    /// registry, serving `route`.
    pub fn assessor(self, route: EngineRoute) -> FleetAssessor {
        let registry = EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production()));
        self.over_registry(Arc::new(registry)).with_route(route)
    }

    /// An assessor under this config resolving through `registry`:
    /// recording into a fresh enabled obs registry when `obs` is on.
    pub fn over_registry(self, registry: Arc<EngineRegistry>) -> FleetAssessor {
        let config = FleetConfig::with_workers(self.workers);
        let assessor = FleetAssessor::over_registry(registry, config);
        if self.obs {
            assessor.with_obs(&ObsRegistry::enabled())
        } else {
            assessor
        }
    }
}

/// Run `run` under every [`CONFIGS`] row and assert each output equals
/// `oracle`; a failure names `what` and the config.
pub fn sweep<T: PartialEq + Debug>(what: &str, oracle: &T, mut run: impl FnMut(Config) -> T) {
    for config in CONFIGS {
        assert_eq!(run(config), *oracle, "{what} under {config:?}");
    }
}

/// The multi-region scenario: `(region, price multiplier)` at v1.
pub const REGIONS: [(&str, f64); 3] = [("global", 1.0), ("westeurope", 1.08), ("eastasia", 1.12)];

/// The region of cohort member `i`: round-robin over [`REGIONS`].
pub fn region_of(i: usize) -> &'static str {
    REGIONS[i % REGIONS.len()].0
}

/// The default Azure PaaS catalog.
pub fn catalog() -> Catalog {
    azure_paas_catalog(&CatalogSpec::default())
}

/// The untrained production SQL DB engine over [`catalog`].
pub fn engine() -> DopplerEngine {
    DopplerEngine::untrained(catalog(), EngineConfig::production(DeploymentType::SqlDb))
}

/// The untrained production SQL DB route: what [`engine`] is, resolved
/// through a registry.
pub fn sql_db_route() -> EngineRoute {
    EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb))
}

/// A provider holding one default catalog per `(region, price
/// multiplier)`, all at [`CatalogVersion::INITIAL`].
pub fn provider_over(regions: impl IntoIterator<Item = (Region, f64)>) -> InMemoryCatalogProvider {
    regions.into_iter().fold(InMemoryCatalogProvider::new(), |p, (region, multiplier)| {
        p.with_region(region, CatalogVersion::INITIAL, &CatalogSpec::default(), multiplier)
    })
}

/// The [`REGIONS`] provider.
pub fn provider() -> InMemoryCatalogProvider {
    provider_over(REGIONS.map(|(region, multiplier)| (Region::new(region), multiplier)))
}

/// `samples` ten-minute samples of constant CPU at `cpu` vCores and IO
/// latency at 6 ms.
pub fn flat_window(cpu: f64, samples: usize) -> PerfHistory {
    PerfHistory::new()
        .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; samples]))
        .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; samples]))
}

/// One instance on a day-long [`flat_window`], hosting `databases` (at
/// least one) databases named `{name}/db{d}`.
pub fn flat_request(name: &str, cpu: f64, databases: usize) -> AssessmentRequest {
    AssessmentRequest {
        instance_name: name.into(),
        input: PreprocessedInstance {
            instance: flat_window(cpu, 96),
            databases: (0..databases.max(1))
                .map(|d| (format!("{name}/db{d}"), PerfHistory::new()))
                .collect(),
            file_sizes_gib: vec![],
        },
        confidence: None,
    }
}

/// Every customer of a synthetic migrated cohort as a training record:
/// its history, the SKU it chose, and its file layout.
pub fn training_records(spec: &PopulationSpec) -> Vec<TrainingRecord> {
    spec.stream_customers(&catalog())
        .map(|c| TrainingRecord {
            history: c.history,
            chosen_sku: c.chosen_sku,
            file_layout: c.file_layout,
        })
        .collect()
}

/// `n` labelled records on `history(cpu)`, with CPU cycling through ten
/// levels: customers above 3 vCores chose `DB_GP_8`, the rest `DB_GP_2`.
pub fn labelled_training(n: usize, history: impl Fn(f64) -> PerfHistory) -> Vec<TrainingRecord> {
    (0..n)
        .map(|i| {
            let cpu = 0.2 + (i % 10) as f64 * 0.6;
            TrainingRecord {
                history: history(cpu),
                chosen_sku: SkuId(if cpu > 3.0 { "DB_GP_8" } else { "DB_GP_2" }.into()),
                file_layout: None,
            }
        })
        .collect()
}

/// Stream `fleet` through `service` one submission at a time, draining
/// finished results between submissions (the continuous-operation shape),
/// then close, drain and shut down. Returns the results in submission
/// order and the final report, after checking every ticket carried its
/// submission position (whichever worker served it) and every submission
/// completed.
pub fn stream(service: FleetService, fleet: &[FleetRequest]) -> (Vec<FleetResult>, FleetReport) {
    let mut tickets = TicketQueue::new();
    let mut results = Vec::new();
    for (i, request) in fleet.iter().enumerate() {
        let ticket = service.submit(request.clone()).unwrap_or_else(|_| unreachable!("open"));
        assert_eq!(ticket.index(), i, "ticket index is the submission position");
        tickets.push(ticket);
        while let Some(result) = tickets.try_next() {
            results.push(result);
        }
    }
    service.close();
    while let Some(result) = tickets.next_blocking() {
        results.push(result);
    }
    let n = fleet.len();
    assert_eq!(service.progress(), ServiceProgress { submitted: n, completed: n });
    (results, service.shutdown())
}

/// What an assessment decided for one instance: its name, the databases
/// assessed and the full recommendation.
pub type Decision = (String, usize, Recommendation);

pub fn decision(name: &str, result: &AssessmentResult) -> Decision {
    (name.to_string(), result.databases_assessed, result.recommendation.clone())
}

/// The [`Decision`] of every result, in order, for comparing runs whose
/// submission indices or ledger months differ. Panics on a failed outcome.
pub fn decisions(results: &[FleetResult]) -> Vec<Decision> {
    results
        .iter()
        .map(|r| decision(&r.instance_name, r.outcome.as_ref().expect("assessed")))
        .collect()
}

/// A comparable projection of one [`FleetResult`], which has no
/// `PartialEq`: every field, with the outcome split into the full
/// recommendation or the error message.
#[derive(Debug, PartialEq)]
pub struct Outcome {
    pub index: usize,
    pub name: String,
    pub deployment: DeploymentType,
    pub month: Option<String>,
    pub databases_assessed: Option<usize>,
    pub recommendation: Option<Recommendation>,
    pub error: Option<String>,
}

impl Outcome {
    pub fn of(result: &FleetResult) -> Outcome {
        let ok = result.outcome.as_ref().ok();
        Outcome {
            index: result.index,
            name: result.instance_name.to_string(),
            deployment: result.deployment,
            month: result.month.as_deref().map(str::to_string),
            databases_assessed: ok.map(|r| r.databases_assessed),
            recommendation: ok.map(|r| r.recommendation.clone()),
            error: result.outcome.as_ref().err().map(|e| e.message.clone()),
        }
    }
}

/// [`Outcome::of`] over a run's results, in order.
pub fn outcomes(results: &[FleetResult]) -> Vec<Outcome> {
    results.iter().map(Outcome::of).collect()
}
