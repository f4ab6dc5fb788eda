//! `paper_table4`: `experiments::tables::table4` at a reduced cohort — all
//! six negotiability strategies x SQL DB/MI under k-means grouping. The
//! only workload whose traffic reaches the STL/loess profile path.
//!
//! Runs alternate between the default seed, whose printed table must equal
//! the golden file kept beside this source, and the run's own seed, which
//! gets structural checks.
//!
//! The reproduction takes only a seed and a cohort size and makes its own
//! inputs, so the workload generates none; its set-up is what `table4`
//! builds before it trains: the catalog and the two cohorts.

use std::time::Instant;

use doppler_bench::backtest::catalog;
use doppler_bench::experiments::tables::table4;
use doppler_bench::experiments::ExperimentScale;
use doppler_catalog::DeploymentType;
use doppler_core::{
    DopplerEngine, EngineConfig, GroupingStrategy, NegotiabilityStrategy, TrainingRecord,
};
use doppler_workload::{CloudCustomer, PopulationSpec};

use crate::common::{median, median_setup_s, ms, report_summary, summarize, Outcome, Slice};
use crate::trace::Recorder;
use crate::{replica, Run};

/// Customers per deployment in the reduced reproduction: enough that the
/// well-provisioned training customers (about nine in ten) outnumber the
/// k-means groups (16 for SQL DB, 8 for SQL MI), so grouping clusters.
pub const COHORT: usize = 32;
/// The golden seed: at this cohort most seeds give all six strategies the
/// same row, and at this one the STL row differs from the rest on both
/// deployments, so the golden catches a change to the STL path alone.
pub const DEFAULT_SEED: u64 = 20;
const GOLDEN: &str = include_str!("../golden/table4_seed20.txt");
const STRATEGIES: usize = 6;
/// Throughput and the median are taken from the fastest quarter of the
/// run's reproductions (see `summarize`): with two or three, the fastest.
const KEEP: usize = 4;

/// Customers back-tested by one reproduction (every strategy, both
/// deployments).
fn customers_per_experiment() -> f64 {
    (STRATEGIES * 2 * COHORT) as f64
}

/// Structural check for seeds without a golden: the header, then one row
/// per strategy ending in two percentages.
fn structure_problem(table: &str) -> Option<String> {
    let lines: Vec<&str> = table.lines().collect();
    if lines.len() != 2 + STRATEGIES || !lines[0].starts_with("Table 4") {
        return Some(format!("table shape: {} lines", lines.len()));
    }
    for (row, (name, _)) in lines[2..].iter().zip(NegotiabilityStrategy::table4_lineup()) {
        let cells: Vec<&str> = row.split_whitespace().rev().take(2).collect();
        let ok = row.starts_with(name)
            && cells.len() == 2
            && cells.iter().all(|c| {
                c.strip_suffix('%')
                    .and_then(|v| v.parse::<f64>().ok())
                    .is_some_and(|v| (0.0..=100.0).contains(&v))
            });
        if !ok {
            return Some(format!("malformed row: {row}"));
        }
    }
    None
}

struct Reps {
    times_ms: Vec<f64>,
    failed: u64,
    /// The table printed for each seed.
    tables: Vec<Option<String>>,
}

/// Reproduce the table back to back for `seconds` (at least `min_reps`).
fn reproduce(seeds: &[u64], seconds: f64, min_reps: usize, out: &mut Outcome) -> Reps {
    let mut reps = Reps { times_ms: Vec::new(), failed: 0, tables: vec![None; seeds.len()] };
    let start = Instant::now();
    while reps.times_ms.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let slot = reps.times_ms.len() % seeds.len();
        let seed = seeds[slot];
        let scale = ExperimentScale { cohort: COHORT, seed };
        let t0 = Instant::now();
        let table = std::panic::catch_unwind(|| table4(&scale));
        reps.times_ms.push(ms(t0.elapsed()));
        let Ok(table) = table else {
            reps.failed += 1;
            out.problems.push(format!("table4 panicked at seed {seed}"));
            continue;
        };
        if seed == DEFAULT_SEED {
            out.check(table == GOLDEN, || {
                format!("table4 at seed {seed} differs from the golden:\n{table}")
            });
        } else if let Some(problem) = structure_problem(&table) {
            out.problems.push(problem);
        }
        match &reps.tables[slot] {
            Some(earlier) => out.check(earlier == &table, || "table4 is not deterministic".into()),
            None => reps.tables[slot] = Some(table),
        }
    }
    reps
}

/// What `table4` builds before its first training: the catalog and the
/// SQL DB and SQL MI cohorts.
fn setup(seed: u64) -> (Vec<CloudCustomer>, Vec<CloudCustomer>) {
    let cat = catalog();
    let db = PopulationSpec::sql_db(COHORT, seed).customers(&cat);
    let mi = PopulationSpec::sql_mi(COHORT, seed ^ 0xA5).customers(&cat);
    (db, mi)
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    out.stamp.push(("cohort", COHORT.to_string()));
    let setup_s = median_setup_s(|| setup(run.seed));

    if !run.trace {
        let reps = reproduce(&[DEFAULT_SEED, run.seed], run.seconds, 2, &mut out);
        let n = reps.times_ms.len() as u64;
        out.phase("table4_cells", n * 2 * STRATEGIES as u64, reps.failed * 2 * STRATEGIES as u64);
        out.stamp.push(("reproductions", n.to_string()));
        let slices = reps
            .times_ms
            .iter()
            .map(|&t| Slice {
                seconds: t / 1e3,
                ops: customers_per_experiment(),
                latencies_ms: vec![t],
            })
            .collect();
        let s = summarize(slices, KEEP, reps.times_ms);
        report_summary(&mut out, &s, setup_s);
        return out;
    }

    let reps = reproduce(&[run.seed], run.seconds / 3.0, 1, &mut out);
    let n = reps.times_ms.len() as u64;
    out.phase("table4_cells", n * 2 * STRATEGIES as u64, reps.failed * 2 * STRATEGIES as u64);
    let experiment_s = median(&reps.times_ms) / 1e3;
    out.metric("bench.table4.experiment_s", experiment_s);
    out.metric("trace.untraced_cps", customers_per_experiment() / experiment_s);

    // The traced run is the replica, which is other code than the
    // reproduction, so no tracing overhead is reported here.
    let mut rec = Recorder::new();
    let t_replica = Instant::now();
    let accuracies = replica_table(&mut rec, run.seed);
    let replica_s = t_replica.elapsed().as_secs_f64();
    // The replica's rows must be the reproduction's rows, in order.
    let reproduced = reps.tables[0].as_deref().unwrap_or_default();
    for (i, ((name, _), (db, mi))) in
        NegotiabilityStrategy::table4_lineup().iter().zip(&accuracies).enumerate()
    {
        let row = format!("{name:<50} {:>6.1}%  {:>6.1}%", db * 100.0, mi * 100.0);
        out.check(reproduced.lines().nth(2 + i) == Some(row.as_str()), || {
            format!("replica row {row:?} differs from the reproduced table")
        });
    }
    out.phase("replica_cells", 2 * STRATEGIES as u64, 0);
    replica::layer_metrics(&rec, &mut out);
    out.metric("trace.replica_cps", customers_per_experiment() / replica_s);
    crate::write_spans(run, &rec, &mut out);
    out
}

/// Table 4 rebuilt from the layer functions: per strategy and deployment,
/// profile the training cohort, fit the k-means grouping, train, then
/// recommend for every customer through the replica. Returns the (DB, MI)
/// accuracies per strategy.
fn replica_table(rec: &mut Recorder, seed: u64) -> Vec<(f64, f64)> {
    let cat = catalog();
    let (db, mi) = setup(seed);
    let mut cell = 0u32;
    NegotiabilityStrategy::table4_lineup()
        .into_iter()
        .map(|(_, strategy)| {
            let mut accuracy = |deployment, customers: &[CloudCustomer], k| {
                let config = EngineConfig {
                    deployment,
                    negotiability: strategy,
                    grouping: GroupingStrategy::KMeans { k, seed },
                    rates: Default::default(),
                };
                cell += 1;
                replica_cell(rec, cell, &cat, customers, config)
            };
            (accuracy(DeploymentType::SqlDb, &db, 16), accuracy(DeploymentType::SqlMi, &mi, 8))
        })
        .collect()
}

fn replica_cell(
    rec: &mut Recorder,
    cell: u32,
    cat: &doppler_catalog::Catalog,
    customers: &[CloudCustomer],
    config: EngineConfig,
) -> f64 {
    let records: Vec<TrainingRecord> = customers
        .iter()
        .filter(|c| !c.over_provisioned)
        .map(|c| TrainingRecord {
            history: c.history.clone(),
            chosen_sku: c.chosen_sku.clone(),
            file_layout: c.file_layout.clone(),
        })
        .collect();
    let dims = doppler_core::engine::profiled_dimensions(config.deployment);
    let train = rec.open("core.train", cell);
    let profile_name = match config.negotiability {
        NegotiabilityStrategy::StlVarianceDecomposition { .. } => "core.profile.stl",
        _ => "core.profile",
    };
    let (weights, bits): (Vec<Vec<f64>>, Vec<Vec<bool>>) = records
        .iter()
        .map(|r| {
            rec.time(profile_name, cell, || {
                (
                    config.negotiability.weights(&r.history, dims),
                    config.negotiability.bits(&r.history, dims),
                )
            })
        })
        .unzip();
    rec.time("core.grouping.fit", cell, || {
        std::hint::black_box(config.grouping.fit(&weights, &bits))
    });
    let engine =
        rec.time("core.train.engine", cell, || DopplerEngine::train(cat.clone(), config, &records));
    rec.close(train);
    let hits = customers
        .iter()
        .filter(|c| {
            let decided =
                replica::recommend(rec, &engine, cell, &c.history, c.file_layout.as_ref());
            decided.sku_id.as_deref() == Some(c.chosen_sku.0.as_str())
        })
        .count();
    hits as f64 / customers.len() as f64
}
