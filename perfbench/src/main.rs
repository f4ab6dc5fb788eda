//! The repository benchmark: one command, a named workload, inputs made
//! from a seed, outputs checked, one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload assess_confidence --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --list   # inventory
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` drives the same
//! inputs through the service with the obs registry on and through a
//! span-recorded replica of the assess path, and reports the per-layer
//! metrics (spans are written to `.perfbench_out/`). The last stdout line
//! is `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//!
//! Load comes from this one process: the main thread generates and
//! submits, and the service runs `PERFBENCH_WORKERS` worker threads
//! (default: every core). Debug builds and worker totals above the core
//! count are refused.

mod assess;
mod common;
mod inventory;
mod lifecycle;
mod replica;
mod table4;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{nproc, one_line, peak_rss_mib, Outcome};
use doppler_core::EngineRegistry;
use doppler_dma::json::Json;
use doppler_obs::ObsSnapshot;

/// One run's parameters.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Service worker threads (one shard).
    pub workers: usize,
}

const SHARDS: usize = 1;
const OUT_DIR: &str = ".perfbench_out";

fn usage() -> String {
    let names: Vec<&str> = inventory::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --list",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(inventory::RUN_SECONDS),
        trace: false,
        workers: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !inventory::WORKLOADS.iter().any(|w| w.name == run.workload) {
        return Err(format!("unknown workload {:?}", run.workload));
    }
    if run.seconds.is_nan() || run.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(run)
}

/// The commit the benchmark was built from, read from `.git` when the
/// checkout has one.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `core.registry.*` from one registry and the obs snapshot shared by the
/// `registries` registries the traced run built (training time is
/// reported per registry).
pub fn registry_metrics(
    registry: &EngineRegistry,
    snapshot: &ObsSnapshot,
    registries: usize,
    out: &mut Outcome,
) {
    let s = registry.stats();
    let resolves = s.hits + s.coalesced + s.misses + s.failures;
    let train_ms = common::hist_ms(snapshot, "registry.train_latency") / registries as f64;
    out.metric("core.registry.trainings", s.misses as f64);
    out.metric("core.registry.train_ms", train_ms);
    out.metric("core.registry.hit_ratio", s.hits as f64 / resolves.max(1) as f64);
    out.metric("core.registry.retirements", s.retirements as f64);
}

/// Write the traced run's spans to `.perfbench_out/`.
pub fn write_spans(run: &Run, rec: &trace::Recorder, out: &mut Outcome) {
    let path =
        PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", run.workload, run.seed));
    match rec.write_jsonl(&path) {
        Ok(()) => out.stamp.push(("spans_file", path.display().to_string())),
        Err(e) => out.problems.push(format!("writing {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--list"] {
        print!("{}", inventory::render_text());
        return ExitCode::SUCCESS;
    }
    let mut run = match parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    // Guards: measure optimised code only, and never oversubscribe.
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let cores = nproc();
    run.workers = match std::env::var("PERFBENCH_WORKERS") {
        Ok(v) => match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("PERFBENCH_WORKERS must be a positive integer, not {v:?}");
                return ExitCode::from(2);
            }
        },
        Err(_) => cores,
    };
    if run.workers * SHARDS > cores {
        eprintln!("refusing {} worker threads on {cores} cores", run.workers * SHARDS);
        return ExitCode::from(2);
    }

    let mut outcome = match run.workload.as_str() {
        "assess_confidence" => assess::run(&run, assess::Mode { confidence: true }),
        "assess_fleet" => assess::run(&run, assess::Mode { confidence: false }),
        "fleet_lifecycle" => lifecycle::run(&run),
        "paper_table4" => table4::run(&run),
        _ => unreachable!("validated by parse"),
    };

    let attempted: u64 = outcome.phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = outcome.phases.iter().map(|p| p.failed).sum();
    if attempted == 0 {
        eprintln!("the run attempted no operations");
        return ExitCode::from(1);
    }
    for p in &outcome.phases {
        println!(
            "phase {:<14} attempted {:>8}  succeeded {:>8}  failed {:>4}",
            p.name, p.attempted, p.succeeded, p.failed
        );
    }
    println!("failed_share {} ({failed} of {attempted})", failed as f64 / attempted as f64);

    let (wanted, kind) = if run.trace {
        (inventory::PER_LAYER, "per-layer")
    } else {
        outcome.metric("peak_rss_mib", peak_rss_mib());
        (inventory::END_TO_END, "end-to-end")
    };
    let mut metrics = Vec::new();
    for m in wanted {
        let value = outcome.metrics.iter().find(|(n, _)| *n == m.name).map(|&(_, v)| v);
        let value = match value {
            Some(v) if v.is_finite() && (run.trace || v > 0.0) => v,
            // Per-layer metrics a workload does not exercise read 0.
            None if run.trace => 0.0,
            other => {
                eprintln!("{kind} metric {} is {other:?}", m.name);
                return ExitCode::from(1);
            }
        };
        let metric =
            vec![("value".into(), Json::Num(value)), ("unit".into(), Json::Str(m.unit.into()))];
        metrics.push((m.name.to_string(), Json::Obj(metric)));
    }

    let mut stamp = vec![
        ("workload", run.workload.clone()),
        ("seed", run.seed.to_string()),
        ("seconds", run.seconds.to_string()),
        ("trace", u8::from(run.trace).to_string()),
        ("nproc", cores.to_string()),
        ("workers", run.workers.to_string()),
        ("shards", SHARDS.to_string()),
        ("build_profile", "release".to_string()),
        ("git_revision", git_revision()),
    ];
    stamp.append(&mut outcome.stamp);
    let stamp_json = one_line(&Json::Obj(
        stamp.into_iter().map(|(k, v)| (k.to_string(), Json::Str(v))).collect(),
    ));
    println!("stamp {stamp_json}");
    let stamp_path = PathBuf::from(OUT_DIR).join(format!(
        "run-{}-seed{}-trace{}.json",
        run.workload,
        run.seed,
        u8::from(run.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&stamp_path, &stamp_json))
    {
        outcome.problems.push(format!("writing {}: {e}", stamp_path.display()));
    }

    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    // The counts are written as integers (`Json` writes every number as a
    // double).
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        outcome.problems.is_empty(),
        one_line(&Json::Obj(metrics))
    );
    ExitCode::SUCCESS
}
