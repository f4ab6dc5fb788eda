//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p doppler-bench --release --bin reproduce -- all
//! cargo run -p doppler-bench --release --bin reproduce -- table5 --cohort 1200 --seed 7
//! cargo run -p doppler-bench --release --bin reproduce -- list
//! cargo run -p doppler-bench --release --bin reproduce -- golden
//! ```
//!
//! Every experiment is deterministic in `--seed`; `--cohort` trades
//! fidelity for runtime. The selected experiments run concurrently on
//! every CPU and print in registry order; at the defaults the full set
//! takes 7–10 s of wall time on 2 CPUs (release build).
//!
//! `golden` rewrites `crates/bench/golden/<id>.txt` for every experiment
//! at `GOLDEN_SCALE` (whatever `--cohort`/`--seed` say). The unit test
//! below compares each runner's output with its file byte for byte, so a
//! change that moves a golden must say which rows moved and why.
//!
//! `golden/full_scale.txt` pins `all` at the default scale, minus the
//! `completed in` timing lines; the release CI job diffs against it. It
//! is rewritten with
//!
//! ```text
//! cargo run -p doppler-bench --release --bin reproduce -- all \
//!   | grep -v '^([a-z0-9_]* completed in [0-9.]*s)$' > crates/bench/golden/full_scale.txt
//! ```

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use doppler_bench::experiments::{registry, ExperimentScale};
use doppler_bench::par::par_map;

/// The reduced scale every committed golden is captured at.
const GOLDEN_SCALE: ExperimentScale = ExperimentScale { cohort: 8, seed: 20 };

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, targets) = parse_args(&args).unwrap_or_else(|problem| usage(&problem));

    let all = registry();
    if targets.iter().any(|t| t == "list") {
        println!("available experiments:");
        for (id, description, _) in &all {
            println!("  {id:<10} {description}");
        }
        return;
    }
    if targets.iter().any(|t| t == "golden") {
        for (id, _, runner) in &all {
            let path = golden_dir().join(format!("{id}.txt"));
            std::fs::write(&path, runner(&GOLDEN_SCALE))
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        }
        println!(
            "wrote {} goldens at cohort={}, seed={} to {}",
            all.len(),
            GOLDEN_SCALE.cohort,
            GOLDEN_SCALE.seed,
            golden_dir().display()
        );
        return;
    }
    let run_all = targets.iter().any(|t| t == "all");
    let selected: Vec<_> =
        all.iter().filter(|(id, _, _)| run_all || targets.iter().any(|t| t == id)).collect();
    if selected.is_empty() {
        usage::<()>(&format!("unknown experiment(s): {targets:?} — try `list`"));
    }
    // The experiments are independent: run them concurrently, then print
    // each block in registry order.
    let outputs = par_map(&selected, |(_, _, runner)| {
        let started = std::time::Instant::now();
        (runner(&scale), started.elapsed())
    });
    for ((id, description, _), (output, took)) in selected.iter().zip(outputs) {
        println!("================================================================");
        println!("{description}   [{id}, cohort={}, seed={}]", scale.cohort, scale.seed);
        println!("================================================================");
        println!("{output}");
        println!("({id} completed in {:.1}s)\n", took.as_secs_f64());
    }
}

/// Split the command line into the scale and the named targets.
fn parse_args(args: &[String]) -> Result<(ExperimentScale, Vec<String>), String> {
    let mut scale = ExperimentScale::default();
    let mut targets = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cohort" | "--n" => {
                scale.cohort = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--cohort needs a positive number")?;
            }
            "--seed" => {
                scale.seed =
                    args.next().and_then(|v| v.parse().ok()).ok_or("--seed needs a number")?;
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        return Err("no experiment named".into());
    }
    Ok((scale, targets))
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

fn usage<T>(problem: &str) -> T {
    eprintln!("error: {problem}");
    eprintln!("usage: reproduce [all|list|golden|<experiment-id>...] [--cohort N] [--seed S]");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// Every registered experiment reproduces its committed golden byte
    /// for byte; a mismatch names the experiment and its first differing
    /// line. Regenerate with `reproduce golden`.
    #[test]
    fn every_experiment_matches_its_golden() {
        let mut mismatches = Vec::new();
        for (id, _, runner) in registry() {
            let path = golden_dir().join(format!("{id}.txt"));
            let want = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{id}: read {}: {e}", path.display()));
            let got = runner(&GOLDEN_SCALE);
            if got != want {
                let (got, want): (Vec<&str>, Vec<&str>) =
                    (got.split('\n').collect(), want.split('\n').collect());
                let n = (0..).find(|&n| got.get(n) != want.get(n)).expect("outputs differ");
                mismatches.push(format!(
                    "{id}: first difference at line {}\n  golden: {:?}\n  output: {:?}",
                    n + 1,
                    want.get(n),
                    got.get(n)
                ));
            }
        }
        assert!(mismatches.is_empty(), "goldens differ:\n{}", mismatches.join("\n"));
    }

    #[test]
    fn a_zero_cohort_is_a_usage_error() {
        assert!(parse_args(&args("all --cohort 0 --seed 1")).is_err());
        assert!(parse_args(&args("table1 --cohort x")).is_err());
        assert!(parse_args(&args("--seed 3")).is_err(), "no experiment named");
        let (scale, targets) = parse_args(&args("table1 --cohort 8 --seed 20")).unwrap();
        assert_eq!((scale.cohort, scale.seed, targets), (8, 20, vec!["table1".to_string()]));
    }
}
