//! `assess_confidence` and `assess_fleet`: realistic customers through the
//! fleet service, every result checked against a serial pipeline oracle.
//!
//! * `assess_confidence` — the DMA user's request: confidence bootstrap on
//!   (30 one-week windows), closed loop with one request in flight per
//!   worker.
//! * `assess_fleet` — the operator's pass: confidence off, the in-flight
//!   window equal to the queue depth (full backpressure), results not kept,
//!   and a dashboard `report_snapshot()` every [`SNAPSHOT_EVERY`]
//!   completions.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use doppler_catalog::DeploymentType;
use doppler_core::{
    ConfidenceConfig, DopplerEngine, EngineTemplate, RecommendationBackend, TrainingRecord,
};
use doppler_dma::SkuRecommendationPipeline;
use doppler_fleet::{customer_request, FleetConfig, FleetRequest, FleetResult, FleetService};
use doppler_obs::ObsRegistry;

use crate::common::{
    build_stack, hist_ms, median_setup_s, migrated_cohorts, ms, production_provider,
    realistic_pool, report_summary, spawn, summarize, time_slices, Outcome, Stack,
};
use crate::trace::Recorder;
use crate::{replica, Run};

const SNAPSHOT_EVERY: u64 = 256;
/// Width of the wall-time slices throughput and the median latency are
/// taken from, and the share of them kept (see `summarize`): the fastest
/// tenth, about 2 s of a 20 s run. The machine's slow stretches last a few
/// seconds, and over every sample the median moved by up to a quarter
/// from run to run.
const SLICE_S: f64 = 0.5;
const KEEP: usize = 10;
/// Seconds each service is driven, checked but not measured, before its
/// measured drive: its first requests pay one-off costs (first-touch page
/// faults, cold caches) for up to about a second, which is more than the
/// 1% of a run's samples that sets the p99.
const WARMUP_S: f64 = 2.0;
/// Turns each side (untraced, traced) takes in the traced run.
const TRACE_TURNS: usize = 3;

#[derive(Clone, Copy)]
pub struct Mode {
    pub confidence: bool,
}

impl Mode {
    /// Distinct customers, cycled through for the whole run (the oracle
    /// assesses each once). In the closed loop a latency is one customer's
    /// own cost, so the p99 is set by the pool's slowest few percent of
    /// customers: the pool is large enough that a seed's draw of them does
    /// not move it.
    fn pool_size(self) -> usize {
        if self.confidence {
            512
        } else {
            256
        }
    }

    fn config(self, workers: usize) -> FleetConfig {
        let mut config = FleetConfig::with_workers(workers);
        config.keep_results = self.confidence;
        config
    }

    /// Requests in flight at once: one per worker (closed loop) or the
    /// whole queue depth (streaming at full backpressure).
    fn window(self, config: &FleetConfig) -> usize {
        if self.confidence {
            config.workers
        } else {
            config.queue_depth
        }
    }
}

/// What the oracle (and the replica) decided for one pool entry.
#[derive(Debug, Clone, PartialEq)]
struct Decision {
    sku: Option<String>,
    cost_bits: Option<u64>,
    confidence_bits: Option<u64>,
}

impl Decision {
    fn of(rec: &doppler_core::Recommendation) -> Decision {
        Decision {
            sku: rec.sku_id.clone(),
            cost_bits: rec.monthly_cost.map(f64::to_bits),
            confidence_bits: rec.confidence.map(f64::to_bits),
        }
    }
}

struct Inputs {
    requests: Vec<FleetRequest>,
    cohorts: Vec<(DeploymentType, Vec<TrainingRecord>)>,
}

fn generate(run: &Run, mode: Mode) -> Inputs {
    let catalog = doppler_bench::backtest::catalog();
    let confidence = mode.confidence.then(ConfidenceConfig::default);
    let requests = realistic_pool(run.seed, mode.pool_size(), &catalog)
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let mut request = customer_request(c, confidence);
            request.request.instance_name = format!("cust-{i:04}");
            request
        })
        .collect();
    Inputs { requests, cohorts: migrated_cohorts(run.seed, &catalog) }
}

fn stack(inputs: &Inputs, obs: Option<&ObsRegistry>) -> Stack {
    build_stack(production_provider(), &[], &inputs.cohorts, obs)
}

/// The serial oracle: every distinct input assessed once through a
/// pipeline resolved from the same registry (so, the same engines).
fn oracle(stack: &Stack, inputs: &Inputs) -> Vec<Decision> {
    let pipelines: Vec<(DeploymentType, SkuRecommendationPipeline)> = stack
        .routes
        .iter()
        .map(|r| {
            let p = SkuRecommendationPipeline::from_registry(
                &stack.registry,
                &r.default_key,
                &EngineTemplate::production(),
                &r.training,
            )
            .expect("warm registry resolves");
            (r.default_key.deployment, p)
        })
        .collect();
    inputs
        .requests
        .iter()
        .map(|r| {
            let (_, pipeline) =
                pipelines.iter().find(|(d, _)| *d == r.deployment).expect("route per deployment");
            Decision::of(&pipeline.assess(&r.request).recommendation)
        })
        .collect()
}

#[derive(Default)]
struct Drive {
    submitted: u64,
    refused: u64,
    completed: u64,
    failed: u64,
    mismatches: Vec<String>,
    latencies_ms: Vec<f64>,
    /// When each completion landed, seconds from the start.
    done_s: Vec<f64>,
    elapsed: Duration,
    submit: Duration,
    snapshot: Duration,
    shutdown: Duration,
}

impl Drive {
    fn throughput(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64()
    }

    /// Fold another drive's counts and times in (per-completion samples
    /// are kept only by single drives).
    fn absorb(&mut self, d: Drive) {
        self.submitted += d.submitted;
        self.refused += d.refused;
        self.completed += d.completed;
        self.failed += d.failed;
        self.elapsed += d.elapsed;
        self.submit += d.submit;
        self.snapshot += d.snapshot;
    }
}

/// Stream the pool round-robin through `service` for `seconds`, keeping
/// `window` requests in flight, then drain. Every result is checked
/// against the oracle as it lands.
fn drive(
    service: &FleetService,
    inputs: &Inputs,
    expected: &[Decision],
    window: usize,
    seconds: f64,
    snapshots: bool,
) -> Drive {
    let (tx, rx) = mpsc::channel::<FleetResult>();
    let pool = inputs.requests.len();
    let mut d = Drive::default();
    // Submission instants, by submission order (service index - base).
    let mut sent_at: Vec<Instant> = Vec::new();
    let mut base: Option<usize> = None;
    let mut in_flight = 0usize;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut last_snapshot_size = 0usize;
    loop {
        while in_flight < window && Instant::now() < deadline {
            let request = inputs.requests[sent_at.len() % pool].clone();
            let t0 = Instant::now();
            let submitted = service.submit_with_reply(request, tx.clone());
            d.submit += t0.elapsed();
            match submitted {
                Ok(index) => {
                    base.get_or_insert(index);
                    sent_at.push(t0);
                    in_flight += 1;
                    d.submitted += 1;
                }
                Err(_) => {
                    d.refused += 1;
                    break;
                }
            }
        }
        if in_flight == 0 {
            break;
        }
        let result = rx.recv().expect("the service answers every accepted request");
        let done = Instant::now();
        in_flight -= 1;
        d.completed += 1;
        let k = result.index - base.expect("a submission preceded every result");
        d.latencies_ms.push(ms(done - sent_at[k]));
        d.done_s.push((done - start).as_secs_f64());
        match &result.outcome {
            Ok(assessed) => {
                let got = Decision::of(&assessed.recommendation);
                if got != expected[k % pool] && d.mismatches.len() < 8 {
                    d.mismatches.push(format!(
                        "{}: service {:?} != oracle {:?}",
                        result.instance_name,
                        got,
                        expected[k % pool]
                    ));
                }
            }
            Err(e) => {
                d.failed += 1;
                if d.mismatches.len() < 8 {
                    d.mismatches.push(format!("{} failed: {}", result.instance_name, e.message));
                }
            }
        }
        if snapshots && d.completed % SNAPSHOT_EVERY == 0 {
            let t0 = Instant::now();
            let report = service.report_snapshot();
            d.snapshot += t0.elapsed();
            if report.fleet_size < last_snapshot_size {
                d.mismatches.push("dashboard snapshot went backwards".into());
            }
            last_snapshot_size = report.fleet_size;
        }
        d.elapsed = done - start;
    }
    d
}

/// What one workload run holds fixed across its service turns.
struct Bench<'a> {
    inputs: &'a Inputs,
    expected: &'a [Decision],
    mode: Mode,
    config: FleetConfig,
}

impl Bench<'_> {
    /// Drive a fresh service over `stack` (its registry is warm, so
    /// spawning trains nothing) through its warm-up and then for
    /// `seconds`, shut it down and check it. Returns the measured drive.
    /// With `obs`, the service's histograms include the warm-up.
    fn turn(
        &self,
        out: &mut Outcome,
        phase: &'static str,
        stack: &Stack,
        obs: Option<&ObsRegistry>,
        seconds: f64,
    ) -> Drive {
        let service = spawn(stack, self.config, obs);
        let window = self.mode.window(&self.config);
        let snapshots = !self.mode.confidence;
        let warm = drive(&service, self.inputs, self.expected, window, WARMUP_S, snapshots);
        let mut d = drive(&service, self.inputs, self.expected, window, seconds, snapshots);
        let t0 = Instant::now();
        let report = service.shutdown();
        d.shutdown = t0.elapsed();
        phase_of(out, "warmup", &warm);
        for drive in [&warm, &d] {
            for m in &drive.mismatches {
                out.problems.push(format!("{phase}: {m}"));
            }
            out.check(drive.completed == drive.submitted, || {
                format!("{phase}: {} of {} submissions answered", drive.completed, drive.submitted)
            });
        }
        let submitted = warm.submitted + d.submitted;
        out.check(report.fleet_size as u64 == submitted, || {
            format!("{phase}: report.fleet_size {} != {submitted} submitted", report.fleet_size)
        });
        d
    }
}

fn phase_of(out: &mut Outcome, phase: &'static str, d: &Drive) {
    out.phase(phase, d.submitted + d.refused, d.failed + d.refused);
}

pub fn run(run: &Run, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let inputs = generate(run, mode);
    let generate_s = t0.elapsed().as_secs_f64();
    let config = mode.config(run.workers);
    out.stamp.push(("generate_s", generate_s.to_string()));
    out.stamp.push(("pool", inputs.requests.len().to_string()));
    out.stamp.push(("window", mode.window(&config).to_string()));

    let setup_s = median_setup_s(|| {
        let stack = stack(&inputs, None);
        let service = spawn(&stack, config, None);
        (stack, service)
    });
    let plain = stack(&inputs, None);
    let expected = oracle(&plain, &inputs);
    out.phase("oracle", expected.len() as u64, 0);
    let bench = Bench { inputs: &inputs, expected: &expected, mode, config };

    if !run.trace {
        let d = bench.turn(&mut out, "assess", &plain, None, run.seconds);
        phase_of(&mut out, "assess", &d);
        let slices = time_slices(&d.done_s, &d.latencies_ms, SLICE_S);
        let s = summarize(slices, KEEP, d.latencies_ms);
        report_summary(&mut out, &s, setup_s);
        return out;
    }

    // Traced run. Untraced services and services recording into the obs
    // registry take turns on the same inputs, so a change in the machine's
    // load hits both sides alike; then the replica runs every input once.
    let obs = ObsRegistry::enabled();
    let traced_stack = stack(&inputs, Some(&obs));
    let (mut untraced, mut traced) = (Drive::default(), Drive::default());
    let slice = run.seconds / (2 * TRACE_TURNS) as f64;
    for _ in 0..TRACE_TURNS {
        untraced.absorb(bench.turn(&mut out, "untraced", &plain, None, slice));
        let d = bench.turn(&mut out, "traced", &traced_stack, Some(&obs), slice);
        traced.shutdown += d.shutdown;
        traced.absorb(d);
    }
    phase_of(&mut out, "untraced", &untraced);
    phase_of(&mut out, "traced", &traced);
    let snapshot = obs.snapshot();
    out.metric("fleet.submit_ms", ms(traced.submit));
    out.metric("fleet.queue_wait_ms", hist_ms(&snapshot, "fleet.stage.queue_wait"));
    out.metric("fleet.aggregate_ms", hist_ms(&snapshot, "fleet.stage.aggregate"));
    out.metric("fleet.snapshot_ms", ms(traced.snapshot));
    out.metric("fleet.shutdown_ms", ms(traced.shutdown));
    crate::registry_metrics(&traced_stack.registry, &snapshot, 1, &mut out);

    let mut rec = Recorder::new();
    let confidence = mode.confidence.then(ConfidenceConfig::default);
    let engines: Vec<(DeploymentType, Arc<dyn RecommendationBackend>)> = traced_stack
        .routes
        .iter()
        .map(|r| {
            let backend = traced_stack
                .registry
                .get_or_train(&r.default_key, &EngineTemplate::production(), &r.training)
                .expect("warm registry resolves");
            (r.default_key.deployment, backend)
        })
        .collect();
    let t_replica = Instant::now();
    let mut disagree = 0u64;
    for (i, request) in inputs.requests.iter().enumerate() {
        let (_, backend) = engines.iter().find(|(d, _)| *d == request.deployment).expect("route");
        let engine =
            backend.as_any().downcast_ref::<DopplerEngine>().expect("heuristic engine routes");
        let decided = replica::assess(
            &mut rec,
            engine,
            i as u32,
            &request.request.input.instance,
            &request.request.input.file_sizes_gib,
            confidence.as_ref(),
        );
        // The service's decisions all equalled the oracle's (checked per
        // result above), so replica == oracle means replica == service.
        if Decision::of(&decided) != expected[i] {
            disagree += 1;
            out.problems.push(format!("replica != service for {}", request.request.instance_name));
        }
    }
    let replica_s = t_replica.elapsed().as_secs_f64();
    out.phase("replica", inputs.requests.len() as u64, disagree);
    replica::layer_metrics(&rec, &mut out);
    out.metric("trace.untraced_cps", untraced.throughput());
    out.metric("trace.traced_cps", traced.throughput());
    out.metric("trace.overhead_pct", 100.0 * (1.0 - traced.throughput() / untraced.throughput()));
    out.metric("trace.replica_cps", inputs.requests.len() as f64 / replica_s);
    out.metric("workload.generate_s", generate_s);
    crate::write_spans(run, &rec, &mut out);
    out
}
