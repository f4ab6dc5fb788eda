//! Ablation benches for the estimation choices the engine makes:
//!
//! * joint vs independence-approximated throttling probability (why Eq. 1
//!   is estimated jointly on time-aligned samples),
//! * the thresholding ρ sensitivity sweep the paper alludes to,
//! * bootstrap replicate-count stability.
//!
//! These print their ablation findings once per run (criterion benches
//! measure the runtime cost alongside).

use criterion::{criterion_group, criterion_main, Criterion};
use doppler_catalog::{azure_paas_catalog, CatalogSpec, DeploymentType};
use doppler_core::{throttling_probability, NegotiabilityStrategy};
use doppler_telemetry::PerfDimension;
use doppler_workload::{generate, WorkloadArchetype};

/// The independence approximation Eq. 1 deliberately avoids: combine
/// per-dimension exceedance fractions as `1 - prod(1 - p_d)`.
fn independent_approximation(
    history: &doppler_telemetry::PerfHistory,
    caps: &doppler_catalog::ResourceCaps,
) -> f64 {
    let breakdown = doppler_core::ThrottleBreakdown::compute(history, caps);
    1.0 - breakdown.per_dimension.iter().map(|&(_, p)| 1.0 - p).product::<f64>()
}

fn bench_joint_vs_independent(c: &mut Criterion) {
    let cat = azure_paas_catalog(&CatalogSpec::default());
    let sku = cat.for_deployment(DeploymentType::SqlDb)[4].clone();
    // A workload whose CPU and IOPS spike *together* (OLTP bursts): the
    // independence assumption over-counts the union.
    let history = generate(&WorkloadArchetype::BurstyIo.spec(10.0, 14.0), 3);
    let joint = throttling_probability(&history, &sku.caps);
    let indep = independent_approximation(&history, &sku.caps);
    println!(
        "[ablation:joint-estimator] joint P = {joint:.4}, independence approximation = {indep:.4} \
         (correlated spikes make the union smaller than independence predicts)"
    );
    c.bench_function("throttling_joint", |b| {
        b.iter(|| throttling_probability(std::hint::black_box(&history), &sku.caps))
    });
    c.bench_function("throttling_independent_approx", |b| {
        b.iter(|| independent_approximation(std::hint::black_box(&history), &sku.caps))
    });
}

fn bench_rho_sensitivity(c: &mut Criterion) {
    // Sweep ρ and report how the negotiability verdicts move — the paper's
    // "sensitivity analyses were conducted to better tune the ρ threshold".
    let spiky = generate(&WorkloadArchetype::SpikyCpu.spec(8.0, 14.0), 5);
    let steady = generate(&WorkloadArchetype::MemoryHeavy.spec(8.0, 14.0), 5);
    print!("[ablation:rho-sweep] rho ->");
    for rho in [0.005, 0.01, 0.02, 0.05, 0.08, 0.12, 0.20] {
        let s = NegotiabilityStrategy::Thresholding { rho };
        let spiky_bit = s.dimension_profile(spiky.values(PerfDimension::Cpu).unwrap()).1;
        let steady_bit = s.dimension_profile(steady.values(PerfDimension::Memory).unwrap()).1;
        print!(
            " {rho}:{}{}",
            if spiky_bit { "S" } else { "-" },
            if steady_bit { "M" } else { "-" }
        );
    }
    println!("  (S = spiky CPU negotiable, M = saturated memory negotiable; the useful band keeps S without M)");
    let s = NegotiabilityStrategy::production();
    c.bench_function("thresholding_bit_14d", |b| {
        b.iter(|| {
            s.dimension_profile(std::hint::black_box(spiky.values(PerfDimension::Cpu).unwrap())).1
        })
    });
}

criterion_group!(benches, bench_joint_vs_independent, bench_rho_sensitivity);
criterion_main!(benches);
