//! A replica of the assess path built from the public layer functions, in
//! the pipeline's order, each call inside a span:
//!
//! 1. `NegotiabilityStrategy::weights` / `bits` (`core.profile`, or
//!    `core.profile.stl` under the STL strategy);
//! 2. `DopplerEngine::curve_for` (`core.curve`, plus the sample x SKU pair
//!    count);
//! 3. `DopplerEngine::recommend` (`core.recommend`; the match layer is its
//!    time minus steps 1 and 2, which it repeats internally);
//! 4. `confidence_score` (`core.confidence`), whose per-window recommend
//!    calls run steps 1-3 inside `core.confidence.window` child spans;
//! 5. `ResourceUseReport::build` (`dma.report`).
//!
//! The replica's decisions must equal the service's.

use std::collections::BTreeMap;
use std::hint::black_box;

use doppler_catalog::{DeploymentType, FileLayout};
use doppler_core::{
    confidence_score, ConfidenceConfig, DopplerEngine, NegotiabilityStrategy, Recommendation,
};
use doppler_dma::ResourceUseReport;
use doppler_telemetry::PerfHistory;

use crate::common::Outcome;
use crate::trace::{LayerTotal, Recorder};

fn profile_span(engine: &DopplerEngine) -> &'static str {
    match engine.config().negotiability {
        NegotiabilityStrategy::StlVarianceDecomposition { .. } => "core.profile.stl",
        _ => "core.profile",
    }
}

/// Steps 1-3 for one history.
pub fn recommend(
    rec: &mut Recorder,
    engine: &DopplerEngine,
    owner: u32,
    history: &PerfHistory,
    layout: Option<&FileLayout>,
) -> Recommendation {
    let dims = engine.dims();
    let strategy = engine.config().negotiability;
    let span = rec.open(profile_span(engine), owner);
    black_box((strategy.weights(history, dims), strategy.bits(history, dims)));
    rec.close(span);
    let profile_ns = rec.duration_ns(span);
    let span = rec.open("core.curve", owner);
    let (curve, _) = engine.curve_for(history, layout);
    rec.close(span);
    let curve_ns = rec.duration_ns(span);
    rec.add("core.curve.pairs", (history.len() * curve.len()) as f64);
    let span = rec.open("core.recommend", owner);
    let recommendation = engine.recommend(history, layout);
    rec.close(span);
    // recommend() repeats profile + curve internally; the rest is the match
    // layer (grouping assign, select, classify, breakdown, explain).
    let match_ns = rec.duration_ns(span) as f64 - profile_ns as f64 - curve_ns as f64;
    rec.add("core.match.ns", match_ns);
    recommendation
}

/// The whole assess path for one customer, inside a `customer` root span.
pub fn assess(
    rec: &mut Recorder,
    engine: &DopplerEngine,
    owner: u32,
    history: &PerfHistory,
    file_sizes_gib: &[f64],
    confidence: Option<&ConfidenceConfig>,
) -> Recommendation {
    let root = rec.open("customer", owner);
    let layout = (engine.config().deployment == DeploymentType::SqlMi
        && !file_sizes_gib.is_empty())
    .then(|| FileLayout::from_sizes(file_sizes_gib));
    let mut recommendation = recommend(rec, engine, owner, history, layout.as_ref());
    if let (Some(config), Some(original)) = (confidence, recommendation.sku_id.clone()) {
        let span = rec.open("core.confidence", owner);
        let score = confidence_score(history, &original, config, |window| {
            let w = rec.open("core.confidence.window", owner);
            let sku = recommend(rec, engine, owner, window, layout.as_ref()).sku_id;
            rec.close(w);
            sku
        });
        rec.close(span);
        recommendation.confidence = Some(score);
    }
    rec.time("dma.report", owner, || black_box(ResourceUseReport::build(history, &recommendation)));
    rec.close(root);
    recommendation
}

fn self_ms(totals: &BTreeMap<&'static str, LayerTotal>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6)
}

fn calls(totals: &BTreeMap<&'static str, LayerTotal>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.calls as f64)
}

/// Fold the recorder's spans into the `core.*` / `dma.*` per-layer metrics.
pub fn layer_metrics(rec: &Recorder, out: &mut Outcome) {
    let t = rec.totals();
    out.metric("core.curve.calls", calls(&t, "core.curve"));
    out.metric("core.curve.self_ms", self_ms(&t, "core.curve"));
    out.metric("core.curve.pairs", rec.count("core.curve.pairs"));
    out.metric("core.confidence.windows", calls(&t, "core.confidence.window"));
    out.metric("core.confidence.self_ms", self_ms(&t, "core.confidence"));
    out.metric("core.profile.calls", calls(&t, "core.profile") + calls(&t, "core.profile.stl"));
    out.metric(
        "core.profile.self_ms",
        self_ms(&t, "core.profile") + self_ms(&t, "core.profile.stl"),
    );
    out.metric("core.profile.stl_ms", self_ms(&t, "core.profile.stl"));
    out.metric("core.grouping.fit_ms", self_ms(&t, "core.grouping.fit"));
    out.metric("core.match.self_ms", (rec.count("core.match.ns") / 1e6).max(0.0));
    out.metric("dma.report.self_ms", self_ms(&t, "dma.report"));
    out.metric("trace.spans", rec.spans().len() as f64);
}
