//! End-to-end integration: population → training → recommendation, across
//! every crate boundary.

mod common;

use common::catalog;
use doppler::prelude::*;
use doppler::workload::ShapeClass;

fn train_db(n: usize, seed: u64) -> (DopplerEngine, Vec<doppler::workload::CloudCustomer>) {
    let cat = catalog();
    let spec = PopulationSpec { days: 4.0, ..PopulationSpec::sql_db(n, seed) };
    let customers = spec.customers(&cat);
    let records: Vec<TrainingRecord> = customers
        .iter()
        .filter(|c| !c.over_provisioned)
        .map(|c| TrainingRecord {
            history: c.history.clone(),
            chosen_sku: c.chosen_sku.clone(),
            file_layout: None,
        })
        .collect();
    (
        DopplerEngine::train(cat, EngineConfig::production(DeploymentType::SqlDb), &records),
        customers,
    )
}

#[test]
fn trained_engine_beats_untrained_on_backtest() {
    let (engine, customers) = train_db(80, 5);
    let untrained = common::engine();
    let mut trained_hits = 0;
    let mut untrained_hits = 0;
    let mut scored = 0;
    for c in &customers {
        if c.over_provisioned {
            continue;
        }
        scored += 1;
        if engine.recommend(&c.history, None).sku_id.as_deref() == Some(c.chosen_sku.0.as_str()) {
            trained_hits += 1;
        }
        if untrained.recommend(&c.history, None).sku_id.as_deref() == Some(c.chosen_sku.0.as_str())
        {
            untrained_hits += 1;
        }
    }
    assert!(scored > 50);
    assert!(
        trained_hits > untrained_hits,
        "training must add accuracy: trained {trained_hits} vs untrained {untrained_hits} / {scored}"
    );
    assert!(
        trained_hits as f64 / scored as f64 > 0.7,
        "trained accuracy too low: {trained_hits}/{scored}"
    );
}

#[test]
fn latency_critical_workloads_get_business_critical() {
    let (engine, customers) = train_db(60, 9);
    let mut checked = 0;
    for c in customers.iter().filter(|c| c.latency_critical) {
        let rec = engine.recommend(&c.history, None);
        let sku = rec.sku_id.expect("recommendation exists");
        assert!(sku.contains("BC"), "latency-critical customer {} got {sku}", c.id);
        checked += 1;
    }
    assert!(checked > 3, "sample contained too few latency-critical customers");
}

#[test]
fn flat_customers_get_the_cheapest_satisfying_sku() {
    let (engine, customers) = train_db(60, 13);
    for c in customers
        .iter()
        .filter(|c| c.shape_class == ShapeClass::Flat && !c.latency_critical && !c.over_provisioned)
    {
        let rec = engine.recommend(&c.history, None);
        assert_eq!(rec.shape, CurveShape::Flat, "customer {}", c.id);
        // The cheapest point on a flat curve is the recommendation.
        assert_eq!(
            rec.sku_id.as_deref(),
            Some(rec.curve.points()[0].sku_id.as_str()),
            "customer {}",
            c.id
        );
    }
}

#[test]
fn recommendation_is_deterministic() {
    let (engine, customers) = train_db(40, 21);
    let c = &customers[0];
    let a = engine.recommend(&c.history, None);
    let b = engine.recommend(&c.history, None);
    assert_eq!(a.sku_id, b.sku_id);
    assert_eq!(a.group, b.group);
    assert_eq!(a.curve.points().len(), b.curve.points().len());
}

#[test]
fn mi_flow_uses_layouts_end_to_end() {
    let cat = catalog();
    let spec = PopulationSpec { days: 4.0, ..PopulationSpec::sql_mi(50, 31) };
    let customers = spec.customers(&cat);
    let records: Vec<TrainingRecord> = customers
        .iter()
        .filter(|c| !c.over_provisioned)
        .map(|c| TrainingRecord {
            history: c.history.clone(),
            chosen_sku: c.chosen_sku.clone(),
            file_layout: c.file_layout.clone(),
        })
        .collect();
    let engine =
        DopplerEngine::train(cat, EngineConfig::production(DeploymentType::SqlMi), &records);
    let mut hits = 0;
    let mut scored = 0;
    for c in customers.iter().filter(|c| !c.over_provisioned) {
        let rec = engine.recommend(&c.history, c.file_layout.as_ref());
        let sku = rec.sku_id.expect("recommendation");
        assert!(sku.starts_with("MI_"), "customer {} got {sku}", c.id);
        assert!(rec.mi.is_some(), "MI context missing for {}", c.id);
        scored += 1;
        if sku == c.chosen_sku.0 {
            hits += 1;
        }
    }
    assert!(hits as f64 / scored as f64 > 0.7, "MI accuracy {hits}/{scored}");
}

#[test]
fn over_provisioned_customers_are_recommended_cheaper_skus() {
    let (engine, customers) = train_db(120, 3);
    let cat = catalog();
    let mut checked = 0;
    for c in customers.iter().filter(|c| c.over_provisioned) {
        let rec = engine.recommend(&c.history, None);
        let recommended = cat.get(&SkuId(rec.sku_id.clone().unwrap())).unwrap();
        let chosen = cat.get(&c.chosen_sku).unwrap();
        assert!(
            recommended.monthly_cost() <= chosen.monthly_cost(),
            "customer {}: {} costs more than {}",
            c.id,
            recommended.id,
            chosen.id
        );
        checked += 1;
    }
    assert!(checked > 5);
}

#[test]
fn engine_explanations_name_the_profiled_dimensions() {
    let (engine, customers) = train_db(20, 17);
    let rec = engine.recommend(&customers[0].history, None);
    let text = rec.explanation.render();
    assert!(text.contains("group"), "{text}");
    assert!(text.contains("Negotiable") || text.contains("Non-negotiable"), "{text}");
}
