//! Right-size an existing cloud fleet (§5.1): find over-provisioned
//! customers by curve position and total the savings opportunity.
//!
//! ```text
//! cargo run --release --example rightsize_fleet
//! ```

use doppler::engine::{rightsize, PricePerformanceCurve};
use doppler::prelude::*;

fn main() {
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let fleet = PopulationSpec::sql_db(300, 2024).customers(&catalog);
    let skus = catalog.for_deployment(DeploymentType::SqlDb);

    let mut flagged = Vec::new();
    for customer in &fleet {
        let curve = PricePerformanceCurve::generate(&customer.history, &skus);
        let Some(report) = rightsize(&curve, customer.chosen_sku.0.as_str()) else {
            continue;
        };
        if report.over_provisioned {
            flagged.push(report);
        }
    }
    flagged.sort_by(|a, b| b.monthly_savings.partial_cmp(&a.monthly_savings).unwrap());

    println!("fleet of {} customers: {} over-provisioned", fleet.len(), flagged.len());
    println!("\ntop savings opportunities:");
    println!(
        "{:<12} -> {:<12} {:>12} {:>14}",
        "current", "right-sized", "cost ratio", "annual saving"
    );
    for r in flagged.iter().take(10) {
        println!(
            "{:<12} -> {:<12} {:>11.1}x {:>13.0}$",
            r.current_sku,
            r.recommended_sku,
            r.cost_ratio,
            r.annual_savings()
        );
    }
    let total: f64 = flagged.iter().map(|r| r.annual_savings()).sum();
    println!("\naggregate annual savings opportunity: ${total:.0}");
    println!("(the paper's Figure 8a example alone — an 80-core machine doing a 2-core job —");
    println!(" realized over $100k in annual savings)");
}
