//! SQL Managed Instance assessment with the §3.2 storage-tier flow: the
//! file layout drives the GP IOPS limit, and IO-hungry workloads fall back
//! to Business Critical.
//!
//! ```text
//! cargo run --release --example mi_migration
//! ```

use doppler::catalog::StorageTier;
use doppler::engine::mi::mi_curve;
use doppler::prelude::*;
use doppler::telemetry::TimeSeries;

fn history(iops_level: f64) -> PerfHistory {
    let n = 7 * 144;
    PerfHistory::new()
        .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![3.0; n]))
        .with(PerfDimension::Memory, TimeSeries::ten_minute(vec![14.0; n]))
        .with(PerfDimension::Iops, TimeSeries::ten_minute(vec![iops_level; n]))
        .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; n]))
        .with(PerfDimension::Storage, TimeSeries::ten_minute(vec![560.0; n]))
}

fn main() {
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    // The instance hosts four database files.
    let layout = FileLayout::from_sizes(&[120.0, 120.0, 200.0, 120.0]);

    for (label, iops) in [
        ("quiet instance (1.2k IOPS)", 1_200.0),
        ("busy instance (9k IOPS)", 9_000.0),
        ("io-monster (80k IOPS)", 80_000.0),
    ] {
        println!("=== {label} ===");
        let Some(assessment) = mi_curve(&history(iops), &layout, &catalog) else {
            println!("no MI placement exists for this layout\n");
            continue;
        };
        let tiers: Vec<StorageTier> = assessment.storage.tiers.clone();
        println!(
            "storage tiers per file: {:?} -> instance IOPS limit {}",
            tiers, assessment.gp_iops_limit
        );
        if assessment.restricted_to_bc {
            println!("premium disks cannot reach 95% of the IO demand: BC only");
        }
        for p in assessment.curve.points().iter().take(6) {
            println!("  {:<9} ${:>8.2}/mo  score {:.3}", p.sku_id, p.monthly_cost, p.score);
        }
        let pick = doppler::engine::matching::select_for_p(&assessment.curve, 0.0);
        println!("zero-tolerance selection: {:?}\n", pick.map(|p| p.sku_id.clone()));
    }
}
