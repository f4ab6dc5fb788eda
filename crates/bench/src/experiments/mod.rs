//! One reproduction function per table and figure of the paper's
//! evaluation. Each returns the formatted rows/series the paper reports;
//! `crates/bench/golden/<id>.txt` pins each runner's output at a reduced
//! scale, and `reproduce golden` regenerates those files.

pub mod figures;
pub mod sections;
pub mod tables;

/// Experiment scale knobs shared by the reproductions.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Cohort size per deployment for the back-testing experiments.
    pub cohort: usize,
    /// Root seed.
    pub seed: u64,
}

impl Default for ExperimentScale {
    fn default() -> ExperimentScale {
        ExperimentScale { cohort: 600, seed: 42 }
    }
}

/// A reproduction runner.
pub type ExperimentFn = fn(&ExperimentScale) -> String;

/// The experiment registry: `(id, paper element, runner)`.
pub fn registry() -> Vec<(&'static str, &'static str, ExperimentFn)> {
    vec![
        ("table1", "Table 1: DMA adoption counters", tables::table1 as ExperimentFn),
        ("table2", "Table 2: MI GP storage tiers", tables::table2),
        ("table3", "Table 3: MI group scores", tables::table3),
        ("table4", "Table 4: accuracy by negotiability definition (k-means)", tables::table4),
        ("table5", "Table 5: elastic accuracy excl. over-provisioned", tables::table5),
        ("table6", "Table 6: replay SKUs", tables::table6),
        ("figure1", "Figure 1: example Azure SQL DB SKUs", figures::figure1),
        ("figure4", "Figure 4: spiky CPU trace and its price-performance curve", figures::figure4),
        ("figure5", "Figure 5: heuristics disagree on a complex curve", figures::figure5),
        ("figure6", "Figure 6: ECDFs and raw series across dimensions", figures::figure6),
        ("figure8", "Figure 8: the four canonical curve shapes", figures::figure8),
        ("figure9", "Figure 9: curve-type breakdown per cohort", figures::figure9),
        ("figure10", "Figure 10: confidence score vs bootstrap window", figures::figure10),
        ("figure11", "Figure 11: curves before/after a SKU change", figures::figure11),
        ("figure12", "Figure 12: synthesized workload curve over Table 6 SKUs", figures::figure12),
        ("figure13", "Figure 13: replayed counters on the Table 6 SKUs", figures::figure13),
        ("sec5_3", "Section 5.3: Doppler vs the baseline on on-prem data", sections::sec5_3),
        ("survey", "Section 1 survey: over-provisioned CPU in the cloud fleet", sections::survey),
    ]
}
