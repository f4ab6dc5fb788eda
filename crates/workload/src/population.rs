//! Synthetic customer cohorts standing in for the paper's proprietary
//! telemetry (§5: 7,041 SQL DB + 9,295 SQL MI cloud customers, 257 on-prem
//! servers).
//!
//! Each cloud customer is generated deterministically from `(seed, index)`:
//!
//! 1. Draw a *curve-shape class* — flat / simple / complex — with weights
//!    calibrated to Figure 9's breakdown (≈ 74 % of customers are so small
//!    every relevant SKU satisfies them; ≈ 23 % span several SKUs).
//! 2. Draw per-dimension *negotiability* bits (the expert ground truth the
//!    Customer Profiler is supposed to recover): a negotiable dimension gets
//!    a spiky low-baseline series, a non-negotiable one a steady-high series.
//! 3. Draw a latency posture: a minority of customers run latency-critical
//!    workloads only Business Critical SKUs can host.
//! 4. Fix the "chosen SKU" the way the paper's Table 3 says successfully
//!    migrated customers behave: each group operates at a characteristic
//!    throttling tolerance (≈ `1 − (1−τ)^k` for `k` negotiable dimensions at
//!    per-dimension tolerance `τ`), so the customer picks the SKU on their
//!    own price-performance curve closest below that tolerance (with a small
//!    per-customer jitter). An idiosyncrasy rate then moves some choices one
//!    rung off-model (real customers are not perfectly rational), and an
//!    over-provisioned segment (~10 %, §5.1) jumps several rungs up the
//!    ladder.
//!
//! Because choices are *generated* from preferences rather than copied from
//! a lookup table, back-testing Doppler against this population exercises
//! the full pipeline the paper evaluates: the profiler must recover the
//! bits from raw series, the modeler must rank SKUs, the group model must
//! recover the tolerances, and the matcher must invert the choice rule.

use doppler_catalog::{
    BillingRates, Catalog, DeploymentType, FileLayout, Region, ServiceTier, SkuId,
};
use doppler_core::matching::select_with_slack;
use doppler_core::mi::mi_curve;
use doppler_core::PricePerformanceCurve;
use doppler_stats::descriptive::max;
use doppler_stats::SeededRng;
use doppler_telemetry::{PerfDimension, PerfHistory};

use crate::generate::generate;
use crate::spec::{DimensionProfile, SpikeTrain, WorkloadSpec};

/// Ground-truth intent for the price-performance curve shape (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ShapeClass {
    Flat,
    Simple,
    Complex,
}

/// Configuration of a synthetic cloud-customer cohort. The behavioural
/// calibration (shape mix, latency posture, idiosyncrasy, over-provisioning
/// and tolerance) is fixed per deployment to the paper's §5 evaluation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PopulationSpec {
    pub deployment: DeploymentType,
    pub n_customers: usize,
    /// Assessment window per customer, days (paper: ≥ 40-day retention).
    pub days: f64,
    pub seed: u64,
    /// Give every customer this curve-shape class; `None` draws it from the
    /// deployment's Figure 9 mix. The draw is made either way, so forcing a
    /// shape changes nothing else a customer draws.
    pub shape: Option<ShapeClass>,
    /// Azure region this cohort's customers live in; `None` leaves them
    /// untagged (single-catalog behaviour). Fleet sources turn the tag
    /// into a per-request catalog key, so chaining cohorts with different
    /// regions yields a mixed-region fleet.
    pub region: Option<Region>,
}

/// Fraction of customers choosing several rungs above need (§5.1: >10 %).
const OVER_PROVISION_RATE: f64 = 0.10;
/// Quantile of a negotiable dimension used as its requirement: a per-
/// dimension tolerance τ of 5 %.
const NEGOTIABLE_QUANTILE: f64 = 0.95;

/// One deployment's behavioural calibration.
struct Calibration {
    /// Probability a GP-chooser deviates one rung from the model choice.
    idiosyncrasy_gp: f64,
    /// Probability a BC-chooser deviates one rung from the model choice.
    idiosyncrasy_bc: f64,
    /// Curve-shape weights (flat, simple, complex), Figure 9.
    shape_weights: [f64; 3],
    /// Fraction of customers with latency-critical workloads (BC-bound).
    bc_preference_rate: f64,
}

/// SQL DB: Figure 9's 73.3 % flat / 26.2 % complex / remainder simple.
const SQL_DB: Calibration = Calibration {
    idiosyncrasy_gp: 0.16,
    idiosyncrasy_bc: 0.02,
    shape_weights: [0.733, 0.005, 0.262],
    bc_preference_rate: 0.35,
};

/// SQL MI: Figure 9's 74.9 % flat / 21.7 % complex.
const SQL_MI: Calibration = Calibration {
    idiosyncrasy_gp: 0.04,
    idiosyncrasy_bc: 0.12,
    shape_weights: [0.749, 0.034, 0.217],
    bc_preference_rate: 0.30,
};

impl PopulationSpec {
    /// SQL DB cohort calibrated to the paper's evaluation.
    pub fn sql_db(n_customers: usize, seed: u64) -> PopulationSpec {
        PopulationSpec::new(DeploymentType::SqlDb, n_customers, seed)
    }

    /// SQL MI cohort.
    pub fn sql_mi(n_customers: usize, seed: u64) -> PopulationSpec {
        PopulationSpec::new(DeploymentType::SqlMi, n_customers, seed)
    }

    fn new(deployment: DeploymentType, n_customers: usize, seed: u64) -> PopulationSpec {
        PopulationSpec { deployment, n_customers, days: 14.0, seed, shape: None, region: None }
    }

    fn calibration(&self) -> &'static Calibration {
        match self.deployment {
            DeploymentType::SqlDb => &SQL_DB,
            DeploymentType::SqlMi => &SQL_MI,
        }
    }

    /// The same cohort living in `region`. Telemetry and SKU choices are
    /// unchanged — the tag only affects which offer catalog a fleet run
    /// resolves for these customers.
    pub fn in_region(mut self, region: Region) -> PopulationSpec {
        self.region = Some(region);
        self
    }

    /// The dimensions the Customer Profiler summarizes for this deployment
    /// (§5.2.1): CPU, memory, IOPS and log rate for SQL DB (16 groups);
    /// CPU, memory, IOPS for SQL MI (8 groups).
    pub fn profiled_dimensions(&self) -> &'static [PerfDimension] {
        match self.deployment {
            DeploymentType::SqlDb => &[
                PerfDimension::Cpu,
                PerfDimension::Memory,
                PerfDimension::Iops,
                PerfDimension::LogRate,
            ],
            DeploymentType::SqlMi => {
                &[PerfDimension::Cpu, PerfDimension::Memory, PerfDimension::Iops]
            }
        }
    }

    /// Generate customer `idx` (deterministic in `(seed, idx)`).
    pub fn customer(&self, idx: usize, catalog: &Catalog) -> CloudCustomer {
        let mut rng = SeededRng::new(
            self.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(17),
        );
        let calibration = self.calibration();
        let drawn = match rng.weighted_index(&calibration.shape_weights) {
            0 => ShapeClass::Flat,
            1 => ShapeClass::Simple,
            _ => ShapeClass::Complex,
        };
        let shape = self.shape.unwrap_or(drawn);
        let profiled = self.profiled_dimensions();
        // Most real counters are steady; spiky, negotiable dimensions are
        // the minority the profiler exists to find.
        let negotiability: Vec<bool> = profiled.iter().map(|_| rng.chance(0.4)).collect();
        // A flat curve means every SKU satisfies 100% of needs — which by
        // definition includes GP's 5 ms latency floor, so latency-critical
        // workloads only occur among non-flat customers.
        let latency_critical =
            shape != ShapeClass::Flat && rng.chance(calibration.bc_preference_rate);

        // Natural size: flat customers fit inside the smallest SKU; complex
        // customers land mid-ladder; simple customers sit exactly between
        // rungs with a constant demand.
        let scale = match (shape, self.deployment) {
            (ShapeClass::Flat, DeploymentType::SqlDb) => rng.range(0.5, 1.9),
            (ShapeClass::Flat, DeploymentType::SqlMi) => rng.range(0.6, 2.0),
            (ShapeClass::Simple, DeploymentType::SqlDb) => rng.range(3.0, 16.0),
            (ShapeClass::Simple, DeploymentType::SqlMi) => rng.range(6.0, 24.0),
            (ShapeClass::Complex, DeploymentType::SqlDb) => rng.range(2.0, 20.0),
            (ShapeClass::Complex, DeploymentType::SqlMi) => rng.range(4.0, 32.0),
        };

        let spec = self.build_spec(shape, &negotiability, latency_critical, scale, &mut rng);
        let history = generate(&spec, rng.fork(1).unit().to_bits());

        // MI customers fix a file layout up front (§3.2): split the data
        // across 1-4 files. The layout exists *before* the SKU choice.
        let file_layout = (self.deployment == DeploymentType::SqlMi).then(|| {
            let total =
                history.values(PerfDimension::Storage).and_then(max).unwrap_or(64.0).max(1.0);
            let k = 1 + rng.index(4);
            FileLayout::from_sizes(&vec![total / k as f64; k])
        });

        // The customer's own price-performance curve — the same one the
        // engine will later regenerate when back-testing.
        let curve = match &file_layout {
            Some(layout) => mi_curve(&history, layout, catalog, &BillingRates::default())
                .map(|a| a.curve)
                .unwrap_or_else(|| PricePerformanceCurve::from_scored(vec![])),
            None => {
                let skus = catalog.for_deployment(self.deployment);
                PricePerformanceCurve::generate(&history, &skus)
            }
        };

        // The Table 3 behavioural model: operate at the group tolerance
        // 1 − (1−τ)^k (τ per negotiable dimension, k negotiable dims). The
        // Poisson spike trains realize each customer's exceedance
        // *around* that target, so the choice constraint carries a
        // 3σ-binomial slack — otherwise a coin-flip of customers would
        // land one rung off their own intended operating point.
        let tau = 1.0 - NEGOTIABLE_QUANTILE;
        let k = negotiability.iter().filter(|&&b| b).count() as i32;
        let target_p = 1.0 - (1.0 - tau).powi(k);
        let n_samples = history.len().max(1) as f64;
        let slack = 3.0 * (target_p * (1.0 - target_p) / n_samples).sqrt() + 0.005;
        let model_point = select_with_slack(&curve, target_p, slack)
            .unwrap_or_else(|| panic!("customer {idx}: empty curve"));
        let model_id = SkuId(model_point.sku_id.clone());
        let model_choice = catalog.get(&model_id).expect("curve SKUs come from the catalog");

        // Idiosyncrasy: one rung off-model within the chosen tier.
        let tier = model_choice.tier;
        let idio = if tier == ServiceTier::BusinessCritical {
            calibration.idiosyncrasy_bc
        } else {
            calibration.idiosyncrasy_gp
        };
        let ladder = catalog.for_deployment_tier(self.deployment, tier);
        let mut pos = ladder
            .iter()
            .position(|s| s.id == model_choice.id)
            .expect("model choice is on its own ladder");
        let mut off_model = false;
        if rng.chance(idio) {
            let before = pos;
            if rng.chance(0.5) && pos + 1 < ladder.len() {
                pos += 1;
            } else {
                pos = pos.saturating_sub(1);
            }
            off_model = pos != before;
        }

        // Over-provisioned segment: several rungs up.
        let over_provisioned = rng.chance(OVER_PROVISION_RATE);
        if over_provisioned {
            let jump = 2 + rng.index(4);
            pos = (pos + jump).min(ladder.len() - 1);
        }
        let chosen = ladder[pos].clone();

        CloudCustomer {
            id: idx,
            deployment: self.deployment,
            region: self.region.clone(),
            history,
            negotiability,
            latency_critical,
            chosen_sku: chosen.id.clone(),
            chosen_tier: chosen.tier,
            over_provisioned,
            off_model,
            shape_class: shape,
            scale,
            file_layout,
        }
    }

    /// Materialize the whole cohort. For large cohorts prefer
    /// [`PopulationSpec::stream_customers`] — a materialized cohort holds
    /// `n x days x 144 x 6` floats.
    pub fn customers(&self, catalog: &Catalog) -> Vec<CloudCustomer> {
        self.stream_customers(catalog).collect()
    }

    /// Generate the cohort lazily, one customer at a time — the fleet-scale
    /// entry point: feeding this straight into a bounded-queue consumer
    /// (e.g. `doppler-fleet`) keeps memory independent of cohort size.
    pub fn stream_customers<'a>(
        &'a self,
        catalog: &'a Catalog,
    ) -> impl Iterator<Item = CloudCustomer> + 'a {
        (0..self.n_customers).map(move |i| self.customer(i, catalog))
    }

    fn build_spec(
        &self,
        shape: ShapeClass,
        negotiability: &[bool],
        latency_critical: bool,
        scale: f64,
        rng: &mut SeededRng,
    ) -> WorkloadSpec {
        let profiled = self.profiled_dimensions();
        let mut spec = WorkloadSpec::new(format!("cloud-{:?}", shape), self.days);

        // Peak demand levels per dimension at this scale, mirroring the
        // catalog's capacity ratios so complex workloads land mid-ladder.
        let peak = |dim: PerfDimension| -> f64 {
            match dim {
                PerfDimension::Cpu => 0.85 * scale,
                PerfDimension::Memory => 4.4 * scale,
                PerfDimension::Iops => 290.0 * scale,
                PerfDimension::LogRate => 3.4 * scale,
                _ => unreachable!("only additive dims are profiled"),
            }
        };

        for (i, &dim) in profiled.iter().enumerate() {
            let p = peak(dim);
            let profile = match shape {
                // Simple: constant demand — a pure capacity step.
                ShapeClass::Simple => DimensionProfile::constant(0.8 * p),
                _ => {
                    if negotiability[i] {
                        // Short excursions to the peak covering an expected
                        // τ = 1 − NEGOTIABLE_QUANTILE of samples — the
                        // per-dimension tolerance that composes into the
                        // group operating points of Table 3. Duration
                        // varies; the rate compensates so the expected
                        // exceedance fraction stays τ.
                        let tau = 1.0 - NEGOTIABLE_QUANTILE;
                        let dur = 1 + rng.index(2);
                        let rate = tau * 144.0 / dur as f64;
                        // Spikes overshoot the nominal peak (1.1p) so a SKU
                        // rung almost always exists between the steady floor
                        // and the spike tops — the negotiation window.
                        DimensionProfile::spiky(0.15 * p, 0.95 * p, rate, dur)
                    } else {
                        // Sustained demand saturating just above its
                        // baseline: the dimension must be met continuously.
                        DimensionProfile::saturating(0.75 * p, 0.03 * p)
                    }
                }
            };
            spec = spec.with_dim(dim, profile);
        }

        // Latency requirement: critical customers need ~1.2-1.6 ms — BC's
        // 1 ms floor qualifies, GP's 5 ms never does. The floor keeps the
        // requirement satisfiable (nothing on Azure beats 1 ms).
        let latency = if latency_critical {
            DimensionProfile::steady(rng.range(1.2, 1.6), 0.04).with_floor(1.05)
        } else {
            DimensionProfile::steady(rng.range(5.4, 7.0), 0.15).with_floor(0.5)
        };
        spec = spec.with_dim(PerfDimension::IoLatency, latency);

        // Storage: constant allocation scaled to the workload.
        let storage = DimensionProfile::constant(rng.range(20.0, 60.0) * scale);
        spec = spec.with_dim(PerfDimension::Storage, storage);

        // MI specs still carry a log-rate series (the instance writes logs)
        // even though the profiler ignores it.
        if self.deployment == DeploymentType::SqlMi {
            spec = spec.with_dim(
                PerfDimension::LogRate,
                DimensionProfile::steady(1.2 * scale, 0.1 * scale),
            );
        }
        spec
    }
}

/// A successfully migrated cloud customer with ≥ 40-day SKU retention —
/// one back-testing record.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CloudCustomer {
    pub id: usize,
    pub deployment: DeploymentType,
    /// The cohort's region tag, when the [`PopulationSpec`] carried one.
    pub region: Option<Region>,
    pub history: PerfHistory,
    /// Ground-truth negotiability per profiled dimension, in
    /// [`PopulationSpec::profiled_dimensions`] order.
    pub negotiability: Vec<bool>,
    /// Whether the workload demands sub-GP latency.
    pub latency_critical: bool,
    /// The SKU the customer fixed for ≥ 40 days (the back-test label).
    pub chosen_sku: SkuId,
    pub chosen_tier: ServiceTier,
    /// Ground truth: this customer chose far above its needs.
    pub over_provisioned: bool,
    /// Ground truth: the idiosyncrasy draw moved this customer one rung
    /// off its model choice (designed, irreducible back-test noise).
    pub off_model: bool,
    pub shape_class: ShapeClass,
    /// Natural size in vCores the workload was generated at.
    pub scale: f64,
    /// MI customers fix a file layout before SKU selection (§3.2).
    pub file_layout: Option<FileLayout>,
}

/// An on-premises server awaiting assessment (no ground-truth SKU exists —
/// §5.3 compares Doppler against the baseline on these).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OnPremCandidate {
    pub id: usize,
    pub name: String,
    pub history: PerfHistory,
    /// True when the workload's latency dips below GP's floor — the ground
    /// truth §5.3 scores against.
    pub latency_critical: bool,
    /// True when peak demand exceeds every SKU (the baseline's
    /// no-recommendation failure mode).
    pub exceeds_all_skus: bool,
}

/// Generate an on-prem assessment cohort: mostly idle servers (§5.3: "the
/// majority of performance histories were extracted from relatively idle
/// workloads") with a minority of busier shapes.
pub fn onprem_population(n: usize, days: f64, seed: u64) -> Vec<OnPremCandidate> {
    use crate::archetype::WorkloadArchetype as A;
    let mut out = Vec::with_capacity(n);
    let mut root = SeededRng::new(seed);
    for id in 0..n {
        let mut rng = root.fork(id as u64);
        let (archetype, scale) = match rng.weighted_index(&[0.70, 0.12, 0.08, 0.06, 0.04]) {
            0 => (A::Idle, rng.range(0.5, 3.0)),
            1 => (A::Steady, rng.range(1.0, 6.0)),
            2 => (A::SpikyCpu, rng.range(2.0, 10.0)),
            3 => (A::Diurnal, rng.range(1.0, 8.0)),
            _ => (A::OltpLike, rng.range(1.0, 6.0)),
        };
        let history = generate(&archetype.spec(scale, days), rng.fork(7).unit().to_bits());
        let latency_critical = archetype == A::OltpLike;
        out.push(OnPremCandidate {
            id,
            name: format!("onprem-{id}-{archetype:?}"),
            history,
            latency_critical,
            exceeds_all_skus: false,
        });
    }
    out
}

/// The ten §5.3 comparison instances "from three real customers whose perf
/// history would allow for a robust SKU recommendation": eight
/// latency-critical workloads (where the scalar baseline mis-handles the
/// inverted latency dimension and under-specifies the tier) and two whose
/// peak demand exceeds every SKU (where the baseline returns nothing).
pub fn sec53_instances(days: f64, seed: u64) -> Vec<OnPremCandidate> {
    let mut out = Vec::with_capacity(10);
    let mut root = SeededRng::new(seed);
    for id in 0..8 {
        let mut rng = root.fork(id);
        let scale = rng.range(2.0, 10.0);
        // Tolerant baseline latency with rare critical dips below 1 ms:
        // the p95 scalar sees ~5.5 ms and picks GP; the full distribution
        // sees the dips.
        // Sustained (saturating) demand in every additive dimension: the
        // profiler must read these workloads as fully non-negotiable, so
        // the zero-tolerance group applies and the latency dips decide the
        // tier.
        let spec = WorkloadSpec::new(format!("critical-{id}"), days)
            .with_dim(PerfDimension::Cpu, DimensionProfile::saturating(0.55 * scale, 0.04 * scale))
            .with_dim(PerfDimension::Memory, DimensionProfile::saturating(3.0 * scale, 0.1 * scale))
            .with_dim(
                PerfDimension::Iops,
                DimensionProfile::saturating(260.0 * scale, 18.0 * scale),
            )
            .with_dim(
                PerfDimension::IoLatency,
                DimensionProfile {
                    base: 5.5,
                    noise_sd: 0.2,
                    diurnal_amplitude: 0.0,
                    trend_per_day: 0.0,
                    spike: Some(SpikeTrain {
                        rate_per_day: 3.0,
                        duration_samples: 2,
                        amplitude: 4.3,
                    }),
                    floor: 1.05,
                    ceiling: None,
                },
            )
            .with_dim(
                PerfDimension::LogRate,
                DimensionProfile::saturating(1.8 * scale, 0.15 * scale),
            )
            .with_dim(PerfDimension::Storage, DimensionProfile::constant(45.0 * scale));
        out.push(OnPremCandidate {
            id: id as usize,
            name: format!("sec53-latency-critical-{id}"),
            history: generate(&spec, rng.fork(3).unit().to_bits()),
            latency_critical: true,
            exceeds_all_skus: false,
        });
    }
    for id in 8..10 {
        let mut rng = root.fork(id);
        // Sustained memory excursions past every SKU's capacity (the DB
        // ceiling is 416 GB): the p95 scalar sees them, so the baseline has
        // no satisfying SKU at all — while Doppler negotiates. CPU also
        // spikes past the 80-vCore ceiling for good measure.
        let spec = WorkloadSpec::new(format!("oversized-{id}"), days)
            .with_dim(PerfDimension::Cpu, DimensionProfile::spiky(6.0, 110.0, 3.0, 1))
            .with_dim(PerfDimension::Memory, DimensionProfile::spiky(200.0, 300.0, 4.5, 3))
            .with_dim(PerfDimension::Iops, DimensionProfile::steady(1500.0, 100.0))
            .with_dim(PerfDimension::IoLatency, DimensionProfile::steady(5.5, 0.2).with_floor(0.6))
            .with_dim(PerfDimension::LogRate, DimensionProfile::steady(6.0, 0.4))
            .with_dim(PerfDimension::Storage, DimensionProfile::constant(700.0));
        out.push(OnPremCandidate {
            id: id as usize,
            name: format!("sec53-oversized-{id}"),
            history: generate(&spec, rng.fork(3).unit().to_bits()),
            latency_critical: false,
            exceeds_all_skus: true,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_catalog::{azure_paas_catalog, CatalogSpec};
    use doppler_stats::descriptive::quantile;

    fn catalog() -> Catalog {
        azure_paas_catalog(&CatalogSpec::default())
    }

    fn small_db_spec() -> PopulationSpec {
        PopulationSpec { days: 3.0, ..PopulationSpec::sql_db(40, 42) }
    }

    #[test]
    fn customers_are_deterministic() {
        let cat = catalog();
        let spec = small_db_spec();
        let a = spec.customer(7, &cat);
        let b = spec.customer(7, &cat);
        assert_eq!(a, b);
    }

    #[test]
    fn different_indices_differ() {
        let cat = catalog();
        let spec = small_db_spec();
        assert_ne!(spec.customer(0, &cat).history, spec.customer(1, &cat).history);
    }

    #[test]
    fn chosen_sku_exists_in_catalog_with_matching_deployment() {
        let cat = catalog();
        let spec = small_db_spec();
        for c in spec.customers(&cat) {
            let sku = cat.get(&c.chosen_sku).expect("chosen SKU must exist");
            assert_eq!(sku.deployment, DeploymentType::SqlDb);
            assert_eq!(sku.tier, c.chosen_tier);
        }
    }

    #[test]
    fn profiled_dimensions_match_paper() {
        assert_eq!(PopulationSpec::sql_db(1, 0).profiled_dimensions().len(), 4);
        assert_eq!(PopulationSpec::sql_mi(1, 0).profiled_dimensions().len(), 3);
    }

    #[test]
    fn flat_customers_dominate_the_mix() {
        let cat = catalog();
        let spec = PopulationSpec { days: 2.0, ..PopulationSpec::sql_db(120, 5) };
        let flat =
            spec.customers(&cat).iter().filter(|c| c.shape_class == ShapeClass::Flat).count();
        let frac = flat as f64 / 120.0;
        assert!((0.6..0.9).contains(&frac), "flat fraction = {frac}");
    }

    #[test]
    fn over_provisioned_rate_is_near_ten_percent() {
        let cat = catalog();
        let spec = PopulationSpec { days: 2.0, ..PopulationSpec::sql_db(300, 11) };
        let over = spec.customers(&cat).iter().filter(|c| c.over_provisioned).count();
        let frac = over as f64 / 300.0;
        assert!((0.05..0.17).contains(&frac), "over-provision fraction = {frac}");
    }

    #[test]
    fn latency_critical_customers_choose_bc() {
        let cat = catalog();
        let spec = PopulationSpec { days: 2.0, ..PopulationSpec::sql_db(150, 23) };
        let mut checked = 0;
        for c in spec.customers(&cat) {
            if c.latency_critical && !c.over_provisioned {
                assert_eq!(c.chosen_tier, ServiceTier::BusinessCritical, "customer {}", c.id);
                checked += 1;
            }
        }
        // Latency-critical customers only occur among non-flat shapes now,
        // so the sample is smaller.
        assert!(checked > 5, "too few latency-critical customers to be meaningful");
    }

    #[test]
    fn a_forced_shape_changes_nothing_but_the_shape() {
        let cat = catalog();
        let drawn = PopulationSpec { days: 2.0, ..PopulationSpec::sql_db(24, 8) };
        let forced = PopulationSpec { shape: Some(ShapeClass::Complex), ..drawn.clone() };
        let mut same = 0;
        for (d, f) in drawn.customers(&cat).into_iter().zip(forced.customers(&cat)) {
            assert_eq!(f.shape_class, ShapeClass::Complex);
            if d.shape_class == ShapeClass::Complex {
                assert_eq!(d, f);
                same += 1;
            }
        }
        assert!(same > 0, "no customer drew a complex curve");
    }

    #[test]
    fn mi_customers_carry_file_layouts() {
        let cat = catalog();
        let spec = PopulationSpec { days: 2.0, ..PopulationSpec::sql_mi(20, 9) };
        for c in spec.customers(&cat) {
            let layout = c.file_layout.as_ref().expect("MI customer needs a layout");
            assert!(!layout.files.is_empty());
            assert!(layout.total_gib() > 0.0);
        }
    }

    #[test]
    fn db_customers_have_no_file_layout() {
        let cat = catalog();
        let spec = small_db_spec();
        assert!(spec.customer(0, &cat).file_layout.is_none());
    }

    #[test]
    fn region_tag_rides_along_without_changing_the_customer() {
        let cat = catalog();
        let untagged = small_db_spec().customer(3, &cat);
        assert_eq!(untagged.region, None);
        let tagged = small_db_spec().in_region(Region::new("westeurope")).customer(3, &cat);
        assert_eq!(tagged.region, Some(Region::new("westeurope")));
        // Only the tag differs: telemetry and choice are region-independent.
        assert_eq!(untagged.history, tagged.history);
        assert_eq!(untagged.chosen_sku, tagged.chosen_sku);
    }

    #[test]
    fn onprem_population_is_mostly_idle() {
        let pop = onprem_population(80, 2.0, 3);
        assert_eq!(pop.len(), 80);
        let idle = pop.iter().filter(|c| c.name.contains("Idle")).count();
        assert!(idle > 30, "idle count = {idle}");
    }

    #[test]
    fn sec53_has_eight_critical_and_two_oversized() {
        let instances = sec53_instances(3.0, 77);
        assert_eq!(instances.len(), 10);
        assert_eq!(instances.iter().filter(|i| i.latency_critical).count(), 8);
        assert_eq!(instances.iter().filter(|i| i.exceeds_all_skus).count(), 2);
        // Oversized instances must actually exceed the 80-vCore ceiling.
        for i in instances.iter().filter(|i| i.exceeds_all_skus) {
            let peak = max(i.history.values(PerfDimension::Cpu).unwrap()).unwrap();
            assert!(peak > 80.0, "peak = {peak}");
        }
    }

    #[test]
    fn sec53_critical_latency_dips_below_one_ms() {
        let instances = sec53_instances(5.0, 77);
        for i in instances.iter().filter(|i| i.latency_critical) {
            let lat = i.history.values(PerfDimension::IoLatency).unwrap();
            let min_lat = doppler_stats::descriptive::min(lat).unwrap();
            assert!(min_lat < 1.5, "{}: min latency {min_lat}", i.name);
            assert!(min_lat >= 1.0, "{}: dips must stay satisfiable by BC", i.name);
            // ...but the p95 looks tolerant, which is what fools the baseline.
            let p95 = quantile(lat, 0.95).unwrap();
            assert!(p95 > 5.0, "{}: p95 {p95}", i.name);
        }
    }
}
