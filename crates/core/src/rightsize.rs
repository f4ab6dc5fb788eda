//! Right-sizing existing cloud customers (§5.1, §5.2.1).
//!
//! "Among this set, we are able to identify approximately 10% of customers
//! that were over-provisioned, as their fixed SKU choice places them much
//! farther along their price-performance curve. There are a few customers
//! that were paying for SKUs that satisfied 4x their max resource needs."
//!
//! The rule implemented here is the curve-position one: find the cheapest
//! SKU delivering (within ε of) the same score as the customer's current
//! SKU; if the current SKU costs at least 1.5 times that, the customer is
//! over-provisioned and the delta is the savings opportunity — the Figure
//! 8a example (an 80-core machine doing a 2-core job) realizes "over $100k
//! in annual savings".

use crate::curve::PricePerformanceCurve;

/// Result of a right-sizing audit for one customer.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RightsizeReport {
    pub current_sku: String,
    /// Cheapest SKU matching the current SKU's delivered score.
    pub recommended_sku: String,
    pub current_monthly: f64,
    pub recommended_monthly: f64,
    /// `current / recommended` cost ratio.
    pub cost_ratio: f64,
    /// Positive when money is on the table.
    pub monthly_savings: f64,
    /// Whether the ratio clears the over-provisioning threshold.
    pub over_provisioned: bool,
    /// Score both SKUs deliver (they match within ε by construction).
    pub score: f64,
}

impl RightsizeReport {
    /// Annualized savings, dollars.
    pub fn annual_savings(&self) -> f64 {
        self.monthly_savings * 12.0
    }
}

/// The over-provisioning bar on the cost ratio: 1.5 marks "much farther
/// along the curve"; Figure 8a's 4x cases clear any sane bar.
const OVER_PROVISIONED_RATIO: f64 = 1.5;

/// Audit one customer: `curve` is their price-performance curve and
/// `current_sku` the SKU they are fixed on.
///
/// Returns `None` when the current SKU is not on the curve.
pub fn rightsize(curve: &PricePerformanceCurve, current_sku: &str) -> Option<RightsizeReport> {
    const EPS: f64 = 1e-9;
    let current = curve.point_for(current_sku)?;
    let target = curve
        .points()
        .iter()
        .find(|p| p.score >= current.score - EPS)
        .expect("the current SKU itself qualifies");
    let cost_ratio =
        if target.monthly_cost > 0.0 { current.monthly_cost / target.monthly_cost } else { 1.0 };
    Some(RightsizeReport {
        current_sku: current.sku_id.clone(),
        recommended_sku: target.sku_id.clone(),
        current_monthly: current.monthly_cost,
        recommended_monthly: target.monthly_cost,
        cost_ratio,
        monthly_savings: current.monthly_cost - target.monthly_cost,
        over_provisioned: cost_ratio >= OVER_PROVISIONED_RATIO,
        score: target.score,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flat curve over a GP ladder: everything scores 1.0.
    fn flat_ladder() -> PricePerformanceCurve {
        PricePerformanceCurve::from_scored(
            (1..=10).map(|i| (format!("GP{}", 2 * i), 370.0 * i as f64, 1.0)).collect(),
        )
    }

    #[test]
    fn eighty_core_customer_on_flat_curve_is_flagged() {
        // The Figure 8a story: a 2-core SKU meets 100% of needs but the
        // customer pays for ~80 cores.
        let curve = flat_ladder();
        let r = rightsize(&curve, "GP20").unwrap();
        assert!(r.over_provisioned);
        assert_eq!(r.recommended_sku, "GP2");
        assert!((r.cost_ratio - 10.0).abs() < 1e-9);
        assert!(r.annual_savings() > 12.0 * 3000.0);
    }

    #[test]
    fn right_sized_customer_is_not_flagged() {
        let curve = flat_ladder();
        let r = rightsize(&curve, "GP2").unwrap();
        assert!(!r.over_provisioned);
        assert_eq!(r.monthly_savings, 0.0);
        assert_eq!(r.recommended_sku, "GP2");
    }

    #[test]
    fn complex_curve_matches_score_not_just_cheapest() {
        let curve = PricePerformanceCurve::from_scored(vec![
            ("small".into(), 100.0, 0.5),
            ("mid".into(), 300.0, 0.95),
            ("big".into(), 900.0, 0.95),
            ("huge".into(), 1800.0, 1.0),
        ]);
        // "big" delivers the same 0.95 as "mid": recommend "mid".
        let r = rightsize(&curve, "big").unwrap();
        assert_eq!(r.recommended_sku, "mid");
        assert!(r.over_provisioned);
        // "huge" is the only 1.0 point: it is right-sized at its score.
        let r2 = rightsize(&curve, "huge").unwrap();
        assert_eq!(r2.recommended_sku, "huge");
        assert!(!r2.over_provisioned);
    }

    #[test]
    fn unknown_sku_yields_none() {
        assert!(rightsize(&flat_ladder(), "nope").is_none());
    }

    #[test]
    fn threshold_controls_the_flag() {
        // On a flat curve a cost ratio of exactly 1.5 clears the bar and
        // one just under it does not.
        let curve = PricePerformanceCurve::from_scored(vec![
            ("base".into(), 100.0, 1.0),
            ("under".into(), 149.0, 1.0),
            ("at".into(), 150.0, 1.0),
        ]);
        assert!(!rightsize(&curve, "under").unwrap().over_provisioned);
        assert!(rightsize(&curve, "at").unwrap().over_provisioned);
    }
}
