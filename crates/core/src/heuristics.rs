//! Curve-shape heuristics (§3.2, "Limitation").
//!
//! Before the Customer Profiler existed, three heuristics were tried for
//! turning a price-performance curve into one SKU. The paper keeps them as
//! a cautionary tale — on complex curves like Figure 5 the three disagree
//! (GP 6 / GP 4 / GP 12) and none recovers the customer's actual choice
//! (GP 14). They are implemented here so the Figure 5 reproduction can show
//! exactly that disagreement.

use crate::curve::PricePerformanceCurve;

/// A heuristic for picking one SKU off a curve, each at the setting the
/// paper's Figure 5 walk-through uses (the private constants below).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CurveHeuristic {
    /// "Selecting the SKU that sits after the point … where the difference
    /// in the throttling probability is no longer significant":
    /// the first SKU whose successor improves the score by at most ε.
    LargestPerformanceIncrease,
    /// The SKU just after the largest per-dollar score gain:
    /// maximize `(P_i − P_{i−1}) / (price_i − price_{i−1})`.
    LargestSlope,
    /// "The first SKU whose throttling probability is greater than some
    /// predefined threshold": the first point scoring at least γ.
    PerformanceThreshold,
}

/// Significance cutoff ε on successive score gains (paper: 0.001).
const EPSILON: f64 = 0.001;
/// Score threshold γ (paper example: 0.95).
const GAMMA: f64 = 0.95;

impl CurveHeuristic {
    /// Apply the heuristic. Returns the selected SKU id, or `None` on an
    /// empty curve (or when no point clears a threshold).
    pub fn select(&self, curve: &PricePerformanceCurve) -> Option<String> {
        let pts = curve.points();
        if pts.is_empty() {
            return None;
        }
        match *self {
            CurveHeuristic::LargestPerformanceIncrease => {
                // Walk until the marginal gain becomes insignificant.
                for i in 1..pts.len() {
                    let gain = pts[i].score - pts[i - 1].score;
                    if gain <= EPSILON {
                        return Some(pts[i - 1].sku_id.clone());
                    }
                }
                Some(pts[pts.len() - 1].sku_id.clone())
            }
            CurveHeuristic::LargestSlope => {
                let mut best: Option<(usize, f64)> = None;
                for i in 1..pts.len() {
                    let dp = pts[i].score - pts[i - 1].score;
                    let dc = pts[i].monthly_cost - pts[i - 1].monthly_cost;
                    if dc <= 0.0 {
                        continue;
                    }
                    let slope = dp / dc;
                    if best.is_none_or(|(_, s)| slope > s) {
                        best = Some((i, slope));
                    }
                }
                best.map(|(i, _)| pts[i].sku_id.clone()).or_else(|| Some(pts[0].sku_id.clone()))
            }
            CurveHeuristic::PerformanceThreshold => {
                pts.iter().find(|p| p.score >= GAMMA).map(|p| p.sku_id.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Figure 5-like complex curve: a steep early climb, a long plateau
    /// from GP6 to GP10, then a late jump to 1.0 at GP12/GP14.
    fn complex_curve() -> PricePerformanceCurve {
        PricePerformanceCurve::from_scored(vec![
            ("GP2".into(), 370.0, 0.30),
            ("BC2".into(), 500.0, 0.35),
            ("GP4".into(), 740.0, 0.62),
            ("GP6".into(), 1110.0, 0.80),
            ("GP8".into(), 1480.0, 0.8005),
            ("GP10".into(), 1850.0, 0.801),
            ("GP12".into(), 2220.0, 0.96),
            ("GP14".into(), 2590.0, 1.00),
        ])
    }

    #[test]
    fn heuristics_disagree_on_complex_curves() {
        // The Figure 5 phenomenon: three heuristics, three answers, none
        // of which need be the customer's actual choice (GP14).
        let curve = complex_curve();
        let a = CurveHeuristic::LargestPerformanceIncrease.select(&curve).unwrap();
        let b = CurveHeuristic::LargestSlope.select(&curve).unwrap();
        let c = CurveHeuristic::PerformanceThreshold.select(&curve).unwrap();
        assert_eq!(a, "GP6"); // the next gain (GP8) is insignificant
        assert_eq!(b, "GP4"); // steepest per-dollar climb
        assert_eq!(c, "GP12"); // first >= 0.95
        assert_ne!(a, "GP14");
        assert_ne!(b, "GP14");
        assert_ne!(c, "GP14");
    }

    #[test]
    fn threshold_returns_none_when_unreachable() {
        let curve = PricePerformanceCurve::from_scored(vec![
            ("a".into(), 100.0, 0.2),
            ("b".into(), 200.0, 0.5),
            ("c".into(), 300.0, 0.94),
        ]);
        assert_eq!(CurveHeuristic::PerformanceThreshold.select(&curve), None);
    }

    #[test]
    fn all_heuristics_none_on_empty_curve() {
        let curve = PricePerformanceCurve::from_scored(vec![]);
        assert_eq!(CurveHeuristic::LargestPerformanceIncrease.select(&curve), None);
        assert_eq!(CurveHeuristic::LargestSlope.select(&curve), None);
        assert_eq!(CurveHeuristic::PerformanceThreshold.select(&curve), None);
    }

    #[test]
    fn flat_curve_collapses_to_first_point() {
        let curve = PricePerformanceCurve::from_scored(vec![
            ("a".into(), 100.0, 1.0),
            ("b".into(), 200.0, 1.0),
            ("c".into(), 300.0, 1.0),
        ]);
        // No significant gain anywhere: settle immediately.
        assert_eq!(CurveHeuristic::LargestPerformanceIncrease.select(&curve).unwrap(), "a");
        assert_eq!(CurveHeuristic::PerformanceThreshold.select(&curve).unwrap(), "a");
    }

    #[test]
    fn single_point_curve_selects_it() {
        let curve = PricePerformanceCurve::from_scored(vec![("only".into(), 50.0, 0.7)]);
        assert_eq!(CurveHeuristic::LargestPerformanceIncrease.select(&curve).unwrap(), "only");
        assert_eq!(CurveHeuristic::LargestSlope.select(&curve).unwrap(), "only");
    }

    #[test]
    fn monotone_steady_climb_rides_to_the_top() {
        let curve = PricePerformanceCurve::from_scored(vec![
            ("a".into(), 100.0, 0.2),
            ("b".into(), 200.0, 0.5),
            ("c".into(), 300.0, 0.8),
            ("d".into(), 400.0, 1.0),
        ]);
        assert_eq!(CurveHeuristic::LargestPerformanceIncrease.select(&curve).unwrap(), "d");
    }
}
