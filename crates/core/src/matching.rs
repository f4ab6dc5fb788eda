//! Group preference learning and profile matching (Eqs. 3–6).
//!
//! For every group `g` of successfully migrated customers, Doppler learns
//! the preferred operating point
//!
//! ```text
//! P_g = E[ P_n(SKU*_n) ]  over members n of g          (Eq. 3)
//! ```
//!
//! — the average throttling probability members tolerated at the SKU they
//! fixed. A new customer assigned to `g` gets the SKU
//!
//! ```text
//! argmin_i |P(SKU_i) − P_g|   s.t.  P(SKU_i) ≤ P_g     (Eqs. 4, 6)
//! ```
//!
//! Flat curves carry no preference signal (every SKU scores 1.0, so where
//! the member parked says nothing about throttling tolerance); learning
//! uses only *informative* curves, which is also where the paper's Table 3
//! statistics come from.

use crate::curve::{PricePerfPoint, PricePerformanceCurve};

/// Per-group summary statistics (the rows of Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct GroupStats {
    /// Members assigned to the group (informative or not).
    pub n_total: usize,
    /// Members whose curves carried preference information.
    pub n_informative: usize,
    /// Members who *operate under throttling*: informative curve and a
    /// chosen SKU with `P > 0`. Only these reveal the group's tolerance —
    /// a member parked at `P = 0` is consistent with any tolerance.
    pub n_operating: usize,
    /// Mean score `1 − P` at the chosen SKU across operating members
    /// (1.0 when the group has informative members but none operating:
    /// the group tolerates nothing).
    pub mean_score: f64,
    /// Standard deviation of that score.
    pub std_score: f64,
    /// 25th percentile of the operating scores — i.e. the *high* end of
    /// the members' throttling probabilities. Eq. 6's one-sided constraint
    /// censors every member's realized `P` downward (a customer can only
    /// land at or below their tolerance, never above), so the mean
    /// under-estimates the group tolerance; this quantile recovers it.
    pub tolerance_score: f64,
}

/// The learned preference model: one `P_g` per group.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GroupModel {
    groups: Vec<GroupStats>,
    /// Used for groups with no informative members: the global mean
    /// throttling tolerance.
    fallback_p: f64,
}

impl GroupModel {
    /// Learn from `(group, curve, chosen_sku)` training triples.
    pub fn learn<'a>(
        n_groups: usize,
        records: impl Iterator<Item = (usize, &'a PricePerformanceCurve, &'a str)>,
    ) -> GroupModel {
        const FULL: f64 = 1.0 - 1e-9;
        // Scores below this mark an under-provisioned choice (the workload
        // throttles most of the time); §5.5 reports such customers are few
        // and they carry no tolerance signal, only noise.
        const UNDER_PROVISIONED: f64 = 0.5;
        let mut operating: Vec<Vec<f64>> = vec![Vec::new(); n_groups];
        let mut informative = vec![0usize; n_groups];
        let mut totals = vec![0usize; n_groups];
        for (group, curve, chosen) in records {
            if group >= n_groups {
                continue;
            }
            totals[group] += 1;
            if !curve.is_informative() {
                continue;
            }
            if let Some(point) = curve.point_for(chosen) {
                informative[group] += 1;
                if point.score < FULL && point.score >= UNDER_PROVISIONED {
                    operating[group].push(point.score);
                }
            }
        }
        let all: Vec<f64> = operating.iter().flatten().copied().collect();
        let fallback_p = if all.is_empty() { 0.0 } else { 1.0 - doppler_stats::mean(&all) };
        let groups = operating
            .iter()
            .zip(&informative)
            .zip(&totals)
            .map(|((ops, &n_informative), &n_total)| {
                // A group whose operating members are a sliver of its
                // informative members is a zero-tolerance group observed
                // through choice noise, not a throttling-tolerant one.
                let representative = !ops.is_empty() && ops.len() * 10 >= n_informative;
                GroupStats {
                    n_total,
                    n_informative,
                    n_operating: ops.len(),
                    mean_score: if representative {
                        doppler_stats::mean(ops)
                    } else if n_informative > 0 {
                        1.0 // effectively zero tolerance
                    } else {
                        f64::NAN
                    },
                    std_score: if representative { doppler_stats::stddev(ops) } else { 0.0 },
                    tolerance_score: if representative {
                        doppler_stats::quantile(ops, 0.25).expect("nonempty")
                    } else if n_informative > 0 {
                        1.0
                    } else {
                        f64::NAN
                    },
                }
            })
            .collect();
        GroupModel { groups, fallback_p }
    }

    /// Number of groups the model covers.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Per-group statistics (Table 3).
    pub fn stats(&self) -> &[GroupStats] {
        &self.groups
    }

    /// The preferred throttling probability `P_g` for a group, falling back
    /// to the global mean for groups never observed with an informative
    /// curve. Uses the censoring-corrected tolerance quantile rather than
    /// the raw mean (see [`GroupStats::tolerance_score`]). Clamped into
    /// `[0, 1]`.
    pub fn preferred_p(&self, group: usize) -> f64 {
        let p = self
            .groups
            .get(group)
            .filter(|g| g.n_informative > 0)
            .map(|g| 1.0 - g.tolerance_score)
            .unwrap_or(self.fallback_p);
        p.clamp(0.0, 1.0)
    }

    /// The constraint slack applied when matching against a group: `P_g`
    /// is an *estimate* of the group's operating point, so the Eq. 6 bound
    /// is widened by twice the group's observed spread (floored at 0.5 %).
    /// Without it, members whose own throttling probability lands a hair
    /// above the group mean — half of them, by definition of a mean — would
    /// be knife-edged one rung up.
    pub fn slack(&self, group: usize) -> f64 {
        let std = self
            .groups
            .get(group)
            .filter(|g| g.n_operating > 1)
            .map(|g| g.std_score)
            .unwrap_or(0.005);
        (2.0 * std).max(0.01)
    }

    /// Eqs. 4–6: the SKU whose throttling probability is closest to `P_g`,
    /// subject to `P ≤ P_g + slack`; ties resolve to the cheaper SKU. When
    /// *no* SKU satisfies the bound, the most performant (then cheapest)
    /// SKU is returned — the customer is steered to the best available even
    /// if the group would tolerate less. `None` only on an empty curve.
    pub fn select<'c>(
        &self,
        group: usize,
        curve: &'c PricePerformanceCurve,
    ) -> Option<&'c PricePerfPoint> {
        self.select_scored(group, curve.points().iter().map(|point| (point, point.score)))
    }

    /// [`select`](Self::select) over `(item, score)` pairs in ascending
    /// cost order instead of a built curve.
    pub(crate) fn select_scored<T>(
        &self,
        group: usize,
        points: impl Iterator<Item = (T, f64)> + Clone,
    ) -> Option<T> {
        select_scored(points, self.preferred_p(group), self.slack(group))
    }
}

/// The Eq. 4–6 selection at an explicit `P_g` with a hard constraint
/// (zero slack) — used by the drift study and the heuristics comparison.
pub fn select_for_p(curve: &PricePerformanceCurve, p_g: f64) -> Option<&PricePerfPoint> {
    select_with_slack(curve, p_g, 0.0)
}

/// Eq. 4–6 selection with an explicit constraint slack: feasible points
/// satisfy `P(SKU) ≤ p_g + slack`; among them the point minimizing
/// `|P − p_g|` wins, ties to the cheaper point.
pub fn select_with_slack(
    curve: &PricePerformanceCurve,
    p_g: f64,
    slack: f64,
) -> Option<&PricePerfPoint> {
    select_scored(curve.points().iter().map(|point| (point, point.score)), p_g, slack)
}

/// The rule behind [`select_with_slack`], over `(item, score)` pairs in
/// ascending cost order (a curve's points, or the engine's per-window SKU
/// scores): returns the item of the selected pair.
pub(crate) fn select_scored<T>(
    points: impl Iterator<Item = (T, f64)> + Clone,
    p_g: f64,
    slack: f64,
) -> Option<T> {
    const EPS: f64 = 1e-9;
    let mut best: Option<(T, f64)> = None;
    for (item, score) in points.clone() {
        let p = 1.0 - score;
        if p <= p_g + slack + EPS {
            let diff = (p - p_g).abs();
            // Strict improvement only: cost order makes earlier = cheaper
            // win ties.
            if best.as_ref().is_none_or(|&(_, d)| diff < d - EPS) {
                best = Some((item, diff));
            }
        }
    }
    if let Some((item, _)) = best {
        return Some(item);
    }
    // Constraint infeasible: fall back to the most performant point. The
    // comparator treats equal scores as `Greater` so `max_by` keeps the
    // first (cheapest) maximal point instead of its default last-wins.
    points
        .max_by(|a, b| {
            a.1.partial_cmp(&b.1).expect("finite scores").then(std::cmp::Ordering::Greater)
        })
        .map(|(item, _)| item)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complex_curve() -> PricePerformanceCurve {
        PricePerformanceCurve::from_scored(vec![
            ("s1".into(), 100.0, 0.70),
            ("s2".into(), 200.0, 0.85),
            ("s3".into(), 300.0, 0.95),
            ("s4".into(), 400.0, 1.00),
        ])
    }

    fn flat_curve() -> PricePerformanceCurve {
        PricePerformanceCurve::from_scored(vec![
            ("s1".into(), 100.0, 1.0),
            ("s2".into(), 200.0, 1.0),
        ])
    }

    #[test]
    fn learn_computes_group_means() {
        let c = complex_curve();
        let model = GroupModel::learn(
            2,
            vec![(0usize, &c, "s2"), (0, &c, "s2"), (1, &c, "s4")].into_iter(),
        );
        assert!((model.preferred_p(0) - 0.15).abs() < 1e-9);
        assert!((model.preferred_p(1) - 0.0).abs() < 1e-9);
        assert_eq!(model.stats()[0].n_informative, 2);
        assert_eq!(model.stats()[0].std_score, 0.0);
    }

    #[test]
    fn flat_curves_do_not_contaminate_learning() {
        let complex = complex_curve();
        let flat = flat_curve();
        // Group 0 has one informative member at s2 (P = 0.15) and many flat
        // members parked at the cheapest SKU; P_g must stay 0.15.
        let model = GroupModel::learn(
            1,
            vec![(0usize, &complex, "s2"), (0, &flat, "s1"), (0, &flat, "s1"), (0, &flat, "s2")]
                .into_iter(),
        );
        assert!((model.preferred_p(0) - 0.15).abs() < 1e-9);
        assert_eq!(model.stats()[0].n_total, 4);
        assert_eq!(model.stats()[0].n_informative, 1);
    }

    #[test]
    fn select_picks_closest_below_p_g() {
        let c = complex_curve();
        let model = GroupModel::learn(1, vec![(0usize, &c, "s2")].into_iter());
        // P_g = 0.15: s2 (P=0.15) is exact; s3 (0.05) and s4 (0.0) are
        // farther below; s1 (0.30) violates the constraint.
        assert_eq!(model.select(0, &c).unwrap().sku_id, "s2");
    }

    #[test]
    fn select_respects_the_upper_bound_constraint() {
        // P_g = 0.12 sits between s2 (0.15) and s3 (0.05): s2 violates
        // Eq. 6, so s3 wins despite s2 being nearer in absolute distance.
        let c = complex_curve();
        let pick = select_for_p(&c, 0.12).unwrap();
        assert_eq!(pick.sku_id, "s3");
    }

    #[test]
    fn zero_tolerance_group_gets_full_score_sku() {
        let c = complex_curve();
        let pick = select_for_p(&c, 0.0).unwrap();
        assert_eq!(pick.sku_id, "s4");
    }

    #[test]
    fn flat_curve_ties_resolve_to_cheapest() {
        let c = flat_curve();
        let pick = select_for_p(&c, 0.15).unwrap();
        assert_eq!(pick.sku_id, "s1");
    }

    #[test]
    fn infeasible_constraint_falls_back_to_most_performant() {
        let c = PricePerformanceCurve::from_scored(vec![
            ("bad".into(), 100.0, 0.2),
            ("worse".into(), 200.0, 0.1),
        ]);
        // P_g = 0: nothing satisfies; the best (0.2) wins.
        assert_eq!(select_for_p(&c, 0.0).unwrap().sku_id, "bad");
    }

    #[test]
    fn empty_curve_selects_nothing() {
        let c = PricePerformanceCurve::from_scored(vec![]);
        assert!(select_for_p(&c, 0.5).is_none());
    }

    #[test]
    fn unobserved_group_uses_fallback() {
        let c = complex_curve();
        let model = GroupModel::learn(4, vec![(0usize, &c, "s2")].into_iter());
        // Group 3 never seen: falls back to the global mean (0.15).
        assert!((model.preferred_p(3) - 0.15).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_group_in_learning_is_ignored() {
        let c = complex_curve();
        let model = GroupModel::learn(1, vec![(5usize, &c, "s2")].into_iter());
        assert_eq!(model.stats()[0].n_total, 0);
    }
}
