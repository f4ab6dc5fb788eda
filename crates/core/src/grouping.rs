//! Customer grouping (§3.3, Eq. 2): from negotiability features to group
//! membership.
//!
//! Production Doppler uses "straightforward enumeration" — the bit vector
//! itself indexes one of `2^d` groups (16 for SQL DB's four profiled
//! dimensions, 8 for SQL MI's three; §5.2.1). Table 4 evaluates k-means on
//! the continuous weights as the alternative.

use doppler_stats::kmeans;

/// How to turn per-customer negotiability features into groups.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum GroupingStrategy {
    /// Bit-vector enumeration into `2^d` groups (production).
    Enumeration,
    /// k-means over the continuous weight vectors.
    KMeans { k: usize, seed: u64 },
}

/// A fitted grouping that can assign new customers.
#[derive(Debug, Clone, PartialEq)]
pub enum FittedGrouping {
    /// Enumeration needs no fitting — only the dimension count.
    Enumeration { n_dims: usize },
    /// Nearest-centroid assignment (k-means).
    Centroids { centroids: Vec<Vec<f64>> },
}

impl GroupingStrategy {
    /// Fit on the training cohort. `weights[i]` / `bits[i]` describe
    /// customer `i`. Returns the fitted grouping and each training
    /// customer's group label.
    pub fn fit(&self, weights: &[Vec<f64>], bits: &[Vec<bool>]) -> (FittedGrouping, Vec<usize>) {
        match *self {
            GroupingStrategy::Enumeration => {
                let n_dims = bits.first().map_or(0, |b| b.len());
                let grouping = FittedGrouping::Enumeration { n_dims };
                let labels = bits.iter().map(|b| bits_to_group(b)).collect();
                (grouping, labels)
            }
            GroupingStrategy::KMeans { k, seed } => {
                assert!(!weights.is_empty(), "k-means grouping needs training data");
                let result = kmeans(weights, k, seed);
                (FittedGrouping::Centroids { centroids: result.centroids }, result.assignments)
            }
        }
    }
}

/// Bit vector → enumeration group index (bit `i` contributes `2^i`).
pub fn bits_to_group(bits: &[bool]) -> usize {
    bits.iter().enumerate().fold(0, |acc, (i, &b)| acc | ((b as usize) << i))
}

impl FittedGrouping {
    /// Number of groups this grouping can emit.
    pub fn group_count(&self) -> usize {
        match self {
            FittedGrouping::Enumeration { n_dims } => 1usize << n_dims,
            FittedGrouping::Centroids { centroids } => centroids.len(),
        }
    }

    /// Assign a new customer from its features.
    pub fn assign(&self, weights: &[f64], bits: &[bool]) -> usize {
        match self {
            FittedGrouping::Enumeration { .. } => bits_to_group(bits),
            FittedGrouping::Centroids { centroids } => {
                doppler_stats::nearest_centroid(centroids, weights)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_enumerate_in_binary_order() {
        assert_eq!(bits_to_group(&[false, false, false]), 0);
        assert_eq!(bits_to_group(&[true, false, false]), 1);
        assert_eq!(bits_to_group(&[false, true, false]), 2);
        assert_eq!(bits_to_group(&[true, true, true]), 7);
        assert_eq!(bits_to_group(&[]), 0);
    }

    #[test]
    fn enumeration_group_count_is_two_to_the_dims() {
        let (g, labels) = GroupingStrategy::Enumeration
            .fit(&[vec![0.9, 0.1], vec![0.1, 0.9]], &[vec![true, false], vec![false, true]]);
        assert_eq!(g.group_count(), 4);
        assert_eq!(labels, vec![1, 2]);
    }

    #[test]
    fn enumeration_assignment_matches_fit_labels() {
        let bits = vec![vec![true, true, false], vec![false, false, true]];
        let weights = vec![vec![1.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]];
        let (g, labels) = GroupingStrategy::Enumeration.fit(&weights, &bits);
        for (i, b) in bits.iter().enumerate() {
            assert_eq!(g.assign(&weights[i], b), labels[i]);
        }
    }

    #[test]
    fn kmeans_grouping_separates_extremes() {
        let weights: Vec<Vec<f64>> =
            (0..20).map(|i| if i < 10 { vec![0.95, 0.9] } else { vec![0.05, 0.1] }).collect();
        let bits: Vec<Vec<bool>> = (0..20).map(|i| vec![i < 10, i < 10]).collect();
        let (g, labels) = GroupingStrategy::KMeans { k: 2, seed: 1 }.fit(&weights, &bits);
        assert_eq!(g.group_count(), 2);
        assert_ne!(labels[0], labels[19]);
        // New customers route to the right centroid.
        assert_eq!(g.assign(&[0.9, 0.92], &[true, true]), labels[0]);
        assert_eq!(g.assign(&[0.02, 0.03], &[false, false]), labels[19]);
    }

    #[test]
    fn kmeans_grouping_matches_centroid_assignment() {
        let weights: Vec<Vec<f64>> = (0..12)
            .map(|i| if i < 6 { vec![0.9 + 0.01 * i as f64] } else { vec![0.1 + 0.01 * i as f64] })
            .collect();
        let bits: Vec<Vec<bool>> = (0..12).map(|i| vec![i < 6]).collect();
        let (g, labels) = GroupingStrategy::KMeans { k: 2, seed: 3 }.fit(&weights, &bits);
        assert_ne!(labels[0], labels[11]);
        for (i, w) in weights.iter().enumerate() {
            assert_eq!(g.assign(w, &bits[i]), labels[i], "customer {i}");
        }
    }

    #[test]
    #[should_panic(expected = "needs training data")]
    fn kmeans_on_empty_training_panics() {
        GroupingStrategy::KMeans { k: 2, seed: 0 }.fit(&[], &[]);
    }
}
