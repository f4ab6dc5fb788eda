//! Lloyd's k-means with k-means++ seeding — reference \[16\] of the paper.
//!
//! §3.3: "A range of standard ML clustering algorithms such as k-means and
//! hierarchical clustering can then be executed on the resulting g_n in
//! order to profile customers into different groups." Table 4 back-tests
//! exactly this configuration against the straightforward-enumeration
//! grouping Doppler ships.

use crate::distance::euclidean_sq;
use crate::rng::SeededRng;

/// Lloyd iterations at most.
const MAX_ITERATIONS: usize = 100;
/// Lloyd also stops once no assignment changes; this stops it earlier when
/// every centroid moves less than this squared distance.
const TOLERANCE: f64 = 1e-9;

/// The fitted model.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster centers, `k x d`.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of points to their assigned centroid.
    pub inertia: f64,
    /// Lloyd iterations actually executed.
    pub iterations: usize,
}

/// Index of the centroid nearest to `point` by squared Euclidean distance.
/// Ties keep the first index. When no distance is below infinity (no
/// centroids, or only NaN or infinite distances), the index is 0.
pub fn nearest_centroid(centroids: &[Vec<f64>], point: &[f64]) -> usize {
    let mut best = (0, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = euclidean_sq(c, point);
        if d < best.1 {
            best = (i, d);
        }
    }
    best.0
}

/// k-means++ initialization: the first center is uniform, each subsequent
/// center is drawn with probability proportional to its squared distance to
/// the nearest chosen center.
fn init_plus_plus(points: &[Vec<f64>], k: usize, rng: &mut SeededRng) -> Vec<Vec<f64>> {
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.index(points.len())].clone());
    let mut d2: Vec<f64> = points.iter().map(|p| euclidean_sq(p, &centroids[0])).collect();
    while centroids.len() < k {
        let idx = rng.weighted_index(&d2);
        centroids.push(points[idx].clone());
        let newest = centroids.last().expect("just pushed");
        for (di, p) in d2.iter_mut().zip(points) {
            let d = euclidean_sq(p, newest);
            if d < *di {
                *di = d;
            }
        }
    }
    centroids
}

/// Run k-means over `points` (each a `d`-dimensional vector) into `k`
/// clusters, `k` clamped to the number of points, seeding the k-means++
/// initialization with `seed`.
///
/// Panics if `points` is empty or dimensions are inconsistent (debug).
/// Empty clusters are re-seeded with the point farthest from its centroid,
/// so the result always has exactly `min(k, n)` non-empty clusters.
pub fn kmeans(points: &[Vec<f64>], k: usize, seed: u64) -> KMeansResult {
    assert!(!points.is_empty(), "kmeans over no points");
    let n = points.len();
    let k = k.clamp(1, n);
    let mut rng = SeededRng::new(seed);

    let mut centroids = init_plus_plus(points, k, &mut rng);
    let mut assignments = vec![usize::MAX; n];
    let mut iterations = 0;

    for it in 0..MAX_ITERATIONS {
        iterations = it + 1;

        // Assignment step.
        let mut changed = false;
        for (a, p) in assignments.iter_mut().zip(points) {
            let idx = nearest_centroid(&centroids, p);
            if *a != idx {
                *a = idx;
                changed = true;
            }
        }

        // Update step.
        let d = points[0].len();
        let mut sums = vec![vec![0.0; d]; k];
        let mut counts = vec![0usize; k];
        for (&a, p) in assignments.iter().zip(points) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(p) {
                *s += x;
            }
        }
        let mut max_shift: f64 = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed the empty cluster at the point currently worst
                // served by its centroid.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = euclidean_sq(&points[a], &centroids[assignments[a]]);
                        let db = euclidean_sq(&points[b], &centroids[assignments[b]]);
                        da.partial_cmp(&db).expect("finite distances")
                    })
                    .expect("nonempty points");
                centroids[c] = points[far].clone();
                max_shift = f64::INFINITY;
                continue;
            }
            let new: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
            max_shift = max_shift.max(euclidean_sq(&new, &centroids[c]));
            centroids[c] = new;
        }

        if !changed || max_shift < TOLERANCE {
            break;
        }
    }

    let inertia =
        assignments.iter().zip(points).map(|(&a, p)| euclidean_sq(p, &centroids[a])).sum();
    KMeansResult { centroids, assignments, inertia, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push(vec![0.0 + (i % 5) as f64 * 0.01, 0.0 + (i % 3) as f64 * 0.01]);
        }
        for i in 0..20 {
            pts.push(vec![10.0 + (i % 5) as f64 * 0.01, 10.0 + (i % 3) as f64 * 0.01]);
        }
        pts
    }

    #[test]
    fn separates_two_obvious_blobs() {
        let r = kmeans(&two_blobs(), 2, 0);
        // All of the first 20 share a label; all of the last 20 share the other.
        let first = r.assignments[0];
        assert!(r.assignments[..20].iter().all(|&a| a == first));
        let second = r.assignments[20];
        assert_ne!(first, second);
        assert!(r.assignments[20..].iter().all(|&a| a == second));
    }

    #[test]
    fn inertia_of_perfect_split_is_small() {
        let r = kmeans(&two_blobs(), 2, 0);
        assert!(r.inertia < 1.0, "inertia = {}", r.inertia);
    }

    #[test]
    fn k_clamped_to_point_count() {
        let pts = vec![vec![0.0], vec![1.0]];
        let r = kmeans(&pts, 10, 0);
        assert_eq!(r.centroids.len(), 2);
    }

    #[test]
    fn single_cluster_centroid_is_the_mean() {
        let pts = vec![vec![0.0, 0.0], vec![2.0, 4.0], vec![4.0, 2.0]];
        let r = kmeans(&pts, 1, 0);
        assert!((r.centroids[0][0] - 2.0).abs() < 1e-9);
        assert!((r.centroids[0][1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let pts = two_blobs();
        let a = kmeans(&pts, 3, 42);
        let b = kmeans(&pts, 3, 42);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn predict_routes_to_nearest_centroid() {
        let r = kmeans(&two_blobs(), 2, 0);
        let near_origin = nearest_centroid(&r.centroids, &[0.5, 0.5]);
        let near_far = nearest_centroid(&r.centroids, &[9.5, 9.5]);
        assert_eq!(near_origin, r.assignments[0]);
        assert_eq!(near_far, r.assignments[20]);
        // Ties keep the first centroid; no finite distance maps to 0.
        assert_eq!(nearest_centroid(&[vec![0.0], vec![2.0], vec![2.0]], &[1.0]), 0);
        assert_eq!(nearest_centroid(&[vec![5.0], vec![2.0], vec![2.0]], &[1.0]), 1);
        assert_eq!(nearest_centroid(&[vec![f64::NAN], vec![f64::NAN]], &[1.0]), 0);
    }

    #[test]
    fn identical_points_collapse_without_panic() {
        let pts = vec![vec![3.0, 3.0]; 10];
        let r = kmeans(&pts, 3, 0);
        assert_eq!(r.assignments.len(), 10);
        assert!(r.inertia < 1e-12);
    }

    #[test]
    fn assignments_match_nearest_centroid_invariant() {
        let pts = two_blobs();
        let r = kmeans(&pts, 4, 7);
        for (p, &a) in pts.iter().zip(&r.assignments) {
            assert_eq!(a, nearest_centroid(&r.centroids, p));
        }
    }
}
