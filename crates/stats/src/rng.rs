//! Deterministic random-number helpers.
//!
//! Every stochastic routine in this workspace (workload generation,
//! population sampling, bootstrapping, k-means initialization) threads an
//! explicit seed so experiments are reproducible run-to-run — the property
//! the committed goldens under `crates/bench/golden/` depend on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG wrapper with the handful of draws this workspace needs.
#[derive(Debug, Clone)]
pub struct SeededRng {
    inner: StdRng,
}

impl SeededRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> SeededRng {
        SeededRng { inner: StdRng::seed_from_u64(seed) }
    }

    /// Derive an independent child generator; lets parallel simulations use
    /// one root seed without sharing a mutable stream.
    pub fn fork(&mut self, salt: u64) -> SeededRng {
        let seed: u64 = self.inner.gen::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SeededRng::new(seed)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform draw in `[lo, hi)`; `lo` when the range is empty.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index over empty range");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen::<f64>() < p
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1: f64 = self.inner.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = self.inner.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.normal()
    }

    /// Pick an index according to unnormalized non-negative weights.
    /// Falls back to uniform if all weights are zero. Panics on empty input.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_index over empty weights");
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return self.index(weights.len());
        }
        let mut draw = self.unit() * total;
        for (i, &w) in weights.iter().enumerate() {
            draw -= w;
            if draw < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeededRng::new(7);
        let mut b = SeededRng::new(7);
        for _ in 0..32 {
            assert_eq!(a.unit(), b.unit());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let same = (0..16).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 16);
    }

    #[test]
    fn unit_stays_in_range() {
        let mut r = SeededRng::new(42);
        for _ in 0..1000 {
            let x = r.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds_and_degenerate_case() {
        let mut r = SeededRng::new(3);
        for _ in 0..100 {
            let x = r.range(5.0, 6.0);
            assert!((5.0..6.0).contains(&x));
        }
        assert_eq!(r.range(4.0, 4.0), 4.0);
        assert_eq!(r.range(9.0, 1.0), 9.0);
    }

    #[test]
    fn normal_has_sane_moments() {
        let mut r = SeededRng::new(11);
        let xs: Vec<f64> = (0..20_000).map(|_| r.normal()).collect();
        let m = crate::descriptive::mean(&xs);
        let sd = crate::descriptive::stddev(&xs);
        assert!(m.abs() < 0.05, "mean = {m}");
        assert!((sd - 1.0).abs() < 0.05, "sd = {sd}");
    }

    #[test]
    fn chance_matches_probability_roughly() {
        let mut r = SeededRng::new(5);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    fn weighted_index_prefers_heavy_weight() {
        let mut r = SeededRng::new(9);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[r.weighted_index(&[1.0, 8.0, 1.0])] += 1;
        }
        assert!(counts[1] > counts[0] * 4);
        assert!(counts[1] > counts[2] * 4);
    }

    #[test]
    fn weighted_index_all_zero_falls_back_to_uniform() {
        let mut r = SeededRng::new(13);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.weighted_index(&[0.0; 4])] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut root = SeededRng::new(21);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..16).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 16);
    }
}
