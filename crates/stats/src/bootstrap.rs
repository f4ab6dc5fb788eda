//! Contiguous-window bootstrapping for the confidence score (§3.4, Fig. 7).
//!
//! The Doppler confidence score repeatedly re-runs the whole recommendation
//! pipeline on "a random subset of the data". Because perf counters are
//! time series, the subsets are *contiguous windows* — resampling individual
//! points would destroy the spike durations the profiler measures. Figure 10
//! then studies how the score moves as the window length grows.

use std::ops::Range;

use crate::rng::SeededRng;

/// Draws random contiguous windows out of a series of known length.
#[derive(Debug, Clone, Copy)]
pub struct WindowSampler {
    series_len: usize,
    window_len: usize,
}

impl WindowSampler {
    /// A sampler for windows of `window_len` points over a series of
    /// `series_len` points. The window is clamped to the series length, so
    /// asking for more data than exists degrades to "the whole series".
    /// Panics when the series is empty.
    pub fn new(series_len: usize, window_len: usize) -> WindowSampler {
        assert!(series_len > 0, "cannot bootstrap an empty series");
        WindowSampler { series_len, window_len: window_len.clamp(1, series_len) }
    }

    /// The effective window length after clamping.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Draw one window.
    pub fn sample(&self, rng: &mut SeededRng) -> Range<usize> {
        let slack = self.series_len - self.window_len;
        let start = if slack == 0 { 0 } else { rng.index(slack + 1) };
        start..start + self.window_len
    }
}

/// A full bootstrap plan: `replicates` windows drawn deterministically from
/// a seed.
#[derive(Debug, Clone)]
pub struct BootstrapWindows {
    windows: Vec<Range<usize>>,
}

impl BootstrapWindows {
    /// Generate `replicates` windows of `window_len` points over a series of
    /// `series_len` points.
    pub fn generate(
        series_len: usize,
        window_len: usize,
        replicates: usize,
        seed: u64,
    ) -> BootstrapWindows {
        let sampler = WindowSampler::new(series_len, window_len);
        let mut rng = SeededRng::new(seed);
        let windows = (0..replicates).map(|_| sampler.sample(&mut rng)).collect();
        BootstrapWindows { windows }
    }

    /// The planned windows.
    pub fn windows(&self) -> &[Range<usize>] {
        &self.windows
    }

    /// Number of replicates.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when no replicates were requested.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_stay_in_bounds() {
        let b = BootstrapWindows::generate(1000, 100, 200, 7);
        for w in b.windows() {
            assert!(w.end <= 1000);
            assert_eq!(w.end - w.start, 100);
        }
    }

    #[test]
    fn oversized_window_clamps_to_full_series() {
        let b = BootstrapWindows::generate(50, 500, 10, 7);
        for w in b.windows() {
            assert_eq!(w.clone(), 0..50);
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let a = BootstrapWindows::generate(1000, 64, 32, 99);
        let b = BootstrapWindows::generate(1000, 64, 32, 99);
        assert_eq!(a.windows(), b.windows());
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let a = BootstrapWindows::generate(1000, 64, 32, 1);
        let b = BootstrapWindows::generate(1000, 64, 32, 2);
        assert_ne!(a.windows(), b.windows());
    }

    #[test]
    fn starts_cover_the_series() {
        // With many replicates the window starts should spread broadly.
        let b = BootstrapWindows::generate(1000, 10, 500, 3);
        let min_start = b.windows().iter().map(|w| w.start).min().unwrap();
        let max_start = b.windows().iter().map(|w| w.start).max().unwrap();
        assert!(min_start < 100);
        assert!(max_start > 850);
    }

    #[test]
    fn zero_replicates_is_empty() {
        let b = BootstrapWindows::generate(10, 5, 0, 1);
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty series")]
    fn empty_series_panics() {
        WindowSampler::new(0, 5);
    }
}
