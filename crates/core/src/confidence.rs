//! The confidence score (§3.4, Figure 7).
//!
//! "This confidence score is derived by bootstrapping the raw customer
//! performance data, generating the respective price-performance curve,
//! profiling the workload based on the bootstrapped data, and obtaining the
//! optimal SKU from this process multiple times. … The confidence score is
//! the proportion of bootstrapped runs that have the same recommendation as
//! the original."
//!
//! The bootstrap draws *contiguous windows* (the profiler measures spike
//! durations, which point-resampling would destroy); Figure 10 sweeps the
//! window length and shows confidence saturating once windows pass a week.

use std::ops::Range;

use doppler_stats::BootstrapWindows;
use doppler_telemetry::PerfHistory;

/// Bootstrap configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ConfidenceConfig {
    /// Number of bootstrap replicates (runs of the full pipeline).
    pub replicates: usize,
    /// Window length in samples (e.g. `7 * 144` = one week of 10-minute
    /// counters).
    pub window_samples: usize,
    /// Seed for the window draws.
    pub seed: u64,
}

impl Default for ConfidenceConfig {
    fn default() -> ConfidenceConfig {
        ConfidenceConfig { replicates: 30, window_samples: 7 * 144, seed: 0 }
    }
}

/// Run the confidence bootstrap: re-run `recommend` on each windowed
/// replicate and report the fraction that reproduces `original`.
///
/// `recommend` is the *full* pipeline (curve + profiling + matching), not
/// just the curve — exactly as §3.4 prescribes. Returns 0.0 when no
/// replicates are requested or the history is empty.
pub fn confidence_score(
    history: &PerfHistory,
    original: &str,
    config: &ConfidenceConfig,
    mut recommend: impl FnMut(&PerfHistory) -> Option<String>,
) -> f64 {
    bootstrap_agreement(history.len(), config, |window| {
        recommend(&history.window(window.start, window.end)).as_deref() == Some(original)
    })
}

/// The bootstrap behind [`confidence_score`], over sample ranges: the
/// fraction of `config`'s windows of an `n`-sample history on which
/// `agrees` holds. Returns 0.0 when `n` or the replicate count is 0.
pub(crate) fn bootstrap_agreement(
    n: usize,
    config: &ConfidenceConfig,
    mut agrees: impl FnMut(Range<usize>) -> bool,
) -> f64 {
    if n == 0 || config.replicates == 0 {
        return 0.0;
    }
    let plan = BootstrapWindows::generate(n, config.window_samples, config.replicates, config.seed);
    let agree = plan.windows().iter().filter(|&window| agrees(window.clone())).count();
    agree as f64 / config.replicates as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_telemetry::{PerfDimension, TimeSeries};

    fn steady_history(n: usize) -> PerfHistory {
        PerfHistory::new().with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![1.0; n]))
    }

    /// A history whose first half is quiet and second half is busy: short
    /// windows land in one regime or the other and disagree.
    fn bimodal_history(n: usize) -> PerfHistory {
        let mut cpu = vec![0.5; n / 2];
        cpu.extend(vec![8.0; n - n / 2]);
        PerfHistory::new().with(PerfDimension::Cpu, TimeSeries::ten_minute(cpu))
    }

    /// A toy recommender: "big" if the window's mean CPU exceeds 2.
    fn toy_recommend(h: &PerfHistory) -> Option<String> {
        let m = doppler_stats::mean(h.values(PerfDimension::Cpu)?);
        Some(if m > 2.0 { "big".into() } else { "small".into() })
    }

    #[test]
    fn stable_workload_gets_full_confidence() {
        let h = steady_history(1000);
        let c = confidence_score(&h, "small", &ConfidenceConfig::default(), toy_recommend);
        assert_eq!(c, 1.0);
    }

    #[test]
    fn regime_switching_workload_gets_partial_confidence() {
        let h = bimodal_history(2000);
        let config = ConfidenceConfig { replicates: 100, window_samples: 100, seed: 3 };
        let c = confidence_score(&h, "big", &config, toy_recommend);
        assert!(c > 0.2 && c < 0.8, "confidence = {c}");
    }

    #[test]
    fn longer_windows_raise_confidence_on_mixed_workloads() {
        // The Figure 10 effect: windows long enough to span both regimes
        // converge on the full-history recommendation.
        let h = bimodal_history(2000);
        let full = toy_recommend(&h).unwrap();
        let short = confidence_score(
            &h,
            &full,
            &ConfidenceConfig { replicates: 60, window_samples: 50, seed: 5 },
            toy_recommend,
        );
        let long = confidence_score(
            &h,
            &full,
            &ConfidenceConfig { replicates: 60, window_samples: 1600, seed: 5 },
            toy_recommend,
        );
        assert!(long > short, "short {short} !< long {long}");
        assert!(long > 0.9, "long-window confidence = {long}");
    }

    #[test]
    fn empty_history_scores_zero() {
        let c =
            confidence_score(&PerfHistory::new(), "x", &ConfidenceConfig::default(), toy_recommend);
        assert_eq!(c, 0.0);
    }

    #[test]
    fn zero_replicates_scores_zero() {
        let h = steady_history(100);
        let config = ConfidenceConfig { replicates: 0, ..Default::default() };
        assert_eq!(confidence_score(&h, "small", &config, toy_recommend), 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let h = bimodal_history(1000);
        let config = ConfidenceConfig { replicates: 40, window_samples: 80, seed: 9 };
        let a = confidence_score(&h, "big", &config, toy_recommend);
        let b = confidence_score(&h, "big", &config, toy_recommend);
        assert_eq!(a, b);
    }

    #[test]
    fn disagreement_with_original_lowers_score() {
        let h = steady_history(500);
        // The toy recommender always says "small" here; asking about "big"
        // scores zero.
        let c = confidence_score(&h, "big", &ConfidenceConfig::default(), toy_recommend);
        assert_eq!(c, 0.0);
    }
}
