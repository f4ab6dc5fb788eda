//! Evenly spaced time series at a fixed sampling interval.

use std::sync::Arc;

/// Default sampling interval of the DMA collector (§4): 10 minutes.
pub const DEFAULT_INTERVAL_MINUTES: u32 = 10;

/// An evenly spaced series of samples.
///
/// The sample buffer is immutable and `Arc`-shared: cloning a series (or
/// any request/history holding one) is a refcount bump, never a buffer
/// copy — what lets a fleet run re-submit multi-week telemetry windows
/// through queues and worker threads without re-allocating them per hop.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TimeSeries {
    /// Minutes between consecutive samples.
    interval_minutes: u32,
    values: Arc<[f64]>,
}

impl TimeSeries {
    /// A series from raw values at the given interval. Panics if the
    /// interval is zero; non-finite values are rejected because the
    /// pre-aggregator is the only sanctioned producer of raw data.
    pub fn new(interval_minutes: u32, values: Vec<f64>) -> TimeSeries {
        assert!(interval_minutes > 0, "zero sampling interval");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "non-finite sample in TimeSeries; run the pre-aggregator first"
        );
        TimeSeries { interval_minutes, values: values.into() }
    }

    /// A series at the standard 10-minute DMA interval.
    pub fn ten_minute(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new(DEFAULT_INTERVAL_MINUTES, values)
    }

    /// Sampling interval in minutes.
    pub fn interval_minutes(&self) -> u32 {
        self.interval_minutes
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total duration covered, in hours.
    pub fn duration_hours(&self) -> f64 {
        self.values.len() as f64 * self.interval_minutes as f64 / 60.0
    }

    /// The sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// A contiguous sub-series (clamped to bounds).
    pub fn slice(&self, start: usize, end: usize) -> TimeSeries {
        let end = end.min(self.values.len());
        let start = start.min(end);
        TimeSeries {
            interval_minutes: self.interval_minutes,
            values: self.values[start..end].into(),
        }
    }

    /// Element-wise sum of two aligned series (used by roll-up). Panics on
    /// interval or length mismatch.
    pub fn add(&self, other: &TimeSeries) -> TimeSeries {
        assert_eq!(self.interval_minutes, other.interval_minutes, "interval mismatch");
        assert_eq!(self.values.len(), other.values.len(), "length mismatch");
        TimeSeries {
            interval_minutes: self.interval_minutes,
            values: self.values.iter().zip(other.values.iter()).map(|(a, b)| a + b).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_minute_convenience_sets_interval() {
        let s = TimeSeries::ten_minute(vec![1.0, 2.0]);
        assert_eq!(s.interval_minutes(), 10);
    }

    #[test]
    #[should_panic(expected = "zero sampling interval")]
    fn zero_interval_rejected() {
        TimeSeries::new(0, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        TimeSeries::ten_minute(vec![1.0, f64::NAN]);
    }

    #[test]
    fn duration_of_a_day_of_ten_minute_samples() {
        let s = TimeSeries::ten_minute(vec![0.0; 144]);
        assert!((s.duration_hours() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn slice_clamps_to_bounds() {
        let s = TimeSeries::ten_minute(vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.slice(1, 3).values(), &[1.0, 2.0]);
        assert_eq!(s.slice(2, 99).values(), &[2.0, 3.0]);
        assert_eq!(s.slice(9, 99).len(), 0);
    }

    #[test]
    fn add_sums_elementwise() {
        let a = TimeSeries::ten_minute(vec![1.0, 2.0]);
        let b = TimeSeries::ten_minute(vec![10.0, 20.0]);
        assert_eq!(a.add(&b).values(), &[11.0, 22.0]);
    }

    #[test]
    fn clones_share_the_sample_buffer() {
        let a = TimeSeries::ten_minute(vec![1.5; 1024]);
        let b = a.clone();
        // A clone is a refcount bump, not a 1024-sample copy — the fleet
        // hot path re-submits windows without reallocating them.
        assert_eq!(a.values().as_ptr(), b.values().as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_rejects_misaligned_lengths() {
        let a = TimeSeries::ten_minute(vec![1.0]);
        let b = TimeSeries::ten_minute(vec![1.0, 2.0]);
        a.add(&b);
    }
}
