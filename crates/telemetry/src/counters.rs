//! The performance-dimension vocabulary and the aligned counter bundle.
//!
//! §3.2: "we focus primarily on the four performance dimensions of CPU,
//! memory, IOPs and latency. For customers that are specifically interested
//! in migrating towards Azure SQL DB, we include two additional dimensions
//! of log rate and storage."

use std::collections::BTreeMap;
use std::fmt;

use crate::series::TimeSeries;

/// A performance dimension tracked by the DMA collector.
///
/// Units are chosen so every dimension compares directly against the SKU
/// capacity of the same name: CPU in vCores consumed, memory in GB, IOPS in
/// operations/second, latency in milliseconds *observed/required* (lower is
/// better — the engine inverts it per Eq. 1), log rate in MB/s, and storage
/// in GB allocated.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum PerfDimension {
    /// Compute demand, vCores.
    Cpu,
    /// Memory demand, GB.
    Memory,
    /// Data IO operations per second.
    Iops,
    /// IO latency requirement, milliseconds (lower is better).
    IoLatency,
    /// Transaction-log write rate, MB/s (SQL DB assessments only).
    LogRate,
    /// Allocated data size, GB (SQL DB assessments only).
    Storage,
}

impl PerfDimension {
    /// All dimensions, in display order.
    pub const ALL: [PerfDimension; 6] = [
        PerfDimension::Cpu,
        PerfDimension::Memory,
        PerfDimension::Iops,
        PerfDimension::IoLatency,
        PerfDimension::LogRate,
        PerfDimension::Storage,
    ];

    /// True for dimensions where *smaller* observed values are more
    /// demanding (IO latency). Eq. 1 compares these via their inverse.
    pub fn inverted(&self) -> bool {
        matches!(self, PerfDimension::IoLatency)
    }

    /// Unit label for dashboards.
    pub fn unit(&self) -> &'static str {
        match self {
            PerfDimension::Cpu => "vCores",
            PerfDimension::Memory => "GB",
            PerfDimension::Iops => "IOPS",
            PerfDimension::IoLatency => "ms",
            PerfDimension::LogRate => "MB/s",
            PerfDimension::Storage => "GB",
        }
    }
}

impl fmt::Display for PerfDimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A bundle of aligned perf-counter series, one per collected dimension —
/// the "customer performance history" that is the key input to the
/// Price-Performance Modeler (§3.1).
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct PerfHistory {
    series: BTreeMap<PerfDimension, TimeSeries>,
}

impl PerfHistory {
    /// An empty history.
    pub fn new() -> PerfHistory {
        PerfHistory::default()
    }

    /// Insert (or replace) a dimension's series. Panics if the new series
    /// is misaligned with the other dimensions already present; the series
    /// it replaces does not count.
    pub fn insert(&mut self, dim: PerfDimension, series: TimeSeries) {
        if let Some(existing) = self.series.iter().find(|(d, _)| **d != dim).map(|(_, s)| s) {
            assert_eq!(existing.len(), series.len(), "misaligned series for {dim}");
            assert_eq!(
                existing.interval_minutes(),
                series.interval_minutes(),
                "interval mismatch for {dim}"
            );
        }
        self.series.insert(dim, series);
    }

    /// Builder-style insert.
    pub fn with(mut self, dim: PerfDimension, series: TimeSeries) -> PerfHistory {
        self.insert(dim, series);
        self
    }

    /// The series for a dimension, if collected.
    pub fn get(&self, dim: PerfDimension) -> Option<&TimeSeries> {
        self.series.get(&dim)
    }

    /// Raw values for a dimension, if collected.
    pub fn values(&self, dim: PerfDimension) -> Option<&[f64]> {
        self.series.get(&dim).map(|s| s.values())
    }

    /// Dimensions present, in canonical order.
    pub fn dimensions(&self) -> Vec<PerfDimension> {
        self.series.keys().copied().collect()
    }

    /// Number of aligned samples (0 for an empty history).
    pub fn len(&self) -> usize {
        self.series.values().next().map_or(0, |s| s.len())
    }

    /// True when no dimension has been collected.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty() || self.len() == 0
    }

    /// Sampling interval in minutes (defaults to 10 for empty histories).
    pub fn interval_minutes(&self) -> u32 {
        self.series
            .values()
            .next()
            .map_or(crate::series::DEFAULT_INTERVAL_MINUTES, |s| s.interval_minutes())
    }

    /// Duration covered, hours.
    pub fn duration_hours(&self) -> f64 {
        self.series.values().next().map_or(0.0, |s| s.duration_hours())
    }

    /// Iterate over `(dimension, series)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PerfDimension, &TimeSeries)> {
        self.series.iter().map(|(d, s)| (*d, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history() -> PerfHistory {
        PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![1.0, 2.0, 3.0]))
            .with(PerfDimension::Memory, TimeSeries::ten_minute(vec![4.0, 4.0, 4.0]))
    }

    #[test]
    fn insert_and_get_round_trip() {
        let h = history();
        assert_eq!(h.values(PerfDimension::Cpu), Some(&[1.0, 2.0, 3.0][..]));
        assert!(h.get(PerfDimension::Iops).is_none());
    }

    #[test]
    fn dimensions_are_canonically_ordered() {
        let h = PerfHistory::new()
            .with(PerfDimension::Iops, TimeSeries::ten_minute(vec![1.0]))
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![1.0]));
        assert_eq!(h.dimensions(), vec![PerfDimension::Cpu, PerfDimension::Iops]);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_series_rejected() {
        history().with(PerfDimension::Iops, TimeSeries::ten_minute(vec![1.0]));
    }

    #[test]
    fn replacing_the_only_series_may_change_its_length() {
        let h = PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![1.0; 4]))
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![2.0; 2]));
        assert_eq!(h.values(PerfDimension::Cpu), Some(&[2.0, 2.0][..]));
        assert_eq!(h.len(), 2);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn replacing_a_series_must_still_align_with_the_others() {
        history().with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![1.0]));
    }

    #[test]
    #[should_panic(expected = "interval mismatch")]
    fn interval_mismatch_rejected() {
        history().with(PerfDimension::Iops, TimeSeries::new(5, vec![1.0, 2.0, 3.0]));
    }

    #[test]
    fn len_and_duration_follow_first_series() {
        let h = history();
        assert_eq!(h.len(), 3);
        assert!((h.duration_hours() - 0.5).abs() < 1e-12);
        assert!(!h.is_empty());
        assert!(PerfHistory::new().is_empty());
    }

    #[test]
    fn window_slices_every_dimension() {
        let h = history().window(1, 3);
        assert_eq!(h.values(PerfDimension::Cpu), Some(&[2.0, 3.0][..]));
        assert_eq!(h.values(PerfDimension::Memory), Some(&[4.0, 4.0][..]));
    }

    #[test]
    fn latency_is_the_inverted_dimension() {
        assert!(PerfDimension::IoLatency.inverted());
        assert!(!PerfDimension::Cpu.inverted());
        assert!(!PerfDimension::LogRate.inverted());
    }

    #[test]
    fn units_are_labelled() {
        assert_eq!(PerfDimension::Cpu.unit(), "vCores");
        assert_eq!(PerfDimension::IoLatency.unit(), "ms");
    }
}
