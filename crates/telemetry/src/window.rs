//! Cutting windows out of perf histories.
//!
//! Bootstrapping (§3.4) draws contiguous sub-histories from a longer
//! history; a drift comparison (§5.2.3) may cut its baseline and fresh
//! windows the same way.

use crate::counters::PerfHistory;

impl PerfHistory {
    /// Contiguous sub-history over a sample range, every dimension sliced
    /// identically. The range is clamped to the history's bounds.
    pub fn window(&self, start: usize, end: usize) -> PerfHistory {
        let mut out = PerfHistory::new();
        for (dim, s) in self.iter() {
            out.insert(dim, s.slice(start, end));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::counters::{PerfDimension, PerfHistory};
    use crate::series::TimeSeries;

    fn history() -> PerfHistory {
        PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute((0..10).map(|i| i as f64).collect()))
            .with(
                PerfDimension::Iops,
                TimeSeries::ten_minute((0..10).map(|i| 10.0 * i as f64).collect()),
            )
    }

    #[test]
    fn window_slices_all_dimensions_identically() {
        let w = history().window(2, 5);
        assert_eq!(w.values(PerfDimension::Cpu), Some(&[2.0, 3.0, 4.0][..]));
        assert_eq!(w.values(PerfDimension::Iops), Some(&[20.0, 30.0, 40.0][..]));
    }
}
