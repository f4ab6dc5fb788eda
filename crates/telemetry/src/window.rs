//! Splitting and stitching perf histories.
//!
//! The drift study of §5.2.3 compares the curves generated *before* and
//! *after* a SKU change by splitting the history at the change point. A
//! single contiguous window is [`PerfHistory::window`].

use crate::counters::PerfHistory;

/// Split a history at a sample index into (before, after).
pub fn split_at(history: &PerfHistory, at: usize) -> (PerfHistory, PerfHistory) {
    let n = history.len();
    let at = at.min(n);
    (history.window(0, at), history.window(at, n))
}

/// Concatenate two histories sample-wise: for every dimension present in
/// `a`, `b`'s samples for the same dimension are appended, at `a`'s
/// sampling interval. The inverse of [`split_at`] — the drift monitor
/// stitches a customer's baseline window and its freshest telemetry window
/// back into the one continuous history `detect_drift` splits. `a` defines
/// the schema: dimensions present only in `b` are ignored, and (because a
/// history's series must stay aligned) a non-empty `b` missing one of
/// `a`'s dimensions panics.
pub fn concat(a: &PerfHistory, b: &PerfHistory) -> PerfHistory {
    let mut out = PerfHistory::new();
    for (dim, series) in a.iter() {
        let mut values = series.values().to_vec();
        if let Some(tail) = b.values(dim) {
            values.extend_from_slice(tail);
        }
        out.insert(dim, crate::series::TimeSeries::new(series.interval_minutes(), values));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::PerfDimension;
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

    #[test]
    fn split_partitions_without_overlap() {
        let (before, after) = split_at(&history(), 4);
        assert_eq!(before.len(), 4);
        assert_eq!(after.len(), 6);
        assert_eq!(before.values(PerfDimension::Cpu).unwrap().last(), Some(&3.0));
        assert_eq!(after.values(PerfDimension::Cpu).unwrap().first(), Some(&4.0));
    }

    #[test]
    fn concat_inverts_split() {
        let h = history();
        let (before, after) = split_at(&h, 6);
        assert_eq!(concat(&before, &after), h);
    }

    #[test]
    fn concat_keeps_the_left_schema() {
        let h = history();
        let extra = PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![99.0]))
            .with(PerfDimension::Iops, TimeSeries::ten_minute(vec![3.0]))
            .with(PerfDimension::Memory, TimeSeries::ten_minute(vec![1.0]));
        let joined = concat(&h, &extra);
        assert_eq!(joined.values(PerfDimension::Cpu).unwrap().last(), Some(&99.0));
        assert_eq!(joined.values(PerfDimension::Cpu).unwrap().len(), 11);
        // Memory exists only on the right: dropped — `a` is the schema.
        assert_eq!(joined.values(PerfDimension::Memory), None);
        // An empty right side is the identity.
        assert_eq!(concat(&h, &PerfHistory::new()), h);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn concat_rejects_a_partial_right_side() {
        // A non-empty right side missing one of the left's dimensions
        // would produce ragged series; the history invariant catches it.
        let h = history();
        let partial =
            PerfHistory::new().with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![1.0]));
        let _ = concat(&h, &partial);
    }

    #[test]
    fn split_at_zero_and_past_end() {
        let (b, a) = split_at(&history(), 0);
        assert_eq!(b.len(), 0);
        assert_eq!(a.len(), 10);
        let (b, a) = split_at(&history(), 99);
        assert_eq!(b.len(), 10);
        assert_eq!(a.len(), 0);
    }
}
