//! The resource-throttling probability of Eq. 1 — Doppler's performance
//! proxy.
//!
//! For customer *n* and SKU *i*:
//!
//! ```text
//! P_n(SKU_i) = P( r_CPU > R_CPU  ∪  r_RAM > R_RAM  ∪ … ∪  r_IOPS > R_IOPS )
//! ```
//!
//! estimated non-parametrically: "calculating the frequency with which all
//! performance dimensions are satisfied by each SKU, at each time point"
//! (§3.2). The estimate is *joint* — one indicator per time sample over the
//! union of dimension exceedances — so cross-dimension correlation is
//! handled for free, where assuming independence would misestimate it.
//!
//! IO latency is the one inverted dimension: "IO latency is taken as the
//! inverse of the actual IO latency in order to calculate the effect of
//! this performance dimension relative to an upper bound". Concretely, a
//! sample throttles on latency when the workload *requires* a latency
//! tighter than the SKU's minimum achievable one.
//!
//! [`throttling_probability`] scores one SKU by walking every sample and
//! dimension. A curve scores every SKU of a catalog on the same samples,
//! so [`ExceedanceMasks`] does that work once for all of them. Sort one
//! dimension's SKU capacities ascending (descending for the inverted
//! latency dimension): the SKUs a sample throttles on that dimension are
//! then a *prefix* of the order, whose length (the sample's *level*) never
//! falls as the demand rises (never rises, for latency). Each prefix has a
//! precomputed bitset of `ceil(S / 64)` words for `S` SKUs, and the OR of
//! a sample's prefix bitsets over its dimensions is the set of SKUs that
//! sample throttles. Prefixes nest, so the series' extremes settle most of
//! it: the level of the minimum and of the maximum bound every sample's
//! level, the lower bound's bitset is shared by every sample, and only the
//! samples above it search, among the levels up to the upper bound. A
//! dimension whose extremes share a level costs no pass over its samples
//! at all. Counting set bits gives each SKU's throttled samples. The
//! bitset every sample shares (the *base*) is also kept apart, so a count
//! adds each sample's bits beyond it, then the base's SKUs once, by the
//! range's length. [`BoundaryCounts`]
//! walks the masks once and keeps the counts at a few sample boundaries
//! (a bootstrap's window ends), so a window's counts cost O(S). The counts
//! are the same integers the scalar walk produces, divided the same way by
//! [`throttled_fraction`], so every score is bit-identical to
//! [`throttling_probability`].

use std::ops::Range;

use doppler_catalog::ResourceCaps;
use doppler_telemetry::{PerfDimension, PerfHistory};

/// The capacity a SKU exposes for one dimension. Every dimension is
/// assessed for every deployment; MI histories carry log rate too.
fn capacity(caps: &ResourceCaps, dim: PerfDimension) -> f64 {
    match dim {
        PerfDimension::Cpu => caps.vcores,
        PerfDimension::Memory => caps.memory_gb,
        PerfDimension::Iops => caps.iops,
        PerfDimension::IoLatency => caps.min_io_latency_ms,
        PerfDimension::LogRate => caps.log_rate_mbps,
        PerfDimension::Storage => caps.max_data_gb,
    }
}

/// Whether a single sample exceeds a single capacity.
#[inline]
fn exceeds(dim: PerfDimension, demand: f64, cap: f64) -> bool {
    if dim.inverted() {
        // The workload needs a latency *tighter* than the SKU can deliver.
        demand < cap
    } else {
        demand > cap
    }
}

/// `count` throttled samples out of `n` as a probability; 0 when `n` is 0
/// (no evidence of demand).
pub fn throttled_fraction(count: usize, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        count as f64 / n as f64
    }
}

/// Joint throttling probability of Eq. 1: the fraction of time samples at
/// which at least one collected dimension exceeds the SKU's capacity.
///
/// An empty history throttles with probability 0 (no evidence of demand).
/// This is the one-SKU scalar form; [`ExceedanceMasks`] computes the same
/// counts for a whole SKU list at once.
pub fn throttling_probability(history: &PerfHistory, caps: &ResourceCaps) -> f64 {
    let n = history.len();
    // Collect (dim, values, cap) triples once to keep the hot loop tight.
    let dims: Vec<(PerfDimension, &[f64], f64)> =
        history.iter().map(|(dim, series)| (dim, series.values(), capacity(caps, dim))).collect();
    let mut throttled = 0usize;
    for t in 0..n {
        for &(dim, values, cap) in &dims {
            if exceeds(dim, values[t], cap) {
                throttled += 1;
                break;
            }
        }
    }
    throttled_fraction(throttled, n)
}

/// For every sample of one history, the set of SKUs (from a caller-ordered
/// capacity list) that the sample throttles: bit `s` of sample `t`'s mask
/// is set when SKU `s` throttles at `t`, exactly when
/// [`throttling_probability`] would count that sample against it.
#[derive(Debug, Clone)]
pub struct ExceedanceMasks {
    skus: usize,
    /// `u64` words per sample: `ceil(skus / 64)`, at least 1.
    words: usize,
    /// Sample-major masks, `words` per sample.
    bits: Vec<u64>,
    /// The SKUs every sample throttles (set in every mask of `bits` too),
    /// held apart so a count adds only the bits beyond it.
    base: Vec<u64>,
}

impl ExceedanceMasks {
    /// Build the masks of `history` against `caps`, one entry per SKU.
    ///
    /// A sample's level (how many of a dimension's capacity levels it
    /// exceeds) is monotone in its demand, so the series' extremes bound
    /// every sample's level to `k_lo..=k_hi`. Prefixes nest, so every
    /// sample throttles the SKUs of `prefix[k_lo]`: those go into one base
    /// mask shared by all samples, ORed into every sample last. A dimension
    /// with `k_lo == k_hi` needs no pass over its samples; otherwise only
    /// the samples above `k_lo` search, and only the levels up to `k_hi`.
    pub fn new(history: &PerfHistory, caps: &[ResourceCaps]) -> ExceedanceMasks {
        let skus = caps.len();
        assert!(u32::try_from(history.len()).is_ok(), "too many samples for u32 counts");
        let words = skus.div_ceil(64).max(1);
        let mut bits = vec![0u64; history.len() * words];
        let mut base = vec![0u64; words];
        if history.is_empty() {
            return ExceedanceMasks { skus, words, bits, base };
        }
        let mut table = LevelTable::new(skus, words);
        for (dim, series) in history.iter() {
            table.build(caps, dim);
            if dim.inverted() {
                table.apply(&mut bits, &mut base, series.values(), |v, c| v < c);
            } else {
                table.apply(&mut bits, &mut base, series.values(), |v, c| v > c);
            }
        }
        for mask in bits.chunks_exact_mut(words) {
            or_into(mask, &base);
        }
        ExceedanceMasks { skus, words, bits, base }
    }

    /// [`new`](Self::new) as one full binary search per sample and
    /// dimension: the oracle the range-clamped build must equal word for
    /// word.
    #[cfg(test)]
    fn new_reference(history: &PerfHistory, caps: &[ResourceCaps]) -> ExceedanceMasks {
        let skus = caps.len();
        let words = skus.div_ceil(64).max(1);
        let mut bits = vec![0u64; history.len() * words];
        let mut table = LevelTable::new(skus, words);
        for (dim, series) in history.iter() {
            table.build(caps, dim);
            for (mask, &v) in bits.chunks_exact_mut(words).zip(series.values()) {
                let k = if dim.inverted() {
                    table.level(v, |v, c| v < c)
                } else {
                    table.level(v, |v, c| v > c)
                };
                or_into(mask, table.prefix(k));
            }
        }
        ExceedanceMasks { skus, words, bits, base: vec![0u64; words] }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.bits.len() / self.words
    }

    /// True when the history had no samples.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The throttled-SKU bitset of sample `t`.
    pub(crate) fn sample(&self, t: usize) -> &[u64] {
        &self.bits[t * self.words..(t + 1) * self.words]
    }

    /// Per-SKU throttled-sample counts over the sample range `range`.
    pub fn counts(&self, range: Range<usize>) -> Vec<u32> {
        let mut counts = vec![0u32; self.skus];
        self.add_beyond_base(&mut counts, range.clone());
        add_base(&mut counts, &self.base, range.len());
        counts
    }

    /// Add to `counts` the bits beyond the base of every sample in `range`.
    fn add_beyond_base(&self, counts: &mut [u32], range: Range<usize>) {
        let masks = &self.bits[range.start * self.words..range.end * self.words];
        for mask in masks.chunks_exact(self.words) {
            for (w, (&word, &base)) in mask.iter().zip(&self.base).enumerate() {
                add_word(counts, w, word & !base, 1);
            }
        }
    }
}

/// Add `samples` to the count of every SKU in `base`: each throttles every
/// one of those samples.
fn add_base(counts: &mut [u32], base: &[u64], samples: usize) {
    // `ExceedanceMasks::new` checked that the sample count fits a `u32`.
    let samples = samples as u32;
    for (w, &word) in base.iter().enumerate() {
        add_word(counts, w, word, samples);
    }
}

/// Per-SKU throttled-sample counts of one [`ExceedanceMasks`] at a set of
/// sample boundaries, from one walk of the masks: the counts over any
/// range between two boundaries are one difference. The §3.4 bootstrap
/// walks once for its windows' ends plus `0` and `n` (the full curve), so
/// it keeps about 60 rows of counts rather than one per sample.
#[derive(Debug, Clone)]
pub struct BoundaryCounts {
    /// The distinct boundaries, ascending.
    boundaries: Vec<usize>,
    /// Row `i` holds the counts of the bits beyond the masks' base over
    /// samples `0..boundaries[i]`, one `u32` per SKU.
    rows: Vec<u32>,
    /// The masks' base: its SKUs throttle every sample of any range.
    base: Vec<u64>,
    skus: usize,
}

impl BoundaryCounts {
    /// Walk `masks` once, keeping the counts at every boundary (in any
    /// order, repeats allowed). Panics when a boundary passes the masks'
    /// sample count.
    pub fn new(
        masks: &ExceedanceMasks,
        boundaries: impl IntoIterator<Item = usize>,
    ) -> BoundaryCounts {
        let mut boundaries: Vec<usize> = boundaries.into_iter().collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        assert!(boundaries.last().is_none_or(|&b| b <= masks.len()), "boundary past the samples");
        let skus = masks.skus;
        let mut rows = Vec::with_capacity(boundaries.len() * skus);
        let mut counts = vec![0u32; skus];
        let mut walked = 0;
        for &b in &boundaries {
            masks.add_beyond_base(&mut counts, walked..b);
            walked = b;
            rows.extend_from_slice(&counts);
        }
        BoundaryCounts { boundaries, rows, base: masks.base.clone(), skus }
    }

    /// Per-SKU throttled-sample counts over the sample range `range`, whose
    /// ends must both be boundaries: equal to
    /// [`ExceedanceMasks::counts`]`(range)`. Panics otherwise.
    pub fn counts(&self, range: Range<usize>) -> Vec<u32> {
        let row = |b: usize| {
            let i = self.boundaries.binary_search(&b).expect("range ends on boundaries");
            &self.rows[i * self.skus..(i + 1) * self.skus]
        };
        let (lo, hi) = (row(range.start), row(range.end));
        let mut counts: Vec<u32> = hi.iter().zip(lo).map(|(h, l)| h - l).collect();
        add_base(&mut counts, &self.base, range.len());
        counts
    }
}

/// One dimension's capacity levels over a SKU list, reused across
/// dimensions.
struct LevelTable {
    /// `u64` words per bitset.
    words: usize,
    /// SKU indices in the order a rising demand exceeds them.
    order: Vec<usize>,
    /// The distinct capacities in that order; NaN capacities come last.
    levels: Vec<f64>,
    /// `words` words per entry: entry `k` is the bitset of every SKU at the
    /// first `k` levels, so entry `k` is a subset of entry `k + 1`.
    prefix: Vec<u64>,
}

impl LevelTable {
    fn new(skus: usize, words: usize) -> LevelTable {
        LevelTable {
            words,
            order: (0..skus).collect(),
            levels: Vec::with_capacity(skus),
            prefix: vec![0u64; (skus + 1) * words],
        }
    }

    /// Rebuild the table for `dim`. The SKUs a demand exceeds come first:
    /// ascending capacity, or descending for inverted latency. A NaN
    /// capacity is never exceeded, so it sorts last in both directions.
    fn build(&mut self, caps: &[ResourceCaps], dim: PerfDimension) {
        let words = self.words;
        let inverted = dim.inverted();
        let cap = |s: usize| capacity(&caps[s], dim);
        self.order.sort_by(|&a, &b| {
            let (a, b) = (cap(a), cap(b));
            let by_cap = if inverted { b.total_cmp(&a) } else { a.total_cmp(&b) };
            a.is_nan().cmp(&b.is_nan()).then(by_cap)
        });
        self.levels.clear();
        for &s in &self.order {
            let c = cap(s);
            if self.levels.last() != Some(&c) {
                self.levels.push(c);
                let k = self.levels.len() - 1;
                let (done, next) = self.prefix.split_at_mut((k + 1) * words);
                next[..words].copy_from_slice(&done[k * words..]);
            }
            let k = self.levels.len();
            self.prefix[k * words + s / 64] |= 1 << (s % 64);
        }
    }

    /// The number of levels a demand `v` exceeds, where `exceeds(v, c)` is
    /// the dimension's test: the index of its throttled-SKU prefix.
    #[inline]
    fn level(&self, v: f64, exceeds: impl Fn(f64, f64) -> bool) -> usize {
        self.levels.partition_point(|&c| exceeds(v, c))
    }

    /// The bitset of every SKU at the first `k` levels.
    fn prefix(&self, k: usize) -> &[u64] {
        &self.prefix[k * self.words..(k + 1) * self.words]
    }

    /// OR one dimension's throttled SKUs into the masks: the SKUs every
    /// sample throttles into `base`, the rest into `bits` sample by sample.
    fn apply(
        &self,
        bits: &mut [u64],
        base: &mut [u64],
        values: &[f64],
        exceeds: impl Fn(f64, f64) -> bool + Copy,
    ) {
        // Samples are finite (`TimeSeries` rejects anything else), so the
        // extremes bound every sample's level.
        let (lo, hi) = extremes(values);
        let (a, b) = (self.level(lo, exceeds), self.level(hi, exceeds));
        let (k_lo, k_hi) = (a.min(b), a.max(b));
        or_into(base, self.prefix(k_lo));
        if k_lo == k_hi {
            return;
        }
        // Some sample exceeds level `k_lo`, so it exists and is not NaN.
        let floor = self.levels[k_lo];
        let above = &self.levels[k_lo + 1..k_hi];
        for (mask, &v) in bits.chunks_exact_mut(self.words).zip(values) {
            if exceeds(v, floor) {
                let k = k_lo + 1 + above.partition_point(|&c| exceeds(v, c));
                or_into(mask, self.prefix(k));
            }
        }
    }
}

/// The smallest and largest of `values`, in four independent lanes.
pub(crate) fn extremes(values: &[f64]) -> (f64, f64) {
    let mut lo = [f64::INFINITY; 4];
    let mut hi = [f64::NEG_INFINITY; 4];
    let chunks = values.chunks_exact(4);
    let rest = chunks.remainder();
    for chunk in chunks {
        for j in 0..4 {
            lo[j] = if chunk[j] < lo[j] { chunk[j] } else { lo[j] };
            hi[j] = if chunk[j] > hi[j] { chunk[j] } else { hi[j] };
        }
    }
    for (j, &v) in rest.iter().enumerate() {
        lo[j] = if v < lo[j] { v } else { lo[j] };
        hi[j] = if v > hi[j] { v } else { hi[j] };
    }
    (lo.into_iter().fold(f64::INFINITY, f64::min), hi.into_iter().fold(f64::NEG_INFINITY, f64::max))
}

/// `mask |= other`, word by word.
#[inline]
fn or_into(mask: &mut [u64], other: &[u64]) {
    for (m, o) in mask.iter_mut().zip(other) {
        *m |= o;
    }
}

/// Add 1 to `counts[s]` for every bit `s` set in `mask`.
#[inline]
pub(crate) fn add_bits(counts: &mut [u32], mask: &[u64]) {
    for (w, &word) in mask.iter().enumerate() {
        add_word(counts, w, word, 1);
    }
}

/// Add `by` to `counts[w * 64 + b]` for every bit `b` set in `word`.
#[inline]
fn add_word(counts: &mut [u32], w: usize, mut word: u64, by: u32) {
    while word != 0 {
        counts[w * 64 + word.trailing_zeros() as usize] += by;
        word &= word - 1;
    }
}

/// Set `hits[t]` wherever `values[t]` exceeds; returns how many do.
#[inline]
fn mark_exceedances(hits: &mut [u8], values: &[f64], exceeds: impl Fn(f64) -> bool) -> usize {
    let mut count = 0;
    for (hit, &v) in hits.iter_mut().zip(values) {
        let e = u8::from(exceeds(v));
        *hit |= e;
        count += usize::from(e);
    }
    count
}

/// Per-dimension exceedance fractions plus the joint probability; feeds the
/// explanation module ("why did this SKU score 0.82?").
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ThrottleBreakdown {
    /// `(dimension, fraction of samples exceeding capacity)`, one entry per
    /// collected dimension, in canonical order.
    pub per_dimension: Vec<(PerfDimension, f64)>,
    /// The joint union probability (what Eq. 1 reports).
    pub joint: f64,
}

impl ThrottleBreakdown {
    /// Compute the breakdown for one SKU in one pass per dimension: each
    /// dimension counts its exceedances and marks them in a per-sample hit
    /// buffer, whose count is the joint union of
    /// [`throttling_probability`].
    pub fn compute(history: &PerfHistory, caps: &ResourceCaps) -> ThrottleBreakdown {
        let n = history.len();
        let mut hits = vec![0u8; n];
        let per_dimension = history
            .iter()
            .map(|(dim, series)| {
                let cap = capacity(caps, dim);
                let values = series.values();
                let count = if dim.inverted() {
                    mark_exceedances(&mut hits, values, |v| v < cap)
                } else {
                    mark_exceedances(&mut hits, values, |v| v > cap)
                };
                (dim, throttled_fraction(count, n))
            })
            .collect();
        let joint = hits.iter().map(|&h| usize::from(h)).sum();
        ThrottleBreakdown { per_dimension, joint: throttled_fraction(joint, n) }
    }

    /// The dimension with the highest individual exceedance, if any
    /// exceeds at all — the bottleneck the explanation names.
    pub fn bottleneck(&self) -> Option<(PerfDimension, f64)> {
        self.per_dimension
            .iter()
            .copied()
            .filter(|&(_, f)| f > 0.0)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fractions"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_telemetry::TimeSeries;

    fn caps(vcores: f64, memory: f64, iops: f64, latency: f64) -> ResourceCaps {
        ResourceCaps {
            vcores,
            memory_gb: memory,
            max_data_gb: 1024.0,
            iops,
            log_rate_mbps: 100.0,
            min_io_latency_ms: latency,
            throughput_mbps: 1000.0,
        }
    }

    fn history(cpu: Vec<f64>, latency: Vec<f64>) -> PerfHistory {
        PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(cpu))
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(latency))
    }

    #[test]
    fn empty_history_never_throttles() {
        assert_eq!(throttling_probability(&PerfHistory::new(), &caps(2.0, 10.0, 600.0, 5.0)), 0.0);
    }

    #[test]
    fn ample_capacity_never_throttles() {
        let h = history(vec![1.0, 1.5, 1.8], vec![6.0, 6.0, 6.0]);
        assert_eq!(throttling_probability(&h, &caps(2.0, 10.0, 600.0, 5.0)), 0.0);
    }

    #[test]
    fn cpu_exceedance_counts_per_sample() {
        let h = history(vec![1.0, 3.0, 1.0, 3.0], vec![6.0; 4]);
        assert_eq!(throttling_probability(&h, &caps(2.0, 10.0, 600.0, 5.0)), 0.5);
    }

    #[test]
    fn latency_dimension_is_inverted() {
        // The workload requires 1 ms at half the samples; a 5 ms-floor SKU
        // throttles exactly there.
        let h = history(vec![1.0; 4], vec![1.0, 6.0, 1.0, 6.0]);
        assert_eq!(throttling_probability(&h, &caps(2.0, 10.0, 600.0, 5.0)), 0.5);
        // A 1 ms-floor (BC-like) SKU satisfies all samples.
        assert_eq!(throttling_probability(&h, &caps(2.0, 10.0, 600.0, 1.0)), 0.0);
    }

    #[test]
    fn union_does_not_double_count_correlated_exceedance() {
        // CPU and latency exceed at the SAME samples: the union is 0.5,
        // not 1 - (1-0.5)(1-0.5) = 0.75.
        let h = history(vec![3.0, 1.0, 3.0, 1.0], vec![1.0, 6.0, 1.0, 6.0]);
        assert_eq!(throttling_probability(&h, &caps(2.0, 10.0, 600.0, 5.0)), 0.5);
    }

    #[test]
    fn union_adds_disjoint_exceedances() {
        // CPU exceeds at samples 0-1, latency at samples 2-3: union = 1.0.
        let h = history(vec![3.0, 3.0, 1.0, 1.0], vec![6.0, 6.0, 1.0, 1.0]);
        assert_eq!(throttling_probability(&h, &caps(2.0, 10.0, 600.0, 5.0)), 1.0);
    }

    #[test]
    fn probability_is_monotone_in_capacity() {
        let h =
            history((0..100).map(|i| (i % 10) as f64).collect(), (0..100).map(|_| 6.0).collect());
        let mut last = 1.0;
        for vcores in [1.0, 3.0, 5.0, 8.0, 12.0] {
            let p = throttling_probability(&h, &caps(vcores, 100.0, 1e6, 5.0));
            assert!(p <= last + 1e-12, "p not monotone at {vcores} vCores");
            last = p;
        }
    }

    #[test]
    fn breakdown_reports_bottleneck() {
        // CPU exceeds at t=0,1,2; latency only at t=0 (overlapping): the
        // joint union is 0.75 and CPU is the named bottleneck.
        let h = history(vec![3.0, 3.0, 3.0, 1.0], vec![1.0, 6.0, 6.0, 6.0]);
        let b = ThrottleBreakdown::compute(&h, &caps(2.0, 10.0, 600.0, 5.0));
        assert_eq!(b.joint, 0.75);
        let (dim, frac) = b.bottleneck().unwrap();
        assert_eq!(dim, PerfDimension::Cpu);
        assert_eq!(frac, 0.75);
        let lat = b.per_dimension.iter().find(|(d, _)| *d == PerfDimension::IoLatency).unwrap();
        assert_eq!(lat.1, 0.25);
    }

    #[test]
    fn breakdown_of_satisfied_workload_has_no_bottleneck() {
        let h = history(vec![0.5; 3], vec![6.0; 3]);
        let b = ThrottleBreakdown::compute(&h, &caps(2.0, 10.0, 600.0, 5.0));
        assert_eq!(b.joint, 0.0);
        assert!(b.bottleneck().is_none());
    }

    /// SplitMix64 for the mask cases.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A coarse grid, so demands land on capacities and capacities tie.
        fn grid(&mut self) -> f64 {
            self.below(20) as f64 * 0.5
        }
    }

    /// A history of `n` samples against `skus` capacity sets. Each
    /// dimension is absent, constant on a capacity, constant off the grid,
    /// spread over the grid, or spread with its min or max on a capacity.
    /// One capacity in 16 is NaN.
    fn mask_case(rng: &mut Rng, n: usize, skus: usize) -> (PerfHistory, Vec<ResourceCaps>) {
        let level = |rng: &mut Rng| if rng.below(16) == 0 { f64::NAN } else { rng.grid() };
        let caps: Vec<ResourceCaps> = (0..skus)
            .map(|_| ResourceCaps {
                vcores: level(rng),
                memory_gb: level(rng),
                max_data_gb: level(rng),
                iops: level(rng),
                log_rate_mbps: level(rng),
                min_io_latency_ms: level(rng),
                throughput_mbps: level(rng),
            })
            .collect();
        let mut history = PerfHistory::new();
        for dim in PerfDimension::ALL {
            let on_cap = |rng: &mut Rng| {
                let c = if skus == 0 { f64::NAN } else { capacity(&caps[rng.below(skus)], dim) };
                if c.is_nan() {
                    rng.grid()
                } else {
                    c
                }
            };
            let values: Vec<f64> = match rng.below(5) {
                0 => continue,
                1 => vec![on_cap(rng); n],
                2 => vec![0.25 + rng.grid(); n],
                3 => (0..n).map(|_| rng.grid()).collect(),
                _ => {
                    let c = on_cap(rng);
                    let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                    let mut values: Vec<f64> =
                        (0..n).map(|_| c + sign * rng.below(6) as f64 * 0.5).collect();
                    if n > 0 {
                        let t = rng.below(n);
                        values[t] = c;
                    }
                    values
                }
            };
            history.insert(dim, TimeSeries::ten_minute(values));
        }
        (history, caps)
    }

    #[test]
    fn range_clamped_masks_equal_the_full_search() {
        let mut rng = Rng(7);
        for n in [0, 1, 2, 2016] {
            for skus in [0, 1, 28, 63, 64, 65, 150] {
                for _ in 0..8 {
                    let (h, caps) = mask_case(&mut rng, n, skus);
                    let got = ExceedanceMasks::new(&h, &caps);
                    let want = ExceedanceMasks::new_reference(&h, &caps);
                    assert_eq!(got.words, want.words);
                    assert!(
                        got.bits == want.bits,
                        "{n} samples, {skus} SKUs: {:?}",
                        h.dimensions()
                    );
                }
            }
        }
    }

    /// The per-SKU counts over `range`, one full mask at a time, with the
    /// base counted in every sample: the oracle for both count paths.
    fn counts_by_sample(masks: &ExceedanceMasks, range: Range<usize>) -> Vec<u32> {
        let mut counts = vec![0u32; masks.skus];
        for t in range {
            add_bits(&mut counts, masks.sample(t));
        }
        counts
    }

    #[test]
    fn boundary_counts_equal_the_range_counts() {
        let mut rng = Rng(11);
        for n in [0, 1, 2, 7, 2016] {
            for skus in [0, 1, 28, 64, 65, 150] {
                for _ in 0..6 {
                    let (h, caps) = mask_case(&mut rng, n, skus);
                    let masks = ExceedanceMasks::new(&h, &caps);
                    // Empty ranges (at both ends and inside), the full one,
                    // one repeated, and random spans, some sharing ends.
                    let mut ranges = vec![0..0, n..n, 0..n, 0..n];
                    for _ in 0..12 {
                        let (a, b) = (rng.below(n + 1), rng.below(n + 1));
                        ranges.push(a.min(b)..a.max(b));
                    }
                    let t = rng.below(n + 1);
                    ranges.extend([t..t, 0..t, t..n]);
                    let ends = ranges.iter().flat_map(|r| [r.end, r.start]);
                    let boundaries = BoundaryCounts::new(&masks, ends);
                    for range in ranges {
                        let want = counts_by_sample(&masks, range.clone());
                        let what = format!("{range:?} of {n} samples, {skus} SKUs");
                        assert_eq!(masks.counts(range.clone()), want, "{what}");
                        assert_eq!(boundaries.counts(range), want, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_sample_mask_holds_the_base() {
        // CPU 3 to 5 throttles the 1- and 2-vCore SKUs at every sample
        // (the base) and the 4-vCore one at the sample of demand 5.
        let h = history(vec![3.0, 5.0, 3.0], vec![6.0; 3]);
        let caps = [1.0, 2.0, 4.0, 8.0].map(|v| caps(v, 10.0, 600.0, 5.0));
        let masks = ExceedanceMasks::new(&h, &caps);
        assert_eq!(masks.base, vec![0b0011]);
        assert_eq!([0, 1, 2].map(|t| masks.sample(t)[0]), [0b0011, 0b0111, 0b0011]);
        assert_eq!(masks.counts(0..3), vec![3, 3, 1, 0]);
        assert_eq!(BoundaryCounts::new(&masks, [1, 3]).counts(1..3), vec![2, 2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "range ends on boundaries")]
    fn boundary_counts_reject_other_ranges() {
        let h = history(vec![3.0, 5.0, 3.0], vec![6.0; 3]);
        let masks = ExceedanceMasks::new(&h, &[caps(4.0, 10.0, 600.0, 5.0)]);
        BoundaryCounts::new(&masks, [0, 3]).counts(1..3);
    }

    #[test]
    fn nan_latency_capacity_is_never_exceeded() {
        // A NaN capacity sorts last for the inverted dimension too, so the
        // level search over `[3.0, NaN]` stays partitioned.
        let h =
            PerfHistory::new().with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![1.0; 2]));
        let caps = [caps(2.0, 10.0, 600.0, 3.0), caps(2.0, 10.0, 600.0, f64::NAN)];
        assert_eq!(ExceedanceMasks::new(&h, &caps).counts(0..2), vec![2, 0]);
        assert_eq!(ExceedanceMasks::new_reference(&h, &caps).counts(0..2), vec![2, 0]);
        assert_eq!(throttling_probability(&h, &caps[0]), 1.0);
        assert_eq!(throttling_probability(&h, &caps[1]), 0.0);
    }

    #[test]
    fn boundary_values_do_not_throttle() {
        // Demand exactly at capacity is satisfied (strict inequality).
        let h = history(vec![2.0; 3], vec![5.0; 3]);
        assert_eq!(throttling_probability(&h, &caps(2.0, 10.0, 600.0, 5.0)), 0.0);
    }
}
