//! Locally weighted regression (Loess), the smoothing primitive inside STL.
//!
//! This is the classic Cleveland formulation specialized to evenly spaced
//! series (which is what 10-minute perf counters are): for every position we
//! fit a degree-1 weighted least-squares line over the `q` nearest
//! neighbours with tricube weights, then evaluate it at that position.
//!
//! The kernel exploits that spacing in two ways:
//!
//! * **Interior fits are weighted means.** Away from the ends the window
//!   slides with the position, so every interior fit sees the same distances
//!   `|j - q/2|` and the same `max_dist = q/2` (for either parity of `q`).
//!   Its `q` tricube weights `t` form one table, symmetric about the centre:
//!   for even `q` the extra far point sits at `max_dist` and weighs 0. With
//!   symmetric weights `Σ t·(x - x_c) = 0`, so the local line's value at the
//!   centre `x_c` is exactly the weighted mean `Σ t·y / Σ t` in real
//!   arithmetic. The kernel computes that one sum instead of the five
//!   regression sums, with `Σ t` summed once per shape. In floating point it
//!   differs from the regression only by rounding (a few 1e-16 of
//!   `Σ |t·y| / Σ t` at the STL trend shape); the tests bound the difference.
//!   Sixteen outputs advance in lockstep, but each is still summed in
//!   ascending `j` from `0.0`, so the result does not depend on the lane
//!   width and equals the one-fit-at-a-time weighted mean to the bit.
//! * **Pinned ends keep the regression, bit for bit.** Near either end the
//!   window is pinned to the first or last `q` samples and each position
//!   gets its own weight row; the row of right-end position `n - 1 - i` is
//!   the row of left-end position `i` reversed. Rows and the data-free sums
//!   `Σw`, `Σw·x` and `Σw·x²` of every pinned fit depend only on `(n, q)`,
//!   so they live in a plan. A call sums only `Σw·y` and `Σw·x·y`, four
//!   fits in lockstep, with the same terms in the same order as the
//!   one-fit-at-a-time regression (`w * x` parses as the same product in
//!   both, and Rust never contracts a multiply and add into an FMA), so the
//!   pinned outputs are bit-identical to it.
//!
//! Plans are memoized process-wide per `(n, q)`, four shapes at a time with
//! the least recently used evicted, so arbitrary history lengths cannot grow
//! the memo. Each shape is built once: a thread that misses while another
//! builds the same shape waits for it. STL's trend shape `(2016, 504)` takes
//! about 1.0 MB (253 pinned rows of 504 weights, padded to 256), its
//! cycle-subseries shape `(14, 11)` about 1 KB. Rebuilding the rows on every
//! call would cost a division per weight. A caller that smooths many series
//! of one length (STL's 144 cycle-subseries) looks the plan up once, in a
//! `Smoother`.
//!
//! The smoothing body `fill` is compiled twice, for the baseline target
//! and for AVX2, with the same bits; `crate::dispatch` picks the copy.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::dispatch::{self, Isa};

/// Interior outputs advanced together.
const LANES: usize = 16;
/// Pinned fits advanced together; the width of a plan's weight rows.
const PINNED_LANES: usize = 4;
/// Plan shapes the process-wide memo keeps. STL needs two per history
/// length (its trend and its cycle-subseries), three when the length is
/// not a whole number of periods.
const MEMO_SHAPES: usize = 4;

/// Tricube weight for a normalized distance `u >= 0`; zero from `u = 1` on.
///
/// The `u >= 1` case is a select rather than a branch, so a row of weights
/// vectorizes; for `u < 1` the arithmetic is the textbook `(1 - u³)³`.
#[inline(always)]
fn tricube(u: f64) -> f64 {
    let t = 1.0 - u * u * u;
    let w = t * t * t;
    if u >= 1.0 {
        0.0
    } else {
        w
    }
}

/// The data-free sums `Σw`, `Σw·x` and `Σw·x²` of one pinned fit.
#[derive(Clone, Copy, Default)]
struct Moments {
    sw: f64,
    swx: f64,
    swxx: f64,
}

impl Moments {
    /// The fitted line evaluated at position `i` (`y_i = ys[i]`), given the
    /// fit's data sums `Σw·y` and `Σw·x·y`.
    #[inline(always)]
    fn fit(&self, swy: f64, swxy: f64, i: usize, y_i: f64) -> f64 {
        let Moments { sw, swx, swxx } = *self;
        let denom = sw * swxx - swx * swx;
        if denom.abs() < 1e-12 || sw == 0.0 {
            // Degenerate fit (all weight on one point): fall back to the
            // weighted mean.
            if sw == 0.0 {
                y_i
            } else {
                swy / sw
            }
        } else {
            let beta = (sw * swxy - swx * swy) / denom;
            let alpha = (swy - beta * swx) / sw;
            alpha + beta * i as f64
        }
    }
}

/// Everything about a loess pass that depends only on `(n, q)`.
pub(crate) struct Plan {
    /// The interior tricube table and its sum.
    table: Vec<f64>,
    table_sum: f64,
    /// Pinned weight rows, `q` per group of [`PINNED_LANES`] left positions:
    /// `rows[g * q + j][l]` weighs sample `j` in the fit at position
    /// `g * PINNED_LANES + l` (`half` in a last group's spare lanes).
    rows: Vec<[f64; PINNED_LANES]>,
    /// Moments of the fit at left position `i`, for `i` in `0..=half`.
    left: Vec<Moments>,
    /// Moments of the fit at right position `n - 1 - i`, for every `i`
    /// whose position is neither left-pinned nor interior.
    right: Vec<Moments>,
}

impl Plan {
    fn new(n: usize, q: usize) -> Plan {
        let half = q / 2;
        let max_dist = half.max(q - 1 - half).max(1) as f64;
        let table: Vec<f64> = (0..q).map(|j| tricube(j.abs_diff(half) as f64 / max_dist)).collect();
        let table_sum = table.iter().fold(0.0, |s, &t| s + t);

        let n_right = (n - 1 - half).min(q - half);
        let groups = (half + 1).div_ceil(PINNED_LANES);
        let mut rows = Vec::with_capacity(groups * q);
        let (mut left, mut right) = (Vec::with_capacity(half + 1), Vec::with_capacity(n_right));
        for g in 0..groups {
            let g0 = g * PINNED_LANES;
            let centers: [usize; PINNED_LANES] = std::array::from_fn(|l| (g0 + l).min(half));
            let c = centers.map(|i| i as f64);
            let max_dist = centers.map(|i| i.max(q - 1 - i).max(1) as f64);
            let group = rows.len();
            rows.extend(
                (0..q).map(|j| {
                    std::array::from_fn(|l| tricube((j as f64 - c[l]).abs() / max_dist[l]))
                }),
            );
            let group = &rows[group..];
            let lm = moments(group.iter(), 0.0);
            let rm = moments(group.iter().rev(), (n - q) as f64);
            left.extend(lm.iter().take((half + 1 - g0).min(PINNED_LANES)));
            right.extend(rm.iter().take(n_right.saturating_sub(g0).min(PINNED_LANES)));
        }
        Plan { table, table_sum, rows, left, right }
    }

    #[cfg(test)]
    fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.table[..])
            + std::mem::size_of_val(&self.rows[..])
            + std::mem::size_of_val(&self.left[..])
            + std::mem::size_of_val(&self.right[..])
    }
}

/// The moments of a group of pinned fits: lane `l` pairs `row[l]` of the `j`-th
/// row with abscissa `x0 + j`, summed in the regression's order.
fn moments<'a>(
    rows: impl Iterator<Item = &'a [f64; PINNED_LANES]>,
    x0: f64,
) -> [Moments; PINNED_LANES] {
    let mut m = [Moments::default(); PINNED_LANES];
    let mut x = x0;
    for w in rows {
        for (m, &w) in m.iter_mut().zip(w) {
            let wx = w * x;
            m.sw += w;
            m.swx += wx;
            m.swxx += wx * x;
        }
        x += 1.0;
    }
    m
}

/// The data sums `Σw·y` and `Σw·x·y` of a group of pinned fits over one
/// shared window: lane `l` pairs `row[l]` of the `j`-th row with sample
/// `window[j]` at abscissa `x0 + j`.
#[inline(always)]
fn pinned_sums<'a>(
    rows: impl Iterator<Item = &'a [f64; PINNED_LANES]>,
    window: &[f64],
    x0: f64,
) -> ([f64; PINNED_LANES], [f64; PINNED_LANES]) {
    let mut swy = [0.0; PINNED_LANES];
    let mut swxy = [0.0; PINNED_LANES];
    let mut x = x0;
    for (w, &y) in rows.zip(window) {
        for l in 0..PINNED_LANES {
            let wx = w[l] * x;
            swy[l] += w[l] * y;
            swxy[l] += wx * y;
        }
        x += 1.0;
    }
    (swy, swxy)
}

/// `Σ table[j] · window[l + j]` for sixteen consecutive windows, each summed
/// in ascending `j` from `0.0`.
#[inline(always)]
fn interior_sums(table: &[f64], window: &[f64]) -> [f64; LANES] {
    let mut sums = [0.0; LANES];
    for (&t, y) in table.iter().zip(window.windows(LANES)) {
        let y: &[f64; LANES] = y.try_into().expect("windows of LANES samples");
        for l in 0..LANES {
            sums[l] += t * y[l];
        }
    }
    sums
}

/// One window's `Σ table[j] · window[j]`, in the same order as a lane of
/// [`interior_sums`].
#[inline(always)]
fn interior_sum(table: &[f64], window: &[f64]) -> f64 {
    table.iter().zip(window).fold(0.0, |s, (&t, &y)| s + t * y)
}

/// A plan shared by every thread that uses its shape. The first thread to
/// ask fills it; a thread that asks while it is being filled waits.
type PlanCell = Arc<OnceLock<Plan>>;

/// A bounded, least-recently-used memo of plans keyed by `(n, q)`.
struct PlanMemo {
    capacity: usize,
    state: Mutex<MemoState>,
}

struct MemoState {
    tick: u64,
    entries: Vec<Entry>,
}

struct Entry {
    shape: (usize, usize),
    last_used: u64,
    plan: PlanCell,
}

impl PlanMemo {
    const fn new(capacity: usize) -> PlanMemo {
        PlanMemo { capacity, state: Mutex::new(MemoState { tick: 0, entries: Vec::new() }) }
    }

    /// The (possibly still empty) plan cell of shape `(n, q)`, marked as
    /// just used; a new shape evicts the least recently used one when full.
    fn cell(&self, n: usize, q: usize) -> PlanCell {
        // Each update below leaves the memo valid (plans are built outside
        // the lock), so a lock poisoned by another thread's panic is safe to
        // recover.
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.tick += 1;
        let tick = state.tick;
        if let Some(entry) = state.entries.iter_mut().find(|e| e.shape == (n, q)) {
            entry.last_used = tick;
            return Arc::clone(&entry.plan);
        }
        if state.entries.len() >= self.capacity {
            let oldest = (0..state.entries.len())
                .min_by_key(|&k| state.entries[k].last_used)
                .expect("a full memo has entries");
            state.entries.swap_remove(oldest);
        }
        let plan = PlanCell::default();
        state.entries.push(Entry { shape: (n, q), last_used: tick, plan: Arc::clone(&plan) });
        plan
    }
}

/// The process-wide plan memo behind [`loess_smooth`].
static PLANS: PlanMemo = PlanMemo::new(MEMO_SHAPES);

/// Smooth an evenly spaced series with Loess.
///
/// `span` is the fraction of the series used in each local fit, clamped so
/// that at least 3 and at most `n` points participate. Returns the smoothed
/// series (same length). Series of length < 3 are returned unchanged.
pub fn loess_smooth(ys: &[f64], span: f64) -> Vec<f64> {
    smooth(&PLANS, ys, span)
}

fn smooth(memo: &PlanMemo, ys: &[f64], span: f64) -> Vec<f64> {
    let mut out = vec![0.0; ys.len()];
    Smoother::with_memo(memo, ys.len(), span).smooth_into(Isa::detect(), ys, &mut out);
    out
}

/// A loess pass over series of one length `n` at one span, its plan looked
/// up once.
pub(crate) struct Smoother {
    n: usize,
    /// The filled plan of the pass's shape; `None` when `n < 3`, where the
    /// series passes through unchanged.
    plan: Option<PlanCell>,
}

impl Smoother {
    pub(crate) fn new(n: usize, span: f64) -> Smoother {
        Smoother::with_memo(&PLANS, n, span)
    }

    fn with_memo(memo: &PlanMemo, n: usize, span: f64) -> Smoother {
        if n < 3 {
            return Smoother { n, plan: None };
        }
        let q = ((span.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(3, n);
        let cell = memo.cell(n, q);
        cell.get_or_init(|| Plan::new(n, q));
        Smoother { n, plan: Some(cell) }
    }

    /// Smooth `ys` into `out`, both of length `n`, with the copy `isa`.
    pub(crate) fn smooth_into(&self, isa: Isa, ys: &[f64], out: &mut [f64]) {
        assert!(ys.len() == self.n && out.len() == self.n, "a smoother of {} samples", self.n);
        match &self.plan {
            None => out.copy_from_slice(ys),
            Some(cell) => dispatch::loess(isa, cell.get().expect("filled in `with_memo`"), ys, out),
        }
    }
}

/// The loess pass of `plan`'s shape over `ys` (`n >= 3` samples), written
/// to every position of `out`. Inlined into each compiled copy of
/// [`crate::dispatch::loess`], with the sums it calls.
#[inline(always)]
pub(crate) fn fill(plan: &Plan, ys: &[f64], out: &mut [f64]) {
    let n = ys.len();
    let q = plan.table.len();
    let half = q / 2;

    // Interior: positions half < i < n - (q - half), window [i - half, i -
    // half + q); whole groups of sixteen in lockstep, the rest one by one.
    let interior = half + 1..n + half - q;
    let mut i0 = interior.start;
    while i0 + LANES <= interior.end {
        let lo = i0 - half;
        let sums = interior_sums(&plan.table, &ys[lo..lo + q + LANES - 1]);
        for (o, s) in out[i0..i0 + LANES].iter_mut().zip(sums) {
            *o = s / plan.table_sum;
        }
        i0 += LANES;
    }
    for i in i0..interior.end {
        out[i] = interior_sum(&plan.table, &ys[i - half..i - half + q]) / plan.table_sum;
    }

    // Pinned ends: left positions 0..=half fit the window [0, q); right
    // positions n - 1 - i for i < plan.right.len() fit [n - q, n) with left
    // position i's row reversed.
    let mut right = plan.right.chunks(PINNED_LANES);
    for (g, (rows, left)) in
        plan.rows.chunks_exact(q).zip(plan.left.chunks(PINNED_LANES)).enumerate()
    {
        let g0 = g * PINNED_LANES;
        let (swy, swxy) = pinned_sums(rows.iter(), &ys[..q], 0.0);
        for (l, m) in left.iter().enumerate() {
            let i = g0 + l;
            out[i] = m.fit(swy[l], swxy[l], i, ys[i]);
        }
        if let Some(right) = right.next() {
            let (swy, swxy) = pinned_sums(rows.iter().rev(), &ys[n - q..], (n - q) as f64);
            for (l, m) in right.iter().enumerate() {
                let i = n - 1 - (g0 + l);
                out[i] = m.fit(swy[l], swxy[l], i, ys[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::{mean, stddev};
    use crate::exactsum::ExactSum;
    use proptest::prelude::*;

    /// Window size `q` of a call, as [`loess_smooth`] clamps it.
    fn window_size(n: usize, span: f64) -> usize {
        ((span.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(3, n)
    }

    /// Position `i`'s window `[lo, hi)` of the `q` nearest neighbours, kept
    /// inside `[0, n)`, and whether `i` is an interior (unpinned) position.
    fn window(n: usize, q: usize, i: usize) -> (usize, usize, bool) {
        let half = q / 2;
        if i <= half {
            (0, q, false)
        } else if i + (q - half) >= n {
            (n - q, n, false)
        } else {
            (i - half, i - half + q, true)
        }
    }

    /// The textbook tricube, one weight at a time.
    fn weight(x: f64, i: usize, max_dist: f64) -> f64 {
        let u = (x - i as f64).abs() / max_dist;
        if u >= 1.0 {
            0.0
        } else {
            let t = 1.0 - u * u * u;
            t * t * t
        }
    }

    /// One weighted-least-squares line over `ys[lo..hi]`, evaluated at `i`.
    fn regression_fit(ys: &[f64], lo: usize, hi: usize, i: usize) -> f64 {
        let max_dist = ((i - lo).max(hi - 1 - i)).max(1) as f64;
        let (mut sw, mut swx, mut swy, mut swxx, mut swxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for (j, &y) in ys[lo..hi].iter().enumerate() {
            let x = (lo + j) as f64;
            let w = weight(x, i, max_dist);
            sw += w;
            swx += w * x;
            swy += w * y;
            swxx += w * x * x;
            swxy += w * x * y;
        }
        let denom = sw * swxx - swx * swx;
        if denom.abs() < 1e-12 || sw == 0.0 {
            if sw == 0.0 {
                ys[i]
            } else {
                swy / sw
            }
        } else {
            let beta = (sw * swxy - swx * swy) / denom;
            let alpha = (swy - beta * swx) / sw;
            alpha + beta * i as f64
        }
    }

    /// One weighted mean `Σ w·y / Σ w` over `ys[lo..hi]`, both sums in
    /// ascending order from `0.0`.
    fn weighted_mean_fit(ys: &[f64], lo: usize, hi: usize, i: usize) -> f64 {
        let max_dist = ((i - lo).max(hi - 1 - i)).max(1) as f64;
        let (mut sw, mut swy) = (0.0, 0.0);
        for (j, &y) in ys[lo..hi].iter().enumerate() {
            let w = weight((lo + j) as f64, i, max_dist);
            sw += w;
            swy += w * y;
        }
        swy / sw
    }

    /// The one-fit-at-a-time regression at every position: the kernel
    /// before interior fits became weighted means.
    fn regression(ys: &[f64], span: f64) -> Vec<f64> {
        let n = ys.len();
        if n < 3 {
            return ys.to_vec();
        }
        let q = window_size(n, span);
        (0..n)
            .map(|i| {
                let (lo, hi, _) = window(n, q, i);
                regression_fit(ys, lo, hi, i)
            })
            .collect()
    }

    /// The one-fit-at-a-time loop the kernel must match to the bit: the
    /// regression at pinned positions, the weighted mean at interior ones.
    fn loess_reference(ys: &[f64], span: f64) -> Vec<f64> {
        let n = ys.len();
        if n < 3 {
            return ys.to_vec();
        }
        let q = window_size(n, span);
        (0..n)
            .map(|i| match window(n, q, i) {
                (lo, hi, true) => weighted_mean_fit(ys, lo, hi, i),
                (lo, hi, false) => regression_fit(ys, lo, hi, i),
            })
            .collect()
    }

    /// Assert the kernel equals the oracle bit for bit, naming the first
    /// differing output.
    fn assert_bit_exact(ys: &[f64], span: f64) {
        let fast = loess_smooth(ys, span);
        let slow = loess_reference(ys, span);
        assert_eq!(fast.len(), slow.len());
        for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "n = {}, span = {span}: output {i} is {a}, oracle {b}",
                ys.len()
            );
        }
    }

    /// `γ_k = k·u / (1 − k·u)`, the classic bound on `k` rounding errors
    /// (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1).
    fn gamma(k: usize) -> f64 {
        let ku = k as f64 * f64::EPSILON / 2.0;
        ku / (1.0 - ku)
    }

    /// Each interior output against the correctly rounded sum of its
    /// products, divided by the same `Σ t`.
    ///
    /// The kernel computes `fl(Ŝ / T)`, where `T` is the table's sum and
    /// `Ŝ` the recursive sum, from `0.0`, of the `q` rounded products
    /// `p_j = fl(t_j · y_j)`. Recursive summation of `q` terms errs by at
    /// most `γ_{q−1} · Σ|p_j|`, so `|Ŝ/T − S/T| ≤ γ_{q−1} · Σ|p_j| / T`
    /// with `S` the exact sum of the `p_j`. The oracle rounds `S` once
    /// (`ExactSum`) and divides once; the kernel divides once. Those three
    /// roundings add at most `3u · Σ|p_j| / T` (`|S| ≤ Σ|p_j|`), so
    /// `|kernel − oracle| ≤ γ_{q+2} · Σ|p_j| / T`.
    fn assert_within_exact_sum_bound(ys: &[f64], span: f64) {
        let n = ys.len();
        if n < 3 {
            return;
        }
        let q = window_size(n, span);
        let fast = loess_smooth(ys, span);
        for (i, &got) in fast.iter().enumerate() {
            let (lo, hi, interior) = window(n, q, i);
            if !interior {
                continue;
            }
            let max_dist = (q / 2) as f64;
            let (mut exact, mut abs, mut total) = (ExactSum::new(), 0.0, 0.0);
            for (j, &y) in ys[lo..hi].iter().enumerate() {
                let t = weight((lo + j) as f64, i, max_dist);
                exact.add(t * y);
                abs += (t * y).abs();
                total += t;
            }
            let oracle = exact.value() / total;
            let bound = gamma(q + 2) * abs / total;
            assert!(
                (got - oracle).abs() <= bound,
                "n = {n}, q = {q}, output {i}: {got} vs exact {oracle}, bound {bound:e}"
            );
        }
    }

    /// Each interior output against the regression the kernel replaced.
    ///
    /// Both compute the same real number `m = Σ t·y / T` (`T = Σ t`): the
    /// table is symmetric about the centre `x_c = i`, so the regression's
    /// slope term vanishes. Let `A = Σ |t·y|`, `h = q/2` (the half-width)
    /// and `D = Σ t·(x − x_c)²`. The weighted mean errs by at most
    /// `γ_{q+1} · A / T` (one sum of rounded products, one sum of weights,
    /// one division). The regression's sums each err by at most
    /// `γ_{q+1}` relative to their absolute sums, which bounds `Σw·y / Σw`
    /// by `2γ_{q+1} · A / T` and `|x_c − Σw·x / Σw|`, the factor its slope
    /// multiplies, by `2γ_{q+1} · (x_c + h)`; its last five operations add
    /// at most `u · (|m| + 3 |β| (x_c + h))`. With `|β| ≤ h · A / D`, the
    /// two differ by less than
    /// `8 γ_{q+1} · (A / T) · (1 + h (x_c + h) T / D)`,
    /// scaled by `A / T` rather than by the output, which cancellation can
    /// make arbitrarily small. For `q = 3`, `D = 0`: the regression takes
    /// its degenerate path, which is the same weighted mean, to the bit.
    fn assert_within_regression_bound(ys: &[f64], span: f64) {
        let n = ys.len();
        if n < 3 {
            return;
        }
        let q = window_size(n, span);
        let h = (q / 2) as f64;
        let fast = loess_smooth(ys, span);
        let slow = regression(ys, span);
        for i in 0..n {
            let (lo, hi, interior) = window(n, q, i);
            if !interior {
                continue;
            }
            let (mut a, mut t, mut d) = (0.0, 0.0, 0.0);
            for (j, &y) in ys[lo..hi].iter().enumerate() {
                let x = (lo + j) as f64;
                let w = weight(x, i, h);
                a += (w * y).abs();
                t += w;
                d += w * (x - i as f64) * (x - i as f64);
            }
            if d == 0.0 {
                assert_eq!(fast[i].to_bits(), slow[i].to_bits(), "q = {q}, output {i}");
                continue;
            }
            let bound = 8.0 * gamma(q + 1) * (a / t) * (1.0 + h * (i as f64 + h) * t / d);
            assert!(
                (fast[i] - slow[i]).abs() <= bound,
                "n = {n}, q = {q}, output {i}: {} vs regression {}, bound {bound:e}",
                fast[i],
                slow[i]
            );
        }
    }

    /// Deterministic pseudo-noise of the given magnitude.
    fn noise(n: usize, seed: usize, scale: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let h = (i + seed).wrapping_mul(2_654_435_761) % 100_003;
                scale * (h as f64 / 100_003.0 - 0.5)
            })
            .collect()
    }

    /// One of three series shapes: noise on a slope, constant runs (the
    /// regression's degenerate-denominator path) or pure noise.
    fn shaped(n: usize, seed: usize, scale: f64, shape: u8) -> Vec<f64> {
        match shape {
            0 => noise(n, seed, scale)
                .into_iter()
                .enumerate()
                .map(|(i, y)| y + scale * 1e-3 * i as f64)
                .collect(),
            1 => (0..n).map(|i| scale * ((i / (1 + seed % 50)) % 3) as f64).collect(),
            _ => noise(n, seed, scale),
        }
    }

    /// STL's trend-pass input shape: 14 days of 10-minute samples, a daily
    /// cycle on noise.
    fn trend_series() -> Vec<f64> {
        noise(2016, 7, 100.0)
            .into_iter()
            .enumerate()
            .map(|(i, y)| y + 40.0 * (i as f64 * std::f64::consts::TAU / 144.0).sin())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn kernel_matches_oracle_bit_for_bit(
            n in 0usize..601,
            span in prop::sample::select(vec![0.0, 1.0, -1.0, 0.1, 0.25, 0.5, 0.75, 0.999]),
            random_span in 0.0..1.0f64,
            use_random_span in prop::sample::select(vec![false, true]),
            scale in prop::sample::select(vec![1e-3, 1.0, 1e3, 1e6]),
            seed in 0usize..1_000_000,
            shape in 0u8..3,
        ) {
            let span = if use_random_span { random_span } else { span };
            assert_bit_exact(&shaped(n, seed, scale, shape), span);
        }

        #[test]
        fn every_window_size_matches_oracle(n in 3usize..80, q_off in 0usize..80) {
            // Sweep q over 3..=n, even and odd, including q = n.
            let q = 3 + q_off % (n - 2);
            let span = (q as f64 - 0.5) / n as f64;
            assert_bit_exact(&noise(n, q_off, 10.0), span);
        }

        #[test]
        fn interior_is_within_exact_sum_bound(
            n in 3usize..601,
            span in 0.0..1.0f64,
            scale in prop::sample::select(vec![1e-3, 1.0, 1e3, 1e6]),
            offset in prop::sample::select(vec![0.0, 1.0, -1e3]),
            seed in 0usize..1_000_000,
            shape in 0u8..3,
        ) {
            // An offset of -1e3 at scale 1e3 centres the noise near zero,
            // where the sums cancel.
            let ys: Vec<f64> =
                shaped(n, seed, scale, shape).iter().map(|y| y + offset * scale).collect();
            assert_within_exact_sum_bound(&ys, span);
        }

        #[test]
        fn interior_is_within_regression_bound(
            n in 3usize..601,
            span in 0.0..1.0f64,
            scale in prop::sample::select(vec![1e-3, 1.0, 1e3, 1e6]),
            offset in prop::sample::select(vec![0.0, 1.0, -1e3]),
            seed in 0usize..1_000_000,
            shape in 0u8..3,
        ) {
            let ys: Vec<f64> =
                shaped(n, seed, scale, shape).iter().map(|y| y + offset * scale).collect();
            assert_within_regression_bound(&ys, span);
        }
    }

    #[test]
    fn short_series_match_oracle() {
        for n in 0..=12 {
            for span in [0.0, 0.3, 0.5, 1.0] {
                assert_bit_exact(&noise(n, n, 3.0), span);
            }
        }
    }

    #[test]
    fn stl_shapes_match_oracle() {
        // STL's trend pass over 14 days of 10-minute samples (q = 504) and
        // its cycle-subseries pass over 14 cycles (q = 11).
        let trend = trend_series();
        assert_bit_exact(&trend, 0.25);
        assert_bit_exact(&noise(14, 3, 5.0), 0.75);
        assert_bit_exact(&[3.5; 14], 0.75);
        assert_within_exact_sum_bound(&trend, 0.25);
        assert_within_regression_bound(&trend, 0.25);
        assert_within_regression_bound(&noise(14, 3, 5.0), 0.75);
    }

    #[test]
    fn pinned_ends_match_the_regression_bit_for_bit() {
        let trend = trend_series();
        let (fast, slow) = (loess_smooth(&trend, 0.25), regression(&trend, 0.25));
        for i in (0..=252).chain(2016 - 252..2016) {
            assert_eq!(fast[i].to_bits(), slow[i].to_bits(), "pinned output {i}");
        }
    }

    #[test]
    fn a_warm_plan_gives_the_cold_plans_bits() {
        let memo = PlanMemo::new(MEMO_SHAPES);
        let ys = trend_series();
        let cold = smooth(&memo, &ys, 0.25);
        let cell = memo.cell(2016, 504);
        let warm = smooth(&memo, &ys, 0.25);
        assert!(Arc::ptr_eq(&cell, &memo.cell(2016, 504)), "the second call reused the plan");
        assert_eq!(bits(&cold), bits(&warm));
        assert_eq!(bits(&cold), bits(&loess_reference(&ys, 0.25)));
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn two_threads_share_one_plan_and_its_bits() {
        let ys = trend_series();
        let oracle = bits(&loess_reference(&ys, 0.25));
        // Each round starts both threads on a cold memo at once, so one of
        // them usually finds the shape while the other is still building it.
        for _ in 0..8 {
            let memo = PlanMemo::new(MEMO_SHAPES);
            let start = std::sync::Barrier::new(2);
            let (a, b) = std::thread::scope(|s| {
                let run = || {
                    start.wait();
                    let out = smooth(&memo, &ys, 0.25);
                    (out, memo.cell(2016, 504))
                };
                let a = s.spawn(run);
                let b = s.spawn(run);
                (a.join().unwrap(), b.join().unwrap())
            });
            assert!(Arc::ptr_eq(&a.1, &b.1), "both threads got the one plan of the shape");
            assert_eq!(bits(&a.0), oracle);
            assert_eq!(bits(&b.0), oracle);
        }
    }

    #[test]
    fn eviction_keeps_the_outputs_and_drops_the_least_recent() {
        let memo = PlanMemo::new(2);
        let series = [noise(40, 1, 2.0), noise(50, 2, 2.0), noise(60, 3, 2.0)];
        let first: Vec<Vec<f64>> = series.iter().map(|ys| smooth(&memo, ys, 0.3)).collect();
        // 40 was least recently used when 60 arrived: rebuilt, same bits.
        let q = |n| window_size(n, 0.3);
        let before = memo.cell(60, q(60));
        let again = smooth(&memo, &series[0], 0.3);
        assert_eq!(bits(&again), bits(&first[0]));
        // Touch 40, then bring 50 back: 60 is evicted, 40 stays.
        let kept = memo.cell(40, q(40));
        assert_eq!(bits(&smooth(&memo, &series[1], 0.3)), bits(&first[1]));
        assert!(Arc::ptr_eq(&kept, &memo.cell(40, q(40))), "the recently used shape stays");
        assert!(!Arc::ptr_eq(&before, &memo.cell(60, q(60))), "the least recent shape was evicted");
        assert_eq!(bits(&smooth(&memo, &series[2], 0.3)), bits(&first[2]));
        let state = memo.state.lock().unwrap();
        assert!(state.entries.len() <= 2, "the memo holds at most its capacity");
    }

    #[test]
    fn plan_sizes_match_the_docs() {
        let trend = Plan::new(2016, 504).bytes();
        assert!((1_000_000..1_100_000).contains(&trend), "trend plan is {trend} bytes");
        let cycle = Plan::new(14, 11).bytes();
        assert!(cycle < 1_200, "cycle-subseries plan is {cycle} bytes");
    }

    #[test]
    fn short_series_pass_through() {
        assert_eq!(loess_smooth(&[1.0, 2.0], 0.5), vec![1.0, 2.0]);
        assert!(loess_smooth(&[], 0.5).is_empty());
    }

    #[test]
    fn constant_series_stays_constant() {
        let out = loess_smooth(&[4.0; 50], 0.3);
        for v in out {
            assert!((v - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn linear_series_is_reproduced_exactly() {
        // Degree-1 loess fits a line exactly, window after window.
        let ys: Vec<f64> = (0..100).map(|i| 2.0 + 0.5 * i as f64).collect();
        let out = loess_smooth(&ys, 0.2);
        for (o, y) in out.iter().zip(&ys) {
            assert!((o - y).abs() < 1e-8, "loess broke a straight line: {o} vs {y}");
        }
    }

    #[test]
    fn smoothing_reduces_noise_variance() {
        // Line + deterministic pseudo-noise: the smoother should track the
        // line and shrink the residual spread.
        let ys: Vec<f64> = (0..500)
            .map(|i| {
                10.0 + 0.1 * i as f64 + (((i * 2_654_435_761_usize) % 1000) as f64 / 1000.0 - 0.5)
            })
            .collect();
        let out = loess_smooth(&ys, 0.15);
        let resid_raw: Vec<f64> =
            ys.iter().enumerate().map(|(i, y)| y - (10.0 + 0.1 * i as f64)).collect();
        let resid_smooth: Vec<f64> =
            out.iter().enumerate().map(|(i, y)| y - (10.0 + 0.1 * i as f64)).collect();
        assert!(stddev(&resid_smooth) < stddev(&resid_raw) * 0.5);
    }

    #[test]
    fn output_length_matches_input() {
        let ys: Vec<f64> = (0..37).map(|i| i as f64).collect();
        assert_eq!(loess_smooth(&ys, 0.4).len(), 37);
    }

    #[test]
    fn tiny_span_still_uses_three_points() {
        let ys: Vec<f64> = (0..20).map(|i| (i as f64).sin()).collect();
        let out = loess_smooth(&ys, 0.0001);
        assert_eq!(out.len(), 20);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn smoothed_mean_tracks_raw_mean() {
        let ys: Vec<f64> = (0..200).map(|i| 50.0 + 10.0 * ((i as f64) * 0.3).sin()).collect();
        let out = loess_smooth(&ys, 0.1);
        assert!((mean(&out) - mean(&ys)).abs() < 1.0);
    }
}
