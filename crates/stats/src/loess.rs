//! Locally weighted regression (Loess), the smoothing primitive inside STL.
//!
//! This is the classic Cleveland formulation specialized to evenly spaced
//! series (which is what 10-minute perf counters are): for every position we
//! fit a degree-1 weighted least-squares line over the `q` nearest
//! neighbours with tricube weights, then evaluate it at that position.
//!
//! The kernel exploits that spacing without changing a single output bit:
//!
//! * **Interior table.** Away from the ends the window slides with the
//!   position, so every interior fit sees the same distances `|j - q/2|`
//!   and the same `max_dist`. Its `q` tricube weights form one table,
//!   built once per call.
//! * **Pinned rows.** Near either end the window is pinned to the first or
//!   last `q` samples, and each position gets its own weight row. The row
//!   of right-end position `n - 1 - i` is the row of left-end position `i`
//!   reversed (same `max_dist`, mirrored distances), so one row serves two
//!   fits.
//! * **Lockstep lanes.** Four fits advance together, each with its own five
//!   sums held in `[f64; 4]` lanes: interior lanes share the weight table,
//!   pinned lanes share the window of samples.
//!
//! Every fit still sums the same terms in the same order with the same
//! operations — `w * x` is computed once and reused exactly where the
//! scalar `w * x * x` and `w * x * y` parse as `(w * x) * _`, and Rust never
//! contracts a multiply and add into an FMA — so the output is bit-identical
//! to the one-fit-at-a-time loop kept as the test oracle.

/// Fits advanced together; the width of every lane array below.
const LANES: usize = 4;

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

/// The weighted-least-squares sums of four fits, one lane per fit.
#[derive(Default)]
struct Sums {
    sw: [f64; LANES],
    swx: [f64; LANES],
    swy: [f64; LANES],
    swxx: [f64; LANES],
    swxy: [f64; LANES],
}

impl Sums {
    /// Add one term per lane: weight `w`, abscissa `x`, sample `y`.
    #[inline(always)]
    fn add(&mut self, w: [f64; LANES], x: [f64; LANES], y: [f64; LANES]) {
        for l in 0..LANES {
            let wx = w[l] * x[l];
            self.sw[l] += w[l];
            self.swx[l] += wx;
            self.swy[l] += w[l] * y[l];
            self.swxx[l] += wx * x[l];
            self.swxy[l] += wx * y[l];
        }
    }

    /// Lane `l`'s fitted line evaluated at position `i` (`y_i = ys[i]`).
    fn fit(&self, l: usize, i: usize, y_i: f64) -> f64 {
        let (sw, swx, swy, swxx, swxy) =
            (self.sw[l], self.swx[l], self.swy[l], self.swxx[l], self.swxy[l]);
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

/// The sums of four interior fits whose windows start at `window[0..4]`:
/// lane `l` pairs `table[j]` with sample `window[l + j]` at abscissa
/// `x0 + l + j`.
///
/// This and [`pinned_sums`] stay out of line: inlined into the driver loop,
/// their twenty lane sums no longer fit in registers and spill.
#[inline(never)]
fn interior_sums(table: &[f64], window: &[f64], x0: f64) -> Sums {
    let mut sums = Sums::default();
    let mut x: [f64; LANES] = std::array::from_fn(|l| x0 + l as f64);
    for (&w, y) in table.iter().zip(window.windows(LANES)) {
        sums.add([w; LANES], x, [y[0], y[1], y[2], y[3]]);
        x = x.map(|x| x + 1.0);
    }
    sums
}

/// The sums of four pinned fits over one shared window: lane `l` pairs
/// `row[l]` of the `j`-th row with sample `window[j]` at abscissa `x0 + j`.
#[inline(never)]
fn pinned_sums<'a>(rows: impl Iterator<Item = &'a [f64; LANES]>, window: &[f64], x0: f64) -> Sums {
    let mut sums = Sums::default();
    let mut x = x0;
    for (&w, &y) in rows.zip(window) {
        sums.add(w, [x; LANES], [y; LANES]);
        x += 1.0;
    }
    sums
}

/// Fill `rows[j][l]` with the weight of sample `j` in the fit at left-end
/// position `centers[l]` of the window `[0, rows.len())`.
fn pinned_rows(rows: &mut [[f64; LANES]], centers: [usize; LANES]) {
    let q = rows.len();
    let c = centers.map(|i| i as f64);
    let max_dist = centers.map(|i| i.max(q - 1 - i).max(1) as f64);
    let mut x = 0.0;
    for row in rows {
        for l in 0..LANES {
            row[l] = tricube((x - c[l]).abs() / max_dist[l]);
        }
        x += 1.0;
    }
}

/// Smooth an evenly spaced series with Loess.
///
/// `span` is the fraction of the series used in each local fit, clamped so
/// that at least 3 and at most `n` points participate. Returns the smoothed
/// series (same length). Series of length < 3 are returned unchanged.
pub fn loess_smooth(ys: &[f64], span: f64) -> Vec<f64> {
    let n = ys.len();
    if n < 3 {
        return ys.to_vec();
    }
    let q = ((span.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(3, n);
    let half = q / 2;
    let mut out = vec![0.0; n];

    // Interior: positions half < i < n - (q - half), window [i - half, i -
    // half + q). A last group short of four positions fits its spare lanes
    // over the zero padding and discards them.
    let max_dist = half.max(q - 1 - half).max(1) as f64;
    let table: Vec<f64> = (0..q).map(|j| tricube(j.abs_diff(half) as f64 / max_dist)).collect();
    let mut padded = Vec::with_capacity(n + LANES - 1);
    padded.extend_from_slice(ys);
    padded.resize(n + LANES - 1, 0.0);
    let interior_end = n + half - q;
    for i0 in (half + 1..interior_end).step_by(LANES) {
        let lo = i0 - half;
        let sums = interior_sums(&table, &padded[lo..lo + q + LANES - 1], lo as f64);
        for (l, i) in (i0..interior_end.min(i0 + LANES)).enumerate() {
            out[i] = sums.fit(l, i, ys[i]);
        }
    }

    // Pinned ends: left positions 0..=half fit the window [0, q); right
    // positions n - 1 - i for i < n_right (those neither left nor interior)
    // fit [n - q, n) with left position i's row reversed.
    let n_right = (n - 1 - half).min(q - half);
    let mut rows = vec![[0.0; LANES]; q];
    // A last group short of four positions repeats `half` in its spare lanes.
    for g0 in (0..=half).step_by(LANES) {
        pinned_rows(&mut rows, std::array::from_fn(|l| (g0 + l).min(half)));
        let sums = pinned_sums(rows.iter(), &ys[..q], 0.0);
        for (l, i) in (g0..=half.min(g0 + LANES - 1)).enumerate() {
            out[i] = sums.fit(l, i, ys[i]);
        }
        let sums = pinned_sums(rows.iter().rev(), &ys[n - q..], (n - q) as f64);
        for (l, i) in (g0..n_right.min(g0 + LANES)).enumerate() {
            out[n - 1 - i] = sums.fit(l, n - 1 - i, ys[n - 1 - i]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::{mean, stddev};
    use proptest::prelude::*;

    /// The one-fit-at-a-time loop the kernel must match to the bit.
    fn loess_reference(ys: &[f64], span: f64) -> Vec<f64> {
        fn tricube(u: f64) -> f64 {
            if u >= 1.0 {
                0.0
            } else {
                let t = 1.0 - u * u * u;
                t * t * t
            }
        }
        let n = ys.len();
        if n < 3 {
            return ys.to_vec();
        }
        let q = ((span.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(3, n);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            // Window of the q nearest neighbours of i, kept inside [0, n).
            let half = q / 2;
            let (lo, hi) = if i <= half {
                (0, q)
            } else if i + (q - half) >= n {
                (n - q, n)
            } else {
                (i - half, i - half + q)
            };
            let max_dist = ((i - lo).max(hi - 1 - i)).max(1) as f64;

            // Weighted least squares of y on x over the window.
            let (mut sw, mut swx, mut swy, mut swxx, mut swxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
            for (j, &y) in ys[lo..hi].iter().enumerate() {
                let x = (lo + j) as f64;
                let w = tricube(((x - i as f64).abs()) / max_dist);
                sw += w;
                swx += w * x;
                swy += w * y;
                swxx += w * x * x;
                swxy += w * x * y;
            }
            let denom = sw * swxx - swx * swx;
            let fitted = if denom.abs() < 1e-12 || sw == 0.0 {
                if sw == 0.0 {
                    ys[i]
                } else {
                    swy / sw
                }
            } else {
                let beta = (sw * swxy - swx * swy) / denom;
                let alpha = (swy - beta * swx) / sw;
                alpha + beta * i as f64
            };
            out.push(fitted);
        }
        out
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

    /// Deterministic pseudo-noise of the given magnitude.
    fn noise(n: usize, seed: usize, scale: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let h = (i + seed).wrapping_mul(2_654_435_761) % 100_003;
                scale * (h as f64 / 100_003.0 - 0.5)
            })
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
            let ys: Vec<f64> = match shape {
                // Noise on a slope.
                0 => noise(n, seed, scale)
                    .into_iter()
                    .enumerate()
                    .map(|(i, y)| y + scale * 1e-3 * i as f64)
                    .collect(),
                // Constant runs: the degenerate-denominator path.
                1 => (0..n).map(|i| scale * ((i / (1 + seed % 50)) % 3) as f64).collect(),
                // Pure noise.
                _ => noise(n, seed, scale),
            };
            assert_bit_exact(&ys, span);
        }

        #[test]
        fn every_window_size_matches_oracle(n in 3usize..80, q_off in 0usize..80) {
            // Sweep q over 3..=n, even and odd, including q = n.
            let q = 3 + q_off % (n - 2);
            let span = (q as f64 - 0.5) / n as f64;
            assert_bit_exact(&noise(n, q_off, 10.0), span);
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
        let trend: Vec<f64> = noise(2016, 7, 100.0)
            .into_iter()
            .enumerate()
            .map(|(i, y)| y + 40.0 * (i as f64 * std::f64::consts::TAU / 144.0).sin())
            .collect();
        assert_bit_exact(&trend, 0.25);
        assert_bit_exact(&noise(14, 3, 5.0), 0.75);
        assert_bit_exact(&[3.5; 14], 0.75);
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
