//! The lockstep kernels compiled twice: once for the build's baseline
//! target and, on x86-64, once more with AVX2 enabled, chosen at run time.
//!
//! The release build targets baseline x86-64 (SSE2), so the lockstep loops
//! of [`crate::loess`], [`crate::stl`] and the bootstrap windows of
//! [`crate::spike`] run two `f64` lanes per instruction. The AVX2 copy runs
//! four. Only `avx2` is enabled, never `fma`, and Rust never contracts a
//! multiply and an add into one fused operation on its own, so every lane
//! performs the same operations in the same order in both copies: their
//! outputs are identical to the bit.
//!
//! The bodies live next to their callers as `#[inline(always)]` functions,
//! and so do the helpers they call, so each copy here compiles its own
//! inlined body rather than calling the baseline one. This module holds the
//! crate's only `unsafe` code: calling an AVX2 function needs the CPU to
//! support AVX2, which [`Isa::detect`] checks.

use crate::loess::{self, Plan};
use crate::spike::{self, SpikeProfile, LANES};
use crate::stl;

/// A compiled copy of the kernels. Only [`Isa::detect`] makes one that runs
/// AVX2 code, and only on a CPU that has AVX2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Isa {
    /// Whether to run the AVX2 copy. Private to this module: it is true only
    /// where `is_x86_feature_detected!("avx2")` said so.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    avx2: bool,
}

impl Isa {
    /// The baseline copy, which runs on every CPU.
    pub(crate) const PORTABLE: Isa = Isa { avx2: false };

    /// The widest copy this CPU runs.
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return Isa { avx2: true };
        }
        Isa::PORTABLE
    }
}

/// Smooth `ys` into `out` with `plan`'s loess pass (see [`loess::fill`]).
pub(crate) fn loess(isa: Isa, plan: &Plan, ys: &[f64], out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if isa.avx2 {
        // SAFETY: `loess_avx2` requires only AVX2, and `isa.avx2` is true only
        // when `Isa::detect` found AVX2 on this CPU.
        return unsafe { loess_avx2(plan, ys, out) };
    }
    loess::fill(plan, ys, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn loess_avx2(plan: &Plan, ys: &[f64], out: &mut [f64]) {
    loess::fill(plan, ys, out)
}

/// STL's centred moving average (see [`stl::moving_average`]).
pub(crate) fn moving_average(isa: Isa, xs: &[f64], w: usize) -> Vec<f64> {
    #[cfg(target_arch = "x86_64")]
    if isa.avx2 {
        // SAFETY: `moving_average_avx2` requires only AVX2, and `isa.avx2` is
        // true only when `Isa::detect` found AVX2 on this CPU.
        return unsafe { moving_average_avx2(xs, w) };
    }
    stl::moving_average(xs, w)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn moving_average_avx2(xs: &[f64], w: usize) -> Vec<f64> {
    stl::moving_average(xs, w)
}

/// Measure `W` windows of sample-major columns in lockstep (see
/// [`SpikeProfile::measure_windows`]).
pub(crate) fn spike_windows<const W: usize>(
    isa: Isa,
    columns: &[[f64; LANES]],
    starts: [usize; W],
    len: usize,
) -> Option<[[SpikeProfile; LANES]; W]> {
    #[cfg(target_arch = "x86_64")]
    if isa.avx2 {
        // SAFETY: `spike_windows_avx2` requires only AVX2, and `isa.avx2` is
        // true only when `Isa::detect` found AVX2 on this CPU.
        return unsafe { spike_windows_avx2(columns, starts, len) };
    }
    spike::measure_windows(columns, starts, len)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn spike_windows_avx2<const W: usize>(
    columns: &[[f64; LANES]],
    starts: [usize; W],
    len: usize,
) -> Option<[[SpikeProfile; LANES]; W]> {
    spike::measure_windows(columns, starts, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loess::Smoother;

    /// Every copy this CPU runs: the baseline one, and AVX2 when detected.
    fn copies() -> Vec<Isa> {
        let mut copies = vec![Isa::PORTABLE, Isa::detect()];
        copies.dedup();
        copies
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

    /// Test series: STL's trend shape (14 days of 10-minute samples, a
    /// daily cycle on noise), its cycle-subseries shapes (14 and 15 samples)
    /// and odd lengths, each as noise on a slope, as constant runs and with
    /// signed zeros.
    fn series() -> Vec<Vec<f64>> {
        let mut out = Vec::new();
        for (k, n) in [2016, 2017, 14, 15, 3, 4, 17, 31, 100, 433, 1000].into_iter().enumerate() {
            let trend: Vec<f64> = noise(n, k, 100.0)
                .into_iter()
                .enumerate()
                .map(|(i, y)| y + 40.0 * (i as f64 * std::f64::consts::TAU / 144.0).sin())
                .collect();
            let runs: Vec<f64> = (0..n).map(|i| ((i / (1 + k)) % 3) as f64 * 1e3).collect();
            let zeros: Vec<f64> =
                (0..n).map(|i| if i % 3 == 0 { -0.0 } else { noise(1, i, 1e-300)[0] }).collect();
            out.extend([trend, runs, zeros]);
        }
        out
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn detect_is_portable_or_avx2() {
        let isa = Isa::detect();
        #[cfg(target_arch = "x86_64")]
        assert_eq!(isa.avx2, is_x86_feature_detected!("avx2"));
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(isa, Isa::PORTABLE);
    }

    #[test]
    fn every_copy_of_the_loess_gives_the_same_bits() {
        for ys in series() {
            for span in [0.0, 0.1, 0.25, 0.5, 0.75, 1.0] {
                let smoother = Smoother::new(ys.len(), span);
                let outputs: Vec<Vec<u64>> = copies()
                    .into_iter()
                    .map(|isa| {
                        let mut out = vec![f64::NAN; ys.len()];
                        smoother.smooth_into(isa, &ys, &mut out);
                        bits(&out)
                    })
                    .collect();
                for (isa, out) in copies().iter().zip(&outputs) {
                    assert_eq!(out, &outputs[0], "n = {}, span = {span}, {isa:?}", ys.len());
                }
            }
        }
    }

    #[test]
    fn every_copy_of_the_window_kernel_gives_the_same_bits() {
        let bits = |p: &[[SpikeProfile; LANES]]| -> Vec<u64> {
            p.iter()
                .flatten()
                .flat_map(|p| [p.peak, p.mean, p.stddev, p.dwell_fraction])
                .map(f64::to_bits)
                .collect()
        };
        let all = series();
        for (k, group) in all.chunks_exact(LANES).enumerate() {
            let n = group.iter().map(Vec::len).min().unwrap();
            let columns: Vec<[f64; LANES]> =
                (0..n).map(|t| std::array::from_fn(|l| group[l][t])).collect();
            for len in [1, 2, 3, n / 2, n] {
                let starts = [0, (k * 7) % (n - len + 1), n - len, (n - len) / 2];
                let outputs: Vec<Vec<u64>> = copies()
                    .into_iter()
                    .map(|isa| {
                        let four = spike_windows(isa, &columns, starts, len).unwrap();
                        let one = spike_windows(isa, &columns, [starts[2]], len).unwrap();
                        [bits(&four), bits(&one)].concat()
                    })
                    .collect();
                for (isa, out) in copies().iter().zip(&outputs) {
                    assert_eq!(out, &outputs[0], "n = {n}, len = {len}, {isa:?}");
                }
            }
        }
    }

    #[test]
    fn every_copy_of_the_moving_average_gives_the_same_bits() {
        for xs in series() {
            for w in [0, 1, 2, 3, 5, 13, 144, 145, 2016, 3000] {
                let outputs: Vec<Vec<u64>> =
                    copies().into_iter().map(|isa| bits(&moving_average(isa, &xs, w))).collect();
                for (isa, out) in copies().iter().zip(&outputs) {
                    assert_eq!(out, &outputs[0], "n = {}, w = {w}, {isa:?}", xs.len());
                }
            }
        }
    }
}
