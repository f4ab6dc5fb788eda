//! Exactly-rounded, reorder-invariant `f64` summation.
//!
//! [`ExactSum`] is a fixed-point superaccumulator: a 2176-bit two's-complement
//! integer wide enough to hold every finite `f64` (from the smallest
//! subnormal, 2⁻¹⁰⁷⁴, up past `f64::MAX` at ~2¹⁰²⁴) at full precision, with
//! ~63 bits of headroom so ~2⁶³ worst-case additions cannot overflow the
//! accumulator itself. Because every [`add`](ExactSum::add) lands each
//! mantissa exactly — no rounding until [`value`](ExactSum::value) — the
//! result is *independent of addition order*, and
//! [`merge`](ExactSum::merge) (limb-wise integer addition) is exactly
//! associative and commutative.
//!
//! That property is what the fleet aggregator needs: workers fold results
//! as they complete, and the report must be bit-for-bit identical to the
//! sequential fold for any completion order. Plain `f64 +=` cannot promise
//! that (floating addition is not associative); `ExactSum` can.
//!
//! Non-finite inputs are tracked as order-invariant flags rather than folded
//! into the limbs: any NaN — or both +∞ and −∞ — makes the final value NaN;
//! a single infinity sign wins otherwise, matching the IEEE result of any
//! sequential ordering. `-0.0` contributes no bits, so an all-zero sum
//! reports `+0.0`.

/// Number of 64-bit limbs: 2176 bits total.
const LIMBS: usize = 34;

/// The accumulator's least-significant bit has weight `2^-OFFSET`, so a
/// mantissa contribution at binary exponent `e` lands at bit `e + OFFSET`.
/// 1088 covers the smallest subnormal (needs bit 14) and leaves limb 33's
/// upper bits as overflow headroom + sign.
const OFFSET: i64 = 1088;

/// Exactly-rounded `f64` accumulator (see module docs).
///
/// ```
/// use doppler_stats::ExactSum;
///
/// let mut s = ExactSum::new();
/// for x in [1e300, 1.0, -1e300] {
///     s.add(x);
/// }
/// assert_eq!(s.value(), 1.0); // naive f64 summation would give 0.0
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactSum {
    limbs: [u64; LIMBS],
    has_nan: bool,
    has_pinf: bool,
    has_ninf: bool,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum::new()
    }
}

impl ExactSum {
    /// An empty sum (value `0.0`).
    pub fn new() -> ExactSum {
        ExactSum { limbs: [0; LIMBS], has_nan: false, has_pinf: false, has_ninf: false }
    }

    /// Fold one value into the sum, exactly.
    pub fn add(&mut self, x: f64) {
        if x == 0.0 {
            return; // ±0.0 contribute no bits; the empty sum reports +0.0.
        }
        if !x.is_finite() {
            if x.is_nan() {
                self.has_nan = true;
            } else if x > 0.0 {
                self.has_pinf = true;
            } else {
                self.has_ninf = true;
            }
            return;
        }
        let bits = x.to_bits();
        let negative = bits >> 63 == 1;
        let exp_field = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        // (mantissa, exponent-of-LSB): subnormals have no hidden bit.
        let (mant, exp2) =
            if exp_field == 0 { (frac, -1074i64) } else { (frac | (1u64 << 52), exp_field - 1075) };
        let bitpos = (exp2 + OFFSET) as usize; // 14..=2059 → limbs 0..=32
        let limb = bitpos / 64;
        let off = bitpos % 64;
        let wide = (mant as u128) << off;
        let (lo, hi) = (wide as u64, (wide >> 64) as u64);
        if negative {
            self.sub_wide(limb, lo, hi);
        } else {
            self.add_wide(limb, lo, hi);
        }
    }

    /// Fold another accumulator into this one: limb-wise integer addition
    /// plus flag union. Exactly associative and commutative — merging
    /// partial sums in any grouping yields identical limbs.
    pub fn merge(&mut self, other: &ExactSum) {
        let mut carry = 0u64;
        for i in 0..LIMBS {
            let (v, c1) = self.limbs[i].overflowing_add(other.limbs[i]);
            let (v, c2) = v.overflowing_add(carry);
            self.limbs[i] = v;
            carry = (c1 as u64) + (c2 as u64);
        }
        // Final carry wraps: arithmetic is mod 2^2176 two's complement.
        self.has_nan |= other.has_nan;
        self.has_pinf |= other.has_pinf;
        self.has_ninf |= other.has_ninf;
    }

    /// Round the exact sum to the nearest `f64` (ties to even).
    pub fn value(&self) -> f64 {
        if self.has_nan || (self.has_pinf && self.has_ninf) {
            return f64::NAN;
        }
        if self.has_pinf {
            return f64::INFINITY;
        }
        if self.has_ninf {
            return f64::NEG_INFINITY;
        }
        let negative = self.limbs[LIMBS - 1] >> 63 == 1;
        let mut mag = self.limbs;
        if negative {
            // Two's-complement negate into a plain magnitude.
            let mut carry = 1u64;
            for limb in mag.iter_mut() {
                let (v, c) = (!*limb).overflowing_add(carry);
                *limb = v;
                carry = c as u64;
            }
        }
        let top = match (0..LIMBS).rev().find(|&i| mag[i] != 0) {
            Some(i) => i,
            None => return 0.0,
        };
        let p = top * 64 + 63 - mag[top].leading_zeros() as usize;
        let exp = p as i64 - OFFSET;
        let sign = (negative as u64) << 63;
        if exp >= 1024 {
            // Magnitude beyond f64 range; also guards the extractors below.
            return f64::from_bits(sign | 0x7ff0_0000_0000_0000);
        }
        // Keep 53 bits from the top (normal) or everything above the
        // subnormal cutoff (bit 14 ↔ 2^-1074); round the rest half-even.
        let drop = if exp >= -1022 { p - 52 } else { 14 };
        let mut mant = bits_at(&mag, drop);
        let guard = bit(&mag, drop - 1);
        let sticky = any_below(&mag, drop - 1);
        if guard && (sticky || mant & 1 == 1) {
            mant += 1;
        }
        if exp >= -1022 {
            let mut exp = exp;
            if mant == 1u64 << 53 {
                mant >>= 1;
                exp += 1;
            }
            if exp > 1023 {
                return f64::from_bits(sign | 0x7ff0_0000_0000_0000);
            }
            f64::from_bits(sign | (((exp + 1023) as u64) << 52) | (mant & ((1u64 << 52) - 1)))
        } else {
            // Subnormal encoding; mant == 2^52 naturally promotes to the
            // smallest normal (2^-1022).
            f64::from_bits(sign | mant)
        }
    }
}

impl ExactSum {
    fn add_wide(&mut self, limb: usize, lo: u64, hi: u64) {
        let (v, c0) = self.limbs[limb].overflowing_add(lo);
        self.limbs[limb] = v;
        let (v, c1) = self.limbs[limb + 1].overflowing_add(hi);
        let (v, c2) = v.overflowing_add(c0 as u64);
        self.limbs[limb + 1] = v;
        let mut carry = c1 | c2;
        let mut i = limb + 2;
        while carry && i < LIMBS {
            let (v, c) = self.limbs[i].overflowing_add(1);
            self.limbs[i] = v;
            carry = c;
            i += 1;
        }
        // A carry off the top wraps: two's complement mod 2^2176.
    }

    fn sub_wide(&mut self, limb: usize, lo: u64, hi: u64) {
        let (v, b0) = self.limbs[limb].overflowing_sub(lo);
        self.limbs[limb] = v;
        let (v, b1) = self.limbs[limb + 1].overflowing_sub(hi);
        let (v, b2) = v.overflowing_sub(b0 as u64);
        self.limbs[limb + 1] = v;
        let mut borrow = b1 | b2;
        let mut i = limb + 2;
        while borrow && i < LIMBS {
            let (v, b) = self.limbs[i].overflowing_sub(1);
            self.limbs[i] = v;
            borrow = b;
            i += 1;
        }
    }
}

/// 53 bits of `mag` starting at bit `pos` (little-endian bit numbering).
fn bits_at(mag: &[u64; LIMBS], pos: usize) -> u64 {
    let limb = pos / 64;
    let off = pos % 64;
    let mut v = mag[limb] >> off;
    if off > 0 && limb + 1 < LIMBS {
        v |= mag[limb + 1] << (64 - off);
    }
    v & ((1u64 << 53) - 1)
}

/// Bit `pos` of `mag`.
fn bit(mag: &[u64; LIMBS], pos: usize) -> bool {
    (mag[pos / 64] >> (pos % 64)) & 1 == 1
}

/// Whether any bit strictly below `pos` is set.
fn any_below(mag: &[u64; LIMBS], pos: usize) -> bool {
    let limb = pos / 64;
    if mag[..limb].iter().any(|&l| l != 0) {
        return true;
    }
    mag[limb] & ((1u64 << (pos % 64)) - 1) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    fn sum_of(values: &[f64]) -> ExactSum {
        let mut s = ExactSum::new();
        for &v in values {
            s.add(v);
        }
        s
    }

    #[test]
    fn empty_and_zero_inputs_give_positive_zero() {
        assert_eq!(ExactSum::new().value().to_bits(), 0.0f64.to_bits());
        assert_eq!(sum_of(&[0.0, -0.0, 0.0]).value().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn small_integers() {
        assert_eq!(sum_of(&[1.0, 2.0, 3.0]).value(), 6.0);
        assert_eq!(sum_of(&[0.5, 0.25, 0.125]).value(), 0.875);
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        assert_eq!(sum_of(&[1e300, 1.0, -1e300]).value(), 1.0);
        assert_eq!(sum_of(&[1e16, 1.0, -1e16, 1.0]).value(), 2.0);
    }

    #[test]
    fn beats_naive_summation_at_the_53_bit_edge() {
        let two53 = (1u64 << 53) as f64;
        // Naive: 2^53 + 1.0 + 1.0 == 2^53 (each +1 rounds away).
        assert_eq!(two53 + 1.0 + 1.0, two53);
        assert_eq!(sum_of(&[two53, 1.0, 1.0]).value(), two53 + 2.0);
    }

    #[test]
    fn ties_round_to_even() {
        let ulp_half = (2.0f64).powi(-53);
        // Exactly halfway between 1.0 and 1.0+2^-52: tie → even (1.0).
        assert_eq!(sum_of(&[1.0, ulp_half]).value(), 1.0);
        // A sticky bit below the tie breaks upward.
        assert_eq!(sum_of(&[1.0, ulp_half, (2.0f64).powi(-100)]).value(), 1.0 + (2.0f64).powi(-52));
    }

    #[test]
    fn subnormals_sum_exactly() {
        let tiny = f64::from_bits(1); // 2^-1074
        assert_eq!(sum_of(&[tiny, tiny, tiny]).value().to_bits(), 3);
        assert_eq!(sum_of(&[tiny, -tiny]).value().to_bits(), 0);
        // Subnormal sum promoting to the smallest normal.
        let half_min = f64::from_bits(1u64 << 51); // 2^-1023
        assert_eq!(sum_of(&[half_min, half_min]).value(), f64::MIN_POSITIVE);
    }

    #[test]
    fn negative_sums() {
        assert_eq!(sum_of(&[-1.5, 0.5]).value(), -1.0);
        assert_eq!(sum_of(&[-1e300, -1.0, 1e300]).value(), -1.0);
        let tiny = f64::from_bits(1);
        let v = sum_of(&[-tiny, -tiny]).value();
        assert!(v.is_sign_negative());
        assert_eq!(v.to_bits() & !(1u64 << 63), 2);
    }

    #[test]
    fn reordering_never_changes_the_result() {
        let mut rng = SeededRng::new(0xE5AC);
        let mut values: Vec<f64> = Vec::new();
        for i in 0..200 {
            let scale = (rng.index(600) as i32) - 300;
            let v = (rng.unit() * 2.0 - 1.0) * (2.0f64).powi(scale);
            values.push(if i % 7 == 0 { -v } else { v });
        }
        let baseline = sum_of(&values);
        for round in 0..20 {
            let mut shuffled = values.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.index(i + 1));
            }
            let s = sum_of(&shuffled);
            assert_eq!(s, baseline, "round {round}: shuffled sum diverged");
            assert_eq!(s.value().to_bits(), baseline.value().to_bits());
        }
    }

    #[test]
    fn merge_agrees_with_sequential_adds() {
        let mut rng = SeededRng::new(7);
        let values: Vec<f64> = (0..300).map(|_| rng.normal_with(0.0, 1e6)).collect();
        let whole = sum_of(&values);
        for split in [1, 37, 150, 299] {
            let mut left = sum_of(&values[..split]);
            left.merge(&sum_of(&values[split..]));
            assert_eq!(left, whole);
        }
    }

    #[test]
    fn merge_is_associative() {
        let mut rng = SeededRng::new(99);
        let parts: Vec<ExactSum> = (0..3)
            .map(|_| {
                let vals: Vec<f64> = (0..50).map(|_| rng.range(-1e12, 1e12)).collect();
                sum_of(&vals)
            })
            .collect();
        let mut ab_c = parts[0].clone();
        ab_c.merge(&parts[1]);
        ab_c.merge(&parts[2]);
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut a_bc = parts[0].clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn non_finite_flags_are_order_invariant() {
        assert_eq!(sum_of(&[f64::INFINITY, 1.0]).value(), f64::INFINITY);
        assert_eq!(sum_of(&[1.0, f64::NEG_INFINITY]).value(), f64::NEG_INFINITY);
        assert!(sum_of(&[f64::INFINITY, f64::NEG_INFINITY]).value().is_nan());
        assert!(sum_of(&[f64::NEG_INFINITY, f64::INFINITY]).value().is_nan());
        assert!(sum_of(&[1.0, f64::NAN, 2.0]).value().is_nan());
        let mut merged = sum_of(&[f64::INFINITY]);
        merged.merge(&sum_of(&[f64::NEG_INFINITY]));
        assert!(merged.value().is_nan());
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(sum_of(&[f64::MAX, f64::MAX]).value(), f64::INFINITY);
        assert_eq!(sum_of(&[f64::MIN, f64::MIN]).value(), f64::NEG_INFINITY);
        // ...and cancels back to finite if the other sign arrives later.
        assert_eq!(sum_of(&[f64::MAX, f64::MAX, -f64::MAX]).value(), f64::MAX);
    }

    #[test]
    fn exact_against_integer_arithmetic() {
        // Integer-valued doubles small enough that i128 arithmetic is exact.
        let mut rng = SeededRng::new(1234);
        let values: Vec<i64> = (0..500).map(|_| rng.index(1 << 40) as i64 - (1 << 39)).collect();
        let expected: i128 = values.iter().map(|&v| v as i128).sum();
        let s = sum_of(&values.iter().map(|&v| v as f64).collect::<Vec<_>>());
        assert_eq!(s.value(), expected as f64);
    }
}
