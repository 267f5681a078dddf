//! IEEE-754 binary32 arithmetic as Boolean circuits.
//!
//! VIP-Bench's Gradient-Descent workload uses "true floating point
//! arithmetic" (paper §5), which is what makes it the deepest, least
//! parallel benchmark in Table 2. This module synthesizes FP32 add/mul
//! with the following simplifications (this list is their record):
//!
//! - subnormals are flushed to zero (an `exp == 0` operand is zero);
//! - no NaN/Infinity handling — overflow saturates to `exp = 255,
//!   mantissa = 0`, underflow flushes to `+0`;
//! - rounding is truncation (round toward zero).
//!
//! The *exact* same semantics are implemented in software by
//! [`fp32_add_ref`] / [`fp32_mul_ref`], which serve as the plaintext
//! reference for tests and for the GradDesc plaintext baseline; circuit
//! and reference agree bit-for-bit.

use crate::builder::{Bit, Builder, Word};

/// Width of an FP32 word in circuit form.
pub const FP32_BITS: u32 = 32;

/// Software reference for circuit FP32 multiplication (see module docs
/// for the exact semantics).
///
/// # Examples
///
/// ```
/// use haac_circuit::float::fp32_mul_ref;
/// let a = 1.5f32.to_bits();
/// let b = 2.0f32.to_bits();
/// assert_eq!(f32::from_bits(fp32_mul_ref(a, b)), 3.0);
/// ```
pub fn fp32_mul_ref(a: u32, b: u32) -> u32 {
    let (sa, ea, ma) = split(a);
    let (sb, eb, mb) = split(b);
    if ea == 0 || eb == 0 {
        return 0;
    }
    let sign = sa ^ sb;
    let p = (u64::from(ma) | (1 << 23)) * (u64::from(mb) | (1 << 23)); // 48 bits
    let norm = (p >> 47) & 1;
    let frac = if norm == 1 { (p >> 24) & 0x7f_ffff } else { (p >> 23) & 0x7f_ffff } as u32;
    let e = ea + eb + norm as u32; // true exponent + 127
    if e <= 127 {
        return 0;
    }
    if e >= 127 + 255 {
        return (sign << 31) | (255 << 23);
    }
    (sign << 31) | ((e - 127) << 23) | frac
}

/// Software reference for circuit FP32 addition (see module docs for the
/// exact semantics).
///
/// # Examples
///
/// ```
/// use haac_circuit::float::fp32_add_ref;
/// let a = 0.5f32.to_bits();
/// let b = 0.25f32.to_bits();
/// assert_eq!(f32::from_bits(fp32_add_ref(a, b)), 0.75);
/// ```
pub fn fp32_add_ref(a: u32, b: u32) -> u32 {
    let (mut a, mut b) = (a, b);
    if (a & 0x7fff_ffff) < (b & 0x7fff_ffff) {
        core::mem::swap(&mut a, &mut b);
    }
    let (sa, ea, ma) = split(a);
    let (_sb, eb, mb) = split(b);
    let a_zero = ea == 0;
    let b_zero = eb == 0;
    if b_zero {
        return if a_zero { 0 } else { a };
    }
    let d = ea - eb;
    let big = (u64::from(ma) | (1 << 23)) << 3; // 27 bits, 3 guard bits
    let small = (u64::from(mb) | (1 << 23)) << 3;
    let small_shifted = if d >= 64 { 0 } else { small >> d };
    let same_sign = (a >> 31) == (b >> 31);
    let s = if same_sign { big + small_shifted } else { big - small_shifted }; // ≤ 28 bits
    if s == 0 {
        return 0;
    }
    if (s >> 27) & 1 == 1 {
        // Carry-out of the 27-bit frame: renormalize right by one.
        let frac = ((s >> 4) & 0x7f_ffff) as u32;
        let e = ea + 1;
        if e >= 255 {
            return (sa << 31) | (255 << 23);
        }
        return (sa << 31) | (e << 23) | frac;
    }
    // Normalize left: hidden bit belongs at position 26.
    let lz = 26 - (63 - s.leading_zeros());
    let n = s << lz;
    let frac = ((n >> 3) & 0x7f_ffff) as u32;
    let e = ea as i64 - i64::from(lz);
    if e <= 0 {
        return 0;
    }
    (sa << 31) | ((e as u32) << 23) | frac
}

/// Software reference for circuit FP32 subtraction.
pub fn fp32_sub_ref(a: u32, b: u32) -> u32 {
    fp32_add_ref(a, b ^ (1 << 31))
}

/// Flushes a host float to the representable domain of the reference
/// semantics (subnormals become zero).
pub fn fp32_canon(x: f32) -> u32 {
    let bits = x.to_bits();
    if (bits >> 23) & 0xff == 0 {
        0
    } else {
        bits
    }
}

fn split(x: u32) -> (u32, u32, u32) {
    (x >> 31, (x >> 23) & 0xff, x & 0x7f_ffff)
}

impl Builder {
    /// A public FP32 constant as 32 circuit bits (subnormals flushed).
    pub fn fp_const(&self, value: f32) -> Word {
        self.const_word(u64::from(fp32_canon(value)), FP32_BITS)
    }

    /// FP32 negation (sign-bit flip; free).
    pub fn fp_neg(&mut self, x: &[Bit]) -> Word {
        assert_eq!(x.len(), 32, "fp_neg expects 32 bits");
        let mut out = x.to_vec();
        out[31] = self.not(out[31]);
        out
    }

    /// FP32 multiplication circuit (≈ 700 ANDs); bit-exact with
    /// [`fp32_mul_ref`].
    ///
    /// # Panics
    ///
    /// Panics if either input is not 32 bits wide.
    pub fn fp_mul(&mut self, x: &[Bit], y: &[Bit]) -> Word {
        assert_eq!(x.len(), 32, "fp_mul expects 32 bits");
        assert_eq!(y.len(), 32, "fp_mul expects 32 bits");
        let (sx, ex, mx) = (x[31], &x[23..31], &x[0..23]);
        let (sy, ey, my) = (y[31], &y[23..31], &y[0..23]);
        let zero8 = self.const_word(0, 8);
        let x_zero = self.eq_words(ex, &zero8);
        let y_zero = self.eq_words(ey, &zero8);
        let sign = self.xor(sx, sy);

        // 24×24 product with implicit leading ones.
        let mut ma: Word = mx.to_vec();
        ma.push(Bit::TRUE);
        let mut mb: Word = my.to_vec();
        mb.push(Bit::TRUE);
        let p = self.mul_words(&ma, &mb); // 48 bits
        let norm = p[47];
        let frac = self.mux_word(norm, &p[24..47], &p[23..46]);

        // e = ex + ey + norm, 9 bits (max 511).
        let mut ex9: Word = ex.to_vec();
        ex9.push(Bit::FALSE);
        let mut ey9: Word = ey.to_vec();
        ey9.push(Bit::FALSE);
        let (e_sum, _) = self.add_words(&ex9, &ey9);
        let norm9 = {
            let mut w = vec![Bit::FALSE; 9];
            w[0] = norm;
            w
        };
        let (e, _) = self.add_words(&e_sum, &norm9);

        let c127 = self.const_word(127, 9);
        let c382 = self.const_word(382, 9);
        let underflow = self.le_u(&e, &c127);
        let overflow = self.ge_u(&e, &c382);
        let (e_unb, _) = self.sub_words(&e, &c127);

        let mut result: Word = frac;
        result.extend_from_slice(&e_unb[0..8]);
        result.push(sign);

        // Saturate, then zero-flush (outermost wins, matching the ref).
        let mut saturated = self.const_word(0, 23);
        saturated.extend(self.const_word(0xff, 8));
        saturated.push(sign);
        let result = self.mux_word(overflow, &saturated, &result);
        let zero32 = self.const_word(0, 32);
        let result = self.mux_word(underflow, &zero32, &result);
        let any_zero = self.or(x_zero, y_zero);
        self.mux_word(any_zero, &zero32, &result)
    }

    /// FP32 addition circuit (≈ 500 ANDs); bit-exact with
    /// [`fp32_add_ref`].
    ///
    /// # Panics
    ///
    /// Panics if either input is not 32 bits wide.
    pub fn fp_add(&mut self, x: &[Bit], y: &[Bit]) -> Word {
        assert_eq!(x.len(), 32, "fp_add expects 32 bits");
        assert_eq!(y.len(), 32, "fp_add expects 32 bits");
        // Order by magnitude: |a| >= |b|. Magnitude compare is integer
        // compare of the low 31 bits.
        let swap = self.lt_u(&x[0..31], &y[0..31]);
        let a = self.mux_word(swap, y, x);
        let b = self.mux_word(swap, x, y);
        let (sa, ea, ma) = (a[31], a[23..31].to_vec(), a[0..23].to_vec());
        let (sb, eb, mb) = (b[31], b[23..31].to_vec(), b[0..23].to_vec());
        let zero8 = self.const_word(0, 8);
        let a_zero = self.eq_words(&ea, &zero8);
        let b_zero = self.eq_words(&eb, &zero8);

        let (d, _) = self.sub_words(&ea, &eb); // >= 0 by the swap

        // 27-bit frames with 3 guard bits; hidden one at bit 26.
        let mut big = vec![Bit::FALSE; 3];
        big.extend_from_slice(&ma);
        big.push(Bit::TRUE);
        let mut small = vec![Bit::FALSE; 3];
        small.extend_from_slice(&mb);
        small.push(Bit::TRUE);
        let small_shifted = self.shr_var(&small, &d);

        let same_sign = self.xnor(sa, sb);
        let (sum, carry) = self.add_words(&big, &small_shifted);
        let (diff, _) = self.sub_words(&big, &small_shifted); // >= 0 by the swap
        let mut s_add = sum;
        s_add.push(carry);
        let mut s_sub = diff;
        s_sub.push(Bit::FALSE);
        let s = self.mux_word(same_sign, &s_add, &s_sub); // 28 bits

        // Path A: carry-out — renormalize right by one.
        let overflow_frame = s[27];
        let frac_a: Word = s[4..27].to_vec();
        let mut ea9: Word = ea.clone();
        ea9.push(Bit::FALSE);
        let one9 = self.const_word(1, 9);
        let (e_a, _) = self.add_words(&ea9, &one9);
        let c255 = self.const_word(255, 9);
        let sat_a = self.ge_u(&e_a, &c255);

        // Path B: normalize left using the leading-zero count of s[0..27].
        let (lz, s_zero) = self.leading_zeros(&s[0..27]);
        let n = self.shl_var(&s[0..27], &lz);
        let frac_b: Word = n[3..26].to_vec();
        let mut lz9 = lz.clone();
        lz9.resize(9, Bit::FALSE);
        let (e_b, neg) = self.sub_words(&ea9, &lz9);
        let zero9 = self.const_word(0, 9);
        let e_b_zero = self.eq_words(&e_b, &zero9);
        let under_b = self.or(neg, e_b_zero);

        // Select path, assemble, then apply the zero/identity muxes in
        // the same priority order as the reference.
        let frac = self.mux_word(overflow_frame, &frac_a, &frac_b);
        let e9 = self.mux_word(overflow_frame, &e_a, &e_b);
        let mut result: Word = frac;
        result.extend_from_slice(&e9[0..8]);
        result.push(sa);

        let mut saturated = self.const_word(0, 23);
        saturated.extend(self.const_word(0xff, 8));
        saturated.push(sa);
        let sat_sel = self.and(overflow_frame, sat_a);
        let result = self.mux_word(sat_sel, &saturated, &result);

        let zero32 = self.const_word(0, 32);
        let not_over = self.not(overflow_frame);
        let under_sel = self.and(not_over, under_b);
        let result = self.mux_word(under_sel, &zero32, &result);
        // `s == 0` must consider all 28 bits: the LZC only saw s[0..27].
        let s_zero_full = self.and(s_zero, not_over);
        let result = self.mux_word(s_zero_full, &zero32, &result);
        let result = self.mux_word(b_zero, &a, &result);
        self.mux_word(a_zero, &zero32, &result)
    }

    /// FP32 subtraction circuit: `x - y` via sign-flip + add.
    pub fn fp_sub(&mut self, x: &[Bit], y: &[Bit]) -> Word {
        let ny = self.fp_neg(y);
        self.fp_add(x, &ny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_binop(x: u32, y: u32, f: impl Fn(&mut Builder, &[Bit], &[Bit]) -> Word) -> u32 {
        let mut b = Builder::new();
        let xs = b.input_garbler(32);
        let ys = b.input_evaluator(32);
        let out = f(&mut b, &xs, &ys);
        let c = b.finish(out).unwrap();
        let to_bits = |v: u32| (0..32).map(|i| (v >> i) & 1 == 1).collect::<Vec<_>>();
        let out = c.eval(&to_bits(x), &to_bits(y)).unwrap();
        out.iter().enumerate().fold(0u32, |acc, (i, &bit)| acc | ((bit as u32) << i))
    }

    const SAMPLES: &[f32] = &[
        0.0,
        1.0,
        -1.0,
        0.5,
        -0.5,
        2.0,
        3.25,
        -3.25,
        100.75,
        -0.015625,
        1234.5678,
        -9999.25,
        0.000_030_517_578,
        3.4e37,
        -3.4e37,
        1.1754944e-38,
        7.0e-39,
        0.1,
        -0.3,
    ];

    #[test]
    fn mul_ref_matches_host_on_exact_cases() {
        // Products of dyadic values are exact: ref == host.
        for &(a, b) in &[(1.5f32, 2.0f32), (0.5, 0.5), (-4.0, 0.25), (3.0, 7.0), (0.0, 5.0)] {
            let got = fp32_mul_ref(a.to_bits(), b.to_bits());
            assert_eq!(f32::from_bits(got), a * b, "{a} * {b}");
        }
    }

    #[test]
    fn add_ref_matches_host_on_exact_cases() {
        for &(a, b) in &[
            (1.5f32, 2.0f32),
            (0.5, 0.25),
            (-4.0, 0.25),
            (3.0, -3.0),
            (0.0, 5.0),
            (-0.0, 0.0),
            (1048576.0, 0.5),
        ] {
            let got = fp32_add_ref(a.to_bits(), b.to_bits());
            assert_eq!(f32::from_bits(got), a + b, "{a} + {b}");
        }
    }

    #[test]
    fn ref_truncation_is_close_to_host() {
        for &a in SAMPLES {
            for &b in SAMPLES {
                let got = f32::from_bits(fp32_mul_ref(fp32_canon(a), fp32_canon(b)));
                let expect = a * b;
                if expect.is_finite() && expect.abs() > 1e-35 && got != 0.0 {
                    let rel = ((got - expect) / expect).abs();
                    assert!(rel < 1e-6, "{a} * {b}: got {got}, expect {expect}");
                }
                let got = f32::from_bits(fp32_add_ref(fp32_canon(a), fp32_canon(b)));
                let expect = a + b;
                if expect.is_finite() && expect.abs() > 1e-30 && got != 0.0 {
                    let rel = ((got - expect) / expect).abs();
                    assert!(rel < 1e-5, "{a} + {b}: got {got}, expect {expect}");
                }
            }
        }
    }

    #[test]
    fn mul_circuit_matches_ref() {
        for &a in SAMPLES {
            for &b in SAMPLES {
                let (ab, bb) = (fp32_canon(a), fp32_canon(b));
                let got = eval_binop(ab, bb, |bu, x, y| bu.fp_mul(x, y));
                assert_eq!(got, fp32_mul_ref(ab, bb), "{a} * {b}");
            }
        }
    }

    #[test]
    fn add_circuit_matches_ref() {
        for &a in SAMPLES {
            for &b in SAMPLES {
                let (ab, bb) = (fp32_canon(a), fp32_canon(b));
                let got = eval_binop(ab, bb, |bu, x, y| bu.fp_add(x, y));
                assert_eq!(got, fp32_add_ref(ab, bb), "{a} + {b}");
            }
        }
    }

    #[test]
    fn sub_circuit_matches_ref() {
        for &(a, b) in &[(5.5f32, 2.25f32), (1.0, 1.0), (-3.5, 2.0), (0.0, 7.0)] {
            let (ab, bb) = (fp32_canon(a), fp32_canon(b));
            let got = eval_binop(ab, bb, |bu, x, y| bu.fp_sub(x, y));
            assert_eq!(got, fp32_sub_ref(ab, bb), "{a} - {b}");
        }
    }

    #[test]
    fn saturation_and_flush() {
        let big = 3.0e38f32;
        let got = fp32_mul_ref(big.to_bits(), big.to_bits());
        assert_eq!(got >> 23, 255, "overflow saturates");
        let tiny = 1.2e-38f32;
        assert_eq!(fp32_mul_ref(tiny.to_bits(), tiny.to_bits()), 0, "underflow flushes");
    }

    #[test]
    fn neg_flips_sign_only() {
        let got = eval_binop(1.5f32.to_bits(), 0, |b, x, _| b.fp_neg(x));
        assert_eq!(f32::from_bits(got), -1.5);
    }
}
