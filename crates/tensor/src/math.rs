//! Special functions and numerically stable primitives.
//!
//! `erf`/`erfinv` back Proposition 4.2's closed-form quality expressions
//! (`Q^p_{1:2} = (1 + erf(pσ/2))/2`, the top-k expression uses `erfinv`).
//! The softmax helpers implement the three-pass max/sum/normalise scheme of
//! Appendix A.1.3 (Equation 10).

/// Error function. Maclaurin series for |x| < 2, asymptotic continued
/// fraction for the tails; accurate to better than 1e-12 everywhere, which
/// the Prop 4.2 / Prop 4.3 closed forms rely on near s → 0.
pub fn erf(x: f64) -> f64 {
    erf_precise(x)
}

/// Complementary error function.
#[inline]
pub fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

/// Inverse error function via the Giles (2012) single-precision-style
/// polynomial, refined with two Newton steps so `erf(erfinv(y)) = y` to
/// ~1e-12 over `(-1, 1)`.
pub fn erfinv(y: f64) -> f64 {
    assert!((-1.0..=1.0).contains(&y), "erfinv domain: {y}");
    if y == 1.0 {
        return f64::INFINITY;
    }
    if y == -1.0 {
        return f64::NEG_INFINITY;
    }
    let w = -((1.0 - y) * (1.0 + y)).ln();
    let mut x = if w < 5.0 {
        let w = w - 2.5;
        let mut p = 2.81022636e-08;
        p = 3.43273939e-07 + p * w;
        p = -3.5233877e-06 + p * w;
        p = -4.39150654e-06 + p * w;
        p = 0.00021858087 + p * w;
        p = -0.00125372503 + p * w;
        p = -0.00417768164 + p * w;
        p = 0.246640727 + p * w;
        p = 1.50140941 + p * w;
        p * y
    } else {
        let w = w.sqrt() - 3.0;
        let mut p = -0.000200214257;
        p = 0.000100950558 + p * w;
        p = 0.00134934322 + p * w;
        p = -0.00367342844 + p * w;
        p = 0.00573950773 + p * w;
        p = -0.0076224613 + p * w;
        p = 0.00943887047 + p * w;
        p = 1.00167406 + p * w;
        p = 2.83297682 + p * w;
        p * y
    };
    // Newton refinement on f(x) = erf(x) - y, f'(x) = 2/sqrt(pi) exp(-x^2).
    let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
    for _ in 0..2 {
        let err = erf_precise(x) - y;
        x -= err / (two_over_sqrt_pi * (-x * x).exp());
    }
    x
}

/// Higher-precision erf used internally by the Newton refinement: series for
/// small |x|, continued-fraction-backed erfc for large |x|.
fn erf_precise(x: f64) -> f64 {
    let ax = x.abs();
    if ax < 2.0 {
        // Maclaurin series: erf(x) = 2/sqrt(pi) * sum (-1)^n x^(2n+1)/(n!(2n+1)).
        let mut term = x;
        let mut sum = x;
        let x2 = x * x;
        for n in 1..64 {
            term *= -x2 / n as f64;
            let inc = term / (2 * n + 1) as f64;
            sum += inc;
            if inc.abs() < 1e-17 * sum.abs() {
                break;
            }
        }
        sum * 2.0 / std::f64::consts::PI.sqrt()
    } else {
        // Asymptotic continued fraction for erfc.
        let sign = x.signum();
        let mut cf = 0.0;
        for k in (1..=40).rev() {
            cf = 0.5 * k as f64 / (ax + cf);
        }
        let erfc = (-ax * ax).exp() / ((ax + cf) * std::f64::consts::PI.sqrt());
        sign * (1.0 - erfc)
    }
}

/// Standard normal CDF.
#[inline]
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal inverse CDF (probit).
#[inline]
pub fn normal_quantile(p: f64) -> f64 {
    std::f64::consts::SQRT_2 * erfinv(2.0 * p - 1.0)
}

/// GELU activation (tanh approximation, as used by BERT-family models).
#[inline]
pub fn gelu(x: f32) -> f32 {
    let x64 = x as f64;
    let c = (2.0 / std::f64::consts::PI).sqrt();
    (0.5 * x64 * (1.0 + (c * (x64 + 0.044715 * x64 * x64 * x64)).tanh())) as f32
}

/// Derivative of the tanh-approximated GELU.
pub fn gelu_grad(x: f32) -> f32 {
    let x = x as f64;
    let c = (2.0 / std::f64::consts::PI).sqrt();
    let u = c * (x + 0.044715 * x * x * x);
    let t = u.tanh();
    let du = c * (1.0 + 3.0 * 0.044715 * x * x);
    (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du) as f32
}

/// Numerically stable in-place softmax over a dense row (Equation 10):
/// `softmax(x)_i = exp(x_i - max x) / Σ_j exp(x_j - max x)`, with `max`
/// the left-to-right `f32::max` fold (NaN-ignoring), the exp and the sum of
/// [`softmax_exp_pass`], and one multiply by its normaliser per entry.
///
/// Rows that are entirely `-inf` (fully masked) become all zeros rather than
/// NaN, which is the convention masked attention needs.
pub fn softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let inv = softmax_exp_pass(row, max);
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Constants of [`softmax_exp`], public so that vector bodies of the same
/// op evaluate exactly these values.
pub mod exp_consts {
    /// log₂e, the Cody–Waite reduction's scale.
    pub const LOG2E: f32 = std::f32::consts::LOG2_E;
    /// 1.5·2²³: adding and then subtracting it rounds any `|z| < 2²²` to
    /// the nearest integer, ties to even.
    pub const ROUND: f32 = 12_582_912.0;
    /// ln 2 in two parts: `LN2_HI = 355/512` has 9 significant bits, so
    /// `n · LN2_HI` is exact for every `n` that reaches the polynomial.
    pub const LN2_HI: f32 = 355.0 / 512.0;
    /// `ln 2 − LN2_HI`, rounded to `f32`.
    pub const LN2_LO: f32 = -2.121_944_4e-4;
    /// The polynomial's coefficients, highest degree first: Cephes `expf`'s
    /// `p(r) = 1 + r + r²·(P[5] + r·(P[4] + … + r·P[0]))`, rounded to
    /// `f32`.
    pub const P: [f32; 6] = [
        1.987_569_1e-4,
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        0.166_666_66,
        0.5,
    ];
    /// Smallest exponent `n = RNE(x·log₂e)` that is not flushed to `+0`.
    pub const MIN_N: f32 = -126.0;
    /// Largest exponent `n` that is not `+∞`.
    pub const MAX_N: f32 = 127.0;
}

/// `eˣ` of the softmax, the scalar reference every SIMD backend reproduces
/// bit for bit. Cody–Waite reduction `x = n·ln 2 + r` with
/// `n = RNE(x·log₂e)` (through [`exp_consts::ROUND`], since a rounding call
/// can lower to libm), `r = (x − n·LN2_HI) − n·LN2_LO`, Cephes's degree-7
/// polynomial by Horner in [`exp_consts::P`], and the scale `2ⁿ` built from
/// its exponent bits. Every step is one IEEE multiply, add or subtract,
/// rounded to nearest even (never a fused multiply-add), in this order:
///
/// ```text
/// n = (x·LOG2E + ROUND) − ROUND
/// r = (x − n·LN2_HI) − n·LN2_LO
/// q = P[0]; for c in P[1..]: q = q·r + c
/// eˣ = ((q·(r·r) + r) + 1) · 2ⁿ
/// ```
///
/// Special cases, checked in this order:
/// * NaN returns `x` unchanged;
/// * `n < −126` returns `+0`: every result below `2^-126.5` is flushed
///   (from `x ≈ −87.683`), while `n = −126` still yields subnormals;
///   `−∞` lands here;
/// * `n > 127` returns `+∞` (from `x ≈ 88.03`; a softmax argument `x − max`
///   is never positive); `+∞` lands here.
///
/// `±0` give exactly `1`. On `[−87.33, 0]`, where `eˣ` is a normal
/// `f32`, the result is within 1 ulp of `f32::exp` (the kernels'
/// `simd_parity.rs` pins this on every input).
#[inline]
pub fn softmax_exp(x: f32) -> f32 {
    use exp_consts::*;
    if x.is_nan() {
        return x;
    }
    let n = (x * LOG2E + ROUND) - ROUND;
    if n < MIN_N {
        return 0.0;
    }
    if n > MAX_N {
        return f32::INFINITY;
    }
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut q = P[0];
    for &c in &P[1..] {
        q = q * r + c;
    }
    // `n` is an integer in [−126, 127], so the exponent field is in range.
    let scale = f32::from_bits(((n as i32 + 127) as u32) << 23);
    ((q * (r * r) + r) + 1.0) * scale
}

/// Lanes of the blocked sum of [`softmax_exp_pass`] (one AVX-512 register,
/// two AVX2 ones).
pub const EXP_SUM_LANES: usize = 16;

/// The exp phase of a stable softmax, the scalar reference of one op:
/// overwrites each entry with [`softmax_exp`]`(x - max)` and returns the
/// normaliser `1/Σ`, letting callers fuse the final multiply into their own
/// write-back pass (`v * inv` there is the exact multiplication
/// [`softmax_row`] performs in place).
///
/// The sum has a published shape that every backend reproduces bit for
/// bit: lane `l` of [`EXP_SUM_LANES`] adds, from `0.0` and in ascending
/// order, the entries at `i ≡ l (mod 16)` of the whole 16-blocks; lanes `l`
/// and `l + 8` then add into `m_l`, the eight fold by the tree
/// `((m0+m4)+(m1+m5)) + ((m2+m6)+(m3+m7))`, and the tail entries add
/// serially.
///
/// An empty row, or `max = −∞` (an all-`−∞` row, or all-NaN with the
/// NaN-ignoring max), leaves every entry `0.0` and returns `0.0`, so a fused
/// `v * inv` write-back still produces the zero row. A NaN entry stays NaN
/// and makes the sum, and so every weight, NaN.
pub fn softmax_exp_pass(row: &mut [f32], max: f32) -> f32 {
    if row.is_empty() || max == f32::NEG_INFINITY {
        row.fill(0.0);
        return 0.0;
    }
    let full = row.len() / EXP_SUM_LANES * EXP_SUM_LANES;
    let mut lanes = [0.0f32; EXP_SUM_LANES];
    for block in row[..full].chunks_exact_mut(EXP_SUM_LANES) {
        for (lane, v) in lanes.iter_mut().zip(block) {
            *v = softmax_exp(*v - max);
            *lane += *v;
        }
    }
    let m: [f32; 8] = std::array::from_fn(|l| lanes[l] + lanes[l + 8]);
    let mut sum = ((m[0] + m[4]) + (m[1] + m[5])) + ((m[2] + m[6]) + (m[3] + m[7]));
    for v in &mut row[full..] {
        *v = softmax_exp(*v - max);
        sum += *v;
    }
    1.0 / sum
}

/// Softmax returning a fresh vector.
pub fn softmax(xs: &[f32]) -> Vec<f32> {
    let mut out = xs.to_vec();
    softmax_row(&mut out);
    out
}

/// log(Σ exp(x_i)) computed stably.
pub fn log_sum_exp(xs: &[f32]) -> f32 {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        return f32::NEG_INFINITY;
    }
    let s: f32 = xs.iter().map(|&x| (x - max).exp()).sum();
    max + s.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-12);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-6);
        assert!((erf(3.5) - 0.999999257).abs() < 1e-6);
    }

    #[test]
    fn erf_odd_function() {
        for i in 0..100 {
            let x = i as f64 * 0.05;
            assert!((erf(x) + erf(-x)).abs() < 1e-12);
        }
    }

    #[test]
    fn erfinv_inverts_erf() {
        for i in -98..=98 {
            let y = i as f64 / 100.0;
            let x = erfinv(y);
            assert!(
                (erf_precise(x) - y).abs() < 1e-9,
                "y={y} x={x} erf={}",
                erf_precise(x)
            );
        }
    }

    #[test]
    fn erfinv_extremes() {
        assert_eq!(erfinv(1.0), f64::INFINITY);
        assert_eq!(erfinv(-1.0), f64::NEG_INFINITY);
        assert!(erfinv(0.0).abs() < 1e-12);
    }

    #[test]
    fn normal_cdf_quantile_roundtrip() {
        for i in 1..20 {
            let p = i as f64 / 20.0;
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-6, "p={p}");
        }
        // 95% two-sided z-value, used for the tables' confidence intervals.
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
    }

    #[test]
    fn softmax_row_sums_to_one() {
        let mut row = vec![0.1, 2.0, -1.0, 4.0, 0.0];
        softmax_row(&mut row);
        let s: f32 = row.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(row.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn softmax_invariant_to_shift() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_magnitudes() {
        let mut row = vec![1e30f32, 0.0, -1e30];
        softmax_row(&mut row);
        assert!((row[0] - 1.0).abs() < 1e-6);
        assert!(row.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_all_masked_row_is_zero() {
        let mut row = vec![f32::NEG_INFINITY; 4];
        softmax_row(&mut row);
        assert!(row.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn log_sum_exp_matches_naive_for_small() {
        let xs = [0.5f32, -1.0, 2.0];
        let naive = xs.iter().map(|x| x.exp()).sum::<f32>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-6);
    }

    #[test]
    fn gelu_properties() {
        assert!(gelu(0.0).abs() < 1e-7);
        assert!((gelu(10.0) - 10.0).abs() < 1e-3); // ≈ identity for large x
        assert!(gelu(-10.0).abs() < 1e-3); // ≈ 0 for very negative x
                                           // Finite-difference check of the gradient.
        for &x in &[-2.0f32, -0.5, 0.0, 0.7, 3.0] {
            let h = 1e-3;
            let fd = (gelu(x + h) - gelu(x - h)) / (2.0 * h);
            assert!((fd - gelu_grad(x)).abs() < 1e-3, "x={x}");
        }
    }
}
