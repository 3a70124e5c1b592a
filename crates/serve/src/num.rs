//! Float text for [`crate::wire::Json`], byte for byte and bit for bit
//! what core's `{}` / `{:e}` and `str::parse` give, without their general
//! machinery: [`write_f32`] is Ryu's `f32` digit search (Adams, PLDI 2018),
//! and [`scan`] a one-pass number scanner with Clinger's exact fast path
//! (PLDI 1990).

use std::str::FromStr;

/// Bits each entry of [`POW5`] keeps.
const POW5_BITS: u32 = 61;

/// Bits each entry of [`POW5_INV`] adds past `5^q`'s own length.
const POW5_INV_BITS: u32 = 59;

/// `5^i` cut (or widened) to its top [`POW5_BITS`] bits: the scales of
/// `f32`s below 2^-2.
const POW5: [u64; 47] = pow5_tables().0;

/// `⌊2^(len(5^q) − 1 + POW5_INV_BITS) / 5^q⌋ + 1`: the inverse scales of
/// `f32`s from 2^-2 up.
const POW5_INV: [u64; 31] = pow5_tables().1;

const fn pow5_tables() -> ([u64; 47], [u64; 31]) {
    let (mut pow5, mut inv) = ([0; 47], [0; 31]);
    let (mut i, mut p) = (0, 1u128);
    while i < pow5.len() {
        let len = u128::BITS - p.leading_zeros();
        pow5[i] = if len > POW5_BITS {
            (p >> (len - POW5_BITS)) as u64
        } else {
            (p << (POW5_BITS - len)) as u64
        };
        if i < inv.len() {
            let shift = len - 1 + POW5_INV_BITS;
            // 2^128 does not fit, and no power of 5 divides it, so
            // `u128::MAX / p` is the same quotient.
            let two_k = if shift == 128 { u128::MAX } else { 1 << shift };
            inv[i] = (two_k / p) as u64 + 1;
        }
        i += 1;
        p *= 5;
    }
    (pow5, inv)
}

/// `len(5^e)`: `⌈log2 5^e⌉`, and 1 at `e = 0`.
fn pow5_bits(e: u32) -> i32 {
    ((e * 1_217_359) >> 19) as i32 + 1
}

/// The shortest `(digits, exponent)` with `digits · 10^exponent` inside
/// the round-trip interval of the finite, nonzero `x`, and of those the
/// one nearest `x`. Ryu rounds an exact tie to even; this rounds it up,
/// as core does (`1.50390625` is `1.5039063`).
fn shortest(x: f32) -> (u32, i32) {
    let bits = x.to_bits();
    let mantissa = bits & 0x7f_ffff;
    let exponent = (bits >> 23) & 0xff;
    // A subnormal has exponent 1's scale and no implicit bit; two extra
    // bits below the mantissa hold the interval's bounds.
    let e2 = exponent.max(1) as i32 - 127 - 23 - 2;
    let m2 = mantissa | u32::from(exponent != 0) << 23;
    let accept_bounds = m2.is_multiple_of(2);
    let (mv, mp) = (4 * m2, 4 * m2 + 2);
    let mm_shift = u32::from(mantissa != 0 || exponent <= 1);
    let mm = mv - 1 - mm_shift;

    // Scale the value and its bounds to a power of ten, `10^e10`.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    let mut last_removed_digit = 0;
    if e2 >= 0 {
        let q = (e2 as u32 * 78_913) >> 18; // ⌊log10 2^e2⌋
        e10 = q as i32;
        let scale = |m: u32, q: u32| {
            let shift = q as i32 + POW5_INV_BITS as i32 + pow5_bits(q) - 1 - e2;
            ((u128::from(m) * u128::from(POW5_INV[q as usize])) >> shift) as u32
        };
        (vr, vp, vm) = (scale(mv, q), scale(mp, q), scale(mm, q));
        if q != 0 && (vp - 1) / 10 <= vm / 10 {
            // The loop below may not run, but the rounding needs the
            // first digit it would have removed.
            last_removed_digit = scale(mv, q - 1) % 10;
        }
        // At most one of mp, mv and mm is a multiple of 5 (and 5^9 fits).
        if q <= 9 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = mm % 5u32.pow(q) == 0;
            } else {
                vp -= u32::from(mp % 5u32.pow(q) == 0);
            }
        }
    } else {
        let q = (-e2 as u32 * 732_923) >> 20; // ⌊log10 5^−e2⌋
        e10 = q as i32 + e2;
        let i = -e2 as u32 - q;
        let scale = |m: u32, i: u32, q: u32| {
            let shift = q as i32 - (pow5_bits(i) - POW5_BITS as i32);
            ((u128::from(m) * u128::from(POW5[i as usize])) >> shift) as u32
        };
        (vr, vp, vm) = (scale(mv, i, q), scale(mp, i, q), scale(mm, i, q));
        if q != 0 && (vp - 1) / 10 <= vm / 10 {
            last_removed_digit = scale(mv, i + 1, q - 1) % 10;
        }
        if q <= 1 {
            if accept_bounds {
                // mm = mv − 1 − mm_shift has a trailing 0 bit iff mm_shift is 1.
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                // mp = mv + 2 has at least one trailing 0 bit.
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm % 10 == 0;
        last_removed_digit = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_is_trailing_zeros {
        // The lower bound is exact and in the interval: shorten to it.
        while vm % 10 == 0 {
            last_removed_digit = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    let round_up =
        (vr == vm && (!accept_bounds || !vm_is_trailing_zeros)) || last_removed_digit >= 5;
    (vr + u32::from(round_up), e10 + removed)
}

/// Append `x` as core writes it: `null` if not finite; `{}` (plain
/// decimal, `-0` for negative zero) for zero and `1e-5 ≤ |x| < 1e16`;
/// `{:e}` (`d.ddde±X`) outside that range, where plain decimal runs long
/// (`f32::MIN_POSITIVE` is 47 bytes). Each is shortest round-trip text.
pub(crate) fn write_f32(out: &mut Vec<u8>, x: f32) {
    if !x.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    // Built on zeros, its padding; it leaves in one fixed-size copy.
    let mut text = [b'0'; 24];
    let negative = x.is_sign_negative();
    text[0] = if negative { b'-' } else { b'0' };
    let mut n = usize::from(negative);
    if x == 0.0 {
        n += 1;
    } else {
        let (mut digits, exp) = shortest(x);
        let len = digits.ilog10() as usize + 1;
        let point = len as i32 + exp;
        let plain = (1e-5..1e16).contains(&x.abs());
        // The decimal point goes before digit `split`, if that is a digit.
        let split = match point {
            _ if !plain => 1,
            1.. if (point as usize) < len => point as usize,
            _ => len,
        };
        if plain && point <= 0 {
            text[n + 1] = b'.';
            n += 2 + point.unsigned_abs() as usize;
        }
        for i in (0..len).rev() {
            text[n + i + usize::from(i >= split)] = b'0' + (digits % 10) as u8;
            digits /= 10;
        }
        if split < len {
            text[n + split] = b'.';
            n += 1;
        }
        n += len + exp.max(0) as usize * usize::from(plain);
        if !plain {
            let e = point - 1;
            text[n] = b'e';
            text[n + 1] = b'-';
            n += 1 + usize::from(e < 0);
            let (e, wide) = (e.unsigned_abs() as u8, usize::from(e.abs() >= 10));
            text[n] = b'0' + e / 10;
            text[n + wide] = b'0' + e % 10;
            n += 1 + wide;
        }
    }
    out.extend_from_slice(&text);
    out.truncate(out.len() - text.len() + n);
}

/// A float width [`scan`] parses at.
pub(crate) trait Width: FromStr + Into<f64> + Copy {
    /// This width's correctly rounded value of a token, from `r`, the
    /// token's correctly rounded `f64` value (`r = 0` or
    /// `1e-22 ≤ |r| < 2^127`); `None` when rounding `r` again could round
    /// the token differently.
    fn from_rounded(r: f64) -> Option<Self>;
}

impl Width for f64 {
    fn from_rounded(r: f64) -> Option<f64> {
        Some(r)
    }
}

impl Width for f32 {
    fn from_rounded(r: f64) -> Option<f32> {
        // The cast rounds once more, which rounds the token itself
        // unless `r` sits exactly halfway between two `f32`s: in `f32`'s
        // normal range, 29 low mantissa bits of exactly 1000…0.
        const LOW: u64 = (1 << 29) - 1;
        (r.to_bits() & LOW != 1 << 28).then_some(r as f32)
    }
}

/// The powers of ten an `f64` holds exactly.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Consume a run of decimal digits, folding each into `acc` (which wraps
/// past 19 significant digits) and counting the significant ones, those
/// from the first nonzero digit on. Returns the run's length.
fn digits(bytes: &[u8], pos: &mut usize, acc: &mut u64, significant: &mut usize) -> usize {
    let from = *pos;
    while let Some(&b @ b'0'..=b'9') = bytes.get(*pos) {
        *acc = acc.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
        *significant += usize::from(*significant > 0 || b != b'0');
        *pos += 1;
    }
    *pos - from
}

/// One number token at `bytes[*pos..]`, parsed at width `F` (correctly
/// rounded). The token must have RFC 8259's form
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, and a result that is
/// not finite at that width is refused. One pass checks the form and
/// gathers up to 19 significant digits and a decimal exponent; a
/// mantissa below 2^53 with an exponent within ±22 takes one `f64`
/// multiply or divide, which rounds the exact value once. Every other
/// token goes to `str::parse`.
pub(crate) fn scan<F: Width>(bytes: &[u8], pos: &mut usize) -> Result<F, String> {
    let start = *pos;
    let invalid = || format!("invalid number at byte {start}");
    let negative = bytes.get(*pos) == Some(&b'-');
    *pos += usize::from(negative);
    // The token is `mantissa · 10^exp10`.
    let (mut mantissa, mut significant, mut exp10) = (0, 0, 0i64);
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => _ = digits(bytes, pos, &mut mantissa, &mut significant),
        _ => return Err(invalid()),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        match digits(bytes, pos, &mut mantissa, &mut significant) {
            0 => return Err(invalid()),
            n => exp10 = -(n as i64),
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        let minus = bytes.get(*pos) == Some(&b'-');
        *pos += usize::from(matches!(bytes.get(*pos), Some(b'+' | b'-')));
        let (mut e, mut e_significant) = (0, 0);
        if digits(bytes, pos, &mut e, &mut e_significant) == 0 {
            return Err(invalid());
        }
        // Past 18 digits the exponent is far outside the fast path.
        let e = if e_significant > 18 {
            i64::MAX
        } else {
            e as i64
        };
        exp10 = exp10.saturating_add(if minus { -e } else { e });
    }
    if significant <= 19 && mantissa < 1 << 53 && (-22..=22).contains(&exp10) {
        let (m, p) = (mantissa as f64, POW10[exp10.unsigned_abs() as usize]);
        let r = if exp10 < 0 { m / p } else { m * p };
        if let Some(x) = F::from_rounded(if negative { -r } else { r }) {
            return Ok(x);
        }
    }
    let parsed = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|e| e.to_string())?
        .parse::<F>()
        .map_err(|_| invalid())?;
    if parsed.into().is_finite() {
        Ok(parsed)
    } else {
        Err(format!("number out of range at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfss_tensor::Rng;

    #[test]
    fn tables_are_ryus() {
        assert_eq!(POW5[0], 1 << 60);
        assert_eq!(POW5[1], 5 << 58);
        assert_eq!(POW5[26], 1_490_116_119_384_765_625);
        assert_eq!(POW5[27], 1_862_645_149_230_957_031);
        assert_eq!(POW5[46], 2_019_483_917_365_790_221);
        assert_eq!(POW5_INV[0], (1 << 59) + 1);
        assert_eq!(POW5_INV[1], 461_168_601_842_738_791);
        assert_eq!(POW5_INV[30], 365_375_409_332_725_730);
    }

    fn text(x: f32) -> String {
        let mut out = Vec::new();
        write_f32(&mut out, x);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn exact_ties_between_shortest_candidates_round_up_as_core_does() {
        // 1.50390625 = 385/256 lies exactly halfway between 1.5039062 and
        // 1.5039063, and both read back as it; round-half-even would
        // write the first. Of the finite f32s, 2^23 (both signs) are such
        // ties, all between 2^-12 and 2^22.
        for (x, want) in [
            (1.503_906_25_f32, "1.5039063"),
            (-1.503_906_25, "-1.5039063"),
            (0.000_244_140_625, "0.00024414063"),
            (4_188_500.25, "4188500.3"),
        ] {
            assert_eq!(text(x), want);
            assert_eq!(text(x), format!("{x}"));
        }
    }

    /// `scan` at width `F` agrees with `str::parse`: the same bits, or,
    /// where `str::parse` gives a value that is not finite, the
    /// out-of-range error.
    fn agrees<F: Width>(token: &str) {
        let core: f64 = token.parse::<F>().ok().expect("a JSON number").into();
        let mut pos = 0;
        match scan::<F>(token.as_bytes(), &mut pos) {
            Ok(x) => assert_eq!(x.into().to_bits(), core.to_bits(), "{token}"),
            Err(why) => assert!(
                !core.is_finite() && why == "number out of range at byte 0",
                "{token}: {why}"
            ),
        }
        assert_eq!(pos, token.len(), "{token}");
    }

    fn agrees_at_both_widths(token: &str) {
        agrees::<f32>(token);
        agrees::<f64>(token);
    }

    /// A random RFC 8259 number: 1–25 significant digits, an optional
    /// fraction (after leading zeros, when the integer part is `0`), and
    /// an optional exponent in −60..=50.
    fn random_token(rng: &mut Rng) -> String {
        let n = 1 + rng.below(25);
        let digits: String = (0..n)
            .map(|i| {
                let d = if i == 0 {
                    1 + rng.below(9)
                } else {
                    rng.below(10)
                };
                char::from(b'0' + d as u8)
            })
            .collect();
        let mut token = String::from(if rng.bernoulli(0.5) { "-" } else { "" });
        let int_len = rng.below(n + 1);
        if int_len == 0 {
            token += "0.";
            token += &"0".repeat(rng.below(4));
            token += &digits;
        } else {
            token += &digits[..int_len];
            if int_len < n {
                token += ".";
                token += &digits[int_len..];
            }
        }
        if rng.below(4) != 0 {
            let e = rng.below(111) as i32 - 60;
            let mark = ["e", "E"][rng.below(2)];
            let plus = if e >= 0 && rng.bernoulli(0.5) {
                "+"
            } else {
                ""
            };
            token += &format!("{mark}{plus}{e}");
        }
        token
    }

    /// `digits · 10^exp` with the last digit moved by `delta` (±1).
    fn nudged(digits: &str, exp: i32, delta: i8) -> String {
        let mut d: Vec<u8> = digits.bytes().collect();
        let mut i = d.len();
        if delta > 0 {
            loop {
                i -= 1;
                if d[i] < b'9' {
                    d[i] += 1;
                    break;
                }
                d[i] = b'0';
                if i == 0 {
                    d.insert(0, b'1');
                    break;
                }
            }
        } else {
            // Callers pass digits that end in a nonzero digit.
            d[i - 1] -= 1;
        }
        format!("{}e{exp}", String::from_utf8(d).unwrap())
    }

    /// `(digits, exp)` with `digits · 10^exp == x` exactly, `digits`
    /// without trailing zeros (every f32 midpoint has at most 113
    /// significant digits).
    fn exact_decimal(x: f64) -> (String, i32) {
        let text = format!("{x:.120e}");
        let (mantissa, exp) = text.split_once('e').unwrap();
        let digits = mantissa.replace('.', "");
        let digits = digits.trim_end_matches('0');
        let exp = exp.parse::<i32>().unwrap() - (digits.len() as i32 - 1);
        (digits.to_string(), exp)
    }

    #[test]
    fn scanner_agrees_with_str_parse() {
        for token in [
            "-0",
            "0",
            "0e999",
            "-0.0e-999",
            "1e-999",
            "1e999",
            "3.4028235e38",
            "3.4028236e38",
            "340282356779733661637539395458142568448",
            "1e-45",
            "7.006492321624085e-46",
            "7.006492321624086e-46",
            "1e22",
            "1e23",
            "123456789e-22",
            "123456789e-23",
        ] {
            agrees_at_both_widths(token);
        }
        // Mantissas at the 2^53 and 19-digit edges, and past 2^64, where
        // a wrapped mantissa would look small.
        for m in [
            "9007199254740991",
            "9007199254740992",
            "9007199254740993",
            "999999999999999999",
            "9999999999999999999",
            "10000000000000000000",
            "18446744073709551615",
            "18446744073709551616",
            "18446744073709551617",
            "36893488147419103232",
            "1844674407370955161600001",
        ] {
            for e in [-23, -22, -1, 0, 1, 22, 23] {
                agrees_at_both_widths(&format!("{m}e{e}"));
                agrees_at_both_widths(&format!("{}.{}e{e}", &m[..1], &m[1..]));
                agrees_at_both_widths(&format!("0.{m}e{e}"));
            }
        }
        let mut rng = Rng::new(31);
        for _ in 0..200_000 {
            agrees_at_both_widths(&random_token(&mut rng));
        }
        // Exact f32 midpoints: in full, with the last digit ±1, and as
        // the shorter texts that round to them in f64.
        for bits in (0..f32::MAX.to_bits()).step_by(40_009) {
            let (a, b) = (f32::from_bits(bits), f32::from_bits(bits + 1));
            let mid = (f64::from(a) + f64::from(b)) / 2.0;
            let (digits, exp) = exact_decimal(mid);
            agrees_at_both_widths(&format!("{digits}e{exp}"));
            agrees_at_both_widths(&nudged(&digits, exp, 1));
            agrees_at_both_widths(&nudged(&digits, exp, -1));
            for short in [
                format!("{mid:e}"),
                format!("{mid:.15e}"),
                format!("{mid:.16e}"),
            ] {
                agrees_at_both_widths(&short);
            }
        }
    }
}
