//! Bit-parity gauntlet: every SIMD microkernel backend available on this
//! host must produce **bitwise identical** results to the always-compiled
//! scalar reference, for every microkernel, over adversarial lengths.
//!
//! This is the contract that lets `DFSS_SIMD` pick a backend freely
//! without perturbing a single downstream test, proptest, or golden
//! artifact: the vector kernels keep the scalar reference's reduction
//! trees and never contract mul+add into FMA, so regrouping into lanes is
//! the *only* transformation — and the references are written in the same
//! lane-blocked order.
//!
//! Lengths cover 0, 1, lane−1, lane, lane+1, tail-only, exact multiples,
//! multiples±1 and large-ish odd sizes, for both the 8-lane (AVX2/NEON
//! pairs) and 16-lane (AVX-512) widths.

use dfss_kernels::micro;
use dfss_kernels::simd::{
    self, axpy_ref, axpy_widen, axpy_widen_ref, dot_ref, dot_widen, dot_widen_ref, nn_tile,
    panel_tile_ref, row_max_ref, spmm_tile, spmm_tile_ref, Backend,
};
use dfss_nmsparse::NmPattern;
use dfss_tensor::{Bf16, Rng, Scalar};

/// Every backend the host CPU can actually run (always includes Scalar).
fn available_backends() -> Vec<Backend> {
    [
        Backend::Scalar,
        Backend::Avx2,
        Backend::Avx512,
        Backend::Neon,
    ]
    .into_iter()
    .filter(|b| b.available())
    .collect()
}

/// Adversarial slice lengths around both vector widths.
const LENGTHS: &[usize] = &[
    0, 1, 2, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 63, 64, 65, 100, 127, 257,
];

fn vec_of(len: usize, rng: &mut Rng) -> Vec<f32> {
    (0..len).map(|_| rng.normal(0.0, 1.0)).collect()
}

#[test]
fn dot_is_bit_identical_across_backends() {
    let mut rng = Rng::new(0xD07);
    for &len in LENGTHS {
        let a = vec_of(len, &mut rng);
        let b = vec_of(len, &mut rng);
        let want = dot_ref(&a, &b);
        for backend in available_backends() {
            let got = backend.dot(&a, &b);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "dot len {len} on {}: {got} != {want}",
                backend.name()
            );
        }
    }
}

#[test]
fn axpy_is_bit_identical_across_backends() {
    let mut rng = Rng::new(0xA11);
    for &len in LENGTHS {
        let row = vec_of(len, &mut rng);
        let acc0 = vec_of(len, &mut rng);
        let s = rng.normal(0.0, 1.0);
        let mut want = acc0.clone();
        axpy_ref(&mut want, s, &row);
        for backend in available_backends() {
            let mut got = acc0.clone();
            backend.axpy(&mut got, s, &row);
            let same = got
                .iter()
                .zip(&want)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "axpy len {len} diverged on {}", backend.name());
        }
    }
}

/// Every backend's dense NN tile against `Backend::Scalar`, and the scalar
/// tile against a serial-k, zero-skipping `axpy_ref` model, for one output
/// type.
fn nn_tile_gauntlet<T: Scalar>(seed: u64) {
    let mut rng = Rng::new(seed);
    for &ka in &[0usize, 1, 7, 33, 1024] {
        for &n in &[1usize, 15, 16, 17, 63, 64, 65, 130] {
            // NaN and ±Inf in B, at most one special per column: no output
            // element then meets two NaN sources, so payloads are exact.
            let mut b = vec_of(ka * n, &mut rng);
            let mut first_special_row = None;
            if ka > 0 {
                for j in (0..n).step_by(3) {
                    let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][j / 3 % 3];
                    let kk = rng.below(ka);
                    b[kk * n + j] = special;
                    first_special_row.get_or_insert(kk);
                }
            }
            for rcnt in 1usize..=4 {
                // A is widened as the kernels widen it: ±1e-45 rounds to ±0.0
                // under TF32, so its term is skipped like a ±0.0 weight's.
                let raw: Vec<f32> = (0..rcnt * ka)
                    .map(|_| match rng.below(8) {
                        0 => 0.0,
                        1 => -0.0,
                        2 => 1e-45,
                        3 => -1e-45,
                        _ => rng.normal(0.0, 1.0),
                    })
                    .collect();
                let mut a = micro::widen(&raw).to_vec();
                // Every row skips the first special, whatever the draw.
                if let Some(kk) = first_special_row {
                    for r in 0..rcnt {
                        a[r * ka + kk] = [0.0, -0.0][r % 2];
                    }
                }
                let mut model = vec![T::zero(); rcnt * n];
                for (r, orow) in model.chunks_mut(n).enumerate() {
                    let mut acc = vec![0.0f32; n];
                    for kk in 0..ka {
                        let s = a[r * ka + kk];
                        if s != 0.0 {
                            axpy_ref(&mut acc, s, &b[kk * n..(kk + 1) * n]);
                        }
                    }
                    for (o, &x) in orow.iter_mut().zip(&acc) {
                        *o = T::from_acc(x);
                    }
                }
                let bits = |o: &[T]| o.iter().map(|x| x.to_f32().to_bits()).collect::<Vec<_>>();
                let what = format!("{} ka={ka} n={n} rcnt={rcnt}", T::NAME);
                let mut want = vec![T::from_f32(-7.0); rcnt * n];
                nn_tile(Backend::Scalar, rcnt, &a, &b, n, &mut want);
                assert_eq!(bits(&want), bits(&model), "scalar vs model, {what}");
                for backend in available_backends() {
                    let mut got = vec![T::from_f32(-7.0); rcnt * n];
                    nn_tile(backend, rcnt, &a, &b, n, &mut got);
                    assert_eq!(bits(&got), bits(&want), "{what} on {}", backend.name());
                }
            }
        }
    }
}

#[test]
fn nn_tile_is_bit_identical_across_backends() {
    // Column counts cross every lane width (16 for AVX2, the 64-wide
    // AVX-512 window), so each backend's tail path runs; zero weights sit
    // over non-finite B rows, which they must keep out of the output.
    nn_tile_gauntlet::<f32>(0x4E4E);
    nn_tile_gauntlet::<Bf16>(0x4E16);
}

#[test]
fn panel_tile_is_bit_identical_across_backends() {
    // One register tile: rcnt rows × w≤16 columns over ka packed steps.
    // Element-wise mul+add per k step, so any lane width is exact — but
    // the tails (w < 16, rcnt < 4) are where the masking bugs live.
    let mut rng = Rng::new(0x7113);
    for &ka in &[1usize, 2, 3, 7, 8, 9, 33] {
        for rcnt in 1usize..=4 {
            for &w in &[1usize, 7, 8, 9, 15, 16] {
                let rows: Vec<Vec<f32>> = (0..4).map(|_| vec_of(ka, &mut rng)).collect();
                let arows: [&[f32]; 4] =
                    [&rows[0], &rows[1], &rows[2], &rows[3]].map(|r: &Vec<f32>| r.as_slice());
                let block = vec_of(ka * 16, &mut rng);
                let n = 24usize; // acc stride wider than the tile
                let j0 = 3usize;
                let mut want = vec![0.0f32; 4 * n];
                panel_tile_ref(&arows, rcnt, &block, n, j0, w, &mut want);
                for backend in available_backends() {
                    let mut got = vec![0.0f32; 4 * n];
                    backend.panel_tile(&arows, rcnt, &block, n, j0, w, &mut got);
                    let same = got
                        .iter()
                        .zip(&want)
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(
                        same,
                        "panel_tile ka={ka} rcnt={rcnt} w={w} diverged on {}",
                        backend.name()
                    );
                }
            }
        }
    }
}

/// The documented total decode of one code byte: 1:2 keeps bit 1; 2:4 the
/// two lowest set bits of the low nibble, or lanes (0, 1) with fewer than
/// two set; other patterns the first `N` set bits of the low `M` bits.
fn model_lanes(pattern: NmPattern, code: u8) -> Vec<usize> {
    let (n, m) = (pattern.n(), pattern.m());
    let set: Vec<usize> = (0..m).filter(|&b| (code >> b) & 1 == 1).collect();
    match (n, m) {
        (1, 2) => vec![usize::from((code >> 1) & 1)],
        (2, 4) if set.len() < 2 => vec![0, 1],
        _ => set.into_iter().take(n).collect(),
    }
}

/// Code sets for `groups` groups: well-formed, all 0x00, all 0xFF, random
/// bytes.
fn code_sets(pattern: NmPattern, groups: usize, rng: &mut Rng) -> Vec<Vec<u8>> {
    let (n, m) = (pattern.n(), pattern.m());
    let valid = (0..groups)
        .map(|_| {
            rng.sample_indices(m, n)
                .into_iter()
                .fold(0u8, |c, lane| c | (1 << lane))
        })
        .collect();
    let random = (0..groups).map(|_| rng.below(256) as u8).collect();
    vec![valid, vec![0x00; groups], vec![0xFF; groups], random]
}

/// Every backend's N:M SpMM tile against the scalar reference, and the
/// reference against a serial model of the documented decode, for one
/// nonzero type over the given column counts.
fn spmm_tile_gauntlet<T: Scalar>(seed: u64, widths: &[usize]) {
    let mut rng = Rng::new(seed);
    let gpr = 5usize;
    for pattern in [
        NmPattern::P1_2,
        NmPattern::P2_4,
        NmPattern::new(1, 4),
        NmPattern::new(3, 4),
    ] {
        let (n, m) = (pattern.n(), pattern.m());
        let inner = gpr * m;
        for &d in widths {
            // NaN and ±Inf in V, at most one special per column: no output
            // element then meets two NaN sources, so payloads are exact.
            let mut v = vec_of(inner * d, &mut rng);
            for j in (0..d).step_by(3) {
                let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][j / 3 % 3];
                v[rng.below(inner) * d + j] = special;
            }
            for rcnt in 1usize..=4 {
                let nz: Vec<T> = (0..rcnt * gpr * n)
                    .map(|_| T::from_f32(rng.normal(0.0, 1.0)))
                    .collect();
                for codes in code_sets(pattern, rcnt * gpr, &mut rng) {
                    let mut model = vec![T::zero(); rcnt * d];
                    for (r, orow) in model.chunks_mut(d).enumerate() {
                        let mut acc = vec![0.0f32; d];
                        for g in 0..gpr {
                            let lanes = model_lanes(pattern, codes[r * gpr + g]);
                            for (i, lane) in lanes.into_iter().enumerate() {
                                let s = nz[(r * gpr + g) * n + i].to_mul();
                                let row = &v[(g * m + lane) * d..(g * m + lane + 1) * d];
                                for (o, &x) in acc.iter_mut().zip(row) {
                                    *o += s * x;
                                }
                            }
                        }
                        for (o, &x) in orow.iter_mut().zip(&acc) {
                            *o = T::from_acc(x);
                        }
                    }
                    let bits = |o: &[T]| o.iter().map(|x| x.to_f32().to_bits()).collect::<Vec<_>>();
                    let what = format!("{pattern} d={d} rcnt={rcnt} codes={:?}", &codes[..2]);
                    let mut want = vec![T::from_f32(-7.0); rcnt * d];
                    spmm_tile_ref(pattern, rcnt, &nz, &codes, &v, d, &mut want);
                    assert_eq!(bits(&want), bits(&model), "reference vs model, {what}");
                    for backend in available_backends() {
                        let mut got = vec![T::from_f32(-7.0); rcnt * d];
                        spmm_tile(backend, pattern, rcnt, &nz, &codes, &v, d, &mut got);
                        assert_eq!(bits(&got), bits(&want), "{what} on {}", backend.name());
                    }
                }
            }
        }
    }
}

#[test]
fn spmm_tile_is_bit_identical_across_backends() {
    // Column counts cross every lane width (8, 16, and the 64-wide AVX-512
    // window), so each backend's tail path runs; codes include malformed
    // bytes, which must select the same in-bounds lanes everywhere.
    spmm_tile_gauntlet::<f32>(
        0x5A11,
        &[1, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 65, 80, 129],
    );
    spmm_tile_gauntlet::<Bf16>(0x5B16, &[5, 16, 64, 70]);
}

#[test]
fn row_max_is_bit_identical_across_backends() {
    let mut rng = Rng::new(0x3A);
    for &len in LENGTHS {
        let mut buf = vec_of(len, &mut rng);
        if len > 2 {
            buf[len / 2] = f32::NEG_INFINITY;
            buf[len - 1] = 100.0;
        }
        // NaN is ignored like `f32::max` ignores it: an all-NaN row's max is
        // −∞ (so its softmax is the zero row), and a part-NaN row's max is
        // that of its other entries, wherever the NaNs fall in the lanes.
        let mut part_nan = buf.clone();
        for i in (0..len).step_by(3) {
            part_nan[i] = f32::NAN;
        }
        for (what, buf) in [
            ("finite", buf),
            ("part-NaN", part_nan),
            ("all-NaN", vec![f32::NAN; len]),
        ] {
            let want = row_max_ref(&buf);
            for backend in available_backends() {
                let got = backend.row_max(&buf);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "row_max {what} len {len} on {}",
                    backend.name()
                );
            }
        }
    }
}

#[test]
fn dot_widen_f32_is_bit_identical_across_backends() {
    // S = f32 runs the TF32-truncating widen (to_mul) inside the dot.
    let mut rng = Rng::new(0x1F32);
    for &len in LENGTHS {
        let q = vec_of(len, &mut rng);
        let row = vec_of(len, &mut rng);
        let want = dot_widen_ref::<f32>(&q, &row);
        for backend in available_backends() {
            let got = dot_widen::<f32>(backend, &q, &row);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "dot_widen<f32> len {len} on {}",
                backend.name()
            );
        }
    }
}

#[test]
fn dot_widen_bf16_is_bit_identical_across_backends() {
    let mut rng = Rng::new(0x1B16);
    for &len in LENGTHS {
        let q = vec_of(len, &mut rng);
        let row: Vec<Bf16> = (0..len)
            .map(|_| Bf16::from_f32(rng.normal(0.0, 1.0)))
            .collect();
        let want = dot_widen_ref::<Bf16>(&q, &row);
        for backend in available_backends() {
            let got = dot_widen::<Bf16>(backend, &q, &row);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "dot_widen<Bf16> len {len} on {}",
                backend.name()
            );
        }
    }
}

#[test]
fn axpy_widen_is_bit_identical_across_backends_for_both_dtypes() {
    let mut rng = Rng::new(0xA3);
    for &len in LENGTHS {
        let row_f: Vec<f32> = vec_of(len, &mut rng);
        let row_b: Vec<Bf16> = (0..len)
            .map(|_| Bf16::from_f32(rng.normal(0.0, 1.0)))
            .collect();
        let acc0 = vec_of(len, &mut rng);
        let s = rng.normal(0.0, 1.0);
        let mut want_f = acc0.clone();
        axpy_widen_ref::<f32>(&mut want_f, s, &row_f);
        let mut want_b = acc0.clone();
        axpy_widen_ref::<Bf16>(&mut want_b, s, &row_b);
        for backend in available_backends() {
            let mut got = acc0.clone();
            axpy_widen::<f32>(backend, &mut got, s, &row_f);
            let same = got
                .iter()
                .zip(&want_f)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(
                same,
                "axpy_widen<f32> len {len} diverged on {}",
                backend.name()
            );
            let mut got = acc0.clone();
            axpy_widen::<Bf16>(backend, &mut got, s, &row_b);
            let same = got
                .iter()
                .zip(&want_b)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(
                same,
                "axpy_widen<Bf16> len {len} diverged on {}",
                backend.name()
            );
        }
    }
}

#[test]
fn tf32_widen_preserves_nan_and_infinity_lanes() {
    // The SIMD TF32 rounding uses an integer add on the exponent/mantissa
    // bits — a naive version corrupts NaN payloads and can carry Inf into
    // NaN. Specials must pass through on every backend, in every lane
    // position of a vector body (not just the scalar tail).
    //
    // When several distinct NaNs meet in one reduction (a propagated qNaN
    // and the `inf + -inf` indefinite), *which payload* survives depends
    // on the operand order LLVM happens to emit for each fadd — it is not
    // stable even scalar-vs-scalar across inlining contexts. NaN-ness is
    // the contract there, payload bits are not; everything non-NaN
    // (including exact ±inf and MAX overflowing to inf under TF32
    // rounding) must still match bitwise.
    let specials = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        1.000_000_1,
    ];
    for lane in 0..8 {
        let mut row = vec![1.0f32; 16];
        for (off, &s) in specials.iter().enumerate() {
            row[(lane + off * 3) % 16] = s;
        }
        let q = vec![1.0f32; 16];
        let want = dot_widen_ref::<f32>(&q, &row);
        for backend in available_backends() {
            let got = dot_widen::<f32>(backend, &q, &row);
            if want.is_nan() {
                assert!(
                    got.is_nan(),
                    "specials at lane {lane} on {}: lost the NaN ({got})",
                    backend.name()
                );
            } else {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "specials at lane {lane} diverged on {}",
                    backend.name()
                );
            }
        }
    }
    // Single-special rows exercise each passthrough without NaN-vs-NaN
    // ambiguity: at most one NaN source means every fadd has at most one
    // NaN operand and the result is deterministic — full bit parity.
    for &s in &specials {
        for pos in [0usize, 5, 8, 15] {
            let mut row = vec![1.0f32; 16];
            row[pos] = s;
            let q = vec![1.0f32; 16];
            let want = dot_widen_ref::<f32>(&q, &row);
            for backend in available_backends() {
                let got = dot_widen::<f32>(backend, &q, &row);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "single special {s:?} at {pos} diverged on {}",
                    backend.name()
                );
            }
        }
    }
}

#[test]
fn forcing_each_available_backend_runs_the_full_dispatched_surface() {
    // Drive the public micro-kernel entry points (the ones production code
    // calls) under each forced backend and compare against Scalar-forced
    // runs: the dispatcher must route every family, not just the ones the
    // unit tests above touch directly.
    let mut rng = Rng::new(0xF0);
    let a = vec_of(100, &mut rng);
    let b = vec_of(100, &mut rng);
    let acc0 = vec_of(100, &mut rng);
    let s = rng.normal(0.0, 1.0);
    simd::force(Some(Backend::Scalar));
    let want_dot = dfss_kernels::micro::dot(&a, &b);
    let mut want_axpy = acc0.clone();
    dfss_kernels::micro::axpy(&mut want_axpy, s, &a);
    for backend in available_backends() {
        simd::force(Some(backend));
        assert_eq!(simd::active(), backend);
        let got_dot = dfss_kernels::micro::dot(&a, &b);
        assert_eq!(got_dot.to_bits(), want_dot.to_bits(), "{}", backend.name());
        let mut got_axpy = acc0.clone();
        dfss_kernels::micro::axpy(&mut got_axpy, s, &a);
        let same = got_axpy
            .iter()
            .zip(&want_axpy)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "micro::axpy diverged under forced {}", backend.name());
    }
    simd::force(None);
}
