//! Bit-parity gauntlet: every SIMD microkernel backend available on this
//! host must produce **bitwise identical** results to the always-compiled
//! scalar reference, for every microkernel, over adversarial lengths.
//!
//! This is the contract that lets `DFSS_SIMD` pick a backend freely
//! without perturbing a single downstream test, proptest, or golden
//! artifact: the vector kernels keep the scalar reference's reduction
//! trees, fuse a multiply into its add exactly where the reference calls
//! `mul_add` (the register tiles and `axpy`) and nowhere else, so
//! regrouping into lanes is the *only* transformation — and the references
//! are written in the same lane-blocked order.
//!
//! The tiles' fused steps give the bits of a multiply then an add whenever
//! the products are exact, which TF32- and bf16-rounded operands make
//! them unless a product overflows or falls below 2^−128: a random sweep
//! of such tiles checks the first, and one pinned product the edge.
//!
//! Lengths cover 0, 1, lane−1, lane, lane+1, tail-only, exact multiples,
//! multiples±1 and large-ish odd sizes, for both the 8-lane (AVX2) and
//! 16-lane (AVX-512) widths. The public entry points must also reject
//! slices whose lengths disagree, in every build profile, before an
//! unchecked backend reads past one.

use dfss_kernels::simd::{
    self, axpy_ref, axpy_rows, axpy_widen_ref, dot_widen, dot_widen_ref, nn_tile, panel_tile_ref,
    round_operands, row_max_ref, spmm_tile, spmm_tile_ref, Backend,
};
use dfss_kernels::{micro, sddmm, softmax, GpuCtx};
use dfss_nmsparse::{NmPattern, MAX_M};
use dfss_tensor::math::{self, exp_consts};
use dfss_tensor::{tf32_round, Bf16, Matrix, Rng, Scalar};
use rayon::prelude::*;

/// Every backend the host CPU can actually run (always includes Scalar).
fn available_backends() -> Vec<Backend> {
    [Backend::Scalar, Backend::Avx2, Backend::Avx512]
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
/// tile against a serial-k, zero-skipping `axpy_ref` model (one `mul_add`
/// per term, as the tile), for one output type.
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
    // One register tile: rcnt rows × w ≤ 32 columns of one or two packed
    // blocks over ka steps. One element-wise fused multiply-add per k step,
    // so any lane width or block order is exact — but the tails (w around
    // 16 and 32, rcnt < 4) are where the masking bugs live. The reference
    // itself is checked against a serial-k `mul_add` model.
    let mut rng = Rng::new(0x7113);
    let (n, j0) = (40usize, 3usize); // acc stride wider than the tile
    for &ka in &[1usize, 7, 33, 64] {
        let rows: Vec<Vec<f32>> = (0..4).map(|_| vec_of(ka, &mut rng)).collect();
        let arows: [&[f32]; 4] = std::array::from_fn(|r| rows[r].as_slice());
        let block = vec_of(2 * ka * 16, &mut rng);
        for rcnt in 1usize..=4 {
            for w in 1usize..=32 {
                let block = &block[..w.div_ceil(16) * ka * 16];
                let mut model = vec![-7.0f32; 4 * n];
                for r in 0..rcnt {
                    for j in 0..w {
                        let (c, l) = (j / 16, j % 16);
                        let mut acc = 0.0f32;
                        for (kk, &s) in arows[r].iter().enumerate() {
                            acc = s.mul_add(block[(c * ka + kk) * 16 + l], acc);
                        }
                        model[r * n + j0 + j] = acc;
                    }
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let what = format!("panel_tile ka={ka} rcnt={rcnt} w={w}");
                let mut want = vec![-7.0f32; 4 * n];
                panel_tile_ref(&arows, rcnt, block, n, j0, w, &mut want);
                assert_eq!(bits(&want), bits(&model), "reference vs model, {what}");
                for backend in available_backends() {
                    let mut got = vec![-7.0f32; 4 * n];
                    backend.panel_tile(&arows, rcnt, block, n, j0, w, &mut got);
                    assert_eq!(bits(&got), bits(&want), "{what} on {}", backend.name());
                }
            }
        }
    }
}

#[test]
fn panel_product_matches_the_one_block_reference() {
    // `panel_product` steps two packed blocks per tile and runs an odd last
    // block alone; a loop of one-block reference tiles is the column tiling
    // it replaced, which every width must reproduce bit for bit.
    let mut rng = Rng::new(0x9A9E);
    let ka = 13usize;
    for &n in &[16usize, 17, 31, 32, 33, 48, 1040] {
        let aw = micro::widen(&vec_of(4 * ka, &mut rng)).to_vec();
        let packed = micro::widen_packed(&vec_of(n * ka, &mut rng), 1, n, ka).to_vec();
        let arows: [&[f32]; 4] = std::array::from_fn(|r| &aw[r * ka..(r + 1) * ka]);
        for rcnt in 1usize..=4 {
            let mut want = vec![0.0f32; rcnt * n];
            for j0 in (0..n).step_by(16) {
                let block = &packed[j0 * ka..(j0 + 16) * ka];
                panel_tile_ref(&arows, rcnt, block, n, j0, 16.min(n - j0), &mut want);
            }
            let mut got = vec![f32::NAN; rcnt * n];
            micro::panel_product(&aw, 0, rcnt, ka, &packed, n, &mut got);
            let same = got
                .iter()
                .zip(&want)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "panel_product n={n} rcnt={rcnt}");
        }
    }
}

/// The selection the prune epilogue must reproduce: each group through
/// [`NmPattern::select_group_into`], its code the kept lanes' bits and its
/// nonzeros `from_acc(x · scale)` of the kept scores, ascending.
fn prune_model<T: Scalar>(pattern: NmPattern, scores: &[f32], scale: f32) -> (Vec<T>, Vec<u8>) {
    let mut kept = [0usize; MAX_M];
    let (mut nz, mut codes) = (Vec::new(), Vec::new());
    for g in scores.chunks_exact(pattern.m()) {
        let n_kept = pattern.select_group_into(g, &mut kept);
        codes.push(kept[..n_kept].iter().fold(0u8, |c, &l| c | (1 << l)));
        nz.extend(kept[..n_kept].iter().map(|&l| T::from_acc(g[l] * scale)));
    }
    (nz, codes)
}

/// Every available backend's `prune_nm` of `scores` against
/// [`prune_model`], codes and nonzeros bit for bit.
fn check_prune<T: Scalar>(pattern: NmPattern, scores: &[f32], scale: f32, what: &str) {
    let (want_nz, want_codes) = prune_model::<T>(pattern, scores, scale);
    let bits = |v: &[T]| v.iter().map(|x| x.to_f32().to_bits()).collect::<Vec<_>>();
    for backend in available_backends() {
        let mut nz = vec![T::from_f32(-7.0); want_nz.len()];
        let mut codes = vec![0xA5u8; want_codes.len()];
        backend.prune_nm(pattern, scores, scale, &mut nz, &mut codes);
        let what = format!("{pattern} {} {what} on {}", T::NAME, backend.name());
        assert_eq!(codes, want_codes, "codes, {what}");
        assert_eq!(bits(&nz), bits(&want_nz), "nonzeros, {what}");
    }
}

/// Eight special values: every group of four over them is 4096 groups
/// (2401 of them NaN-free), every pair 64.
const SPECIALS: [f32; 8] = [
    f32::NEG_INFINITY,
    -1.0,
    -0.0,
    0.0,
    1.0,
    2.0,
    f32::INFINITY,
    f32::NAN,
];

#[test]
fn prune_nm_matches_select_on_every_special_group_at_every_slot() {
    // Rotating a list of whole groups by 0..slots puts each group at every
    // group slot of a vector step (16 pairs, or 4 groups), so the NaN
    // fallback and the tie rule fire at every lane position. The NaN-free
    // list keeps its neighbours off the NaN fallback: there every 2:4
    // group runs the vector rank rule, and its 2401 groups leave a tail.
    let groups: Vec<[f32; 4]> = (0..4096usize)
        .map(|i| std::array::from_fn(|lane| SPECIALS[(i >> (3 * lane)) & 7]))
        .collect();
    let clean: Vec<[f32; 4]> = groups
        .iter()
        .filter(|g| !g.iter().any(|x| x.is_nan()))
        .copied()
        .collect();
    assert_eq!(clean.len(), 2401);
    let pairs: Vec<[f32; 2]> = (0..64usize)
        .map(|i| [SPECIALS[i & 7], SPECIALS[i >> 3]])
        .collect();
    fn rotations<const M: usize>(list: &[[f32; M]], slots: usize) -> Vec<Vec<f32>> {
        (0..slots)
            .map(|s| {
                (0..list.len())
                    .flat_map(|i| list[(i + s) % list.len()])
                    .collect()
            })
            .collect()
    }
    for (pattern, rows) in [
        (NmPattern::P2_4, rotations(&groups, 4)),
        (NmPattern::P2_4, rotations(&clean, 4)),
        (NmPattern::P1_2, rotations(&pairs, 16)),
    ] {
        for (s, row) in rows.iter().enumerate() {
            let what = format!("special sweep of {} rotated {s}", row.len());
            check_prune::<f32>(pattern, row, 0.5, &what);
            check_prune::<Bf16>(pattern, row, 0.5, &what);
        }
    }
}

#[test]
fn prune_nm_matches_select_on_random_rows_with_every_tail() {
    // Whole vector steps plus 0..=15 tail pairs or groups; scores on a
    // coarse grid so ties are common, in both output types.
    let mut rng = Rng::new(0x9E11);
    for pattern in [NmPattern::P1_2, NmPattern::P2_4] {
        for tail in 0..16usize {
            let groups = 3 * 16 + tail;
            let row: Vec<f32> = (0..groups * pattern.m())
                .map(|_| (rng.normal(0.0, 2.0) * 4.0).round() / 4.0)
                .collect();
            let what = format!("random row of {groups} groups");
            check_prune::<f32>(pattern, &row, 0.125, &what);
            check_prune::<Bf16>(pattern, &row, 0.125, &what);
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
/// reference against a serial `mul_add` model of the documented decode, for
/// one nonzero type over the given column counts.
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
                                    *o = s.mul_add(x, *o);
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

/// `len` multiply operands as the kernels hand them to a tile after
/// `to_mul`: TF32 values for `T = f32`, bf16 values for `T = Bf16`. Each
/// magnitude lies in `[2^−30, 2^31)`, so every product of two is exact in
/// f32.
fn mul_operands<T: Scalar>(len: usize, rng: &mut Rng) -> Vec<f32> {
    (0..len)
        .map(|_| {
            let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
            let scale = 2f32.powi(rng.below(61) as i32 - 30);
            T::from_f32(sign * rng.uniform_range(1.0, 2.0) * scale).to_mul()
        })
        .collect()
}

/// Random tiles of rounded operands through every available backend's
/// `panel_tile`, `nn_tile`, `spmm_tile` and `axpy`, against the model the
/// tiles computed before they fused: each product rounded, then added.
fn rounded_tiles_sweep<T: Scalar>(seed: u64) {
    let mut rng = Rng::new(seed);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let t_bits = |v: &[T]| v.iter().map(|x| x.to_f32().to_bits()).collect::<Vec<_>>();
    for _ in 0..24 {
        let (rcnt, ka, n) = (1 + rng.below(4), 1 + rng.below(96), 1 + rng.below(80));
        let a = mul_operands::<T>(rcnt * ka, &mut rng);
        let b = mul_operands::<T>(ka * n, &mut rng);
        let unfused = |r: usize, j: usize| {
            (0..ka).fold(0.0f32, |acc, kk| acc + a[r * ka + kk] * b[kk * n + j])
        };
        let nn_model: Vec<T> = (0..rcnt * n)
            .map(|e| T::from_acc(unfused(e / n, e % n)))
            .collect();
        // The panel tile reads B's first w ≤ 32 columns packed as
        // ⌈w/16⌉ `ka × 16` blocks.
        let w = n.min(32);
        let mut block = vec![0.0f32; w.div_ceil(16) * ka * 16];
        for j in 0..w {
            for kk in 0..ka {
                block[((j / 16) * ka + kk) * 16 + j % 16] = b[kk * n + j];
            }
        }
        let panel_model: Vec<f32> = (0..rcnt * w).map(|e| unfused(e / w, e % w)).collect();
        let arows: [&[f32]; 4] = std::array::from_fn(|r| &a[r.min(rcnt - 1) * ka..][..ka]);
        let acc0 = mul_operands::<T>(n, &mut rng);
        let axpy_model: Vec<f32> = (0..n).map(|j| acc0[j] + a[0] * b[j]).collect();
        for pattern in [NmPattern::P1_2, NmPattern::P2_4] {
            let (pn, m) = (pattern.n(), pattern.m());
            let gpr = 1 + rng.below(24);
            let v = mul_operands::<T>(gpr * m * n, &mut rng);
            let nz: Vec<T> = mul_operands::<T>(rcnt * gpr * pn, &mut rng)
                .into_iter()
                .map(T::from_f32)
                .collect();
            let codes = code_sets(pattern, rcnt * gpr, &mut rng).swap_remove(0);
            let spmm_model: Vec<T> = (0..rcnt * n)
                .map(|e| {
                    let (r, j) = (e / n, e % n);
                    let mut acc = 0.0f32;
                    for g in 0..gpr {
                        let lanes = model_lanes(pattern, codes[r * gpr + g]);
                        for (i, lane) in lanes.into_iter().enumerate() {
                            let s = nz[(r * gpr + g) * pn + i].to_mul();
                            acc += s * v[(g * m + lane) * n + j];
                        }
                    }
                    T::from_acc(acc)
                })
                .collect();
            for backend in available_backends() {
                let what = format!(
                    "{} {pattern} {rcnt}x{ka}x{n} on {}",
                    T::NAME,
                    backend.name()
                );
                let mut got = vec![T::from_f32(-7.0); rcnt * n];
                spmm_tile(backend, pattern, rcnt, &nz, &codes, &v, n, &mut got);
                assert_eq!(t_bits(&got), t_bits(&spmm_model), "spmm_tile {what}");
            }
        }
        for backend in available_backends() {
            let what = format!("{} {rcnt}x{ka}x{n} on {}", T::NAME, backend.name());
            let mut got = vec![T::from_f32(-7.0); rcnt * n];
            nn_tile(backend, rcnt, &a, &b, n, &mut got);
            assert_eq!(t_bits(&got), t_bits(&nn_model), "nn_tile {what}");
            let mut got = vec![-7.0f32; rcnt * w];
            backend.panel_tile(&arows, rcnt, &block, w, 0, w, &mut got);
            assert_eq!(bits(&got), bits(&panel_model), "panel_tile {what}");
            let mut got = acc0.clone();
            backend.axpy(&mut got, a[0], &b[..n]);
            assert_eq!(bits(&got), bits(&axpy_model), "axpy {what}");
        }
    }
}

#[test]
fn tiles_on_rounded_operands_match_multiply_then_add() {
    // TF32 products need 22 significand bits and bf16 products 16, so
    // away from overflow and 2^−128 each one is exact in f32, and a fused
    // step rounds where a rounded multiply then an add would.
    rounded_tiles_sweep::<f32>(0xF32A);
    rounded_tiles_sweep::<Bf16>(0xB16A);
}

#[test]
fn a_product_below_two_to_the_minus_128_fuses_differently_on_every_backend() {
    // 2^−75 · 2^−75 = 2^−150, half the least subnormal. Rounded alone it
    // ties to +0, so multiply-then-add leaves an accumulated 2^−149 as it
    // is; the fused step rounds 2^−149 + 2^−150 once and ties to 2^−148.
    // This is the edge of the exactness argument, pinned: the tiles and
    // axpy give the fused bits on every backend.
    let tiny = f32::from_bits((127 - 75) << 23);
    let least = f32::from_bits(1);
    let (a, b) = ([tiny, tiny], [2.0 * tiny, tiny]);
    let unfused = (0.0 + a[0] * b[0]) + a[1] * b[1];
    let fused = a[1].mul_add(b[1], a[0].mul_add(b[0], 0.0));
    assert_eq!(unfused.to_bits(), least.to_bits());
    assert_eq!(fused.to_bits(), (2.0 * least).to_bits());
    let mut block = vec![0.0f32; 2 * 16];
    (block[0], block[16]) = (b[0], b[1]);
    // 1:2 groups `[b[g], 0]` whose code 0b01 keeps lane 0.
    let v = [b[0], 0.0, b[1], 0.0];
    for backend in available_backends() {
        let mut panel = [f32::NAN];
        backend.panel_tile(&[&a[..]; 4], 1, &block, 1, 0, 1, &mut panel);
        let mut nn = [f32::NAN];
        nn_tile(backend, 1, &a, &b, 1, &mut nn);
        let mut spmm = [f32::NAN];
        spmm_tile(backend, NmPattern::P1_2, 1, &a, &[1, 1], &v, 1, &mut spmm);
        let mut axpy = [least];
        backend.axpy(&mut axpy, tiny, &[tiny]);
        for (what, got) in [
            ("panel_tile", panel),
            ("nn_tile", nn),
            ("spmm_tile", spmm),
            ("axpy", axpy),
        ] {
            assert_eq!(
                got[0].to_bits(),
                fused.to_bits(),
                "{what} on {}",
                backend.name()
            );
        }
    }
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

/// Bits of `−0.0` and `−104.0`: the exp sweeps cover every `f32` between
/// them, the whole range of a softmax argument `x − max` down past the
/// flush to `+0` and past the last subnormal of `f32::exp` (≈ −103.97).
const EXP_LO: u32 = 0x8000_0000;
const EXP_HI: u32 = 0xC2D0_0000;

/// Inputs per sweep chunk: whole 16-lane blocks plus a 5-entry tail.
const EXP_CHUNK: u32 = 16 * 1024 + 5;

/// Stride of the sweeps the debug profile runs in place of the exhaustive
/// ones (about 1.1·10⁶ inputs each).
const EXP_STRIDE: u32 = 997;

/// Largest distance, in ulp, of `math::softmax_exp` from `f32::exp` where
/// the latter is a normal `f32`.
const EXP_ULP_BOUND: u32 = 1;

/// Map `f` over the exp domain `[−104, −0]`, every `stride`-th input in
/// ascending bit order, as parallel chunks of up to [`EXP_CHUNK`] inputs;
/// returns the messages `f` reports.
fn sweep_exp_domain<F>(stride: u32, f: F) -> Vec<String>
where
    F: Fn(&[f32]) -> Option<String> + Sync,
{
    let count = (EXP_HI - EXP_LO) / stride + 1;
    let reports: Vec<Option<String>> = (0..count.div_ceil(EXP_CHUNK))
        .into_par_iter()
        .map(|c| {
            let first = c * EXP_CHUNK;
            let xs: Vec<f32> = (first..count.min(first + EXP_CHUNK))
                .map(|i| f32::from_bits(EXP_LO + i * stride))
                .collect();
            f(&xs)
        })
        .collect();
    reports.into_iter().flatten().collect()
}

/// Every backend's exp pass against the reference, bit for bit: the
/// entries it writes and the normaliser it returns, with `max = 0` so each
/// entry's argument is the input itself.
fn exp_pass_sweep(stride: u32) {
    let backends = available_backends();
    let failures = sweep_exp_domain(stride, |xs| {
        let mut want = xs.to_vec();
        let want_inv = math::softmax_exp_pass(&mut want, 0.0);
        for &backend in &backends {
            let mut got = xs.to_vec();
            let inv = backend.softmax_exp_pass(&mut got, 0.0);
            if let Some(i) = (0..xs.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
                return Some(format!(
                    "exp({:e}) = {:e} on {}, reference {:e}",
                    xs[i],
                    got[i],
                    backend.name(),
                    want[i]
                ));
            }
            if inv.to_bits() != want_inv.to_bits() {
                return Some(format!(
                    "normaliser from {:e} = {inv:e} on {}, reference {want_inv:e}",
                    xs[0],
                    backend.name()
                ));
            }
        }
        None
    });
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn exp_pass_is_bit_identical_to_the_reference_on_every_input() {
    exp_pass_sweep(1);
}

#[test]
fn exp_pass_is_bit_identical_to_the_reference_on_a_strided_sweep() {
    exp_pass_sweep(EXP_STRIDE);
}

/// The reference exp against libm wherever libm's result is a normal
/// `f32`.
fn exp_ulp_sweep(stride: u32) {
    let failures = sweep_exp_domain(stride, |xs| {
        xs.iter().find_map(|&x| {
            let want = x.exp();
            let got = math::softmax_exp(x);
            let ulp = got.to_bits().abs_diff(want.to_bits());
            (want >= f32::MIN_POSITIVE && ulp > EXP_ULP_BOUND)
                .then(|| format!("exp({x:e}) = {got:e}, libm {want:e}: {ulp} ulp"))
        })
    });
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn softmax_exp_is_within_its_ulp_bound_of_libm_on_every_normal_result() {
    exp_ulp_sweep(1);
}

#[test]
fn softmax_exp_is_within_its_ulp_bound_of_libm_on_a_strided_sweep() {
    exp_ulp_sweep(EXP_STRIDE);
}

/// The two inputs either side of the flush rule: the smallest-magnitude
/// one with `RNE(x·log₂e) = −127`, whose exp is `+0`, and its neighbour
/// toward zero, the last with `−126`, whose exp is subnormal.
fn flush_sides() -> (f32, f32) {
    use exp_consts::{LOG2E, ROUND};
    let n = |x: f32| (x * LOG2E + ROUND) - ROUND;
    let mut x = -87.0f32;
    while n(x) >= -126.0 {
        x = f32::from_bits(x.to_bits() + 1);
    }
    (x, f32::from_bits(x.to_bits() - 1))
}

#[test]
fn exp_pass_special_values_are_bit_identical_across_backends() {
    let (flushed, kept) = flush_sides();
    assert_eq!(math::softmax_exp(flushed).to_bits(), 0, "flushed side");
    let sub = math::softmax_exp(kept);
    assert!(sub > 0.0 && sub < f32::MIN_POSITIVE, "kept side: {sub:e}");
    for (x, want) in [
        (0.0, 1.0),
        (-0.0, 1.0),
        (f32::NEG_INFINITY, 0.0),
        (f32::INFINITY, f32::INFINITY),
    ] {
        assert_eq!(math::softmax_exp(x).to_bits(), want.to_bits(), "exp({x})");
    }
    let nan = f32::from_bits(0x7FC0_1234);
    assert_eq!(
        math::softmax_exp(nan).to_bits(),
        nan.to_bits(),
        "NaN passes"
    );

    // Each special at every position of rows across the 16-lane blocks
    // and tails, under a zero and a nonzero max. One NaN source per row
    // keeps even the NaN normaliser's payload deterministic.
    let mut rng = Rng::new(0xE8);
    let specials = [
        0.0,
        -0.0,
        f32::NEG_INFINITY,
        f32::INFINITY,
        nan,
        flushed,
        kept,
    ];
    for len in [1usize, 15, 16, 17, 33] {
        let base: Vec<f32> = (0..len).map(|_| -rng.normal(0.0, 4.0).abs()).collect();
        for &special in &specials {
            for pos in 0..len {
                for max in [0.0f32, 0.75] {
                    let mut row = base.clone();
                    row[pos] = special;
                    let mut want = row.clone();
                    let want_inv = math::softmax_exp_pass(&mut want, max);
                    for backend in available_backends() {
                        let mut got = row.clone();
                        let inv = backend.softmax_exp_pass(&mut got, max);
                        let what = format!("{special:e} at {pos}/{len}, max {max}");
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(&want), "{what} on {}", backend.name());
                        assert_eq!(
                            inv.to_bits(),
                            want_inv.to_bits(),
                            "normaliser, {what} on {}",
                            backend.name()
                        );
                    }
                }
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
            let got = dot_widen::<f32>(backend, &q, &row, false);
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
            let got = dot_widen::<Bf16>(backend, &q, &row, false);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "dot_widen<Bf16> len {len} on {}",
                backend.name()
            );
        }
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// `tf32_round` of every element: a row in operand form.
fn rounded(row: &[f32]) -> Vec<f32> {
    row.iter().map(|&x| tf32_round(x)).collect()
}

fn narrowed(row: &[f32]) -> Vec<Bf16> {
    row.iter().map(|&x| Bf16::from_f32(x)).collect()
}

/// Lane values the operand-form tests plant at every position: a NaN with
/// a payload, ±∞, ±0, a subnormal that is a TF32 fixed point and one that
/// is not (it rounds to `+0`).
const LANE_SPECIALS: [f32; 7] = [
    f32::from_bits(0x7fa0_1234),
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    f32::from_bits(0x0000_2000),
    f32::from_bits(0x0000_0001),
];

/// `dot_widen` with `operand_form` on against its contracts on one query
/// and raw row: on every backend, over the row in operand form it has the
/// bits of `dot_widen_ref` (of the rounded row and of the raw one), over
/// the raw row those of the scalar backend, and over the row narrowed to
/// bf16 those of `dot_widen_ref::<Bf16>`.
fn check_dot_operand_form(q: &[f32], raw: &[f32], what: &str) {
    let (fixed, bf16) = (rounded(raw), narrowed(raw));
    let want = dot_widen_ref::<f32>(q, &fixed).to_bits();
    assert_eq!(
        want,
        dot_widen_ref::<f32>(q, raw).to_bits(),
        "{what}: idempotence"
    );
    let want_raw = dot_widen(Backend::Scalar, q, raw, true).to_bits();
    let want_bf16 = dot_widen_ref::<Bf16>(q, &bf16).to_bits();
    for backend in available_backends() {
        let on = backend.name();
        assert_eq!(
            dot_widen(backend, q, &fixed, true).to_bits(),
            want,
            "{what}, rounded row on {on}"
        );
        assert_eq!(
            dot_widen(backend, q, raw, true).to_bits(),
            want_raw,
            "{what}, raw row on {on}"
        );
        let got = dot_widen::<Bf16>(backend, q, &bf16, true).to_bits();
        assert_eq!(got, want_bf16, "{what}, bf16 row on {on}");
    }
}

#[test]
fn dot_widen_in_operand_form_is_bit_identical_to_the_rounding_dot_on_rounded_rows() {
    let mut rng = Rng::new(0xD07);
    for &len in LENGTHS {
        let q = vec_of(len, &mut rng);
        let raw = vec_of(len, &mut rng);
        check_dot_operand_form(&q, &raw, &format!("len {len}"));
    }
    // One special at a time, at every lane of a vector body and of the
    // tail, so at most one NaN source meets each sum.
    for len in [19usize, 33] {
        let q = vec_of(len, &mut rng);
        let raw = vec_of(len, &mut rng);
        for &special in &LANE_SPECIALS {
            for pos in 0..len {
                let mut row = raw.clone();
                row[pos] = special;
                check_dot_operand_form(&q, &row, &format!("{special:e} at {pos}/{len}"));
            }
        }
    }
}

/// `axpy_rows` against one `axpy_widen_ref` per row in turn, from `acc0`,
/// over raw rows (`operand_form` off), the rows in operand form (on, and
/// equal to the raw rows' result) and the rows narrowed to bf16 (either
/// way), on every backend; each batch also runs split into two calls, as
/// a decode stream's kept rows are. Raw rows read with `operand_form` on
/// must match the scalar backend.
fn check_axpy_rows(acc0: &[f32], weights: &[f32], raw: &[Vec<f32>], what: &str) {
    fn reference<S: Scalar>(acc0: &[f32], weights: &[f32], rows: &[Vec<S>]) -> Vec<u32> {
        let mut acc = acc0.to_vec();
        for (&s, row) in weights.iter().zip(rows) {
            axpy_widen_ref(&mut acc, s, row);
        }
        bits(&acc)
    }
    fn run<S: Scalar>(
        backend: Backend,
        acc0: &[f32],
        weights: &[f32],
        rows: &[Vec<S>],
        operand_form: bool,
        split: usize,
    ) -> Vec<u32> {
        let rows: Vec<&[S]> = rows.iter().map(Vec::as_slice).collect();
        let mut acc = acc0.to_vec();
        axpy_rows(
            backend,
            &mut acc,
            &weights[..split],
            &rows[..split],
            operand_form,
        );
        axpy_rows(
            backend,
            &mut acc,
            &weights[split..],
            &rows[split..],
            operand_form,
        );
        bits(&acc)
    }
    let fixed: Vec<Vec<f32>> = raw.iter().map(|row| rounded(row)).collect();
    let bf16: Vec<Vec<Bf16>> = raw.iter().map(|row| narrowed(row)).collect();
    let want = reference(acc0, weights, raw);
    assert_eq!(
        want,
        reference(acc0, weights, &fixed),
        "{what}: idempotence"
    );
    let want_bf16 = reference(acc0, weights, &bf16);
    let want_raw_as_operand = run(Backend::Scalar, acc0, weights, raw, true, 0);
    for backend in available_backends() {
        for split in [0, raw.len() / 2] {
            let on = format!("{what}, split at {split}, on {}", backend.name());
            assert_eq!(
                run(backend, acc0, weights, raw, false, split),
                want,
                "raw rows, {on}"
            );
            assert_eq!(
                run(backend, acc0, weights, &fixed, true, split),
                want,
                "rounded rows, {on}"
            );
            for operand_form in [false, true] {
                let got = run(backend, acc0, weights, &bf16, operand_form, split);
                assert_eq!(
                    got, want_bf16,
                    "bf16 rows, operand_form {operand_form}, {on}"
                );
            }
            let got = run(backend, acc0, weights, raw, true, split);
            assert_eq!(got, want_raw_as_operand, "raw rows read as operands, {on}");
        }
    }
}

#[test]
fn axpy_rows_is_bit_identical_to_one_axpy_widen_ref_per_row() {
    // Widths around both vector widths and past one 64-column window (two
    // windows at 65..=127, more at 130 and 257); batches of no row, one, a
    // few, one whole decode batch (16) and one past it.
    let mut rng = Rng::new(0xA3);
    for d in [
        0usize, 1, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 65, 100, 127, 130, 257,
    ] {
        for rows in [0usize, 1, 3, 16, 17] {
            let acc0 = vec_of(d, &mut rng);
            // Weights arrive as `to_mul` of a softmax weight.
            let weights = rounded(&vec_of(rows, &mut rng));
            let raw: Vec<Vec<f32>> = (0..rows).map(|_| vec_of(d, &mut rng)).collect();
            check_axpy_rows(&acc0, &weights, &raw, &format!("d {d}, {rows} rows"));
        }
    }
    // One special per column, at every column of a vector body, of a
    // second window and of the scalar tail, so at most one NaN source
    // meets each sum.
    for d in [19usize, 70] {
        let acc0 = vec_of(d, &mut rng);
        let weights = rounded(&vec_of(3, &mut rng));
        for &special in &LANE_SPECIALS {
            let mut raw: Vec<Vec<f32>> = (0..3).map(|_| vec_of(d, &mut rng)).collect();
            for pos in 0..d {
                raw[pos % 3][pos] = special;
            }
            check_axpy_rows(
                &acc0,
                &weights,
                &raw,
                &format!("{special:e} in every column, d {d}"),
            );
        }
    }
}

/// Inputs per chunk of the TF32 sweeps: whole vector blocks plus a
/// 5-entry tail.
const TF32_CHUNK: u64 = 64 * 1024 + 5;

/// Stride of the TF32 sweep the debug profile runs in place of the
/// exhaustive one (about 1.05·10⁶ inputs).
const TF32_STRIDE: u64 = 4099;

/// Over every `stride`-th f32 bit pattern: `tf32_round` is idempotent
/// (the property that lets decode read rows rounded at write without
/// rounding them again), passes NaN and ±∞ bits through unchanged, and
/// every backend's `round_operands` has its bits.
fn tf32_sweep(stride: u64) {
    let backends = available_backends();
    let count = (1u64 << 32).div_ceil(stride);
    let reports: Vec<Option<String>> = (0..count.div_ceil(TF32_CHUNK))
        .into_par_iter()
        .map(|c| {
            let first = c * TF32_CHUNK;
            let xs: Vec<f32> = (first..count.min(first + TF32_CHUNK))
                .map(|i| f32::from_bits((i * stride) as u32))
                .collect();
            let want = rounded(&xs);
            for (&x, &r) in xs.iter().zip(&want) {
                if tf32_round(r).to_bits() != r.to_bits() {
                    return Some(format!(
                        "tf32_round is not idempotent at {:#010x}",
                        x.to_bits()
                    ));
                }
                if !x.is_finite() && r.to_bits() != x.to_bits() {
                    return Some(format!(
                        "{:#010x} became {:#010x}",
                        x.to_bits(),
                        r.to_bits()
                    ));
                }
            }
            for &backend in &backends {
                let mut got = xs.clone();
                round_operands(backend, &mut got);
                if let Some(i) = (0..xs.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
                    return Some(format!(
                        "{:#010x} rounds to {:#010x} on {}, tf32_round gives {:#010x}",
                        xs[i].to_bits(),
                        got[i].to_bits(),
                        backend.name(),
                        want[i].to_bits()
                    ));
                }
            }
            None
        })
        .collect();
    let failures: Vec<String> = reports.into_iter().flatten().collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn tf32_round_is_idempotent_and_every_backend_matches_it_on_every_input() {
    tf32_sweep(1);
}

#[test]
fn tf32_round_is_idempotent_and_every_backend_matches_it_on_a_strided_sweep() {
    tf32_sweep(TF32_STRIDE);
}

#[test]
fn round_operands_leaves_every_bf16_bit_pattern_as_it_is() {
    // A bf16 element's `to_mul` is its exact widening, so a bf16 row is
    // already in operand form, signalling NaNs included.
    let all: Vec<Bf16> = (0..=u16::MAX).map(Bf16).collect();
    for backend in available_backends() {
        let mut row = all.clone();
        round_operands(backend, &mut row);
        assert!(row == all, "a bf16 bit pattern moved on {}", backend.name());
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
            let got = dot_widen::<f32>(backend, &q, &row, false);
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
                let got = dot_widen::<f32>(backend, &q, &row, false);
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
    // Drive public entry points that production code calls through
    // `simd::active()` under each forced backend and compare against
    // Scalar-forced runs: the dispatcher must route every family, not just
    // the ones the tests above call per backend. `panel_product` runs the
    // score tile (3 rows, a 5-column tail tile) and `softmax_dense` runs
    // `row_max` and the exp pass over finite, part-NaN and all-NaN rows of
    // 100, and over rows of 1, 15, 16, 17 and 33 (around the exp pass's
    // 16-lane blocks) that hold one −∞, one NaN, all −∞ and all NaN.
    // `sddmm_nm_fused` 1:2 and 2:4 run the score tile and the prune
    // epilogue over 76 keys: two-block tiles, a 12-column tail, and whole
    // vector steps plus a tail of pairs and of groups.
    let mut rng = Rng::new(0xF0);
    let a = vec_of(100, &mut rng);
    let acc0 = vec_of(100, &mut rng);
    let s = rng.normal(0.0, 1.0);
    let (rows, n, ka) = (3usize, 37usize, 13usize);
    let aw = micro::widen(&vec_of(rows * ka, &mut rng)).to_vec();
    let packed = micro::widen_packed(&vec_of(n * ka, &mut rng), 1, n, ka).to_vec();
    let mut scores = Matrix::<f32>::random_normal(3, 100, 0.0, 1.0, &mut rng);
    let cells = scores.as_mut_slice();
    for j in (100..200).step_by(7) {
        cells[j] = f32::NAN;
    }
    cells[200..].fill(f32::NAN);
    let masked: Vec<Matrix<f32>> = [1usize, 15, 16, 17, 33]
        .into_iter()
        .map(|len| {
            let mut m = Matrix::<f32>::random_normal(4, len, 0.0, 1.0, &mut rng);
            let pos = rng.below(len);
            m.row_mut(0)[pos] = f32::NEG_INFINITY;
            m.row_mut(1)[pos] = f32::NAN;
            m.row_mut(2).fill(f32::NEG_INFINITY);
            m.row_mut(3).fill(f32::NAN);
            m
        })
        .collect();
    let q = Matrix::<f32>::random_normal(9, 13, 0.0, 1.0, &mut rng);
    let k = Matrix::<f32>::random_normal(76, 13, 0.0, 1.0, &mut rng);
    let fused = |pattern| {
        let c = sddmm::sddmm_nm_fused(&mut GpuCtx::a100(), &q, &k, 0.25, pattern);
        let mut out = c.nonzeros().to_vec();
        out.extend(c.codes().iter().map(|&b| f32::from(b)));
        out
    };
    let run = || {
        let mut axpy = acc0.clone();
        micro::axpy(&mut axpy, s, &a);
        let mut tile = vec![0.0f32; rows * n];
        micro::panel_product(&aw, 0, rows, ka, &packed, n, &mut tile);
        let mut weights = softmax::softmax_dense(&mut GpuCtx::a100(), &scores).into_vec();
        for m in &masked {
            weights.extend(softmax::softmax_dense(&mut GpuCtx::a100(), m).as_slice());
        }
        [
            axpy,
            tile,
            weights,
            fused(NmPattern::P1_2),
            fused(NmPattern::P2_4),
        ]
    };
    simd::force(Some(Backend::Scalar));
    let want = run();
    for backend in available_backends() {
        simd::force(Some(backend));
        assert_eq!(simd::active(), backend);
        let got = run();
        for (what, (got, want)) in [
            "micro::axpy",
            "micro::panel_product",
            "softmax_dense",
            "sddmm_nm_fused 1:2",
            "sddmm_nm_fused 2:4",
        ]
        .into_iter()
        .zip(got.iter().zip(&want))
        {
            let same = got
                .iter()
                .zip(want)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()));
            assert!(same, "{what} diverged under forced {}", backend.name());
        }
    }
    simd::force(None);
}

// Mismatched slice lengths must panic at the public entry, on the
// dispatched backend and in every build profile: the x86 bodies index
// unchecked, so a check that release builds compile out would let them
// read out of bounds.

#[test]
#[should_panic(expected = "tile rows are not all 64 long")]
fn panel_tile_rejects_a_short_row() {
    let (long, short) = (vec![1.0f32; 64], vec![1.0f32; 3]);
    let arows: [&[f32]; 4] = [&long, &short, &long, &long];
    let block = vec![1.0f32; 64 * 16];
    let mut out = vec![0.0f32; 2 * 16];
    simd::active().panel_tile(&arows, 2, &block, 16, 0, 16, &mut out);
}

#[test]
#[should_panic(expected = "block shorter than 4096 packed rows")]
fn panel_tile_rejects_a_short_block() {
    let row = vec![1.0f32; 4096];
    let arows: [&[f32]; 4] = [&row; 4];
    let block = vec![1.0f32; 16];
    let mut out = vec![0.0f32; 4 * 16];
    simd::active().panel_tile(&arows, 4, &block, 16, 0, 16, &mut out);
}

#[test]
#[should_panic(expected = "axpy row length differs from acc")]
fn axpy_rejects_a_short_row() {
    micro::axpy(&mut [0.0; 64], 1.0, &[1.0; 3]);
}

#[test]
#[should_panic(expected = "dot_widen row length differs from q")]
fn dot_widen_rejects_a_short_row() {
    dot_widen::<Bf16>(simd::active(), &[1.0; 64], &[Bf16::from_f32(1.0); 3], false);
}

#[test]
#[should_panic(expected = "axpy_rows row length differs from acc")]
fn axpy_rows_rejects_a_short_row() {
    let (long, short) = ([1.0f32; 64], [1.0f32; 63]);
    axpy_rows::<f32>(
        simd::active(),
        &mut [0.0; 64],
        &[1.0; 2],
        &[&long, &short],
        true,
    );
}

#[test]
#[should_panic(expected = "axpy_rows takes one weight per row")]
fn axpy_rows_rejects_a_missing_weight() {
    let row = [1.0f32; 64];
    axpy_rows::<f32>(simd::active(), &mut [0.0; 64], &[1.0], &[&row, &row], false);
}

/// Every entry that dispatches to a `target_feature` body asserts that its
/// backend is available, so no safe call runs an instruction the CPU
/// lacks. Vacuous on a host that has every backend: there is then no
/// unavailable backend to call.
#[test]
fn every_simd_entry_rejects_an_unavailable_backend() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let row = vec![1.0f32; 64];
    let arows: [&[f32]; 4] = [&row; 4];
    let block = vec![1.0f32; 64 * 16];
    let (mut acc, mut nz, mut codes) = ([0.0f32; 64], [0.0f32; 32], [0u8; 32]);
    for backend in [Backend::Avx2, Backend::Avx512] {
        if backend.available() {
            continue;
        }
        let rejects = |what: &str, call: &mut dyn FnMut()| {
            let err = catch_unwind(AssertUnwindSafe(call)).expect_err(what);
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("not available"), "{what}: {msg}");
        };
        rejects("axpy", &mut || backend.axpy(&mut acc, 1.0, &row));
        rejects("panel_tile", &mut || {
            backend.panel_tile(&arows, 4, &block, 16, 0, 16, &mut acc)
        });
        rejects("dot_widen", &mut || {
            dot_widen::<f32>(backend, &row, &row, true);
        });
        rejects("axpy_rows", &mut || {
            axpy_rows::<f32>(backend, &mut acc, &[1.0], &[&row], true)
        });
        rejects("round_operands", &mut || {
            round_operands::<f32>(backend, &mut acc)
        });
        rejects("prune_nm", &mut || {
            backend.prune_nm(NmPattern::P1_2, &row, 1.0, &mut nz, &mut codes)
        });
    }
}

#[test]
#[should_panic(expected = "nonzeros do not fit the groups")]
fn prune_nm_rejects_short_nonzeros() {
    simd::active().prune_nm::<f32>(
        NmPattern::P2_4,
        &[1.0; 64],
        1.0,
        &mut [0.0; 31],
        &mut [0; 16],
    );
}

#[test]
#[should_panic(expected = "tile output outside acc_out")]
fn panel_tile_rejects_a_short_output() {
    let row = vec![1.0f32; 8];
    let arows: [&[f32]; 4] = [&row; 4];
    let block = vec![1.0f32; 2 * 8 * 16];
    simd::active().panel_tile(&arows, 4, &block, 32, 0, 32, &mut [0.0; 3 * 32 + 31]);
}
