//! Packed microkernels shared by every compute kernel, dispatched to the
//! explicit-SIMD backend chosen once at startup (see [`crate::simd`]).
//!
//! The paper's speedups presume the three attention kernels run at hardware
//! speed; on the host side that means the inner loops must run wide. Each
//! public microkernel here routes through [`crate::simd::active`] — AVX2
//! or AVX-512 when the CPU has them, the always-compiled scalar reference
//! otherwise (every non-x86 target, or under `DFSS_SIMD=scalar`). Every
//! backend is bit-identical to the scalar reference by construction (no
//! FMA, scalar reduction tree preserved; see the parity gauntlet in
//! `tests/simd_parity.rs`), so kernel results do not depend on the host CPU.
//!
//! Loop-shape inventory:
//!
//! * [`panel_product`] — the register-tiled score microkernel: 4 rows × 16
//!   columns per tile, accumulated in registers over the whole k extent
//!   against a [`widen_packed`] operand. `gemm_nt`, the fused SDDMM and the
//!   row-tile driver compute every dense score with it. Per-element sums
//!   run in *serial left-to-right* k-order, so scores are bit-identical
//!   across every kernel that computes them.
//! * [`simd::nn_tile`] — the register-tiled dense NN microkernel: 4 rows ×
//!   64 columns (AVX-512; 4 × 16 on AVX2) accumulated in registers over the
//!   whole k extent against a row-major operand, each operand row loaded
//!   once per k for all four rows. `gemm_nn` and the row-tile driver's
//!   dense AV stage call it directly, as the N:M SpMM calls
//!   [`simd::spmm_tile`].
//! * [`axpy`] — `acc[j] += s · row[j]` over a long contiguous row; the
//!   lanes are independent. The blocked-ELL SDDMM accumulates its active
//!   blocks as an outer product over a [`widen_transposed`] K panel, in the
//!   same serial k-order as [`panel_product`]; the CSR and blocked-ELL
//!   SpMMs gather V rows with [`axpy`].
//!
//! Operand widening ([`widen`], [`widen_transposed`]) goes through the
//! thread-local scratch arena: the f32 copies (and the per-row accumulators
//! kernels take via [`dfss_tensor::scratch_f32`]) are reused across calls
//! instead of re-allocated — the persistent worker pool keeps each worker's
//! arena warm for the whole process lifetime.

use crate::simd::{self, TILE_ROWS};
use dfss_tensor::{scratch_f32_from, Scalar, ScratchF32};

/// `acc[j] += s * row[j]` over the whole slice. The lanes are independent,
/// so any SIMD width computes the same bits; the helper exists to keep the
/// update in one place (and one idiom) across every row-accumulation loop.
///
/// # Panics
/// If `acc` and `row` differ in length.
#[inline]
pub fn axpy(acc: &mut [f32], s: f32, row: &[f32]) {
    simd::active().axpy(acc, s, row);
}

/// Column-tile width of the register-tiled batched kernels: 16 f32 lanes =
/// one AVX-512 register or two AVX2 registers, leaving room for
/// [`TILE_ROWS`] rows of accumulators in the register file.
pub const TILE_COLS: usize = 16;

/// Widen an `n × ka` operand directly into the **tile-packed** layout the
/// register-tiled batched kernels stream: the (logical) `ka × n` transpose is
/// stored as `⌈n/TILE_COLS⌉` contiguous `ka × TILE_COLS` blocks, so a
/// [`panel_product`] column tile reads one contiguous block instead of `ka`
/// strided rows. The tail tile is zero-padded (the padding lanes never leave
/// the register block). One packing pass per operand per launch.
///
/// `src` holds `batch` stacked `n × ka` row-major panels; each becomes one
/// block of [`packed_len`]`(n, ka)` f32s, stored panel-major.
pub fn widen_packed<T: Scalar>(src: &[T], batch: usize, n: usize, ka: usize) -> ScratchF32 {
    let pl = packed_len(n, ka);
    let mut out = dfss_tensor::scratch_f32(batch * pl);
    for (b, panel) in src.chunks_exact((n * ka).max(1)).enumerate() {
        pack_into(panel, ka, &mut out[b * pl..(b + 1) * pl]);
    }
    out
}

/// Elements of one [`widen_packed`] panel for an `n × ka` operand.
#[inline]
pub fn packed_len(n: usize, ka: usize) -> usize {
    n.div_ceil(TILE_COLS).max(1) * ka * TILE_COLS
}

/// Pack one `n × ka` row-major operand slice into a caller-provided packed
/// block (see [`widen_packed`]); `out.len() >= packed_len(n, ka)` and the
/// caller is responsible for zeroing the tail-tile padding.
pub fn pack_into<T: Scalar>(src: &[T], ka: usize, out: &mut [f32]) {
    for (j, row) in src.chunks_exact(ka.max(1)).enumerate() {
        let (jt, l) = (j / TILE_COLS, j % TILE_COLS);
        let block = &mut out[jt * ka * TILE_COLS..];
        for (kk, v) in row.iter().enumerate() {
            block[kk * TILE_COLS + l] = v.to_mul();
        }
    }
}

/// Register-tiled product of `rcnt ≤` [`TILE_ROWS`] consecutive rows of
/// `aw` (row-major, `ka` columns, starting at row `i0`) against a
/// [`widen_packed`] panel of logical shape `ka × n`: **overwrites** the
/// first `rcnt × n` entries of `acc` with the row sums (no caller zeroing
/// needed — accumulation happens in registers and spills once per tile).
///
/// Per-element sums run in serial k-order, exactly like an [`axpy`]
/// outer-product accumulation, so results are bit-identical to one; only
/// the memory traffic differs (the accumulator block stays in registers
/// and the packed panel streams contiguously).
pub fn panel_product(
    aw: &[f32],
    i0: usize,
    rcnt: usize,
    ka: usize,
    packed: &[f32],
    n: usize,
    acc: &mut [f32],
) {
    debug_assert!((1..=TILE_ROWS).contains(&rcnt));
    debug_assert!(acc.len() >= rcnt * n);
    debug_assert!(packed.len() >= n.div_ceil(TILE_COLS) * ka * TILE_COLS);
    // Fixed-size row-slice array (pad unused slots with the last row — the
    // backend tile only ever reads its first `rcnt` entries).
    let arows: [&[f32]; TILE_ROWS] = std::array::from_fn(|r| {
        let i = i0 + r.min(rcnt - 1);
        &aw[i * ka..(i + 1) * ka]
    });
    let backend = simd::active();
    let mut j0 = 0;
    let mut jt = 0;
    while j0 < n {
        let w = TILE_COLS.min(n - j0);
        let block = &packed[jt * ka * TILE_COLS..(jt + 1) * ka * TILE_COLS];
        backend.panel_tile(&arows, rcnt, block, n, j0, w, acc);
        j0 += w;
        jt += 1;
    }
}

/// Widen (and input-round) row-major elements into a pooled f32 buffer — the
/// tensor-core operand conversion (TF32 for f32 inputs, exact widening for
/// bf16), allocation-free in steady state. `src` is one matrix's elements
/// or a whole stack's (the layout is kept).
pub fn widen<T: Scalar>(src: &[T]) -> ScratchF32 {
    scratch_f32_from(src.len(), src.iter().map(|v| v.to_mul()))
}

/// Widen `batch` stacked `rows × cols` row-major panels directly into
/// their `cols × rows` transposes, stored panel-major (fused widen +
/// transpose, one pass, no intermediate `Matrix`).
pub fn widen_transposed<T: Scalar>(
    src: &[T],
    batch: usize,
    rows: usize,
    cols: usize,
) -> ScratchF32 {
    let mut out = dfss_tensor::scratch_f32(batch * rows * cols);
    for (panel, dst) in src
        .chunks_exact((rows * cols).max(1))
        .zip(out.chunks_exact_mut((rows * cols).max(1)))
    {
        for (r, row) in panel.chunks_exact(cols.max(1)).enumerate() {
            for (c, v) in row.iter().enumerate() {
                dst[c * rows + r] = v.to_mul();
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfss_tensor::{Bf16, Matrix, Rng};

    #[test]
    fn axpy_accumulates() {
        let mut acc = vec![1.0f32; 5];
        axpy(&mut acc, 2.0, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(acc, vec![3.0, 5.0, 7.0, 9.0, 11.0]);
    }

    #[test]
    fn widen_applies_tf32_rounding() {
        let x = 1.0f32 + 2.0f32.powi(-11); // dropped by TF32's 10-bit mantissa
        let m = Matrix::<f32>::from_vec(1, 2, vec![x, 0.5]);
        let w = widen(m.as_slice());
        assert_eq!(&*w, &[1.0, 0.5]);
    }

    #[test]
    fn widen_bf16_is_exact() {
        let m = Matrix::<Bf16>::from_fn(2, 2, |r, c| Bf16::from_f32((r + c) as f32 * 0.25));
        let w = widen(m.as_slice());
        assert_eq!(w[3], 0.5);
    }

    #[test]
    fn widen_transposed_matches_transpose_then_widen() {
        let mut rng = Rng::new(3);
        let m = Matrix::<f32>::random_normal(7, 5, 0.0, 1.0, &mut rng);
        let expect = widen(m.transpose().as_slice());
        let got = widen_transposed(m.as_slice(), 1, 7, 5);
        assert_eq!(&*expect, &*got);
    }

    #[test]
    fn panel_product_bit_identical_to_axpy_accumulation() {
        let mut rng = Rng::new(9);
        // Ragged shapes: odd rows (tail rcnt < 4) and a non-multiple-of-16
        // column count (tail tile).
        for &(m, n, ka) in &[(7usize, 37usize, 13usize), (8, 32, 16), (5, 16, 8)] {
            let a = Matrix::<f32>::random_normal(m, ka, 0.0, 1.0, &mut rng);
            let b = Matrix::<f32>::random_normal(n, ka, 0.0, 1.0, &mut rng);
            let aw = widen(a.as_slice());
            let bt = widen_transposed(b.as_slice(), 1, n, ka);
            let bp = widen_packed(b.as_slice(), 1, n, ka);
            // Reference: serial axpy accumulation (the single-head order).
            let mut expect = vec![0.0f32; m * n];
            for i in 0..m {
                for kk in 0..ka {
                    axpy(
                        &mut expect[i * n..(i + 1) * n],
                        aw[i * ka + kk],
                        &bt[kk * n..(kk + 1) * n],
                    );
                }
            }
            let mut got = vec![f32::NAN; m * n];
            let mut i0 = 0;
            while i0 < m {
                let rcnt = TILE_ROWS.min(m - i0);
                let mut acc = vec![0.0f32; rcnt * n];
                panel_product(&aw, i0, rcnt, ka, &bp, n, &mut acc);
                got[i0 * n..(i0 + rcnt) * n].copy_from_slice(&acc);
                i0 += rcnt;
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&expect), bits(&got), "{m}x{n}x{ka}");
        }
    }

    #[test]
    fn packed_layout_is_tile_major() {
        let m = Matrix::<f32>::from_fn(3, 2, |r, c| (r * 10 + c) as f32);
        let p = widen_packed(m.as_slice(), 1, 3, 2);
        assert_eq!(p.len(), packed_len(3, 2));
        // Tile 0, kk = 0 holds column 0 of rows 0..3 then zero padding.
        assert_eq!(&p[..4], &[0.0, 10.0, 20.0, 0.0]);
        // kk = 1 lane block starts at TILE_COLS.
        assert_eq!(&p[TILE_COLS..TILE_COLS + 3], &[1.0, 11.0, 21.0]);
    }
}
