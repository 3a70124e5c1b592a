//! Packed microkernels shared by every compute kernel, dispatched to the
//! explicit-SIMD backend chosen once at startup (see [`crate::simd`]).
//!
//! The paper's speedups presume the three attention kernels run at hardware
//! speed; on the host side that means the inner loops must run wide. Each
//! public microkernel here routes through [`crate::simd::active`] — AVX2
//! or AVX-512 when the CPU has them, the always-compiled scalar reference
//! otherwise (every non-x86 target, or under `DFSS_SIMD=scalar`). Every
//! backend is bit-identical to the scalar reference by construction (one
//! fused multiply-add per tile term on every backend, scalar reduction
//! tree preserved; see the parity gauntlet in `tests/simd_parity.rs`), so
//! kernel results do not depend on the host CPU. The tiles' operands are
//! TF32- or bf16-rounded, so their products are exact and the fused step
//! gives the bits a multiply then an add would, short of overflow or a
//! product below 2^−128.
//!
//! Loop-shape inventory:
//!
//! * [`panel_product`] — the register-tiled score microkernel: 4 rows × 32
//!   columns per tile (two packed 16-column blocks; AVX-512 holds all
//!   eight accumulators at once, AVX2 and the scalar reference run the
//!   blocks in turn), accumulated in registers over the whole k extent
//!   against a [`widen_packed`] operand. `gemm_nt`, the fused SDDMM and the
//!   row-tile driver compute every dense score with it. Per-element sums
//!   run in *serial left-to-right* k-order, so scores are bit-identical
//!   across every kernel and backend that computes them.
//! * [`simd::nn_tile`] — the register-tiled dense NN microkernel: 4 rows ×
//!   64 columns (AVX-512; 4 × 16 on AVX2) accumulated in registers over the
//!   whole k extent against a row-major operand, each operand row loaded
//!   once per k for all four rows. `gemm_nn` and the row-tile driver's
//!   dense AV stage call it directly, as the N:M SpMM calls
//!   [`simd::spmm_tile`].
//! * [`axpy`] — `acc[j] = fma(s, row[j], acc[j])` over a long contiguous
//!   row; the lanes are independent. The CSR SpMM gathers V rows with it.
//!
//! Operand widening ([`widen`], [`widen_packed`])
//! goes through the thread-local scratch arena: the f32 copies (and the
//! per-row accumulators kernels take via [`dfss_tensor::scratch_f32`]) are
//! reused across calls instead of re-allocated — the persistent worker
//! pool keeps each worker's arena warm for the whole process lifetime —
//! and start on 64-byte boundaries, so a 16-lane load of a row whose width
//! is a multiple of 16 never splits a cache line.

use crate::simd::{self, TILE_ROWS};
use dfss_tensor::{scratch_f32_from, Scalar, ScratchF32};

/// `acc[j] = fma(s, row[j], acc[j])` over the whole slice: one rounding per
/// element, as the register tiles' steps. The lanes are independent, so
/// any SIMD width computes the same bits; the helper exists to keep the
/// update in one place (and one idiom) across every row-accumulation loop.
///
/// # Panics
/// If `acc` and `row` differ in length.
#[inline]
pub fn axpy(acc: &mut [f32], s: f32, row: &[f32]) {
    simd::active().axpy(acc, s, row);
}

/// Column width of one packed block of the register-tiled score kernels:
/// 16 f32 lanes = one AVX-512 register or two AVX2 registers. A score tile
/// spans one or two blocks ([`simd::Backend::panel_tile`]).
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
    while j0 < n {
        // Two packed blocks per tile; an odd last block runs alone.
        let w = (2 * TILE_COLS).min(n - j0);
        let (jt, blocks) = (j0 / TILE_COLS, w.div_ceil(TILE_COLS));
        let block = &packed[jt * ka * TILE_COLS..(jt + blocks) * ka * TILE_COLS];
        backend.panel_tile(&arows, rcnt, block, n, j0, w, acc);
        j0 += w;
    }
}

/// Widen (and input-round) row-major elements into a pooled f32 buffer — the
/// tensor-core operand conversion (TF32 for f32 inputs, exact widening for
/// bf16), allocation-free in steady state. `src` is one matrix's elements
/// or a whole stack's (the layout is kept).
pub fn widen<T: Scalar>(src: &[T]) -> ScratchF32 {
    scratch_f32_from(src.len(), src.iter().map(|v| v.to_mul()))
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
    fn panel_product_bit_identical_to_axpy_accumulation() {
        let mut rng = Rng::new(9);
        // Ragged shapes: odd rows (tail rcnt < 4) and a non-multiple-of-16
        // column count (tail tile).
        for &(m, n, ka) in &[(7usize, 37usize, 13usize), (8, 32, 16), (5, 16, 8)] {
            let a = Matrix::<f32>::random_normal(m, ka, 0.0, 1.0, &mut rng);
            let b = Matrix::<f32>::random_normal(n, ka, 0.0, 1.0, &mut rng);
            let aw = widen(a.as_slice());
            let bt = widen(b.transpose().as_slice());
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
    fn widened_operands_start_on_cache_lines() {
        // Every widening path hands the tiles a 64-byte-aligned slice,
        // held across calls or not.
        let m = Matrix::<f32>::from_fn(5, 13, |r, c| (r * 13 + c) as f32);
        for round in 0..3 {
            let held = [widen(m.as_slice()), widen_packed(m.as_slice(), 1, 5, 13)];
            for (what, s) in ["widen", "widen_packed"].iter().zip(&held) {
                assert_eq!(s.as_ptr() as usize % 64, 0, "{what}, round {round}");
            }
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
