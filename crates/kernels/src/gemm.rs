//! Tiled dense GEMM.
//!
//! Mirrors the paper's Figure 7 design: the output is partitioned into
//! thread-block tiles of edge `T` (128 on the A100); each tile loads
//! `T×K` and `K×T` operand panels, multiplies on the tensor core with f32
//! accumulation, and writes the tile back. Per-tile traffic is therefore
//! `(2·T·K + T·T) · sizeof(T)` bytes, which reproduces the Table 5 count
//! `n²(2d/T + 1)` for the n×d·d×n attention score GEMM.
//!
//! Two layouts, `NT` (`A·Bᵀ`, the score GEMM) and `NN` (`A·B`, the AV
//! product and the model's projections), each with one exec body over
//! borrowed slices: the solo kernel is the one-panel case of the batched
//! one, and both make one pool fan-out over (panel, 16-row tile) work
//! items. `NT` packs B once per call into tile-major blocks and accumulates
//! 4-row register tiles with [`micro::panel_product`]; `NN` accumulates
//! 4-row register tiles with [`simd::nn_tile`] against the row-major B,
//! skipping zero A entries. Every per-element sum runs in serial k-order.
//! Packing is layout work a real GPU kernel gets for free from `ldmatrix`,
//! so it is not charged.

use crate::batched::{fan_out, ROW_TILE};
use crate::ctx::{dense_class, GpuCtx};
use crate::{micro, simd};
use dfss_gpusim::{KernelProfile, Stage};
use dfss_tensor::{scratch_f32_stale, BatchedMatrix, Matrix, Scalar};

/// Charge the simulated cost of a dense `M×K · K×N` GEMM without executing
/// it here — for mechanisms that fuse the product into a custom host loop
/// but want the device model to see a standard tiled GEMM.
pub fn charge_gemm<T: Scalar>(
    ctx: &mut GpuCtx,
    name: &'static str,
    stage: Stage,
    m: usize,
    n: usize,
    k: usize,
) {
    record_gemm_batched::<T>(ctx, name, stage, 1, m, n, k);
}

/// Record one launch covering `batch` same-shape GEMMs: a single profile
/// whose counters are exactly `batch ×` the per-panel charge. Tiling
/// (`tile_for`) is computed once per launch, not once per panel.
pub(crate) fn record_gemm_batched<T: Scalar>(
    ctx: &mut GpuCtx,
    name: &'static str,
    stage: Stage,
    batch: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    let tm = ctx.tile_for(m) as u64;
    let tn = ctx.tile_for(n) as u64;
    let (batch, m, n, k) = (batch as u64, m as u64, n as u64, k as u64);
    let tiles_m = m.div_ceil(tm);
    let tiles_n = n.div_ceil(tn);
    // Each tile loads a tm×k panel of A and a k×tn panel of B.
    let reads = batch * tiles_m * tiles_n * (tm * k + k * tn) * T::BYTES as u64;
    let writes = batch * m * n * T::BYTES as u64;
    let macs = batch * m * n * k;
    ctx.record(
        KernelProfile::new(name, stage)
            .with_traffic(reads, writes)
            .with_tc(macs, dense_class::<T>()),
    );
}

/// `C = scale · (A · Bᵀ)`; `A: M×K`, `B: N×K`, `C: M×N`.
///
/// This is the natural layout for the attention score matrix
/// (`Q·Kᵀ` with both `Q` and `K` stored row-major `n×d`). The one-panel
/// case of [`gemm_nt_batched`]'s exec body, so both are bit-identical.
pub fn gemm_nt<T: Scalar>(
    ctx: &mut GpuCtx,
    stage: Stage,
    a: &Matrix<T>,
    b: &Matrix<T>,
    scale: f32,
) -> Matrix<T> {
    let (m, ka) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(ka, kb, "inner dimensions differ: {ka} vs {kb}");
    record_gemm_batched::<T>(ctx, "gemm_nt", stage, 1, m, n, ka);
    if !ctx.exec {
        return Matrix::zeros(m, n);
    }
    let out = gemm_nt_exec((1, m, n, ka), a.as_slice(), b.as_slice(), scale);
    Matrix::from_vec(m, n, out)
}

/// Batched `C = scale · (A · Bᵀ)` over a whole B×H stack in **one launch**:
/// `A: batch×M×K`, `B: batch×N×K`, `C: batch×M×N`. Charges a single profile
/// of exactly `batch ×` the per-panel [`gemm_nt`] cost; the same exec body
/// as [`gemm_nt`].
pub fn gemm_nt_batched<T: Scalar>(
    ctx: &mut GpuCtx,
    stage: Stage,
    a: &BatchedMatrix<T>,
    b: &BatchedMatrix<T>,
    scale: f32,
) -> BatchedMatrix<T> {
    let (batch, m, ka) = a.shape();
    let (bb, n, kb) = b.shape();
    assert_eq!(batch, bb, "batch sizes differ: {batch} vs {bb}");
    assert_eq!(ka, kb, "inner dimensions differ: {ka} vs {kb}");
    record_gemm_batched::<T>(ctx, "gemm_nt", stage, batch, m, n, ka);
    if !ctx.exec {
        return BatchedMatrix::charge_only(batch, m, n);
    }
    let out = gemm_nt_exec((batch, m, n, ka), a.as_slice(), b.as_slice(), scale);
    BatchedMatrix::from_vec(batch, m, n, out)
}

/// The one NT exec body, over borrowed slices: `batch` stacked `m × ka`
/// A panels against their `n × ka` B panels. One pool fan-out over (panel,
/// row-tile) work items; each output row block accumulates in the
/// register-tiled [`micro::panel_product`] against B packed once per call,
/// so per-element sums run in serial k-order (the scores every kernel that
/// computes them shares), and converts once with `from_acc(x · scale)`.
fn gemm_nt_exec<T: Scalar>(
    (batch, m, n, ka): (usize, usize, usize, usize),
    a: &[T],
    b: &[T],
    scale: f32,
) -> Vec<T> {
    let aw = micro::widen(a);
    let bp = micro::widen_packed(b, batch, n, ka);
    let ppl = micro::packed_len(n, ka);
    let mut out = vec![T::zero(); batch * m * n];
    fan_out(&mut out, m * n, ROW_TILE * n, |p, e0, chunk| {
        let aw_p = &aw[p * m * ka..(p + 1) * m * ka];
        let bp_p = &bp[p * ppl..(p + 1) * ppl];
        let mut acc = scratch_f32_stale(simd::TILE_ROWS * n);
        for (t, orows) in chunk.chunks_mut(simd::TILE_ROWS * n).enumerate() {
            let rcnt = orows.len() / n;
            let i0 = e0 / n + t * simd::TILE_ROWS;
            micro::panel_product(aw_p, i0, rcnt, ka, bp_p, n, &mut acc);
            for (o, &v) in orows.iter_mut().zip(acc.iter()) {
                *o = T::from_acc(v * scale);
            }
        }
    });
    out
}

/// `C = A · B`; `A: M×K`, `B: K×N`, `C: M×N` (e.g. `A·V`). The one-panel
/// case of [`gemm_nn_batched`]'s exec body, so both are bit-identical.
pub fn gemm_nn<T: Scalar>(
    ctx: &mut GpuCtx,
    stage: Stage,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Matrix<T> {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(ka, kb, "inner dimensions differ: {ka} vs {kb}");
    record_gemm_batched::<T>(ctx, "gemm_nn", stage, 1, m, n, ka);
    if !ctx.exec {
        return Matrix::zeros(m, n);
    }
    let out = gemm_nn_exec((1, m, n, ka), a.as_slice(), b.as_slice());
    Matrix::from_vec(m, n, out)
}

/// Batched `C = A · B` over a whole B×H stack in one launch (`A: batch×M×K`,
/// `B: batch×K×N`); single profile = `batch ×` the per-panel [`gemm_nn`]
/// cost; the same exec body as [`gemm_nn`].
pub fn gemm_nn_batched<T: Scalar>(
    ctx: &mut GpuCtx,
    stage: Stage,
    a: &BatchedMatrix<T>,
    b: &BatchedMatrix<T>,
) -> BatchedMatrix<T> {
    let (batch, m, ka) = a.shape();
    let (bb, kb, n) = b.shape();
    assert_eq!(batch, bb, "batch sizes differ: {batch} vs {bb}");
    assert_eq!(ka, kb, "inner dimensions differ: {ka} vs {kb}");
    record_gemm_batched::<T>(ctx, "gemm_nn", stage, batch, m, n, ka);
    if !ctx.exec {
        return BatchedMatrix::charge_only(batch, m, n);
    }
    let out = gemm_nn_exec((batch, m, n, ka), a.as_slice(), b.as_slice());
    BatchedMatrix::from_vec(batch, m, n, out)
}

/// The one NN exec body, over borrowed slices: `batch` stacked `m × ka`
/// A panels against their `ka × n` B panels, one pool fan-out over (panel,
/// row-tile) work items, each cut into [`simd::TILE_ROWS`]-row register
/// tiles of [`simd::nn_tile`] (serial k-order per element; a zero A entry's
/// term is skipped, so a non-finite B row under it never reaches the
/// output).
fn gemm_nn_exec<T: Scalar>(
    (batch, m, n, ka): (usize, usize, usize, usize),
    a: &[T],
    b: &[T],
) -> Vec<T> {
    let aw = micro::widen(a);
    let bw = micro::widen(b);
    let backend = simd::active();
    let mut out = vec![T::zero(); batch * m * n];
    fan_out(&mut out, m * n, ROW_TILE * n, |p, e0, chunk| {
        let bw_p = &bw[p * ka * n..(p + 1) * ka * n];
        for (t, orows) in chunk.chunks_mut(simd::TILE_ROWS * n).enumerate() {
            // Row index within the whole stack.
            let i = p * m + e0 / n + t * simd::TILE_ROWS;
            let rcnt = orows.len() / n;
            simd::nn_tile(backend, rcnt, &aw[i * ka..(i + rcnt) * ka], bw_p, n, orows);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfss_tensor::{Bf16, Rng};

    fn ctx() -> GpuCtx {
        GpuCtx::a100()
    }

    #[test]
    fn nt_matches_reference() {
        let mut rng = Rng::new(1);
        let a = Matrix::<f32>::random_normal(33, 17, 0.0, 1.0, &mut rng);
        let b = Matrix::<f32>::random_normal(21, 17, 0.0, 1.0, &mut rng);
        let mut ctx = ctx();
        let c = gemm_nt(&mut ctx, Stage::Qk, &a, &b, 1.0);
        let reference = a.matmul_ref(&b.transpose());
        // TF32 input rounding bounds the error.
        assert!(
            c.max_abs_diff(&reference) < 1e-2,
            "{}",
            c.max_abs_diff(&reference)
        );
    }

    #[test]
    fn nn_matches_reference() {
        let mut rng = Rng::new(2);
        let a = Matrix::<f32>::random_normal(19, 31, 0.0, 1.0, &mut rng);
        let b = Matrix::<f32>::random_normal(31, 23, 0.0, 1.0, &mut rng);
        let mut ctx = ctx();
        let c = gemm_nn(&mut ctx, Stage::Av, &a, &b);
        assert!(c.max_abs_diff(&a.matmul_ref(&b)) < 2e-2);
    }

    /// A column of zeros in A over a +Inf row of B: the zero terms are
    /// skipped (0 · Inf would be NaN), so the product is finite and equal to
    /// the one with that B row zeroed.
    fn nn_skips_zero_column_over_inf_row<T: Scalar>() {
        let (m, ka, n, k0) = (37, 20, 70, 11);
        let mut rng = Rng::new(3);
        let mut a = Matrix::<f32>::random_normal(m, ka, 0.0, 1.0, &mut rng);
        for i in 0..m {
            a.set(i, k0, if i % 2 == 0 { 0.0 } else { -0.0 });
        }
        let b = Matrix::<f32>::random_normal(ka, n, 0.0, 1.0, &mut rng);
        let (mut b_inf, mut b_zero) = (b.clone(), b);
        for j in 0..n {
            b_inf.set(k0, j, f32::INFINITY);
            b_zero.set(k0, j, 0.0);
        }
        let cast = |x: &Matrix<f32>| {
            Matrix::<T>::from_fn(x.rows(), x.cols(), |r, c| T::from_f32(x.get(r, c)))
        };
        let a = cast(&a);
        let got = gemm_nn(&mut ctx(), Stage::Av, &a, &cast(&b_inf));
        let want = gemm_nn(&mut ctx(), Stage::Av, &a, &cast(&b_zero));
        let bits = |x: &Matrix<T>| {
            x.as_slice()
                .iter()
                .map(|v| v.to_f32().to_bits())
                .collect::<Vec<_>>()
        };
        assert!(got.as_slice().iter().all(|v| v.to_f32().is_finite()));
        assert_eq!(bits(&got), bits(&want), "{}", T::NAME);
    }

    #[test]
    fn nn_zero_weights_keep_non_finite_rows_out() {
        nn_skips_zero_column_over_inf_row::<f32>();
        nn_skips_zero_column_over_inf_row::<Bf16>();
    }

    #[test]
    fn scale_applied() {
        let a = Matrix::<f32>::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::<f32>::from_vec(1, 2, vec![3.0, 4.0]);
        let mut ctx = ctx();
        let c = gemm_nt(&mut ctx, Stage::Qk, &a, &b, 0.5);
        assert!((c.get(0, 0) - 5.5).abs() < 1e-3);
    }

    #[test]
    fn bf16_gemm_accumulates_in_f32() {
        // Summing 4096 × 1.0·0.001 in pure bf16 would lose badly; f32
        // accumulation keeps it tight before the final narrowing.
        let k = 4096;
        let a = Matrix::<Bf16>::from_fn(1, k, |_, _| Bf16::from_f32(1.0));
        let b = Matrix::<Bf16>::from_fn(1, k, |_, _| Bf16::from_f32(0.0009765625)); // 2^-10
        let mut ctx = ctx();
        let c = gemm_nt(&mut ctx, Stage::Qk, &a, &b, 1.0);
        assert!((c.get(0, 0).to_f32() - 4.0).abs() < 0.02);
    }

    #[test]
    fn traffic_matches_table_5_for_square_attention_gemm() {
        // n×d · d×n with n divisible by T: traffic elements = n²(2d/T + 1).
        let n = 512;
        let d = 64;
        let mut rng = Rng::new(4);
        let q = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
        let k = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
        let mut ctx = ctx();
        let _ = gemm_nt(&mut ctx, Stage::Qk, &q, &k, 1.0);
        let t = ctx.dev.tile as u64;
        let (n, d) = (n as u64, d as u64);
        let expect_elems = n * n * (2 * d / t + 1);
        assert_eq!(ctx.timeline.total_bytes(), expect_elems * 4);
    }

    #[test]
    fn macs_recorded() {
        let mut rng = Rng::new(5);
        let a = Matrix::<f32>::random_normal(64, 32, 0.0, 1.0, &mut rng);
        let b = Matrix::<f32>::random_normal(48, 32, 0.0, 1.0, &mut rng);
        let mut ctx = ctx();
        let _ = gemm_nt(&mut ctx, Stage::Qk, &a, &b, 1.0);
        assert_eq!(ctx.timeline.entries()[0].tc_macs, 64 * 48 * 32);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn dimension_mismatch_panics() {
        let a = Matrix::<f32>::zeros(2, 3);
        let b = Matrix::<f32>::zeros(2, 4);
        let mut ctx = ctx();
        let _ = gemm_nt(&mut ctx, Stage::Qk, &a, &b, 1.0);
    }

    #[test]
    fn large_parallel_consistent_with_small_serial() {
        let mut rng = Rng::new(6);
        let a = Matrix::<f32>::random_normal(200, 64, 0.0, 1.0, &mut rng);
        let b = Matrix::<f32>::random_normal(100, 64, 0.0, 1.0, &mut rng);
        let mut ctx = ctx();
        let c = gemm_nt(&mut ctx, Stage::Qk, &a, &b, 1.0);
        // Spot-check a handful of entries against direct dots.
        for &(i, j) in &[(0usize, 0usize), (199, 99), (57, 42), (128, 1)] {
            let dot: f32 = a.row(i).iter().zip(b.row(j)).map(|(x, y)| x * y).sum();
            assert!((c.get(i, j) - dot).abs() < 2e-2, "({i},{j})");
        }
    }
}
