//! The row-tile attention driver: `softmax(prune(scale · Q·Kᵀ)) · V` with
//! every stage of a 16-row tile run back to back while its scores are in
//! cache.
//!
//! The staged pipeline — QK ([`gemm::gemm_nt`] or the fused N:M
//! [`sddmm::sddmm_nm_fused`]), softmax, AV — builds each stage's
//! whole-stack output before the next starts. Output row `i` of a
//! row-separable mechanism depends on score row `i` alone, so the driver
//! makes **one** pool fan-out over (panel, 16-row tile) work items and runs
//! each 4-row register tile through the staged kernels' own tile routines:
//! [`micro::panel_product`]; the N:M prune epilogue or the dense
//! `from_acc(x · scale)` store; the row softmax; [`simd::spmm_tile`] or
//! [`simd::nn_tile`] (zero-skip included). Q is widened, K packed and V
//! widened once per call; nothing larger than a tile lives between stages.
//!
//! Values round through `T` at the staged stage boundaries and the softmax
//! is the same exact three-phase one (no online rescaling), so outputs are
//! **bit-identical** to the three launches. The driver records their three
//! profiles through the same charge helpers, executes nothing in
//! charge-only mode, and never touches the
//! [`MemTracker`](dfss_gpusim::MemTracker).

use crate::batched::{fan_out, ROW_TILE};
use crate::simd::{self, TILE_ROWS};
use crate::{gemm, micro, sddmm, softmax, spmm, GpuCtx};
use dfss_gpusim::Stage;
use dfss_nmsparse::NmPattern;
use dfss_tensor::{scratch_f32_stale, BatchedMatrix, Matrix, Scalar};

/// One call's shape: `(batch, rows, cols, d, d_v)` — `batch` panels of
/// `rows × d` queries against `cols × d` keys and `cols × d_v` values.
type Shape = (usize, usize, usize, usize, usize);

/// Solo attention of `q` (`rows × d`) against `k` (`cols × d`) and `v`
/// (`cols × d_v`); `rows` may differ from `cols` (a chunk of query rows).
/// `prune` picks the pipeline: `None` is dense (`gemm_nt` → `softmax_dense`
/// → `gemm_nn`), `Some(pattern)` is fused N:M (`sddmm_nm_fused` →
/// `softmax_nm` → `spmm_nm`). The one-panel case of [`attend_batched`].
pub fn attend<T: Scalar>(
    ctx: &mut GpuCtx,
    prune: Option<NmPattern>,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    scale: f32,
) -> Matrix<T> {
    let shape = (1, q.rows(), k.rows(), q.cols(), v.cols());
    check_and_record::<T>(ctx, prune, shape, k.cols(), v.rows());
    if !ctx.exec {
        return Matrix::zeros(q.rows(), v.cols());
    }
    let (qs, ks, vs) = (q.as_slice(), k.as_slice(), v.as_slice());
    Matrix::from_vec(q.rows(), v.cols(), exec(prune, shape, qs, ks, vs, scale))
}

/// [`attend`] over a whole B×H stack: panel `p` of `q` against panel `p` of
/// `k` and `v`, one pool fan-out, one profile per staged op of exactly
/// `batch ×` its per-panel charge.
pub fn attend_batched<T: Scalar>(
    ctx: &mut GpuCtx,
    prune: Option<NmPattern>,
    q: &BatchedMatrix<T>,
    k: &BatchedMatrix<T>,
    v: &BatchedMatrix<T>,
    scale: f32,
) -> BatchedMatrix<T> {
    let (batch, rows, d) = q.shape();
    assert_eq!(k.batch(), batch, "batch sizes differ");
    assert_eq!(v.batch(), batch, "batch sizes differ");
    let shape = (batch, rows, k.rows(), d, v.cols());
    check_and_record::<T>(ctx, prune, shape, k.cols(), v.rows());
    if !ctx.exec {
        return BatchedMatrix::charge_only(batch, rows, v.cols());
    }
    let (qs, ks, vs) = (q.as_slice(), k.as_slice(), v.as_slice());
    let out = exec(prune, shape, qs, ks, vs, scale);
    BatchedMatrix::from_vec(batch, rows, v.cols(), out)
}

/// Validate K's width and V's height against the shape, then record the
/// staged pipeline's three profiles in launch order.
fn check_and_record<T: Scalar>(
    ctx: &mut GpuCtx,
    prune: Option<NmPattern>,
    (batch, rows, cols, d, d_v): Shape,
    k_cols: usize,
    v_rows: usize,
) {
    assert_eq!(d, k_cols, "inner dimensions differ: {d} vs {k_cols}");
    assert_eq!(cols, v_rows, "V rows {v_rows} != key count {cols}");
    match prune {
        None => {
            gemm::record_gemm_batched::<T>(ctx, "gemm_nt", Stage::Qk, batch, rows, cols, d);
            softmax::record_softmax_batched::<T>(ctx, "softmax_dense", batch, rows, cols);
            gemm::record_gemm_batched::<T>(ctx, "gemm_nn", Stage::Av, batch, rows, d_v, cols);
        }
        Some(pattern) => {
            let kept = pattern.kept_per_row(cols);
            sddmm::record_fused::<T>(ctx, pattern, batch, rows, cols, d);
            softmax::record_softmax_batched::<T>(ctx, "softmax_nm", batch, rows, kept);
            spmm::record_spmm_nm::<T>(ctx, pattern, batch, rows, cols, d_v);
        }
    }
}

/// The driver's exec body: one fan-out over (panel, [`ROW_TILE`]-row tile)
/// work items writing straight into the stacked output. Each work item runs
/// its rows as 4-row register tiles through every stage in turn.
fn exec<T: Scalar>(
    prune: Option<NmPattern>,
    (batch, rows, cols, d, d_v): Shape,
    q: &[T],
    k: &[T],
    v: &[T],
    scale: f32,
) -> Vec<T> {
    let qw = micro::widen(q);
    let kp = micro::widen_packed(k, batch, cols, d);
    let ppl = micro::packed_len(cols, d);
    let vw = micro::widen(v);
    // A tile's T values between stages: one dense weight row, or the
    // register tile's kept scores (with their codes).
    let (vals_len, codes_len) = match prune {
        None => (cols, 0),
        Some(pattern) => (
            TILE_ROWS * pattern.kept_per_row(cols),
            TILE_ROWS * (cols / pattern.m()),
        ),
    };
    let mut out = vec![T::zero(); batch * rows * d_v];
    fan_out(&mut out, rows * d_v, ROW_TILE * d_v, |p, e0, chunk| {
        let qw_p = &qw[p * rows * d..(p + 1) * rows * d];
        let kp_p = &kp[p * ppl..(p + 1) * ppl];
        let vw_p = &vw[p * cols * d_v..(p + 1) * cols * d_v];
        let mut acc = scratch_f32_stale(TILE_ROWS * cols);
        let mut vals = vec![T::zero(); vals_len];
        let mut codes = vec![0u8; codes_len];
        for (t, orows) in chunk.chunks_mut(TILE_ROWS * d_v).enumerate() {
            let (i0, rcnt) = (e0 / d_v + t * TILE_ROWS, orows.len() / d_v);
            micro::panel_product(qw_p, i0, rcnt, d, kp_p, cols, &mut acc);
            let scores = &mut acc[..rcnt * cols];
            match prune {
                None => dense_stages(scores, cols, scale, &mut vals, vw_p, d_v, orows),
                Some(pattern) => nm_stages(
                    pattern, scores, cols, scale, &mut vals, &mut codes, vw_p, d_v, orows,
                ),
            }
        }
    });
    out
}

/// Dense stages of one register tile's `rcnt × cols` raw scores: each row
/// is stored through `T` as `from_acc(x · scale)` (the `gemm_nt` store)
/// into `weights`, normalised by `softmax_into` (the `softmax_dense` row)
/// and widened into the tile's AV operand, which `nn_tile` (the `gemm_nn`
/// tile, zero-skip included) multiplies by the panel's widened V into the
/// tile's `rcnt × d_v` output rows.
fn dense_stages<T: Scalar>(
    scores: &mut [f32],
    cols: usize,
    scale: f32,
    weights: &mut [T],
    vw_p: &[f32],
    d_v: usize,
    out: &mut [T],
) {
    let mut aw = scratch_f32_stale(scores.len());
    for (row, aw_row) in scores
        .chunks_exact_mut(cols.max(1))
        .zip(aw.chunks_exact_mut(cols.max(1)))
    {
        for (w, &x) in weights.iter_mut().zip(row.iter()) {
            *w = T::from_acc(x * scale);
        }
        // The row's accumulators are spent: they are the softmax scratch.
        softmax::softmax_into(weights, row);
        for (a, w) in aw_row.iter_mut().zip(weights.iter()) {
            *a = w.to_mul();
        }
    }
    simd::nn_tile(simd::active(), out.len() / d_v, &aw, vw_p, d_v, out);
}

/// N:M stages of one register tile's `rcnt × cols` raw scores:
/// `prune_rows_dispatch` (the fused SDDMM's epilogue) keeps `from_acc(x ·
/// scale)` of the selected scores with their codes, `softmax_into`
/// normalises each row's kept values (the `softmax_nm` row), and
/// `spmm_tile` (the `spmm_nm` tile) multiplies them by the panel's widened
/// V into the tile's `rcnt × d_v` output rows.
fn nm_stages<T: Scalar>(
    pattern: NmPattern,
    scores: &mut [f32],
    cols: usize,
    scale: f32,
    nz: &mut [T],
    codes: &mut [u8],
    vw_p: &[f32],
    d_v: usize,
    out: &mut [T],
) {
    let rcnt = out.len() / d_v;
    let kept = pattern.kept_per_row(cols);
    let nz = &mut nz[..rcnt * kept];
    let codes = &mut codes[..rcnt * (cols / pattern.m())];
    sddmm::prune_rows_dispatch(pattern, scores, scale, nz, codes);
    for (row, buf) in nz
        .chunks_exact_mut(kept.max(1))
        .zip(scores.chunks_exact_mut(cols.max(1)))
    {
        // The row's accumulators are spent: they are the softmax scratch.
        softmax::softmax_into(row, buf);
    }
    simd::spmm_tile(simd::active(), pattern, rcnt, nz, codes, vw_p, d_v, out);
}
