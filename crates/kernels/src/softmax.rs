//! Softmax kernels (Appendix A.1.3).
//!
//! All variants use the numerically stable three-phase scheme of Equation
//! (10) (max, exp-sum, normalise). The *traffic* model distinguishes the
//! register-cached implementation (row fits in fast memory → the scores are
//! read once) from the streaming one (three read passes). Dfss halves the
//! row length, which can move a row from the streaming to the cached regime
//! — the paper's explanation for its better-than-theoretical speedup
//! (Appendix A.4).

use crate::batched::ROW_TILE;
use crate::GpuCtx;
use dfss_gpusim::{KernelProfile, Stage};
use dfss_nmsparse::{Csr, NmCompressed, NmRagged};
use dfss_tensor::{BatchedMatrix, Matrix, Scalar};
use rayon::prelude::*;

/// ALU ops per element: exp ≈ 4, plus max/sum/normalise passes ≈ 2.
const OPS_PER_ELEM: u64 = 6;

/// One batched launch covering `batch` same-shape softmaxes: a single
/// profile of exactly `batch ×` the per-panel charge (the cache-regime pass
/// count depends only on `row_len` and is computed once per launch).
pub(crate) fn record_softmax_batched<T: Scalar>(
    ctx: &mut GpuCtx,
    name: &'static str,
    batch: usize,
    rows: usize,
    row_len: usize,
) {
    let passes = ctx.dev.softmax_read_passes(row_len);
    let elems = (batch * rows * row_len) as u64;
    ctx.record(
        KernelProfile::new(name, Stage::Softmax)
            .with_traffic(passes * elems * T::BYTES as u64, elems * T::BYTES as u64)
            .with_alu(elems * OPS_PER_ELEM),
    );
}

/// Stable softmax of one row in place through a caller-provided f32 scratch
/// slice (`buf.len() >= row.len()`): vectorizable widening copy, the
/// dispatched lane-blocked max and exp pass, and the normalising multiply
/// fused into the narrowing write-back — one fewer pass over the row than
/// the textbook four. The result is bit-identical to
/// [`dfss_tensor::math::softmax_row`] on every backend: the exp pass is
/// bitwise its reference, and the max may regroup lanes because `f32::max`
/// is associative, commutative and NaN-ignoring — its one order-sensitive
/// case, a `±0.0` tie for the maximum, is invisible downstream because
/// `x - -0.0` and `x - 0.0` differ only for `x = ±0.0`, whose exp is `1`
/// either way.
pub(crate) fn softmax_into<T: Scalar>(row: &mut [T], buf: &mut [f32]) {
    let buf = &mut buf[..row.len()];
    for (b, v) in buf.iter_mut().zip(row.iter()) {
        *b = v.to_f32();
    }
    let backend = crate::simd::active();
    let inv = backend.softmax_exp_pass(buf, backend.row_max(buf));
    for (dst, &v) in row.iter_mut().zip(buf.iter()) {
        *dst = T::from_f32(v * inv);
    }
}

/// Row-batched parallel softmax over a flat `rows × row_len` buffer: one
/// pool work item (and one scratch acquisition) per [`ROW_TILE`] rows.
fn softmax_rows<T: Scalar>(data: &mut [T], row_len: usize) {
    if row_len == 0 {
        return;
    }
    data.par_chunks_mut(row_len * ROW_TILE).for_each(|chunk| {
        // Stale scratch: `softmax_into`'s widening copy overwrites it.
        let mut buf = dfss_tensor::scratch_f32_stale(row_len);
        for row in chunk.chunks_mut(row_len) {
            softmax_into(row, &mut buf);
        }
    });
}

/// Dense row-wise softmax: `A = softmax(S)` over each length-n row.
pub fn softmax_dense<T: Scalar>(ctx: &mut GpuCtx, scores: &Matrix<T>) -> Matrix<T> {
    let (rows, cols) = scores.shape();
    record_softmax_batched::<T>(ctx, "softmax_dense", 1, rows, cols);
    if !ctx.exec {
        return scores.clone();
    }
    let mut out = scores.clone();
    softmax_rows(out.as_mut_slice(), cols);
    out
}

/// Compressed softmax: normalises the *nonzeros* of each row in place.
///
/// The kept entries are exactly the per-group maxima of the scores, so
/// normalising over them equals `softmax(m ⊙ S)` restricted to the kept
/// positions — the paper's sparse attention weights. Row length is halved
/// (N/M of dense), which is where the softmax-stage speedup in Figure 5
/// comes from.
pub fn softmax_nm<T: Scalar>(ctx: &mut GpuCtx, comp: &mut NmCompressed<T>) {
    let rows = comp.rows();
    let kept = comp.kept_per_row();
    record_softmax_batched::<T>(ctx, "softmax_nm", 1, rows, kept);
    if !ctx.exec {
        return;
    }
    softmax_rows(comp.nonzeros_mut(), kept);
}

/// Batched dense softmax: row-wise softmax over every panel of the stack in
/// **one launch** (single profile = `batch ×` the per-panel
/// [`softmax_dense`] charge; rows are independent, so the whole
/// batch × rows volume is one pool fan-out). Bit-identical to a per-panel
/// loop.
pub fn softmax_dense_batched<T: Scalar>(
    ctx: &mut GpuCtx,
    scores: &BatchedMatrix<T>,
) -> BatchedMatrix<T> {
    let (batch, rows, cols) = scores.shape();
    record_softmax_batched::<T>(ctx, "softmax_dense", batch, rows, cols);
    if !ctx.exec {
        return scores.clone();
    }
    let mut out = scores.clone();
    softmax_rows(out.as_mut_slice(), cols);
    out
}

/// Batched compressed softmax over a B×H stack's scores, one
/// [`NmCompressed`] of `batch · rows` rows: [`softmax_nm`] itself, whose
/// profile is linear in rows, so one launch charges exactly `batch ×` the
/// per-panel charge and is bit-identical to a per-panel loop.
pub use softmax_nm as softmax_nm_batched;

/// Ragged decode softmax: normalises every stream's kept score values
/// (full-group nonzeros + dense tail) in place, in **one launch** — a
/// single profile whose counters are the sum of the per-stream charges
/// (each stream's cache-regime pass count is computed from its own kept
/// length, so streams on different sides of the cached/streaming boundary
/// charge differently inside the same launch). With one stream this *is*
/// the solo decode softmax — the per-stream loop and the ragged launch run
/// the same per-row routine, so outputs are bit-identical either way.
pub fn softmax_nm_ragged<T: Scalar>(ctx: &mut GpuCtx, comp: &mut NmRagged<T>) {
    let (mut reads, mut writes, mut alu) = (0u64, 0u64, 0u64);
    for i in 0..comp.streams() {
        let kept = comp.kept_of(i) as u64;
        let passes = ctx.dev.softmax_read_passes(comp.kept_of(i));
        reads += passes * kept * T::BYTES as u64;
        writes += kept * T::BYTES as u64;
        alu += kept * OPS_PER_ELEM;
    }
    ctx.record(
        KernelProfile::new("softmax_nm_decode", Stage::Softmax)
            .with_traffic(reads, writes)
            .with_alu(alu),
    );
    if !ctx.exec {
        return;
    }
    comp.rows_mut().into_par_iter().for_each(|row| {
        if !row.is_empty() {
            let mut buf = dfss_tensor::scratch_f32_stale(row.len());
            softmax_into(row, &mut buf);
        }
    });
}

/// CSR softmax for the explicit top-k baseline: normalises each row's
/// stored values.
pub fn softmax_csr<T: Scalar>(ctx: &mut GpuCtx, csr: &mut Csr<T>) {
    let rows = csr.rows();
    let avg_len = if rows == 0 {
        0
    } else {
        csr.nnz() / rows.max(1)
    };
    record_softmax_batched::<T>(ctx, "softmax_csr", 1, rows, avg_len);
    if !ctx.exec {
        return;
    }
    for r in 0..rows {
        let row = csr.row_vals_mut(r);
        softmax_into(row, &mut dfss_tensor::scratch_f32_stale(row.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfss_nmsparse::NmPattern;
    use dfss_tensor::{math, Rng};

    #[test]
    fn dense_rows_sum_to_one() {
        let mut rng = Rng::new(1);
        let s = Matrix::<f32>::random_normal(16, 64, 0.0, 1.0, &mut rng);
        let mut ctx = GpuCtx::a100();
        let a = softmax_dense(&mut ctx, &s);
        for r in 0..16 {
            let sum: f32 = a.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r}: {sum}");
        }
    }

    #[test]
    fn nm_rows_sum_to_one() {
        let mut rng = Rng::new(2);
        let s = Matrix::<f32>::random_normal(16, 64, 0.0, 1.0, &mut rng);
        let mut comp = NmCompressed::compress(&s, NmPattern::P1_2);
        let mut ctx = GpuCtx::a100();
        softmax_nm(&mut ctx, &mut comp);
        for r in 0..16 {
            let sum: f32 = comp.row_nonzeros(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn nm_softmax_equals_masked_dense_softmax() {
        // softmax over kept entries == dense softmax of mask⊙S with -inf at
        // pruned slots, restricted to kept slots.
        let mut rng = Rng::new(3);
        let s = Matrix::<f32>::random_normal(8, 32, 0.0, 1.0, &mut rng);
        let pattern = NmPattern::P2_4;
        let mask = pattern.mask_matrix(&s);
        let mut comp = NmCompressed::compress(&s, pattern);
        let mut ctx = GpuCtx::a100();
        softmax_nm(&mut ctx, &mut comp);
        let sparse_a = comp.decompress();
        for r in 0..8 {
            let masked: Vec<f32> = (0..32)
                .map(|c| {
                    if mask.get(r, c) == 1.0 {
                        s.get(r, c)
                    } else {
                        f32::NEG_INFINITY
                    }
                })
                .collect();
            let expect = math::softmax(&masked);
            for c in 0..32 {
                assert!(
                    (sparse_a.get(r, c) - expect[c]).abs() < 1e-5,
                    "({r},{c}): {} vs {}",
                    sparse_a.get(r, c),
                    expect[c]
                );
            }
        }
    }

    #[test]
    fn csr_softmax_normalises() {
        let mut rng = Rng::new(4);
        let s = Matrix::<f32>::random_normal(8, 32, 0.0, 1.0, &mut rng);
        let mut csr = Csr::from_dense_topk(&s, 5);
        let mut ctx = GpuCtx::a100();
        softmax_csr(&mut ctx, &mut csr);
        for r in 0..8 {
            let (_, vals) = csr.row(r);
            let sum: f32 = vals.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn halved_rows_can_hit_cached_regime() {
        // Dense row of 4096 streams (3 read passes); Dfss row of 2048 is
        // cached (1 pass) — the super-theoretical speedup mechanism.
        let mut ctx = GpuCtx::a100();
        record_softmax_batched::<f32>(&mut ctx, "dense", 1, 1, 4096);
        record_softmax_batched::<f32>(&mut ctx, "nm", 1, 1, 2048);
        let e = ctx.timeline.entries();
        let dense_per_elem = e[0].bytes_read as f64 / 4096.0;
        let nm_per_elem = e[1].bytes_read as f64 / 2048.0;
        assert_eq!(dense_per_elem, 12.0); // 3 passes × 4B
        assert_eq!(nm_per_elem, 4.0); // 1 pass × 4B
    }

    #[test]
    fn bf16_softmax_stable() {
        use dfss_tensor::Bf16;
        let mut rng = Rng::new(5);
        let s = Matrix::<Bf16>::random_normal(4, 16, 0.0, 4.0, &mut rng);
        let mut ctx = GpuCtx::a100();
        let a = softmax_dense(&mut ctx, &s);
        for r in 0..4 {
            let sum: f32 = a.row(r).iter().map(|v| v.to_f32()).sum();
            assert!((sum - 1.0).abs() < 0.05, "bf16 row sum {sum}");
            assert!(a.row(r).iter().all(|v| !v.is_nan()));
        }
    }
}
