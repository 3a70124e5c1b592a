//! Full (dense) attention — Equation (1), the baseline of every experiment.

use crate::mechanism::{check_qkv, check_qkv_batched, check_qkv_rows, Attention};
use dfss_kernels::{rowtile, GpuCtx};
use dfss_tensor::{BatchedMatrix, Matrix, Scalar};

/// `O = softmax(QKᵀ/√d) · V`, all dense.
#[derive(Clone, Copy, Debug, Default)]
pub struct FullAttention;

impl<T: Scalar> Attention<T> for FullAttention {
    fn name(&self) -> String {
        format!("Transformer ({})", T::NAME)
    }

    /// `q` may be any `c` query rows: the dense pipeline runs on the
    /// rectangular `c × n` score panel.
    fn forward(&self, ctx: &mut GpuCtx, q: &Matrix<T>, k: &Matrix<T>, v: &Matrix<T>) -> Matrix<T> {
        let (c, n, d) = check_qkv_rows(q, k, v);
        let scale = <Self as Attention<T>>::scale_for(self, d);
        // On the device the dense c×n score matrix and its softmax are
        // materialised — the allocations Dfss avoids (§3.4). The host runs
        // the row-tile driver, which holds one tile's scores at a time.
        let scores_id = ctx.mem.alloc("scores_dense", (c * n * T::BYTES) as u64);
        let weights_id = ctx.mem.alloc("weights_dense", (c * n * T::BYTES) as u64);
        let out = rowtile::attend(ctx, None, q, k, v, scale);
        ctx.mem.free(scores_id);
        ctx.mem.free(weights_id);
        out
    }

    /// Natively batched dense pipeline: the GEMM / softmax / GEMM launches
    /// for the whole B×H stack, each charging `batch ×` the per-head cost
    /// in a single profile, executed by the row-tile driver. Bit-identical
    /// to a per-head loop.
    fn forward_batched(
        &self,
        ctx: &mut GpuCtx,
        q: &BatchedMatrix<T>,
        k: &BatchedMatrix<T>,
        v: &BatchedMatrix<T>,
    ) -> BatchedMatrix<T> {
        let (batch, n, d) = check_qkv_batched(q, k, v);
        let scale = <Self as Attention<T>>::scale_for(self, d);
        // On the device every panel's dense n×n scores are live at once in
        // the batched launch — the footprint Dfss's compressed stack avoids.
        let scores_id = ctx
            .mem
            .alloc("scores_dense", (batch * n * n * T::BYTES) as u64);
        let weights_id = ctx
            .mem
            .alloc("weights_dense", (batch * n * n * T::BYTES) as u64);
        let out = rowtile::attend_batched(ctx, None, q, k, v, scale);
        ctx.mem.free(scores_id);
        ctx.mem.free(weights_id);
        out
    }

    /// Dense scores are row-separable: a chunk of query rows runs the same
    /// row-tile driver with the same serial-k accumulation per element, so
    /// chunk outputs stack bit-identically to a whole-Q forward.
    fn supports_row_chunking(&self) -> bool {
        true
    }
}

/// Reference attention computed with naive host math (no simulator, no
/// optimised kernels) — the oracle used by tests across the workspace.
pub fn reference_attention(q: &Matrix<f32>, k: &Matrix<f32>, v: &Matrix<f32>) -> Matrix<f32> {
    let (n, d) = check_qkv(q, k, v);
    let scale = 1.0 / (d as f32).sqrt();
    let mut scores = q.matmul_ref(&k.transpose());
    for r in 0..n {
        let row = scores.row_mut(r);
        row.iter_mut().for_each(|x| *x *= scale);
        dfss_tensor::math::softmax_row(row);
    }
    scores.matmul_ref(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfss_gpusim::Stage;
    use dfss_tensor::Rng;

    #[test]
    fn matches_reference() {
        let mut rng = Rng::new(1);
        let q = Matrix::<f32>::random_normal(32, 16, 0.0, 1.0, &mut rng);
        let k = Matrix::<f32>::random_normal(32, 16, 0.0, 1.0, &mut rng);
        let v = Matrix::<f32>::random_normal(32, 16, 0.0, 1.0, &mut rng);
        let mut ctx = GpuCtx::a100();
        let out = FullAttention.forward(&mut ctx, &q, &k, &v);
        let reference = reference_attention(&q, &k, &v);
        assert!(out.max_abs_diff(&reference) < 1e-2);
    }

    #[test]
    fn records_three_stages() {
        let mut rng = Rng::new(2);
        let q = Matrix::<f32>::random_normal(64, 16, 0.0, 1.0, &mut rng);
        let k = q.clone();
        let v = q.clone();
        let mut ctx = GpuCtx::a100();
        let _ = FullAttention.forward(&mut ctx, &q, &k, &v);
        for stage in [Stage::Qk, Stage::Softmax, Stage::Av] {
            assert!(ctx.timeline.stage_bytes(stage) > 0, "{stage:?}");
        }
        assert_eq!(ctx.timeline.stage_bytes(Stage::Overhead), 0);
    }

    #[test]
    fn peak_memory_includes_dense_scores() {
        let n = 128;
        let mut rng = Rng::new(3);
        let q = Matrix::<f32>::random_normal(n, 16, 0.0, 1.0, &mut rng);
        let mut ctx = GpuCtx::a100();
        let _ = FullAttention.forward(&mut ctx, &q, &q.clone(), &q.clone());
        // scores + weights live simultaneously at the softmax step.
        assert_eq!(ctx.mem.peak(), 2 * (n * n * 4) as u64);
        assert_eq!(ctx.mem.current(), 0);
    }

    #[test]
    fn zero_softmax_weight_keeps_an_inf_value_row_out() {
        // Key 1 scores ~500 below key 0 in every row, so its softmax weight
        // is exactly 0.0 and the AV stage skips its term: a +Inf V row there
        // must not turn the output into NaN (0 · Inf).
        let (n, d) = (37, 8);
        let mut rng = Rng::new(5);
        let mut q = Matrix::<f32>::random_normal(n, d, 0.0, 0.1, &mut rng);
        let mut k = Matrix::<f32>::random_normal(n, d, 0.0, 0.1, &mut rng);
        for i in 0..n {
            q.set(i, 0, 10.0);
        }
        k.set(0, 0, 50.0);
        k.set(1, 0, -50.0);
        let v_zero = {
            let mut v = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
            (0..d).for_each(|c| v.set(1, c, 0.0));
            v
        };
        let mut v_inf = v_zero.clone();
        (0..d).for_each(|c| v_inf.set(1, c, f32::INFINITY));
        let got = FullAttention.forward(&mut GpuCtx::a100(), &q, &k, &v_inf);
        let want = FullAttention.forward(&mut GpuCtx::a100(), &q, &k, &v_zero);
        assert!(got.as_slice().iter().all(|x| x.is_finite()));
        let bits = |m: &Matrix<f32>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn output_rows_are_convex_combinations() {
        // Each output row is a softmax-weighted average of V rows, so it
        // must lie inside V's per-column min/max envelope.
        let mut rng = Rng::new(4);
        let q = Matrix::<f32>::random_normal(16, 8, 0.0, 1.0, &mut rng);
        let k = Matrix::<f32>::random_normal(16, 8, 0.0, 1.0, &mut rng);
        let v = Matrix::<f32>::random_normal(16, 8, 0.0, 1.0, &mut rng);
        let mut ctx = GpuCtx::a100();
        let out = FullAttention.forward(&mut ctx, &q, &k, &v);
        for c in 0..8 {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for r in 0..16 {
                lo = lo.min(v.get(r, c));
                hi = hi.max(v.get(r, c));
            }
            for r in 0..16 {
                let x = out.get(r, c);
                assert!(x >= lo - 1e-4 && x <= hi + 1e-4, "({r},{c})");
            }
        }
    }
}
