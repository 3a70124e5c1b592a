//! Sparse-pattern baselines: explicit top-k and fixed sparsity.
//!
//! These are the comparison points of §4.3–4.4 and Figures 11–13:
//! * **Top-k** keeps the k largest scores per row — the quality upper bound,
//!   but it must compute the full dense QKᵀ first, run an expensive
//!   selection, encode CSR, and then execute a reuse-poor SpMM.
//! * **Fixed** sparsity is GPU-friendly (the pattern is known offline; we
//!   use the paper's Figure 11 instantiation, truncating the key range to
//!   the first `s·n` columns) but its mask is data-oblivious, so its quality
//!   is only `s` (Prop 4.2).
//!
//! Table 4's Local and BigBird rows train the transformer's own masked
//! attention (`dfss_transformer::AttnKind`), not a mechanism here.

use crate::mechanism::{check_qkv, Attention};
use dfss_gpusim::Stage;
use dfss_kernels::{gemm, softmax, spmm, topk, GpuCtx};
use dfss_tensor::{Matrix, Scalar};

/// Explicit top-k sparse attention (Zhao et al. 2019 style).
#[derive(Clone, Copy, Debug)]
pub struct TopKAttention {
    /// Kept entries per row.
    pub k: usize,
}

impl TopKAttention {
    pub fn new(k: usize) -> TopKAttention {
        TopKAttention { k }
    }

    /// k chosen to hit a target density `s = k/n` at sequence length `n`.
    pub fn with_density(n: usize, s: f64) -> TopKAttention {
        TopKAttention {
            k: ((n as f64 * s).round() as usize).max(1),
        }
    }
}

impl<T: Scalar> Attention<T> for TopKAttention {
    fn name(&self) -> String {
        format!("Top-{} ({})", self.k, T::NAME)
    }

    fn forward(&self, ctx: &mut GpuCtx, q: &Matrix<T>, k: &Matrix<T>, v: &Matrix<T>) -> Matrix<T> {
        let (n, d) = check_qkv(q, k, v);
        let scale = 1.0 / (d as f32).sqrt();
        // Full dense scores are unavoidable — selection needs them all.
        let scores_id = ctx
            .mem
            .alloc("scores_dense_topk", (n * n * T::BYTES) as u64);
        let scores = gemm::gemm_nt(ctx, Stage::Qk, q, k, scale);
        let mut csr = topk::topk_csr(ctx, &scores, self.k);
        ctx.mem.free(scores_id);
        let csr_id = ctx.mem.alloc("csr_topk", csr.bytes() as u64);
        softmax::softmax_csr(ctx, &mut csr);
        let out = spmm::spmm_csr(ctx, &csr, v);
        ctx.mem.free(csr_id);
        out
    }
}

/// Fixed sparsity as instantiated for Figure 11: attend only to the first
/// `⌈s·n⌉` keys ("simply truncate the number of columns of the attention
/// weight matrix based on the density"). The pattern is known offline, so it
/// pays no selection overhead — but it is data-oblivious.
#[derive(Clone, Copy, Debug)]
pub struct FixedColumnsAttention {
    pub density: f64,
}

impl FixedColumnsAttention {
    pub fn new(density: f64) -> FixedColumnsAttention {
        assert!(density > 0.0 && density <= 1.0);
        FixedColumnsAttention { density }
    }
}

impl<T: Scalar> Attention<T> for FixedColumnsAttention {
    fn name(&self) -> String {
        format!("Fixed s={} ({})", self.density, T::NAME)
    }

    fn forward(&self, ctx: &mut GpuCtx, q: &Matrix<T>, k: &Matrix<T>, v: &Matrix<T>) -> Matrix<T> {
        let (n, d) = check_qkv(q, k, v);
        let scale = 1.0 / (d as f32).sqrt();
        let keep = ((n as f64 * self.density).ceil() as usize).clamp(1, n);
        let k_kept = k.take_rows(0, keep);
        let v_kept = v.take_rows(0, keep);
        let scores_id = ctx.mem.alloc("scores_fixed", (n * keep * T::BYTES) as u64);
        let scores = gemm::gemm_nt(ctx, Stage::Qk, q, &k_kept, scale);
        let weights = softmax::softmax_dense(ctx, &scores);
        let out = gemm::gemm_nn(ctx, Stage::Av, &weights, &v_kept);
        ctx.mem.free(scores_id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::{reference_attention, FullAttention};
    use dfss_nmsparse::NmPattern;
    use dfss_tensor::{math, Rng};

    fn qkv(n: usize, d: usize, seed: u64) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
        let mut rng = Rng::new(seed);
        (
            Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
            Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
            Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
        )
    }

    #[test]
    fn topk_with_k_equal_n_matches_full() {
        let (q, k, v) = qkv(32, 8, 1);
        let mut ctx = GpuCtx::a100();
        let out = TopKAttention::new(32).forward(&mut ctx, &q, &k, &v);
        let reference = reference_attention(&q, &k, &v);
        assert!(out.max_abs_diff(&reference) < 1e-2);
    }

    #[test]
    fn topk_records_overhead_stage() {
        let (q, k, v) = qkv(64, 16, 2);
        let mut ctx = GpuCtx::a100();
        let _ = TopKAttention::new(8).forward(&mut ctx, &q, &k, &v);
        assert!(ctx.timeline.stage_latency(Stage::Overhead, &ctx.dev) > 0.0);
    }

    #[test]
    fn topk_slower_than_dfss_at_same_density_on_sim() {
        // §4.4: at equal density 0.5, Dfss wins because top-k pays selection
        // + CSR + reuse-poor SpMM.
        let (q, k, v) = qkv(1024, 64, 3);
        let mut ct = GpuCtx::a100();
        let mut cd = GpuCtx::a100();
        let _ = TopKAttention::with_density(1024, 0.5).forward(&mut ct, &q, &k, &v);
        let _ = crate::DfssAttention::new(NmPattern::P1_2).forward(&mut cd, &q, &k, &v);
        assert!(ct.latency() > cd.latency());
    }

    #[test]
    fn fixed_density_one_matches_full() {
        let (q, k, v) = qkv(32, 8, 4);
        let mut ctx = GpuCtx::a100();
        let out = FixedColumnsAttention::new(1.0).forward(&mut ctx, &q, &k, &v);
        assert!(out.max_abs_diff(&reference_attention(&q, &k, &v)) < 1e-2);
    }

    #[test]
    fn fixed_truncation_uses_prefix_keys_only() {
        let (q, k, v) = qkv(32, 8, 5);
        let mut ctx = GpuCtx::a100();
        let out = FixedColumnsAttention::new(0.25).forward(&mut ctx, &q, &k, &v);
        let keep = 8;
        assert_eq!(out.shape(), (32, 8));
        // Direct check: output = softmax(q·k[0..8]ᵀ)·v[0..8].
        let scores = q.matmul_ref(&k.take_rows(0, keep).transpose());
        let mut w = scores.clone();
        for r in 0..32 {
            let row = w.row_mut(r);
            row.iter_mut().for_each(|x| *x *= 1.0 / (8.0f32).sqrt());
            math::softmax_row(row);
        }
        let expect = w.matmul_ref(&v.take_rows(0, keep));
        assert!(out.max_abs_diff(&expect) < 1e-2);
    }

    #[test]
    fn fixed_cheaper_than_full_on_sim() {
        let (q, k, v) = qkv(512, 64, 6);
        let mut cf = GpuCtx::a100();
        let mut cx = GpuCtx::a100();
        let _ = FullAttention.forward(&mut cf, &q, &k, &v);
        let _ = FixedColumnsAttention::new(0.25).forward(&mut cx, &q, &k, &v);
        assert!(cx.latency() < cf.latency());
    }
}
