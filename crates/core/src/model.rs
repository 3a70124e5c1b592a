//! Simulated end-to-end transformer inference (Appendix A.6).
//!
//! Figures 14–16 measure a 4-layer encoder (the LRA Text model): per-head
//! attention plus the "Others" — QKV/output projections, the feed-forward
//! network and layer norms. This module executes one inference pass of that
//! encoder on the simulated device, with the attention mechanism pluggable,
//! so a single run yields end-to-end latency, the attention-vs-others
//! breakdown, and peak memory.

use crate::mechanism::Attention;
use dfss_gpusim::{KernelProfile, Stage};
use dfss_kernels::{gemm, GpuCtx};
use dfss_tensor::{BatchedMatrix, Matrix, Rng, Scalar};

/// End-to-end model shape (defaults follow the paper's A.6 configuration:
/// 4 layers, head dim 64).
#[derive(Clone, Copy, Debug)]
pub struct SimModelConfig {
    pub layers: usize,
    pub heads: usize,
    pub d_head: usize,
    /// Hidden dimension of the feed-forward layer.
    pub d_ffn: usize,
    pub seq_len: usize,
}

impl SimModelConfig {
    pub fn lra_text(heads: usize, d_ffn: usize, seq_len: usize) -> SimModelConfig {
        SimModelConfig {
            layers: 4,
            heads,
            d_head: 64,
            d_ffn,
            seq_len,
        }
    }

    pub fn d_model(&self) -> usize {
        self.heads * self.d_head
    }
}

/// Execute one encoder inference pass on the simulated device. Returns the
/// final hidden states (numerics are real; the interesting outputs are in
/// `ctx.timeline` / `ctx.mem`).
///
/// Multi-head attention splits every layer's heads into one contiguous
/// stack and runs one [`Attention::forward_batched`] over it — one batched
/// launch per op across the head grid (A.1.2) — on the same `ctx` as the
/// non-attention kernels, so the timeline stays in program order.
pub fn simulate_encoder<T: Scalar>(
    ctx: &mut GpuCtx,
    cfg: &SimModelConfig,
    mech: &dyn Attention<T>,
    seed: u64,
) -> Matrix<T> {
    let n = cfg.seq_len;
    let dm = cfg.d_model();
    let mut rng = Rng::new(seed);

    let mut x: Matrix<T> = Matrix::random_normal(n, dm, 0.0, 1.0, &mut rng);
    let x_id = ctx.mem.alloc("activations", (n * dm * T::BYTES) as u64);

    // Static weights live for the whole pass.
    let wq: Matrix<T> = Matrix::random_normal(dm, dm, 0.0, 0.05, &mut rng);
    let wk: Matrix<T> = Matrix::random_normal(dm, dm, 0.0, 0.05, &mut rng);
    let wv: Matrix<T> = Matrix::random_normal(dm, dm, 0.0, 0.05, &mut rng);
    let wo: Matrix<T> = Matrix::random_normal(dm, dm, 0.0, 0.05, &mut rng);
    let w1: Matrix<T> = Matrix::random_normal(dm, cfg.d_ffn, 0.0, 0.05, &mut rng);
    let w2: Matrix<T> = Matrix::random_normal(cfg.d_ffn, dm, 0.0, 0.05, &mut rng);
    let weights_bytes = ((4 * dm * dm + 2 * dm * cfg.d_ffn) * T::BYTES) as u64;
    let w_id = ctx.mem.alloc("weights", weights_bytes);

    for _layer in 0..cfg.layers {
        // QKV projections (Others).
        let qkv_id = ctx.mem.alloc("qkv", (3 * n * dm * T::BYTES) as u64);
        let q = gemm::gemm_nn(ctx, Stage::NonAttention, &x, &wq);
        let k = gemm::gemm_nn(ctx, Stage::NonAttention, &x, &wk);
        let v = gemm::gemm_nn(ctx, Stage::NonAttention, &x, &wv);

        // Batched multi-head attention: head panels are split once into a
        // contiguous stack and run as one launch per op for the whole head
        // grid. Natively batched mechanisms (Dfss, dense) charge one
        // profile per kernel, the rest run per head with their launches
        // collapsed by the default `forward_batched`.
        let qh = BatchedMatrix::split_heads(&q, cfg.heads);
        let kh = BatchedMatrix::split_heads(&k, cfg.heads);
        let vh = BatchedMatrix::split_heads(&v, cfg.heads);
        let ob = mech.forward_batched(ctx, &qh, &kh, &vh);
        let concat: Matrix<T> = if ob.is_materialized() {
            ob.merge_heads()
        } else {
            // Charge-only placeholder outputs leave a zero concat in place
            // — downstream kernels skip the numeric work anyway.
            Matrix::zeros(n, dm)
        };
        // Output projection (Others).
        let attn_out = gemm::gemm_nn(ctx, Stage::NonAttention, &concat, &wo);
        ctx.mem.free(qkv_id);

        // Residual + LayerNorm (Others, element-wise).
        ctx.record(
            KernelProfile::new("residual_ln", Stage::NonAttention)
                .with_traffic((2 * n * dm * T::BYTES) as u64, (n * dm * T::BYTES) as u64)
                .with_alu((n * dm * 8) as u64),
        );
        let mut h1 = x.clone();
        for (a, &b) in h1.as_mut_slice().iter_mut().zip(attn_out.as_slice()) {
            *a = T::from_acc(a.to_acc() + b.to_acc());
        }

        // FFN (Others): two GEMMs + GELU.
        let ffn_id = ctx
            .mem
            .alloc("ffn_hidden", (n * cfg.d_ffn * T::BYTES) as u64);
        let mid = gemm::gemm_nn(ctx, Stage::NonAttention, &h1, &w1);
        ctx.record(
            KernelProfile::new("gelu", Stage::NonAttention)
                .with_traffic(
                    (n * cfg.d_ffn * T::BYTES) as u64,
                    (n * cfg.d_ffn * T::BYTES) as u64,
                )
                .with_alu((n * cfg.d_ffn * 8) as u64),
        );
        let mid = mid.map(|v| T::from_f32(dfss_tensor::math::gelu(v.to_f32())));
        let ffn_out = gemm::gemm_nn(ctx, Stage::NonAttention, &mid, &w2);
        ctx.mem.free(ffn_id);
        ctx.record(
            KernelProfile::new("residual_ln", Stage::NonAttention)
                .with_traffic((2 * n * dm * T::BYTES) as u64, (n * dm * T::BYTES) as u64)
                .with_alu((n * dm * 8) as u64),
        );
        let mut h2 = h1;
        for (a, &b) in h2.as_mut_slice().iter_mut().zip(ffn_out.as_slice()) {
            *a = T::from_acc(a.to_acc() + b.to_acc());
        }
        x = h2;
    }
    ctx.mem.free(w_id);
    ctx.mem.free(x_id);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfss::DfssAttention;
    use crate::full::FullAttention;
    use dfss_nmsparse::NmPattern;

    #[test]
    fn encoder_runs_and_records_both_categories() {
        let cfg = SimModelConfig::lra_text(4, 256, 128);
        let mut ctx = GpuCtx::a100();
        let out = simulate_encoder::<f32>(&mut ctx, &cfg, &FullAttention, 1);
        assert_eq!(out.shape(), (128, 256));
        let attn: f64 = [Stage::Qk, Stage::Softmax, Stage::Av, Stage::Overhead]
            .iter()
            .map(|&s| ctx.timeline.stage_latency(s, &ctx.dev))
            .sum();
        let others = ctx.timeline.stage_latency(Stage::NonAttention, &ctx.dev);
        assert!(attn > 0.0 && others > 0.0);
    }

    #[test]
    fn dfss_gives_end_to_end_speedup_at_long_seq() {
        let cfg = SimModelConfig::lra_text(4, 256, 1024);
        let mut cd = GpuCtx::a100();
        let _ = simulate_encoder::<f32>(&mut cd, &cfg, &FullAttention, 1);
        let mut cs = GpuCtx::a100();
        let _ = simulate_encoder::<f32>(&mut cs, &cfg, &DfssAttention::new(NmPattern::P1_2), 1);
        let speedup = cd.latency() / cs.latency();
        // Paper A.6: 1.08–1.52× end-to-end.
        assert!(speedup > 1.02 && speedup < 1.6, "e2e speedup {speedup}");
    }

    #[test]
    fn others_dominate_at_short_seq() {
        // Paper: at seq ≤ 1024 "Others" is over ~70% of latency.
        let cfg = SimModelConfig::lra_text(4, 1024, 512);
        let mut ctx = GpuCtx::a100();
        let _ = simulate_encoder::<f32>(&mut ctx, &cfg, &FullAttention, 2);
        let others = ctx.timeline.stage_latency(Stage::NonAttention, &ctx.dev);
        let total = ctx.latency();
        assert!(others / total > 0.5, "others fraction {}", others / total);
    }

    #[test]
    fn peak_memory_lower_with_dfss() {
        let cfg = SimModelConfig::lra_text(4, 256, 1024);
        let mut cd = GpuCtx::a100();
        let _ = simulate_encoder::<f32>(&mut cd, &cfg, &FullAttention, 1);
        let mut cs = GpuCtx::a100();
        let _ = simulate_encoder::<f32>(&mut cs, &cfg, &DfssAttention::new(NmPattern::P1_2), 1);
        assert!(cs.mem.peak() < cd.mem.peak());
    }
}
