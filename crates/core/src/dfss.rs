//! **Dfss** — dynamic N:M fine-grained structured sparse attention (§3).
//!
//! The pipeline of Figure 2(B):
//! 1. fused SDDMM: `QKᵀ/√d` computed dense in tile accumulators, pruned to
//!    N:M in the epilogue, written as nonzeros + metadata (never as a dense
//!    n×n matrix);
//! 2. compressed softmax over the nonzeros (rows are N/M as long);
//! 3. SpMM with `V` on the simulated sparse tensor core.
//!
//! On the host [`DfssAttention`]'s prefill runs all three stages through
//! the row-tile driver ([`dfss_kernels::rowtile`]), charged as the three
//! launches above; `forward_with_weights` and decode run the staged
//! kernels. The unfused ablation (a separate prune kernel, what §2.3 says
//! existing libraries do) is a kernel-level comparison,
//! [`sddmm::sddmm_nm_unfused`], not a mechanism.
//!
//! The paper's kernel also supports hybrid blocked-ELL × N:M sparsity for
//! long sequences (A.1.2), and Figure 18 combines Dfss with BigBird and
//! Linformer. No figure or table here reproduces those, so neither is
//! built. A long-sequence figure would bring the hybrid back as a block
//! map over the row-tile driver's `panel_product` blocks, not as a
//! separate kernel family.

use crate::mechanism::{
    check_decode, check_decode_paged, check_qkv_batched, check_qkv_rows, Attention, KvViews,
    RequestError,
};
use dfss_kernels::{rowtile, sddmm, softmax, spmm, GpuCtx};
use dfss_nmsparse::{NmCompressed, NmPattern, NmRagged};
use dfss_tensor::{BatchedMatrix, Matrix, PagedPanel, Scalar};

/// The Dfss attention mechanism.
#[derive(Clone, Copy, Debug)]
pub struct DfssAttention {
    pattern: NmPattern,
}

impl DfssAttention {
    /// Dfss with the hardware pattern for the scalar type (1:2 for float,
    /// 2:4 for bf16) — the paper's default configuration.
    pub fn for_dtype<T: Scalar>() -> DfssAttention {
        DfssAttention::new(NmPattern::for_dtype::<T>())
    }

    /// Dfss with an explicit pattern.
    pub fn new(pattern: NmPattern) -> DfssAttention {
        DfssAttention { pattern }
    }

    pub fn pattern(&self) -> NmPattern {
        self.pattern
    }

    /// Device bytes of `rows` compressed score rows over `cols` keys:
    /// `rows·cols·N/M` values plus 4 bits of metadata per group.
    fn compressed_bytes<T: Scalar>(&self, rows: usize, cols: usize) -> u64 {
        let kept = rows * self.pattern.kept_per_row(cols);
        dfss_nmsparse::compressed_bytes::<T>(kept as u64, (rows * cols / self.pattern.m()) as u64)
    }

    /// Run the staged pipeline and also return the normalised sparse
    /// attention weights (`examples/quickstart.rs` reads them). `q` may be
    /// any `c` query rows, like [`forward`](Attention::forward), whose
    /// output bits, profiles and memory peak it shares.
    pub fn forward_with_weights<T: Scalar>(
        &self,
        ctx: &mut GpuCtx,
        q: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
    ) -> (Matrix<T>, NmCompressed<T>) {
        let (c, n, d) = check_qkv_rows(q, k, v);
        let scale = 1.0 / (d as f32).sqrt();
        let comp_id = ctx
            .mem
            .alloc("scores_nm_compressed", self.compressed_bytes::<T>(c, n));
        let mut comp = sddmm::sddmm_nm_fused(ctx, q, k, scale, self.pattern);
        softmax::softmax_nm(ctx, &mut comp);
        let out = spmm::spmm_nm(ctx, &comp, v);
        ctx.mem.free(comp_id);
        (out, comp)
    }

    /// The ragged decode pipeline over K/V views stored as `S` (the compute
    /// type itself, or bf16 widened on load). Every kernel is generic over
    /// the stored type, so both storage widths share this one body.
    fn decode_views<T: Scalar, S: Scalar>(
        &self,
        ctx: &mut GpuCtx,
        q: &Matrix<T>,
        k: &[PagedPanel<'_, S>],
        v: &[PagedPanel<'_, S>],
        d_v: usize,
    ) -> Matrix<T> {
        let scale = 1.0 / (q.cols() as f32).sqrt();
        // Every stream's compressed row lives simultaneously in the ragged
        // launch.
        let (mut kept, mut groups) = (0u64, 0u64);
        for view in k {
            kept += NmRagged::<T>::kept_for(self.pattern, view.len) as u64;
            groups += NmRagged::<T>::groups_for(self.pattern, view.len) as u64;
        }
        let comp_id = ctx.mem.alloc(
            "scores_nm_decode",
            dfss_nmsparse::compressed_bytes::<T>(kept, groups),
        );
        let mut comp = sddmm::sddmm_nm_fused_paged(ctx, q, k, scale, self.pattern);
        softmax::softmax_nm_ragged(ctx, &mut comp);
        let out = spmm::spmm_nm_paged(ctx, &comp, v, d_v);
        ctx.mem.free(comp_id);
        out
    }
}

impl<T: Scalar> Attention<T> for DfssAttention {
    fn name(&self) -> String {
        format!("Dfss {} ({})", self.pattern, T::NAME)
    }

    /// Runs on the row-tile driver, charged as the three staged launches.
    /// `q` may be any `c` query rows: each of the `c` score rows is pruned
    /// over its `n/M` groups exactly as in the whole-Q run (the prune
    /// epilogue never looks at the query row's global index), and the
    /// compressed softmax and SpMM are per-row too — so chunk outputs stack
    /// bit-identically to a whole-Q forward.
    fn forward(&self, ctx: &mut GpuCtx, q: &Matrix<T>, k: &Matrix<T>, v: &Matrix<T>) -> Matrix<T> {
        let (c, n, d) = check_qkv_rows(q, k, v);
        let scale = 1.0 / (d as f32).sqrt();
        let comp_id = ctx
            .mem
            .alloc("scores_nm_compressed", self.compressed_bytes::<T>(c, n));
        let out = rowtile::attend(ctx, Some(self.pattern), q, k, v, scale);
        ctx.mem.free(comp_id);
        out
    }

    /// Natively batched pipeline: the whole B×H stack runs through one
    /// fused-SDDMM launch, one compressed-softmax launch and one SpMM
    /// launch, each charging a single profile of exactly `batch ×` the
    /// per-head cost — executed by the row-tile driver. Outputs are
    /// bit-identical to a per-head loop.
    fn forward_batched(
        &self,
        ctx: &mut GpuCtx,
        q: &BatchedMatrix<T>,
        k: &BatchedMatrix<T>,
        v: &BatchedMatrix<T>,
    ) -> BatchedMatrix<T> {
        let (batch, n, d) = check_qkv_batched(q, k, v);
        let scale = 1.0 / (d as f32).sqrt();
        // On the device the compressed scores of the whole stack live
        // simultaneously: the batched launch's peak footprint is batch ×
        // the per-head one.
        let comp_id = ctx.mem.alloc(
            "scores_nm_compressed",
            self.compressed_bytes::<T>(batch * n, n),
        );
        let out = rowtile::attend_batched(ctx, Some(self.pattern), q, k, v, scale);
        ctx.mem.free(comp_id);
        out
    }

    /// The N:M prune, compressed softmax and SpMM are all per-score-row
    /// over the key columns, so chunked prefill stacks bit-identically.
    fn supports_row_chunking(&self) -> bool {
        true
    }

    /// Native decode step: the new score row is pruned N:M over its full
    /// M-groups with the trailing `len mod M` positions kept **dense** (the
    /// [`NmRagged`] format), so *any* cache length is servable — unlike
    /// prefill, decode has no alignment rule, and the most recently cached
    /// positions are never pruned until their group fills. Pipeline: fused
    /// decode SDDMM → compressed decode softmax → decode SpMM on the sparse
    /// tensor core, run as the one-stream case of
    /// [`decode_paged`](Self::decode_paged).
    fn decode(
        &self,
        ctx: &mut GpuCtx,
        q_row: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
    ) -> Matrix<T> {
        check_decode(q_row, k, v);
        let kv = KvViews::Native {
            k: vec![PagedPanel::one_page(k.as_slice(), k.rows())],
            v: vec![PagedPanel::one_page(v.as_slice(), v.rows())],
        };
        self.decode_paged(ctx, q_row, &kv, v.cols())
    }

    /// Natively ragged batched decode over the cache read in place: the
    /// whole stream batch runs through one fused decode-SDDMM launch, one
    /// compressed decode-softmax launch and one decode-SpMM launch, each
    /// charging a single profile equal to the sum of the per-stream
    /// [`decode`](Self::decode) charges. Outputs are bit-identical to the
    /// per-stream solo decode loop. A bf16-quantised cache streams through
    /// the decode microkernels at its stored 2-byte width (widened to f32
    /// in-register, see `dfss_kernels::simd`), halving decode cache
    /// traffic; because bf16 → f32 widening is exact and TF32 rounding keeps
    /// every bf16 mantissa bit, outputs are bitwise identical to widening
    /// the cache host-side and running the native pipeline.
    fn decode_paged(
        &self,
        ctx: &mut GpuCtx,
        q: &Matrix<T>,
        kv: &KvViews<'_, T>,
        d_v: usize,
    ) -> Matrix<T> {
        if check_decode_paged(q, kv, d_v) == 0 {
            return Matrix::zeros(0, d_v);
        }
        match kv {
            KvViews::Native { k, v } => self.decode_views(ctx, q, k, v, d_v),
            KvViews::Bf16 { k, v } => self.decode_views(ctx, q, k, v, d_v),
        }
    }

    /// The score matrix's rows (length `n`) are pruned in M-groups, so `n`
    /// must be a multiple of M.
    fn check_shape(&self, n: usize, _d: usize) -> Result<(), RequestError> {
        if n == 0 {
            return Err(RequestError::EmptyRequest);
        }
        if !n.is_multiple_of(self.pattern.m()) {
            return Err(RequestError::Unsupported {
                mechanism: Attention::<T>::name(self),
                reason: format!("n = {n} is not a multiple of M = {}", self.pattern.m()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::reference_attention;
    use dfss_gpusim::Stage;
    use dfss_kernels::gemm;
    use dfss_tensor::{Bf16, Rng};

    fn qkv(n: usize, d: usize, seed: u64) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
        let mut rng = Rng::new(seed);
        (
            Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
            Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
            Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
        )
    }

    /// Reference Dfss: dense scores, N:M mask, −∞ softmax, dense AV.
    fn reference_dfss(
        q: &Matrix<f32>,
        k: &Matrix<f32>,
        v: &Matrix<f32>,
        pattern: NmPattern,
    ) -> Matrix<f32> {
        let (n, d) = (q.rows(), q.cols());
        let scale = 1.0 / (d as f32).sqrt();
        let mut scores = q.matmul_ref(&k.transpose());
        for r in 0..n {
            scores.row_mut(r).iter_mut().for_each(|x| *x *= scale);
        }
        let mask = pattern.mask_matrix(&scores);
        for r in 0..n {
            let row = scores.row_mut(r);
            for (c, x) in row.iter_mut().enumerate() {
                if mask.get(r, c) == 0.0 {
                    *x = f32::NEG_INFINITY;
                }
            }
            dfss_tensor::math::softmax_row(row);
        }
        scores.matmul_ref(v)
    }

    #[test]
    fn dfss_1_2_matches_masked_reference() {
        let (q, k, v) = qkv(64, 16, 1);
        let mut ctx = GpuCtx::a100();
        let out = DfssAttention::new(NmPattern::P1_2).forward(&mut ctx, &q, &k, &v);
        let reference = reference_dfss(&q, &k, &v, NmPattern::P1_2);
        assert!(out.max_abs_diff(&reference) < 1e-2);
    }

    #[test]
    fn dfss_2_4_matches_masked_reference() {
        let (q, k, v) = qkv(32, 16, 2);
        let mut ctx = GpuCtx::a100();
        let out = DfssAttention::new(NmPattern::P2_4).forward(&mut ctx, &q, &k, &v);
        let reference = reference_dfss(&q, &k, &v, NmPattern::P2_4);
        assert!(out.max_abs_diff(&reference) < 1e-2);
    }

    #[test]
    fn dfss_is_faster_than_full_attention_on_sim() {
        // The headline claim, at n = 1024, float/1:2.
        let (q, k, v) = qkv(1024, 64, 4);
        let mut cd = GpuCtx::a100();
        let mut cf = GpuCtx::a100();
        let _ = DfssAttention::for_dtype::<f32>().forward(&mut cd, &q, &k, &v);
        let _ = crate::full::FullAttention.forward(&mut cf, &q, &k, &v);
        let speedup = cf.latency() / cd.latency();
        assert!(
            speedup > 1.2 && speedup < 2.2,
            "simulated speedup {speedup:.3} outside the paper's band"
        );
    }

    #[test]
    fn dfss_reduces_peak_memory() {
        let (q, k, v) = qkv(512, 64, 5);
        let mut cd = GpuCtx::a100();
        let mut cf = GpuCtx::a100();
        let _ = DfssAttention::for_dtype::<f32>().forward(&mut cd, &q, &k, &v);
        let _ = crate::full::FullAttention.forward(&mut cf, &q, &k, &v);
        let ratio = cf.mem.peak() as f64 / cd.mem.peak() as f64;
        assert!(ratio > 1.4, "memory reduction {ratio:.2} too small");
    }

    #[test]
    fn bf16_dfss_runs_2_4() {
        let mut rng = Rng::new(6);
        let q = Matrix::<Bf16>::random_normal(32, 16, 0.0, 1.0, &mut rng);
        let k = Matrix::<Bf16>::random_normal(32, 16, 0.0, 1.0, &mut rng);
        let v = Matrix::<Bf16>::random_normal(32, 16, 0.0, 1.0, &mut rng);
        let mech = DfssAttention::for_dtype::<Bf16>();
        assert_eq!(mech.pattern(), NmPattern::P2_4);
        let mut ctx = GpuCtx::a100();
        let out = mech.forward(&mut ctx, &q, &k, &v);
        assert_eq!(out.shape(), (32, 16));
        assert!(out.as_slice().iter().all(|x| !x.is_nan()));
    }

    #[test]
    fn weights_rows_normalised() {
        let (q, k, v) = qkv(32, 16, 7);
        let mut ctx = GpuCtx::a100();
        let (_, w) = DfssAttention::new(NmPattern::P1_2).forward_with_weights(&mut ctx, &q, &k, &v);
        for r in 0..32 {
            let s: f32 = w.row_nonzeros(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    /// `forward_with_weights` runs the staged kernels and `forward` the
    /// row-tile driver: both return the same bits and record the same
    /// profiles and memory peak, over a whole Q and over a 13-row chunk of
    /// its rows, for 1:2 and 2:4 at f32 and bf16.
    #[test]
    fn forward_with_weights_matches_forward() {
        fn check<T: Scalar>(seed: u64) {
            let mut rng = Rng::new(seed);
            let q = Matrix::<T>::random_normal(48, 16, 0.0, 1.0, &mut rng);
            let k = Matrix::<T>::random_normal(48, 16, 0.0, 1.0, &mut rng);
            let v = Matrix::<T>::random_normal(48, 24, 0.0, 1.0, &mut rng);
            let bits = |m: &Matrix<T>| -> Vec<u32> {
                m.as_slice().iter().map(|x| x.to_f32().to_bits()).collect()
            };
            let ledger = |ctx: &GpuCtx| (format!("{:?}", ctx.timeline.entries()), ctx.mem.peak());
            for pattern in [NmPattern::P1_2, NmPattern::P2_4] {
                let mech = DfssAttention::new(pattern);
                for rows in [q.clone(), q.take_rows(7, 20)] {
                    let what = format!("{pattern} {} rows {}", T::NAME, rows.rows());
                    let (mut got, mut want) = (GpuCtx::a100(), GpuCtx::a100());
                    let (out, _) = mech.forward_with_weights(&mut got, &rows, &k, &v);
                    let expect = mech.forward(&mut want, &rows, &k, &v);
                    assert_eq!(bits(&out), bits(&expect), "{what}");
                    assert_eq!(ledger(&got), ledger(&want), "{what}");
                }
            }
        }
        check::<f32>(17);
        check::<Bf16>(18);
    }

    #[test]
    fn drop_in_name_matches_paper_notation() {
        let m = DfssAttention::for_dtype::<f32>();
        assert_eq!(Attention::<f32>::name(&m), "Dfss 1:2 (float)");
        let m = DfssAttention::for_dtype::<Bf16>();
        assert_eq!(Attention::<Bf16>::name(&m), "Dfss 2:4 (bfloat16)");
    }

    #[test]
    fn batched_forward_bit_identical_to_per_head_loop() {
        // The tentpole contract: one launch per op over the whole B×H
        // stack, outputs bit-identical to the per-head loop and charges
        // exactly batch × the per-head profiles.
        let (batch, n, d) = (6usize, 64usize, 16usize);
        let mut rng = Rng::new(12);
        let qb = BatchedMatrix::<f32>::random_normal(batch, n, d, 0.0, 1.0, &mut rng);
        let kb = BatchedMatrix::<f32>::random_normal(batch, n, d, 0.0, 1.0, &mut rng);
        let vb = BatchedMatrix::<f32>::random_normal(batch, n, d, 0.0, 1.0, &mut rng);
        let mech = DfssAttention::new(NmPattern::P1_2);
        let mut bctx = GpuCtx::a100();
        let out = mech.forward_batched(&mut bctx, &qb, &kb, &vb);
        // One launch per op.
        assert_eq!(bctx.timeline.entries().len(), 3);
        assert_eq!(bctx.timeline.launches(), 3);
        let mut sctx = GpuCtx::a100();
        for b in 0..batch {
            let single = mech.forward(&mut sctx, &qb.to_panel(b), &kb.to_panel(b), &vb.to_panel(b));
            let same = out
                .panel(b)
                .iter()
                .zip(single.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "head {b} diverged");
        }
        // Exact batch × charge totals.
        assert_eq!(bctx.timeline.total_bytes(), sctx.timeline.total_bytes());
    }

    #[test]
    fn batched_full_attention_bit_identical_to_per_head_loop() {
        let (batch, n, d) = (4usize, 48usize, 16usize);
        let mut rng = Rng::new(13);
        let qb = BatchedMatrix::<f32>::random_normal(batch, n, d, 0.0, 1.0, &mut rng);
        let kb = BatchedMatrix::<f32>::random_normal(batch, n, d, 0.0, 1.0, &mut rng);
        let vb = BatchedMatrix::<f32>::random_normal(batch, n, d, 0.0, 1.0, &mut rng);
        let mut bctx = GpuCtx::a100();
        let out = crate::full::FullAttention.forward_batched(&mut bctx, &qb, &kb, &vb);
        assert_eq!(bctx.timeline.entries().len(), 3);
        let mut sctx = GpuCtx::a100();
        for b in 0..batch {
            let single = crate::full::FullAttention.forward(
                &mut sctx,
                &qb.to_panel(b),
                &kb.to_panel(b),
                &vb.to_panel(b),
            );
            let same = out
                .panel(b)
                .iter()
                .zip(single.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "head {b} diverged");
        }
        assert_eq!(bctx.timeline.total_bytes(), sctx.timeline.total_bytes());
    }

    /// The staged three-launch pipeline the row-tile entry points replaced,
    /// with the memory-ledger calls the mechanisms made around it: dense
    /// (`pattern == None`) or fused N:M, for `q` rows against `k`'s keys.
    fn staged_forward(
        ctx: &mut GpuCtx,
        pattern: Option<NmPattern>,
        q: &Matrix<f32>,
        k: &Matrix<f32>,
        v: &Matrix<f32>,
    ) -> Matrix<f32> {
        let (c, n) = (q.rows(), k.rows());
        let scale = 1.0 / (q.cols() as f32).sqrt();
        match pattern {
            None => {
                let scores_id = ctx.mem.alloc("scores_dense", (c * n * 4) as u64);
                let scores = gemm::gemm_nt(ctx, Stage::Qk, q, k, scale);
                let weights_id = ctx.mem.alloc("weights_dense", (c * n * 4) as u64);
                let weights = softmax::softmax_dense(ctx, &scores);
                ctx.mem.free(scores_id);
                let out = gemm::gemm_nn(ctx, Stage::Av, &weights, v);
                ctx.mem.free(weights_id);
                out
            }
            Some(p) => {
                let bytes = DfssAttention::new(p).compressed_bytes::<f32>(c, n);
                let comp_id = ctx.mem.alloc("scores_nm_compressed", bytes);
                let mut comp = sddmm::sddmm_nm_fused(ctx, q, k, scale, p);
                softmax::softmax_nm(ctx, &mut comp);
                let out = spmm::spmm_nm(ctx, &comp, v);
                ctx.mem.free(comp_id);
                out
            }
        }
    }

    /// [`staged_forward`] over a whole stack with the batched kernels.
    fn staged_forward_batched(
        ctx: &mut GpuCtx,
        pattern: Option<NmPattern>,
        q: &BatchedMatrix<f32>,
        k: &BatchedMatrix<f32>,
        v: &BatchedMatrix<f32>,
    ) -> BatchedMatrix<f32> {
        let (batch, n, d) = q.shape();
        let scale = 1.0 / (d as f32).sqrt();
        match pattern {
            None => {
                let bytes = (batch * n * n * 4) as u64;
                let scores_id = ctx.mem.alloc("scores_dense", bytes);
                let scores = gemm::gemm_nt_batched(ctx, Stage::Qk, q, k, scale);
                let weights_id = ctx.mem.alloc("weights_dense", bytes);
                let weights = softmax::softmax_dense_batched(ctx, &scores);
                ctx.mem.free(scores_id);
                let out = gemm::gemm_nn_batched(ctx, Stage::Av, &weights, v);
                ctx.mem.free(weights_id);
                out
            }
            Some(p) => {
                let bytes = DfssAttention::new(p).compressed_bytes::<f32>(batch * n, n);
                let comp_id = ctx.mem.alloc("scores_nm_compressed", bytes);
                let mut comp = sddmm::sddmm_nm_fused_batched(ctx, q, k, scale, p);
                softmax::softmax_nm_batched(ctx, &mut comp);
                let out = spmm::spmm_nm_batched(ctx, &comp, v);
                ctx.mem.free(comp_id);
                out
            }
        }
    }

    /// Every mechanism entry point that drives the row-tile driver — Full's
    /// and fused Dfss's `forward_batched`, and `forward` over a whole Q and
    /// over a chunk of its rows — returns the staged pipeline's bits and
    /// records its profiles and memory peak, in exec and in charge-only
    /// mode.
    #[test]
    fn row_tile_entry_points_match_staged_pipeline() {
        let (batch, n, d) = (3usize, 40usize, 16usize);
        let mut rng = Rng::new(16);
        let qb = BatchedMatrix::<f32>::random_normal(batch, n, d, 0.0, 1.0, &mut rng);
        let kb = BatchedMatrix::<f32>::random_normal(batch, n, d, 0.0, 1.0, &mut rng);
        let vb = BatchedMatrix::<f32>::random_normal(batch, n, 24, 0.0, 1.0, &mut rng);
        let (q, k, v) = (qb.to_panel(1), kb.to_panel(1), vb.to_panel(1));
        // A 13-row chunk of Q.
        let q_rows = Matrix::from_vec(13, d, q.as_slice()[7 * d..20 * d].to_vec());
        let mechs: [(Option<NmPattern>, Box<dyn Attention<f32>>); 3] = [
            (None, Box::new(crate::full::FullAttention)),
            (
                Some(NmPattern::P1_2),
                Box::new(DfssAttention::new(NmPattern::P1_2)),
            ),
            (
                Some(NmPattern::P2_4),
                Box::new(DfssAttention::new(NmPattern::P2_4)),
            ),
        ];
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let ledger = |ctx: &GpuCtx| (format!("{:?}", ctx.timeline.entries()), ctx.mem.peak());
        for exec in [true, false] {
            let ctx = || GpuCtx {
                exec,
                ..GpuCtx::a100()
            };
            for (pattern, mech) in &mechs {
                let what = format!("{} exec {exec}", mech.name());
                let (mut got, mut want) = (ctx(), ctx());
                let out = mech.forward_batched(&mut got, &qb, &kb, &vb);
                let expect = staged_forward_batched(&mut want, *pattern, &qb, &kb, &vb);
                assert_eq!(ledger(&got), ledger(&want), "forward_batched {what}");
                if exec {
                    assert_eq!(bits(out.as_slice()), bits(expect.as_slice()), "{what}");
                }
                for (rows, entry) in [(&q, "forward"), (&q_rows, "forward chunk")] {
                    let (mut got, mut want) = (ctx(), ctx());
                    let out = mech.forward(&mut got, rows, &k, &v);
                    let expect = staged_forward(&mut want, *pattern, rows, &k, &v);
                    assert_eq!(ledger(&got), ledger(&want), "{entry} {what}");
                    assert_eq!(
                        bits(out.as_slice()),
                        bits(expect.as_slice()),
                        "{entry} {what}"
                    );
                }
            }
        }
    }

    #[test]
    fn charge_only_batched_forward_matches_executed_charges() {
        // Figure binaries run the batched pipeline charge-only: profiles
        // must be identical to exec mode, with no panel data materialised.
        let (batch, n, d) = (8usize, 64usize, 32usize);
        let mut rng = Rng::new(15);
        let qb = BatchedMatrix::<f32>::random_normal(batch, n, d, 0.0, 1.0, &mut rng);
        let mech = DfssAttention::for_dtype::<f32>();
        let mut exec = GpuCtx::a100();
        let _ = mech.forward_batched(&mut exec, &qb, &qb, &qb);
        let mut charge = GpuCtx::a100_charge_only();
        let out = mech.forward_batched(&mut charge, &qb, &qb, &qb);
        assert!(!out.is_materialized());
        assert_eq!(exec.timeline.total_bytes(), charge.timeline.total_bytes());
        assert_eq!(exec.mem.peak(), charge.mem.peak());
    }

    #[test]
    fn approximation_error_small_relative_to_full() {
        // Dfss output should stay close to full attention (§3.3): compare
        // against the dense reference and require the relative Frobenius
        // error to be well under 1 (softmax mass concentrates on kept
        // entries).
        let (q, k, v) = qkv(128, 32, 9);
        let mut ctx = GpuCtx::a100();
        let sparse = DfssAttention::new(NmPattern::P1_2).forward(&mut ctx, &q, &k, &v);
        let dense = reference_attention(&q, &k, &v);
        let diff = sparse.zip_with(&dense, |a, b| a - b);
        let rel = diff.frobenius_norm() / dense.frobenius_norm();
        assert!(rel < 0.5, "relative error {rel}");
    }
}
