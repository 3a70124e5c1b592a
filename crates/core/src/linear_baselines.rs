//! Linear-complexity baselines: Performer (FAVOR+) and Nyströmformer —
//! plus the Dfss combination of Appendix A.7.
//!
//! These reduce the quadratic complexity but pay per-step overheads that
//! dominate at short and moderate sequence length (Figure 5); Dfss composes
//! with Nyströmformer (Figure 17) because it still contains softmax-GEMM
//! pairs over an `n×m` score matrix. Table 4's Linformer row trains the
//! transformer's own projection (`dfss_transformer::AttnKind`).

use crate::mechanism::{check_qkv, Attention};
use dfss_gpusim::{KernelProfile, Stage};
use dfss_kernels::{gemm, sddmm, softmax, spmm, GpuCtx};
use dfss_nmsparse::NmPattern;
use dfss_tensor::{math, Matrix, Rng, Scalar};

/// Numerically-stabilised positive softmax kernel feature map
/// (Equation 32): `φ(X) = exp(X·Wᵀ/d^¼ − ‖x‖²/(2√d) − stabiliser + ε)/√m`.
///
/// The paper's Equation 32 lists a per-row max stabiliser; like production
/// FAVOR+ implementations we use the *global* max of the projections so the
/// stabiliser cancels exactly between numerator and denominator of the
/// attention normalisation (a per-key-row max would bias the estimate).
fn favor_features(x: &Matrix<f32>, w: &Matrix<f32>, d: usize) -> Matrix<f32> {
    let m = w.rows();
    let quarter = (d as f32).sqrt().sqrt();
    let proj = Matrix::from_fn(x.rows(), m, |i, j| {
        let dot: f32 = x.row(i).iter().zip(w.row(j)).map(|(a, b)| a * b).sum();
        dot / quarter
    });
    let stab = proj
        .as_slice()
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, f32::max);
    let inv_sqrt_m = 1.0 / (m as f32).sqrt();
    Matrix::from_fn(x.rows(), m, |i, j| {
        let sq: f32 = x.row(i).iter().map(|a| a * a).sum::<f32>() / (2.0 * (d as f32).sqrt());
        ((proj.get(i, j) - sq - stab + 1e-6).exp()) * inv_sqrt_m
    })
}

/// Orthogonal random feature matrix (`m×d`): blocks of `d` Gaussian rows are
/// Gram–Schmidt orthogonalised and rescaled to χ-distributed norms
/// (Choromanski et al.'s ORF construction).
pub fn orthogonal_features(m: usize, d: usize, rng: &mut Rng) -> Matrix<f32> {
    let mut w = Matrix::<f32>::zeros(m, d);
    let mut block_rows = 0usize;
    while block_rows < m {
        let rows = d.min(m - block_rows);
        // Gaussian block, then Gram–Schmidt.
        let mut block: Vec<Vec<f32>> = (0..rows)
            .map(|_| (0..d).map(|_| rng.normal(0.0, 1.0)).collect())
            .collect();
        // Orthonormalise first (projections assume unit-norm earlier rows)…
        for i in 0..rows {
            for j in 0..i {
                let dot: f32 = block[i].iter().zip(&block[j]).map(|(a, b)| a * b).sum();
                let (lo, hi) = block.split_at_mut(i);
                for (a, &b) in hi[0].iter_mut().zip(&lo[j]) {
                    *a -= dot * b;
                }
            }
            let norm: f32 = block[i].iter().map(|a| a * a).sum::<f32>().sqrt();
            assert!(norm > 1e-6, "degenerate Gram–Schmidt block");
            block[i].iter_mut().for_each(|a| *a /= norm);
        }
        // … then rescale each row to the norm of an independent Gaussian
        // d-vector (preserves orthogonality, restores χ-distributed radii).
        for row in block.iter_mut() {
            let chi: f32 = (0..d)
                .map(|_| {
                    let g = rng.normal(0.0, 1.0);
                    g * g
                })
                .sum::<f32>()
                .sqrt();
            row.iter_mut().for_each(|a| *a *= chi);
        }
        for (bi, row) in block.iter().enumerate() {
            w.row_mut(block_rows + bi).copy_from_slice(row);
        }
        block_rows += rows;
    }
    w
}

/// Performer with the positive softmax kernel and orthogonal random
/// features (Choromanski et al. 2021), following the fused computation graph
/// of Equation (32).
#[derive(Clone, Debug)]
pub struct PerformerAttention {
    /// Number of random features; the paper uses `m = d·ln d` (266 at d=64).
    pub features: Option<usize>,
    pub seed: u64,
}

impl PerformerAttention {
    pub fn new(seed: u64) -> PerformerAttention {
        PerformerAttention {
            features: None,
            seed,
        }
    }

    pub fn with_features(features: usize, seed: u64) -> PerformerAttention {
        PerformerAttention {
            features: Some(features),
            seed,
        }
    }

    fn m_for(&self, d: usize) -> usize {
        self.features
            .unwrap_or_else(|| ((d as f64) * (d as f64).ln()).round() as usize)
    }
}

impl<T: Scalar> Attention<T> for PerformerAttention {
    fn name(&self) -> String {
        format!("Performer ({})", T::NAME)
    }

    fn forward(&self, ctx: &mut GpuCtx, q: &Matrix<T>, k: &Matrix<T>, v: &Matrix<T>) -> Matrix<T> {
        let (n, d) = check_qkv(q, k, v);
        let m = self.m_for(d);
        let mut rng = Rng::new(self.seed);
        let w = orthogonal_features(m, d, &mut rng);

        // ---- simulated cost (Equation 33's op list) ----
        // T1/T4 projections + exp/max/sum element-wise chains.
        gemm::charge_gemm::<T>(ctx, "favor_proj_q", Stage::Overhead, n, m, d);
        gemm::charge_gemm::<T>(ctx, "favor_proj_k", Stage::Overhead, n, m, d);
        let elems = (2 * n * m) as u64;
        ctx.record(
            KernelProfile::new("favor_phi", Stage::Overhead)
                .with_traffic(elems * T::BYTES as u64 * 2, elems * T::BYTES as u64)
                .with_alu(elems * 8),
        );
        // T7/T8 normalisers.
        ctx.record(
            KernelProfile::new("favor_norm", Stage::Softmax)
                .with_traffic(((n * m + n) * T::BYTES) as u64, (n * T::BYTES) as u64)
                .with_alu((n * m) as u64 * 2),
        );
        // T9 = φ(K)ᵀ·V and T10 = φ(Q)·T9.
        gemm::charge_gemm::<T>(ctx, "favor_kv", Stage::Qk, m, d, n);
        gemm::charge_gemm::<T>(ctx, "favor_qkv", Stage::Av, n, d, m);
        let phi_id = ctx
            .mem
            .alloc("performer_phi", (2 * n * m * T::BYTES) as u64);
        if !ctx.exec {
            ctx.mem.free(phi_id);
            return Matrix::zeros(n, v.cols());
        }

        // ---- execution (host math in f32) ----
        let qf = q.to_f32();
        let kf = k.to_f32();
        let vf = v.to_f32();
        let phi_q = favor_features(&qf, &w, d);
        let phi_k = favor_features(&kf, &w, d);
        // T9: m×d.
        let t9 = phi_k.transpose().matmul_ref(&vf);
        // T7: column sums of phi_k (length m).
        let mut t7 = vec![0.0f32; m];
        for r in 0..n {
            for (acc, &x) in t7.iter_mut().zip(phi_k.row(r)) {
                *acc += x;
            }
        }
        let mut out = Matrix::<T>::zeros(n, v.cols());
        for i in 0..n {
            let denom: f32 = phi_q.row(i).iter().zip(&t7).map(|(a, b)| a * b).sum();
            let inv = 1.0 / denom.max(1e-9);
            let mut row = vec![0.0f32; v.cols()];
            for (j, &p) in phi_q.row(i).iter().enumerate() {
                for (o, &t) in row.iter_mut().zip(t9.row(j)) {
                    *o += p * t;
                }
            }
            let orow = out.row_mut(i);
            for (o, &x) in orow.iter_mut().zip(&row) {
                *o = T::from_acc(x * inv);
            }
        }
        ctx.mem.free(phi_id);
        out
    }
}

/// Nyströmformer (Xiong et al. 2021): landmark-based softmax approximation
/// `softmax(QK̃ᵀ) · pinv(softmax(Q̃K̃ᵀ)) · softmax(Q̃Kᵀ) · V` with
/// segment-means landmarks and an iterative pseudo-inverse. The optional
/// depth-wise-conv skip connection of the original is omitted: it does not
/// interact with the attention approximation.
#[derive(Clone, Debug)]
pub struct NystromAttention {
    pub landmarks: usize,
    pub pinv_iters: usize,
    /// `Some(pattern)` applies Dfss to the two n-length softmax factors
    /// (Figure 17's circled SDDMM/SpMM pairs).
    pub dfss: Option<NmPattern>,
}

impl NystromAttention {
    pub fn new(landmarks: usize) -> NystromAttention {
        NystromAttention {
            landmarks,
            pinv_iters: 6,
            dfss: None,
        }
    }

    pub fn with_dfss(mut self, pattern: NmPattern) -> NystromAttention {
        self.dfss = Some(pattern);
        self
    }
}

/// Segment means: average each of `m` contiguous segments of the rows.
fn segment_means(x: &Matrix<f32>, m: usize) -> Matrix<f32> {
    let (n, d) = x.shape();
    assert!(m <= n, "more landmarks than rows");
    let base = n / m;
    let rem = n % m;
    let mut out = Matrix::<f32>::zeros(m, d);
    let mut row = 0usize;
    for s in 0..m {
        let len = base + usize::from(s < rem);
        let orow = out.row_mut(s);
        for r in row..row + len {
            for (o, &v) in orow.iter_mut().zip(x.row(r)) {
                *o += v;
            }
        }
        orow.iter_mut().for_each(|v| *v /= len as f32);
        row += len;
    }
    out
}

/// Row-softmax of an f32 matrix with scaling.
fn softmax_rows_scaled(x: &Matrix<f32>, scale: f32) -> Matrix<f32> {
    let mut out = x.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        row.iter_mut().for_each(|v| *v *= scale);
        math::softmax_row(row);
    }
    out
}

/// Moore–Penrose pseudo-inverse by the Newton–Schulz-style iteration used in
/// the Nyströmformer paper: `Z ← Z(13I − AZ(15I − AZ(7I − AZ)))/4`.
fn iterative_pinv(a: &Matrix<f32>, iters: usize) -> Matrix<f32> {
    let m = a.rows();
    assert_eq!(a.cols(), m);
    // Z0 = Aᵀ / (max row sum · max col sum).
    let mut max_row = 0.0f32;
    let mut col_sums = vec![0.0f32; m];
    for r in 0..m {
        let mut s = 0.0f32;
        for (c, &v) in a.row(r).iter().enumerate() {
            s += v.abs();
            col_sums[c] += v.abs();
        }
        max_row = max_row.max(s);
    }
    let max_col = col_sums.iter().copied().fold(0.0, f32::max);
    let mut z = a.transpose();
    z.scale(1.0 / (max_row * max_col).max(1e-9));
    let eye = |alpha: f32| Matrix::<f32>::from_fn(m, m, |r, c| if r == c { alpha } else { 0.0 });
    for _ in 0..iters {
        let az = a.matmul_ref(&z);
        // 7I − AZ
        let mut t1 = eye(7.0);
        t1.axpy(-1.0, &az);
        // 15I − AZ·t1
        let mut t2 = eye(15.0);
        t2.axpy(-1.0, &az.matmul_ref(&t1));
        // 13I − AZ·t2
        let mut t3 = eye(13.0);
        t3.axpy(-1.0, &az.matmul_ref(&t2));
        z = z.matmul_ref(&t3);
        z.scale(0.25);
    }
    z
}

impl<T: Scalar> Attention<T> for NystromAttention {
    fn name(&self) -> String {
        match self.dfss {
            Some(p) => format!("Nystrom+Dfss {} ({})", p, T::NAME),
            None => format!("Nystrom ({})", T::NAME),
        }
    }

    fn forward(&self, ctx: &mut GpuCtx, q: &Matrix<T>, k: &Matrix<T>, v: &Matrix<T>) -> Matrix<T> {
        let (n, d) = check_qkv(q, k, v);
        let m = self.landmarks.min(n);
        let scale = 1.0 / (d as f32).sqrt();
        let qf = q.to_f32();
        let kf = k.to_f32();
        let vf = v.to_f32();

        // Landmarks (Overhead): one pass over Q and K.
        ctx.record(
            KernelProfile::new("nystrom_landmarks", Stage::Overhead)
                .with_traffic((2 * n * d * T::BYTES) as u64, (2 * m * d * T::BYTES) as u64)
                .with_alu((2 * n * d) as u64),
        );
        let q_l = segment_means(&qf, m);
        let k_l = segment_means(&kf, m);

        // Kernel 2: A_ss = softmax(Q̃K̃ᵀ) and its iterative pinv (Overhead).
        gemm::charge_gemm::<T>(ctx, "nystrom_ll", Stage::Overhead, m, m, d);
        let a_ss = softmax_rows_scaled(&q_l.matmul_ref(&k_l.transpose()), scale);
        for _ in 0..self.pinv_iters {
            gemm::charge_gemm::<T>(ctx, "nystrom_pinv_iter", Stage::Overhead, m, m, m);
            gemm::charge_gemm::<T>(ctx, "nystrom_pinv_iter", Stage::Overhead, m, m, m);
            gemm::charge_gemm::<T>(ctx, "nystrom_pinv_iter", Stage::Overhead, m, m, m);
        }
        let z = iterative_pinv(&a_ss, self.pinv_iters);

        let mid_id = ctx
            .mem
            .alloc("nystrom_factors", (2 * n * m * T::BYTES) as u64);
        if !ctx.exec && self.dfss.is_none() {
            gemm::charge_gemm::<T>(ctx, "nystrom_f1", Stage::Qk, n, m, d);
            gemm::charge_gemm::<T>(ctx, "nystrom_f3", Stage::Qk, m, n, d);
            ctx.record(
                KernelProfile::new("nystrom_softmax", Stage::Softmax)
                    .with_traffic((4 * n * m * T::BYTES) as u64, (2 * n * m * T::BYTES) as u64)
                    .with_alu((2 * n * m) as u64 * 6),
            );
            gemm::charge_gemm::<T>(ctx, "nystrom_f3v", Stage::Av, m, d, n);
            gemm::charge_gemm::<T>(ctx, "nystrom_z_mid", Stage::Av, m, d, m);
            gemm::charge_gemm::<T>(ctx, "nystrom_out", Stage::Av, n, d, m);
            ctx.mem.free(mid_id);
            return Matrix::zeros(n, v.cols());
        }
        let out_f32 = if let Some(pattern) = self.dfss {
            // Dfss on both n-sized factors (Figure 17).
            // F3 = softmax_{1:2}(Q̃Kᵀ) compressed, then SpMM with V.
            let q_l_t: Matrix<T> = q_l.cast();
            let k_t: Matrix<T> = kf.cast();
            let mut f3 = sddmm::sddmm_nm_fused(ctx, &q_l_t, &k_t, scale, pattern);
            softmax::softmax_nm(ctx, &mut f3);
            let f3v = spmm::spmm_nm(ctx, &f3, &vf.cast::<T>());
            // F1 = softmax_{1:2}(QK̃ᵀ) compressed, then SpMM with Z·(F3·V).
            let zf3v = z.matmul_ref(&f3v.to_f32());
            gemm::charge_gemm::<T>(ctx, "nystrom_z_mid", Stage::Av, m, d, m);
            let q_t: Matrix<T> = qf.cast();
            let k_l_t: Matrix<T> = k_l.cast();
            let mut f1 = sddmm::sddmm_nm_fused(ctx, &q_t, &k_l_t, scale, pattern);
            softmax::softmax_nm(ctx, &mut f1);
            spmm::spmm_nm(ctx, &f1, &zf3v.cast::<T>()).to_f32()
        } else {
            gemm::charge_gemm::<T>(ctx, "nystrom_f1", Stage::Qk, n, m, d);
            gemm::charge_gemm::<T>(ctx, "nystrom_f3", Stage::Qk, m, n, d);
            ctx.record(
                KernelProfile::new("nystrom_softmax", Stage::Softmax)
                    .with_traffic((4 * n * m * T::BYTES) as u64, (2 * n * m * T::BYTES) as u64)
                    .with_alu((2 * n * m) as u64 * 6),
            );
            let f1 = softmax_rows_scaled(&qf.matmul_ref(&k_l.transpose()), scale);
            let f3 = softmax_rows_scaled(&q_l.matmul_ref(&kf.transpose()), scale);
            gemm::charge_gemm::<T>(ctx, "nystrom_f3v", Stage::Av, m, d, n);
            gemm::charge_gemm::<T>(ctx, "nystrom_z_mid", Stage::Av, m, d, m);
            gemm::charge_gemm::<T>(ctx, "nystrom_out", Stage::Av, n, d, m);
            let f3v = f3.matmul_ref(&vf);
            let zf3v = z.matmul_ref(&f3v);
            f1.matmul_ref(&zf3v)
        };
        ctx.mem.free(mid_id);
        out_f32.cast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::{reference_attention, FullAttention};

    fn qkv(n: usize, d: usize, seed: u64) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
        let mut rng = Rng::new(seed);
        (
            Matrix::random_normal(n, d, 0.0, 0.5, &mut rng),
            Matrix::random_normal(n, d, 0.0, 0.5, &mut rng),
            Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
        )
    }

    #[test]
    fn orthogonal_features_are_orthogonal_within_block() {
        let mut rng = Rng::new(1);
        let w = orthogonal_features(8, 8, &mut rng);
        for i in 0..8 {
            for j in 0..i {
                let dot: f32 = w.row(i).iter().zip(w.row(j)).map(|(a, b)| a * b).sum();
                assert!(dot.abs() < 1e-3, "rows {i},{j}: {dot}");
            }
        }
    }

    #[test]
    fn performer_approximates_full_attention() {
        let (q, k, v) = qkv(64, 16, 2);
        let mut ctx = GpuCtx::a100();
        let out = PerformerAttention::with_features(512, 3).forward(&mut ctx, &q, &k, &v);
        let reference = reference_attention(&q, &k, &v);
        let diff = out.zip_with(&reference, |a, b| a - b);
        let rel = diff.frobenius_norm() / reference.frobenius_norm();
        // Monte-Carlo kernel estimate: loose tolerance, but must correlate.
        assert!(rel < 0.45, "relative error {rel}");
    }

    #[test]
    fn performer_charges_overhead() {
        let (q, k, v) = qkv(128, 16, 3);
        let mut ctx = GpuCtx::a100();
        let _ = PerformerAttention::new(1).forward(&mut ctx, &q, &k, &v);
        assert!(ctx.timeline.stage_bytes(Stage::Overhead) > 0);
    }

    #[test]
    fn performer_loses_at_moderate_length_wins_at_long() {
        // The Figure 5 crossover: at n=256 Performer is slower than full
        // attention on the simulator; at n=4096 it is faster.
        let d = 64;
        for (n, expect_faster) in [(256usize, false), (4096usize, true)] {
            let (q, k, v) = qkv(n, d, 4);
            let mut cp = GpuCtx::a100();
            let mut cf = GpuCtx::a100();
            let _ = PerformerAttention::new(1).forward(&mut cp, &q, &k, &v);
            let _ = FullAttention.forward(&mut cf, &q, &k, &v);
            let faster = cp.latency() < cf.latency();
            assert_eq!(faster, expect_faster, "n={n}");
        }
    }

    #[test]
    fn segment_means_uniform() {
        let x = Matrix::<f32>::from_fn(8, 2, |r, _| r as f32);
        let m = segment_means(&x, 4);
        assert_eq!(m.get(0, 0), 0.5);
        assert_eq!(m.get(3, 0), 6.5);
    }

    #[test]
    fn segment_means_uneven() {
        let x = Matrix::<f32>::from_fn(5, 1, |r, _| r as f32);
        let m = segment_means(&x, 2);
        // Segments: [0,1,2], [3,4].
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 0), 3.5);
    }

    #[test]
    fn iterative_pinv_inverts_well_conditioned() {
        let mut rng = Rng::new(5);
        // Diagonally dominant → well conditioned.
        let a = Matrix::<f32>::from_fn(8, 8, |r, c| {
            if r == c {
                2.0
            } else {
                0.05 * rng.normal(0.0, 1.0)
            }
        });
        let z = iterative_pinv(&a, 12);
        let az = a.matmul_ref(&z);
        for r in 0..8 {
            for c in 0..8 {
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!((az.get(r, c) - expect).abs() < 0.05, "({r},{c})");
            }
        }
    }

    #[test]
    fn nystrom_approximates_full_attention() {
        let (q, k, v) = qkv(64, 16, 6);
        let mut ctx = GpuCtx::a100();
        let out = NystromAttention::new(16).forward(&mut ctx, &q, &k, &v);
        let reference = reference_attention(&q, &k, &v);
        let diff = out.zip_with(&reference, |a, b| a - b);
        let rel = diff.frobenius_norm() / reference.frobenius_norm();
        assert!(rel < 0.6, "relative error {rel}");
    }

    #[test]
    fn nystrom_dfss_runs_and_reduces_traffic() {
        let (q, k, v) = qkv(256, 32, 7);
        let mut c1 = GpuCtx::a100();
        let mut c2 = GpuCtx::a100();
        let base = NystromAttention::new(32).forward(&mut c1, &q, &k, &v);
        let combo = NystromAttention::new(32)
            .with_dfss(NmPattern::P1_2)
            .forward(&mut c2, &q, &k, &v);
        assert_eq!(base.shape(), combo.shape());
        // The combined version compresses both n-sized factors.
        assert!(c2.timeline.total_bytes() < c1.timeline.total_bytes());
    }
}
