//! Hybrid blocked-ELL × N:M kernels (Appendix A.1.2, "Blocked-ELL
//! Sparsity").
//!
//! "Under long sequence length, higher sparsity is desired … Our kernel
//! supports hybrid blocked-ELL sparsity and 50% structured sparsity. We set
//! the block size in blocked-ELL to the thread block tile size of the GEMM.
//! Therefore, we can simply skip those pruned blocks during the execution."
//!
//! The compressed result is stored *packed*: each row keeps only the
//! `ell_width · block` columns of its active blocks, pruned N:M within.
//! [`EllNm`] carries the packing map so SpMM can gather the right V rows.
//!
//! Each op has one exec body over borrowed slices and one charge helper;
//! the solo kernel is the one-panel case of the batched one, so both are
//! bit-identical. The SDDMM prunes with the fused SDDMM's epilogue
//! (`sddmm::prune_rows_dispatch`), and the SpMM reads rows with the
//! compressed formats' one code scan ([`scan_codes`]).

use crate::batched::{fan_out, fan_out2, ROW_TILE};
use crate::ctx::{dense_class, sparse_class, GpuCtx};
use crate::{micro, sddmm};
use dfss_gpusim::{KernelProfile, Stage};
use dfss_nmsparse::{scan_codes, BlockedEll, NmBatch, NmCompressed, NmPattern};
use dfss_tensor::{scratch_f32_stale, BatchedMatrix, Matrix, Scalar};

/// One launch's shape: `(batch, rows, inner, d)` — `batch` panels of
/// `rows` output rows over `inner` dense columns (the keys of the SDDMM,
/// the V rows of the SpMM) and width `d` (the head dim, or V's width).
type Shape = (usize, usize, usize, usize);

/// An attention weight matrix under hybrid blocked-ELL × N:M sparsity.
#[derive(Clone, Debug)]
pub struct EllNm<T> {
    /// Which column blocks are active per row block.
    pub ell: BlockedEll,
    /// N:M-compressed scores over the packed active columns
    /// (`rows × (ell_width·block)` logical dense).
    pub packed: NmCompressed<T>,
}

impl<T: Scalar> EllNm<T> {
    /// Overall density (active fraction × N/M).
    pub fn density(&self) -> f64 {
        self.ell.hybrid_density(self.packed.pattern().density())
    }

    /// Total compressed bytes (nonzeros + N:M metadata + ELL table).
    pub fn bytes(&self) -> usize {
        self.packed.bytes() + self.ell.row_blocks() * self.ell.ell_width() * 4
    }
}

/// An attention weight stack under hybrid blocked-ELL × N:M sparsity: one
/// shared block map (the ELL pattern is shape-derived, identical across
/// heads) over a batched packed compressed stack.
#[derive(Clone, Debug)]
pub struct EllNmBatch<T> {
    /// Which column blocks are active per row block (shared by every panel).
    pub ell: BlockedEll,
    /// N:M-compressed packed scores for every panel.
    pub packed: NmBatch<T>,
}

impl<T: Scalar> EllNmBatch<T> {
    /// Overall density (active fraction × N/M).
    pub fn density(&self) -> f64 {
        self.ell.hybrid_density(self.packed.pattern().density())
    }

    /// Total compressed bytes across the stack (nonzeros + N:M metadata +
    /// the shared ELL table).
    pub fn bytes(&self) -> usize {
        self.packed.bytes() + self.ell.row_blocks() * self.ell.ell_width() * 4
    }
}

/// Check a hybrid fused SDDMM's shapes against its block map and record
/// its one launch: a single profile of exactly `batch ×` the per-panel
/// charge, where only active tiles compute and load operands. Returns the
/// packed row width.
fn record_ell_sddmm<T: Scalar>(
    ctx: &mut GpuCtx,
    ell: &BlockedEll,
    pattern: NmPattern,
    (batch, rows, kn, d): Shape,
    k_cols: usize,
) -> usize {
    assert_eq!(d, k_cols);
    assert_eq!(rows, ell.rows());
    assert_eq!(kn, ell.cols());
    let b = ell.block();
    assert_eq!(b % pattern.m(), 0, "block size must be a multiple of M");
    let packed_cols = ell.ell_width() * b;
    let kept_per_row = pattern.kept_per_row(packed_cols);
    let groups_per_row = packed_cols / pattern.m();
    let active_tiles = (ell.row_blocks() * ell.ell_width()) as u64;
    let reads = active_tiles * (2 * b * d) as u64 * T::BYTES as u64;
    let nz_bytes = (rows * kept_per_row * T::BYTES) as u64;
    let meta_bytes = ((rows * groups_per_row) as u64 * 4).div_ceil(8);
    let macs = active_tiles * (b * b * d) as u64;
    let groups = (rows * groups_per_row) as u64;
    let b64 = batch as u64;
    ctx.record(
        KernelProfile::new("sddmm_ell_nm_fused", Stage::Qk)
            .with_traffic(b64 * reads, b64 * (nz_bytes + meta_bytes))
            .with_tc(b64 * macs, dense_class::<T>())
            .with_alu(b64 * groups * 12),
    );
    packed_cols
}

/// Fused SDDMM + N:M prune restricted to the active blocks of `ell`.
///
/// Inactive blocks are never computed (their tiles are skipped in the launch
/// grid), never written, and act as −∞ for the subsequent softmax. The
/// one-panel case of [`sddmm_ell_nm_fused_batched`]'s exec body.
pub fn sddmm_ell_nm_fused<T: Scalar>(
    ctx: &mut GpuCtx,
    q: &Matrix<T>,
    k: &Matrix<T>,
    scale: f32,
    pattern: NmPattern,
    ell: &BlockedEll,
) -> EllNm<T> {
    let shape = (1, q.rows(), k.rows(), q.cols());
    let packed_cols = record_ell_sddmm::<T>(ctx, ell, pattern, shape, k.cols());
    let packed = if ctx.exec {
        let (nz, codes) = ell_sddmm_exec(pattern, ell, shape, q.as_slice(), k.as_slice(), scale);
        NmCompressed::from_parts(pattern, q.rows(), packed_cols, nz, codes)
    } else {
        NmCompressed::zeros(pattern, q.rows(), packed_cols)
    };
    EllNm {
        ell: ell.clone(),
        packed,
    }
}

/// Batched hybrid fused SDDMM over a whole B×H stack in **one launch**: a
/// single profile of exactly `batch ×` the per-panel
/// [`sddmm_ell_nm_fused`] cost and the same exec body.
pub fn sddmm_ell_nm_fused_batched<T: Scalar>(
    ctx: &mut GpuCtx,
    q: &BatchedMatrix<T>,
    k: &BatchedMatrix<T>,
    scale: f32,
    pattern: NmPattern,
    ell: &BlockedEll,
) -> EllNmBatch<T> {
    let (batch, rows, d) = q.shape();
    assert_eq!(batch, k.batch(), "batch sizes differ");
    let shape = (batch, rows, k.rows(), d);
    let packed_cols = record_ell_sddmm::<T>(ctx, ell, pattern, shape, k.cols());
    let packed = if ctx.exec {
        let (nz, codes) = ell_sddmm_exec(pattern, ell, shape, q.as_slice(), k.as_slice(), scale);
        NmBatch::from_parts(pattern, batch, rows, packed_cols, nz, codes)
    } else {
        NmBatch::charge_only(pattern, batch, rows, packed_cols)
    };
    EllNmBatch {
        ell: ell.clone(),
        packed,
    }
}

/// The one hybrid SDDMM exec body, over borrowed slices: `batch` stacked
/// `rows × d` Q panels against their `kn × d` K panels, K widened and
/// transposed once per call, one pool fan-out over (panel, row-tile) work
/// items. Each packed score row accumulates its active blocks as an
/// [`micro::axpy`] outer product (serial k-order, so the packed scores are
/// bit-identical to the dense ones) and is pruned by the fused SDDMM's
/// epilogue.
fn ell_sddmm_exec<T: Scalar>(
    pattern: NmPattern,
    ell: &BlockedEll,
    (batch, rows, kn, d): Shape,
    q: &[T],
    k: &[T],
    scale: f32,
) -> (Vec<T>, Vec<u8>) {
    let b = ell.block();
    let packed_cols = ell.ell_width() * b;
    let kept_per_row = pattern.kept_per_row(packed_cols);
    let groups_per_row = packed_cols / pattern.m();
    let qw = micro::widen(q);
    let kt = micro::widen_transposed(k, batch, kn, d);
    let mut nonzeros = vec![T::zero(); batch * rows * kept_per_row];
    let mut codes = vec![0u8; batch * rows * groups_per_row];
    fan_out2(
        &mut nonzeros,
        rows * kept_per_row,
        ROW_TILE * kept_per_row,
        &mut codes,
        rows * groups_per_row,
        ROW_TILE * groups_per_row,
        |p, e0, nz_chunk, code_chunk| {
            let kt_p = &kt[p * d * kn..(p + 1) * d * kn];
            let mut acc = scratch_f32_stale(packed_cols);
            let rows_here = nz_chunk
                .chunks_exact_mut(kept_per_row)
                .zip(code_chunk.chunks_exact_mut(groups_per_row));
            for (local, (nz_row, code_row)) in rows_here.enumerate() {
                let r = e0 / kept_per_row + local;
                let qrow = &qw[(p * rows + r) * d..(p * rows + r + 1) * d];
                acc.fill(0.0);
                for (kk, &qv) in qrow.iter().enumerate() {
                    let krow = &kt_p[kk * kn..(kk + 1) * kn];
                    for (slot, &cb) in ell.row_active(r / b).iter().enumerate() {
                        let col0 = cb as usize * b;
                        let acc_slot = &mut acc[slot * b..(slot + 1) * b];
                        micro::axpy(acc_slot, qv, &krow[col0..col0 + b]);
                    }
                }
                sddmm::prune_rows_dispatch(pattern, &acc, scale, nz_row, code_row);
            }
        },
    );
    (nonzeros, codes)
}

/// Softmax over the packed compressed rows (inactive blocks contribute
/// nothing, kept entries normalise to 1).
pub fn softmax_ell_nm<T: Scalar>(ctx: &mut GpuCtx, a: &mut EllNm<T>) {
    crate::softmax::softmax_nm(ctx, &mut a.packed);
}

/// Batched softmax over the packed compressed stack (one launch for every
/// panel's rows).
pub fn softmax_ell_nm_batched<T: Scalar>(ctx: &mut GpuCtx, a: &mut EllNmBatch<T>) {
    crate::softmax::softmax_nm_batched(ctx, &mut a.packed);
}

/// A packed compressed panel or stack as the hybrid SpMM reads it: the
/// pattern, the packed row width, the nonzeros and the codes.
type Packed<'a, T> = (NmPattern, usize, &'a [T], &'a [u8]);

/// Check a hybrid SpMM's V height against its block map and record its
/// one launch: like `spmm_nm`, but only active-block V panels are loaded;
/// a single profile of exactly `batch ×` the per-panel charge.
fn record_ell_spmm<T: Scalar>(
    ctx: &mut GpuCtx,
    ell: &BlockedEll,
    (batch, rows, vr, d): Shape,
    (pattern, packed_cols, ..): Packed<'_, T>,
) {
    assert_eq!(vr, ell.cols());
    let tm = ctx.tile_for(rows) as u64;
    let tiles_m = (rows as u64).div_ceil(tm);
    let kept = pattern.kept_per_row(packed_cols);
    let kept_row_bytes = (kept * T::BYTES) as u64;
    let meta_row_bytes = ((packed_cols / pattern.m()) as u64 * 4).div_ceil(8);
    let packed_inner = (ell.ell_width() * ell.block()) as u64;
    let v_panel = packed_inner * d as u64 * T::BYTES as u64;
    let reads = tiles_m * (tm * (kept_row_bytes + meta_row_bytes) + v_panel);
    let writes = (rows * d * T::BYTES) as u64;
    let phys_macs = (rows * kept * d) as u64;
    let b64 = batch as u64;
    ctx.record(
        KernelProfile::new("spmm_ell_nm", Stage::Av)
            .with_traffic(b64 * reads, b64 * writes)
            .with_tc(b64 * phys_macs, sparse_class::<T>()),
    );
}

/// `O = Aᶜ · V` for hybrid blocked-ELL × N:M `A`: the one-panel case of
/// [`spmm_ell_nm_batched`]'s exec body.
pub fn spmm_ell_nm<T: Scalar>(ctx: &mut GpuCtx, a: &EllNm<T>, v: &Matrix<T>) -> Matrix<T> {
    let p = &a.packed;
    let packed = (p.pattern(), p.cols(), p.nonzeros(), p.codes());
    let shape = (1, p.rows(), v.rows(), v.cols());
    record_ell_spmm(ctx, &a.ell, shape, packed);
    if !ctx.exec {
        return Matrix::zeros(p.rows(), v.cols());
    }
    let out = ell_spmm_exec(&a.ell, shape, packed, v.as_slice());
    Matrix::from_vec(p.rows(), v.cols(), out)
}

/// Batched `O = Aᶜ · V` for hybrid blocked-ELL × N:M stacks in one launch
/// (single profile = `batch ×` the per-panel [`spmm_ell_nm`] cost); the
/// same exec body as [`spmm_ell_nm`].
pub fn spmm_ell_nm_batched<T: Scalar>(
    ctx: &mut GpuCtx,
    a: &EllNmBatch<T>,
    v: &BatchedMatrix<T>,
) -> BatchedMatrix<T> {
    let p = &a.packed;
    assert_eq!(p.batch(), v.batch(), "batch sizes differ");
    let packed = (p.pattern(), p.cols(), p.nonzeros(), p.codes());
    let shape = (p.batch(), p.rows(), v.rows(), v.cols());
    record_ell_spmm(ctx, &a.ell, shape, packed);
    if !ctx.exec {
        return BatchedMatrix::charge_only(p.batch(), p.rows(), v.cols());
    }
    let out = ell_spmm_exec(&a.ell, shape, packed, v.as_slice());
    BatchedMatrix::from_vec(p.batch(), p.rows(), v.cols(), out)
}

/// The one hybrid SpMM exec body, over borrowed slices: `batch` stacked
/// packed compressed panels (`rows × packed_cols`) against their `vr × d`
/// V panels, one pool fan-out over (panel, row-tile) work items. Each
/// output row scans its codes, maps every kept packed column to its dense
/// column through the row block's active list, and [`micro::axpy`]s that
/// V row into an f32 accumulator in ascending column order.
fn ell_spmm_exec<T: Scalar>(
    ell: &BlockedEll,
    (batch, rows, vr, d): Shape,
    (pattern, packed_cols, nonzeros, codes): Packed<'_, T>,
    v: &[T],
) -> Vec<T> {
    let b = ell.block();
    let (kept, gpr) = (pattern.kept_per_row(packed_cols), packed_cols / pattern.m());
    let vw = micro::widen(v);
    let mut out = vec![T::zero(); batch * rows * d];
    fan_out(&mut out, rows * d, ROW_TILE * d, |p, e0, chunk| {
        let vw_p = &vw[p * vr * d..(p + 1) * vr * d];
        let mut acc = scratch_f32_stale(d);
        for (local, orow) in chunk.chunks_mut(d).enumerate() {
            let r = e0 / d + local;
            let (row, active) = (p * rows + r, ell.row_active(r / b));
            acc.fill(0.0);
            let (row_codes, row_nz) = (
                &codes[row * gpr..(row + 1) * gpr],
                &nonzeros[row * kept..(row + 1) * kept],
            );
            scan_codes(pattern.m(), row_codes, row_nz, |pc, val| {
                let col = active[pc / b] as usize * b + pc % b;
                micro::axpy(&mut acc, val.to_mul(), &vw_p[col * d..(col + 1) * d]);
            });
            for (o, &x) in orow.iter_mut().zip(acc.iter()) {
                *o = T::from_acc(x);
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfss_tensor::Rng;

    fn setup(n: usize, d: usize, seed: u64) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
        let mut rng = Rng::new(seed);
        (
            Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
            Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
            Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
        )
    }

    /// Reference: dense scores with −∞ outside active blocks, softmax, N:M
    /// prune inside active blocks, times V.
    fn reference_ell_attention(
        q: &Matrix<f32>,
        k: &Matrix<f32>,
        v: &Matrix<f32>,
        ell: &BlockedEll,
        pattern: NmPattern,
        scale: f32,
    ) -> Matrix<f32> {
        let n = q.rows();
        let scores = q.matmul_ref(&k.transpose());
        let mask = ell.to_mask();
        let b = ell.block();
        let mut out_weights = Matrix::<f32>::zeros(n, n);
        for r in 0..n {
            let rb = r / b;
            // Collect packed active entries.
            let mut packed: Vec<(usize, f32)> = Vec::new();
            for &cb in ell.row_active(rb) {
                for j in 0..b {
                    let c = cb as usize * b + j;
                    assert_eq!(mask.get(r, c), 1.0);
                    packed.push((c, scores.get(r, c) * scale));
                }
            }
            // Prune N:M over the packed order.
            let vals: Vec<f32> = packed.iter().map(|&(_, s)| s).collect();
            let mut keep = vec![false; vals.len()];
            pattern.mask_row(&vals, &mut keep);
            let kept: Vec<(usize, f32)> = packed
                .iter()
                .zip(&keep)
                .filter(|(_, &kp)| kp)
                .map(|(&(c, s), _)| (c, s))
                .collect();
            let probs =
                dfss_tensor::math::softmax(&kept.iter().map(|&(_, s)| s).collect::<Vec<f32>>());
            for ((c, _), p) in kept.into_iter().zip(probs) {
                out_weights.set(r, c, p);
            }
        }
        out_weights.matmul_ref(v)
    }

    #[test]
    fn hybrid_pipeline_matches_reference() {
        let n = 64;
        let d = 16;
        let (q, k, v) = setup(n, d, 1);
        let ell = BlockedEll::sliding_window(n, n, 16, 2);
        let mut ctx = GpuCtx::a100();
        let mut a = sddmm_ell_nm_fused(&mut ctx, &q, &k, 0.25, NmPattern::P1_2, &ell);
        softmax_ell_nm(&mut ctx, &mut a);
        let o = spmm_ell_nm(&mut ctx, &a, &v);
        let reference = reference_ell_attention(&q, &k, &v, &ell, NmPattern::P1_2, 0.25);
        assert!(
            o.max_abs_diff(&reference) < 1e-2,
            "diff {}",
            o.max_abs_diff(&reference)
        );
    }

    #[test]
    fn packed_density_halves_active_blocks() {
        let n = 64;
        let (q, k, _) = setup(n, 16, 2);
        let ell = BlockedEll::sliding_window(n, n, 16, 2);
        let mut ctx = GpuCtx::a100();
        let a = sddmm_ell_nm_fused(&mut ctx, &q, &k, 1.0, NmPattern::P1_2, &ell);
        // 2 of 4 blocks active × 1/2 N:M = 0.25 density.
        assert!((a.density() - 0.25).abs() < 1e-12);
        assert_eq!(a.packed.kept_per_row(), 16);
    }

    #[test]
    fn skipped_blocks_save_traffic_and_macs() {
        let n = 128;
        let (q, k, _) = setup(n, 32, 3);
        let full = BlockedEll::dense(n, n, 32);
        let sparse = BlockedEll::sliding_window(n, n, 32, 2);
        let mut cf = GpuCtx::a100();
        let mut cs = GpuCtx::a100();
        let _ = sddmm_ell_nm_fused(&mut cf, &q, &k, 1.0, NmPattern::P1_2, &full);
        let _ = sddmm_ell_nm_fused(&mut cs, &q, &k, 1.0, NmPattern::P1_2, &sparse);
        assert!(cs.timeline.total_bytes() < cf.timeline.total_bytes());
        assert_eq!(
            cs.timeline.entries()[0].tc_macs * 2,
            cf.timeline.entries()[0].tc_macs
        );
    }

    /// With every block active the packed order is the dense order, so the
    /// hybrid SDDMM must equal the plain fused SDDMM bit for bit — scores,
    /// scale, selection and rounding — for every pattern and dtype, and a
    /// NaN in Q (a whole NaN score row) selects alike in both.
    fn check_dense_ell_equals_plain_fused_sddmm<T: Scalar>() {
        let n = 64;
        let mut rng = Rng::new(4);
        let mut q = Matrix::<T>::random_normal(n, 16, 0.0, 1.0, &mut rng);
        let k = Matrix::<T>::random_normal(n, 16, 0.0, 1.0, &mut rng);
        q.set(9, 5, T::from_f32(f32::NAN));
        let ell = BlockedEll::dense(n, n, 16);
        let bits = |v: &[T]| v.iter().map(|x| x.to_f32().to_bits()).collect::<Vec<_>>();
        for pattern in [NmPattern::P1_2, NmPattern::P2_4, NmPattern::new(1, 4)] {
            let mut c1 = GpuCtx::a100();
            let mut c2 = GpuCtx::a100();
            let hybrid = sddmm_ell_nm_fused(&mut c1, &q, &k, 0.25, pattern, &ell);
            let plain = crate::sddmm::sddmm_nm_fused(&mut c2, &q, &k, 0.25, pattern);
            let what = format!("{} {pattern}", T::NAME);
            assert_eq!(hybrid.packed.codes(), plain.codes(), "{what} codes");
            let (h, p) = (hybrid.packed.nonzeros(), plain.nonzeros());
            assert_eq!(bits(h), bits(p), "{what} values");
            assert!(h[9 * pattern.kept_per_row(n)].to_f32().is_nan(), "{what}");
        }
    }

    #[test]
    fn dense_ell_equals_plain_fused_sddmm() {
        check_dense_ell_equals_plain_fused_sddmm::<f32>();
        check_dense_ell_equals_plain_fused_sddmm::<dfss_tensor::Bf16>();
    }

    #[test]
    fn softmax_rows_sum_to_one_over_active() {
        let n = 64;
        let (q, k, _) = setup(n, 16, 5);
        let ell = BlockedEll::sliding_window(n, n, 16, 3);
        let mut ctx = GpuCtx::a100();
        let mut a = sddmm_ell_nm_fused(&mut ctx, &q, &k, 1.0, NmPattern::P2_4, &ell);
        softmax_ell_nm(&mut ctx, &mut a);
        for r in 0..n {
            let s: f32 = a.packed.row_nonzeros(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }
}
