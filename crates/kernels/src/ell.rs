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

use crate::ctx::{dense_class, sparse_class, GpuCtx};
use crate::micro;
use crate::spmm::ROW_CHUNK;
use dfss_gpusim::{KernelProfile, Stage};
use dfss_nmsparse::{BlockedEll, NmBatch, NmCompressed, NmPattern};
use dfss_tensor::{scratch_f32, scratch_f32_stale, BatchedMatrix, Matrix, Scalar};
use rayon::prelude::*;

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
    /// Dense column index of packed column `pc` for a row in row-block `rb`.
    #[inline]
    pub fn dense_col(&self, rb: usize, pc: usize) -> usize {
        let b = self.ell.block();
        let active = self.ell.row_active(rb);
        active[pc / b] as usize * b + pc % b
    }

    /// Overall density (active fraction × N/M).
    pub fn density(&self) -> f64 {
        self.ell.hybrid_density(self.packed.pattern().density())
    }

    /// Total compressed bytes (nonzeros + N:M metadata + ELL table).
    pub fn bytes(&self) -> usize {
        self.packed.bytes() + self.ell.row_blocks() * self.ell.ell_width() * 4
    }
}

/// Per-panel cost counters of the hybrid fused SDDMM (shared by the single
/// and batched entry points so the batched charge is exactly `batch ×`
/// this).
fn ell_sddmm_charge<T: Scalar>(
    ell: &BlockedEll,
    rows: usize,
    d: usize,
    pattern: NmPattern,
) -> (u64, u64, u64, u64) {
    let b = ell.block();
    let packed_cols = ell.ell_width() * b;
    let kept_per_row = pattern.kept_per_row(packed_cols);
    let groups_per_row = packed_cols / pattern.m();
    let active_tiles = (ell.row_blocks() * ell.ell_width()) as u64;
    let reads = active_tiles * (2 * b * d) as u64 * T::BYTES as u64;
    let nz_bytes = (rows * kept_per_row * T::BYTES) as u64;
    let meta_bytes = ((rows * groups_per_row) as u64 * 4).div_ceil(8);
    let macs = active_tiles * (b * b * d) as u64;
    let groups = (rows * groups_per_row) as u64;
    (reads, nz_bytes + meta_bytes, macs, groups)
}

/// Fused SDDMM + N:M prune restricted to the active blocks of `ell`.
///
/// Inactive blocks are never computed (their tiles are skipped in the launch
/// grid), never written, and act as −∞ for the subsequent softmax.
pub fn sddmm_ell_nm_fused<T: Scalar>(
    ctx: &mut GpuCtx,
    q: &Matrix<T>,
    k: &Matrix<T>,
    scale: f32,
    pattern: NmPattern,
    ell: &BlockedEll,
) -> EllNm<T> {
    let (rows, d) = q.shape();
    let (kn, dk) = k.shape();
    assert_eq!(d, dk);
    assert_eq!(rows, ell.rows());
    assert_eq!(kn, ell.cols());
    let b = ell.block();
    assert_eq!(b % pattern.m(), 0, "block size must be a multiple of M");

    let packed_cols = ell.ell_width() * b;
    let kept_per_row = pattern.kept_per_row(packed_cols);
    let groups_per_row = packed_cols / pattern.m();

    // Simulated cost: only active tiles compute & load operands.
    let (reads, writes, macs, groups) = ell_sddmm_charge::<T>(ell, rows, d, pattern);
    ctx.record(
        KernelProfile::new("sddmm_ell_nm_fused", Stage::Qk)
            .with_traffic(reads, writes)
            .with_tc(macs, dense_class::<T>())
            .with_alu(groups * 12),
    );

    if !ctx.exec {
        let code = (0..pattern.n()).fold(0u8, |acc, i| acc | (1 << i));
        return EllNm {
            ell: ell.clone(),
            packed: NmCompressed::from_parts(
                pattern,
                rows,
                packed_cols,
                vec![T::zero(); rows * kept_per_row],
                vec![code; rows * groups_per_row],
            ),
        };
    }
    // Execution: per row, compute scores for active blocks only, packed.
    // Scores accumulate as an outer product over the widen-transposed K
    // panel — the same `axpy` microkernel (same serial-k-order sums) as the
    // dense GEMM and plain fused SDDMM, so packed scores are bit-identical
    // to theirs.
    let qw = micro::widen(q.as_slice());
    let kt = micro::widen_transposed(k);
    let mut nonzeros = vec![T::zero(); rows * kept_per_row];
    let mut codes = vec![0u8; rows * groups_per_row];

    nonzeros
        .par_chunks_mut(kept_per_row)
        .zip(codes.par_chunks_mut(groups_per_row))
        .enumerate()
        .for_each(|(i, (nz_row, code_row))| {
            let mut acc = scratch_f32(packed_cols);
            ell_sddmm_row(
                &qw[i * d..(i + 1) * d],
                &kt,
                kn,
                ell,
                i / b,
                b,
                pattern,
                scale,
                &mut acc,
                nz_row,
                code_row,
            );
        });

    EllNm {
        ell: ell.clone(),
        packed: NmCompressed::from_parts(pattern, rows, packed_cols, nonzeros, codes),
    }
}

/// One packed score row of the hybrid SDDMM: active-block outer-product
/// accumulation into `acc` (caller-zeroed) followed by the N:M prune.
/// Shared by the single-head and batched entry points so both produce
/// bit-identical rows.
#[allow(clippy::too_many_arguments)]
fn ell_sddmm_row<T: Scalar>(
    qrow: &[f32],
    kt: &[f32],
    kn: usize,
    ell: &BlockedEll,
    rb: usize,
    b: usize,
    pattern: NmPattern,
    scale: f32,
    acc: &mut [f32],
    nz_row: &mut [T],
    code_row: &mut [u8],
) {
    for (kk, &qv) in qrow.iter().enumerate() {
        let krow = &kt[kk * kn..(kk + 1) * kn];
        for (slot, &cb) in ell.row_active(rb).iter().enumerate() {
            let col0 = cb as usize * b;
            micro::axpy(
                &mut acc[slot * b..(slot + 1) * b],
                qv,
                &krow[col0..col0 + b],
            );
        }
    }
    // Prune the packed row.
    let mut nz_pos = 0usize;
    let mut kept = [0usize; dfss_nmsparse::MAX_M];
    for (g, chunk) in acc.chunks_exact(pattern.m()).enumerate() {
        let n_kept = pattern.select_group_into(chunk, &mut kept);
        let mut code = 0u8;
        for &kidx in &kept[..n_kept] {
            code |= 1 << kidx;
            nz_row[nz_pos] = T::from_acc(chunk[kidx] * scale);
            nz_pos += 1;
        }
        code_row[g] = code;
    }
}

/// Softmax over the packed compressed rows (inactive blocks contribute
/// nothing, kept entries normalise to 1).
pub fn softmax_ell_nm<T: Scalar>(ctx: &mut GpuCtx, a: &mut EllNm<T>) {
    crate::softmax::softmax_nm(ctx, &mut a.packed);
}

/// Per-panel cost counters of the hybrid SpMM (tiling computed once, shared
/// by the single and batched entry points).
fn ell_spmm_charge<T: Scalar>(
    ctx: &GpuCtx,
    ell: &BlockedEll,
    rows: usize,
    d: usize,
    kept_per_row: usize,
    groups_per_row: usize,
) -> (u64, u64, u64) {
    // Like spmm_nm but only active-block V panels are loaded.
    let tm = ctx.tile_for(rows) as u64;
    let tiles_m = (rows as u64).div_ceil(tm);
    let kept_row_bytes = (kept_per_row * T::BYTES) as u64;
    let meta_row_bytes = (groups_per_row as u64 * 4).div_ceil(8);
    let packed_inner = (ell.ell_width() * ell.block()) as u64;
    let v_panel = packed_inner * d as u64 * T::BYTES as u64;
    let reads = tiles_m * (tm * (kept_row_bytes + meta_row_bytes) + v_panel);
    let writes = (rows * d * T::BYTES) as u64;
    let phys_macs = (rows * kept_per_row * d) as u64;
    (reads, writes, phys_macs)
}

/// One output row of the hybrid SpMM (shared single/batched): packed scan,
/// dense-column gather, `axpy` into the caller's zeroed accumulator.
fn ell_spmm_row<T: Scalar>(
    packed_row: impl FnOnce(&mut dyn FnMut(usize, T)),
    ell: &BlockedEll,
    rb: usize,
    vw: &[f32],
    d: usize,
    acc: &mut [f32],
    orow: &mut [T],
) {
    let b = ell.block();
    acc.iter_mut().for_each(|x| *x = 0.0);
    packed_row(&mut |pc, val: T| {
        let active = ell.row_active(rb);
        let col = active[pc / b] as usize * b + pc % b;
        micro::axpy(acc, val.to_mul(), &vw[col * d..(col + 1) * d]);
    });
    for (o, &x) in orow.iter_mut().zip(acc.iter()) {
        *o = T::from_acc(x);
    }
}

/// `O = Aᶜ · V` for hybrid blocked-ELL × N:M `A`.
pub fn spmm_ell_nm<T: Scalar>(ctx: &mut GpuCtx, a: &EllNm<T>, v: &Matrix<T>) -> Matrix<T> {
    let rows = a.packed.rows();
    let (vr, d) = v.shape();
    assert_eq!(vr, a.ell.cols());
    let b = a.ell.block();

    let (reads, writes, phys_macs) = ell_spmm_charge::<T>(
        ctx,
        &a.ell,
        rows,
        d,
        a.packed.kept_per_row(),
        a.packed.groups_per_row(),
    );
    ctx.record(
        KernelProfile::new("spmm_ell_nm", Stage::Av)
            .with_traffic(reads, writes)
            .with_tc(phys_macs, sparse_class::<T>()),
    );
    if !ctx.exec {
        return Matrix::zeros(rows, d);
    }

    let vw = micro::widen(v.as_slice());
    let mut out = vec![T::zero(); rows * d];
    // Batch rows per work item (one scratch accumulator per chunk).
    out.par_chunks_mut(d * ROW_CHUNK)
        .enumerate()
        .for_each(|(ci, chunk)| {
            let mut acc = scratch_f32_stale(d);
            for (local, orow) in chunk.chunks_mut(d).enumerate() {
                let r = ci * ROW_CHUNK + local;
                ell_spmm_row(
                    |f| a.packed.scan_row(r, f),
                    &a.ell,
                    r / b,
                    &vw,
                    d,
                    &mut acc,
                    orow,
                );
            }
        });
    Matrix::from_vec(rows, d, out)
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
    /// Copy panel `b` out as a standalone [`EllNm`].
    pub fn to_ell_nm(&self, b: usize) -> EllNm<T> {
        EllNm {
            ell: self.ell.clone(),
            packed: self.packed.to_compressed(b),
        }
    }

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

/// Batched hybrid fused SDDMM over a whole B×H stack in **one launch**: a
/// single profile of exactly `batch ×` the per-panel
/// [`sddmm_ell_nm_fused`] cost and one pool fan-out over (panel, row-tile)
/// work items. Bit-identical to a per-panel loop.
pub fn sddmm_ell_nm_fused_batched<T: Scalar>(
    ctx: &mut GpuCtx,
    q: &BatchedMatrix<T>,
    k: &BatchedMatrix<T>,
    scale: f32,
    pattern: NmPattern,
    ell: &BlockedEll,
) -> EllNmBatch<T> {
    let (batch, rows, d) = q.shape();
    let (bb, kn, dk) = k.shape();
    assert_eq!(batch, bb, "batch sizes differ");
    assert_eq!(d, dk);
    assert_eq!(rows, ell.rows());
    assert_eq!(kn, ell.cols());
    let b = ell.block();
    assert_eq!(b % pattern.m(), 0, "block size must be a multiple of M");

    let packed_cols = ell.ell_width() * b;
    let kept_per_row = pattern.kept_per_row(packed_cols);
    let groups_per_row = packed_cols / pattern.m();

    let (reads, writes, macs, groups) = ell_sddmm_charge::<T>(ell, rows, d, pattern);
    let b64 = batch as u64;
    ctx.record(
        KernelProfile::new("sddmm_ell_nm_fused", Stage::Qk)
            .with_traffic(b64 * reads, b64 * writes)
            .with_tc(b64 * macs, dense_class::<T>())
            .with_alu(b64 * groups * 12),
    );
    if !ctx.exec {
        return EllNmBatch {
            ell: ell.clone(),
            packed: NmBatch::charge_only(pattern, batch, rows, packed_cols),
        };
    }

    let qw = micro::widen(q.as_slice());
    // Per-panel widen-transposed K (same layout the single-head kernel
    // streams) packed back to back.
    let mut kts = dfss_tensor::scratch_f32(batch * d * kn);
    for p in 0..batch {
        let dst = &mut kts[p * d * kn..(p + 1) * d * kn];
        for (j, row) in k.panel(p).chunks_exact(d.max(1)).enumerate() {
            for (kk, v) in row.iter().enumerate() {
                dst[kk * kn + j] = v.to_mul();
            }
        }
    }
    let mut nonzeros = vec![T::zero(); batch * rows * kept_per_row];
    let mut codes = vec![0u8; batch * rows * groups_per_row];
    crate::batched::fan_out2(
        &mut nonzeros,
        rows * kept_per_row,
        crate::batched::ROW_TILE * kept_per_row,
        &mut codes,
        rows * groups_per_row,
        crate::batched::ROW_TILE * groups_per_row,
        |p, e0, nz_chunk, code_chunk| {
            let qw_p = &qw[p * rows * d..(p + 1) * rows * d];
            let kt_p = &kts[p * d * kn..(p + 1) * d * kn];
            let row0 = e0 / kept_per_row;
            let rows_here = nz_chunk.len() / kept_per_row;
            let mut acc = scratch_f32_stale(packed_cols);
            for local in 0..rows_here {
                let r = row0 + local;
                acc.iter_mut().for_each(|x| *x = 0.0);
                ell_sddmm_row(
                    &qw_p[r * d..(r + 1) * d],
                    kt_p,
                    kn,
                    ell,
                    r / b,
                    b,
                    pattern,
                    scale,
                    &mut acc,
                    &mut nz_chunk[local * kept_per_row..(local + 1) * kept_per_row],
                    &mut code_chunk[local * groups_per_row..(local + 1) * groups_per_row],
                );
            }
        },
    );
    EllNmBatch {
        ell: ell.clone(),
        packed: NmBatch::from_parts(pattern, batch, rows, packed_cols, nonzeros, codes),
    }
}

/// Batched softmax over the packed compressed stack (one launch for every
/// panel's rows).
pub fn softmax_ell_nm_batched<T: Scalar>(ctx: &mut GpuCtx, a: &mut EllNmBatch<T>) {
    crate::softmax::softmax_nm_batched(ctx, &mut a.packed);
}

/// Batched `O = Aᶜ · V` for hybrid blocked-ELL × N:M stacks in one launch
/// (single profile = `batch ×` the per-panel [`spmm_ell_nm`] cost, tiling
/// hoisted). Bit-identical to a per-panel loop.
pub fn spmm_ell_nm_batched<T: Scalar>(
    ctx: &mut GpuCtx,
    a: &EllNmBatch<T>,
    v: &BatchedMatrix<T>,
) -> BatchedMatrix<T> {
    let (batch, rows) = (a.packed.batch(), a.packed.rows());
    let (bb, vr, d) = v.shape();
    assert_eq!(batch, bb, "batch sizes differ");
    assert_eq!(vr, a.ell.cols());
    let b = a.ell.block();

    let (reads, writes, phys_macs) = ell_spmm_charge::<T>(
        ctx,
        &a.ell,
        rows,
        d,
        a.packed.kept_per_row(),
        a.packed.groups_per_row(),
    );
    let b64 = batch as u64;
    ctx.record(
        KernelProfile::new("spmm_ell_nm", Stage::Av)
            .with_traffic(b64 * reads, b64 * writes)
            .with_tc(b64 * phys_macs, sparse_class::<T>()),
    );
    if !ctx.exec {
        return BatchedMatrix::charge_only(batch, rows, d);
    }

    let vw = micro::widen(v.as_slice());
    let mut out = vec![T::zero(); batch * rows * d];
    crate::batched::fan_out(
        &mut out,
        rows * d,
        crate::batched::ROW_TILE * d,
        |p, e0, chunk| {
            let vw_p = &vw[p * vr * d..(p + 1) * vr * d];
            let row0 = e0 / d;
            let mut acc = scratch_f32_stale(d);
            for (local, orow) in chunk.chunks_mut(d).enumerate() {
                let r = row0 + local;
                ell_spmm_row(
                    |f| a.packed.scan_row(p, r, f),
                    &a.ell,
                    r / b,
                    vw_p,
                    d,
                    &mut acc,
                    orow,
                );
            }
        },
    );
    BatchedMatrix::from_vec(batch, rows, d, out)
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

    #[test]
    fn dense_ell_equals_plain_fused_sddmm() {
        let n = 64;
        let (q, k, _) = setup(n, 16, 4);
        let ell = BlockedEll::dense(n, n, 16);
        let mut c1 = GpuCtx::a100();
        let mut c2 = GpuCtx::a100();
        let hybrid = sddmm_ell_nm_fused(&mut c1, &q, &k, 1.0, NmPattern::P1_2, &ell);
        let plain = crate::sddmm::sddmm_nm_fused(&mut c2, &q, &k, 1.0, NmPattern::P1_2);
        // With all blocks active, packed order == dense order.
        assert_eq!(hybrid.packed.codes(), plain.codes());
        assert!(hybrid.packed.decompress().max_abs_diff(&plain.decompress()) < 1e-5);
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
