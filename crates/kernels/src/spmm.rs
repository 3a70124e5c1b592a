//! Sparse × dense matrix multiplication kernels.
//!
//! * [`spmm_nm`] — the compressed-A·V product on the simulated **sparse
//!   tensor core**: metadata selects which V rows each nonzero multiplies;
//!   physical MACs are halved and run at the sparse-unit rate (the paper's
//!   realised 1.7× SpMM speedup, §3.2).
//! * [`spmm_csr`] — the explicit top-k baseline's SpMM under the vector
//!   tiling of Figure 10(B): the right-hand operand enjoys **no reuse**,
//!   which is the structural reason Proposition 4.3 bounds top-k speedup so
//!   tightly.

use crate::batched::ROW_TILE;
use crate::ctx::{sparse_class, GpuCtx};
use crate::decode;
use crate::micro;
use crate::simd;
use dfss_gpusim::{KernelProfile, Stage};
use dfss_nmsparse::{compressed_bytes, Csr, NmCompressed, NmPattern, NmRagged};
use dfss_tensor::{scratch_f32_stale, BatchedMatrix, Matrix, PagedPanel, RaggedBatch, Scalar};
use rayon::prelude::*;

/// Record one N:M SpMM launch over `batch` same-shape panels (`rows × inner`
/// compressed A against `inner × d` V): a single profile of exactly
/// `batch ×` the per-panel charge, shared by every entry point.
pub(crate) fn record_spmm_nm<T: Scalar>(
    ctx: &mut GpuCtx,
    pattern: NmPattern,
    batch: usize,
    rows: usize,
    inner: usize,
    d: usize,
) {
    // Block tiling like the dense GEMM, but the A panel is compressed
    // (nonzeros + metadata) and MACs run on the sparse unit.
    let (kept, groups) = (pattern.kept_per_row(inner), inner / pattern.m());
    let tm = ctx.tile_for(rows) as u64;
    let tn = ctx.tile_for(d) as u64;
    let tiles = (rows as u64).div_ceil(tm) * (d as u64).div_ceil(tn);
    let a_panel = tm * compressed_bytes::<T>(kept as u64, groups as u64);
    let v_panel = (inner as u64) * tn * T::BYTES as u64;
    let reads = tiles * (a_panel + v_panel);
    let writes = (rows * d * T::BYTES) as u64;
    let phys_macs = (rows * kept * d) as u64;
    let b64 = batch as u64;
    ctx.record(
        KernelProfile::new("spmm_nm", Stage::Av)
            .with_traffic(b64 * reads, b64 * writes)
            .with_tc(b64 * phys_macs, sparse_class::<T>()),
    );
}

/// `O = Aᶜ · V` where `Aᶜ` is N:M-compressed `n×n` and `V` is `n×d`.
pub fn spmm_nm<T: Scalar>(ctx: &mut GpuCtx, a: &NmCompressed<T>, v: &Matrix<T>) -> Matrix<T> {
    let rows = a.rows();
    let inner = a.cols();
    let (vr, d) = v.shape();
    assert_eq!(inner, vr, "A cols {} != V rows {vr}", inner);

    record_spmm_nm::<T>(ctx, a.pattern(), 1, rows, inner, d);
    if !ctx.exec {
        return Matrix::zeros(rows, d);
    }
    let out = spmm_nm_exec(
        a.pattern(),
        (1, rows, inner, d),
        a.nonzeros(),
        a.codes(),
        v.as_slice(),
    );
    Matrix::from_vec(rows, d, out)
}

/// The one N:M SpMM exec body, over borrowed slices: `batch` stacked
/// `rows × inner` compressed panels against their `inner × d` V panels.
/// One pool fan-out over (panel, row-tile) work items, each cut into
/// [`simd::TILE_ROWS`]-row register tiles of [`simd::spmm_tile`];
/// solo [`spmm_nm`] is the one-panel case. Per output element the terms add
/// in ascending group/lane order (the `scan_row` order), and nonzeros
/// convert with `to_mul` as the tile broadcasts them.
fn spmm_nm_exec<T: Scalar>(
    pattern: NmPattern,
    (batch, rows, inner, d): (usize, usize, usize, usize),
    nonzeros: &[T],
    codes: &[u8],
    v: &[T],
) -> Vec<T> {
    let vw = micro::widen(v);
    let kept = pattern.kept_per_row(inner);
    let gpr = inner / pattern.m();
    let backend = simd::active();
    let tile = simd::TILE_ROWS * d;
    let mut out = vec![T::zero(); batch * rows * d];
    crate::batched::fan_out(&mut out, rows * d, ROW_TILE * d, |p, e0, chunk| {
        let vw_p = &vw[p * inner * d..(p + 1) * inner * d];
        for (t, orows) in chunk.chunks_mut(tile).enumerate() {
            // Row index within the whole stack.
            let r = p * rows + e0 / d + t * simd::TILE_ROWS;
            let rcnt = orows.len() / d;
            simd::spmm_tile(
                backend,
                pattern,
                rcnt,
                &nonzeros[r * kept..(r + rcnt) * kept],
                &codes[r * gpr..(r + rcnt) * gpr],
                vw_p,
                d,
                orows,
            );
        }
    });
    out
}

/// Batched `O = Aᶜ · V` over a whole B×H stack in **one launch**: a single
/// profile of exactly `batch ×` the per-panel [`spmm_nm`] cost (tiling
/// hoisted out of the head loop) and one pool fan-out over (panel,
/// row-tile) work items — the same exec body as [`spmm_nm`]. `a` holds the
/// stack's scores as one [`NmCompressed`] of `batch · rows` rows (as
/// [`crate::sddmm::sddmm_nm_fused_batched`] returns them); the panel height
/// `rows` is `a.rows() / v.batch()`.
pub fn spmm_nm_batched<T: Scalar>(
    ctx: &mut GpuCtx,
    a: &NmCompressed<T>,
    v: &BatchedMatrix<T>,
) -> BatchedMatrix<T> {
    let (batch, vr, d) = v.shape();
    let inner = a.cols();
    // A zero-panel stack has zero rows: an empty result, not a division.
    let rows = a.rows().checked_div(batch).unwrap_or(0);
    assert_eq!(
        rows * batch,
        a.rows(),
        "A rows {} do not split into {batch} panels",
        a.rows()
    );
    assert_eq!(inner, vr, "A cols {inner} != V rows {vr}");

    record_spmm_nm::<T>(ctx, a.pattern(), batch, rows, inner, d);
    if !ctx.exec {
        return BatchedMatrix::charge_only(batch, rows, d);
    }
    let out = spmm_nm_exec(
        a.pattern(),
        (batch, rows, inner, d),
        a.nonzeros(),
        a.codes(),
        v.as_slice(),
    );
    BatchedMatrix::from_vec(batch, rows, d, out)
}

/// Per-stream cost counters `(reads, writes, macs)` of one decode SpMM:
/// the stream's compressed score row (kept values + metadata) against its
/// cached `len × d_v` V panel, one output row. Same tiled model as
/// [`spmm_nm`] with a one-row output grid; a ragged launch charges exactly
/// the per-stream sum. The V panel is charged at its stored element width
/// `S`; compressed scores and outputs stay at the compute width `T`.
fn spmm_decode_charge<T: Scalar, S: Scalar>(
    ctx: &GpuCtx,
    len: usize,
    d_v: usize,
    kept: usize,
    groups: usize,
) -> (u64, u64, u64) {
    let tn = ctx.tile_for(d_v) as u64;
    let tiles = (d_v as u64).div_ceil(tn);
    let a_row = compressed_bytes::<T>(kept as u64, groups as u64);
    let v_panel = len as u64 * tn * S::BYTES as u64;
    let reads = tiles * (a_row + v_panel);
    let writes = (d_v * T::BYTES) as u64;
    (reads, writes, (kept * d_v) as u64)
}

/// Ragged batched decode SpMM over a packed stack: the one-page-per-stream
/// case of [`spmm_nm_paged`].
pub fn spmm_nm_ragged<T: Scalar, S: Scalar>(
    ctx: &mut GpuCtx,
    a: &NmRagged<T>,
    v: &RaggedBatch<S>,
) -> Matrix<T> {
    spmm_nm_paged(ctx, a, &v.views(), v.cols())
}

/// Ragged batched decode SpMM: every stream's compressed score row against
/// its own cached V rows (width `d_v`), read in place through the stream's
/// [`PagedPanel`] view, in **one launch** — a single profile summing the
/// per-stream charges, one pool fan-out over streams. Returns the
/// `streams × d_v` output (one row per stream). Bit-identical to the
/// per-stream solo loop (shared inner routine).
pub fn spmm_nm_paged<T: Scalar, S: Scalar>(
    ctx: &mut GpuCtx,
    a: &NmRagged<T>,
    v: &[PagedPanel<'_, S>],
    d_v: usize,
) -> Matrix<T> {
    let streams = a.streams();
    assert_eq!(streams, v.len(), "stream counts differ");
    assert_eq!(a.lens(), decode::view_lens(v, d_v), "cached lengths differ");
    let (mut reads, mut writes, mut macs) = (0u64, 0u64, 0u64);
    for i in 0..streams {
        let (r, w, m) =
            spmm_decode_charge::<T, S>(ctx, a.len_of(i), d_v, a.kept_of(i), a.groups_of(i));
        reads += r;
        writes += w;
        macs += m;
    }
    ctx.record(
        KernelProfile::new("spmm_nm_decode", Stage::Av)
            .with_traffic(reads, writes)
            .with_tc(macs, sparse_class::<T>()),
    );
    if !ctx.exec {
        return Matrix::zeros(streams, d_v);
    }
    let mut out = vec![T::zero(); streams * d_v];
    let items: Vec<(usize, &mut [T])> = out.chunks_mut(d_v.max(1)).enumerate().collect();
    items.into_par_iter().for_each(|(s, orow)| {
        decode::spmm_decode_stream(a, s, &v[s], d_v, orow);
    });
    Matrix::from_vec(streams, d_v, out)
}

/// `O = A · V` with CSR `A` (`n×n`, density s) and dense `V` (`n×d`),
/// vector-tiled per Figure 10(B): each output row gathers its k V-rows with
/// no cross-row reuse.
pub fn spmm_csr<T: Scalar>(ctx: &mut GpuCtx, a: &Csr<T>, v: &Matrix<T>) -> Matrix<T> {
    let rows = a.rows();
    let (vr, d) = v.shape();
    assert_eq!(a.cols(), vr);

    let nnz = a.nnz() as u64;
    // LHS values+indices load once per row (reused across the ≤T-wide output
    // vector); RHS rows are gathered once per nonzero — no reuse, the
    // Figure 10(B) cost structure.
    let a_bytes = nnz * (T::BYTES as u64 + 4);
    let v_bytes = nnz * d as u64 * T::BYTES as u64;
    let reads = a_bytes + v_bytes;
    let writes = (rows * d * T::BYTES) as u64;
    // Fine-grained gather cannot use the tensor core: CUDA-core MACs.
    let alu = 2 * nnz * d as u64;
    ctx.record(
        KernelProfile::new("spmm_csr", Stage::Av)
            .with_traffic(reads, writes)
            .with_alu(alu),
    );
    if !ctx.exec {
        return Matrix::zeros(rows, d);
    }

    let vw = micro::widen(v.as_slice());
    let mut out = vec![T::zero(); rows * d];
    out.par_chunks_mut(d * ROW_TILE)
        .enumerate()
        .for_each(|(ci, chunk)| {
            let mut acc = scratch_f32_stale(d);
            for (local, orow) in chunk.chunks_mut(d).enumerate() {
                let r = ci * ROW_TILE + local;
                let (cols, vals) = a.row(r);
                acc.iter_mut().for_each(|x| *x = 0.0);
                for (&c, &val) in cols.iter().zip(vals) {
                    micro::axpy(
                        &mut acc,
                        val.to_mul(),
                        &vw[c as usize * d..(c as usize + 1) * d],
                    );
                }
                for (o, &x) in orow.iter_mut().zip(acc.iter()) {
                    *o = T::from_acc(x);
                }
            }
        });
    Matrix::from_vec(rows, d, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfss_nmsparse::NmPattern;
    use dfss_tensor::Rng;

    #[test]
    fn spmm_nm_matches_masked_dense_product() {
        let mut rng = Rng::new(1);
        let s = Matrix::<f32>::random_normal(32, 64, 0.0, 1.0, &mut rng);
        let v = Matrix::<f32>::random_normal(64, 16, 0.0, 1.0, &mut rng);
        let comp = NmCompressed::compress(&s, NmPattern::P1_2);
        let mut ctx = GpuCtx::a100();
        let o = spmm_nm(&mut ctx, &comp, &v);
        let reference = comp.decompress().matmul_ref(&v);
        assert!(o.max_abs_diff(&reference) < 1e-2);
    }

    #[test]
    fn spmm_nm_2_4_matches() {
        let mut rng = Rng::new(2);
        let s = Matrix::<f32>::random_normal(16, 32, 0.0, 1.0, &mut rng);
        let v = Matrix::<f32>::random_normal(32, 8, 0.0, 1.0, &mut rng);
        let comp = NmCompressed::compress(&s, NmPattern::P2_4);
        let mut ctx = GpuCtx::a100();
        let o = spmm_nm(&mut ctx, &comp, &v);
        assert!(o.max_abs_diff(&comp.decompress().matmul_ref(&v)) < 1e-2);
    }

    #[test]
    fn batched_spmm_of_zero_panels_is_empty() {
        let a = NmCompressed::<f32>::compress(&Matrix::zeros(0, 8), NmPattern::P1_2);
        let v = BatchedMatrix::<f32>::zeros(0, 8, 4);
        let out = spmm_nm_batched(&mut GpuCtx::a100(), &a, &v);
        assert_eq!(out.shape(), (0, 0, 4));
    }

    #[test]
    #[should_panic(expected = "do not split into 2 panels")]
    fn batched_spmm_refuses_rows_that_do_not_split() {
        let a = NmCompressed::<f32>::compress(&Matrix::zeros(7, 8), NmPattern::P1_2);
        let _ = spmm_nm_batched(&mut GpuCtx::a100(), &a, &BatchedMatrix::zeros(2, 8, 4));
    }

    #[test]
    fn spmm_csr_matches_dense_product() {
        let mut rng = Rng::new(3);
        let s = Matrix::<f32>::random_normal(24, 48, 0.0, 1.0, &mut rng);
        let v = Matrix::<f32>::random_normal(48, 8, 0.0, 1.0, &mut rng);
        let csr = Csr::from_dense_topk(&s, 6);
        let mut ctx = GpuCtx::a100();
        let o = spmm_csr(&mut ctx, &csr, &v);
        assert!(o.max_abs_diff(&csr.to_dense().matmul_ref(&v)) < 1e-2);
    }

    #[test]
    fn sparse_tc_macs_are_half_of_dense() {
        let mut rng = Rng::new(4);
        let s = Matrix::<f32>::random_normal(128, 128, 0.0, 1.0, &mut rng);
        let v = Matrix::<f32>::random_normal(128, 64, 0.0, 1.0, &mut rng);
        let comp = NmCompressed::compress(&s, NmPattern::P1_2);
        let mut ctx = GpuCtx::a100();
        let _ = spmm_nm(&mut ctx, &comp, &v);
        let p = &ctx.timeline.entries()[0];
        assert_eq!(p.tc_macs, 128 * 64 * 64); // rows × kept × d
        assert_eq!(p.tc_class, dfss_gpusim::TcClass::SparseTf32);
    }

    #[test]
    fn csr_rhs_traffic_dominates_and_scales_with_density() {
        let mut rng = Rng::new(5);
        let s = Matrix::<f32>::random_normal(256, 256, 0.0, 1.0, &mut rng);
        let v = Matrix::<f32>::random_normal(256, 64, 0.0, 1.0, &mut rng);
        let mut lo = GpuCtx::a100();
        let mut hi = GpuCtx::a100();
        let _ = spmm_csr(&mut lo, &Csr::from_dense_topk(&s, 8), &v);
        let _ = spmm_csr(&mut hi, &Csr::from_dense_topk(&s, 64), &v);
        let lo_b = lo.timeline.total_bytes() as f64;
        let hi_b = hi.timeline.total_bytes() as f64;
        // 8× the nonzeros → close to 8× the traffic (writes are common).
        assert!(hi_b / lo_b > 5.0, "ratio {}", hi_b / lo_b);
    }

    #[test]
    fn nm_spmm_traffic_below_dense_gemm() {
        // Table 5: sparse AV moves less data than dense AV at the same shape.
        let n = 512;
        let mut rng = Rng::new(6);
        let s = Matrix::<f32>::random_normal(n, n, 0.0, 1.0, &mut rng);
        let v = Matrix::<f32>::random_normal(n, 64, 0.0, 1.0, &mut rng);
        let comp = NmCompressed::compress(&s, NmPattern::P1_2);
        let mut sp = GpuCtx::a100();
        let _ = spmm_nm(&mut sp, &comp, &v);
        let mut de = GpuCtx::a100();
        let _ = crate::gemm::gemm_nn(&mut de, Stage::Av, &s, &v);
        assert!(
            sp.timeline.total_bytes() < de.timeline.total_bytes(),
            "sparse {} dense {}",
            sp.timeline.total_bytes(),
            de.timeline.total_bytes()
        );
    }

    #[test]
    fn empty_csr_rows_produce_zero_output() {
        let s = Matrix::<f32>::zeros(4, 8);
        let csr = Csr::from_dense_where(&s, |_, _, v| v > 0.0);
        let v = Matrix::<f32>::from_fn(8, 4, |r, c| (r + c) as f32);
        let mut ctx = GpuCtx::a100();
        let o = spmm_csr(&mut ctx, &csr, &v);
        assert!(o.as_slice().iter().all(|&x| x == 0.0));
    }
}
