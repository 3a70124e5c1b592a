//! The fused SDDMM + N:M prune epilogue — the paper's core kernel (§3.4,
//! Appendix A.1.2).
//!
//! "We observe that when computing QKᵀ, the results are first accumulated in
//! GPU registers and written to memory when all the computations are done.
//! Therefore, we can implement the pruning as an epilogue of the matrix
//! multiplication: after the accumulation is finished, we compare the data
//! stored in the registers, select the larger ones and generate the
//! metadata. Then, we only write the reserved non-zeros and metadata to
//! memory."
//!
//! Two consequences reproduced here:
//! 1. **Zero pruning overhead** — the fused kernel's traffic equals the
//!    dense GEMM's *input* traffic plus compressed-output writes; the dense
//!    n×n score matrix is never read or written. The unfused ablation
//!    ([`sddmm_nm_unfused`]) pays exactly `n²` extra writes + `n²` extra
//!    reads, which a test pins down.
//! 2. **Memory-footprint reduction** — `n² · 4` bytes of scores become
//!    `n²/2 · 4 + n²/16 · 4` bytes of nonzeros + metadata.

use crate::ctx::{dense_class, GpuCtx};
use crate::decode;
use crate::micro;
use crate::simd;
use dfss_gpusim::{KernelProfile, Stage};
use dfss_nmsparse::{compressed_bytes, NmCompressed, NmPattern, NmRagged};
use dfss_tensor::{scratch_f32_stale, BatchedMatrix, Matrix, PagedPanel, RaggedBatch, Scalar};

/// ALU cost of pruning one M-group in the epilogue.
///
/// 1:2 float: one comparison plus metadata shift/or (§A.1.2 Figure 8: "the
/// adjacent two data are held by the same thread, we can simply compare
/// them"). 2:4 bf16: the kernel compares pair sums — 6 sums + selection +
/// packing; the factor below additionally folds in the warp divergence the
/// paper observed ("selecting 2 larger ones from 4 elements requires more
/// comparisons, which results in more warp divergence" — it is why their
/// bf16 QKᵀ runs slightly slower than the dense baseline in Figure 5). The
/// constant is calibrated so that, at n = 4096, the bf16 epilogue's ALU time
/// is roughly the kernel's memory time, reproducing that effect.
fn epilogue_ops_per_group(pattern: NmPattern) -> u64 {
    match (pattern.n(), pattern.m()) {
        (1, 2) => 3,
        (2, 4) => 12 * 9, // 12 real ops × divergence de-rate
        // General patterns: selection network of ~m·log2(m) compares.
        (_, m) => (m as u64) * (usize::BITS - (m - 1).leading_zeros()) as u64 * 4,
    }
}

/// Shared epilogue: prune a block of whole M-groups of f32 scores (one
/// score row, or rows back to back) into `from_acc(x · scale)` nonzeros +
/// codes, selecting on the unscaled scores.
fn prune_rows_into<T: Scalar>(
    pattern: NmPattern,
    scores: &[f32],
    scale: f32,
    nz_out: &mut [T],
    code_out: &mut [u8],
) {
    let mut nz_pos = 0usize;
    let mut kept = [0usize; dfss_nmsparse::MAX_M];
    for (chunk, code) in scores.chunks_exact(pattern.m()).zip(code_out.iter_mut()) {
        let n_kept = pattern.select_group_into(chunk, &mut kept);
        *code = 0;
        for &kidx in &kept[..n_kept] {
            *code |= 1 << kidx;
            nz_out[nz_pos] = T::from_acc(chunk[kidx] * scale);
            nz_pos += 1;
        }
    }
    debug_assert_eq!(nz_pos, scores.len() / pattern.m() * pattern.n());
}

/// Fused SDDMM: `compress_{N:M}(scale · Q·Kᵀ)` without materialising the
/// dense score matrix. `Q: n×d`, `K: n×d` → compressed `n×n`.
pub fn sddmm_nm_fused<T: Scalar>(
    ctx: &mut GpuCtx,
    q: &Matrix<T>,
    k: &Matrix<T>,
    scale: f32,
    pattern: NmPattern,
) -> NmCompressed<T> {
    let (rows, dq) = q.shape();
    let (cols, dk) = k.shape();
    assert_eq!(dq, dk, "inner dimensions differ");
    assert_eq!(cols % pattern.m(), 0);

    record_fused::<T>(ctx, pattern, 1, rows, cols, dq);
    if !ctx.exec {
        return NmCompressed::charge_only(pattern, rows, cols);
    }
    let (nonzeros, codes) = sddmm_nm_fused_exec(
        pattern,
        (1, rows, cols, dq),
        q.as_slice(),
        k.as_slice(),
        scale,
    );
    NmCompressed::from_parts(pattern, rows, cols, nonzeros, codes)
}

/// The one fused SDDMM exec body, over borrowed slices: `batch` stacked
/// `rows × dq` Q panels against their `cols × dq` K panels. One pool
/// fan-out over (panel, row-tile) work items; score rows accumulate in the
/// register-tiled [`micro::panel_product`] (serial k-order per element, the
/// dense `gemm_nt`'s sums) and spill once into a scratch block ("the
/// registers"), which [`prune_rows_dispatch`] prunes straight into the
/// stacked nonzero and code buffers. Solo [`sddmm_nm_fused`] is the
/// one-panel case. A work item is [`crate::batched::ROW_TILE`] rows in
/// every call, so a one-panel call of `r` rows uses at most `⌈r / 16⌉`
/// pool threads (4 for a 64-row prefill chunk).
fn sddmm_nm_fused_exec<T: Scalar>(
    pattern: NmPattern,
    (batch, rows, cols, dq): (usize, usize, usize, usize),
    q: &[T],
    k: &[T],
    scale: f32,
) -> (Vec<T>, Vec<u8>) {
    let kept_per_row = pattern.kept_per_row(cols);
    let groups_per_row = cols / pattern.m();
    let qw = micro::widen(q);
    let kp = micro::widen_packed(k, batch, cols, dq);
    let ppl = micro::packed_len(cols, dq);

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
            let qw_p = &qw[p * rows * dq..(p + 1) * rows * dq];
            let kp_p = &kp[p * ppl..(p + 1) * ppl];
            let rows_here = nz_chunk.len() / kept_per_row;
            let row0 = e0 / kept_per_row;
            let mut acc = scratch_f32_stale(simd::TILE_ROWS * cols);
            let mut local = 0;
            while local < rows_here {
                let rcnt = simd::TILE_ROWS.min(rows_here - local);
                micro::panel_product(qw_p, row0 + local, rcnt, dq, kp_p, cols, &mut acc);
                prune_rows_dispatch(
                    pattern,
                    &acc[..rcnt * cols],
                    scale,
                    &mut nz_chunk[local * kept_per_row..(local + rcnt) * kept_per_row],
                    &mut code_chunk[local * groups_per_row..(local + rcnt) * groups_per_row],
                );
                local += rcnt;
            }
        },
    );
    (nonzeros, codes)
}

/// Prune a block of whole M-groups of f32 scores with the fastest
/// epilogue for the pattern: the one scaled N:M selection every kernel that
/// prunes accumulators runs (fused SDDMM, the row-tile driver and the
/// decode prune). 1:2 and 2:4 run the dispatched
/// [`simd::Backend::prune_nm`], every other pattern [`prune_rows_into`];
/// both select as [`NmPattern::select_group_into`] does.
pub(crate) fn prune_rows_dispatch<T: Scalar>(
    pattern: NmPattern,
    scores: &[f32],
    scale: f32,
    nz_out: &mut [T],
    code_out: &mut [u8],
) {
    match (pattern.n(), pattern.m()) {
        (1, 2) | (2, 4) => simd::active().prune_nm(pattern, scores, scale, nz_out, code_out),
        _ => prune_rows_into(pattern, scores, scale, nz_out, code_out),
    }
}

/// Record one fused-SDDMM launch over `batch` same-shape panels: a single
/// profile of exactly `batch ×` the per-panel charge, shared by every entry
/// point. Input traffic is the dense GEMM's (Figure 7 tiling); output
/// traffic is nonzeros + metadata only — the zero-overhead claim.
pub(crate) fn record_fused<T: Scalar>(
    ctx: &mut GpuCtx,
    pattern: NmPattern,
    batch: usize,
    rows: usize,
    cols: usize,
    d: usize,
) {
    let tm = ctx.tile_for(rows) as u64;
    let tn = ctx.tile_for(cols) as u64;
    let (rows64, cols64, d64) = (rows as u64, cols as u64, d as u64);
    let tiles = rows64.div_ceil(tm) * cols64.div_ceil(tn);
    let reads = tiles * (tm * d64 + d64 * tn) * T::BYTES as u64;
    let kept = rows64 * pattern.kept_per_row(cols) as u64;
    let writes = compressed_bytes::<T>(kept, rows64 * (cols64 / pattern.m() as u64));
    let groups = rows64 * cols64 / pattern.m() as u64;
    let b64 = batch as u64;
    ctx.record(
        KernelProfile::new("sddmm_nm_fused", Stage::Qk)
            .with_traffic(b64 * reads, b64 * writes)
            .with_tc(b64 * rows64 * cols64 * d64, dense_class::<T>())
            .with_alu(b64 * groups * epilogue_ops_per_group(pattern)),
    );
}

/// Batched fused SDDMM: `compress_{N:M}(scale · Q·Kᵀ)` for a whole B×H
/// stack in **one launch** — a single profile of exactly `batch ×` the
/// per-panel [`sddmm_nm_fused`] cost (tiling hoisted out of the head loop),
/// one pool fan-out over (panel, row-tile) work items, and the same exec
/// body as [`sddmm_nm_fused`]. The result is one [`NmCompressed`] of
/// `batch · rows` rows: panel `p`'s scores are rows
/// `p·rows .. (p+1)·rows`.
pub fn sddmm_nm_fused_batched<T: Scalar>(
    ctx: &mut GpuCtx,
    q: &BatchedMatrix<T>,
    k: &BatchedMatrix<T>,
    scale: f32,
    pattern: NmPattern,
) -> NmCompressed<T> {
    let (batch, rows, dq) = q.shape();
    let (bb, cols, dk) = k.shape();
    assert_eq!(batch, bb, "batch sizes differ");
    assert_eq!(dq, dk, "inner dimensions differ");
    assert_eq!(cols % pattern.m(), 0);

    record_fused::<T>(ctx, pattern, batch, rows, cols, dq);
    if !ctx.exec {
        return NmCompressed::charge_only(pattern, batch * rows, cols);
    }
    let (nonzeros, codes) = sddmm_nm_fused_exec(
        pattern,
        (batch, rows, cols, dq),
        q.as_slice(),
        k.as_slice(),
        scale,
    );
    NmCompressed::from_parts(pattern, batch * rows, cols, nonzeros, codes)
}

/// Standalone prune kernel (the unfused path): reads a dense score matrix
/// from memory, writes nonzeros + metadata. This is what "current software
/// library designed for pruning under N:M sparsity" does and what §2.3 says
/// offsets the benefit of sparsity. Kept values are copied verbatim: the
/// result is [`NmCompressed::compress`] of the scores.
pub fn dense_prune<T: Scalar>(
    ctx: &mut GpuCtx,
    scores: &Matrix<T>,
    pattern: NmPattern,
) -> NmCompressed<T> {
    let (rows, cols) = scores.shape();
    record_dense_prune::<T>(ctx, pattern, rows, cols);
    if !ctx.exec {
        return NmCompressed::charge_only(pattern, rows, cols);
    }
    NmCompressed::compress(scores, pattern)
}

/// Record one standalone-prune launch: the dense scores read back,
/// nonzeros + metadata written.
fn record_dense_prune<T: Scalar>(ctx: &mut GpuCtx, pattern: NmPattern, rows: usize, cols: usize) {
    let kept = (rows * pattern.kept_per_row(cols)) as u64;
    let groups = (rows * cols / pattern.m()) as u64;
    let writes = compressed_bytes::<T>(kept, groups);
    ctx.record(
        KernelProfile::new("dense_prune", Stage::Overhead)
            .with_traffic((rows * cols * T::BYTES) as u64, writes)
            .with_alu(groups * epilogue_ops_per_group(pattern)),
    );
}

/// Unfused ablation: dense GEMM writes the n×n scores, then a separate
/// prune kernel reads them back. Numerically identical to
/// [`sddmm_nm_fused`]; costs `2 n²` extra element transfers.
pub fn sddmm_nm_unfused<T: Scalar>(
    ctx: &mut GpuCtx,
    q: &Matrix<T>,
    k: &Matrix<T>,
    scale: f32,
    pattern: NmPattern,
) -> NmCompressed<T> {
    let scores = crate::gemm::gemm_nt(ctx, Stage::Qk, q, k, scale);
    dense_prune(ctx, &scores, pattern)
}

/// Per-stream cost counters `(reads, writes, macs, alu)` of one fused
/// decode score + prune: a `1 × len` score row against the `len × d` cached
/// K panel, N:M-pruned over full M-groups with a dense tail (see
/// [`NmRagged`]). A ragged launch charges exactly the sum of its streams'
/// solo charges. The K panel is charged at its stored element width `S`
/// (half the traffic when the serving layer quantises the KV cache to
/// bf16); the query row and pruned outputs stay at the compute width `T`.
fn decode_charge<T: Scalar, S: Scalar>(
    ctx: &GpuCtx,
    len: usize,
    d: usize,
    pattern: NmPattern,
) -> (u64, u64, u64, u64) {
    let tn = ctx.tile_for(len) as u64;
    let (len64, d64) = (len as u64, d as u64);
    // tm = 1: the decode grid is one output row per stream.
    let tiles = len64.div_ceil(tn);
    let reads = tiles * (d64 * T::BYTES as u64 + d64 * tn * S::BYTES as u64);
    let kept = NmRagged::<T>::kept_for(pattern, len) as u64;
    let groups = NmRagged::<T>::groups_for(pattern, len) as u64;
    let writes = compressed_bytes::<T>(kept, groups);
    (
        reads,
        writes,
        len64 * d64,
        groups * epilogue_ops_per_group(pattern),
    )
}

/// Ragged batched fused decode over a packed stack: the one-page-per-stream
/// case of [`sddmm_nm_fused_paged`].
pub fn sddmm_nm_fused_ragged<T: Scalar, S: Scalar>(
    ctx: &mut GpuCtx,
    q: &Matrix<T>,
    k: &RaggedBatch<S>,
    scale: f32,
    pattern: NmPattern,
) -> NmRagged<T> {
    assert_eq!(q.cols(), k.cols(), "inner dimensions differ");
    sddmm_nm_fused_paged(ctx, q, &k.views(), scale, pattern)
}

/// Ragged batched fused decode: every stream's new query row (row `i` of
/// `q`, width `d = q.cols()`) against its own cached K, read in place
/// through the stream's [`PagedPanel`] view, in **one launch** — a single
/// profile whose counters are the sum of the per-stream charges, one pool
/// fan-out over streams. Bit-identical to the per-stream solo loop (shared
/// inner routines).
pub fn sddmm_nm_fused_paged<T: Scalar, S: Scalar>(
    ctx: &mut GpuCtx,
    q: &Matrix<T>,
    k: &[PagedPanel<'_, S>],
    scale: f32,
    pattern: NmPattern,
) -> NmRagged<T> {
    assert_eq!(q.rows(), k.len(), "one query row per stream");
    let d = q.cols();
    let lens = decode::view_lens(k, d);
    let (mut reads, mut writes, mut macs, mut alu) = (0u64, 0u64, 0u64, 0u64);
    for &len in &lens {
        let (r, w, m, a) = decode_charge::<T, S>(ctx, len, d, pattern);
        reads += r;
        writes += w;
        macs += m;
        alu += a;
    }
    ctx.record(
        KernelProfile::new("sddmm_nm_decode", Stage::Qk)
            .with_traffic(reads, writes)
            .with_tc(macs, dense_class::<T>())
            .with_alu(alu),
    );
    if !ctx.exec {
        return NmRagged::zeros(pattern, &lens);
    }
    decode::build_ragged(pattern, &lens, |s, nz, code| {
        decode::score_prune_stream(q.row(s), &k[s], d, scale, pattern, nz, code);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfss_tensor::{Bf16, Rng};

    fn qk(n: usize, d: usize, seed: u64) -> (Matrix<f32>, Matrix<f32>) {
        let mut rng = Rng::new(seed);
        (
            Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
            Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
        )
    }

    #[test]
    fn fused_matches_compress_of_dense_gemm() {
        let (q, k) = qk(64, 32, 1);
        let mut ctx = GpuCtx::a100();
        let fused = sddmm_nm_fused(&mut ctx, &q, &k, 0.125, NmPattern::P1_2);
        let mut ctx2 = GpuCtx::a100();
        let dense = crate::gemm::gemm_nt(&mut ctx2, Stage::Qk, &q, &k, 0.125);
        let reference = NmCompressed::compress(&dense, NmPattern::P1_2);
        assert_eq!(fused.codes(), reference.codes());
        assert!(fused.decompress().max_abs_diff(&reference.decompress()) < 1e-5);
    }

    #[test]
    fn fused_matches_unfused_numerically() {
        let (q, k) = qk(32, 16, 2);
        let mut c1 = GpuCtx::a100();
        let mut c2 = GpuCtx::a100();
        let a = sddmm_nm_fused(&mut c1, &q, &k, 1.0, NmPattern::P2_4);
        let b = sddmm_nm_unfused(&mut c2, &q, &k, 1.0, NmPattern::P2_4);
        assert_eq!(a.codes(), b.codes());
        assert!(a.decompress().max_abs_diff(&b.decompress()) < 1e-5);
    }

    #[test]
    fn zero_overhead_traffic_claim() {
        // Unfused must cost exactly n² extra writes (dense scores out) plus
        // n² extra reads (prune kernel in), in bytes.
        let n = 256;
        let (q, k) = qk(n, 64, 3);
        let mut fused_ctx = GpuCtx::a100();
        let _ = sddmm_nm_fused(&mut fused_ctx, &q, &k, 1.0, NmPattern::P1_2);
        let mut unfused_ctx = GpuCtx::a100();
        let _ = sddmm_nm_unfused(&mut unfused_ctx, &q, &k, 1.0, NmPattern::P1_2);
        let extra = unfused_ctx.timeline.total_bytes() - fused_ctx.timeline.total_bytes();
        assert_eq!(extra, 2 * (n * n * 4) as u64);
    }

    #[test]
    fn fused_writes_only_compressed_bytes() {
        let n = 128;
        let (q, k) = qk(n, 64, 4);
        let mut ctx = GpuCtx::a100();
        let comp = sddmm_nm_fused(&mut ctx, &q, &k, 1.0, NmPattern::P1_2);
        let entry = &ctx.timeline.entries()[0];
        assert_eq!(
            entry.bytes_written,
            (comp.nonzeros_bytes() + comp.meta_bytes()) as u64
        );
        // n²/2 × 4B + n²/16 × 4B (§3.4).
        assert_eq!(entry.bytes_written, (n * n / 2 * 4 + n * n / 16 * 4) as u64);
    }

    #[test]
    fn bf16_2_4_path() {
        let mut rng = Rng::new(5);
        let q = Matrix::<Bf16>::random_normal(32, 16, 0.0, 1.0, &mut rng);
        let k = Matrix::<Bf16>::random_normal(32, 16, 0.0, 1.0, &mut rng);
        let mut ctx = GpuCtx::a100();
        let comp = sddmm_nm_fused(&mut ctx, &q, &k, 0.25, NmPattern::P2_4);
        let mut ctx2 = GpuCtx::a100();
        let dense = crate::gemm::gemm_nt(&mut ctx2, Stage::Qk, &q, &k, 0.25);
        let reference = NmCompressed::compress(&dense, NmPattern::P2_4);
        assert_eq!(comp.codes(), reference.codes());
    }

    #[test]
    fn bf16_epilogue_costs_more_alu_than_float() {
        let mut rng = Rng::new(6);
        let qf = Matrix::<f32>::random_normal(64, 16, 0.0, 1.0, &mut rng);
        let kf = Matrix::<f32>::random_normal(64, 16, 0.0, 1.0, &mut rng);
        let qb: Matrix<Bf16> = qf.cast();
        let kb: Matrix<Bf16> = kf.cast();
        let mut cf = GpuCtx::a100();
        let mut cb = GpuCtx::a100();
        let _ = sddmm_nm_fused(&mut cf, &qf, &kf, 1.0, NmPattern::P1_2);
        let _ = sddmm_nm_fused(&mut cb, &qb, &kb, 1.0, NmPattern::P2_4);
        // Per dense element the 2:4 epilogue is far more expensive — the
        // paper's warp-divergence observation.
        let f_ops = cf.timeline.entries()[0].alu_ops;
        let b_ops = cb.timeline.entries()[0].alu_ops;
        assert!(b_ops > 10 * f_ops, "bf16 {b_ops} vs float {f_ops}");
    }

    #[test]
    fn decode_prune_row_prunes_full_groups_and_keeps_the_dense_tail() {
        // The decode prune row: its full groups through the prefill
        // epilogue, its dense tail (1 or 3 positions, or the whole of a row
        // shorter than M) kept and scaled. The rows hold every group of four
        // over eight special values, NaN included.
        let vals = [
            f32::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            1.0,
            2.0,
            f32::INFINITY,
            f32::NAN,
        ];
        let scores: Vec<f32> = (0..4096usize)
            .flat_map(|i| (0..4).map(move |lane| vals[(i >> (3 * lane)) & 7]))
            .collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for p in [NmPattern::P1_2, NmPattern::P2_4, NmPattern::new(1, 4)] {
            let (n, m) = (p.n(), p.m());
            for tail in [1usize, 3].into_iter().filter(|&t| t < m) {
                for full in [0usize, 64, 4096] {
                    let row = &scores[..full + tail];
                    let kept = full / m * n + tail;
                    let (mut nz, mut codes) = (vec![7.0f32; kept], vec![0u8; full / m]);
                    crate::decode::prune_decode_row(p, row, 0.5, &mut nz, &mut codes);
                    let (mut want, mut want_codes) = (vec![0.0f32; kept], vec![0u8; full / m]);
                    prune_rows_into(p, &row[..full], 0.5, &mut want, &mut want_codes);
                    for (w, &x) in want[full / m * n..].iter_mut().zip(&row[full..]) {
                        *w = x * 0.5;
                    }
                    let what = format!("{p} decode row of {}", full + tail);
                    assert_eq!(codes, want_codes, "{what}");
                    assert_eq!(bits(&nz), bits(&want), "{what}");
                }
            }
        }
    }

    #[test]
    fn general_pattern_1_4() {
        let (q, k) = qk(32, 8, 7);
        let mut ctx = GpuCtx::a100();
        let comp = sddmm_nm_fused(&mut ctx, &q, &k, 1.0, NmPattern::new(1, 4));
        assert_eq!(comp.kept_per_row(), 8);
        let mut ctx2 = GpuCtx::a100();
        let dense = crate::gemm::gemm_nt(&mut ctx2, Stage::Qk, &q, &k, 1.0);
        let reference = NmCompressed::compress(&dense, NmPattern::new(1, 4));
        assert_eq!(comp.codes(), reference.codes());
    }

    #[test]
    fn device_meta_exportable_from_fused_output() {
        let (q, k) = qk(64, 32, 8);
        let mut ctx = GpuCtx::a100();
        let comp = sddmm_nm_fused(&mut ctx, &q, &k, 1.0, NmPattern::P1_2);
        let dm = comp.to_device_meta().expect("hardware pattern");
        let back =
            NmCompressed::from_device_meta(NmPattern::P1_2, 64, 64, comp.nonzeros().to_vec(), &dm)
                .expect("hardware pattern");
        assert_eq!(back, comp);
    }
}
