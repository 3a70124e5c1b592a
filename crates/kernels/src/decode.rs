//! Shared per-stream inner routines of the decode kernels.
//!
//! A decode step computes one new score row per stream (the stream's fresh
//! query row against its cached keys), prunes it N:M over full M-groups
//! with a dense tail (see [`NmRagged`]), normalises the kept values, and
//! contracts them with the cached V rows. Each kernel family has one exec
//! body per op (`*_paged`), which reads every stream's cached K/V **in
//! place** through a [`PagedPanel`] view — a serving session's pool pages
//! or, as the one-page case, a contiguous slab. The ragged entry points
//! (`*_ragged`, over a packed [`RaggedBatch`](dfss_tensor::RaggedBatch))
//! are thin wrappers that pass one-page views into that body, and a solo
//! step is a one-view launch, so a per-stream loop, a packed ragged launch
//! and a paged launch over the same rows are bit-identical by construction
//! — the launch accounting is the only difference (one summed
//! [`KernelProfile`] vs. B per-stream profiles).
//!
//! The prune runs the prefill selection over a row's full M-groups — the
//! scaled epilogue `prune_rows_dispatch` after the fused score, the
//! verbatim [`NmPattern::compress_groups_into`] in the unfused ablation —
//! and then keeps the dense tail.
//!
//! Unlike the prefill score kernels (serial-k outer products through
//! [`micro::panel_product`]), the decode scores use the lane-blocked shape
//! of [`simd::dot_widen`] (8 lane accumulators folded by a fixed tree): a
//! decode step has one output row per stream, so there is no operand panel
//! to stream and the dot's higher arithmetic intensity wins. Decode outputs
//! are therefore *not* bit-comparable to a prefill forward over the same
//! cache — only to other decode paths, which is the invariant the engine
//! pins.
//!
//! The routines are generic over the cached K/V element type `S`
//! separately from the compute type `T`: the serving layer can quantise the
//! KV cache to [`dfss_tensor::Bf16`] while queries and outputs stay `T`.
//! Cached rows are **widened on load inside the microkernel**
//! ([`crate::simd::dot_widen`] / [`crate::simd::axpy_widen`]) — TF32
//! rounding for f32 KV, exact widening for bf16 KV, no intermediate widened
//! panel — so decode reads the cache at its true element width. Each cached
//! element is touched exactly once per decode step, so fusing the widen
//! drops the panel-sized scratch buffer without re-doing any conversion,
//! and because [`Scalar::to_mul`] is applied per element in the same order,
//! results are bit-identical to the historical widen-then-dot path.
//!
//! [`KernelProfile`]: dfss_gpusim::KernelProfile
//! [`NmRagged`]: dfss_nmsparse::NmRagged

use crate::micro::widen;
use crate::sddmm::prune_rows_dispatch;
use crate::simd;
use dfss_nmsparse::{NmPattern, NmRagged};
use dfss_tensor::{scratch_f32_stale, PagedPanel, Scalar};

/// Dense decode scores of one stream: `acc[j] = dot(q̂, to_mul(K row j))`,
/// the K rows read in place from their pages and widened in-register from
/// their stored element type. `acc` holds exactly `k.len` scores.
pub(crate) fn decode_scores_widen<S: Scalar>(
    qw: &[f32],
    k: &PagedPanel<'_, S>,
    d: usize,
    acc: &mut [f32],
) {
    let backend = simd::active();
    for (j, row) in k.rows(d).enumerate() {
        acc[j] = simd::dot_widen(backend, qw, row);
    }
}

/// Prune one decode score row from f32 accumulators: the full M-groups
/// through the prefill epilogue ([`prune_rows_dispatch`], selection on the
/// raw scores, scale applied at write time), then the dense tail kept,
/// scaled the same way.
pub(crate) fn prune_decode_row<T: Scalar>(
    pattern: NmPattern,
    scores: &[f32],
    scale: f32,
    nz_out: &mut [T],
    code_out: &mut [u8],
) {
    let full = scores.len() / pattern.m() * pattern.m();
    let (nz_groups, nz_tail) = nz_out.split_at_mut(full / pattern.m() * pattern.n());
    prune_rows_dispatch(pattern, &scores[..full], scale, nz_groups, code_out);
    for (o, &s) in nz_tail.iter_mut().zip(&scores[full..]) {
        *o = T::from_acc(s * scale);
    }
}

/// Fused score + prune of one stream: widen the query row, stream the
/// cached K pages at their stored width (widen-on-load), take one dot per
/// cached position, prune into the stream's output slices.
pub(crate) fn score_prune_stream<T: Scalar, S: Scalar>(
    q_row: &[T],
    k: &PagedPanel<'_, S>,
    d: usize,
    scale: f32,
    pattern: NmPattern,
    nz_out: &mut [T],
    code_out: &mut [u8],
) {
    let len = k.len;
    let qw = widen(q_row);
    let mut acc = scratch_f32_stale(len);
    decode_scores_widen(&qw, k, d, &mut acc[..len]);
    prune_decode_row(pattern, &acc[..len], scale, nz_out, code_out);
}

/// Dense-score variant of one stream (the unfused ablation's first half):
/// scale applied at write time like the dense GEMM epilogue.
pub(crate) fn score_dense_stream<T: Scalar, S: Scalar>(
    q_row: &[T],
    k: &PagedPanel<'_, S>,
    d: usize,
    scale: f32,
    out: &mut [T],
) {
    let len = k.len;
    let qw = widen(q_row);
    let mut acc = scratch_f32_stale(len);
    decode_scores_widen(&qw, k, d, &mut acc[..len]);
    for (o, &x) in out.iter_mut().zip(acc.iter()) {
        *o = T::from_acc(x * scale);
    }
}

/// Standalone prune of one stream's already-narrowed score values (the
/// unfused ablation's second half): the full M-groups through the prefill
/// `dense_prune`'s verbatim-copy selection, then the dense tail copied.
pub(crate) fn prune_values_stream<T: Scalar>(
    pattern: NmPattern,
    scores: &[T],
    nz_out: &mut [T],
    code_out: &mut [u8],
) {
    let full = scores.len() / pattern.m() * pattern.m();
    let (nz_groups, nz_tail) = nz_out.split_at_mut(full / pattern.m() * pattern.n());
    pattern.compress_groups_into(&scores[..full], nz_groups, code_out);
    nz_tail.copy_from_slice(&scores[full..]);
}

/// SpMM of one stream: contract row `i` of the compressed stack with the
/// stream's cached V rows (read in place from their pages at the stored
/// width, widen-on-load) into one output row.
pub(crate) fn spmm_decode_stream<T: Scalar, S: Scalar>(
    a: &NmRagged<T>,
    i: usize,
    v: &PagedPanel<'_, S>,
    d_v: usize,
    out_row: &mut [T],
) {
    let backend = simd::active();
    let rpp = v.rows_per_page;
    let mut acc = scratch_f32_stale(d_v);
    acc.iter_mut().for_each(|x| *x = 0.0);
    // `scan_row` visits kept columns in ascending order, so the page
    // holding row `col` is found by moving a cursor forward, never by
    // dividing.
    let (mut page, mut first) = (0usize, 0usize);
    a.scan_row(i, |col, val| {
        while col >= first + rpp {
            page += 1;
            first += rpp;
        }
        let at = (col - first) * d_v;
        simd::axpy_widen(
            backend,
            &mut acc[..d_v],
            val.to_mul(),
            &v.pages[page][at..at + d_v],
        );
    });
    for (o, &x) in out_row.iter_mut().zip(acc.iter()) {
        *o = T::from_acc(x);
    }
}

/// Per-stream live row counts of a launch's cached K or V views, asserting
/// each view's page table against the row width.
pub(crate) fn view_lens<S>(views: &[PagedPanel<'_, S>], width: usize) -> Vec<usize> {
    views.iter().map(|view| view.checked_len(width)).collect()
}

/// Allocate a ragged compressed stack for the given per-stream lengths and
/// fill it with one pool fan-out over streams: `fill(stream, nz_out,
/// code_out)` writes stream `i`'s kept values and group codes. Shared by
/// every ragged prune-producing entry point so the output-assembly
/// scaffolding (kept/group sizing, buffer partitioning, fan-out) lives in
/// one place.
pub(crate) fn build_ragged<T: Scalar>(
    pattern: NmPattern,
    lens: &[usize],
    fill: impl Fn(usize, &mut [T], &mut [u8]) + Sync,
) -> NmRagged<T> {
    use rayon::prelude::*;
    let kepts: Vec<usize> = lens
        .iter()
        .map(|&l| NmRagged::<T>::kept_for(pattern, l))
        .collect();
    let groups: Vec<usize> = lens
        .iter()
        .map(|&l| NmRagged::<T>::groups_for(pattern, l))
        .collect();
    let mut nonzeros = vec![T::zero(); kepts.iter().sum()];
    let mut codes = vec![0u8; groups.iter().sum()];
    let nz_parts = split_by_sizes(&mut nonzeros, &kepts);
    let code_parts = split_by_sizes(&mut codes, &groups);
    let items: Vec<(usize, &mut [T], &mut [u8])> = nz_parts
        .into_iter()
        .zip(code_parts)
        .enumerate()
        .map(|(s, (nz, code))| (s, nz, code))
        .collect();
    items
        .into_par_iter()
        .for_each(|(s, nz, code)| fill(s, nz, code));
    NmRagged::from_parts(pattern, lens.to_vec(), nonzeros, codes)
}

/// Split a buffer into consecutive chunks of the given sizes (the ragged
/// kernels' per-stream output partitioning; sizes must sum to the buffer
/// length).
pub(crate) fn split_by_sizes<'a, T>(buf: &'a mut [T], sizes: &[usize]) -> Vec<&'a mut [T]> {
    let mut rest = buf;
    let mut out = Vec::with_capacity(sizes.len());
    for &s in sizes {
        let (head, tail) = rest.split_at_mut(s);
        out.push(head);
        rest = tail;
    }
    debug_assert!(rest.is_empty());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_decode_row_keeps_group_maxima_and_tail() {
        let scores = [1.0f32, 3.0, -2.0, -1.0, 7.0]; // 1:2 → 2 groups + tail
        let mut nz = [0.0f32; 3];
        let mut codes = [0u8; 2];
        prune_decode_row(NmPattern::P1_2, &scores, 0.5, &mut nz, &mut codes);
        assert_eq!(codes, [0b10, 0b10]); // 3.0 at lane 1, -1.0 at lane 1
        assert_eq!(nz, [1.5, -0.5, 3.5]); // scaled, tail kept dense
    }

    #[test]
    fn prune_values_stream_copies_verbatim() {
        let scores = [1.0f32, 3.0, -2.0, -1.0, 7.0];
        let mut nz = [0.0f32; 3];
        let mut codes = [0u8; 2];
        prune_values_stream(NmPattern::P1_2, &scores, &mut nz, &mut codes);
        assert_eq!(nz, [3.0, -1.0, 7.0]);
        assert_eq!(codes, [0b10, 0b10]);
    }

    #[test]
    fn split_by_sizes_partitions_in_order() {
        let mut buf = [0u8; 6];
        let parts = split_by_sizes(&mut buf, &[2, 0, 4]);
        assert_eq!(parts.len(), 3);
        assert_eq!((parts[0].len(), parts[1].len(), parts[2].len()), (2, 0, 4));
    }
}
