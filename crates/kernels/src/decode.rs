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
//! The prune runs the prefill epilogue (`prune_rows_dispatch`) over a
//! row's full M-groups and then keeps the dense tail.
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
//! Cached rows are read **in place at their stored width**, with no
//! intermediate widened panel. A view whose rows are in tensor-core operand
//! form ([`PagedPanel::operand_form`], set by a writer that rounded each
//! element through [`Scalar::to_mul`], as the serving KV cache does) is
//! read as stored ([`simd::dot_widen`] and [`simd::axpy_rows`] with
//! `operand_form` on); any other view is rounded on load (TF32 for f32
//! rows, exact widening for bf16).
//! `to_mul` is idempotent, so both read the same multiply operands, and
//! every product and sum is formed in the same order: decode outputs are
//! bit-identical whichever form the rows arrive in. The SpMM gathers a
//! stream's kept V rows in batches of `SPMM_BATCH` and accumulates each
//! batch with the output row's 64-column windows held in registers.
//!
//! [`KernelProfile`]: dfss_gpusim::KernelProfile
//! [`NmRagged`]: dfss_nmsparse::NmRagged

use crate::micro::widen;
use crate::sddmm::prune_rows_dispatch;
use crate::simd;
use dfss_nmsparse::{NmPattern, NmRagged};
use dfss_tensor::{scratch_f32_stale, PagedPanel, Scalar};

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
/// cached K pages at their stored width, take one dot per cached position
/// (`acc[j] = dot(q̂, to_mul(K row j))`, the rounding skipped for rows in
/// operand form), prune into the stream's output slices.
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
    let backend = simd::active();
    let mut acc = scratch_f32_stale(len);
    for (a, row) in acc[..len].iter_mut().zip(k.rows(d)) {
        *a = simd::dot_widen(backend, &qw, row, k.operand_form);
    }
    prune_decode_row(pattern, &acc[..len], scale, nz_out, code_out);
}

/// Kept V rows the decode SpMM gathers per [`simd::axpy_rows`] call: each
/// call holds the output row in registers across the batch.
const SPMM_BATCH: usize = 16;

/// SpMM of one stream: contract row `i` of the compressed stack with the
/// stream's cached V rows (read in place from their pages at the stored
/// width) into one output row. The kept rows go to [`simd::axpy_rows`] in
/// batches of `SPMM_BATCH`, in ascending column order, so every output
/// element takes `acc += to_mul(a) · to_mul(v)` over the kept columns in
/// order.
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
    let acc = &mut acc[..d_v];
    acc.fill(0.0);
    let mut weights = [0.0f32; SPMM_BATCH];
    let mut rows: [&[S]; SPMM_BATCH] = [&[]; SPMM_BATCH];
    let mut batched = 0;
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
        weights[batched] = val.to_mul();
        rows[batched] = &v.pages[page][at..at + d_v];
        batched += 1;
        if batched == SPMM_BATCH {
            simd::axpy_rows(backend, acc, &weights, &rows, v.operand_form);
            batched = 0;
        }
    });
    let (weights, rows) = (&weights[..batched], &rows[..batched]);
    simd::axpy_rows(backend, acc, weights, rows, v.operand_form);
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
/// code_out)` writes stream `i`'s kept values and group codes.
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
    fn split_by_sizes_partitions_in_order() {
        let mut buf = [0u8; 6];
        let parts = split_by_sizes(&mut buf, &[2, 0, 4]);
        assert_eq!(parts.len(), 3);
        assert_eq!((parts[0].len(), parts[1].len(), parts[2].len()), (2, 0, 4));
    }
}
