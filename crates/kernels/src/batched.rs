//! The pool fan-out shared by the prefill exec bodies.
//!
//! A launch covers `batch` same-shape panels (a solo `gemm_nt`, `gemm_nn`,
//! `sddmm_nm_fused` or `spmm_nm` call is the one-panel case).
//! It records a single [`KernelProfile`] whose counters are exactly
//! `batch ×` the per-panel charge (shape work such as `GpuCtx::tile_for`
//! runs once per launch, not once per head), and executes as **one pool
//! fan-out** over (panel, 16-row tile) work items — the host analogue of
//! folding the (batch, head) grid into the launch grid. The row-tile
//! attention driver ([`crate::rowtile`]) runs QK, softmax and AV of a work
//! item inside one such fan-out.
//!
//! [`KernelProfile`]: dfss_gpusim::KernelProfile

use rayon::prelude::*;

/// Rows per (panel, row-tile) work item, and per work item of the row-wise
/// softmax and CSR SpMM. At n = 4096 a tile's dense f32 scores take
/// 256 KiB, inside a core's L2.
pub(crate) const ROW_TILE: usize = 16;

/// Fan out over (panel, row-tile) work items of a stacked output buffer.
///
/// `out` is `batch` panels of `panel_elems` contiguous elements; each panel
/// is cut into `chunk_elems`-sized tiles (the panel tail may be shorter) and
/// every `(panel, tile)` pair becomes one pool work item. The callback
/// receives `(panel_index, element_offset_within_panel, tile_slice)`.
pub(crate) fn fan_out<T: Send>(
    out: &mut [T],
    panel_elems: usize,
    chunk_elems: usize,
    f: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    let items: Vec<(usize, usize, &mut [T])> = out
        .chunks_mut(panel_elems.max(1))
        .enumerate()
        .flat_map(|(p, panel)| {
            panel
                .chunks_mut(chunk_elems.max(1))
                .enumerate()
                .map(move |(ci, chunk)| (p, ci * chunk_elems, chunk))
        })
        .collect();
    items
        .into_par_iter()
        .for_each(|(p, elem0, chunk)| f(p, elem0, chunk));
}

/// Two-buffer variant of [`fan_out`] for kernels that emit paired streams
/// (the fused SDDMM's nonzeros + metadata): both buffers are cut at the same
/// row boundaries and handed to the callback together.
pub(crate) fn fan_out2<A: Send, B: Send>(
    out_a: &mut [A],
    panel_elems_a: usize,
    chunk_elems_a: usize,
    out_b: &mut [B],
    panel_elems_b: usize,
    chunk_elems_b: usize,
    f: impl Fn(usize, usize, &mut [A], &mut [B]) + Sync,
) {
    let items: Vec<(usize, usize, &mut [A], &mut [B])> = out_a
        .chunks_mut(panel_elems_a.max(1))
        .zip(out_b.chunks_mut(panel_elems_b.max(1)))
        .enumerate()
        .flat_map(|(p, (panel_a, panel_b))| {
            panel_a
                .chunks_mut(chunk_elems_a.max(1))
                .zip(panel_b.chunks_mut(chunk_elems_b.max(1)))
                .enumerate()
                .map(move |(ci, (ca, cb))| (p, ci * chunk_elems_a, ca, cb))
        })
        .collect();
    items
        .into_par_iter()
        .for_each(|(p, elem0, ca, cb)| f(p, elem0, ca, cb));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_covers_every_panel_and_tile() {
        let mut out = vec![0u32; 3 * 10];
        fan_out(&mut out, 10, 4, |p, e0, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (p * 100 + e0 + i) as u32;
            }
        });
        for p in 0..3 {
            for e in 0..10 {
                assert_eq!(out[p * 10 + e], (p * 100 + e) as u32);
            }
        }
    }

    #[test]
    fn fan_out2_keeps_streams_aligned() {
        let mut a = vec![0u32; 2 * 8];
        let mut b = vec![0u8; 2 * 4];
        fan_out2(&mut a, 8, 4, &mut b, 4, 2, |p, e0, ca, cb| {
            assert_eq!(ca.len() / 2, cb.len());
            for v in ca.iter_mut() {
                *v = (p * 10 + e0 / 4) as u32;
            }
            for v in cb.iter_mut() {
                *v = (p * 10 + e0 / 4) as u8;
            }
        });
        assert_eq!(a[..4], [0, 0, 0, 0]);
        assert_eq!(a[4..8], [1, 1, 1, 1]);
        assert_eq!(b[4..6], [10, 10]);
        assert_eq!(b[6..8], [11, 11]);
    }
}
