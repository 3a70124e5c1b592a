//! Batched matrix stacks — the B×H volume the paper's kernels process in
//! one launch.
//!
//! A [`BatchedMatrix`] is a stack of `batch` row-major `rows × cols` panels
//! in one contiguous backing buffer (panel `b` occupies
//! `data[b·rows·cols..(b+1)·rows·cols]`). The batch axis is the *flattened*
//! batch × heads grid of a multi-head attention launch ("the batch size is
//! set to be large enough to keep the GPU busy", §5.2): kernels fan out over
//! (panel, row-tile) work items and charge the simulated device once for the
//! whole volume.
//!
//! Charge-only placeholders: latency/memory experiments sweep paper-scale
//! grids where a materialised `batch × n × n` intermediate would be
//! gigabytes that nothing ever reads (`GpuCtx::exec == false` skips the
//! numeric work). [`BatchedMatrix::charge_only`] carries the shape with an
//! empty buffer; panel accessors panic on placeholders, and exec-mode
//! kernels never produce them.

use crate::matrix::Matrix;
use crate::rng::Rng;
use crate::scalar::Scalar;

/// A contiguous stack of `batch` row-major `rows × cols` panels.
#[derive(Clone, PartialEq)]
pub struct BatchedMatrix<T> {
    batch: usize,
    rows: usize,
    cols: usize,
    /// `batch·rows·cols` elements, or empty for a charge-only placeholder.
    data: Vec<T>,
}

impl<T: Scalar> BatchedMatrix<T> {
    /// Zero-filled materialised stack.
    pub fn zeros(batch: usize, rows: usize, cols: usize) -> BatchedMatrix<T> {
        BatchedMatrix {
            batch,
            rows,
            cols,
            data: vec![T::zero(); batch * rows * cols],
        }
    }

    /// Shape-only placeholder for charge-only (`!ctx.exec`) kernel results.
    pub fn charge_only(batch: usize, rows: usize, cols: usize) -> BatchedMatrix<T> {
        BatchedMatrix {
            batch,
            rows,
            cols,
            data: Vec::new(),
        }
    }

    /// Whether the backing buffer is populated (false only for
    /// [`charge_only`](Self::charge_only) placeholders).
    #[inline]
    pub fn is_materialized(&self) -> bool {
        self.data.len() == self.batch * self.rows * self.cols
    }

    /// Build from an existing flat buffer (panel-major, row-major panels).
    pub fn from_vec(batch: usize, rows: usize, cols: usize, data: Vec<T>) -> BatchedMatrix<T> {
        assert_eq!(
            data.len(),
            batch * rows * cols,
            "buffer length {} != {batch}x{rows}x{cols}",
            data.len()
        );
        BatchedMatrix {
            batch,
            rows,
            cols,
            data,
        }
    }

    /// Stack copies of the given panels (all must share one shape).
    pub fn from_panels(panels: &[Matrix<T>]) -> BatchedMatrix<T> {
        assert!(!panels.is_empty(), "empty panel list");
        let (rows, cols) = panels[0].shape();
        let mut data = Vec::with_capacity(panels.len() * rows * cols);
        for p in panels {
            assert_eq!(p.shape(), (rows, cols), "panel shape mismatch");
            data.extend_from_slice(p.as_slice());
        }
        BatchedMatrix {
            batch: panels.len(),
            rows,
            cols,
            data,
        }
    }

    /// Gather borrowed same-shape panels (a head split, per-head
    /// transposes, …) into one contiguous stack without the caller
    /// hand-assembling buffers. Inverse of
    /// [`into_panels`](Self::into_panels) up to the copy.
    pub fn gather(panels: &[&Matrix<T>]) -> BatchedMatrix<T> {
        assert!(!panels.is_empty(), "empty panel list");
        let (rows, cols) = panels[0].shape();
        let mut data = Vec::with_capacity(panels.len() * rows * cols);
        for p in panels {
            assert_eq!(p.shape(), (rows, cols), "panel shape mismatch");
            data.extend_from_slice(p.as_slice());
        }
        BatchedMatrix {
            batch: panels.len(),
            rows,
            cols,
            data,
        }
    }

    /// Scatter the stack back into per-panel matrices: always `batch` of
    /// them, zero-sized panels included.
    /// Bit-preserving: panel `b` of the result holds exactly the bytes
    /// [`panel(b)`](Self::panel) held.
    pub fn into_panels(self) -> Vec<Matrix<T>> {
        (0..self.batch).map(|b| self.to_panel(b)).collect()
    }

    /// Split an `n × (H·d_head)` activation into an H-panel stack of
    /// `n × d_head` head slices in one pass — the batched multi-head
    /// attention input. Inverse of [`merge_heads`](Self::merge_heads).
    pub fn split_heads(x: &Matrix<T>, heads: usize) -> BatchedMatrix<T> {
        let (n, dm) = x.shape();
        assert_eq!(dm % heads, 0, "d_model must divide into heads");
        let dh = dm / heads;
        let mut data = Vec::with_capacity(n * dm);
        for h in 0..heads {
            let lo = h * dh;
            for r in 0..n {
                data.extend_from_slice(&x.row(r)[lo..lo + dh]);
            }
        }
        BatchedMatrix {
            batch: heads,
            rows: n,
            cols: dh,
            data,
        }
    }

    /// Concatenate an H-panel stack of `n × d_head` head outputs back into
    /// one `n × (H·d_head)` activation (inverse of
    /// [`split_heads`](Self::split_heads)).
    pub fn merge_heads(&self) -> Matrix<T> {
        self.assert_materialized();
        let (heads, n, dh) = self.shape();
        let mut out = Matrix::zeros(n, heads * dh);
        for h in 0..heads {
            let lo = h * dh;
            for r in 0..n {
                out.row_mut(r)[lo..lo + dh].copy_from_slice(self.row(h, r));
            }
        }
        out
    }

    /// `batch` copies of one panel — how the figure binaries build the §5.2
    /// "large enough to keep the GPU busy" volume from a single sequence.
    pub fn broadcast(panel: &Matrix<T>, batch: usize) -> BatchedMatrix<T> {
        let (rows, cols) = panel.shape();
        let mut data = Vec::with_capacity(batch * rows * cols);
        for _ in 0..batch {
            data.extend_from_slice(panel.as_slice());
        }
        BatchedMatrix {
            batch,
            rows,
            cols,
            data,
        }
    }

    /// Build by evaluating `f(panel, row, col)`.
    pub fn from_fn(
        batch: usize,
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> BatchedMatrix<T> {
        let mut data = Vec::with_capacity(batch * rows * cols);
        for b in 0..batch {
            for r in 0..rows {
                for c in 0..cols {
                    data.push(f(b, r, c));
                }
            }
        }
        BatchedMatrix {
            batch,
            rows,
            cols,
            data,
        }
    }

    /// i.i.d. N(mu, sigma) entries across every panel.
    pub fn random_normal(
        batch: usize,
        rows: usize,
        cols: usize,
        mu: f32,
        sigma: f32,
        rng: &mut Rng,
    ) -> BatchedMatrix<T> {
        BatchedMatrix::from_fn(batch, rows, cols, |_, _, _| {
            T::from_f32(rng.normal(mu, sigma))
        })
    }

    #[inline]
    pub fn batch(&self) -> usize {
        self.batch
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// (batch, rows, cols).
    #[inline]
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.batch, self.rows, self.cols)
    }

    /// Elements per panel.
    #[inline]
    pub fn panel_len(&self) -> usize {
        self.rows * self.cols
    }

    /// Total element count across the stack.
    #[inline]
    pub fn len(&self) -> usize {
        self.batch * self.rows * self.cols
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical storage footprint in bytes (placeholders report the footprint
    /// the materialised stack would have — that is what the device ledger
    /// charges).
    #[inline]
    pub fn bytes(&self) -> usize {
        self.len() * T::BYTES
    }

    fn assert_materialized(&self) {
        assert!(
            self.data.len() == self.batch * self.rows * self.cols,
            "charge-only BatchedMatrix placeholder has no panel data"
        );
    }

    /// Contiguous slice of panel `b`.
    #[inline]
    pub fn panel(&self, b: usize) -> &[T] {
        self.assert_materialized();
        let pl = self.panel_len();
        &self.data[b * pl..(b + 1) * pl]
    }

    /// Mutable contiguous slice of panel `b`.
    #[inline]
    pub fn panel_mut(&mut self, b: usize) -> &mut [T] {
        self.assert_materialized();
        let pl = self.panel_len();
        &mut self.data[b * pl..(b + 1) * pl]
    }

    /// Copy panel `b` out as a standalone [`Matrix`].
    pub fn to_panel(&self, b: usize) -> Matrix<T> {
        Matrix::from_vec(self.rows, self.cols, self.panel(b).to_vec())
    }

    /// Contiguous row `r` of panel `b`.
    #[inline]
    pub fn row(&self, b: usize, r: usize) -> &[T] {
        self.assert_materialized();
        let start = (b * self.rows + r) * self.cols;
        &self.data[start..start + self.cols]
    }

    #[inline]
    pub fn get(&self, b: usize, r: usize, c: usize) -> T {
        self.assert_materialized();
        self.data[(b * self.rows + r) * self.cols + c]
    }

    /// Whole backing buffer (empty for placeholders).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Whole backing buffer, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume into the backing buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Max absolute element-wise difference against another stack.
    pub fn max_abs_diff(&self, other: &BatchedMatrix<T>) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a.to_f32() - b.to_f32()).abs())
            .fold(0.0, f32::max)
    }
}

impl<T: Scalar> std::fmt::Debug for BatchedMatrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BatchedMatrix<{}> {}x{}x{}{}",
            T::NAME,
            self.batch,
            self.rows,
            self.cols,
            if self.is_materialized() {
                ""
            } else {
                " (charge-only)"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_are_contiguous_and_ordered() {
        let m = BatchedMatrix::<f32>::from_fn(3, 2, 4, |b, r, c| (b * 100 + r * 10 + c) as f32);
        assert_eq!(m.shape(), (3, 2, 4));
        assert_eq!(
            m.panel(1),
            &[100., 101., 102., 103., 110., 111., 112., 113.]
        );
        assert_eq!(m.row(2, 1), &[210., 211., 212., 213.]);
        assert_eq!(m.get(2, 1, 3), 213.0);
        assert_eq!(m.to_panel(0).shape(), (2, 4));
    }

    #[test]
    fn from_panels_round_trips() {
        let a = Matrix::<f32>::from_fn(2, 2, |r, c| (r + c) as f32);
        let b = Matrix::<f32>::from_fn(2, 2, |r, c| (r * c) as f32);
        let s = BatchedMatrix::from_panels(&[a.clone(), b.clone()]);
        assert_eq!(s.to_panel(0), a);
        assert_eq!(s.to_panel(1), b);
    }

    #[test]
    fn broadcast_replicates_one_panel() {
        let a = Matrix::<f32>::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let s = BatchedMatrix::broadcast(&a, 4);
        assert_eq!(s.batch(), 4);
        for b in 0..4 {
            assert_eq!(s.panel(b), a.as_slice());
        }
    }

    #[test]
    fn charge_only_carries_shape_without_data() {
        let p = BatchedMatrix::<f32>::charge_only(8, 128, 128);
        assert!(!p.is_materialized());
        assert_eq!(p.shape(), (8, 128, 128));
        assert_eq!(p.bytes(), 8 * 128 * 128 * 4);
        assert!(p.as_slice().is_empty());
    }

    #[test]
    #[should_panic(expected = "charge-only")]
    fn charge_only_panel_access_panics() {
        let p = BatchedMatrix::<f32>::charge_only(2, 4, 4);
        let _ = p.panel(0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_checks_length() {
        let _ = BatchedMatrix::<f32>::from_vec(2, 2, 2, vec![0.0; 7]);
    }

    #[test]
    fn gather_then_into_panels_is_bit_identity() {
        let a = Matrix::<f32>::from_fn(3, 2, |r, c| (r * 2 + c) as f32 + 0.25);
        let b = Matrix::<f32>::from_fn(3, 2, |r, c| -((r + c) as f32) - 0.5);
        let stack = BatchedMatrix::gather(&[&a, &b]);
        assert_eq!(stack.shape(), (2, 3, 2));
        let back = stack.into_panels();
        assert_eq!(back.len(), 2);
        for (x, y) in back[0].as_slice().iter().zip(a.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in back[1].as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Zero-width panels still unpack one matrix per panel.
        let empty = Matrix::<f32>::zeros(3, 0);
        let back = BatchedMatrix::gather(&[&empty, &empty]).into_panels();
        assert_eq!(back.len(), 2);
        assert!(back.iter().all(|p| p.shape() == (3, 0)));
    }

    #[test]
    #[should_panic(expected = "panel shape mismatch")]
    fn gather_rejects_mixed_shapes() {
        let a = Matrix::<f32>::zeros(2, 2);
        let b = Matrix::<f32>::zeros(3, 2);
        let _ = BatchedMatrix::gather(&[&a, &b]);
    }

    #[test]
    fn split_merge_heads_round_trips() {
        let x = Matrix::<f32>::from_fn(4, 6, |r, c| (r * 10 + c) as f32);
        let stack = BatchedMatrix::split_heads(&x, 3);
        assert_eq!(stack.shape(), (3, 4, 2));
        // Head h holds columns [2h, 2h+2).
        assert_eq!(stack.row(1, 2), &[22.0, 23.0]);
        assert_eq!(stack.merge_heads(), x);
    }

    #[test]
    fn zero_sized_stack_is_materialized() {
        let m = BatchedMatrix::<f32>::zeros(0, 4, 4);
        assert!(m.is_materialized());
        assert!(m.is_empty());
    }
}
