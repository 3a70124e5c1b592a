//! Batched compressed N:M stacks — the metadata view the batched kernels
//! produce and consume.
//!
//! An [`NmBatch`] is `batch` same-shape [`NmCompressed`] panels stored in
//! two contiguous buffers (nonzeros and selection codes, panel-major). The
//! fused batched SDDMM writes straight into the stacked buffers, the batched
//! compressed softmax normalises all `batch × rows` nonzero rows in one
//! launch, and the batched SpMM reads per-panel views without any copying.
//!
//! Like `BatchedMatrix`, an `NmBatch` can be a charge-only placeholder
//! (shape + pattern with empty buffers) so latency experiments never
//! materialise `batch × n²/2` values nobody reads.

use crate::compressed::{scan_codes, NmCompressed};
use crate::pattern::NmPattern;
use dfss_tensor::Scalar;

/// A stack of `batch` same-shape N:M-compressed panels.
#[derive(Clone, Debug, PartialEq)]
pub struct NmBatch<T> {
    pattern: NmPattern,
    batch: usize,
    rows: usize,
    cols: usize,
    /// Panel-major kept values; `batch × rows × kept_per_row` entries, or
    /// empty for a charge-only placeholder.
    nonzeros: Vec<T>,
    /// Panel-major selection bitmasks; `batch × rows × cols/M` entries, or
    /// empty for a charge-only placeholder.
    codes: Vec<u8>,
}

impl<T: Scalar> NmBatch<T> {
    /// Assemble from stacked parts (the fused batched SDDMM epilogue).
    ///
    /// Buffer lengths are always checked. Codes are **not** validated in
    /// release builds: each should have exactly N of its low M bits set,
    /// but only a `debug_assert!` checks that. The N:M SpMM decodes any
    /// byte totally (in-bounds lanes, the same on every SIMD backend), so a
    /// malformed code yields a wrong product, never an out-of-bounds read;
    /// the bounds-checked bit-scan readers (`scan_row`, `decompress`) may
    /// panic on one.
    pub fn from_parts(
        pattern: NmPattern,
        batch: usize,
        rows: usize,
        cols: usize,
        nonzeros: Vec<T>,
        codes: Vec<u8>,
    ) -> NmBatch<T> {
        assert_eq!(cols % pattern.m(), 0);
        assert_eq!(nonzeros.len(), batch * rows * pattern.kept_per_row(cols));
        assert_eq!(codes.len(), batch * rows * cols / pattern.m());
        debug_assert!(codes.iter().all(|c| c.count_ones() as usize == pattern.n()));
        NmBatch {
            pattern,
            batch,
            rows,
            cols,
            nonzeros,
            codes,
        }
    }

    /// Stack copies of same-shape compressed panels.
    pub fn from_panels(panels: &[NmCompressed<T>]) -> NmBatch<T> {
        assert!(!panels.is_empty(), "empty panel list");
        let (pattern, rows, cols) = (panels[0].pattern(), panels[0].rows(), panels[0].cols());
        let mut nonzeros = Vec::with_capacity(panels.len() * rows * pattern.kept_per_row(cols));
        let mut codes = Vec::with_capacity(panels.len() * rows * cols / pattern.m());
        for p in panels {
            assert_eq!(
                (p.pattern(), p.rows(), p.cols()),
                (pattern, rows, cols),
                "panel shape/pattern mismatch"
            );
            nonzeros.extend_from_slice(p.nonzeros());
            codes.extend_from_slice(p.codes());
        }
        NmBatch {
            pattern,
            batch: panels.len(),
            rows,
            cols,
            nonzeros,
            codes,
        }
    }

    /// Shape-only placeholder for charge-only (`!ctx.exec`) kernel results.
    pub fn charge_only(pattern: NmPattern, batch: usize, rows: usize, cols: usize) -> NmBatch<T> {
        assert_eq!(cols % pattern.m(), 0);
        NmBatch {
            pattern,
            batch,
            rows,
            cols,
            nonzeros: Vec::new(),
            codes: Vec::new(),
        }
    }

    /// Whether the backing buffers are populated.
    #[inline]
    pub fn is_materialized(&self) -> bool {
        self.nonzeros.len() == self.batch * self.rows * self.kept_per_row()
    }

    fn assert_materialized(&self) {
        assert!(
            self.is_materialized(),
            "charge-only NmBatch placeholder has no panel data"
        );
    }

    #[inline]
    pub fn pattern(&self) -> NmPattern {
        self.pattern
    }

    #[inline]
    pub fn batch(&self) -> usize {
        self.batch
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dense (uncompressed) column count of each panel.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Kept values per row.
    #[inline]
    pub fn kept_per_row(&self) -> usize {
        self.pattern.kept_per_row(self.cols)
    }

    #[inline]
    pub fn groups_per_row(&self) -> usize {
        self.cols / self.pattern.m()
    }

    /// Kept values of panel `b` (row-major).
    #[inline]
    pub fn panel_nonzeros(&self, b: usize) -> &[T] {
        self.assert_materialized();
        let pl = self.rows * self.kept_per_row();
        &self.nonzeros[b * pl..(b + 1) * pl]
    }

    /// All nonzeros (panel-major).
    #[inline]
    pub fn nonzeros(&self) -> &[T] {
        &self.nonzeros
    }

    /// All nonzeros, mutable (the batched softmax normalises in place).
    #[inline]
    pub fn nonzeros_mut(&mut self) -> &mut [T] {
        &mut self.nonzeros
    }

    /// All selection codes (panel-major).
    #[inline]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Call `f(col, value)` for every kept entry of row `r` of panel `b`,
    /// ascending column order (see [`scan_codes`]).
    #[inline]
    pub fn scan_row(&self, b: usize, r: usize, f: impl FnMut(usize, T)) {
        let (kept, gpr) = (self.kept_per_row(), self.groups_per_row());
        let row = b * self.rows + r;
        let row_nz = &self.nonzeros[row * kept..(row + 1) * kept];
        let row_codes = &self.codes[row * gpr..(row + 1) * gpr];
        scan_codes(self.pattern.m(), row_codes, row_nz, f);
    }

    /// Nonzero storage footprint in bytes for the whole stack (placeholders
    /// report the footprint the materialised stack would have).
    #[inline]
    pub fn nonzeros_bytes(&self) -> usize {
        self.batch * self.rows * self.kept_per_row() * T::BYTES
    }

    /// Logical metadata footprint in bytes (4 bits per group).
    #[inline]
    pub fn meta_bytes(&self) -> usize {
        (self.batch * self.rows * self.groups_per_row() * 4).div_ceil(8)
    }

    /// Total compressed footprint in bytes.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.nonzeros_bytes() + self.meta_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfss_tensor::{Matrix, Rng};

    fn stack(batch: usize, n: usize, seed: u64) -> (Vec<NmCompressed<f32>>, NmBatch<f32>) {
        let mut rng = Rng::new(seed);
        let panels: Vec<NmCompressed<f32>> = (0..batch)
            .map(|_| {
                let dense = Matrix::<f32>::random_normal(n, n, 0.0, 1.0, &mut rng);
                NmCompressed::compress(&dense, NmPattern::P1_2)
            })
            .collect();
        let batch = NmBatch::from_panels(&panels);
        (panels, batch)
    }

    #[test]
    fn from_panels_round_trips() {
        let (panels, stack) = stack(3, 16, 1);
        assert_eq!(stack.batch(), 3);
        let pl = stack.rows() * stack.groups_per_row();
        for (b, p) in panels.iter().enumerate() {
            let codes = &stack.codes()[b * pl..(b + 1) * pl];
            let panel = NmCompressed::from_parts(
                stack.pattern(),
                stack.rows(),
                stack.cols(),
                stack.panel_nonzeros(b).to_vec(),
                codes.to_vec(),
            );
            assert_eq!(&panel, p);
            assert_eq!(stack.panel_nonzeros(b), p.nonzeros());
            assert_eq!(codes, p.codes());
        }
    }

    #[test]
    fn scan_row_matches_panel_scan() {
        let (panels, stack) = stack(2, 16, 2);
        for (b, p) in panels.iter().enumerate() {
            for r in 0..16 {
                let mut got = Vec::new();
                stack.scan_row(b, r, |c, v| got.push((c, v)));
                let mut expect = Vec::new();
                p.scan_row(r, |c, v| expect.push((c, v)));
                assert_eq!(got, expect, "panel {b} row {r}");
            }
        }
    }

    #[test]
    fn bytes_scale_with_batch() {
        let (panels, stack) = stack(4, 32, 3);
        assert_eq!(stack.nonzeros_bytes(), 4 * panels[0].nonzeros_bytes());
        assert_eq!(stack.meta_bytes(), 4 * panels[0].meta_bytes());
    }

    #[test]
    fn charge_only_carries_shape() {
        let p = NmBatch::<f32>::charge_only(NmPattern::P1_2, 8, 64, 64);
        assert!(!p.is_materialized());
        assert_eq!(p.kept_per_row(), 32);
        assert_eq!(p.bytes(), 8 * (64 * 32 * 4 + 64 * 32 / 2));
    }

    #[test]
    #[should_panic(expected = "charge-only")]
    fn charge_only_panel_access_panics() {
        let p = NmBatch::<f32>::charge_only(NmPattern::P1_2, 2, 8, 8);
        let _ = p.panel_nonzeros(0);
    }
}
