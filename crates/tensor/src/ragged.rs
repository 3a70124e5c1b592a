//! Ragged batched stacks — the decode-serving volume: B streams whose
//! cached K/V panels share a column count but **differ in length**.
//!
//! A [`RaggedBatch`] is `streams` row-major panels in one contiguous backing
//! buffer, panel `i` holding `len(i) × cols` elements. Where
//! [`BatchedMatrix`](crate::BatchedMatrix) models the uniform B×H grid of a
//! prefill launch, `RaggedBatch` models the ragged grid of a **decode**
//! launch: every stream contributes one new query row against its own
//! cached K/V length, and the kernels fan out once over streams while
//! charging the simulated device a single summed profile.

use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Borrowed view of one stream's rows stored in **fixed-size pages** — the
/// form in which the decode kernels read a stream's cached K or V.
///
/// `pages` lists the stream's blocks in table order; page `p` holds rows
/// `[p·rows_per_page, (p+1)·rows_per_page)` of the logical `len × width`
/// panel, row-major within the page. Every page slice must hold at least
/// `rows_per_page × width` elements (pool pages may carry a dead tail when
/// the page size is not a multiple of the row width); only the first `len`
/// rows across the sequence are live, so the last page is usually partially
/// filled. The row width is not stored: the reader supplies it, and
/// [`check`](Self::check) is the one place this rule is written.
///
/// A contiguous slab is the one-page view ([`one_page`](Self::one_page)),
/// so one panel of a [`RaggedBatch`], a paged KV table and a decode step's
/// cached K or V share one reader.
///
/// [`operand_form`](Self::operand_form) says whether the live rows are
/// already in tensor-core operand form, so the decode kernels may read
/// them without rounding them again.
#[derive(Clone, Debug)]
pub struct PagedPanel<'a, T> {
    /// The stream's pages, in table order.
    pub pages: Vec<&'a [T]>,
    /// Logical rows stored per page (the last page holds the remainder).
    pub rows_per_page: usize,
    /// Live rows of the panel.
    pub len: usize,
    /// Every live element `x` reads as its own multiply operand:
    /// `x.to_f32()` has the bits of [`Scalar::to_mul`] of `x` (an f32 `x`
    /// is TF32-rounded; every bf16 element qualifies). Only a writer that
    /// stored each element through `to_mul` may set it (the serving KV
    /// cache does, and an f32 store then holds TF32-rounded values); the
    /// decode kernels then skip the TF32 rounding on load, which is exact
    /// because `to_mul` is idempotent. A view that sets it over raw rows
    /// decodes with the wrong multiply operands. [`one_page`](Self::one_page)
    /// leaves it off.
    pub operand_form: bool,
}

impl<'a, T> PagedPanel<'a, T> {
    /// View a contiguous row-major slab of `len` rows as a one-page table
    /// of raw rows (not in operand form).
    pub fn one_page(slab: &'a [T], len: usize) -> PagedPanel<'a, T> {
        PagedPanel {
            pages: if len == 0 { Vec::new() } else { vec![slab] },
            rows_per_page: len.max(1),
            len,
            operand_form: false,
        }
    }

    /// The page-table rule: the table holds `len` rows of `width` elements
    /// when `rows_per_page` is positive, it lists exactly the pages `len`
    /// implies, and no page is shorter than `rows_per_page × width`
    /// elements. Returns the live row count, or the first violation.
    pub fn check(&self, width: usize) -> Result<usize, String> {
        let rpp = self.rows_per_page;
        if rpp == 0 {
            return Err("page table declares zero rows per page".into());
        }
        let want = self.len.div_ceil(rpp);
        if self.pages.len() != want {
            return Err(format!(
                "page table holds {} pages, expected {want} for {} rows at {rpp} rows/page",
                self.pages.len(),
                self.len
            ));
        }
        match self.pages.iter().position(|page| page.len() < rpp * width) {
            Some(p) => Err(format!(
                "page {p} holds {} elements, need rows_per_page x width = {rpp} x {width}",
                self.pages[p].len()
            )),
            None => Ok(self.len),
        }
    }

    /// The live row count, panicking where [`check`](Self::check) fails.
    pub fn checked_len(&self, width: usize) -> usize {
        self.check(width).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The `len` live rows (`width` elements each) in order, read in place
    /// page by page: all `rows_per_page` rows of every page but the last,
    /// and the remainder of the last.
    pub fn rows(&self, width: usize) -> impl Iterator<Item = &'a [T]> + '_ {
        let rpp = self.rows_per_page;
        self.pages.iter().enumerate().flat_map(move |(p, &page)| {
            let live = self.len.saturating_sub(p * rpp).min(rpp);
            page[..live * width].chunks_exact(width)
        })
    }
}

impl<S: Scalar> PagedPanel<'_, S> {
    /// Copy the live rows out as a `len × width` matrix, converting each
    /// element through f32 (exact for `f32 → f32` and `bf16 → f32`).
    pub fn to_matrix<U: Scalar>(&self, width: usize) -> Matrix<U> {
        let mut data = Vec::with_capacity(self.len * width);
        for row in self.rows(width) {
            data.extend(row.iter().map(|&x| U::from_f32(x.to_f32())));
        }
        Matrix::from_vec(self.len, width, data)
    }
}

/// A contiguous stack of row-major panels with per-panel row counts and a
/// shared column count.
#[derive(Clone, Debug, PartialEq)]
pub struct RaggedBatch<T> {
    cols: usize,
    /// Rows of each panel (`lens[i]` = the stream's cached length).
    lens: Vec<usize>,
    /// Prefix row offsets; `offsets[i] * cols` is panel `i`'s element
    /// offset, `offsets.len() == streams + 1`.
    offsets: Vec<usize>,
    data: Vec<T>,
}

fn offsets_of(lens: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(lens.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &l in lens {
        acc += l;
        offsets.push(acc);
    }
    offsets
}

impl<T: Scalar> RaggedBatch<T> {
    /// Zero-filled stack with the given per-stream row counts.
    pub fn zeros(cols: usize, lens: &[usize]) -> RaggedBatch<T> {
        let offsets = offsets_of(lens);
        let total = offsets[lens.len()];
        RaggedBatch {
            cols,
            lens: lens.to_vec(),
            offsets,
            data: vec![T::zero(); total * cols],
        }
    }

    /// Pack borrowed per-stream row slices (each `lens[i] × cols` elements,
    /// row-major) into one stack — the ragged counterpart of
    /// `BatchedMatrix::gather`. Serving decode does not pack: the engine
    /// hands the kernels [`PagedPanel`] views of the KV pages instead.
    pub fn from_slices(cols: usize, parts: &[&[T]]) -> RaggedBatch<T> {
        assert!(cols > 0, "cols must be positive");
        let mut lens = Vec::with_capacity(parts.len());
        let mut data = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for p in parts {
            assert_eq!(
                p.len() % cols,
                0,
                "slice length {} is not a multiple of cols = {cols}",
                p.len()
            );
            lens.push(p.len() / cols);
            data.extend_from_slice(p);
        }
        let offsets = offsets_of(&lens);
        RaggedBatch {
            cols,
            lens,
            offsets,
            data,
        }
    }

    /// Pack borrowed matrices that agree on the column count but may differ
    /// in row count.
    pub fn gather(panels: &[&Matrix<T>]) -> RaggedBatch<T> {
        assert!(!panels.is_empty(), "empty panel list");
        let cols = panels[0].cols();
        for p in panels {
            assert_eq!(p.cols(), cols, "panel column mismatch");
        }
        let parts: Vec<&[T]> = panels.iter().map(|p| p.as_slice()).collect();
        RaggedBatch::from_slices(cols, &parts)
    }

    /// Number of streams (panels) in the stack.
    #[inline]
    pub fn streams(&self) -> usize {
        self.lens.len()
    }

    /// Shared column count.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Rows of panel `i`.
    #[inline]
    pub fn len_of(&self, i: usize) -> usize {
        self.lens[i]
    }

    /// Per-stream row counts.
    #[inline]
    pub fn lens(&self) -> &[usize] {
        &self.lens
    }

    /// Sum of all panels' row counts.
    #[inline]
    pub fn total_rows(&self) -> usize {
        self.offsets[self.lens.len()]
    }

    /// Whether the stack holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total_rows() * self.cols == 0
    }

    /// Storage footprint in bytes.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.data.len() * T::BYTES
    }

    /// Contiguous row-major slice of panel `i`.
    #[inline]
    pub fn panel(&self, i: usize) -> &[T] {
        &self.data[self.offsets[i] * self.cols..self.offsets[i + 1] * self.cols]
    }

    /// One-page [`PagedPanel`] views of every panel, in stream order — the
    /// form the decode kernels read.
    pub fn views(&self) -> Vec<PagedPanel<'_, T>> {
        (0..self.streams())
            .map(|i| PagedPanel::one_page(self.panel(i), self.lens[i]))
            .collect()
    }

    /// Copy panel `i` out as a standalone [`Matrix`].
    pub fn to_panel(&self, i: usize) -> Matrix<T> {
        Matrix::from_vec(self.lens[i], self.cols, self.panel(i).to_vec())
    }

    /// Contiguous row `r` of panel `i`.
    #[inline]
    pub fn row(&self, i: usize, r: usize) -> &[T] {
        let start = (self.offsets[i] + r) * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Whole backing buffer (panel-major).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Whole backing buffer, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_slices_lays_panels_out_contiguously() {
        let a = [0.0f32, 1.0, 2.0, 3.0, 4.0, 5.0]; // 3×2
        let b = [10.0f32, 11.0]; // 1×2
        let rb = RaggedBatch::from_slices(2, &[&a, &b]);
        assert_eq!(rb.streams(), 2);
        assert_eq!((rb.len_of(0), rb.len_of(1)), (3, 1));
        assert_eq!(rb.total_rows(), 4);
        assert_eq!(rb.panel(0), &a);
        assert_eq!(rb.panel(1), &b);
        assert_eq!(rb.row(0, 2), &[4.0, 5.0]);
        assert_eq!(rb.row(1, 0), &[10.0, 11.0]);
        assert_eq!(rb.bytes(), 8 * 4);
    }

    #[test]
    fn gather_matches_matrices_and_to_panel_round_trips() {
        let a = Matrix::<f32>::from_fn(4, 3, |r, c| (r * 3 + c) as f32 + 0.5);
        let b = Matrix::<f32>::from_fn(2, 3, |r, c| -((r + c) as f32));
        let rb = RaggedBatch::gather(&[&a, &b]);
        assert_eq!(rb.to_panel(0), a);
        assert_eq!(rb.to_panel(1), b);
        for (x, y) in rb.panel(1).iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple of cols")]
    fn from_slices_rejects_misaligned_parts() {
        let bad = [0.0f32; 5];
        let _ = RaggedBatch::from_slices(2, &[&bad]);
    }

    #[test]
    #[should_panic(expected = "panel column mismatch")]
    fn gather_rejects_mixed_widths() {
        let a = Matrix::<f32>::zeros(2, 2);
        let b = Matrix::<f32>::zeros(2, 3);
        let _ = RaggedBatch::gather(&[&a, &b]);
    }

    /// A 5-row table of width 2 at 2 rows per page: three 4-element pages.
    fn table(pages: &[f32; 12]) -> PagedPanel<'_, f32> {
        PagedPanel {
            pages: pages.chunks(4).collect(),
            rows_per_page: 2,
            len: 5,
            operand_form: false,
        }
    }

    #[test]
    fn check_accepts_a_table_holding_its_rows() {
        let pages = [0.0f32; 12];
        assert_eq!(table(&pages).check(2), Ok(5));
        assert_eq!(table(&pages).checked_len(2), 5);
        // A contiguous slab longer than `len` rows is a valid one-page view.
        assert_eq!(PagedPanel::one_page(&pages[..], 5).check(2), Ok(5));
    }

    #[test]
    fn check_rejects_zero_rows_per_page() {
        let pages = [0.0f32; 12];
        let view = PagedPanel {
            rows_per_page: 0,
            ..table(&pages)
        };
        let err = view.check(2).unwrap_err();
        assert!(err.contains("zero rows per page"), "got: {err}");
    }

    #[test]
    fn check_rejects_a_wrong_page_count() {
        let pages = [0.0f32; 12];
        let mut view = table(&pages);
        view.pages.pop();
        let err = view.check(2).unwrap_err();
        assert!(err.contains("holds 2 pages, expected 3"), "got: {err}");
        view.pages.extend([&pages[..4], &pages[4..8]]);
        let err = view.check(2).unwrap_err();
        assert!(err.contains("holds 4 pages, expected 3"), "got: {err}");
    }

    #[test]
    fn check_rejects_a_page_shorter_than_its_rows() {
        let pages = [0.0f32; 12];
        let mut view = table(&pages);
        view.pages[1] = &pages[4..7];
        let err = view.check(2).unwrap_err();
        assert!(err.contains("page 1 holds 3 elements"), "got: {err}");
        // A slab one row short of `len` rows is the one-page case.
        let err = PagedPanel::one_page(&pages[..8], 5).check(2).unwrap_err();
        assert!(err.contains("page 0 holds 8 elements"), "got: {err}");
    }

    #[test]
    #[should_panic(expected = "page table holds")]
    fn checked_len_panics_where_check_fails() {
        let pages = [0.0f32; 12];
        let mut view = table(&pages);
        view.pages.pop();
        let _ = view.checked_len(2);
    }
}
