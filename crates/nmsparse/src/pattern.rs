//! N:M group selection.
//!
//! An `N:M` pattern keeps the N largest-magnitude entries out of every M
//! consecutive entries of a row (paper §2.3 / Figure 1). Selection is purely
//! local to the M-group, which is what makes it embarrassingly parallel and
//! implementable as a GEMM epilogue (§3.2: "the N:M selection is performed
//! locally so that it is easy to be executed in parallel").
//!
//! Ties are broken toward the *lower index*, deterministically, so that
//! compress → decompress round trips are exact and runs are reproducible.

use dfss_tensor::{Matrix, Scalar};

/// Largest M representable by the u8 bitmask metadata codes; the
/// allocation-free selection path is sized to it.
pub const MAX_M: usize = 8;

/// An N:M fine-grained structured sparsity pattern (N kept out of M).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NmPattern {
    n: usize,
    m: usize,
}

impl NmPattern {
    /// The pattern the A100 supports for `float` inputs.
    pub const P1_2: NmPattern = NmPattern { n: 1, m: 2 };
    /// The pattern the A100 supports for `bfloat16`/`float16` inputs.
    pub const P2_4: NmPattern = NmPattern { n: 2, m: 4 };

    /// A general pattern; requires `0 < n < m ≤ 8` (the metadata codes every
    /// compressed format uses are u8 bitmasks, one bit per group lane).
    pub fn new(n: usize, m: usize) -> NmPattern {
        assert!(n > 0 && n < m, "N:M requires 0 < N < M, got {n}:{m}");
        assert!(m <= MAX_M, "bitmask codes support M ≤ {MAX_M}, got M = {m}");
        NmPattern { n, m }
    }

    /// The hardware pattern associated with a scalar type (1:2 for f32,
    /// 2:4 for bf16), as in the paper's float/bfloat16 split.
    pub fn for_dtype<T: Scalar>() -> NmPattern {
        NmPattern::new(T::NM_N, T::NM_M)
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Fraction of entries kept (`density s = N/M`).
    #[inline]
    pub fn density(&self) -> f64 {
        self.n as f64 / self.m as f64
    }

    /// Human-readable name matching the paper's notation, e.g. `"2:4"`.
    pub fn name(&self) -> String {
        format!("{}:{}", self.n, self.m)
    }

    /// Number of kept values in a row of `cols` dense entries.
    #[inline]
    pub fn kept_per_row(&self, cols: usize) -> usize {
        assert_eq!(
            cols % self.m,
            0,
            "cols {cols} not a multiple of M={}",
            self.m
        );
        cols / self.m * self.n
    }

    /// Select the kept indices (sorted ascending) within one M-group of
    /// scores. Keeps the N largest by value; ties prefer the earlier index.
    pub fn select_group(&self, group: &[f32]) -> Vec<usize> {
        let mut buf = [0usize; MAX_M];
        let n = self.select_group_into(group, &mut buf);
        buf[..n].to_vec()
    }

    /// Allocation-free [`select_group`](Self::select_group) for the prune
    /// epilogue hot loop: writes the kept indices (sorted ascending) into
    /// `kept[..N]` and returns N. Selection semantics are identical (N
    /// largest by value, ties to the earlier index). Requires `M ≤ 8`, the
    /// bitmask-code domain every compressed format uses.
    #[inline]
    pub fn select_group_into(&self, group: &[f32], kept: &mut [usize; MAX_M]) -> usize {
        debug_assert_eq!(group.len(), self.m);
        // `m ≤ MAX_M` is enforced by the constructor.
        debug_assert!(self.m <= MAX_M);
        let mut idx = [0usize; MAX_M];
        for (i, slot) in idx[..self.m].iter_mut().enumerate() {
            *slot = i;
        }
        // Stable insertion sort, descending by value: an element moves left
        // only past *strictly smaller* values, which reproduces the stable
        // sort's lower-index tie-break.
        for i in 1..self.m {
            let mut j = i;
            while j > 0 && group[idx[j]] > group[idx[j - 1]] {
                idx.swap(j, j - 1);
                j -= 1;
            }
        }
        kept[..self.n].copy_from_slice(&idx[..self.n]);
        kept[..self.n].sort_unstable();
        self.n
    }

    /// The code of a group that keeps its first N lanes — the selection
    /// charge-only placeholders carry.
    pub(crate) fn first_n_code(&self) -> u8 {
        (0..self.n).fold(0u8, |acc, i| acc | (1 << i))
    }

    /// Prune a run of whole M-groups (one row, or rows back to back),
    /// copying the kept values **verbatim**: each group is selected by
    /// [`select_group_into`](Self::select_group_into) on its widened values,
    /// its bitmask goes to `code_out` and its kept values, ascending, to
    /// `nz_out`. `NmCompressed::compress` and the standalone prune kernels
    /// all run this one routine.
    pub fn compress_groups_into<T: Scalar>(
        &self,
        groups: &[T],
        nz_out: &mut [T],
        code_out: &mut [u8],
    ) {
        debug_assert_eq!(groups.len() % self.m, 0);
        let mut scores = [0.0f32; MAX_M];
        let mut kept = [0usize; MAX_M];
        let mut nz_pos = 0;
        for (chunk, code) in groups.chunks_exact(self.m).zip(code_out.iter_mut()) {
            for (s, v) in scores.iter_mut().zip(chunk) {
                *s = v.to_f32();
            }
            let n_kept = self.select_group_into(&scores[..self.m], &mut kept);
            *code = 0;
            for &k in &kept[..n_kept] {
                *code |= 1 << k;
                nz_out[nz_pos] = chunk[k];
                nz_pos += 1;
            }
        }
        debug_assert_eq!(nz_pos, groups.len() / self.m * self.n);
    }

    /// Boolean keep-mask over a full row (`row.len()` must be a multiple of
    /// M).
    pub fn mask_row(&self, row: &[f32], mask: &mut [bool]) {
        assert_eq!(row.len() % self.m, 0);
        assert_eq!(row.len(), mask.len());
        for (g, (chunk, mchunk)) in row
            .chunks_exact(self.m)
            .zip(mask.chunks_exact_mut(self.m))
            .enumerate()
        {
            let _ = g;
            mchunk.iter_mut().for_each(|b| *b = false);
            for k in self.select_group(chunk) {
                mchunk[k] = true;
            }
        }
    }

    /// Keep-mask for a whole matrix, as 0.0/1.0 entries (handy for the
    /// quality metric `Q^p` which works on `m ⊙ A`).
    pub fn mask_matrix<T: Scalar>(&self, scores: &Matrix<T>) -> Matrix<f32> {
        let (rows, cols) = scores.shape();
        assert_eq!(cols % self.m, 0);
        let mut out = Matrix::zeros(rows, cols);
        let mut mask = vec![false; cols];
        let mut rowbuf = vec![0.0f32; cols];
        for r in 0..rows {
            for (dst, src) in rowbuf.iter_mut().zip(scores.row(r)) {
                *dst = src.to_f32();
            }
            self.mask_row(&rowbuf, &mut mask);
            let orow = out.row_mut(r);
            for (o, &keep) in orow.iter_mut().zip(&mask) {
                *o = if keep { 1.0 } else { 0.0 };
            }
        }
        out
    }

    /// Prune a dense matrix in place: non-kept entries become zero.
    pub fn prune_matrix<T: Scalar>(&self, dense: &mut Matrix<T>) {
        let (rows, cols) = dense.shape();
        assert_eq!(cols % self.m, 0);
        let mut mask = vec![false; cols];
        let mut rowbuf = vec![0.0f32; cols];
        for r in 0..rows {
            for (dst, src) in rowbuf.iter_mut().zip(dense.row(r)) {
                *dst = src.to_f32();
            }
            self.mask_row(&rowbuf, &mut mask);
            let row = dense.row_mut(r);
            for (v, &keep) in row.iter_mut().zip(&mask) {
                if !keep {
                    *v = T::zero();
                }
            }
        }
    }
}

impl std::fmt::Display for NmPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.n, self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfss_tensor::Rng;

    #[test]
    fn constants_match_paper() {
        assert_eq!(NmPattern::P1_2.density(), 0.5);
        assert_eq!(NmPattern::P2_4.density(), 0.5);
        assert_eq!(NmPattern::for_dtype::<f32>(), NmPattern::P1_2);
        assert_eq!(NmPattern::for_dtype::<dfss_tensor::Bf16>(), NmPattern::P2_4);
    }

    #[test]
    #[should_panic(expected = "0 < N < M")]
    fn rejects_degenerate_pattern() {
        let _ = NmPattern::new(2, 2);
    }

    #[test]
    #[should_panic(expected = "bitmask codes support M ≤ 8")]
    fn rejects_m_wider_than_code_domain() {
        let _ = NmPattern::new(3, 16);
    }

    #[test]
    fn select_group_picks_largest() {
        let p = NmPattern::P2_4;
        assert_eq!(p.select_group(&[0.1, 0.9, 0.5, 0.2]), vec![1, 2]);
        assert_eq!(p.select_group(&[9.0, -8.0, 7.0, 6.0]), vec![0, 2]);
        let q = NmPattern::P1_2;
        assert_eq!(q.select_group(&[0.0, 3.0]), vec![1]);
        assert_eq!(q.select_group(&[3.0, 0.0]), vec![0]);
    }

    #[test]
    fn select_group_value_not_magnitude() {
        // The paper selects "larger ones" of the attention *scores* — softmax
        // is monotone, so larger score = more important. -5 loses to 1.
        let p = NmPattern::P1_2;
        assert_eq!(p.select_group(&[-5.0, 1.0]), vec![1]);
    }

    #[test]
    fn ties_break_to_lower_index() {
        let p = NmPattern::P2_4;
        assert_eq!(p.select_group(&[1.0, 1.0, 1.0, 1.0]), vec![0, 1]);
        let q = NmPattern::P1_2;
        assert_eq!(q.select_group(&[2.0, 2.0]), vec![0]);
    }

    #[test]
    fn select_group_into_matches_stable_sort_reference() {
        // Reference: the stable-descending-sort formulation of the
        // selection semantics (what `select_group` historically did).
        fn reference(n: usize, group: &[f32]) -> Vec<usize> {
            let mut idx: Vec<usize> = (0..group.len()).collect();
            idx.sort_by(|&a, &b| {
                group[b]
                    .partial_cmp(&group[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut kept = idx[..n].to_vec();
            kept.sort_unstable();
            kept
        }
        let mut rng = Rng::new(11);
        for &(n, m) in &[(1usize, 2usize), (2, 4), (1, 4), (3, 4), (3, 8)] {
            let p = NmPattern::new(n, m);
            for _ in 0..200 {
                let group: Vec<f32> = (0..m).map(|_| rng.normal(0.0, 1.0)).collect();
                let mut buf = [0usize; MAX_M];
                let k = p.select_group_into(&group, &mut buf);
                assert_eq!(&buf[..k], &reference(n, &group)[..], "{p} {group:?}");
                assert_eq!(&buf[..k], &p.select_group(&group)[..], "{p} wrapper");
            }
            // Tie-heavy groups exercise the stability contract.
            let ties: Vec<f32> = (0..m).map(|i| (i % 2) as f32).collect();
            let mut buf = [0usize; MAX_M];
            let k = p.select_group_into(&ties, &mut buf);
            assert_eq!(&buf[..k], &reference(n, &ties)[..], "{p} ties");
        }
    }

    #[test]
    fn mask_row_density() {
        let p = NmPattern::P2_4;
        let mut rng = Rng::new(1);
        let row: Vec<f32> = (0..64).map(|_| rng.normal(0.0, 1.0)).collect();
        let mut mask = vec![false; 64];
        p.mask_row(&row, &mut mask);
        assert_eq!(mask.iter().filter(|&&b| b).count(), 32);
        // Every group has exactly two survivors.
        for chunk in mask.chunks_exact(4) {
            assert_eq!(chunk.iter().filter(|&&b| b).count(), 2);
        }
    }

    #[test]
    fn prune_matrix_zeroes_non_kept() {
        let mut m = Matrix::<f32>::from_vec(2, 4, vec![1., 2., 3., 4., 8., 7., 6., 5.]);
        NmPattern::P2_4.prune_matrix(&mut m);
        assert_eq!(m.row(0), &[0., 0., 3., 4.]);
        assert_eq!(m.row(1), &[8., 7., 0., 0.]);
    }

    #[test]
    fn mask_matrix_matches_prune() {
        let mut rng = Rng::new(3);
        let m = Matrix::<f32>::random_normal(8, 16, 0.0, 1.0, &mut rng);
        let mask = NmPattern::P2_4.mask_matrix(&m);
        let mut pruned = m.clone();
        NmPattern::P2_4.prune_matrix(&mut pruned);
        for r in 0..8 {
            for c in 0..16 {
                let expect = m.get(r, c) * mask.get(r, c);
                assert_eq!(pruned.get(r, c), expect);
            }
        }
    }

    #[test]
    fn general_patterns() {
        let p = NmPattern::new(1, 4);
        assert_eq!(p.density(), 0.25);
        assert_eq!(p.select_group(&[0.0, 0.0, 5.0, 0.0]), vec![2]);
        let p = NmPattern::new(3, 4);
        assert_eq!(p.select_group(&[1.0, 2.0, 3.0, 4.0]), vec![1, 2, 3]);
        assert_eq!(p.kept_per_row(16), 12);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn kept_per_row_requires_multiple() {
        NmPattern::P2_4.kept_per_row(10);
    }
}
