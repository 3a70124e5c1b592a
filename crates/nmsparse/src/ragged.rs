//! Per-row compressed N:M score rows with ragged lengths — the decode-path
//! metadata format.
//!
//! A decode step computes **one new score row per stream**: stream `i`'s new
//! query row against its `len(i)` cached keys. [`NmRagged`] stores those B
//! compressed rows contiguously (values + selection codes, row-major per
//! stream) with per-row dense lengths.
//!
//! ## The dense tail
//!
//! Prefill requires the score width to be a multiple of M; a decode cache
//! grows by one position per step, so its length is usually *not* M-aligned.
//! The decode format prunes N:M over the row's **full M-groups only** and
//! keeps the trailing `len mod M` positions **dense** (always kept, identity
//! selection, no metadata). A pleasant consequence: the most recently cached
//! positions are never pruned until their group fills — recency is preserved
//! exactly while the steady-state density stays N/M.
//!
//! Kept values of row `i` are therefore laid out as
//! `[group 0 kept … group G-1 kept, tail values]` with
//! `kept(i) = ⌊len/M⌋·N + len mod M` values and one code byte per full
//! group.

use crate::compressed::{compressed_bytes, scan_codes};
use crate::pattern::NmPattern;
use dfss_tensor::Scalar;

/// A stack of per-stream N:M-compressed score rows with ragged dense
/// lengths and dense tails (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct NmRagged<T> {
    pattern: NmPattern,
    /// Dense score-row length per stream.
    lens: Vec<usize>,
    /// Prefix offsets into `nonzeros`; `streams + 1` entries.
    nz_offsets: Vec<usize>,
    /// Prefix offsets into `codes`; `streams + 1` entries.
    code_offsets: Vec<usize>,
    /// Kept values, row-major per stream (group kept values then the tail).
    nonzeros: Vec<T>,
    /// Selection bitmasks, one byte per **full** M-group.
    codes: Vec<u8>,
}

impl<T: Scalar> NmRagged<T> {
    /// Kept values of a dense row of `len` under `pattern` (full groups
    /// pruned to N, tail kept dense).
    #[inline]
    pub fn kept_for(pattern: NmPattern, len: usize) -> usize {
        len / pattern.m() * pattern.n() + len % pattern.m()
    }

    /// Full M-groups of a dense row of `len` (the tail has no group).
    #[inline]
    pub fn groups_for(pattern: NmPattern, len: usize) -> usize {
        len / pattern.m()
    }

    /// Assemble from stacked parts (the decode kernels' epilogue output).
    pub fn from_parts(
        pattern: NmPattern,
        lens: Vec<usize>,
        nonzeros: Vec<T>,
        codes: Vec<u8>,
    ) -> NmRagged<T> {
        let (nz_offsets, code_offsets) = Self::offsets(pattern, &lens);
        assert_eq!(nonzeros.len(), nz_offsets[lens.len()], "nonzero length");
        assert_eq!(codes.len(), code_offsets[lens.len()], "code length");
        debug_assert!(codes.iter().all(|c| c.count_ones() as usize == pattern.n()));
        NmRagged {
            pattern,
            lens,
            nz_offsets,
            code_offsets,
            nonzeros,
            codes,
        }
    }

    /// Structurally valid all-zero stack (first-N selection per group) —
    /// what charge-only (`!exec`) decode kernels return.
    pub fn zeros(pattern: NmPattern, lens: &[usize]) -> NmRagged<T> {
        let (nz_offsets, code_offsets) = Self::offsets(pattern, lens);
        NmRagged {
            pattern,
            lens: lens.to_vec(),
            nonzeros: vec![T::zero(); nz_offsets[lens.len()]],
            codes: vec![pattern.first_n_code(); code_offsets[lens.len()]],
            nz_offsets,
            code_offsets,
        }
    }

    fn offsets(pattern: NmPattern, lens: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let mut nz = Vec::with_capacity(lens.len() + 1);
        let mut code = Vec::with_capacity(lens.len() + 1);
        let (mut a, mut b) = (0usize, 0usize);
        nz.push(0);
        code.push(0);
        for &l in lens {
            a += Self::kept_for(pattern, l);
            b += Self::groups_for(pattern, l);
            nz.push(a);
            code.push(b);
        }
        (nz, code)
    }

    /// The N:M pattern of the full groups.
    #[inline]
    pub fn pattern(&self) -> NmPattern {
        self.pattern
    }

    /// Number of compressed rows (streams).
    #[inline]
    pub fn streams(&self) -> usize {
        self.lens.len()
    }

    /// Dense length of row `i`.
    #[inline]
    pub fn len_of(&self, i: usize) -> usize {
        self.lens[i]
    }

    /// Per-stream dense lengths.
    #[inline]
    pub fn lens(&self) -> &[usize] {
        &self.lens
    }

    /// Kept values of row `i` (see [`kept_for`](Self::kept_for)).
    #[inline]
    pub fn kept_of(&self, i: usize) -> usize {
        self.nz_offsets[i + 1] - self.nz_offsets[i]
    }

    /// Full M-groups of row `i`.
    #[inline]
    pub fn groups_of(&self, i: usize) -> usize {
        self.code_offsets[i + 1] - self.code_offsets[i]
    }

    /// Dense-tail length of row `i` (`len mod M` always-kept values).
    #[inline]
    pub fn tail_of(&self, i: usize) -> usize {
        self.lens[i] % self.pattern.m()
    }

    /// Kept values of row `i` (group kept values then the dense tail).
    #[inline]
    pub fn row_nonzeros(&self, i: usize) -> &[T] {
        &self.nonzeros[self.nz_offsets[i]..self.nz_offsets[i + 1]]
    }

    /// Selection codes of row `i`, one byte per full group.
    #[inline]
    pub fn row_codes(&self, i: usize) -> &[u8] {
        &self.codes[self.code_offsets[i]..self.code_offsets[i + 1]]
    }

    /// All kept values (row-major across streams).
    #[inline]
    pub fn nonzeros(&self) -> &[T] {
        &self.nonzeros
    }

    /// Split the kept values into per-row mutable slices, in stream order.
    pub fn rows_mut(&mut self) -> Vec<&mut [T]> {
        let mut rest: &mut [T] = &mut self.nonzeros;
        let mut out = Vec::with_capacity(self.lens.len());
        for i in 0..self.lens.len() {
            let (head, tail) = rest.split_at_mut(self.nz_offsets[i + 1] - self.nz_offsets[i]);
            out.push(head);
            rest = tail;
        }
        out
    }

    /// Call `f(col, value)` for every kept entry of row `i`, ascending
    /// column order: full groups by their code bits (see [`scan_codes`]),
    /// then the dense tail.
    #[inline]
    pub fn scan_row(&self, i: usize, mut f: impl FnMut(usize, T)) {
        let m = self.pattern.m();
        let row_nz = self.row_nonzeros(i);
        let row_codes = self.row_codes(i);
        let nz_pos = scan_codes(m, row_codes, row_nz, &mut f);
        let tail_base = row_codes.len() * m;
        for (t, &v) in row_nz[nz_pos..].iter().enumerate() {
            f(tail_base + t, v);
        }
    }

    /// Expand row `i` back to a dense length-`len` vector (pruned slots are
    /// zero).
    pub fn decompress_row(&self, i: usize) -> Vec<T> {
        let mut out = vec![T::zero(); self.lens[i]];
        self.scan_row(i, |c, v| out[c] = v);
        out
    }

    /// Kept-value storage bytes for the whole stack.
    #[inline]
    pub fn nonzeros_bytes(&self) -> usize {
        self.nonzeros.len() * T::BYTES
    }

    /// Logical metadata footprint in bytes (4 bits per full group).
    #[inline]
    pub fn meta_bytes(&self) -> usize {
        compressed_bytes::<T>(0, self.codes.len() as u64) as usize
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

    #[test]
    fn kept_counts_full_groups_plus_dense_tail() {
        let p = NmPattern::P1_2;
        assert_eq!(NmRagged::<f32>::kept_for(p, 8), 4);
        assert_eq!(NmRagged::<f32>::kept_for(p, 9), 5); // 4 groups + 1 tail
        assert_eq!(NmRagged::<f32>::groups_for(p, 9), 4);
        let q = NmPattern::P2_4;
        assert_eq!(NmRagged::<f32>::kept_for(q, 10), 6); // 2 groups×2 + 2 tail
    }

    #[test]
    fn from_parts_offsets_and_accessors() {
        // Rows of dense length 5 and 2 under 1:2 → kept 3 (2 groups + tail 1)
        // and 1 (1 group).
        let r = NmRagged::from_parts(
            NmPattern::P1_2,
            vec![5, 2],
            vec![1.0f32, 2.0, 3.0, 4.0],
            vec![0b01, 0b10, 0b01],
        );
        assert_eq!(r.streams(), 2);
        assert_eq!((r.kept_of(0), r.groups_of(0), r.tail_of(0)), (3, 2, 1));
        assert_eq!((r.kept_of(1), r.groups_of(1), r.tail_of(1)), (1, 1, 0));
        assert_eq!(r.row_nonzeros(0), &[1.0, 2.0, 3.0]);
        assert_eq!(r.row_nonzeros(1), &[4.0]);
        assert_eq!(r.row_codes(1), &[0b01]);
    }

    #[test]
    fn scan_row_visits_groups_then_tail_in_column_order() {
        let r = NmRagged::from_parts(
            NmPattern::P1_2,
            vec![5],
            vec![1.0f32, 2.0, 3.0],
            vec![0b01, 0b10],
        );
        let mut got = Vec::new();
        r.scan_row(0, |c, v| got.push((c, v)));
        // Group 0 keeps col 0, group 1 keeps col 3, tail is col 4.
        assert_eq!(got, vec![(0, 1.0), (3, 2.0), (4, 3.0)]);
        assert_eq!(r.decompress_row(0), vec![1.0, 0.0, 0.0, 2.0, 3.0]);
    }

    #[test]
    fn zeros_is_structurally_valid() {
        let r = NmRagged::<f32>::zeros(NmPattern::P2_4, &[9, 4, 1]);
        assert_eq!(r.streams(), 3);
        assert_eq!(r.kept_of(0), 5); // 2 groups×2 + tail 1
        assert_eq!(r.kept_of(2), 1); // all-tail row: no groups
        assert_eq!(r.groups_of(2), 0);
        let mut cols = Vec::new();
        r.scan_row(0, |c, _| cols.push(c));
        assert_eq!(cols, vec![0, 1, 4, 5, 8]);
    }

    #[test]
    fn bytes_account_values_and_half_byte_metadata() {
        let r = NmRagged::<f32>::zeros(NmPattern::P1_2, &[8, 6]);
        assert_eq!(r.nonzeros_bytes(), (4 + 3) * 4);
        assert_eq!(r.meta_bytes(), (7 * 4usize).div_ceil(8));
        assert_eq!(r.bytes(), r.nonzeros_bytes() + r.meta_bytes());
    }

    #[test]
    fn rows_mut_partitions_the_value_buffer() {
        let mut r = NmRagged::<f32>::zeros(NmPattern::P1_2, &[4, 3]);
        {
            let rows = r.rows_mut();
            assert_eq!(rows.len(), 2);
            assert_eq!((rows[0].len(), rows[1].len()), (2, 2)); // 2 | 1+1 tail
            for (i, row) in rows.into_iter().enumerate() {
                row.iter_mut().for_each(|v| *v = (i + 1) as f32);
            }
        }
        assert_eq!(r.row_nonzeros(0), &[1.0, 1.0]);
        assert_eq!(r.row_nonzeros(1), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "nonzero length")]
    fn from_parts_checks_value_count() {
        let _ = NmRagged::from_parts(NmPattern::P1_2, vec![4], vec![0.0f32], vec![1, 1]);
    }
}
