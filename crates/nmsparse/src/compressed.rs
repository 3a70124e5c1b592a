//! The logical compressed N:M format: nonzeros + per-group selection codes.
//!
//! Nonzeros are stored row-major with `N/M · cols` entries per row (the
//! paper's "the nonzeros contain the value of reserved data that is 50%
//! smaller than the original one" for N/M = 1/2). Selection codes are one
//! byte per M-group holding a bitmask of kept positions; for the hardware
//! patterns (1:2 float, 2:4 bf16) the codes convert losslessly to and from
//! the swizzled [`DeviceMeta`] layout.
//!
//! A B×H launch's scores are one `NmCompressed` over the stacked rows
//! (panel `p` of `rows`-row panels is rows `p·rows .. (p+1)·rows`), since
//! every score row is pruned, normalised and multiplied on its own.
//!
//! [`DeviceMeta`]: crate::meta::DeviceMeta

use crate::meta::{self, DeviceMeta, MetaError};
use crate::pattern::NmPattern;
use dfss_tensor::{Matrix, Scalar};

/// A matrix pruned to an N:M pattern and stored compressed. A charge-only
/// placeholder ([`charge_only`](Self::charge_only)) has empty buffers: its
/// byte counts still come from its shape, and its row accessors panic.
#[derive(Clone, Debug, PartialEq)]
pub struct NmCompressed<T> {
    pattern: NmPattern,
    rows: usize,
    cols: usize,
    /// Row-major kept values; `rows × kept_per_row` entries.
    nonzeros: Vec<T>,
    /// One bitmask byte per M-group (bit i ⇔ dense position i kept),
    /// row-major; `rows × cols/M` entries. Supports M ≤ 8.
    codes: Vec<u8>,
}

impl<T: Scalar> NmCompressed<T> {
    /// Compress a dense matrix by pruning each M-group to its N largest
    /// entries (by value — softmax is monotone, paper §3.1).
    pub fn compress(dense: &Matrix<T>, pattern: NmPattern) -> NmCompressed<T> {
        let (rows, cols) = dense.shape();
        assert_eq!(cols % pattern.m(), 0);
        let mut nonzeros = vec![T::zero(); rows * pattern.kept_per_row(cols)];
        let mut codes = vec![0u8; rows * cols / pattern.m()];
        // Rows are contiguous and whole groups, so one pass covers them all.
        pattern.compress_groups_into(dense.as_slice(), &mut nonzeros, &mut codes);
        NmCompressed::from_parts(pattern, rows, cols, nonzeros, codes)
    }

    /// Shape-only placeholder for charge-only (`!ctx.exec`) kernel results.
    pub fn charge_only(pattern: NmPattern, rows: usize, cols: usize) -> NmCompressed<T> {
        assert_eq!(cols % pattern.m(), 0);
        NmCompressed {
            pattern,
            rows,
            cols,
            nonzeros: Vec::new(),
            codes: Vec::new(),
        }
    }

    /// Whether the buffers are populated (false only for a placeholder).
    #[inline]
    pub fn is_materialized(&self) -> bool {
        self.nonzeros.len() == self.rows * self.kept_per_row()
    }

    /// Assemble directly from parts (used by the fused SDDMM epilogue, which
    /// produces nonzeros and codes without ever materialising the dense
    /// matrix).
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
        rows: usize,
        cols: usize,
        nonzeros: Vec<T>,
        codes: Vec<u8>,
    ) -> NmCompressed<T> {
        assert_eq!(cols % pattern.m(), 0);
        assert_eq!(nonzeros.len(), rows * pattern.kept_per_row(cols));
        assert_eq!(codes.len(), rows * cols / pattern.m());
        debug_assert!(codes.iter().all(|c| c.count_ones() as usize == pattern.n()));
        NmCompressed {
            pattern,
            rows,
            cols,
            nonzeros,
            codes,
        }
    }

    #[inline]
    pub fn pattern(&self) -> NmPattern {
        self.pattern
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dense (uncompressed) column count.
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

    /// Kept values of one row, compressed order.
    #[inline]
    pub fn row_nonzeros(&self, r: usize) -> &[T] {
        assert!(self.is_materialized(), "charge-only NmCompressed: no rows");
        let k = self.kept_per_row();
        &self.nonzeros[r * k..(r + 1) * k]
    }

    /// All nonzeros (row-major).
    #[inline]
    pub fn nonzeros(&self) -> &[T] {
        &self.nonzeros
    }

    #[inline]
    pub fn nonzeros_mut(&mut self) -> &mut [T] {
        &mut self.nonzeros
    }

    /// Selection bitmask codes (row-major, one per group).
    #[inline]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Allocation-free row scan: calls `f(col, value)` for every kept
    /// entry of row `r` in ascending column order (see [`scan_codes`]).
    #[inline]
    pub fn scan_row(&self, r: usize, f: impl FnMut(usize, T)) {
        let row_nz = self.row_nonzeros(r);
        let gpr = self.groups_per_row();
        let row_codes = &self.codes[r * gpr..(r + 1) * gpr];
        scan_codes(self.pattern.m(), row_codes, row_nz, f);
    }

    /// Reconstruct the dense matrix (zeros at pruned positions).
    pub fn decompress(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let row = out.row_mut(r);
            self.scan_row(r, |c, v| row[c] = v);
        }
        out
    }

    /// Nonzero storage footprint in bytes.
    #[inline]
    pub fn nonzeros_bytes(&self) -> usize {
        self.rows * self.kept_per_row() * T::BYTES
    }

    /// Logical metadata footprint in bytes (4 bits per group for the
    /// hardware patterns — the 1/16-of-dense figure from §2.3).
    #[inline]
    pub fn meta_bytes(&self) -> usize {
        // 4 bits per group, rounded up to whole bytes per matrix.
        compressed_bytes::<T>(0, (self.rows * self.groups_per_row()) as u64) as usize
    }

    /// Total compressed footprint in bytes.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.nonzeros_bytes() + self.meta_bytes()
    }

    /// Convert the selection codes to the swizzled device metadata layout.
    ///
    /// Only the hardware patterns qualify: with 2:4 each group is one 4-lane
    /// code; with 1:2 each *pair of float values* is one 4-lane code, so two
    /// logical 1:2 groups fuse into one device code. Requires `rows % 32 == 0`
    /// and the device code count per row to be a multiple of 8 (the 32×64-byte
    /// prune tile).
    ///
    /// General patterns and non-tileable shapes are rejected with a typed
    /// [`MetaError`] — the serving front door converts formats on behalf of
    /// untrusted requests and must not abort the process.
    pub fn to_device_meta(&self) -> Result<DeviceMeta, MetaError> {
        match (self.pattern.n(), self.pattern.m()) {
            (2, 4) => {
                let mut device = Vec::with_capacity(self.codes.len());
                for &bm in &self.codes {
                    let lanes = bitmask_to_lanes(bm);
                    device.push(meta::lanes_to_code(lanes.0, lanes.1));
                }
                DeviceMeta::try_encode(self.rows, self.groups_per_row(), &device)
            }
            (1, 2) => {
                // With float data each 32-bit value spans two 2-byte lanes,
                // so one 1:2 group (two floats = 8 bytes) is one device code
                // restricted to {0x4, 0xE}.
                let mut device = Vec::with_capacity(self.codes.len());
                for &bm in &self.codes {
                    device.push(meta::float_keep_code(bit_index(bm)));
                }
                DeviceMeta::try_encode(self.rows, self.groups_per_row(), &device)
            }
            _ => Err(MetaError::UnsupportedPattern {
                n: self.pattern.n(),
                m: self.pattern.m(),
            }),
        }
    }

    /// Rebuild from device metadata + nonzeros (inverse of
    /// [`Self::to_device_meta`] plus the row-major nonzero store). Rejects
    /// unsupported patterns and malformed code streams with a typed
    /// [`MetaError`].
    pub fn from_device_meta(
        pattern: NmPattern,
        rows: usize,
        cols: usize,
        nonzeros: Vec<T>,
        dm: &DeviceMeta,
    ) -> Result<NmCompressed<T>, MetaError> {
        // Everything `from_parts` would assert is pre-checked here as a
        // typed error: the inputs come from untrusted requests.
        if cols == 0 || !cols.is_multiple_of(pattern.m()) {
            return Err(MetaError::BadShape {
                rows,
                cols,
                m: pattern.m(),
            });
        }
        let expected_nz = rows * pattern.kept_per_row(cols);
        if nonzeros.len() != expected_nz {
            return Err(MetaError::LengthMismatch {
                what: "nonzeros",
                expected: expected_nz,
                got: nonzeros.len(),
            });
        }
        let groups = rows * cols / pattern.m();
        let device_codes = dm.decode();
        if device_codes.len() != groups {
            return Err(MetaError::LengthMismatch {
                what: "device metadata codes",
                expected: groups,
                got: device_codes.len(),
            });
        }
        let mut codes = Vec::with_capacity(groups);
        match (pattern.n(), pattern.m()) {
            (2, 4) => {
                for &c in &device_codes {
                    let (i0, i1) = meta::try_code_to_lanes(c)?;
                    codes.push((1u8 << i0) | (1u8 << i1));
                }
            }
            (1, 2) => {
                for &c in &device_codes {
                    codes.push(1u8 << meta::float_kept_index(c)?);
                }
            }
            _ => {
                return Err(MetaError::UnsupportedPattern {
                    n: pattern.n(),
                    m: pattern.m(),
                })
            }
        }
        Ok(NmCompressed::from_parts(
            pattern, rows, cols, nonzeros, codes,
        ))
    }
}

/// Device bytes of compressed N:M scores: `kept` values of `T` plus one
/// 4-bit selection code per group, the codes rounded up to whole bytes.
/// Every charge and ledger entry of compressed scores is this over its own
/// `(kept, groups)` — per matrix, per row or per stream — which fixes where
/// it rounds.
#[inline]
pub fn compressed_bytes<T: Scalar>(kept: u64, groups: u64) -> u64 {
    kept * T::BYTES as u64 + (groups * 4).div_ceil(8)
}

/// The one group-code bit scan every compressed format reads rows with:
/// calls `f(col, value)` for every kept entry of a row given as its group
/// codes (`codes[g]` covers columns `g·m .. (g+1)·m`) and kept values, in
/// ascending column order, and returns how many kept values it read.
#[inline]
pub fn scan_codes<T: Copy>(m: usize, codes: &[u8], nz: &[T], mut f: impl FnMut(usize, T)) -> usize {
    let mut nz_pos = 0usize;
    for (g, &code) in codes.iter().enumerate() {
        let base = g * m;
        let mut bits = code;
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            f(base + bit, nz[nz_pos]);
            nz_pos += 1;
            bits &= bits - 1;
        }
    }
    nz_pos
}

/// Position of the single set bit of a 1:2 bitmask code.
#[inline]
fn bit_index(code: u8) -> usize {
    debug_assert_eq!(code.count_ones(), 1);
    code.trailing_zeros() as usize
}

/// The two set-bit positions of a 2:4 bitmask code.
#[inline]
fn bitmask_to_lanes(code: u8) -> (usize, usize) {
    debug_assert_eq!(code.count_ones(), 2);
    let i0 = code.trailing_zeros() as usize;
    let rest = code & !(1 << i0);
    let i1 = rest.trailing_zeros() as usize;
    (i0, i1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfss_tensor::{Bf16, Rng};

    #[test]
    fn compress_decompress_equals_prune() {
        let mut rng = Rng::new(2);
        let dense = Matrix::<f32>::random_normal(32, 64, 0.0, 1.0, &mut rng);
        for pattern in [NmPattern::P1_2, NmPattern::P2_4, NmPattern::new(1, 4)] {
            let comp = NmCompressed::compress(&dense, pattern);
            let mut pruned = dense.clone();
            pattern.prune_matrix(&mut pruned);
            assert_eq!(comp.decompress(), pruned, "pattern {pattern}");
        }
    }

    #[test]
    fn nonzeros_are_half_for_hardware_patterns() {
        let mut rng = Rng::new(4);
        let dense = Matrix::<f32>::random_normal(32, 32, 0.0, 1.0, &mut rng);
        let comp = NmCompressed::compress(&dense, NmPattern::P1_2);
        assert_eq!(comp.nonzeros().len(), 32 * 16);
        assert_eq!(comp.nonzeros_bytes(), dense.bytes() / 2);
    }

    #[test]
    fn meta_bytes_is_one_sixteenth_of_dense_float() {
        let mut rng = Rng::new(4);
        let dense = Matrix::<f32>::random_normal(64, 64, 0.0, 1.0, &mut rng);
        let comp = NmCompressed::compress(&dense, NmPattern::P1_2);
        // n² × 32-bit dense → n²/16 × 32-bit metadata (paper §3.4).
        assert_eq!(comp.meta_bytes(), dense.bytes() / 16);
    }

    #[test]
    fn scan_row_visits_ascending_columns() {
        let dense = Matrix::<f32>::from_vec(1, 8, vec![5., 1., 2., 6., 0., 9., 8., 7.]);
        let comp = NmCompressed::compress(&dense, NmPattern::P2_4);
        let mut entries: Vec<(usize, f32)> = Vec::new();
        comp.scan_row(0, |c, v| entries.push((c, v)));
        assert_eq!(entries, vec![(0, 5.0), (3, 6.0), (5, 9.0), (6, 8.0)]);
    }

    #[test]
    fn device_meta_roundtrip_bf16_2_4() {
        let mut rng = Rng::new(6);
        let dense = Matrix::<Bf16>::random_normal(32, 32, 0.0, 1.0, &mut rng);
        let comp = NmCompressed::compress(&dense, NmPattern::P2_4);
        let dm = comp.to_device_meta().unwrap();
        let back =
            NmCompressed::from_device_meta(NmPattern::P2_4, 32, 32, comp.nonzeros().to_vec(), &dm)
                .unwrap();
        assert_eq!(back, comp);
        assert_eq!(back.decompress().max_abs_diff(&comp.decompress()), 0.0);
    }

    #[test]
    fn device_meta_roundtrip_float_1_2() {
        let mut rng = Rng::new(8);
        let dense = Matrix::<f32>::random_normal(64, 32, 0.0, 1.0, &mut rng);
        let comp = NmCompressed::compress(&dense, NmPattern::P1_2);
        let dm = comp.to_device_meta().unwrap();
        let back =
            NmCompressed::from_device_meta(NmPattern::P1_2, 64, 32, comp.nonzeros().to_vec(), &dm)
                .unwrap();
        assert_eq!(back, comp);
    }

    #[test]
    fn device_meta_rejects_general_patterns_with_typed_error() {
        let dense = Matrix::<f32>::zeros(32, 32);
        let comp = NmCompressed::compress(&dense, NmPattern::new(1, 4));
        assert_eq!(
            comp.to_device_meta(),
            Err(MetaError::UnsupportedPattern { n: 1, m: 4 })
        );
        let dm = DeviceMeta::encode(32, 8, &[0x4u8; 32 * 8]);
        let err = NmCompressed::<f32>::from_device_meta(
            NmPattern::new(1, 4),
            32,
            32,
            vec![0.0; 32 * 8],
            &dm,
        )
        .unwrap_err();
        assert_eq!(err, MetaError::UnsupportedPattern { n: 1, m: 4 });
    }

    #[test]
    fn from_device_meta_rejects_malformed_streams_with_typed_errors() {
        // A 2:4 metadata stream containing a code outside Figure 6(b)'s
        // alphabet (0x0 = "keep lane 0 twice") must be a typed rejection,
        // not a silent popcount-1 bitmask.
        let mut codes = vec![0x4u8; 32 * 8];
        codes[17] = 0x0;
        let dm = DeviceMeta::encode(32, 8, &codes);
        let err = NmCompressed::<Bf16>::from_device_meta(
            NmPattern::P2_4,
            32,
            32,
            vec![Bf16::from_f32(0.0); 32 * 16],
            &dm,
        )
        .unwrap_err();
        assert_eq!(err, MetaError::BadBf16Code(0x0));
        // Wrong nonzero count.
        let dm = DeviceMeta::encode(32, 8, &[0x4u8; 32 * 8]);
        let err = NmCompressed::<f32>::from_device_meta(NmPattern::P1_2, 32, 32, vec![0.0; 7], &dm)
            .unwrap_err();
        assert_eq!(
            err,
            MetaError::LengthMismatch {
                what: "nonzeros",
                expected: 32 * 16,
                got: 7
            }
        );
        // Metadata stream sized for a different shape.
        let err =
            NmCompressed::<f32>::from_device_meta(NmPattern::P1_2, 32, 64, vec![0.0; 32 * 32], &dm)
                .unwrap_err();
        assert_eq!(
            err,
            MetaError::LengthMismatch {
                what: "device metadata codes",
                expected: 32 * 32,
                got: 32 * 8
            }
        );
        // Columns that do not split into M-groups.
        let err = NmCompressed::<f32>::from_device_meta(NmPattern::P1_2, 32, 33, vec![0.0; 1], &dm)
            .unwrap_err();
        assert_eq!(
            err,
            MetaError::BadShape {
                rows: 32,
                cols: 33,
                m: 2
            }
        );
    }

    #[test]
    fn device_meta_rejects_non_tile_shapes_with_typed_error() {
        // 16 rows do not fill a 32-row prune tile.
        let dense = Matrix::<f32>::zeros(16, 32);
        let comp = NmCompressed::compress(&dense, NmPattern::P1_2);
        assert_eq!(
            comp.to_device_meta(),
            Err(MetaError::BadTile {
                rows: 16,
                codes_per_row: 16
            })
        );
    }

    #[test]
    fn from_parts_validates() {
        let nz = vec![1.0f32; 4];
        let codes = vec![0b01u8, 0b10, 0b01, 0b10];
        let c = NmCompressed::from_parts(NmPattern::P1_2, 2, 4, nz, codes);
        assert_eq!(c.kept_per_row(), 2);
    }

    #[test]
    fn charge_only_carries_shape() {
        let p = NmCompressed::<f32>::charge_only(NmPattern::P1_2, 8 * 64, 64);
        assert!(!p.is_materialized());
        assert_eq!(p.kept_per_row(), 32);
        assert_eq!(p.bytes(), 8 * (64 * 32 * 4 + 64 * 32 / 2));
        let full = NmCompressed::compress(&Matrix::<f32>::zeros(8 * 64, 64), NmPattern::P1_2);
        assert!(full.is_materialized());
        assert_eq!(p.bytes(), full.bytes());
    }

    #[test]
    #[should_panic(expected = "charge-only")]
    fn charge_only_row_access_panics() {
        let p = NmCompressed::<f32>::charge_only(NmPattern::P1_2, 16, 8);
        let _ = p.row_nonzeros(0);
    }

    #[test]
    fn bf16_compress_halves_bytes() {
        let mut rng = Rng::new(5);
        let dense = Matrix::<Bf16>::random_normal(32, 64, 0.0, 1.0, &mut rng);
        let comp = NmCompressed::compress(&dense, NmPattern::P2_4);
        assert_eq!(comp.nonzeros_bytes(), dense.bytes() / 2);
        // Check every group kept the two largest.
        let dec = comp.decompress();
        for r in 0..32 {
            for g in 0..16 {
                let vals: Vec<f32> = (0..4).map(|i| dense.get(r, g * 4 + i).to_f32()).collect();
                let kept: Vec<f32> = (0..4)
                    .map(|i| dec.get(r, g * 4 + i).to_f32())
                    .filter(|&v| v != 0.0)
                    .collect();
                let mut sorted = vals.clone();
                sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
                for k in kept {
                    assert!(k >= sorted[1] - 1e-6, "row {r} group {g}");
                }
            }
        }
    }
}
