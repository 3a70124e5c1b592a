//! Explicit-SIMD microkernel backends with one-time runtime dispatch.
//!
//! The paper's premise is that N:M sparsity exists to feed fixed-function
//! units at their roofline; the host engine chases the same roofline here
//! instead of hoping autovectorisation fires. Every hot inner loop of the
//! microkernels ([`crate::micro`], the decode routines in the private
//! `decode` module) routes through a [`Backend`] chosen **once per
//! process** by `std::arch` runtime feature detection — AVX-512 / AVX2 on
//! x86-64 — with the scalar reference path always compiled in: it is the
//! semantics every SIMD implementation must match bit for bit, the code
//! every other target runs, and the `DFSS_SIMD=scalar` CI leg runs the
//! whole suite on it.
//!
//! **Bit-parity is a hard contract**, not a best-effort goal. The existing
//! test suites pin exact bitwise equality between kernels (batched vs
//! looped, ragged vs solo, paged vs contiguous), so a SIMD backend may not
//! change a single ulp. Three rules make that possible:
//!
//! * **No FMA.** The scalar path rounds every product before adding
//!   (`acc += s * x` is an IEEE multiply then an IEEE add); fused
//!   multiply-add keeps the infinite-precision product and produces
//!   different bits. All backends use separate multiply and add.
//! * **Element-wise ops vectorise freely.** [`Backend::axpy`] and the
//!   register tiles of [`Backend::panel_tile`], [`nn_tile`] and
//!   [`spmm_tile`] update independent output lanes in serial k-order;
//!   lane width does not touch the per-lane operation order, so any width
//!   is bit-identical.
//! * **Reductions keep the scalar shape.** The decode score dot
//!   ([`dot_widen`]) accumulates into 8 lanes (serially across 8-blocks)
//!   and reduces with a fixed tree `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`
//!   ([`dot_widen_ref`]). The AVX2 horizontal sum — add the high 128-bit
//!   half onto the low, then pairwise-add — performs *exactly* that tree.
//!   AVX-512 must **not** widen the dot accumulator to 16 lanes (that
//!   changes the summation order); it reuses the 8-lane dot and spends its
//!   width on the element-wise ops instead.
//!
//! The decode path additionally gets **fused widen-on-load** operands
//! ([`dot_widen`] / [`axpy_widen`]): cached K/V rows stored as `f32` are
//! TF32-rounded in-register (bit-exact replica of
//! [`dfss_tensor::tf32_round`], including NaN/Inf passthrough), and rows
//! stored as [`Bf16`](dfss_tensor::Bf16) are widened by a zero-extend +
//! 16-bit shift — exact by construction — so the bf16-quantised KV cache
//! is read at half the memory traffic with no intermediate widened buffer.
//! Because bf16→f32 widening is exact and TF32 keeps more mantissa bits
//! than bf16 has, the fused bf16 path is bitwise identical to a host-side
//! widen-then-f32 model.
//!
//! Dispatch order: `DFSS_SIMD` env override (`scalar`/`avx2`/`avx512`) →
//! runtime detection → scalar. The choice is logged once to stderr at
//! startup (the serving layer also exports it in `/metrics`). [`force`]
//! overrides the choice at runtime for A/B benchmarking (`dfss-bench`'s
//! scalar-vs-dispatched section).

// The one place the workspace's `unsafe_code = "deny"` is relaxed:
// `std::arch` intrinsics are inherently `unsafe fn`. Safety arguments are
// local and mechanical — every public entry asserts the slice lengths its
// unchecked backends rely on, every vector load/store stays inside `full`
// (the largest lane multiple ≤ len) or inside those asserted lengths (the
// SpMM tile's also by total code decoding, and the AVX-512 tiles' tail
// loads are lane-masked), and every `target_feature` function is reached
// only through a `Backend` variant: `active()` and `force()` yield only
// available ones, and the tiles assert `available()` (the other ops trust
// their caller's variant).
#![allow(unsafe_code)]

use dfss_nmsparse::{NmPattern, MAX_M};
use dfss_tensor::Scalar;
#[cfg(target_arch = "x86_64")]
use std::any::TypeId;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Lane width of the blocked-dot accumulator of [`dot_widen`] (and of the
/// row-max fold); every backend must reduce over exactly this many lanes.
const LANES: usize = 8;

/// Output rows of one register tile: [`Backend::panel_tile`], [`nn_tile`]
/// and [`spmm_tile`] each keep up to this many rows' accumulators in
/// registers for the whole k scan, so each operand row (for SpMM, the `M`
/// candidate V rows of a group) is pulled into L1 once and serves every
/// row of the tile.
pub const TILE_ROWS: usize = 4;

/// One SIMD instruction-set backend. `Scalar` is the always-available
/// reference; the others are selected only when the CPU supports them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Portable reference implementation (also the `DFSS_SIMD=scalar` CI
    /// leg). Defines the bit-exact semantics of every operation.
    Scalar,
    /// 256-bit x86-64 path (8 f32 lanes).
    Avx2,
    /// 512-bit x86-64 path: 16-lane element-wise ops, 8-lane dot (the dot's
    /// reduction shape is part of the bit contract and cannot widen).
    Avx512,
}

impl Backend {
    /// Stable lowercase name (used by `DFSS_SIMD`, logs and `/metrics`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Whether this backend can run on the current CPU.
    pub fn available(self) -> bool {
        match self {
            Backend::Scalar => true,
            Backend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            Backend::Avx512 => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("avx512f")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    fn parse(name: &str) -> Option<Backend> {
        match name {
            "scalar" => Some(Backend::Scalar),
            "avx2" => Some(Backend::Avx2),
            "avx512" => Some(Backend::Avx512),
            _ => None,
        }
    }
}

/// Best backend the current CPU supports.
fn detect() -> Backend {
    for b in [Backend::Avx512, Backend::Avx2] {
        if b.available() {
            return b;
        }
    }
    Backend::Scalar
}

/// Resolve the process-wide backend: `DFSS_SIMD` override if set and
/// available, else runtime detection. Logs the choice once.
fn choose() -> Backend {
    let detected = detect();
    let chosen = match std::env::var("DFSS_SIMD") {
        Err(_) => detected,
        Ok(req) => match Backend::parse(&req) {
            Some(b) if b.available() => b,
            Some(b) => {
                eprintln!(
                    "dfss-simd: DFSS_SIMD={} not available on this CPU, using {}",
                    b.name(),
                    detected.name()
                );
                detected
            }
            None => {
                eprintln!(
                    "dfss-simd: unknown DFSS_SIMD value {req:?} \
                     (expected scalar|avx2|avx512), using {}",
                    detected.name()
                );
                detected
            }
        },
    };
    eprintln!(
        "dfss-simd: backend={} (detected={}; set DFSS_SIMD=scalar|avx2|avx512 to override)",
        chosen.name(),
        detected.name()
    );
    chosen
}

static CHOSEN: OnceLock<Backend> = OnceLock::new();
/// 0 = no forced override; otherwise `backend as u8 + 1`.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The backend every microkernel call site dispatches through. Resolved
/// (and logged) exactly once per process, on first use — kernel pools call
/// this at startup so the choice is pinned before any compute runs.
#[inline]
pub fn active() -> Backend {
    match FORCED.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        2 => Backend::Avx2,
        3 => Backend::Avx512,
        _ => *CHOSEN.get_or_init(choose),
    }
}

/// Force a specific backend process-wide (`None` restores the dispatched
/// choice). For A/B benchmarking and backend-pinned tests only; panics if
/// the backend is not available on this CPU.
pub fn force(backend: Option<Backend>) {
    let code = match backend {
        None => 0,
        Some(b) => {
            assert!(b.available(), "backend {} not available here", b.name());
            match b {
                Backend::Scalar => 1,
                Backend::Avx2 => 2,
                Backend::Avx512 => 3,
            }
        }
    };
    FORCED.store(code, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Scalar reference implementations (the bit-exact semantics).
// ---------------------------------------------------------------------------

/// Reference `acc[j] += s · row[j]`.
#[inline(always)]
pub fn axpy_ref(acc: &mut [f32], s: f32, row: &[f32]) {
    debug_assert_eq!(acc.len(), row.len());
    for (o, &x) in acc.iter_mut().zip(row) {
        *o += s * x;
    }
}

#[inline(always)]
fn panel_tile_ref_r<const R: usize>(
    arows: &[&[f32]; TILE_ROWS],
    block: &[f32],
    n: usize,
    j0: usize,
    w: usize,
    acc_out: &mut [f32],
) {
    let ka = arows[0].len();
    let mut acc = [[0.0f32; 16]; R];
    for kk in 0..ka {
        let row: &[f32; 16] = block[kk * 16..(kk + 1) * 16].try_into().unwrap();
        for r in 0..R {
            let s = arows[r][kk];
            for (o, &x) in acc[r].iter_mut().zip(row) {
                *o += s * x;
            }
        }
    }
    for r in 0..R {
        acc_out[r * n + j0..r * n + j0 + w].copy_from_slice(&acc[r][..w]);
    }
}

/// Reference register tile of [`crate::micro::panel_product`]: `rcnt ≤`
/// [`TILE_ROWS`] accumulator rows of one 16-column tile, serial k-order per
/// element.
pub fn panel_tile_ref(
    arows: &[&[f32]; TILE_ROWS],
    rcnt: usize,
    block: &[f32],
    n: usize,
    j0: usize,
    w: usize,
    acc_out: &mut [f32],
) {
    match rcnt {
        4 => panel_tile_ref_r::<4>(arows, block, n, j0, w, acc_out),
        3 => panel_tile_ref_r::<3>(arows, block, n, j0, w, acc_out),
        2 => panel_tile_ref_r::<2>(arows, block, n, j0, w, acc_out),
        _ => panel_tile_ref_r::<1>(arows, block, n, j0, w, acc_out),
    }
}

/// Reference lane-blocked row maximum (see `softmax`): `f32::max` is
/// associative, commutative and NaN-ignoring, and a `±0.0` tie is invisible
/// downstream, so lane regrouping cannot change softmax results.
#[inline(always)]
pub fn row_max_ref(buf: &[f32]) -> f32 {
    let full = buf.len() / LANES * LANES;
    let mut lanes = [f32::NEG_INFINITY; LANES];
    for c in (0..full).step_by(LANES) {
        let xb: &[f32; LANES] = buf[c..c + LANES].try_into().unwrap();
        for l in 0..LANES {
            lanes[l] = lanes[l].max(xb[l]);
        }
    }
    let mut max = f32::NEG_INFINITY;
    for &l in &lanes {
        max = max.max(l);
    }
    for &x in &buf[full..] {
        max = max.max(x);
    }
    max
}

/// Reference fused widen-on-load dot: `Σ q[i] · to_mul(row[i])` without
/// the intermediate widened buffer — TF32 rounding for `f32` KV, exact
/// widening for [`Bf16`](dfss_tensor::Bf16) KV, via [`Scalar::to_mul`].
/// The sum has the published 8-lane shape every backend reproduces bit for
/// bit: lane `l` accumulates the products at `i ≡ l (mod 8)` over the whole
/// 8-blocks, the lanes fold by the tree
/// `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`, and the tail products then add
/// serially.
#[inline(always)]
pub fn dot_widen_ref<S: Scalar>(q: &[f32], row: &[S]) -> f32 {
    debug_assert_eq!(q.len(), row.len());
    let full = q.len() / LANES * LANES;
    let mut lanes = [0.0f32; LANES];
    for c in (0..full).step_by(LANES) {
        let xq: &[f32; LANES] = q[c..c + LANES].try_into().unwrap();
        let xr: &[S; LANES] = row[c..c + LANES].try_into().unwrap();
        for l in 0..LANES {
            lanes[l] += xq[l] * xr[l].to_mul();
        }
    }
    let q0 = (lanes[0] + lanes[4]) + (lanes[1] + lanes[5]);
    let q1 = (lanes[2] + lanes[6]) + (lanes[3] + lanes[7]);
    let mut acc = q0 + q1;
    for (x, y) in q[full..].iter().zip(&row[full..]) {
        acc += x * y.to_mul();
    }
    acc
}

/// Reference fused widen-on-load axpy: `acc[j] += s · to_mul(row[j])`.
#[inline(always)]
pub fn axpy_widen_ref<S: Scalar>(acc: &mut [f32], s: f32, row: &[S]) {
    debug_assert_eq!(acc.len(), row.len());
    for (o, &x) in acc.iter_mut().zip(row) {
        *o += s * x.to_mul();
    }
}

/// Columns of one accumulator window of the scalar references (and of the
/// AVX-512 tiles, `4 × 16` lanes per row).
const WINDOW: usize = 64;

/// Store `R` rows of reference window accumulators into
/// `out[r·stride + j0 ..][..w]`, one `from_acc` per element. Both
/// reference tiles end each window with it.
#[inline(always)]
fn spill_ref<T: Scalar, const R: usize>(
    acc: &[[f32; WINDOW]; R],
    out: &mut [T],
    stride: usize,
    j0: usize,
    w: usize,
) {
    for (r, acc) in acc.iter().enumerate() {
        for (o, &x) in out[r * stride + j0..][..w].iter_mut().zip(&acc[..w]) {
            *o = T::from_acc(x);
        }
    }
}

/// Lane pairs of the 2:4 code table, indexed by `code & 0xF`: the two
/// lowest set bits, or lanes `(0, 1)` when fewer than two bits are set.
/// Shared by the SpMM decode and the 2:4 prune epilogue.
pub(crate) const PAIRS_2_4: [[u8; 2]; 16] = pairs_2_4();

const fn pairs_2_4() -> [[u8; 2]; 16] {
    let mut table = [[0, 1]; 16];
    let mut code = 0usize;
    while code < 16 {
        let rest = code & code.wrapping_sub(1);
        if code != 0 && rest != 0 {
            table[code] = [code.trailing_zeros() as u8, rest.trailing_zeros() as u8];
        }
        code += 1;
    }
    table
}

/// Total decoding of one group's code byte into its kept lanes. Release
/// builds do not validate codes, so every byte must decode to at most `N`
/// lanes, each below `M`: the unchecked V loads then stay in bounds, and
/// every backend reads the same rows for a malformed code. A well-formed
/// code decodes to exactly its set bits, ascending.
trait Lanes: Copy {
    /// Kept values per group (the stride of a row's nonzeros per group).
    fn n(self) -> usize;
    /// Group width.
    fn m(self) -> usize;
    /// Write the kept lanes of `code` into `out`; returns how many.
    fn decode(self, code: u8, out: &mut [usize; MAX_M]) -> usize;
}

/// 1:2: the kept lane is bit 1 of the code.
#[derive(Clone, Copy)]
struct Lanes1of2;

impl Lanes for Lanes1of2 {
    #[inline(always)]
    fn n(self) -> usize {
        1
    }
    #[inline(always)]
    fn m(self) -> usize {
        2
    }
    #[inline(always)]
    fn decode(self, code: u8, out: &mut [usize; MAX_M]) -> usize {
        out[0] = ((code >> 1) & 1) as usize;
        1
    }
}

/// 2:4: the [`PAIRS_2_4`] table.
#[derive(Clone, Copy)]
struct Lanes2of4;

impl Lanes for Lanes2of4 {
    #[inline(always)]
    fn n(self) -> usize {
        2
    }
    #[inline(always)]
    fn m(self) -> usize {
        4
    }
    #[inline(always)]
    fn decode(self, code: u8, out: &mut [usize; MAX_M]) -> usize {
        let [a, b] = PAIRS_2_4[(code & 0xF) as usize];
        out[0] = a as usize;
        out[1] = b as usize;
        2
    }
}

/// Any other N:M: a bit-scan of the low `M` bits that stops after `N` lanes.
#[derive(Clone, Copy)]
struct LanesScan {
    n: usize,
    m: usize,
}

impl Lanes for LanesScan {
    #[inline(always)]
    fn n(self) -> usize {
        self.n
    }
    #[inline(always)]
    fn m(self) -> usize {
        self.m
    }
    #[inline(always)]
    fn decode(self, code: u8, out: &mut [usize; MAX_M]) -> usize {
        let mut bits = code & (u8::MAX >> (8 - self.m));
        let mut kept = 0;
        while bits != 0 && kept < self.n {
            out[kept] = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            kept += 1;
        }
        kept
    }
}

/// One scalar window of [`spmm_tile`]: `R` rows × columns `j0 .. j0 + w`
/// (`w ≤ 64`), accumulated from `0.0` in ascending group, then lane, order.
/// It defines the op's semantics, and the SIMD backends run their column
/// tails through it, so those tails match the reference by construction.
#[inline(always)]
fn spmm_window_ref<T: Scalar, L: Lanes, const R: usize>(
    lanes: L,
    gpr: usize,
    nz: &[T],
    codes: &[u8],
    v: &[f32],
    d: usize,
    j0: usize,
    w: usize,
    out: &mut [T],
) {
    let (n, m) = (lanes.n(), lanes.m());
    let mut acc = [[0.0f32; WINDOW]; R];
    let mut sel = [0usize; MAX_M];
    for g in 0..gpr {
        for (r, acc) in acc.iter_mut().enumerate() {
            let kept = lanes.decode(codes[r * gpr + g], &mut sel);
            for (i, &lane) in sel[..kept].iter().enumerate() {
                let s = nz[(r * gpr + g) * n + i].to_mul();
                let row = &v[(g * m + lane) * d + j0..][..w];
                for (o, &x) in acc[..w].iter_mut().zip(row) {
                    *o += s * x;
                }
            }
        }
    }
    spill_ref(&acc, out, d, j0, w);
}

/// Reference N:M SpMM tile: the bit-exact semantics of [`spmm_tile`].
#[inline]
pub fn spmm_tile_ref<T: Scalar>(
    pattern: NmPattern,
    rcnt: usize,
    nz: &[T],
    codes: &[u8],
    v: &[f32],
    d: usize,
    out: &mut [T],
) {
    spmm_tile(Backend::Scalar, pattern, rcnt, nz, codes, v, d, out);
}

/// One scalar window of [`nn_tile`]: `R` rows × columns `j0 .. j0 + w`
/// (`w ≤ 64`), accumulated from `0.0` in ascending k, skipping each term
/// whose A entry is `±0.0`. It defines the op's semantics, and the AVX2
/// backend runs its column tails through it.
#[inline(always)]
fn nn_window_ref<T: Scalar, const R: usize>(
    a: &[f32],
    ka: usize,
    b: &[f32],
    n: usize,
    j0: usize,
    w: usize,
    out: &mut [T],
) {
    let mut acc = [[0.0f32; WINDOW]; R];
    for kk in 0..ka {
        let row = &b[kk * n + j0..][..w];
        for (r, acc) in acc.iter_mut().enumerate() {
            let s = a[r * ka + kk];
            if s == 0.0 {
                continue;
            }
            for (o, &x) in acc[..w].iter_mut().zip(row) {
                *o += s * x;
            }
        }
    }
    spill_ref(&acc, out, n, j0, w);
}

// ---------------------------------------------------------------------------
// Dispatched operations.
// ---------------------------------------------------------------------------

impl Backend {
    /// `acc[j] += s · row[j]` (element-wise; bit-identical at any width).
    ///
    /// # Panics
    /// If `acc` and `row` differ in length (the unchecked backends rely on
    /// this check).
    #[inline]
    pub fn axpy(self, acc: &mut [f32], s: f32, row: &[f32]) {
        assert_eq!(acc.len(), row.len(), "axpy row length differs from acc");
        match self {
            // SAFETY (both): `row` is as long as `acc`, checked above.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => unsafe { x86::axpy_avx512(acc, s, row) },
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { x86::axpy_avx2(acc, s, row) },
            _ => axpy_ref(acc, s, row),
        }
    }

    /// One register tile of `panel_product`: `rcnt ≤` [`TILE_ROWS`] rows ×
    /// 16 columns, accumulated over the whole k extent in registers. The
    /// first `rcnt` entries of `arows` are A rows of `ka = arows[0].len()`
    /// elements, `block` holds `ka × 16` packed elements, and results
    /// overwrite `acc_out[r·n + j0 .. r·n + j0 + w]`.
    ///
    /// # Panics
    /// If `rcnt` is outside `1..=TILE_ROWS`, one of the first `rcnt` rows
    /// is not `ka` long, or `block` is shorter than `ka × 16` (the unchecked
    /// backends rely on these checks); also if `w > 16` or an output range
    /// falls outside `acc_out`.
    #[inline]
    pub fn panel_tile(
        self,
        arows: &[&[f32]; TILE_ROWS],
        rcnt: usize,
        block: &[f32],
        n: usize,
        j0: usize,
        w: usize,
        acc_out: &mut [f32],
    ) {
        assert!(
            (1..=TILE_ROWS).contains(&rcnt),
            "tile of {rcnt} rows (1..={TILE_ROWS})"
        );
        let ka = arows[0].len();
        assert!(
            arows[..rcnt].iter().all(|row| row.len() == ka),
            "tile rows are not all {ka} long"
        );
        assert!(
            block.len() / 16 >= ka,
            "block shorter than {ka} packed rows"
        );
        match self {
            // SAFETY (both): the first `rcnt` rows hold `ka` elements and
            // `block` at least `ka × 16`, checked above; the output stores
            // are bounds-checked.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => unsafe {
                x86::panel_tile_avx512(arows, rcnt, block, n, j0, w, acc_out)
            },
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { x86::panel_tile_avx2(arows, rcnt, block, n, j0, w, acc_out) },
            _ => panel_tile_ref(arows, rcnt, block, n, j0, w, acc_out),
        }
    }

    /// Row maximum (softmax phase 1; order-insensitive by `f32::max`
    /// algebra, see [`row_max_ref`]).
    #[inline]
    pub fn row_max(self, buf: &[f32]) -> f32 {
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 | Backend::Avx512 => unsafe { x86::row_max_avx2(buf) },
            _ => row_max_ref(buf),
        }
    }
}

/// Fused widen-on-load dot against a raw KV row (`f32` → TF32-rounded
/// in-register, [`Bf16`](dfss_tensor::Bf16) → exact widen in-register):
/// the decode score microkernel. Bitwise equal to [`dot_widen_ref`] on
/// every backend.
///
/// # Panics
/// If `q` and `row` differ in length (the unchecked backends rely on this
/// check).
#[inline]
pub fn dot_widen<S: Scalar>(backend: Backend, q: &[f32], row: &[S]) -> f32 {
    assert_eq!(q.len(), row.len(), "dot_widen row length differs from q");
    match backend {
        // SAFETY (every call below): `row` is as long as `q`, checked above.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => {
            if TypeId::of::<S>() == TypeId::of::<f32>() {
                // SAFETY: S == f32 (checked above); slices of a type are
                // slices of itself.
                let row =
                    unsafe { std::slice::from_raw_parts(row.as_ptr().cast::<f32>(), row.len()) };
                return unsafe { x86::dot_tf32_avx2(q, row) };
            }
            if TypeId::of::<S>() == TypeId::of::<dfss_tensor::Bf16>() {
                // SAFETY: S == Bf16, which is repr(transparent) over u16.
                let row =
                    unsafe { std::slice::from_raw_parts(row.as_ptr().cast::<u16>(), row.len()) };
                return unsafe { x86::dot_bf16_avx2(q, row) };
            }
            dot_widen_ref(q, row)
        }
        _ => dot_widen_ref(q, row),
    }
}

/// Fused widen-on-load axpy against a raw KV row: the decode SpMM
/// microkernel. Bitwise equal to [`axpy_widen_ref`] on every backend.
///
/// # Panics
/// If `acc` and `row` differ in length (the unchecked backends rely on
/// this check).
#[inline]
pub fn axpy_widen<S: Scalar>(backend: Backend, acc: &mut [f32], s: f32, row: &[S]) {
    assert_eq!(
        acc.len(),
        row.len(),
        "axpy_widen row length differs from acc"
    );
    match backend {
        // SAFETY (every call below): `row` is as long as `acc`, checked
        // above.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => {
            if TypeId::of::<S>() == TypeId::of::<f32>() {
                // SAFETY: S == f32 (checked above).
                let row =
                    unsafe { std::slice::from_raw_parts(row.as_ptr().cast::<f32>(), row.len()) };
                return unsafe { x86::axpy_tf32_avx2(acc, s, row) };
            }
            if TypeId::of::<S>() == TypeId::of::<dfss_tensor::Bf16>() {
                // SAFETY: S == Bf16, which is repr(transparent) over u16.
                let row =
                    unsafe { std::slice::from_raw_parts(row.as_ptr().cast::<u16>(), row.len()) };
                return unsafe { x86::axpy_bf16_avx2(acc, s, row) };
            }
            axpy_widen_ref(acc, s, row)
        }
        _ => axpy_widen_ref(acc, s, row),
    }
}

/// Register-tiled dense NN product: `rcnt ≤` [`TILE_ROWS`] widened A rows
/// (`a`, row-major, `ka = a.len() / rcnt` columns) against a widened
/// row-major `ka × n` B, written into the `rcnt × n` output `out`:
/// `out[r][j] = Σ a[r][k] · b[k][j]`, the terms added from `0.0` in
/// ascending k (multiply, then add: no FMA) and converted once with
/// `from_acc`. A term whose A entry is `0.0` or `−0.0` is skipped, not
/// multiplied, so a non-finite B row under a zero weight (a softmax weight
/// that underflowed, a masked one) never reaches the output.
///
/// The tile shape is per backend (AVX-512: 4 rows × 64 columns; AVX2:
/// 4 rows × 16; scalar: 64-column reference windows); only the
/// per-element order is fixed, so every backend is bit-identical to
/// `Backend::Scalar`.
///
/// # Panics
/// If `backend` is not available on this CPU, `rcnt` is outside `1..=4`,
/// or a slice length disagrees with the shape above (the unchecked
/// backends rely on these checks).
pub fn nn_tile<T: Scalar>(
    backend: Backend,
    rcnt: usize,
    a: &[f32],
    b: &[f32],
    n: usize,
    out: &mut [T],
) {
    assert!(
        backend.available(),
        "backend {} not available",
        backend.name()
    );
    assert!(
        (1..=TILE_ROWS).contains(&rcnt),
        "tile of {rcnt} rows (1..={TILE_ROWS})"
    );
    let ka = a.len() / rcnt;
    assert_eq!(a.len(), rcnt * ka, "A does not split into {rcnt} rows");
    assert_eq!(b.len(), ka * n, "B is not {ka} rows of {n}");
    assert_eq!(out.len(), rcnt * n, "output is not {rcnt} rows of {n}");
    match rcnt {
        4 => nn_rows::<T, 4>(backend, a, ka, b, n, out),
        3 => nn_rows::<T, 3>(backend, a, ka, b, n, out),
        2 => nn_rows::<T, 2>(backend, a, ka, b, n, out),
        _ => nn_rows::<T, 1>(backend, a, ka, b, n, out),
    }
}

/// [`nn_tile`] with `R` rows: the backend's register tile, or the
/// reference windows.
fn nn_rows<T: Scalar, const R: usize>(
    backend: Backend,
    a: &[f32],
    ka: usize,
    b: &[f32],
    n: usize,
    out: &mut [T],
) {
    match backend {
        // SAFETY (both): `nn_tile` checked the lengths of `a`, `b` and `out`
        // against `R`, `ka` and `n`.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::nn_rows_avx512::<T, R>(a, ka, b, n, out) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::nn_rows_avx2::<T, R>(a, ka, b, n, out) },
        _ => {
            let mut j0 = 0;
            while j0 < n {
                let w = WINDOW.min(n - j0);
                nn_window_ref::<T, R>(a, ka, b, n, j0, w, out);
                j0 += w;
            }
        }
    }
}

/// Register-tiled N:M SpMM: `rcnt ≤` [`TILE_ROWS`] compressed rows
/// against a widened `inner × d` V panel. `nz` holds the rows' kept values
/// (`N` per group, row-major), `codes` one selection byte per group, and
/// `out` the `rcnt × d` result:
/// `out[r][j] = Σ to_mul(nz) · v[col][j]`, the terms added from `0.0` in
/// ascending group, then lane, order (multiply, then add: no FMA) and
/// converted once with `from_acc`. Codes decode totally — 1:2 as
/// `(code >> 1) & 1`, 2:4 through a 16-entry table of `code & 0xF`, other
/// patterns as a bit-scan of the low `M` bits that stops after `N` lanes —
/// so any byte selects in-bounds V rows, the same ones on every backend.
///
/// The tile shape is per backend (AVX-512: 4 rows × 64 columns; AVX2:
/// 4 rows × 16; scalar: 64-column reference windows); only the
/// per-element order is fixed, so every backend is bit-identical to
/// [`spmm_tile_ref`].
///
/// # Panics
/// If `backend` is not available on this CPU, `rcnt` is outside `1..=4`,
/// or a slice length disagrees with the shape above (the unchecked
/// backends rely on these checks).
pub fn spmm_tile<T: Scalar>(
    backend: Backend,
    pattern: NmPattern,
    rcnt: usize,
    nz: &[T],
    codes: &[u8],
    v: &[f32],
    d: usize,
    out: &mut [T],
) {
    assert!(
        backend.available(),
        "backend {} not available",
        backend.name()
    );
    assert!(
        (1..=TILE_ROWS).contains(&rcnt),
        "tile of {rcnt} rows (1..={TILE_ROWS})"
    );
    let gpr = codes.len() / rcnt;
    assert_eq!(
        codes.len(),
        rcnt * gpr,
        "codes do not split into {rcnt} rows"
    );
    assert_eq!(
        nz.len(),
        rcnt * gpr * pattern.n(),
        "nonzeros do not fit codes"
    );
    assert!(
        v.len() >= gpr * pattern.m() * d,
        "V panel shorter than A's columns"
    );
    assert_eq!(out.len(), rcnt * d, "output is not {rcnt} rows of {d}");
    match (pattern.n(), pattern.m()) {
        (1, 2) => spmm_tile_lanes(backend, Lanes1of2, rcnt, gpr, nz, codes, v, d, out),
        (2, 4) => spmm_tile_lanes(backend, Lanes2of4, rcnt, gpr, nz, codes, v, d, out),
        (n, m) => spmm_tile_lanes(backend, LanesScan { n, m }, rcnt, gpr, nz, codes, v, d, out),
    }
}

#[inline]
fn spmm_tile_lanes<T: Scalar, L: Lanes>(
    backend: Backend,
    lanes: L,
    rcnt: usize,
    gpr: usize,
    nz: &[T],
    codes: &[u8],
    v: &[f32],
    d: usize,
    out: &mut [T],
) {
    match rcnt {
        4 => spmm_rows::<T, L, 4>(backend, lanes, gpr, nz, codes, v, d, out),
        3 => spmm_rows::<T, L, 3>(backend, lanes, gpr, nz, codes, v, d, out),
        2 => spmm_rows::<T, L, 2>(backend, lanes, gpr, nz, codes, v, d, out),
        _ => spmm_rows::<T, L, 1>(backend, lanes, gpr, nz, codes, v, d, out),
    }
}

/// [`spmm_tile`] with `R` rows: the backend's register tile, or the
/// reference windows.
fn spmm_rows<T: Scalar, L: Lanes, const R: usize>(
    backend: Backend,
    lanes: L,
    gpr: usize,
    nz: &[T],
    codes: &[u8],
    v: &[f32],
    d: usize,
    out: &mut [T],
) {
    match backend {
        // SAFETY (both): `spmm_tile` checked the slice lengths against `R`,
        // `gpr`, `d` and the pattern, and `Lanes::decode` keeps every lane
        // below `M` and every nonzero index below `N` per group.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe {
            x86::spmm_rows_avx512::<T, L, R>(lanes, gpr, nz, codes, v, d, out)
        },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe {
            x86::spmm_rows_avx2::<T, L, R>(lanes, gpr, nz, codes, v, d, out)
        },
        _ => {
            let mut j0 = 0;
            while j0 < d {
                let w = WINDOW.min(d - j0);
                spmm_window_ref::<T, L, R>(lanes, gpr, nz, codes, v, d, j0, w, out);
                j0 += w;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// x86-64 implementations.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Lanes, Scalar, MAX_M, TILE_ROWS};
    use dfss_tensor::tf32_round;
    use std::arch::x86_64::*;

    /// Horizontal sum of an 8-lane accumulator in the scalar tree order:
    /// adding the high 128-bit half onto the low yields
    /// `[l0+l4, l1+l5, l2+l6, l3+l7]`, one `hadd` yields
    /// `[(l0+l4)+(l1+l5), (l2+l6)+(l3+l7), …]`, and the final scalar add
    /// is `q0 + q1` — exactly `super::dot_widen_ref`'s reduction.
    #[inline(always)]
    unsafe fn hsum_tree(acc: __m256) -> f32 {
        let hi = _mm256_extractf128_ps::<1>(acc);
        let lo = _mm256_castps256_ps128(acc);
        let s = _mm_add_ps(lo, hi);
        let h = _mm_hadd_ps(s, s);
        _mm_cvtss_f32(_mm_add_ss(h, _mm_movehdup_ps(h)))
    }

    /// Bit-exact vector replica of [`dfss_tensor::tf32_round`]: round to
    /// nearest-even at 10 mantissa bits, NaN/Inf passed through (exponent
    /// all-ones lanes keep their input bits).
    #[inline(always)]
    unsafe fn tf32_round8(v: __m256) -> __m256 {
        let bits = _mm256_castps_si256(v);
        let lsb = _mm256_and_si256(_mm256_srli_epi32::<13>(bits), _mm256_set1_epi32(1));
        let rounded = _mm256_add_epi32(bits, _mm256_add_epi32(_mm256_set1_epi32(0xFFF), lsb));
        let masked = _mm256_and_si256(rounded, _mm256_set1_epi32(!0x1FFFi32));
        let exp = _mm256_and_si256(bits, _mm256_set1_epi32(0x7F80_0000));
        let special = _mm256_cmpeq_epi32(exp, _mm256_set1_epi32(0x7F80_0000));
        _mm256_blendv_ps(_mm256_castsi256_ps(masked), v, _mm256_castsi256_ps(special))
    }

    /// Widen 8 bf16 values (as raw u16 bits) to f32: zero-extend, shift
    /// left 16 — exact, the scalar `Bf16::to_f32` lane by lane.
    #[inline(always)]
    unsafe fn widen_bf16_8(p: *const u16) -> __m256 {
        let half = _mm_loadu_si128(p.cast::<__m128i>());
        let wide = _mm256_cvtepu16_epi32(half);
        _mm256_castsi256_ps(_mm256_slli_epi32::<16>(wide))
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_tf32_avx2(a: &[f32], b: &[f32]) -> f32 {
        let full = a.len() / 8 * 8;
        let mut acc = _mm256_setzero_ps();
        let mut c = 0;
        while c < full {
            let va = _mm256_loadu_ps(a.as_ptr().add(c));
            let vb = tf32_round8(_mm256_loadu_ps(b.as_ptr().add(c)));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
            c += 8;
        }
        let mut out = hsum_tree(acc);
        for i in full..a.len() {
            out += a.get_unchecked(i) * tf32_round(*b.get_unchecked(i));
        }
        out
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_bf16_avx2(a: &[f32], b: &[u16]) -> f32 {
        let full = a.len() / 8 * 8;
        let mut acc = _mm256_setzero_ps();
        let mut c = 0;
        while c < full {
            let va = _mm256_loadu_ps(a.as_ptr().add(c));
            let vb = widen_bf16_8(b.as_ptr().add(c));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
            c += 8;
        }
        let mut out = hsum_tree(acc);
        for i in full..a.len() {
            out += a.get_unchecked(i) * f32::from_bits((*b.get_unchecked(i) as u32) << 16);
        }
        out
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_avx2(acc: &mut [f32], s: f32, row: &[f32]) {
        let n = acc.len();
        let full = n / 8 * 8;
        let vs = _mm256_set1_ps(s);
        let mut i = 0;
        while i < full {
            let o = _mm256_loadu_ps(acc.as_ptr().add(i));
            let x = _mm256_loadu_ps(row.as_ptr().add(i));
            _mm256_storeu_ps(
                acc.as_mut_ptr().add(i),
                _mm256_add_ps(o, _mm256_mul_ps(vs, x)),
            );
            i += 8;
        }
        for j in full..n {
            *acc.get_unchecked_mut(j) += s * row.get_unchecked(j);
        }
    }

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn axpy_avx512(acc: &mut [f32], s: f32, row: &[f32]) {
        let n = acc.len();
        let full = n / 16 * 16;
        let vs = _mm512_set1_ps(s);
        let mut i = 0;
        while i < full {
            let o = _mm512_loadu_ps(acc.as_ptr().add(i));
            let x = _mm512_loadu_ps(row.as_ptr().add(i));
            _mm512_storeu_ps(
                acc.as_mut_ptr().add(i),
                _mm512_add_ps(o, _mm512_mul_ps(vs, x)),
            );
            i += 16;
        }
        for j in full..n {
            *acc.get_unchecked_mut(j) += s * row.get_unchecked(j);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_tf32_avx2(acc: &mut [f32], s: f32, row: &[f32]) {
        let n = acc.len();
        let full = n / 8 * 8;
        let vs = _mm256_set1_ps(s);
        let mut i = 0;
        while i < full {
            let o = _mm256_loadu_ps(acc.as_ptr().add(i));
            let x = tf32_round8(_mm256_loadu_ps(row.as_ptr().add(i)));
            _mm256_storeu_ps(
                acc.as_mut_ptr().add(i),
                _mm256_add_ps(o, _mm256_mul_ps(vs, x)),
            );
            i += 8;
        }
        for j in full..n {
            *acc.get_unchecked_mut(j) += s * tf32_round(*row.get_unchecked(j));
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_bf16_avx2(acc: &mut [f32], s: f32, row: &[u16]) {
        let n = acc.len();
        let full = n / 8 * 8;
        let vs = _mm256_set1_ps(s);
        let mut i = 0;
        while i < full {
            let o = _mm256_loadu_ps(acc.as_ptr().add(i));
            let x = widen_bf16_8(row.as_ptr().add(i));
            _mm256_storeu_ps(
                acc.as_mut_ptr().add(i),
                _mm256_add_ps(o, _mm256_mul_ps(vs, x)),
            );
            i += 8;
        }
        for j in full..n {
            *acc.get_unchecked_mut(j) += s * f32::from_bits((*row.get_unchecked(j) as u32) << 16);
        }
    }

    /// # Safety
    /// AVX2 must be available, and the slices must have the lengths
    /// `Backend::panel_tile` checks.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn panel_tile_avx2(
        arows: &[&[f32]; TILE_ROWS],
        rcnt: usize,
        block: &[f32],
        n: usize,
        j0: usize,
        w: usize,
        acc_out: &mut [f32],
    ) {
        let ka = arows[0].len();
        let mut lo = [_mm256_setzero_ps(); TILE_ROWS];
        let mut hi = [_mm256_setzero_ps(); TILE_ROWS];
        for kk in 0..ka {
            let b0 = _mm256_loadu_ps(block.as_ptr().add(kk * 16));
            let b1 = _mm256_loadu_ps(block.as_ptr().add(kk * 16 + 8));
            for r in 0..rcnt {
                let s = _mm256_set1_ps(*arows[r].get_unchecked(kk));
                lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(s, b0));
                hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(s, b1));
            }
        }
        let mut tile = [0.0f32; 16];
        for r in 0..rcnt {
            _mm256_storeu_ps(tile.as_mut_ptr(), lo[r]);
            _mm256_storeu_ps(tile.as_mut_ptr().add(8), hi[r]);
            acc_out[r * n + j0..r * n + j0 + w].copy_from_slice(&tile[..w]);
        }
    }

    /// # Safety
    /// AVX-512F must be available, and the slices must have the lengths
    /// `Backend::panel_tile` checks.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn panel_tile_avx512(
        arows: &[&[f32]; TILE_ROWS],
        rcnt: usize,
        block: &[f32],
        n: usize,
        j0: usize,
        w: usize,
        acc_out: &mut [f32],
    ) {
        let ka = arows[0].len();
        let mut acc = [_mm512_setzero_ps(); TILE_ROWS];
        for kk in 0..ka {
            let b = _mm512_loadu_ps(block.as_ptr().add(kk * 16));
            for r in 0..rcnt {
                let s = _mm512_set1_ps(*arows[r].get_unchecked(kk));
                acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(s, b));
            }
        }
        let mut tile = [0.0f32; 16];
        for r in 0..rcnt {
            _mm512_storeu_ps(tile.as_mut_ptr(), acc[r]);
            acc_out[r * n + j0..r * n + j0 + w].copy_from_slice(&tile[..w]);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_max_avx2(buf: &[f32]) -> f32 {
        let full = buf.len() / 8 * 8;
        let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut c = 0;
        while c < full {
            // `max_ps(a, b)` returns `b` when either is NaN: with the
            // accumulator second, a NaN lane of `buf` is ignored (as
            // `f32::max` ignores it) and `acc` never becomes NaN.
            acc = _mm256_max_ps(_mm256_loadu_ps(buf.as_ptr().add(c)), acc);
            c += 8;
        }
        let hi = _mm256_extractf128_ps::<1>(acc);
        let lo = _mm256_castps256_ps128(acc);
        let m4 = _mm_max_ps(lo, hi);
        let m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
        let m1 = _mm_max_ss(m2, _mm_movehdup_ps(m2));
        let mut max = _mm_cvtss_f32(m1);
        for i in full..buf.len() {
            max = max.max(*buf.get_unchecked(i));
        }
        max
    }

    /// Lane masks of an AVX-512 tile's window of `w ≤ 64` columns: vector
    /// `c` covers columns `16c .. 16c + 16`, and its lanes past `w` are off.
    #[inline(always)]
    fn window_masks(w: usize) -> [__mmask16; 4] {
        std::array::from_fn(|c| {
            let live = w.saturating_sub(16 * c).min(16);
            ((1u32 << live) - 1) as __mmask16
        })
    }

    /// Store `R` rows of an AVX-512 tile's window accumulators:
    /// `out[r·stride + j0 ..][..w] = from_acc(acc[r])`, through a stack
    /// spill. Both AVX-512 tiles end each window with it.
    ///
    /// # Safety
    /// AVX-512F must be available, `w ≤ 64`, and every row's range must lie
    /// in `out`.
    #[inline(always)]
    unsafe fn spill_avx512<T: Scalar, const R: usize>(
        acc: &[[__m512; 4]; R],
        out: &mut [T],
        stride: usize,
        j0: usize,
        w: usize,
    ) {
        let mut tile = [0.0f32; 64];
        for (r, acc) in acc.iter().enumerate() {
            for (c, v) in acc.iter().enumerate() {
                _mm512_storeu_ps(tile.as_mut_ptr().add(16 * c), *v);
            }
            let orow = out.get_unchecked_mut(r * stride + j0..r * stride + j0 + w);
            for (o, &x) in orow.iter_mut().zip(&tile[..w]) {
                *o = T::from_acc(x);
            }
        }
    }

    /// Store `R` rows of an AVX2 tile's 16-column accumulators:
    /// `out[r·stride + j0 ..][..16] = from_acc(acc[r])`, through a stack
    /// spill. Both AVX2 tiles end each full window with it.
    ///
    /// # Safety
    /// AVX2 must be available, and every row's range must lie in `out`.
    #[inline(always)]
    unsafe fn spill_avx2<T: Scalar, const R: usize>(
        acc: &[[__m256; 2]; R],
        out: &mut [T],
        stride: usize,
        j0: usize,
    ) {
        let mut tile = [0.0f32; 16];
        for (r, acc) in acc.iter().enumerate() {
            for (c, v) in acc.iter().enumerate() {
                _mm256_storeu_ps(tile.as_mut_ptr().add(8 * c), *v);
            }
            let orow = out.get_unchecked_mut(r * stride + j0..r * stride + j0 + 16);
            for (o, &x) in orow.iter_mut().zip(&tile) {
                *o = T::from_acc(x);
            }
        }
    }

    /// `R` rows × a 64-column window in `4R` zmm accumulators; each B row's
    /// window is loaded once per k and serves all `R` rows. Vectors past
    /// the window's width load under a lane mask (masked-off lanes touch no
    /// memory), so column tails need no scalar loop.
    ///
    /// # Safety
    /// AVX-512F must be available, and the slices must have the lengths
    /// `super::nn_tile` checks for `R` rows of `ka` columns.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn nn_rows_avx512<T: Scalar, const R: usize>(
        a: &[f32],
        ka: usize,
        b: &[f32],
        n: usize,
        out: &mut [T],
    ) {
        let mut j0 = 0;
        while j0 < n {
            let w = (n - j0).min(64);
            let masks = window_masks(w);
            let mut acc = [[_mm512_setzero_ps(); 4]; R];
            let mut x = [_mm512_setzero_ps(); 4];
            for kk in 0..ka {
                // `wrapping_add`: a fully masked vector may sit past the end
                // of `b`; its address is never dereferenced.
                let row = b.as_ptr().wrapping_add(kk * n + j0);
                for (c, x) in x.iter_mut().enumerate() {
                    *x = _mm512_maskz_loadu_ps(masks[c], row.wrapping_add(16 * c));
                }
                for (r, acc) in acc.iter_mut().enumerate() {
                    let s = *a.get_unchecked(r * ka + kk);
                    if s == 0.0 {
                        continue;
                    }
                    let s = _mm512_set1_ps(s);
                    for (v, &x) in acc.iter_mut().zip(&x) {
                        *v = _mm512_add_ps(*v, _mm512_mul_ps(s, x));
                    }
                }
            }
            spill_avx512(&acc, out, n, j0, w);
            j0 += w;
        }
    }

    /// `R` rows × 16 columns in `2R` ymm accumulators (a wider tile would
    /// not fit the 16 registers); a column tail narrower than 16 runs the
    /// scalar reference window.
    ///
    /// # Safety
    /// AVX2 must be available, and the slices must have the lengths
    /// `super::nn_tile` checks for `R` rows of `ka` columns.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn nn_rows_avx2<T: Scalar, const R: usize>(
        a: &[f32],
        ka: usize,
        b: &[f32],
        n: usize,
        out: &mut [T],
    ) {
        let full = n / 16 * 16;
        let mut j0 = 0;
        while j0 < full {
            let mut acc = [[_mm256_setzero_ps(); 2]; R];
            for kk in 0..ka {
                let row = b.as_ptr().add(kk * n + j0);
                let x = [_mm256_loadu_ps(row), _mm256_loadu_ps(row.add(8))];
                for (r, acc) in acc.iter_mut().enumerate() {
                    let s = *a.get_unchecked(r * ka + kk);
                    if s == 0.0 {
                        continue;
                    }
                    let s = _mm256_set1_ps(s);
                    for (v, &x) in acc.iter_mut().zip(&x) {
                        *v = _mm256_add_ps(*v, _mm256_mul_ps(s, x));
                    }
                }
            }
            spill_avx2(&acc, out, n, j0);
            j0 += 16;
        }
        if full < n {
            super::nn_window_ref::<T, R>(a, ka, b, n, full, n - full, out);
        }
    }

    /// `R` rows × a 64-column window in `4R` zmm accumulators. Vectors past
    /// the window's width load under a lane mask (masked-off lanes touch no
    /// memory), so column tails need no scalar loop.
    ///
    /// # Safety
    /// AVX-512F must be available, and the slices must have the lengths
    /// `super::spmm_tile` checks for `R` rows of `gpr` groups.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn spmm_rows_avx512<T: Scalar, L: Lanes, const R: usize>(
        lanes: L,
        gpr: usize,
        nz: &[T],
        codes: &[u8],
        v: &[f32],
        d: usize,
        out: &mut [T],
    ) {
        let (n, m) = (lanes.n(), lanes.m());
        let mut sel = [0usize; MAX_M];
        let mut j0 = 0;
        while j0 < d {
            let w = (d - j0).min(64);
            let masks = window_masks(w);
            let mut acc = [[_mm512_setzero_ps(); 4]; R];
            for g in 0..gpr {
                for (r, acc) in acc.iter_mut().enumerate() {
                    let kept = lanes.decode(*codes.get_unchecked(r * gpr + g), &mut sel);
                    for (i, &lane) in sel[..kept].iter().enumerate() {
                        let s = _mm512_set1_ps(nz.get_unchecked((r * gpr + g) * n + i).to_mul());
                        // `wrapping_add`: a fully masked vector may sit past
                        // the end of `v`; its address is never dereferenced.
                        let row = v.as_ptr().wrapping_add((g * m + lane) * d + j0);
                        for (c, a) in acc.iter_mut().enumerate() {
                            let x = _mm512_maskz_loadu_ps(masks[c], row.wrapping_add(16 * c));
                            *a = _mm512_add_ps(*a, _mm512_mul_ps(s, x));
                        }
                    }
                }
            }
            spill_avx512(&acc, out, d, j0, w);
            j0 += w;
        }
    }

    /// `R` rows × 16 columns in `2R` ymm accumulators (a wider tile would
    /// not fit the 16 registers); a column tail narrower than 16 runs the
    /// scalar reference window.
    ///
    /// # Safety
    /// AVX2 must be available, and the slices must have the lengths
    /// `super::spmm_tile` checks for `R` rows of `gpr` groups.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn spmm_rows_avx2<T: Scalar, L: Lanes, const R: usize>(
        lanes: L,
        gpr: usize,
        nz: &[T],
        codes: &[u8],
        v: &[f32],
        d: usize,
        out: &mut [T],
    ) {
        let (n, m) = (lanes.n(), lanes.m());
        let mut sel = [0usize; MAX_M];
        let full = d / 16 * 16;
        let mut j0 = 0;
        while j0 < full {
            let mut acc = [[_mm256_setzero_ps(); 2]; R];
            for g in 0..gpr {
                for (r, acc) in acc.iter_mut().enumerate() {
                    let kept = lanes.decode(*codes.get_unchecked(r * gpr + g), &mut sel);
                    for (i, &lane) in sel[..kept].iter().enumerate() {
                        let s = _mm256_set1_ps(nz.get_unchecked((r * gpr + g) * n + i).to_mul());
                        let row = v.as_ptr().add((g * m + lane) * d + j0);
                        for (c, a) in acc.iter_mut().enumerate() {
                            let x = _mm256_loadu_ps(row.add(8 * c));
                            *a = _mm256_add_ps(*a, _mm256_mul_ps(s, x));
                        }
                    }
                }
            }
            spill_avx2(&acc, out, d, j0);
            j0 += 16;
        }
        if full < d {
            super::spmm_window_ref::<T, L, R>(lanes, gpr, nz, codes, v, d, full, d - full, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available_and_parse_round_trips() {
        assert!(Backend::Scalar.available());
        for b in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        for unknown in ["sse9", "neon"] {
            assert_eq!(Backend::parse(unknown), None);
        }
    }

    #[test]
    fn active_backend_is_available_and_stable() {
        let b = active();
        assert!(b.available());
        assert_eq!(active(), b);
    }

    #[test]
    fn force_overrides_and_restores() {
        let dispatched = active();
        force(Some(Backend::Scalar));
        assert_eq!(active(), Backend::Scalar);
        force(None);
        assert_eq!(active(), dispatched);
    }

    #[test]
    fn detect_never_picks_an_unavailable_backend() {
        assert!(detect().available());
    }
}
