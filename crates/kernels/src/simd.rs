//! Explicit-SIMD microkernel backends with one-time runtime dispatch.
//!
//! The paper's premise is that N:M sparsity exists to feed fixed-function
//! units at their roofline; the host engine chases the same roofline here
//! instead of hoping autovectorisation fires. Every hot inner loop of the
//! microkernels ([`crate::micro`], the decode routines in the private
//! `decode` module) routes through a [`Backend`] chosen **once per
//! process** by `std::arch` runtime feature detection — AVX-512 / AVX2 on
//! x86-64, NEON on aarch64 — with the scalar reference path always
//! compiled in (it is the semantics every SIMD implementation must match
//! bit for bit, and the `DFSS_SIMD=scalar` CI leg runs the whole suite on
//! it).
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
//! * **Reductions keep the scalar shape.** [`crate::micro::dot`]
//!   accumulates into 8 lanes (serially across 8-blocks) and reduces with
//!   a fixed tree `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`. The AVX2
//!   horizontal sum — add the high 128-bit half onto the low, then
//!   pairwise-add — performs *exactly* that tree. AVX-512 must **not**
//!   widen the dot accumulator to 16 lanes (that changes the summation
//!   order); it reuses the 8-lane dot and spends its width on the
//!   element-wise ops instead.
//!
//! The decode path additionally gets **fused widen-on-load** operands
//! ([`dot_widen`] / [`axpy_widen`]): cached K/V rows stored as `f32` are
//! TF32-rounded in-register (bit-exact replica of
//! [`dfss_tensor::tf32_round`], including NaN/Inf passthrough), and rows
//! stored as [`Bf16`] are widened by a zero-extend + 16-bit shift — exact
//! by construction — so the bf16-quantised KV cache is read at half the
//! memory traffic with no intermediate widened buffer. Because bf16→f32
//! widening is exact and TF32 keeps more mantissa bits than bf16 has,
//! the fused bf16 path is bitwise identical to a host-side
//! widen-then-f32 model.
//!
//! Dispatch order: `DFSS_SIMD` env override (`scalar`/`avx2`/`avx512`/
//! `neon`) → runtime detection → scalar. The choice is logged once to
//! stderr at startup (the serving layer also exports it in `/metrics`).
//! [`force`] overrides the choice at runtime for A/B benchmarking
//! (`dfss-bench`'s scalar-vs-dispatched section).

// The one place the workspace's `unsafe_code = "deny"` is relaxed:
// `std::arch` intrinsics are inherently `unsafe fn`. Safety arguments are
// local and mechanical — every vector load/store stays inside `full`
// (the largest lane multiple ≤ len; the NN and SpMM tiles' rows stay in
// bounds by their asserted slice lengths, the SpMM tile's also by total code
// decoding, and their AVX-512 tail loads are lane-masked) and every
// `target_feature` function is reached only through a `Backend` variant
// whose `available()` check passed.
#![allow(unsafe_code)]

use dfss_nmsparse::{NmPattern, MAX_M};
use dfss_tensor::{tf32_round, Bf16, Scalar};
use std::any::TypeId;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Lane width of the blocked-dot accumulator (see [`crate::micro::LANES`]);
/// every backend must reduce over exactly this many lanes.
const LANES: usize = 8;

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
    /// 128-bit aarch64 path (4 f32 lanes, paired to 8-lane blocks).
    Neon,
}

impl Backend {
    /// Stable lowercase name (used by `DFSS_SIMD`, logs and `/metrics`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
            Backend::Neon => "neon",
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
            Backend::Neon => {
                #[cfg(target_arch = "aarch64")]
                {
                    std::arch::is_aarch64_feature_detected!("neon")
                }
                #[cfg(not(target_arch = "aarch64"))]
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
            "neon" => Some(Backend::Neon),
            _ => None,
        }
    }
}

/// Best backend the current CPU supports.
fn detect() -> Backend {
    for b in [Backend::Avx512, Backend::Avx2, Backend::Neon] {
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
                     (expected scalar|avx2|avx512|neon), using {}",
                    detected.name()
                );
                detected
            }
        },
    };
    eprintln!(
        "dfss-simd: backend={} (detected={}; set DFSS_SIMD=scalar|avx2|avx512|neon to override)",
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
        4 => Backend::Neon,
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
                Backend::Neon => 4,
            }
        }
    };
    FORCED.store(code, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Scalar reference implementations (the bit-exact semantics).
// ---------------------------------------------------------------------------

/// Reference 8-lane blocked dot (see [`crate::micro::dot`] for the shape's
/// rationale). Every SIMD backend must reproduce this bit for bit.
#[inline(always)]
pub fn dot_ref(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let full = a.len() / LANES * LANES;
    let mut lanes = [0.0f32; LANES];
    for c in (0..full).step_by(LANES) {
        let xa: &[f32; LANES] = a[c..c + LANES].try_into().unwrap();
        let xb: &[f32; LANES] = b[c..c + LANES].try_into().unwrap();
        for l in 0..LANES {
            lanes[l] += xa[l] * xb[l];
        }
    }
    let q0 = (lanes[0] + lanes[4]) + (lanes[1] + lanes[5]);
    let q1 = (lanes[2] + lanes[6]) + (lanes[3] + lanes[7]);
    let mut acc = q0 + q1;
    for (x, y) in a[full..].iter().zip(&b[full..]) {
        acc += x * y;
    }
    acc
}

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
    arows: &[&[f32]; 4],
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

/// Reference register tile of [`crate::micro::panel_product`]: `rcnt ≤ 4`
/// accumulator rows of one 16-column tile, serial k-order per element.
pub fn panel_tile_ref(
    arows: &[&[f32]; 4],
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

/// Reference fused widen-on-load dot: `dot(q, to_mul(row))` without the
/// intermediate widened buffer — TF32 rounding for `f32` KV, exact widening
/// for [`Bf16`] KV, via [`Scalar::to_mul`]. Bitwise equal to widening the
/// row first and calling [`dot_ref`].
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

/// Output rows one [`nn_tile`] or [`spmm_tile`] call accumulates together.
/// Every backend keeps all of them in registers for the whole k scan, so
/// each B row (for SpMM, the `M` candidate V rows of a group) is pulled
/// into L1 once and serves every row of the tile.
pub const TILE_ROWS: usize = 4;

/// Columns of one accumulator window of the scalar references (and of the
/// AVX-512 tiles, `4 × 16` lanes per row).
const WINDOW: usize = 64;

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
    for (r, acc) in acc.iter().enumerate() {
        for (o, &x) in out[r * d + j0..][..w].iter_mut().zip(&acc[..w]) {
            *o = T::from_acc(x);
        }
    }
}

fn spmm_rows_ref<T: Scalar, L: Lanes, const R: usize>(
    lanes: L,
    gpr: usize,
    nz: &[T],
    codes: &[u8],
    v: &[f32],
    d: usize,
    out: &mut [T],
) {
    let mut j0 = 0;
    while j0 < d {
        let w = WINDOW.min(d - j0);
        spmm_window_ref::<T, L, R>(lanes, gpr, nz, codes, v, d, j0, w, out);
        j0 += w;
    }
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
    for (r, acc) in acc.iter().enumerate() {
        for (o, &x) in out[r * n + j0..][..w].iter_mut().zip(&acc[..w]) {
            *o = T::from_acc(x);
        }
    }
}

fn nn_rows_ref<T: Scalar, const R: usize>(
    a: &[f32],
    ka: usize,
    b: &[f32],
    n: usize,
    out: &mut [T],
) {
    let mut j0 = 0;
    while j0 < n {
        let w = WINDOW.min(n - j0);
        nn_window_ref::<T, R>(a, ka, b, n, j0, w, out);
        j0 += w;
    }
}

// ---------------------------------------------------------------------------
// Dispatched operations.
// ---------------------------------------------------------------------------

impl Backend {
    /// Lane-blocked dot product (bit-identical across backends).
    #[inline]
    pub fn dot(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            #[cfg(target_arch = "x86_64")]
            // AVX-512 keeps the 8-lane dot: widening the accumulator would
            // change the reduction order (see module docs).
            Backend::Avx2 | Backend::Avx512 => unsafe { x86::dot_avx2(a, b) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe { neon::dot_neon(a, b) },
            _ => dot_ref(a, b),
        }
    }

    /// `acc[j] += s · row[j]` (element-wise; bit-identical at any width).
    #[inline]
    pub fn axpy(self, acc: &mut [f32], s: f32, row: &[f32]) {
        debug_assert_eq!(acc.len(), row.len());
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => unsafe { x86::axpy_avx512(acc, s, row) },
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { x86::axpy_avx2(acc, s, row) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe { neon::axpy_neon(acc, s, row) },
            _ => axpy_ref(acc, s, row),
        }
    }

    /// One register tile of `panel_product`: `rcnt ≤ 4` rows × 16 columns,
    /// accumulated over the whole k extent in registers. `block` holds
    /// `ka × 16` packed elements; results overwrite
    /// `acc_out[r·n + j0 .. r·n + j0 + w]`.
    #[inline]
    pub fn panel_tile(
        self,
        arows: &[&[f32]; 4],
        rcnt: usize,
        block: &[f32],
        n: usize,
        j0: usize,
        w: usize,
        acc_out: &mut [f32],
    ) {
        debug_assert!((1..=4).contains(&rcnt));
        debug_assert!(block.len() >= arows[0].len() * 16);
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => unsafe {
                x86::panel_tile_avx512(arows, rcnt, block, n, j0, w, acc_out)
            },
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { x86::panel_tile_avx2(arows, rcnt, block, n, j0, w, acc_out) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe {
                neon::panel_tile_neon(arows, rcnt, block, n, j0, w, acc_out)
            },
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
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe { neon::row_max_neon(buf) },
            _ => row_max_ref(buf),
        }
    }
}

/// Fused widen-on-load dot against a raw KV row (`f32` → TF32-rounded
/// in-register, [`Bf16`] → exact widen in-register): the decode score
/// microkernel. Bitwise equal to [`dot_widen_ref`] (= widen then
/// [`dot_ref`]) on every backend.
#[inline]
pub fn dot_widen<S: Scalar>(backend: Backend, q: &[f32], row: &[S]) -> f32 {
    debug_assert_eq!(q.len(), row.len());
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => {
            if TypeId::of::<S>() == TypeId::of::<f32>() {
                // SAFETY: S == f32 (checked above); slices of a type are
                // slices of itself.
                let row =
                    unsafe { std::slice::from_raw_parts(row.as_ptr().cast::<f32>(), row.len()) };
                return unsafe { x86::dot_tf32_avx2(q, row) };
            }
            if TypeId::of::<S>() == TypeId::of::<Bf16>() {
                // SAFETY: S == Bf16, which is repr(transparent) over u16.
                let row =
                    unsafe { std::slice::from_raw_parts(row.as_ptr().cast::<u16>(), row.len()) };
                return unsafe { x86::dot_bf16_avx2(q, row) };
            }
            dot_widen_ref(q, row)
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => {
            if TypeId::of::<S>() == TypeId::of::<f32>() {
                // SAFETY: S == f32 (checked above).
                let row =
                    unsafe { std::slice::from_raw_parts(row.as_ptr().cast::<f32>(), row.len()) };
                return unsafe { neon::dot_tf32_neon(q, row) };
            }
            if TypeId::of::<S>() == TypeId::of::<Bf16>() {
                // SAFETY: S == Bf16, which is repr(transparent) over u16.
                let row =
                    unsafe { std::slice::from_raw_parts(row.as_ptr().cast::<u16>(), row.len()) };
                return unsafe { neon::dot_bf16_neon(q, row) };
            }
            dot_widen_ref(q, row)
        }
        _ => dot_widen_ref(q, row),
    }
}

/// Fused widen-on-load axpy against a raw KV row: the decode SpMM
/// microkernel. Bitwise equal to [`axpy_widen_ref`] on every backend.
#[inline]
pub fn axpy_widen<S: Scalar>(backend: Backend, acc: &mut [f32], s: f32, row: &[S]) {
    debug_assert_eq!(acc.len(), row.len());
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => {
            if TypeId::of::<S>() == TypeId::of::<f32>() {
                // SAFETY: S == f32 (checked above).
                let row =
                    unsafe { std::slice::from_raw_parts(row.as_ptr().cast::<f32>(), row.len()) };
                return unsafe { x86::axpy_tf32_avx2(acc, s, row) };
            }
            if TypeId::of::<S>() == TypeId::of::<Bf16>() {
                // SAFETY: S == Bf16, which is repr(transparent) over u16.
                let row =
                    unsafe { std::slice::from_raw_parts(row.as_ptr().cast::<u16>(), row.len()) };
                return unsafe { x86::axpy_bf16_avx2(acc, s, row) };
            }
            axpy_widen_ref(acc, s, row)
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => {
            if TypeId::of::<S>() == TypeId::of::<f32>() {
                // SAFETY: S == f32 (checked above).
                let row =
                    unsafe { std::slice::from_raw_parts(row.as_ptr().cast::<f32>(), row.len()) };
                return unsafe { neon::axpy_tf32_neon(acc, s, row) };
            }
            if TypeId::of::<S>() == TypeId::of::<Bf16>() {
                // SAFETY: S == Bf16, which is repr(transparent) over u16.
                let row =
                    unsafe { std::slice::from_raw_parts(row.as_ptr().cast::<u16>(), row.len()) };
                return unsafe { neon::axpy_bf16_neon(acc, s, row) };
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
/// 4 rows × 16; NEON runs the scalar reference window); only the
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
    match backend {
        // SAFETY (both): the lengths of `a`, `b` and `out` were checked
        // against `rcnt`, `ka` and `n` above.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::nn_tile_avx512(rcnt, a, ka, b, n, out) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::nn_tile_avx2(rcnt, a, ka, b, n, out) },
        _ => match rcnt {
            4 => nn_rows_ref::<T, 4>(a, ka, b, n, out),
            3 => nn_rows_ref::<T, 3>(a, ka, b, n, out),
            2 => nn_rows_ref::<T, 2>(a, ka, b, n, out),
            _ => nn_rows_ref::<T, 1>(a, ka, b, n, out),
        },
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
/// 4 rows × 16; NEON has no tile yet and runs the scalar reference); only
/// the per-element order is fixed, so every backend is bit-identical to
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
    match backend {
        // SAFETY (both): `spmm_tile` checked the slice lengths against
        // `rcnt`, `gpr`, `d` and the pattern, and `Lanes::decode` keeps every
        // lane below `M` and every nonzero index below `N` per group.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::spmm_tile_avx512(lanes, rcnt, gpr, nz, codes, v, d, out) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::spmm_tile_avx2(lanes, rcnt, gpr, nz, codes, v, d, out) },
        _ => match rcnt {
            4 => spmm_rows_ref::<T, L, 4>(lanes, gpr, nz, codes, v, d, out),
            3 => spmm_rows_ref::<T, L, 3>(lanes, gpr, nz, codes, v, d, out),
            2 => spmm_rows_ref::<T, L, 2>(lanes, gpr, nz, codes, v, d, out),
            _ => spmm_rows_ref::<T, L, 1>(lanes, gpr, nz, codes, v, d, out),
        },
    }
}

// ---------------------------------------------------------------------------
// x86-64 implementations.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{tf32_round, Lanes, Scalar, MAX_M};
    use std::arch::x86_64::*;

    /// Horizontal sum of an 8-lane accumulator in the scalar tree order:
    /// adding the high 128-bit half onto the low yields
    /// `[l0+l4, l1+l5, l2+l6, l3+l7]`, one `hadd` yields
    /// `[(l0+l4)+(l1+l5), (l2+l6)+(l3+l7), …]`, and the final scalar add
    /// is `q0 + q1` — exactly `dot_ref`'s reduction.
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
    pub(super) unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        let full = a.len() / 8 * 8;
        let mut acc = _mm256_setzero_ps();
        let mut c = 0;
        while c < full {
            let va = _mm256_loadu_ps(a.as_ptr().add(c));
            let vb = _mm256_loadu_ps(b.as_ptr().add(c));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
            c += 8;
        }
        let mut out = hsum_tree(acc);
        for i in full..a.len() {
            out += a.get_unchecked(i) * b.get_unchecked(i);
        }
        out
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

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn panel_tile_avx2(
        arows: &[&[f32]; 4],
        rcnt: usize,
        block: &[f32],
        n: usize,
        j0: usize,
        w: usize,
        acc_out: &mut [f32],
    ) {
        let ka = arows[0].len();
        let mut lo = [_mm256_setzero_ps(); 4];
        let mut hi = [_mm256_setzero_ps(); 4];
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

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn panel_tile_avx512(
        arows: &[&[f32]; 4],
        rcnt: usize,
        block: &[f32],
        n: usize,
        j0: usize,
        w: usize,
        acc_out: &mut [f32],
    ) {
        let ka = arows[0].len();
        let mut acc = [_mm512_setzero_ps(); 4];
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

    /// # Safety
    /// AVX-512F must be available, and the slices must have the lengths
    /// `super::nn_tile` checks for `rcnt` rows of `ka` columns.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn nn_tile_avx512<T: Scalar>(
        rcnt: usize,
        a: &[f32],
        ka: usize,
        b: &[f32],
        n: usize,
        out: &mut [T],
    ) {
        match rcnt {
            4 => nn_rows_avx512::<T, 4>(a, ka, b, n, out),
            3 => nn_rows_avx512::<T, 3>(a, ka, b, n, out),
            2 => nn_rows_avx512::<T, 2>(a, ka, b, n, out),
            _ => nn_rows_avx512::<T, 1>(a, ka, b, n, out),
        }
    }

    /// `R` rows × a 64-column window in `4R` zmm accumulators; each B row's
    /// window is loaded once per k and serves all `R` rows. Vectors past
    /// the window's width load under a lane mask (masked-off lanes touch no
    /// memory), so column tails need no scalar loop.
    ///
    /// # Safety
    /// As for `nn_tile_avx512`, with `R` rows.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn nn_rows_avx512<T: Scalar, const R: usize>(
        a: &[f32],
        ka: usize,
        b: &[f32],
        n: usize,
        out: &mut [T],
    ) {
        let mut tile = [0.0f32; 64];
        let mut j0 = 0;
        while j0 < n {
            let w = (n - j0).min(64);
            let masks: [__mmask16; 4] = std::array::from_fn(|c| {
                let live = w.saturating_sub(16 * c).min(16);
                ((1u32 << live) - 1) as __mmask16
            });
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
            for (r, acc) in acc.iter().enumerate() {
                for (c, v) in acc.iter().enumerate() {
                    _mm512_storeu_ps(tile.as_mut_ptr().add(16 * c), *v);
                }
                let orow = out.get_unchecked_mut(r * n + j0..r * n + j0 + w);
                for (o, &x) in orow.iter_mut().zip(&tile[..w]) {
                    *o = T::from_acc(x);
                }
            }
            j0 += w;
        }
    }

    /// # Safety
    /// AVX2 must be available, and the slices must have the lengths
    /// `super::nn_tile` checks for `rcnt` rows of `ka` columns.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn nn_tile_avx2<T: Scalar>(
        rcnt: usize,
        a: &[f32],
        ka: usize,
        b: &[f32],
        n: usize,
        out: &mut [T],
    ) {
        match rcnt {
            4 => nn_rows_avx2::<T, 4>(a, ka, b, n, out),
            3 => nn_rows_avx2::<T, 3>(a, ka, b, n, out),
            2 => nn_rows_avx2::<T, 2>(a, ka, b, n, out),
            _ => nn_rows_avx2::<T, 1>(a, ka, b, n, out),
        }
    }

    /// `R` rows × 16 columns in `2R` ymm accumulators (a wider tile would
    /// not fit the 16 registers); a column tail narrower than 16 runs the
    /// scalar reference window.
    ///
    /// # Safety
    /// As for `nn_tile_avx2`, with `R` rows.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn nn_rows_avx2<T: Scalar, const R: usize>(
        a: &[f32],
        ka: usize,
        b: &[f32],
        n: usize,
        out: &mut [T],
    ) {
        let mut tile = [0.0f32; 16];
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
            for (r, acc) in acc.iter().enumerate() {
                for (c, v) in acc.iter().enumerate() {
                    _mm256_storeu_ps(tile.as_mut_ptr().add(8 * c), *v);
                }
                let orow = out.get_unchecked_mut(r * n + j0..r * n + j0 + 16);
                for (o, &x) in orow.iter_mut().zip(&tile) {
                    *o = T::from_acc(x);
                }
            }
            j0 += 16;
        }
        if full < n {
            super::nn_window_ref::<T, R>(a, ka, b, n, full, n - full, out);
        }
    }

    /// # Safety
    /// AVX-512F must be available, and the slices must have the lengths
    /// `super::spmm_tile` checks for `rcnt` rows of `gpr` groups.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn spmm_tile_avx512<T: Scalar, L: Lanes>(
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
            4 => spmm_rows_avx512::<T, L, 4>(lanes, gpr, nz, codes, v, d, out),
            3 => spmm_rows_avx512::<T, L, 3>(lanes, gpr, nz, codes, v, d, out),
            2 => spmm_rows_avx512::<T, L, 2>(lanes, gpr, nz, codes, v, d, out),
            _ => spmm_rows_avx512::<T, L, 1>(lanes, gpr, nz, codes, v, d, out),
        }
    }

    /// `R` rows × a 64-column window in `4R` zmm accumulators. Vectors past
    /// the window's width load under a lane mask (masked-off lanes touch no
    /// memory), so column tails need no scalar loop.
    ///
    /// # Safety
    /// As for `spmm_tile_avx512`, with `R` rows.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn spmm_rows_avx512<T: Scalar, L: Lanes, const R: usize>(
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
        let mut tile = [0.0f32; 64];
        let mut j0 = 0;
        while j0 < d {
            let w = (d - j0).min(64);
            let masks: [__mmask16; 4] = std::array::from_fn(|c| {
                let live = w.saturating_sub(16 * c).min(16);
                ((1u32 << live) - 1) as __mmask16
            });
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
            for (r, acc) in acc.iter().enumerate() {
                for (c, a) in acc.iter().enumerate() {
                    _mm512_storeu_ps(tile.as_mut_ptr().add(16 * c), *a);
                }
                let orow = out.get_unchecked_mut(r * d + j0..r * d + j0 + w);
                for (o, &x) in orow.iter_mut().zip(&tile[..w]) {
                    *o = T::from_acc(x);
                }
            }
            j0 += w;
        }
    }

    /// # Safety
    /// AVX2 must be available, and the slices must have the lengths
    /// `super::spmm_tile` checks for `rcnt` rows of `gpr` groups.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn spmm_tile_avx2<T: Scalar, L: Lanes>(
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
            4 => spmm_rows_avx2::<T, L, 4>(lanes, gpr, nz, codes, v, d, out),
            3 => spmm_rows_avx2::<T, L, 3>(lanes, gpr, nz, codes, v, d, out),
            2 => spmm_rows_avx2::<T, L, 2>(lanes, gpr, nz, codes, v, d, out),
            _ => spmm_rows_avx2::<T, L, 1>(lanes, gpr, nz, codes, v, d, out),
        }
    }

    /// `R` rows × 16 columns in `2R` ymm accumulators (a wider tile would
    /// not fit the 16 registers); a column tail narrower than 16 runs the
    /// scalar reference window.
    ///
    /// # Safety
    /// As for `spmm_tile_avx2`, with `R` rows.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn spmm_rows_avx2<T: Scalar, L: Lanes, const R: usize>(
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
        let mut tile = [0.0f32; 16];
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
            for (r, acc) in acc.iter().enumerate() {
                for (c, a) in acc.iter().enumerate() {
                    _mm256_storeu_ps(tile.as_mut_ptr().add(8 * c), *a);
                }
                let orow = out.get_unchecked_mut(r * d + j0..r * d + j0 + 16);
                for (o, &x) in orow.iter_mut().zip(&tile) {
                    *o = T::from_acc(x);
                }
            }
            j0 += 16;
        }
        if full < d {
            super::spmm_window_ref::<T, L, R>(lanes, gpr, nz, codes, v, d, full, d - full, out);
        }
    }
}

// ---------------------------------------------------------------------------
// aarch64 implementations (4-lane NEON, paired into the 8-lane block shape).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::tf32_round;
    use std::arch::aarch64::*;

    /// Reduce the paired accumulators `[l0..l3]`/`[l4..l7]` in the scalar
    /// tree order: the vector add gives `[l0+l4, l1+l5, l2+l6, l3+l7]`,
    /// one pairwise add gives `[q0, q1, …]`, and the final scalar add is
    /// `q0 + q1`.
    #[inline(always)]
    unsafe fn hsum_tree(acc_lo: float32x4_t, acc_hi: float32x4_t) -> f32 {
        let s = vaddq_f32(acc_lo, acc_hi);
        let p = vpaddq_f32(s, s);
        vgetq_lane_f32::<0>(p) + vgetq_lane_f32::<1>(p)
    }

    /// Bit-exact vector replica of `tf32_round` (see the x86 twin).
    #[inline(always)]
    unsafe fn tf32_round4(v: float32x4_t) -> float32x4_t {
        let bits = vreinterpretq_u32_f32(v);
        let lsb = vandq_u32(vshrq_n_u32::<13>(bits), vdupq_n_u32(1));
        let rounded = vaddq_u32(bits, vaddq_u32(vdupq_n_u32(0xFFF), lsb));
        let masked = vandq_u32(rounded, vdupq_n_u32(!0x1FFF));
        let exp = vandq_u32(bits, vdupq_n_u32(0x7F80_0000));
        let special = vceqq_u32(exp, vdupq_n_u32(0x7F80_0000));
        vreinterpretq_f32_u32(vbslq_u32(special, bits, masked))
    }

    /// Widen 4 bf16 values (raw u16 bits) to f32: zero-extend + shift 16.
    #[inline(always)]
    unsafe fn widen_bf16_4(p: *const u16) -> float32x4_t {
        let half = vld1_u16(p);
        let wide = vmovl_u16(half);
        vreinterpretq_f32_u32(vshlq_n_u32::<16>(wide))
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot_neon(a: &[f32], b: &[f32]) -> f32 {
        let full = a.len() / 8 * 8;
        let mut acc_lo = vdupq_n_f32(0.0);
        let mut acc_hi = vdupq_n_f32(0.0);
        let mut c = 0;
        while c < full {
            let a0 = vld1q_f32(a.as_ptr().add(c));
            let a1 = vld1q_f32(a.as_ptr().add(c + 4));
            let b0 = vld1q_f32(b.as_ptr().add(c));
            let b1 = vld1q_f32(b.as_ptr().add(c + 4));
            acc_lo = vaddq_f32(acc_lo, vmulq_f32(a0, b0));
            acc_hi = vaddq_f32(acc_hi, vmulq_f32(a1, b1));
            c += 8;
        }
        let mut out = hsum_tree(acc_lo, acc_hi);
        for i in full..a.len() {
            out += a.get_unchecked(i) * b.get_unchecked(i);
        }
        out
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot_tf32_neon(a: &[f32], b: &[f32]) -> f32 {
        let full = a.len() / 8 * 8;
        let mut acc_lo = vdupq_n_f32(0.0);
        let mut acc_hi = vdupq_n_f32(0.0);
        let mut c = 0;
        while c < full {
            let a0 = vld1q_f32(a.as_ptr().add(c));
            let a1 = vld1q_f32(a.as_ptr().add(c + 4));
            let b0 = tf32_round4(vld1q_f32(b.as_ptr().add(c)));
            let b1 = tf32_round4(vld1q_f32(b.as_ptr().add(c + 4)));
            acc_lo = vaddq_f32(acc_lo, vmulq_f32(a0, b0));
            acc_hi = vaddq_f32(acc_hi, vmulq_f32(a1, b1));
            c += 8;
        }
        let mut out = hsum_tree(acc_lo, acc_hi);
        for i in full..a.len() {
            out += a.get_unchecked(i) * tf32_round(*b.get_unchecked(i));
        }
        out
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot_bf16_neon(a: &[f32], b: &[u16]) -> f32 {
        let full = a.len() / 8 * 8;
        let mut acc_lo = vdupq_n_f32(0.0);
        let mut acc_hi = vdupq_n_f32(0.0);
        let mut c = 0;
        while c < full {
            let a0 = vld1q_f32(a.as_ptr().add(c));
            let a1 = vld1q_f32(a.as_ptr().add(c + 4));
            let b0 = widen_bf16_4(b.as_ptr().add(c));
            let b1 = widen_bf16_4(b.as_ptr().add(c + 4));
            acc_lo = vaddq_f32(acc_lo, vmulq_f32(a0, b0));
            acc_hi = vaddq_f32(acc_hi, vmulq_f32(a1, b1));
            c += 8;
        }
        let mut out = hsum_tree(acc_lo, acc_hi);
        for i in full..a.len() {
            out += a.get_unchecked(i) * f32::from_bits((*b.get_unchecked(i) as u32) << 16);
        }
        out
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn axpy_neon(acc: &mut [f32], s: f32, row: &[f32]) {
        let n = acc.len();
        let full = n / 4 * 4;
        let vs = vdupq_n_f32(s);
        let mut i = 0;
        while i < full {
            let o = vld1q_f32(acc.as_ptr().add(i));
            let x = vld1q_f32(row.as_ptr().add(i));
            vst1q_f32(acc.as_mut_ptr().add(i), vaddq_f32(o, vmulq_f32(vs, x)));
            i += 4;
        }
        for j in full..n {
            *acc.get_unchecked_mut(j) += s * row.get_unchecked(j);
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn axpy_tf32_neon(acc: &mut [f32], s: f32, row: &[f32]) {
        let n = acc.len();
        let full = n / 4 * 4;
        let vs = vdupq_n_f32(s);
        let mut i = 0;
        while i < full {
            let o = vld1q_f32(acc.as_ptr().add(i));
            let x = tf32_round4(vld1q_f32(row.as_ptr().add(i)));
            vst1q_f32(acc.as_mut_ptr().add(i), vaddq_f32(o, vmulq_f32(vs, x)));
            i += 4;
        }
        for j in full..n {
            *acc.get_unchecked_mut(j) += s * tf32_round(*row.get_unchecked(j));
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn axpy_bf16_neon(acc: &mut [f32], s: f32, row: &[u16]) {
        let n = acc.len();
        let full = n / 4 * 4;
        let vs = vdupq_n_f32(s);
        let mut i = 0;
        while i < full {
            let o = vld1q_f32(acc.as_ptr().add(i));
            let x = widen_bf16_4(row.as_ptr().add(i));
            vst1q_f32(acc.as_mut_ptr().add(i), vaddq_f32(o, vmulq_f32(vs, x)));
            i += 4;
        }
        for j in full..n {
            *acc.get_unchecked_mut(j) += s * f32::from_bits((*row.get_unchecked(j) as u32) << 16);
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn panel_tile_neon(
        arows: &[&[f32]; 4],
        rcnt: usize,
        block: &[f32],
        n: usize,
        j0: usize,
        w: usize,
        acc_out: &mut [f32],
    ) {
        let ka = arows[0].len();
        // rcnt ≤ 4 rows × 4 quads of 4 lanes = up to 16 accumulator regs.
        let mut acc = [[vdupq_n_f32(0.0); 4]; 4];
        for kk in 0..ka {
            let b0 = vld1q_f32(block.as_ptr().add(kk * 16));
            let b1 = vld1q_f32(block.as_ptr().add(kk * 16 + 4));
            let b2 = vld1q_f32(block.as_ptr().add(kk * 16 + 8));
            let b3 = vld1q_f32(block.as_ptr().add(kk * 16 + 12));
            for r in 0..rcnt {
                let s = vdupq_n_f32(*arows[r].get_unchecked(kk));
                acc[r][0] = vaddq_f32(acc[r][0], vmulq_f32(s, b0));
                acc[r][1] = vaddq_f32(acc[r][1], vmulq_f32(s, b1));
                acc[r][2] = vaddq_f32(acc[r][2], vmulq_f32(s, b2));
                acc[r][3] = vaddq_f32(acc[r][3], vmulq_f32(s, b3));
            }
        }
        let mut tile = [0.0f32; 16];
        for r in 0..rcnt {
            for q in 0..4 {
                vst1q_f32(tile.as_mut_ptr().add(q * 4), acc[r][q]);
            }
            acc_out[r * n + j0..r * n + j0 + w].copy_from_slice(&tile[..w]);
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn row_max_neon(buf: &[f32]) -> f32 {
        let full = buf.len() / 4 * 4;
        let mut acc = vdupq_n_f32(f32::NEG_INFINITY);
        let mut c = 0;
        // Unlike `row_max_ref`, `vmaxq_f32` propagates NaN, so an all-NaN
        // row softmaxes to NaN here and to zeros on every other backend
        // (ARCHITECTURE.md, "The parity contract"); no aarch64 target is
        // built to test a fix.
        while c < full {
            acc = vmaxq_f32(acc, vld1q_f32(buf.as_ptr().add(c)));
            c += 4;
        }
        let mut max = vmaxvq_f32(acc);
        for i in full..buf.len() {
            max = max.max(*buf.get_unchecked(i));
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available_and_parse_round_trips() {
        assert!(Backend::Scalar.available());
        for b in [
            Backend::Scalar,
            Backend::Avx2,
            Backend::Avx512,
            Backend::Neon,
        ] {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("sse9"), None);
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
