//! Explicit-SIMD microkernel backends with one-time runtime dispatch.
//!
//! The paper's premise is that N:M sparsity exists to feed fixed-function
//! units at their roofline; the host engine chases the same roofline here
//! instead of hoping autovectorisation fires. Every hot inner loop of the
//! microkernels ([`crate::micro`], the N:M prune epilogue, the decode
//! routines in the private `decode` module) routes through a [`Backend`]
//! chosen **once per
//! process** by `std::arch` runtime feature detection — AVX-512 / AVX2 on
//! x86-64 — with the scalar reference path always compiled in: it is the
//! semantics every SIMD implementation must match bit for bit, the code
//! every other target runs, and the `DFSS_SIMD=scalar` CI leg runs the
//! whole suite on it.
//!
//! **Bit-parity is a hard contract**, not a best-effort goal. The existing
//! test suites pin exact bitwise equality between kernels (batched vs
//! looped, ragged vs solo, paged vs contiguous), so a SIMD backend may not
//! change a single ulp. These rules make that possible:
//!
//! * **One fused multiply-add per term in the tiles, nowhere else.**
//!   [`Backend::axpy`] and the register tiles of [`Backend::panel_tile`],
//!   [`nn_tile`] and [`spmm_tile`] step `acc = fma(s, x, acc)`: the scalar
//!   references call `f32::mul_add`, the AVX-512 bodies `_mm512_fmadd_ps`
//!   and the AVX2 bodies `_mm256_fmadd_ps` (so [`Backend::Avx2`] needs the
//!   `fma` feature). A fused multiply-add rounds once on every backend, so
//!   it is the same operation everywhere. The operands come through
//!   [`Scalar::to_mul`]: TF32 (11 significand bits) or bf16 (8), whose
//!   products fit f32's 24 bits exactly unless they overflow or fall below
//!   2^−128, so on them the fused step also gives the bits of a multiply
//!   then an add. Every other op — decode's dot ([`dot_widen`]) and SpMM
//!   step ([`axpy_rows`]), the exp polynomial, the prune epilogue's scale —
//!   rounds each product before adding, on every backend.
//! * **Element-wise ops vectorise freely.** [`Backend::axpy`] and the
//!   register tiles update independent output lanes in serial k-order;
//!   lane width does not touch the per-lane operation order, so any width
//!   or tile shape is bit-identical (the AVX-512 score tile holds 4 rows ×
//!   32 columns, AVX2's 4 × 16).
//! * **Selections compare, they do not sum.** The N:M prune epilogue
//!   ([`Backend::prune_nm`]) decides each group with the reference's own
//!   predicates — 1:2 `pair[1] > pair[0]`, 2:4 the rank rule's `>` and `==`
//!   with its tie order — and multiplies each kept score by the scale once,
//!   so the AVX-512 bodies (16 pairs or 4 groups per step) reproduce the
//!   scalar codes and values exactly; a 2:4 step holding a NaN runs the
//!   reference, whose sort defines that case.
//! * **Reductions keep the scalar shape.** The decode score dot
//!   ([`dot_widen`]) accumulates into 8 lanes (serially across 8-blocks)
//!   and reduces with a fixed tree `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`
//!   ([`dot_widen_ref`]). The AVX2 horizontal sum — add the high 128-bit
//!   half onto the low, then pairwise-add — performs *exactly* that tree.
//!   AVX-512 must **not** widen the dot accumulator to 16 lanes (that
//!   changes the summation order); it reuses the 8-lane dot and spends its
//!   width on the element-wise ops instead. The one reduction published
//!   at 16 lanes is the softmax exp pass's sum
//!   ([`Backend::softmax_exp_pass`], reference
//!   [`dfss_tensor::math::softmax_exp_pass`]): AVX-512 holds it in one
//!   register, AVX2 in two, and both fold lanes `l` and `l + 8` before the
//!   same 8-lane tree.
//! * **Transcendentals are polynomials.** The exp of that pass is
//!   [`dfss_tensor::math::softmax_exp`]: a fixed sequence of multiplies,
//!   adds and bit operations, which a vector body replays lane by lane.
//!
//! The decode path reads cached K/V rows **in operand form or widened on
//! load**, never through an intermediate widened buffer. A raw `f32` row
//! is TF32-rounded in-register ([`dot_widen`] and [`axpy_rows`] with
//! `operand_form` off; a bit-exact replica of [`dfss_tensor::tf32_round`],
//! NaN/Inf passed through). A row a writer already rounded with
//! [`round_operands`] is read as stored (both with `operand_form` on):
//! `tf32_round` is idempotent on every bit pattern, so skipping the second
//! rounding changes no bit. A
//! [`Bf16`](dfss_tensor::Bf16) row is widened by a zero-extend + 16-bit
//! shift, exact by construction, so the bf16-quantised KV cache is read at
//! half the memory traffic; because TF32 keeps more mantissa bits than
//! bf16 has, the bf16 path is bitwise identical to a host-side
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
// loads and stores are lane-masked), and every `target_feature` function
// is reached only through a public entry that asserts its `Backend`
// variant is `available()` on this CPU, so no safe call can run an
// instruction the CPU lacks.
#![allow(unsafe_code)]

use crate::micro::TILE_COLS;
use dfss_nmsparse::{NmPattern, MAX_M};
use dfss_tensor::{math, Scalar};
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
    /// 256-bit x86-64 path (8 f32 lanes); needs AVX2 and FMA.
    Avx2,
    /// 512-bit x86-64 path: 16-lane element-wise ops and exp-pass sum,
    /// 8-lane dot (the dot's reduction shape is part of the bit contract and
    /// cannot widen); needs AVX-512F, and AVX2 and FMA for the 8-lane ops.
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

    /// Whether this backend can run on the current CPU. Detected once per
    /// process: every SIMD entry asserts it per call, and decode calls one
    /// per cached key.
    #[inline]
    pub fn available(self) -> bool {
        static AVAILABLE: OnceLock<[bool; 3]> = OnceLock::new();
        AVAILABLE.get_or_init(|| {
            [Backend::Scalar, Backend::Avx2, Backend::Avx512].map(Backend::runs_here)
        })[self as usize]
    }

    /// Feature detection behind [`available`](Self::available).
    fn runs_here(self) -> bool {
        match self {
            Backend::Scalar => true,
            Backend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            Backend::Avx512 => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx2")
                        && is_x86_feature_detected!("fma")
                        && is_x86_feature_detected!("avx512f")
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

/// Reference `acc[j] = fma(s, row[j], acc[j])`.
#[inline(always)]
pub fn axpy_ref(acc: &mut [f32], s: f32, row: &[f32]) {
    debug_assert_eq!(acc.len(), row.len());
    for (o, &x) in acc.iter_mut().zip(row) {
        *o = s.mul_add(x, *o);
    }
}

/// One scalar block of [`Backend::panel_tile`]: `R` rows × the `w ≤ 16`
/// columns `j0 ..` of one packed `ka × 16` block, accumulated from `0.0` in
/// serial k-order, one `mul_add` per term. It defines the op's semantics;
/// the scalar backend runs a tile's blocks through it one after the other.
/// Kept out of line: inlined into the dispatch, the scalar score tile
/// measured up to 1.3× slower.
#[inline(never)]
fn panel_block_ref<const R: usize>(
    arows: &[&[f32]; TILE_ROWS],
    block: &[f32],
    n: usize,
    j0: usize,
    w: usize,
    acc_out: &mut [f32],
) {
    let ka = arows[0].len();
    let mut acc = [[0.0f32; TILE_COLS]; R];
    for kk in 0..ka {
        let row: &[f32; TILE_COLS] = block[kk * TILE_COLS..(kk + 1) * TILE_COLS]
            .try_into()
            .unwrap();
        for r in 0..R {
            let s = arows[r][kk];
            for (o, &x) in acc[r].iter_mut().zip(row) {
                *o = s.mul_add(x, *o);
            }
        }
    }
    for r in 0..R {
        acc_out[r * n + j0..r * n + j0 + w].copy_from_slice(&acc[r][..w]);
    }
}

/// Reference register tile of [`crate::micro::panel_product`]: the
/// bit-exact semantics of [`Backend::panel_tile`].
pub fn panel_tile_ref(
    arows: &[&[f32]; TILE_ROWS],
    rcnt: usize,
    block: &[f32],
    n: usize,
    j0: usize,
    w: usize,
    acc_out: &mut [f32],
) {
    Backend::Scalar.panel_tile(arows, rcnt, block, n, j0, w, acc_out);
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
    dot_lanes_ref(q, row, S::to_mul)
}

/// The 8-lane dot of [`dot_widen_ref`] over `load(row[i])`: `to_mul` for a
/// raw row, `to_f32` for a row already in operand form.
#[inline(always)]
fn dot_lanes_ref<S: Scalar>(q: &[f32], row: &[S], load: impl Fn(S) -> f32) -> f32 {
    debug_assert_eq!(q.len(), row.len());
    let full = q.len() / LANES * LANES;
    let mut lanes = [0.0f32; LANES];
    for c in (0..full).step_by(LANES) {
        let xq: &[f32; LANES] = q[c..c + LANES].try_into().unwrap();
        let xr: &[S; LANES] = row[c..c + LANES].try_into().unwrap();
        for l in 0..LANES {
            lanes[l] += xq[l] * load(xr[l]);
        }
    }
    let q0 = (lanes[0] + lanes[4]) + (lanes[1] + lanes[5]);
    let q1 = (lanes[2] + lanes[6]) + (lanes[3] + lanes[7]);
    let mut acc = q0 + q1;
    for (x, &y) in q[full..].iter().zip(&row[full..]) {
        acc += x * load(y);
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

/// The scalar body of [`axpy_rows`] over columns `j0..`: each row in turn,
/// `acc[j] += s · load(row[j])`.
#[inline(always)]
fn axpy_rows_ref<S: Scalar>(
    acc: &mut [f32],
    weights: &[f32],
    rows: &[&[S]],
    j0: usize,
    load: impl Fn(S) -> f32,
) {
    for (&s, row) in weights.iter().zip(rows) {
        for (o, &x) in acc[j0..].iter_mut().zip(&row[j0..]) {
            *o += s * load(x);
        }
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
const PAIRS_2_4: [[u8; 2]; 16] = pairs_2_4();

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
/// (`w ≤ 64`), accumulated from `0.0` in ascending group, then lane, order,
/// one `mul_add` per term. It defines the op's semantics, and the SIMD
/// backends run their column tails through it, so those tails match the
/// reference by construction.
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
                    *o = s.mul_add(x, *o);
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
/// (`w ≤ 64`), accumulated from `0.0` in ascending k, one `mul_add` per
/// term, skipping each term whose A entry is `±0.0`. It defines the op's
/// semantics, and the AVX2 backend runs its column tails through it.
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
                *o = s.mul_add(x, *o);
            }
        }
    }
    spill_ref(&acc, out, n, j0, w);
}

/// Reference 1:2 prune of score rows: per pair, keep the strictly larger
/// value (ties and NaN to the earlier index). The *selection* is exactly
/// [`NmPattern::select_group_into`]'s (`group[1] > group[0]` is the same
/// predicate its insertion sort applies), so codes and values are
/// bit-identical to a prune through it. The loop has no branch, but the
/// compiler does not vectorise it: on a 2-vCPU AVX-512 host it takes
/// about 1.6 ns per pair, 8–9× the AVX-512 body.
fn prune_rows_into_1_2<T: Scalar>(
    scores: &[f32],
    scale: f32,
    nz_out: &mut [T],
    code_out: &mut [u8],
) {
    for ((pair, nz), code) in scores
        .chunks_exact(2)
        .zip(nz_out.iter_mut())
        .zip(code_out.iter_mut())
    {
        let hi = (pair[1] > pair[0]) as usize;
        *code = 1 + hi as u8;
        *nz = T::from_acc(pair[hi] * scale);
    }
}

/// Keep-mask of one NaN-free 2:4 group by rank: lane `i` is kept iff
/// fewer than two lanes beat it, where lane `j` beats lane `i` iff
/// `g[j] > g[i]`, or `g[j] == g[i]` and `j < i`. That is a strict total
/// order on NaN-free groups, so exactly two lanes are kept — the same two
/// [`NmPattern::select_group_into`]'s stable descending sort keeps.
#[inline]
fn rank_code_2_4(g: &[f32; 4]) -> u8 {
    let mut beaten = [0u8; 4];
    for i in 0..4 {
        for j in i + 1..4 {
            // On a tie the lower index `i` wins.
            let j_wins = u8::from(g[j] > g[i]);
            beaten[i] += j_wins;
            beaten[j] += 1 - j_wins;
        }
    }
    (0..4).fold(0, |code, i| code | (u8::from(beaten[i] < 2) << i))
}

/// Reference 2:4 prune of score rows: the rank rule of [`rank_code_2_4`]
/// per group. `>` is no order once a NaN is present, so a group containing
/// one takes [`NmPattern::select_group_into`]'s insertion sort instead;
/// codes and values are therefore bit-identical to a prune through it on
/// every group.
fn prune_rows_into_2_4<T: Scalar>(
    scores: &[f32],
    scale: f32,
    nz_out: &mut [T],
    code_out: &mut [u8],
) {
    let mut kept = [0usize; MAX_M];
    for ((group, nz), code) in scores
        .chunks_exact(4)
        .zip(nz_out.chunks_exact_mut(2))
        .zip(code_out.iter_mut())
    {
        let g: &[f32; 4] = group.try_into().expect("chunks_exact(4) yields 4 scores");
        *code = if g.iter().any(|x| x.is_nan()) {
            let n_kept = NmPattern::P2_4.select_group_into(g, &mut kept);
            kept[..n_kept].iter().fold(0, |c, &i| c | (1 << i))
        } else {
            rank_code_2_4(g)
        };
        // Both rules keep exactly two lanes: the table's pair, ascending.
        let [a, b] = PAIRS_2_4[*code as usize];
        nz[0] = T::from_acc(g[a as usize] * scale);
        nz[1] = T::from_acc(g[b as usize] * scale);
    }
}

// ---------------------------------------------------------------------------
// Dispatched operations.
// ---------------------------------------------------------------------------

impl Backend {
    /// `acc[j] = fma(s, row[j], acc[j])` (element-wise, one rounding per
    /// element; bit-identical at any width).
    ///
    /// # Panics
    /// If this backend is not available on this CPU, or `acc` and `row`
    /// differ in length (the unchecked backends rely on these checks).
    #[inline]
    pub fn axpy(self, acc: &mut [f32], s: f32, row: &[f32]) {
        assert!(self.available(), "backend {} not available", self.name());
        assert_eq!(acc.len(), row.len(), "axpy row length differs from acc");
        match self {
            // SAFETY (both): the backend is available and `row` is as long
            // as `acc`, checked above.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => unsafe { x86::axpy_avx512(acc, s, row) },
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { x86::axpy_avx2(acc, s, row) },
            _ => axpy_ref(acc, s, row),
        }
    }

    /// One register tile of `panel_product`: `rcnt ≤` [`TILE_ROWS`] rows ×
    /// `w ≤ 32` columns, accumulated over the whole k extent in registers.
    /// The first `rcnt` entries of `arows` are A rows of
    /// `ka = arows[0].len()` elements; `block` holds the `⌈w/16⌉` packed
    /// `ka × 16` blocks the columns come from, back to back; results
    /// overwrite `acc_out[r·n + j0 .. r·n + j0 + w]`. Every element sums its
    /// `ka` terms from `0.0` in serial k-order, one fused multiply-add per
    /// term, so the tile's shape — AVX-512 holds both blocks in registers
    /// at once, AVX2 and the scalar reference run them one after the other
    /// — never changes a bit.
    ///
    /// # Panics
    /// If this backend is not available on this CPU, `rcnt` is outside
    /// `1..=TILE_ROWS`, `w` is outside `1..=32`, one of the first `rcnt`
    /// rows is not `ka` long, `block` is shorter than its `⌈w/16⌉` blocks,
    /// or an output range falls outside `acc_out` (the unchecked backends
    /// rely on these checks).
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
        assert!(self.available(), "backend {} not available", self.name());
        assert!(
            (1..=TILE_ROWS).contains(&rcnt),
            "tile of {rcnt} rows (1..={TILE_ROWS})"
        );
        assert!(
            (1..=2 * TILE_COLS).contains(&w),
            "tile of {w} columns (1..={})",
            2 * TILE_COLS
        );
        let ka = arows[0].len();
        assert!(
            arows[..rcnt].iter().all(|row| row.len() == ka),
            "tile rows are not all {ka} long"
        );
        let rows = w.div_ceil(TILE_COLS) * ka;
        assert!(
            block.len() / TILE_COLS >= rows,
            "block shorter than {rows} packed rows"
        );
        let end = (rcnt - 1)
            .checked_mul(n)
            .and_then(|e| e.checked_add(j0))
            .and_then(|e| e.checked_add(w));
        assert!(
            end.is_some_and(|e| e <= acc_out.len()),
            "tile output outside acc_out"
        );
        match rcnt {
            4 => panel_rows::<4>(self, arows, block, n, j0, w, acc_out),
            3 => panel_rows::<3>(self, arows, block, n, j0, w, acc_out),
            2 => panel_rows::<2>(self, arows, block, n, j0, w, acc_out),
            _ => panel_rows::<1>(self, arows, block, n, j0, w, acc_out),
        }
    }

    /// The N:M prune epilogue of f32 score accumulators for 1:2 and 2:4:
    /// for each `M`-group of `scores`, its code (the kept lanes' bits) into
    /// `code_out` and `from_acc(x · scale)` of its kept scores, in ascending
    /// lane order, into `nz_out`. Selection runs on the unscaled scores and
    /// is [`NmPattern::select_group_into`]'s: 1:2 keeps lane 1 iff
    /// `pair[1] > pair[0]`; 2:4 keeps the two lanes fewer than two others
    /// beat, where lane `j` beats lane `i` iff `g[j] > g[i]`, or they are
    /// equal and `j < i`, and a group holding a NaN takes the sort itself.
    /// Bitwise equal on every backend to the scalar references.
    ///
    /// # Panics
    /// If this backend is not available on this CPU, `pattern` is neither
    /// 1:2 nor 2:4, `scores` is not whole groups, or `code_out` (one per
    /// group) or `nz_out` (`N` per group) disagrees with them (the
    /// unchecked backends rely on these checks).
    #[inline]
    pub fn prune_nm<T: Scalar>(
        self,
        pattern: NmPattern,
        scores: &[f32],
        scale: f32,
        nz_out: &mut [T],
        code_out: &mut [u8],
    ) {
        assert!(self.available(), "backend {} not available", self.name());
        let (n, m) = (pattern.n(), pattern.m());
        assert!(
            matches!((n, m), (1, 2) | (2, 4)),
            "prune_nm prunes 1:2 and 2:4, not {pattern}"
        );
        let groups = scores.len() / m;
        assert_eq!(scores.len(), groups * m, "scores are not whole groups");
        assert_eq!(code_out.len(), groups, "codes do not fit the groups");
        assert_eq!(nz_out.len(), groups * n, "nonzeros do not fit the groups");
        match (self, m) {
            // SAFETY (both): AVX-512F is available and the slices hold
            // `groups` groups, checked above.
            #[cfg(target_arch = "x86_64")]
            (Backend::Avx512, 2) => unsafe {
                x86::prune_1_2_avx512(scores, scale, nz_out, code_out)
            },
            #[cfg(target_arch = "x86_64")]
            (Backend::Avx512, _) => unsafe {
                x86::prune_2_4_avx512(scores, scale, nz_out, code_out)
            },
            (_, 2) => prune_rows_into_1_2(scores, scale, nz_out, code_out),
            _ => prune_rows_into_2_4(scores, scale, nz_out, code_out),
        }
    }

    /// Row maximum (softmax phase 1; order-insensitive by `f32::max`
    /// algebra, see [`row_max_ref`]).
    ///
    /// # Panics
    /// If this backend is not available on this CPU.
    #[inline]
    pub fn row_max(self, buf: &[f32]) -> f32 {
        assert!(self.available(), "backend {} not available", self.name());
        match self {
            // SAFETY: AVX2 is available, checked above; the body loads only
            // whole 8-blocks inside `buf`.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 | Backend::Avx512 => unsafe { x86::row_max_avx2(buf) },
            _ => row_max_ref(buf),
        }
    }

    /// The softmax exp pass (phase 2): overwrites each entry of `row` with
    /// `exp(x - max)` and returns the normaliser `1/Σ`. Bitwise equal to
    /// the scalar reference [`math::softmax_exp_pass`] on every backend,
    /// which defines the exp, the 16-lane sum and the empty, all-masked and
    /// NaN rows.
    ///
    /// # Panics
    /// If this backend is not available on this CPU.
    #[inline]
    pub fn softmax_exp_pass(self, row: &mut [f32], max: f32) -> f32 {
        assert!(self.available(), "backend {} not available", self.name());
        match self {
            _ if row.is_empty() || max == f32::NEG_INFINITY => math::softmax_exp_pass(row, max),
            // SAFETY (both): the backend is available, checked above; the
            // bodies load and store only whole 16-blocks inside `row`.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => unsafe { x86::softmax_exp_pass_avx512(row, max) },
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { x86::softmax_exp_pass_avx2(row, max) },
            _ => math::softmax_exp_pass(row, max),
        }
    }
}

/// [`Backend::panel_tile`] with `R` rows: the backend's register tile over
/// both blocks at once (AVX-512), or its blocks one after the other.
#[inline]
fn panel_rows<const R: usize>(
    backend: Backend,
    arows: &[&[f32]; TILE_ROWS],
    block: &[f32],
    n: usize,
    j0: usize,
    w: usize,
    acc_out: &mut [f32],
) {
    match backend {
        // SAFETY (all three): `panel_tile` checked the backend, the first
        // `R` rows' length `ka`, `block` against `⌈w/16⌉ · ka` packed rows
        // and every row's output range against `acc_out`.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 if w > TILE_COLS => unsafe {
            x86::panel_tile_avx512::<R, 2>(arows, block, n, j0, w, acc_out)
        },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe {
            x86::panel_tile_avx512::<R, 1>(arows, block, n, j0, w, acc_out)
        },
        _ => {
            let ka = arows[0].len();
            for (c, jc) in (0..w).step_by(TILE_COLS).enumerate() {
                let blk = &block[c * ka * TILE_COLS..];
                let (jc, wc) = (j0 + jc, TILE_COLS.min(w - jc));
                match backend {
                    #[cfg(target_arch = "x86_64")]
                    Backend::Avx2 => unsafe {
                        x86::panel_block_avx2::<R>(arows, blk, n, jc, wc, acc_out)
                    },
                    _ => panel_block_ref::<R>(arows, blk, n, jc, wc, acc_out),
                }
            }
        }
    }
}

/// Fused widen-on-load dot against a cached KV row, the decode score
/// microkernel: `Σ q[i] · load(row[i])` in [`dot_widen_ref`]'s 8-lane
/// shape. `load` is [`Scalar::to_mul`] for a raw row (`f32` TF32-rounded
/// in-register, [`Bf16`](dfss_tensor::Bf16) widened exactly) and `to_f32`
/// for a row in operand form (`operand_form`: each element reads as its
/// own multiply operand, as [`round_operands`] leaves it), which skips the
/// TF32 rounding; a bf16 row widens exactly either way. On raw rows and on rows
/// in operand form it has the bits of [`dot_widen_ref`]; on any row and
/// either flag, the bits of the scalar backend, on every backend.
///
/// # Panics
/// If `backend` is not available on this CPU, or `q` and `row` differ in
/// length (the unchecked backends rely on these checks).
#[inline]
pub fn dot_widen<S: Scalar>(backend: Backend, q: &[f32], row: &[S], operand_form: bool) -> f32 {
    assert!(
        backend.available(),
        "backend {} not available",
        backend.name()
    );
    assert_eq!(q.len(), row.len(), "dot_widen row length differs from q");
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        let f32_rows = TypeId::of::<S>() == TypeId::of::<f32>();
        // SAFETY (all three): the backend is available and `row` is as long
        // as `q`, checked above, and each body reads `S` as its `Load`'s
        // element: f32 as f32, Bf16 (repr(transparent) over u16) as u16.
        if f32_rows && operand_form {
            return unsafe { x86::dot_avx2::<S, x86::ExactF32>(q, row) };
        }
        if f32_rows {
            return unsafe { x86::dot_avx2::<S, x86::RoundF32>(q, row) };
        }
        if TypeId::of::<S>() == TypeId::of::<dfss_tensor::Bf16>() {
            return unsafe { x86::dot_avx2::<S, x86::WidenBf16>(q, row) };
        }
    }
    if operand_form {
        dot_lanes_ref(q, row, S::to_f32)
    } else {
        dot_widen_ref(q, row)
    }
}

/// The decode SpMM step over a batch of cached V rows:
/// `acc[j] += weights[i] · load(rows[i][j])` for each row `i` in ascending
/// order, one multiply then one add per term. `load` is
/// [`Scalar::to_mul`] for raw rows and `to_f32` for rows in operand form
/// (`operand_form`, as in [`dot_widen`]); a bf16 row widens exactly either
/// way. On raw rows, on rows in operand form and on bf16 rows it has the
/// bits of one [`axpy_widen_ref`] per row in turn, on every backend.
///
/// The vector backends (AVX-512 runs the AVX2 body) hold a 64-column
/// window of `acc` in eight ymm registers across the whole batch, so `acc`
/// is loaded and stored once per batch instead of once per row; the
/// columns past the last whole vector run the scalar body. Every element
/// keeps the reference's operation order, so the window shape changes no
/// bit.
///
/// # Panics
/// If `backend` is not available on this CPU, `weights` and `rows` differ
/// in length, or a row is not as long as `acc` (the unchecked backends
/// rely on these checks).
pub fn axpy_rows<S: Scalar>(
    backend: Backend,
    acc: &mut [f32],
    weights: &[f32],
    rows: &[&[S]],
    operand_form: bool,
) {
    assert!(
        backend.available(),
        "backend {} not available",
        backend.name()
    );
    assert_eq!(
        weights.len(),
        rows.len(),
        "axpy_rows takes one weight per row"
    );
    assert!(
        rows.iter().all(|row| row.len() == acc.len()),
        "axpy_rows row length differs from acc"
    );
    // The columns the vector body covered; the scalar body runs the rest.
    #[cfg(target_arch = "x86_64")]
    let done = {
        let f32_rows = TypeId::of::<S>() == TypeId::of::<f32>();
        // SAFETY (all three): the backend is available and every row is as
        // long as `acc`, checked above, and each body reads `S` as its
        // `Load`'s element: f32 as f32, Bf16 (repr(transparent) over u16)
        // as u16.
        unsafe {
            if backend == Backend::Scalar {
                0
            } else if f32_rows && operand_form {
                x86::axpy_rows_avx2::<S, x86::ExactF32>(acc, weights, rows)
            } else if f32_rows {
                x86::axpy_rows_avx2::<S, x86::RoundF32>(acc, weights, rows)
            } else if TypeId::of::<S>() == TypeId::of::<dfss_tensor::Bf16>() {
                x86::axpy_rows_avx2::<S, x86::WidenBf16>(acc, weights, rows)
            } else {
                0
            }
        }
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    if operand_form {
        axpy_rows_ref(acc, weights, rows, done, S::to_f32);
    } else {
        axpy_rows_ref(acc, weights, rows, done, S::to_mul);
    }
}

/// Put `row` in tensor-core operand form in place, so that reading an
/// element with `to_f32` gives what `to_mul` gave before. For `f32` each
/// element becomes [`dfss_tensor::tf32_round`] of itself (the vector
/// bodies replay it 8 lanes at a time, NaN and ±∞ passed through); a
/// [`Bf16`](dfss_tensor::Bf16) row is left as it is, since its `to_mul` is
/// the exact widening; an element of any other type becomes
/// `S::from_f32(x.to_mul())`.
/// `tf32_round` is idempotent on every bit pattern, so a row rounded here
/// can be read by [`dot_widen`] and [`axpy_rows`] with `operand_form` on
/// without rounding again.
///
/// # Panics
/// If `backend` is not available on this CPU.
pub fn round_operands<S: Scalar>(backend: Backend, row: &mut [S]) {
    assert!(
        backend.available(),
        "backend {} not available",
        backend.name()
    );
    if TypeId::of::<S>() == TypeId::of::<dfss_tensor::Bf16>() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar && TypeId::of::<S>() == TypeId::of::<f32>() {
        // SAFETY: S == f32 (checked above), and the backend is available.
        unsafe {
            let row = std::slice::from_raw_parts_mut(row.as_mut_ptr().cast::<f32>(), row.len());
            return x86::round_tf32_avx2(row);
        }
    }
    for x in row {
        *x = S::from_f32(x.to_mul());
    }
}

/// Register-tiled dense NN product: `rcnt ≤` [`TILE_ROWS`] widened A rows
/// (`a`, row-major, `ka = a.len() / rcnt` columns) against a widened
/// row-major `ka × n` B, written into the `rcnt × n` output `out`:
/// `out[r][j] = Σ a[r][k] · b[k][j]`, the terms added from `0.0` in
/// ascending k (one fused multiply-add per term) and converted once with
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
/// ascending group, then lane, order (one fused multiply-add per term) and
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
    use dfss_tensor::math::{self, exp_consts::*, EXP_SUM_LANES};
    use dfss_tensor::tf32_round;
    use std::arch::x86_64::*;

    /// Horizontal sum of an 8-lane accumulator in the scalar tree order:
    /// adding the high 128-bit half onto the low yields
    /// `[l0+l4, l1+l5, l2+l6, l3+l7]`, one `hadd` yields
    /// `[(l0+l4)+(l1+l5), (l2+l6)+(l3+l7), …]`, and the final scalar add
    /// is `q0 + q1` — exactly `super::dot_widen_ref`'s reduction, and the
    /// exp pass's once its 16 lanes have folded to 8.
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

    /// How a decode body reads a cached row: the stored element type and
    /// the conversion to an f32 multiply operand, for 8 lanes and one.
    pub(super) trait Load {
        /// The element as the body reads it.
        type Elem: Copy;
        /// Eight elements from `p`.
        unsafe fn ymm(p: *const Self::Elem) -> __m256;
        /// One element.
        fn one(x: Self::Elem) -> f32;
    }

    /// Raw f32 rows: TF32-rounded on load, `f32::to_mul`.
    pub(super) struct RoundF32;
    /// f32 rows in operand form: read as stored.
    pub(super) struct ExactF32;
    /// bf16 rows as their u16 bits: zero-extend, shift left 16, which is
    /// exact (`Bf16::to_f32` lane by lane).
    pub(super) struct WidenBf16;

    impl Load for RoundF32 {
        type Elem = f32;
        #[inline(always)]
        unsafe fn ymm(p: *const f32) -> __m256 {
            tf32_round8(_mm256_loadu_ps(p))
        }
        #[inline(always)]
        fn one(x: f32) -> f32 {
            tf32_round(x)
        }
    }

    impl Load for ExactF32 {
        type Elem = f32;
        #[inline(always)]
        unsafe fn ymm(p: *const f32) -> __m256 {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        fn one(x: f32) -> f32 {
            x
        }
    }

    impl Load for WidenBf16 {
        type Elem = u16;
        #[inline(always)]
        unsafe fn ymm(p: *const u16) -> __m256 {
            let wide = _mm256_cvtepu16_epi32(_mm_loadu_si128(p.cast::<__m128i>()));
            _mm256_castsi256_ps(_mm256_slli_epi32::<16>(wide))
        }
        #[inline(always)]
        fn one(x: u16) -> f32 {
            f32::from_bits((x as u32) << 16)
        }
    }

    /// The 8-lane decode dot (`super::dot_lanes_ref`'s shape) of `a`
    /// against `b` read through `L`; AVX-512 runs it too, since the
    /// reduction shape cannot widen.
    ///
    /// # Safety
    /// AVX2 must be available, `b` as long as `a`, and `S` laid out as
    /// `L::Elem`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_avx2<S, L: Load>(a: &[f32], b: &[S]) -> f32 {
        let b = b.as_ptr().cast::<L::Elem>();
        let full = a.len() / 8 * 8;
        let mut acc = _mm256_setzero_ps();
        let mut c = 0;
        while c < full {
            let va = _mm256_loadu_ps(a.as_ptr().add(c));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, L::ymm(b.add(c))));
            c += 8;
        }
        let mut out = hsum_tree(acc);
        for i in full..a.len() {
            out += a.get_unchecked(i) * L::one(*b.add(i));
        }
        out
    }

    /// `acc[j0 .. j0 + 8·NV] += w · L(row)` for each row and weight in
    /// turn, in `NV` ymm accumulators loaded and stored once.
    #[inline(always)]
    unsafe fn rows_ymm<S, L: Load, const NV: usize>(
        acc: *mut f32,
        weights: &[f32],
        rows: &[&[S]],
        j0: usize,
    ) {
        let mut a = [_mm256_setzero_ps(); NV];
        for (c, a) in a.iter_mut().enumerate() {
            *a = _mm256_loadu_ps(acc.add(j0 + 8 * c));
        }
        for (&w, row) in weights.iter().zip(rows) {
            let s = _mm256_set1_ps(w);
            let p = row.as_ptr().cast::<L::Elem>().add(j0);
            for (c, a) in a.iter_mut().enumerate() {
                *a = _mm256_add_ps(*a, _mm256_mul_ps(s, L::ymm(p.add(8 * c))));
            }
        }
        for (c, a) in a.iter().enumerate() {
            _mm256_storeu_ps(acc.add(j0 + 8 * c), *a);
        }
    }

    /// [`super::axpy_rows`] on a vector backend (AVX-512 runs it too):
    /// 64-column windows in eight ymm, then 8-column ones in one, up to the
    /// last whole vector; returns how many columns that is.
    ///
    /// # Safety
    /// AVX2 must be available, every row as long as `acc`, and `S` laid out
    /// as `L::Elem`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_rows_avx2<S, L: Load>(
        acc: &mut [f32],
        weights: &[f32],
        rows: &[&[S]],
    ) -> usize {
        let full = acc.len() / 8 * 8;
        let p = acc.as_mut_ptr();
        let mut j0 = 0;
        while j0 + 64 <= full {
            rows_ymm::<S, L, 8>(p, weights, rows, j0);
            j0 += 64;
        }
        while j0 < full {
            rows_ymm::<S, L, 1>(p, weights, rows, j0);
            j0 += 8;
        }
        full
    }

    /// [`super::round_operands`] for f32, 8 lanes per step: the
    /// [`tf32_round8`] that `RoundF32` loads with, so the exhaustive TF32
    /// sweep covers it (AVX-512 runs it too).
    ///
    /// # Safety
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn round_tf32_avx2(row: &mut [f32]) {
        let full = row.len() / 8 * 8;
        let p = row.as_mut_ptr();
        let mut c = 0;
        while c < full {
            _mm256_storeu_ps(p.add(c), tf32_round8(_mm256_loadu_ps(p.add(c))));
            c += 8;
        }
        for x in &mut row[full..] {
            *x = tf32_round(*x);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn axpy_avx2(acc: &mut [f32], s: f32, row: &[f32]) {
        let n = acc.len();
        let full = n / 8 * 8;
        let vs = _mm256_set1_ps(s);
        let mut i = 0;
        while i < full {
            let o = _mm256_loadu_ps(acc.as_ptr().add(i));
            let x = _mm256_loadu_ps(row.as_ptr().add(i));
            _mm256_storeu_ps(acc.as_mut_ptr().add(i), _mm256_fmadd_ps(vs, x, o));
            i += 8;
        }
        for j in full..n {
            let o = acc.get_unchecked_mut(j);
            *o = s.mul_add(*row.get_unchecked(j), *o);
        }
    }

    #[target_feature(enable = "avx512f,fma")]
    pub(super) unsafe fn axpy_avx512(acc: &mut [f32], s: f32, row: &[f32]) {
        let n = acc.len();
        let full = n / 16 * 16;
        let vs = _mm512_set1_ps(s);
        let mut i = 0;
        while i < full {
            let o = _mm512_loadu_ps(acc.as_ptr().add(i));
            let x = _mm512_loadu_ps(row.as_ptr().add(i));
            _mm512_storeu_ps(acc.as_mut_ptr().add(i), _mm512_fmadd_ps(vs, x, o));
            i += 16;
        }
        for j in full..n {
            let o = acc.get_unchecked_mut(j);
            *o = s.mul_add(*row.get_unchecked(j), *o);
        }
    }

    /// `R` rows × one 16-column block in `2R` ymm accumulators (two blocks
    /// would not fit the 16 registers; a tile runs its blocks in turn).
    ///
    /// # Safety
    /// AVX2 and FMA must be available, `block` must start a packed
    /// `ka × 16` block and `w ≤ 16`, and the other slices must have the
    /// lengths `Backend::panel_tile` checks for `R` rows.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn panel_block_avx2<const R: usize>(
        arows: &[&[f32]; TILE_ROWS],
        block: &[f32],
        n: usize,
        j0: usize,
        w: usize,
        acc_out: &mut [f32],
    ) {
        let ka = arows[0].len();
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        for kk in 0..ka {
            let b0 = _mm256_loadu_ps(block.as_ptr().add(kk * 16));
            let b1 = _mm256_loadu_ps(block.as_ptr().add(kk * 16 + 8));
            for (r, [lo, hi]) in acc.iter_mut().enumerate() {
                let s = _mm256_set1_ps(*arows[r].get_unchecked(kk));
                *lo = _mm256_fmadd_ps(s, b0, *lo);
                *hi = _mm256_fmadd_ps(s, b1, *hi);
            }
        }
        let mut tile = [0.0f32; 16];
        for (r, [lo, hi]) in acc.iter().enumerate() {
            _mm256_storeu_ps(tile.as_mut_ptr(), *lo);
            _mm256_storeu_ps(tile.as_mut_ptr().add(8), *hi);
            acc_out[r * n + j0..r * n + j0 + w].copy_from_slice(&tile[..w]);
        }
    }

    /// `R` rows × `NB` packed 16-column blocks in `R·NB` zmm accumulators:
    /// each k step loads one 16-lane row per block, and each broadcast A
    /// element serves every block. Stores go straight to `acc_out`, lane-
    /// masked to the tile's `w` columns.
    ///
    /// # Safety
    /// AVX-512F must be available, `NB = ⌈w/16⌉`, and the slices must have
    /// the lengths `Backend::panel_tile` checks for `R` rows.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn panel_tile_avx512<const R: usize, const NB: usize>(
        arows: &[&[f32]; TILE_ROWS],
        block: &[f32],
        n: usize,
        j0: usize,
        w: usize,
        acc_out: &mut [f32],
    ) {
        let ka = arows[0].len();
        let mut acc = [[_mm512_setzero_ps(); NB]; R];
        let mut b = [_mm512_setzero_ps(); NB];
        for kk in 0..ka {
            for (c, b) in b.iter_mut().enumerate() {
                *b = _mm512_loadu_ps(block.as_ptr().add((c * ka + kk) * 16));
            }
            for (r, acc) in acc.iter_mut().enumerate() {
                let s = _mm512_set1_ps(*arows[r].get_unchecked(kk));
                for (v, &b) in acc.iter_mut().zip(&b) {
                    *v = _mm512_fmadd_ps(s, b, *v);
                }
            }
        }
        let masks = window_masks(w);
        for (r, acc) in acc.iter().enumerate() {
            let row = acc_out.as_mut_ptr().add(r * n + j0);
            for (c, &v) in acc.iter().enumerate() {
                _mm512_mask_storeu_ps(row.add(16 * c), masks[c], v);
            }
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

    /// [`math::softmax_exp`] of 16 lanes, the reference's steps in its
    /// order; the special cases are lane blends (the three are exclusive,
    /// so their order does not matter).
    #[inline(always)]
    unsafe fn exp16(x: __m512) -> __m512 {
        let z = _mm512_mul_ps(x, _mm512_set1_ps(LOG2E));
        let round = _mm512_set1_ps(ROUND);
        let n = _mm512_sub_ps(_mm512_add_ps(z, round), round);
        let r = _mm512_sub_ps(x, _mm512_mul_ps(n, _mm512_set1_ps(LN2_HI)));
        let r = _mm512_sub_ps(r, _mm512_mul_ps(n, _mm512_set1_ps(LN2_LO)));
        let mut q = _mm512_set1_ps(P[0]);
        for &c in &P[1..] {
            q = _mm512_add_ps(_mm512_mul_ps(q, r), _mm512_set1_ps(c));
        }
        let p = _mm512_add_ps(
            _mm512_add_ps(_mm512_mul_ps(q, _mm512_mul_ps(r, r)), r),
            _mm512_set1_ps(1.0),
        );
        // Lanes whose `n` is out of range build a junk scale; every one of
        // them is replaced below.
        let biased = _mm512_add_epi32(_mm512_cvttps_epi32(n), _mm512_set1_epi32(127));
        let y = _mm512_mul_ps(p, _mm512_castsi512_ps(_mm512_slli_epi32::<23>(biased)));
        let low = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(n, _mm512_set1_ps(MIN_N));
        let high = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(n, _mm512_set1_ps(MAX_N));
        let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x);
        let y = _mm512_mask_mov_ps(y, low, _mm512_setzero_ps());
        let y = _mm512_mask_mov_ps(y, high, _mm512_set1_ps(f32::INFINITY));
        _mm512_mask_mov_ps(y, nan, x)
    }

    /// [`math::softmax_exp`] of 8 lanes; see [`exp16`].
    #[inline(always)]
    unsafe fn exp8(x: __m256) -> __m256 {
        let z = _mm256_mul_ps(x, _mm256_set1_ps(LOG2E));
        let round = _mm256_set1_ps(ROUND);
        let n = _mm256_sub_ps(_mm256_add_ps(z, round), round);
        let r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(LN2_LO)));
        let mut q = _mm256_set1_ps(P[0]);
        for &c in &P[1..] {
            q = _mm256_add_ps(_mm256_mul_ps(q, r), _mm256_set1_ps(c));
        }
        let p = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(q, _mm256_mul_ps(r, r)), r),
            _mm256_set1_ps(1.0),
        );
        let biased = _mm256_add_epi32(_mm256_cvttps_epi32(n), _mm256_set1_epi32(127));
        let y = _mm256_mul_ps(p, _mm256_castsi256_ps(_mm256_slli_epi32::<23>(biased)));
        let low = _mm256_cmp_ps::<_CMP_LT_OQ>(n, _mm256_set1_ps(MIN_N));
        let high = _mm256_cmp_ps::<_CMP_GT_OQ>(n, _mm256_set1_ps(MAX_N));
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
        let y = _mm256_blendv_ps(y, _mm256_setzero_ps(), low);
        let y = _mm256_blendv_ps(y, _mm256_set1_ps(f32::INFINITY), high);
        _mm256_blendv_ps(y, x, nan)
    }

    /// The exp pass's tail: the entries past the last whole 16-block, added
    /// serially onto the folded lanes; returns the normaliser.
    #[inline(always)]
    fn exp_pass_tail(tail: &mut [f32], max: f32, mut sum: f32) -> f32 {
        for v in tail {
            *v = math::softmax_exp(*v - max);
            sum += *v;
        }
        1.0 / sum
    }

    /// The 16-lane sum in one zmm accumulator; the fold adds the high
    /// 256-bit half onto the low (lanes `l + 8` onto `l`) and then runs
    /// [`hsum_tree`].
    ///
    /// # Safety
    /// AVX-512F must be available.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn softmax_exp_pass_avx512(row: &mut [f32], max: f32) -> f32 {
        let full = row.len() / EXP_SUM_LANES * EXP_SUM_LANES;
        let vmax = _mm512_set1_ps(max);
        let mut acc = _mm512_setzero_ps();
        let mut c = 0;
        while c < full {
            let p = row.as_mut_ptr().add(c);
            let e = exp16(_mm512_sub_ps(_mm512_loadu_ps(p), vmax));
            _mm512_storeu_ps(p, e);
            acc = _mm512_add_ps(acc, e);
            c += EXP_SUM_LANES;
        }
        let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(acc)));
        let sum = hsum_tree(_mm256_add_ps(_mm512_castps512_ps256(acc), hi));
        exp_pass_tail(&mut row[full..], max, sum)
    }

    /// The 16-lane sum in two ymm accumulators, lanes `0..8` and `8..16`;
    /// the fold adds them and then runs [`hsum_tree`].
    ///
    /// # Safety
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn softmax_exp_pass_avx2(row: &mut [f32], max: f32) -> f32 {
        let full = row.len() / EXP_SUM_LANES * EXP_SUM_LANES;
        let vmax = _mm256_set1_ps(max);
        let (mut lo, mut hi) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        let mut c = 0;
        while c < full {
            let p = row.as_mut_ptr().add(c);
            let e0 = exp8(_mm256_sub_ps(_mm256_loadu_ps(p), vmax));
            let e1 = exp8(_mm256_sub_ps(_mm256_loadu_ps(p.add(8)), vmax));
            _mm256_storeu_ps(p, e0);
            _mm256_storeu_ps(p.add(8), e1);
            lo = _mm256_add_ps(lo, e0);
            hi = _mm256_add_ps(hi, e1);
            c += EXP_SUM_LANES;
        }
        let sum = hsum_tree(_mm256_add_ps(lo, hi));
        exp_pass_tail(&mut row[full..], max, sum)
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
                        *v = _mm512_fmadd_ps(s, x, *v);
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
    /// AVX2 and FMA must be available, and the slices must have the lengths
    /// `super::nn_tile` checks for `R` rows of `ka` columns.
    #[target_feature(enable = "avx2,fma")]
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
                        *v = _mm256_fmadd_ps(s, x, *v);
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
                            *a = _mm512_fmadd_ps(s, x, *a);
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
    /// AVX2 and FMA must be available, and the slices must have the lengths
    /// `super::spmm_tile` checks for `R` rows of `gpr` groups.
    #[target_feature(enable = "avx2,fma")]
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
                            *a = _mm256_fmadd_ps(s, x, *a);
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

    /// The 1:2 epilogue, 16 pairs per step: one two-source permute gathers
    /// the pairs' first scores and one their second, the reference's
    /// `pair[1] > pair[0]` (false on NaN) picks each lane, and the codes
    /// `1 + pick` narrow to bytes. Kept values leave through `from_acc` per
    /// element; the pairs past the last whole step run the reference.
    ///
    /// # Safety
    /// AVX-512F must be available, and `scores` must hold two scores per
    /// entry of `code_out` and of `nz_out`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn prune_1_2_avx512<T: Scalar>(
        scores: &[f32],
        scale: f32,
        nz_out: &mut [T],
        code_out: &mut [u8],
    ) {
        let full = code_out.len() / 16 * 16;
        let first = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
        let second = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31);
        let vscale = _mm512_set1_ps(scale);
        let (one, two) = (_mm512_set1_epi32(1), _mm512_set1_epi32(2));
        let mut kept = [0.0f32; 16];
        let mut p = 0;
        while p < full {
            let src = scores.as_ptr().add(2 * p);
            let (lo, hi) = (_mm512_loadu_ps(src), _mm512_loadu_ps(src.add(16)));
            let a = _mm512_permutex2var_ps(lo, first, hi);
            let b = _mm512_permutex2var_ps(lo, second, hi);
            let pick = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(b, a);
            let v = _mm512_mul_ps(_mm512_mask_blend_ps(pick, a, b), vscale);
            _mm512_storeu_ps(kept.as_mut_ptr(), v);
            let nz = nz_out.get_unchecked_mut(p..p + 16);
            for (o, &x) in nz.iter_mut().zip(&kept) {
                *o = T::from_acc(x);
            }
            let codes = _mm512_cvtepi32_epi8(_mm512_mask_blend_epi32(pick, one, two));
            _mm_storeu_si128(code_out.as_mut_ptr().add(p).cast(), codes);
            p += 16;
        }
        super::prune_rows_into_1_2(
            &scores[2 * full..],
            scale,
            &mut nz_out[full..],
            &mut code_out[full..],
        );
    }

    /// Lanes of `v` beaten in-group by their neighbour `(i + t) % 4`, for
    /// the rotation `t` that `IMM` encodes: it beats lane `i` iff it is
    /// greater, or equal with the lower index — the lanes `tie` holds.
    #[inline(always)]
    unsafe fn beaten<const IMM: i32>(v: __m512, tie: __mmask16) -> __mmask16 {
        let rot = _mm512_permute_ps::<IMM>(v);
        _mm512_cmp_ps_mask::<_CMP_GT_OQ>(rot, v) | (_mm512_cmp_ps_mask::<_CMP_EQ_OQ>(rot, v) & tie)
    }

    /// The 2:4 epilogue, four groups per step, one per 128-bit lane: three
    /// in-group rotations give each lane its three rivals, and a lane is
    /// kept unless at least two of them beat it — the reference's rank
    /// rule. A compress of the scaled scores under the keep mask writes
    /// each group's two kept lanes in ascending order, and the mask's
    /// nibbles are the codes. A step holding a NaN, and the groups past
    /// the last whole step, run the reference.
    ///
    /// # Safety
    /// AVX-512F must be available, and `scores` must hold four scores per
    /// entry of `code_out` and two per entry of `nz_out`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn prune_2_4_avx512<T: Scalar>(
        scores: &[f32],
        scale: f32,
        nz_out: &mut [T],
        code_out: &mut [u8],
    ) {
        let full = code_out.len() / 4 * 4;
        let vscale = _mm512_set1_ps(scale);
        let mut kept = [0.0f32; 16];
        let mut g = 0;
        while g < full {
            let v = _mm512_loadu_ps(scores.as_ptr().add(4 * g));
            if _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(v, v) != 0 {
                super::prune_rows_into_2_4(
                    &scores[4 * g..4 * g + 16],
                    scale,
                    &mut nz_out[2 * g..2 * g + 8],
                    &mut code_out[g..g + 4],
                );
                g += 4;
                continue;
            }
            // Rotation `t` shows lane `i` its rival `(i + t) % 4`, which
            // has the lower index iff `i ≥ 4 − t`.
            let b1 = beaten::<0b00_11_10_01>(v, 0x8888);
            let b2 = beaten::<0b01_00_11_10>(v, 0xCCCC);
            let b3 = beaten::<0b10_01_00_11>(v, 0xEEEE);
            let keep = !((b1 & b2) | (b1 & b3) | (b2 & b3));
            let packed = _mm512_maskz_compress_ps(keep, _mm512_mul_ps(v, vscale));
            _mm512_storeu_ps(kept.as_mut_ptr(), packed);
            let nz = nz_out.get_unchecked_mut(2 * g..2 * g + 8);
            for (o, &x) in nz.iter_mut().zip(&kept) {
                *o = T::from_acc(x);
            }
            for (q, code) in code_out.get_unchecked_mut(g..g + 4).iter_mut().enumerate() {
                *code = (keep >> (4 * q)) as u8 & 0xF;
            }
            g += 4;
        }
        super::prune_rows_into_2_4(
            &scores[4 * full..],
            scale,
            &mut nz_out[2 * full..],
            &mut code_out[full..],
        );
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

    #[test]
    fn rank_rule_alone_matches_select_only_on_nan_free_groups() {
        // Every group of four over eight special values: the rank rule
        // agrees with the sort on all 2401 NaN-free groups and not on every
        // NaN group, so the reference's NaN fallback is load-bearing.
        let vals = [
            f32::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            1.0,
            2.0,
            f32::INFINITY,
            f32::NAN,
        ];
        let (mut clean, mut nan_disagrees) = (0, false);
        let mut kept = [0usize; MAX_M];
        for i in 0..4096usize {
            let g: [f32; 4] = std::array::from_fn(|lane| vals[(i >> (3 * lane)) & 7]);
            let n_kept = NmPattern::P2_4.select_group_into(&g, &mut kept);
            let code = kept[..n_kept].iter().fold(0u8, |c, &l| c | (1 << l));
            if g.iter().any(|x| x.is_nan()) {
                nan_disagrees |= rank_code_2_4(&g) != code;
            } else {
                assert_eq!(rank_code_2_4(&g), code, "{g:?}");
                clean += 1;
            }
        }
        assert_eq!(clean, 2401);
        assert!(nan_disagrees);
    }
}
