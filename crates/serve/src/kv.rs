//! Paged per-stream KV caches for decode serving.
//!
//! PR 5 backed each session's keys and values with one contiguous
//! grow-forever slab, so a decode fleet's memory was unbounded and every
//! growth step risked a realloc-and-copy of the whole history. This module
//! replaces that with the paged layout production decode servers use:
//!
//! * [`KvPool`] — one server-owned arena of fixed-size blocks
//!   ([`KvConfig::page_elems`] elements each), allocated and freed in O(1)
//!   through a LIFO free list. Physical pages are created lazily up to the
//!   configured byte budget and recycled forever after.
//! * [`PagedKvCache`] — a per-session **page table**: `append`/`extend`
//!   grab whole pages from the pool instead of reallocating, and
//!   [`release`](PagedKvCache::release) returns every page in O(pages).
//!
//! Every row write takes one path: [`append`](PagedKvCache::append) is the
//! one-row case of [`extend`](PagedKvCache::extend), and both accept rows
//! of any [`Scalar`] dtype `C`. One private routine reserves the pages
//! all-or-nothing and stores each element of a `PagedKvCache<T>` straight
//! into its page in **tensor-core operand form**: `T::from_f32(x.to_f32())`
//! passed through [`Scalar::to_mul`], with no intermediate buffer. An f32
//! store therefore holds `tf32_round(x)` (NaN payloads and ±∞ unchanged,
//! each run of rows rounded once through the SIMD TF32 body), just as a
//! bf16 store holds `Bf16::from_f32(x)`, whose bits `to_mul` leaves alone.
//! A bf16 row into a bf16 store takes the same conversion, which quiets a
//! signalling NaN.
//!
//! Every multiply that reads a cached element rounds it through `to_mul`
//! first, and `to_mul` is idempotent, so storing the rounded value changes
//! no decode output; only [`k_matrix`](PagedKvCache::k_matrix) and
//! [`v_matrix`](PagedKvCache::v_matrix) show it. What it saves is the
//! rounding itself: a decode step reads every cached row, so a row rounded
//! once at write is not rounded again at each later step.
//!
//! Pages hold a fixed element count, not a fixed row count, because one
//! server mixes sessions of different widths: a session of key width `d`
//! stores `page_elems / d` rows per page (the page's tail beyond
//! `rows_per_page × d` elements is dead and never read). K and V sides
//! keep separate page tables so `d ≠ d_v` sessions waste nothing.
//!
//! The decode kernels read the table in place: every read of a side goes
//! through one [`PagedPanel`] view of the pool's pages, flagged
//! [`operand_form`](PagedPanel::operand_form) so the kernels skip the
//! rounding on load.
//! [`k_rows`](PagedKvCache::k_rows)/[`v_rows`](PagedKvCache::v_rows) hand
//! it to the engine as a [`KvRows::Native`] source (a bf16 store's
//! [`k_rows_quant`](PagedKvCache::k_rows_quant) as [`KvRows::Bf16`]), the
//! engine passes it on unchanged, and the kernels walk the pages row by row
//! without copying them — bit-identical to decoding the same rows from one
//! contiguous slab, pinned by the `paged_decode_matches_contiguous`
//! workspace proptest. [`k_matrix`](PagedKvCache::k_matrix) copies the same
//! view out.

use dfss_core::engine::KvRows;
use dfss_core::mechanism::RequestError;
use dfss_kernels::simd;
use dfss_tensor::{Bf16, Matrix, PagedPanel, Scalar};

/// Identifier of an open decode session, unique per server for its
/// lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// Identifier of one fixed-size block inside a [`KvPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

/// Storage dtype of a server's KV pages.
///
/// `Native` stores rows at the server's compute dtype `T` in tensor-core
/// operand form: an f32 store holds each element TF32-rounded, the
/// rounding every decode multiply applies to it anyway. `Bf16` stores rows
/// bf16-quantised regardless of `T`:
/// appends narrow each element through [`Bf16::from_f32`] once at write
/// time and the decode microkernels widen on load (exactly — bf16 → f32
/// is a left shift), so a page holds twice as many f32-computed rows for
/// the same byte budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KvDtype {
    /// Store KV rows at the compute dtype.
    #[default]
    Native,
    /// Store KV rows bf16-quantised (half the bytes of f32 compute).
    Bf16,
}

/// Geometry and governance knobs of a server's KV memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvConfig {
    /// Elements per pool page. A session of row width `w` stores
    /// `page_elems / w` rows per page, so this must be at least the widest
    /// row the server will admit.
    pub page_elems: usize,
    /// Hard ceiling on pool memory in bytes; the pool never holds more
    /// than `budget_bytes / (page_elems × sizeof(T))` pages. The default
    /// (`u64::MAX`) is effectively unbounded.
    pub budget_bytes: u64,
    /// When the budget is exhausted, evict idle sessions (LRU order,
    /// deterministic) instead of rejecting the newcomer outright.
    pub evict_idle: bool,
    /// Storage dtype of the pool's pages (see [`KvDtype`]).
    pub kv_dtype: KvDtype,
}

impl Default for KvConfig {
    fn default() -> KvConfig {
        KvConfig {
            page_elems: 1024,
            budget_bytes: u64::MAX,
            evict_idle: false,
            kv_dtype: KvDtype::Native,
        }
    }
}

impl KvConfig {
    /// Rows of width `width` one page holds (the page tail past
    /// `rows_per_page × width` elements is dead).
    #[inline]
    pub fn rows_per_page(&self, width: usize) -> usize {
        self.page_elems / width
    }

    /// Physical bytes of one page of `T`.
    #[inline]
    pub fn page_bytes<T: Scalar>(&self) -> u64 {
        (self.page_elems * T::BYTES) as u64
    }

    /// Pages the byte budget admits (the pool's capacity).
    pub fn capacity_pages<T: Scalar>(&self) -> usize {
        let pages = self.budget_bytes / self.page_bytes::<T>();
        pages.min(u32::MAX as u64) as usize
    }

    /// Bytes one **stored** element occupies when the server computes in
    /// `T`: `T::BYTES` under [`KvDtype::Native`], 2 under
    /// [`KvDtype::Bf16`]. All budget and utilization accounting must go
    /// through this (not a literal `T::BYTES`, and never a literal `4`) so
    /// the governor charges what the pages physically hold.
    #[inline]
    pub fn storage_elem_bytes<T: Scalar>(&self) -> usize {
        match self.kv_dtype {
            KvDtype::Native => T::BYTES,
            KvDtype::Bf16 => Bf16::BYTES,
        }
    }

    /// Physical bytes of one page at the stored element width.
    #[inline]
    pub fn storage_page_bytes<T: Scalar>(&self) -> u64 {
        (self.page_elems * self.storage_elem_bytes::<T>()) as u64
    }

    /// Pages the byte budget admits at the stored element width — the
    /// capacity a `T`-computing server actually governs. A bf16 store
    /// doubles this over f32 compute for the same `budget_bytes`.
    pub fn storage_capacity_pages<T: Scalar>(&self) -> usize {
        let pages = self.budget_bytes / self.storage_page_bytes::<T>();
        pages.min(u32::MAX as u64) as usize
    }
}

/// Pages a cache side needs to grow from `len` to `len + new_rows` rows.
#[inline]
pub fn pages_for_growth(len: usize, new_rows: usize, rows_per_page: usize) -> usize {
    (len + new_rows).div_ceil(rows_per_page) - len.div_ceil(rows_per_page)
}

/// A typed failure out of a pool or paged-cache mutation — never a panic,
/// so KV exhaustion surfaces as back-pressure, not a crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvError {
    /// Row widths disagree with the cache geometry.
    Shape {
        /// What disagreed.
        reason: String,
    },
    /// The pool has fewer free pages than the mutation needs. The cache is
    /// unchanged — no partial allocation.
    PoolExhausted {
        /// Pages the mutation needed.
        need: usize,
        /// Pages the pool could still hand out.
        free: usize,
    },
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Shape { reason } => write!(f, "kv shape mismatch: {reason}"),
            KvError::PoolExhausted { need, free } => {
                write!(f, "kv pool exhausted: need {need} pages, {free} free")
            }
        }
    }
}

impl std::error::Error for KvError {}

impl From<KvError> for RequestError {
    fn from(e: KvError) -> RequestError {
        RequestError::DecodeShapeMismatch {
            reason: e.to_string(),
        }
    }
}

/// A server-owned arena of fixed-size KV blocks with O(1) alloc/free.
///
/// Physical pages are created lazily: the pool starts empty and grows one
/// page at a time up to `capacity_pages`, after which allocation recycles
/// the LIFO free list only. Freed pages keep their storage (and their
/// stale contents — callers overwrite rows before exposing them).
#[derive(Debug)]
pub struct KvPool<T> {
    page_elems: usize,
    capacity: usize,
    /// Physical page storage, grown lazily; index = `PageId.0`.
    pages: Vec<Box<[T]>>,
    /// Whether each grown page is currently allocated to a cache.
    live: Vec<bool>,
    /// Grown-but-free pages, LIFO so hot pages are reused first.
    free: Vec<PageId>,
    total_allocs: u64,
    total_frees: u64,
}

impl<T: Scalar> KvPool<T> {
    /// Empty pool over `config`'s geometry and budget.
    pub fn new(config: &KvConfig) -> KvPool<T> {
        assert!(config.page_elems > 0, "zero-element pages");
        KvPool {
            page_elems: config.page_elems,
            capacity: config.capacity_pages::<T>(),
            pages: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
            total_allocs: 0,
            total_frees: 0,
        }
    }

    /// Elements per page.
    #[inline]
    pub fn page_elems(&self) -> usize {
        self.page_elems
    }

    /// Pages the budget admits in total.
    #[inline]
    pub fn capacity_pages(&self) -> usize {
        self.capacity
    }

    /// Pages currently allocated to caches.
    #[inline]
    pub fn allocated(&self) -> usize {
        self.pages.len() - self.free.len()
    }

    /// Pages the pool can still hand out (recycled + never-grown).
    #[inline]
    pub fn free_pages(&self) -> usize {
        self.capacity - self.allocated()
    }

    /// Lifetime allocation count (monotone).
    #[inline]
    pub fn total_allocs(&self) -> u64 {
        self.total_allocs
    }

    /// Lifetime free count (monotone).
    #[inline]
    pub fn total_frees(&self) -> u64 {
        self.total_frees
    }

    /// Allocate one page: pop the free list, or grow a fresh zeroed page
    /// if under capacity. `None` when the budget is exhausted.
    pub fn alloc(&mut self) -> Option<PageId> {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                if self.pages.len() >= self.capacity {
                    return None;
                }
                let id = PageId(self.pages.len() as u32);
                self.pages
                    .push(vec![T::zero(); self.page_elems].into_boxed_slice());
                self.live.push(false);
                id
            }
        };
        debug_assert!(!self.live[id.0 as usize], "allocating a live page");
        self.live[id.0 as usize] = true;
        self.total_allocs += 1;
        Some(id)
    }

    /// Return one page to the free list. Freeing a page that is not live
    /// (double-free, never-allocated id) is a typed error and a no-op.
    pub fn free(&mut self, id: PageId) -> Result<(), KvError> {
        match self.live.get_mut(id.0 as usize) {
            Some(live) if *live => {
                *live = false;
                self.free.push(id);
                self.total_frees += 1;
                Ok(())
            }
            _ => Err(KvError::Shape {
                reason: format!("freeing page {} which is not live", id.0),
            }),
        }
    }

    /// The page's element storage (full `page_elems` elements; callers
    /// read only the live row prefix).
    #[inline]
    pub fn page(&self, id: PageId) -> &[T] {
        debug_assert!(self.live[id.0 as usize], "reading a freed page");
        &self.pages[id.0 as usize]
    }

    /// Mutable page storage. Private: a cache's views promise that their
    /// pages hold rows in operand form, so `PagedKvCache::write`, which
    /// rounds what it stores, is the one way into a page.
    #[inline]
    fn page_mut(&mut self, id: PageId) -> &mut [T] {
        debug_assert!(self.live[id.0 as usize], "writing a freed page");
        &mut self.pages[id.0 as usize]
    }

    /// Check the free-list invariants: every grown page is exactly one of
    /// live or free (no leak, no double-count), free-list entries are
    /// unique and in range, and the lifetime counters reconcile with the
    /// live count. Returns a description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.pages.len() != self.live.len() {
            return Err(format!(
                "{} pages but {} live flags",
                self.pages.len(),
                self.live.len()
            ));
        }
        if self.pages.len() > self.capacity {
            return Err(format!(
                "grew {} pages past the {}-page budget",
                self.pages.len(),
                self.capacity
            ));
        }
        let mut on_free_list = vec![false; self.pages.len()];
        for id in &self.free {
            let Some(slot) = on_free_list.get_mut(id.0 as usize) else {
                return Err(format!("free-list entry {} out of range", id.0));
            };
            if *slot {
                return Err(format!("page {} on the free list twice", id.0));
            }
            *slot = true;
        }
        for (p, (&live, &free)) in self.live.iter().zip(&on_free_list).enumerate() {
            if live == free {
                return Err(format!(
                    "page {p} is {} — every grown page must be exactly one of live or free",
                    if live {
                        "both live and free"
                    } else {
                        "neither live nor free"
                    }
                ));
            }
        }
        let live_count = self.live.iter().filter(|&&l| l).count();
        if live_count != self.allocated() {
            return Err(format!(
                "{live_count} live flags set but allocated() says {}",
                self.allocated()
            ));
        }
        if self.total_allocs - self.total_frees != live_count as u64 {
            return Err(format!(
                "lifetime counters ({} allocs - {} frees) disagree with {live_count} live pages",
                self.total_allocs, self.total_frees
            ));
        }
        Ok(())
    }
}

/// A per-session KV page table over a shared [`KvPool`]: K rows of width
/// `d` and V rows of width `d_v`, each side packing `page_elems / width`
/// rows per page. Mutations never move written rows — growth appends
/// pages to the table.
#[derive(Clone, Debug)]
pub struct PagedKvCache<T> {
    d: usize,
    d_v: usize,
    len: usize,
    rows_per_page_k: usize,
    rows_per_page_v: usize,
    k_pages: Vec<PageId>,
    v_pages: Vec<PageId>,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Scalar> PagedKvCache<T> {
    /// Empty table for keys of width `d` and values of width `d_v` over a
    /// pool of `config`'s geometry. Fails (typed) when a page cannot hold
    /// even one row of either width.
    pub fn new(config: &KvConfig, d: usize, d_v: usize) -> Result<PagedKvCache<T>, KvError> {
        if d == 0 || d_v == 0 {
            return Err(KvError::Shape {
                reason: "zero-width cache".into(),
            });
        }
        if config.page_elems < d || config.page_elems < d_v {
            return Err(KvError::Shape {
                reason: format!(
                    "page holds {} elements, too small for rows of width ({d}, {d_v})",
                    config.page_elems
                ),
            });
        }
        Ok(PagedKvCache {
            d,
            d_v,
            len: 0,
            rows_per_page_k: config.rows_per_page(d),
            rows_per_page_v: config.rows_per_page(d_v),
            k_pages: Vec::new(),
            v_pages: Vec::new(),
            _marker: std::marker::PhantomData,
        })
    }

    /// Key width.
    #[inline]
    pub fn d(&self) -> usize {
        self.d
    }

    /// Value width.
    #[inline]
    pub fn d_v(&self) -> usize {
        self.d_v
    }

    /// Cached positions.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been appended yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// K rows one page holds.
    #[inline]
    pub fn rows_per_page_k(&self) -> usize {
        self.rows_per_page_k
    }

    /// V rows one page holds.
    #[inline]
    pub fn rows_per_page_v(&self) -> usize {
        self.rows_per_page_v
    }

    /// Pages this session holds across both tables.
    #[inline]
    pub fn pages(&self) -> usize {
        self.k_pages.len() + self.v_pages.len()
    }

    /// Logical footprint of the cached rows in bytes (what the rows
    /// contain, not the pages they sit in — the governance budget is
    /// charged per page, this is the utilization numerator).
    #[inline]
    pub fn bytes(&self) -> u64 {
        (self.len * (self.d + self.d_v) * T::BYTES) as u64
    }

    /// Append one position (a `d`-wide key row and a `d_v`-wide value
    /// row) given at any dtype `C`: the one-row case of
    /// [`extend`](Self::extend), through the same write.
    pub fn append<C: Scalar>(
        &mut self,
        pool: &mut KvPool<T>,
        k_row: &[C],
        v_row: &[C],
    ) -> Result<(), KvError> {
        if k_row.len() != self.d || v_row.len() != self.d_v {
            return Err(KvError::Shape {
                reason: format!(
                    "append rows of width ({}, {}) into a ({}, {}) cache",
                    k_row.len(),
                    v_row.len(),
                    self.d,
                    self.d_v
                ),
            });
        }
        self.write(pool, 1, k_row, v_row)
    }

    /// Append a block of positions at once (prefill priming): `k` is
    /// `rows × d`, `v` is `rows × d_v`, at any dtype `C`. Pages are taken
    /// from `pool` as rows cross page boundaries; on
    /// [`KvError::PoolExhausted`] no page is taken, no row written and the
    /// cache is unchanged.
    pub fn extend<C: Scalar>(
        &mut self,
        pool: &mut KvPool<T>,
        k: &Matrix<C>,
        v: &Matrix<C>,
    ) -> Result<(), KvError> {
        if k.cols() != self.d || v.cols() != self.d_v || k.rows() != v.rows() {
            return Err(KvError::Shape {
                reason: format!(
                    "extend with K {}x{} / V {}x{} into a ({}, {}) cache",
                    k.rows(),
                    k.cols(),
                    v.rows(),
                    v.cols(),
                    self.d,
                    self.d_v
                ),
            });
        }
        self.write(pool, k.rows(), k.as_slice(), v.as_slice())
    }

    /// Return every page to the pool and reset to empty. The widths (and
    /// the table itself) survive, so an evicted session's geometry is
    /// still known.
    pub fn release(&mut self, pool: &mut KvPool<T>) {
        for id in self.k_pages.drain(..).chain(self.v_pages.drain(..)) {
            pool.free(id).expect("page table holds a non-live page");
        }
        self.len = 0;
    }

    /// The cached keys as a borrowed page view the decode kernels read in
    /// place.
    pub fn k_rows<'p>(&self, pool: &'p KvPool<T>) -> KvRows<'p, T> {
        KvRows::Native(self.view(pool, false))
    }

    /// The cached values as a borrowed page view the decode kernels read in
    /// place.
    pub fn v_rows<'p>(&self, pool: &'p KvPool<T>) -> KvRows<'p, T> {
        KvRows::Native(self.view(pool, true))
    }

    /// Copy the cached keys out as a `len × d` matrix, as stored: in
    /// operand form (test/reference use).
    pub fn k_matrix(&self, pool: &KvPool<T>) -> Matrix<T> {
        self.view(pool, false).to_matrix(self.d)
    }

    /// Copy the cached values out as a `len × d_v` matrix, as stored.
    pub fn v_matrix(&self, pool: &KvPool<T>) -> Matrix<T> {
        self.view(pool, true).to_matrix(self.d_v)
    }

    /// The K (`values == false`) or V side's `len` cached rows as a view
    /// of the pool's pages in table order — every read of the cache goes
    /// through this one view.
    fn view<'p>(&self, pool: &'p KvPool<T>, values: bool) -> PagedPanel<'p, T> {
        let (table, rows_per_page) = if values {
            (&self.v_pages, self.rows_per_page_v)
        } else {
            (&self.k_pages, self.rows_per_page_k)
        };
        PagedPanel {
            pages: table.iter().map(|&id| pool.page(id)).collect(),
            rows_per_page,
            len: self.len,
            // `write` stores every element through `to_mul`.
            operand_form: true,
        }
    }

    /// The one row write (see the module doc): reserve the pages `rows`
    /// more positions need, all-or-nothing, then store the row-major `k`
    /// (`rows × d`) and `v` (`rows × d_v`) straight into them, in operand
    /// form.
    fn write<C: Scalar>(
        &mut self,
        pool: &mut KvPool<T>,
        rows: usize,
        k: &[C],
        v: &[C],
    ) -> Result<(), KvError> {
        let need_k = pages_for_growth(self.len, rows, self.rows_per_page_k);
        let need_v = pages_for_growth(self.len, rows, self.rows_per_page_v);
        let need = need_k + need_v;
        if need > pool.free_pages() {
            return Err(KvError::PoolExhausted {
                need,
                free: pool.free_pages(),
            });
        }
        // Cannot fail past the gate above; the free list is LIFO so these
        // come out in a deterministic order.
        for _ in 0..need_k {
            self.k_pages
                .push(pool.alloc().expect("gated on free_pages"));
        }
        for _ in 0..need_v {
            self.v_pages
                .push(pool.alloc().expect("gated on free_pages"));
        }
        // Each side's rows land at positions `len..` of its page table, as
        // one run of consecutive rows per page, which is rounded in place
        // once written.
        let (len, backend) = (self.len, simd::active());
        let mut store = |table: &[PageId], rows_per_page: usize, src: &[C], width: usize| {
            let mut r = 0;
            while r < rows {
                let slot = (len + r) % rows_per_page;
                let run = (rows_per_page - slot).min(rows - r);
                let page = pool.page_mut(table[(len + r) / rows_per_page]);
                let dst = &mut page[slot * width..(slot + run) * width];
                for (dst, &x) in dst.iter_mut().zip(&src[r * width..(r + run) * width]) {
                    *dst = T::from_f32(x.to_f32());
                }
                simd::round_operands(backend, dst);
                r += run;
            }
        };
        store(&self.k_pages, self.rows_per_page_k, k, self.d);
        store(&self.v_pages, self.rows_per_page_v, v, self.d_v);
        self.len += rows;
        Ok(())
    }
}

impl PagedKvCache<Bf16> {
    /// The cached bf16 keys as a borrowed page view the decode kernels
    /// read in place, tagged quantised so a `T`-computing engine routes the
    /// step through its fused widen-on-load decode path.
    pub fn k_rows_quant<'p, T: Scalar>(&self, pool: &'p KvPool<Bf16>) -> KvRows<'p, T> {
        KvRows::Bf16(self.view(pool, false))
    }

    /// The cached bf16 values as a borrowed page view (see
    /// [`k_rows_quant`](Self::k_rows_quant)).
    pub fn v_rows_quant<'p, T: Scalar>(&self, pool: &'p KvPool<Bf16>) -> KvRows<'p, T> {
        KvRows::Bf16(self.view(pool, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(page_elems: usize, pages: u64) -> KvConfig {
        KvConfig {
            page_elems,
            budget_bytes: pages * (page_elems * 4) as u64,
            evict_idle: false,
            kv_dtype: KvDtype::Native,
        }
    }

    #[test]
    fn append_crosses_page_boundaries() {
        // 2 K rows or 3 V rows per page (width 2 each, page of 6 elems:
        // K side wastes 2 elements per page, V side none).
        let cfg = KvConfig {
            page_elems: 6,
            ..KvConfig::default()
        };
        let mut pool = KvPool::<f32>::new(&cfg);
        let mut c = PagedKvCache::<f32>::new(&cfg, 2, 2).unwrap();
        assert_eq!(c.rows_per_page_k(), 3);
        assert!(c.is_empty());
        for i in 0..4 {
            let x = i as f32;
            c.append(&mut pool, &[x, x + 0.5], &[-x, -x - 0.5]).unwrap();
        }
        assert_eq!(c.len(), 4);
        // 4 rows at 3 rows/page → 2 pages per side.
        assert_eq!(c.pages(), 4);
        assert_eq!(pool.allocated(), 4);
        assert_eq!(c.bytes(), (4 * (2 + 2) * 4) as u64);
        let k = c.k_matrix(&pool);
        assert_eq!(k.shape(), (4, 2));
        assert_eq!(k.row(3), &[3.0, 3.5]);
        assert_eq!(c.v_matrix(&pool).row(0), &[0.0, -0.5]);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn extend_primes_many_rows_and_release_returns_pages() {
        let cfg = config(8, 64);
        let mut pool = KvPool::<f32>::new(&cfg);
        let mut c = PagedKvCache::<f32>::new(&cfg, 4, 2).unwrap();
        let k = Matrix::from_fn(5, 4, |r, col| (r * 4 + col) as f32);
        let v = Matrix::from_fn(5, 2, |r, col| -((r * 2 + col) as f32));
        c.extend(&mut pool, &k, &v).unwrap();
        assert_eq!(c.len(), 5);
        assert_eq!(c.k_matrix(&pool), k);
        assert_eq!(c.v_matrix(&pool), v);
        // 5 rows: K at 2 rows/page → 3 pages; V at 4 rows/page → 2 pages.
        assert_eq!(c.pages(), 5);
        c.release(&mut pool);
        assert_eq!(c.len(), 0);
        assert_eq!(c.pages(), 0);
        assert_eq!(pool.allocated(), 0);
        assert_eq!(pool.total_frees(), 5);
        pool.check_invariants().unwrap();
        // The freed pages recycle without growing new storage.
        c.extend(&mut pool, &k, &v).unwrap();
        assert_eq!(pool.total_allocs(), 10);
        assert_eq!(c.k_matrix(&pool), k);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn exhaustion_is_atomic_and_typed() {
        // Budget of 3 pages; a session needs K+V pages in pairs.
        let cfg = config(4, 3);
        let mut pool = KvPool::<f32>::new(&cfg);
        assert_eq!(pool.capacity_pages(), 3);
        let mut c = PagedKvCache::<f32>::new(&cfg, 4, 4).unwrap();
        c.append(&mut pool, &[0.0; 4], &[1.0; 4]).unwrap(); // takes 2 pages
        let before = (c.len(), c.pages(), pool.allocated());
        let err = c
            .extend(
                &mut pool,
                &Matrix::<f32>::zeros(2, 4),
                &Matrix::<f32>::zeros(2, 4),
            )
            .unwrap_err();
        assert_eq!(err, KvError::PoolExhausted { need: 4, free: 1 });
        assert_eq!((c.len(), c.pages(), pool.allocated()), before);
        pool.check_invariants().unwrap();
        // The row already cached is intact.
        assert_eq!(c.v_matrix(&pool).row(0), &[1.0; 4]);
    }

    #[test]
    fn double_free_is_a_typed_error() {
        let cfg = config(4, 8);
        let mut pool = KvPool::<f32>::new(&cfg);
        let id = pool.alloc().unwrap();
        pool.free(id).unwrap();
        assert!(matches!(pool.free(id), Err(KvError::Shape { .. })));
        assert!(matches!(pool.free(PageId(99)), Err(KvError::Shape { .. })));
        assert_eq!(pool.total_frees(), 1);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn mismatched_rows_are_typed_errors() {
        let cfg = config(8, 8);
        let mut pool = KvPool::<f32>::new(&cfg);
        let mut c = PagedKvCache::<f32>::new(&cfg, 2, 2).unwrap();
        let err = c.append(&mut pool, &[1.0], &[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, KvError::Shape { .. }));
        let k = Matrix::<f32>::zeros(2, 3);
        let v = Matrix::<f32>::zeros(2, 2);
        assert!(c.extend(&mut pool, &k, &v).is_err());
        assert!(c.is_empty(), "failed appends must not mutate the cache");
        assert_eq!(pool.allocated(), 0);
        // A cache whose rows cannot fit one page is rejected at creation.
        assert!(matches!(
            PagedKvCache::<f32>::new(&cfg, 16, 2),
            Err(KvError::Shape { .. })
        ));
    }

    #[test]
    fn config_capacity_accounts_for_dtype() {
        let cfg = KvConfig {
            page_elems: 256,
            budget_bytes: 1 << 20,
            evict_idle: false,
            kv_dtype: KvDtype::Native,
        };
        assert_eq!(cfg.capacity_pages::<f32>(), 1024);
        assert_eq!(cfg.capacity_pages::<dfss_tensor::Bf16>(), 2048);
        assert_eq!(cfg.rows_per_page(64), 4);
        assert_eq!(pages_for_growth(0, 1, 4), 1);
        assert_eq!(pages_for_growth(4, 1, 4), 1);
        assert_eq!(pages_for_growth(3, 1, 4), 0);
        assert_eq!(pages_for_growth(2, 10, 4), 2);
        // Storage-width accounting: a Native store charges T::BYTES, a
        // Bf16 store charges 2 bytes/element whatever the compute dtype —
        // the same byte budget backs twice the pages.
        assert_eq!(cfg.storage_elem_bytes::<f32>(), 4);
        assert_eq!(cfg.storage_capacity_pages::<f32>(), 1024);
        let quant = KvConfig {
            kv_dtype: KvDtype::Bf16,
            ..cfg
        };
        assert_eq!(quant.storage_elem_bytes::<f32>(), 2);
        assert_eq!(quant.storage_capacity_pages::<f32>(), 2048);
        assert_eq!(
            quant.storage_capacity_pages::<f32>(),
            quant.capacity_pages::<Bf16>(),
            "the registry's governed capacity must match the Bf16 pool's"
        );
    }

    #[test]
    fn quant_cache_narrows_on_write_and_exposes_bf16_pages() {
        let cfg = KvConfig {
            page_elems: 8,
            kv_dtype: KvDtype::Bf16,
            ..KvConfig::default()
        };
        let mut pool = KvPool::<Bf16>::new(&cfg);
        let mut c = PagedKvCache::<Bf16>::new(&cfg, 4, 2).unwrap();
        // 1.0 and -2.5 are exactly representable in bf16; 1.0000001 is not
        // and must round to the stored bf16, not survive at f32 precision.
        let k = Matrix::from_vec(1, 4, vec![1.0f32, -2.5, 1.000_000_1, 0.0]);
        let v = Matrix::from_vec(1, 2, vec![3.0f32, -0.5]);
        c.extend(&mut pool, &k, &v).unwrap();
        c.append(&mut pool, &[1.0f32, 2.0, 3.0, 4.0], &[5.0f32, 6.0])
            .unwrap();
        assert_eq!(c.len(), 2);
        let stored = c.k_matrix(&pool);
        assert_eq!(stored.row(0)[0], Bf16::from_f32(1.0));
        assert_eq!(stored.row(0)[2], Bf16::from_f32(1.000_000_1));
        assert_ne!(stored.row(0)[2].to_f32(), 1.000_000_1f32);
        // Logical bytes are charged at the stored width (2 bytes/elem).
        assert_eq!(c.bytes(), (2 * (4 + 2) * 2) as u64);
        // The quant row views carry the bf16 pages under the compute-dtype
        // tag the engine dispatches on.
        match c.k_rows_quant::<f32>(&pool) {
            KvRows::Bf16(view) => {
                assert_eq!((view.rows_per_page, view.len), (2, 2));
                assert_eq!(view.pages.len(), 1);
                assert_eq!(view.pages[0][0], Bf16::from_f32(1.0));
            }
            other => panic!("expected a bf16 view, got {other:?}"),
        }
    }

    #[test]
    fn append_and_extend_write_the_same_rows() {
        // Values the one write must carry into an f32 store as their TF32
        // rounding: a NaN with a non-default payload, ±0, ±∞, a subnormal,
        // and two ordinary values (the first representable in neither bf16
        // nor TF32).
        let edges = [
            f32::from_bits(0x7fa0_1234),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x0000_0001),
            1.000_000_1,
            -2.5,
        ];
        let (rows, d, d_v) = (5usize, 4usize, 2usize);
        let k = Matrix::from_fn(rows, d, |r, c| edges[(r * d + c) % edges.len()]);
        let v = Matrix::from_fn(rows, d_v, |r, c| edges[(r * d_v + c + 3) % edges.len()]);
        let cfg = config(6, 64);
        let bits = |m: &Matrix<f32>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut pool_a = KvPool::<f32>::new(&cfg);
        let mut by_row = PagedKvCache::<f32>::new(&cfg, d, d_v).unwrap();
        for r in 0..rows {
            by_row.append(&mut pool_a, k.row(r), v.row(r)).unwrap();
        }
        let mut pool_b = KvPool::<f32>::new(&cfg);
        let mut by_block = PagedKvCache::<f32>::new(&cfg, d, d_v).unwrap();
        by_block.extend(&mut pool_b, &k, &v).unwrap();
        let rounded = |m: &Matrix<f32>| {
            m.as_slice()
                .iter()
                .map(|&x| dfss_tensor::tf32_round(x).to_bits())
                .collect::<Vec<_>>()
        };
        for (c, pool) in [(&by_row, &pool_a), (&by_block, &pool_b)] {
            assert_eq!(bits(&c.k_matrix(pool)), rounded(&k));
            assert_eq!(bits(&c.v_matrix(pool)), rounded(&v));
        }
        // Row 0 of K holds edges 0..4, row 1 edges 4..8: the NaN payload
        // and ±∞ are kept, the subnormal rounds to +0 and 1.000_000_1 to 1.
        let stored = by_block.k_matrix(&pool_b);
        assert_eq!(stored.row(0)[0].to_bits(), 0x7fa0_1234);
        assert_eq!(stored.row(0)[3], f32::INFINITY);
        assert_eq!(stored.row(1)[0], f32::NEG_INFINITY);
        assert_eq!(stored.row(1)[1].to_bits(), 0);
        assert_eq!(stored.row(1)[2], 1.0);
        assert_eq!(stored.row(1)[3], -2.5);
        assert_eq!(
            (by_row.len(), by_row.pages(), by_row.bytes()),
            (by_block.len(), by_block.pages(), by_block.bytes())
        );

        // A bf16 store fed the same f32 rows holds `Bf16::from_f32` of
        // each element, whichever call wrote it.
        let quant = KvConfig {
            kv_dtype: KvDtype::Bf16,
            ..cfg
        };
        let narrowed = |m: &Matrix<f32>| {
            m.as_slice()
                .iter()
                .map(|&x| Bf16::from_f32(x).0)
                .collect::<Vec<_>>()
        };
        let stored = |m: Matrix<Bf16>| m.as_slice().iter().map(|x| x.0).collect::<Vec<_>>();
        let mut pool_q = KvPool::<Bf16>::new(&quant);
        let mut q_row = PagedKvCache::<Bf16>::new(&quant, d, d_v).unwrap();
        let mut q_block = PagedKvCache::<Bf16>::new(&quant, d, d_v).unwrap();
        for r in 0..rows {
            q_row.append(&mut pool_q, k.row(r), v.row(r)).unwrap();
        }
        q_block.extend(&mut pool_q, &k, &v).unwrap();
        for c in [&q_row, &q_block] {
            assert_eq!(stored(c.k_matrix(&pool_q)), narrowed(&k));
            assert_eq!(stored(c.v_matrix(&pool_q)), narrowed(&v));
        }
        pool_a.check_invariants().unwrap();
        pool_b.check_invariants().unwrap();
        pool_q.check_invariants().unwrap();
    }

    #[test]
    fn cache_views_are_in_operand_form_and_one_page_views_are_not() {
        let cfg = config(8, 64);
        let mut pool = KvPool::<f32>::new(&cfg);
        let mut c = PagedKvCache::<f32>::new(&cfg, 4, 2).unwrap();
        let k = Matrix::from_fn(3, 4, |r, col| 1.0 + (r * 4 + col) as f32 * 1e-4);
        let v = Matrix::from_fn(3, 2, |r, col| -1.0 - (r * 2 + col) as f32 * 1e-4);
        c.extend(&mut pool, &k, &v).unwrap();
        for rows in [c.k_rows(&pool), c.v_rows(&pool)] {
            match rows {
                KvRows::Native(view) => assert!(view.operand_form),
                other => panic!("expected a native view, got {other:?}"),
            }
        }
        // Every stored element is a fixed point of `to_mul`, as the flag
        // promises, and the raw rows are not all fixed points.
        let stored = c.k_matrix(&pool);
        assert!(stored.as_slice().iter().all(|&x| x.to_mul() == x));
        assert!(k.as_slice().iter().any(|&x| x.to_mul() != x));
        assert!(!PagedPanel::one_page(k.as_slice(), 3).operand_form);
        // A bf16 store's views carry the flag too.
        let quant = KvConfig {
            kv_dtype: KvDtype::Bf16,
            ..cfg
        };
        let mut pool_q = KvPool::<Bf16>::new(&quant);
        let mut q = PagedKvCache::<Bf16>::new(&quant, 4, 2).unwrap();
        q.extend(&mut pool_q, &k, &v).unwrap();
        match q.k_rows_quant::<f32>(&pool_q) {
            KvRows::Bf16(view) => assert!(view.operand_form),
            other => panic!("expected a bf16 view, got {other:?}"),
        }
    }
}
