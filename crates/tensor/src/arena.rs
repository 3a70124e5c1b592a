//! Thread-local scratch arena for hot-loop f32 buffers.
//!
//! The execution kernels need short-lived f32 working buffers on every call:
//! widened (TF32-rounded) operand copies, transposed panels, per-row
//! accumulators. Allocating those with `vec![0.0; n]` each time costs a
//! malloc + page-fault storm per kernel launch, which dominates at the
//! small-matrix sizes the paper sweeps. This arena keeps a small per-thread
//! free list of `Vec<f32>` buffers: acquisition pops one and resizes it (a
//! cheap memset on warm, already-faulted memory), and dropping the RAII
//! handle returns the buffer to the list.
//!
//! Because the worker pool in the `rayon` shim is persistent, each worker
//! thread's free list survives across kernel calls — the steady state of a
//! benchmark loop or a transformer forward pass performs **zero** scratch
//! allocations.
//!
//! Every slice starts on a 64-byte boundary. The allocator aligns a
//! `Vec<f32>` to 16 bytes only, and a large one lands at 16 mod 64; a
//! widened row of d = 64 then straddles two cache lines on every 64-byte
//! load. So each buffer is over-allocated by up to 15 elements and the
//! slice starts at its first aligned element. The free list still parks
//! whole `Vec`s, and a reused buffer keeps its address, so its slice keeps
//! its start.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Alignment of every scratch slice, in bytes: one cache line, one
/// AVX-512 register.
const ALIGN: usize = 64;

/// Elements a buffer holds past its slice, at most, so that an aligned
/// start always fits.
const ALIGN_PAD: usize = ALIGN / std::mem::size_of::<f32>() - 1;

/// Retain at most this many buffers per thread; enough for the deepest
/// kernel (two widened operands + transpose panel + accumulator) with room
/// for nesting, while bounding idle memory.
const MAX_POOLED: usize = 8;

/// Cap on the total *bytes* parked per thread, so a sweep over large shapes
/// (a widened n×n score panel at n = 2048 is 16 MiB) cannot pin
/// `MAX_POOLED` such buffers on every persistent worker for the process
/// lifetime.
const MAX_POOLED_BYTES: usize = 64 << 20;

thread_local! {
    static FREE_LIST: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// RAII handle to a pooled `f32` buffer; dereferences to a 64-byte-aligned
/// `[f32]` and returns the storage to the thread-local free list on drop.
#[derive(Debug)]
pub struct ScratchF32 {
    buf: Vec<f32>,
    /// Index in `buf` of the slice's first element; the slice runs to the
    /// end of `buf`.
    off: usize,
}

impl Deref for ScratchF32 {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        &self.buf[self.off..]
    }
}

impl DerefMut for ScratchF32 {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[self.off..]
    }
}

impl Drop for ScratchF32 {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        FREE_LIST.with(|fl| {
            let mut fl = fl.borrow_mut();
            let parked_bytes: usize = fl.iter().map(|b| b.capacity() * 4).sum();
            if fl.len() < MAX_POOLED && parked_bytes + buf.capacity() * 4 <= MAX_POOLED_BYTES {
                fl.push(buf);
            }
        });
    }
}

/// Pop the best-fitting parked buffer for `len` elements: the smallest
/// capacity that already fits, else the largest (which will grow once and
/// then serve future large requests instead of being shadowed by small
/// ones).
fn pop_best_fit(len: usize) -> Option<Vec<f32>> {
    FREE_LIST.with(|fl| {
        let mut fl = fl.borrow_mut();
        let fitting = fl
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        let idx = fitting.or_else(|| {
            fl.iter()
                .enumerate()
                .max_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i)
        })?;
        Some(fl.swap_remove(idx))
    })
}

/// A buffer with room for `len` elements from its first 64-byte-aligned
/// element on, and that element's index. Its capacity is final: nothing
/// later in an acquisition reallocates it, so the start stays aligned.
fn aligned_buffer(len: usize) -> (Vec<f32>, usize) {
    let mut buf = pop_best_fit(len + ALIGN_PAD).unwrap_or_default();
    buf.reserve((len + ALIGN_PAD).saturating_sub(buf.len()));
    // `align_offset` may decline (`usize::MAX`); the slice then starts
    // unaligned, still inside the buffer.
    let off = buf.as_ptr().align_offset(ALIGN).min(ALIGN_PAD);
    (buf, off)
}

/// Acquire a zero-filled scratch buffer of exactly `len` elements, reusing
/// pooled storage when available.
pub fn scratch_f32(len: usize) -> ScratchF32 {
    let mut s = scratch_f32_stale(len);
    s.iter_mut().for_each(|x| *x = 0.0);
    s
}

/// Acquire a scratch buffer of exactly `len` elements with **unspecified
/// contents** (stale values from the buffer's previous use; always
/// initialized memory). For hot loops that fully overwrite the buffer — or
/// re-zero it per iteration anyway — this skips [`scratch_f32`]'s zero-fill
/// pass.
pub fn scratch_f32_stale(len: usize) -> ScratchF32 {
    let (mut buf, off) = aligned_buffer(len);
    // Only a growth tail is written; the retained prefix keeps its stale
    // values.
    buf.resize(off + len, 0.0);
    ScratchF32 { buf, off }
}

/// Acquire a scratch buffer filled from an iterator that yields exactly
/// `len` elements (skips the zero-fill of [`scratch_f32`]).
pub fn scratch_f32_from(len: usize, values: impl Iterator<Item = f32>) -> ScratchF32 {
    let (mut buf, off) = aligned_buffer(len);
    buf.resize(off, 0.0);
    buf.extend(values);
    assert_eq!(buf.len() - off, len, "scratch iterator length mismatch");
    ScratchF32 { buf, off }
}

/// Number of buffers currently parked on this thread's free list (test
/// observability).
pub fn pooled_buffers() -> usize {
    FREE_LIST.with(|fl| fl.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_and_sized() {
        let s = scratch_f32(37);
        assert_eq!(s.len(), 37);
        assert!(s.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn storage_is_reused_across_acquisitions() {
        // Warm the pool, note the capacity, and check a same-size acquire
        // does not grow it again.
        drop(scratch_f32(1024));
        let before = pooled_buffers();
        assert!(before >= 1);
        let mut s = scratch_f32(1024);
        s[0] = 1.0;
        assert_eq!(pooled_buffers(), before - 1);
        drop(s);
        assert_eq!(pooled_buffers(), before);
        // Reused buffer must come back zeroed.
        let s2 = scratch_f32(1024);
        assert!(s2.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn stale_has_len_and_reuses_without_zeroing_cost() {
        FREE_LIST.with(|fl| fl.borrow_mut().clear());
        let mut a = scratch_f32_stale(16);
        assert_eq!(a.len(), 16);
        a[3] = 7.0;
        drop(a);
        // Reacquired stale buffer keeps its previous contents (truncate
        // path) — the contract is "unspecified", this pins the no-memset
        // behavior.
        let b = scratch_f32_stale(8);
        assert_eq!(b.len(), 8);
        assert_eq!(b[3], 7.0);
        drop(b);
        FREE_LIST.with(|fl| fl.borrow_mut().clear());
    }

    #[test]
    fn from_iterator_skips_zero_fill() {
        let s = scratch_f32_from(4, [1.0f32, 2.0, 3.0, 4.0].into_iter());
        assert_eq!(&*s, &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_iterator_checks_length() {
        let _ = scratch_f32_from(5, [1.0f32].into_iter());
    }

    #[test]
    fn pool_is_bounded() {
        let held: Vec<ScratchF32> = (0..32).map(|_| scratch_f32(8)).collect();
        drop(held);
        assert!(pooled_buffers() <= MAX_POOLED);
    }

    #[test]
    fn pool_is_byte_bounded() {
        // Two buffers of MAX_POOLED_BYTES/2 (alignment padding included)
        // fill the cap; a third is freed rather than parked.
        let half = MAX_POOLED_BYTES / 2 / 4 - ALIGN_PAD;
        let held: Vec<ScratchF32> = (0..3).map(|_| scratch_f32(half)).collect();
        drop(held);
        FREE_LIST.with(|fl| {
            let bytes: usize = fl.borrow().iter().map(|b| b.capacity() * 4).sum();
            assert!(bytes <= MAX_POOLED_BYTES, "parked {bytes} bytes");
            // Drop the big buffers so other tests see a small pool.
            fl.borrow_mut().clear();
        });
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        FREE_LIST.with(|fl| fl.borrow_mut().clear());
        // Hold both concurrently so each gets distinct backing storage.
        let big = scratch_f32(1000);
        let small = scratch_f32(10);
        drop(big);
        drop(small);
        // A small request must reuse the small buffer, leaving the large one
        // parked for large requests.
        let s = scratch_f32(8);
        FREE_LIST.with(|fl| {
            assert!(fl.borrow().iter().any(|b| b.capacity() >= 1000));
        });
        drop(s);
        FREE_LIST.with(|fl| fl.borrow_mut().clear());
    }

    #[test]
    fn every_acquisition_path_is_aligned_and_sized() {
        let aligned = |s: &ScratchF32, len: usize, what: &str| {
            assert_eq!(s.len(), len, "{what}: length");
            assert_eq!(s.as_ptr() as usize % ALIGN, 0, "{what}: {:p}", s.as_ptr());
        };
        FREE_LIST.with(|fl| fl.borrow_mut().clear());
        for len in [0usize, 1, 15, 16, 17, 1000] {
            let s = scratch_f32(len);
            aligned(&s, len, &format!("zeroed {len}"));
            assert!(s.iter().all(|&x| x == 0.0));
            drop(s);
            aligned(&scratch_f32_stale(len), len, &format!("stale {len}"));
            let from = scratch_f32_from(len, (0..len).map(|i| i as f32));
            aligned(&from, len, &format!("from an iterator {len}"));
            assert!(from.iter().enumerate().all(|(i, &x)| x == i as f32));
        }
        // A reused buffer keeps its address, so its slice keeps its start.
        FREE_LIST.with(|fl| fl.borrow_mut().clear());
        let first = scratch_f32_stale(64);
        let at = first.as_ptr();
        drop(first);
        let reused = scratch_f32_stale(48);
        assert_eq!(reused.as_ptr(), at, "reused buffer moved");
        aligned(&reused, 48, "reused");
        drop(reused);
        // One parked buffer too small for the request grows (reallocates)
        // and is aligned again at its new address.
        let regrown = scratch_f32_stale(1 << 16);
        aligned(&regrown, 1 << 16, "regrown");
        drop(regrown);
        FREE_LIST.with(|fl| {
            assert_eq!(fl.borrow().len(), 1, "the regrown buffer is parked");
            fl.borrow_mut().clear();
        });
    }

    #[test]
    fn nested_acquisitions_are_distinct() {
        let mut a = scratch_f32(8);
        let mut b = scratch_f32(8);
        a[0] = 1.0;
        b[0] = 2.0;
        assert_eq!(a[0], 1.0);
        assert_eq!(b[0], 2.0);
    }
}
