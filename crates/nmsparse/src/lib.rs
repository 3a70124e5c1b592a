//! # dfss-nmsparse — N:M fine-grained structured sparse formats
//!
//! The storage substrate for Dfss. The paper prunes the attention score
//! matrix to the Ampere-supported patterns (1:2 for `float`, 2:4 for
//! `bfloat16`) and stores it as CUTLASS-format *nonzeros + metadata* so the
//! sparse tensor core can consume it directly. This crate implements:
//!
//! * [`pattern`] — N:M group selection (keep the N largest of every M
//!   consecutive entries) for arbitrary N < M, plus mask generation.
//! * [`compressed`] — the logical compressed format
//!   ([`NmCompressed`]): nonzeros (`n/m` of the dense row) + one 4-bit
//!   selection code per group, with compress / decompress / masked-dense.
//!   Every prefill's scores, a B×H launch's as one over its stacked rows.
//! * [`ragged`] — [`NmRagged`], a decode launch's ragged score rows.
//! * [`meta`] — the *device* metadata layout of Appendix A.1.1 / Figure 6:
//!   4-bit codes (`0x4, 0x8, 0xC, 0x9, 0xD, 0xE`), concatenation into 2-byte
//!   blocks, the row interleave of Equation (9), the sub-diagonal 2×2 swap,
//!   and the interleaved column-major store — all invertible and property
//!   tested as a bijection.
//! * [`csr`] — compressed sparse row, the encoding the explicit top-k
//!   baseline (§4.3) must build at runtime.

pub mod compressed;
pub mod csr;
pub mod meta;
pub mod pattern;
pub mod ragged;

pub use compressed::{compressed_bytes, scan_codes, NmCompressed};
pub use csr::Csr;
pub use meta::MetaError;
pub use pattern::{NmPattern, MAX_M};
pub use ragged::NmRagged;
