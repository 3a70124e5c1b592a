//! # dfss-kernels — device kernels over the simulated GPU
//!
//! Rust ports of the paper's CUDA kernels. Each kernel both *executes* (on
//! CPU threads via rayon, preserving the paper's tile structure) and *charges*
//! the [`dfss_gpusim`] cost model for the global-memory traffic and
//! tensor-core MACs the real kernel would incur. The headline kernel is
//! [`sddmm::sddmm_nm_fused`]: a dense Q·Kᵀ GEMM whose epilogue prunes the
//! accumulator tiles to N:M sparsity and emits nonzeros + metadata directly,
//! never writing the dense score matrix — the paper's "first operator in the
//! deep learning software stack that dynamically prunes a dense matrix and
//! generates its sparse encoding with zero overhead" (§3.4).
//!
//! Kernel inventory. Each family has one exec body over borrowed slices:
//! a solo kernel is the one-panel case of its batched twin, and a decode
//! kernel is one launch over per-stream [`PagedPanel`] views (a packed
//! ragged stack is the one-page-per-stream case).
//! * [`gemm`] — tiled dense GEMM (`NT` and `NN` layouts), f32 accumulate,
//!   TF32 input rounding on the `float` path.
//! * [`sddmm`] — fused SDDMM + N:M prune epilogue, the unfused ablation, and
//!   the standalone dense-prune kernel. The scaled N:M selection of
//!   accumulators is written once (`prune_rows_dispatch`, which the
//!   blocked-ELL SDDMM, the decode prune and the row-tile driver share);
//!   the verbatim one is [`NmPattern::compress_groups_into`].
//! * [`softmax`] — dense softmax, compressed N:M softmax (half-length rows),
//!   CSR softmax; register-cached vs streaming traffic per row length.
//! * [`spmm`] — N:M SpMM on the simulated sparse tensor core, CSR SpMM with
//!   the vector tiling of Figure 10(B).
//! * [`ell`] — the blocked-ELL × N:M hybrid SDDMM, softmax and SpMM.
//! * [`rowtile`] — the row-tile attention driver: QK → prune → softmax → AV
//!   on one 16-row tile at a time, bit-identical to (and charged as) the
//!   three staged launches, without their whole-stack intermediates.
//! * [`topk`] — explicit top-k row selection + CSR encoding, charged
//!   honestly (it is the overhead §4.3 says sinks the top-k baseline).
//! * [`ctx`] — the [`GpuCtx`] bundle of device config, kernel timeline and
//!   memory tracker threaded through every kernel.
//! * [`simd`] — explicit-SIMD microkernel backends (AVX2 / AVX-512, and the
//!   scalar reference every other target runs) with one-time runtime
//!   dispatch; every hot loop above routes through it.
//!
//! [`PagedPanel`]: dfss_tensor::PagedPanel
//! [`NmPattern::compress_groups_into`]: dfss_nmsparse::NmPattern::compress_groups_into

pub mod batched;
pub mod ctx;
pub(crate) mod decode;
pub mod ell;
pub mod gemm;
pub mod micro;
pub mod rowtile;
pub mod sddmm;
pub mod simd;
pub mod softmax;
pub mod spmm;
pub mod topk;

pub use ctx::GpuCtx;
