//! # dfss-core — the Dfss attention mechanism, its baselines, and the
//! paper's theory
//!
//! The primary contribution of the paper lives in [`dfss::DfssAttention`]:
//! a drop-in replacement for full attention that dynamically prunes the
//! score matrix to N:M fine-grained structured sparsity inside the QKᵀ GEMM
//! epilogue, softmaxes the compressed nonzeros, and multiplies by V on the
//! (simulated) sparse tensor core.
//!
//! Everything it is compared against in the evaluation is here too:
//!
//! | module | mechanisms | paper role |
//! |---|---|---|
//! | [`full`] | dense attention | the baseline of every figure |
//! | [`dfss`] | Dfss 1:2 / 2:4 / generic N:M (prune fused into the QKᵀ epilogue) | §3 |
//! | [`sparse_baselines`] | explicit top-k, fixed (truncated columns) | §4.3–4.4, Fig 11 |
//! | [`linear_baselines`] | Performer (FAVOR+), Nyströmformer (± Dfss) | Fig 5, A.5, A.7 |
//! | [`cluster_baselines`] | Reformer (LSH), Routing (k-means), Sinkhorn (block matching) | Fig 5 |
//! | [`quality`] | the `Q^p` lottery-ticket quality metric (Def 4.1) | Fig 12, 13 |
//! | [`theory`] | Props 4.2/4.3, Eqs 5/6/33, the Performer MSE bounds (Eqs 30/31) | §4, A.2–A.5 |
//! | [`visualize`] | ASCII/CSV attention heat maps | Fig 19 |
//! | [`engine`] | [`AttentionEngine`]: one prefill entry (`forward_chunk`: a whole request, or a row slice of one) and ragged decode batching over any mechanism | §5.2 serving, A.1.2 |
//!
//! Table 4's Local, BigBird and Linformer rows train the transformer's own
//! masked or projected attention (`dfss_transformer::AttnKind`). The
//! paper's blocked-ELL hybrid (A.1.2) and Figure 18's combinations are not
//! built here (see [`dfss`]).

pub mod cluster_baselines;
pub mod dfss;
pub mod engine;
pub mod full;
pub mod linear_baselines;
pub mod mechanism;
pub mod model;
pub mod quality;
pub mod sparse_baselines;
pub mod theory;
pub mod visualize;

pub use dfss::DfssAttention;
pub use engine::AttentionEngine;
pub use full::FullAttention;
pub use mechanism::{Attention, RequestError};
