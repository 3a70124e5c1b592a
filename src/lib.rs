//! # dfss — Dynamic N:M Fine-grained Structured Sparse Attention
//!
//! Facade crate re-exporting the full reproduction of the PPoPP'23 paper
//! "Dynamic N:M Fine-grained Structured Sparse Attention Mechanism".
//!
//! ```
//! use dfss::prelude::*;
//!
//! let mut rng = Rng::new(0);
//! let q = Matrix::<f32>::random_normal(128, 64, 0.0, 1.0, &mut rng);
//! let k = Matrix::<f32>::random_normal(128, 64, 0.0, 1.0, &mut rng);
//! let v = Matrix::<f32>::random_normal(128, 64, 0.0, 1.0, &mut rng);
//!
//! let mut ctx = GpuCtx::a100();
//! // The drop-in replacement: FullAttention -> DfssAttention.
//! let out = DfssAttention::for_dtype::<f32>().forward(&mut ctx, &q, &k, &v);
//! assert_eq!(out.shape(), (128, 64));
//! ```

pub use dfss_core as core;
pub use dfss_gpusim as gpusim;
pub use dfss_kernels as kernels;
pub use dfss_nmsparse as nmsparse;
pub use dfss_serve as serve;
pub use dfss_tasks as tasks;
pub use dfss_tensor as tensor;
pub use dfss_transformer as transformer;

/// The items most users need.
pub mod prelude {
    pub use dfss_core::dfss::DfssAttention;
    pub use dfss_core::engine::{AttentionEngine, DecodeStep, KvRows};
    pub use dfss_core::full::FullAttention;
    pub use dfss_core::mechanism::{Attention, RequestError};
    pub use dfss_kernels::GpuCtx;
    pub use dfss_nmsparse::{NmCompressed, NmPattern, NmRagged};
    pub use dfss_serve::http::{HttpClient, HttpClientError, HttpConfig, HttpServer};
    pub use dfss_serve::retry::{with_backoff, Backoff, Transient};
    pub use dfss_serve::wire::{Json as WireJson, WireError, WireLimits};
    pub use dfss_serve::{
        AttentionServer, BatchPolicy, DecodeRequest, FaultKind, FaultPlan, KvConfig, KvPool,
        PagedKvCache, SchedPolicy, SchedTrace, Scheduler, ServeError, SessionId,
    };
    pub use dfss_tensor::{BatchedMatrix, Bf16, Matrix, PagedPanel, RaggedBatch, Rng, Scalar};
    pub use dfss_transformer::{AttnKind, Encoder, EncoderConfig, Precision};
}
