//! # dfss-serve — the async attention serving layer
//!
//! The ROADMAP's heavy-traffic story, in two kinds of traffic:
//!
//! * **Prefill** — independent `(Q, K, V)` requests arrive at unpredictable
//!   times; each becomes a resumable **job** that the continuous scheduler
//!   ([`sched`]) plans in chunks of at most
//!   [`SchedPolicy::prefill_chunk`] rows — a whole job, or a row slice of
//!   one interleaved with decode. Every planned chunk runs as its own
//!   [`AttentionEngine::forward_chunk`], in plan order, bit-identical to
//!   those rows of a solo `forward` — the paper's "drop-in module at
//!   inference time" claim (§5.2).
//! * **Decode** — the traffic that dominates production inference: each
//!   open **session** owns an append-only KV page table ([`PagedKvCache`])
//!   over one server-owned block pool ([`KvPool`]), and every
//!   [`DecodeRequest`] carries one new query row to attend over the
//!   session's whole history. Decode steps from *different* sessions
//!   coalesce into **one ragged launch per op**
//!   ([`AttentionEngine::flush_decode`]) even though their cached lengths
//!   differ — outputs stay bit-identical to serving each stream alone.
//!
//! KV memory is **governed**: [`KvConfig`] sets a byte budget over the
//! pool, admission reserves pages *before* a row is accepted, and
//! exhaustion surfaces as typed back-pressure
//! ([`SessionError::KvBudgetExhausted`]) — or, with
//! [`KvConfig::evict_idle`], as deterministic LRU eviction of idle
//! sessions ([`SessionError::Evicted`] for the victim's later steps) —
//! never as unbounded growth or a panic.
//!
//! Failures are **isolated and typed**: every launch runs under
//! `catch_unwind`, so a panicking kernel fails only its own launch's
//! requests ([`ServeError::BatchPanicked`]) while the worker recovers the
//! engine and keeps serving, and the registry mutex heals from poisoning
//! by rebuilding its governor counters from the per-session metadata.
//! Requests may carry deadlines (expired ones are shed *before* packing
//! with [`ServeError::DeadlineExceeded`]), admission is depth-bounded
//! under [`BatchPolicy::max_queue_depth`] (typed `Overloaded`, paired with
//! [`retry::with_backoff`]), and a seeded [`FaultPlan`]
//! ([`AttentionServer::start_with_faults`]) injects kernel panics, launch
//! slowness, and forced pool exhaustion at chosen operation indices for
//! deterministic chaos testing — zero cost when absent.
//!
//! Architecture (no tokio — one plain worker thread per server, running
//! the one serving loop; the launches themselves fan out on the vendored
//! rayon-compat worker pool like every other kernel):
//!
//! ```text
//!  clients ── submit(Q,K,V) ───────────► admission (typed RequestError)
//!          ── open / append / close ───► session registry + KV caches
//!          ── submit_decode(q_row) ────► admission (session + width checks)
//!                                   │ mpsc
//!                                   ▼
//!                            worker thread
//!            drain the channel, then one scheduler iteration:
//!            every ready decode step + planned prefill chunks
//!                                   │
//!                                   ▼
//!         engine.flush_decode(steps)       all ready decode steps
//!         engine.forward_chunk(chunk)      each planned chunk, in plan
//!                                          order
//!                                   │ one (ragged) launch per op
//!                                   ▼
//!              ResponseHandle / DecodeHandle ::wait() on each client
//! ```
//!
//! Every response carries the request's full latency breakdown (queue wait,
//! service wall-clock, end-to-end) plus the simulated-device latency of its
//! launches, so the load generator in `dfss-bench` can report host tail
//! latency against offered load — and tokens/sec against concurrent decode
//! streams.
//!
//! [`AttentionEngine::forward_chunk`]: dfss_core::engine::AttentionEngine::forward_chunk
//! [`AttentionEngine::flush_decode`]: dfss_core::engine::AttentionEngine::flush_decode
//!
//! ```
//! use dfss_serve::{AttentionServer, BatchPolicy, DecodeRequest};
//! use dfss_core::dfss::DfssAttention;
//! use dfss_core::mechanism::Attention;
//! use dfss_nmsparse::NmPattern;
//! use std::sync::Arc;
//!
//! let mech: Arc<dyn Attention<f32> + Send + Sync> =
//!     Arc::new(DfssAttention::new(NmPattern::P1_2));
//! let server = AttentionServer::start(mech, BatchPolicy::default());
//!
//! // A decode session: open, prime the cache, then decode step by step.
//! let session = server.open_session(16, 16).unwrap();
//! for t in 0..5 {
//!     let row: Vec<f32> = (0..16).map(|i| (t * 16 + i) as f32 * 0.01).collect();
//!     server.append(session, row.clone(), row).unwrap();
//! }
//! let q_row: Vec<f32> = (0..16).map(|i| i as f32 * 0.1).collect();
//! let handle = server.submit_decode(DecodeRequest { session, q_row }).unwrap();
//! let served = handle.wait().unwrap();
//! assert_eq!(served.output.shape(), (1, 16));
//! assert_eq!(served.cached_len, 5);
//! server.close_session(session).unwrap();
//! let stats = server.shutdown();
//! assert_eq!(stats.decode_steps, 1);
//! ```
#![deny(missing_docs)]

mod faults;
pub mod http;
mod kv;
mod num;
pub mod retry;
pub mod sched;
mod server;
pub mod wire;

pub use dfss_core::engine::KvRows;
pub use dfss_core::mechanism::RequestError;
pub use faults::{FaultKind, FaultPlan};
pub use kv::{
    pages_for_growth, KvConfig, KvDtype, KvError, KvPool, PageId, PagedKvCache, SessionId,
};
pub use sched::{ChunkPlan, IterationPlan, SchedEvent, SchedPolicy, SchedTrace, Scheduler};
pub use server::{
    AttentionServer, DecodeHandle, Handle, QueueDepths, ResponseHandle, Served, ServedDecode,
    ShapeKey, Ticket,
};

use std::time::Duration;

/// How deep the worker's queue may grow.
///
/// **Load shedding**: with [`max_queue_depth`](Self::max_queue_depth) set,
/// admission counts unresolved requests — a prefill from admission until it
/// finishes or fails, on every path, and a decode step until its launch
/// begins — and refuses submissions beyond the bound with typed
/// [`ServeError::Overloaded`] / [`SessionError::Overloaded`]. Queue memory
/// stays bounded at any offered load, and callers get an immediate,
/// retryable signal ([`retry::with_backoff`]) instead of an ever-growing
/// tail latency. The default admits without bound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Refuse new submissions while this many requests (prefill + decode)
    /// are unresolved. `None` (the default) admits without bound.
    pub max_queue_depth: Option<usize>,
}

impl BatchPolicy {
    /// The [`default`](Self::default) policy. Both arguments are ignored:
    /// every planned prefill chunk runs as its own launch. A compatibility
    /// shim for existing callers, not a knob.
    pub fn batched(_max_batch: usize, _max_delay: Duration) -> BatchPolicy {
        BatchPolicy::default()
    }

    /// Bound the admission queue: submissions beyond `depth` unresolved
    /// requests are shed with a typed `Overloaded` error.
    pub fn with_queue_depth(mut self, depth: usize) -> BatchPolicy {
        assert!(depth >= 1, "max_queue_depth must be at least 1");
        self.max_queue_depth = Some(depth);
        self
    }
}

/// A decode-step request: one new query row to attend over everything the
/// session has cached so far.
#[derive(Clone, Debug, PartialEq)]
pub struct DecodeRequest<T> {
    /// The open session whose KV cache the step attends over.
    pub session: SessionId,
    /// The new query row (`d` elements, the session's key width).
    pub q_row: Vec<T>,
}

/// Why a session operation was refused at the front door.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The session was never opened, or was already closed.
    UnknownSession(SessionId),
    /// The operation's shapes failed validation against the session.
    Rejected(RequestError),
    /// The KV byte budget cannot back the operation: the pool has no free
    /// page left and (under `evict_idle`) no idle session to evict. The
    /// caller's session is intact — retry after other sessions close.
    KvBudgetExhausted {
        /// Pages the operation needed.
        need: usize,
        /// Pages the pool could still hand out.
        free: usize,
    },
    /// The session's KV pages were reclaimed by the LRU eviction policy;
    /// its history is gone and only `close_session` is still valid.
    Evicted(SessionId),
    /// The admission queue is at [`BatchPolicy::max_queue_depth`]; the
    /// step was shed before queueing. Transient — retry after backoff
    /// ([`retry::with_backoff`]).
    Overloaded {
        /// Unlaunched requests queued when the step was refused.
        depth: usize,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownSession(id) => write!(f, "unknown {id}"),
            SessionError::Rejected(e) => write!(f, "session operation rejected: {e}"),
            SessionError::KvBudgetExhausted { need, free } => write!(
                f,
                "kv budget exhausted: operation needs {need} pages, {free} free"
            ),
            SessionError::Evicted(id) => write!(f, "{id} was evicted under kv pressure"),
            SessionError::Overloaded { depth } => {
                write!(f, "queue at max depth ({depth} unlaunched requests)")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Why a request failed or its response never arrived. Every variant is a
/// *typed* outcome: under faults, overload, or shutdown a caller always
/// gets one of these — never a hang, never a propagated panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The server is gone (shut down, or the worker thread died) and the
    /// request will never be served.
    ServerGone,
    /// The request failed validation with a typed error — at the front
    /// door, or at launch if the mechanism's constraints diverged after
    /// admission (kept typed so the worker never panics on it).
    Rejected(RequestError),
    /// The launch this request was packed into panicked. Only that
    /// launch's own requests fail — the server recovers the engine and
    /// keeps serving. `payload` is the panic message.
    BatchPanicked {
        /// The panic's message (downcast from the unwind payload).
        payload: String,
    },
    /// The request's deadline expired while it waited in the queue; it was
    /// shed before packing and never launched.
    DeadlineExceeded {
        /// How long the request had been queued when it was shed.
        queued_for: Duration,
    },
    /// The admission queue is at [`BatchPolicy::max_queue_depth`]; the
    /// request was shed at submission. Transient — retry after backoff
    /// ([`retry::with_backoff`]).
    Overloaded {
        /// Unlaunched requests queued when the submission was refused.
        depth: usize,
    },
    /// A `wait_timeout` elapsed before the response arrived. The request
    /// is still in flight — wait again or abandon the handle.
    WaitTimeout,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ServerGone => write!(f, "server gone before serving the request"),
            ServeError::Rejected(e) => write!(f, "request rejected: {e}"),
            ServeError::BatchPanicked { payload } => {
                write!(f, "the request's batch panicked: {payload}")
            }
            ServeError::DeadlineExceeded { queued_for } => {
                write!(f, "deadline exceeded after {queued_for:?} in queue")
            }
            ServeError::Overloaded { depth } => {
                write!(f, "queue at max depth ({depth} unlaunched requests)")
            }
            ServeError::WaitTimeout => write!(f, "timed out waiting for the response"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Aggregate counters over a server's lifetime, returned by
/// [`AttentionServer::shutdown`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Prefill requests served to completion.
    pub served: u64,
    /// Requests rejected at admission with a typed error.
    pub rejected: u64,
    /// Decode steps served to completion.
    pub decode_steps: u64,
    /// Ragged decode launches executed (closed decode batches).
    pub decode_batches: u64,
    /// Largest decode batch (concurrent streams in one ragged launch)
    /// observed.
    pub max_decode_batch: usize,
    /// Sessions opened over the server's lifetime.
    pub sessions_opened: u64,
    /// Sessions closed over the server's lifetime.
    pub sessions_closed: u64,
    /// KV-cache rows appended across all sessions (decode appends +
    /// prefill-priming rows).
    pub kv_rows_appended: u64,
    /// Peak concurrent KV-cache bytes across all open sessions (logical
    /// row bytes, not page-granular pool bytes).
    pub kv_bytes_peak: u64,
    /// KV pool pages handed to sessions over the server's lifetime.
    pub kv_pages_allocated: u64,
    /// KV pool pages returned (session close + eviction) over the
    /// server's lifetime.
    pub kv_pages_freed: u64,
    /// Idle sessions evicted by the LRU policy to make room.
    pub evictions: u64,
    /// Session operations refused with [`SessionError::KvBudgetExhausted`].
    pub admission_rejections: u64,
    /// Launches (a prefill chunk or a ragged decode flush) that panicked
    /// and were isolated: their requests failed typed, the worker kept
    /// serving.
    pub batch_panics: u64,
    /// Requests shed with [`ServeError::DeadlineExceeded`] before packing.
    pub deadline_sheds: u64,
    /// Submissions refused with a typed `Overloaded` error at admission
    /// (prefill and decode together).
    pub overload_sheds: u64,
    /// Total simulated-device latency across all launches (prefill +
    /// decode).
    pub total_sim_latency_s: f64,
    /// Connections the HTTP front door accepted (zero for servers used
    /// as an in-process library). Counts every accepted socket,
    /// including ones later shed or closed without a complete request.
    pub http_connections_accepted: u64,
    /// Connections refused with `503 Retry-After` because the hard
    /// connection cap was reached. (Connections arriving after drain
    /// begins are dropped before processing and counted nowhere.)
    pub http_connections_shed: u64,
    /// Requests answered `400` because the bytes were not a well-formed
    /// HTTP request (the malformed-input counter of the wire layer).
    pub http_parse_rejects: u64,
    /// Connections force-closed because they outlived the graceful
    /// drain deadline at shutdown.
    pub drain_force_closed: u64,
    /// Scheduler iterations executed.
    pub sched_iterations: u64,
    /// Prefill chunks executed, one launch each. A job planned whole is
    /// one chunk; a longer job contributes at least
    /// `ceil(rows / prefill_chunk)`.
    pub prefill_chunks: u64,
}

impl ServeStats {
    /// Mean concurrent streams per ragged decode launch.
    pub fn mean_decode_batch(&self) -> f64 {
        if self.decode_batches == 0 {
            0.0
        } else {
            self.decode_steps as f64 / self.decode_batches as f64
        }
    }
}
