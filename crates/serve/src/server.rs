//! The attention server: admission front door + batcher thread.
//!
//! Prefill requests flow through the shape-bucketed queue exactly as
//! before; decode traffic adds a session registry (synchronous admission
//! checks on the caller's thread), per-session [`PagedKvCache`] page
//! tables over one batcher-owned [`KvPool`], and a decode queue that
//! coalesces steps from different sessions into one ragged launch per op.
//!
//! **Decode determinism**: a decode step attends over exactly the rows its
//! session had appended before the step was submitted. The batcher
//! enforces this by flushing the decode queue before applying an append or
//! close for a session that already has a queued step — cache mutations
//! can never race ahead of a waiting decode.
//!
//! **Memory governance**: the registry mirrors every session's page count,
//! so admission *reserves* pool pages synchronously before a row is
//! accepted. Reservation failure surfaces as typed back-pressure
//! ([`SessionError::KvBudgetExhausted`]) or, under
//! [`KvConfig::evict_idle`], evicts idle sessions in deterministic LRU
//! order (oldest `last_used`, ties to the smallest id) until the
//! reservation fits. Every session-mutating message is sent **while the
//! registry lock is held**, so the batcher observes mutations in the exact
//! order the accounting admitted them — its pool allocation can therefore
//! never fail, and the budget is enforced without the batcher ever
//! blocking a client.

use crate::faults::{FaultArm, FaultKind, FaultPlan, FaultyAttention};
use crate::kv::{KvConfig, KvDtype, KvPool, PagedKvCache, SessionId};
use crate::queue::{Bucket, BucketQueue, QueuedRequest};
use crate::sched::{ChunkPlan, SchedPolicy, SchedTrace, Scheduler};
use crate::{BatchPolicy, DecodeRequest, ServeError, ServeStats, SessionError};
use dfss_core::engine::{AttentionEngine, DecodeStep, ShapeKey, Ticket};
use dfss_core::mechanism::{try_check_qkv, Attention, RequestError};
use dfss_kernels::GpuCtx;
use dfss_tensor::{Bf16, Matrix, Scalar};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One served prefill request, with its latency breakdown.
#[derive(Debug)]
pub struct Served<T: Scalar> {
    /// The attention output, bit-identical to a solo `forward` call.
    pub output: Matrix<T>,
    /// Engine ticket (monotone in launch order across the server's life).
    pub ticket: Ticket,
    /// Shape bucket the request was batched in.
    pub bucket: ShapeKey,
    /// Requests that shared this request's batched launch.
    pub batch_size: usize,
    /// Admission → bucket close (time spent waiting for batch-mates).
    pub queue_wait: std::time::Duration,
    /// Bucket close → outputs ready (host wall-clock of the launches).
    pub service: std::time::Duration,
    /// Admission → response (end-to-end host latency).
    pub latency: std::time::Duration,
    /// Simulated-device latency of the request's whole batch (one launch
    /// per op; every request in the batch waits for the full launch).
    pub sim_latency_s: f64,
}

/// One served decode step, with its latency breakdown.
#[derive(Debug)]
pub struct ServedDecode<T: Scalar> {
    /// The `1 × d_v` output row, bit-identical to a solo decode of the
    /// session's cache.
    pub output: Matrix<T>,
    /// Engine ticket (shared sequence with prefill tickets).
    pub ticket: Ticket,
    /// The session the step decoded.
    pub session: SessionId,
    /// The session's cached length the step attended over.
    pub cached_len: usize,
    /// Concurrent streams that shared the step's ragged launch.
    pub batch_size: usize,
    /// Admission → decode-queue close.
    pub queue_wait: std::time::Duration,
    /// Queue close → outputs ready (host wall-clock of the launches).
    pub service: std::time::Duration,
    /// Admission → response (end-to-end host latency).
    pub latency: std::time::Duration,
    /// Simulated-device latency of the step's whole ragged launch.
    pub sim_latency_s: f64,
}

/// Client-side handle for one submitted prefill request.
#[derive(Debug)]
pub struct ResponseHandle<T: Scalar> {
    rx: Receiver<Result<Served<T>, ServeError>>,
}

impl<T: Scalar> ResponseHandle<T> {
    /// Block until the request is served, or fail typed: a dead batcher
    /// (crash or shutdown before service) surfaces as
    /// [`ServeError::ServerGone`], never a hang or a propagated panic.
    pub fn wait(self) -> Result<Served<T>, ServeError> {
        match self.rx.recv() {
            Ok(res) => res,
            Err(_) => Err(ServeError::ServerGone),
        }
    }

    /// Like [`wait`](Self::wait) but bounded: returns
    /// [`ServeError::WaitTimeout`] if the response has not arrived within
    /// `timeout`. Takes `&self`, so a timed-out handle can be waited
    /// again (the request is still in flight).
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Served<T>, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(res) => res,
            Err(RecvTimeoutError::Timeout) => Err(ServeError::WaitTimeout),
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::ServerGone),
        }
    }
}

/// Client-side handle for one submitted decode step.
#[derive(Debug)]
pub struct DecodeHandle<T: Scalar> {
    rx: Receiver<Result<ServedDecode<T>, ServeError>>,
}

impl<T: Scalar> DecodeHandle<T> {
    /// Block until the step is served, or fail typed: a dead batcher
    /// surfaces as [`ServeError::ServerGone`], never a hang.
    pub fn wait(self) -> Result<ServedDecode<T>, ServeError> {
        match self.rx.recv() {
            Ok(res) => res,
            Err(_) => Err(ServeError::ServerGone),
        }
    }

    /// Like [`wait`](Self::wait) but bounded: returns
    /// [`ServeError::WaitTimeout`] if the response has not arrived within
    /// `timeout`. Takes `&self`, so a timed-out handle can be waited
    /// again.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<ServedDecode<T>, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(res) => res,
            Err(RecvTimeoutError::Timeout) => Err(ServeError::WaitTimeout),
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::ServerGone),
        }
    }
}

type Reply<T> = SyncSender<Result<Served<T>, ServeError>>;
type DecodeReply<T> = SyncSender<Result<ServedDecode<T>, ServeError>>;

/// Synchronous admission view of one session (the caches themselves live
/// on the batcher thread; the registry mirrors their geometry exactly).
struct SessionMeta {
    d: usize,
    d_v: usize,
    len: usize,
    rows_per_page_k: usize,
    rows_per_page_v: usize,
    /// Pool pages this session holds (K + V tables).
    pages: usize,
    /// Logical bytes this session's cached rows occupy — the per-session
    /// term of the governor's `kv_bytes` sum, kept here so a poisoned
    /// registry can rebuild its aggregates from the sessions alone.
    bytes: u64,
    /// Logical LRU timestamp — the registry clock at the session's last
    /// append/extend/decode admission.
    last_used: u64,
    /// Decode steps admitted but not yet served; an inflight session is
    /// never an eviction victim (its queued steps must see their rows).
    inflight: usize,
    /// Whether the LRU policy reclaimed this session's pages.
    evicted: bool,
}

/// The shared admission state: session metadata plus the KV governor —
/// a synchronous mirror of the batcher's pool occupancy that lets the
/// front door reserve pages (and so apply back-pressure) without a
/// round-trip to the batcher thread.
struct Registry {
    sessions: HashMap<u64, SessionMeta>,
    /// Pool pages the budget admits in total.
    capacity_pages: usize,
    /// Pages reserved by open sessions (== the pool's allocated count
    /// once the batcher has drained the channel).
    pages_used: usize,
    /// Logical bytes cached across open sessions.
    kv_bytes: u64,
    kv_bytes_peak: u64,
    kv_pages_allocated: u64,
    kv_pages_freed: u64,
    evictions: u64,
    admission_rejections: u64,
    /// LRU clock, bumped on every session touch.
    clock: u64,
}

impl Registry {
    fn new(capacity_pages: usize) -> Registry {
        Registry {
            sessions: HashMap::new(),
            capacity_pages,
            pages_used: 0,
            kv_bytes: 0,
            kv_bytes_peak: 0,
            kv_pages_allocated: 0,
            kv_pages_freed: 0,
            evictions: 0,
            admission_rejections: 0,
            clock: 0,
        }
    }

    fn free_pages(&self) -> usize {
        self.capacity_pages - self.pages_used
    }

    fn touch(&mut self, id: u64) {
        let t = self.clock;
        self.clock += 1;
        if let Some(meta) = self.sessions.get_mut(&id) {
            meta.last_used = t;
        }
    }

    /// The deterministic LRU eviction victim: among sessions other than
    /// `requester` that are not evicted, hold pages, and have no decode
    /// step in flight, the least recently used (ties to the smallest id).
    fn pick_victim(&self, requester: u64) -> Option<u64> {
        self.sessions
            .iter()
            .filter(|(&id, m)| id != requester && !m.evicted && m.pages > 0 && m.inflight == 0)
            .min_by_key(|(&id, m)| (m.last_used, id))
            .map(|(&id, _)| id)
    }

    /// Pages held by sessions `pick_victim` could reclaim for `requester`.
    fn evictable_pages(&self, requester: u64) -> usize {
        self.sessions
            .iter()
            .filter(|(&id, m)| id != requester && !m.evicted && m.pages > 0 && m.inflight == 0)
            .map(|(_, m)| m.pages)
            .sum()
    }

    /// Rebuild the governor aggregates (`pages_used`, `kv_bytes`) from the
    /// per-session metadata — the recovery step after a thread panicked
    /// while holding the registry lock. A panicking mutation can leave the
    /// aggregates mid-update, but the per-session rows it had not reached
    /// are still exact, so summing them restores a consistent (and safe:
    /// reservation-side) view. Monotone lifetime counters
    /// (`kv_pages_allocated`/`freed`, peaks) are left as recorded.
    fn restore_invariants(&mut self) {
        self.pages_used = self.sessions.values().map(|m| m.pages).sum();
        self.kv_bytes = self.sessions.values().map(|m| m.bytes).sum();
        self.kv_bytes_peak = self.kv_bytes_peak.max(self.kv_bytes);
    }
}

/// Lock the registry, healing a poisoned mutex instead of propagating the
/// panic: the guard is taken out of the `PoisonError` and the governor's
/// invariants are restored from the per-session metadata. One panicked
/// thread (a client killed mid-call, a batcher fault) therefore cannot
/// brick every later API call — the poison-recovery half of the server's
/// panic-isolation story.
fn lock_healed(registry: &Mutex<Registry>) -> MutexGuard<'_, Registry> {
    match registry.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            let mut guard = poisoned.into_inner();
            guard.restore_invariants();
            guard
        }
    }
}

/// Lock the shared lifetime counters, healing poison. The serve paths
/// catch panics before they can unwind through an increment, but the
/// counters are observable live (`/metrics`), so a reader must never be
/// brickable by a writer's death either.
fn lock_stats(stats: &Mutex<ServeStats>) -> MutexGuard<'_, ServeStats> {
    match stats.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A live snapshot of the batcher's queues — what `GET /metrics` reports
/// as per-bucket depth gauges. Refreshed by the batcher once per loop
/// iteration, so it trails the true queue by at most one message drain.
#[derive(Clone, Debug, Default)]
pub struct QueueDepths {
    /// Open prefill buckets: shape key → requests waiting in it.
    pub prefill: Vec<(ShapeKey, usize)>,
    /// Decode steps queued for the next ragged launch.
    pub decode: usize,
}

enum Msg<T: Scalar> {
    Request(QueuedRequest<T, Reply<T>>),
    Open {
        id: u64,
        d: usize,
        d_v: usize,
    },
    Append {
        id: u64,
        k_row: Vec<T>,
        v_row: Vec<T>,
    },
    Extend {
        id: u64,
        k: Matrix<T>,
        v: Matrix<T>,
    },
    Close {
        id: u64,
    },
    /// Reclaim the session's pages (registry already marked it evicted).
    Evict {
        id: u64,
    },
    Decode {
        id: u64,
        q_row: Vec<T>,
        submitted: Instant,
        deadline: Option<Instant>,
        fault: Option<FaultKind>,
        reply: DecodeReply<T>,
    },
    Shutdown,
}

/// An async attention server over one mechanism.
///
/// `submit` is the prefill admission front door: it validates the triple
/// against the mechanism's shape constraints on the caller's thread (typed
/// [`RequestError`], never a panic) and enqueues it to the batcher thread,
/// returning a [`ResponseHandle`] immediately. The batcher coalesces
/// same-shape requests per [`BatchPolicy`] and serves each closed bucket as
/// one [`AttentionEngine::flush`] — a single batched launch per op.
///
/// `open_session` / `append` / `submit_decode` / `close_session` are the
/// decode front door: sessions own [`PagedKvCache`] page tables over one
/// batcher-owned [`KvPool`], admission checks (shapes **and** the KV page
/// budget) run synchronously against a shared registry, and queued decode
/// steps close into one [`AttentionEngine::flush_decode`] per batch — a
/// single **ragged** launch per op across all streams, whatever their
/// cached lengths.
pub struct AttentionServer<T: Scalar> {
    mech: Arc<dyn Attention<T> + Send + Sync>,
    kv: KvConfig,
    policy: BatchPolicy,
    tx: Sender<Msg<T>>,
    rejected: Arc<AtomicU64>,
    overload_sheds: AtomicU64,
    next_session: AtomicU64,
    /// Front-door operation ordinal — the key space of [`FaultPlan`].
    next_op: AtomicU64,
    faults: Option<Arc<FaultPlan>>,
    /// Requests enqueued but not yet launched (prefill + decode), the
    /// quantity [`BatchPolicy::max_queue_depth`] bounds.
    depth: Arc<AtomicU64>,
    registry: Arc<Mutex<Registry>>,
    /// Lifetime counters, shared with the batcher so observers can read
    /// them live ([`stats_snapshot`](Self::stats_snapshot)) instead of
    /// only at shutdown.
    stats: Arc<Mutex<ServeStats>>,
    /// Live queue-depth snapshot, refreshed by the batcher each loop.
    depths: Arc<Mutex<QueueDepths>>,
    /// The continuous scheduler's replayable event log (empty under the
    /// classic flush-cadence batcher), published incrementally by the
    /// worker once per loop pass.
    sched_trace: Arc<Mutex<SchedTrace>>,
    worker: Option<JoinHandle<()>>,
}

impl<T: Scalar> AttentionServer<T> {
    /// Start a server on the paper's evaluation device (A100 simulation)
    /// with an unbounded KV budget.
    pub fn start(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
    ) -> AttentionServer<T> {
        AttentionServer::start_with_ctx(mech, policy, GpuCtx::a100())
    }

    /// Start a server with an explicit KV geometry and byte budget (A100
    /// simulation context).
    pub fn start_with_kv(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
        kv: KvConfig,
    ) -> AttentionServer<T> {
        AttentionServer::start_inner(mech, policy, GpuCtx::a100(), kv, None)
    }

    /// Start a server whose engine runs on a caller-provided context
    /// (device config and exec mode carry over).
    pub fn start_with_ctx(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
        ctx: GpuCtx,
    ) -> AttentionServer<T> {
        AttentionServer::start_with_ctx_kv(mech, policy, ctx, KvConfig::default())
    }

    /// Start a server with both a caller-provided context and KV config.
    pub fn start_with_ctx_kv(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
        ctx: GpuCtx,
        kv: KvConfig,
    ) -> AttentionServer<T> {
        AttentionServer::start_inner(mech, policy, ctx, kv, None)
    }

    /// Start a server with a deterministic [`FaultPlan`] (chaos testing):
    /// the plan's faults fire at the scheduled front-door operation
    /// indices — see [`FaultKind`] for what each does. A100 context,
    /// unbounded KV budget.
    pub fn start_with_faults(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
        faults: FaultPlan,
    ) -> AttentionServer<T> {
        AttentionServer::start_inner(
            mech,
            policy,
            GpuCtx::a100(),
            KvConfig::default(),
            Some(faults),
        )
    }

    /// [`start_with_faults`](Self::start_with_faults) with an explicit KV
    /// geometry and budget.
    pub fn start_with_kv_faults(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
        kv: KvConfig,
        faults: FaultPlan,
    ) -> AttentionServer<T> {
        AttentionServer::start_inner(mech, policy, GpuCtx::a100(), kv, Some(faults))
    }

    /// Start a **continuous batching** server: instead of the separate
    /// prefill/decode flush cadence, one admission loop packs — every
    /// scheduler iteration — all ready decode steps together with chunked
    /// prefill work (`SchedPolicy::prefill_chunk`-row slices, resumable
    /// across iterations) under `SchedPolicy::iter_budget_rows`. No decode
    /// step waits behind a whole cold prefill; no prefill starves under
    /// decode-heavy load. A100 context, unbounded KV budget.
    pub fn start_continuous(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
        sched: SchedPolicy,
    ) -> AttentionServer<T> {
        AttentionServer::spawn(
            mech,
            policy,
            GpuCtx::a100(),
            KvConfig::default(),
            None,
            Some(sched),
        )
    }

    /// [`start_continuous`](Self::start_continuous) with an explicit KV
    /// geometry and byte budget.
    pub fn start_continuous_with_kv(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
        sched: SchedPolicy,
        kv: KvConfig,
    ) -> AttentionServer<T> {
        AttentionServer::spawn(mech, policy, GpuCtx::a100(), kv, None, Some(sched))
    }

    /// [`start_continuous`](Self::start_continuous) with a KV config and a
    /// deterministic [`FaultPlan`] — the chaos harness for the continuous
    /// path.
    pub fn start_continuous_with_kv_faults(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
        sched: SchedPolicy,
        kv: KvConfig,
        faults: FaultPlan,
    ) -> AttentionServer<T> {
        AttentionServer::spawn(mech, policy, GpuCtx::a100(), kv, Some(faults), Some(sched))
    }

    fn start_inner(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
        ctx: GpuCtx,
        kv: KvConfig,
        faults: Option<FaultPlan>,
    ) -> AttentionServer<T> {
        AttentionServer::spawn(mech, policy, ctx, kv, faults, None)
    }

    fn spawn(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
        ctx: GpuCtx,
        kv: KvConfig,
        faults: Option<FaultPlan>,
        sched: Option<SchedPolicy>,
    ) -> AttentionServer<T> {
        let (tx, rx) = mpsc::channel::<Msg<T>>();
        // The governed capacity is the pool's physical capacity at the
        // *stored* element width — a bf16 store doubles it over f32
        // compute for the same byte budget.
        let registry = Arc::new(Mutex::new(Registry::new(kv.storage_capacity_pages::<T>())));
        let depth = Arc::new(AtomicU64::new(0));
        let arm = Arc::new(FaultArm::default());
        // Fault injection is zero-cost when absent: without a plan the
        // engine runs the mechanism directly (no wrapper, no per-launch
        // latch check) and the front door never consults a plan.
        let worker_mech: Arc<dyn Attention<T> + Send + Sync> = if faults.is_some() {
            Arc::new(FaultyAttention {
                inner: Arc::clone(&mech),
                arm: Arc::clone(&arm),
            })
        } else {
            Arc::clone(&mech)
        };
        let stats = Arc::new(Mutex::new(ServeStats::default()));
        let depths = Arc::new(Mutex::new(QueueDepths::default()));
        let sched_trace = Arc::new(Mutex::new(SchedTrace::default()));
        let worker_registry = Arc::clone(&registry);
        let worker_depth = Arc::clone(&depth);
        let worker_stats = Arc::clone(&stats);
        let worker_depths = Arc::clone(&depths);
        let worker_trace = Arc::clone(&sched_trace);
        let worker = std::thread::Builder::new()
            .name("dfss-serve-batcher".into())
            .spawn(move || match sched {
                Some(sched) => continuous_loop(
                    worker_mech,
                    policy,
                    sched,
                    ctx,
                    kv,
                    worker_registry,
                    worker_depth,
                    worker_stats,
                    worker_depths,
                    worker_trace,
                    arm,
                    rx,
                ),
                None => batcher_loop(
                    worker_mech,
                    policy,
                    ctx,
                    kv,
                    worker_registry,
                    worker_depth,
                    worker_stats,
                    worker_depths,
                    arm,
                    rx,
                ),
            })
            .expect("spawn batcher thread");
        AttentionServer {
            mech,
            tx,
            policy,
            rejected: Arc::new(AtomicU64::new(0)),
            overload_sheds: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            next_op: AtomicU64::new(0),
            faults: faults.map(Arc::new),
            depth,
            registry,
            stats,
            depths,
            sched_trace,
            kv,
            worker: Some(worker),
        }
    }

    /// The continuous scheduler's replayable event log so far (empty for
    /// a classic flush-cadence server). Logical content only — two
    /// servers fed the same admission sequence under the same policy
    /// render byte-identical traces ([`SchedTrace::render`]).
    pub fn sched_trace(&self) -> SchedTrace {
        match self.sched_trace.lock() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// The fault scheduled for this front-door operation, consuming one
    /// operation ordinal. No-op (and no ordinal bookkeeping observable)
    /// without a plan.
    fn next_fault(&self) -> Option<FaultKind> {
        let plan = self.faults.as_ref()?;
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        plan.get(op)
    }

    /// Shed at admission when the unlaunched-request count is at the
    /// policy bound. Returns the observed depth on refusal.
    fn check_depth(&self) -> Result<(), usize> {
        if let Some(bound) = self.policy.max_queue_depth {
            let depth = self.depth.load(Ordering::SeqCst) as usize;
            if depth >= bound {
                self.overload_sheds.fetch_add(1, Ordering::Relaxed);
                return Err(depth);
            }
        }
        Ok(())
    }

    /// Requests enqueued but not yet launched (prefill + decode) — the
    /// load signal a [`crate::ShardedServer`] routes prefill by.
    pub(crate) fn depth(&self) -> u64 {
        self.depth.load(Ordering::SeqCst)
    }

    /// The server's KV geometry and budget.
    pub fn kv_config(&self) -> KvConfig {
        self.kv
    }

    /// Validate and enqueue one prefill request. Returns immediately; the
    /// output arrives on the handle. Malformed or unservable requests come
    /// back as [`ServeError::Rejected`] without reaching the queue, and a
    /// queue at [`BatchPolicy::max_queue_depth`] sheds the submission with
    /// [`ServeError::Overloaded`] (transient — see [`crate::retry`]).
    pub fn submit(
        &self,
        q: Matrix<T>,
        k: Matrix<T>,
        v: Matrix<T>,
    ) -> Result<ResponseHandle<T>, ServeError> {
        self.submit_with_deadline(q, k, v, None)
    }

    /// [`submit`](Self::submit) with a deadline: if the request is still
    /// queued (its bucket unclosed) past `deadline`, it is shed *before*
    /// packing and its handle resolves with
    /// [`ServeError::DeadlineExceeded`] — it never occupies a launch it
    /// cannot use.
    pub fn submit_with_deadline(
        &self,
        q: Matrix<T>,
        k: Matrix<T>,
        v: Matrix<T>,
        deadline: Option<Instant>,
    ) -> Result<ResponseHandle<T>, ServeError> {
        let fault = self.next_fault();
        if let Err(e) = try_check_qkv(self.mech.as_ref(), &q, &k, &v) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Rejected(e));
        }
        if let Err(depth) = self.check_depth() {
            return Err(ServeError::Overloaded { depth });
        }
        self.depth.fetch_add(1, Ordering::SeqCst);
        // Rendezvous capacity 1: the batcher never blocks sending a
        // response, clients may wait lazily.
        let (reply, rx) = mpsc::sync_channel(1);
        let msg = Msg::Request(QueuedRequest {
            q,
            k,
            v,
            submitted: Instant::now(),
            deadline,
            fault,
            reply,
        });
        // A dropped batcher surfaces as ServerGone on wait(); submission
        // itself stays infallible for valid requests.
        let _ = self.tx.send(msg);
        Ok(ResponseHandle { rx })
    }

    /// Open a decode session for keys of width `d` and values of width
    /// `d_v`. The session's KV cache starts empty; prime it with
    /// [`append`](Self::append) / [`extend`](Self::extend) before the first
    /// decode step.
    ///
    /// Admission checks that the pool could back at least the session's
    /// first position (one K page + one V page, free now or reclaimable
    /// under `evict_idle`) — a server already pinned to its budget refuses
    /// new sessions with [`SessionError::KvBudgetExhausted`] instead of
    /// accepting a stream it can never grow. Nothing is reserved until the
    /// first row arrives.
    pub fn open_session(&self, d: usize, d_v: usize) -> Result<SessionId, SessionError> {
        if d == 0 || d_v == 0 {
            return Err(SessionError::Rejected(RequestError::EmptyRequest));
        }
        if self.kv.page_elems < d || self.kv.page_elems < d_v {
            return Err(SessionError::Rejected(RequestError::DecodeShapeMismatch {
                reason: format!(
                    "kv pages hold {} elements, too small for rows of width ({d}, {d_v})",
                    self.kv.page_elems
                ),
            }));
        }
        let fault = self.next_fault();
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        let mut reg = lock_healed(&self.registry);
        let reachable = if matches!(fault, Some(FaultKind::ExhaustPool)) {
            // Injected exhaustion: admit as if the pool had nothing left.
            0
        } else {
            reg.free_pages()
                + if self.kv.evict_idle {
                    reg.evictable_pages(id)
                } else {
                    0
                }
        };
        if reachable < 2 {
            reg.admission_rejections += 1;
            return Err(SessionError::KvBudgetExhausted {
                need: 2,
                free: reachable.min(reg.free_pages()),
            });
        }
        let t = reg.clock;
        reg.clock += 1;
        reg.sessions.insert(
            id,
            SessionMeta {
                d,
                d_v,
                len: 0,
                rows_per_page_k: self.kv.rows_per_page(d),
                rows_per_page_v: self.kv.rows_per_page(d_v),
                pages: 0,
                bytes: 0,
                last_used: t,
                inflight: 0,
                evicted: false,
            },
        );
        let _ = self.tx.send(Msg::Open { id, d, d_v });
        Ok(SessionId(id))
    }

    /// Reserve `need` pool pages for `requester`, evicting idle sessions
    /// in deterministic LRU order when the policy allows. Caller holds the
    /// registry lock; eviction messages go out under that same lock so the
    /// batcher frees the victims' pages before the requester's rows land.
    fn reserve_pages(
        &self,
        reg: &mut Registry,
        requester: u64,
        need: usize,
    ) -> Result<(), SessionError> {
        while reg.free_pages() < need {
            let victim = if self.kv.evict_idle {
                reg.pick_victim(requester)
            } else {
                None
            };
            let Some(vid) = victim else {
                reg.admission_rejections += 1;
                return Err(SessionError::KvBudgetExhausted {
                    need,
                    free: reg.free_pages(),
                });
            };
            let meta = reg.sessions.get_mut(&vid).expect("victim is registered");
            let freed = meta.pages;
            let bytes = meta.bytes;
            meta.pages = 0;
            meta.len = 0;
            meta.bytes = 0;
            meta.evicted = true;
            reg.pages_used -= freed;
            reg.kv_pages_freed += freed as u64;
            reg.kv_bytes = reg.kv_bytes.saturating_sub(bytes);
            reg.evictions += 1;
            let _ = self.tx.send(Msg::Evict { id: vid });
        }
        reg.pages_used += need;
        reg.kv_pages_allocated += need as u64;
        Ok(())
    }

    /// Charge `rows` admitted positions to the session and the governor.
    /// Caller holds the registry lock and has already reserved the pages.
    /// Bytes are charged at the **stored** element width — half of
    /// `T::BYTES` under a bf16 KV store.
    fn charge_rows(&self, reg: &mut Registry, id: u64, rows: usize, pages: usize) {
        let meta = reg.sessions.get_mut(&id).expect("session is registered");
        meta.len += rows;
        meta.pages += pages;
        let bytes = (rows * (meta.d + meta.d_v) * self.kv.storage_elem_bytes::<T>()) as u64;
        meta.bytes += bytes;
        reg.kv_bytes += bytes;
        reg.kv_bytes_peak = reg.kv_bytes_peak.max(reg.kv_bytes);
        reg.touch(id);
    }

    /// Append one position (a key row and a value row) to a session's
    /// cache. Width mismatches and budget exhaustion are rejected
    /// synchronously with typed errors; the rows themselves land on the
    /// batcher thread in submission order, so a subsequent decode step
    /// always sees them.
    pub fn append(
        &self,
        session: SessionId,
        k_row: Vec<T>,
        v_row: Vec<T>,
    ) -> Result<(), SessionError> {
        {
            let fault = self.next_fault();
            let mut reg = lock_healed(&self.registry);
            let meta = reg
                .sessions
                .get(&session.0)
                .ok_or(SessionError::UnknownSession(session))?;
            if meta.evicted {
                return Err(SessionError::Evicted(session));
            }
            if k_row.len() != meta.d || v_row.len() != meta.d_v {
                return Err(SessionError::Rejected(RequestError::DecodeShapeMismatch {
                    reason: format!(
                        "append rows of width ({}, {}) into a ({}, {}) session",
                        k_row.len(),
                        v_row.len(),
                        meta.d,
                        meta.d_v
                    ),
                }));
            }
            let need = crate::kv::pages_for_growth(meta.len, 1, meta.rows_per_page_k)
                + crate::kv::pages_for_growth(meta.len, 1, meta.rows_per_page_v);
            if matches!(fault, Some(FaultKind::ExhaustPool)) {
                reg.admission_rejections += 1;
                return Err(SessionError::KvBudgetExhausted { need, free: 0 });
            }
            self.reserve_pages(&mut reg, session.0, need)?;
            self.charge_rows(&mut reg, session.0, 1, need);
            // Send under the lock: the batcher sees mutations in admission
            // order, so the pages reserved above are free when this lands.
            let _ = self.tx.send(Msg::Append {
                id: session.0,
                k_row,
                v_row,
            });
        }
        Ok(())
    }

    /// Append a block of positions at once (prefill priming): `k` is
    /// `rows × d`, `v` is `rows × d_v`. Atomic under the budget: either
    /// every page the block needs is reserved or nothing changes.
    pub fn extend(
        &self,
        session: SessionId,
        k: Matrix<T>,
        v: Matrix<T>,
    ) -> Result<(), SessionError> {
        {
            let fault = self.next_fault();
            let mut reg = lock_healed(&self.registry);
            let meta = reg
                .sessions
                .get(&session.0)
                .ok_or(SessionError::UnknownSession(session))?;
            if meta.evicted {
                return Err(SessionError::Evicted(session));
            }
            if k.cols() != meta.d || v.cols() != meta.d_v || k.rows() != v.rows() {
                return Err(SessionError::Rejected(RequestError::DecodeShapeMismatch {
                    reason: format!(
                        "extend with K {}x{} / V {}x{} into a ({}, {}) session",
                        k.rows(),
                        k.cols(),
                        v.rows(),
                        v.cols(),
                        meta.d,
                        meta.d_v
                    ),
                }));
            }
            let rows = k.rows();
            let need = crate::kv::pages_for_growth(meta.len, rows, meta.rows_per_page_k)
                + crate::kv::pages_for_growth(meta.len, rows, meta.rows_per_page_v);
            if matches!(fault, Some(FaultKind::ExhaustPool)) {
                reg.admission_rejections += 1;
                return Err(SessionError::KvBudgetExhausted { need, free: 0 });
            }
            self.reserve_pages(&mut reg, session.0, need)?;
            self.charge_rows(&mut reg, session.0, rows, need);
            let _ = self.tx.send(Msg::Extend {
                id: session.0,
                k,
                v,
            });
        }
        Ok(())
    }

    /// Validate and enqueue one decode step. Returns immediately; the
    /// output row arrives on the handle. The step attends over exactly the
    /// rows appended to the session before this call. A session whose
    /// pages were reclaimed by eviction gets
    /// [`SessionError::Evicted`] — its history is gone — and a queue at
    /// [`BatchPolicy::max_queue_depth`] sheds the step with
    /// [`SessionError::Overloaded`] (transient — see [`crate::retry`]).
    pub fn submit_decode(&self, req: DecodeRequest<T>) -> Result<DecodeHandle<T>, SessionError> {
        self.submit_decode_with_deadline(req, None)
    }

    /// [`submit_decode`](Self::submit_decode) with a deadline: a step
    /// still queued past `deadline` is shed *before* packing and its
    /// handle resolves with [`ServeError::DeadlineExceeded`].
    pub fn submit_decode_with_deadline(
        &self,
        req: DecodeRequest<T>,
        deadline: Option<Instant>,
    ) -> Result<DecodeHandle<T>, SessionError> {
        let fault = self.next_fault();
        let (reply, rx) = mpsc::sync_channel(1);
        {
            let mut reg = lock_healed(&self.registry);
            let meta = reg
                .sessions
                .get(&req.session.0)
                .ok_or(SessionError::UnknownSession(req.session))?;
            if meta.evicted {
                return Err(SessionError::Evicted(req.session));
            }
            if req.q_row.len() != meta.d {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SessionError::Rejected(RequestError::DecodeShapeMismatch {
                    reason: format!(
                        "query row has {} elements, session width is {}",
                        req.q_row.len(),
                        meta.d
                    ),
                }));
            }
            if meta.len == 0 {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SessionError::Rejected(RequestError::EmptyRequest));
            }
            if let Err(depth) = self.check_depth() {
                return Err(SessionError::Overloaded { depth });
            }
            self.depth.fetch_add(1, Ordering::SeqCst);
            let meta = reg.sessions.get_mut(&req.session.0).expect("checked above");
            meta.inflight += 1;
            reg.touch(req.session.0);
            let _ = self.tx.send(Msg::Decode {
                id: req.session.0,
                q_row: req.q_row,
                submitted: Instant::now(),
                deadline,
                fault,
                reply,
            });
        }
        Ok(DecodeHandle { rx })
    }

    /// Close a session and return its KV pages to the pool. Queued decode
    /// steps for the session are flushed first, so nothing already
    /// admitted is lost; subsequent operations on the id get
    /// [`SessionError::UnknownSession`]. Closing is always valid — also
    /// for evicted sessions (that is how their ids are retired).
    pub fn close_session(&self, session: SessionId) -> Result<(), SessionError> {
        let mut reg = lock_healed(&self.registry);
        let meta = reg
            .sessions
            .remove(&session.0)
            .ok_or(SessionError::UnknownSession(session))?;
        reg.pages_used -= meta.pages;
        reg.kv_pages_freed += meta.pages as u64;
        reg.kv_bytes = reg.kv_bytes.saturating_sub(meta.bytes);
        let _ = self.tx.send(Msg::Close { id: session.0 });
        Ok(())
    }

    /// Drain every open bucket and queued decode step, stop the batcher and
    /// return lifetime counters. Sessions still open are drained too —
    /// their pages count as freed, so a clean shutdown always reconciles
    /// to `kv_pages_allocated == kv_pages_freed`.
    pub fn shutdown(mut self) -> ServeStats {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        let mut stats = lock_stats(&self.stats).clone();
        stats.rejected = self.rejected.load(Ordering::Relaxed);
        stats.overload_sheds = self.overload_sheds.load(Ordering::Relaxed);
        let mut reg = lock_healed(&self.registry);
        // The batcher's exit released every remaining cache into the pool;
        // mirror that drain here so the lifetime counters reconcile.
        let remaining: u64 = reg.sessions.values().map(|m| m.pages as u64).sum();
        reg.kv_pages_freed += remaining;
        reg.pages_used = 0;
        reg.kv_bytes = 0;
        reg.sessions.clear();
        stats.kv_bytes_peak = reg.kv_bytes_peak;
        stats.kv_pages_allocated = reg.kv_pages_allocated;
        stats.kv_pages_freed = reg.kv_pages_freed;
        stats.evictions = reg.evictions;
        stats.admission_rejections = reg.admission_rejections;
        stats
    }

    /// A live copy of the lifetime counters — the same aggregates
    /// [`shutdown`](Self::shutdown) returns, readable while the server
    /// is serving (`GET /metrics` is built on this). Counters the
    /// batcher owns trail its in-progress launch by at most one lock
    /// acquisition.
    pub fn stats_snapshot(&self) -> ServeStats {
        let mut stats = lock_stats(&self.stats).clone();
        stats.rejected = self.rejected.load(Ordering::Relaxed);
        stats.overload_sheds = self.overload_sheds.load(Ordering::Relaxed);
        let reg = lock_healed(&self.registry);
        stats.kv_bytes_peak = reg.kv_bytes_peak;
        stats.kv_pages_allocated = reg.kv_pages_allocated;
        stats.kv_pages_freed = reg.kv_pages_freed;
        stats.evictions = reg.evictions;
        stats.admission_rejections = reg.admission_rejections;
        stats
    }

    /// The batcher's live queue-depth snapshot (per-bucket prefill
    /// depths + the decode queue), refreshed once per batcher loop.
    pub fn queue_depths(&self) -> QueueDepths {
        match self.depths.lock() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// Test hook: kill a thread while it holds the registry lock with
    /// scribbled mirror counters, leaving the mutex poisoned — the
    /// setup for every `lock_healed` recovery test.
    #[cfg(test)]
    pub(crate) fn poison_registry_for_test(&self) {
        let registry = Arc::clone(&self.registry);
        let scribbler = std::thread::spawn(move || {
            let mut reg = registry.lock().unwrap();
            reg.pages_used = 9999;
            reg.kv_bytes = u64::MAX;
            panic!("client died mid-critical-section");
        });
        assert!(scribbler.join().is_err(), "scribbler must poison the lock");
    }
}

impl<T: Scalar> Drop for AttentionServer<T> {
    fn drop(&mut self) {
        if let Some(w) = self.worker.take() {
            let _ = self.tx.send(Msg::Shutdown);
            let _ = w.join();
        }
    }
}

/// One queued decode step on the batcher thread.
struct PendingDecode<T: Scalar> {
    id: u64,
    q_row: Vec<T>,
    submitted: Instant,
    deadline: Option<Instant>,
    fault: Option<FaultKind>,
    reply: DecodeReply<T>,
}

/// The batcher's KV storage, resolved once from [`KvConfig::kv_dtype`]:
/// one pool plus the per-session page tables over it, either at the
/// compute dtype (`Native`) or bf16-quantised (`Quant`). Appends narrow
/// at write time in the `Quant` arm; decode steps carry the stored pages
/// to the engine tagged with their quantisation so the launch widens on
/// load instead of materialising an f32 copy.
enum KvStore<T: Scalar> {
    Native {
        pool: KvPool<T>,
        caches: HashMap<u64, PagedKvCache<T>>,
    },
    Quant {
        pool: KvPool<Bf16>,
        caches: HashMap<u64, PagedKvCache<Bf16>>,
    },
}

impl<T: Scalar> KvStore<T> {
    fn new(config: &KvConfig) -> KvStore<T> {
        match config.kv_dtype {
            KvDtype::Native => KvStore::Native {
                pool: KvPool::new(config),
                caches: HashMap::new(),
            },
            KvDtype::Bf16 => KvStore::Quant {
                pool: KvPool::new(config),
                caches: HashMap::new(),
            },
        }
    }

    /// Create the session's (empty) page table. `false` if the geometry
    /// cannot back it (admission already validated, so this is defensive).
    fn open(&mut self, config: &KvConfig, id: u64, d: usize, d_v: usize) -> bool {
        match self {
            KvStore::Native { caches, .. } => match PagedKvCache::new(config, d, d_v) {
                Ok(cache) => {
                    caches.insert(id, cache);
                    true
                }
                Err(_) => false,
            },
            KvStore::Quant { caches, .. } => match PagedKvCache::new(config, d, d_v) {
                Ok(cache) => {
                    caches.insert(id, cache);
                    true
                }
                Err(_) => false,
            },
        }
    }

    /// Append one position, narrowing to bf16 in the `Quant` arm. `false`
    /// when the session is unknown or the pool refuses (admission reserved
    /// the pages, so a refusal is defensive).
    fn append(&mut self, id: u64, k_row: &[T], v_row: &[T]) -> bool {
        match self {
            KvStore::Native { pool, caches } => caches
                .get_mut(&id)
                .is_some_and(|c| c.append(pool, k_row, v_row).is_ok()),
            KvStore::Quant { pool, caches } => caches
                .get_mut(&id)
                .is_some_and(|c| c.append_narrowed(pool, k_row, v_row).is_ok()),
        }
    }

    /// Append a block of positions (see [`append`](Self::append)).
    fn extend(&mut self, id: u64, k: &Matrix<T>, v: &Matrix<T>) -> bool {
        match self {
            KvStore::Native { pool, caches } => caches
                .get_mut(&id)
                .is_some_and(|c| c.extend(pool, k, v).is_ok()),
            KvStore::Quant { pool, caches } => caches
                .get_mut(&id)
                .is_some_and(|c| c.extend_narrowed(pool, k, v).is_ok()),
        }
    }

    /// Drop the session and return its pages. `false` if unknown.
    fn close(&mut self, id: u64) -> bool {
        match self {
            KvStore::Native { pool, caches } => match caches.remove(&id) {
                Some(mut cache) => {
                    cache.release(pool);
                    true
                }
                None => false,
            },
            KvStore::Quant { pool, caches } => match caches.remove(&id) {
                Some(mut cache) => {
                    cache.release(pool);
                    true
                }
                None => false,
            },
        }
    }

    /// Return the session's pages but keep its (now empty) table — the
    /// eviction half-close.
    fn evict(&mut self, id: u64) {
        match self {
            KvStore::Native { pool, caches } => {
                if let Some(cache) = caches.get_mut(&id) {
                    cache.release(pool);
                }
            }
            KvStore::Quant { pool, caches } => {
                if let Some(cache) = caches.get_mut(&id) {
                    cache.release(pool);
                }
            }
        }
    }

    /// Cached positions of a session, `None` if unknown.
    fn len_of(&self, id: u64) -> Option<usize> {
        match self {
            KvStore::Native { caches, .. } => caches.get(&id).map(|c| c.len()),
            KvStore::Quant { caches, .. } => caches.get(&id).map(|c| c.len()),
        }
    }

    /// Build the engine-facing decode step for a known, non-empty session:
    /// `Native` borrows the pages at `T`, `Quant` borrows them as
    /// [`dfss_core::engine::KvRows::PagedBf16`] so the engine routes the
    /// step through the fused widen-on-load path.
    fn step<'a>(&'a self, id: u64, q_row: &'a [T]) -> DecodeStep<'a, T> {
        match self {
            KvStore::Native { pool, caches } => {
                let cache = &caches[&id];
                DecodeStep {
                    q_row,
                    k_rows: cache.k_rows(pool),
                    v_rows: cache.v_rows(pool),
                    len: cache.len(),
                    d: cache.d(),
                    d_v: cache.d_v(),
                }
            }
            KvStore::Quant { pool, caches } => {
                let cache = &caches[&id];
                DecodeStep {
                    q_row,
                    k_rows: cache.k_rows_quant(pool),
                    v_rows: cache.v_rows_quant(pool),
                    len: cache.len(),
                    d: cache.d(),
                    d_v: cache.d_v(),
                }
            }
        }
    }

    /// Shutdown drain: return every session's pages to the pool.
    fn release_all(&mut self) {
        match self {
            KvStore::Native { pool, caches } => {
                for (_, mut cache) in caches.drain() {
                    cache.release(pool);
                }
            }
            KvStore::Quant { pool, caches } => {
                for (_, mut cache) in caches.drain() {
                    cache.release(pool);
                }
            }
        }
    }

    fn check_invariants(&self) -> Result<(), String> {
        match self {
            KvStore::Native { pool, .. } => pool.check_invariants(),
            KvStore::Quant { pool, .. } => pool.check_invariants(),
        }
    }
}

/// The batcher thread's session + decode state: the KV store (pool +
/// per-session page tables) and the queued steps.
struct DecodeState<T: Scalar> {
    store: KvStore<T>,
    config: KvConfig,
    pending: Vec<PendingDecode<T>>,
}

impl<T: Scalar> DecodeState<T> {
    fn new(config: KvConfig) -> DecodeState<T> {
        DecodeState {
            store: KvStore::new(&config),
            config,
            pending: Vec::new(),
        }
    }

    fn next_deadline(&self, policy: &BatchPolicy) -> Option<Instant> {
        self.pending
            .iter()
            .map(|p| p.submitted + policy.max_delay)
            .min()
    }

    fn has_pending_for(&self, id: u64) -> bool {
        self.pending.iter().any(|p| p.id == id)
    }
}

/// The batcher thread: shape-bucketed prefill admission plus the decode
/// queue, max-batch + deadline close policy for both, one engine flush per
/// closed batch.
fn batcher_loop<T: Scalar>(
    mech: Arc<dyn Attention<T> + Send + Sync>,
    policy: BatchPolicy,
    ctx: GpuCtx,
    kv: KvConfig,
    registry: Arc<Mutex<Registry>>,
    depth: Arc<AtomicU64>,
    stats: Arc<Mutex<ServeStats>>,
    depths: Arc<Mutex<QueueDepths>>,
    arm: Arc<FaultArm>,
    rx: Receiver<Msg<T>>,
) {
    let mut engine = AttentionEngine::with_ctx(mech.as_ref(), ctx);
    let mut queue: BucketQueue<T, Reply<T>> = BucketQueue::new(policy);
    let mut decode = DecodeState::new(kv);
    let stats = &*stats;
    // Publish the (empty) queue geometry once per loop iteration so
    // observers read depths at most one message drain stale.
    let publish = |queue: &BucketQueue<T, Reply<T>>, decode: &DecodeState<T>| {
        let snapshot = QueueDepths {
            prefill: queue.depths(),
            decode: decode.pending.len(),
        };
        match depths.lock() {
            Ok(mut guard) => *guard = snapshot,
            Err(poisoned) => *poisoned.into_inner() = snapshot,
        }
    };
    let mut stopping = false;
    while !stopping {
        let deadline = match (queue.next_deadline(), decode.next_deadline(&policy)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let msg = match deadline {
            None => match rx.recv() {
                Ok(m) => Some(m),
                Err(_) => break, // all senders gone: drain and stop
            },
            Some(deadline) => {
                let timeout = deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(timeout) {
                    Ok(m) => Some(m),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        // Greedily drain everything already waiting in the channel before
        // closing any bucket: when a launch kept the batcher busy, the
        // backlog that built up behind it coalesces into full batches
        // instead of trickling out one deadline-expired request at a time.
        let mut next = msg;
        loop {
            match next {
                Some(Msg::Request(req)) => {
                    if let Some(full) = queue.push(req) {
                        if !serve_bucket(&mut engine, full, &arm, &depth, stats) {
                            return;
                        }
                    }
                }
                Some(Msg::Open { id, d, d_v }) => {
                    // Admission validated that a page can hold the widths.
                    if decode.store.open(&decode.config, id, d, d_v) {
                        lock_stats(stats).sessions_opened += 1;
                    }
                }
                Some(Msg::Append { id, k_row, v_row }) => {
                    // Determinism: a queued decode for this session must
                    // launch against the cache as of its submission.
                    if decode.has_pending_for(id)
                        && !serve_decode(&mut engine, &mut decode, &registry, &arm, &depth, stats)
                    {
                        return;
                    }
                    // Admission reserved the pages under the registry lock
                    // before this message was sent, so the pool cannot
                    // come up short here.
                    if decode.store.append(id, &k_row, &v_row) {
                        lock_stats(stats).kv_rows_appended += 1;
                    }
                }
                Some(Msg::Extend { id, k, v }) => {
                    if decode.has_pending_for(id)
                        && !serve_decode(&mut engine, &mut decode, &registry, &arm, &depth, stats)
                    {
                        return;
                    }
                    let rows = k.rows();
                    if decode.store.extend(id, &k, &v) {
                        lock_stats(stats).kv_rows_appended += rows as u64;
                    }
                }
                Some(Msg::Close { id }) => {
                    if decode.has_pending_for(id)
                        && !serve_decode(&mut engine, &mut decode, &registry, &arm, &depth, stats)
                    {
                        return;
                    }
                    if decode.store.close(id) {
                        lock_stats(stats).sessions_closed += 1;
                    }
                }
                Some(Msg::Evict { id }) => {
                    // Victims are idle by construction (inflight == 0),
                    // but flush anyway so a queued step can never attend
                    // over freed pages.
                    if decode.has_pending_for(id)
                        && !serve_decode(&mut engine, &mut decode, &registry, &arm, &depth, stats)
                    {
                        return;
                    }
                    decode.store.evict(id);
                }
                Some(Msg::Decode {
                    id,
                    q_row,
                    submitted,
                    deadline,
                    fault,
                    reply,
                }) => {
                    decode.pending.push(PendingDecode {
                        id,
                        q_row,
                        submitted,
                        deadline,
                        fault,
                        reply,
                    });
                    if decode.pending.len() >= policy.max_batch
                        && !serve_decode(&mut engine, &mut decode, &registry, &arm, &depth, stats)
                    {
                        return;
                    }
                }
                Some(Msg::Shutdown) => {
                    stopping = true;
                    break;
                }
                None => break,
            }
            next = rx.try_recv().ok();
        }
        let now = Instant::now();
        for due in queue.take_due(now) {
            if !serve_bucket(&mut engine, due, &arm, &depth, stats) {
                return;
            }
        }
        if decode
            .next_deadline(&policy)
            .is_some_and(|deadline| deadline <= now)
            && !serve_decode(&mut engine, &mut decode, &registry, &arm, &depth, stats)
        {
            return;
        }
        publish(&queue, &decode);
    }
    for bucket in queue.take_all() {
        if !serve_bucket(&mut engine, bucket, &arm, &depth, stats) {
            return;
        }
    }
    if !serve_decode(&mut engine, &mut decode, &registry, &arm, &depth, stats) {
        return;
    }
    // Shutdown drain: return every open session's pages to the pool so the
    // pool invariants (free + used == capacity, no leaked pages) verify even
    // when clients abandon sessions without closing them.
    decode.store.release_all();
    debug_assert!(decode.store.check_invariants().is_ok());
    publish(&queue, &decode);
}

/// One prefill job resumable across continuous-scheduler iterations: the
/// admitted triple plus the output rows accumulated chunk by chunk.
struct PrefillJob<T: Scalar> {
    id: u64,
    q: Matrix<T>,
    k: Matrix<T>,
    v: Matrix<T>,
    /// Output rows completed so far (row-major, grows front to back —
    /// chunks are planned in row order).
    out: Vec<T>,
    sim_latency_s: f64,
    /// Whether the job's first chunk has launched (fault arming point).
    launched: bool,
    submitted: Instant,
    /// First chunk's launch time (queue-wait measurement point).
    started: Option<Instant>,
    deadline: Option<Instant>,
    fault: Option<FaultKind>,
    reply: Reply<T>,
}

/// Copy rows `[lo, hi)` of `m` into a fresh matrix — the chunk slice the
/// scheduler hands to [`AttentionEngine::forward_chunk`].
fn slice_rows<T: Scalar>(m: &Matrix<T>, lo: usize, hi: usize) -> Matrix<T> {
    let d = m.cols();
    let mut rows = Vec::with_capacity((hi - lo) * d);
    for r in lo..hi {
        rows.extend_from_slice(m.row(r));
    }
    Matrix::from_vec(hi - lo, d, rows)
}

/// Append the scheduler's unpublished events to the shared trace.
fn publish_trace(shared: &Mutex<SchedTrace>, sched: &Scheduler, published: &mut usize) {
    let events = sched.trace().events();
    if *published >= events.len() {
        return;
    }
    let mut guard = match shared.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    for e in &events[*published..] {
        guard.push(e.clone());
    }
    *published = events.len();
}

/// The continuous-batching worker: one admission loop that, every
/// scheduler iteration, flushes **all ready decode steps** and then runs
/// the iteration's planned prefill chunks — the single-cadence replacement
/// for the separate prefill/decode flushes of [`batcher_loop`].
///
/// Sessions, KV governance, fault arming, deadline shedding and panic
/// isolation behave exactly as in the classic batcher; the decode
/// determinism rule (a queued step launches before an append/extend/close/
/// evict touches its session) is preserved by a forced decode flush,
/// recorded distinctly in the trace.
#[allow(clippy::too_many_arguments)]
fn continuous_loop<T: Scalar>(
    mech: Arc<dyn Attention<T> + Send + Sync>,
    policy: BatchPolicy,
    sched_policy: SchedPolicy,
    ctx: GpuCtx,
    kv: KvConfig,
    registry: Arc<Mutex<Registry>>,
    depth: Arc<AtomicU64>,
    stats: Arc<Mutex<ServeStats>>,
    depths: Arc<Mutex<QueueDepths>>,
    trace_out: Arc<Mutex<SchedTrace>>,
    arm: Arc<FaultArm>,
    rx: Receiver<Msg<T>>,
) {
    let mut engine = AttentionEngine::with_ctx(mech.as_ref(), ctx);
    let mut decode = DecodeState::new(kv);
    let mut sched = Scheduler::new(sched_policy);
    let mut jobs: HashMap<u64, PrefillJob<T>> = HashMap::new();
    let mut next_job: u64 = 0;
    let mut next_step: u64 = 0;
    let mut published = 0usize;
    let stats = &*stats;
    let chunkable = mech.supports_row_chunking();
    let publish = |jobs: &HashMap<u64, PrefillJob<T>>, decode: &DecodeState<T>| {
        let mut prefill: Vec<(ShapeKey, usize)> = Vec::new();
        for job in jobs.values() {
            let key = ShapeKey {
                n: job.q.rows(),
                d: job.q.cols(),
                d_v: job.v.cols(),
            };
            match prefill.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => prefill.push((key, 1)),
            }
        }
        prefill.sort_by_key(|(k, _)| (k.n, k.d, k.d_v));
        let snapshot = QueueDepths {
            prefill,
            decode: decode.pending.len(),
        };
        match depths.lock() {
            Ok(mut guard) => *guard = snapshot,
            Err(poisoned) => *poisoned.into_inner() = snapshot,
        }
    };
    let mut stopping = false;
    loop {
        // Receive: block when idle, drain greedily when the scheduler has
        // work queued.
        let msg = if stopping {
            None
        } else if sched.has_work() {
            rx.try_recv().ok()
        } else {
            match rx.recv() {
                Ok(m) => Some(m),
                Err(_) => {
                    stopping = true;
                    None
                }
            }
        };
        let mut next = msg;
        while let Some(m) = next.take() {
            match m {
                Msg::Request(req) => {
                    if req.fault == Some(FaultKind::KillServer) {
                        return;
                    }
                    if chunkable {
                        let id = next_job;
                        next_job += 1;
                        sched.admit_prefill(id, req.q.rows());
                        jobs.insert(
                            id,
                            PrefillJob {
                                id,
                                q: req.q,
                                k: req.k,
                                v: req.v,
                                out: Vec::new(),
                                sim_latency_s: 0.0,
                                launched: false,
                                submitted: req.submitted,
                                started: None,
                                deadline: req.deadline,
                                fault: req.fault,
                                reply: req.reply,
                            },
                        );
                    } else {
                        // Mechanisms without row-separable scores (the
                        // blocked-ELL hybrid) run whole, as one
                        // single-request bucket — correctness never
                        // depends on chunking being safe.
                        let key = ShapeKey {
                            n: req.q.rows(),
                            d: req.q.cols(),
                            d_v: req.v.cols(),
                        };
                        let oldest = req.submitted;
                        let bucket = Bucket {
                            key,
                            requests: vec![req],
                            oldest,
                        };
                        if !serve_bucket(&mut engine, bucket, &arm, &depth, stats) {
                            return;
                        }
                    }
                }
                Msg::Open { id, d, d_v } => {
                    if decode.store.open(&decode.config, id, d, d_v) {
                        lock_stats(stats).sessions_opened += 1;
                    }
                }
                Msg::Append { id, k_row, v_row } => {
                    if decode.has_pending_for(id) {
                        let _ = sched.force_decode_flush();
                        if !serve_decode(&mut engine, &mut decode, &registry, &arm, &depth, stats) {
                            return;
                        }
                    }
                    if decode.store.append(id, &k_row, &v_row) {
                        lock_stats(stats).kv_rows_appended += 1;
                    }
                }
                Msg::Extend { id, k, v } => {
                    if decode.has_pending_for(id) {
                        let _ = sched.force_decode_flush();
                        if !serve_decode(&mut engine, &mut decode, &registry, &arm, &depth, stats) {
                            return;
                        }
                    }
                    let rows = k.rows();
                    if decode.store.extend(id, &k, &v) {
                        lock_stats(stats).kv_rows_appended += rows as u64;
                    }
                }
                Msg::Close { id } => {
                    if decode.has_pending_for(id) {
                        let _ = sched.force_decode_flush();
                        if !serve_decode(&mut engine, &mut decode, &registry, &arm, &depth, stats) {
                            return;
                        }
                    }
                    if decode.store.close(id) {
                        lock_stats(stats).sessions_closed += 1;
                    }
                }
                Msg::Evict { id } => {
                    if decode.has_pending_for(id) {
                        let _ = sched.force_decode_flush();
                        if !serve_decode(&mut engine, &mut decode, &registry, &arm, &depth, stats) {
                            return;
                        }
                    }
                    decode.store.evict(id);
                }
                Msg::Decode {
                    id,
                    q_row,
                    submitted,
                    deadline,
                    fault,
                    reply,
                } => {
                    decode.pending.push(PendingDecode {
                        id,
                        q_row,
                        submitted,
                        deadline,
                        fault,
                        reply,
                    });
                    sched.admit_decode(next_step);
                    next_step += 1;
                }
                Msg::Shutdown => {
                    stopping = true;
                    break;
                }
            }
            next = rx.try_recv().ok();
        }
        // One scheduler iteration: all ready decode first, then the
        // planned prefill chunks.
        if let Some(plan) = sched.next_iteration() {
            lock_stats(stats).sched_iterations += 1;
            // Publish the iteration event *before* executing it: a client
            // whose reply arrives from this iteration must find it in the
            // trace already.
            publish_trace(&trace_out, &sched, &mut published);
            if !plan.decode.is_empty()
                && !serve_decode(&mut engine, &mut decode, &registry, &arm, &depth, stats)
            {
                return;
            }
            for chunk in plan.chunks {
                run_chunk(
                    &mut engine,
                    &mut jobs,
                    &mut sched,
                    chunk,
                    &arm,
                    &depth,
                    stats,
                );
            }
        }
        publish_trace(&trace_out, &sched, &mut published);
        publish(&jobs, &decode);
        if stopping && !sched.has_work() && decode.pending.is_empty() {
            break;
        }
    }
    let _ = policy; // close cadence is the scheduler's; depth bound is enforced at admission
    decode.store.release_all();
    debug_assert!(decode.store.check_invariants().is_ok());
    publish_trace(&trace_out, &sched, &mut published);
    publish(&jobs, &decode);
}

/// Execute one planned prefill chunk: deadline shed, fault arming on the
/// job's first chunk, one [`AttentionEngine::forward_chunk`] under panic
/// isolation, output-row accumulation, and the completed-job reply.
/// Kill-server faults fire at admission in continuous mode, so a chunk
/// never stops the loop.
fn run_chunk<T: Scalar>(
    engine: &mut AttentionEngine<'_, T>,
    jobs: &mut HashMap<u64, PrefillJob<T>>,
    sched: &mut Scheduler,
    chunk: ChunkPlan,
    arm: &FaultArm,
    depth: &AtomicU64,
    stats: &Mutex<ServeStats>,
) {
    let now = Instant::now();
    let Some(job) = jobs.get_mut(&chunk.job) else {
        return;
    };
    if expired(job.deadline, now) {
        lock_stats(stats).deadline_sheds += 1;
        sched.cancel(chunk.job);
        let job = jobs.remove(&chunk.job).expect("job present above");
        depth.fetch_sub(1, Ordering::SeqCst);
        let _ = job.reply.send(Err(ServeError::DeadlineExceeded {
            queued_for: now.saturating_duration_since(job.submitted),
        }));
        return;
    }
    if job.started.is_none() {
        job.started = Some(now);
    }
    if !job.launched {
        job.launched = true;
        match job.fault {
            Some(FaultKind::PanicInBatch) => arm.arm_panic(),
            Some(FaultKind::SlowLaunch(delay)) => arm.arm_slow(delay),
            _ => {}
        }
    }
    let q_rows = slice_rows(&job.q, chunk.lo, chunk.hi);
    let result = catch_unwind(AssertUnwindSafe(|| {
        engine.forward_chunk(&q_rows, &job.k, &job.v)
    }));
    match result {
        Err(payload) => {
            // The chunk's launch panicked: fail this job alone, restore
            // the engine, keep the loop (and every other job) serving.
            lock_stats(stats).batch_panics += 1;
            engine.recover_after_panic();
            let msg = panic_message(payload);
            sched.cancel(chunk.job);
            let job = jobs.remove(&chunk.job).expect("job present above");
            depth.fetch_sub(1, Ordering::SeqCst);
            let _ = job
                .reply
                .send(Err(ServeError::BatchPanicked { payload: msg }));
        }
        Ok(Err(e)) => {
            sched.cancel(chunk.job);
            let job = jobs.remove(&chunk.job).expect("job present above");
            depth.fetch_sub(1, Ordering::SeqCst);
            let _ = job.reply.send(Err(ServeError::Rejected(e)));
        }
        Ok(Ok(res)) => {
            job.sim_latency_s += res.sim_latency_s;
            job.out.extend_from_slice(
                res.output
                    .as_ref()
                    .expect("serving engines run in exec mode and materialise outputs")
                    .as_slice(),
            );
            {
                let mut st = lock_stats(stats);
                st.prefill_chunks += 1;
                st.total_sim_latency_s += res.sim_latency_s;
            }
            if chunk.hi == job.q.rows() {
                let job = jobs.remove(&chunk.job).expect("job present above");
                depth.fetch_sub(1, Ordering::SeqCst);
                let (n, d) = job.q.shape();
                let d_v = job.v.cols();
                let started = job.started.unwrap_or(now);
                let served = Served {
                    output: Matrix::from_vec(n, d_v, job.out),
                    // Continuous jobs are identified by admission ordinal
                    // (monotone, like engine tickets in launch order).
                    ticket: Ticket(job.id),
                    bucket: ShapeKey { n, d, d_v },
                    batch_size: 1,
                    queue_wait: started.saturating_duration_since(job.submitted),
                    service: started.elapsed(),
                    latency: job.submitted.elapsed(),
                    sim_latency_s: job.sim_latency_s,
                };
                lock_stats(stats).served += 1;
                let _ = job.reply.send(Ok(served));
            }
        }
    }
    engine.reset_timeline();
}

/// Best-effort human-readable panic payload (panics carry `&str` or
/// `String` in practice; anything else is reported opaquely).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Launch one closed prefill bucket: engine submit × B, one flush (one
/// batched launch per op), reply per request with its latency breakdown.
///
/// Expired-deadline requests are shed *before* packing — they get a typed
/// [`ServeError::DeadlineExceeded`] instead of occupying batch slots. A
/// panic inside the flush is caught here: every request packed into the
/// batch fails with [`ServeError::BatchPanicked`] and the engine is
/// restored to a serviceable state, so one poisoned batch never takes the
/// batcher down. Returns `false` only when an injected [`FaultKind::KillServer`]
/// fires — the caller must exit immediately without draining (the
/// hard-crash simulation).
fn serve_bucket<T: Scalar>(
    engine: &mut AttentionEngine<'_, T>,
    bucket: Bucket<T, Reply<T>>,
    arm: &FaultArm,
    depth: &AtomicU64,
    stats: &Mutex<ServeStats>,
) -> bool {
    let closed_at = Instant::now();
    depth.fetch_sub(bucket.requests.len() as u64, Ordering::SeqCst);
    // Deadline shed before packing: an expired request never occupies a
    // batch slot and its injected fault (if any) never arms.
    let mut live = Vec::with_capacity(bucket.requests.len());
    for req in bucket.requests {
        if expired(req.deadline, closed_at) {
            lock_stats(stats).deadline_sheds += 1;
            let _ = req.reply.send(Err(ServeError::DeadlineExceeded {
                queued_for: closed_at.saturating_duration_since(req.submitted),
            }));
        } else {
            live.push(req);
        }
    }
    if live.is_empty() {
        return true;
    }
    if live.iter().any(|r| r.fault == Some(FaultKind::KillServer)) {
        return false;
    }
    for req in &live {
        match req.fault {
            Some(FaultKind::PanicInBatch) => arm.arm_panic(),
            Some(FaultKind::SlowLaunch(delay)) => arm.arm_slow(delay),
            _ => {}
        }
    }
    let mut waiting = Vec::with_capacity(live.len());
    for req in live {
        match engine.submit(req.q, req.k, req.v) {
            Ok(_) => waiting.push((req.reply, req.submitted)),
            Err(e) => {
                // Admission already validated; a typed reply (not a panic)
                // keeps the batcher alive if constraints ever diverge.
                let _ = req.reply.send(Err(ServeError::Rejected(e)));
            }
        }
    }
    let results = match catch_unwind(AssertUnwindSafe(|| engine.flush())) {
        Ok(results) => results,
        Err(payload) => {
            // The panic unwound mid-flush: the batch is lost, the server
            // is not. Fail exactly the requests that were packed into it,
            // restore the engine, and keep serving.
            lock_stats(stats).batch_panics += 1;
            engine.recover_after_panic();
            let msg = panic_message(payload);
            for (reply, _) in waiting {
                let _ = reply.send(Err(ServeError::BatchPanicked {
                    payload: msg.clone(),
                }));
            }
            return true;
        }
    };
    let service = closed_at.elapsed();
    let mut st = lock_stats(stats);
    st.batches += 1;
    st.max_batch = st.max_batch.max(results.len());
    st.total_sim_latency_s += engine.last_flush().sim_latency_s();
    // Flush results come back in ticket (= submission) order, matching
    // `waiting`.
    for (res, (reply, submitted)) in results.into_iter().zip(waiting) {
        st.served += 1;
        let served = Served {
            output: res
                .output
                .expect("serving engines run in exec mode and materialise outputs"),
            ticket: res.ticket,
            bucket: res.bucket,
            batch_size: res.batch_size,
            queue_wait: closed_at.saturating_duration_since(submitted),
            service,
            latency: submitted.elapsed(),
            sim_latency_s: res.sim_latency_s,
        };
        let _ = reply.send(Ok(served));
    }
    drop(st);
    // Bound the owned context: the timeline's job is done once the flush
    // report is folded into the stats.
    engine.reset_timeline();
    true
}

/// Launch the queued decode steps as one ragged flush (one launch per op
/// across all streams), reply per step with its latency breakdown. A call
/// with nothing queued is a no-op.
///
/// Same failure domains as [`serve_bucket`]: expired deadlines shed typed
/// before packing, an in-flush panic fails only this batch's steps
/// ([`ServeError::BatchPanicked`]) and always releases the sessions'
/// inflight marks. Returns `false` only on an injected
/// [`FaultKind::KillServer`].
fn serve_decode<T: Scalar>(
    engine: &mut AttentionEngine<'_, T>,
    decode: &mut DecodeState<T>,
    registry: &Mutex<Registry>,
    arm: &FaultArm,
    depth: &AtomicU64,
    stats: &Mutex<ServeStats>,
) -> bool {
    if decode.pending.is_empty() {
        return true;
    }
    let closed_at = Instant::now();
    let pending = std::mem::take(&mut decode.pending);
    depth.fetch_sub(pending.len() as u64, Ordering::SeqCst);
    if pending
        .iter()
        .any(|p| p.fault == Some(FaultKind::KillServer) && !expired(p.deadline, closed_at))
    {
        return false;
    }
    // Admission validated widths and non-empty caches; a session whose
    // cache vanished between admission and launch (registry/batcher race on
    // a close) gets a typed rejection, not a panic. Expired deadlines shed
    // typed before packing; shed steps never arm their injected fault.
    let mut live: Vec<&PendingDecode<T>> = Vec::with_capacity(pending.len());
    for p in &pending {
        if expired(p.deadline, closed_at) {
            lock_stats(stats).deadline_sheds += 1;
            let _ = p.reply.send(Err(ServeError::DeadlineExceeded {
                queued_for: closed_at.saturating_duration_since(p.submitted),
            }));
            continue;
        }
        match decode.store.len_of(p.id) {
            Some(len) if len > 0 => live.push(p),
            _ => {
                let _ = p
                    .reply
                    .send(Err(ServeError::Rejected(RequestError::EmptyRequest)));
            }
        }
    }
    if live.is_empty() {
        release_inflight(registry, pending.iter().map(|p| p.id));
        return true;
    }
    for p in &live {
        match p.fault {
            Some(FaultKind::PanicInBatch) => arm.arm_panic(),
            Some(FaultKind::SlowLaunch(delay)) => arm.arm_slow(delay),
            _ => {}
        }
    }
    let steps: Vec<DecodeStep<'_, T>> = live
        .iter()
        .map(|p| decode.store.step(p.id, &p.q_row))
        .collect();
    match catch_unwind(AssertUnwindSafe(|| engine.flush_decode(&steps))) {
        Err(payload) => {
            // The ragged flush panicked: fail this batch's steps typed,
            // restore the engine, release the sessions' inflight marks (the
            // caches themselves are untouched — decode reads them, never
            // writes), and keep serving.
            lock_stats(stats).batch_panics += 1;
            engine.recover_after_panic();
            let msg = panic_message(payload);
            for p in &live {
                let _ = p.reply.send(Err(ServeError::BatchPanicked {
                    payload: msg.clone(),
                }));
            }
            release_inflight(registry, pending.iter().map(|p| p.id));
            return true;
        }
        Ok(Ok(results)) => {
            let service = closed_at.elapsed();
            let mut st = lock_stats(stats);
            // One "batch" per ragged launch group: the engine buckets steps
            // by (d, d_v), so a flush over mixed-width sessions runs (and
            // counts) several launches, each sized by its own streams.
            for bucket in &engine.last_decode().buckets {
                st.decode_batches += 1;
                st.max_decode_batch = st.max_decode_batch.max(bucket.streams);
            }
            st.total_sim_latency_s += engine.last_decode().sim_latency_s();
            // Results come back in step order, matching `live`.
            for (res, p) in results.into_iter().zip(&live) {
                st.decode_steps += 1;
                let served = ServedDecode {
                    output: res
                        .output
                        .expect("serving engines run in exec mode and materialise outputs"),
                    ticket: res.ticket,
                    session: SessionId(p.id),
                    cached_len: res.cached_len,
                    batch_size: res.batch_size,
                    queue_wait: closed_at.saturating_duration_since(p.submitted),
                    service,
                    latency: p.submitted.elapsed(),
                    sim_latency_s: res.sim_latency_s,
                };
                let _ = p.reply.send(Ok(served));
            }
        }
        Ok(Err(e)) => {
            for p in &live {
                let _ = p.reply.send(Err(ServeError::Rejected(e.clone())));
            }
        }
    }
    // Every queued step is resolved now — the sessions are idle again and
    // eligible for eviction.
    release_inflight(registry, pending.iter().map(|p| p.id));
    engine.reset_timeline();
    true
}

/// Whether a request's deadline has passed as of `now`.
fn expired(deadline: Option<Instant>, now: Instant) -> bool {
    deadline.is_some_and(|d| now > d)
}

/// Decrement the registry's inflight count for each served step's session
/// (sessions already closed are simply gone).
fn release_inflight(registry: &Mutex<Registry>, ids: impl Iterator<Item = u64>) {
    let mut reg = lock_healed(registry);
    for id in ids {
        if let Some(meta) = reg.sessions.get_mut(&id) {
            meta.inflight = meta.inflight.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionError;
    use dfss_core::dfss::DfssAttention;
    use dfss_core::full::FullAttention;
    use dfss_nmsparse::NmPattern;
    use dfss_tensor::Rng;
    use std::time::Duration;

    fn request(n: usize, d: usize, rng: &mut Rng) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
        (
            Matrix::random_normal(n, d, 0.0, 1.0, &mut *rng),
            Matrix::random_normal(n, d, 0.0, 1.0, &mut *rng),
            Matrix::random_normal(n, d, 0.0, 1.0, &mut *rng),
        )
    }

    fn row(d: usize, rng: &mut Rng) -> Vec<f32> {
        (0..d).map(|_| rng.normal(0.0, 1.0)).collect()
    }

    #[test]
    fn served_outputs_are_bit_identical_to_solo_forward() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> =
            Arc::new(DfssAttention::new(NmPattern::P1_2));
        let server = AttentionServer::start(
            Arc::clone(&mech),
            BatchPolicy::batched(4, Duration::from_millis(5)),
        );
        let mut rng = Rng::new(3);
        let mut handles = Vec::new();
        let mut solo = Vec::new();
        for _ in 0..8 {
            let (q, k, v) = request(32, 16, &mut rng);
            let mut sctx = GpuCtx::a100();
            solo.push(mech.forward(&mut sctx, &q, &k, &v));
            handles.push(server.submit(q, k, v).unwrap());
        }
        for (i, (h, want)) in handles.into_iter().zip(&solo).enumerate() {
            let served = h.wait().expect("served");
            let same = served
                .output
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "request {i} diverged from solo forward");
            assert!(served.batch_size >= 1 && served.batch_size <= 4);
            assert!(served.sim_latency_s > 0.0);
            assert!(served.latency >= served.service);
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, 8);
        assert!(stats.batches >= 2); // max_batch 4 caps every launch
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn max_batch_fills_before_deadline() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        // Deadline far away: only the max-batch close can fire quickly.
        let server = AttentionServer::start(
            Arc::clone(&mech),
            BatchPolicy::batched(3, Duration::from_secs(600)),
        );
        let mut rng = Rng::new(5);
        let mut handles = Vec::new();
        for _ in 0..3 {
            let (q, k, v) = request(16, 8, &mut rng);
            handles.push(server.submit(q, k, v).unwrap());
        }
        for h in handles {
            let served = h.wait().expect("served");
            assert_eq!(served.batch_size, 3);
        }
        let stats = server.shutdown();
        assert_eq!((stats.served, stats.batches), (3, 1));
        assert_eq!(stats.max_batch, 3);
    }

    #[test]
    fn deadline_closes_partial_buckets() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start(
            Arc::clone(&mech),
            BatchPolicy::batched(1000, Duration::from_millis(10)),
        );
        let mut rng = Rng::new(7);
        let (q, k, v) = request(16, 8, &mut rng);
        let t0 = Instant::now();
        let served = server.submit(q, k, v).unwrap().wait().expect("served");
        assert!(
            t0.elapsed() >= Duration::from_millis(10),
            "closed too early"
        );
        assert_eq!(served.batch_size, 1);
        assert!(served.queue_wait >= Duration::from_millis(9));
        let _ = server.shutdown();
    }

    #[test]
    fn heterogeneous_shapes_never_share_a_launch() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> =
            Arc::new(DfssAttention::new(NmPattern::P1_2));
        let server = AttentionServer::start(
            Arc::clone(&mech),
            BatchPolicy::batched(8, Duration::from_millis(5)),
        );
        let mut rng = Rng::new(9);
        let mut handles = Vec::new();
        for i in 0..6 {
            let n = if i % 2 == 0 { 32 } else { 64 };
            let (q, k, v) = request(n, 8, &mut rng);
            handles.push((n, server.submit(q, k, v).unwrap()));
        }
        for (n, h) in handles {
            let served = h.wait().expect("served");
            assert_eq!(served.bucket.n, n);
            assert_eq!(served.batch_size, 3);
            assert_eq!(served.output.rows(), n);
        }
        let stats = server.shutdown();
        assert_eq!((stats.served, stats.batches), (6, 2));
    }

    #[test]
    fn bad_requests_get_typed_errors_and_server_survives() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> =
            Arc::new(DfssAttention::new(NmPattern::P1_2));
        let server = AttentionServer::start(Arc::clone(&mech), BatchPolicy::per_request());
        // n = 31 violates the 1:2 group alignment.
        let q = Matrix::<f32>::zeros(31, 8);
        let err = server.submit(q.clone(), q.clone(), q.clone()).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Rejected(RequestError::Unsupported { .. })
        ));
        // K mismatch.
        let q32 = Matrix::<f32>::zeros(32, 8);
        let k_bad = Matrix::<f32>::zeros(16, 8);
        let err = server.submit(q32.clone(), k_bad, q32.clone()).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Rejected(RequestError::KShapeMismatch { .. })
        ));
        // The server still serves valid traffic afterwards.
        let mut rng = Rng::new(11);
        let (q, k, v) = request(32, 8, &mut rng);
        let served = server.submit(q, k, v).unwrap().wait().expect("served");
        assert_eq!(served.batch_size, 1);
        let stats = server.shutdown();
        assert_eq!((stats.served, stats.rejected), (1, 2));
    }

    #[test]
    fn shutdown_drains_open_buckets() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        // Deadline far in the future: only the shutdown drain can serve.
        let server = AttentionServer::start(
            Arc::clone(&mech),
            BatchPolicy::batched(1000, Duration::from_secs(600)),
        );
        let mut rng = Rng::new(13);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (q, k, v) = request(16, 8, &mut rng);
            handles.push(server.submit(q, k, v).unwrap());
        }
        let stats = server.shutdown();
        assert_eq!((stats.served, stats.batches), (4, 1));
        for h in handles {
            assert!(h.wait().is_ok());
        }
    }

    #[test]
    fn decode_steps_batch_across_sessions_and_match_solo_decode() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> =
            Arc::new(DfssAttention::new(NmPattern::P1_2));
        let server = AttentionServer::start(
            Arc::clone(&mech),
            BatchPolicy::batched(3, Duration::from_secs(600)),
        );
        let mut rng = Rng::new(17);
        let (d, d_v) = (8usize, 8usize);
        // Three sessions with different (and misaligned) cached lengths.
        let lens = [5usize, 12, 9];
        let mut sessions = Vec::new();
        let mut caches = Vec::new();
        for &len in &lens {
            let s = server.open_session(d, d_v).unwrap();
            let k = Matrix::<f32>::random_normal(len, d, 0.0, 1.0, &mut rng);
            let v = Matrix::<f32>::random_normal(len, d_v, 0.0, 1.0, &mut rng);
            server.extend(s, k.clone(), v.clone()).unwrap();
            sessions.push(s);
            caches.push((k, v));
        }
        let q_rows: Vec<Vec<f32>> = lens.iter().map(|_| row(d, &mut rng)).collect();
        // max_batch = 3: the third submission closes the decode batch.
        let handles: Vec<DecodeHandle<f32>> = sessions
            .iter()
            .zip(&q_rows)
            .map(|(&s, q)| {
                server
                    .submit_decode(DecodeRequest {
                        session: s,
                        q_row: q.clone(),
                    })
                    .unwrap()
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let served = h.wait().expect("served");
            assert_eq!(served.batch_size, 3, "steps must share one ragged launch");
            assert_eq!(served.cached_len, lens[i]);
            assert_eq!(served.session, sessions[i]);
            assert!(served.sim_latency_s > 0.0);
            let mut sctx = GpuCtx::a100();
            let q_row = Matrix::from_vec(1, d, q_rows[i].clone());
            let want = mech.decode(&mut sctx, &q_row, &caches[i].0, &caches[i].1);
            let same = served
                .output
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "stream {i} diverged from solo decode");
        }
        let stats = server.shutdown();
        assert_eq!((stats.decode_steps, stats.decode_batches), (3, 1));
        assert_eq!(stats.max_decode_batch, 3);
        assert_eq!(stats.sessions_opened, 3);
        assert_eq!(stats.kv_rows_appended, 26);
        assert_eq!(stats.kv_bytes_peak, 26 * (8 + 8) * 4);
    }

    /// Round-trip a matrix through bf16 — the host-side model of what a
    /// quantised KV store does to each row at append time.
    fn bf16_round_trip(m: &Matrix<f32>) -> Matrix<f32> {
        Matrix::from_vec(
            m.rows(),
            m.cols(),
            m.as_slice()
                .iter()
                .map(|&x| Bf16::from_f32(x).to_f32())
                .collect(),
        )
    }

    #[test]
    fn bf16_kv_decode_matches_host_widen_model_bitwise() {
        // Three servers over the same mechanism: a bf16-KV server fed the
        // original f32 rows, a native server fed the host-side bf16
        // round-trip of those rows, and a native server fed the originals.
        // The first two must agree BITWISE (bf16 → f32 widening is exact,
        // and the fused widen-on-load kernels keep the reference operation
        // order); the third pins the quantisation error bound.
        let mech: Arc<dyn Attention<f32> + Send + Sync> =
            Arc::new(DfssAttention::new(NmPattern::P2_4));
        let quant_kv = KvConfig {
            kv_dtype: KvDtype::Bf16,
            ..KvConfig::default()
        };
        let server_q =
            AttentionServer::start_with_kv(Arc::clone(&mech), BatchPolicy::per_request(), quant_kv);
        let server_model = AttentionServer::start(Arc::clone(&mech), BatchPolicy::per_request());
        let server_f32 = AttentionServer::start(Arc::clone(&mech), BatchPolicy::per_request());
        let mut rng = Rng::new(41);
        let (d, d_v) = (8usize, 8usize);
        for len in [1usize, 5, 12, 33] {
            let k = Matrix::<f32>::random_normal(len, d, 0.0, 1.0, &mut rng);
            let v = Matrix::<f32>::random_normal(len, d_v, 0.0, 1.0, &mut rng);
            let q = row(d, &mut rng);
            let serve_one = |server: &AttentionServer<f32>, k: &Matrix<f32>, v: &Matrix<f32>| {
                let s = server.open_session(d, d_v).unwrap();
                server.extend(s, k.clone(), v.clone()).unwrap();
                let out = server
                    .submit_decode(DecodeRequest {
                        session: s,
                        q_row: q.clone(),
                    })
                    .unwrap()
                    .wait()
                    .expect("served")
                    .output;
                server.close_session(s).unwrap();
                out
            };
            let got = serve_one(&server_q, &k, &v);
            let model = serve_one(&server_model, &bf16_round_trip(&k), &bf16_round_trip(&v));
            let exact = serve_one(&server_f32, &k, &v);
            for (i, (a, b)) in got.as_slice().iter().zip(model.as_slice()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "len {len} elem {i}: fused bf16 decode diverged from the \
                     host widen-then-f32 model ({a} vs {b})"
                );
            }
            // Error bound vs unquantised f32 KV: bf16 keeps 8 mantissa
            // bits, so each stored element carries relative error ≤ 2⁻⁹.
            // The output is a softmax-convex combination of V rows (|V|
            // drawn standard normal), with the scores themselves perturbed
            // through exp(); a loose but documented envelope is a few
            // times 2⁻⁹ · (1 + |exact|), far below f32 noise only if
            // quantisation were accidentally bypassed.
            for (i, (a, b)) in got.as_slice().iter().zip(exact.as_slice()).enumerate() {
                let tol = 0.05f32 * (1.0 + b.abs());
                assert!(
                    (a - b).abs() <= tol,
                    "len {len} elem {i}: bf16 decode {a} strayed past the \
                     quantisation envelope around f32 decode {b}"
                );
            }
            assert!(
                got.as_slice()
                    .iter()
                    .zip(exact.as_slice())
                    .any(|(a, b)| a.to_bits() != b.to_bits()),
                "len {len}: bf16 decode was bitwise identical to f32 — \
                 quantisation is being bypassed"
            );
        }
        let _ = server_q.shutdown();
        let _ = server_model.shutdown();
        let _ = server_f32.shutdown();
    }

    #[test]
    fn empty_fault_plan_leaves_bf16_kv_decode_untouched() {
        // A fault plan wraps the mechanism in a fault-tripping delegate.
        // With nothing armed the wrapper must be invisible: a bf16-KV step
        // keeps the mechanism's own widen-on-load launch, so the outputs
        // AND the simulated charge (bf16-width cache reads) match a server
        // started without a plan, on both serving loops.
        let mech: Arc<dyn Attention<f32> + Send + Sync> =
            Arc::new(DfssAttention::new(NmPattern::P1_2));
        let kv = KvConfig {
            kv_dtype: KvDtype::Bf16,
            ..KvConfig::default()
        };
        let policy = BatchPolicy::per_request;
        let sched = SchedPolicy::default;
        let pairs = [
            (
                AttentionServer::start_with_kv(Arc::clone(&mech), policy(), kv),
                AttentionServer::start_with_kv_faults(
                    Arc::clone(&mech),
                    policy(),
                    kv,
                    FaultPlan::new(),
                ),
            ),
            (
                AttentionServer::start_continuous_with_kv(Arc::clone(&mech), policy(), sched(), kv),
                AttentionServer::start_continuous_with_kv_faults(
                    Arc::clone(&mech),
                    policy(),
                    sched(),
                    kv,
                    FaultPlan::new(),
                ),
            ),
        ];
        let mut rng = Rng::new(53);
        let (len, d) = (300usize, 16usize);
        let k = Matrix::<f32>::random_normal(len, d, 0.0, 1.0, &mut rng);
        let v = Matrix::<f32>::random_normal(len, d, 0.0, 1.0, &mut rng);
        let q = row(d, &mut rng);
        let serve_one = |server: &AttentionServer<f32>| {
            let s = server.open_session(d, d).unwrap();
            server.extend(s, k.clone(), v.clone()).unwrap();
            let served = server
                .submit_decode(DecodeRequest {
                    session: s,
                    q_row: q.clone(),
                })
                .unwrap()
                .wait()
                .expect("served");
            server.close_session(s).unwrap();
            served
        };
        for (plain, planned) in pairs {
            let (a, b) = (serve_one(&plain), serve_one(&planned));
            assert_eq!(
                a.sim_latency_s.to_bits(),
                b.sim_latency_s.to_bits(),
                "an empty plan changed the simulated charge ({} vs {})",
                a.sim_latency_s,
                b.sim_latency_s
            );
            let same = a
                .output
                .as_slice()
                .iter()
                .zip(b.output.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "an empty plan changed the decode output");
            let _ = plain.shutdown();
            let _ = planned.shutdown();
        }
    }

    #[test]
    fn bf16_kv_halves_governed_bytes_and_doubles_capacity() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        // A budget of one f32 page (= two bf16 pages): a session needs one
        // K page + one V page, so the native store cannot admit anyone.
        let tight = KvConfig {
            page_elems: 16,
            budget_bytes: 16 * 4,
            evict_idle: false,
            kv_dtype: KvDtype::Native,
        };
        let native =
            AttentionServer::start_with_kv(Arc::clone(&mech), BatchPolicy::per_request(), tight);
        assert!(matches!(
            native.open_session(4, 4),
            Err(SessionError::KvBudgetExhausted { .. })
        ));
        let _ = native.shutdown();
        let quant = AttentionServer::start_with_kv(
            Arc::clone(&mech),
            BatchPolicy::per_request(),
            KvConfig {
                kv_dtype: KvDtype::Bf16,
                ..tight
            },
        );
        let s = quant.open_session(4, 4).unwrap();
        let mut rng = Rng::new(7);
        // 4 rows of width 4 fill exactly one bf16 page per side.
        for _ in 0..4 {
            quant.append(s, row(4, &mut rng), row(4, &mut rng)).unwrap();
        }
        let q = row(4, &mut rng);
        let served = quant
            .submit_decode(DecodeRequest {
                session: s,
                q_row: q,
            })
            .unwrap()
            .wait()
            .expect("served");
        assert_eq!(served.cached_len, 4);
        let stats = quant.shutdown();
        // Governed bytes are charged at the stored width: 2 bytes/element.
        assert_eq!(stats.kv_bytes_peak, 4 * (4 + 4) * 2);
        assert_eq!(stats.kv_pages_allocated, 2);
    }

    #[test]
    fn appends_after_a_queued_decode_do_not_leak_into_it() {
        // The decode step must see the cache as of its submission even if
        // an append for the same session arrives while it waits for
        // batch-mates.
        let mech: Arc<dyn Attention<f32> + Send + Sync> =
            Arc::new(DfssAttention::new(NmPattern::P1_2));
        let server = AttentionServer::start(
            Arc::clone(&mech),
            BatchPolicy::batched(1000, Duration::from_secs(600)),
        );
        let mut rng = Rng::new(19);
        let (d, d_v) = (8usize, 8usize);
        let s = server.open_session(d, d_v).unwrap();
        let k = Matrix::<f32>::random_normal(6, d, 0.0, 1.0, &mut rng);
        let v = Matrix::<f32>::random_normal(6, d_v, 0.0, 1.0, &mut rng);
        server.extend(s, k.clone(), v.clone()).unwrap();
        let q = row(d, &mut rng);
        let handle = server
            .submit_decode(DecodeRequest {
                session: s,
                q_row: q.clone(),
            })
            .unwrap();
        // This append forces the queued step to flush against the 6-row
        // cache before the 7th row lands.
        server
            .append(s, row(d, &mut rng), row(d_v, &mut rng))
            .unwrap();
        let served = handle.wait().expect("served");
        assert_eq!(served.cached_len, 6);
        let mut sctx = GpuCtx::a100();
        let want = mech.decode(&mut sctx, &Matrix::from_vec(1, d, q), &k, &v);
        let same = served
            .output
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "queued decode saw appended rows");
        let _ = server.shutdown();
    }

    #[test]
    fn session_front_door_rejects_bad_operations() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start(Arc::clone(&mech), BatchPolicy::per_request());
        let ghost = SessionId(999);
        assert_eq!(
            server
                .append(ghost, vec![0.0; 4], vec![0.0; 4])
                .unwrap_err(),
            SessionError::UnknownSession(ghost)
        );
        let s = server.open_session(4, 4).unwrap();
        // Wrong widths.
        assert!(matches!(
            server.append(s, vec![0.0; 3], vec![0.0; 4]).unwrap_err(),
            SessionError::Rejected(RequestError::DecodeShapeMismatch { .. })
        ));
        // Decode against an empty cache.
        assert!(matches!(
            server
                .submit_decode(DecodeRequest {
                    session: s,
                    q_row: vec![0.0; 4]
                })
                .unwrap_err(),
            SessionError::Rejected(RequestError::EmptyRequest)
        ));
        // Close, then everything is unknown.
        server.close_session(s).unwrap();
        assert_eq!(
            server.close_session(s).unwrap_err(),
            SessionError::UnknownSession(s)
        );
        let stats = server.shutdown();
        assert_eq!((stats.sessions_opened, stats.sessions_closed), (1, 1));
        assert_eq!(stats.decode_steps, 0);
    }

    #[test]
    fn shutdown_drains_queued_decode_steps() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> =
            Arc::new(DfssAttention::new(NmPattern::P1_2));
        let server = AttentionServer::start(
            Arc::clone(&mech),
            BatchPolicy::batched(1000, Duration::from_secs(600)),
        );
        let mut rng = Rng::new(23);
        let s = server.open_session(8, 8).unwrap();
        server
            .extend(
                s,
                Matrix::random_normal(4, 8, 0.0, 1.0, &mut rng),
                Matrix::random_normal(4, 8, 0.0, 1.0, &mut rng),
            )
            .unwrap();
        let handle = server
            .submit_decode(DecodeRequest {
                session: s,
                q_row: row(8, &mut rng),
            })
            .unwrap();
        let stats = server.shutdown();
        assert_eq!((stats.decode_steps, stats.decode_batches), (1, 1));
        assert!(handle.wait().is_ok());
    }

    #[test]
    fn mixed_width_decode_flush_counts_per_launch_batches() {
        // Two sessions with different head widths land in separate (d, d_v)
        // buckets of the same flush: stats must count one batch per ragged
        // launch group, each sized by its own streams — not one flush-wide
        // blob.
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start(
            Arc::clone(&mech),
            BatchPolicy::batched(2, Duration::from_secs(600)),
        );
        let mut rng = Rng::new(29);
        let mut handles = Vec::new();
        for d in [4usize, 8] {
            let s = server.open_session(d, d).unwrap();
            server
                .extend(
                    s,
                    Matrix::random_normal(5, d, 0.0, 1.0, &mut rng),
                    Matrix::random_normal(5, d, 0.0, 1.0, &mut rng),
                )
                .unwrap();
            handles.push(
                server
                    .submit_decode(DecodeRequest {
                        session: s,
                        q_row: row(d, &mut rng),
                    })
                    .unwrap(),
            );
        }
        for h in handles {
            let served = h.wait().expect("served");
            assert_eq!(served.batch_size, 1, "each width is its own launch");
        }
        let stats = server.shutdown();
        assert_eq!(stats.decode_steps, 2);
        assert_eq!(stats.decode_batches, 2, "one batch per ragged launch");
        assert_eq!(stats.max_decode_batch, 1);
    }

    /// A 4-wide session at page_elems = 16 stores 4 rows per page per side.
    fn tight_kv(pages: u64, evict_idle: bool) -> crate::KvConfig {
        crate::KvConfig {
            page_elems: 16,
            budget_bytes: pages * 16 * 4,
            evict_idle,
            ..crate::KvConfig::default()
        }
    }

    #[test]
    fn budget_exhaustion_is_typed_back_pressure_not_a_panic() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        // 4 pages, no eviction: one 8-row session of width 4 fills the pool
        // (2 K pages + 2 V pages).
        let server = AttentionServer::start_with_kv(
            Arc::clone(&mech),
            BatchPolicy::per_request(),
            tight_kv(4, false),
        );
        let mut rng = Rng::new(41);
        let s1 = server.open_session(4, 4).unwrap();
        server
            .extend(
                s1,
                Matrix::random_normal(8, 4, 0.0, 1.0, &mut rng),
                Matrix::random_normal(8, 4, 0.0, 1.0, &mut rng),
            )
            .unwrap();
        // The 9th row needs a fresh page pair and the pool has none.
        assert_eq!(
            server.append(s1, vec![0.0; 4], vec![0.0; 4]).unwrap_err(),
            SessionError::KvBudgetExhausted { need: 2, free: 0 }
        );
        // A pinned pool refuses new sessions too (nothing could ever grow).
        assert!(matches!(
            server.open_session(4, 4).unwrap_err(),
            SessionError::KvBudgetExhausted { .. }
        ));
        // The rejected session is intact: decode still serves all 8 rows.
        let served = server
            .submit_decode(DecodeRequest {
                session: s1,
                q_row: row(4, &mut rng),
            })
            .unwrap()
            .wait()
            .expect("served");
        assert_eq!(served.cached_len, 8);
        // Closing returns the pages; admission recovers.
        server.close_session(s1).unwrap();
        let s3 = server.open_session(4, 4).unwrap();
        server.append(s3, vec![1.0; 4], vec![2.0; 4]).unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.admission_rejections, 2);
        assert_eq!(stats.evictions, 0);
        // 4 pages for s1 + 2 for s3's first row; s1's came back at close,
        // s3's at the shutdown drain — allocated and freed reconcile.
        assert_eq!(stats.kv_pages_allocated, 6);
        assert_eq!(stats.kv_pages_freed, 6);
    }

    #[test]
    fn eviction_frees_the_deterministic_lru_victim() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start_with_kv(
            Arc::clone(&mech),
            BatchPolicy::per_request(),
            tight_kv(4, true),
        );
        let mut rng = Rng::new(43);
        // Two sessions fill the pool (2 pages each)…
        let s1 = server.open_session(4, 4).unwrap();
        server
            .extend(
                s1,
                Matrix::random_normal(4, 4, 0.0, 1.0, &mut rng),
                Matrix::random_normal(4, 4, 0.0, 1.0, &mut rng),
            )
            .unwrap();
        let s2 = server.open_session(4, 4).unwrap();
        server
            .extend(
                s2,
                Matrix::random_normal(4, 4, 0.0, 1.0, &mut rng),
                Matrix::random_normal(4, 4, 0.0, 1.0, &mut rng),
            )
            .unwrap();
        // …then a decode touches s1, making s2 the LRU victim.
        let served = server
            .submit_decode(DecodeRequest {
                session: s1,
                q_row: row(4, &mut rng),
            })
            .unwrap()
            .wait()
            .expect("served");
        assert_eq!(served.cached_len, 4);
        // A newcomer's first row forces exactly one eviction: s2.
        let s3 = server.open_session(4, 4).unwrap();
        server.append(s3, vec![1.0; 4], vec![2.0; 4]).unwrap();
        // The victim's history is gone — typed errors, not panics.
        assert_eq!(
            server
                .submit_decode(DecodeRequest {
                    session: s2,
                    q_row: vec![0.0; 4],
                })
                .unwrap_err(),
            SessionError::Evicted(s2)
        );
        assert_eq!(
            server.append(s2, vec![0.0; 4], vec![0.0; 4]).unwrap_err(),
            SessionError::Evicted(s2)
        );
        // The survivor still decodes over its full history.
        let served = server
            .submit_decode(DecodeRequest {
                session: s1,
                q_row: row(4, &mut rng),
            })
            .unwrap()
            .wait()
            .expect("served");
        assert_eq!(served.cached_len, 4);
        // Closing retires the evicted id like any other.
        server.close_session(s2).unwrap();
        assert_eq!(
            server.close_session(s2).unwrap_err(),
            SessionError::UnknownSession(s2)
        );
        let stats = server.shutdown();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.admission_rejections, 0);
        // Counters reconcile with the lifecycle: 2+2+2 pages handed out,
        // s2's 2 reclaimed by eviction (its close frees nothing), s1's and
        // s3's 2 each reclaimed by the shutdown drain.
        assert_eq!(stats.kv_pages_allocated, 6);
        assert_eq!(stats.kv_pages_freed, 6);
        assert_eq!(stats.sessions_opened, 3);
        assert_eq!(stats.sessions_closed, 1);
    }

    #[test]
    fn inflight_sessions_are_never_evicted() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        // Decode queue holds steps until shutdown (huge batch + deadline),
        // so s1 stays inflight while the newcomer asks for pages.
        let server = AttentionServer::start_with_kv(
            Arc::clone(&mech),
            BatchPolicy::batched(1000, Duration::from_secs(600)),
            tight_kv(2, true),
        );
        let mut rng = Rng::new(47);
        let s1 = server.open_session(4, 4).unwrap();
        server
            .extend(
                s1,
                Matrix::random_normal(4, 4, 0.0, 1.0, &mut rng),
                Matrix::random_normal(4, 4, 0.0, 1.0, &mut rng),
            )
            .unwrap();
        let handle = server
            .submit_decode(DecodeRequest {
                session: s1,
                q_row: row(4, &mut rng),
            })
            .unwrap();
        // The pool is full and its only occupant is inflight: the
        // newcomer is refused rather than corrupting the queued step.
        assert!(matches!(
            server.open_session(4, 4).unwrap_err(),
            SessionError::KvBudgetExhausted { .. }
        ));
        let stats = server.shutdown();
        assert!(handle.wait().is_ok(), "queued step still served");
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.admission_rejections, 1);
    }

    #[test]
    fn close_decrements_kv_bytes_so_peak_stays_flat() {
        // Regression: PR 5 never decremented kv_bytes on close, so
        // open→append→close cycles ratcheted kv_bytes_peak forever.
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start(Arc::clone(&mech), BatchPolicy::per_request());
        let mut rng = Rng::new(53);
        for _ in 0..3 {
            let s = server.open_session(8, 8).unwrap();
            server
                .extend(
                    s,
                    Matrix::random_normal(10, 8, 0.0, 1.0, &mut rng),
                    Matrix::random_normal(10, 8, 0.0, 1.0, &mut rng),
                )
                .unwrap();
            server.close_session(s).unwrap();
        }
        let stats = server.shutdown();
        // One session's logical bytes, not three sessions' worth.
        assert_eq!(stats.kv_bytes_peak, 10 * (8 + 8) * 4);
        assert_eq!(stats.kv_pages_allocated, stats.kv_pages_freed);
    }

    #[test]
    fn idle_server_records_no_batches() {
        // Deadline-close with an empty queue must be a no-op: a server that
        // saw no traffic reports zero launches of either kind.
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server: AttentionServer<f32> = AttentionServer::start(
            Arc::clone(&mech),
            BatchPolicy::batched(4, Duration::from_millis(1)),
        );
        std::thread::sleep(Duration::from_millis(20));
        let stats = server.shutdown();
        assert_eq!((stats.batches, stats.decode_batches), (0, 0));
        assert_eq!(stats.total_sim_latency_s, 0.0);
    }

    #[test]
    fn poisoned_registry_heals_and_restores_invariants() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start_with_kv(
            Arc::clone(&mech),
            BatchPolicy::per_request(),
            tight_kv(4, false),
        );
        let mut rng = Rng::new(59);
        let s1 = server.open_session(4, 4).unwrap();
        server
            .extend(
                s1,
                Matrix::random_normal(4, 4, 0.0, 1.0, &mut rng),
                Matrix::random_normal(4, 4, 0.0, 1.0, &mut rng),
            )
            .unwrap();
        // A client thread dies while holding the registry lock, leaving
        // scribbled mirror counters behind a poisoned mutex.
        let registry = Arc::clone(&server.registry);
        let scribbler = std::thread::spawn(move || {
            let mut reg = registry.lock().unwrap();
            reg.pages_used = 9999;
            reg.kv_bytes = u64::MAX;
            panic!("client died mid-critical-section");
        });
        assert!(scribbler.join().is_err(), "scribbler must poison the lock");
        // Every later lock heals the poison and recomputes the mirrors from
        // the per-session metadata — without the heal, free-page arithmetic
        // under pages_used = 9999 would underflow on the next admission.
        let s2 = server.open_session(4, 4).unwrap();
        server.append(s2, vec![1.0; 4], vec![2.0; 4]).unwrap();
        let served = server
            .submit_decode(DecodeRequest {
                session: s1,
                q_row: row(4, &mut rng),
            })
            .unwrap()
            .wait()
            .expect("served after heal");
        assert_eq!(served.cached_len, 4);
        server.close_session(s1).unwrap();
        server.close_session(s2).unwrap();
        let stats = server.shutdown();
        // The lifetime counters come out exact, not scribbled: s1's 4 rows
        // took a K+V page pair, s2's single row another.
        assert_eq!(stats.kv_pages_allocated, 4);
        assert_eq!(stats.kv_pages_freed, 4);
        assert_eq!(stats.kv_bytes_peak, (4 * 8 * 4 + 8 * 4) as u64);
    }

    #[test]
    fn batch_panic_fails_only_its_batch_and_the_server_keeps_serving() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let plan = FaultPlan::new().inject(0, FaultKind::PanicInBatch);
        let server = AttentionServer::start_with_faults(
            Arc::clone(&mech),
            BatchPolicy::batched(2, Duration::from_millis(5)),
            plan,
        );
        let mut rng = Rng::new(61);
        // First batch of two is poisoned by the fault riding request 0:
        // both its requests fail typed, with the payload preserved.
        let (q, k, v) = request(16, 8, &mut rng);
        let h0 = server.submit(q, k, v).unwrap();
        let (q, k, v) = request(16, 8, &mut rng);
        let h1 = server.submit(q, k, v).unwrap();
        for h in [h0, h1] {
            match h.wait().expect_err("batch poisoned") {
                ServeError::BatchPanicked { payload } => {
                    assert!(payload.contains("injected kernel panic"));
                }
                other => panic!("want BatchPanicked, got {other}"),
            }
        }
        // The next batch is served normally by the same recovered batcher.
        let (q, k, v) = request(16, 8, &mut rng);
        let h2 = server.submit(q, k, v).unwrap();
        let (q, k, v) = request(16, 8, &mut rng);
        let h3 = server.submit(q, k, v).unwrap();
        assert!(h2.wait().is_ok());
        assert!(h3.wait().is_ok());
        let stats = server.shutdown();
        assert_eq!(stats.batch_panics, 1);
        assert_eq!(stats.served, 2);
        assert_eq!(stats.batches, 1, "the poisoned launch never counts");
    }

    #[test]
    fn decode_batch_panic_is_isolated_and_the_session_survives() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        // Front-door ordinals: open = 0, extend = 1, decode = 2.
        let plan = FaultPlan::new().inject(2, FaultKind::PanicInBatch);
        let server =
            AttentionServer::start_with_faults(Arc::clone(&mech), BatchPolicy::per_request(), plan);
        let mut rng = Rng::new(67);
        let s = server.open_session(8, 8).unwrap();
        server
            .extend(
                s,
                Matrix::random_normal(6, 8, 0.0, 1.0, &mut rng),
                Matrix::random_normal(6, 8, 0.0, 1.0, &mut rng),
            )
            .unwrap();
        let err = server
            .submit_decode(DecodeRequest {
                session: s,
                q_row: row(8, &mut rng),
            })
            .unwrap()
            .wait()
            .expect_err("poisoned step");
        assert!(matches!(err, ServeError::BatchPanicked { .. }));
        // The cache is untouched (decode reads it, never writes) and the
        // inflight mark was released: the very next step serves over the
        // full history.
        let served = server
            .submit_decode(DecodeRequest {
                session: s,
                q_row: row(8, &mut rng),
            })
            .unwrap()
            .wait()
            .expect("served after recovery");
        assert_eq!(served.cached_len, 6);
        server.close_session(s).unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.batch_panics, 1);
        assert_eq!(stats.decode_steps, 1);
        assert_eq!(stats.kv_pages_allocated, stats.kv_pages_freed);
    }

    #[test]
    fn expired_deadlines_shed_typed_before_packing() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start(
            Arc::clone(&mech),
            BatchPolicy::batched(8, Duration::from_millis(20)),
        );
        let mut rng = Rng::new(71);
        let (q, k, v) = request(16, 8, &mut rng);
        // Already expired at submission: shed when the bucket closes,
        // never packed into the launch.
        let past = Instant::now() - Duration::from_millis(1);
        let doomed = server.submit_with_deadline(q, k, v, Some(past)).unwrap();
        let (q, k, v) = request(16, 8, &mut rng);
        let live = server.submit(q, k, v).unwrap();
        match doomed.wait().expect_err("shed") {
            ServeError::DeadlineExceeded { queued_for } => assert!(queued_for > Duration::ZERO),
            other => panic!("want DeadlineExceeded, got {other}"),
        }
        let served = live.wait().expect("served");
        assert_eq!(served.batch_size, 1, "the shed request freed its slot");
        let stats = server.shutdown();
        assert_eq!(stats.deadline_sheds, 1);
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn expired_decode_deadlines_shed_typed() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start(
            Arc::clone(&mech),
            BatchPolicy::batched(8, Duration::from_millis(20)),
        );
        let mut rng = Rng::new(73);
        let s = server.open_session(8, 8).unwrap();
        server
            .extend(
                s,
                Matrix::random_normal(2, 8, 0.0, 1.0, &mut rng),
                Matrix::random_normal(2, 8, 0.0, 1.0, &mut rng),
            )
            .unwrap();
        let past = Instant::now() - Duration::from_millis(1);
        let doomed = server
            .submit_decode_with_deadline(
                DecodeRequest {
                    session: s,
                    q_row: row(8, &mut rng),
                },
                Some(past),
            )
            .unwrap();
        let live = server
            .submit_decode(DecodeRequest {
                session: s,
                q_row: row(8, &mut rng),
            })
            .unwrap();
        assert!(matches!(
            doomed.wait(),
            Err(ServeError::DeadlineExceeded { .. })
        ));
        assert_eq!(live.wait().expect("served").cached_len, 2);
        server.close_session(s).unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.deadline_sheds, 1);
        assert_eq!(stats.decode_steps, 1);
    }

    #[test]
    fn queue_depth_bound_sheds_submissions_typed() {
        use crate::retry::Transient;
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        // Huge batch + deadline: the two admitted requests stay queued, so
        // the third submission observes the bound deterministically.
        let server = AttentionServer::start(
            Arc::clone(&mech),
            BatchPolicy::batched(1000, Duration::from_secs(600)).with_queue_depth(2),
        );
        let mut rng = Rng::new(79);
        let (q, k, v) = request(16, 8, &mut rng);
        let h0 = server.submit(q, k, v).unwrap();
        let (q, k, v) = request(16, 8, &mut rng);
        let h1 = server.submit(q, k, v).unwrap();
        let (q, k, v) = request(16, 8, &mut rng);
        let err = server.submit(q, k, v).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { depth: 2 }));
        assert!(err.is_transient(), "overload is worth retrying");
        // The bound spans prefill and decode: the same full queue sheds a
        // decode step with the session-typed twin.
        let s = server.open_session(8, 8).unwrap();
        server
            .extend(
                s,
                Matrix::random_normal(2, 8, 0.0, 1.0, &mut rng),
                Matrix::random_normal(2, 8, 0.0, 1.0, &mut rng),
            )
            .unwrap();
        let err = server
            .submit_decode(DecodeRequest {
                session: s,
                q_row: row(8, &mut rng),
            })
            .unwrap_err();
        assert_eq!(err, SessionError::Overloaded { depth: 2 });
        assert!(err.is_transient());
        let stats = server.shutdown();
        assert!(h0.wait().is_ok(), "admitted requests drain at shutdown");
        assert!(h1.wait().is_ok());
        assert_eq!(stats.overload_sheds, 2);
        assert_eq!(stats.served, 2);
        assert_eq!(stats.decode_steps, 0);
    }

    #[test]
    fn killed_batcher_never_blocks_waiters() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let plan = FaultPlan::new().inject(0, FaultKind::KillServer);
        let server =
            AttentionServer::start_with_faults(Arc::clone(&mech), BatchPolicy::per_request(), plan);
        let mut rng = Rng::new(83);
        let (q, k, v) = request(16, 8, &mut rng);
        let h = server.submit(q, k, v).unwrap();
        assert!(matches!(h.wait(), Err(ServeError::ServerGone)));
        // Later submissions still enqueue (submission is infallible for
        // valid requests) but resolve ServerGone too — nothing hangs.
        let (q, k, v) = request(16, 8, &mut rng);
        let h = server.submit(q, k, v).unwrap();
        assert!(matches!(
            h.wait_timeout(Duration::from_secs(30)),
            Err(ServeError::ServerGone)
        ));
        let stats = server.shutdown();
        assert_eq!(stats.served, 0);
    }

    #[test]
    fn wait_blocked_before_shutdown_resolves_never_hangs() {
        // The latent drain race: a caller already blocked in wait() when
        // shutdown() starts must resolve — served by the drain or typed
        // ServerGone — never hang on a channel whose sender is being torn
        // down. Pinned with a bucket that would otherwise stay open 600 s.
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start(
            Arc::clone(&mech),
            BatchPolicy::batched(1000, Duration::from_secs(600)),
        );
        let mut rng = Rng::new(97);
        let (q, k, v) = request(16, 8, &mut rng);
        let h = server.submit(q, k, v).unwrap();
        let waiter = std::thread::spawn(move || h.wait());
        // Give the waiter time to actually block in recv() first.
        std::thread::sleep(Duration::from_millis(50));
        let stats = server.shutdown();
        let deadline = Instant::now() + Duration::from_secs(30);
        while !waiter.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(waiter.is_finished(), "wait() hung across shutdown");
        let resolved = waiter.join().expect("waiter must not panic");
        let served = resolved.expect("the shutdown drain serves queued work");
        assert_eq!(served.batch_size, 1);
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn wait_timeout_is_typed_and_rewaitable() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start(
            Arc::clone(&mech),
            BatchPolicy::batched(1000, Duration::from_secs(600)),
        );
        let mut rng = Rng::new(89);
        let (q, k, v) = request(16, 8, &mut rng);
        let h = server.submit(q, k, v).unwrap();
        // The bucket stays open for 600 s; a bounded wait gives up typed
        // instead of blocking.
        assert!(matches!(
            h.wait_timeout(Duration::from_millis(30)),
            Err(ServeError::WaitTimeout)
        ));
        // The request itself is still queued: the shutdown drain serves it
        // and the same handle then resolves with the output.
        let stats = server.shutdown();
        let served = h.wait().expect("drained at shutdown");
        assert_eq!(served.batch_size, 1);
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn shutdown_drains_queued_steps_open_sessions_and_inflight_faults() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        // Ordinals: open = 0, extend = 1, open = 2, extend = 3, decode = 4,
        // decode = 5 — the second queued step rides a slowed launch.
        let plan = FaultPlan::new().inject(5, FaultKind::SlowLaunch(Duration::from_millis(2)));
        let server = AttentionServer::start_with_kv_faults(
            Arc::clone(&mech),
            BatchPolicy::batched(1000, Duration::from_secs(600)),
            tight_kv(8, false),
            plan,
        );
        let mut rng = Rng::new(97);
        let s1 = server.open_session(4, 4).unwrap();
        server
            .extend(
                s1,
                Matrix::random_normal(4, 4, 0.0, 1.0, &mut rng),
                Matrix::random_normal(4, 4, 0.0, 1.0, &mut rng),
            )
            .unwrap();
        let s2 = server.open_session(4, 4).unwrap();
        server
            .extend(
                s2,
                Matrix::random_normal(4, 4, 0.0, 1.0, &mut rng),
                Matrix::random_normal(4, 4, 0.0, 1.0, &mut rng),
            )
            .unwrap();
        let h1 = server
            .submit_decode(DecodeRequest {
                session: s1,
                q_row: row(4, &mut rng),
            })
            .unwrap();
        let h2 = server
            .submit_decode(DecodeRequest {
                session: s2,
                q_row: row(4, &mut rng),
            })
            .unwrap();
        // Shutdown with both steps queued and both sessions still open:
        // the drain serves the steps (through the slowed launch) and the
        // abandoned sessions' pages come back, so the lifetime counters
        // reconcile exactly.
        let stats = server.shutdown();
        assert_eq!(h1.wait().expect("drained").cached_len, 4);
        assert_eq!(h2.wait().expect("drained").cached_len, 4);
        assert_eq!(stats.decode_steps, 2);
        assert_eq!(stats.sessions_opened, 2);
        assert_eq!(stats.sessions_closed, 0);
        assert_eq!(stats.kv_pages_allocated, 4);
        assert_eq!(stats.kv_pages_freed, 4);
    }
}
