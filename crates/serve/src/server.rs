//! The attention server: an admission front door on the caller's thread
//! and one worker thread running the one serving loop.
//!
//! The worker drains the front door's channel, then runs one
//! [`Scheduler`] iteration: every ready decode step as one ragged launch
//! per op, then each planned prefill chunk — a whole job or a row slice of
//! one — as its own launch, in plan order.
//! Sessions add a registry (synchronous admission checks on the caller's
//! thread) and per-session [`PagedKvCache`] page tables over one
//! worker-owned [`KvPool`]. Every KV row write takes one path: `append` is
//! the one-row `extend`, one `Msg::Extend` carries it to the worker, and
//! one generic body ([`Sessions`]) writes it into the page for either KV
//! dtype, narrowing to bf16 on write under [`KvDtype::Bf16`].
//!
//! **Decode determinism**: a decode step attends over exactly the rows its
//! session had appended before the step was submitted. The worker
//! enforces this by flushing the queued decode steps before applying an
//! append, extend, close or eviction for a session that has one queued —
//! cache mutations can never race ahead of a waiting decode.
//!
//! **Memory governance**: the registry mirrors every session's page count,
//! so admission *reserves* pool pages synchronously before a row is
//! accepted. Reservation failure surfaces as typed back-pressure
//! ([`SessionError::KvBudgetExhausted`]) or, under
//! [`KvConfig::evict_idle`], evicts idle sessions in deterministic LRU
//! order (oldest `last_used`, ties to the smallest id) until the
//! reservation fits. Every session-mutating message is sent **while the
//! registry lock is held**, so the worker observes mutations in the exact
//! order the accounting admitted them — its pool allocation can therefore
//! never fail, and the budget is enforced without the worker ever
//! blocking a client.

use crate::faults::{FaultArm, FaultKind, FaultPlan, FaultyAttention};
use crate::kv::{KvConfig, KvDtype, KvPool, PagedKvCache, SessionId};
use crate::sched::{ChunkPlan, IterationPlan, SchedPolicy, SchedTrace, Scheduler};
use crate::{BatchPolicy, DecodeRequest, ServeError, ServeStats, SessionError};
use dfss_core::engine::{AttentionEngine, DecodeStep};
use dfss_core::mechanism::{try_check_qkv, Attention, RequestError};
use dfss_tensor::{Bf16, Matrix, Scalar};
use std::borrow::Cow;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reply ticket: one sequence per server, shared by prefill and decode
/// replies, monotone in the order replies are issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(pub u64);

/// The shape a prefill job is admitted with — the key of the prefill
/// queue-depth gauges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    /// Sequence length (query rows = keys).
    pub n: usize,
    /// Query/key width.
    pub d: usize,
    /// Value width.
    pub d_v: usize,
}

/// One served prefill request, with its latency breakdown.
#[derive(Debug)]
pub struct Served<T: Scalar> {
    /// The attention output, bit-identical to a solo `forward` call.
    pub output: Matrix<T>,
    /// Reply ticket (see [`Ticket`]).
    pub ticket: Ticket,
    /// The request's shape.
    pub bucket: ShapeKey,
    /// Admission → first launch.
    pub queue_wait: std::time::Duration,
    /// First launch → output ready (host wall-clock of the launches).
    pub service: std::time::Duration,
    /// Admission → response (end-to-end host latency).
    pub latency: std::time::Duration,
    /// Simulated-device latency of the request's launches, summed over its
    /// chunks — a job run whole is one chunk, charged as its solo
    /// `forward`.
    pub sim_latency_s: f64,
}

/// One served decode step, with its latency breakdown.
#[derive(Debug)]
pub struct ServedDecode<T: Scalar> {
    /// The `1 × d_v` output row, bit-identical to a solo decode of the
    /// session's cache.
    pub output: Matrix<T>,
    /// Reply ticket (see [`Ticket`]).
    pub ticket: Ticket,
    /// The session the step decoded.
    pub session: SessionId,
    /// The session's cached length the step attended over.
    pub cached_len: usize,
    /// Concurrent streams that shared the step's ragged launch.
    pub batch_size: usize,
    /// Admission → launch.
    pub queue_wait: std::time::Duration,
    /// Launch → outputs ready (host wall-clock of the launches).
    pub service: std::time::Duration,
    /// Admission → response (end-to-end host latency).
    pub latency: std::time::Duration,
    /// Simulated-device latency of the step's whole ragged launch.
    pub sim_latency_s: f64,
}

/// Client-side handle for one submitted request, resolving to its reply
/// `R`: a [`Served`] prefill ([`ResponseHandle`]) or a [`ServedDecode`]
/// step ([`DecodeHandle`]).
#[derive(Debug)]
pub struct Handle<R> {
    rx: Receiver<Result<R, ServeError>>,
}

/// Client-side handle for one submitted prefill request.
pub type ResponseHandle<T> = Handle<Served<T>>;

/// Client-side handle for one submitted decode step.
pub type DecodeHandle<T> = Handle<ServedDecode<T>>;

impl<R> Handle<R> {
    /// Block until the request is served, or fail typed: a dead worker
    /// (crash or shutdown before service) surfaces as
    /// [`ServeError::ServerGone`], never a hang or a propagated panic.
    pub fn wait(self) -> Result<R, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ServerGone))
    }

    /// Like [`wait`](Self::wait) but bounded: returns
    /// [`ServeError::WaitTimeout`] if the response has not arrived within
    /// `timeout`. Takes `&self`, so a timed-out handle can be waited
    /// again (the request is still in flight).
    pub fn wait_timeout(&self, timeout: Duration) -> Result<R, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(res) => res,
            Err(RecvTimeoutError::Timeout) => Err(ServeError::WaitTimeout),
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::ServerGone),
        }
    }
}

type Reply<R> = SyncSender<Result<R, ServeError>>;

/// Synchronous admission view of one session (the caches themselves live
/// on the worker thread; the registry mirrors their geometry exactly).
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
/// a synchronous mirror of the worker's pool occupancy that lets the
/// front door reserve pages (and so apply back-pressure) without a
/// round-trip to the worker thread.
struct Registry {
    sessions: HashMap<u64, SessionMeta>,
    /// Pool pages the budget admits in total.
    capacity_pages: usize,
    /// Pages reserved by open sessions (== the pool's allocated count
    /// once the worker has drained the channel).
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
/// thread (a client killed mid-call, a worker fault) therefore cannot
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

/// Lock a mutex shared with the worker, healing poison. The serve paths
/// catch panics before they can unwind through a critical section, but
/// the counters, gauges and trace are observable live (`/metrics`), so a
/// reader must never be brickable by a writer's death either.
fn lock<U>(m: &Mutex<U>) -> MutexGuard<'_, U> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A live snapshot of the worker's unfinished work — what `GET /metrics`
/// reports as depth gauges. The worker publishes it right after each
/// channel drain, before the iteration it drained for runs, and again
/// before it blocks idle, so the gauges show work in flight, read empty
/// on an idle server, and trail the channel by at most one drain.
#[derive(Clone, Debug, Default)]
pub struct QueueDepths {
    /// Admitted prefill jobs not yet finished or failed, per shape,
    /// sorted by `(n, d, d_v)`.
    pub prefill: Vec<(ShapeKey, usize)>,
    /// Decode steps drained for the next (or the running) ragged launch.
    pub decode: usize,
}

/// A prefill request as admitted: everything but its matrices.
struct Admission<T: Scalar> {
    key: ShapeKey,
    /// When the client submitted it (queue-wait measurement origin).
    submitted: Instant,
    /// Absolute shed point: a job still unlaunched (or mid-way through
    /// its chunks) after this instant is dropped with `DeadlineExceeded`.
    deadline: Option<Instant>,
    /// Injected fault, taken (armed) at the job's first launch.
    fault: Option<FaultKind>,
    reply: Reply<Served<T>>,
}

enum Msg<T: Scalar> {
    Request {
        q: Matrix<T>,
        k: Matrix<T>,
        v: Matrix<T>,
        adm: Admission<T>,
    },
    Open {
        id: u64,
        d: usize,
        d_v: usize,
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
    Decode(PendingDecode<T>),
    Shutdown,
}

/// An async attention server over one mechanism.
///
/// `submit` is the prefill admission front door: it validates the triple
/// against the mechanism's shape constraints on the caller's thread (typed
/// [`RequestError`], never a panic) and enqueues it to the worker thread,
/// returning a [`ResponseHandle`] immediately. The worker's [`Scheduler`]
/// plans each job in chunks under the server's [`SchedPolicy`], and every
/// planned chunk runs as one [`AttentionEngine::forward_chunk`], in plan
/// order. A mechanism without row chunking
/// ([`Attention::supports_row_chunking`]) always runs its jobs whole.
///
/// `open_session` / `append` / `submit_decode` / `close_session` are the
/// decode front door: sessions own [`PagedKvCache`] page tables over one
/// worker-owned [`KvPool`], admission checks (shapes **and** the KV page
/// budget) run synchronously against a shared registry, and every decode
/// step ready at an iteration joins one [`AttentionEngine::flush_decode`] —
/// a single **ragged** launch per op across all streams, whatever their
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
    /// Unresolved requests, the quantity [`BatchPolicy::max_queue_depth`]
    /// bounds: a prefill counts from admission until it finishes or
    /// fails, a decode step until its launch begins.
    depth: Arc<AtomicU64>,
    registry: Arc<Mutex<Registry>>,
    /// Lifetime counters, shared with the worker so observers can read
    /// them live ([`stats_snapshot`](Self::stats_snapshot)) instead of
    /// only at shutdown.
    stats: Arc<Mutex<ServeStats>>,
    /// Live queue-depth snapshot, published by the worker.
    depths: Arc<Mutex<QueueDepths>>,
    /// The scheduler's replayable event log, published by the worker
    /// before each iteration runs.
    sched_trace: Arc<Mutex<SchedTrace>>,
    worker: Option<JoinHandle<()>>,
}

impl<T: Scalar> AttentionServer<T> {
    /// Start a server on the paper's evaluation device (A100 simulation)
    /// with the default [`SchedPolicy`] and an unbounded KV budget.
    pub fn start(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
    ) -> AttentionServer<T> {
        AttentionServer::spawn(
            mech,
            policy,
            SchedPolicy::default(),
            KvConfig::default(),
            None,
        )
    }

    /// [`start`](Self::start) with an explicit KV geometry and byte
    /// budget.
    pub fn start_with_kv(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
        kv: KvConfig,
    ) -> AttentionServer<T> {
        AttentionServer::spawn(mech, policy, SchedPolicy::default(), kv, None)
    }

    /// [`start`](Self::start) with a deterministic [`FaultPlan`] (chaos
    /// testing): the plan's faults fire at the scheduled front-door
    /// operation indices — see [`FaultKind`] for what each does.
    pub fn start_with_faults(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
        faults: FaultPlan,
    ) -> AttentionServer<T> {
        AttentionServer::spawn(
            mech,
            policy,
            SchedPolicy::default(),
            KvConfig::default(),
            Some(faults),
        )
    }

    /// Start a server with an explicit [`SchedPolicy`], KV geometry and
    /// byte budget. Each scheduler iteration packs every ready decode
    /// step with prefill chunks of at most `SchedPolicy::prefill_chunk`
    /// rows, resumable across iterations, under
    /// `SchedPolicy::iter_budget_rows`: no decode step waits behind a
    /// whole cold prefill, and no prefill starves under decode-heavy
    /// load. A `prefill_chunk` and an `iter_budget_rows` of at least every
    /// request's `n` keep every prefill whole.
    pub fn start_continuous_with_kv(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
        sched: SchedPolicy,
        kv: KvConfig,
    ) -> AttentionServer<T> {
        AttentionServer::spawn(mech, policy, sched, kv, None)
    }

    /// [`start_continuous_with_kv`](Self::start_continuous_with_kv) with a
    /// deterministic [`FaultPlan`].
    pub fn start_continuous_with_kv_faults(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
        sched: SchedPolicy,
        kv: KvConfig,
        faults: FaultPlan,
    ) -> AttentionServer<T> {
        AttentionServer::spawn(mech, policy, sched, kv, Some(faults))
    }

    fn spawn(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
        sched: SchedPolicy,
        kv: KvConfig,
        faults: Option<FaultPlan>,
    ) -> AttentionServer<T> {
        let (tx, rx) = mpsc::channel::<Msg<T>>();
        // The governed capacity is the pool's physical capacity at the
        // *stored* element width — a bf16 store doubles it over f32
        // compute for the same byte budget.
        let registry = Arc::new(Mutex::new(Registry::new(kv.storage_capacity_pages::<T>())));
        let depth = Arc::new(AtomicU64::new(0));
        let stats = Arc::new(Mutex::new(ServeStats::default()));
        let depths = Arc::new(Mutex::new(QueueDepths::default()));
        let sched_trace = Arc::new(Mutex::new(SchedTrace::default()));
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
        // Without row-separable scores (Nyström, Performer) a job must
        // run whole: an unbounded chunk and budget plan every job as one
        // whole chunk, so correctness never depends on chunking.
        let sched = if mech.supports_row_chunking() {
            sched
        } else {
            SchedPolicy::new(usize::MAX, usize::MAX)
        };
        let (w_registry, w_depth, w_stats, w_depths, w_trace) = (
            Arc::clone(&registry),
            Arc::clone(&depth),
            Arc::clone(&stats),
            Arc::clone(&depths),
            Arc::clone(&sched_trace),
        );
        let worker = std::thread::Builder::new()
            .name("dfss-serve-worker".into())
            .spawn(move || {
                Worker {
                    engine: AttentionEngine::new(worker_mech.as_ref()),
                    sched: Scheduler::new(sched),
                    jobs: HashMap::new(),
                    store: KvStore::new(&kv),
                    kv,
                    pending: Vec::new(),
                    next_job: 0,
                    next_step: 0,
                    next_ticket: 0,
                    registry: w_registry,
                    depth: w_depth,
                    stats: w_stats,
                    depths: w_depths,
                    trace_out: w_trace,
                    arm,
                }
                .run(rx)
            })
            .expect("spawn the serving worker");
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

    /// The scheduler's replayable event log so far. Logical content only —
    /// two servers fed the same admission sequence under the same policy
    /// render byte-identical traces ([`SchedTrace::render`]). The worker
    /// publishes an iteration before running it, so a client holding a
    /// reply finds the iteration that served it here.
    pub fn sched_trace(&self) -> SchedTrace {
        lock(&self.sched_trace).clone()
    }

    /// The fault scheduled for this front-door operation, consuming one
    /// operation ordinal. No-op (and no ordinal bookkeeping observable)
    /// without a plan.
    fn next_fault(&self) -> Option<FaultKind> {
        let plan = self.faults.as_ref()?;
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        plan.get(op)
    }

    /// Count one request into the unresolved-request count (`depth`), or
    /// shed it when `depth` is at the policy bound. The test and the
    /// increment are one atomic step, so concurrent submitters can never
    /// overrun the bound. Returns the observed depth on refusal.
    fn admit(&self) -> Result<(), usize> {
        let Some(bound) = self.policy.max_queue_depth else {
            self.depth.fetch_add(1, Ordering::SeqCst);
            return Ok(());
        };
        self.depth
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |d| {
                ((d as usize) < bound).then_some(d + 1)
            })
            .map(drop)
            .map_err(|depth| {
                self.overload_sheds.fetch_add(1, Ordering::Relaxed);
                depth as usize
            })
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

    /// [`submit`](Self::submit) with a deadline: if the job has not
    /// launched by `deadline` — or, run chunk by chunk, has chunks left
    /// then — it is shed before its next launch and its handle resolves
    /// with [`ServeError::DeadlineExceeded`]: it never occupies a launch it
    /// cannot use.
    pub fn submit_with_deadline(
        &self,
        q: Matrix<T>,
        k: Matrix<T>,
        v: Matrix<T>,
        deadline: Option<Instant>,
    ) -> Result<ResponseHandle<T>, ServeError> {
        let fault = self.next_fault();
        let checked = if q.rows() < k.rows() {
            // A request is a whole Q; only the worker cuts it into chunks.
            Err(RequestError::KShapeMismatch {
                q: q.shape(),
                k: k.shape(),
            })
        } else {
            try_check_qkv(self.mech.as_ref(), &q, &k, &v)
        };
        if let Err(e) = checked {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Rejected(e));
        }
        if let Err(depth) = self.admit() {
            return Err(ServeError::Overloaded { depth });
        }
        // Rendezvous capacity 1: the worker never blocks sending a
        // response, clients may wait lazily.
        let (reply, rx) = mpsc::sync_channel(1);
        let adm = Admission {
            key: ShapeKey {
                n: q.rows(),
                d: q.cols(),
                d_v: v.cols(),
            },
            submitted: Instant::now(),
            deadline,
            fault,
            reply,
        };
        // A dropped worker surfaces as ServerGone on wait(); submission
        // itself stays infallible for valid requests.
        let _ = self.tx.send(Msg::Request { q, k, v, adm });
        Ok(Handle { rx })
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
    /// worker frees the victims' pages before the requester's rows land.
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
    /// cache: the one-row case of [`extend`](Self::extend), the rows moved
    /// into `1 × d` / `1 × d_v` matrices without a copy. Width mismatches
    /// and budget exhaustion are rejected synchronously with typed errors;
    /// the rows themselves land on the worker thread in submission order,
    /// so a subsequent decode step always sees them.
    pub fn append(
        &self,
        session: SessionId,
        k_row: Vec<T>,
        v_row: Vec<T>,
    ) -> Result<(), SessionError> {
        let (d, d_v) = (k_row.len(), v_row.len());
        self.extend(
            session,
            Matrix::from_vec(1, d, k_row),
            Matrix::from_vec(1, d_v, v_row),
        )
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
            // Send under the lock: the worker sees mutations in admission
            // order, so the pages reserved above are free when this lands.
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
            if let Err(depth) = self.admit() {
                return Err(SessionError::Overloaded { depth });
            }
            let meta = reg.sessions.get_mut(&req.session.0).expect("checked above");
            meta.inflight += 1;
            reg.touch(req.session.0);
            let _ = self.tx.send(Msg::Decode(PendingDecode {
                id: req.session.0,
                q_row: req.q_row,
                submitted: Instant::now(),
                deadline,
                fault,
                reply,
            }));
        }
        Ok(Handle { rx })
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

    /// Serve every admitted prefill job and queued decode step, stop the
    /// worker and return lifetime counters. Sessions still open are
    /// drained too — their pages count as freed, so a clean shutdown
    /// always reconciles to `kv_pages_allocated == kv_pages_freed`.
    pub fn shutdown(mut self) -> ServeStats {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        {
            let mut reg = lock_healed(&self.registry);
            // The worker's exit released every remaining cache into the
            // pool; mirror that drain so the lifetime counters reconcile.
            let remaining: u64 = reg.sessions.values().map(|m| m.pages as u64).sum();
            reg.kv_pages_freed += remaining;
            reg.pages_used = 0;
            reg.kv_bytes = 0;
            reg.sessions.clear();
        }
        self.stats_snapshot()
    }

    /// A live copy of the lifetime counters — the same aggregates
    /// [`shutdown`](Self::shutdown) returns, readable while the server
    /// is serving (`GET /metrics` is built on this). Counters the
    /// worker owns trail its in-progress launch by at most one lock
    /// acquisition.
    pub fn stats_snapshot(&self) -> ServeStats {
        let mut stats = lock(&self.stats).clone();
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

    /// The worker's live queue-depth snapshot (unfinished prefill jobs
    /// per shape + drained decode steps); see [`QueueDepths`] for when it
    /// is published.
    pub fn queue_depths(&self) -> QueueDepths {
        lock(&self.depths).clone()
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

/// One queued decode step on the worker thread.
struct PendingDecode<T: Scalar> {
    id: u64,
    q_row: Vec<T>,
    submitted: Instant,
    deadline: Option<Instant>,
    fault: Option<FaultKind>,
    reply: Reply<ServedDecode<T>>,
}

/// One pool plus the per-session page tables over it, storing rows at
/// dtype `S`. Every session mutation is written here once for both KV
/// dtypes: rows arrive at the compute dtype and [`PagedKvCache::extend`]
/// converts them on write, straight into the pages.
struct Sessions<S: Scalar> {
    pool: KvPool<S>,
    caches: HashMap<u64, PagedKvCache<S>>,
}

impl<S: Scalar> Sessions<S> {
    fn new(config: &KvConfig) -> Sessions<S> {
        Sessions {
            pool: KvPool::new(config),
            caches: HashMap::new(),
        }
    }

    /// Create the session's (empty) page table. `false` if the geometry
    /// cannot back it (admission already validated, so this is defensive).
    fn open(&mut self, config: &KvConfig, id: u64, d: usize, d_v: usize) -> bool {
        let Ok(cache) = PagedKvCache::new(config, d, d_v) else {
            return false;
        };
        self.caches.insert(id, cache);
        true
    }

    /// Append a block of positions (one row for a front-door `append`).
    /// `false` when the session is unknown or the pool refuses (admission
    /// reserved the pages, so a refusal is defensive).
    fn extend<C: Scalar>(&mut self, id: u64, k: &Matrix<C>, v: &Matrix<C>) -> bool {
        let pool = &mut self.pool;
        let cache = self.caches.get_mut(&id);
        cache.is_some_and(|c| c.extend(pool, k, v).is_ok())
    }

    /// Drop the session and return its pages. `false` if unknown.
    fn close(&mut self, id: u64) -> bool {
        self.evict(id);
        self.caches.remove(&id).is_some()
    }

    /// Return the session's pages but keep its (now empty) table — the
    /// eviction half-close.
    fn evict(&mut self, id: u64) {
        if let Some(cache) = self.caches.get_mut(&id) {
            cache.release(&mut self.pool);
        }
    }

    /// Shutdown drain: return every session's pages to the pool.
    fn release_all(&mut self) {
        for (_, mut cache) in self.caches.drain() {
            cache.release(&mut self.pool);
        }
    }
}

/// Run `$body` with `$s` bound to the [`Sessions`] a [`KvStore`] holds,
/// whichever dtype it stores: the body is written once and compiled for
/// both.
macro_rules! with_sessions {
    ($store:expr, $s:ident => $body:expr) => {
        match $store {
            KvStore::Native($s) => $body,
            KvStore::Quant($s) => $body,
        }
    };
}

/// The worker's KV storage, resolved once from [`KvConfig::kv_dtype`]:
/// [`Sessions`] at the compute dtype (`Native`) or bf16-quantised
/// (`Quant`). Every operation but `new` and [`step`](Self::step) is one
/// generic body reached through [`with_sessions!`]; `step` hands the stored
/// pages to the engine tagged with their quantisation, so a `Quant` launch
/// widens on load instead of materialising an f32 copy.
enum KvStore<T: Scalar> {
    Native(Sessions<T>),
    Quant(Sessions<Bf16>),
}

impl<T: Scalar> KvStore<T> {
    fn new(config: &KvConfig) -> KvStore<T> {
        match config.kv_dtype {
            KvDtype::Native => KvStore::Native(Sessions::new(config)),
            KvDtype::Bf16 => KvStore::Quant(Sessions::new(config)),
        }
    }

    /// Build the engine-facing decode step for a known, non-empty session:
    /// `Native` borrows the pages at `T`, `Quant` borrows them as
    /// [`dfss_core::engine::KvRows::Bf16`] views so the engine routes the
    /// step through the fused widen-on-load path.
    fn step<'a>(&'a self, id: u64, q_row: &'a [T]) -> DecodeStep<'a, T> {
        let ((len, d, d_v), (k_rows, v_rows)) = match self {
            KvStore::Native(s) => {
                let c = &s.caches[&id];
                let rows = (c.k_rows(&s.pool), c.v_rows(&s.pool));
                ((c.len(), c.d(), c.d_v()), rows)
            }
            KvStore::Quant(s) => {
                let c = &s.caches[&id];
                let rows = (c.k_rows_quant(&s.pool), c.v_rows_quant(&s.pool));
                ((c.len(), c.d(), c.d_v()), rows)
            }
        };
        DecodeStep {
            q_row,
            k_rows,
            v_rows,
            len,
            d,
            d_v,
        }
    }
}

/// One admitted prefill job, resumable across scheduler iterations: the
/// triple plus the output rows accumulated chunk by chunk.
struct PrefillJob<T: Scalar> {
    q: Matrix<T>,
    k: Matrix<T>,
    v: Matrix<T>,
    /// Output rows completed so far (row-major; chunks run in row order).
    out: Vec<T>,
    sim_latency_s: f64,
    /// First launch (queue-wait measurement point).
    started: Option<Instant>,
    adm: Admission<T>,
}

impl<T: Scalar> PrefillJob<T> {
    /// Whether `chunk` covers the whole job.
    fn is_whole(&self, chunk: &ChunkPlan) -> bool {
        chunk.lo == 0 && chunk.hi == self.q.rows()
    }
}

const EXEC: &str = "serving engines run in exec mode and materialise outputs";

/// The worker thread and its state: the one serving loop.
///
/// Every pass drains the channel, then runs one [`Scheduler`] iteration:
/// every ready decode step as one ragged flush, then the planned prefill
/// chunks. Sessions, KV governance, fault arming, deadline shedding and
/// panic isolation are the worker's too; the decode determinism rule (a
/// queued step launches before an append/extend/close/evict touches its
/// session) is kept by a forced decode flush, recorded in the trace.
struct Worker<'m, T: Scalar> {
    engine: AttentionEngine<'m, T>,
    sched: Scheduler,
    /// Admitted prefill jobs by id, until they finish or fail.
    jobs: HashMap<u64, PrefillJob<T>>,
    store: KvStore<T>,
    kv: KvConfig,
    /// Decode steps drained and not yet launched, in admission order.
    pending: Vec<PendingDecode<T>>,
    next_job: u64,
    next_step: u64,
    /// Ticket of the next successful reply, prefill or decode.
    next_ticket: u64,
    registry: Arc<Mutex<Registry>>,
    depth: Arc<AtomicU64>,
    stats: Arc<Mutex<ServeStats>>,
    depths: Arc<Mutex<QueueDepths>>,
    trace_out: Arc<Mutex<SchedTrace>>,
    arm: Arc<FaultArm>,
}

impl<T: Scalar> Worker<'_, T> {
    fn run(mut self, rx: Receiver<Msg<T>>) {
        let mut stopping = false;
        loop {
            // Block when idle, drain greedily when work is queued.
            let mut next = if stopping {
                None
            } else if self.sched.has_work() {
                rx.try_recv().ok()
            } else {
                self.publish();
                match rx.recv() {
                    Ok(m) => Some(m),
                    Err(_) => {
                        stopping = true;
                        None
                    }
                }
            };
            while let Some(msg) = next.take() {
                if let Msg::Shutdown = msg {
                    stopping = true;
                    break;
                }
                if !self.admit(msg) {
                    return;
                }
                next = rx.try_recv().ok();
            }
            let plan = self.sched.next_iteration();
            // Publish before the iteration runs: the gauges show the work
            // in flight, and a client replied to from this iteration finds
            // it in the trace already.
            self.publish();
            match plan {
                Some(plan) => {
                    lock(&self.stats).sched_iterations += 1;
                    if !self.execute(plan) {
                        return;
                    }
                }
                None if stopping => break,
                None => {}
            }
        }
        // Shutdown drain: return every open session's pages to the pool so
        // the pool invariants (free + used == capacity, no leaked pages)
        // verify even when clients abandon sessions without closing them.
        with_sessions!(&mut self.store, s => s.release_all());
        debug_assert!(with_sessions!(&self.store, s => s.pool.check_invariants()).is_ok());
    }

    /// Apply one drained message. `false` when an injected
    /// [`FaultKind::KillServer`] fires.
    fn admit(&mut self, msg: Msg<T>) -> bool {
        match msg {
            Msg::Request { q, k, v, adm } => {
                // An expired request is shed at its launch, never killed.
                if adm.fault == Some(FaultKind::KillServer)
                    && !expired(adm.deadline, Instant::now())
                {
                    return false;
                }
                let id = self.next_job;
                self.next_job += 1;
                self.sched.admit_prefill(id, q.rows());
                let job = PrefillJob {
                    q,
                    k,
                    v,
                    out: Vec::new(),
                    sim_latency_s: 0.0,
                    started: None,
                    adm,
                };
                self.jobs.insert(id, job);
            }
            Msg::Open { id, d, d_v } => {
                // Admission validated that a page can hold the widths.
                if with_sessions!(&mut self.store, s => s.open(&self.kv, id, d, d_v)) {
                    lock(&self.stats).sessions_opened += 1;
                }
            }
            // Admission reserved the pages under the registry lock before
            // sending, so the pool cannot come up short on the mutations.
            Msg::Extend { id, k, v } => {
                if !self.settle(id) {
                    return false;
                }
                if with_sessions!(&mut self.store, s => s.extend(id, &k, &v)) {
                    lock(&self.stats).kv_rows_appended += k.rows() as u64;
                }
            }
            Msg::Close { id } => {
                if !self.settle(id) {
                    return false;
                }
                if with_sessions!(&mut self.store, s => s.close(id)) {
                    lock(&self.stats).sessions_closed += 1;
                }
            }
            Msg::Evict { id } => {
                // Victims are idle by construction (inflight == 0), but
                // settle anyway so a queued step never reads freed pages.
                if !self.settle(id) {
                    return false;
                }
                with_sessions!(&mut self.store, s => s.evict(id));
            }
            Msg::Decode(step) => {
                self.pending.push(step);
                self.sched.admit_decode(self.next_step);
                self.next_step += 1;
            }
            Msg::Shutdown => {}
        }
        true
    }

    /// Launch the queued decode steps before a mutation of session `id`
    /// lands, if one of them reads it: a step attends over exactly the
    /// rows cached at its submission. `false` on an injected kill.
    fn settle(&mut self, id: u64) -> bool {
        if !self.pending.iter().any(|p| p.id == id) {
            return true;
        }
        let _ = self.sched.force_decode_flush();
        self.serve_decode()
    }

    /// Run one planned iteration: the decode steps, then each prefill
    /// chunk as its own launch, in plan order. `false` on an injected kill.
    fn execute(&mut self, plan: IterationPlan) -> bool {
        if !plan.decode.is_empty() && !self.serve_decode() {
            return false;
        }
        for chunk in plan.chunks {
            self.launch(chunk);
        }
        true
    }

    /// Launch one planned chunk as one [`AttentionEngine::forward_chunk`],
    /// append its output rows to its job, and reply to the job when its
    /// last row lands. An expired job is shed before the launch (its fault
    /// never arms); a panic or a typed launch error fails only this job.
    fn launch(&mut self, chunk: ChunkPlan) {
        let now = Instant::now();
        let Some(job) = self.jobs.get_mut(&chunk.job) else {
            return;
        };
        if expired(job.adm.deadline, now) {
            let job = self.drop_job(chunk.job);
            self.shed(job.adm, now);
            return;
        }
        job.started.get_or_insert(now);
        self.arm.arm_for(job.adm.fault.take());

        let job = &self.jobs[&chunk.job];
        let q_rows = if job.is_whole(&chunk) {
            Cow::Borrowed(&job.q)
        } else {
            Cow::Owned(job.q.take_rows(chunk.lo, chunk.hi))
        };
        let engine = &mut self.engine;
        let launched = catch_unwind(AssertUnwindSafe(|| {
            engine.forward_chunk(&q_rows, &job.k, &job.v)
        }));
        let result = match launched {
            Ok(done) => done.map_err(ServeError::Rejected),
            Err(payload) => Err(ServeError::BatchPanicked {
                payload: self.recover(payload),
            }),
        };
        let done = match result {
            Ok(done) => done,
            // Admission ran the same checks, so a typed launch error means
            // they diverged; either way only this job fails.
            Err(err) => {
                let job = self.drop_job(chunk.job);
                self.fail(job.adm, err);
                return;
            }
        };
        {
            let mut st = lock(&self.stats);
            st.prefill_chunks += 1;
            st.total_sim_latency_s += done.sim_latency_s;
        }
        let job = self
            .jobs
            .get_mut(&chunk.job)
            .expect("the launched job is mapped");
        job.sim_latency_s += done.sim_latency_s;
        job.out
            .extend_from_slice(done.output.as_ref().expect(EXEC).as_slice());
        if chunk.hi == job.q.rows() {
            let job = self.drop_job(chunk.job);
            let output = Matrix::from_vec(job.q.rows(), job.v.cols(), job.out);
            let started = job.started.unwrap_or(now);
            self.reply(job.adm, output, started, job.sim_latency_s);
        }
        self.engine.reset_timeline();
    }

    /// Take a job out of the map and the scheduler (a no-op for the
    /// scheduler once the job's last chunk was planned).
    fn drop_job(&mut self, id: u64) -> PrefillJob<T> {
        self.sched.cancel(id);
        self.jobs.remove(&id).expect("the job was looked up above")
    }

    /// Count an isolated launch panic, restore the engine, and return the
    /// panic's message for the failed requests.
    fn recover(&mut self, payload: Box<dyn std::any::Any + Send>) -> String {
        lock(&self.stats).batch_panics += 1;
        self.engine.recover_after_panic();
        panic_message(payload)
    }

    /// Reply to a finished prefill with its output and latency breakdown;
    /// it stops counting toward the depth bound.
    fn reply(
        &mut self,
        adm: Admission<T>,
        output: Matrix<T>,
        started: Instant,
        sim_latency_s: f64,
    ) {
        let served = Served {
            output,
            ticket: Ticket(self.next_ticket),
            bucket: adm.key,
            queue_wait: started.saturating_duration_since(adm.submitted),
            service: started.elapsed(),
            latency: adm.submitted.elapsed(),
            sim_latency_s,
        };
        self.next_ticket += 1;
        lock(&self.stats).served += 1;
        self.depth.fetch_sub(1, Ordering::SeqCst);
        let _ = adm.reply.send(Ok(served));
    }

    /// Resolve a prefill with a typed error; it stops counting toward the
    /// depth bound.
    fn fail(&self, adm: Admission<T>, err: ServeError) {
        self.depth.fetch_sub(1, Ordering::SeqCst);
        let _ = adm.reply.send(Err(err));
    }

    /// Shed an expired prefill before its next launch.
    fn shed(&self, adm: Admission<T>, now: Instant) {
        lock(&self.stats).deadline_sheds += 1;
        let queued_for = now.saturating_duration_since(adm.submitted);
        self.fail(adm, ServeError::DeadlineExceeded { queued_for });
    }

    /// Launch the queued decode steps as one ragged flush (one launch per
    /// op across all streams) and reply to each. A call with nothing
    /// queued is a no-op.
    ///
    /// Expired deadlines shed typed before packing, and shed steps never
    /// arm their injected fault; an in-flush panic fails only these steps
    /// ([`ServeError::BatchPanicked`]). The sessions' inflight marks are
    /// always released. `false` only on an injected
    /// [`FaultKind::KillServer`] riding a live step.
    fn serve_decode(&mut self) -> bool {
        if self.pending.is_empty() {
            return true;
        }
        let now = Instant::now();
        let pending = std::mem::take(&mut self.pending);
        self.depth.fetch_sub(pending.len() as u64, Ordering::SeqCst);
        if pending
            .iter()
            .any(|p| p.fault == Some(FaultKind::KillServer) && !expired(p.deadline, now))
        {
            return false;
        }
        // Admission validated widths and non-empty caches; a session whose
        // cache vanished between admission and launch gets a typed
        // rejection, not a panic.
        let mut live: Vec<&PendingDecode<T>> = Vec::with_capacity(pending.len());
        for p in &pending {
            if expired(p.deadline, now) {
                lock(&self.stats).deadline_sheds += 1;
                let _ = p.reply.send(Err(ServeError::DeadlineExceeded {
                    queued_for: now.saturating_duration_since(p.submitted),
                }));
                continue;
            }
            match with_sessions!(&self.store, s => s.caches.get(&p.id).map(|c| c.len())) {
                Some(len) if len > 0 => live.push(p),
                _ => {
                    let _ = p
                        .reply
                        .send(Err(ServeError::Rejected(RequestError::EmptyRequest)));
                }
            }
        }
        if !live.is_empty() {
            for p in &live {
                self.arm.arm_for(p.fault);
            }
            let steps: Vec<DecodeStep<'_, T>> = live
                .iter()
                .map(|p| self.store.step(p.id, &p.q_row))
                .collect();
            let engine = &mut self.engine;
            match catch_unwind(AssertUnwindSafe(|| engine.flush_decode(&steps))) {
                Err(payload) => {
                    // Decode reads the caches, never writes them, so the
                    // sessions survive the panic untouched.
                    let payload = self.recover(payload);
                    for p in &live {
                        let _ = p.reply.send(Err(ServeError::BatchPanicked {
                            payload: payload.clone(),
                        }));
                    }
                }
                Ok(Ok(results)) => {
                    let service = now.elapsed();
                    let mut st = lock(&self.stats);
                    // One batch per ragged launch group: the engine buckets
                    // steps by (d, d_v), so a flush over mixed-width
                    // sessions runs (and counts) several launches.
                    for bucket in &self.engine.last_decode().buckets {
                        st.decode_batches += 1;
                        st.max_decode_batch = st.max_decode_batch.max(bucket.streams);
                    }
                    st.total_sim_latency_s += self.engine.last_decode().sim_latency_s();
                    // Results come back in step order, matching `live`.
                    for (res, p) in results.into_iter().zip(&live) {
                        st.decode_steps += 1;
                        let served = ServedDecode {
                            output: res.output.expect(EXEC),
                            ticket: Ticket(self.next_ticket),
                            session: SessionId(p.id),
                            cached_len: res.cached_len,
                            batch_size: res.batch_size,
                            queue_wait: now.saturating_duration_since(p.submitted),
                            service,
                            latency: p.submitted.elapsed(),
                            sim_latency_s: res.sim_latency_s,
                        };
                        self.next_ticket += 1;
                        let _ = p.reply.send(Ok(served));
                    }
                }
                Ok(Err(e)) => {
                    for p in &live {
                        let _ = p.reply.send(Err(ServeError::Rejected(e.clone())));
                    }
                }
            }
            self.engine.reset_timeline();
        }
        // Every queued step is resolved now — the sessions are idle again
        // and eligible for eviction.
        release_inflight(&self.registry, pending.iter().map(|p| p.id));
        true
    }

    /// Move new scheduler events to the shared trace — the one copy kept —
    /// and refresh the queue-depth gauges.
    fn publish(&mut self) {
        if !self.sched.trace().events().is_empty() {
            let mut trace = lock(&self.trace_out);
            for e in self.sched.drain_trace() {
                trace.push(e);
            }
        }
        let mut prefill: Vec<(ShapeKey, usize)> = Vec::new();
        for job in self.jobs.values() {
            match prefill.iter_mut().find(|(k, _)| *k == job.adm.key) {
                Some((_, n)) => *n += 1,
                None => prefill.push((job.adm.key, 1)),
            }
        }
        prefill.sort_by_key(|(k, _)| (k.n, k.d, k.d_v));
        *lock(&self.depths) = QueueDepths {
            prefill,
            decode: self.pending.len(),
        };
    }
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
    use dfss_kernels::GpuCtx;
    use dfss_nmsparse::NmPattern;
    use dfss_tensor::Rng;
    use std::time::Duration;

    /// How long a `SlowLaunch` holds the worker while a test queues a
    /// backlog behind it.
    const HOLD: Duration = Duration::from_millis(300);

    /// A plan that slows front-door operation `op` by [`HOLD`].
    fn slow_op(op: u64) -> FaultPlan {
        FaultPlan::new().inject(op, FaultKind::SlowLaunch(HOLD))
    }

    /// Block until the worker has begun its first iteration. With a
    /// `SlowLaunch` riding that iteration, everything submitted next waits
    /// in the channel and is drained as one backlog.
    fn wait_for_first_iteration(server: &AttentionServer<f32>) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.stats_snapshot().sched_iterations == 0 {
            assert!(Instant::now() < deadline, "the worker never started");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Hold the worker in a decode launch: a session (front-door ops 0
    /// and 1) and one step (op 2), so the server's plan must be
    /// `slow_op(2)`. Prefill counters stay untouched.
    fn hold_with_decode(server: &AttentionServer<f32>, rng: &mut Rng) -> DecodeHandle<f32> {
        let s = server.open_session(8, 8).unwrap();
        server
            .extend(
                s,
                Matrix::random_normal(4, 8, 0.0, 1.0, &mut *rng),
                Matrix::random_normal(4, 8, 0.0, 1.0, &mut *rng),
            )
            .unwrap();
        let q_row = row(8, rng);
        let held = server
            .submit_decode(DecodeRequest { session: s, q_row })
            .unwrap();
        wait_for_first_iteration(server);
        held
    }

    /// Hold the worker in a prefill launch: the plan must slow the
    /// submission's front-door op. Decode counters stay untouched.
    fn hold_with_prefill(server: &AttentionServer<f32>, rng: &mut Rng) -> ResponseHandle<f32> {
        let (q, k, v) = request(16, 8, rng);
        let held = server.submit(q, k, v).unwrap();
        wait_for_first_iteration(server);
        held
    }

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
        let server = AttentionServer::start(Arc::clone(&mech), BatchPolicy::default());
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
            assert!(served.sim_latency_s > 0.0);
            assert!(served.latency >= served.service);
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, 8);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn queued_backlog_runs_one_launch_per_job_in_plan_order() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> =
            Arc::new(DfssAttention::new(NmPattern::P1_2));
        // Chunks and budget that keep all six jobs whole in one iteration.
        let server = AttentionServer::start_continuous_with_kv_faults(
            Arc::clone(&mech),
            BatchPolicy::default(),
            SchedPolicy::new(64, 8 * 64),
            KvConfig::default(),
            slow_op(2),
        );
        let mut rng = Rng::new(9);
        // Six jobs of two shapes queue behind a held decode launch and are
        // drained as one backlog: each still runs as its own launch, in
        // admission order, charged exactly as its solo forward.
        let _held = hold_with_decode(&server, &mut rng);
        let mut handles = Vec::new();
        for i in 0..6 {
            let n = if i % 2 == 0 { 32 } else { 64 };
            let (q, k, v) = request(n, 8, &mut rng);
            let mut sctx = GpuCtx::a100();
            let solo = mech.forward(&mut sctx, &q, &k, &v);
            handles.push((solo, sctx.latency(), server.submit(q, k, v).unwrap()));
        }
        let mut tickets = Vec::new();
        for (solo, solo_sim_s, h) in handles {
            let served = h.wait().expect("served");
            assert_eq!(served.bucket.n, solo.rows());
            let same = served
                .output
                .as_slice()
                .iter()
                .zip(solo.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "a queued job diverged from solo forward");
            assert_eq!(
                served.sim_latency_s, solo_sim_s,
                "charged as its solo forward"
            );
            tickets.push(served.ticket);
        }
        assert!(tickets.windows(2).all(|w| w[0] < w[1]), "{tickets:?}");
        let stats = server.shutdown();
        assert_eq!((stats.served, stats.prefill_chunks), (6, 6));
    }

    #[test]
    fn bad_requests_get_typed_errors_and_server_survives() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> =
            Arc::new(DfssAttention::new(NmPattern::P1_2));
        let server = AttentionServer::start(Arc::clone(&mech), BatchPolicy::default());
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
        // K narrower than Q.
        let k_narrow = Matrix::<f32>::zeros(32, 4);
        let err = server
            .submit(q32.clone(), k_narrow, q32.clone())
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Rejected(RequestError::KShapeMismatch { .. })
        ));
        assert_eq!(server.stats_snapshot().rejected, 3, "live count");
        // The server still serves valid traffic afterwards.
        let mut rng = Rng::new(11);
        let (q, k, v) = request(32, 8, &mut rng);
        let served = server.submit(q, k, v).unwrap().wait().expect("served");
        assert_eq!(served.output.shape(), (32, 8));
        let stats = server.shutdown();
        assert_eq!((stats.served, stats.rejected), (1, 3));
    }

    #[test]
    fn zero_width_v_is_rejected_at_admission_and_holds_no_queue_slot() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> =
            Arc::new(DfssAttention::new(NmPattern::P1_2));
        let policy = BatchPolicy::default().with_queue_depth(1);
        let server = AttentionServer::start(Arc::clone(&mech), policy);
        let mut rng = Rng::new(12);
        let (q, k, v) = request(32, 16, &mut rng);
        let err = server
            .submit(q.clone(), k.clone(), Matrix::zeros(32, 0))
            .unwrap_err();
        assert_eq!(err, ServeError::Rejected(RequestError::EmptyRequest));
        // The one queue slot is still free for the next request.
        let served = server.submit(q, k, v).unwrap().wait().expect("served");
        assert_eq!(served.output.shape(), (32, 16));
        let stats = server.shutdown();
        assert_eq!((stats.served, stats.rejected), (1, 1));
    }

    #[test]
    fn a_request_is_a_whole_q_even_for_a_chunking_mechanism() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start(Arc::clone(&mech), BatchPolicy::default());
        let mut rng = Rng::new(13);
        let (q, k, v) = request(32, 8, &mut rng);
        // Fewer query rows than keys is a chunk, which only the worker cuts.
        let err = server.submit(q.take_rows(0, 16), k, v).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Rejected(RequestError::KShapeMismatch { .. })
        ));
        assert_eq!(server.shutdown().rejected, 1);
    }

    #[test]
    fn shutdown_drains_queued_prefills() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start_with_faults(
            Arc::clone(&mech),
            BatchPolicy::default(),
            slow_op(2),
        );
        let mut rng = Rng::new(13);
        // The jobs are still in the channel when shutdown starts: the
        // drain serves them.
        let _held = hold_with_decode(&server, &mut rng);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (q, k, v) = request(16, 8, &mut rng);
            handles.push(server.submit(q, k, v).unwrap());
        }
        let stats = server.shutdown();
        assert_eq!((stats.served, stats.prefill_chunks), (4, 4));
        for h in handles {
            assert!(h.wait().is_ok());
        }
    }

    #[test]
    fn decode_steps_batch_across_sessions_and_match_solo_decode() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> =
            Arc::new(DfssAttention::new(NmPattern::P1_2));
        // Front-door ops: three opens and three extends (0..6), then the
        // holding prefill (6).
        let server = AttentionServer::start_with_faults(
            Arc::clone(&mech),
            BatchPolicy::default(),
            slow_op(6),
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
        // The steps queue behind a held launch, so one iteration packs
        // all three.
        let _held = hold_with_prefill(&server, &mut rng);
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
            AttentionServer::start_with_kv(Arc::clone(&mech), BatchPolicy::default(), quant_kv);
        let server_model = AttentionServer::start(Arc::clone(&mech), BatchPolicy::default());
        let server_f32 = AttentionServer::start(Arc::clone(&mech), BatchPolicy::default());
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
        // started without a plan.
        let mech: Arc<dyn Attention<f32> + Send + Sync> =
            Arc::new(DfssAttention::new(NmPattern::P1_2));
        let kv = KvConfig {
            kv_dtype: KvDtype::Bf16,
            ..KvConfig::default()
        };
        let policy = BatchPolicy::default;
        let sched = SchedPolicy::default;
        let pairs = [(
            AttentionServer::start_continuous_with_kv(Arc::clone(&mech), policy(), sched(), kv),
            AttentionServer::start_continuous_with_kv_faults(
                Arc::clone(&mech),
                policy(),
                sched(),
                kv,
                FaultPlan::new(),
            ),
        )];
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
            AttentionServer::start_with_kv(Arc::clone(&mech), BatchPolicy::default(), tight);
        assert!(matches!(
            native.open_session(4, 4),
            Err(SessionError::KvBudgetExhausted { .. })
        ));
        let _ = native.shutdown();
        let quant = AttentionServer::start_with_kv(
            Arc::clone(&mech),
            BatchPolicy::default(),
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
        // an append for the same session is drained right behind it.
        let mech: Arc<dyn Attention<f32> + Send + Sync> =
            Arc::new(DfssAttention::new(NmPattern::P1_2));
        let server = AttentionServer::start_with_faults(
            Arc::clone(&mech),
            BatchPolicy::default(),
            slow_op(2),
        );
        let mut rng = Rng::new(19);
        let (d, d_v) = (8usize, 8usize);
        let _held = hold_with_decode(&server, &mut rng);
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
        let server = AttentionServer::start(Arc::clone(&mech), BatchPolicy::default());
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
        // Front-door ops: open 0, extend 1, the holding prefill 2.
        let server = AttentionServer::start_with_faults(
            Arc::clone(&mech),
            BatchPolicy::default(),
            slow_op(2),
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
        // The step is still in the channel when shutdown starts.
        let _held = hold_with_prefill(&server, &mut rng);
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
        // Front-door ops: open + extend per session (0..4), then the
        // holding prefill (4).
        let server = AttentionServer::start_with_faults(
            Arc::clone(&mech),
            BatchPolicy::default(),
            slow_op(4),
        );
        let mut rng = Rng::new(29);
        let mut sessions = Vec::new();
        for d in [4usize, 8] {
            let s = server.open_session(d, d).unwrap();
            server
                .extend(
                    s,
                    Matrix::random_normal(5, d, 0.0, 1.0, &mut rng),
                    Matrix::random_normal(5, d, 0.0, 1.0, &mut rng),
                )
                .unwrap();
            sessions.push((s, d));
        }
        // Both steps queue behind a held launch: one flush carries them.
        let _held = hold_with_prefill(&server, &mut rng);
        let mut handles = Vec::new();
        for (s, d) in sessions {
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
            BatchPolicy::default(),
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
            BatchPolicy::default(),
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
        // The step (front-door op 2) rides a slowed launch, so s1 stays
        // inflight while the newcomer asks for pages.
        let server = AttentionServer::start_continuous_with_kv_faults(
            Arc::clone(&mech),
            BatchPolicy::default(),
            SchedPolicy::default(),
            tight_kv(2, true),
            slow_op(2),
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
        let server = AttentionServer::start(Arc::clone(&mech), BatchPolicy::default());
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
        // An idle worker blocks on its channel: a server that saw no
        // traffic reports zero launches of either kind.
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server: AttentionServer<f32> =
            AttentionServer::start(Arc::clone(&mech), BatchPolicy::default());
        std::thread::sleep(Duration::from_millis(20));
        let stats = server.shutdown();
        assert_eq!((stats.prefill_chunks, stats.decode_batches), (0, 0));
        assert_eq!(stats.total_sim_latency_s, 0.0);
    }

    #[test]
    fn poisoned_registry_heals_and_restores_invariants() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start_with_kv(
            Arc::clone(&mech),
            BatchPolicy::default(),
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
    fn prefill_panic_fails_only_its_job_and_the_server_keeps_serving() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        // Ops 0..3 hold the worker; the panic rides request 0 (op 3).
        let plan = slow_op(2).inject(3, FaultKind::PanicInBatch);
        let server =
            AttentionServer::start_with_faults(Arc::clone(&mech), BatchPolicy::default(), plan);
        let mut rng = Rng::new(61);
        let _held = hold_with_decode(&server, &mut rng);
        // Four jobs drain together. Each runs as its own launch, so the
        // fault riding request 0 fails that job alone, typed, with the
        // payload preserved.
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (q, k, v) = request(16, 8, &mut rng);
            handles.push(server.submit(q, k, v).unwrap());
        }
        let mut handles = handles.into_iter();
        match handles.next().unwrap().wait().expect_err("launch poisoned") {
            ServeError::BatchPanicked { payload } => {
                assert!(payload.contains("injected kernel panic"));
            }
            other => panic!("want BatchPanicked, got {other}"),
        }
        // The jobs queued with it are served by the same recovered worker.
        for h in handles {
            assert!(h.wait().is_ok());
        }
        let stats = server.shutdown();
        assert_eq!(stats.batch_panics, 1);
        assert_eq!(stats.served, 3);
        assert_eq!(stats.prefill_chunks, 3, "the poisoned launch never counts");
    }

    #[test]
    fn decode_batch_panic_is_isolated_and_the_session_survives() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        // Front-door ordinals: open = 0, extend = 1, decode = 2.
        let plan = FaultPlan::new().inject(2, FaultKind::PanicInBatch);
        let server =
            AttentionServer::start_with_faults(Arc::clone(&mech), BatchPolicy::default(), plan);
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
        let server = AttentionServer::start_with_faults(
            Arc::clone(&mech),
            BatchPolicy::default(),
            slow_op(2),
        );
        let mut rng = Rng::new(71);
        let _held = hold_with_decode(&server, &mut rng);
        let (q, k, v) = request(16, 8, &mut rng);
        // Already expired at submission: drained in one backlog with the
        // live request, shed before its launch, never launched.
        let past = Instant::now() - Duration::from_millis(1);
        let doomed = server.submit_with_deadline(q, k, v, Some(past)).unwrap();
        let (q, k, v) = request(16, 8, &mut rng);
        let live = server.submit(q, k, v).unwrap();
        match doomed.wait().expect_err("shed") {
            ServeError::DeadlineExceeded { queued_for } => assert!(queued_for > Duration::ZERO),
            other => panic!("want DeadlineExceeded, got {other}"),
        }
        assert!(live.wait().is_ok());
        let stats = server.shutdown();
        assert_eq!(stats.deadline_sheds, 1);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.prefill_chunks, 1, "the shed request never launched");
    }

    #[test]
    fn expired_decode_deadlines_shed_typed() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start(Arc::clone(&mech), BatchPolicy::default());
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
        // The first request rides a slowed launch, and a prefill counts
        // until it finishes: both admitted requests stay unresolved, so
        // the third submission observes the bound deterministically.
        let server = AttentionServer::start_with_faults(
            Arc::clone(&mech),
            BatchPolicy::default().with_queue_depth(2),
            slow_op(0),
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
    fn concurrent_submitters_never_overrun_the_depth_bound() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        // The first prefill rides a slowed launch and stays unresolved
        // while eight submitters, released together, race for the two
        // slots a bound of 3 leaves.
        let server = AttentionServer::start_with_faults(
            Arc::clone(&mech),
            BatchPolicy::default().with_queue_depth(3),
            slow_op(0),
        );
        let mut rng = Rng::new(97);
        let (q, k, v) = request(16, 8, &mut rng);
        let held = server.submit(q, k, v).unwrap();
        let requests: Vec<_> = (0..8).map(|_| request(16, 8, &mut rng)).collect();
        let gate = std::sync::Barrier::new(requests.len());
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let submitters: Vec<_> = requests
                .into_iter()
                .map(|(q, k, v)| {
                    let (server, gate) = (&server, &gate);
                    scope.spawn(move || {
                        gate.wait();
                        server.submit(q, k, v)
                    })
                })
                .collect();
            submitters
                .into_iter()
                .map(|t| t.join().expect("submitter thread"))
                .collect()
        });
        let (admitted, shed): (Vec<_>, Vec<_>) = outcomes.into_iter().partition(Result::is_ok);
        assert_eq!(admitted.len(), 2, "exactly the free slots admit");
        assert_eq!(shed.len(), 6);
        for refused in &shed {
            assert!(matches!(refused, Err(ServeError::Overloaded { depth: 3 })));
        }
        let stats = server.shutdown();
        assert!(held.wait().is_ok(), "admitted requests drain at shutdown");
        for h in admitted {
            assert!(h.unwrap().wait().is_ok());
        }
        assert_eq!(stats.overload_sheds, 6);
        assert_eq!(stats.served, 3);
    }

    #[test]
    fn killed_worker_never_blocks_waiters() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let plan = FaultPlan::new().inject(0, FaultKind::KillServer);
        let server =
            AttentionServer::start_with_faults(Arc::clone(&mech), BatchPolicy::default(), plan);
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
    fn expired_kill_request_is_shed_and_the_worker_keeps_serving() {
        // A kill riding a request whose deadline already passed never
        // fires: the request is shed typed like any expired one, and the
        // next valid request is served.
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start_continuous_with_kv_faults(
            Arc::clone(&mech),
            BatchPolicy::default(),
            SchedPolicy::default(),
            KvConfig::default(),
            FaultPlan::new().inject(0, FaultKind::KillServer),
        );
        let mut rng = Rng::new(87);
        let (q, k, v) = request(16, 8, &mut rng);
        let past = Instant::now() - Duration::from_millis(1);
        let doomed = server.submit_with_deadline(q, k, v, Some(past)).unwrap();
        let (q, k, v) = request(16, 8, &mut rng);
        let live = server.submit(q, k, v).unwrap();
        assert!(matches!(
            doomed.wait_timeout(Duration::from_secs(30)),
            Err(ServeError::DeadlineExceeded { .. })
        ));
        assert!(live.wait_timeout(Duration::from_secs(30)).is_ok());
        let stats = server.shutdown();
        assert_eq!((stats.deadline_sheds, stats.served), (1, 1));
    }

    #[test]
    fn prefill_and_decode_replies_draw_one_ticket_sequence() {
        // Whole-job, chunked and decode replies from one server never
        // share a ticket: one sequence, in reply order.
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start_continuous_with_kv(
            Arc::clone(&mech),
            BatchPolicy::default(),
            SchedPolicy::new(16, 32),
            KvConfig::default(),
        );
        let mut rng = Rng::new(91);
        let s = server.open_session(8, 8).unwrap();
        server
            .extend(
                s,
                Matrix::random_normal(3, 8, 0.0, 1.0, &mut rng),
                Matrix::random_normal(3, 8, 0.0, 1.0, &mut rng),
            )
            .unwrap();
        let mut tickets = Vec::new();
        for n in [16usize, 40, 16] {
            let (q, k, v) = request(n, 8, &mut rng);
            tickets.push(server.submit(q, k, v).unwrap().wait().unwrap().ticket);
            let q_row = row(8, &mut rng);
            let step = DecodeRequest { session: s, q_row };
            tickets.push(server.submit_decode(step).unwrap().wait().unwrap().ticket);
        }
        let mut sorted = tickets.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), tickets.len(), "tickets repeat: {tickets:?}");
        assert!(tickets.windows(2).all(|w| w[0] < w[1]), "{tickets:?}");
        let _ = server.shutdown();
    }

    #[test]
    fn wait_blocked_before_shutdown_resolves_never_hangs() {
        // The latent drain race: a caller already blocked in wait() when
        // shutdown() starts must resolve — served by the drain or typed
        // ServerGone — never hang on a channel whose sender is being torn
        // down. Pinned with a request queued behind a held launch.
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start_with_faults(
            Arc::clone(&mech),
            BatchPolicy::default(),
            slow_op(2),
        );
        let mut rng = Rng::new(97);
        let _held = hold_with_decode(&server, &mut rng);
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
        assert_eq!(served.output.shape(), (16, 8));
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn wait_timeout_is_typed_and_rewaitable() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start_with_faults(
            Arc::clone(&mech),
            BatchPolicy::default(),
            slow_op(2),
        );
        let mut rng = Rng::new(89);
        let _held = hold_with_decode(&server, &mut rng);
        let (q, k, v) = request(16, 8, &mut rng);
        let h = server.submit(q, k, v).unwrap();
        // The request waits behind a held launch; a bounded wait gives up
        // typed instead of blocking.
        assert!(matches!(
            h.wait_timeout(Duration::from_millis(30)),
            Err(ServeError::WaitTimeout)
        ));
        // The request itself is still queued: the shutdown drain serves it
        // and the same handle then resolves with the output.
        let stats = server.shutdown();
        let served = h.wait().expect("drained at shutdown");
        assert_eq!(served.output.shape(), (16, 8));
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn shutdown_drains_queued_steps_open_sessions_and_inflight_faults() {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        // Ordinals: open = 0, extend = 1, open = 2, extend = 3, decode = 4,
        // decode = 5 — the second queued step rides a slowed launch.
        let plan = FaultPlan::new().inject(5, FaultKind::SlowLaunch(Duration::from_millis(2)));
        let server = AttentionServer::start_continuous_with_kv_faults(
            Arc::clone(&mech),
            BatchPolicy::default(),
            SchedPolicy::default(),
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
