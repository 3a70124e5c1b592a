//! Sharded multi-engine serving: N independent continuous-batching
//! engines behind one router.
//!
//! A [`ShardedServer`] runs one [`AttentionServer`] per shard, each with
//! its **own** worker thread, engine, scheduler and
//! [`crate::KvPool`] (the configured byte budget is divided evenly across
//! shards). Shards are pinned engines: a request the router hands to a
//! shard is admitted, scheduled and served by that shard alone. Traffic
//! splits by state:
//!
//! * **Decode sessions are shard-pinned.** `open_session` hashes the
//!   session id to a shard once (splitmix64 — stable for the session's
//!   whole lifetime) and every later `append`/`extend`/`submit_decode`/
//!   `close_session` goes to that shard. KV pages never migrate, so
//!   decode outputs are bit-identical to a solo server's.
//! * **Prefill goes to the least-loaded shard.** `submit` picks the shard
//!   with the fewest unresolved requests — the counter
//!   [`BatchPolicy::max_queue_depth`] bounds — rotating ties round-robin,
//!   and calls that shard's own `submit_with_deadline`. Validation, the
//!   depth bound, rejection counts, deadlines and fault plans therefore
//!   apply per shard exactly as on a single server, and the shard's
//!   scheduler chunks the prefill (or runs it whole, for mechanisms that
//!   are not row-chunkable). Every shard holds the same mechanism, so
//!   outputs are bit-identical whichever shard serves them.

use crate::faults::FaultPlan;
use crate::kv::{KvConfig, SessionId};
use crate::sched::SchedPolicy;
use crate::server::{lock, AttentionServer, ResponseHandle};
use crate::{
    BatchPolicy, DecodeHandle, DecodeRequest, QueueDepths, SchedTrace, ServeError, ServeStats,
    SessionError,
};
use dfss_core::mechanism::Attention;
use dfss_tensor::{Matrix, Scalar};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The splitmix64 finalizer — the session→shard hash. Deterministic,
/// well-mixed for sequential ids, and dependency-free.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// N continuous-batching engines behind one router — shard-pinned decode
/// sessions and least-loaded prefill admission. See the module docs for
/// the routing policy.
pub struct ShardedServer<T: Scalar> {
    shards: Vec<AttentionServer<T>>,
    /// Global session id → (owning shard, that shard's local id).
    sessions: Mutex<HashMap<u64, (usize, SessionId)>>,
    next_session: AtomicU64,
    /// Rotating tie-break for least-loaded prefill routing.
    rr: AtomicU64,
}

impl<T: Scalar> ShardedServer<T> {
    /// Start `shards` continuous engines over one mechanism. The KV byte
    /// budget in `kv` is divided evenly: each shard owns an independent
    /// pool of `budget_bytes / shards` (decode sessions are pinned, so a
    /// shard's pool only ever backs its own sessions). `policy` applies
    /// to every shard on its own, so `max_queue_depth` bounds each
    /// shard's queue.
    pub fn start(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
        sched: SchedPolicy,
        kv: KvConfig,
        shards: usize,
    ) -> ShardedServer<T> {
        ShardedServer::start_with_faults(mech, policy, sched, kv, shards, Vec::new())
    }

    /// [`start`](Self::start) with a per-shard [`FaultPlan`] (chaos
    /// testing): `plans[i]` keys on shard `i`'s own front-door operation
    /// ordinals, exactly as on a solo server. Those ordinals count the
    /// session traffic routed to the shard **and** the prefill
    /// submissions the router sends it. Missing entries mean no faults on
    /// that shard.
    pub fn start_with_faults(
        mech: Arc<dyn Attention<T> + Send + Sync>,
        policy: BatchPolicy,
        sched: SchedPolicy,
        kv: KvConfig,
        shards: usize,
        mut plans: Vec<FaultPlan>,
    ) -> ShardedServer<T> {
        assert!(shards >= 1, "a sharded server needs at least one shard");
        let mut kv_shard = kv;
        kv_shard.budget_bytes = kv.budget_bytes / shards as u64;
        plans.resize(shards, FaultPlan::new());
        let servers = plans
            .into_iter()
            .map(|plan| {
                let mech = Arc::clone(&mech);
                if plan.is_empty() {
                    AttentionServer::start_continuous_with_kv(mech, policy, sched, kv_shard)
                } else {
                    AttentionServer::start_continuous_with_kv_faults(
                        mech, policy, sched, kv_shard, plan,
                    )
                }
            })
            .collect();
        ShardedServer {
            shards: servers,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(0),
            rr: AtomicU64::new(0),
        }
    }

    /// Number of engine shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read-only access to shard `i` (metrics, traces, queue depths).
    pub fn shard(&self, i: usize) -> &AttentionServer<T> {
        &self.shards[i]
    }

    /// The shard a session is pinned to — constant for the session's
    /// whole lifetime ([`None`] once closed or never opened).
    pub fn shard_of(&self, session: SessionId) -> Option<usize> {
        lock(&self.sessions)
            .get(&session.0)
            .map(|&(shard, _)| shard)
    }

    /// The shard with the fewest unresolved requests,
    /// rotating ties so a burst onto an idle fleet spreads round-robin.
    fn least_loaded(&self) -> usize {
        let n = self.shards.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed) as usize % n;
        (0..n)
            .map(|i| (start + i) % n)
            .min_by_key(|&i| self.shards[i].depth())
            .expect("at least one shard")
    }

    /// Route one prefill request to the least-loaded shard, which admits
    /// it through its own [`AttentionServer::submit`]: malformed requests
    /// come back [`ServeError::Rejected`] and a shard at its depth bound
    /// sheds with [`ServeError::Overloaded`], both counted on that shard.
    pub fn submit(
        &self,
        q: Matrix<T>,
        k: Matrix<T>,
        v: Matrix<T>,
    ) -> Result<ResponseHandle<T>, ServeError> {
        self.submit_with_deadline(q, k, v, None)
    }

    /// [`submit`](Self::submit) with a deadline, enforced by the chosen
    /// shard exactly as [`AttentionServer::submit_with_deadline`] does.
    pub fn submit_with_deadline(
        &self,
        q: Matrix<T>,
        k: Matrix<T>,
        v: Matrix<T>,
        deadline: Option<Instant>,
    ) -> Result<ResponseHandle<T>, ServeError> {
        self.shards[self.least_loaded()].submit_with_deadline(q, k, v, deadline)
    }

    /// Open a decode session, pinning it to `splitmix64(id) % shards` for
    /// life. Admission (widths, per-shard KV budget) runs on the owning
    /// shard; the returned id is global — use it with every later call.
    pub fn open_session(&self, d: usize, d_v: usize) -> Result<SessionId, SessionError> {
        let gid = self.next_session.fetch_add(1, Ordering::Relaxed);
        let shard = (splitmix64(gid) % self.shards.len() as u64) as usize;
        let local = self.shards[shard].open_session(d, d_v)?;
        lock(&self.sessions).insert(gid, (shard, local));
        Ok(SessionId(gid))
    }

    /// Look up a global session, or fail typed.
    fn route(&self, session: SessionId) -> Result<(usize, SessionId), SessionError> {
        lock(&self.sessions)
            .get(&session.0)
            .copied()
            .ok_or(SessionError::UnknownSession(session))
    }

    /// Rewrite shard-local session ids in errors back to the global id —
    /// callers never see a shard's private id space.
    fn reglobal(e: SessionError, session: SessionId) -> SessionError {
        match e {
            SessionError::UnknownSession(_) => SessionError::UnknownSession(session),
            SessionError::Evicted(_) => SessionError::Evicted(session),
            other => other,
        }
    }

    /// Append one position to a session's cache on its owning shard.
    pub fn append(
        &self,
        session: SessionId,
        k_row: Vec<T>,
        v_row: Vec<T>,
    ) -> Result<(), SessionError> {
        let (shard, local) = self.route(session)?;
        self.shards[shard]
            .append(local, k_row, v_row)
            .map_err(|e| ShardedServer::<T>::reglobal(e, session))
    }

    /// Append a block of positions at once on the owning shard.
    pub fn extend(
        &self,
        session: SessionId,
        k: Matrix<T>,
        v: Matrix<T>,
    ) -> Result<(), SessionError> {
        let (shard, local) = self.route(session)?;
        self.shards[shard]
            .extend(local, k, v)
            .map_err(|e| ShardedServer::<T>::reglobal(e, session))
    }

    /// Enqueue one decode step on the session's owning shard — decode is
    /// session-pinned, so the step attends over exactly the pages that
    /// shard holds for the session.
    pub fn submit_decode(&self, req: DecodeRequest<T>) -> Result<DecodeHandle<T>, SessionError> {
        self.submit_decode_with_deadline(req, None)
    }

    /// [`submit_decode`](Self::submit_decode) with a deadline.
    pub fn submit_decode_with_deadline(
        &self,
        req: DecodeRequest<T>,
        deadline: Option<Instant>,
    ) -> Result<DecodeHandle<T>, SessionError> {
        let session = req.session;
        let (shard, local) = self.route(session)?;
        self.shards[shard]
            .submit_decode_with_deadline(
                DecodeRequest {
                    session: local,
                    q_row: req.q_row,
                },
                deadline,
            )
            .map_err(|e| ShardedServer::<T>::reglobal(e, session))
    }

    /// Close a session on its owning shard and retire the global id.
    pub fn close_session(&self, session: SessionId) -> Result<(), SessionError> {
        let (shard, local) = self.route(session)?;
        let res = self.shards[shard]
            .close_session(local)
            .map_err(|e| ShardedServer::<T>::reglobal(e, session));
        lock(&self.sessions).remove(&session.0);
        res
    }

    /// Per-shard live counters, in shard order (`GET /metrics` renders
    /// one gauge set per shard from this).
    pub fn stats_snapshot(&self) -> Vec<ServeStats> {
        self.shards.iter().map(|s| s.stats_snapshot()).collect()
    }

    /// Per-shard live queue depths, in shard order.
    pub fn queue_depths(&self) -> Vec<QueueDepths> {
        self.shards.iter().map(|s| s.queue_depths()).collect()
    }

    /// Per-shard scheduler traces, in shard order. Each shard's trace is
    /// deterministic given its own admission order.
    pub fn sched_traces(&self) -> Vec<SchedTrace> {
        self.shards.iter().map(|s| s.sched_trace()).collect()
    }

    /// Drain all shards (every admitted prefill and decode step runs
    /// before its engine exits) and return their lifetime counters in
    /// shard order.
    pub fn shutdown(self) -> Vec<ServeStats> {
        self.shards.into_iter().map(|s| s.shutdown()).collect()
    }
}
