//! Deterministic fault injection for chaos testing the server.
//!
//! A [`FaultPlan`] maps **operation indices** to faults. The server counts
//! every front-door call — `submit`, `open_session`, `append`, `extend`,
//! `submit_decode` — on one shared counter in call order, so a plan built
//! from a seed (or by hand) fires at exactly the same operations on every
//! run with the same traffic. Faults ride the admitted request to the
//! worker and trip at launch, so a panic genuinely unwinds *mid-flush*
//! — through the engine and the mechanism — exactly like a kernel bug
//! would.
//!
//! Injection is opt-in per server ([`crate::AttentionServer::start_with_faults`]);
//! a server started without a plan never wraps its mechanism and performs
//! no per-operation lookups.

use dfss_core::mechanism::{Attention, KvViews, RequestError};
use dfss_kernels::GpuCtx;
use dfss_tensor::{Matrix, Scalar};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a [`FaultPlan`] entry does to the operation it targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The launch containing the targeted prefill or decode request
    /// panics mid-flush ("injected kernel panic"). A prefill launch
    /// carries one chunk of one job (the fault fires at the job's first
    /// chunk), so the targeted job alone fails; a ragged decode launch
    /// fails every step packed into it. Each fails with
    /// [`ServeError::BatchPanicked`](crate::ServeError::BatchPanicked);
    /// the server recovers and keeps serving. Ignored on session
    /// operations (open/append/extend), which never launch.
    PanicInBatch,
    /// The launch containing the targeted request sleeps this long before
    /// running — artificial launch slowness for exercising deadlines and
    /// queue growth. A chunked prefill sleeps at its first chunk only.
    /// Ignored on session operations.
    SlowLaunch(Duration),
    /// The targeted session operation (`open_session`, `append`,
    /// `extend`) is admitted as if the pool had zero free pages: typed
    /// [`SessionError::KvBudgetExhausted`](crate::SessionError::KvBudgetExhausted),
    /// nothing reserved. Ignored on prefill/decode submissions, which
    /// take no pages.
    ExhaustPool,
    /// The worker thread dies (returns without draining) — the hard-crash
    /// case. A targeted prefill fires when the worker drains it from the
    /// channel; a targeted decode step fires when the ragged launch that
    /// would carry it begins. A request whose deadline has already passed
    /// at that point never fires: it is shed as
    /// [`ServeError::DeadlineExceeded`](crate::ServeError::DeadlineExceeded)
    /// like any expired request. Once fired, outstanding and later
    /// handles resolve with
    /// [`ServeError::ServerGone`](crate::ServeError::ServerGone); nothing
    /// blocks forever.
    KillServer,
    /// **Wire fault** (interpreted by the socket-level chaos client, not
    /// the worker): the client sends roughly half the request's bytes,
    /// then closes the connection. The server must drop the
    /// half-request silently — no response, no hung handler, no leaked
    /// session state.
    DisconnectMidRequest,
    /// **Wire fault**: the client stalls this long between sending its
    /// request and reading the response — the server's write lands in
    /// the socket buffer (or blocks against its bounded write deadline)
    /// while the acceptor keeps serving other connections.
    StallMidResponse(Duration),
    /// **Wire fault**: the client sends bytes that are not HTTP at all.
    /// The server must answer with a typed `400` (counted in
    /// `http_parse_rejects`), never panic or hang.
    GarbageBytes,
}

impl FaultKind {
    /// Whether this fault acts at the socket layer (client-side, keyed
    /// by wire-request ordinal) rather than inside the worker (keyed
    /// by front-door operation ordinal). The server's own fault lookup
    /// ignores wire faults; the chaos client ignores worker faults.
    pub fn is_wire(&self) -> bool {
        matches!(
            self,
            FaultKind::DisconnectMidRequest
                | FaultKind::StallMidResponse(_)
                | FaultKind::GarbageBytes
        )
    }
}

/// A deterministic schedule of injected faults, keyed by front-door
/// operation index (0-based, in call order).
///
/// ```
/// use dfss_serve::{FaultKind, FaultPlan};
/// use std::time::Duration;
///
/// let plan = FaultPlan::new()
///     .inject(3, FaultKind::PanicInBatch)
///     .inject(7, FaultKind::SlowLaunch(Duration::from_millis(2)));
/// assert_eq!(plan.get(3), Some(FaultKind::PanicInBatch));
/// assert_eq!(plan.get(4), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: HashMap<u64, FaultKind>,
}

impl FaultPlan {
    /// An empty plan (no faults fire until [`inject`](Self::inject)ed).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedule `kind` to fire at front-door operation `op` (replacing any
    /// fault already scheduled there). Builder-style.
    pub fn inject(mut self, op: u64, kind: FaultKind) -> FaultPlan {
        self.faults.insert(op, kind);
        self
    }

    /// The fault scheduled at operation `op`, if any.
    pub fn get(&self, op: u64) -> Option<FaultKind> {
        self.faults.get(&op).copied()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// The armed-fault latch shared between the worker and the fault-wrapped
/// mechanism: the worker arms it from the tags riding a launch, the
/// wrapper trips it at the first kernel entry point.
#[derive(Debug, Default)]
pub(crate) struct FaultArm {
    panic_next: AtomicBool,
    slow_next_ns: AtomicU64,
}

impl FaultArm {
    /// Arm a panic for the next launch.
    pub fn arm_panic(&self) {
        self.panic_next.store(true, Ordering::SeqCst);
    }

    /// Arm a sleep for the next launch (longest wins if several tags land
    /// in one decode flush).
    pub fn arm_slow(&self, delay: Duration) {
        let ns = delay.as_nanos().min(u64::MAX as u128) as u64;
        self.slow_next_ns.fetch_max(ns, Ordering::SeqCst);
    }

    /// Arm whatever launch fault `fault` carries (a no-op for the others).
    pub fn arm_for(&self, fault: Option<FaultKind>) {
        match fault {
            Some(FaultKind::PanicInBatch) => self.arm_panic(),
            Some(FaultKind::SlowLaunch(delay)) => self.arm_slow(delay),
            _ => {}
        }
    }

    /// Fire-and-clear: sleep if slowness is armed, then panic if a panic
    /// is armed. Called on the worker thread at launch entry.
    fn trip(&self) {
        let ns = self.slow_next_ns.swap(0, Ordering::SeqCst);
        if ns > 0 {
            std::thread::sleep(Duration::from_nanos(ns));
        }
        if self.panic_next.swap(false, Ordering::SeqCst) {
            panic!("injected kernel panic");
        }
    }
}

/// A delegating mechanism wrapper that trips armed faults at the engine's
/// two launch entry points — `forward` (one prefill chunk) and
/// `decode_paged` (a ragged decode launch) — so the panic unwinds from
/// inside the mechanism call, exactly where a real kernel bug would
/// surface.
pub(crate) struct FaultyAttention<T: Scalar> {
    pub inner: Arc<dyn Attention<T> + Send + Sync>,
    pub arm: Arc<FaultArm>,
}

impl<T: Scalar> Attention<T> for FaultyAttention<T> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn forward(&self, ctx: &mut GpuCtx, q: &Matrix<T>, k: &Matrix<T>, v: &Matrix<T>) -> Matrix<T> {
        self.arm.trip();
        self.inner.forward(ctx, q, k, v)
    }

    fn scale_for(&self, d: usize) -> f32 {
        self.inner.scale_for(d)
    }

    fn decode(
        &self,
        ctx: &mut GpuCtx,
        q_row: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
    ) -> Matrix<T> {
        self.inner.decode(ctx, q_row, k, v)
    }

    fn decode_paged(
        &self,
        ctx: &mut GpuCtx,
        q: &Matrix<T>,
        kv: &KvViews<'_, T>,
        d_v: usize,
    ) -> Matrix<T> {
        self.arm.trip();
        self.inner.decode_paged(ctx, q, kv, d_v)
    }

    fn check_shape(&self, n: usize, d: usize) -> Result<(), RequestError> {
        self.inner.check_shape(n, d)
    }

    fn supports_row_chunking(&self) -> bool {
        self.inner.supports_row_chunking()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfss_core::full::FullAttention;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn plan_builder_schedules_and_replaces() {
        let plan = FaultPlan::new()
            .inject(0, FaultKind::PanicInBatch)
            .inject(5, FaultKind::ExhaustPool)
            .inject(0, FaultKind::KillServer);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.get(0), Some(FaultKind::KillServer));
        assert_eq!(plan.get(5), Some(FaultKind::ExhaustPool));
        assert_eq!(plan.get(1), None);
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn armed_panic_fires_once_inside_the_launch() {
        let arm = Arc::new(FaultArm::default());
        let mech = FaultyAttention::<f32> {
            inner: Arc::new(FullAttention),
            arm: Arc::clone(&arm),
        };
        let (rows, kv) = (Matrix::<f32>::zeros(2, 4), Matrix::<f32>::zeros(4, 4));
        arm.arm_panic();
        let mut ctx = GpuCtx::a100();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _ = mech.forward(&mut ctx, &rows, &kv, &kv);
        }));
        assert!(unwound.is_err(), "armed wrapper must panic at a chunk");
        // The latch cleared: the next launch runs clean.
        assert_eq!(mech.forward(&mut ctx, &rows, &kv, &kv).shape(), (2, 4));
    }
}
