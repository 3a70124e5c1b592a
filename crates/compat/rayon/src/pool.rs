//! The persistent worker pool behind every `par_*` call.
//!
//! Workers are spawned **once per process**, lazily on the first parallel
//! call, and parked on a condvar between jobs. A job is a chunked batch of
//! tasks: the caller pushes one type-erased [`JobRef`] per participating
//! worker into the shared queue, then helps execute task chunks itself
//! (help-first). Once every chunk is claimed it takes back the refs no
//! worker has popped yet, and blocks until the popped ones have finished:
//! it waits for workers that are running a chunk, never for one that has
//! still to wake up (a descheduled worker would otherwise stall the caller
//! for as long as the host keeps it off a CPU). Because the caller returns
//! only once no worker can still reach its job, a `JobRef` may safely point
//! at the job living in the caller's stack frame — the same lifetime-erasure
//! protocol `rayon-core` uses, confined to this module.
//!
//! Scheduling invariants that make the pool deadlock-free:
//! * workers never block on a job — they only run claim-loops to completion;
//! * nested `par_*` calls from inside a worker run inline (serial) on that
//!   worker, so a worker never waits for pool capacity it is itself holding;
//! * nested calls from a non-worker caller enqueue fresh refs, which idle
//!   workers drain independently of any outer job.
//!
//! A panicking task *poisons only its job*: the panic is caught on the
//! executing thread, recorded on the job, claim-loops for that job stop
//! early, and the payload is re-thrown on the calling thread once the job is
//! drained. Workers survive and keep serving subsequent jobs.

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Count of worker threads ever spawned (the "spawned at most once per
/// process" contract is asserted against this in tests).
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on pool worker threads: nested `par_*` calls run inline there.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Caller-requested serial execution (see [`crate::with_serial`]).
    static FORCE_SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// True when the current `par_*` call must execute inline rather than fan
/// out: on a worker thread (nested call) or under `with_serial`.
pub(crate) fn must_run_inline() -> bool {
    IS_WORKER.with(Cell::get) || FORCE_SERIAL.with(Cell::get)
}

/// Run `f` with all `par_*` calls on this thread executing serially.
pub(crate) fn with_serial<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_SERIAL.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCE_SERIAL.with(|c| c.replace(true)));
    f()
}

/// Number of worker threads ever spawned by this process.
pub(crate) fn spawned_workers() -> usize {
    SPAWNED.load(Ordering::Relaxed)
}

/// Resolve the pool width: `RAYON_NUM_THREADS` if set to a positive integer
/// (0 or unparsable falls back, like rayon), else available parallelism.
pub(crate) fn parse_num_threads(env: Option<&str>, default: usize) -> usize {
    match env.and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => default.max(1),
    }
}

fn configured_threads() -> usize {
    let default = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    parse_num_threads(std::env::var("RAYON_NUM_THREADS").ok().as_deref(), default)
}

/// A type-erased pointer to a [`Job`] on some caller's stack.
struct JobRef {
    data: *const (),
    exec: unsafe fn(*const ()),
}

// SAFETY: a JobRef is only ever dereferenced while the owning caller is
// blocked in `Pool::run` waiting for the ref count to reach zero, so the
// pointee is live whenever a worker touches it.
unsafe impl Send for JobRef {}

struct Shared {
    queue: Mutex<VecDeque<JobRef>>,
    work_available: Condvar,
}

/// The process-wide pool.
pub(crate) struct Pool {
    shared: &'static Shared,
    threads: usize,
    /// Spawned workers = `threads - 1`: the calling thread claims chunks
    /// too, so a parallel region runs on exactly `threads` compute threads
    /// (matching real rayon's effective width, no core oversubscription).
    workers: usize,
}

impl Pool {
    /// The global pool, initialised (and its workers spawned) on first use.
    pub(crate) fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads = configured_threads();
            let workers = threads.saturating_sub(1);
            let shared: &'static Shared = Box::leak(Box::new(Shared {
                queue: Mutex::new(VecDeque::new()),
                work_available: Condvar::new(),
            }));
            for i in 0..workers {
                SPAWNED.fetch_add(1, Ordering::Relaxed);
                std::thread::Builder::new()
                    .name(format!("dfss-rayon-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker");
            }
            Pool {
                shared,
                threads,
                workers,
            }
        })
    }

    /// Configured pool width (≥ 1).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `task(0..tasks)` across the pool plus the calling thread.
    /// Each index runs exactly once; panics in tasks are re-thrown here
    /// after the job has fully drained.
    pub(crate) fn run(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        if self.workers == 0 || tasks == 1 || must_run_inline() {
            // Inline execution on the calling thread.
            for i in 0..tasks {
                task(i);
            }
            return;
        }
        let refs = self.workers.min(tasks);
        let job = Job {
            task,
            tasks,
            next: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            outstanding_refs: Mutex::new(refs),
            drained: Condvar::new(),
        };
        let data = (&job as *const Job) as *const ();
        {
            let mut queue = self.shared.queue.lock().expect("pool queue");
            for _ in 0..refs {
                queue.push_back(JobRef {
                    data,
                    exec: execute_job_ref,
                });
            }
            self.shared.work_available.notify_all();
        }
        // Help-first: the caller claims chunks alongside the workers.
        job.claim_loop();
        // Nothing is left to claim: a ref still queued would only wake a
        // worker to find no work, so take it back instead of waiting.
        let unpopped = {
            let mut queue = self.shared.queue.lock().expect("pool queue");
            let before = queue.len();
            queue.retain(|r| r.data != data);
            before - queue.len()
        };
        job.retract_refs(unpopped);
        job.wait_drained();
        let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

fn worker_loop(shared: &'static Shared) {
    IS_WORKER.with(|c| c.set(true));
    loop {
        let job_ref = {
            let mut queue = shared.queue.lock().expect("pool queue");
            loop {
                if let Some(r) = queue.pop_front() {
                    break r;
                }
                queue = shared.work_available.wait(queue).expect("pool queue");
            }
        };
        // SAFETY: the caller that pushed this ref is blocked in `run` until
        // `outstanding_refs` hits zero. It takes back only refs still in the
        // queue, never a popped one, and `execute_job_ref` signals only
        // after its last touch of the job.
        unsafe { (job_ref.exec)(job_ref.data) };
    }
}

/// One parallel job; lives on the calling thread's stack for the duration of
/// `Pool::run`.
struct Job<'a> {
    task: &'a (dyn Fn(usize) + Sync),
    tasks: usize,
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Set on first panic; stops all claim loops for this job early.
    panicked: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    /// Pushed JobRefs not yet fully executed. Guarded by a mutex (not an
    /// atomic) so the final decrement and the caller's wakeup check are
    /// ordered by one lock — the worker's last job access is releasing it.
    outstanding_refs: Mutex<usize>,
    drained: Condvar,
}

impl Job<'_> {
    fn claim_loop(&self) {
        loop {
            if self.panicked.load(Ordering::Relaxed) {
                break;
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                break;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.task)(i))) {
                let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(payload);
                drop(slot);
                self.panicked.store(true, Ordering::Relaxed);
            }
        }
    }

    fn finish_ref(&self) {
        let mut refs = self
            .outstanding_refs
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *refs -= 1;
        if *refs == 0 {
            // Notify while holding the lock: after we release it, this
            // thread never touches the job again, and the caller cannot
            // observe refs == 0 before we release it.
            self.drained.notify_all();
        }
    }

    /// Drop `n` refs the caller took back from the queue unexecuted.
    fn retract_refs(&self, n: usize) {
        if n > 0 {
            *self
                .outstanding_refs
                .lock()
                .unwrap_or_else(|e| e.into_inner()) -= n;
        }
    }

    fn wait_drained(&self) {
        let mut refs = self
            .outstanding_refs
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        while *refs != 0 {
            refs = self.drained.wait(refs).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Erased entry point a worker invokes for a popped [`JobRef`].
///
/// # Safety
/// `data` must point to a live `Job` whose owner is blocked in `Pool::run`
/// until this job's ref count reaches zero.
unsafe fn execute_job_ref(data: *const ()) {
    // Reconstituting the reference erases the job's true (non-'static)
    // lifetime; validity is guaranteed by the caller-blocks-until-drained
    // protocol documented on `JobRef`.
    let job: &Job<'_> = unsafe { &*(data as *const Job<'_>) };
    job.claim_loop();
    job.finish_ref();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn caller_never_waits_for_a_worker_that_has_not_started() {
        // A two-wide pool whose one worker never runs: every ref it is sent
        // stays queued, as it does while the host keeps a worker off a CPU.
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_available: Condvar::new(),
        }));
        let pool = Pool {
            shared,
            threads: 2,
            workers: 1,
        };
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let sum = AtomicUsize::new(0);
            pool.run(8, &|i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
            done.send(sum.into_inner()).expect("test thread waits");
        });
        let sum = finished
            .recv_timeout(Duration::from_secs(10))
            .expect("the caller ran every chunk and then waited for a worker that never started");
        assert_eq!(sum, (0..8).sum::<usize>());
        assert!(shared.queue.lock().expect("pool queue").is_empty());
    }
}
