//! The continuous-batching scheduler: one admission loop per engine that,
//! every iteration, packs **all ready decode steps** together with
//! **chunked prefill work** under a single row budget — the vLLM-style
//! cadence that replaces the separate prefill/decode flushes.
//!
//! The scheduler is **pure data**: it sees job ids and row counts, never a
//! matrix, a thread, or a clock. Its decisions are therefore a
//! deterministic function of the admission order and the
//! [`SchedPolicy`] alone — the property the replayable [`SchedTrace`] and
//! the `tests/scheduler.rs` gauntlet pin:
//!
//! ```text
//!              admit_prefill(job, rows)      admit_decode(step)
//!                        │                          │
//!                        ▼                          ▼
//!               jobs: [J0 ▸cursor] [J1] …    decode: [s0, s1, …]
//!                        │                          │
//!                        └───── next_iteration ─────┘
//!                                    │
//!          ┌─────────────────────────▼─────────────────────────┐
//!          │ 1. ALL ready decode steps pack (1 budget row each) │
//!          │ 2. remaining budget fills prefill chunks,          │
//!          │    ≤ prefill_chunk rows each, round-robin over     │
//!          │    jobs in admission order                         │
//!          │ 3. ≥ 1 chunk packs whenever prefill is pending —   │
//!          │    even at zero remaining budget                   │
//!          └────────────────────────────────────────────────────┘
//! ```
//!
//! Rule 1 bounds decode latency: a step admitted before an iteration is
//! served **in** that iteration — no decode ever waits behind a whole cold
//! prefill. Rule 3 bounds prefill latency: saturating decode load can
//! shrink prefill progress to one chunk per iteration, never to zero.

use std::collections::VecDeque;

/// When and how the continuous scheduler packs an iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedPolicy {
    /// Maximum query rows per prefill chunk — big prefills split into
    /// slices of this many rows, resumable across iterations.
    pub prefill_chunk: usize,
    /// Row budget of one iteration. Each decode step charges one row;
    /// prefill chunks fill what the decode pack leaves.
    pub iter_budget_rows: usize,
}

impl Default for SchedPolicy {
    fn default() -> SchedPolicy {
        SchedPolicy {
            prefill_chunk: 64,
            iter_budget_rows: 128,
        }
    }
}

impl SchedPolicy {
    /// A policy with an explicit chunk size and iteration budget.
    pub fn new(prefill_chunk: usize, iter_budget_rows: usize) -> SchedPolicy {
        assert!(prefill_chunk >= 1, "prefill_chunk must be at least 1");
        assert!(iter_budget_rows >= 1, "iter_budget_rows must be at least 1");
        SchedPolicy {
            prefill_chunk,
            iter_budget_rows,
        }
    }
}

/// One planned prefill chunk: rows `[lo, hi)` of job `job`'s query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkPlan {
    /// The prefill job the chunk belongs to.
    pub job: u64,
    /// First query row of the chunk (inclusive).
    pub lo: usize,
    /// Last query row of the chunk (exclusive).
    pub hi: usize,
}

/// One scheduler iteration's packing decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IterationPlan {
    /// Iteration ordinal (monotone from 0 per scheduler).
    pub iter: u64,
    /// Every decode step ready at iteration start, in admission order —
    /// all of them pack, budget notwithstanding.
    pub decode: Vec<u64>,
    /// Prefill chunks packed after the decode steps, round-robin over
    /// jobs in admission order.
    pub chunks: Vec<ChunkPlan>,
}

/// One replayable scheduler event. Events carry only **logical** content
/// (ids, row ranges, ordinals — never timings or addresses), so the same
/// admission sequence renders to byte-identical traces on any machine,
/// any thread count, any run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedEvent {
    /// A prefill job of `rows` query rows was admitted.
    AdmitPrefill {
        /// Job id.
        job: u64,
        /// Total query rows of the job.
        rows: usize,
    },
    /// A decode step became ready.
    AdmitDecode {
        /// Step id.
        step: u64,
    },
    /// One packed iteration (see [`IterationPlan`]).
    Iteration {
        /// Iteration ordinal.
        iter: u64,
        /// Decode steps packed.
        decode: Vec<u64>,
        /// Prefill chunks packed, as `(job, lo, hi)`.
        chunks: Vec<(u64, usize, usize)>,
    },
    /// Ready decode steps were flushed **outside** an iteration — the
    /// determinism rule (a queued decode must launch before an append/
    /// extend/close/evict touches its session's cache) forced them out.
    ForcedDecode {
        /// Steps flushed, in admission order.
        steps: Vec<u64>,
    },
    /// A job was cancelled before completion (deadline shed, panic, or
    /// client gone); its remaining rows will never be planned.
    Cancel {
        /// The cancelled job.
        job: u64,
    },
}

/// The replayable event log of one scheduler. [`render`](Self::render)
/// produces a canonical byte representation: two runs over the same
/// admission sequence and policy compare byte-equal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedTrace {
    events: Vec<SchedEvent>,
}

impl SchedTrace {
    /// The recorded events, in order.
    pub fn events(&self) -> &[SchedEvent] {
        &self.events
    }

    /// Append one event.
    pub fn push(&mut self, event: SchedEvent) {
        self.events.push(event);
    }

    /// Canonical textual form: one line per event, stable field order,
    /// no timings — byte-identical across runs for the same admission
    /// sequence and policy.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            match e {
                SchedEvent::AdmitPrefill { job, rows } => {
                    out.push_str(&format!("admit_prefill job={job} rows={rows}\n"));
                }
                SchedEvent::AdmitDecode { step } => {
                    out.push_str(&format!("admit_decode step={step}\n"));
                }
                SchedEvent::Iteration {
                    iter,
                    decode,
                    chunks,
                } => {
                    out.push_str(&format!("iter={iter} decode=["));
                    for (i, s) in decode.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&s.to_string());
                    }
                    out.push_str("] chunks=[");
                    for (i, (job, lo, hi)) in chunks.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("{job}:{lo}..{hi}"));
                    }
                    out.push_str("]\n");
                }
                SchedEvent::ForcedDecode { steps } => {
                    out.push_str("forced_decode steps=[");
                    for (i, s) in steps.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&s.to_string());
                    }
                    out.push_str("]\n");
                }
                SchedEvent::Cancel { job } => {
                    out.push_str(&format!("cancel job={job}\n"));
                }
            }
        }
        out
    }
}

struct JobState {
    id: u64,
    rows: usize,
    cursor: usize,
}

/// The continuous-batching scheduler of one engine. Pure data: decisions
/// depend only on the admission order and the policy, never on wall-clock
/// time, thread interleaving, or payload contents.
pub struct Scheduler {
    policy: SchedPolicy,
    /// Pending prefill jobs. Queue order realises the round-robin: a job
    /// that received a chunk and still has rows left moves to the back.
    jobs: VecDeque<JobState>,
    /// Decode steps ready for the next iteration, in admission order.
    decode: Vec<u64>,
    iter: u64,
    trace: SchedTrace,
}

impl Scheduler {
    /// A scheduler under `policy` with nothing admitted.
    pub fn new(policy: SchedPolicy) -> Scheduler {
        Scheduler {
            policy,
            jobs: VecDeque::new(),
            decode: Vec::new(),
            iter: 0,
            trace: SchedTrace::default(),
        }
    }

    /// The scheduler's policy.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Admit a prefill job of `rows` query rows. Jobs are planned in
    /// admission order; big jobs split into `prefill_chunk`-row slices
    /// across iterations.
    pub fn admit_prefill(&mut self, job: u64, rows: usize) {
        assert!(
            rows > 0,
            "zero-row prefill jobs are rejected at the front door"
        );
        self.trace.push(SchedEvent::AdmitPrefill { job, rows });
        self.jobs.push_back(JobState {
            id: job,
            rows,
            cursor: 0,
        });
    }

    /// Admit a ready decode step. Every ready step packs into the very
    /// next iteration.
    pub fn admit_decode(&mut self, step: u64) {
        self.trace.push(SchedEvent::AdmitDecode { step });
        self.decode.push(step);
    }

    /// Whether anything is pending (a job with rows left or a ready
    /// decode step).
    pub fn has_work(&self) -> bool {
        !self.jobs.is_empty() || !self.decode.is_empty()
    }

    /// Prefill jobs with rows still unplanned.
    pub fn pending_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Remove a job (deadline shed, panic, client gone). Its remaining
    /// rows will never be planned. `false` if the job is unknown or
    /// already complete.
    pub fn cancel(&mut self, job: u64) -> bool {
        let before = self.jobs.len();
        self.jobs.retain(|j| j.id != job);
        if self.jobs.len() < before {
            self.trace.push(SchedEvent::Cancel { job });
            true
        } else {
            false
        }
    }

    /// Take every ready decode step **outside** an iteration — the
    /// determinism rule forced a flush (an append/extend/close/evict
    /// arrived for a session with a queued step). Recorded as a distinct
    /// [`SchedEvent::ForcedDecode`] so replays can tell forced flushes
    /// from packed iterations.
    pub fn force_decode_flush(&mut self) -> Vec<u64> {
        let steps = std::mem::take(&mut self.decode);
        if !steps.is_empty() {
            self.trace.push(SchedEvent::ForcedDecode {
                steps: steps.clone(),
            });
        }
        steps
    }

    /// Pack the next iteration, or `None` when nothing is pending.
    ///
    /// Packing rules (the fairness contract, pinned by
    /// `tests/scheduler.rs`):
    ///
    /// 1. **every** ready decode step packs first, one budget row each —
    ///    even when the decode pack alone exceeds the budget. A decode
    ///    step therefore waits at most the one iteration in flight at its
    ///    admission.
    /// 2. the remaining budget fills prefill chunks of at most
    ///    `prefill_chunk` rows, round-robin over jobs in admission order
    ///    (a job that got a chunk and still has rows moves behind the
    ///    jobs that have not gone yet).
    /// 3. whenever prefill is pending, **at least one chunk packs** even
    ///    at zero remaining budget — saturating decode load slows prefill
    ///    to one chunk per iteration, never to zero.
    pub fn next_iteration(&mut self) -> Option<IterationPlan> {
        if self.jobs.is_empty() && self.decode.is_empty() {
            return None;
        }
        let decode = std::mem::take(&mut self.decode);
        let mut budget = self.policy.iter_budget_rows.saturating_sub(decode.len());
        let mut chunks: Vec<ChunkPlan> = Vec::new();
        let mut requeue: VecDeque<JobState> = VecDeque::new();
        while let Some(mut job) = self.jobs.pop_front() {
            let remaining = job.rows - job.cursor;
            let cap = remaining.min(self.policy.prefill_chunk);
            // Anti-starvation: the iteration's first chunk ignores the
            // budget floor (it still caps at prefill_chunk).
            let take = if chunks.is_empty() {
                cap
            } else {
                cap.min(budget)
            };
            if take == 0 {
                self.jobs.push_front(job);
                break;
            }
            let lo = job.cursor;
            let hi = lo + take;
            chunks.push(ChunkPlan {
                job: job.id,
                lo,
                hi,
            });
            job.cursor = hi;
            budget = budget.saturating_sub(take);
            if job.cursor < job.rows {
                requeue.push_back(job);
            }
            if budget == 0 {
                break;
            }
        }
        // Jobs that ran this iteration go behind the ones still waiting.
        self.jobs.append(&mut requeue);
        let plan = IterationPlan {
            iter: self.iter,
            decode,
            chunks,
        };
        self.iter += 1;
        self.trace.push(SchedEvent::Iteration {
            iter: plan.iter,
            decode: plan.decode.clone(),
            chunks: plan.chunks.iter().map(|c| (c.job, c.lo, c.hi)).collect(),
        });
        Some(plan)
    }

    /// The replayable event log since the last
    /// [`drain_trace`](Self::drain_trace) — the whole log for a scheduler
    /// that is never drained.
    pub fn trace(&self) -> &SchedTrace {
        &self.trace
    }

    /// Take the events logged since the last drain, in order, leaving the
    /// log empty — for an owner that keeps the one copy of the trace
    /// itself (the server appends them to the trace it publishes).
    pub fn drain_trace(&mut self) -> impl Iterator<Item = SchedEvent> + '_ {
        self.trace.events.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_always_packs_next_iteration_even_over_budget() {
        let mut s = Scheduler::new(SchedPolicy::new(8, 4));
        for step in 0..10 {
            s.admit_decode(step);
        }
        s.admit_prefill(100, 32);
        let plan = s.next_iteration().unwrap();
        // All 10 decode steps pack despite the budget of 4…
        assert_eq!(plan.decode, (0..10).collect::<Vec<_>>());
        // …and prefill still progresses by exactly one chunk.
        assert_eq!(
            plan.chunks,
            vec![ChunkPlan {
                job: 100,
                lo: 0,
                hi: 8
            }]
        );
    }

    #[test]
    fn prefill_chunks_round_robin_and_resume() {
        let mut s = Scheduler::new(SchedPolicy::new(4, 8));
        s.admit_prefill(0, 10);
        s.admit_prefill(1, 6);
        // Iter 0: job0 rows 0..4, job1 rows 0..4 (budget 8 exactly).
        let p0 = s.next_iteration().unwrap();
        assert_eq!(
            p0.chunks,
            vec![
                ChunkPlan {
                    job: 0,
                    lo: 0,
                    hi: 4
                },
                ChunkPlan {
                    job: 1,
                    lo: 0,
                    hi: 4
                }
            ]
        );
        // Iter 1: round-robin continues where each job left off.
        let p1 = s.next_iteration().unwrap();
        assert_eq!(
            p1.chunks,
            vec![
                ChunkPlan {
                    job: 0,
                    lo: 4,
                    hi: 8
                },
                ChunkPlan {
                    job: 1,
                    lo: 4,
                    hi: 6
                }
            ]
        );
        // Iter 2: only job0's tail remains.
        let p2 = s.next_iteration().unwrap();
        assert_eq!(
            p2.chunks,
            vec![ChunkPlan {
                job: 0,
                lo: 8,
                hi: 10
            }]
        );
        assert!(s.next_iteration().is_none());
    }

    #[test]
    fn same_admissions_render_byte_identical_traces() {
        // With `drain_midway`, the log is drained after the first
        // iteration and the rest appended behind it, as the server does.
        let run = |drain_midway: bool| {
            let mut s = Scheduler::new(SchedPolicy::new(16, 32));
            let mut kept = SchedTrace::default();
            s.admit_prefill(0, 100);
            s.admit_decode(7);
            s.admit_decode(8);
            let _ = s.next_iteration();
            if drain_midway {
                for e in s.drain_trace() {
                    kept.push(e);
                }
                assert!(s.trace().events().is_empty());
            }
            s.admit_prefill(1, 40);
            let _ = s.force_decode_flush();
            while s.next_iteration().is_some() {}
            for e in s.drain_trace() {
                kept.push(e);
            }
            kept.render()
        };
        let a = run(false);
        let b = run(false);
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert_eq!(a.as_bytes(), run(true).as_bytes());
        assert!(a.contains("admit_prefill job=0 rows=100"));
        assert!(a.contains("iter=0 decode=[7,8]"));
    }

    #[test]
    fn cancel_removes_remaining_rows_from_planning() {
        let mut s = Scheduler::new(SchedPolicy::new(4, 4));
        s.admit_prefill(0, 100);
        let _ = s.next_iteration().unwrap();
        assert!(s.cancel(0));
        assert!(!s.cancel(0));
        assert!(s.next_iteration().is_none());
        assert!(s
            .trace()
            .events()
            .iter()
            .any(|e| matches!(e, SchedEvent::Cancel { job: 0 })));
    }
}
