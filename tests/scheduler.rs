//! The continuous-batching fairness/starvation gauntlet, pinning the
//! scheduler contract end to end:
//!
//! - **Decode never waits behind a cold prefill**: every decode step
//!   admitted before an iteration packs *into* that iteration, whatever
//!   the prefill backlog (K = 1 iteration of worst-case wait).
//! - **Prefill never starves**: whenever prefill is pending, every
//!   iteration packs at least one chunk — saturating decode load slows
//!   prefill to one chunk per iteration, never to zero.
//! - **Chunking is exact**: the chunks planned for a job partition its
//!   row range `[0, rows)` in order, each at most `prefill_chunk` rows.
//! - **Bit-parity**: outputs of the chunked, interleaved continuous
//!   server are bit-identical to solo unchunked computation.
//! - **Trace determinism**: the same admission sequence under the same
//!   policy renders byte-identical [`SchedTrace`]s — across runs, across
//!   serial vs parallel kernel execution, and against a pure replay of
//!   the admission sequence (the property that makes the trace an
//!   executable spec for `RAYON_NUM_THREADS=1` vs default CI legs).
//! - **One launch per planned chunk**: every planned chunk — a whole job or
//!   a row slice of one — runs as its own launch, in plan order, and a job
//!   run whole is charged exactly its solo forward's simulated latency.

use dfss::core::linear_baselines::NystromAttention;
use dfss::prelude::*;
use dfss_serve::sched::SchedEvent;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Bounded wait: long enough that a live server always answers, short
/// enough that a hang fails the test instead of wedging CI.
const NO_HANG: Duration = Duration::from_secs(30);

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Solo, unchunked reference computation.
fn solo_forward(
    mech: &(dyn Attention<f32> + Send + Sync),
    q: &Matrix<f32>,
    k: &Matrix<f32>,
    v: &Matrix<f32>,
) -> Matrix<f32> {
    let mut ctx = GpuCtx::a100();
    mech.forward(&mut ctx, q, k, v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Rule 1: every ready decode step packs into the very next
    /// iteration, however deep the prefill backlog — and rule 3: an
    /// iteration with prefill pending always packs at least one chunk.
    #[test]
    fn decode_waits_at_most_one_iteration_and_prefill_never_starves(
        chunk in 1usize..32,
        budget in 1usize..64,
        jobs in proptest::collection::vec(1usize..200, 6),
        decode_bursts in proptest::collection::vec(0usize..12, 16),
    ) {
        let mut s = Scheduler::new(SchedPolicy::new(chunk, budget));
        let mut next_job = 0u64;
        let mut next_step = 0u64;
        let mut jobs_iter = jobs.iter();
        for &burst in &decode_bursts {
            // Interleave admissions: maybe one prefill job, then a burst
            // of decode steps.
            if let Some(&rows) = jobs_iter.next() {
                s.admit_prefill(next_job, rows);
                next_job += 1;
            }
            let ready: Vec<u64> = (0..burst).map(|i| next_step + i as u64).collect();
            for &step in &ready {
                s.admit_decode(step);
            }
            next_step += burst as u64;
            let had_prefill = s.pending_jobs() > 0;
            if let Some(plan) = s.next_iteration() {
                // Every step admitted before the iteration is in it.
                prop_assert_eq!(&plan.decode, &ready);
                // Prefill pending ⇒ at least one chunk packs, and the
                // first chunk ignores the budget floor.
                if had_prefill {
                    prop_assert!(!plan.chunks.is_empty());
                }
                for c in &plan.chunks {
                    prop_assert!(c.hi > c.lo);
                    prop_assert!(c.hi - c.lo <= chunk);
                }
            } else {
                prop_assert!(ready.is_empty());
                prop_assert!(!had_prefill);
            }
        }
    }

    /// Chunks planned for each job partition `[0, rows)` exactly, in row
    /// order, and every admitted job completes in bounded iterations —
    /// even under a saturating decode load that leaves zero spare budget.
    #[test]
    fn every_job_completes_with_exact_row_coverage_under_decode_saturation(
        chunk in 1usize..32,
        budget in 1usize..64,
        jobs in proptest::collection::vec(1usize..200, 4),
    ) {
        let mut s = Scheduler::new(SchedPolicy::new(chunk, budget));
        for (id, &rows) in jobs.iter().enumerate() {
            s.admit_prefill(id as u64, rows);
        }
        let mut cursors = vec![0usize; jobs.len()];
        let mut step = 0u64;
        // Worst case: one chunk per iteration for the whole backlog.
        let bound: usize = jobs.iter().map(|r| r.div_ceil(chunk)).sum();
        let mut iterations = 0usize;
        while s.pending_jobs() > 0 {
            // Saturate: fill the entire budget with fresh decode steps.
            for _ in 0..budget {
                s.admit_decode(step);
                step += 1;
            }
            let plan = s.next_iteration().unwrap();
            prop_assert!(!plan.chunks.is_empty(), "prefill starved");
            for c in &plan.chunks {
                // In-order, gap-free coverage per job.
                prop_assert_eq!(c.lo, cursors[c.job as usize]);
                cursors[c.job as usize] = c.hi;
            }
            iterations += 1;
            prop_assert!(iterations <= bound, "jobs not completing");
        }
        for (cursor, &rows) in cursors.iter().zip(&jobs) {
            prop_assert_eq!(*cursor, rows);
        }
    }

    /// Bit-parity: a continuous server with an aggressive chunk size
    /// (forcing multi-chunk prefills interleaved with decode) returns
    /// outputs bit-identical to solo unchunked computation — for the
    /// dense baseline and the paper's N:M mechanism alike.
    #[test]
    fn continuous_chunked_interleaved_outputs_match_solo_bitwise(
        seed in 0u64..1000,
        n_quads in 3usize..12,
        mech_pick in 0usize..2,
    ) {
        // N:M admission binds the key count to a multiple of m = 4; the
        // chunk size of 5 still splits every prefill unevenly.
        let n = n_quads * 4;
        let d = 16usize;
        let mech: Arc<dyn Attention<f32> + Send + Sync> = match mech_pick {
            0 => Arc::new(FullAttention),
            _ => Arc::new(DfssAttention::new(NmPattern::P2_4)),
        };
        let server = AttentionServer::start_continuous_with_kv(
            Arc::clone(&mech),
            BatchPolicy::default(),
            SchedPolicy::new(5, 8), // chunks of 5 rows: every prefill splits
            KvConfig::default(),
        );
        let mut rng = Rng::new(seed);
        // A decode session interleaves with the chunked prefills.
        let session = server.open_session(d, d).unwrap();
        let mut cache_k = Matrix::<f32>::zeros(0, d);
        let mut cache_v = Matrix::<f32>::zeros(0, d);
        let mut handles = Vec::new();
        let mut inputs = Vec::new();
        for _ in 0..3 {
            let q = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
            let k = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
            let v = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
            handles.push(server.submit(q.clone(), k.clone(), v.clone()).unwrap());
            inputs.push((q, k, v));
            let k_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
            let v_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
            server.append(session, k_row.clone(), v_row.clone()).unwrap();
            cache_k = cache_k.vstack(&Matrix::from_vec(1, d, k_row));
            cache_v = cache_v.vstack(&Matrix::from_vec(1, d, v_row));
            let q_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
            let dh = server
                .submit_decode(DecodeRequest { session, q_row: q_row.clone() })
                .unwrap();
            let got = dh.wait_timeout(NO_HANG).unwrap();
            let solo = {
                let mut ctx = GpuCtx::a100();
                mech.decode(&mut ctx, &Matrix::from_vec(1, d, q_row), &cache_k, &cache_v)
            };
            prop_assert!(bits_equal(got.output.as_slice(), solo.as_slice()));
        }
        for (handle, (q, k, v)) in handles.into_iter().zip(&inputs) {
            let served = handle.wait_timeout(NO_HANG).unwrap();
            let solo = solo_forward(mech.as_ref(), q, k, v);
            prop_assert!(
                bits_equal(served.output.as_slice(), solo.as_slice()),
                "chunked continuous output diverged from solo forward"
            );
        }
        server.close_session(session).unwrap();
        let stats = server.shutdown();
        // Chunking really happened: every job needs at least ceil(n/5)
        // chunks (budget pressure can split them further).
        assert!(stats.prefill_chunks >= 3 * n.div_ceil(5) as u64);
        assert_eq!(stats.served, 3);
        assert_eq!(stats.decode_steps, 3);
    }
}

/// The same admission sequence and policy render byte-identical traces
/// across two server runs with sequential (submit-and-wait) traffic, and
/// both equal a pure [`Scheduler`] replay of the admission sequence. The
/// replay target is thread-count-independent by construction, so this
/// test pins trace stability for the `RAYON_NUM_THREADS=1` CI leg too.
#[test]
fn server_traces_are_byte_identical_across_runs_and_match_pure_replay() {
    let policy = SchedPolicy::new(7, 16);
    let rows = [23usize, 7, 40];
    let run = || {
        let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
        let server = AttentionServer::start_continuous_with_kv(
            mech,
            BatchPolicy::default(),
            policy,
            KvConfig::default(),
        );
        let mut rng = Rng::new(11);
        let d = 8usize;
        for &n in &rows {
            let q = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
            let k = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
            let v = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
            // Sequential submit-and-wait: admission order (and so the
            // trace) is fully determined by this loop.
            let handle = server.submit(q, k, v).unwrap();
            handle.wait_timeout(NO_HANG).unwrap();
        }
        let trace = server.sched_trace();
        server.shutdown();
        trace.render()
    };
    let a = run();
    let b = run();
    assert_eq!(a.as_bytes(), b.as_bytes(), "trace diverged across runs");
    // Pure replay: admit each job, drain its iterations to completion —
    // exactly what sequential traffic makes the server do.
    let mut replay = Scheduler::new(policy);
    for (id, &n) in rows.iter().enumerate() {
        replay.admit_prefill(id as u64, n);
        while replay.next_iteration().is_some() {}
    }
    assert_eq!(
        a,
        replay.trace().render(),
        "server trace diverged from the pure scheduler replay"
    );
}

/// Serial vs parallel kernel execution cannot leak into the trace: the
/// same traffic under `rayon::with_serial` renders the same bytes (the
/// in-process analogue of the `test-1thread` CI leg).
#[test]
fn trace_is_identical_under_serial_kernel_execution() {
    let policy = SchedPolicy::new(4, 8);
    let run = || {
        let mech: Arc<dyn Attention<f32> + Send + Sync> =
            Arc::new(DfssAttention::new(NmPattern::P1_2));
        let server = AttentionServer::start_continuous_with_kv(
            mech,
            BatchPolicy::default(),
            policy,
            KvConfig::default(),
        );
        let mut rng = Rng::new(3);
        for _ in 0..2 {
            let q = Matrix::<f32>::random_normal(12, 8, 0.0, 1.0, &mut rng);
            let k = Matrix::<f32>::random_normal(12, 8, 0.0, 1.0, &mut rng);
            let v = Matrix::<f32>::random_normal(12, 8, 0.0, 1.0, &mut rng);
            server
                .submit(q, k, v)
                .unwrap()
                .wait_timeout(NO_HANG)
                .unwrap();
        }
        let trace = server.sched_trace();
        server.shutdown();
        trace.render()
    };
    let parallel = run();
    let serial = rayon::with_serial(run);
    assert_eq!(parallel.as_bytes(), serial.as_bytes());
}

/// Mechanisms without row-separable scores (Nyström) run every prefill
/// whole: the scheduler plans the job as exactly one chunk covering all its
/// rows, whatever the server's `SchedPolicy`, and the output stays
/// bit-identical to solo forward.
#[test]
fn non_chunkable_mechanism_runs_whole_and_matches_solo() {
    let mech_concrete = NystromAttention::new(8);
    assert!(
        !Attention::<f32>::supports_row_chunking(&mech_concrete),
        "Nyström's landmarks are segment means of the whole Q"
    );
    let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(mech_concrete);
    let server = AttentionServer::start_continuous_with_kv(
        Arc::clone(&mech),
        BatchPolicy::default(),
        SchedPolicy::new(5, 8),
        KvConfig::default(),
    );
    let mut rng = Rng::new(5);
    let (n, d) = (32usize, 16usize);
    let q = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
    let k = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
    let v = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
    let served = server
        .submit(q.clone(), k.clone(), v.clone())
        .unwrap()
        .wait_timeout(NO_HANG)
        .unwrap();
    let solo = solo_forward(mech.as_ref(), &q, &k, &v);
    assert!(bits_equal(served.output.as_slice(), solo.as_slice()));
    let trace = server.sched_trace();
    let stats = server.shutdown();
    assert_eq!(stats.prefill_chunks, 1, "a whole job is one chunk");
    let planned: Vec<(u64, usize, usize)> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            SchedEvent::Iteration { chunks, .. } => Some(chunks.clone()),
            _ => None,
        })
        .flatten()
        .collect();
    assert_eq!(
        planned,
        vec![(0, 0, n)],
        "planned as exactly one whole chunk"
    );
}

/// The decode-before-mutation determinism rule survives the continuous
/// path: an append racing a queued decode forces a flush, recorded as a
/// distinct `forced_decode` trace event, and the step's output reflects
/// only the rows cached at its submission.
#[test]
fn forced_decode_flush_is_traced_and_preserves_decode_determinism() {
    let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(FullAttention);
    let server = AttentionServer::start_continuous_with_kv(
        Arc::clone(&mech),
        BatchPolicy::default(),
        SchedPolicy::default(),
        KvConfig::default(),
    );
    let d = 8usize;
    let mut rng = Rng::new(9);
    let session = server.open_session(d, d).unwrap();
    let k1: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
    let v1: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
    server.append(session, k1.clone(), v1.clone()).unwrap();
    let q_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
    let handle = server
        .submit_decode(DecodeRequest {
            session,
            q_row: q_row.clone(),
        })
        .unwrap();
    // Race an append right behind the queued step: the worker must
    // flush the step before the row lands.
    let k2: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
    let v2: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
    server.append(session, k2, v2).unwrap();
    let got = handle.wait_timeout(NO_HANG).unwrap();
    assert_eq!(
        got.cached_len, 1,
        "decode saw rows appended after its submission"
    );
    let solo = {
        let mut ctx = GpuCtx::a100();
        mech.decode(
            &mut ctx,
            &Matrix::from_vec(1, d, q_row),
            &Matrix::from_vec(1, d, k1),
            &Matrix::from_vec(1, d, v1),
        )
    };
    assert!(bits_equal(got.output.as_slice(), solo.as_slice()));
    server.close_session(session).unwrap();
    server.shutdown();
}

/// Block until `server` has begun its first scheduler iteration. With a
/// `SlowLaunch` riding that iteration, everything submitted next waits in
/// the channel and is drained as one backlog.
fn wait_for_first_iteration(server: &AttentionServer<f32>) {
    let deadline = std::time::Instant::now() + NO_HANG;
    while server.stats_snapshot().sched_iterations == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the worker never started"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Submit every triple behind a held launch on a fresh server over `mech`
/// and check the one-launch-per-chunk rule on the backlog:
///
/// - every output is bit-identical to solo forward;
/// - a job planned as one whole chunk reports exactly the simulated
///   latency of its own solo forward;
/// - replies come back in plan order (a job replies when its last chunk
///   runs);
/// - `prefill_chunks` counts one launch per planned chunk.
///
/// Front-door op 0 is the holding prefill, which the server's plan slows.
/// Returns the planned chunks as `(job, lo, hi)`; the hold is job 0.
fn serve_behind_a_hold(
    mech: Arc<dyn Attention<f32> + Send + Sync>,
    sched: SchedPolicy,
    hold: (Matrix<f32>, Matrix<f32>, Matrix<f32>),
    jobs: &[(Matrix<f32>, Matrix<f32>, Matrix<f32>)],
) -> Vec<(u64, usize, usize)> {
    let slow = FaultPlan::new().inject(0, FaultKind::SlowLaunch(Duration::from_millis(300)));
    let server = AttentionServer::start_continuous_with_kv_faults(
        Arc::clone(&mech),
        BatchPolicy::default(),
        sched,
        KvConfig::default(),
        slow,
    );
    let hold_rows = hold.0.rows();
    let held = server.submit(hold.0, hold.1, hold.2).unwrap();
    wait_for_first_iteration(&server);
    let handles: Vec<_> = jobs
        .iter()
        .map(|(q, k, v)| server.submit(q.clone(), k.clone(), v.clone()).unwrap())
        .collect();
    held.wait_timeout(NO_HANG).unwrap();
    let served: Vec<_> = handles
        .into_iter()
        .map(|h| h.wait_timeout(NO_HANG).unwrap())
        .collect();
    let trace = server.sched_trace();
    let stats = server.shutdown();
    let planned: Vec<(u64, usize, usize)> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            SchedEvent::Iteration { chunks, .. } => Some(chunks.clone()),
            _ => None,
        })
        .flatten()
        .collect();
    assert_eq!(stats.prefill_chunks, planned.len() as u64);
    assert_eq!(stats.served, 1 + jobs.len() as u64);

    for (i, (served, (q, k, v))) in served.iter().zip(jobs).enumerate() {
        let mut ctx = GpuCtx::a100();
        let solo = mech.forward(&mut ctx, q, k, v);
        assert!(
            bits_equal(served.output.as_slice(), solo.as_slice()),
            "job {} diverged from solo forward",
            i + 1
        );
        if planned.contains(&(i as u64 + 1, 0, q.rows())) {
            assert_eq!(
                served.sim_latency_s.to_bits(),
                ctx.latency().to_bits(),
                "whole job {} was not charged as its solo forward",
                i + 1
            );
        }
    }
    let rows = |job: u64| match job {
        0 => hold_rows,
        j => jobs[j as usize - 1].0.rows(),
    };
    let finish_order: Vec<u64> = planned
        .iter()
        .filter(|&&(job, _, hi)| hi == rows(job))
        .map(|&(job, _, _)| job)
        .collect();
    let mut by_ticket: Vec<_> = served
        .iter()
        .enumerate()
        .map(|(i, s)| (s.ticket, i as u64 + 1))
        .collect();
    by_ticket.sort();
    let reply_order: Vec<u64> = by_ticket.into_iter().map(|(_, job)| job).collect();
    assert_eq!(reply_order, finish_order[1..], "replies left plan order");
    planned
}

fn triple(n: usize, d: usize, rng: &mut Rng) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
    (
        Matrix::random_normal(n, d, 0.0, 1.0, &mut *rng),
        Matrix::random_normal(n, d, 0.0, 1.0, &mut *rng),
        Matrix::random_normal(n, d, 0.0, 1.0, &mut *rng),
    )
}

/// Every planned chunk runs as its own launch, in plan order — whole jobs
/// of one shape never share a launch. A backlog of whole jobs of two shapes
/// and one job longer than a chunk, then a non-chunkable mechanism's
/// backlog, which it plans whole, both pass [`serve_behind_a_hold`]'s
/// checks.
#[test]
fn every_planned_chunk_runs_as_its_own_launch_in_plan_order() {
    let mut rng = Rng::new(21);

    // Five jobs of one shape, two of another, and one longer than a chunk.
    let hold = triple(16, 8, &mut rng);
    let mut jobs: Vec<_> = (0..5).map(|_| triple(16, 8, &mut rng)).collect();
    jobs.extend((0..2).map(|_| triple(8, 8, &mut rng)));
    jobs.push(triple(32, 8, &mut rng));
    let mech = Arc::new(DfssAttention::new(NmPattern::P2_4));
    let planned = serve_behind_a_hold(mech, SchedPolicy::new(16, 1024), hold, &jobs);
    // The hold, seven whole jobs, and the long job's two chunks.
    assert_eq!(planned.len(), 1 + 7 + 2);

    let hold = triple(32, 16, &mut rng);
    let jobs: Vec<_> = (0..3).map(|_| triple(32, 16, &mut rng)).collect();
    let mech = Arc::new(NystromAttention::new(8));
    let planned = serve_behind_a_hold(mech, SchedPolicy::new(5, 8), hold, &jobs);
    assert_eq!(planned, (0..4).map(|job| (job, 0, 32)).collect::<Vec<_>>());
}
