//! `serve_mixed`: an in-process continuous-scheduler `AttentionServer`
//! (Dfss 1:2, f32 KV, a budget nothing reaches) under two loads at once.
//!
//! * **Decode fleet, closed loop** (one thread): 16 sessions with ragged
//!   cached lengths around 1024. Each lock-step round appends one K/V row to
//!   every session, submits one decode step per session, and waits for all
//!   of them. A session that reaches its token quota closes and a fresh one
//!   opens with a new prompt, which keeps the per-step cost stationary and
//!   cycles KV pages.
//! * **Prefill stream, open loop** (one thread): prefills of n ∈ {512, 1024}
//!   due on a fixed-rate Poisson schedule, each timed from its due time.

use crate::inputs::{self, Fleet, KvBlock, Prefill, D, FLEET};
use crate::report::Metric;
use crate::stats::{bit_equal, median, ms, quantile, us, Windows};
use crate::trace::Tracer;
use crate::Outcome;
use dfss_kernels::GpuCtx;
use dfss_serve::sched::SchedEvent;
use dfss_serve::{
    AttentionServer, DecodeRequest, ResponseHandle, ServeError, ServeStats, SessionError, SessionId,
};
use dfss_tensor::{Matrix, Rng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Seconds of prefill schedule generated at set-up; longer than any run.
const ARRIVAL_HORIZON_S: f64 = 600.0;
/// A decode output is kept for checking every this many rounds …
const DECODE_SAMPLE_EVERY: u64 = 64;
/// … up to this many: a fixed count early in the run, so the memory the
/// samples hold does not depend on how fast the run went.
const DECODE_SAMPLES: usize = 12;
/// Every this many completed prefills one output is kept for checking …
const PREFILL_SAMPLE_EVERY: usize = 4;
/// … up to this many.
const PREFILL_SAMPLES: usize = 16;
/// Width of the windows the decode statistics are taken over.
const WINDOW_S: f64 = 1.0;

struct Session {
    id: SessionId,
    /// Host-side copy of every K/V row the session holds.
    k: Vec<f32>,
    v: Vec<f32>,
    len: usize,
    quota: usize,
    produced: usize,
    last_seen: Option<Instant>,
    broken: bool,
}

/// The workload after set-up.
pub struct Serve {
    server: AttentionServer<f32>,
    sessions: Vec<Session>,
    prompts: Vec<KvBlock>,
    prefills: Vec<Prefill>,
    arrivals: Vec<(f64, usize)>,
    rng: Rng,
}

/// Open a session and prime it with a prompt block.
fn open(
    server: &AttentionServer<f32>,
    k: Matrix<f32>,
    v: Matrix<f32>,
    quota: usize,
    tr: &mut Tracer,
) -> Result<Session, SessionError> {
    let id = tr.span("kv", "open_session", 0, |_| server.open_session(D, D))?;
    let session = Session {
        id,
        k: k.as_slice().to_vec(),
        v: v.as_slice().to_vec(),
        len: k.rows(),
        quota,
        produced: 0,
        last_seen: None,
        broken: false,
    };
    tr.span("kv", "extend", id.0, |_| server.extend(id, k, v))?;
    Ok(session)
}

/// Start the server, open and prime the fleet, build the prefill pool and
/// schedule, and run one untimed decode round.
pub fn setup(seed: u64) -> Serve {
    let server = inputs::start_server();
    let (prompts, prefills) = inputs::serve_pools(seed);
    let fleet = Fleet::from_pool(seed, &prompts);
    let mut rng = inputs::rng(seed, inputs::purpose::LIFECYCLE);
    let mut off = Tracer::new(false, Instant::now());
    let sessions = fleet
        .k
        .into_iter()
        .zip(fleet.v)
        .map(|(k, v)| {
            let quota = inputs::token_quota(&mut rng);
            let mut s = open(&server, k, v, quota, &mut off).expect("prime a fleet session");
            // Stagger the quotas so sessions do not all turn over together.
            s.produced = rng.below(quota);
            s
        })
        .collect();
    let arrivals = inputs::arrivals(seed, ARRIVAL_HORIZON_S);
    let mut s = Serve {
        server,
        sessions,
        prompts,
        prefills,
        arrivals,
        rng,
    };
    let warm = fleet_round(
        &s.server,
        &mut s.sessions,
        &mut s.rng,
        &mut off,
        0,
        &mut FleetTally::new(Instant::now()),
        false,
    );
    assert_eq!(warm, 0, "warm-up decode round failed");
    s
}

impl Serve {
    /// Drain and stop the server, returning its lifetime counters.
    pub fn finish(self) -> ServeStats {
        self.server.shutdown()
    }
}

/// One decode output kept for checking, with the session's rows at the
/// time and the query.
struct DecodeSample {
    k: Vec<f32>,
    v: Vec<f32>,
    q: Vec<f32>,
    out: Vec<f32>,
}

/// What the fleet thread measured.
struct FleetTally {
    start: Instant,
    tokens: u64,
    /// Completion times of decode steps.
    token_at: Windows,
    /// Inter-token latencies, by completion time.
    itl_ms: Windows,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    samples: Vec<DecodeSample>,
    append_us: Vec<f64>,
    submit_us: Vec<f64>,
    extend_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    service_ms: Vec<f64>,
}

impl FleetTally {
    fn new(start: Instant) -> FleetTally {
        FleetTally {
            start,
            tokens: 0,
            token_at: Windows::new(WINDOW_S),
            itl_ms: Windows::new(WINDOW_S),
            attempted: 0,
            failed: 0,
            mismatches: 0,
            samples: Vec::new(),
            append_us: Vec::new(),
            submit_us: Vec::new(),
            extend_ms: Vec::new(),
            queue_ms: Vec::new(),
            service_ms: Vec::new(),
        }
    }
}

/// One lock-step round: an append and a decode step per session. Returns
/// the number of failed operations.
fn fleet_round(
    server: &AttentionServer<f32>,
    sessions: &mut [Session],
    rng: &mut Rng,
    tr: &mut Tracer,
    round: u64,
    r: &mut FleetTally,
    layers: bool,
) -> u64 {
    let failed_before = r.failed;
    let req0 = round * FLEET as u64;
    for (i, s) in sessions.iter_mut().enumerate() {
        let k_row = inputs::normal_row(rng);
        let v_row = inputs::normal_row(rng);
        s.k.extend_from_slice(&k_row);
        s.v.extend_from_slice(&v_row);
        let t0 = Instant::now();
        let res = tr.span("kv", "append", req0 + i as u64, |_| {
            server.append(s.id, k_row, v_row)
        });
        if layers {
            r.append_us.push(us(t0.elapsed()));
        }
        r.attempted += 1;
        match res {
            Ok(()) => s.len += 1,
            Err(_) => {
                r.failed += 1;
                s.broken = true;
            }
        }
    }
    let sample_slot = (round % DECODE_SAMPLE_EVERY == DECODE_SAMPLE_EVERY / 2
        && r.samples.len() < DECODE_SAMPLES)
        .then_some((round / DECODE_SAMPLE_EVERY) as usize % FLEET);
    let mut handles = Vec::with_capacity(sessions.len());
    for (i, s) in sessions.iter().enumerate() {
        if s.broken {
            continue;
        }
        let q_row = inputs::normal_row(rng);
        let keep = (sample_slot == Some(i)).then(|| q_row.clone());
        let t0 = Instant::now();
        let res = tr.span("server", "submit_decode", req0 + i as u64, |_| {
            server.submit_decode(DecodeRequest {
                session: s.id,
                q_row,
            })
        });
        if layers {
            r.submit_us.push(us(t0.elapsed()));
        }
        r.attempted += 1;
        match res {
            Ok(h) => handles.push((i, keep, h)),
            Err(_) => r.failed += 1,
        }
    }
    for (i, keep, h) in handles {
        let res = tr.span("server", "decode.wait", req0 + i as u64, |_| h.wait());
        let seen = Instant::now();
        let s = &mut sessions[i];
        match res {
            Ok(served) => {
                let t = (seen - r.start).as_secs_f64();
                r.tokens += 1;
                r.token_at.push(t, 0.0);
                if let Some(prev) = s.last_seen {
                    r.itl_ms.push(t, ms(seen - prev));
                }
                s.last_seen = Some(seen);
                s.produced += 1;
                if served.cached_len != s.len {
                    r.mismatches += 1;
                }
                if let Some(q) = keep {
                    r.samples.push(DecodeSample {
                        k: s.k.clone(),
                        v: s.v.clone(),
                        q,
                        out: served.output.as_slice().to_vec(),
                    });
                }
                if layers {
                    r.queue_ms.push(ms(served.queue_wait));
                    r.service_ms.push(ms(served.service));
                }
            }
            Err(_) => {
                r.failed += 1;
                s.broken = true;
            }
        }
    }
    r.failed - failed_before
}

/// Close sessions that met their quota (or failed) and open fresh ones.
fn turn_over(
    server: &AttentionServer<f32>,
    sessions: &mut [Session],
    prompts: &[KvBlock],
    rng: &mut Rng,
    tr: &mut Tracer,
    r: &mut FleetTally,
    layers: bool,
) {
    for s in sessions.iter_mut() {
        if s.produced < s.quota && !s.broken {
            continue;
        }
        r.attempted += 1;
        if tr
            .span("kv", "close_session", s.id.0, |_| {
                server.close_session(s.id)
            })
            .is_err()
        {
            r.failed += 1;
        }
        let (k, v) = inputs::fresh_prompt(rng, prompts);
        let quota = inputs::token_quota(rng);
        let t0 = Instant::now();
        r.attempted += 1;
        match open(server, k, v, quota, tr) {
            Ok(fresh) => {
                if layers {
                    r.extend_ms.push(ms(t0.elapsed()));
                }
                *s = fresh;
            }
            Err(_) => {
                r.failed += 1;
                s.broken = true;
            }
        }
    }
}

/// What the prefill thread measured.
#[derive(Default)]
struct StreamTally {
    attempted: u64,
    failed: u64,
    /// Time to first token, by prefill length.
    ttft_ms: Vec<(usize, f64)>,
    lateness_ms: Vec<f64>,
    samples: Vec<(usize, Vec<f32>)>,
    submit_us: Vec<f64>,
    queue_ms: Vec<f64>,
    service_ms: Vec<f64>,
}

struct Pending {
    handle: ResponseHandle<f32>,
    due: Instant,
    submitted: Instant,
    idx: usize,
    req: u64,
}

/// Submit each prefill at its due time without waiting for earlier ones;
/// collect replies in between. Stops submitting at `end` and drains.
fn prefill_stream(
    server: &AttentionServer<f32>,
    prefills: &[Prefill],
    arrivals: &[(f64, usize)],
    start: Instant,
    end: Instant,
    tr: &mut Tracer,
    layers: bool,
) -> StreamTally {
    let mut r = StreamTally::default();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut next = 0usize;
    let mut done = 0usize;
    loop {
        let now = Instant::now();
        let due = arrivals
            .get(next)
            .map(|&(t, idx)| (start + Duration::from_secs_f64(t), idx))
            .filter(|&(due, _)| due < end);
        if let Some((due, idx)) = due {
            if now >= due {
                r.lateness_ms.push(ms(now - due));
                let p = &prefills[idx];
                let req = next as u64;
                let t0 = Instant::now();
                let res = tr.span("server", "submit", req, |_| {
                    server.submit(p.q.clone(), p.k.clone(), p.v.clone())
                });
                if layers {
                    r.submit_us.push(us(t0.elapsed()));
                }
                r.attempted += 1;
                match res {
                    Ok(handle) => pending.push_back(Pending {
                        handle,
                        due,
                        submitted: t0,
                        idx,
                        req,
                    }),
                    Err(_) => r.failed += 1,
                }
                next += 1;
                continue;
            }
        }
        let Some(front) = pending.front() else {
            match due {
                Some((due, _)) => std::thread::sleep(due - now),
                None => break,
            }
            continue;
        };
        let wait = due.map_or(Duration::from_millis(50), |(due, _)| due - now);
        let res = tr.span("server", "prefill.wait", front.req, |_| {
            front.handle.wait_timeout(wait)
        });
        match res {
            Err(ServeError::WaitTimeout) => {}
            Ok(served) => {
                let p = pending.pop_front().expect("front exists");
                let n = prefills[p.idx].q.rows();
                r.ttft_ms
                    .push((n, ms(p.submitted - p.due + served.latency)));
                if done.is_multiple_of(PREFILL_SAMPLE_EVERY) && r.samples.len() < PREFILL_SAMPLES {
                    r.samples.push((p.idx, served.output.as_slice().to_vec()));
                }
                if layers {
                    r.queue_ms.push(ms(served.queue_wait));
                    r.service_ms.push(ms(served.service));
                }
                done += 1;
            }
            Err(_) => {
                pending.pop_front();
                r.failed += 1;
            }
        }
    }
    r
}

/// Run both loads for `seconds`, then check the sampled outputs against
/// solo `decode` and `forward`. `tracers[0]` serves the fleet thread and
/// `tracers[1]` the prefill thread. With `layers`, also collect the
/// per-layer numbers the public API exposes.
pub fn run(s: &mut Serve, seconds: f64, tracers: &mut [Tracer; 2], layers: bool) -> Outcome {
    let before = s.server.stats_snapshot();
    let trace_mark = s.server.sched_trace().events().len();
    let Serve {
        server,
        sessions,
        prompts,
        prefills,
        arrivals,
        rng,
    } = s;
    let server = &*server;
    // A gap across runs is not an inter-token latency.
    for s in sessions.iter_mut() {
        s.last_seen = None;
    }
    let [t_fleet, t_stream] = tracers;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let (fleet, stream) = std::thread::scope(|scope| {
        let fleet = scope.spawn(|| {
            let mut r = FleetTally::new(start);
            let mut round = 0u64;
            while Instant::now() < end {
                fleet_round(server, sessions, rng, t_fleet, round, &mut r, layers);
                turn_over(server, sessions, prompts, rng, t_fleet, &mut r, layers);
                round += 1;
            }
            r
        });
        let stream = scope
            .spawn(|| prefill_stream(server, prefills, arrivals, start, end, t_stream, layers));
        (
            fleet.join().expect("fleet thread"),
            stream.join().expect("prefill thread"),
        )
    });

    // Output checks, outside the timed region.
    let mech = inputs::serving_mech();
    let mut ctx = GpuCtx::a100();
    let mut mismatches = fleet.mismatches;
    let mut checked = 0;
    for s in &fleet.samples {
        let len = s.k.len() / D;
        let want = mech.decode(
            &mut ctx,
            &Matrix::from_vec(1, D, s.q.clone()),
            &Matrix::from_vec(len, D, s.k.clone()),
            &Matrix::from_vec(len, D, s.v.clone()),
        );
        ctx.reset_timeline();
        checked += 1;
        mismatches += u64::from(!bit_equal(&s.out, want.as_slice()));
    }
    for (idx, out) in &stream.samples {
        let p = &prefills[*idx];
        let want = mech.forward(&mut ctx, &p.q, &p.k, &p.v);
        ctx.reset_timeline();
        checked += 1;
        mismatches += u64::from(!bit_equal(out, want.as_slice()));
    }

    let layer_metrics = if layers {
        let after = server.stats_snapshot();
        layer_numbers(server, &before, &after, trace_mark, &fleet, &stream)
    } else {
        Vec::new()
    };
    let itl = &fleet.itl_ms;
    // The bounded TTFT is the long prefills' alone: the two lengths form two
    // modes, and a median between modes jumps from run to run.
    let ttft_of = |n: usize| -> Vec<f64> {
        stream
            .ttft_ms
            .iter()
            .filter(|(m, _)| *m == n)
            .map(|(_, t)| *t)
            .collect()
    };
    let [short, long] = inputs::PREFILL_NS;
    let mut ttft_long = ttft_of(long);
    let mut ttft: Vec<f64> = stream.ttft_ms.iter().map(|(_, t)| *t).collect();
    Outcome {
        metrics: vec![
            Metric::new("main_per_s", fleet.token_at.median_rate(seconds), "1/s"),
            Metric::new("main_p50_ms", itl.median_quantile(seconds, 0.5), "ms"),
            Metric::new("side_p50_ms", median(&mut ttft_long), "ms"),
        ],
        attempted: fleet.attempted + stream.attempted,
        failed: fleet.failed + stream.failed,
        mismatches,
        checked,
        layers: layer_metrics,
        extras: vec![
            Metric::new("tail.itl_p99_ms", itl.median_quantile(seconds, 0.99), "ms"),
            Metric::new("tail.ttft_p90_ms", quantile(&mut ttft, 0.9), "ms"),
            Metric::new("serve.ttft_p50_ms.short", median(&mut ttft_of(short)), "ms"),
            Metric::new("serve.ttft_p50_ms.all", median(&mut ttft), "ms"),
            Metric::new("serve.itl_samples", itl.all().len() as f64, "count"),
            Metric::new("serve.ttft_samples", ttft.len() as f64, "count"),
            Metric::new("serve.decode_tokens", fleet.tokens as f64, "count"),
        ],
    }
}

/// The `kv.*`, `sched.*`, `server.*` and `loadgen.*` numbers of one run.
fn layer_numbers(
    server: &AttentionServer<f32>,
    before: &ServeStats,
    after: &ServeStats,
    trace_mark: usize,
    f: &FleetTally,
    s: &StreamTally,
) -> Vec<Metric> {
    let p50 = |xs: &[f64]| median(&mut xs.to_vec());
    let q = |xs: &[f64], p: f64| quantile(&mut xs.to_vec(), p);
    let trace = server.sched_trace();
    let (mut iters, mut decode, mut chunks) = (0u64, 0u64, 0u64);
    for e in &trace.events()[trace_mark.min(trace.events().len())..] {
        if let SchedEvent::Iteration {
            decode: d,
            chunks: c,
            ..
        } = e
        {
            iters += 1;
            decode += d.len() as u64;
            chunks += c.len() as u64;
        }
    }
    let per_iter = |x: u64| {
        if iters == 0 {
            0.0
        } else {
            x as f64 / iters as f64
        }
    };
    let steps = after.decode_steps - before.decode_steps;
    let batches = after.decode_batches - before.decode_batches;
    vec![
        Metric::new("kv.append_us", p50(&f.append_us), "us"),
        Metric::new("kv.extend_ms", p50(&f.extend_ms), "ms"),
        Metric::new(
            "kv.pages_allocated",
            (after.kv_pages_allocated - before.kv_pages_allocated) as f64,
            "count",
        ),
        Metric::new(
            "kv.pages_freed",
            (after.kv_pages_freed - before.kv_pages_freed) as f64,
            "count",
        ),
        Metric::new("kv.bytes_peak", after.kv_bytes_peak as f64, "bytes"),
        Metric::new(
            "sched.iterations",
            (after.sched_iterations - before.sched_iterations) as f64,
            "count",
        ),
        Metric::new("sched.decode_per_iter", per_iter(decode), "count"),
        Metric::new("sched.chunks_per_iter", per_iter(chunks), "count"),
        Metric::new(
            "sched.prefill_chunks",
            (after.prefill_chunks - before.prefill_chunks) as f64,
            "count",
        ),
        Metric::new("server.submit_us", p50(&s.submit_us), "us"),
        Metric::new("server.submit_decode_us", p50(&f.submit_us), "us"),
        Metric::new("server.decode_queue_wait_ms.p50", p50(&f.queue_ms), "ms"),
        Metric::new(
            "server.decode_queue_wait_ms.p99",
            q(&f.queue_ms, 0.99),
            "ms",
        ),
        Metric::new("server.decode_service_ms.p50", p50(&f.service_ms), "ms"),
        Metric::new("server.decode_service_ms.p99", q(&f.service_ms, 0.99), "ms"),
        Metric::new("server.prefill_queue_wait_ms.p50", p50(&s.queue_ms), "ms"),
        Metric::new("server.prefill_service_ms.p50", p50(&s.service_ms), "ms"),
        Metric::new(
            "server.mean_decode_batch",
            if batches == 0 {
                0.0
            } else {
                steps as f64 / batches as f64
            },
            "count",
        ),
        Metric::new("loadgen.lateness_ms.p50", p50(&s.lateness_ms), "ms"),
        Metric::new("loadgen.lateness_ms.max", q(&s.lateness_ms, 1.0), "ms"),
    ]
}
