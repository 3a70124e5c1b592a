//! `serving` — load generator for the attention serving layer.
//!
//! The **decode** sweep: `streams` concurrent sessions, each with a
//! (ragged, deliberately misaligned) cached K/V length around a base
//! `cached_len`, take decode steps either through the per-stream **solo
//! loop** (`Attention::decode` with a fresh context per step — the
//! deployment without ragged batching) or through
//! `AttentionEngine::flush_decode` (**one ragged launch per op** across all
//! streams). Outputs are asserted bit-identical.
//!
//! The headline decode metric is **simulated-device tokens/sec**: a decode
//! step moves so little data that the fixed per-launch overhead dominates
//! its device time, so the ragged launch's 3-launches-for-B-streams
//! amortisation is the whole story (A.1.2) — and it is deterministic, so
//! even quick-mode artifacts gate on it. Host wall-clock tokens/sec rides
//! along un-gated: the host fan-out only pays off with worker threads, and
//! a single-core CI runner cannot parallelise it.
//!
//! A second sweep covers **memory pressure**: a fixed decode fleet
//! (`sessions` concurrent streams growing to `target_len` cached rows,
//! decoding every few appends) runs against shrinking KV byte budgets —
//! multiples of the fleet's exact working-set page count — with LRU
//! eviction on. Reported per budget point: decode tokens/sec, the typed
//! rejection rate (`KvBudgetExhausted` at admission plus `Evicted` steps),
//! and the server's page/eviction counters. Every artifact must show zero
//! rejections at funded budgets (multiplier ≥ 1) and a non-zero rejection
//! rate at the starved point — both deterministic, the op order is
//! single-threaded — so the gate holds in quick mode too.
//!
//! A third sweep covers **overload**: requests with heterogeneous shapes
//! arrive on a Poisson schedule at 0.6/1.0/1.5/2.0× the server's own
//! saturated-burst capacity, with `max_queue_depth` bounding the
//! unresolved backlog. The server runs every prefill whole, one launch
//! each, in arrival order. Reported per load: goodput, the typed-shed rate
//! (`ServeError::Overloaded` at admission) and p50/p99 of the served
//! requests, whose outputs are asserted bit-identical to solo
//! `Attention::forward` calls on a deterministic subset. The artifact must
//! show **zero** sheds at the sub-capacity point and a **non-zero** shed
//! count at 2.0× — load shedding engages exactly when the queue can no
//! longer drain.
//!
//! A fourth **chaos** row drives the server through an injected
//! mid-flush kernel panic (`FaultPlan` → `FaultKind::PanicInBatch` at a
//! fixed request ordinal): the artifact must show every request resolving
//! typed (`served + panicked == requests`), at least one `BatchPanicked`
//! failure, and requests submitted after the poisoned launch being served
//! normally — the recovery story, measured.
//!
//! A fifth sweep runs the overload story again through the **HTTP** front
//! door, over loopback sockets against the wire-measured capacity.
//!
//! `--check` re-proves the continuous scheduler's parity claim live: a
//! fresh continuous server with chunks far smaller than its requests must
//! reproduce the unchunked solo forward bit for bit.
//!
//! `--check` also gates **p99** (not just p50) on the overload and HTTP
//! sweeps: every row with served traffic must report a positive p50 and a
//! p99 at or above it — a tail inversion means the percentile pipeline
//! broke, and a zero tail under load means the row never measured.
//!
//! Emits schema-stable `results/bench_serving.json`. Every artifact must
//! show batched decode beating the solo loop on (simulated) tokens/sec at
//! ≥ 2 stream counts (asserted at generation time and re-validated by
//! `serving --check`, which CI runs against the checked-in artifact).
//!
//! Knobs: `DFSS_QUICK=1` (small shapes, short run), `DFSS_RESULTS=<dir>`.

use dfss_bench::json::Json;
use dfss_bench::{quick, results_dir};
use dfss_core::engine::{AttentionEngine, DecodeStep};
use dfss_core::{Attention, DfssAttention};
use dfss_kernels::GpuCtx;
use dfss_nmsparse::NmPattern;
use dfss_serve::http::{HttpConfig, HttpServer};
use dfss_serve::wire::{self, Json as WireJson, RequestReader, WireLimits};
use dfss_serve::{
    AttentionServer, BatchPolicy, DecodeRequest, FaultKind, FaultPlan, KvConfig, SchedPolicy,
    ServeError, ServeStats, SessionError, SessionId,
};
use dfss_tensor::{Matrix, Rng};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCHEMA_VERSION: f64 = 9.0;

/// How many distinct concurrent-stream counts batched decode must win on
/// tokens/sec (at every cached length) for a full-mode artifact.
const MIN_DECODE_WINS: usize = 2;
/// Overload sweep: offered load as multiples of the server's own
/// saturated-burst capacity. The first point is comfortably sub-capacity
/// (zero sheds expected), the last is a 2× overload (sheds required).
const OVERLOAD_MULTS: [f64; 4] = [0.6, 1.0, 1.5, 2.0];

struct WorkloadSpec {
    shapes: Vec<(usize, usize)>,
    requests_per_load: usize,
    /// `max_queue_depth` of the overload sweep's server.
    queue_depth: usize,
    /// Requests in the saturated burst that measures the server's capacity.
    capacity_burst: usize,
}

fn workload() -> WorkloadSpec {
    if quick() {
        WorkloadSpec {
            shapes: vec![(64, 32), (128, 32)],
            requests_per_load: 32,
            queue_depth: 32,
            capacity_burst: 64,
        }
    } else {
        WorkloadSpec {
            shapes: vec![(256, 64), (512, 64)],
            requests_per_load: 96,
            queue_depth: 64,
            capacity_burst: 128,
        }
    }
}

/// One pre-generated request with its solo-forward reference (computed for
/// a deterministic subset; `None` elsewhere).
struct Request {
    q: Matrix<f32>,
    k: Matrix<f32>,
    v: Matrix<f32>,
    reference: Option<Matrix<f32>>,
    /// Offset from the run start at which the request is offered.
    arrival: Duration,
}

/// Build one load point's request stream: shapes round-robin, Poisson
/// interarrivals at `rate` requests/sec, references every 4th request.
fn build_requests(
    spec: &WorkloadSpec,
    mech: &dyn Attention<f32>,
    rate: f64,
    seed: u64,
) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let mut at = 0.0f64;
    (0..spec.requests_per_load)
        .map(|i| {
            let (n, d) = spec.shapes[i % spec.shapes.len()];
            let q = Matrix::random_normal(n, d, 0.0, 1.0, &mut rng);
            let k = Matrix::random_normal(n, d, 0.0, 1.0, &mut rng);
            let v = Matrix::random_normal(n, d, 0.0, 1.0, &mut rng);
            let reference = (i % 4 == 0).then(|| {
                let mut ctx = GpuCtx::a100();
                mech.forward(&mut ctx, &q, &k, &v)
            });
            // Exponential interarrival: -ln(U)/rate.
            let u: f64 = rng.uniform().max(1e-12);
            at += -u.ln() / rate;
            Request {
                q,
                k,
                v,
                reference,
                arrival: Duration::from_secs_f64(at),
            }
        })
        .collect()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn assert_bit_identical(reference: &Matrix<f32>, got: &Matrix<f32>, i: usize, side: &str) {
    let same = got
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "{side} output {i} diverged from solo forward");
}

/// The server of the overload sweep: a scheduler policy that keeps every
/// prefill of `spec` whole — chunks as large as the largest `n` and no row
/// budget — so each queued job runs as one launch, in arrival order.
fn start_batched(
    mech: &Arc<dyn Attention<f32> + Send + Sync>,
    spec: &WorkloadSpec,
    policy: BatchPolicy,
) -> AttentionServer<f32> {
    let n = spec.shapes.iter().map(|&(n, _)| n).max().expect("shapes");
    let sched = SchedPolicy::new(n, usize::MAX);
    AttentionServer::start_continuous_with_kv(Arc::clone(mech), policy, sched, KvConfig::default())
}

/// Decode sweep grid: base cached lengths × concurrent stream counts.
struct DecodeSpec {
    cached_lens: Vec<usize>,
    streams: Vec<usize>,
    rounds: usize,
    head_dim: usize,
}

fn decode_workload() -> DecodeSpec {
    if quick() {
        DecodeSpec {
            cached_lens: vec![64],
            streams: vec![2, 4],
            rounds: 4,
            head_dim: 32,
        }
    } else {
        DecodeSpec {
            cached_lens: vec![256, 1024],
            streams: vec![1, 4, 8, 16],
            rounds: 24,
            head_dim: 64,
        }
    }
}

/// One decode sweep point: tokens/sec of the per-stream solo loop vs the
/// ragged batched flush over the same sessions and query rows.
/// `solo_tok_s` / `batched_tok_s` are tokens per second of **simulated
/// device time** (the gated metric); `host_*` are host wall-clock
/// tokens/sec, reported for reference.
struct DecodePoint {
    cached_len: usize,
    streams: usize,
    solo_tok_s: f64,
    batched_tok_s: f64,
    host_solo_tok_s: f64,
    host_batched_tok_s: f64,
}

/// Run one (cached_len, streams) decode point. Caches get ragged lengths
/// around the base (`len - (s % 4)`, exercising the dense-tail format);
/// both sides serve the same pre-generated query rows, and outputs are
/// asserted bit-identical on the first round.
fn run_decode_point(
    mech: &DfssAttention,
    spec: &DecodeSpec,
    cached_len: usize,
    streams: usize,
    seed: u64,
) -> DecodePoint {
    let d = spec.head_dim;
    let mut rng = Rng::new(seed);
    let lens: Vec<usize> = (0..streams).map(|s| cached_len - (s % 4)).collect();
    let ks: Vec<Matrix<f32>> = lens
        .iter()
        .map(|&l| Matrix::random_normal(l, d, 0.0, 1.0, &mut rng))
        .collect();
    let vs: Vec<Matrix<f32>> = lens
        .iter()
        .map(|&l| Matrix::random_normal(l, d, 0.0, 1.0, &mut rng))
        .collect();
    let q_rounds: Vec<Matrix<f32>> = (0..spec.rounds)
        .map(|_| Matrix::random_normal(streams, d, 0.0, 1.0, &mut rng))
        .collect();

    let mut engine = AttentionEngine::new(mech);
    fn steps_of<'a>(
        q: &'a Matrix<f32>,
        ks: &'a [Matrix<f32>],
        vs: &'a [Matrix<f32>],
        lens: &'a [usize],
        d: usize,
    ) -> Vec<DecodeStep<'a, f32>> {
        (0..ks.len())
            .map(|s| {
                DecodeStep::contiguous(q.row(s), ks[s].as_slice(), vs[s].as_slice(), lens[s], d, d)
            })
            .collect()
    }

    // Parity gate: the ragged flush must be bit-identical to the solo
    // loop. Simulated latencies (shape-deterministic, identical across
    // rounds) are read off this same pass: the batched flush's one ragged
    // launch per op vs the solo loop's three launches per stream.
    let (solo_sim_s, batched_sim_s);
    {
        let q = &q_rounds[0];
        let results = engine
            .flush_decode(&steps_of(q, &ks, &vs, &lens, d))
            .expect("valid steps");
        batched_sim_s = engine.last_decode().sim_latency_s();
        assert_eq!(
            engine.last_decode().launches(),
            3,
            "ragged decode must be one launch per op"
        );
        engine.reset_timeline();
        let mut solo_total = 0.0f64;
        for (s, res) in results.iter().enumerate() {
            let mut sctx = GpuCtx::a100();
            let q_row = Matrix::from_vec(1, d, q.row(s).to_vec());
            let want = mech.decode(&mut sctx, &q_row, &ks[s], &vs[s]);
            solo_total += sctx.latency();
            let same = res
                .output
                .as_ref()
                .expect("exec mode")
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "decode stream {s} diverged from the solo loop");
        }
        solo_sim_s = solo_total;
    }

    // Interleave the two sides (two passes each, take the faster pass) so
    // host drift cannot bias the comparison.
    let (mut solo_best, mut batched_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..2 {
        let t0 = Instant::now();
        for q in &q_rounds {
            for s in 0..streams {
                let mut ctx = GpuCtx::a100();
                let q_row = Matrix::from_vec(1, d, q.row(s).to_vec());
                std::hint::black_box(mech.decode(&mut ctx, &q_row, &ks[s], &vs[s]));
            }
        }
        solo_best = solo_best.min(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        for q in &q_rounds {
            std::hint::black_box(
                engine
                    .flush_decode(&steps_of(q, &ks, &vs, &lens, d))
                    .expect("valid steps"),
            );
            engine.reset_timeline();
        }
        batched_best = batched_best.min(t1.elapsed().as_secs_f64());
    }
    let tokens = (spec.rounds * streams) as f64;
    DecodePoint {
        cached_len,
        streams,
        solo_tok_s: streams as f64 / solo_sim_s.max(1e-12),
        batched_tok_s: streams as f64 / batched_sim_s.max(1e-12),
        host_solo_tok_s: tokens / solo_best.max(1e-9),
        host_batched_tok_s: tokens / batched_best.max(1e-9),
    }
}

/// Sweep the decode grid; returns the points and the number of distinct
/// stream counts where batched wins at **every** cached length.
fn run_decode_sweep(mech: &DfssAttention, spec: &DecodeSpec) -> (Vec<DecodePoint>, usize) {
    let mut points = Vec::new();
    println!(
        "{:>10}  {:>8}  {:>14}  {:>16}  {:>8}  {:>14}",
        "cached", "streams", "solo sim tok/s", "batched sim tok/s", "speedup", "host batch tok/s"
    );
    for (i, &len) in spec.cached_lens.iter().enumerate() {
        for (j, &streams) in spec.streams.iter().enumerate() {
            let p = run_decode_point(mech, spec, len, streams, 7000 + (i * 16 + j) as u64);
            println!(
                "{:>10}  {:>8}  {:>14.1}  {:>16.1}  {:>7.2}x  {:>14.1}",
                p.cached_len,
                p.streams,
                p.solo_tok_s,
                p.batched_tok_s,
                p.batched_tok_s / p.solo_tok_s.max(1e-9),
                p.host_batched_tok_s
            );
            points.push(p);
        }
    }
    let wins = spec
        .streams
        .iter()
        .filter(|&&sc| {
            points
                .iter()
                .filter(|p| p.streams == sc)
                .all(|p| p.batched_tok_s > p.solo_tok_s)
        })
        .count();
    (points, wins)
}

/// Memory-pressure sweep: one decode fleet against shrinking KV budgets.
struct MemorySpec {
    /// Concurrent decode sessions.
    sessions: usize,
    /// Cached rows each session grows to (one append round per row).
    target_len: usize,
    /// Decode once per session every this many append rounds.
    decode_every: usize,
    head_dim: usize,
    page_elems: usize,
    /// Budget as multiples of the fleet's working-set page count, funded
    /// first, starved last.
    budget_mults: Vec<f64>,
}

fn memory_workload() -> MemorySpec {
    if quick() {
        MemorySpec {
            sessions: 3,
            target_len: 16,
            decode_every: 4,
            head_dim: 32,
            page_elems: 128,
            budget_mults: vec![1.5, 1.0, 0.5, 0.25],
        }
    } else {
        MemorySpec {
            sessions: 8,
            target_len: 64,
            decode_every: 8,
            head_dim: 64,
            page_elems: 256,
            budget_mults: vec![1.5, 1.0, 0.5, 0.25],
        }
    }
}

impl MemorySpec {
    /// Pool pages the whole fleet needs at `target_len` (K + V sides).
    fn working_set_pages(&self) -> u64 {
        let rows_per_page = self.page_elems / self.head_dim;
        (self.sessions * 2 * self.target_len.div_ceil(rows_per_page)) as u64
    }
}

/// One budget point of the memory sweep.
struct MemoryPoint {
    budget_mult: f64,
    budget_pages: u64,
    /// Session operations offered (opens + appends + decode submissions).
    attempts: u64,
    /// Operations refused with typed back-pressure (`KvBudgetExhausted`
    /// at admission, `Evicted` on a reclaimed session's later steps).
    rejections: u64,
    /// Decode steps served.
    tokens: u64,
    tok_s: f64,
    stats: ServeStats,
}

/// Run one budget point: `sessions` slots each growing toward
/// `target_len`, decoding every `decode_every` rounds. A slot whose
/// session is evicted closes it and re-opens from scratch — the retry
/// path a real client runs — and every typed refusal counts against the
/// rejection rate. The op order is single-threaded, so rejections and
/// evictions are deterministic.
fn run_memory_point(
    mech: &Arc<dyn Attention<f32> + Send + Sync>,
    spec: &MemorySpec,
    mult: f64,
    seed: u64,
) -> MemoryPoint {
    let d = spec.head_dim;
    let budget_pages = ((mult * spec.working_set_pages() as f64).ceil() as u64).max(2);
    // Express the budget through the config's own storage accounting —
    // a hard-coded `* 4` here would silently misprice the budget the day
    // this sweep runs with a bf16 KV store or a non-f32 compute dtype.
    let geometry = KvConfig {
        page_elems: spec.page_elems,
        evict_idle: true,
        ..KvConfig::default()
    };
    let kv = KvConfig {
        budget_bytes: budget_pages * geometry.storage_page_bytes::<f32>(),
        ..geometry
    };
    let server = AttentionServer::start_with_kv(Arc::clone(mech), BatchPolicy::default(), kv);
    let mut rng = Rng::new(seed);
    // Per slot: the open session and the rows it has cached so far.
    let mut slots: Vec<Option<(SessionId, usize)>> = vec![None; spec.sessions];
    let (mut attempts, mut rejections, mut tokens) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    for round in 0..spec.target_len {
        for slot in slots.iter_mut() {
            if slot.is_none() {
                attempts += 1;
                match server.open_session(d, d) {
                    Ok(id) => *slot = Some((id, 0)),
                    Err(_) => {
                        rejections += 1;
                        continue;
                    }
                }
            }
            let (id, len) = slot.expect("slot just filled");
            let k_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
            let v_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
            attempts += 1;
            match server.append(id, k_row, v_row) {
                Ok(()) => *slot = Some((id, len + 1)),
                Err(SessionError::Evicted(_)) => {
                    rejections += 1;
                    server
                        .close_session(id)
                        .expect("evicted sessions still close");
                    *slot = None;
                }
                Err(_) => rejections += 1,
            }
        }
        if (round + 1) % spec.decode_every == 0 {
            let mut handles = Vec::new();
            for slot in slots.iter_mut() {
                let Some((id, len)) = *slot else { continue };
                if len == 0 {
                    continue;
                }
                let q_row: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
                attempts += 1;
                match server.submit_decode(DecodeRequest { session: id, q_row }) {
                    Ok(h) => handles.push(h),
                    Err(SessionError::Evicted(_)) => {
                        rejections += 1;
                        server
                            .close_session(id)
                            .expect("evicted sessions still close");
                        *slot = None;
                    }
                    Err(_) => rejections += 1,
                }
            }
            for h in handles {
                h.wait().expect("admitted decode steps are served");
                tokens += 1;
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    for (id, _) in slots.into_iter().flatten() {
        server.close_session(id).expect("close");
    }
    let stats = server.shutdown();
    assert_eq!(
        stats.kv_pages_allocated, stats.kv_pages_freed,
        "every session closed — the pool must drain completely"
    );
    MemoryPoint {
        budget_mult: mult,
        budget_pages,
        attempts,
        rejections,
        tokens,
        tok_s: tokens as f64 / elapsed.max(1e-9),
        stats,
    }
}

fn run_memory_sweep(
    mech: &Arc<dyn Attention<f32> + Send + Sync>,
    spec: &MemorySpec,
) -> Vec<MemoryPoint> {
    println!(
        "{:>8}  {:>7}  {:>8}  {:>10}  {:>9}  {:>9}  {:>10}",
        "budget", "pages", "tok/s", "rejected", "rej rate", "evicted", "attempts"
    );
    spec.budget_mults
        .iter()
        .enumerate()
        .map(|(i, &mult)| {
            let p = run_memory_point(mech, spec, mult, 9000 + i as u64);
            println!(
                "{:>7.2}x  {:>7}  {:>8.1}  {:>10}  {:>8.1}%  {:>9}  {:>10}",
                p.budget_mult,
                p.budget_pages,
                p.tok_s,
                p.rejections,
                100.0 * p.rejections as f64 / p.attempts.max(1) as f64,
                p.stats.evictions,
                p.attempts
            );
            p
        })
        .collect()
}

/// Saturated throughput of the overload sweep's server itself: a warm
/// back-to-back burst through `submit`. This is the rate the server cannot
/// exceed, so offered overloads are scaled against it — 2× this rate
/// *must* grow the queue.
fn measure_batched_capacity(
    spec: &WorkloadSpec,
    mech: &Arc<dyn Attention<f32> + Send + Sync>,
) -> f64 {
    let burst = spec.capacity_burst;
    let warm = burst / 8;
    let mut rng = Rng::new(0xBCA11B);
    let reqs: Vec<(Matrix<f32>, Matrix<f32>, Matrix<f32>)> = (0..warm + burst)
        .map(|i| {
            let (n, d) = spec.shapes[i % spec.shapes.len()];
            (
                Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
                Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
                Matrix::random_normal(n, d, 0.0, 1.0, &mut rng),
            )
        })
        .collect();
    let server = start_batched(mech, spec, BatchPolicy::default());
    let submit_all = |range: std::ops::Range<usize>| {
        let handles: Vec<_> = range
            .map(|i| {
                let (q, k, v) = &reqs[i];
                server
                    .submit(q.clone(), k.clone(), v.clone())
                    .expect("capacity burst has no queue bound")
            })
            .collect();
        for h in handles {
            h.wait().expect("server alive");
        }
    };
    submit_all(0..warm);
    let t0 = Instant::now();
    submit_all(warm..warm + burst);
    let capacity = burst as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    server.shutdown();
    capacity
}

/// One overload point: goodput, typed sheds, and served-request tails.
struct OverloadPoint {
    load_mult: f64,
    offered_rps: f64,
    requests: usize,
    served: u64,
    shed: u64,
    goodput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Offer one Poisson stream to a **depth-bounded** server. Every
/// submission either returns a handle or the typed `Overloaded` shed —
/// nothing blocks, nothing is silently dropped — and every admitted
/// request is served (references stay bit-identical under overload).
fn run_overload_point(
    mech: &Arc<dyn Attention<f32> + Send + Sync>,
    spec: &WorkloadSpec,
    policy: BatchPolicy,
    mult: f64,
    rate: f64,
    requests: &[Request],
) -> OverloadPoint {
    let server = start_batched(mech, spec, policy);
    let start = Instant::now();
    let mut handles = Vec::with_capacity(requests.len());
    let mut shed = 0u64;
    for (i, req) in requests.iter().enumerate() {
        if let Some(wait) = req.arrival.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        match server.submit(req.q.clone(), req.k.clone(), req.v.clone()) {
            Ok(h) => handles.push((i, h)),
            Err(ServeError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("overload submit {i} failed with non-shed error: {e}"),
        }
    }
    let mut host_ms = Vec::with_capacity(handles.len());
    for (i, h) in handles {
        let out = h.wait().expect("admitted requests are served");
        if let Some(reference) = &requests[i].reference {
            assert_bit_identical(reference, &out.output, i, "overload");
        }
        host_ms.push(out.latency.as_secs_f64() * 1e3);
    }
    let makespan = start.elapsed().as_secs_f64();
    let stats = server.shutdown();
    assert_eq!(
        stats.overload_sheds, shed,
        "the server's shed counter must agree with the submit-side count"
    );
    let served = requests.len() as u64 - shed;
    assert_eq!(stats.served, served);
    host_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    OverloadPoint {
        load_mult: mult,
        offered_rps: rate,
        requests: requests.len(),
        served,
        shed,
        goodput_rps: served as f64 / makespan.max(1e-9),
        p50_ms: percentile(&host_ms, 50.0),
        p99_ms: percentile(&host_ms, 99.0),
    }
}

fn run_overload_sweep(
    mech: &Arc<dyn Attention<f32> + Send + Sync>,
    spec: &WorkloadSpec,
    batched_capacity_rps: f64,
) -> Vec<OverloadPoint> {
    let policy = BatchPolicy::default().with_queue_depth(spec.queue_depth);
    // 3× the chaos row's request count: a 2× overload must outrun the
    // queue bound (backlog grows ~half the offered count), and the longer
    // stream keeps the sub-capacity point honest about steady state.
    let ospec = WorkloadSpec {
        shapes: spec.shapes.clone(),
        requests_per_load: 3 * spec.requests_per_load,
        ..*spec
    };
    println!(
        "{:>6}  {:>9}  {:>8}  {:>6}  {:>9}  {:>10}  {:>10}",
        "load", "rps", "served", "shed", "shed rate", "goodput", "p99 ms"
    );
    OVERLOAD_MULTS
        .iter()
        .enumerate()
        .map(|(i, &mult)| {
            let rate = mult * batched_capacity_rps;
            let requests = build_requests(&ospec, mech.as_ref(), rate, 3000 + i as u64);
            let p = run_overload_point(mech, &ospec, policy, mult, rate, &requests);
            println!(
                "{:>6.2}  {:>9.1}  {:>8}  {:>6}  {:>8.1}%  {:>10.1}  {:>10.3}",
                p.load_mult,
                p.offered_rps,
                p.served,
                p.shed,
                100.0 * p.shed as f64 / p.requests.max(1) as f64,
                p.goodput_rps,
                p.p99_ms
            );
            p
        })
        .collect()
}

/// The chaos row: a batch panic injected mid-run, measured end to end.
struct ChaosRow {
    requests: usize,
    fault_at: usize,
    served: u64,
    panicked: u64,
    post_fault_served: u64,
    batch_panics: u64,
}

/// Drive the server through an injected mid-flush kernel panic at a fixed
/// front-door ordinal: the poisoned launch fails typed, everything after it
/// is served — and the served outputs stay bit-identical on the reference
/// subset even across the recovery.
fn run_chaos_row(mech: &Arc<dyn Attention<f32> + Send + Sync>, spec: &WorkloadSpec) -> ChaosRow {
    let total = spec.requests_per_load;
    let fault_at = total / 4;
    let plan = FaultPlan::new().inject(fault_at as u64, FaultKind::PanicInBatch);
    let server = AttentionServer::start_with_faults(Arc::clone(mech), BatchPolicy::default(), plan);
    let mut rng = Rng::new(0xC4A05);
    let mut handles = Vec::with_capacity(total);
    for i in 0..total {
        let (n, d) = spec.shapes[i % spec.shapes.len()];
        let q = Matrix::random_normal(n, d, 0.0, 1.0, &mut rng);
        let k = Matrix::random_normal(n, d, 0.0, 1.0, &mut rng);
        let v = Matrix::random_normal(n, d, 0.0, 1.0, &mut rng);
        let reference = (i % 4 == 0).then(|| {
            let mut ctx = GpuCtx::a100();
            mech.forward(&mut ctx, &q, &k, &v)
        });
        let handle = server.submit(q, k, v).expect("no queue bound in chaos row");
        handles.push((i, handle, reference));
    }
    let (mut served, mut panicked, mut post_fault_served) = (0u64, 0u64, 0u64);
    for (i, h, reference) in handles {
        match h.wait() {
            Ok(out) => {
                served += 1;
                if i > fault_at {
                    post_fault_served += 1;
                }
                if let Some(reference) = &reference {
                    assert_bit_identical(reference, &out.output, i, "chaos");
                }
            }
            Err(ServeError::BatchPanicked { payload }) => {
                assert!(
                    payload.contains("injected kernel panic"),
                    "panic payload must carry the injected message, got: {payload}"
                );
                panicked += 1;
            }
            Err(e) => panic!("chaos request {i} failed with a non-panic error: {e}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(
        served + panicked,
        total as u64,
        "every chaos request must resolve typed"
    );
    assert!(panicked >= 1, "the injected panic must fail its launch");
    assert!(
        post_fault_served > 0,
        "requests after the poisoned launch must be served — the worker recovered"
    );
    assert!(stats.batch_panics >= 1);
    ChaosRow {
        requests: total,
        fault_at,
        served,
        panicked,
        post_fault_served,
        batch_panics: stats.batch_panics,
    }
}

/// Socket-level sweep shape: one fixed prefill shape through the HTTP
/// front door, behind a bounded queue.
struct HttpSpec {
    shape: (usize, usize),
    requests_per_load: usize,
    queue_depth: usize,
    max_connections: usize,
    /// Closed-loop clients of the wire capacity burst.
    capacity_clients: usize,
}

fn http_workload() -> HttpSpec {
    if quick() {
        HttpSpec {
            shape: (32, 16),
            requests_per_load: 96,
            queue_depth: 16,
            max_connections: 256,
            capacity_clients: 16,
        }
    } else {
        HttpSpec {
            shape: (64, 32),
            requests_per_load: 192,
            queue_depth: 32,
            max_connections: 256,
            capacity_clients: 32,
        }
    }
}

/// One pre-rendered wire request: raw bytes, Poisson arrival offset, and
/// (on the reference subset) the solo-forward output to bit-compare.
struct HttpRequest {
    bytes: Vec<u8>,
    arrival: Duration,
    reference: Option<Matrix<f32>>,
}

fn wire_matrix(m: &Matrix<f32>) -> WireJson {
    WireJson::Arr(
        (0..m.rows())
            .map(|i| WireJson::f32_row(&m.as_slice()[i * m.cols()..(i + 1) * m.cols()]))
            .collect(),
    )
}

/// Render one `POST` as raw HTTP/1.1 bytes. `connection: close` keeps the
/// load generator honest: every request is a full connect/serve/teardown,
/// so the server's accept counter equals the offered request count.
fn http_request_bytes(path: &str, body: &WireJson) -> Vec<u8> {
    let payload = body.render();
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        payload.len()
    )
    .into_bytes();
    out.extend_from_slice(payload.as_bytes());
    out
}

fn build_http_requests(
    spec: &HttpSpec,
    mech: &dyn Attention<f32>,
    rate: f64,
    seed: u64,
) -> Vec<HttpRequest> {
    let mut rng = Rng::new(seed);
    let (n, d) = spec.shape;
    let mut at = 0.0f64;
    (0..spec.requests_per_load)
        .map(|i| {
            let q = Matrix::random_normal(n, d, 0.0, 1.0, &mut rng);
            let k = Matrix::random_normal(n, d, 0.0, 1.0, &mut rng);
            let v = Matrix::random_normal(n, d, 0.0, 1.0, &mut rng);
            let reference = (i % 8 == 0).then(|| {
                let mut ctx = GpuCtx::a100();
                mech.forward(&mut ctx, &q, &k, &v)
            });
            let body = WireJson::obj(vec![
                ("q", wire_matrix(&q)),
                ("k", wire_matrix(&k)),
                ("v", wire_matrix(&v)),
            ]);
            let u: f64 = rng.uniform().max(1e-12);
            at += -u.ln() / rate;
            HttpRequest {
                bytes: http_request_bytes("/v1/prefill", &body),
                arrival: Duration::from_secs_f64(at),
                reference,
            }
        })
        .collect()
}

/// One blocking wire exchange: connect, send the pre-rendered request,
/// read the typed response. Any transport failure is a bench bug, not a
/// measurement — the server must always answer typed.
fn http_exchange(addr: SocketAddr, bytes: &[u8]) -> wire::Response {
    use std::io::Write;
    let stream = TcpStream::connect(addr).expect("connect loopback");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
        .set_write_timeout(Some(Duration::from_secs(30)))
        .expect("write timeout");
    stream.set_nodelay(true).ok();
    (&stream).write_all(bytes).expect("send request");
    let mut reader = RequestReader::new(&stream);
    wire::read_response(&mut reader, &WireLimits::default()).expect("typed response")
}

/// Saturated throughput of the whole front door — parse, serve, render —
/// measured with `capacity_clients` closed-loop clients, so the worker
/// never idles. Offered wire loads are scaled against this rate: 2× of it
/// *must* grow the bounded queue.
fn measure_http_capacity(mech: &Arc<dyn Attention<f32> + Send + Sync>, spec: &HttpSpec) -> f64 {
    let att = AttentionServer::start(Arc::clone(mech), BatchPolicy::default());
    let http = HttpServer::bind(
        att,
        HttpConfig {
            max_connections: spec.max_connections,
            ..HttpConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = http.local_addr();
    let clients = spec.capacity_clients;
    let per_client = 6usize;
    let mut rng = Rng::new(0x117CAB);
    let (n, d) = spec.shape;
    let bodies: Vec<Vec<u8>> = (0..clients)
        .map(|_| {
            let body = WireJson::obj(vec![
                (
                    "q",
                    wire_matrix(&Matrix::random_normal(n, d, 0.0, 1.0, &mut rng)),
                ),
                (
                    "k",
                    wire_matrix(&Matrix::random_normal(n, d, 0.0, 1.0, &mut rng)),
                ),
                (
                    "v",
                    wire_matrix(&Matrix::random_normal(n, d, 0.0, 1.0, &mut rng)),
                ),
            ]);
            http_request_bytes("/v1/prefill", &body)
        })
        .collect();
    let run_round = |reps: usize| {
        let threads: Vec<_> = bodies
            .iter()
            .map(|b| {
                let b = b.clone();
                std::thread::spawn(move || {
                    for _ in 0..reps {
                        let resp = http_exchange(addr, &b);
                        assert_eq!(resp.status, 200, "capacity burst has no queue bound");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("capacity client");
        }
    };
    run_round(1); // warm: listener, threads, allocator, worker
    let t0 = Instant::now();
    run_round(per_client);
    let capacity = (clients * per_client) as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    http.shutdown();
    capacity
}

/// One wire overload point: goodput, client-observed tails, typed 503s.
struct HttpPoint {
    load_mult: f64,
    offered_rps: f64,
    requests: usize,
    ok: u64,
    shed: u64,
    goodput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    overload_sheds: u64,
    conn_sheds: u64,
    accepted: u64,
}

/// Offer one Poisson stream over loopback sockets, one connection per
/// request. Every exchange resolves to `200` (latency recorded, reference
/// subset bit-compared) or a typed `503 Retry-After` — any other status
/// for a valid request is a front-door bug and panics the bench.
fn run_http_point(
    mech: &Arc<dyn Attention<f32> + Send + Sync>,
    spec: &HttpSpec,
    mult: f64,
    rate: f64,
    requests: Vec<HttpRequest>,
) -> HttpPoint {
    let policy = BatchPolicy::default().with_queue_depth(spec.queue_depth);
    let att = AttentionServer::start(Arc::clone(mech), policy);
    let http = HttpServer::bind(
        att,
        HttpConfig {
            max_connections: spec.max_connections,
            ..HttpConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = http.local_addr();
    let total = requests.len();
    let start = Instant::now();
    let mut workers = Vec::with_capacity(total);
    for req in requests {
        if let Some(wait) = req.arrival.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        workers.push(std::thread::spawn(move || {
            let t0 = Instant::now();
            let resp = http_exchange(addr, &req.bytes);
            (resp, t0.elapsed(), req.reference)
        }));
    }
    let (mut ok, mut shed) = (0u64, 0u64);
    let mut client_ms = Vec::with_capacity(total);
    for w in workers {
        let (resp, latency, reference) = w.join().expect("load-gen worker");
        match resp.status {
            200 => {
                ok += 1;
                client_ms.push(latency.as_secs_f64() * 1e3);
                if let Some(reference) = &reference {
                    let doc = WireJson::parse(&resp.body).expect("served body is JSON");
                    let rows = doc
                        .get("output")
                        .and_then(WireJson::as_arr)
                        .expect("served body carries the output matrix");
                    let got: Vec<f32> = rows
                        .iter()
                        .flat_map(|r| r.to_f32_row().expect("float rows"))
                        .collect();
                    assert_eq!(got.len(), reference.as_slice().len());
                    for (a, b) in got.iter().zip(reference.as_slice()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "HTTP prefill must stay bit-identical under load"
                        );
                    }
                }
            }
            503 => {
                assert!(
                    resp.retry_after().is_some(),
                    "typed sheds must carry Retry-After"
                );
                shed += 1;
            }
            other => panic!(
                "wire sweep answered {other}; valid requests resolve only to 200 or a typed 503"
            ),
        }
    }
    let makespan = start.elapsed().as_secs_f64();
    let stats = http.shutdown();
    assert_eq!(ok + shed, total as u64);
    assert_eq!(
        stats.overload_sheds + stats.http_connections_shed,
        shed,
        "every 503 on the wire must map to a typed shed counter"
    );
    assert_eq!(
        stats.served, ok,
        "the server's served count must agree with the 200s on the wire"
    );
    client_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (p50_ms, p99_ms) = if client_ms.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(&client_ms, 50.0), percentile(&client_ms, 99.0))
    };
    HttpPoint {
        load_mult: mult,
        offered_rps: rate,
        requests: total,
        ok,
        shed,
        goodput_rps: ok as f64 / makespan.max(1e-9),
        p50_ms,
        p99_ms,
        overload_sheds: stats.overload_sheds,
        conn_sheds: stats.http_connections_shed,
        accepted: stats.http_connections_accepted,
    }
}

fn run_http_sweep(
    mech: &Arc<dyn Attention<f32> + Send + Sync>,
    spec: &HttpSpec,
    wire_capacity_rps: f64,
) -> Vec<HttpPoint> {
    println!(
        "{:>6}  {:>9}  {:>6}  {:>6}  {:>9}  {:>10}  {:>10}  {:>10}",
        "load", "rps", "ok", "shed", "shed rate", "goodput", "p50 ms", "p99 ms"
    );
    OVERLOAD_MULTS
        .iter()
        .enumerate()
        .map(|(i, &mult)| {
            let rate = mult * wire_capacity_rps;
            let requests = build_http_requests(spec, mech.as_ref(), rate, 7000 + i as u64);
            let p = run_http_point(mech, spec, mult, rate, requests);
            println!(
                "{:>6.2}  {:>9.1}  {:>6}  {:>6}  {:>8.1}%  {:>10.1}  {:>10.3}  {:>10.3}",
                p.load_mult,
                p.offered_rps,
                p.ok,
                p.shed,
                100.0 * p.shed as f64 / p.requests.max(1) as f64,
                p.goodput_rps,
                p.p50_ms,
                p.p99_ms
            );
            p
        })
        .collect()
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() > 1 {
        if args.len() != 3 || args[1] != "--check" {
            eprintln!("usage: serving [--check <artifact.json>]");
            std::process::exit(2);
        }
        if let Err(e) = check(&args[2]) {
            eprintln!("schema validation failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    let spec = workload();
    let mech_concrete = DfssAttention::new(NmPattern::P1_2);
    let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(mech_concrete);
    eprintln!("[serving] {} mode", if quick() { "quick" } else { "full" });

    // Decode sweep: tokens/sec vs concurrent streams at several cached
    // lengths, ragged batched flush vs the per-stream solo loop.
    let dspec = decode_workload();
    eprintln!(
        "[serving] decode sweep ({} points)",
        dspec.cached_lens.len() * dspec.streams.len()
    );
    let (decode_points, decode_wins) = run_decode_sweep(&mech_concrete, &dspec);
    // The simulated-device metric is deterministic, so the gate holds in
    // both modes.
    assert!(
        decode_wins >= MIN_DECODE_WINS,
        "batched decode won tokens/sec at only {decode_wins} stream counts (need {MIN_DECODE_WINS})"
    );
    let decode_rows: Vec<Json> = decode_points
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("cached_len", Json::Num(p.cached_len as f64)),
                ("streams", Json::Num(p.streams as f64)),
                ("solo_tok_s", Json::Num(round3(p.solo_tok_s))),
                ("batched_tok_s", Json::Num(round3(p.batched_tok_s))),
                (
                    "speedup",
                    Json::Num(round3(p.batched_tok_s / p.solo_tok_s.max(1e-9))),
                ),
                ("host_solo_tok_s", Json::Num(round3(p.host_solo_tok_s))),
                (
                    "host_batched_tok_s",
                    Json::Num(round3(p.host_batched_tok_s)),
                ),
            ])
        })
        .collect();

    // Memory-pressure sweep: tokens/sec and typed rejection rate against
    // shrinking KV budgets. Deterministic (single-threaded op order), so
    // the funded/starved gates hold in both modes.
    let mspec = memory_workload();
    eprintln!(
        "[serving] memory sweep ({} sessions x {} rows, working set {} pages)",
        mspec.sessions,
        mspec.target_len,
        mspec.working_set_pages()
    );
    let memory_points = run_memory_sweep(&mech, &mspec);
    for p in &memory_points {
        if p.budget_mult >= 1.0 {
            assert_eq!(
                p.rejections, 0,
                "a funded budget ({}x working set) must serve without rejections",
                p.budget_mult
            );
        }
    }
    let starved = memory_points
        .iter()
        .min_by(|a, b| a.budget_mult.partial_cmp(&b.budget_mult).unwrap())
        .expect("at least one budget point");
    assert!(
        starved.rejections > 0,
        "the starved budget ({}x working set) must surface typed back-pressure",
        starved.budget_mult
    );
    let memory_rows: Vec<Json> = memory_points
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("budget_mult", Json::Num(p.budget_mult)),
                ("budget_pages", Json::Num(p.budget_pages as f64)),
                ("attempts", Json::Num(p.attempts as f64)),
                ("rejections", Json::Num(p.rejections as f64)),
                (
                    "rejection_rate",
                    Json::Num(round3(p.rejections as f64 / p.attempts.max(1) as f64)),
                ),
                ("tokens", Json::Num(p.tokens as f64)),
                ("tok_s", Json::Num(round3(p.tok_s))),
                ("evictions", Json::Num(p.stats.evictions as f64)),
                (
                    "admission_rejections",
                    Json::Num(p.stats.admission_rejections as f64),
                ),
                (
                    "kv_pages_allocated",
                    Json::Num(p.stats.kv_pages_allocated as f64),
                ),
                ("kv_pages_freed", Json::Num(p.stats.kv_pages_freed as f64)),
                ("kv_bytes_peak", Json::Num(p.stats.kv_bytes_peak as f64)),
            ])
        })
        .collect();

    // Overload sweep: the depth-bounded server against its own saturated
    // capacity. The shed gates are effectively deterministic — 0.6× of a
    // just-measured capacity drains, 2.0× cannot — so both modes assert.
    let batched_capacity_rps = measure_batched_capacity(&spec, &mech);
    eprintln!("[serving] overload sweep, server capacity ~{batched_capacity_rps:.1} req/s");
    let overload_points = run_overload_sweep(&mech, &spec, batched_capacity_rps);
    for p in &overload_points {
        if p.load_mult < 1.0 {
            assert_eq!(
                p.shed, 0,
                "a sub-capacity load ({}x) must be served without shedding",
                p.load_mult
            );
        }
    }
    let worst = overload_points
        .iter()
        .max_by(|a, b| a.load_mult.partial_cmp(&b.load_mult).unwrap())
        .expect("at least one overload point");
    assert!(
        worst.shed > 0,
        "the {}x overload must engage the typed queue bound",
        worst.load_mult
    );
    let overload_rows: Vec<Json> = overload_points
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("load_mult", Json::Num(p.load_mult)),
                ("offered_rps", Json::Num(round3(p.offered_rps))),
                ("requests", Json::Num(p.requests as f64)),
                ("served", Json::Num(p.served as f64)),
                ("shed", Json::Num(p.shed as f64)),
                (
                    "shed_rate",
                    Json::Num(round3(p.shed as f64 / p.requests.max(1) as f64)),
                ),
                ("goodput_rps", Json::Num(round3(p.goodput_rps))),
                ("p50_ms", Json::Num(round3(p.p50_ms))),
                ("p99_ms", Json::Num(round3(p.p99_ms))),
            ])
        })
        .collect();

    // Chaos row: one injected mid-flush panic; the default hook would spray
    // a "thread panicked" banner into the bench output, so silence it for
    // the duration (the panic is expected and asserted on).
    eprintln!("[serving] chaos row (injected launch panic)");
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let chaos = run_chaos_row(&mech, &spec);
    drop(std::panic::take_hook());
    std::panic::set_hook(default_hook);
    println!(
        "chaos: {} requests, fault at #{}, {} served ({} after the fault), {} failed typed, {} batch panic(s)",
        chaos.requests,
        chaos.fault_at,
        chaos.served,
        chaos.post_fault_served,
        chaos.panicked,
        chaos.batch_panics
    );

    // HTTP front-door sweep: the overload story again, measured at the
    // socket — goodput, client-observed tails, and the typed 503 shed
    // rate over loopback against the wire-measured capacity.
    let hspec = http_workload();
    let wire_capacity_rps = measure_http_capacity(&mech, &hspec);
    eprintln!("[serving] http sweep, wire capacity ~{wire_capacity_rps:.1} req/s");
    let http_points = run_http_sweep(&mech, &hspec, wire_capacity_rps);
    for p in &http_points {
        if p.load_mult < 1.0 {
            assert_eq!(
                p.shed, 0,
                "a sub-capacity wire load ({}x) must be served without 503s",
                p.load_mult
            );
        }
    }
    let worst_http = http_points
        .iter()
        .max_by(|a, b| a.load_mult.partial_cmp(&b.load_mult).unwrap())
        .expect("at least one http point");
    assert!(
        worst_http.shed > 0,
        "the {}x wire overload must shed typed 503s",
        worst_http.load_mult
    );
    let http_rows: Vec<Json> = http_points
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("load_mult", Json::Num(p.load_mult)),
                ("offered_rps", Json::Num(round3(p.offered_rps))),
                ("requests", Json::Num(p.requests as f64)),
                ("ok", Json::Num(p.ok as f64)),
                ("shed", Json::Num(p.shed as f64)),
                (
                    "shed_rate",
                    Json::Num(round3(p.shed as f64 / p.requests.max(1) as f64)),
                ),
                ("goodput_rps", Json::Num(round3(p.goodput_rps))),
                ("p50_ms", Json::Num(round3(p.p50_ms))),
                ("p99_ms", Json::Num(round3(p.p99_ms))),
                ("overload_sheds", Json::Num(p.overload_sheds as f64)),
                ("conn_sheds", Json::Num(p.conn_sheds as f64)),
                ("accepted", Json::Num(p.accepted as f64)),
            ])
        })
        .collect();

    let doc = Json::obj(vec![
        ("schema_version", Json::Num(SCHEMA_VERSION)),
        ("artifact", Json::Str("bench_serving".into())),
        (
            "mode",
            Json::Str(if quick() { "quick" } else { "full" }.into()),
        ),
        ("threads", Json::Num(rayon::current_num_threads() as f64)),
        (
            "mechanism",
            Json::Str(Attention::<f32>::name(&mech_concrete)),
        ),
        (
            "decode",
            Json::obj(vec![
                ("head_dim", Json::Num(dspec.head_dim as f64)),
                ("rounds", Json::Num(dspec.rounds as f64)),
                ("winning_stream_counts", Json::Num(decode_wins as f64)),
                ("rows", Json::Arr(decode_rows)),
            ]),
        ),
        (
            "memory",
            Json::obj(vec![
                ("page_elems", Json::Num(mspec.page_elems as f64)),
                ("sessions", Json::Num(mspec.sessions as f64)),
                ("target_len", Json::Num(mspec.target_len as f64)),
                ("decode_every", Json::Num(mspec.decode_every as f64)),
                ("head_dim", Json::Num(mspec.head_dim as f64)),
                (
                    "working_set_pages",
                    Json::Num(mspec.working_set_pages() as f64),
                ),
                ("rows", Json::Arr(memory_rows)),
            ]),
        ),
        (
            "overload",
            Json::obj(vec![
                ("max_queue_depth", Json::Num(spec.queue_depth as f64)),
                (
                    "batched_capacity_rps",
                    Json::Num(round3(batched_capacity_rps)),
                ),
                ("rows", Json::Arr(overload_rows)),
            ]),
        ),
        (
            "chaos",
            Json::obj(vec![
                ("requests", Json::Num(chaos.requests as f64)),
                ("fault_at", Json::Num(chaos.fault_at as f64)),
                ("served", Json::Num(chaos.served as f64)),
                ("panicked", Json::Num(chaos.panicked as f64)),
                (
                    "post_fault_served",
                    Json::Num(chaos.post_fault_served as f64),
                ),
                ("batch_panics", Json::Num(chaos.batch_panics as f64)),
            ]),
        ),
        (
            "http",
            Json::obj(vec![
                ("shape_n", Json::Num(hspec.shape.0 as f64)),
                ("shape_d", Json::Num(hspec.shape.1 as f64)),
                ("max_queue_depth", Json::Num(hspec.queue_depth as f64)),
                ("max_connections", Json::Num(hspec.max_connections as f64)),
                ("wire_capacity_rps", Json::Num(round3(wire_capacity_rps))),
                ("rows", Json::Arr(http_rows)),
            ]),
        ),
    ]);
    let path = results_dir().join("bench_serving.json");
    std::fs::write(&path, doc.render()).expect("write bench_serving.json");
    println!("[saved {}]", path.display());
}

/// Schema validation (`serving --check <path>`): structure and the sweeps'
/// gates.
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("missing schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!("schema_version {version} != {SCHEMA_VERSION}"));
    }
    match doc.get("artifact").and_then(Json::as_str) {
        Some("bench_serving") => {}
        other => return Err(format!("artifact {other:?} != \"bench_serving\"")),
    }
    let mode = doc
        .get("mode")
        .and_then(Json::as_str)
        .ok_or("missing mode")?;
    if mode != "quick" && mode != "full" {
        return Err(format!("mode `{mode}` not in {{quick, full}}"));
    }
    doc.get("threads")
        .and_then(Json::as_f64)
        .ok_or("missing numeric threads")?;
    doc.get("mechanism")
        .and_then(Json::as_str)
        .ok_or("missing mechanism")?;
    // Decode sweep section: structure always; the "batched decode beats the
    // solo loop at >= 2 stream counts" gate on full-mode artifacts.
    let decode = doc.get("decode").ok_or("missing decode section")?;
    for field in ["head_dim", "rounds", "winning_stream_counts"] {
        decode
            .get(field)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric decode.{field}"))?;
    }
    let drows = decode
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing decode.rows array")?;
    if drows.is_empty() {
        return Err("decode.rows is empty".into());
    }
    let mut stream_counts: Vec<u64> = Vec::new();
    for (i, r) in drows.iter().enumerate() {
        for field in [
            "cached_len",
            "streams",
            "solo_tok_s",
            "batched_tok_s",
            "speedup",
            "host_solo_tok_s",
            "host_batched_tok_s",
        ] {
            let x = r
                .get(field)
                .and_then(Json::as_f64)
                .ok_or(format!("decode row {i}: missing numeric {field}"))?;
            if !x.is_finite() || x < 0.0 {
                return Err(format!(
                    "decode row {i}: {field} = {x} not finite non-negative"
                ));
            }
        }
        let sc = r.get("streams").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        if !stream_counts.contains(&sc) {
            stream_counts.push(sc);
        }
    }
    // Recompute the winning stream counts (batched > solo at every cached
    // length of that stream count). The metric is simulated-device
    // tokens/sec — deterministic — so the gate holds for both modes.
    let decode_wins = stream_counts
        .iter()
        .filter(|&&sc| {
            drows
                .iter()
                .filter(|r| r.get("streams").and_then(Json::as_f64).unwrap_or(0.0) as u64 == sc)
                .all(|r| {
                    r.get("batched_tok_s").and_then(Json::as_f64).unwrap_or(0.0)
                        > r.get("solo_tok_s").and_then(Json::as_f64).unwrap_or(0.0)
                })
        })
        .count();
    if decode_wins < MIN_DECODE_WINS {
        return Err(format!(
            "artifact: batched decode wins tokens/sec at only {decode_wins} stream counts (need {MIN_DECODE_WINS})"
        ));
    }

    // Memory-pressure section: structure, counter reconciliation, and the
    // deterministic back-pressure gates — zero typed rejections at funded
    // budgets (multiplier >= 1), a non-zero rejection rate at the starved
    // point. Holds for both modes: the sweep's op order is single-threaded.
    let memory = doc.get("memory").ok_or("missing memory section")?;
    for field in [
        "page_elems",
        "sessions",
        "target_len",
        "decode_every",
        "head_dim",
        "working_set_pages",
    ] {
        memory
            .get(field)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric memory.{field}"))?;
    }
    let mrows = memory
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing memory.rows array")?;
    if mrows.len() < 2 {
        return Err(format!(
            "need >= 2 memory budget points, got {}",
            mrows.len()
        ));
    }
    let mut funded_points = 0usize;
    let mut starved: Option<(f64, f64)> = None;
    for (i, r) in mrows.iter().enumerate() {
        for field in [
            "budget_mult",
            "budget_pages",
            "attempts",
            "rejections",
            "rejection_rate",
            "tokens",
            "tok_s",
            "evictions",
            "admission_rejections",
            "kv_pages_allocated",
            "kv_pages_freed",
            "kv_bytes_peak",
        ] {
            let x = r
                .get(field)
                .and_then(Json::as_f64)
                .ok_or(format!("memory row {i}: missing numeric {field}"))?;
            if !x.is_finite() || x < 0.0 {
                return Err(format!(
                    "memory row {i}: {field} = {x} not finite non-negative"
                ));
            }
        }
        let get = |f: &str| r.get(f).and_then(Json::as_f64).unwrap_or(0.0);
        if get("kv_pages_allocated") != get("kv_pages_freed") {
            return Err(format!(
                "memory row {i}: {} pages allocated but {} freed — the sweep closes every session, the pool must drain",
                get("kv_pages_allocated"),
                get("kv_pages_freed")
            ));
        }
        let (mult, rejections) = (get("budget_mult"), get("rejections"));
        if mult >= 1.0 {
            funded_points += 1;
            if rejections > 0.0 {
                return Err(format!(
                    "memory row {i}: {rejections} rejections at a funded budget ({mult}x working set)"
                ));
            }
        }
        if starved.is_none_or(|(m, _)| mult < m) {
            starved = Some((mult, rejections));
        }
    }
    if funded_points == 0 {
        return Err("memory sweep has no funded (>= 1x working set) budget point".into());
    }
    let (starved_mult, starved_rejections) = starved.expect("rows checked non-empty");
    if starved_rejections == 0.0 {
        return Err(format!(
            "memory sweep: the starved budget ({starved_mult}x working set) shows no typed rejections"
        ));
    }

    // Overload section: structure, shed/served reconciliation, and the
    // load-shedding gates — zero typed sheds at the sub-capacity point,
    // a non-zero shed count at the heaviest (>= 2×-capacity) overload.
    let overload = doc.get("overload").ok_or("missing overload section")?;
    for field in ["max_queue_depth", "batched_capacity_rps"] {
        let x = overload
            .get(field)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric overload.{field}"))?;
        if !x.is_finite() || x <= 0.0 {
            return Err(format!("overload.{field} = {x} not finite positive"));
        }
    }
    let orows = overload
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing overload.rows array")?;
    if orows.len() < 3 {
        return Err(format!("need >= 3 overload points, got {}", orows.len()));
    }
    let mut lightest: Option<(f64, f64)> = None;
    let mut heaviest: Option<(f64, f64)> = None;
    for (i, r) in orows.iter().enumerate() {
        for field in [
            "load_mult",
            "offered_rps",
            "requests",
            "served",
            "shed",
            "shed_rate",
            "goodput_rps",
            "p50_ms",
            "p99_ms",
        ] {
            let x = r
                .get(field)
                .and_then(Json::as_f64)
                .ok_or(format!("overload row {i}: missing numeric {field}"))?;
            if !x.is_finite() || x < 0.0 {
                return Err(format!(
                    "overload row {i}: {field} = {x} not finite non-negative"
                ));
            }
        }
        let get = |f: &str| r.get(f).and_then(Json::as_f64).unwrap_or(0.0);
        if get("served") + get("shed") != get("requests") {
            return Err(format!(
                "overload row {i}: served {} + shed {} != requests {} — every submission resolves typed",
                get("served"),
                get("shed"),
                get("requests")
            ));
        }
        // The p99 gate: a row that served traffic must report a positive
        // p50 and a tail at or above it — a zero tail under load means
        // the row never measured, an inverted tail means the percentile
        // pipeline broke.
        if get("served") > 0.0 {
            let (p50, p99) = (get("p50_ms"), get("p99_ms"));
            if p50 <= 0.0 {
                return Err(format!(
                    "overload row {i}: served {} requests but p50_ms = {p50}",
                    get("served")
                ));
            }
            if p99 < p50 {
                return Err(format!(
                    "overload row {i}: p99_ms {p99} < p50_ms {p50} — tail inversion"
                ));
            }
        }
        let (mult, shed) = (get("load_mult"), get("shed"));
        if lightest.is_none_or(|(m, _)| mult < m) {
            lightest = Some((mult, shed));
        }
        if heaviest.is_none_or(|(m, _)| mult > m) {
            heaviest = Some((mult, shed));
        }
    }
    let (light_mult, light_shed) = lightest.expect("rows checked non-empty");
    if light_mult >= 1.0 {
        return Err(format!(
            "overload sweep has no sub-capacity point (lightest load is {light_mult}x)"
        ));
    }
    if light_shed > 0.0 {
        return Err(format!(
            "overload sweep: {light_shed} sheds at the sub-capacity ({light_mult}x) point"
        ));
    }
    let (heavy_mult, heavy_shed) = heaviest.expect("rows checked non-empty");
    if heavy_mult < 2.0 {
        return Err(format!(
            "overload sweep must reach a 2x overload (heaviest load is {heavy_mult}x)"
        ));
    }
    if heavy_shed == 0.0 {
        return Err(format!(
            "overload sweep: the {heavy_mult}x overload shows no typed sheds — the queue bound never engaged"
        ));
    }

    // Chaos section: the injected-panic row must reconcile (every request
    // resolved typed), show at least one poisoned batch, and show requests
    // served *after* the fault — recovery, not survival by luck.
    let chaos = doc.get("chaos").ok_or("missing chaos section")?;
    let cget = |f: &str| -> Result<f64, String> {
        let x = chaos
            .get(f)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric chaos.{f}"))?;
        if !x.is_finite() || x < 0.0 {
            return Err(format!("chaos.{f} = {x} not finite non-negative"));
        }
        Ok(x)
    };
    let (c_requests, c_served, c_panicked) =
        (cget("requests")?, cget("served")?, cget("panicked")?);
    let (c_post, c_batch_panics, _c_fault_at) = (
        cget("post_fault_served")?,
        cget("batch_panics")?,
        cget("fault_at")?,
    );
    if c_served + c_panicked != c_requests {
        return Err(format!(
            "chaos: served {c_served} + panicked {c_panicked} != requests {c_requests}"
        ));
    }
    if c_panicked < 1.0 || c_batch_panics < 1.0 {
        return Err(format!(
            "chaos: injected panic left no trace (panicked {c_panicked}, batch_panics {c_batch_panics})"
        ));
    }
    if c_post < 1.0 {
        return Err("chaos: nothing served after the injected panic — no recovery shown".into());
    }

    // HTTP section: the same back-pressure gates, but measured at the
    // socket — and every wire 503 must reconcile against a typed shed
    // counter (queue bound or connection cap), nothing unaccounted.
    let http = doc.get("http").ok_or("missing http section")?;
    for field in [
        "shape_n",
        "shape_d",
        "max_queue_depth",
        "max_connections",
        "wire_capacity_rps",
    ] {
        let x = http
            .get(field)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric http.{field}"))?;
        if !x.is_finite() || x <= 0.0 {
            return Err(format!("http.{field} = {x} not finite positive"));
        }
    }
    let hrows = http
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing http.rows array")?;
    if hrows.len() < 3 {
        return Err(format!("need >= 3 http points, got {}", hrows.len()));
    }
    let mut h_lightest: Option<(f64, f64)> = None;
    let mut h_heaviest: Option<(f64, f64)> = None;
    for (i, r) in hrows.iter().enumerate() {
        for field in [
            "load_mult",
            "offered_rps",
            "requests",
            "ok",
            "shed",
            "shed_rate",
            "goodput_rps",
            "p50_ms",
            "p99_ms",
            "overload_sheds",
            "conn_sheds",
            "accepted",
        ] {
            let x = r
                .get(field)
                .and_then(Json::as_f64)
                .ok_or(format!("http row {i}: missing numeric {field}"))?;
            if !x.is_finite() || x < 0.0 {
                return Err(format!(
                    "http row {i}: {field} = {x} not finite non-negative"
                ));
            }
        }
        let get = |f: &str| r.get(f).and_then(Json::as_f64).unwrap_or(0.0);
        if get("ok") + get("shed") != get("requests") {
            return Err(format!(
                "http row {i}: ok {} + shed {} != requests {} — every exchange resolves typed",
                get("ok"),
                get("shed"),
                get("requests")
            ));
        }
        if get("overload_sheds") + get("conn_sheds") != get("shed") {
            return Err(format!(
                "http row {i}: overload_sheds {} + conn_sheds {} != shed {} — a 503 left no typed trace",
                get("overload_sheds"),
                get("conn_sheds"),
                get("shed")
            ));
        }
        // The same p99 gate as the in-process overload sweep, measured
        // at the socket.
        if get("ok") > 0.0 {
            let (p50, p99) = (get("p50_ms"), get("p99_ms"));
            if p50 <= 0.0 {
                return Err(format!(
                    "http row {i}: {} exchanges returned 200 but p50_ms = {p50}",
                    get("ok")
                ));
            }
            if p99 < p50 {
                return Err(format!(
                    "http row {i}: p99_ms {p99} < p50_ms {p50} — tail inversion"
                ));
            }
        }
        let (mult, shed) = (get("load_mult"), get("shed"));
        if h_lightest.is_none_or(|(m, _)| mult < m) {
            h_lightest = Some((mult, shed));
        }
        if h_heaviest.is_none_or(|(m, _)| mult > m) {
            h_heaviest = Some((mult, shed));
        }
    }
    let (h_light_mult, h_light_shed) = h_lightest.expect("rows checked non-empty");
    if h_light_mult >= 1.0 {
        return Err(format!(
            "http sweep has no sub-capacity point (lightest load is {h_light_mult}x)"
        ));
    }
    if h_light_shed > 0.0 {
        return Err(format!(
            "http sweep: {h_light_shed} wire sheds at the sub-capacity ({h_light_mult}x) point"
        ));
    }
    let (h_heavy_mult, h_heavy_shed) = h_heaviest.expect("rows checked non-empty");
    if h_heavy_mult < 2.0 {
        return Err(format!(
            "http sweep must reach a 2x overload (heaviest load is {h_heavy_mult}x)"
        ));
    }
    if h_heavy_shed == 0.0 {
        return Err(format!(
            "http sweep: the {h_heavy_mult}x wire overload shows no typed 503s — back-pressure never reached the socket"
        ));
    }

    // Beyond schema: re-prove the continuous path's core bit-parity
    // claim live. This is cheap, deterministic, and catches a broken
    // chunked kernel even when the checked-in artifact predates it.
    verify_chunk_parity()?;

    println!(
        "{path}: schema OK (bench_serving {mode} mode, {} decode points, {decode_wins} decode stream-count wins, {} memory budgets, {starved_rejections} rejections at {starved_mult}x, {heavy_shed} sheds at {heavy_mult}x overload, {c_panicked} panicked/{c_post} served post-fault in chaos, {h_heavy_shed} wire 503s at {h_heavy_mult}x over http, chunk parity re-proven)",
        drows.len(),
        mrows.len()
    );
    Ok(())
}

/// `--check` side recompute: chunked, interleaved execution on a fresh
/// continuous server must reproduce the unchunked solo forward bit for
/// bit — the acceptance claim of the continuous scheduler, proven live
/// rather than trusted from the artifact.
fn verify_chunk_parity() -> Result<(), String> {
    let mech: Arc<dyn Attention<f32> + Send + Sync> = Arc::new(DfssAttention::new(NmPattern::P1_2));
    let server = AttentionServer::start_continuous_with_kv(
        Arc::clone(&mech),
        BatchPolicy::default(),
        // Chunks far smaller than the rows: every request is split into
        // at least three chunks, interleaved with the others'.
        SchedPolicy::new(16, 32),
        KvConfig::default(),
    );
    let mut rng = Rng::new(0x5EED);
    let (n, d) = (48usize, 32usize);
    let pending: Vec<_> = (0..6)
        .map(|_| {
            let q = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
            let k = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
            let v = Matrix::<f32>::random_normal(n, d, 0.0, 1.0, &mut rng);
            let handle = server
                .submit(q.clone(), k.clone(), v.clone())
                .map_err(|e| format!("chunk-parity submit failed: {e}"));
            (q, k, v, handle)
        })
        .collect();
    for (i, (q, k, v, handle)) in pending.into_iter().enumerate() {
        let served = handle?
            .wait()
            .map_err(|e| format!("chunk-parity request {i} failed: {e}"))?;
        let solo = {
            let mut ctx = GpuCtx::a100();
            mech.forward(&mut ctx, &q, &k, &v)
        };
        for (a, b) in served.output.as_slice().iter().zip(solo.as_slice()) {
            if a.to_bits() != b.to_bits() {
                return Err(format!(
                    "chunk-parity request {i}: chunked-interleaved output diverged from the unchunked solo forward"
                ));
            }
        }
    }
    let chunks = server.shutdown().prefill_chunks;
    let min_chunks = 6 * (n as u64).div_ceil(16);
    if chunks < min_chunks {
        return Err(format!(
            "chunk-parity run executed {chunks} chunks (need >= {min_chunks}) — chunking never engaged"
        ));
    }
    Ok(())
}
